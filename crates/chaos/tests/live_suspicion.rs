//! A keep-alive timeout names a peer that went away.
//!
//! Two sweep cells showed one that did not: a peer crashed with its
//! context aborted on disk and the `Fault` for its invoker still in the
//! outbox. Recovery re-sent the abort downward and nothing upward, so the
//! invoker waited on a live, restarted child, pinging it, until a
//! `PingTimeout` ended the wait. Crash recovery now re-sends the `Fault`.
//!
//! Every case also counts the timeouts that did name a live peer — its
//! false suspicions — without a journal; that count must be the one the
//! journal gives.

use axml_chaos::{
    builder_for, case_matrix, live_suspects, par_map, plane_for, run_with_plane_traced, CaseConfig, Profile, SCENARIOS,
};
use axml_p2p::Partition;

/// The journal's live suspects of one case, and the count the case
/// reported without reading a journal.
fn suspects(case: &CaseConfig) -> (Vec<(u32, u32, u64)>, u64) {
    let b = builder_for(&case.scenario).expect("known scenario");
    let plane = plane_for(case.profile, case.seed, &b.peers());
    let (result, dump) = run_with_plane_traced(case, plane.clone());
    assert!(result.verdict.ok, "{}: {}", case.label(), result.verdict.reason);
    let partitions: Vec<Partition> = plane.partitions.iter().chain(&b.fault.partitions).cloned().collect();
    (live_suspects(&dump.journal, &partitions, 2 * b.config.ping_timeout), result.false_suspicions)
}

#[test]
fn no_ping_timeout_names_a_peer_that_is_up_after_a_crash_recovered_an_aborted_context() {
    for (scenario, profile, seed) in [("deep", Profile::Storage, 82), ("fig1-crash", Profile::Storm, 5)] {
        let case = CaseConfig::new(scenario, profile, seed);
        assert_eq!(suspects(&case), (vec![], 0), "{}", case.label());
    }
}

/// Over every case of the 16-seed sweep, the untraced count equals the
/// journal's.
#[test]
fn the_untraced_false_suspicion_count_is_the_journals() {
    let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    let cases = case_matrix(&scenarios, Profile::all(), 0..16, true);
    let counted = par_map(&cases, 2, |_, case| {
        let (journal, untraced) = suspects(case);
        (journal.len() as u64, untraced)
    });
    let mut total = 0;
    for (case, (journal, untraced)) in cases.iter().zip(counted) {
        assert_eq!(untraced, journal, "{}", case.label());
        total += journal;
    }
    assert!(total > 0, "the sweep has false suspicions to count");
}
