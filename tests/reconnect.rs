//! A participant goes offline for a few ticks and comes back. The
//! simulator drops every timer that comes due on an offline peer, so the
//! reconnect must decide, for each kind of timer, what becomes of the ones
//! it lost — a service's completion and a handler's retry included, or the
//! participant serves forever and the transaction never resolves.
//!
//! Walks offline windows over a pair and a fork: every start in 0..40,
//! every length in {1, 2, 3, 5, 8}, every service duration in {1, 3, 10},
//! 1,800 windows in all. Each must resolve, pass the atomicity check and
//! leave no participant holding an undecided context.
//!
//! The origin itself away when its submit comes due is the harness's to
//! handle: the submit timer is set from outside, so the peer's reconnect
//! does not know it; the scenario submits at the origin's return instead.

use axml::prelude::*;

/// Runs AP1's transaction over `edges`, every child serving for
/// `duration` ticks, with `peer` offline from `at` for `len` ticks; names
/// what went wrong, if anything.
fn window(edges: &[(u32, u32)], duration: u64, peer: u32, at: u64, len: u64) -> Option<String> {
    let mut builder = ScenarioBuilder::new(1, edges);
    for &(_, child) in edges {
        builder = builder.duration(child, duration);
    }
    offline(builder, peer, at, len).map(|wrong| format!("{edges:?} d={duration} {wrong}"))
}

/// Runs `builder`'s transaction with `peer` offline from `at` for `len`
/// ticks; names what went wrong, if anything.
fn offline(builder: ScenarioBuilder, peer: u32, at: u64, len: u64) -> Option<String> {
    let mut scenario = builder.disconnect(at, peer).reconnect(at + len, peer).build();
    let report = scenario.run();
    let open: Vec<u32> =
        scenario.participants.iter().filter(|&&p| scenario.sim.actor(p).open_contexts() > 0).map(|p| p.0).collect();
    let wrong = match (report.outcome, report.atomic) {
        (None, _) => "unresolved".to_string(),
        (Some(_), false) => "not atomic".to_string(),
        (Some(_), true) if !open.is_empty() => format!("open contexts on {open:?}"),
        (Some(_), true) => return None,
    };
    Some(format!("AP{peer} offline {at}..{}: {wrong}", at + len))
}

/// Every window over `edges` with one of `offline` away.
fn walk(edges: &[(u32, u32)], offline: &[u32]) -> (usize, Vec<String>) {
    let mut windows = 0;
    let mut failures = Vec::new();
    for &peer in offline {
        for duration in [1, 3, 10] {
            for at in 0..40 {
                for len in [1, 2, 3, 5, 8] {
                    windows += 1;
                    failures.extend(window(edges, duration, peer, at, len));
                }
            }
        }
    }
    (windows, failures)
}

fn assert_clean(edges: &[(u32, u32)], offline: &[u32], expected_windows: usize) {
    let (windows, failures) = walk(edges, offline);
    assert_eq!(windows, expected_windows);
    assert!(
        failures.is_empty(),
        "{} of {windows} windows failed, first: {:#?}",
        failures.len(),
        &failures[..5.min(failures.len())]
    );
}

/// Among them: with `duration(2, 3)` and AP2 away from t=2 to t=8, AP2's
/// completion comes due offline. Without its re-arm the run met the
/// 100,000-tick deadline with AP2 still serving and AP1, answered by
/// pongs, detecting nothing.
#[test]
fn a_child_back_from_an_offline_window_finishes_its_service() {
    assert_clean(&[(1, 2)], &[2], 600);
}

#[test]
fn either_child_of_a_fork_back_from_an_offline_window_finishes_its_service() {
    assert_clean(&[(1, 2), (1, 3)], &[2, 3], 1_200);
}

/// At t = 0 the scheduled disconnect runs before the submit timer, which
/// the simulator then drops: before the harness submitted at the origin's
/// return, none of these windows submitted anything, and each was
/// unresolved.
#[test]
fn an_origin_away_at_its_submit_time_submits_when_it_comes_back() {
    let failures: Vec<String> =
        [1, 2, 3, 5, 8, 13].into_iter().filter_map(|len| offline(ScenarioBuilder::fig1(), 1, 0, len)).collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
