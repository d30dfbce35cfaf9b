//! A keep-alive timeout names a peer that went away.
//!
//! Two sweep cells showed one that did not: a peer crashed with its
//! context aborted on disk and the `Fault` for its invoker still in the
//! outbox. Recovery re-sent the abort downward and nothing upward, so the
//! invoker waited on a live, restarted child, pinging it, until a
//! `PingTimeout` ended the wait. Crash recovery now re-sends the `Fault`.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, Profile};
use axml_core::peer::PeerConfig;
use axml_p2p::{EventKind, TraceJournal};

/// The `(detector, suspect, time)` of every `PingTimeout` in the case
/// whose suspect neither crashed nor was offline, and was not cut off
/// from the detector by a partition, in the two timeouts before it.
fn live_suspects(scenario: &str, profile: Profile, seed: u64) -> Vec<(u32, u32, u64)> {
    let case = CaseConfig::new(scenario, profile, seed);
    let b = builder_for(scenario).expect("known scenario");
    let plane = plane_for(profile, seed, &b.peers());
    let (result, dump) = run_with_plane_traced(&case, plane.clone());
    assert!(result.verdict.ok, "{}: {}", case.label(), result.verdict.reason);
    let journal = TraceJournal::from_json_lines(&dump.journal).expect("journal parses");
    let window = 2 * PeerConfig::default().ping_timeout;
    let partitions: Vec<_> = plane.partitions.iter().chain(&b.fault.partitions).collect();
    let events = journal.events();
    let away = |peer: u32, from: u64, to: u64| {
        // Offline at `from`, or crashed, disconnected or reconnected since.
        let mut offline = false;
        for e in events.iter().filter(|e| e.peer == peer && e.at <= to) {
            match e.kind {
                EventKind::Crash if e.at >= from => return true,
                EventKind::Disconnect | EventKind::Reconnect if e.at >= from => return true,
                EventKind::Disconnect => offline = true,
                EventKind::Reconnect => offline = false,
                _ => {}
            }
        }
        offline
    };
    let cut_off = |a: u32, b: u32, from: u64, to: u64| {
        partitions.iter().any(|p| {
            let side = |v: &[axml_p2p::PeerId], x: u32| v.iter().any(|q| q.0 == x);
            let apart = (side(&p.a, a) && side(&p.b, b)) || (side(&p.b, a) && side(&p.a, b));
            apart && p.start <= to && p.end >= from
        })
    };
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Detect { peer, how } if how == "ping-timeout" => Some((e.peer, *peer, e.at)),
            _ => None,
        })
        .filter(|&(by, of, at)| {
            let from = at.saturating_sub(window);
            !away(of, from, at) && !away(by, from, at) && !cut_off(by, of, from, at)
        })
        .collect()
}

#[test]
fn no_ping_timeout_names_a_peer_that_is_up_after_a_crash_recovered_an_aborted_context() {
    for (scenario, profile, seed) in [("deep", Profile::Storage, 82), ("fig1-crash", Profile::Storm, 5)] {
        assert_eq!(live_suspects(scenario, profile, seed), [], "{scenario}/{}/seed={seed}", profile.name());
    }
}
