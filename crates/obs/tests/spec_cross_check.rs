//! Monitor ↔ spec cross-check: the online monitor's rules M001–M004 are
//! corollaries of the reference model's invariants (axml-spec). On the
//! same journal, the two checkers must agree — identical clean verdicts,
//! and when something is wrong, findings and divergences that point at
//! the same offending event under the documented rule mapping:
//!
//! | Monitor | Spec invariant |
//! |---------|----------------|
//! | M001    | I2 (rule R08)  |
//! | M002    | I3             |
//! | M003    | I5             |
//! | M004    | I4             |

#![forbid(unsafe_code)]

use axml_obs::Monitor;
use axml_spec::check_journal;
use axml_trace::{EventKind, TraceJournal};

/// The spec invariant each monitor rule corresponds to.
fn mapped(rule: &str) -> &'static str {
    match rule {
        "M001" => "I2",
        "M002" => "I3",
        "M003" => "I5",
        "M004" => "I4",
        other => panic!("unknown monitor rule {other}"),
    }
}

/// Builds a journal from (at, peer, txn, kind) tuples.
fn journal(events: &[(u64, u32, Option<&str>, EventKind)]) -> TraceJournal {
    let mut j = TraceJournal::default();
    for (at, peer, txn, kind) in events {
        j.record(*at, *peer, 0, txn.map(|t| t.parse().expect("well-formed id")), None, None, kind.clone());
    }
    j
}

/// Asserts the monitor and the spec conformance checker agree on `j`.
fn cross_check(name: &str, j: &TraceJournal) {
    let findings = Monitor::replay(j);
    let verdict = check_journal(j);
    assert_eq!(findings.is_empty(), verdict.is_clean(), "{name}: monitor={findings:?} spec={}", verdict.render_text());
    // Every monitor finding must have a spec divergence at the same
    // event, under the mapped invariant.
    for f in &findings {
        let hit =
            verdict.divergences.iter().find(|d| d.seq == f.seq && d.peer == f.peer && d.invariant == mapped(f.rule));
        assert!(hit.is_some(), "{name}: monitor {f:?} has no matching spec divergence in {:?}", verdict.divergences);
    }
    assert_eq!(findings.len(), verdict.divergences.len(), "{name}: checker cardinalities diverge");
}

#[test]
fn clean_lifecycle_agrees() {
    let j = journal(&[
        (0, 1, Some("T1.0"), EventKind::Submit { method: "m".into() }),
        (2, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
        (4, 2, Some("T1.0"), EventKind::ResultReturn { to: 1 }),
        (6, 1, Some("T1.0"), EventKind::Materialize { doc: "d1".into(), items: 1 }),
        (8, 1, Some("T1.0"), EventKind::Resolve { committed: true }),
        (9, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
    ]);
    cross_check("clean commit", &j);
}

#[test]
fn clean_abort_with_compensation_agrees() {
    let comp = |undoes| EventKind::CompensateOp { doc: "d3".into(), undoes, actions: 1 };
    let j = journal(&[
        (0, 1, Some("T1.0"), EventKind::Submit { method: "m".into() }),
        (2, 3, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
        (5, 3, Some("T1.0"), EventKind::FaultRaise { to: 1 }),
        (6, 1, Some("T1.0"), EventKind::AbortPropagate { to: 3 }),
        (7, 3, Some("T1.0"), comp(1)),
        (7, 3, Some("T1.0"), comp(0)),
        (8, 3, Some("T1.0"), EventKind::Resolve { committed: false }),
        (9, 1, Some("T1.0"), EventKind::Resolve { committed: false }),
    ]);
    cross_check("clean abort", &j);
}

#[test]
fn m001_maps_to_i2() {
    let comp = |undoes| EventKind::CompensateOp { doc: "d3".into(), undoes, actions: 1 };
    let j = journal(&[(7, 3, Some("T1.0"), comp(0)), (8, 3, Some("T1.0"), comp(1))]);
    cross_check("forward-order compensation", &j);
}

#[test]
fn m002_maps_to_i3() {
    // Serve after commit.
    let j = journal(&[
        (5, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        (9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
    ]);
    cross_check("serve after commit", &j);
    // Materialize after commit.
    let j = journal(&[
        (5, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        (9, 2, Some("T1.0"), EventKind::Materialize { doc: "d2".into(), items: 1 }),
    ]);
    cross_check("materialize after commit", &j);
    // Double resolve.
    let j = journal(&[
        (5, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
        (9, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
    ]);
    cross_check("double resolve", &j);
}

#[test]
fn m003_maps_to_i5() {
    let ack = EventKind::AckSend { to: 1, id: 7 };
    let j = journal(&[(5, 2, Some("T1.0"), ack.clone()), (9, 2, Some("T1.0"), ack)]);
    cross_check("repeated ack without suppress", &j);
}

#[test]
fn m004_maps_to_i4() {
    let j = journal(&[(10, 1, Some("T1.0"), EventKind::AbortPropagate { to: 4 })]);
    cross_check("unlanded abort", &j);
}

#[test]
fn churn_excuses_agree() {
    // Crash absorbs the abort and resets per-peer obligations for both
    // checkers.
    let comp = |undoes| EventKind::CompensateOp { doc: "d4".into(), undoes, actions: 1 };
    let j = journal(&[
        (10, 1, Some("T1.0"), EventKind::AbortPropagate { to: 4 }),
        (12, 4, Some("T1.0"), comp(0)),
        (15, 4, None, EventKind::Crash),
        (20, 4, Some("T1.0"), comp(1)),
        (20, 4, Some("T1.0"), comp(0)),
    ]);
    cross_check("crash epoch reset", &j);
}
