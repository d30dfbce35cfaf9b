//! The benchmark's `big-doc` stream (`common/big_doc.rs`) with the results
//! a call already holds kept in place.
//!
//! Once the stream is warm, a committed step re-materializes each call
//! with the items it holds, so every result subtree stays where it is,
//! node id and all. The aborting step after it undoes that step's effects
//! by their logged paths and fragments, and leaves every document byte
//! for byte as it was before the step. Every document stays consistent
//! throughout.

#[path = "common/big_doc.rs"]
mod big_doc;

use axml::prelude::*;

/// Per peer and document, its bytes and the result ids under each of its
/// calls.
fn snapshot(s: &Scenario) -> Vec<(String, Vec<Vec<NodeId>>)> {
    let mut out = Vec::new();
    for peer in 1..=6 {
        for (_, doc) in s.sim.actor(PeerId(peer)).repo.iter() {
            doc.check_consistency().expect("a consistent document");
            let results = ServiceCall::scan(doc).iter().map(|call| call.result_children(doc)).collect();
            out.push((doc.to_xml(), results));
        }
    }
    out
}

#[test]
fn a_committed_big_doc_step_keeps_every_result_and_an_abort_restores_every_byte() {
    let mut s = big_doc::scenario(0);
    big_doc::run(&mut s, 0..4); // warm-up: every call materialized and undone once
    let mut kept = 0;
    for step in (4..12).step_by(2) {
        let before = snapshot(&s);
        big_doc::run(&mut s, step..step + 1);
        let committed = snapshot(&s);
        for ((_, held), (_, now)) in before.iter().zip(&committed) {
            assert_eq!(held, now, "step {step} moved a result");
            kept += now.iter().map(Vec::len).sum::<usize>();
        }

        big_doc::run(&mut s, step + 1..step + 2);
        let aborted = snapshot(&s);
        for ((xml, _), (now, _)) in committed.iter().zip(&aborted) {
            assert_eq!(xml, now, "step {} left a document changed", step + 1);
        }
    }
    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len(), 12);
    assert!(outcomes.iter().enumerate().all(|(k, o)| o.committed == (k % 2 == 0)), "even steps commit, odd abort");
    assert!(kept > 0, "the stream's documents hold results");
}
