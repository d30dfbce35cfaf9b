//! The benchmark's `big-doc` stream (`common/big_doc.rs`) with the results
//! a call already holds kept in place.
//!
//! Once the stream is warm, a committed step re-materializes each call
//! with the items it holds, so every result subtree stays where it is,
//! node id and all. The aborting step after it keeps them too: it
//! materializes each call with the same items, and its compensation only
//! puts back what the calls hold, so it leaves the tree alone
//! (`axml_core::compensate::put_back_cost`). Every document stays
//! consistent after every step.

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
    for step in 0..4 {
        // Warm-up: every call materialized and undone once.
        big_doc::run(&mut s, step..step + 1);
        snapshot(&s);
    }
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
        for ((xml, held), (now_xml, now)) in committed.iter().zip(&aborted) {
            assert_eq!(xml, now_xml, "step {} left a document changed", step + 1);
            assert_eq!(held, now, "step {} moved a result", step + 1);
        }
    }
    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len(), 12);
    assert!(outcomes.iter().enumerate().all(|(k, o)| o.committed == (k % 2 == 0)), "even steps commit, odd abort");
    assert!(kept > 0, "the stream's documents hold results");
}
