//! Heap allocations per committed Fig. 1 transaction, as a deterministic
//! test.
//!
//! The run is the benchmark's `commit-stream` workload in miniature: 300
//! sequential query-flavor Fig. 1 commits submitted every 400 ticks to
//! one long-lived simulator, exactly as `benchmark/src/stream.rs` drives
//! it. The simulator is seeded and single-threaded, so the allocation
//! count is a pure function of the code: 817 per transaction at the
//! commit before the commit path stopped copying active-peer lists,
//! service definitions and queue entries, 391 after it, 388 with results
//! and logged subtrees shared instead of copied, 335 with a service's
//! results captured into one table and an item's path derived, 283 with
//! a query's unedited results handed out again instead of copied, 268
//! once a journal entry is held once, 253 once a call that returns what
//! it holds keeps it (262 in a debug build). The budget
//! sits a little above that,
//! so a standard library that sizes a `BTreeMap` node or grows a `Vec`
//! differently does not trip it; a copy that comes back does.
//!
//! Beside it, the same count for the benchmark's `big-doc` workload —
//! 2,000-node documents, commit and abort alternating, where moving
//! subtrees as values is the cost: 6,496 allocations per transaction while
//! a `Fragment` was a tree of boxes, 3,148 as one shared table, 1,040
//! once a document stored the same records and a list of subtrees was
//! captured as one table, 908 once a subtree remembered the fragment it is
//! a copy of, 895 once a journal entry is held once, 868 once a call that
//! returns what it holds keeps it, 616 once an abort that only puts back
//! what a call holds leaves it there — and the properties of that table the count rests on: a
//! clone allocates nothing, a capture allocates the same few blocks
//! whatever the subtree's size and however many subtrees, putting a
//! subtree back into a document that has the room allocates nothing at
//! all, and an unedited subtree is handed out again as the fragment it
//! already is.
//!
//! The two per-transaction tests print their exact totals (`alloc-count
//! …`, shown with `--nocapture`).
//!
//! `common/mod.rs` holds the counting `GlobalAlloc`; it counts per thread,
//! so the tests here do not see one another.

mod common;

use axml::prelude::*;
use common::{allocations, big_doc, live_bytes};

/// Allocations per committed transaction the commit path may perform
/// (817 at the parent of the commit that introduced this test).
const PER_TXN_BUDGET: u64 = 270;
/// Allocations per `big-doc` transaction, commits and aborts averaged
/// (6,496 at the parent of the commit that made `Fragment` a flat table).
/// A debug build checks every derived path against a climbed one
/// (`apply_call_results`), which is one more allocation per applied item:
/// 742 there against 616.
const PER_BIG_DOC_TXN_BUDGET: u64 = if cfg!(debug_assertions) { 769 } else { 643 };
/// Allocations one capture of a subtree may make, whatever its size: the
/// table's three vectors and the `Arc` around them.
const PER_CAPTURE_BUDGET: u64 = 4;
/// Allocations one capture of a list of subtrees may make, whatever their
/// number: those four and the list.
const PER_LIST_CAPTURE_BUDGET: u64 = 5;
/// Ticks between submissions (`benchmark/src/inputs.rs`).
const SUBMIT_EVERY: u64 = 400;

/// Runs `work`; returns the allocations it made and what it returned.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = work();
    (allocations() - before, out)
}

/// Runs steps `steps` of the stream and returns the allocations they made.
fn allocations_over(s: &mut Scenario, steps: std::ops::Range<u64>) -> u64 {
    let run = || {
        for k in steps {
            if k > 0 {
                s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
            }
            s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
        }
    };
    counted(run).0
}

#[test]
fn a_committed_fig1_transaction_stays_within_its_allocation_budget() {
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    allocations_over(&mut s, 0..100); // warm-up: intern table, queue and map capacity
    let second = allocations_over(&mut s, 100..200);
    let third = allocations_over(&mut s, 200..300);

    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len(), 300);
    assert!(outcomes.iter().all(|o| o.committed), "every step commits");

    println!("alloc-count fig1 {}", second + third);
    let per_txn = (second + third) / 200;
    assert!(per_txn <= PER_TXN_BUDGET, "{per_txn} allocations per transaction, budget {PER_TXN_BUDGET}");
    let drift = second.abs_diff(third);
    assert!(
        drift * 100 <= second,
        "allocations grow with the transactions already run: {second} for steps 100..200, {third} for 200..300"
    );
}

#[test]
fn a_big_doc_transaction_stays_within_its_allocation_budget() {
    let mut s = big_doc::scenario(0);
    let over = |s: &mut Scenario, steps| counted(|| big_doc::run(s, steps)).0;
    over(&mut s, 0..20); // warm-up: intern table, name indexes, queue and map capacity
    let second = over(&mut s, 20..40);
    let third = over(&mut s, 40..60);

    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len(), 60);
    assert!(outcomes.iter().enumerate().all(|(k, o)| o.committed == (k % 2 == 0)), "even steps commit, odd abort");

    println!("alloc-count big-doc {}", second + third);
    let per_txn = (second + third) / 40;
    assert!(
        per_txn <= PER_BIG_DOC_TXN_BUDGET,
        "{per_txn} allocations per transaction, budget {PER_BIG_DOC_TXN_BUDGET}"
    );
    let drift = second.abs_diff(third);
    assert!(
        drift * 100 <= second,
        "allocations grow with the transactions already run: {second} for steps 20..40, {third} for 40..60"
    );
}

#[test]
fn a_fragment_is_cloned_for_free_and_captured_in_a_fixed_number_of_allocations() {
    for nodes in [10, 2_000] {
        let mut doc = axml::workload::random_plain_doc(7, &axml::workload::DocParams { nodes, ..Default::default() });
        let root = doc.root();
        assert!(doc.node_count() >= nodes);
        let (capture, fragment) = counted(|| Fragment::from_node(&doc, root).unwrap());
        assert_eq!(fragment.node_count(), doc.node_count());
        assert!(capture <= PER_CAPTURE_BUDGET, "{capture} allocations to capture {nodes} nodes");

        let mut copies = Vec::with_capacity(8);
        let (clones, ()) = counted(|| copies.extend((0..8).map(|_| fragment.clone())));
        assert_eq!(clones, 0, "cloning a {nodes}-node fragment allocated");
        let (drops, ()) = counted(|| copies.clear());
        assert_eq!(drops, 0, "dropping a shared fragment allocated");

        // Capture-and-remove: the same blocks, nothing for the walk, and at
        // most one growth of the document's free list.
        let child = doc.child_at(root, 0).unwrap().unwrap();
        let size = doc.subtree_size(child);
        let (remove, (removed, _, _)) = counted(|| doc.remove_to_fragment(child).unwrap());
        assert_eq!(removed.node_count(), size);
        assert!(remove <= PER_CAPTURE_BUDGET + 1, "{remove} allocations to remove {size} nodes");
    }

    // The smallest result a service returns: built in three blocks where
    // the tree of boxes took two, and then shared where that was copied —
    // two more per holder.
    drop(Fragment::elem_text("done", "warm-up: interns the name"));
    let (built, done) = counted(|| Fragment::elem_text("done", "x"));
    assert!(built <= 3, "{built} allocations for <done>x</done>");
    assert_eq!(done.to_xml(), "<done>x</done>");
}

#[test]
fn a_list_of_subtrees_is_captured_as_one_table_and_put_back_without_allocating() {
    // A call's 21 results. Their text outweighs the rest of the document,
    // so removing them compacts its buffers — into blocks as large as
    // before, which is the room putting them back needs.
    let text = "a result's worth of text, long enough that twenty-one of them are most of this document";
    let items: String = (0..21).map(|k| format!(r#"<out n="{k}"><v>{k}</v><w>{text} {k}</w></out>"#)).collect();
    let mut doc = Document::parse(&format!("<d><sc>{items}</sc><keep/></d>")).unwrap();
    let xml = doc.to_xml();
    let sc = doc.child_at(doc.root(), 0).unwrap().unwrap();
    let outs: Vec<NodeId> = doc.children(sc).unwrap().collect();

    let (capture, copies) = counted(|| doc.extract_fragments(&outs));
    assert_eq!(copies.len(), 21);
    assert!(capture <= PER_LIST_CAPTURE_BUDGET, "{capture} allocations to capture 21 subtrees");
    drop(copies);

    // Removed together: the table, the list, and what checking the batch,
    // growing the free list and compacting take.
    let last_first: Vec<NodeId> = outs.iter().rev().copied().collect();
    let (remove, removed) = counted(|| doc.remove_to_fragments(&last_first).unwrap());
    assert!(remove <= PER_LIST_CAPTURE_BUDGET + 5, "{remove} allocations to remove 21 subtrees");

    let (restore, ()) = counted(|| {
        for (fragment, parent, pos) in removed.iter().rev() {
            doc.insert_fragment(*parent, *pos, fragment).unwrap();
        }
    });
    assert_eq!(restore, 0, "instantiating 21 subtrees into free slots allocated");
    assert_eq!(doc.to_xml(), xml);
    doc.check_consistency().unwrap();

    // The same for one large subtree: 2,000 nodes out, 2,000 nodes in.
    let payload =
        axml::workload::random_plain_doc(7, &axml::workload::DocParams { nodes: 2_000, ..Default::default() });
    let mut doc = Document::parse(&format!("<d>{}</d>", payload.to_xml())).unwrap();
    let xml = doc.to_xml();
    let big = doc.child_at(doc.root(), 0).unwrap().unwrap();
    let (fragment, parent, pos) = doc.remove_to_fragment(big).unwrap();
    assert!(fragment.node_count() >= 2_000);
    let (restore, _) = counted(|| doc.insert_fragment(parent, pos, &fragment).unwrap());
    assert_eq!(restore, 0, "instantiating {} nodes into free slots allocated", fragment.node_count());
    assert_eq!(doc.to_xml(), xml);
    doc.check_consistency().unwrap();
}

#[test]
fn an_unedited_subtree_is_handed_out_again_and_an_edited_one_is_copied() {
    let items: String = (0..21).map(|k| format!(r#"<out n="{k}"><v>{k}</v><w>text {k}</w></out>"#)).collect();
    let mut doc = Document::parse(&format!("<d><sc>{items}</sc></d>")).unwrap();
    let sc = doc.child_at(doc.root(), 0).unwrap().unwrap();
    let outs: Vec<NodeId> = doc.children(sc).unwrap().collect();

    // Extracted twice: the second time, the same fragments and no table.
    let (capture, first) = counted(|| doc.extract_fragments(&outs));
    assert!(capture <= PER_LIST_CAPTURE_BUDGET, "{capture} allocations to capture 21 subtrees");
    let (again, second) = counted(|| doc.extract_fragments(&outs));
    assert!(first.iter().zip(&second).all(|(a, b)| Fragment::ptr_eq(a, b)), "a second extraction copied");
    assert_eq!(again, 1, "a second extraction allocated more than its list");

    // An edit below a subtree makes it a copy of nothing: captured afresh.
    let v = doc.child_at(outs[4], 0).unwrap().unwrap();
    doc.set_attr(v, "edited", "yes").unwrap();
    let third = doc.extract_fragments(&outs);
    assert!(!Fragment::ptr_eq(&third[4], &first[4]));
    assert_eq!(third[4].to_xml(), doc.subtree_to_xml(outs[4]));
    assert!((0..21).filter(|k| *k != 4).all(|k| Fragment::ptr_eq(&third[k], &first[k])));

    // Inserted and left alone, then removed — one, or all: what goes into
    // the log is what was inserted, and no table is built.
    let results = Fragment::parse_all("<out>x</out><out>y</out><out>z</out>").unwrap();
    let ids: Vec<NodeId> = results.iter().map(|f| doc.append_fragment(sc, f).unwrap()).collect();
    let (remove, (removed, _, _)) = counted(|| doc.remove_to_fragment(ids[0]).unwrap());
    assert!(Fragment::ptr_eq(&removed, &results[0]), "removing an unedited insert copied it");
    assert!(remove <= 1, "{remove} allocations to remove an unedited insert: at most the free list grows");
    let (remove, removed) = counted(|| doc.remove_to_fragments(&[ids[2], ids[1]]).unwrap());
    assert!(Fragment::ptr_eq(&removed[0].0, &results[2]) && Fragment::ptr_eq(&removed[1].0, &results[1]));
    assert!(remove <= 3, "{remove} allocations to remove two unedited inserts: the check's copy, the places, the list");
    doc.check_consistency().unwrap();
}

/// What one remembered view keeps alive (DESIGN.md §18, "What it keeps
/// alive"; an open debt in ROADMAP.md): a subtree left unedited out of a
/// batch of 21 holds the whole batch table, 16 times what a copy of it
/// alone takes (6,169 bytes against 376), until it is edited or removed.
/// Prints the two sizes as `retention …`.
#[test]
fn a_remembered_view_keeps_its_whole_batch_table_alive() {
    let items: String = (0..21).map(|k| format!(r#"<out n="{k}"><v>{k}</v><w>text {k}</w></out>"#)).collect();
    let mut doc = Document::parse(&format!("<d><sc>{items}</sc></d>")).unwrap();
    let sc = doc.child_at(doc.root(), 0).unwrap().unwrap();
    let outs: Vec<NodeId> = doc.children(sc).unwrap().collect();
    let bytes_freed = |fragment: Fragment| {
        let before = live_bytes();
        drop(fragment);
        before - live_bytes()
    };
    let alone = bytes_freed(Fragment::from_node(&doc, outs[0]).unwrap());

    drop(doc.extract_fragments(&outs));
    for out in &outs[1..] {
        doc.set_attr(*out, "edited", "yes").unwrap();
    }
    let (view, _, _) = doc.remove_to_fragment(outs[0]).unwrap();
    let pinned = bytes_freed(view);
    println!("retention {pinned} bytes held by one remembered view of 21, {alone} by a copy of it alone");
    assert!(pinned >= 10 * alone, "one view of 21 pinned {pinned} bytes, its own copy takes {alone}");
    doc.check_consistency().unwrap();
}
