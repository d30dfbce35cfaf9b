//! Regression tests for the active-list chaining invariants (§3.3): the
//! list must stay a duplicate-free tree under `add_invocation`/`remove`,
//! its navigation views must stay mutually consistent, and the paper
//! notation must round-trip through `parse_notation`.

use axml_core::ActiveList;
use axml_p2p::PeerId;

/// Asserts the active-list invariants: peer uniqueness,
/// `parent_of`/`children_of` mutual consistency, super ancestry, and
/// notation round-trip.
fn assert_tree_invariants(l: &ActiveList) {
    let peers = l.all_peers();
    let mut sorted = peers.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), peers.len(), "duplicate peer in {}", l.to_notation());
    for &p in &peers {
        for c in l.children_of(p) {
            assert_eq!(l.parent_of(c), Some(p), "child {c} of {p} disagrees about its parent");
        }
        if p != l.root.peer {
            let parent = l.parent_of(p).expect("non-root peer has a parent");
            assert!(l.children_of(parent).contains(&p), "{parent} does not list child {p}");
        }
        // Reference walk for the closest super ancestor.
        let by_walk = l.ancestors_of(p).into_iter().find(|a| is_super_in(l, *a));
        assert_eq!(l.closest_super_ancestor(p), by_walk);
    }
    let back = ActiveList::parse_notation(&l.to_notation()).expect("notation parses back");
    assert_eq!(&back, l, "round-trip through {}", l.to_notation());
}

fn is_super_in(l: &ActiveList, peer: PeerId) -> bool {
    fn go(n: &axml_core::chain::ChainNode, peer: PeerId) -> Option<bool> {
        if n.peer == peer {
            return Some(n.is_super);
        }
        n.children.iter().find_map(|c| go(c, peer))
    }
    go(&l.root, peer).unwrap_or(false)
}

fn fig2_list() -> ActiveList {
    let mut l = ActiveList::new(PeerId(1), true);
    l.add_invocation(PeerId(1), PeerId(2), false);
    l.add_invocation(PeerId(2), PeerId(3), false);
    l.add_invocation(PeerId(2), PeerId(4), false);
    l.add_invocation(PeerId(3), PeerId(6), false);
    l.add_invocation(PeerId(4), PeerId(5), false);
    l
}

#[test]
fn invariants_hold_while_growing() {
    let mut l = ActiveList::new(PeerId(1), true);
    assert_tree_invariants(&l);
    for (parent, child) in [(1u32, 2u32), (2, 3), (2, 4), (3, 6), (4, 5)] {
        l.add_invocation(PeerId(parent), PeerId(child), false);
        assert_tree_invariants(&l);
    }
    assert_eq!(l.to_notation(), "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
}

#[test]
fn duplicate_invocations_cannot_corrupt_the_tree() {
    let mut l = fig2_list();
    // A peer already in the list is never added again, even under a
    // different parent (re-invocation through another branch).
    l.add_invocation(PeerId(4), PeerId(3), false);
    l.add_invocation(PeerId(1), PeerId(5), false);
    assert_tree_invariants(&l);
    assert_eq!(l.parent_of(PeerId(3)), Some(PeerId(2)));
    assert_eq!(l.parent_of(PeerId(5)), Some(PeerId(4)));
}

#[test]
fn unknown_parent_invocations_are_ignored() {
    let mut l = fig2_list();
    l.add_invocation(PeerId(42), PeerId(7), false);
    assert!(!l.contains(PeerId(7)));
    assert_tree_invariants(&l);
}

#[test]
fn remove_keeps_invariants_and_drops_descendants() {
    let mut l = fig2_list();
    assert!(l.remove(PeerId(3)));
    assert_tree_invariants(&l);
    assert!(!l.contains(PeerId(3)));
    assert!(!l.contains(PeerId(6)), "descendants leave with the subtree");
    assert_eq!(l.to_notation(), "[AP1* → AP2 → AP4 → AP5]");
    // Removing everything below the root leaves a singleton list.
    assert!(l.remove(PeerId(2)));
    assert_tree_invariants(&l);
    assert_eq!(l.to_notation(), "[AP1*]");
    assert!(!l.remove(PeerId(2)), "already gone");
}

#[test]
fn notation_round_trips_after_mutation() {
    let mut l = fig2_list();
    l.mark_super(PeerId(4));
    l.remove(PeerId(6));
    l.add_invocation(PeerId(5), PeerId(8), true);
    let notation = l.to_notation();
    let back = ActiveList::parse_notation(&notation).unwrap();
    assert_eq!(back, l);
    assert_eq!(back.to_notation(), notation);
}
