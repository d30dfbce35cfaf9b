//! The active-peer list is one shared allocation with copy-on-write
//! (DESIGN.md, "Ownership on the commit path"). The merge it replaced —
//! clone the base, graft the other list in, compare to learn whether
//! anything changed — lives on here as the oracle for the in-place
//! [`ActiveList::merge_from`], together with the old JSON shape.

use axml_core::chain::ChainNode;
use axml_core::durability::JournalEntry;
use axml_core::{ActiveList, TxnId};
use axml_p2p::PeerId;
use proptest::prelude::*;
use std::sync::Arc;

/// The merge as it was before lists were shared: a deep copy of `a` with
/// `b`'s unknown edges grafted in.
fn merge_chains_oracle(a: &ActiveList, b: &ActiveList) -> ActiveList {
    fn graft(out: &mut ActiveList, node: &ChainNode) {
        for child in &node.children {
            out.add_invocation(node.peer, child.peer, child.is_super);
            if child.is_super {
                out.mark_super(child.peer);
            }
            graft(out, child);
        }
    }
    let mut out = ActiveList::from_root((*a.root).clone());
    if !out.contains(b.root.peer) {
        return out;
    }
    graft(&mut out, &b.root);
    if b.root.is_super {
        out.mark_super(b.root.peer);
    }
    out
}

/// The JSON the derive wrote for `ActiveList` when `root` was an inline
/// `ChainNode`.
fn json_oracle(l: &ActiveList) -> String {
    fn node(n: &ChainNode, out: &mut String) {
        out.push_str(&format!("{{\"peer\":{},\"is_super\":{},\"children\":[", n.peer.0, n.is_super));
        for (i, c) in n.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node(c, out);
        }
        out.push_str("]}");
    }
    let mut out = String::from("{\"root\":");
    node(&l.root, &mut out);
    out.push('}');
    out
}

/// A tree over peers `1..=n` (n ≤ 12): peer `k`'s parent is drawn from
/// the peers before it, so every shape of that size can come up. A list
/// built from a subset of the same edges is a partial view of it, as a
/// peer's chain is of the transaction's.
fn tree_strategy() -> impl Strategy<Value = (ActiveList, ActiveList)> {
    (prop::collection::vec((any::<u32>(), any::<bool>(), any::<bool>(), any::<bool>()), 0..12), any::<bool>()).prop_map(
        |(picks, root_super)| {
            let mut full = ActiveList::new(PeerId(1), root_super);
            // The partial view may disagree about the origin's mark too.
            let mut partial = ActiveList::new(PeerId(1), false);
            for (k, (pick, is_super, keep, mark_kept)) in picks.into_iter().enumerate() {
                let child = PeerId(k as u32 + 2);
                let parent = PeerId(pick % (k as u32 + 1) + 1);
                full.add_invocation(parent, child, is_super);
                if keep {
                    partial.add_invocation(parent, child, is_super && mark_kept);
                }
            }
            (full, partial)
        },
    )
}

proptest! {
    /// Same tree, same "did we learn anything" — in both directions and
    /// against itself, which covers supersets, subsets and lists that
    /// each know edges the other does not.
    #[test]
    fn merge_from_agrees_with_the_clone_and_graft_merge(views in tree_strategy(), unrelated in tree_strategy()) {
        let ((full, partial), (other, _)) = (views, unrelated);
        for (a, b) in [(&full, &partial), (&partial, &full), (&full, &other), (&other, &partial), (&full, &full)] {
            let expected = merge_chains_oracle(a, b);
            let mut merged = a.clone();
            let learned = merged.merge_from(b);
            prop_assert_eq!(&merged, &expected, "{} + {}", a, b);
            prop_assert_eq!(learned, expected != *a, "{} + {}", a, b);
            // Nothing learned, nothing copied.
            prop_assert_eq!(Arc::ptr_eq(&merged.root, &a.root), !learned);
        }
    }

    /// Whatever is done to a clone, the list it was cloned from — and
    /// every other clone — still reads as it did.
    #[test]
    fn a_clone_mutated_after_sharing_never_changes_its_sibling(views in tree_strategy(), victim in 2u32..14) {
        let (full, partial) = views;
        let before = json_oracle(&partial);
        let sibling = partial.clone();
        let mut writer = partial.clone();
        writer.merge_from(&full);
        writer.add_invocation(PeerId(1), PeerId(99), false);
        writer.mark_super(PeerId(victim));
        writer.remove(PeerId(victim));
        prop_assert_eq!(json_oracle(&partial), before.clone());
        prop_assert_eq!(json_oracle(&sibling), before);
        // Writes that change nothing leave the allocation shared.
        let mut idle = sibling.clone();
        prop_assert!(!idle.merge_from(&partial));
        prop_assert!(!idle.add_invocation(PeerId(77), PeerId(78), false), "unknown parent");
        prop_assert!(!idle.mark_super(PeerId(78)));
        prop_assert!(!idle.remove(PeerId(78)));
        prop_assert!(!idle.remove(PeerId(1)), "the origin has no parent to leave");
        prop_assert!(Arc::ptr_eq(&idle.root, &sibling.root));
    }

    /// Sharing the root changed no byte of any encoding that embeds a
    /// list, and decoding gives the list back.
    #[test]
    fn shared_lists_encode_as_inline_trees_did(views in tree_strategy(), at in any::<u64>()) {
        let (full, _) = views;
        let json = serde_json::to_string(&full).unwrap();
        prop_assert_eq!(&json, &json_oracle(&full));
        prop_assert_eq!(&serde_json::from_str::<ActiveList>(&json).unwrap(), &full);
        let txn = TxnId::new(PeerId(1), 3);
        let begin = JournalEntry::Begin { txn, parent: None, chain: full.clone(), at };
        let expected =
            format!("{{\"Begin\":{{\"txn\":{{\"origin\":1,\"seq\":3}},\"parent\":null,\"chain\":{json},\"at\":{at}}}}}");
        prop_assert_eq!(serde_json::to_string(&begin).unwrap(), expected);
    }
}
