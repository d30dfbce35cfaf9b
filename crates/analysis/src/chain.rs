//! Active-list invariant rules (`L…`) — §3.3's chaining only pays off if
//! the list every peer carries really is the invocation tree.
//!
//! | Rule | Finding |
//! |------|---------|
//! | L001 | a peer appears more than once in the list |
//! | L002 | `parent_of`/`children_of` views are mutually inconsistent |
//! | L003 | `closest_super_ancestor` disagrees with a reference walk |
//! | L004 | the paper notation does not round-trip through `parse_notation` (live list, or a stored string via [`analyze_notation`]) |
//! | L005 | the list diverges from the scenario's planned invocation tree |

use crate::diag::Diagnostic;
use axml_core::chain::{ActiveList, ChainNode};
use axml_p2p::PeerId;
use std::collections::BTreeMap;

/// Walks the raw structure, yielding every `(parent, node)` pair —
/// independent of the list's own (first-match) navigation methods, so it
/// stays honest on corrupted lists.
fn structure(l: &ActiveList) -> Vec<(Option<PeerId>, &ChainNode)> {
    fn go<'a>(parent: Option<PeerId>, n: &'a ChainNode, out: &mut Vec<(Option<PeerId>, &'a ChainNode)>) {
        out.push((parent, n));
        for c in &n.children {
            go(Some(n.peer), c, out);
        }
    }
    let mut out = Vec::new();
    go(None, &l.root, &mut out);
    out
}

/// Runs every L-rule over an active-peer list.
pub fn analyze_chain(l: &ActiveList) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let nodes = structure(l);

    // --- L001: peer uniqueness.
    let mut counts: BTreeMap<PeerId, usize> = BTreeMap::new();
    for (_, n) in &nodes {
        *counts.entry(n.peer).or_default() += 1;
    }
    for (peer, count) in counts.iter().filter(|(_, c)| **c > 1) {
        out.push(Diagnostic::error(
            "L001",
            peer.to_string(),
            format!("appears {count} times in the list; navigation resolves only the first occurrence"),
            "record each peer once (add_invocation ignores duplicates; do not splice subtrees by hand)",
        ));
    }

    // --- L002: structural parents vs. the navigation views.
    for (parent, n) in &nodes {
        if l.parent_of(n.peer) != *parent {
            out.push(Diagnostic::error(
                "L002",
                n.peer.to_string(),
                format!("structural parent is {:?} but parent_of reports {:?}", parent, l.parent_of(n.peer)),
                "repair the tree so the navigation views agree with the structure",
            ));
        }
        let structural_children: Vec<PeerId> = n.children.iter().map(|c| c.peer).collect();
        if l.children_of(n.peer) != structural_children {
            out.push(Diagnostic::error(
                "L002",
                n.peer.to_string(),
                format!(
                    "structural children are {structural_children:?} but children_of reports {:?}",
                    l.children_of(n.peer)
                ),
                "repair the tree so the navigation views agree with the structure",
            ));
        }
    }

    // --- L003: the super-peer fallback walk (scenario (b)'s "closest
    // super peer") against a reference computed along each node's actual
    // root path — honest even when duplicates confuse first-match lookup.
    fn check_super_walk(l: &ActiveList, path: &mut Vec<(PeerId, bool)>, n: &ChainNode, out: &mut Vec<Diagnostic>) {
        let reference = path.iter().rev().find(|(_, s)| *s).map(|(p, _)| *p);
        if l.closest_super_ancestor(n.peer) != reference {
            out.push(Diagnostic::error(
                "L003",
                n.peer.to_string(),
                format!(
                    "closest_super_ancestor reports {:?}, the walk along the node's root path finds {reference:?}",
                    l.closest_super_ancestor(n.peer)
                ),
                "fix the super markers or the tree so the fallback target is well-defined",
            ));
        }
        path.push((n.peer, n.is_super));
        for c in &n.children {
            check_super_walk(l, path, c, out);
        }
        path.pop();
    }
    check_super_walk(l, &mut Vec::new(), &l.root, &mut out);

    // --- L004: notation round-trip.
    let notation = l.to_notation();
    match ActiveList::parse_notation(&notation) {
        Ok(back) if back == *l => {}
        Ok(_) => out.push(Diagnostic::error(
            "L004",
            notation.clone(),
            "notation parses back to a different list",
            "the rendered notation must uniquely determine the list",
        )),
        Err(e) => out.push(Diagnostic::error(
            "L004",
            notation.clone(),
            format!("rendered notation does not parse back: {e}"),
            "the rendered notation must be syntactically valid",
        )),
    }
    out
}

/// L004 over a *stored* notation string — a claimed rendering shipped in
/// a message or persisted in a journal, as opposed to one we just
/// produced ourselves. Sound storage means the string parses and is the
/// canonical rendering of the list it denotes; anything else cannot be
/// trusted to identify the active peers.
pub fn analyze_notation(notation: &str) -> Vec<Diagnostic> {
    match ActiveList::parse_notation(notation) {
        Ok(list) if list.to_notation() == notation => Vec::new(),
        Ok(list) => vec![Diagnostic::error(
            "L004",
            notation.to_string(),
            format!("stored notation is not canonical; it denotes the list rendered as `{}`", list.to_notation()),
            "store to_notation() output verbatim so renderings compare byte-for-byte",
        )],
        Err(e) => vec![Diagnostic::error(
            "L004",
            notation.to_string(),
            format!("stored notation does not parse: {e}"),
            "re-derive the notation from the live list; do not edit renderings by hand",
        )],
    }
}

/// Compares a concrete list against the invocation tree a scenario plans
/// to unfold (L005): peers in the list that the scenario never invokes
/// are orphaned entries; peers invoked under the wrong parent break the
/// chain's navigation promises.
pub fn analyze_chain_against(actual: &ActiveList, planned: &ActiveList) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let planned_peers = planned.all_peers();
    for (parent, n) in structure(actual) {
        if !planned_peers.contains(&n.peer) {
            out.push(Diagnostic::warning(
                "L005",
                n.peer.to_string(),
                "orphaned entry: the scenario never invokes this peer",
                "remove the entry or declare the invocation edge in the scenario",
            ));
            continue;
        }
        if n.peer != planned.root.peer && parent != planned.parent_of(n.peer) {
            out.push(Diagnostic::warning(
                "L005",
                n.peer.to_string(),
                format!(
                    "recorded under parent {parent:?} but the scenario invokes it from {:?}",
                    planned.parent_of(n.peer)
                ),
                "record invocations under the peer that actually issued them",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn well_formed_lists_are_clean() {
        assert!(analyze_chain(&fig2_list()).is_empty());
        assert!(analyze_chain(&ActiveList::new(PeerId(9), false)).is_empty());
    }

    #[test]
    fn duplicates_trip_l001_and_l002() {
        let l = ActiveList::from_root(ChainNode {
            peer: PeerId(1),
            is_super: false,
            children: vec![
                ChainNode::leaf(PeerId(2), false),
                ChainNode { peer: PeerId(2), is_super: true, children: vec![ChainNode::leaf(PeerId(9), false)] },
            ],
        });
        let diags = analyze_chain(&l);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"L001"), "{diags:?}");
        assert!(rules.contains(&"L002"), "{diags:?}");
        // AP9's real ancestor chain has a super AP2; the first-match walk
        // sees the non-super first occurrence, so L003 fires too.
        assert!(rules.contains(&"L003"), "{diags:?}");
    }

    #[test]
    fn notation_analysis() {
        // Canonical renderings are clean.
        assert!(analyze_notation(&fig2_list().to_notation()).is_empty());
        assert!(analyze_notation("[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]").is_empty());
        // Unbalanced string: parse failure.
        let diags = analyze_notation("[AP1 → [AP2] || [AP2");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L004");
        assert!(diags[0].message.contains("does not parse"), "{diags:?}");
        // Parseable but non-canonical (stray whitespace).
        let diags = analyze_notation("[AP1*  →  AP2]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L004");
        assert!(diags[0].message.contains("not canonical"), "{diags:?}");
    }

    #[test]
    fn chain_vs_planned_orphans() {
        let planned = fig2_list();
        let mut actual = fig2_list();
        actual.add_invocation(PeerId(5), PeerId(42), false);
        let diags = analyze_chain_against(&actual, &planned);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L005");
        assert!(diags[0].message.contains("orphaned"));
    }

    #[test]
    fn chain_vs_planned_wrong_parent() {
        let planned = fig2_list();
        let mut actual = ActiveList::new(PeerId(1), true);
        actual.add_invocation(PeerId(1), PeerId(2), false);
        actual.add_invocation(PeerId(1), PeerId(3), false); // planned: under 2
        let diags = analyze_chain_against(&actual, &planned);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L005");
    }
}
