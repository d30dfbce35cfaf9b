//! Active-peer lists — the "chaining" of §3.3.
//!
//! "The list of active peers is denoted as follows: `[APX → APY]` implies
//! an invocation of APY's service by APX. Parallel invocation of APY and
//! APZ s' services by APX is denoted as `[APX → [APY] || [APZ]]`. Finally,
//! super peers (trusted peers which do not disconnect) are highlighted by
//! an `*` following their identifiers."
//!
//! The list is the invocation tree of the transaction so far. Passing it
//! along with every invocation is what lets a peer that detects a
//! disconnection find the disconnected peer's parent, children, siblings,
//! the "next closest peer", and the "closest super peer" — without asking
//! anyone.

use axml_p2p::PeerId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One node of the active-peer list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainNode {
    /// The peer.
    pub peer: PeerId,
    /// `*` marker: a super peer.
    pub is_super: bool,
    /// Peers whose services this peer invoked.
    pub children: Vec<ChainNode>,
}

impl ChainNode {
    /// A leaf node.
    pub fn leaf(peer: PeerId, is_super: bool) -> ChainNode {
        ChainNode { peer, is_super, children: Vec::new() }
    }
}

/// The active-peer list of a transaction.
///
/// The whole tree is one shared allocation: a clone — one per `Invoke`,
/// `Result`, `ChainUpdate` and journalled `Begin` — bumps a reference
/// count, and a write copies the tree first only if someone else still
/// holds it *and* the write changes something. The list only grows by
/// monotone merges, so a holder of the old allocation sees a valid,
/// merely older, view; nobody observes a write they did not make.
///
/// ```
/// use axml_core::ActiveList;
/// use axml_p2p::PeerId;
///
/// let mut list = ActiveList::new(PeerId(1), true);
/// list.add_invocation(PeerId(1), PeerId(2), false);
/// list.add_invocation(PeerId(2), PeerId(3), false);
/// assert_eq!(list.to_notation(), "[AP1* → AP2 → AP3]");
/// assert_eq!(list.parent_of(PeerId(3)), Some(PeerId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveList {
    /// The invocation-tree root (the origin peer).
    pub root: Arc<ChainNode>,
}

impl ActiveList {
    /// A list containing only the origin.
    pub fn new(origin: PeerId, is_super: bool) -> ActiveList {
        ActiveList::from_root(ChainNode::leaf(origin, is_super))
    }

    /// A list with the given invocation tree.
    pub fn from_root(root: ChainNode) -> ActiveList {
        ActiveList { root: Arc::new(root) }
    }

    fn find(&self, peer: PeerId) -> Option<&ChainNode> {
        fn go(node: &ChainNode, peer: PeerId) -> Option<&ChainNode> {
            if node.peer == peer {
                return Some(node);
            }
            node.children.iter().find_map(|c| go(c, peer))
        }
        go(&self.root, peer)
    }

    /// Copy-on-write access: un-shares the tree. Callers establish first
    /// that the write changes something.
    fn find_mut(&mut self, peer: PeerId) -> Option<&mut ChainNode> {
        fn go(node: &mut ChainNode, peer: PeerId) -> Option<&mut ChainNode> {
            if node.peer == peer {
                return Some(node);
            }
            node.children.iter_mut().find_map(|c| go(c, peer))
        }
        go(Arc::make_mut(&mut self.root), peer)
    }

    /// True if `peer` appears in the list.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.find(peer).is_some()
    }

    /// Records that `parent` invoked `child`'s service. No-op if the
    /// parent is unknown; duplicate children are ignored. Returns true if
    /// the edge was added.
    pub fn add_invocation(&mut self, parent: PeerId, child: PeerId, child_is_super: bool) -> bool {
        if self.contains(child) || !self.contains(parent) {
            return false;
        }
        let p = self.find_mut(parent).expect("parent is in the list");
        p.children.push(ChainNode::leaf(child, child_is_super));
        true
    }

    /// Merges `other` into this list: every edge and super-peer mark known
    /// to either ends up here (ours are the base; `other`'s unknown edges
    /// are grafted in, in its pre-order). A list rooted at a peer we do
    /// not know is ignored. Returns true if anything was learned — only
    /// then is memory allocated.
    pub fn merge_from(&mut self, other: &ActiveList) -> bool {
        fn graft(into: &mut ActiveList, node: &ChainNode) -> bool {
            let mut learned = false;
            for child in &node.children {
                learned |= into.add_invocation(node.peer, child.peer, child.is_super);
                learned |= child.is_super && into.mark_super(child.peer);
                learned |= graft(into, child);
            }
            learned
        }
        if Arc::ptr_eq(&self.root, &other.root) || !self.contains(other.root.peer) {
            return false;
        }
        let learned = graft(self, &other.root);
        (other.root.is_super && self.mark_super(other.root.peer)) || learned
    }

    /// The parent of `peer` in the invocation tree.
    pub fn parent_of(&self, peer: PeerId) -> Option<PeerId> {
        fn go(node: &ChainNode, peer: PeerId) -> Option<PeerId> {
            for c in &node.children {
                if c.peer == peer {
                    return Some(node.peer);
                }
                if let Some(p) = go(c, peer) {
                    return Some(p);
                }
            }
            None
        }
        go(&self.root, peer)
    }

    /// The children of `peer`, in invocation order.
    pub fn children(&self, peer: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.find(peer).into_iter().flat_map(|n| n.children.iter().map(|c| c.peer))
    }

    /// The children of `peer`.
    pub fn children_of(&self, peer: PeerId) -> Vec<PeerId> {
        self.children(peer).collect()
    }

    /// The siblings of `peer` (same parent, excluding itself), in
    /// invocation order.
    pub fn siblings(&self, peer: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.parent_of(peer).into_iter().flat_map(move |parent| self.children(parent)).filter(move |p| *p != peer)
    }

    /// The siblings of `peer` (same parent, excluding itself).
    pub fn siblings_of(&self, peer: PeerId) -> Vec<PeerId> {
        self.siblings(peer).collect()
    }

    /// Ancestors of `peer`, nearest first ("the next closest peer" order
    /// of scenario (b)).
    pub fn ancestors_of(&self, peer: PeerId) -> Vec<PeerId> {
        let mut out = Vec::new();
        let mut cur = peer;
        while let Some(p) = self.parent_of(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// All descendants of `peer` (pre-order).
    pub fn descendants_of(&self, peer: PeerId) -> Vec<PeerId> {
        fn collect(node: &ChainNode, out: &mut Vec<PeerId>) {
            for c in &node.children {
                out.push(c.peer);
                collect(c, out);
            }
        }
        let mut out = Vec::new();
        if let Some(n) = self.find(peer) {
            collect(n, &mut out);
        }
        out
    }

    /// The closest super-peer ancestor of `peer` (scenario (b): "AP6 can
    /// try the next closest peer (AP1) or the closest super peer").
    pub fn closest_super_ancestor(&self, peer: PeerId) -> Option<PeerId> {
        self.ancestors_of(peer).into_iter().find(|p| self.find(*p).map(|n| n.is_super).unwrap_or(false))
    }

    /// All peers in the list (pre-order, origin first).
    pub fn all_peers(&self) -> Vec<PeerId> {
        let mut out = vec![self.root.peer];
        out.extend(self.descendants_of(self.root.peer));
        out
    }

    /// True if every peer in the list is a super peer — the
    /// Spheres-of-Atomicity condition of §3.3.
    pub fn all_super(&self) -> bool {
        fn go(node: &ChainNode) -> bool {
            node.is_super && node.children.iter().all(go)
        }
        go(&self.root)
    }

    /// Marks a peer as super. Returns true if the mark is new.
    pub fn mark_super(&mut self, peer: PeerId) -> bool {
        if self.find(peer).is_none_or(|n| n.is_super) {
            return false;
        }
        self.find_mut(peer).expect("peer is in the list").is_super = true;
        true
    }

    /// Removes `peer`'s subtree from the list (after a confirmed
    /// disconnection). Returns true if something was removed.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        fn go(node: &mut ChainNode, peer: PeerId) -> bool {
            if let Some(pos) = node.children.iter().position(|c| c.peer == peer) {
                node.children.remove(pos);
                return true;
            }
            node.children.iter_mut().any(|c| go(c, peer))
        }
        // The root has no parent to be removed from.
        self.parent_of(peer).is_some() && go(Arc::make_mut(&mut self.root), peer)
    }

    /// Parses the paper's notation back into a list — the inverse of
    /// [`ActiveList::to_notation`].
    ///
    /// ```
    /// use axml_core::ActiveList;
    ///
    /// let s = "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]";
    /// let list = ActiveList::parse_notation(s).unwrap();
    /// assert_eq!(list.to_notation(), s);
    /// ```
    pub fn parse_notation(s: &str) -> Result<ActiveList, String> {
        struct Parser<'a> {
            rest: &'a str,
        }
        impl Parser<'_> {
            fn ws(&mut self) {
                self.rest = self.rest.trim_start();
            }
            fn eat(&mut self, tok: &str) -> Result<(), String> {
                self.ws();
                match self.rest.strip_prefix(tok) {
                    Some(r) => {
                        self.rest = r;
                        Ok(())
                    }
                    None => Err(format!("expected `{tok}` at `{}`", self.rest)),
                }
            }
            fn peek(&mut self, tok: &str) -> bool {
                self.ws();
                self.rest.starts_with(tok)
            }
            fn node(&mut self) -> Result<ChainNode, String> {
                self.eat("AP")?;
                let digits: &str =
                    &self.rest[..self.rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(self.rest.len())];
                if digits.is_empty() {
                    return Err(format!("expected peer number at `{}`", self.rest));
                }
                let peer = PeerId(digits.parse().map_err(|_| format!("peer number `{digits}` out of range"))?);
                self.rest = &self.rest[digits.len()..];
                let is_super = if let Some(r) = self.rest.strip_prefix('*') {
                    self.rest = r;
                    true
                } else {
                    false
                };
                let mut node = ChainNode::leaf(peer, is_super);
                if self.peek("→") {
                    self.eat("→")?;
                    if self.peek("[") {
                        loop {
                            self.eat("[")?;
                            node.children.push(self.node()?);
                            self.eat("]")?;
                            if self.peek("||") {
                                self.eat("||")?;
                            } else {
                                break;
                            }
                        }
                    } else {
                        node.children.push(self.node()?);
                    }
                }
                Ok(node)
            }
        }
        let mut p = Parser { rest: s };
        p.eat("[")?;
        let root = p.node()?;
        p.eat("]")?;
        p.ws();
        if !p.rest.is_empty() {
            return Err(format!("trailing input `{}`", p.rest));
        }
        Ok(ActiveList::from_root(root))
    }

    /// Renders the paper's notation, e.g.
    /// `[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]`.
    pub fn to_notation(&self) -> String {
        fn node_str(n: &ChainNode) -> String {
            let me = format!("{}{}", n.peer, if n.is_super { "*" } else { "" });
            match n.children.len() {
                0 => me,
                1 => format!("{me} → {}", node_str(&n.children[0])),
                _ => {
                    let parts: Vec<String> = n.children.iter().map(|c| format!("[{}]", node_str(c))).collect();
                    format!("{me} → {}", parts.join(" || "))
                }
            }
        }
        format!("[{}]", node_str(&self.root))
    }
}

impl fmt::Display for ActiveList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact list from §3.3:
    /// `[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]`.
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
    fn paper_notation_matches() {
        assert_eq!(fig2_list().to_notation(), "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
    }

    #[test]
    fn single_chain_notation() {
        let mut l = ActiveList::new(PeerId(1), false);
        l.add_invocation(PeerId(1), PeerId(2), false);
        l.add_invocation(PeerId(2), PeerId(3), true);
        assert_eq!(l.to_notation(), "[AP1 → AP2 → AP3*]");
    }

    #[test]
    fn navigation() {
        let l = fig2_list();
        assert_eq!(l.parent_of(PeerId(6)), Some(PeerId(3)));
        assert_eq!(l.parent_of(PeerId(3)), Some(PeerId(2)));
        assert_eq!(l.parent_of(PeerId(1)), None);
        assert_eq!(l.children_of(PeerId(2)), vec![PeerId(3), PeerId(4)]);
        assert_eq!(l.siblings_of(PeerId(3)), vec![PeerId(4)]);
        assert_eq!(l.siblings_of(PeerId(1)), Vec::<PeerId>::new());
        assert_eq!(l.ancestors_of(PeerId(6)), vec![PeerId(3), PeerId(2), PeerId(1)]);
        assert_eq!(l.descendants_of(PeerId(2)), vec![PeerId(3), PeerId(6), PeerId(4), PeerId(5)]);
        assert_eq!(l.all_peers().len(), 6);
    }

    #[test]
    fn scenario_b_fallback_targets() {
        // AP6 detects AP3's disconnection: next closest = AP2, then AP1;
        // closest super peer = AP1.
        let l = fig2_list();
        let ancestors = l.ancestors_of(PeerId(6));
        assert_eq!(ancestors[0], PeerId(3), "disconnected parent itself");
        assert_eq!(ancestors[1], PeerId(2), "redirect target");
        assert_eq!(l.closest_super_ancestor(PeerId(6)), Some(PeerId(1)));
    }

    #[test]
    fn duplicate_and_unknown_invocations_ignored() {
        let mut l = fig2_list();
        l.add_invocation(PeerId(2), PeerId(3), false); // duplicate child
        assert_eq!(l.children_of(PeerId(2)).len(), 2);
        l.add_invocation(PeerId(99), PeerId(7), false); // unknown parent
        assert!(!l.contains(PeerId(7)));
    }

    #[test]
    fn all_super_condition() {
        let mut l = fig2_list();
        assert!(!l.all_super());
        for p in [2, 3, 4, 5, 6] {
            l.mark_super(PeerId(p));
        }
        assert!(l.all_super());
    }

    #[test]
    fn remove_subtree() {
        let mut l = fig2_list();
        assert!(l.remove(PeerId(3)));
        assert!(!l.contains(PeerId(3)));
        assert!(!l.contains(PeerId(6)), "descendants go with the subtree");
        assert!(l.contains(PeerId(4)));
        assert!(!l.remove(PeerId(3)), "already gone");
    }

    #[test]
    fn parse_notation_round_trips() {
        let mut deep = ActiveList::new(PeerId(1), false);
        deep.add_invocation(PeerId(1), PeerId(2), true);
        deep.add_invocation(PeerId(2), PeerId(3), false);
        deep.add_invocation(PeerId(2), PeerId(4), false);
        deep.add_invocation(PeerId(4), PeerId(5), true);
        deep.add_invocation(PeerId(4), PeerId(6), false);
        for list in [fig2_list(), ActiveList::new(PeerId(7), true), deep] {
            let notation = list.to_notation();
            let back = ActiveList::parse_notation(&notation).expect("parses");
            assert_eq!(back, list, "{notation}");
        }
    }

    #[test]
    fn parse_notation_rejects_malformed_input() {
        for bad in ["", "AP1", "[AP1", "[AP1 →]", "[XP1]", "[AP1] tail", "[AP1 → [AP2] ||]"] {
            assert!(ActiveList::parse_notation(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn serde_json_roundtrip() {
        let l = fig2_list();
        let json = serde_json::to_string(&l).unwrap();
        let back: ActiveList = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
