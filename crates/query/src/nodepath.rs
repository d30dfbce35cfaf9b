//! Stable structural node addresses.
//!
//! A [`NodePath`] identifies a node by the sequence of child positions from
//! the document root. Unlike [`axml_xml::NodeId`]s — which are private to
//! one document instance — structural paths are meaningful across
//! **replicas** of a document on different peers, which is what the
//! paper's peer-independent compensation (§3.2) needs: a compensating
//! service shipped to another peer must be able to say *which* node to
//! delete or *where* to re-insert without sharing arena ids.

use crate::error::QueryError;
use axml_xml::{Document, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A root-relative structural address: child indices from the root.
///
/// The empty path addresses the root itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct NodePath(pub Vec<usize>);

impl NodePath {
    /// The path of the document root.
    pub fn root() -> NodePath {
        NodePath(Vec::new())
    }

    /// Computes the structural path of an **attached** node.
    pub fn of(doc: &Document, node: NodeId) -> Result<NodePath, QueryError> {
        let mut rev = Vec::new();
        let mut cur = node;
        loop {
            match doc.parent(cur)? {
                None => break,
                Some(parent) => {
                    rev.push(doc.position_in_parent(cur)?);
                    cur = parent;
                }
            }
        }
        if cur != doc.root() {
            // Detached subtree: has no root-relative address.
            return Err(QueryError::Tree(axml_xml::TreeError::NotAttached));
        }
        rev.reverse();
        Ok(NodePath(rev))
    }

    /// Resolves this path in (a replica of) the document.
    pub fn resolve(&self, doc: &Document) -> Result<NodeId, QueryError> {
        let mut cur = doc.root();
        for &idx in &self.0 {
            cur = doc.child_at(cur, idx)?.ok_or_else(|| QueryError::PathUnresolved(self.to_string()))?;
        }
        Ok(cur)
    }

    /// The parent path (None for the root).
    pub fn parent(&self) -> Option<NodePath> {
        if self.0.is_empty() {
            None
        } else {
            Some(NodePath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// The last child index (None for the root).
    pub fn last_index(&self) -> Option<usize> {
        self.0.last().copied()
    }

    /// Extends the path by one child index.
    pub fn child(&self, idx: usize) -> NodePath {
        // Sized for the push: a clone would be grown by it at once.
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(idx);
        NodePath(v)
    }

    /// Depth of the addressed node.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// True if `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &NodePath) -> bool {
        other.0.len() > self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "/");
        }
        for idx in &self.0 {
            write!(f, "/{idx}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse("<r><a><b/><c/></a><d>text</d></r>").unwrap()
    }

    #[test]
    fn of_and_resolve_roundtrip() {
        let d = doc();
        for node in d.all_nodes().collect::<Vec<_>>() {
            let path = NodePath::of(&d, node).unwrap();
            assert_eq!(path.resolve(&d).unwrap(), node, "{path}");
        }
    }

    #[test]
    fn root_path() {
        let d = doc();
        assert_eq!(NodePath::root().resolve(&d).unwrap(), d.root());
        assert_eq!(NodePath::of(&d, d.root()).unwrap(), NodePath::root());
        assert_eq!(NodePath::root().to_string(), "/");
    }

    #[test]
    fn resolves_across_replicas() {
        let d1 = doc();
        let d2 = doc(); // structurally identical replica, different NodeIds
        let a = d1.first_child_element(d1.root(), "a").unwrap();
        let c = d1.first_child_element(a, "c").unwrap();
        let path = NodePath::of(&d1, c).unwrap();
        let resolved = path.resolve(&d2).unwrap();
        assert_eq!(d2.name(resolved).unwrap().local, "c");
    }

    #[test]
    fn unresolvable_after_divergence() {
        let d1 = doc();
        let mut d2 = doc();
        let a2 = d2.first_child_element(d2.root(), "a").unwrap();
        d2.delete(a2).unwrap();
        let a1 = d1.first_child_element(d1.root(), "a").unwrap();
        let c1 = d1.first_child_element(a1, "c").unwrap();
        let path = NodePath::of(&d1, c1).unwrap();
        // `/0/1` now points into <d>, which has one text child only.
        assert!(matches!(path.resolve(&d2), Err(QueryError::PathUnresolved(_))));
    }

    #[test]
    fn detached_nodes_have_no_path() {
        let mut d = doc();
        let a = d.first_child_element(d.root(), "a").unwrap();
        d.detach(a).unwrap();
        assert!(NodePath::of(&d, a).is_err());
    }

    #[test]
    fn parent_child_helpers() {
        let p = NodePath(vec![0, 1]);
        assert_eq!(p.parent(), Some(NodePath(vec![0])));
        assert_eq!(p.last_index(), Some(1));
        assert_eq!(p.child(3), NodePath(vec![0, 1, 3]));
        assert_eq!(p.depth(), 2);
        assert!(NodePath(vec![0]).is_ancestor_of(&p));
        assert!(!p.is_ancestor_of(&p));
        assert!(!p.is_ancestor_of(&NodePath(vec![0])));
        assert_eq!(NodePath::root().parent(), None);
        assert_eq!(NodePath::root().last_index(), None);
    }

    #[test]
    fn display() {
        assert_eq!(NodePath(vec![0, 2, 1]).to_string(), "/0/2/1");
    }
}
