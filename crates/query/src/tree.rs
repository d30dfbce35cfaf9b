//! The tree navigation the evaluator needs.
//!
//! Paths, conditions and select queries evaluate against any
//! [`QueryTree`]. A plain [`Document`] navigates its arena as it is;
//! `axml-doc` navigates the same arena with `axml:sc` wrappers elided on
//! the fly. Either way the node ids are the document's own, and the
//! evaluator is generic over the tree, so each implementation gets its
//! own statically dispatched copy of it.

use axml_xml::{Climb, Document, NodeId, QName};

/// Read-only navigation over a tree of [`NodeId`]s.
///
/// Stale or foreign ids never panic: they have no name, no parent, no
/// children and no string value.
pub trait QueryTree {
    /// The root element (the only child of the virtual document node).
    fn root(&self) -> NodeId;

    /// The element name of `node`; `None` for non-element nodes.
    fn element_name(&self, node: NodeId) -> Option<&QName>;

    /// Attribute value by `prefix:local` spelling (element nodes only).
    fn attr_value(&self, node: NodeId, name: &str) -> Option<&str>;

    /// The parent of `node`; `None` for the root.
    fn parent_of(&self, node: NodeId) -> Option<NodeId>;

    /// The children of `node`, in document order.
    fn children_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// The proper descendants of `node`, in document (pre-)order.
    fn descendants_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Concatenated text of `node` and its descendants (XPath `string()`).
    fn string_value(&self, node: NodeId) -> Option<String>;

    /// Appends to `key` a sort key that orders nodes the way they stand
    /// in the document; returns false, appending nothing, for a stale id.
    /// `near` carries what one key's climb found to the next of the same
    /// sort ([`Climb`]).
    fn document_order_key_into(&self, node: NodeId, key: &mut Vec<usize>, near: &mut Climb) -> bool;

    /// The proper descendants of `node` named `name`, in document order —
    /// what filtering [`Self::descendants_of`] by name yields — when the
    /// tree can list them without visiting every descendant. `None` says
    /// walk.
    fn descendants_named(&self, _node: NodeId, _name: &QName) -> Option<Vec<NodeId>> {
        None
    }
}

impl QueryTree for Document {
    fn root(&self) -> NodeId {
        Document::root(self)
    }

    fn element_name(&self, node: NodeId) -> Option<&QName> {
        self.name(node).ok()
    }

    fn attr_value(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attr(node, name)
    }

    fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.parent(node).ok().flatten()
    }

    fn children_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node).unwrap_or_default()
    }

    fn descendants_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants_and_self(node).skip(1)
    }

    fn string_value(&self, node: NodeId) -> Option<String> {
        self.text_content(node).ok()
    }

    fn document_order_key_into(&self, node: NodeId, key: &mut Vec<usize>, near: &mut Climb) -> bool {
        Document::document_order_key_into(self, node, key, near)
    }

    fn descendants_named(&self, node: NodeId, name: &QName) -> Option<Vec<NodeId>> {
        let found = self.sparse_elements_named(name)?;
        Some(self.attached_below(node, found.iter().copied().filter(|n| *n != node)))
    }
}
