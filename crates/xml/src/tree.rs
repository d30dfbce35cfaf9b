//! Arena-based mutable XML tree with stable, unique node identifiers.
//!
//! The paper's dynamic-compensation scheme (§3.1) hinges on two properties
//! of the underlying store:
//!
//! 1. **Insert returns a unique ID** — "we assume that the operation returns
//!    the (unique) ID of the inserted node. As such, the compensating
//!    operation is a delete operation to delete the node having the
//!    corresponding ID." [`NodeId`]s are generational: once a node is
//!    deleted its id can never be resurrected, so a stale compensation can
//!    be detected rather than silently deleting an unrelated node.
//! 2. **Deletes can be logged with enough context to re-insert** — the
//!    editing API reports parent and sibling position for every detach, and
//!    [`crate::Fragment`] captures the removed subtree.

use crate::error::TreeError;
use crate::name::QName;
use crate::serialize::{self, SerializeOptions};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A stable, unique identifier for a node within one [`Document`].
///
/// Ids are generational (`index` + `generation`): deleting a node bumps the
/// slot's generation, so ids referring to deleted nodes become *stale* and
/// every API taking a [`NodeId`] rejects them with [`TreeError::StaleNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId {
    index: u32,
    generation: u32,
}

impl NodeId {
    /// A compact display form, e.g. `n17.2`, used in logs and traces.
    pub fn display(&self) -> String {
        format!("n{}.{}", self.index, self.generation)
    }

    /// Raw (index, generation) pair; mainly for diagnostics and tests.
    pub fn raw(&self) -> (u32, u32) {
        (self.index, self.generation)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}.{}", self.index, self.generation)
    }
}

/// The payload of a tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a qualified name and ordered attributes.
    Element {
        /// Element name.
        name: QName,
        /// Attributes, in document order.
        attrs: Vec<(QName, String)>,
    },
    /// A text node.
    Text(String),
    /// A CDATA section (serialized as `<![CDATA[..]]>`, compared as text).
    Cdata(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

impl NodeKind {
    /// Short kind label for error messages.
    pub fn label(&self) -> &'static str {
        match self {
            NodeKind::Element { .. } => "element",
            NodeKind::Text(_) => "text",
            NodeKind::Cdata(_) => "cdata",
            NodeKind::Comment(_) => "comment",
            NodeKind::Pi { .. } => "pi",
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    node: Option<Node>,
}

/// Every live element of a document by name, attached or not (DESIGN.md
/// §18). An element's name comes and goes in three places — `alloc`,
/// `vacate` and `set_name` — and each keeps a built index current.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    /// Reached by key only — nothing iterates it into output — so its
    /// hasher is free to be fast.
    by_name: HashMap<QName, Vec<NodeId>, BuildHasherDefault<Fnv1a>>,
    /// Slot index → where that slot's element sits in its name's list, so
    /// an entry is removed by `swap_remove` without searching for it.
    pos: Vec<u32>,
}

/// FNV-1a over a name's bytes. Every element allocated or freed under a
/// built index hashes its name; SipHash made that a tenth of a large
/// document's transaction. A document whose names are chosen to collide
/// gets lookups as slow as the walk a document without an index does.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl NameIndex {
    fn named(&self, name: &QName) -> &[NodeId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    fn insert(&mut self, id: NodeId, name: &QName) {
        let slot = id.index as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        // Nearly every name is listed already: look before cloning one.
        match self.by_name.get_mut(name) {
            Some(list) => {
                self.pos[slot] = u32::try_from(list.len()).expect("more than u32::MAX nodes");
                list.push(id);
            }
            None => {
                self.pos[slot] = 0;
                self.by_name.insert(name.clone(), vec![id]);
            }
        }
    }

    fn remove(&mut self, id: NodeId, name: &QName) {
        let list = self.by_name.get_mut(name).expect("indexed elements are listed under their name");
        let at = self.pos[id.index as usize] as usize;
        debug_assert_eq!(list[at], id);
        list.swap_remove(at);
        if let Some(moved) = list.get(at) {
            self.pos[moved.index as usize] = at as u32;
        }
    }
}

/// A mutable XML document: one arena of nodes plus a distinguished root
/// element.
///
/// All structural edits go through methods that validate ids, preserve
/// well-formedness (no cycles, parent/child links consistent) and surface
/// enough information (positions, detached subtrees) for a transaction log
/// to construct compensating operations later.
#[derive(Debug, Clone)]
pub struct Document {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: NodeId,
    live: usize,
    /// Unset until a by-name lookup wants it (see [`Self::elements_named`]),
    /// so a document nobody looks into by name never pays for one.
    names: OnceLock<NameIndex>,
}

impl Document {
    /// Documents with fewer live nodes answer by-name lookups without an
    /// index. Building one costs about four walks of the document and
    /// saves most of a walk per lookup from then on; at this size a walk
    /// is some 2 µs, so a document that is looked into only a handful of
    /// times — every document of a short-lived peer — never gets the
    /// build back (DESIGN.md §18 has the measurements).
    pub const NAME_INDEX_MIN_NODES: usize = 256;

    /// A name is *sparse* when at most one live node in this many carries
    /// it. Placing the elements of a name in document order costs a path
    /// each — a sibling scan per level — and a sort; at this density that
    /// equals one walk of the whole document, and for a denser name the
    /// walk is the cheaper way to list them.
    pub const NAME_INDEX_SPARSE_RATIO: usize = 16;

    /// Creates a document whose root is an empty element named `root_name`.
    pub fn new(root_name: impl Into<QName>) -> Self {
        let mut doc = Document {
            slots: Vec::new(),
            free: Vec::new(),
            root: NodeId { index: 0, generation: 0 },
            live: 0,
            names: OnceLock::new(),
        };
        let root = doc.alloc(NodeKind::Element { name: root_name.into(), attrs: Vec::new() });
        doc.root = root;
        doc
    }

    /// Parses `input` into a new document (convenience for [`crate::parse`]).
    pub fn parse(input: &str) -> Result<Self, crate::ParseError> {
        crate::parser::parse(input)
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// True if `id` refers to a live node of this document.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    fn get(&self, id: NodeId) -> Option<&Node> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.node.as_ref()
    }

    fn get_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.node.as_mut()
    }

    fn expect(&self, id: NodeId) -> Result<&Node, TreeError> {
        self.get(id).ok_or(TreeError::StaleNode)
    }

    fn expect_mut(&mut self, id: NodeId) -> Result<&mut Node, TreeError> {
        self.get_mut(id).ok_or(TreeError::StaleNode)
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        self.live += 1;
        let node = Node { parent: None, children: Vec::new(), kind };
        let id = if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.node.is_none());
            slot.node = Some(node);
            NodeId { index, generation: slot.generation }
        } else {
            let index = u32::try_from(self.slots.len()).expect("more than u32::MAX nodes");
            self.slots.push(Slot { generation: 0, node: Some(node) });
            NodeId { index, generation: 0 }
        };
        if let Some(names) = self.names.get_mut() {
            if let Some(Node { kind: NodeKind::Element { name, .. }, .. }) = &self.slots[id.index as usize].node {
                names.insert(id, name);
            }
        }
        id
    }

    /// Empties `id`'s slot and hands back what it held. The slot is not
    /// reusable until its index is put on the free list.
    fn vacate(&mut self, id: NodeId) -> Node {
        let slot = &mut self.slots[id.index as usize];
        debug_assert_eq!(slot.generation, id.generation);
        let node = slot.node.take().expect("only live nodes are freed");
        slot.generation = slot.generation.wrapping_add(1);
        self.live -= 1;
        if let (Some(names), NodeKind::Element { name, .. }) = (self.names.get_mut(), &node.kind) {
            names.remove(id, name);
        }
        node
    }

    /// A live node's payload and children, in one lookup.
    pub(crate) fn parts(&self, id: NodeId) -> Result<(&NodeKind, &[NodeId]), TreeError> {
        let node = self.expect(id)?;
        Ok((&node.kind, &node.children))
    }

    /// Starts taking apart a detached subtree of `nodes` nodes.
    pub(crate) fn release(&mut self, nodes: usize) -> Release<'_> {
        let next = self.free.len() + nodes;
        self.free.resize(next, 0);
        Release { doc: self, next }
    }

    /// Makes the fresh, detached nodes `children` the children of the
    /// fresh, childless element `parent`: what [`Self::append_child`] does
    /// one by one, for nodes that need none of its checks.
    pub(crate) fn adopt(&mut self, parent: NodeId, children: Vec<NodeId>) {
        for &child in &children {
            let node = self.get_mut(child).expect("a fresh child is live");
            debug_assert!(node.parent.is_none());
            node.parent = Some(parent);
        }
        let node = self.get_mut(parent).expect("a fresh parent is live");
        debug_assert!(node.children.is_empty() && matches!(node.kind, NodeKind::Element { .. }));
        node.children = children;
    }

    // ------------------------------------------------------------------
    // Node creation (detached).
    // ------------------------------------------------------------------

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: impl Into<QName>) -> NodeId {
        self.alloc(NodeKind::Element { name: name.into(), attrs: Vec::new() })
    }

    /// Creates a detached element node with attributes.
    pub fn create_element_with_attrs<N, A>(&mut self, name: N, attrs: A) -> NodeId
    where
        N: Into<QName>,
        A: IntoIterator<Item = (QName, String)>,
    {
        self.alloc(NodeKind::Element { name: name.into(), attrs: attrs.into_iter().collect() })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text(text.into()))
    }

    /// Creates a detached CDATA node.
    pub fn create_cdata(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Cdata(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(&mut self, target: impl Into<String>, data: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Pi { target: target.into(), data: data.into() })
    }

    // ------------------------------------------------------------------
    // Structural edits.
    // ------------------------------------------------------------------

    /// Appends detached node `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), TreeError> {
        let len = self.expect(parent)?.children.len();
        self.insert_child(parent, len, child)
    }

    /// Inserts detached node `child` under `parent` at child position `index`.
    ///
    /// Positional insertion is what makes **order-preserving compensation**
    /// possible: the log records the position a node was deleted from, and
    /// the compensating insert restores it "before/after a specific node"
    /// as the paper notes XQuery! allows.
    pub fn insert_child(&mut self, parent: NodeId, index: usize, child: NodeId) -> Result<(), TreeError> {
        if !matches!(self.expect(parent)?.kind, NodeKind::Element { .. }) {
            return Err(TreeError::WrongKind { expected: "element" });
        }
        let child_node = self.expect(child)?;
        if child_node.parent.is_some() {
            return Err(TreeError::NotAttached);
        }
        if child == self.root {
            return Err(TreeError::RootImmutable);
        }
        // A detached child can still have descendants; make sure `parent`
        // isn't among them (that would create a cycle).
        if parent == child || self.is_descendant_of(parent, child) {
            return Err(TreeError::WouldCycle);
        }
        let len = self.expect(parent)?.children.len();
        if index > len {
            return Err(TreeError::PositionOutOfBounds { len, index });
        }
        self.expect_mut(parent)?.children.insert(index, child);
        self.expect_mut(child)?.parent = Some(parent);
        Ok(())
    }

    /// Inserts detached node `child` immediately before `reference`
    /// (which must be attached).
    pub fn insert_before(&mut self, reference: NodeId, child: NodeId) -> Result<(), TreeError> {
        let parent = self.expect(reference)?.parent.ok_or(TreeError::NotAttached)?;
        let pos = self.position_in_parent(reference)?;
        self.insert_child(parent, pos, child)
    }

    /// Inserts detached node `child` immediately after `reference`
    /// (which must be attached).
    pub fn insert_after(&mut self, reference: NodeId, child: NodeId) -> Result<(), TreeError> {
        let parent = self.expect(reference)?.parent.ok_or(TreeError::NotAttached)?;
        let pos = self.position_in_parent(reference)?;
        self.insert_child(parent, pos + 1, child)
    }

    /// Detaches `node` from its parent, keeping its subtree alive.
    ///
    /// Returns `(parent, position)` — exactly the context a compensating
    /// insert needs to restore the node at its original place.
    pub fn detach(&mut self, node: NodeId) -> Result<(NodeId, usize), TreeError> {
        if node == self.root {
            return Err(TreeError::RootImmutable);
        }
        let parent = self.expect(node)?.parent.ok_or(TreeError::NotAttached)?;
        let pos = self.position_in_parent(node)?;
        self.expect_mut(parent)?.children.remove(pos);
        self.expect_mut(node)?.parent = None;
        Ok((parent, pos))
    }

    /// Deletes `node` and its entire subtree, freeing their slots.
    ///
    /// The node may be attached (it is detached first) or already detached.
    /// Returns the number of nodes deleted — the paper's cost measure
    /// ("the number of XML nodes affected is usually a good measure of the
    /// cost of an operation").
    pub fn delete(&mut self, node: NodeId) -> Result<usize, TreeError> {
        if node == self.root {
            return Err(TreeError::RootImmutable);
        }
        self.expect(node)?;
        if self.expect(node)?.parent.is_some() {
            self.detach(node)?;
        }
        let mut stack = vec![node];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            stack.extend(self.vacate(id).children);
            self.free.push(id.index);
            count += 1;
        }
        Ok(count)
    }

    /// Replaces attached node `old` with detached node `new`, deleting
    /// `old`'s subtree. Returns the position the replacement happened at.
    pub fn replace(&mut self, old: NodeId, new: NodeId) -> Result<usize, TreeError> {
        if old == self.root {
            return Err(TreeError::RootImmutable);
        }
        self.expect(new)?;
        let (parent, pos) = self.detach(old)?;
        self.delete(old)?;
        self.insert_child(parent, pos, new)?;
        Ok(pos)
    }

    // ------------------------------------------------------------------
    // Node accessors.
    // ------------------------------------------------------------------

    /// The kind (payload) of a node.
    pub fn kind(&self, node: NodeId) -> Result<&NodeKind, TreeError> {
        Ok(&self.expect(node)?.kind)
    }

    /// The element name of a node, if it is an element.
    pub fn name(&self, node: NodeId) -> Result<&QName, TreeError> {
        match &self.expect(node)?.kind {
            NodeKind::Element { name, .. } => Ok(name),
            _ => Err(TreeError::WrongKind { expected: "element" }),
        }
    }

    /// Renames an element node.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<QName>) -> Result<(), TreeError> {
        let name = name.into();
        let old = match &mut self.expect_mut(node)?.kind {
            NodeKind::Element { name: n, .. } => std::mem::replace(n, name.clone()),
            _ => return Err(TreeError::WrongKind { expected: "element" }),
        };
        if let Some(names) = self.names.get_mut() {
            names.remove(node, &old);
            names.insert(node, &name);
        }
        Ok(())
    }

    /// The text of a text/CDATA node.
    pub fn node_text(&self, node: NodeId) -> Result<&str, TreeError> {
        match &self.expect(node)?.kind {
            NodeKind::Text(t) | NodeKind::Cdata(t) => Ok(t),
            _ => Err(TreeError::WrongKind { expected: "text" }),
        }
    }

    /// Overwrites the text of a text/CDATA node, returning the old value.
    pub fn set_node_text(&mut self, node: NodeId, text: impl Into<String>) -> Result<String, TreeError> {
        match &mut self.expect_mut(node)?.kind {
            NodeKind::Text(t) | NodeKind::Cdata(t) => Ok(std::mem::replace(t, text.into())),
            _ => Err(TreeError::WrongKind { expected: "text" }),
        }
    }

    /// Concatenated descendant text content of `node` (like XPath `string()`).
    pub fn text_content(&self, node: NodeId) -> Result<String, TreeError> {
        self.expect(node)?;
        let mut out = String::new();
        for id in self.descendants_and_self(node) {
            if let NodeKind::Text(t) | NodeKind::Cdata(t) = &self.expect(id)?.kind {
                out.push_str(t);
            }
        }
        Ok(out)
    }

    /// Attribute value by name, if present (element nodes only).
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&str> {
        match &self.get(node)?.kind {
            NodeKind::Element { attrs, .. } => attrs.iter().find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// All attributes of an element, in document order.
    pub fn attrs(&self, node: NodeId) -> Result<&[(QName, String)], TreeError> {
        match &self.expect(node)?.kind {
            NodeKind::Element { attrs, .. } => Ok(attrs),
            _ => Err(TreeError::WrongKind { expected: "element" }),
        }
    }

    /// Sets (or inserts) an attribute, returning the previous value if any.
    pub fn set_attr(
        &mut self,
        node: NodeId,
        name: impl Into<QName>,
        value: impl Into<String>,
    ) -> Result<Option<String>, TreeError> {
        let name = name.into();
        let value = value.into();
        match &mut self.expect_mut(node)?.kind {
            NodeKind::Element { attrs, .. } => {
                for (n, v) in attrs.iter_mut() {
                    if *n == name {
                        return Ok(Some(std::mem::replace(v, value)));
                    }
                }
                attrs.push((name, value));
                Ok(None)
            }
            _ => Err(TreeError::WrongKind { expected: "element" }),
        }
    }

    /// Removes an attribute, returning its previous value if present.
    pub fn remove_attr(&mut self, node: NodeId, name: &str) -> Result<Option<String>, TreeError> {
        match &mut self.expect_mut(node)?.kind {
            NodeKind::Element { attrs, .. } => {
                if let Some(pos) = attrs.iter().position(|(n, _)| n.matches_raw(name)) {
                    Ok(Some(attrs.remove(pos).1))
                } else {
                    Ok(None)
                }
            }
            _ => Err(TreeError::WrongKind { expected: "element" }),
        }
    }

    // ------------------------------------------------------------------
    // Navigation.
    // ------------------------------------------------------------------

    /// The parent of `node`, or `None` for the root / detached nodes.
    pub fn parent(&self, node: NodeId) -> Result<Option<NodeId>, TreeError> {
        Ok(self.expect(node)?.parent)
    }

    /// The children of `node`, in document order.
    pub fn children(&self, node: NodeId) -> Result<&[NodeId], TreeError> {
        Ok(&self.expect(node)?.children)
    }

    /// Child elements only (skipping text/comments/PIs).
    pub fn child_elements(&self, node: NodeId) -> Result<Vec<NodeId>, TreeError> {
        Ok(self
            .expect(node)?
            .children
            .iter()
            .copied()
            .filter(|c| matches!(self.get(*c).map(|n| &n.kind), Some(NodeKind::Element { .. })))
            .collect())
    }

    /// First child element with the given name.
    pub fn first_child_element(&self, node: NodeId, name: &str) -> Option<NodeId> {
        self.get(node)?.children.iter().copied().find(
            |c| matches!(self.get(*c).map(|n| &n.kind), Some(NodeKind::Element { name: n, .. }) if n.matches_raw(name)),
        )
    }

    /// Position of `node` among its parent's children.
    pub fn position_in_parent(&self, node: NodeId) -> Result<usize, TreeError> {
        let parent = self.expect(node)?.parent.ok_or(TreeError::NotAttached)?;
        self.expect(parent)?.children.iter().position(|c| *c == node).ok_or(TreeError::StaleNode)
    }

    /// True if `node` is a (strict) descendant of `ancestor`.
    pub fn is_descendant_of(&self, node: NodeId, ancestor: NodeId) -> bool {
        let mut cur = match self.get(node) {
            Some(n) => n.parent,
            None => return false,
        };
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.get(p).and_then(|n| n.parent);
        }
        false
    }

    /// Iterator over `node`'s ancestors, nearest first.
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.get(node).and_then(|n| n.parent);
        std::iter::from_fn(move || {
            let next = cur?;
            cur = self.get(next).and_then(|n| n.parent);
            Some(next)
        })
    }

    /// Pre-order iterator over `node` and all its descendants.
    pub fn descendants_and_self(&self, node: NodeId) -> Descendants<'_> {
        let stack = if self.contains(node) { vec![node] } else { Vec::new() };
        Descendants { doc: self, stack }
    }

    /// Pre-order iterator over the whole document starting at the root.
    pub fn all_nodes(&self) -> Descendants<'_> {
        self.descendants_and_self(self.root)
    }

    /// Number of nodes in the subtree rooted at `node` (including itself).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.descendants_and_self(node).count()
    }

    /// Depth of `node` below the root (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.ancestors(node).count()
    }

    /// Compares two attached nodes in document order.
    ///
    /// Returns `Less` if `a` strictly precedes `b` in pre-order.
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> Result<std::cmp::Ordering, TreeError> {
        if a == b {
            return Ok(std::cmp::Ordering::Equal);
        }
        let mut keys = Vec::new();
        if !self.document_order_key_into(a, &mut keys) {
            return Err(TreeError::StaleNode);
        }
        let split = keys.len();
        if !self.document_order_key_into(b, &mut keys) {
            return Err(TreeError::StaleNode);
        }
        let (key_a, key_b) = keys.split_at(split);
        Ok(key_a.cmp(key_b))
    }

    /// Appends to `key` the child positions leading from the top of
    /// `node`'s tree (the root, or the head of a detached subtree) down to
    /// `node`; returns false, appending nothing, if `node` is stale. Keys
    /// order the way their nodes stand in the document, so a sort computes
    /// one key per node, not two per comparison — and every key of one
    /// sort can live in the same buffer.
    pub fn document_order_key_into(&self, node: NodeId, key: &mut Vec<usize>) -> bool {
        self.path_up_into(node, None, key)
    }

    /// Those of `nodes` attached at or below `ancestor`, in document order.
    pub fn attached_below(&self, ancestor: NodeId, nodes: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        // Every path in one buffer; a node's key is its range of it.
        let mut paths = Vec::new();
        let mut below: Vec<(std::ops::Range<usize>, NodeId)> = Vec::new();
        for n in nodes {
            let start = paths.len();
            if self.path_up_into(n, Some(ancestor), &mut paths) {
                below.push((start..paths.len(), n));
            }
        }
        below.sort_unstable_by(|(a, na), (b, nb)| paths[a.clone()].cmp(&paths[b.clone()]).then(na.cmp(nb)));
        below.into_iter().map(|(_, n)| n).collect()
    }

    /// Climbs from `node` to `stop` — or, without one, to the top of the
    /// tree — appending each level's position among its siblings to
    /// `path`, topmost first. Returns false, leaving `path` as it was, if
    /// `node` is stale or not attached below `stop`.
    fn path_up_into(&self, node: NodeId, stop: Option<NodeId>, path: &mut Vec<usize>) -> bool {
        let start = path.len();
        let climbed = (|| {
            let mut cur = node;
            let mut parent = self.get(node)?.parent;
            while Some(cur) != stop {
                let Some(up) = parent else {
                    if stop.is_some() {
                        return None;
                    }
                    break;
                };
                let above = self.get(up)?;
                path.push(above.children.iter().position(|c| *c == cur)?);
                cur = up;
                parent = above.parent;
            }
            Some(())
        })();
        match climbed {
            Some(()) => path[start..].reverse(),
            None => path.truncate(start),
        }
        climbed.is_some()
    }

    // ------------------------------------------------------------------
    // Lookup by element name.
    // ------------------------------------------------------------------

    /// Every live element named `name` — attached or not, in no particular
    /// order.
    ///
    /// A document of [`Self::NAME_INDEX_MIN_NODES`] nodes or more answers
    /// from its name index, which the first such call builds and every
    /// edit keeps current from then on; a smaller one looks through its
    /// arena and builds nothing.
    pub fn elements_named(&self, name: &QName) -> Cow<'_, [NodeId]> {
        match self.name_index_if_wanted() {
            Some(names) => Cow::Borrowed(names.named(name)),
            None => Cow::Owned(self.live_elements().filter(|(_, n)| *n == name).map(|(id, _)| id).collect()),
        }
    }

    /// [`Self::elements_named`] where going through them one by one is
    /// cheaper than walking the tree; `None` says walk — the document is
    /// under the size floor, or more than one node in
    /// [`Self::NAME_INDEX_SPARSE_RATIO`] carries the name.
    pub fn sparse_elements_named(&self, name: &QName) -> Option<&[NodeId]> {
        let found = self.name_index_if_wanted()?.named(name);
        (found.len() * Self::NAME_INDEX_SPARSE_RATIO <= self.live).then_some(found)
    }

    /// Builds the name index now if it is not built yet — whatever the
    /// document's size, so tests can put a small document on the indexed
    /// side.
    pub fn ensure_name_index(&self) {
        self.name_index();
    }

    /// The index of a document that has one or is large enough to want
    /// one.
    fn name_index_if_wanted(&self) -> Option<&NameIndex> {
        (self.live >= Self::NAME_INDEX_MIN_NODES || self.names.get().is_some()).then(|| self.name_index())
    }

    fn name_index(&self) -> &NameIndex {
        self.names.get_or_init(|| {
            let mut names = NameIndex::default();
            for (id, name) in self.live_elements() {
                names.insert(id, name);
            }
            names
        })
    }

    fn live_elements(&self) -> impl Iterator<Item = (NodeId, &QName)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| match &slot.node.as_ref()?.kind {
            NodeKind::Element { name, .. } => Some((NodeId { index: index as u32, generation: slot.generation }, name)),
            _ => None,
        })
    }

    // ------------------------------------------------------------------
    // Serialization.
    // ------------------------------------------------------------------

    /// Serializes the whole document (no XML declaration, compact).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    /// Appends the whole document (as [`Self::to_xml`] renders it) to `out`.
    pub fn write_xml(&self, out: &mut String) {
        // Tags and a little text: a guess that saves most regrowth.
        out.reserve(32 * self.live);
        serialize::serialize_into(self, self.root, &SerializeOptions::compact(), out);
    }

    /// Serializes the whole document with options.
    pub fn to_xml_with(&self, opts: &SerializeOptions) -> String {
        serialize::serialize(self, self.root, opts)
    }

    /// Serializes one subtree (compact).
    pub fn subtree_to_xml(&self, node: NodeId) -> String {
        serialize::serialize(self, node, &SerializeOptions::compact())
    }

    /// Validates internal consistency; used by tests and debug assertions.
    ///
    /// Checks that every live node is reachable from the root or from a
    /// detached head, that parent/child links agree, the live count
    /// matches and — once the name index is built — that it lists every
    /// live element exactly once, under its current name. Returns the
    /// number of live nodes on success.
    pub fn check_consistency(&self) -> Result<usize, String> {
        let mut seen = 0usize;
        for (index, slot) in self.slots.iter().enumerate() {
            let Some(node) = &slot.node else { continue };
            seen += 1;
            let id = NodeId { index: index as u32, generation: slot.generation };
            if let Some(parent) = node.parent {
                let pnode = self.get(parent).ok_or_else(|| format!("{id}: dangling parent {parent}"))?;
                if !pnode.children.contains(&id) {
                    return Err(format!("{id}: parent {parent} does not list it as a child"));
                }
            }
            for &child in &node.children {
                let cnode = self.get(child).ok_or_else(|| format!("{id}: dangling child {child}"))?;
                if cnode.parent != Some(id) {
                    return Err(format!("{id}: child {child} has parent {:?}", cnode.parent));
                }
            }
        }
        if seen != self.live {
            return Err(format!("live count mismatch: counted {seen}, recorded {}", self.live));
        }
        if self.get(self.root).is_none() {
            return Err("root is not live".into());
        }
        if let Some(names) = self.names.get() {
            // Every live element sits where `pos` says under its current
            // name; with as many entries as elements, nothing else is listed.
            for (id, name) in self.live_elements() {
                let at = names.pos.get(id.index as usize).map(|p| *p as usize);
                if at.and_then(|at| names.by_name.get(name)?.get(at)) != Some(&id) {
                    return Err(format!("{id}: not in the name index under `{name}` at {at:?}"));
                }
            }
            let (listed, live) = (names.by_name.values().map(Vec::len).sum::<usize>(), self.live_elements().count());
            if listed != live {
                return Err(format!("name index lists {listed} elements, {live} are live"));
            }
        }
        Ok(seen)
    }
}

/// A detached subtree being taken apart node by node, parent before
/// child, by a walk that wants what the nodes held (see
/// [`Document::remove_to_fragment`]).
///
/// The slots go back on the free list in the order [`Document::delete`]
/// frees them — a node, then its subtrees last child first — which read
/// backwards is the subtree in post-order. Later allocations, and so the
/// [`NodeId`]s a log records, therefore do not depend on which of the two
/// removed a subtree.
pub(crate) struct Release<'d> {
    doc: &'d mut Document,
    /// One past the free-list entry the next retired node fills.
    next: usize,
}

impl Release<'_> {
    /// Empties `node`'s slot, handing over its payload and children.
    pub(crate) fn take(&mut self, node: NodeId) -> (NodeKind, Vec<NodeId>) {
        let Node { kind, children, .. } = self.doc.vacate(node);
        (kind, children)
    }

    /// Lists `node`'s slot as free; call it once `node`'s children are
    /// retired.
    pub(crate) fn retire(&mut self, node: NodeId) {
        self.next -= 1;
        self.doc.free[self.next] = node.index;
    }
}

/// Pre-order (document order) iterator over a subtree.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        if let Some(node) = self.doc.get(id) {
            self.stack.extend(node.children.iter().rev());
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        // <root><a x="1">hi</a><b/></root>
        let mut doc = Document::new("root");
        let root = doc.root();
        let a = doc.create_element("a");
        doc.set_attr(a, "x", "1").unwrap();
        let t = doc.create_text("hi");
        doc.append_child(a, t).unwrap();
        doc.append_child(root, a).unwrap();
        let b = doc.create_element("b");
        doc.append_child(root, b).unwrap();
        (doc, a, t, b)
    }

    #[test]
    fn build_and_serialize() {
        let (doc, ..) = sample();
        assert_eq!(doc.to_xml(), r#"<root><a x="1">hi</a><b/></root>"#);
        assert_eq!(doc.node_count(), 4);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn ids_are_stable_across_unrelated_edits() {
        let (mut doc, a, _t, b) = sample();
        doc.delete(b).unwrap();
        assert!(doc.contains(a));
        assert_eq!(doc.name(a).unwrap().local, "a");
    }

    #[test]
    fn deleted_ids_become_stale_and_are_not_resurrected() {
        let (mut doc, a, t, _b) = sample();
        doc.delete(a).unwrap();
        assert!(!doc.contains(a));
        assert!(!doc.contains(t), "descendants die with the subtree");
        // Allocate into the freed slots: fresh ids must differ.
        let c = doc.create_element("c");
        let d = doc.create_element("d");
        assert_ne!(c, a);
        assert_ne!(d, a);
        assert_ne!(c, t);
        assert_ne!(d, t);
        assert_eq!(doc.kind(a).err(), Some(TreeError::StaleNode));
    }

    #[test]
    fn delete_returns_affected_node_count() {
        let (mut doc, a, _t, b) = sample();
        assert_eq!(doc.delete(a).unwrap(), 2, "a + its text");
        assert_eq!(doc.delete(b).unwrap(), 1);
        assert_eq!(doc.node_count(), 1);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn detach_reports_parent_and_position() {
        let (mut doc, a, _t, b) = sample();
        let (parent, pos) = doc.detach(b).unwrap();
        assert_eq!(parent, doc.root());
        assert_eq!(pos, 1);
        assert!(doc.contains(b), "detach keeps the subtree alive");
        // Re-attach it where it was.
        doc.insert_child(parent, pos, b).unwrap();
        assert_eq!(doc.to_xml(), r#"<root><a x="1">hi</a><b/></root>"#);
        let (_, pos_a) = doc.detach(a).unwrap();
        assert_eq!(pos_a, 0);
    }

    #[test]
    fn insert_before_and_after() {
        let (mut doc, a, _t, b) = sample();
        let c = doc.create_element("c");
        doc.insert_before(a, c).unwrap();
        let d = doc.create_element("d");
        doc.insert_after(b, d).unwrap();
        assert_eq!(doc.to_xml(), r#"<root><c/><a x="1">hi</a><b/><d/></root>"#);
    }

    #[test]
    fn replace_swaps_subtrees_in_place() {
        let (mut doc, a, _t, _b) = sample();
        let new = doc.create_element("z");
        let pos = doc.replace(a, new).unwrap();
        assert_eq!(pos, 0);
        assert_eq!(doc.to_xml(), r#"<root><z/><b/></root>"#);
        assert!(!doc.contains(a));
        doc.check_consistency().unwrap();
    }

    #[test]
    fn cycle_rejected() {
        let (mut doc, a, _t, _b) = sample();
        let root = doc.root();
        // Detach a, then try to append root under a's subtree: root is immutable.
        doc.detach(a).unwrap();
        assert_eq!(doc.append_child(a, root), Err(TreeError::RootImmutable));
        // Build a real cycle attempt: x under y, then y under x's descendant.
        let x = doc.create_element("x");
        let y = doc.create_element("y");
        doc.append_child(x, y).unwrap();
        assert_eq!(doc.insert_child(y, 0, x), Err(TreeError::WouldCycle));
        assert_eq!(doc.insert_child(x, 0, x), Err(TreeError::WouldCycle));
    }

    #[test]
    fn double_attach_rejected() {
        let (mut doc, a, _t, _b) = sample();
        let root = doc.root();
        assert_eq!(doc.append_child(root, a), Err(TreeError::NotAttached), "a already has a parent");
    }

    #[test]
    fn position_bounds_checked() {
        let (mut doc, ..) = sample();
        let root = doc.root();
        let c = doc.create_element("c");
        assert_eq!(doc.insert_child(root, 7, c), Err(TreeError::PositionOutOfBounds { len: 2, index: 7 }));
    }

    #[test]
    fn root_protected() {
        let (mut doc, ..) = sample();
        let root = doc.root();
        assert_eq!(doc.delete(root), Err(TreeError::RootImmutable));
        assert_eq!(doc.detach(root), Err(TreeError::RootImmutable));
        let z = doc.create_element("z");
        assert_eq!(doc.replace(root, z), Err(TreeError::RootImmutable));
    }

    #[test]
    fn attributes_roundtrip() {
        let (mut doc, a, ..) = sample();
        assert_eq!(doc.attr(a, "x"), Some("1"));
        assert_eq!(doc.set_attr(a, "x", "2").unwrap(), Some("1".to_string()));
        assert_eq!(doc.attr(a, "x"), Some("2"));
        assert_eq!(doc.set_attr(a, "y", "3").unwrap(), None);
        assert_eq!(doc.remove_attr(a, "x").unwrap(), Some("2".to_string()));
        assert_eq!(doc.attr(a, "x"), None);
        assert_eq!(doc.remove_attr(a, "x").unwrap(), None);
    }

    #[test]
    fn text_content_concatenates() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.create_element("a");
        let t1 = doc.create_text("one ");
        doc.append_child(a, t1).unwrap();
        doc.append_child(root, a).unwrap();
        let t2 = doc.create_text("two");
        doc.append_child(root, t2).unwrap();
        assert_eq!(doc.text_content(root).unwrap(), "one two");
        assert_eq!(doc.text_content(a).unwrap(), "one ");
    }

    #[test]
    fn set_node_text_returns_old() {
        let (mut doc, _a, t, _b) = sample();
        assert_eq!(doc.set_node_text(t, "bye").unwrap(), "hi");
        assert_eq!(doc.node_text(t).unwrap(), "bye");
    }

    #[test]
    fn navigation() {
        let (doc, a, t, b) = sample();
        let root = doc.root();
        assert_eq!(doc.parent(a).unwrap(), Some(root));
        assert_eq!(doc.parent(root).unwrap(), None);
        assert_eq!(doc.children(root).unwrap(), &[a, b]);
        assert_eq!(doc.child_elements(root).unwrap(), vec![a, b]);
        assert_eq!(doc.first_child_element(root, "b"), Some(b));
        assert_eq!(doc.first_child_element(root, "zz"), None);
        assert!(doc.is_descendant_of(t, root));
        assert!(doc.is_descendant_of(t, a));
        assert!(!doc.is_descendant_of(a, b));
        assert_eq!(doc.ancestors(t).collect::<Vec<_>>(), vec![a, root]);
        assert_eq!(doc.depth(t), 2);
        assert_eq!(doc.subtree_size(root), 4);
    }

    #[test]
    fn document_order() {
        use std::cmp::Ordering::*;
        let (doc, a, t, b) = sample();
        let root = doc.root();
        assert_eq!(doc.cmp_document_order(root, a).unwrap(), Less);
        assert_eq!(doc.cmp_document_order(a, t).unwrap(), Less);
        assert_eq!(doc.cmp_document_order(t, b).unwrap(), Less);
        assert_eq!(doc.cmp_document_order(b, a).unwrap(), Greater);
        assert_eq!(doc.cmp_document_order(a, a).unwrap(), Equal);
        let order: Vec<NodeId> = doc.all_nodes().collect();
        assert_eq!(order, vec![root, a, t, b]);
    }

    #[test]
    fn rename_element() {
        let (mut doc, a, t, _b) = sample();
        doc.set_name(a, "renamed").unwrap();
        assert_eq!(doc.name(a).unwrap().local, "renamed");
        assert_eq!(doc.set_name(t, "x"), Err(TreeError::WrongKind { expected: "element" }));
    }

    /// The index's map has a hasher chosen for speed, so its iteration
    /// order means nothing: every answer is a lookup by key, and equals
    /// what a document without an index finds by looking through its arena.
    #[test]
    fn the_name_index_answers_by_key_whatever_order_its_map_keeps() {
        let mut plain = Document::new("r");
        let root = plain.root();
        let names: Vec<String> =
            (0..40).map(|k| if k % 3 == 0 { format!("ns{k}:e") } else { format!("e{k}") }).collect();
        let mut ids = Vec::new();
        for k in 0..300 {
            let e = plain.create_element(names[k * 7 % names.len()].as_str());
            plain.append_child(if k % 5 == 0 { root } else { ids[k / 2] }, e).unwrap();
            ids.push(e);
        }
        let mut indexed = plain.clone();
        indexed.ensure_name_index();
        for doc in [&mut plain, &mut indexed] {
            doc.delete(ids[200]).unwrap();
            doc.set_name(ids[10], "renamed").unwrap();
            let fresh = doc.create_element("ns0:e");
            doc.append_child(ids[3], fresh).unwrap();
        }
        assert!(plain.names.get().is_none() && indexed.names.get().is_some());
        indexed.check_consistency().unwrap();
        for name in names.iter().map(String::as_str).chain(["renamed", "r", "absent"]) {
            let sorted = |doc: &Document| {
                let mut found = doc.elements_named(&QName::new(name)).into_owned();
                found.sort();
                found
            };
            assert_eq!(sorted(&indexed), sorted(&plain), "{name}");
        }
        assert_eq!(indexed.to_xml(), plain.to_xml());
    }

    #[test]
    fn fnv1a_is_the_published_function() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn wrong_kind_errors() {
        let (mut doc, a, t, _b) = sample();
        assert!(doc.node_text(a).is_err());
        assert!(doc.name(t).is_err());
        assert!(doc.attrs(t).is_err());
        assert!(doc.set_attr(t, "k", "v").is_err());
        // Appending under a text node is rejected.
        let c = doc.create_element("c");
        assert_eq!(doc.append_child(t, c), Err(TreeError::WrongKind { expected: "element" }));
    }
}
