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
use crate::fragment::Fragment;
use crate::name::QName;
use crate::node::{index, Attr, Leaf, Node, Size, Span, Strings, NONE};
pub use crate::node::{Attrs, NodeKind};
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

/// A slot's `parent` while it holds no node.
const VACANT: u32 = u32::MAX - 1;

/// One arena slot, 64 bytes: a generation, the links the node record
/// does not carry itself, and the record.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    generation: u32,
    /// Slot of the parent; [`NONE`] for the root and the heads of detached
    /// subtrees, [`VACANT`] while the slot is free (the record is then
    /// whatever was there last).
    pub(crate) parent: u32,
    /// Previous sibling — for a first child, the *last* child, so both
    /// ends of a child list are one hop from the parent. [`NONE`] when
    /// the node has no parent.
    prev: u32,
    /// Next sibling; [`NONE`] for a last child.
    pub(crate) next: u32,
    pub(crate) node: Node,
}

impl Slot {
    /// `(first child, child count)`; `(NONE, 0)` for leaves.
    fn child_list(&self) -> (u32, usize) {
        match self.node {
            Node::Element { below, children, .. } => (below, children as usize),
            Node::Leaf { .. } => (NONE, 0),
        }
    }
}

/// One step of a [`Walk`]: a node is entered before its children and left
/// after them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Visit {
    Enter(u32),
    Leave(u32),
}

/// A walk of one subtree along the sibling links, holding no stack.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    top: u32,
    next: Option<Visit>,
}

impl Walk {
    pub(crate) fn new(top: u32) -> Walk {
        Walk { top, next: Some(Visit::Enter(top)) }
    }

    /// The next step. Where the walk goes after it is read off the slots
    /// now, so the caller may vacate a slot it is told to leave.
    pub(crate) fn step(&mut self, slots: &[Slot]) -> Option<Visit> {
        let visit = self.next.take()?;
        self.next = match visit {
            Visit::Enter(at) => match slots[at as usize].child_list() {
                (NONE, _) => Some(Visit::Leave(at)),
                (first, _) => Some(Visit::Enter(first)),
            },
            Visit::Leave(at) if at == self.top => None,
            Visit::Leave(at) => match &slots[at as usize] {
                Slot { next: NONE, parent, .. } => Some(Visit::Leave(*parent)),
                Slot { next, .. } => Some(Visit::Enter(*next)),
            },
        };
        Some(visit)
    }
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
                self.pos[slot] = index(list.len());
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
///
/// The arena is three vectors (DESIGN.md §18): fixed-size slots linked to
/// parent, siblings and first child, and the attribute run and text
/// buffer their records point into. Deletes and overwrites leave dead
/// entries in the latter two; [`Self::COMPACT_FLOOR`] says when they are
/// rebuilt.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) slots: Vec<Slot>,
    pub(crate) strings: Strings,
    /// How much of `strings` no live node points at (`nodes` is unused).
    dead: Size,
    free: Vec<u32>,
    root: NodeId,
    live: usize,
    /// Unset until a by-name lookup wants it (see [`Self::elements_named`]),
    /// so a document nobody looks into by name never pays for one.
    names: OnceLock<NameIndex>,
    /// Per slot, the fragment the subtree rooted there is an exact copy
    /// of, if one is known (DESIGN.md §18, "A subtree remembers what it is
    /// a copy of"). Filled through `&self`, emptied by every edit below.
    pub(crate) copies: Vec<OnceLock<Fragment>>,
}

const WANTS_ELEMENT: TreeError = TreeError::WrongKind { expected: "element" };

/// A child whose position is known: slot of the parent, slot, position.
#[derive(Debug, Clone, Copy)]
struct Placed {
    parent: u32,
    node: u32,
    pos: usize,
}

impl Placed {
    const NOWHERE: Placed = Placed { parent: NONE, node: NONE, pos: 0 };
}

/// What the last climb to the top of a tree found, level by level, for
/// the next one to start from (see [`Document::document_order_key_into`]).
/// A position among siblings is counted along their links, so a sort of
/// many children of one parent would otherwise walk the child list once
/// per child; with this, a sibling of the node placed last costs the hops
/// between the two, and an ancestor met again costs none. Good for one
/// batch over a document that is not edited meanwhile.
#[derive(Debug, Clone)]
pub struct Climb {
    /// Nearest level first; levels further up are counted afresh.
    levels: [Placed; 4],
}

impl Default for Climb {
    fn default() -> Self {
        Climb { levels: [Placed::NOWHERE; 4] }
    }
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

    /// The text buffer and the attribute run are rebuilt, in one pass over
    /// the live slots, when more of either is dead than live — and more
    /// than this many bytes (entries) are dead, so a small document is
    /// not rebuilt over and over. Each therefore holds at most twice what
    /// is live plus this.
    pub const COMPACT_FLOOR: usize = 1024;

    /// Creates a document whose root is an empty element named `root_name`.
    pub fn new(root_name: impl Into<QName>) -> Self {
        let mut doc = Document {
            slots: Vec::new(),
            strings: Strings::default(),
            dead: Size::default(),
            free: Vec::new(),
            root: NodeId { index: 0, generation: 0 },
            live: 0,
            names: OnceLock::new(),
            copies: Vec::new(),
        };
        doc.root = doc.create_element(root_name);
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

    fn get(&self, id: NodeId) -> Option<&Slot> {
        let slot = self.slots.get(id.index as usize)?;
        (slot.generation == id.generation && slot.parent != VACANT).then_some(slot)
    }

    fn expect(&self, id: NodeId) -> Result<&Slot, TreeError> {
        self.get(id).ok_or(TreeError::StaleNode)
    }

    /// The slot of a live node.
    pub(crate) fn slot_of(&self, id: NodeId) -> Result<u32, TreeError> {
        self.expect(id).map(|_| id.index)
    }

    /// The id of the live node in slot `at`.
    fn id_at(&self, at: u32) -> NodeId {
        NodeId { index: at, generation: self.slots[at as usize].generation }
    }

    fn link_id(&self, at: u32) -> Option<NodeId> {
        (at != NONE).then(|| self.id_at(at))
    }

    /// Puts `node`, whose spans lie in this document's strings, into a
    /// slot: the one freed last, or a new one.
    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        self.live += 1;
        let mut slot = Slot { generation: 0, parent: NONE, prev: NONE, next: NONE, node };
        let id = if let Some(index) = self.free.pop() {
            let old = &mut self.slots[index as usize];
            debug_assert_eq!(old.parent, VACANT);
            slot.generation = old.generation;
            *old = slot;
            NodeId { index, generation: old.generation }
        } else {
            assert!(self.slots.len() < VACANT as usize, "more than u32::MAX - 1 nodes");
            self.slots.push(slot);
            self.copies.push(OnceLock::new());
            NodeId { index: self.slots.len() as u32 - 1, generation: 0 }
        };
        if let (Some(names), Node::Element { name, .. }) = (self.names.get_mut(), &self.slots[id.index as usize].node) {
            names.insert(id, name);
        }
        id
    }

    /// Empties slot `at`, counting what its node held as dead. The slot is
    /// not reusable until its index is put on the free list.
    fn vacate(&mut self, at: u32) {
        let slot = &mut self.slots[at as usize];
        debug_assert_ne!(slot.parent, VACANT, "only live nodes are freed");
        let id = NodeId { index: at, generation: slot.generation };
        slot.generation = slot.generation.wrapping_add(1);
        slot.parent = VACANT;
        self.copies[at as usize].take();
        self.live -= 1;
        self.strings.measure(&slot.node, &mut self.dead);
        if let (Some(names), Node::Element { name, .. }) = (self.names.get_mut(), &slot.node) {
            names.remove(id, name);
        }
    }

    /// Frees the detached subtree at `top`, telling `visit` each step of
    /// the walk before acting on it; returns how many nodes it held.
    ///
    /// The slots go on the free list a node first, then its subtrees last
    /// child first — the walk's leaving order, reversed. Later
    /// allocations, and so the [`NodeId`]s a log records, depend on that
    /// order and on nothing else about how a subtree was removed.
    pub(crate) fn free_subtree(&mut self, top: u32, mut visit: impl FnMut(&Document, Visit)) -> usize {
        let start = self.free.len();
        let mut walk = Walk::new(top);
        while let Some(step) = walk.step(&self.slots) {
            visit(self, step);
            if let Visit::Leave(at) = step {
                self.vacate(at);
                self.free.push(at);
            }
        }
        self.free[start..].reverse();
        self.free.len() - start
    }

    /// Makes room for freeing `nodes` more nodes without regrowth.
    pub(crate) fn reserve_free(&mut self, nodes: usize) {
        self.free.reserve(nodes);
    }

    /// Rebuilds the strings from the live slots if [`Self::COMPACT_FLOOR`]
    /// says so. No id and no output byte changes; spans do.
    pub(crate) fn compact_if_sparse(&mut self) {
        let sparse = |dead: usize, len: usize| dead > Self::COMPACT_FLOOR && dead > len - dead;
        let Strings { attrs, text } = &self.strings;
        if !sparse(self.dead.text, text.len()) && !sparse(self.dead.attrs, attrs.len()) {
            return;
        }
        // As roomy as before: what was deleted is often put back.
        let fresh = Strings::with_capacity(attrs.capacity(), text.capacity());
        let old = std::mem::replace(&mut self.strings, fresh);
        for slot in self.slots.iter_mut().filter(|slot| slot.parent != VACANT) {
            slot.node = self.strings.copy_in(&old, &slot.node);
        }
        self.dead = Size::default();
    }

    /// The node in slot `at` was edited: neither its subtree nor any above
    /// it is a copy of what it was.
    fn forget(&mut self, mut at: u32) {
        while at != NONE {
            self.copies[at as usize].take();
            at = self.slots[at as usize].parent;
        }
    }

    /// Adds what the subtree at `top` takes to `size`.
    pub(crate) fn measure(&self, top: u32, size: &mut Size) {
        let mut walk = Walk::new(top);
        while let Some(step) = walk.step(&self.slots) {
            if let Visit::Enter(at) = step {
                self.strings.measure(&self.slots[at as usize].node, size);
            }
        }
    }

    // ------------------------------------------------------------------
    // Node creation (detached).
    // ------------------------------------------------------------------

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: impl Into<QName>) -> NodeId {
        self.create_element_with_attrs(name, std::iter::empty::<(QName, &str)>())
    }

    /// Creates a detached element node with attributes.
    pub fn create_element_with_attrs<N, A, S>(&mut self, name: N, attrs: A) -> NodeId
    where
        N: Into<QName>,
        A: IntoIterator<Item = (QName, S)>,
        S: AsRef<str>,
    {
        let attrs = self.strings.push_attrs(attrs);
        self.alloc(Node::Element { name: name.into(), attrs, below: NONE, children: 0 })
    }

    fn create_leaf(&mut self, kind: Leaf, text: &str, data: &str) -> NodeId {
        let (text, data) = (self.strings.push_str(text), self.strings.push_str(data));
        self.alloc(Node::Leaf { kind, text, data })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl AsRef<str>) -> NodeId {
        self.create_leaf(Leaf::Text, text.as_ref(), "")
    }

    /// Creates a detached CDATA node.
    pub fn create_cdata(&mut self, text: impl AsRef<str>) -> NodeId {
        self.create_leaf(Leaf::Cdata, text.as_ref(), "")
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl AsRef<str>) -> NodeId {
        self.create_leaf(Leaf::Comment, text.as_ref(), "")
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(&mut self, target: impl AsRef<str>, data: impl AsRef<str>) -> NodeId {
        self.create_leaf(Leaf::Pi, target.as_ref(), data.as_ref())
    }

    // ------------------------------------------------------------------
    // Structural edits.
    // ------------------------------------------------------------------

    /// The child list of the element in slot `at`, to be edited.
    fn child_list_mut(&mut self, at: u32) -> (&mut u32, &mut u32) {
        match &mut self.slots[at as usize].node {
            Node::Element { below, children, .. } => (below, children),
            Node::Leaf { .. } => unreachable!("only elements have children"),
        }
    }

    /// Makes the parentless node in slot `child` a child of the element in
    /// slot `parent`: the one before its child `before`, or the last.
    pub(crate) fn link(&mut self, parent: u32, child: u32, before: u32) {
        let (first, children) = self.child_list_mut(parent);
        *children += 1;
        let old_first = *first;
        if old_first == NONE || before == old_first {
            *first = child;
        }
        // The child after the new one, or the first if it becomes the last:
        // the one whose `prev` it takes over.
        let after = if before != NONE { before } else { old_first };
        let prev = if after == NONE { child } else { std::mem::replace(&mut self.slots[after as usize].prev, child) };
        if before != old_first {
            self.slots[prev as usize].next = child;
        }
        let slot = &mut self.slots[child as usize];
        (slot.parent, slot.prev, slot.next) = (parent, prev, before);
    }

    /// Takes the node in slot `child` out of its parent's child list.
    fn unlink(&mut self, child: u32) {
        let Slot { parent, prev, next, .. } = self.slots[child as usize];
        self.forget(parent);
        let (first, children) = self.child_list_mut(parent);
        *children -= 1;
        let first = if *first == child { std::mem::replace(first, next) } else { *first };
        if first != child {
            self.slots[prev as usize].next = next;
        }
        // Its `prev` passes to the child after it, or to the first if it
        // was the last (to nobody if it was the only one).
        let heir = if next != NONE { next } else { first };
        if heir != child {
            self.slots[heir as usize].prev = prev;
        }
        let slot = &mut self.slots[child as usize];
        (slot.parent, slot.prev, slot.next) = (NONE, NONE, NONE);
    }

    /// The slot of child `n` of the node in slot `parent`, reached from
    /// the nearer end of the child list; [`NONE`] if there is none.
    fn nth_child(&self, parent: u32, n: usize) -> u32 {
        let (first, count) = self.slots[parent as usize].child_list();
        if n >= count {
            return NONE;
        }
        let hop = |at: u32, back: bool| if back { self.slots[at as usize].prev } else { self.slots[at as usize].next };
        // One hop back from the first child is the last.
        let (back, hops) = if n <= count / 2 { (false, n) } else { (true, count - n) };
        (0..hops).fold(first, |at, _| hop(at, back))
    }

    /// Appends detached node `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), TreeError> {
        let len = self.expect(parent)?.child_list().1;
        self.insert_child(parent, len, child)
    }

    /// Inserts detached node `child` under `parent` at child position `index`.
    ///
    /// Positional insertion is what makes **order-preserving compensation**
    /// possible: the log records the position a node was deleted from, and
    /// the compensating insert restores it "before/after a specific node"
    /// as the paper notes XQuery! allows.
    pub fn insert_child(&mut self, parent: NodeId, index: usize, child: NodeId) -> Result<(), TreeError> {
        let Node::Element { children, .. } = self.expect(parent)?.node else { return Err(WANTS_ELEMENT) };
        if self.expect(child)?.parent != NONE {
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
        let len = children as usize;
        if index > len {
            return Err(TreeError::PositionOutOfBounds { len, index });
        }
        let before = self.nth_child(parent.index, index);
        self.link(parent.index, child.index, before);
        self.forget(parent.index);
        Ok(())
    }

    /// Appends `child`, created detached just now, as the last child of
    /// the live element `parent`: how the parser builds a document. A node
    /// made just now cannot be above `parent`, and no fragment has been
    /// taken from a document still being parsed, so `insert_child`'s two
    /// walks up from `parent` — the cycle check and `forget` — would find
    /// nothing. Skipping them and its other checks takes 30 % off a parse
    /// (DESIGN.md §18).
    pub(crate) fn append_fresh(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.slots[child.index as usize].parent == NONE && child != self.root);
        self.link(parent.index, child.index, NONE);
    }

    /// Inserts detached node `child` immediately before `reference`
    /// (which must be attached).
    pub fn insert_before(&mut self, reference: NodeId, child: NodeId) -> Result<(), TreeError> {
        let (parent, pos) = self.place(reference)?;
        self.insert_child(parent, pos, child)
    }

    /// Inserts detached node `child` immediately after `reference`
    /// (which must be attached).
    pub fn insert_after(&mut self, reference: NodeId, child: NodeId) -> Result<(), TreeError> {
        let (parent, pos) = self.place(reference)?;
        self.insert_child(parent, pos + 1, child)
    }

    /// The parent of attached node `node` and its position there.
    fn place(&self, node: NodeId) -> Result<(NodeId, usize), TreeError> {
        let mut nowhere = Placed::NOWHERE;
        self.place_near(node, &mut nowhere)
    }

    /// [`Self::place`], counting from `near` — a sibling placed just
    /// before, or `node` itself — where that is nearer than the first
    /// child; `near` is left at `node`.
    fn place_near(&self, node: NodeId, near: &mut Placed) -> Result<(NodeId, usize), TreeError> {
        let parent = self.expect(node)?.parent;
        if parent == NONE {
            return Err(TreeError::NotAttached);
        }
        // `prev` of the first child is the last, never `node` again before
        // the first is reached.
        let first = self.slots[parent as usize].child_list().0;
        let known = if near.parent == parent { near.node } else { NONE };
        let (mut at, mut hops) = (node.index, 0);
        while at != first && at != known {
            at = self.slots[at as usize].prev;
            hops += 1;
        }
        let pos = if at == first { hops } else { near.pos + hops };
        *near = Placed { parent, node: node.index, pos };
        Ok((self.id_at(parent), pos))
    }

    /// Detaches `node` from its parent, keeping its subtree alive.
    ///
    /// Returns `(parent, position)` — exactly the context a compensating
    /// insert needs to restore the node at its original place.
    pub fn detach(&mut self, node: NodeId) -> Result<(NodeId, usize), TreeError> {
        if node == self.root {
            return Err(TreeError::RootImmutable);
        }
        let place = self.place(node)?;
        self.unlink(node.index);
        Ok(place)
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
        if self.expect(node)?.parent != NONE {
            self.unlink(node.index);
        }
        let count = self.free_subtree(node.index, |_, _| ());
        self.compact_if_sparse();
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
    pub fn kind(&self, node: NodeId) -> Result<NodeKind<'_>, TreeError> {
        Ok(self.strings.kind(&self.expect(node)?.node))
    }

    /// The element name of a node, if it is an element.
    pub fn name(&self, node: NodeId) -> Result<&QName, TreeError> {
        match &self.expect(node)?.node {
            Node::Element { name, .. } => Ok(name),
            Node::Leaf { .. } => Err(WANTS_ELEMENT),
        }
    }

    /// Renames an element node.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<QName>) -> Result<(), TreeError> {
        let name = name.into();
        let at = self.slot_of(node)? as usize;
        let Node::Element { name: held, .. } = &mut self.slots[at].node else { return Err(WANTS_ELEMENT) };
        let old = std::mem::replace(held, name.clone());
        if let Some(names) = self.names.get_mut() {
            names.remove(node, &old);
            names.insert(node, &name);
        }
        self.forget(node.index);
        Ok(())
    }

    /// The text of a text/CDATA node.
    pub fn node_text(&self, node: NodeId) -> Result<&str, TreeError> {
        match self.kind(node)? {
            NodeKind::Text(t) | NodeKind::Cdata(t) => Ok(t),
            _ => Err(TreeError::WrongKind { expected: "text" }),
        }
    }

    /// Overwrites the text of a text/CDATA node, returning the old value.
    pub fn set_node_text(&mut self, node: NodeId, text: impl AsRef<str>) -> Result<String, TreeError> {
        let at = self.slot_of(node)? as usize;
        let Node::Leaf { kind: Leaf::Text | Leaf::Cdata, text: held, .. } = &mut self.slots[at].node else {
            return Err(TreeError::WrongKind { expected: "text" });
        };
        let old = self.strings.str(*held).to_string();
        self.dead.text += old.len();
        *held = self.strings.push_str(text.as_ref());
        self.forget(node.index);
        self.compact_if_sparse();
        Ok(old)
    }

    /// Concatenated descendant text content of `node` (like XPath `string()`).
    pub fn text_content(&self, node: NodeId) -> Result<String, TreeError> {
        self.expect(node)?;
        let mut out = String::new();
        for id in self.descendants_and_self(node) {
            if let Node::Leaf { kind: Leaf::Text | Leaf::Cdata, text, .. } = self.slots[id.index as usize].node {
                out.push_str(self.strings.str(text));
            }
        }
        Ok(out)
    }

    /// Attribute value by name, if present (element nodes only).
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attrs(node).ok()?.find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v)
    }

    /// All attributes of an element, in document order.
    pub fn attrs(&self, node: NodeId) -> Result<Attrs<'_>, TreeError> {
        match self.expect(node)?.node {
            Node::Element { attrs, .. } => Ok(self.strings.attrs(attrs)),
            Node::Leaf { .. } => Err(WANTS_ELEMENT),
        }
    }

    /// The attribute run of the element `node`, where in the strings the
    /// attribute `is_it` picks out stands, and the rest an edit needs.
    #[allow(clippy::type_complexity)]
    fn attr_run_mut(
        &mut self,
        node: NodeId,
        is_it: impl Fn(&QName) -> bool,
    ) -> Result<(&mut Span, Option<usize>, &mut Strings, &mut Size), TreeError> {
        let at = self.slot_of(node)? as usize;
        let Node::Element { attrs: run, .. } = &mut self.slots[at].node else { return Err(WANTS_ELEMENT) };
        let found = self.strings.attrs[run.range()].iter().position(|a| is_it(&a.name));
        let found = found.map(|k| run.start as usize + k);
        Ok((run, found, &mut self.strings, &mut self.dead))
    }

    /// Sets (or inserts) an attribute, returning the previous value if any.
    pub fn set_attr(
        &mut self,
        node: NodeId,
        name: impl Into<QName>,
        value: impl AsRef<str>,
    ) -> Result<Option<String>, TreeError> {
        let name = name.into();
        let (run, found, strings, dead) = self.attr_run_mut(node, |n| *n == name)?;
        let old = match found {
            Some(at) => {
                let old = strings.str(strings.attrs[at].value).to_string();
                dead.text += old.len();
                strings.attrs[at].value = strings.push_str(value.as_ref());
                Some(old)
            }
            None => {
                // A run grows in place only at the end of the vector.
                if run.end as usize != strings.attrs.len() {
                    dead.attrs += run.len();
                    let start = index(strings.attrs.len());
                    strings.attrs.extend_from_within(run.range());
                    *run = Span { start, end: index(strings.attrs.len()) };
                }
                let value = strings.push_str(value.as_ref());
                strings.attrs.push(Attr { name, value });
                run.end += 1;
                None
            }
        };
        self.forget(node.index);
        self.compact_if_sparse();
        Ok(old)
    }

    /// Removes an attribute, returning its previous value if present.
    pub fn remove_attr(&mut self, node: NodeId, name: &str) -> Result<Option<String>, TreeError> {
        let (run, found, strings, dead) = self.attr_run_mut(node, |n| n.matches_raw(name))?;
        let Some(at) = found else { return Ok(None) };
        let old = strings.str(strings.attrs[at].value).to_string();
        // The run closes up; the entry past its new end is the dead one.
        strings.attrs[at..run.end as usize].rotate_left(1);
        run.end -= 1;
        dead.attrs += 1;
        dead.text += old.len();
        self.forget(node.index);
        self.compact_if_sparse();
        Ok(Some(old))
    }

    // ------------------------------------------------------------------
    // Navigation.
    // ------------------------------------------------------------------

    /// The parent of `node`, or `None` for the root / detached nodes.
    pub fn parent(&self, node: NodeId) -> Result<Option<NodeId>, TreeError> {
        Ok(self.link_id(self.expect(node)?.parent))
    }

    /// The children of `node`, in document order.
    pub fn children(&self, node: NodeId) -> Result<Children<'_>, TreeError> {
        let (front, left) = self.expect(node)?.child_list();
        let back = if left == 0 { NONE } else { self.slots[front as usize].prev };
        Ok(Children { slots: &self.slots, front, back, left })
    }

    /// Child `n` of `node`, reached from the nearer end of its child list.
    pub fn child_at(&self, node: NodeId, n: usize) -> Result<Option<NodeId>, TreeError> {
        Ok(self.link_id(self.nth_child(self.slot_of(node)?, n)))
    }

    /// Child elements only (skipping text/comments/PIs).
    pub fn child_elements(&self, node: NodeId) -> Result<Vec<NodeId>, TreeError> {
        Ok(self.children(node)?.filter(|c| matches!(self.slots[c.index as usize].node, Node::Element { .. })).collect())
    }

    /// First child element with the given name.
    pub fn first_child_element(&self, node: NodeId, name: &str) -> Option<NodeId> {
        self.children(node).ok()?.find(
            |c| matches!(&self.slots[c.index as usize].node, Node::Element { name: n, .. } if n.matches_raw(name)),
        )
    }

    /// Position of `node` among its parent's children.
    pub fn position_in_parent(&self, node: NodeId) -> Result<usize, TreeError> {
        Ok(self.place(node)?.1)
    }

    /// True if `node` is a (strict) descendant of `ancestor`.
    pub fn is_descendant_of(&self, node: NodeId, ancestor: NodeId) -> bool {
        self.ancestors(node).any(|a| a == ancestor)
    }

    /// Iterator over `node`'s ancestors, nearest first.
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut at = self.get(node).map_or(NONE, |slot| slot.parent);
        std::iter::from_fn(move || {
            let next = self.link_id(at)?;
            at = self.slots[at as usize].parent;
            Some(next)
        })
    }

    /// Pre-order iterator over `node` and all its descendants.
    pub fn descendants_and_self(&self, node: NodeId) -> Descendants<'_> {
        let mut walk = Walk::new(node.index);
        if !self.contains(node) {
            walk.next = None;
        }
        Descendants { doc: self, walk }
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
        let (mut keys, mut near) = (Vec::new(), Climb::default());
        if !self.document_order_key_into(a, &mut keys, &mut near) {
            return Err(TreeError::StaleNode);
        }
        let split = keys.len();
        if !self.document_order_key_into(b, &mut keys, &mut near) {
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
    /// sort can live in the same buffer, with one `near` between them.
    pub fn document_order_key_into(&self, node: NodeId, key: &mut Vec<usize>, near: &mut Climb) -> bool {
        self.path_up_into(node, None, key, near)
    }

    /// Those of `nodes` attached at or below `ancestor`, in document order.
    pub fn attached_below(&self, ancestor: NodeId, nodes: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        // Every path in one buffer; a node's key is its range of it.
        let mut paths = Vec::new();
        let mut below: Vec<(std::ops::Range<usize>, NodeId)> = Vec::new();
        let mut near = Climb::default();
        for n in nodes {
            let start = paths.len();
            if self.path_up_into(n, Some(ancestor), &mut paths, &mut near) {
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
    fn path_up_into(&self, node: NodeId, stop: Option<NodeId>, path: &mut Vec<usize>, near: &mut Climb) -> bool {
        if !self.contains(node) {
            return false;
        }
        let start = path.len();
        let mut cur = node;
        while Some(cur) != stop {
            let level = path.len() - start;
            let placed = match near.levels.get_mut(level) {
                Some(near) => self.place_near(cur, near),
                None => self.place(cur),
            };
            match placed {
                Ok((parent, pos)) => {
                    path.push(pos);
                    cur = parent;
                }
                // The top of the tree: where a climb without a stop ends.
                Err(_) if stop.is_none() => break,
                Err(_) => {
                    path.truncate(start);
                    return false;
                }
            }
        }
        path[start..].reverse();
        true
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

    fn live_slots(&self) -> impl Iterator<Item = (u32, &Slot)> {
        self.slots.iter().enumerate().filter(|(_, slot)| slot.parent != VACANT).map(|(at, slot)| (at as u32, slot))
    }

    fn live_elements(&self) -> impl Iterator<Item = (NodeId, &QName)> {
        self.live_slots().filter_map(|(index, slot)| match &slot.node {
            Node::Element { name, .. } => Some((NodeId { index, generation: slot.generation }, name)),
            Node::Leaf { .. } => None,
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
    /// Checks that every child list is linked both ways under a parent
    /// that counts it right, that nodes without a parent have no siblings,
    /// that the live count, the free list and the dead-string accounting
    /// match the slots, that every fragment a subtree remembers being a
    /// copy of equals a fresh capture of it and — once the name index is
    /// built — that it lists every live element exactly once, under its
    /// current name. Returns the number of live nodes on success.
    pub fn check_consistency(&self) -> Result<usize, String> {
        let (mut seen, mut parented, mut listed) = (0usize, 0usize, 0usize);
        let mut held = Size::default();
        for (at, slot) in self.live_slots() {
            let id = self.id_at(at);
            seen += 1;
            self.strings.measure(&slot.node, &mut held);
            if slot.parent == NONE {
                if (slot.prev, slot.next) != (NONE, NONE) {
                    return Err(format!("{id}: no parent, but siblings {} and {}", slot.prev, slot.next));
                }
            } else {
                parented += 1;
                let parent = self.slots.get(slot.parent as usize).filter(|p| p.parent != VACANT);
                if !matches!(parent, Some(Slot { node: Node::Element { .. }, .. })) {
                    return Err(format!("{id}: parent slot {} holds no live element", slot.parent));
                }
            }
            let (first, count) = slot.child_list();
            if (first == NONE) != (count == 0) {
                return Err(format!("{id}: first child {first}, but {count} children"));
            }
            let (mut prev, mut child) = (NONE, first);
            for _ in 0..count {
                let Some(c) = self.slots.get(child as usize).filter(|c| c.parent == at) else {
                    return Err(format!("{id}: child slot {child} is not a live child of it"));
                };
                if prev != NONE && c.prev != prev {
                    return Err(format!("{id}: child slot {child} follows {prev} but points back at {}", c.prev));
                }
                (prev, child) = (child, c.next);
                listed += 1;
            }
            if child != NONE {
                return Err(format!("{id}: more than its {count} children are linked"));
            }
            if count > 0 && self.slots[first as usize].prev != prev {
                return Err(format!("{id}: first child does not point back at the last, {prev}"));
            }
        }
        if seen != self.live {
            return Err(format!("live count mismatch: counted {seen}, recorded {}", self.live));
        }
        if listed != parented {
            return Err(format!("{parented} nodes have a parent, {listed} are in a child list"));
        }
        if seen + self.free.len() != self.slots.len() {
            return Err(format!("{} slots, {seen} live and {} free", self.slots.len(), self.free.len()));
        }
        if self.free.iter().any(|at| self.slots[*at as usize].parent != VACANT) {
            return Err("a live slot is on the free list".into());
        }
        let Strings { attrs, text } = &self.strings;
        if (held.attrs + self.dead.attrs, held.text + self.dead.text) != (attrs.len(), text.len()) {
            return Err(format!(
                "strings hold {} attributes and {} bytes; {held:?} is live and {:?} counted dead",
                attrs.len(),
                text.len(),
                self.dead
            ));
        }
        if self.get(self.root).is_none_or(|root| root.parent != NONE) {
            return Err("root is not live at the top".into());
        }
        if self.copies.len() != self.slots.len() {
            return Err(format!("{} slots, {} remembered copies", self.slots.len(), self.copies.len()));
        }
        for (at, copy) in self.copies.iter().enumerate().filter_map(|(at, copy)| Some((at as u32, copy.get()?))) {
            if self.slots[at as usize].parent == VACANT {
                return Err(format!("free slot {at} remembers {copy}"));
            }
            let held = Fragment::capture(self, at);
            if *copy != held {
                return Err(format!("{}: remembers {copy}, holds {held}", self.id_at(at)));
            }
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

    /// Bytes of text and attribute entries held, dead ones included (for
    /// tests of [`Self::COMPACT_FLOOR`]).
    pub fn string_footprint(&self) -> (usize, usize) {
        (self.strings.text.len(), self.strings.attrs.len())
    }
}

/// The children of one node, in document order.
#[derive(Debug, Clone, Default)]
pub struct Children<'a> {
    slots: &'a [Slot],
    front: u32,
    back: u32,
    left: usize,
}

impl Children<'_> {
    fn hand_out(&mut self, at: u32) -> Option<NodeId> {
        self.left -= 1;
        Some(NodeId { index: at, generation: self.slots[at as usize].generation })
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        let at = self.front;
        self.front = self.slots[at as usize].next;
        self.hand_out(at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        let at = self.back;
        self.back = self.slots[at as usize].prev;
        self.hand_out(at)
    }
}

impl ExactSizeIterator for Children<'_> {}

/// Pre-order (document order) iterator over a subtree.
pub struct Descendants<'a> {
    doc: &'a Document,
    walk: Walk,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if let Visit::Enter(at) = self.walk.step(&self.doc.slots)? {
                return Some(self.doc.id_at(at));
            }
        }
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
    fn a_slot_is_64_bytes_and_owns_nothing() {
        assert!(std::mem::size_of::<Slot>() <= 64, "{} bytes", std::mem::size_of::<Slot>());
        assert!(!std::mem::needs_drop::<Slot>());
        assert!(!std::mem::needs_drop::<Node>());
        fn shared<T: Send + Sync + Clone>() {}
        shared::<Document>();
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
        assert_eq!(doc.children(root).unwrap().collect::<Vec<_>>(), [a, b]);
        assert_eq!(doc.children(root).unwrap().rev().collect::<Vec<_>>(), [b, a]);
        assert_eq!((doc.children(root).unwrap().len(), doc.children(t).unwrap().len()), (2, 0));
        assert_eq!(doc.child_at(root, 1).unwrap(), Some(b));
        assert_eq!(doc.child_at(root, 2).unwrap(), None);
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
