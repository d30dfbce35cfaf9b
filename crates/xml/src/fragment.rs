//! Owned, detached XML subtrees.
//!
//! A [`Fragment`] is the value form of a subtree: it is what transaction
//! logs store (the data a compensating insert must restore), what service
//! invocations return across peers, and what update operations carry in
//! their `<data>` part. Unlike [`crate::NodeId`]s, fragments are
//! self-contained and serializable.
//!
//! # Representation
//!
//! A subtree is a run of one immutable *table* behind an `Arc`: the same
//! node records a document's arena stores (`node.rs`), in document
//! (pre-)order, with the attribute run and the text buffer they point
//! into. An element records where its subtree ends, so its children are
//! found by hopping from one subtree end to the next. A `Fragment` is a
//! table and the index of a root in it — a child is a view into its
//! parent's table, and the subtrees captured together by
//! [`Document::extract_fragments`] are views into one — so cloning one is
//! a reference-count bump whatever its size, capturing costs a fixed
//! number of allocations per table, and dropping the last holder frees
//! three blocks without looking at a node.
//!
//! A document remembers which fragment each of its unedited subtrees is a
//! copy of — the one it was instantiated from, or its last capture — and
//! its extractions and removals hand that fragment back instead of
//! capturing the subtree again (DESIGN.md §18).
//!
//! The builders ([`Fragment::with_child`] and friends) write into the
//! table in place while the fragment is its only holder and spans all of
//! it; otherwise they copy the viewed subtree out first.
//!
//! The JSON form is the externally tagged tree this type had as a
//! recursive enum — `{"Element":{"name":…,"attrs":[…],"children":[…]}}`,
//! `{"Text":"…"}`, `{"Cdata":"…"}`, `{"Comment":"…"}`,
//! `{"Pi":{"target":"…","data":"…"}}` — written from and read into the
//! table directly (DESIGN.md §18, "Bounded nesting").

use crate::error::TreeError;
use crate::name::QName;
use crate::node::{index, Attr, Attrs, Leaf, Node, NodeKind, Size, Span, Strings, NONE};
use crate::serialize::{push_attr, push_text};
use crate::tree::{Document, NodeId, Visit, Walk};
use serde::value::field;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// An owned XML subtree; cheap to clone (see the module documentation).
#[derive(Clone)]
pub struct Fragment {
    table: Arc<Table>,
    /// Index of this fragment's root in `table.nodes`.
    root: u32,
}

/// What the root of a [`Fragment`] is, with the strings it holds.
pub type FragmentKind<'a> = NodeKind<'a>;

/// Nodes in pre-order: a node's subtree is the run of nodes from it to its
/// `below`. A table holds one subtree or several, one after the other.
/// Each element's attributes are one run of `strings`, the runs in node
/// order.
#[derive(Debug, Default)]
struct Table {
    nodes: Vec<Node>,
    strings: Strings,
}

impl Table {
    fn with_capacity(size: Size) -> Table {
        Table { nodes: Vec::with_capacity(size.nodes), strings: Strings::with_capacity(size.attrs, size.text) }
    }

    fn kind(&self, at: usize) -> NodeKind<'_> {
        self.strings.kind(&self.nodes[at])
    }

    fn attrs(&self, at: usize) -> Attrs<'_> {
        let run = match self.nodes[at] {
            Node::Element { attrs, .. } => attrs,
            Node::Leaf { .. } => Span::default(),
        };
        self.strings.attrs(run)
    }

    /// One past the last node of the subtree at `at`.
    fn subtree_end(&self, at: usize) -> usize {
        match self.nodes[at] {
            Node::Element { below, .. } => below as usize,
            Node::Leaf { .. } => at + 1,
        }
    }

    /// `(end of subtree, child count)` of the element at `at`, to be edited.
    fn element_mut(&mut self, at: usize) -> (&mut u32, &mut u32) {
        match &mut self.nodes[at] {
            Node::Element { below, children, .. } => (below, children),
            Node::Leaf { .. } => unreachable!("only elements are opened"),
        }
    }

    /// Appends an element of `children` children and its attributes; the
    /// children are whatever is appended until [`Self::close`] is called
    /// with the returned index.
    fn open<S: AsRef<str>>(
        &mut self,
        name: QName,
        attrs: impl IntoIterator<Item = (QName, S)>,
        children: usize,
    ) -> usize {
        let attrs = self.strings.push_attrs(attrs);
        let at = self.nodes.len();
        self.nodes.push(Node::Element { name, attrs, below: index(at + 1), children: index(children) });
        at
    }

    fn close(&mut self, at: usize) {
        *self.element_mut(at).0 = index(self.nodes.len());
    }

    /// Appends a text, CDATA, comment or — with `data` — PI node.
    fn leaf(&mut self, kind: Leaf, text: &str, data: &str) {
        let (text, data) = (self.strings.push_str(text), self.strings.push_str(data));
        self.nodes.push(Node::Leaf { kind, text, data });
    }

    /// Appends a copy of the subtree of `src` rooted at `root`, moving
    /// every index it holds to where its target now lies.
    fn append_subtree(&mut self, src: &Table, root: usize) {
        let (end, base) = (src.subtree_end(root), self.nodes.len());
        self.nodes.reserve(end - root);
        for node in &src.nodes[root..end] {
            let mut node = self.strings.copy_in(&src.strings, node);
            if let Node::Element { below, .. } = &mut node {
                *below = index(*below as usize - root + base);
            }
            self.nodes.push(node);
        }
    }

    /// Creates the subtree at `root` as detached nodes of `doc`, parent
    /// before children, and returns its root: a loop over the records
    /// that allocates nothing but what `doc`'s vectors grow by.
    fn instantiate(&self, root: usize, doc: &mut Document) -> NodeId {
        // The innermost element still taking children. While one is open
        // it has no next sibling yet, and its `next` holds where in this
        // table its subtree ends — so closing it finds the one around it.
        let mut open = NONE;
        let mut top = None;
        for at in root..self.subtree_end(root) {
            let mut node = doc.strings.copy_in(&self.strings, &self.nodes[at]);
            let end = match &mut node {
                Node::Element { below, children, .. } => {
                    *children = 0;
                    std::mem::replace(below, NONE)
                }
                Node::Leaf { .. } => index(at + 1),
            };
            let id = doc.alloc(node);
            let slot = id.raw().0;
            match open {
                NONE => top = Some(id),
                parent => doc.link(parent, slot, NONE),
            }
            if end > index(at + 1) {
                doc.slots[slot as usize].next = end;
                open = slot;
                continue;
            }
            while open != NONE && doc.slots[open as usize].next == end {
                doc.slots[open as usize].next = NONE;
                open = doc.slots[open as usize].parent;
            }
        }
        top.expect("a subtree has a root")
    }

    /// Appends the subtree at `at` as compact XML; returns the index
    /// after it.
    fn write_xml(&self, at: usize, out: &mut String) -> usize {
        match self.kind(at) {
            NodeKind::Element { name } => {
                out.push('<');
                name.push_to(out);
                for (name, value) in self.attrs(at) {
                    out.push(' ');
                    name.push_to(out);
                    out.push_str("=\"");
                    push_attr(out, value);
                    out.push('"');
                }
                let end = self.subtree_end(at);
                if end == at + 1 {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    let mut next = at + 1;
                    while next < end {
                        next = self.write_xml(next, out);
                    }
                    out.push_str("</");
                    name.push_to(out);
                    out.push('>');
                }
                return end;
            }
            NodeKind::Text(t) => push_text(out, t),
            NodeKind::Cdata(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            NodeKind::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
            NodeKind::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
        at + 1
    }

    /// Appends the subtree at `at` as JSON; returns the index after it.
    fn write_json(&self, at: usize, out: &mut String) -> usize {
        let tagged = |tag: &str, s: &str, close: &str, out: &mut String| {
            out.push_str(tag);
            serde::json::write_str(s, out);
            out.push_str(close);
        };
        match self.kind(at) {
            NodeKind::Element { name } => {
                out.push_str("{\"Element\":{\"name\":");
                name.write_json(out);
                out.push_str(",\"attrs\":[");
                for (k, (name, value)) in self.attrs(at).enumerate() {
                    out.push_str(if k == 0 { "[" } else { ",[" });
                    name.write_json(out);
                    out.push(',');
                    serde::json::write_str(value, out);
                    out.push(']');
                }
                out.push_str("],\"children\":[");
                let end = self.subtree_end(at);
                let mut next = at + 1;
                while next < end {
                    if next > at + 1 {
                        out.push(',');
                    }
                    next = self.write_json(next, out);
                }
                out.push_str("]}}");
                return end;
            }
            NodeKind::Text(t) => tagged("{\"Text\":", t, "}", out),
            NodeKind::Cdata(t) => tagged("{\"Cdata\":", t, "}", out),
            NodeKind::Comment(t) => tagged("{\"Comment\":", t, "}", out),
            NodeKind::Pi { target, data } => {
                tagged("{\"Pi\":{\"target\":", target, "", out);
                tagged(",\"data\":", data, "}}", out);
            }
        }
        at + 1
    }

    /// Appends the subtree `v` stands for.
    fn decode(&mut self, v: &Value) -> Result<(), DeError> {
        let (tag, inner) = match v {
            Value::Map(m) if m.len() == 1 => (m[0].0.as_str(), &m[0].1),
            Value::Str(other) => return Err(DeError::new(format!("unknown Fragment variant {other:?}"))),
            _ => return Err(DeError::expected("Fragment variant", v)),
        };
        fn string(v: &Value) -> Result<&str, DeError> {
            v.as_str().ok_or_else(|| DeError::expected("string", v))
        }
        match tag {
            "Element" => {
                let fields = inner.as_map().ok_or_else(|| DeError::expected("map for Fragment::Element", inner))?;
                let name = QName::from_value(field(fields, "name"))?;
                let attrs = Vec::<(QName, String)>::from_value(field(fields, "attrs"))?;
                let children = field(fields, "children");
                let children = children.as_seq().ok_or_else(|| DeError::expected("sequence", children))?;
                let at = self.open(name, attrs, children.len());
                for child in children {
                    self.decode(child)?;
                }
                self.close(at);
            }
            "Text" => self.leaf(Leaf::Text, string(inner)?, ""),
            "Cdata" => self.leaf(Leaf::Cdata, string(inner)?, ""),
            "Comment" => self.leaf(Leaf::Comment, string(inner)?, ""),
            "Pi" => {
                let fields = inner.as_map().ok_or_else(|| DeError::expected("map for Fragment::Pi", inner))?;
                self.leaf(Leaf::Pi, string(field(fields, "target"))?, string(field(fields, "data"))?);
            }
            other => return Err(DeError::new(format!("unknown Fragment variant {other:?}"))),
        }
        Ok(())
    }
}

/// A table being filled with subtrees of a document, one walk each.
struct Capture {
    table: Table,
    /// The innermost element of `table` still taking children. While one
    /// is open its `below` holds the one around it ([`NONE`] for a root).
    open: u32,
    /// How many subtrees it holds.
    captured: usize,
}

impl Capture {
    fn sized(size: Size) -> Capture {
        Capture { table: Table::with_capacity(size), open: NONE, captured: 0 }
    }

    /// Copies of the subtrees in slots `tops` of `doc`, one after the
    /// other; `None` if there are none. One walk each sizes the table and
    /// a second fills it, so a capture makes the same few allocations
    /// whatever the subtrees' size and number.
    fn copies(doc: &Document, tops: impl Iterator<Item = u32> + Clone) -> Option<Capture> {
        let mut size = Size::default();
        tops.clone().for_each(|top| doc.measure(top, &mut size));
        (size.nodes > 0).then(|| {
            let mut capture = Capture::sized(size);
            tops.for_each(|top| capture.copy(doc, top));
            capture
        })
    }

    /// One step of a walk of `doc`: entering a node appends its record
    /// and the strings it holds, leaving an element closes it.
    fn visit(&mut self, doc: &Document, step: Visit) {
        let Table { nodes, strings } = &mut self.table;
        match step {
            Visit::Enter(at) => {
                let mut node = strings.copy_in(&doc.strings, &doc.slots[at as usize].node);
                if let Node::Element { below, .. } = &mut node {
                    *below = std::mem::replace(&mut self.open, index(nodes.len()));
                }
                nodes.push(node);
            }
            Visit::Leave(at) => {
                if let Node::Element { .. } = doc.slots[at as usize].node {
                    let end = index(nodes.len());
                    let Node::Element { below, .. } = &mut nodes[self.open as usize] else { unreachable!("open") };
                    self.open = std::mem::replace(below, end);
                }
            }
        }
    }

    /// Appends a copy of the subtree in slot `top` of `doc`.
    fn copy(&mut self, doc: &Document, top: u32) {
        self.captured += 1;
        let mut walk = Walk::new(top);
        while let Some(step) = walk.step(&doc.slots) {
            self.visit(doc, step);
        }
    }

    /// Appends the detached subtree in slot `top` of `doc` and frees it.
    fn take(&mut self, doc: &mut Document, top: u32) {
        self.captured += 1;
        doc.free_subtree(top, |doc, step| self.visit(doc, step));
    }

    /// The captured subtrees, in the order they were captured.
    fn fragments(self) -> impl ExactSizeIterator<Item = Fragment> {
        let (table, count) = (Arc::new(self.table), self.captured);
        let mut next = 0;
        (0..count).map(move |_| {
            let root = index(next);
            next = table.subtree_end(next);
            Fragment { table: Arc::clone(&table), root }
        })
    }
}

impl Fragment {
    /// The fragment that is all of `table`.
    fn whole(table: Table) -> Fragment {
        debug_assert_eq!(table.subtree_end(0), table.nodes.len());
        Fragment { table: Arc::new(table), root: 0 }
    }

    fn built(build: impl FnOnce(&mut Table)) -> Fragment {
        let mut table = Table::default();
        build(&mut table);
        Fragment::whole(table)
    }

    /// Builds an empty element fragment.
    pub fn elem(name: impl Into<QName>) -> Fragment {
        Fragment::built(|t| {
            t.open(name.into(), std::iter::empty::<(QName, &str)>(), 0);
        })
    }

    /// Builds an element fragment containing a single text child.
    ///
    /// ```
    /// use axml_xml::Fragment;
    /// let f = Fragment::elem_text("citizenship", "Swiss");
    /// assert_eq!(f.to_xml(), "<citizenship>Swiss</citizenship>");
    /// ```
    pub fn elem_text(name: impl Into<QName>, text: impl Into<String>) -> Fragment {
        // The caller's string becomes the table's buffer.
        let text: String = text.into();
        let span = Span { start: 0, end: index(text.len()) };
        let root = Node::Element { name: name.into(), attrs: Span::default(), below: 2, children: 1 };
        let nodes = vec![root, Node::Leaf { kind: Leaf::Text, text: span, data: Span::default() }];
        Fragment::whole(Table { nodes, strings: Strings { attrs: Vec::new(), text } })
    }

    /// Builds a text node fragment.
    pub fn text(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Leaf::Text, text.as_ref(), ""))
    }

    /// Builds a CDATA section fragment.
    pub fn cdata(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Leaf::Cdata, text.as_ref(), ""))
    }

    /// Builds a comment fragment.
    pub fn comment(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Leaf::Comment, text.as_ref(), ""))
    }

    /// Builds a processing-instruction fragment.
    pub fn pi(target: impl AsRef<str>, data: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Leaf::Pi, target.as_ref(), data.as_ref()))
    }

    /// The table behind an element fragment, writable in place: this
    /// fragment is made its only holder and all of it — a table can hold
    /// other subtrees, whose views may be gone while their nodes are not —
    /// by copying the viewed subtree out if it is not. `None` for other
    /// kinds.
    fn element_table_mut(&mut self) -> Option<&mut Table> {
        if !matches!(self.node(), Node::Element { .. }) {
            return None;
        }
        let whole = self.root == 0 && self.end() == self.table.nodes.len();
        if !whole || Arc::get_mut(&mut self.table).is_none() {
            let mut table = Table::default();
            table.append_subtree(&self.table, self.root as usize);
            *self = Fragment::whole(table);
        }
        Arc::get_mut(&mut self.table)
    }

    /// Builder: adds an attribute (elements only; no-op otherwise).
    pub fn with_attr(mut self, name: impl Into<QName>, value: impl AsRef<str>) -> Fragment {
        if let Some(table) = self.element_table_mut() {
            let value = table.strings.push_str(value.as_ref());
            let Node::Element { attrs: Span { end: at, .. }, .. } = table.nodes[0] else { unreachable!("an element") };
            // The root's attributes stay one run: those of the elements
            // below it, if any, move up by one.
            table.strings.attrs.insert(at as usize, Attr { name: name.into(), value });
            for (k, node) in table.nodes.iter_mut().enumerate() {
                if let Node::Element { attrs, .. } = node {
                    attrs.start += u32::from(k > 0);
                    attrs.end += 1;
                }
            }
        }
        self
    }

    /// Appends one child to the root of an element fragment, in place.
    fn with_appended(mut self, append: impl FnOnce(&mut Table)) -> Fragment {
        if let Some(table) = self.element_table_mut() {
            append(table);
            *table.element_mut(0).1 += 1;
            table.close(0);
        }
        self
    }

    /// Builder: appends a child (elements only; no-op otherwise).
    pub fn with_child(self, child: Fragment) -> Fragment {
        self.with_appended(|table| table.append_subtree(&child.table, child.root as usize))
    }

    /// Builder: appends a text child (elements only).
    pub fn with_text(self, text: impl AsRef<str>) -> Fragment {
        self.with_appended(|table| table.leaf(Leaf::Text, text.as_ref(), ""))
    }

    /// Parses XML content into fragments (may yield several top-level items).
    pub fn parse_all(input: &str) -> Result<Vec<Fragment>, crate::ParseError> {
        crate::parser::parse_fragment(input)
    }

    /// Parses XML content expected to contain exactly one top-level item.
    pub fn parse_one(input: &str) -> Result<Fragment, crate::ParseError> {
        let mut all = Self::parse_all(input)?;
        if all.len() != 1 {
            return Err(crate::ParseError::new(0, 1, 1, format!("expected exactly one fragment, got {}", all.len())));
        }
        Ok(all.remove(0))
    }

    /// Captures the subtree rooted at `node` as a fragment (non-destructive):
    /// a fresh copy, whatever the document remembers of it (for that, see
    /// [`Document::extract_fragment`]).
    pub fn from_node(doc: &Document, node: NodeId) -> Result<Fragment, TreeError> {
        Ok(Fragment::capture(doc, doc.slot_of(node)?))
    }

    /// A fresh copy of the subtree in slot `top` of `doc`.
    pub(crate) fn capture(doc: &Document, top: u32) -> Fragment {
        let capture = Capture::copies(doc, std::iter::once(top)).expect("a subtree has a root");
        Fragment::whole(capture.table)
    }

    /// Materializes this fragment as a fresh **detached** node in `doc`,
    /// which remembers that the new subtree is a copy of this fragment.
    ///
    /// Returns the new subtree's root id; attach it with the `Document`
    /// editing API.
    pub fn instantiate(&self, doc: &mut Document) -> NodeId {
        let id = self.table.instantiate(self.root as usize, doc);
        doc.copies[id.raw().0 as usize].get_or_init(|| self.clone());
        id
    }

    fn node(&self) -> &Node {
        &self.table.nodes[self.root as usize]
    }

    /// One past this fragment's last node in its table.
    fn end(&self) -> usize {
        self.table.subtree_end(self.root as usize)
    }

    /// What this fragment's root is.
    pub fn kind(&self) -> FragmentKind<'_> {
        self.table.kind(self.root as usize)
    }

    /// Element name, if this is an element.
    pub fn name(&self) -> Option<&QName> {
        match self.node() {
            Node::Element { name, .. } => Some(name),
            Node::Leaf { .. } => None,
        }
    }

    /// Attributes in document order (none unless this is an element).
    pub fn attrs(&self) -> Attrs<'_> {
        self.table.attrs(self.root as usize)
    }

    /// Attribute lookup, if this is an element.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs().find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v)
    }

    /// Children in document order (none unless this is an element), each a
    /// view into this fragment's table.
    pub fn children(&self) -> Children<'_> {
        let left = match self.node() {
            Node::Element { children, .. } => *children as usize,
            Node::Leaf { .. } => 0,
        };
        Children { table: &self.table, next: self.root as usize + 1, left }
    }

    /// Concatenated descendant text (like XPath `string()`).
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for at in self.root as usize..self.end() {
            if let NodeKind::Text(t) | NodeKind::Cdata(t) = self.table.kind(at) {
                out.push_str(t);
            }
        }
        out
    }

    /// Whether `a` and `b` are the same subtree of the same table — one a
    /// clone of the other — rather than merely equal trees.
    pub fn ptr_eq(a: &Fragment, b: &Fragment) -> bool {
        Arc::ptr_eq(&a.table, &b.table) && a.root == b.root
    }

    /// Total node count of this fragment.
    pub fn node_count(&self) -> usize {
        self.end() - self.root as usize
    }

    /// Serializes this fragment to compact XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.table.write_xml(self.root as usize, &mut out);
        out
    }
}

/// The children of a [`Fragment`], in document order.
#[derive(Debug, Clone)]
pub struct Children<'a> {
    table: &'a Arc<Table>,
    next: usize,
    left: usize,
}

impl Iterator for Children<'_> {
    type Item = Fragment;

    fn next(&mut self) -> Option<Fragment> {
        self.left = self.left.checked_sub(1)?;
        let child = Fragment { table: Arc::clone(self.table), root: index(self.next) };
        self.next = child.end();
        Some(child)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Children<'_> {}

/// Structural: two fragments are equal when they hold the same tree,
/// whichever tables hold them and wherever in those they start.
impl PartialEq for Fragment {
    fn eq(&self, other: &Fragment) -> bool {
        if Fragment::ptr_eq(self, other) {
            return true;
        }
        let (a, b) = (&*self.table, &*other.table);
        let (ra, rb) = (self.root as usize, other.root as usize);
        let len = self.node_count();
        // Kinds compare names and strings; where two elements' subtrees
        // end and what attributes they have is left to compare.
        len == other.node_count()
            && (0..len).all(|k| {
                a.kind(ra + k) == b.kind(rb + k)
                    && a.subtree_end(ra + k) - ra == b.subtree_end(rb + k) - rb
                    && a.attrs(ra + k).eq(b.attrs(rb + k))
            })
    }
}

impl Eq for Fragment {}

/// Prints the tree, not the table: what `derive(Debug)` printed for the
/// recursive enum this type was.
impl fmt::Debug for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            FragmentKind::Element { name } => f
                .debug_struct("Element")
                .field("name", name)
                .field("attrs", &fmt::from_fn(|f| f.debug_list().entries(self.attrs()).finish()))
                .field("children", &fmt::from_fn(|f| f.debug_list().entries(self.children()).finish()))
                .finish(),
            FragmentKind::Text(t) => f.debug_tuple("Text").field(&t).finish(),
            FragmentKind::Cdata(t) => f.debug_tuple("Cdata").field(&t).finish(),
            FragmentKind::Comment(t) => f.debug_tuple("Comment").field(&t).finish(),
            FragmentKind::Pi { target, data } => {
                f.debug_struct("Pi").field("target", &target).field("data", &data).finish()
            }
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

impl Serialize for Fragment {
    fn write_json(&self, out: &mut String) {
        self.table.write_json(self.root as usize, out);
    }
}

impl Deserialize for Fragment {
    fn from_value(v: &Value) -> Result<Fragment, DeError> {
        let mut table = Table::default();
        table.decode(v)?;
        Ok(Fragment::whole(table))
    }
}

impl Document {
    /// The fragment the subtree at `node` is remembered to be an exact
    /// copy of, if any: set when it was instantiated or last captured,
    /// gone once it or anything below it is edited. `None` for a stale id.
    pub fn remembered_copy(&self, node: NodeId) -> Option<&Fragment> {
        self.copies[self.slot_of(node).ok()? as usize].get()
    }

    /// The subtree at `node` as a fragment, without modifying the
    /// document: the fragment it remembers the subtree is a copy of, or
    /// else a capture, remembered from now on.
    pub fn extract_fragment(&self, node: NodeId) -> Result<Fragment, TreeError> {
        let top = self.slot_of(node)?;
        Ok(self.copies[top as usize].get_or_init(|| Fragment::capture(self, top)).clone())
    }

    /// [`Self::extract_fragment`] for each of `nodes`, skipping the ids
    /// that are stale. The subtrees the document remembers no copy of are
    /// captured together into one table — sized once, filled once, whatever
    /// their number — and each is remembered as its view into it.
    pub fn extract_fragments(&self, nodes: &[NodeId]) -> Vec<Fragment> {
        let tops = nodes.iter().filter_map(|node| self.slot_of(*node).ok());
        // Each memory is read once: another reader of a shared document
        // may fill one at any time.
        let mut fragments = Vec::with_capacity(tops.clone().count());
        fragments.extend(tops.clone().map(|top| self.copies[top as usize].get().cloned()));
        let unknown = tops.clone().zip(&fragments).filter(|(_, known)| known.is_none()).map(|(top, _)| top);
        let mut captured = Capture::copies(self, unknown).map(Capture::fragments).into_iter().flatten();
        fragments.iter_mut().filter(|known| known.is_none()).for_each(|slot| *slot = captured.next());
        // A node listed twice, or captured by another reader meanwhile,
        // hands out the copy remembered first.
        let remembered = |(fragment, top): (Option<Fragment>, u32)| {
            self.copies[top as usize].get_or_init(|| fragment.expect("captured above")).clone()
        };
        fragments.into_iter().zip(tops).map(remembered).collect()
    }

    /// Makes room for freeing the subtrees at `tops` at once, and a table
    /// for those the document remembers no copy of — `None` if it
    /// remembers them all.
    fn prepare_removal(&mut self, tops: impl Iterator<Item = u32>) -> Option<Capture> {
        let (mut size, mut known) = (Size::default(), 0);
        for top in tops {
            match self.copies[top as usize].get() {
                Some(copy) => known += copy.node_count(),
                None => self.measure(top, &mut size),
            }
        }
        self.reserve_free(known + size.nodes);
        (size.nodes > 0).then(|| Capture::sized(size))
    }

    /// Frees the detached subtree at `top`: returns the fragment it is
    /// remembered to be a copy of, or else appends it to `capture`. The
    /// slots are freed in the same order either way.
    fn free_into(&mut self, top: u32, capture: &mut Option<Capture>) -> Option<Fragment> {
        let known = self.copies[top as usize].take();
        match capture.as_mut().filter(|_| known.is_none()) {
            Some(capture) => capture.take(self, top),
            None => {
                self.free_subtree(top, |_, _| ());
            }
        }
        known
    }

    /// Removes the subtree at `node`, returning `(fragment, parent,
    /// position)` — everything a compensating insert needs.
    ///
    /// The fragment is the one the subtree is remembered to be a copy of,
    /// handed back as the walk that frees its slots goes; or else, after a
    /// walk that only sizes the table, that same walk captures it.
    pub fn remove_to_fragment(&mut self, node: NodeId) -> Result<(Fragment, NodeId, usize), TreeError> {
        let top = self.slot_of(node)?;
        let (parent, pos) = self.detach(node)?;
        let mut capture = self.prepare_removal(std::iter::once(top));
        let known = self.free_into(top, &mut capture);
        self.compact_if_sparse();
        let fragment = known.or_else(|| capture?.fragments().next()).expect("remembered or captured");
        Ok((fragment, parent, pos))
    }

    /// [`Self::remove_to_fragment`] for each of `nodes` in turn — the same
    /// fragments, positions and freed slots — with the fragments the
    /// document remembers no copy of captured into one table.
    ///
    /// The subtrees must be disjoint. An id that is stale, the root,
    /// unattached, listed twice or inside another's subtree is an error
    /// (for the last two, [`TreeError::StaleNode`]: what the second
    /// removal would find) reported before anything is removed.
    pub fn remove_to_fragments(&mut self, nodes: &[NodeId]) -> Result<Vec<(Fragment, NodeId, usize)>, TreeError> {
        if nodes.is_empty() {
            return Ok(Vec::new());
        }
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(TreeError::StaleNode);
        }
        // The parent last found to have none of `nodes` above it: of
        // siblings, only the first climbs.
        let mut clear = None;
        for &node in nodes {
            if node == self.root() {
                return Err(TreeError::RootImmutable);
            }
            let parent = self.parent(node)?.ok_or(TreeError::NotAttached)?;
            if clear != Some(parent) {
                if self.ancestors(node).any(|above| sorted.binary_search(&above).is_ok()) {
                    return Err(TreeError::StaleNode);
                }
                clear = Some(parent);
            }
        }
        let mut capture = self.prepare_removal(nodes.iter().map(|node| node.raw().0));
        let mut removed = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let (parent, pos) = self.detach(node)?;
            removed.push((self.free_into(node.raw().0, &mut capture), parent, pos));
        }
        self.compact_if_sparse();
        let mut captured = capture.map(Capture::fragments).into_iter().flatten();
        let fragments = removed.into_iter().map(|(known, parent, pos)| {
            (known.or_else(|| captured.next()).expect("remembered or captured"), parent, pos)
        });
        Ok(fragments.collect())
    }

    /// Instantiates `fragment` and inserts it under `parent` at `pos`.
    /// Returns the new subtree root.
    pub fn insert_fragment(&mut self, parent: NodeId, pos: usize, fragment: &Fragment) -> Result<NodeId, TreeError> {
        let id = fragment.instantiate(self);
        match self.insert_child(parent, pos, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                // Roll back the orphan allocation so failed inserts leak nothing.
                let _ = self.delete(id);
                Err(e)
            }
        }
    }

    /// Instantiates `fragment` as the last child of `parent`.
    pub fn append_fragment(&mut self, parent: NodeId, fragment: &Fragment) -> Result<NodeId, TreeError> {
        let pos = self.children(parent)?.len();
        self.insert_fragment(parent, pos, fragment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Dropping the last holder of a table frees its three blocks and
    /// visits no node.
    #[test]
    fn a_table_node_owns_nothing() {
        assert!(!std::mem::needs_drop::<Node>());
        assert!(!std::mem::needs_drop::<Attr>());
    }

    #[test]
    fn roundtrip_node_fragment_node() {
        let doc = parse(r#"<r><a x="1">hi<b/></a></r>"#).unwrap();
        let root = doc.root();
        let a = doc.first_child_element(root, "a").unwrap();
        let frag = doc.extract_fragment(a).unwrap();
        assert_eq!(frag.to_xml(), r#"<a x="1">hi<b/></a>"#);

        let mut doc2 = Document::new("other");
        let r2 = doc2.root();
        doc2.append_fragment(r2, &frag).unwrap();
        assert_eq!(doc2.to_xml(), r#"<other><a x="1">hi<b/></a></other>"#);
    }

    #[test]
    fn remove_to_fragment_reports_position() {
        let mut doc = parse("<r><a/><b/><c/></r>").unwrap();
        let root = doc.root();
        let b = doc.first_child_element(root, "b").unwrap();
        let (frag, parent, pos) = doc.remove_to_fragment(b).unwrap();
        assert_eq!(frag.to_xml(), "<b/>");
        assert_eq!(parent, root);
        assert_eq!(pos, 1);
        assert_eq!(doc.to_xml(), "<r><a/><c/></r>");
        // Compensate: restore at the recorded position.
        doc.insert_fragment(parent, pos, &frag).unwrap();
        assert_eq!(doc.to_xml(), "<r><a/><b/><c/></r>");
    }

    #[test]
    fn remove_to_fragment_refuses_what_detach_refuses_and_changes_nothing() {
        let mut doc = parse("<r><a><b/></a></r>").unwrap();
        let root = doc.root();
        assert_eq!(doc.remove_to_fragment(root).unwrap_err(), TreeError::RootImmutable);
        let a = doc.first_child_element(root, "a").unwrap();
        doc.detach(a).unwrap();
        assert_eq!(doc.remove_to_fragment(a).unwrap_err(), TreeError::NotAttached);
        assert_eq!(doc.node_count(), 3);
        doc.delete(a).unwrap();
        assert_eq!(doc.remove_to_fragment(a).unwrap_err(), TreeError::StaleNode);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn builders() {
        let f = Fragment::elem("player")
            .with_attr("rank", "1")
            .with_child(Fragment::elem_text("firstname", "Roger"))
            .with_text("!");
        assert_eq!(f.to_xml(), r#"<player rank="1"><firstname>Roger</firstname>!</player>"#);
        assert_eq!(f.attr("rank"), Some("1"));
        assert_eq!(f.children().count(), 2);
        assert_eq!(f.text_content(), "Roger!");
        assert_eq!(f.node_count(), 4);
    }

    #[test]
    fn an_attribute_added_after_children_stays_with_the_root() {
        let f = Fragment::elem("p")
            .with_attr("a", "1")
            .with_child(Fragment::elem("c").with_attr("x", "cx").with_child(Fragment::elem("g").with_attr("y", "gy")))
            .with_attr("b", "2");
        assert_eq!(f.to_xml(), r#"<p a="1" b="2"><c x="cx"><g y="gy"/></c></p>"#);
        assert_eq!(f, Fragment::parse_one(&f.to_xml()).unwrap());
    }

    #[test]
    fn builders_on_a_shared_or_viewed_fragment_leave_the_other_holders_alone() {
        let parent = Fragment::elem("p").with_child(Fragment::elem("c").with_attr("k", "v").with_text("t"));
        let shared = parent.clone();
        let grown = parent.with_text("more");
        assert_eq!(shared.to_xml(), r#"<p><c k="v">t</c></p>"#);
        assert_eq!(grown.to_xml(), r#"<p><c k="v">t</c>more</p>"#);

        let view = shared.children().next().unwrap();
        let renamed = view.clone().with_attr("k2", "v2").with_child(Fragment::comment("n"));
        assert_eq!(view.to_xml(), r#"<c k="v">t</c>"#);
        assert_eq!(renamed.to_xml(), r#"<c k="v" k2="v2">t<!--n--></c>"#);
        assert_eq!(shared.to_xml(), r#"<p><c k="v">t</c></p>"#);
    }

    #[test]
    fn builders_noop_on_non_elements() {
        let t = Fragment::text("x").with_attr("a", "1").with_child(Fragment::elem("y")).with_text("z");
        assert_eq!(t, Fragment::text("x"));
        assert_eq!(t.children().count(), 0);
        assert_eq!(t.attr("a"), None);
        assert_eq!(t.name(), None);
    }

    #[test]
    fn kinds_and_equality_tell_the_five_node_kinds_apart() {
        let all = [
            Fragment::elem("x"),
            Fragment::text("x"),
            Fragment::cdata("x"),
            Fragment::comment("x"),
            Fragment::pi("x", ""),
            Fragment::pi("x", "d"),
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(all[2].kind(), FragmentKind::Cdata("x"));
        assert_eq!(all[5].kind(), FragmentKind::Pi { target: "x", data: "d" });
        assert_eq!(all[5].to_xml(), "<?x d?>");
        assert_eq!(all[4].to_xml(), "<?x?>");
    }

    #[test]
    fn a_child_view_equals_the_same_subtree_built_alone() {
        let parent = Fragment::parse_one(r#"<p><a k="1">x<b/></a><a k="1">x<b/></a><a k="2">x<b/></a></p>"#).unwrap();
        let kids: Vec<Fragment> = parent.children().collect();
        assert_eq!(kids[0], kids[1]);
        assert_ne!(kids[0], kids[2]);
        assert_eq!(kids[1], Fragment::elem("a").with_attr("k", "1").with_text("x").with_child(Fragment::elem("b")));
        assert_eq!(kids[1].node_count(), 3);
    }

    #[test]
    fn debug_prints_the_tree_the_enum_printed() {
        let f = Fragment::elem("a").with_attr("k", "v").with_text("t");
        assert_eq!(
            format!("{f:?}"),
            format!(
                "Element {{ name: {:?}, attrs: [({:?}, \"v\")], children: [Text(\"t\")] }}",
                QName::new("a"),
                QName::new("k")
            )
        );
        assert_eq!(format!("{:?}", Fragment::pi("t", "d")), r#"Pi { target: "t", data: "d" }"#);
    }

    #[test]
    fn json_is_the_externally_tagged_tree() {
        let f = Fragment::elem("a:b")
            .with_attr("k", "v\"")
            .with_text("t")
            .with_child(Fragment::cdata("c"))
            .with_child(Fragment::comment("m"))
            .with_child(Fragment::pi("p", "d"))
            .with_child(Fragment::elem("e"));
        let mut json = String::new();
        f.write_json(&mut json);
        assert_eq!(
            json,
            concat!(
                r#"{"Element":{"name":{"prefix":"a","local":"b"},"attrs":[[{"prefix":null,"local":"k"},"v\""]],"#,
                r#""children":[{"Text":"t"},{"Cdata":"c"},{"Comment":"m"},{"Pi":{"target":"p","data":"d"}},"#,
                r#"{"Element":{"name":{"prefix":null,"local":"e"},"attrs":[],"children":[]}}]}}"#
            )
        );
    }

    #[test]
    fn parse_one() {
        let f = Fragment::parse_one("<a><b/></a>").unwrap();
        assert_eq!(f.node_count(), 2);
        assert!(Fragment::parse_one("<a/><b/>").is_err());
        assert!(Fragment::parse_one("").is_err());
    }

    #[test]
    fn escaping_in_fragment_serialization() {
        let f = Fragment::elem("m").with_attr("q", "a\"b").with_text("1 < 2 & 3");
        assert_eq!(f.to_xml(), r#"<m q="a&quot;b">1 &lt; 2 &amp; 3</m>"#);
        // And it re-parses to the same value.
        assert_eq!(Fragment::parse_one(&f.to_xml()).unwrap(), f);
    }

    #[test]
    fn insert_fragment_failure_leaks_nothing() {
        let mut doc = parse("<r><a/></r>").unwrap();
        let before = doc.node_count();
        let root = doc.root();
        let frag = Fragment::elem("big").with_child(Fragment::elem("inner"));
        let err = doc.insert_fragment(root, 99, &frag).unwrap_err();
        assert!(matches!(err, TreeError::PositionOutOfBounds { .. }));
        assert_eq!(doc.node_count(), before, "orphan allocation must be rolled back");
        doc.check_consistency().unwrap();
    }

    #[test]
    fn display_matches_to_xml_and_reparses() {
        let f = Fragment::elem("a").with_attr("x", "1").with_child(Fragment::cdata("raw<"));
        assert_eq!(format!("{f}"), f.to_xml());
        assert_eq!(Fragment::parse_one(&f.to_xml()).unwrap(), f);
    }
}
