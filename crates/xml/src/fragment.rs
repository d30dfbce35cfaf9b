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
//! A subtree is one immutable *table* behind an `Arc`: its nodes in
//! document (pre-)order, the attributes of all its elements, and one
//! buffer holding every text, attribute value, comment and PI string. An
//! element records where its subtree ends, so its children are found by
//! hopping from one subtree end to the next. A `Fragment` is a table and
//! the index of a root in it — a child is a view into its parent's table —
//! so cloning one is a reference-count bump whatever its size, capturing
//! one from a document costs a fixed number of allocations, and dropping
//! the last holder frees three blocks and the names' reference counts.
//!
//! The builders ([`Fragment::with_child`] and friends) write into the
//! table in place while the fragment is its only holder and starts at the
//! table's first node; otherwise they copy the viewed subtree out first.
//!
//! The JSON form is the externally tagged tree this type had as a
//! recursive enum — `{"Element":{"name":…,"attrs":[…],"children":[…]}}`,
//! `{"Text":"…"}`, `{"Cdata":"…"}`, `{"Comment":"…"}`,
//! `{"Pi":{"target":"…","data":"…"}}` — written from and read into the
//! table directly (DESIGN.md §18, "Bounded nesting").

use crate::error::TreeError;
use crate::name::QName;
use crate::serialize::{push_attr, push_text};
use crate::tree::{Document, NodeId, NodeKind, Release};
use serde::value::field;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// An owned XML subtree; cheap to clone (see the module documentation).
#[derive(Clone)]
pub struct Fragment {
    table: Arc<Table>,
    /// Index of this fragment's root in `table.nodes`.
    root: u32,
}

/// What the root of a [`Fragment`] is, with the strings it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind<'a> {
    /// An element; see [`Fragment::attrs`] and [`Fragment::children`].
    Element {
        /// Element name.
        name: &'a QName,
    },
    /// A text node.
    Text(&'a str),
    /// A CDATA section.
    Cdata(&'a str),
    /// A comment.
    Comment(&'a str),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data.
        data: &'a str,
    },
}

/// A half-open range of one of a table's three vectors.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Tables index themselves with `u32`, as the arena does its slots.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a fragment holds fewer than 2^32 nodes, attributes and bytes of text")
}

#[derive(Debug)]
enum Node {
    Element {
        name: QName,
        /// This element's attributes in `Table::attrs`.
        attrs: Span,
        /// One past the last node of this element's subtree.
        end: u32,
    },
    Text(Span),
    Cdata(Span),
    Comment(Span),
    Pi {
        target: Span,
        data: Span,
    },
}

#[derive(Debug)]
struct Attr {
    name: QName,
    value: Span,
}

/// How much of each vector a subtree takes.
#[derive(Debug, Default, Clone, Copy)]
struct Size {
    nodes: usize,
    attrs: usize,
    text: usize,
}

/// Nodes in pre-order: a node's subtree is the run of nodes from it to its
/// `end`, and `nodes[0]` is the root of everything in the table. `attrs`
/// holds each element's attributes as one run, the runs in node order;
/// spans into `text` may lie in any order.
#[derive(Debug, Default)]
struct Table {
    nodes: Vec<Node>,
    attrs: Vec<Attr>,
    text: String,
}

impl Table {
    fn with_capacity(size: Size) -> Table {
        Table {
            nodes: Vec::with_capacity(size.nodes),
            attrs: Vec::with_capacity(size.attrs),
            text: String::with_capacity(size.text),
        }
    }

    fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    fn push_str(&mut self, s: &str) -> Span {
        let start = index(self.text.len());
        self.text.push_str(s);
        Span { start, end: index(self.text.len()) }
    }

    /// One past the last node of the subtree at `at`.
    fn subtree_end(&self, at: usize) -> usize {
        match &self.nodes[at] {
            Node::Element { end, .. } => *end as usize,
            _ => at + 1,
        }
    }

    /// Appends an element and its attributes; its children are whatever is
    /// appended until [`Self::close`] is called with the returned index.
    fn open<S: AsRef<str>>(&mut self, name: QName, attrs: impl IntoIterator<Item = (QName, S)>) -> usize {
        let start = index(self.attrs.len());
        for (name, value) in attrs {
            let value = self.push_str(value.as_ref());
            self.attrs.push(Attr { name, value });
        }
        let at = self.nodes.len();
        let attrs = Span { start, end: index(self.attrs.len()) };
        self.nodes.push(Node::Element { name, attrs, end: index(at + 1) });
        at
    }

    fn close(&mut self, at: usize) {
        let len = index(self.nodes.len());
        match &mut self.nodes[at] {
            Node::Element { end, .. } => *end = len,
            _ => unreachable!("only elements are opened"),
        }
    }

    /// Appends a text, CDATA or comment node (`kind` is the variant).
    fn leaf(&mut self, kind: fn(Span) -> Node, s: &str) {
        let span = self.push_str(s);
        self.nodes.push(kind(span));
    }

    fn pi(&mut self, target: &str, data: &str) {
        let (target, data) = (self.push_str(target), self.push_str(data));
        self.nodes.push(Node::Pi { target, data });
    }

    /// Adds what the subtree at `node` takes to `size`.
    fn measure(doc: &Document, node: NodeId, size: &mut Size) -> Result<(), TreeError> {
        size.nodes += 1;
        let (kind, children) = doc.parts(node)?;
        match kind {
            NodeKind::Element { attrs, .. } => {
                size.attrs += attrs.len();
                size.text += attrs.iter().map(|(_, v)| v.len()).sum::<usize>();
                for &child in children {
                    Table::measure(doc, child, size)?;
                }
            }
            NodeKind::Text(t) | NodeKind::Cdata(t) | NodeKind::Comment(t) => size.text += t.len(),
            NodeKind::Pi { target, data } => size.text += target.len() + data.len(),
        }
        Ok(())
    }

    /// Appends a copy of the subtree at `node`.
    fn capture(&mut self, doc: &Document, node: NodeId) -> Result<(), TreeError> {
        let (kind, children) = doc.parts(node)?;
        match kind {
            NodeKind::Element { name, attrs } => {
                let at = self.open(name.clone(), attrs.iter().map(|(n, v)| (n.clone(), v)));
                for &child in children {
                    self.capture(doc, child)?;
                }
                self.close(at);
            }
            NodeKind::Text(t) => self.leaf(Node::Text, t),
            NodeKind::Cdata(t) => self.leaf(Node::Cdata, t),
            NodeKind::Comment(t) => self.leaf(Node::Comment, t),
            NodeKind::Pi { target, data } => self.pi(target, data),
        }
        Ok(())
    }

    /// Appends the subtree at `node`, emptying its slots as it goes: names
    /// move over, strings are copied into the buffer and dropped.
    fn capture_releasing(&mut self, from: &mut Release<'_>, node: NodeId) {
        let (kind, children) = from.take(node);
        match kind {
            NodeKind::Element { name, attrs } => {
                let at = self.open(name, attrs);
                for child in children {
                    self.capture_releasing(from, child);
                }
                self.close(at);
            }
            NodeKind::Text(t) => self.leaf(Node::Text, &t),
            NodeKind::Cdata(t) => self.leaf(Node::Cdata, &t),
            NodeKind::Comment(t) => self.leaf(Node::Comment, &t),
            NodeKind::Pi { target, data } => self.pi(&target, &data),
        }
        from.retire(node);
    }

    /// Appends a copy of the subtree of `src` rooted at `root`, moving
    /// every index it holds to where its target now lies.
    fn append_subtree(&mut self, src: &Table, root: usize) {
        let end = src.subtree_end(root);
        self.nodes.reserve(end - root);
        for (at, node) in src.nodes[root..end].iter().enumerate() {
            match node {
                Node::Element { name, attrs, end } => {
                    let attrs = src.attrs[attrs.range()].iter().map(|a| (a.name.clone(), src.str(a.value)));
                    let opened = self.open(name.clone(), attrs);
                    let len = *end as usize - (root + at);
                    if let Node::Element { end, .. } = &mut self.nodes[opened] {
                        *end = index(opened + len);
                    }
                }
                Node::Text(s) => self.leaf(Node::Text, src.str(*s)),
                Node::Cdata(s) => self.leaf(Node::Cdata, src.str(*s)),
                Node::Comment(s) => self.leaf(Node::Comment, src.str(*s)),
                Node::Pi { target, data } => self.pi(src.str(*target), src.str(*data)),
            }
        }
    }

    /// Creates the subtree at `at` as detached nodes of `doc`, parent
    /// before children; returns its root and the index after the subtree.
    fn instantiate(&self, at: usize, doc: &mut Document) -> (NodeId, usize) {
        let id = match &self.nodes[at] {
            Node::Element { name, attrs, end } => {
                let attrs = self.attrs[attrs.range()].iter().map(|a| (a.name.clone(), self.str(a.value).to_string()));
                let id = doc.create_element_with_attrs(name.clone(), attrs);
                let end = *end as usize;
                let mut children = Vec::with_capacity(self.child_count(at));
                let mut next = at + 1;
                while next < end {
                    let (child, after) = self.instantiate(next, doc);
                    children.push(child);
                    next = after;
                }
                doc.adopt(id, children);
                return (id, end);
            }
            Node::Text(s) => doc.create_text(self.str(*s)),
            Node::Cdata(s) => doc.create_cdata(self.str(*s)),
            Node::Comment(s) => doc.create_comment(self.str(*s)),
            Node::Pi { target, data } => doc.create_pi(self.str(*target), self.str(*data)),
        };
        (id, at + 1)
    }

    fn child_count(&self, at: usize) -> usize {
        let end = self.subtree_end(at);
        let (mut next, mut count) = (at + 1, 0);
        while next < end {
            next = self.subtree_end(next);
            count += 1;
        }
        count
    }

    /// Appends the subtree at `at` as compact XML; returns the index
    /// after it.
    fn write_xml(&self, at: usize, out: &mut String) -> usize {
        match &self.nodes[at] {
            Node::Element { name, attrs, end } => {
                out.push('<');
                name.push_to(out);
                for attr in &self.attrs[attrs.range()] {
                    out.push(' ');
                    attr.name.push_to(out);
                    out.push_str("=\"");
                    push_attr(out, self.str(attr.value));
                    out.push('"');
                }
                let end = *end as usize;
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
            Node::Text(s) => push_text(out, self.str(*s)),
            Node::Cdata(s) => {
                out.push_str("<![CDATA[");
                out.push_str(self.str(*s));
                out.push_str("]]>");
            }
            Node::Comment(s) => {
                out.push_str("<!--");
                out.push_str(self.str(*s));
                out.push_str("-->");
            }
            Node::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(self.str(*target));
                if data.start != data.end {
                    out.push(' ');
                    out.push_str(self.str(*data));
                }
                out.push_str("?>");
            }
        }
        at + 1
    }

    /// Appends the subtree at `at` as JSON; returns the index after it.
    fn write_json(&self, at: usize, out: &mut String) -> usize {
        let tagged = |tag: &str, s: Span, close: &str, out: &mut String| {
            out.push_str(tag);
            serde::json::write_str(self.str(s), out);
            out.push_str(close);
        };
        match &self.nodes[at] {
            Node::Element { name, attrs, end } => {
                out.push_str("{\"Element\":{\"name\":");
                name.write_json(out);
                out.push_str(",\"attrs\":[");
                for (k, attr) in self.attrs[attrs.range()].iter().enumerate() {
                    out.push_str(if k == 0 { "[" } else { ",[" });
                    attr.name.write_json(out);
                    out.push(',');
                    serde::json::write_str(self.str(attr.value), out);
                    out.push(']');
                }
                out.push_str("],\"children\":[");
                let end = *end as usize;
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
            Node::Text(s) => tagged("{\"Text\":", *s, "}", out),
            Node::Cdata(s) => tagged("{\"Cdata\":", *s, "}", out),
            Node::Comment(s) => tagged("{\"Comment\":", *s, "}", out),
            Node::Pi { target, data } => {
                tagged("{\"Pi\":{\"target\":", *target, "", out);
                tagged(",\"data\":", *data, "}}", out);
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
                let at = self.open(name, attrs);
                for child in children {
                    self.decode(child)?;
                }
                self.close(at);
            }
            "Text" => self.leaf(Node::Text, string(inner)?),
            "Cdata" => self.leaf(Node::Cdata, string(inner)?),
            "Comment" => self.leaf(Node::Comment, string(inner)?),
            "Pi" => {
                let fields = inner.as_map().ok_or_else(|| DeError::expected("map for Fragment::Pi", inner))?;
                self.pi(string(field(fields, "target"))?, string(field(fields, "data"))?);
            }
            other => return Err(DeError::new(format!("unknown Fragment variant {other:?}"))),
        }
        Ok(())
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
            t.open(name.into(), std::iter::empty::<(QName, &str)>());
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
        let root = Node::Element { name: name.into(), attrs: Span { start: 0, end: 0 }, end: 2 };
        Fragment::whole(Table { nodes: vec![root, Node::Text(span)], attrs: Vec::new(), text })
    }

    /// Builds a text node fragment.
    pub fn text(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Node::Text, text.as_ref()))
    }

    /// Builds a CDATA section fragment.
    pub fn cdata(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Node::Cdata, text.as_ref()))
    }

    /// Builds a comment fragment.
    pub fn comment(text: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.leaf(Node::Comment, text.as_ref()))
    }

    /// Builds a processing-instruction fragment.
    pub fn pi(target: impl AsRef<str>, data: impl AsRef<str>) -> Fragment {
        Fragment::built(|t| t.pi(target.as_ref(), data.as_ref()))
    }

    /// The table behind an element fragment, writable in place: this
    /// fragment is made its only holder, starting at its first node, by
    /// copying the viewed subtree out if it is not. `None` for other kinds.
    fn element_table_mut(&mut self) -> Option<&mut Table> {
        if !matches!(self.node(), Node::Element { .. }) {
            return None;
        }
        if self.root != 0 || Arc::get_mut(&mut self.table).is_none() {
            let mut table = Table::default();
            table.append_subtree(&self.table, self.root as usize);
            *self = Fragment::whole(table);
        }
        Arc::get_mut(&mut self.table)
    }

    /// Builder: adds an attribute (elements only; no-op otherwise).
    pub fn with_attr(mut self, name: impl Into<QName>, value: impl AsRef<str>) -> Fragment {
        if let Some(table) = self.element_table_mut() {
            let value = table.push_str(value.as_ref());
            let Node::Element { attrs: Span { end: at, .. }, .. } = table.nodes[0] else { unreachable!("an element") };
            // The root's attributes stay one run: those of the elements
            // below it, if any, move up by one.
            table.attrs.insert(at as usize, Attr { name: name.into(), value });
            for (k, node) in table.nodes.iter_mut().enumerate() {
                if let Node::Element { attrs, .. } = node {
                    attrs.start += u32::from(k > 0);
                    attrs.end += 1;
                }
            }
        }
        self
    }

    /// Builder: appends a child (elements only; no-op otherwise).
    pub fn with_child(mut self, child: Fragment) -> Fragment {
        if let Some(table) = self.element_table_mut() {
            table.append_subtree(&child.table, child.root as usize);
            table.close(0);
        }
        self
    }

    /// Builder: appends a text child (elements only).
    pub fn with_text(mut self, text: impl AsRef<str>) -> Fragment {
        if let Some(table) = self.element_table_mut() {
            table.leaf(Node::Text, text.as_ref());
            table.close(0);
        }
        self
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

    /// Captures the subtree rooted at `node` as a fragment (non-destructive).
    ///
    /// One walk sizes the table and a second fills it, so the capture makes
    /// the same few allocations whatever the subtree's size.
    pub fn from_node(doc: &Document, node: NodeId) -> Result<Fragment, TreeError> {
        let mut size = Size::default();
        Table::measure(doc, node, &mut size)?;
        let mut table = Table::with_capacity(size);
        table.capture(doc, node)?;
        Ok(Fragment::whole(table))
    }

    /// Materializes this fragment as a fresh **detached** node in `doc`.
    ///
    /// Returns the new subtree's root id; attach it with the `Document`
    /// editing API.
    pub fn instantiate(&self, doc: &mut Document) -> NodeId {
        self.table.instantiate(self.root as usize, doc).0
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
        let t = &*self.table;
        match self.node() {
            Node::Element { name, .. } => FragmentKind::Element { name },
            Node::Text(s) => FragmentKind::Text(t.str(*s)),
            Node::Cdata(s) => FragmentKind::Cdata(t.str(*s)),
            Node::Comment(s) => FragmentKind::Comment(t.str(*s)),
            Node::Pi { target, data } => FragmentKind::Pi { target: t.str(*target), data: t.str(*data) },
        }
    }

    /// Element name, if this is an element.
    pub fn name(&self) -> Option<&QName> {
        match self.node() {
            Node::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attributes in document order (none unless this is an element).
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = (&QName, &str)> {
        let attrs = match self.node() {
            Node::Element { attrs, .. } => &self.table.attrs[attrs.range()],
            _ => &[],
        };
        attrs.iter().map(|a| (&a.name, self.table.str(a.value)))
    }

    /// Attribute lookup, if this is an element.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs().find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v)
    }

    /// Children in document order (none unless this is an element), each a
    /// view into this fragment's table.
    pub fn children(&self) -> Children<'_> {
        Children { table: &self.table, next: self.root as usize + 1, end: self.end() }
    }

    /// Concatenated descendant text (like XPath `string()`).
    pub fn text_content(&self) -> String {
        let t = &*self.table;
        let mut out = String::new();
        for node in &t.nodes[self.root as usize..self.end()] {
            if let Node::Text(s) | Node::Cdata(s) = node {
                out.push_str(t.str(*s));
            }
        }
        out
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
    end: usize,
}

impl Iterator for Children<'_> {
    type Item = Fragment;

    fn next(&mut self) -> Option<Fragment> {
        if self.next >= self.end {
            return None;
        }
        let child = Fragment { table: Arc::clone(self.table), root: index(self.next) };
        self.next = child.end();
        Some(child)
    }
}

/// Structural: two fragments are equal when they hold the same tree,
/// whichever tables hold them and wherever in those they start.
impl PartialEq for Fragment {
    fn eq(&self, other: &Fragment) -> bool {
        let (a, b) = (&*self.table, &*other.table);
        let (ra, rb) = (self.root as usize, other.root as usize);
        if Arc::ptr_eq(&self.table, &other.table) && ra == rb {
            return true;
        }
        let len = self.node_count();
        len == other.node_count()
            && a.nodes[ra..ra + len].iter().zip(&b.nodes[rb..rb + len]).all(|pair| match pair {
                (Node::Element { name: na, attrs: aa, end: ea }, Node::Element { name: nb, attrs: ab, end: eb }) => {
                    let (aa, ab) = (&a.attrs[aa.range()], &b.attrs[ab.range()]);
                    na == nb
                        && *ea as usize - ra == *eb as usize - rb
                        && aa.len() == ab.len()
                        && aa.iter().zip(ab).all(|(x, y)| x.name == y.name && a.str(x.value) == b.str(y.value))
                }
                (Node::Text(x), Node::Text(y))
                | (Node::Cdata(x), Node::Cdata(y))
                | (Node::Comment(x), Node::Comment(y)) => a.str(*x) == b.str(*y),
                (Node::Pi { target: tx, data: dx }, Node::Pi { target: ty, data: dy }) => {
                    a.str(*tx) == b.str(*ty) && a.str(*dx) == b.str(*dy)
                }
                _ => false,
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
    /// Captures the subtree at `node` as a fragment without modifying
    /// the document.
    pub fn extract_fragment(&self, node: NodeId) -> Result<Fragment, TreeError> {
        Fragment::from_node(self, node)
    }

    /// Removes the subtree at `node`, returning `(fragment, parent,
    /// position)` — everything a compensating insert needs.
    ///
    /// After a walk that only sizes the table, one walk both captures the
    /// subtree and frees its slots.
    pub fn remove_to_fragment(&mut self, node: NodeId) -> Result<(Fragment, NodeId, usize), TreeError> {
        let mut size = Size::default();
        Table::measure(self, node, &mut size)?;
        let (parent, pos) = self.detach(node)?;
        let mut table = Table::with_capacity(size);
        table.capture_releasing(&mut self.release(size.nodes), node);
        Ok((Fragment::whole(table), parent, pos))
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
