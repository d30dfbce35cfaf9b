//! The node record, stored alike by a document's arena and a fragment's
//! table.
//!
//! A [`Node`] says what a node is and where its strings lie: names inline
//! (interned, so plain pointers), everything else as [`Span`]s of the one
//! attribute run and the one text buffer its owner keeps — a [`Strings`].
//! The record owns nothing and has no `Drop` glue, so a subtree crosses
//! from an arena to a table or back as a run of records plus a run of
//! bytes ([`Strings::copy_in`]), and dropping either side frees a fixed
//! number of blocks whatever it held.

use crate::name::QName;
use std::ops::Range;

/// "No node": the link value of a missing parent, sibling or child.
pub(crate) const NONE: u32 = u32::MAX;

/// Arenas and tables index themselves with `u32`.
pub(crate) fn index(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 nodes, attributes and bytes of text")
}

/// A half-open range of an attribute run or a text buffer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// The kinds of node that hold text and no children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leaf {
    Text,
    Cdata,
    Comment,
    Pi,
}

/// One node. 48 bytes: the leaf variant lies around the name's pointers.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Element {
        name: QName,
        /// This element's attributes in its owner's attribute run.
        attrs: Span,
        /// Where its children are. In an arena: the slot of the first
        /// child, or [`NONE`]. In a table, whose nodes stand in pre-order:
        /// one past the last node of this element's subtree.
        below: u32,
        /// How many children it has.
        children: u32,
    },
    Leaf {
        kind: Leaf,
        /// The text — of a processing instruction, its target.
        text: Span,
        /// A processing instruction's data; empty for the other kinds.
        data: Span,
    },
}

/// One attribute of an attribute run.
#[derive(Debug, Clone)]
pub(crate) struct Attr {
    pub(crate) name: QName,
    pub(crate) value: Span,
}

/// What a node is, with the strings it holds, borrowed from its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element; its attributes and children are reached through its
    /// owner ([`crate::Document::attrs`], [`crate::Fragment::attrs`], …).
    Element {
        /// Element name.
        name: &'a QName,
    },
    /// A text node.
    Text(&'a str),
    /// A CDATA section (serialized as `<![CDATA[..]]>`, compared as text).
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

impl NodeKind<'_> {
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

/// How much of each of its owner's three vectors a subtree takes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Size {
    pub(crate) nodes: usize,
    pub(crate) attrs: usize,
    pub(crate) text: usize,
}

/// The attribute run and the text buffer the [`Node`]s of one arena or
/// one table point into. An element's attributes are one contiguous run;
/// spans of the text may lie in any order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Strings {
    pub(crate) attrs: Vec<Attr>,
    pub(crate) text: String,
}

impl Strings {
    pub(crate) fn with_capacity(attrs: usize, text: usize) -> Strings {
        Strings { attrs: Vec::with_capacity(attrs), text: String::with_capacity(text) }
    }

    pub(crate) fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    pub(crate) fn push_str(&mut self, s: &str) -> Span {
        let start = index(self.text.len());
        self.text.push_str(s);
        Span { start, end: index(self.text.len()) }
    }

    /// Appends one run of attributes.
    pub(crate) fn push_attrs<S: AsRef<str>>(&mut self, attrs: impl IntoIterator<Item = (QName, S)>) -> Span {
        let start = index(self.attrs.len());
        for (name, value) in attrs {
            let value = self.push_str(value.as_ref());
            self.attrs.push(Attr { name, value });
        }
        Span { start, end: index(self.attrs.len()) }
    }

    /// The attributes of one run, in order.
    pub(crate) fn attrs(&self, run: Span) -> Attrs<'_> {
        Attrs { strings: self, run: self.attrs[run.range()].iter() }
    }

    pub(crate) fn kind<'a>(&'a self, node: &'a Node) -> NodeKind<'a> {
        match node {
            Node::Element { name, .. } => NodeKind::Element { name },
            Node::Leaf { kind: Leaf::Text, text, .. } => NodeKind::Text(self.str(*text)),
            Node::Leaf { kind: Leaf::Cdata, text, .. } => NodeKind::Cdata(self.str(*text)),
            Node::Leaf { kind: Leaf::Comment, text, .. } => NodeKind::Comment(self.str(*text)),
            Node::Leaf { kind: Leaf::Pi, text, data } => {
                NodeKind::Pi { target: self.str(*text), data: self.str(*data) }
            }
        }
    }

    /// Adds what `node` itself takes — one record, its attributes, the
    /// bytes of its strings — to `size`.
    pub(crate) fn measure(&self, node: &Node, size: &mut Size) {
        size.nodes += 1;
        match node {
            Node::Element { attrs, .. } => {
                size.attrs += attrs.len();
                size.text += self.attrs[attrs.range()].iter().map(|a| a.value.len()).sum::<usize>();
            }
            Node::Leaf { text, data, .. } => size.text += text.len() + data.len(),
        }
    }

    /// Appends copies of the strings `node` holds in `from`; returns
    /// `node` pointing at the copies, its links as they were.
    pub(crate) fn copy_in(&mut self, from: &Strings, node: &Node) -> Node {
        match node {
            Node::Element { name, attrs, below, children } => {
                let run = &from.attrs[attrs.range()];
                let attrs = self.push_attrs(run.iter().map(|a| (a.name.clone(), from.str(a.value))));
                Node::Element { name: name.clone(), attrs, below: *below, children: *children }
            }
            Node::Leaf { kind, text, data } => {
                Node::Leaf { kind: *kind, text: self.push_str(from.str(*text)), data: self.push_str(from.str(*data)) }
            }
        }
    }
}

/// The attributes of one element, in document order.
#[derive(Debug, Clone)]
pub struct Attrs<'a> {
    strings: &'a Strings,
    run: std::slice::Iter<'a, Attr>,
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a QName, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let attr = self.run.next()?;
        Some((&attr.name, self.strings.str(attr.value)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.run.size_hint()
    }
}

impl ExactSizeIterator for Attrs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_48_bytes_and_owns_nothing() {
        assert!(std::mem::size_of::<Node>() <= 48);
        assert!(!std::mem::needs_drop::<Node>());
        assert!(!std::mem::needs_drop::<Attr>());
    }
}
