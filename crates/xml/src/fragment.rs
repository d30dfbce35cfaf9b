//! Owned, detached XML subtrees.
//!
//! A [`Fragment`] is the value form of a subtree: it is what transaction
//! logs store (the data a compensating insert must restore), what service
//! invocations return across peers, and what update operations carry in
//! their `<data>` part. Unlike [`crate::NodeId`]s, fragments are
//! self-contained and serializable.

use crate::error::TreeError;
use crate::name::QName;
use crate::serialize::{push_attr, push_text};
use crate::tree::{Document, NodeId, NodeKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned XML subtree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fragment {
    /// An element with attributes and children.
    Element {
        /// Element name.
        name: QName,
        /// Attributes in document order.
        attrs: Vec<(QName, String)>,
        /// Child fragments in document order.
        children: Vec<Fragment>,
    },
    /// A text node.
    Text(String),
    /// A CDATA section.
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

impl Fragment {
    /// Builds an empty element fragment.
    pub fn elem(name: impl Into<QName>) -> Fragment {
        Fragment::Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builds an element fragment containing a single text child.
    ///
    /// ```
    /// use axml_xml::Fragment;
    /// let f = Fragment::elem_text("citizenship", "Swiss");
    /// assert_eq!(f.to_xml(), "<citizenship>Swiss</citizenship>");
    /// ```
    pub fn elem_text(name: impl Into<QName>, text: impl Into<String>) -> Fragment {
        Fragment::Element { name: name.into(), attrs: Vec::new(), children: vec![Fragment::Text(text.into())] }
    }

    /// Builder: adds an attribute (elements only; no-op otherwise).
    pub fn with_attr(mut self, name: impl Into<QName>, value: impl Into<String>) -> Fragment {
        if let Fragment::Element { attrs, .. } = &mut self {
            attrs.push((name.into(), value.into()));
        }
        self
    }

    /// Builder: appends a child (elements only; no-op otherwise).
    pub fn with_child(mut self, child: Fragment) -> Fragment {
        if let Fragment::Element { children, .. } = &mut self {
            children.push(child);
        }
        self
    }

    /// Builder: appends a text child (elements only).
    pub fn with_text(self, text: impl Into<String>) -> Fragment {
        self.with_child(Fragment::Text(text.into()))
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
    pub fn from_node(doc: &Document, node: NodeId) -> Result<Fragment, TreeError> {
        match doc.kind(node)? {
            NodeKind::Element { name, attrs } => {
                let mut children = Vec::new();
                for &child in doc.children(node)? {
                    children.push(Fragment::from_node(doc, child)?);
                }
                Ok(Fragment::Element { name: name.clone(), attrs: attrs.clone(), children })
            }
            NodeKind::Text(t) => Ok(Fragment::Text(t.clone())),
            NodeKind::Cdata(t) => Ok(Fragment::Cdata(t.clone())),
            NodeKind::Comment(t) => Ok(Fragment::Comment(t.clone())),
            NodeKind::Pi { target, data } => Ok(Fragment::Pi { target: target.clone(), data: data.clone() }),
        }
    }

    /// Materializes this fragment as a fresh **detached** node in `doc`.
    ///
    /// Returns the new subtree's root id; attach it with the `Document`
    /// editing API.
    pub fn instantiate(&self, doc: &mut Document) -> NodeId {
        match self {
            Fragment::Element { name, attrs, children } => {
                let id = doc.create_element_with_attrs(name.clone(), attrs.iter().cloned());
                for child in children {
                    let cid = child.instantiate(doc);
                    doc.append_child(id, cid).expect("freshly created element accepts children");
                }
                id
            }
            Fragment::Text(t) => doc.create_text(t.clone()),
            Fragment::Cdata(t) => doc.create_cdata(t.clone()),
            Fragment::Comment(t) => doc.create_comment(t.clone()),
            Fragment::Pi { target, data } => doc.create_pi(target.clone(), data.clone()),
        }
    }

    /// Element name, if this is an element.
    pub fn name(&self) -> Option<&QName> {
        match self {
            Fragment::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute lookup, if this is an element.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            Fragment::Element { attrs, .. } => attrs.iter().find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Children, if this is an element (empty slice otherwise).
    pub fn children(&self) -> &[Fragment] {
        match self {
            Fragment::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Concatenated descendant text (like XPath `string()`).
    pub fn text_content(&self) -> String {
        match self {
            Fragment::Text(t) | Fragment::Cdata(t) => t.clone(),
            Fragment::Element { children, .. } => children.iter().map(Fragment::text_content).collect(),
            _ => String::new(),
        }
    }

    /// Total node count of this fragment.
    pub fn node_count(&self) -> usize {
        match self {
            Fragment::Element { children, .. } => 1 + children.iter().map(Fragment::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    /// Serializes this fragment to compact XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    fn write_xml(&self, out: &mut String) {
        match self {
            Fragment::Element { name, attrs, children } => {
                out.push('<');
                name.push_to(out);
                for (an, av) in attrs {
                    out.push(' ');
                    an.push_to(out);
                    out.push_str("=\"");
                    push_attr(out, av);
                    out.push('"');
                }
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in children {
                        c.write_xml(out);
                    }
                    out.push_str("</");
                    name.push_to(out);
                    out.push('>');
                }
            }
            Fragment::Text(t) => push_text(out, t),
            Fragment::Cdata(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            Fragment::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
            Fragment::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
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
    pub fn remove_to_fragment(&mut self, node: NodeId) -> Result<(Fragment, NodeId, usize), TreeError> {
        let fragment = Fragment::from_node(self, node)?;
        let (parent, pos) = self.detach(node)?;
        self.delete(node)?;
        Ok((fragment, parent, pos))
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
    fn builders() {
        let f = Fragment::elem("player")
            .with_attr("rank", "1")
            .with_child(Fragment::elem_text("firstname", "Roger"))
            .with_text("!");
        assert_eq!(f.to_xml(), r#"<player rank="1"><firstname>Roger</firstname>!</player>"#);
        assert_eq!(f.attr("rank"), Some("1"));
        assert_eq!(f.children().len(), 2);
        assert_eq!(f.text_content(), "Roger!");
        assert_eq!(f.node_count(), 4);
    }

    #[test]
    fn builders_noop_on_non_elements() {
        let t = Fragment::Text("x".into()).with_attr("a", "1").with_child(Fragment::elem("y"));
        assert_eq!(t, Fragment::Text("x".into()));
        assert_eq!(t.children(), &[] as &[Fragment]);
        assert_eq!(t.attr("a"), None);
        assert_eq!(t.name(), None);
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
        let f = Fragment::elem("a").with_attr("x", "1").with_child(Fragment::Cdata("raw<".into()));
        assert_eq!(format!("{f}"), f.to_xml());
        assert_eq!(Fragment::parse_one(&f.to_xml()).unwrap(), f);
    }
}
