//! Transparent query evaluation over AXML documents.
//!
//! Embedded `axml:sc` elements are **wrappers**: their previous invocation
//! results are logically part of the surrounding content. The paper's
//! query A (`Select p/citizenship, p/grandslamswon from p in
//! ATPList//player …`) selects `grandslamswon` nodes even though they
//! physically live *inside* the `axml:sc` element. A [`TransparentView`]
//! realizes that semantics in place: it is the document's own tree,
//! navigated with every `axml:sc` element elided on the fly —
//!
//! - a wrapper's result children stand where the wrapper stands, in
//!   order (nested wrappers elide recursively);
//! - a wrapper's control children (`axml:params`, fault handlers) and
//!   everything below them are invisible, as are comments and PIs;
//! - `..` from a result child skips the wrappers above it;
//! - the root element is never elided, so a view always has a root.
//!
//! Nothing is copied: the nodes a query selects are the document's own
//! [`NodeId`]s, in the document's own order.

use crate::consts;
use crate::sc::under_control_child;
use axml_query::{QueryTree, SelectQuery};
use axml_xml::{Climb, Document, NodeId, NodeKind, QName};

fn is_wrapper(name: &QName) -> bool {
    consts::is_sc(name.prefix.as_deref(), &name.local)
}

fn is_control(name: &QName) -> bool {
    consts::is_control_child(name.prefix.as_deref(), &name.local)
}

/// A document seen through its `axml:sc` wrappers.
#[derive(Debug, Clone, Copy)]
pub struct TransparentView<'a> {
    doc: &'a Document,
}

impl<'a> TransparentView<'a> {
    /// The view of `doc`.
    pub fn new(doc: &'a Document) -> TransparentView<'a> {
        TransparentView { doc }
    }

    /// Evaluates a select query through the wrappers of `doc`.
    pub fn eval(doc: &Document, query: &SelectQuery) -> Result<Vec<NodeId>, axml_query::QueryError> {
        query.eval(&TransparentView::new(doc))
    }

    fn walk(&self, node: NodeId, deep: bool) -> Visible<'a> {
        Visible { doc: self.doc, deep, own: self.doc.children(node).unwrap_or_default(), stack: Vec::new() }
    }
}

/// The visible children (`deep == false`) or proper descendants of one
/// node, in document order.
struct Visible<'a> {
    doc: &'a Document,
    deep: bool,
    /// The start node's own child list, read in place: a children walk
    /// that meets no wrapper allocates nothing.
    own: axml_xml::tree::Children<'a>,
    /// Nodes found below the last one taken from `own` (hoisted out of a
    /// wrapper, or descended into), next one last.
    stack: Vec<NodeId>,
}

impl Iterator for Visible<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let doc = self.doc;
        let below = |node| doc.children(node).unwrap_or_default().rev();
        loop {
            let node = match self.stack.pop() {
                Some(node) => node,
                None => self.own.next()?,
            };
            match doc.kind(node) {
                Ok(NodeKind::Element { name, .. }) if is_wrapper(name) => {
                    // Its results stand where the wrapper stood.
                    self.stack.extend(below(node).filter(|c| !doc.name(*c).is_ok_and(is_control)));
                }
                Ok(NodeKind::Element { .. }) => {
                    if self.deep {
                        self.stack.extend(below(node));
                    }
                    return Some(node);
                }
                Ok(NodeKind::Text(_) | NodeKind::Cdata(_)) => return Some(node),
                Ok(NodeKind::Comment(_) | NodeKind::Pi { .. }) | Err(_) => {}
            }
        }
    }
}

impl QueryTree for TransparentView<'_> {
    fn root(&self) -> NodeId {
        self.doc.root()
    }

    fn element_name(&self, node: NodeId) -> Option<&QName> {
        self.doc.name(node).ok()
    }

    fn attr_value(&self, node: NodeId, name: &str) -> Option<&str> {
        self.doc.attr(node, name)
    }

    fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        let mut parent = self.doc.parent(node).ok().flatten()?;
        while parent != self.doc.root() && self.doc.name(parent).is_ok_and(is_wrapper) {
            parent = self.doc.parent(parent).ok().flatten()?;
        }
        Some(parent)
    }

    fn children_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.walk(node, false)
    }

    fn descendants_of(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.walk(node, true)
    }

    fn string_value(&self, node: NodeId) -> Option<String> {
        let text_of = |n: NodeId| match self.doc.kind(n) {
            Ok(NodeKind::Text(t) | NodeKind::Cdata(t)) => t,
            _ => "",
        };
        self.doc.kind(node).ok()?;
        Some(std::iter::once(node).chain(self.walk(node, true)).map(text_of).collect())
    }

    // Eliding a wrapper puts its results where it stood, so visible nodes
    // keep the relative order they have in the document.
    fn document_order_key_into(&self, node: NodeId, key: &mut Vec<usize>, near: &mut Climb) -> bool {
        self.doc.document_order_key_into(node, key, near)
    }

    // Visibility read upward (DESIGN.md §18): the walk from `node` hoists
    // through every wrapper below it and refuses only their control
    // children, so an element attached below `node` is visible iff it is
    // no wrapper itself and sits under no such child.
    fn descendants_named(&self, node: NodeId, name: &QName) -> Option<Vec<NodeId>> {
        let found = self.doc.sparse_elements_named(name)?;
        if is_wrapper(name) {
            return Some(Vec::new());
        }
        let visible = found.iter().copied().filter(|n| *n != node && !under_control_child(self.doc, *n, Some(node)));
        Some(self.doc.attached_below(node, visible))
    }
}

/// Applies an update action with **transparent location**: `Select`/path
/// locators are evaluated through the AXML view (so they can target nodes
/// living inside `axml:sc` wrappers), then the action runs against the
/// pre-located structural addresses.
pub fn apply_update_transparent(
    doc: &mut axml_xml::Document,
    action: &axml_query::UpdateAction,
) -> Result<axml_query::UpdateReport, axml_query::QueryError> {
    use axml_query::{Locator, NodePath};
    let targets: Vec<NodeId> = match &action.location {
        Locator::Select(q) => TransparentView::eval(doc, q)?,
        Locator::Path(_) | Locator::Node(_) | Locator::Nodes(_) => action.location.locate(doc)?,
    };
    let paths: Vec<NodePath> = targets.iter().map(|t| NodePath::of(doc, *t)).collect::<Result<_, _>>()?;
    let located = axml_query::UpdateAction { location: Locator::Nodes(paths), ..action.clone() };
    located.apply(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Fragment;

    const ATP: &str = r#"<ATPList date="18042005">
        <player rank="1">
            <name><lastname>Federer</lastname></name>
            <citizenship>Swiss</citizenship>
            <axml:sc mode="replace" serviceNameSpace="getPoints" serviceURL="peer://ap2" methodName="getPoints">
                <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
                <points>475</points>
            </axml:sc>
            <axml:sc mode="merge" serviceNameSpace="g" serviceURL="peer://ap3" methodName="getGrandSlamsWonbyYear">
                <grandslamswon year="2003">A, W</grandslamswon>
                <grandslamswon year="2004">A, U</grandslamswon>
            </axml:sc>
        </player>
    </ATPList>"#;

    /// What the traversal sees below (and including) `node`, as XML.
    fn visible(view: &TransparentView<'_>, node: NodeId) -> Fragment {
        match view.doc.kind(node).expect("visited nodes are live") {
            NodeKind::Element { name } => {
                let attrs = view.doc.attrs(node).unwrap();
                let element = attrs.fold(Fragment::elem(name.clone()), |e, (n, v)| e.with_attr(n.clone(), v));
                view.children_of(node).fold(element, |e, c| e.with_child(visible(view, c)))
            }
            NodeKind::Text(t) => Fragment::text(t),
            NodeKind::Cdata(t) => Fragment::cdata(t),
            other => panic!("{} nodes are never visible", other.label()),
        }
    }

    fn visible_xml(doc: &Document) -> String {
        let view = TransparentView::new(doc);
        visible(&view, view.root()).to_xml()
    }

    #[test]
    fn view_elides_wrappers() {
        let doc = Document::parse(ATP).unwrap();
        let xml = visible_xml(&doc);
        assert!(!xml.contains("axml:sc"), "{xml}");
        assert!(!xml.contains("axml:params"), "{xml}");
        assert!(xml.contains("<points>475</points>"), "{xml}");
        assert!(xml.contains("grandslamswon"), "{xml}");
        assert!(!xml.contains("Roger Federer"), "params are hidden: {xml}");
    }

    #[test]
    fn paper_query_b_sees_points_through_wrapper() {
        let doc = Document::parse(ATP).unwrap();
        let q = SelectQuery::parse(
            "Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer;",
        )
        .unwrap();
        let hits = TransparentView::eval(&doc, &q).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(doc.text_content(hits[1]).unwrap(), "475");
        let parent = doc.parent(hits[1]).unwrap().unwrap();
        assert!(doc.name(parent).unwrap().is(Some("axml"), "sc"), "physically inside the wrapper");
    }

    #[test]
    fn where_clause_sees_through_wrappers() {
        let doc = Document::parse(ATP).unwrap();
        let q = SelectQuery::parse("Select p/citizenship from p in ATPList//player where p/points = 475").unwrap();
        let hits = TransparentView::eval(&doc, &q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_content(hits[0]).unwrap(), "Swiss");
    }

    #[test]
    fn nested_wrapper_elision() {
        let src = r#"<r>
            <axml:sc methodName="outer" serviceURL="u" serviceNameSpace="o">
                <axml:sc methodName="inner" serviceURL="u" serviceNameSpace="i">
                    <got>deep</got>
                </axml:sc>
            </axml:sc>
        </r>"#;
        let doc = Document::parse(src).unwrap();
        assert_eq!(visible_xml(&doc), "<r><got>deep</got></r>");
        let q = SelectQuery::parse("Select v/got from v in r").unwrap();
        let hits = TransparentView::eval(&doc, &q).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_content(hits[0]).unwrap(), "deep");
    }

    #[test]
    fn plain_documents_unchanged() {
        let doc = Document::parse(r#"<r a="1"><x>t</x><![CDATA[c]]></r>"#).unwrap();
        assert_eq!(visible_xml(&doc), doc.to_xml());
    }

    #[test]
    fn comments_dropped_from_view() {
        let doc = Document::parse("<r><!-- hey --><x/></r>").unwrap();
        assert_eq!(visible_xml(&doc), "<r><x/></r>");
    }

    #[test]
    fn upward_navigation_inverts_downward() {
        let doc = Document::parse(ATP).unwrap();
        let view = TransparentView::new(&doc);
        let all: Vec<NodeId> = view.descendants_of(view.root()).collect();
        assert_eq!(all.len(), 12, "six elements with their six texts; no wrapper, no parameter");
        for &node in std::iter::once(&view.root()).chain(&all) {
            for child in view.children_of(node) {
                assert!(all.contains(&child), "children are among the descendants");
                assert_eq!(view.parent_of(child), Some(node), "`..` skips the wrapper it was hoisted through");
            }
        }
        assert_eq!(view.parent_of(view.root()), None);
    }

    #[test]
    fn root_wrapper_is_not_elided() {
        // A service can return a bare call; hosted as a document, that
        // call is the root, and a view must still have one.
        let doc =
            Document::parse(r#"<axml:sc methodName="m"><axml:sc methodName="n"><x>1</x></axml:sc></axml:sc>"#).unwrap();
        let view = TransparentView::new(&doc);
        let hits = SelectQuery::parse("Select v/x/.. from v in axml:sc").unwrap().eval(&view).unwrap();
        assert_eq!(hits, vec![doc.root()], "x is hoisted to the root, and `..` stops there");
    }
}
