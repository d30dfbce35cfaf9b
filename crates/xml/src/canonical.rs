//! Document equivalence for compensation checking.
//!
//! The paper (§3.1) notes that compensation "moves the system to an
//! acceptable state (which maybe different from the initial state)" and
//! that plain delete-compensation "does not preserve the original ordering
//! of the deleted nodes". We therefore need two comparison modes:
//!
//! - [`equivalent_ordered`]: exact structural equality (sibling order
//!   matters) — the guarantee achieved when the insert operation supports
//!   "before/after a specific node" positioning.
//! - [`equivalent_unordered`]: equality up to sibling permutation — the
//!   weaker guarantee of naive append-compensation.
//!
//! Both normalize adjacent text, treat CDATA as text, ignore comments and
//! processing instructions, and compare attributes as unordered sets.

use crate::fragment::{Fragment, FragmentKind};
use crate::name::QName;
use crate::tree::{Document, NodeId};

/// Canonical form of a subtree used for comparisons.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Canon {
    Element { name: QName, attrs: Vec<(QName, String)>, children: Vec<Canon> },
    Text(String),
}

fn canon_fragment(f: &Fragment, sort_siblings: bool) -> Option<Canon> {
    match f.kind() {
        FragmentKind::Element { name } => {
            let mut attrs: Vec<(QName, String)> = f.attrs().map(|(n, v)| (n.clone(), v.to_string())).collect();
            attrs.sort();
            let kids = canon_children(f.children().filter_map(|c| canon_fragment(&c, sort_siblings)), sort_siblings);
            Some(Canon::Element { name: name.clone(), attrs, children: kids })
        }
        FragmentKind::Text(t) | FragmentKind::Cdata(t) => {
            let t = t.trim();
            if t.is_empty() {
                None
            } else {
                Some(Canon::Text(t.to_string()))
            }
        }
        FragmentKind::Comment(_) | FragmentKind::Pi { .. } => None,
    }
}

fn canon_children<I: Iterator<Item = Canon>>(iter: I, sort_siblings: bool) -> Vec<Canon> {
    // Merge adjacent text nodes.
    let mut out: Vec<Canon> = Vec::new();
    for c in iter {
        match (&mut out.last_mut(), c) {
            (Some(Canon::Text(prev)), Canon::Text(t)) => {
                prev.push_str(&t);
            }
            (_, c) => out.push(c),
        }
    }
    if sort_siblings {
        out.sort();
    }
    out
}

fn canon_node(doc: &Document, node: NodeId, sort_siblings: bool) -> Option<Canon> {
    let frag = Fragment::from_node(doc, node).ok()?;
    canon_fragment(&frag, sort_siblings)
}

/// True if the two documents are structurally identical (order-sensitive,
/// ignoring comments/PIs, with attributes compared as sets).
pub fn equivalent_ordered(a: &Document, b: &Document) -> bool {
    canon_node(a, a.root(), false) == canon_node(b, b.root(), false)
}

/// True if the two documents are identical up to recursive sibling
/// permutation.
pub fn equivalent_unordered(a: &Document, b: &Document) -> bool {
    canon_node(a, a.root(), true) == canon_node(b, b.root(), true)
}

/// Fragment-level ordered equivalence (same normalization rules).
pub fn fragments_equivalent_ordered(a: &Fragment, b: &Fragment) -> bool {
    canon_fragment(a, false) == canon_fragment(b, false)
}

/// Fragment-level unordered equivalence.
pub fn fragments_equivalent_unordered(a: &Fragment, b: &Fragment) -> bool {
    canon_fragment(a, true) == canon_fragment(b, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn d(s: &str) -> Document {
        parse(s).unwrap()
    }

    #[test]
    fn identical_docs_equivalent_both_ways() {
        let a = d("<r><a/><b>x</b></r>");
        let b = d("<r><a/><b>x</b></r>");
        assert!(equivalent_ordered(&a, &b));
        assert!(equivalent_unordered(&a, &b));
    }

    #[test]
    fn sibling_order_matters_only_for_ordered() {
        let a = d("<r><a/><b/></r>");
        let b = d("<r><b/><a/></r>");
        assert!(!equivalent_ordered(&a, &b));
        assert!(equivalent_unordered(&a, &b));
    }

    #[test]
    fn attribute_order_never_matters() {
        let a = d(r#"<r x="1" y="2"/>"#);
        let b = d(r#"<r y="2" x="1"/>"#);
        assert!(equivalent_ordered(&a, &b));
    }

    #[test]
    fn attribute_values_matter() {
        let a = d(r#"<r x="1"/>"#);
        let b = d(r#"<r x="2"/>"#);
        assert!(!equivalent_unordered(&a, &b));
    }

    #[test]
    fn comments_and_pis_ignored() {
        let a = d("<r><!-- hey --><a/><?pi?></r>");
        let b = d("<r><a/></r>");
        assert!(equivalent_ordered(&a, &b));
    }

    #[test]
    fn cdata_equals_text() {
        let a = d("<r><![CDATA[xy]]></r>");
        let b = d("<r>xy</r>");
        assert!(equivalent_ordered(&a, &b));
    }

    #[test]
    fn adjacent_text_merged() {
        let mut a = Document::new("r");
        let root = a.root();
        let t1 = a.create_text("x");
        let t2 = a.create_text("y");
        a.append_child(root, t1).unwrap();
        a.append_child(root, t2).unwrap();
        let b = d("<r>xy</r>");
        assert!(equivalent_ordered(&a, &b));
    }

    #[test]
    fn text_differences_detected() {
        let a = d("<r>x</r>");
        let b = d("<r>y</r>");
        assert!(!equivalent_ordered(&a, &b));
        assert!(!equivalent_unordered(&a, &b));
    }

    #[test]
    fn deep_permutation() {
        let a = d("<r><p><a/><b/></p><q/></r>");
        let b = d("<r><q/><p><b/><a/></p></r>");
        assert!(equivalent_unordered(&a, &b));
        assert!(!equivalent_ordered(&a, &b));
    }

    #[test]
    fn fragment_equivalence() {
        let a = Fragment::parse_one("<p><a/><b/></p>").unwrap();
        let b = Fragment::parse_one("<p><b/><a/></p>").unwrap();
        assert!(fragments_equivalent_unordered(&a, &b));
        assert!(!fragments_equivalent_ordered(&a, &b));
        assert!(fragments_equivalent_ordered(&a, &a));
    }

    #[test]
    fn different_names_not_equivalent() {
        assert!(!equivalent_unordered(&d("<r/>"), &d("<s/>")));
    }
}
