//! Property: interning element names never changes canonical output.
//!
//! The serializer reads names through the intern table ([`QName`] over
//! [`NameId`]); before interning it read owned `String`s. The compact
//! rendering of any workload document must be byte-identical to an
//! independent writer that formats names from raw string slices the way
//! the pre-intern serializer did — interning may only change how name
//! bytes are *stored*, never what is emitted.

use axml_workload::docs::{atp_document, random_axml_doc, random_plain_doc, DocParams};
use axml_xml::{escape_attr, escape_text, Document, NodeId, NodeKind};
use proptest::prelude::*;

/// Formats a `QName` from raw string slices (no interned comparisons,
/// no shared storage): exactly the pre-intern `prefix:local` rendering.
fn raw_name(q: &axml_xml::QName) -> String {
    match &q.prefix {
        Some(p) => format!("{}:{}", p.as_str(), q.local.as_str()),
        None => q.local.as_str().to_owned(),
    }
}

/// Independent compact writer over raw name strings, mirroring the
/// serializer's compact mode byte for byte.
fn write_raw(doc: &Document, node: NodeId, out: &mut String) {
    match doc.kind(node).expect("attached") {
        NodeKind::Element { name } => {
            out.push('<');
            out.push_str(&raw_name(name));
            for (an, av) in doc.attrs(node).expect("element") {
                out.push(' ');
                out.push_str(&raw_name(an));
                out.push_str("=\"");
                out.push_str(&escape_attr(av));
                out.push('"');
            }
            let children = doc.children(node).expect("element");
            if children.len() == 0 {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for child in children {
                write_raw(doc, child, out);
            }
            out.push_str("</");
            out.push_str(&raw_name(name));
            out.push('>');
        }
        NodeKind::Text(t) => out.push_str(&escape_text(t)),
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
}

fn raw_render(doc: &Document) -> String {
    let mut out = String::new();
    write_raw(doc, doc.root(), &mut out);
    out
}

proptest! {
    #[test]
    fn interned_serialization_matches_raw_writer_for_plain_docs(
        seed in 0u64..500,
        nodes in 2usize..120,
        max_fanout in 1usize..6,
        name_alphabet in 1usize..10,
    ) {
        let params = DocParams { nodes, max_fanout, name_alphabet, ..Default::default() };
        let doc = random_plain_doc(seed, &params);
        prop_assert_eq!(doc.to_xml(), raw_render(&doc));
    }

    #[test]
    fn interned_serialization_matches_raw_writer_for_axml_docs(
        seed in 0u64..500,
        service_calls in 0usize..6,
    ) {
        let params = DocParams {
            nodes: 60,
            service_calls,
            sc_urls: vec!["peer://ap1".into(), "peer://ap2".into()],
            ..Default::default()
        };
        let doc = random_axml_doc(seed, &params);
        prop_assert_eq!(doc.to_xml(), raw_render(&doc));
    }

    #[test]
    fn round_trip_through_parse_preserves_interned_rendering(
        seed in 0u64..200,
    ) {
        let doc = random_axml_doc(seed, &DocParams {
            nodes: 40,
            service_calls: 2,
            sc_urls: vec!["peer://ap2".into()],
            ..Default::default()
        });
        let rendered = doc.to_xml();
        let reparsed = axml_xml::parse(&rendered).expect("own output parses");
        prop_assert_eq!(reparsed.to_xml(), rendered);
    }
}

#[test]
fn atp_document_renders_identically_through_both_writers() {
    let doc = atp_document();
    assert_eq!(doc.to_xml(), raw_render(&doc));
}
