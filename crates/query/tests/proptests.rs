//! Property-based tests for the query layer.
//!
//! - Path evaluation agrees with a naive reference evaluator on random
//!   documents (DESIGN.md §6).
//! - Results are always deduplicated and in document order.
//! - `apply(delete); apply(compensating insert)` is the identity at the
//!   update-action level (the §3.1 construction, before the transaction
//!   layer automates it).
//! - NodePath of/resolve round-trips on random documents.

use axml_query::update::Effect;
use axml_query::{InsertPos, Locator, NodePath, PathExpr, SelectQuery, UpdateAction};
use axml_xml::{Document, Fragment, NodeId};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Random documents over a tiny name alphabet (so paths actually match).
// ----------------------------------------------------------------------

const NAMES: &[&str] = &["a", "b", "c"];

fn doc_strategy() -> impl Strategy<Value = Document> {
    let leaf = (0usize..NAMES.len()).prop_map(|i| Fragment::elem(NAMES[i]));
    let frag = leaf.prop_recursive(4, 40, 4, |inner| {
        (0usize..NAMES.len(), prop::collection::vec(inner, 0..4))
            .prop_map(|(i, children)| children.into_iter().fold(Fragment::elem(NAMES[i]), Fragment::with_child))
    });
    prop::collection::vec(frag, 0..5).prop_map(|frags| {
        let mut doc = Document::new("r");
        let root = doc.root();
        for f in &frags {
            doc.append_fragment(root, f).unwrap();
        }
        doc
    })
}

/// Random simple path: steps of child/descendant axes over the alphabet.
fn path_strategy() -> impl Strategy<Value = String> {
    let step = (0usize..NAMES.len() + 1, prop::bool::ANY).prop_map(|(i, desc)| {
        let name = if i == NAMES.len() { "*" } else { NAMES[i] };
        (name.to_string(), desc)
    });
    prop::collection::vec(step, 1..4).prop_map(|steps| {
        let mut s = String::from("r");
        for (name, desc) in steps {
            s.push_str(if desc { "//" } else { "/" });
            s.push_str(&name);
        }
        s
    })
}

// ----------------------------------------------------------------------
// Naive reference evaluator: brute force over all nodes.
// ----------------------------------------------------------------------

fn ref_eval(doc: &Document, path: &str) -> Vec<NodeId> {
    // Parse manually: "r" then steps separated by / or //.
    let mut ctx: Vec<NodeId> = vec![];
    let mut rest = path;
    let mut first = true;
    while !rest.is_empty() {
        let (axis_desc, step_src) = if let Some(r) = rest.strip_prefix("//") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix('/') {
            (false, r)
        } else {
            (false, rest)
        };
        let end = step_src.find('/').unwrap_or(step_src.len());
        let name = &step_src[..end];
        rest = &step_src[end..];
        let matches_name = |doc: &Document, n: NodeId| -> bool {
            match doc.name(n) {
                Ok(q) => name == "*" || q.local == name,
                Err(_) => false,
            }
        };
        if first {
            first = false;
            // Virtual document node: candidates are root (child) or all
            // descendants of root (descendant).
            let root = doc.root();
            ctx = if axis_desc {
                doc.descendants_and_self(root).filter(|n| matches_name(doc, *n)).collect()
            } else if matches_name(doc, root) {
                vec![root]
            } else {
                vec![]
            };
            continue;
        }
        let mut next = Vec::new();
        for n in doc.all_nodes() {
            let related = if axis_desc {
                ctx.iter().any(|c| doc.is_descendant_of(n, *c))
            } else {
                doc.parent(n).ok().flatten().map(|p| ctx.contains(&p)).unwrap_or(false)
            };
            if related && matches_name(doc, n) {
                next.push(n);
            }
        }
        ctx = next; // all_nodes is pre-order, so this is doc-order + deduped
    }
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn path_eval_matches_reference(doc in doc_strategy(), path in path_strategy()) {
        let parsed = PathExpr::parse(&path).unwrap();
        let fast = parsed.eval(&doc);
        let slow = ref_eval(&doc, &path);
        prop_assert_eq!(&fast, &slow, "path={} doc={}", path, doc.to_xml());
    }

    #[test]
    fn path_results_doc_ordered_and_deduped(doc in doc_strategy(), path in path_strategy()) {
        let parsed = PathExpr::parse(&path).unwrap();
        let hits = parsed.eval(&doc);
        let mut sorted = hits.clone();
        sorted.sort_by(|a, b| doc.cmp_document_order(*a, *b).unwrap());
        prop_assert_eq!(&hits, &sorted);
        let mut dedup = hits.clone();
        dedup.dedup();
        prop_assert_eq!(&hits, &dedup);
    }

    #[test]
    fn delete_then_compensate_is_identity(doc in doc_strategy(), path in path_strategy()) {
        let mut doc = doc;
        let before = doc.to_xml();
        let mut action = UpdateAction::delete(Locator::Path(PathExpr::parse(&path).unwrap()));
        action.allow_empty_location = true;
        let report = match action.apply(&mut doc) {
            Ok(r) => r,
            Err(_) => return Ok(()), // e.g. root selected: rejected, doc untouched
        };
        // Compensate in reverse order of effects.
        for effect in report.effects.iter().rev() {
            let Effect::Deleted { fragment, parent_path, position } = effect else {
                panic!("delete produced a non-delete effect");
            };
            let comp = UpdateAction::insert_at(
                Locator::Node(parent_path.clone()),
                vec![fragment.clone()],
                InsertPos::At(*position),
            );
            comp.apply(&mut doc).unwrap();
        }
        prop_assert_eq!(doc.to_xml(), before, "path={}", path);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn replace_then_compensate_is_identity(doc in doc_strategy(), path in path_strategy()) {
        let mut doc = doc;
        let before = doc.to_xml();
        let mut action = UpdateAction::replace(
            Locator::Path(PathExpr::parse(&path).unwrap()),
            vec![Fragment::elem_text("z", "new")],
        );
        action.allow_empty_location = true;
        let report = match action.apply(&mut doc) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        // Reverse order, inverting each primitive.
        for effect in report.effects.iter().rev() {
            match effect {
                Effect::Deleted { fragment, parent_path, position } => {
                    UpdateAction::insert_at(
                        Locator::Node(parent_path.clone()),
                        vec![fragment.clone()],
                        InsertPos::At(*position),
                    )
                    .apply(&mut doc)
                    .unwrap();
                }
                Effect::Inserted { path, .. } => {
                    UpdateAction::delete(Locator::Node(path.clone())).apply(&mut doc).unwrap();
                }
            }
        }
        prop_assert_eq!(doc.to_xml(), before, "path={}", path);
    }

    #[test]
    fn nodepath_roundtrip_random_docs(doc in doc_strategy()) {
        for node in doc.all_nodes().collect::<Vec<_>>() {
            let p = NodePath::of(&doc, node).unwrap();
            prop_assert_eq!(p.resolve(&doc).unwrap(), node);
        }
    }

    #[test]
    fn action_xml_roundtrip_random_paths(path in path_strategy()) {
        let action = UpdateAction::insert(
            Locator::Path(PathExpr::parse(&path).unwrap()),
            vec![Fragment::elem_text("k", "v")],
        );
        let xml = action.to_action_xml();
        let back = UpdateAction::parse_action_xml(&xml).unwrap();
        prop_assert_eq!(action, back);
    }
}

// ----------------------------------------------------------------------
// Select-from-where vs a naive reference evaluator.
// ----------------------------------------------------------------------

/// Random select queries: `Select v<proj> from v in <from> where v<path> = <val>`.
fn select_strategy() -> impl Strategy<Value = String> {
    let rel = prop_oneof![
        (0usize..NAMES.len()).prop_map(|i| format!("/{}", NAMES[i])),
        (0usize..NAMES.len()).prop_map(|i| format!("//{}", NAMES[i])),
        (0usize..NAMES.len(), 0usize..NAMES.len()).prop_map(|(i, j)| format!("/{}/{}", NAMES[i], NAMES[j])),
    ];
    (path_strategy(), rel.clone(), prop::option::of(rel)).prop_map(|(from, proj, cond)| match cond {
        None => format!("Select v{proj} from v in {from}"),
        Some(c) => format!("Select v{proj} from v in {from} where exists v{c}"),
    })
}

/// Naive reference: enumerate from-bindings via ref_eval on the absolute
/// path, apply exists-condition and projection by brute force.
fn ref_select(doc: &Document, from: &str, proj: &str, cond: Option<&str>) -> Vec<NodeId> {
    let rel_eval = |binding: NodeId, rel: &str| -> Vec<NodeId> {
        // rel is "/x", "//x", or "/x/y".
        let (desc_first, rest) =
            if let Some(r) = rel.strip_prefix("//") { (true, r) } else { (false, rel.trim_start_matches('/')) };
        let parts: Vec<&str> = rest.split('/').collect();
        let mut ctx = vec![binding];
        for (k, name) in parts.iter().enumerate() {
            let mut next = Vec::new();
            for n in doc.all_nodes() {
                let matches = doc.name(n).map(|q| q.local == *name).unwrap_or(false);
                if !matches {
                    continue;
                }
                let related = if k == 0 && desc_first {
                    ctx.iter().any(|c| doc.is_descendant_of(n, *c))
                } else {
                    doc.parent(n).ok().flatten().map(|p| ctx.contains(&p)).unwrap_or(false)
                };
                if related {
                    next.push(n);
                }
            }
            ctx = next;
        }
        ctx
    };
    let mut out = Vec::new();
    for binding in ref_eval(doc, from) {
        if let Some(c) = cond {
            if rel_eval(binding, c).is_empty() {
                continue;
            }
        }
        out.extend(rel_eval(binding, proj));
    }
    out.sort();
    out.dedup();
    out.sort_by(|a, b| doc.cmp_document_order(*a, *b).unwrap());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn select_matches_reference(doc in doc_strategy(), q in select_strategy()) {
        let parsed = SelectQuery::parse(&q).unwrap();
        let fast = parsed.eval(&doc).unwrap();
        // Re-extract the pieces for the reference evaluator.
        let from = parsed.from.to_text();
        let proj_text = parsed.projections[0].to_text();
        let proj = if proj_text.starts_with("//") { proj_text.clone() } else { format!("/{proj_text}") };
        let cond = match &parsed.condition {
            axml_query::Condition::True => None,
            axml_query::Condition::Exists(p) => {
                let t = p.to_text();
                Some(if t.starts_with("//") { t } else { format!("/{t}") })
            }
            other => panic!("unexpected condition {other:?}"),
        };
        let slow = ref_select(&doc, &from, &proj, cond.as_deref());
        prop_assert_eq!(&fast, &slow, "q={} doc={}", q, doc.to_xml());
    }

    #[test]
    fn select_to_text_is_semantically_stable(doc in doc_strategy(), q in select_strategy()) {
        let parsed = SelectQuery::parse(&q).unwrap();
        let reparsed = SelectQuery::parse(&parsed.to_text()).unwrap();
        prop_assert_eq!(parsed.eval(&doc).unwrap(), reparsed.eval(&doc).unwrap(), "q={}", q);
    }
}

// ----------------------------------------------------------------------
// Hostile input: the parsers return errors, they never panic.
// ----------------------------------------------------------------------

/// Query punctuation and keywords interleaved with multi-byte characters,
/// so every byte offset a parser computes gets a chance to land inside one.
const QUERY_SOUP: &[&str] = &[
    "select", "Select", "from", "where", "in", "and", "or", "not", "exists", "node:", "nodes:", "p", "d", "x", "1",
    "0", " ", "\t", "/", "//", "..", ".", "*", "@", "[", "]", "(", ")", "=", "!=", "<", ">", "\"", "'", ",", ";", "$",
    ":", "é", "日", "\u{a0}", "İ",
];

fn soup(alphabet: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..alphabet.len(), 0..24)
        .prop_map(move |picks| picks.iter().map(|i| alphabet[*i]).collect())
}

fn parse_everything(input: &str) {
    let _ = SelectQuery::parse(input);
    let _ = PathExpr::parse(input);
    let _ = Locator::parse(input);
}

/// Keyword search walks the query bytewise; slicing the `str` at those
/// offsets panics inside a multi-byte character instead of reporting a
/// syntax error, so the search must compare bytes.
#[test]
fn non_ascii_before_a_keyword_is_not_a_panic() {
    let q = SelectQuery::parse("Select p/é from p in d").expect("non-ASCII names are legal");
    assert_eq!(q.projections[0].to_text(), "é");
    // `İ` lower-cases to three bytes: offsets found in a lower-cased copy
    // are not offsets into the input.
    let q = SelectQuery::parse("Select p/İ from p in d where p/İ = 1").expect("parses");
    assert_eq!(q.from.to_text(), "d");
    for hostile in ["select=日", "Select p from p in d where a = b 日", "select 日 from", "日[日=日]"] {
        parse_everything(hostile);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn query_parsers_never_panic(input in soup(QUERY_SOUP)) {
        parse_everything(&input);
        parse_everything(&format!("Select p/x from p in d where {input}"));
    }
}
