//! Property-based tests for the ActiveXML layer.
//!
//! Headline invariant (§3.1, DESIGN.md §6): for any generated AXML
//! document and any query, *materialize-then-compensate is the identity* —
//! the compensation constructed from the materialization effects restores
//! the exact original document, in both lazy and eager modes.
//!
//! Second invariant: evaluating a query through the `axml:sc` wrappers in
//! place selects exactly the nodes, in exactly the order, that evaluating
//! it on an explicit wrapper-free copy of the document does.
//!
//! Third invariant: what the document's name index answers — the calls
//! `ServiceCall::scan` lists, the elements a `//name` step selects — is
//! what walking the document answers, node for node and in order.

use axml_doc::{
    consts, EvalMode, Fault, MaterializationEngine, ResolvedCall, ServiceCall, ServiceInvoker, ServiceResponse,
    TransparentView,
};
use axml_query::{Effect, InsertPos, Locator, QueryTree, SelectQuery, UpdateAction};
use axml_xml::{Document, Fragment, NodeId, NodeKind, QName};
use proptest::prelude::*;
use std::collections::HashMap;

const NAMES: &[&str] = &["a", "b", "c", "r0", "r1", "r2"];

/// Random AXML document: plain elements mixed with embedded calls whose
/// methods `svcK` deterministically return `<rK>fresh</rK>`.
fn axml_doc_strategy() -> impl Strategy<Value = Document> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(|i| Fragment::elem(NAMES[i])),
        (0usize..3, 0usize..3).prop_map(|(k, mode)| {
            let call = ServiceCall::build(
                "peer://ap9",
                format!("svc{k}"),
                if mode == 0 { axml_doc::ScMode::Merge } else { axml_doc::ScMode::Replace },
            );
            let mut frag = call.to_fragment();
            if mode == 2 {
                // Seed a previous result (exercises replace-mode deletion).
                frag = frag.with_child(Fragment::elem_text(format!("r{k}"), "previous"));
            }
            frag
        }),
    ];
    let frag = leaf.prop_recursive(3, 24, 4, |inner| {
        (0usize..3, prop::collection::vec(inner, 0..4))
            .prop_map(|(i, children)| children.into_iter().fold(Fragment::elem(NAMES[i]), Fragment::with_child))
    });
    prop::collection::vec(frag, 1..5).prop_map(|frags| {
        let mut doc = Document::new("root");
        let root = doc.root();
        for f in &frags {
            doc.append_fragment(root, f).unwrap();
        }
        doc
    })
}

struct Fabric;

impl ServiceInvoker for Fabric {
    fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
        let k = call.method.trim_start_matches("svc");
        Ok(ServiceResponse { items: vec![Fragment::elem_text(format!("r{k}"), "fresh")], effects: vec![] })
    }

    fn result_hints(&self, call: &ResolvedCall) -> Option<Vec<String>> {
        let k = call.method.trim_start_matches("svc");
        Some(vec![format!("r{k}")])
    }
}

fn compensate(doc: &mut Document, effects: &[Effect]) {
    for effect in effects.iter().rev() {
        match effect {
            Effect::Deleted { fragment, parent_path, position } => {
                UpdateAction::insert_at(
                    Locator::Node(parent_path.clone()),
                    vec![fragment.clone()],
                    InsertPos::At(*position),
                )
                .apply(doc)
                .unwrap();
            }
            Effect::Inserted { path, .. } => {
                UpdateAction::delete(Locator::Node(path.clone())).apply(doc).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn materialize_then_compensate_is_identity(
        doc in axml_doc_strategy(),
        lazy in any::<bool>(),
        which in 0usize..3,
    ) {
        let mut doc = doc;
        let before = doc.to_xml();
        let mode = if lazy { EvalMode::Lazy } else { EvalMode::Eager };
        let engine = MaterializationEngine::new(mode);
        let q = SelectQuery::parse(&format!("Select v//r{which} from v in root")).unwrap();
        let (_hits, report) = engine.query(&mut doc, &q, &mut Fabric).unwrap();
        compensate(&mut doc, &report.effects);
        prop_assert_eq!(doc.to_xml(), before, "mode={:?}", mode);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn lazy_materializes_subset_of_eager(doc in axml_doc_strategy(), which in 0usize..3) {
        let q = SelectQuery::parse(&format!("Select v//r{which} from v in root")).unwrap();
        let mut d1 = doc.clone();
        let (_h, lazy) = MaterializationEngine::new(EvalMode::Lazy).query(&mut d1, &q, &mut Fabric).unwrap();
        let mut d2 = doc;
        let (_h, eager) = MaterializationEngine::new(EvalMode::Eager).query(&mut d2, &q, &mut Fabric).unwrap();
        prop_assert!(lazy.materialized <= eager.materialized);
    }

    #[test]
    fn lazy_and_eager_agree_on_query_results(doc in axml_doc_strategy(), which in 0usize..3) {
        // Whatever lazy skips is irrelevant to the query: both modes must
        // return the same selected content.
        let q = SelectQuery::parse(&format!("Select v//r{which} from v in root")).unwrap();
        let mut d1 = doc.clone();
        let (h1, _) = MaterializationEngine::new(EvalMode::Lazy).query(&mut d1, &q, &mut Fabric).unwrap();
        let mut d2 = doc;
        let (h2, _) = MaterializationEngine::new(EvalMode::Eager).query(&mut d2, &q, &mut Fabric).unwrap();
        let c1: Vec<String> = h1.iter().map(|n| d1.subtree_to_xml(*n)).collect();
        let c2: Vec<String> = h2.iter().map(|n| d2.subtree_to_xml(*n)).collect();
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn transparent_view_never_contains_control_elements(doc in axml_doc_strategy()) {
        let view = TransparentView::new(&doc);
        let copy = ElidedCopy::build(&doc);
        let visited: Vec<NodeId> = std::iter::once(view.root()).chain(view.descendants_of(view.root())).collect();
        for &node in &visited[1..] {
            if let Some(name) = view.element_name(node) {
                prop_assert!(!name.has_prefix(consts::AXML_PREFIX), "visited control element {}", name);
            }
        }
        // The traversal visits what the copy holds, in the copy's order.
        let copied: Vec<NodeId> = copy.copy.all_nodes().map(|c| copy.back[&c]).collect();
        prop_assert_eq!(visited, copied);
    }

    #[test]
    fn scan_is_stable_under_materialization(doc in axml_doc_strategy()) {
        // Materializing every call must not invent or lose calls
        // (results here are plain nodes, not new service calls).
        let mut doc = doc;
        let n_before = ServiceCall::scan(&doc).len();
        let engine = MaterializationEngine::new(EvalMode::Eager);
        let _ = engine.materialize_all(&mut doc, &mut Fabric).unwrap();
        prop_assert_eq!(ServiceCall::scan(&doc).len(), n_before);
    }
}

// ----------------------------------------------------------------------
// In-place transparency against the elided copy.
// ----------------------------------------------------------------------

/// The reference semantics of transparency, spelled out as data: a *copy*
/// of the document in which every `axml:sc` element below the root is
/// elided — control children dropped, result children hoisted into the
/// parent, comments and PIs dropped — plus the map from the copy's nodes
/// back to the original's. Only these tests build it.
struct ElidedCopy {
    copy: Document,
    back: HashMap<NodeId, NodeId>,
}

impl ElidedCopy {
    fn build(doc: &Document) -> ElidedCopy {
        let root = doc.root();
        let mut copy = Document::new(doc.name(root).unwrap().clone());
        let croot = copy.root();
        for (n, v) in doc.attrs(root).unwrap() {
            copy.set_attr(croot, n.clone(), v).unwrap();
        }
        let mut ec = ElidedCopy { copy, back: HashMap::from([(croot, root)]) };
        for child in doc.children(root).unwrap() {
            ec.copy_one(doc, child, croot);
        }
        ec
    }

    fn copy_one(&mut self, doc: &Document, orig: NodeId, cparent: NodeId) {
        let c = match doc.kind(orig).unwrap() {
            NodeKind::Element { name, .. } if consts::is_sc(name.prefix.as_deref(), &name.local) => {
                for rc in doc.children(orig).unwrap() {
                    let control = doc.name(rc).is_ok_and(|q| consts::is_control_child(q.prefix.as_deref(), &q.local));
                    if !control {
                        self.copy_one(doc, rc, cparent);
                    }
                }
                return;
            }
            NodeKind::Element { name } => {
                let attrs = doc.attrs(orig).unwrap().map(|(n, v)| (n.clone(), v));
                self.copy.create_element_with_attrs(name.clone(), attrs)
            }
            NodeKind::Text(t) => self.copy.create_text(t),
            NodeKind::Cdata(t) => self.copy.create_cdata(t),
            NodeKind::Comment(_) | NodeKind::Pi { .. } => return,
        };
        self.copy.append_child(cparent, c).unwrap();
        self.back.insert(c, orig);
        for child in doc.children(orig).unwrap() {
            self.copy_one(doc, child, c);
        }
    }

    /// Evaluates on the copy, answering in the original's node ids.
    fn eval(&self, query: &SelectQuery) -> Vec<NodeId> {
        query.eval(&self.copy).unwrap().into_iter().map(|c| self.back[&c]).collect()
    }
}

fn assert_same_as_copy(doc: &Document, query: &str) {
    let q = SelectQuery::parse(query).unwrap();
    let in_place = TransparentView::eval(doc, &q).unwrap();
    assert_eq!(in_place, ElidedCopy::build(doc).eval(&q), "q={query} doc={}", doc.to_xml());
}

/// Select queries over the generated documents' vocabulary: child and
/// descendant steps, `..`, wildcards with position predicates, child-text
/// predicates, and `where` clauses that test existence and compare text.
fn view_query_strategy() -> impl Strategy<Value = String> {
    // Containers are named a/b/c; r0/r1/r2 only ever occur as results.
    let plain = || (0usize..3).prop_map(|i| NAMES[i]);
    let result = || (3usize..6).prop_map(|i| NAMES[i]);
    let from = prop_oneof![
        Just("root".to_string()),
        Just("root/*".to_string()),
        Just("root//*".to_string()),
        plain().prop_map(|n| format!("root//{n}")),
        result().prop_map(|n| format!("//{n}/..")),
        (1usize..4).prop_map(|k| format!("root/*[{k}]")),
        (result(), 1usize..3).prop_map(|(n, k)| format!("root//{n}[{k}]")),
    ];
    let projection = prop_oneof![
        Just("v".to_string()),
        Just("v/..".to_string()),
        Just("v/*".to_string()),
        Just("v//*/..".to_string()),
        result().prop_map(|n| format!("v/{n}")),
        result().prop_map(|n| format!("v//{n}")),
        (plain(), result()).prop_map(|(n, m)| format!("v/{n}//{m}")),
        (1usize..4).prop_map(|k| format!("v/*[{k}]")),
        (1usize..3).prop_map(|k| format!("v//*[{k}]/..")),
        result().prop_map(|n| format!("v/*[{n}=fresh]")),
    ];
    let condition = prop_oneof![
        Just(String::new()),
        Just(String::new()),
        result().prop_map(|n| format!(" where exists v//{n}")),
        result().prop_map(|n| format!(" where not exists v/{n}")),
        result().prop_map(|n| format!(" where v//{n} = previous or v//{n} = fresh")),
        Just(" where v != previous".to_string()),
        Just(" where v//*[1] = fresh".to_string()),
    ];
    (from, projection, condition).prop_map(|(f, p, c)| format!("Select {p} from v in {f}{c}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_evaluation_matches_the_elided_copy(
        doc in axml_doc_strategy(),
        queries in prop::collection::vec(view_query_strategy(), 8),
    ) {
        // As generated (wrappers empty or holding one previous result),
        // then with every wrapper holding fresh results.
        let mut doc = doc;
        for materialized in [false, true] {
            if materialized {
                MaterializationEngine::new(EvalMode::Eager).materialize_all(&mut doc, &mut Fabric).unwrap();
            }
            let copy = ElidedCopy::build(&doc);
            for q in &queries {
                let query = SelectQuery::parse(q).unwrap();
                let in_place = TransparentView::eval(&doc, &query).unwrap();
                prop_assert_eq!(in_place, copy.eval(&query), "q={} doc={}", q, doc.to_xml());
            }
        }
    }
}

#[test]
fn nested_wrappers_hoist_to_the_nearest_visible_ancestor() {
    let doc = Document::parse(
        r#"<r><a><axml:sc methodName="o"><axml:sc methodName="i"><x>1</x><axml:sc methodName="k"><x>2</x></axml:sc></axml:sc><axml:catchAll><x>9</x></axml:catchAll><x>3</x></axml:sc></a></r>"#,
    )
    .unwrap();
    for q in [
        "Select v/x from v in r/a",
        "Select v//x from v in r",
        "Select v/.. from v in r//x",
        "Select v/x[2] from v in r/a",
        "Select v from v in r/a where v/x = 3",
    ] {
        assert_same_as_copy(&doc, q);
    }
    let q = SelectQuery::parse("Select v/.. from v in r//x").unwrap();
    let hits = TransparentView::eval(&doc, &q).unwrap();
    assert_eq!(hits, vec![doc.first_child_element(doc.root(), "a").unwrap()], "`..` skips all three wrappers");
}

#[test]
fn text_inside_params_is_invisible_to_where() {
    let doc = Document::parse(
        r#"<r><p><axml:sc methodName="m"><axml:params><axml:param name="n"><axml:value>secret</axml:value><x>secret</x></axml:param></axml:params><x>shown</x><axml:catch faultName="F"><x>secret</x></axml:catch></axml:sc></p></r>"#,
    )
    .unwrap();
    for q in [
        "Select v from v in r/p where v//x = secret",
        "Select v from v in r/p where v = shown",
        "Select v//x from v in r",
        "Select v//axml:value from v in r",
        "Select v/*[x=secret] from v in r",
    ] {
        assert_same_as_copy(&doc, q);
    }
    let hidden = SelectQuery::parse("Select v from v in r/p where v//x = secret").unwrap();
    assert!(TransparentView::eval(&doc, &hidden).unwrap().is_empty(), "parameters and handlers are not content");
    let text = SelectQuery::parse("Select v from v in r/p where v = shown").unwrap();
    assert_eq!(TransparentView::eval(&doc, &text).unwrap().len(), 1, "string value skips control children");
}

#[test]
fn control_names_are_control_only_directly_under_a_wrapper() {
    // `axml:catch` under a result element, or under a plain element, is
    // ordinary content; so is everything under a root that is a wrapper.
    let doc = Document::parse(
        r#"<r><axml:sc methodName="m"><x><axml:catch><y>in</y></axml:catch></x></axml:sc><axml:params><y>out</y></axml:params></r>"#,
    )
    .unwrap();
    assert_same_as_copy(&doc, "Select v//y from v in r");
    assert_eq!(TransparentView::eval(&doc, &SelectQuery::parse("Select v//y from v in r").unwrap()).unwrap().len(), 2);
    let rooted =
        Document::parse(r#"<axml:sc methodName="m"><axml:params><y>p</y></axml:params><y>q</y></axml:sc>"#).unwrap();
    for q in ["Select v//y from v in axml:sc", "Select v/* from v in axml:sc", "Select v from v in //y/.."] {
        assert_same_as_copy(&rooted, q);
    }
}

#[test]
fn comments_and_cdata_between_hoisted_siblings() {
    let doc = Document::parse(
        r#"<r><p>a<!-- c --><axml:sc methodName="m"><!-- in --><x>b</x><![CDATA[<c>]]><?pi d?><x>d</x></axml:sc><![CDATA[e]]></p></r>"#,
    )
    .unwrap();
    for q in [
        "Select v from v in r/p where v = \"ab<c>de\"",
        "Select v/x from v in r/p",
        "Select v/x[2] from v in r/p",
        "Select v/*[2]/.. from v in r/p",
    ] {
        assert_same_as_copy(&doc, q);
    }
    let q = SelectQuery::parse("Select v from v in r/p where v = \"ab<c>de\"").unwrap();
    assert_eq!(TransparentView::eval(&doc, &q).unwrap().len(), 1, "text and CDATA concatenate in document order");
}

#[test]
fn position_predicate_counts_across_a_wrapper_boundary() {
    let doc =
        Document::parse(r#"<r><x>1</x><axml:sc methodName="m"><axml:params/><x>2</x><x>3</x></axml:sc><x>4</x></r>"#)
            .unwrap();
    for k in 1..=5 {
        assert_same_as_copy(&doc, &format!("Select v/x[{k}] from v in r"));
        assert_same_as_copy(&doc, &format!("Select v/*[{k}] from v in r"));
    }
    let third = SelectQuery::parse("Select v/x[3] from v in r").unwrap();
    let hits = TransparentView::eval(&doc, &third).unwrap();
    assert_eq!(doc.text_content(hits[0]).unwrap(), "3", "the wrapper's results count as r's own children");
}

/// Walks `steps` through the child lists from the root, stopping early at
/// leaves; always yields an attached node.
fn pick_node(doc: &Document, steps: &[usize]) -> NodeId {
    let mut cur = doc.root();
    for &s in steps {
        let kids = doc.children(cur).expect("attached").len();
        if kids == 0 {
            break;
        }
        cur = doc.child_at(cur, s % kids).unwrap().unwrap();
    }
    cur
}

proptest! {
    /// §3.1 with *explicit* updates rather than materialization: any
    /// random sequence of structural insert/delete/replace actions is
    /// undone exactly by the compensation built from its logged effects —
    /// checked against the real `axml_core::compensate`, not a local
    /// reimplementation.
    #[test]
    fn random_update_sequences_compensate_to_identity(
        doc in axml_doc_strategy(),
        ops in proptest::collection::vec(
            (0u8..3u8, proptest::collection::vec(0usize..16, 0..4), 0usize..8),
            0..12,
        ),
    ) {
        use axml_core::compensate::{apply_compensation, compensation_for_effects};
        use axml_query::NodePath;

        let mut doc = doc;
        let before = doc.to_xml();
        let mut log: Vec<Effect> = Vec::new();
        for (kind, steps, aux) in &ops {
            let target = pick_node(&doc, steps);
            let is_element = doc.name(target).is_ok();
            let action = match kind {
                0 => {
                    if !is_element {
                        continue; // cannot insert under text/comments
                    }
                    let slots = doc.children(target).unwrap().len() + 1;
                    UpdateAction::insert_at(
                        Locator::Node(NodePath::of(&doc, target).unwrap()),
                        vec![Fragment::elem_text("ins", format!("v{aux}"))],
                        InsertPos::At(aux % slots),
                    )
                }
                1 => {
                    if target == doc.root() {
                        continue; // the root is immutable
                    }
                    UpdateAction::delete(Locator::Node(NodePath::of(&doc, target).unwrap()))
                }
                _ => {
                    if target == doc.root() {
                        continue;
                    }
                    UpdateAction::replace(
                        Locator::Node(NodePath::of(&doc, target).unwrap()),
                        vec![Fragment::elem_text("rep", format!("v{aux}"))],
                    )
                }
            };
            let report = action.apply(&mut doc).expect("structural action applies");
            log.extend(report.effects);
        }
        let comp = compensation_for_effects(&log);
        apply_compensation(&mut doc, &comp).expect("compensation applies");
        prop_assert_eq!(doc.to_xml(), before);
    }
}

// ----------------------------------------------------------------------
// Results kept in place against the copying path.
// ----------------------------------------------------------------------

/// One call's result items: `<rK>x</rK>` or `<rK>y</rK>`.
fn items_strategy() -> impl Strategy<Value = Vec<Fragment>> {
    prop::collection::vec((0usize..3, 0usize..2), 0..4)
        .prop_map(|picks| picks.into_iter().map(|(k, t)| Fragment::elem_text(format!("r{k}"), ["x", "y"][t])).collect())
}

/// Equal effects, whatever node an insert names.
fn same_but_node(a: &Effect, b: &Effect) -> bool {
    match (a, b) {
        (Effect::Inserted { path, fragment, .. }, Effect::Inserted { path: p, fragment: f, .. }) => {
            path == p && fragment == f
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A replace call re-materialized with the items it holds — the same
    /// fragments (`again` 0) or equal ones from another table (1) — keeps
    /// its results; with others (2, unless equal), or in merge mode, it
    /// copies. Either
    /// way the document and the log are the copying path's, which the
    /// same calls take in a re-parse of the document: it remembers no
    /// copies. Compensating either log restores the same bytes.
    #[test]
    fn results_kept_in_place_match_the_copying_path(
        doc in axml_doc_strategy(),
        first in prop::collection::vec(items_strategy(), 8),
        again in prop::collection::vec(0usize..3, 8),
        others in prop::collection::vec(items_strategy(), 8),
    ) {
        let mut doc = doc;
        let apply = |doc: &mut Document, call: &ServiceCall, items: &[Fragment]| {
            axml_doc::apply_call_results(doc, call, call.node.unwrap(), items).unwrap()
        };
        for (call, items) in ServiceCall::scan(&doc).iter().zip(&first) {
            apply(&mut doc, call, items);
        }
        let before = doc.to_xml();
        let mut copied = Document::parse(&before).unwrap();
        let (calls, copied_calls) = (ServiceCall::scan(&doc), ServiceCall::scan(&copied));
        prop_assert_eq!(calls.len(), copied_calls.len());
        let (mut log, mut copied_log) = (Vec::new(), Vec::new());
        for (k, (call, copied_call)) in calls.iter().zip(&copied_calls).take(first.len()).enumerate() {
            let items: Vec<Fragment> = match again[k] {
                0 => first[k].clone(),
                1 => first[k].iter().map(|f| Fragment::parse_one(&f.to_xml()).unwrap()).collect(),
                _ => others[k].clone(),
            };
            let held = call.result_children(&doc);
            let effects = apply(&mut doc, call, &items);
            let expected = apply(&mut copied, copied_call, &items);
            prop_assert_eq!(doc.to_xml(), copied.to_xml());
            prop_assert!(effects.len() == expected.len() && effects.iter().zip(&expected).all(|(a, b)| same_but_node(a, b)));
            let inserted: Vec<NodeId> =
                effects.iter().filter_map(|e| if let Effect::Inserted { node, .. } = e { Some(*node) } else { None }).collect();
            let kept = !inserted.is_empty() && inserted == held;
            let holds = call.mode == axml_doc::ScMode::Replace && !items.is_empty() && items == first[k];
            prop_assert_eq!(kept, holds, "call {}: again={}, mode {:?}", k, again[k], call.mode);
            log.extend(effects);
            copied_log.extend(expected);
        }
        doc.check_consistency().unwrap();
        compensate(&mut doc, &log);
        compensate(&mut copied, &copied_log);
        prop_assert_eq!(doc.to_xml(), before.clone());
        prop_assert_eq!(copied.to_xml(), before);
        doc.check_consistency().unwrap();
    }
}

// ----------------------------------------------------------------------
// By-name lookups against the walks they replace.
// ----------------------------------------------------------------------

/// `ServiceCall::scan` as it was before the name index: one pre-order
/// walk that lists every `axml:sc` it meets and, below one, skips the
/// control children. The oracle of the lookup that replaced it.
fn scan_by_walking(doc: &Document) -> Vec<ServiceCall> {
    let named = |n: NodeId, test: fn(Option<&str>, &str) -> bool| {
        doc.name(n).is_ok_and(|q| test(q.prefix.as_deref(), &q.local))
    };
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(node) = stack.pop() {
        let below = doc.children(node).unwrap().rev();
        if named(node, consts::is_sc) {
            out.extend(ServiceCall::parse(doc, node));
            stack.extend(below.filter(|c| !named(*c, consts::is_control_child)));
        } else {
            stack.extend(below);
        }
    }
    out
}

const LOOKUP_NAMES: &[&str] =
    &["a", "b", "c", "r0", "r1", "r2", "x", "y", "pad", "axml:sc", "axml:params", "axml:catch"];

/// Wherever `tree` lists the descendants of `node` by name, the list is
/// what filtering the walk yields. Returns how many lookups were listed.
fn listed_like_walked<T: QueryTree>(tree: &T, node: NodeId, xml: &str) -> usize {
    let mut listed = 0;
    for name in LOOKUP_NAMES.iter().map(|n| QName::new(n)) {
        if let Some(found) = tree.descendants_named(node, &name) {
            let walked: Vec<NodeId> =
                tree.descendants_of(node).filter(|n| tree.element_name(*n) == Some(&name)).collect();
            assert_eq!(found, walked, "//{name} below {node} in {xml}");
            listed += 1;
        }
    }
    listed
}

/// Scan and every by-name descendant lookup — plain and through the
/// wrappers, from the root and from every interior element — against
/// their walks. Returns how many lookups took the listed path.
fn assert_lookups_match_walks(doc: &Document) -> usize {
    let xml = doc.to_xml();
    assert_eq!(ServiceCall::scan(doc), scan_by_walking(doc), "doc={xml}");
    let view = TransparentView::new(doc);
    let contexts = doc.all_nodes().filter(|n| doc.name(*n).is_ok_and(|q| q.local != "pad"));
    contexts.map(|node| listed_like_walked(doc, node, &xml) + listed_like_walked(&view, node, &xml)).sum()
}

/// Appends one `ballast` child holding `pads` empty elements to the root.
fn add_ballast(doc: &mut Document, pads: usize) {
    let ballast = doc.create_element("ballast");
    for _ in 0..pads {
        let pad = doc.create_element("pad");
        doc.append_child(ballast, pad).unwrap();
    }
    doc.append_child(doc.root(), ballast).unwrap();
}

/// `doc` grown past the size floor — `pads` empty elements under one
/// `ballast` child of the root — with a detached subtree that holds a
/// call and a result name, which no lookup may ever report.
fn padded(doc: &Document, pads: usize) -> Document {
    let mut doc = doc.clone();
    add_ballast(&mut doc, pads);
    let call = ServiceCall::build("peer://ap9", "svc0", axml_doc::ScMode::Merge);
    let stray = call.to_fragment().with_child(Fragment::elem_text("r0", "detached"));
    let _detached = stray.instantiate(&mut doc);
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn by_name_lookups_match_the_walks(doc in axml_doc_strategy()) {
        // As generated the documents sit under the size floor and build
        // no index; padded they sit over it, and materialization then
        // edits a document whose index is live.
        let mut listed = 0;
        for mut doc in [doc.clone(), padded(&doc, 2 * Document::NAME_INDEX_MIN_NODES)] {
            listed += assert_lookups_match_walks(&doc);
            MaterializationEngine::new(EvalMode::Eager).materialize_all(&mut doc, &mut Fabric).unwrap();
            listed += assert_lookups_match_walks(&doc);
            doc.check_consistency().unwrap();
        }
        prop_assert!(listed > 0, "the padded document answers from its index");
    }
}

/// A document of exactly `nodes` nodes around `body`, which must hold
/// elements only: `<r>` + `body` + filler `<pad/>` children of the root.
fn sized(body: &str, nodes: usize) -> Document {
    let mut doc = Document::parse(&format!("<r>{body}</r>")).unwrap();
    while doc.node_count() < nodes {
        let pad = doc.create_element("pad");
        doc.append_child(doc.root(), pad).unwrap();
    }
    assert_eq!(doc.node_count(), nodes, "body too large for the requested size");
    doc
}

const OVER_THE_FLOOR: usize = 2 * Document::NAME_INDEX_MIN_NODES;

#[test]
fn a_detached_subtree_holding_a_matching_name_is_not_found() {
    let mut doc = sized(r#"<p><x/><axml:sc methodName="m"><x/></axml:sc></p>"#, OVER_THE_FLOOR);
    let p = doc.first_child_element(doc.root(), "p").unwrap();
    let stray =
        Fragment::parse_one(r#"<x><axml:sc methodName="stray"><x/></axml:sc></x>"#).unwrap().instantiate(&mut doc);
    assert!(assert_lookups_match_walks(&doc) > 0);
    assert_eq!(ServiceCall::scan(&doc).len(), 1, "the detached call is not a call of the document");
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("x")).unwrap().len(), 2);
    // Attached, both its `x` and its call count; detached again, neither.
    doc.append_child(p, stray).unwrap();
    assert!(assert_lookups_match_walks(&doc) > 0);
    assert_eq!(ServiceCall::scan(&doc).len(), 2);
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("x")).unwrap().len(), 4);
    doc.detach(p).unwrap();
    assert!(assert_lookups_match_walks(&doc) > 0);
    assert!(ServiceCall::scan(&doc).is_empty());
}

#[test]
fn calls_and_names_under_control_children_are_found_only_where_the_walk_goes() {
    // A call in a parameter is its parent's business; a handler's
    // alternative likewise; the same names under a control-named element
    // that no call owns are plain content.
    let doc = sized(
        r#"<p><axml:sc methodName="outer"><axml:params><axml:param name="in"><axml:sc methodName="param"/><x/></axml:param></axml:params><axml:catchAll><axml:retry><axml:sc methodName="alt"/></axml:retry></axml:catchAll><axml:sc methodName="result"><x/></axml:sc></axml:sc></p><axml:params><axml:sc methodName="plain"/><x/></axml:params>"#,
        OVER_THE_FLOOR,
    );
    assert!(assert_lookups_match_walks(&doc) > 0);
    let methods: Vec<String> = ServiceCall::scan(&doc).iter().map(|c| c.method.to_string()).collect();
    assert_eq!(methods, ["outer", "result", "plain"]);
    let through = TransparentView::new(&doc).descendants_named(doc.root(), &QName::new("x")).unwrap();
    assert_eq!(through.len(), 2, "the parameter's x is hidden, the result's and the plain one are not");
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("x")).unwrap().len(), 3, "the plain tree hides nothing");
}

#[test]
fn a_wrapper_as_root_is_scanned_and_keeps_its_own_children_visible() {
    let mut doc = Document::parse(
        r#"<axml:sc methodName="root"><axml:params><axml:sc methodName="param"/><y/></axml:params><axml:sc methodName="result"><axml:catch><y/></axml:catch><y/></axml:sc><y/></axml:sc>"#,
    )
    .unwrap();
    add_ballast(&mut doc, OVER_THE_FLOOR);
    assert!(assert_lookups_match_walks(&doc) > 0);
    let methods: Vec<String> = ServiceCall::scan(&doc).iter().map(|c| c.method.to_string()).collect();
    assert_eq!(methods, ["root", "result"]);
    // The walk starts from the root rather than eliding it, so the
    // root's own `axml:params` is content; the nested call's handler is not.
    let seen = TransparentView::new(&doc).descendants_named(doc.root(), &QName::new("y")).unwrap();
    assert_eq!(seen.len(), 3);
}

#[test]
fn a_renamed_element_changes_sides() {
    let mut doc = sized(r#"<p><x/><axml:sc methodName="m"/></p>"#, OVER_THE_FLOOR);
    assert_eq!(ServiceCall::scan(&doc).len(), 1, "this lookup builds the index the renames must maintain");
    let p = doc.first_child_element(doc.root(), "p").unwrap();
    let (x, sc) = (doc.child_at(p, 0).unwrap().unwrap(), doc.child_at(p, 1).unwrap().unwrap());
    doc.set_name(x, "axml:sc").unwrap();
    assert!(assert_lookups_match_walks(&doc) > 0);
    assert_eq!(ServiceCall::scan(&doc).iter().map(|c| c.node.unwrap()).collect::<Vec<_>>(), [x, sc]);
    doc.set_name(sc, "x").unwrap();
    assert!(assert_lookups_match_walks(&doc) > 0);
    assert_eq!(ServiceCall::scan(&doc).iter().map(|c| c.node.unwrap()).collect::<Vec<_>>(), [x]);
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("x")).unwrap(), [sc]);
    doc.check_consistency().unwrap();
}

#[test]
fn a_dense_name_is_walked_and_a_sparse_one_listed() {
    // `pad` is nearly every node; `x` is two of them.
    let doc = sized(r#"<p><x/><x/></p>"#, OVER_THE_FLOOR);
    assert!(
        doc.descendants_named(doc.root(), &QName::new("pad")).is_none(),
        "far more than one node in NAME_INDEX_SPARSE_RATIO"
    );
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("x")).unwrap().len(), 2);
    // Exactly at the ratio is still sparse; one more element is not.
    let at_ratio = OVER_THE_FLOOR / Document::NAME_INDEX_SPARSE_RATIO;
    let mut doc = sized(&"<y/>".repeat(at_ratio), OVER_THE_FLOOR);
    assert_eq!(doc.descendants_named(doc.root(), &QName::new("y")).unwrap().len(), at_ratio);
    let pad = doc.first_child_element(doc.root(), "pad").unwrap();
    doc.set_name(pad, "y").unwrap();
    assert!(doc.descendants_named(doc.root(), &QName::new("y")).is_none());
    assert!(assert_lookups_match_walks(&doc) > 0, "other names are still listed");
    for q in ["Select v//y from v in r", "Select v//pad from v in r", "Select v//x from v in r"] {
        assert_same_as_copy(&doc, q);
    }
}

#[test]
fn the_size_floor_decides_whether_an_index_is_ever_built() {
    let body = r#"<p><x/><axml:sc methodName="m"><x/></axml:sc></p>"#;
    let under = sized(body, Document::NAME_INDEX_MIN_NODES - 1);
    assert_eq!(assert_lookups_match_walks(&under), 0, "one node short of the floor: every lookup walks");
    assert_eq!(ServiceCall::scan(&under).len(), 1);
    let over = sized(body, Document::NAME_INDEX_MIN_NODES);
    assert!(assert_lookups_match_walks(&over) > 0, "at the floor: sparse names are listed");
    assert_eq!(over.descendants_named(over.root(), &QName::new("x")).unwrap().len(), 2);
    for q in ["Select v//x from v in r", "Select v/x/.. from v in r//p"] {
        assert_same_as_copy(&under, q);
        assert_same_as_copy(&over, q);
    }
}
