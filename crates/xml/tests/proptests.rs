//! Property-based tests for the XML substrate.
//!
//! Invariants (DESIGN.md §6):
//! - parse ∘ serialize = id on the fragment value domain;
//! - instantiate ∘ extract = id;
//! - arbitrary edit sequences keep the arena internally consistent and
//!   node ids stable;
//! - canonical equivalence is reflexive and invariant under comment noise.

use axml_xml::{
    canonical, equivalent_ordered, equivalent_unordered, escape_attr, escape_text, Document, Fragment, FragmentKind,
    NodeId, NodeKind, QName, SerializeOptions, TreeError,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

// ----------------------------------------------------------------------
// The recursive fragment `Fragment` was, as the oracle for the table it is.
// ----------------------------------------------------------------------

/// `axml_xml::Fragment` as it was before it became a flat table: a tree of
/// boxes with derived serde, equality and the recursive walks. Generated
/// values are trees; [`TreeFragment::flat`] builds the fragment under test
/// through the public constructors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum TreeFragment {
    Element { name: QName, attrs: Vec<(QName, String)>, children: Vec<TreeFragment> },
    Text(String),
    Cdata(String),
    Comment(String),
    Pi { target: String, data: String },
}

impl TreeFragment {
    fn flat(&self) -> Fragment {
        match self {
            TreeFragment::Element { name, attrs, children } => {
                let element = attrs.iter().fold(Fragment::elem(name.clone()), |e, (n, v)| e.with_attr(n.clone(), v));
                children.iter().fold(element, |e, c| e.with_child(c.flat()))
            }
            TreeFragment::Text(t) => Fragment::text(t),
            TreeFragment::Cdata(t) => Fragment::cdata(t),
            TreeFragment::Comment(t) => Fragment::comment(t),
            TreeFragment::Pi { target, data } => Fragment::pi(target, data),
        }
    }

    fn from_node(doc: &Document, node: NodeId) -> Result<TreeFragment, TreeError> {
        match doc.kind(node)? {
            NodeKind::Element { name } => {
                let mut children = Vec::new();
                for child in doc.children(node)? {
                    children.push(TreeFragment::from_node(doc, child)?);
                }
                let attrs = doc.attrs(node)?.map(|(n, v)| (n.clone(), v.to_string())).collect();
                Ok(TreeFragment::Element { name: name.clone(), attrs, children })
            }
            NodeKind::Text(t) => Ok(TreeFragment::Text(t.to_string())),
            NodeKind::Cdata(t) => Ok(TreeFragment::Cdata(t.to_string())),
            NodeKind::Comment(t) => Ok(TreeFragment::Comment(t.to_string())),
            NodeKind::Pi { target, data } => {
                Ok(TreeFragment::Pi { target: target.to_string(), data: data.to_string() })
            }
        }
    }

    fn instantiate(&self, doc: &mut Document) -> NodeId {
        match self {
            TreeFragment::Element { name, attrs, children } => {
                let id = doc.create_element_with_attrs(name.clone(), attrs.iter().cloned());
                for child in children {
                    let cid = child.instantiate(doc);
                    doc.append_child(id, cid).expect("freshly created element accepts children");
                }
                id
            }
            TreeFragment::Text(t) => doc.create_text(t.clone()),
            TreeFragment::Cdata(t) => doc.create_cdata(t.clone()),
            TreeFragment::Comment(t) => doc.create_comment(t.clone()),
            TreeFragment::Pi { target, data } => doc.create_pi(target.clone(), data.clone()),
        }
    }

    fn attr(&self, name: &str) -> Option<&str> {
        match self {
            TreeFragment::Element { attrs, .. } => {
                attrs.iter().find(|(n, _)| n.matches_raw(name)).map(|(_, v)| v.as_str())
            }
            _ => None,
        }
    }

    fn children(&self) -> &[TreeFragment] {
        match self {
            TreeFragment::Element { children, .. } => children,
            _ => &[],
        }
    }

    fn text_content(&self) -> String {
        match self {
            TreeFragment::Text(t) | TreeFragment::Cdata(t) => t.clone(),
            TreeFragment::Element { children, .. } => children.iter().map(TreeFragment::text_content).collect(),
            _ => String::new(),
        }
    }

    fn node_count(&self) -> usize {
        match self {
            TreeFragment::Element { children, .. } => 1 + children.iter().map(TreeFragment::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    fn write_xml(&self, out: &mut String) {
        match self {
            TreeFragment::Element { name, attrs, children } => {
                out.push_str(&format!("<{name}"));
                for (an, av) in attrs {
                    out.push_str(&format!(" {an}=\"{}\"", escape_attr(av)));
                }
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in children {
                        c.write_xml(out);
                    }
                    out.push_str(&format!("</{name}>"));
                }
            }
            TreeFragment::Text(t) => out.push_str(&escape_text(t)),
            TreeFragment::Cdata(t) => out.push_str(&format!("<![CDATA[{t}]]>")),
            TreeFragment::Comment(t) => out.push_str(&format!("<!--{t}-->")),
            TreeFragment::Pi { target, data } if data.is_empty() => out.push_str(&format!("<?{target}?>")),
            TreeFragment::Pi { target, data } => out.push_str(&format!("<?{target} {data}?>")),
        }
    }

    /// The subtrees below (and including) this one, in document order.
    fn subtrees(&self) -> Vec<&TreeFragment> {
        let mut all = vec![self];
        for child in self.children() {
            all.extend(child.subtrees());
        }
        all
    }
}

/// [`TreeFragment::subtrees`] of the flat fragment: views of views.
fn flat_subtrees(f: &Fragment) -> Vec<Fragment> {
    let mut all = vec![f.clone()];
    for child in f.children() {
        all.extend(flat_subtrees(&child));
    }
    all
}

fn json_of<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Strategy for XML names (restricted alphabet keeps shrinking readable).
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,7}"
}

/// Strategy for text content, including characters that require escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    // Avoid strings that are pure whitespace (parser trims those) and avoid
    // the control characters the serializer does not round-trip.
    "[ -~]{1,20}".prop_map(|s| s.trim().to_string()).prop_filter("non-empty after trim", |s| !s.is_empty())
}

fn attr_strategy() -> impl Strategy<Value = (QName, String)> {
    (name_strategy(), text_strategy()).prop_map(|(n, v)| (QName::local(n), v))
}

/// Recursive fragment strategy.
fn fragment_strategy() -> impl Strategy<Value = Fragment> {
    let leaf = prop_oneof![
        text_strategy().prop_map(TreeFragment::Text),
        (name_strategy(), prop::collection::vec(attr_strategy(), 0..3)).prop_map(|(n, mut attrs)| {
            attrs.sort();
            attrs.dedup_by(|a, b| a.0 == b.0);
            TreeFragment::Element { name: QName::local(n), attrs, children: vec![] }
        }),
    ];
    leaf.prop_recursive(4, 64, 5, |inner| {
        (name_strategy(), prop::collection::vec(attr_strategy(), 0..3), prop::collection::vec(inner, 0..5)).prop_map(
            |(n, mut attrs, children)| {
                attrs.sort();
                attrs.dedup_by(|a, b| a.0 == b.0);
                // Adjacent text nodes are merged by the parser; normalize the
                // generated value so round-trips are comparable.
                let mut merged: Vec<TreeFragment> = Vec::new();
                for c in children {
                    match (merged.last_mut(), c) {
                        (Some(TreeFragment::Text(prev)), TreeFragment::Text(t)) => prev.push_str(&t),
                        (_, c) => merged.push(c),
                    }
                }
                TreeFragment::Element { name: QName::local(n), attrs, children: merged }
            },
        )
    })
    .prop_map(|tree| tree.flat())
}

/// Element-rooted fragment (documents need an element root).
fn element_strategy() -> impl Strategy<Value = Fragment> {
    fragment_strategy().prop_filter("element root", |f| matches!(f.kind(), FragmentKind::Element { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_serialize_roundtrip(frag in element_strategy()) {
        let xml = frag.to_xml();
        let parsed = Fragment::parse_one(&xml).unwrap();
        // Trimming: the parser trims leading/trailing whitespace of text
        // nodes, so compare canonically.
        prop_assert!(canonical::fragments_equivalent_ordered(&frag, &parsed),
            "frag={frag:?} xml={xml} parsed={parsed:?}");
    }

    #[test]
    fn instantiate_extract_roundtrip(frag in fragment_strategy()) {
        let mut doc = Document::new("host");
        let root = doc.root();
        let id = doc.append_fragment(root, &frag).unwrap();
        let back = doc.extract_fragment(id).unwrap();
        prop_assert_eq!(&back, &frag);
        doc.check_consistency().unwrap();
    }

    #[test]
    fn document_roundtrip_through_text(frag in element_strategy()) {
        let mut doc = Document::new("host");
        let root = doc.root();
        doc.append_fragment(root, &frag).unwrap();
        let xml = doc.to_xml();
        let doc2 = Document::parse(&xml).unwrap();
        prop_assert!(equivalent_ordered(&doc, &doc2), "xml={xml}");
        prop_assert!(equivalent_unordered(&doc, &doc2));
    }

    #[test]
    fn random_edit_sequences_keep_consistency(
        frags in prop::collection::vec(fragment_strategy(), 1..8),
        ops in prop::collection::vec(0u8..4, 1..30),
        seeds in prop::collection::vec(any::<u32>(), 30),
    ) {
        let mut doc = Document::new("r");
        let root = doc.root();
        for f in &frags {
            doc.append_fragment(root, f).unwrap();
        }
        let mut live: Vec<NodeId> = doc.all_nodes().collect();
        for (i, op) in ops.iter().enumerate() {
            let seed = seeds[i % seeds.len()] as usize;
            if live.is_empty() { break; }
            let target = live[seed % live.len()];
            match op {
                0 => {
                    // Append a fresh element under an element target.
                    if doc.contains(target) && doc.name(target).is_ok() {
                        let e = doc.create_element(format!("e{i}"));
                        doc.append_child(target, e).unwrap();
                    }
                }
                1 => {
                    // Delete the target subtree (root excluded).
                    if doc.contains(target) && target != root {
                        doc.delete(target).unwrap();
                    }
                }
                2 => {
                    // Set an attribute if it's an element.
                    if doc.contains(target) && doc.name(target).is_ok() {
                        doc.set_attr(target, "k", format!("{i}")).unwrap();
                    }
                }
                _ => {
                    // Detach + reinsert at front of root.
                    if doc.contains(target) && target != root
                        && doc.parent(target).ok().flatten().is_some() {
                        doc.detach(target).unwrap();
                        doc.insert_child(root, 0, target).unwrap();
                    }
                }
            }
            doc.check_consistency().unwrap();
            live = doc.all_nodes().collect();
        }
        // All live ids still resolve; all remembered-but-deleted ids are stale.
        for id in &live {
            prop_assert!(doc.contains(*id));
        }
    }

    #[test]
    fn comment_noise_does_not_affect_equivalence(frag in element_strategy()) {
        let mut a = Document::new("host");
        let ra = a.root();
        a.append_fragment(ra, &frag).unwrap();
        let mut b = Document::new("host");
        let rb = b.root();
        let c1 = b.create_comment("noise");
        b.append_child(rb, c1).unwrap();
        b.append_fragment(rb, &frag).unwrap();
        let c2 = b.create_comment("more noise");
        b.append_child(rb, c2).unwrap();
        prop_assert!(equivalent_ordered(&a, &b));
    }

    #[test]
    fn subtree_size_matches_fragment_node_count(frag in fragment_strategy()) {
        let mut doc = Document::new("host");
        let root = doc.root();
        let id = doc.append_fragment(root, &frag).unwrap();
        prop_assert_eq!(doc.subtree_size(id), frag.node_count());
    }

    #[test]
    fn remove_then_restore_is_identity(frag in element_strategy(), extra in element_strategy()) {
        let mut doc = Document::new("host");
        let root = doc.root();
        doc.append_fragment(root, &extra).unwrap();
        let id = doc.append_fragment(root, &frag).unwrap();
        doc.append_fragment(root, &extra).unwrap();
        let before = doc.to_xml();
        let (captured, parent, pos) = doc.remove_to_fragment(id).unwrap();
        prop_assert_eq!(&captured, &frag);
        doc.insert_fragment(parent, pos, &captured).unwrap();
        prop_assert_eq!(doc.to_xml(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics: arbitrary input yields Ok or a located
    /// error, and successful parses produce consistent arenas.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        match Document::parse(&input) {
            Ok(doc) => {
                doc.check_consistency().unwrap();
                // And what we serialize re-parses.
                let again = Document::parse(&doc.to_xml()).unwrap();
                prop_assert!(equivalent_ordered(&doc, &again));
            }
            Err(e) => {
                prop_assert!(e.line >= 1);
                prop_assert!(e.column >= 1);
            }
        }
    }

    /// Near-XML input (random tags/text glued together) never panics.
    #[test]
    fn parser_never_panics_on_tag_soup(
        pieces in prop::collection::vec(
            prop_oneof![
                "[a-z]{1,4}".prop_map(|t| format!("<{t}>")),
                "[a-z]{1,4}".prop_map(|t| format!("</{t}>")),
                "[a-z]{1,4}".prop_map(|t| format!("<{t}/>")),
                Just("<![CDATA[".to_string()),
                Just("]]>".to_string()),
                Just("<!--".to_string()),
                Just("-->".to_string()),
                Just("&amp;".to_string()),
                Just("&#x41;".to_string()),
                Just("&bogus;".to_string()),
                "[ -~]{0,8}".prop_map(|s| s),
            ],
            0..24,
        )
    ) {
        let input: String = pieces.concat();
        let _ = Document::parse(&input); // must not panic
        let _ = Fragment::parse_all(&input); // must not panic
    }
}

// ----------------------------------------------------------------------
// The element-name index under edits.
// ----------------------------------------------------------------------

/// A vocabulary small enough that every name recurs.
const INDEXED_NAMES: [&str; 5] = ["a", "b", "c", "axml:sc", "axml:params"];

/// Applies edit `op` to `doc`, aimed by `x` and `y` at `known` — every id
/// the script has seen that is still live, attached or not. Refused edits
/// (cycles, a text node as parent, the root as victim) are part of the
/// script: they must leave the index alone too.
fn scripted_edit(doc: &mut Document, known: &mut Vec<NodeId>, op: u8, x: usize, y: usize) {
    known.retain(|n| doc.contains(*n));
    let (at, other, name) = (known[x % known.len()], known[y % known.len()], INDEXED_NAMES[y % INDEXED_NAMES.len()]);
    let subtree =
        Fragment::elem(name).with_child(Fragment::elem(INDEXED_NAMES[x % INDEXED_NAMES.len()]).with_text("t"));
    match op {
        0 => known.push(doc.create_element(name)),
        1 => known.push(doc.create_text(name)),
        2 => drop(doc.append_child(other, at)),
        3 => {
            let slots = doc.children(other).map_or(1, |c| c.len() + 1);
            drop(doc.insert_child(other, x % slots, at));
        }
        4 => drop(doc.detach(at)),
        5 => drop(doc.delete(at)),
        6 => {
            let new = doc.create_element(name);
            known.push(new);
            if doc.replace(at, new).is_err() {
                doc.delete(new).unwrap();
            }
        }
        7 => drop(doc.set_name(at, name)),
        8 => {
            if let Ok(id) = doc.insert_fragment(at, 0, &subtree) {
                known.extend(doc.descendants_and_self(id));
            }
        }
        9 => drop(doc.remove_to_fragment(at)),
        10 => {
            // An update and its compensation: delete, then re-insert the
            // logged subtree where it stood.
            if let Ok((logged, parent, pos)) = doc.remove_to_fragment(at) {
                let id = doc.insert_fragment(parent, pos, &logged).unwrap();
                known.extend(doc.descendants_and_self(id));
            }
        }
        11 => {
            // The other way round: insert, then delete the returned id.
            if let Ok(id) = doc.insert_fragment(at, 0, &subtree) {
                doc.delete(id).unwrap();
            }
        }
        _ => *doc = doc.clone(),
    }
}

fn sorted_named(doc: &Document, name: &str) -> Vec<NodeId> {
    let mut found = doc.elements_named(&QName::new(name)).into_owned();
    found.sort();
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two documents take the same edit script; one has its name index
    /// built at some point — before the script, in the middle of it or
    /// after it — the other never does and answers by looking through its
    /// arena. After every step both are consistent and list the same
    /// elements under every name.
    #[test]
    fn the_name_index_follows_every_edit(
        frags in prop::collection::vec(fragment_strategy(), 0..4),
        script in prop::collection::vec((0u8..13, any::<usize>(), any::<usize>()), 1..40),
        build_at in 0usize..41,
    ) {
        let mut plain = Document::new("a");
        let root = plain.root();
        for f in &frags {
            plain.append_fragment(root, f).unwrap();
        }
        let mut indexed = plain.clone();
        let mut known: Vec<NodeId> = plain.all_nodes().collect();
        let mut known_indexed = known.clone();
        for (step, (op, x, y)) in script.iter().enumerate() {
            if step == build_at {
                indexed.ensure_name_index();
            }
            scripted_edit(&mut plain, &mut known, *op, *x, *y);
            scripted_edit(&mut indexed, &mut known_indexed, *op, *x, *y);
            prop_assert_eq!(&known, &known_indexed, "the index never changes which id an edit returns");
            prop_assert_eq!(plain.check_consistency(), indexed.check_consistency());
            indexed.check_consistency().unwrap();
            for name in INDEXED_NAMES {
                prop_assert_eq!(sorted_named(&indexed, name), sorted_named(&plain, name), "step {} op {} `{}`", step, op, name);
            }
        }
        indexed.ensure_name_index();
        indexed.check_consistency().unwrap();
        for name in INDEXED_NAMES {
            prop_assert_eq!(sorted_named(&indexed, name), sorted_named(&plain, name), "`{}` after the script", name);
        }
        prop_assert_eq!(indexed.to_xml(), plain.to_xml());
    }
}

/// The climb as it was when every key was a `Vec` of its own: the child
/// positions from `stop` — or, without one, the top of `node`'s tree —
/// down to `node`. The oracle for the keys that now share one buffer.
fn path_up_oracle(doc: &Document, node: NodeId, stop: Option<NodeId>) -> Option<Vec<usize>> {
    let mut path = Vec::new();
    let mut cur = node;
    let mut parent = doc.parent(node).ok()?;
    while Some(cur) != stop {
        let Some(up) = parent else {
            if stop.is_some() {
                return None;
            }
            break;
        };
        path.push(doc.children(up).ok()?.position(|c| c == cur)?);
        cur = up;
        parent = doc.parent(up).ok()?;
    }
    path.reverse();
    Some(path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any edit script — attached nodes, detached subtrees and ids
    /// gone stale alike — a key written into a shared buffer is the key
    /// the allocating climb computed, an order comparison is a comparison
    /// of those keys, and `attached_below` is a sort by them.
    #[test]
    fn document_order_keys_in_one_buffer_match_the_allocating_climb(
        frags in prop::collection::vec(fragment_strategy(), 0..4),
        script in prop::collection::vec((0u8..13, any::<usize>(), any::<usize>()), 0..30),
        pick in any::<usize>(),
    ) {
        let mut doc = Document::new("a");
        let root = doc.root();
        for f in &frags {
            doc.append_fragment(root, f).unwrap();
        }
        let mut known: Vec<NodeId> = doc.all_nodes().collect();
        let mut seen = known.clone();
        for (op, x, y) in &script {
            scripted_edit(&mut doc, &mut known, *op, *x, *y);
            for n in &known {
                if !seen.contains(n) {
                    seen.push(*n);
                }
            }
        }
        // `seen` keeps the ids the script deleted: stale ones.
        // One `Climb` across every key, as a sort keeps it: whatever it
        // remembers of the last node, the next key is the climbed one.
        let (mut buffer, mut near) = (vec![usize::MAX; 3], axml_xml::Climb::default());
        for &n in &seen {
            let start = buffer.len();
            let live = doc.document_order_key_into(n, &mut buffer, &mut near);
            let expected = path_up_oracle(&doc, n, None);
            prop_assert_eq!(live, expected.is_some());
            prop_assert_eq!(&buffer[start..], expected.as_deref().unwrap_or_default());
            prop_assert_eq!(&buffer[..3], &[usize::MAX; 3][..], "earlier keys are left alone");
        }
        for &a in &seen {
            let b = seen[pick % seen.len()];
            let expected = match (path_up_oracle(&doc, a, None), path_up_oracle(&doc, b, None)) {
                _ if a == b => Some(std::cmp::Ordering::Equal),
                (Some(ka), Some(kb)) => Some(ka.cmp(&kb)),
                _ => None,
            };
            prop_assert_eq!(doc.cmp_document_order(a, b).ok(), expected);
        }
        let ancestor = seen[pick % seen.len()];
        let mut expected: Vec<(Vec<usize>, NodeId)> =
            seen.iter().filter_map(|&n| Some((path_up_oracle(&doc, n, Some(ancestor))?, n))).collect();
        expected.sort_unstable();
        let expected: Vec<NodeId> = expected.into_iter().map(|(_, n)| n).collect();
        prop_assert_eq!(doc.attached_below(ancestor, seen.iter().copied()), expected);
    }
}

/// XML punctuation interleaved with multi-byte characters, so every byte
/// offset the parser computes gets a chance to land inside one.
const XML_SOUP: &[&str] = &[
    "<",
    ">",
    "</",
    "/>",
    "=",
    "\"",
    "'",
    "&",
    ";",
    "&#",
    "&#x",
    "<!--",
    "-->",
    "<![CDATA[",
    "]]>",
    "<?",
    "?>",
    "<!DOCTYPE",
    "[",
    "]",
    "r",
    "a",
    ":",
    "0",
    "-",
    " ",
    "\t",
    "\n",
    "é",
    "日",
    "\u{a0}",
];

/// The parser scans bytewise in places (`bump`), so the offset it reports
/// an error at can fall inside a multi-byte character; building the error
/// must not slice the input there.
#[test]
fn malformed_input_with_multibyte_chars_is_an_error_not_a_panic() {
    let err = Document::parse("<a b=日/>").expect_err("unquoted attribute value");
    assert!(err.message.contains("quoted attribute value"), "{err}");
    assert_eq!((err.offset, err.line, err.column), (5, 1, 6), "reported at the offending character's start");
    for hostile in ["<r><:0\t日</r>", "<r a='日", "<!DOCTYPE 日", "<r>&#日;</r>", "<日 日=日>"] {
        assert!(Document::parse(hostile).is_err(), "{hostile}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_multibyte_soup(picks in prop::collection::vec(0usize..XML_SOUP.len(), 0..24)) {
        let input: String = picks.iter().map(|i| XML_SOUP[*i]).collect();
        let _ = Document::parse(&input);
        let _ = Document::parse(&format!("<r>{input}</r>"));
        let _ = Document::parse(&format!("<r {input}/>"));
        let _ = Document::parse(&format!("<r a={input}/>"));
    }
}

// ----------------------------------------------------------------------
// The serializer against the allocating one it replaced.
// ----------------------------------------------------------------------

/// The escapers as they were: a `String` per call, a `char` at a time.
fn escape_oracle(s: &str, attr: bool) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\n' if attr => out.push_str("&#10;"),
            '\t' if attr => out.push_str("&#9;"),
            _ => out.push(c),
        }
    }
    out
}

/// `write_node` as it was before it appended in place: `as_string` and
/// `escape_*` temporaries, a copied child list, inline children written
/// with their own non-pretty options. Reads the tree through the public
/// API only.
fn write_node_oracle(doc: &Document, node: NodeId, pretty: bool, depth: usize, out: &mut String) {
    let indent = |out: &mut String, depth: usize| {
        if pretty {
            out.push_str(&"  ".repeat(depth));
        }
    };
    match doc.kind(node) {
        Ok(NodeKind::Element { name }) => {
            indent(out, depth);
            out.push('<');
            out.push_str(&name.as_string());
            for (an, av) in doc.attrs(node).unwrap() {
                out.push_str(&format!(" {}=\"{}\"", an.as_string(), escape_oracle(av, true)));
            }
            let children: Vec<NodeId> = doc.children(node).unwrap_or_default().collect();
            if children.is_empty() {
                out.push_str("/>");
                if pretty {
                    out.push('\n');
                }
                return;
            }
            out.push('>');
            let block = pretty
                && children.iter().any(|c| {
                    matches!(doc.kind(*c), Ok(NodeKind::Element { .. } | NodeKind::Comment(_) | NodeKind::Pi { .. }))
                });
            if block {
                out.push('\n');
            }
            for child in children {
                if block {
                    write_node_oracle(doc, child, pretty, depth + 1, out);
                } else {
                    write_node_oracle(doc, child, false, 0, out);
                }
            }
            if block {
                indent(out, depth);
            }
            out.push_str(&format!("</{}>", name.as_string()));
            if pretty {
                out.push('\n');
            }
        }
        Ok(NodeKind::Text(t)) => out.push_str(&escape_oracle(t, false)),
        Ok(NodeKind::Cdata(t)) => out.push_str(&format!("<![CDATA[{t}]]>")),
        Ok(NodeKind::Comment(t)) => {
            indent(out, depth);
            out.push_str(&format!("<!--{t}-->"));
            if pretty {
                out.push('\n');
            }
        }
        Ok(NodeKind::Pi { target, data }) => {
            indent(out, depth);
            out.push_str(&format!("<?{target}"));
            if !data.is_empty() {
                out.push_str(&format!(" {data}"));
            }
            out.push_str("?>");
            if pretty {
                out.push('\n');
            }
        }
        Err(_) => {}
    }
}

fn serialize_oracle(doc: &Document, node: NodeId, opts: &SerializeOptions) -> String {
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.pretty {
            out.push('\n');
        }
    }
    write_node_oracle(doc, node, opts.pretty, 0, &mut out);
    out
}

/// Text over an alphabet where every escaped character is frequent.
fn markup_text_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = ['a', 'z', ' ', '&', '<', '>', '"', '\'', '\n', '\t', 'é', 'λ'];
    prop::collection::vec(0usize..ALPHABET.len(), 0..12).prop_map(|picks| picks.iter().map(|i| ALPHABET[*i]).collect())
}

fn markup_name_strategy() -> impl Strategy<Value = QName> {
    const NAMES: [&str; 6] = ["a", "item", "axml:sc", "axml:params", "ns:deep", "x:y:z"];
    (0usize..NAMES.len()).prop_map(|i| QName::new(NAMES[i]))
}

/// Fragments of every node kind, with prefixed names and attribute and
/// text content that needs escaping, as the trees they used to be.
fn markup_tree_strategy() -> impl Strategy<Value = TreeFragment> {
    let attrs = || prop::collection::vec((markup_name_strategy(), markup_text_strategy()), 0..3);
    let leaf = prop_oneof![
        markup_text_strategy().prop_map(TreeFragment::Text),
        "[a-z<&\\]]{0,6}".prop_map(TreeFragment::Cdata),
        "[a-z <&]{0,6}".prop_map(TreeFragment::Comment),
        ("[a-z]{1,4}", "[a-z =]{0,6}").prop_map(|(target, data)| TreeFragment::Pi { target, data }),
        (markup_name_strategy(), attrs()).prop_map(|(name, attrs)| TreeFragment::Element {
            name,
            attrs,
            children: vec![]
        }),
    ];
    leaf.prop_recursive(4, 48, 4, move |inner| {
        (markup_name_strategy(), attrs(), prop::collection::vec(inner, 0..4))
            .prop_map(|(name, attrs, children)| TreeFragment::Element { name, attrs, children })
    })
}

fn markup_fragment_strategy() -> impl Strategy<Value = Fragment> {
    markup_tree_strategy().prop_map(|tree| tree.flat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact, pretty and declaration-less pretty output, whole documents
    /// and subtrees, `Fragment::to_xml` and the public escapers: every
    /// byte the appending writer produces is the byte the allocating one
    /// produced, and the append form leaves what the buffer held alone.
    #[test]
    fn the_appending_serializer_writes_the_bytes_of_the_allocating_one(
        frags in prop::collection::vec(markup_fragment_strategy(), 0..4),
        text in markup_text_strategy(),
    ) {
        let mut doc = Document::new("axml:root");
        let root = doc.root();
        doc.set_attr(root, "ns:k", text.as_str()).unwrap();
        let ids: Vec<NodeId> = frags.iter().map(|f| doc.append_fragment(root, f).unwrap()).collect();

        let compact = SerializeOptions::compact();
        prop_assert_eq!(doc.to_xml(), serialize_oracle(&doc, root, &compact));
        for opts in [SerializeOptions::pretty(), SerializeOptions { declaration: false, pretty: true }, compact] {
            prop_assert_eq!(doc.to_xml_with(&opts), serialize_oracle(&doc, root, &opts));
        }
        for (id, frag) in ids.iter().zip(&frags) {
            let expected = serialize_oracle(&doc, *id, &SerializeOptions::compact());
            prop_assert_eq!(doc.subtree_to_xml(*id), expected.as_str());
            prop_assert_eq!(frag.to_xml(), expected.as_str());
        }
        let mut buffer = String::from("kept ");
        doc.write_xml(&mut buffer);
        prop_assert_eq!(buffer, format!("kept {}", doc.to_xml()));

        prop_assert_eq!(escape_text(&text), escape_oracle(&text, false));
        prop_assert_eq!(escape_attr(&text), escape_oracle(&text, true));
    }
}

// ----------------------------------------------------------------------
// The flat fragment against the recursive one.
// ----------------------------------------------------------------------

/// `tree` with one attribute value changed, if it has an attribute
/// anywhere (the first in document order).
fn with_one_attr_changed(tree: &TreeFragment) -> Option<TreeFragment> {
    let TreeFragment::Element { name, attrs, children } = tree else { return None };
    let (name, mut attrs, mut children) = (name.clone(), attrs.clone(), children.clone());
    if let Some((_, value)) = attrs.first_mut() {
        value.push('!');
    } else {
        let at = children.iter().position(|c| with_one_attr_changed(c).is_some())?;
        children[at] = with_one_attr_changed(&children[at])?;
    }
    Some(TreeFragment::Element { name, attrs, children })
}

/// `tree` with the first unequal pair of adjacent siblings swapped.
fn with_one_sibling_pair_swapped(tree: &TreeFragment) -> Option<TreeFragment> {
    let TreeFragment::Element { name, attrs, children } = tree else { return None };
    let mut children = children.clone();
    if let Some(at) = children.windows(2).position(|w| w[0] != w[1]) {
        children.swap(at, at + 1);
    } else {
        let at = children.iter().position(|c| with_one_sibling_pair_swapped(c).is_some())?;
        children[at] = with_one_sibling_pair_swapped(&children[at])?;
    }
    Some(TreeFragment::Element { name: name.clone(), attrs: attrs.clone(), children })
}

/// A host document holding `trees` side by side under its root, built
/// through the old instantiation; returns the ids of their roots.
fn host_of(trees: &[TreeFragment]) -> (Document, Vec<NodeId>) {
    let mut doc = Document::new("host");
    let root = doc.root();
    let ids = trees
        .iter()
        .map(|t| {
            let id = t.instantiate(&mut doc);
            doc.append_child(root, id).unwrap();
            id
        })
        .collect();
    (doc, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Everything a fragment can be asked, asked of the flat table and of
    /// the tree of boxes it replaced — of whole fragments and of every
    /// child view, views of views included.
    #[test]
    fn a_flat_fragment_answers_as_the_recursive_one_did(tree in markup_tree_strategy()) {
        let flat = tree.flat();
        let views = flat_subtrees(&flat);
        let subtrees = tree.subtrees();
        prop_assert_eq!(views.len(), subtrees.len());
        for (view, sub) in views.iter().zip(&subtrees) {
            prop_assert_eq!(view.to_xml(), sub.to_xml());
            prop_assert_eq!(format!("{view}"), sub.to_xml());
            prop_assert_eq!(json_of(view), json_of(*sub));
            prop_assert_eq!(format!("{view:?}"), format!("{sub:?}"));
            prop_assert_eq!(format!("{view:#?}"), format!("{sub:#?}"));
            prop_assert_eq!(view.node_count(), sub.node_count());
            prop_assert_eq!(view.text_content(), sub.text_content());
            prop_assert_eq!(view.children().count(), sub.children().len());
            for name in ["a", "item", "axml:sc", "ns:deep", "x:y:z", "sc", "missing"] {
                prop_assert_eq!(view.attr(name), sub.attr(name));
            }
            // A view equals the same subtree in a table of its own, and
            // building on a view leaves the table it looks into alone.
            prop_assert_eq!(view, &sub.flat());
            let grown = view.clone().with_attr("added", "1").with_text("more");
            prop_assert_eq!(grown == *view, view.name().is_none());
        }
        prop_assert_eq!(flat.to_xml(), tree.to_xml(), "views were built on, the table was not written");

        // JSON: the derived encoding's bytes, and both decoders read them.
        let value: Value = serde_json::from_str(&json_of(&tree)).unwrap();
        prop_assert_eq!(&Fragment::from_value(&value).unwrap(), &flat);
        prop_assert_eq!(&TreeFragment::from_value(&value).unwrap(), &tree);
        let list = vec![flat.clone(), flat.clone()];
        prop_assert_eq!(json_of(&list), json_of(&vec![tree.clone(), tree.clone()]));

        // Equality is structural: the same tree built twice is equal, one
        // changed attribute value or one swapped sibling pair is not.
        prop_assert_eq!(&flat, &tree.flat());
        prop_assert_eq!(&flat, &flat.clone());
        for other in [with_one_attr_changed(&tree), with_one_sibling_pair_swapped(&tree)].into_iter().flatten() {
            prop_assert!(other != tree);
            prop_assert!(other.flat() != flat, "{other:?} equals {tree:?}");
        }
    }

    /// Instantiating a flat fragment allocates the ids, in the order, the
    /// recursive one did, and capturing the result gives the fragment back.
    #[test]
    fn instantiate_and_capture_are_the_recursive_walks(trees in prop::collection::vec(markup_tree_strategy(), 1..4)) {
        let (old, old_ids) = host_of(&trees);
        let mut new = Document::new("host");
        let root = new.root();
        for (tree, old_id) in trees.iter().zip(&old_ids) {
            let flat = tree.flat();
            let id = new.append_fragment(root, &flat).unwrap();
            prop_assert_eq!(id, *old_id);
            prop_assert_eq!(&Fragment::from_node(&new, id).unwrap(), &flat);
            prop_assert_eq!(&TreeFragment::from_node(&new, id).unwrap(), tree);
        }
        prop_assert_eq!(new.to_xml(), old.to_xml());
        prop_assert_eq!(new.all_nodes().collect::<Vec<_>>(), old.all_nodes().collect::<Vec<_>>());
        new.check_consistency().unwrap();
    }

    /// `remove_to_fragment` is the old capture, detach and delete: the
    /// same fragment, the same document, the same slots handed out
    /// afterwards — with the name index built or not.
    #[test]
    fn remove_to_fragment_is_capture_then_detach_then_delete(
        trees in prop::collection::vec(markup_tree_strategy(), 1..4),
        pick in any::<usize>(),
        indexed in any::<bool>(),
    ) {
        let (mut old, _) = host_of(&trees);
        if indexed {
            old.ensure_name_index();
        }
        let mut new = old.clone();
        let victims: Vec<NodeId> = old.all_nodes().skip(1).collect();
        let victim = victims[pick % victims.len()];

        let expected = TreeFragment::from_node(&old, victim).unwrap();
        let (parent, pos) = old.detach(victim).unwrap();
        old.delete(victim).unwrap();

        let (captured, new_parent, new_pos) = new.remove_to_fragment(victim).unwrap();
        prop_assert_eq!(&captured, &expected.flat());
        prop_assert_eq!(json_of(&captured), json_of(&expected));
        prop_assert_eq!((new_parent, new_pos), (parent, pos));
        prop_assert_eq!(new.to_xml(), old.to_xml());
        prop_assert_eq!(new.node_count(), old.node_count());
        prop_assert_eq!(new.check_consistency(), old.check_consistency());
        new.check_consistency().unwrap();
        prop_assert!(!new.contains(victim));
        for name in ["a", "item", "axml:sc", "axml:params", "ns:deep", "x:y:z", "host"] {
            prop_assert_eq!(sorted_named(&new, name), sorted_named(&old, name), "//{}", name);
        }
        // The freed slots come back in the same order: the compensating
        // insert's ids are the ones the log of the old walk recorded.
        prop_assert_eq!(captured.instantiate(&mut new), expected.instantiate(&mut old));
        prop_assert_eq!(new.create_element("next"), old.create_element("next"));
        prop_assert_eq!(new.all_nodes().collect::<Vec<_>>(), old.all_nodes().collect::<Vec<_>>());
    }
}

/// JSON values shaped nearly like a fragment: the right tags and field
/// names in the wrong places, missing fields, non-string text.
fn hostile_value_strategy() -> impl Strategy<Value = Value> {
    const KEYS: [&str; 13] = [
        "Element", "Text", "Cdata", "Comment", "Pi", "name", "attrs", "children", "target", "data", "prefix", "local",
        "Other",
    ];
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..3).prop_map(Value::Int),
        "[a-z<&\"]{0,4}".prop_map(Value::Str),
        (0usize..KEYS.len()).prop_map(|k| Value::Str(KEYS[k].to_string())),
    ];
    leaf.prop_recursive(5, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            prop::collection::vec((0usize..KEYS.len(), inner), 0..4)
                .prop_map(|entries| Value::Map(entries.into_iter().map(|(k, v)| (KEYS[k].to_string(), v)).collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Decoding never panics, accepts exactly what the derived decoder
    /// accepted, and reads it as the same tree.
    #[test]
    fn from_value_accepts_what_the_derived_decoder_accepted(value in hostile_value_strategy()) {
        match (Fragment::from_value(&value), TreeFragment::from_value(&value)) {
            (Ok(flat), Ok(tree)) => {
                prop_assert_eq!(&flat, &tree.flat());
                prop_assert_eq!(json_of(&flat), json_of(&tree));
            }
            (Err(_), Err(_)) => {}
            (flat, tree) => prop_assert!(false, "{value:?}: flat {flat:?}, tree {tree:?}"),
        }
    }
}
