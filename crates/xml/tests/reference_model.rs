//! The arena `Document` had before its nodes became plain records, kept
//! as the oracle for the one it has now.
//!
//! [`Model`] is that arena reduced to what the properties need: a vector
//! of slots each holding an `Option` of a node with a `Vec` of children
//! and owned strings, the same generations and the same LIFO free list.
//! Generated edit scripts drive it and the real document through every
//! public mutator — refused edits, stale ids and ids of another document
//! included — and after every step everything observable must agree: the
//! ids and errors returned, the XML, child lists in both directions,
//! positions, paths, by-name lookups with and without the index, and the
//! document's own consistency check (links, counts, dead-string
//! accounting).
//!
//! Three hand-made mutations of the node store, each caught here (run on
//! the commit that introduced this file): a compaction that leaves
//! attribute spans pointing into the old run fails
//! `a_long_replace_loop_stays_compact_and_unchanged` (a slice out of
//! range at the first compaction); `unlink` not handing a last child's
//! `prev` to the first fails `scripts_agree` and two more at the first
//! `check_consistency` ("first child does not point back at the last");
//! a builder that writes into a batch table in place whenever it is the
//! only holder — not asking whether it spans the table — fails
//! `a_view_of_a_batch_table_is_copied_out_before_it_is_built_on`.
//!
//! A subtree remembers the fragment it is a copy of until an edit below it
//! (DESIGN.md §18). Dropping the forgetting from any one of the six places
//! an edit does it — `insert_child`, `unlink`, `set_name`, `set_node_text`,
//! `set_attr`, `remove_attr` — fails
//! `a_fragment_handed_out_is_what_its_subtree_held_just_before`; all but
//! the last also fail `scripts_agree` and
//! `a_batch_capture_is_the_captures_one_by_one`.

use axml_query::NodePath;
use axml_xml::{Document, Fragment, FragmentKind, NodeId, QName, TreeError};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::HashSet;
use std::hash::{BuildHasher, RandomState};

// ----------------------------------------------------------------------
// The old arena.
// ----------------------------------------------------------------------

/// `(index, generation)`: what [`NodeId::raw`] returns.
type Raw = (u32, u32);

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Element { name: QName, attrs: Vec<(QName, String)> },
    Text(String),
    Cdata(String),
    Comment(String),
    Pi { target: String, data: String },
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<Raw>,
    children: Vec<Raw>,
    kind: Kind,
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    node: Option<Node>,
}

/// A subtree as a tree of boxes: what the old arena hands out on removal.
#[derive(Debug, Clone)]
struct Tree {
    kind: Kind,
    children: Vec<Tree>,
}

impl Tree {
    fn of(f: &Fragment) -> Tree {
        let kind = match f.kind() {
            FragmentKind::Element { name } => Kind::Element {
                name: name.clone(),
                attrs: f.attrs().map(|(n, v)| (n.clone(), v.to_string())).collect(),
            },
            FragmentKind::Text(t) => Kind::Text(t.to_string()),
            FragmentKind::Cdata(t) => Kind::Cdata(t.to_string()),
            FragmentKind::Comment(t) => Kind::Comment(t.to_string()),
            FragmentKind::Pi { target, data } => Kind::Pi { target: target.to_string(), data: data.to_string() },
        };
        Tree { kind, children: f.children().map(|c| Tree::of(&c)).collect() }
    }

    fn fragment(&self) -> Fragment {
        match &self.kind {
            Kind::Element { name, attrs } => {
                let element = attrs.iter().fold(Fragment::elem(name.clone()), |e, (n, v)| e.with_attr(n.clone(), v));
                self.children.iter().fold(element, |e, c| e.with_child(c.fragment()))
            }
            Kind::Text(t) => Fragment::text(t),
            Kind::Cdata(t) => Fragment::cdata(t),
            Kind::Comment(t) => Fragment::comment(t),
            Kind::Pi { target, data } => Fragment::pi(target, data),
        }
    }
}

#[derive(Debug, Clone)]
struct Model {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: Raw,
}

const WANTS_ELEMENT: TreeError = TreeError::WrongKind { expected: "element" };

impl Model {
    fn new(root_name: &str) -> Model {
        let mut m = Model { slots: Vec::new(), free: Vec::new(), root: (0, 0) };
        m.root = m.alloc(Kind::Element { name: QName::new(root_name), attrs: Vec::new() });
        m
    }

    fn get(&self, id: Raw) -> Option<&Node> {
        self.slots.get(id.0 as usize).filter(|s| s.generation == id.1)?.node.as_ref()
    }

    fn expect(&self, id: Raw) -> Result<&Node, TreeError> {
        self.get(id).ok_or(TreeError::StaleNode)
    }

    fn expect_mut(&mut self, id: Raw) -> Result<&mut Node, TreeError> {
        self.slots
            .get_mut(id.0 as usize)
            .filter(|s| s.generation == id.1)
            .and_then(|s| s.node.as_mut())
            .ok_or(TreeError::StaleNode)
    }

    fn alloc(&mut self, kind: Kind) -> Raw {
        let node = Node { parent: None, children: Vec::new(), kind };
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            assert!(slot.node.is_none());
            slot.node = Some(node);
            (index, slot.generation)
        } else {
            self.slots.push(Slot { generation: 0, node: Some(node) });
            (self.slots.len() as u32 - 1, 0)
        }
    }

    fn vacate(&mut self, id: Raw) -> Node {
        let slot = &mut self.slots[id.0 as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.node.take().expect("only live nodes are freed")
    }

    fn live(&self) -> impl Iterator<Item = (Raw, &Node)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| Some(((i as u32, s.generation), s.node.as_ref()?)))
    }

    fn is_descendant_of(&self, node: Raw, ancestor: Raw) -> bool {
        let mut cur = self.get(node).and_then(|n| n.parent);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.get(p).and_then(|n| n.parent);
        }
        false
    }

    fn position_in_parent(&self, node: Raw) -> Result<usize, TreeError> {
        let parent = self.expect(node)?.parent.ok_or(TreeError::NotAttached)?;
        self.expect(parent)?.children.iter().position(|c| *c == node).ok_or(TreeError::StaleNode)
    }

    fn append_child(&mut self, parent: Raw, child: Raw) -> Result<(), TreeError> {
        let len = self.expect(parent)?.children.len();
        self.insert_child(parent, len, child)
    }

    fn insert_child(&mut self, parent: Raw, index: usize, child: Raw) -> Result<(), TreeError> {
        if !matches!(self.expect(parent)?.kind, Kind::Element { .. }) {
            return Err(WANTS_ELEMENT);
        }
        if self.expect(child)?.parent.is_some() {
            return Err(TreeError::NotAttached);
        }
        if child == self.root {
            return Err(TreeError::RootImmutable);
        }
        if parent == child || self.is_descendant_of(parent, child) {
            return Err(TreeError::WouldCycle);
        }
        let len = self.expect(parent)?.children.len();
        if index > len {
            return Err(TreeError::PositionOutOfBounds { len, index });
        }
        self.expect_mut(parent)?.children.insert(index, child);
        self.expect_mut(child)?.parent = Some(parent);
        Ok(())
    }

    fn insert_beside(&mut self, reference: Raw, child: Raw, after: usize) -> Result<(), TreeError> {
        let parent = self.expect(reference)?.parent.ok_or(TreeError::NotAttached)?;
        let pos = self.position_in_parent(reference)?;
        self.insert_child(parent, pos + after, child)
    }

    fn detach(&mut self, node: Raw) -> Result<(Raw, usize), TreeError> {
        if node == self.root {
            return Err(TreeError::RootImmutable);
        }
        let parent = self.expect(node)?.parent.ok_or(TreeError::NotAttached)?;
        let pos = self.position_in_parent(node)?;
        self.expect_mut(parent)?.children.remove(pos);
        self.expect_mut(node)?.parent = None;
        Ok((parent, pos))
    }

    fn delete(&mut self, node: Raw) -> Result<usize, TreeError> {
        if node == self.root {
            return Err(TreeError::RootImmutable);
        }
        if self.expect(node)?.parent.is_some() {
            self.detach(node)?;
        }
        let mut stack = vec![node];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            stack.extend(self.vacate(id).children);
            self.free.push(id.0);
            count += 1;
        }
        Ok(count)
    }

    fn replace(&mut self, old: Raw, new: Raw) -> Result<usize, TreeError> {
        if old == self.root {
            return Err(TreeError::RootImmutable);
        }
        self.expect(new)?;
        let (parent, pos) = self.detach(old)?;
        self.delete(old)?;
        self.insert_child(parent, pos, new)?;
        Ok(pos)
    }

    fn set_name(&mut self, node: Raw, name: &str) -> Result<(), TreeError> {
        match &mut self.expect_mut(node)?.kind {
            Kind::Element { name: n, .. } => *n = QName::new(name),
            _ => return Err(WANTS_ELEMENT),
        }
        Ok(())
    }

    fn set_node_text(&mut self, node: Raw, text: &str) -> Result<String, TreeError> {
        match &mut self.expect_mut(node)?.kind {
            Kind::Text(t) | Kind::Cdata(t) => Ok(std::mem::replace(t, text.to_string())),
            _ => Err(TreeError::WrongKind { expected: "text" }),
        }
    }

    fn set_attr(&mut self, node: Raw, name: &str, value: &str) -> Result<Option<String>, TreeError> {
        let name = QName::new(name);
        let Kind::Element { attrs, .. } = &mut self.expect_mut(node)?.kind else { return Err(WANTS_ELEMENT) };
        if let Some((_, v)) = attrs.iter_mut().find(|(n, _)| *n == name) {
            return Ok(Some(std::mem::replace(v, value.to_string())));
        }
        attrs.push((name, value.to_string()));
        Ok(None)
    }

    fn remove_attr(&mut self, node: Raw, name: &str) -> Result<Option<String>, TreeError> {
        let Kind::Element { attrs, .. } = &mut self.expect_mut(node)?.kind else { return Err(WANTS_ELEMENT) };
        let found = attrs.iter().position(|(n, _)| n.matches_raw(name));
        Ok(found.map(|at| attrs.remove(at).1))
    }

    /// Parent before children, each child adopted as it is made.
    fn instantiate(&mut self, tree: &Tree) -> Raw {
        let id = self.alloc(tree.kind.clone());
        let children: Vec<Raw> = tree.children.iter().map(|c| self.instantiate(c)).collect();
        for &child in &children {
            self.expect_mut(child).unwrap().parent = Some(id);
        }
        self.expect_mut(id).unwrap().children = children;
        id
    }

    fn insert_fragment(&mut self, parent: Raw, pos: usize, tree: &Tree) -> Result<Raw, TreeError> {
        let id = self.instantiate(tree);
        match self.insert_child(parent, pos, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.delete(id).unwrap();
                Err(e)
            }
        }
    }

    fn capture(&self, node: Raw) -> Result<Tree, TreeError> {
        let n = self.expect(node)?;
        let children = n.children.iter().map(|c| self.capture(*c)).collect::<Result<_, _>>()?;
        Ok(Tree { kind: n.kind.clone(), children })
    }

    /// Capture, detach, delete: what one walk did in the old arena.
    fn remove_to_fragment(&mut self, node: Raw) -> Result<(Tree, Raw, usize), TreeError> {
        let tree = self.capture(node)?;
        let (parent, pos) = self.detach(node)?;
        self.delete(node)?;
        Ok((tree, parent, pos))
    }

    /// Whether a batch removal may go ahead: every id live, attached, not
    /// the root, and no subtree inside another or listed twice.
    fn removable_together(&self, nodes: &[Raw]) -> bool {
        nodes.iter().enumerate().all(|(k, n)| {
            *n != self.root
                && self.get(*n).is_some_and(|node| node.parent.is_some())
                && !nodes[..k].contains(n)
                && !nodes.iter().any(|other| self.is_descendant_of(*n, *other))
        })
    }

    fn xml(&self) -> String {
        self.capture(self.root).unwrap().fragment().to_xml()
    }

    fn path_of(&self, node: Raw) -> Option<Vec<usize>> {
        let mut path = Vec::new();
        let mut cur = node;
        while let Some(parent) = self.get(cur)?.parent {
            path.push(self.position_in_parent(cur).ok()?);
            cur = parent;
        }
        path.reverse();
        (cur == self.root).then_some(path)
    }
}

// ----------------------------------------------------------------------
// Scripts.
// ----------------------------------------------------------------------

const NAMES: [&str; 5] = ["a", "b", "ns:c", "d", "ns:e"];
const TEXTS: [&str; 5] =
    ["", "t", "two words", "<&\">", "a rather longer run of text, to move the dead-byte accounting along"];

/// One edit: an operation and the numbers that aim it.
type Step = (u8, usize, usize, usize);

fn script_strategy(len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..21, any::<usize>(), any::<usize>(), any::<usize>()), 1..len)
}

fn seed_fragments() -> Vec<Fragment> {
    vec![
        Fragment::parse_one(r#"<a k="1" ns:l="2"><b>t</b><!--c--><?p d?><ns:c><![CDATA[x]]><d/></ns:c></a>"#).unwrap(),
        Fragment::text("loose"),
        Fragment::elem("d"),
    ]
}

/// What one step returned, ids as raw pairs so both sides compare.
#[derive(Debug, PartialEq)]
enum Out {
    Id(Raw),
    Unit,
    Count(usize),
    Place(Raw, usize),
    Old(String),
    OldAttr(Option<String>),
    Removed(Vec<(String, String, Raw, usize)>),
}

/// A `NodeId` is only handed out by a document; the script forges the
/// ones it needs, as a journal read back from disk does.
fn node_id((index, generation): Raw) -> NodeId {
    serde_json::from_str(&format!("{{\"index\":{index},\"generation\":{generation}}}")).unwrap()
}

fn json_of<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

fn removed(items: Vec<(Fragment, Raw, usize)>) -> Out {
    Out::Removed(items.into_iter().map(|(f, parent, pos)| (f.to_xml(), json_of(&f), parent, pos)).collect())
}

/// Both sides of the comparison and what the script can aim at.
struct Pair {
    model: Model,
    /// Never asked for its name index (and too small to build one).
    plain: Document,
    /// Has its name index from the start.
    indexed: Document,
    /// Every id a step returned or a fragment brought in, live or not,
    /// and a few of another document.
    known: Vec<NodeId>,
    held: Vec<Fragment>,
}

impl Pair {
    fn new() -> Pair {
        let plain = Document::new("a");
        let indexed = plain.clone();
        indexed.ensure_name_index();
        let mut other = Document::parse("<o><p/><q>t</q><r><s/></r></o>").unwrap();
        let gone = other.first_child_element(other.root(), "r").unwrap();
        let mut known: Vec<NodeId> = other.all_nodes().collect();
        other.delete(gone).unwrap();
        known.push(other.create_element("again"));
        known.push(plain.root());
        let mut pair = Pair { model: Model::new("a"), plain, indexed, known, held: seed_fragments() };
        // Something to edit: two copies of the first seed under the root.
        pair.step((17, 4 * (pair.known.len() - 1) + 1, 0, 0));
        pair.step((17, 4 * (pair.known.len() - 1) + 1, 0, 0));
        pair
    }

    /// Runs `real` on both documents and `model` on the model; all three
    /// must return the same. Yields it.
    fn agree(
        &mut self,
        real: impl Fn(&mut Document) -> Result<Out, TreeError>,
        model: impl FnOnce(&mut Model) -> Result<Out, TreeError>,
    ) -> Result<Out, TreeError> {
        let (plain, indexed, expected) = (real(&mut self.plain), real(&mut self.indexed), model(&mut self.model));
        assert_eq!(plain, expected, "the document and the old arena disagree");
        assert_eq!(indexed, expected, "the indexed document and the old arena disagree");
        expected
    }

    fn step(&mut self, (op, x, y, z): Step) {
        // Three aims in four go where the edit can succeed — a live node,
        // a detached one to attach, an attached one to detach: an edit
        // refused for a stale id says little about the links.
        let doc = &self.plain;
        let aim = |k: usize, wanted: &dyn Fn(NodeId) -> bool| {
            let fit: Vec<NodeId> = self.known.iter().copied().filter(|n| doc.contains(*n) && wanted(*n)).collect();
            if k.is_multiple_of(4) || fit.is_empty() {
                self.known[k / 4 % self.known.len()]
            } else {
                fit[k / 4 % fit.len()]
            }
        };
        let attached = |n: NodeId| doc.parent(n).unwrap().is_some();
        let pick = |k: usize| aim(k, &|_| true);
        let a = match op {
            6 | 7 | 17 => aim(x, &|n| doc.name(n).is_ok()),
            8..=10 | 12 | 18 => aim(x, &attached),
            _ => pick(x),
        };
        let b = if matches!(op, 6..=9 | 12) { aim(y, &|n| !attached(n) && n != doc.root()) } else { pick(y) };
        let (ra, rb) = (a.raw(), b.raw());
        let (name, text) = (NAMES[z % NAMES.len()], TEXTS[y % TEXTS.len()]);
        let frag = self.held[z % self.held.len()].clone();
        let tree = Tree::of(&frag);
        let id = |r: Result<NodeId, TreeError>| r.map(|id| Out::Id(id.raw()));
        let leaf = |kind: Kind| move |m: &mut Model| Ok(Out::Id(m.alloc(kind)));
        let out = match op {
            0 => self.agree(
                |d| Ok(Out::Id(d.create_element(name).raw())),
                leaf(Kind::Element { name: QName::new(name), attrs: Vec::new() }),
            ),
            1 => {
                let attrs = vec![(QName::new("k"), text.to_string()), (QName::new(name), "v".to_string())];
                self.agree(
                    |d| Ok(Out::Id(d.create_element_with_attrs(name, attrs.clone()).raw())),
                    leaf(Kind::Element { name: QName::new(name), attrs: attrs.clone() }),
                )
            }
            2 => self.agree(|d| Ok(Out::Id(d.create_text(text).raw())), leaf(Kind::Text(text.into()))),
            3 => self.agree(|d| Ok(Out::Id(d.create_cdata(text).raw())), leaf(Kind::Cdata(text.into()))),
            4 => self.agree(|d| Ok(Out::Id(d.create_comment(text).raw())), leaf(Kind::Comment(text.into()))),
            5 => self.agree(
                |d| Ok(Out::Id(d.create_pi(name, text).raw())),
                leaf(Kind::Pi { target: name.into(), data: text.into() }),
            ),
            6 => {
                self.agree(|d| d.append_child(a, b).map(|()| Out::Unit), |m| m.append_child(ra, rb).map(|()| Out::Unit))
            }
            7 => {
                // Every position, and two past the end.
                let pos = z % (self.model.get(ra).map_or(0, |n| n.children.len()) + 3);
                self.agree(
                    |d| d.insert_child(a, pos, b).map(|()| Out::Unit),
                    |m| m.insert_child(ra, pos, rb).map(|()| Out::Unit),
                )
            }
            8 => self.agree(
                |d| d.insert_before(a, b).map(|()| Out::Unit),
                |m| m.insert_beside(ra, rb, 0).map(|()| Out::Unit),
            ),
            9 => self.agree(
                |d| d.insert_after(a, b).map(|()| Out::Unit),
                |m| m.insert_beside(ra, rb, 1).map(|()| Out::Unit),
            ),
            10 => self.agree(
                |d| d.detach(a).map(|(p, pos)| Out::Place(p.raw(), pos)),
                |m| m.detach(ra).map(|(p, pos)| Out::Place(p, pos)),
            ),
            11 => self.agree(|d| d.delete(a).map(Out::Count), |m| m.delete(ra).map(Out::Count)),
            12 => self.agree(|d| d.replace(a, b).map(Out::Count), |m| m.replace(ra, rb).map(Out::Count)),
            13 => self.agree(|d| d.set_name(a, name).map(|()| Out::Unit), |m| m.set_name(ra, name).map(|()| Out::Unit)),
            14 => self.agree(|d| d.set_node_text(a, text).map(Out::Old), |m| m.set_node_text(ra, text).map(Out::Old)),
            15 => self.agree(
                |d| d.set_attr(a, name, text).map(Out::OldAttr),
                |m| m.set_attr(ra, name, text).map(Out::OldAttr),
            ),
            16 => {
                self.agree(|d| d.remove_attr(a, name).map(Out::OldAttr), |m| m.remove_attr(ra, name).map(Out::OldAttr))
            }
            17 => {
                let pos = z % (self.model.get(ra).map_or(0, |n| n.children.len()) + 2);
                self.agree(|d| id(d.insert_fragment(a, pos, &frag)), |m| m.insert_fragment(ra, pos, &tree).map(Out::Id))
            }
            18 => self.agree(
                |d| d.remove_to_fragment(a).map(|(f, p, pos)| removed(vec![(f, p.raw(), pos)])),
                |m| m.remove_to_fragment(ra).map(|(t, p, pos)| removed(vec![(t.fragment(), p, pos)])),
            ),
            19 | 20 => {
                // A batch: the children of `a` last first (what a replace
                // of a call's results removes), or a few ids from anywhere.
                let batch: Vec<NodeId> = match (op, self.plain.children(a)) {
                    (19, Ok(children)) => children.rev().collect(),
                    _ => (0..z % 4).map(|k| pick(x.wrapping_add(k.wrapping_mul(y | 1)))).collect(),
                };
                let raws: Vec<Raw> = batch.iter().map(|n| n.raw()).collect();
                let ok = self.model.removable_together(&raws);
                let before = self.model.clone();
                let real = |d: &mut Document| {
                    let items = d.remove_to_fragments(&batch);
                    // Which error says why is the document's to choose.
                    let items = items.map_err(|_| TreeError::StaleNode)?;
                    Ok(removed(items.into_iter().map(|(f, p, pos)| (f, p.raw(), pos)).collect()))
                };
                let out = self.agree(real, |m| {
                    if !ok {
                        return Err(TreeError::StaleNode);
                    }
                    let items = raws.iter().map(|n| m.remove_to_fragment(*n).unwrap());
                    Ok(removed(items.map(|(t, p, pos)| (t.fragment(), p, pos)).collect()))
                });
                assert_eq!(out.is_ok(), ok);
                if !ok {
                    assert_eq!(self.model.xml(), before.xml(), "a refused batch removes nothing");
                }
                out
            }
            _ => unreachable!("op {op}"),
        };
        // Ids and fragments the step made are aimed at by later ones.
        match out {
            Ok(Out::Id(raw)) => self.known.extend(self.plain.descendants_and_self(node_id(raw))),
            Ok(Out::Removed(items)) if self.held.len() < 16 => {
                self.held.extend(items.iter().map(|(xml, ..)| Fragment::parse_one(xml).unwrap_or(Fragment::text(xml))));
            }
            _ => {}
        }
        self.compare();
    }

    /// Extracts from both documents the whole tree, the children of a
    /// node, a node and everything above it, or a few ids of any kind; each
    /// fragment handed out must render what `subtree_to_xml` did just
    /// before, and a second extraction hands out the same fragments again.
    fn extract(&self, (how, k): (usize, usize)) {
        let doc = &self.plain;
        let live: Vec<NodeId> = self.known.iter().copied().filter(|n| doc.contains(*n)).collect();
        let one = live.get(k % live.len().max(1)).copied().unwrap_or(doc.root());
        let ids: Vec<NodeId> = match how % 4 {
            0 => vec![doc.root()],
            1 => doc.children(one).unwrap().collect(),
            2 => std::iter::once(one).chain(doc.ancestors(one)).collect(),
            _ => (0..k % 5).map(|j| self.known[(k / 5 + j * 7) % self.known.len()]).collect(),
        };
        for doc in [&self.plain, &self.indexed] {
            let expected: Vec<String> =
                ids.iter().filter(|n| doc.contains(**n)).map(|n| doc.subtree_to_xml(*n)).collect();
            let first = doc.extract_fragments(&ids);
            assert_eq!(first.iter().map(Fragment::to_xml).collect::<Vec<_>>(), expected, "extracting {ids:?}");
            let again = doc.extract_fragments(&ids);
            assert!(first.iter().zip(&again).all(|(a, b)| Fragment::ptr_eq(a, b)), "extracting {ids:?} again");
        }
    }

    fn compare(&self) {
        let m = &self.model;
        for doc in [&self.plain, &self.indexed] {
            doc.check_consistency().unwrap();
            assert_eq!(doc.to_xml(), m.xml());
            assert_eq!(doc.node_count(), m.live().count());
        }
        let doc = &self.plain;
        for (raw, node) in m.live() {
            let id = node_id(raw);
            assert!(doc.contains(id), "{id} is live in the old arena");
            let children: Vec<Raw> = doc.children(id).unwrap().map(|c| c.raw()).collect();
            assert_eq!(children, node.children, "children of {id}");
            let mut reversed: Vec<Raw> = doc.children(id).unwrap().rev().map(|c| c.raw()).collect();
            reversed.reverse();
            assert_eq!(reversed, node.children, "children of {id}, from the back");
            assert_eq!(doc.children(id).unwrap().len(), node.children.len());
            for (k, child) in node.children.iter().enumerate() {
                assert_eq!(doc.child_at(id, k).unwrap().map(|c| c.raw()), Some(*child));
            }
            assert_eq!(doc.child_at(id, node.children.len()).unwrap(), None);
            assert_eq!(doc.parent(id).unwrap().map(|p| p.raw()), node.parent);
            assert_eq!(doc.position_in_parent(id), m.position_in_parent(raw));
            let path = NodePath::of(doc, id).ok();
            assert_eq!(path.as_ref().map(|p| &p.0), m.path_of(raw).as_ref(), "path of {id}");
            if let Some(path) = path {
                assert_eq!(path.resolve(doc).unwrap(), id);
            }
        }
        for id in &self.known {
            assert_eq!(doc.contains(*id), m.get(id.raw()).is_some(), "liveness of {id}");
        }
        for name in NAMES {
            let name = QName::new(name);
            let expected: HashSet<Raw> = m
                .live()
                .filter(|(_, n)| matches!(&n.kind, Kind::Element { name: n, .. } if *n == name))
                .map(|(r, _)| r)
                .collect();
            for doc in [&self.plain, &self.indexed] {
                let found: HashSet<Raw> = doc.elements_named(&name).iter().map(|n| n.raw()).collect();
                assert_eq!(found, expected, "elements named {name}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scripts_agree(script in script_strategy(80)) {
        let mut pair = Pair::new();
        pair.compare();
        for step in script {
            pair.step(step);
        }
    }

    /// A document remembers which fragment a subtree is a copy of and
    /// hands that out again instead of copying (DESIGN.md §18). Scripts of
    /// every edit — fragments inserted, built nodes attached, detached and
    /// attached again, deleted, replaced, renamed, texts and attributes set
    /// and removed, subtrees removed one by one and in batches — run with
    /// extractions between their steps, so that edits land below subtrees
    /// that remember: every fragment extracted renders what its subtree
    /// did just before, every one removed what the old arena captures, and
    /// `check_consistency` compares each remembered copy with its subtree.
    #[test]
    fn a_fragment_handed_out_is_what_its_subtree_held_just_before(
        script in script_strategy(60),
        extractions in prop::collection::vec((any::<usize>(), any::<usize>()), 60),
    ) {
        let mut pair = Pair::new();
        for (step, extraction) in script.into_iter().zip(extractions) {
            pair.extract(extraction);
            pair.step(step);
        }
    }

    /// `extract_fragments` is `extract_fragment` per node, stale ids
    /// skipped, whatever the ids — nested and repeated ones included.
    #[test]
    fn a_batch_capture_is_the_captures_one_by_one(script in script_strategy(30), picks in prop::collection::vec(any::<usize>(), 0..8)) {
        let mut pair = Pair::new();
        for step in script {
            pair.step(step);
        }
        let ids: Vec<NodeId> = picks.iter().map(|k| pair.known[k % pair.known.len()]).collect();
        let batch = pair.plain.extract_fragments(&ids);
        let single: Vec<Fragment> = ids.iter().filter_map(|n| pair.plain.extract_fragment(*n).ok()).collect();
        prop_assert_eq!(&batch, &single);
        for (b, s) in batch.iter().zip(&single) {
            prop_assert_eq!(b.to_xml(), s.to_xml());
            prop_assert_eq!(json_of(b), json_of(s));
            prop_assert_eq!(b.node_count(), s.node_count());
            prop_assert_eq!(b.children().len(), b.children().count());
        }
    }
}

// ----------------------------------------------------------------------
// Batches, compaction, threads.
// ----------------------------------------------------------------------

fn wide_doc() -> (Document, NodeId) {
    let items: String = (0..21).map(|k| format!(r#"<out n="{k}"><v>{k}</v><w a="b">text {k}</w></out>"#)).collect();
    let doc = Document::parse(&format!("<d><axml:sc>{items}</axml:sc><keep/></d>")).unwrap();
    let sc = doc.first_child_element(doc.root(), "axml:sc").unwrap();
    (doc, sc)
}

#[test]
fn a_batch_removal_is_the_removals_one_by_one_and_hands_out_the_same_slots() {
    let (mut batch, sc) = wide_doc();
    let mut single = batch.clone();
    let victims: Vec<NodeId> = batch.children(sc).unwrap().rev().collect();
    let together = batch.remove_to_fragments(&victims).unwrap();
    let alone: Vec<_> = victims.iter().map(|n| single.remove_to_fragment(*n).unwrap()).collect();
    assert_eq!(together, alone);
    assert_eq!(together.iter().map(|(_, _, pos)| *pos).collect::<Vec<_>>(), (0..21).rev().collect::<Vec<_>>());
    assert_eq!(batch.to_xml(), "<d><axml:sc/><keep/></d>");
    // The free lists match: the same ids come back, in the same order.
    for (fragment, parent, _) in together.iter().rev() {
        let (a, b) = (
            batch.insert_fragment(*parent, 0, fragment).unwrap(),
            single.insert_fragment(*parent, 0, fragment).unwrap(),
        );
        assert_eq!(a, b);
        assert_eq!(
            batch.descendants_and_self(a).collect::<Vec<_>>(),
            single.descendants_and_self(b).collect::<Vec<_>>()
        );
    }
    assert_eq!(batch.to_xml(), single.to_xml());
    batch.check_consistency().unwrap();
}

#[test]
fn a_batch_removal_refuses_before_it_removes() {
    let (mut doc, sc) = wide_doc();
    let xml = doc.to_xml();
    let outs: Vec<NodeId> = doc.children(sc).unwrap().collect();
    let inner = doc.child_at(outs[3], 0).unwrap().unwrap();
    let loose = doc.create_element("loose");
    let mut stale_doc = doc.clone();
    stale_doc.delete(outs[5]).unwrap();
    for (bad, why) in [
        (vec![outs[0], outs[1], outs[0]], TreeError::StaleNode),
        (vec![outs[2], inner, outs[3]], TreeError::StaleNode),
        (vec![inner, outs[3]], TreeError::StaleNode),
        (vec![doc.root()], TreeError::RootImmutable),
        (vec![outs[0], loose], TreeError::NotAttached),
    ] {
        assert_eq!(doc.remove_to_fragments(&bad).unwrap_err(), why);
        assert_eq!(doc.to_xml(), xml);
        doc.check_consistency().unwrap();
    }
    assert_eq!(stale_doc.remove_to_fragments(&[outs[4], outs[5]]).unwrap_err(), TreeError::StaleNode);
    assert_eq!(doc.remove_to_fragments(&[]).unwrap(), Vec::new());
}

#[test]
fn a_view_of_a_batch_table_is_copied_out_before_it_is_built_on() {
    let (doc, sc) = wide_doc();
    let outs: Vec<NodeId> = doc.children(sc).unwrap().take(3).collect();
    let expected: Vec<String> = outs.iter().map(|n| doc.subtree_to_xml(*n)).collect();
    // A sibling view is alive.
    let views = doc.extract_fragments(&outs);
    let grown = views[0].clone().with_text("!").with_attr("k", "v").with_child(Fragment::elem("z"));
    assert_eq!(grown.to_xml(), r#"<out n="0" k="v"><v>0</v><w a="b">text 0</w>!<z/></out>"#);
    assert_eq!(views.iter().map(Fragment::to_xml).collect::<Vec<_>>(), expected);
    // No other view is alive, but the table still holds their nodes: a
    // first root built on in place would swallow them as children.
    let first = doc.extract_fragments(&outs).swap_remove(0);
    assert_eq!(first.with_text("!").to_xml(), r#"<out n="0"><v>0</v><w a="b">text 0</w>!</out>"#);
    let last = doc.extract_fragments(&outs).pop().unwrap();
    assert_eq!(last.with_attr("k", "v").to_xml(), r#"<out n="2" k="v"><v>2</v><w a="b">text 2</w></out>"#);
}

/// Text bytes and attribute entries the live nodes of `doc` hold.
fn live_strings(doc: &Document, tops: &[NodeId]) -> (usize, usize) {
    let (mut text, mut attrs) = (0, 0);
    for id in tops.iter().flat_map(|top| doc.descendants_and_self(*top)) {
        match doc.kind(id).unwrap() {
            FragmentKind::Element { .. } => {
                attrs += doc.attrs(id).unwrap().len();
                text += doc.attrs(id).unwrap().map(|(_, v)| v.len()).sum::<usize>();
            }
            FragmentKind::Text(t) | FragmentKind::Cdata(t) | FragmentKind::Comment(t) => text += t.len(),
            FragmentKind::Pi { target, data } => text += target.len() + data.len(),
        }
    }
    (text, attrs)
}

#[test]
fn a_long_replace_loop_stays_compact_and_unchanged() {
    let (mut doc, sc) = wide_doc();
    let xml = doc.to_xml();
    let root = doc.root();
    let mut compactions = 0;
    let mut last = doc.string_footprint();
    for step in 0..100_000usize {
        // A call's results replaced by themselves, an attribute overwritten
        // and taken away and put back, a text overwritten.
        let out = doc.child_at(sc, step % 21).unwrap().unwrap();
        match step % 4 {
            0 => {
                let (fragment, parent, pos) = doc.remove_to_fragment(out).unwrap();
                doc.insert_fragment(parent, pos, &fragment).unwrap();
            }
            1 => {
                let n = doc.set_attr(out, "n", "overwritten for a while").unwrap().unwrap();
                doc.set_attr(out, "n", n).unwrap();
            }
            2 => {
                let n = doc.remove_attr(out, "n").unwrap().unwrap();
                doc.set_attr(out, "extra", "x").unwrap();
                doc.remove_attr(out, "extra").unwrap();
                doc.set_attr(out, "n", n).unwrap();
            }
            _ => {
                let text = doc.child_at(doc.child_at(out, 0).unwrap().unwrap(), 0).unwrap().unwrap();
                let old = doc.set_node_text(text, "something else").unwrap();
                doc.set_node_text(text, old).unwrap();
            }
        }
        let (text, attrs) = doc.string_footprint();
        let (live_text, live_attrs) = live_strings(&doc, &[root]);
        assert!(text <= 2 * live_text + Document::COMPACT_FLOOR, "step {step}: {text} bytes for {live_text} live");
        assert!(
            attrs <= 2 * live_attrs + Document::COMPACT_FLOOR,
            "step {step}: {attrs} attributes for {live_attrs} live"
        );
        compactions += usize::from(text < last.0 || attrs < last.1);
        last = (text, attrs);
        if step.is_multiple_of(997) {
            assert_eq!(doc.to_xml(), xml);
            doc.check_consistency().unwrap();
        }
    }
    assert!(compactions > 100, "the loop crossed {compactions} compactions");
    assert_eq!(doc.to_xml(), xml);
    doc.check_consistency().unwrap();
}

#[test]
fn names_and_documents_cross_threads() {
    let here = [QName::new("axml:sc"), QName::new("cross-thread-name")];
    let (there, doc) = std::thread::spawn(|| {
        let names = [QName::new("axml:sc"), QName::new("cross-thread-name")];
        let items: String = (0..300).map(|k| format!("<cross-thread-name k='{k}'/>")).collect();
        let doc = Document::parse(&format!("<r>{items}<axml:sc/></r>")).unwrap();
        (names, doc)
    })
    .join()
    .unwrap();
    let hasher = RandomState::new();
    for (a, b) in here.iter().zip(&there) {
        assert_eq!(a, b);
        assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
        assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
    }
    // Large enough for the index: built here, from names interned there,
    // asked with names interned here.
    assert_eq!(doc.elements_named(&here[1]).len(), 300);
    assert_eq!(doc.elements_named(&here[0]).len(), 1);
    assert_eq!(doc.sparse_elements_named(&here[0]).map(<[NodeId]>::len), Some(1));
    let moved = std::thread::spawn(move || doc.elements_named(&QName::new("cross-thread-name")).len()).join().unwrap();
    assert_eq!(moved, 300);
}
