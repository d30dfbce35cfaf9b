//! Dynamic compensation construction (§3.1).
//!
//! "The data (nodes) required for compensation cannot be predicted in
//! advance and would need to be read from the log at run-time."
//!
//! The log stores primitive [`Effect`]s. Compensation is built by
//! inverting them **in reverse order of execution**:
//!
//! - `Deleted { fragment, parent_path, position }` → an insert of the
//!   logged fragment at the logged parent/position ("the `<location>` and
//!   `<data>` of the compensating insert operation are the parent (/..)
//!   of the deleted node and the result of the `<location>` query of the
//!   delete operation");
//! - `Inserted { path, .. }` → a delete of "the node having the
//!   corresponding ID" — addressed structurally so the same compensating
//!   service can run against a replica.
//!
//! Because effects address nodes by [`axml_query::NodePath`], a compensation built on
//! one peer is a plain list of update actions any peer holding (a replica
//! of) the document can execute — the enabler for §3.2's
//! **peer-independent compensation**.
//!
//! A batch may only put back what the document already holds: the undo
//! of a replace that kept a call's results in place deletes them and
//! re-inserts equal fragments at the same positions. [`apply_compensation`],
//! which every undo goes through (an abort, a received compensation, the
//! rollback after a refused log append, crash recovery), recognises that
//! shape first ([`put_back_cost`], read-only) and then leaves the tree
//! alone, reporting the node cost the copying would have. Only the kept
//! nodes' ids differ from a run that copies.

use axml_query::{ActionType, Effect, InsertPos, Locator, QueryError, UpdateAction};
use axml_xml::Document;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Builds the compensating actions for a sequence of logged effects.
///
/// The result is ordered ready-to-run: inverse of the **last** effect
/// first.
///
/// ```
/// use axml_core::compensate::{apply_compensation, compensation_for_effects};
/// use axml_query::{Locator, UpdateAction};
/// use axml_xml::Document;
///
/// let mut doc = Document::parse("<r><a>1</a></r>").unwrap();
/// let before = doc.to_xml();
/// let report = UpdateAction::delete(Locator::parse("r/a").unwrap())
///     .apply(&mut doc)
///     .unwrap();
/// let comp = compensation_for_effects(&report.effects);
/// apply_compensation(&mut doc, &comp).unwrap();
/// assert_eq!(doc.to_xml(), before);
/// ```
pub fn compensation_for_effects(effects: &[Effect]) -> Vec<UpdateAction> {
    effects
        .iter()
        .rev()
        .map(|e| match e {
            Effect::Deleted { fragment, parent_path, position } => UpdateAction::insert_at(
                Locator::Node(parent_path.clone()),
                vec![fragment.clone()],
                InsertPos::At(*position),
            ),
            Effect::Inserted { path, .. } => UpdateAction::delete(Locator::Node(path.clone())),
        })
        .collect()
}

/// Applies compensating actions to a document, returning the total node
/// cost. Actions are applied in the given (already-reversed) order, unless
/// they would only put back what the document already holds
/// ([`put_back_cost`]): then the document is left as it is, at the same
/// cost.
pub fn apply_compensation(doc: &mut Document, actions: &[UpdateAction]) -> Result<usize, QueryError> {
    if let Some(cost) = put_back_cost(doc, actions) {
        return Ok(cost);
    }
    let mut cost = 0usize;
    for action in actions {
        let report = action.apply(doc)?;
        cost += report.cost_nodes;
    }
    Ok(cost)
}

/// The node cost of applying `actions` to `doc` if all they would do is
/// put back what is already there, or `None` if they must run.
///
/// That is the undo of a replace of n results by n equal items, which is
/// what `axml_doc::apply_call_results` logs when it keeps a call's
/// results in place: n deletes, by node path, of the consecutive children
/// of one parent from position `base` on, highest position first; then n
/// inserts of one fragment each under that parent, at the same positions
/// in ascending order; and each deleted child an unedited copy
/// ([`Document::remembered_copy`]) `==` the fragment put back in its
/// place. Running such a batch frees those children and instantiates
/// equal ones where they were. The cost is what that run reports: the
/// deleted and the inserted node count of each pair.
pub fn put_back_cost(doc: &Document, actions: &[UpdateAction]) -> Option<usize> {
    if !actions.len().is_multiple_of(2) {
        return None;
    }
    let (deletes, inserts) = actions.split_at(actions.len() / 2);
    let n = deletes.len();
    let Locator::Node(lowest) = &deletes.last()?.location else { return None };
    let (&base, parent_path) = lowest.0.split_last()?;
    let parent = parent_path.iter().try_fold(doc.root(), |node, &k| doc.child_at(node, k).ok().flatten())?;
    let held = doc.children(parent).ok()?.skip(base).take(n);
    if held.len() != n {
        return None;
    }
    let mut cost = 0;
    for (k, (node, (delete, insert))) in held.zip(deletes.iter().rev().zip(inserts)).enumerate() {
        let position = base + k;
        let deletes_it = delete.ty == ActionType::Delete
            && matches!(&delete.location, Locator::Node(path) if path.0.split_last() == Some((&position, parent_path)));
        let puts_back = insert.ty == ActionType::Insert
            && insert.insert_pos == InsertPos::At(position)
            && matches!(&insert.location, Locator::Node(path) if path.0 == parent_path);
        let ([fragment], Some(copy)) = (insert.data.as_slice(), doc.remembered_copy(node)) else { return None };
        if !(deletes_it && puts_back && copy == fragment) {
            return None;
        }
        cost += copy.node_count() + fragment.node_count();
    }
    Some(cost)
}

/// Compensating-service definitions addressed per peer: what a recovering
/// peer needs to drive compensation for a whole subtree of invocations
/// without the original peers coordinating. Each entry is executable at
/// that peer — or, because actions address nodes structurally, at any
/// peer holding a replica of the documents involved.
pub type CompBundle = Vec<(axml_p2p::PeerId, CompensatingService)>;

/// A compensating-service definition (§3.2): "a service capable of
/// compensating the modifications at APY which occurred as a result of
/// processing the service S". Returned to the invoker along with the
/// invocation results; serializable so it can be shipped to (and executed
/// at) any peer holding the document.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompensatingService {
    /// Compensating actions per document name, each list ready-to-run.
    pub actions: Vec<(String, Vec<UpdateAction>)>,
}

impl CompensatingService {
    /// Builds the definition from per-document effect logs.
    pub fn from_effect_log(log: &[(String, Vec<Effect>)]) -> CompensatingService {
        Self::from_effect_slices(log.iter().map(|(doc, effects)| (doc.as_str(), effects.as_slice())))
    }

    /// Builds the definition lazily over **borrowed** per-document effect
    /// slices, given in forward log order (the iterator must be
    /// double-ended so entries can be walked newest-first). This is the
    /// hot-path form: deriving compensation from a transaction log no
    /// longer materializes an owned `Vec<(String, Vec<Effect>)>` — which
    /// deep-cloned every logged fragment — just to read it back once.
    pub fn from_effect_slices<'a, I>(log: I) -> CompensatingService
    where
        I: IntoIterator<Item = (&'a str, &'a [Effect])>,
        I::IntoIter: DoubleEndedIterator,
    {
        // Reverse across log entries as well as within each entry.
        let mut actions = Vec::new();
        for (doc, effects) in log.into_iter().rev() {
            let acts = compensation_for_effects(effects);
            if !acts.is_empty() {
                actions.push((doc.to_string(), acts));
            }
        }
        CompensatingService { actions }
    }

    /// True if there is nothing to compensate.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Total number of compensating actions.
    pub fn action_count(&self) -> usize {
        self.actions.iter().map(|(_, a)| a.len()).sum()
    }

    /// Executes the compensation against a set of documents (typically a
    /// peer's repository). Returns the node cost.
    pub fn execute(&self, docs: &mut BTreeMap<String, &mut Document>) -> Result<usize, QueryError> {
        let mut cost = 0usize;
        for (name, acts) in &self.actions {
            let doc =
                docs.get_mut(name).ok_or_else(|| QueryError::PathUnresolved(format!("document {name} not present")))?;
            cost += apply_compensation(doc, acts)?;
        }
        Ok(cost)
    }

    /// Merges another definition to run **before** this one finishes —
    /// i.e. `other`'s actions are appended (they compensate earlier work).
    pub fn then(mut self, other: CompensatingService) -> CompensatingService {
        self.actions.extend(other.actions);
        self
    }
}

/// The classical pre-declared compensation model (the baseline the paper
/// argues is infeasible for AXML).
///
/// A static compensator is configured **once, at service-definition
/// time**, with a fixed inverse action per operation — "current
/// compensation based models assume the existence of a pre-defined
/// compensating operation (for each operation)". It cannot see the log,
/// so for operations whose effects depend on run-time materialization
/// (lazy queries!) it either has *no* inverse or an inverse computed from
/// stale assumptions. Experiment E3 quantifies the failure.
#[derive(Debug, Clone, Default)]
pub struct StaticCompensator {
    inverses: BTreeMap<String, Vec<UpdateAction>>,
}

impl StaticCompensator {
    /// An empty compensator.
    pub fn new() -> StaticCompensator {
        StaticCompensator::default()
    }

    /// Pre-declares the inverse for operation `op_label`.
    pub fn declare(&mut self, op_label: impl Into<String>, inverse: Vec<UpdateAction>) {
        self.inverses.insert(op_label.into(), inverse);
    }

    /// The pre-declared inverse for an operation, if any. Note what is
    /// *not* here: no access to the run-time log.
    pub fn inverse_of(&self, op_label: &str) -> Option<&[UpdateAction]> {
        self.inverses.get(op_label).map(Vec::as_slice)
    }

    /// Compensates a sequence of executed operation labels (reverse
    /// order). Operations without a declared inverse are skipped — the
    /// classical model silently under-compensates them. Returns
    /// `(cost, missing)` where `missing` counts skipped operations.
    pub fn compensate(&self, doc: &mut Document, executed_ops: &[String]) -> (usize, usize) {
        let mut cost = 0usize;
        let mut missing = 0usize;
        for op in executed_ops.iter().rev() {
            match self.inverse_of(op) {
                None => missing += 1,
                Some(actions) => {
                    for a in actions {
                        // Tolerate failures: the stale inverse may no longer
                        // apply (that is the point of E3).
                        let mut tolerant = a.clone();
                        tolerant.allow_empty_location = true;
                        if let Ok(report) = tolerant.apply(doc) {
                            cost += report.cost_nodes;
                        }
                    }
                }
            }
        }
        (cost, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::{Locator, NodePath, PathExpr};
    use axml_xml::{equivalent_ordered, Fragment, NodeId};

    fn atp() -> Document {
        Document::parse(
            r#"<ATPList>
                <player rank="1"><name><lastname>Federer</lastname></name><citizenship>Swiss</citizenship></player>
                <player rank="2"><name><lastname>Nadal</lastname></name><citizenship>Spanish</citizenship></player>
            </ATPList>"#,
        )
        .unwrap()
    }

    #[test]
    fn paper_delete_compensation() {
        let mut doc = atp();
        let before = doc.to_xml();
        let del = UpdateAction::delete(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
        );
        let report = del.apply(&mut doc).unwrap();
        let comp = compensation_for_effects(&report.effects);
        assert_eq!(comp.len(), 1);
        apply_compensation(&mut doc, &comp).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn paper_replace_compensation() {
        // §3.1: replace Nadal's citizenship with USA; compensation is the
        // decomposed delete+insert run in reverse, restoring "Spanish".
        let mut doc = atp();
        let before = doc.to_xml();
        let rep = UpdateAction::replace(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal;").unwrap(),
            vec![Fragment::elem_text("citizenship", "USA")],
        );
        let report = rep.apply(&mut doc).unwrap();
        assert!(doc.to_xml().contains("USA"));
        let comp = compensation_for_effects(&report.effects);
        assert_eq!(comp.len(), 2, "delete the inserted USA node, re-insert Spanish");
        apply_compensation(&mut doc, &comp).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    /// `<d><x/><a>1</a><b>2</b><c>3</c></d>`, whose `a`, `b` and `c` the
    /// document remembers as copies of the returned fragments.
    fn remembering() -> (Document, Vec<Fragment>) {
        let mut doc = Document::parse("<d><x/></d>").unwrap();
        let items = Fragment::parse_all("<a>1</a><b>2</b><c>3</c>").unwrap();
        for (k, item) in items.iter().enumerate() {
            doc.insert_fragment(doc.root(), k + 1, item).unwrap();
        }
        (doc, items)
    }

    fn delete(k: usize) -> UpdateAction {
        UpdateAction::delete(Locator::Node(NodePath(vec![k])))
    }

    fn put(k: usize, item: &Fragment) -> UpdateAction {
        UpdateAction::insert_at(Locator::Node(NodePath::root()), vec![item.clone()], InsertPos::At(k))
    }

    /// Applies `batch` to `doc` and, copying, to a re-parse of it, which
    /// remembers no copies; both must land on the same bytes, cost and
    /// `Ok`/`Err`. Returns whether `doc` was left alone, ids and all.
    fn against_copying(doc: &mut Document, batch: &[UpdateAction]) -> bool {
        let mut copied = Document::parse(&doc.to_xml()).unwrap();
        assert_eq!(put_back_cost(&copied, batch), None);
        let expected = apply_compensation(&mut copied, batch).ok();
        let children: Vec<NodeId> = doc.children(doc.root()).unwrap().collect();
        let put_back = put_back_cost(doc, batch);
        let cost = apply_compensation(doc, batch).ok();
        doc.check_consistency().unwrap();
        assert_eq!(doc.to_xml(), copied.to_xml());
        assert_eq!(cost, expected);
        if put_back.is_some() {
            assert_eq!(put_back, cost);
            assert!(doc.children(doc.root()).unwrap().eq(children));
        }
        put_back.is_some()
    }

    #[test]
    fn a_batch_that_puts_back_what_is_there_leaves_the_tree_alone() {
        let (mut doc, items) = remembering();
        let batch = [delete(3), delete(2), put(2, &items[1]), put(3, &items[2])];
        assert_eq!(put_back_cost(&doc, &batch), Some(8), "two nodes out and two in, twice");
        assert!(against_copying(&mut doc, &batch));
        let equal = Fragment::parse_one("<a>1</a>").unwrap();
        assert!(against_copying(&mut doc, &[delete(1), put(1, &equal)]), "an equal fragment of another table");
    }

    #[test]
    fn a_batch_that_puts_back_anything_else_runs() {
        let (_, items) = remembering();
        let (a, b, c) = (&items[0], &items[1], &items[2]);
        let under_x = UpdateAction::insert_at(Locator::Node(NodePath(vec![0])), vec![a.clone()], InsertPos::At(0));
        let cases = [
            ("positions not consecutive", vec![delete(3), delete(1), put(1, a), put(2, b)]),
            ("lowest position deleted first", vec![delete(1), delete(2), put(1, a), put(2, b)]),
            ("fragments swapped", vec![delete(2), delete(1), put(1, b), put(2, a)]),
            ("a fragment that differs", vec![delete(1), put(1, &Fragment::elem_text("a", "9"))]),
            ("another parent", vec![delete(1), under_x]),
            ("one insert short", vec![delete(2), delete(1), put(1, a)]),
            (
                "two fragments in one insert",
                vec![
                    delete(1),
                    UpdateAction::insert_at(
                        Locator::Node(NodePath::root()),
                        vec![a.clone(), b.clone()],
                        InsertPos::At(1),
                    ),
                ],
            ),
            ("a delete by query", vec![UpdateAction::delete(Locator::parse("d/a").unwrap()), put(1, a)]),
            ("an append", vec![delete(3), UpdateAction::insert(Locator::Node(NodePath::root()), vec![c.clone()])]),
            ("past the last child", vec![delete(4), put(4, a)]),
            ("nothing", vec![]),
        ];
        for (case, batch) in cases {
            let (mut doc, _) = remembering();
            assert!(!against_copying(&mut doc, &batch), "{case}");
        }

        // A child edited back into what it was: equal, but not remembered.
        let (mut doc, _) = remembering();
        let at_b = doc.child_at(doc.root(), 2).unwrap().unwrap();
        doc.set_attr(at_b, "t", "1").unwrap();
        doc.remove_attr(at_b, "t").unwrap();
        assert!(!against_copying(&mut doc, &[delete(2), put(2, b)]), "an edited child");
    }

    #[test]
    fn insert_compensated_by_id_delete() {
        let mut doc = atp();
        let before = doc.to_xml();
        let ins = UpdateAction::insert(
            Locator::Path(PathExpr::parse("ATPList/player[@rank=1]").unwrap()),
            vec![Fragment::elem_text("points", "475")],
        );
        let report = ins.apply(&mut doc).unwrap();
        let comp = compensation_for_effects(&report.effects);
        assert!(matches!(&comp[0].location, Locator::Node(_)), "compensation addresses the unique ID");
        apply_compensation(&mut doc, &comp).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn multi_op_compensation_reverses_order() {
        let mut doc = atp();
        let before = doc.to_xml();
        let mut all_effects = Vec::new();
        // Op 1: delete Federer's citizenship.
        let del = UpdateAction::delete(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
        );
        all_effects.extend(del.apply(&mut doc).unwrap().effects);
        // Op 2: insert points under the same player.
        let ins = UpdateAction::insert(
            Locator::Path(PathExpr::parse("ATPList/player[@rank=1]").unwrap()),
            vec![Fragment::elem_text("points", "475")],
        );
        all_effects.extend(ins.apply(&mut doc).unwrap().effects);
        // Op 3: delete the second player entirely.
        let del2 = UpdateAction::delete(Locator::Path(PathExpr::parse("ATPList/player[@rank=2]").unwrap()));
        all_effects.extend(del2.apply(&mut doc).unwrap().effects);

        let comp = compensation_for_effects(&all_effects);
        apply_compensation(&mut doc, &comp).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn every_compensating_action_is_addressed_by_node_and_an_insert_carries_its_fragment() {
        let mut doc = atp();
        let mut effects = Vec::new();
        for action in [
            UpdateAction::delete(Locator::parse("ATPList/player/citizenship").unwrap()),
            UpdateAction::insert(
                Locator::Path(PathExpr::parse("ATPList/player[@rank=1]").unwrap()),
                vec![Fragment::elem_text("points", "475")],
            ),
            UpdateAction::replace(
                Locator::parse("Select p/name from p in ATPList//player where p/name/lastname = Nadal;").unwrap(),
                vec![Fragment::elem_text("name", "R. Nadal")],
            ),
        ] {
            effects.extend(action.apply(&mut doc).unwrap().effects);
        }
        let comp = compensation_for_effects(&effects);
        assert_eq!(comp.len(), effects.len());
        for (action, effect) in comp.iter().zip(effects.iter().rev()) {
            assert!(matches!(action.location, Locator::Node(_)), "{action:?}");
            match effect {
                Effect::Deleted { fragment, .. } => {
                    assert_eq!(action.ty, ActionType::Insert);
                    assert_eq!(action.data, std::slice::from_ref(fragment));
                }
                Effect::Inserted { .. } => assert_eq!((action.ty, action.data.len()), (ActionType::Delete, 0)),
            }
        }
    }

    #[test]
    fn compensating_service_executes_on_replica() {
        // Effects captured on one copy compensate an identical replica.
        let mut primary = atp();
        let mut replica = atp();
        let del = UpdateAction::delete(Locator::Path(PathExpr::parse("ATPList/player[@rank=2]").unwrap()));
        let report = del.apply(&mut primary).unwrap();
        // The replica saw the same logical update (replay).
        del.apply(&mut replica).unwrap();
        assert_eq!(primary.to_xml(), replica.to_xml());

        let cs = CompensatingService::from_effect_log(&[("atp".into(), report.effects)]);
        assert!(!cs.is_empty());
        assert_eq!(cs.action_count(), 1);
        let mut docs: BTreeMap<String, &mut Document> = BTreeMap::new();
        docs.insert("atp".into(), &mut replica);
        cs.execute(&mut docs).unwrap();
        assert!(equivalent_ordered(&replica, &atp()), "replica restored by peer-independent compensation");
    }

    #[test]
    fn compensating_service_missing_doc_errors() {
        let mut doc = atp();
        let del = UpdateAction::delete(Locator::Path(PathExpr::parse("ATPList/player[@rank=2]").unwrap()));
        let report = del.apply(&mut doc).unwrap();
        let cs = CompensatingService::from_effect_log(&[("atp".into(), report.effects)]);
        let mut docs: BTreeMap<String, &mut Document> = BTreeMap::new();
        assert!(cs.execute(&mut docs).is_err());
    }

    #[test]
    fn compensating_service_then_chains() {
        let a = CompensatingService { actions: vec![("d1".into(), vec![])] };
        let b = CompensatingService { actions: vec![("d2".into(), vec![])] };
        let c = a.then(b);
        assert_eq!(c.actions.len(), 2);
        assert_eq!(c.actions[0].0, "d1");
    }

    #[test]
    fn empty_log_compensates_to_nothing() {
        let cs = CompensatingService::from_effect_log(&[("atp".into(), vec![])]);
        assert!(cs.is_empty());
        assert_eq!(compensation_for_effects(&[]).len(), 0);
    }

    #[test]
    fn static_compensator_misses_undeclared_ops() {
        let mut doc = atp();
        let sc = StaticCompensator::new();
        let (cost, missing) = sc.compensate(&mut doc, &["op1".into(), "op2".into()]);
        assert_eq!(cost, 0);
        assert_eq!(missing, 2);
    }

    #[test]
    fn static_compensator_applies_declared_inverse() {
        // A fixed delete→insert pair *declared in advance* works only when
        // the run-time state matches the declaration-time assumption.
        let mut doc = atp();
        let before = doc.to_xml();
        let del = UpdateAction::delete(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
        );
        let mut sc = StaticCompensator::new();
        // Declared statically: "the inverse of deleteCitizenship is insert
        // <citizenship>Swiss</citizenship> under Federer's player".
        sc.declare(
            "deleteCitizenship",
            vec![UpdateAction::insert(
                Locator::parse("Select p from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
                vec![Fragment::elem_text("citizenship", "Swiss")],
            )],
        );
        del.apply(&mut doc).unwrap();
        let (cost, missing) = sc.compensate(&mut doc, &["deleteCitizenship".into()]);
        assert_eq!(missing, 0);
        assert!(cost > 0);
        // Here the assumption held, so the doc is equivalent (order may
        // differ: static inverse appends rather than restoring position).
        assert!(axml_xml::equivalent_unordered(&doc, &Document::parse(&before).unwrap()));
    }

    #[test]
    fn static_compensator_wrong_after_state_change() {
        // The documented failure: the citizenship changed at run time, the
        // static inverse restores the stale value.
        let mut doc = atp();
        let mut sc = StaticCompensator::new();
        sc.declare(
            "deleteCitizenship",
            vec![UpdateAction::insert(
                Locator::parse("Select p from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
                vec![Fragment::elem_text("citizenship", "Swiss")],
            )],
        );
        // Run-time surprise: the citizenship was updated to Monaco before
        // the delete (e.g. by a materialized service call).
        UpdateAction::replace(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
            vec![Fragment::elem_text("citizenship", "Monaco")],
        )
        .apply(&mut doc)
        .unwrap();
        let reference = doc.to_xml(); // the state compensation should restore
        UpdateAction::delete(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
        )
        .apply(&mut doc)
        .unwrap();
        sc.compensate(&mut doc, &["deleteCitizenship".into()]);
        assert!(doc.to_xml().contains("Swiss"), "static inverse restored the stale value");
        assert!(!axml_xml::equivalent_unordered(&doc, &Document::parse(&reference).unwrap()), "which is wrong");
    }
}
