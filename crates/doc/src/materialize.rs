//! Lazy/eager materialization of embedded service calls.
//!
//! "An embedded service call may be invoked (or materialized): 1) in
//! response to a query on the AXML document …, or 2) periodically. …
//! There are two possible modes for AXML query evaluation: lazy and eager.
//! Of the two, lazy evaluation is the preferred mode and implies that only
//! those embedded service calls (in an AXML document) are materialized
//! whose results are required for evaluating the query. As the actual set
//! of service calls materialized is determined only at run-time, the
//! compensating operation for an AXML query cannot be pre-defined
//! statically." (§3.1)
//!
//! The engine therefore has two jobs:
//!
//! 1. **Relevance analysis** (lazy mode): decide which calls a query
//!    needs, using the call's current result children and the declared
//!    result names from the provider's WSDL (via
//!    [`ServiceInvoker::result_hints`]).
//! 2. **Effect capture**: every node the materialization inserts or
//!    deletes is reported as an [`Effect`] with a structural address, so
//!    the transaction layer can construct the compensating operation at
//!    run time.

use crate::consts;
use crate::fault::Fault;
use crate::repo::Repository;
use crate::sc::{HandlerAction, ParamValue, ScMode, ServiceCall};
use crate::service::ServiceRegistry;
use crate::view::TransparentView;
use axml_query::{Condition, Effect, NodePath, Operand, PathExpr, SelectQuery};
use axml_xml::{Document, Fragment, NameId, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Query evaluation mode (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Materialize only the calls the query needs (the preferred mode).
    #[default]
    Lazy,
    /// Materialize every embedded call before evaluating.
    Eager,
}

/// A service call with its parameters fully resolved, ready to ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedCall {
    /// Target peer address (`serviceURL`). Interned: re-wrapping a
    /// [`ServiceCall`] into a `ResolvedCall` shares the handle instead of
    /// copying the string.
    pub service_url: NameId,
    /// Service namespace. Interned.
    pub service_ns: NameId,
    /// Method name. Interned.
    pub method: NameId,
    /// Resolved textual parameters.
    pub params: Vec<(String, String)>,
}

/// What a service invocation returns.
#[derive(Debug, Clone, Default)]
pub struct ServiceResponse {
    /// Result items: static XML nodes, or `axml:sc` fragments ("the
    /// invocation results may be static XML nodes or another service
    /// call").
    pub items: Vec<Fragment>,
    /// Effects the *provider* performed on its own documents while
    /// processing (update services). The transaction layer logs these for
    /// compensation.
    pub effects: Vec<Effect>,
}

/// How the engine reaches services — locally or across the P2P fabric.
pub trait ServiceInvoker {
    /// Invokes a resolved call, returning the response or a fault.
    fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault>;

    /// Declared result element names for a call, if known (WSDL lookup).
    /// Used by lazy relevance analysis.
    fn result_hints(&self, _call: &ResolvedCall) -> Option<Vec<String>> {
        None
    }
}

/// One attempted invocation, as recorded in the materialization report.
#[derive(Debug, Clone)]
pub struct InvocationRecord {
    /// Target peer address.
    pub service_url: NameId,
    /// Method invoked.
    pub method: NameId,
    /// Retries performed by fault handlers.
    pub retries: u32,
    /// Name of the fault the invocation ultimately surfaced, if any
    /// (after handlers ran; a substituted result clears it).
    pub fault: Option<String>,
    /// Number of result items received/substituted.
    pub items: usize,
    /// Provider-side effects shipped back with the response.
    pub provider_effects: Vec<Effect>,
}

/// Everything one materialization pass did.
#[derive(Debug, Clone, Default)]
pub struct MaterializationReport {
    /// Local document effects, in application order.
    pub effects: Vec<Effect>,
    /// Invocations attempted (including nested/param calls and retries).
    pub invocations: Vec<InvocationRecord>,
    /// Embedded calls successfully materialized.
    pub materialized: usize,
    /// Total local nodes affected (the paper's cost measure).
    pub cost_nodes: usize,
    /// Total simulated wait time spent in `axml:retry` handlers.
    pub retry_wait: u64,
}

impl MaterializationReport {
    fn merge(&mut self, other: MaterializationReport) {
        self.effects.extend(other.effects);
        self.invocations.extend(other.invocations);
        self.materialized += other.materialized;
        self.cost_nodes += other.cost_nodes;
        self.retry_wait += other.retry_wait;
    }
}

/// The materialization engine.
#[derive(Debug, Clone)]
pub struct MaterializationEngine {
    /// Lazy or eager evaluation.
    pub mode: EvalMode,
    /// Recursion bound for nested calls (param calls and calls returned
    /// as results).
    pub max_depth: usize,
    /// Values for `$name (external value)` parameters.
    pub externals: BTreeMap<String, String>,
}

impl Default for MaterializationEngine {
    fn default() -> Self {
        MaterializationEngine { mode: EvalMode::Lazy, max_depth: 8, externals: BTreeMap::new() }
    }
}

impl MaterializationEngine {
    /// An engine with the given mode and defaults otherwise.
    pub fn new(mode: EvalMode) -> MaterializationEngine {
        MaterializationEngine { mode, ..Default::default() }
    }

    /// Builder: provides an external parameter value.
    pub fn with_external(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.externals.insert(name.into(), value.into());
        self
    }

    /// Evaluates `query` over `doc`, materializing embedded calls
    /// according to the mode first. Returns the selected (original)
    /// nodes and the report of everything materialization did.
    pub fn query(
        &self,
        doc: &mut Document,
        query: &SelectQuery,
        invoker: &mut dyn ServiceInvoker,
    ) -> Result<(Vec<NodeId>, MaterializationReport), Fault> {
        let report = self.materialize_for_query(doc, query, invoker)?;
        let hits = TransparentView::eval(doc, query).map_err(|e| Fault::execution(format!("query failed: {e}")))?;
        Ok((hits, report))
    }

    /// Materializes the calls `query` needs (lazy) or all calls (eager).
    ///
    /// Materializing a call can insert *new* embedded calls (results that
    /// are themselves service calls); the engine iterates to a fixpoint,
    /// bounded by `max_depth` rounds.
    pub fn materialize_for_query(
        &self,
        doc: &mut Document,
        query: &SelectQuery,
        invoker: &mut dyn ServiceInvoker,
    ) -> Result<MaterializationReport, Fault> {
        self.materialize_rounds(doc, Some(query), invoker)
    }

    /// Materializes every embedded call (one fixpoint pass).
    pub fn materialize_all(
        &self,
        doc: &mut Document,
        invoker: &mut dyn ServiceInvoker,
    ) -> Result<MaterializationReport, Fault> {
        self.materialize_rounds(doc, None, invoker)
    }

    fn materialize_rounds(
        &self,
        doc: &mut Document,
        query: Option<&SelectQuery>,
        invoker: &mut dyn ServiceInvoker,
    ) -> Result<MaterializationReport, Fault> {
        let mut report = MaterializationReport::default();
        let mut done: BTreeSet<NodeId> = BTreeSet::new();
        for _round in 0..self.max_depth {
            let todo = self.calls_for_round(doc, query, &done, invoker);
            if todo.is_empty() {
                break;
            }
            for call in todo {
                done.insert(call.node.expect("scanned calls have nodes"));
                let sub = self.materialize_call(doc, &call, invoker, 0)?;
                report.merge(sub);
            }
        }
        Ok(report)
    }

    /// The embedded calls of `doc` that one materialization round must
    /// handle: every scanned call not yet in `done` — narrowed, in lazy
    /// mode, to those `query` needs. No query means every call is needed.
    ///
    /// This is the one relevance scan, shared by the local fixpoint above
    /// and by the distributed engine in `axml-core`. What relevance reads
    /// from the query — the potential bindings of its `from` path and its
    /// name tests — depends on the document and the query only, so it is
    /// worked out once per round, not once per scanned call.
    pub fn calls_for_round(
        &self,
        doc: &Document,
        query: Option<&SelectQuery>,
        done: &BTreeSet<NodeId>,
        hints: &dyn ServiceInvoker,
    ) -> Vec<ServiceCall> {
        let mut calls = ServiceCall::scan(doc);
        calls.retain(|c| c.node.is_some_and(|n| !done.contains(&n)));
        let (Some(query), EvalMode::Lazy) = (query, self.mode) else { return calls };
        if calls.is_empty() {
            return calls;
        }
        // Potential bindings: what `from` can select, ignoring the `where`
        // clause (whose data may itself need materialization).
        let bindings: HashSet<NodeId> = query.from.eval(&TransparentView::new(doc)).into_iter().collect();
        let names = QueryNames::collect(query);
        calls.retain(|c| self.relevant(doc, c, &bindings, &names, hints));
        calls
    }

    /// Lazy relevance: would materializing `call` contribute to the query?
    ///
    /// Two conditions, both conservative:
    /// 1. the call sits inside a *potential binding subtree* — under (or
    ///    at) one of `bindings`;
    /// 2. the query's name tests intersect the call's known result names
    ///    (current result children + WSDL hints); wildcard queries and
    ///    calls with unknown results count as intersecting.
    fn relevant(
        &self,
        doc: &Document,
        call: &ServiceCall,
        bindings: &HashSet<NodeId>,
        names: &QueryNames,
        hints: &dyn ServiceInvoker,
    ) -> bool {
        let Some(sc_node) = call.node else { return false };
        if !std::iter::once(sc_node).chain(doc.ancestors(sc_node)).any(|n| bindings.contains(&n)) {
            return false;
        }
        if names.any_wildcard {
            return true;
        }
        // The first known name the query tests settles it; the WSDL is
        // consulted only if no current result child does.
        let mut current = call.result_nodes(doc).filter_map(|c| doc.name(c).ok()).peekable();
        let mut known = current.peek().is_some();
        if current.any(|q| names.names.contains(&q.local)) {
            return true;
        }
        if let Some(hints) = hints.result_hints(&self.peek_resolved(call)) {
            known |= !hints.is_empty();
            if hints.iter().any(|h| names.names.contains(h.as_str())) {
                return true;
            }
        }
        !known // unknown results: conservatively materialize
    }

    /// Resolves parameters without invoking nested calls (for relevance
    /// probing only): nested-call params resolve to a placeholder.
    fn peek_resolved(&self, call: &ServiceCall) -> ResolvedCall {
        let mut params = Vec::with_capacity(call.params.len());
        for p in &call.params {
            let v = match &p.value {
                ParamValue::Literal(v) => v.clone(),
                ParamValue::External(name) => self.externals.get(name).cloned().unwrap_or_default(),
                ParamValue::Call(_) => String::new(),
                ParamValue::Xml(frags) => frags.iter().map(Fragment::text_content).collect(),
            };
            params.push((p.name.clone(), v));
        }
        ResolvedCall {
            service_url: call.service_url.clone(),
            service_ns: call.service_ns.clone(),
            method: call.method.clone(),
            params,
        }
    }

    /// Materializes one embedded call: resolves parameters (recursively
    /// invoking param calls — local nesting), invokes the service (running
    /// fault handlers), and applies the results per the call's mode.
    pub fn materialize_call(
        &self,
        doc: &mut Document,
        call: &ServiceCall,
        invoker: &mut dyn ServiceInvoker,
        depth: usize,
    ) -> Result<MaterializationReport, Fault> {
        if depth > self.max_depth {
            return Err(Fault::execution(format!(
                "nested materialization exceeded max depth {} at {}",
                self.max_depth, call.method
            )));
        }
        let mut report = MaterializationReport::default();
        let params = self.resolve_params(call, invoker, &mut report, depth)?;
        let resolved = ResolvedCall {
            service_url: call.service_url.clone(),
            service_ns: call.service_ns.clone(),
            method: call.method.clone(),
            params,
        };
        let items = self.invoke_with_handlers(call, &resolved, invoker, &mut report)?;
        if let Some(sc_node) = call.node {
            self.apply_results(doc, call, sc_node, &items, &mut report)?;
            report.materialized += 1;
            // Results that are themselves service calls: nested invocation.
            let mut nested = Vec::new();
            if let Ok(children) = doc.children(sc_node) {
                for c in children {
                    if let Ok(name) = doc.name(c) {
                        if consts::is_sc(name.prefix.as_deref(), &name.local) {
                            if let Some(nc) = ServiceCall::parse(doc, c) {
                                nested.push(nc);
                            }
                        }
                    }
                }
            }
            for nc in nested {
                let sub = self.materialize_call(doc, &nc, invoker, depth + 1)?;
                report.merge(sub);
            }
        }
        report.cost_nodes = report.effects.iter().map(Effect::cost_nodes).sum();
        Ok(report)
    }

    fn resolve_params(
        &self,
        call: &ServiceCall,
        invoker: &mut dyn ServiceInvoker,
        report: &mut MaterializationReport,
        depth: usize,
    ) -> Result<Vec<(String, String)>, Fault> {
        let mut out = Vec::with_capacity(call.params.len());
        for p in &call.params {
            let value =
                match &p.value {
                    ParamValue::Literal(v) => v.clone(),
                    ParamValue::External(name) => self.externals.get(name).cloned().ok_or_else(|| {
                        Fault::new("MissingExternal", format!("no value for external parameter ${name}"))
                    })?,
                    ParamValue::Xml(frags) => frags.iter().map(Fragment::text_content).collect(),
                    ParamValue::Call(nested) => {
                        // Local nesting: "evaluating a service call may require
                        // evaluating the parameters' service calls first".
                        if depth >= self.max_depth {
                            return Err(Fault::execution("parameter call nesting too deep"));
                        }
                        let resolved = self.resolve_params(nested, invoker, report, depth + 1)?;
                        let rc = ResolvedCall {
                            service_url: nested.service_url.clone(),
                            service_ns: nested.service_ns.clone(),
                            method: nested.method.clone(),
                            params: resolved,
                        };
                        let items = self.invoke_with_handlers(nested, &rc, invoker, report)?;
                        items.iter().map(Fragment::text_content).collect::<String>()
                    }
                };
            out.push((p.name.clone(), value));
        }
        Ok(out)
    }

    /// Invokes, consulting the call's fault handlers on failure (§3.2):
    /// `axml:retry` re-attempts (optionally against a replica peer), a
    /// substitution handler supplies a default result, anything else
    /// propagates the fault to the caller.
    fn invoke_with_handlers(
        &self,
        call: &ServiceCall,
        resolved: &ResolvedCall,
        invoker: &mut dyn ServiceInvoker,
        report: &mut MaterializationReport,
    ) -> Result<Vec<Fragment>, Fault> {
        let mut record = InvocationRecord {
            service_url: resolved.service_url.clone(),
            method: resolved.method.clone(),
            retries: 0,
            fault: None,
            items: 0,
            provider_effects: Vec::new(),
        };
        let first = invoker.invoke(resolved);
        match first {
            Ok(resp) => {
                record.items = resp.items.len();
                record.provider_effects = resp.effects.clone();
                report.invocations.push(record);
                Ok(resp.items)
            }
            Err(fault) => {
                let handler = call.handler_for(&fault.name).cloned();
                match handler.map(|h| h.action) {
                    Some(HandlerAction::Retry { times, wait, alternative }) => {
                        let alt_resolved = alternative.as_ref().map(|alt| ResolvedCall {
                            service_url: alt.service_url.clone(),
                            service_ns: alt.service_ns.clone(),
                            method: alt.method.clone(),
                            // Replica retries reuse the already-resolved params.
                            params: resolved.params.clone(),
                        });
                        let target = alt_resolved.as_ref().unwrap_or(resolved);
                        let mut last_fault = fault;
                        for _attempt in 0..times {
                            record.retries += 1;
                            report.retry_wait += wait;
                            match invoker.invoke(target) {
                                Ok(resp) => {
                                    record.items = resp.items.len();
                                    record.provider_effects = resp.effects.clone();
                                    report.invocations.push(record);
                                    return Ok(resp.items);
                                }
                                Err(f) => last_fault = f,
                            }
                        }
                        record.fault = Some(last_fault.name.clone());
                        report.invocations.push(record);
                        Err(last_fault)
                    }
                    Some(HandlerAction::Substitute(frags)) => {
                        record.items = frags.len();
                        report.invocations.push(record);
                        Ok(frags)
                    }
                    Some(HandlerAction::Propagate) | None => {
                        record.fault = Some(fault.name.clone());
                        report.invocations.push(record);
                        Err(fault)
                    }
                }
            }
        }
    }

    /// Applies invocation results to the call's element per its mode,
    /// logging every insert/delete as an [`Effect`].
    fn apply_results(
        &self,
        doc: &mut Document,
        call: &ServiceCall,
        sc_node: NodeId,
        items: &[Fragment],
        report: &mut MaterializationReport,
    ) -> Result<(), Fault> {
        let effects = apply_call_results(doc, call, sc_node, items)?;
        report.effects.extend(effects);
        Ok(())
    }
}

/// Applies invocation results to an `axml:sc` element per the call's mode
/// (§1: `replace` deletes the previous results in place, `merge` appends
/// as siblings), returning the primitive effects for the transaction log.
///
/// Exposed for the distributed engine in `axml-core`, which applies
/// results arriving asynchronously from remote peers.
pub fn apply_call_results(
    doc: &mut Document,
    call: &ServiceCall,
    sc_node: NodeId,
    items: &[Fragment],
) -> Result<Vec<Effect>, Fault> {
    let tree_err = |e: axml_xml::TreeError| Fault::execution(format!("applying results failed: {e}"));
    let query_err = |e: axml_query::QueryError| Fault::execution(format!("applying results failed: {e}"));
    let sc_path = NodePath::of(doc, sc_node).map_err(query_err)?;
    // Replace deletes the previous results, last first, remembering the
    // first slot: siblings, so one table holds them all.
    let mut previous: Vec<NodeId> = Vec::new();
    if call.mode == ScMode::Replace {
        previous.extend(call.result_nodes(doc));
        previous.reverse();
    }
    let mut effects = Vec::with_capacity(previous.len() + items.len());
    let mut insert_at = None;
    for (fragment, _parent, position) in doc.remove_to_fragments(&previous).map_err(tree_err)? {
        insert_at = Some(position);
        effects.push(Effect::Deleted { fragment, parent_path: sc_path.clone(), position });
    }
    let base = match insert_at {
        Some(p) => p,
        None => doc.children(sc_node).map_err(tree_err)?.len(), // merge: append after previous results
    };
    for (k, item) in items.iter().enumerate() {
        let node = doc.insert_fragment(sc_node, base + k, item).map_err(tree_err)?;
        // Derived, not climbed: an item's place is the call's and a count.
        let path = sc_path.child(base + k);
        debug_assert_eq!(Ok(&path), NodePath::of(doc, node).as_ref());
        effects.push(Effect::Inserted { node, path, fragment: item.clone() });
    }
    Ok(effects)
}

/// The name tests a query can match (relevance analysis input).
#[derive(Debug, Clone, Default)]
pub struct QueryNames {
    /// Local element names mentioned anywhere in projections or condition.
    pub names: HashSet<NameId>,
    /// True if any step uses `*` (matches everything).
    pub any_wildcard: bool,
}

impl QueryNames {
    /// Collects the name tests of a query.
    pub fn collect(query: &SelectQuery) -> QueryNames {
        let mut qn = QueryNames::default();
        for p in &query.projections {
            qn.add_path(p);
        }
        qn.add_condition(&query.condition);
        qn
    }

    fn add_path(&mut self, path: &PathExpr) {
        for step in &path.steps {
            match &step.test {
                axml_query::NameTest::Any => {
                    // `..`/`.` steps carry an Any test but don't select by
                    // name; only a real wildcard counts.
                    if matches!(step.axis, axml_query::Axis::Child | axml_query::Axis::Descendant) {
                        self.any_wildcard = true;
                    }
                }
                axml_query::NameTest::Name(q) => {
                    self.names.insert(q.local.clone());
                }
            }
        }
    }

    fn add_condition(&mut self, cond: &Condition) {
        match cond {
            Condition::True => {}
            Condition::Cmp { left, right, .. } => {
                for op in [left, right] {
                    if let Operand::Path { path, .. } = op {
                        self.add_path(path);
                    }
                }
            }
            Condition::Exists(p) => self.add_path(p),
            Condition::And(a, b) | Condition::Or(a, b) => {
                self.add_condition(a);
                self.add_condition(b);
            }
            Condition::Not(c) => self.add_condition(c),
        }
    }
}

/// Invokes services hosted on the same peer (registry + repository).
///
/// The distributed flavor lives in `axml-p2p`; this local invoker is what
/// a peer uses for its own services and what unit tests use.
pub struct LocalInvoker<'a> {
    /// The peer's service registry.
    pub registry: &'a ServiceRegistry,
    /// The peer's documents.
    pub repo: &'a mut Repository,
}

impl ServiceInvoker for LocalInvoker<'_> {
    fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
        let def = self
            .registry
            .get(&call.method)
            .ok_or_else(|| Fault::no_such_service(format!("{} (at {})", call.method, call.service_url)))?;
        def.execute(&call.params, self.repo)
    }

    fn result_hints(&self, call: &ResolvedCall) -> Option<Vec<String>> {
        self.registry.get(&call.method).map(|d| d.result_names.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceDef;

    /// The paper's ATPList.xml with both embedded calls.
    const ATP: &str = r#"<ATPList date="18042005">
        <player rank="1">
            <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
            <citizenship>Swiss</citizenship>
            <axml:sc mode="replace" serviceNameSpace="getPoints" serviceURL="peer://ap2" methodName="getPoints">
                <axml:params><axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param></axml:params>
                <points>475</points>
            </axml:sc>
            <axml:sc mode="merge" serviceNameSpace="g" serviceURL="peer://ap3" methodName="getGrandSlamsWonbyYear">
                <axml:params>
                    <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
                    <axml:param name="year"><axml:value>$year (external value)</axml:value></axml:param>
                </axml:params>
                <grandslamswon year="2003">A, W</grandslamswon>
                <grandslamswon year="2004">A, U</grandslamswon>
            </axml:sc>
        </player>
    </ATPList>"#;

    /// A registry with deterministic tennis services.
    fn registry() -> ServiceRegistry {
        let mut reg = ServiceRegistry::new();
        reg.register(
            ServiceDef::function("getPoints", |_params| Ok(vec![Fragment::elem_text("points", "890")]))
                .with_results(&["points"]),
        );
        reg.register(
            ServiceDef::function("getGrandSlamsWonbyYear", |params| {
                let year = params.iter().find(|(k, _)| k == "year").map(|(_, v)| v.clone()).unwrap_or_default();
                Ok(vec![Fragment::elem("grandslamswon").with_attr("year", year).with_text("A, F")])
            })
            .with_results(&["grandslamswon"]),
        );
        reg
    }

    fn engine() -> MaterializationEngine {
        MaterializationEngine::new(EvalMode::Lazy).with_external("year", "2005")
    }

    #[test]
    fn paper_query_a_materializes_only_grandslams() {
        // Query A: Select p/citizenship, p/grandslamswon …
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse(
            "Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer;",
        )
        .unwrap();
        let (hits, report) = engine().query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 1, "only getGrandSlamsWonbyYear");
        assert_eq!(report.invocations.len(), 1);
        assert_eq!(report.invocations[0].method, "getGrandSlamsWonbyYear");
        // merge mode: 2005 appended, previous results kept.
        let xml = doc.to_xml();
        assert!(xml.contains(r#"<grandslamswon year="2003">A, W</grandslamswon>"#));
        assert!(xml.contains(r#"<grandslamswon year="2005">A, F</grandslamswon>"#), "{xml}");
        assert!(xml.contains("<points>475</points>"), "getPoints NOT materialized: {xml}");
        // The only change w.r.t. the original: one inserted node tree.
        assert_eq!(report.effects.len(), 1);
        assert!(matches!(&report.effects[0], Effect::Inserted { fragment, .. }
            if fragment.attr("year") == Some("2005")));
        // Query results: citizenship + 3 grandslamswon.
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn paper_query_b_materializes_only_points() {
        // Query B: Select p/citizenship, p/points …
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse(
            "Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer;",
        )
        .unwrap();
        let (hits, report) = engine().query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 1, "only getPoints");
        assert_eq!(report.invocations[0].method, "getPoints");
        // replace mode: 475 → 890, logged as delete+insert.
        let xml = doc.to_xml();
        assert!(xml.contains("<points>890</points>"), "{xml}");
        assert!(!xml.contains("475"), "{xml}");
        assert_eq!(report.effects.len(), 2);
        assert!(matches!(&report.effects[0], Effect::Deleted { fragment, .. } if fragment.text_content() == "475"));
        assert!(matches!(&report.effects[1], Effect::Inserted { fragment, .. } if fragment.text_content() == "890"));
        assert_eq!(hits.len(), 2);
        assert_eq!(doc.text_content(hits[1]).unwrap(), "890");
    }

    #[test]
    fn eager_materializes_everything() {
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse("Select p/citizenship from p in ATPList//player").unwrap();
        let engine = MaterializationEngine::new(EvalMode::Eager).with_external("year", "2005");
        let (_, report) = engine.query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 2);
    }

    #[test]
    fn re_materialization_performs_zero_fresh_name_allocations() {
        // Clone-audit pin: once a warm-up run has interned every name the
        // pipeline touches (document names, `axml:sc` wrapper names,
        // handler result names), a second parse + eager materialization
        // must be pure intern-table *hits* — re-wrapping service calls and
        // grafting results only bumps `Arc` refcounts, never allocates a
        // fresh name. The intern table is thread-local, so both runs live
        // inside this one test.
        let run = || {
            let mut doc = Document::parse(ATP).unwrap();
            let mut repo = Repository::new();
            let reg = registry();
            let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
            let q = SelectQuery::parse("Select p/citizenship from p in ATPList//player").unwrap();
            let engine = MaterializationEngine::new(EvalMode::Eager).with_external("year", "2005");
            let (_, report) = engine.query(&mut doc, &q, &mut inv).unwrap();
            assert_eq!(report.materialized, 2);
            doc.to_xml()
        };
        let first = run();
        let (hits_before, misses_before) = axml_xml::intern_stats();
        let second = run();
        let (hits_after, misses_after) = axml_xml::intern_stats();
        assert_eq!(second, first, "materialization must be deterministic");
        assert_eq!(misses_after, misses_before, "re-materializing an already-seen document allocated fresh names");
        assert!(hits_after > hits_before, "second run should resolve names through the warm table");
    }

    #[test]
    fn lazy_skips_out_of_scope_calls() {
        // Query bound to player rank 2 must not touch rank-1 calls.
        let with_second_player = ATP.replace(
            "</ATPList>",
            r#"<player rank="2"><name><lastname>Nadal</lastname></name><citizenship>Spanish</citizenship></player></ATPList>"#,
        );
        let mut doc = Document::parse(&with_second_player).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse("Select p/points from p in ATPList/player[@rank=2]").unwrap();
        let (_, report) = engine().query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 0, "rank-1 calls are outside the binding subtree");
    }

    #[test]
    fn wildcard_queries_are_conservative() {
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse("Select p/* from p in ATPList//player").unwrap();
        let (_, report) = engine().query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 2, "wildcard needs everything");
    }

    #[test]
    fn where_clause_names_count_for_relevance() {
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        // Projection doesn't mention points, but the filter does.
        let q = SelectQuery::parse("Select p/citizenship from p in ATPList//player where p/points > 500").unwrap();
        let (hits, report) = engine().query(&mut doc, &q, &mut inv).unwrap();
        assert_eq!(report.materialized, 1);
        assert_eq!(report.invocations[0].method, "getPoints");
        assert_eq!(hits.len(), 1, "890 > 500 after refresh");
    }

    #[test]
    fn missing_external_faults() {
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse("Select p/grandslamswon from p in ATPList//player").unwrap();
        let engine = MaterializationEngine::new(EvalMode::Lazy); // no external for $year
        let err = engine.query(&mut doc, &q, &mut inv).unwrap_err();
        assert_eq!(err.name, "MissingExternal");
    }

    #[test]
    fn retry_handler_retries_then_succeeds() {
        use std::cell::Cell;
        struct Flaky<'a> {
            fails_left: &'a Cell<u32>,
        }
        impl ServiceInvoker for Flaky<'_> {
            fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                if self.fails_left.get() > 0 {
                    self.fails_left.set(self.fails_left.get() - 1);
                    Err(Fault::new("A", "transient"))
                } else {
                    Ok(ServiceResponse { items: vec![Fragment::elem_text("r", "ok")], effects: vec![] })
                }
            }
        }
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://x" serviceNameSpace="m">
                <axml:catch faultName="A"><axml:retry times="3" wait="10"/></axml:catch>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let fails = Cell::new(2);
        let mut inv = Flaky { fails_left: &fails };
        let report = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut inv, 0).unwrap();
        assert_eq!(report.invocations[0].retries, 2);
        assert_eq!(report.retry_wait, 20);
        assert!(doc.to_xml().contains("<r>ok</r>"));
    }

    #[test]
    fn retry_exhaustion_propagates() {
        struct AlwaysFails;
        impl ServiceInvoker for AlwaysFails {
            fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                Err(Fault::new("A", "permanent"))
            }
        }
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://x" serviceNameSpace="m">
                <axml:catch faultName="A"><axml:retry times="2" wait="5"/></axml:catch>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let err = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut AlwaysFails, 0).unwrap_err();
        assert_eq!(err.name, "A");
    }

    #[test]
    fn retry_uses_replica_alternative() {
        struct OnlyReplica;
        impl ServiceInvoker for OnlyReplica {
            fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                if call.service_url == "peer://replica" {
                    Ok(ServiceResponse { items: vec![Fragment::elem_text("r", "from-replica")], effects: vec![] })
                } else {
                    Err(Fault::new("A", "primary down"))
                }
            }
        }
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://primary" serviceNameSpace="m">
                <axml:catch faultName="A">
                    <axml:retry times="1" wait="0">
                        <axml:sc methodName="m" serviceURL="peer://replica" serviceNameSpace="m"/>
                    </axml:retry>
                </axml:catch>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        MaterializationEngine::default().materialize_call(&mut doc, &call, &mut OnlyReplica, 0).unwrap();
        assert!(doc.to_xml().contains("from-replica"));
    }

    #[test]
    fn substitute_handler_supplies_default() {
        struct Down;
        impl ServiceInvoker for Down {
            fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                Err(Fault::new("B", "down"))
            }
        }
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://x" serviceNameSpace="m">
                <axml:catch faultName="B"><fallback>default</fallback></axml:catch>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let report = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut Down, 0).unwrap();
        assert!(doc.to_xml().contains("<fallback>default</fallback>"));
        assert!(report.invocations[0].fault.is_none(), "handled faults are cleared");
    }

    #[test]
    fn unhandled_fault_propagates() {
        struct Down;
        impl ServiceInvoker for Down {
            fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                Err(Fault::new("C", "down"))
            }
        }
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://x" serviceNameSpace="m">
                <axml:catch faultName="B"><fallback>default</fallback></axml:catch>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let err = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut Down, 0).unwrap_err();
        assert_eq!(err.name, "C");
    }

    #[test]
    fn param_call_local_nesting() {
        // outer(param = inner()) — inner is invoked first, its text result
        // becomes the parameter.
        struct Fabric;
        impl ServiceInvoker for Fabric {
            fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                match call.method.as_str() {
                    "inner" => Ok(ServiceResponse { items: vec![Fragment::elem_text("v", "42")], effects: vec![] }),
                    "outer" => {
                        let p = call.params.iter().find(|(k, _)| k == "in").map(|(_, v)| v.clone()).unwrap_or_default();
                        Ok(ServiceResponse {
                            items: vec![Fragment::elem_text("out", format!("got-{p}"))],
                            effects: vec![],
                        })
                    }
                    other => Err(Fault::no_such_service(other)),
                }
            }
        }
        let src = r#"<r>
            <axml:sc methodName="outer" serviceURL="peer://a" serviceNameSpace="o">
                <axml:params>
                    <axml:param name="in">
                        <axml:sc methodName="inner" serviceURL="peer://b" serviceNameSpace="i"/>
                    </axml:param>
                </axml:params>
            </axml:sc>
        </r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let report = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut Fabric, 0).unwrap();
        assert_eq!(report.invocations.len(), 2, "inner then outer");
        assert_eq!(report.invocations[0].method, "inner");
        assert_eq!(report.invocations[1].method, "outer");
        assert!(doc.to_xml().contains("<out>got-42</out>"));
    }

    #[test]
    fn result_service_call_triggers_nested_invocation() {
        // A service returns another service call as its result.
        struct Fabric;
        impl ServiceInvoker for Fabric {
            fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                match call.method.as_str() {
                    "indirect" => {
                        let sc = ServiceCall::build("peer://b", "direct", ScMode::Replace);
                        Ok(ServiceResponse { items: vec![sc.to_fragment()], effects: vec![] })
                    }
                    "direct" => {
                        Ok(ServiceResponse { items: vec![Fragment::elem_text("final", "yes")], effects: vec![] })
                    }
                    other => Err(Fault::no_such_service(other)),
                }
            }
        }
        let src = r#"<r><axml:sc methodName="indirect" serviceURL="peer://a" serviceNameSpace="x"/></r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let report = MaterializationEngine::default().materialize_call(&mut doc, &call, &mut Fabric, 0).unwrap();
        assert_eq!(report.materialized, 2);
        assert!(doc.to_xml().contains("<final>yes</final>"), "{}", doc.to_xml());
        // The nested call's results live inside the returned sc element,
        // which the transparent view elides.
        let q = SelectQuery::parse("Select v/final from v in r").unwrap();
        let hits = TransparentView::eval(&doc, &q).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn depth_limit_stops_runaway_nesting() {
        // A service that always returns another call to itself.
        struct Loopy;
        impl ServiceInvoker for Loopy {
            fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
                let sc = ServiceCall::build("peer://a", "loop", ScMode::Replace);
                Ok(ServiceResponse { items: vec![sc.to_fragment()], effects: vec![] })
            }
        }
        let src = r#"<r><axml:sc methodName="loop" serviceURL="peer://a" serviceNameSpace="x"/></r>"#;
        let mut doc = Document::parse(src).unwrap();
        let call = ServiceCall::scan(&doc).remove(0);
        let engine = MaterializationEngine { max_depth: 3, ..Default::default() };
        let err = engine.materialize_call(&mut doc, &call, &mut Loopy, 0).unwrap_err();
        assert!(err.message.contains("max depth"), "{err}");
    }

    #[test]
    fn materialize_all_fixpoint() {
        let mut doc = Document::parse(ATP).unwrap();
        let mut repo = Repository::new();
        let reg = registry();
        let mut inv = LocalInvoker { registry: &reg, repo: &mut repo };
        let engine = MaterializationEngine::new(EvalMode::Eager).with_external("year", "2005");
        let report = engine.materialize_all(&mut doc, &mut inv).unwrap();
        assert_eq!(report.materialized, 2);
    }

    #[test]
    fn query_names_collection() {
        let q = SelectQuery::parse(
            "Select p/citizenship, p/a/b from p in ATPList//player where p/points > 1 and exists p/name",
        )
        .unwrap();
        let names = QueryNames::collect(&q);
        for n in ["citizenship", "a", "b", "points", "name"] {
            assert!(names.names.contains(n), "{n}");
        }
        assert!(!names.any_wildcard);
        let q = SelectQuery::parse("Select p/* from p in r").unwrap();
        assert!(QueryNames::collect(&q).any_wildcard);
        // Parent steps don't count as wildcards.
        let q = SelectQuery::parse("Select p/a/.. from p in r").unwrap();
        assert!(!QueryNames::collect(&q).any_wildcard);
    }
}

/// Bookkeeping for periodic materialization: last invocation time per
/// `axml:sc` node.
pub type PeriodicTable = std::collections::BTreeMap<NodeId, u64>;

impl MaterializationEngine {
    /// The embedded calls whose `frequency` interval has elapsed —
    /// "an embedded service call may be invoked … periodically (specified
    /// by the `frequency` attribute)". Calls never invoked before are due
    /// immediately.
    pub fn due_calls(&self, doc: &Document, table: &PeriodicTable, now: u64) -> Vec<ServiceCall> {
        ServiceCall::scan(doc)
            .into_iter()
            .filter(|c| match (c.frequency, c.node) {
                (Some(freq), Some(node)) => match table.get(&node) {
                    None => true,
                    Some(&last) => now.saturating_sub(last) >= freq,
                },
                _ => false,
            })
            .collect()
    }

    /// Materializes every due periodic call, updating the table.
    pub fn materialize_due(
        &self,
        doc: &mut Document,
        invoker: &mut dyn ServiceInvoker,
        table: &mut PeriodicTable,
        now: u64,
    ) -> Result<MaterializationReport, Fault> {
        let due = self.due_calls(doc, table, now);
        let mut report = MaterializationReport::default();
        for call in due {
            let node = call.node.expect("scanned calls have nodes");
            let sub = self.materialize_call(doc, &call, invoker, 0)?;
            report.merge(sub);
            table.insert(node, now);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod periodic_tests {
    use super::*;

    struct Counter(u32);

    impl ServiceInvoker for Counter {
        fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
            self.0 += 1;
            Ok(ServiceResponse { items: vec![Fragment::elem_text("tick", self.0.to_string())], effects: vec![] })
        }
    }

    const SRC: &str = r#"<r>
        <axml:sc methodName="feed" serviceURL="peer://a" serviceNameSpace="f" frequency="10" mode="replace"/>
        <axml:sc methodName="once" serviceURL="peer://a" serviceNameSpace="o" mode="replace"/>
    </r>"#;

    #[test]
    fn only_frequency_calls_are_periodic() {
        let doc = Document::parse(SRC).unwrap();
        let engine = MaterializationEngine::default();
        let table = PeriodicTable::new();
        let due = engine.due_calls(&doc, &table, 0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].method, "feed");
    }

    #[test]
    fn due_respects_interval() {
        let mut doc = Document::parse(SRC).unwrap();
        let engine = MaterializationEngine::default();
        let mut table = PeriodicTable::new();
        let mut inv = Counter(0);
        // t=0: due (never invoked); result replaces.
        let r = engine.materialize_due(&mut doc, &mut inv, &mut table, 0).unwrap();
        assert_eq!(r.materialized, 1);
        assert!(doc.to_xml().contains("<tick>1</tick>"));
        // t=5: not due yet.
        let r = engine.materialize_due(&mut doc, &mut inv, &mut table, 5).unwrap();
        assert_eq!(r.materialized, 0);
        // t=10: due again; replace mode swaps the tick.
        let r = engine.materialize_due(&mut doc, &mut inv, &mut table, 10).unwrap();
        assert_eq!(r.materialized, 1);
        assert!(doc.to_xml().contains("<tick>2</tick>"));
        assert!(!doc.to_xml().contains("<tick>1</tick>"));
    }

    #[test]
    fn periodic_effects_feed_the_log_like_any_materialization() {
        let mut doc = Document::parse(SRC).unwrap();
        let engine = MaterializationEngine::default();
        let mut table = PeriodicTable::new();
        let mut inv = Counter(0);
        let before = doc.to_xml();
        let r1 = engine.materialize_due(&mut doc, &mut inv, &mut table, 0).unwrap();
        let r2 = engine.materialize_due(&mut doc, &mut inv, &mut table, 20).unwrap();
        let mut all = r1.effects;
        all.extend(r2.effects);
        // Compensating the combined log restores the original document.
        for e in all.iter().rev() {
            match e {
                axml_query::Effect::Deleted { fragment, parent_path, position } => {
                    axml_query::UpdateAction::insert_at(
                        axml_query::Locator::Node(parent_path.clone()),
                        vec![fragment.clone()],
                        axml_query::InsertPos::At(*position),
                    )
                    .apply(&mut doc)
                    .unwrap();
                }
                axml_query::Effect::Inserted { path, .. } => {
                    axml_query::UpdateAction::delete(axml_query::Locator::Node(path.clone())).apply(&mut doc).unwrap();
                }
            }
        }
        assert_eq!(doc.to_xml(), before);
    }
}
