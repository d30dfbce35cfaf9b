//! Scenario well-formedness rules (`W…`) — §3.2's recovery machinery
//! only works over scenarios whose declared structure makes sense.
//!
//! | Rule | Finding |
//! |------|---------|
//! | W001 | invocation graph is not a tree rooted at the origin |
//! | W002 | a named catch handler can never fire |
//! | W003 | a retry handler retries a permanently-failing subtree with no replica |
//! | W004 | a scheduled disconnect is a no-op |
//! | W005 | a super/replica/handler/fault declaration references nothing in the scenario |
//! | W006 | a peer's generated document (or an attached handler) does not parse |
//! | W007 | a handler is shadowed by an earlier catchAll or same-name catch on the same call |

use crate::diag::Diagnostic;
use axml_core::scenarios::ScenarioBuilder;
use axml_doc::{HandlerAction, ServiceCall};
use axml_xml::Document;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Fault names some component of the stack actually raises; a
/// `axml:catch` for anything else is dead code (rule W002). Public so
/// generators producing lint-clean scenarios *by construction* (the
/// chaos harness's `gen` module) draw from the same list the linter
/// checks against — the two can never drift apart.
pub const RAISABLE_FAULTS: &[&str] =
    &["PeerUnreachable", "NoSuchService", "ExecutionFault", "InjectedFault", "TxnResolved"];

/// The peers of the invocation tree proper (edges + origin, no replicas).
fn tree_peers(b: &ScenarioBuilder) -> BTreeSet<u32> {
    b.edges.iter().flat_map(|(p, c)| [*p, *c]).chain([b.origin]).collect()
}

/// `child` and everything below it, following edges (cycle-safe).
fn subtree_of(b: &ScenarioBuilder, child: u32) -> BTreeSet<u32> {
    let mut seen = BTreeSet::from([child]);
    let mut queue = VecDeque::from([child]);
    while let Some(p) = queue.pop_front() {
        for c in b.children_of(p) {
            if seen.insert(c) {
                queue.push_back(c);
            }
        }
    }
    seen
}

/// The child peer a generated `axml:sc` targets (`methodName="S{child}"`).
fn call_target(call: &ServiceCall) -> Option<u32> {
    call.method.strip_prefix('S').and_then(|s| s.parse().ok())
}

/// Runs every W-rule over a scenario description.
pub fn analyze_scenario(b: &ScenarioBuilder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let tree = tree_peers(b);
    let all = b.peers();

    // --- W001: the invocation graph must be a tree rooted at the origin.
    let mut parents: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut seen_edges = BTreeSet::new();
    for &(p, c) in &b.edges {
        if p == c {
            out.push(Diagnostic::error(
                "W001",
                format!("edge ({p}, {c})"),
                "self-invocation edge: a peer cannot be its own provider in the invocation tree",
                "remove the self-loop",
            ));
            continue;
        }
        if !seen_edges.insert((p, c)) {
            out.push(Diagnostic::error(
                "W001",
                format!("edge ({p}, {c})"),
                "duplicate invocation edge",
                "declare each invocation once",
            ));
            continue;
        }
        parents.entry(c).or_default().push(p);
    }
    if let Some(ps) = parents.get(&b.origin) {
        out.push(Diagnostic::error(
            "W001",
            format!("peer {}", b.origin),
            format!("the origin is invoked by {ps:?}; the root of the invocation tree must have no parent"),
            "submit the transaction at the actual tree root",
        ));
    }
    for (c, ps) in &parents {
        if ps.len() > 1 {
            out.push(Diagnostic::error(
                "W001",
                format!("peer {c}"),
                format!("invoked by multiple parents {ps:?}; the active-peer list is a tree"),
                "give each peer a single invoking parent",
            ));
        }
    }
    let reachable = subtree_of(b, b.origin);
    for &p in &tree {
        if !reachable.contains(&p) {
            out.push(Diagnostic::error(
                "W001",
                format!("peer {p}"),
                format!("not reachable from the origin {}; it will never join the transaction", b.origin),
                "connect the peer to the tree or drop its edges",
            ));
        }
    }

    // --- W005: declarations must reference things that exist.
    for &s in &b.supers {
        if !all.contains(&s) {
            out.push(Diagnostic::warning(
                "W005",
                format!("super {s}"),
                "super marker references a peer absent from the scenario",
                "mark an actual participant (or remove the marker)",
            ));
        }
    }
    for &(of, replica) in &b.replicas {
        if !tree.contains(&of) {
            out.push(Diagnostic::warning(
                "W005",
                format!("replica {replica} of {of}"),
                "replicates a peer that is not part of the invocation tree",
                "replicate a tree participant",
            ));
        }
    }
    for (peer, child, _) in &b.handlers {
        if !b.edges.contains(&(*peer, *child)) {
            out.push(Diagnostic::warning(
                "W005",
                format!("handler on ({peer}, {child})"),
                "attached to a call edge that does not exist",
                "attach handlers to declared invocation edges",
            ));
        }
    }
    if let Some(f) = b.inject_fault {
        if !all.contains(&f) {
            out.push(Diagnostic::warning(
                "W005",
                format!("fault at {f}"),
                "fault injected into a peer absent from the scenario",
                "inject the fault into a participant",
            ));
        }
    }
    for d in b.durations.keys() {
        if !all.contains(d) {
            out.push(Diagnostic::warning(
                "W005",
                format!("duration for {d}"),
                "service duration set for a peer absent from the scenario",
                "set durations for participants only",
            ));
        }
    }

    // --- W004: disconnects that cannot do anything.
    for &(at, p) in &b.disconnects {
        if !all.contains(&p) {
            out.push(Diagnostic::warning(
                "W004",
                format!("disconnect of {p} at t={at}"),
                "the peer is not part of the scenario; the disconnect is a no-op",
                "disconnect a participant",
            ));
        } else if b.supers.contains(&p) {
            out.push(Diagnostic::warning(
                "W004",
                format!("disconnect of {p} at t={at}"),
                "super peers are trusted peers which do not disconnect; the event is ignored",
                "disconnect a non-super participant (or unmark the peer)",
            ));
        } else if at > b.deadline {
            out.push(Diagnostic::warning(
                "W004",
                format!("disconnect of {p} at t={at}"),
                format!("scheduled after the deadline {}; the simulation never reaches it", b.deadline),
                "schedule the disconnect inside the simulated window",
            ));
        }
    }

    // --- W002/W003/W006: parse each peer's document and inspect the
    // handlers actually attached to its embedded calls.
    for &p in &tree {
        let xml = b.doc_xml(p);
        let doc = match Document::parse(&xml) {
            Ok(d) => d,
            Err(e) => {
                out.push(Diagnostic::error(
                    "W006",
                    format!("peer {p}"),
                    format!("generated document does not parse: {e}"),
                    "fix the handler XML attached to this peer's calls",
                ));
                continue;
            }
        };
        for call in ServiceCall::scan(&doc) {
            let Some(child) = call_target(&call) else { continue };
            let subtree = subtree_of(b, child);
            for (h, handler) in call.handlers.iter().enumerate() {
                let loc = format!("peer {p}, call to {child}, handler #{h}");
                // W007: handlers are consulted in declaration order and
                // the first match wins, so a catch is dead code when an
                // earlier handler on the same call already takes every
                // fault it could take — an enclosing catchAll, or a catch
                // for the same fault name.
                let shadowed_by = call.handlers[..h]
                    .iter()
                    .position(|prev| prev.fault_name.is_none() || prev.fault_name == handler.fault_name);
                if let Some(j) = shadowed_by {
                    let what = match &call.handlers[j].fault_name {
                        None => "the catchAll".to_string(),
                        Some(n) => format!("the catch for `{n}`"),
                    };
                    out.push(Diagnostic::warning(
                        "W007",
                        loc,
                        format!("unreachable: {what} at handler #{j} on the same call matches first"),
                        "drop the shadowed handler or move it before the broader one",
                    ));
                    continue;
                }
                if let Some(name) = &handler.fault_name {
                    if !RAISABLE_FAULTS.contains(&name.as_str()) {
                        out.push(Diagnostic::warning(
                            "W002",
                            loc.clone(),
                            format!("catches `{name}`, a fault no component raises; the handler can never fire"),
                            format!("catch one of {RAISABLE_FAULTS:?} or use catchAll"),
                        ));
                        continue;
                    }
                    if name == "InjectedFault" && !b.inject_fault.map(|f| subtree.contains(&f)).unwrap_or(false) {
                        out.push(Diagnostic::warning(
                            "W002",
                            loc.clone(),
                            "catches `InjectedFault` but no fault is injected below this call",
                            "inject the fault in this subtree or drop the handler",
                        ));
                        continue;
                    }
                }
                // W003: retrying a subtree that fails *permanently* (an
                // injected service fault fires on every attempt) only
                // helps if a replica can serve the failing peer.
                if let HandlerAction::Retry { alternative: None, .. } = &handler.action {
                    if let Some(f) = b.inject_fault {
                        let matches_fault = handler.fault_name.as_deref().map(|n| n == "InjectedFault").unwrap_or(true);
                        let has_replica = b.replicas.iter().any(|(of, _)| *of == f);
                        if subtree.contains(&f) && matches_fault && !has_replica {
                            out.push(Diagnostic::warning(
                                "W003",
                                loc,
                                format!(
                                    "retries a subtree whose peer {f} fails on every attempt and has no replica; the retries re-invoke the same failing provider"
                                ),
                                "register a replica of the failing peer or hand the fault to a substitute/propagate handler",
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_figures_are_clean() {
        assert!(analyze_scenario(&ScenarioBuilder::fig1()).is_empty());
        assert!(analyze_scenario(&ScenarioBuilder::fig2()).is_empty());
    }

    #[test]
    fn recovery_variants_are_clean() {
        // catchAll retry with a replica of the failing peer: W003 must not
        // fire — the retry has somewhere to go.
        let (b, _replica) = ScenarioBuilder::fig1().fault_at(5).with_replica(5);
        let b = b.retry_handler(3, 5, None, 2, 3);
        assert!(analyze_scenario(&b).is_empty(), "{:?}", analyze_scenario(&b));
        // Substitution handlers absorb the fault without retrying.
        let b = ScenarioBuilder::fig1().fault_at(5).substitute_handler(3, 5, None);
        assert!(analyze_scenario(&b).is_empty(), "{:?}", analyze_scenario(&b));
    }

    #[test]
    fn w001_cycles_orphans_and_multiparents() {
        // 3 invoked by both 2 and 4; 7→8 disconnected from the origin.
        let b = ScenarioBuilder::new(1, &[(1, 2), (2, 3), (4, 3), (7, 8), (9, 9)]);
        let diags = analyze_scenario(&b);
        let w001 = diags.iter().filter(|d| d.rule == "W001").count();
        assert!(w001 >= 4, "multi-parent + orphans {{4,7,8,9}} + self-loop: {diags:?}");
    }

    #[test]
    fn w002_unreachable_named_catch() {
        let b = ScenarioBuilder::fig1().retry_handler(1, 2, Some("NoSuchFaultEver"), 1, 1);
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W002"), "{diags:?}");
        // Catching InjectedFault on a branch with no injected fault.
        let b = ScenarioBuilder::fig1().fault_at(5).retry_handler(1, 2, Some("InjectedFault"), 1, 1);
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W002"), "{diags:?}");
        // Same handler on the failing branch is reachable.
        let (b, _r) = ScenarioBuilder::fig1().fault_at(5).with_replica(5);
        let b = b.retry_handler(3, 5, Some("InjectedFault"), 1, 1);
        assert!(analyze_scenario(&b).is_empty(), "{:?}", analyze_scenario(&b));
    }

    #[test]
    fn w003_retry_without_replica() {
        let b = ScenarioBuilder::fig1().fault_at(5).retry_handler(3, 5, None, 2, 3);
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W003"), "{diags:?}");
    }

    #[test]
    fn w004_noop_disconnects() {
        let b = ScenarioBuilder::fig2().disconnect(10, 99).disconnect(20, 1);
        let diags = analyze_scenario(&b);
        let w004 = diags.iter().filter(|d| d.rule == "W004").count();
        assert_eq!(w004, 2, "absent peer + super peer: {diags:?}");
    }

    #[test]
    fn w005_dangling_references() {
        let mut b = ScenarioBuilder::fig1();
        b.supers.push(42);
        b.replicas.push((77, 10));
        b.handlers.push((2, 5, "<axml:catchAll><out>x</out></axml:catchAll>".into()));
        let diags = analyze_scenario(&b);
        let w005 = diags.iter().filter(|d| d.rule == "W005").count();
        assert!(w005 >= 3, "{diags:?}");
    }

    #[test]
    fn w007_shadowed_handlers() {
        // A catchAll declared first swallows every fault; the later named
        // catch is dead code.
        let b =
            ScenarioBuilder::fig1().retry_handler(1, 2, None, 1, 1).retry_handler(1, 2, Some("ExecutionFault"), 1, 1);
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W007" && d.message.contains("catchAll")), "{diags:?}");
        // Two catches for the same fault name: the second never fires.
        let b = ScenarioBuilder::fig1().retry_handler(1, 2, Some("ExecutionFault"), 1, 1).substitute_handler(
            1,
            2,
            Some("ExecutionFault"),
        );
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W007" && d.message.contains("ExecutionFault")), "{diags:?}");
    }

    #[test]
    fn w007_distinct_catches_with_trailing_catchall_are_clean() {
        // Distinct named catches, broadest last — every handler reachable.
        let b = ScenarioBuilder::fig1()
            .retry_handler(1, 2, Some("ExecutionFault"), 1, 1)
            .retry_handler(1, 2, Some("PeerUnreachable"), 1, 1)
            .substitute_handler(1, 2, None);
        let diags = analyze_scenario(&b);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn w006_malformed_handler_xml() {
        let mut b = ScenarioBuilder::fig1();
        b.handlers.push((1, 2, "<axml:catchAll><unclosed></axml:catchAll>".into()));
        let diags = analyze_scenario(&b);
        assert!(diags.iter().any(|d| d.rule == "W006"), "{diags:?}");
    }
}
