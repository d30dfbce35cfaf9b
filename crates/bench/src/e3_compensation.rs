//! E3 — dynamic (log-based) vs static (pre-declared) compensation.
//!
//! The paper's central §3.1 argument: "the data (nodes) required for
//! compensation cannot be predicted in advance and would need to be read
//! from the log at run-time". We apply random operation sequences to
//! random documents and compensate them two ways:
//!
//! - **dynamic**: invert the logged effects in reverse order;
//! - **static**: inverses pre-computed once against the *initial*
//!   document (no run-time knowledge), the classical model.
//!
//! Measured: exact (ordered) and unordered restoration rates, skipped
//! operations, nodes touched, and log size. Expected shape: dynamic is
//! always exact; static degrades with sequence length and document churn.

use axml_core::compensate::{apply_compensation, compensation_for_effects};
use axml_query::{ActionType, Effect, InsertPos, Locator, UpdateAction};
use axml_workload::{random_ops, random_plain_doc, DocParams, OpMix};
use axml_xml::{equivalent_ordered, equivalent_unordered, Document};

use crate::table::Table;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Document size (element nodes).
    pub doc_nodes: usize,
    /// Operations per sequence.
    pub ops: usize,
    /// `dynamic` or `static`.
    pub mode: String,
    /// Fraction of trials restoring the exact (ordered) state.
    pub exact_rate: f64,
    /// Fraction restoring up to sibling order.
    pub unordered_rate: f64,
    /// Mean operations without a usable inverse (static under-compensation).
    pub missing_per_trial: f64,
    /// Mean nodes touched by compensation.
    pub comp_nodes: f64,
    /// Mean log size in bytes (serialized effects; dynamic only).
    pub log_bytes: f64,
}

fn effects_log_bytes(effects: &[Effect]) -> usize {
    effects
        .iter()
        .map(|e| match e {
            Effect::Inserted { fragment, path, .. } => fragment.to_xml().len() + path.to_string().len(),
            Effect::Deleted { fragment, parent_path, .. } => fragment.to_xml().len() + parent_path.to_string().len(),
        })
        .sum()
}

/// Pre-computes a static inverse for `op` against the pristine `initial`
/// document — what a designer could declare before run time.
fn static_inverse(op: &UpdateAction, initial: &Document) -> Option<Vec<UpdateAction>> {
    match op.ty {
        ActionType::Query => Some(vec![]), // classical assumption: queries need no compensation
        ActionType::Insert => {
            // "Delete what the insert will add" — expressible only as a
            // location query guess; we delete by the data's element name
            // under the same location.
            let name = op.data.first().and_then(|f| f.name().cloned())?;
            let loc = match &op.location {
                Locator::Path(p) => {
                    let mut p2 = p.clone();
                    p2.steps.push(axml_query::Step::child(name));
                    Locator::Path(p2)
                }
                other => other.clone(),
            };
            let mut del = UpdateAction::delete(loc);
            del.allow_empty_location = true;
            Some(vec![del])
        }
        ActionType::Delete => {
            // Re-insert the data as selected on the INITIAL document.
            let mut probe = op.clone();
            probe.allow_empty_location = true;
            let targets = probe.location.locate(initial).ok()?;
            let mut inserts = Vec::new();
            for t in targets {
                let parent = initial.parent(t).ok().flatten()?;
                let frag = initial.extract_fragment(t).ok()?;
                let parent_path = axml_query::NodePath::of(initial, parent).ok()?;
                let mut ins = UpdateAction::insert_at(Locator::Node(parent_path), vec![frag], InsertPos::LastChild);
                ins.allow_empty_location = true;
                inserts.push(ins);
            }
            Some(inserts)
        }
        ActionType::Replace => {
            // Replace back with the INITIAL value.
            let mut probe = op.clone();
            probe.allow_empty_location = true;
            let targets = probe.location.locate(initial).ok()?;
            let mut replaces = Vec::new();
            for t in targets {
                let frag = initial.extract_fragment(t).ok()?;
                let mut rep = UpdateAction::replace(op.location.clone(), vec![frag]);
                rep.allow_empty_location = true;
                replaces.push(rep);
            }
            Some(replaces)
        }
    }
}

/// Runs one trial; returns `(exact, unordered, missing, comp_nodes,
/// log_bytes)`.
fn trial(seed: u64, doc_nodes: usize, ops_count: usize, dynamic: bool) -> (bool, bool, usize, usize, usize) {
    let params = DocParams { nodes: doc_nodes, ..Default::default() };
    let initial = random_plain_doc(seed, &params);
    let ops = random_ops(seed ^ 0xface, &initial, OpMix::default(), ops_count);
    let mut doc = initial.clone();

    if dynamic {
        let mut all_effects = Vec::new();
        for op in &ops {
            let mut tolerant = op.clone();
            tolerant.allow_empty_location = true;
            if let Ok(report) = tolerant.apply(&mut doc) {
                all_effects.extend(report.effects);
            }
        }
        let log_bytes = effects_log_bytes(&all_effects);
        let comp = compensation_for_effects(&all_effects);
        let comp_nodes = apply_compensation(&mut doc, &comp).unwrap_or(0);
        (equivalent_ordered(&doc, &initial), equivalent_unordered(&doc, &initial), 0, comp_nodes, log_bytes)
    } else {
        // Static: inverses pinned to the initial state, applied in reverse.
        let inverses: Vec<Option<Vec<UpdateAction>>> = ops.iter().map(|op| static_inverse(op, &initial)).collect();
        for op in &ops {
            let mut tolerant = op.clone();
            tolerant.allow_empty_location = true;
            let _ = tolerant.apply(&mut doc);
        }
        let mut missing = 0usize;
        let mut comp_nodes = 0usize;
        for inv in inverses.iter().rev() {
            match inv {
                None => missing += 1,
                Some(actions) => {
                    for a in actions {
                        if let Ok(r) = a.apply(&mut doc) {
                            comp_nodes += r.cost_nodes;
                        }
                    }
                }
            }
        }
        (equivalent_ordered(&doc, &initial), equivalent_unordered(&doc, &initial), missing, comp_nodes, 0)
    }
}

/// Runs the default sweep: document sizes × sequence lengths × modes.
pub fn run(trials: usize) -> Vec<Row> {
    run_with(&[50, 200, 1000], &[5, 20, 50], trials)
}

/// Runs a custom sweep (tests use a trimmed one to stay fast).
pub fn run_with(sizes: &[usize], ops: &[usize], trials: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &doc_nodes in sizes {
        for &ops_count in ops {
            for dynamic in [true, false] {
                let mut exact = 0usize;
                let mut unordered = 0usize;
                let mut missing = 0usize;
                let mut comp_nodes = 0usize;
                let mut log_bytes = 0usize;
                for t in 0..trials {
                    let seed = (t as u64) * 7919 + doc_nodes as u64 + ops_count as u64;
                    let (e, u, m, c, l) = trial(seed, doc_nodes, ops_count, dynamic);
                    exact += e as usize;
                    unordered += u as usize;
                    missing += m;
                    comp_nodes += c;
                    log_bytes += l;
                }
                let n = trials.max(1) as f64;
                rows.push(Row {
                    doc_nodes,
                    ops: ops_count,
                    mode: if dynamic { "dynamic".into() } else { "static".into() },
                    exact_rate: exact as f64 / n,
                    unordered_rate: unordered as f64 / n,
                    missing_per_trial: missing as f64 / n,
                    comp_nodes: comp_nodes as f64 / n,
                    log_bytes: log_bytes as f64 / n,
                });
            }
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E3 — dynamic (log-based) vs static (pre-declared) compensation",
        &["doc-nodes", "ops", "mode", "exact", "unordered", "missing/trial", "comp-nodes", "log-bytes"],
    );
    for r in rows {
        t.row(vec![
            r.doc_nodes.to_string(),
            r.ops.to_string(),
            r.mode.clone(),
            format!("{:.2}", r.exact_rate),
            format!("{:.2}", r.unordered_rate),
            format!("{:.1}", r.missing_per_trial),
            format!("{:.1}", r.comp_nodes),
            format!("{:.0}", r.log_bytes),
        ]);
    }
    t.with_note(
        "expected shape: dynamic restores exactly (rate 1.0) at modest log cost; \
         static degrades as sequences grow (stale inverses, position loss) and cannot be exact",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_always_exact() {
        let rows = run_with(&[50, 200], &[5, 20, 50], 5);
        for r in rows.iter().filter(|r| r.mode == "dynamic") {
            assert_eq!(r.exact_rate, 1.0, "dynamic must be exact: {r:?}");
            assert!(r.log_bytes >= 0.0);
        }
    }

    #[test]
    fn static_degrades_with_sequence_length() {
        let rows = run_with(&[50, 200], &[5, 20, 50], 8);
        let rate = |ops: usize| {
            let sel: Vec<&Row> = rows.iter().filter(|r| r.mode == "static" && r.ops == ops).collect();
            sel.iter().map(|r| r.exact_rate).sum::<f64>() / sel.len() as f64
        };
        assert!(rate(50) < 1.0, "static cannot stay exact over 50 ops: {}", rate(50));
        assert!(rate(5) >= rate(50), "longer sequences hurt static more");
        // Dynamic beats static overall.
        let n = (rows.len() / 2) as f64;
        let dyn_avg: f64 = rows.iter().filter(|r| r.mode == "dynamic").map(|r| r.exact_rate).sum::<f64>() / n;
        let stat_avg: f64 = rows.iter().filter(|r| r.mode == "static").map(|r| r.exact_rate).sum::<f64>() / n;
        assert!(dyn_avg > stat_avg);
    }

    #[test]
    fn trial_is_deterministic() {
        assert_eq!(trial(3, 100, 10, true), trial(3, 100, 10, true));
        assert_eq!(trial(3, 100, 10, false), trial(3, 100, 10, false));
    }
}
