//! E4 — lazy vs eager materialization (§3.1).
//!
//! Reproduces the paper's Query A / Query B contrast on the ATP document
//! and sweeps query selectivity on synthetic documents. Claim validated:
//! lazy evaluation materializes only what a query needs — which is
//! exactly why query compensation must be constructed dynamically.

use axml_doc::{EvalMode, Fault, MaterializationEngine, ResolvedCall, ServiceInvoker, ServiceResponse};
use axml_query::SelectQuery;
use axml_workload::{atp_document, random_axml_doc, DocParams};
use axml_xml::Fragment;

use crate::table::Table;

/// One measured query/mode combination.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload label.
    pub workload: String,
    /// `lazy` or `eager`.
    pub mode: String,
    /// Embedded calls present in the document.
    pub calls_total: usize,
    /// Calls actually materialized.
    pub calls_materialized: usize,
    /// Primitive effects logged (the compensation input).
    pub effects: usize,
    /// Nodes affected.
    pub cost_nodes: usize,
}

/// Deterministic fabric standing in for the remote tennis services.
struct Fabric;

impl ServiceInvoker for Fabric {
    fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
        match call.method.as_str() {
            "getPoints" => Ok(ServiceResponse { items: vec![Fragment::elem_text("points", "890")], effects: vec![] }),
            "getGrandSlamsWonbyYear" => {
                let year = call.params.iter().find(|(k, _)| k == "year").map(|(_, v)| v.clone()).unwrap_or_default();
                Ok(ServiceResponse {
                    items: vec![Fragment::elem("grandslamswon").with_attr("year", year).with_text("A, F")],
                    effects: vec![],
                })
            }
            m if m.starts_with("svc") => {
                let k = m.trim_start_matches("svc");
                Ok(ServiceResponse {
                    items: vec![Fragment::elem_text(format!("r{k}"), format!("fresh{k}"))],
                    effects: vec![],
                })
            }
            other => Err(Fault::no_such_service(other)),
        }
    }

    fn result_hints(&self, call: &ResolvedCall) -> Option<Vec<String>> {
        match call.method.as_str() {
            "getPoints" => Some(vec!["points".into()]),
            "getGrandSlamsWonbyYear" => Some(vec!["grandslamswon".into()]),
            m if m.starts_with("svc") => Some(vec![format!("r{}", m.trim_start_matches("svc"))]),
            _ => None,
        }
    }
}

fn measure(workload: &str, doc: &axml_xml::Document, query: &SelectQuery, mode: EvalMode) -> Row {
    let calls_total = axml_doc::ServiceCall::scan(doc).len();
    let mut doc = doc.clone();
    let engine = MaterializationEngine::new(mode).with_external("year", "2005");
    let (_hits, report) = engine.query(&mut doc, query, &mut Fabric).expect("query runs");
    Row {
        workload: workload.to_string(),
        mode: match mode {
            EvalMode::Lazy => "lazy".into(),
            EvalMode::Eager => "eager".into(),
        },
        calls_total,
        calls_materialized: report.materialized,
        effects: report.effects.len(),
        cost_nodes: report.cost_nodes,
    }
}

/// Runs the sweep.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    let atp = atp_document();
    let query_a = SelectQuery::parse(
        "Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer;",
    )
    .expect("query A");
    let query_b =
        SelectQuery::parse("Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer;")
            .expect("query B");
    for mode in [EvalMode::Lazy, EvalMode::Eager] {
        rows.push(measure("ATP / query A (grandslamswon)", &atp, &query_a, mode));
        rows.push(measure("ATP / query B (points)", &atp, &query_b, mode));
    }
    // Synthetic: 20 embedded calls, queries selecting 1, 5, or all result names.
    let params = DocParams { nodes: 200, service_calls: 20, sc_urls: vec!["peer://ap9".into()], ..Default::default() };
    let doc = random_axml_doc(13, &params);
    for &k in &[1usize, 5, 20] {
        let projs: Vec<String> = (0..k).map(|i| format!("v//r{i}")).collect();
        let q = SelectQuery::parse(&format!("Select {} from v in root", projs.join(", "))).expect("synthetic query");
        for mode in [EvalMode::Lazy, EvalMode::Eager] {
            rows.push(measure(&format!("synthetic / {k} of 20 names"), &doc, &q, mode));
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E4 — lazy vs eager materialization (paper queries A/B + synthetic selectivity sweep)",
        &["workload", "mode", "calls", "materialized", "effects", "cost-nodes"],
    );
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.mode.clone(),
            r.calls_total.to_string(),
            r.calls_materialized.to_string(),
            r.effects.to_string(),
            r.cost_nodes.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: lazy materializes only the calls the query names (1 for queries A/B; \
         k of 20 in the sweep); eager always materializes everything — \
         the run-time-dependent effect set is why query compensation is dynamic",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_queries_shape() {
        let rows = run();
        let find = |w: &str, m: &str| rows.iter().find(|r| r.workload.contains(w) && r.mode == m).unwrap();
        // Query A lazily materializes only getGrandSlamsWonbyYear.
        assert_eq!(find("query A", "lazy").calls_materialized, 1);
        assert_eq!(find("query B", "lazy").calls_materialized, 1);
        assert_eq!(find("query A", "eager").calls_materialized, 2);
        // Query B (replace mode) deletes + inserts; A (merge) only inserts.
        assert!(find("query B", "lazy").effects > find("query A", "lazy").effects);
    }

    #[test]
    fn selectivity_scales_lazy_only() {
        let rows = run();
        let lazy =
            |k: &str| rows.iter().find(|r| r.workload.contains(k) && r.mode == "lazy").unwrap().calls_materialized;
        let eager =
            |k: &str| rows.iter().find(|r| r.workload.contains(k) && r.mode == "eager").unwrap().calls_materialized;
        assert!(lazy("1 of 20") <= lazy("5 of 20"));
        assert!(lazy("5 of 20") <= lazy("20 of 20"));
        assert_eq!(eager("1 of 20"), 20);
        assert!(lazy("1 of 20") < 20, "lazy skips irrelevant calls");
    }
}
