//! The two stream workloads: one client submitting Fig. 1 transactions
//! to one long-lived simulator in a closed loop.
//!
//! `commit-stream` commits 4,000 transactions over 4-node documents, so
//! the peer handlers and the simulator queue do nearly all the work.
//! `big-doc` runs the same tree and protocol over 2,000-node documents,
//! committing on even steps and aborting on odd ones, so scanning,
//! materialisation, fragment copies and log-derived compensation do.

use crate::counts::LayerCounts;
use crate::inputs::{self, Workload, BIG_DOC_TXNS, COMMIT_STREAM_TXNS, FIG1_PEERS, SUBMIT_EVERY};
use crate::kernels::{self, Harvest};
use crate::metrics::Metrics;
use crate::span::Spans;
use crate::{stats, Outcome, RUN_PASSES_MIN, TRACED_PAIRS_MIN};
use axml_core::context::TxnState;
use axml_core::scenarios::{Scenario, ScenarioBuilder};
use axml_doc::Fault;
use axml_p2p::PeerId;
use std::collections::BTreeMap;
use std::time::Instant;

/// A set-up round's warm-up slice is this share of a pass: enough to
/// fill the intern table and touch every handler, and long enough
/// (≥ 0.17 s) for `setup_s` to be more than timer noise.
const WARM_UP_SHARE: u64 = 5;

/// Everything generated from the seed.
pub struct Inputs {
    workload: Workload,
    builder: ScenarioBuilder,
    /// `big-doc` only: the documents installed over the scenario's own.
    big_docs: Vec<(u32, String)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let builder = inputs::stream_builder(workload, seed);
        let big_docs = match workload {
            Workload::BigDoc => FIG1_PEERS.iter().map(|&p| (p, inputs::big_doc_xml(&builder, seed, p))).collect(),
            _ => Vec::new(),
        };
        Inputs { workload, builder, big_docs }
    }

    pub fn txns_per_pass(&self) -> u64 {
        match self.workload {
            Workload::BigDoc => BIG_DOC_TXNS,
            _ => COMMIT_STREAM_TXNS,
        }
    }

    /// A fresh simulator holding the workload's documents.
    pub fn build(&self) -> Scenario {
        let mut s = self.builder.clone().build();
        for (peer, xml) in &self.big_docs {
            s.sim.actor_mut(PeerId(*peer)).repo.put_xml(format!("d{peer}"), xml).expect("generated document parses");
        }
        s
    }

    /// Whether step `k` is meant to commit.
    fn commits(&self, k: u64) -> bool {
        self.workload != Workload::BigDoc || k.is_multiple_of(2)
    }
}

/// Submits and resolves transactions `steps`, one per [`SUBMIT_EVERY`]
/// ticks. The builder itself schedules step 0's submission.
fn run_steps(inputs: &Inputs, s: &mut Scenario, steps: std::ops::Range<u64>, spans: &mut Spans) {
    for k in steps {
        spans.enter("txn", k);
        if inputs.workload == Workload::BigDoc {
            let fault = (!inputs.commits(k)).then(|| Fault::injected("S5 fails while processing"));
            s.sim.actor_mut(PeerId(5)).registry.get_mut("S5").expect("S5 is registered").injected_fault = fault;
        }
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        spans.enter("sim.run_until", k);
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
        spans.exit();
        spans.exit();
    }
}

fn snapshot_docs(s: &Scenario) -> Vec<String> {
    FIG1_PEERS.iter().map(|&p| s.sim.actor(PeerId(p)).repo.get(&format!("d{p}")).expect("hosted").to_xml()).collect()
}

/// When a pass checks that an abort restored every document.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RestoreCheck {
    /// After every aborting step (warm-up: the checks are untimed there).
    EveryAbort,
    /// After the last aborting step only (timed passes: the snapshot is
    /// taken with the clock stopped).
    LastAbort,
}

/// One finished pass.
struct Pass {
    scenario: Scenario,
    /// Seconds spent inside [`run_steps`] — snapshots and checks excluded.
    wall_s: f64,
    failures: Vec<String>,
}

fn run_pass(inputs: &Inputs, txns: u64, restore: RestoreCheck, spans: &mut Spans) -> Pass {
    let mut s = inputs.build();
    let mut failures = Vec::new();
    let mut wall_s = 0.0;
    // Blocks of steps run under the clock; between blocks it is stopped.
    let checked: Vec<u64> = match (inputs.workload, restore) {
        (Workload::BigDoc, RestoreCheck::EveryAbort) => (0..txns).filter(|k| !inputs.commits(*k)).collect(),
        (Workload::BigDoc, RestoreCheck::LastAbort) => {
            (0..txns).rev().find(|k| !inputs.commits(*k)).into_iter().collect()
        }
        _ => Vec::new(),
    };
    let mut next = 0;
    spans.enter("pass", 0);
    for k in checked {
        let t = Instant::now();
        run_steps(inputs, &mut s, next..k, spans);
        wall_s += t.elapsed().as_secs_f64();
        let before = snapshot_docs(&s);
        let t = Instant::now();
        run_steps(inputs, &mut s, k..k + 1, spans);
        wall_s += t.elapsed().as_secs_f64();
        for (peer, (was, is)) in FIG1_PEERS.iter().zip(before.iter().zip(snapshot_docs(&s))) {
            if *was != is {
                failures.push(format!("step {k}: d{peer} not restored after the abort"));
            }
        }
        next = k + 1;
    }
    let t = Instant::now();
    run_steps(inputs, &mut s, next..txns, spans);
    wall_s += t.elapsed().as_secs_f64();
    spans.exit();

    let outcomes = &s.sim.actor(s.origin).outcomes;
    if outcomes.len() as u64 != txns {
        failures.push(format!("{} of {txns} transactions unresolved", txns - (outcomes.len() as u64).min(txns)));
    }
    for (k, o) in outcomes.iter().enumerate() {
        if o.committed != inputs.commits(k as u64) {
            let (got, want) = if o.committed { ("committed", "abort") } else { ("aborted", "commit") };
            failures.push(format!("step {k}: {got}, expected {want}"));
        }
    }
    for &p in &s.participants {
        let actor = s.sim.actor(p);
        if !actor.is_quiescent() {
            failures.push(format!("AP{} not quiescent at pass end", p.0));
        }
        if !actor.watched_peers().is_empty() {
            failures.push(format!("AP{} leaked watches on {:?}", p.0, actor.watched_peers()));
        }
    }
    Pass { scenario: s, wall_s, failures }
}

/// What a pass must reproduce bit for bit: the simulator is seeded.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    commit_ticks: Vec<u64>,
    aborts: u64,
    sent: u64,
    by_kind: BTreeMap<&'static str, u64>,
    delivered: u64,
    timers_fired: u64,
    finished_at: u64,
    failures: Vec<String>,
}

fn facts_of(pass: &Pass) -> Facts {
    let s = &pass.scenario;
    let outcomes = &s.sim.actor(s.origin).outcomes;
    let m = s.sim.metrics();
    Facts {
        commit_ticks: outcomes.iter().filter(|o| o.committed).map(|o| o.resolved_at - o.started_at).collect(),
        aborts: outcomes.iter().filter(|o| !o.committed).count() as u64,
        sent: m.sent,
        by_kind: m.by_kind.clone(),
        delivered: m.delivered,
        timers_fired: m.timers_fired,
        finished_at: s.sim.now(),
        failures: pass.failures.clone(),
    }
}

/// One set-up round: generate the inputs, build, run and check the
/// warm-up slice. Returns the inputs and the slice's labelled failures.
fn setup_round(workload: Workload, seed: u64) -> (Inputs, Vec<String>) {
    let inputs = Inputs::generate(workload, seed);
    let warm =
        run_pass(&inputs, inputs.txns_per_pass() / WARM_UP_SHARE, RestoreCheck::EveryAbort, &mut Spans::disabled());
    (inputs, warm.failures)
}

fn tick_metrics(facts: &Facts, out: &mut Metrics) {
    if let Some(p50) = stats::percentile(&facts.commit_ticks, 50) {
        out.set("commit_ticks_p50", p50 as f64);
    }
    if let Some(p99) = stats::percentile(&facts.commit_ticks, 99) {
        out.set("commit_ticks_p99", p99 as f64);
    }
}

fn outcome_note(facts: &Facts, txns: u64) -> String {
    let commits = facts.commit_ticks.len() as u64;
    format!("txns={txns} committed={commits} aborted={} unresolved={}", facts.aborts, txns - commits - facts.aborts)
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (rounds, (inputs, warm_failures)) = crate::setup_rounds(|| setup_round(workload, seed));
    let txns = inputs.txns_per_pass();

    let (walls, facts) = crate::timed_passes(seconds, RUN_PASSES_MIN, || {
        let pass = run_pass(&inputs, txns, RestoreCheck::LastAbort, &mut Spans::disabled());
        Ok((pass.wall_s, facts_of(&pass)))
    })?;

    let mut metrics = Metrics::default();
    metrics.set_median("setup_s", &rounds);
    let rates: Vec<f64> = walls.iter().map(|w| txns as f64 / w).collect();
    metrics.set_median("txn_per_s", &rates);
    tick_metrics(&facts, &mut metrics);
    metrics.set("msgs_per_txn", facts.sent as f64 / txns as f64);
    let notes = vec![outcome_note(&facts, txns), crate::rates_note(&rates)];
    let mut failures: Vec<String> = warm_failures.into_iter().map(|f| format!("warm-up {f}")).collect();
    failures.extend(facts.failures.iter().cloned());
    Ok(Outcome { metrics, attempted: txns, failures, violations: Vec::new(), passes: walls.len() as u64, notes })
}

/// The traced run: per-layer metrics from spans, counts and kernels.
pub fn trace(workload: Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Result<Outcome, String> {
    let (inputs, _) = setup_round(workload, seed);
    let txns = inputs.txns_per_pass();

    // Untraced and traced passes alternate, so drift hits both alike.
    let mut plain_walls = Vec::new();
    let mut overheads = Vec::new();
    let mut run_us = Vec::new();
    let mut last = None;
    let (traced_walls, facts) = crate::timed_passes(seconds / 2.0, TRACED_PAIRS_MIN, || {
        last = None; // one finished simulator alive at a time
        let plain_wall = run_pass(&inputs, txns, RestoreCheck::LastAbort, &mut Spans::disabled()).wall_s;
        plain_walls.push(plain_wall);
        spans.clear();
        let misses_before = axml_xml::intern_stats().1;
        let traced = run_pass(&inputs, txns, RestoreCheck::LastAbort, spans);
        let misses = axml_xml::intern_stats().1 - misses_before;
        run_us.push(spans.self_ns_by_name()["sim.run_until"].1 as f64 / 1e3 / txns as f64);
        let (wall, facts) = (traced.wall_s, facts_of(&traced));
        overheads.push((wall - plain_wall) / plain_wall * 100.0);
        last = Some((traced, misses));
        Ok((wall, facts))
    })?;
    let (pass, intern_misses) = last.expect("at least one traced pass");
    let s = &pass.scenario;

    let mut m = Metrics::default();
    tick_metrics(&facts, &mut m);
    m.set("xml.intern_misses_per_pass", intern_misses as f64);
    m.set_median("core.run_us_per_txn", &run_us);
    let mut counts = LayerCounts::default();
    counts.absorb(s, txns, true);
    counts.report(facts.aborts, &mut m);

    let txn_ns: Vec<u64> = spans.all().iter().filter(|x| x.name == "txn").map(|x| x.duration_ns()).collect();
    m.set("bench.txn_wall_us_p50", stats::percentile(&txn_ns, 50).unwrap_or(0) as f64 / 1e3);
    m.set("bench.txn_wall_us_p99", stats::percentile(&txn_ns, 99).unwrap_or(0) as f64 / 1e3);
    let rates: Vec<f64> = plain_walls.iter().map(|w| txns as f64 / w).collect();
    m.set("bench.pass_rate_iqr_pct", stats::iqr_pct(&rates));
    m.set_median("bench.span_overhead_pct", &overheads);

    // Kernels run on what the pass left behind: its documents, an
    // interior peer's journal and last context, its queue load.
    let interior = s.sim.actor(PeerId(3));
    let harvest = Harvest {
        docs: snapshot_docs(s),
        journal: interior.journal().iter().take(kernels::MAX_JOURNAL_ENTRIES).cloned().collect(),
        context: interior
            .known_txns()
            .iter()
            .rev()
            .filter_map(|t| interior.context(*t))
            .find(|c| c.state == TxnState::Committed)
            .cloned(),
        peers: s.sim.len(),
        sends: facts.sent,
        timers: facts.timers_fired,
    };
    let build_us = {
        let t = Instant::now();
        drop(inputs.build());
        t.elapsed().as_secs_f64() * 1e6
    };
    m.set("core.build_us_per_case", build_us);
    let mut notes = vec![outcome_note(&facts, txns)];
    let mut failures = facts.failures.clone();
    failures.extend(kernels::run(&harvest, seed, &mut m, &mut notes));

    Ok(Outcome {
        metrics: m,
        attempted: txns,
        failures,
        violations: Vec::new(),
        passes: traced_walls.len() as u64,
        notes,
    })
}
