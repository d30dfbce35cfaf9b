//! The two matrix workloads: every chaos scenario under every fault
//! profile over the seed's block of case seeds — 2,400 independent
//! single-transaction runs per pass.
//!
//! `fault-matrix` is the shipping chaos path (`run_case`: monitor and
//! flight recorder ride, oracle and digest after): protocol recovery
//! code, WAL appends and recovery, per-event emission into observers.
//! `traced-matrix` sends the same cells through `run_with_plane_traced`,
//! where journal serialisation, tree rendering, analytics and the
//! conformance check outweigh the simulation itself.

use crate::counts::{ratio, LayerCounts};
use crate::inputs::{self, Workload, SEEDS_PER_CELL};
use crate::kernels::{self, Harvest};
use crate::metrics::Metrics;
use crate::span::Spans;
use crate::{stats, Outcome, RUN_PASSES_MIN, TRACED_PAIRS_MIN};
use axml_chaos::{
    builder_for, check_atomicity, doc_state_digest, plane_for, run_case, run_digest, run_with_plane_traced, CaseConfig,
    CaseResult, SAMPLE_INTERVAL,
};
use axml_core::scenarios::Scenario;
use axml_obs::{
    derive_histograms, FlightRecorder, Histogram, Monitor, ProfileReport, SeriesRegistry, DEFAULT_FLIGHT_CAPACITY,
};
use axml_p2p::{PeerId, StorageFaultPlane};
use axml_spec::{check_journal, Conformance};
use axml_store::{recover_dir, WalConfig, WalSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Case seeds per cell in a set-up round's warm-up slice (400 cases:
/// every scenario × profile cell is touched sixteen times).
const WARM_UP_SEEDS: u64 = 16;
/// Case seeds per cell in the observer-overhead passes (800 cases).
const RATIO_SEEDS: u64 = 32;

/// What one case contributes to a pass — everything seeded, so every
/// pass must reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct CaseFacts {
    committed: Option<bool>,
    digest: u64,
    sent: u64,
    /// `label: reason` when the oracle, the monitor or the conformance
    /// check rejected the run.
    violation: Option<String>,
    commit_ticks: Option<u64>,
    abort_drain: Option<u64>,
}

fn case_facts(case: &CaseConfig, r: &CaseResult, hist: Option<&BTreeMap<String, Histogram>>) -> CaseFacts {
    // A case runs one transaction, so each per-case histogram holds at
    // most one sample and `max()` is that sample, exactly — never the
    // power-of-two bucket bound a merged histogram's percentile returns.
    let sample = |name: &str| hist.and_then(|h| h.get(name)).and_then(Histogram::max);
    CaseFacts {
        committed: r.committed,
        digest: r.digest,
        sent: r.metrics.sent,
        violation: (!r.verdict.ok).then(|| format!("{}: {}", case.label(), r.verdict.reason)),
        commit_ticks: sample("commit_latency"),
        abort_drain: sample("abort_drain"),
    }
}

/// The workload's own path through one case, exactly as shipped.
fn plain_case(workload: Workload, case: &CaseConfig) -> CaseFacts {
    match workload {
        Workload::TracedMatrix => {
            let b = builder_for(&case.scenario).expect("known scenario");
            let plane = plane_for(case.profile, case.seed, &b.peers());
            let (result, dump) = run_with_plane_traced(case, plane);
            case_facts(case, &result, Some(&dump.histograms))
        }
        _ => case_facts(case, &run_case(case), None),
    }
}

fn plain_pass(workload: Workload, cases: &[CaseConfig]) -> (f64, Vec<CaseFacts>) {
    let t = Instant::now();
    let facts: Vec<CaseFacts> = cases.iter().map(|c| plain_case(workload, c)).collect();
    (t.elapsed().as_secs_f64(), facts)
}

/// Which pieces of the chaos harness a recomposed case includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parts {
    /// Collect the lifecycle journal and sample gauges.
    pub journal: bool,
    /// Attach the online protocol monitor.
    pub monitor: bool,
    /// Attach the flight recorder.
    pub flight: bool,
    /// Everything after `Scenario::run`: oracle, digests, snapshot and —
    /// with a journal — serialisation, analytics and conformance.
    pub post: bool,
}

impl Parts {
    /// Build, attach the WAL where the case needs one, run. Nothing else.
    pub const BARE: Parts = Parts { journal: false, monitor: false, flight: false, post: false };
    /// What `run_case` does.
    pub const FAULT_MATRIX: Parts = Parts { journal: false, monitor: true, flight: true, post: true };
    /// What `run_with_plane_traced` does.
    pub const TRACED_MATRIX: Parts = Parts { journal: true, monitor: true, flight: true, post: true };

    fn of(workload: Workload) -> Parts {
        match workload {
            Workload::TracedMatrix => Parts::TRACED_MATRIX,
            _ => Parts::FAULT_MATRIX,
        }
    }
}

/// Runs chaos cases recomposed from the public pieces `run_case` is made
/// of, with a span round each piece. A recomposed case must land on the
/// digest the shipped path lands on, or the decomposition measures some
/// other program.
pub struct Recomposer<'a> {
    spans: &'a mut Spans,
    scratch: PathBuf,
    next_dir: u64,
    pub tally: Tally,
}

/// What a recomposed pass adds up besides its spans.
#[derive(Default)]
pub struct Tally {
    pub counts: LayerCounts,
    /// Per-case histograms merged over the pass.
    pub merged: BTreeMap<String, Histogram>,
    pub events: u64,
    pub journal_bytes: u64,
    /// Per case, in case order: whether it ran disk-backed WALs.
    pub disk_backed: Vec<bool>,
    /// Labelled durability-check failures.
    pub failures: Vec<String>,
}

impl<'a> Recomposer<'a> {
    pub fn new(spans: &'a mut Spans) -> Recomposer<'a> {
        Recomposer {
            spans,
            scratch: std::env::temp_dir().join(format!("axml-benchmark-wal-{}", std::process::id())),
            next_dir: 0,
            tally: Tally::default(),
        }
    }

    /// One directory per peer, fault draws seeded from `(seed, peer)`
    /// only — the same sinks `run_case` attaches.
    fn attach_wal(&mut self, s: &mut Scenario, storage: &StorageFaultPlane, seed: u64) -> PathBuf {
        let base = self.scratch.join(self.next_dir.to_string());
        self.next_dir += 1;
        for &p in &s.participants {
            let config = WalConfig::new(base.join(format!("peer-{}", p.0)));
            let peer_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(u64::from(p.0));
            let sink =
                WalSink::with_faults(config, storage.clone(), peer_seed).expect("scratch WAL directory is writable");
            s.sim.actor_mut(p).set_durability_sink(Box::new(sink));
        }
        base
    }

    /// Runs one case; `finish` receives the finished scenario inside the
    /// clean-up span (a pass drops it there, as `run_case` does).
    fn case(&mut self, case: &CaseConfig, id: u64, parts: Parts, finish: impl FnOnce(Scenario)) -> CaseFacts {
        self.spans.enter("case", id);
        self.spans.enter("chaos.plan", id);
        let mut b = builder_for(&case.scenario).expect("known scenario");
        let plane = plane_for(case.profile, case.seed, &b.peers());
        let mut cfg = b.config.clone();
        cfg.dedup = case.dedup;
        let mut effective = plane.clone();
        effective.crashes.extend(b.fault.crashes.iter().copied());
        effective.partitions.extend(b.fault.partitions.iter().cloned());
        effective.script.extend(b.fault.script.iter().cloned());
        let disk_backed = !effective.storage.is_inert() || !b.fault.crashes.is_empty();
        b.seed = 1000 + case.seed;
        b.batch_links = case.batch_links;
        if parts.journal {
            b = b.traced().sampled(SAMPLE_INTERVAL);
        }
        self.spans.exit();
        let storage = effective.storage.clone();
        let mut s = self.spans.scope("core.build", id, || b.config(cfg).fault_plane(effective).build());
        self.spans.enter("store.attach", id);
        let wal_dir = disk_backed.then(|| self.attach_wal(&mut s, &storage, case.seed));
        self.spans.exit();
        let monitor = parts.monitor.then(|| Rc::new(RefCell::new(Monitor::new())));
        if let Some(m) = &monitor {
            s.sim.attach_observer(m.clone());
        }
        let recorder = parts.flight.then(|| Rc::new(RefCell::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))));
        if let Some(r) = &recorder {
            s.sim.attach_observer(r.clone());
        }
        let report = self.spans.scope("sim.run", id, || s.run());

        let mut facts = CaseFacts {
            committed: report.outcome.as_ref().map(|o| o.committed),
            digest: 0,
            sent: report.metrics.sent,
            violation: None,
            commit_ticks: report.outcome.as_ref().filter(|o| o.committed).map(|o| o.resolved_at - o.started_at),
            abort_drain: None,
        };
        if parts.post {
            let findings = self.spans.scope("obs.monitor_finish", id, || {
                monitor.map(|m| m.borrow_mut().finish().to_vec()).unwrap_or_default()
            });
            let conformance = self.spans.scope("spec.conform", id, || s.trace().map(check_journal));
            let mut verdict = self.spans.scope("chaos.oracle", id, || check_atomicity(&s, &report));
            if verdict.ok {
                if let Some(f) = findings.first() {
                    (verdict.ok, verdict.reason) = (false, format!("online monitor: {f}"));
                }
            }
            if verdict.ok {
                if let Some(d) = conformance.as_ref().and_then(Conformance::first) {
                    (verdict.ok, verdict.reason) = (false, format!("spec conformance: {d}"));
                }
            }
            facts.digest = self.spans.scope("chaos.digest", id, || run_digest(&s, &report));
            let snapshot = self.spans.scope("trace.snapshot", id, || s.snapshot());
            if let Some(j) = s.trace() {
                let lines = self.spans.scope("trace.serialize", id, || j.to_json_lines());
                self.spans.scope("trace.render_tree", id, || drop(j.render_tree()));
                self.spans.scope("trace.snapshot_render", id, || drop(snapshot.render()));
                let hist = self.spans.scope("obs.derive", id, || derive_histograms(j));
                self.spans.scope("obs.series", id, || drop(SeriesRegistry::from_journal(j)));
                self.spans.scope("obs.profile", id, || drop(ProfileReport::from_journal(j).phase_histograms()));
                // Not part of the shipped path: the monitor already rode
                // the run online. Timed here as a kernel on this journal.
                self.spans.scope("bench.monitor_replay", id, || drop(Monitor::replay(j)));
                facts.commit_ticks = hist.get("commit_latency").and_then(Histogram::max);
                facts.abort_drain = hist.get("abort_drain").and_then(Histogram::max);
                self.tally.events += j.len() as u64;
                self.tally.journal_bytes += lines.len() as u64;
                for (name, h) in &hist {
                    self.tally.merged.entry(name.clone()).or_default().merge(h);
                }
            }
            if !verdict.ok {
                self.spans.scope("obs.flight_dump", id, || drop(recorder.map(|r| r.borrow().dump())));
                facts.violation = Some(format!("{}: {}", case.label(), verdict.reason));
            }
            self.spans.scope("chaos.result", id, || {
                drop((doc_state_digest(&s), s.sim.fault_trace().to_vec(), plane, report.metrics.clone()));
            });
            // Harness bookkeeping, kept out of every layer's account.
            self.spans.enter("bench.harvest", id);
            self.tally.counts.absorb(&s, 1, disk_backed);
            self.tally.disk_backed.push(disk_backed);
            if let Some(dir) = wal_dir.as_ref().filter(|_| storage.is_inert()) {
                self.check_durability(case, &s, dir);
            }
            self.spans.exit();
        }
        self.spans.enter("store.cleanup", id);
        finish(s);
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.spans.exit();
        self.spans.exit();
        facts
    }

    /// A peer behind a fault-free WAL must find on disk exactly the
    /// entries its journal mirror holds.
    fn check_durability(&mut self, case: &CaseConfig, s: &Scenario, dir: &Path) {
        for &p in &s.participants {
            let on_disk = recover_dir(&dir.join(format!("peer-{}", p.0)));
            if !on_disk.is_ok_and(|r| r.entries == s.sim.actor(p).journal()) {
                self.tally.failures.push(format!(
                    "{}: AP{} journal differs from its fault-free WAL",
                    case.label(),
                    p.0
                ));
            }
        }
    }

    /// Runs every case; returns the loop's wall time and the facts.
    fn pass(&mut self, cases: &[CaseConfig], parts: Parts) -> (f64, Vec<CaseFacts>) {
        let t = Instant::now();
        let facts = cases.iter().enumerate().map(|(i, c)| self.case(c, i as u64, parts, drop)).collect();
        (t.elapsed().as_secs_f64(), facts)
    }
}

impl Drop for Recomposer<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The first `seeds` case seeds of every cell.
fn slice(cases: &[CaseConfig], seed: u64, seeds: u64) -> Vec<CaseConfig> {
    let first = seed * SEEDS_PER_CELL;
    cases.iter().filter(|c| c.seed < first + seeds).cloned().collect()
}

/// One set-up round: list the cases and run the warm-up slice.
fn setup_round(workload: Workload, seed: u64) -> Vec<CaseConfig> {
    let cases = inputs::matrix_cases(seed);
    plain_pass(workload, &slice(&cases, seed, WARM_UP_SEEDS));
    cases
}

fn ticks(facts: &[CaseFacts], pick: impl Fn(&CaseFacts) -> Option<u64>) -> Vec<u64> {
    facts.iter().filter_map(pick).collect()
}

fn tick_metrics(facts: &[CaseFacts], out: &mut Metrics) {
    for (name, samples) in
        [("commit_ticks", ticks(facts, |f| f.commit_ticks)), ("abort_drain_ticks", ticks(facts, |f| f.abort_drain))]
    {
        for p in [50, 99] {
            if let Some(v) = stats::percentile(&samples, p) {
                out.set(&format!("{name}_p{p}"), v as f64);
            }
        }
    }
}

/// The sweep digest of the canonical 16-seed sub-matrix, folded exactly
/// as `axml-chaos sweep` folds it. Only the seed-0 block contains it.
fn canonical_digest(cases: &[CaseConfig], facts: &[CaseFacts]) -> u64 {
    let text: String = cases
        .iter()
        .zip(facts)
        .filter(|(c, _)| c.seed < 16)
        .map(|(c, f)| format!("{} {:016x} ok={}\n", c.label(), f.digest, f.violation.is_none()))
        .collect();
    axml_trace::fnv64(text.as_bytes())
}

fn outcome(cases: &[CaseConfig], facts: &[CaseFacts], failures: Vec<String>, metrics: Metrics, passes: u64) -> Outcome {
    let committed = facts.iter().filter(|f| f.committed == Some(true)).count();
    let aborted = facts.iter().filter(|f| f.committed == Some(false)).count();
    let mut notes = vec![format!(
        "cases={} committed={committed} aborted={aborted} unresolved={}",
        cases.len(),
        cases.len() - committed - aborted
    )];
    if cases.first().is_some_and(|c| c.seed == 0) {
        notes.push(format!("canonical-submatrix seeds=0..16 digest={:016x}", canonical_digest(cases, facts)));
    }
    let violations = facts.iter().filter_map(|f| f.violation.clone()).collect();
    Outcome { metrics, attempted: cases.len() as u64, failures, violations, passes, notes }
}

/// Requires the recomposed pass to reproduce the shipped path case by case.
fn same_program(cases: &[CaseConfig], shipped: &[CaseFacts], recomposed: &[CaseFacts]) -> Result<(), String> {
    for ((c, a), b) in cases.iter().zip(shipped).zip(recomposed) {
        if (a.digest, a.committed, a.sent, &a.violation) != (b.digest, b.committed, b.sent, &b.violation) {
            return Err(format!("{}: recomposed case diverges from the shipped path:\n{a:?}\nvs\n{b:?}", c.label()));
        }
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (rounds, cases) = crate::setup_rounds(|| setup_round(workload, seed));

    let (walls, facts) = crate::timed_passes(seconds, RUN_PASSES_MIN, || Ok(plain_pass(workload, &cases)))?;

    let mut metrics = Metrics::default();
    let mut failures = Vec::new();
    if workload == Workload::FaultMatrix {
        // `run_case` does not return the commit latency. One untimed
        // pass recomposed from public pieces reads it off the origin's
        // outcome; it must land on the same digests and verdicts, and it
        // checks every fault-free WAL against its peer's journal.
        let mut spans = Spans::disabled();
        let mut recomposer = Recomposer::new(&mut spans);
        let (_, reference) = recomposer.pass(&cases, Parts::FAULT_MATRIX);
        same_program(&cases, &facts, &reference)?;
        failures = std::mem::take(&mut recomposer.tally.failures);
        tick_metrics(&reference, &mut metrics);
    } else {
        tick_metrics(&facts, &mut metrics);
    }
    metrics.set_median("setup_s", &rounds);
    let rates: Vec<f64> = walls.iter().map(|w| cases.len() as f64 / w).collect();
    metrics.set_median("txn_per_s", &rates);
    let sent: u64 = facts.iter().map(|f| f.sent).sum();
    metrics.set("msgs_per_txn", ratio(sent, cases.len() as u64));
    let mut out = outcome(&cases, &facts, failures, metrics, walls.len() as u64);
    out.notes.push(crate::rates_note(&rates));
    Ok(out)
}

/// Seconds under `case` spans and under `bench.*` spans — the harness's
/// own bookkeeping, kept out of every layer's account.
fn span_seconds(spans: &Spans) -> (f64, f64) {
    let total = |pick: fn(&str) -> bool| {
        spans.all().iter().filter(|x| pick(x.name)).map(|x| x.duration_ns()).sum::<u64>() as f64 / 1e9
    };
    (total(|n| n == "case"), total(|n| n.starts_with("bench.")))
}

/// The traced run: per-layer metrics from spans, counts and kernels.
pub fn trace(workload: Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Result<Outcome, String> {
    let cases = setup_round(workload, seed);
    let n = cases.len() as f64;
    let parts = Parts::of(workload);

    // The shipped path and its recomposition alternate, so drift hits
    // both alike; the last recomposed pass's spans are the ones kept.
    let mut plain_walls = Vec::new();
    let mut overheads = Vec::new();
    let mut residuals = Vec::new();
    let mut last = None;
    let (traced_walls, facts) = crate::timed_passes(seconds / 2.0, TRACED_PAIRS_MIN, || {
        let (plain_wall, shipped) = plain_pass(workload, &cases);
        plain_walls.push(plain_wall);
        spans.clear();
        let misses_before = axml_xml::intern_stats().1;
        let mut recomposer = Recomposer::new(spans);
        let (wall, facts) = recomposer.pass(&cases, parts);
        let misses = axml_xml::intern_stats().1 - misses_before;
        same_program(&cases, &shipped, &facts)?;
        last = Some((misses, std::mem::take(&mut recomposer.tally)));
        drop(recomposer);
        // Each recomposed pass is judged against the shipped pass right
        // before it: the pair shares whatever the host was doing.
        let (case_s, bench_s) = span_seconds(spans);
        overheads.push((wall - bench_s - plain_wall) / plain_wall * 100.0);
        residuals.push((case_s - bench_s - plain_wall) / plain_wall * 100.0);
        Ok((wall, facts))
    })?;
    let (intern_misses, Tally { counts, merged, events, journal_bytes, disk_backed, mut failures }) =
        last.expect("at least one traced pass");

    let mut m = Metrics::default();
    tick_metrics(&facts, &mut m);
    m.set("xml.intern_misses_per_pass", intern_misses as f64);
    let aborts = facts.iter().filter(|f| f.committed == Some(false)).count() as u64;
    counts.report(aborts, &mut m);

    // Span accounts. `bench.*` spans are the harness's own bookkeeping.
    let own = spans.self_ns_by_name();
    let us_per_case = |name: &str| own.get(name).map_or(0.0, |x| x.1 as f64 / 1e3 / n);
    let us_per_event =
        |name: &str| if events == 0 { 0.0 } else { own.get(name).map_or(0.0, |x| x.1 as f64 / 1e3 / events as f64) };
    m.set("core.run_us_per_txn", us_per_case("sim.run"));
    m.set("core.build_us_per_case", us_per_case("core.build"));
    m.set("chaos.oracle_us_per_case", us_per_case("chaos.oracle"));
    m.set("chaos.digest_us_per_case", us_per_case("chaos.digest") + us_per_case("chaos.result"));
    m.set("trace.snapshot_us_per_case", us_per_case("trace.snapshot") + us_per_case("trace.snapshot_render"));
    m.set("trace.events_per_txn", events as f64 / n);
    m.set("trace.journal_bytes_per_txn", journal_bytes as f64 / n);
    m.set("trace.serialize_us_per_event", us_per_event("trace.serialize"));
    m.set("trace.render_tree_us_per_event", us_per_event("trace.render_tree"));
    m.set("obs.monitor_us_per_event", us_per_event("bench.monitor_replay"));
    m.set("obs.derive_us_per_event", us_per_event("obs.derive"));
    m.set("obs.series_us_per_event", us_per_event("obs.series"));
    m.set("obs.profile_us_per_event", us_per_event("obs.profile"));
    m.set("spec.conform_us_per_event", us_per_event("spec.conform"));
    for (metric, hist) in [
        ("obs.compensation_lag_ticks_mean", "compensation_lag"),
        ("obs.detect_latency_ticks_mean", "detect_latency"),
        ("obs.retransmits_per_delivery_mean", "retransmits_per_delivery"),
    ] {
        m.set(metric, merged.get(hist).map_or(0.0, |h| ratio(h.sum(), h.count())));
    }

    let case_ns: Vec<u64> = spans.all().iter().filter(|x| x.name == "case").map(|x| x.duration_ns()).collect();
    let mean_us = |on_disk: bool| {
        let picked: Vec<u64> =
            case_ns.iter().zip(&disk_backed).filter(|(_, d)| **d == on_disk).map(|(ns, _)| *ns).collect();
        ratio(picked.iter().sum(), picked.len() as u64) / 1e3
    };
    m.set("store.disk_case_us", mean_us(true));
    m.set("store.mem_case_us", mean_us(false));
    m.set("bench.txn_wall_us_p50", stats::percentile(&case_ns, 50).unwrap_or(0) as f64 / 1e3);
    m.set("bench.txn_wall_us_p99", stats::percentile(&case_ns, 99).unwrap_or(0) as f64 / 1e3);

    let (case_s, bench_s) = span_seconds(spans);
    let spans_s = case_s - bench_s;
    let sim_s = own.get("sim.run").map_or(0.0, |x| x.1 as f64 / 1e9);
    let before_run = ["case", "chaos.plan", "core.build", "store.attach", "sim.run", "store.cleanup"];
    let post_s: f64 = own
        .iter()
        .filter(|(k, _)| !k.starts_with("bench.") && !before_run.contains(k))
        .map(|(_, v)| v.1 as f64 / 1e9)
        .sum();
    m.set("bench.sim_run_share_pct", sim_s / spans_s * 100.0);
    m.set("bench.post_run_share_pct", post_s / spans_s * 100.0);
    m.set_median("bench.span_overhead_pct", &overheads);
    m.set_median("bench.recompose_residual_pct", &residuals);
    let rates: Vec<f64> = plain_walls.iter().map(|w| n / w).collect();
    m.set("bench.pass_rate_iqr_pct", stats::iqr_pct(&rates));

    // What each observer costs on top of the bare simulation, on a third
    // of the matrix, three alternating repetitions each.
    let sub = slice(&cases, seed, RATIO_SEEDS);
    let flight = Parts { flight: true, ..Parts::BARE };
    let monitor = Parts { monitor: true, ..Parts::BARE };
    let journal = Parts { journal: true, ..Parts::BARE };
    let mut walls = vec![Vec::new(); 5];
    {
        let mut off = Spans::disabled();
        let mut recomposer = Recomposer::new(&mut off);
        for _ in 0..3 {
            for (v, parts) in [Parts::BARE, flight, monitor, journal].into_iter().enumerate() {
                walls[v].push(recomposer.pass(&sub, parts).0);
            }
            walls[4].push(plain_pass(Workload::FaultMatrix, &sub).0);
        }
    }
    let walls: Vec<f64> = walls.iter().map(|w| stats::median(w)).collect();
    m.set("obs.flight_overhead_ratio", walls[1] / walls[0]);
    m.set("obs.monitor_overhead_ratio", walls[2] / walls[0]);
    m.set("trace.journal_overhead_ratio", walls[3] / walls[0]);
    m.set("chaos.harness_overhead_ratio", walls[4] / walls[0]);

    // Kernels run on what a disk-backed crash case left behind.
    let crash_case = cases.iter().find(|c| c.scenario == "fig1-crash").expect("the matrix has fig1-crash cells");
    let mut kept = None;
    Recomposer::new(&mut Spans::disabled()).case(crash_case, 0, Parts::FAULT_MATRIX, |s| kept = Some(s));
    let s = kept.expect("the case finished");
    let interior = s.sim.actor(PeerId(3));
    let harvest = Harvest {
        docs: s
            .participants
            .iter()
            .flat_map(|&p| {
                let repo = &s.sim.actor(p).repo;
                repo.names().into_iter().map(|name| repo.get(name).expect("listed").to_xml()).collect::<Vec<_>>()
            })
            .collect(),
        journal: interior.journal().to_vec(),
        context: interior.known_txns().first().and_then(|t| interior.context(*t)).cloned(),
        peers: s.sim.len(),
        sends: counts.sent,
        timers: counts.timers_fired,
    };
    let mut notes = Vec::new();
    failures.extend(kernels::run(&harvest, seed, &mut m, &mut notes));

    let mut out = outcome(&cases, &facts, failures, m, traced_walls.len() as u64);
    out.notes.extend(notes);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both recompositions land on the digests, verdicts and message
    /// counts of the shipped paths, on one case seed of every cell.
    #[test]
    fn recomposed_cases_reproduce_the_shipped_digests() {
        let cases: Vec<CaseConfig> = inputs::cases_for(7..8);
        assert_eq!(cases.len(), 25);
        for workload in [Workload::FaultMatrix, Workload::TracedMatrix] {
            let (_, shipped) = plain_pass(workload, &cases);
            let mut spans = Spans::enabled();
            let mut recomposer = Recomposer::new(&mut spans);
            let (_, recomposed) = recomposer.pass(&cases, Parts::of(workload));
            assert!(recomposer.tally.failures.is_empty(), "{:?}", recomposer.tally.failures);
            let on_disk = recomposer.tally.disk_backed.iter().filter(|d| **d).count();
            assert_eq!(on_disk, 9, "storage profile (5) + fig1-crash (5), one shared");
            drop(recomposer);
            same_program(&cases, &shipped, &recomposed).unwrap();
            if workload == Workload::TracedMatrix {
                for (a, b) in shipped.iter().zip(&recomposed) {
                    assert_eq!((a.commit_ticks, a.abort_drain), (b.commit_ticks, b.abort_drain));
                }
            }
            let cases_spanned = spans.all().iter().filter(|s| s.name == "case").count();
            assert_eq!(cases_spanned, 25);
        }
    }

    /// The origin's own outcome and the journal-derived commit latency
    /// are the same number, so the untraced matrix may report the former.
    #[test]
    fn outcome_latency_equals_the_journal_derived_one() {
        let cases: Vec<CaseConfig> = inputs::cases_for(3..4);
        let mut spans = Spans::disabled();
        let mut recomposer = Recomposer::new(&mut spans);
        let (_, untraced) = recomposer.pass(&cases, Parts::FAULT_MATRIX);
        let (_, traced) = recomposer.pass(&cases, Parts::TRACED_MATRIX);
        let pick = |f: &[CaseFacts]| f.iter().map(|x| x.commit_ticks).collect::<Vec<_>>();
        assert_eq!(pick(&untraced), pick(&traced));
        assert!(pick(&traced).iter().any(Option::is_some));
    }
}
