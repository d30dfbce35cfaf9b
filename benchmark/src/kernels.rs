//! Layer kernels: one public entry point of one layer, timed alone on
//! inputs harvested from the workload's own pass. They bound what a
//! change to that layer can give the workload — a layer is worth
//! optimising only when its kernel time is a real share of the pass.

use crate::inputs;
use crate::metrics::Metrics;
use crate::stats;
use axml_chaos::{sweep_jobs, Profile, SCENARIOS};
use axml_core::compensate::CompensatingService;
use axml_core::context::TransactionContext;
use axml_core::durability::{self, DurabilitySink, JournalEntry};
use axml_core::scenarios::ScenarioBuilder;
use axml_doc::{EvalMode, Fault, MaterializationEngine, ResolvedCall, ServiceInvoker, ServiceResponse};
use axml_p2p::{Actor, Ctx, Message, PeerId, Sim, SimConfig};
use axml_query::{Locator, SelectQuery, UpdateAction};
use axml_store::{recover_dir, WalConfig, WalSink};
use axml_workload::{random_plain_doc, tree_edges, DocParams, TreeShape};
use axml_xml::{Document, Fragment};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Journal entries a harvest keeps (a 4,000-transaction stream leaves
/// far more than the WAL kernels need).
pub const MAX_JOURNAL_ENTRIES: usize = 2000;

/// What a finished pass hands the kernels.
pub struct Harvest {
    /// The workload's documents as XML, origin first.
    pub docs: Vec<String>,
    /// One peer's durability journal.
    pub journal: Vec<JournalEntry>,
    /// One peer's transaction context, log included.
    pub context: Option<TransactionContext>,
    /// Queue load of the pass: peers, messages sent, timers fired.
    pub peers: usize,
    pub sends: u64,
    pub timers: u64,
}

/// Median nanoseconds per call of `f` over five batches of `calls`.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let calls = calls.max(1);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&batches)
}

/// Calls per batch so that one batch handles about `target` units of
/// work when one call handles `per_call`.
fn calls_for(target: usize, per_call: usize) -> usize {
    (target / per_call.max(1)).clamp(1, 20_000)
}

/// Runs every kernel and writes its metric. Returns labelled failures
/// of the WAL round trip; `notes` receives lines worth printing.
pub fn run(h: &Harvest, seed: u64, out: &mut Metrics, notes: &mut Vec<String>) -> Vec<String> {
    xml(h, out);
    query_and_doc(h, out);
    if let Some(tc) = &h.context {
        out.set("core.compensation_derive_us", ns_per_call(200, || drop(black_box(tc.own_compensation()))) / 1e3);
    }
    let failures = journal_and_wal(h, out);
    queue(h, seed, out);
    out.set("core.wide15_us_per_msg", wide_tree(3, seed));
    out.set("core.wide63_us_per_msg", wide_tree(5, seed));
    let params = DocParams { nodes: inputs::PAYLOAD_NODES, ..Default::default() };
    let gen_ns = ns_per_call(4, || drop(black_box(random_plain_doc(seed, &params))));
    out.set("workload.gen_doc_us_per_node", gen_ns / 1e3 / inputs::PAYLOAD_NODES as f64);
    spec_states(out);
    par_speedup(out, notes);
    failures
}

fn xml(h: &Harvest, out: &mut Metrics) {
    let docs: Vec<Document> = h.docs.iter().map(|x| Document::parse(x).expect("harvested document parses")).collect();
    let nodes: usize = docs.iter().map(Document::node_count).sum();
    let calls = calls_for(100_000, nodes);
    let parse = ns_per_call(calls, || {
        for x in &h.docs {
            black_box(Document::parse(black_box(x)).expect("parses"));
        }
    });
    out.set("xml.parse_ns_per_node", parse / nodes as f64);
    let serialize = ns_per_call(calls, || {
        for d in &docs {
            black_box(d.to_xml());
        }
    });
    out.set("xml.serialize_ns_per_node", serialize / nodes as f64);
    // The ballast subtree where there is one, else the whole document.
    let roots: Vec<_> = docs.iter().map(|d| d.first_child_element(d.root(), "payload").unwrap_or(d.root())).collect();
    let copied: usize = docs.iter().zip(&roots).map(|(d, r)| d.subtree_size(*r)).sum();
    let copy = ns_per_call(calls, || {
        for (d, r) in docs.iter().zip(&roots) {
            black_box(Fragment::from_node(d, *r).expect("live node"));
        }
    });
    out.set("xml.fragment_copy_ns_per_node", copy / copied as f64);
}

/// Answers every call with a fixed result, so only the engine's own
/// work (relevance, result splicing, effect logging) is timed.
struct Stub(Vec<Fragment>);

impl ServiceInvoker for Stub {
    fn invoke(&mut self, _call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
        Ok(ServiceResponse { items: self.0.clone(), effects: Vec::new() })
    }

    fn result_hints(&self, _call: &ResolvedCall) -> Option<Vec<String>> {
        Some(vec!["out".to_string()])
    }
}

fn query_and_doc(h: &Harvest, out: &mut Metrics) {
    let query = SelectQuery::parse("Select v//out from v in d").expect("static query");
    let origin = Document::parse(&h.docs[0]).expect("harvested document parses");
    let calls = calls_for(100_000, origin.node_count());
    out.set("query.select_us", ns_per_call(calls, || drop(black_box(query.eval(&origin).expect("evaluates")))) / 1e3);

    // Replace `slot`, then run the compensation derived from the logged
    // effects: the document is back where it started after every call.
    let locator = Locator::parse("Select v/slot from v in d").expect("static locator");
    let action = UpdateAction::replace(locator, vec![Fragment::elem_text("slot", "replaced")]);
    let mut doc = origin.clone();
    let update = ns_per_call(calls, || {
        let report = action.apply(&mut doc).expect("slot exists");
        let undo = CompensatingService::from_effect_log(&[("d".to_string(), report.effects)]);
        let mut docs = BTreeMap::from([("d".to_string(), &mut doc)]);
        undo.execute(&mut docs).expect("compensation applies");
    });
    out.set("query.update_us", update / 1e3);
    assert_eq!(doc.to_xml(), origin.to_xml(), "update kernel must leave the document unchanged");

    // The result a leaf returns: its own `out` elements.
    let leaf = Document::parse(h.docs.last().expect("documents")).expect("harvested document parses");
    let result: Vec<Fragment> = query
        .eval(&leaf)
        .expect("evaluates")
        .into_iter()
        .map(|n| Fragment::from_node(&leaf, n).expect("selected node"))
        .collect();
    let engine = MaterializationEngine::new(EvalMode::Lazy);
    let mut stub = Stub(result);
    let mut materialized = 0;
    for x in &h.docs {
        let mut d = Document::parse(x).expect("harvested document parses");
        materialized +=
            engine.materialize_for_query(&mut d, &query, &mut stub).expect("stub never faults").materialized;
    }
    out.set("doc.calls_materialized_per_txn", materialized as f64);
    let mut doc = origin.clone();
    let materialize = ns_per_call(calls_for(20_000, origin.node_count()), || {
        black_box(engine.materialize_for_query(&mut doc, &query, &mut stub).expect("stub never faults"));
    });
    out.set("doc.materialize_us", materialize / 1e3);
}

fn journal_and_wal(h: &Harvest, out: &mut Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    if h.journal.is_empty() {
        return failures;
    }
    let n = h.journal.len() as f64;
    let replay = ns_per_call(calls_for(20_000, h.journal.len()), || {
        black_box(durability::replay(&h.journal).expect("harvested journal replays"));
    });
    out.set("core.journal_replay_us_per_entry", replay / 1e3 / n);

    // Shipped flush policy: one buffered write flushed per append, fsync
    // only at segment rotation.
    let dir = std::env::temp_dir().join(format!("axml-benchmark-kernel-wal-{}", std::process::id()));
    let mut appends = Vec::new();
    let mut recovers = Vec::new();
    for _ in 0..5 {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let mut sink = WalSink::create(WalConfig::new(&dir)).expect("scratch directory is writable");
        for e in &h.journal {
            if !sink.append(e) {
                failures.push("a fault-free WAL refused an append".to_string());
            }
        }
        drop(sink);
        appends.push(t.elapsed().as_nanos() as f64 / 1e3 / n);
        let t = Instant::now();
        let recovered = recover_dir(&dir).expect("fault-free WAL recovers");
        recovers.push(t.elapsed().as_nanos() as f64 / 1e3 / n);
        if recovered.entries != h.journal {
            failures.push("a fault-free WAL did not recover exactly the journal it was given".to_string());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.set("store.append_us_per_entry", stats::median(&appends));
    out.set("store.recover_us_per_entry", stats::median(&recovers));
    failures.dedup();
    failures
}

#[derive(Debug, Clone)]
struct Null;

impl Message for Null {}

/// Sends a fixed burst per timer and ignores what it receives: what is
/// left of a run is the simulator's own queue, clock and latency draws.
struct NullActor {
    peers: u32,
    burst: u64,
    timers_left: u64,
}

impl Actor<Null> for NullActor {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Null>, _from: PeerId, _msg: Null) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Null>, _tag: u64) {
        for i in 0..self.burst {
            let to = (u64::from(ctx.me().0) + 1 + i) % u64::from(self.peers);
            let _ = ctx.send(PeerId(to as u32), Null);
        }
        self.timers_left -= 1;
        if self.timers_left > 0 {
            ctx.set_timer(1, 0);
        }
    }
}

/// Replays the pass's send and timer counts through a simulator whose
/// actors do nothing, under the same latency model.
fn queue(h: &Harvest, seed: u64, out: &mut Metrics) {
    let peers = h.peers.max(2) as u64;
    let timers_each = (h.timers / peers).max(1);
    let burst = (h.sends / (timers_each * peers)).max(1);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let actors: Vec<NullActor> =
                (0..peers).map(|_| NullActor { peers: peers as u32, burst, timers_left: timers_each }).collect();
            let mut sim = Sim::new(SimConfig { seed, max_events: u64::MAX, ..Default::default() }, actors);
            for p in 0..peers {
                sim.schedule_timer(0, PeerId(p as u32), 0);
            }
            let t = Instant::now();
            sim.run();
            let ns = t.elapsed().as_nanos() as f64;
            let m = sim.metrics();
            ns / (m.delivered + m.timers_fired) as f64
        })
        .collect();
    let queue_ns = stats::median(&samples);
    out.set("p2p.queue_ns_per_event", queue_ns);
    // What is left of a transaction's run time once the queue's share of
    // its events is taken out is the peers' handlers.
    let run_us = out.get("core.run_us_per_txn").unwrap_or(0.0);
    let events = out.get("p2p.events_per_txn").unwrap_or(0.0);
    out.set("core.handler_us_per_txn", run_us - queue_ns * events / 1e3);
}

/// Microseconds per message of one update-flavor transaction over a
/// complete binary tree of the given depth (15 peers at depth 3, 63 at
/// depth 5) with chaining on: the active-peer list every message
/// piggybacks grows with the tree, so this warns early when per-message
/// cost stops being flat.
fn wide_tree(depth: usize, seed: u64) -> f64 {
    let edges = tree_edges(1, TreeShape { depth, fanout: 2 });
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut s = ScenarioBuilder::new(1, &edges).with_seed(seed).build();
            let t = Instant::now();
            let report = s.run();
            t.elapsed().as_nanos() as f64 / 1e3 / report.metrics.sent as f64
        })
        .collect();
    stats::median(&samples)
}

/// Model-checker throughput: the clean catalogue explored again and
/// again for half a second.
fn spec_states(out: &mut Metrics) {
    let t = Instant::now();
    let mut states = 0usize;
    while t.elapsed().as_secs_f64() < 0.5 {
        states += black_box(axml_spec::check_catalogue(200_000)).iter().map(|r| r.states).sum::<usize>();
    }
    out.set("spec.check_states_per_s", states as f64 / t.elapsed().as_secs_f64());
}

/// The canonical 400-case sweep on every core against one core — the
/// only multi-threaded measurement. Prints the sweep digest for
/// comparison with the one ROADMAP.md pins.
fn par_speedup(out: &mut Metrics, notes: &mut Vec<String>) {
    let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let time = |jobs: usize| {
        let t = Instant::now();
        let outcome = sweep_jobs(&scenarios, Profile::all(), 0..16, true, jobs);
        (t.elapsed().as_secs_f64(), outcome)
    };
    let (serial, outcome) = time(1);
    let (parallel, _) = time(jobs);
    notes.push(format!(
        "canonical-sweep runs={} violations={} digest={:016x} jobs={jobs}",
        outcome.runs,
        outcome.violations.len(),
        outcome.digest
    ));
    out.set("chaos.par_speedup", serial / parallel);
}
