#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Chaos harness for the transactional AXML protocol.
//!
//! Sweeps seeded fault schedules ([`axml_p2p::FaultPlane`]) over the
//! paper's scenarios and checks every run against an **atomicity
//! oracle** stricter than the scenario-level all-or-nothing check:
//!
//! - the transaction must resolve by the deadline;
//! - aborted → every connected participant's documents equal the
//!   pre-transaction baseline (compensation really undid everything);
//! - committed → no connected participant may hold an aborted context
//!   at all, *unless* the run involved crash-restarts, disconnections,
//!   or failure detections — the paper's acknowledged atomicity limit
//!   under churn. Pure message-level faults (drop / duplicate /
//!   reorder / delay) are **not** an excuse: the at-least-once delivery
//!   layer must absorb them completely;
//! - every participant decides: a context still undecided at case end is
//!   a violation unless its peer is offline then (a crash here always
//!   restarts its peer, so no peer is crashed and not restarted). The
//!   excused ones are named in [`CaseResult::open_contexts_excused`].
//!
//! Each case also counts its **false suspicions** ([`false_suspicions`]):
//! keep-alive timeouts that named a peer which was up and reachable — the
//! liveness a cut in messages can cost, which the oracle cannot see.
//!
//! Runs are fully deterministic: the same scenario + seeds + fault
//! profile produce the same metrics and the same [`run digest`](run_case).
//! Every probabilistic run records its injected faults as a trace of
//! [`ScriptedFault`]s; a failing run is replayed from that trace and
//! [shrunk](shrink_failure) to a minimal scripted schedule that still
//! violates the oracle — a printable, RNG-free reproducer.

use axml_core::context::TxnState;
use axml_core::durability::WalStats;
use axml_core::peer::{DetectHow, PeerCounters, PeerStats};
use axml_core::scenarios::{render_counters, Scenario, ScenarioBuilder, ScenarioReport};
use axml_obs::{
    derive_histograms, flight_dump, Histogram, Monitor, MonitorFinding, ProfileReport, SeriesRegistry,
    DEFAULT_FLIGHT_CAPACITY,
};
use axml_p2p::{
    CrashEvent, EventKind, FaultPlane, Fnv64, NetMetrics, Partition, PeerId, ScriptedFault, Snapshot,
    StorageFaultPlane, TraceEvent, TraceJournal,
};
use axml_spec::Conformance;
use axml_store::WalSink;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

pub mod gen;
mod parallel;
pub use gen::{gen_scenario_names, GenScenario};
pub use parallel::{par_each, par_map};

/// Scenario names the harness knows how to build.
pub const SCENARIOS: &[&str] = &["fig1", "fig2", "fig1-abort", "deep", "fig1-crash"];

/// Gauge-sampling window width (sim-time ticks) for traced runs. Every
/// traced run samples each peer's gauges (outbox depth, in-flight
/// contexts, dedup-set size, retransmit timers, WAL bytes/segments) at
/// multiples of this interval into the journal's sample column, which
/// the sweep folds into its [`SeriesRegistry`]. Sampling is
/// observation-only — it never perturbs the seeded event schedule or the
/// run digest.
pub const SAMPLE_INTERVAL: u64 = 25;

/// Builds the named scenario's tree (fault plane and config not yet
/// applied). Returns `None` for unknown names.
pub fn builder_for(name: &str) -> Option<ScenarioBuilder> {
    match name {
        // Fig. 1 happy path: the full six-peer invocation tree commits.
        "fig1" => Some(ScenarioBuilder::fig1()),
        // Fig. 2: same protocol under a super-peer topology.
        "fig2" => Some(ScenarioBuilder::fig2()),
        // Fig. 1 with S5 failing while processing: the nested recovery
        // (backward) path — compensation everywhere — under fire. With
        // no replica around, provider re-lookup would just re-invoke the
        // faulty peer, so alternative providers are off: the abort path
        // stays an abort path.
        "fig1-abort" => {
            let mut b = ScenarioBuilder::fig1().fault_at(5);
            b.config.use_alternative_providers = false;
            Some(b)
        }
        // A four-deep chain: maximal nesting depth per message.
        "deep" => Some(ScenarioBuilder::new(1, &[(1, 2), (2, 3), (3, 4)])),
        // Fig. 1 with S2 slow and faulty, so the AP3 subtree completes
        // before the abort arrives and AP3 has real compensation work to
        // do — then AP3 crash-restarts while doing it (the scenario's
        // defining crash lives in the builder's own fault plane; the
        // sweep merges it into whatever profile plane it applies). Every
        // peer runs a WAL: the restarted peer must rebuild its
        // mid-compensation state purely from its segments.
        "fig1-crash" => {
            let mut b = ScenarioBuilder::fig1().fault_at(2);
            b.durations.insert(2, 60);
            b.config.use_alternative_providers = false;
            b.fault.crashes.push(CrashEvent { at: 70, peer: PeerId(3) });
            Some(b)
        }
        name => name.strip_prefix("gen:").and_then(|spec| GenScenario::from_name_suffix(spec).map(|g| g.builder())),
    }
}

/// A named probabilistic fault mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Message drops only.
    Drops,
    /// Message duplication only — the at-least-once hazard in isolation.
    Dups,
    /// Drops + duplication + reordering + delay spikes.
    Mixed,
    /// Everything: the mixed message faults plus a windowed partition
    /// and a crash-restart, both placed deterministically from the seed.
    Storm,
    /// Storage faults: every peer runs a WAL whose appends
    /// draw torn writes and sync failures from the seed, plus mixed
    /// message faults and a seeded crash-restart that leaves a
    /// partial-segment artifact for recovery to discard.
    Storage,
}

impl Profile {
    /// All profiles, in sweep order.
    pub fn all() -> &'static [Profile] {
        &[Profile::Drops, Profile::Dups, Profile::Mixed, Profile::Storm, Profile::Storage]
    }

    /// Parses a profile name (`drops` / `dups` / `mixed` / `storm` / `storage`).
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "drops" => Some(Profile::Drops),
            "dups" => Some(Profile::Dups),
            "mixed" => Some(Profile::Mixed),
            "storm" => Some(Profile::Storm),
            "storage" => Some(Profile::Storage),
            _ => None,
        }
    }

    /// The profile's sweep label.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Drops => "drops",
            Profile::Dups => "dups",
            Profile::Mixed => "mixed",
            Profile::Storm => "storm",
            Profile::Storage => "storage",
        }
    }
}

/// The fault plane for one `(profile, seed)` cell, over the given
/// scenario peers. Partition membership and the crash victim are derived
/// deterministically from the seed so the whole schedule is replayable.
pub fn plane_for(profile: Profile, seed: u64, peers: &[u32]) -> FaultPlane {
    match profile {
        Profile::Drops => FaultPlane::probabilistic(seed, 0.06, 0.0, 0.0, 0.0),
        Profile::Dups => FaultPlane::probabilistic(seed, 0.0, 0.15, 0.0, 0.0),
        Profile::Mixed => FaultPlane::probabilistic(seed, 0.04, 0.06, 0.06, 0.02),
        Profile::Storm => {
            let mut p = FaultPlane::probabilistic(seed, 0.03, 0.05, 0.05, 0.02);
            let k = peers.len() as u64;
            let cut = peers[(seed % k) as usize];
            let rest: Vec<PeerId> = peers.iter().filter(|q| **q != cut).map(|q| PeerId(*q)).collect();
            let start = 20 + (seed * 7) % 60;
            p.partitions.push(Partition { start, end: start + 120, a: vec![PeerId(cut)], b: rest });
            let victim = peers[((seed / 3) % k) as usize];
            p.crashes.push(CrashEvent { at: 15 + (seed * 11) % 80, peer: PeerId(victim) });
            p
        }
        Profile::Storage => {
            // Mild message faults so the storage plane does the damage:
            // torn appends and sync failures on every peer's WAL while
            // the protocol is in flight, plus a seeded crash whose
            // restart must recover from its segments (including
            // the partial-segment garbage the crash leaves behind).
            let mut p = FaultPlane::probabilistic(seed, 0.02, 0.04, 0.04, 0.01);
            p.storage =
                StorageFaultPlane { torn_append_prob: 0.04, sync_failure_prob: 0.04, partial_segment_on_crash: true };
            let k = peers.len() as u64;
            let victim = peers[((seed / 2) % k) as usize];
            p.crashes.push(CrashEvent { at: 12 + (seed * 13) % 70, peer: PeerId(victim) });
            p
        }
    }
}

/// One cell of the sweep matrix.
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Scenario name (see [`SCENARIOS`]).
    pub scenario: String,
    /// Fault mix.
    pub profile: Profile,
    /// Seed for both the fault RNG and (offset) the latency RNG.
    pub seed: u64,
    /// Duplicate suppression in the delivery layer. `false` is the
    /// deliberately broken variant the oracle must catch under `Dups`.
    pub dedup: bool,
    /// Per-link delivery batching in the simulator (on by default). A
    /// pure queue optimization — digests, journals, and verdicts are
    /// byte-identical either way, which the conformance tests pin by
    /// flipping this.
    pub batch_links: bool,
}

impl CaseConfig {
    /// A case with the delivery layer fully enabled.
    pub fn new(scenario: &str, profile: Profile, seed: u64) -> CaseConfig {
        CaseConfig { scenario: scenario.to_string(), profile, seed, dedup: true, batch_links: true }
    }

    /// Compact label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/seed={}{}",
            self.scenario,
            self.profile.name(),
            self.seed,
            if self.dedup { "" } else { "/no-dedup" }
        )
    }
}

/// The oracle's verdict on one run.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// True if atomicity held.
    pub ok: bool,
    /// Why not, when it did not.
    pub reason: String,
}

impl Verdict {
    fn ok() -> Verdict {
        Verdict { ok: true, reason: String::new() }
    }

    fn violation(reason: impl Into<String>) -> Verdict {
        Verdict { ok: false, reason: reason.into() }
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The origin-side decision (`None` = unresolved by the deadline).
    pub committed: Option<bool>,
    /// Participant contexts still undecided when the run ended.
    pub open_contexts: usize,
    /// The undecided ones the oracle excuses, named
    /// (`AP4 T1.0 awaiting the decision`): their peer is offline at case
    /// end. Any other open context is a violation.
    pub open_contexts_excused: Vec<String>,
    /// Keep-alive timeouts that named a live, reachable peer
    /// ([`false_suspicions`]).
    pub false_suspicions: u64,
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// Deterministic digest of the run: outcome, metrics, final document
    /// state, and the injected-fault trace. Equal digests ⇔ equal runs.
    pub digest: u64,
    /// Digest of the final document state alone ([`doc_state_digest`]) —
    /// what a crash-recovered run is diffed against its uncrashed
    /// reference on.
    pub doc_digest: u64,
    /// Every per-message fault the plane injected, as a replayable script.
    pub trace: Vec<ScriptedFault>,
    /// The plane the run used.
    pub plane: FaultPlane,
    /// Network counters.
    pub metrics: NetMetrics,
    /// Every participant's protocol counters, by peer.
    pub stats: BTreeMap<PeerId, PeerStats>,
    /// The participants' durability-sink counters, summed.
    pub wal: WalStats,
    /// Everything the online protocol monitor flagged. Always collected
    /// (the monitor rides every run as a sim observer); when the
    /// atomicity oracle passes but the monitor does not, the verdict is
    /// downgraded to a violation.
    pub findings: Vec<MonitorFinding>,
    /// Trace conformance against the executable reference model
    /// (`axml-spec`): the journal of a traced run replayed against the
    /// model's permitted transitions. `None` for untraced runs (no
    /// journal to check); divergences downgrade a clean verdict exactly
    /// like monitor findings do.
    pub conformance: Option<axml_spec::Conformance>,
}

impl CaseResult {
    /// The case's unified counter registry — `net.*`, `peer.<k>.*`,
    /// `wal.*` and `chaos.false_suspicions` — named only now, from the
    /// typed counters the case carries.
    pub fn snapshot(&self) -> Snapshot {
        let peers = self.stats.iter().map(|(&p, st)| (p, st.counters()));
        chaos_snapshot(&self.metrics, peers, &self.wal, self.false_suspicions)
    }
}

/// [`render_counters`] plus the chaos harness's own counter: the one
/// rendering of a case's or a sweep's typed counters.
fn chaos_snapshot(
    net: &NetMetrics,
    peers: impl ExactSizeIterator<Item = (PeerId, PeerCounters)>,
    wal: &WalStats,
    false_suspicions: u64,
) -> Snapshot {
    let mut snapshot = render_counters(net, peers, wal);
    snapshot.set("chaos.false_suspicions", false_suspicions);
    snapshot
}

/// The atomicity oracle (see the crate docs for the exact rule).
pub fn check_atomicity(s: &Scenario, report: &ScenarioReport) -> Verdict {
    let Some(outcome) = &report.outcome else {
        return Verdict::violation("transaction unresolved at the deadline");
    };
    // `Scenario::run` already compared every document with its baseline.
    debug_assert_eq!(report.atomic, s.atomicity_holds(), "the report is this scenario's own");
    if !report.atomic {
        return Verdict::violation(format!(
            "{} but divergent documents remain: {:?}",
            if outcome.committed { "committed" } else { "aborted" },
            s.divergent_docs()
        ));
    }
    if outcome.committed {
        // Message-level faults alone must be fully absorbed by the
        // delivery layer: an aborted participant inside a committed
        // transaction is only excusable when the run saw crash-restarts,
        // disconnections, or failure detections — or when *forward
        // recovery* ran (handler retries, substitutions, alternative
        // providers): §3.2's nested recovery deliberately aborts the
        // faulty subtree, compensates it, and lets the handler's
        // substitute (or a replica re-invocation) carry the transaction
        // to commit, so the subtree's aborted contexts are the expected
        // residue of a *correct* run. Those runs are still gated by the
        // online monitor and the spec conformance check.
        let excused = s.participants.iter().any(|&p| {
            if !s.sim.is_connected(p) {
                return true;
            }
            let st = &s.sim.actor(p).stats;
            st.crash_recoveries > 0
                || !st.detections.is_empty()
                || st.retries > 0
                || st.substitutions > 0
                || st.alternatives_used > 0
        });
        if !excused {
            for &p in &s.participants {
                if let Some(tc) = s.sim.actor(p).context(outcome.txn) {
                    if tc.state == TxnState::Aborted {
                        return Verdict::violation(format!(
                            "committed, but AP{} holds an aborted context with no crash or churn to excuse it",
                            p.0
                        ));
                    }
                }
            }
        }
    }
    // Every participant decides: an undecided context on a peer that can
    // still be reached is one nobody will ever resolve.
    if let Some(open) = open_contexts(s).1.first() {
        return Verdict::violation(format!("{open} at case end, on a connected peer"));
    }
    Verdict::ok()
}

/// Every participant context still undecided at case end, named with
/// where it stands and what its origin decided (`AP4 T1.0 awaiting the
/// decision, committed at the origin`), as `(excused, unexcused)`. A
/// context is excused when its peer is offline: no protocol can reach it.
pub fn open_contexts(s: &Scenario) -> (Vec<String>, Vec<String>) {
    let (mut excused, mut unexcused) = (Vec::new(), Vec::new());
    for &p in &s.participants {
        for (txn, stands) in s.sim.actor(p).undecided() {
            let decided = match s.sim.actor(txn.origin).context(txn).map(|tc| tc.state) {
                Some(TxnState::Committed) => "committed",
                Some(TxnState::Aborted) => "aborted",
                _ => "undecided",
            };
            let name = format!("AP{} {txn} {stands}, {decided} at the origin", p.0);
            if s.sim.is_connected(p) {
                unexcused.push(name);
            } else {
                excused.push(name);
            }
        }
    }
    (excused, unexcused)
}

// ----------------------------------------------------------------------
// False suspicions.
// ----------------------------------------------------------------------

/// True if a partition of `partitions` separates `a` from `b` at some
/// time in `[from, to]`.
fn cut_off(partitions: &[Partition], a: u32, b: u32, from: u64, to: u64) -> bool {
    partitions.iter().any(|p| {
        let side = |v: &[PeerId], x: u32| v.iter().any(|q| q.0 == x);
        let apart = (side(&p.a, a) && side(&p.b, b)) || (side(&p.b, a) && side(&p.a, b));
        apart && p.start <= to && p.end >= from
    })
}

/// The `(detector, suspect, time)` of every keep-alive timeout in a
/// traced run's `journal` that names a live peer: within `window` ticks
/// before it, neither the suspect nor the detector crashed, went offline
/// or came back, nor was offline throughout, and no partition of
/// `partitions` cut one off from the other.
pub fn live_suspects(journal: &TraceJournal, partitions: &[Partition], window: u64) -> Vec<(u32, u32, u64)> {
    let events = journal.events();
    let away = |peer: u32, from: u64, to: u64| {
        // Offline at `from`, or crashed, disconnected or reconnected since.
        let mut offline = false;
        for e in events.iter().filter(|e| e.peer == peer && e.at <= to) {
            match e.kind {
                EventKind::Crash if e.at >= from => return true,
                EventKind::Disconnect | EventKind::Reconnect if e.at >= from => return true,
                EventKind::Disconnect => offline = true,
                EventKind::Reconnect => offline = false,
                _ => {}
            }
        }
        offline
    };
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Detect { peer, how } if how == DetectHow::PingTimeout.label() => Some((e.peer, *peer, e.at)),
            _ => None,
        })
        .filter(|&(by, of, at)| {
            let from = at.saturating_sub(window);
            !away(of, from, at) && !away(by, from, at) && !cut_off(partitions, by, of, from, at)
        })
        .collect()
}

/// [`live_suspects`] counted without a journal, so untraced runs report
/// it too: read off every participant's [`DetectHow::PingTimeout`]
/// detections, the case's effective fault plane (its crashes and
/// partitions) and the scenario's `disconnects` of peers that are not
/// super peers. No scenario reconnects a peer, so a peer disconnected by
/// the time of a detection is away from then on.
pub fn false_suspicions(s: &Scenario, plane: &FaultPlane, disconnects: &[(u64, u32)], window: u64) -> u64 {
    let away = |peer: u32, from: u64, to: u64| {
        disconnects.iter().any(|&(at, p)| p == peer && at <= to)
            || plane.crashes.iter().any(|c| c.peer.0 == peer && (from..=to).contains(&c.at))
    };
    let mut count = 0;
    for &p in &s.participants {
        for d in s.sim.actor(p).stats.detections.iter().filter(|d| d.how == DetectHow::PingTimeout) {
            let (by, of, from) = (p.0, d.disconnected.0, d.at.saturating_sub(window));
            if !away(of, from, d.at) && !away(by, from, d.at) && !cut_off(&plane.partitions, by, of, from, d.at) {
                count += 1;
            }
        }
    }
    count
}

/// Feeds one `doc <peer> <name> <xml>` line per final document of every
/// participant to each hasher in `into`. A document is serialised once,
/// into a line buffer the whole walk reuses.
fn digest_docs(s: &Scenario, into: &mut [&mut Fnv64]) {
    let mut line = String::new();
    for &p in &s.participants {
        for (name, doc) in s.sim.actor(p).repo.iter() {
            line.clear();
            let _ = write!(line, "doc {p} {name} ");
            doc.write_xml(&mut line);
            line.push('\n');
            for h in into.iter_mut() {
                h.write(line.as_bytes());
            }
        }
    }
}

/// Digest over the participants' final document state alone — the part
/// of a run that crash recovery must reproduce exactly. Two aborted runs
/// of the same topology agree on this digest iff compensation restored
/// every document to the same bytes, whatever faults each run saw.
pub fn doc_state_digest(s: &Scenario) -> u64 {
    let mut h = Fnv64::default();
    digest_docs(s, &mut [&mut h]);
    h.finish()
}

/// Deterministic digest of a finished run.
pub fn run_digest(s: &Scenario, report: &ScenarioReport) -> u64 {
    digest_run(s, report, None)
}

/// [`run_digest`]; the document lines it hashes also go to `docs`, which
/// then holds [`doc_state_digest`] without a second serialisation.
fn digest_run(s: &Scenario, report: &ScenarioReport, docs: Option<&mut Fnv64>) -> u64 {
    let mut run = Fnv64::default();
    let _ = writeln!(
        run,
        "outcome={:?} finished={} sent={} kinds={:?}",
        report.outcome.as_ref().map(|o| o.committed),
        report.finished_at,
        report.metrics.sent,
        report.metrics.by_kind,
    );
    match docs {
        Some(docs) => digest_docs(s, &mut [&mut run, docs]),
        None => digest_docs(s, &mut [&mut run]),
    }
    let _ = writeln!(run, "trace={:?}", s.sim.fault_trace());
    run.finish()
}

/// What a traced chaos run leaves behind alongside its [`CaseResult`]:
/// the lifecycle journal itself and what a sweep aggregates from it.
/// Nothing here is text: a reader that wants the JSON lines or the
/// causal tree renders them from [`Self::journal`]
/// ([`TraceJournal::to_json_lines`], [`TraceJournal::render_tree`], both
/// byte-stable across replays), and the counter registry from the case
/// ([`CaseResult::snapshot`]).
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// The run's journal, moved out of the finished simulator.
    pub journal: TraceJournal,
    /// Latency histograms derived from the journal
    /// ([`axml_obs::derive_histograms`]) — fixed bucket layout, so
    /// per-case histograms merge into sweep-level distributions by plain
    /// counter addition, independent of merge order.
    pub histograms: BTreeMap<String, Histogram>,
    /// Phase-width histograms from the per-transaction profiler
    /// (`phase_<name>` plus `txn_total`; see
    /// [`ProfileReport::phase_histograms`]) — same fixed bucket layout
    /// as the latency histograms, merged the same way.
    pub phase_histograms: BTreeMap<String, Histogram>,
}

impl TraceDump {
    /// The run's flight dump: each peer's last ≤ [`DEFAULT_FLIGHT_CAPACITY`]
    /// protocol events, cut from the journal ([`flight_dump`]).
    pub fn flight(&self) -> String {
        flight_dump(self.journal.events(), DEFAULT_FLIGHT_CAPACITY)
    }
}

/// Gives every participant an in-memory [`WalSink`] drawing storage
/// faults from `storage` with a per-peer seed derived only from
/// `(seed, peer)` — never from thread or order — so a parallel sweep
/// injects the exact same storage faults as a serial one. The simulator
/// owns the crash, so the log need not outlive the process: the sinks
/// make no filesystem call.
pub fn attach_wal_sinks(s: &mut Scenario, storage: &StorageFaultPlane, seed: u64) {
    for &p in &s.participants {
        let peer_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(u64::from(p.0));
        s.sim.actor_mut(p).set_durability_sink(Box::new(WalSink::in_memory(storage.clone(), peer_seed)));
    }
}

/// The case's scenario builder.
fn builder_of(case: &CaseConfig) -> ScenarioBuilder {
    builder_for(&case.scenario).expect("known scenario")
}

/// Runs one case from its builder `b` (so a caller that derived the plane
/// from the builder does not build it twice). Nothing here renders text:
/// the counters stay typed and the journal is moved into the dump.
fn run_inner(
    case: &CaseConfig,
    mut b: ScenarioBuilder,
    plane: FaultPlane,
    traced: bool,
) -> (CaseResult, Option<TraceDump>) {
    // The scenario's own peer configuration is the template (generated
    // scenarios carry their knob choices there; the hand-written ones use
    // the default plus per-scenario overrides set in `builder_for`); the
    // sweep only decides duplicate suppression.
    let mut cfg = b.config.clone();
    cfg.dedup = case.dedup;
    // The effective plane is the given one plus whatever scheduled faults
    // the scenario itself defines (crashes, partitions, scripted events —
    // e.g. fig1-crash's defining mid-compensation crash, or a generated
    // scenario's crash schedule); `CaseResult::plane` keeps the original
    // so trace replays and the shrinker stay faithful (re-running through
    // here re-adds the scenario's own faults).
    let mut effective = plane.clone();
    effective.crashes.extend(b.fault.crashes.iter().copied());
    effective.partitions.extend(b.fault.partitions.iter().cloned());
    effective.script.extend(b.fault.script.iter().cloned());
    // Whether the scenario itself demands a WAL (its own crash schedule
    // must recover from the segments).
    let scenario_wants_wal = !b.fault.crashes.is_empty();
    // What a false suspicion is told apart by: the scenario's disconnects
    // (a super peer ignores its own) and the window of two timeouts.
    let disconnects: Vec<(u64, u32)> = b.disconnects.iter().copied().filter(|(_, p)| !b.supers.contains(p)).collect();
    let window = 2 * b.config.ping_timeout;
    // Decouple latency jitter from the fault seed but vary both per case.
    b.seed = 1000 + case.seed;
    b.batch_links = case.batch_links;
    if traced {
        // Traced runs also sample the time-series plane: per-peer
        // gauges at fixed window boundaries, written into the journal's
        // sample column (no observer sees them).
        b = b.traced().sampled(SAMPLE_INTERVAL);
    }
    let mut s = b.config(cfg).fault_plane(effective).build();
    // A WAL whenever storage faults are in play or the scenario is about
    // crash-restart from the segments; everywhere else a peer has no sink
    // and its journal is perfectly durable storage (pre-WAL behavior).
    let storage = s.sim.fault_plane().storage.clone();
    if !storage.is_inert() || scenario_wants_wal {
        attach_wal_sinks(&mut s, &storage, case.seed);
    }
    // The online protocol monitor observes every run (traced or not);
    // observation never perturbs the seeded schedule, so digests are
    // unaffected.
    let monitor = Rc::new(RefCell::new(Monitor::new()));
    s.sim.attach_observer(monitor.clone());
    let report = s.run();
    let findings = monitor.borrow_mut().finish().to_vec();
    // Traced runs also replay their journal against the executable
    // reference model (spec rules R01–R10, invariants I2–I5).
    let conformance = s.trace().map(axml_spec::check_journal);
    let mut verdict = check_atomicity(&s, &report);
    if verdict.ok {
        if let Some(f) = findings.first() {
            verdict = Verdict::violation(format!("online monitor: {f}"));
        }
    }
    if verdict.ok {
        if let Some(d) = conformance.as_ref().and_then(Conformance::first) {
            verdict = Verdict::violation(format!("spec conformance: {d}"));
        }
    }
    let mut doc_digest = Fnv64::default();
    let digest = digest_run(&s, &report, Some(&mut doc_digest));
    let false_suspicions = false_suspicions(&s, s.sim.fault_plane(), &disconnects, window);
    let mut wal = WalStats::default();
    for &p in &s.participants {
        wal.merge(&s.sim.actor(p).wal_stats());
    }
    let dump = s.sim.take_trace().map(|journal| TraceDump {
        histograms: derive_histograms(&journal),
        phase_histograms: ProfileReport::from_journal(&journal).phase_histograms(),
        journal,
    });
    let result = CaseResult {
        committed: report.outcome.as_ref().map(|o| o.committed),
        open_contexts: s.participants.iter().map(|&p| s.sim.actor(p).open_contexts()).sum(),
        open_contexts_excused: open_contexts(&s).0,
        false_suspicions,
        verdict,
        digest,
        doc_digest: doc_digest.finish(),
        trace: s.sim.take_fault_trace(),
        plane,
        metrics: report.metrics,
        stats: report.stats,
        wal,
        findings,
        conformance,
    };
    (result, dump)
}

/// Runs one case with an explicit plane (the sweep computes the plane
/// from the profile; the shrinker passes scripted candidates).
pub fn run_with_plane(case: &CaseConfig, plane: FaultPlane) -> CaseResult {
    run_inner(case, builder_of(case), plane, false).0
}

/// Like [`run_with_plane`] but with the lifecycle trace collected.
/// Tracing is observation only: the traced run's digest equals the
/// untraced one, and replaying the same case yields a byte-identical
/// journal.
pub fn run_with_plane_traced(case: &CaseConfig, plane: FaultPlane) -> (CaseResult, TraceDump) {
    run_traced(case, builder_of(case), plane)
}

fn run_traced(case: &CaseConfig, b: ScenarioBuilder, plane: FaultPlane) -> (CaseResult, TraceDump) {
    let (result, dump) = run_inner(case, b, plane, true);
    (result, dump.expect("traced run collects a journal"))
}

/// Runs one sweep cell (plane derived from the profile).
pub fn run_case(case: &CaseConfig) -> CaseResult {
    let b = builder_of(case);
    let plane = plane_for(case.profile, case.seed, &b.peers());
    run_inner(case, b, plane, false).0
}

// ----------------------------------------------------------------------
// Shrinking.
// ----------------------------------------------------------------------

/// One unit of a failing fault schedule, as the shrinker sees it.
#[derive(Debug, Clone)]
pub enum ChaosEvent {
    /// A scripted per-message fault.
    Msg(ScriptedFault),
    /// A partition window.
    Cut(Partition),
    /// A crash-restart.
    Crash(CrashEvent),
}

/// Flattens a run's schedule (its injected trace plus the plane's
/// partitions and crashes) into shrinkable events.
pub fn events_of(plane: &FaultPlane, trace: &[ScriptedFault]) -> Vec<ChaosEvent> {
    let mut out: Vec<ChaosEvent> = trace.iter().cloned().map(ChaosEvent::Msg).collect();
    out.extend(plane.partitions.iter().cloned().map(ChaosEvent::Cut));
    out.extend(plane.crashes.iter().cloned().map(ChaosEvent::Crash));
    out
}

/// Rebuilds a purely scripted (RNG-free) plane from a set of events.
pub fn plane_of(events: &[ChaosEvent]) -> FaultPlane {
    let mut plane = FaultPlane::scripted(
        events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Msg(f) => Some(f.clone()),
                _ => None,
            })
            .collect(),
    );
    for e in events {
        match e {
            ChaosEvent::Cut(p) => plane.partitions.push(p.clone()),
            ChaosEvent::Crash(c) => plane.crashes.push(*c),
            ChaosEvent::Msg(_) => {}
        }
    }
    plane
}

/// Greedy delta-debugging: removes chunks (halving the chunk size down
/// to single events) while the scripted schedule still violates the
/// oracle. Returns the minimal event set found.
///
/// `storage` is the failing run's storage fault plane, applied verbatim
/// to every candidate: storage faults are probabilistic per-append draws,
/// not per-message events, so they cannot be shrunk away item by item —
/// but dropping them (as a bare [`plane_of`] would) changes the run's
/// semantics and makes candidate verdicts meaningless. Every candidate
/// re-run gets fresh WAL sinks and per-peer fault RNGs seeded only from
/// `(case.seed, peer)` (see [`attach_wal_sinks`]), so no segment or RNG
/// state bleeds between ddmin iterations.
pub fn shrink(case: &CaseConfig, events: Vec<ChaosEvent>, storage: &StorageFaultPlane) -> Vec<ChaosEvent> {
    let fails = |evs: &[ChaosEvent]| {
        let mut plane = plane_of(evs);
        plane.storage = storage.clone();
        !run_with_plane(case, plane).verdict.ok
    };
    let mut cur = events;
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let hi = (i + chunk).min(cur.len());
            let mut cand: Vec<ChaosEvent> = cur[..i].to_vec();
            cand.extend_from_slice(&cur[hi..]);
            if fails(&cand) {
                cur = cand;
                shrunk = true;
                // Same index now points at the next chunk.
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            if !shrunk {
                break;
            }
        } else if !shrunk {
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

/// Shrinks a failing run to a minimal scripted reproducer: replays the
/// run's trace (plus partitions and crashes) as a script, verifies the
/// violation reproduces RNG-free, then delta-debugs the schedule down.
/// The failing run's storage fault plane rides along unchanged — message
/// faults shrink, the storage knobs are part of the reproducer (its
/// per-peer WAL fault draws are already deterministic in `(seed, peer)`).
/// Returns `None` if the scripted replay unexpectedly passes.
pub fn shrink_failure(case: &CaseConfig, result: &CaseResult) -> Option<FaultPlane> {
    let storage = result.plane.storage.clone();
    let full = events_of(&result.plane, &result.trace);
    let mut scripted = plane_of(&full);
    scripted.storage = storage.clone();
    if run_with_plane(case, scripted).verdict.ok {
        return None;
    }
    let mut minimal = plane_of(&shrink(case, full, &storage));
    minimal.storage = storage;
    Some(minimal)
}

// ----------------------------------------------------------------------
// Corpus: checked-in minimized reproducers.
// ----------------------------------------------------------------------

/// One checked-in reproducer: a sweep cell plus the shrunk scripted
/// plane that once violated the oracle. Violations surfaced during
/// development land here (via `axml-chaos gen-sweep --corpus`) and a
/// regression test replays every entry on each `cargo test`:
///
/// - `expect = "pass"`: the underlying bug was fixed — the replay must
///   stay clean forever (the regression guard);
/// - `expect = "violation"`: a tracked open issue — the replay must
///   still reproduce, so the entry is flipped to `pass` (not silently
///   forgotten) the day the bug is fixed. The `note` carries the
///   tracking context.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CorpusEntry {
    /// What this reproducer documents (and, for open issues, the
    /// tracking note explaining why it is not yet fixed).
    pub note: String,
    /// `"pass"` (fixed, must stay clean) or `"violation"` (open, must
    /// still reproduce).
    pub expect: String,
    /// Scenario name (hand-written or `gen:<seed>`).
    pub scenario: String,
    /// Profile label the violation was found under.
    pub profile: String,
    /// The cell's seed.
    pub seed: u64,
    /// The cell's duplicate-suppression setting.
    pub dedup: bool,
    /// The shrunk scripted plane (probabilities zero; storage knobs
    /// preserved verbatim from the failing run).
    pub plane: FaultPlane,
    /// Flight dump captured when the violation was surfaced — the last
    /// events per peer of the shrunk failing run. Optional
    /// (and absent keys read as `None`), so entries checked in before
    /// the recorder existed still parse.
    pub flight: Option<String>,
}

impl CorpusEntry {
    /// Replays the entry and checks it against its expectation.
    /// Returns `Err(reason)` when the expectation no longer holds.
    pub fn replay(&self) -> Result<(), String> {
        self.replay_with_flight().0
    }

    /// Like [`Self::replay`], but also hands back the replay's flight
    /// dump when the run violated — a fresh last-events context for
    /// diagnosis, independent of the (possibly stale) recorded
    /// [`Self::flight`]. The replay is traced: the dump is cut from its
    /// journal.
    pub fn replay_with_flight(&self) -> (Result<(), String>, Option<String>) {
        let profile = match Profile::parse(&self.profile) {
            Some(p) => p,
            None => return (Err(format!("unknown profile `{}`", self.profile)), None),
        };
        if builder_for(&self.scenario).is_none() {
            return (Err(format!("unknown scenario `{}`", self.scenario)), None);
        }
        let mut case = CaseConfig::new(&self.scenario, profile, self.seed);
        case.dedup = self.dedup;
        let (result, dump) = run_with_plane_traced(&case, self.plane.clone());
        let flight = (!result.verdict.ok).then(|| dump.flight());
        (self.check_expectation(&result), flight)
    }

    fn check_expectation(&self, result: &CaseResult) -> Result<(), String> {
        match (self.expect.as_str(), result.verdict.ok) {
            ("pass", true) | ("violation", false) => Ok(()),
            ("pass", false) => Err(format!("regressed — the fixed violation is back: {}", result.verdict.reason)),
            ("violation", true) => {
                Err("the tracked violation no longer reproduces — flip this entry's expect to \"pass\"".to_string())
            }
            (other, _) => Err(format!("unknown expectation `{other}` (expected \"pass\" or \"violation\")")),
        }
    }
}

/// Loads every `*.json` corpus entry under `dir`, sorted by file name
/// (deterministic replay order). A missing directory is an empty corpus.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<(String, CorpusEntry)>, String> {
    let mut entries = Vec::new();
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(_) => return Ok(entries),
    };
    let mut paths: Vec<PathBuf> =
        read.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.extension().is_some_and(|x| x == "json")).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let entry: CorpusEntry = serde_json::from_str(&text).map_err(|e| format!("{name}: {e:?}"))?;
        entries.push((name, entry));
    }
    Ok(entries)
}

// ----------------------------------------------------------------------
// Sweeping.
// ----------------------------------------------------------------------

/// One oracle violation, packaged for diagnosis: the failing cell, the
/// oracle's reason, the shrunk scripted reproducer (when the trace
/// replay reproduced), and the lifecycle trace of that reproducer run.
#[derive(Debug)]
pub struct Violation {
    /// The failing sweep cell.
    pub case: CaseConfig,
    /// Why the oracle rejected the run.
    pub reason: String,
    /// Minimal scripted [`FaultPlane`] as JSON, replayable via
    /// `axml-chaos trace <scenario> --script <file>`.
    pub reproducer: Option<String>,
    /// Lifecycle trace of the shrunk reproducer's run.
    pub trace: Option<TraceDump>,
    /// Flight dump of the shrunk reproducer's run (falls back to the
    /// cell's own run when shrinking failed), so the violation always
    /// carries its last-events context.
    pub flight: String,
}

/// A sweep's aggregate outcome. Every aggregate is merged in canonical
/// case order (scenario-major, then profile, then seed — the order the
/// serial nested loops visit), so a parallel sweep is byte-identical to
/// a serial one: same [`Self::digest`], same rendered snapshot, same
/// Prometheus exposition of [`Self::histograms`].
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Total runs executed.
    pub runs: usize,
    /// Runs that committed.
    pub committed: usize,
    /// Runs that aborted (atomically).
    pub aborted: usize,
    /// [`CaseResult::open_contexts`] summed over every run.
    pub open_contexts: usize,
    /// Every run's [`CaseResult::open_contexts_excused`], as `(case
    /// label, context)`, in canonical case order.
    pub open_contexts_excused: Vec<(String, String)>,
    /// [`CaseResult::false_suspicions`] summed over every run.
    pub false_suspicions: u64,
    /// Oracle violations with shrunk, traced reproducers.
    pub violations: Vec<Violation>,
    /// FNV-1a digest over every case's label, per-run digest, and
    /// verdict, folded in canonical case order. Equal sweep digests ⇔
    /// every single run was equal.
    pub digest: u64,
    /// The counter registry of the whole sweep, rendered once from every
    /// case's typed counters merged: they sum, `seen_peak` takes the max,
    /// as [`Snapshot::merge`] of the per-case registries would.
    pub snapshot: Snapshot,
    /// All per-case latency histograms merged (fixed bucket layout ⇒
    /// plain counter addition).
    pub histograms: BTreeMap<String, Histogram>,
    /// Every monitor finding across the sweep as `(case label, finding)`,
    /// in canonical case order.
    pub findings: Vec<(String, MonitorFinding)>,
    /// Every case's gauge samples folded pointwise
    /// ([`SeriesRegistry::absorb_samples`] — a sum, so worker count never
    /// shows in the aggregate).
    pub series: SeriesRegistry,
    /// All per-case phase histograms merged (`phase_<name>` +
    /// `txn_total`, fixed bucket layout).
    pub phase_histograms: BTreeMap<String, Histogram>,
}

/// What one worker hands back for one sweep cell: the traced case run
/// plus its already-shrunk violation, if any. Plain `Send` data — the
/// `Sim`, scenario, and `Rc`-based monitor never leave the worker.
struct CaseRun {
    result: CaseResult,
    histograms: BTreeMap<String, Histogram>,
    /// The journal's gauge samples, folded into the sweep's series.
    samples: Vec<TraceEvent>,
    phase_histograms: BTreeMap<String, Histogram>,
    violation: Option<Violation>,
}

/// Runs one sweep cell start to finish: traced run, oracle, and (on a
/// violation) trace-replay shrinking plus the traced reproducer replay.
/// Fully deterministic per case, so it can execute on any worker.
fn run_cell(case: &CaseConfig) -> CaseRun {
    let b = builder_of(case);
    let plane = plane_for(case.profile, case.seed, &b.peers());
    let (result, mut dump) = run_traced(case, b, plane);
    let violation = (!result.verdict.ok).then(|| {
        // Replay the shrunk schedule traced: the violation ships with
        // the exact lifecycle story of a minimal failing run — and that
        // run's flight dump — not just the schedule.
        let (reproducer, trace) = match shrink_failure(case, &result) {
            Some(plane) => {
                let json = serde_json::to_string(&plane).unwrap_or_else(|_| "<unserializable>".into());
                (Some(json), Some(run_with_plane_traced(case, plane).1))
            }
            None => (None, None),
        };
        let flight = trace.as_ref().unwrap_or(&dump).flight();
        Violation { case: case.clone(), reason: result.verdict.reason.clone(), reproducer, trace, flight }
    });
    CaseRun {
        result,
        histograms: dump.histograms,
        samples: dump.journal.take_samples(),
        phase_histograms: dump.phase_histograms,
        violation,
    }
}

/// The canonical case list of a sweep matrix: scenario-major, then
/// profile, then seed — exactly the order the serial loops visit. Both
/// the serial and the parallel sweep merge results in this order.
pub fn case_matrix(
    scenarios: &[String],
    profiles: &[Profile],
    seeds: std::ops::Range<u64>,
    dedup: bool,
) -> Vec<CaseConfig> {
    let mut cases = Vec::new();
    for scenario in scenarios {
        for &profile in profiles {
            for seed in seeds.clone() {
                let mut case = CaseConfig::new(scenario, profile, seed);
                case.dedup = dedup;
                cases.push(case);
            }
        }
    }
    cases
}

/// Runs the scenario × profile × seed matrix through the oracle on
/// `jobs` worker threads, shrinking every violation where it is found.
/// Cases are claimed work-stealing style but merged in canonical case
/// order as they finish, so the outcome — report counts, digest, merged
/// snapshot, merged histograms, findings — is byte-identical for every
/// `jobs` value, and a case's run is let go once merged (see
/// [`par_each`]).
pub fn sweep_jobs(
    scenarios: &[String],
    profiles: &[Profile],
    seeds: std::ops::Range<u64>,
    dedup: bool,
    jobs: usize,
) -> SweepOutcome {
    let cases = case_matrix(scenarios, profiles, seeds, dedup);
    let mut out = SweepOutcome::default();
    let mut digest = Fnv64::default();
    // The cases' typed counters, merged; named once, after the loop.
    let mut net = NetMetrics::default();
    let mut peers: BTreeMap<PeerId, PeerCounters> = BTreeMap::new();
    let mut wal = WalStats::default();
    par_each(
        &cases,
        jobs,
        |_, case| run_cell(case),
        |i, run| {
            let case = &cases[i];
            out.runs += 1;
            match run.result.committed {
                Some(true) => out.committed += 1,
                Some(false) => out.aborted += 1,
                None => {}
            }
            out.open_contexts += run.result.open_contexts;
            out.open_contexts_excused
                .extend(run.result.open_contexts_excused.iter().map(|c| (case.label(), c.clone())));
            out.false_suspicions += run.result.false_suspicions;
            let _ = writeln!(digest, "{} {:016x} ok={}", case.label(), run.result.digest, run.result.verdict.ok);
            net.merge(&run.result.metrics);
            for (&p, st) in &run.result.stats {
                peers.entry(p).or_default().merge(&st.counters());
            }
            wal.merge(&run.result.wal);
            for (name, h) in &run.histograms {
                out.histograms.entry(name.clone()).or_default().merge(h);
            }
            out.series.absorb_samples(&run.samples);
            for (name, h) in &run.phase_histograms {
                out.phase_histograms.entry(name.clone()).or_default().merge(h);
            }
            out.findings.extend(run.result.findings.iter().cloned().map(|f| (case.label(), f)));
            if let Some(v) = run.violation {
                out.violations.push(v);
            }
        },
    );
    out.digest = digest.finish();
    out.snapshot = chaos_snapshot(&net, peers.into_iter(), &wal, out.false_suspicions);
    out
}

/// Runs the scenario × profile × seed matrix through the oracle,
/// shrinking every violation. Serial: equivalent to [`sweep_jobs`] with
/// `jobs = 1`.
pub fn sweep(scenarios: &[String], profiles: &[Profile], seeds: std::ops::Range<u64>, dedup: bool) -> SweepOutcome {
    sweep_jobs(scenarios, profiles, seeds, dedup, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seed_and_config_produce_identical_runs() {
        for profile in [Profile::Mixed, Profile::Storm] {
            let case = CaseConfig::new("fig1", profile, 3);
            let a = run_case(&case);
            let b = run_case(&case);
            assert_eq!(a.digest, b.digest, "{}", case.label());
            assert_eq!(a.metrics.summary(), b.metrics.summary());
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn scripted_trace_replay_reproduces_the_run() {
        // Replaying a probabilistic run's recorded trace as a script —
        // probabilities zeroed, no RNG — must land on the same digest.
        let case = CaseConfig::new("fig2", Profile::Storm, 5);
        let live = run_case(&case);
        assert!(!live.trace.is_empty(), "storm seed injected nothing");
        let scripted = plane_of(&events_of(&live.plane, &live.trace));
        let replay = run_with_plane(&case, scripted);
        assert_eq!(replay.digest, live.digest);
        assert_eq!(replay.verdict.ok, live.verdict.ok);
    }

    #[test]
    fn small_sweep_with_delivery_layer_has_zero_violations() {
        let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
        let out = sweep(&scenarios, Profile::all(), 0..3, true);
        assert_eq!(out.runs, 75);
        assert!(
            out.violations.is_empty(),
            "violations: {:?}",
            out.violations.iter().map(|v| format!("{}: {}", v.case.label(), v.reason)).collect::<Vec<_>>()
        );
        assert!(out.committed > 0, "some runs should commit");
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        use axml_obs::render_prometheus;
        // `fig1-crash` and `Storage` put the WAL (seeded storage faults,
        // crash recovery) under the byte-identity bar too: thread
        // placement must never leak into digests, snapshots, or
        // histograms.
        let scenarios: Vec<String> = vec!["fig1".into(), "deep".into(), "fig1-crash".into()];
        let profiles = [Profile::Mixed, Profile::Storm, Profile::Storage];
        let serial = sweep_jobs(&scenarios, &profiles, 0..3, true, 1);
        for jobs in [2, 8] {
            let par = sweep_jobs(&scenarios, &profiles, 0..3, true, jobs);
            assert_eq!(par.runs, serial.runs);
            assert_eq!(par.committed, serial.committed);
            assert_eq!(par.aborted, serial.aborted);
            assert_eq!(par.digest, serial.digest, "jobs={jobs}");
            assert_eq!(par.snapshot, serial.snapshot, "jobs={jobs}");
            assert_eq!(par.snapshot.render(), serial.snapshot.render());
            assert_eq!(par.histograms, serial.histograms, "jobs={jobs}");
            assert_eq!(render_prometheus(&par.histograms), render_prometheus(&serial.histograms));
            assert_eq!(par.series, serial.series, "jobs={jobs}: gauge series merge is order-free");
            assert_eq!(par.series.to_json(), serial.series.to_json());
            assert_eq!(par.phase_histograms, serial.phase_histograms, "jobs={jobs}");
            assert_eq!(par.findings, serial.findings, "jobs={jobs}");
            assert_eq!(par.violations.len(), serial.violations.len());
        }
        assert!(serial.histograms.values().any(|h| h.count() > 0), "traced sweep derives latency samples");
        assert!(!serial.series.is_empty(), "traced sweep samples gauge series");
        assert!(serial.series.series.contains_key("outbox_depth"), "peer gauges reach the series plane");
        assert!(
            serial.phase_histograms.get("txn_total").is_some_and(|h| h.count() > 0),
            "phase profiler derives transaction totals"
        );
        assert!(serial.snapshot.get("net.sent") > 0, "merged snapshot aggregates counters");
    }

    #[test]
    fn crash_restart_rebuilds_state_from_wal_segments() {
        // fig1-crash with no message faults at all: AP3 dies while
        // compensating its completed subtree, and its restart rebuilds
        // the mid-compensation state purely from its WAL segments
        // (`set_durability_sink` replaced the default sink before the
        // run, and `crash_recover` reloads the journal from the sink's
        // recovery scan — there is no in-memory clone path left). The
        // oracle, the online monitor, and the spec gate must all pass,
        // and every participant's document must equal the baseline.
        let mut recovered_somewhere = false;
        for seed in 0..4 {
            let case = CaseConfig::new("fig1-crash", Profile::Drops, seed);
            let plane = FaultPlane::probabilistic(case.seed, 0.0, 0.0, 0.0, 0.0);
            let (result, _dump) = run_with_plane_traced(&case, plane);
            assert!(result.verdict.ok, "seed {seed}: {}", result.verdict.reason);
            assert_eq!(result.committed, Some(false), "seed {seed}: fig1-crash aborts");
            assert!(result.conformance.expect("traced").is_clean());
            assert_eq!(result.stats[&PeerId(3)].crash_recoveries, 1, "seed {seed}: AP3 crash-restarted");
            if result.wal.recovery_entries > 0 {
                recovered_somewhere = true;
            }
        }
        assert!(recovered_somewhere, "at least one seed must recover journal entries from its segments");
    }

    #[test]
    fn storage_profile_sweep_is_clean_and_exercises_the_wal() {
        // The storage fault profile — torn appends, sync failures, crash
        // garbage — swept under the full gate: zero atomicity
        // violations, zero monitor findings, zero conformance breaks,
        // while the `wal.*` counters prove the faults actually fired and
        // recovery actually ran.
        let scenarios: Vec<String> = vec!["fig1".into(), "fig1-crash".into()];
        let out = sweep(&scenarios, &[Profile::Storage], 0..4, true);
        assert_eq!(out.runs, 8);
        assert!(
            out.violations.is_empty(),
            "violations: {:?}",
            out.violations.iter().map(|v| format!("{}: {}", v.case.label(), v.reason)).collect::<Vec<_>>()
        );
        assert!(out.findings.is_empty(), "monitor findings: {:?}", out.findings);
        assert!(out.snapshot.get("wal.bytes_appended") > 0, "WAL appends happened");
        assert!(out.snapshot.get("wal.recovery_entries") > 0, "crash recovery replayed logged entries");
        assert!(out.snapshot.get("wal.append_faults") > 0, "storage faults fired somewhere in the sweep");
    }

    #[test]
    fn parallel_sweep_reproduces_violations_with_shrunk_reproducers() {
        // The broken no-dedup variant under duplication: both the serial
        // and the 8-way sweep must catch the same violating cells, in
        // the same canonical order, with identical reproducers.
        let scenarios: Vec<String> = vec!["fig1".into()];
        let serial = sweep_jobs(&scenarios, &[Profile::Dups], 0..12, false, 1);
        let par = sweep_jobs(&scenarios, &[Profile::Dups], 0..12, false, 8);
        assert!(!serial.violations.is_empty(), "no-dedup under dups must violate somewhere in 12 seeds");
        assert_eq!(par.violations.len(), serial.violations.len());
        assert_eq!(par.digest, serial.digest);
        for (a, b) in serial.violations.iter().zip(&par.violations) {
            assert_eq!(a.case.label(), b.case.label());
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.reproducer, b.reproducer);
        }
    }

    #[test]
    fn broken_dedup_under_duplication_is_caught_and_shrunk() {
        // With duplicate suppression disabled, a duplicated Result makes
        // the consumer abort an already-answered invocation — a committed
        // transaction with a silently aborted participant. The oracle
        // must catch at least one such seed, and the shrinker must
        // produce a minimal scripted schedule that still fails.
        let mut caught = None;
        for seed in 0..40 {
            let mut case = CaseConfig::new("fig1", Profile::Dups, seed);
            case.dedup = false;
            let result = run_case(&case);
            if !result.verdict.ok {
                caught = Some((case, result));
                break;
            }
        }
        let (case, result) = caught.expect("oracle never caught the broken variant in 40 seeds");
        let full = events_of(&result.plane, &result.trace);
        let repro = shrink_failure(&case, &result).expect("trace replay reproduces the violation");
        assert!(!run_with_plane(&case, repro.clone()).verdict.ok, "shrunk schedule still fails");
        let kept = repro.script.len() + repro.partitions.len() + repro.crashes.len();
        assert!(kept <= full.len(), "shrinking never grows the schedule");
        assert!(kept >= 1, "a violation needs at least one fault");
        // The reproducer is printable, RNG-free JSON.
        let text = serde_json::to_string(&repro).expect("serializable");
        let back: FaultPlane = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back, repro);
        assert_eq!(back.drop_prob, 0.0);
        assert_eq!(back.dup_prob, 0.0);
    }

    #[test]
    fn violations_carry_a_flight_recorder_dump() {
        // A violating run (broken no-dedup under duplication) dumps each
        // peer's last events from its traced journal, and the dump
        // survives the corpus round trip: a `CorpusEntry` built from the
        // violation embeds it, serializes it, and a replay via
        // `replay_with_flight` regenerates it. A clean replay dumps nothing.
        let mut caught = None;
        for seed in 0..40 {
            let mut case = CaseConfig::new("fig1", Profile::Dups, seed);
            case.dedup = false;
            let result = run_case(&case);
            if !result.verdict.ok {
                caught = Some((case, result));
                break;
            }
        }
        let (case, result) = caught.expect("oracle never caught the broken variant in 40 seeds");
        let (traced, dump) = run_with_plane_traced(&case, result.plane.clone());
        assert!(!traced.verdict.ok, "the traced run violates too");
        let flight = dump.flight();
        assert!(flight.starts_with("flight recorder: last <="), "dump has the header: {flight}");
        assert!(flight.contains("-- AP"), "dump has per-peer sections: {flight}");

        let entry_of = |case: &CaseConfig, expect: &str, plane: FaultPlane, flight| CorpusEntry {
            note: "test".into(),
            expect: expect.into(),
            scenario: case.scenario.clone(),
            profile: case.profile.name().to_string(),
            seed: case.seed,
            dedup: case.dedup,
            plane,
            flight,
        };
        let entry = entry_of(&case, "violation", result.plane.clone(), Some(flight));
        let text = serde_json::to_string(&entry).expect("serializable");
        let back: CorpusEntry = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back.flight, entry.flight, "flight dump survives the corpus round trip");
        let (verdict, replay_flight) = back.replay_with_flight();
        assert!(verdict.is_ok(), "entry still reproduces: {verdict:?}");
        assert_eq!(replay_flight, entry.flight, "a deterministic replay regenerates the same dump");

        let clean = CaseConfig::new("fig1", Profile::Drops, 0);
        let plane = plane_for(clean.profile, clean.seed, &builder_of(&clean).peers());
        assert_eq!(
            entry_of(&clean, "pass", plane, None).replay_with_flight(),
            (Ok(()), None),
            "clean runs dump nothing"
        );
    }

    #[test]
    fn violations_ship_a_journal_that_parses_and_a_tree_that_renders() {
        // The `shrink-demo` case: the first no-dedup Fig. 1 seed under
        // duplication that the oracle catches. Its violation report keeps
        // the shrunk run's journal, and renders it only when asked.
        let seed = (0..64)
            .find(|&seed| {
                let mut case = CaseConfig::new("fig1", Profile::Dups, seed);
                case.dedup = false;
                !run_case(&case).verdict.ok
            })
            .expect("the broken variant is caught");
        let out = sweep(&["fig1".to_string()], &[Profile::Dups], seed..seed + 1, false);
        let dump = out.violations[0].trace.as_ref().expect("the shrunk run was replayed traced");
        let lines = dump.journal.to_json_lines();
        assert_eq!(TraceJournal::from_json_lines(&lines).expect("the journal parses"), dump.journal);
        let tree = dump.journal.render_tree();
        assert!(tree.contains("span inv1."), "{tree}");
        assert_eq!(dump.histograms, derive_histograms(&dump.journal));
    }

    #[test]
    fn duplicate_storm_keeps_the_dedup_set_bounded() {
        // Heavy duplication at the default capacity, which the storm never
        // reaches: the finalize-time prune alone must empty every peer's
        // seen-set of the committed transaction's entries, while the
        // high-water mark records the worst the storm managed.
        let mut b = builder_for("fig1").expect("known scenario");
        b.seed = 1009;
        let plane = FaultPlane::probabilistic(9, 0.0, 0.5, 0.0, 0.0);
        let mut s = b.fault_plane(plane).build();
        let report = s.run();
        assert!(report.outcome.expect("resolved").committed);
        let mut suppressed = 0;
        let mut peak = 0;
        for &p in &s.participants {
            let actor = s.sim.actor(p);
            assert_eq!(actor.seen_deliveries_len(), 0, "AP{} dedup set not pruned after the commit", p.0);
            suppressed += actor.stats.dup_suppressed;
            peak = peak.max(actor.stats.seen_peak);
        }
        assert!(suppressed > 0, "the storm should have forced suppressions");
        assert!(peak > 0, "the high-water mark should have registered");
    }

    #[test]
    fn traced_replay_of_a_shrunk_reproducer_is_byte_identical() {
        // The acceptance bar for the trace layer: take a real shrunk
        // reproducer, replay it traced twice, and require the journals
        // to match byte for byte.
        let mut caught = None;
        for seed in 0..40 {
            let mut case = CaseConfig::new("fig1", Profile::Dups, seed);
            case.dedup = false;
            let result = run_case(&case);
            if !result.verdict.ok {
                caught = Some((case, result));
                break;
            }
        }
        let (case, result) = caught.expect("no violation found to shrink");
        let plane = shrink_failure(&case, &result).expect("trace replay reproduces");
        let (ra, da) = run_with_plane_traced(&case, plane.clone());
        let (rb, db) = run_with_plane_traced(&case, plane);
        assert!(!da.journal.is_empty());
        assert_eq!(da.journal.to_json_lines(), db.journal.to_json_lines(), "traced replays must be byte-identical");
        assert_eq!(da.journal.render_tree(), db.journal.render_tree());
        assert_eq!(ra.snapshot().render(), rb.snapshot().render());
        assert_eq!(ra.digest, rb.digest);
        // Tracing is observation only: same digest as the untraced run.
        assert_eq!(ra.digest, run_with_plane(&case, rb.plane).digest);
    }

    /// The journal of Fig. 1 with S2 slow and faulty, and a copy with
    /// AP3's first two `CompensateOp` events swapped: an undo in forward
    /// log order. The whole AP3 subtree completes first, so AP3 holds
    /// several forward log records (child materializations plus its own
    /// update) when the abort arrives — giving §3.1's reverse-order rule an
    /// actual order to check.
    fn swapped_compensation_journals() -> (TraceJournal, TraceJournal) {
        let mut b = ScenarioBuilder::fig1().fault_at(2).traced();
        b.seed = 1000;
        b.durations.insert(2, 60);
        b.config.use_alternative_providers = false;
        let mut s = b.build();
        let report = s.run();
        assert_eq!(report.outcome.map(|o| o.committed), Some(false), "fig1-abort aborts");
        let clean = s.sim.take_trace().expect("traced run");
        let mut entries: Vec<TraceEvent> = clean.iter().cloned().collect();
        let ops: Vec<usize> = (0..entries.len())
            .filter(|&i| entries[i].peer == 3 && matches!(entries[i].kind, EventKind::CompensateOp { .. }))
            .take(2)
            .collect();
        let [first, second] = ops[..] else { panic!("AP3 undoes fewer than two records") };
        let (head, tail) = entries.split_at_mut(second);
        std::mem::swap(&mut head[first].kind, &mut tail[0].kind);
        let mut swapped = TraceJournal::default();
        for e in entries {
            swapped.record(e.at, e.peer, e.epoch, e.txn, e.span, e.parent, e.kind);
        }
        (clean, swapped)
    }

    #[test]
    fn monitor_catches_out_of_order_compensation() {
        // The online monitor's rule M001 (§3.1 reverse order) must flag
        // the swapped undo, and stay silent on the undo the peer ran.
        let (clean, swapped) = swapped_compensation_journals();
        let findings = Monitor::replay(&clean);
        assert!(findings.is_empty(), "correct peer must be monitor-clean: {findings:?}");
        let findings = Monitor::replay(&swapped);
        assert!(
            findings.iter().any(|f| f.rule.monitor_id() == "M001"),
            "forward-order compensation must trigger M001: {findings:?}"
        );
    }

    #[test]
    fn spec_conformance_rides_traced_runs() {
        // Clean traced case: the journal conforms to the reference model
        // and the verdict stays clean.
        let case = CaseConfig::new("fig1", Profile::Mixed, 3);
        let b = builder_for("fig1").expect("known scenario");
        let plane = plane_for(Profile::Mixed, 3, &b.peers());
        let (result, _dump) = run_with_plane_traced(&case, plane);
        let conf = result.conformance.as_ref().expect("traced runs carry a conformance verdict");
        assert!(conf.is_clean(), "{}", conf.render_text());
        assert!(conf.events > 0);
        assert!(result.verdict.ok, "{}", result.verdict.reason);
        // Untraced runs have no journal to check.
        assert!(run_case(&case).conformance.is_none());
    }

    #[test]
    fn spec_conformance_refutes_forward_order_compensation() {
        // The same swapped journal as the monitor test above, checked by
        // replaying it against the reference model: M001 surfaces as
        // invariant I2 / rule R08, and the monitor and the spec must agree
        // on the offending event.
        let (clean, swapped) = swapped_compensation_journals();
        let conf = axml_spec::check_journal(&clean);
        assert!(conf.is_clean(), "correct peer must conform: {}", conf.render_text());
        let findings = Monitor::replay(&swapped);
        let conf = axml_spec::check_journal(&swapped);
        let m = findings.iter().find(|f| f.rule.monitor_id() == "M001").expect("M001 finding");
        let d = conf.divergences.iter().find(|d| d.invariant == "I2").expect("I2 divergence");
        assert_eq!((d.seq, d.at, d.peer), (m.seq, m.at, m.peer), "monitor and spec disagree on the offender");
        assert_eq!(d.rule, "R08");
        assert!(!d.context.is_empty(), "divergence must carry causal context");
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(builder_for("nope").is_none());
        for s in SCENARIOS {
            assert!(builder_for(s).is_some(), "{s}");
        }
    }
}
