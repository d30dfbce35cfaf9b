//! Executable reproductions of the paper's figures, plus a general
//! invocation-tree scenario builder used by tests, examples and benches.
//!
//! - **Fig. 1** (nested recovery): `AP1 → {AP2, AP3}`, `AP3 → {AP4, AP5}`,
//!   `AP5 → AP6`; AP5 fails while processing S5.
//! - **Fig. 2** (peer disconnection): `AP1* → AP2 → {AP3 → AP6,
//!   AP4 → AP5}` with scenarios (a)–(d).
//!
//! Each peer `k` hosts document `d{k}` and service `S{k}`. Documents embed
//! `axml:sc` calls to the child peers of the tree; services are queries or
//! updates over the hosted document whose (lazy) evaluation requires those
//! embedded calls — so a transaction submitted at the origin naturally
//! unfolds into the paper's invocation tree.

use crate::context::{TxnOutcome, TxnState};
use crate::durability::WalStats;
use crate::ids::TxnId;
use crate::messages::TxnMsg;
use crate::peer::{AxmlPeer, PeerConfig, PeerCounters, PeerStats, WsdlCatalog};
use axml_doc::Fault;
use axml_p2p::{Directory, FaultPlane, NetMetrics, PeerId, Sim, SimConfig, Snapshot, TraceJournal, TraceSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of service each peer exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flavor {
    /// Query services (`Select v//out from v in d`): effects come from
    /// materialization only.
    #[default]
    Query,
    /// Update services (replace the `slot` element): effects come from
    /// the update *and* materialization.
    Update,
}

/// Declarative description of an invocation-tree scenario.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Invocation edges `(parent, child)`; the tree root is `origin`.
    pub edges: Vec<(u32, u32)>,
    /// The origin peer.
    pub origin: u32,
    /// Super peers.
    pub supers: Vec<u32>,
    /// Template configuration applied to every peer.
    pub config: PeerConfig,
    /// Service flavor.
    pub flavor: Flavor,
    /// Simulator seed.
    pub seed: u64,
    /// Service processing durations (defaults to 5).
    pub durations: BTreeMap<u32, u64>,
    /// Inject a fault into this peer's service (it fails *while
    /// processing*, i.e. after its own sub-invocations completed).
    pub inject_fault: Option<u32>,
    /// Fault handlers: `(peer, child, handler-xml)` attached to the
    /// `axml:sc` element in `peer`'s document that targets `child`.
    pub handlers: Vec<(u32, u32, String)>,
    /// Replicas: `(of, replica)` — peer `replica` hosts a copy of
    /// `d{of}` and provides `S{of}`.
    pub replicas: Vec<(u32, u32)>,
    /// Scheduled disconnects `(time, peer)`.
    pub disconnects: Vec<(u64, u32)>,
    /// Scheduled reconnects `(time, peer)`.
    pub reconnects: Vec<(u64, u32)>,
    /// When the transaction is submitted — or, if the origin is offline
    /// then, when it comes back.
    pub submit_at: u64,
    /// Hard stop for the simulation.
    pub deadline: u64,
    /// Fault schedule for the simulated network (inert by default, so
    /// scenarios not opting in are byte-for-byte unaffected).
    pub fault: FaultPlane,
    /// Collect a lifecycle-event journal for the run (off by default:
    /// untraced runs pay nothing, and replays stay byte-identical).
    pub trace: bool,
    /// Gauge-sampling window width in sim-time units (0 = off, the
    /// default). Forwarded to [`SimConfig::sample_interval`]; only
    /// meaningful on traced runs: samples go to the journal alone.
    pub sample_interval: u64,
    /// Per-link delivery batching (on by default). Forwarded to
    /// [`SimConfig::batch_links`]; a pure queue optimization, exposed
    /// here so tests can prove runs are byte-identical either way.
    pub batch_links: bool,
}

impl ScenarioBuilder {
    /// A scenario over the given invocation tree.
    pub fn new(origin: u32, edges: &[(u32, u32)]) -> ScenarioBuilder {
        ScenarioBuilder {
            edges: edges.to_vec(),
            origin,
            supers: Vec::new(),
            config: PeerConfig::default(),
            flavor: Flavor::Update,
            seed: 7,
            durations: BTreeMap::new(),
            inject_fault: None,
            handlers: Vec::new(),
            replicas: Vec::new(),
            disconnects: Vec::new(),
            reconnects: Vec::new(),
            submit_at: 0,
            deadline: 100_000,
            fault: FaultPlane::default(),
            trace: false,
            sample_interval: 0,
            batch_links: true,
        }
    }

    /// The paper's Fig. 1 tree: AP1 → {AP2, AP3}, AP3 → {AP4, AP5},
    /// AP5 → AP6.
    pub fn fig1() -> ScenarioBuilder {
        ScenarioBuilder::new(1, &[(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
    }

    /// The paper's Fig. 2 tree: AP1* → AP2, AP2 → {AP3, AP4}, AP3 → AP6,
    /// AP4 → AP5 (AP1 is a super peer).
    pub fn fig2() -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(1, &[(1, 2), (2, 3), (2, 4), (3, 6), (4, 5)]);
        b.supers.push(1);
        b
    }

    /// Builder: service flavor.
    pub fn flavor(mut self, flavor: Flavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Builder: mark a peer as a super peer.
    pub fn super_peer(mut self, peer: u32) -> Self {
        if !self.supers.contains(&peer) {
            self.supers.push(peer);
        }
        self
    }

    /// Builder: service processing duration for one peer.
    pub fn duration(mut self, peer: u32, ticks: u64) -> Self {
        self.durations.insert(peer, ticks);
        self
    }

    /// Builder: simulator latency seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: hard stop for the simulation.
    pub fn deadline(mut self, deadline: u64) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builder: peer configuration template.
    pub fn config(mut self, config: PeerConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: inject a processing fault at a peer.
    pub fn fault_at(mut self, peer: u32) -> Self {
        self.inject_fault = Some(peer);
        self
    }

    /// Builder: disconnect a peer at a time.
    pub fn disconnect(mut self, at: u64, peer: u32) -> Self {
        self.disconnects.push((at, peer));
        self
    }

    /// Builder: reconnect a peer at a time.
    pub fn reconnect(mut self, at: u64, peer: u32) -> Self {
        self.reconnects.push((at, peer));
        self
    }

    /// Builder: fault schedule for the simulated network (drops,
    /// duplication, reordering, spikes, partitions, crash-restarts).
    pub fn fault_plane(mut self, fault: FaultPlane) -> Self {
        self.fault = fault;
        self
    }

    /// Builder: collect a transaction-lifecycle trace journal.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder: sample per-peer gauges every `interval` sim-time units
    /// (the time-series plane; 0 turns sampling off).
    pub fn sampled(mut self, interval: u64) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Builder: add a replica of peer `of`'s document/service hosted on a
    /// fresh peer; returns its id.
    pub fn with_replica(mut self, of: u32) -> (Self, u32) {
        let max = self
            .edges
            .iter()
            .flat_map(|(a, b)| [*a, *b])
            .chain(self.replicas.iter().map(|(_, r)| *r))
            .chain([self.origin])
            .max()
            .unwrap_or(0);
        let replica = max + 1;
        self.replicas.push((of, replica));
        (self, replica)
    }

    /// Builder: attach an `axml:retry` handler on `peer`'s call to `child`.
    pub fn retry_handler(mut self, peer: u32, child: u32, fault_name: Option<&str>, times: u32, wait: u64) -> Self {
        let open = match fault_name {
            Some(f) => format!(r#"<axml:catch faultName="{f}">"#),
            None => "<axml:catchAll>".to_string(),
        };
        let close = match fault_name {
            Some(_) => "</axml:catch>",
            None => "</axml:catchAll>",
        };
        self.handlers.push((peer, child, format!(r#"{open}<axml:retry times="{times}" wait="{wait}"/>{close}"#)));
        self
    }

    /// Builder: attach a substitution handler (forward recovery with a
    /// default value) on `peer`'s call to `child`.
    pub fn substitute_handler(mut self, peer: u32, child: u32, fault_name: Option<&str>) -> Self {
        let open = match fault_name {
            Some(f) => format!(r#"<axml:catch faultName="{f}">"#),
            None => "<axml:catchAll>".to_string(),
        };
        let close = match fault_name {
            Some(_) => "</axml:catch>",
            None => "</axml:catchAll>",
        };
        self.handlers.push((peer, child, format!(r#"{open}<out>substituted-{peer}-{child}</out>{close}"#)));
        self
    }

    /// The children `peer` invokes, in edge order. Public so static
    /// analysis can walk the planned invocation tree without building the
    /// simulator.
    pub fn children_of(&self, peer: u32) -> Vec<u32> {
        self.edges.iter().filter(|(p, _)| *p == peer).map(|(_, c)| *c).collect()
    }

    /// Every peer the scenario involves (tree peers plus replicas),
    /// sorted and deduplicated.
    pub fn peers(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .edges
            .iter()
            .flat_map(|(a, b)| [*a, *b])
            .chain([self.origin])
            .chain(self.replicas.iter().map(|(_, r)| *r))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The AXML document hosted by `peer`: its own data plus one
    /// `axml:sc` call (with any attached handlers) per invoked child.
    pub fn doc_xml(&self, peer: u32) -> String {
        let mut xml = format!("<d><slot>initial-{peer}</slot><out>base-{peer}</out>");
        for child in self.children_of(peer) {
            let _ = write!(
                xml,
                r#"<axml:sc mode="replace" serviceNameSpace="S{child}" serviceURL="peer://ap{child}" methodName="S{child}">"#
            );
            for (_, _, handler) in self.handlers.iter().filter(|(p, c, _)| *p == peer && *c == child) {
                xml.push_str(handler);
            }
            xml.push_str("</axml:sc>");
        }
        xml.push_str("</d>");
        xml
    }

    /// The active-peer list this scenario unfolds into when every
    /// invocation succeeds: the invocation tree reachable from the origin,
    /// with super peers marked. Replicas are excluded — they join only
    /// during recovery. Unreachable edges are simply not part of the
    /// chain (the well-formedness lints flag them).
    pub fn planned_chain(&self) -> crate::chain::ActiveList {
        let mut chain = crate::chain::ActiveList::new(PeerId(self.origin), self.supers.contains(&self.origin));
        let mut seen = std::collections::BTreeSet::from([self.origin]);
        let mut queue = std::collections::VecDeque::from([self.origin]);
        while let Some(p) = queue.pop_front() {
            for c in self.children_of(p) {
                if seen.insert(c) {
                    chain.add_invocation(PeerId(p), PeerId(c), self.supers.contains(&c));
                    queue.push_back(c);
                }
            }
        }
        chain
    }

    /// The flavor's service query — the same for every peer, so
    /// [`Self::build`] parses it once.
    fn service_query(&self) -> axml_query::SelectQuery {
        axml_query::SelectQuery::parse(match self.flavor {
            Flavor::Query => "Select v//out from v in d",
            // The location query needs `out` data, so lazy evaluation
            // materializes the embedded calls; the written element is
            // named `done` so children's materialized results never
            // collide with the parent's own `slot` target.
            Flavor::Update => "Select v/slot from v in d where exists v//out",
        })
        .expect("static query")
    }

    fn service_for(&self, peer: u32, query: &axml_query::SelectQuery) -> axml_doc::ServiceDef {
        let doc = format!("d{peer}");
        match self.flavor {
            Flavor::Query => axml_doc::ServiceDef::query(format!("S{peer}"), doc, query.clone()).with_results(&["out"]),
            Flavor::Update => {
                let action = axml_query::UpdateAction::replace(
                    axml_query::Locator::Select(query.clone()),
                    vec![axml_xml::Fragment::elem_text("done", format!("done-{peer}"))],
                );
                axml_doc::ServiceDef::update(format!("S{peer}"), doc, action).with_results(&["done"])
            }
        }
    }

    /// Builds the simulator and supporting state.
    pub fn build(self) -> Scenario {
        let peers = self.peers();
        let sim_config = self.sim_config();
        debug_assert_eq!(self.config.check_timing(sim_config.latency.max), Ok(()));
        let mut sim = Sim::new(sim_config, self.actors(&peers));
        for &s in &self.supers {
            sim.mark_super(PeerId(s));
        }
        for &(at, p) in &self.disconnects {
            sim.schedule_disconnect(at, PeerId(p));
        }
        for &(at, p) in &self.reconnects {
            sim.schedule_reconnect(at, PeerId(p));
        }
        // Submission.
        let origin = PeerId(self.origin);
        sim.actor_mut(origin).auto_submit = Some((format!("S{}", self.origin), vec![]));
        let submit_at = self.submit_time();
        // A crash-restart kills every timer set before it, the harness's
        // too: an origin that crash-restarts at or before its submit time
        // has the timer set by `Scenario::run` once its last such restart
        // has happened.
        let restart = self.fault.crashes.iter().filter(|c| c.peer == origin && c.at <= submit_at).map(|c| c.at).max();
        if restart.is_none() {
            sim.schedule_timer(submit_at, origin, 0);
        }
        // Baseline snapshot for atomicity checking.
        let baseline = peers
            .iter()
            .map(|&p| {
                let docs = sim.actor(PeerId(p)).repo.iter().map(|(name, doc)| (name.to_string(), doc.to_xml()));
                (PeerId(p), docs.collect())
            })
            .collect();
        Scenario {
            sim,
            origin,
            participants: peers.iter().map(|p| PeerId(*p)).collect(),
            baseline,
            deadline: self.deadline,
            submit_after_restart: restart.map(|restart| (restart, submit_at)),
        }
    }

    /// When the origin submits: at `submit_at`, unless it is offline then
    /// and comes back later, in which case at its return. The simulator
    /// drops a timer that comes due on an offline peer, and the submit
    /// timer is the harness's, which no reconnect of the peer's re-arms.
    /// Every churn event is set before the submit timer, so at one tick
    /// the churn goes first — disconnects before reconnects.
    fn submit_time(&self) -> u64 {
        if self.supers.contains(&self.origin) {
            return self.submit_at;
        }
        // The origin's churn as `(time, back online)`, in the order it runs.
        let downs = self.disconnects.iter().map(|&(at, p)| (at, p, false));
        let ups = self.reconnects.iter().map(|&(at, p)| (at, p, true));
        let mut churn: Vec<(u64, bool)> =
            downs.chain(ups).filter(|(_, p, _)| *p == self.origin).map(|(at, _, up)| (at, up)).collect();
        churn.sort_by_key(|(at, _)| *at);
        let (before, after): (Vec<_>, Vec<_>) = churn.into_iter().partition(|(at, _)| *at <= self.submit_at);
        match before.last() {
            Some((_, false)) => after.into_iter().find(|(_, up)| *up).map_or(self.submit_at, |(at, _)| at),
            _ => self.submit_at,
        }
    }

    /// The simulator configuration the scenario runs under.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            fault: self.fault.clone(),
            trace: if self.trace { TraceSink::Memory } else { TraceSink::Disabled },
            sample_interval: self.sample_interval,
            batch_links: self.batch_links,
            ..Default::default()
        }
    }

    /// The scenario's peers, indexed by id, each hosting its documents
    /// and services (ids the tree does not use get an empty peer).
    fn actors(&self, peers: &[u32]) -> Vec<AxmlPeer> {
        let n = peers.iter().max().copied().unwrap_or(0) as usize + 1;
        // Shared fabric knowledge.
        let mut wsdl = WsdlCatalog::default();
        let mut directory = Directory::new();
        for &p in peers {
            let result = match self.flavor {
                Flavor::Query => "out",
                Flavor::Update => "slot",
            };
            wsdl.publish(format!("S{p}"), &[result]);
            directory.add_service_provider(format!("S{p}"), PeerId(p));
            directory.add_doc_replica(format!("d{p}"), PeerId(p));
        }
        for &(of, replica) in &self.replicas {
            directory.add_service_provider(format!("S{of}"), PeerId(replica));
            directory.add_doc_replica(format!("d{of}"), PeerId(replica));
        }
        // Actors.
        let query = self.service_query();
        let mut actors = Vec::with_capacity(n);
        for idx in 0..n as u32 {
            let mut config = self.config.clone();
            config.is_super = self.supers.contains(&idx);
            let mut peer = AxmlPeer::on_fabric(PeerId(idx), config, directory.clone(), wsdl.clone());
            if peers.contains(&idx) {
                let serves: Vec<u32> = std::iter::once(idx)
                    .filter(|i| self.edges.iter().any(|(a, b)| a == i || b == i) || *i == self.origin)
                    .chain(self.replicas.iter().filter(|(_, r)| *r == idx).map(|(of, _)| *of))
                    .collect();
                for of in serves {
                    peer.repo.put_xml(format!("d{of}"), &self.doc_xml(of)).expect("scenario doc parses");
                    let mut def = self.service_for(of, &query);
                    if let Some(d) = self.durations.get(&of) {
                        def.duration = *d;
                    } else {
                        def.duration = 5;
                    }
                    if self.inject_fault == Some(idx) && of == idx {
                        def.injected_fault = Some(Fault::injected(format!("S{of} fails while processing")));
                    }
                    peer.registry.register(def);
                }
            }
            actors.push(peer);
        }
        actors
    }
}

/// Names typed run counters: the one place a counter registry is built.
/// `net.*` from `net`, `peer.<k>.*` from each `(peer, row)`, and five
/// `wal.*` totals from `wal`. [`Scenario::snapshot`] renders one run this
/// way; a sweep merges the typed counters of its cases and renders once.
pub fn render_counters(
    net: &NetMetrics,
    peers: impl ExactSizeIterator<Item = (PeerId, PeerCounters)>,
    wal: &WalStats,
) -> Snapshot {
    let mut pairs = Vec::with_capacity(64 + PeerCounters::NAMES.len() * peers.len());
    net.counters_into(&mut pairs);
    for (p, row) in peers {
        row.counters_into(p, &mut pairs);
    }
    pairs.extend(
        [
            ("wal.append_faults", wal.append_faults),
            ("wal.bytes_appended", wal.bytes_appended),
            ("wal.recovery_entries", wal.recovery_entries),
            ("wal.segments_rotated", wal.segments_rotated),
            ("wal.torn_tails_discarded", wal.torn_tails_discarded),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    // Every name is distinct, so collecting is one sort of a nearly
    // sorted list and one bulk tree build — not a tree insertion per
    // counter.
    Snapshot { counters: pairs.into_iter().collect() }
}

/// A built scenario, ready to run.
pub struct Scenario {
    /// The simulator (public: tests drive it directly when needed).
    pub sim: Sim<TxnMsg, AxmlPeer>,
    /// The origin peer.
    pub origin: PeerId,
    /// All participating peers (including replicas).
    pub participants: Vec<PeerId>,
    /// Every participant's `(name, xml)` before the transaction, by name.
    baseline: BTreeMap<PeerId, Vec<(String, String)>>,
    deadline: u64,
    /// `(restart, at)`: the origin crash-restarts at `restart`, at or
    /// before its submit time `at`, so the submit timer is set after it.
    submit_after_restart: Option<(u64, u64)>,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The transaction (if the origin submitted one).
    pub txn: Option<TxnId>,
    /// The origin-side outcome (None if unresolved by the deadline).
    pub outcome: Option<TxnOutcome>,
    /// Network counters.
    pub metrics: NetMetrics,
    /// True if the all-or-nothing check holds (see
    /// [`Scenario::atomicity_holds`]).
    pub atomic: bool,
    /// Per-peer stats, indexed by peer id.
    pub stats: BTreeMap<PeerId, PeerStats>,
    /// Final logical time.
    pub finished_at: u64,
}

impl Scenario {
    /// Runs to quiescence (or the deadline) and reports.
    pub fn run(&mut self) -> ScenarioReport {
        if let Some((restart, at)) = self.submit_after_restart.take() {
            self.sim.run_until(restart);
            self.sim.schedule_timer(at, self.origin, 0);
        }
        let finished_at = self.sim.run_until(self.deadline);
        let outcome = self.sim.actor(self.origin).outcomes.first().cloned();
        let txn = outcome.as_ref().map(|o| o.txn).or_else(|| self.root_txn());
        let atomic = self.atomicity_holds();
        let mut stats = BTreeMap::new();
        for &p in &self.participants {
            stats.insert(p, self.sim.actor(p).stats.clone());
        }
        ScenarioReport { txn, outcome, metrics: self.sim.metrics().clone(), atomic, stats, finished_at }
    }

    /// The origin's root transaction: the least transaction id *originated
    /// at the origin* whose context has no parent. This is the
    /// deterministic fallback for [`ScenarioReport::txn`] when the origin
    /// never recorded an outcome — `known_txns()` can also hold contexts
    /// the origin merely served for other peers, and those sort first
    /// whenever the serving peer's id is lower, so "first known txn" was
    /// an arbitrary set-ordered pick, not the submitted transaction.
    fn root_txn(&self) -> Option<TxnId> {
        let actor = self.sim.actor(self.origin);
        actor
            .known_txns()
            .into_iter()
            .filter(|t| t.origin == self.origin)
            .filter(|t| actor.context(*t).is_some_and(|c| c.parent.is_none()))
            .min()
    }

    /// The all-or-nothing check:
    ///
    /// - committed → every *connected* participant context is `Committed`;
    /// - aborted → every connected participant's documents equal the
    ///   pre-transaction baseline (compensation really undid everything);
    /// - unresolved → not atomic.
    ///
    /// Disconnected peers are excluded: the paper is explicit that "it
    /// might not be possible to guarantee atomicity as long as peer
    /// disconnection is possible" — the Spheres-of-Atomicity experiment
    /// (E8) quantifies exactly this by comparing against
    /// [`crate::spheres::sphere_guarantees_atomicity`].
    pub fn atomicity_holds(&self) -> bool {
        let origin = self.sim.actor(self.origin);
        let Some(outcome) = origin.outcomes.first() else { return false };
        if outcome.committed {
            // Committed: no connected participant may hold *aborted yet
            // divergent* state (compensation must have run wherever an
            // abort was decided). A context still `Active` is tolerated:
            // its effects are part of the committed outcome; the peer
            // merely has not heard the decision (possible when the
            // committing chain is cut by disconnections and chaining is
            // off — one more benefit chaining buys, measured in E6).
            self.participants.iter().all(|&p| {
                if !self.sim.is_connected(p) {
                    return true;
                }
                let actor = self.sim.actor(p);
                let any_aborted = actor
                    .known_txns()
                    .iter()
                    .any(|t| actor.context(*t).map(|c| c.state == TxnState::Aborted).unwrap_or(false));
                if any_aborted {
                    self.peer_matches_baseline(p)
                } else {
                    true
                }
            })
        } else {
            self.participants.iter().all(|&p| !self.sim.is_connected(p) || self.peer_matches_baseline(p))
        }
    }

    /// True when `p`'s repository equals its pre-transaction baseline:
    /// the *name set* must match exactly (a document created during the
    /// transaction has no baseline entry — tolerating it would let an
    /// aborted transaction leak fresh documents past the oracle; a
    /// missing name means compensation dropped a document outright) and
    /// every document's bytes must match.
    fn peer_matches_baseline(&self, p: PeerId) -> bool {
        let base = self.baseline_of(p);
        let repo = &self.sim.actor(p).repo;
        let mut xml = String::new();
        repo.len() == base.len()
            && repo.iter().zip(base).all(|((name, doc), (base_name, base_xml))| {
                xml.clear();
                doc.write_xml(&mut xml);
                name == base_name && xml == *base_xml
            })
    }

    fn baseline_of(&self, p: PeerId) -> &[(String, String)] {
        self.baseline.get(&p).map(Vec::as_slice).unwrap_or_default()
    }

    /// The lifecycle-event journal, if the scenario was built with
    /// [`ScenarioBuilder::traced`].
    pub fn trace(&self) -> Option<&TraceJournal> {
        self.sim.trace()
    }

    /// One unified counter registry for the run: network counters
    /// (`net.*`) merged with every participant's protocol stats
    /// (`peer<k>.*`) and the fleet-wide durability-sink totals (`wal.*`),
    /// rendered by [`render_counters`].
    pub fn snapshot(&self) -> Snapshot {
        let mut wal = WalStats::default();
        for &p in &self.participants {
            wal.merge(&self.sim.actor(p).wal_stats());
        }
        let peers = self.participants.iter().map(|&p| (p, self.sim.actor(p).stats.counters()));
        render_counters(self.sim.metrics(), peers, &wal)
    }

    /// Documents diverging from the baseline on connected peers
    /// (diagnostics for failed atomicity checks). A document with no
    /// baseline entry (created during the transaction) or a baseline
    /// entry with no surviving document (dropped by compensation) is
    /// divergence too.
    pub fn divergent_docs(&self) -> Vec<(PeerId, String)> {
        let mut out = Vec::new();
        for &p in &self.participants {
            if !self.sim.is_connected(p) {
                continue;
            }
            let (repo, base) = (&self.sim.actor(p).repo, self.baseline_of(p));
            for (name, doc) in repo.iter() {
                match base.iter().find(|(base_name, _)| base_name == name) {
                    Some((_, base_xml)) => {
                        if doc.to_xml() != *base_xml {
                            out.push((p, name.to_string()));
                        }
                    }
                    None => out.push((p, format!("{name} (created during the transaction)"))),
                }
            }
            for (name, _) in base {
                if repo.get(name).is_none() {
                    out.push((p, format!("{name} (missing after the run)")));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ActiveList;
    use crate::durability::JournalEntry;
    use crate::peer::{DetectHow, RecoveryStyle};

    // ------------------------------------------------------------------
    // Happy path.
    // ------------------------------------------------------------------

    #[test]
    fn fig1_commits_without_faults() {
        let mut s = ScenarioBuilder::fig1().build();
        let report = s.run();
        let outcome = report.outcome.expect("resolved");
        assert!(outcome.committed);
        assert!(report.atomic);
        // Every participant executed its update.
        for p in [1u32, 2, 3, 4, 5, 6] {
            let actor = s.sim.actor(PeerId(p));
            let doc = actor.repo.get(&format!("d{p}")).unwrap();
            assert!(doc.to_xml().contains(&format!("done-{p}")), "{p}: {}", doc.to_xml());
        }
        // 5 invocations (S2, S3, S4, S5, S6).
        assert_eq!(report.metrics.kind("invoke"), 5);
        assert_eq!(report.metrics.kind("result"), 5);
        assert_eq!(report.metrics.kind("abort"), 0);
    }

    #[test]
    fn a_peer_changing_its_fabric_tables_changes_no_siblings() {
        // Every actor of a build starts from one shared catalogue and one
        // shared directory; what a peer then learns is its own.
        let mut s = ScenarioBuilder::fig1().build();
        let ap3 = s.sim.actor_mut(PeerId(3));
        ap3.wsdl.publish("extra", &["x"]);
        ap3.wsdl.publish("S2", &["other"]);
        ap3.directory.add_service_provider("S2", PeerId(9));
        ap3.directory.add_doc_replica("d9", PeerId(3));
        assert_eq!(ap3.wsdl.hints("extra"), Some(&["x".to_string()][..]));
        assert_eq!(ap3.directory.service_providers("S2"), &[PeerId(2), PeerId(9)]);
        for p in [0, 1, 2, 4, 5, 6] {
            let sibling = s.sim.actor(PeerId(p));
            assert_eq!(sibling.wsdl.hints("extra"), None, "AP{p}");
            assert_eq!(sibling.wsdl.hints("S2"), Some(&["slot".to_string()][..]), "AP{p}");
            assert_eq!(sibling.directory.service_providers("S2"), &[PeerId(2)], "AP{p}");
            assert!(sibling.directory.doc_replicas("d9").is_empty(), "AP{p}");
        }
        let report = s.run();
        assert!(report.outcome.is_some_and(|o| o.committed) && report.atomic);
    }

    #[test]
    fn snapshot_exports_wal_counters() {
        // The unified registry carries the fleet's durability-sink
        // totals. Under the default in-memory sinks the append
        // accounting still runs (bytes flow through the same codec), so
        // the counters are live even before a WAL sink attaches.
        let mut s = ScenarioBuilder::fig1().build();
        s.run();
        let snap = s.snapshot();
        assert!(snap.get("wal.bytes_appended") > 0, "appended journal bytes are accounted");
        assert_eq!(snap.get("wal.segments_rotated"), 0);
        assert_eq!(snap.get("wal.recovery_entries"), 0, "no crash, no recovery");
        assert_eq!(snap.get("wal.torn_tails_discarded"), 0);
        assert_eq!(snap.get("wal.append_faults"), 0);
    }

    #[test]
    fn fig1_query_flavor_commits_and_aggregates() {
        let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).build();
        let report = s.run();
        assert!(report.outcome.expect("resolved").committed);
        let origin = s.sim.actor(PeerId(1));
        let txn = report.txn.unwrap();
        let results = origin.results.get(&txn).expect("query results");
        // The origin's query sees its own base plus everything the tree
        // materialized upward.
        let text: String = results.iter().map(|f| f.to_xml()).collect();
        for p in [1u32, 2, 3, 4, 5, 6] {
            assert!(text.contains(&format!("base-{p}")), "missing base-{p} in {text}");
        }
    }

    // ------------------------------------------------------------------
    // E1: Fig. 1 nested recovery.
    // ------------------------------------------------------------------

    #[test]
    fn fig1_nested_recovery_backward_propagation() {
        // AP5 fails while processing S5 and no handlers exist anywhere:
        // the abort propagates to the origin, exactly §3.2 steps 1–4.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
        let report = s.run();
        let outcome = report.outcome.expect("resolved");
        assert!(!outcome.committed, "transaction aborts");
        assert!(report.atomic, "all effects compensated: {:?}", s.divergent_docs());
        // Terminal states everywhere.
        for p in [1u32, 2, 3, 4, 5, 6] {
            let actor = s.sim.actor(PeerId(p));
            for t in actor.known_txns() {
                assert!(actor.context(t).unwrap().is_terminal(), "AP{p} context not terminal");
            }
        }
        // The failing peer compensated itself and sent aborts both ways.
        let ap5 = &report.stats[&PeerId(5)];
        assert_eq!(ap5.faults_raised, 1);
        assert!(ap5.aborts_sent >= 2, "to AP6 (down) and AP3 (up): {}", ap5.aborts_sent);
        // Fault messages climbed AP5 → AP3 → AP1.
        assert!(report.metrics.kind("fault") >= 2);
        // AP2's branch got aborted from the origin.
        let ap2 = &report.stats[&PeerId(2)];
        assert!(ap2.aborts_received >= 1);
    }

    #[test]
    fn fig1_forward_recovery_with_substitute_handler_at_ap3() {
        // AP3 defines a catchAll substitution for S5: the fault is
        // absorbed there ("the intermediate peers have the option of
        // performing forward recovery") and the transaction commits.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).substitute_handler(3, 5, None).config(cfg).build();
        let report = s.run();
        let outcome = report.outcome.expect("resolved");
        assert!(outcome.committed, "forward recovery absorbs the fault");
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.substitutions, 1);
        // The fault never reached AP1.
        let ap1 = &report.stats[&PeerId(1)];
        assert_eq!(ap1.aborts_received, 0);
    }

    #[test]
    fn fig1_retry_handler_retries_then_propagates() {
        // A retry handler on a permanently-failing service retries and
        // then propagates.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).retry_handler(3, 5, None, 2, 3).config(cfg).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed);
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.retries, 2);
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
    }

    #[test]
    fn fig1_alternative_provider_redoes_failed_service() {
        // A replica of AP5 exists: forward recovery re-invokes S5 there
        // ("a different peer … can only be a peer containing a replicated
        // copy of the affected AXML document").
        let (b, replica) = ScenarioBuilder::fig1().fault_at(5).with_replica(5);
        let mut s = b.build();
        let report = s.run();
        let outcome = report.outcome.expect("resolved");
        assert!(outcome.committed, "redo on the replica commits the transaction");
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.alternatives_used, 1);
        // The replica did the work.
        let rep = s.sim.actor(PeerId(replica));
        assert!(rep.repo.get("d5").unwrap().to_xml().contains("done-5"));
        assert!(report.atomic);
    }

    #[test]
    fn fig1_backward_only_never_tries_forward_recovery() {
        let mut cfg = PeerConfig::default();
        cfg.recovery = RecoveryStyle::BackwardOnly;
        let (b, _replica) = ScenarioBuilder::fig1().fault_at(5).substitute_handler(3, 5, None).with_replica(5);
        let mut s = b.config(cfg).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed);
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.substitutions, 0);
        assert_eq!(ap3.alternatives_used, 0);
        assert!(report.atomic);
    }

    #[test]
    fn fig1_peer_independent_compensation() {
        let mut cfg = PeerConfig::default();
        cfg.peer_independent = true;
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed);
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
        // Compensate messages were used.
        assert!(report.metrics.kind("compensate") >= 1, "metrics: {:?}", report.metrics.by_kind);
    }

    // ------------------------------------------------------------------
    // E2: Fig. 2 disconnection scenarios.
    // ------------------------------------------------------------------

    /// Instruments Fig. 2 so the target peer is mid-work when it drops:
    /// long service durations keep the tree busy.
    fn fig2_with(durations: &[(u32, u64)]) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::fig2();
        for (p, d) in durations {
            b.durations.insert(*p, *d);
        }
        b
    }

    /// Someone detects `dead` within `ping_timeout + ping_interval` ticks
    /// of its disconnection at `at`: a silent link is probed an interval
    /// after it was last heard on, and the probe round that follows the
    /// timeout declares the peer gone.
    fn assert_detected_in_time(report: &ScenarioReport, dead: u32, at: u64, cfg: &PeerConfig) {
        let detections = report.stats.values().flat_map(|st| &st.detections);
        let first = detections.filter(|d| d.disconnected == PeerId(dead)).map(|d| d.at).min();
        let first = first.unwrap_or_else(|| panic!("nobody detected AP{dead}"));
        let bound = at + cfg.ping_timeout + cfg.ping_interval;
        assert!((at..=bound).contains(&first), "AP{dead} left at {at}, detected at {first}, bound {bound}");
    }

    #[test]
    fn fig2a_leaf_disconnection_detected_by_parent() {
        // (a) AP6 disconnects while processing S6; parent AP3 detects via
        // keep-alive and follows the nested recovery protocol.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = fig2_with(&[(6, 500)]).disconnect(40, 6).config(cfg.clone()).build();
        let report = s.run();
        assert_detected_in_time(&report, 6, 40, &cfg);
        let outcome = report.outcome.expect("resolved");
        assert!(!outcome.committed);
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
        let ap3 = &report.stats[&PeerId(3)];
        let det = ap3.detections.iter().find(|d| d.disconnected == PeerId(6)).expect("AP3 detected AP6");
        assert!(matches!(det.how, DetectHow::PingTimeout));
    }

    #[test]
    fn fig2b_parent_disconnection_detected_by_child_with_chaining() {
        // (b) AP3 disconnects while AP6 is processing; AP6 detects it when
        // returning results and re-routes them to AP2 via the chain; AP2
        // performs forward recovery on a replica of AP3, reusing AP6's work.
        // Pings are slowed down so the chaining path (synchronous send
        // failure) is the first detector, as in the paper's narrative.
        let mut cfg = PeerConfig::default();
        cfg.ping_interval = 300;
        cfg.ping_timeout = 700;
        let (b, replica) = fig2_with(&[(6, 60)]).with_replica(3);
        let mut s = b.disconnect(30, 3).config(cfg.clone()).build();
        let report = s.run();
        assert_detected_in_time(&report, 3, 30, &cfg);
        let outcome = report.outcome.expect("resolved");
        let ap6 = &report.stats[&PeerId(6)];
        let det = ap6.detections.iter().find(|d| d.disconnected == PeerId(3)).expect("AP6 detected AP3");
        assert_eq!(det.how, DetectHow::SendFailure, "detected while trying to return the results");
        assert_eq!(ap6.redirects_sent, 1);
        let ap2 = &report.stats[&PeerId(2)];
        assert_eq!(ap2.redirects_received, 1);
        assert_eq!(ap2.alternatives_used, 1, "S3 redone on the replica");
        let rep = &report.stats[&PeerId(replica)];
        assert_eq!(rep.work_reused, 1, "AP6's results passed as materialized input");
        assert!(outcome.committed, "recovery completes the transaction");
    }

    #[test]
    fn fig2b_without_chaining_work_is_wasted() {
        // Same setup as the chaining variant, chaining off: AP6 discards
        // its completed work ("traditional recovery"), AP2's pings detect
        // AP3 much later, and the recovery on the replica redoes S6 from
        // scratch — no reuse.
        let mut cfg = PeerConfig::default();
        cfg.chaining = false;
        cfg.ping_interval = 300;
        cfg.ping_timeout = 700;
        let (b, _replica) = fig2_with(&[(6, 60)]).with_replica(3);
        let mut s = b.disconnect(30, 3).config(cfg).build();
        let report = s.run();
        let ap6 = &report.stats[&PeerId(6)];
        assert_eq!(ap6.redirects_sent, 0);
        assert!(ap6.work_wasted >= 1, "AP6 discards its work");
        for st in report.stats.values() {
            assert_eq!(st.work_reused, 0, "no reuse without chaining");
        }
        // Chaining's benefit shows as detection latency: compare with the
        // chaining run (see bench fig2_disconnection for the numbers).
        let first_detect = report
            .stats
            .values()
            .flat_map(|s| s.detections.iter())
            .filter(|d| d.disconnected == PeerId(3))
            .map(|d| d.at)
            .min()
            .expect("someone detects AP3");
        assert!(first_detect > 60, "without chaining, detection waits for slow pings (got {first_detect})");
    }

    #[test]
    fn fig2c_child_disconnection_notifies_descendants() {
        // (c) AP3 disconnects; parent AP2 detects it via keep-alive and
        // uses the chain to warn AP3's descendants (AP6), which stop
        // working.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        // AP6 busy for a long time: without the notice it would keep going.
        let mut s = fig2_with(&[(6, 2000), (3, 3000)]).disconnect(50, 3).config(cfg.clone()).build();
        let report = s.run();
        assert_detected_in_time(&report, 3, 50, &cfg);
        assert!(!report.outcome.expect("resolved").committed);
        let ap2 = &report.stats[&PeerId(2)];
        assert!(
            ap2.detections.iter().any(|d| d.disconnected == PeerId(3) && d.how == DetectHow::PingTimeout),
            "AP2 detects AP3 via pings"
        );
        let ap6 = &report.stats[&PeerId(6)];
        assert_eq!(ap6.orphan_stops, 1, "AP6 stopped early thanks to the notice");
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
    }

    #[test]
    fn fig2d_sibling_disconnection_via_streams() {
        // (d) AP3 and AP4 exchange subscription streams; AP3 disconnects
        // and AP4 notices the silence, then notifies AP3's parent and
        // children via the chain.
        let mut cfg = PeerConfig::default();
        cfg.stream_interval = Some(7);
        cfg.ping_interval = 400; // pings would otherwise detect first
        cfg.ping_timeout = 900;
        cfg.use_alternative_providers = false;
        let mut s = fig2_with(&[(3, 3000), (4, 3000), (5, 50), (6, 50)]).disconnect(60, 3).config(cfg.clone()).build();
        let report = s.run();
        assert_detected_in_time(&report, 3, 60, &cfg);
        let ap4 = &report.stats[&PeerId(4)];
        let det = ap4.detections.iter().find(|d| d.disconnected == PeerId(3)).expect("AP4 detected its sibling");
        assert!(
            matches!(det.how, DetectHow::StreamSilence | DetectHow::SendFailure),
            "stream-based detection, got {:?}",
            det.how
        );
        // The notice reached AP3's child (AP6) and parent (AP2).
        let ap6 = &report.stats[&PeerId(6)];
        assert!(
            ap6.detections.iter().any(|d| d.disconnected == PeerId(3) && d.how == DetectHow::Notice),
            "AP6 informed via the chain"
        );
        let ap2 = &report.stats[&PeerId(2)];
        assert!(ap2.detections.iter().any(|d| d.disconnected == PeerId(3)));
    }

    #[test]
    fn streaming_peers_back_from_a_disconnection_stream_again_and_detect_a_sibling_that_leaves() {
        // AP1 invokes the siblings AP2 and AP3, busy for 1,000 ticks and
        // streaming to each other every 7. Both are offline from 100 to
        // 130 — their stream timers come due meanwhile and are discarded,
        // and neither tries to reach the other — and AP2 leaves for good
        // at 300. A replica of S2 carries the transaction on, so AP3 is
        // still serving, and streaming, once AP2 has gone.
        let mut cfg = PeerConfig::default();
        cfg.stream_interval = Some(7);
        cfg.ping_interval = 400;
        cfg.ping_timeout = 900;
        let b = ScenarioBuilder::new(1, &[(1, 2), (1, 3)]).duration(2, 1000).duration(3, 1000).config(cfg);
        let (b, _replica) = b.with_replica(2);
        let sim = tapped(b.disconnect(300, 2), |sim| {
            for p in [2, 3] {
                sim.schedule_disconnect(100, PeerId(p));
                sim.schedule_reconnect(130, PeerId(p));
            }
        });
        for (to, from) in [(2, 3), (3, 2)] {
            let streams = &sim.actor(PeerId(to)).seen.streams;
            assert!(
                streams.iter().any(|&(p, at)| p == PeerId(from) && at > 130),
                "AP{from} streams again: {streams:?}"
            );
        }
        // The silence of their own absence is held against nobody; AP2's
        // departure is, by the stream, once it has lasted three intervals.
        for p in [1, 2, 3] {
            let early = sim.actor(PeerId(p)).peer.stats.detections.iter().find(|d| d.at < 300).cloned();
            assert_eq!(early, None, "AP{p} suspected a peer before anyone left");
        }
        let ap3 = &sim.actor(PeerId(3)).peer.stats.detections;
        let by_silence = ap3.iter().find(|d| d.how == DetectHow::StreamSilence).expect("AP3 noticed the silence");
        assert_eq!(by_silence.disconnected, PeerId(2));
        assert!(by_silence.at <= 300 + 4 * 7, "detected at {}", by_silence.at);
    }

    #[test]
    fn a_watcher_back_from_a_disconnection_detects_a_peer_that_dies_afterwards() {
        // AP1 watches AP2, busy for 1,000 ticks. AP1 is offline from 16 to
        // 46 — longer than a probe interval, so its keep-alive timer comes
        // due meanwhile and is discarded — and AP2 leaves for good at 100.
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let tree = ScenarioBuilder::new(1, &[(1, 2)]).duration(2, 1000).config(cfg.clone());
        let mut s = tree.disconnect(16, 1).disconnect(100, 2).build();
        s.sim.schedule_reconnect(46, PeerId(1));
        let report = s.run();
        assert_detected_in_time(&report, 2, 100, &cfg);
        let ap1 = &report.stats[&PeerId(1)];
        assert_eq!(ap1.detections.len(), 1, "the silence of AP1's own absence is held against nobody");
        assert_eq!(ap1.detections[0].how, DetectHow::PingTimeout);
        assert!(!report.outcome.expect("resolved").committed);
    }

    // ------------------------------------------------------------------
    // Crash-restart round trips (durability journal + presumed abort).
    // ------------------------------------------------------------------

    #[test]
    fn mid_transaction_crash_presumes_abort_and_stays_atomic() {
        // AP3 crashes while serving S3 (long duration keeps it in doubt):
        // its volatile state is wiped, the journal replay finds the
        // in-doubt context, compensates its effects, and pushes the abort
        // both ways — the whole transaction unwinds to the baseline.
        use axml_p2p::CrashEvent;
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut b = ScenarioBuilder::fig1().config(cfg);
        b.durations.insert(3, 50);
        let mut fault = FaultPlane::default();
        fault.crashes.push(CrashEvent { at: 30, peer: PeerId(3) });
        let mut s = b.fault_plane(fault).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed, "presumed abort reaches the origin");
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.crash_recoveries, 1);
        assert!(ap3.presumed_aborts >= 1, "the in-doubt context was presumed aborted");
        // The resolution was journaled, so the rebuilt context is terminal.
        let txn = report.txn.expect("known txn");
        let tc = s.sim.actor(PeerId(3)).context(txn).expect("replayed from journal");
        assert_eq!(tc.state, TxnState::Aborted);
        assert!(
            s.sim
                .actor(PeerId(3))
                .journal()
                .iter()
                .any(|e| matches!(e, JournalEntry::Resolved { committed: false, .. })),
            "presumed abort appended to the journal"
        );
    }

    #[test]
    fn post_commit_crash_replays_journal_without_recompensating() {
        // AP3 crashes long after the transaction committed: replay finds
        // only a terminal context, so nothing is compensated and the
        // committed effects survive the restart.
        use axml_p2p::CrashEvent;
        let mut fault = FaultPlane::default();
        fault.crashes.push(CrashEvent { at: 5000, peer: PeerId(3) });
        let mut s = ScenarioBuilder::fig1().fault_plane(fault).build();
        let report = s.run();
        assert!(report.outcome.expect("resolved").committed);
        let ap3 = &report.stats[&PeerId(3)];
        assert_eq!(ap3.crash_recoveries, 1);
        assert_eq!(ap3.presumed_aborts, 0, "terminal contexts are left untouched");
        let txn = report.txn.expect("known txn");
        let actor = s.sim.actor(PeerId(3));
        assert_eq!(actor.context(txn).expect("replayed").state, TxnState::Committed);
        assert!(actor.repo.get("d3").expect("doc").to_xml().contains("done-3"), "committed effects survive");
    }

    // ------------------------------------------------------------------
    // Lifecycle tracing.
    // ------------------------------------------------------------------

    #[test]
    fn traced_run_covers_the_lifecycle_and_replays_byte_identically() {
        let mut a = ScenarioBuilder::fig1().fault_at(5).traced().build();
        a.run();
        let journal = a.trace().expect("traced build collects a journal");
        // The fig1-with-fault run exercises the whole §3.2 lifecycle.
        for label in [
            "submit",
            "invoke",
            "serve",
            "materialize",
            "log-append",
            "fault-raise",
            "compensate-apply",
            "abort-propagate",
            "resolve",
        ] {
            assert!(journal.count(label) > 0, "no {label} events");
        }
        let lines = journal.to_json_lines();
        // Same scenario, same seed: the journal is replay-stable.
        let mut b = ScenarioBuilder::fig1().fault_at(5).traced().build();
        b.run();
        assert_eq!(lines, b.trace().unwrap().to_json_lines());
        // Untraced builds pay nothing and expose no journal.
        let mut c = ScenarioBuilder::fig1().fault_at(5).build();
        c.run();
        assert!(c.trace().is_none());
    }

    #[test]
    fn snapshot_unifies_net_and_peer_counters() {
        let mut s = ScenarioBuilder::fig1().fault_at(5).traced().build();
        let report = s.run();
        let snap = s.snapshot();
        assert_eq!(snap.get("net.sent.invoke"), report.metrics.kind("invoke"));
        assert_eq!(snap.get("peer.5.faults_raised"), 1);
        assert_eq!(snap.get("peer.1.served"), report.stats[&PeerId(1)].served);
        let rendered = snap.render();
        assert!(rendered.contains("net.sent"), "render lists net counters: {rendered}");
        assert!(rendered.contains("peer.5.faults_raised"), "render lists peer counters");
    }

    // ------------------------------------------------------------------
    // Spheres of atomicity sanity.
    // ------------------------------------------------------------------

    #[test]
    fn all_super_sphere_survives_scheduled_churn() {
        // Every participant is a super peer: scheduled disconnects are
        // ignored and atomicity is guaranteed.
        let mut b = ScenarioBuilder::fig2();
        b.supers = vec![1, 2, 3, 4, 5, 6];
        let mut s = b.disconnect(30, 3).disconnect(40, 6).build();
        let report = s.run();
        assert!(report.outcome.expect("resolved").committed);
        assert!(report.atomic);
        let txn = report.txn.unwrap();
        let chain = s.sim.actor(PeerId(1)).context(txn).unwrap().chain.clone();
        assert!(crate::spheres::sphere_guarantees_atomicity(&chain));
    }

    #[test]
    fn chain_notation_of_fig2_run() {
        let mut s = ScenarioBuilder::fig2().build();
        let report = s.run();
        let txn = report.txn.unwrap();
        let chain = &s.sim.actor(PeerId(1)).context(txn).unwrap().chain;
        assert_eq!(chain.to_notation(), "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
    }

    /// A peer that notes the chain each `Invoke` and `ChainUpdate` hands
    /// it, as `(sender, chain)`, the delivery id of each `Invoke`, what
    /// each message acknowledges, who sent each `Commit` and when each
    /// `StreamData` came, before acting on the message.
    #[derive(Default)]
    struct Tapped {
        invoked_with: Vec<(PeerId, ActiveList)>,
        updated_with: Vec<(PeerId, ActiveList)>,
        /// `(invoker, delivery id)` of every `Invoke` envelope.
        invoke_ids: Vec<(PeerId, u64)>,
        /// `(sender, kind of the message, ids it acknowledges)`, of every
        /// message that acknowledges something, in arrival order.
        acked_by: Vec<(PeerId, &'static str, Vec<u64>)>,
        /// The sender of every `Commit`, in arrival order.
        commits_from: Vec<PeerId>,
        /// `(sender, arrival time)` of every `StreamData`.
        streams: Vec<(PeerId, u64)>,
    }

    struct Tap {
        peer: AxmlPeer,
        seen: Tapped,
        /// Struck from the `covered` list of every `Commit` this peer
        /// receives before the peer sees it.
        uncover: Option<PeerId>,
    }

    /// `list` without `peer`, whose children hang under the root instead,
    /// so that the list still names everyone else.
    fn without(list: &ActiveList, peer: PeerId) -> ActiveList {
        let mut out = list.clone();
        let orphans = out.children_of(peer);
        assert!(out.remove(peer), "{peer} is in the list");
        for child in orphans {
            out.add_invocation(out.root.peer, child, false);
        }
        out
    }

    impl axml_p2p::Actor<TxnMsg> for Tap {
        fn on_message(&mut self, ctx: &mut axml_p2p::Ctx<'_, TxnMsg>, from: PeerId, mut msg: TxnMsg) {
            use axml_p2p::Message;
            match &mut msg {
                TxnMsg::ChainUpdate { chain, .. } => self.seen.updated_with.push((from, chain.clone())),
                TxnMsg::StreamData { .. } => self.seen.streams.push((from, ctx.now())),
                TxnMsg::Reliable { id, inner, .. } => {
                    if let TxnMsg::Invoke { chain, .. } = &**inner {
                        self.seen.invoked_with.push((from, chain.clone()));
                        self.seen.invoke_ids.push((from, *id));
                    }
                }
                TxnMsg::Commit { covered, .. } => {
                    self.seen.commits_from.push(from);
                    if let (Some(peer), Some(list)) = (self.uncover, covered.as_mut()) {
                        *list = without(list, peer);
                    }
                }
                _ => {}
            }
            if !msg.acks().is_empty() {
                self.seen.acked_by.push((from, msg.kind(), msg.acks().to_vec()));
            }
            self.peer.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut axml_p2p::Ctx<'_, TxnMsg>, tag: u64) {
            self.peer.on_timer(ctx, tag);
        }

        fn on_reconnect(&mut self, ctx: &mut axml_p2p::Ctx<'_, TxnMsg>) {
            self.peer.on_reconnect(ctx);
        }
    }

    /// One transaction over `b`'s tree with every inbox tapped, run to the
    /// end; `prepare` sets the taps and schedules churn first.
    fn tapped(b: ScenarioBuilder, prepare: impl FnOnce(&mut Sim<TxnMsg, Tap>)) -> Sim<TxnMsg, Tap> {
        let taps = b.actors(&b.peers()).into_iter().map(|peer| Tap { peer, seen: Tapped::default(), uncover: None });
        let mut sim = Sim::new(b.sim_config(), taps.collect());
        for &(at, p) in &b.disconnects {
            sim.schedule_disconnect(at, PeerId(p));
        }
        let origin = PeerId(b.origin);
        sim.actor_mut(origin).peer.auto_submit = Some((format!("S{}", b.origin), vec![]));
        sim.schedule_timer(0, origin, 0);
        prepare(&mut sim);
        sim.run();
        sim
    }

    /// The first transaction `b`'s origin decided committed.
    fn committed(sim: &Sim<TxnMsg, Tap>, b: &ScenarioBuilder) -> TxnId {
        let outcome = sim.actor(PeerId(b.origin)).peer.outcomes.first().expect("decided");
        assert!(outcome.committed);
        outcome.txn
    }

    /// One committed Fig. 1 transaction with every inbox tapped.
    fn tapped_fig1() -> Sim<TxnMsg, Tap> {
        let sim = tapped(ScenarioBuilder::fig1(), |_| {});
        committed(&sim, &ScenarioBuilder::fig1());
        sim
    }

    #[test]
    fn a_wave_gossips_its_chain_to_everyone_but_the_children_it_has_just_invoked_with_it() {
        let sim = tapped_fig1();

        // No child is told again what its `Invoke` told it.
        for child in [2, 3, 4, 5, 6] {
            let tap = &sim.actor(PeerId(child)).seen;
            assert_eq!(tap.invoked_with.len(), 1, "AP{child} is invoked once");
            let handed = &tap.invoked_with[0];
            assert!(!tap.updated_with.contains(handed), "AP{child} was sent the chain of its Invoke a second time");
        }
        // AP3's wave {AP4, AP5} still reaches its parent and its sibling,
        // and AP5's wave {AP6} its parent and its sibling AP4.
        let told_by = |peer: u32, by: u32, edge: (u32, u32)| {
            let carries = |c: &ActiveList| c.parent_of(PeerId(edge.1)) == Some(PeerId(edge.0));
            sim.actor(PeerId(peer)).seen.updated_with.iter().any(|(from, c)| *from == PeerId(by) && carries(c))
        };
        for (peer, by, edge) in [(1, 3, (3, 4)), (1, 3, (3, 5)), (2, 3, (3, 5)), (3, 5, (5, 6)), (4, 5, (5, 6))] {
            assert!(told_by(peer, by, edge), "AP{peer} did not learn AP{}→AP{} from AP{by}", edge.0, edge.1);
        }
        // A relay carries news only beyond its informant's own scope. AP3
        // has told its parent AP1 and its sibling AP2 first-hand, so neither
        // passes AP3's wave on to the other; AP5's wave reaches them — out
        // of AP5's scope — through AP3 alone, once each.
        for (peer, other) in [(1, 2), (2, 1)] {
            let updates = &sim.actor(PeerId(peer)).seen.updated_with;
            assert!(updates.iter().all(|(from, _)| *from != PeerId(other)), "AP{other} relayed to AP{peer}");
            assert!(told_by(peer, 3, (5, 6)), "AP{peer} did not learn AP5→AP6 through AP3");
            assert_eq!(updates.len(), 2, "AP{peer} is told each wave once: {updates:?}");
        }
    }

    #[test]
    fn the_ack_of_an_invoke_rides_on_the_answer_and_every_other_ack_leaves_alone() {
        let sim = tapped_fig1();
        // (child, its invoker, the kind of message that answers first): an
        // interior peer's wave tells its parent the new edges in the
        // handler of the `Invoke` itself, a leaf has only its `Result`.
        let answers =
            [(2, 1, "result"), (3, 1, "chain-update"), (4, 3, "result"), (5, 3, "chain-update"), (6, 5, "result")];
        for (child, invoker, answer) in answers {
            let &(from, id) = sim.actor(PeerId(child)).seen.invoke_ids.first().expect("invoked");
            assert_eq!(from, PeerId(invoker));
            let acked = &sim.actor(from).seen.acked_by;
            let by: Vec<_> = acked.iter().filter(|(p, _, ids)| *p == PeerId(child) && ids.contains(&id)).collect();
            assert_eq!(by.len(), 1, "AP{child}'s Invoke is acknowledged once: {by:?}");
            assert_eq!(by[0].1, answer, "AP{child}'s Invoke is acknowledged by the answer, no Ack before it");
        }
        // Nothing else travels the way of the sender within the handler
        // that receives it — a `Result` is answered by a decision much
        // later — so the 5 `Result`s' acks leave alone. A decision is not
        // acknowledged at all.
        let acked = (1..=6).flat_map(|p| sim.actor(PeerId(p)).seen.acked_by.iter());
        let (alone, carried): (Vec<_>, Vec<_>) = acked.partition(|(_, kind, _)| *kind == "ack");
        assert_eq!((carried.len(), alone.len()), (5, 5), "carried: {carried:?}");
        assert!(alone.iter().all(|(_, _, ids)| ids.len() == 1));
        // No delivery was acknowledged late enough to be sent again.
        assert_eq!(sim.metrics().retransmits, 0);
    }

    #[test]
    fn a_lost_carried_ack_costs_one_retransmission_answered_at_once() {
        // AP2's `Result` carries the ack of its `Invoke`; the network drops
        // it. AP1 sends the `Invoke` again, AP2 suppresses it and
        // acknowledges it in the same handler; AP2's own retransmission
        // brings the `Result`.
        use axml_p2p::{FaultAction, ScriptedFault};
        let lost =
            ScriptedFault { from: PeerId(2), to: PeerId(1), kind: "result".into(), nth: 0, action: FaultAction::Drop };
        let mut s = ScenarioBuilder::fig1().fault_plane(FaultPlane::scripted(vec![lost])).build();
        let report = s.run();
        assert!(report.outcome.is_some_and(|o| o.committed));
        assert!(report.atomic);
        let (ap1, ap2) = (&report.stats[&PeerId(1)], &report.stats[&PeerId(2)]);
        assert_eq!((ap1.retransmits, ap2.retransmits), (1, 1), "the Invoke once, the Result once");
        assert_eq!((ap2.dup_suppressed, ap2.served), (1, 1), "nothing executes twice");
        assert_eq!(report.metrics.retransmits, 2);
        // The lost ride is counted as carried; the re-ack left alone.
        let carried: u64 = report.stats.values().map(|st| st.acks_carried).sum();
        let alone: u64 = report.stats.values().map(|st| st.acks_alone).sum();
        assert_eq!((carried, alone), (5, 6), "10 deliveries and the re-delivery acknowledged");
    }

    #[test]
    fn every_participant_is_told_the_decision_once_by_the_origin_or_else_by_its_invoker() {
        let deep = ScenarioBuilder::new(1, &[(1, 2), (2, 3), (3, 4)]);
        for b in [ScenarioBuilder::fig1(), ScenarioBuilder::fig2(), deep] {
            for chaining in [true, false] {
                let mut cfg = PeerConfig::default();
                cfg.chaining = chaining;
                let b = b.clone().config(cfg);
                let sim = tapped(b.clone(), |_| {});
                committed(&sim, &b);
                for &(invoker, child) in &b.edges {
                    // With chaining the origin's `Commit` names the whole
                    // tree, so nobody passes it on; without, each invoker
                    // passes on the one it received.
                    let told_by = PeerId(if chaining { b.origin } else { invoker });
                    let from = &sim.actor(PeerId(child)).seen.commits_from;
                    assert_eq!(from, &[told_by], "AP{child}, chaining {chaining}, edges {:?}", b.edges);
                }
            }
        }
    }

    #[test]
    fn a_peer_left_out_of_the_cover_is_told_by_its_invoker_and_commits_once() {
        let plain = tapped_fig1();
        let b = ScenarioBuilder::fig1();
        let sim = tapped(b.clone(), |sim| sim.actor_mut(PeerId(3)).uncover = Some(PeerId(5)));
        let txn = committed(&sim, &b);
        // AP3 is told a cover without AP5 and passes the decision on to
        // AP5; everyone else hears it once, from AP1, as without the tap.
        for peer in [2, 3, 4, 5, 6] {
            let mut from = sim.actor(PeerId(peer)).seen.commits_from.clone();
            from.sort();
            let expected: &[PeerId] = if peer == 5 { &[PeerId(1), PeerId(3)] } else { &[PeerId(1)] };
            assert_eq!(from, expected, "AP{peer}");
        }
        let ap5 = &sim.actor(PeerId(5)).peer;
        let resolved =
            ap5.journal().iter().filter(|e| matches!(e, JournalEntry::Resolved { txn: t, .. } if *t == txn)).count();
        assert_eq!((ap5.context(txn).expect("joined").state, resolved), (TxnState::Committed, 1));
        // The one extra, unacknowledged `Commit` is the only difference.
        let (before, after) = (plain.metrics(), sim.metrics());
        let kinds: std::collections::BTreeSet<_> = before.by_kind.keys().chain(after.by_kind.keys()).collect();
        for kind in kinds {
            let extra = u64::from(*kind == "commit");
            assert_eq!(after.kind(kind), before.kind(kind) + extra, "{kind}");
        }
    }

    // ------------------------------------------------------------------
    // Oracle strictness: leaked and dropped documents.
    // ------------------------------------------------------------------

    #[test]
    fn aborted_txn_leaking_a_fresh_document_fails_the_oracle() {
        // An aborted transaction must leave the post-abort document *name
        // set* equal to the baseline name set. Services cannot create
        // documents today, so the leak is emulated the way a buggy
        // compensation path would produce it: a fresh document appears on
        // a participant during the run and survives the abort. Before the
        // name-set rule, `atomicity_holds` silently tolerated any
        // document without a baseline entry (`None => true`).
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed);
        assert!(s.atomicity_holds(), "clean abort is atomic");
        s.sim.actor_mut(PeerId(4)).repo.put_xml("leaked-scratch", "<d><out>leak</out></d>").unwrap();
        assert!(!s.atomicity_holds(), "a document created during the transaction must fail an aborted oracle");
        assert!(
            s.divergent_docs().iter().any(|(p, n)| *p == PeerId(4) && n.contains("leaked-scratch")),
            "diagnostics name the leaked document: {:?}",
            s.divergent_docs()
        );
    }

    #[test]
    fn aborted_txn_dropping_a_baseline_document_fails_the_oracle() {
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
        let report = s.run();
        assert!(!report.outcome.expect("resolved").committed);
        s.sim.actor_mut(PeerId(2)).repo.remove("d2").expect("hosted");
        assert!(!s.atomicity_holds(), "a baseline document missing after the abort must fail the oracle");
        assert!(
            s.divergent_docs().iter().any(|(p, n)| *p == PeerId(2) && n.contains("missing")),
            "diagnostics name the dropped document: {:?}",
            s.divergent_docs()
        );
    }

    #[test]
    fn committed_txn_with_aborted_participant_leaking_a_document_fails_the_oracle() {
        // The committed branch applies the same name-set rule to any
        // participant that decided abort: its compensation must not leave
        // fresh documents behind either.
        let mut s = ScenarioBuilder::fig1().build();
        let report = s.run();
        assert!(report.outcome.expect("resolved").committed);
        assert!(s.atomicity_holds());
    }

    // ------------------------------------------------------------------
    // Deterministic txn fallback.
    // ------------------------------------------------------------------

    #[test]
    fn unresolved_report_txn_is_the_origin_root_transaction() {
        // Deadline short enough that the origin never records an outcome:
        // the report's txn must still resolve deterministically to the
        // origin's own root transaction (origin = AP1, epoch 0, seq 0) —
        // not whatever context happens to sort first at the origin.
        let mut b = ScenarioBuilder::fig1();
        b.deadline = 3;
        let mut s = b.build();
        let report = s.run();
        assert!(report.outcome.is_none(), "deadline precedes resolution");
        let txn = report.txn.expect("origin submitted before the deadline");
        assert_eq!(txn, TxnId::new(PeerId(1), 0));
        let ctx = s.sim.actor(PeerId(1)).context(txn).expect("root context");
        assert!(ctx.parent.is_none(), "the fallback txn is the root, parentless context");
        // Replay-stable: a second identical run picks the same txn.
        let mut b2 = ScenarioBuilder::fig1();
        b2.deadline = 3;
        assert_eq!(b2.build().run().txn, Some(txn));
    }

    #[test]
    fn planned_chain_matches_actual_run() {
        // The statically-predicted chain equals the chain a fault-free run
        // actually records at the origin.
        let builder = ScenarioBuilder::fig2();
        let planned = builder.planned_chain();
        assert_eq!(planned.to_notation(), "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
        let mut s = builder.build();
        let report = s.run();
        let txn = report.txn.unwrap();
        let actual = &s.sim.actor(PeerId(1)).context(txn).unwrap().chain;
        assert_eq!(*actual, planned);
    }
}

#[cfg(test)]
mod config_matrix_tests {
    use super::*;
    use axml_doc::EvalMode;

    /// The happy path commits and stays atomic under every configuration
    /// knob combination.
    #[test]
    fn happy_path_commits_under_all_config_combinations() {
        for peer_independent in [false, true] {
            for chaining in [false, true] {
                for eval in [EvalMode::Lazy, EvalMode::Eager] {
                    let mut cfg = PeerConfig::default();
                    cfg.peer_independent = peer_independent;
                    cfg.chaining = chaining;
                    cfg.eval = eval;
                    let mut s = ScenarioBuilder::fig1().config(cfg).build();
                    let report = s.run();
                    let label = format!("pi={peer_independent} chaining={chaining} eval={eval:?}");
                    assert!(report.outcome.as_ref().map(|o| o.committed).unwrap_or(false), "{label}");
                    assert!(report.atomic, "{label}: {:?}", s.divergent_docs());
                }
            }
        }
    }

    /// A fault aborts atomically under every configuration combination.
    #[test]
    fn fault_aborts_atomically_under_all_config_combinations() {
        for peer_independent in [false, true] {
            for chaining in [false, true] {
                let mut cfg = PeerConfig::default();
                cfg.peer_independent = peer_independent;
                cfg.chaining = chaining;
                cfg.use_alternative_providers = false;
                let mut s = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
                let report = s.run();
                let label = format!("pi={peer_independent} chaining={chaining}");
                assert!(!report.outcome.as_ref().map(|o| o.committed).unwrap_or(true), "{label}");
                assert!(report.atomic, "{label}: {:?}", s.divergent_docs());
            }
        }
    }

    /// Query flavor with peer-independent compensation: materialization
    /// effects on *intermediate* peers are compensated via shipped
    /// definitions.
    #[test]
    fn query_flavor_peer_independent_abort() {
        let mut cfg = PeerConfig::default();
        cfg.peer_independent = true;
        cfg.use_alternative_providers = false;
        let mut b = ScenarioBuilder::fig1().flavor(Flavor::Query).fault_at(2).config(cfg);
        b.durations.insert(2, 400); // AP3's subtree completes first
        let mut s = b.build();
        let report = s.run();
        assert!(!report.outcome.unwrap().committed);
        assert!(report.atomic, "divergent: {:?}", s.divergent_docs());
        assert!(report.metrics.kind("compensate") > 0);
    }

    /// Commit fan-out without chaining still reaches every participant
    /// through the invocation cascade.
    #[test]
    fn commit_cascade_without_chaining() {
        let mut cfg = PeerConfig::default();
        cfg.chaining = false;
        let mut s = ScenarioBuilder::fig1().config(cfg).build();
        let report = s.run();
        let txn = report.txn.unwrap();
        assert!(report.outcome.unwrap().committed);
        for p in [1u32, 2, 3, 4, 5, 6] {
            let tc = s.sim.actor(PeerId(p)).context(txn).expect("participated");
            assert_eq!(tc.state, crate::context::TxnState::Committed, "AP{p}");
        }
    }

    /// A relay stops short of the peers its informant tells itself, and
    /// every peer still learns the whole tree while the leaves compute. In
    /// this one-wave tree an informant knows every sibling of its wave from
    /// its `Invoke`, so reading its scope off the merged chain instead of
    /// the chain it sent tells the same peers (DESIGN.md §5, chain gossip).
    #[test]
    fn every_peer_learns_the_whole_tree_under_either_scope() {
        let edges: Vec<(u32, u32)> = (2..=15).map(|child| (child / 2, child)).collect();
        let mut b = ScenarioBuilder::new(1, &edges).flavor(Flavor::Query).with_seed(17);
        for peer in 1..=15 {
            b.durations.insert(peer, 40);
        }
        let mut s = b.build();
        s.sim.run_until(100);
        let txn = s.sim.actor(PeerId(1)).known_txns()[0];
        for peer in 1..=15 {
            let known = s.sim.actor(PeerId(peer)).context(txn).expect("invoked").chain.all_peers().len();
            assert_eq!(known, 15, "AP{peer} knows {known} of the 15 peers at t=100");
        }
        assert!(s.run().outcome.is_some_and(|o| o.committed));
    }
}
