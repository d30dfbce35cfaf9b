//! The transactional AXML peer.
//!
//! An [`AxmlPeer`] hosts documents and services ([`Repository`] +
//! [`ServiceRegistry`]) and implements, as one [`Actor`], the paper's
//! complete protocol stack:
//!
//! - **service processing with distributed nesting**: serving an
//!   invocation scans the target document for relevant embedded calls
//!   (lazy/eager, §3.1), issues them as asynchronous `Invoke` messages —
//!   including to itself for local calls — applies the arriving results
//!   per each call's mode, logging every effect, and finally executes the
//!   service body;
//! - **nested recovery (§3.2)**: on a child fault the peer consults the
//!   embedded call's fault handlers (retry, replica retry, substitute) or
//!   an alternative provider — *forward recovery* — else aborts its own
//!   context (compensating its local effects from the log) and propagates
//!   `Abort TA` to invokees and the invoker — *backward recovery*;
//! - **peer-independent compensation (§3.2)**: results carry per-peer
//!   compensating-service bundles; a recovering peer executes them by
//!   sending `Compensate` messages directly, so "the original peers do
//!   not even need to be aware that the services they are executing are,
//!   basically, compensating services";
//! - **disconnection handling via chaining (§3.3)**: scenarios (a)–(d),
//!   driven by synchronous send failures, keep-alive timeouts, and missed
//!   sibling stream intervals, using the piggybacked active-peer list.
//!
//! # Layers
//!
//! This module is the protocol. Two layers under it keep their own state:
//!
//! | Module | Job | Hands the protocol |
//! |--------|-----|--------------------|
//! | `delivery` (`Delivery`) | outbox, retransmit backoff and give-up, owed acks, dedup set | a payload to act on; a delivery given up (`delivery_failed`) |
//! | `detector` (`Detector`) | watches, keep-alive probes, sibling-stream clocks | the peers it suspects (`on_child_disconnected`, `on_sibling_disconnected`) |
//! | `timers` (`Timers`) | every timer: what it is for, when it is due | the `Timer` kind that fired (`on_timer`) |
//!
//! A reconnect decides per timer kind, in one match, what becomes of the
//! timers lost offline (`on_reconnect`); a crash builds all three afresh.
//!
//! # Reference model
//!
//! The `axml-spec` crate models this protocol as a small-step transition
//! system and model-checks its invariants over bounded configurations;
//! each transition below names the spec rule it refines, and the trace
//! events this module emits are what `axml-spec conform` replays against
//! the permitted transitions:
//!
//! | Spec rule | Implementation point |
//! |-----------|----------------------|
//! | R01 submit | [`AxmlPeer::submit`] |
//! | R02 serve | `handle_invoke` |
//! | R03 materialize | `apply_child_items` → `keep_effects` |
//! | R04 complete / resolve | `finish_serving`, `complete_serving` |
//! | R05 fault | `fail_serving` |
//! | R06 abort-up | `child_failed` → `abort_local` |
//! | R07 abort-down | `propagate_abort` / `handle_abort` |
//! | R08 compensate | `abort_local`, `handle_compensate` |
//! | R09 commit cascade — unacknowledged, never to a peer the received `covered` list names | `handle_commit` |
//! | R10 crash / presumed abort | `crash_recover` |
//! | R11 lose-commit — a `Commit` is sent once and may vanish | `finish_serving`, `handle_commit` |
//! | R12 inquire — an awaiting participant pulls the outcome | `inquire` / `handle_inquire` |
//!
//! # Decision delivery
//!
//! A commit is pulled, an abort is pushed. `Commit` leaves once, as a
//! plain message with no envelope, ack or retransmission. A participant
//! whose result has left is *awaiting the decision*; if none arrives
//! within [`DECISION_TIMEOUT`] it sends `Inquire` to the
//! origin, which answers from its decision record (`Commit`, `Abort`, or
//! presumed abort when it holds none), and asks again with doubling
//! delays. `Abort` stays reliable: it also reaches peers still serving,
//! which have no pull path.

use crate::chain::ActiveList;
use crate::compensate::{compensation_for_effects, CompBundle, CompensatingService};
use crate::context::{TransactionContext, TxnOutcome, TxnState};
use crate::delivery::{backoff, Delivery, Pending};
use crate::detector::Detector;
use crate::durability::{self, DurabilitySink, Journal, JournalEntry, WalStats};
use crate::ids::{InvocationId, TxnId};
use crate::messages::{Ctx, TxnMsg};
use crate::timers::Timers;
use axml_doc::{
    apply_call_results, EvalMode, Fault, MaterializationEngine, ParamValue, Repository, ResolvedCall, ServiceCall,
    ServiceInvoker, ServiceKind, ServiceRegistry, MAX_DEPTH,
};
use axml_p2p::{Actor, Directory, EventKind, PeerId, SendError};
use axml_query::{Effect, NodePath, SelectQuery};
use axml_xml::{Fragment, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How a peer recovers from child faults (ablation D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryStyle {
    /// Try fault handlers and alternative providers first; abort only
    /// when forward recovery is exhausted — the paper's preference
    /// ("consider forward recovery as the preferred solution and undo
    /// only as much as required").
    #[default]
    ForwardFirst,
    /// Always propagate the abort (saga-style backward recovery baseline).
    BackwardOnly,
}

/// Per-peer protocol configuration (the ablation toggles of DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// D3: forward-first vs backward-only recovery.
    pub recovery: RecoveryStyle,
    /// D5: ship compensating-service bundles with results and drive
    /// compensation from the recovering peer.
    pub peer_independent: bool,
    /// D4: piggyback active-peer lists, gossip their growth to parent,
    /// children and siblings, and use them on detection (§3.3); off, an
    /// invocation carries a singleton list and a detection falls back to
    /// traditional recovery.
    pub chaining: bool,
    /// Use the replica directory to re-invoke a failed/disconnected
    /// child's service on an alternative provider.
    pub use_alternative_providers: bool,
    /// How long a watched link may stay idle before it is probed with a
    /// ping (0 disables pings). Any message from the peer counts as
    /// traffic, so only idle links are probed.
    pub ping_interval: u64,
    /// Silence past this duration declares a watched peer disconnected.
    /// MUST exceed `ping_interval` plus one maximal round trip, the
    /// longest a live peer can stay silent ([`PeerConfig::check_timing`]).
    pub ping_timeout: u64,
    /// Subscription-stream interval between siblings (scenario (d));
    /// `None` disables streams.
    pub stream_interval: Option<u64>,
    /// Lazy or eager materialization (§3.1).
    pub eval: EvalMode,
    /// Whether this peer is a super peer (it advertises this in chains).
    pub is_super: bool,
    /// Suppress re-execution of an already-seen reliable delivery
    /// (`(sender, id)` dedup). Turning this off under message duplication
    /// is the canonical atomicity bug the chaos oracle catches.
    pub dedup: bool,
}

/// Delay before the first retransmission; doubles per attempt, capped at
/// `RETRANSMIT_BASE × 64`. MUST exceed the longest an acknowledgement is
/// held, [`ACK_HOLD`], plus one maximal round trip, or fault-free runs
/// retransmit spuriously ([`PeerConfig::check_timing`]).
pub const RETRANSMIT_BASE: u64 = 16;

/// Retransmissions before the sender gives up and treats the silence as a
/// failure ([`DetectHow::AckTimeout`]); also the most inquiries a
/// participant sends for a decision.
pub const MAX_RETRANSMITS: u32 = 8;

/// How long an `Invoke`'s acknowledgement waits for the answer to carry
/// it: a third of [`RETRANSMIT_BASE`], so that the bound beside it comes to
/// `RETRANSMIT_BASE > 1.5 ×` the maximal round trip — 16 or more with the
/// shipped 1–5 tick latency. Below that an `Invoke` served for longer than
/// the hold can be sent again before its ack is back.
pub const ACK_HOLD: u64 = RETRANSMIT_BASE / 3;

/// How long a participant whose result has left waits for the decision
/// before it asks the origin for it: four times [`RETRANSMIT_BASE`], 64
/// ticks. A whole fault-free Fig. 1 commit, submit to decision, takes 46
/// ticks at the 99th percentile of a 4,000-commit stream, and a
/// participant waits only for part of it, so a fault-free commit of Fig.
/// 1's size sends no `Inquire`. The wait does not grow with the tree: a
/// fault-free commit over 511 peers takes over 100 ticks and sends
/// hundreds (ROADMAP item 12). Each further inquiry waits twice as long,
/// capped like a retransmission, at most [`MAX_RETRANSMITS`] times.
pub const DECISION_TIMEOUT: u64 = 4 * RETRANSMIT_BASE;

impl PeerConfig {
    /// Checks the two timing MUSTs — [`PeerConfig::ping_timeout`]'s and
    /// [`RETRANSMIT_BASE`]'s — for a fabric whose messages take at most
    /// `max_latency` one way, and names the one that fails.
    pub fn check_timing(&self, max_latency: u64) -> Result<(), String> {
        let round_trip = 2 * max_latency;
        if self.ping_interval > 0 && self.ping_timeout <= self.ping_interval.saturating_add(round_trip) {
            return Err(format!(
                "ping_timeout {} must exceed ping_interval {} plus a round trip of {round_trip}",
                self.ping_timeout, self.ping_interval
            ));
        }
        if RETRANSMIT_BASE <= ACK_HOLD.saturating_add(round_trip) {
            return Err(format!(
                "RETRANSMIT_BASE {RETRANSMIT_BASE} must exceed the ack hold {ACK_HOLD} plus a round trip of {round_trip}"
            ));
        }
        Ok(())
    }
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            recovery: RecoveryStyle::ForwardFirst,
            peer_independent: false,
            chaining: true,
            use_alternative_providers: true,
            ping_interval: 10,
            ping_timeout: 25,
            stream_interval: None,
            eval: EvalMode::Lazy,
            is_super: false,
            dedup: true,
        }
    }
}

/// How a disconnection was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectHow {
    /// A synchronous send failed (scenario (b): child → dead parent).
    SendFailure,
    /// Keep-alive silence / failed ping (scenarios (a), (c)).
    PingTimeout,
    /// Missed sibling stream intervals (scenario (d)).
    StreamSilence,
    /// Told by another peer via the chain.
    Notice,
    /// A reliable delivery exhausted its retransmission budget without an
    /// ack — the peer is silently unreachable (drops or a partition).
    AckTimeout,
}

impl DetectHow {
    /// The mechanism's name in trace `Detect` events (`ping-timeout`, …).
    pub fn label(&self) -> &'static str {
        match self {
            DetectHow::SendFailure => "send-failure",
            DetectHow::PingTimeout => "ping-timeout",
            DetectHow::StreamSilence => "stream-silence",
            DetectHow::Notice => "notice",
            DetectHow::AckTimeout => "ack-timeout",
        }
    }
}

/// One detection event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The peer detected as disconnected.
    pub disconnected: PeerId,
    /// Logical time of detection.
    pub at: u64,
    /// Mechanism.
    pub how: DetectHow,
}

/// Counters a peer accumulates (read by the experiment harness).
#[derive(Debug, Clone, Default)]
pub struct PeerStats {
    /// Invocations served (started).
    pub served: u64,
    /// Servings completed successfully.
    pub completed: u64,
    /// Faults this peer raised (own service failures).
    pub faults_raised: u64,
    /// Handler-driven retries performed.
    pub retries: u64,
    /// Handler-driven substitutions performed.
    pub substitutions: u64,
    /// Re-invocations on alternative providers.
    pub alternatives_used: u64,
    /// Compensations executed locally (own log or received request).
    pub compensations_executed: u64,
    /// Nodes touched by compensation (the paper's cost measure).
    pub comp_cost_nodes: u64,
    /// `Abort` messages received.
    pub aborts_received: u64,
    /// `Abort`/`Fault` messages sent while recovering.
    pub aborts_sent: u64,
    /// Completed work discarded (results that never reached a consumer).
    pub work_wasted: u64,
    /// Results accepted via `prefilled` instead of re-invoking.
    pub work_reused: u64,
    /// Servings stopped early thanks to a disconnect notice.
    pub orphan_stops: u64,
    /// Results re-routed past a dead parent.
    pub redirects_sent: u64,
    /// Re-routed results received.
    pub redirects_received: u64,
    /// Messages that arrived for unknown/finished invocations.
    pub late_messages: u64,
    /// Reliable deliveries retransmitted (sender side).
    pub retransmits: u64,
    /// Reliable deliveries that exhausted their retransmission budget.
    pub retransmit_giveups: u64,
    /// Re-deliveries suppressed by `(sender, id)` dedup (receiver side).
    pub dup_suppressed: u64,
    /// Acknowledgements that rode on an envelope or chain update bound
    /// for their sender anyway.
    pub acks_carried: u64,
    /// Acknowledgements that left in an `Ack` message of their own.
    pub acks_alone: u64,
    /// High-water mark of the dedup set (entries, before pruning).
    pub seen_peak: u64,
    /// Keep-alive pings sent: probes of links idle for a full interval.
    pub keepalive_probes: u64,
    /// Probes a fixed-cadence keep-alive would have sent and traffic made
    /// unnecessary (the peer had been heard from inside the interval).
    pub keepalive_suppressed: u64,
    /// Journal appends refused by the durability sink (storage faults).
    pub storage_faults: u64,
    /// Crash-restarts this peer recovered from.
    pub crash_recoveries: u64,
    /// In-doubt contexts presumed aborted during crash recovery.
    pub presumed_aborts: u64,
    /// `Inquire`s sent: decision timeouts that asked for a missed outcome.
    pub inquiries: u64,
    /// Disconnections this peer detected.
    pub detections: Vec<Detection>,
}

impl PeerStats {
    /// These counters as one typed row ([`PeerCounters`]): what a sweep
    /// adds up case by case before anything is named.
    pub fn counters(&self) -> PeerCounters {
        PeerCounters([
            self.aborts_received,
            self.aborts_sent,
            self.acks_alone,
            self.acks_carried,
            self.alternatives_used,
            self.comp_cost_nodes,
            self.compensations_executed,
            self.completed,
            self.crash_recoveries,
            self.detections.len() as u64,
            self.dup_suppressed,
            self.faults_raised,
            self.inquiries,
            self.keepalive_probes,
            self.keepalive_suppressed,
            self.late_messages,
            self.orphan_stops,
            self.presumed_aborts,
            self.redirects_received,
            self.redirects_sent,
            self.retransmit_giveups,
            self.retransmits,
            self.retries,
            self.seen_peak,
            self.served,
            self.storage_faults,
            self.substitutions,
            self.work_reused,
            self.work_wasted,
        ])
    }
}

/// A peer's [`PeerStats`] as plain numbers, one per name of
/// [`PeerCounters::NAMES`] and in that order (`detections` is their
/// count). Rows of many runs merge without a key; names are given only
/// when a registry is rendered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters(pub [u64; PeerCounters::NAMES.len()]);

impl PeerCounters {
    /// The counter names, sorted: the `peer.<id>.` suffixes of a registry.
    pub const NAMES: [&'static str; 29] = [
        "aborts_received",
        "aborts_sent",
        "acks_alone",
        "acks_carried",
        "alternatives_used",
        "comp_cost_nodes",
        "compensations_executed",
        "completed",
        "crash_recoveries",
        "detections",
        "dup_suppressed",
        "faults_raised",
        "inquiries",
        "keepalive_probes",
        "keepalive_suppressed",
        "late_messages",
        "orphan_stops",
        "presumed_aborts",
        "redirects_received",
        "redirects_sent",
        "retransmit_giveups",
        "retransmits",
        "retries",
        "seen_peak",
        "served",
        "storage_faults",
        "substitutions",
        "work_reused",
        "work_wasted",
    ];

    /// Adds another row into this one under the registry's merge rule
    /// ([`axml_p2p::Snapshot::absorb`]): counters sum, the high-water
    /// mark (`*_peak`) takes the max.
    pub fn merge(&mut self, other: &PeerCounters) {
        for ((slot, value), name) in self.0.iter_mut().zip(other.0).zip(Self::NAMES) {
            *slot = if name.ends_with("_peak") { (*slot).max(value) } else { *slot + value };
        }
    }

    /// Appends the row to `out` as `peer.<id>.<name>` pairs, in name
    /// order — one key allocation per counter and nothing else, so a
    /// registry over many peers can be built from one sorted list.
    pub fn counters_into(&self, peer: PeerId, out: &mut Vec<(String, u64)>) {
        let prefix = format!("peer.{}.", peer.0);
        out.extend(Self::NAMES.iter().zip(self.0).map(|(name, value)| ([prefix.as_str(), name].concat(), value)));
    }
}

/// Where a child invocation's results go.
#[derive(Debug, Clone)]
enum ChildTarget {
    /// Materialize into an `axml:sc` element of a hosted document.
    ApplySc { doc: String, sc_path: NodePath },
    /// Fill a parameter value (local nesting across peers).
    ParamFill { node: NodeId },
}

/// Bookkeeping for one outstanding child invocation.
#[derive(Debug, Clone)]
pub(crate) struct WaitingChild {
    txn: TxnId,
    serving_inv: InvocationId,
    child_peer: PeerId,
    method: String,
    params: Vec<(String, String)>,
    target: ChildTarget,
    handlers: Vec<axml_doc::FaultHandler>,
    retries_left: u32,
    attempted: Vec<PeerId>,
}

impl WaitingChild {
    /// The wait for `call`, resolved to `params` and issued to `peer` for
    /// `txn`'s serving `serving_inv`, with the retries its handlers grant.
    fn new(
        txn: TxnId,
        serving_inv: InvocationId,
        call: ServiceCall,
        target: ChildTarget,
        peer: PeerId,
        params: Vec<(String, String)>,
    ) -> WaitingChild {
        let retries_left = call.handlers.iter().find_map(|h| match &h.action {
            axml_doc::HandlerAction::Retry { times, .. } => Some(*times),
            _ => None,
        });
        WaitingChild {
            txn,
            serving_inv,
            child_peer: peer,
            method: call.method.to_string(),
            params,
            target,
            handlers: call.handlers,
            retries_left: retries_left.unwrap_or(0),
            attempted: vec![peer],
        }
    }
}

/// One invocation this peer is processing.
#[derive(Debug, Clone)]
struct Serving {
    txn: TxnId,
    inv: InvocationId,
    reply_to: Option<PeerId>,
    method: String,
    params: Vec<(String, String)>,
    pending: BTreeSet<InvocationId>,
    prefilled: Vec<(String, Vec<Fragment>)>,
    done_sc: BTreeSet<NodeId>,
    param_cache: BTreeMap<NodeId, String>,
    rounds: usize,
}

impl Serving {
    /// A serving of `method` for `txn` that has issued nothing yet;
    /// `reply_to` is its invoker, none at the origin.
    fn new(
        txn: TxnId,
        inv: InvocationId,
        reply_to: Option<PeerId>,
        method: &str,
        params: Vec<(String, String)>,
        prefilled: Vec<(String, Vec<Fragment>)>,
    ) -> Serving {
        Serving {
            txn,
            inv,
            reply_to,
            method: method.to_string(),
            params,
            pending: BTreeSet::new(),
            prefilled,
            done_sc: BTreeSet::new(),
            param_cache: BTreeMap::new(),
            rounds: 0,
        }
    }
}

/// Everything a peer holds for one transaction: §3.2's context, and what
/// it keeps beside it until [`AxmlPeer::decide`] lets it go.
#[derive(Debug)]
struct Txn {
    tc: TransactionContext,
    /// The result returned — method, items and compensation bundle — kept
    /// for a re-route should its consumer vanish.
    returned: Option<(String, Arc<[Fragment]>, CompBundle)>,
    /// The parent keep-alive-watched while that result awaits its
    /// resolution: one gone after the result left is detected here.
    watched: Option<PeerId>,
    /// The decision timer, while the decision is awaited (spec rule R12).
    decision_timer: Option<u64>,
    /// Results orphans re-routed here, for a re-invoked service to reuse.
    prefill: Vec<(String, Vec<Fragment>)>,
}

/// What a timer is for: the kinds of the peer's one `Timers` registry,
/// each with its reconnect rule in `on_reconnect`.
#[derive(Debug)]
pub(crate) enum Timer {
    /// The simulated processing duration elapsed: finish the serving.
    ServiceDone(InvocationId),
    /// Re-issue a child invocation (handler retry, possibly to a replica).
    RetryChild {
        wc: WaitingChild,
        /// The failed invocation id still held in the serving's pending
        /// set; swapped for the fresh one at reissue time.
        placeholder: InvocationId,
    },
    /// The decision timeout of a participant awaiting `txn`'s outcome
    /// that has sent `inquiries` inquiries.
    Decision { txn: TxnId, inquiries: u32 },
    /// Retransmit an unacked reliable delivery (by delivery id).
    Retransmit(u64),
    /// Send the acknowledgements held for an answer that did not come.
    AckHold,
    /// Probe the watched links that fell idle.
    KeepAlive,
    /// Stream to the siblings and check theirs.
    Stream,
}

/// WSDL knowledge shared across the fabric: method → declared result
/// element names (drives lazy relevance for *remote* calls). Copy-on-write:
/// clones share the entries until one of them publishes.
#[derive(Debug, Clone, Default)]
pub struct WsdlCatalog {
    entries: Arc<BTreeMap<String, Vec<String>>>,
}

impl WsdlCatalog {
    /// Publishes a service's declared result names.
    ///
    /// List the full result *vocabulary* (every element name the result
    /// schema can contain), not just top-level elements: lazy relevance
    /// analysis intersects these names with the query's name tests, and a
    /// query selecting a descendant of the result (e.g. `citizenship`
    /// inside a returned `player`) must still trigger the call.
    pub fn publish(&mut self, method: impl Into<String>, result_names: &[&str]) {
        Arc::make_mut(&mut self.entries).insert(method.into(), result_names.iter().map(|s| s.to_string()).collect());
    }

    /// Declared result names for a method.
    pub fn hints(&self, method: &str) -> Option<&[String]> {
        self.entries.get(method).map(Vec::as_slice)
    }
}

/// Invoker adapter used only for relevance probing (never invokes).
struct HintOnly<'a> {
    catalog: &'a WsdlCatalog,
}

impl ServiceInvoker for HintOnly<'_> {
    fn invoke(&mut self, call: &ResolvedCall) -> Result<axml_doc::ServiceResponse, Fault> {
        Err(Fault::execution(format!("hint-only invoker cannot invoke {}", call.method)))
    }

    fn result_hints(&self, call: &ResolvedCall) -> Option<Vec<String>> {
        self.catalog.hints(&call.method).map(<[String]>::to_vec)
    }
}

/// A transactional AXML peer (one simulator actor).
pub struct AxmlPeer {
    /// This peer's id.
    pub id: PeerId,
    /// Protocol configuration.
    pub config: PeerConfig,
    /// Hosted documents.
    pub repo: Repository,
    /// Exposed services.
    pub registry: ServiceRegistry,
    /// Replica/provider knowledge.
    pub directory: Directory,
    /// Materialization engine (mode + externals).
    pub engine: MaterializationEngine,
    /// Published WSDLs (shared fabric knowledge).
    pub wsdl: WsdlCatalog,
    /// Transaction to submit when timer tag 0 fires.
    pub auto_submit: Option<(String, Vec<(String, String)>)>,
    /// Counters.
    pub stats: PeerStats,
    /// Outcomes of transactions originated here.
    pub outcomes: Vec<TxnOutcome>,
    /// Results of committed transactions originated here.
    pub results: BTreeMap<TxnId, Vec<Fragment>>,
    /// Every transaction this peer has taken part in.
    txns: BTreeMap<TxnId, Txn>,
    /// How many of `txns` are still [`TxnState::Active`] — the
    /// `in_flight_txns` gauge, kept by [`Self::insert_context`] and
    /// [`Self::decide`] so a sample need not walk every context
    /// this peer has ever held.
    active_contexts: usize,
    servings: BTreeMap<InvocationId, Serving>,
    waiting: BTreeMap<InvocationId, WaitingChild>,
    /// Every timer this peer has set, by what it is for.
    timers: Timers,
    /// At-least-once delivery under the protocol.
    delivery: Delivery,
    /// Keep-alive and sibling-stream failure detection.
    detector: Detector,
    /// Id counters, namespaced by the crash-restart incarnation so a
    /// restarted peer reuses no id that may still be live.
    next_inv: u64,
    next_txn: u64,
    /// The durable journal. Every entry is made durable before its
    /// consequences escape; on crash-restart it holds only what survived.
    journal: Journal,
    /// Scratch list of peers — the ping tick's probes and suspects, a
    /// gossip round's targets — taken, filled, and put back empty, so
    /// neither job allocates.
    peer_buf: Vec<PeerId>,
}

impl AxmlPeer {
    /// Builds a peer that knows no replica, provider or WSDL yet.
    pub fn new(id: PeerId, config: PeerConfig) -> AxmlPeer {
        AxmlPeer::on_fabric(id, config, Directory::new(), WsdlCatalog::default())
    }

    /// Builds a peer holding the fabric's `directory` and `wsdl` — both
    /// copy-on-write, so every peer of a fabric shares one of each.
    pub fn on_fabric(id: PeerId, config: PeerConfig, directory: Directory, wsdl: WsdlCatalog) -> AxmlPeer {
        AxmlPeer {
            id,
            engine: MaterializationEngine::new(config.eval),
            delivery: Delivery::new(config.dedup),
            detector: Detector::new(&config),
            config,
            repo: Repository::new(),
            registry: ServiceRegistry::new(),
            directory,
            wsdl,
            auto_submit: None,
            stats: PeerStats::default(),
            outcomes: Vec::new(),
            results: BTreeMap::new(),
            txns: BTreeMap::new(),
            active_contexts: 0,
            servings: BTreeMap::new(),
            waiting: BTreeMap::new(),
            timers: Timers::default(),
            next_inv: 0,
            next_txn: 0,
            journal: Journal::default(),
            peer_buf: Vec::new(),
        }
    }

    /// The context of a transaction, if this peer participated.
    pub fn context(&self, txn: TxnId) -> Option<&TransactionContext> {
        self.txns.get(&txn).map(|t| &t.tc)
    }

    /// All transaction ids this peer has contexts for.
    pub fn known_txns(&self) -> Vec<TxnId> {
        self.txns.keys().copied().collect()
    }

    /// Adds `tc` as its transaction's context. A peer that re-joins
    /// replaces its older, terminal context and keeps the prefill.
    fn insert_context(&mut self, tc: TransactionContext) {
        self.active_contexts += usize::from(!tc.is_terminal());
        let held = self.txns.remove(&tc.txn);
        self.active_contexts -= held.as_ref().map_or(0, |t| usize::from(!t.tc.is_terminal()));
        let prefill = held.map(|t| t.prefill).unwrap_or_default();
        self.txns.insert(tc.txn, Txn { tc, returned: None, watched: None, decision_timer: None, prefill });
    }

    /// Records `txn`, unknown here, as begun with nothing done, for the
    /// caller to decide at once: an `Abort` or `Compensate` overtook the
    /// `Invoke`, or a compensation targets a replica. The decided tombstone
    /// refuses the late `Invoke` instead of resurrecting the transaction.
    fn tombstone(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let chain = ActiveList::new(txn.origin, false);
        self.journal_append_forced(ctx, JournalEntry::Begin { txn, parent: None, chain: chain.clone(), at: ctx.now() });
        self.insert_context(TransactionContext::new(txn, None, chain, ctx.now()));
    }

    /// Decides `txn` here, the first decision winning: the context turns
    /// terminal, the decision is journaled and traced (under `span`, the
    /// origin's deciding serving), and the transaction is let go, here
    /// only: its returned result, parent watch, decision timer and the
    /// dedup entries the decision frees. False, changing nothing, if there
    /// is no context or it is decided already.
    ///
    /// Two releases stay asymmetric, each measured (DESIGN.md §8):
    /// - Sibling streams end on a commit only. Ending them on an abort too
    ///   moves the gen-sweep from 523 / 757 commits / aborts to 527 / 753
    ///   and `false_suspicions` from 233 to 237.
    /// - The prefill outlives the decision: a peer re-invoked after its
    ///   abort re-joins, and its serving reuses it. Freeing it here moves
    ///   the gen-sweep to 524 / 756.
    fn decide(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, span: Option<InvocationId>, committed: bool) -> bool {
        let state = if committed { TxnState::Committed } else { TxnState::Aborted };
        let Some(t) = self.txns.get_mut(&txn).filter(|t| !t.tc.is_terminal()) else { return false };
        t.tc.resolve(state, ctx.now());
        t.returned = None;
        let (watched, timer) = (t.watched.take(), t.decision_timer.take());
        self.active_contexts -= 1;
        if let Some(tag) = timer {
            self.timers.cancel(ctx, tag);
        }
        if let Some(parent) = watched {
            self.detector.unwatch(parent);
        }
        if committed {
            self.detector.end_streams(txn);
        }
        self.journal_append_forced(ctx, JournalEntry::Resolved { txn, committed, at: ctx.now() });
        self.emit(ctx, Some(txn), span, None, || EventKind::Resolve { committed });
        self.delivery.finalized(ctx, txn, committed);
        true
    }

    /// Records the outcome of `txn`, decided at its origin here.
    fn record_outcome(&mut self, ctx: &Ctx<'_>, txn: TxnId, committed: bool) {
        if let Some(started_at) = self.context(txn).map(|tc| tc.created_at) {
            self.outcomes.push(TxnOutcome { txn, committed, started_at, resolved_at: ctx.now() });
        }
    }

    /// How many of this peer's transaction contexts are still undecided.
    pub fn open_contexts(&self) -> usize {
        self.active_contexts
    }

    /// This peer's undecided transactions, each with where it stands:
    /// `"serving"`, or `"awaiting the decision"` once its result has left.
    pub fn undecided(&self) -> impl Iterator<Item = (TxnId, &'static str)> + '_ {
        self.txns.values().map(|t| &t.tc).filter(|tc| !tc.is_terminal()).map(|tc| {
            let serving = self.servings.values().any(|s| s.txn == tc.txn);
            (tc.txn, if serving { "serving" } else { "awaiting the decision" })
        })
    }

    /// True if the peer has no in-flight work.
    pub fn is_quiescent(&self) -> bool {
        self.servings.is_empty() && self.waiting.is_empty() && self.delivery.unacked() == 0
    }

    /// The durable journal accumulated so far (with a sink, the entries it
    /// acknowledged; after a restart, what survived the crash).
    pub fn journal(&self) -> &[JournalEntry] {
        self.journal.entries()
    }

    /// Sets the durability sink (e.g. an on-disk WAL). Entries already
    /// journaled are carried over so the sink holds the full durable
    /// history; normally called right after construction, before the peer
    /// runs. Without one the journal itself is perfectly durable storage.
    pub fn set_durability_sink(&mut self, sink: Box<dyn DurabilitySink>) {
        self.journal.set_sink(sink);
    }

    /// The journal's stable-storage activity counters (`wal.*`).
    pub fn wal_stats(&self) -> WalStats {
        self.journal.stats()
    }

    /// Peers currently being kept alive by this peer's failure detector
    /// (diagnostics; empty when quiescent).
    pub fn watched_peers(&self) -> Vec<PeerId> {
        self.detector.watched().collect()
    }

    fn alloc_inv(&mut self, ctx: &Ctx<'_>) -> InvocationId {
        let inv = InvocationId::new(self.id, (ctx.incarnation() << 48) | self.next_inv);
        self.next_inv += 1;
        inv
    }

    // ------------------------------------------------------------------
    // Lifecycle tracing.
    // ------------------------------------------------------------------

    /// Emits one lifecycle event. `kind` builds the payload and runs only
    /// when the run is traced, so an untraced run formats and copies
    /// nothing. Ids travel as the trace crate's own `Copy` ids, which sit
    /// below the protocol layer; their text is produced when a journal is
    /// written.
    fn emit(
        &self,
        ctx: &mut Ctx<'_>,
        txn: Option<TxnId>,
        span: Option<InvocationId>,
        parent: Option<InvocationId>,
        kind: impl FnOnce() -> EventKind,
    ) {
        if ctx.tracing() {
            ctx.emit(txn.map(Into::into), span.map(Into::into), parent.map(Into::into), kind());
        }
    }

    /// Appends to the durability journal. Returns `false` on a storage
    /// fault: the entry is NOT durable (nothing is traced or kept) and the
    /// caller must roll back whatever the entry was about to make durable.
    #[must_use]
    fn journal_append(&mut self, ctx: &mut Ctx<'_>, entry: JournalEntry) -> bool {
        let Some(entry) = self.journal.append(entry) else {
            self.stats.storage_faults += 1;
            return false;
        };
        trace_journaled(ctx, entry);
        true
    }

    /// Appends a decision record or cross-peer obligation, forcing it
    /// through transient storage faults (the sink retries until the write
    /// is durable). Used wherever losing the entry would break atomicity
    /// rather than merely fail one serving: `Resolved` decisions,
    /// `RemoteInvoked` obligations, tombstones, recovery records.
    fn journal_append_forced(&mut self, ctx: &mut Ctx<'_>, entry: JournalEntry) {
        trace_journaled(ctx, self.journal.append_forced(entry));
    }

    // ------------------------------------------------------------------
    // At-least-once delivery, and what a delivery given up means.
    // ------------------------------------------------------------------

    /// Current size of the `(sender, id)` dedup set (harness-visible so
    /// chaos profiles can assert boundedness).
    pub fn seen_deliveries_len(&self) -> usize {
        self.delivery.seen_len()
    }

    /// Sends a protocol message at least once (`Delivery::send`).
    fn send_reliable(&mut self, ctx: &mut Ctx<'_>, to: PeerId, msg: TxnMsg) -> Result<(), SendError> {
        self.delivery.send(ctx, &mut self.timers, &mut self.stats, to, msg)
    }

    /// A reliable delivery was given up, its receiver's silence detected
    /// `how`: react per payload kind.
    fn delivery_failed(&mut self, ctx: &mut Ctx<'_>, (pending, how): (Pending, DetectHow)) {
        self.record_detection(ctx, pending.to, how);
        match *pending.msg {
            TxnMsg::Invoke { inv, .. } => {
                // The child never acknowledged the invocation: same
                // recovery decision point as a detected disconnection.
                self.child_failed(ctx, inv, Fault::peer_unreachable(format!("{} never acked", pending.to)));
            }
            TxnMsg::Result { txn, .. } => {
                // The parent never consumed our result: re-offer the work
                // up the chain (scenario (b)), unless the transaction has
                // resolved here meanwhile.
                self.reroute_past_dead_parent(ctx, txn, pending.to);
            }
            TxnMsg::Fault { txn, .. } => {
                // The upward abort never got through: route the bad news
                // past the silent parent via the chain.
                self.notice_ancestors(ctx, txn, pending.to);
            }
            // Abort, compensation and notice messages are best-effort past
            // the retransmission budget: receivers that missed them
            // converge through their own detection (pings, notices,
            // redirects) or, once their result has left, by inquiring.
            _ => {}
        }
    }

    /// Tells the nearest reachable non-`dead` ancestor (from the chain)
    /// that `dead` is gone — the fallback when bad news cannot be
    /// delivered to the parent directly.
    fn notice_ancestors(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, dead: PeerId) {
        if !self.config.chaining {
            return;
        }
        let Some(chain) = self.context(txn).map(|tc| tc.chain.clone()) else { return };
        for target in chain.ancestors_of(self.id).into_iter().filter(|p| *p != dead) {
            if self.send_reliable(ctx, target, TxnMsg::DisconnectNotice { txn, disconnected: dead }).is_ok() {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Submission (origin side).
    // ------------------------------------------------------------------

    /// Submits a transaction at this peer: invoke local service `method`.
    /// Returns the new transaction id. (Spec rule **R01**.)
    pub fn submit(&mut self, ctx: &mut Ctx<'_>, method: &str, params: Vec<(String, String)>) -> TxnId {
        let txn = TxnId::new(self.id, (ctx.incarnation() << 48) | self.next_txn);
        self.next_txn += 1;
        let chain = ActiveList::new(self.id, self.config.is_super);
        let tc = TransactionContext::new(txn, None, chain.clone(), ctx.now());
        self.journal_append_forced(ctx, JournalEntry::Begin { txn, parent: None, chain, at: ctx.now() });
        self.insert_context(tc);
        let inv = self.alloc_inv(ctx);
        self.emit(ctx, Some(txn), Some(inv), None, || EventKind::Submit { method: method.to_string() });
        self.stats.served += 1;
        self.servings.insert(inv, Serving::new(txn, inv, None, method, params, Vec::new()));
        self.advance_serving(ctx, inv);
        txn
    }

    // ------------------------------------------------------------------
    // Serving: wave-based materialization, then execution.
    // ------------------------------------------------------------------

    /// Accepts an `Invoke` and starts serving it. (Spec rule **R02**;
    /// re-serving after churn re-arms the peer's obligations, which the
    /// conformance checker models as a frame reset.)
    #[allow(clippy::too_many_arguments)]
    fn handle_invoke(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: PeerId,
        txn: TxnId,
        inv: InvocationId,
        method: &str,
        params: &[(String, String)],
        chain: &ActiveList,
        prefilled: &[(String, Vec<Fragment>)],
    ) {
        // An unserved method is refused before anything is journaled: a
        // context begun for it would have no serving, wait or timer to end it.
        if self.registry.get(method).is_none() {
            let fault = Fault::no_such_service(format!("{method} at {}", self.id));
            let _ = self.send_reliable(ctx, from, TxnMsg::Fault { txn, inv, fault });
            return;
        }
        // Context (re)use: one context per transaction per peer. A peer
        // whose context was *aborted* (e.g. the subtree failed and was
        // compensated) may legitimately be re-invoked during forward
        // recovery — it re-joins with a fresh context. A committed
        // context refuses.
        let rejoining = match self.context(txn) {
            Some(tc) if tc.state == TxnState::Committed => {
                let fault = Fault::txn_resolved(format!("{txn} already committed at {}", self.id));
                let _ = self.send_reliable(ctx, from, TxnMsg::Fault { txn, inv, fault });
                return;
            }
            Some(tc) if tc.is_terminal() => true,
            _ => false,
        };
        if rejoining || !self.txns.contains_key(&txn) {
            let tc = TransactionContext::new(txn, Some((from, inv)), chain.clone(), ctx.now());
            // The context must be durable before we take on the serving:
            // a crash after effects but before a recoverable Begin could
            // never be compensated. On a storage fault, refuse the work —
            // the invoker treats it like any other fault (retry,
            // alternative provider, or abort). The append must succeed
            // *before* a re-join discards the old aborted context: a
            // refusal that had already dropped it would forget the
            // terminal decision, and a retransmitted Abort would then
            // re-resolve through the tombstone path — a second terminal
            // decision for the same transaction.
            let begun = self.journal_append(
                ctx,
                JournalEntry::Begin { txn, parent: Some((from, inv)), chain: chain.clone(), at: ctx.now() },
            );
            if !begun {
                let fault = Fault::storage(format!("journal append failed at {}", self.id));
                let _ = self.send_reliable(ctx, from, TxnMsg::Fault { txn, inv, fault });
                return;
            }
            self.insert_context(tc);
        }
        let tc = &mut self.txns.get_mut(&txn).expect("inserted above").tc;
        // Adopt the (possibly richer) incoming chain, marking ourselves.
        tc.chain.merge_from(chain);
        if self.config.is_super {
            tc.chain.mark_super(self.id);
        }
        self.stats.served += 1;
        self.servings.insert(inv, Serving::new(txn, inv, Some(from), method, params.to_vec(), prefilled.to_vec()));
        self.emit(ctx, Some(txn), Some(inv), None, || EventKind::Serve { from: from.0, method: method.to_string() });
        self.detector.arm_stream(ctx, &mut self.timers);
        self.advance_serving(ctx, inv);
    }

    /// Issues the next wave of sub-invocations for a serving, or — when
    /// nothing is pending — schedules its completion.
    fn advance_serving(&mut self, ctx: &mut Ctx<'_>, serving_inv: InvocationId) {
        let Some(serving) = self.servings.get_mut(&serving_inv) else { return };
        if !serving.pending.is_empty() {
            return;
        }
        let txn = serving.txn;
        // The hosted document the service is declared over, if any.
        if let Some(doc_name) = service_doc(&self.registry, &serving.method) {
            serving.rounds += 1;
            if serving.rounds > MAX_DEPTH {
                let fault = Fault::execution(format!("materialization exceeded {MAX_DEPTH} waves"));
                self.fail_serving(ctx, serving_inv, fault);
                return;
            }
            // Scan the hosted document for embedded calls to handle. The
            // serving, the registry's query and the document are borrowed
            // side by side; only what a wave keeps is copied.
            let serving = &*serving;
            let Some(doc) = self.repo.get(doc_name) else {
                let fault = Fault::execution(format!("document {doc_name} missing at {}", self.id));
                self.fail_serving(ctx, serving_inv, fault);
                return;
            };
            let query = service_query(&self.registry, &serving.method);
            let hint = HintOnly { catalog: &self.wsdl };
            let mut to_issue: Vec<(ServiceCall, ChildTarget)> = Vec::new();
            for call in self.engine.calls_for_round(doc, query, &serving.done_sc, &hint) {
                let node = call.node.expect("scanned calls have nodes");
                let Ok(sc_path) = NodePath::of(doc, node) else { continue };
                to_issue.push((call, ChildTarget::ApplySc { doc: doc_name.to_string(), sc_path }));
            }
            if !to_issue.is_empty() {
                self.issue_wave(ctx, serving_inv, txn, to_issue);
                // The wave may have failed the serving synchronously
                // (e.g. unreachable child with no forward recovery).
                let Some(serving) = self.servings.get(&serving_inv) else { return };
                if !serving.pending.is_empty() {
                    return;
                }
                // Everything in the wave was prefilled/local-cached:
                // immediately look for the next wave.
                self.advance_serving(ctx, serving_inv);
                return;
            }
        }
        // Nothing (left) to materialize: run the service body after its
        // simulated duration.
        let Some(serving) = self.servings.get(&serving_inv) else { return };
        let duration = self.registry.get(&serving.method).map(|d| d.duration).unwrap_or(1);
        self.timers.set(ctx, duration, Timer::ServiceDone(serving_inv));
    }

    /// Issues one wave of child invocations (applying prefills first).
    fn issue_wave(
        &mut self,
        ctx: &mut Ctx<'_>,
        serving_inv: InvocationId,
        txn: TxnId,
        to_issue: Vec<(ServiceCall, ChildTarget)>,
    ) {
        // First, extend the chain with the whole wave so every child sees
        // its siblings (the paper's scenario (d) relies on this).
        let mut wave: Vec<WaitingChild> = Vec::new();
        for (call, target) in to_issue {
            // The serving can disappear mid-wave: issuing to an
            // unreachable peer without forward recovery fails it.
            let Some(serving) = self.servings.get_mut(&serving_inv) else { return };
            let node = call.node.expect("scanned calls have nodes");
            // Mark handled regardless of outcome (faults go through
            // recovery, not re-scanning).
            serving.done_sc.insert(node);
            // Prefill reuse (scenario (b)): results forwarded from an
            // orphaned peer stand in for the invocation.
            let prefilled_items =
                serving.prefilled.iter().find(|(m, _)| *m == call.method).map(|(_, items)| items.clone());
            if let Some(items) = prefilled_items {
                self.stats.work_reused += 1;
                self.apply_child_items(ctx, txn, serving_inv, target, &call.method, &items);
                continue;
            }
            // Resolve parameters; remote param-calls become waiting
            // children of their own.
            match self.resolve_params_for(serving_inv, &call) {
                Err(NeedParams(nested)) => {
                    for nc in nested {
                        let Some(pnode) = nc.node else { continue };
                        let params = match self.resolve_params_for(serving_inv, &nc) {
                            Ok(p) => p,
                            Err(_) => continue, // deeper nesting resolves in later waves
                        };
                        let peer = PeerId::from_url(&nc.service_url).unwrap_or(self.id);
                        wave.push(WaitingChild::new(
                            txn,
                            serving_inv,
                            nc,
                            ChildTarget::ParamFill { node: pnode },
                            peer,
                            params,
                        ));
                    }
                    // Un-mark the outer call: it re-enters a later wave
                    // once its params are cached.
                    if let Some(s) = self.servings.get_mut(&serving_inv) {
                        s.done_sc.remove(&node);
                    }
                }
                Ok(params) => {
                    let peer = PeerId::from_url(&call.service_url).unwrap_or(self.id);
                    wave.push(WaitingChild::new(txn, serving_inv, call, target, peer, params));
                }
            }
        }
        // Chain first…
        {
            let my_super = self.config.is_super;
            let chaining = self.config.chaining;
            if let Some(Txn { tc, .. }) = self.txns.get_mut(&txn) {
                if chaining {
                    if !tc.chain.contains(self.id) {
                        // Shouldn't happen (parent added us), but be safe.
                        tc.chain = ActiveList::new(self.id, my_super);
                    }
                    for wc in &wave {
                        tc.chain.add_invocation(self.id, wc.child_peer, false);
                    }
                }
            }
        }
        // …then send. Every `Invoke` of the wave carries the chain as it
        // stands now, whole wave included.
        let grew = !wave.is_empty();
        for wc in wave {
            if !self.servings.contains_key(&serving_inv) {
                return; // a send failure already failed this serving
            }
            self.invoke(ctx, wc);
        }
        if grew {
            // Share the new edges with the parent, the siblings and the
            // children of earlier waves so they can act on disconnections
            // (scenarios (c)/(d)).
            // A serving issues a wave only once the one before has been
            // answered, so the children it awaits are those just invoked,
            // each handed this very chain by its `Invoke`.
            self.gossip_chain(ctx, txn, |me, t| {
                me.waiting.values().any(|wc| wc.serving_inv == serving_inv && wc.child_peer == t)
            });
        }
    }

    /// `of`'s gossip scope in `chain`: parent, children and siblings — the
    /// paper's chaining scope.
    fn gossip_scope(chain: &ActiveList, of: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        chain.parent_of(of).into_iter().chain(chain.children(of)).chain(chain.siblings(of))
    }

    /// Shares this peer's chain view with its gossip scope, one update per
    /// peer in peer order, leaving out the peers that hold it already. An
    /// update carries the acknowledgements owed to its target.
    fn gossip_chain(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, holds_it: impl Fn(&AxmlPeer, PeerId) -> bool) {
        if !self.config.chaining {
            return;
        }
        // Every target receives the same allocation.
        let Some(chain) = self.context(txn).map(|tc| tc.chain.clone()) else { return };
        let mut targets = std::mem::take(&mut self.peer_buf);
        targets.extend(Self::gossip_scope(&chain, self.id));
        targets.sort();
        targets.dedup();
        for &t in &targets {
            if t == self.id || holds_it(self, t) {
                continue;
            }
            let acks = self.delivery.carry(ctx, &mut self.timers, &mut self.stats, t);
            let _ = ctx.send(t, TxnMsg::ChainUpdate { txn, chain: chain.clone(), acks });
        }
        targets.clear();
        self.peer_buf = targets;
    }

    /// Merges the chain `from` sent and, when it taught something, relays
    /// the merged chain (monotone merge ⇒ convergence) — beyond `from`'s
    /// own gossip scope only, which `from` tells first-hand. That scope is
    /// read off the chain `from` sent, not off the merged one: `from` has
    /// told the peers it knew of, and one it did not know is still owed
    /// the news by whoever does.
    fn learn_chain(&mut self, ctx: &mut Ctx<'_>, from: PeerId, txn: TxnId, theirs: &ActiveList) {
        if self.txns.get_mut(&txn).is_some_and(|t| t.tc.chain.merge_from(theirs)) {
            self.gossip_chain(ctx, txn, |_, t| t == from || Self::gossip_scope(theirs, from).any(|told| told == t));
        }
    }

    /// Invokes `wc`'s child, logged (with its chain edge) and journaled
    /// before the `Invoke` leaves: a crash between send and append would
    /// orphan the child subtree, which would never be aborted.
    fn invoke(&mut self, ctx: &mut Ctx<'_>, wc: WaitingChild) {
        let (txn, peer, serving_inv) = (wc.txn, wc.child_peer, wc.serving_inv);
        let inv = self.alloc_inv(ctx);
        if let Some(Txn { tc, .. }) = self.txns.get_mut(&txn) {
            tc.record_remote(peer, inv, wc.method.as_str());
            if self.config.chaining {
                tc.chain.add_invocation(self.id, peer, false);
            }
            let method = wc.method.clone();
            self.journal_append_forced(ctx, JournalEntry::RemoteInvoked { txn, child: peer, inv, method });
        }
        self.emit(ctx, Some(txn), Some(inv), Some(serving_inv), || EventKind::Invoke {
            to: peer.0,
            method: wc.method.clone(),
        });
        let chain = self.current_chain(txn);
        let prefilled = self.txns.get(&txn).map(|t| t.prefill.clone()).unwrap_or_default();
        let msg = TxnMsg::Invoke { txn, inv, method: wc.method.clone(), params: wc.params.clone(), chain, prefilled };
        self.waiting.insert(inv, wc);
        if let Some(s) = self.servings.get_mut(&serving_inv) {
            s.pending.insert(inv);
        }
        match self.send_reliable(ctx, peer, msg) {
            Ok(()) => self.detector.watch(ctx, &mut self.timers, peer),
            Err(_) => {
                self.record_detection(ctx, peer, DetectHow::SendFailure);
                self.child_failed(ctx, inv, Fault::peer_unreachable(format!("{peer} unreachable")));
            }
        }
    }

    /// The chain to piggyback on invocations. A singleton when chaining is
    /// disabled (children then know nothing beyond their invoker).
    fn current_chain(&self, txn: TxnId) -> ActiveList {
        let known = self.context(txn).filter(|_| self.config.chaining);
        known.map(|tc| tc.chain.clone()).unwrap_or_else(|| ActiveList::new(self.id, self.config.is_super))
    }

    fn resolve_params_for(
        &self,
        serving_inv: InvocationId,
        call: &ServiceCall,
    ) -> Result<Vec<(String, String)>, NeedParams> {
        let Some(serving) = self.servings.get(&serving_inv) else {
            return Err(NeedParams(Vec::new()));
        };
        let mut out = Vec::with_capacity(call.params.len());
        let mut needed = Vec::new();
        for p in &call.params {
            match &p.value {
                ParamValue::Literal(v) => out.push((p.name.clone(), v.clone())),
                ParamValue::External(name) => {
                    let v = self.engine.externals.get(name).cloned().unwrap_or_default();
                    out.push((p.name.clone(), v));
                }
                ParamValue::Xml(frags) => {
                    out.push((p.name.clone(), frags.iter().map(Fragment::text_content).collect()))
                }
                ParamValue::Call(nested) => match nested.node.and_then(|n| serving.param_cache.get(&n)) {
                    Some(v) => out.push((p.name.clone(), v.clone())),
                    None => needed.push((**nested).clone()),
                },
            }
        }
        if needed.is_empty() {
            Ok(out)
        } else {
            Err(NeedParams(needed))
        }
    }

    /// The effect barrier: `effects`, just applied to `doc` by a serving
    /// of `txn`, are journaled and logged as `op_label`. A refused append
    /// undoes them — effects may not outlive an unlogged record — and
    /// fails the serving: false. A materialization's item count is traced
    /// first.
    #[allow(clippy::too_many_arguments)]
    fn keep_effects(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        serving_inv: InvocationId,
        doc: String,
        effects: Arc<[Effect]>,
        op_label: impl FnOnce() -> String,
        materialized: Option<usize>,
    ) -> bool {
        if !self.txns.contains_key(&txn) {
            return true;
        }
        if let Some(items) = materialized {
            self.emit(ctx, Some(txn), Some(serving_inv), None, || EventKind::Materialize {
                doc: doc.clone(),
                items: items as u64,
            });
        }
        if effects.is_empty() {
            return true; // nothing to compensate, nothing to log
        }
        let op_label = op_label();
        let entry =
            JournalEntry::Local { txn, doc: doc.clone(), op_label: op_label.clone(), effects: Arc::clone(&effects) };
        if self.journal_append(ctx, entry) {
            if let Some(Txn { tc, .. }) = self.txns.get_mut(&txn) {
                tc.record_local(doc, op_label, effects);
            }
            return true;
        }
        if let Some(document) = self.repo.get_mut(&doc) {
            let _ = crate::compensate::apply_compensation(document, &compensation_for_effects(&effects));
        }
        self.fail_serving(ctx, serving_inv, Fault::storage(format!("journal append failed at {}", self.id)));
        false
    }

    /// Applies a child's result items to its target, logging effects.
    /// (Spec rule **R03**: materialization must precede the local
    /// resolve, and each logged effect is a compensation obligation.)
    fn apply_child_items(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        serving_inv: InvocationId,
        target: ChildTarget,
        method: &str,
        items: &[Fragment],
    ) {
        match target {
            ChildTarget::ApplySc { doc, sc_path } => {
                // One allocation from here on: the journal entry and the
                // context's log record share it.
                let effects: Arc<[Effect]> = {
                    let Some(document) = self.repo.get_mut(&doc) else { return };
                    let Ok(sc_node) = sc_path.resolve(document) else { return };
                    let Some(call) = ServiceCall::parse(document, sc_node) else { return };
                    match apply_call_results(document, &call, sc_node, items) {
                        Ok(effects) => effects.into(),
                        Err(_) => return, // surfaced at execution
                    }
                };
                let op_label = || format!("materialize {method}");
                self.keep_effects(ctx, txn, serving_inv, doc, effects, op_label, Some(items.len()));
            }
            ChildTarget::ParamFill { node } => {
                if let Some(s) = self.servings.get_mut(&serving_inv) {
                    let text: String = items.iter().map(Fragment::text_content).collect();
                    s.param_cache.insert(node, text);
                }
            }
        }
    }

    /// Runs the service body once every sub-invocation is in. (Spec rule
    /// **R04**: a completion at the origin is the commit decision.)
    fn complete_serving(&mut self, ctx: &mut Ctx<'_>, serving_inv: InvocationId) {
        let Some(serving) = self.servings.get(&serving_inv) else { return };
        let txn = serving.txn;
        if self.context(txn).map(|t| t.is_terminal()).unwrap_or(true) {
            // Resolved while we were processing: the work is moot.
            if let Some(serving) = self.servings.remove(&serving_inv) {
                self.waste(ctx, serving, "resolved");
            }
            return;
        }
        // The definition and the serving's parameters are read where they
        // live; only an update's log records copy any of it.
        let Some(def) = self.registry.get(&serving.method) else {
            let fault = Fault::no_such_service(serving.method.clone());
            self.fail_serving(ctx, serving_inv, fault);
            return;
        };
        match def.execute(&serving.params, &mut self.repo) {
            Err(fault) => {
                self.stats.faults_raised += 1;
                self.fail_serving(ctx, serving_inv, fault);
            }
            Ok(resp) => {
                // Shared from here on, as in `apply_child_items`.
                let effects: Arc<[Effect]> = resp.effects.into();
                // A body with effects is an update over a hosted document.
                let updated = if effects.is_empty() { None } else { service_doc(&self.registry, &serving.method) };
                if let Some(doc) = updated.map(str::to_string) {
                    let method = serving.method.clone();
                    if !self.keep_effects(ctx, txn, serving_inv, doc, effects, || method, None) {
                        return;
                    }
                }
                self.finish_serving(ctx, serving_inv, resp.items);
            }
        }
    }

    /// Ships a successful serving's results. (Spec rule **R04**; after
    /// the resolve the frame is terminal — invariant I3 forbids any
    /// further activity under this transaction.)
    fn finish_serving(&mut self, ctx: &mut Ctx<'_>, serving_inv: InvocationId, items: Vec<Fragment>) {
        let Some(serving) = self.servings.remove(&serving_inv) else { return };
        let txn = serving.txn;
        self.stats.completed += 1;
        let comp: CompBundle = if self.config.peer_independent {
            let mut bundle = Vec::new();
            if let Some(tc) = self.context(txn) {
                let own = tc.own_compensation();
                if !own.is_empty() {
                    bundle.push((self.id, own));
                }
                bundle.extend(tc.child_compensations());
            }
            bundle
        } else {
            Vec::new()
        };
        match serving.reply_to {
            None => {
                // Origin root: the transaction commits. With chaining on,
                // fan the Commit out to *every* chained participant (the
                // gossiped active list) — a dead intermediate peer then
                // cannot cut its descendants off from the decision — and
                // name them in it, so nobody tells them again. Without
                // chaining, cascade through direct invokees only. Each
                // leaves once: a participant that misses it inquires.
                let (mut targets, covered) = match self.context(txn) {
                    Some(tc) => (tc.invoked_peers(), self.config.chaining.then(|| tc.chain.clone())),
                    None => (Vec::new(), None),
                };
                if let Some(chain) = &covered {
                    for p in chain.all_peers() {
                        if !targets.contains(&p) {
                            targets.push(p);
                        }
                    }
                }
                if self.decide(ctx, txn, Some(serving.inv), true) {
                    self.record_outcome(ctx, txn, true);
                }
                self.results.insert(txn, items);
                for peer in targets {
                    if peer != self.id {
                        let _ = ctx.send(peer, TxnMsg::Commit { txn, covered: covered.clone() });
                    }
                }
            }
            Some(parent) => {
                // The fragments move into one shared slice: the retained
                // copy, the message and a re-route all refer to it.
                let items: Arc<[Fragment]> = items.into();
                let chain = self.current_chain(txn);
                self.emit(ctx, Some(txn), Some(serving.inv), None, || EventKind::ResultReturn { to: parent.0 });
                let msg =
                    TxnMsg::Result { txn, inv: serving.inv, items: Arc::clone(&items), comp: comp.clone(), chain };
                // Retained for a re-route should the parent vanish.
                if let Some(t) = self.txns.get_mut(&txn) {
                    t.returned = Some((serving.method, items, comp));
                }
                if self.send_reliable(ctx, parent, msg).is_err() {
                    // Scenario (b): parent disconnected, detected while
                    // returning results.
                    self.record_detection(ctx, parent, DetectHow::SendFailure);
                    self.reroute_past_dead_parent(ctx, txn, parent);
                } else {
                    // Our effects are live until the parent resolves the
                    // transaction — keep-alive-watch it so a parent that
                    // vanishes mid-protocol is *detected* here, not just
                    // hoped about (scenario (b) from the orphan's side).
                    // A re-join may have a different parent (replica
                    // re-invocation): move the watch over.
                    let old = self.txns.get_mut(&txn).and_then(|t| t.watched.replace(parent));
                    self.await_decision(ctx, txn);
                    if old != Some(parent) {
                        if let Some(old) = old {
                            self.detector.unwatch(old);
                        }
                        self.detector.watch(ctx, &mut self.timers, parent);
                    }
                }
            }
        }
    }

    /// Scenario (b): the parent is gone; re-route the result returned for
    /// `txn`, if any, to the nearest reachable ancestor from the chain
    /// (falling back to the closest super peer), or discard without
    /// chaining.
    fn reroute_past_dead_parent(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, dead_parent: PeerId) {
        // Whatever happens below, this result is now either delivered via
        // Redirected or discarded — don't re-offer it on later notices.
        // The dead parent will never resolve us; stop watching it. The
        // transaction is not decided here: nothing else is let go.
        let Some(t) = self.txns.get_mut(&txn) else { return };
        let Some((method, items, comp)) = t.returned.take() else { return };
        if let Some(parent) = t.watched.take() {
            self.detector.unwatch(parent);
        }
        if !self.config.chaining {
            // "Traditional recovery would lead to AP6 discarding its work."
            self.stats.work_wasted += 1;
            self.abort_local(ctx, txn);
            self.propagate_abort(ctx, txn);
            return;
        }
        let chain = self.context(txn).map(|tc| tc.chain.clone()).unwrap_or_else(|| ActiveList::new(self.id, false));
        let mut candidates: Vec<PeerId> =
            chain.ancestors_of(self.id).into_iter().filter(|p| *p != dead_parent).collect();
        if let Some(sp) = chain.closest_super_ancestor(self.id) {
            if !candidates.contains(&sp) {
                candidates.push(sp);
            }
        }
        for target in candidates {
            let msg = TxnMsg::Redirected {
                txn,
                failed_parent: dead_parent,
                method: method.clone(),
                items: Arc::clone(&items),
                comp: comp.clone(),
            };
            if self.send_reliable(ctx, target, msg).is_ok() {
                self.stats.redirects_sent += 1;
                self.await_decision(ctx, txn);
                return;
            }
            self.record_detection(ctx, target, DetectHow::SendFailure);
        }
        // No reachable ancestor at all.
        self.stats.work_wasted += 1;
        self.abort_local(ctx, txn);
        self.propagate_abort(ctx, txn);
    }

    // ------------------------------------------------------------------
    // Results and faults from children.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: PeerId,
        txn: TxnId,
        inv: InvocationId,
        items: &[Fragment],
        comp: &CompBundle,
        chain: &ActiveList,
    ) {
        let Some(wc) = self.waiting.remove(&inv) else {
            // Unwanted work: the invocation was aborted or superseded — or
            // this is a late copy of a result already used.
            self.stats.late_messages += 1;
            self.answer_with_outcome(ctx, from, txn);
            return;
        };
        self.detector.unwatch(from);
        if let Some(t) = self.txns.get_mut(&txn) {
            t.tc.complete_remote(inv, comp.clone());
            self.journal_append_forced(ctx, JournalEntry::RemoteCompleted { txn, inv, comp: comp.clone() });
            self.learn_chain(ctx, from, txn, chain);
        }
        self.apply_child_items(ctx, txn, wc.serving_inv, wc.target, &wc.method, items);
        if let Some(s) = self.servings.get_mut(&wc.serving_inv) {
            s.pending.remove(&inv);
        }
        self.advance_serving(ctx, wc.serving_inv);
    }

    /// Answers work this peer has no use for — a late or duplicate
    /// `Result` or `Redirected` — with the outcome it holds for `txn`. A
    /// peer MUST NOT send `Abort` (nor `Compensate`) about a transaction
    /// it has resolved `Committed`: a duplicate of a result that was used
    /// arrives after the commit as easily as before it, commit having
    /// dropped the dedup entries that would have suppressed it, and an
    /// `Abort` that overtakes the `Commit` makes the sender undo work the
    /// transaction committed with. The sender of such a message is told
    /// `Commit`, once: should that copy be lost too, the sender inquires.
    /// An undecided or aborted context, or none, says `Abort`, so the
    /// sender's effects do not linger.
    fn answer_with_outcome(&mut self, ctx: &mut Ctx<'_>, from: PeerId, txn: TxnId) {
        if self.context(txn).is_some_and(|tc| tc.state == TxnState::Committed) {
            let _ = ctx.send(from, TxnMsg::Commit { txn, covered: None });
        } else {
            let _ = self.send_reliable(ctx, from, TxnMsg::Abort { txn });
        }
    }

    /// Answers an `Inquire` from the decision record (spec rule **R12**):
    /// `Commit` if `txn` committed here; a reliable `Abort` if it aborted
    /// here or — presumed abort — if this is its origin and holds no
    /// record of it; nothing while it is undecided, and the inquirer asks
    /// again later. A crash-restarted origin answers from the contexts its
    /// journal replay rebuilt.
    fn handle_inquire(&mut self, ctx: &mut Ctx<'_>, from: PeerId, txn: TxnId) {
        match self.context(txn) {
            Some(tc) if tc.is_terminal() => self.answer_with_outcome(ctx, from, txn),
            None if txn.origin == self.id => self.answer_with_outcome(ctx, from, txn),
            _ => {}
        }
    }

    /// A child invocation failed (fault message, failed send, or detected
    /// disconnection): §3.2's recovery decision point. (Spec rule
    /// **R06**: if forward recovery is exhausted, the fault continues up
    /// and the abort cascades down.)
    fn child_failed(&mut self, ctx: &mut Ctx<'_>, inv: InvocationId, fault: Fault) {
        let Some(mut wc) = self.waiting.remove(&inv) else {
            self.stats.late_messages += 1;
            return;
        };
        self.detector.unwatch(wc.child_peer);
        // NOTE: the failed invocation stays in the serving's `pending` set
        // while a retry/alternative is in flight — otherwise a sibling's
        // result arriving in the gap would make the serving look complete
        // and the service body would run without the redone branch.
        if self.config.recovery == RecoveryStyle::ForwardFirst {
            // 1. The embedded call's fault handlers.
            if let Some(handler) = wc.handlers.iter().find(|h| h.matches(&fault.name)).cloned() {
                match handler.action {
                    axml_doc::HandlerAction::Retry { wait, alternative, .. } if wc.retries_left > 0 => {
                        wc.retries_left -= 1;
                        self.stats.retries += 1;
                        if let Some(alt) = &alternative {
                            wc.child_peer = PeerId::from_url(&alt.service_url).unwrap_or(wc.child_peer);
                            wc.method = alt.method.to_string();
                        }
                        self.retry_child(ctx, wc, inv, wait.max(1));
                        return;
                    }
                    axml_doc::HandlerAction::Substitute(frags) => {
                        self.stats.substitutions += 1;
                        let txn = wc.txn;
                        if let Some(s) = self.servings.get_mut(&wc.serving_inv) {
                            s.pending.remove(&inv);
                        }
                        self.apply_child_items(ctx, txn, wc.serving_inv, wc.target, &wc.method, &frags);
                        self.advance_serving(ctx, wc.serving_inv);
                        return;
                    }
                    _ => {}
                }
            }
            // 2. An alternative provider from the directory ("the system
            //    abandons the failed participant and invokes another
            //    service providing similar functionality").
            if self.config.use_alternative_providers {
                if let Some(alt) = self.directory.alternative_provider(&wc.method, &wc.attempted) {
                    self.stats.alternatives_used += 1;
                    wc.child_peer = alt;
                    self.retry_child(ctx, wc, inv, 1);
                    return;
                }
            }
        }
        // 3. Backward recovery: this serving fails, the abort propagates.
        if let Some(s) = self.servings.get_mut(&wc.serving_inv) {
            s.pending.remove(&inv);
        }
        self.fail_serving(ctx, wc.serving_inv, fault);
    }

    /// Re-issues the failed invocation `failed` as `wc`, perhaps to a
    /// replica, `delay` from now (handler retry or alternative provider).
    fn retry_child(&mut self, ctx: &mut Ctx<'_>, mut wc: WaitingChild, failed: InvocationId, delay: u64) {
        if !wc.attempted.contains(&wc.child_peer) {
            wc.attempted.push(wc.child_peer);
        }
        self.timers.set(ctx, delay, Timer::RetryChild { wc, placeholder: failed });
    }

    /// A retry's time came: the failed invocation `placeholder`, held in
    /// the serving's pending set meanwhile, gives way to a fresh one.
    fn reissue_child(&mut self, ctx: &mut Ctx<'_>, wc: WaitingChild, placeholder: InvocationId) {
        if let Some(s) = self.servings.get_mut(&wc.serving_inv) {
            s.pending.remove(&placeholder);
        }
        if self.context(wc.txn).is_some_and(|tc| !tc.is_terminal()) {
            self.invoke(ctx, wc);
        }
    }

    // ------------------------------------------------------------------
    // Abort / compensation (§3.2).
    // ------------------------------------------------------------------

    /// A serving cannot complete: abort the local context and propagate
    /// per the nested recovery protocol. (Spec rule **R05**: the fault
    /// travels up to the invoker as a `Fault` message.)
    fn fail_serving(&mut self, ctx: &mut Ctx<'_>, serving_inv: InvocationId, fault: Fault) {
        let Some(serving) = self.servings.remove(&serving_inv) else { return };
        let txn = serving.txn;
        // Cancel the serving's outstanding children (they are told to
        // abort below, via propagate_abort — they are invoked peers).
        for inv in &serving.pending {
            if let Some(wc) = self.waiting.remove(inv) {
                self.detector.unwatch(wc.child_peer);
            }
        }
        // Abort locally (compensate own effects)…
        self.abort_local(ctx, txn);
        // …tell every other invoked peer…
        self.propagate_abort(ctx, txn);
        // …and notify the invoker (the upward "Abort TA" with the fault).
        match serving.reply_to {
            Some(parent) => {
                self.stats.aborts_sent += 1;
                self.emit(ctx, Some(txn), Some(serving.inv), None, || EventKind::FaultRaise { to: parent.0 });
                if self.send_reliable(ctx, parent, TxnMsg::Fault { txn, inv: serving.inv, fault }).is_err() {
                    self.record_detection(ctx, parent, DetectHow::SendFailure);
                    // Route the bad news past the dead parent.
                    self.notice_ancestors(ctx, txn, parent);
                }
            }
            None => {
                // Origin: the transaction is aborted.
                self.record_outcome(ctx, txn, false);
            }
        }
    }

    /// Compensates this peer's own effects from its log and marks the
    /// context aborted. (Spec rules **R06**/**R08**: undo runs in
    /// strictly decreasing log order — invariant I2.)
    fn abort_local(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let batches = match self.context(txn) {
            Some(tc) if !tc.is_terminal() => tc.own_compensation_indexed(),
            _ => return,
        };
        self.decide(ctx, txn, None, false);
        if !batches.is_empty() {
            let actions: u64 = batches.iter().map(|(_, _, a)| a.len() as u64).sum();
            self.emit(ctx, Some(txn), None, None, || EventKind::CompensateDerive { actions });
            for (undoes, doc, acts) in &batches {
                let mut cost = 0usize;
                if let Some(document) = self.repo.get_mut(doc) {
                    if let Ok(c) = crate::compensate::apply_compensation(document, acts) {
                        cost = c;
                    }
                }
                self.stats.comp_cost_nodes += cost as u64;
                self.emit(ctx, Some(txn), None, None, || EventKind::CompensateOp {
                    doc: doc.clone(),
                    undoes: *undoes,
                    actions: acts.len() as u64,
                });
            }
            self.emit(ctx, Some(txn), None, None, || EventKind::CompensateApply { actions });
            self.stats.compensations_executed += 1;
        }
        self.drop_txn_work(ctx, txn);
    }

    /// Drops every live serving and wait of an aborted `txn`, faulting
    /// the dropped servings' invokers (`TxnResolved`) so they recover
    /// instead of waiting on a reply forever. Must run whenever an abort
    /// decision lands while work for the transaction is still in flight
    /// — both on a locally decided abort and on a received compensation:
    /// a stale `Compensate` (reordered past a re-invocation) that left
    /// the servings alive would let late child results materialize
    /// effects into the already-aborted context, effects nothing will
    /// ever compensate.
    fn drop_txn_work(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let dead_servings: Vec<InvocationId> =
            self.servings.iter().filter(|(_, s)| s.txn == txn).map(|(i, _)| *i).collect();
        for inv in dead_servings {
            if let Some(serving) = self.servings.remove(&inv) {
                self.waste(ctx, serving, "aborted");
            }
        }
        self.drop_waits(txn);
    }

    /// Drops `serving`, its transaction decided (`verdict`) here, as wasted
    /// work; its invoker, told `TxnResolved`, does not wait on it forever.
    fn waste(&mut self, ctx: &mut Ctx<'_>, serving: Serving, verdict: &str) {
        self.stats.work_wasted += 1;
        if let Some(parent) = serving.reply_to {
            let (txn, inv) = (serving.txn, serving.inv);
            let fault = Fault::txn_resolved(format!("{txn} {verdict} at {}", self.id));
            let _ = self.send_reliable(ctx, parent, TxnMsg::Fault { txn, inv, fault });
        }
    }

    /// Stops waiting for `txn`'s children, releasing their watches.
    fn drop_waits(&mut self, txn: TxnId) {
        let detector = &mut self.detector;
        self.waiting.retain(|_, wc| {
            let dead = wc.txn == txn;
            if dead {
                detector.unwatch(wc.child_peer);
            }
            !dead
        });
    }

    fn execute_compensation(&mut self, comp: &CompensatingService) -> usize {
        let mut cost = 0usize;
        for (doc, actions) in &comp.actions {
            if let Some(document) = self.repo.get_mut(doc) {
                if let Ok(c) = crate::compensate::apply_compensation(document, actions) {
                    cost += c;
                }
            }
        }
        cost
    }

    /// Sends abort/compensate messages to every peer this context invoked.
    /// (Spec rule **R07**; invariant I4 requires each of these aborts to
    /// land — resolve the target — or be absorbed by churn.)
    fn propagate_abort(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let Some(tc) = self.context(txn) else { return };
        // Peer-independent: drive compensation directly from the collected
        // definitions; the invoked peers without one get a plain Abort.
        let bundles = if self.config.peer_independent { tc.child_compensations() } else { Vec::new() };
        let invoked = tc.invoked_peers();
        for (peer, cs) in &bundles {
            // Our own bundle entry, if any, is our own log: `abort_local`
            // compensated it.
            if *peer == self.id {
                continue;
            }
            self.stats.aborts_sent += 1;
            self.emit(ctx, Some(txn), None, None, || EventKind::AbortPropagate { to: peer.0 });
            if self.send_reliable(ctx, *peer, TxnMsg::Compensate { txn, service: cs.clone() }).is_err() {
                // Original peer gone: run it on a replica if one holds the
                // documents (structural addressing makes this possible —
                // the peer-independent payoff of E7). Failing that, the
                // compensation is lost, and the harness sees the document
                // diverge.
                self.record_detection(ctx, *peer, DetectHow::SendFailure);
                for (doc, _) in &cs.actions {
                    if let Some(rep) = self.directory.alternative_replica(doc, &[*peer, self.id]) {
                        if self.send_reliable(ctx, rep, TxnMsg::Compensate { txn, service: cs.clone() }).is_ok() {
                            break;
                        }
                    }
                }
            }
        }
        for peer in invoked {
            if peer == self.id || bundles.iter().any(|(p, _)| *p == peer) {
                continue;
            }
            self.stats.aborts_sent += 1;
            self.emit(ctx, Some(txn), None, None, || EventKind::AbortPropagate { to: peer.0 });
            let _ = self.send_reliable(ctx, peer, TxnMsg::Abort { txn });
        }
    }

    /// Delivers an `Abort`: abort locally, then continue the downward
    /// cascade; about a transaction unknown here, leave a tombstone.
    /// (Spec rules **R06**/**R07**.)
    fn handle_abort(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        self.stats.aborts_received += 1;
        match self.context(txn) {
            Some(tc) if tc.is_terminal() => {}
            Some(_) => {
                self.abort_local(ctx, txn);
                self.propagate_abort(ctx, txn);
            }
            None => {
                self.tombstone(ctx, txn);
                self.decide(ctx, txn, None, false);
            }
        }
    }

    /// Delivers a `Commit` and cascades it, unacknowledged, to the
    /// invokees that `covered`, the peers the origin told itself, leaves
    /// out. (Spec rule **R09**: a peer MUST NOT send `Commit` to a peer in
    /// the `covered` list it received. A copy that arrives again, or after
    /// an inquiry's answer, finds the context terminal and does nothing.)
    fn handle_commit(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, covered: Option<&ActiveList>) {
        if !self.decide(ctx, txn, None, true) {
            return;
        }
        let invoked = self.context(txn).map(|tc| tc.invoked_peers()).unwrap_or_default();
        for peer in invoked {
            if peer != self.id && !covered.is_some_and(|c| c.contains(peer)) {
                let _ = ctx.send(peer, TxnMsg::Commit { txn, covered: covered.cloned() });
            }
        }
        // Residual work for a committed transaction (possible when a
        // recovery redo raced the commit) is moot: drop it and release
        // the failure detector.
        self.servings.retain(|_, s| s.txn != txn);
        self.drop_waits(txn);
    }

    /// Executes a received compensating service — statelessly, as §3.2
    /// prescribes. (Spec rule **R08**.)
    fn handle_compensate(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, service: &CompensatingService) {
        let actions: u64 = service.actions.iter().map(|(_, a)| a.len() as u64).sum();
        let cost = self.execute_compensation(service);
        self.emit(ctx, Some(txn), None, None, || EventKind::CompensateApply { actions });
        self.stats.compensations_executed += 1;
        self.stats.comp_cost_nodes += cost as u64;
        // Mark the context resolved *without* self-compensating: the
        // compensation just ran. Create a tombstone if we never saw the
        // transaction (replica-targeted compensation).
        if !self.txns.contains_key(&txn) {
            self.tombstone(ctx, txn);
        }
        if self.decide(ctx, txn, None, false) {
            self.drop_txn_work(ctx, txn);
        }
    }

    // ------------------------------------------------------------------
    // Decision delivery: a participant pulls a commit it missed.
    // ------------------------------------------------------------------

    /// `txn`'s result has left this peer (a `Result` or a `Redirected`):
    /// only the decision can end its context now. Arms the decision timer
    /// afresh. The origin decides itself and never waits.
    fn await_decision(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let Some(t) = self.txns.get_mut(&txn).filter(|t| txn.origin != self.id && !t.tc.is_terminal()) else {
            return;
        };
        if let Some(tag) = t.decision_timer.take() {
            self.timers.cancel(ctx, tag);
        }
        self.arm_decision(ctx, txn, 0);
    }

    /// Waits for `txn`'s decision after `inquiries` inquiries.
    fn arm_decision(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, inquiries: u32) {
        let tag = self.timers.set(ctx, backoff(DECISION_TIMEOUT, inquiries), Timer::Decision { txn, inquiries });
        if let Some(t) = self.txns.get_mut(&txn) {
            t.decision_timer = Some(tag);
        }
    }

    /// The decision timer fired on a context still undecided: ask the
    /// origin — or, if it cannot be reached right now, the chain's closest
    /// super ancestor — and wait twice as long for the next try, up to
    /// [`MAX_RETRANSMITS`] inquiries. (Spec rule **R12**.)
    fn inquire(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, inquiries: u32) {
        if let Some(t) = self.txns.get_mut(&txn) {
            t.decision_timer = None;
        }
        let chain = self.context(txn).map(|tc| &tc.chain);
        let fallback = chain.and_then(|c| c.closest_super_ancestor(self.id)).filter(|&p| p != txn.origin);
        let asked = [Some(txn.origin), fallback]
            .into_iter()
            .flatten()
            .find(|&to| to != self.id && ctx.send(to, TxnMsg::Inquire { txn }).is_ok());
        if let Some(to) = asked {
            self.stats.inquiries += 1;
            self.emit(ctx, Some(txn), None, None, || EventKind::Inquire { to: to.0 });
        }
        if inquiries + 1 < MAX_RETRANSMITS {
            self.arm_decision(ctx, txn, inquiries + 1);
        }
    }

    // ------------------------------------------------------------------
    // Disconnection handling (§3.3).
    // ------------------------------------------------------------------

    fn record_detection(&mut self, ctx: &mut Ctx<'_>, peer: PeerId, how: DetectHow) {
        let d = Detection { disconnected: peer, at: ctx.now(), how };
        // Concurrent notices about the same disconnection arrive in
        // bursts; keep one record per (peer, mechanism, instant).
        if self.stats.detections.last() != Some(&d) && !self.stats.detections.contains(&d) {
            self.emit(ctx, None, None, None, || EventKind::Detect { peer: peer.0, how: how.label().into() });
            self.stats.detections.push(d);
        }
    }

    /// A watched child stopped responding (scenarios (a)/(c)).
    fn on_child_disconnected(&mut self, ctx: &mut Ctx<'_>, peer: PeerId, how: DetectHow) {
        self.record_detection(ctx, peer, how);
        self.detector.forget(peer);
        // Every outstanding invocation on that peer fails.
        let affected: Vec<InvocationId> =
            self.waiting.iter().filter(|(_, w)| w.child_peer == peer).map(|(i, _)| *i).collect();
        // Scenario (c) chaining: warn the disconnected peer's descendants
        // before recovering, so they stop wasting effort / offer reuse.
        if self.config.chaining {
            let txns: BTreeSet<TxnId> = affected.iter().filter_map(|i| self.waiting.get(i)).map(|w| w.txn).collect();
            for txn in txns {
                let descs: Vec<PeerId> = self.context(txn).map(|tc| tc.chain.descendants_of(peer)).unwrap_or_default();
                for desc in descs {
                    let _ = self.send_reliable(ctx, desc, TxnMsg::DisconnectNotice { txn, disconnected: peer });
                }
            }
        }
        for inv in affected {
            self.child_failed(ctx, inv, Fault::peer_unreachable(format!("{peer} disconnected")));
        }
        // The dead peer may also be a *parent* we keep-alive-watched while
        // a completed serving awaited its resolution (scenario (b) caught
        // by ping timeout rather than send failure): its work is orphaned
        // exactly as a chained disconnect notice would have it.
        let orphaned: Vec<TxnId> =
            self.txns.iter().filter(|(_, t)| t.watched == Some(peer)).map(|(txn, _)| *txn).collect();
        for txn in orphaned {
            // One decided meanwhile, by an earlier one's abort, watches nobody.
            if self.txns.get_mut(&txn).and_then(|t| t.watched.take()).is_some() {
                self.orphaned(ctx, txn, peer);
            }
        }
    }

    /// `txn`'s consumer here, `dead`, is gone. A serving still running
    /// stops, aborting its invokees with it; a result already returned,
    /// maybe lost with `dead`, is re-offered up the chain for reuse — or
    /// aborted, if the transaction already failed above.
    fn orphaned(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, dead: PeerId) {
        if self.servings.values().any(|s| s.txn == txn) {
            self.stats.orphan_stops += 1;
            self.abort_local(ctx, txn);
            self.propagate_abort(ctx, txn);
        } else {
            self.reroute_past_dead_parent(ctx, txn, dead);
        }
    }

    /// A re-routed result from an orphaned descendant (scenario (b)).
    #[allow(clippy::too_many_arguments)]
    fn handle_redirected(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: PeerId,
        txn: TxnId,
        failed_parent: PeerId,
        method: &str,
        items: &[Fragment],
        comp: &CompBundle,
    ) {
        self.stats.redirects_received += 1;
        self.record_detection(ctx, failed_parent, DetectHow::Notice);
        // If the transaction is already resolved here, the orphan's work
        // is unwanted. Aborted: tell it to abort (and compensate) itself —
        // without this, an orphan whose Redirected loses the race against
        // the abort would keep its effects forever. Committed: tell it so.
        if let Some(state) = self.context(txn).filter(|t| t.is_terminal()).map(|t| t.state) {
            if state != TxnState::Committed && self.config.peer_independent && !comp.is_empty() {
                for (peer, cs) in comp {
                    let _ = self.send_reliable(ctx, *peer, TxnMsg::Compensate { txn, service: cs.clone() });
                }
            } else {
                self.answer_with_outcome(ctx, from, txn);
            }
            return;
        }
        // Keep the orphan's results for reuse when re-invoking the dead
        // peer's service, and its compensation bundle for abort-time.
        let orphan_inv = self.alloc_inv(ctx);
        if let Some(t) = self.txns.get_mut(&txn) {
            t.prefill.push((method.to_string(), items.to_vec()));
            t.tc.record_orphan_comp(from, orphan_inv, method, comp.clone());
            self.journal_append_forced(
                ctx,
                JournalEntry::RemoteInvoked { txn, child: from, inv: orphan_inv, method: method.to_string() },
            );
            self.journal_append_forced(ctx, JournalEntry::RemoteCompleted { txn, inv: orphan_inv, comp: comp.clone() });
        }
        // Now treat the dead parent like a disconnected child (it may or
        // may not be one of ours; if it is, recovery starts here).
        self.on_child_disconnected(ctx, failed_parent, DetectHow::Notice);
    }

    /// A disconnect notice from the chain (scenarios (b)/(c)/(d)).
    fn handle_notice(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, disconnected: PeerId) {
        self.record_detection(ctx, disconnected, DetectHow::Notice);
        let Some(tc) = self.context(txn) else { return };
        if tc.is_terminal() {
            return;
        }
        let my_parent = tc.parent.map(|(p, _)| p);
        if self.waiting.values().any(|w| w.child_peer == disconnected && w.txn == txn) {
            // It's one of our children: recover.
            self.on_child_disconnected(ctx, disconnected, DetectHow::Notice);
            return;
        }
        if my_parent == Some(disconnected) {
            self.orphaned(ctx, txn, disconnected);
        }
    }

    /// Sibling stream upkeep + silence detection (scenario (d)).
    fn stream_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(interval) = self.detector.stream_due() else { return };
        let active_txns: BTreeSet<TxnId> = self.servings.values().map(|s| s.txn).collect();
        if active_txns.is_empty() {
            return;
        }
        for txn in &active_txns {
            let Some(tc) = self.context(*txn) else { continue };
            if tc.is_terminal() {
                continue;
            }
            let siblings = tc.chain.siblings_of(self.id);
            for sib in siblings {
                let seq = self.detector.next_stream_seq();
                if ctx.send(sib, TxnMsg::StreamData { txn: *txn, seq }).is_err() {
                    // Scenario (d): sibling gone, detected by the stream.
                    self.on_sibling_disconnected(ctx, *txn, sib, DetectHow::SendFailure);
                }
            }
        }
        // Silence check: a sibling we have heard from before going quiet.
        for (txn, peer) in self.detector.silent_streams(&active_txns, ctx.now(), interval) {
            self.on_sibling_disconnected(ctx, txn, peer, DetectHow::StreamSilence);
        }
        self.detector.arm_stream(ctx, &mut self.timers);
    }

    /// Scenario (d): a sibling was detected disconnected; notify its
    /// parent and children from the chain — they then run (b)/(c).
    fn on_sibling_disconnected(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, dead: PeerId, how: DetectHow) {
        self.record_detection(ctx, dead, how);
        if !self.config.chaining {
            return;
        }
        let Some(tc) = self.context(txn) else { return };
        let chain = tc.chain.clone();
        if let Some(parent) = chain.parent_of(dead) {
            let _ = self.send_reliable(ctx, parent, TxnMsg::DisconnectNotice { txn, disconnected: dead });
        }
        for child in chain.children_of(dead) {
            let _ = self.send_reliable(ctx, child, TxnMsg::DisconnectNotice { txn, disconnected: dead });
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery (presumed abort from the durability journal).
    // ------------------------------------------------------------------

    /// Rebuilds the peer after a crash-restart. All volatile state is
    /// wiped (the simulator already discarded our timers and in-flight
    /// messages to us); contexts are replayed from the durability
    /// journal — the model of stable storage — and every in-doubt
    /// context is *presumed aborted* by [`Self::abort_local`]: its own
    /// effects are compensated in reverse log order, the resolution is
    /// journaled (so a second crash does not re-compensate), and the abort
    /// is pushed to the parent (upward `Fault`) and the invoked subtree.
    /// (Spec rule **R10**: the restart opens a fresh epoch; obligations
    /// from the crashed epoch are excused, not forgotten.)
    fn crash_recover(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.crash_recoveries += 1;
        // The crash killed every timer and forgot what was sent, seen, owed
        // or watched: the layers start afresh, and senders retransmit.
        self.timers = Timers::default();
        self.delivery = Delivery::new(self.config.dedup);
        self.detector = Detector::new(&self.config);
        self.next_inv = 0;
        self.next_txn = 0;
        self.servings.clear();
        self.waiting.clear();
        // Every in-doubt context is presumed aborted below: none waits on
        // a decision any more, and nothing else held beside a context
        // survives.
        self.txns.clear();
        self.active_contexts = 0;
        // Stable storage decides what survived the crash: a WAL sink scans
        // its segments, discards a torn tail, and hands back the clean
        // prefix; without a sink every entry survives. Contexts are
        // replayed from that. A re-begun transaction yields two contexts
        // for one txn; the map insert order keeps the latest incarnation.
        let (mut in_doubt, mut terminal) = (Vec::new(), Vec::new());
        for tc in durability::replay(self.journal.crash_restart()).unwrap_or_default() {
            let list = if tc.is_terminal() { &mut terminal } else { &mut in_doubt };
            list.push(tc.txn);
            self.insert_context(tc);
        }
        self.stats.presumed_aborts += in_doubt.len() as u64;
        self.emit(ctx, None, None, None, || EventKind::Restart { presumed_aborts: in_doubt.len() as u64 });
        // A presumed abort is an abort: the one undo every abort runs,
        // decided, journaled, traced and costed like any other.
        for &txn in &in_doubt {
            self.abort_local(ctx, txn);
        }
        for txn in in_doubt {
            match self.context(txn).and_then(|t| t.parent) {
                Some((pp, inv)) => {
                    // The invoker must learn its child's work is undone.
                    let fault = Fault::peer_unreachable(format!("{} crashed; presumed abort", self.id));
                    let _ = self.send_reliable(ctx, pp, TxnMsg::Fault { txn, inv, fault });
                }
                None if txn.origin == self.id => self.record_outcome(ctx, txn, false),
                None => {}
            }
            // Invoked peers (and collected compensations) are in the
            // replayed log: push the abort down the tree.
            self.propagate_abort(ctx, txn);
        }
        // Contexts that were already aborted on disk may have died with
        // abort propagation still in flight: the crash killed the retry
        // timers, and a partitioned child might not have heard yet — nor
        // the invoker, whose `Fault` died in the outbox. Presumed abort
        // makes re-sending safe (children absorb repeats via tombstones,
        // an invoker that knows takes the `Fault` for a late message), so
        // re-establish the obligation both ways for every recovered
        // aborted context.
        for txn in terminal {
            let Some(tc) = self.context(txn).filter(|t| t.state == TxnState::Aborted) else { continue };
            if let Some((pp, inv)) = tc.parent {
                let fault = Fault::peer_unreachable(format!("{} restarted; aborted", self.id));
                let _ = self.send_reliable(ctx, pp, TxnMsg::Fault { txn, inv, fault });
            }
            self.propagate_abort(ctx, txn);
        }
    }

    // ------------------------------------------------------------------
    // Keep-alive: the detector probes, the protocol acts on its suspects.
    // ------------------------------------------------------------------

    /// The keep-alive timer fired: the peers whose probe could not be
    /// sent, then those silent past the timeout, are disconnected.
    fn ping_tick(&mut self, ctx: &mut Ctx<'_>) {
        // Reusable buffer (taken, not borrowed: `on_child_disconnected`
        // needs `&mut self` while we iterate).
        let mut peers = std::mem::take(&mut self.peer_buf);
        self.detector.probe(ctx, &mut self.stats, &mut peers);
        for &peer in &peers {
            self.on_child_disconnected(ctx, peer, DetectHow::PingTimeout);
        }
        self.detector.suspects_into(ctx.now(), &mut peers);
        for &peer in &peers {
            self.on_child_disconnected(ctx, peer, DetectHow::PingTimeout);
        }
        peers.clear();
        self.peer_buf = peers;
        self.detector.arm_keepalive(ctx, &mut self.timers);
    }
}

struct NeedParams(Vec<ServiceCall>);

/// Traces an entry the journal made durable as an
/// [`EventKind::LogAppend`] event: every stable-storage transition is
/// visible in the run's causal record. Takes the context alone, so the
/// journal stays borrowed for the entry.
fn trace_journaled(ctx: &mut Ctx<'_>, entry: &JournalEntry) {
    if ctx.tracing() {
        let (txn, label) = match entry {
            JournalEntry::Begin { txn, .. } => (*txn, "begin".to_string()),
            JournalEntry::Local { txn, op_label, effects, .. } => {
                (*txn, format!("local {op_label} effects={}", effects.len()))
            }
            JournalEntry::RemoteInvoked { txn, inv, method, .. } => (*txn, format!("remote-invoked {inv} {method}")),
            JournalEntry::RemoteCompleted { txn, inv, .. } => (*txn, format!("remote-completed {inv}")),
            JournalEntry::Resolved { txn, committed, .. } => {
                (*txn, format!("resolved {}", if *committed { "commit" } else { "abort" }))
            }
        };
        ctx.emit(Some(txn.into()), None, None, EventKind::LogAppend { entry: label });
    }
}

/// The hosted document `method` is declared over. Borrows the registry
/// alone, so the caller's other fields stay free.
fn service_doc<'r>(registry: &'r ServiceRegistry, method: &str) -> Option<&'r str> {
    match &registry.get(method)?.kind {
        ServiceKind::Query { doc, .. } | ServiceKind::Update { doc, .. } => Some(doc),
        ServiceKind::Function(_) => None,
    }
}

/// The query that decides which embedded calls `method` needs (lazy
/// relevance): the declared query, or an update's select locator.
fn service_query<'r>(registry: &'r ServiceRegistry, method: &str) -> Option<&'r SelectQuery> {
    match &registry.get(method)?.kind {
        ServiceKind::Query { query, .. } => Some(query),
        ServiceKind::Update { action, .. } => match &action.location {
            axml_query::Locator::Select(q) => Some(q),
            _ => None,
        },
        ServiceKind::Function(_) => None,
    }
}

impl AxmlPeer {
    /// Acts on one received message. The acknowledgements it makes this
    /// peer owe leave with whatever the handler sends their way; the
    /// caller flushes the rest.
    fn receive(&mut self, ctx: &mut Ctx<'_>, from: PeerId, msg: TxnMsg) {
        // Any traffic from a peer proves liveness.
        self.detector.heard_from(from, ctx.now());
        // Handlers borrow the payload: the sender's outbox holds it too
        // (in the simulator, the same allocation) until our ack arrives,
        // so taking it by value would copy every delivery.
        let txns = &self.txns;
        let state = |txn: TxnId| txns.get(&txn).map(|t| t.tc.state);
        let Some(msg) = self.delivery.receive(ctx, &mut self.timers, &mut self.stats, state, from, &msg) else {
            return;
        };
        match msg {
            TxnMsg::Invoke { txn, inv, method, params, chain, prefilled } => {
                self.handle_invoke(ctx, from, *txn, *inv, method, params, chain, prefilled);
            }
            TxnMsg::Result { txn, inv, items, comp, chain } => {
                self.handle_result(ctx, from, *txn, *inv, items, comp, chain);
            }
            TxnMsg::Fault { inv, fault, .. } => {
                self.child_failed(ctx, *inv, fault.clone());
            }
            TxnMsg::Abort { txn } => self.handle_abort(ctx, *txn),
            TxnMsg::Commit { txn, covered } => self.handle_commit(ctx, *txn, covered.as_ref()),
            TxnMsg::Inquire { txn } => self.handle_inquire(ctx, from, *txn),
            TxnMsg::Compensate { txn, service } => self.handle_compensate(ctx, *txn, service),
            TxnMsg::Ping => {
                let _ = ctx.send(from, TxnMsg::Pong);
            }
            TxnMsg::Pong => { /* heard_from above is enough */ }
            TxnMsg::Redirected { txn, failed_parent, method, items, comp } => {
                self.handle_redirected(ctx, from, *txn, *failed_parent, method, items, comp);
            }
            TxnMsg::DisconnectNotice { txn, disconnected } => self.handle_notice(ctx, *txn, *disconnected),
            TxnMsg::StreamData { txn, .. } => {
                self.detector.heard_stream(*txn, from, ctx.now());
                self.detector.arm_stream(ctx, &mut self.timers);
            }
            // A gossiped chain is merged into a context that is still live.
            TxnMsg::ChainUpdate { txn, chain, .. } if self.context(*txn).is_some_and(|tc| !tc.is_terminal()) => {
                self.learn_chain(ctx, from, *txn, chain);
            }
            TxnMsg::ChainUpdate { .. } => {}
            // Unwrapped above; a nested envelope is never constructed.
            TxnMsg::Reliable { .. } | TxnMsg::Ack { .. } => {}
        }
    }
}

impl Actor<TxnMsg> for AxmlPeer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: PeerId, msg: TxnMsg) {
        self.receive(ctx, from, msg);
        self.delivery.flush(ctx, &mut self.timers, &mut self.stats);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(timer) = self.timers.fired(tag) else {
            // Tag 0 is the harness's: submit the scenario's transaction.
            if let (0, Some((method, params))) = (tag, self.auto_submit.clone()) {
                self.submit(ctx, &method, params);
            }
            return;
        };
        match timer {
            Timer::ServiceDone(inv) => self.complete_serving(ctx, inv),
            Timer::RetryChild { wc, placeholder } => self.reissue_child(ctx, wc, placeholder),
            Timer::Decision { txn, inquiries } => self.inquire(ctx, txn, inquiries),
            Timer::Retransmit(id) => {
                if let Some(given_up) = self.delivery.retransmit(ctx, &mut self.timers, &mut self.stats, id) {
                    self.delivery_failed(ctx, given_up);
                }
            }
            Timer::AckHold => self.delivery.ack_due(ctx, &mut self.timers, &mut self.stats),
            Timer::KeepAlive => self.ping_tick(ctx),
            Timer::Stream => self.stream_tick(ctx),
        }
    }

    /// Back online: the simulator dropped every timer that came due
    /// meanwhile. What becomes of each is decided here, once per kind.
    fn on_reconnect(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.timers.rearm(ctx, |timer, due| match timer {
            // Every unacked delivery retransmits afresh, in id order, or
            // none would ever be acked and the peer never be quiescent.
            Timer::Retransmit(id) => Some(((0, None, *id), RETRANSMIT_BASE)),
            // Every wait on a decision goes on at the backoff it had
            // reached, in transaction order.
            Timer::Decision { txn, inquiries } => Some(((1, Some(*txn), 0), backoff(DECISION_TIMEOUT, *inquiries))),
            // Work whose time came offline is done now; the rest keeps it.
            Timer::ServiceDone(_) | Timer::RetryChild { .. } => (due <= now).then_some(((2, None, 0), 0)),
            // Their layers set the link timers anew below, counting every
            // silence from now: a peer that could not listen accuses nobody.
            Timer::AckHold | Timer::KeepAlive | Timer::Stream => None,
        });
        self.detector.resume_keepalive(ctx, &mut self.timers);
        self.delivery.rearm_ack(ctx, &mut self.timers);
        self.detector.resume_stream(ctx, &mut self.timers, !self.servings.is_empty());
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.crash_recover(ctx);
    }

    fn sample_gauges(&self, out: &mut Vec<(&'static str, u64)>) {
        // The time-series plane (DESIGN.md §15): instantaneous queue and
        // state depths, read-only and in a fixed order so the sampled
        // series is replay-stable. `in_flight_txns` counts non-terminal
        // contexts (the backlog that still holds resources); terminal
        // contexts stay in the map for the oracle but are settled work.
        // Every unacked delivery holds one retransmit timer.
        let unacked = self.delivery.unacked() as u64;
        out.push(("outbox_depth", unacked));
        debug_assert_eq!(self.active_contexts, self.txns.values().filter(|t| !t.tc.is_terminal()).count());
        out.push(("in_flight_txns", self.active_contexts as u64));
        out.push(("dedup_seen", self.delivery.seen_len() as u64));
        out.push(("retransmit_timers", unacked));
        let wal = self.journal.stats();
        out.push(("wal_bytes", wal.bytes_appended));
        out.push(("wal_segments", wal.segments_rotated));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_doc::ServiceDef;
    use axml_p2p::{FaultPlane, Sim, SimConfig};
    use axml_query::SelectQuery;

    fn fabric(n: u32) -> Vec<AxmlPeer> {
        (0..n).map(|i| AxmlPeer::new(PeerId(i), PeerConfig::default())).collect()
    }

    /// Hosts `main` on `peer` with the `root` query over its `out` nodes.
    fn host_root(peer: &mut AxmlPeer, main: &str) {
        peer.repo.put_xml("main", main).unwrap();
        let query = SelectQuery::parse("Select v//out from v in d").expect("static query: Select v//out from v in d");
        peer.registry.register(ServiceDef::query("root", "main", query).with_results(&["out"]));
    }

    /// Three peers under `config`: AP1's `root` materializes one call to
    /// AP2's `fetch`, which answers a single `out`.
    fn root_fetch(config: PeerConfig) -> Vec<AxmlPeer> {
        let mut peers: Vec<AxmlPeer> = (0..3).map(|i| AxmlPeer::new(PeerId(i), config.clone())).collect();
        host_root(
            &mut peers[1],
            r#"<d><out>x</out><axml:sc mode="replace" serviceNameSpace="r" serviceURL="peer://ap2" methodName="fetch"/></d>"#,
        );
        peers[1].wsdl.publish("fetch", &["out"]);
        peers[2].registry.register(
            ServiceDef::function("fetch", |_| Ok(vec![Fragment::elem_text("out", "y")])).with_results(&["out"]),
        );
        peers
    }

    /// A simulator over `peers` in which AP1 submits `method` at t=0.
    fn submitting(sim_config: SimConfig, peers: Vec<AxmlPeer>, method: &str) -> Sim<TxnMsg, AxmlPeer> {
        let mut sim = Sim::new(sim_config, peers);
        sim.actor_mut(PeerId(1)).auto_submit = Some((method.into(), vec![]));
        sim.schedule_timer(0, PeerId(1), 0);
        sim
    }

    /// How many retransmit timers `peer` has registered.
    fn retransmit_timers(peer: &AxmlPeer) -> usize {
        peer.timers.kinds().filter(|t| matches!(t, Timer::Retransmit(_))).count()
    }

    #[test]
    fn wsdl_catalog() {
        let mut w = WsdlCatalog::default();
        assert_eq!(w.hints("m"), None);
        w.publish("m", &["a", "b"]);
        assert_eq!(w.hints("m"), Some(&["a".to_string(), "b".to_string()][..]));
        w.publish("m", &["c"]);
        assert_eq!(w.hints("m"), Some(&["c".to_string()][..]), "re-publish replaces");
    }

    #[test]
    fn merge_chains_grafts_and_marks_super() {
        let mut a = ActiveList::new(PeerId(1), false);
        a.add_invocation(PeerId(1), PeerId(2), false);
        let mut b = ActiveList::new(PeerId(1), true);
        b.add_invocation(PeerId(1), PeerId(2), false);
        b.add_invocation(PeerId(2), PeerId(3), true);
        let mut m = a.clone();
        assert!(m.merge_from(&b), "learned an edge and two super marks");
        assert!(m.contains(PeerId(3)));
        assert_eq!(m.parent_of(PeerId(3)), Some(PeerId(2)));
        assert!(m.all_peers().len() == 3);
        // Super flags flow across merges.
        assert_eq!(m.to_notation(), "[AP1* → AP2 → AP3*]");
        // Disjoint roots: ours wins.
        let mut m2 = a.clone();
        assert!(!m2.merge_from(&ActiveList::new(PeerId(9), false)));
        assert_eq!(m2, a);
        // Merge is idempotent.
        let before = m.clone();
        assert!(!m.merge_from(&before));
        assert_eq!(m, before);
    }

    /// AP1's `main` embeds `outer`@AP2 whose parameter is `inner`@AP3.
    const NESTED_PARAM_CALL: &str = r#"<d><out>local</out>
                    <axml:sc mode="replace" serviceNameSpace="o" serviceURL="peer://ap2" methodName="outer">
                        <axml:params>
                            <axml:param name="in">
                                <axml:sc mode="replace" serviceNameSpace="i" serviceURL="peer://ap3" methodName="inner"/>
                            </axml:param>
                        </axml:params>
                    </axml:sc>
                </d>"#;

    /// Local nesting across peers: "the service call parameters may
    /// themselves be defined as service calls" — here the parameter call
    /// targets a *remote* peer, exercising the ParamFill wave machinery.
    #[test]
    fn remote_param_call_resolves_before_outer_invocation() {
        let mut peers = fabric(4);
        host_root(&mut peers[1], NESTED_PARAM_CALL);
        peers[1].wsdl.publish("outer", &["out"]);
        peers[1].wsdl.publish("inner", &["seed"]);
        // AP2: outer echoes its parameter.
        peers[2].registry.register(
            ServiceDef::function("outer", |params| {
                let p = params.iter().find(|(k, _)| k == "in").map(|(_, v)| v.clone()).unwrap_or_default();
                Ok(vec![Fragment::elem_text("out", format!("outer-got-{p}"))])
            })
            .with_results(&["out"]),
        );
        // AP3: inner supplies the seed value.
        peers[3].registry.register(
            ServiceDef::function("inner", |_| Ok(vec![Fragment::elem_text("seed", "42")])).with_results(&["seed"]),
        );
        let mut sim = submitting(SimConfig::default(), peers, "root");
        sim.run();
        let origin = sim.actor(PeerId(1));
        let outcome = origin.outcomes.first().expect("resolved");
        assert!(outcome.committed);
        let items = &origin.results[&outcome.txn];
        let text: String = items.iter().map(|f| f.to_xml()).collect();
        assert!(text.contains("outer-got-42"), "{text}");
        // Both providers served.
        assert_eq!(sim.actor(PeerId(2)).stats.completed, 1);
        assert_eq!(sim.actor(PeerId(3)).stats.completed, 1);
    }

    /// A fault in the *parameter* call follows the nested recovery
    /// protocol like any other child failure.
    #[test]
    fn param_call_fault_aborts_transaction() {
        let mut peers = fabric(4);
        host_root(&mut peers[1], NESTED_PARAM_CALL);
        peers[2].registry.register(ServiceDef::function("outer", |_| Ok(vec![])).with_results(&["out"]));
        let mut inner = ServiceDef::function("inner", |_| Ok(vec![]));
        inner.injected_fault = Some(Fault::injected("param provider down"));
        peers[3].registry.register(inner);
        let mut sim = submitting(SimConfig::default(), peers, "root");
        sim.run();
        let origin = sim.actor(PeerId(1));
        assert!(!origin.outcomes.first().expect("resolved").committed);
        assert!(origin.is_quiescent());
    }

    #[test]
    fn unknown_service_faults_back() {
        let mut peers = fabric(3);
        host_root(
            &mut peers[1],
            r#"<d><out>x</out><axml:sc serviceNameSpace="g" serviceURL="peer://ap2" methodName="ghost"/></d>"#,
        );
        let mut sim = submitting(SimConfig::default(), peers, "root");
        sim.run();
        let origin = sim.actor(PeerId(1));
        assert!(!origin.outcomes.first().expect("resolved").committed);
    }

    #[test]
    fn submitting_unknown_local_method_resolves_aborted() {
        let mut peers = fabric(2);
        peers[1].repo.put_xml("main", "<d/>").unwrap();
        let mut sim = submitting(SimConfig::default(), peers, "nope");
        sim.run();
        let origin = sim.actor(PeerId(1));
        let outcome = origin.outcomes.first().expect("resolved");
        assert!(!outcome.committed);
        assert!(origin.is_quiescent());
    }

    /// Regression: an ack must retire the delivery's pending retransmit
    /// timer. Before the fix, the timer outlived the outbox entry it was
    /// set for, and its stale firing went into `retransmit` for a delivery
    /// that no longer existed.
    #[test]
    fn ack_clears_retransmit_timer_state() {
        let mut sim = submitting(SimConfig::default(), root_fetch(PeerConfig::default()), "root");
        // Latency is 1..=5 and `fetch` takes one tick, so the Invoke's ack
        // is back by t=11, on the `Result` — well before its retransmit
        // timer (base 16) would fire. At this checkpoint every retransmit
        // timer must belong to an unacked delivery, one each; an orphaned
        // timer is exactly the pre-fix stale state.
        sim.run_until(12);
        for id in [PeerId(1), PeerId(2)] {
            let p = sim.actor(id);
            assert_eq!(retransmit_timers(p), p.delivery.unacked(), "{id}: acked deliveries left timers behind");
        }
        sim.run();
        assert!(sim.actor(PeerId(1)).outcomes.first().expect("resolved").committed);
        assert!(sim.actor(PeerId(1)).is_quiescent());
    }

    /// A reconnect sets the keep-alive timer anew whether or not the old
    /// one came due — and was discarded — while the peer was offline. One
    /// that is still queued is cancelled, not left to run beside the new.
    #[test]
    fn a_reconnect_replaces_a_keepalive_timer_that_is_still_queued() {
        use crate::scenarios::ScenarioBuilder;
        let mut s = ScenarioBuilder::new(1, &[(1, 2)]).duration(2, 1000).disconnect(31, 1).build();
        s.sim.schedule_reconnect(32, PeerId(1));
        s.sim.run_until(30);
        // AP1 waits for AP2 and watches it; nothing else is in flight, so
        // the keep-alive timer is the only one the reconnect will touch.
        let keepalive_only = |p: &AxmlPeer| p.timers.kinds().map(|t| matches!(t, Timer::KeepAlive)).eq([true]);
        assert!(keepalive_only(s.sim.actor(PeerId(1))), "watching AP2, nothing owed or unacked");
        s.sim.run_until(32);
        assert!(keepalive_only(s.sim.actor(PeerId(1))), "still watching AP2");
        assert_eq!(s.sim.cancelled_timers(), 1, "the queued timer was cancelled");
    }

    /// The split-outcome window: a `Result` delivered a second time
    /// *after* the origin has committed — commit dropped the dedup entry
    /// that would have suppressed it — used to be answered with `Abort`,
    /// and the child undid work the transaction had committed with. The
    /// origin answers with the outcome it holds, and no `Abort` leaves it.
    #[test]
    fn a_result_delivered_again_after_the_commit_is_answered_with_the_commit() {
        let mut sim_config = SimConfig::default();
        // The copy arrives 30 ticks after the original: the origin has
        // committed on the original long before.
        sim_config.fault.script.push(axml_p2p::ScriptedFault {
            from: PeerId(2),
            to: PeerId(1),
            kind: "result".into(),
            nth: 0,
            action: axml_p2p::FaultAction::Duplicate { extra: 30 },
        });
        let mut sim = submitting(sim_config, root_fetch(PeerConfig::default()), "root");
        sim.run();
        let origin = sim.actor(PeerId(1));
        assert!(origin.outcomes.first().expect("resolved").committed);
        assert_eq!(origin.stats.late_messages, 1, "the second delivery got past dedup and found nobody waiting");
        assert_eq!(sim.metrics().kind("abort"), 0, "no Abort about a committed transaction");
        assert_eq!(sim.metrics().kind("compensate"), 0);
        assert_eq!(sim.metrics().kind("commit"), 2, "the decision, and the answer to the late copy");
        let txn = origin.outcomes[0].txn;
        for id in [PeerId(1), PeerId(2)] {
            assert_eq!(sim.actor(id).txns[&txn].tc.state, TxnState::Committed, "{id}");
            assert!(sim.actor(id).is_quiescent(), "{id}");
        }
    }

    /// A decision lets go of everything a peer held beside the context.
    /// Fig. 1, Fig. 2, Fig. 1 with S5 failing, and Fig. 1 with S2 slow and
    /// failing, so the AP3 subtree has returned its results before the
    /// abort (with peer-independent compensation it is told `Compensate`,
    /// not `Abort`), each with peer-independent compensation and chaining
    /// on and off: no decided record holds a returned result, a watched
    /// parent or a decision timer.
    #[test]
    fn a_decided_transaction_holds_no_result_watch_or_timer() {
        use crate::scenarios::ScenarioBuilder;
        for (peer_independent, chaining) in [(false, false), (false, true), (true, false), (true, true)] {
            let config =
                PeerConfig { peer_independent, chaining, use_alternative_providers: false, ..Default::default() };
            let cases = [
                ("fig1", ScenarioBuilder::fig1()),
                ("fig2", ScenarioBuilder::fig2()),
                ("fig1-abort", ScenarioBuilder::fig1().fault_at(5)),
                ("fig1, S2 slow and faulty", ScenarioBuilder::fig1().fault_at(2).duration(2, 60)),
            ];
            for (name, builder) in cases {
                let mut s = builder.config(config.clone()).build();
                assert!(s.run().outcome.is_some(), "{name}: resolved");
                let case = format!("{name}, peer_independent={peer_independent}, chaining={chaining}");
                let mut decided = 0;
                for &id in &s.participants {
                    for (txn, t) in s.sim.actor(id).txns.iter().filter(|(_, t)| t.tc.is_terminal()) {
                        decided += 1;
                        assert!(t.returned.is_none(), "{case}: {id} {txn} keeps its returned result");
                        assert_eq!(t.watched, None, "{case}: {id} {txn} watches its parent");
                        assert_eq!(t.decision_timer, None, "{case}: {id} {txn} keeps a decision timer");
                    }
                }
                assert_eq!(decided, 6, "{case}: every participant decided");
            }
        }
    }

    /// The shipped configuration meets both timing MUSTs on the shipped
    /// fabric, and `RETRANSMIT_BASE` is as low as the derived hold allows:
    /// one tick more of latency, and a held ack can come back too late.
    #[test]
    fn the_timing_musts_are_checked_against_the_round_trip() {
        let max_latency = SimConfig::default().latency.max;
        let mut config = PeerConfig::default();
        assert_eq!(config.check_timing(max_latency), Ok(()));
        assert_eq!(ACK_HOLD + 2 * max_latency, RETRANSMIT_BASE - 1);
        assert!(config.check_timing(max_latency + 1).is_err_and(|why| why.contains("RETRANSMIT_BASE 16")));
        config.ping_timeout = config.ping_interval + 2 * max_latency;
        assert!(config.check_timing(max_latency).is_err_and(|why| why.contains("ping_timeout 20")));
        config.ping_interval = 0;
        assert_eq!(config.check_timing(max_latency), Ok(()));
    }

    /// Give-up must clear all pending timer state for the abandoned
    /// delivery.
    #[test]
    fn giveup_clears_timer_state() {
        let mut config = PeerConfig::default();
        config.ping_interval = 0; // isolate the delivery layer's timers
        let mut sim_config = SimConfig::default();
        // Drop every message: the Invoke is never acked and the sender
        // must walk its full backoff schedule to the give-up.
        sim_config.fault = FaultPlane::probabilistic(7, 1.0, 0.0, 0.0, 0.0);
        let mut sim = submitting(sim_config, root_fetch(config), "root");
        sim.run();
        let p1 = sim.actor(PeerId(1));
        assert!(p1.stats.retransmit_giveups >= 1, "delivery gave up");
        assert!(p1.stats.detections.iter().any(|d| d.how == DetectHow::AckTimeout), "give-up detected as ack timeout");
        assert_eq!(p1.delivery.unacked(), 0);
        assert_eq!(retransmit_timers(p1), 0, "give-up cleared its timer state");
        assert!(!p1.outcomes.first().expect("resolved").committed, "undeliverable invoke aborts");
    }

    /// The harness submits `auto_submit` whenever it fires tag 0.
    #[test]
    fn every_harness_timer_0_submits_a_transaction() {
        let mut peers = fabric(2);
        host_root(&mut peers[1], "<d><out>v</out></d>");
        let mut sim = submitting(SimConfig::default(), peers, "root");
        sim.schedule_timer(50, PeerId(1), 0);
        sim.run();
        let outcomes = &sim.actor(PeerId(1)).outcomes;
        assert_eq!(outcomes.iter().filter(|o| o.committed).count(), 2, "{outcomes:?}");
        assert!(outcomes[1].started_at >= 50);
    }
}
