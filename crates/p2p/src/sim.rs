//! The discrete-event simulator.
//!
//! One [`Actor`] per peer; events are message deliveries, timer firings,
//! churn (disconnect/reconnect), and fault-plane crash-restarts.
//! Everything is driven by seeded RNGs and a logical clock, so every run
//! is exactly reproducible — the property that lets the test suite assert
//! precise message sequences for the paper's Fig. 1 and Fig. 2 scenarios,
//! and that lets the chaos harness shrink a failing fault schedule to a
//! scripted reproducer (see [`crate::fault`]).

use crate::fault::{CrashEvent, FaultPlane, FaultRuntime, Injected, ScriptedFault};
use crate::ids::{PeerId, TimerId};
use crate::metrics::NetMetrics;
use axml_trace::{EventKind, SharedSink, SpanRef, TraceEvent, TraceJournal, TraceSink, TxnRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Messages exchanged between actors.
pub trait Message: Clone + fmt::Debug {
    /// A short label used for per-kind metrics.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// True if this message is a protocol-level retransmission of an
    /// earlier send (counted separately in [`NetMetrics::retransmits`]).
    fn is_retransmit(&self) -> bool {
        false
    }
}

/// A peer's protocol logic.
pub trait Actor<M: Message> {
    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: PeerId, msg: M);

    /// A timer set via [`Ctx::set_timer`] (or [`Sim::schedule_timer`]) fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64);

    /// The peer just reconnected after a disconnection (optional hook).
    fn on_reconnect(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// The peer crashed and instantly restarted (optional hook). All
    /// timers set before the crash are dead (the simulator discards them
    /// by incarnation); the actor must wipe its volatile state and
    /// rebuild from whatever it journaled durably.
    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Reports instantaneous gauge readings for the time-series sampler
    /// (optional hook). Called at fixed sim-time window boundaries when
    /// [`SimConfig::sample_interval`] is nonzero and a trace sink is
    /// collecting; push `(metric, value)` pairs in a fixed order (the
    /// order becomes the journal order of the samples).
    /// Read-only by design: sampling must never perturb the schedule.
    fn sample_gauges(&self, _out: &mut Vec<(&'static str, u64)>) {}
}

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The target peer is disconnected *right now* — the synchronous
    /// detection path of §3.3 ("AP6 detects the disconnection of AP3 while
    /// trying to return the results").
    Unreachable(PeerId),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Unreachable(p) => write!(f, "peer {p} is unreachable"),
        }
    }
}

impl std::error::Error for SendError {}

/// Message latency: uniform in `[min, max]` time units, seeded.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Minimum delivery delay.
    pub min: u64,
    /// Maximum delivery delay (inclusive).
    pub max: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel { min: 1, max: 5 }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (drives latency jitter).
    pub seed: u64,
    /// Latency model.
    pub latency: LatencyModel,
    /// Hard cap on processed events (runaway-protocol guard).
    pub max_events: u64,
    /// Fault schedule (inert by default; see [`crate::fault`]).
    pub fault: FaultPlane,
    /// Lifecycle-event sink (disabled by default — see [`axml_trace`]).
    /// Tracing shares the fault plane's determinism: enabling it never
    /// perturbs the event schedule, so a scripted replay yields a
    /// byte-identical journal.
    pub trace: TraceSink,
    /// Gauge-sampling window width in sim-time units (0 = sampling off,
    /// the default). When nonzero and a trace sink is collecting, the
    /// simulator writes one [`EventKind::Gauge`] sample per
    /// `(peer, metric)` into the journal's sample column at every window
    /// boundary `k * sample_interval`, stamped at the boundary time and
    /// reflecting the state after all events at times `<=` the boundary.
    /// Observers never see a sample, so without a journal nothing is
    /// sampled. Sampling is observation-only: it reads actors through
    /// [`Actor::sample_gauges`] and never touches the RNG or the event
    /// queue, so enabling it cannot change the schedule.
    pub sample_interval: u64,
    /// Coalesce consecutive same-tick deliveries on a link into one
    /// batched queue event (on by default). Batching is purely a queue
    /// optimization: messages that would occupy consecutive schedule
    /// seqs at the same delivery time ride one heap entry, so the event
    /// queue scales with links rather than messages under delivery
    /// floods. Delivery order, metrics, RNG draws, and trace journals
    /// are byte-identical either way — the batch only forms while no
    /// other event interleaves, exactly when the unbatched heap would
    /// pop the same deliveries back-to-back anyway.
    pub batch_links: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 7,
            latency: LatencyModel::default(),
            max_events: 1_000_000,
            fault: FaultPlane::default(),
            trace: TraceSink::default(),
            sample_interval: 0,
            batch_links: true,
        }
    }
}

/// A queue entry's payload. Every heap sift moves a whole entry, so the
/// message of a lone delivery is boxed: the entry stays at 48 bytes
/// whatever `M` is (see [`scheduled_entry_size`]).
enum Event<M> {
    Deliver {
        from: PeerId,
        to: PeerId,
        msg: Box<M>,
        link_seq: u64,
        dup: bool,
    },
    /// A run of consecutive same-tick deliveries on one link; `batch`
    /// indexes the simulator's batch slab. Fault-injected deliveries
    /// (duplicates, spikes, reorders) never batch — they keep their own
    /// [`Event::Deliver`] entries.
    DeliverBatch {
        from: PeerId,
        to: PeerId,
        batch: usize,
    },
    Timer {
        peer: PeerId,
        id: TimerId,
        tag: u64,
        inc: u64,
    },
    Disconnect(PeerId),
    Reconnect(PeerId),
    CrashRestart(PeerId),
}

/// Bookkeeping for the batch currently accepting appends: sends may join
/// it only while the delivery time and link match and **no other event
/// has been scheduled since** (`next_seq` tracks the seq the next member
/// must take for the batch to stay equivalent to consecutive unbatched
/// deliveries).
struct OpenBatch {
    at: u64,
    link: usize,
    batch: usize,
    next_seq: u64,
}

struct Scheduled<M> {
    at: u64,
    seq: u64,
    event: Event<M>,
}

/// Bytes one event-queue entry occupies for message type `M` — what every
/// heap sift moves. Exposed so a protocol crate can pin it in a test.
#[doc(hidden)]
pub const fn scheduled_entry_size<M>() -> usize {
    std::mem::size_of::<Scheduled<M>>()
}

/// Which timers are still in the queue. A [`TimerId`] is a slot of this
/// table stamped with the slot's generation when the timer was set; the
/// slot is freed — its generation bumped — the moment the queue pops the
/// timer, fired or not. Cancelling therefore costs an index, and
/// cancelling a timer that is no longer queued (it fired, or was discarded
/// for an offline or crashed peer) matches no live generation and is a
/// true no-op.
#[derive(Default)]
struct TimerTable {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Cancelled timers the queue has not popped yet.
    cancelled: usize,
}

#[derive(Clone, Copy, Default)]
struct TimerSlot {
    generation: u32,
    cancelled: bool,
}

impl TimerTable {
    fn set(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(TimerSlot::default());
            (self.slots.len() - 1) as u32
        });
        TimerId(u64::from(self.slots[slot as usize].generation) << 32 | u64::from(slot))
    }

    fn live_slot(&mut self, id: TimerId) -> Option<&mut TimerSlot> {
        let slot = self.slots.get_mut((id.0 & 0xffff_ffff) as usize)?;
        (u64::from(slot.generation) == id.0 >> 32).then_some(slot)
    }

    fn cancel(&mut self, id: TimerId) {
        if let Some(slot) = self.live_slot(id) {
            if !std::mem::replace(&mut slot.cancelled, true) {
                self.cancelled += 1;
            }
        }
    }

    /// The queue popped timer `id`: frees its slot and says whether the
    /// timer had been cancelled.
    fn retire(&mut self, id: TimerId) -> bool {
        let slot = self.live_slot(id).expect("a queued timer holds its slot");
        slot.generation = slot.generation.wrapping_add(1);
        let cancelled = std::mem::take(&mut slot.cancelled);
        self.free.push((id.0 & 0xffff_ffff) as u32);
        self.cancelled -= usize::from(cancelled);
        cancelled
    }
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Shared simulator state, accessed by actors through [`Ctx`].
pub struct SimState<M> {
    now: u64,
    seq: u64,
    timers: TimerTable,
    queue: BinaryHeap<Scheduled<M>>,
    connected: Vec<bool>,
    super_peer: Vec<bool>,
    incarnation: Vec<u64>,
    rng: StdRng,
    latency: LatencyModel,
    max_events: u64,
    fault: FaultRuntime,
    /// Peer count; `(from, to)` links index the dense counters below as
    /// `from * peers + to`. Dense vectors instead of hash maps for two
    /// reasons at once: the per-send/per-delivery lookup on the hot path
    /// costs an index instead of a hash, and iteration order (should a
    /// report ever walk the links) is fixed — never the per-process
    /// random order a `HashMap` would give.
    peers: usize,
    /// Messages sent per link (the link sequence counter).
    link_sent: Vec<u64>,
    /// Per link: highest delivered sequence + 1 (0 = nothing delivered
    /// yet), the out-of-order watermark.
    link_delivered: Vec<u64>,
    trace: Option<TraceJournal>,
    observers: Vec<SharedSink>,
    emitted: u64,
    sample_interval: u64,
    /// Next unsampled window boundary (only meaningful when sampling).
    next_sample: u64,
    /// One actor's readings at one boundary; kept to reuse its buffer.
    gauges: Vec<(&'static str, u64)>,
    /// Per-link batching toggle (see [`SimConfig::batch_links`]).
    batch_links: bool,
    /// Slab of message batches referenced by [`Event::DeliverBatch`];
    /// drained slots are recycled through `free_batches` so a steady-state
    /// flood reuses the same allocations.
    batches: Vec<Vec<(M, u64)>>,
    free_batches: Vec<usize>,
    /// The batch still accepting appends, if any. Invalidated by every
    /// `schedule` call and every event pop: once anything interleaves,
    /// later sends could no longer occupy consecutive seqs.
    open_batch: Option<OpenBatch>,
    /// Heap pushes performed (diagnostic only — deliberately *not* part
    /// of [`NetMetrics`], so batched and unbatched runs report identical
    /// metrics and sweep digests).
    heap_pushed: u64,
    /// Counters, readable after the run.
    pub metrics: NetMetrics,
}

impl<M: Message> SimState<M> {
    fn schedule(&mut self, at: u64, event: Event<M>) {
        // Any independently scheduled event claims the next seq, so the
        // open batch (if any) can no longer be extended equivalently.
        self.open_batch = None;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
        self.heap_pushed += 1;
    }

    fn schedule_timer(&mut self, at: u64, peer: PeerId, tag: u64) -> TimerId {
        let id = self.timers.set();
        let inc = self.incarnation[peer.0 as usize];
        self.schedule(at, Event::Timer { peer, id, tag, inc });
        id
    }

    /// Enqueues a clean (fault-free) delivery, coalescing it onto the open
    /// batch when it would take the very next seq at the same `(at, link)`
    /// — i.e. exactly when the unbatched heap would pop it back-to-back
    /// with the batch's other members. Each appended member still consumes
    /// one seq, so every later event keeps the seq (and therefore the
    /// tie-break order) it would have had unbatched.
    fn push_batched(&mut self, at: u64, from: PeerId, to: PeerId, link: usize, msg: M, link_seq: u64) {
        if let Some(ob) = &mut self.open_batch {
            if ob.at == at && ob.link == link && ob.next_seq == self.seq {
                let batch = ob.batch;
                ob.next_seq += 1;
                self.seq += 1;
                self.batches[batch].push((msg, link_seq));
                return;
            }
        }
        let batch = match self.free_batches.pop() {
            Some(i) => i,
            None => {
                self.batches.push(Vec::new());
                self.batches.len() - 1
            }
        };
        self.batches[batch].push((msg, link_seq));
        // `schedule` clears `open_batch`; register the new one after.
        self.schedule(at, Event::DeliverBatch { from, to, batch });
        self.open_batch = Some(OpenBatch { at, link, batch, next_seq: self.seq });
    }

    /// Substrate-level emission (churn/crash events the simulator itself
    /// observes, not any one actor).
    fn emit_sim(&mut self, peer: PeerId, kind: EventKind) {
        let (now, epoch) = (self.now, self.incarnation[peer.0 as usize]);
        self.emit_event(now, peer.0, epoch, None, None, None, kind);
    }

    /// Central emission point: stamps one event, hands it to every
    /// attached online observer (in attachment order), then journals it
    /// (if collecting). Observers see events in the same order and with
    /// the same `seq` the journal assigns, so online and post-hoc
    /// analysis agree.
    #[allow(clippy::too_many_arguments)]
    fn emit_event(
        &mut self,
        at: u64,
        peer: u32,
        epoch: u64,
        txn: Option<TxnRef>,
        span: Option<SpanRef>,
        parent: Option<SpanRef>,
        kind: EventKind,
    ) {
        if self.trace.is_none() && self.observers.is_empty() {
            return;
        }
        let seq = self.emitted;
        self.emitted += 1;
        let event = TraceEvent { seq, at, peer, epoch, txn, span, parent, kind };
        for obs in &self.observers {
            obs.borrow_mut().on_event(&event);
        }
        if let Some(j) = &mut self.trace {
            let TraceEvent { at, peer, epoch, txn, span, parent, kind, .. } = event;
            j.record(at, peer, epoch, txn, span, parent, kind);
        }
    }
}

/// What an actor can do while handling an event.
pub struct Ctx<'a, M: Message> {
    state: &'a mut SimState<M>,
    me: PeerId,
}

impl<M: Message> Ctx<'_, M> {
    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// This actor's peer id.
    pub fn me(&self) -> PeerId {
        self.me
    }

    /// Sends a message. Fails synchronously if the target is disconnected
    /// at this instant; otherwise the message is delivered after a seeded
    /// latency — unless the fault plane drops, duplicates, or delays it
    /// first (and it is silently dropped if the target disconnects in
    /// flight).
    pub fn send(&mut self, to: PeerId, msg: M) -> Result<(), SendError> {
        if !self.state.connected.get(to.0 as usize).copied().unwrap_or(false) {
            self.state.metrics.send_failures += 1;
            return Err(SendError::Unreachable(to));
        }
        let delay = self.state.rng.gen_range(self.state.latency.min..=self.state.latency.max);
        // Saturating: protocol layers with saturating backoff can run at
        // the very end of the logical clock.
        let at = self.state.now.saturating_add(delay);
        self.state.metrics.sent += 1;
        let kind = msg.kind();
        *self.state.metrics.by_kind.entry(kind).or_default() += 1;
        if msg.is_retransmit() {
            self.state.metrics.retransmits += 1;
            *self.state.metrics.retransmits_by_kind.entry(kind).or_default() += 1;
        }
        let from = self.me;
        let link = from.0 as usize * self.state.peers + to.0 as usize;
        let link_seq = self.state.link_sent[link];
        self.state.link_sent[link] += 1;
        let now = self.state.now;
        match self.state.fault.on_send(now, from, to, kind) {
            None => {
                if self.state.batch_links {
                    self.state.push_batched(at, from, to, link, msg, link_seq);
                } else {
                    self.state.schedule(at, Event::Deliver { from, to, msg: Box::new(msg), link_seq, dup: false });
                }
            }
            Some(Injected::PartitionDrop) => {
                self.state.metrics.injected_drops += 1;
                self.state.metrics.partition_drops += 1;
                *self.state.metrics.drops_by_kind.entry(kind).or_default() += 1;
            }
            Some(Injected::Drop) => {
                self.state.metrics.injected_drops += 1;
                *self.state.metrics.drops_by_kind.entry(kind).or_default() += 1;
            }
            Some(Injected::Duplicate { extra }) => {
                self.state.metrics.injected_dups += 1;
                *self.state.metrics.dups_by_kind.entry(kind).or_default() += 1;
                let msg = Box::new(msg);
                let copy = msg.clone();
                self.state.schedule(at, Event::Deliver { from, to, msg, link_seq, dup: false });
                self.state
                    .schedule(at.saturating_add(extra), Event::Deliver { from, to, msg: copy, link_seq, dup: true });
            }
            Some(Injected::Spike { extra }) => {
                self.state.metrics.injected_spikes += 1;
                let msg = Box::new(msg);
                self.state.schedule(at.saturating_add(extra), Event::Deliver { from, to, msg, link_seq, dup: false });
            }
            Some(Injected::Reorder { extra }) => {
                self.state.metrics.injected_reorders += 1;
                let msg = Box::new(msg);
                self.state.schedule(at.saturating_add(extra), Event::Deliver { from, to, msg, link_seq, dup: false });
            }
        }
        Ok(())
    }

    /// Sets a timer that fires on this peer after `delay` time units,
    /// delivering `tag` to [`Actor::on_timer`]. The timer dies if the
    /// peer crash-restarts before it fires. Extreme delays saturate at
    /// the end of logical time instead of wrapping (a timer that "never"
    /// fires stays a timer that never fires).
    pub fn set_timer(&mut self, delay: u64, tag: u64) -> TimerId {
        let at = self.state.now.saturating_add(delay);
        self.state.schedule_timer(at, self.me, tag)
    }

    /// This peer's crash-restart incarnation (0 until the first crash).
    /// Protocol layers use it to namespace identifiers that must not be
    /// reused across a restart.
    pub fn incarnation(&self) -> u64 {
        self.state.incarnation[self.me.0 as usize]
    }

    /// Cancels a pending timer. A no-op if the simulator already popped
    /// it — because it fired, or because it was discarded while this peer
    /// was offline or had crashed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.state.timers.cancel(id);
    }

    /// Connectivity oracle — **for assertions and the churn driver only**.
    /// Protocol code must detect disconnection the way the paper does:
    /// failed sends, missed pings, missed stream intervals.
    pub fn is_connected(&self, peer: PeerId) -> bool {
        self.state.connected.get(peer.0 as usize).copied().unwrap_or(false)
    }

    /// True if `peer` is a super peer.
    pub fn is_super(&self, peer: PeerId) -> bool {
        self.state.super_peer.get(peer.0 as usize).copied().unwrap_or(false)
    }

    /// True if a trace sink is collecting events or an online observer is
    /// attached. Protocol layers use this to skip building event payloads
    /// on unobserved runs.
    pub fn tracing(&self) -> bool {
        self.state.trace.is_some() || !self.state.observers.is_empty()
    }

    /// Emits one lifecycle event, stamped with the current logical time,
    /// this peer's id, and its crash-restart epoch. A no-op when the
    /// sink is disabled and no observer is attached.
    pub fn emit(&mut self, txn: Option<TxnRef>, span: Option<SpanRef>, parent: Option<SpanRef>, kind: EventKind) {
        let (now, epoch) = (self.state.now, self.state.incarnation[self.me.0 as usize]);
        let peer = self.me.0;
        self.state.emit_event(now, peer, epoch, txn, span, parent, kind);
    }
}

/// The simulator: actors plus the event queue.
pub struct Sim<M: Message, A: Actor<M>> {
    state: SimState<M>,
    actors: Vec<A>,
}

impl<M: Message, A: Actor<M>> Sim<M, A> {
    /// Builds a simulator over `actors`; peer `i` runs `actors[i]` and all
    /// peers start connected.
    pub fn new(config: SimConfig, actors: Vec<A>) -> Sim<M, A> {
        let n = actors.len();
        let crashes: Vec<CrashEvent> = config.fault.crashes.clone();
        let mut sim = Sim {
            state: SimState {
                now: 0,
                seq: 0,
                timers: TimerTable::default(),
                queue: BinaryHeap::new(),
                connected: vec![true; n],
                super_peer: vec![false; n],
                incarnation: vec![0; n],
                rng: StdRng::seed_from_u64(config.seed),
                latency: config.latency,
                max_events: config.max_events,
                fault: FaultRuntime::new(config.fault),
                peers: n,
                link_sent: vec![0; n * n],
                link_delivered: vec![0; n * n],
                trace: config.trace.enabled().then(TraceJournal::default),
                observers: Vec::new(),
                emitted: 0,
                sample_interval: config.sample_interval,
                next_sample: config.sample_interval,
                gauges: Vec::new(),
                batch_links: config.batch_links,
                batches: Vec::new(),
                free_batches: Vec::new(),
                open_batch: None,
                heap_pushed: 0,
                metrics: NetMetrics::default(),
            },
            actors,
        };
        for c in crashes {
            sim.state.schedule(c.at, Event::CrashRestart(c.peer));
        }
        sim
    }

    /// Heap pushes performed so far — a queue-pressure diagnostic for
    /// benches and tests (batching should push far fewer entries under a
    /// delivery flood). Deliberately not a [`NetMetrics`] counter: the
    /// metrics snapshot stays byte-identical whether or not batching is
    /// enabled.
    pub fn heap_pushes(&self) -> u64 {
        self.state.heap_pushed
    }

    /// Cancelled timers still waiting in the event queue — zero once the
    /// queue has drained (a leak diagnostic for soak tests).
    pub fn cancelled_timers(&self) -> usize {
        self.state.timers.cancelled
    }

    /// Attaches an online event observer (e.g. the `axml-obs` protocol
    /// monitor or flight recorder). Observers receive every lifecycle
    /// event as it is emitted, in attachment order, whether or not a
    /// journal is collecting; gauge samples go to the journal alone.
    /// Observation-only: attaching one never changes the seeded event
    /// schedule.
    pub fn attach_observer(&mut self, sink: SharedSink) {
        self.state.observers.push(sink);
    }

    /// Marks a peer as a super peer (disconnect events are ignored for it).
    pub fn mark_super(&mut self, peer: PeerId) {
        if let Some(s) = self.state.super_peer.get_mut(peer.0 as usize) {
            *s = true;
        }
    }

    /// Schedules a disconnect at time `at` (ignored for super peers when
    /// it fires).
    pub fn schedule_disconnect(&mut self, at: u64, peer: PeerId) {
        self.state.schedule(at, Event::Disconnect(peer));
    }

    /// Schedules a reconnect at time `at`.
    pub fn schedule_reconnect(&mut self, at: u64, peer: PeerId) {
        self.state.schedule(at, Event::Reconnect(peer));
    }

    /// Schedules a timer on a peer from outside (how the harness starts a
    /// scenario: e.g. tag 0 = "submit the transaction now"). Like actor
    /// timers, it dies if the peer crash-restarts first.
    pub fn schedule_timer(&mut self, at: u64, peer: PeerId, tag: u64) {
        self.state.schedule_timer(at, peer, tag);
    }

    /// Runs until the queue drains or the event cap is hit. Returns the
    /// final logical time.
    pub fn run(&mut self) -> u64 {
        self.run_until(u64::MAX)
    }

    /// Runs until logical time `deadline` (events at `deadline` included),
    /// the queue drains, or the event cap is hit.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        let mut processed = 0u64;
        while let Some(head_at) = self.state.queue.peek().map(|h| h.at) {
            if head_at > deadline {
                break;
            }
            if processed >= self.state.max_events {
                break;
            }
            // Window sampling sits between events: every boundary strictly
            // before the next event is sampled once, so a gauge at boundary
            // `b` reflects the state after all events stamped `<= b`.
            self.sample_windows_before(head_at);
            processed += 1;
            let Scheduled { at, seq, event } = self.state.queue.pop().expect("peeked");
            self.state.now = at;
            // Once an event runs, the open batch is sealed: a later send
            // landing on it would be delivered after this event unbatched,
            // so it must open a fresh batch behind this seq.
            self.state.open_batch = None;
            match event {
                Event::Deliver { from, to, msg, link_seq, dup } => {
                    if !self.state.connected[to.0 as usize] {
                        self.state.metrics.dropped_in_flight += 1;
                        continue;
                    }
                    if !dup {
                        // Out-of-order accounting: a delivery behind a
                        // later-sent message on the same link. The
                        // watermark stores `highest delivered seq + 1`.
                        let link = from.0 as usize * self.state.peers + to.0 as usize;
                        let hi = &mut self.state.link_delivered[link];
                        if link_seq + 1 < *hi {
                            self.state.metrics.out_of_order += 1;
                        } else {
                            *hi = link_seq + 1;
                        }
                    }
                    self.state.metrics.delivered += 1;
                    self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, *msg));
                }
                Event::DeliverBatch { from, to, batch } => {
                    // Members occupy consecutive seqs starting at this
                    // event's, so delivering them back-to-back here is
                    // exactly what the unbatched heap would do. Each member
                    // counts toward the event cap like its own event; on a
                    // cap hit the tail goes back under the *original* seq,
                    // leaving the queue in the exact resumable state.
                    let mut msgs = std::mem::take(&mut self.state.batches[batch]);
                    msgs.reverse();
                    let mut first = true;
                    let mut requeued = false;
                    while let Some((msg, link_seq)) = msgs.pop() {
                        if !first && processed >= self.state.max_events {
                            msgs.push((msg, link_seq));
                            msgs.reverse();
                            requeued = true;
                            break;
                        }
                        if !first {
                            processed += 1;
                        }
                        first = false;
                        if !self.state.connected[to.0 as usize] {
                            self.state.metrics.dropped_in_flight += 1;
                            continue;
                        }
                        // Batched members are never duplicates (the fault
                        // plane schedules its deliveries unbatched).
                        let link = from.0 as usize * self.state.peers + to.0 as usize;
                        let hi = &mut self.state.link_delivered[link];
                        if link_seq + 1 < *hi {
                            self.state.metrics.out_of_order += 1;
                        } else {
                            *hi = link_seq + 1;
                        }
                        self.state.metrics.delivered += 1;
                        self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
                        // An actor may have sent during `on_message`; any
                        // batch it opened must not absorb later sends as if
                        // they preceded our remaining members.
                        self.state.open_batch = None;
                    }
                    if requeued {
                        self.state.batches[batch] = msgs;
                        self.state.queue.push(Scheduled { at, seq, event: Event::DeliverBatch { from, to, batch } });
                        self.state.heap_pushed += 1;
                    } else {
                        // `msgs` is empty but keeps its capacity; recycle it.
                        self.state.batches[batch] = msgs;
                        self.state.free_batches.push(batch);
                    }
                }
                Event::Timer { peer, id, tag, inc } => {
                    if self.state.timers.retire(id) {
                        continue;
                    }
                    if inc != self.state.incarnation[peer.0 as usize] {
                        self.state.metrics.stale_timers += 1;
                        continue; // set before a crash-restart: dead
                    }
                    if !self.state.connected[peer.0 as usize] {
                        continue; // offline peers' timers don't fire
                    }
                    self.state.metrics.timers_fired += 1;
                    self.with_actor(peer, |actor, ctx| actor.on_timer(ctx, tag));
                }
                Event::Disconnect(peer) => {
                    if self.state.super_peer[peer.0 as usize] {
                        continue; // "trusted peers which do not disconnect"
                    }
                    if std::mem::replace(&mut self.state.connected[peer.0 as usize], false) {
                        self.state.metrics.disconnects += 1;
                        self.state.emit_sim(peer, EventKind::Disconnect);
                    }
                }
                Event::Reconnect(peer) => {
                    if !std::mem::replace(&mut self.state.connected[peer.0 as usize], true) {
                        self.state.metrics.reconnects += 1;
                        self.state.emit_sim(peer, EventKind::Reconnect);
                        self.with_actor(peer, |actor, ctx| actor.on_reconnect(ctx));
                    }
                }
                Event::CrashRestart(peer) => {
                    if !self.state.connected[peer.0 as usize] {
                        continue; // an offline peer has nothing running to crash
                    }
                    self.state.metrics.crash_restarts += 1;
                    self.state.emit_sim(peer, EventKind::Crash);
                    self.state.incarnation[peer.0 as usize] += 1;
                    self.with_actor(peer, |actor, ctx| actor.on_crash_restart(ctx));
                }
            }
        }
        self.state.now
    }

    /// Writes gauge samples into the journal for every window boundary
    /// strictly before `next_at`. A pure function of the schedule:
    /// boundaries are fixed multiples of the interval, actors are read in
    /// peer order, and each actor reports its gauges in its own fixed
    /// order — so the sampled series is byte-identical on every replay.
    /// Samples bypass [`SimState::emit_event`]: no observer consumes
    /// them, but each takes the next seq, so the seqs observers see match
    /// the journal's.
    fn sample_windows_before(&mut self, next_at: u64) {
        let interval = self.state.sample_interval;
        let Some(journal) = self.state.trace.as_mut().filter(|_| interval > 0) else {
            return;
        };
        let gauges = &mut self.state.gauges;
        while self.state.next_sample < next_at {
            let at = self.state.next_sample;
            for (peer, actor) in self.actors.iter().enumerate() {
                actor.sample_gauges(gauges);
                let epoch = self.state.incarnation[peer];
                self.state.emitted += gauges.len() as u64;
                for (name, value) in gauges.drain(..) {
                    journal.sample(at, peer as u32, epoch, name, value);
                }
            }
            let bumped = self.state.next_sample.saturating_add(interval);
            if bumped == self.state.next_sample {
                break; // saturated at the end of logical time
            }
            self.state.next_sample = bumped;
        }
    }

    /// Runs `f` on the actor where it lives: the actor and the shared
    /// state are separate fields, so neither is moved to lend them both.
    fn with_actor(&mut self, peer: PeerId, f: impl FnOnce(&mut A, &mut Ctx<'_, M>)) {
        if let Some(actor) = self.actors.get_mut(peer.0 as usize) {
            f(actor, &mut Ctx { state: &mut self.state, me: peer });
        }
    }

    /// Immutable access to an actor (assertions after a run).
    pub fn actor(&self, peer: PeerId) -> &A {
        &self.actors[peer.0 as usize]
    }

    /// Mutable access to an actor (setup between runs).
    pub fn actor_mut(&mut self, peer: PeerId) -> &mut A {
        &mut self.actors[peer.0 as usize]
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.state.metrics
    }

    /// The collected event journal, if the run was traced.
    pub fn trace(&self) -> Option<&TraceJournal> {
        self.state.trace.as_ref()
    }

    /// Moves the collected journal out of a finished run: [`Self::trace`]
    /// is `None` afterwards.
    pub fn take_trace(&mut self) -> Option<TraceJournal> {
        self.state.trace.take()
    }

    /// The fault schedule this simulation was configured with.
    pub fn fault_plane(&self) -> &FaultPlane {
        self.state.fault.plane()
    }

    /// Every per-message fault injected so far, as a replayable script
    /// (partition drops excluded — the partitions themselves are already
    /// scripted in the plane). Feeding this to [`FaultPlane::scripted`]
    /// with the same partitions and crashes reproduces the run.
    pub fn fault_trace(&self) -> &[ScriptedFault] {
        self.state.fault.trace()
    }

    /// Moves [`Self::fault_trace`] out of a finished run, leaving it empty.
    pub fn take_fault_trace(&mut self) -> Vec<ScriptedFault> {
        self.state.fault.take_trace()
    }

    /// A peer's crash-restart incarnation (0 until its first crash).
    pub fn incarnation(&self, peer: PeerId) -> u64 {
        self.state.incarnation[peer.0 as usize]
    }

    /// Connectivity oracle for assertions.
    pub fn is_connected(&self, peer: PeerId) -> bool {
        self.state.connected[peer.0 as usize]
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if the simulator has no peers.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Message for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    /// Echoes pings; counts everything it sees.
    #[derive(Default)]
    struct Echo {
        pings: u32,
        pongs: u32,
        send_failures: u32,
        fired: Vec<u64>,
        reconnects: u32,
        deliveries_at: Vec<u64>,
    }

    impl Actor<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: PeerId, msg: Msg) {
            self.deliveries_at.push(ctx.now());
            match msg {
                Msg::Ping(n) => {
                    self.pings += 1;
                    if ctx.send(from, Msg::Pong(n)).is_err() {
                        self.send_failures += 1;
                    }
                }
                Msg::Pong(n) => self.pongs += n,
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.fired.push(tag);
            // tag = target peer to ping
            if tag < 100 && ctx.send(PeerId(tag as u32), Msg::Ping(1)).is_err() {
                self.send_failures += 1;
            }
        }

        fn on_reconnect(&mut self, _ctx: &mut Ctx<'_, Msg>) {
            self.reconnects += 1;
        }
    }

    fn sim(n: usize) -> Sim<Msg, Echo> {
        Sim::new(SimConfig::default(), (0..n).map(|_| Echo::default()).collect())
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut s = sim(2);
        s.schedule_timer(0, PeerId(0), 1); // AP0 pings AP1
        s.run();
        assert_eq!(s.actor(PeerId(1)).pings, 1);
        assert_eq!(s.actor(PeerId(0)).pongs, 1);
        assert_eq!(s.metrics().sent, 2);
        assert_eq!(s.metrics().delivered, 2);
        assert_eq!(s.metrics().kind("ping"), 1);
        assert_eq!(s.metrics().kind("pong"), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim(3);
            for t in 0..10 {
                s.schedule_timer(t, PeerId(0), 1);
                s.schedule_timer(t, PeerId(1), 2);
            }
            s.run();
            (s.now(), s.metrics().sent, s.actor(PeerId(2)).deliveries_at.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_change_latency_schedule() {
        let run = |seed| {
            let mut s = Sim::new(SimConfig { seed, ..Default::default() }, vec![Echo::default(), Echo::default()]);
            s.schedule_timer(0, PeerId(0), 1);
            s.run();
            s.actor(PeerId(1)).deliveries_at.clone()
        };
        // With latency jitter 1..=5, some seed pair must differ.
        let schedules: Vec<_> = (0..10).map(run).collect();
        assert!(schedules.iter().any(|s| *s != schedules[0]), "latency should be seed-dependent");
    }

    #[test]
    fn synchronous_unreachable_detection() {
        let mut s = sim(2);
        s.schedule_disconnect(0, PeerId(1));
        s.schedule_timer(5, PeerId(0), 1); // ping after the disconnect
        s.run();
        assert_eq!(s.actor(PeerId(0)).send_failures, 1);
        assert_eq!(s.metrics().send_failures, 1);
        assert_eq!(s.metrics().sent, 0);
    }

    #[test]
    fn in_flight_messages_dropped_on_disconnect() {
        let mut s = sim(2);
        s.schedule_timer(0, PeerId(0), 1); // ping departs at t=0, arrives t∈[1,5]
        s.schedule_disconnect(0, PeerId(1)); // but AP1 disconnects at t=0 — wait, same time
        s.run();
        // Disconnect at t=0 happens... event order by seq: timer scheduled
        // first, so ping send succeeds (AP1 still connected at t=0? The
        // disconnect was scheduled second, so at equal time the timer runs
        // first). The delivery later finds AP1 disconnected → dropped.
        assert_eq!(s.metrics().sent, 1);
        assert_eq!(s.metrics().dropped_in_flight, 1);
        assert_eq!(s.actor(PeerId(1)).pings, 0);
    }

    #[test]
    fn super_peers_never_disconnect() {
        let mut s = sim(2);
        s.mark_super(PeerId(1));
        s.schedule_disconnect(0, PeerId(1));
        s.schedule_timer(5, PeerId(0), 1);
        s.run();
        assert!(s.is_connected(PeerId(1)));
        assert_eq!(s.actor(PeerId(1)).pings, 1);
        assert_eq!(s.metrics().disconnects, 0);
    }

    #[test]
    fn reconnect_fires_hook_and_restores_delivery() {
        let mut s = sim(2);
        s.schedule_disconnect(0, PeerId(1));
        s.schedule_reconnect(10, PeerId(1));
        s.schedule_timer(20, PeerId(0), 1);
        s.run();
        assert_eq!(s.actor(PeerId(1)).reconnects, 1);
        assert_eq!(s.actor(PeerId(1)).pings, 1);
        assert_eq!(s.metrics().disconnects, 1);
        assert_eq!(s.metrics().reconnects, 1);
    }

    #[test]
    fn offline_peer_timers_do_not_fire() {
        let mut s = sim(1);
        s.schedule_timer(5, PeerId(0), 42);
        s.schedule_disconnect(0, PeerId(0));
        s.run();
        assert!(s.actor(PeerId(0)).fired.is_empty());
    }

    struct Canceller {
        fired: Vec<u64>,
        pending: Option<TimerId>,
    }
    impl Actor<Msg> for Canceller {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                // Set a timer then immediately cancel it; set another that survives.
                let t = ctx.set_timer(10, 2);
                ctx.cancel_timer(t);
                ctx.set_timer(10, 3);
            }
        }
    }

    #[test]
    fn timer_cancellation() {
        let mut s = Sim::new(SimConfig::default(), vec![Canceller { fired: vec![], pending: None }]);
        let _ = &s.actor(PeerId(0)).pending; // silence unused-field pattern
        s.schedule_timer(0, PeerId(0), 1);
        s.run();
        assert_eq!(s.actor(PeerId(0)).fired, vec![1, 3]);
    }

    /// Regression: a timer popped and discarded while its peer was offline
    /// is dead. Cancelling it afterwards used to park its id in a set
    /// nothing ever cleared; now it matches no live timer — not even the
    /// one that has since taken over its slot.
    #[test]
    fn cancelling_a_discarded_timer_is_a_no_op() {
        #[derive(Default)]
        struct LateCanceller {
            fired: Vec<u64>,
            stale: Option<TimerId>,
        }
        impl Actor<Msg> for LateCanceller {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    self.stale = Some(ctx.set_timer(5, 2)); // due at t=5, while offline
                }
            }
            fn on_reconnect(&mut self, ctx: &mut Ctx<'_, Msg>) {
                let fresh = ctx.set_timer(1, 3);
                let stale = self.stale.take().expect("set before the outage");
                assert_ne!(fresh, stale, "ids are never reused");
                ctx.cancel_timer(stale);
            }
        }
        let mut s = Sim::new(SimConfig::default(), vec![LateCanceller::default()]);
        s.schedule_timer(0, PeerId(0), 1);
        s.schedule_disconnect(1, PeerId(0));
        s.schedule_reconnect(10, PeerId(0));
        s.run();
        assert_eq!(s.actor(PeerId(0)).fired, vec![1, 3], "the discarded timer never fires, its successor does");
        assert_eq!(s.cancelled_timers(), 0, "nothing is left waiting for a pop that already happened");
        // A live cancellation is still counted until the queue pops it.
        let mut s = Sim::new(SimConfig::default(), vec![Canceller { fired: vec![], pending: None }]);
        s.schedule_timer(0, PeerId(0), 1);
        s.run_until(5);
        assert_eq!(s.cancelled_timers(), 1);
        s.run();
        assert_eq!(s.cancelled_timers(), 0);
    }

    #[test]
    fn scheduled_entries_stay_small_whatever_the_message() {
        assert!(scheduled_entry_size::<[u64; 64]>() <= 64, "{} bytes", scheduled_entry_size::<[u64; 64]>());
        assert_eq!(scheduled_entry_size::<[u64; 64]>(), scheduled_entry_size::<u8>());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim(2);
        s.schedule_timer(100, PeerId(0), 1);
        let t = s.run_until(50);
        assert!(t <= 50);
        assert!(s.actor(PeerId(0)).fired.is_empty());
        s.run();
        assert_eq!(s.actor(PeerId(0)).fired, vec![1]);
    }

    #[test]
    fn scripted_drop_loses_exactly_one_message() {
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        let mut config = SimConfig::default();
        config.fault = FaultPlane::scripted(vec![ScriptedFault {
            from: PeerId(0),
            to: PeerId(1),
            kind: "ping".into(),
            nth: 1,
            action: FaultAction::Drop,
        }]);
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        for t in 0..3 {
            s.schedule_timer(t * 20, PeerId(0), 1);
        }
        s.run();
        assert_eq!(s.actor(PeerId(1)).pings, 2, "one of three pings dropped");
        assert_eq!(s.metrics().injected_drops, 1);
        assert_eq!(s.metrics().drops_of("ping"), 1);
        assert_eq!(s.metrics().sent, 5, "dropped message still counts as sent");
        assert_eq!(s.fault_trace().len(), 1);
    }

    #[test]
    fn scripted_duplicate_delivers_twice() {
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        let mut config = SimConfig::default();
        config.fault = FaultPlane::scripted(vec![ScriptedFault {
            from: PeerId(0),
            to: PeerId(1),
            kind: "ping".into(),
            nth: 0,
            action: FaultAction::Duplicate { extra: 7 },
        }]);
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        s.schedule_timer(0, PeerId(0), 1);
        s.run();
        assert_eq!(s.actor(PeerId(1)).pings, 2, "original + duplicate");
        assert_eq!(s.metrics().injected_dups, 1);
        assert_eq!(s.metrics().dups_of("ping"), 1);
        assert_eq!(s.metrics().out_of_order, 0, "duplicates are not reorders");
    }

    #[test]
    fn reorder_spike_counts_out_of_order_delivery() {
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        let mut config = SimConfig::default();
        config.latency = LatencyModel { min: 1, max: 1 };
        // Delay the first ping so the second overtakes it on the link.
        config.fault = FaultPlane::scripted(vec![ScriptedFault {
            from: PeerId(0),
            to: PeerId(1),
            kind: "ping".into(),
            nth: 0,
            action: FaultAction::Reorder { extra: 10 },
        }]);
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        s.schedule_timer(0, PeerId(0), 1);
        s.schedule_timer(2, PeerId(0), 1);
        s.run();
        assert_eq!(s.actor(PeerId(1)).pings, 2);
        assert_eq!(s.metrics().injected_reorders, 1);
        assert_eq!(s.metrics().out_of_order, 1);
    }

    #[test]
    fn partition_window_drops_silently_both_ways() {
        use crate::fault::{FaultPlane, Partition};
        let mut config = SimConfig::default();
        config.fault = FaultPlane {
            partitions: vec![Partition { start: 0, end: 50, a: vec![PeerId(0)], b: vec![PeerId(1)] }],
            ..FaultPlane::default()
        };
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        s.schedule_timer(10, PeerId(0), 1); // inside the window: dropped
        s.schedule_timer(60, PeerId(0), 1); // after healing: delivered
        s.run();
        assert_eq!(s.actor(PeerId(0)).send_failures, 0, "partitions are silent");
        assert_eq!(s.actor(PeerId(1)).pings, 1);
        assert_eq!(s.metrics().partition_drops, 1);
        assert_eq!(s.metrics().injected_drops, 1);
    }

    #[test]
    fn crash_restart_fires_hook_bumps_incarnation_and_kills_timers() {
        // A bespoke actor to observe the hook and timer death.
        struct Crashy {
            crashes: u32,
            fired: Vec<u64>,
        }
        impl Actor<Msg> for Crashy {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    ctx.set_timer(100, 2); // will be killed by the crash at t=50
                }
            }
            fn on_crash_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.crashes += 1;
                assert_eq!(ctx.incarnation(), 1);
            }
        }
        let mut config = SimConfig::default();
        config.fault.crashes.push(CrashEvent { at: 50, peer: PeerId(0) });
        let mut c = Sim::new(config, vec![Crashy { crashes: 0, fired: vec![] }, Crashy { crashes: 0, fired: vec![] }]);
        c.schedule_timer(0, PeerId(0), 1);
        c.run();
        assert_eq!(c.actor(PeerId(0)).crashes, 1);
        assert_eq!(c.actor(PeerId(0)).fired, vec![1], "post-crash timer never fired");
        assert_eq!(c.incarnation(PeerId(0)), 1);
        assert_eq!(c.metrics().crash_restarts, 1);
        assert_eq!(c.metrics().stale_timers, 1);
    }

    #[test]
    fn crash_of_offline_peer_is_skipped() {
        let mut config = SimConfig::default();
        config.fault.crashes.push(CrashEvent { at: 10, peer: PeerId(1) });
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        s.schedule_disconnect(0, PeerId(1));
        s.run();
        assert_eq!(s.metrics().crash_restarts, 0);
        assert_eq!(s.incarnation(PeerId(1)), 0);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        use crate::fault::FaultPlane;
        let run = || {
            let mut config = SimConfig::default();
            config.fault = FaultPlane::probabilistic(11, 0.3, 0.2, 0.1, 0.1);
            let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
            for t in 0..40 {
                s.schedule_timer(t * 3, PeerId(0), 1);
            }
            s.run();
            (s.actor(PeerId(1)).pings, s.metrics().clone(), s.fault_trace().to_vec())
        };
        let (pings1, m1, t1) = run();
        let (pings2, m2, t2) = run();
        assert_eq!(pings1, pings2);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert!(m1.injected_total() > 0, "faults actually injected");
    }

    #[test]
    fn tracing_disabled_by_default_enabled_via_sink() {
        let mut s = sim(2);
        s.schedule_timer(0, PeerId(0), 1);
        s.run();
        assert!(s.trace().is_none(), "no journal unless the sink is on");

        let mut config = SimConfig { trace: TraceSink::Memory, ..Default::default() };
        config.fault.crashes.push(CrashEvent { at: 20, peer: PeerId(1) });
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        s.schedule_disconnect(5, PeerId(1));
        s.schedule_reconnect(10, PeerId(1));
        s.run();
        let j = s.trace().expect("journal collected");
        assert_eq!(j.count("disconnect"), 1);
        assert_eq!(j.count("reconnect"), 1);
        assert_eq!(j.count("crash"), 1);
        let crash = j.events().iter().find(|e| e.kind == EventKind::Crash).unwrap();
        assert_eq!(crash.at, 20);
        assert_eq!(crash.peer, 1);
        assert_eq!(crash.epoch, 0, "crash stamped with the dying incarnation");
    }

    #[test]
    fn ctx_emit_stamps_time_peer_epoch() {
        struct Emitter;
        impl Actor<Msg> for Emitter {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                assert!(ctx.tracing());
                ctx.emit(Some(TxnRef::new(0, 0)), None, None, EventKind::Resolve { committed: tag == 1 });
            }
        }
        let config = SimConfig { trace: TraceSink::Memory, ..Default::default() };
        let mut s = Sim::new(config, vec![Emitter]);
        s.schedule_timer(3, PeerId(0), 1);
        s.run();
        let j = s.trace().unwrap();
        assert_eq!(j.len(), 1);
        let e = &j.events()[0];
        assert_eq!((e.at, e.peer, e.epoch, e.seq), (3, 0, 0, 0));
        assert_eq!(e.txn, Some(TxnRef::new(0, 0)));
    }

    #[test]
    fn observer_sees_journal_events_without_a_journal() {
        use axml_trace::{EventSink, SharedSink, TraceEvent};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Collect(Vec<TraceEvent>);
        impl EventSink for Collect {
            fn on_event(&mut self, event: &TraceEvent) {
                self.0.push(event.clone());
            }
        }
        struct Emitter;
        impl Actor<Msg> for Emitter {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                assert!(ctx.tracing(), "observer alone turns tracing on");
                ctx.emit(Some(TxnRef::new(0, 0)), None, None, EventKind::Resolve { committed: true });
            }
        }
        let run = |journal: bool, observe: bool| {
            let trace = if journal { TraceSink::Memory } else { TraceSink::Disabled };
            let config = SimConfig { trace, ..Default::default() };
            let mut s = Sim::new(config, vec![Emitter]);
            let seen = Rc::new(RefCell::new(Collect::default()));
            if observe {
                let sink: SharedSink = seen.clone();
                s.attach_observer(sink);
            }
            s.schedule_timer(3, PeerId(0), 1);
            s.schedule_disconnect(7, PeerId(0));
            s.run();
            let journal: Vec<TraceEvent> = s.trace().map(|j| j.events().to_vec()).unwrap_or_default();
            let observed = std::mem::take(&mut seen.borrow_mut().0);
            (journal, observed)
        };
        let (journal, observed) = run(true, true);
        assert_eq!(journal, observed, "observer and journal see the identical stamped stream");
        let (_, alone) = run(false, true);
        assert_eq!(alone, observed, "observer-only runs emit the same events");
        assert_eq!(alone.len(), 2, "resolve + disconnect");
        assert_eq!(alone[1].seq, 1, "seq assigned without a journal too");
    }

    #[test]
    fn window_sampler_emits_gauges_at_fixed_boundaries_without_perturbing_the_run() {
        /// Pings a partner on every timer; reports its ping count as a gauge.
        #[derive(Default)]
        struct Gaugy {
            pings: u32,
            deliveries_at: Vec<u64>,
        }
        impl Actor<Msg> for Gaugy {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {
                self.pings += 1;
                self.deliveries_at.push(ctx.now());
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                let _ = ctx.send(PeerId(1), Msg::Ping(1));
            }
            fn sample_gauges(&self, out: &mut Vec<(&'static str, u64)>) {
                out.push(("pings_seen", u64::from(self.pings)));
            }
        }
        let run = |sample_interval: u64, trace: TraceSink| {
            let config = SimConfig { trace, sample_interval, ..Default::default() };
            let mut s = Sim::new(config, vec![Gaugy::default(), Gaugy::default()]);
            for t in 0..8 {
                s.schedule_timer(t * 5, PeerId(0), 1);
            }
            s.run();
            // The merged order: protocol events and samples by seq.
            let journal = s.trace().map(|j| j.iter().cloned().collect::<Vec<_>>()).unwrap_or_default();
            if let Some(j) = s.trace() {
                assert!(j.events().iter().all(|e| e.kind.label() != "gauge"), "samples sit in their own column");
                assert!(journal.iter().map(|e| e.seq).eq(0..j.len() as u64), "one seq counter numbers both");
            }
            (s.actor(PeerId(1)).deliveries_at.clone(), journal)
        };
        let (plain, none) = run(0, TraceSink::Disabled);
        assert!(none.is_empty());
        let (sampled, journal) = run(10, TraceSink::Memory);
        assert_eq!(plain, sampled, "sampling never perturbs the schedule");
        let gauges: Vec<&TraceEvent> = journal.iter().filter(|e| e.kind.label() == "gauge").collect();
        assert!(!gauges.is_empty(), "boundaries inside the run are sampled");
        for g in &gauges {
            assert_eq!(g.at % 10, 0, "gauges land on window boundaries");
            assert!(g.txn.is_none() && g.span.is_none(), "gauges are substrate events");
        }
        // Both peers report, in peer order within each boundary.
        assert!(gauges.iter().any(|g| g.peer == 0) && gauges.iter().any(|g| g.peer == 1));
        let boundary10: Vec<u32> = gauges.iter().filter(|g| g.at == 10).map(|g| g.peer).collect();
        assert_eq!(boundary10, vec![0, 1], "peer order within a boundary");
        // The reading at boundary `b` reflects events stamped <= b: both
        // journal and gauge agree on the ping count at t=10.
        let at10 = gauges.iter().find(|g| g.at == 10 && g.peer == 1).expect("peer 1 sampled at t=10");
        let pings_by_10 = sampled.iter().filter(|&&t| t <= 10).count() as u64;
        assert_eq!(at10.kind, EventKind::Gauge { name: "pings_seen".into(), value: pings_by_10 });
        // Off means off: no gauge events without a sample interval.
        let (_, untimed) = run(0, TraceSink::Memory);
        assert!(untimed.iter().all(|e| e.kind.label() != "gauge"));
    }

    #[test]
    fn observers_see_protocol_events_only_and_the_journal_seqs() {
        use axml_trace::{EventSink, SharedSink, TraceEvent};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Collect(Vec<TraceEvent>);
        impl EventSink for Collect {
            fn on_event(&mut self, event: &TraceEvent) {
                self.0.push(event.clone());
            }
        }
        /// Resolves on every timer; reports one gauge.
        struct Sampled;
        impl Actor<Msg> for Sampled {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.emit(Some(TxnRef::new(0, 0)), None, None, EventKind::Resolve { committed: true });
            }
            fn sample_gauges(&self, out: &mut Vec<(&'static str, u64)>) {
                out.push(("depth", 1));
            }
        }
        let run = |trace: TraceSink| {
            let mut s = Sim::new(SimConfig { trace, sample_interval: 4, ..Default::default() }, vec![Sampled]);
            let seen = Rc::new(RefCell::new(Collect::default()));
            let sink: SharedSink = seen.clone();
            s.attach_observer(sink);
            for t in [3, 9, 17] {
                s.schedule_timer(t, PeerId(0), 1);
            }
            s.run();
            let observed = std::mem::take(&mut seen.borrow_mut().0);
            (observed, s.take_trace())
        };
        let (observed, journal) = run(TraceSink::Memory);
        let journal = journal.expect("traced");
        assert_eq!(journal.samples().len(), 4, "boundaries 4, 8, 12 and 16");
        assert_eq!(observed, journal.events(), "the observer sees the protocol events, seqs and all");
        assert_eq!(observed.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 3, 6]);
        // Without a journal nothing is sampled: the same events, numbered
        // without the samples' seqs.
        let (alone, none) = run(TraceSink::Disabled);
        assert!(none.is_none());
        assert_eq!(alone.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
        let unnumbered = |es: &[TraceEvent]| es.iter().map(|e| TraceEvent { seq: 0, ..e.clone() }).collect::<Vec<_>>();
        assert_eq!(unnumbered(&alone), unnumbered(&observed));
    }

    #[test]
    fn multiple_observers_each_see_the_full_stream() {
        use axml_trace::{EventSink, SharedSink, TraceEvent};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Collect(Vec<u64>);
        impl EventSink for Collect {
            fn on_event(&mut self, event: &TraceEvent) {
                self.0.push(event.seq);
            }
        }
        let mut s = sim(2);
        let a = Rc::new(RefCell::new(Collect::default()));
        let b = Rc::new(RefCell::new(Collect::default()));
        s.attach_observer(a.clone() as SharedSink);
        s.attach_observer(b.clone() as SharedSink);
        s.schedule_disconnect(5, PeerId(1));
        s.schedule_reconnect(9, PeerId(1));
        s.run();
        assert_eq!(a.borrow().0, vec![0, 1], "first observer sees both substrate events");
        assert_eq!(a.borrow().0, b.borrow().0, "all observers see the identical stream");
    }

    #[test]
    fn extreme_timer_delay_saturates_instead_of_wrapping() {
        // Setting a timer near u64::MAX from a nonzero `now` must not wrap
        // to the past; it should simply never fire within any deadline.
        struct Far;
        impl Actor<Msg> for Far {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: PeerId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                if tag == 1 {
                    ctx.set_timer(u64::MAX - 1, 2);
                }
                assert_ne!(tag, 2, "saturated timer must not fire early");
            }
        }
        let mut s = Sim::new(SimConfig::default(), vec![Far]);
        s.schedule_timer(10, PeerId(0), 1);
        s.run_until(1_000_000);
    }

    #[test]
    fn non_duplicated_deliveries_never_clone_the_message() {
        // The fast path must move the message from the send into the
        // queue and from the queue into the actor: cloning is reserved
        // for the fault plane's Duplicate action. Pin it with a message
        // that counts its own clones.
        use std::cell::Cell;
        thread_local! {
            static CLONES: Cell<u64> = const { Cell::new(0) };
        }
        #[derive(Debug)]
        struct Counted(u64);
        impl Clone for Counted {
            fn clone(&self) -> Counted {
                CLONES.with(|c| c.set(c.get() + 1));
                Counted(self.0)
            }
        }
        impl Message for Counted {
            fn kind(&self) -> &'static str {
                "counted"
            }
        }
        struct Sink;
        impl Actor<Counted> for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Counted>, _from: PeerId, _msg: Counted) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Counted>, tag: u64) {
                let _ = ctx.send(PeerId(1), Counted(tag));
            }
        }

        CLONES.with(|c| c.set(0));
        let mut s = Sim::new(SimConfig::default(), vec![Sink, Sink]);
        for t in 0..50 {
            s.schedule_timer(t * 2, PeerId(0), t);
        }
        s.run();
        assert_eq!(s.metrics().delivered, 50);
        assert_eq!(CLONES.with(|c| c.get()), 0, "clean deliveries are clone-free");

        // With a scripted duplicate, exactly the duplicated message is
        // cloned — once.
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        CLONES.with(|c| c.set(0));
        let mut config = SimConfig::default();
        config.fault = FaultPlane::scripted(vec![ScriptedFault {
            from: PeerId(0),
            to: PeerId(1),
            kind: "counted".into(),
            nth: 3,
            action: FaultAction::Duplicate { extra: 5 },
        }]);
        let mut s = Sim::new(config, vec![Sink, Sink]);
        for t in 0..50 {
            s.schedule_timer(t * 2, PeerId(0), t);
        }
        s.run();
        assert_eq!(s.metrics().injected_dups, 1);
        assert_eq!(CLONES.with(|c| c.get()), 1, "one clone per injected duplicate");
    }

    #[test]
    fn out_of_order_watermark_matches_reordered_links() {
        // Dense watermark semantics: only deliveries strictly behind an
        // already-delivered later send count as out-of-order; duplicates
        // never do (covered above); a fresh link starts clean.
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        let mut config = SimConfig::default();
        config.latency = LatencyModel { min: 1, max: 1 };
        config.fault = FaultPlane::scripted(vec![
            ScriptedFault {
                from: PeerId(0),
                to: PeerId(1),
                kind: "ping".into(),
                nth: 0,
                action: FaultAction::Reorder { extra: 10 },
            },
            ScriptedFault {
                from: PeerId(0),
                to: PeerId(1),
                kind: "ping".into(),
                nth: 2,
                action: FaultAction::Reorder { extra: 10 },
            },
        ]);
        let mut s = Sim::new(config, vec![Echo::default(), Echo::default()]);
        for t in 0..4 {
            s.schedule_timer(t * 2, PeerId(0), 1);
        }
        s.run();
        assert_eq!(s.actor(PeerId(1)).pings, 4, "reordered pings still arrive");
        assert_eq!(s.metrics().out_of_order, 2, "both delayed pings arrive behind later sends");
    }

    #[test]
    fn same_time_events_fifo_by_schedule_order() {
        let mut s = sim(2);
        s.schedule_timer(5, PeerId(0), 10);
        s.schedule_timer(5, PeerId(0), 11);
        s.schedule_timer(5, PeerId(0), 12);
        s.run();
        // Tags 10..12 don't trigger sends (>= 100? no, < 100 sends to
        // PeerId(tag)); they do attempt sends to out-of-range peers, which
        // fail — but firing order must be FIFO.
        assert_eq!(s.actor(PeerId(0)).fired, vec![10, 11, 12]);
    }

    /// Sends `tag` pings to peer 1 when its timer fires (a delivery flood
    /// from a single `on_timer`, the batching sweet spot).
    #[derive(Default)]
    struct Flood {
        got: Vec<u32>,
        at: Vec<u64>,
    }

    impl Actor<Msg> for Flood {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: PeerId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                self.got.push(n);
                self.at.push(ctx.now());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            for n in 0..tag as u32 {
                ctx.send(PeerId(1), Msg::Ping(n)).unwrap();
            }
        }
    }

    #[test]
    fn batching_is_byte_identical_to_unbatched() {
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        // A mixed scenario: jittered latency (batches form opportunistically),
        // ping-pong traffic, a flood, a duplicate and a reorder in flight.
        let run = |batch_links: bool| {
            let mut config = SimConfig { batch_links, ..Default::default() };
            config.trace = TraceSink::Memory;
            config.fault = FaultPlane::scripted(vec![
                ScriptedFault {
                    from: PeerId(0),
                    to: PeerId(1),
                    kind: "ping".into(),
                    nth: 1,
                    action: FaultAction::Duplicate { extra: 3 },
                },
                ScriptedFault {
                    from: PeerId(0),
                    to: PeerId(1),
                    kind: "ping".into(),
                    nth: 4,
                    action: FaultAction::Reorder { extra: 9 },
                },
            ]);
            let mut s = Sim::new(config, vec![Echo::default(), Echo::default(), Echo::default()]);
            for t in 0..12 {
                s.schedule_timer(t, PeerId(0), 1);
                s.schedule_timer(t, PeerId(2), 1);
            }
            s.run();
            (
                s.metrics().clone(),
                s.actor(PeerId(1)).deliveries_at.clone(),
                s.actor(PeerId(1)).pings,
                s.trace().map(|j| j.events().to_vec()).unwrap_or_default(),
            )
        };
        assert_eq!(run(true), run(false), "batching must not change any observable");
    }

    #[test]
    fn flood_delivery_order_and_heap_pressure() {
        let run = |batch_links: bool| {
            let mut config = SimConfig { batch_links, ..Default::default() };
            config.latency = LatencyModel { min: 2, max: 2 };
            let mut s = Sim::new(config, vec![Flood::default(), Flood::default()]);
            s.schedule_timer(0, PeerId(0), 200);
            s.run();
            (s.actor(PeerId(1)).got.clone(), s.actor(PeerId(1)).at.clone(), s.metrics().clone(), s.heap_pushes())
        };
        let (got_b, at_b, m_b, pushes_b) = run(true);
        let (got_u, at_u, m_u, pushes_u) = run(false);
        assert_eq!(got_b, (0..200).collect::<Vec<u32>>(), "flood arrives in send order");
        assert_eq!((got_b, at_b, m_b), (got_u, at_u, m_u), "observables identical");
        // 200 same-tick sends on one link: one batch event vs 200 singles.
        assert!(
            pushes_b < pushes_u / 10,
            "batching should collapse the flood's heap pressure ({pushes_b} vs {pushes_u})"
        );
    }

    #[test]
    fn event_cap_mid_batch_resumes_exactly() {
        let run = |batch_links: bool| {
            let mut config = SimConfig { batch_links, ..Default::default() };
            config.latency = LatencyModel { min: 1, max: 1 };
            config.max_events = 7; // timer + 6 deliveries, capping inside the batch
            let mut s = Sim::new(config, vec![Flood::default(), Flood::default()]);
            s.schedule_timer(0, PeerId(0), 20);
            let mut checkpoints = Vec::new();
            // Each run_until gets a fresh cap; the flood needs several.
            for _ in 0..5 {
                s.run_until(u64::MAX);
                checkpoints.push((s.actor(PeerId(1)).got.clone(), s.metrics().delivered));
            }
            checkpoints
        };
        let batched = run(true);
        assert_eq!(batched, run(false), "cap-split batches must resume identically");
        let (final_got, final_delivered) = batched.last().unwrap().clone();
        assert_eq!(final_got, (0..20).collect::<Vec<u32>>());
        assert_eq!(final_delivered, 20);
    }
}
