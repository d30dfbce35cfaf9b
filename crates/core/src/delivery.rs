//! At-least-once delivery under the protocol: ack, retransmit, dedup.
//!
//! A [`Delivery`] sends a message in a [`TxnMsg::Reliable`] envelope and
//! retransmits it with bounded exponential backoff until it is acked, or
//! hands it back given up: what the silence means is the protocol's call
//! (`AxmlPeer::delivery_failed`). It acks every envelope it receives — a
//! re-delivery too, since the first ack may have been lost — and
//! suppresses re-executions. An ack rides on the next envelope or chain
//! update bound for its sender, or leaves alone as the handler ends; an
//! `Invoke`'s waits up to [`ACK_HOLD`] for the answer to carry
//! it. Keep-alives, streams, gossip, `Commit` and `Inquire` go around it.

use crate::context::TxnState;
use crate::ids::TxnId;
use crate::messages::{AckIds, Ctx, TxnMsg};
use crate::peer::{DetectHow, PeerStats, Timer, ACK_HOLD, MAX_RETRANSMITS, RETRANSMIT_BASE};
use crate::timers::Timers;
use axml_p2p::{EventKind, PeerId, SendError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One unacked delivery: its receiver, the payload every envelope sent
/// for it shares, and its retransmit timer.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) to: PeerId,
    pub(crate) msg: Arc<TxnMsg>,
    attempts: u32,
    timer: u64,
}

/// A received reliable delivery whose acknowledgement has not left yet.
#[derive(Debug, Clone, Copy)]
struct OwedAck {
    to: PeerId,
    id: u64,
    /// When it leaves alone if nothing bound for `to` has carried it: the
    /// time of receipt, or [`ACK_HOLD`] later for an `Invoke`.
    due: u64,
}

/// The reliable-delivery layer of one peer incarnation.
#[derive(Debug)]
pub(crate) struct Delivery {
    /// Ids are `incarnation << 48 | n`: a restarted peer reuses none.
    next_id: u64,
    outbox: BTreeMap<u64, Pending>,
    /// Deliveries already executed, by `(sender, id)` under their
    /// transaction — a re-delivery carries the same payload, hence the
    /// same transaction — so a transaction's entries are one range, pruned
    /// without touching the rest once it commits. Under `None` sit the
    /// entries that protect nothing and go at the next finalize: those
    /// recorded for a transaction that had already committed here.
    seen: BTreeSet<(Option<TxnId>, PeerId, u64)>,
    /// Soft bound on `seen` ([`Delivery::DEDUP_CAPACITY`]).
    capacity: usize,
    /// Oldest first; empty between handlers but for `Invoke`s' held acks.
    owed: Vec<OwedAck>,
    ack_timer: Option<u64>,
    dedup: bool,
}

/// `base` doubled per try, `tries` times, capped at `base × 64`: the wait
/// before a retransmission and before a repeated decision inquiry.
pub(crate) fn backoff(base: u64, tries: u32) -> u64 {
    base << tries.min(6)
}

/// Emits a delivery event about `txn` when the run is traced.
fn trace(ctx: &mut Ctx<'_>, txn: Option<TxnId>, kind: impl FnOnce() -> EventKind) {
    if ctx.tracing() {
        ctx.emit(txn.map(Into::into), None, None, kind());
    }
}

impl Delivery {
    /// Past this many entries, the dedup set drops those of transactions
    /// that have finalized here (entries of live ones are always kept);
    /// the high-water mark is [`PeerStats::seen_peak`].
    pub(crate) const DEDUP_CAPACITY: usize = 1024;

    /// The layer of a fresh peer incarnation: nothing sent, seen or owed;
    /// re-deliveries are suppressed if `dedup` ([`crate::PeerConfig::dedup`]).
    pub(crate) fn new(dedup: bool) -> Delivery {
        Delivery {
            next_id: 0,
            outbox: BTreeMap::new(),
            seen: BTreeSet::new(),
            capacity: Self::DEDUP_CAPACITY,
            owed: Vec::new(),
            ack_timer: None,
            dedup,
        }
    }

    /// Deliveries still unacknowledged.
    pub(crate) fn unacked(&self) -> usize {
        self.outbox.len()
    }

    /// Entries of the dedup set.
    pub(crate) fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Sends `msg` to `to` at least once, with the acks owed to `to`. A
    /// loopback send skips the envelope (a local call cannot be lost). A
    /// [`SendError`] — `to` is disconnected right now — is the paper's
    /// synchronous detection path, not a delivery fault: it is returned.
    pub(crate) fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        timers: &mut Timers,
        stats: &mut PeerStats,
        to: PeerId,
        msg: TxnMsg,
    ) -> Result<(), SendError> {
        if to == ctx.me() {
            return ctx.send(to, msg);
        }
        let id = (ctx.incarnation() << 48) | self.next_id;
        self.next_id += 1;
        let msg = Arc::new(msg);
        let acks = self.carry(ctx, timers, stats, to);
        ctx.send(to, TxnMsg::Reliable { id, attempt: 0, inner: Arc::clone(&msg), acks })?;
        let timer = timers.set(ctx, RETRANSMIT_BASE, Timer::Retransmit(id));
        self.outbox.insert(id, Pending { to, msg, attempts: 0, timer });
        Ok(())
    }

    /// Delivery `id`'s retransmit timer fired: resend it if still unacked,
    /// doubling the backoff. Past the budget, or when the receiver is
    /// unreachable right now, the delivery is handed back with how its
    /// failure was detected.
    pub(crate) fn retransmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        timers: &mut Timers,
        stats: &mut PeerStats,
        id: u64,
    ) -> Option<(Pending, DetectHow)> {
        let pending = self.outbox.get_mut(&id)?;
        pending.attempts += 1;
        let (to, attempt, txn) = (pending.to, pending.attempts, pending.msg.txn());
        if attempt > MAX_RETRANSMITS {
            stats.retransmit_giveups += 1;
            trace(ctx, txn, || EventKind::RetransmitGiveUp { to: to.0, id });
            return self.outbox.remove(&id).map(|p| (p, DetectHow::AckTimeout));
        }
        let inner = Arc::clone(&pending.msg);
        let acks = self.carry(ctx, timers, stats, to);
        stats.retransmits += 1;
        trace(ctx, txn, || EventKind::Retransmit { to: to.0, id, attempt });
        if ctx.send(to, TxnMsg::Reliable { id, attempt, inner, acks }).is_err() {
            return self.outbox.remove(&id).map(|p| (p, DetectHow::SendFailure));
        }
        let delay = backoff(RETRANSMIT_BASE, attempt);
        if let Some(pending) = self.outbox.get_mut(&id) {
            pending.timer = timers.set(ctx, delay, Timer::Retransmit(id));
        }
        None
    }

    /// Settles the acks `msg` carries and opens its envelope: the payload
    /// to act on, or `None` for an `Ack` or a suppressed re-delivery. The
    /// envelope's own ack is due as the handler returns, but for a first
    /// `Invoke`'s, which the answer going back on this link carries.
    /// `state` says where each transaction stands here, `None` if unknown.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn receive<'m>(
        &mut self,
        ctx: &mut Ctx<'_>,
        timers: &mut Timers,
        stats: &mut PeerStats,
        state: impl Fn(TxnId) -> Option<TxnState>,
        from: PeerId,
        msg: &'m TxnMsg,
    ) -> Option<&'m TxnMsg> {
        for acked in msg.acks() {
            if let Some(pending) = self.outbox.remove(acked) {
                timers.cancel(ctx, pending.timer);
            }
        }
        let (id, inner) = match msg {
            TxnMsg::Reliable { id, inner, .. } => (*id, &**inner),
            TxnMsg::Ack { .. } => return None,
            other => return Some(other),
        };
        let txn = inner.txn();
        // One insert both tests and records. An entry about a transaction
        // committed here protects nothing — a committed context refuses
        // every re-invocation — and is filed under no transaction.
        let committed = |t: &TxnId| state(*t) == Some(TxnState::Committed);
        let again = self.dedup && !self.seen.insert((txn.filter(|t| !committed(t)), from, id));
        let hold = if !again && matches!(inner, TxnMsg::Invoke { .. }) { ACK_HOLD } else { 0 };
        self.owed.push(OwedAck { to: from, id, due: ctx.now().saturating_add(hold) });
        trace(ctx, txn, || EventKind::AckSend { to: from.0, id });
        if again {
            stats.dup_suppressed += 1;
            trace(ctx, txn, || EventKind::DedupSuppress { from: from.0, id });
            return None;
        }
        if self.dedup {
            stats.seen_peak = stats.seen_peak.max(self.seen.len() as u64);
            if self.seen.len() > self.capacity {
                let before = self.seen.len();
                self.seen.retain(|(txn, ..)| txn.is_some_and(|t| state(t).is_none_or(|s| s == TxnState::Active)));
                self.pruned(ctx, before);
            }
        }
        Some(inner)
    }

    /// `txn` finalized here: drops the dedup entries that protect nothing
    /// now — those filed under no transaction, and `txn`'s own if it
    /// committed. An aborted transaction's entries stay until capacity
    /// presses: an aborted peer can be re-invoked during forward recovery
    /// while pre-abort deliveries are still being retransmitted, and a
    /// stale `Abort` that missed the set would kill the re-joined context.
    pub(crate) fn finalized(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, committed: bool) {
        let before = self.seen.len();
        self.evict_seen_of(None);
        if committed {
            self.evict_seen_of(Some(txn));
        }
        self.pruned(ctx, before);
    }

    /// Removes the dedup entries filed under `txn`, one contiguous range.
    fn evict_seen_of(&mut self, txn: Option<TxnId>) {
        let range = (txn, PeerId(0), 0)..=(txn, PeerId(u32::MAX), u64::MAX);
        while let Some(&entry) = self.seen.range(range.clone()).next() {
            self.seen.remove(&entry);
        }
    }

    /// Traces a prune of the dedup set from `before` entries.
    fn pruned(&self, ctx: &mut Ctx<'_>, before: usize) {
        let evicted = (before - self.seen.len()) as u64;
        if evicted > 0 {
            trace(ctx, None, || EventKind::DedupPrune { evicted });
        }
    }

    /// The acks owed to `to`, for a message about to leave for it.
    pub(crate) fn carry(
        &mut self,
        ctx: &mut Ctx<'_>,
        timers: &mut Timers,
        stats: &mut PeerStats,
        to: PeerId,
    ) -> AckIds {
        let acks = self.take_owed(ctx, timers, to);
        stats.acks_carried += acks.as_slice().len() as u64;
        acks
    }

    /// Removes the oldest ids owed to `to`, as many as one message
    /// carries. The held-ack timer is cancelled with the last id owed.
    fn take_owed(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers, to: PeerId) -> AckIds {
        let mut acks = AckIds::default();
        // An entry stays if it is another peer's or the array is full.
        self.owed.retain(|o| o.to != to || !acks.push(o.id));
        if self.owed.is_empty() {
            if let Some(tag) = self.ack_timer.take() {
                timers.cancel(ctx, tag);
            }
        }
        acks
    }

    /// Sends what is owed and due in one `Ack` per peer, with what else
    /// that peer is owed, and arms the held-ack timer for the rest. Run as
    /// every message handler returns, and by that timer.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers, stats: &mut PeerStats) {
        let now = ctx.now();
        while let Some(to) = self.owed.iter().find(|o| o.due <= now).map(|o| o.to) {
            let ids = self.take_owed(ctx, timers, to);
            stats.acks_alone += ids.as_slice().len() as u64;
            let _ = ctx.send(to, TxnMsg::Ack { ids });
        }
        self.arm_ack(ctx, timers);
    }

    /// The held-ack timer fired.
    pub(crate) fn ack_due(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers, stats: &mut PeerStats) {
        self.ack_timer = None;
        self.flush(ctx, timers, stats);
    }

    /// Sets the held-ack timer anew after an offline spell.
    pub(crate) fn rearm_ack(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers) {
        if let Some(tag) = self.ack_timer.take() {
            timers.cancel(ctx, tag);
        }
        self.arm_ack(ctx, timers);
    }

    /// Arms the held-ack timer for the earliest deadline, if none runs: a
    /// later hold ends later, so it never fires late.
    fn arm_ack(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers) {
        if self.ack_timer.is_some() {
            return;
        }
        if let Some(due) = self.owed.iter().map(|o| o.due).min() {
            self.ack_timer = Some(timers.set(ctx, due.saturating_sub(ctx.now()), Timer::AckHold));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_p2p::{Actor, LatencyModel, Sim, SimConfig};

    /// One end of a link: peer 0 sends a reliable `Abort` about each of
    /// `txns` when the harness's timer fires, peer 1 takes them in knowing
    /// where each of `states` stands.
    struct End {
        delivery: Delivery,
        timers: Timers,
        stats: PeerStats,
        states: BTreeMap<TxnId, TxnState>,
        txns: Vec<TxnId>,
    }

    impl Actor<TxnMsg> for End {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: PeerId, msg: TxnMsg) {
            let state = |txn| self.states.get(&txn).copied();
            self.delivery.receive(ctx, &mut self.timers, &mut self.stats, state, from, &msg);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            // Tag 0 is the harness's; retransmits are left to die.
            for &txn in self.txns.iter().filter(|_| tag == 0) {
                let _ = self.delivery.send(ctx, &mut self.timers, &mut self.stats, PeerId(1), TxnMsg::Abort { txn });
            }
        }
    }

    /// Past its capacity, the dedup set drops the entries of transactions
    /// decided here — filed under the transaction if aborted, under none
    /// if committed — and keeps every live one, however many.
    #[test]
    fn capacity_pressure_prunes_the_decided_and_keeps_the_live() {
        let txn = |n| TxnId::new(PeerId(0), n);
        let end = |txns: Vec<TxnId>, states| End {
            delivery: Delivery { capacity: 4, ..Delivery::new(true) },
            timers: Timers::default(),
            stats: PeerStats::default(),
            states,
            txns,
        };
        let receiver =
            BTreeMap::from([(txn(0), TxnState::Committed), (txn(1), TxnState::Committed), (txn(2), TxnState::Aborted)]);
        // One tick per message: the deliveries arrive in the order sent.
        let sim_config = SimConfig { latency: LatencyModel { min: 1, max: 1 }, ..SimConfig::default() };
        let mut sim =
            Sim::new(sim_config, vec![end((0..8).map(txn).collect(), BTreeMap::new()), end(vec![], receiver)]);
        sim.schedule_timer(0, PeerId(0), 0);
        sim.run();
        let receiver = sim.actor(PeerId(1));
        // The fifth entry pushes the set past 4 and takes the three decided
        // transactions' entries with it; the eighth finds only live ones,
        // and they stay.
        assert_eq!(receiver.stats.seen_peak, 5);
        assert_eq!(
            receiver.delivery.seen.iter().map(|&(t, ..)| t).collect::<Vec<_>>(),
            (3..8).map(|n| Some(txn(n))).collect::<Vec<_>>()
        );
        assert_eq!(receiver.stats.dup_suppressed, 0);
    }
}
