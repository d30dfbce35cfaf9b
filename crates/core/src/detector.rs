//! Failure detection (§3.3): keep-alive on the links a peer depends on,
//! and the sibling streams of scenario (d). A [`Detector`] probes the
//! links that fall idle and names the peers it suspects; what a detection
//! means is the protocol's call (`AxmlPeer::on_child_disconnected`).

use crate::ids::TxnId;
use crate::messages::{Ctx, TxnMsg};
use crate::peer::{PeerConfig, PeerStats, Timer};
use crate::timers::Timers;
use axml_p2p::{PeerId, PingMonitor};
use std::collections::{BTreeMap, BTreeSet};

/// The failure detector of one peer incarnation.
#[derive(Debug)]
pub(crate) struct Detector {
    monitor: PingMonitor,
    /// How many reasons this peer has to watch each peer.
    watches: BTreeMap<PeerId, usize>,
    /// A watched link idle this long is probed; 0 probes nothing.
    ping_interval: u64,
    keepalive: Option<u64>,
    stream_interval: Option<u64>,
    stream: Option<u64>,
    stream_seq: u64,
    /// When each sibling's stream about each transaction was last heard.
    stream_last: BTreeMap<(TxnId, PeerId), u64>,
}

impl Detector {
    /// A detector watching nobody.
    pub(crate) fn new(config: &PeerConfig) -> Detector {
        Detector {
            monitor: PingMonitor::new(config.ping_interval.max(1), config.ping_timeout.max(1)),
            watches: BTreeMap::new(),
            ping_interval: config.ping_interval,
            keepalive: None,
            stream_interval: config.stream_interval,
            stream: None,
            stream_seq: 0,
            stream_last: BTreeMap::new(),
        }
    }

    /// The peers watched, in id order.
    pub(crate) fn watched(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.monitor.watched()
    }

    /// Adds a reason to watch `peer` (never this peer itself).
    pub(crate) fn watch(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers, peer: PeerId) {
        if peer == ctx.me() {
            return;
        }
        *self.watches.entry(peer).or_insert(0) += 1;
        if !self.monitor.is_watching(peer) {
            self.monitor.watch(peer, ctx.now());
        }
        self.arm_keepalive(ctx, timers);
    }

    /// Drops a reason to watch `peer`; the last one ends the watch.
    pub(crate) fn unwatch(&mut self, peer: PeerId) {
        if let Some(count) = self.watches.get_mut(&peer) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.forget(peer);
            }
        }
    }

    /// Ends every watch on `peer`, which has been detected gone.
    pub(crate) fn forget(&mut self, peer: PeerId) {
        self.watches.remove(&peer);
        self.monitor.unwatch(peer);
    }

    /// Any message from `peer` proves it alive.
    pub(crate) fn heard_from(&mut self, peer: PeerId, now: u64) {
        self.monitor.heard_from(peer, now);
    }

    /// The keep-alive timer fired: pings the links idle for a full
    /// interval (a link that carried any message since is alive and left
    /// alone). `out` gets the peers whose ping could not even be sent.
    pub(crate) fn probe(&mut self, ctx: &mut Ctx<'_>, stats: &mut PeerStats, out: &mut Vec<PeerId>) {
        self.keepalive = None;
        stats.keepalive_suppressed += self.monitor.due_into(ctx.now(), out);
        stats.keepalive_probes += out.len() as u64;
        out.retain(|&peer| ctx.send(peer, TxnMsg::Ping).is_err());
    }

    /// The watched peers silent past the timeout, into `out`.
    pub(crate) fn suspects_into(&self, now: u64, out: &mut Vec<PeerId>) {
        self.monitor.suspects_into(now, out);
    }

    /// Arms the keep-alive timer for the next probe deadline, if none runs:
    /// deadlines only move later while it waits, so it never fires late.
    pub(crate) fn arm_keepalive(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers) {
        if self.ping_interval == 0 || self.keepalive.is_some() {
            return;
        }
        if let Some(deadline) = self.monitor.next_deadline() {
            self.keepalive = Some(timers.set(ctx, deadline.saturating_sub(ctx.now()), Timer::KeepAlive));
        }
    }

    /// Back online: a peer that could not listen accuses nobody of
    /// silence, so every watched peer's and every streaming sibling's is
    /// counted from now, and the keep-alive timer is set anew.
    pub(crate) fn resume_keepalive(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers) {
        if let Some(tag) = self.keepalive.take() {
            timers.cancel(ctx, tag);
        }
        self.monitor.restart(ctx.now());
        for last in self.stream_last.values_mut() {
            *last = ctx.now();
        }
        self.arm_keepalive(ctx, timers);
    }

    /// The stream timer fired: the period, to stream this round.
    pub(crate) fn stream_due(&mut self) -> Option<u64> {
        self.stream = None;
        self.stream_interval
    }

    /// The sequence number of the next stream message.
    pub(crate) fn next_stream_seq(&mut self) -> u64 {
        self.stream_seq += 1;
        self.stream_seq
    }

    /// A sibling streamed about `txn`.
    pub(crate) fn heard_stream(&mut self, txn: TxnId, from: PeerId, now: u64) {
        self.stream_last.insert((txn, from), now);
    }

    /// `txn` is decided here: its streams end.
    pub(crate) fn end_streams(&mut self, txn: TxnId) {
        self.stream_last.retain(|(t, _), _| *t != txn);
    }

    /// The siblings once heard about one of `active` and silent for three
    /// periods since, forgotten as they are named.
    pub(crate) fn silent_streams(&mut self, active: &BTreeSet<TxnId>, now: u64, interval: u64) -> Vec<(TxnId, PeerId)> {
        let silent = |(txn, _): &(TxnId, PeerId), last: &mut u64| {
            active.contains(txn) && now.saturating_sub(*last) > interval * 3
        };
        self.stream_last.extract_if(.., silent).map(|(key, _)| key).collect()
    }

    /// Arms the stream timer, if streams are on and none runs.
    pub(crate) fn arm_stream(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers) {
        if let (Some(interval), None) = (self.stream_interval, self.stream) {
            self.stream = Some(timers.set(ctx, interval, Timer::Stream));
        }
    }

    /// Back online: the stream timer is set anew while this peer serves.
    pub(crate) fn resume_stream(&mut self, ctx: &mut Ctx<'_>, timers: &mut Timers, serving: bool) {
        if let Some(tag) = self.stream.take() {
            timers.cancel(ctx, tag);
        }
        if serving {
            self.arm_stream(ctx, timers);
        }
    }
}
