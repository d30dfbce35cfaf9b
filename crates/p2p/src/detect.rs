//! Keep-alive failure detection.
//!
//! "Related P2P research relies on ping (or keep-alive) messages to detect
//! peer disconnection." (§3.3) A [`PingMonitor`] is the bookkeeping a peer
//! embeds to watch a set of peers: it tells the protocol which links have
//! been idle long enough to need a probe, when the next one will be, and
//! which peers have been silent past the timeout. The actual ping/pong
//! messages are the embedding protocol's own message variants.
//!
//! Liveness rides on traffic: every message from a watched peer counts as
//! heard-from, so a link that carries protocol messages is never probed.
//! A peer is probed once `max(last heard, last probe) + interval` has
//! passed — a full interval of silence on a link nobody has probed in
//! that interval. The silence of a live peer is therefore at most
//! `interval + 2 × (max one-way latency)`, and `timeout` MUST exceed that.
//! Probing on a fixed cadence and skipping the peers heard from within it
//! does NOT give this bound: a peer heard from one tick after a probe
//! round is skipped at the next round and probed only at the one after,
//! `2 × interval − 1` ticks into its silence.

use crate::ids::PeerId;
use std::collections::BTreeMap;

/// What the monitor remembers of one watched peer.
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// When the peer was last heard from (or watched, if never).
    heard: u64,
    /// When it was last probed (or watched, if never).
    probed: u64,
}

impl Watch {
    /// The time from which the link counts as idle and unprobed.
    fn idle_since(&self) -> u64 {
        self.heard.max(self.probed)
    }
}

/// Tracks last-heard and last-probed times for a set of watched peers.
#[derive(Debug, Clone)]
pub struct PingMonitor {
    /// How long a link may stay idle before it is probed.
    pub interval: u64,
    /// Silence longer than this declares the peer disconnected.
    pub timeout: u64,
    watched: BTreeMap<PeerId, Watch>,
}

impl PingMonitor {
    /// A monitor with the given idle interval and timeout.
    pub fn new(interval: u64, timeout: u64) -> PingMonitor {
        PingMonitor { interval, timeout, watched: BTreeMap::new() }
    }

    /// Starts watching a peer (counts as heard-from at `now`).
    ///
    /// Re-watching an already-watched peer resets its silence clock to
    /// `now` — so a peer that was about to be declared suspect gets a
    /// full fresh timeout window.
    pub fn watch(&mut self, peer: PeerId, now: u64) {
        self.watched.insert(peer, Watch { heard: now, probed: now });
    }

    /// Restarts every watched peer's silence clock at `now`, as if each
    /// had just been watched: for a monitor that was deaf for a while —
    /// its peer offline — and must not hold that silence against anyone.
    pub fn restart(&mut self, now: u64) {
        for w in self.watched.values_mut() {
            *w = Watch { heard: now, probed: now };
        }
    }

    /// Stops watching a peer.
    pub fn unwatch(&mut self, peer: PeerId) {
        self.watched.remove(&peer);
    }

    /// Records any message (ping reply or payload) from a watched peer.
    pub fn heard_from(&mut self, peer: PeerId, now: u64) {
        if let Some(w) = self.watched.get_mut(&peer) {
            w.heard = now;
        }
    }

    /// The peers to probe at `now`, into `out` (cleared first): those
    /// neither heard from nor probed for a full interval. They count as
    /// probed at `now`. Returns how many other watched peers a probe
    /// round every `interval` would have probed too — not probed for a
    /// full interval, but heard from within it.
    ///
    /// The comparison is inclusive: a link idle for exactly `interval`
    /// is due, so a timer armed for [`Self::next_deadline`] finds the
    /// peer it was armed for.
    pub fn due_into(&mut self, now: u64, out: &mut Vec<PeerId>) -> u64 {
        out.clear();
        let mut suppressed = 0;
        for (&peer, w) in &mut self.watched {
            if now >= w.idle_since().saturating_add(self.interval) {
                w.probed = now;
                out.push(peer);
            } else if now >= w.probed.saturating_add(self.interval) {
                suppressed += 1;
            }
        }
        suppressed
    }

    /// The earliest time at which some watched peer will be due for a
    /// probe if nothing is heard until then (`None` when nothing is
    /// watched). Hearing from a peer, probing it or watching a new one
    /// only ever moves this later, so a timer armed for it never fires
    /// late — at worst early, to find nobody due and a later deadline.
    pub fn next_deadline(&self) -> Option<u64> {
        self.watched.values().map(|w| w.idle_since().saturating_add(self.interval)).min()
    }

    /// Peers silent past the timeout as of `now`.
    ///
    /// The comparison is strict: a peer whose silence equals the timeout
    /// exactly is *not* yet suspect — suspicion needs `now - last_heard`
    /// to strictly exceed `timeout`. This keeps a peer that answers
    /// every ping at precisely the timeout cadence permanently healthy
    /// instead of flapping on the boundary.
    pub fn suspects(&self, now: u64) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.suspects_into(now, &mut out);
        out
    }

    /// Like [`Self::suspects`], but reuses `out` (cleared first) instead
    /// of allocating a fresh `Vec` — the embedding protocol's ping tick
    /// calls this on every firing, so the allocation is pure churn. Same
    /// strict-`>` boundary as [`Self::suspects`].
    pub fn suspects_into(&self, now: u64, out: &mut Vec<PeerId>) {
        out.clear();
        out.extend(self.watched.iter().filter(|(_, w)| now.saturating_sub(w.heard) > self.timeout).map(|(&p, _)| p));
    }

    /// Peers currently watched, in id order.
    pub fn watched(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.watched.keys().copied()
    }

    /// True if `peer` is watched.
    pub fn is_watching(&self, peer: PeerId) -> bool {
        self.watched.contains_key(&peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_past_timeout_raises_suspicion() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(3), 0);
        m.watch(PeerId(4), 0);
        assert!(m.suspects(20).is_empty());
        m.heard_from(PeerId(3), 20);
        assert_eq!(m.suspects(30), vec![PeerId(4)]);
        assert_eq!(m.suspects(50), vec![PeerId(3), PeerId(4)]);
    }

    #[test]
    fn heard_from_unwatched_is_noop() {
        let mut m = PingMonitor::new(10, 25);
        m.heard_from(PeerId(9), 5);
        assert!(m.suspects(1000).is_empty());
        assert!(!m.is_watching(PeerId(9)));
    }

    #[test]
    fn unwatch_clears_suspicion() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        assert_eq!(m.suspects(100), vec![PeerId(1)]);
        m.unwatch(PeerId(1));
        assert!(m.suspects(100).is_empty());
    }

    #[test]
    fn restart_counts_every_silence_from_now() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        m.watch(PeerId(2), 30);
        m.restart(40);
        assert!(m.suspects(65).is_empty(), "the silence before the restart is forgotten");
        assert_eq!(m.next_deadline(), Some(50));
        assert_eq!(m.suspects(66), vec![PeerId(1), PeerId(2)]);
    }

    #[test]
    fn exact_timeout_boundary_is_not_suspect() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        assert!(m.suspects(25).is_empty(), "strictly-greater comparison");
        assert_eq!(m.suspects(26), vec![PeerId(1)]);
    }

    #[test]
    fn suspects_into_reuses_buffer_with_identical_boundary() {
        // The reusable-buffer variant must agree with `suspects` at and
        // around the strict-`>` timeout boundary, and must clear stale
        // contents from the buffer it is handed.
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        m.watch(PeerId(2), 10);
        let mut buf = vec![PeerId(99)]; // stale garbage to be cleared
        for now in [24, 25, 26, 35, 36, 1000] {
            m.suspects_into(now, &mut buf);
            assert_eq!(buf, m.suspects(now), "now={now}");
        }
        assert!(!buf.contains(&PeerId(99)));
        m.suspects_into(25, &mut buf);
        assert!(buf.is_empty(), "exact timeout is not yet suspect");
        m.suspects_into(26, &mut buf);
        assert_eq!(buf, vec![PeerId(1)], "one tick past the timeout is");
    }

    #[test]
    fn rewatch_resets_suspicion_clock() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        assert_eq!(m.suspects(26), vec![PeerId(1)]);
        // Watching again (e.g. a second invocation on the same child)
        // counts as heard-from: the suspect gets a fresh window.
        m.watch(PeerId(1), 26);
        assert!(m.suspects(51).is_empty(), "window restarts at the re-watch");
        assert_eq!(m.suspects(52), vec![PeerId(1)]);
    }

    fn due(m: &mut PingMonitor, now: u64) -> (Vec<PeerId>, u64) {
        let mut out = vec![PeerId(99)]; // stale garbage to be cleared
        let suppressed = m.due_into(now, &mut out);
        (out, suppressed)
    }

    #[test]
    fn a_link_is_due_after_exactly_one_idle_interval() {
        let mut m = PingMonitor::new(10, 25);
        assert_eq!(m.next_deadline(), None, "nothing watched, nothing to arm");
        m.watch(PeerId(1), 0);
        assert_eq!(m.next_deadline(), Some(10));
        assert_eq!(due(&mut m, 9), (vec![], 0), "one tick short of the interval");
        assert_eq!(due(&mut m, 10), (vec![PeerId(1)], 0), "inclusive: the deadline itself is due");
        assert_eq!(due(&mut m, 10), (vec![], 0), "a probed link is not probed again at once");
        assert_eq!(m.next_deadline(), Some(20), "the probe restarts the idle clock");
    }

    #[test]
    fn traffic_postpones_the_probe_and_is_counted_as_suppressing_it() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        m.heard_from(PeerId(1), 7);
        assert_eq!(m.next_deadline(), Some(17));
        assert_eq!(due(&mut m, 10), (vec![], 1), "a fixed cadence would have probed here");
        assert_eq!(due(&mut m, 16), (vec![], 1));
        assert_eq!(due(&mut m, 17), (vec![PeerId(1)], 0));
        // Heard from after the probe: the next one is an interval after that.
        m.heard_from(PeerId(1), 21);
        assert_eq!(m.next_deadline(), Some(31));
    }

    #[test]
    fn the_next_deadline_is_the_earliest_and_only_ever_moves_later() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        m.watch(PeerId(2), 4);
        assert_eq!(m.next_deadline(), Some(10));
        m.heard_from(PeerId(1), 6);
        assert_eq!(m.next_deadline(), Some(14), "peer 2 is now the idlest");
        m.watch(PeerId(3), 9);
        assert_eq!(m.next_deadline(), Some(14), "a new watch is due a full interval from now");
        assert_eq!(due(&mut m, 14), (vec![PeerId(2)], 1), "only the idle link; peer 1 was heard from at 6");
        assert_eq!(m.next_deadline(), Some(16));
        m.unwatch(PeerId(1));
        assert_eq!(m.next_deadline(), Some(19));
    }

    #[test]
    fn probing_does_not_refresh_the_silence_clock() {
        let mut m = PingMonitor::new(10, 25);
        m.watch(PeerId(1), 0);
        for now in [10, 20] {
            assert_eq!(due(&mut m, now).0, vec![PeerId(1)]);
            assert!(m.suspects(now).is_empty());
        }
        assert_eq!(due(&mut m, 30).0, vec![PeerId(1)]);
        assert_eq!(m.suspects(30), vec![PeerId(1)], "three unanswered probes: silent since 0");
    }

    #[test]
    fn a_live_peer_is_silent_for_at_most_an_interval_and_a_round_trip() {
        // Worst case under the idle rule: every probe leaves exactly at
        // its deadline and the reply takes the maximal round trip.
        let (interval, timeout, round_trip) = (10, 25, 2 * 5);
        let mut m = PingMonitor::new(interval, timeout);
        m.watch(PeerId(1), 0);
        let mut reply_at = None;
        for now in 0..400 {
            if reply_at == Some(now) {
                m.heard_from(PeerId(1), now);
                reply_at = None;
            }
            if m.next_deadline() == Some(now) && !due(&mut m, now).0.is_empty() {
                reply_at = Some(now + round_trip);
            }
            assert!(m.suspects(now).is_empty(), "false suspicion at {now}");
        }
        // The shortcut — probe rounds every `interval`, skipping peers
        // heard from within it — reaches 2 × interval − 1 + round trip.
        assert!(interval + round_trip < timeout && 2 * interval - 1 + round_trip > timeout);
    }

    #[test]
    fn watched_list() {
        let mut m = PingMonitor::new(5, 10);
        m.watch(PeerId(2), 0);
        m.watch(PeerId(1), 0);
        assert_eq!(m.watched().collect::<Vec<_>>(), vec![PeerId(1), PeerId(2)]);
    }
}
