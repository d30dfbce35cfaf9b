//! Keep-alive failure detection.
//!
//! "Related P2P research relies on ping (or keep-alive) messages to detect
//! peer disconnection." (§3.3) A [`PingMonitor`] is the bookkeeping a peer
//! embeds to watch a set of peers: it tells the protocol when to ping and
//! which peers have been silent past the timeout. The actual ping/pong
//! messages are the embedding protocol's own message variants.

use crate::ids::PeerId;
use std::collections::BTreeMap;

/// Tracks last-heard times for a set of watched peers.
#[derive(Debug, Clone)]
pub struct PingMonitor {
    /// How often to send pings.
    pub interval: u64,
    /// Silence longer than this declares the peer disconnected.
    pub timeout: u64,
    watched: BTreeMap<PeerId, u64>, // last heard-from time
}

impl PingMonitor {
    /// A monitor with the given ping interval and timeout.
    pub fn new(interval: u64, timeout: u64) -> PingMonitor {
        PingMonitor { interval, timeout, watched: BTreeMap::new() }
    }

    /// Starts watching a peer (counts as heard-from at `now`).
    ///
    /// Re-watching an already-watched peer resets its silence clock to
    /// `now` — so a peer that was about to be declared suspect gets a
    /// full fresh timeout window.
    pub fn watch(&mut self, peer: PeerId, now: u64) {
        self.watched.insert(peer, now);
    }

    /// Stops watching a peer.
    pub fn unwatch(&mut self, peer: PeerId) {
        self.watched.remove(&peer);
    }

    /// Records any message (ping reply or payload) from a watched peer.
    pub fn heard_from(&mut self, peer: PeerId, now: u64) {
        if let Some(t) = self.watched.get_mut(&peer) {
            *t = now;
        }
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
    /// calls this every interval on every peer, so the allocation is
    /// pure churn. Same strict-`>` boundary as [`Self::suspects`].
    pub fn suspects_into(&self, now: u64, out: &mut Vec<PeerId>) {
        out.clear();
        out.extend(self.watched.iter().filter(|(_, &last)| now.saturating_sub(last) > self.timeout).map(|(&p, _)| p));
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

    #[test]
    fn watched_list() {
        let mut m = PingMonitor::new(5, 10);
        m.watch(PeerId(2), 0);
        m.watch(PeerId(1), 0);
        assert_eq!(m.watched().collect::<Vec<_>>(), vec![PeerId(1), PeerId(2)]);
    }
}
