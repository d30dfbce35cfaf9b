//! Deterministic fault injection for the simulated network.
//!
//! The paper's recovery protocol (§3.2–3.3) is specified over an
//! unreliable P2P fabric, but the base simulator only models latency
//! jitter and disconnection. A [`FaultPlane`] adds the rest of the
//! adversary — per-link message **drops**, **duplication**, extra-delay
//! **spikes**, small-delay **reordering**, windowed symmetric
//! **partitions**, and **crash-restart** events — all driven by a seed
//! that is independent of the latency seed, so the same protocol run can
//! be re-executed under a different fault schedule (and vice versa).
//!
//! Faults come in two forms that share one vocabulary:
//!
//! - **Probabilistic**: each send draws against `drop_prob`, `dup_prob`,
//!   `reorder_prob`, `spike_prob` from the plane's own seeded RNG.
//! - **Scripted**: a list of [`ScriptedFault`]s, each naming the *nth*
//!   message of a given kind on a given link and a concrete
//!   [`FaultAction`] (with concrete delays — no RNG needed at replay).
//!
//! Every injected per-message fault is recorded into a **trace** of
//! `ScriptedFault`s (readable via [`crate::Sim::fault_trace`]). Replaying
//! with the probabilities zeroed and the trace as the script reproduces
//! the exact same run — the property the chaos harness's shrinker relies
//! on to minimize a failing fault schedule to a printable reproducer.

use crate::ids::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What to do to one matched message. Delays are concrete so a scripted
/// replay needs no randomness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Silently drop the message (it was "sent" from the sender's view).
    Drop,
    /// Deliver the message normally *and* deliver a copy `extra` time
    /// units after the original — the at-least-once hazard.
    Duplicate {
        /// Additional delay of the duplicate copy past the original.
        extra: u64,
    },
    /// Add `extra` to the delivery latency — large values (past ping
    /// timeouts) make healthy peers look dead.
    Spike {
        /// Additional delivery delay.
        extra: u64,
    },
    /// Add a *small* `extra` to the delivery latency — enough to swap
    /// this message past later traffic on the same link without tripping
    /// failure detectors.
    Reorder {
        /// Additional delivery delay.
        extra: u64,
    },
}

/// A fault applied to the `nth` (0-based) message of `kind` sent from
/// `from` to `to`, counting every send on that link of that kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptedFault {
    /// Sender of the targeted message.
    pub from: PeerId,
    /// Receiver of the targeted message.
    pub to: PeerId,
    /// The message kind label ([`crate::Message::kind`]).
    pub kind: String,
    /// 0-based occurrence index among `(from, to, kind)` sends.
    pub nth: u64,
    /// What to do to the matched message.
    pub action: FaultAction,
}

/// A symmetric network partition: while `start <= now < end`, messages
/// between group `a` and group `b` are silently dropped (in both
/// directions). Sends still *succeed* synchronously — partitions are
/// invisible to the sender, unlike disconnection — so they exercise
/// retransmission and failure detection rather than the synchronous
/// error path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Window start (inclusive).
    pub start: u64,
    /// Window end (exclusive).
    pub end: u64,
    /// One side of the cut.
    pub a: Vec<PeerId>,
    /// The other side of the cut.
    pub b: Vec<PeerId>,
}

impl Partition {
    /// True if this partition separates `x` from `y` at time `now`.
    pub fn cuts(&self, now: u64, x: PeerId, y: PeerId) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        (self.a.contains(&x) && self.b.contains(&y)) || (self.a.contains(&y) && self.b.contains(&x))
    }
}

/// A scheduled crash-restart: at time `at`, the peer's volatile actor
/// state is wiped and rebuilt from its durability journal (the actor's
/// [`crate::Actor::on_crash_restart`] hook).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// When the crash happens.
    pub at: u64,
    /// The peer that crashes and immediately restarts.
    pub peer: PeerId,
}

/// Storage (WAL) fault knobs, applied by a durability sink that holds a
/// copy of this plane. Unlike the network knobs these never act on
/// messages: they decide the fate of journal *appends* and what garbage a
/// crash leaves in a segment.
///
/// All faults are **prospective** — an append either becomes durable and
/// is acknowledged, or fails and is reported before any consequence
/// escapes. Durable acknowledged entries are never retroactively lost
/// (that would break the atomicity oracle: an applied-but-unlogged effect
/// can never be compensated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFaultPlane {
    /// Per-append probability of a torn write: a prefix of the frame's
    /// bytes reaches the segment, the append reports failure, and the
    /// writer heals (truncates the torn bytes) before its next append. A
    /// crash before the heal leaves the torn frame for recovery's
    /// torn-tail rule to discard.
    pub torn_append_prob: f64,
    /// Per-append probability of a sync failure: nothing reaches the
    /// segment and the append reports failure (clean rollback).
    pub sync_failure_prob: f64,
    /// On crash, append a short burst of seeded garbage bytes to the tail
    /// segment — the partial-segment artifact recovery must discard.
    pub partial_segment_on_crash: bool,
}

impl Default for StorageFaultPlane {
    fn default() -> Self {
        StorageFaultPlane { torn_append_prob: 0.0, sync_failure_prob: 0.0, partial_segment_on_crash: false }
    }
}

impl StorageFaultPlane {
    /// True if this plane can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.torn_append_prob == 0.0 && self.sync_failure_prob == 0.0 && !self.partial_segment_on_crash
    }
}

/// The full fault schedule for one simulation run: probabilistic knobs,
/// scripted per-message faults, partitions, crash-restarts, and storage
/// faults.
///
/// The default plane is inert (all probabilities zero, no script) so
/// existing simulations are byte-for-byte unaffected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlane {
    /// Seed for the fault RNG — independent of the latency seed.
    pub seed: u64,
    /// Per-message probability of a silent drop.
    pub drop_prob: f64,
    /// Per-message probability of duplication.
    pub dup_prob: f64,
    /// Delay range `(lo, hi)` for the duplicate copy, inclusive.
    pub dup_extra: (u64, u64),
    /// Per-message probability of a large delay spike.
    pub spike_prob: f64,
    /// Extra-delay range `(lo, hi)` for spikes, inclusive.
    pub spike_extra: (u64, u64),
    /// Per-message probability of a small reordering delay.
    pub reorder_prob: f64,
    /// Extra-delay range `(lo, hi)` for reordering, inclusive.
    pub reorder_extra: (u64, u64),
    /// Windowed symmetric partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash-restart events.
    pub crashes: Vec<CrashEvent>,
    /// Scripted per-message faults (each consumed at most once).
    pub script: Vec<ScriptedFault>,
    /// Storage (WAL) fault knobs, consumed by the durability sinks the
    /// harness attaches to each peer — the network runtime ignores them.
    pub storage: StorageFaultPlane,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            dup_extra: (1, 8),
            spike_prob: 0.0,
            spike_extra: (40, 120),
            reorder_prob: 0.0,
            reorder_extra: (1, 10),
            partitions: Vec::new(),
            crashes: Vec::new(),
            script: Vec::new(),
            storage: StorageFaultPlane::default(),
        }
    }
}

impl FaultPlane {
    /// A plane with the given probabilistic knobs and default delay
    /// ranges; no partitions, crashes, or script.
    pub fn probabilistic(seed: u64, drop: f64, dup: f64, reorder: f64, spike: f64) -> FaultPlane {
        FaultPlane {
            seed,
            drop_prob: drop,
            dup_prob: dup,
            reorder_prob: reorder,
            spike_prob: spike,
            ..FaultPlane::default()
        }
    }

    /// A purely scripted plane (all probabilities zero) — the shape the
    /// shrinker emits as a minimal reproducer.
    pub fn scripted(script: Vec<ScriptedFault>) -> FaultPlane {
        FaultPlane { script, ..FaultPlane::default() }
    }

    /// True if the plane can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.spike_prob == 0.0
            && self.reorder_prob == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.script.is_empty()
            && self.storage.is_inert()
    }
}

/// What the plane decided to do to one send (internal to the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Dropped by a partition window (not recorded in the trace — the
    /// partition itself is already a scripted artifact).
    PartitionDrop,
    /// Dropped by script or probability.
    Drop,
    /// Duplicated; the copy lands `extra` after the original.
    Duplicate { extra: u64 },
    /// Delayed by `extra` (large, failure-detector scale).
    Spike { extra: u64 },
    /// Delayed by `extra` (small, ordering scale).
    Reorder { extra: u64 },
}

/// Live injection state owned by the simulator: the plane plus its RNG,
/// per-link-kind occurrence counters, script consumption, and the trace
/// of everything injected so far.
pub(crate) struct FaultRuntime {
    plane: FaultPlane,
    rng: StdRng,
    // `BTreeMap`, not `HashMap`: the runtime is part of the seeded
    // deterministic substrate, and ordered maps keep every walk over it
    // (present or future) independent of per-process hash seeds.
    sends: BTreeMap<(PeerId, PeerId, &'static str), u64>,
    consumed: Vec<bool>,
    trace: Vec<ScriptedFault>,
    inert: bool,
}

impl FaultRuntime {
    pub(crate) fn new(plane: FaultPlane) -> FaultRuntime {
        let inert = plane.is_inert();
        let consumed = vec![false; plane.script.len()];
        let rng = StdRng::seed_from_u64(plane.seed);
        FaultRuntime { plane, rng, sends: BTreeMap::new(), consumed, trace: Vec::new(), inert }
    }

    pub(crate) fn plane(&self) -> &FaultPlane {
        &self.plane
    }

    pub(crate) fn trace(&self) -> &[ScriptedFault] {
        &self.trace
    }

    pub(crate) fn take_trace(&mut self) -> Vec<ScriptedFault> {
        std::mem::take(&mut self.trace)
    }

    /// Decides the fate of one send. Advances the per-link-kind
    /// occurrence counter; scripted faults take precedence over
    /// probabilistic draws; anything injected (partitions aside) is
    /// appended to the trace.
    pub(crate) fn on_send(&mut self, now: u64, from: PeerId, to: PeerId, kind: &'static str) -> Option<Injected> {
        if self.inert || from == to {
            // Loopback sends never cross the network: a peer invoking its
            // own local service cannot lose the message.
            return None;
        }
        let nth = {
            let counter = self.sends.entry((from, to, kind)).or_insert(0);
            let nth = *counter;
            *counter += 1;
            nth
        };
        if self.plane.partitions.iter().any(|p| p.cuts(now, from, to)) {
            return Some(Injected::PartitionDrop);
        }
        // Scripted faults first: exact (link, kind, nth) match, consumed once.
        for (i, f) in self.plane.script.iter().enumerate() {
            if !self.consumed[i] && f.from == from && f.to == to && f.nth == nth && f.kind == kind {
                self.consumed[i] = true;
                let injected = match f.action {
                    FaultAction::Drop => Injected::Drop,
                    FaultAction::Duplicate { extra } => Injected::Duplicate { extra },
                    FaultAction::Spike { extra } => Injected::Spike { extra },
                    FaultAction::Reorder { extra } => Injected::Reorder { extra },
                };
                self.record(from, to, kind, nth, f.action);
                return Some(injected);
            }
        }
        // Probabilistic draws, in a fixed order (first hit wins).
        if self.plane.drop_prob > 0.0 && self.rng.gen_bool(self.plane.drop_prob) {
            self.record(from, to, kind, nth, FaultAction::Drop);
            return Some(Injected::Drop);
        }
        if self.plane.dup_prob > 0.0 && self.rng.gen_bool(self.plane.dup_prob) {
            let (lo, hi) = self.plane.dup_extra;
            let extra = self.rng.gen_range(lo..=hi);
            self.record(from, to, kind, nth, FaultAction::Duplicate { extra });
            return Some(Injected::Duplicate { extra });
        }
        if self.plane.reorder_prob > 0.0 && self.rng.gen_bool(self.plane.reorder_prob) {
            let (lo, hi) = self.plane.reorder_extra;
            let extra = self.rng.gen_range(lo..=hi);
            self.record(from, to, kind, nth, FaultAction::Reorder { extra });
            return Some(Injected::Reorder { extra });
        }
        if self.plane.spike_prob > 0.0 && self.rng.gen_bool(self.plane.spike_prob) {
            let (lo, hi) = self.plane.spike_extra;
            let extra = self.rng.gen_range(lo..=hi);
            self.record(from, to, kind, nth, FaultAction::Spike { extra });
            return Some(Injected::Spike { extra });
        }
        None
    }

    fn record(&mut self, from: PeerId, to: PeerId, kind: &'static str, nth: u64, action: FaultAction) {
        self.trace.push(ScriptedFault { from, to, kind: kind.to_string(), nth, action });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plane_is_inert() {
        assert!(FaultPlane::default().is_inert());
        assert!(FaultRuntime::new(FaultPlane::default()).on_send(0, PeerId(1), PeerId(2), "invoke").is_none());
    }

    #[test]
    fn scripted_fault_hits_exact_occurrence_once() {
        let plane = FaultPlane::scripted(vec![ScriptedFault {
            from: PeerId(1),
            to: PeerId(2),
            kind: "invoke".into(),
            nth: 1,
            action: FaultAction::Drop,
        }]);
        let mut rt = FaultRuntime::new(plane);
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(2), "invoke"), None); // nth 0
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(2), "result"), None); // other kind
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(2), "invoke"), Some(Injected::Drop)); // nth 1
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(2), "invoke"), None); // consumed
        assert_eq!(rt.trace().len(), 1);
    }

    #[test]
    fn loopback_sends_are_never_faulted() {
        let plane = FaultPlane::probabilistic(3, 1.0, 0.0, 0.0, 0.0);
        let mut rt = FaultRuntime::new(plane);
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(1), "invoke"), None);
        assert_eq!(rt.on_send(0, PeerId(1), PeerId(2), "invoke"), Some(Injected::Drop));
    }

    #[test]
    fn partition_cuts_both_directions_inside_window_only() {
        let p = Partition { start: 10, end: 20, a: vec![PeerId(1)], b: vec![PeerId(2), PeerId(3)] };
        assert!(p.cuts(10, PeerId(1), PeerId(2)));
        assert!(p.cuts(15, PeerId(3), PeerId(1)));
        assert!(!p.cuts(9, PeerId(1), PeerId(2)));
        assert!(!p.cuts(20, PeerId(1), PeerId(2)), "end exclusive");
        assert!(!p.cuts(15, PeerId(2), PeerId(3)), "same side");
    }

    #[test]
    fn probabilistic_trace_replays_as_script() {
        // Run a message stream through a lossy plane, then replay the
        // recorded trace as a script: the injected faults must be
        // identical, with no RNG involved the second time.
        let plane = FaultPlane::probabilistic(42, 0.2, 0.2, 0.1, 0.1);
        let mut rt = FaultRuntime::new(plane);
        let mut first = Vec::new();
        for i in 0..200u32 {
            let from = PeerId(i % 3);
            let to = PeerId((i + 1) % 3);
            let kind = if i.is_multiple_of(2) { "invoke" } else { "result" };
            first.push(rt.on_send(0, from, to, kind));
        }
        assert!(rt.trace().iter().any(|f| f.action == FaultAction::Drop), "seed produced drops");
        let mut replay = FaultRuntime::new(FaultPlane::scripted(rt.trace().to_vec()));
        for (i, expected) in first.iter().enumerate() {
            let i = i as u32;
            let from = PeerId(i % 3);
            let to = PeerId((i + 1) % 3);
            let kind = if i.is_multiple_of(2) { "invoke" } else { "result" };
            assert_eq!(replay.on_send(0, from, to, kind), *expected, "send {i}");
        }
        assert_eq!(replay.trace(), rt.trace());
    }

    #[test]
    fn storage_plane_activates_and_roundtrips() {
        let mut plane = FaultPlane::default();
        assert!(plane.storage.is_inert());
        assert!(plane.is_inert());
        plane.storage.torn_append_prob = 0.1;
        assert!(!plane.is_inert(), "a storage-faulting plane is not inert");
        plane.storage.sync_failure_prob = 0.2;
        plane.storage.partial_segment_on_crash = true;
        let text = serde_json::to_string(&plane).expect("serialize");
        let back: FaultPlane = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, plane);
    }

    #[test]
    fn plane_roundtrips_through_json() {
        let mut plane = FaultPlane::probabilistic(9, 0.1, 0.0, 0.0, 0.05);
        plane.partitions.push(Partition { start: 5, end: 50, a: vec![PeerId(1)], b: vec![PeerId(2)] });
        plane.crashes.push(CrashEvent { at: 30, peer: PeerId(4) });
        plane.script.push(ScriptedFault {
            from: PeerId(1),
            to: PeerId(2),
            kind: "invoke".into(),
            nth: 0,
            action: FaultAction::Duplicate { extra: 3 },
        });
        let text = serde_json::to_string(&plane).expect("serialize");
        let back: FaultPlane = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, plane);
    }
}
