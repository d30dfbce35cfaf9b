//! Network-level counters collected by the simulator.

use axml_trace::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counters the experiment harness reads after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages successfully enqueued for delivery.
    pub sent: u64,
    /// Messages delivered to their target actor.
    pub delivered: u64,
    /// Sends that failed synchronously (target disconnected).
    pub send_failures: u64,
    /// In-flight messages dropped because the target disconnected before
    /// delivery.
    pub dropped_in_flight: u64,
    /// Messages by kind (see [`crate::Message::kind`]).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Timers fired.
    pub timers_fired: u64,
    /// Disconnect events applied.
    pub disconnects: u64,
    /// Reconnect events applied.
    pub reconnects: u64,
    /// Messages dropped by the fault plane (probabilistic, scripted, or
    /// partition).
    pub injected_drops: u64,
    /// Of [`Self::injected_drops`], those dropped by a partition window.
    pub partition_drops: u64,
    /// Messages duplicated by the fault plane.
    pub injected_dups: u64,
    /// Messages given a large delay spike by the fault plane.
    pub injected_spikes: u64,
    /// Messages given a small reordering delay by the fault plane.
    pub injected_reorders: u64,
    /// Deliveries that arrived behind a later-sent message on the same
    /// link (duplicate copies excluded).
    pub out_of_order: u64,
    /// Retransmissions sent by reliable-delivery protocol layers (see
    /// [`crate::Message::is_retransmit`]).
    pub retransmits: u64,
    /// Crash-restart events applied.
    pub crash_restarts: u64,
    /// Timer firings discarded because the peer crash-restarted after
    /// they were set.
    pub stale_timers: u64,
    /// Fault-plane drops by message kind.
    pub drops_by_kind: BTreeMap<&'static str, u64>,
    /// Fault-plane duplications by message kind.
    pub dups_by_kind: BTreeMap<&'static str, u64>,
    /// Retransmissions by message kind.
    pub retransmits_by_kind: BTreeMap<&'static str, u64>,
}

impl NetMetrics {
    /// Count of messages of one kind.
    pub fn kind(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Count of fault-plane drops of one kind.
    pub fn drops_of(&self, kind: &str) -> u64 {
        self.drops_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Count of fault-plane duplications of one kind.
    pub fn dups_of(&self, kind: &str) -> u64 {
        self.dups_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Count of retransmissions of one kind.
    pub fn retransmits_of(&self, kind: &str) -> u64 {
        self.retransmits_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Total faults injected by the plane (drops + dups + spikes +
    /// reorders).
    pub fn injected_total(&self) -> u64 {
        self.injected_drops + self.injected_dups + self.injected_spikes + self.injected_reorders
    }

    /// Adds another run's counters into these, counter by counter and
    /// kind by kind — what [`Snapshot::merge`] does to the rendered
    /// `net.*` registries, without naming anything.
    pub fn merge(&mut self, other: &NetMetrics) {
        // Destructured, so a new counter cannot be forgotten here.
        let NetMetrics {
            sent,
            delivered,
            send_failures,
            dropped_in_flight,
            by_kind,
            timers_fired,
            disconnects,
            reconnects,
            injected_drops,
            partition_drops,
            injected_dups,
            injected_spikes,
            injected_reorders,
            out_of_order,
            retransmits,
            crash_restarts,
            stale_timers,
            drops_by_kind,
            dups_by_kind,
            retransmits_by_kind,
        } = other;
        for (into, add) in [
            (&mut self.sent, sent),
            (&mut self.delivered, delivered),
            (&mut self.send_failures, send_failures),
            (&mut self.dropped_in_flight, dropped_in_flight),
            (&mut self.timers_fired, timers_fired),
            (&mut self.disconnects, disconnects),
            (&mut self.reconnects, reconnects),
            (&mut self.injected_drops, injected_drops),
            (&mut self.partition_drops, partition_drops),
            (&mut self.injected_dups, injected_dups),
            (&mut self.injected_spikes, injected_spikes),
            (&mut self.injected_reorders, injected_reorders),
            (&mut self.out_of_order, out_of_order),
            (&mut self.retransmits, retransmits),
            (&mut self.crash_restarts, crash_restarts),
            (&mut self.stale_timers, stale_timers),
        ] {
            *into += *add;
        }
        for (into, add) in [
            (&mut self.by_kind, by_kind),
            (&mut self.drops_by_kind, drops_by_kind),
            (&mut self.dups_by_kind, dups_by_kind),
            (&mut self.retransmits_by_kind, retransmits_by_kind),
        ] {
            for (kind, value) in add {
                *into.entry(*kind).or_default() += *value;
            }
        }
    }

    /// Appends these counters to `out` as `(name, value)` pairs, names
    /// scoped under `net.`.
    pub fn counters_into(&self, out: &mut Vec<(String, u64)>) {
        let scalars = [
            ("net.sent", self.sent),
            ("net.delivered", self.delivered),
            ("net.send_failures", self.send_failures),
            ("net.dropped_in_flight", self.dropped_in_flight),
            ("net.timers_fired", self.timers_fired),
            ("net.disconnects", self.disconnects),
            ("net.reconnects", self.reconnects),
            ("net.injected_drops", self.injected_drops),
            ("net.partition_drops", self.partition_drops),
            ("net.injected_dups", self.injected_dups),
            ("net.injected_spikes", self.injected_spikes),
            ("net.injected_reorders", self.injected_reorders),
            ("net.out_of_order", self.out_of_order),
            ("net.retransmits", self.retransmits),
            ("net.crash_restarts", self.crash_restarts),
            ("net.stale_timers", self.stale_timers),
        ];
        out.extend(scalars.map(|(name, value)| (name.to_string(), value)));
        for (scope, by_kind) in [
            ("net.sent.", &self.by_kind),
            ("net.drops.", &self.drops_by_kind),
            ("net.dups.", &self.dups_by_kind),
            ("net.retransmits.", &self.retransmits_by_kind),
        ] {
            out.extend(by_kind.iter().map(|(kind, value)| ([scope, kind].concat(), *value)));
        }
    }

    /// These counters as one flat registry snapshot (names scoped under
    /// `net.`), ready to merge with per-peer protocol stats into the
    /// unified view included in trace dumps.
    pub fn snapshot(&self) -> Snapshot {
        let mut pairs = Vec::new();
        self.counters_into(&mut pairs);
        Snapshot { counters: pairs.into_iter().collect() }
    }

    /// A human-readable multi-line summary, used by the chaos harness to
    /// make failing runs diagnosable.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "net: sent {} delivered {} send-failures {} dropped-in-flight {}",
            self.sent, self.delivered, self.send_failures, self.dropped_in_flight
        );
        let _ = writeln!(
            out,
            "faults: drops {} (partition {}) dups {} spikes {} reorders {} | out-of-order {} retransmits {} crash-restarts {}",
            self.injected_drops,
            self.partition_drops,
            self.injected_dups,
            self.injected_spikes,
            self.injected_reorders,
            self.out_of_order,
            self.retransmits,
            self.crash_restarts
        );
        let per_kind = |map: &BTreeMap<&'static str, u64>| {
            map.iter().map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join(", ")
        };
        let _ = writeln!(out, "by kind: {}", per_kind(&self.by_kind));
        if !self.drops_by_kind.is_empty() {
            let _ = writeln!(out, "drops by kind: {}", per_kind(&self.drops_by_kind));
        }
        if !self.dups_by_kind.is_empty() {
            let _ = writeln!(out, "dups by kind: {}", per_kind(&self.dups_by_kind));
        }
        if !self.retransmits_by_kind.is_empty() {
            let _ = writeln!(out, "retransmits by kind: {}", per_kind(&self.retransmits_by_kind));
        }
        let _ = write!(
            out,
            "churn: timers {} (stale {}) disconnects {} reconnects {}",
            self.timers_fired, self.stale_timers, self.disconnects, self.reconnects
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_lookup_defaults_to_zero() {
        let mut m = NetMetrics::default();
        assert_eq!(m.kind("invoke"), 0);
        *m.by_kind.entry("invoke").or_default() += 3;
        assert_eq!(m.kind("invoke"), 3);
    }

    #[test]
    fn fault_counters_default_to_zero_and_total() {
        let mut m = NetMetrics::default();
        assert_eq!(m.injected_total(), 0);
        assert_eq!(m.drops_of("invoke"), 0);
        m.injected_drops = 2;
        m.injected_dups = 1;
        *m.drops_by_kind.entry("invoke").or_default() += 2;
        *m.dups_by_kind.entry("result").or_default() += 1;
        assert_eq!(m.injected_total(), 3);
        assert_eq!(m.drops_of("invoke"), 2);
        assert_eq!(m.dups_of("result"), 1);
    }

    #[test]
    fn snapshot_scopes_names_under_net() {
        let mut m = NetMetrics::default();
        m.sent = 9;
        m.retransmits = 2;
        *m.by_kind.entry("invoke").or_default() += 4;
        *m.retransmits_by_kind.entry("invoke").or_default() += 2;
        let s = m.snapshot();
        assert_eq!(s.get("net.sent"), 9);
        assert_eq!(s.get("net.sent.invoke"), 4);
        assert_eq!(s.get("net.retransmits.invoke"), 2);
        assert_eq!(s.get("net.drops.invoke"), 0);
    }

    #[test]
    fn merged_metrics_render_as_the_merged_snapshots() {
        let mut a = NetMetrics::default();
        a.sent = 3;
        a.retransmits = 1;
        *a.by_kind.entry("invoke").or_default() += 3;
        *a.retransmits_by_kind.entry("invoke").or_default() += 1;
        let mut b = NetMetrics::default();
        b.sent = 2;
        b.injected_drops = 1;
        *b.by_kind.entry("invoke").or_default() += 1;
        *b.by_kind.entry("ack").or_default() += 1;
        *b.drops_by_kind.entry("ack").or_default() += 1;
        let mut rendered = a.snapshot();
        rendered.merge(&b.snapshot());
        a.merge(&b);
        assert_eq!(a.snapshot(), rendered);
        assert_eq!((a.sent, a.kind("invoke"), a.kind("ack"), a.drops_of("ack")), (5, 4, 1, 1));
    }

    #[test]
    fn accessors_over_a_mixed_fault_trace() {
        // Drive a real simulation through a scripted mixed fault plane
        // (drop + duplicate + spike + reorder, two message kinds, one of
        // them a protocol retransmission) and check every accessor
        // against the known script rather than hand-set counters.
        use crate::fault::{FaultAction, FaultPlane, ScriptedFault};
        use crate::sim::{Actor, Ctx, Message, Sim, SimConfig};
        use crate::PeerId;

        // The payloads exist to give each send a distinct body, as a
        // real protocol message would have; nothing reads them back.
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum M {
            Op(u64),
            Redo(u64),
        }
        impl Message for M {
            fn kind(&self) -> &'static str {
                match self {
                    M::Op(_) => "op",
                    M::Redo(_) => "redo",
                }
            }
            fn is_retransmit(&self) -> bool {
                matches!(self, M::Redo(_))
            }
        }
        struct Src;
        impl Actor<M> for Src {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, M>, _from: PeerId, _msg: M) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
                let msg = if tag.is_multiple_of(2) { M::Op(tag) } else { M::Redo(tag) };
                let _ = ctx.send(PeerId(1), msg);
            }
        }

        let fault = |kind: &str, nth: u64, action: FaultAction| ScriptedFault {
            from: PeerId(0),
            to: PeerId(1),
            kind: kind.to_string(),
            nth,
            action,
        };
        let mut config = SimConfig::default();
        config.fault = FaultPlane::scripted(vec![
            fault("op", 0, FaultAction::Drop),
            fault("op", 1, FaultAction::Duplicate { extra: 3 }),
            fault("redo", 0, FaultAction::Spike { extra: 40 }),
            fault("redo", 1, FaultAction::Reorder { extra: 2 }),
        ]);
        let mut s = Sim::new(config, vec![Src, Src]);
        for t in 0..6 {
            // tags 0..5 alternate op/redo → 3 sends of each kind
            s.schedule_timer(10 * t, PeerId(0), t);
        }
        s.run();

        let m = s.metrics();
        assert_eq!(m.kind("op"), 3);
        assert_eq!(m.kind("redo"), 3);
        assert_eq!(m.kind("absent"), 0);
        assert_eq!(m.drops_of("op"), 1);
        assert_eq!(m.drops_of("redo"), 0);
        assert_eq!(m.dups_of("op"), 1);
        assert_eq!(m.dups_of("redo"), 0);
        assert_eq!(m.retransmits_of("redo"), 3);
        assert_eq!(m.retransmits_of("op"), 0);
        assert_eq!(m.retransmits, 3);
        assert_eq!(m.injected_total(), 4, "drop + dup + spike + reorder all counted");
        assert_eq!((m.injected_drops, m.injected_dups, m.injected_spikes, m.injected_reorders), (1, 1, 1, 1));
        assert_eq!(m.sent, 6);
        assert_eq!(m.delivered, 6, "6 sent − 1 dropped + 1 duplicate copy");
        assert_eq!(s.fault_trace().len(), 4, "every scripted fault fired");

        let snap = m.snapshot();
        assert_eq!(snap.get("net.drops.op"), 1);
        assert_eq!(snap.get("net.dups.op"), 1);
        assert_eq!(snap.get("net.retransmits.redo"), 3);

        let text = m.summary();
        assert!(text.contains("drops by kind: op 1"), "{text}");
        assert!(text.contains("dups by kind: op 1"), "{text}");
        assert!(text.contains("retransmits by kind: redo 3"), "{text}");
    }

    #[test]
    fn summary_mentions_fault_lines_only_when_present() {
        let mut m = NetMetrics::default();
        m.sent = 4;
        let s = m.summary();
        assert!(s.contains("sent 4"));
        assert!(!s.contains("drops by kind"));
        *m.drops_by_kind.entry("invoke").or_default() += 1;
        *m.retransmits_by_kind.entry("invoke").or_default() += 2;
        let s = m.summary();
        assert!(s.contains("drops by kind: invoke 1"));
        assert!(s.contains("retransmits by kind: invoke 2"));
    }
}
