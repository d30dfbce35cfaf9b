//! Exact per-layer counts, read off finished scenarios through their
//! public accessors — ratios are taken where the work happened.

use crate::metrics::Metrics;
use axml_core::durability;
use axml_core::scenarios::Scenario;

/// Counters summed over every scenario of one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub scenarios: u64,
    pub txns: u64,
    pub sent: u64,
    pub delivered: u64,
    pub timers_fired: u64,
    pub heap_pushes: u64,
    pub invoke: u64,
    pub ack: u64,
    pub keepalive: u64,
    pub chain: u64,
    pub abort: u64,
    pub retransmits: u64,
    pub injected_faults: u64,
    pub dup_suppressed: u64,
    pub late_messages: u64,
    pub comp_cost_nodes: u64,
    pub contexts_retained: u64,
    pub dedup_seen_peak: u64,
    pub journal_entries: u64,
    pub wal_txns: u64,
    pub wal_bytes: u64,
    pub journal_text_bytes: u64,
    pub append_faults: u64,
    pub torn_tails: u64,
}

impl LayerCounts {
    /// Adds a finished scenario that resolved `txns` transactions.
    /// `with_write_amp` also encodes every journal to measure the bytes
    /// the WAL framing adds — only worth it where a disk-backed sink ran.
    pub fn absorb(&mut self, s: &Scenario, txns: u64, with_write_amp: bool) {
        self.scenarios += 1;
        self.txns += txns;
        if with_write_amp {
            self.wal_txns += txns;
        }
        let m = s.sim.metrics();
        self.sent += m.sent;
        self.delivered += m.delivered;
        self.timers_fired += m.timers_fired;
        self.heap_pushes += s.sim.heap_pushes();
        self.invoke += m.kind("invoke") + m.kind("result");
        self.ack += m.kind("ack");
        self.keepalive += m.kind("ping") + m.kind("pong");
        self.chain += m.kind("chain-update");
        self.abort += m.kind("abort") + m.kind("fault") + m.kind("compensate");
        self.retransmits += m.retransmits;
        self.injected_faults += m.injected_total();
        for &p in &s.participants {
            let actor = s.sim.actor(p);
            self.dup_suppressed += actor.stats.dup_suppressed;
            self.late_messages += actor.stats.late_messages;
            self.comp_cost_nodes += actor.stats.comp_cost_nodes;
            self.dedup_seen_peak = self.dedup_seen_peak.max(actor.stats.seen_peak);
            self.contexts_retained += actor.known_txns().len() as u64;
            self.journal_entries += actor.journal().len() as u64;
            let wal = actor.wal_stats();
            self.append_faults += wal.append_faults;
            self.torn_tails += wal.torn_tails_discarded;
            if with_write_amp {
                self.wal_bytes += wal.bytes_appended;
                self.journal_text_bytes += durability::encode(actor.journal()).len() as u64;
            }
        }
    }

    /// Writes the count metrics. `aborts` is the number of aborted
    /// transactions (the origin's view), the base of the paper's
    /// compensation cost measure.
    pub fn report(&self, aborts: u64, out: &mut Metrics) {
        let per_txn = |v: u64| ratio(v, self.txns);
        out.set("core.msgs.invoke_per_txn", per_txn(self.invoke));
        out.set("core.msgs.ack_per_txn", per_txn(self.ack));
        out.set("core.msgs.keepalive_per_txn", per_txn(self.keepalive));
        out.set("core.msgs.chain_per_txn", per_txn(self.chain));
        out.set("core.msgs.abort_per_txn", per_txn(self.abort));
        out.set("core.retransmits_per_txn", per_txn(self.retransmits));
        out.set("core.dup_suppressed_per_txn", per_txn(self.dup_suppressed));
        let wasted = self.dup_suppressed + self.late_messages;
        out.set("core.useful_delivery_ratio", ratio(self.delivered.saturating_sub(wasted), self.delivered));
        out.set("core.comp_nodes_per_abort", ratio(self.comp_cost_nodes, aborts));
        out.set("core.journal_entries_per_txn", per_txn(self.journal_entries));
        out.set("core.contexts_retained_per_txn", per_txn(self.contexts_retained));
        out.set("core.dedup_seen_peak", self.dedup_seen_peak as f64);
        out.set("p2p.events_per_txn", per_txn(self.delivered + self.timers_fired));
        out.set("p2p.heap_pushes_per_txn", per_txn(self.heap_pushes));
        out.set("p2p.injected_faults_per_case", ratio(self.injected_faults, self.scenarios));
        out.set("store.bytes_per_txn", ratio(self.wal_bytes, self.wal_txns));
        out.set("store.write_amp", ratio(self.wal_bytes, self.journal_text_bytes));
        out.set("store.append_faults_per_case", ratio(self.append_faults, self.scenarios));
        out.set("store.torn_tails_per_case", ratio(self.torn_tails, self.scenarios));
    }
}

/// `a / b`, 0 when the base is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
