//! Messages per committed Fig. 1 transaction, by kind, as a deterministic
//! test — the message-count twin of `alloc_budget.rs`.
//!
//! One query-flavor Fig. 1 commit at simulator seed 0, run to quiescence.
//! The simulator is seeded, so every count is a pure function of the
//! code: 89 messages at the commit before the keep-alive stopped probing
//! links that carry traffic and a wave stopped gossiping the chain to the
//! children it had just invoked with it (36 keep-alive, 17 chain, 18 ack,
//! 10 invoke / result, 8 decision); 59 until an ack rode on the message
//! that follows it to its sender and a chain update stopped being relayed
//! to the peers its sender tells itself (12 keep-alive, 11 chain, 18 ack) —
//! acks and relayed updates had doubled as liveness traffic, hence the 4
//! more keep-alives after it; 53 until a participant stopped passing the
//! origin's `Commit` on to invokees the origin had told itself (13 ack,
//! 8 decision: AP4, AP5 and AP6 were each told twice); 47 until a
//! participant that misses the decision asked for it instead of being
//! sent it until it acknowledged (10 ack: one per `Commit`); the table
//! below since. A change that moves a row is a protocol change: it
//! re-pins the row here and the sweep digests with it, and says why.

use axml::prelude::*;

/// `(row, message kinds, messages sent)`.
const BUDGET: [(&str, &[&str], u64); 5] = [
    ("keep-alive", &["ping", "pong"], 16),
    ("chain", &["chain-update"], 6),
    ("ack", &["ack"], 5),
    ("invoke / result", &["invoke", "result"], 10),
    ("decision", &["commit", "inquire"], 5),
];

#[test]
fn a_committed_fig1_transaction_sends_the_pinned_messages_of_each_kind() {
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    let report = s.run();
    assert!(report.outcome.is_some_and(|o| o.committed));
    let m = &report.metrics;

    let mut table = format!("{:<16} {:>6} {:>6}\n", "kind", "pinned", "sent");
    let mut moved = false;
    for (row, kinds, pinned) in BUDGET {
        let sent: u64 = kinds.iter().map(|k| m.kind(k)).sum();
        table += &format!("{row:<16} {pinned:>6} {sent:>6}\n");
        moved |= sent != pinned;
    }
    let pinned: u64 = BUDGET.iter().map(|(_, _, n)| n).sum();
    table += &format!("{:<16} {:>6} {:>6}\n", "all", pinned, m.sent);
    // Every message has a row: nothing is sent that the table leaves out.
    assert!(!moved && pinned == m.sent, "the message budget moved (by kind: {:?})\n{table}", m.by_kind);
    assert_eq!(m.kind("inquire"), 0, "every participant heard the decision it was sent");

    // The detector's own counters tell the same story as the network's.
    let probes: u64 = report.stats.values().map(|st| st.keepalive_probes).sum();
    assert_eq!(probes, m.kind("ping"));
    assert_eq!(m.kind("ping"), m.kind("pong"), "every probe of a live peer is answered");

    // Each of the 10 reliable deliveries (5 invokes, 5 results) is
    // acknowledged once: an invoke's ack rides on the answer, a result's
    // has nothing to ride on and is an `Ack` message of its own. A
    // `Commit` is not acknowledged.
    let carried: u64 = report.stats.values().map(|st| st.acks_carried).sum();
    let alone: u64 = report.stats.values().map(|st| st.acks_alone).sum();
    assert_eq!((carried, alone), (5, 5));
    assert_eq!(alone, m.kind("ack"));
    assert_eq!(m.retransmits, 0, "no ack was held long enough for its delivery to be sent again");
}
