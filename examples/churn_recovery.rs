//! Peer disconnection and chaining (§3.3) on the paper's Fig. 2 topology.
//!
//! Runs scenario (b) — the parent AP3 disconnects while its child AP6 is
//! still working — twice: with chaining (active-peer lists travel with
//! every invocation) and without. With chaining, AP6 detects the
//! disconnection synchronously while returning its results, re-routes
//! them to the grandparent AP2, and AP2 redoes S3 on a replica *reusing
//! AP6's work*. Without chaining, the work is discarded and recovery
//! waits for slow keep-alive timeouts.
//!
//! ```text
//! cargo run --example churn_recovery
//! ```

use axml::prelude::*;

fn run(chaining: bool) {
    println!("— scenario (b), chaining {} —", if chaining { "ON" } else { "OFF" });
    let mut config = PeerConfig::default();
    config.chaining = chaining;
    // Slow pings: the chaining path (send-failure detection) races far
    // ahead of the keep-alive fallback.
    config.ping_interval = 300;
    config.ping_timeout = 700;
    let mut builder = ScenarioBuilder::fig2().flavor(Flavor::Update).config(config);
    builder.durations.insert(6, 60); // AP6 is busy when AP3 drops
    let (builder, replica) = builder.with_replica(3);
    let mut scenario = builder.disconnect(30, 3).build();
    let report = scenario.run();

    let outcome = report.outcome.expect("resolved");
    println!("  outcome: {} at t={}", if outcome.committed { "COMMITTED" } else { "ABORTED" }, outcome.resolved_at);
    if let Some(txn) = report.txn {
        if let Some(tc) = scenario.sim.actor(PeerId(1)).context(txn) {
            println!("  active-peer list at origin: {}", tc.chain.to_notation());
        }
    }
    for (peer, stats) in &report.stats {
        for d in &stats.detections {
            println!("  {peer} detected {} at t={} via {:?}", d.disconnected, d.at, d.how);
        }
    }
    let reused: u64 = report.stats.values().map(|s| s.work_reused).sum();
    let wasted: u64 = report.stats.values().map(|s| s.work_wasted).sum();
    println!("  work reused: {reused}, work wasted: {wasted}");
    if chaining {
        let rep = &report.stats[&PeerId(replica)];
        if rep.work_reused > 0 {
            println!("  ✔ the replica redid S3 with AP6's results passed as input — no recomputation");
        }
    }
    println!("  atomic: {}\n", report.atomic);
}

fn main() {
    println!("Fig. 2 topology: [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
    println!("AP3 disconnects at t=30 while AP6 is processing S6 (until ~t=65).\n");
    run(true);
    run(false);
    println!("Chaining turns a slow, wasteful recovery into a fast one that salvages AP6's work.");
}
