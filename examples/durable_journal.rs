//! Durability: a peer journals its transaction context as it works; crashed
//! mid-flight, it replays the journal and recovers its in-doubt work by
//! presumed abort — the same undo every abort runs.
//!
//! ```text
//! cargo run --example durable_journal
//! ```

use axml::core::durability::encode;
use axml::p2p::CrashEvent;
use axml::prelude::*;

fn main() {
    // Fig. 1, with AP3 serving its part of T1.0 for 500 ticks: its
    // materialization effects land early, its own body runs late.
    let mut builder = ScenarioBuilder::fig1();
    builder.durations.insert(3, 500);
    builder.fault.crashes.push(CrashEvent { at: 60, peer: PeerId(3) });
    let mut scenario = builder.build();
    scenario.sim.run_until(59);

    let ap3 = scenario.sim.actor(PeerId(3));
    println!("AP3's d3 before the crash : {}", ap3.repo.get("d3").unwrap().to_xml());
    // What stable storage holds: the journal, one JSON line per entry.
    let text = encode(ap3.journal());
    println!("\njournal ({} entries):", ap3.journal().len());
    for line in text.lines() {
        let shown = if line.len() > 100 { format!("{}…", &line[..100]) } else { line.to_string() };
        println!("  {shown}");
    }

    // 💥 crash at t=60: the in-memory context is gone; AP3 restarts,
    // replays the journal, finds the context in doubt, presumes abort and
    // compensates from the log.
    scenario.sim.run_until(60);
    let ap3 = scenario.sim.actor(PeerId(3));
    println!(
        "\nrecovery: presumed aborted {} transaction(s), compensated {} node(s)",
        ap3.stats.presumed_aborts, ap3.stats.comp_cost_nodes
    );
    let recovered = ap3.repo.get("d3").unwrap().to_xml();
    println!("AP3's d3 after recovery : {recovered}");
    assert!(recovered.contains("initial-3") && !recovered.contains("done-"));
    println!("\n✔ the in-doubt transaction's effects were rolled back from the durable log");
}
