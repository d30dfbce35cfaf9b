//! `axml` — command-line front end to the AXML transactional stack.
//!
//! ```text
//! axml query <file.xml> "<select query>"        evaluate a query (transparent view)
//! axml apply <file.xml> "<action-xml>"          apply an update action, show effects + compensation
//! axml roundtrip <file.xml> "<action-xml>"      apply, compensate, verify restoration
//! axml fig1 [fault]                             run the paper's Fig. 1 scenario
//! axml fig2 <a|b|c|d> [--no-chaining]           run a Fig. 2 disconnection scenario
//! ```

use axml::core::compensate::{apply_compensation, compensation_for_effects};
use axml::core::scenarios::{Flavor, ScenarioBuilder};
use axml::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("query") => cmd_query(&args[1..]),
        Some("apply") => cmd_apply(&args[1..], false),
        Some("roundtrip") => cmd_apply(&args[1..], true),
        Some("fig1") => cmd_fig1(&args[1..]),
        Some("fig2") => cmd_fig2(&args[1..]),
        _ => {
            eprintln!("usage: axml <query|apply|roundtrip|fig1|fig2> …");
            eprintln!("  axml query <file.xml> \"Select p/x from p in root//y where …\"");
            eprintln!("  axml apply <file.xml> '<action type=\"delete\"><location>…</location></action>'");
            eprintln!("  axml roundtrip <file.xml> '<action …>…</action>'");
            eprintln!("  axml fig1 [fault]");
            eprintln!("  axml fig2 <a|b|c|d> [--no-chaining]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Document::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [file, query] = args else {
        return Err("usage: axml query <file.xml> \"<select query>\"".into());
    };
    let doc = load(file)?;
    let q = SelectQuery::parse(query).map_err(|e| e.to_string())?;
    let hits = TransparentView::eval(&doc, &q).map_err(|e| e.to_string())?;
    println!("{} result(s):", hits.len());
    for h in hits {
        println!("{}", doc.subtree_to_xml(h));
    }
    Ok(())
}

fn cmd_apply(args: &[String], roundtrip: bool) -> Result<(), String> {
    let [file, action_xml] = args else {
        return Err("usage: axml apply|roundtrip <file.xml> '<action …>'".into());
    };
    let mut doc = load(file)?;
    let before = doc.to_xml();
    let action = UpdateAction::parse_action_xml(action_xml).map_err(|e| e.to_string())?;
    let report = action.apply(&mut doc).map_err(|e| e.to_string())?;
    println!("applied: {} effect(s), {} node(s) affected", report.effects.len(), report.cost_nodes);
    println!("document after:\n{}", doc.to_xml());
    let comp = compensation_for_effects(&report.effects);
    println!("\ncompensating operations ({}):", comp.len());
    for c in &comp {
        println!("  {}", c.to_action_xml());
    }
    if roundtrip {
        apply_compensation(&mut doc, &comp).map_err(|e| e.to_string())?;
        if doc.to_xml() == before {
            println!("\n✔ compensation restored the exact original document");
        } else {
            return Err("compensation failed to restore the original document".into());
        }
    }
    Ok(())
}

fn print_report(report: &axml::core::scenarios::ScenarioReport) {
    match &report.outcome {
        Some(o) => println!(
            "outcome: {} (t={}..{})",
            if o.committed { "COMMITTED" } else { "ABORTED" },
            o.started_at,
            o.resolved_at
        ),
        None => println!("outcome: unresolved by deadline"),
    }
    println!("atomic: {}", report.atomic);
    println!("messages: {:?}", report.metrics.by_kind);
    for (peer, st) in &report.stats {
        for d in &st.detections {
            println!("{peer} detected {} at t={} via {:?}", d.disconnected, d.at, d.how);
        }
    }
}

fn cmd_fig1(args: &[String]) -> Result<(), String> {
    let fault = args.iter().any(|a| a == "fault");
    let mut builder = ScenarioBuilder::fig1().flavor(Flavor::Update);
    if fault {
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        builder = builder.fault_at(5).config(cfg);
        println!("Fig. 1 with a fault injected at AP5 (while processing S5):");
    } else {
        println!("Fig. 1, fault-free:");
    }
    let mut scenario = builder.build();
    let report = scenario.run();
    print_report(&report);
    if let Some(txn) = report.txn {
        if let Some(tc) = scenario.sim.actor(scenario.origin).context(txn) {
            println!("active-peer list: {}", tc.chain.to_notation());
        }
    }
    Ok(())
}

fn cmd_fig2(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("b");
    let chaining = !args.iter().any(|a| a == "--no-chaining");
    let mut cfg = PeerConfig::default();
    cfg.chaining = chaining;
    let mut builder = ScenarioBuilder::fig2().flavor(Flavor::Update);
    match which {
        "a" => {
            cfg.use_alternative_providers = false;
            builder.durations.insert(6, 500);
            builder = builder.disconnect(40, 6);
            println!("Fig. 2 (a): leaf AP6 disconnects; parent AP3 detects (chaining={chaining}):");
        }
        "b" => {
            cfg.ping_interval = 300;
            cfg.ping_timeout = 700;
            builder.durations.insert(6, 60);
            let (b, _replica) = builder.with_replica(3);
            builder = b.disconnect(30, 3);
            println!("Fig. 2 (b): parent AP3 disconnects; child AP6 detects (chaining={chaining}):");
        }
        "c" => {
            cfg.use_alternative_providers = false;
            builder.durations.insert(6, 2000);
            builder.durations.insert(3, 3000);
            builder = builder.disconnect(50, 3);
            println!("Fig. 2 (c): child AP3 disconnects; parent AP2 detects (chaining={chaining}):");
        }
        "d" => {
            cfg.stream_interval = Some(7);
            cfg.ping_interval = 400;
            cfg.ping_timeout = 900;
            cfg.use_alternative_providers = false;
            for (p, d) in [(3u32, 3000u64), (4, 3000), (5, 50), (6, 50)] {
                builder.durations.insert(p, d);
            }
            builder = builder.disconnect(60, 3);
            println!("Fig. 2 (d): sibling AP4 detects AP3 via streams (chaining={chaining}):");
        }
        other => return Err(format!("unknown scenario `{other}` (expected a, b, c, or d)")),
    }
    let mut scenario = builder.config(cfg).build();
    let report = scenario.run();
    print_report(&report);
    let reused: u64 = report.stats.values().map(|s| s.work_reused).sum();
    let wasted: u64 = report.stats.values().map(|s| s.work_wasted).sum();
    println!("work reused: {reused}, wasted: {wasted}");
    Ok(())
}
