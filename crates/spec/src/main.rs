//! axml-spec CLI: bounded model checking and trace conformance.
//!
//! ```text
//! axml-spec check [--config NAME] [--broken] [--max-states N] [--json]
//! axml-spec conform --journal FILE [--json]
//! axml-spec list
//! ```
//!
//! `check` explores the clean configuration catalogue (or one named
//! configuration) and exits nonzero on any invariant violation; with
//! `--broken` it explores the broken variants instead — the
//! forward-order-compensation peer and lost commits with no inquiry — and
//! exits nonzero unless each yields its expected counterexample (I2 and
//! I4). `conform` replays a JSON-lines trace journal
//! (e.g. from `axml-chaos trace --journal`) against the model and exits
//! nonzero on divergence.

#![forbid(unsafe_code)]

use axml_spec::model::SpecConfig;
use axml_spec::{check, check_journal};
use axml_trace::TraceJournal;
use std::process::ExitCode;

const DEFAULT_MAX_STATES: usize = 200_000;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: axml-spec check [--config NAME] [--broken] [--max-states N] [--json]\n\
         \x20      axml-spec conform --journal FILE [--json]\n\
         \x20      axml-spec list"
    );
    ExitCode::from(2)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let max_states = match parse_flag(args, "--max-states").map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => n,
        Some(Err(_)) => return usage(),
        None => DEFAULT_MAX_STATES,
    };
    let json = has_flag(args, "--json");
    // Each configuration with the invariant that must refute it, if any.
    let configs: Vec<(SpecConfig, Option<&'static str>)> = if has_flag(args, "--broken") {
        SpecConfig::broken_variants().into_iter().map(|(c, refuted_by)| (c, Some(refuted_by))).collect()
    } else if let Some(name) = parse_flag(args, "--config") {
        if let Some(c) = SpecConfig::by_name(&name) {
            let refuted_by = SpecConfig::broken_variants().into_iter().find(|(b, _)| b.name == c.name).map(|(_, i)| i);
            vec![(c, refuted_by)]
        } else {
            eprintln!("unknown config `{name}`; try `axml-spec list`");
            return ExitCode::from(2);
        }
    } else {
        SpecConfig::catalogue().into_iter().map(|c| (c, None)).collect()
    };
    let mut ok = true;
    for (cfg, refuted_by) in &configs {
        let report = check(cfg, max_states);
        if json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_text());
        }
        match refuted_by {
            Some(invariant) if !report.violations.iter().any(|v| v.invariant == *invariant) => {
                eprintln!("{}: expected an {invariant} counterexample for the broken variant, found none", cfg.name);
                ok = false;
            }
            Some(_) => {}
            None if !report.is_clean() || report.truncated => ok = false,
            None => {}
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_conform(args: &[String]) -> ExitCode {
    let Some(path) = parse_flag(args, "--journal") else {
        return usage();
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = match TraceJournal::from_json_lines(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let verdict = check_journal(&journal);
    if has_flag(args, "--json") {
        println!("{}", verdict.render_json());
    } else {
        print!("{}", verdict.render_text());
    }
    if verdict.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("conform") => cmd_conform(&args[1..]),
        Some("list") => {
            for c in SpecConfig::catalogue() {
                let failure = match (c.fault_at, c.crash_at) {
                    (Some(f), _) => format!(", fault at AP{f}"),
                    (_, Some(k)) => format!(", crash at AP{k}"),
                    _ => String::new(),
                };
                let dup = if c.dup_results { ", duplicate results" } else { "" };
                let lost = if c.lose_commits { ", lost commits" } else { "" };
                let inquire = if c.inquire { ", inquiry" } else { "" };
                println!("{}: {} peers{failure}{dup}{lost}{inquire}", c.name, c.peers().len());
            }
            println!("fork4-abort-broken: 4 peers, fault at AP4, forward-order compensation (broken)");
            println!("fig1-frag-lose-commit-broken: 4 peers, lost commits, no inquiry (broken)");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
