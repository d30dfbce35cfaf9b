//! `axml-chaos` — seeded fault sweeps with an atomicity oracle.
//!
//! ```text
//! axml-chaos sweep [--seeds N] [--scenarios a,b] [--profiles p,q] [--no-dedup] [--jobs N] [--prom FILE] [--series FILE]
//! axml-chaos smoke [--seeds N] [--jobs N]
//! axml-chaos store-smoke [--seeds N]
//! axml-chaos shrink-demo
//! axml-chaos gen <seed> [--run [--profile P] [--seed N]]
//! axml-chaos gen-sweep [--base-seed B] [--count N] [--seeds N] [--profiles p,q] [--no-dedup] [--jobs N] [--prom FILE] [--series FILE] [--corpus DIR]
//! axml-chaos corpus [--dir DIR] [--flight DIR]
//! axml-chaos trace (--demo | <scenario> [--profile P] [--seed N] [--script FILE] [--no-dedup]) [--journal FILE]
//! axml-chaos stats (--demo | <scenario> [--profile P] [--seed N] [--script FILE] [--no-dedup]) [--prom FILE]
//! ```
//!
//! `sweep` runs the full scenario × profile × seed matrix (default
//! 5 × 5 × 16 = 400 runs) — every run watched by the online protocol
//! monitor — and exits non-zero on any oracle violation or monitor
//! finding, printing each violation's shrunk scripted reproducer as JSON
//! plus the lifecycle trace of the minimal failing run. Its report also
//! counts the contexts left undecided (`open_contexts=`, and
//! `open_contexts_unexcused=`: on a connected peer, each a violation),
//! names every excused one on an `EXCUSED` line, and counts the
//! keep-alive timeouts that named a live peer (`false_suspicions=`). `--jobs N`
//! shards the cases across N worker threads; the report, sweep digest,
//! and `--prom` exposition are byte-identical for every jobs value
//! (cases merge in canonical order, not completion order).
//! `smoke` is the small CI variant (2 scenarios × storm × 16 seeds).
//! `store-smoke` is the durability CI check: per seed it runs the
//! traced `fig1-crash` case under the `storage` fault profile — every
//! peer on a WAL, torn appends and sync failures in flight,
//! a mid-compensation kill+restart recovering from the segments — and
//! diffs the recovered run's final document state digest against an
//! uncrashed, fault-free reference of the same abort. It exits non-zero
//! on any digest mismatch, oracle violation, or if recovery never
//! actually replayed entries from its segments.
//! `shrink-demo` deliberately disables duplicate suppression under the
//! duplication profile and shows the oracle catching it — it exits
//! non-zero if the broken variant is NOT caught.
//! `trace` replays one case with the lifecycle-event journal on and
//! pretty-prints the causal tree plus the unified counter snapshot;
//! `--script` replays a shrunk reproducer file instead of a profile and
//! `--journal` writes the raw JSON-lines journal for `axml-obs`.
//! `stats` replays one case traced and prints the trace analytics:
//! per-transaction critical paths, the latency percentile table, and the
//! monitor findings; `--prom` writes the Prometheus text exposition.
//! `gen` prints the deterministic `GenScenario` spec for a seed as JSON
//! (with `--run`, also executes it as one traced chaos case).
//! `gen-sweep` sweeps `count` *generated* scenarios (`gen:<base-seed>` …)
//! across the profile × seed matrix through the exact same machinery as
//! `sweep` — oracle, monitor, conformance gate, canonical-order merge,
//! `--jobs` byte-identity, `--prom` — defaulting to 64 scenarios ×
//! 5 profiles × 4 seeds = 1280 runs. `--corpus DIR` writes each
//! violation's shrunk reproducer into DIR as a `CorpusEntry` JSON.
//! `corpus` replays every checked-in `corpus/*.json` entry against its
//! expectation (fixed entries stay clean, tracked ones still reproduce);
//! `--flight DIR` writes the flight dump of each (traced) replay that
//! still violates into DIR next to the entry name.
//!
//! A violation's flight dump (the last events of each peer before the
//! oracle fired, cut from the shrunk reproducer's journal) is printed
//! with the reproducer and embedded in `--corpus` entries. `--series FILE` on `sweep`/`gen-sweep` writes the
//! merged gauge series (sampled every `SAMPLE_INTERVAL` ticks on every
//! traced run) as JSON lines — byte-identical across `--jobs` values.

#![forbid(unsafe_code)]

use axml_chaos::{
    builder_for, events_of, gen_scenario_names, load_corpus, plane_for, run_case, run_with_plane,
    run_with_plane_traced, shrink_failure, sweep_jobs, CaseConfig, CaseResult, CorpusEntry, GenScenario, Profile,
    SweepOutcome, SCENARIOS,
};
use axml_obs::{critical_paths, percentile_table, render_prometheus, SeriesRegistry};
use axml_p2p::FaultPlane;

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Resolves the shared `trace` / `stats` case syntax:
/// `(--demo | <scenario> [--profile P] [--seed N] [--script FILE] [--no-dedup])`.
fn resolve_case(cmd: &str, args: &[String]) -> (CaseConfig, FaultPlane) {
    let (scenario, profile, seed) = if args.iter().any(|a| a == "--demo") {
        // A run worth looking at: Fig. 1 with S5 failing under
        // mixed network faults — the full §3.2 recovery story.
        ("fig1-abort".to_string(), Profile::Mixed, 5)
    } else {
        let Some(scenario) = args.get(1).filter(|a| !a.starts_with("--")).cloned() else {
            eprintln!(
                "usage: axml-chaos {cmd} (--demo | <scenario> [--profile P] [--seed N] [--script FILE] [--no-dedup])"
            );
            std::process::exit(1);
        };
        let profile = parse_flag(args, "--profile")
            .map(|p| {
                Profile::parse(&p).unwrap_or_else(|| {
                    eprintln!("unknown profile `{p}`");
                    std::process::exit(1);
                })
            })
            .unwrap_or(Profile::Mixed);
        let seed = parse_flag(args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
        (scenario, profile, seed)
    };
    let Some(b) = builder_for(&scenario) else {
        eprintln!("unknown scenario `{scenario}` (expected one of {SCENARIOS:?})");
        std::process::exit(1);
    };
    let plane = match parse_flag(args, "--script") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            serde_json::from_str::<FaultPlane>(&text).unwrap_or_else(|e| {
                eprintln!("{path} is not a reproducer: {e:?}");
                std::process::exit(1);
            })
        }
        None => plane_for(profile, seed, &b.peers()),
    };
    let mut case = CaseConfig::new(&scenario, profile, seed);
    // Reproducers caught against the broken no-dedup variant need
    // the same deliberately broken config to replay the violation.
    case.dedup = !args.iter().any(|a| a == "--no-dedup");
    (case, plane)
}

fn report(out: &SweepOutcome) -> bool {
    println!(
        "runs={} committed={} aborted={} unresolved={} violations={}",
        out.runs,
        out.committed,
        out.aborted,
        out.runs - out.committed - out.aborted,
        out.violations.len()
    );
    println!("digest={:016x}", out.digest);
    println!("open_contexts={}", out.open_contexts);
    println!("open_contexts_unexcused={}", out.open_contexts - out.open_contexts_excused.len());
    println!("false_suspicions={}", out.false_suspicions);
    for (label, open) in &out.open_contexts_excused {
        println!("EXCUSED {label}: {open}, offline at case end");
    }
    for (label, finding) in &out.findings {
        println!("FINDING {label}: {finding}");
    }
    for v in &out.violations {
        println!("VIOLATION {}: {}", v.case.label(), v.reason);
        match &v.reproducer {
            Some(json) => println!("  reproducer: {json}"),
            None => println!("  (trace replay did not reproduce)"),
        }
        if let Some(dump) = &v.trace {
            println!("  lifecycle trace of the shrunk run:");
            for line in dump.journal.render_tree().lines() {
                println!("    {line}");
            }
        }
        println!("  flight recorder at the violation:");
        for line in v.flight.lines() {
            println!("    {line}");
        }
    }
    out.violations.is_empty()
}

/// The end of a one-case report (`trace`, `gen --run`): the outcome, the
/// oracle's verdict, each open context it excused, and the false
/// suspicions.
fn print_verdict(result: &CaseResult) {
    match result.committed {
        Some(true) => println!("outcome: committed"),
        Some(false) => println!("outcome: aborted"),
        None => println!("outcome: unresolved at the deadline"),
    }
    if result.verdict.ok {
        println!("oracle: atomicity held");
    } else {
        println!("oracle: VIOLATION — {}", result.verdict.reason);
    }
    for open in &result.open_contexts_excused {
        println!("excused: {open}, offline at case end");
    }
    println!("false suspicions: {}", result.false_suspicions);
}

/// Shared `--series FILE` handling for `sweep` / `gen-sweep`: writes the
/// merged gauge series as JSON lines (byte-identical for every `--jobs`).
fn write_series(args: &[String], out: &SweepOutcome) {
    if let Some(path) = parse_flag(args, "--series") {
        if let Err(e) = std::fs::write(&path, out.series.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("gauge series written to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("sweep");
    let seeds: u64 = parse_flag(&args, "--seeds").and_then(|s| s.parse().ok()).unwrap_or(16);
    let jobs: usize = parse_flag(&args, "--jobs").and_then(|s| s.parse().ok()).unwrap_or(1);
    let ok = match cmd {
        "sweep" => {
            let scenarios: Vec<String> = parse_flag(&args, "--scenarios")
                .map(|s| s.split(',').map(str::to_string).collect())
                .unwrap_or_else(|| SCENARIOS.iter().map(|s| s.to_string()).collect());
            let profiles: Vec<Profile> = parse_flag(&args, "--profiles")
                .map(|s| s.split(',').filter_map(Profile::parse).collect())
                .unwrap_or_else(|| Profile::all().to_vec());
            let dedup = !args.iter().any(|a| a == "--no-dedup");
            let out = sweep_jobs(&scenarios, &profiles, 0..seeds, dedup, jobs);
            let ok = report(&out);
            if let Some(path) = parse_flag(&args, "--prom") {
                if let Err(e) = std::fs::write(&path, render_prometheus(&out.histograms)) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("prometheus exposition written to {path}");
            }
            write_series(&args, &out);
            ok
        }
        "smoke" => {
            let scenarios = vec!["fig1".to_string(), "fig2".to_string()];
            report(&sweep_jobs(&scenarios, &[Profile::Storm], 0..seeds, true, jobs))
        }
        "store-smoke" => {
            // The crashed side: fig1-crash (AP3 killed mid-compensation,
            // restart from its WAL segments) under the storage fault
            // profile, traced so the spec conformance gate rides along.
            // The reference side: the same abort, fault-free and
            // uncrashed. Both end at the pre-transaction baseline, so
            // their final-document digests must be identical.
            let mut ok = true;
            for seed in 0..seeds.max(1) {
                let case = CaseConfig::new("fig1-crash", Profile::Storage, seed);
                let b = builder_for("fig1-crash").expect("known scenario");
                let plane = plane_for(Profile::Storage, seed, &b.peers());
                let (crashed, _dump) = run_with_plane_traced(&case, plane);
                let ref_case = CaseConfig::new("fig1-abort", Profile::Storage, seed);
                let reference = run_with_plane(&ref_case, FaultPlane::probabilistic(seed, 0.0, 0.0, 0.0, 0.0));
                let recovered = crashed.wal.recovery_entries;
                println!(
                    "seed {seed}: crashed docs={:016x} reference docs={:016x} wal.recovery_entries={recovered} \
                     wal.torn_tails_discarded={} wal.append_faults={}",
                    crashed.doc_digest,
                    reference.doc_digest,
                    crashed.wal.torn_tails_discarded,
                    crashed.wal.append_faults,
                );
                if !crashed.verdict.ok {
                    println!("  VIOLATION: {}", crashed.verdict.reason);
                    ok = false;
                }
                if crashed.committed != Some(false) || reference.committed != Some(false) {
                    println!(
                        "  FAIL: both runs must abort (crashed={:?} reference={:?})",
                        crashed.committed, reference.committed
                    );
                    ok = false;
                }
                if recovered == 0 {
                    println!("  FAIL: restart never replayed WAL entries from its segments");
                    ok = false;
                }
                if crashed.doc_digest != reference.doc_digest {
                    println!("  FAIL: recovered document state diverges from the uncrashed reference");
                    ok = false;
                }
            }
            if ok {
                println!("store-smoke: recovered state matches the uncrashed reference on every seed");
            }
            ok
        }
        "gen" => {
            let Some(seed) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("usage: axml-chaos gen <seed> [--run [--profile P] [--seed N]]");
                std::process::exit(1);
            };
            let g = GenScenario::generate(seed);
            println!("{}", g.to_json());
            if args.iter().any(|a| a == "--run") {
                let profile = parse_flag(&args, "--profile")
                    .map(|p| {
                        Profile::parse(&p).unwrap_or_else(|| {
                            eprintln!("unknown profile `{p}`");
                            std::process::exit(1);
                        })
                    })
                    .unwrap_or(Profile::Mixed);
                let run_seed = parse_flag(&args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
                let case = CaseConfig::new(&g.name(), profile, run_seed);
                let plane = plane_for(profile, run_seed, &g.builder().peers());
                let (result, dump) = run_with_plane_traced(&case, plane);
                println!("case {}", case.label());
                println!("{}", dump.journal.render_tree());
                print_verdict(&result);
            }
            true
        }
        "gen-sweep" => {
            let base: u64 = parse_flag(&args, "--base-seed").and_then(|s| s.parse().ok()).unwrap_or(0);
            let count: u64 = parse_flag(&args, "--count").and_then(|s| s.parse().ok()).unwrap_or(64);
            let run_seeds: u64 = parse_flag(&args, "--seeds").and_then(|s| s.parse().ok()).unwrap_or(4);
            let scenarios = gen_scenario_names(base, count);
            let profiles: Vec<Profile> = parse_flag(&args, "--profiles")
                .map(|s| s.split(',').filter_map(Profile::parse).collect())
                .unwrap_or_else(|| Profile::all().to_vec());
            let dedup = !args.iter().any(|a| a == "--no-dedup");
            let out = sweep_jobs(&scenarios, &profiles, 0..run_seeds, dedup, jobs);
            let ok = report(&out);
            if let Some(dir) = parse_flag(&args, "--corpus") {
                std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {dir}: {e}");
                    std::process::exit(1);
                });
                for v in &out.violations {
                    let Some(repro) = &v.reproducer else { continue };
                    let plane = serde_json::from_str(repro).expect("reproducer round-trips");
                    let entry = CorpusEntry {
                        note: format!("surfaced by gen-sweep at {}: {}", v.case.label(), v.reason),
                        expect: "violation".to_string(),
                        scenario: v.case.scenario.clone(),
                        profile: v.case.profile.name().to_string(),
                        seed: v.case.seed,
                        dedup: v.case.dedup,
                        plane,
                        flight: Some(v.flight.clone()),
                    };
                    let file = format!(
                        "{dir}/{}-{}-{}.json",
                        v.case.scenario.replace(':', "-"),
                        v.case.profile.name(),
                        v.case.seed
                    );
                    std::fs::write(&file, serde_json::to_string(&entry).expect("serializable")).unwrap_or_else(|e| {
                        eprintln!("cannot write {file}: {e}");
                        std::process::exit(1);
                    });
                    println!("corpus entry written to {file}");
                }
            }
            if let Some(path) = parse_flag(&args, "--prom") {
                if let Err(e) = std::fs::write(&path, render_prometheus(&out.histograms)) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("prometheus exposition written to {path}");
            }
            write_series(&args, &out);
            ok
        }
        "corpus" => {
            let dir = parse_flag(&args, "--dir").unwrap_or_else(|| "corpus".to_string());
            let flight_dir = parse_flag(&args, "--flight");
            if let Some(fd) = &flight_dir {
                std::fs::create_dir_all(fd).unwrap_or_else(|e| {
                    eprintln!("cannot create {fd}: {e}");
                    std::process::exit(1);
                });
            }
            match load_corpus(std::path::Path::new(&dir)) {
                Ok(entries) => {
                    let mut ok = true;
                    for (name, entry) in &entries {
                        let (verdict, flight) = entry.replay_with_flight();
                        match verdict {
                            Ok(()) => println!("{name}: ok ({})", entry.expect),
                            Err(reason) => {
                                println!("{name}: FAIL — {reason}");
                                ok = false;
                            }
                        }
                        if let (Some(fd), Some(dump)) = (&flight_dir, &flight) {
                            let stem = name.strip_suffix(".json").unwrap_or(name);
                            let file = format!("{fd}/{stem}.flight.txt");
                            std::fs::write(&file, dump).unwrap_or_else(|e| {
                                eprintln!("cannot write {file}: {e}");
                                std::process::exit(1);
                            });
                            println!("{name}: flight-recorder dump written to {file}");
                        }
                    }
                    println!("{} corpus entr{} replayed", entries.len(), if entries.len() == 1 { "y" } else { "ies" });
                    ok
                }
                Err(e) => {
                    eprintln!("corpus load failed: {e}");
                    false
                }
            }
        }
        "shrink-demo" => {
            let mut caught = false;
            for seed in 0..64 {
                let mut case = CaseConfig::new("fig1", Profile::Dups, seed);
                case.dedup = false;
                let result = run_case(&case);
                if !result.verdict.ok {
                    println!("caught {}: {}", case.label(), result.verdict.reason);
                    let full = events_of(&result.plane, &result.trace).len();
                    match shrink_failure(&case, &result) {
                        Some(plane) => {
                            let kept = plane.script.len() + plane.partitions.len() + plane.crashes.len();
                            println!("shrunk {full} scheduled faults down to {kept}");
                            println!("reproducer: {}", serde_json::to_string(&plane).expect("serializable"));
                        }
                        None => println!("trace replay did not reproduce"),
                    }
                    caught = true;
                    break;
                }
            }
            if !caught {
                eprintln!("oracle FAILED to catch the no-dedup variant under duplication");
            }
            caught
        }
        "trace" => {
            let (case, plane) = resolve_case("trace", &args);
            let (result, dump) = run_with_plane_traced(&case, plane);
            println!("case {}", case.label());
            println!("{}", dump.journal.render_tree());
            println!("{}", result.snapshot().render());
            if let Some(path) = parse_flag(&args, "--journal") {
                if let Err(e) = std::fs::write(&path, dump.journal.to_json_lines()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("journal written to {path}");
            }
            print_verdict(&result);
            true
        }
        "stats" => {
            let (case, plane) = resolve_case("stats", &args);
            let (result, dump) = run_with_plane_traced(&case, plane);
            println!("case {}", case.label());
            println!();
            println!("== critical paths");
            print!("{}", critical_paths(&dump.journal));
            println!();
            println!("== latency percentiles (sim-time ticks)");
            let hists = &dump.histograms;
            print!("{}", percentile_table(hists));
            println!();
            println!("== gauge series (window={} ticks)", axml_chaos::SAMPLE_INTERVAL);
            print!("{}", SeriesRegistry::from_journal(&dump.journal).render_summary());
            if let Some(path) = parse_flag(&args, "--prom") {
                if let Err(e) = std::fs::write(&path, render_prometheus(hists)) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!();
                println!("== prometheus exposition written to {path}");
            }
            println!();
            if result.findings.is_empty() {
                println!("== monitor: clean (0 findings)");
            } else {
                println!("== monitor: {} finding(s)", result.findings.len());
                for f in &result.findings {
                    println!("  {f}");
                }
            }
            result.findings.is_empty()
        }
        other => {
            eprintln!(
                "unknown command `{other}` \
                 (expected sweep | smoke | store-smoke | shrink-demo | gen | gen-sweep | corpus | trace | stats)"
            );
            false
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
