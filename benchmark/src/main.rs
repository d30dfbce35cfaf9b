//! The repo benchmark.
//!
//! ```text
//! axml-benchmark [run|trace] --workload W [--seed N] [--seconds S] [--trace 0|1]
//! axml-benchmark all [--seed N] [--seconds S] [--out FILE]
//! axml-benchmark compare A.json B.json
//! ```
//!
//! One process measures one workload on one thread. An untraced run
//! reports the end-to-end metrics; a traced run wraps every call into a
//! layer in an in-memory span and reports the per-layer metrics. The
//! program under test is driven through public functions only and is
//! not instrumented. See `README.md` for every metric's definition.

mod compare;
mod counts;
mod host;
mod inputs;
mod kernels;
mod matrix;
mod metrics;
mod report;
mod span;
mod stats;
mod stream;

use inputs::Workload;
use metrics::{Metrics, DRIVER_END_TO_END, PER_LAYER};
use report::{ResultSet, RunResult};
use span::Spans;
use std::fmt::Debug;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated this often in an untraced run; `setup_s` is the
/// median round.
const SETUP_ROUNDS: usize = 3;
/// Timed passes an untraced run makes at the least, however short
/// `--seconds` is.
pub const RUN_PASSES_MIN: usize = 3;
/// Pairs of untraced and spanned passes a traced run makes at the least.
pub const TRACED_PAIRS_MIN: usize = 2;
/// `--seconds` when not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Metrics,
    /// Transactions (or cases) one pass resolves.
    pub attempted: u64,
    /// One label per output that differs from what the harness knows it
    /// must be: a wrong commit/abort, a document an abort did not
    /// restore, a peer not quiescent, a WAL that is not its journal.
    pub failures: Vec<String>,
    /// One label per chaos case the oracle, the monitor or the
    /// conformance check rejected. Counted, never fatal: what a chaos
    /// case should do is not known beforehand, and some are known to fail.
    pub violations: Vec<String>,
    pub passes: u64,
    /// Free-form lines worth printing (digests, outcome counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Operations that failed a check, out of `attempted`.
    fn failed(&self) -> u64 {
        ((self.failures.len() + self.violations.len()) as u64).min(self.attempted)
    }
}

/// Repeats `pass` until `seconds` have gone by (at least `min_passes`
/// times) and returns each pass's wall time with the first pass's facts.
/// The simulator is seeded, so every pass must reproduce those facts bit
/// for bit; one that does not is an error, not a sample.
pub fn timed_passes<F: PartialEq + Debug>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<(f64, F), String>,
) -> Result<(Vec<f64>, F), String> {
    let start = Instant::now();
    let (wall, first) = pass()?;
    let mut walls = vec![wall];
    while walls.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let (wall, facts) = pass()?;
        if facts != first {
            return Err(format!("pass {} is not bit-identical to pass 0:\n{facts:?}\nvs\n{first:?}", walls.len()));
        }
        walls.push(wall);
    }
    Ok((walls, first))
}

/// Runs `round` [`SETUP_ROUNDS`] times; returns every round's wall time
/// and what the last round produced.
pub fn setup_rounds<T>(mut round: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut timed = |_| {
        let t = Instant::now();
        let out = round();
        (t.elapsed().as_secs_f64(), out)
    };
    let (mut walls, mut last) = (Vec::new(), timed(0));
    for i in 1..SETUP_ROUNDS {
        walls.push(last.0);
        last = timed(i);
    }
    walls.push(last.0);
    (walls, last.1)
}

/// Every pass's rate, in pass order: the samples behind `txn_per_s`.
pub fn rates_note(rates: &[f64]) -> String {
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    format!("pass rates 1/s: {}", list.join(" "))
}

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.command = first.to_string();
        it.next();
    }
    args.trace = args.command == "trace";
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            args.files.push(flag.clone());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            // 32 bits: the matrix multiplies the seed into a case-seed block.
            "--seed" => args.seed = value.parse::<u32>().map(u64::from).map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?,
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage:
  axml-benchmark [run|trace] --workload W [--seed N] [--seconds S] [--trace 0|1]
  axml-benchmark all [--seed N] [--seconds S] [--out FILE]
  axml-benchmark compare A.json B.json
workloads: commit-stream big-doc fault-matrix traced-matrix";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.command.as_str(), args.workload) {
        ("run" | "trace", Some(w)) => measure(w, &args),
        ("all", None) => all(&args),
        ("compare", None) if args.files.len() == 2 => compare::compare_files(&args.files[0], &args.files[1]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload, one process: measure, print, write the result file.
fn measure(w: Workload, args: &Args) -> Result<(), String> {
    let scratch = host::Scratch::create()?;
    let host_line = host::describe(&scratch);
    println!("host {host_line}");
    println!(
        "{} seed {} | message delay: LatencyModel uniform 1-5 ticks, seeded | service duration: 5 ticks | \
         WAL flush policy: flush every append, fsync at rotation (64 KiB segments)",
        w.name(),
        args.seed
    );
    let mut spans = Spans::enabled();
    let mut outcome = match (w, args.trace) {
        (Workload::CommitStream | Workload::BigDoc, false) => stream::run(w, args.seed, args.seconds),
        (Workload::CommitStream | Workload::BigDoc, true) => stream::trace(w, args.seed, args.seconds, &mut spans),
        (Workload::FaultMatrix | Workload::TracedMatrix, false) => matrix::run(w, args.seed, args.seconds),
        (Workload::FaultMatrix | Workload::TracedMatrix, true) => matrix::trace(w, args.seed, args.seconds, &mut spans),
    }?;
    drop(scratch);

    let failed = outcome.failed();
    let m = &mut outcome.metrics;
    m.set("failed_share", failed as f64 / outcome.attempted as f64);
    if !args.trace {
        m.set("peak_rss_mb", host::peak_rss_mb());
    }
    for note in &outcome.notes {
        println!("{} {note}", w.name());
    }
    for (name, metric) in &m.0 {
        let spread = if metric.n > 1 {
            format!("  (q1 {} q3 {} over {} samples)", metric.q1, metric.q3, metric.n)
        } else {
            String::new()
        };
        println!("{} {name} {} {}{spread}", w.name(), metric.value, metric.unit);
    }
    for f in outcome.failures.iter().chain(&outcome.violations) {
        println!("{} FAILED {f}", w.name());
    }

    let mode = if args.trace { "trace" } else { "run" };
    let result = RunResult {
        workload: w.name().to_string(),
        mode: mode.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        passes: outcome.passes,
        attempted: outcome.attempted,
        correct: outcome.failures.is_empty(),
        failed,
        failures: outcome.failures.iter().chain(&outcome.violations).cloned().collect(),
        notes: outcome.notes.clone(),
        host: host_line,
        metrics: m.0.clone(),
    };
    let out = host::out_dir()?;
    report::write(&out.join(format!("result-{mode}-{}.json", w.name())), &result.to_json())?;
    if args.trace {
        report::write(&out.join(format!("trace-{}.json", w.name())), &spans.to_json())?;
    }
    println!("{}", driver_line(&outcome, args.trace));
    Ok(())
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every end-to-end metric of
/// `BENCHMARK.json` on an untraced run and every per-layer one on a
/// traced run. Reaching this line means every pass was bit-identical and
/// every recomposed case matched the shipped path — anything else exits
/// non-zero before it. `correct` says every output the harness can
/// predict was as predicted; `failed` also counts the chaos cases the
/// oracle rejected.
fn driver_line(outcome: &Outcome, trace: bool) -> String {
    let names: Vec<&str> = if trace { PER_LAYER.iter().map(|m| m.0).collect() } else { DRIVER_END_TO_END.to_vec() };
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            // JSON has no NaN or infinity; a ratio over an empty base reads 0.
            let value = outcome.metrics.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", metrics::unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed(),
        metrics.join(", ")
    )
}

/// Every workload untraced, then traced, each in a process of its own
/// (so `VmHWM` is per workload), gathered into one result set.
fn all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = host::out_dir()?;
    let mut set = ResultSet { seed: args.seed, seconds: args.seconds, runs: Vec::new() };
    for mode in ["run", "trace"] {
        for w in Workload::ALL {
            let status = std::process::Command::new(&exe)
                .args([mode, "--workload", w.name()])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("cannot start {mode} {}: {e}", w.name()))?;
            if !status.success() {
                return Err(format!("{mode} {} exited with {status}", w.name()));
            }
            let path = out.join(format!("result-{mode}-{}.json", w.name()));
            set.runs.push(RunResult::from_json(&report::read(&path)?)?);
        }
    }
    let target = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => out.join(format!("set-seed{}.json", args.seed)),
    };
    report::write(&target, &set.to_json())?;
    println!("wrote {}", target.display());
    Ok(())
}
