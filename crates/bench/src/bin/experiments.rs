//! Regenerates every experiment table (DESIGN.md §5 / EXPERIMENTS.md).
//!
//! ```text
//! experiments [all | e1 … e8 | e11]...
//! ```
//!
//! Prints the named experiments' tables (all of them when none is named)
//! in E1–E8, E11 order. The output is deterministic: EXPERIMENTS.md's raw
//! tables are this output, held to it by `tests/raw_tables.rs`.

#![forbid(unsafe_code)]

use axml_bench::{render, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    if let Some(bad) = args.iter().find(|a| *a != "all" && !names.contains(&a.as_str())) {
        eprintln!("unknown experiment {bad}; expected `all` or some of: {}", names.join(" "));
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let wanted: Vec<&str> = if all { names } else { args.iter().map(String::as_str).collect() };
    print!("{}", render(&wanted));
}
