//! EXPERIMENTS.md's raw E1–E8 and E11 tables are what `experiments` prints.
//!
//! The block runs from the first table after `## Raw tables` up to the
//! `== E12` heading. A change that moves a number rewrites the block with
//!
//! ```text
//! AXML_BLESS_GOLDEN=1 cargo test -p axml-bench --test raw_tables
//! ```
//!
//! and then re-checks every row of the claim map above it against the
//! new tables.

use axml_bench::{render, EXPERIMENTS};
use std::path::Path;

#[test]
fn experiments_md_raw_tables_are_the_printed_tables() {
    const OPEN: &str = "## Raw tables\n\n```text\n";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).expect("EXPERIMENTS.md is checked in");
    let start = text.find(OPEN).expect("a raw-tables block") + OPEN.len();
    let end = start + text[start..].find("== E12").expect("the E12 block follows E11");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let printed = render(&names);
    if std::env::var_os("AXML_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, format!("{}{printed}{}", &text[..start], &text[end..])).expect("writable");
        return;
    }
    let on_disk = &text[start..end];
    let first_diff = on_disk.lines().zip(printed.lines()).position(|(a, b)| a != b).map(|i| i + 1);
    assert!(
        on_disk == printed,
        "EXPERIMENTS.md's raw tables drifted from `experiments` (first differing line of the block: {first_diff:?})"
    );
}
