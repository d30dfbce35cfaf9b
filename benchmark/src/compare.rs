//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! judged by the bound the catalogue fixes for it.

use crate::inputs::Workload;
use crate::metrics::{EndToEnd, Metric, END_TO_END};
use crate::report::{self, ResultSet, RunResult};
use std::path::Path;

/// How the second set's reading stands against the first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, same value.
    Equal,
    /// Exact metric, another value: the protocol changed (or broke).
    Different,
    /// Within the bound either way.
    Unchanged,
    /// Within the bound, but both sets spread wider than the bound: the
    /// runs cannot tell.
    Unresolved,
    Better,
    Worse,
    /// Exact metric of sets measured on different seeds.
    SeedsDiffer,
    /// Reported by one set only.
    Missing,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::Different | Verdict::Worse | Verdict::Missing)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Different => "DIFFERENT",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::SeedsDiffer => "n/a (seeds differ)",
            Verdict::Missing => "MISSING",
        }
    }
}

pub fn judge(def: &EndToEnd, a: &Metric, b: &Metric, same_seed: bool) -> Verdict {
    if def.exact {
        return match (same_seed, a.value == b.value) {
            (false, _) => Verdict::SeedsDiffer,
            (true, true) => Verdict::Equal,
            (true, false) => Verdict::Different,
        };
    }
    let worse_by = if def.higher_is_better { a.value - b.value } else { b.value - a.value };
    let allowed = (def.bound * a.value.abs()).max(def.abs_floor);
    if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else if a.q3 - a.q1 > allowed && b.q3 - b.q1 > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn untraced(set: &ResultSet, w: Workload) -> Option<&RunResult> {
    set.runs.iter().find(|r| r.mode == "run" && r.workload == w.name())
}

fn cell(m: &Metric) -> String {
    format!("{:.6} [{:.6} {:.6}] n={}", m.value, m.q1, m.q3, m.n)
}

/// Prints the table; an error when any row fails.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    let mut failed = 0;
    println!("workload metric | first: median [q1 q3] n | second: median [q1 q3] n | may worsen by | verdict");
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (untraced(a, w), untraced(b, w)) else {
            println!("{} - | - | - | - | MISSING", w.name());
            failed += 1;
            continue;
        };
        let same_seed = ra.seed == rb.seed;
        println!("{} passes | {} | {} | - | -", w.name(), ra.passes, rb.passes);
        for def in &END_TO_END {
            let verdict = match (ra.metrics.get(def.name), rb.metrics.get(def.name)) {
                (None, None) => continue, // not defined on this workload
                (Some(ma), Some(mb)) => {
                    let v = judge(def, ma, mb, same_seed);
                    let bound = match (def.exact, def.abs_floor > 0.0) {
                        (true, _) => "0".to_string(),
                        (false, true) => format!("{}% or {} {}", def.bound * 100.0, def.abs_floor, def.unit),
                        (false, false) => format!("{}%", def.bound * 100.0),
                    };
                    println!("{} {} | {} | {} | {bound} | {}", w.name(), def.name, cell(ma), cell(mb), v.label());
                    v
                }
                _ => {
                    println!("{} {} | - | - | - | MISSING", w.name(), def.name);
                    Verdict::Missing
                }
            };
            failed += usize::from(verdict.fails());
        }
    }
    if failed == 0 {
        println!("the two sets agree within the benchmark's bounds");
        Ok(())
    } else {
        Err(format!("{failed} row(s) outside the benchmark's bounds"))
    }
}

pub fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let load = |p: &str| ResultSet::from_json(&report::read(Path::new(p))?);
    compare(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, q1: f64, q3: f64) -> Metric {
        Metric { value, unit: "x".to_string(), q1, q3, n: 10 }
    }

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|d| d.name == name).expect("catalogued")
    }

    #[test]
    fn exact_metrics_must_be_equal_on_the_same_seed() {
        let d = def("commit_ticks_p99");
        assert_eq!(judge(d, &m(88.0, 88.0, 88.0), &m(88.0, 88.0, 88.0), true), Verdict::Equal);
        assert_eq!(judge(d, &m(88.0, 88.0, 88.0), &m(87.0, 87.0, 87.0), true), Verdict::Different);
        assert_eq!(judge(d, &m(88.0, 88.0, 88.0), &m(87.0, 87.0, 87.0), false), Verdict::SeedsDiffer);
    }

    #[test]
    fn a_rate_may_drop_by_its_bound_and_no_more() {
        let d = def("txn_per_s");
        let a = m(1000.0, 995.0, 1005.0);
        assert_eq!(judge(d, &a, &m(930.0, 925.0, 935.0), true), Verdict::Unchanged);
        assert_eq!(judge(d, &a, &m(910.0, 905.0, 915.0), true), Verdict::Worse);
        assert_eq!(judge(d, &a, &m(1100.0, 1095.0, 1105.0), true), Verdict::Better);
    }

    #[test]
    fn wide_spreads_on_both_sides_are_unresolved_not_unchanged() {
        let d = def("txn_per_s");
        let wide_a = m(1000.0, 940.0, 1060.0);
        let wide_b = m(990.0, 930.0, 1050.0);
        assert_eq!(judge(d, &wide_a, &wide_b, true), Verdict::Unresolved);
        assert_eq!(judge(d, &wide_a, &m(990.0, 985.0, 995.0), true), Verdict::Unchanged, "one tight side resolves it");
        assert_eq!(judge(d, &wide_a, &m(800.0, 700.0, 900.0), true), Verdict::Worse, "a drop past the bound stays one");
    }

    #[test]
    fn absolute_floors_forgive_small_differences() {
        let setup = def("setup_s");
        assert_eq!(judge(setup, &m(0.10, 0.10, 0.10), &m(0.25, 0.25, 0.25), true), Verdict::Unchanged, "under 0.2 s");
        assert_eq!(judge(setup, &m(0.10, 0.10, 0.10), &m(0.35, 0.35, 0.35), true), Verdict::Worse);
        let rss = def("peak_rss_mb");
        assert_eq!(judge(rss, &m(20.0, 20.0, 20.0), &m(23.5, 23.5, 23.5), true), Verdict::Unchanged, "under 4 MB");
        assert_eq!(judge(rss, &m(100.0, 100.0, 100.0), &m(111.0, 111.0, 111.0), true), Verdict::Worse);
    }
}
