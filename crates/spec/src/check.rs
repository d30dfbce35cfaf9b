//! Bounded explicit-state model checking: BFS over every interleaving of
//! a small configuration, with canonical state hashing and shortest
//! counterexample extraction.
//!
//! The checker enumerates [`SpecConfig::successors`] from the initial
//! configuration, deduplicating states by their canonical key. Invariants
//! are checked in two places: per-transition (I2 — compensation order,
//! I3 — terminal frames are frozen) and at quiescent states (I1 —
//! atomicity and compensation completeness, I4 — every abort landed and
//! nobody is stuck). Because the exploration is breadth-first, the first
//! path reaching a violation is a *shortest* counterexample.

use crate::model::{Phase, SpecConfig, State};
use axml_trace::fnv64;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One invariant violation with its counterexample trace.
#[derive(Debug, Clone, Serialize)]
pub struct SpecViolation {
    /// Invariant id (`I1` … `I4`).
    pub invariant: &'static str,
    /// Transition rule active when the violation surfaced (`R01` … `R10`,
    /// or `quiescent` for final-state checks).
    pub rule: &'static str,
    /// What went wrong.
    pub detail: String,
    /// Shortest transition sequence from the initial configuration to the
    /// violation, one rendered step per entry.
    pub trace: Vec<String>,
}

/// The result of exploring one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct CheckReport {
    /// Configuration name.
    pub config: String,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions explored (edges of the state graph).
    pub transitions: usize,
    /// Quiescent (deadlock-free terminal) states found.
    pub quiescent: usize,
    /// True when the `max_states` bound stopped the exploration early.
    pub truncated: bool,
    /// Order-sensitive digest of the visited state keys: identical runs
    /// visit identical states in identical order.
    pub digest: u64,
    /// Invariant violations (first, shortest instance per invariant, plus
    /// a total count).
    pub violations: Vec<SpecViolation>,
    /// Total violating transitions/states seen (the `violations` list is
    /// deduplicated per invariant).
    pub violation_count: usize,
}

impl CheckReport {
    /// True when the exploration found no violation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering in the `diag.rs` style.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} states, {} transitions, {} quiescent{}, digest {:016x}",
            self.config,
            self.states,
            self.transitions,
            self.quiescent,
            if self.truncated { " (truncated)" } else { "" },
            self.digest,
        );
        for v in &self.violations {
            let _ = writeln!(out, "error [{}] at {}: {}", v.invariant, v.rule, v.detail);
            for (i, step) in v.trace.iter().enumerate() {
                let _ = writeln!(out, "  {:>2}. {step}", i + 1);
            }
        }
        let _ = writeln!(out, "{} violation(s)", self.violation_count);
        out
    }

    /// JSON rendering (one object per report).
    ///
    /// # Panics
    ///
    /// Only if JSON serialization fails, which cannot happen for the
    /// plain-data fields of a report.
    #[must_use]
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

/// Explores `cfg` up to `max_states` distinct states.
#[must_use]
pub fn check(cfg: &SpecConfig, max_states: usize) -> CheckReport {
    let init = cfg.initial();
    let init_key = init.key();
    // Canonical key → predecessor (key, rule, detail) for counterexample
    // reconstruction; the initial state has no predecessor.
    let mut parent: BTreeMap<String, (String, &'static str, String)> = BTreeMap::new();
    parent.insert(init_key.clone(), (String::new(), "init", String::new()));
    let mut queue: VecDeque<State> = VecDeque::from([init]);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    digest = fold(digest, &init_key);
    let mut states = 1usize;
    let mut transitions = 0usize;
    let mut quiescent = 0usize;
    let mut truncated = false;
    // First (shortest) violation per invariant id.
    let mut firsts: BTreeMap<&'static str, SpecViolation> = BTreeMap::new();
    let mut violation_count = 0usize;

    while let Some(s) = queue.pop_front() {
        let key = s.key();
        let steps = cfg.successors(&s);
        if steps.is_empty() {
            quiescent += 1;
            for (invariant, detail) in quiescent_violations(cfg, &s) {
                violation_count += 1;
                firsts.entry(invariant).or_insert_with(|| SpecViolation {
                    invariant,
                    rule: "quiescent",
                    detail,
                    trace: trace_to(&parent, &key),
                });
            }
            continue;
        }
        for step in steps {
            transitions += 1;
            // I3 — terminal frames are frozen: once a peer committed or
            // aborted, no transition may touch its frame again.
            let i3 = s.peers.iter().find_map(|(p, f)| {
                if f.phase.is_terminal() && step.next.peers[p] != *f {
                    Some(("I3", format!("AP{p} frame changed after it reached {} (rule {})", f.phase, step.rule)))
                } else {
                    None
                }
            });
            for (invariant, detail) in step.violation.iter().cloned().chain(i3) {
                violation_count += 1;
                firsts.entry(invariant).or_insert_with(|| {
                    let mut trace = trace_to(&parent, &key);
                    trace.push(format!("{} {}", step.rule, step.detail));
                    SpecViolation { invariant, rule: step.rule, detail, trace }
                });
            }
            let nkey = step.next.key();
            if parent.contains_key(&nkey) {
                continue;
            }
            if states >= max_states {
                truncated = true;
                continue;
            }
            parent.insert(nkey.clone(), (key.clone(), step.rule, step.detail));
            digest = fold(digest, &nkey);
            states += 1;
            queue.push_back(step.next);
        }
    }

    CheckReport {
        config: cfg.name.clone(),
        states,
        transitions,
        quiescent,
        truncated,
        digest,
        violations: firsts.into_values().collect(),
        violation_count,
    }
}

/// Runs the whole clean catalogue plus (optionally) the broken variant.
#[must_use]
pub fn check_catalogue(max_states: usize) -> Vec<CheckReport> {
    SpecConfig::catalogue().iter().map(|c| check(c, max_states)).collect()
}

/// Order-sensitive digest fold over canonical state keys.
fn fold(digest: u64, key: &str) -> u64 {
    digest.rotate_left(7) ^ fnv64(key.as_bytes())
}

/// Reconstructs the shortest transition sequence from the initial
/// configuration to `key`.
fn trace_to(parent: &BTreeMap<String, (String, &'static str, String)>, key: &str) -> Vec<String> {
    let mut steps = Vec::new();
    let mut cur = key.to_string();
    while let Some((prev, rule, detail)) = parent.get(&cur) {
        if *rule == "init" {
            break;
        }
        steps.push(format!("{rule} {detail}"));
        cur = prev.clone();
    }
    steps.reverse();
    steps
}

/// I1 + I4 over a quiescent state: every participant terminal, outcomes
/// consistent with the origin (modulo crash-induced churn), compensation
/// complete at aborted peers.
fn quiescent_violations(cfg: &SpecConfig, s: &State) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    debug_assert!(s.net.is_empty(), "quiescent state with undelivered messages");
    let origin = &s.peers[&cfg.origin];
    if !origin.phase.is_terminal() {
        out.push(("I4", format!("origin AP{} never resolved (phase {})", cfg.origin, origin.phase)));
        return out;
    }
    for (&p, f) in &s.peers {
        // I4 — every abort landed: nobody is left mid-protocol.
        if !matches!(f.phase, Phase::Idle | Phase::Committed | Phase::Aborted) {
            out.push(("I4", format!("AP{p} stuck in phase {} at quiescence", f.phase)));
            continue;
        }
        // I1 — compensation completeness at aborted peers.
        if f.phase == Phase::Aborted && f.undone != f.log {
            out.push(("I1", format!("AP{p} aborted with {} of {} log records undone", f.undone, f.log)));
        }
        if f.phase == Phase::Committed && f.undone != 0 {
            out.push(("I1", format!("AP{p} committed after undoing {} records", f.undone)));
        }
        if p == cfg.origin {
            continue;
        }
        // I1 — outcome agreement with the origin.
        match origin.phase {
            Phase::Committed => match f.phase {
                Phase::Committed => {}
                // Under churn the presumed-abort recovery of a crashed
                // peer legitimately aborts its subtree while the origin
                // commits (the chaos oracle's churn excuse). The abort
                // may only flow *down from the crash point*: an aborted
                // or idle peer must be the crash victim or sit under an
                // aborted parent.
                Phase::Aborted | Phase::Idle => {
                    let parent_aborted = cfg.parent(p).is_some_and(|q| matches!(s.peers[&q].phase, Phase::Aborted));
                    if !(f.crashed || parent_aborted) {
                        out.push((
                            "I1",
                            format!(
                                "atomicity broken: origin committed but AP{p} is {} with no crash or aborted parent to excuse it",
                                f.phase
                            ),
                        ));
                    }
                }
                _ => unreachable!("non-terminal phases handled above"),
            },
            Phase::Aborted => {
                if f.phase == Phase::Committed {
                    out.push(("I1", format!("atomicity broken: origin aborted but AP{p} committed")));
                }
            }
            _ => unreachable!("origin is terminal here"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_catalogue_has_no_violations() {
        for report in check_catalogue(200_000) {
            assert!(!report.truncated, "{} truncated at {} states", report.config, report.states);
            assert!(report.is_clean(), "{}", report.render_text());
            assert!(report.quiescent > 0, "{} found no quiescent state", report.config);
        }
    }

    #[test]
    fn broken_variant_is_refuted_with_a_counterexample() {
        let report = check(&SpecConfig::broken_variant(), 200_000);
        assert!(!report.is_clean());
        let v = report.violations.iter().find(|v| v.invariant == "I2").expect("I2 violation");
        assert_eq!(v.rule, "R08");
        // The counterexample is a concrete shortest trace ending in the
        // out-of-order undo.
        assert!(!v.trace.is_empty());
        assert!(v.trace.last().expect("non-empty").starts_with("R08"), "{:?}", v.trace);
        assert!(v.detail.contains("strictly decreasing"), "{}", v.detail);
        // Only the order invariant breaks: atomicity itself still holds
        // in the broken variant (the records are undone, just wrongly).
        assert!(report.violations.iter().all(|v| v.invariant == "I2"), "{}", report.render_text());
    }

    #[test]
    fn lost_commits_nobody_pulls_back_leave_a_done_peer_at_quiescence() {
        let (cfg, invariant) = SpecConfig::broken_variants().pop().expect("the lost-commit variant");
        assert_eq!(invariant, "I4");
        let report = check(&cfg, 200_000);
        let v = report.violations.iter().find(|v| v.invariant == "I4").expect("I4 violation");
        assert_eq!(v.rule, "quiescent");
        assert!(v.detail.contains("stuck in phase done"), "{}", v.detail);
        assert!(v.trace.iter().any(|step| step.starts_with("R11")), "{:?}", v.trace);
        assert!(report.violations.iter().all(|v| v.invariant == "I4"), "{}", report.render_text());
        // With R12 the same losses end decided, in states R11 alone never
        // reaches.
        let pulled = SpecConfig::by_name("fig1-frag-lose-commit").expect("catalogue config");
        let clean = check(&pulled, 200_000);
        assert!(clean.is_clean(), "{}", clean.render_text());
        assert!(clean.states > report.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        for cfg in SpecConfig::catalogue() {
            let a = check(&cfg, 200_000);
            let b = check(&cfg, 200_000);
            assert_eq!(a.states, b.states, "{}", cfg.name);
            assert_eq!(a.digest, b.digest, "{}", cfg.name);
            assert_eq!(a.transitions, b.transitions, "{}", cfg.name);
        }
    }

    #[test]
    fn truncation_is_reported() {
        let cfg = SpecConfig::by_name("fig1-frag").expect("catalogue config");
        let report = check(&cfg, 10);
        assert!(report.truncated);
        assert_eq!(report.states, 10);
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = check(&SpecConfig::broken_variant(), 200_000);
        let text = report.render_text();
        assert!(text.contains("error [I2]"), "{text}");
        assert!(text.contains("violation(s)"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"invariant\":\"I2\""), "{json}");
    }
}
