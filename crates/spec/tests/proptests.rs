//! Property-based tests for the reference model.
//!
//! - Bounded exploration is deterministic: the same configuration yields
//!   the same visited-state count and digest on every run, at any bound.
//! - Conformance verdicts on recorded fig1/fig2 journals are byte-stable
//!   across independent scenario re-runs and journal round-trips.

#![forbid(unsafe_code)]

use axml_core::scenarios::ScenarioBuilder;
use axml_spec::model::SpecConfig;
use axml_spec::{check, check_journal};
use axml_trace::TraceJournal;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exploration_is_deterministic(idx in 0usize..15, max_states in 16usize..4096) {
        let mut configs = SpecConfig::catalogue();
        configs.extend(SpecConfig::broken_variants().into_iter().map(|(c, _)| c));
        let cfg = configs[idx % configs.len()].clone();
        let a = check(&cfg, max_states);
        let b = check(&cfg, max_states);
        prop_assert_eq!(a.states, b.states);
        prop_assert_eq!(a.transitions, b.transitions);
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.truncated, b.truncated);
        prop_assert_eq!(a.violation_count, b.violation_count);
        prop_assert_eq!(a.render_json(), b.render_json());
        // A looser bound explores a superset of a tighter one.
        let wide = check(&cfg, max_states * 4);
        prop_assert!(wide.states >= a.states);
    }
}

/// Runs a shipped figure scenario with tracing on and returns the
/// journal as JSON lines.
fn recorded_journal(fig2: bool) -> String {
    let b = if fig2 { ScenarioBuilder::fig2() } else { ScenarioBuilder::fig1() };
    let mut s = b.traced().build();
    s.run();
    s.trace().expect("traced run").to_json_lines()
}

#[test]
fn conformance_on_recorded_figures_is_byte_stable() {
    for fig2 in [false, true] {
        let name = if fig2 { "fig2" } else { "fig1" };
        let lines_a = recorded_journal(fig2);
        let lines_b = recorded_journal(fig2);
        assert_eq!(lines_a, lines_b, "{name}: traced re-runs must journal identically");
        let journal = TraceJournal::from_json_lines(&lines_a).expect("journal parses");
        let verdict_a = check_journal(&journal);
        assert!(verdict_a.is_clean(), "{name}: {}", verdict_a.render_text());
        assert!(verdict_a.events > 0);
        // Byte-stable verdict across a journal round-trip and a re-check.
        let reparsed = TraceJournal::from_json_lines(&lines_b).expect("journal parses");
        let verdict_b = check_journal(&reparsed);
        assert_eq!(verdict_a.render_json(), verdict_b.render_json(), "{name}");
        assert_eq!(verdict_a.render_text(), verdict_b.render_text(), "{name}");
    }
}

#[test]
fn conformance_on_recorded_abort_is_byte_stable() {
    // The abort path exercises compensation + abort propagation: the
    // conformance verdict must stay clean and byte-stable there too.
    let run = || {
        let mut b = ScenarioBuilder::fig1().fault_at(2).traced();
        b.seed = 7;
        let mut s = b.build();
        s.run();
        let j = s.trace().expect("traced run");
        (j.to_json_lines(), check_journal(j).render_json())
    };
    let (lines_a, verdict_a) = run();
    let (lines_b, verdict_b) = run();
    assert_eq!(lines_a, lines_b);
    assert_eq!(verdict_a, verdict_b);
    assert!(verdict_a.contains("\"divergences\":[]"), "{verdict_a}");
}
