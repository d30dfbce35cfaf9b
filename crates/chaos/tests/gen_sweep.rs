//! Properties of the generated scenario space.
//!
//! 1. The parallel runner stays invisible on generated matrices too:
//!    `gen:<seed>` scenarios resolve through `builder_for` inside the
//!    workers, so a nondeterministic generator (or a merge reorder)
//!    would show up here as a digest mismatch between `--jobs` values.
//! 2. Lint-cleanliness is by construction for the *whole* seed space,
//!    not just the dense prefix the unit test walks: sparse random
//!    seeds drawn from all of `u64` must generate scenarios that pass
//!    every analyzer rule.

use axml_chaos::{gen_scenario_names, sweep_jobs, GenScenario, Profile};
use proptest::prelude::*;

#[test]
fn generated_sweep_parallel_matches_serial() {
    let scenarios = gen_scenario_names(0, 12);
    let profiles = Profile::all().to_vec();

    let serial = sweep_jobs(&scenarios, &profiles, 0..2, true, 1);
    let parallel = sweep_jobs(&scenarios, &profiles, 0..2, true, 6);

    assert_eq!(serial.digest, parallel.digest);
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.committed, parallel.committed);
    assert_eq!(serial.aborted, parallel.aborted);
    assert_eq!(serial.snapshot, parallel.snapshot);
    assert_eq!(serial.histograms, parallel.histograms);
    assert_eq!(serial.findings, parallel.findings);
    assert_eq!(serial.violations.len(), parallel.violations.len());
    for (s, p) in serial.violations.iter().zip(parallel.violations.iter()) {
        assert_eq!(s.case.label(), p.case.label());
        assert_eq!(s.reason, p.reason);
        assert_eq!(s.reproducer, p.reproducer);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_seeds_generate_lint_clean_scenarios(seed in any::<u64>()) {
        let g = GenScenario::generate(seed);
        let report = axml_analysis::analyze_all(&g.builder());
        prop_assert!(
            report.is_clean(),
            "gen:{} not lint-clean:\n{}",
            seed,
            report.render_text()
        );
    }

    #[test]
    fn sparse_seeds_generate_byte_stable_specs(seed in any::<u64>()) {
        let a = GenScenario::generate(seed);
        let b = GenScenario::generate(seed);
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
