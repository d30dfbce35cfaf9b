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
//! 3. Backward-only recovery (ablation D3) keeps the guarantee: every
//!    generated scenario, run once under its own disconnect and crash
//!    schedule with `RecoveryStyle::BackwardOnly`, passes the oracle.

use axml_chaos::{
    attach_wal_sinks, check_atomicity, gen_scenario_names, open_contexts, sweep_jobs, GenScenario, Profile,
};
use axml_core::peer::RecoveryStyle;
use axml_obs::Monitor;
use axml_p2p::StorageFaultPlane;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

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

#[test]
fn backward_only_recovery_passes_the_oracle_on_every_generated_scenario() {
    let mut failures = Vec::new();
    for seed in 0..64 {
        let mut b = GenScenario::generate(seed).builder();
        b.config.recovery = RecoveryStyle::BackwardOnly;
        let crashes = !b.fault.crashes.is_empty();
        let mut s = b.build();
        if crashes {
            attach_wal_sinks(&mut s, &StorageFaultPlane::default(), seed);
        }
        let monitor = Rc::new(RefCell::new(Monitor::new()));
        s.sim.attach_observer(monitor.clone());
        let report = s.run();
        let verdict = check_atomicity(&s, &report);
        if !verdict.ok {
            failures.push(format!("gen:{seed}: {}", verdict.reason));
        }
        for f in monitor.borrow_mut().finish() {
            failures.push(format!("gen:{seed}: online monitor: {f}"));
        }
        for open in open_contexts(&s).1 {
            failures.push(format!("gen:{seed}: {open}, unexcused"));
        }
    }
    assert!(failures.is_empty(), "{} failure(s):\n{}", failures.len(), failures.join("\n"));
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
