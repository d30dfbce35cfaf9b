//! Property: the parallel sweep runner is invisible in the output.
//!
//! For random small fault matrices (any subset of scenarios and
//! profiles, any small seed range, dedup on or off), `--jobs 8` must
//! produce exactly the same sweep digest, merged snapshot, merged
//! histograms, monitor findings, and violation set as the serial run.
//! Workers complete in nondeterministic order; the fold in canonical case
//! order is what makes that invisible, and this test is the regression
//! tripwire for anyone reordering the merge.

use axml_chaos::{builder_for, case_matrix, plane_for, run_with_plane_traced, sweep_jobs, Profile, SCENARIOS};
use axml_obs::{render_prometheus, Histogram, ProfileReport};
use axml_p2p::fnv64;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The traced 100-case matrix (every scenario × every profile × seeds
/// 0..4) renders one observability plane: the exposition of every case's
/// phase histograms (the profiler over its journal, merged bucket-wise)
/// followed by the sweep's gauge-series JSON, which is the same at any
/// job count. Its digest is a cross-commit pin; a change of protocol
/// behaviour moves it on purpose and says so in CHANGES.md.
#[test]
fn traced_matrix_observability_plane_is_jobs_invariant_and_pinned() {
    let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    let serial = sweep_jobs(&scenarios, Profile::all(), 0..4, true, 1);
    let parallel = sweep_jobs(&scenarios, Profile::all(), 0..4, true, 4);
    assert_eq!(serial.runs, 100);
    assert_eq!(serial.series.to_json(), parallel.series.to_json());
    let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
    for case in case_matrix(&scenarios, Profile::all(), 0..4, true) {
        let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
        let (_, dump) = run_with_plane_traced(&case, plane);
        for (name, h) in ProfileReport::from_journal(&dump.journal).phase_histograms() {
            phases.entry(name).or_default().merge(&h);
        }
    }
    assert!(phases.get("txn_total").is_some_and(|h| h.count() > 0), "the profiler derives transaction totals");
    let plane = render_prometheus(&phases) + &parallel.series.to_json();
    assert_eq!(format!("{:016x}", fnv64(plane.as_bytes())), "b6c62897932c0153");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_sweep_matches_serial_for_random_matrices(
        scenario_mask in 1u64..16,
        profile_mask in 1u64..16,
        seeds in 1u64..4,
        dedup in proptest::bool::ANY,
    ) {
        let scenarios: Vec<String> = SCENARIOS
            .iter()
            .enumerate()
            .filter(|(i, _)| scenario_mask & (1 << i) != 0)
            .map(|(_, s)| s.to_string())
            .collect();
        let profiles: Vec<Profile> = Profile::all()
            .iter()
            .enumerate()
            .filter(|(i, _)| profile_mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();

        let serial = sweep_jobs(&scenarios, &profiles, 0..seeds, dedup, 1);
        let parallel = sweep_jobs(&scenarios, &profiles, 0..seeds, dedup, 8);

        prop_assert_eq!(serial.digest, parallel.digest);
        prop_assert_eq!(serial.runs, parallel.runs);
        prop_assert_eq!(serial.committed, parallel.committed);
        prop_assert_eq!(serial.aborted, parallel.aborted);
        prop_assert_eq!(&serial.snapshot, &parallel.snapshot);
        prop_assert_eq!(serial.snapshot.render(), parallel.snapshot.render());
        prop_assert_eq!(&serial.histograms, &parallel.histograms);
        prop_assert_eq!(&serial.findings, &parallel.findings);
        prop_assert_eq!(serial.violations.len(), parallel.violations.len());
        for (s, p) in serial.violations.iter().zip(parallel.violations.iter()) {
            prop_assert_eq!(s.case.label(), p.case.label());
            prop_assert_eq!(&s.reason, &p.reason);
            prop_assert_eq!(&s.reproducer, &p.reproducer);
        }
    }
}
