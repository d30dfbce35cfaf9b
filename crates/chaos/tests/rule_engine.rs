//! The online monitor and spec conformance on a real violating journal:
//! `gen:0` under duplication with dedup off, the unscripted run behind
//! `corpus/gen-0-dups-0.json`. Both checkers run the one rule engine
//! (`axml_trace::rules`), so they must flag the same events, in journal
//! order, each under its own name.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, Profile};
use axml_obs::Monitor;
use axml_spec::check_journal;

const FINDINGS: [&str; 5] = [
    "M003 [t=10 AP6 T1.0] reliable delivery (AP3, id=1) processed more than once at AP6",
    "M003 [t=10 AP9 T1.0] reliable delivery (AP5, id=1) processed more than once at AP9",
    "M003 [t=11 AP4 T1.0] reliable delivery (AP2, id=0) processed more than once at AP4",
    "M003 [t=14 AP7 T1.0] reliable delivery (AP3, id=2) processed more than once at AP7",
    "M003 [t=17 AP5 T1.0] reliable delivery (AP8, id=0) processed more than once at AP5",
];

#[test]
fn monitor_and_conformance_flag_the_same_repeated_deliveries() {
    let mut case = CaseConfig::new("gen:0", Profile::Dups, 0);
    case.dedup = false;
    let peers = builder_for("gen:0").expect("generated scenario").peers();
    let (result, dump) = run_with_plane_traced(&case, plane_for(Profile::Dups, 0, &peers));

    let findings = Monitor::replay(&dump.journal);
    let lines: Vec<String> = findings.iter().map(ToString::to_string).collect();
    let expected: Vec<String> = FINDINGS
        .iter()
        .map(|f| format!("{f}: repeated ack-send with no dedup-suppress and the transaction still live"))
        .collect();
    assert_eq!(lines, expected);
    // The monitor that rode the run online saw the same, in the same order.
    assert_eq!(result.findings, findings);

    let conformance = check_journal(&dump.journal);
    let divergences: Vec<_> = conformance.divergences.iter().map(|d| (d.invariant, d.rule, d.seq, d.peer)).collect();
    let from_monitor: Vec<_> = findings.iter().map(|f| ("I5", "delivery", f.seq, f.peer)).collect();
    assert_eq!(divergences, from_monitor);
}
