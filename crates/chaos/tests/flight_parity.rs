//! A violation's flight dump is cut from the traced run's journal, so
//! tracing must not change the run it dumps.
//!
//! Every dump the harness writes comes from a traced run: a sweep cell,
//! a shrunk reproducer or a corpus replay. Each case here runs traced and
//! untraced and the two must land on the same verdict and digest; every
//! violating case's journal then renders a dump of protocol history only
//! (the journal keeps gauge samples in a column of their own).

use axml_chaos::{builder_for, case_matrix, par_map, plane_for, run_with_plane, run_with_plane_traced, Profile};

#[test]
fn a_traced_run_dumps_the_flight_of_the_run_an_untraced_one_makes() {
    let scenarios: Vec<String> =
        ["fig1", "fig2", "fig1-abort", "deep", "fig1-crash", "gen:0", "gen:3"].iter().map(|s| s.to_string()).collect();
    // Dedup off: duplicated deliveries get processed twice, so many
    // cases violate and dump.
    let cases = case_matrix(&scenarios, Profile::all(), 0..16, false);
    let dumps = par_map(&cases, 2, |_, case| {
        let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
        let untraced = run_with_plane(case, plane.clone());
        let (traced, dump) = run_with_plane_traced(case, plane);
        assert!(!dump.journal.samples().is_empty(), "{}: the traced run samples gauges", case.label());
        assert_eq!(traced.verdict.ok, untraced.verdict.ok, "{}", case.label());
        assert_eq!(traced.digest, untraced.digest, "{}", case.label());
        if traced.verdict.ok {
            return false;
        }
        let flight = dump.flight();
        assert!(flight.starts_with("flight recorder: last <=64 events per peer ("), "{}: {flight}", case.label());
        assert!(flight.contains("\n-- AP"), "{}: {flight}", case.label());
        assert!(!flight.contains("gauge"), "{}: protocol history only", case.label());
        true
    });
    assert_eq!(dumps.iter().filter(|&&dumped| dumped).count(), 348, "violating cases, each with a dump");
}
