//! A violation's flight dump is protocol history, traced or not.
//!
//! The window sampler of a traced run used to reach the flight recorder
//! as events: its per-peer rings filled up with gauge readings and
//! dropped the protocol events a violation is diagnosed from, and a
//! traced replay dumped other context than the untraced run it replays.
//! Samples now go to the journal alone, so both runs dump the same text.

use axml_chaos::{builder_for, case_matrix, par_map, plane_for, run_with_plane, run_with_plane_traced, Profile};

#[test]
fn a_traced_run_dumps_the_flight_an_untraced_run_dumps() {
    let scenarios: Vec<String> =
        ["fig1", "fig2", "fig1-abort", "deep", "fig1-crash", "gen:0", "gen:3"].iter().map(|s| s.to_string()).collect();
    // Dedup off: duplicated deliveries get processed twice, so many
    // cases violate and dump.
    let cases = case_matrix(&scenarios, Profile::all(), 0..16, false);
    let dumps = par_map(&cases, 2, |_, case| {
        let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
        let untraced = run_with_plane(case, plane.clone()).flight;
        let (traced, dump) = run_with_plane_traced(case, plane);
        assert!(!dump.journal.samples().is_empty(), "{}: the traced run samples gauges", case.label());
        assert_eq!(traced.flight, untraced, "{}", case.label());
        untraced.is_some()
    });
    assert_eq!(dumps.iter().filter(|&&dumped| dumped).count(), 348, "violating cases, each with a dump");
}
