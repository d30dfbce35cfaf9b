//! Every participant crash-restarted at every tick before 80, one window
//! each, with every participant logging to an in-memory WAL: the
//! restarted peer rebuilds its contexts from its segments alone. Each
//! window must resolve, pass the atomicity check and leave no connected
//! peer holding an undecided context (`walk/mod.rs`, the harness the
//! offline walk of `tests/reconnect.rs` shares).
//!
//! Fig. 1, Fig. 2 and the chain AP1 → AP2 → AP3 make 1,200 windows, about
//! 1.3 s in a debug build on two cores. The generated scenarios `gen:0`
//! to `gen:15` make 9,920, about 3 s in release; their test is ignored
//! in a debug build and run by CI in release.

mod walk;

use axml::prelude::*;
use axml_chaos::builder_for;
use walk::{Away, Walk};

/// Crash windows at t < 80 over the named chaos scenario.
fn crash_walk(name: &str) -> Walk {
    let mut walk = Walk::default();
    walk.every_window(name, &builder_for(name).expect("known scenario"), 0..80, &[Away::Crash]);
    walk
}

#[test]
fn every_crash_window_over_fig1_is_clean() {
    crash_walk("fig1").assert_clean(6 * 80);
}

#[test]
fn every_crash_window_over_fig2_is_clean() {
    crash_walk("fig2").assert_clean(6 * 80);
}

#[test]
fn every_crash_window_over_the_chain_is_clean() {
    let mut walk = Walk::default();
    walk.every_window("chain", &ScenarioBuilder::new(1, &[(1, 2), (2, 3)]), 0..80, &[Away::Crash]);
    walk.assert_clean(3 * 80);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "9,920 windows: run in release")]
fn every_crash_window_over_the_first_sixteen_generated_scenarios_is_clean() {
    let mut walk = Walk::default();
    for seed in 0..16 {
        let name = format!("gen:{seed}");
        walk.every_window(&name, &builder_for(&name).expect("generated scenario"), 0..80, &[Away::Crash]);
    }
    walk.assert_clean(9_920);
}

/// The simulator kills every timer set before a crash-restart, the
/// harness's submit timer too: before the scenario set it after the
/// restart, an origin crashed at its submit time never submitted, and
/// each of these windows was unresolved.
#[test]
fn an_origin_crashed_at_its_submit_time_submits_after_the_restart() {
    let mut walk = Walk::default();
    for name in ["fig1", "fig2"] {
        walk.window(name, builder_for(name).expect("known scenario"), 1, 0, Away::Crash);
    }
    walk.assert_clean(2);
    let mut builder = ScenarioBuilder::fig1().with_seed(3);
    builder.submit_at = 5;
    let mut walk = Walk::default();
    for at in [0, 3, 5] {
        walk.window("fig1 submit_at=5", builder.clone(), 1, at, Away::Crash);
    }
    walk.assert_clean(3);
}
