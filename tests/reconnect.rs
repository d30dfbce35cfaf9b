//! A participant goes offline for a few ticks and comes back. The
//! simulator drops every timer that comes due on an offline peer, so the
//! reconnect must decide, for each kind of timer, what becomes of the ones
//! it lost — a service's completion and a handler's retry included, or the
//! participant serves forever and the transaction never resolves.
//!
//! Walks offline windows over a pair and a fork: every start in 0..40,
//! every length in {1, 2, 3, 5, 8}, every service duration in {1, 3, 10},
//! 1,800 windows in all. Each must resolve, pass the atomicity check and
//! leave no participant holding an undecided context (`walk/mod.rs`, the
//! harness the crash walk shares).
//!
//! Then walks every non-super participant of Fig. 1, Fig. 2, the chain
//! AP1 → AP2 → AP3 and the generated scenarios `gen:0` to `gen:15`
//! offline at every start t < 80 for {1, 2, 3, 5, 8, 13} ticks: 6,720
//! windows over the named scenarios, one test each, and 43,200 over the
//! generated ones, two tests of eight seeds that are ignored in a debug
//! build and run by CI in release. Not all of them pass yet.
//! `walk/offline.ledger` lists each failing window with its class, and a
//! test fails on a failing window the ledger does not list and on a listed
//! window that passes: a fix deletes the lines of the windows it mends. A
//! super peer is not walked offline: the simulator ignores its disconnect,
//! so the window is the undisturbed run, as
//! `a_super_peer_offline_is_the_undisturbed_run` checks.
//!
//! On two cores the three named walks take 26 s one after another in a
//! debug build, 16 s as `cargo test` runs them in parallel, and 2.8 s one
//! after another in release; the two generated walks take 45 s one after
//! the other in release, 30 s in parallel.
//!
//! The origin itself away when its submit comes due is the harness's to
//! handle: the submit timer is set from outside, so the peer's reconnect
//! does not know it; the scenario submits at the origin's return instead.

mod walk;

use axml::prelude::*;
use axml_chaos::{builder_for, doc_state_digest};
use walk::{Away, Walk};

/// The failing offline windows of the walked scenarios, one a line.
const LEDGER: &str = include_str!("walk/offline.ledger");

/// The offline lengths each participant of a walked scenario is walked with.
const LENGTHS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Every non-super participant of each of `labels`' scenarios offline at
/// every t < 80 for each of [`LENGTHS`], `expected_windows` in all, held to
/// the ledger's lines for `labels`.
fn assert_offline_ledger(labels: &[&str], expected_windows: usize) {
    let mut walk = Walk::default();
    for &label in labels {
        let builder = match label {
            "chain" => ScenarioBuilder::new(1, &[(1, 2), (2, 3)]),
            name => builder_for(name).expect("known scenario"),
        };
        walk.every_window(label, &builder, 0..80, &LENGTHS.map(Away::Offline));
    }
    walk.assert_ledger(labels, expected_windows, LEDGER);
}

#[test]
fn every_offline_window_over_fig1_is_in_the_ledger_or_passes() {
    assert_offline_ledger(&["fig1"], 6 * 480);
}

#[test]
fn every_offline_window_over_fig2_is_in_the_ledger_or_passes() {
    assert_offline_ledger(&["fig2"], 5 * 480);
}

#[test]
fn every_offline_window_over_the_chain_is_in_the_ledger_or_passes() {
    assert_offline_ledger(&["chain"], 3 * 480);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "23,520 windows: run in release")]
fn every_offline_window_over_gen_0_to_7_is_in_the_ledger_or_passes() {
    assert_offline_ledger(&["gen:0", "gen:1", "gen:2", "gen:3", "gen:4", "gen:5", "gen:6", "gen:7"], 23_520);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "19,680 windows: run in release")]
fn every_offline_window_over_gen_8_to_15_is_in_the_ledger_or_passes() {
    assert_offline_ledger(&["gen:8", "gen:9", "gen:10", "gen:11", "gen:12", "gen:13", "gen:14", "gen:15"], 19_680);
}

/// The simulator drops a super peer's disconnect ("trusted peers which do
/// not disconnect"), so a window with one offline is the undisturbed run:
/// the same outcome at the same time, the same messages by kind and the
/// same documents. The walks above therefore run no such window.
#[test]
fn a_super_peer_offline_is_the_undisturbed_run() {
    let builder = builder_for("fig2").expect("known scenario");
    assert_eq!(builder.supers, [1], "AP1 is Fig. 2's super peer");
    // A builder refuses to disconnect a super peer, so the window is
    // scheduled on the built simulator, which drops it.
    let observe = |away: Option<(u64, u64)>| {
        let mut scenario = builder.clone().build();
        if let Some((at, back)) = away {
            scenario.sim.schedule_disconnect(at, PeerId(1));
            scenario.sim.schedule_reconnect(back, PeerId(1));
        }
        let report = scenario.run();
        (report.outcome, report.metrics.by_kind, doc_state_digest(&scenario))
    };
    let undisturbed = observe(None);
    assert!(undisturbed.0.as_ref().is_some_and(|o| o.committed));
    let mut windows = 0;
    for at in 0..80 {
        for len in LENGTHS {
            let away = observe(Some((at, at + len)));
            assert_eq!(away, undisturbed, "AP1 offline {at}..{}", at + len);
            windows += 1;
        }
    }
    assert_eq!(windows, 480);
}

/// Every window over `edges` with one of `offline` away.
fn walk(edges: &[(u32, u32)], offline: &[u32]) -> Walk {
    let mut walk = Walk::default();
    for &peer in offline {
        for duration in [1, 3, 10] {
            let mut builder = ScenarioBuilder::new(1, edges);
            for &(_, child) in edges {
                builder = builder.duration(child, duration);
            }
            let label = format!("{edges:?} d={duration}");
            for at in 0..40 {
                for len in [1, 2, 3, 5, 8] {
                    walk.window(&label, builder.clone(), peer, at, Away::Offline(len));
                }
            }
        }
    }
    walk
}

/// Among them: with `duration(2, 3)` and AP2 away from t=2 to t=8, AP2's
/// completion comes due offline. Without its re-arm the run met the
/// 100,000-tick deadline with AP2 still serving and AP1, answered by
/// pongs, detecting nothing.
#[test]
fn a_child_back_from_an_offline_window_finishes_its_service() {
    walk(&[(1, 2)], &[2]).assert_clean(600);
}

#[test]
fn either_child_of_a_fork_back_from_an_offline_window_finishes_its_service() {
    walk(&[(1, 2), (1, 3)], &[2, 3]).assert_clean(1_200);
}

/// At t = 0 the scheduled disconnect runs before the submit timer, which
/// the simulator then drops: before the harness submitted at the origin's
/// return, none of these windows submitted anything, and each was
/// unresolved.
#[test]
fn an_origin_away_at_its_submit_time_submits_when_it_comes_back() {
    let mut walk = Walk::default();
    for len in LENGTHS {
        walk.window("fig1", ScenarioBuilder::fig1(), 1, 0, Away::Offline(len));
    }
    walk.assert_clean(6);
}
