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
//! The origin itself away when its submit comes due is the harness's to
//! handle: the submit timer is set from outside, so the peer's reconnect
//! does not know it; the scenario submits at the origin's return instead.

mod walk;

use axml::prelude::*;
use walk::{Away, Walk};

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
    for len in [1, 2, 3, 5, 8, 13] {
        walk.window("fig1", ScenarioBuilder::fig1(), 1, 0, Away::Offline(len));
    }
    walk.assert_clean(6);
}
