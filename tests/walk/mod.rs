//! One walk harness for offline and crash windows, shared by
//! `tests/reconnect.rs` and `tests/crash_walk.rs`. In a window one peer
//! of a scenario goes away at one tick — offline for a few ticks and
//! back, or crash-restarted from its WAL — and the run is judged the way
//! a chaos case is: the transaction resolves, the all-or-nothing check
//! holds, and no connected peer is left holding an undecided context. An
//! undecided context on a peer still offline at the end is excused, since
//! no protocol can reach it, and named.

#![allow(dead_code)] // each includer uses its own part

use axml::p2p::{CrashEvent, StorageFaultPlane};
use axml::prelude::*;
use axml_chaos::{attach_wal_sinks, open_contexts};
use std::collections::BTreeSet;

/// How the peer of a window goes away.
#[derive(Debug, Clone, Copy)]
pub enum Away {
    /// Offline for this many ticks, then back.
    Offline(u64),
    /// Crash-restarted, with every participant logging to an in-memory
    /// WAL, so the restart rebuilds its state from the segments.
    Crash,
}

/// A window that went wrong.
#[derive(Debug)]
pub struct Failure {
    /// `<label> AP<peer> <what>`, e.g. `fig1 AP3 offline 12..15`.
    pub window: String,
    /// How: `unresolved`, `not-atomic` or `open` (a connected peer holds
    /// an undecided context).
    pub class: &'static str,
    /// The undecided contexts on connected peers.
    pub open: Vec<String>,
}

impl Failure {
    /// The window as one line of `walk/offline.ledger`: the window and its
    /// class.
    pub fn ledger_line(&self) -> String {
        format!("{} {}", self.window, self.class)
    }
}

/// What a walk found.
#[derive(Debug, Default)]
pub struct Walk {
    /// Windows run.
    pub windows: usize,
    /// Every window that went wrong.
    pub failures: Vec<Failure>,
    /// One line per excused undecided context.
    pub excused: Vec<String>,
}

impl Walk {
    /// Runs `builder`'s transaction with `peer` away from `at` as `away`
    /// says and judges it; `label` names the scenario in what is recorded.
    pub fn window(&mut self, label: &str, builder: ScenarioBuilder, peer: u32, at: u64, away: Away) {
        let (mut scenario, what) = match away {
            Away::Offline(len) => {
                (builder.disconnect(at, peer).reconnect(at + len, peer).build(), format!("offline {at}..{}", at + len))
            }
            Away::Crash => {
                let mut builder = builder;
                builder.fault.crashes.push(CrashEvent { at, peer: PeerId(peer) });
                let mut scenario = builder.build();
                attach_wal_sinks(&mut scenario, &StorageFaultPlane::default(), 0);
                (scenario, format!("crash at {at}"))
            }
        };
        let report = scenario.run();
        let (excused, unexcused) = open_contexts(&scenario);
        let window = format!("{label} AP{peer} {what}");
        self.windows += 1;
        self.excused.extend(excused.iter().map(|c| format!("{window}: {c}")));
        let class = match (report.outcome, report.atomic) {
            (None, _) => "unresolved",
            (Some(_), false) => "not-atomic",
            (Some(_), true) if !unexcused.is_empty() => "open",
            (Some(_), true) => return,
        };
        self.failures.push(Failure { window, class, open: unexcused });
    }

    /// Every window of `builder` with one of its peers away from each tick
    /// of `ticks`, once per entry of `aways`. A super peer is never taken
    /// offline: the simulator drops its disconnect ("trusted peers which do
    /// not disconnect"), so that window is the undisturbed run
    /// (`tests/reconnect.rs` checks it for Fig. 2's AP1). It can crash.
    pub fn every_window(
        &mut self,
        label: &str,
        builder: &ScenarioBuilder,
        ticks: std::ops::Range<u64>,
        aways: &[Away],
    ) {
        for peer in builder.peers() {
            let stays = builder.supers.contains(&peer);
            for at in ticks.clone() {
                for &away in aways.iter().filter(|a| !(stays && matches!(a, Away::Offline(_)))) {
                    self.window(label, builder.clone(), peer, at, away);
                }
            }
        }
    }

    /// Asserts `expected_windows` windows ran and that the windows that
    /// went wrong are exactly the lines of `ledger` that start with one of
    /// `labels`: a failure the ledger does not list fails, and so does a
    /// listed window that now passes. Other lines, the `#` comments among
    /// them, are ignored.
    pub fn assert_ledger(&self, labels: &[&str], expected_windows: usize, ledger: &str) {
        assert_eq!(self.windows, expected_windows);
        let listed: BTreeSet<&str> =
            ledger.lines().filter(|l| l.split(' ').next().is_some_and(|label| labels.contains(&label))).collect();
        let failing: Vec<String> = self.failures.iter().map(Failure::ledger_line).collect();
        let unlisted: Vec<&str> = failing.iter().map(String::as_str).filter(|l| !listed.contains(l)).collect();
        let passing: Vec<&str> = listed.iter().copied().filter(|l| !failing.iter().any(|f| f == l)).collect();
        assert!(
            unlisted.is_empty() && passing.is_empty(),
            "the offline ledger is stale for {labels:?}\n{} failing window(s) not in the ledger:\n{}\n{} \
             ledger line(s) whose window passes:\n{}",
            unlisted.len(),
            unlisted.join("\n"),
            passing.len(),
            passing.join("\n"),
        );
    }

    /// Asserts `expected_windows` windows ran and none went wrong; prints
    /// the excused contexts as `EXCUSED <window>: <context>`.
    pub fn assert_clean(&self, expected_windows: usize) {
        for line in &self.excused {
            println!("EXCUSED {line}");
        }
        assert_eq!(self.windows, expected_windows);
        assert!(
            self.failures.is_empty(),
            "{} of {} windows failed, first: {:#?}",
            self.failures.len(),
            self.windows,
            &self.failures[..5.min(self.failures.len())]
        );
    }
}
