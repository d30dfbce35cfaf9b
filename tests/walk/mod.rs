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

/// How the peer of a window goes away.
#[derive(Debug, Clone, Copy)]
pub enum Away {
    /// Offline for this many ticks, then back.
    Offline(u64),
    /// Crash-restarted, with every participant logging to an in-memory
    /// WAL, so the restart rebuilds its state from the segments.
    Crash,
}

/// What a walk found.
#[derive(Debug, Default)]
pub struct Walk {
    /// Windows run.
    pub windows: usize,
    /// One line per window that went wrong, naming how.
    pub failures: Vec<String>,
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
        let wrong = match (report.outcome, report.atomic) {
            (None, _) => "unresolved".to_string(),
            (Some(_), false) => "not atomic".to_string(),
            (Some(_), true) if !unexcused.is_empty() => format!("open contexts {unexcused:?}"),
            (Some(_), true) => return,
        };
        self.failures.push(format!("{window}: {wrong}"));
    }

    /// Every window of `builder` with one of its peers crash-restarted at
    /// each tick of `ticks`.
    pub fn crashes(&mut self, label: &str, builder: &ScenarioBuilder, ticks: std::ops::Range<u64>) {
        for peer in builder.peers() {
            for at in ticks.clone() {
                self.window(label, builder.clone(), peer, at, Away::Crash);
            }
        }
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
