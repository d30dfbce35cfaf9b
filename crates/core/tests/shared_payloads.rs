//! A logged effect list exists once (DESIGN.md §18): the context's log
//! record, the journal entry that made it durable and whatever a replay
//! of that journal rebuilds all hold the same allocation.

use axml_core::context::{LogRecord, TransactionContext};
use axml_core::durability::{self, JournalEntry};
use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::TxnId;
use axml_query::Effect;
use std::sync::Arc;

fn logged(tc: &TransactionContext) -> impl Iterator<Item = &Arc<[Effect]>> {
    tc.log.iter().filter_map(|r| match r {
        LogRecord::Local { effects, .. } => Some(effects),
        LogRecord::Remote { .. } => None,
    })
}

fn journalled(journal: &[JournalEntry], of: TxnId) -> impl Iterator<Item = &Arc<[Effect]>> {
    journal.iter().filter_map(move |e| match e {
        JournalEntry::Local { txn, effects, .. } if *txn == of => Some(effects),
        _ => None,
    })
}

fn assert_same_allocations<'a>(
    what: &str,
    held: impl Iterator<Item = &'a Arc<[Effect]>>,
    journal: impl Iterator<Item = &'a Arc<[Effect]>>,
) -> usize {
    let (held, journal): (Vec<_>, Vec<_>) = (held.collect(), journal.collect());
    assert_eq!(held.len(), journal.len(), "{what}: one log record per journalled entry");
    for (i, (h, j)) in held.iter().zip(&journal).enumerate() {
        assert!(Arc::ptr_eq(h, j), "{what}: record {i} is a copy of its journal entry, not the entry's own list");
    }
    held.len()
}

/// Runs Fig. 1 and checks every participant; returns how many effect
/// lists were compared.
fn one_copy_per_effect_list(flavor: Flavor, fault_at: Option<u32>) -> usize {
    let mut b = ScenarioBuilder::fig1().flavor(flavor);
    if let Some(peer) = fault_at {
        b = b.fault_at(peer);
    }
    let mut scenario = b.build();
    let report = scenario.run();
    assert_eq!(report.outcome.expect("resolved").committed, fault_at.is_none());
    let mut compared = 0;
    for &p in &scenario.participants {
        let peer = scenario.sim.actor(p);
        let journal = peer.journal();
        let replayed = durability::replay(journal).expect("a peer's own journal replays");
        for txn in peer.known_txns() {
            let tc = peer.context(txn).expect("known");
            compared += assert_same_allocations(&format!("{p} live"), logged(tc), journalled(journal, txn));
            let rebuilt = replayed.iter().filter(|c| c.txn == txn).flat_map(logged);
            compared += assert_same_allocations(&format!("{p} replayed"), rebuilt, journalled(journal, txn));
        }
    }
    compared
}

#[test]
fn a_committed_fig1_logs_each_effect_list_once() {
    for flavor in [Flavor::Query, Flavor::Update] {
        assert!(one_copy_per_effect_list(flavor, None) > 0, "{flavor:?}: Fig. 1 materializes results at AP1–AP3");
    }
}

#[test]
fn an_aborted_fig1_logs_each_effect_list_once() {
    for flavor in [Flavor::Query, Flavor::Update] {
        assert!(one_copy_per_effect_list(flavor, Some(5)) > 0, "{flavor:?}: AP3 and AP4 logged before AP5 failed");
    }
}
