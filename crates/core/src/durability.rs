//! Durability: a write-ahead journal for transaction contexts.
//!
//! The paper assumes "the transaction context … encapsulates … all the
//! information required for … recovery" but leaves persistence to the
//! platform. This module makes contexts durable: every state change is an
//! appendable [`JournalEntry`], encoded as one JSON line, and a crashed
//! peer rebuilds its contexts by [`replay`]ing the journal. Recovery
//! follows **presumed abort**: any context that is not terminal after
//! replay is in doubt, and the restarted peer aborts it exactly as it
//! aborts a live one — its logged effects are compensated in reverse log
//! order (§3.1), and the decision is journaled and traced.

use crate::chain::ActiveList;
use crate::compensate::CompBundle;
use crate::context::{LogRecord, TransactionContext, TxnState};
use crate::ids::{InvocationId, TxnId};
use axml_p2p::PeerId;
use axml_query::Effect;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

/// One durable event in a transaction's life at one peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// The context was created.
    Begin {
        /// The transaction.
        txn: TxnId,
        /// Invoker and served invocation (`None` at the origin).
        parent: Option<(PeerId, InvocationId)>,
        /// The chain known at creation.
        chain: ActiveList,
        /// Creation time.
        at: u64,
    },
    /// Local document effects were applied.
    Local {
        /// The transaction.
        txn: TxnId,
        /// Document name.
        doc: String,
        /// Operation label.
        op_label: String,
        /// The effects — the same allocation the context's log holds.
        effects: Arc<[Effect]>,
    },
    /// A remote invocation was issued.
    RemoteInvoked {
        /// The transaction.
        txn: TxnId,
        /// Invoked peer.
        child: PeerId,
        /// Invocation id.
        inv: InvocationId,
        /// Method.
        method: String,
    },
    /// A remote invocation completed.
    RemoteCompleted {
        /// The transaction.
        txn: TxnId,
        /// Invocation id.
        inv: InvocationId,
        /// Returned compensating bundle (peer-independent mode).
        comp: CompBundle,
    },
    /// The context reached a terminal state.
    Resolved {
        /// The transaction.
        txn: TxnId,
        /// `true` = committed, `false` = aborted.
        committed: bool,
        /// Resolution time.
        at: u64,
    },
}

impl JournalEntry {
    /// The transaction this entry belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            JournalEntry::Begin { txn, .. }
            | JournalEntry::Local { txn, .. }
            | JournalEntry::RemoteInvoked { txn, .. }
            | JournalEntry::RemoteCompleted { txn, .. }
            | JournalEntry::Resolved { txn, .. } => *txn,
        }
    }
}

/// Errors from decoding or replaying a journal.
#[derive(Debug)]
pub enum JournalError {
    /// A line was not valid JSON for a [`JournalEntry`].
    Decode {
        /// 1-based line number.
        line: usize,
        /// The serde error.
        source: serde_json::Error,
    },
    /// An entry referenced a transaction with no `Begin`.
    NoBegin(TxnId),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Decode { line, source } => write!(f, "bad journal line {line}: {source}"),
            JournalError::NoBegin(t) => write!(f, "journal entry for {t} precedes its Begin"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Extracts the full journal of an existing context (what a peer appends
/// incrementally while running; offered whole for snapshotting).
pub fn journal_of(tc: &TransactionContext) -> Vec<JournalEntry> {
    let mut out =
        vec![JournalEntry::Begin { txn: tc.txn, parent: tc.parent, chain: tc.chain.clone(), at: tc.created_at }];
    for rec in &tc.log {
        match rec {
            LogRecord::Local { doc, op_label, effects } => out.push(JournalEntry::Local {
                txn: tc.txn,
                doc: doc.clone(),
                op_label: op_label.clone(),
                effects: Arc::clone(effects),
            }),
            LogRecord::Remote { child, inv, method, completed, comp } => {
                out.push(JournalEntry::RemoteInvoked { txn: tc.txn, child: *child, inv: *inv, method: method.clone() });
                if *completed {
                    out.push(JournalEntry::RemoteCompleted { txn: tc.txn, inv: *inv, comp: comp.clone() });
                }
            }
        }
    }
    if tc.is_terminal() {
        out.push(JournalEntry::Resolved {
            txn: tc.txn,
            committed: tc.state == TxnState::Committed,
            at: tc.resolved_at.unwrap_or(tc.created_at),
        });
    }
    out
}

/// Rebuilds contexts from a journal (one peer's entries, any number of
/// transactions interleaved).
///
/// Replay is **idempotent**: an exact duplicate of an already-seen entry
/// is skipped, so replaying the same journal twice — or a journal whose
/// tail entry was doubled by a torn-write retry — yields identical
/// contexts. Exact-match dedup is sound because distinct events always
/// differ in some field: re-begins carry a later `at`, invocations have
/// unique ids, and repeated effects on the same document differ in their
/// recorded old values.
pub fn replay(entries: &[JournalEntry]) -> Result<Vec<TransactionContext>, JournalError> {
    let mut contexts: Vec<TransactionContext> = Vec::new();
    let mut seen: Vec<&JournalEntry> = Vec::new();
    // Last match, not first: a transaction whose context resolved and was
    // later legitimately re-begun (forward recovery re-invokes an aborted
    // participant) journals a second `Begin`, and entries after it belong
    // to the newer incarnation.
    let find = |contexts: &mut Vec<TransactionContext>, txn: TxnId| -> Option<usize> {
        contexts.iter().rposition(|c| c.txn == txn)
    };
    for e in entries {
        if seen.contains(&e) {
            continue;
        }
        seen.push(e);
        match e {
            JournalEntry::Begin { txn, parent, chain, at } => {
                contexts.push(TransactionContext::new(*txn, *parent, chain.clone(), *at));
            }
            JournalEntry::Local { txn, doc, op_label, effects } => {
                let i = find(&mut contexts, *txn).ok_or(JournalError::NoBegin(*txn))?;
                contexts[i].record_local(doc.clone(), op_label.clone(), Arc::clone(effects));
            }
            JournalEntry::RemoteInvoked { txn, child, inv, method } => {
                let i = find(&mut contexts, *txn).ok_or(JournalError::NoBegin(*txn))?;
                contexts[i].record_remote(*child, *inv, method.clone());
            }
            JournalEntry::RemoteCompleted { txn, inv, comp } => {
                let i = find(&mut contexts, *txn).ok_or(JournalError::NoBegin(*txn))?;
                contexts[i].complete_remote(*inv, comp.clone());
            }
            JournalEntry::Resolved { txn, committed, at } => {
                let i = find(&mut contexts, *txn).ok_or(JournalError::NoBegin(*txn))?;
                let state = if *committed { TxnState::Committed } else { TxnState::Aborted };
                contexts[i].resolve(state, *at);
            }
        }
    }
    Ok(contexts)
}

/// Encodes entries as JSON lines.
pub fn encode(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Decodes JSON lines into entries (empty lines ignored).
pub fn decode(text: &str) -> Result<Vec<JournalEntry>, JournalError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(serde_json::from_str(line).map_err(|source| JournalError::Decode { line: i + 1, source })?);
    }
    Ok(out)
}

/// Counters describing a durability sink's stable-storage activity.
/// Surfaced through the metrics snapshot as `wal.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Segments closed because the size threshold was reached.
    pub segments_rotated: u64,
    /// Payload + frame-header bytes durably appended.
    pub bytes_appended: u64,
    /// Entries recovered from stable storage at the last crash-restart.
    pub recovery_entries: u64,
    /// Torn tails (truncated/corrupt final frames) discarded at recovery.
    pub torn_tails_discarded: u64,
    /// Appends that reported a storage fault to the caller.
    pub append_faults: u64,
}

impl WalStats {
    /// Adds another sink's counters into these (fleet and sweep totals).
    pub fn merge(&mut self, other: &WalStats) {
        self.segments_rotated += other.segments_rotated;
        self.bytes_appended += other.bytes_appended;
        self.recovery_entries += other.recovery_entries;
        self.torn_tails_discarded += other.torn_tails_discarded;
        self.append_faults += other.append_faults;
    }
}

/// Stable storage for a peer's journal.
///
/// The peer writes every [`JournalEntry`] through its sink *before*
/// letting the entry's consequences escape (effects visible, messages
/// sent). A sink may refuse an append (storage fault); the caller must
/// then roll back whatever the entry was about to make durable. On
/// crash-restart the sink is the **sole** source of surviving entries —
/// the peer rebuilds its contexts from what the sink returns, nothing
/// else.
pub trait DurabilitySink: fmt::Debug + Send {
    /// Appends one entry. Returns `false` on a storage fault: the entry
    /// is not durable and its consequences must not escape.
    fn append(&mut self, entry: &JournalEntry) -> bool;

    /// Appends a decision record or cross-peer obligation, forcing it
    /// through transient storage faults (bounded deterministic retry,
    /// then a fault-free write). Decision records must never be lost:
    /// a dropped `Resolved` would re-compensate on the next crash, a
    /// dropped `RemoteInvoked` would orphan a child subtree.
    fn append_forced(&mut self, entry: &JournalEntry);

    /// Simulates a crash followed by a restart: volatile state (buffers,
    /// open writers) is dropped and the entries surviving on stable
    /// storage are recovered and returned, oldest first.
    fn crash_restart(&mut self) -> Vec<JournalEntry>;

    /// Activity counters.
    fn stats(&self) -> WalStats;
}

/// A peer's durable journal: the entries stable storage holds, written
/// through the peer's [`DurabilitySink`] if it has one.
///
/// Without a sink the journal is itself perfectly durable storage: every
/// append succeeds and a crash-restart keeps every entry. With one, an
/// entry is kept only once the sink acknowledged it, and a crash-restart
/// replaces the entries with what the sink recovered.
///
/// Without a sink `bytes_appended` is what the entries would occupy in the
/// journal's JSON codec. Nothing writes that encoding, so [`Self::stats`]
/// encodes the entries added since the last read — each entry once, and
/// none in a run that never asks.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    entries: Vec<JournalEntry>,
    sink: Option<Box<dyn DurabilitySink>>,
    /// Without a sink: the entries held at the last crash-restart.
    recovered: u64,
    /// Without a sink: how many of `entries` are counted, and their
    /// encoded bytes.
    counted: Cell<(usize, u64)>,
}

impl Journal {
    /// The durable entries, oldest first.
    pub(crate) fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Writes through `sink` from now on. The entries already held are
    /// forced into it first, so it holds the full durable history.
    pub(crate) fn set_sink(&mut self, mut sink: Box<dyn DurabilitySink>) {
        for e in &self.entries {
            sink.append_forced(e);
        }
        self.sink = Some(sink);
    }

    /// Appends one entry and returns it as kept, or `None` on a storage
    /// fault: the entry is not durable and its consequences must not
    /// escape.
    pub(crate) fn append(&mut self, entry: JournalEntry) -> Option<&JournalEntry> {
        if let Some(sink) = &mut self.sink {
            if !sink.append(&entry) {
                return None;
            }
        }
        self.entries.push(entry);
        self.entries.last()
    }

    /// Appends one entry through transient storage faults
    /// ([`DurabilitySink::append_forced`]) and returns it as kept.
    pub(crate) fn append_forced(&mut self, entry: JournalEntry) -> &JournalEntry {
        if let Some(sink) = &mut self.sink {
            sink.append_forced(&entry);
        }
        self.entries.push(entry);
        &self.entries[self.entries.len() - 1]
    }

    /// Simulates a crash followed by a restart and returns the entries
    /// that survived it, oldest first.
    pub(crate) fn crash_restart(&mut self) -> &[JournalEntry] {
        match &mut self.sink {
            Some(sink) => self.entries = sink.crash_restart(),
            None => self.recovered = self.entries.len() as u64,
        }
        &self.entries
    }

    /// Stable-storage activity counters (`wal.*`).
    pub(crate) fn stats(&self) -> WalStats {
        if let Some(sink) = &self.sink {
            return sink.stats();
        }
        let (counted, mut bytes) = self.counted.get();
        let mut line = String::new();
        for entry in &self.entries[counted..] {
            line.clear();
            entry.write_json(&mut line);
            bytes += line.len() as u64;
        }
        self.counted.set((self.entries.len(), bytes));
        WalStats { bytes_appended: bytes, recovery_entries: self.recovered, ..WalStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::TxnMsg;
    use crate::peer::{AxmlPeer, PeerConfig};
    use axml_doc::Repository;
    use axml_p2p::{CrashEvent, Sim, SimConfig};
    use axml_query::{Locator, UpdateAction};
    use axml_xml::Fragment;

    fn sample_context(resolve: Option<TxnState>) -> (TransactionContext, Repository) {
        let txn = TxnId::new(PeerId(3), 0);
        let mut chain = ActiveList::new(PeerId(1), true);
        chain.add_invocation(PeerId(1), PeerId(3), false);
        let mut tc = TransactionContext::new(txn, Some((PeerId(1), InvocationId::new(PeerId(1), 0))), chain, 7);
        let mut repo = Repository::new();
        repo.put_xml("d3", "<d><slot>initial</slot></d>").unwrap();
        // One local effect: replace the slot.
        let action =
            UpdateAction::replace(Locator::parse("d/slot").unwrap(), vec![Fragment::elem_text("slot", "written")]);
        let report = action.apply(repo.get_mut("d3").unwrap()).unwrap();
        tc.record_local("d3", "S3", report.effects);
        // One remote invocation, completed with a bundle.
        let inv = InvocationId::new(PeerId(3), 0);
        tc.record_remote(PeerId(6), inv, "S6");
        tc.complete_remote(inv, vec![(PeerId(6), crate::compensate::CompensatingService::default())]);
        if let Some(state) = resolve {
            tc.resolve(state, 42);
        }
        (tc, repo)
    }

    #[test]
    fn journal_roundtrip_reconstructs_context() {
        for state in [None, Some(TxnState::Committed), Some(TxnState::Aborted)] {
            let (tc, _repo) = sample_context(state);
            let journal = journal_of(&tc);
            let text = encode(&journal);
            let decoded = decode(&text).unwrap();
            assert_eq!(decoded, journal);
            let rebuilt = replay(&decoded).unwrap();
            assert_eq!(rebuilt.len(), 1);
            assert_eq!(rebuilt[0], tc, "state={state:?}");
        }
    }

    #[test]
    fn interleaved_transactions_replay() {
        let (tc1, _) = sample_context(Some(TxnState::Committed));
        let (mut tc2, _) = sample_context(None);
        tc2.txn = TxnId::new(PeerId(3), 1);
        // Interleave the two journals entry-by-entry.
        let j1 = journal_of(&tc1);
        let j2 = journal_of(&tc2);
        let mut mixed = Vec::new();
        let mut a = j1.into_iter();
        let mut b = j2.into_iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => break,
                (x, y) => {
                    mixed.extend(x);
                    mixed.extend(y);
                }
            }
        }
        let rebuilt = replay(&mixed).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert!(rebuilt.iter().any(|c| c == &tc1));
        assert!(rebuilt.iter().any(|c| c == &tc2));
    }

    /// Stable storage holding a journal as its encoded text.
    #[derive(Debug)]
    struct Disk(String);

    impl DurabilitySink for Disk {
        fn append(&mut self, entry: &JournalEntry) -> bool {
            self.0.push_str(&encode(std::slice::from_ref(entry)));
            true
        }

        fn append_forced(&mut self, entry: &JournalEntry) {
            self.append(entry);
        }

        fn crash_restart(&mut self) -> Vec<JournalEntry> {
            decode(&self.0).unwrap()
        }

        fn stats(&self) -> WalStats {
            WalStats::default()
        }
    }

    /// Crash-restarts AP3, holding `repo` and, on disk, `tc`'s journal.
    fn restart_with(tc: &TransactionContext, repo: Repository) -> Sim<TxnMsg, AxmlPeer> {
        let mut config = SimConfig::default();
        config.fault.crashes.push(CrashEvent { at: 1, peer: PeerId(3) });
        let peers = (0..7).map(|p| AxmlPeer::new(PeerId(p), PeerConfig::default())).collect();
        let mut sim = Sim::new(config, peers);
        let ap3 = sim.actor_mut(PeerId(3));
        ap3.repo = repo;
        ap3.set_durability_sink(Box::new(Disk(encode(&journal_of(tc)))));
        sim.run_until(1);
        sim
    }

    #[test]
    fn crash_recovery_presumes_abort_and_compensates() {
        // Crash with an in-doubt context: the written slot must revert.
        let (tc, repo) = sample_context(None);
        assert!(repo.get("d3").unwrap().to_xml().contains("written"));
        let sim = restart_with(&tc, repo);
        let ap3 = sim.actor(PeerId(3));
        assert_eq!((ap3.stats.presumed_aborts, ap3.stats.compensations_executed), (1, 1));
        assert!(ap3.stats.comp_cost_nodes > 0);
        let d3 = ap3.repo.get("d3").unwrap().to_xml();
        assert!(d3.contains("initial"), "{d3}");
        assert_eq!(ap3.context(tc.txn).unwrap().state, TxnState::Aborted);
        assert!(matches!(ap3.journal().last(), Some(JournalEntry::Resolved { committed: false, .. })));
    }

    #[test]
    fn crash_recovery_leaves_terminal_contexts_alone() {
        let (tc, repo) = sample_context(Some(TxnState::Committed));
        let before = repo.get("d3").unwrap().to_xml();
        let sim = restart_with(&tc, repo);
        let ap3 = sim.actor(PeerId(3));
        assert_eq!((ap3.stats.presumed_aborts, ap3.stats.compensations_executed), (0, 0));
        assert_eq!(ap3.context(tc.txn).unwrap().state, TxnState::Committed);
        assert_eq!(ap3.repo.get("d3").unwrap().to_xml(), before, "committed effects are durable");
    }

    #[test]
    fn decode_rejects_garbage() {
        let err = decode("not json\n").unwrap_err();
        assert!(matches!(err, JournalError::Decode { line: 1, .. }), "{err}");
        // Line numbers point at the culprit.
        let good = encode(&journal_of(&sample_context(None).0));
        let mixed = format!("{good}broken line\n");
        let err = decode(&mixed).unwrap_err();
        let JournalError::Decode { line, .. } = err else { panic!() };
        assert!(line > 1);
    }

    #[test]
    fn replay_is_idempotent_under_double_replay() {
        // Replaying the whole journal twice (as a recovery retry after a
        // crash-during-recovery would) must yield the same contexts as
        // replaying it once.
        for state in [None, Some(TxnState::Committed), Some(TxnState::Aborted)] {
            let (tc, _repo) = sample_context(state);
            let journal = journal_of(&tc);
            let once = replay(&journal).unwrap();
            let mut doubled = journal.clone();
            doubled.extend(journal.clone());
            let twice = replay(&doubled).unwrap();
            assert_eq!(once, twice, "state={state:?}");
            assert_eq!(twice.len(), 1);
            assert_eq!(twice[0], tc);
        }
    }

    #[test]
    fn replay_tolerates_duplicated_tail_entry() {
        // A torn-write retry re-appends the frame it could not confirm,
        // so the journal may carry the same tail entry twice in a row.
        let (tc, _repo) = sample_context(None);
        let journal = journal_of(&tc);
        for cut in 1..=journal.len() {
            let mut dup = journal[..cut].to_vec();
            dup.push(journal[cut - 1].clone());
            let rebuilt = replay(&dup).unwrap();
            let clean = replay(&journal[..cut]).unwrap();
            assert_eq!(rebuilt, clean, "duplicated entry #{cut} must be a no-op");
        }
    }

    #[test]
    fn replay_dedup_keeps_legitimate_rebegin() {
        // A re-begun transaction journals a second Begin with a later
        // `at`; that is NOT a duplicate and must open a new incarnation.
        let txn = TxnId::new(PeerId(3), 0);
        let chain = ActiveList::new(PeerId(1), true);
        let entries = vec![
            JournalEntry::Begin { txn, parent: None, chain: chain.clone(), at: 7 },
            JournalEntry::Resolved { txn, committed: false, at: 9 },
            JournalEntry::Begin { txn, parent: None, chain, at: 20 },
        ];
        let rebuilt = replay(&entries).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt[0].state, TxnState::Aborted);
        assert_eq!(rebuilt[1].state, TxnState::Active);
        assert_eq!(rebuilt[1].created_at, 20);
    }

    #[test]
    fn replay_rejects_entries_before_begin() {
        let txn = TxnId::new(PeerId(3), 9);
        let entries = vec![JournalEntry::Resolved { txn, committed: true, at: 1 }];
        assert!(matches!(replay(&entries), Err(JournalError::NoBegin(t)) if t == txn));
    }

    #[test]
    fn journal_file_roundtrip() {
        let (tc, _repo) = sample_context(None);
        let journal = journal_of(&tc);
        let path = std::env::temp_dir().join(format!("axml-journal-{}.jsonl", std::process::id()));
        std::fs::write(&path, encode(&journal)).unwrap();
        let loaded = decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, journal);
    }

    #[test]
    fn entry_txn_accessor() {
        let (tc, _) = sample_context(Some(TxnState::Aborted));
        for e in journal_of(&tc) {
            assert_eq!(e.txn(), tc.txn);
        }
    }

    // A journal without a sink is the in-memory store: the two tests
    // below keep the names they had when that store was a sink of its own.
    #[test]
    fn memory_sink_counts_every_appended_byte_whenever_it_is_read() {
        let (tc, _) = sample_context(Some(TxnState::Aborted));
        let journal = journal_of(&tc);
        assert!(journal.len() >= 4);
        let encoded = |entries: &[JournalEntry]| -> u64 {
            entries.iter().map(|e| serde_json::to_string(e).unwrap().len() as u64).sum()
        };
        let mut held = Journal::default();
        assert_eq!(held.stats().bytes_appended, 0);
        // Reads interleave with plain and forced appends and a crash: each
        // read sees all bytes appended so far, never fewer than before.
        let mut last = 0;
        for (i, entry) in journal.iter().chain(&journal).enumerate() {
            match i % 3 {
                0 => assert!(held.append(entry.clone()).is_some()),
                1 => {
                    held.append_forced(entry.clone());
                }
                _ => {
                    assert_eq!(held.crash_restart().len(), i, "a crash loses nothing");
                    assert!(held.append(entry.clone()).is_some());
                }
            }
            if i % 2 == 0 {
                let read = held.stats().bytes_appended;
                assert!(read > last, "monotone under appends");
                assert_eq!(held.stats().bytes_appended, read, "reading does not change what is read");
                last = read;
            }
        }
        let all: Vec<JournalEntry> = journal.iter().chain(&journal).cloned().collect();
        assert_eq!(held.stats().bytes_appended, encoded(&all));
        assert_eq!(held.crash_restart(), all);
        assert_eq!(held.stats().recovery_entries, all.len() as u64);
        // A journal that is read only once, at the end, reports the same.
        let mut unread = Journal::default();
        for entry in &all {
            unread.append(entry.clone());
        }
        assert_eq!(unread.stats(), WalStats { recovery_entries: 0, ..held.stats() });
    }

    #[test]
    fn memory_sink_keeps_the_effect_lists_it_is_handed() {
        let (tc, _) = sample_context(None);
        let journal = journal_of(&tc);
        let mut held = Journal::default();
        for entry in &journal {
            assert!(held.append(entry.clone()).is_some());
        }
        let recovered = held.crash_restart();
        let lists = |entries: &[JournalEntry]| -> Vec<Arc<[Effect]>> {
            entries
                .iter()
                .filter_map(|e| match e {
                    JournalEntry::Local { effects, .. } => Some(Arc::clone(effects)),
                    _ => None,
                })
                .collect()
        };
        let (ours, theirs) = (lists(&journal), lists(recovered));
        assert!(!ours.is_empty());
        assert_eq!(ours.len(), theirs.len());
        assert!(ours.iter().zip(&theirs).all(|(a, b)| Arc::ptr_eq(a, b)), "stored and recovered without a copy");
    }
}
