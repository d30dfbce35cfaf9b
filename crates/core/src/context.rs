//! Transaction contexts and their logs.
//!
//! "On submission of a transaction TA at a peer AP1 (its origin peer), the
//! peer creates a transaction context TCA1. The transaction context,
//! managed by the transaction manager, is a data structure which
//! encapsulates the transaction id with all the information required for
//! concurrency control, commit and recovery of the corresponding
//! transaction." (§3.2)
//!
//! Each participant peer keeps its own context (`TCA5` at AP5, …): its
//! local effect log (feeding dynamic compensation), the child invocations
//! it issued, the parent that invoked it, and the transaction's
//! active-peer list (chaining, §3.3).

use crate::chain::ActiveList;
use crate::compensate::{compensation_for_effects, CompBundle, CompensatingService};
use crate::ids::{InvocationId, TxnId};
use axml_p2p::PeerId;
use axml_query::{Effect, UpdateAction};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Lifecycle of a transaction context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnState {
    /// Work in progress.
    Active,
    /// Commit received/decided; effects are final.
    Committed,
    /// Aborted; local effects have been compensated.
    Aborted,
}

/// One entry in a context's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Local document effects from one operation (update service body,
    /// materialization, …).
    Local {
        /// Document name in the peer's repository.
        doc: String,
        /// Operation label (diagnostics and the static-baseline key).
        op_label: String,
        /// Primitive effects, in application order — one allocation,
        /// shared with the journal entry that made them durable.
        effects: Arc<[Effect]>,
    },
    /// A service invocation issued to another peer.
    Remote {
        /// The invoked peer.
        child: PeerId,
        /// Invocation id.
        inv: InvocationId,
        /// Method name.
        method: String,
        /// True once the result arrived.
        completed: bool,
        /// The per-peer compensating-service bundle returned with the
        /// result (peer-independent mode; empty otherwise).
        comp: CompBundle,
    },
}

/// The outcome of a finished transaction, as seen by its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction.
    pub txn: TxnId,
    /// True if committed, false if aborted.
    pub committed: bool,
    /// Submission time.
    pub started_at: u64,
    /// Resolution time.
    pub resolved_at: u64,
}

/// A per-peer transaction context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionContext {
    /// The transaction id.
    pub txn: TxnId,
    /// Current state.
    pub state: TxnState,
    /// The invoker and the invocation this context serves (`None` at the
    /// origin).
    pub parent: Option<(PeerId, InvocationId)>,
    /// The log.
    pub log: Vec<LogRecord>,
    /// The active-peer list as this peer last saw it.
    pub chain: ActiveList,
    /// Creation time.
    pub created_at: u64,
    /// Resolution time, once terminal.
    pub resolved_at: Option<u64>,
}

impl TransactionContext {
    /// Creates an active context.
    pub fn new(txn: TxnId, parent: Option<(PeerId, InvocationId)>, chain: ActiveList, now: u64) -> Self {
        TransactionContext {
            txn,
            state: TxnState::Active,
            parent,
            log: Vec::new(),
            chain,
            created_at: now,
            resolved_at: None,
        }
    }

    /// Appends local effects (a `Vec` is moved into a shared slice; a
    /// slice already shared — the journal's — is kept as it is).
    pub fn record_local(
        &mut self,
        doc: impl Into<String>,
        op_label: impl Into<String>,
        effects: impl Into<Arc<[Effect]>>,
    ) {
        let effects = effects.into();
        if !effects.is_empty() {
            self.log.push(LogRecord::Local { doc: doc.into(), op_label: op_label.into(), effects });
        }
    }

    /// Records an issued invocation.
    pub fn record_remote(&mut self, child: PeerId, inv: InvocationId, method: impl Into<String>) {
        self.log.push(LogRecord::Remote { child, inv, method: method.into(), completed: false, comp: Vec::new() });
    }

    /// Marks an invocation completed, storing the compensating-service
    /// bundle returned with it (empty when peer-independent mode is off).
    pub fn complete_remote(&mut self, inv: InvocationId, comp: CompBundle) -> bool {
        for rec in self.log.iter_mut() {
            if let LogRecord::Remote { inv: i, completed, comp: c, .. } = rec {
                if *i == inv {
                    *completed = true;
                    *c = comp;
                    return true;
                }
            }
        }
        false
    }

    /// The peers whose services this context invoked ("participant
    /// peers"), in invocation order, deduplicated.
    pub fn invoked_peers(&self) -> Vec<PeerId> {
        let mut out = Vec::new();
        for rec in &self.log {
            if let LogRecord::Remote { child, .. } = rec {
                if !out.contains(child) {
                    out.push(*child);
                }
            }
        }
        out
    }

    /// Local effects grouped per document, in log order.
    ///
    /// This clones the logged fragments; derivation paths should prefer
    /// the borrowed [`Self::local_effect_slices`].
    pub fn local_effects(&self) -> Vec<(String, Vec<Effect>)> {
        self.local_effect_slices().map(|(doc, effects)| (doc.to_string(), effects.to_vec())).collect()
    }

    /// Borrowed view of the local effects, in log order — the lazy
    /// counterpart of [`Self::local_effects`]. Compensation derivation
    /// iterates the log in place instead of cloning document names and
    /// effect fragments into a scratch vector first.
    pub fn local_effect_slices(&self) -> impl DoubleEndedIterator<Item = (&str, &[Effect])> + '_ {
        self.log.iter().filter_map(|r| match r {
            LogRecord::Local { doc, effects, .. } => Some((doc.as_str(), &effects[..])),
            LogRecord::Remote { .. } => None,
        })
    }

    /// The compensating service for **this peer's own** modifications —
    /// what this peer returns along with its results in peer-independent
    /// mode. Derived over borrowed log slices; strictly newest-first
    /// (spec rule R08 / monitor M001).
    pub fn own_compensation(&self) -> CompensatingService {
        CompensatingService::from_effect_slices(self.local_effect_slices())
    }

    /// Like [`Self::own_compensation`], but each compensating batch keeps
    /// the forward log index (0-based, log order) of the `Local` record
    /// it undoes, newest first — the shape the online protocol monitor
    /// checks §3.1's reverse-order rule against. Records whose effects
    /// derive no compensating action are skipped, matching
    /// [`CompensatingService::from_effect_slices`]; concatenating the
    /// batches in the returned order reproduces `own_compensation()`
    /// exactly.
    pub fn own_compensation_indexed(&self) -> Vec<(u64, String, Vec<UpdateAction>)> {
        let mut batches: Vec<(u64, String, Vec<UpdateAction>)> = self
            .local_effect_slices()
            .enumerate()
            .filter_map(|(i, (doc, effects))| {
                let actions = compensation_for_effects(effects);
                if actions.is_empty() {
                    None
                } else {
                    Some((i as u64, doc.to_string(), actions))
                }
            })
            .collect();
        batches.reverse();
        batches
    }

    /// Compensating services collected from completed children, newest
    /// first (compensation runs in reverse execution order).
    pub fn child_compensations(&self) -> CompBundle {
        let mut out = Vec::new();
        for r in self.log.iter().rev() {
            if let LogRecord::Remote { completed: true, comp, .. } = r {
                out.extend(comp.iter().filter(|(_, c)| !c.is_empty()).cloned());
            }
        }
        out
    }

    /// Records the compensating bundle of an orphaned peer (scenario (b):
    /// a grandchild re-routed its results to us because its parent
    /// disconnected — its work must still be compensated on abort).
    pub fn record_orphan_comp(&mut self, from: PeerId, inv: InvocationId, method: impl Into<String>, comp: CompBundle) {
        self.log.push(LogRecord::Remote { child: from, inv, method: method.into(), completed: true, comp });
    }

    /// True once committed or aborted.
    pub fn is_terminal(&self) -> bool {
        !matches!(self.state, TxnState::Active)
    }

    /// Transitions to a terminal state, recording the time. No-op if
    /// already terminal (first decision wins).
    pub fn resolve(&mut self, state: TxnState, now: u64) {
        if !self.is_terminal() {
            self.state = state;
            self.resolved_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::{Locator, NodePath, UpdateAction};
    use axml_xml::{Document, Fragment};

    fn ctx() -> TransactionContext {
        let txn = TxnId::new(PeerId(1), 0);
        TransactionContext::new(txn, None, ActiveList::new(PeerId(1), true), 5)
    }

    #[test]
    fn lifecycle() {
        let mut c = ctx();
        assert_eq!(c.state, TxnState::Active);
        assert!(!c.is_terminal());
        c.resolve(TxnState::Committed, 10);
        assert!(c.is_terminal());
        assert_eq!(c.resolved_at, Some(10));
        // First decision wins.
        c.resolve(TxnState::Aborted, 20);
        assert_eq!(c.state, TxnState::Committed);
        assert_eq!(c.resolved_at, Some(10));
    }

    #[test]
    fn remote_bookkeeping() {
        let mut c = ctx();
        let i1 = InvocationId::new(PeerId(1), 0);
        let i2 = InvocationId::new(PeerId(1), 1);
        c.record_remote(PeerId(2), i1, "S2");
        c.record_remote(PeerId(3), i2, "S3");
        assert!(c.complete_remote(i1, Vec::new()));
        assert!(!c.complete_remote(InvocationId::new(PeerId(9), 9), Vec::new()));
        assert_eq!(c.invoked_peers(), vec![PeerId(2), PeerId(3)]);
    }

    #[test]
    fn own_compensation_round_trips() {
        let mut doc = Document::parse("<r><a>1</a></r>").unwrap();
        let before = doc.to_xml();
        let mut c = ctx();
        let rep = UpdateAction::replace(Locator::parse("r/a").unwrap(), vec![Fragment::elem_text("a", "2")])
            .apply(&mut doc)
            .unwrap();
        c.record_local("d", "setA", rep.effects);
        let comp = c.own_compensation();
        assert!(!comp.is_empty());
        let mut docs = std::collections::BTreeMap::new();
        docs.insert("d".to_string(), &mut doc);
        comp.execute(&mut docs).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn indexed_compensation_matches_own_compensation() {
        let mut doc = Document::parse("<r><a>1</a><b>2</b></r>").unwrap();
        let mut c = ctx();
        let r1 = UpdateAction::replace(Locator::parse("r/a").unwrap(), vec![Fragment::elem_text("a", "x")])
            .apply(&mut doc)
            .unwrap();
        c.record_local("d", "setA", r1.effects);
        let r2 = UpdateAction::replace(Locator::parse("r/b").unwrap(), vec![Fragment::elem_text("b", "y")])
            .apply(&mut doc)
            .unwrap();
        c.record_local("d", "setB", r2.effects);
        let indexed = c.own_compensation_indexed();
        // Newest first: the second record's batch leads, indices descend.
        assert_eq!(indexed.len(), 2);
        assert_eq!(indexed[0].0, 1);
        assert_eq!(indexed[1].0, 0);
        // Concatenating the batches in order reproduces own_compensation.
        let flat: Vec<(String, Vec<UpdateAction>)> =
            indexed.into_iter().map(|(_, doc, actions)| (doc, actions)).collect();
        assert_eq!(flat, c.own_compensation().actions);
    }

    /// Deriving from a cloned log (`local_effects` + `from_effect_log`) and
    /// from borrowed slices (`own_compensation`) give the same actions in
    /// the same order, remote entries interleaved or not.
    #[test]
    fn cloned_and_borrowed_derivations_agree_action_for_action() {
        let doc = Document::parse(r#"<r><a x="1"><b>t</b></a><c/><d><e/>text</d></r>"#).unwrap();
        let subtrees: Vec<Fragment> = doc
            .descendants_and_self(doc.root())
            .filter(|&n| doc.name(n).is_ok())
            .map(|n| Fragment::from_node(&doc, n).unwrap())
            .collect();
        let mut c = ctx();
        for i in 0..120 {
            let fragment = subtrees[i % subtrees.len()].clone();
            let effect = Effect::Deleted { fragment, parent_path: NodePath(vec![i % 5]), position: i % 3 };
            c.record_local(format!("doc{}", i % 8), "delete", vec![effect]);
            if i % 3 == 0 {
                c.record_remote(PeerId(2), InvocationId::new(PeerId(2), i as u64), "m");
            }
        }
        let cloned = CompensatingService::from_effect_log(&c.local_effects());
        assert_eq!(cloned.action_count(), 120);
        assert_eq!(cloned, c.own_compensation());
    }

    #[test]
    fn empty_effects_not_logged() {
        let mut c = ctx();
        c.record_local("d", "noop", vec![]);
        assert!(c.log.is_empty());
        assert!(c.own_compensation().is_empty());
    }

    #[test]
    fn child_compensations_newest_first() {
        let mut c = ctx();
        let i1 = InvocationId::new(PeerId(1), 0);
        let i2 = InvocationId::new(PeerId(1), 1);
        c.record_remote(PeerId(2), i1, "S2");
        c.record_remote(PeerId(3), i2, "S3");
        let mk = |peer: PeerId, doc: &str| {
            vec![(
                peer,
                CompensatingService {
                    actions: vec![(doc.to_string(), vec![UpdateAction::delete(Locator::parse("node:/0").unwrap())])],
                },
            )]
        };
        c.complete_remote(i1, mk(PeerId(2), "d2"));
        c.complete_remote(i2, mk(PeerId(3), "d3"));
        let comps = c.child_compensations();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].0, PeerId(3), "newest first");
        assert_eq!(comps[1].0, PeerId(2));
    }

    #[test]
    fn empty_child_compensations_skipped() {
        let mut c = ctx();
        let i1 = InvocationId::new(PeerId(1), 0);
        c.record_remote(PeerId(2), i1, "S2");
        c.complete_remote(i1, vec![(PeerId(2), CompensatingService::default())]);
        assert!(c.child_compensations().is_empty());
    }
}
