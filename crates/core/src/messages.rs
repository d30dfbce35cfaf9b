//! Protocol messages exchanged between AXML peers.
//!
//! The vocabulary of §3.2/§3.3: service invocations (with the active-peer
//! list piggybacked — chaining), results (with compensating-service
//! definitions piggybacked — peer-independent compensation), `Abort TA`
//! messages, commit decisions and the inquiries that pull a missed one,
//! keep-alive pings, re-routed results, disconnection notices, and
//! sibling data streams.

use crate::chain::ActiveList;
use crate::compensate::{CompBundle, CompensatingService};
use crate::ids::{InvocationId, TxnId};
use axml_doc::Fault;
use axml_p2p::{Message, PeerId};
use axml_xml::Fragment;
use std::sync::Arc;

/// The simulator context of a peer that speaks this protocol.
pub(crate) type Ctx<'a> = axml_p2p::Ctx<'a, TxnMsg>;

/// Reliable-delivery ids a message acknowledges on the side (see
/// `Delivery::send`): what its sender owed the
/// receiver when it left. An inline array, so that a ride allocates
/// nothing; what does not fit leaves in a [`TxnMsg::Ack`] of its own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckIds {
    len: u8,
    ids: [u64; AckIds::CAPACITY],
}

impl AckIds {
    /// How many ids one message can carry.
    pub const CAPACITY: usize = 4;

    /// Adds `id`; false, changing nothing, when the array is full.
    pub fn push(&mut self, id: u64) -> bool {
        let Some(slot) = self.ids.get_mut(usize::from(self.len)) else { return false };
        *slot = id;
        self.len += 1;
        true
    }

    /// The ids carried, in the order they were owed.
    pub fn as_slice(&self) -> &[u64] {
        &self.ids[..usize::from(self.len)]
    }
}

/// A message of the transactional AXML protocol.
#[derive(Debug, Clone)]
pub enum TxnMsg {
    /// Invoke a service as part of a transaction.
    Invoke {
        /// The transaction.
        txn: TxnId,
        /// Invocation id (allocated by the invoker).
        inv: InvocationId,
        /// Method to invoke.
        method: String,
        /// Resolved parameters.
        params: Vec<(String, String)>,
        /// The active-peer list so far (chaining, §3.3). A singleton list
        /// when chaining is disabled.
        chain: ActiveList,
        /// Reused results from orphaned peers (work reuse, scenario (b)):
        /// `(method, items)` pairs the provider applies instead of
        /// re-invoking that method.
        prefilled: Vec<(String, Vec<Fragment>)>,
    },
    /// A successful invocation result.
    Result {
        /// The transaction.
        txn: TxnId,
        /// The invocation being answered.
        inv: InvocationId,
        /// Result items: one allocation from the provider's
        /// `finish_serving` to the invoker's materialization, however
        /// many envelopes and retained copies refer to it on the way.
        items: Arc<[Fragment]>,
        /// Per-peer compensating-service bundle covering everything the
        /// provider (and its own subtree) did — peer-independent mode
        /// (empty otherwise).
        comp: CompBundle,
        /// The provider's (possibly extended) view of the active list.
        chain: ActiveList,
    },
    /// An invocation failed: the provider aborted its context. This is the
    /// upward "Abort TA" of the nested recovery protocol, carrying the
    /// fault so the invoker can consult the embedded call's handlers.
    Fault {
        /// The transaction.
        txn: TxnId,
        /// The invocation that failed.
        inv: InvocationId,
        /// Why.
        fault: Fault,
    },
    /// Downward "Abort TA": abort your context (self-compensating from
    /// your own log) and forward to your invokees.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// Finalize: the transaction committed. Sent once, unacknowledged: a
    /// participant that misses it asks with [`TxnMsg::Inquire`].
    Commit {
        /// The transaction.
        txn: TxnId,
        /// The peers to which the deciding origin sent this decision
        /// itself: its active-peer list, shared, not copied. A receiver
        /// forwards the `Commit` only to invokees outside it. `None` — no
        /// chaining, or a decision re-sent to a late sender or an
        /// inquirer — covers nobody.
        covered: Option<ActiveList>,
    },
    /// A participant that returned its result and has waited a decision
    /// timeout asks the origin (or a super ancestor) for the outcome.
    Inquire {
        /// The transaction.
        txn: TxnId,
    },
    /// Peer-independent compensation: execute these compensating actions.
    /// "The original peers do not even need to be aware that the services
    /// they are executing are, basically, compensating services."
    Compensate {
        /// The transaction being compensated.
        txn: TxnId,
        /// What to run.
        service: CompensatingService,
    },
    /// Keep-alive probe.
    Ping,
    /// Keep-alive reply.
    Pong,
    /// Scenario (b): results re-routed to an ancestor because the direct
    /// parent disconnected.
    Redirected {
        /// The transaction.
        txn: TxnId,
        /// The disconnected parent the sender failed to reach.
        failed_parent: PeerId,
        /// The method whose results these are.
        method: String,
        /// The results (shared, as in a normal result).
        items: Arc<[Fragment]>,
        /// Compensating bundle, as in a normal result.
        comp: CompBundle,
    },
    /// Scenarios (b)/(c)/(d): `disconnected` was detected as gone; stop
    /// wasting effort / start recovery.
    DisconnectNotice {
        /// The transaction.
        txn: TxnId,
        /// The peer detected as disconnected.
        disconnected: PeerId,
    },
    /// Subscription-based continuous data between siblings (scenario (d)).
    StreamData {
        /// The transaction.
        txn: TxnId,
        /// Sequence number.
        seq: u64,
    },
    /// Chaining upkeep: a peer learned new invocation-tree edges and
    /// shares them with its parent, children, and siblings (the paper's
    /// "chaining mechanism is restricted to the parent, children and
    /// sibling peers"). Gossip converges because merging is monotone.
    ChainUpdate {
        /// The transaction.
        txn: TxnId,
        /// The sender's current active-peer list.
        chain: ActiveList,
        /// Deliveries of the receiver's this update acknowledges.
        acks: AckIds,
    },
    /// At-least-once delivery envelope: the sender retransmits `inner`
    /// with bounded exponential backoff until the receiver acknowledges
    /// `id` (see `Delivery::send`). The receiver
    /// always acks — even re-deliveries — and suppresses duplicates by
    /// `(sender, id)` so the protocol survives drop *and* duplication.
    Reliable {
        /// Per-sender delivery id, epoch-namespaced across crash-restarts
        /// so a restarted sender never reuses a live id.
        id: u64,
        /// 0 on the first send; `> 0` marks a retransmission.
        attempt: u32,
        /// The payload, shared between this envelope, the sender's outbox
        /// and every retransmission.
        inner: Arc<TxnMsg>,
        /// Deliveries of the receiver's this envelope acknowledges.
        acks: AckIds,
    },
    /// Acknowledges [`TxnMsg::Reliable`] deliveries that no message bound
    /// for their sender was there to carry.
    Ack {
        /// The delivery ids being acknowledged.
        ids: AckIds,
    },
}

impl TxnMsg {
    /// The deliveries of the receiver's this message acknowledges,
    /// whichever kind of message carries them.
    pub fn acks(&self) -> &[u64] {
        match self {
            TxnMsg::Reliable { acks, .. } | TxnMsg::ChainUpdate { acks, .. } | TxnMsg::Ack { ids: acks } => {
                acks.as_slice()
            }
            _ => &[],
        }
    }

    /// The transaction this message is about; `None` for transport
    /// traffic (pings, acks). Drives trace attribution and dedup pruning.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            TxnMsg::Invoke { txn, .. }
            | TxnMsg::Result { txn, .. }
            | TxnMsg::Fault { txn, .. }
            | TxnMsg::Abort { txn }
            | TxnMsg::Commit { txn, .. }
            | TxnMsg::Inquire { txn }
            | TxnMsg::Compensate { txn, .. }
            | TxnMsg::Redirected { txn, .. }
            | TxnMsg::DisconnectNotice { txn, .. }
            | TxnMsg::StreamData { txn, .. }
            | TxnMsg::ChainUpdate { txn, .. } => Some(*txn),
            TxnMsg::Reliable { inner, .. } => inner.txn(),
            TxnMsg::Ping | TxnMsg::Pong | TxnMsg::Ack { .. } => None,
        }
    }
}

impl Message for TxnMsg {
    fn kind(&self) -> &'static str {
        match self {
            TxnMsg::Invoke { .. } => "invoke",
            TxnMsg::Result { .. } => "result",
            TxnMsg::Fault { .. } => "fault",
            TxnMsg::Abort { .. } => "abort",
            TxnMsg::Commit { .. } => "commit",
            TxnMsg::Inquire { .. } => "inquire",
            TxnMsg::Compensate { .. } => "compensate",
            TxnMsg::Ping => "ping",
            TxnMsg::Pong => "pong",
            TxnMsg::Redirected { .. } => "redirected",
            TxnMsg::DisconnectNotice { .. } => "disconnect-notice",
            TxnMsg::StreamData { .. } => "stream",
            TxnMsg::ChainUpdate { .. } => "chain-update",
            // Transparent for metrics: a wrapped invoke still counts as
            // an invoke (the envelope is a delivery artifact, not a
            // protocol step).
            TxnMsg::Reliable { inner, .. } => inner.kind(),
            TxnMsg::Ack { .. } => "ack",
        }
    }

    fn is_retransmit(&self) -> bool {
        matches!(self, TxnMsg::Reliable { attempt, .. } if *attempt > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        use std::collections::HashSet;
        let txn = TxnId::new(PeerId(1), 0);
        let inv = InvocationId::new(PeerId(1), 0);
        let chain = ActiveList::new(PeerId(1), false);
        let msgs: Vec<TxnMsg> = vec![
            TxnMsg::Invoke { txn, inv, method: "m".into(), params: vec![], chain: chain.clone(), prefilled: vec![] },
            TxnMsg::Result { txn, inv, items: Arc::new([]), comp: vec![], chain },
            TxnMsg::Fault { txn, inv, fault: Fault::injected("x") },
            TxnMsg::Abort { txn },
            TxnMsg::Commit { txn, covered: None },
            TxnMsg::Inquire { txn },
            TxnMsg::Compensate { txn, service: CompensatingService::default() },
            TxnMsg::Ping,
            TxnMsg::Pong,
            TxnMsg::Redirected { txn, failed_parent: PeerId(3), method: "m".into(), items: Arc::new([]), comp: vec![] },
            TxnMsg::DisconnectNotice { txn, disconnected: PeerId(3) },
            TxnMsg::StreamData { txn, seq: 0 },
            TxnMsg::ChainUpdate { txn, chain: ActiveList::new(PeerId(1), false), acks: AckIds::default() },
            TxnMsg::Ack { ids: AckIds::default() },
        ];
        let kinds: HashSet<&'static str> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    /// A message is moved into a batch slot on every send and out of it
    /// on every delivery, and a queue entry through every heap sift: a new
    /// field must not silently fatten either.
    #[test]
    fn messages_and_queue_entries_stay_small() {
        let msg = std::mem::size_of::<TxnMsg>();
        assert!(msg <= 136, "TxnMsg grew to {msg} bytes");
        let entry = axml_p2p::sim::scheduled_entry_size::<TxnMsg>();
        assert!(entry <= 64, "a scheduled TxnMsg entry grew to {entry} bytes");
    }

    #[test]
    fn reliable_envelope_is_transparent_for_kind_and_flags_retransmits() {
        let txn = TxnId::new(PeerId(1), 0);
        let acks = AckIds::default();
        let first = TxnMsg::Reliable { id: 1, attempt: 0, inner: Arc::new(TxnMsg::Abort { txn }), acks };
        let again = TxnMsg::Reliable { id: 1, attempt: 2, inner: Arc::new(TxnMsg::Abort { txn }), acks };
        assert_eq!(first.kind(), "abort");
        assert!(!first.is_retransmit());
        assert!(again.is_retransmit());
        assert!(!TxnMsg::Ack { ids: acks }.is_retransmit());
    }

    #[test]
    fn carried_ack_ids_fill_in_order_and_refuse_overflow() {
        let mut acks = AckIds::default();
        assert!(acks.as_slice().is_empty());
        for id in 0..AckIds::CAPACITY as u64 {
            assert!(acks.push(10 + id));
        }
        assert!(!acks.push(99), "a full array takes no more");
        assert_eq!(acks.as_slice(), [10, 11, 12, 13]);
    }
}
