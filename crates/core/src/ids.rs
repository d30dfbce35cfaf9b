//! Transaction and invocation identifiers.

use axml_p2p::{PeerId, SpanRef, TxnRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A transaction id, unique per origin peer.
///
/// Displayed as `T<origin>.<n>` (the paper writes `TA`, `TX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId {
    /// The origin peer ("the peer at which a transaction TA is originally
    /// submitted").
    pub origin: PeerId,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Builds a transaction id.
    pub fn new(origin: PeerId, seq: u64) -> TxnId {
        TxnId { origin, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.origin.0, self.seq)
    }
}

/// The form lifecycle events carry; it prints exactly as [`TxnId`] does.
impl From<TxnId> for TxnRef {
    fn from(t: TxnId) -> TxnRef {
        TxnRef::new(t.origin.0, t.seq)
    }
}

/// Identifies one service invocation within a transaction, unique per
/// *invoking* peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InvocationId {
    /// The peer that issued the invocation.
    pub invoker: PeerId,
    /// Per-invoker sequence number.
    pub seq: u64,
}

impl InvocationId {
    /// Builds an invocation id.
    pub fn new(invoker: PeerId, seq: u64) -> InvocationId {
        InvocationId { invoker, seq }
    }
}

impl fmt::Display for InvocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv{}.{}", self.invoker.0, self.seq)
    }
}

/// The form lifecycle events carry; it prints exactly as
/// [`InvocationId`] does.
impl From<InvocationId> for SpanRef {
    fn from(i: InvocationId) -> SpanRef {
        SpanRef::new(i.invoker.0, i.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TxnId::new(PeerId(1), 0).to_string(), "T1.0");
        assert_eq!(InvocationId::new(PeerId(3), 7).to_string(), "inv3.7");
    }

    #[test]
    fn trace_ids_print_as_the_protocol_ids_do() {
        for (peer, seq) in [(0, 0), (1, 0), (3, 7), (12, 345), (u32::MAX, u64::MAX)] {
            let (txn, inv) = (TxnId::new(PeerId(peer), seq), InvocationId::new(PeerId(peer), seq));
            assert_eq!(TxnRef::from(txn).to_string(), txn.to_string());
            assert_eq!(SpanRef::from(inv).to_string(), inv.to_string());
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = TxnId::new(PeerId(1), 0);
        let b = TxnId::new(PeerId(1), 1);
        assert!(a < b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&a));
        assert!(!set.contains(&b));
    }
}
