//! Spheres of Atomicity (§3.3).
//!
//! "It might not be possible to guarantee atomicity as long as peer
//! disconnection is possible. Here, we can use the notions of Spheres of
//! Atomicity \[18\] to check if atomicity is guaranteed, e.g., atomicity may
//! still be guaranteed for a transaction if all the involved peers (for
//! that transaction) are super peers."

use crate::chain::ActiveList;

/// Static check: does the (planned or observed) participant set guarantee
/// atomicity under arbitrary churn?
///
/// True iff every peer in the active list is a super peer. Super peers do
/// not disconnect, so every compensation / abort message is deliverable
/// and the relaxed-atomicity protocol always terminates in a consistent
/// state.
pub fn sphere_guarantees_atomicity(chain: &ActiveList) -> bool {
    chain.all_super()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_p2p::PeerId;

    #[test]
    fn all_super_guarantees() {
        let mut l = ActiveList::new(PeerId(1), true);
        l.add_invocation(PeerId(1), PeerId(2), true);
        l.add_invocation(PeerId(2), PeerId(3), true);
        assert!(sphere_guarantees_atomicity(&l));
    }

    #[test]
    fn one_regular_peer_breaks_the_sphere() {
        let mut l = ActiveList::new(PeerId(1), true);
        l.add_invocation(PeerId(1), PeerId(2), true);
        l.add_invocation(PeerId(2), PeerId(3), false);
        assert!(!sphere_guarantees_atomicity(&l));
    }

    #[test]
    fn origin_counts_too() {
        let l = ActiveList::new(PeerId(1), false);
        assert!(!sphere_guarantees_atomicity(&l));
    }
}
