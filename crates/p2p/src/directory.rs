//! Peer addressing and the replica registry.
//!
//! "AXML documents (or fragments of the documents) and services may be
//! replicated on multiple peers." (§1) The directory records, per document
//! and per service, which peers host it — the information forward
//! recovery uses to "retry the invocation using a replicated peer" and
//! the paper's note that a redo peer "can only be a peer containing a
//! replicated copy of the affected AXML document".

use crate::ids::PeerId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where documents and services live.
///
/// Copy-on-write: a clone shares the tables — a fabric hands every peer
/// the same directory — until one copy registers something new, which
/// then changes that copy alone.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    tables: Arc<Tables>,
}

#[derive(Debug, Clone, Default)]
struct Tables {
    doc_replicas: BTreeMap<String, Vec<PeerId>>,
    service_providers: BTreeMap<String, Vec<PeerId>>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Registers a replica of `doc` on `peer`.
    pub fn add_doc_replica(&mut self, doc: impl Into<String>, peer: PeerId) {
        let entry = Arc::make_mut(&mut self.tables).doc_replicas.entry(doc.into()).or_default();
        if !entry.contains(&peer) {
            entry.push(peer);
        }
    }

    /// Registers `peer` as a provider of `service`.
    pub fn add_service_provider(&mut self, service: impl Into<String>, peer: PeerId) {
        let entry = Arc::make_mut(&mut self.tables).service_providers.entry(service.into()).or_default();
        if !entry.contains(&peer) {
            entry.push(peer);
        }
    }

    /// Peers hosting a replica of `doc`, in registration order.
    pub fn doc_replicas(&self, doc: &str) -> &[PeerId] {
        self.tables.doc_replicas.get(doc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peers providing `service`, in registration order.
    pub fn service_providers(&self, service: &str) -> &[PeerId] {
        self.tables.service_providers.get(service).map(Vec::as_slice).unwrap_or(&[])
    }

    /// An alternative provider of `service`, excluding the given peers —
    /// the "alternative participant" used for forward recovery.
    pub fn alternative_provider(&self, service: &str, exclude: &[PeerId]) -> Option<PeerId> {
        self.service_providers(service).iter().copied().find(|p| !exclude.contains(p))
    }

    /// An alternative replica of `doc`, excluding the given peers.
    pub fn alternative_replica(&self, doc: &str, exclude: &[PeerId]) -> Option<PeerId> {
        self.doc_replicas(doc).iter().copied().find(|p| !exclude.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_registered_once() {
        let mut d = Directory::new();
        d.add_doc_replica("atp", PeerId(1));
        d.add_doc_replica("atp", PeerId(2));
        d.add_doc_replica("atp", PeerId(1));
        assert_eq!(d.doc_replicas("atp"), &[PeerId(1), PeerId(2)]);
        assert!(d.doc_replicas("other").is_empty());
    }

    #[test]
    fn alternative_provider_skips_excluded() {
        let mut d = Directory::new();
        d.add_service_provider("getPoints", PeerId(2));
        d.add_service_provider("getPoints", PeerId(5));
        assert_eq!(d.alternative_provider("getPoints", &[]), Some(PeerId(2)));
        assert_eq!(d.alternative_provider("getPoints", &[PeerId(2)]), Some(PeerId(5)));
        assert_eq!(d.alternative_provider("getPoints", &[PeerId(2), PeerId(5)]), None);
        assert_eq!(d.alternative_provider("unknown", &[]), None);
    }

    #[test]
    fn a_clone_shares_until_one_side_registers() {
        let mut a = Directory::new();
        a.add_service_provider("getPoints", PeerId(1));
        let mut b = a.clone();
        b.add_service_provider("getPoints", PeerId(2));
        b.add_doc_replica("atp", PeerId(2));
        assert_eq!(a.service_providers("getPoints"), &[PeerId(1)]);
        assert!(a.doc_replicas("atp").is_empty());
        assert_eq!(b.service_providers("getPoints"), &[PeerId(1), PeerId(2)]);
        assert_eq!(b.doc_replicas("atp"), &[PeerId(2)]);
    }

    #[test]
    fn alternative_replica() {
        let mut d = Directory::new();
        d.add_doc_replica("atp", PeerId(1));
        d.add_doc_replica("atp", PeerId(7));
        assert_eq!(d.alternative_replica("atp", &[PeerId(1)]), Some(PeerId(7)));
    }
}
