//! The document repository an AXML peer hosts.

use axml_xml::Document;
use std::collections::BTreeMap;

/// Named AXML documents stored on one peer.
///
/// "AXML peers: Nodes where the AXML documents and services are hosted."
/// A `BTreeMap` keeps iteration deterministic for the simulator.
#[derive(Debug, Default, Clone)]
pub struct Repository {
    docs: BTreeMap<String, Document>,
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    /// Stores (or replaces) a document under `name`.
    pub fn put(&mut self, name: impl Into<String>, doc: Document) {
        self.docs.insert(name.into(), doc);
    }

    /// Parses and stores a document.
    pub fn put_xml(&mut self, name: impl Into<String>, xml: &str) -> Result<(), axml_xml::ParseError> {
        self.docs.insert(name.into(), Document::parse(xml)?);
        Ok(())
    }

    /// Immutable access to a document.
    pub fn get(&self, name: &str) -> Option<&Document> {
        self.docs.get(name)
    }

    /// Mutable access to a document.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Document> {
        self.docs.get_mut(name)
    }

    /// Removes a document.
    pub fn remove(&mut self, name: &str) -> Option<Document> {
        self.docs.remove(name)
    }

    /// Document names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.docs.keys().map(String::as_str).collect()
    }

    /// Every `(name, document)`, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Document)> {
        self.docs.iter().map(|(name, doc)| (name.as_str(), doc))
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total node count across all documents (capacity metric).
    pub fn total_nodes(&self) -> usize {
        self.docs.values().map(Document::node_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut repo = Repository::new();
        assert!(repo.is_empty());
        repo.put_xml("atp", "<ATPList/>").unwrap();
        repo.put("other", Document::new("r"));
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.names(), vec!["atp", "other"]);
        assert_eq!(repo.get("atp").unwrap().to_xml(), "<ATPList/>");
        let atp = repo.get_mut("atp").unwrap();
        let root = atp.root();
        atp.set_attr(root, "date", "x").unwrap();
        assert!(repo.remove("atp").is_some());
        assert!(repo.get("atp").is_none());
        assert!(repo.remove("atp").is_none());
        assert_eq!(repo.total_nodes(), 1);
    }

    #[test]
    fn put_xml_rejects_bad_xml() {
        let mut repo = Repository::new();
        assert!(repo.put_xml("bad", "<a><b>").is_err());
        assert!(repo.is_empty());
    }

    #[test]
    fn replace_document() {
        let mut repo = Repository::new();
        repo.put_xml("d", "<a/>").unwrap();
        repo.put_xml("d", "<b/>").unwrap();
        assert_eq!(repo.get("d").unwrap().to_xml(), "<b/>");
        assert_eq!(repo.len(), 1);
    }
}
