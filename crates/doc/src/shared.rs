//! Thread-safe repository sharing.
//!
//! "Concurrent (simultaneous) access: the number of users accessing the
//! system simultaneously can be very high." (§1) The distributed protocol
//! itself runs in the deterministic simulator, but an AXML peer also
//! serves *local* users concurrently: many readers evaluating queries
//! plus service executions mutating documents. [`SharedRepository`] wraps
//! a [`Repository`] in a `parking_lot::RwLock` so query evaluation
//! parallelizes while updates serialize, with convenience closures that
//! keep lock scopes tight.

use crate::fault::Fault;
use crate::repo::Repository;
use crate::view::TransparentView;
use axml_query::SelectQuery;
use axml_xml::Fragment;
use parking_lot::RwLock;
use std::sync::Arc;

/// A cloneable, thread-safe handle to a peer's repository.
#[derive(Debug, Clone, Default)]
pub struct SharedRepository {
    inner: Arc<RwLock<Repository>>,
}

impl SharedRepository {
    /// Wraps a repository.
    pub fn new(repo: Repository) -> SharedRepository {
        SharedRepository { inner: Arc::new(RwLock::new(repo)) }
    }

    /// Runs a closure with shared (read) access.
    pub fn read<T>(&self, f: impl FnOnce(&Repository) -> T) -> T {
        f(&self.inner.read())
    }

    /// Runs a closure with exclusive (write) access.
    pub fn write<T>(&self, f: impl FnOnce(&mut Repository) -> T) -> T {
        f(&mut self.inner.write())
    }

    /// Evaluates a select query transparently over a named document,
    /// returning the selected subtrees as owned fragments (ids don't
    /// escape the lock).
    pub fn query(&self, doc: &str, query: &SelectQuery) -> Result<Vec<Fragment>, Fault> {
        self.read(|repo| {
            let document = repo.get(doc).ok_or_else(|| Fault::execution(format!("no document {doc}")))?;
            let hits =
                TransparentView::eval(document, query).map_err(|e| Fault::execution(format!("query failed: {e}")))?;
            Ok(document.extract_fragments(&hits))
        })
    }

    /// Number of concurrent handles (diagnostics).
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::{Locator, UpdateAction};
    use std::thread;

    fn shared() -> SharedRepository {
        let mut repo = Repository::new();
        repo.put_xml("atp", "<ATPList><player><points>475</points></player></ATPList>").unwrap();
        SharedRepository::new(repo)
    }

    #[test]
    fn read_write_closures() {
        let s = shared();
        assert_eq!(s.read(|r| r.len()), 1);
        s.write(|r| r.put_xml("d2", "<x/>").unwrap());
        assert_eq!(s.read(|r| r.len()), 2);
    }

    #[test]
    fn query_returns_owned_fragments() {
        let s = shared();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player").unwrap();
        let frags = s.query("atp", &q).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].to_xml(), "<points>475</points>");
        assert!(s.query("missing", &q).is_err());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let s = shared();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player").unwrap();
        let mut handles = Vec::new();
        // 4 reader threads × many queries, 2 writer threads bumping points.
        for _ in 0..4 {
            let s = s.clone();
            let q = q.clone();
            handles.push(thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    let frags = s.query("atp", &q).unwrap();
                    assert_eq!(frags.len(), 1, "readers always see a consistent document");
                    seen += frags.len();
                }
                seen
            }));
        }
        for w in 0..2 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    let action = UpdateAction::replace(
                        Locator::parse("ATPList//points").unwrap(),
                        vec![Fragment::elem_text("points", format!("{}", 500 + w * 1000 + i))],
                    );
                    s.write(|repo| {
                        let doc = repo.get_mut("atp").unwrap();
                        crate::view::apply_update_transparent(doc, &action).unwrap();
                    });
                }
                100
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 4 * 200 + 2 * 100);
        // Final state: exactly one points element, with a writer's value.
        let frags = s.query("atp", &q).unwrap();
        assert_eq!(frags.len(), 1);
        let v: i64 = frags[0].text_content().parse().unwrap();
        assert!((500..2600).contains(&v), "{v}");
    }

    /// Readers extracting several subtrees at once race to fill the
    /// document's memory of what each is a copy of, while a writer keeps
    /// emptying it: every fragment a reader gets is its own subtree's.
    #[test]
    fn concurrent_readers_each_get_the_subtrees_they_asked_for() {
        // Subtrees large enough that a capture leaves room for another
        // reader to fill a memory in the middle of it.
        let results = "<m>x</m>".repeat(60);
        let players: String = (0..8)
            .map(|k| format!("<player n=\"{k}\"><name>P{k}</name><points>{k}</points>{results}</player>"))
            .collect();
        let mut repo = Repository::new();
        repo.put_xml("atp", &format!("<ATPList>{players}</ATPList>")).unwrap();
        let s = SharedRepository::new(repo);
        let q = SelectQuery::parse("Select p/points from p in ATPList//player").unwrap();
        let mut handles = Vec::new();
        for reader in 0..4 {
            let (s, q) = (s.clone(), q.clone());
            handles.push(thread::spawn(move || {
                for round in 0..2000 {
                    s.read(|repo| {
                        let doc = repo.get("atp").unwrap();
                        let mut ids: Vec<_> = doc.children(doc.root()).unwrap().collect();
                        let turn = (reader + round) % ids.len();
                        ids.rotate_left(turn);
                        ids.truncate(3 + turn % 6);
                        for (id, fragment) in ids.iter().zip(doc.extract_fragments(&ids)) {
                            assert_eq!(fragment.to_xml(), doc.subtree_to_xml(*id), "reader {reader}, round {round}");
                        }
                    });
                    let points = s.query("atp", &q).unwrap();
                    let texts: Vec<String> = points.iter().map(Fragment::text_content).collect();
                    assert_eq!(texts, (0..8).map(|k| k.to_string()).collect::<Vec<_>>());
                }
            }));
        }
        let writer = s.clone();
        handles.push(thread::spawn(move || {
            for round in 0..600 {
                writer.write(|repo| {
                    let doc = repo.get_mut("atp").unwrap();
                    let players: Vec<_> = doc.children(doc.root()).unwrap().collect();
                    for player in players {
                        doc.set_attr(player, "round", round.to_string()).unwrap();
                    }
                });
                thread::yield_now();
            }
        }));
        handles.into_iter().for_each(|h| h.join().unwrap());
        s.read(|repo| repo.get("atp").unwrap().check_consistency().unwrap());
    }

    #[test]
    fn handles_counted() {
        let s = shared();
        assert_eq!(s.handles(), 1);
        let s2 = s.clone();
        assert_eq!(s.handles(), 2);
        drop(s2);
        assert_eq!(s.handles(), 1);
    }
}
