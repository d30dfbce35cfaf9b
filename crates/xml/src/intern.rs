//! Interned XML name strings.
//!
//! XML documents repeat the same handful of names (`player`, `axml:sc`,
//! `serviceURL`, …) across thousands of nodes, and the hot paths —
//! fragment capture, subtree materialization, view construction — used
//! to deep-clone a `String` per name per node. [`NameId`] replaces those
//! strings with a `&'static str` drawn from a thread-local intern table:
//! the first sighting of a spelling allocates once and *leaks* that
//! allocation, every later sighting returns the same reference, and a
//! clone or a drop is a plain copy — no reference count, so a structure
//! full of names (a document's arena, a fragment's table) is dropped
//! without visiting them.
//!
//! The table lived as long as its thread anyway; leaking means a thread's
//! spellings (a few hundred bytes for an AXML vocabulary) stay allocated
//! after it exits. A process that spawns threads without bound and
//! interns fresh names on each would grow by that much per thread.
//!
//! Properties relied on elsewhere:
//!
//! - **Content equality.** `NameId` compares, hashes and orders by the
//!   underlying string (pointer equality is only a fast path), so ids
//!   interned on different threads — the table is thread-local precisely
//!   so `Document` stays `Send + Sync` without a global lock — still
//!   compare equal.
//! - **Transparent serialization.** The serde impls read and write plain
//!   strings, so every JSON shape (WAL frames, trace journals, specs)
//!   is byte-identical to the pre-interning output.
//! - **Observable allocation.** [`intern_stats`] exposes per-thread
//!   hit/miss counters; tests pin hot paths to zero misses the same way
//!   PR 5 pinned the clone-free delivery path.

use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

thread_local! {
    static TABLE: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// An interned string handle. Free to clone and to drop, compares by
/// content, dereferences to `&str`.
#[derive(Clone)]
pub struct NameId(&'static str);

impl NameId {
    /// Interns `s`, returning the canonical handle for this thread.
    pub fn new(s: &str) -> Self {
        TABLE.with(|t| {
            let mut table = t.borrow_mut();
            if let Some(existing) = table.get(s) {
                HITS.with(|c| c.set(c.get() + 1));
                NameId(existing)
            } else {
                MISSES.with(|c| c.set(c.get() + 1));
                let leaked: &'static str = Box::leak(Box::from(s));
                table.insert(leaked);
                NameId(leaked)
            }
        })
    }

    /// The interned string.
    pub fn as_str(&self) -> &str {
        self.0
    }
}

/// Interns `s` (free-function form of [`NameId::new`]).
pub fn intern(s: &str) -> NameId {
    NameId::new(s)
}

/// This thread's intern-table counters as `(hits, misses)`.
///
/// A *miss* is a fresh allocation into the table; a *hit* found the
/// spelling already interned. Clones of a `NameId` touch neither.
pub fn intern_stats() -> (u64, u64) {
    (HITS.with(Cell::get), MISSES.with(Cell::get))
}

/// Number of distinct spellings interned on this thread.
pub fn intern_table_len() -> usize {
    TABLE.with(|t| t.borrow().len())
}

impl Deref for NameId {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for NameId {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for NameId {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for NameId {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for NameId {}

impl Hash for NameId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialOrd for NameId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(other.0)
    }
}

impl PartialEq<str> for NameId {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for NameId {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for NameId {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<NameId> for str {
    fn eq(&self, other: &NameId) -> bool {
        self == other.0
    }
}

impl PartialEq<NameId> for &str {
    fn eq(&self, other: &NameId) -> bool {
        *self == other.0
    }
}

impl PartialEq<NameId> for String {
    fn eq(&self, other: &NameId) -> bool {
        self.as_str() == other.0
    }
}

impl fmt::Debug for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for NameId {
    fn from(s: &str) -> Self {
        NameId::new(s)
    }
}

impl From<&String> for NameId {
    fn from(s: &String) -> Self {
        NameId::new(s)
    }
}

impl From<String> for NameId {
    fn from(s: String) -> Self {
        NameId::new(&s)
    }
}

impl From<&NameId> for NameId {
    fn from(s: &NameId) -> Self {
        s.clone()
    }
}

impl From<NameId> for String {
    fn from(s: NameId) -> String {
        s.0.to_string()
    }
}

impl From<&NameId> for String {
    fn from(s: &NameId) -> String {
        s.0.to_string()
    }
}

impl Serialize for NameId {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for NameId {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(NameId::new(s)),
            other => Err(DeError::new(format!("expected string for NameId, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spelling_shares_storage() {
        let a = NameId::new("player-intern-test");
        let b = NameId::new("player-intern-test");
        assert!(std::ptr::eq(a.0, b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn clones_are_free_of_table_traffic() {
        let a = NameId::new("clone-traffic-test");
        let before = intern_stats();
        let b = a.clone();
        let c = b.clone();
        assert_eq!(intern_stats(), before, "clones must not touch the table");
        assert_eq!(a, c);
    }

    #[test]
    fn re_intern_is_a_hit_not_a_miss() {
        let _a = NameId::new("hit-miss-test");
        let (h0, m0) = intern_stats();
        let _b = NameId::new("hit-miss-test");
        let (h1, m1) = intern_stats();
        assert_eq!(h1, h0 + 1);
        assert_eq!(m1, m0);
    }

    #[test]
    fn compares_by_content() {
        let a = NameId::new("content-eq");
        // Bypass the table to build a distinct allocation with equal text,
        // as a second thread's table would.
        let b = NameId(Box::leak(Box::from("content-eq")));
        assert!(!std::ptr::eq(a.0, b.0));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn str_comparisons_work_both_ways() {
        let a = NameId::new("sc");
        assert_eq!(a, "sc");
        assert_eq!("sc", a);
        assert_eq!(a, String::from("sc"));
        assert_ne!(a, "params");
    }

    #[test]
    fn orders_like_str() {
        let mut v = [NameId::new("b"), NameId::new("a"), NameId::new("c")];
        v.sort();
        let spelled: Vec<&str> = v.iter().map(|n| n.as_str()).collect();
        assert_eq!(spelled, ["a", "b", "c"]);
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        let a = NameId::new("axml:sc");
        let mut json = String::new();
        a.write_json(&mut json);
        assert_eq!(json, "\"axml:sc\"");
        let back = NameId::from_value(&Value::Str("axml:sc".to_string())).unwrap();
        assert_eq!(a, back);
        assert!(NameId::from_value(&Value::UInt(3)).is_err());
    }

    #[test]
    fn deref_gives_str_methods() {
        let a = NameId::new("axml:sc");
        assert!(a.starts_with("axml"));
        assert_eq!(a.len(), 7);
        let opt = Some(a);
        assert_eq!(opt.as_deref(), Some("axml:sc"));
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NameId>();
    }
}
