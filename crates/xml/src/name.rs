//! Qualified names (`prefix:local`).
//!
//! AXML documents mix plain element names (`player`, `points`) with
//! namespaced control elements (`axml:sc`, `axml:params`, `axml:catch`).
//! We keep namespace handling deliberately prefix-based: the AXML engine
//! recognizes the `axml` prefix literally, as the original platform did in
//! practice. Full URI-based namespace resolution is out of scope for the
//! protocols under study.
//!
//! Both parts are [`NameId`]s — interned `&'static str`s, not owned
//! `String`s — so cloning a `QName` (fragment capture, materialization,
//! view construction all do this per node) copies 32 bytes and dropping
//! one does nothing. Comparison, hashing, ordering and the serde
//! encoding are all by string content, so behavior and every serialized
//! byte match the pre-interning representation.

use crate::intern::NameId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A qualified XML name: an optional prefix plus a local part.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QName {
    /// Namespace prefix, e.g. `axml` in `axml:sc`. `None` for unprefixed names.
    pub prefix: Option<NameId>,
    /// Local part, e.g. `sc` in `axml:sc`.
    pub local: NameId,
}

impl QName {
    /// Builds a name from a raw string, splitting on the first `:`.
    ///
    /// ```
    /// use axml_xml::QName;
    /// let q = QName::new("axml:sc");
    /// assert_eq!(q.prefix.as_deref(), Some("axml"));
    /// assert_eq!(q.local, "sc");
    /// assert_eq!(QName::new("player").prefix, None);
    /// ```
    pub fn new(raw: &str) -> Self {
        match raw.split_once(':') {
            Some((p, l)) if !p.is_empty() && !l.is_empty() => {
                QName { prefix: Some(NameId::new(p)), local: NameId::new(l) }
            }
            _ => QName { prefix: None, local: NameId::new(raw) },
        }
    }

    /// Builds an unprefixed name.
    pub fn local(local: impl Into<NameId>) -> Self {
        QName { prefix: None, local: local.into() }
    }

    /// Builds a prefixed name.
    pub fn prefixed(prefix: impl Into<NameId>, local: impl Into<NameId>) -> Self {
        QName { prefix: Some(prefix.into()), local: local.into() }
    }

    /// True if this name carries the given prefix.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.prefix.as_deref() == Some(prefix)
    }

    /// True if the name matches `prefix:local` exactly.
    pub fn is(&self, prefix: Option<&str>, local: &str) -> bool {
        self.prefix.as_deref() == prefix && self.local == local
    }

    /// True if the name matches `raw` in its `prefix:local` spelling,
    /// without interning `raw` (cheap for ad-hoc lookups).
    pub fn matches_raw(&self, raw: &str) -> bool {
        match raw.split_once(':') {
            Some((p, l)) if !p.is_empty() && !l.is_empty() => self.prefix.as_deref() == Some(p) && self.local == l,
            _ => self.prefix.is_none() && self.local == raw,
        }
    }

    /// Appends the full `prefix:local` form to `out`.
    pub fn push_to(&self, out: &mut String) {
        if let Some(p) = &self.prefix {
            out.push_str(p);
            out.push(':');
        }
        out.push_str(&self.local);
    }

    /// The full `prefix:local` form.
    pub fn as_string(&self) -> String {
        let mut out = String::new();
        self.push_to(&mut out);
        out
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => write!(f, "{}", self.local),
        }
    }
}

impl From<&str> for QName {
    fn from(raw: &str) -> Self {
        QName::new(raw)
    }
}

impl From<String> for QName {
    fn from(raw: String) -> Self {
        QName::new(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_first_colon() {
        let q = QName::new("a:b:c");
        assert_eq!(q.prefix.as_deref(), Some("a"));
        assert_eq!(q.local, "b:c");
    }

    #[test]
    fn degenerate_colons_treated_as_local() {
        assert_eq!(QName::new(":x"), QName::local(":x"));
        assert_eq!(QName::new("x:"), QName::local("x:"));
        assert_eq!(QName::new(":"), QName::local(":"));
    }

    #[test]
    fn display_round_trips() {
        for raw in ["player", "axml:sc", "ns:deep"] {
            assert_eq!(QName::new(raw).to_string(), raw);
        }
    }

    #[test]
    fn is_and_has_prefix() {
        let q = QName::new("axml:sc");
        assert!(q.is(Some("axml"), "sc"));
        assert!(!q.is(None, "sc"));
        assert!(q.has_prefix("axml"));
        assert!(!q.has_prefix("xml"));
        assert!(QName::new("sc").is(None, "sc"));
    }

    #[test]
    fn matches_raw_agrees_with_new() {
        for raw in ["player", "axml:sc", "a:b:c", ":x", "x:", ":"] {
            let q = QName::new(raw);
            assert!(q.matches_raw(raw), "{raw}");
            assert!(!q.matches_raw("unrelated"));
        }
        assert!(!QName::new("axml:sc").matches_raw("sc"));
        assert!(!QName::new("sc").matches_raw("axml:sc"));
    }

    #[test]
    fn from_impls() {
        let a: QName = "axml:value".into();
        let b: QName = String::from("axml:value").into();
        assert_eq!(a, b);
    }

    #[test]
    fn clone_shares_interned_parts() {
        use crate::intern::intern_stats;
        let q = QName::new("axml:sc");
        let before = intern_stats();
        let r = q.clone();
        assert_eq!(intern_stats(), before, "QName clone must not touch the intern table");
        assert_eq!(q, r);
    }
}
