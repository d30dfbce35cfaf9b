#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Query and update language over [`axml_xml`] trees.
//!
//! The paper expresses operations in a `select … from … where …` dialect
//! (§3.1):
//!
//! ```text
//! Select p/citizenship from p in ATPList//player
//!   where p/name/lastname = Federer;
//! ```
//!
//! and update actions as XQuery!-style actions with a `<location>` query
//! plus, for inserts/replaces, a `<data>` payload:
//!
//! ```text
//! <action type="delete"><location>Select …</location></action>
//! ```
//!
//! This crate implements:
//!
//! - [`PathExpr`]: path expressions (`/` child, `//` descendant, `*`
//!   wildcard, `..` parent, `[pred]` predicates) with evaluation in
//!   document order;
//! - [`SelectQuery`]: the select-from-where form, with existential
//!   comparison semantics in the `where` clause;
//! - [`UpdateAction`]: the four action types (`insert`, `delete`,
//!   `replace`, `query`) and their application to a document, reporting
//!   the **primitive effects** (what was inserted where, which subtrees
//!   were deleted from which positions) that the transaction layer logs to
//!   build compensating operations at run time;
//! - [`NodePath`]: stable root-relative structural addresses, the
//!   peer-independent way to refer to a node across document replicas;
//! - [`QueryTree`]: the navigation the evaluator needs from a tree. A
//!   [`axml_xml::Document`] is one; `axml-doc` supplies another that sees
//!   through `axml:sc` wrappers.
//!
//! # Example
//!
//! ```
//! use axml_xml::Document;
//! use axml_query::SelectQuery;
//!
//! let doc = Document::parse(
//!     "<ATPList><player><name><lastname>Federer</lastname></name>\
//!      <citizenship>Swiss</citizenship></player></ATPList>").unwrap();
//! let q = SelectQuery::parse(
//!     "Select p/citizenship from p in ATPList//player \
//!      where p/name/lastname = Federer;").unwrap();
//! let hits = q.eval(&doc).unwrap();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(doc.text_content(hits[0]).unwrap(), "Swiss");
//! ```

pub mod cond;
pub mod error;
pub mod nodepath;
pub mod path;
pub mod select;
pub mod tree;
pub mod update;

pub use cond::{CmpOp, Condition, Operand};
pub use error::QueryError;
pub use nodepath::NodePath;
pub use path::{Axis, NameTest, PathExpr, Pred, Step};
pub use select::SelectQuery;
pub use tree::QueryTree;
pub use update::{ActionType, Effect, InsertPos, Locator, UpdateAction, UpdateReport};
