#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! XML substrate for the AXML atomicity reproduction.
//!
//! This crate implements, from scratch, the XML document store that the rest
//! of the system is built on:
//!
//! - [`Document`]: an arena-based mutable XML tree with **stable, unique
//!   node identifiers** ([`NodeId`]). The paper's dynamic-compensation
//!   protocol (§3.1) requires that an insert operation "returns the (unique)
//!   ID of the inserted node" so that its compensation can be formulated as
//!   a delete of that ID; the arena provides exactly this.
//! - [`parse`] / [`Document::parse`]: a small but real XML parser covering
//!   the subset AXML documents use (elements, attributes, namespaced names,
//!   text with entity references, CDATA, comments, processing instructions).
//! - [`Fragment`]: an owned, detached subtree value. Fragments are what gets
//!   written to transaction logs (the deleted/overwritten data needed to
//!   build compensating operations at run time) and what travels between
//!   peers as service-call results.
//! - [`canonical`]: ordered and unordered document equivalence, used by the
//!   compensation invariants ("apply ops; apply compensation ⇒ equivalent
//!   state", honoring the paper's caveat that plain re-insertion does not
//!   preserve sibling order).
//!
//! # Quick example
//!
//! ```
//! use axml_xml::Document;
//!
//! let mut doc = Document::parse("<list><item>a</item></list>").unwrap();
//! let root = doc.root();
//! let item = doc.create_element("item");
//! let txt = doc.create_text("b");
//! doc.append_child(item, txt).unwrap();
//! doc.append_child(root, item).unwrap();
//! assert_eq!(doc.to_xml(), "<list><item>a</item><item>b</item></list>");
//! ```

pub mod canonical;
pub mod error;
pub mod fragment;
pub mod intern;
pub mod name;
mod node;
pub mod parser;
pub mod serialize;
pub mod tree;

pub use canonical::{equivalent_ordered, equivalent_unordered};
pub use error::{ParseError, TreeError};
pub use fragment::{Fragment, FragmentKind};
pub use intern::{intern, intern_stats, intern_table_len, NameId};
pub use name::QName;
pub use parser::{parse, parse_fragment, ParseOptions};
pub use serialize::{escape_attr, escape_text, SerializeOptions};
pub use tree::{Climb, Document, NodeId, NodeKind};
