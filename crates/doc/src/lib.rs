#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ActiveXML (AXML) document layer.
//!
//! AXML documents are XML documents with embedded Web service calls
//! (`<axml:sc>` elements). This crate implements everything §1 and §3.1 of
//! the paper assume of the AXML platform:
//!
//! - [`ServiceCall`]: the embedded-call element, with `mode`
//!   (`replace`/`merge`), parameters that may themselves be service calls
//!   (**local nesting**), and BPEL4WS-style
//!   fault handlers (`axml:catch`, `axml:catchAll`, `axml:retry` — §3.2);
//! - [`ServiceDef`]: AXML services — "Web services defined as
//!   queries/updates over AXML documents" — plus simulated generic Web
//!   services, with a WSDL-like descriptor including declared result
//!   element names (used by lazy relevance analysis);
//! - [`Repository`]: the named documents an AXML peer hosts;
//! - [`TransparentView`]: query evaluation that sees *through* `axml:sc`
//!   wrappers (previous invocation results are logically siblings of the
//!   ordinary content);
//! - [`MaterializationEngine`]: lazy and eager materialization. Lazy
//!   evaluation "implies that only those embedded service calls are
//!   materialized whose results are required for evaluating the query" —
//!   the reason §3.1 concludes compensation for queries must be
//!   constructed dynamically. Every materialization reports the primitive
//!   [`axml_query::Effect`]s it performed, which is exactly what the
//!   transaction log consumes.

pub mod consts;
pub mod fault;
pub mod materialize;
pub mod repo;
pub mod sc;
pub mod service;
pub mod shared;
pub mod view;

pub use fault::Fault;
pub use materialize::{
    apply_call_results, EvalMode, InvocationRecord, LocalInvoker, MaterializationEngine, MaterializationReport,
    ResolvedCall, ServiceInvoker, ServiceResponse, MAX_DEPTH,
};
pub use repo::Repository;
pub use sc::{FaultHandler, HandlerAction, Param, ParamValue, ScMode, ServiceCall};
pub use service::{ServiceDef, ServiceKind, ServiceRegistry};
pub use shared::SharedRepository;
pub use view::apply_update_transparent;
pub use view::TransparentView;
