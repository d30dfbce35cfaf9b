#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `axml` — Atomicity for P2P based XML Repositories.
//!
//! A from-scratch Rust reproduction of Biswas & Kim, *"Atomicity for P2P
//! based XML Repositories"* (ICDE 2007): a transactional framework giving
//! relaxed ACID properties to ActiveXML (AXML) systems — XML documents
//! with embedded Web service calls hosted on P2P peers.
//!
//! This facade crate re-exports the whole stack:
//!
//! | layer | crate | what lives there |
//! |---|---|---|
//! | XML store | [`xml`] | arena documents, stable node ids, parser, fragments |
//! | queries | [`query`] | paths, select-from-where, update actions, effects |
//! | ActiveXML | [`doc`] | embedded service calls, services, materialization |
//! | P2P fabric | [`p2p`] | deterministic simulator, churn, failure detection |
//! | **the paper** | [`core`] | transactions, dynamic compensation, nested & peer-independent recovery, chaining |
//! | workloads | [`workload`] | generators for documents, ops, trees |
//!
//! # Quickstart
//!
//! ```
//! use axml::prelude::*;
//!
//! // The paper's Fig. 1 scenario: a transaction over six peers, with a
//! // fault injected at AP5 — the nested recovery protocol aborts and
//! // compensates everything.
//! let mut cfg = PeerConfig::default();
//! cfg.use_alternative_providers = false;
//! let mut scenario = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
//! let report = scenario.run();
//! assert!(!report.outcome.unwrap().committed);
//! assert!(report.atomic, "all effects were compensated");
//! ```

pub use axml_core as core;
pub use axml_doc as doc;
pub use axml_p2p as p2p;
pub use axml_query as query;
pub use axml_workload as workload;
pub use axml_xml as xml;

/// The most commonly used items, for `use axml::prelude::*`.
pub mod prelude {
    pub use axml_core::scenarios::{Flavor, Scenario, ScenarioBuilder, ScenarioReport};
    pub use axml_core::{
        sphere_guarantees_atomicity, ActiveList, AxmlPeer, Chaining, CompensatingService, InvocationId, PeerConfig,
        RecoveryStyle, TransactionContext, TxnId, TxnMsg, TxnOutcome, TxnState,
    };
    pub use axml_doc::{
        EvalMode, Fault, MaterializationEngine, Repository, ScMode, ServiceCall, ServiceDef, ServiceRegistry,
        TransparentView,
    };
    pub use axml_p2p::{Directory, PeerId, Sim, SimConfig};
    pub use axml_query::{Locator, PathExpr, SelectQuery, UpdateAction};
    pub use axml_xml::{Document, Fragment, NodeId, QName};
}
