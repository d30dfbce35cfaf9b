//! axml-spec: the executable reference model of the paper's atomicity
//! protocol, with a bounded explicit-state checker and a trace
//! conformance checker.
//!
//! The paper leaves a formal study of the nested-recovery + chaining
//! protocol as future work; this crate supplies the specification half
//! that the implementation (`axml-core`), the chaos oracle
//! (`axml-chaos`), and the online monitor (`axml-obs`) are checked
//! against:
//!
//! - [`model`] — a small-step transition system over abstract
//!   configurations (per-peer phase, forward-log length, compensation
//!   progress, in-flight messages), independent of `core::peer`. Rules
//!   `R01`–`R10`, invariants `I1`–`I5`.
//! - [`check`] — BFS over all interleavings of small configurations
//!   (2–4 peers, optional fault/crash/duplicate events) with canonical
//!   state hashing; violations come with shortest counterexample traces.
//!   The forward-order-compensation broken-peer variant is refuted with a
//!   concrete trace; the clean catalogue explores with zero violations.
//! - [`conform`] — replays recorded `axml-trace` journals through the
//!   protocol rule engine (`axml_trace::rules`, shared with the online
//!   monitor), naming each breach by its model invariant and rule and
//!   reporting the first divergence with its causal context. Wired into
//!   every traced `axml-chaos` case.
//!
//! The `axml-spec` binary exposes both: `axml-spec check` and
//! `axml-spec conform --journal FILE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod conform;
pub mod model;

pub use check::{check, check_catalogue, CheckReport, SpecViolation};
pub use conform::{check_journal, Conformance, Divergence};
pub use model::{Msg, MsgKind, PeerFrame, Phase, SpecConfig, SpecStep, State};
