#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic discrete-event P2P substrate.
//!
//! The paper's protocols (§3.2, §3.3) are defined over an AXML peer
//! network with churn: "in true P2P style, we consider that the set of
//! peers in the AXML system keeps changing with peers joining and leaving
//! the system arbitrarily". A real 2007 deployment is neither available
//! nor necessary — the recovery and disconnection protocols depend only on
//! *who can talk to whom, when, with what latency, and who notices
//! failures when* (see DESIGN.md §2). This crate provides exactly that as
//! a seeded, fully deterministic simulation:
//!
//! - [`Sim`]: the event loop. Actors (one per peer) exchange typed
//!   messages with seeded latency; timers drive pings, retries, and
//!   subscription streams.
//! - Synchronous reachability: [`Ctx::send`] fails immediately with
//!   [`SendError::Unreachable`] when the target is disconnected — this is
//!   how AP6 "detects the disconnection of AP3 *while trying to return the
//!   results*" in scenario (b). Messages in flight when the target
//!   disconnects are dropped (detection then falls to timeouts).
//! - Scripted churn: [`Sim::schedule_disconnect`] and
//!   [`Sim::schedule_reconnect`]. **Super peers** ("trusted peers which
//!   do not disconnect") ignore a disconnect.
//! - [`PingMonitor`]: the keep-alive failure detector peers embed
//!   ("related P2P research relies on ping (or keep-alive) messages to
//!   detect peer disconnection").
//! - [`FaultPlane`]: seeded probabilistic and scripted per-link message
//!   drops, duplication, delay spikes, reordering, windowed partitions,
//!   and crash-restart events — the adversary the chaos harness sweeps
//!   and shrinks against.
//! - [`Directory`]: peer addressing (`peer://ap2` ↔ [`PeerId`]) and the
//!   replica registry used for forward recovery on replicated documents.

pub mod detect;
pub mod directory;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod sim;

pub use detect::PingMonitor;
pub use directory::Directory;
pub use fault::{CrashEvent, FaultAction, FaultPlane, Partition, ScriptedFault, StorageFaultPlane};
pub use ids::{PeerId, TimerId};
pub use metrics::NetMetrics;
pub use sim::{Actor, Ctx, LatencyModel, Message, SendError, Sim, SimConfig};

// Re-exported so protocol layers and harnesses name one tracing surface.
pub use axml_trace::{fnv64, EventKind, Fnv64, Snapshot, SpanRef, TraceEvent, TraceJournal, TraceSink, TxnRef};
