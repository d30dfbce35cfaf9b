#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The paper's contribution: a transactional framework with relaxed
//! atomicity for ActiveXML systems.
//!
//! Three pieces, mapping 1:1 to the paper's §3:
//!
//! - **Dynamic compensation (§3.1)** — [`compensate`]: compensating
//!   operations are *constructed at run time from the log*, never
//!   pre-declared. Insert ⇄ delete (by unique node ID), replace →
//!   replace-back (logged old value), query → inverse of whatever its lazy
//!   materialization actually did. Experiment E3 measures where the
//!   classical pre-declared model the paper argues against breaks.
//! - **Nested + peer-independent recovery (§3.2)** — [`peer::AxmlPeer`]'s
//!   abort protocol: a failing peer aborts its transaction context,
//!   compensates its local effects and propagates `Abort TA` to its
//!   invoker and invokees; intermediate peers may absorb the fault with
//!   the embedded call's fault handlers (retry / replica / substitute —
//!   *forward recovery*) or keep propagating (*backward recovery*). In
//!   peer-independent mode every invocation result carries a
//!   [`compensate::CompensatingService`] definition, so any peer (e.g. the
//!   origin) can drive compensation directly — the original peers "do not
//!   even need to be aware that the services they are executing are,
//!   basically, compensating services".
//! - **Peer disconnection via chaining (§3.3)** — [`chain::ActiveList`]
//!   (the paper's `[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]` notation)
//!   travels with every invocation; the disconnection handlers in
//!   [`peer`] implement scenarios (a)–(d) — leaf, parent-detected-by-child
//!   (with result re-routing and work reuse), child-detected-by-parent
//!   (with orphan notification), and sibling (missed stream intervals).
//!   [`spheres`] implements the Spheres-of-Atomicity check: atomicity is
//!   guaranteed iff every participant is a super peer.
//!
//! The executable reproductions of the paper's Fig. 1 and Fig. 2 live in
//! [`scenarios`].

pub mod chain;
pub mod compensate;
pub mod context;
mod delivery;
mod detector;
pub mod durability;
pub mod ids;
pub mod messages;
pub mod peer;
pub mod scenarios;
pub mod spheres;
mod timers;

pub use chain::ActiveList;
pub use compensate::{compensation_for_effects, CompensatingService};
pub use context::{LogRecord, TransactionContext, TxnOutcome, TxnState};
pub use durability::{
    decode as decode_journal, encode as encode_journal, journal_of, replay as replay_journal, DurabilitySink,
    JournalEntry, WalStats,
};
pub use ids::{InvocationId, TxnId};
pub use messages::TxnMsg;
pub use peer::{AxmlPeer, DetectHow, Detection, PeerConfig, PeerStats, RecoveryStyle, WsdlCatalog};
pub use spheres::sphere_guarantees_atomicity;
