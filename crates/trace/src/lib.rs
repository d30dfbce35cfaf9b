//! Structured transaction-lifecycle tracing.
//!
//! The chaos oracle (see `axml-chaos`) checks atomicity as a final-state
//! predicate — when it fails, the *why* is a causally-ordered sequence of
//! protocol transitions spread over many peers. This crate is the
//! zero-dependency event model for that record: peers emit typed
//! [`TraceEvent`]s (invoke, materialize, log-append, compensate,
//! abort-propagate, ack/retransmit/dedup, detect, crash/restart), the
//! simulator stamps them with logical time and collects them into a
//! per-run [`TraceJournal`], beside the gauge samples of its window
//! sampler. Because event order is a pure function of the simulator's
//! seeded schedule, replaying a scripted fault plane reproduces the
//! journal byte for byte.
//!
//! [`rules`] is the protocol rule engine over that stream, the one
//! state machine behind both the online monitor and trace conformance.
//!
//! [`Snapshot`] is the companion registry: one flat `name → counter` map
//! unifying the simulator's `NetMetrics` with per-peer protocol stats,
//! included in trace dumps so a journal is self-describing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::json::write_u64;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

pub mod rules;

/// Where the simulator sends trace events.
///
/// Lives in the simulator config; [`TraceSink::Disabled`] (the default)
/// makes every emission a no-op so traced and untraced runs execute the
/// identical event schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceSink {
    /// Discard all events (the default — zero overhead).
    #[default]
    Disabled,
    /// Collect events into an in-memory [`TraceJournal`].
    Memory,
}

impl TraceSink {
    /// True if events are collected.
    pub fn enabled(&self) -> bool {
        matches!(self, TraceSink::Memory)
    }
}

/// An online consumer of trace events.
///
/// Where [`TraceJournal`] *stores* the event stream for post-hoc
/// analysis, an `EventSink` *watches* it as the run unfolds — the
/// simulator hands every stamped protocol event to the attached sink
/// before (or instead of) journaling it. Gauge samples never reach a
/// sink: the window sampler writes them into the journal's sample column
/// only. Sinks are observation-only: they must not influence the event
/// schedule, so attaching one never perturbs a seeded run. The online
/// protocol monitor in `axml-obs` is the primary implementation.
pub trait EventSink {
    /// Called once per emitted protocol event, in emission (seq) order.
    /// The seqs a sink sees skip the journal's samples.
    fn on_event(&mut self, event: &TraceEvent);
}

/// Shared handle to an [`EventSink`] — the simulator is single-threaded,
/// so plain `Rc<RefCell<..>>` interior mutability suffices.
pub type SharedSink = Rc<RefCell<dyn EventSink>>;

/// Orders two integers as their decimal spellings order as strings
/// (`1 < 10 < 2`).
fn cmp_as_decimal_text(a: u64, b: u64) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d + 1);
    let (da, db) = (digits(a), digits(b));
    // Pad the shorter one with zeros so leading digits line up; on a tie
    // one spelling is a prefix of the other and the shorter sorts first.
    let pad = |n: u64, by: u32| u128::from(n) * 10u128.pow(by);
    pad(a, db.saturating_sub(da)).cmp(&pad(b, da.saturating_sub(db))).then(da.cmp(&db))
}

/// One canonical decimal field of an id: digits only, no sign, no
/// leading zero — so text → id → text is the identity.
fn parse_decimal<N: FromStr>(text: &str) -> Option<N> {
    let canonical = text.bytes().all(|b| b.is_ascii_digit()) && (text == "0" || !text.starts_with('0'));
    if canonical {
        text.parse().ok()
    } else {
        None
    }
}

/// Defines a two-part trace id with a fixed text form `<prefix><peer>.<seq>`.
macro_rules! trace_id {
    ($(#[$doc:meta])* $name:ident, $peer:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            /// The peer that allocated the id.
            pub $peer: u32,
            /// That peer's sequence number.
            pub seq: u64,
        }

        impl $name {
            /// Builds an id from its two parts.
            pub fn new($peer: u32, seq: u64) -> $name {
                $name { $peer, seq }
            }

            /// Appends the text form (what `Display` prints) to `out`.
            pub fn push_to(&self, out: &mut String) {
                out.push_str($prefix);
                write_u64(u64::from(self.$peer), out);
                out.push('.');
                write_u64(self.seq, out);
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}.{}"), self.$peer, self.seq)
            }
        }

        impl FromStr for $name {
            type Err = String;

            fn from_str(text: &str) -> Result<$name, String> {
                text.strip_prefix($prefix)
                    .and_then(|rest| rest.split_once('.'))
                    .and_then(|(peer, seq)| Some($name { $peer: parse_decimal(peer)?, seq: parse_decimal(seq)? }))
                    .ok_or_else(|| format!(concat!("expected ", $prefix, "<peer>.<seq>, got {:?}"), text))
            }
        }

        /// Ids order as their text forms do (`T1.10` before `T1.2`): every
        /// report keyed by id lists them in that order.
        impl Ord for $name {
            fn cmp(&self, other: &$name) -> Ordering {
                cmp_as_decimal_text(u64::from(self.$peer), u64::from(other.$peer))
                    .then_with(|| cmp_as_decimal_text(self.seq, other.seq))
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &$name) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        /// The JSON form is the text form, as a string.
        impl Serialize for $name {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                self.push_to(out);
                out.push('"');
            }
        }

        impl Deserialize for $name {
            fn from_value(v: &Value) -> Result<$name, DeError> {
                v.as_str().ok_or_else(|| DeError::expected("id string", v))?.parse().map_err(DeError::new)
            }
        }
    };
}

trace_id! {
    /// A transaction id (`T<origin>.<seq>`) as the trace plane carries it.
    /// This crate sits below the protocol layer, which converts its own
    /// id into this one at the emit site.
    TxnRef, origin, "T"
}

trace_id! {
    /// An invocation-span id (`inv<invoker>.<seq>`).
    SpanRef, invoker, "inv"
}

/// What happened — one variant per protocol transition.
///
/// Peer ids are raw `u32`s (this crate sits below the p2p layer). Labels
/// that are literals at the emit site are `Cow<'static, str>`: borrowed
/// when emitted, owned when a journal is loaded from text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A transaction was submitted at its origin peer.
    Submit {
        /// Service method of the root invocation.
        method: String,
    },
    /// A service call was issued to a remote provider.
    Invoke {
        /// Provider peer.
        to: u32,
        /// Service method.
        method: String,
    },
    /// A provider started serving an incoming invocation.
    Serve {
        /// Invoking peer.
        from: u32,
        /// Service method.
        method: String,
    },
    /// Child results were materialized into the local document.
    Materialize {
        /// Target document.
        doc: String,
        /// Items merged.
        items: u64,
    },
    /// An entry was appended to the durable journal.
    LogAppend {
        /// Entry label (mirrors `JournalEntry` variant names).
        entry: String,
    },
    /// Results were returned to the invoker (or its chain substitute).
    ResultReturn {
        /// Receiving peer.
        to: u32,
    },
    /// A fault was raised up the invocation tree.
    FaultRaise {
        /// Receiving peer.
        to: u32,
    },
    /// A compensating action list was derived from the journal.
    CompensateDerive {
        /// Number of compensating actions.
        actions: u64,
    },
    /// Compensating actions were applied to local documents.
    CompensateApply {
        /// Number of compensating actions.
        actions: u64,
    },
    /// One compensating batch was applied, undoing one forward log
    /// record. `undoes` is the forward index of the log record being
    /// undone, so §3.1's reverse-order rule is checkable online: within
    /// a (peer, txn), successive `undoes` values must strictly decrease.
    CompensateOp {
        /// Document the batch was applied to.
        doc: String,
        /// Forward index (0-based, log order) of the record undone.
        undoes: u64,
        /// Number of compensating actions in the batch.
        actions: u64,
    },
    /// An abort was propagated to a subordinate.
    AbortPropagate {
        /// Receiving peer.
        to: u32,
    },
    /// The transaction reached a terminal state at this peer.
    Resolve {
        /// True for commit, false for abort.
        committed: bool,
    },
    /// A participant awaiting the decision asked another peer for it.
    Inquire {
        /// The peer asked (the origin, or a super ancestor).
        to: u32,
    },
    /// An acknowledgement was sent for a reliable delivery.
    AckSend {
        /// Receiving peer.
        to: u32,
        /// Delivery id.
        id: u64,
    },
    /// A reliable delivery was retransmitted.
    Retransmit {
        /// Receiving peer.
        to: u32,
        /// Delivery id.
        id: u64,
        /// Attempt number (1-based for the first resend).
        attempt: u32,
    },
    /// Retransmission gave up after `max_retransmits` attempts.
    RetransmitGiveUp {
        /// Receiving peer.
        to: u32,
        /// Delivery id.
        id: u64,
    },
    /// A duplicate reliable delivery was suppressed by the dedup set.
    DedupSuppress {
        /// Sending peer.
        from: u32,
        /// Delivery id.
        id: u64,
    },
    /// The dedup set was pruned of finalized-transaction entries.
    DedupPrune {
        /// Entries evicted.
        evicted: u64,
    },
    /// A peer failure was detected.
    Detect {
        /// The peer detected as failed/disconnected.
        peer: u32,
        /// Detection mechanism label.
        how: Cow<'static, str>,
    },
    /// The simulator crashed this peer (volatile state lost).
    Crash,
    /// The peer restarted and replayed its durable journal.
    Restart {
        /// In-doubt transactions presumed aborted during recovery.
        presumed_aborts: u64,
    },
    /// The simulator disconnected this peer.
    Disconnect,
    /// The simulator reconnected this peer.
    Reconnect,
    /// A sampled gauge reading (time-series plane). Written by the
    /// simulator's window sampler at fixed sim-time boundaries: `at` is
    /// the window boundary, `name` the metric (`outbox_depth`,
    /// `wal_bytes`, …), `value` the instantaneous reading on the
    /// sampled peer. A sample is not a protocol event: it lives in the
    /// journal's sample column ([`TraceJournal::samples`]), no
    /// [`EventSink`] receives it, and readers of
    /// [`TraceJournal::events`] never see it.
    Gauge {
        /// Metric name (snake_case, no peer prefix — the event's `peer`
        /// field scopes it).
        name: Cow<'static, str>,
        /// Instantaneous integer reading at the window boundary.
        value: u64,
    },
}

impl EventKind {
    /// Short stable label (used for grouping and counting).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Invoke { .. } => "invoke",
            EventKind::Serve { .. } => "serve",
            EventKind::Materialize { .. } => "materialize",
            EventKind::LogAppend { .. } => "log-append",
            EventKind::ResultReturn { .. } => "result-return",
            EventKind::FaultRaise { .. } => "fault-raise",
            EventKind::CompensateDerive { .. } => "compensate-derive",
            EventKind::CompensateApply { .. } => "compensate-apply",
            EventKind::CompensateOp { .. } => "compensate-op",
            EventKind::AbortPropagate { .. } => "abort-propagate",
            EventKind::Resolve { .. } => "resolve",
            EventKind::Inquire { .. } => "inquire",
            EventKind::AckSend { .. } => "ack-send",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::RetransmitGiveUp { .. } => "retransmit-give-up",
            EventKind::DedupSuppress { .. } => "dedup-suppress",
            EventKind::DedupPrune { .. } => "dedup-prune",
            EventKind::Detect { .. } => "detect",
            EventKind::Crash => "crash",
            EventKind::Restart { .. } => "restart",
            EventKind::Disconnect => "disconnect",
            EventKind::Reconnect => "reconnect",
            EventKind::Gauge { .. } => "gauge",
        }
    }

    /// Appends ` key=value …` for this kind's payload (nothing for the
    /// payload-free kinds).
    fn push_detail(&self, out: &mut String) {
        fn text(out: &mut String, label: &str, value: &str) {
            out.push_str(label);
            out.push_str(value);
        }
        fn num(out: &mut String, label: &str, value: impl Into<u64>) {
            out.push_str(label);
            write_u64(value.into(), out);
        }
        match self {
            EventKind::Submit { method } => text(out, " method=", method),
            EventKind::Invoke { to, method } => {
                num(out, " to=AP", *to);
                text(out, " method=", method);
            }
            EventKind::Serve { from, method } => {
                num(out, " from=AP", *from);
                text(out, " method=", method);
            }
            EventKind::Materialize { doc, items } => {
                text(out, " doc=", doc);
                num(out, " items=", *items);
            }
            EventKind::LogAppend { entry } => text(out, " entry=", entry),
            EventKind::ResultReturn { to }
            | EventKind::FaultRaise { to }
            | EventKind::AbortPropagate { to }
            | EventKind::Inquire { to } => {
                num(out, " to=AP", *to);
            }
            EventKind::CompensateDerive { actions } | EventKind::CompensateApply { actions } => {
                num(out, " actions=", *actions);
            }
            EventKind::CompensateOp { doc, undoes, actions } => {
                text(out, " doc=", doc);
                num(out, " undoes=", *undoes);
                num(out, " actions=", *actions);
            }
            EventKind::Resolve { committed } => out.push_str(if *committed { " committed" } else { " aborted" }),
            EventKind::AckSend { to, id } | EventKind::RetransmitGiveUp { to, id } => {
                num(out, " to=AP", *to);
                num(out, " id=", *id);
            }
            EventKind::Retransmit { to, id, attempt } => {
                num(out, " to=AP", *to);
                num(out, " id=", *id);
                num(out, " attempt=", *attempt);
            }
            EventKind::DedupSuppress { from, id } => {
                num(out, " from=AP", *from);
                num(out, " id=", *id);
            }
            EventKind::DedupPrune { evicted } => num(out, " evicted=", *evicted),
            EventKind::Detect { peer: detected, how } => {
                num(out, " peer=AP", *detected);
                text(out, " how=", how);
            }
            EventKind::Crash | EventKind::Disconnect | EventKind::Reconnect => {}
            EventKind::Restart { presumed_aborts } => num(out, " presumed-aborts=", *presumed_aborts),
            EventKind::Gauge { name, value } => {
                text(out, " name=", name);
                num(out, " value=", *value);
            }
        }
    }
}

/// One stamped lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Journal-wide sequence number (total order of emission).
    pub seq: u64,
    /// Simulator logical time.
    pub at: u64,
    /// Emitting peer.
    pub peer: u32,
    /// Emitting peer's crash-restart epoch.
    pub epoch: u64,
    /// Transaction this event belongs to, if any.
    pub txn: Option<TxnRef>,
    /// Invocation span this event belongs to, if any.
    pub span: Option<SpanRef>,
    /// Parent invocation span, if known — present on
    /// [`EventKind::Invoke`] events, from which the invocation tree of
    /// the paper's Figures 1–2 is reconstructed.
    pub parent: Option<SpanRef>,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Appends the one-line human rendering (`[t=…] label detail span=…
    /// parent=…`, no newline) — shared by [`TraceJournal::render_tree`]
    /// and the flight recorder.
    pub fn write_line(&self, out: &mut String) {
        out.push_str("[t=");
        // The time is right-aligned to five columns.
        for _ in self.at.checked_ilog10().map_or(1, |d| d + 1)..5 {
            out.push(' ');
        }
        write_u64(self.at, out);
        out.push_str(" AP");
        write_u64(u64::from(self.peer), out);
        out.push_str(" e");
        write_u64(self.epoch, out);
        out.push_str("] ");
        out.push_str(self.kind.label());
        self.kind.push_detail(out);
        if let Some(span) = &self.span {
            out.push_str(" span=");
            span.push_to(out);
        }
        if let Some(parent) = &self.parent {
            out.push_str(" parent=");
            parent.push_to(out);
        }
    }
}

/// The per-run event journal collected by the simulator.
///
/// Protocol events and the gauge samples of the time-series plane
/// ([`EventKind::Gauge`]) are kept in two columns, numbered by one `seq`
/// counter. Readers of the protocol walk [`Self::events`] and never step
/// over a sample; [`Self::samples`] is the other column. Only the
/// renderers ([`Self::to_json_lines`], [`Self::render_tree`],
/// [`Self::digest`]) merge the two back, by `seq`, through [`Self::iter`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceJournal {
    events: Vec<TraceEvent>,
    samples: Vec<TraceEvent>,
}

impl TraceJournal {
    /// Stamps and appends one event; `seq` is assigned here. A
    /// [`EventKind::Gauge`] lands in the sample column.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        at: u64,
        peer: u32,
        epoch: u64,
        txn: Option<TxnRef>,
        span: Option<SpanRef>,
        parent: Option<SpanRef>,
        kind: EventKind,
    ) {
        self.push(TraceEvent { seq: self.len() as u64, at, peer, epoch, txn, span, parent, kind });
    }

    /// Stamps and appends one gauge sample (the simulator's window
    /// sampler writes through here); `seq` comes from the counter the
    /// protocol events share.
    pub fn sample(&mut self, at: u64, peer: u32, epoch: u64, name: &'static str, value: u64) {
        let kind = EventKind::Gauge { name: Cow::Borrowed(name), value };
        let seq = self.len() as u64;
        self.samples.push(TraceEvent { seq, at, peer, epoch, txn: None, span: None, parent: None, kind });
    }

    /// Files an event in its column.
    fn push(&mut self, event: TraceEvent) {
        match event.kind {
            EventKind::Gauge { .. } => self.samples.push(event),
            _ => self.events.push(event),
        }
    }

    /// The protocol events, in emission order — every entry but the
    /// gauge samples.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The gauge samples, in emission order.
    pub fn samples(&self) -> &[TraceEvent] {
        &self.samples
    }

    /// Moves the sample column out, leaving it empty.
    pub fn take_samples(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.samples)
    }

    /// Every entry, protocol events and samples merged by `seq`: the
    /// order they were recorded in.
    pub fn iter(&self) -> Entries<'_> {
        Entries { events: &self.events, samples: &self.samples }
    }

    /// Number of entries recorded, samples included.
    pub fn len(&self) -> usize {
        self.events.len() + self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of entries with a given [`EventKind::label`].
    pub fn count(&self, label: &str) -> usize {
        self.iter().filter(|e| e.kind.label() == label).count()
    }

    /// The journal as JSON lines (one event per line). This is the
    /// byte-stable replay artifact: same scripted plane + same seed ⇒
    /// identical output.
    pub fn to_json_lines(&self) -> String {
        // One buffer for the whole journal; an event line averages
        // some 126 bytes.
        let mut out = String::with_capacity(self.len() * 128);
        for e in self.iter() {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a journal back from [`Self::to_json_lines`] output.
    pub fn from_json_lines(text: &str) -> Result<TraceJournal, String> {
        let mut journal = TraceJournal::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            journal.push(serde_json::from_str::<TraceEvent>(line).map_err(|e| format!("{e:?}"))?);
        }
        Ok(journal)
    }

    /// FNV-1a digest of the JSON-lines form — a compact replay-stability
    /// fingerprint.
    pub fn digest(&self) -> u64 {
        fnv64(self.to_json_lines().as_bytes())
    }

    /// Pretty-prints the journal as causal trees: events grouped by
    /// transaction, invocation spans nested by parent edge (taken from
    /// [`EventKind::Invoke`] events) — the run-time image of the paper's
    /// Figures 1–2 invocation trees. Events outside any span are listed
    /// under the transaction header; events outside any transaction (the
    /// delivery/churn substrate) come last. Every event appears exactly
    /// once, however damaged the span graph is.
    pub fn render_tree(&self) -> String {
        // One pass files every event under its transaction and span, both
        // kept in order of first appearance.
        let mut txns: Vec<TxnTree<'_>> = Vec::new();
        let mut txn_index: HashMap<TxnRef, usize> = HashMap::new();
        let mut loose: Vec<&TraceEvent> = Vec::new();
        for e in self.iter() {
            let Some(t) = e.txn else {
                loose.push(e);
                continue;
            };
            let tree = *txn_index.entry(t).or_insert_with(|| {
                txns.push(TxnTree { id: t, spanless: Vec::new(), spans: Vec::new(), span_index: HashMap::new() });
                txns.len() - 1
            });
            txns[tree].file(e);
        }
        let mut out = String::with_capacity(self.len() * 64);
        for tree in &mut txns {
            tree.render(&mut out);
        }
        if !loose.is_empty() {
            out.push_str("(no txn)\n");
            for e in loose {
                push_event_line(&mut out, 1, e);
            }
        }
        out
    }
}

/// A journal's entries in `seq` order: the two columns merged
/// ([`TraceJournal::iter`]). Each column is in `seq` order already; where
/// a loaded journal breaks that, each column still keeps its own order.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    events: &'a [TraceEvent],
    samples: &'a [TraceEvent],
}

impl<'a> Iterator for Entries<'a> {
    type Item = &'a TraceEvent;

    fn next(&mut self) -> Option<&'a TraceEvent> {
        let sample_first = match (self.events.first(), self.samples.first()) {
            (Some(e), Some(s)) => s.seq < e.seq,
            (None, _) => true,
            (Some(_), None) => false,
        };
        let column = if sample_first { &mut self.samples } else { &mut self.events };
        let (first, rest) = column.split_first()?;
        *column = rest;
        Some(first)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.events.len() + self.samples.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Entries<'_> {}

fn push_event_line(out: &mut String, depth: usize, e: &TraceEvent) {
    push_indent(out, depth);
    e.write_line(out);
    out.push('\n');
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// One invocation span of a [`TxnTree`].
struct SpanNode<'a> {
    id: SpanRef,
    /// The first parent any of the span's events names.
    parent: Option<SpanRef>,
    events: Vec<&'a TraceEvent>,
    /// Spans naming this one as parent, in order of first appearance.
    children: Vec<usize>,
    rendered: bool,
}

/// The note (text before and after the parent id) on a span rendered at
/// the top level although it names a parent: the parent never appears in
/// the transaction, or the parent chain loops without reaching a root.
type RootNote = (&'static str, &'static str);
const ORPHAN: RootNote = (" (orphan: parent ", " not in journal)");
const CYCLE: RootNote = (" (cycle: parent ", ")");

/// One transaction's events, filed for [`TraceJournal::render_tree`].
struct TxnTree<'a> {
    id: TxnRef,
    spanless: Vec<&'a TraceEvent>,
    /// In order of first appearance.
    spans: Vec<SpanNode<'a>>,
    span_index: HashMap<SpanRef, usize>,
}

impl<'a> TxnTree<'a> {
    fn file(&mut self, e: &'a TraceEvent) {
        let Some(s) = e.span else {
            self.spanless.push(e);
            return;
        };
        let node = *self.span_index.entry(s).or_insert_with(|| {
            self.spans.push(SpanNode {
                id: s,
                parent: None,
                events: Vec::new(),
                children: Vec::new(),
                rendered: false,
            });
            self.spans.len() - 1
        });
        let node = &mut self.spans[node];
        node.events.push(e);
        node.parent = node.parent.or(e.parent);
    }

    fn render(&mut self, out: &mut String) {
        out.push_str("txn ");
        self.id.push_to(out);
        out.push('\n');
        // Spanless events sit directly under the txn header.
        for e in &self.spanless {
            push_event_line(out, 1, e);
        }
        // Roots: spans with no recorded parent, or whose recorded parent
        // never appears in this txn. The latter is an orphan — typical of
        // a crash truncating the journal — and is flagged rather than
        // silently promoted.
        let mut roots: Vec<(usize, Option<RootNote>)> = Vec::new();
        for i in 0..self.spans.len() {
            match self.spans[i].parent.map(|p| self.span_index.get(&p).copied()) {
                None => roots.push((i, None)),
                Some(None) => roots.push((i, Some(ORPHAN))),
                Some(Some(parent)) => self.spans[parent].children.push(i),
            }
        }
        for (root, note) in roots {
            self.render_subtree(out, root, note);
        }
        // Whatever is left hangs off a parent cycle no root reaches (a
        // damaged or hand-edited journal). Enter each cycle at its first
        // span, flagged, so no event is lost.
        for i in 0..self.spans.len() {
            if !self.spans[i].rendered {
                self.render_subtree(out, i, Some(CYCLE));
            }
        }
    }

    /// Renders `root` and everything below it, depth first, children in
    /// order of first appearance. Iterative, and a span renders once, so
    /// neither a parent cycle nor a very deep chain can hurt.
    fn render_subtree(&mut self, out: &mut String, root: usize, note: Option<RootNote>) {
        let mut stack = vec![(root, 1usize)];
        while let Some((i, depth)) = stack.pop() {
            let span = &mut self.spans[i];
            if std::mem::replace(&mut span.rendered, true) {
                continue;
            }
            push_indent(out, depth);
            out.push_str("span ");
            span.id.push_to(out);
            if let (true, Some((open, close)), Some(parent)) = (i == root, note, span.parent) {
                out.push_str(open);
                parent.push_to(out);
                out.push_str(close);
            }
            out.push('\n');
            for e in &span.events {
                push_event_line(out, depth + 1, e);
            }
            stack.extend(span.children.iter().rev().map(|&c| (c, depth + 1)));
        }
    }
}

/// One unified registry snapshot: flat counter map merging the
/// simulator's network metrics with per-peer protocol stats.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// `name → value`, names dot-scoped (`net.sent`, `peer.3.dup_suppressed`).
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Sets one counter.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Adds to one counter (creating it at zero).
    pub fn add(&mut self, name: impl Into<String>, value: u64) {
        *self.counters.entry(name.into()).or_default() += value;
    }

    /// Reads one counter (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds one reading into its counter. Plain counters sum;
    /// high-water-mark names (`*_peak`) take the max — summing a peak
    /// would fabricate a level no peer ever reached.
    pub fn absorb(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        let peak = name.ends_with("_peak");
        let slot = self.counters.entry(name).or_default();
        *slot = if peak { (*slot).max(value) } else { *slot + value };
    }

    /// Absorbs another snapshot, counter by counter ([`Self::absorb`]).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            self.absorb(k.as_str(), *v);
        }
    }

    /// One `name = value` line per counter, sorted by name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(k);
            out.push_str(" = ");
            write_u64(*v, &mut out);
            out.push('\n');
        }
        out
    }
}

/// A bounded ring of recent [`TraceEvent`]s — the storage primitive
/// behind the flight recorder in `axml-obs`.
///
/// Pushing beyond `capacity` evicts the oldest event; `dropped` counts
/// evictions so a dump can say how much history was lost. Iteration is
/// oldest-first, so a dump reads like the tail of the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRing {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl EventRing {
    /// Empty ring holding at most `capacity` events (capacity 0 keeps
    /// nothing and counts every push as dropped).
    pub fn new(capacity: usize) -> Self {
        EventRing { capacity, events: std::collections::VecDeque::with_capacity(capacity.min(64)), dropped: 0 }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or refused, at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Streaming FNV-1a — the workspace's standard cheap fingerprint. Takes
/// bytes through [`Fnv64::write`] and formatted text through
/// [`fmt::Write`], so a digest over rendered text needs no rendering.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over a byte slice ([`Fnv64`] in one call).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceJournal {
        let mut j = TraceJournal::default();
        j.record(
            0,
            1,
            0,
            Some(TxnRef::new(1, 0)),
            Some(SpanRef::new(1, 0)),
            None,
            EventKind::Submit { method: "book".into() },
        );
        j.record(
            1,
            1,
            0,
            Some(TxnRef::new(1, 0)),
            Some(SpanRef::new(1, 1)),
            Some(SpanRef::new(1, 0)),
            EventKind::Invoke { to: 2, method: "pay".into() },
        );
        j.record(
            4,
            2,
            0,
            Some(TxnRef::new(1, 0)),
            Some(SpanRef::new(1, 1)),
            None,
            EventKind::Serve { from: 1, method: "pay".into() },
        );
        j.record(9, 1, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Resolve { committed: true });
        j.record(9, 2, 0, None, None, None, EventKind::AckSend { to: 1, id: 7 });
        j
    }

    /// Every event of `j` is rendered exactly once: the tree's event
    /// lines are the journal's, as multisets.
    fn assert_tree_loses_nothing(j: &TraceJournal, tree: &str) {
        let mut shown: Vec<&str> = tree.lines().map(str::trim_start).filter(|l| l.starts_with("[t=")).collect();
        let mut expected: Vec<String> = j
            .iter()
            .map(|e| {
                let mut line = String::new();
                e.write_line(&mut line);
                line
            })
            .collect();
        shown.sort_unstable();
        expected.sort_unstable();
        assert_eq!(shown, expected, "tree drops or repeats events:\n{tree}");
    }

    #[test]
    fn ids_have_one_text_form_and_parse_only_that() {
        for (origin, seq) in [(0, 0), (1, 0), (3, 7), (12, 345), (u32::MAX, u64::MAX)] {
            let (t, s) = (TxnRef::new(origin, seq), SpanRef::new(origin, seq));
            assert_eq!(t.to_string(), format!("T{origin}.{seq}"));
            assert_eq!(s.to_string(), format!("inv{origin}.{seq}"));
            let mut pushed = String::new();
            t.push_to(&mut pushed);
            assert_eq!(pushed, t.to_string());
            assert_eq!(t.to_string().parse::<TxnRef>(), Ok(t));
            assert_eq!(s.to_string().parse::<SpanRef>(), Ok(s));
            assert_eq!(serde_json::to_string(&t).unwrap(), format!("\"{t}\""));
            assert_eq!(serde_json::from_str::<SpanRef>(&format!("\"{s}\"")).unwrap(), s);
        }
        for bad in [
            "",
            "T",
            "T1",
            "T1.",
            "T.1",
            "T1.0.0",
            "Tx.y",
            "T-1.0",
            "T+1.0",
            "T01.0",
            "T1.00",
            "T1.0 ",
            " T1.0",
            "t1.0",
            "inv1.0",
            "T4294967296.0",
            "T1.18446744073709551616",
        ] {
            assert!(bad.parse::<TxnRef>().is_err(), "{bad:?} must not parse as a txn id");
        }
        for bad in ["inv.3", "inv3", "inv3.7.1", "T3.7", "inv03.7", "invx.y"] {
            assert!(bad.parse::<SpanRef>().is_err(), "{bad:?} must not parse as a span id");
        }
        assert!(serde_json::from_str::<TxnRef>("17").is_err(), "an id is a JSON string");
    }

    #[test]
    fn ids_order_as_their_text_does() {
        let parts = [0u64, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 109, 110, 1_000, 4_294_967_295];
        let wide = [u64::from(u32::MAX) + 1, 10_000_000_000_000_000_000, u64::MAX - 1, u64::MAX];
        let mut ids: Vec<TxnRef> = Vec::new();
        for &origin in &parts {
            for &seq in parts.iter().chain(&wide) {
                ids.push(TxnRef::new(origin as u32, seq));
            }
        }
        for a in &ids {
            for b in &ids {
                assert_eq!(a.cmp(b), a.to_string().cmp(&b.to_string()), "{a} vs {b}");
            }
        }
        assert!(SpanRef::new(1, 10) < SpanRef::new(1, 2), "text order, not numeric");
    }

    #[test]
    fn malformed_ids_are_a_load_error_never_a_panic() {
        let line = |txn: &str| {
            format!(r#"{{"seq":0,"at":0,"peer":1,"epoch":0,"txn":{txn},"span":null,"parent":null,"kind":"Crash"}}"#)
        };
        assert_eq!(TraceJournal::from_json_lines(&line("\"T1.0\"")).unwrap().len(), 1);
        for bad in ["\"T1\"", "\"inv.3\"", "\"T1.0.0\"", "\"Tx.y\"", "\"\"", "7", "[]"] {
            assert!(TraceJournal::from_json_lines(&line(bad)).is_err(), "txn {bad} must be rejected");
        }
        let span = r#"{"seq":0,"at":0,"peer":1,"epoch":0,"txn":null,"span":"inv.3","parent":null,"kind":"Crash"}"#;
        assert!(TraceJournal::from_json_lines(span).is_err());
    }

    #[test]
    fn loaded_journals_own_their_labels_and_compare_equal() {
        let mut j = TraceJournal::default();
        j.record(7, 2, 0, None, None, None, EventKind::Detect { peer: 4, how: "ack-timeout".into() });
        j.record(25, 2, 0, None, None, None, EventKind::Gauge { name: "outbox_depth".into(), value: 3 });
        let back = TraceJournal::from_json_lines(&j.to_json_lines()).unwrap();
        assert_eq!(back, j);
        assert!(matches!(&j.samples()[0].kind, EventKind::Gauge { name: Cow::Borrowed(_), .. }));
        assert!(matches!(&back.samples()[0].kind, EventKind::Gauge { name: Cow::Owned(_), .. }));
    }

    #[test]
    fn seq_is_assigned_in_emission_order() {
        let j = sample();
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn json_lines_round_trip() {
        let j = sample();
        let text = j.to_json_lines();
        assert_eq!(text.lines().count(), j.len());
        let back = TraceJournal::from_json_lines(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.digest(), j.digest());
    }

    #[test]
    fn digest_is_content_sensitive() {
        let j = sample();
        let mut k = sample();
        k.record(10, 3, 0, None, None, None, EventKind::Crash);
        assert_ne!(j.digest(), k.digest());
    }

    #[test]
    fn tree_nests_child_span_under_parent() {
        let tree = sample().render_tree();
        let root = tree.find("span inv1.0").expect("root span shown");
        let child = tree.find("  span inv1.1").expect("child span shown indented");
        assert!(root < child, "parent renders before child:\n{tree}");
        assert!(tree.starts_with("txn T1.0\n"));
        assert!(tree.contains("(no txn)"), "substrate events listed:\n{tree}");
        assert!(tree.contains("resolve committed"));
        assert_tree_loses_nothing(&sample(), &tree);
    }

    #[test]
    fn tree_renders_spans_on_a_parent_cycle() {
        // Regression: spans whose parent chain never reaches a root used
        // to vanish with all their events (the tree was the single line
        // `txn T1.0`). A damaged or hand-edited journal must lose nothing.
        let text = [
            r#"{"seq":0,"at":1,"peer":1,"epoch":0,"txn":"T1.0","span":"inv1.0","parent":"inv1.1","kind":{"Resolve":{"committed":true}}}"#,
            r#"{"seq":1,"at":2,"peer":2,"epoch":0,"txn":"T1.0","span":"inv1.1","parent":"inv1.0","kind":{"Resolve":{"committed":true}}}"#,
            r#"{"seq":2,"at":3,"peer":3,"epoch":0,"txn":"T1.0","span":"inv1.2","parent":"inv1.2","kind":{"Resolve":{"committed":false}}}"#,
        ]
        .join("\n");
        let j = TraceJournal::from_json_lines(&text).unwrap();
        let tree = j.render_tree();
        assert_eq!(
            tree,
            "txn T1.0\n\
             \x20 span inv1.0 (cycle: parent inv1.1)\n\
             \x20   [t=    1 AP1 e0] resolve committed span=inv1.0 parent=inv1.1\n\
             \x20   span inv1.1\n\
             \x20     [t=    2 AP2 e0] resolve committed span=inv1.1 parent=inv1.0\n\
             \x20 span inv1.2 (cycle: parent inv1.2)\n\
             \x20   [t=    3 AP3 e0] resolve aborted span=inv1.2 parent=inv1.2\n"
        );
        assert_tree_loses_nothing(&j, &tree);
    }

    #[test]
    fn count_by_label() {
        let j = sample();
        assert_eq!(j.count("invoke"), 1);
        assert_eq!(j.count("serve"), 1);
        assert_eq!(j.count("crash"), 0);
    }

    #[test]
    fn snapshot_merge_and_render() {
        let mut a = Snapshot::default();
        a.set("net.sent", 10);
        a.add("net.sent", 2);
        let mut b = Snapshot::default();
        b.set("net.sent", 1);
        b.set("peer.0.dup_suppressed", 4);
        a.merge(&b);
        assert_eq!(a.get("net.sent"), 13);
        assert_eq!(a.get("peer.0.dup_suppressed"), 4);
        assert_eq!(a.get("missing"), 0);
        assert!(a.render().contains("net.sent = 13"));
    }

    #[test]
    fn snapshot_merge_with_disjoint_keys_is_union_both_ways() {
        // Disjoint key sets must union without cross-talk, for plain
        // counters and peaks alike, regardless of merge direction.
        let mut a = Snapshot::default();
        a.set("net.sent", 5);
        a.set("peer.0.seen_peak", 3);
        let mut b = Snapshot::default();
        b.set("wal.bytes_appended", 512);
        b.set("peer.1.seen_peak", 9);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "disjoint merge commutes");
        assert_eq!(ab.counters.len(), 4);
        assert_eq!(ab.get("net.sent"), 5);
        assert_eq!(ab.get("wal.bytes_appended"), 512);
        assert_eq!(ab.get("peer.0.seen_peak"), 3);
        assert_eq!(ab.get("peer.1.seen_peak"), 9);
        // Merging a disjoint snapshot never disturbs existing entries.
        assert_eq!(ab.get("net.sent"), a.get("net.sent"));
    }

    #[test]
    fn snapshot_merge_takes_max_for_peaks() {
        // Regression: merge used to sum *_peak names, fabricating a
        // high-water mark no peer ever reached.
        let mut a = Snapshot::default();
        a.set("peer.1.seen_peak", 7);
        a.set("peer.1.dup_suppressed", 2);
        let mut b = Snapshot::default();
        b.set("peer.1.seen_peak", 4);
        b.set("peer.1.dup_suppressed", 3);
        a.merge(&b);
        assert_eq!(a.get("peer.1.seen_peak"), 7, "peaks max-merge, not sum");
        assert_eq!(a.get("peer.1.dup_suppressed"), 5, "plain counters still sum");
        // Max-merge also works when the peak is new to the receiver.
        let mut c = Snapshot::default();
        c.merge(&a);
        assert_eq!(c.get("peer.1.seen_peak"), 7);
    }

    #[test]
    fn tree_flags_orphan_spans() {
        // A child event whose parent span never appears (crash-truncated
        // journal) must render without panic and be flagged.
        let mut j = TraceJournal::default();
        j.record(
            3,
            4,
            0,
            Some(TxnRef::new(1, 0)),
            Some(SpanRef::new(1, 2)),
            Some(SpanRef::new(1, 0)),
            EventKind::Serve { from: 1, method: "pay".into() },
        );
        j.record(
            5,
            4,
            0,
            Some(TxnRef::new(1, 0)),
            Some(SpanRef::new(1, 2)),
            None,
            EventKind::Resolve { committed: false },
        );
        let tree = j.render_tree();
        assert!(tree.contains("span inv1.2 (orphan: parent inv1.0 not in journal)"), "orphan flagged:\n{tree}");
        assert!(tree.contains("resolve aborted"), "orphan's events still render:\n{tree}");
        assert_tree_loses_nothing(&j, &tree);
    }

    #[test]
    fn event_sink_sees_emission_order() {
        struct Labels(Vec<&'static str>);
        impl EventSink for Labels {
            fn on_event(&mut self, event: &TraceEvent) {
                self.0.push(event.kind.label());
            }
        }
        let labels = Rc::new(RefCell::new(Labels(Vec::new())));
        let sink: SharedSink = labels.clone();
        for e in sample().events() {
            sink.borrow_mut().on_event(e);
        }
        assert_eq!(labels.borrow().0, vec!["submit", "invoke", "serve", "resolve", "ack-send"]);
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for at in 0..5 {
            ring.push(TraceEvent {
                seq: at,
                at,
                peer: 0,
                epoch: 0,
                txn: None,
                span: None,
                parent: None,
                kind: EventKind::Gauge { name: "outbox_depth".into(), value: at },
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ats: Vec<u64> = ring.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest-first, oldest two evicted");
        let zero = EventRing::new(0);
        assert!(zero.is_empty() && zero.capacity() == 0);
    }

    #[test]
    fn gauge_kind_labels_and_renders() {
        let mut j = TraceJournal::default();
        j.record(100, 2, 0, None, None, None, EventKind::Gauge { name: "wal_bytes".into(), value: 4096 });
        assert_eq!(j.count("gauge"), 1);
        let text = j.to_json_lines();
        let back = TraceJournal::from_json_lines(&text).unwrap();
        assert_eq!(back, j, "gauge events survive the JSON round trip");
        assert!(j.render_tree().contains("gauge name=wal_bytes value=4096"));
        assert_tree_loses_nothing(&j, &j.render_tree());
    }

    #[test]
    fn samples_sit_in_their_own_column_and_merge_back_by_seq() {
        let mut j = TraceJournal::default();
        j.sample(0, 1, 0, "outbox_depth", 0);
        j.record(3, 1, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Submit { method: "book".into() });
        j.sample(25, 1, 0, "outbox_depth", 2);
        j.record(25, 2, 0, None, None, None, EventKind::Gauge { name: "wal_bytes".into(), value: 64 });
        j.record(30, 1, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Resolve { committed: true });
        assert_eq!(j.len(), 5);
        let seqs = |es: &[TraceEvent]| es.iter().map(|e| e.seq).collect::<Vec<_>>();
        assert_eq!(seqs(j.events()), [1, 4], "protocol events keep the seq of one shared counter");
        assert_eq!(seqs(j.samples()), [0, 2, 3], "`record` files a gauge as a sample");
        assert_eq!(j.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(j.iter().len(), 5);
        assert_eq!((j.count("gauge"), j.count("submit")), (3, 1));
        // The stored form is one line per entry in seq order, and loading
        // it splits the columns as they were.
        let text = j.to_json_lines();
        let line_seqs: Vec<bool> =
            text.lines().enumerate().map(|(i, l)| l.starts_with(&format!("{{\"seq\":{i},"))).collect();
        assert_eq!(line_seqs, [true; 5], "{text}");
        let back = TraceJournal::from_json_lines(&text).unwrap();
        assert_eq!((back.events(), back.samples()), (j.events(), j.samples()));
        assert!(j.render_tree().ends_with(
            "(no txn)\n\
             \x20 [t=    0 AP1 e0] gauge name=outbox_depth value=0\n\
             \x20 [t=   25 AP1 e0] gauge name=outbox_depth value=2\n\
             \x20 [t=   25 AP2 e0] gauge name=wal_bytes value=64\n"
        ));
        let mut taken = j.clone();
        assert_eq!(taken.take_samples(), j.samples());
        assert!(taken.samples().is_empty() && taken.events() == j.events());
    }

    #[test]
    fn sink_default_is_disabled() {
        assert!(!TraceSink::default().enabled());
        assert!(TraceSink::Memory.enabled());
    }
}
