//! The executable reference model: a small-step transition system over
//! abstract protocol configurations.
//!
//! The model is deliberately independent of `core::peer` — it describes
//! what the paper's nested-recovery protocol (§3) is *allowed* to do,
//! not how the simulator does it. A configuration ([`State`]) is the
//! per-peer abstract frame (phase, forward-log length, compensation
//! progress, outstanding children) plus the multiset of undelivered
//! messages. [`SpecConfig::successors`] enumerates every enabled
//! transition; the bounded checker ([`crate::check`](mod@crate::check)) explores all
//! interleavings, and the conformance checker ([`crate::conform`])
//! replays real trace journals against the same rule vocabulary.
//!
//! ## Transition rules
//!
//! | Rule | Step |
//! |------|------|
//! | R01  | submit: the origin opens the transaction and invokes its children |
//! | R02  | serve: an invoke is delivered; the provider joins and invokes its own children |
//! | R03  | materialize: a child's results are delivered and merged (one forward-log record) |
//! | R04  | complete: all children answered; log own record; return results up (origin: commit) |
//! | R05  | fault: the faulty peer's own work fails; compensate, fault up, abort down |
//! | R06  | abort-up: a fault is delivered; the parent compensates and spreads the abort |
//! | R07  | abort-down: an abort is delivered; the subordinate compensates and forwards it |
//! | R08  | compensate-op: undo one forward-log record (strictly decreasing index — §3.1) |
//! | R09  | commit: a commit is delivered; the subordinate finalizes and forwards it, unacknowledged — never to a peer in the `covered` list it received (the model has no fan-out: every commit it sends covers nobody) |
//! | R10  | crash: a peer loses volatile state and recovers by presumed abort (§4) |
//! | R11  | lose-commit: an undelivered commit vanishes (configs with [`SpecConfig::lose_commits`]) |
//! | R12  | inquire: a done peer with no commit in flight to it receives the origin's recorded outcome (configs with [`SpecConfig::inquire`]) |
//!
//! ## Decision delivery (R11, R12)
//!
//! A commit is pulled, an abort is pushed.
//!
//! **R11 lose-commit.** *Guard:* a `Commit` is in flight. *Action:* it is
//! removed undelivered. A `Commit` is sent once and never acknowledged or
//! retransmitted, so the network MAY lose it, and a peer MUST NOT count on
//! one arriving.
//!
//! **R12 inquire.** *Guard:* a peer is `Done`, no `Commit` is in flight to
//! it, and the origin has decided. *Action:* the peer receives the
//! origin's recorded outcome — committed: it commits and forwards
//! `Commit` to its children, as in R09; aborted, or no record at all
//! (presumed abort): it aborts, as in R07. A `Done` peer that has waited
//! the decision timeout MUST ask the origin, and ask again while no answer
//! comes. The origin MUST answer from its decision record and MUST NOT
//! answer while it is undecided.
//!
//! Without R12, R11 leaves a `Done` peer at quiescence: one of
//! [`SpecConfig::broken_variants`] runs R11 alone, and invariant I4 must
//! refute it.
//!
//! ## Invariant catalogue
//!
//! | Id | Invariant | Checked by |
//! |----|-----------|------------|
//! | I1 | atomicity: at quiescence all participants agree with the origin's outcome (modulo churn), and compensation is complete at aborted peers | final states of the bounded checker |
//! | I2 | compensation undoes forward-log records in strictly decreasing index order | every R08 step; conformance over `compensate-op` events (Monitor M001) |
//! | I3 | terminal means terminal: no forward activity after commit, at most one terminal decision per epoch | every step; conformance (Monitor M002) |
//! | I4 | every propagated abort lands: no peer is left non-terminal at quiescence | final states; conformance end-of-run (Monitor M004) |
//! | I5 | at-most-once processing per receiver epoch | conformance over the delivery layer (Monitor M003) |

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// Where a peer is in its transaction lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Not (yet) part of the transaction.
    Idle,
    /// Serving: children invoked, results outstanding, own work pending.
    Working,
    /// Results returned to the invoker; in doubt, awaiting the outcome.
    Done,
    /// Undoing forward-log records in reverse order.
    Compensating,
    /// Terminal: the transaction committed here.
    Committed,
    /// Terminal: the transaction aborted here and compensation is complete.
    Aborted,
}

impl Phase {
    /// Single-letter tag used in canonical state keys.
    fn tag(self) -> char {
        match self {
            Phase::Idle => 'I',
            Phase::Working => 'W',
            Phase::Done => 'D',
            Phase::Compensating => 'X',
            Phase::Committed => 'C',
            Phase::Aborted => 'A',
        }
    }

    /// True for the two terminal phases.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Committed | Phase::Aborted)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Idle => "idle",
            Phase::Working => "working",
            Phase::Done => "done",
            Phase::Compensating => "compensating",
            Phase::Committed => "committed",
            Phase::Aborted => "aborted",
        })
    }
}

/// One peer's abstract frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PeerFrame {
    /// Lifecycle phase.
    pub phase: Phase,
    /// Forward-log records written (one per materialized child + one for
    /// the peer's own completed work).
    pub log: u8,
    /// Forward-log records undone so far.
    pub undone: u8,
    /// Index of the last record undone, for the §3.1 order check.
    pub last_undo: Option<u8>,
    /// Children invoked but not yet answered.
    pub pending: BTreeSet<u32>,
    /// Whether the peer ever served the transaction (so we know which
    /// children it invoked when spreading an abort).
    pub served: bool,
    /// Whether the peer crashed (presumed-abort recovery ran here).
    pub crashed: bool,
}

impl PeerFrame {
    fn idle() -> PeerFrame {
        PeerFrame {
            phase: Phase::Idle,
            log: 0,
            undone: 0,
            last_undo: None,
            pending: BTreeSet::new(),
            served: false,
            crashed: false,
        }
    }
}

/// Message kinds on the abstract network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgKind {
    /// Parent invokes a child's service.
    Invoke,
    /// Child returns results to its parent.
    Result,
    /// Child raises a fault to its parent (abort propagates up).
    Fault,
    /// Parent aborts a subordinate (abort propagates down).
    Abort,
    /// Parent finalizes a subordinate (commit propagates down).
    Commit,
}

impl MsgKind {
    fn tag(self) -> char {
        match self {
            MsgKind::Invoke => 'i',
            MsgKind::Result => 'r',
            MsgKind::Fault => 'f',
            MsgKind::Abort => 'a',
            MsgKind::Commit => 'c',
        }
    }
}

/// One undelivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Msg {
    /// Sender.
    pub from: u32,
    /// Receiver.
    pub to: u32,
    /// Kind.
    pub kind: MsgKind,
}

/// An abstract protocol configuration: peer frames plus the in-flight
/// message multiset.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    /// Frames, keyed by peer id.
    pub peers: BTreeMap<u32, PeerFrame>,
    /// Undelivered messages with multiplicity.
    pub net: BTreeMap<Msg, u8>,
    /// Whether the transaction was submitted (R01 fired).
    pub started: bool,
    /// Whether the one modeled crash has fired.
    pub crashed_once: bool,
}

impl State {
    /// Canonical key: a deterministic rendering that uniquely identifies
    /// the configuration. Used for visited-set hashing and digests.
    #[must_use]
    pub fn key(&self) -> String {
        let mut k = String::with_capacity(64);
        for (p, f) in &self.peers {
            let _ = write!(k, "{}{}l{}u{}", p, f.phase.tag(), f.log, f.undone);
            if let Some(lu) = f.last_undo {
                let _ = write!(k, "@{lu}");
            }
            if !f.pending.is_empty() {
                k.push('p');
                for c in &f.pending {
                    let _ = write!(k, "{c},");
                }
            }
            if f.served {
                k.push('s');
            }
            if f.crashed {
                k.push('!');
            }
            k.push(';');
        }
        k.push('|');
        for (m, n) in &self.net {
            let _ = write!(k, "{}{}{}x{n};", m.from, m.kind.tag(), m.to);
        }
        if self.started {
            k.push('S');
        }
        if self.crashed_once {
            k.push('K');
        }
        k
    }

    fn send(&mut self, from: u32, to: u32, kind: MsgKind, copies: u8) {
        *self.net.entry(Msg { from, to, kind }).or_insert(0) += copies;
    }

    fn consume(&mut self, m: Msg) {
        if let Some(n) = self.net.get_mut(&m) {
            *n -= 1;
            if *n == 0 {
                self.net.remove(&m);
            }
        }
    }
}

/// One enabled transition out of a configuration.
#[derive(Debug, Clone)]
pub struct SpecStep {
    /// Transition rule (`R01` … `R10`).
    pub rule: &'static str,
    /// Human-readable description of the step.
    pub detail: String,
    /// The successor configuration.
    pub next: State,
    /// An invariant violated *by this step* (I2 order violations are
    /// per-transition), if any.
    pub violation: Option<(&'static str, String)>,
}

/// A small protocol configuration for the bounded checker.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Name shown in reports.
    pub name: String,
    /// Origin (root) peer.
    pub origin: u32,
    /// Invocation-tree edges (parent, child).
    pub edges: Vec<(u32, u32)>,
    /// Peer whose own work faults after its children answer (R05).
    pub fault_at: Option<u32>,
    /// Peer that may crash once while working or in doubt (R10).
    pub crash_at: Option<u32>,
    /// Deliver each returned result twice (duplicate delivery).
    pub dup_results: bool,
    /// Broken-peer variant: compensate in forward log order instead of
    /// reverse. The checker must refute this with an I2 counterexample.
    pub broken_forward_compensation: bool,
    /// R11: an undelivered `Commit` may vanish.
    pub lose_commits: bool,
    /// R12: a `Done` peer that holds no `Commit` in flight inquires and
    /// receives the origin's recorded outcome.
    pub inquire: bool,
}

impl SpecConfig {
    /// A plain configuration with no failures.
    #[must_use]
    pub fn new(name: &str, origin: u32, edges: &[(u32, u32)]) -> SpecConfig {
        SpecConfig {
            name: name.to_string(),
            origin,
            edges: edges.to_vec(),
            fault_at: None,
            crash_at: None,
            dup_results: false,
            broken_forward_compensation: false,
            lose_commits: false,
            inquire: false,
        }
    }

    /// The children `peer` invokes, in edge order.
    #[must_use]
    pub fn children(&self, peer: u32) -> Vec<u32> {
        self.edges.iter().filter(|(p, _)| *p == peer).map(|(_, c)| *c).collect()
    }

    /// The peer that invokes `peer`, if any.
    #[must_use]
    pub fn parent(&self, peer: u32) -> Option<u32> {
        self.edges.iter().find(|(_, c)| *c == peer).map(|(p, _)| *p)
    }

    /// Every peer in the tree, sorted.
    #[must_use]
    pub fn peers(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.edges.iter().flat_map(|(a, b)| [*a, *b]).chain([self.origin]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The initial configuration: everyone idle, nothing in flight.
    #[must_use]
    pub fn initial(&self) -> State {
        State {
            peers: self.peers().into_iter().map(|p| (p, PeerFrame::idle())).collect(),
            net: BTreeMap::new(),
            started: false,
            crashed_once: false,
        }
    }

    /// The clean configuration catalogue the checker explores: chains and
    /// forks derived from the paper's Figure 1 / Figure 2 trees, with
    /// fault, crash, and duplicate-delivery variants.
    #[must_use]
    pub fn catalogue() -> Vec<SpecConfig> {
        let mut v = Vec::new();
        v.push(SpecConfig::new("chain2", 1, &[(1, 2)]));
        v.push(SpecConfig::new("chain3", 1, &[(1, 2), (2, 3)]));
        let mut c = SpecConfig::new("chain3-abort", 1, &[(1, 2), (2, 3)]);
        c.fault_at = Some(3);
        v.push(c);
        let mut c = SpecConfig::new("fork3-abort", 1, &[(1, 2), (1, 3)]);
        c.fault_at = Some(3);
        v.push(c);
        let mut c = SpecConfig::new("fork4-abort", 1, &[(1, 2), (1, 3), (1, 4)]);
        c.fault_at = Some(4);
        v.push(c);
        // Figure 1 fragment: AP1 → {AP2, AP3}, AP3 → AP4 (the hotel/flight
        // fork with one nested provider).
        v.push(SpecConfig::new("fig1-frag", 1, &[(1, 2), (1, 3), (3, 4)]));
        let mut c = SpecConfig::new("fig1-frag-abort", 1, &[(1, 2), (1, 3), (3, 4)]);
        c.fault_at = Some(4);
        v.push(c);
        // Figure 2 fragment: the chained path AP1 → AP2 → {AP3, AP4}.
        v.push(SpecConfig::new("fig2-frag", 1, &[(1, 2), (2, 3), (2, 4)]));
        let mut c = SpecConfig::new("chain3-crash", 1, &[(1, 2), (2, 3)]);
        c.crash_at = Some(2);
        v.push(c);
        let mut c = SpecConfig::new("fork3-crash", 1, &[(1, 2), (1, 3)]);
        c.crash_at = Some(3);
        v.push(c);
        let mut c = SpecConfig::new("chain2-dup", 1, &[(1, 2)]);
        c.dup_results = true;
        v.push(c);
        let mut c = SpecConfig::new("fork3-abort-dup", 1, &[(1, 2), (1, 3)]);
        c.fault_at = Some(3);
        c.dup_results = true;
        v.push(c);
        // Decisions that vanish, pulled back by inquiry: the Figure 1
        // fragment loses any of its commits, AP3's forwarded one included.
        let mut c = SpecConfig::new("fig1-frag-lose-commit", 1, &[(1, 2), (1, 3), (3, 4)]);
        c.lose_commits = true;
        c.inquire = true;
        v.push(c);
        v
    }

    /// The broken-peer variant the checker must refute: a fork where the
    /// origin can materialize two sibling results before the third child
    /// faults, then compensates in *forward* log order. `axml-chaos`'s
    /// tests feed `conform` the same fault as a recorded journal with two
    /// undo events swapped.
    #[must_use]
    pub fn broken_variant() -> SpecConfig {
        let mut c = SpecConfig::new("fork4-abort-broken", 1, &[(1, 2), (1, 3), (1, 4)]);
        c.fault_at = Some(4);
        c.broken_forward_compensation = true;
        c
    }

    /// Every broken variant, each with the invariant that must refute it:
    /// [`SpecConfig::broken_variant`] by I2, and lost commits nobody pulls
    /// back (R11 without R12) by I4 — a `Done` peer at quiescence.
    #[must_use]
    pub fn broken_variants() -> Vec<(SpecConfig, &'static str)> {
        let mut lost = SpecConfig::new("fig1-frag-lose-commit-broken", 1, &[(1, 2), (1, 3), (3, 4)]);
        lost.lose_commits = true;
        vec![(SpecConfig::broken_variant(), "I2"), (lost, "I4")]
    }

    /// Look up a catalogue configuration (or a broken variant) by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<SpecConfig> {
        SpecConfig::catalogue()
            .into_iter()
            .chain(SpecConfig::broken_variants().into_iter().map(|(c, _)| c))
            .find(|c| c.name == name)
    }

    /// Begin compensating `peer`: clear outstanding children and move to
    /// `Compensating` (or directly to `Aborted` when the log is empty).
    fn enter_compensation(frame: &mut PeerFrame) {
        frame.pending.clear();
        frame.phase = if frame.log == 0 { Phase::Aborted } else { Phase::Compensating };
    }

    /// Abort `peer`'s subtree: send `Abort` to every child it invoked,
    /// except `except` (a child that already aborted itself).
    fn abort_children(&self, s: &mut State, peer: u32, except: Option<u32>) {
        if !s.peers[&peer].served {
            return;
        }
        for c in self.children(peer) {
            if Some(c) != except {
                s.send(peer, c, MsgKind::Abort, 1);
            }
        }
    }

    /// Every enabled transition out of `s`, in deterministic order.
    ///
    /// # Panics
    ///
    /// Only if `s` was not produced from this configuration's
    /// [`SpecConfig::initial`] state (every configured peer must have a
    /// frame).
    // One block per rule R01..R10; splitting the rules across functions
    // would obscure the one-place reading of the transition relation.
    #[allow(clippy::too_many_lines)]
    #[must_use]
    pub fn successors(&self, s: &State) -> Vec<SpecStep> {
        let mut steps = Vec::new();

        // R01 — submit at the origin.
        if !s.started {
            let mut n = s.clone();
            n.started = true;
            let f = n.peers.get_mut(&self.origin).expect("origin frame");
            f.phase = Phase::Working;
            f.served = true;
            f.pending = self.children(self.origin).into_iter().collect();
            for c in self.children(self.origin) {
                n.send(self.origin, c, MsgKind::Invoke, 1);
            }
            steps.push(SpecStep {
                rule: "R01",
                detail: format!("submit at AP{}", self.origin),
                next: n,
                violation: None,
            });
            return steps; // Nothing else can be enabled before submit.
        }

        // Deliveries: one transition per distinct in-flight message.
        for &m in s.net.keys() {
            let mut n = s.clone();
            n.consume(m);
            let (rule, detail) = self.deliver(&mut n, m);
            steps.push(SpecStep { rule, detail, next: n, violation: None });
        }

        // R11 — lose-commit: an undelivered commit vanishes.
        if self.lose_commits {
            for &m in s.net.keys().filter(|m| m.kind == MsgKind::Commit) {
                let mut n = s.clone();
                n.consume(m);
                let detail = format!("the commit from AP{} to AP{} is lost", m.from, m.to);
                steps.push(SpecStep { rule: "R11", detail, next: n, violation: None });
            }
        }

        // R12 — inquire: a done peer no commit is on its way to receives
        // the decided origin's outcome, committed or (presumed) aborted.
        let decided = match s.peers[&self.origin].phase {
            Phase::Committed => Some(MsgKind::Commit),
            Phase::Compensating | Phase::Aborted => Some(MsgKind::Abort),
            _ => None,
        };
        if let (true, Some(outcome)) = (self.inquire, decided) {
            for (&p, f) in &s.peers {
                let commit_due = s.net.keys().any(|m| m.to == p && m.kind == MsgKind::Commit);
                if f.phase != Phase::Done || commit_due {
                    continue;
                }
                let mut n = s.clone();
                self.deliver(&mut n, Msg { from: self.origin, to: p, kind: outcome });
                let told = if outcome == MsgKind::Commit { "committed" } else { "aborted" };
                let detail = format!("AP{p} inquires and learns the origin AP{} {told}", self.origin);
                steps.push(SpecStep { rule: "R12", detail, next: n, violation: None });
            }
        }

        // Local rules, per peer.
        for (&p, f) in &s.peers {
            match f.phase {
                Phase::Working if f.pending.is_empty() => {
                    if self.fault_at == Some(p) {
                        // R05 — the peer's own work faults: its own record
                        // is never logged; compensate what materialized,
                        // raise the fault up, abort the subtree.
                        let mut n = s.clone();
                        if let Some(parent) = self.parent(p) {
                            n.send(p, parent, MsgKind::Fault, 1);
                        }
                        self.abort_children(&mut n, p, None);
                        SpecConfig::enter_compensation(n.peers.get_mut(&p).expect("frame"));
                        steps.push(SpecStep {
                            rule: "R05",
                            detail: format!("AP{p} faults during its own work"),
                            next: n,
                            violation: None,
                        });
                    } else {
                        // R04 — complete: log the peer's own work; the
                        // origin's completion is the commit decision.
                        let mut n = s.clone();
                        let f = n.peers.get_mut(&p).expect("frame");
                        f.log += 1;
                        if p == self.origin {
                            f.phase = Phase::Committed;
                            for c in self.children(p) {
                                n.send(p, c, MsgKind::Commit, 1);
                            }
                            steps.push(SpecStep {
                                rule: "R04",
                                detail: format!("AP{p} completes; origin commits"),
                                next: n,
                                violation: None,
                            });
                        } else {
                            f.phase = Phase::Done;
                            let parent = self.parent(p).expect("non-origin has a parent");
                            let copies = if self.dup_results { 2 } else { 1 };
                            n.send(p, parent, MsgKind::Result, copies);
                            steps.push(SpecStep {
                                rule: "R04",
                                detail: format!("AP{p} completes and returns results to AP{parent}"),
                                next: n,
                                violation: None,
                            });
                        }
                    }
                }
                Phase::Compensating => {
                    // R08 — undo one forward-log record. §3.1 requires
                    // strictly decreasing indices; the broken variant
                    // replays the log forward instead.
                    let mut n = s.clone();
                    let f = n.peers.get_mut(&p).expect("frame");
                    let idx = if self.broken_forward_compensation { f.undone } else { f.log - 1 - f.undone };
                    let violation = match f.last_undo {
                        Some(prev) if idx >= prev => Some((
                            "I2",
                            format!(
                                "AP{p} undoes log record {idx} after record {prev}; \
                                 §3.1 requires strictly decreasing order"
                            ),
                        )),
                        _ => None,
                    };
                    f.last_undo = Some(idx);
                    f.undone += 1;
                    if f.undone == f.log {
                        f.phase = Phase::Aborted;
                    }
                    steps.push(SpecStep {
                        rule: "R08",
                        detail: format!("AP{p} undoes log record {idx}"),
                        next: n,
                        violation,
                    });
                }
                _ => {}
            }

            // R10 — crash: volatile state is lost; recovery replays the
            // durable log and presumes abort, pushing the abort both ways.
            if self.crash_at == Some(p) && !s.crashed_once && matches!(f.phase, Phase::Working | Phase::Done) {
                let mut n = s.clone();
                n.crashed_once = true;
                if let Some(parent) = self.parent(p) {
                    n.send(p, parent, MsgKind::Fault, 1);
                }
                self.abort_children(&mut n, p, None);
                let f = n.peers.get_mut(&p).expect("frame");
                f.crashed = true;
                f.last_undo = None; // new epoch: the order rule re-arms
                SpecConfig::enter_compensation(f);
                steps.push(SpecStep {
                    rule: "R10",
                    detail: format!("AP{p} crashes and recovers by presumed abort"),
                    next: n,
                    violation: None,
                });
            }
        }

        steps
    }

    /// Apply the delivery of `m` to `n` (the message is already consumed)
    /// and name the step. Deliveries that find the receiver in a phase
    /// the protocol has already moved past are absorbed as no-ops — that
    /// is the protocol's own duplicate/stale-message discipline (I5's
    /// terminal excuses in the conformance checker mirror this).
    fn deliver(&self, n: &mut State, m: Msg) -> (&'static str, String) {
        let to = m.to;
        let phase = n.peers[&to].phase;
        match m.kind {
            MsgKind::Invoke => {
                if phase == Phase::Idle {
                    let f = n.peers.get_mut(&to).expect("frame");
                    f.phase = Phase::Working;
                    f.served = true;
                    f.pending = self.children(to).into_iter().collect();
                    for c in self.children(to) {
                        n.send(to, c, MsgKind::Invoke, 1);
                    }
                    ("R02", format!("AP{to} serves the invocation from AP{}", m.from))
                } else {
                    ("R02", format!("stale invoke dropped at AP{to} ({phase})"))
                }
            }
            MsgKind::Result => {
                if phase == Phase::Working && n.peers[&to].pending.contains(&m.from) {
                    let f = n.peers.get_mut(&to).expect("frame");
                    f.pending.remove(&m.from);
                    f.log += 1;
                    ("R03", format!("AP{to} materializes results from AP{}", m.from))
                } else {
                    ("R03", format!("stale result from AP{} dropped at AP{to} ({phase})", m.from))
                }
            }
            MsgKind::Fault => {
                if matches!(phase, Phase::Working | Phase::Done) {
                    // Nested recovery (§3.2): the parent compensates its
                    // own effects, spreads the abort to the rest of the
                    // subtree, and — unless it is the origin — raises the
                    // fault one level further up.
                    if let Some(parent) = self.parent(to) {
                        n.send(to, parent, MsgKind::Fault, 1);
                    }
                    self.abort_children(n, to, Some(m.from));
                    SpecConfig::enter_compensation(n.peers.get_mut(&to).expect("frame"));
                    ("R06", format!("AP{to} aborts on the fault from AP{}", m.from))
                } else {
                    ("R06", format!("fault from AP{} absorbed at AP{to} ({phase})", m.from))
                }
            }
            MsgKind::Abort => {
                match phase {
                    Phase::Working | Phase::Done => {
                        self.abort_children(n, to, None);
                        SpecConfig::enter_compensation(n.peers.get_mut(&to).expect("frame"));
                        ("R07", format!("AP{to} aborts on request from AP{}", m.from))
                    }
                    Phase::Idle => {
                        // Abort outran the invoke: nothing to undo.
                        n.peers.get_mut(&to).expect("frame").phase = Phase::Aborted;
                        ("R07", format!("AP{to} aborts before ever serving"))
                    }
                    _ => ("R07", format!("abort absorbed at AP{to} ({phase})")),
                }
            }
            MsgKind::Commit => {
                if phase == Phase::Done {
                    n.peers.get_mut(&to).expect("frame").phase = Phase::Committed;
                    for c in self.children(to) {
                        n.send(to, c, MsgKind::Commit, 1);
                    }
                    ("R09", format!("AP{to} commits"))
                } else {
                    ("R09", format!("commit absorbed at AP{to} ({phase})"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_quiet() {
        let cfg = SpecConfig::new("t", 1, &[(1, 2)]);
        let s = cfg.initial();
        assert!(s.net.is_empty());
        assert!(!s.started);
        assert_eq!(s.peers.len(), 2);
        // Only R01 is enabled.
        let steps = cfg.successors(&s);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].rule, "R01");
    }

    #[test]
    fn canonical_keys_distinguish_states() {
        let cfg = SpecConfig::new("t", 1, &[(1, 2)]);
        let s = cfg.initial();
        let n = &cfg.successors(&s)[0].next;
        assert_ne!(s.key(), n.key());
        assert_eq!(s.key(), cfg.initial().key());
    }

    #[test]
    fn tree_helpers() {
        let cfg = SpecConfig::new("t", 1, &[(1, 2), (1, 3), (3, 4)]);
        assert_eq!(cfg.children(1), vec![2, 3]);
        assert_eq!(cfg.parent(4), Some(3));
        assert_eq!(cfg.parent(1), None);
        assert_eq!(cfg.peers(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn catalogue_names_are_unique_and_resolvable() {
        let cat = SpecConfig::catalogue();
        let mut names: Vec<&str> = cat.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
        for c in &cat {
            assert!(SpecConfig::by_name(&c.name).is_some());
        }
        for (broken, _) in SpecConfig::broken_variants() {
            assert!(!names.contains(&broken.name.as_str()));
            assert!(SpecConfig::by_name(&broken.name).is_some());
        }
        assert!(SpecConfig::by_name("nope").is_none());
    }
}
