//! Seeded scenario generator: random invocation trees that pass
//! [`ScenarioBuilder::check`] **by construction**.
//!
//! The hand-written sweep scenarios cover the paper's two figures; the
//! composition shapes §3.2's recovery rules were actually designed for —
//! parallel/sequential composition with interruption, dynamic
//! compensation-order choice, handlers at arbitrary interior peers,
//! replicas joining mid-recovery (cf. *Static vs Dynamic SAGAs* and
//! *General dynamic recovery for compensating CSP*) — only show up in
//! generated trees. [`GenScenario::generate`] derives one deterministic
//! scenario from a seed: tree shape (depth/fanout), super-peer marking,
//! catch/catchAll handlers with retry/substitute actions, replica sets,
//! lazy vs eager materialization, peer-independent compensation,
//! chaining on/off, service durations, and disconnect/crash schedules.
//!
//! Each scenario rule is honored while generating:
//!
//! - the invocation graph is grown as a tree rooted at the origin with
//!   fresh ids (W001);
//! - named catches only name faults a call meets, and `InjectedFault`
//!   catches only appear on calls whose subtree holds the injected fault
//!   (W002);
//! - disconnects target connected non-super participants inside the
//!   simulated window, and never the origin — the origin's outcome *is*
//!   the oracle's subject (W004);
//! - supers, replicas, handlers, durations, and the injected fault all
//!   reference declared participants and edges (W005);
//! - per-call handler stacks are distinct named catches with at most one
//!   trailing catchAll (W007).
//!
//! A retry guarding the permanently failing subtree is emitted only when
//! a replica of the failing peer exists; otherwise the generator makes it
//! a substitution, since the retry would re-invoke the same failing
//! provider.
//!
//! The same seed always yields the same [`GenScenario`] — a plain
//! serde-serializable value — so `gen:<seed>` works as a scenario *name*
//! in the sweep matrix and every worker rebuilds the identical case.

use axml_core::peer::PeerConfig;
use axml_core::scenarios::{Flavor, Handler, Recovery, ScenarioBuilder};
use axml_doc::{EvalMode, Fault};
use axml_p2p::{CrashEvent, PeerId};
use serde::{Deserialize, Serialize};

// The generator's shape bounds and odds. `gen:<seed>` scenario names
// resolve through them, so they are part of the sweep's determinism
// contract: change one and every generated digest changes.

/// Maximum tree depth below the origin.
const MAX_DEPTH: u32 = 3;
/// Maximum children per peer.
const MAX_FANOUT: u32 = 3;
/// Hard cap on tree peers (keeps sim cost bounded).
const MAX_PEERS: u32 = 9;
/// Percent chance a service fault is injected somewhere.
const FAULT_PCT: u64 = 45;
/// Percent chance each edge carries a handler stack.
const HANDLER_PCT: u64 = 30;
/// Percent chance of one scheduled disconnect.
const DISCONNECT_PCT: u64 = 25;
/// Percent chance of one scheduled crash-restart.
const CRASH_PCT: u64 = 25;

/// A deterministic, serializable scenario spec: everything needed to
/// rebuild the exact [`ScenarioBuilder`], derived purely from a seed.
/// `gen:<seed>` scenario names resolve to this via
/// [`GenScenario::from_name_suffix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenScenario {
    /// The generation seed (also names the scenario: `gen:<seed>`).
    pub seed: u64,
    /// Invocation edges; the origin is always peer 1.
    pub edges: Vec<(u32, u32)>,
    /// Super-peer marking.
    pub supers: Vec<u32>,
    /// Update or query services.
    pub update_flavor: bool,
    /// Lazy (paper default) or eager materialization.
    pub eager_eval: bool,
    /// Ship compensation bundles with results (§3.1 D5).
    pub peer_independent: bool,
    /// Piggyback active-peer lists (§3.3 D4).
    pub chaining: bool,
    /// Re-invoke failed children on replica providers.
    pub use_alternative_providers: bool,
    /// Sibling subscription streams (scenario (d) detection), if any.
    pub stream_interval: Option<u64>,
    /// The peer whose service fails while processing, if any.
    pub inject_fault: Option<u32>,
    /// Handler stacks, in attachment order.
    pub handlers: Vec<Handler>,
    /// Tree peers that get a replica (ids assigned by the builder in
    /// this order: max-peer + 1, + 2, …).
    pub replicas: Vec<u32>,
    /// Non-default service durations.
    pub durations: Vec<(u32, u64)>,
    /// Scheduled disconnects `(time, peer)`.
    pub disconnects: Vec<(u64, u32)>,
    /// Scheduled crash-restarts `(time, peer)` — carried in the
    /// builder's own fault plane and merged into whatever profile plane
    /// the sweep applies.
    pub crashes: Vec<(u64, u32)>,
}

/// Deterministic splitmix64 — self-contained so generated specs stay
/// byte-stable regardless of any RNG crate's evolution.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Avoid the all-zeros fixpoint-ish start for tiny seeds.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x243f_6a88_85a3_08d3))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with `pct`% probability.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A uniformly chosen element.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

impl GenScenario {
    /// Generates the scenario for `seed`. Pure: the same seed always
    /// produces the same value, byte for byte.
    pub fn generate(seed: u64) -> GenScenario {
        let mut rng = Rng::new(seed);

        // --- Tree shape: BFS growth with fresh ids (W001-clean). The
        // origin always invokes at least one child so every scenario has
        // a real distributed transaction to check.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut next_id: u32 = 2;
        let mut frontier: Vec<(u32, u32)> = Vec::new(); // (peer, depth)
        let root_children = rng.range(1, u64::from(MAX_FANOUT)) as u32;
        for _ in 0..root_children {
            edges.push((1, next_id));
            frontier.push((next_id, 1));
            next_id += 1;
        }
        let mut i = 0;
        while i < frontier.len() {
            let (peer, depth) = frontier[i];
            i += 1;
            if depth >= MAX_DEPTH || next_id > MAX_PEERS {
                continue;
            }
            let kids = rng.below(u64::from(MAX_FANOUT) + 1) as u32;
            for _ in 0..kids {
                if next_id > MAX_PEERS {
                    break;
                }
                edges.push((peer, next_id));
                frontier.push((next_id, depth + 1));
                next_id += 1;
            }
        }
        let peers: Vec<u32> = (1..next_id).collect();

        // --- Super-peer marking (trusted peers that never disconnect).
        let supers: Vec<u32> = peers.iter().copied().filter(|_| rng.chance(20)).collect();

        // --- Global knobs.
        let update_flavor = rng.chance(70);
        let eager_eval = rng.chance(30);
        let peer_independent = rng.chance(30);
        let chaining = rng.chance(80);

        // --- Injected service fault + the replica that makes forward
        // recovery possible. Alternative providers are only enabled when
        // a replica of the faulty peer exists: without one, provider
        // re-lookup would re-invoke the same failing provider forever.
        let inject_fault = rng.chance(FAULT_PCT).then(|| *rng.pick(&peers));
        let mut replicas: Vec<u32> = Vec::new();
        let mut faulty_has_replica = false;
        if let Some(f) = inject_fault {
            if rng.chance(40) {
                replicas.push(f);
                faulty_has_replica = true;
            }
        }
        // An extra replica of a random tree peer (useful under churn).
        if rng.chance(20) {
            let of = *rng.pick(&peers);
            if !replicas.contains(&of) {
                replicas.push(of);
            }
            if inject_fault == Some(of) {
                faulty_has_replica = true;
            }
        }
        let use_alternative_providers = inject_fault.is_none() || faulty_has_replica;

        // --- Handler stacks per edge (W002/W007-clean).
        let subtree = |root: u32| -> Vec<u32> {
            let mut seen = vec![root];
            let mut queue = vec![root];
            while let Some(p) = queue.pop() {
                for &(a, b) in &edges {
                    if a == p && !seen.contains(&b) {
                        seen.push(b);
                        queue.push(b);
                    }
                }
            }
            seen
        };
        let mut handlers: Vec<Handler> = Vec::new();
        for &(peer, child) in &edges {
            if !rng.chance(HANDLER_PCT) {
                continue;
            }
            let fault_below = inject_fault.map(|f| subtree(child).contains(&f)).unwrap_or(false);
            // Catch choice: catchAll, or a named catch of a fault a service
            // call can meet here — `InjectedFault` only where the injected
            // fault really sits below this call.
            let named: Vec<&str> = [Fault::PEER_UNREACHABLE, Fault::EXECUTION, Fault::INJECTED]
                .into_iter()
                .filter(|n| *n != Fault::INJECTED || fault_below)
                .collect();
            let catch = if rng.chance(50) { None } else { Some((*rng.pick(&named)).to_string()) };
            let mut action = if rng.chance(50) {
                Recovery::Retry { times: rng.range(1, 2) as u32, wait: rng.range(1, 8) }
            } else {
                Recovery::Substitute
            };
            // Retrying a permanently-failing subtree with no replica just
            // re-invokes the same failing provider — flip the handler to
            // forward recovery by substitution.
            let retry_guards_fault =
                fault_below && catch.as_deref().map(|n| n == Fault::INJECTED).unwrap_or(true) && !faulty_has_replica;
            if retry_guards_fault && matches!(action, Recovery::Retry { .. }) {
                action = Recovery::Substitute;
            }
            handlers.push(Handler { peer, child, catch: catch.clone(), action });
            // Optionally a trailing catchAll behind a named catch —
            // distinct by construction, so nothing is shadowed (W007).
            if catch.is_some() && rng.chance(30) {
                let trailing = if fault_below && !faulty_has_replica {
                    Recovery::Substitute
                } else if rng.chance(50) {
                    Recovery::Retry { times: 1, wait: rng.range(1, 8) }
                } else {
                    Recovery::Substitute
                };
                handlers.push(Handler { peer, child, catch: None, action: trailing });
            }
        }

        // --- Durations: slow services create the mid-flight windows the
        // disconnect/crash schedules need to actually interrupt work.
        let mut durations: Vec<(u32, u64)> = Vec::new();
        for &p in &peers {
            if rng.chance(30) {
                durations.push((p, rng.range(20, 80)));
            }
        }

        // --- Disconnect schedule: one non-super, non-origin participant
        // inside the active window (W004-clean; the origin must survive
        // to record the outcome the oracle judges).
        let mut disconnects: Vec<(u64, u32)> = Vec::new();
        if rng.chance(DISCONNECT_PCT) {
            let candidates: Vec<u32> = peers.iter().copied().filter(|p| *p != 1 && !supers.contains(p)).collect();
            if !candidates.is_empty() {
                disconnects.push((rng.range(15, 90), *rng.pick(&candidates)));
            }
        }
        // Sibling streams sharpen detection when someone disconnects.
        let stream_interval = (!disconnects.is_empty() && rng.chance(40)).then(|| rng.range(5, 12));

        // --- Crash-restart schedule: any tree peer, mid-flight.
        let mut crashes: Vec<(u64, u32)> = Vec::new();
        if rng.chance(CRASH_PCT) {
            crashes.push((rng.range(10, 90), *rng.pick(&peers)));
        }

        GenScenario {
            seed,
            edges,
            supers,
            update_flavor,
            eager_eval,
            peer_independent,
            chaining,
            use_alternative_providers,
            stream_interval,
            inject_fault,
            handlers,
            replicas,
            durations,
            disconnects,
            crashes,
        }
    }

    /// Resolves the `<suffix>` of a `gen:<suffix>` scenario name: the
    /// generation seed.
    pub fn from_name_suffix(suffix: &str) -> Option<GenScenario> {
        suffix.parse::<u64>().ok().map(GenScenario::generate)
    }

    /// The scenario name this spec answers to in the sweep matrix.
    pub fn name(&self) -> String {
        format!("gen:{}", self.seed)
    }

    /// The canonical serialized form (serde JSON; field order is the
    /// struct declaration, so equal specs serialize byte-identically).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// Builds the [`ScenarioBuilder`] this spec describes.
    pub fn builder(&self) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(1, &self.edges);
        for &s in &self.supers {
            b = b.super_peer(s);
        }
        b = b.flavor(if self.update_flavor { Flavor::Update } else { Flavor::Query });
        let mut cfg = PeerConfig::default();
        cfg.eval = if self.eager_eval { EvalMode::Eager } else { EvalMode::Lazy };
        cfg.peer_independent = self.peer_independent;
        cfg.chaining = self.chaining;
        cfg.use_alternative_providers = self.use_alternative_providers;
        cfg.stream_interval = self.stream_interval;
        b = b.config(cfg);
        if let Some(f) = self.inject_fault {
            b = b.fault_at(f);
        }
        b.handlers.extend(self.handlers.iter().cloned());
        for &of in &self.replicas {
            let (nb, _replica) = b.with_replica(of);
            b = nb;
        }
        for &(p, d) in &self.durations {
            b = b.duration(p, d);
        }
        for &(at, p) in &self.disconnects {
            b = b.disconnect(at, p);
        }
        for &(at, p) in &self.crashes {
            b.fault.crashes.push(CrashEvent { at, peer: PeerId(p) });
        }
        b
    }
}

/// The scenario-name list for a generated sweep: `gen:<base>`,
/// `gen:<base+1>`, …— each resolving deterministically through
/// [`crate::builder_for`], so the existing sweep machinery (case matrix,
/// parallel runner, oracle, monitor, shrinker) runs
/// generated cases unchanged.
pub fn gen_scenario_names(base_seed: u64, count: u64) -> Vec<String> {
    (0..count).map(|i| format!("gen:{}", base_seed + i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec_bytes() {
        for seed in [0, 1, 7, 42, 1_000_003] {
            let a = GenScenario::generate(seed);
            let b = GenScenario::generate(seed);
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json(), "seed {seed}");
            let back: GenScenario = serde_json::from_str(&a.to_json()).expect("round-trips");
            assert_eq!(back, a);
        }
    }

    #[test]
    fn name_resolution_matches_direct_generation() {
        let g = GenScenario::generate(17);
        assert_eq!(g.name(), "gen:17");
        assert_eq!(GenScenario::from_name_suffix("17"), Some(g));
        assert_eq!(GenScenario::from_name_suffix("not-a-seed"), None);
    }

    #[test]
    fn generated_shapes_vary() {
        // Across a modest seed range the generator must exercise every
        // major dimension at least once — otherwise the "generated
        // scenario space" is narrower than advertised.
        let gens: Vec<GenScenario> = (0..64).map(GenScenario::generate).collect();
        assert!(gens.iter().any(|g| g.inject_fault.is_some()));
        assert!(gens.iter().any(|g| g.inject_fault.is_none()));
        assert!(gens.iter().any(|g| !g.handlers.is_empty()));
        assert!(gens.iter().any(|g| !g.replicas.is_empty()));
        assert!(gens.iter().any(|g| !g.disconnects.is_empty()));
        assert!(gens.iter().any(|g| !g.crashes.is_empty()));
        assert!(gens.iter().any(|g| !g.supers.is_empty()));
        assert!(gens.iter().any(|g| g.eager_eval));
        assert!(gens.iter().any(|g| g.peer_independent));
        assert!(gens.iter().any(|g| !g.chaining));
        assert!(gens.iter().any(|g| !g.update_flavor));
        assert!(gens.iter().any(|g| g.handlers.iter().any(|h| h.catch.is_none())));
        assert!(gens.iter().any(|g| g.handlers.iter().any(|h| h.catch.is_some())));
        assert!(gens.iter().any(|g| g.handlers.iter().any(|h| matches!(h.action, Recovery::Retry { .. }))));
        assert!(gens.iter().any(|g| g.handlers.iter().any(|h| h.action == Recovery::Substitute)));
        let depths: std::collections::BTreeSet<usize> =
            gens.iter().map(|g| g.builder().planned_chain().to_notation().matches('[').count()).collect();
        assert!(depths.len() > 1, "trees of different nesting depths: {depths:?}");
    }

    #[test]
    fn every_generated_scenario_passes_check() {
        // The construction-time constraints really do imply the scenario
        // rules — checked here over a dense seed range, and again over
        // sparse random seeds in tests/gen_sweep.rs.
        for seed in 0..256 {
            assert_eq!(GenScenario::generate(seed).builder().check(), Ok(()), "gen:{seed}");
        }
    }
}
