//! E14 — hot-path throughput: link batching, interned names, lazy
//! compensation (extension).
//!
//! Times the three per-delivery ceilings this codebase optimizes, each
//! as a before/after pair where "before" reproduces the unoptimized
//! strategy and "after" runs the shipping code path:
//!
//! * **delivery-flood** — the same message flood through the simulator
//!   with per-link batching off vs on ([`SimConfig::batch_links`]).
//!   Both runs are traced and their journals + metrics digested; the
//!   digests MUST agree (batching is a pure queue optimization) and are
//!   recorded in the report as `digest_serial` (unbatched) and
//!   `digest_parallel` (batched) so `bench-check` fails the report on
//!   any divergence.
//! * **materialize-deep-tree** — subtree transcription of a deep
//!   workload document with per-node owned `String` names (what every
//!   fragment copy cost before names were interned) vs
//!   [`Fragment::from_node`] over interned names (clones are refcount
//!   bumps).
//! * **compensation-derive** — compensating-service derivation from an
//!   eagerly materialized effect log (`local_effects()` +
//!   `from_effect_log`, the pre-slices strategy: every entry's effects
//!   cloned up front) vs the lazy borrowed-slice path
//!   (`own_compensation`).
//!
//! Each row reports wall time for both strategies and the speedup; the
//! equivalence column records the proof that both strategies produced
//! identical observables.

use axml_core::chain::ActiveList;
use axml_core::compensate::CompensatingService;
use axml_core::context::TransactionContext;
use axml_core::{InvocationId, TxnId};
use axml_p2p::{Actor, Ctx, LatencyModel, Message, PeerId, Sim, SimConfig, TraceSink};
use axml_query::{Effect, NodePath};
use axml_workload::docs::{random_plain_doc, DocParams};
use axml_xml::Fragment;
use serde::Serialize;
use std::hint::black_box;

use crate::report::fnv64;
use crate::table::Table;

/// One before/after measurement of a hot path.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Hot path name.
    pub path: String,
    /// Wall time of the unoptimized strategy, microseconds.
    pub before_us: u64,
    /// Wall time of the shipping strategy, microseconds.
    pub after_us: u64,
    /// `before / after`, percent (130 = 1.3×).
    pub speedup_x100: u64,
    /// How before/after equivalence was established.
    pub checked: String,
}

fn row(path: &str, before_us: u64, after_us: u64, checked: String) -> Row {
    Row { path: path.to_string(), before_us, after_us, speedup_x100: before_us * 100 / after_us.max(1), checked }
}

#[derive(Debug, Clone)]
struct Burst(u32);

impl Message for Burst {
    fn kind(&self) -> &'static str {
        "burst"
    }
}

/// Sends `BURST` messages per timer tick; counts arrivals.
#[derive(Default)]
struct Flooder {
    got: u64,
}

/// Messages per tick and ticks of the flood (each tick's burst lands as
/// one batch on the link, so the unbatched queue holds `BURST` entries
/// where the batched one holds ~1).
const BURST: u32 = 2000;
const TICKS: u64 = 25;

impl Actor<Burst> for Flooder {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Burst>, _from: PeerId, msg: Burst) {
        self.got = self.got.wrapping_add(u64::from(msg.0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Burst>, _tag: u64) {
        for n in 0..BURST {
            ctx.send(PeerId(1), Burst(n)).unwrap();
        }
    }
}

/// Runs the flood once; returns (wall_us, digest over journal+metrics).
pub fn flood(batch_links: bool) -> (u64, String) {
    let mut config = SimConfig { batch_links, ..Default::default() };
    config.latency = LatencyModel { min: 2, max: 2 };
    config.max_events = u64::MAX;
    config.trace = TraceSink::Memory;
    let mut sim = Sim::new(config, vec![Flooder::default(), Flooder::default()]);
    for t in 0..TICKS {
        sim.schedule_timer(t, PeerId(0), 0);
    }
    let t0 = std::time::Instant::now();
    sim.run();
    let wall_us = t0.elapsed().as_micros() as u64;
    let journal = serde_json::to_string(sim.trace().map(|j| j.events()).unwrap_or_default()).expect("serializable");
    let m = sim.metrics();
    let fingerprint = format!(
        "{journal}|sent={} delivered={} out_of_order={} got={}",
        m.sent,
        m.delivered,
        m.out_of_order,
        sim.actor(PeerId(1)).got
    );
    (wall_us, format!("{:016x}", fnv64(&fingerprint)))
}

/// The fragment shape as it existed before names were interned: every
/// element and attribute name an owned `(prefix, local)` string pair.
pub enum OwnedFragment {
    /// An element with owned name/attribute strings.
    Element {
        /// `(prefix, local)`, each a fresh allocation.
        #[allow(dead_code)]
        name: (Option<String>, String),
        /// Attribute `(name, value)` pairs, names freshly allocated.
        #[allow(dead_code)]
        attrs: Vec<((Option<String>, String), String)>,
        /// Child fragments in document order.
        children: Vec<OwnedFragment>,
    },
    /// Any non-element node (text, CDATA, comment, PI), content only.
    Other(#[allow(dead_code)] String),
}

impl OwnedFragment {
    /// Nodes in this fragment (for before/after equivalence checks).
    pub fn node_count(&self) -> usize {
        match self {
            OwnedFragment::Element { children, .. } => {
                1 + children.iter().map(OwnedFragment::node_count).sum::<usize>()
            }
            OwnedFragment::Other(_) => 1,
        }
    }
}

fn owned_name(q: &axml_xml::QName) -> (Option<String>, String) {
    (q.prefix.as_ref().map(|p| p.to_string()), q.local.to_string())
}

/// Mirror of [`Fragment::from_node`] doing exactly what every subtree
/// copy cost before names were interned: the same recursion and the
/// same structure, but each name cloned as a fresh heap `String`
/// instead of a refcount bump.
pub fn from_node_owned(doc: &axml_xml::Document, node: axml_xml::NodeId) -> OwnedFragment {
    match doc.kind(node).expect("attached") {
        axml_xml::NodeKind::Element { name } => {
            let mut children = Vec::new();
            for child in doc.children(node).expect("element") {
                children.push(from_node_owned(doc, child));
            }
            let attrs = doc.attrs(node).expect("element").map(|(k, v)| (owned_name(k), v.to_string())).collect();
            OwnedFragment::Element { name: owned_name(name), attrs, children }
        }
        axml_xml::NodeKind::Text(t) | axml_xml::NodeKind::Cdata(t) | axml_xml::NodeKind::Comment(t) => {
            OwnedFragment::Other(t.to_string())
        }
        axml_xml::NodeKind::Pi { target, data } => OwnedFragment::Other(format!("{target}{data}")),
    }
}

/// The deep-tree workload document: the random workload shape, but with
/// element names and attributes at the paper's vocabulary lengths
/// (`newspaperList`, `publicationDate`, …) instead of the generator's
/// two-character alphabet — what the interned-name copies amortize.
pub fn deep_doc() -> axml_xml::Document {
    const NAMES: [&str; 12] = [
        "newspaperList",
        "newspaperEntry",
        "publicationDate",
        "headlineArticle",
        "articleBody",
        "correspondentDesk",
        "citizenshipRecord",
        "subscriptionPlan",
        "editorialBoard",
        "classifiedAdvert",
        "distributionRegion",
        "pressAgencyFeed",
    ];
    let skeleton = random_plain_doc(
        1407,
        &DocParams { nodes: 4000, max_fanout: 4, name_alphabet: NAMES.len(), p_text: 0.3, ..Default::default() },
    );
    // Transcribe the skeleton, mapping generated name `eK` → `NAMES[K]`
    // and hanging one realistic attribute per element.
    let mut doc = axml_xml::Document::new(NAMES[0]);
    let mut stack = vec![(skeleton.root(), doc.root())];
    while let Some((src, dst)) = stack.pop() {
        for child in skeleton.children(src).expect("element").rev() {
            match skeleton.kind(child).expect("attached") {
                axml_xml::NodeKind::Element { name, .. } => {
                    let idx: usize = name.local.trim_start_matches('e').parse().unwrap_or(0);
                    let elem = doc.create_element(NAMES[idx % NAMES.len()]);
                    doc.set_attr(elem, "recordIdentifier", format!("id{idx}")).expect("element");
                    doc.set_attr(elem, "lastModifiedStamp", "2007-04-15T12:00:00Z").expect("element");
                    doc.append_child(dst, elem).expect("element");
                    stack.push((child, elem));
                }
                axml_xml::NodeKind::Text(t) => {
                    let text = doc.create_text(t);
                    doc.append_child(dst, text).expect("element");
                }
                _ => {}
            }
        }
    }
    doc
}

/// Builds a transaction log with `entries` local delete effects over
/// real workload subtrees (the shape compensation derivation walks).
pub fn effect_log(entries: usize) -> TransactionContext {
    let doc = deep_doc();
    let subtrees: Vec<Fragment> = doc
        .descendants_and_self(doc.root())
        .filter(|&n| doc.name(n).is_ok())
        .step_by(7)
        .take(64)
        .map(|n| Fragment::from_node(&doc, n).expect("attached"))
        .collect();
    let mut ctx = TransactionContext::new(TxnId::new(PeerId(0), 1), None, ActiveList::new(PeerId(0), true), 0);
    for i in 0..entries {
        let fragment = subtrees[i % subtrees.len()].clone();
        let effect = Effect::Deleted { fragment, parent_path: NodePath(vec![i % 5]), position: i % 3 };
        ctx.record_local(format!("doc{}", i % 8), "delete", vec![effect]);
        if i % 3 == 0 {
            // Remote entries ride the same log; both strategies skip them.
            ctx.record_remote(PeerId(1), InvocationId::new(PeerId(1), i as u64), "m");
        }
    }
    ctx
}

/// Runs the three hot paths and returns (rows, unbatched digest,
/// batched digest).
pub fn run() -> (Vec<Row>, String, String) {
    let mut rows = Vec::new();

    // delivery-flood: batching off vs on, byte-identical observables.
    let (before_us, digest_unbatched) = flood(false);
    let (after_us, digest_batched) = flood(true);
    let checked = if digest_unbatched == digest_batched { "journal+metrics digest equal" } else { "DIGEST MISMATCH" };
    rows.push(row("delivery-flood", before_us, after_us, checked.to_string()));

    // materialize-deep-tree: owned-name transcription vs interned-name
    // fragment copies of the same subtree.
    let doc = deep_doc();
    let root = doc.root();
    const REPS: usize = 40;
    let t0 = std::time::Instant::now();
    let mut nodes_before = 0usize;
    for _ in 0..REPS {
        let frag = black_box(from_node_owned(&doc, root));
        nodes_before = frag.node_count();
    }
    let before_us = t0.elapsed().as_micros() as u64;
    let t0 = std::time::Instant::now();
    let mut nodes_after = 0usize;
    for _ in 0..REPS {
        let frag = black_box(Fragment::from_node(&doc, root).expect("attached"));
        nodes_after = frag.node_count();
    }
    let after_us = t0.elapsed().as_micros() as u64;
    let checked = if nodes_before == nodes_after {
        format!("{} nodes transcribed by both", nodes_after)
    } else {
        format!("NODE COUNT MISMATCH {} vs {}", nodes_before, nodes_after)
    };
    rows.push(row("materialize-deep-tree", before_us, after_us, checked));

    // compensation-derive: eager materialized log vs lazy slices.
    let ctx = effect_log(400);
    const DERIVES: usize = 12;
    let t0 = std::time::Instant::now();
    let mut eager_actions = 0usize;
    for _ in 0..DERIVES {
        let comp = CompensatingService::from_effect_log(&ctx.local_effects());
        eager_actions = black_box(comp.action_count());
    }
    let before_us = t0.elapsed().as_micros() as u64;
    let t0 = std::time::Instant::now();
    let mut lazy_actions = 0usize;
    for _ in 0..DERIVES {
        let comp = ctx.own_compensation();
        lazy_actions = black_box(comp.action_count());
    }
    let after_us = t0.elapsed().as_micros() as u64;
    let checked = if eager_actions == lazy_actions {
        format!("{} actions derived by both", lazy_actions)
    } else {
        format!("ACTION COUNT MISMATCH {} vs {}", eager_actions, lazy_actions)
    };
    rows.push(row("compensation-derive", before_us, after_us, checked));

    (rows, digest_unbatched, digest_batched)
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E14 — hot-path throughput: before/after the batching + interning + lazy-slice optimizations",
        &["path", "before-us", "after-us", "speedup", "equivalence"],
    );
    for r in rows {
        t.row(vec![
            r.path.clone(),
            r.before_us.to_string(),
            r.after_us.to_string(),
            format!("{}.{:02}x", r.speedup_x100 / 100, r.speedup_x100 % 100),
            r.checked.clone(),
        ]);
    }
    t.with_note(
        "expected shape: speedup > 1 on every row, with identical observables either way — the \
         delivery-flood digests are additionally enforced by bench-check (digest_serial = unbatched, \
         digest_parallel = batched)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_digest_is_batching_invariant() {
        let (_, unbatched) = flood(false);
        let (_, batched) = flood(true);
        assert_eq!(unbatched, batched, "batching must not change the journal or metrics");
    }

    #[test]
    fn before_and_after_strategies_agree() {
        let (rows, du, db) = run();
        assert_eq!(du, db);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(!r.checked.contains("MISMATCH"), "{}: before/after observables diverged: {}", r.path, r.checked);
            assert!(r.after_us > 0 || r.before_us == 0, "{}: timer resolution", r.path);
        }
    }

    #[test]
    fn compensation_strategies_share_order() {
        let ctx = effect_log(50);
        let eager = CompensatingService::from_effect_log(&ctx.local_effects());
        let lazy = ctx.own_compensation();
        assert_eq!(eager.action_count(), lazy.action_count());
        assert!(eager.action_count() > 0);
    }
}
