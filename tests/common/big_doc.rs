//! The benchmark's `big-doc` workload (`benchmark/src/inputs.rs`,
//! `stream.rs`) from the public pieces it is made of: the query-flavor
//! Fig. 1 tree over documents carrying a 2,000-node `<payload>` and 20
//! `<out>` result subtrees each, committing on even steps and aborting —
//! S5 fails — on odd ones. Used by `tests/alloc_budget.rs`.
#![allow(dead_code)] // each includer uses its own part

use axml::prelude::*;
use axml::workload::{random_plain_doc, DocParams};

/// Ticks between two submissions.
pub const SUBMIT_EVERY: u64 = 400;
const PAYLOAD_NODES: usize = 2000;
const RESULT_SUBTREES: u64 = 20;
const RESULT_NODES: usize = 6;

fn doc_xml(builder: &ScenarioBuilder, seed: u64, peer: u32) -> String {
    let peer_seed = seed.wrapping_mul(1_000_003).wrapping_add(u64::from(peer));
    let payload = random_plain_doc(peer_seed, &DocParams { nodes: PAYLOAD_NODES, ..Default::default() });
    let mut extra = format!("<payload>{}</payload>", payload.to_xml());
    for i in 0..RESULT_SUBTREES {
        let sub_seed = peer_seed.wrapping_mul(31).wrapping_add(i);
        let sub = random_plain_doc(sub_seed, &DocParams { nodes: RESULT_NODES, ..Default::default() });
        extra.push_str(&format!("<out>{}</out>", sub.to_xml()));
    }
    let base = builder.doc_xml(peer);
    let body = base.strip_suffix("</d>").expect("scenario documents end in </d>");
    format!("{body}{extra}</d>")
}

/// A fresh simulator holding the six big documents; step 0 is scheduled.
pub fn scenario(seed: u64) -> Scenario {
    // No replica exists, so provider re-lookup would only re-invoke the
    // faulty peer: the abort half must stay an abort.
    let config = PeerConfig { use_alternative_providers: false, ..Default::default() };
    let builder = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(seed).config(config);
    let mut s = builder.clone().build();
    for peer in 1..=6 {
        let xml = doc_xml(&builder, seed, peer);
        s.sim.actor_mut(PeerId(peer)).repo.put_xml(format!("d{peer}"), &xml).expect("generated document parses");
    }
    s
}

/// Submits and resolves transactions `steps`.
pub fn run(s: &mut Scenario, steps: std::ops::Range<u64>) {
    for k in steps {
        let fault = (k % 2 == 1).then(|| Fault::injected("S5 fails while processing"));
        s.sim.actor_mut(PeerId(5)).registry.get_mut("S5").expect("S5 is registered").injected_fault = fault;
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
}
