//! Seeded input generators. `--seed` reaches the program under test only
//! through what is built here: simulator seeds, document payloads and
//! the matrix's case-seed range.

use axml_chaos::{case_matrix, CaseConfig, Profile, SCENARIOS};
use axml_core::peer::PeerConfig;
use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_workload::{random_plain_doc, DocParams};

/// Ticks between two submissions of a stream workload. A Fig. 1
/// transaction resolves in under 100 ticks and its peers quiesce well
/// before 400, so one client in a closed loop never overlaps itself.
pub const SUBMIT_EVERY: u64 = 400;
/// Transactions per `commit-stream` pass.
pub const COMMIT_STREAM_TXNS: u64 = 4000;
/// Transactions per `big-doc` pass (even steps commit, odd steps abort).
pub const BIG_DOC_TXNS: u64 = 200;
/// Element nodes in each `big-doc` document's `<payload>` ballast.
pub const PAYLOAD_NODES: usize = 2000;
/// `<out>` result subtrees spliced into each `big-doc` document.
pub const RESULT_SUBTREES: u64 = 20;
/// Element nodes in each of those result subtrees.
pub const RESULT_NODES: usize = 6;
/// Case seeds per `(scenario, profile)` cell of a matrix pass: 5 × 5 × 96
/// = 2,400 cases, so ≈1,100 commits and ≈1,300 abort waves per pass and
/// a p99 with more than ten samples beyond it.
pub const SEEDS_PER_CELL: u64 = 96;
/// The peers of the Fig. 1 tree.
pub const FIG1_PEERS: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CommitStream,
    BigDoc,
    FaultMatrix,
    TracedMatrix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CommitStream, Workload::BigDoc, Workload::FaultMatrix, Workload::TracedMatrix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitStream => "commit-stream",
            Workload::BigDoc => "big-doc",
            Workload::FaultMatrix => "fault-matrix",
            Workload::TracedMatrix => "traced-matrix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Fig. 1 query-flavor tree both stream workloads run. Query flavor
/// on purpose: an update-flavor stream commits exactly once, because the
/// `slot` element its locator replaces is gone afterwards.
pub fn stream_builder(workload: Workload, seed: u64) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(seed);
    if workload == Workload::BigDoc {
        // No replica exists, so provider re-lookup would only re-invoke
        // the faulty peer: the abort half must stay an abort.
        b = b.config(PeerConfig { use_alternative_providers: false, ..Default::default() });
    }
    b
}

/// The `big-doc` document of `peer`: the scenario's own `d{peer}` with a
/// `<payload>` of [`PAYLOAD_NODES`] random nodes and [`RESULT_SUBTREES`]
/// `<out>` subtrees spliced in before the closing tag.
pub fn big_doc_xml(b: &ScenarioBuilder, seed: u64, peer: u32) -> String {
    let peer_seed = seed.wrapping_mul(1_000_003).wrapping_add(u64::from(peer));
    let payload = random_plain_doc(peer_seed, &DocParams { nodes: PAYLOAD_NODES, ..Default::default() });
    let mut extra = format!("<payload>{}</payload>", payload.to_xml());
    for i in 0..RESULT_SUBTREES {
        let sub_seed = peer_seed.wrapping_mul(31).wrapping_add(i);
        let sub = random_plain_doc(sub_seed, &DocParams { nodes: RESULT_NODES, ..Default::default() });
        extra.push_str(&format!("<out>{}</out>", sub.to_xml()));
    }
    let base = b.doc_xml(peer);
    let body = base.strip_suffix("</d>").expect("scenario documents end in </d>");
    format!("{body}{extra}</d>")
}

/// One matrix pass: every scenario × every profile × the seed's block of
/// [`SEEDS_PER_CELL`] case seeds, in canonical sweep order.
pub fn matrix_cases(seed: u64) -> Vec<CaseConfig> {
    let first = seed * SEEDS_PER_CELL;
    cases_for(first..first + SEEDS_PER_CELL)
}

/// The matrix over an explicit case-seed range.
pub fn cases_for(seeds: std::ops::Range<u64>) -> Vec<CaseConfig> {
    let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    case_matrix(&scenarios, Profile::all(), seeds, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_doc_payload_is_byte_stable_per_seed_and_differs_across_seeds() {
        let b = stream_builder(Workload::BigDoc, 3);
        let a = big_doc_xml(&b, 3, 5);
        assert_eq!(a, big_doc_xml(&b, 3, 5), "same seed, same bytes");
        assert_ne!(a, big_doc_xml(&b, 4, 5), "another seed, another payload");
        assert_ne!(a, big_doc_xml(&b, 3, 6), "another peer, another payload");
        assert!(a.starts_with("<d><slot>initial-5</slot>") && a.ends_with("</d>"));
        assert_eq!(a.matches("<out>").count() as u64, RESULT_SUBTREES + 1, "base out plus the spliced subtrees");
        let doc = axml_xml::Document::parse(&a).expect("well-formed");
        assert!(doc.node_count() > PAYLOAD_NODES);
    }

    #[test]
    fn matrix_blocks_are_disjoint_and_canonical() {
        let a = matrix_cases(0);
        let b = matrix_cases(1);
        assert_eq!(a.len(), 2400);
        assert_eq!(a[0].label(), "fig1/drops/seed=0");
        assert_eq!(a[95].label(), "fig1/drops/seed=95");
        assert_eq!(b[0].label(), "fig1/drops/seed=96");
        assert_eq!(a.last().unwrap().label(), "fig1-crash/storage/seed=95");
        assert_eq!(cases_for(0..16).len(), 400, "the canonical 16-seed sweep");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("sweep"), None);
    }
}
