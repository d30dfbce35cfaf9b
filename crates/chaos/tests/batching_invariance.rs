//! Property: per-link delivery batching is invisible in every chaos
//! observable.
//!
//! [`SimConfig::batch_links`] coalesces same-tick deliveries on a link
//! into one queue event. It must be a *pure* queue optimization: for
//! every scenario × fault profile × seed, the batched and unbatched
//! runs must produce the same run digest, document-state digest,
//! oracle verdict, network metrics, and a byte-identical lifecycle
//! journal. This is the regression tripwire for anyone extending the
//! batching path with behavior the unbatched path doesn't mirror.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, Profile, SCENARIOS};

#[test]
fn link_batching_is_invisible_across_the_chaos_matrix() {
    let mut checked = 0usize;
    for scenario in SCENARIOS {
        for &profile in Profile::all() {
            for seed in 0..2u64 {
                let batched = CaseConfig::new(scenario, profile, seed);
                let mut unbatched = batched.clone();
                unbatched.batch_links = false;
                let b = builder_for(scenario).expect("known scenario");
                let plane = plane_for(profile, seed, &b.peers());

                let (rb, db) = run_with_plane_traced(&batched, plane.clone());
                let (ru, du) = run_with_plane_traced(&unbatched, plane);

                let label = batched.label();
                assert_eq!(rb.digest, ru.digest, "{label}: run digest diverged");
                assert_eq!(rb.doc_digest, ru.doc_digest, "{label}: doc-state digest diverged");
                assert_eq!(rb.committed, ru.committed, "{label}: outcome diverged");
                assert_eq!(rb.verdict.ok, ru.verdict.ok, "{label}: verdict diverged");
                assert_eq!(rb.metrics, ru.metrics, "{label}: net metrics diverged");
                assert_eq!(db.journal.to_json_lines(), du.journal.to_json_lines(), "{label}: journal diverged");
                assert_eq!(rb.snapshot(), ru.snapshot(), "{label}: counter snapshot diverged");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, SCENARIOS.len() * Profile::all().len() * 2);
}
