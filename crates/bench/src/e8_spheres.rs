//! E8 — Spheres of Atomicity (§3.3).
//!
//! "Atomicity may still be guaranteed for a transaction if all the
//! involved peers (for that transaction) are super peers." We sample
//! participant sets from populations with varying super-peer fractions,
//! run each transaction under churn that targets every non-super
//! participant, and compare the static sphere prediction with the
//! observed outcome.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::{sphere_guarantees_atomicity, PeerConfig};
use axml_p2p::PeerId;
use axml_workload::{tree_edges, TreeShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// One measured population mix (aggregated).
#[derive(Debug, Clone)]
pub struct Row {
    /// Fraction of super peers among participants (origin always super).
    pub super_fraction: f64,
    /// Trials.
    pub trials: usize,
    /// Fraction of transactions whose sphere predicted "guaranteed".
    pub predicted_guaranteed: f64,
    /// Observed atomicity among predicted-guaranteed transactions.
    pub atomic_when_guaranteed: f64,
    /// Observed atomicity among NOT-guaranteed transactions (under churn).
    pub atomic_when_not: f64,
}

/// One trial: returns `(predicted_guaranteed, resolved, atomic)`.
fn one(seed: u64, super_fraction: f64) -> (bool, bool, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = TreeShape { depth: 2, fanout: 2 }; // 7 peers
    let edges = tree_edges(1, shape);
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Update);
    builder.seed = seed;
    builder.supers.push(1);
    let participants: Vec<u32> = edges.iter().map(|(_, c)| *c).collect();
    for &p in &participants {
        if rng.gen_bool(super_fraction) {
            builder.supers.push(p);
        }
    }
    // Churn targets every non-super participant mid-run.
    for &p in &participants {
        if !builder.supers.contains(&p) {
            let at = rng.gen_range(8..60);
            builder = builder.disconnect(at, p);
        }
    }
    let mut config = PeerConfig::default();
    config.use_alternative_providers = false;
    builder = builder.config(config);
    builder.deadline = 5_000;
    let all_super = participants.iter().all(|p| builder.supers.contains(p));
    let mut s = builder.build();
    let report = s.run();
    // Static prediction from the final chain at the origin (equals the
    // planned participant set here).
    let predicted = report
        .txn
        .and_then(|txn| s.sim.actor(PeerId(1)).context(txn).map(|tc| sphere_guarantees_atomicity(&tc.chain)))
        .unwrap_or(all_super);
    (predicted, report.outcome.is_some(), report.atomic)
}

/// Runs the sweep.
pub fn run(trials: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &f in &[0.0f64, 0.5, 0.9, 1.0] {
        let mut predicted = 0usize;
        let mut atomic_guaranteed = (0usize, 0usize); // (atomic, total)
        let mut atomic_not = (0usize, 0usize);
        for t in 0..trials {
            let (p, resolved, atomic) = one(t as u64 * 101 + 13, f);
            predicted += p as usize;
            let ok = resolved && atomic;
            if p {
                atomic_guaranteed.0 += ok as usize;
                atomic_guaranteed.1 += 1;
            } else {
                atomic_not.0 += ok as usize;
                atomic_not.1 += 1;
            }
        }
        rows.push(Row {
            super_fraction: f,
            trials,
            predicted_guaranteed: predicted as f64 / trials.max(1) as f64,
            atomic_when_guaranteed: if atomic_guaranteed.1 > 0 {
                atomic_guaranteed.0 as f64 / atomic_guaranteed.1 as f64
            } else {
                f64::NAN
            },
            atomic_when_not: if atomic_not.1 > 0 { atomic_not.0 as f64 / atomic_not.1 as f64 } else { f64::NAN },
        });
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let fmt = |v: f64| if v.is_nan() { "-".to_string() } else { format!("{v:.2}") };
    let mut t = Table::new(
        "E8 — Spheres of Atomicity: prediction vs observation (7-peer tree, churn on non-supers)",
        &["super-frac", "trials", "P(guaranteed)", "atomic|guaranteed", "atomic|not"],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}", r.super_fraction),
            r.trials.to_string(),
            fmt(r.predicted_guaranteed),
            fmt(r.atomic_when_guaranteed),
            fmt(r.atomic_when_not),
        ]);
    }
    t.with_note(
        "expected shape: atomic|guaranteed = 1.00 at every mix (the sphere check is sound); \
         P(guaranteed) reaches 1.0 only at 100% super peers; atomic|not < 1 under churn",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_prediction_is_sound() {
        let rows = run(8);
        for r in &rows {
            if !r.atomic_when_guaranteed.is_nan() {
                assert_eq!(r.atomic_when_guaranteed, 1.0, "guaranteed must be atomic: {r:?}");
            }
        }
    }

    #[test]
    fn only_full_super_population_guarantees() {
        let rows = run(8);
        let get = |f: f64| rows.iter().find(|r| r.super_fraction == f).unwrap();
        assert_eq!(get(1.0).predicted_guaranteed, 1.0);
        assert!(get(0.0).predicted_guaranteed < 1.0);
        assert!(get(0.5).predicted_guaranteed <= get(0.9).predicted_guaranteed + 1e-9);
    }
}
