//! E10 — isolation under contention (extension; the paper defers I).
//!
//! N origins concurrently invoke an update service on one shared
//! provider document; a fraction of them target the *same* slot
//! (contended), the rest disjoint slots. With path-level isolation the
//! provider serializes contended writers (first wins, losers abort and
//! are compensated); without it, every writer "succeeds" and updates are
//! silently lost.

use axml_core::peer::WsdlCatalog;
use axml_core::{AxmlPeer, PeerConfig, TxnMsg};
use axml_p2p::{PeerId, Sim, SimConfig};
use axml_query::{Locator, SelectQuery, UpdateAction};
use axml_xml::Fragment;

use crate::table::Table;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Concurrent writer transactions.
    pub writers: usize,
    /// Writers targeting the shared (contended) slot.
    pub contended: usize,
    /// Isolation enabled?
    pub isolation: bool,
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions aborted by conflicts.
    pub aborted: usize,
    /// Conflicts detected at the provider.
    pub conflicts: u64,
    /// Updates surviving in the final document (contended slot counts 1).
    pub surviving_updates: usize,
    /// Updates lost (a committed transaction whose write is gone) — the
    /// anomaly isolation prevents.
    pub lost_updates: usize,
}

fn run_one(writers: usize, contended: usize, isolation: bool) -> Row {
    let provider = PeerId(1);
    let mut wsdl = WsdlCatalog::default();
    let mut peers = Vec::new();
    for id in 0..(writers as u32 + 2) {
        let mut config = PeerConfig::default();
        config.isolation = isolation;
        config.use_alternative_providers = false;
        peers.push(AxmlPeer::new(PeerId(id), config));
    }
    // Shared document: one contended slot plus a private slot per writer.
    let mut xml = String::from("<d><shared>initial</shared>");
    for w in 0..writers {
        xml.push_str(&format!("<own{w}>initial</own{w}>"));
    }
    xml.push_str("</d>");
    peers[1].repo.put_xml("shared", &xml).unwrap();
    for w in 0..writers {
        let target = if w < contended { "shared".to_string() } else { format!("own{w}") };
        let method = format!("write{w}");
        wsdl.publish(&method, &[&target]);
        peers[1].registry.register(
            axml_doc::ServiceDef::update(
                &method,
                "shared",
                UpdateAction::replace(
                    Locator::parse(&format!("d/{target}")).unwrap(),
                    vec![Fragment::elem_text(target.clone(), format!("by-w{w}"))],
                ),
            )
            .with_results(&[&target])
            .with_duration(25),
        );
    }
    for (i, p) in peers.iter_mut().enumerate() {
        let _ = i;
        p.wsdl = wsdl.clone();
    }
    // One origin peer per writer, ids 2..
    for w in 0..writers {
        let origin = (w + 2) as u32;
        let method = format!("write{w}");
        peers[origin as usize]
            .repo
            .put_xml(
                "mine",
                &format!(
                    r#"<d><out>x</out><axml:sc mode="replace" serviceNameSpace="w" serviceURL="peer://ap1" methodName="{method}"/></d>"#
                ),
            )
            .unwrap();
        // Wildcard projection: the embedded write call is always relevant.
        peers[origin as usize].registry.register(
            axml_doc::ServiceDef::query("go", "mine", SelectQuery::parse("Select v/* from v in d").unwrap())
                .with_results(&["out"]),
        );
    }
    let mut sim: Sim<TxnMsg, AxmlPeer> = Sim::new(SimConfig { seed: 5, ..Default::default() }, peers);
    for w in 0..writers {
        let origin = PeerId((w + 2) as u32);
        sim.actor_mut(origin).auto_submit = Some(("go".into(), vec![]));
        sim.schedule_timer((w as u64) % 3, origin, 0);
    }
    sim.run();

    let mut committed = 0usize;
    let mut aborted = 0usize;
    for w in 0..writers {
        let origin = PeerId((w + 2) as u32);
        let outcome = sim.actor(origin).outcomes.first().expect("resolved");
        if outcome.committed {
            committed += 1;
        } else {
            aborted += 1;
        }
    }
    let doc = sim.actor(provider).repo.get("shared").unwrap().to_xml();
    let surviving = doc.matches("by-w").count();
    // Lost update: a committed writer whose value is absent.
    let mut lost = 0usize;
    for w in 0..writers {
        let origin = PeerId((w + 2) as u32);
        let outcome = sim.actor(origin).outcomes.first().expect("resolved");
        if outcome.committed && !doc.contains(&format!("by-w{w}")) {
            lost += 1;
        }
    }
    Row {
        writers,
        contended,
        isolation,
        committed,
        aborted,
        conflicts: sim.actor(provider).stats.isolation_conflicts,
        surviving_updates: surviving,
        lost_updates: lost,
    }
}

/// Runs the sweep.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for &(writers, contended) in &[(4usize, 0usize), (4, 2), (4, 4), (8, 4)] {
        for isolation in [true, false] {
            rows.push(run_one(writers, contended, isolation));
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E10 — isolation under contention (N writers, one shared provider document)",
        &["writers", "contended", "isolation", "committed", "aborted", "conflicts", "surviving", "lost-updates"],
    );
    for r in rows {
        t.row(vec![
            r.writers.to_string(),
            r.contended.to_string(),
            r.isolation.to_string(),
            r.committed.to_string(),
            r.aborted.to_string(),
            r.conflicts.to_string(),
            r.surviving_updates.to_string(),
            r.lost_updates.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: with isolation, lost-updates = 0 at any contention (losers abort and are \
         compensated); without it, contended writers all commit but every overwritten value is a \
         lost update; disjoint writers are unaffected either way",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let rows = run();
        for r in &rows {
            assert_eq!(r.committed + r.aborted, r.writers, "{r:?}");
            if r.isolation {
                assert_eq!(r.lost_updates, 0, "isolation prevents lost updates: {r:?}");
                if r.contended >= 2 {
                    assert!(r.conflicts >= 1, "{r:?}");
                    assert!(r.aborted >= 1, "{r:?}");
                }
            } else {
                assert_eq!(r.aborted, 0, "no isolation → everyone commits: {r:?}");
                if r.contended >= 2 {
                    assert!(r.lost_updates >= 1, "lost updates without isolation: {r:?}");
                }
            }
            if r.contended == 0 {
                assert_eq!(r.lost_updates, 0);
                assert_eq!(r.conflicts, 0, "disjoint writers never conflict: {r:?}");
            }
        }
    }

    #[test]
    fn disjoint_writers_all_commit_with_isolation() {
        let r = run_one(4, 0, true);
        assert_eq!(r.committed, 4);
        assert_eq!(r.surviving_updates, 4);
    }
}
