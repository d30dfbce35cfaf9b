//! The bookkeeping a case does after its simulation, against the code it
//! replaced: the run and document digests that built their text before
//! hashing it, and the counter registry that was filled one `absorb` at
//! a time — once per case, and merged per sweep, where a case and a sweep
//! now keep their counters typed and name them only when asked. The old
//! paths live here only.
//!
//! The recomposed case also keeps the old WAL medium: each peer logs to
//! segment files in a scratch directory, as a real peer does, where the
//! shipped case logs to memory. Both media share one codec and one
//! recovery, so every cell must count the same `WalStats` either way —
//! this file is the on-disk reference for that.

use axml_chaos::{
    builder_for, case_matrix, doc_state_digest, load_corpus, par_map, plane_for, run_case, run_digest, run_with_plane,
    sweep_jobs, CaseConfig, Profile, SCENARIOS,
};
use axml_core::durability::WalStats;
use axml_core::scenarios::{Scenario, ScenarioReport};
use axml_obs::render_snapshot_prometheus;
use axml_p2p::{FaultPlane, Snapshot};
use axml_store::{WalConfig, WalSink};
use std::path::{Path, PathBuf};

/// A finished case, recomposed from the public pieces `run_case` is made
/// of (build, WAL sinks where the case needs them, run), so the scenario
/// is still there to digest. The scratch WAL directory goes with it.
struct Finished {
    s: Scenario,
    report: ScenarioReport,
    wal: Option<PathBuf>,
}

impl Drop for Finished {
    fn drop(&mut self) {
        if let Some(dir) = &self.wal {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn finish(case: &CaseConfig, plane: &FaultPlane, tag: &str) -> Finished {
    let mut b = builder_for(&case.scenario).expect("known scenario");
    let mut cfg = b.config.clone();
    cfg.dedup = case.dedup;
    let mut effective = plane.clone();
    effective.crashes.extend(b.fault.crashes.iter().copied());
    effective.partitions.extend(b.fault.partitions.iter().cloned());
    effective.script.extend(b.fault.script.iter().cloned());
    let disk_backed = !effective.storage.is_inert() || !b.fault.crashes.is_empty();
    b.seed = 1000 + case.seed;
    b.batch_links = case.batch_links;
    let mut s = b.config(cfg).fault_plane(effective.clone()).build();
    let wal = disk_backed.then(|| {
        let base = std::env::temp_dir().join(format!("axml-old-paths-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for &p in &s.participants {
            let peer_seed = case.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(u64::from(p.0));
            let config = WalConfig::new(base.join(format!("peer-{}", p.0)));
            let sink = WalSink::with_faults(config, effective.storage.clone(), peer_seed).expect("scratch WAL");
            s.sim.actor_mut(p).set_durability_sink(Box::new(sink));
        }
        base
    });
    let report = s.run();
    Finished { s, report, wal }
}

fn old_fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The document lines both old digests built, each with its own
/// `to_xml` of every document.
fn old_doc_lines(s: &Scenario) -> String {
    let mut text = String::new();
    for &p in &s.participants {
        let actor = s.sim.actor(p);
        for name in actor.repo.names() {
            text.push_str(&format!("doc {p} {name} {}\n", actor.repo.get(name).expect("listed").to_xml()));
        }
    }
    text
}

fn old_run_digest(s: &Scenario, report: &ScenarioReport) -> u64 {
    let mut text = format!(
        "outcome={:?} finished={} sent={} kinds={:?}\n",
        report.outcome.as_ref().map(|o| o.committed),
        report.finished_at,
        report.metrics.sent,
        report.metrics.by_kind,
    );
    text.push_str(&old_doc_lines(s));
    text.push_str(&format!("trace={:?}\n", s.sim.fault_trace()));
    old_fnv64(&text)
}

/// The WAL counters of every participant, added up as a case adds them.
fn wal_stats(s: &Scenario) -> WalStats {
    let mut wal = WalStats::default();
    for &p in &s.participants {
        wal.merge(&s.sim.actor(p).wal_stats());
    }
    wal
}

/// Shipped path and recomposition are the same program; streaming and
/// string-building digests agree on it, and the segment files of the
/// recomposition count what the shipped case's memory segments count.
/// Returns whether the case ran a WAL.
fn check_digests(case: &CaseConfig, plane: &FaultPlane, tag: &str) -> bool {
    let shipped = run_with_plane(case, plane.clone());
    let f = finish(case, plane, tag);
    let label = case.label();
    assert_eq!(shipped.wal, wal_stats(&f.s), "{label}: WAL counters on disk and in memory");
    assert_eq!(run_digest(&f.s, &f.report), old_run_digest(&f.s, &f.report), "{label}: run digest");
    assert_eq!(doc_state_digest(&f.s), old_fnv64(&old_doc_lines(&f.s)), "{label}: document digest");
    assert_eq!(shipped.digest, run_digest(&f.s, &f.report), "{label}: one pass in `run_inner`, run digest");
    assert_eq!(shipped.doc_digest, doc_state_digest(&f.s), "{label}: one pass in `run_inner`, document digest");
    f.wal.is_some()
}

#[test]
fn streaming_digests_equal_the_string_built_ones_on_every_cell() {
    let mut logged = 0;
    for scenario in SCENARIOS {
        for &profile in Profile::all() {
            for seed in [0, 7] {
                let case = CaseConfig::new(scenario, profile, seed);
                let plane = plane_for(profile, seed, &builder_for(scenario).expect("known").peers());
                logged += usize::from(check_digests(&case, &plane, "cells"));
            }
        }
    }
    // The `storage` column and the `fig1-crash` row, at both seeds.
    assert_eq!(logged, 2 * (SCENARIOS.len() + Profile::all().len() - 1), "cells that ran a WAL");
}

#[test]
fn streaming_digests_equal_the_string_built_ones_on_every_corpus_entry() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let entries = load_corpus(&dir).expect("corpus directory loads");
    assert!(!entries.is_empty(), "no corpus entries under {}", dir.display());
    for (name, entry) in &entries {
        let mut case = CaseConfig::new(&entry.scenario, Profile::parse(&entry.profile).expect(name), entry.seed);
        case.dedup = entry.dedup;
        check_digests(&case, &entry.plane, "corpus");
    }
}

/// `Scenario::snapshot` as it was: the network registry, then every
/// counter of every participant absorbed under its own key, then the
/// five WAL totals added peer by peer.
fn old_snapshot(s: &Scenario) -> Snapshot {
    let m = s.sim.metrics();
    let mut snap = Snapshot::default();
    for (name, value) in [
        ("net.sent", m.sent),
        ("net.delivered", m.delivered),
        ("net.send_failures", m.send_failures),
        ("net.dropped_in_flight", m.dropped_in_flight),
        ("net.timers_fired", m.timers_fired),
        ("net.disconnects", m.disconnects),
        ("net.reconnects", m.reconnects),
        ("net.injected_drops", m.injected_drops),
        ("net.partition_drops", m.partition_drops),
        ("net.injected_dups", m.injected_dups),
        ("net.injected_spikes", m.injected_spikes),
        ("net.injected_reorders", m.injected_reorders),
        ("net.out_of_order", m.out_of_order),
        ("net.retransmits", m.retransmits),
        ("net.crash_restarts", m.crash_restarts),
        ("net.stale_timers", m.stale_timers),
    ] {
        snap.set(name, value);
    }
    for (scope, by_kind) in [
        ("sent", &m.by_kind),
        ("drops", &m.drops_by_kind),
        ("dups", &m.dups_by_kind),
        ("retransmits", &m.retransmits_by_kind),
    ] {
        for (kind, value) in by_kind {
            snap.set(format!("net.{scope}.{kind}"), *value);
        }
    }
    for &p in &s.participants {
        let actor = s.sim.actor(p);
        let st = &actor.stats;
        for (name, value) in [
            ("served", st.served),
            ("completed", st.completed),
            ("faults_raised", st.faults_raised),
            ("retries", st.retries),
            ("substitutions", st.substitutions),
            ("alternatives_used", st.alternatives_used),
            ("compensations_executed", st.compensations_executed),
            ("comp_cost_nodes", st.comp_cost_nodes),
            ("aborts_received", st.aborts_received),
            ("aborts_sent", st.aborts_sent),
            ("work_wasted", st.work_wasted),
            ("work_reused", st.work_reused),
            ("orphan_stops", st.orphan_stops),
            ("redirects_sent", st.redirects_sent),
            ("redirects_received", st.redirects_received),
            ("late_messages", st.late_messages),
            ("retransmits", st.retransmits),
            ("retransmit_giveups", st.retransmit_giveups),
            ("dup_suppressed", st.dup_suppressed),
            ("acks_carried", st.acks_carried),
            ("acks_alone", st.acks_alone),
            ("seen_peak", st.seen_peak),
            ("keepalive_probes", st.keepalive_probes),
            ("keepalive_suppressed", st.keepalive_suppressed),
            ("storage_faults", st.storage_faults),
            ("crash_recoveries", st.crash_recoveries),
            ("presumed_aborts", st.presumed_aborts),
            ("inquiries", st.inquiries),
            ("detections", st.detections.len() as u64),
        ] {
            snap.absorb(format!("peer.{}.{name}", p.0), value);
        }
        let wal = actor.wal_stats();
        snap.add("wal.segments_rotated", wal.segments_rotated);
        snap.add("wal.bytes_appended", wal.bytes_appended);
        snap.add("wal.recovery_entries", wal.recovery_entries);
        snap.add("wal.torn_tails_discarded", wal.torn_tails_discarded);
        snap.add("wal.append_faults", wal.append_faults);
    }
    snap
}

#[test]
fn the_bulk_built_snapshot_equals_the_counter_by_counter_one() {
    for (scenario, profile, seed, on_disk) in
        [("fig1-crash", Profile::Storage, 3, true), ("fig1", Profile::Storm, 5, false)]
    {
        let case = CaseConfig::new(scenario, profile, seed);
        let plane = plane_for(profile, seed, &builder_for(scenario).expect("known").peers());
        let f = finish(&case, &plane, "snapshot");
        let (new, old) = (f.s.snapshot(), old_snapshot(&f.s));
        assert_eq!(new, old, "{}", case.label());
        assert_eq!(new.render(), old.render(), "{}", case.label());
        // The shipped case's registry is the scenario's plus the case's own
        // false-suspicion count.
        let shipped = run_with_plane(&case, plane);
        let mut case_registry = shipped.snapshot();
        let counted = case_registry.counters.remove("chaos.false_suspicions");
        assert_eq!(counted, Some(shipped.false_suspicions), "{}", case.label());
        assert_eq!(new, case_registry, "{}: the shipped case's registry", case.label());
        // The case did something worth counting, on the wire and in the log.
        assert_eq!(f.wal.is_some(), on_disk, "{}", case.label());
        assert!(new.get("net.sent") > 0 && new.counters.len() > 150, "{}: {}", case.label(), new.counters.len());
        assert!(new.get("wal.bytes_appended") > 0, "{}", case.label());
        assert_eq!(f.s.sim.metrics().snapshot().counters, {
            let mut net = old;
            net.counters.retain(|name, _| name.starts_with("net."));
            net.counters
        });
    }
}

/// What a case's registry was before its counters stayed typed: the
/// scenario's, built key by key, plus the case's false-suspicion count.
/// `tag` keeps the scratch WAL directory apart from other tests'.
fn old_case_snapshot(case: &CaseConfig, plane: &FaultPlane, false_suspicions: u64, tag: &str) -> Snapshot {
    let tag = format!("{tag}-{}-{}-{}", case.scenario, case.profile.name(), case.seed);
    let mut snap = old_snapshot(&finish(case, plane, &tag).s);
    snap.set("chaos.false_suspicions", false_suspicions);
    snap
}

/// Both renderings of a registry must come out as the old one's bytes.
fn same_registry(typed: &Snapshot, old: &Snapshot, what: &str) {
    assert_eq!(typed, old, "{what}");
    assert_eq!(typed.render(), old.render(), "{what}: render");
    assert_eq!(render_snapshot_prometheus(typed), render_snapshot_prometheus(old), "{what}: exposition");
}

#[test]
fn a_case_renders_its_typed_counters_as_the_old_registry_on_every_cell() {
    for scenario in SCENARIOS {
        for &profile in Profile::all() {
            let case = CaseConfig::new(scenario, profile, 0);
            let plane = plane_for(profile, 0, &builder_for(scenario).expect("known").peers());
            let shipped = run_case(&case);
            let old = old_case_snapshot(&case, &plane, shipped.false_suspicions, "case");
            same_registry(&shipped.snapshot(), &old, &case.label());
        }
    }
}

/// The sweep merges typed counters and renders once; the old sweep merged
/// one string-keyed registry per case.
#[test]
fn a_sweep_renders_its_merged_counters_as_the_merged_old_registries() {
    let scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    let out = sweep_jobs(&scenarios, Profile::all(), 0..16, true, 2);
    let cases = case_matrix(&scenarios, Profile::all(), 0..16, true);
    let old = par_map(&cases, 2, |_, case| {
        let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known").peers());
        old_case_snapshot(case, &plane, run_case(case).false_suspicions, "sweep")
    });
    let mut merged = Snapshot::default();
    for snap in &old {
        merged.merge(snap);
    }
    assert_eq!(out.runs, 400);
    assert!(merged.get("peer.1.seen_peak") > 0, "a peak to take the max of");
    same_registry(&out.snapshot, &merged, "16-seed sweep");
}
