//! E2 — Fig. 2: the four peer-disconnection scenarios, with and without
//! chaining.
//!
//! Topology `[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]`. For each of the
//! paper's cases (a)–(d) we measure who detects the disconnection, how,
//! how fast, and how much work is wasted vs reused — chaining on vs off.
//! Claim validated: chaining cuts wasted work and resolution time in
//! (b)–(d) — and detection time in (d), where only the chain tells siblings
//! of each other — and is neutral in (a). In (b) either mode detects the
//! tick AP6 returns its result.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::{DetectHow, PeerConfig};
use axml_p2p::PeerId;

use crate::table::Table;

/// One measured disconnection case.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario label, e.g. `b: parent, detected by child`.
    pub scenario: String,
    /// Chaining enabled?
    pub chaining: bool,
    /// Which peer detected the disconnection first.
    pub detector: String,
    /// Detection mechanism.
    pub how: String,
    /// Disconnect time → first detection.
    pub detect_latency: u64,
    /// Disconnect time → transaction resolution.
    pub resolve_latency: u64,
    /// Completed work discarded.
    pub work_wasted: u64,
    /// Results reused via chaining.
    pub work_reused: u64,
    /// Servings stopped early thanks to notices.
    pub orphan_stops: u64,
    /// Did the transaction commit in the end?
    pub committed: bool,
    /// All-or-nothing outcome held (connected peers)?
    pub atomic: bool,
}

fn config(chaining: bool, streams: bool) -> PeerConfig {
    let mut c = PeerConfig::default();
    c.chaining = chaining;
    if streams {
        c.stream_interval = Some(7);
        c.ping_interval = 400;
        c.ping_timeout = 900;
    } else {
        // Slow pings so chaining-specific detection (send failures,
        // notices) is visible against the keep-alive baseline.
        c.ping_interval = 300;
        c.ping_timeout = 700;
    }
    c
}

fn how_str(h: DetectHow) -> &'static str {
    match h {
        DetectHow::SendFailure => "send-failure",
        DetectHow::PingTimeout => "ping",
        DetectHow::StreamSilence => "stream-silence",
        DetectHow::Notice => "notice",
        DetectHow::AckTimeout => "ack-timeout",
    }
}

fn measure(scenario: &str, chaining: bool, builder: ScenarioBuilder, disconnect_at: u64) -> Row {
    let mut s = builder.build();
    let report = s.run();
    let first = report
        .stats
        .iter()
        .flat_map(|(p, st)| st.detections.iter().map(move |d| (*p, d.clone())))
        .filter(|(_, d)| d.disconnected == PeerId(3) || d.disconnected == PeerId(6))
        .min_by_key(|(_, d)| d.at);
    let (detector, how, detect_at) = match &first {
        Some((p, d)) => (p.to_string(), how_str(d.how).to_string(), d.at),
        None => ("-".into(), "-".into(), report.finished_at),
    };
    Row {
        scenario: scenario.to_string(),
        chaining,
        detector,
        how,
        detect_latency: detect_at.saturating_sub(disconnect_at),
        resolve_latency: report
            .outcome
            .as_ref()
            .map(|o| o.resolved_at.saturating_sub(disconnect_at))
            .unwrap_or_else(|| report.finished_at.saturating_sub(disconnect_at)),
        work_wasted: report.stats.values().map(|s| s.work_wasted).sum(),
        work_reused: report.stats.values().map(|s| s.work_reused).sum(),
        orphan_stops: report.stats.values().map(|s| s.orphan_stops).sum(),
        committed: report.outcome.as_ref().map(|o| o.committed).unwrap_or(false),
        atomic: report.atomic,
    }
}

fn fig2(durations: &[(u32, u64)]) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::fig2();
    b.flavor = Flavor::Update;
    for (p, d) in durations {
        b.durations.insert(*p, *d);
    }
    b
}

/// How long AP6 works in scenario (b).
const B_WORK: u64 = 60;
/// When AP3 leaves in scenario (b).
const B_DISCONNECT: u64 = 30;

/// Scenario (b): parent AP3 dies while child AP6 works; a replica of AP3
/// is available for forward recovery.
fn scenario_b(chaining: bool) -> ScenarioBuilder {
    let (b, _replica) = fig2(&[(6, B_WORK)]).with_replica(3);
    b.disconnect(B_DISCONNECT, 3).config(config(chaining, false))
}

/// Runs all four scenarios × chaining on/off.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for chaining in [true, false] {
        // (a) leaf AP6 dies mid-work; parent AP3 must detect. Use normal
        // pings: this case has no chaining-specific path.
        {
            let mut c = config(chaining, false);
            c.ping_interval = 10;
            c.ping_timeout = 25;
            c.use_alternative_providers = false;
            let b = fig2(&[(6, 500)]).disconnect(40, 6).config(c);
            rows.push(measure("a: leaf, detected by parent", chaining, b, 40));
        }
        rows.push(measure("b: parent, detected by child", chaining, scenario_b(chaining), B_DISCONNECT));
        // (c) child AP3 dies; parent AP2 detects via pings and (with
        // chaining) warns AP3's descendants.
        {
            let mut c = config(chaining, false);
            c.ping_interval = 10;
            c.ping_timeout = 25;
            c.use_alternative_providers = false;
            let b = fig2(&[(6, 2000), (3, 3000)]).disconnect(50, 3).config(c);
            rows.push(measure("c: child, detected by parent", chaining, b, 50));
        }
        // (d) sibling AP4 detects AP3 via missed stream intervals.
        {
            let mut c = config(chaining, true);
            c.use_alternative_providers = false;
            let b = fig2(&[(3, 3000), (4, 3000), (5, 50), (6, 50)]).disconnect(60, 3).config(c);
            rows.push(measure("d: sibling, via streams", chaining, b, 60));
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E2 / Fig.2 — disconnection scenarios [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]",
        &[
            "scenario",
            "chaining",
            "detector",
            "how",
            "t-detect",
            "t-resolve",
            "wasted",
            "reused",
            "orphan-stops",
            "committed",
            "atomic",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scenario.clone(),
            r.chaining.to_string(),
            r.detector.clone(),
            r.how.clone(),
            r.detect_latency.to_string(),
            r.resolve_latency.to_string(),
            r.work_wasted.to_string(),
            r.work_reused.to_string(),
            r.orphan_stops.to_string(),
            r.committed.to_string(),
            r.atomic.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: chaining reuses work and resolves sooner in (b) (AP6 notices as it returns its \
         result either way; with the chain the result goes on to AP2), stops orphans early in (c), \
         and enables stream-based sibling detection in (d); scenario (a) is unaffected by chaining",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let rows = run();
        assert_eq!(rows.len(), 8);
        let find = |scenario: &str, chaining: bool| {
            rows.iter().find(|r| r.scenario.starts_with(scenario) && r.chaining == chaining).unwrap()
        };
        // (a): chaining-neutral — same detector and mechanism.
        assert_eq!(find("a:", true).how, "ping");
        assert_eq!(find("a:", false).how, "ping");
        // (b): chaining reuses AP6's work and detects via send failure.
        let b_on = find("b:", true);
        let b_off = find("b:", false);
        assert_eq!(b_on.how, "send-failure");
        assert!(b_on.work_reused >= 1);
        assert_eq!(b_off.work_reused, 0);
        // Without the chain AP6 notices the same way (see the test below):
        // what the chain buys is where the result goes next.
        assert_eq!(b_off.how, "send-failure");
        assert_eq!((b_on.detector.as_str(), b_off.detector.as_str()), ("AP6", "AP6"));
        assert!(b_on.resolve_latency < b_off.resolve_latency);
        // (c): chaining stops orphans.
        assert!(find("c:", true).orphan_stops >= 1);
        assert_eq!(find("c:", false).orphan_stops, 0);
        // (d): stream detection only works when streams know the chain.
        let d_on = find("d:", true);
        assert!(d_on.how == "stream-silence" || d_on.how == "send-failure");
    }

    /// (b) is detected by AP6's failed send of its `Result`, at the very
    /// tick its service ends, chain or no chain: `B_WORK` after an `Invoke`
    /// that took three hops from the origin. Which mode reads the lower
    /// t-detect is the draw of those three latencies and nothing else.
    #[test]
    fn b_is_detected_the_tick_ap6_returns_its_result_in_either_mode() {
        let latency = axml_p2p::SimConfig::default().latency;
        for chaining in [true, false] {
            let mut s = scenario_b(chaining).build();
            let invoked = (3 * latency.min..=3 * latency.max).find(|&t| {
                s.sim.run_until(t);
                s.sim.actor(PeerId(6)).stats.served == 1
            });
            let invoked = invoked.expect("AP6 is invoked three hops after the submission");
            let report = s.run();
            let of_ap3 = report.stats.values().flat_map(|st| &st.detections).filter(|d| d.disconnected == PeerId(3));
            let first = of_ap3.min_by_key(|d| d.at).expect("detected");
            assert_eq!((first.at, first.how), (invoked + B_WORK, DetectHow::SendFailure), "chaining {chaining}");
            assert_eq!(report.stats[&PeerId(6)].detections.first(), Some(first), "chaining {chaining}: by AP6");
        }
    }
}
