//! Property-based tests for the discrete-event simulator.
//!
//! - Determinism: identical configurations replay identically.
//! - Conservation: every sent message is delivered or dropped, never both
//!   or neither.
//! - Clock monotonicity: actors observe non-decreasing time.
//! - Churn bookkeeping: connectivity reflects the last applied event.

use axml_p2p::{Actor, Ctx, Message, PeerId, Sim, SimConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Token(u32);

impl Message for Token {
    fn kind(&self) -> &'static str {
        "token"
    }
}

/// Forwards tokens to the peer encoded in the token, recording times.
#[derive(Default)]
struct Forwarder {
    times: Vec<u64>,
    received: u32,
}

impl Actor<Token> for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: PeerId, msg: Token) {
        self.times.push(ctx.now());
        self.received += 1;
        // Forward a few hops: decrement and pass along.
        if msg.0 > 0 {
            let n = ctx.me().0 as usize;
            let _ = ctx.send(PeerId(((n as u32) + 1) % 4), Token(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, tag: u64) {
        self.times.push(ctx.now());
        let _ = ctx.send(PeerId((tag % 4) as u32), Token((tag % 7) as u32));
    }
}

fn build(seed: u64, kicks: &[(u64, u32, u64)]) -> Sim<Token, Forwarder> {
    let actors = (0..4).map(|_| Forwarder::default()).collect();
    let mut sim = Sim::new(SimConfig { seed, ..Default::default() }, actors);
    for &(at, peer, tag) in kicks {
        sim.schedule_timer(at, PeerId(peer % 4), tag);
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_runs_replay_identically(
        seed in 0u64..500,
        kicks in prop::collection::vec((0u64..50, 0u32..4, 0u64..20), 1..12),
    ) {
        let mut a = build(seed, &kicks);
        let mut b = build(seed, &kicks);
        a.run();
        b.run();
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a.metrics().sent, b.metrics().sent);
        prop_assert_eq!(a.metrics().delivered, b.metrics().delivered);
        for p in 0..4u32 {
            prop_assert_eq!(&a.actor(PeerId(p)).times, &b.actor(PeerId(p)).times);
        }
    }

    #[test]
    fn message_conservation(
        seed in 0u64..500,
        kicks in prop::collection::vec((0u64..50, 0u32..4, 0u64..20), 1..12),
        flips in prop::collection::vec((0u64..100, 0u32..4, any::<bool>()), 0..12),
    ) {
        let mut sim = build(seed, &kicks);
        for &(at, peer, disconnect) in &flips {
            if disconnect {
                sim.schedule_disconnect(at, PeerId(peer));
            } else {
                sim.schedule_reconnect(at, PeerId(peer));
            }
        }
        sim.run();
        let m = sim.metrics();
        prop_assert_eq!(
            m.sent,
            m.delivered + m.dropped_in_flight,
            "sent = delivered + dropped: {:?}",
            m
        );
        // Per-kind counts sum to sent.
        let by_kind: u64 = m.by_kind.values().sum();
        prop_assert_eq!(by_kind, m.sent);
    }

    #[test]
    fn observed_clock_is_monotone(
        seed in 0u64..500,
        kicks in prop::collection::vec((0u64..50, 0u32..4, 0u64..20), 1..12),
    ) {
        let mut sim = build(seed, &kicks);
        sim.run();
        for p in 0..4u32 {
            let times = &sim.actor(PeerId(p)).times;
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1], "clock went backwards: {times:?}");
            }
        }
    }

    #[test]
    fn connectivity_reflects_last_event(
        flips in prop::collection::vec((1u64..100, 0u32..4, any::<bool>()), 1..10),
    ) {
        let mut sim = build(0, &[]);
        for &(at, peer, disconnect) in &flips {
            if disconnect {
                sim.schedule_disconnect(at, PeerId(peer % 4));
            } else {
                sim.schedule_reconnect(at, PeerId(peer % 4));
            }
        }
        sim.run();
        // Compute expected final state: last event per peer wins;
        // same-time events apply in scheduling order (seq).
        for p in 0..4u32 {
            let mut state = true;
            let mut best: Option<(u64, usize)> = None;
            for (i, &(at, peer, disconnect)) in flips.iter().enumerate() {
                if peer % 4 == p && best.map(|(t, s)| (at, i) >= (t, s)).unwrap_or(true) {
                    best = Some((at, i));
                    state = !disconnect;
                }
            }
            prop_assert_eq!(sim.is_connected(PeerId(p)), state, "peer {}", p);
        }
    }

    #[test]
    fn run_until_never_overshoots(
        seed in 0u64..200,
        kicks in prop::collection::vec((0u64..80, 0u32..4, 0u64..20), 1..8),
        deadline in 0u64..100,
    ) {
        let mut sim = build(seed, &kicks);
        let t = sim.run_until(deadline);
        prop_assert!(t <= deadline, "stopped at {t} > {deadline}");
        for p in 0..4u32 {
            for &obs in &sim.actor(PeerId(p)).times {
                prop_assert!(obs <= deadline);
            }
        }
    }
}
