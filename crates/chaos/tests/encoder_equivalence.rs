//! The streaming encoder against the tree writer it replaced.
//!
//! `serde::Serialize` used to build an owned `Value` tree which
//! `serde_json` then printed; now every type writes its JSON straight
//! into the output. [`tree_writer`] below is that old printer, kept
//! verbatim as the oracle: for generated values of every shape the
//! workspace journals, `to_string(x)` must equal the old printer applied
//! to the parse of that very text, `Value`'s own `Serialize` must agree
//! with it, and `from_str` must give `x` back.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, GenScenario, Profile};
use axml_core::durability::{self, JournalEntry};
use axml_core::scenarios::{Handler, Recovery, ScenarioBuilder};
use axml_core::{InvocationId, TxnId};
use axml_obs::series::SeriesPoint;
use axml_p2p::{
    CrashEvent, EventKind, FaultAction, FaultPlane, Partition, PeerId, ScriptedFault, SpanRef, StorageFaultPlane,
    TraceEvent, TraceJournal, TxnRef,
};
use axml_spec::{Conformance, Divergence};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::fmt::{Debug, Write as _};
use std::sync::Arc;

/// The printer `serde_json` had before encoding became streaming.
fn tree_writer(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => tree_writer_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_writer(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                tree_writer_string(k, out);
                out.push(':');
                tree_writer(item, out);
            }
            out.push('}');
        }
    }
}

fn tree_writer_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `to_string(x)` is what the old two-pass encoder printed.
fn encodes_as_before<T: Serialize>(x: &T) -> Result<String, TestCaseError> {
    let text = serde_json::to_string(x).expect("plain data serializes");
    let tree: Value = serde_json::from_str(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
    let mut old = String::new();
    tree_writer(&tree, &mut old);
    prop_assert_eq!(&old, &text, "streaming encode differs from the tree writer");
    prop_assert_eq!(&serde_json::to_string(&tree).expect("values serialize"), &text, "Value prints differently");
    Ok(text)
}

/// [`encodes_as_before`], and the text decodes back to `x`.
fn round_trips<T: Serialize + Deserialize + PartialEq + Debug>(x: &T) -> Result<(), TestCaseError> {
    let text = encodes_as_before(x)?;
    let back: T = serde_json::from_str(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
    prop_assert_eq!(&back, x);
    Ok(())
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// Strings over the characters the escaper treats specially, its
/// neighbours that it must leave alone, and multi-byte text.
fn nasty() -> impl Strategy<Value = String> {
    const PIECES: [&str; 12] = ["\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "\u{7f}", "é", "日", "a", "/"];
    prop::collection::vec(0usize..PIECES.len(), 0..6).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// Integers weighted towards the edges of their range.
fn edgy_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(9), Just(10), Just(u64::MAX), Just(u64::MAX - 1), any::<u64>(), 0u64..1_000]
}

fn edgy_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 0u32..64]
}

/// Every [`EventKind`], by index.
fn event_kind() -> impl Strategy<Value = EventKind> {
    (0usize..24, edgy_u32(), edgy_u64(), edgy_u64(), nasty()).prop_map(|(which, peer, a, b, text)| match which {
        0 => EventKind::Submit { method: text },
        1 => EventKind::Invoke { to: peer, method: text },
        2 => EventKind::Serve { from: peer, method: text },
        3 => EventKind::Materialize { doc: text, items: a },
        4 => EventKind::LogAppend { entry: text },
        5 => EventKind::ResultReturn { to: peer },
        6 => EventKind::FaultRaise { to: peer },
        7 => EventKind::CompensateDerive { actions: a },
        8 => EventKind::CompensateApply { actions: a },
        9 => EventKind::CompensateOp { doc: text, undoes: a, actions: b },
        10 => EventKind::AbortPropagate { to: peer },
        11 => EventKind::Resolve { committed: a.is_multiple_of(2) },
        12 => EventKind::AckSend { to: peer, id: a },
        13 => EventKind::Retransmit { to: peer, id: a, attempt: b as u32 },
        14 => EventKind::RetransmitGiveUp { to: peer, id: a },
        15 => EventKind::DedupSuppress { from: peer, id: a },
        16 => EventKind::DedupPrune { evicted: a },
        17 => EventKind::Detect { peer, how: text.into() },
        18 => EventKind::Crash,
        19 => EventKind::Restart { presumed_aborts: a },
        20 => EventKind::Disconnect,
        21 => EventKind::Reconnect,
        22 => EventKind::Inquire { to: peer },
        _ => EventKind::Gauge { name: text.into(), value: a },
    })
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    let ids = (
        prop::option::of((edgy_u32(), edgy_u64())),
        prop::option::of((edgy_u32(), edgy_u64())),
        prop::option::of((edgy_u32(), edgy_u64())),
    );
    (edgy_u64(), edgy_u64(), edgy_u32(), ids, event_kind()).prop_map(|(seq, at, peer, (txn, span, parent), kind)| {
        TraceEvent {
            seq,
            at,
            peer,
            epoch: at % 3,
            txn: txn.map(|(o, s)| TxnRef::new(o, s)),
            span: span.map(|(o, s)| SpanRef::new(o, s)),
            parent: parent.map(|(o, s)| SpanRef::new(o, s)),
            kind,
        }
    })
}

/// Journals of real runs — the source of effects carrying XML fragments.
fn recorded_entries() -> Vec<JournalEntry> {
    let mut out = Vec::new();
    for b in [ScenarioBuilder::fig1(), ScenarioBuilder::fig2(), ScenarioBuilder::fig1().fault_at(5)] {
        let mut s = b.build();
        s.run();
        for &p in &s.participants {
            out.extend_from_slice(s.sim.actor(p).journal());
        }
    }
    out
}

fn fault_plane() -> impl Strategy<Value = FaultPlane> {
    let probs = (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0);
    let script = prop::collection::vec(
        (edgy_u32(), edgy_u32(), nasty(), edgy_u64(), 0usize..3).prop_map(|(from, to, kind, nth, action)| {
            ScriptedFault {
                from: PeerId(from),
                to: PeerId(to),
                kind,
                nth,
                action: match action {
                    0 => FaultAction::Drop,
                    1 => FaultAction::Duplicate { extra: nth },
                    _ => FaultAction::Spike { extra: nth },
                },
            }
        }),
        0..4,
    );
    let partitions = prop::collection::vec(
        (edgy_u64(), edgy_u64(), prop::collection::vec(edgy_u32(), 0..3)).prop_map(|(start, end, side)| Partition {
            start,
            end,
            a: side.iter().copied().map(PeerId).collect(),
            b: side.iter().rev().copied().map(PeerId).collect(),
        }),
        0..3,
    );
    (edgy_u64(), probs, script, partitions, prop::bool::ANY).prop_map(
        |(seed, (drop, dup, spike, reorder), script, partitions, flag)| FaultPlane {
            seed,
            drop_prob: drop,
            dup_prob: if flag { 0.0 } else { dup },
            spike_prob: if flag { 1.0 } else { spike },
            reorder_prob: reorder,
            dup_extra: (seed % 7, seed),
            crashes: partitions.iter().map(|p| CrashEvent { at: p.start, peer: PeerId(1) }).collect(),
            partitions,
            script,
            storage: StorageFaultPlane {
                torn_append_prob: dup,
                sync_failure_prob: 0.5,
                partial_segment_on_crash: flag,
            },
            ..FaultPlane::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_events_of_every_kind(events in prop::collection::vec(trace_event(), 1..6)) {
        for e in &events {
            round_trips(e)?;
        }
        // The journal's one-buffer writer is the per-event encoder, line
        // by line over the merged order (gauges sit in the sample
        // column), and a loaded journal is the one that was written.
        let mut journal = TraceJournal::default();
        for e in &events {
            journal.record(e.at, e.peer, e.epoch, e.txn, e.span, e.parent, e.kind.clone());
        }
        let lines = journal.to_json_lines();
        let per_event: String =
            journal.iter().map(|e| serde_json::to_string(e).expect("events serialize") + "\n").collect();
        prop_assert_eq!(&lines, &per_event);
        prop_assert_eq!(TraceJournal::from_json_lines(&lines).expect("own output loads"), journal);
    }

    #[test]
    fn journal_entries_with_hostile_labels(
        labels in (nasty(), nasty(), nasty()),
        numbers in (edgy_u32(), edgy_u64(), any::<usize>()),
    ) {
        let ((doc, label, method), (peer, seq, pick)) = (labels, numbers);
        let recorded = recorded_entries_once();
        let txn = TxnId::new(PeerId(peer), seq);
        let inv = InvocationId::new(PeerId(peer), seq);
        round_trips(&JournalEntry::RemoteInvoked { txn, child: PeerId(peer), inv, method })?;
        round_trips(&JournalEntry::Resolved { txn, committed: seq.is_multiple_of(2), at: seq })?;
        // Effects (XML fragments, node paths) come from a recorded entry.
        let locals: Vec<&JournalEntry> = recorded.iter().filter(|e| matches!(e, JournalEntry::Local { .. })).collect();
        let JournalEntry::Local { effects, .. } = locals[pick % locals.len()] else { unreachable!() };
        prop_assert!(!effects.is_empty());
        let local = JournalEntry::Local { txn, doc, op_label: label, effects: effects.clone() };
        round_trips(&local)?;
        // The journal codec is the same encoder plus a newline.
        prop_assert_eq!(durability::encode(std::slice::from_ref(&local)), serde_json::to_string(&local).unwrap() + "\n");
    }

    #[test]
    fn shared_fields_encode_as_the_owned_ones(labels in prop::collection::vec(nasty(), 0..4), picks in (any::<usize>(), 0usize..6)) {
        // `Arc<[T]>` / `Arc<T>` where there was `Vec<T>` / `Box<T>` / `T`:
        // same bytes, and what either shape wrote both read back.
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Owned {
            entries: Vec<JournalEntry>,
            one: JournalEntry,
            labels: Vec<String>,
            last: Option<Box<JournalEntry>>,
        }
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Shared {
            entries: Arc<[JournalEntry]>,
            one: Arc<JournalEntry>,
            labels: Arc<[String]>,
            last: Option<Arc<JournalEntry>>,
        }
        let recorded = recorded_entries_once();
        let (from, len) = (picks.0 % recorded.len(), picks.1);
        let entries: Vec<JournalEntry> = recorded.iter().cycle().skip(from).take(len).cloned().collect();
        let owned = Owned {
            one: recorded[from].clone(),
            last: entries.last().cloned().map(Box::new),
            labels: labels.clone(),
            entries: entries.clone(),
        };
        let shared = Shared {
            one: Arc::new(recorded[from].clone()),
            last: entries.last().cloned().map(Arc::new),
            labels: labels.into(),
            entries: entries.into(),
        };
        let text = encodes_as_before(&owned)?;
        prop_assert_eq!(&serde_json::to_string(&shared).expect("plain data serializes"), &text);
        round_trips(&shared)?;
        prop_assert_eq!(serde_json::from_str::<Owned>(&text).expect("own output loads"), owned);
    }

    #[test]
    fn fault_planes(plane in fault_plane()) {
        round_trips(&plane)?;
    }

    #[test]
    fn generated_scenarios(seed in any::<u64>(), catch in prop::option::of(nasty()), times in edgy_u32(), wait in edgy_u64()) {
        let mut spec = GenScenario::generate(seed);
        spec.handlers.push(Handler { peer: 1, child: 2, catch, action: Recovery::Retry { times, wait } });
        spec.handlers.push(Handler { peer: 1, child: 3, catch: None, action: Recovery::Substitute });
        spec.stream_interval = Some(wait);
        round_trips(&spec)?;
    }

    #[test]
    fn series_points(metric in nasty(), peer in edgy_u32(), at in edgy_u64(), value in edgy_u64()) {
        round_trips(&SeriesPoint { metric, peer, at, value })?;
    }

    #[test]
    fn conformance_verdicts(
        details in prop::collection::vec((nasty(), prop::collection::vec(nasty(), 0..3)), 0..3),
        peer in edgy_u32(),
        seq in edgy_u64(),
    ) {
        // Encode-only: a verdict is never read back.
        let divergences = details
            .into_iter()
            .map(|(detail, context)| Divergence {
                invariant: "I3",
                rule: "R06/R07",
                seq,
                at: seq / 2,
                peer,
                txn: seq.is_multiple_of(2).then(|| TxnRef::new(peer, seq)),
                detail,
                context,
            })
            .collect();
        encodes_as_before(&Conformance { events: seq as usize, divergences })?;
    }
}

/// [`recorded_entries`], run once for the whole property.
fn recorded_entries_once() -> &'static [JournalEntry] {
    static ENTRIES: std::sync::OnceLock<Vec<JournalEntry>> = std::sync::OnceLock::new();
    ENTRIES.get_or_init(recorded_entries)
}

#[test]
fn every_recorded_journal_entry_and_demo_event_encodes_as_before() {
    // Not generated: what real runs actually write.
    for e in recorded_entries_once() {
        round_trips(e).unwrap_or_else(|err| panic!("{err}"));
    }
    let case = CaseConfig::new("fig1-abort", Profile::Mixed, 5);
    let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
    round_trips(&plane).unwrap_or_else(|err| panic!("{err}"));
    let (result, dump) = run_with_plane_traced(&case, plane);
    for e in TraceJournal::from_json_lines(&dump.journal.to_json_lines()).expect("journal loads").events() {
        round_trips(e).unwrap_or_else(|err| panic!("{err}"));
    }
    let verdict = result.conformance.expect("traced runs are checked");
    encodes_as_before(&verdict).unwrap_or_else(|err| panic!("{err}"));
}

#[test]
fn integers_at_the_edges_of_their_range() {
    for n in [0i64, -1, 1, i64::MAX, i64::MIN, i64::MIN + 1] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
        assert_eq!(serde_json::from_str::<i64>(&n.to_string()).unwrap(), n);
    }
    for n in [0u64, 9, 10, u64::MAX - 1, u64::MAX] {
        assert_eq!(serde_json::to_string(&n).unwrap(), n.to_string());
        assert_eq!(serde_json::from_str::<u64>(&n.to_string()).unwrap(), n);
    }
    assert_eq!(serde_json::to_string(&(i8::MIN, u8::MAX, i32::MIN)).unwrap(), "[-128,255,-2147483648]");
    // Sequence numbers at the top of their range survive as ids too.
    let (t, s) = (TxnRef::new(u32::MAX, u64::MAX), SpanRef::new(0, u64::MAX));
    assert_eq!(serde_json::to_string(&t).unwrap(), "\"T4294967295.18446744073709551615\"");
    assert_eq!(serde_json::from_str::<TxnRef>(&serde_json::to_string(&t).unwrap()).unwrap(), t);
    assert_eq!(serde_json::from_str::<SpanRef>("\"inv0.18446744073709551615\"").unwrap(), s);
    assert!(serde_json::from_str::<SpanRef>("\"inv0.18446744073709551616\"").is_err(), "one past u64::MAX");
}
