//! `serde_json::from_str` on hostile input: an error, never a panic and
//! never a stack overflow.
//!
//! The vendored shims sit outside the workspace, so `cargo test` does not
//! run their own unit tests; this is the lowest workspace crate that has
//! `serde`, `serde_json` and `proptest` together.
//!
//! The parser recurses once per `[`/`{`. It is bounded at
//! `serde_json::MAX_DEPTH` open containers, which must both admit what
//! the encoder emits (three JSON levels per XML level of a journalled
//! fragment) and fit the 2 MiB stack of a spawned thread, where
//! `par_map` workers run WAL recovery.

use proptest::prelude::*;
use serde::Value;
use serde_json::MAX_DEPTH;

/// Runs `f` on a thread with the default 2 MiB stack of a spawned thread
/// (the main thread's is larger and would hide an overflow).
fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no panic, no overflow")
}

fn nested(open: &str, close: &str, levels: usize) -> String {
    open.repeat(levels) + &close.repeat(levels)
}

#[test]
fn two_hundred_thousand_open_brackets_are_an_error_not_a_stack_overflow() {
    // Regression: `python3 -c "print('['*200000)" > deep.jsonl &&
    // axml-obs profile deep.jsonl` died with "thread 'main' has
    // overflowed its stack".
    let err = on_worker_stack(|| serde_json::from_str::<Value>(&"[".repeat(200_000)).map(drop));
    let msg = err.expect_err("unbounded nesting is rejected").to_string();
    assert!(msg.contains("nesting deeper than 1024 levels"), "{msg}");
    let err = on_worker_stack(|| serde_json::from_str::<Value>(&"{\"k\":".repeat(200_000)).map(drop));
    assert!(err.is_err());
}

#[test]
fn input_exactly_at_the_depth_limit_parses_on_a_worker_stack() {
    for (open, close) in [("[", "]"), ("{\"k\":[", "]}")] {
        let per_unit = open.matches(['[', '{']).count();
        let units = MAX_DEPTH / per_unit;
        let at_limit = nested(open, close, units);
        let depth = on_worker_stack(move || {
            let mut v: Value = serde_json::from_str(&at_limit).expect("nesting at the limit parses");
            let mut depth = 0;
            loop {
                v = match v {
                    Value::Seq(mut items) if !items.is_empty() => items.remove(0),
                    Value::Map(mut entries) if !entries.is_empty() => entries.remove(0).1,
                    Value::Seq(_) | Value::Map(_) => break depth + 1,
                    other => panic!("unexpected leaf {other:?}"),
                };
                depth += 1;
            }
        });
        assert_eq!(depth, units * per_unit);
        let over = nested(open, close, units + 1);
        assert!(on_worker_stack(move || serde_json::from_str::<Value>(&over).is_err()));
    }
}

#[test]
fn a_fragment_shaped_document_340_xml_levels_deep_is_within_the_limit() {
    // `{"Element":{"name":…,"children":[` — three containers a level.
    let xml_levels = 340;
    let text =
        "{\"Element\":{\"name\":\"n\",\"attrs\":[],\"children\":[".repeat(xml_levels) + &"]}}".repeat(xml_levels);
    assert!(xml_levels * 3 <= MAX_DEPTH);
    assert!(on_worker_stack(move || serde_json::from_str::<Value>(&text).is_ok()));
}

#[test]
fn siblings_do_not_count_towards_the_depth() {
    let wide = format!("[{}]", vec!["[[]]"; 5_000].join(","));
    let v: Value = serde_json::from_str(&wide).expect("wide is not deep");
    assert_eq!(v.as_seq().map(<[Value]>::len), Some(5_000));
}

/// Text drawn from the characters that steer the parser.
fn soup() -> impl Strategy<Value = String> {
    const PIECES: [&str; 24] = [
        "[", "]", "{", "}", "\"", "\\", ",", ":", " ", "\n", "-", "1", "0", ".", "e", "E", "+", "null", "true", "fals",
        "\\u", "12ab", "é", "\u{1}",
    ];
    prop::collection::vec(0usize..PIECES.len(), 0..64).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn from_str_never_panics_on_bracket_and_quote_soup(text in soup()) {
        if let Ok(v) = serde_json::from_str::<Value>(&text) {
            // Whatever parses prints to text that parses, and printing
            // is a fixpoint from there (`-0` reads as a signed zero and
            // prints as `0`, so the values themselves may differ).
            let printed = serde_json::to_string(&v).expect("values serialize");
            let again: Value = serde_json::from_str(&printed).expect("own output parses");
            prop_assert_eq!(serde_json::to_string(&again).expect("values serialize"), printed);
        }
    }

    #[test]
    fn from_str_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<Value>(&text);
    }
}
