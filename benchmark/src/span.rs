//! In-memory wall-clock spans recorded by the harness around its calls
//! into each layer. Nothing inside the program under test is
//! instrumented: a span's boundaries are the harness's own call sites.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `id` is the transaction or case index the span
/// belongs to, so all spans of one request share an identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder makes `enter`/`exit` no-ops, so
/// the untraced and the traced pass run the same harness code.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn enabled() -> Spans {
        Spans { enabled: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn disabled() -> Spans {
        Spans { enabled: false, ..Spans::enabled() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.open.iter().rev().nth(1).copied(), id });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Records `f` as one span.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (the recorder is reused pass after pass).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Per-span self time: the span's duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// `(span count, summed self time)` per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, id}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans { spans, ..Spans::enabled() }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100] → txn [10,90] → run [20,50] and run [60,80].
        let s = fixed(vec![
            Span { name: "pass", start_ns: 0, end_ns: 100, parent: None, id: 0 },
            Span { name: "txn", start_ns: 10, end_ns: 90, parent: Some(0), id: 7 },
            Span { name: "run", start_ns: 20, end_ns: 50, parent: Some(1), id: 7 },
            Span { name: "run", start_ns: 60, end_ns: 80, parent: Some(1), id: 7 },
        ]);
        assert_eq!(s.self_ns(), vec![20, 30, 30, 20]);
        let by_name = s.self_ns_by_name();
        assert_eq!(by_name["pass"], (1, 20));
        assert_eq!(by_name["txn"], (1, 30));
        assert_eq!(by_name["run"], (2, 50));
        let total: u64 = s.self_ns().iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn enter_and_exit_nest_under_the_innermost_open_span() {
        let mut s = Spans::enabled();
        s.enter("pass", 0);
        s.scope("txn", 3, || ());
        s.enter("txn", 4);
        s.scope("run", 4, || ());
        s.exit();
        s.exit();
        let parents: Vec<Option<usize>> = s.all().iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(s.all().iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s.to_json().contains("\"name\":\"run\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        s.enter("pass", 0);
        assert_eq!(s.scope("txn", 1, || 5), 5);
        s.exit();
        assert!(s.all().is_empty());
    }
}
