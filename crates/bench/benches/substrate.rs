//! Criterion micro-benchmarks for the substrates the protocols run on:
//! XML parse/serialize, path evaluation, transparent evaluation, and
//! compensation construction.

use axml_core::compensate::compensation_for_effects;
use axml_core::durability::{decode, encode, journal_of, replay};
use axml_core::isolation::ConflictTable;
use axml_core::{ActiveList, InvocationId, TransactionContext, TxnId};
use axml_doc::TransparentView;
use axml_p2p::PeerId;
use axml_query::{Locator, PathExpr, SelectQuery, UpdateAction};
use axml_workload::{atp_document, random_plain_doc, DocParams};
use axml_xml::{Document, Fragment};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_xml(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml");
    for nodes in [100usize, 1000, 5000] {
        let doc = random_plain_doc(1, &DocParams { nodes, ..Default::default() });
        let xml = doc.to_xml();
        g.bench_with_input(BenchmarkId::new("parse", nodes), &xml, |b, xml| {
            b.iter(|| black_box(Document::parse(xml).expect("parses")));
        });
        g.bench_with_input(BenchmarkId::new("serialize", nodes), &doc, |b, doc| {
            b.iter(|| black_box(doc.to_xml()));
        });
        g.bench_with_input(BenchmarkId::new("clone_subtree", nodes), &doc, |b, doc| {
            b.iter(|| black_box(doc.extract_fragment(doc.root()).expect("root fragment")));
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    for nodes in [100usize, 1000, 5000] {
        let doc = random_plain_doc(2, &DocParams { nodes, ..Default::default() });
        let path = PathExpr::parse("root//e3/e1").expect("path");
        g.bench_with_input(BenchmarkId::new("descendant_path", nodes), &doc, |b, doc| {
            b.iter(|| black_box(path.eval(doc)));
        });
        let select = SelectQuery::parse("Select p/e1 from p in root//e2 where p/e1 != nothing").expect("query");
        g.bench_with_input(BenchmarkId::new("select_from_where", nodes), &doc, |b, doc| {
            b.iter(|| black_box(select.eval(doc).expect("evaluates")));
        });
    }
    g.finish();
}

fn bench_view(c: &mut Criterion) {
    let mut g = c.benchmark_group("view");
    let atp = atp_document();
    // The paper's query A: its projections live inside `axml:sc` wrappers.
    let query = SelectQuery::parse(
        "Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer",
    )
    .expect("query");
    g.bench_function("transparent_select_atp", |b| {
        b.iter(|| black_box(TransparentView::eval(&atp, &query).expect("evaluates")));
    });
    g.finish();
}

fn bench_compensation_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("compensation_build");
    // A realistic effect log: delete all e1 subtrees of a 1000-node doc.
    let base = random_plain_doc(3, &DocParams { nodes: 1000, ..Default::default() });
    let mut doc = base.clone();
    let mut del = UpdateAction::delete(Locator::Path(PathExpr::parse("root//e1").expect("path")));
    del.allow_empty_location = true;
    let report = del.apply(&mut doc).expect("applies");
    g.bench_function("invert_effect_log", |b| {
        b.iter(|| black_box(compensation_for_effects(&report.effects)));
    });
    // Fragment instantiation (the insert half of compensation).
    let frag = Fragment::elem("x").with_child(Fragment::elem_text("y", "z"));
    g.bench_function("fragment_instantiate", |b| {
        b.iter(|| {
            let mut d = Document::new("r");
            let root = d.root();
            black_box(d.append_fragment(root, &frag).expect("appends"))
        });
    });
    g.finish();
}

fn bench_durability(c: &mut Criterion) {
    let mut g = c.benchmark_group("durability");
    // A realistic mid-flight context: 20 local effect batches + 10 remote
    // invocations.
    let txn = TxnId::new(PeerId(3), 0);
    let mut tc = TransactionContext::new(txn, None, ActiveList::new(PeerId(3), false), 0);
    let mut doc = random_plain_doc(4, &DocParams { nodes: 500, ..Default::default() });
    for i in 0..20u64 {
        let mut del = UpdateAction::delete(Locator::Path(PathExpr::parse("root/e1").expect("path")));
        del.allow_empty_location = true;
        if let Ok(r) = del.apply(&mut doc) {
            tc.record_local("d", format!("op{i}"), r.effects);
        }
        let ins = UpdateAction::insert(
            Locator::Path(PathExpr::parse("root").expect("path")),
            vec![Fragment::elem_text("e1", format!("v{i}"))],
        );
        if let Ok(r) = ins.apply(&mut doc) {
            tc.record_local("d", format!("ins{i}"), r.effects);
        }
    }
    for i in 0..10u64 {
        tc.record_remote(PeerId(9), InvocationId::new(PeerId(3), i), "S9");
    }
    let journal = journal_of(&tc);
    let text = encode(&journal);
    g.bench_function("journal_encode", |b| {
        b.iter(|| black_box(encode(&journal)));
    });
    g.bench_function("journal_decode_replay", |b| {
        b.iter(|| black_box(replay(&decode(&text).expect("decodes")).expect("replays")));
    });
    g.finish();
}

fn bench_isolation(c: &mut Criterion) {
    let mut g = c.benchmark_group("isolation");
    // 100 transactions × 10 disjoint claims, then probe.
    g.bench_function("claim_release_100x10", |b| {
        b.iter(|| {
            let mut table = ConflictTable::new();
            for t in 0..100u64 {
                let txn = TxnId::new(PeerId(1), t);
                for k in 0..10usize {
                    table.claim(txn, "d", &axml_query::NodePath(vec![t as usize, k])).expect("disjoint");
                }
            }
            for t in 0..100u64 {
                table.release(TxnId::new(PeerId(1), t));
            }
            black_box(table.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_xml,
    bench_query,
    bench_view,
    bench_compensation_build,
    bench_durability,
    bench_isolation
);
criterion_main!(benches);
