//! End-to-end integration tests across the whole stack, via the facade.
//!
//! These retell the paper's narrative as assertions: the running ATP
//! example (§1/§3.1), both figures (§3.2/§3.3), and the headline
//! guarantees (relaxed atomicity via dynamic compensation).

use axml::core::compensate::{apply_compensation, compensation_for_effects};
use axml::core::peer::WsdlCatalog;
use axml::doc::{LocalInvoker, ServiceRegistry};
use axml::prelude::*;
use axml::workload::atp_document;

// ----------------------------------------------------------------------
// §3.1: dynamic compensation on the running example.
// ----------------------------------------------------------------------

#[test]
fn paper_section_3_1_delete_and_compensate() {
    let mut doc = atp_document();
    let before = doc.to_xml();
    let delete = UpdateAction::delete(
        Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;").unwrap(),
    );
    let report = delete.apply(&mut doc).unwrap();
    assert!(!doc.to_xml().contains("Swiss"));
    let comp = compensation_for_effects(&report.effects);
    apply_compensation(&mut doc, &comp).unwrap();
    assert_eq!(doc.to_xml(), before);
}

#[test]
fn paper_section_3_1_queries_a_and_b() {
    // Lazy evaluation materializes exactly the call each query needs.
    let mut reg = ServiceRegistry::new();
    reg.register(
        ServiceDef::function("getPoints", |_| Ok(vec![Fragment::elem_text("points", "890")])).with_results(&["points"]),
    );
    reg.register(
        ServiceDef::function("getGrandSlamsWonbyYear", |params| {
            let year = params.iter().find(|(k, _)| k == "year").map(|(_, v)| v.clone()).unwrap_or_default();
            Ok(vec![Fragment::elem("grandslamswon").with_attr("year", year).with_text("A, F")])
        })
        .with_results(&["grandslamswon"]),
    );
    let engine = MaterializationEngine::new(EvalMode::Lazy).with_external("year", "2005");

    for (query, expected_call, expected_change) in [
        (
            "Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer;",
            "getGrandSlamsWonbyYear",
            r#"<grandslamswon year="2005">A, F</grandslamswon>"#,
        ),
        (
            "Select p/citizenship, p/points from p in ATPList//player where p/name/lastname = Federer;",
            "getPoints",
            "<points>890</points>",
        ),
    ] {
        let mut doc = atp_document();
        let before = doc.to_xml();
        let mut repo = Repository::new();
        let mut invoker = LocalInvoker { registry: &reg, repo: &mut repo };
        let q = SelectQuery::parse(query).unwrap();
        let (_hits, report) = engine.query(&mut doc, &q, &mut invoker).unwrap();
        assert_eq!(report.materialized, 1);
        assert_eq!(report.invocations[0].method, expected_call);
        assert!(doc.to_xml().contains(expected_change), "{}", doc.to_xml());
        // Query compensation restores the document exactly.
        let comp = compensation_for_effects(&report.effects);
        apply_compensation(&mut doc, &comp).unwrap();
        assert_eq!(doc.to_xml(), before);
    }
}

// ----------------------------------------------------------------------
// §3.2: Fig. 1 nested recovery through the full distributed stack.
// ----------------------------------------------------------------------

#[test]
fn fig1_full_stack_abort_restores_every_peer() {
    let mut cfg = PeerConfig::default();
    cfg.use_alternative_providers = false;
    let mut scenario = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
    let report = scenario.run();
    assert!(!report.outcome.unwrap().committed);
    assert!(report.atomic, "divergent: {:?}", scenario.divergent_docs());
}

#[test]
fn fig1_full_stack_commit_reaches_every_participant() {
    let mut scenario = ScenarioBuilder::fig1().build();
    let report = scenario.run();
    let outcome = report.outcome.unwrap();
    assert!(outcome.committed);
    let txn = outcome.txn;
    for p in [1u32, 2, 3, 4, 5, 6] {
        let ctx = scenario.sim.actor(PeerId(p)).context(txn).expect("participated");
        assert_eq!(ctx.state, TxnState::Committed, "AP{p}");
    }
}

#[test]
fn fig1_peer_independent_origin_drives_compensation() {
    let mut cfg = PeerConfig::default();
    cfg.peer_independent = true;
    cfg.use_alternative_providers = false;
    let mut builder = ScenarioBuilder::fig1().fault_at(2).config(cfg);
    // S2 is slow so AP3's whole subtree completes first and ships its
    // compensating-service bundle to the origin.
    builder.durations.insert(2, 400);
    let mut scenario = builder.build();
    let report = scenario.run();
    assert!(!report.outcome.unwrap().committed);
    assert!(report.atomic, "divergent: {:?}", scenario.divergent_docs());
    assert!(report.metrics.kind("compensate") > 0, "origin sent compensating services");
}

// ----------------------------------------------------------------------
// §3.3: chaining notation + sphere check via the public API.
// ----------------------------------------------------------------------

#[test]
fn chain_notation_matches_paper() {
    let mut scenario = ScenarioBuilder::fig2().build();
    let report = scenario.run();
    let txn = report.txn.unwrap();
    let chain = &scenario.sim.actor(PeerId(1)).context(txn).unwrap().chain;
    assert_eq!(chain.to_notation(), "[AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]");
    assert!(!sphere_guarantees_atomicity(chain), "regular peers break the sphere");
}

#[test]
fn gossip_gives_every_peer_the_full_chain() {
    let mut scenario = ScenarioBuilder::fig2().build();
    let report = scenario.run();
    let txn = report.txn.unwrap();
    // After the run, every participant learned the full tree (6 peers).
    for p in [1u32, 2, 3, 4, 5, 6] {
        let chain = &scenario.sim.actor(PeerId(p)).context(txn).unwrap().chain;
        assert_eq!(chain.all_peers().len(), 6, "AP{p} sees {}", chain.to_notation());
    }
}

// ----------------------------------------------------------------------
// Multiple transactions through shared peers.
// ----------------------------------------------------------------------

#[test]
fn two_transactions_share_a_provider() {
    // AP1 and AP4 both originate transactions using AP2's and AP3's
    // services; both commit and both sets of effects survive.
    let mut wsdl = WsdlCatalog::default();
    wsdl.publish("echo2", &["r2"]);
    wsdl.publish("echo3", &["r3"]);
    let mut peers = Vec::new();
    for id in 0..5u32 {
        let mut peer = AxmlPeer::new(PeerId(id), PeerConfig::default());
        peer.wsdl = wsdl.clone();
        peers.push(peer);
    }
    for origin in [1u32, 4] {
        let doc = format!(
            r#"<d><out>from-{origin}</out>
                <axml:sc mode="merge" serviceNameSpace="x" serviceURL="peer://ap2" methodName="echo2"/>
                <axml:sc mode="merge" serviceNameSpace="x" serviceURL="peer://ap3" methodName="echo3"/>
            </d>"#
        );
        peers[origin as usize].repo.put_xml("mine", &doc).unwrap();
        peers[origin as usize].registry.register(
            ServiceDef::query("go", "mine", SelectQuery::parse("Select v//out, v//r2, v//r3 from v in d").unwrap())
                .with_results(&["out"]),
        );
    }
    for (id, name) in [(2u32, "echo2"), (3u32, "echo3")] {
        let tag = format!("r{id}");
        peers[id as usize].registry.register(
            ServiceDef::function(name, move |_| Ok(vec![Fragment::elem_text(tag.clone(), "hi")]))
                .with_results(&[if id == 2 { "r2" } else { "r3" }]),
        );
    }
    let mut sim = Sim::new(SimConfig::default(), peers);
    for origin in [1u32, 4] {
        sim.actor_mut(PeerId(origin)).auto_submit = Some(("go".into(), vec![]));
        sim.schedule_timer(0, PeerId(origin), 0);
    }
    sim.run();
    for origin in [1u32, 4] {
        let actor = sim.actor(PeerId(origin));
        let outcome = actor.outcomes.first().expect("resolved");
        assert!(outcome.committed, "AP{origin}");
        let items = &actor.results[&outcome.txn];
        let text: String = items.iter().map(|f| f.to_xml()).collect();
        assert!(text.contains(&format!("from-{origin}")));
        assert!(text.contains("<r2>hi</r2>"), "{text}");
        assert!(text.contains("<r3>hi</r3>"), "{text}");
    }
    // AP2 served both transactions under distinct contexts.
    assert_eq!(sim.actor(PeerId(2)).known_txns().len(), 2);
}

// ----------------------------------------------------------------------
// Facade surface.
// ----------------------------------------------------------------------

#[test]
fn prelude_covers_the_daily_api() {
    // Compile-time check that the prelude exposes what the examples use;
    // exercise a couple of items to keep the imports honest.
    let doc = Document::parse("<r><a>1</a></r>").unwrap();
    let q = SelectQuery::parse("Select v/a from v in r").unwrap();
    assert_eq!(q.eval(&doc).unwrap().len(), 1);
    let _ = ScMode::Replace;
    let _ = RecoveryStyle::ForwardFirst;
    let _ = EvalMode::Lazy;
    let _: Option<TxnOutcome> = None;
    let chain = ActiveList::new(PeerId(1), true);
    assert!(sphere_guarantees_atomicity(&chain));
    let _ = CompensatingService::default();
    let _: Option<TransactionContext> = None;
    let _: Option<TxnId> = None;
    let _: Option<InvocationId> = None;
    let _: Option<TxnMsg> = None;
    let _: Option<Scenario> = None;
    let _: Option<ScenarioReport> = None;
    let _ = Flavor::Query;
    let _ = QName::new("axml:sc");
    let _: Option<NodeId> = None;
    let _: Option<PathExpr> = None;
    let _: Option<TransparentView> = None;
    let _: Option<Directory> = None;
    let _ = Fault::injected("x");
}
