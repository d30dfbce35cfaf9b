//! An `Invoke` of a method the provider does not serve is refused with a
//! `Fault` before anything is journaled. A context begun for it would have
//! no serving, no wait for a result and no timer, so with its invoker gone
//! for good right after asking, nothing would ever decide it.

use axml_core::messages::TxnMsg;
use axml_core::peer::{AxmlPeer, PeerConfig};
use axml_doc::ServiceDef;
use axml_p2p::{PeerId, Sim, SimConfig};
use axml_query::SelectQuery;

#[test]
fn an_unserved_invoke_begins_no_context_even_when_its_invoker_is_gone() {
    let mut peers: Vec<AxmlPeer> = (0..3).map(|i| AxmlPeer::new(PeerId(i), PeerConfig::default())).collect();
    // AP1's `root` materializes a call to `ghost`, which AP2 does not serve.
    peers[1]
        .repo
        .put_xml("main", r#"<d><axml:sc serviceNameSpace="g" serviceURL="peer://ap2" methodName="ghost"/></d>"#)
        .unwrap();
    let query = SelectQuery::parse("Select v//out from v in d").unwrap();
    peers[1].registry.register(ServiceDef::query("root", "main", query).with_results(&["out"]));
    peers[1].auto_submit = Some(("root".into(), vec![]));
    let mut sim: Sim<TxnMsg, AxmlPeer> = Sim::new(SimConfig::default(), peers);
    sim.schedule_timer(0, PeerId(1), 0);
    // The Invoke leaves at t = 0 and is in flight when AP1 goes away.
    sim.schedule_disconnect(1, PeerId(1));
    sim.run();
    assert_eq!(sim.metrics().kind("invoke"), 1);
    let provider = sim.actor(PeerId(2));
    assert_eq!(provider.undecided().count(), 0, "AP2 holds an undecided context");
    assert_eq!(provider.open_contexts(), 0);
}
