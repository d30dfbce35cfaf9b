//! A deliberately-broken fixture exercising every rule family: a
//! malformed scenario, a corrupt effect log with an unsound compensation
//! bundle, and a corrupted active-peer list. `axml-analyze --demo-broken`
//! runs the full rule set over it and must exit nonzero.

use axml_core::chain::{ActiveList, ChainNode};
use axml_core::compensate::compensation_for_effects;
use axml_core::scenarios::ScenarioBuilder;
use axml_p2p::PeerId;
use axml_query::{Effect, Locator, NodePath, UpdateAction};
use axml_xml::{Document, Fragment};

/// Everything the demo analyzes.
pub struct BrokenFixture {
    /// A scenario with an unreachable handler, a retry that cannot
    /// succeed, dead edges, dangling declarations, a malformed handler,
    /// and a shadowed handler.
    pub builder: ScenarioBuilder,
    /// A corrupt effect log (truncated delete, insert into a deleted
    /// subtree).
    pub effects: Vec<Effect>,
    /// A compensation bundle that does not invert the log.
    pub compensation: Vec<UpdateAction>,
    /// A well-formed sibling-delete log whose compensation below is the
    /// right inverses applied in the wrong order.
    pub reordered_effects: Vec<Effect>,
    /// The correct inverses of [`Self::reordered_effects`], reversed —
    /// a non-commuting reordering.
    pub reordered_compensation: Vec<UpdateAction>,
    /// An active list with a duplicated peer and an orphaned entry.
    pub chain: ActiveList,
    /// A stored active-list notation string that does not parse.
    pub notation: String,
}

/// Builds the fixture. Every field is intentionally wrong; see the tests
/// for the exact rule ids each part trips.
pub fn broken() -> BrokenFixture {
    // (7, 8) is disconnected from the origin (W001); the fault at 2 makes
    // the catchAll retry on (1, 2) futile without a replica (W003); the
    // named catch on (2, 3) can never fire (W002); peer 99 is not in the
    // scenario (W004); super 42 is dangling (W005).
    // The named catch declared after the catchAll on (1, 2) can never be
    // consulted (W007); the broken handler XML on (7, 8) makes peer 7's
    // generated document unparseable (W006).
    let mut builder = ScenarioBuilder::new(1, &[(1, 2), (2, 3), (7, 8)])
        .fault_at(2)
        .retry_handler(1, 2, None, 2, 3)
        .retry_handler(1, 2, Some("ExecutionFault"), 1, 1)
        .retry_handler(2, 3, Some("NoSuchFaultEver"), 1, 1)
        .disconnect(10, 99);
    builder.supers.push(42);
    builder.handlers.push((7, 8, "<axml:catchAll><unclosed></axml:catchAll>".into()));

    // The delete logged no content (C001) and the later insert lands
    // inside the subtree the first effect removed (C003).
    let any_node = Document::parse("<d/>").expect("static").root();
    let effects = vec![
        Effect::Deleted { fragment: Fragment::text(""), parent_path: NodePath(vec![0]), position: 0 },
        Effect::Inserted { node: any_node, path: NodePath(vec![0, 0, 1]), fragment: Fragment::elem_text("ghost", "y") },
    ];
    // One action for two effects (C002), located by query instead of a
    // structural address (C004), carrying no data (C005).
    let compensation = vec![UpdateAction::insert(Locator::parse("Select v/slot from v in d").expect("static"), vec![])];

    // Two deletes at sibling slots: their inverses only telescope in
    // reverse log order — swapping them shifts the second slot (C006).
    let reordered_effects = vec![
        Effect::Deleted { fragment: Fragment::elem_text("a", "1"), parent_path: NodePath(vec![]), position: 1 },
        Effect::Deleted { fragment: Fragment::elem_text("b", "2"), parent_path: NodePath(vec![]), position: 3 },
    ];
    let mut reordered_compensation = compensation_for_effects(&reordered_effects);
    reordered_compensation.reverse();

    // AP2 appears twice (L001/L002), hiding the super marker the second
    // occurrence carries (L003); AP9 is never invoked by the scenario
    // (L005).
    let chain = ActiveList::from_root(ChainNode {
        peer: PeerId(1),
        is_super: false,
        children: vec![
            ChainNode::leaf(PeerId(2), false),
            ChainNode { peer: PeerId(2), is_super: true, children: vec![ChainNode::leaf(PeerId(9), false)] },
        ],
    });
    // A hand-edited rendering that lost its closing brackets (L004).
    let notation = "[AP1 → [AP2] || [AP2".to_string();
    BrokenFixture { builder, effects, compensation, reordered_effects, reordered_compensation, chain, notation }
}
