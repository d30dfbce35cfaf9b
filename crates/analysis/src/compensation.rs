//! Compensation-soundness rules (`C…`) — §3.1 of the paper.
//!
//! The paper's recovery builds compensation *from the log*: every delete
//! must have logged the removed subtree, every insert its structural
//! address, and the inverses must be applied in reverse order so the
//! composition telescopes back to the original document. These rules
//! audit effect logs and compensation bundles symbolically — without a
//! document — so corrupt journals and hand-built (or filtered,
//! re-ordered, shipped-across-peers) bundles are caught before anyone
//! tries to run them.
//!
//! | Rule | Finding |
//! |------|---------|
//! | C001 | delete effect logs no subtree content |
//! | C002 | compensation does not telescope (truncated / extra / wrong / round-trip failure) |
//! | C003 | insert effect targets a previously-deleted subtree (corrupt log) |
//! | C004 | compensation locator is a query, not a structural address |
//! | C005 | compensation insert/replace carries no data |
//! | C006 | reordered compensation actions do not commute |

use crate::diag::Diagnostic;
use axml_core::compensate::{apply_compensation, compensation_for_effects};
use axml_query::{ActionType, Effect, InsertPos, Locator, NodePath, UpdateAction};
use axml_xml::{Document, Fragment, FragmentKind};

/// The structural address an update action operates on, when it has one.
fn action_root(a: &UpdateAction) -> Option<NodePath> {
    match (&a.location, a.insert_pos) {
        (Locator::Node(p), InsertPos::At(i)) if a.ty == ActionType::Insert => Some(p.child(i)),
        (Locator::Node(p), _) => Some(p.clone()),
        _ => None,
    }
}

/// Whether operations at `a` and `b` interfere — i.e. running them in the
/// wrong order can change the outcome. True when one address contains the
/// other, or when one is a sibling-level address at or before the other's
/// branch point (insert/delete there shifts the other's child index).
fn paths_interfere(a: &NodePath, b: &NodePath) -> bool {
    let k = a.0.iter().zip(&b.0).take_while(|(x, y)| x == y).count();
    if k == a.0.len() || k == b.0.len() {
        return true; // equal, or one contains the other
    }
    (a.0.len() == k + 1 && a.0[k] <= b.0[k]) || (b.0.len() == k + 1 && b.0[k] <= a.0[k])
}

/// Whether a logged "deleted subtree" carries no restorable content — the
/// paper requires "the results of the `<location>` queries of the delete
/// operations" to be logged; an empty placeholder means they were not.
fn fragment_is_empty(f: &Fragment) -> bool {
    matches!(f.kind(), FragmentKind::Text("") | FragmentKind::Cdata(""))
}

/// Audits an effect log on its own: can a sound compensation even be
/// built from it? Flags C001 (delete without logged subtree) and C003
/// (insert recorded inside a subtree an earlier effect deleted — a log
/// no replay of real operations can produce).
pub fn analyze_effect_log(effects: &[Effect]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Roots of deleted subtrees not since re-inserted at the same slot.
    let mut dead: Vec<NodePath> = Vec::new();
    for (i, e) in effects.iter().enumerate() {
        match e {
            Effect::Deleted { fragment, parent_path, position } => {
                if fragment_is_empty(fragment) {
                    out.push(Diagnostic::error(
                        "C001",
                        format!("effect #{i}"),
                        format!(
                            "delete at {} logs no subtree content; the compensating insert would restore nothing",
                            parent_path.child(*position)
                        ),
                        "log the delete's <location> query results (the removed fragment) with the effect",
                    ));
                }
                dead.push(parent_path.child(*position));
            }
            Effect::Inserted { path, .. } => {
                if let Some(d) = dead.iter().find(|d| d.is_ancestor_of(path)) {
                    out.push(Diagnostic::error(
                        "C003",
                        format!("effect #{i}"),
                        format!(
                            "insert at {path} lands inside the subtree deleted at {d}; the log is corrupt or truncated"
                        ),
                        "re-derive the log from the journal; effects must be recorded in application order",
                    ));
                }
                dead.retain(|d| d != path);
            }
        }
    }
    out
}

/// Audits a compensation bundle against the effect log it claims to
/// invert. A sound bundle is the reverse-order inverse of the log
/// (`compensation_for_effects`), which telescopes: each action cancels
/// the last surviving effect. Deviations are flagged as C002 (missing,
/// extra, or wrong actions), C004 (query locators — not peer-independent),
/// C005 (insert/replace without data), and C006 (a reordering whose
/// out-of-order pairs touch interfering paths, so the composition no
/// longer cancels).
pub fn analyze_compensation(effects: &[Effect], actions: &[UpdateAction]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, a) in actions.iter().enumerate() {
        match &a.location {
            Locator::Node(_) | Locator::Nodes(_) => {}
            other => out.push(Diagnostic::warning(
                "C004",
                format!("action #{i}"),
                format!(
                    "compensation locates its target with the query `{}` instead of a structural address",
                    other.to_text()
                ),
                "use Locator::Node/Nodes so the action is replayable on any replica (peer-independent compensation)",
            )),
        }
        if matches!(a.ty, ActionType::Insert | ActionType::Replace) && a.data.is_empty() {
            out.push(Diagnostic::error(
                "C005",
                format!("action #{i}"),
                format!("{:?} compensation carries no data; it cannot restore anything", a.ty),
                "carry the logged fragment as the action's <data>",
            ));
        }
    }
    let expected = compensation_for_effects(effects);
    if actions == expected.as_slice() {
        return out;
    }
    // Match each provided action to an unused expected inverse.
    let mut used = vec![false; expected.len()];
    let mut perm: Vec<Option<usize>> = Vec::with_capacity(actions.len());
    for a in actions {
        let slot = expected.iter().enumerate().find(|(j, e)| !used[*j] && *e == a).map(|(j, _)| j);
        if let Some(j) = slot {
            used[j] = true;
        }
        perm.push(slot);
    }
    let aliens = perm.iter().filter(|p| p.is_none()).count();
    let missing = used.iter().filter(|u| !**u).count();
    if aliens > 0 || missing > 0 {
        let detail = if actions.len() < expected.len() {
            format!("{} action(s) for {} effect(s) — the bundle is truncated", actions.len(), expected.len())
        } else if actions.len() > expected.len() {
            format!("{} action(s) for {} effect(s) — the bundle has extras", actions.len(), expected.len())
        } else {
            format!("{aliens} action(s) are not the inverse of any logged effect")
        };
        out.push(Diagnostic::error(
            "C002",
            "bundle".to_string(),
            format!("compensation does not telescope over the log: {detail}"),
            "rebuild the bundle with compensation_for_effects (reverse-order inverses of the log)",
        ));
        return out;
    }
    // Pure permutation of the correct inverses: harmless iff every
    // out-of-order pair operates on non-interfering paths.
    for i in 0..perm.len() {
        for j in i + 1..perm.len() {
            let (Some(pi), Some(pj)) = (perm[i], perm[j]) else { continue };
            if pi <= pj {
                continue;
            }
            let (Some(a), Some(b)) = (action_root(&actions[i]), action_root(&actions[j])) else {
                continue;
            };
            if paths_interfere(&a, &b) {
                out.push(Diagnostic::error(
                    "C006",
                    format!("actions #{i} and #{j}"),
                    format!(
                        "inverses applied out of reverse-log order on interfering paths {a} and {b}; they do not commute"
                    ),
                    "apply inverses strictly in reverse order of the logged effects",
                ));
            }
        }
    }
    out
}

/// Concrete round-trip probe: applies `action` to a copy of `doc`, audits
/// the real effect log, then builds and applies the compensation and
/// checks the document is byte-identical to where it started (the §3.1
/// identity). An inapplicable probe (empty location) yields no findings.
pub fn analyze_action_roundtrip(doc: &Document, action: &UpdateAction) -> Vec<Diagnostic> {
    let before = doc.to_xml();
    let mut work = match Document::parse(&before) {
        Ok(d) => d,
        Err(e) => {
            return vec![Diagnostic::error(
                "C002",
                "probe".to_string(),
                format!("probe document does not re-parse: {e}"),
                "fix the document serialization",
            )]
        }
    };
    let Ok(report) = action.apply(&mut work) else { return Vec::new() };
    let mut out = analyze_effect_log(&report.effects);
    let comp = compensation_for_effects(&report.effects);
    out.extend(analyze_compensation(&report.effects, &comp));
    match apply_compensation(&mut work, &comp) {
        Ok(_) if work.to_xml() == before => {}
        Ok(_) => out.push(Diagnostic::error(
            "C002",
            "probe".to_string(),
            "compensation applied cleanly but did not restore the original document".to_string(),
            "log effects at application granularity so inverses telescope",
        )),
        Err(e) => out.push(Diagnostic::error(
            "C002",
            "probe".to_string(),
            format!("compensation failed to apply: {e}"),
            "log structural addresses that remain valid at undo time",
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::Locator;

    fn feasible_log() -> (Document, Vec<Effect>) {
        let mut doc = Document::parse("<d><a>1</a><b>2</b><c>3</c></d>").unwrap();
        let mut effects = Vec::new();
        for action in [
            UpdateAction::delete(Locator::Node(NodePath(vec![1]))),
            UpdateAction::insert_at(
                Locator::Node(NodePath(vec![])),
                vec![Fragment::elem_text("x", "new")],
                InsertPos::At(1),
            ),
            UpdateAction::replace(Locator::Node(NodePath(vec![0])), vec![Fragment::elem_text("a2", "changed")]),
        ] {
            effects.extend(action.apply(&mut doc).unwrap().effects);
        }
        (doc, effects)
    }

    #[test]
    fn feasible_logs_and_their_inverses_are_clean() {
        let (_, effects) = feasible_log();
        assert!(analyze_effect_log(&effects).is_empty());
        let comp = compensation_for_effects(&effects);
        assert!(analyze_compensation(&effects, &comp).is_empty());
    }

    #[test]
    fn c001_empty_deleted_fragment() {
        let effects =
            vec![Effect::Deleted { fragment: Fragment::text(""), parent_path: NodePath(vec![0]), position: 2 }];
        let diags = analyze_effect_log(&effects);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "C001");
    }

    #[test]
    fn c003_insert_inside_deleted_subtree() {
        let effects = vec![
            Effect::Deleted { fragment: Fragment::elem_text("gone", "x"), parent_path: NodePath(vec![0]), position: 0 },
            Effect::Inserted {
                node: Document::parse("<d/>").unwrap().root(),
                path: NodePath(vec![0, 0, 1]),
                fragment: Fragment::elem_text("ghost", "y"),
            },
        ];
        let diags = analyze_effect_log(&effects);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "C003");
        // Re-inserting exactly at the deleted slot resurrects it: clean.
        let effects = vec![
            Effect::Deleted { fragment: Fragment::elem_text("gone", "x"), parent_path: NodePath(vec![0]), position: 0 },
            Effect::Inserted {
                node: Document::parse("<d/>").unwrap().root(),
                path: NodePath(vec![0, 0]),
                fragment: Fragment::elem_text("back", "y"),
            },
            Effect::Inserted {
                node: Document::parse("<d/>").unwrap().root(),
                path: NodePath(vec![0, 0, 1]),
                fragment: Fragment::elem_text("child", "z"),
            },
        ];
        assert!(analyze_effect_log(&effects).is_empty());
    }

    #[test]
    fn c002_truncated_and_extra_bundles() {
        let (_, effects) = feasible_log();
        let full = compensation_for_effects(&effects);
        let truncated = &full[..full.len() - 1];
        let diags = analyze_compensation(&effects, truncated);
        assert!(diags.iter().any(|d| d.rule == "C002" && d.message.contains("truncated")), "{diags:?}");
        let mut extra = full.clone();
        extra.push(UpdateAction::delete(Locator::Node(NodePath(vec![9]))));
        let diags = analyze_compensation(&effects, &extra);
        assert!(diags.iter().any(|d| d.rule == "C002" && d.message.contains("extras")), "{diags:?}");
    }

    #[test]
    fn c004_c005_shape_checks() {
        let (_, effects) = feasible_log();
        let bundle = vec![UpdateAction::insert(Locator::parse("Select v/slot from v in d").unwrap(), vec![])];
        let diags = analyze_compensation(&effects, &bundle);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"C004"), "{diags:?}");
        assert!(rules.contains(&"C005"), "{diags:?}");
        assert!(rules.contains(&"C002"), "{diags:?}");
    }

    #[test]
    fn c006_interfering_reorder_flagged_commuting_reorder_allowed() {
        // Two deletes at sibling slots 1 and 3 of the same parent: their
        // inverses (inserts at 3-then-1... reversed) interfere when
        // swapped, because inserting at slot 1 first shifts slot 3.
        let effects = vec![
            Effect::Deleted { fragment: Fragment::elem_text("a", "1"), parent_path: NodePath(vec![]), position: 1 },
            Effect::Deleted { fragment: Fragment::elem_text("b", "2"), parent_path: NodePath(vec![]), position: 3 },
        ];
        let mut swapped = compensation_for_effects(&effects);
        swapped.reverse();
        let diags = analyze_compensation(&effects, &swapped);
        assert!(diags.iter().any(|d| d.rule == "C006"), "{diags:?}");
        // Deletes in disjoint subtrees commute: the swap is accepted.
        let effects = vec![
            Effect::Deleted { fragment: Fragment::elem_text("a", "1"), parent_path: NodePath(vec![0]), position: 0 },
            Effect::Deleted { fragment: Fragment::elem_text("b", "2"), parent_path: NodePath(vec![5]), position: 0 },
        ];
        let mut swapped = compensation_for_effects(&effects);
        swapped.reverse();
        assert!(analyze_compensation(&effects, &swapped).is_empty());
    }

    #[test]
    fn roundtrip_probe_is_clean_on_real_documents() {
        let doc = Document::parse("<d><slot>initial</slot><out>base</out></d>").unwrap();
        for action in [
            UpdateAction::delete(Locator::Node(NodePath(vec![0]))),
            UpdateAction::replace(Locator::Node(NodePath(vec![1])), vec![Fragment::elem_text("probe", "x")]),
            UpdateAction::insert_at(
                Locator::Node(NodePath(vec![])),
                vec![Fragment::elem_text("probe", "y")],
                InsertPos::At(0),
            ),
        ] {
            let diags = analyze_action_roundtrip(&doc, &action);
            assert!(diags.is_empty(), "{action:?}: {diags:?}");
        }
    }
}
