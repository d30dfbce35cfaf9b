//! Update actions and their primitive effects.
//!
//! The paper models operations on AXML documents as XQuery!-style actions
//! (§3.1): each action has a *type* (`insert`, `delete`, `replace`, or
//! `query`), a `<location>` query that selects the target nodes, and — for
//! inserts/replaces — a `<data>` payload. A replace "is usually implemented
//! as a combination of a delete and update operation, i.e., delete the node
//! to be replaced followed by insertion of a node (having the updated
//! value) at the same position"; we reproduce that decomposition literally:
//! applying a replace emits a [`Effect::Deleted`] followed by
//! [`Effect::Inserted`] at the same position.
//!
//! [`Effect`]s are the unit the transaction log stores. They capture
//! everything §3.1 says must be logged: "the delete operations as well as
//! the results of the `<location>` queries of the delete operations need to
//! be logged to enable compensation" — i.e. the removed subtree, its parent
//! and its sibling position; and for inserts, the unique ID (plus the
//! structural path, for peer-independent replay on replicas).

use crate::error::QueryError;
use crate::nodepath::NodePath;
use crate::path::PathExpr;
use crate::select::SelectQuery;
use axml_xml::{Document, Fragment, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four action types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionType {
    /// Insert `<data>` at the located nodes.
    Insert,
    /// Delete the located nodes.
    Delete,
    /// Replace the located nodes with `<data>` (delete + insert in place).
    Replace,
    /// Read-only selection (side effects only arise from materialization,
    /// handled by the AXML layer).
    Query,
}

impl ActionType {
    /// The `type` attribute value.
    pub fn as_str(&self) -> &'static str {
        match self {
            ActionType::Insert => "insert",
            ActionType::Delete => "delete",
            ActionType::Replace => "replace",
            ActionType::Query => "query",
        }
    }

    /// Parses a `type` attribute value.
    pub fn parse(s: &str) -> Result<ActionType, QueryError> {
        match s {
            "insert" => Ok(ActionType::Insert),
            "delete" => Ok(ActionType::Delete),
            "replace" => Ok(ActionType::Replace),
            "query" => Ok(ActionType::Query),
            other => Err(QueryError::syntax("action", format!("unknown action type `{other}`"))),
        }
    }
}

/// How an action locates its target nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Locator {
    /// A select-from-where query (the paper's normal form).
    Select(SelectQuery),
    /// A bare absolute path expression.
    Path(PathExpr),
    /// A structural address — how compensating operations shipped across
    /// peers refer to nodes on replicas.
    Node(NodePath),
    /// Several structural addresses (pre-located targets, e.g. after
    /// transparent evaluation over an AXML view).
    Nodes(Vec<NodePath>),
}

impl Locator {
    /// Evaluates the locator to target nodes, in document order.
    pub fn locate(&self, doc: &Document) -> Result<Vec<NodeId>, QueryError> {
        match self {
            Locator::Select(q) => q.eval(doc),
            Locator::Path(p) => Ok(p.eval(doc)),
            Locator::Node(path) => Ok(vec![path.resolve(doc)?]),
            Locator::Nodes(paths) => paths.iter().map(|p| p.resolve(doc)).collect(),
        }
    }

    /// Textual form (used in the `<location>` element).
    pub fn to_text(&self) -> String {
        match self {
            Locator::Select(q) => q.to_text(),
            Locator::Path(p) => p.to_text(),
            Locator::Node(n) => format!("node:{n}"),
            Locator::Nodes(ns) => {
                let parts: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
                format!("nodes:{}", parts.join(","))
            }
        }
    }

    /// Parses the textual form.
    pub fn parse(s: &str) -> Result<Locator, QueryError> {
        let s = s.trim();
        fn parse_node_path(rest: &str) -> Result<NodePath, QueryError> {
            let mut idxs = Vec::new();
            for part in rest.split('/').filter(|p| !p.is_empty()) {
                idxs.push(
                    part.parse::<usize>()
                        .map_err(|_| QueryError::syntax("locator", format!("bad node path `{rest}`")))?,
                );
            }
            Ok(NodePath(idxs))
        }
        if let Some(rest) = s.strip_prefix("node:") {
            return Ok(Locator::Node(parse_node_path(rest)?));
        }
        if let Some(rest) = s.strip_prefix("nodes:") {
            let paths = rest
                .split(',')
                .filter(|p| !p.trim().is_empty())
                .map(|p| parse_node_path(p.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Locator::Nodes(paths));
        }
        if s.to_lowercase().starts_with("select") {
            Ok(Locator::Select(SelectQuery::parse(s)?))
        } else {
            Ok(Locator::Path(PathExpr::parse(s)?))
        }
    }
}

impl fmt::Display for Locator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Where, relative to each located node, inserted data is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InsertPos {
    /// As the last children of the located node (default).
    #[default]
    LastChild,
    /// As the first children of the located node.
    FirstChild,
    /// At a specific child index of the located node.
    At(usize),
    /// As siblings immediately before the located node — the
    /// "insertion before/after a specific node" the paper points to for
    /// order-preserving compensation.
    Before,
    /// As siblings immediately after the located node.
    After,
}

impl InsertPos {
    /// The `pos` attribute value.
    pub fn to_text(&self) -> String {
        match self {
            InsertPos::LastChild => "last-child".into(),
            InsertPos::FirstChild => "first-child".into(),
            InsertPos::At(i) => format!("at:{i}"),
            InsertPos::Before => "before".into(),
            InsertPos::After => "after".into(),
        }
    }

    /// Parses a `pos` attribute value.
    pub fn parse(s: &str) -> Result<InsertPos, QueryError> {
        match s {
            "last-child" => Ok(InsertPos::LastChild),
            "first-child" => Ok(InsertPos::FirstChild),
            "before" => Ok(InsertPos::Before),
            "after" => Ok(InsertPos::After),
            other => {
                if let Some(n) = other.strip_prefix("at:") {
                    Ok(InsertPos::At(
                        n.parse()
                            .map_err(|_| QueryError::syntax("action", format!("bad insert position `{other}`")))?,
                    ))
                } else {
                    Err(QueryError::syntax("action", format!("unknown insert position `{other}`")))
                }
            }
        }
    }
}

/// One primitive, logged document effect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effect {
    /// A subtree was inserted. `node` is the unique ID the paper's insert
    /// returns; `path` is its structural address for replica-side replay.
    Inserted {
        /// Arena id of the subtree root (local to this document): the new
        /// one, or — when a replace puts back results the call already
        /// held, and `apply_call_results` keeps them in place — the kept
        /// one. Compensation goes by `path`, not by this id.
        node: NodeId,
        /// Structural address of the new subtree root.
        path: NodePath,
        /// The inserted content.
        fragment: Fragment,
    },
    /// A subtree was deleted. Everything a compensating insert needs.
    Deleted {
        /// The removed content ("the results of the `<location>` queries
        /// of the delete operations need to be logged").
        fragment: Fragment,
        /// Structural address of the parent ("the `<location>` … of the
        /// compensating insert operation \[is\] the parent (/..) of the
        /// deleted node").
        parent_path: NodePath,
        /// Child position the subtree occupied.
        position: usize,
    },
}

impl Effect {
    /// The paper's cost measure: number of XML nodes affected.
    pub fn cost_nodes(&self) -> usize {
        match self {
            Effect::Inserted { fragment, .. } | Effect::Deleted { fragment, .. } => fragment.node_count(),
        }
    }
}

/// The result of applying an [`UpdateAction`].
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Primitive effects, in application order.
    pub effects: Vec<Effect>,
    /// For `query` actions: the selected nodes. For updates: the located
    /// target nodes (note: for deletes these ids are stale afterwards).
    pub selected: Vec<NodeId>,
    /// Total nodes affected (sum of effect costs).
    pub cost_nodes: usize,
}

/// A parsed update/query action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateAction {
    /// The action type.
    pub ty: ActionType,
    /// Payload fragments (inserts/replaces; empty otherwise).
    pub data: Vec<Fragment>,
    /// Target locator.
    pub location: Locator,
    /// Placement for inserts.
    pub insert_pos: InsertPos,
    /// If false (default), applying an update whose location selects no
    /// nodes fails with [`QueryError::EmptyLocation`]; queries never fail
    /// on empty results.
    pub allow_empty_location: bool,
}

impl UpdateAction {
    /// Builds a delete action.
    pub fn delete(location: Locator) -> UpdateAction {
        UpdateAction {
            ty: ActionType::Delete,
            data: vec![],
            location,
            insert_pos: InsertPos::default(),
            allow_empty_location: false,
        }
    }

    /// Builds an insert action.
    pub fn insert(location: Locator, data: Vec<Fragment>) -> UpdateAction {
        UpdateAction {
            ty: ActionType::Insert,
            data,
            location,
            insert_pos: InsertPos::default(),
            allow_empty_location: false,
        }
    }

    /// Builds an insert action with explicit placement.
    pub fn insert_at(location: Locator, data: Vec<Fragment>, pos: InsertPos) -> UpdateAction {
        UpdateAction { ty: ActionType::Insert, data, location, insert_pos: pos, allow_empty_location: false }
    }

    /// Builds a replace action.
    pub fn replace(location: Locator, data: Vec<Fragment>) -> UpdateAction {
        UpdateAction {
            ty: ActionType::Replace,
            data,
            location,
            insert_pos: InsertPos::default(),
            allow_empty_location: false,
        }
    }

    /// Builds a query action.
    pub fn query(location: Locator) -> UpdateAction {
        UpdateAction {
            ty: ActionType::Query,
            data: vec![],
            location,
            insert_pos: InsertPos::default(),
            allow_empty_location: true,
        }
    }

    /// Applies the action to `doc`, returning the logged effects.
    pub fn apply(&self, doc: &mut Document) -> Result<UpdateReport, QueryError> {
        let targets = self.location.locate(doc)?;
        if targets.is_empty() && !self.allow_empty_location && self.ty != ActionType::Query {
            return Err(QueryError::EmptyLocation);
        }
        let mut report = UpdateReport { selected: targets.clone(), ..Default::default() };
        match self.ty {
            ActionType::Query => { /* read-only here; materialization lives in axml-doc */ }
            ActionType::Delete => {
                // Reverse document order: deleting later nodes first keeps
                // earlier siblings' positions valid, and nested targets are
                // handled by the staleness check.
                for &t in targets.iter().rev() {
                    if !doc.contains(t) {
                        continue; // already removed as part of an ancestor target
                    }
                    if t == doc.root() {
                        return Err(QueryError::Tree(axml_xml::TreeError::RootImmutable));
                    }
                    let parent = doc.parent(t)?.ok_or(QueryError::Tree(axml_xml::TreeError::NotAttached))?;
                    let parent_path = NodePath::of(doc, parent)?;
                    let (fragment, _parent, position) = doc.remove_to_fragment(t)?;
                    report.effects.push(Effect::Deleted { fragment, parent_path, position });
                }
            }
            ActionType::Insert => {
                if self.data.is_empty() {
                    return Err(QueryError::MissingData);
                }
                for &t in &targets {
                    self.insert_data_at(doc, t, &mut report)?;
                }
            }
            ActionType::Replace => {
                if self.data.is_empty() {
                    return Err(QueryError::MissingData);
                }
                for &t in targets.iter().rev() {
                    if !doc.contains(t) {
                        continue;
                    }
                    if t == doc.root() {
                        return Err(QueryError::Tree(axml_xml::TreeError::RootImmutable));
                    }
                    let parent = doc.parent(t)?.ok_or(QueryError::Tree(axml_xml::TreeError::NotAttached))?;
                    let parent_path = NodePath::of(doc, parent)?;
                    // Paper: replace ≡ delete, then insert at the same position.
                    let (old, parent_id, position) = doc.remove_to_fragment(t)?;
                    report.effects.push(Effect::Deleted { fragment: old, parent_path: parent_path.clone(), position });
                    for (k, frag) in self.data.iter().enumerate() {
                        let node = doc.insert_fragment(parent_id, position + k, frag)?;
                        // Derived, not climbed: the parent's path is in hand.
                        let path = parent_path.child(position + k);
                        debug_assert_eq!(Ok(&path), NodePath::of(doc, node).as_ref());
                        report.effects.push(Effect::Inserted { node, path, fragment: frag.clone() });
                    }
                }
            }
        }
        report.cost_nodes = report.effects.iter().map(Effect::cost_nodes).sum();
        Ok(report)
    }

    fn insert_data_at(&self, doc: &mut Document, target: NodeId, report: &mut UpdateReport) -> Result<(), QueryError> {
        // Resolve the base (parent, index) for the first fragment.
        let (parent, base) = match self.insert_pos {
            InsertPos::LastChild => (target, doc.children(target)?.len()),
            InsertPos::FirstChild => (target, 0),
            InsertPos::At(i) => (target, i),
            InsertPos::Before => {
                let p = doc.parent(target)?.ok_or(QueryError::Tree(axml_xml::TreeError::NotAttached))?;
                (p, doc.position_in_parent(target)?)
            }
            InsertPos::After => {
                let p = doc.parent(target)?.ok_or(QueryError::Tree(axml_xml::TreeError::NotAttached))?;
                (p, doc.position_in_parent(target)? + 1)
            }
        };
        for (k, frag) in self.data.iter().enumerate() {
            let node = doc.insert_fragment(parent, base + k, frag)?;
            let path = NodePath::of(doc, node)?;
            report.effects.push(Effect::Inserted { node, path, fragment: frag.clone() });
        }
        Ok(())
    }

    /// Serializes the action to its XML form, e.g.
    /// `<action type="delete"><location>Select …</location></action>`.
    pub fn to_action_xml(&self) -> String {
        let mut action = Fragment::elem("action").with_attr("type", self.ty.as_str());
        if self.insert_pos != InsertPos::LastChild {
            action = action.with_attr("pos", self.insert_pos.to_text());
        }
        if !self.data.is_empty() {
            let mut data = Fragment::elem("data");
            for f in &self.data {
                data = data.with_child(f.clone());
            }
            action = action.with_child(data);
        }
        action = action.with_child(Fragment::elem("location").with_text(self.location.to_text()));
        action.to_xml()
    }

    /// Parses the XML action form.
    pub fn parse_action_xml(xml: &str) -> Result<UpdateAction, QueryError> {
        let frag =
            Fragment::parse_one(xml).map_err(|e| QueryError::syntax("action", format!("bad action XML: {e}")))?;
        if frag.name().map(|n| n.local.as_str()) != Some("action") {
            return Err(QueryError::syntax("action", "root element must be <action>"));
        }
        let ty = ActionType::parse(
            frag.attr("type").ok_or_else(|| QueryError::syntax("action", "missing type attribute"))?,
        )?;
        let insert_pos = match frag.attr("pos") {
            Some(p) => InsertPos::parse(p)?,
            None => InsertPos::LastChild,
        };
        let mut data = Vec::new();
        let mut location = None;
        for child in frag.children() {
            match child.name().map(|n| n.local.as_str()) {
                Some("data") => data.extend(child.children()),
                Some("location") => location = Some(Locator::parse(&child.text_content())?),
                _ => {}
            }
        }
        let location = location.ok_or_else(|| QueryError::syntax("action", "missing <location>"))?;
        Ok(UpdateAction { ty, data, location, insert_pos, allow_empty_location: ty == ActionType::Query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atp() -> Document {
        Document::parse(
            r#"<ATPList>
                <player rank="1">
                    <name><lastname>Federer</lastname></name>
                    <citizenship>Swiss</citizenship>
                </player>
                <player rank="2">
                    <name><lastname>Nadal</lastname></name>
                    <citizenship>Spanish</citizenship>
                </player>
            </ATPList>"#,
        )
        .unwrap()
    }

    fn loc(q: &str) -> Locator {
        Locator::parse(q).unwrap()
    }

    #[test]
    fn paper_delete_operation() {
        // §3.1's delete example.
        let mut doc = atp();
        let action = UpdateAction::delete(loc(
            "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
        ));
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(report.effects.len(), 1);
        match &report.effects[0] {
            Effect::Deleted { fragment, parent_path, position } => {
                assert_eq!(fragment.to_xml(), "<citizenship>Swiss</citizenship>");
                assert_eq!(*position, 1, "citizenship was the second child of player");
                // Parent is the first player.
                let parent = parent_path.resolve(&doc).unwrap();
                assert_eq!(doc.name(parent).unwrap().local, "player");
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(report.cost_nodes, 2, "citizenship element + its text node");
        assert!(!doc.to_xml().contains("Swiss"));
    }

    #[test]
    fn paper_compensating_insert_restores() {
        // §3.1: the compensating insert's location is the parent of the
        // deleted node, the data is the logged result.
        let mut doc = atp();
        let before = doc.to_xml();
        let del = UpdateAction::delete(loc(
            "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
        ));
        let report = del.apply(&mut doc).unwrap();
        let Effect::Deleted { fragment, parent_path, position } = report.effects[0].clone() else { panic!() };
        let comp = UpdateAction::insert_at(Locator::Node(parent_path), vec![fragment], InsertPos::At(position));
        comp.apply(&mut doc).unwrap();
        assert_eq!(doc.to_xml(), before, "order-preserving compensation");
    }

    #[test]
    fn paper_replace_decomposes_to_delete_insert() {
        // §3.1's replace example: set Nadal's citizenship to USA.
        let mut doc = atp();
        let action = UpdateAction::replace(
            loc("Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal;"),
            vec![Fragment::elem_text("citizenship", "USA")],
        );
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(report.effects.len(), 2);
        assert!(matches!(&report.effects[0], Effect::Deleted { fragment, .. } if fragment.text_content() == "Spanish"));
        assert!(matches!(&report.effects[1], Effect::Inserted { fragment, .. } if fragment.text_content() == "USA"));
        assert!(doc.to_xml().contains("<citizenship>USA</citizenship>"));
        assert!(!doc.to_xml().contains("Spanish"));
        // Replacement happened in place (same sibling position).
        let (Effect::Deleted { position: dp, .. }, Effect::Inserted { path, .. }) =
            (&report.effects[0], &report.effects[1])
        else {
            panic!()
        };
        assert_eq!(path.last_index(), Some(*dp));
    }

    #[test]
    fn insert_returns_unique_ids() {
        let mut doc = atp();
        let action = UpdateAction::insert(loc("ATPList/player[@rank=1]"), vec![Fragment::elem_text("points", "475")]);
        let report = action.apply(&mut doc).unwrap();
        let Effect::Inserted { node, path, .. } = &report.effects[0] else { panic!() };
        assert!(doc.contains(*node));
        assert_eq!(path.resolve(&doc).unwrap(), *node);
        // Compensation by unique ID: delete that node.
        let comp = UpdateAction::delete(Locator::Node(path.clone()));
        comp.apply(&mut doc).unwrap();
        assert!(!doc.contains(*node));
    }

    #[test]
    fn multi_target_delete_reverse_order() {
        let mut doc = atp();
        let action = UpdateAction::delete(loc("ATPList/player/citizenship"));
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(report.effects.len(), 2);
        // Applied in reverse document order: Spanish deleted first.
        assert!(matches!(&report.effects[0], Effect::Deleted { fragment, .. } if fragment.text_content() == "Spanish"));
        assert!(matches!(&report.effects[1], Effect::Deleted { fragment, .. } if fragment.text_content() == "Swiss"));
    }

    #[test]
    fn nested_targets_no_double_delete() {
        // Selecting both a node and its descendant: ancestor deletion
        // subsumes the descendant.
        let mut doc = Document::parse("<r><a><b/></a></r>").unwrap();
        let action = UpdateAction::delete(loc("//*"));
        // //* selects r, a, b — r is the root and can't be deleted.
        let err = action.apply(&mut doc).unwrap_err();
        assert!(matches!(err, QueryError::Tree(axml_xml::TreeError::RootImmutable)));

        let mut doc = Document::parse("<r><a><b/></a></r>").unwrap();
        let action = UpdateAction::delete(loc("r//*"));
        let report = action.apply(&mut doc).unwrap();
        // b deleted first (reverse order) then a; both effects logged.
        assert_eq!(report.effects.len(), 2);
        assert_eq!(doc.to_xml(), "<r/>");
    }

    #[test]
    fn empty_location_policy() {
        let mut doc = atp();
        let action = UpdateAction::delete(loc("ATPList/nosuch"));
        assert_eq!(action.apply(&mut doc).unwrap_err(), QueryError::EmptyLocation);
        let mut tolerant = UpdateAction::delete(loc("ATPList/nosuch"));
        tolerant.allow_empty_location = true;
        assert!(tolerant.apply(&mut doc).unwrap().effects.is_empty());
        // Queries never fail on empty.
        let q = UpdateAction::query(loc("ATPList/nosuch"));
        assert!(q.apply(&mut doc).unwrap().selected.is_empty());
    }

    #[test]
    fn missing_data_rejected() {
        let mut doc = atp();
        let action = UpdateAction::insert(loc("ATPList/player"), vec![]);
        assert_eq!(action.apply(&mut doc).unwrap_err(), QueryError::MissingData);
        let action = UpdateAction::replace(loc("ATPList/player"), vec![]);
        assert_eq!(action.apply(&mut doc).unwrap_err(), QueryError::MissingData);
    }

    #[test]
    fn insert_positions() {
        let base = "<r><a/><b/></r>";
        let frag = vec![Fragment::elem("x")];
        let cases = [
            (InsertPos::LastChild, "r", "<r><a/><b/><x/></r>"),
            (InsertPos::FirstChild, "r", "<r><x/><a/><b/></r>"),
            (InsertPos::At(1), "r", "<r><a/><x/><b/></r>"),
            (InsertPos::Before, "r/b", "<r><a/><x/><b/></r>"),
            (InsertPos::After, "r/a", "<r><a/><x/><b/></r>"),
        ];
        for (pos, target, expect) in cases {
            let mut doc = Document::parse(base).unwrap();
            let action = UpdateAction::insert_at(loc(target), frag.clone(), pos);
            action.apply(&mut doc).unwrap();
            assert_eq!(doc.to_xml(), expect, "{pos:?}");
        }
    }

    #[test]
    fn multiple_data_fragments_keep_order() {
        let mut doc = Document::parse("<r><a/></r>").unwrap();
        let action =
            UpdateAction::insert_at(loc("r/a"), vec![Fragment::elem("x"), Fragment::elem("y")], InsertPos::After);
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(doc.to_xml(), "<r><a/><x/><y/></r>");
        assert_eq!(report.effects.len(), 2);
    }

    #[test]
    fn query_action_selects_without_effects() {
        let mut doc = atp();
        let before = doc.to_xml();
        let action = UpdateAction::query(loc("ATPList//lastname"));
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(report.selected.len(), 2);
        assert!(report.effects.is_empty());
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn action_xml_roundtrip() {
        let actions = [
            UpdateAction::delete(loc(
                "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
            )),
            UpdateAction::insert(loc("ATPList/player[@rank=1]"), vec![Fragment::elem_text("points", "475")]),
            UpdateAction::insert_at(loc("r/a"), vec![Fragment::elem("x")], InsertPos::Before),
            UpdateAction::replace(loc("node:/0/1"), vec![Fragment::elem_text("citizenship", "USA")]),
            UpdateAction::query(loc("ATPList//lastname")),
        ];
        for a in actions {
            let xml = a.to_action_xml();
            let back = UpdateAction::parse_action_xml(&xml).unwrap();
            assert_eq!(a, back, "xml={xml}");
        }
    }

    #[test]
    fn paper_action_xml_form_parses() {
        // The exact shape printed in §3.1.
        let xml = r#"<action type="delete"><location>Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;</location></action>"#;
        let action = UpdateAction::parse_action_xml(xml).unwrap();
        assert_eq!(action.ty, ActionType::Delete);
        let mut doc = atp();
        let report = action.apply(&mut doc).unwrap();
        assert_eq!(report.effects.len(), 1);
    }

    #[test]
    fn bad_action_xml() {
        assert!(UpdateAction::parse_action_xml("<notaction/>").is_err());
        assert!(UpdateAction::parse_action_xml("<action/>").is_err());
        assert!(UpdateAction::parse_action_xml(r#"<action type="bogus"><location>r</location></action>"#).is_err());
        assert!(UpdateAction::parse_action_xml(r#"<action type="delete"/>"#).is_err());
        assert!(UpdateAction::parse_action_xml(r#"<action type="insert" pos="weird"><location>r</location></action>"#)
            .is_err());
        assert!(UpdateAction::parse_action_xml("not xml at all").is_err());
        assert!(Locator::parse("node:/x/y").is_err());
    }

    #[test]
    fn locator_text_roundtrip() {
        for src in ["ATPList//player", "node:/0/1/2", "node:/", "nodes:/0/1,/2", "nodes:", "Select p from p in r;"] {
            let l = Locator::parse(src).unwrap();
            let l2 = Locator::parse(&l.to_text()).unwrap();
            assert_eq!(l, l2, "{src}");
        }
    }
}
