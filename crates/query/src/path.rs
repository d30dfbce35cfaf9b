//! Path expressions: parsing and evaluation.
//!
//! Grammar (whitespace-insensitive between tokens):
//!
//! ```text
//! path      := ['/' | '//'] step ( ('/' | '//') step )*
//! step      := ('..' | '.' | '*' | name) pred*
//! pred      := '[' (position | '@'name cmp value | name cmp value) ']'
//! cmp       := '=' | '!='
//! value     := quoted-string | bare-word
//! ```
//!
//! Semantics follow XPath where the paper relies on it: `A//B` selects `B`
//! descendants of `A`, a leading name matches the document root element
//! ("ATPList//player" starts at the root), `..` is the parent axis, and
//! results are returned **deduplicated in document order** — the property
//! the compensation log needs so reverse-order undo visits nodes
//! consistently.

use crate::error::QueryError;
use crate::tree::QueryTree;
use axml_xml::{Climb, NodeId, QName};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// Direct children (`/step`).
    Child,
    /// All descendants (`//step`).
    Descendant,
    /// The parent (`..`).
    Parent,
    /// The context node itself (`.`).
    SelfNode,
}

/// The name test of a step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NameTest {
    /// Match any element (`*`).
    Any,
    /// Match elements with this exact name.
    Name(QName),
}

impl NameTest {
    fn matches<T: QueryTree>(&self, tree: &T, node: NodeId) -> bool {
        match self {
            NameTest::Any => tree.element_name(node).is_some(),
            NameTest::Name(q) => tree.element_name(node) == Some(q),
        }
    }

    /// The proper descendants of `node` that pass this test, in document
    /// order: listed by name where the tree offers that, walked otherwise.
    fn descendants<T: QueryTree>(&self, tree: &T, node: NodeId) -> Vec<NodeId> {
        if let NameTest::Name(q) = self {
            if let Some(named) = tree.descendants_named(node, q) {
                return named;
            }
        }
        tree.descendants_of(node).filter(|n| self.matches(tree, *n)).collect()
    }
}

/// A predicate filtering the nodes a step selects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pred {
    /// `[3]` — 1-based position among the step's matches for one context.
    Position(usize),
    /// `[@rank=1]` / `[@rank!=1]` — attribute comparison.
    Attr {
        /// Attribute name.
        name: QName,
        /// Expected value.
        value: String,
        /// True for `=`, false for `!=`.
        eq: bool,
    },
    /// `[lastname=Federer]` — existential child-element text comparison.
    ChildText {
        /// Child element name.
        name: QName,
        /// Expected text.
        value: String,
        /// True for `=`, false for `!=`.
        eq: bool,
    },
}

impl Pred {
    fn matches<T: QueryTree>(&self, tree: &T, node: NodeId, position: usize) -> bool {
        match self {
            Pred::Position(p) => position == *p,
            Pred::Attr { name, value, eq } => {
                let actual = tree.attr_value(node, &name.as_string());
                let m = actual == Some(value.as_str());
                if *eq {
                    m
                } else {
                    !m
                }
            }
            Pred::ChildText { name, value, eq } => {
                let m = tree.children_of(node).any(|c| {
                    tree.element_name(c) == Some(name) && tree.string_value(c).is_some_and(|t| t.trim() == value)
                });
                if *eq {
                    m
                } else {
                    !m
                }
            }
        }
    }
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// Axis to navigate.
    pub axis: Axis,
    /// Name test applied to candidate nodes.
    pub test: NameTest,
    /// Predicates, applied in order.
    pub preds: Vec<Pred>,
}

impl Step {
    /// A child step with a plain name and no predicates.
    pub fn child(name: impl Into<QName>) -> Step {
        Step { axis: Axis::Child, test: NameTest::Name(name.into()), preds: Vec::new() }
    }

    /// A descendant step with a plain name.
    pub fn descendant(name: impl Into<QName>) -> Step {
        Step { axis: Axis::Descendant, test: NameTest::Name(name.into()), preds: Vec::new() }
    }

    /// The parent step (`..`).
    pub fn parent() -> Step {
        Step { axis: Axis::Parent, test: NameTest::Any, preds: Vec::new() }
    }
}

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathExpr {
    /// The steps, applied left to right.
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// Parses a path expression.
    ///
    /// ```
    /// use axml_query::PathExpr;
    /// let p = PathExpr::parse("ATPList//player/citizenship").unwrap();
    /// assert_eq!(p.steps.len(), 3);
    /// ```
    pub fn parse(input: &str) -> Result<PathExpr, QueryError> {
        let mut px = Parser { input, pos: 0 };
        let path = px.parse_path()?;
        px.skip_ws();
        if px.pos != px.input.len() {
            return Err(QueryError::syntax("path", format!("trailing input at `{}`", &px.input[px.pos..])));
        }
        Ok(path)
    }

    /// Evaluates this path as an **absolute** expression: the context is a
    /// virtual document node whose only child is the root element (so a
    /// leading name step matches the root, as in `ATPList//player`).
    pub fn eval<T: QueryTree>(&self, tree: &T) -> Vec<NodeId> {
        let root = tree.root();
        // First step is applied against the virtual document node.
        let Some(first) = self.steps.first() else { return vec![] };
        let mut ctx: Vec<NodeId> = match first.axis {
            // Candidates: just the root element.
            Axis::Child => std::iter::once(root).filter(|n| first.test.matches(tree, *n)).collect(),
            // The root itself is a candidate here, ahead of its descendants.
            Axis::Descendant => std::iter::once(root)
                .filter(|n| first.test.matches(tree, *n))
                .chain(first.test.descendants(tree, root))
                .collect(),
            Axis::SelfNode => vec![root],
            Axis::Parent => vec![], // the document node has no parent
        };
        if matches!(first.axis, Axis::Child | Axis::Descendant) {
            apply_preds(tree, first, &mut ctx);
        }
        self.eval_steps_from(tree, ctx, 1)
    }

    /// Evaluates this path **relative** to `context` (all steps, including
    /// the first, navigate from the context node).
    pub fn eval_relative<T: QueryTree>(&self, tree: &T, context: NodeId) -> Vec<NodeId> {
        self.eval_steps_from(tree, vec![context], 0)
    }

    fn eval_steps_from<T: QueryTree>(&self, tree: &T, mut ctx: Vec<NodeId>, from: usize) -> Vec<NodeId> {
        for step in &self.steps[from.min(self.steps.len())..] {
            let mut next: Vec<NodeId> = Vec::new();
            for &node in &ctx {
                let mut matches: Vec<NodeId> = match step.axis {
                    Axis::Child => tree.children_of(node).filter(|c| step.test.matches(tree, *c)).collect(),
                    // XPath `//x` is descendant-or-self::node()/child::x:
                    // the context node itself is never a candidate.
                    Axis::Descendant => step.test.descendants(tree, node),
                    Axis::Parent => tree.parent_of(node).into_iter().collect(),
                    Axis::SelfNode => vec![node],
                };
                apply_preds(tree, step, &mut matches);
                next.extend(matches);
            }
            // One context node's matches are in document order and
            // distinct as every axis yields them.
            ctx = if ctx.len() == 1 { next } else { dedup_document_order(tree, next) };
        }
        ctx
    }

    /// Renders the path back to its textual form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            match step.axis {
                Axis::Child => {
                    if i > 0 {
                        out.push('/');
                    }
                }
                Axis::Descendant => out.push_str("//"),
                Axis::Parent => {
                    if i > 0 {
                        out.push('/');
                    }
                    out.push_str("..");
                    continue;
                }
                Axis::SelfNode => {
                    if i > 0 {
                        out.push('/');
                    }
                    out.push('.');
                    continue;
                }
            }
            match &step.test {
                NameTest::Any => out.push('*'),
                NameTest::Name(q) => out.push_str(&q.as_string()),
            }
            for p in &step.preds {
                match p {
                    Pred::Position(n) => out.push_str(&format!("[{n}]")),
                    Pred::Attr { name, value, eq } => {
                        out.push_str(&format!("[@{name}{}\"{value}\"]", if *eq { "=" } else { "!=" }))
                    }
                    Pred::ChildText { name, value, eq } => {
                        out.push_str(&format!("[{name}{}\"{value}\"]", if *eq { "=" } else { "!=" }))
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn apply_preds<T: QueryTree>(tree: &T, step: &Step, matches: &mut Vec<NodeId>) {
    for pred in &step.preds {
        let filtered: Vec<NodeId> =
            matches.iter().enumerate().filter(|(i, n)| pred.matches(tree, **n, i + 1)).map(|(_, n)| *n).collect();
        *matches = filtered;
    }
}

/// Deduplicates and sorts a node list into document order. Stale ids
/// have no place in the document: they come first, in id order.
pub fn dedup_document_order<T: QueryTree>(tree: &T, mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    nodes.sort();
    nodes.dedup();
    if nodes.len() < 2 {
        return nodes;
    }
    // One key per node — a comparator would climb to the root twice per
    // comparison — and all of them in one buffer: a node's key is its
    // range of `keys`, `None` for a stale id.
    let (mut keys, mut near) = (Vec::new(), Climb::default());
    let mut keyed: Vec<(Option<std::ops::Range<usize>>, NodeId)> = Vec::with_capacity(nodes.len());
    for &n in &nodes {
        let start = keys.len();
        let live = tree.document_order_key_into(n, &mut keys, &mut near);
        keyed.push((live.then_some(start..keys.len()), n));
    }
    let key = |range: &Option<std::ops::Range<usize>>| range.clone().map(|r| &keys[r]);
    // Stable, so stale ids keep their id order.
    keyed.sort_by(|(a, _), (b, _)| key(a).cmp(&key(b)));
    for (slot, (_, n)) in nodes.iter_mut().zip(keyed) {
        *slot = n;
    }
    nodes
}

// ----------------------------------------------------------------------
// Parser.
// ----------------------------------------------------------------------

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn peek_char(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn read_name(&mut self) -> Result<String, QueryError> {
        let start = self.pos;
        while let Some(c) = self.peek_char() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                // `..` must not be eaten as part of a name; stop if we're at
                // a `..` boundary and nothing consumed yet is a valid name.
                if c == '.' && self.input[self.pos..].starts_with("..") {
                    break;
                }
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(QueryError::syntax("path", format!("expected a name at `{}`", &self.input[self.pos..])));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_path(&mut self) -> Result<PathExpr, QueryError> {
        self.skip_ws();
        let mut steps = Vec::new();
        // Optional leading axis marker.
        let mut axis = if self.eat("//") {
            Axis::Descendant
        } else {
            // A single leading '/' is allowed and means the same as none
            // (absolute path from the virtual document node).
            let _ = self.eat("/");
            Axis::Child
        };
        loop {
            steps.push(self.parse_step(axis)?);
            if self.eat("//") {
                axis = Axis::Descendant;
            } else if self.eat("/") {
                axis = Axis::Child;
            } else {
                break;
            }
        }
        Ok(PathExpr { steps })
    }

    fn parse_step(&mut self, axis: Axis) -> Result<Step, QueryError> {
        self.skip_ws();
        let (axis, test) = if self.eat("..") {
            (Axis::Parent, NameTest::Any)
        } else if self.input[self.pos..].starts_with('.') && !self.input[self.pos..].starts_with("..") {
            self.pos += 1;
            (Axis::SelfNode, NameTest::Any)
        } else if self.eat("*") {
            (axis, NameTest::Any)
        } else {
            let name = self.read_name()?;
            (axis, NameTest::Name(QName::new(&name)))
        };
        let mut preds = Vec::new();
        while self.eat("[") {
            preds.push(self.parse_pred()?);
            if !self.eat("]") {
                return Err(QueryError::syntax("path", "expected `]` closing a predicate"));
            }
        }
        Ok(Step { axis, test, preds })
    }

    fn parse_pred(&mut self) -> Result<Pred, QueryError> {
        self.skip_ws();
        // Position predicate: all digits.
        let rest = &self.input[self.pos..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() && rest[digits.len()..].trim_start().starts_with(']') {
            self.pos += digits.len();
            let n: usize = digits.parse().map_err(|_| QueryError::syntax("path", "bad position predicate"))?;
            if n == 0 {
                return Err(QueryError::syntax("path", "positions are 1-based"));
            }
            self.skip_ws();
            return Ok(Pred::Position(n));
        }
        let is_attr = self.eat("@");
        let name = QName::new(&self.read_name()?);
        self.skip_ws();
        let eq = if self.eat("!=") {
            false
        } else if self.eat("=") {
            true
        } else {
            return Err(QueryError::syntax("path", "expected `=` or `!=` in predicate"));
        };
        self.skip_ws();
        let value = self.parse_value()?;
        Ok(if is_attr { Pred::Attr { name, value, eq } } else { Pred::ChildText { name, value, eq } })
    }

    fn parse_value(&mut self) -> Result<String, QueryError> {
        self.skip_ws();
        if let Some(q @ ('"' | '\'')) = self.peek_char() {
            self.pos += 1;
            let rest = &self.input[self.pos..];
            let end = rest.find(q).ok_or_else(|| QueryError::syntax("path", "unterminated quoted value"))?;
            let v = rest[..end].to_string();
            self.pos += end + 1;
            Ok(v)
        } else {
            let start = self.pos;
            while let Some(c) = self.peek_char() {
                if c == ']' || c.is_ascii_whitespace() {
                    break;
                }
                self.pos += c.len_utf8();
            }
            if self.pos == start {
                return Err(QueryError::syntax("path", "expected a value"));
            }
            Ok(self.input[start..self.pos].to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Document;

    fn atp() -> Document {
        Document::parse(
            r#"<ATPList date="18042005">
                <player rank="1">
                    <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
                    <citizenship>Swiss</citizenship>
                    <points>475</points>
                </player>
                <player rank="2">
                    <name><firstname>Rafael</firstname><lastname>Nadal</lastname></name>
                    <citizenship>Spanish</citizenship>
                    <points>390</points>
                </player>
            </ATPList>"#,
        )
        .unwrap()
    }

    fn texts(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|n| doc.text_content(*n).unwrap()).collect()
    }

    #[test]
    fn leading_name_matches_root() {
        let doc = atp();
        let p = PathExpr::parse("ATPList").unwrap();
        assert_eq!(p.eval(&doc), vec![doc.root()]);
        let p2 = PathExpr::parse("WrongName").unwrap();
        assert!(p2.eval(&doc).is_empty());
    }

    #[test]
    fn child_steps() {
        let doc = atp();
        let p = PathExpr::parse("ATPList/player/citizenship").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Swiss", "Spanish"]);
    }

    #[test]
    fn descendant_steps() {
        let doc = atp();
        let p = PathExpr::parse("ATPList//lastname").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Federer", "Nadal"]);
        let p2 = PathExpr::parse("//lastname").unwrap();
        assert_eq!(texts(&doc, &p2.eval(&doc)), vec!["Federer", "Nadal"]);
    }

    #[test]
    fn descendant_excludes_context() {
        let doc = atp();
        // ATPList//player: players are proper descendants.
        let p = PathExpr::parse("ATPList//ATPList").unwrap();
        assert!(p.eval(&doc).is_empty());
    }

    #[test]
    fn wildcard() {
        let doc = atp();
        let p = PathExpr::parse("ATPList/player/*").unwrap();
        assert_eq!(p.eval(&doc).len(), 6, "name, citizenship, points × 2");
    }

    #[test]
    fn parent_step() {
        let doc = atp();
        let p = PathExpr::parse("ATPList//lastname/..").unwrap();
        let hits = p.eval(&doc);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|n| doc.name(*n).unwrap().local == "name"));
        // Dedup: both lastname and firstname map to the same parent.
        let p2 = PathExpr::parse("ATPList//name/*/..").unwrap();
        assert_eq!(p2.eval(&doc).len(), 2);
    }

    #[test]
    fn self_step() {
        let doc = atp();
        let p = PathExpr::parse("ATPList/./player").unwrap();
        assert_eq!(p.eval(&doc).len(), 2);
    }

    #[test]
    fn attribute_predicate() {
        let doc = atp();
        let p = PathExpr::parse("ATPList/player[@rank=1]/citizenship").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Swiss"]);
        let p = PathExpr::parse("ATPList/player[@rank!=1]/citizenship").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Spanish"]);
        let p = PathExpr::parse(r#"ATPList/player[@rank="2"]/points"#).unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["390"]);
    }

    #[test]
    fn child_text_predicate() {
        let doc = atp();
        let p = PathExpr::parse("ATPList//name[lastname=Federer]/firstname").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Roger"]);
        let p = PathExpr::parse("ATPList/player[citizenship=Spanish]").unwrap();
        assert_eq!(p.eval(&doc).len(), 1);
    }

    #[test]
    fn position_predicate() {
        let doc = atp();
        let p = PathExpr::parse("ATPList/player[2]/citizenship").unwrap();
        assert_eq!(texts(&doc, &p.eval(&doc)), vec!["Spanish"]);
        let p = PathExpr::parse("ATPList/player[1]").unwrap();
        assert_eq!(p.eval(&doc).len(), 1);
        let p = PathExpr::parse("ATPList/player[9]").unwrap();
        assert!(p.eval(&doc).is_empty());
    }

    #[test]
    fn relative_evaluation() {
        let doc = atp();
        let players = PathExpr::parse("ATPList/player").unwrap().eval(&doc);
        let rel = PathExpr::parse("name/lastname").unwrap();
        assert_eq!(texts(&doc, &rel.eval_relative(&doc, players[0])), vec!["Federer"]);
        assert_eq!(texts(&doc, &rel.eval_relative(&doc, players[1])), vec!["Nadal"]);
    }

    #[test]
    fn document_order_and_dedup() {
        let doc = atp();
        // `//*/..` produces lots of duplicate parents.
        let p = PathExpr::parse("//*/..").unwrap();
        let hits = p.eval(&doc);
        let mut sorted = hits.clone();
        sorted.sort_by(|a, b| doc.cmp_document_order(*a, *b).unwrap());
        assert_eq!(hits, sorted, "results must be in document order");
        let unique: std::collections::HashSet<_> = hits.iter().collect();
        assert_eq!(unique.len(), hits.len(), "results must be deduplicated");
    }

    #[test]
    fn to_text_roundtrip() {
        for src in [
            "ATPList//player/citizenship",
            "//lastname/..",
            "ATPList/player[2]/points",
            "a/*/b",
            r#"ATPList/player[@rank="1"]"#,
            r#"ATPList//name[lastname="Federer"]"#,
        ] {
            let p = PathExpr::parse(src).unwrap();
            let p2 = PathExpr::parse(&p.to_text()).unwrap();
            assert_eq!(p, p2, "src={src} text={}", p.to_text());
        }
    }

    #[test]
    fn syntax_errors() {
        assert!(PathExpr::parse("").is_err());
        assert!(PathExpr::parse("a/").is_err());
        assert!(PathExpr::parse("a[").is_err());
        assert!(PathExpr::parse("a[@x]").is_err());
        assert!(PathExpr::parse("a[0]").is_err());
        assert!(PathExpr::parse("a[x=\"unterminated]").is_err());
        assert!(PathExpr::parse("a b").is_err());
    }

    #[test]
    fn namespaced_steps() {
        let doc = Document::parse(r#"<r><axml:sc mode="replace"><points>1</points></axml:sc></r>"#).unwrap();
        let p = PathExpr::parse("r/axml:sc/points").unwrap();
        assert_eq!(p.eval(&doc).len(), 1);
        let p = PathExpr::parse("//axml:sc[@mode=replace]").unwrap();
        assert_eq!(p.eval(&doc).len(), 1);
    }

    #[test]
    fn builders() {
        let p = PathExpr { steps: vec![Step::child("a"), Step::descendant("b"), Step::parent()] };
        assert_eq!(p.to_text(), "a//b/..");
    }
}
