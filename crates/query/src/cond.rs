//! `where`-clause conditions for select-from-where queries.
//!
//! Comparison semantics are existential over node sets, as in XPath:
//! `p/name/lastname = Federer` holds if *any* selected `lastname` node has
//! that text. Values compare numerically when both sides parse as numbers,
//! textually otherwise.

use crate::error::QueryError;
use crate::path::PathExpr;
use crate::tree::QueryTree;
use axml_xml::{NodeId, QName};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(&self, a: &str, b: &str) -> bool {
        if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
            return match self {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            };
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operand {
    /// A path relative to the bound variable, optionally ending in an
    /// attribute access (`p/player/@rank`). An empty path refers to the
    /// binding node itself.
    Path {
        /// Relative path from the binding node.
        path: PathExpr,
        /// Trailing `@attr`, if any.
        attr: Option<QName>,
    },
    /// A literal value (bare word, quoted string, or number).
    Literal(String),
}

impl Operand {
    /// Evaluates the operand to its value set for one binding node.
    pub fn values<T: QueryTree>(&self, tree: &T, binding: NodeId) -> Vec<String> {
        match self {
            Operand::Literal(s) => vec![s.clone()],
            Operand::Path { path, attr } => {
                let nodes = if path.steps.is_empty() { vec![binding] } else { path.eval_relative(tree, binding) };
                match attr {
                    None => nodes.iter().filter_map(|n| tree.string_value(*n)).map(|t| t.trim().to_string()).collect(),
                    Some(a) => {
                        nodes.iter().filter_map(|n| tree.attr_value(*n, &a.as_string())).map(str::to_string).collect()
                    }
                }
            }
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Literal(s) => write!(f, "\"{s}\""),
            Operand::Path { path, attr } => {
                write!(f, "$v")?;
                if !path.steps.is_empty() {
                    let text = path.to_text();
                    if text.starts_with("//") {
                        write!(f, "{text}")?;
                    } else {
                        write!(f, "/{text}")?;
                    }
                }
                if let Some(a) = attr {
                    write!(f, "/@{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// A boolean condition over one binding node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Condition {
    /// Always true (empty `where`).
    True,
    /// Existential comparison between two operands.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// A relative path selects at least one node.
    Exists(PathExpr),
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Evaluates the condition for one binding node.
    pub fn eval<T: QueryTree>(&self, tree: &T, binding: NodeId) -> bool {
        match self {
            Condition::True => true,
            Condition::Cmp { left, op, right } => {
                let lv = left.values(tree, binding);
                let rv = right.values(tree, binding);
                lv.iter().any(|a| rv.iter().any(|b| op.apply(a, b)))
            }
            Condition::Exists(path) => !path.eval_relative(tree, binding).is_empty(),
            Condition::And(a, b) => a.eval(tree, binding) && b.eval(tree, binding),
            Condition::Or(a, b) => a.eval(tree, binding) || b.eval(tree, binding),
            Condition::Not(c) => !c.eval(tree, binding),
        }
    }

    /// Parses a condition; `var` is the name of the bound variable.
    pub fn parse(input: &str, var: &str) -> Result<Condition, QueryError> {
        let mut p = CondParser { input, pos: 0, var };
        let c = p.parse_or()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(QueryError::syntax("where clause", format!("trailing input at `{}`", &p.input[p.pos..])));
        }
        Ok(c)
    }

    /// Renders the condition to text (with `$v` for the variable).
    pub fn to_text(&self) -> String {
        match self {
            Condition::True => "true".into(),
            Condition::Cmp { left, op, right } => format!("{left} {} {right}", op.symbol()),
            Condition::Exists(p) => {
                let text = p.to_text();
                if text.starts_with("//") {
                    format!("exists $v{text}")
                } else {
                    format!("exists $v/{text}")
                }
            }
            Condition::And(a, b) => format!("({} and {})", a.to_text(), b.to_text()),
            Condition::Or(a, b) => format!("({} or {})", a.to_text(), b.to_text()),
            Condition::Not(c) => format!("not {}", c.to_text()),
        }
    }
}

/// True if `bytes` starts with the ASCII keyword `kw`, in any case.
/// Compares bytes: slicing the `str` at `kw.len()` first would panic when
/// that offset falls inside a multi-byte character.
pub(crate) fn starts_with_keyword(bytes: &[u8], kw: &str) -> bool {
    bytes.get(..kw.len()).is_some_and(|head| head.eq_ignore_ascii_case(kw.as_bytes()))
}

struct CondParser<'a> {
    input: &'a str,
    pos: usize,
    var: &'a str,
}

impl<'a> CondParser<'a> {
    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if starts_with_keyword(rest.as_bytes(), kw) {
            let after = &rest[kw.len()..];
            if after.is_empty() || after.starts_with(|c: char| !c.is_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Condition, QueryError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Condition, QueryError> {
        let mut left = self.parse_atom()?;
        while self.eat_keyword("and") {
            let right = self.parse_atom()?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_atom(&mut self) -> Result<Condition, QueryError> {
        self.skip_ws();
        if self.eat_keyword("not") {
            return Ok(Condition::Not(Box::new(self.parse_atom()?)));
        }
        if self.eat_keyword("exists") {
            let operand = self.parse_operand()?;
            return match operand {
                Operand::Path { path, attr: None } => Ok(Condition::Exists(path)),
                _ => Err(QueryError::syntax("where clause", "`exists` requires a plain path operand")),
            };
        }
        if self.eat("(") {
            let c = self.parse_or()?;
            if !self.eat(")") {
                return Err(QueryError::syntax("where clause", "expected `)`"));
            }
            return Ok(c);
        }
        let left = self.parse_operand()?;
        self.skip_ws();
        let op = if self.eat("!=") {
            CmpOp::Ne
        } else if self.eat("<=") {
            CmpOp::Le
        } else if self.eat(">=") {
            CmpOp::Ge
        } else if self.eat("=") {
            CmpOp::Eq
        } else if self.eat("<") {
            CmpOp::Lt
        } else if self.eat(">") {
            CmpOp::Gt
        } else {
            return Err(QueryError::syntax("where clause", "expected a comparison operator"));
        };
        let right = self.parse_operand()?;
        Ok(Condition::Cmp { left, op, right })
    }

    fn parse_operand(&mut self) -> Result<Operand, QueryError> {
        self.skip_ws();
        // Quoted literal.
        if let Some(q @ ('"' | '\'')) = self.input[self.pos..].chars().next() {
            self.pos += 1;
            let rest = &self.input[self.pos..];
            let end = rest.find(q).ok_or_else(|| QueryError::syntax("where clause", "unterminated string"))?;
            let v = rest[..end].to_string();
            self.pos += end + 1;
            return Ok(Operand::Literal(v));
        }
        // Read a "word": chars up to whitespace/operator/paren, allowing
        // path characters and bracketed predicates.
        let start = self.pos;
        let mut depth = 0usize;
        for c in self.input[self.pos..].chars() {
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                c if depth == 0 && (c.is_ascii_whitespace() || matches!(c, '=' | '!' | '<' | '>' | '(' | ')')) => break,
                _ => {}
            }
            self.pos += c.len_utf8();
        }
        let raw_word = &self.input[start..self.pos];
        if raw_word.is_empty() {
            return Err(QueryError::syntax("where clause", "expected an operand"));
        }
        // Variable-rooted path? (tolerate the `$var` spelling). A `$word`
        // that does NOT match the variable stays a literal verbatim —
        // service parameter placeholders (`$who`) depend on that.
        let word = raw_word.strip_prefix('$').unwrap_or(raw_word);
        let var = self.var.strip_prefix('$').unwrap_or(self.var);
        if word == var {
            return Ok(Operand::Path { path: PathExpr { steps: vec![] }, attr: None });
        }
        if let Some(rest) = word.strip_prefix(var).filter(|r| r.starts_with('/')) {
            // `rest` keeps its leading slash(es): `/x` is a child step,
            // `//x` a descendant step.
            if let Some(attr) = rest.strip_prefix("/@") {
                return Ok(Operand::Path { path: PathExpr { steps: vec![] }, attr: Some(QName::new(attr)) });
            }
            // Trailing attribute access?
            if let Some((head, attr)) = rest.rsplit_once("/@") {
                let path = if head.is_empty() { PathExpr { steps: vec![] } } else { PathExpr::parse(head)? };
                return Ok(Operand::Path { path, attr: Some(QName::new(attr)) });
            }
            return Ok(Operand::Path { path: PathExpr::parse(rest)?, attr: None });
        }
        Ok(Operand::Literal(raw_word.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Document;

    fn doc() -> Document {
        Document::parse(
            r#"<ATPList>
                <player rank="1">
                    <name><lastname>Federer</lastname></name>
                    <citizenship>Swiss</citizenship>
                    <points>475</points>
                </player>
            </ATPList>"#,
        )
        .unwrap()
    }

    fn player(d: &Document) -> axml_xml::NodeId {
        d.first_child_element(d.root(), "player").unwrap()
    }

    #[test]
    fn simple_equality() {
        let d = doc();
        let c = Condition::parse("p/name/lastname = Federer", "p").unwrap();
        assert!(c.eval(&d, player(&d)));
        let c = Condition::parse("p/name/lastname = Nadal", "p").unwrap();
        assert!(!c.eval(&d, player(&d)));
    }

    #[test]
    fn quoted_literals() {
        let d = doc();
        let c = Condition::parse(r#"p/citizenship = "Swiss""#, "p").unwrap();
        assert!(c.eval(&d, player(&d)));
        let c = Condition::parse("p/citizenship = 'Swiss'", "p").unwrap();
        assert!(c.eval(&d, player(&d)));
    }

    #[test]
    fn numeric_comparisons() {
        let d = doc();
        for (expr, expect) in [
            ("p/points > 400", true),
            ("p/points >= 475", true),
            ("p/points < 475", false),
            ("p/points <= 475", true),
            ("p/points != 475", false),
            ("p/points = 475.0", true), // numeric, not textual
        ] {
            let c = Condition::parse(expr, "p").unwrap();
            assert_eq!(c.eval(&d, player(&d)), expect, "{expr}");
        }
    }

    #[test]
    fn attribute_operand() {
        let d = doc();
        let c = Condition::parse("p/@rank = 1", "p").unwrap();
        assert!(c.eval(&d, player(&d)));
        let c = Condition::parse("p/@rank = 2", "p").unwrap();
        assert!(!c.eval(&d, player(&d)));
    }

    #[test]
    fn boolean_connectives() {
        let d = doc();
        let p = player(&d);
        let c = Condition::parse("p/points > 400 and p/citizenship = Swiss", "p").unwrap();
        assert!(c.eval(&d, p));
        let c = Condition::parse("p/points > 500 or p/citizenship = Swiss", "p").unwrap();
        assert!(c.eval(&d, p));
        let c = Condition::parse("not p/points > 500", "p").unwrap();
        assert!(c.eval(&d, p));
        let c = Condition::parse("(p/points > 500 and p/citizenship = Swiss) or p/@rank = 1", "p").unwrap();
        assert!(c.eval(&d, p));
    }

    #[test]
    fn exists() {
        let d = doc();
        let p = player(&d);
        let c = Condition::parse("exists p/name", "p").unwrap();
        assert!(c.eval(&d, p));
        let c = Condition::parse("exists p/trophies", "p").unwrap();
        assert!(!c.eval(&d, p));
    }

    #[test]
    fn var_self_operand() {
        let d = doc();
        // `p` alone refers to the binding node: text content of the player.
        let c = Condition::parse("p != empty", "p").unwrap();
        assert!(c.eval(&d, player(&d)));
    }

    #[test]
    fn literal_vs_literal() {
        let d = doc();
        let c = Condition::parse("a = a", "p").unwrap();
        assert!(c.eval(&d, d.root()));
        let c = Condition::parse("1 < 2", "p").unwrap();
        assert!(c.eval(&d, d.root()));
        // String comparison when not numeric.
        let c = Condition::parse("abc < abd", "p").unwrap();
        assert!(c.eval(&d, d.root()));
    }

    #[test]
    fn existential_over_node_sets() {
        let d = Document::parse("<r><x>1</x><x>2</x><x>3</x></r>").unwrap();
        let c = Condition::parse("v/x = 2", "v").unwrap();
        assert!(c.eval(&d, d.root()), "any x matching suffices");
        let c = Condition::parse("v/x = 9", "v").unwrap();
        assert!(!c.eval(&d, d.root()));
        // Note: existential semantics make `=` and `!=` both true here.
        let c = Condition::parse("v/x != 2", "v").unwrap();
        assert!(c.eval(&d, d.root()));
    }

    #[test]
    fn keyword_case_insensitive() {
        let d = doc();
        let p = player(&d);
        let c = Condition::parse("p/points > 1 AND p/points > 2 Or p/points > 3", "p").unwrap();
        assert!(c.eval(&d, p));
        let c = Condition::parse("NOT p/points > 500", "p").unwrap();
        assert!(c.eval(&d, p));
    }

    #[test]
    fn keyword_prefix_words_are_operands() {
        // `android` starts with `and` but must parse as a literal operand.
        let d = doc();
        let c = Condition::parse("android = android", "p").unwrap();
        assert!(c.eval(&d, d.root()));
    }

    #[test]
    fn missing_paths_yield_empty_and_false() {
        let d = doc();
        let c = Condition::parse("p/no/such/path = anything", "p").unwrap();
        assert!(!c.eval(&d, player(&d)));
    }

    #[test]
    fn syntax_errors() {
        assert!(Condition::parse("", "p").is_err());
        assert!(Condition::parse("p/x =", "p").is_err());
        assert!(Condition::parse("p/x ~ 2", "p").is_err());
        assert!(Condition::parse("(p/x = 1", "p").is_err());
        assert!(Condition::parse("p/x = 1 extra", "p").is_err());
        assert!(Condition::parse("exists \"lit\"", "p").is_err());
        assert!(Condition::parse("p/x = \"open", "p").is_err());
    }

    #[test]
    fn to_text_reparses() {
        for src in
            ["p/name/lastname = Federer", "p/points > 400 and p/@rank = 1", "not (p/a = 1 or p/b = 2)", "exists p/name"]
        {
            let c = Condition::parse(src, "p").unwrap();
            let c2 = Condition::parse(&c.to_text().replace("$v", "p"), "p").unwrap();
            assert_eq!(c, c2, "src={src} text={}", c.to_text());
        }
    }
}
