//! The paper's `Select … from … where …` query form.
//!
//! ```text
//! Select p/citizenship, p/grandslamswon
//! from p in ATPList//player
//! where p/name/lastname = Federer;
//! ```
//!
//! Evaluation binds the variable to each node selected by the absolute
//! `from` path, keeps bindings satisfying the `where` condition, and
//! returns the union of all projection paths evaluated relative to each
//! surviving binding — deduplicated, in document order.

use crate::cond::{starts_with_keyword, Condition};
use crate::error::QueryError;
use crate::path::{dedup_document_order, PathExpr};
use crate::tree::QueryTree;
use axml_xml::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed select-from-where query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectQuery {
    /// Projection paths, relative to the bound variable. An empty path
    /// projects the binding node itself.
    pub projections: Vec<PathExpr>,
    /// The variable name (only used for parsing/printing).
    pub var: String,
    /// The absolute path the variable ranges over.
    pub from: PathExpr,
    /// The filter condition (defaults to [`Condition::True`]).
    pub condition: Condition,
}

impl SelectQuery {
    /// Parses a query. Keywords are case-insensitive; the trailing `;` is
    /// optional. The paper's examples parse verbatim.
    pub fn parse(input: &str) -> Result<SelectQuery, QueryError> {
        let input = input.trim().trim_end_matches(';').trim();
        if !starts_with_keyword(input.as_bytes(), "select") {
            return Err(QueryError::syntax("select query", "must start with `select`"));
        }
        let from_pos =
            find_keyword(input, "from").ok_or_else(|| QueryError::syntax("select query", "missing `from` clause"))?;
        let where_pos = find_keyword(input, "where");

        let proj_src = input["select".len()..from_pos].trim();
        let (from_src, where_src) = match where_pos {
            Some(w) if w > from_pos => (input[from_pos + 4..w].trim(), Some(input[w + 5..].trim())),
            _ => (input[from_pos + 4..].trim(), None),
        };

        // from: `<var> in <abs-path>`
        let (var, from_path_src) = from_src
            .split_once(|c: char| c.is_ascii_whitespace())
            .ok_or_else(|| QueryError::syntax("select query", "expected `<var> in <path>` after `from`"))?;
        let from_path_src = from_path_src.trim();
        let rest = from_path_src
            .strip_prefix("in")
            .filter(|r| r.starts_with(|c: char| c.is_ascii_whitespace()))
            .or_else(|| from_path_src.strip_prefix("IN").filter(|r| r.starts_with(|c: char| c.is_ascii_whitespace())))
            .ok_or_else(|| QueryError::syntax("select query", "expected `in` after the variable"))?;
        let var = var.trim().trim_start_matches('$').to_string();
        if var.is_empty() {
            return Err(QueryError::syntax("select query", "empty variable name"));
        }
        let from = PathExpr::parse(rest.trim())?;

        // projections: comma-separated variable-relative paths. The slash
        // count after the variable matters: `v/x` is a child step, `v//x`
        // a descendant step.
        let mut projections = Vec::new();
        for part in proj_src.split(',') {
            let part = part.trim().trim_start_matches('$');
            if part.is_empty() {
                return Err(QueryError::syntax("select query", "empty projection"));
            }
            if part == var {
                projections.push(PathExpr { steps: vec![] });
            } else if let Some(rel) = part.strip_prefix(&var).filter(|r| r.starts_with('/')) {
                projections.push(PathExpr::parse(rel)?);
            } else {
                return Err(QueryError::syntax(
                    "select query",
                    format!("projection `{part}` must start with the variable `{var}`"),
                ));
            }
        }
        if projections.is_empty() {
            return Err(QueryError::syntax("select query", "no projections"));
        }

        let condition = match where_src {
            None => Condition::True,
            Some("") => Condition::True,
            Some(src) => Condition::parse(src, &var)?,
        };

        Ok(SelectQuery { projections, var, from, condition })
    }

    /// Builds a query programmatically.
    pub fn new(from: PathExpr, projections: Vec<PathExpr>, condition: Condition) -> SelectQuery {
        SelectQuery { projections, var: "v".into(), from, condition }
    }

    /// The binding nodes: `from` matches that satisfy the condition.
    pub fn bindings<T: QueryTree>(&self, tree: &T) -> Vec<NodeId> {
        self.from.eval(tree).into_iter().filter(|n| self.condition.eval(tree, *n)).collect()
    }

    /// Evaluates the query: union of projections over all bindings,
    /// deduplicated in document order.
    pub fn eval<T: QueryTree>(&self, tree: &T) -> Result<Vec<NodeId>, QueryError> {
        let mut out = Vec::new();
        for binding in self.bindings(tree) {
            for proj in &self.projections {
                if proj.steps.is_empty() {
                    out.push(binding);
                } else {
                    out.extend(proj.eval_relative(tree, binding));
                }
            }
        }
        Ok(dedup_document_order(tree, out))
    }

    /// Renders the query back to text.
    pub fn to_text(&self) -> String {
        let projs: Vec<String> = self
            .projections
            .iter()
            .map(|p| {
                if p.steps.is_empty() {
                    self.var.clone()
                } else {
                    let text = p.to_text();
                    // A leading descendant step already prints its own `//`.
                    if text.starts_with("//") {
                        format!("{}{}", self.var, text)
                    } else {
                        format!("{}/{}", self.var, text)
                    }
                }
            })
            .collect();
        let mut s = format!("Select {} from {} in {}", projs.join(", "), self.var, self.from.to_text());
        if self.condition != Condition::True {
            s.push_str(&format!(" where {}", self.condition.to_text().replace("$v", &self.var)));
        }
        s.push(';');
        s
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Finds an ASCII keyword at a word boundary, skipping quoted strings.
/// Compares bytes, so the returned offset is a char boundary of `input`
/// whatever non-ASCII text surrounds the keyword.
fn find_keyword(input: &str, kw: &str) -> Option<usize> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut quote: Option<u8> = None;
    while i < bytes.len() {
        let b = bytes[i];
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            i += 1;
            continue;
        }
        if b == b'"' || b == b'\'' {
            quote = Some(b);
            i += 1;
            continue;
        }
        if starts_with_keyword(&bytes[i..], kw) {
            let before_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            let after = i + kw.len();
            let after_ok = after >= bytes.len() || !bytes[after].is_ascii_alphanumeric();
            if before_ok && after_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
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
                    <grandslamswon year="2003">A, W</grandslamswon>
                    <grandslamswon year="2004">A, U</grandslamswon>
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
    fn paper_delete_location_query() {
        // Verbatim from §3.1 (modulo the paper's stray `:`).
        let doc = atp();
        let q = SelectQuery::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;")
            .unwrap();
        let hits = q.eval(&doc).unwrap();
        assert_eq!(texts(&doc, &hits), vec!["Swiss"]);
    }

    #[test]
    fn paper_compensating_insert_location_query() {
        // The compensation addresses the *parent* of the deleted node.
        let doc = atp();
        let q =
            SelectQuery::parse("Select p/citizenship/.. from p in ATPList//player where p/name/lastname = Federer;")
                .unwrap();
        let hits = q.eval(&doc).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.name(hits[0]).unwrap().local, "player");
    }

    #[test]
    fn paper_query_a_two_projections() {
        let doc = atp();
        let q = SelectQuery::parse(
            "Select p/citizenship, p/grandslamswon from p in ATPList//player where p/name/lastname = Federer;",
        )
        .unwrap();
        let hits = q.eval(&doc).unwrap();
        assert_eq!(hits.len(), 3, "citizenship + two grandslamswon");
        assert_eq!(texts(&doc, &hits), vec!["Swiss", "A, W", "A, U"]);
    }

    #[test]
    fn no_where_clause() {
        let doc = atp();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player").unwrap();
        assert_eq!(texts(&doc, &q.eval(&doc).unwrap()), vec!["475", "390"]);
        assert_eq!(q.condition, Condition::True);
    }

    #[test]
    fn variable_projection_selects_binding() {
        let doc = atp();
        let q = SelectQuery::parse("Select p from p in ATPList//player where p/@rank = 2").unwrap();
        let hits = q.eval(&doc).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.name(hits[0]).unwrap().local, "player");
    }

    #[test]
    fn dollar_variable_accepted() {
        let doc = atp();
        let q = SelectQuery::parse("Select $p/points from $p in ATPList//player where $p/@rank = 1").unwrap();
        assert_eq!(texts(&doc, &q.eval(&doc).unwrap()), vec!["475"]);
    }

    #[test]
    fn bindings_exposed() {
        let doc = atp();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player where p/points > 400").unwrap();
        assert_eq!(q.bindings(&doc).len(), 1);
    }

    #[test]
    fn results_deduped_in_doc_order() {
        let doc = atp();
        // Both projections hit the same nodes.
        let q = SelectQuery::parse("Select p/name/.., p from p in ATPList//player").unwrap();
        let hits = q.eval(&doc).unwrap();
        assert_eq!(hits.len(), 2, "deduped");
    }

    #[test]
    fn keyword_case_insensitivity() {
        let doc = atp();
        let q = SelectQuery::parse("SELECT p/points FROM p IN ATPList//player WHERE p/@rank = 1").unwrap();
        assert_eq!(texts(&doc, &q.eval(&doc).unwrap()), vec!["475"]);
    }

    #[test]
    fn keywords_inside_quotes_ignored() {
        let doc = Document::parse("<r><a>from where</a></r>").unwrap();
        let q = SelectQuery::parse(r#"Select v/a from v in r where v/a = "from where""#).unwrap();
        assert_eq!(q.eval(&doc).unwrap().len(), 1);
    }

    #[test]
    fn to_text_roundtrip() {
        for src in [
            "Select p/citizenship from p in ATPList//player where p/name/lastname = Federer;",
            "Select p/a, p/b from p in r//x;",
            "Select p from p in r//x where p/@k = 1;",
        ] {
            let q = SelectQuery::parse(src).unwrap();
            let q2 = SelectQuery::parse(&q.to_text()).unwrap();
            assert_eq!(q.eval(&atp()).unwrap(), q2.eval(&atp()).unwrap(), "src={src}");
        }
    }

    #[test]
    fn syntax_errors() {
        for bad in [
            "",
            "p/citizenship from p in r",    // missing select
            "Select p/x where p/y = 1",     // missing from
            "Select from p in r",           // no projections
            "Select q/x from p in r",       // projection not var-rooted
            "Select p/x from p r",          // missing `in`
            "Select p/x from p in",         // missing path
            "Select p/x from p in r where", // empty where is ok...
        ] {
            let res = SelectQuery::parse(bad);
            if bad.ends_with("where") {
                assert!(res.is_ok(), "trailing empty where tolerated: {bad}");
            } else {
                assert!(res.is_err(), "should fail: {bad}");
            }
        }
    }
}

#[cfg(test)]
mod descendant_projection_tests {
    use super::*;
    use crate::path::Axis;
    use axml_xml::Document;

    /// Regression: `v//x` after the variable must keep the descendant
    /// axis (an earlier version silently degraded it to a child step).
    #[test]
    fn double_slash_after_variable_is_descendant() {
        let doc = Document::parse("<r><mid><deep><x>found</x></deep></mid></r>").unwrap();
        let q = SelectQuery::parse("Select v//x from v in r").unwrap();
        assert_eq!(q.projections[0].steps[0].axis, Axis::Descendant);
        let hits = q.eval(&doc).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_content(hits[0]).unwrap(), "found");
        // Single slash stays a child step and misses the deep node.
        let q = SelectQuery::parse("Select v/x from v in r").unwrap();
        assert_eq!(q.projections[0].steps[0].axis, Axis::Child);
        assert!(q.eval(&doc).unwrap().is_empty());
    }

    #[test]
    fn double_slash_in_where_clause_is_descendant() {
        let doc = Document::parse("<r><mid><lastname>Federer</lastname></mid><hit>y</hit></r>").unwrap();
        let q = SelectQuery::parse("Select v/hit from v in r where v//lastname = Federer").unwrap();
        assert_eq!(q.eval(&doc).unwrap().len(), 1);
        let q = SelectQuery::parse("Select v/hit from v in r where v/lastname = Federer").unwrap();
        assert!(q.eval(&doc).unwrap().is_empty(), "child axis must not see the deep node");
    }

    #[test]
    fn descendant_projection_to_text_roundtrip() {
        let src = "Select v//x, v/y from v in r where v//z = 1";
        let q = SelectQuery::parse(src).unwrap();
        let q2 = SelectQuery::parse(&q.to_text()).unwrap();
        assert_eq!(q, q2, "text={}", q.to_text());
        assert!(q.to_text().contains("v//x"), "{}", q.to_text());
        assert!(q.to_text().contains("v//z"), "{}", q.to_text());
    }

    #[test]
    fn variable_prefix_words_remain_errors_or_literals() {
        // `very/x` does not start with `v/` — projection must be rejected…
        assert!(SelectQuery::parse("Select very/x from v in r").is_err());
        // …and in a where clause, `very` is a literal, not a path.
        let doc = Document::parse("<r/>").unwrap();
        let q = SelectQuery::parse("Select v from v in r where very = very").unwrap();
        assert_eq!(q.eval(&doc).unwrap().len(), 1);
    }
}
