//! A from-scratch XML parser covering the subset AXML documents use.
//!
//! Supported: XML declaration, elements, attributes (single- or
//! double-quoted), character data with the five predefined entities and
//! numeric character references, CDATA sections, comments, processing
//! instructions, and a DOCTYPE declaration (skipped, internal subsets
//! without markup declarations only). Not supported (and not needed by the
//! AXML corpus): external entities, custom entity declarations, DTD
//! validation.

use crate::error::ParseError;
use crate::fragment::Fragment;
use crate::name::QName;
use crate::tree::{Document, NodeId};
use std::borrow::Cow;

/// Options controlling parsing.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Drop text nodes that consist entirely of whitespace (defaults to
    /// `true`; AXML documents are data-centric, indentation is noise).
    pub trim_whitespace: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { trim_whitespace: true }
    }
}

/// How many elements may be open at once, the root included. The parser
/// and everything that walks its result — fragment capture, `Clone`,
/// `Drop`, the derived codecs — recurse once per level, so unbounded
/// nesting would be unbounded stack. Sized so that a subtree this deep,
/// logged in a journal entry at three JSON containers per XML level
/// (`{"Element":{…"children":[`), stays under `serde_json`'s 1,024 open
/// containers: every frame the WAL writes is one recovery can read.
pub const MAX_DEPTH: usize = 256;

/// Parses a complete XML document with default options.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with(input, &ParseOptions::default())
}

/// Parses a complete XML document.
pub fn parse_with(input: &str, opts: &ParseOptions) -> Result<Document, ParseError> {
    parse_at_depth(input, opts, 1)
}

/// Parses a document whose root element counts as nesting level `depth`.
fn parse_at_depth(input: &str, opts: &ParseOptions, depth: usize) -> Result<Document, ParseError> {
    let mut cur = Cursor::new(input, opts.clone());
    cur.skip_prolog()?;
    if !cur.starts_with("<") {
        return Err(cur.err("expected root element"));
    }
    let mut doc = Document::new("placeholder-root");
    let root = doc.root();
    cur.parse_element_into(&mut doc, root, true, depth)?;
    cur.skip_misc()?;
    if !cur.at_end() {
        return Err(cur.err("trailing content after root element"));
    }
    Ok(doc)
}

/// Parses XML *content* (zero or more elements/text items) into fragments.
///
/// Used to decode service-call results shipped between peers.
///
/// ```
/// use axml_xml::parse_fragment;
/// let frags = parse_fragment("<a>1</a>text<b/>").unwrap();
/// assert_eq!(frags.len(), 3);
/// ```
pub fn parse_fragment(input: &str) -> Result<Vec<Fragment>, ParseError> {
    let wrapped = format!("<axml-fragment-wrapper>{input}</axml-fragment-wrapper>");
    // The wrapper is not the caller's: the fragments' own elements nest
    // from level 1.
    let doc = parse_at_depth(&wrapped, &ParseOptions { trim_whitespace: true }, 0)?;
    let items: Vec<NodeId> = doc.children(doc.root()).expect("live root").collect();
    Ok(doc.extract_fragments(&items))
}

struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    opts: ParseOptions,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str, opts: ParseOptions) -> Self {
        Cursor { input, bytes: input.as_bytes(), pos: 0, opts }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        // `bump` advances bytewise, so `pos` can sit inside a multi-byte
        // character of malformed input: report that character's start.
        let offset = self.input.floor_char_boundary(self.pos);
        let upto = &self.input[..offset];
        let line = upto.bytes().filter(|b| *b == b'\n').count() + 1;
        let column = upto.rsplit('\n').next().map(|l| l.chars().count()).unwrap_or(0) + 1;
        ParseError::new(offset, line, column, message)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Reads up to (not including) the next occurrence of `end`.
    fn read_until(&mut self, end: &str) -> Result<&'a str, ParseError> {
        match self.input[self.pos..].find(end) {
            Some(rel) => {
                let s = &self.input[self.pos..self.pos + rel];
                self.pos += rel + end.len();
                Ok(s)
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat("<?xml") {
            self.read_until("?>")?;
        }
        self.skip_misc()?;
        if self.starts_with("<!DOCTYPE") {
            self.pos += "<!DOCTYPE".len();
            // Skip to the matching `>`, tolerating a bracketed internal subset.
            let mut depth = 0i32;
            loop {
                match self.bump() {
                    Some(b'[') => depth += 1,
                    Some(b']') => depth -= 1,
                    Some(b'>') if depth <= 0 => break,
                    Some(_) => {}
                    None => return Err(self.err("unterminated DOCTYPE")),
                }
            }
            self.skip_misc()?;
        }
        Ok(())
    }

    /// Skips whitespace, comments, and PIs between top-level constructs.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.pos += 4;
                self.read_until("-->")?;
            } else if self.starts_with("<?") && !self.starts_with("<?xml") {
                self.pos += 2;
                self.read_until("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = &self.input[start..self.pos];
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.err(format!("invalid name start in `{name}`")));
        }
        Ok(name)
    }

    /// `raw` with its entity references resolved: `raw` itself when it has
    /// none, as most text and nearly every attribute value.
    fn decode_entities(&self, raw: &'a str, base: usize) -> Result<Cow<'a, str>, ParseError> {
        if !raw.contains('&') {
            return Ok(Cow::Borrowed(raw));
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        let mut consumed = 0usize;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            let after = &rest[amp + 1..];
            let semi = after
                .find(';')
                .ok_or_else(|| ParseError::new(base + consumed + amp, 0, 0, "unterminated entity reference"))?;
            let ent = &after[..semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| {
                        ParseError::new(base + consumed + amp, 0, 0, format!("bad hex char ref `&{ent};`"))
                    })?;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        ParseError::new(base + consumed + amp, 0, 0, format!("invalid char ref `&{ent};`"))
                    })?);
                }
                _ if ent.starts_with('#') => {
                    let code = ent[1..]
                        .parse::<u32>()
                        .map_err(|_| ParseError::new(base + consumed + amp, 0, 0, format!("bad char ref `&{ent};`")))?;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        ParseError::new(base + consumed + amp, 0, 0, format!("invalid char ref `&{ent};`"))
                    })?);
                }
                _ => return Err(ParseError::new(base + consumed + amp, 0, 0, format!("unknown entity `&{ent};`"))),
            }
            consumed += amp + 1 + semi + 1;
            rest = &after[semi + 1..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }

    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q as char,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let start = self.pos;
        let raw = self.read_until(if quote == '"' { "\"" } else { "'" })?;
        if raw.contains('<') {
            return Err(self.err("`<` not allowed in attribute value"));
        }
        self.decode_entities(raw, start)
    }

    /// Parses one element, nesting level `depth`. If `into_root` is true,
    /// the element's name and attributes overwrite `node` (used for the
    /// document root); otherwise a fresh child, its attributes set while it
    /// is still detached, is appended under `node`.
    fn parse_element_into(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        into_root: bool,
        depth: usize,
    ) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH} levels")));
        }
        self.expect_str("<")?;
        let name = QName::new(self.read_name()?);
        let elem = if into_root {
            doc.set_name(node, name.clone()).expect("root is an element");
            node
        } else {
            doc.create_element(name.clone())
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') | Some(b'>') => break,
                Some(_) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect_str("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if doc.attr(elem, aname).is_some() {
                        return Err(self.err(format!("duplicate attribute `{aname}`")));
                    }
                    doc.set_attr(elem, aname, value).expect("elem is an element");
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        if !into_root {
            doc.append_fresh(node, elem);
        }
        if self.eat("/>") {
            return Ok(());
        }
        self.expect_str(">")?;
        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.read_name()?;
                if !name.matches_raw(end_name) {
                    return Err(self.err(format!("mismatched end tag `</{end_name}>`, expected `</{name}>`")));
                }
                self.skip_ws();
                self.expect_str(">")?;
                return Ok(());
            } else if self.starts_with("<!--") {
                self.pos += 4;
                let c = doc.create_comment(self.read_until("-->")?);
                doc.append_fresh(elem, c);
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let c = doc.create_cdata(self.read_until("]]>")?);
                doc.append_fresh(elem, c);
            } else if self.starts_with("<?") {
                self.pos += 2;
                let body = self.read_until("?>")?;
                let (target, data) = body.split_once(|c: char| c.is_ascii_whitespace()).unwrap_or((body, ""));
                let p = doc.create_pi(target, data.trim());
                doc.append_fresh(elem, p);
            } else if self.starts_with("<") {
                self.parse_element_into(doc, elem, false, depth + 1)?;
            } else if self.at_end() {
                return Err(self.err(format!("unexpected end of input inside `<{name}>`")));
            } else {
                // Character data up to the next `<`.
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = &self.input[start..self.pos];
                let decoded = self.decode_entities(raw, start)?;
                let keep = if self.opts.trim_whitespace { !decoded.trim().is_empty() } else { !decoded.is_empty() };
                if keep {
                    let t = doc.create_text(if self.opts.trim_whitespace { decoded.trim() } else { &decoded });
                    doc.append_fresh(elem, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn parses_declaration_and_simple_doc() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r><a>1</a></r>").unwrap();
        assert_eq!(doc.to_xml(), "<r><a>1</a></r>");
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let doc = parse(r#"<r a="1" b='two' c="x &amp; y"/>"#).unwrap();
        let root = doc.root();
        assert_eq!(doc.attr(root, "a"), Some("1"));
        assert_eq!(doc.attr(root, "b"), Some("two"));
        assert_eq!(doc.attr(root, "c"), Some("x & y"));
    }

    #[test]
    fn entity_decoding_in_text() {
        let doc = parse("<r>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</r>").unwrap();
        let root = doc.root();
        assert_eq!(doc.text_content(root).unwrap(), "<tag> & \"q\" 'a' AB");
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = parse("<r>&nbsp;</r>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn unterminated_entity_rejected() {
        assert!(parse("<r>&amp</r>").is_err());
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse("<r><![CDATA[a < b & c]]></r>").unwrap();
        let root = doc.root();
        let kids: Vec<NodeId> = doc.children(root).unwrap().collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.kind(kids[0]).unwrap(), NodeKind::Cdata("a < b & c"));
    }

    #[test]
    fn comments_and_pis_in_content() {
        let doc = parse("<r><!-- c --><?pi data here?><a/></r>").unwrap();
        let root = doc.root();
        let kids: Vec<NodeId> = doc.children(root).unwrap().collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(doc.kind(kids[0]).unwrap(), NodeKind::Comment(" c "));
        assert_eq!(doc.kind(kids[1]).unwrap(), NodeKind::Pi { target: "pi", data: "data here" });
    }

    #[test]
    fn doctype_skipped() {
        let doc = parse("<!DOCTYPE r [ <!ELEMENT r ANY> ]><r/>").unwrap();
        assert_eq!(doc.to_xml(), "<r/>");
        let doc = parse("<!DOCTYPE r SYSTEM \"r.dtd\"><r/>").unwrap();
        assert_eq!(doc.to_xml(), "<r/>");
    }

    #[test]
    fn whitespace_trimming_default() {
        let doc = parse("<r>\n  <a> hi </a>\n</r>").unwrap();
        assert_eq!(doc.to_xml(), "<r><a>hi</a></r>");
    }

    #[test]
    fn whitespace_preserved_when_asked() {
        let doc = parse_with("<r> <a>hi</a> </r>", &ParseOptions { trim_whitespace: false }).unwrap();
        let root = doc.root();
        assert_eq!(doc.children(root).unwrap().len(), 3);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>x").is_err());
    }

    #[test]
    fn missing_close_rejected() {
        assert!(parse("<a><b/>").is_err());
        assert!(parse("<a").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse(r#"<a x="<"/>"#).is_err());
    }

    #[test]
    fn namespaced_names() {
        let doc = parse(r#"<axml:sc mode="replace"><axml:params/></axml:sc>"#).unwrap();
        let root = doc.root();
        assert!(doc.name(root).unwrap().is(Some("axml"), "sc"));
        let first = doc.child_at(root, 0).unwrap().unwrap();
        assert!(doc.name(first).unwrap().is(Some("axml"), "params"));
    }

    #[test]
    fn atp_list_snippet_from_paper() {
        let src = r#"<?xml version = "1.0" encoding = "UTF-8"?>
<ATPList date = "18042005">
     <player rank = "1">
          <name>
               <firstname>Roger</firstname>
               <lastname>Federer</lastname>
          </name>
          <citizenship>Swiss</citizenship>
          <axml:sc mode = "replace" serviceNameSpace = "getPoints" serviceURL = "http://ap2" methodName = "getPoints">
               <axml:params>
                    <axml:param name = "name"><axml:value>Roger Federer</axml:value></axml:param>
               </axml:params>
               <points>475</points>
          </axml:sc>
     </player>
</ATPList>"#;
        let doc = parse(src).unwrap();
        let root = doc.root();
        assert_eq!(doc.name(root).unwrap().local, "ATPList");
        assert_eq!(doc.attr(root, "date"), Some("18042005"));
        let player = doc.first_child_element(root, "player").unwrap();
        let sc = doc.first_child_element(player, "axml:sc").unwrap();
        assert_eq!(doc.attr(sc, "mode"), Some("replace"));
        assert_eq!(doc.attr(sc, "methodName"), Some("getPoints"));
        doc.check_consistency().unwrap();
    }

    #[test]
    fn parse_fragment_multiple_items() {
        let frags = parse_fragment("<a>1</a>mid<b x='2'/>").unwrap();
        assert_eq!(frags.len(), 3);
    }

    #[test]
    fn parse_fragment_empty() {
        assert_eq!(parse_fragment("").unwrap().len(), 0);
    }

    #[test]
    fn line_and_column_in_errors() {
        let err = parse("<a>\n  <b>\n</a>").unwrap_err();
        assert_eq!(err.line, 3, "{err}");
    }

    #[test]
    fn spaces_around_attr_equals() {
        let doc = parse(r#"<r a = "1"/>"#).unwrap();
        assert_eq!(doc.attr(doc.root(), "a"), Some("1"));
    }

    fn nested(levels: usize) -> String {
        format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_for_documents_and_fragments_alike() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert_eq!((err.offset, err.line, err.column), (3 * MAX_DEPTH, 1, 3 * MAX_DEPTH + 1), "at the offending `<`");
        // The wrapper `parse_fragment` adds is not the caller's level.
        assert_eq!(parse_fragment(&nested(MAX_DEPTH)).unwrap().len(), 1);
        assert!(parse_fragment(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_hundred_thousand_open_tags_are_an_error_not_a_stack_overflow() {
        // 100,000 levels of per-element recursion overflow even the 8 MiB
        // main thread; the bound must hold on a quarter of that.
        let parsing = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            for input in ["<a>".repeat(100_000), nested(100_000)] {
                let err = parse(&input).unwrap_err();
                assert!(err.message.contains("nested deeper"), "{err}");
                assert_eq!(err.offset, 3 * MAX_DEPTH);
                assert!(crate::Fragment::parse_all(&input).is_err());
            }
        });
        parsing.expect("thread spawns").join().expect("no panic, no overflow");
    }
}
