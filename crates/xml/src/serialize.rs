//! XML serialization: escaping plus compact and pretty output.

use crate::tree::{Children, Document, NodeId, NodeKind};

/// Options controlling serialization.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Emit `<?xml version="1.0" encoding="UTF-8"?>` first.
    pub declaration: bool,
    /// Indent nested elements (2 spaces per level). Text-bearing elements
    /// are kept on one line so no whitespace-only text nodes are invented.
    pub pretty: bool,
}

impl SerializeOptions {
    /// Compact output: no declaration, no indentation.
    pub fn compact() -> Self {
        SerializeOptions { declaration: false, pretty: false }
    }

    /// Pretty output with declaration.
    pub fn pretty() -> Self {
        SerializeOptions { declaration: true, pretty: true }
    }
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions::compact()
    }
}

/// Appends `s` with `&`, `<`, `>` escaped — and, for attribute values,
/// `"`, newline and tab too. Every escaped character is ASCII, so the
/// runs between them are copied as whole slices.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\n' if attr => "&#10;",
            b'\t' if attr => "&#9;",
            _ => continue,
        };
        out.push_str(&s[from..i]);
        out.push_str(escaped);
        from = i + 1;
    }
    out.push_str(&s[from..]);
}

/// Appends escaped text-node content.
pub(crate) fn push_text(out: &mut String, s: &str) {
    push_escaped(out, s, false);
}

/// Appends escaped attribute-value content.
pub(crate) fn push_attr(out: &mut String, s: &str) {
    push_escaped(out, s, true);
}

/// Escapes text-node content (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_text(&mut out, s);
    out
}

/// Escapes attribute-value content (also `"` and newlines).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_attr(&mut out, s);
    out
}

/// Serializes the subtree rooted at `node`.
pub fn serialize(doc: &Document, node: NodeId, opts: &SerializeOptions) -> String {
    let mut out = String::new();
    serialize_into(doc, node, opts, &mut out);
    out
}

/// Appends the serialization of the subtree rooted at `node` to `out`.
pub fn serialize_into(doc: &Document, node: NodeId, opts: &SerializeOptions, out: &mut String) {
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.pretty {
            out.push('\n');
        }
    }
    write_node(doc, node, opts.pretty, 0, out);
}

fn has_element_children(doc: &Document, mut children: Children<'_>) -> bool {
    children.any(|c| {
        matches!(doc.kind(c), Ok(NodeKind::Element { .. }) | Ok(NodeKind::Comment(_)) | Ok(NodeKind::Pi { .. }))
    })
}

/// Appends one node. With `pretty`, element, comment and PI lines are
/// indented by `depth` and end in a newline; text-bearing elements write
/// their content inline (not pretty) so no whitespace text is invented.
fn write_node(doc: &Document, node: NodeId, pretty: bool, depth: usize, out: &mut String) {
    let indent = |out: &mut String| {
        if pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    };
    match doc.kind(node) {
        Ok(NodeKind::Element { name }) => {
            indent(out);
            out.push('<');
            name.push_to(out);
            for (an, av) in doc.attrs(node).expect("an element") {
                out.push(' ');
                an.push_to(out);
                out.push_str("=\"");
                push_attr(out, av);
                out.push('"');
            }
            let children = doc.children(node).unwrap_or_default();
            if children.len() == 0 {
                out.push_str("/>");
            } else {
                out.push('>');
                let block = pretty && has_element_children(doc, children.clone());
                if block {
                    out.push('\n');
                }
                for child in children {
                    write_node(doc, child, block, depth + 1, out);
                }
                if block {
                    indent(out);
                }
                out.push_str("</");
                name.push_to(out);
                out.push('>');
            }
        }
        // Character data never starts or ends a line of its own.
        Ok(NodeKind::Text(t)) => {
            push_text(out, t);
            return;
        }
        Ok(NodeKind::Cdata(t)) => {
            out.push_str("<![CDATA[");
            out.push_str(t);
            out.push_str("]]>");
            return;
        }
        Ok(NodeKind::Comment(t)) => {
            indent(out);
            out.push_str("<!--");
            out.push_str(t);
            out.push_str("-->");
        }
        Ok(NodeKind::Pi { target, data }) => {
            indent(out);
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
        Err(_) => return,
    }
    if pretty {
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn escaping() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
        assert_eq!(escape_attr("say \"hi\"\n"), "say &quot;hi&quot;&#10;");
        assert_eq!(escape_attr("tab\there"), "tab&#9;here");
    }

    #[test]
    fn compact_output() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.create_element("a");
        let t = doc.create_text("x & y");
        doc.append_child(a, t).unwrap();
        doc.append_child(root, a).unwrap();
        assert_eq!(doc.to_xml(), "<r><a>x &amp; y</a></r>");
    }

    #[test]
    fn pretty_output_indents_elements() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let t = doc.create_text("leaf");
        doc.append_child(b, t).unwrap();
        doc.append_child(a, b).unwrap();
        doc.append_child(root, a).unwrap();
        let s = doc.to_xml_with(&SerializeOptions::pretty());
        assert!(s.starts_with("<?xml"));
        assert!(s.contains("\n  <a>\n"), "{s}");
        assert!(s.contains("\n    <b>leaf</b>\n"), "{s}");
    }

    #[test]
    fn cdata_comment_pi() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let c = doc.create_cdata("a<b");
        doc.append_child(root, c).unwrap();
        let com = doc.create_comment(" note ");
        doc.append_child(root, com).unwrap();
        let pi = doc.create_pi("go", "now");
        doc.append_child(root, pi).unwrap();
        assert_eq!(doc.to_xml(), "<r><![CDATA[a<b]]><!-- note --><?go now?></r>");
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = Document::new("solo");
        assert_eq!(doc.to_xml(), "<solo/>");
    }
}
