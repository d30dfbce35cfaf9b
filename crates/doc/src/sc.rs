//! Embedded service calls (`axml:sc`) and their fault handlers.
//!
//! The paper's running example (§1/§3.1):
//!
//! ```xml
//! <axml:sc mode="replace" serviceNameSpace="getPoints"
//!          serviceURL="peer://ap2" methodName="getPoints">
//!   <axml:params>
//!     <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
//!   </axml:params>
//!   <points>475</points>              <!-- previous invocation results -->
//! </axml:sc>
//! ```
//!
//! and, with fault handlers (§3.2):
//!
//! ```xml
//! <axml:sc … methodName="getGrandSlamsWon">
//!   <axml:params>…</axml:params>
//!   <axml:catch faultName="A"><axml:retry times="3" wait="10"/></axml:catch>
//!   <axml:catchAll><axml:value>fallback</axml:value></axml:catchAll>
//! </axml:sc>
//! ```

use crate::consts;
use axml_xml::{Document, Fragment, FragmentKind, NameId, NodeId, QName};
use serde::{Deserialize, Serialize};

/// Result mode of a service call (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScMode {
    /// "the previous results are replaced by the current invocation results".
    #[default]
    Replace,
    /// "the invocation results are appended as siblings of the previous
    /// invocation results".
    Merge,
}

impl ScMode {
    /// Parses the `mode` attribute (defaults to `replace`).
    pub fn parse(s: Option<&str>) -> ScMode {
        match s {
            Some("merge") => ScMode::Merge,
            _ => ScMode::Replace,
        }
    }

    /// The attribute value.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScMode::Replace => "replace",
            ScMode::Merge => "merge",
        }
    }
}

/// The value of one `axml:param`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamValue {
    /// A literal `axml:value` text.
    Literal(String),
    /// An external value placeholder (`$year (external value)` in the
    /// paper) to be supplied by the caller at invocation time.
    External(String),
    /// A nested service call (**local nesting**: "the service call
    /// parameters may themselves be defined as service calls").
    Call(Box<ServiceCall>),
    /// Literal XML content.
    Xml(Vec<Fragment>),
}

/// One parameter of a service call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter value.
    pub value: ParamValue,
}

/// What a fault handler does when it matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandlerAction {
    /// `axml:retry times=".." wait=".."`, optionally carrying an
    /// alternative `axml:sc` to retry against a **replica peer** ("the
    /// optional `<axml:sc …>` allows retrying the invocation using a
    /// replicated peer").
    Retry {
        /// Maximum retry attempts.
        times: u32,
        /// Wait between attempts, in simulated time units.
        wait: u64,
        /// Alternative call (replica peer), if any.
        alternative: Option<Box<ServiceCall>>,
    },
    /// Substitute a default result and continue (forward recovery with
    /// application-provided data).
    Substitute(Vec<Fragment>),
    /// Explicitly propagate the abort to the parent (backward recovery).
    Propagate,
}

/// A fault handler attached to a service call (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultHandler {
    /// `Some(name)` for `axml:catch faultName="name"`, `None` for
    /// `axml:catchAll`.
    pub fault_name: Option<String>,
    /// The recovery action.
    pub action: HandlerAction,
}

impl FaultHandler {
    /// True if this handler matches a fault with the given name.
    pub fn matches(&self, fault_name: &str) -> bool {
        match &self.fault_name {
            None => true,
            Some(n) => n == fault_name,
        }
    }
}

/// A parsed embedded service call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCall {
    /// The `axml:sc` element in the host document (`None` for calls built
    /// programmatically or nested inside parameters).
    pub node: Option<NodeId>,
    /// Result mode.
    pub mode: ScMode,
    /// `serviceNameSpace` attribute (interned — the same namespace is
    /// re-wrapped into a [`crate::materialize::ResolvedCall`] on every
    /// invocation, so the handle makes those re-wraps allocation-free).
    pub service_ns: NameId,
    /// `serviceURL` — in this reproduction, the address of the hosting
    /// peer in the simulated fabric (e.g. `peer://ap2`). Interned.
    pub service_url: NameId,
    /// `methodName` — the service to invoke. Interned.
    pub method: NameId,
    /// Parameters.
    pub params: Vec<Param>,
    /// Fault handlers, in document order (first match wins; `catchAll`
    /// placed last by convention).
    pub handlers: Vec<FaultHandler>,
}

impl ServiceCall {
    /// Parses the `axml:sc` element at `node`.
    pub fn parse(doc: &Document, node: NodeId) -> Option<ServiceCall> {
        let name = doc.name(node).ok()?;
        if !consts::is_sc(name.prefix.as_deref(), &name.local) {
            return None;
        }
        let mut call = ServiceCall {
            node: Some(node),
            mode: ScMode::parse(doc.attr(node, consts::ATTR_MODE)),
            service_ns: NameId::new(doc.attr(node, consts::ATTR_SERVICE_NS).unwrap_or_default()),
            service_url: NameId::new(doc.attr(node, consts::ATTR_SERVICE_URL).unwrap_or_default()),
            method: NameId::new(doc.attr(node, consts::ATTR_METHOD).unwrap_or_default()),
            params: Vec::new(),
            handlers: Vec::new(),
        };
        for child in doc.children(node).ok()? {
            let Ok(cname) = doc.name(child) else { continue };
            if !cname.has_prefix(consts::AXML_PREFIX) {
                continue; // previous results
            }
            match cname.local.as_str() {
                consts::PARAMS => {
                    for p in doc.children(child).ok()? {
                        if let Some(param) = Self::parse_param(doc, p) {
                            call.params.push(param);
                        }
                    }
                }
                consts::CATCH => {
                    let fault_name = doc.attr(child, consts::ATTR_FAULT_NAME).map(str::to_string);
                    call.handlers.push(FaultHandler { fault_name, action: Self::parse_handler_action(doc, child) });
                }
                consts::CATCH_ALL => {
                    call.handlers
                        .push(FaultHandler { fault_name: None, action: Self::parse_handler_action(doc, child) });
                }
                _ => {}
            }
        }
        Some(call)
    }

    fn parse_param(doc: &Document, node: NodeId) -> Option<Param> {
        let name = doc.name(node).ok()?;
        if !name.is(Some(consts::AXML_PREFIX), consts::PARAM) {
            return None;
        }
        let pname = doc.attr(node, consts::ATTR_NAME).unwrap_or_default().to_string();
        // Value forms: a nested sc, an axml:value literal, or raw XML.
        let children = doc.children(node).ok()?;
        for c in children.clone() {
            if let Ok(cname) = doc.name(c) {
                if consts::is_sc(cname.prefix.as_deref(), &cname.local) {
                    let nested = ServiceCall::parse(doc, c)?;
                    return Some(Param { name: pname, value: ParamValue::Call(Box::new(nested)) });
                }
                if cname.is(Some(consts::AXML_PREFIX), consts::VALUE) {
                    let text = doc.text_content(c).ok()?.trim().to_string();
                    if let Some(ext) = parse_external(&text) {
                        return Some(Param { name: pname, value: ParamValue::External(ext) });
                    }
                    return Some(Param { name: pname, value: ParamValue::Literal(text) });
                }
            }
        }
        // Raw XML value.
        let frags = doc.extract_fragments(&children.collect::<Vec<_>>());
        Some(Param { name: pname, value: ParamValue::Xml(frags) })
    }

    fn parse_handler_action(doc: &Document, handler: NodeId) -> HandlerAction {
        let Ok(children) = doc.children(handler) else { return HandlerAction::Propagate };
        for c in children.clone() {
            if let Ok(cname) = doc.name(c) {
                if cname.is(Some(consts::AXML_PREFIX), consts::RETRY) {
                    let times = doc.attr(c, consts::ATTR_TIMES).and_then(|t| t.parse().ok()).unwrap_or(1);
                    let wait = doc.attr(c, consts::ATTR_WAIT).and_then(|w| w.parse().ok()).unwrap_or(0);
                    let alternative = doc
                        .children(c)
                        .ok()
                        .and_then(|mut cs| {
                            cs.find(|n| {
                                doc.name(*n).map(|q| consts::is_sc(q.prefix.as_deref(), &q.local)).unwrap_or(false)
                            })
                        })
                        .and_then(|sc| ServiceCall::parse(doc, sc))
                        .map(Box::new);
                    return HandlerAction::Retry { times, wait, alternative };
                }
            }
        }
        // Non-retry handler bodies substitute their content as the result.
        let body: Vec<NodeId> = children.filter(|c| !matches!(doc.kind(*c), Ok(FragmentKind::Comment(_)))).collect();
        let frags = doc.extract_fragments(&body);
        if frags.is_empty() {
            HandlerAction::Propagate
        } else {
            HandlerAction::Substitute(frags)
        }
    }

    /// Scans `doc` for all embedded service calls, in document order.
    /// Calls nested inside parameters are *not* listed (they materialize
    /// as part of their parent call).
    ///
    /// The candidates come from the document's by-name lookup, not from
    /// a walk: an `axml:sc` element is a top-level call iff it is
    /// attached and no control child of a call (`axml:params`, a fault
    /// handler) stands above it. Results inside a call can contain
    /// further calls — top-level in their own right — so a call above a
    /// candidate vetoes nothing by itself.
    pub fn scan(doc: &Document) -> Vec<ServiceCall> {
        let named_sc = doc.elements_named(&QName::prefixed(consts::AXML_PREFIX, consts::SC));
        let top_level = named_sc.iter().copied().filter(|sc| !under_control_child(doc, *sc, None));
        doc.attached_below(doc.root(), top_level).into_iter().filter_map(|sc| ServiceCall::parse(doc, sc)).collect()
    }

    /// The result children of this call's element: everything that is not
    /// an `axml:` control child. These are "the previous invocation
    /// results".
    pub fn result_children(&self, doc: &Document) -> Vec<NodeId> {
        self.result_nodes(doc).collect()
    }

    /// [`Self::result_children`], visited in place.
    pub fn result_nodes<'d>(&self, doc: &'d Document) -> impl Iterator<Item = NodeId> + 'd {
        let children = self.node.and_then(|node| doc.children(node).ok()).unwrap_or_default();
        children
            .filter(|c| !doc.name(*c).map(|q| consts::is_control_child(q.prefix.as_deref(), &q.local)).unwrap_or(false))
    }

    /// Element names of the current result children (relevance hints).
    pub fn result_names(&self, doc: &Document) -> Vec<QName> {
        self.result_nodes(doc).filter_map(|c| doc.name(c).ok().cloned()).collect()
    }

    /// Builds the `axml:sc` fragment form of this call (used when a
    /// service returns *another service call* as its result, and by
    /// generators).
    pub fn to_fragment(&self) -> Fragment {
        let mut sc = Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::SC))
            .with_attr(consts::ATTR_MODE, self.mode.as_str())
            .with_attr(consts::ATTR_SERVICE_NS, self.service_ns.clone())
            .with_attr(consts::ATTR_SERVICE_URL, self.service_url.clone())
            .with_attr(consts::ATTR_METHOD, self.method.clone());
        if !self.params.is_empty() {
            let mut params = Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::PARAMS));
            for p in &self.params {
                let mut pe = Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::PARAM))
                    .with_attr(consts::ATTR_NAME, p.name.clone());
                match &p.value {
                    ParamValue::Literal(v) => {
                        pe = pe.with_child(
                            Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::VALUE)).with_text(v.clone()),
                        );
                    }
                    ParamValue::External(v) => {
                        pe = pe.with_child(
                            Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::VALUE))
                                .with_text(format!("${v} (external value)")),
                        );
                    }
                    ParamValue::Call(c) => {
                        pe = pe.with_child(c.to_fragment());
                    }
                    ParamValue::Xml(frags) => {
                        for f in frags {
                            pe = pe.with_child(f.clone());
                        }
                    }
                }
                params = params.with_child(pe);
            }
            sc = sc.with_child(params);
        }
        for h in &self.handlers {
            let name = match &h.fault_name {
                Some(_) => consts::CATCH,
                None => consts::CATCH_ALL,
            };
            let mut he = Fragment::elem(QName::prefixed(consts::AXML_PREFIX, name));
            if let Some(fname) = &h.fault_name {
                he = he.with_attr(consts::ATTR_FAULT_NAME, fname.clone());
            }
            match &h.action {
                HandlerAction::Retry { times, wait, alternative } => {
                    let mut re = Fragment::elem(QName::prefixed(consts::AXML_PREFIX, consts::RETRY))
                        .with_attr(consts::ATTR_TIMES, times.to_string())
                        .with_attr(consts::ATTR_WAIT, wait.to_string());
                    if let Some(alt) = alternative {
                        re = re.with_child(alt.to_fragment());
                    }
                    he = he.with_child(re);
                }
                HandlerAction::Substitute(frags) => {
                    for f in frags {
                        he = he.with_child(f.clone());
                    }
                }
                HandlerAction::Propagate => {}
            }
            sc = sc.with_child(he);
        }
        sc
    }

    /// Builds a call programmatically.
    pub fn build(service_url: impl Into<NameId>, method: impl Into<NameId>, mode: ScMode) -> ServiceCall {
        let method = method.into();
        ServiceCall {
            node: None,
            mode,
            service_ns: method.clone(),
            service_url: service_url.into(),
            method,
            params: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Builder: adds a literal parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> ServiceCall {
        self.params.push(Param { name: name.into(), value: ParamValue::Literal(value.into()) });
        self
    }

    /// Builder: adds a fault handler.
    pub fn with_handler(mut self, handler: FaultHandler) -> ServiceCall {
        self.handlers.push(handler);
        self
    }

    /// Finds the first handler matching a fault name.
    pub fn handler_for(&self, fault_name: &str) -> Option<&FaultHandler> {
        self.handlers.iter().find(|h| h.matches(fault_name))
    }
}

/// True if a control child of a call (`axml:params`, a fault handler)
/// stands between `node` and `top` — or, without a `top`, anywhere above
/// `node`: what lies below such a child is the call's own business, not
/// content. The children of `top` itself do not count; a walk that starts
/// from a call takes all of them.
pub(crate) fn under_control_child(doc: &Document, node: NodeId, top: Option<NodeId>) -> bool {
    let is = |n: NodeId, test: fn(Option<&str>, &str) -> bool| {
        doc.name(n).is_ok_and(|q| test(q.prefix.as_deref(), &q.local))
    };
    let mut below = node;
    doc.ancestors(node).take_while(|above| Some(*above) != top).any(|above| {
        let control_edge = is(above, consts::is_sc) && is(below, consts::is_control_child);
        below = above;
        control_edge
    })
}

/// Recognizes the paper's `$year (external value)` convention.
fn parse_external(text: &str) -> Option<String> {
    let rest = text.strip_prefix('$')?;
    let (name, tail) = rest.split_once(|c: char| c.is_ascii_whitespace()).unwrap_or((rest, ""));
    if tail.trim() == "(external value)" || tail.is_empty() {
        Some(name.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::Document;

    const ATP: &str = r#"<ATPList date="18042005">
        <player rank="1">
            <name><firstname>Roger</firstname><lastname>Federer</lastname></name>
            <citizenship>Swiss</citizenship>
            <axml:sc mode="replace" serviceNameSpace="getPoints" serviceURL="peer://ap2" methodName="getPoints">
                <axml:params>
                    <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
                </axml:params>
                <points>475</points>
            </axml:sc>
            <axml:sc mode="merge" serviceNameSpace="getGrandSlamsWonbyYear" serviceURL="peer://ap3" methodName="getGrandSlamsWonbyYear">
                <axml:params>
                    <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
                    <axml:param name="year"><axml:value>$year (external value)</axml:value></axml:param>
                </axml:params>
                <grandslamswon year="2003">A, W</grandslamswon>
                <grandslamswon year="2004">A, U</grandslamswon>
            </axml:sc>
        </player>
    </ATPList>"#;

    #[test]
    fn parses_paper_document() {
        let doc = Document::parse(ATP).unwrap();
        let calls = ServiceCall::scan(&doc);
        assert_eq!(calls.len(), 2);

        let points = &calls[0];
        assert_eq!(points.method, "getPoints");
        assert_eq!(points.mode, ScMode::Replace);
        assert_eq!(points.service_url, "peer://ap2");
        assert_eq!(points.params.len(), 1);
        assert_eq!(points.params[0].name, "name");
        assert_eq!(points.params[0].value, ParamValue::Literal("Roger Federer".into()));
        assert_eq!(points.result_names(&doc).iter().map(|q| q.local.as_str()).collect::<Vec<_>>(), vec!["points"]);

        let slams = &calls[1];
        assert_eq!(slams.mode, ScMode::Merge);
        assert_eq!(slams.params.len(), 2);
        assert_eq!(slams.params[1].value, ParamValue::External("year".into()));
        assert_eq!(slams.result_children(&doc).len(), 2);
    }

    #[test]
    fn scan_order_is_document_order() {
        let doc = Document::parse(ATP).unwrap();
        let calls = ServiceCall::scan(&doc);
        assert_eq!(calls[0].method, "getPoints");
        assert_eq!(calls[1].method, "getGrandSlamsWonbyYear");
    }

    #[test]
    fn fault_handlers_parse() {
        let src = r#"<r>
            <axml:sc methodName="getGrandSlamsWon" serviceURL="peer://ap2" serviceNameSpace="g">
                <axml:params>
                    <axml:param name="name"><axml:value>Rafael Nadal</axml:value></axml:param>
                </axml:params>
                <axml:catch faultName="A"><axml:retry times="3" wait="10"/></axml:catch>
                <axml:catch faultName="B"><fallback>none</fallback></axml:catch>
                <axml:catchAll/>
            </axml:sc>
        </r>"#;
        let doc = Document::parse(src).unwrap();
        let call = &ServiceCall::scan(&doc)[0];
        assert_eq!(call.handlers.len(), 3);
        assert_eq!(
            call.handlers[0],
            FaultHandler {
                fault_name: Some("A".into()),
                action: HandlerAction::Retry { times: 3, wait: 10, alternative: None }
            }
        );
        assert!(matches!(&call.handlers[1].action, HandlerAction::Substitute(f) if f.len() == 1));
        assert_eq!(call.handlers[2], FaultHandler { fault_name: None, action: HandlerAction::Propagate });
        // Matching: named first, then catchAll.
        assert_eq!(call.handler_for("A").unwrap().fault_name.as_deref(), Some("A"));
        assert_eq!(call.handler_for("B").unwrap().fault_name.as_deref(), Some("B"));
        assert!(call.handler_for("C").unwrap().fault_name.is_none());
    }

    #[test]
    fn retry_with_replica_alternative() {
        let src = r#"<r>
            <axml:sc methodName="m" serviceURL="peer://ap2" serviceNameSpace="m">
                <axml:catchAll>
                    <axml:retry times="2" wait="5">
                        <axml:sc methodName="m" serviceURL="peer://replica" serviceNameSpace="m"/>
                    </axml:retry>
                </axml:catchAll>
            </axml:sc>
        </r>"#;
        let doc = Document::parse(src).unwrap();
        let call = &ServiceCall::scan(&doc)[0];
        let HandlerAction::Retry { times, wait, alternative } = &call.handlers[0].action else { panic!() };
        assert_eq!((*times, *wait), (2, 5));
        assert_eq!(alternative.as_ref().unwrap().service_url, "peer://replica");
    }

    #[test]
    fn nested_param_call() {
        let src = r#"<r>
            <axml:sc methodName="outer" serviceURL="peer://a" serviceNameSpace="o">
                <axml:params>
                    <axml:param name="in">
                        <axml:sc methodName="inner" serviceURL="peer://b" serviceNameSpace="i"/>
                    </axml:param>
                </axml:params>
            </axml:sc>
        </r>"#;
        let doc = Document::parse(src).unwrap();
        let calls = ServiceCall::scan(&doc);
        assert_eq!(calls.len(), 1, "param-nested calls are not top-level");
        let ParamValue::Call(inner) = &calls[0].params[0].value else { panic!() };
        assert_eq!(inner.method, "inner");
    }

    #[test]
    fn sc_inside_results_is_scanned() {
        // A previous invocation returned another service call.
        let src = r#"<r>
            <axml:sc methodName="outer" serviceURL="peer://a" serviceNameSpace="o">
                <axml:sc methodName="returned" serviceURL="peer://b" serviceNameSpace="r"/>
            </axml:sc>
        </r>"#;
        let doc = Document::parse(src).unwrap();
        let calls = ServiceCall::scan(&doc);
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].method, "outer");
        assert_eq!(calls[1].method, "returned");
    }

    #[test]
    fn to_fragment_roundtrip() {
        let call = ServiceCall::build("peer://ap2", "getPoints", ScMode::Replace)
            .with_param("name", "Roger Federer")
            .with_handler(FaultHandler {
                fault_name: Some("A".into()),
                action: HandlerAction::Retry { times: 3, wait: 10, alternative: None },
            });
        let frag = call.to_fragment();
        let mut doc = Document::new("r");
        let root = doc.root();
        let node = doc.append_fragment(root, &frag).unwrap();
        let parsed = ServiceCall::parse(&doc, node).unwrap();
        assert_eq!(parsed.method, call.method);
        assert_eq!(parsed.mode, call.mode);
        assert_eq!(parsed.params, call.params);
        assert_eq!(parsed.handlers, call.handlers);
    }

    #[test]
    fn external_param_roundtrip() {
        let mut call = ServiceCall::build("peer://x", "m", ScMode::Merge);
        call.params.push(Param { name: "year".into(), value: ParamValue::External("year".into()) });
        let frag = call.to_fragment();
        let mut doc = Document::new("r");
        let root = doc.root();
        let node = doc.append_fragment(root, &frag).unwrap();
        let parsed = ServiceCall::parse(&doc, node).unwrap();
        assert_eq!(parsed.params[0].value, ParamValue::External("year".into()));
    }

    #[test]
    fn non_sc_node_yields_none() {
        let doc = Document::parse("<r><a/></r>").unwrap();
        let a = doc.first_child_element(doc.root(), "a").unwrap();
        assert!(ServiceCall::parse(&doc, a).is_none());
    }

    #[test]
    fn mode_parse_defaults() {
        assert_eq!(ScMode::parse(None), ScMode::Replace);
        assert_eq!(ScMode::parse(Some("merge")), ScMode::Merge);
        assert_eq!(ScMode::parse(Some("replace")), ScMode::Replace);
        assert_eq!(ScMode::parse(Some("bogus")), ScMode::Replace);
    }
}
