//! AXML service definitions and the per-peer service registry.
//!
//! "AXML Services: Web services defined as queries/updates over AXML
//! documents. Note that AXML services are also exposed as a regular Web
//! service (with a WSDL description file)." We model both flavors plus
//! simulated *generic* Web services (arbitrary deterministic functions),
//! which stand in for the long-running external services the paper's
//! transactions may embed.

use crate::fault::Fault;
use crate::materialize::ServiceResponse;
use crate::repo::Repository;
use crate::view::TransparentView;
use axml_query::{SelectQuery, UpdateAction};
use axml_xml::Fragment;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Signature of a simulated generic Web service.
pub type ServiceFn = Arc<dyn Fn(&[(String, String)]) -> Result<Vec<Fragment>, Fault> + Send + Sync>;

/// What a service does when invoked.
#[derive(Clone)]
pub enum ServiceKind {
    /// A declared query over a hosted document (evaluated transparently).
    Query {
        /// Name of the hosted document.
        doc: String,
        /// The query; `$param` placeholders in literals are substituted
        /// from the invocation parameters.
        query: SelectQuery,
    },
    /// A declared update over a hosted document.
    Update {
        /// Name of the hosted document.
        doc: String,
        /// The action; `$param` placeholders are substituted.
        action: UpdateAction,
    },
    /// A simulated generic Web service.
    Function(ServiceFn),
}

impl fmt::Debug for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceKind::Query { doc, query } => write!(f, "Query {{ doc: {doc:?}, query: {} }}", query.to_text()),
            ServiceKind::Update { doc, action } => {
                write!(f, "Update {{ doc: {doc:?}, action: {} }}", action.to_action_xml())
            }
            ServiceKind::Function(_) => write!(f, "Function(..)"),
        }
    }
}

/// A service a peer exposes.
#[derive(Debug, Clone)]
pub struct ServiceDef {
    /// Method name (what `axml:sc methodName` refers to).
    pub name: String,
    /// Behavior.
    pub kind: ServiceKind,
    /// Declared result element names — published in the WSDL descriptor
    /// and used by **lazy** relevance analysis on the client side.
    pub result_names: Vec<String>,
    /// Simulated processing duration (time units). Generic Web services
    /// "can be very long (in hours)" — the simulator honors this.
    pub duration: u64,
    /// Fault-injection hook: when set, invocations raise this fault
    /// instead of executing. Drives the recovery experiments.
    pub injected_fault: Option<Fault>,
}

impl ServiceDef {
    /// A query service.
    pub fn query(name: impl Into<String>, doc: impl Into<String>, query: SelectQuery) -> ServiceDef {
        ServiceDef {
            name: name.into(),
            kind: ServiceKind::Query { doc: doc.into(), query },
            result_names: Vec::new(),
            duration: 1,
            injected_fault: None,
        }
    }

    /// An update service.
    pub fn update(name: impl Into<String>, doc: impl Into<String>, action: UpdateAction) -> ServiceDef {
        ServiceDef {
            name: name.into(),
            kind: ServiceKind::Update { doc: doc.into(), action },
            result_names: Vec::new(),
            duration: 1,
            injected_fault: None,
        }
    }

    /// A simulated generic Web service.
    pub fn function<F>(name: impl Into<String>, f: F) -> ServiceDef
    where
        F: Fn(&[(String, String)]) -> Result<Vec<Fragment>, Fault> + Send + Sync + 'static,
    {
        ServiceDef {
            name: name.into(),
            kind: ServiceKind::Function(Arc::new(f)),
            result_names: Vec::new(),
            duration: 1,
            injected_fault: None,
        }
    }

    /// Builder: declares result element names.
    pub fn with_results(mut self, names: &[&str]) -> ServiceDef {
        self.result_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: sets the simulated duration.
    pub fn with_duration(mut self, duration: u64) -> ServiceDef {
        self.duration = duration;
        self
    }

    /// Executes the service against a repository.
    pub fn execute(&self, params: &[(String, String)], repo: &mut Repository) -> Result<ServiceResponse, Fault> {
        if let Some(f) = &self.injected_fault {
            return Err(f.clone());
        }
        match &self.kind {
            ServiceKind::Query { doc, query } => {
                let query = substitute_query(query, params)?;
                let document = repo.get(doc).ok_or_else(|| {
                    Fault::execution(format!("service {} references missing document {doc}", self.name))
                })?;
                let hits = TransparentView::eval(document, &query)
                    .map_err(|e| Fault::execution(format!("query failed: {e}")))?;
                let items = document.extract_fragments(&hits);
                Ok(ServiceResponse { items, effects: Vec::new() })
            }
            ServiceKind::Update { doc, action } => {
                let action = substitute_action(action, params)?;
                let document = repo.get_mut(doc).ok_or_else(|| {
                    Fault::execution(format!("service {} references missing document {doc}", self.name))
                })?;
                let report = crate::view::apply_update_transparent(document, &action)
                    .map_err(|e| Fault::execution(format!("update failed: {e}")))?;
                // Result items: for inserts, the inserted content (whose
                // unique IDs the effects carry); for deletes, nothing.
                let items = report
                    .effects
                    .iter()
                    .filter_map(|e| match e {
                        axml_query::Effect::Inserted { fragment, .. } => Some(fragment.clone()),
                        axml_query::Effect::Deleted { .. } => None,
                    })
                    .collect();
                Ok(ServiceResponse { items, effects: report.effects })
            }
            ServiceKind::Function(f) => {
                let items = f(params)?;
                Ok(ServiceResponse { items, effects: Vec::new() })
            }
        }
    }

    /// Renders a WSDL-like descriptor ("AXML services are also exposed as
    /// a regular Web service (with a WSDL description file)").
    pub fn wsdl(&self) -> String {
        let mut def = Fragment::elem("wsdl:definitions").with_attr("name", self.name.clone());
        let mut op = Fragment::elem("wsdl:operation").with_attr("name", self.name.clone());
        let mut output = Fragment::elem("wsdl:output");
        for r in &self.result_names {
            output = output.with_child(Fragment::elem("xsd:element").with_attr("name", r.clone()));
        }
        op = op.with_child(output);
        def = def.with_child(op);
        def.to_xml()
    }
}

/// Substitutes `$param` placeholders in plain (query) text.
fn substitute_text(text: &str, params: &[(String, String)]) -> String {
    let mut out = text.to_string();
    for (k, v) in params {
        out = out.replace(&format!("${k}"), v);
    }
    out
}

/// Substitutes `$param` placeholders into XML text, escaping the values —
/// a parameter carrying `<`, `&`, or quotes must become character data,
/// never markup (injection safety).
fn substitute_text_xml(text: &str, params: &[(String, String)]) -> String {
    let mut out = text.to_string();
    for (k, v) in params {
        out = out.replace(&format!("${k}"), &axml_xml::escape_attr(v));
    }
    out
}

/// The declared query with `params` substituted in — the declaration
/// itself when there is nothing to substitute.
fn substitute_query<'q>(query: &'q SelectQuery, params: &[(String, String)]) -> Result<Cow<'q, SelectQuery>, Fault> {
    if params.is_empty() {
        return Ok(Cow::Borrowed(query));
    }
    let text = substitute_text(&query.to_text(), params);
    SelectQuery::parse(&text)
        .map(Cow::Owned)
        .map_err(|e| Fault::execution(format!("parameter substitution broke the query: {e}")))
}

/// As [`substitute_query`], for a declared update.
fn substitute_action<'a>(
    action: &'a UpdateAction,
    params: &[(String, String)],
) -> Result<Cow<'a, UpdateAction>, Fault> {
    if params.is_empty() {
        return Ok(Cow::Borrowed(action));
    }
    let xml = substitute_text_xml(&action.to_action_xml(), params);
    UpdateAction::parse_action_xml(&xml)
        .map(Cow::Owned)
        .map_err(|e| Fault::execution(format!("parameter substitution broke the action: {e}")))
}

/// The services one peer exposes, by method name.
#[derive(Debug, Default, Clone)]
pub struct ServiceRegistry {
    services: BTreeMap<String, ServiceDef>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Registers a service (replacing any previous definition).
    pub fn register(&mut self, def: ServiceDef) {
        self.services.insert(def.name.clone(), def);
    }

    /// Looks up a service.
    pub fn get(&self, name: &str) -> Option<&ServiceDef> {
        self.services.get(name)
    }

    /// Mutable lookup (fault injection, duration tweaks).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ServiceDef> {
        self.services.get_mut(name)
    }

    /// Registered method names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.services.keys().map(String::as_str).collect()
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::Locator;

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.put_xml(
            "atp",
            r#"<ATPList>
                <player rank="1"><name><lastname>Federer</lastname></name><citizenship>Swiss</citizenship><points>475</points></player>
                <player rank="2"><name><lastname>Nadal</lastname></name><citizenship>Spanish</citizenship><points>390</points></player>
            </ATPList>"#,
        )
        .unwrap();
        r
    }

    #[test]
    fn query_service_returns_fragments() {
        let mut repo = repo();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player where p/name/lastname = $who").unwrap();
        let svc = ServiceDef::query("getPoints", "atp", q).with_results(&["points"]);
        let resp = svc.execute(&[("who".into(), "Federer".into())], &mut repo).unwrap();
        assert_eq!(resp.items.len(), 1);
        assert_eq!(resp.items[0].to_xml(), "<points>475</points>");
        assert!(resp.effects.is_empty());
    }

    #[test]
    fn update_service_reports_effects() {
        let mut repo = repo();
        let action = UpdateAction::replace(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = $who").unwrap(),
            vec![Fragment::elem_text("citizenship", "$new")],
        );
        let svc = ServiceDef::update("setCitizenship", "atp", action);
        let resp = svc.execute(&[("who".into(), "Nadal".into()), ("new".into(), "USA".into())], &mut repo).unwrap();
        assert_eq!(resp.effects.len(), 2, "delete + insert");
        assert_eq!(resp.items.len(), 1);
        assert_eq!(resp.items[0].text_content(), "USA");
        assert!(repo.get("atp").unwrap().to_xml().contains("USA"));
    }

    #[test]
    fn function_service() {
        let mut repo = Repository::new();
        let svc = ServiceDef::function("add", |params| {
            let a: i64 = params.iter().find(|(k, _)| k == "a").and_then(|(_, v)| v.parse().ok()).unwrap_or(0);
            let b: i64 = params.iter().find(|(k, _)| k == "b").and_then(|(_, v)| v.parse().ok()).unwrap_or(0);
            Ok(vec![Fragment::elem_text("sum", (a + b).to_string())])
        })
        .with_results(&["sum"]);
        let resp = svc.execute(&[("a".into(), "2".into()), ("b".into(), "40".into())], &mut repo).unwrap();
        assert_eq!(resp.items[0].text_content(), "42");
    }

    #[test]
    fn injected_fault_short_circuits() {
        let mut repo = repo();
        let q = SelectQuery::parse("Select p/points from p in ATPList//player").unwrap();
        let mut svc = ServiceDef::query("getPoints", "atp", q);
        svc.injected_fault = Some(Fault::injected("down for maintenance"));
        let err = svc.execute(&[], &mut repo).unwrap_err();
        assert_eq!(err.name, "InjectedFault");
    }

    #[test]
    fn missing_document_faults() {
        let mut repo = Repository::new();
        let q = SelectQuery::parse("Select p from p in r").unwrap();
        let svc = ServiceDef::query("q", "nope", q);
        let err = svc.execute(&[], &mut repo).unwrap_err();
        assert_eq!(err.name, "ExecutionFault");
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        reg.register(ServiceDef::function("a", |_| Ok(vec![])));
        reg.register(ServiceDef::function("b", |_| Ok(vec![])));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(reg.get("c").is_none());
        reg.get_mut("a").unwrap().injected_fault = Some(Fault::injected("x"));
        assert!(reg.get("a").unwrap().injected_fault.is_some());
    }

    #[test]
    fn parameter_values_cannot_inject_markup() {
        // A hostile parameter value becomes character data, not elements.
        let mut repo = repo();
        let action = UpdateAction::replace(
            Locator::parse("Select p/citizenship from p in ATPList//player where p/name/lastname = Nadal;").unwrap(),
            vec![Fragment::elem_text("citizenship", "$new")],
        );
        let svc = ServiceDef::update("setCitizenship", "atp", action);
        let resp = svc.execute(&[("new".into(), "<evil attr=\"x\">&payload;</evil>".into())], &mut repo).unwrap();
        assert_eq!(resp.items.len(), 1);
        let item = &resp.items[0];
        assert_eq!(item.name().unwrap().local, "citizenship");
        assert!(
            item.children().all(|c| matches!(c.kind(), axml_xml::FragmentKind::Text(_))),
            "no injected elements: {item:?}"
        );
        assert!(item.text_content().contains("<evil"), "value preserved as text");
    }

    #[test]
    fn wsdl_descriptor_lists_results() {
        let svc = ServiceDef::function("getPoints", |_| Ok(vec![])).with_results(&["points"]);
        let wsdl = svc.wsdl();
        assert!(wsdl.contains(r#"name="getPoints""#), "{wsdl}");
        assert!(wsdl.contains(r#"xsd:element name="points""#), "{wsdl}");
    }

    #[test]
    fn duration_builder() {
        let svc = ServiceDef::function("slow", |_| Ok(vec![])).with_duration(3600);
        assert_eq!(svc.duration, 3600);
    }
}
