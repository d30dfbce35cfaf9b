//! Element and attribute names of the AXML vocabulary.

/// Namespace prefix of AXML control elements.
pub const AXML_PREFIX: &str = "axml";

/// The embedded service-call element, `axml:sc`.
pub const SC: &str = "sc";
/// Parameter list element, `axml:params`.
pub const PARAMS: &str = "params";
/// One parameter, `axml:param`.
pub const PARAM: &str = "param";
/// Literal parameter value, `axml:value`.
pub const VALUE: &str = "value";
/// Named fault handler, `axml:catch`.
pub const CATCH: &str = "catch";
/// Catch-all fault handler, `axml:catchAll`.
pub const CATCH_ALL: &str = "catchAll";
/// Retry construct inside a handler, `axml:retry`.
pub const RETRY: &str = "retry";

/// `mode` attribute (`replace` or `merge`).
pub const ATTR_MODE: &str = "mode";
/// `serviceNameSpace` attribute.
pub const ATTR_SERVICE_NS: &str = "serviceNameSpace";
/// `serviceURL` attribute (a peer address in the simulated fabric).
pub const ATTR_SERVICE_URL: &str = "serviceURL";
/// `methodName` attribute.
pub const ATTR_METHOD: &str = "methodName";
/// `frequency` attribute (periodic invocation interval, in simulated time
/// units).
pub const ATTR_FREQUENCY: &str = "frequency";
/// `name` attribute of `axml:param` and `faultName` of `axml:catch`.
pub const ATTR_NAME: &str = "name";
/// `faultName` attribute of `axml:catch`.
pub const ATTR_FAULT_NAME: &str = "faultName";
/// `times` attribute of `axml:retry`.
pub const ATTR_TIMES: &str = "times";
/// `wait` attribute of `axml:retry`.
pub const ATTR_WAIT: &str = "wait";

/// True if the name is one of the `axml:` control children of an `sc`
/// element (i.e. *not* part of the invocation results).
pub fn is_control_child(prefix: Option<&str>, local: &str) -> bool {
    prefix == Some(AXML_PREFIX) && matches!(local, PARAMS | CATCH | CATCH_ALL | RETRY)
}

/// True if the name is the service-call element itself.
pub fn is_sc(prefix: Option<&str>, local: &str) -> bool {
    prefix == Some(AXML_PREFIX) && local == SC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_child_classification() {
        assert!(is_control_child(Some("axml"), "params"));
        assert!(is_control_child(Some("axml"), "catch"));
        assert!(is_control_child(Some("axml"), "catchAll"));
        assert!(is_control_child(Some("axml"), "retry"));
        assert!(!is_control_child(Some("axml"), "sc"));
        assert!(!is_control_child(None, "params"));
        assert!(!is_control_child(Some("axml"), "value"));
    }

    #[test]
    fn sc_classification() {
        assert!(is_sc(Some("axml"), "sc"));
        assert!(!is_sc(None, "sc"));
        assert!(!is_sc(Some("axml"), "params"));
    }
}
