//! Service faults.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fault raised while processing a service invocation.
///
/// Faults carry a *name* that fault handlers match on (`axml:catch
/// faultName="A"`), mirroring BPEL4WS fault handling as §3.2 prescribes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Handler-matchable fault name (e.g. `ServiceUnavailable`).
    pub name: String,
    /// Human-readable detail.
    pub message: String,
}

impl Fault {
    /// A peer cannot be reached.
    pub const PEER_UNREACHABLE: &'static str = "PeerUnreachable";
    /// A service name does not resolve.
    pub const NO_SUCH_SERVICE: &'static str = "NoSuchService";
    /// A service's own processing failed.
    pub const EXECUTION: &'static str = "ExecutionFault";
    /// A workload injected the fault to exercise recovery.
    pub const INJECTED: &'static str = "InjectedFault";
    /// The transaction was decided at the provider before the work ran.
    pub const TXN_RESOLVED: &'static str = "TxnResolved";
    /// The provider's journal refused an append.
    pub const STORAGE: &'static str = "StorageFault";
    /// A call's external parameter has no value.
    pub const MISSING_EXTERNAL: &'static str = "MissingExternal";

    /// Every fault name some component of the stack raises, each through
    /// its constructor below: an `axml:catch` for any other name can never
    /// fire.
    pub const RAISABLE: &'static [&'static str] = &[
        Fault::PEER_UNREACHABLE,
        Fault::NO_SUCH_SERVICE,
        Fault::EXECUTION,
        Fault::INJECTED,
        Fault::TXN_RESOLVED,
        Fault::STORAGE,
        Fault::MISSING_EXTERNAL,
    ];

    /// Builds a fault.
    pub fn new(name: impl Into<String>, message: impl Into<String>) -> Fault {
        Fault { name: name.into(), message: message.into() }
    }

    /// The fault used when a peer cannot be reached.
    pub fn peer_unreachable(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::PEER_UNREACHABLE, detail)
    }

    /// The fault used when a service name does not resolve.
    pub fn no_such_service(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::NO_SUCH_SERVICE, detail)
    }

    /// The fault used when a service's own processing fails.
    pub fn execution(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::EXECUTION, detail)
    }

    /// The fault injected by workloads to exercise recovery.
    pub fn injected(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::INJECTED, detail)
    }

    /// The fault a provider answers with when the transaction is already
    /// decided there.
    pub fn txn_resolved(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::TXN_RESOLVED, detail)
    }

    /// The fault a provider answers with when its journal refuses an
    /// append.
    pub fn storage(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::STORAGE, detail)
    }

    /// The fault raised when a call's external parameter has no value.
    pub fn missing_external(detail: impl Into<String>) -> Fault {
        Fault::new(Fault::MISSING_EXTERNAL, detail)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault {}: {}", self.name, self.message)
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        assert_eq!(Fault::peer_unreachable("ap5").name, "PeerUnreachable");
        assert_eq!(Fault::no_such_service("x").name, "NoSuchService");
        assert_eq!(Fault::execution("y").name, "ExecutionFault");
        assert_eq!(Fault::injected("z").name, "InjectedFault");
        assert_eq!(Fault::txn_resolved("r").name, "TxnResolved");
        assert_eq!(Fault::storage("s").name, "StorageFault");
        assert_eq!(Fault::missing_external("m").name, "MissingExternal");
        let f = Fault::new("A", "boom");
        assert!(f.to_string().contains("fault A"));
        assert!(f.to_string().contains("boom"));
    }
}
