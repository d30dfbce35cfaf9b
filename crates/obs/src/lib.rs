//! Observability for the recovery pipeline.
//!
//! Several layers on top of `axml-trace`'s event stream, all
//! deterministic so seeded replays agree byte-for-byte:
//!
//! - [`hist`] — fixed-layout log-bucketed [`Histogram`]s with
//!   replay-stable merges and percentile tables.
//! - [`monitor`] — the online protocol [`Monitor`], an event sink over
//!   the rule engine `axml_trace::rules` (which `axml-spec` conformance
//!   runs too) that checks the paper's runtime invariants (reverse
//!   compensation order, terminal-state finality, at-most-once delivery
//!   processing, abort reachability) as the simulation runs and reports
//!   [`MonitorFinding`]s in journal order.
//! - [`analytics`] — offline journal analytics: latency histogram
//!   derivation and per-transaction critical paths.
//! - [`series`] — the time-series plane: fixed-window gauge series
//!   ([`SeriesRegistry`]) folded from the journal's sample column, with
//!   order-free aggregation across runs.
//! - [`profile`] — the per-transaction phase profiler
//!   ([`ProfileReport`]): invoke/serve/decide/compensate/recover
//!   windows plus critical-path self-time attribution.
//! - [`flight`] — the violation [`flight_dump`]: each peer's last events,
//!   cut from a journal when a chaos run goes wrong.
//! - [`exposition`] — the single Prometheus text renderer/parser all of
//!   the above share.
//!
//! The `axml-obs` binary reads a JSON-lines journal (as written by
//! `axml-chaos trace --journal`) and prints critical paths, a percentile
//! table, and monitor findings; `--prom FILE` writes the Prometheus
//! exposition; `axml-obs profile` prints the phase profiler's view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod exposition;
pub mod flight;
pub mod hist;
pub mod monitor;
pub mod profile;
pub mod series;

pub use analytics::{critical_paths, derive_histograms};
pub use exposition::{
    metric_name, parse_exposition, render_prometheus, render_series_prometheus, render_snapshot_prometheus,
};
pub use flight::{flight_dump, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{bucket_bound, percentile_table, Histogram, HistogramSummary, FINITE_BUCKETS};
pub use monitor::{Monitor, MonitorFinding};
pub use profile::{phase_of, PhaseWindow, ProfileReport, TxnProfile, PHASES};
pub use series::SeriesRegistry;
