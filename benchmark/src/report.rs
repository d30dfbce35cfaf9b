//! Result files: what `compare` reads and `baseline/` keeps.

use crate::metrics::Metric;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One workload measured once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    /// `run` (untraced, end-to-end metrics) or `trace` (per-layer metrics).
    pub mode: String,
    pub seed: u64,
    pub seconds: f64,
    pub passes: u64,
    pub attempted: u64,
    /// Every output the harness can predict was as predicted.
    pub correct: bool,
    pub failed: u64,
    /// One label per failed operation.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub host: String,
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plain data serializes")
    }

    pub fn from_json(text: &str) -> Result<RunResult, String> {
        serde_json::from_str(text).map_err(|e| format!("not a run result: {e}"))
    }
}

/// What `all` writes: every workload, untraced and traced.
#[derive(Debug, Clone, Deserialize)]
pub struct ResultSet {
    pub seed: u64,
    pub seconds: f64,
    pub runs: Vec<RunResult>,
}

impl ResultSet {
    /// One run per line, so two sets diff run by run.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(RunResult::to_json).collect();
        format!("{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n", self.seed, self.seconds, runs.join(",\n"))
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        serde_json::from_str(text).map_err(|e| format!("not a result set: {e}"))
    }
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}
