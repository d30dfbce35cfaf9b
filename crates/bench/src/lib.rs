#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: regenerates every figure of the paper and the
//! synthetic evaluation defined in DESIGN.md §5.
//!
//! The paper (a 6-page protocol paper) contains **two figures and no
//! measured tables**; E1 and E2 reproduce Fig. 1 and Fig. 2 as executable
//! scenarios, E3–E8 quantify each qualitative claim the text makes, and
//! E11 is an extension. There is no E9: chaining gossips to parent,
//! children and siblings only, as §3.3 scopes it, so no experiment
//! widens that scope. There is no E10: the system runs one transaction at
//! a time per document, as the paper scopes it, so no experiment races
//! two. Each experiment module exposes a `run(...)` returning row structs
//! plus a table printer; [`render`] drives them for the `experiments`
//! binary and for the test that holds EXPERIMENTS.md's raw tables to its
//! output.
//! Every number is a pure function of the code: times are simulator
//! ticks, never wall clock.

pub mod e11_scale;
pub mod e1_fig1;
pub mod e2_fig2;
pub mod e3_compensation;
pub mod e4_materialization;
pub mod e5_recovery_cost;
pub mod e6_churn;
pub mod e7_peer_independent;
pub mod e8_spheres;
pub mod table;

pub use table::Table;

/// An experiment: its name and the run that formats its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", || e1_fig1::table(&e1_fig1::run())),
    ("e2", || e2_fig2::table(&e2_fig2::run())),
    ("e3", || e3_compensation::table(&e3_compensation::run(10))),
    ("e4", || e4_materialization::table(&e4_materialization::run())),
    ("e5", || e5_recovery_cost::table(&e5_recovery_cost::run())),
    ("e6", || e6_churn::table(&e6_churn::run(20))),
    ("e7", || e7_peer_independent::table(&e7_peer_independent::run(12))),
    ("e8", || e8_spheres::table(&e8_spheres::run(16))),
    ("e11", || e11_scale::table(&e11_scale::run())),
];

/// What `experiments` prints for `names`: each named experiment's table
/// followed by a blank line, in [`EXPERIMENTS`] order whatever the order
/// of `names`.
pub fn render(names: &[&str]) -> String {
    let mut out = String::new();
    for (name, run) in EXPERIMENTS {
        if names.contains(name) {
            out.push_str(&run().render());
            out.push('\n');
        }
    }
    out
}
