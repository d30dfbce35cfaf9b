//! Empty placeholder, kept so `benchmark/Cargo.lock` keeps resolving
//! unchanged: see this package's `Cargo.toml`. Scenario well-formedness is
//! checked by `axml_core::scenarios::ScenarioBuilder::check`, which every
//! `build()` runs.
