//! Lint scope and per-rule allowlists.
//!
//! The defaults in [`Config::workspace`] describe this workspace: which
//! crates are linted, which modules may hold atomics, which files are
//! exempt from error-type hygiene, and where the metric-name registry and
//! README live. Fixture tests build their own `Config` instead.

/// Scope and allowlists for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names under `crates/` excluded from linting
    /// entirely (the linter itself is a dev tool, not shipped library
    /// code, so it is exempt from its own rules).
    pub exclude_crates: Vec<String>,
    /// Path prefixes (workspace-relative, `/` separators) where atomics
    /// are permitted. Everything here holds documented lock-free state:
    /// κ-sharing, metrics counters, span gating, and the engine's
    /// task-claim counter.
    pub atomics_allowed: Vec<String>,
    /// Files exempt from error-type hygiene. `bond-metrics` is a leaf
    /// crate (its only dependency is the vendored serde shim) and cannot
    /// name `BondError` without inverting the dependency graph; its
    /// `Result<_, String>` constructors are wrapped into `BondError` at
    /// the `bond-core` boundary.
    pub error_hygiene_allow: Vec<String>,
    /// The single module allowed to define dotted metric/stage name
    /// literals.
    pub names_module: Option<String>,
    /// The README whose metric documentation every registered name must
    /// appear in.
    pub readme: Option<String>,
}

impl Config {
    /// The configuration for this workspace.
    pub fn workspace() -> Self {
        Config {
            exclude_crates: vec!["lint".to_string()],
            atomics_allowed: vec![
                "crates/core/src/kappa.rs".to_string(),
                "crates/exec/src/kappa.rs".to_string(),
                "crates/exec/src/engine.rs".to_string(),
                "crates/obs/src/".to_string(),
            ],
            error_hygiene_allow: vec!["crates/metrics/src/metric.rs".to_string()],
            names_module: Some("crates/obs/src/names.rs".to_string()),
            readme: Some("README.md".to_string()),
        }
    }
}
