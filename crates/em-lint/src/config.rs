//! Lint configuration: which workspace paths each rule bites on.
//!
//! The rule catalog is generic; the *scopes* are this workspace's
//! hard-won contracts (see README § Static analysis):
//!
//! - panic-freedom guards the paths PR 7 made panic-free (`serve/`,
//!   `session/`, `em-core::codec`);
//! - the determinism rules guard every module whose output lands in a
//!   `RunReport`/`GridReport` or in snapshot bytes (PR 3/5/8 promise
//!   bit-identical results across thread counts and checkpoints);
//! - the env allowlist names the sanctioned config-read sites
//!   (`EM_SIMD_TIER`, bench knobs).

/// Path scopes and allowlists consumed by the rules. All entries are
/// workspace-relative prefixes with forward slashes; a file is in
/// scope when its path starts with any entry.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// `no-panic` applies to library code under these prefixes.
    pub panic_scopes: Vec<String>,
    /// `map-iter` and `wall-clock` apply to library code under these
    /// prefixes (modules feeding reports or snapshot bytes).
    pub determinism_scopes: Vec<String>,
    /// `env-read` is waived under these prefixes (sanctioned config
    /// reads; bench/CLI/example targets are waived by file kind).
    pub env_allowlist: Vec<String>,
}

impl LintConfig {
    /// The scopes for this workspace.
    pub fn workspace_default() -> Self {
        LintConfig {
            panic_scopes: vec![
                "crates/battleship/src/serve/".into(),
                "crates/battleship/src/session/".into(),
                "crates/em-core/src/codec.rs".into(),
            ],
            determinism_scopes: vec![
                // Report producers and aggregators.
                "crates/battleship/src/report.rs".into(),
                "crates/battleship/src/engine/".into(),
                "crates/battleship/src/runner.rs".into(),
                "crates/battleship/src/baselines.rs".into(),
                // Session state feeds both reports and snapshot bytes.
                "crates/battleship/src/session/".into(),
                "crates/battleship/src/serve/".into(),
                // Selection order decides which pairs get labeled,
                // which decides every downstream report number.
                "crates/battleship/src/strategies/".into(),
                "crates/battleship/src/selection.rs".into(),
                "crates/battleship/src/blocking.rs".into(),
                "crates/battleship/src/weak.rs".into(),
            ],
            env_allowlist: vec![
                // Runtime ISA dispatch override (EM_SIMD_TIER).
                "crates/em-vector/src/kernel.rs".into(),
                // Bench harness knobs (EM_BENCH_*).
                "crates/em-bench/".into(),
            ],
        }
    }

    /// Is `path` inside any of the given prefixes?
    pub fn in_scope(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }
}
