//! Grid expansion: dataset × strategy × seed into independent run specs.
//!
//! Expansion order is the *reporting* contract: cells appear
//! scenario-major (Table 3 order as given), strategies in the grid's
//! order, baselines after the strategies of their scenario, seeds in
//! derivation order. Specs may finish in any order, but results are
//! always reassembled in expansion order, which is what makes grid
//! reports deterministic under any worker-thread count.

use serde::{Deserialize, Serialize};

use crate::config::GridConfig;
use crate::strategies::StrategySpec;

/// What a grid cell computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// A full active-learning run of one strategy.
    Active(StrategySpec),
    /// The ZeroER extreme: zero labels, GMM over similarity features.
    ZeroEr,
    /// The Full D extreme: the entire training split labeled.
    FullD,
}

impl CellKind {
    /// Display name, matching the strategy column of every report.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Active(s) => s.name(),
            CellKind::ZeroEr => "zeroer",
            CellKind::FullD => "full-d",
        }
    }

    /// Parse a display name back into a kind.
    pub fn from_name(name: &str) -> Option<CellKind> {
        match name {
            "zeroer" => Some(CellKind::ZeroEr),
            "full-d" => Some(CellKind::FullD),
            other => StrategySpec::all()
                .into_iter()
                .find(|s| s.name() == other)
                .map(CellKind::Active),
        }
    }
}

// Manual serde over the display name (the vendored derive doesn't cover
// tuple enum variants; a name string is also the friendlier artifact).
impl Serialize for CellKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl Deserialize for CellKind {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::DeError::custom(format!("expected cell name, got {v:?}")))?;
        CellKind::from_name(name)
            .ok_or_else(|| serde::DeError::custom(format!("unknown cell kind `{name}`")))
    }
}

/// One independent unit of grid work: a single (scenario, cell, seed)
/// run, executable on any worker thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Scenario name (the artifact-cache key).
    pub scenario: String,
    /// What to run.
    pub kind: CellKind,
    /// The run's derived seed (drives every random decision of the run).
    pub seed: u64,
    /// Position of `seed` in the grid's seed stream.
    pub seed_index: usize,
}

/// Expand a grid into its fixed-order spec list.
///
/// Active cells get one spec per derived seed; baseline cells (when
/// enabled) are deterministic given the dataset up to their internal
/// seed, so they run once per scenario with the first derived seed.
pub fn expand(
    scenario_names: &[String],
    strategies: &[StrategySpec],
    config: &GridConfig,
) -> Vec<RunSpec> {
    let seeds = config.run_seeds();
    let mut specs = Vec::new();
    for scenario in scenario_names {
        for &strategy in strategies {
            for (seed_index, &seed) in seeds.iter().enumerate() {
                specs.push(RunSpec {
                    scenario: scenario.clone(),
                    kind: CellKind::Active(strategy),
                    seed,
                    seed_index,
                });
            }
        }
        if config.include_baselines {
            // `validate()` rejects n_seeds == 0 before any run; fall back
            // to the master seed here so a bare `expand()` cannot panic.
            let baseline_seed = seeds.first().copied().unwrap_or(config.master_seed);
            for kind in [CellKind::ZeroEr, CellKind::FullD] {
                specs.push(RunSpec {
                    scenario: scenario.clone(),
                    kind,
                    seed: baseline_seed,
                    seed_index: 0,
                });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_config(n_seeds: usize, baselines: bool) -> GridConfig {
        GridConfig {
            n_seeds,
            include_baselines: baselines,
            ..GridConfig::default()
        }
    }

    #[test]
    fn expansion_order_is_scenario_cell_seed() {
        let names = vec!["a".to_string(), "b".to_string()];
        let strategies = [StrategySpec::Battleship, StrategySpec::Random];
        let specs = expand(&names, &strategies, &grid_config(3, false));
        assert_eq!(specs.len(), 2 * 2 * 3);
        // First cell: battleship on `a`, seeds in stream order.
        assert!(specs[..3]
            .iter()
            .all(|s| s.scenario == "a" && s.kind == CellKind::Active(StrategySpec::Battleship)));
        assert_eq!(
            specs[..3].iter().map(|s| s.seed_index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Scenario `b` starts after all of `a`.
        assert!(specs[6..].iter().all(|s| s.scenario == "b"));
        // Seeds are shared across cells: same stream per seed index.
        assert_eq!(specs[0].seed, specs[3].seed);
        assert_eq!(specs[0].seed, specs[6].seed);
    }

    #[test]
    fn baselines_append_one_spec_each_per_scenario() {
        let names = vec!["a".to_string()];
        let specs = expand(&names, &[StrategySpec::Random], &grid_config(2, true));
        assert_eq!(specs.len(), 2 + 2);
        assert_eq!(specs[2].kind, CellKind::ZeroEr);
        assert_eq!(specs[3].kind, CellKind::FullD);
        assert_eq!(specs[2].seed, specs[0].seed);
    }

    #[test]
    fn expand_with_zero_seeds_does_not_panic() {
        // Invalid as a grid (validate() rejects n_seeds == 0), but the
        // pub expansion itself must stay total.
        let names = vec!["a".to_string()];
        let config = grid_config(0, true);
        let specs = expand(&names, &[StrategySpec::Random], &config);
        assert_eq!(specs.len(), 2); // baselines only
        assert!(specs.iter().all(|s| s.seed == config.master_seed));
    }

    #[test]
    fn cell_kind_names() {
        assert_eq!(CellKind::Active(StrategySpec::Dial).name(), "dial");
        assert_eq!(CellKind::ZeroEr.name(), "zeroer");
        assert_eq!(CellKind::FullD.name(), "full-d");
    }
}
