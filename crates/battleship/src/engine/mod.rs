//! The parallel experiment engine: grid orchestration of
//! dataset × strategy × seed runs.
//!
//! The paper's results are grids, not runs — Table 4 / Figure 5 average
//! every strategy over several seeds on seven datasets. This module
//! turns the single-run protocol driver into that outer loop:
//!
//! * a [`Scenario`] names a reproducible dataset recipe (synthetic
//!   profile or CSV directory),
//! * an [`ArtifactCache`] materializes each scenario once — dataset,
//!   featurizer, pair features — and shares the immutable
//!   [`DatasetArtifacts`] across runs via `Arc`,
//! * [`ExperimentGrid`] expands scenarios × strategies × derived seeds
//!   into independent [`RunSpec`]s (plus optional ZeroER / Full D
//!   baseline cells) and fans them out over the rayon pool in expansion
//!   order — threads claim the next cell as they finish one, so uneven
//!   cells balance without a cost model — each building a fresh `Send`
//!   strategy from its [`StrategySpec`] and driving a
//!   [`MatchSession`](crate::session::MatchSession) that owns it
//!   ([`worker`]),
//! * results are reassembled in the grid's fixed expansion order into a
//!   [`GridReport`] whose non-timing content is **bit-identical for any
//!   worker-thread count** (each run is a pure function of its spec, and
//!   the inner kernels are themselves thread-count-invariant — the
//!   golden tests below pin both properties).
//!
//! The single-run entry point
//! [`run_active_learning`](crate::runner::run_active_learning) drives
//! the same session over a caller-managed strategy, so a grid cell is
//! bit-identical (modulo wall-clock) to a single run with its seed.

pub mod artifacts;
pub mod scenario;
pub mod spec;
pub mod worker;

pub use artifacts::{ArtifactCache, DatasetArtifacts};
pub use scenario::{CandidatePool, Scenario, ScenarioSource};
pub use spec::{CellKind, RunSpec};

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use em_core::{EmError, Result};

use crate::config::GridConfig;
use crate::report::{GridCell, GridReport, RunReport};
use crate::strategies::StrategySpec;

/// A full experiment grid: which datasets, which strategies, and the
/// shared configuration every cell runs under.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    /// Datasets, in reporting order.
    pub scenarios: Vec<Scenario>,
    /// Active-learning strategies, in reporting order.
    pub strategies: Vec<StrategySpec>,
    /// Grid-level configuration (per-run config, master seed, seeds per
    /// cell, baselines).
    pub config: GridConfig,
}

impl ExperimentGrid {
    /// Build a grid.
    pub fn new(
        scenarios: Vec<Scenario>,
        strategies: Vec<StrategySpec>,
        config: GridConfig,
    ) -> Self {
        ExperimentGrid {
            scenarios,
            strategies,
            config,
        }
    }

    /// Validate grid shape and configuration.
    pub fn validate(&self) -> Result<()> {
        if self.scenarios.is_empty() {
            return Err(EmError::InvalidConfig("grid needs ≥ 1 scenario".into()));
        }
        for (i, s) in self.scenarios.iter().enumerate() {
            if self.scenarios[..i].iter().any(|t| t.name() == s.name()) {
                return Err(EmError::InvalidConfig(format!(
                    "duplicate scenario name `{}`",
                    s.name()
                )));
            }
        }
        if self.strategies.is_empty() && !self.config.include_baselines {
            return Err(EmError::InvalidConfig(
                "grid needs ≥ 1 strategy (or baselines enabled)".into(),
            ));
        }
        for (i, s) in self.strategies.iter().enumerate() {
            if self.strategies[..i].contains(s) {
                return Err(EmError::InvalidConfig(format!(
                    "duplicate strategy `{}` (would merge into one cell)",
                    s.name()
                )));
            }
        }
        self.config.validate()
    }

    /// The grid's spec list in fixed expansion order.
    pub fn expand(&self) -> Vec<RunSpec> {
        let names: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        spec::expand(&names, &self.strategies, &self.config)
    }

    /// Run the whole grid with a private artifact cache.
    pub fn run(&self) -> Result<GridReport> {
        self.run_with_cache(&ArtifactCache::new())
    }

    /// Run the whole grid, reusing (and populating) `cache` for dataset
    /// artifacts — the entry point for sweeps that re-run the same
    /// scenarios under different configurations.
    ///
    /// Every run is a pure function of its spec and results are
    /// reassembled in expansion order, so the canonical [`GridReport`]
    /// is bit-identical across thread counts (pinned by the golden tests
    /// below). When several cells fail, the error of the earliest
    /// expansion slot is reported.
    pub fn run_with_cache(&self, cache: &ArtifactCache) -> Result<GridReport> {
        self.validate()?;
        // em-lint: allow(wall-clock) -- fills GridReport.wall_secs; canonical() zeroes it
        let t0 = Instant::now();

        // Phase 1: materialize every scenario's shared artifacts, in
        // parallel (order-preserving, so error precedence is fixed).
        let materialized: Vec<Result<Arc<DatasetArtifacts>>> = self
            .scenarios
            .par_iter()
            .map(|s| cache.get_or_materialize(s))
            .collect();
        let mut artifacts: BTreeMap<String, Arc<DatasetArtifacts>> = BTreeMap::new();
        for (scenario, result) in self.scenarios.iter().zip(materialized) {
            artifacts.insert(scenario.name().to_string(), result?);
        }

        // Phase 2: fan independent runs out over the pool.
        let specs = self.expand();
        let outcomes: Vec<Result<(RunReport, f64)>> = specs
            .par_iter()
            .map(|s| {
                let art = artifacts
                    .get(s.scenario.as_str())
                    .expect("scenario materialized in phase 1");
                worker::execute_spec(s, art, &self.config.experiment)
            })
            .collect();
        let results = outcomes.into_iter().collect::<Result<Vec<_>>>()?;

        // Phase 3: aggregate consecutive same-cell specs, in expansion
        // order — the fixed merge that makes the report deterministic.
        let mut cells = Vec::new();
        let mut runs = Vec::new();
        let mut i = 0;
        while i < specs.len() {
            let mut j = i + 1;
            while j < specs.len()
                && specs[j].scenario == specs[i].scenario
                && specs[j].kind == specs[i].kind
            {
                j += 1;
            }
            let cell_runs: Vec<RunReport> = results[i..j].iter().map(|r| r.0.clone()).collect();
            let secs: Vec<f64> = results[i..j].iter().map(|r| r.1).collect();
            cells.push(GridCell::from_runs(&cell_runs, &secs)?);
            runs.extend(cell_runs);
            i = j;
        }

        Ok(GridReport {
            master_seed: self.config.master_seed,
            threads: if rayon::in_serial_mode() {
                1
            } else {
                rayon::current_num_threads()
            },
            wall_secs: t0.elapsed().as_secs_f64(),
            cells,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::runner::run_active_learning;
    use em_core::PerfectOracle;
    use em_synth::DatasetProfile;

    fn quick_experiment() -> ExperimentConfig {
        let mut c = ExperimentConfig::default();
        c.al.budget = 20;
        c.al.iterations = 2;
        c.al.seed_size = 20;
        c.al.weak_budget = 20;
        c.matcher.epochs = 6;
        c.battleship.kselect_sample = 128;
        c
    }

    fn quick_grid(
        strategies: Vec<StrategySpec>,
        n_seeds: usize,
        baselines: bool,
    ) -> ExperimentGrid {
        ExperimentGrid::new(
            vec![Scenario::synthetic_scaled(
                DatasetProfile::amazon_google(),
                0.04,
                5,
            )],
            strategies,
            GridConfig {
                experiment: quick_experiment(),
                master_seed: 0xA5EED,
                n_seeds,
                include_baselines: baselines,
            },
        )
    }

    /// Zero a report's wall-clock fields (the only legitimately
    /// run-dependent content).
    fn strip(mut r: RunReport) -> RunReport {
        for it in &mut r.iterations {
            it.train_secs = 0.0;
            it.select_secs = 0.0;
        }
        r
    }

    #[test]
    fn grid_shape_cells_and_json() {
        let grid = quick_grid(vec![StrategySpec::Random, StrategySpec::Dal], 2, true);
        let report = grid.run().unwrap();
        let names: Vec<&str> = report.cells.iter().map(|c| c.strategy()).collect();
        assert_eq!(names, vec!["random", "dal", "zeroer", "full-d"]);
        assert_eq!(report.runs.len(), 2 + 2 + 1 + 1);
        assert!(report
            .cells
            .iter()
            .all(|c| c.dataset() == "amazon-google@0.04"));
        let cell = report.cell("amazon-google@0.04", "random").unwrap();
        assert_eq!(cell.aggregate.seeds, grid.config.run_seeds());
        assert_eq!(cell.aggregate.mean_curve.len(), 3); // seed + 2 iterations
                                                        // Baselines are one-point curves at 0 / full-train labels.
        let zero = report.cell("amazon-google@0.04", "zeroer").unwrap();
        assert_eq!(zero.aggregate.mean_curve[0].0, 0.0);
        let full = report.cell("amazon-google@0.04", "full-d").unwrap();
        assert!(full.aggregate.mean_curve[0].0 > 0.0);
        assert!(report.wall_secs > 0.0);
        // The JSON artifact round-trips.
        let back: GridReport = serde_json::from_str(&report.to_json().unwrap()).unwrap();
        assert_eq!(back.canonical(), report.canonical());
    }

    /// Golden: every active cell's runs are identical to the legacy
    /// single-run `run_active_learning` path with the same seed.
    #[test]
    fn grid_cells_match_legacy_single_runs() {
        let grid = quick_grid(
            vec![StrategySpec::Battleship, StrategySpec::Random],
            2,
            false,
        );
        let report = grid.run().unwrap();
        let art = grid.scenarios[0].materialize().unwrap();
        for run in &report.runs {
            let spec = StrategySpec::all()
                .into_iter()
                .find(|s| s.name() == run.strategy)
                .unwrap();
            let oracle = PerfectOracle::new();
            let legacy = run_active_learning(
                &art.dataset,
                &art.features,
                spec.build().as_mut(),
                &oracle,
                &grid.config.experiment,
                run.seed,
            )
            .unwrap();
            assert_eq!(
                strip(run.clone()),
                strip(legacy),
                "engine diverged from legacy for ({}, seed {})",
                run.strategy,
                run.seed
            );
        }
    }

    /// Golden: the canonical grid report is bit-identical between the
    /// forced-serial scheduler and the default (threaded) scheduler.
    #[test]
    fn grid_report_is_thread_count_invariant() {
        let grid = quick_grid(vec![StrategySpec::Random, StrategySpec::Dal], 2, true);
        let cache = ArtifactCache::new();
        let parallel = grid.run_with_cache(&cache).unwrap();
        let serial = rayon::serial_scope(|| grid.run_with_cache(&cache)).unwrap();
        assert_eq!(
            parallel.canonical().to_json().unwrap(),
            serial.canonical().to_json().unwrap()
        );
    }

    #[test]
    fn artifact_cache_is_shared_across_grid_runs() {
        let grid = quick_grid(vec![StrategySpec::Random], 1, false);
        let cache = ArtifactCache::new();
        grid.run_with_cache(&cache).unwrap();
        assert_eq!(cache.len(), 1);
        grid.run_with_cache(&cache).unwrap();
        assert_eq!(cache.len(), 1, "second run must reuse the artifacts");
    }

    #[test]
    fn grid_validation_errors() {
        // No scenarios.
        let empty = ExperimentGrid::new(vec![], vec![StrategySpec::Random], GridConfig::default());
        assert!(empty.run().is_err());
        // Duplicate scenario names.
        let dup = ExperimentGrid::new(
            vec![
                Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5),
                Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 6),
            ],
            vec![StrategySpec::Random],
            GridConfig::default(),
        );
        assert!(dup.validate().is_err());
        // No strategies and no baselines.
        let none = quick_grid(vec![], 1, false);
        assert!(none.validate().is_err());
        // Duplicate strategies would silently merge into one cell.
        let dup_strat = quick_grid(vec![StrategySpec::Random, StrategySpec::Random], 1, false);
        assert!(dup_strat.validate().is_err());
        // …but baselines alone are a valid grid.
        let baselines_only = quick_grid(vec![], 1, true);
        baselines_only.validate().unwrap();
    }
}
