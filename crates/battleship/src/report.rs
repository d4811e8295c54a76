//! Run reports and multi-seed aggregation.
//!
//! Everything the paper's figures and tables read off an experiment:
//! per-iteration F1 (Figure 5), runtime (Figure 6), F1 at fixed label
//! counts (Table 4) and AUC over the F1 curve (Table 5). Reports are
//! `serde`-serializable so the bench harness can persist raw results.

use serde::{Deserialize, Serialize};

use em_core::metrics::{mean, std_dev};
use em_core::{EmError, F1Curve, Result};

/// One active-learning iteration's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index; 0 is the seed-only model.
    pub iteration: usize,
    /// Cumulative oracle labels consumed after this iteration.
    pub labels_used: usize,
    /// Test F1 in percent (the paper's reporting unit).
    pub test_f1_pct: f64,
    /// Test precision.
    pub precision: f64,
    /// Test recall.
    pub recall: f64,
    /// Matcher training wall time (seconds).
    pub train_secs: f64,
    /// Selection wall time (seconds) — the Figure 6 quantity; 0 for the
    /// seed iteration.
    pub select_secs: f64,
    /// Positives among the labels acquired in this iteration (selection
    /// "hit rate" numerator; equals the seed's positive half at
    /// iteration 0).
    pub new_positives: usize,
    /// Total labels acquired in this iteration.
    pub new_labels: usize,
    /// Weak pseudo-labels used to train this iteration's model.
    pub weak_used: usize,
}

/// A complete single-seed run of one strategy on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Dataset name.
    pub dataset: String,
    /// Strategy name.
    pub strategy: String,
    /// Run seed.
    pub seed: u64,
    /// Per-iteration records, seed iteration first.
    pub iterations: Vec<IterationRecord>,
}

impl RunReport {
    /// The run's F1-vs-labels curve (F1 in percent).
    pub fn f1_curve(&self) -> Result<F1Curve> {
        let mut curve = F1Curve::new();
        for it in &self.iterations {
            curve.push(it.labels_used as f64, it.test_f1_pct)?;
        }
        Ok(curve)
    }

    /// Area under the F1 curve (Table 5's measure).
    pub fn auc(&self) -> Result<f64> {
        Ok(self.f1_curve()?.auc())
    }

    /// Final F1 (%) of the run.
    pub fn final_f1(&self) -> Option<f64> {
        self.iterations.last().map(|it| it.test_f1_pct)
    }

    /// Total oracle labels consumed.
    pub fn total_labels(&self) -> usize {
        self.iterations.last().map(|it| it.labels_used).unwrap_or(0)
    }

    /// A copy with the run's wall-clock fields, `train_secs` and
    /// `select_secs`, zeroed. Everything else in a run is a
    /// deterministic function of its inputs, so two canonical runs
    /// compare bit for bit however they were scheduled.
    pub fn canonical(&self) -> RunReport {
        let mut out = self.clone();
        for it in &mut out.iterations {
            it.train_secs = 0.0;
            it.select_secs = 0.0;
        }
        out
    }
}

/// Seed-averaged view of several runs of the same (dataset, strategy)
/// configuration — the unit every figure/table of the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSeedReport {
    /// Dataset name.
    pub dataset: String,
    /// Strategy name.
    pub strategy: String,
    /// Seeds of the aggregated runs.
    pub seeds: Vec<u64>,
    /// Mean F1 (%) per iteration point, with the label counts.
    pub mean_curve: Vec<(f64, f64)>,
    /// Mean AUC across seeds.
    pub mean_auc: f64,
    /// Mean selection seconds per iteration (Figure 6's series).
    pub mean_select_secs: Vec<f64>,
}

/// Per-run AUCs, computed once and shared by mean and std aggregation.
fn run_aucs(runs: &[RunReport]) -> Result<Vec<f64>> {
    runs.iter().map(|r| r.auc()).collect()
}

impl MultiSeedReport {
    /// Aggregate runs; they must agree on dataset, strategy and
    /// iteration structure.
    pub fn aggregate(runs: &[RunReport]) -> Result<Self> {
        Self::aggregate_with_aucs(runs, &run_aucs(runs)?)
    }

    /// [`MultiSeedReport::aggregate`] with the per-run AUCs already
    /// computed (grid aggregation derives mean and std from one pass).
    fn aggregate_with_aucs(runs: &[RunReport], aucs: &[f64]) -> Result<Self> {
        let first = runs
            .first()
            .ok_or_else(|| EmError::EmptyInput("runs to aggregate".into()))?;
        let n_iters = first.iterations.len();
        for r in runs {
            if r.dataset != first.dataset
                || r.strategy != first.strategy
                || r.iterations.len() != n_iters
            {
                return Err(EmError::InvalidConfig(format!(
                    "incompatible runs: ({}, {}, {} iters) vs ({}, {}, {} iters)",
                    r.dataset,
                    r.strategy,
                    r.iterations.len(),
                    first.dataset,
                    first.strategy,
                    n_iters
                )));
            }
        }
        let mut mean_curve = Vec::with_capacity(n_iters);
        let mut mean_select_secs = Vec::with_capacity(n_iters);
        for i in 0..n_iters {
            let labels = first.iterations[i].labels_used as f64;
            let f1s: Vec<f64> = runs.iter().map(|r| r.iterations[i].test_f1_pct).collect();
            let secs: Vec<f64> = runs.iter().map(|r| r.iterations[i].select_secs).collect();
            mean_curve.push((labels, mean(&f1s)));
            mean_select_secs.push(mean(&secs));
        }
        Ok(MultiSeedReport {
            dataset: first.dataset.clone(),
            strategy: first.strategy.clone(),
            seeds: runs.iter().map(|r| r.seed).collect(),
            mean_curve,
            mean_auc: mean(aucs),
            mean_select_secs,
        })
    }

    /// Mean F1 (%) at the largest label count ≤ `labels` (Table 4).
    pub fn f1_at(&self, labels: f64) -> Option<f64> {
        self.mean_curve
            .iter()
            .take_while(|(x, _)| *x <= labels)
            .last()
            .map(|&(_, y)| y)
    }

    /// Final mean F1 (%).
    pub fn final_f1(&self) -> Option<f64> {
        self.mean_curve.last().map(|&(_, y)| y)
    }
}

/// One (dataset, strategy) cell of an experiment grid: the seed-averaged
/// view plus the dispersion the paper's "mean ± std" tables report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Seed-aggregated mean curves and AUC.
    pub aggregate: MultiSeedReport,
    /// Std of F1 (%) per iteration point, aligned with
    /// `aggregate.mean_curve` label counts.
    pub std_curve: Vec<(f64, f64)>,
    /// Std of AUC across seeds.
    pub std_auc: f64,
    /// Mean wall-clock of one run of this cell (seconds).
    pub mean_run_secs: f64,
}

impl GridCell {
    /// Build a cell from its runs and their measured wall-clocks.
    ///
    /// Runs must agree on dataset/strategy/iteration structure (enforced
    /// by [`MultiSeedReport::aggregate`]).
    pub fn from_runs(runs: &[RunReport], run_secs: &[f64]) -> Result<Self> {
        let aucs = run_aucs(runs)?;
        let aggregate = MultiSeedReport::aggregate_with_aucs(runs, &aucs)?;
        let mut std_curve = Vec::with_capacity(aggregate.mean_curve.len());
        for (i, &(labels, _)) in aggregate.mean_curve.iter().enumerate() {
            let f1s: Vec<f64> = runs.iter().map(|r| r.iterations[i].test_f1_pct).collect();
            std_curve.push((labels, std_dev(&f1s)));
        }
        Ok(GridCell {
            aggregate,
            std_curve,
            std_auc: std_dev(&aucs),
            mean_run_secs: mean(run_secs),
        })
    }

    /// Dataset name (forwarded from the aggregate).
    pub fn dataset(&self) -> &str {
        &self.aggregate.dataset
    }

    /// Strategy name (forwarded from the aggregate).
    pub fn strategy(&self) -> &str {
        &self.aggregate.strategy
    }
}

/// The aggregated output of a whole experiment grid.
///
/// Cells appear in the grid's fixed expansion order (dataset-major, then
/// strategy, then baselines), *not* in completion order, so the report is
/// deterministic regardless of how runs were scheduled across worker
/// threads. Wall-clock fields are the only scheduling-dependent content;
/// [`GridReport::canonical`] zeroes them for bit-exact comparisons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridReport {
    /// Master seed the run seeds were derived from.
    pub master_seed: u64,
    /// Worker threads the grid executed on (informational).
    pub threads: usize,
    /// Total grid wall-clock (seconds).
    pub wall_secs: f64,
    /// Per-(dataset, strategy) aggregates, in expansion order.
    pub cells: Vec<GridCell>,
    /// Every raw run, in expansion order (cell-major, then seed).
    pub runs: Vec<RunReport>,
}

impl GridReport {
    /// Look up a cell by dataset and strategy name.
    pub fn cell(&self, dataset: &str, strategy: &str) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.dataset() == dataset && c.strategy() == strategy)
    }

    /// Serialize to pretty JSON (the CI artifact format).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| EmError::InvalidConfig(format!("grid report serialization: {e}")))
    }

    /// A copy with every wall-clock field zeroed.
    ///
    /// Timing is inherently scheduling-dependent; everything else in a
    /// grid report is a deterministic function of (grid, master seed).
    /// Two canonical reports of the same grid are bit-identical for any
    /// worker-thread count — the property the engine's golden tests pin.
    pub fn canonical(&self) -> GridReport {
        let mut out = GridReport {
            master_seed: self.master_seed,
            threads: 0,
            wall_secs: 0.0,
            cells: self.cells.clone(),
            runs: self.runs.iter().map(RunReport::canonical).collect(),
        };
        for cell in &mut out.cells {
            cell.mean_run_secs = 0.0;
            for s in &mut cell.aggregate.mean_select_secs {
                *s = 0.0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, f1s: &[f64]) -> RunReport {
        RunReport {
            dataset: "toy".into(),
            strategy: "battleship".into(),
            seed,
            iterations: f1s
                .iter()
                .enumerate()
                .map(|(i, &f1)| IterationRecord {
                    iteration: i,
                    labels_used: 100 + i * 100,
                    test_f1_pct: f1,
                    precision: 0.5,
                    recall: 0.5,
                    train_secs: 1.0,
                    select_secs: i as f64,
                    new_positives: 10,
                    new_labels: 100,
                    weak_used: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn f1_curve_and_auc() {
        let r = run(1, &[50.0, 60.0, 70.0]);
        let curve = r.f1_curve().unwrap();
        assert_eq!(curve.points().len(), 3);
        // Trapezoid: (100·55 + 100·65)/100 = 120.
        assert!((r.auc().unwrap() - 120.0).abs() < 1e-9);
        assert_eq!(r.final_f1(), Some(70.0));
        assert_eq!(r.total_labels(), 300);
    }

    #[test]
    fn aggregate_means_pointwise() {
        let runs = vec![run(1, &[40.0, 60.0]), run(2, &[60.0, 80.0])];
        let agg = MultiSeedReport::aggregate(&runs).unwrap();
        assert_eq!(agg.mean_curve, vec![(100.0, 50.0), (200.0, 70.0)]);
        assert_eq!(agg.seeds, vec![1, 2]);
        // AUCs: (100·50)/100 = 50 and (100·70)/100 = 70 → mean 60.
        assert!((agg.mean_auc - 60.0).abs() < 1e-9);
        assert_eq!(agg.f1_at(100.0), Some(50.0));
        assert_eq!(agg.f1_at(199.0), Some(50.0));
        assert_eq!(agg.final_f1(), Some(70.0));
        assert_eq!(agg.f1_at(50.0), None);
    }

    #[test]
    fn aggregate_rejects_mismatched_runs() {
        assert!(MultiSeedReport::aggregate(&[]).is_err());
        let mut other = run(3, &[10.0, 20.0]);
        other.strategy = "random".into();
        assert!(MultiSeedReport::aggregate(&[run(1, &[10.0, 20.0]), other]).is_err());
        let short = run(4, &[10.0]);
        assert!(MultiSeedReport::aggregate(&[run(1, &[10.0, 20.0]), short]).is_err());
    }

    #[test]
    fn reports_serialize() {
        let r = run(7, &[33.0]);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    fn grid_report() -> GridReport {
        let runs = vec![run(1, &[40.0, 60.0]), run(2, &[60.0, 80.0])];
        let cell = GridCell::from_runs(&runs, &[0.5, 0.7]).unwrap();
        GridReport {
            master_seed: 99,
            threads: 4,
            wall_secs: 1.25,
            cells: vec![cell],
            runs,
        }
    }

    #[test]
    fn grid_cell_std_and_timing() {
        let g = grid_report();
        let cell = g.cell("toy", "battleship").unwrap();
        // F1s per point: {40, 60} and {60, 80} → population std 10.
        assert_eq!(cell.std_curve.len(), 2);
        for &(_, s) in &cell.std_curve {
            assert!((s - 10.0).abs() < 1e-9, "std {s}");
        }
        assert!((cell.mean_run_secs - 0.6).abs() < 1e-12);
        assert!(cell.std_auc >= 0.0);
        // Single-run cells have zero dispersion.
        let single = GridCell::from_runs(&[run(1, &[50.0])], &[0.1]).unwrap();
        assert_eq!(single.std_curve, vec![(100.0, 0.0)]);
        assert_eq!(single.std_auc, 0.0);
        assert!(g.cell("toy", "no-such-strategy").is_none());
    }

    /// Satellite: full serde round-trips for every report type, plus the
    /// `to_json` artifact helper.
    #[test]
    fn run_multi_seed_and_grid_reports_round_trip() {
        let r = run(3, &[10.0, 20.0, 30.0]);
        let back: RunReport = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(r, back);

        let multi =
            MultiSeedReport::aggregate(&[run(1, &[40.0, 60.0]), run(2, &[60.0, 80.0])]).unwrap();
        let back: MultiSeedReport =
            serde_json::from_str(&serde_json::to_string(&multi).unwrap()).unwrap();
        assert_eq!(multi, back);

        let g = grid_report();
        let back: GridReport = serde_json::from_str(&g.to_json().unwrap()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn canonical_zeroes_all_timing_and_is_idempotent() {
        let g = grid_report();
        let c = g.canonical();
        assert_eq!(c.threads, 0);
        assert_eq!(c.wall_secs, 0.0);
        for cell in &c.cells {
            assert_eq!(cell.mean_run_secs, 0.0);
            assert!(cell.aggregate.mean_select_secs.iter().all(|&s| s == 0.0));
        }
        for r in &c.runs {
            assert!(r
                .iterations
                .iter()
                .all(|it| it.train_secs == 0.0 && it.select_secs == 0.0));
        }
        // Non-timing payload is untouched.
        assert_eq!(c.master_seed, g.master_seed);
        assert_eq!(
            c.cells[0].aggregate.mean_curve,
            g.cells[0].aggregate.mean_curve
        );
        assert_eq!(c.canonical(), c);
    }

    #[test]
    fn run_canonical_zeroes_exactly_the_two_timing_fields() {
        let r = run(5, &[12.5, 40.25, 61.0]);
        let expected = RunReport {
            iterations: r
                .iterations
                .iter()
                .map(|it| IterationRecord {
                    train_secs: 0.0,
                    select_secs: 0.0,
                    ..it.clone()
                })
                .collect(),
            ..r.clone()
        };
        // JSON floats round-trip exactly, so equal text is equal bits.
        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        assert_ne!(json(&r), json(&expected));
        assert_eq!(json(&r.canonical()), json(&expected));

        let g = grid_report();
        let per_run: Vec<RunReport> = g.runs.iter().map(RunReport::canonical).collect();
        assert_eq!(g.canonical().runs, per_run);
    }
}
