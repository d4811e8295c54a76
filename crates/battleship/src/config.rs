//! Configuration of the battleship algorithm and the experiment
//! protocol, defaulting to the paper's published values (§4.2).

use serde::{Deserialize, Serialize};

use em_core::{EmError, Result};
use em_matcher::MatcherConfig;
use em_vector::AnnPolicy;

/// Which centrality measure ranks nodes within a connected component.
///
/// The paper uses PageRank (§3.5.2) after naming betweenness as the
/// classic alternative (§2.2); both are implemented so the choice can be
/// ablated (`ablation_centrality` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CentralityMeasure {
    /// Weighted PageRank (Eq. 5) — the paper's choice.
    PageRank,
    /// Brandes betweenness centrality (Freeman 1977).
    Betweenness,
}

/// Which weak-supervision scoring picks the pseudo-labeled pairs (§3.7,
/// ablated in Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeakMethod {
    /// Battleship: minimize the spatial certainty score (Eq. 4).
    Spatial,
    /// DAL (Kasai et al.): minimize plain conditional entropy (Eq. 1).
    Entropy,
}

/// Parameters of the battleship selection mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BattleshipParams {
    /// Certainty-vs-centrality rank weight `α` (Eq. 6). The paper
    /// evaluates {0.25, 0.5, 0.75} and reports their average; Table 6
    /// ablates the full range.
    pub alpha: f64,
    /// Local-vs-spatial entropy weight `β` (Eq. 4); 0.5 per §5.1,
    /// Figure 7 ablates it.
    pub beta: f64,
    /// Nearest neighbours per node in edge creation; 15 per §4.2.
    pub q: usize,
    /// Extra-edge ratio over remaining pairs; 0.03 per §4.2.
    pub extra_ratio: f64,
    /// Cluster size bounds as fractions of the node-set size; 0.05–0.15
    /// per §4.2.
    pub cluster_min_frac: f64,
    /// See `cluster_min_frac`.
    pub cluster_max_frac: f64,
    /// PageRank damping `ρ` (Eq. 5).
    pub rho: f64,
    /// Point-sample cap for the `k`-selection sweep (a scalability knob
    /// of our substrate; the sweep's SSE curve shape is stable under
    /// subsampling).
    pub kselect_sample: usize,
    /// Clusters larger than this route edge creation through the HNSW
    /// ANN index instead of the exact blocked Gram kernel (approximate
    /// but near-linear; §5.2 names approximate search as the scale-out
    /// for this step). The default is the measured exact→ANN
    /// crossover from the blocking bench's single-cluster sweep
    /// (`BENCH_blocking.json`, `ann_threshold_sweep`): exact still
    /// wins at 8192 (2.5 s vs 4.5 s) and first loses at 16384
    /// (17.7 s vs 12.9 s), so every smaller cluster stays exact.
    pub ann_cluster_threshold: usize,
    /// Weak-supervision scoring method.
    pub weak_method: WeakMethod,
    /// Centrality measure for Eq. 6's second rank.
    pub centrality: CentralityMeasure,
}

impl Default for BattleshipParams {
    fn default() -> Self {
        BattleshipParams {
            alpha: 0.5,
            beta: 0.5,
            q: 15,
            extra_ratio: 0.03,
            cluster_min_frac: 0.05,
            cluster_max_frac: 0.15,
            rho: 0.85,
            kselect_sample: 800,
            ann_cluster_threshold: 16384,
            weak_method: WeakMethod::Spatial,
            centrality: CentralityMeasure::PageRank,
        }
    }
}

impl BattleshipParams {
    /// Validate all ranges.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(EmError::InvalidConfig(format!("alpha {}", self.alpha)));
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(EmError::InvalidConfig(format!("beta {}", self.beta)));
        }
        if self.q == 0 {
            return Err(EmError::InvalidConfig("q must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.extra_ratio) {
            return Err(EmError::InvalidConfig(format!(
                "extra_ratio {}",
                self.extra_ratio
            )));
        }
        if !(0.0..=1.0).contains(&self.cluster_min_frac)
            || !(self.cluster_min_frac..=1.0).contains(&self.cluster_max_frac)
        {
            return Err(EmError::InvalidConfig(format!(
                "cluster fractions [{}, {}]",
                self.cluster_min_frac, self.cluster_max_frac
            )));
        }
        if !(0.0..1.0).contains(&self.rho) {
            return Err(EmError::InvalidConfig(format!("rho {}", self.rho)));
        }
        if self.kselect_sample < 16 {
            return Err(EmError::InvalidConfig("kselect_sample too small".into()));
        }
        if self.ann_cluster_threshold < 2 {
            return Err(EmError::InvalidConfig(
                "ann_cluster_threshold must be >= 2".into(),
            ));
        }
        Ok(())
    }

    /// The [`AnnPolicy`] this parameter set induces: the serialized
    /// `ann_cluster_threshold` sets the crossover, everything else takes
    /// the policy defaults.
    pub fn ann_policy(&self) -> AnnPolicy {
        AnnPolicy::with_threshold(self.ann_cluster_threshold)
    }
}

/// The active-learning protocol parameters (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ALConfig {
    /// Labeling budget per iteration (`B`); 100 in the paper.
    pub budget: usize,
    /// Number of active-learning iterations (`I`); 8 in the paper.
    pub iterations: usize,
    /// Initialisation seed size (50 matches + 50 non-matches).
    pub seed_size: usize,
    /// Weak-label budget per iteration; equals `B` in the paper.
    pub weak_budget: usize,
    /// Whether weak supervision is enabled (Figure 9 ablates it).
    pub weak_supervision: bool,
}

impl Default for ALConfig {
    fn default() -> Self {
        ALConfig {
            budget: 100,
            iterations: 8,
            seed_size: 100,
            weak_budget: 100,
            weak_supervision: true,
        }
    }
}

impl ALConfig {
    /// Validate all ranges.
    pub fn validate(&self) -> Result<()> {
        if self.budget == 0 {
            return Err(EmError::InvalidConfig("budget must be > 0".into()));
        }
        if self.iterations == 0 {
            return Err(EmError::InvalidConfig("iterations must be > 0".into()));
        }
        if self.seed_size < 2 {
            return Err(EmError::InvalidConfig(
                "seed_size must be >= 2 (one per class)".into(),
            ));
        }
        Ok(())
    }
}

/// A full experiment specification: protocol + algorithm + matcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentConfig {
    /// Active-learning protocol.
    pub al: ALConfig,
    /// Battleship parameters (also consulted by DAL/DIAL for shared
    /// knobs like the weak budget).
    pub battleship: BattleshipParams,
    /// Matcher hyper-parameters.
    pub matcher: MatcherConfig,
}

impl ExperimentConfig {
    /// Validate the composite configuration.
    pub fn validate(&self) -> Result<()> {
        self.al.validate()?;
        self.battleship.validate()
    }

    /// A scaled-down low-resource protocol: `iterations` iterations
    /// with `budget` labels each, a balanced seed of the same size, an
    /// equal weak-label budget, and a shorter matcher schedule — the
    /// configuration every example runs so it finishes in seconds.
    pub fn low_resource(iterations: usize, budget: usize) -> Self {
        let mut c = ExperimentConfig::default();
        c.al.iterations = iterations;
        c.al.budget = budget;
        c.al.seed_size = budget;
        c.al.weak_budget = budget;
        c.matcher.epochs = 20;
        c
    }
}

/// Configuration of a full experiment *grid*: one [`ExperimentConfig`]
/// applied to every (dataset, strategy, seed) cell, plus the knobs that
/// only exist at grid level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// The per-run protocol/algorithm/matcher configuration.
    pub experiment: ExperimentConfig,
    /// Master seed: every run seed is derived from it (see
    /// [`GridConfig::run_seeds`]), so one u64 reproduces the whole grid.
    pub master_seed: u64,
    /// Seeds (runs) per (dataset, strategy) cell.
    pub n_seeds: usize,
    /// Whether to add the non-AL extremes (ZeroER and Full D, §4.3) as
    /// one-cell baselines per dataset.
    pub include_baselines: bool,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            experiment: ExperimentConfig::default(),
            master_seed: 0xBA771E,
            n_seeds: 3,
            include_baselines: false,
        }
    }
}

impl GridConfig {
    /// Validate the grid and its per-run configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_seeds == 0 {
            return Err(EmError::InvalidConfig("n_seeds must be > 0".into()));
        }
        self.experiment.validate()
    }

    /// The derived per-run seed streams, one per seed index.
    ///
    /// Seed `i` is shared across every (dataset, strategy) cell — the
    /// paper's protocol, where each repetition re-rolls the seed draw but
    /// all strategies see the same repetition stream. Derivation is a
    /// pure function of `master_seed`, independent of grid shape and
    /// worker-thread count.
    pub fn run_seeds(&self) -> Vec<u64> {
        let mut rng = em_core::Rng::seed_from_u64(self.master_seed);
        (0..self.n_seeds).map(|_| rng.next_u64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.al.budget, 100);
        assert_eq!(c.al.iterations, 8);
        assert_eq!(c.al.seed_size, 100);
        assert_eq!(c.al.weak_budget, 100);
        assert_eq!(c.battleship.q, 15);
        assert!((c.battleship.extra_ratio - 0.03).abs() < 1e-12);
        assert!((c.battleship.cluster_min_frac - 0.05).abs() < 1e-12);
        assert!((c.battleship.cluster_max_frac - 0.15).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = ExperimentConfig::default();
        c.battleship.alpha = 1.5;
        assert!(c.validate().is_err());

        let mut c = ExperimentConfig::default();
        c.battleship.cluster_min_frac = 0.2;
        c.battleship.cluster_max_frac = 0.1;
        assert!(c.validate().is_err());

        let mut c = ExperimentConfig::default();
        c.al.budget = 0;
        assert!(c.validate().is_err());

        let mut c = ExperimentConfig::default();
        c.battleship.rho = 1.0;
        assert!(c.validate().is_err());

        let mut c = ExperimentConfig::default();
        c.al.seed_size = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn grid_config_validates_and_derives_seeds() {
        let g = GridConfig::default();
        g.validate().unwrap();
        let seeds = g.run_seeds();
        assert_eq!(seeds.len(), g.n_seeds);
        // Derivation is deterministic and master-seed sensitive.
        assert_eq!(seeds, g.run_seeds());
        let other = GridConfig {
            master_seed: g.master_seed + 1,
            ..g.clone()
        };
        assert_ne!(seeds, other.run_seeds());
        // Prefix stability: growing n_seeds extends, never reshuffles.
        let bigger = GridConfig {
            n_seeds: g.n_seeds + 2,
            ..g.clone()
        };
        assert_eq!(&bigger.run_seeds()[..g.n_seeds], &seeds[..]);

        let bad = GridConfig {
            n_seeds: 0,
            ..GridConfig::default()
        };
        assert!(bad.validate().is_err());
        let mut bad_exp = GridConfig::default();
        bad_exp.experiment.al.budget = 0;
        assert!(bad_exp.validate().is_err());
    }

    #[test]
    fn config_serializes() {
        let c = ExperimentConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
