//! Unified exact ↔ ANN routing policy.
//!
//! PR 6's blocking bench measured the exact-vs-HNSW crossover with a
//! forced-ANN sweep (`BENCH_blocking.json`, `ann_threshold_sweep`): the
//! dense exact kernels win through cluster size 8192 (2.55 s vs 4.51 s)
//! and HNSW first wins at 16384 (17.7 s vs 12.9 s). Until this module,
//! that measurement only routed graph-edge construction, and every call
//! site carried its own `ann_threshold: usize` guess. [`AnnPolicy`] is
//! the one place the decision lives: stages ask `use_ann(n)` and share
//! the same crossover default, shortlist width and subsample cap. The
//! policy is a plain value: a run's routing follows from its config
//! alone, never from the environment.
//!
//! Consumers today: graph-edge construction (`em-graph::build`), the
//! k-selection silhouette fallback (`em-cluster::kselect`), constrained
//! assignment (`em-cluster::constrained`) and the spatial pipeline
//! (`battleship::spatial`) that plumbs the policy into all three.

use crate::hnsw::HnswConfig;
use em_core::{EmError, Result};

/// Measured exact→HNSW crossover from BENCH_blocking.json's
/// `ann_threshold_sweep`: ANN first edges out the exact kernel around
/// 8192 (within noise) and wins decisively from 16384 up, so the
/// default sits at the conservative end of the crossover band.
pub const DEFAULT_ANN_THRESHOLD: usize = 16384;

/// Default candidate-shortlist width for ANN-assisted assignment: each
/// point considers its `top_m` nearest centroids instead of all `k`.
pub const DEFAULT_ANN_TOP_M: usize = 16;

/// Default cap on the reference subsample an ANN estimator indexes
/// (e.g. the silhouette neighbor cache); per the sweep, HNSW build over
/// ≤4096 points costs well under a second.
pub const DEFAULT_ANN_SAMPLE_CAP: usize = 4096;

/// When (and how) a stage should switch from its exact kernel to HNSW.
///
/// Stages call [`use_ann`](AnnPolicy::use_ann) with their problem size;
/// below the threshold the exact path runs (and is golden-tested
/// bit-identical to the scalar reference), above it the HNSW-backed
/// variant takes over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnPolicy {
    /// Stage sizes strictly above this route through HNSW.
    pub threshold: usize,
    /// HNSW construction/search parameters for routed stages.
    pub hnsw: HnswConfig,
    /// Shortlist width for ANN-assisted assignment (candidate clusters
    /// per point). When `top_m >= k` a shortlist would cover every
    /// cluster, so the assignment takes the exact path instead.
    pub top_m: usize,
    /// Cap on reference subsamples indexed by ANN estimators.
    pub sample_cap: usize,
}

impl Default for AnnPolicy {
    fn default() -> Self {
        AnnPolicy {
            threshold: DEFAULT_ANN_THRESHOLD,
            hnsw: HnswConfig::default(),
            top_m: DEFAULT_ANN_TOP_M,
            sample_cap: DEFAULT_ANN_SAMPLE_CAP,
        }
    }
}

impl AnnPolicy {
    /// Policy with a custom crossover, defaults elsewhere.
    pub fn with_threshold(threshold: usize) -> Self {
        AnnPolicy {
            threshold,
            ..AnnPolicy::default()
        }
    }

    /// Policy that never routes through ANN (exact everywhere).
    pub fn never() -> Self {
        AnnPolicy::with_threshold(usize::MAX)
    }

    /// Policy that always routes through ANN (threshold 0).
    pub fn always() -> Self {
        AnnPolicy::with_threshold(0)
    }

    /// `true` iff a stage of size `n` should use the HNSW path. Strict
    /// `>` keeps the pre-policy call-site semantics (`cluster size >
    /// ann_threshold`).
    pub fn use_ann(&self, n: usize) -> bool {
        n > self.threshold
    }

    /// HNSW config with a per-stage seed (stages must not share RNG
    /// streams; mix like `policy.hnsw_seeded(seed ^ STAGE_SALT)`).
    pub fn hnsw_seeded(&self, seed: u64) -> HnswConfig {
        HnswConfig { seed, ..self.hnsw }
    }

    /// Check invariants required by the routed stages.
    pub fn validate(&self) -> Result<()> {
        if self.top_m == 0 {
            return Err(EmError::InvalidConfig("AnnPolicy top_m must be > 0".into()));
        }
        if self.sample_cap == 0 {
            return Err(EmError::InvalidConfig(
                "AnnPolicy sample_cap must be > 0".into(),
            ));
        }
        self.hnsw.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cites_measured_crossover() {
        let p = AnnPolicy::default();
        assert_eq!(p.threshold, 16384);
        // Strict >: the crossover size itself still runs exact, matching
        // the pre-policy `cluster size > ann_threshold` call sites.
        assert!(!p.use_ann(16384));
        assert!(p.use_ann(16385));
    }

    #[test]
    fn never_and_always() {
        assert!(!AnnPolicy::never().use_ann(usize::MAX - 1));
        assert!(AnnPolicy::always().use_ann(1));
        assert!(!AnnPolicy::always().use_ann(0));
    }

    #[test]
    fn validates() {
        assert!(AnnPolicy::default().validate().is_ok());
        let bad = AnnPolicy {
            top_m: 0,
            ..AnnPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = AnnPolicy {
            sample_cap: 0,
            ..AnnPolicy::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn seeded_hnsw_config_keeps_shape() {
        let p = AnnPolicy::default();
        let c = p.hnsw_seeded(42);
        assert_eq!(c.seed, 42);
        assert_eq!(c.m, p.hnsw.m);
        assert_eq!(c.ef_search, p.hnsw.ef_search);
    }
}
