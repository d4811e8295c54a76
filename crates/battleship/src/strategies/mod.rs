//! Selection strategies: the battleship approach and the active-learning
//! baselines it is compared against (§4.3).

mod battleship_strategy;
mod dal;
mod dial;
mod random;

pub use battleship_strategy::BattleshipStrategy;
pub use dal::DalStrategy;
pub use dial::DialStrategy;
pub use random::RandomStrategy;

use em_core::{Dataset, Label, PairIdx, Prediction, Result, Rng};
use em_graph::NodeKind;
use em_vector::Embeddings;
use serde::{Deserialize, Serialize};

use crate::config::ExperimentConfig;

/// A constructible description of a selection strategy.
///
/// The experiment engine fans grid cells out across worker threads, and
/// each worker needs its *own* strategy instance (the trait takes
/// `&mut self`). `StrategySpec` is the `Send + Serialize` value that
/// crosses thread and config boundaries; [`StrategySpec::build`] is the
/// factory workers call to get a fresh instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// The paper's spatially-aware selection (§3).
    Battleship,
    /// DAL: entropy-based uncertainty sampling (Kasai et al. 2019).
    Dal,
    /// DIAL: query-by-committee disagreement (Jain et al. 2021).
    Dial,
    /// Uniform random selection.
    Random,
}

impl StrategySpec {
    /// All four active-learning strategies, in the paper's comparison
    /// order.
    pub fn all() -> [StrategySpec; 4] {
        [
            StrategySpec::Battleship,
            StrategySpec::Dal,
            StrategySpec::Dial,
            StrategySpec::Random,
        ]
    }

    /// Display name, matching what the built strategy reports.
    pub fn name(self) -> &'static str {
        match self {
            StrategySpec::Battleship => "battleship",
            StrategySpec::Dal => "dal",
            StrategySpec::Dial => "dial",
            StrategySpec::Random => "random",
        }
    }

    /// Construct a fresh strategy instance for one run.
    pub fn build(self) -> Box<dyn SelectionStrategy + Send> {
        match self {
            StrategySpec::Battleship => Box::new(BattleshipStrategy::new()),
            StrategySpec::Dal => Box::new(DalStrategy::new()),
            StrategySpec::Dial => Box::new(DialStrategy::new()),
            StrategySpec::Random => Box::new(RandomStrategy::new()),
        }
    }
}

/// Reusable per-session scratch for selection strategies.
///
/// The battleship strategy assembles a heterogeneous representation
/// matrix (pool ∪ train rows) plus aligned node-kind and confidence
/// vectors on **every** iteration; allocating them fresh each call made
/// selection's allocator traffic scale with pool size × iterations. The
/// session owns one `SelectionScratch` and threads it through the
/// [`SelectionContext`], so each iteration reuses the previous one's
/// capacity. Contents are transient — [`SelectionScratch::take`] clears
/// before lending out — so selection results are bit-identical whether
/// the scratch is fresh or dirty (pinned by a golden test), and the
/// scratch is deliberately excluded from session snapshots.
#[derive(Debug, Default)]
pub struct SelectionScratch {
    hetero_reprs: Option<Embeddings>,
    kinds: Vec<NodeKind>,
    confs: Vec<f32>,
}

impl SelectionScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        SelectionScratch::default()
    }

    /// Borrow the scratch buffers, cleared and re-dimensioned to `dim`:
    /// an empty representation matrix plus empty kind/confidence
    /// vectors, all retaining prior capacity where possible (the matrix
    /// reallocates only when `dim` changes).
    pub fn take(
        &mut self,
        dim: usize,
    ) -> Result<(&mut Embeddings, &mut Vec<NodeKind>, &mut Vec<f32>)> {
        match &mut self.hetero_reprs {
            Some(e) if e.dim() == dim => e.clear(),
            slot => *slot = Some(Embeddings::new(dim)?),
        }
        self.kinds.clear();
        self.confs.clear();
        Ok((
            self.hetero_reprs.as_mut().expect("slot filled above"),
            &mut self.kinds,
            &mut self.confs,
        ))
    }
}

/// Everything a strategy may consult when choosing pairs to label.
///
/// All slices are aligned: `pool[i]` has prediction `pool_preds[i]` and
/// representation `pool_reprs.row(i)`; likewise for `train`.
pub struct SelectionContext<'a> {
    /// The dataset (strategies must not touch ground truth).
    pub dataset: &'a Dataset,
    /// Static pair features (for strategies that train auxiliary models,
    /// e.g. DIAL's committee).
    pub features: &'a Embeddings,
    /// Unlabeled pool, as global pair indices.
    pub pool: &'a [PairIdx],
    /// Labeled pairs so far, as global pair indices.
    pub train: &'a [PairIdx],
    /// Oracle labels aligned with `train`.
    pub train_labels: &'a [Label],
    /// Current model's predictions over the pool.
    pub pool_preds: &'a [Prediction],
    /// Current model's representations over the pool.
    pub pool_reprs: &'a Embeddings,
    /// Current model's representations over the train set.
    pub train_reprs: &'a Embeddings,
    /// Labeling budget for this iteration (`B`).
    pub budget: usize,
    /// Active-learning iteration index (0-based).
    pub iteration: usize,
    /// The experiment configuration.
    pub config: &'a ExperimentConfig,
    /// Session-owned reusable scratch (cleared by the strategy before
    /// use; never carries state between iterations).
    pub scratch: &'a mut SelectionScratch,
}

/// A strategy's decision for one iteration.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Pool pairs to send to the oracle (global indices, ≤ budget).
    pub to_label: Vec<PairIdx>,
    /// Weak-supervision set: pool pairs with pseudo-labels to add to the
    /// next training round without consuming oracle budget (§3.7). Empty
    /// when the strategy doesn't use weak supervision or it is disabled.
    pub weak: Vec<(PairIdx, Label)>,
}

/// An active-learning sample-selection policy.
pub trait SelectionStrategy {
    /// Display name used in reports and plots.
    fn name(&self) -> String;

    /// Choose pairs to label (and optionally weak pseudo-labels) for one
    /// iteration. The context is `&mut` only for its scratch buffers;
    /// selection must stay a pure function of the read-only fields.
    fn select(&mut self, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection>;
}

/// A borrowed strategy steps as the strategy it borrows: how
/// [`MatchSession::with_strategy`](crate::session::MatchSession::with_strategy)
/// boxes a caller-managed instance.
impl<S: SelectionStrategy + ?Sized> SelectionStrategy for &mut S {
    fn name(&self) -> String {
        (**self).name()
    }

    fn select(&mut self, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection> {
        (**self).select(ctx, rng)
    }
}

/// Split pool positions by the model's predicted side.
pub(crate) fn split_by_prediction(preds: &[Prediction]) -> (Vec<usize>, Vec<usize>) {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for (i, p) in preds.iter().enumerate() {
        if p.label.is_match() {
            pos.push(i);
        } else {
            neg.push(i);
        }
    }
    (pos, neg)
}

/// Split a budget `b` into match/non-match halves, spilling surplus when
/// one side has too few candidates. Returns `(b_pos, b_neg)`.
pub(crate) fn split_budget_with_spill(
    b_pos_target: usize,
    b: usize,
    n_pos: usize,
    n_neg: usize,
) -> (usize, usize) {
    let b_pos = b_pos_target.min(n_pos);
    let b_neg = (b - b_pos).min(n_neg);
    // Spill unspent negative budget back to the positive side if room.
    let unspent = b - b_pos - b_neg;
    let b_pos = (b_pos + unspent).min(n_pos);
    (b_pos, b_neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_prediction_partitions() {
        let preds = vec![
            Prediction::from_prob(0.9),
            Prediction::from_prob(0.1),
            Prediction::from_prob(0.7),
        ];
        let (pos, neg) = split_by_prediction(&preds);
        assert_eq!(pos, vec![0, 2]);
        assert_eq!(neg, vec![1]);
    }

    #[test]
    fn spec_names_match_built_strategies() {
        for spec in StrategySpec::all() {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    /// Golden (scratch satellite): battleship selection is bit-identical
    /// whether the session scratch is brand-new, already used at the
    /// same dimension, or left over from a different dimension — the
    /// scratch is storage reuse only, never state.
    #[test]
    fn battleship_selection_is_identical_with_fresh_or_dirty_scratch() {
        use crate::engine::Scenario;
        use em_synth::DatasetProfile;

        let art = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 7)
            .materialize()
            .unwrap();
        let split_train = art.dataset.split().train.clone();
        let (train, pool) = split_train.split_at(20);
        let train_labels = art.dataset.ground_truth_of(train);
        // Deterministic synthetic "model outputs" over pool and train.
        let dim = 16usize;
        let reprs = |idxs: &[PairIdx]| {
            let mut e = Embeddings::new(dim).unwrap();
            for (k, &i) in idxs.iter().enumerate() {
                let row: Vec<f32> = (0..dim)
                    .map(|d| ((i * 31 + k * 17 + d * 7) % 97) as f32 / 97.0 - 0.5)
                    .collect();
                e.push(&row).unwrap();
            }
            e
        };
        let pool_reprs = reprs(pool);
        let train_reprs = reprs(train);
        let pool_preds: Vec<Prediction> = pool
            .iter()
            .map(|&i| Prediction::from_prob(((i * 37) % 100) as f32 / 100.0))
            .collect();
        let mut config = ExperimentConfig::default();
        config.battleship.kselect_sample = 128;

        let run = |scratch: &mut SelectionScratch| {
            let mut strategy = BattleshipStrategy::new();
            let mut rng = Rng::seed_from_u64(0xD1CE);
            let mut ctx = SelectionContext {
                dataset: &art.dataset,
                features: &art.features,
                pool,
                train,
                train_labels: &train_labels,
                pool_preds: &pool_preds,
                pool_reprs: &pool_reprs,
                train_reprs: &train_reprs,
                budget: 10,
                iteration: 0,
                config: &config,
                scratch,
            };
            strategy.select(&mut ctx, &mut rng).unwrap()
        };

        let fresh = run(&mut SelectionScratch::new());
        assert_eq!(fresh.to_label.len(), 10);
        // Same-dimension reuse: select once to fill the buffers, then
        // select again from the dirty scratch.
        let mut reused = SelectionScratch::new();
        let _ = run(&mut reused);
        let same_dim = run(&mut reused);
        // Cross-dimension reuse: the matrix was last used at another dim.
        let mut cross = SelectionScratch::new();
        let _ = cross.take(dim + 7).unwrap();
        let other_dim = run(&mut cross);
        for dirty in [&same_dim, &other_dim] {
            assert_eq!(fresh.to_label, dirty.to_label);
            assert_eq!(fresh.weak, dirty.weak);
        }
    }

    #[test]
    fn budget_spill_logic() {
        // Plenty of both: exact split.
        assert_eq!(split_budget_with_spill(80, 100, 1000, 1000), (80, 20));
        // Few positives: surplus goes negative.
        assert_eq!(split_budget_with_spill(80, 100, 10, 1000), (10, 90));
        // Few negatives: surplus returns to positives.
        assert_eq!(split_budget_with_spill(80, 100, 1000, 5), (95, 5));
        // Pool smaller than budget: take everything available.
        assert_eq!(split_budget_with_spill(80, 100, 30, 40), (30, 40));
    }
}
