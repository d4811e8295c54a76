//! The step-driven session API: the active-learning protocol as an
//! inverted-control state machine.
//!
//! The paper's protocol (§3.1 + §4.2) is a loop: draw a balanced seed,
//! train, predict, select, label, repeat. The experiment engine drives
//! that loop synchronously against an [`Oracle`] — fine for benchmarks,
//! unusable when labels come from humans or remote services with
//! latency. [`MatchSession`] inverts the control flow: the session owns
//! every piece of loop state (pool, labeled set, matcher, strategy,
//! rng, records) and exposes the protocol as explicit steps the caller
//! drives at its own pace:
//!
//! ```text
//!               ┌───────────┐
//!               │  SeedDraw │  advance(): draw the balanced seed batch
//!               └─────┬─────┘
//!                     ▼
//!           ┌──────────────────┐   next_query_batch()
//!     ┌────▶│  AwaitingLabels  │◀──────────────┐
//!     │     └────────┬─────────┘               │
//!     │              │ submit_labels(...)      │ advance(): predict +
//!     │              ▼  (batch complete)       │ select the next batch
//!     │        ┌──────────┐                    │
//!     │        │ Training │────────────────────┘
//!     │        └────┬─────┘  advance(): train + record F1
//!     │             │
//!     │             ▼  (budget exhausted or pool empty)
//!     │        ┌────────┐
//!     └────────│  Done  │
//!              └────────┘
//! ```
//!
//! Each state transition is deterministic given the session seed: a
//! session driven against an oracle produces the same [`RunReport`]
//! (modulo wall-clock fields) every time, and `tests/report_golden.rs`
//! pins its canonical bytes for every [`StrategySpec`] to a committed
//! fixture. [`MatchSession::snapshot`] /
//! [`MatchSession::restore`] serialize the complete loop state, so a
//! session can be persisted mid-iteration (even with a half-labeled
//! batch in flight) and resumed bit-identically on another process.

mod binary;
mod snapshot;

pub(crate) use binary::MatcherBlobRef;
pub use snapshot::{PendingSnapshot, SessionSnapshot, SNAPSHOT_VERSION};

use std::sync::Arc;
use std::time::Instant;

use em_core::{BinaryConfusion, Dataset, EmError, Label, Membership, Oracle, PairIdx, Result, Rng};
use em_matcher::{train_matcher, MatcherConfig, TrainedMatcher};
use em_vector::Embeddings;

use crate::config::ExperimentConfig;
use crate::engine::DatasetArtifacts;
use crate::report::{IterationRecord, RunReport};
use crate::strategies::{SelectionContext, SelectionScratch, SelectionStrategy, StrategySpec};

/// Everything needed to open a [`MatchSession`]: the per-run protocol
/// configuration, the selection strategy, and the run seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Protocol / algorithm / matcher configuration.
    pub experiment: ExperimentConfig,
    /// Which selection strategy picks the query batches.
    pub strategy: StrategySpec,
    /// Seed driving every random decision of the run.
    pub seed: u64,
}

impl SessionConfig {
    /// A session config with the paper's default experiment parameters.
    pub fn new(strategy: StrategySpec, seed: u64) -> Self {
        SessionConfig {
            experiment: ExperimentConfig::default(),
            strategy,
            seed,
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::new(StrategySpec::Battleship, 0)
    }
}

/// Where a session currently stands in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SessionPhase {
    /// Fresh session: the balanced initialisation seed has not been
    /// drawn yet. `advance()` draws it and produces the first query
    /// batch.
    SeedDraw,
    /// A query batch is outstanding: fetch it with
    /// [`MatchSession::next_query_batch`] and answer it (possibly
    /// incrementally) with [`MatchSession::submit_labels`].
    AwaitingLabels,
    /// The current batch is fully labeled: `advance()` trains the next
    /// model, records its test F1, and either emits the next query
    /// batch or finishes.
    Training,
    /// The label budget is exhausted (or the pool ran dry); the final
    /// [`RunReport`] is available.
    Done,
}

/// The in-flight query batch and its partially-received labels.
pub(crate) struct PendingBatch {
    /// Pairs sent to the labeler, in emission order.
    pub(crate) pairs: Vec<PairIdx>,
    /// Weak pseudo-labels picked alongside this batch (§3.7), applied
    /// to the training round that consumes the batch.
    pub(crate) weak: Vec<(PairIdx, Label)>,
    /// Wall-clock of the predict+select step that produced the batch.
    pub(crate) select_secs: f64,
    /// Received labels, aligned with `pairs`. A strategy may select the
    /// same pair more than once (each occurrence is one oracle query),
    /// so each occurrence has its own slot.
    pub(crate) received: Vec<Option<Label>>,
}

impl PendingBatch {
    fn new(pairs: Vec<PairIdx>, weak: Vec<(PairIdx, Label)>, secs: f64) -> Self {
        let received = vec![None; pairs.len()];
        PendingBatch {
            pairs,
            weak,
            select_secs: secs,
            received,
        }
    }

    fn n_received(&self) -> usize {
        self.received.iter().flatten().count()
    }

    fn is_complete(&self) -> bool {
        self.received.iter().all(Option::is_some)
    }
}

/// The immutable artifacts a session reads: borrowed from the caller,
/// or shared through the `Arc` a [`SessionStore`](crate::serve::SessionStore)
/// gets from its artifact cache, so a stored session owns what it reads.
enum Data<'a> {
    Borrowed(&'a Dataset, &'a Embeddings),
    Shared(Arc<DatasetArtifacts>),
}

impl Data<'_> {
    fn dataset(&self) -> &Dataset {
        match self {
            Data::Borrowed(dataset, _) => dataset,
            Data::Shared(artifacts) => &artifacts.dataset,
        }
    }

    fn features(&self) -> &Embeddings {
        match self {
            Data::Borrowed(_, features) => features,
            Data::Shared(artifacts) => &artifacts.features,
        }
    }
}

/// A resumable, step-driven active-learning run.
///
/// Owns all loop state of the paper's protocol and exposes it as the
/// explicit state machine documented in the [module docs](self);
/// [`MatchSession::drive`] runs it to completion against an oracle.
///
/// `S` is the strategy type the session steps; the default, a boxed
/// `dyn` [`SelectionStrategy`], is what every public constructor
/// returns.
///
/// ```
/// use battleship::api::{MatchSession, SessionConfig, SessionPhase, StrategySpec};
/// use battleship::ExperimentConfig;
/// use em_core::{Oracle, PerfectOracle, Rng};
/// use em_matcher::{FeatureConfig, Featurizer};
/// use em_synth::{generate, DatasetProfile};
///
/// // A tiny synthetic task (scaled down so the doc-test is fast).
/// let profile = DatasetProfile::amazon_google().scaled(0.04);
/// let dataset = generate(&profile, &mut Rng::seed_from_u64(5)).unwrap();
/// let features = Featurizer::new(&dataset, FeatureConfig::default())
///     .unwrap()
///     .featurize_all(&dataset)
///     .unwrap();
///
/// let mut experiment = ExperimentConfig::low_resource(1, 10);
/// experiment.al.seed_size = 10;
/// experiment.matcher.epochs = 2;
/// experiment.battleship.kselect_sample = 128;
/// let config = SessionConfig { experiment, strategy: StrategySpec::Random, seed: 7 };
///
/// // The inverted loop: the session asks, the caller answers.
/// let oracle = PerfectOracle::new();
/// let mut session = MatchSession::new(&dataset, &features, config).unwrap();
/// loop {
///     match session.advance().unwrap() {
///         SessionPhase::AwaitingLabels => {
///             let labels: Vec<_> = session
///                 .next_query_batch()
///                 .into_iter()
///                 .map(|p| (p, oracle.label(&dataset, p)))
///                 .collect();
///             session.submit_labels(&labels).unwrap();
///         }
///         SessionPhase::Done => break,
///         _ => {}
///     }
/// }
/// let report = session.into_report();
/// assert_eq!(report.iterations.len(), 2); // seed model + 1 iteration
/// assert_eq!(oracle.queries(), 20); // 10 seed + 10 selected
/// ```
pub struct MatchSession<'a, S: ?Sized = dyn SelectionStrategy + 'a> {
    data: Data<'a>,
    config: ExperimentConfig,
    strategy: Box<S>,
    /// Set when the strategy was built from a spec (required for
    /// checkpointing).
    strategy_spec: Option<StrategySpec>,
    seed: u64,
    rng: Rng,
    /// Unlabeled pool, shrinking as batches are emitted: the train split
    /// minus `train` and the pending batch, in split order, so a restore
    /// rederives it.
    pool: Vec<PairIdx>,
    /// Scratch set for the seed draw and selection checks: every use
    /// starts with `begin()`, so it is never snapshotted.
    membership: Membership,
    train: Vec<PairIdx>,
    train_labels: Vec<Label>,
    matcher: Option<TrainedMatcher>,
    iterations: Vec<IterationRecord>,
    phase: SessionPhase,
    pending: Option<PendingBatch>,
    /// Reusable selection scratch (transient — cleared before every use,
    /// never snapshotted).
    scratch: SelectionScratch,
}

impl<'a> MatchSession<'a> {
    /// Open a session from a [`SessionConfig`] (strategy built from its
    /// spec; the session is checkpointable via
    /// [`MatchSession::snapshot`]).
    pub fn new(
        dataset: &'a Dataset,
        features: &'a Embeddings,
        config: SessionConfig,
    ) -> Result<Self> {
        Self::open(
            Data::Borrowed(dataset, features),
            config.strategy.build(),
            Some(config.strategy),
            config.experiment,
            config.seed,
        )
    }

    /// Open a session stepping a caller-managed strategy instance (the
    /// [`run_active_learning`](crate::runner::run_active_learning) path). Such a session runs identically
    /// but cannot be checkpointed — [`MatchSession::snapshot`] needs a
    /// [`StrategySpec`] to rebuild the strategy on restore.
    pub fn with_strategy(
        dataset: &'a Dataset,
        features: &'a Embeddings,
        strategy: &'a mut dyn SelectionStrategy,
        experiment: ExperimentConfig,
        seed: u64,
    ) -> Result<Self> {
        Self::open(
            Data::Borrowed(dataset, features),
            Box::new(strategy),
            None,
            experiment,
            seed,
        )
    }
}

impl MatchSession<'static, dyn SelectionStrategy + Send> {
    /// Open a session that shares `artifacts` and owns its strategy, so
    /// it is `Send` and borrows nothing: what a
    /// [`SessionStore`](crate::serve::SessionStore) holds.
    pub(crate) fn shared(artifacts: Arc<DatasetArtifacts>, config: SessionConfig) -> Result<Self> {
        Self::open(
            Data::Shared(artifacts),
            config.strategy.build(),
            Some(config.strategy),
            config.experiment,
            config.seed,
        )
    }
}

impl<'a, S: SelectionStrategy + ?Sized> MatchSession<'a, S> {
    fn open(
        data: Data<'a>,
        strategy: Box<S>,
        strategy_spec: Option<StrategySpec>,
        config: ExperimentConfig,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        let (dataset, features) = (data.dataset(), data.features());
        if features.len() != dataset.len() {
            return Err(EmError::DimensionMismatch {
                context: "run features".into(),
                expected: dataset.len(),
                actual: features.len(),
            });
        }
        let rng = Rng::seed_from_u64(seed);
        let pool: Vec<PairIdx> = dataset.split().train.clone();
        if pool.len() < config.al.seed_size {
            return Err(EmError::InvalidConfig(format!(
                "pool of {} smaller than seed size {}",
                pool.len(),
                config.al.seed_size
            )));
        }
        let membership = Membership::new(dataset.len());
        Ok(MatchSession {
            data,
            config,
            strategy,
            strategy_spec,
            seed,
            rng,
            pool,
            membership,
            train: Vec::new(),
            train_labels: Vec::new(),
            matcher: None,
            iterations: Vec::new(),
            phase: SessionPhase::SeedDraw,
            pending: None,
            scratch: SelectionScratch::new(),
        })
    }

    // --- Introspection. ---------------------------------------------------

    /// Where the session currently stands.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The strategy's display name.
    pub fn strategy_name(&self) -> String {
        self.strategy.name()
    }

    /// The experiment configuration the session runs under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Oracle labels consumed so far (including any partially-submitted
    /// batch).
    pub fn labels_used(&self) -> usize {
        // A fully-labeled batch has already been folded into `train`
        // (it lingers in `pending` only to feed the training step), so
        // count outstanding labels only while they are outstanding.
        let outstanding = match self.phase {
            SessionPhase::AwaitingLabels => {
                self.pending.as_ref().map_or(0, PendingBatch::n_received)
            }
            _ => 0,
        };
        self.train.len() + outstanding
    }

    /// Unlabeled pairs remaining in the pool.
    pub fn pool_remaining(&self) -> usize {
        self.pool.len()
    }

    /// Per-iteration records produced so far (seed model first).
    pub fn records(&self) -> &[IterationRecord] {
        &self.iterations
    }

    /// The current model, once the first training step has run.
    pub fn matcher(&self) -> Option<&TrainedMatcher> {
        self.matcher.as_ref()
    }

    /// The dataset the session runs on.
    pub(crate) fn dataset(&self) -> &Dataset {
        self.data.dataset()
    }

    /// The shared artifacts the session reads, when it was opened on
    /// them rather than on borrowed data.
    pub(crate) fn artifacts(&self) -> Option<&Arc<DatasetArtifacts>> {
        match &self.data {
            Data::Shared(artifacts) => Some(artifacts),
            Data::Borrowed(..) => None,
        }
    }

    /// The report of everything recorded so far.
    pub fn report(&self) -> RunReport {
        RunReport {
            dataset: self.data.dataset().name.clone(),
            strategy: self.strategy.name(),
            seed: self.seed,
            iterations: self.iterations.clone(),
        }
    }

    /// Consume the session into its final report (moving the records
    /// out instead of cloning them).
    pub fn into_report(self) -> RunReport {
        RunReport {
            dataset: self.data.dataset().name.clone(),
            strategy: self.strategy.name(),
            seed: self.seed,
            iterations: self.iterations,
        }
    }

    // --- The state machine. -----------------------------------------------

    /// Perform the current phase's work and return the new phase.
    ///
    /// * [`SessionPhase::SeedDraw`] → draws the balanced seed batch and
    ///   moves to `AwaitingLabels`.
    /// * [`SessionPhase::AwaitingLabels`] → no-op (labels arrive via
    ///   [`MatchSession::submit_labels`]).
    /// * [`SessionPhase::Training`] → trains on the completed batch,
    ///   records test F1, then either selects the next query batch
    ///   (`AwaitingLabels`) or finishes (`Done`).
    /// * [`SessionPhase::Done`] → no-op.
    ///
    /// An `Err` from the training/selection step leaves the session
    /// unusable (the batch that fed it is consumed); subsequent
    /// `advance()` calls keep returning an error. Resume from the last
    /// [`MatchSession::snapshot`] instead.
    pub fn advance(&mut self) -> Result<SessionPhase> {
        match self.phase {
            SessionPhase::SeedDraw => self.draw_seed_batch()?,
            SessionPhase::AwaitingLabels | SessionPhase::Done => {}
            SessionPhase::Training => self.train_and_continue()?,
        }
        Ok(self.phase)
    }

    /// The pairs currently awaiting labels, in emission order (pairs
    /// already answered through an incremental
    /// [`MatchSession::submit_labels`] are omitted). Empty when no
    /// batch is outstanding.
    pub fn next_query_batch(&self) -> Vec<PairIdx> {
        match &self.pending {
            Some(batch) if self.phase == SessionPhase::AwaitingLabels => batch
                .pairs
                .iter()
                .zip(&batch.received)
                .filter(|(_, r)| r.is_none())
                .map(|(&p, _)| p)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Submit labels for (part of) the outstanding query batch.
    ///
    /// Labels may arrive incrementally and in any order; each pair must
    /// belong to the outstanding batch and may only be answered once.
    /// A submission is checked whole before any of it applies: on `Err`
    /// the batch is as it was. When the last label arrives the session
    /// moves to [`SessionPhase::Training`].
    pub fn submit_labels(&mut self, labels: &[(PairIdx, Label)]) -> Result<SessionPhase> {
        if self.phase != SessionPhase::AwaitingLabels {
            return Err(EmError::InvalidConfig(format!(
                "no labels are awaited in phase {:?}",
                self.phase
            )));
        }
        let Some(batch) = self.pending.as_mut() else {
            return Err(EmError::Internal(
                "phase is AwaitingLabels but no batch is pending".into(),
            ));
        };
        // Each label fills the first unanswered slot of its pair, in a
        // copy that replaces the batch's only once every label found one.
        let mut received = batch.received.clone();
        for &(pair, label) in labels {
            let open = batch
                .pairs
                .iter()
                .zip(&received)
                .position(|(&p, r)| p == pair && r.is_none());
            let Some(slot) = open else {
                return Err(EmError::InvalidConfig(if batch.pairs.contains(&pair) {
                    format!("pair {pair} was already labeled in this batch")
                } else {
                    format!("pair {pair} is not part of the outstanding query batch")
                }));
            };
            received[slot] = Some(label);
        }
        batch.received = received;
        if batch.is_complete() {
            self.complete_batch()?;
        }
        Ok(self.phase)
    }

    /// Move a fully-labeled batch into the train set (batch order, which
    /// is the order the labels were asked for) and arm the training step.
    fn complete_batch(&mut self) -> Result<()> {
        let Some(batch) = self.pending.as_ref() else {
            return Err(EmError::Internal(
                "complete_batch called with no batch pending".into(),
            ));
        };
        debug_assert!(batch.is_complete());
        self.train.extend_from_slice(&batch.pairs);
        self.train_labels.extend(batch.received.iter().flatten());
        self.phase = SessionPhase::Training;
        Ok(())
    }

    /// Drive the session to completion against an oracle — the closed
    /// loop as a few-line client of the step API — and return the final
    /// report.
    pub fn drive(&mut self, oracle: &dyn Oracle) -> Result<RunReport> {
        loop {
            match self.advance()? {
                SessionPhase::AwaitingLabels => {
                    let labels: Vec<(PairIdx, Label)> = self
                        .next_query_batch()
                        .into_iter()
                        .map(|p| (p, oracle.label(self.data.dataset(), p)))
                        .collect();
                    self.submit_labels(&labels)?;
                }
                SessionPhase::Done => break,
                SessionPhase::SeedDraw | SessionPhase::Training => {}
            }
        }
        Ok(self.report())
    }

    // --- Protocol steps (pinned by tests/report_golden.rs). ---------------

    /// Draw the balanced initialisation seed (`seed_size/2` matches and
    /// non-matches; the standard assumption the paper takes from Kasai
    /// et al.) and emit it as the first query batch.
    ///
    /// The *choice* of seed pairs uses ground truth for balance; their
    /// *labels* still come from the caller, so a noisy labeler flows
    /// through identically.
    fn draw_seed_batch(&mut self) -> Result<()> {
        let seed_size = self.config.al.seed_size;
        let mut shuffled = self.pool.clone();
        self.rng.shuffle(&mut shuffled);
        let half = seed_size / 2;
        let mut chosen = Vec::with_capacity(seed_size);
        let mut n_pos = 0usize;
        let mut n_neg = 0usize;
        let mut leftovers = Vec::new();
        for &idx in &shuffled {
            if chosen.len() >= seed_size {
                break;
            }
            let label = self.data.dataset().ground_truth(idx);
            let take = if label.is_match() {
                if n_pos < half {
                    n_pos += 1;
                    true
                } else {
                    false
                }
            } else if n_neg < seed_size - half {
                n_neg += 1;
                true
            } else {
                false
            };
            if take {
                chosen.push(idx);
            } else {
                leftovers.push(idx);
            }
        }
        // If one class ran short (tiny pools), fill with whatever remains.
        for &idx in &leftovers {
            if chosen.len() >= seed_size {
                break;
            }
            chosen.push(idx);
        }
        self.membership.begin();
        for &idx in &chosen {
            self.membership.insert(idx);
        }
        let membership = &self.membership;
        self.pool.retain(|&i| !membership.contains(i));
        self.pending = Some(PendingBatch::new(chosen, Vec::new(), 0.0));
        self.phase = SessionPhase::AwaitingLabels;
        Ok(())
    }

    /// Train on the completed batch, record the iteration, and select
    /// the next query batch (or finish).
    fn train_and_continue(&mut self) -> Result<()> {
        // A failed training/selection step leaves the session errored:
        // the batch that fed it is consumed, so a retried `advance()`
        // reports the poisoned state as an error rather than panicking
        // (or silently re-training).
        let batch = self.pending.take().ok_or_else(|| {
            EmError::InvalidConfig(
                "session is unusable: a previous training/selection step failed".into(),
            )
        })?;
        debug_assert!(batch.is_complete());

        // Fresh per-iteration matcher seed from the session's stream.
        let matcher_config = MatcherConfig {
            seed: self.rng.next_u64(),
            ..self.config.matcher.clone()
        };
        // em-lint: allow(wall-clock) -- fills a RunReport timing field; canonical() zeroes it
        let t_train = Instant::now();
        let (matcher, metrics) = self.train_and_eval(&batch.weak, &matcher_config)?;
        let train_secs = t_train.elapsed().as_secs_f64();
        self.matcher = Some(matcher);

        let new_positives = batch
            .received
            .iter()
            .flatten()
            .filter(|l| l.is_match())
            .count();
        self.iterations.push(IterationRecord {
            iteration: self.iterations.len(),
            labels_used: self.train.len(),
            test_f1_pct: metrics.f1_pct(),
            precision: metrics.precision,
            recall: metrics.recall,
            train_secs,
            select_secs: batch.select_secs,
            new_positives,
            new_labels: batch.pairs.len(),
            weak_used: batch.weak.len(),
        });

        // Loop control: the iteration budget first, then the pool-empty
        // check at the next iteration's top.
        let completed_selections = self.iterations.len() - 1;
        if completed_selections >= self.config.al.iterations || self.pool.is_empty() {
            self.phase = SessionPhase::Done;
            return Ok(());
        }
        self.select_next_batch(completed_selections)
    }

    /// Predict over pool and train, hand the strategy the
    /// representations, and emit its selections as the next query batch.
    fn select_next_batch(&mut self, iteration: usize) -> Result<()> {
        let Some(matcher) = self.matcher.as_ref() else {
            return Err(EmError::Internal(
                "selection step reached before any training step".into(),
            ));
        };
        // em-lint: allow(wall-clock) -- fills a RunReport timing field; canonical() zeroes it
        let t_select = Instant::now();
        let features = self.data.features();
        let pool_out = matcher.predict(features, &self.pool)?;
        let train_out = matcher.predict(features, &self.train)?;

        let budget = self.config.al.budget.min(self.pool.len());
        let mut ctx = SelectionContext {
            dataset: self.data.dataset(),
            features,
            pool: &self.pool,
            train: &self.train,
            train_labels: &self.train_labels,
            pool_preds: &pool_out.predictions,
            pool_reprs: &pool_out.representations,
            train_reprs: &train_out.representations,
            budget,
            iteration,
            config: &self.config,
            scratch: &mut self.scratch,
        };
        let selection = self.strategy.select(&mut ctx, &mut self.rng)?;
        let select_secs = t_select.elapsed().as_secs_f64();

        if selection.to_label.len() > budget {
            return Err(EmError::InvalidConfig(format!(
                "strategy `{}` exceeded its budget: {} > {budget}",
                self.strategy.name(),
                selection.to_label.len()
            )));
        }
        self.membership.begin();
        for &p in &self.pool {
            self.membership.insert(p);
        }
        for &p in &selection.to_label {
            if !self.membership.contains(p) {
                return Err(EmError::InvalidConfig(format!(
                    "strategy `{}` selected pair {p} outside the pool",
                    self.strategy.name()
                )));
            }
        }
        self.membership.begin();
        for &p in &selection.to_label {
            self.membership.insert(p);
        }
        let membership = &self.membership;
        self.pool.retain(|&i| !membership.contains(i));

        let batch = PendingBatch::new(selection.to_label, selection.weak, select_secs);
        let empty = batch.pairs.is_empty();
        self.pending = Some(batch);
        if empty {
            // Nothing to label (a strategy may legally select nothing);
            // the batch is trivially complete — train immediately.
            self.complete_batch()?;
        } else {
            self.phase = SessionPhase::AwaitingLabels;
        }
        Ok(())
    }

    /// Train a matcher on `train ∪ weak` and measure test metrics.
    fn train_and_eval(
        &self,
        weak: &[(PairIdx, Label)],
        matcher_config: &MatcherConfig,
    ) -> Result<(TrainedMatcher, em_core::Metrics)> {
        let mut idx: Vec<PairIdx> = self.train.clone();
        let mut labels: Vec<Label> = self.train_labels.clone();
        for &(p, l) in weak {
            idx.push(p);
            labels.push(l);
        }
        let (dataset, features) = (self.data.dataset(), self.data.features());
        let split = dataset.split();
        let matcher = train_matcher(
            features,
            &idx,
            &labels,
            &split.valid,
            &dataset.ground_truth_of(&split.valid),
            matcher_config,
        )?;
        let predicted = matcher.labels(features, &split.test)?;
        let truth = dataset.ground_truth_of(&split.test);
        let metrics = BinaryConfusion::from_labels(&predicted, &truth)?.metrics();
        Ok((matcher, metrics))
    }
}
