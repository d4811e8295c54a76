//! The stable public facade of the battleship crate.
//!
//! One import path for everything an application needs to run
//! low-resource entity matching — interactively through the
//! step-driven session API, or in batch through the experiment engine:
//!
//! * **Sessions** (the inverted protocol loop): [`MatchSession`],
//!   [`SessionConfig`], [`SessionPhase`], [`SessionSnapshot`] — ask the
//!   session for a query batch, answer at your own pace, checkpoint
//!   mid-iteration, resume bit-identically. See the phase diagram in
//!   [`crate::session`].
//! * **Strategies**: [`StrategySpec`] names the paper's selection
//!   policy and its baselines; the session builds instances internally.
//! * **Configuration**: [`ExperimentConfig`] (protocol + algorithm +
//!   matcher knobs, defaulting to the paper's §4.2 values) and the
//!   grid-level [`GridConfig`].
//! * **Datasets**: [`Scenario`] names a reproducible dataset recipe
//!   (synthetic profile, streamed record pool, or Magellan CSV
//!   directory) and materializes it into shared [`DatasetArtifacts`];
//!   [`ArtifactCache`] deduplicates materialization across runs.
//! * **Blocking**: a [`BlockingSpec`] on the scenario picks the
//!   candidate-generation tier — [`BlockingSpec::Exhaustive`] (the
//!   default, bit-identical to the pre-blocking pair sets), token
//!   inverted-index, or banded-SimHash [`LshBlocking`] — and
//!   [`Scenario::candidate_pool`] runs blocking alone for 10⁵+-record
//!   pools where the full cross product must never exist. See
//!   [`crate::blocking`].
//! * **Reports**: [`RunReport`] / [`IterationRecord`] per run,
//!   [`GridReport`] for engine grids.
//! * **Batch execution**: [`ExperimentGrid`] fans dataset × strategy ×
//!   seed grids out across worker threads; [`run_active_learning`] is
//!   the single-run entry point (a thin oracle-driver over a session).
//! * **Serving**: [`SessionStore`] keys many concurrent sessions by id
//!   over shared artifacts, persists them through a [`SnapshotCodec`]
//!   (JSON or compact binary) into a [`SnapshotBackend`] (memory or
//!   directory), steps every trainable session in parallel and recovers
//!   the whole store bit-identically after a crash. Backend faults are
//!   retried under a bounded [`RetryPolicy`]; recovery falls back past
//!   torn or corrupt checkpoint frames (quarantining them) to the
//!   newest decodable generation, and [`FaultyBackend`] +
//!   [`FaultPlan`] inject reproducible chaos to prove it. See
//!   [`crate::serve`].
//!
//! ```
//! use battleship::api::{
//!     MatchSession, Scenario, SessionConfig, SessionPhase, StrategySpec,
//! };
//! use battleship::ExperimentConfig;
//! use em_synth::DatasetProfile;
//!
//! // Materialize a (tiny) reproducible scenario…
//! let art = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5)
//!     .materialize()
//!     .unwrap();
//!
//! // …and open an interactive session on it.
//! let mut experiment = ExperimentConfig::low_resource(1, 10);
//! experiment.al.seed_size = 10;
//! experiment.matcher.epochs = 2;
//! experiment.battleship.kselect_sample = 128;
//! let mut session = MatchSession::new(
//!     &art.dataset,
//!     &art.features,
//!     SessionConfig { experiment, strategy: StrategySpec::Random, seed: 3 },
//! )
//! .unwrap();
//!
//! // The session asks; this labeler answers from ground truth.
//! loop {
//!     match session.advance().unwrap() {
//!         SessionPhase::AwaitingLabels => {
//!             let answers: Vec<_> = session
//!                 .next_query_batch()
//!                 .into_iter()
//!                 .map(|p| (p, art.dataset.ground_truth(p)))
//!                 .collect();
//!             session.submit_labels(&answers).unwrap();
//!         }
//!         SessionPhase::Done => break,
//!         _ => {}
//!     }
//! }
//! assert!(session.report().final_f1().is_some());
//! ```
//!
//! Blocking-scale pools skip the exhaustive pair matrix entirely: the
//! LSH tier extracts the candidate pool straight from the raw tables.
//!
//! ```
//! use battleship::api::{BlockingSpec, LshBlocking, Scenario};
//! use em_synth::{blocking_recall, PoolProfile};
//!
//! let scenario = Scenario::pool(PoolProfile::products("api-pool", 2000), 7)
//!     .with_blocking(BlockingSpec::Lsh(LshBlocking::default()));
//! assert_eq!(scenario.name(), "api-pool+lsh8x32");
//!
//! // Blocking only: candidates + truth, no featurization, no O(n²).
//! let pool = scenario.candidate_pool().unwrap();
//! let recall = blocking_recall(&pool.blocking.candidates, &pool.true_matches);
//! assert!(recall >= 0.95);
//! assert!(pool.blocking.stats.reduction_ratio > 0.9);
//!
//! // Or materialize end-to-end: the blocked candidates become an
//! // ordinary labeled dataset any session or grid can run on.
//! let art = scenario.materialize().unwrap();
//! assert_eq!(art.dataset.len(), pool.blocking.candidates.len());
//! ```

pub use crate::blocking::{
    block_tables, BlockingOutput, BlockingSpec, BlockingStats, LshBlocking, MAX_EXHAUSTIVE_PAIRS,
};
pub use crate::config::{ALConfig, BattleshipParams, ExperimentConfig, GridConfig};
pub use crate::engine::{
    ArtifactCache, CandidatePool, CellKind, DatasetArtifacts, ExperimentGrid, RunSpec, Scenario,
    ScenarioSource,
};
pub use crate::report::{GridCell, GridReport, IterationRecord, MultiSeedReport, RunReport};
pub use crate::runner::run_active_learning;
pub use crate::serve::{
    DirBackend, Fault, FaultPlan, FaultStats, FaultyBackend, MemoryBackend, RecoveryReport,
    RetryPolicy, SessionStatus, SessionStore, SnapshotBackend, SnapshotCodec,
};
pub use crate::session::{
    MatchSession, PendingSnapshot, SessionConfig, SessionPhase, SessionSnapshot, SNAPSHOT_VERSION,
};
pub use crate::strategies::{
    Selection, SelectionContext, SelectionScratch, SelectionStrategy, StrategySpec,
};

// The session API's labeling types come from `em-core`; re-export them
// so interactive clients need only this module.
pub use em_core::{Label, NoisyOracle, Oracle, PairIdx, PerfectOracle};
