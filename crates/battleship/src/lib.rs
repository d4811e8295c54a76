#![forbid(unsafe_code)]
//! # battleship
//!
//! The paper's contribution: a spatially-aware active-learning selection
//! policy for low-resource entity matching, plus the baselines it is
//! evaluated against and the experiment runner that reproduces the
//! paper's figures and tables.
//!
//! ## The algorithm in one paragraph (§3)
//!
//! Each iteration trains a fresh matcher on the labeled set, extracts a
//! representation and an (over-confident) match probability for every
//! candidate pair, and then plays Battleship in the latent space: the
//! match-predicted and non-match-predicted pools are each clustered with
//! constrained K-Means and woven into pair graphs whose connected
//! components receive budget shares proportional to size (Eq. 2,
//! positively skewed early via `B⁺ = B·max(0.8 − i/20, 0.5)`). Within
//! each component, pairs are ranked by a blend (Eq. 6, weight `α`) of
//! spatial-aware uncertainty (Eq. 4, weight `β` between model entropy
//! and neighbourhood-agreement entropy) and weighted-PageRank centrality
//! (Eq. 5); the top-ranked pairs go to the oracle, and the spatially most
//! *certain* pairs augment the train set as weak labels (§3.7).
//!
//! ## Crate layout
//!
//! * [`config`] — every knob of the algorithm and the experiment
//!   protocol, mirroring §4.2's published values,
//! * [`budget`] — Eq. 2 budget distribution and the `B⁺` schedule
//!   (Example 6 is a unit test),
//! * [`spatial`] — the cluster→graph→components pipeline shared by
//!   selection and weak supervision,
//! * [`selection`] — the battleship scoring and per-component top-k,
//! * [`weak`] — weak supervision (spatial Eq. 4 and DAL-style Eq. 1
//!   variants),
//! * [`strategies`] — [`strategies::SelectionStrategy`] implementations:
//!   Battleship, DAL, DIAL, Random,
//! * [`baselines`] — the non-AL extremes: ZeroER (0 labels) and Full D
//!   (all labels),
//! * [`session`] — the step-driven session API: the protocol loop
//!   inverted into the resumable, checkpointable
//!   [`session::MatchSession`] state machine (seed draw → awaiting
//!   labels → training → done),
//! * [`serve`] — the serving subsystem: the keyed [`serve::SessionStore`]
//!   holding many concurrent sessions over shared artifacts, the
//!   pluggable [`serve::SnapshotCodec`] (JSON or the compact checksummed
//!   binary frame) and [`serve::SnapshotBackend`]s (memory / directory),
//!   with parallel stepping and bit-identical crash recovery,
//! * [`engine`] — the parallel experiment engine: scenario registry,
//!   shared dataset artifacts, grid expansion and the rayon scheduler
//!   that fans dataset × strategy × seed runs out across workers (each
//!   worker drives one session against a perfect oracle),
//! * [`runner`] — the single-run entry point (a thin oracle-driver over
//!   a session) plus the preserved pre-redesign closed loop
//!   ([`runner::run_closed_loop`], the golden/bench reference),
//! * [`report`] — multi-seed and grid aggregation, F1 curves, AUC
//!   (Table 5),
//! * [`blocking`] — the sub-quadratic candidate-generation tier
//!   (exhaustive / token inverted-index / banded SimHash with exact
//!   re-ranking) that scenarios run before featurization, unlocking
//!   10⁵–10⁶-record pools,
//! * [`api`] — the **documented public facade**: one import path for
//!   sessions, strategies, scenarios, reports and the engine.

pub mod api;
pub mod baselines;
pub mod blocking;
pub mod budget;
pub mod config;
pub mod engine;
pub mod report;
pub mod runner;
pub mod selection;
pub mod serve;
pub mod session;
pub mod spatial;
pub mod strategies;
pub mod weak;

pub use baselines::{full_d_f1, zeroer_f1};
pub use blocking::{
    block_tables, BlockingOutput, BlockingSpec, BlockingStats, LshBlocking, MAX_EXHAUSTIVE_PAIRS,
};
pub use budget::{distribute_budget, positive_budget};
pub use config::{
    ALConfig, BattleshipParams, CentralityMeasure, ExperimentConfig, GridConfig, WeakMethod,
};
pub use engine::{
    ArtifactCache, CandidatePool, CellKind, DatasetArtifacts, ExperimentGrid, RunSpec, Scenario,
    ScenarioSource,
};
pub use report::{GridCell, GridReport, IterationRecord, MultiSeedReport, RunReport};
pub use runner::{run_active_learning, run_closed_loop};
pub use serve::{
    DirBackend, MemoryBackend, SessionStatus, SessionStore, SnapshotBackend, SnapshotCodec,
};
pub use session::{MatchSession, SessionConfig, SessionPhase, SessionSnapshot};
pub use spatial::{SpatialIndex, SpatialParams};
pub use strategies::{
    BattleshipStrategy, DalStrategy, DialStrategy, RandomStrategy, SelectionContext,
    SelectionScratch, SelectionStrategy, StrategySpec,
};
