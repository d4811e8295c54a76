//! Serde checkpoints for [`MatchSession`]: persist a session
//! mid-iteration, resume it bit-identically.
//!
//! A snapshot captures what the run decided: the labeled set and its
//! answers, the rng stream position, the current matcher's parameters
//! and the in-flight query batch with its partially-received labels.
//! It does *not* capture the dataset or its features: those are
//! immutable artifacts the caller re-supplies on restore (they are
//! orders of magnitude larger than the loop state and already shared
//! via [`crate::engine::ArtifactCache`]). Nor does it capture what the
//! session derives from those: the unlabeled pool (the train split
//! minus the labeled and in-flight pairs, in split order), the
//! membership set every step clears before use and the selection
//! scratch. A JSON snapshot that still has the `membership`, `pool` or
//! `is_seed` keys of earlier layouts restores: deserialization ignores
//! unknown keys, and each of them held only state the session derives.
//!
//! The contract, pinned by `tests/session_api.rs`: snapshot at *any*
//! phase, serialize to JSON, deserialize, [`MatchSession::restore`],
//! finish the run — the resulting [`crate::report::RunReport`] equals
//! the uninterrupted run's bit-for-bit (modulo wall-clock fields
//! recorded after the restore point).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use em_core::{Dataset, EmError, Label, PairIdx, Result, Rng, RngState};
use em_matcher::{MatcherSnapshot, TrainedMatcher};
use em_vector::Embeddings;

use crate::config::ExperimentConfig;
use crate::engine::DatasetArtifacts;
use crate::report::IterationRecord;
use crate::strategies::{SelectionStrategy, StrategySpec};

use super::{Data, MatchSession, PendingBatch, SessionPhase};

/// Snapshot format version, bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The in-flight query batch, serialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingSnapshot {
    /// Pairs sent to the labeler, in emission order.
    pub pairs: Vec<PairIdx>,
    /// Weak pseudo-labels riding with the batch (§3.7).
    pub weak: Vec<(PairIdx, Label)>,
    /// Wall-clock of the predict+select step that produced the batch.
    pub select_secs: f64,
    /// Labels received so far, as `(position in pairs, label)`.
    pub received: Vec<(usize, Label)>,
}

/// The complete serializable state of a [`MatchSession`].
///
/// Produced by [`MatchSession::snapshot`], consumed by
/// [`MatchSession::restore`]. JSON round-trips exactly: every float in
/// here survives `serde_json` bit-for-bit (finite shortest-round-trip
/// formatting), so a restored session continues the identical stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Name of the dataset the session ran on (consistency-checked on
    /// restore).
    pub dataset: String,
    /// The run seed.
    pub seed: u64,
    /// The strategy to rebuild on restore.
    pub strategy: StrategySpec,
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Current protocol phase.
    pub phase: SessionPhase,
    /// The rng mid-stream.
    pub rng: RngState,
    /// Labeled pairs so far.
    pub train: Vec<PairIdx>,
    /// Labels aligned with `train`.
    pub train_labels: Vec<Label>,
    /// The current model, if the first training step has run.
    pub matcher: Option<MatcherSnapshot>,
    /// Per-iteration records so far.
    pub iterations: Vec<IterationRecord>,
    /// The outstanding query batch, if any.
    pub pending: Option<PendingSnapshot>,
}

impl<S: SelectionStrategy + ?Sized> MatchSession<'_, S> {
    /// Capture the session's complete loop state for persistence.
    ///
    /// Only sessions opened from a [`SessionConfig`](super::SessionConfig)
    /// (i.e. with a [`StrategySpec`]) can be checkpointed: restore has
    /// to rebuild the strategy, and a caller-managed `&mut dyn` strategy
    /// can't be serialized. All built-in strategies are stateless across
    /// iterations, so spec-rebuilding is exact.
    pub fn snapshot(&self) -> Result<SessionSnapshot> {
        let mut snapshot = self.snapshot_without_matcher()?;
        snapshot.matcher = self.matcher.as_ref().map(|m| m.to_snapshot());
        Ok(snapshot)
    }

    /// [`MatchSession::snapshot`] with `matcher: None`, for a store that
    /// persists the matcher on its own, once per training: capturing
    /// the matcher copies every parameter.
    pub(crate) fn snapshot_without_matcher(&self) -> Result<SessionSnapshot> {
        let strategy = self.strategy_spec.ok_or_else(|| {
            EmError::InvalidConfig(
                "snapshot requires a session built from a StrategySpec \
                 (MatchSession::new); caller-managed strategies cannot be serialized"
                    .into(),
            )
        })?;
        let pending = self.pending.as_ref().map(|b| PendingSnapshot {
            pairs: b.pairs.clone(),
            weak: b.weak.clone(),
            select_secs: b.select_secs,
            received: b
                .received
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.map(|l| (i, l)))
                .collect(),
        });
        Ok(SessionSnapshot {
            version: SNAPSHOT_VERSION,
            dataset: self.data.dataset().name.clone(),
            seed: self.seed,
            strategy,
            config: self.config.clone(),
            phase: self.phase,
            rng: self.rng.state(),
            train: self.train.clone(),
            train_labels: self.train_labels.clone(),
            matcher: None,
            iterations: self.iterations.clone(),
            pending,
        })
    }
}

impl<'a> MatchSession<'a> {
    /// Rebuild a session from a snapshot against the (re-supplied)
    /// immutable dataset artifacts.
    ///
    /// The restored session continues the run bit-identically: same rng
    /// stream, same pool (rederived, in the same order), same model
    /// parameters, same half-labeled batch. Errors if the snapshot is
    /// malformed or does not belong to `dataset`.
    pub fn restore(
        dataset: &'a Dataset,
        features: &'a Embeddings,
        snapshot: &SessionSnapshot,
    ) -> Result<MatchSession<'a>> {
        Self::restored(
            Data::Borrowed(dataset, features),
            snapshot.strategy.build(),
            snapshot,
        )
    }
}

impl MatchSession<'static, dyn SelectionStrategy + Send> {
    /// [`MatchSession::restore`] onto shared artifacts, for the store.
    pub(crate) fn restore_shared(
        artifacts: Arc<DatasetArtifacts>,
        snapshot: &SessionSnapshot,
    ) -> Result<Self> {
        Self::restored(Data::Shared(artifacts), snapshot.strategy.build(), snapshot)
    }
}

impl<'a, S: SelectionStrategy + ?Sized> MatchSession<'a, S> {
    fn restored(data: Data<'a>, strategy: Box<S>, snapshot: &SessionSnapshot) -> Result<Self> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(EmError::InvalidConfig(format!(
                "unsupported session snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        let dataset = data.dataset();
        if snapshot.dataset != dataset.name {
            return Err(EmError::InvalidConfig(format!(
                "snapshot belongs to dataset `{}`, not `{}`",
                snapshot.dataset, dataset.name
            )));
        }
        if snapshot.train.len() != snapshot.train_labels.len() {
            return Err(EmError::DimensionMismatch {
                context: "session snapshot train labels".into(),
                expected: snapshot.train.len(),
                actual: snapshot.train_labels.len(),
            });
        }
        let pending_pairs = snapshot.pending.iter().flat_map(|p| &p.pairs);
        let pending_weak = snapshot
            .pending
            .iter()
            .flat_map(|p| &p.weak)
            .map(|(i, _)| i);
        for (what, mut idx) in [
            (
                "train",
                Box::new(snapshot.train.iter()) as Box<dyn Iterator<Item = &usize>>,
            ),
            ("pending batch", Box::new(pending_pairs)),
            ("pending weak set", Box::new(pending_weak)),
        ] {
            if let Some(&bad) = idx.find(|&&i| i >= dataset.len()) {
                return Err(EmError::IndexOutOfBounds {
                    context: format!("session snapshot {what}"),
                    index: bad,
                    len: dataset.len(),
                });
            }
        }

        // Open a fresh session (validating config/features, with the
        // whole train split as its pool), then overwrite the loop state
        // with the snapshot's.
        let mut session = Self::open(
            data,
            strategy,
            Some(snapshot.strategy),
            snapshot.config.clone(),
            snapshot.seed,
        )?;
        session.rng = Rng::from_state(&snapshot.rng)?;
        session.train = snapshot.train.clone();
        session.train_labels = snapshot.train_labels.clone();
        session.matcher = snapshot
            .matcher
            .as_ref()
            .map(TrainedMatcher::from_snapshot)
            .transpose()?;
        session.iterations = snapshot.iterations.clone();
        session.phase = snapshot.phase;
        session.pending = snapshot.pending.as_ref().map(restore_pending).transpose()?;

        // The pool the run left: the seed draw and every selection take
        // exactly the batch they emit out of the pool with an
        // order-preserving retain, and a batch stays pending until it
        // trains, so removing the labeled and pending pairs from the
        // train split rebuilds it, order included.
        session.membership.begin();
        let pending = session.pending.iter().flat_map(|b| &b.pairs);
        for &p in session.train.iter().chain(pending) {
            session.membership.insert(p);
        }
        let membership = &session.membership;
        session.pool.retain(|&i| !membership.contains(i));

        // Phase coherence: the states the machine can actually rest in.
        match session.phase {
            SessionPhase::AwaitingLabels => {
                if session.pending.is_none() {
                    return Err(EmError::InvalidConfig(
                        "snapshot awaits labels but has no pending batch".into(),
                    ));
                }
            }
            SessionPhase::Training => {
                if !session.pending.as_ref().is_some_and(|b| b.is_complete()) {
                    return Err(EmError::InvalidConfig(
                        "snapshot in Training phase needs a fully-labeled batch".into(),
                    ));
                }
            }
            SessionPhase::SeedDraw | SessionPhase::Done => {}
        }
        Ok(session)
    }
}

/// Rebuild the in-flight batch (its received vector is reconstructed
/// from the sparse `(position, label)` list).
fn restore_pending(snap: &PendingSnapshot) -> Result<PendingBatch> {
    let mut batch = PendingBatch::new(snap.pairs.clone(), snap.weak.clone(), snap.select_secs);
    for &(pos, label) in &snap.received {
        let slot = batch
            .received
            .get_mut(pos)
            .ok_or_else(|| EmError::IndexOutOfBounds {
                context: "session snapshot pending labels".into(),
                index: pos,
                len: snap.pairs.len(),
            })?;
        if slot.is_some() {
            return Err(EmError::InvalidConfig(format!(
                "session snapshot labels batch position {pos} twice"
            )));
        }
        *slot = Some(label);
    }
    Ok(batch)
}
