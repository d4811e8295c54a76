//! The compact binary encoding of [`SessionSnapshot`] — the serving
//! layer's persistence format.
//!
//! A session checkpoint is dominated by the matcher's flat `f32`
//! parameters; JSON renders those at several bytes per byte of payload.
//! This module encodes the complete snapshot into one checksummed
//! little-endian frame (see `em_core::codec` for the wire primitives,
//! the word-wide frame checksum and the corruption-detection contract):
//! a `BSSS` magic, a format version byte (5; a frame of any other
//! version is rejected), every scalar field in declaration order, and
//! the nested checkpointable types ([`RngState`](em_core::RngState),
//! [`MatcherSnapshot`](em_matcher::MatcherSnapshot)) embedded as their
//! own framed blocks — each carries its own magic/version/checksum, so
//! a format bump in any layer is detected exactly where it happens.
//! The frame holds only what the run decided: the unlabeled pool and
//! the scratch membership set are not in it (a restore rederives the
//! pool from the train split and rebuilds the set empty), nor is the
//! pending batch's kind. Format 4 still carried the pool and that kind,
//! format 3 the membership set; neither has a read path.
//!
//! The matcher field is a tag: absent (no training yet), inline (the
//! matcher's own frame follows), or a blob reference — the checksum and
//! length of a matcher frame stored beside the session frame. A
//! standalone [`SessionSnapshot::to_bytes`] is always self-contained
//! (absent or inline); the [`SessionStore`](crate::serve::SessionStore)
//! writes blob references, so the matcher, which changes once per
//! training, is not rewritten with every label. Only the store resolves
//! a reference; [`SessionSnapshot::from_bytes`] rejects such a frame.
//!
//! The contract, pinned by the codec golden tests in
//! `tests/serve_api.rs`: `from_bytes(to_bytes(s)) == s` for every
//! snapshot a session can produce, and a session restored from the
//! binary frame continues **bit-identically** to one restored from the
//! JSON path. Corrupt input (truncated, bit-flipped, wrong
//! magic/version) always decodes to a structured
//! [`EmError::Codec`](em_core::EmError) — never a panic.

use em_core::codec::{read_frame, write_frame, ByteReader, ByteWriter};
use em_core::{EmError, Label, Result, RngState};
use em_matcher::{MatcherConfig, MatcherSnapshot};

use crate::config::{ALConfig, BattleshipParams, CentralityMeasure, ExperimentConfig, WeakMethod};
use crate::report::IterationRecord;
use crate::strategies::StrategySpec;

use super::{PendingSnapshot, SessionPhase, SessionSnapshot};

/// Binary frame magic for [`SessionSnapshot`].
const SESSION_MAGIC: [u8; 4] = *b"BSSS";
/// Binary format version for [`SessionSnapshot`] frames.
const SESSION_BINARY_VERSION: u8 = 5;

/// Matcher field tag: no matcher trained yet.
const MATCHER_ABSENT: u8 = 0;
/// Matcher field tag: the matcher's own frame is embedded.
const MATCHER_INLINE: u8 = 1;
/// Matcher field tag: the frame names a matcher blob stored beside it.
const MATCHER_BLOB: u8 = 2;

/// A session frame's reference to a matcher persisted as its own blob:
/// the checksum and length of the blob, which is exactly a
/// [`MatcherSnapshot::to_bytes`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatcherBlobRef {
    /// The blob's frame checksum (its last 8 bytes).
    pub checksum: u64,
    /// The blob's length in bytes.
    pub len: u64,
}

impl MatcherBlobRef {
    /// The reference naming `blob`, a [`MatcherSnapshot::to_bytes`]
    /// frame (so its trailer is the frame checksum).
    pub(crate) fn of(blob: &[u8]) -> Self {
        let mut trailer = [0u8; 8];
        if let Some(tail) = blob.len().checked_sub(8).map(|at| &blob[at..]) {
            trailer.copy_from_slice(tail);
        }
        MatcherBlobRef {
            checksum: u64::from_le_bytes(trailer),
            len: blob.len() as u64,
        }
    }

    /// Whether `bytes` carry this reference's length and checksum
    /// trailer. Decoding the blob then verifies the checksum itself.
    pub(crate) fn names(&self, bytes: &[u8]) -> bool {
        MatcherBlobRef::of(bytes) == *self
    }
}

fn put_label(w: &mut ByteWriter, label: Label) {
    w.put_u8(label.is_match() as u8);
}

fn get_label(r: &mut ByteReader<'_>) -> Result<Label> {
    match r.get_u8()? {
        0 => Ok(Label::NonMatch),
        1 => Ok(Label::Match),
        other => Err(EmError::Codec(format!(
            "SessionSnapshot: invalid label byte {other}"
        ))),
    }
}

fn put_labels(w: &mut ByteWriter, labels: &[Label]) {
    w.put_varint(labels.len() as u64);
    for &l in labels {
        put_label(w, l);
    }
}

fn get_labels(r: &mut ByteReader<'_>) -> Result<Vec<Label>> {
    let n = r.get_varint_usize()?;
    if n > r.remaining() {
        return Err(EmError::Codec(format!(
            "SessionSnapshot: corrupt label count {n} with {} bytes remaining",
            r.remaining()
        )));
    }
    (0..n).map(|_| get_label(r)).collect()
}

/// `(pair, label)` lists — the pending batch's weak set and received
/// answers share the shape.
fn put_pair_labels(w: &mut ByteWriter, xs: &[(usize, Label)]) {
    w.put_varint(xs.len() as u64);
    for &(p, l) in xs {
        w.put_varint(p as u64);
        put_label(w, l);
    }
}

fn get_pair_labels(r: &mut ByteReader<'_>) -> Result<Vec<(usize, Label)>> {
    let n = r.get_varint_usize()?;
    // Each entry is at least one varint byte plus the label byte.
    if n.checked_mul(2).is_none_or(|b| b > r.remaining()) {
        return Err(EmError::Codec(format!(
            "SessionSnapshot: corrupt pair-label count {n} with {} bytes remaining",
            r.remaining()
        )));
    }
    (0..n)
        .map(|_| Ok((r.get_varint_usize()?, get_label(r)?)))
        .collect()
}

fn put_experiment(w: &mut ByteWriter, c: &ExperimentConfig) {
    // ALConfig.
    w.put_varint(c.al.budget as u64);
    w.put_varint(c.al.iterations as u64);
    w.put_varint(c.al.seed_size as u64);
    w.put_varint(c.al.weak_budget as u64);
    w.put_bool(c.al.weak_supervision);
    // BattleshipParams.
    w.put_f64(c.battleship.alpha);
    w.put_f64(c.battleship.beta);
    w.put_varint(c.battleship.q as u64);
    w.put_f64(c.battleship.extra_ratio);
    w.put_f64(c.battleship.cluster_min_frac);
    w.put_f64(c.battleship.cluster_max_frac);
    w.put_f64(c.battleship.rho);
    w.put_varint(c.battleship.kselect_sample as u64);
    w.put_varint(c.battleship.ann_cluster_threshold as u64);
    w.put_u8(match c.battleship.weak_method {
        WeakMethod::Spatial => 0,
        WeakMethod::Entropy => 1,
    });
    w.put_u8(match c.battleship.centrality {
        CentralityMeasure::PageRank => 0,
        CentralityMeasure::Betweenness => 1,
    });
    // MatcherConfig.
    w.put_varints(&c.matcher.hidden);
    w.put_varint(c.matcher.epochs as u64);
    w.put_varint(c.matcher.batch_size as u64);
    w.put_f32(c.matcher.lr);
    w.put_f32(c.matcher.weight_decay);
    w.put_f32(c.matcher.temperature);
    w.put_u64(c.matcher.seed);
}

fn get_experiment(r: &mut ByteReader<'_>) -> Result<ExperimentConfig> {
    let al = ALConfig {
        budget: r.get_varint_usize()?,
        iterations: r.get_varint_usize()?,
        seed_size: r.get_varint_usize()?,
        weak_budget: r.get_varint_usize()?,
        weak_supervision: r.get_bool()?,
    };
    let battleship = BattleshipParams {
        alpha: r.get_f64()?,
        beta: r.get_f64()?,
        q: r.get_varint_usize()?,
        extra_ratio: r.get_f64()?,
        cluster_min_frac: r.get_f64()?,
        cluster_max_frac: r.get_f64()?,
        rho: r.get_f64()?,
        kselect_sample: r.get_varint_usize()?,
        ann_cluster_threshold: r.get_varint_usize()?,
        weak_method: match r.get_u8()? {
            0 => WeakMethod::Spatial,
            1 => WeakMethod::Entropy,
            other => {
                return Err(EmError::Codec(format!(
                    "SessionSnapshot: unknown weak-method tag {other}"
                )))
            }
        },
        centrality: match r.get_u8()? {
            0 => CentralityMeasure::PageRank,
            1 => CentralityMeasure::Betweenness,
            other => {
                return Err(EmError::Codec(format!(
                    "SessionSnapshot: unknown centrality tag {other}"
                )))
            }
        },
    };
    let matcher = MatcherConfig {
        hidden: r.get_varints()?,
        epochs: r.get_varint_usize()?,
        batch_size: r.get_varint_usize()?,
        lr: r.get_f32()?,
        weight_decay: r.get_f32()?,
        temperature: r.get_f32()?,
        seed: r.get_u64()?,
    };
    Ok(ExperimentConfig {
        al,
        battleship,
        matcher,
    })
}

fn put_iteration(w: &mut ByteWriter, it: &IterationRecord) {
    w.put_varint(it.iteration as u64);
    w.put_varint(it.labels_used as u64);
    w.put_f64(it.test_f1_pct);
    w.put_f64(it.precision);
    w.put_f64(it.recall);
    w.put_f64(it.train_secs);
    w.put_f64(it.select_secs);
    w.put_varint(it.new_positives as u64);
    w.put_varint(it.new_labels as u64);
    w.put_varint(it.weak_used as u64);
}

fn get_iteration(r: &mut ByteReader<'_>) -> Result<IterationRecord> {
    Ok(IterationRecord {
        iteration: r.get_varint_usize()?,
        labels_used: r.get_varint_usize()?,
        test_f1_pct: r.get_f64()?,
        precision: r.get_f64()?,
        recall: r.get_f64()?,
        train_secs: r.get_f64()?,
        select_secs: r.get_f64()?,
        new_positives: r.get_varint_usize()?,
        new_labels: r.get_varint_usize()?,
        weak_used: r.get_varint_usize()?,
    })
}

fn put_pending(w: &mut ByteWriter, p: &PendingSnapshot) {
    w.put_varints(&p.pairs);
    put_pair_labels(w, &p.weak);
    w.put_f64(p.select_secs);
    put_pair_labels(w, &p.received);
}

fn get_pending(r: &mut ByteReader<'_>) -> Result<PendingSnapshot> {
    Ok(PendingSnapshot {
        pairs: r.get_varints()?,
        weak: get_pair_labels(r)?,
        select_secs: r.get_f64()?,
        received: get_pair_labels(r)?,
    })
}

fn strategy_tag(spec: StrategySpec) -> u8 {
    match spec {
        StrategySpec::Battleship => 0,
        StrategySpec::Dal => 1,
        StrategySpec::Dial => 2,
        StrategySpec::Random => 3,
    }
}

fn strategy_from_tag(tag: u8) -> Result<StrategySpec> {
    Ok(match tag {
        0 => StrategySpec::Battleship,
        1 => StrategySpec::Dal,
        2 => StrategySpec::Dial,
        3 => StrategySpec::Random,
        other => {
            return Err(EmError::Codec(format!(
                "SessionSnapshot: unknown strategy tag {other}"
            )))
        }
    })
}

fn phase_tag(phase: SessionPhase) -> u8 {
    match phase {
        SessionPhase::SeedDraw => 0,
        SessionPhase::AwaitingLabels => 1,
        SessionPhase::Training => 2,
        SessionPhase::Done => 3,
    }
}

fn phase_from_tag(tag: u8) -> Result<SessionPhase> {
    Ok(match tag {
        0 => SessionPhase::SeedDraw,
        1 => SessionPhase::AwaitingLabels,
        2 => SessionPhase::Training,
        3 => SessionPhase::Done,
        other => {
            return Err(EmError::Codec(format!(
                "SessionSnapshot: unknown phase tag {other}"
            )))
        }
    })
}

impl SessionSnapshot {
    /// Encode the complete snapshot as one compact, checksummed binary
    /// frame.
    ///
    /// The result restores (via [`SessionSnapshot::from_bytes`] and
    /// [`MatchSession::restore`](super::MatchSession::restore))
    /// bit-identically to the JSON path — same rng stream, same model
    /// parameters, same half-labeled batch — at a fraction of the size
    /// (the float-dominated payload is written as raw bit patterns).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(None)
    }

    /// The binary frame with the matcher field naming `blob` instead of
    /// carrying a matcher (the snapshot's own `matcher` is not written).
    /// Only [`SessionSnapshot::decode_frame`] reads such a frame back.
    pub(crate) fn to_bytes_naming(&self, blob: MatcherBlobRef) -> Vec<u8> {
        self.encode(Some(blob))
    }

    fn encode(&self, blob: Option<MatcherBlobRef>) -> Vec<u8> {
        let matcher_bytes = match blob {
            Some(_) => None,
            None => self.matcher.as_ref().map(|m| m.to_bytes()),
        };
        let mut w = ByteWriter::with_capacity(
            matcher_bytes.as_ref().map_or(0, |b| b.len()) + 4 * self.train.len() + 256,
        );
        w.put_u32(self.version);
        w.put_str(&self.dataset);
        w.put_u64(self.seed);
        w.put_u8(strategy_tag(self.strategy));
        put_experiment(&mut w, &self.config);
        w.put_u8(phase_tag(self.phase));
        w.put_bytes(&self.rng.to_bytes());
        w.put_varints(&self.train);
        put_labels(&mut w, &self.train_labels);
        match (blob, &matcher_bytes) {
            (Some(blob), _) => {
                w.put_u8(MATCHER_BLOB);
                w.put_u64(blob.checksum);
                w.put_u64(blob.len);
            }
            (None, Some(b)) => {
                w.put_u8(MATCHER_INLINE);
                w.put_bytes(b);
            }
            (None, None) => w.put_u8(MATCHER_ABSENT),
        }
        w.put_varint(self.iterations.len() as u64);
        for it in &self.iterations {
            put_iteration(&mut w, it);
        }
        match &self.pending {
            Some(p) => {
                w.put_bool(true);
                put_pending(&mut w, p);
            }
            None => w.put_bool(false),
        }
        write_frame(SESSION_MAGIC, SESSION_BINARY_VERSION, w.as_slice())
    }

    /// Decode a frame written by [`SessionSnapshot::to_bytes`].
    ///
    /// Any corruption — truncation, a flipped bit anywhere in the
    /// frame, a wrong magic or format version, an invalid enum tag — is
    /// a structured [`EmError::Codec`]; this function never panics and
    /// never trusts a length prefix beyond the bytes actually present.
    /// Semantic validation (dataset identity, index ranges, phase
    /// coherence) happens in
    /// [`MatchSession::restore`](super::MatchSession::restore), same as
    /// for a JSON-decoded snapshot. A frame that names a matcher blob
    /// (written by a [`SessionStore`](crate::serve::SessionStore)) is a
    /// structured error here: only the store can resolve the blob.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionSnapshot> {
        match Self::decode_frame(bytes)? {
            (snapshot, None) => Ok(snapshot),
            (_, Some(_)) => Err(EmError::Codec(
                "SessionSnapshot: the frame names a matcher blob stored beside it; \
                 restore it through the session store that wrote it"
                    .into(),
            )),
        }
    }

    /// Decode any binary session frame: the snapshot, plus the matcher
    /// blob the frame names, if it names one (the snapshot's `matcher`
    /// is then `None` until the caller resolves the blob).
    pub(crate) fn decode_frame(bytes: &[u8]) -> Result<(SessionSnapshot, Option<MatcherBlobRef>)> {
        let payload = read_frame(
            bytes,
            SESSION_MAGIC,
            SESSION_BINARY_VERSION,
            "SessionSnapshot",
        )?;
        let mut r = ByteReader::new(payload, "SessionSnapshot");
        let version = r.get_u32()?;
        let dataset = r.get_str()?;
        let seed = r.get_u64()?;
        let strategy = strategy_from_tag(r.get_u8()?)?;
        let config = get_experiment(&mut r)?;
        let phase = phase_from_tag(r.get_u8()?)?;
        let rng = RngState::from_bytes(r.get_bytes()?)?;
        let train = r.get_varints()?;
        let train_labels = get_labels(&mut r)?;
        let (matcher, blob) = match r.get_u8()? {
            MATCHER_ABSENT => (None, None),
            MATCHER_INLINE => (Some(MatcherSnapshot::from_bytes(r.get_bytes()?)?), None),
            MATCHER_BLOB => {
                let checksum = r.get_u64()?;
                let len = r.get_u64()?;
                (None, Some(MatcherBlobRef { checksum, len }))
            }
            other => {
                return Err(EmError::Codec(format!(
                    "SessionSnapshot: unknown matcher tag {other}"
                )))
            }
        };
        let n_iterations = r.get_varint_usize()?;
        if n_iterations > r.remaining() {
            return Err(EmError::Codec(format!(
                "SessionSnapshot: corrupt iteration count {n_iterations} with {} bytes remaining",
                r.remaining()
            )));
        }
        let iterations = (0..n_iterations)
            .map(|_| get_iteration(&mut r))
            .collect::<Result<Vec<_>>>()?;
        let pending = if r.get_bool()? {
            Some(get_pending(&mut r)?)
        } else {
            None
        };
        r.finish()?;
        let snapshot = SessionSnapshot {
            version,
            dataset,
            seed,
            strategy,
            config,
            phase,
            rng,
            train,
            train_labels,
            matcher,
            iterations,
            pending,
        };
        Ok((snapshot, blob))
    }

    /// The snapshot's size in bytes under `codec` — what a serving
    /// deployment budgets per checkpoint (the `interactive_labeling`
    /// example logs the JSON-vs-binary ratio through this).
    pub fn encoded_len(&self, codec: crate::serve::SnapshotCodec) -> Result<usize> {
        Ok(codec.encode(self)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built snapshot exercising every optional field.
    fn sample_snapshot() -> SessionSnapshot {
        SessionSnapshot {
            version: super::super::SNAPSHOT_VERSION,
            dataset: "amazon-google@0.04".into(),
            seed: 0xDEAD_BEEF,
            strategy: StrategySpec::Battleship,
            config: ExperimentConfig::default(),
            phase: SessionPhase::AwaitingLabels,
            rng: em_core::Rng::seed_from_u64(9).state(),
            train: vec![1, 4],
            train_labels: vec![Label::Match, Label::NonMatch],
            matcher: Some(MatcherSnapshot {
                input_dim: 4,
                hidden: vec![3, 2],
                params: vec![
                    0.25,
                    -1.5,
                    f32::MIN_POSITIVE,
                    0.0,
                    3.25,
                    -0.125,
                    7.0,
                    1.0,
                    2.0,
                    3.0,
                    4.0,
                    5.0,
                    6.0,
                    7.0,
                    8.0,
                    9.0,
                    10.0,
                    11.0,
                    12.0,
                    13.0,
                    14.0,
                    15.0,
                    16.0,
                    17.0,
                    18.0,
                    19.0,
                    20.0,
                ],
                temperature: 0.25,
                best_valid_f1: 0.875,
                best_epoch: 3,
            }),
            iterations: vec![IterationRecord {
                iteration: 0,
                labels_used: 20,
                test_f1_pct: 61.25,
                precision: 0.5,
                recall: 0.75,
                train_secs: 0.125,
                select_secs: 0.0,
                new_positives: 10,
                new_labels: 20,
                weak_used: 0,
            }],
            pending: Some(PendingSnapshot {
                pairs: vec![5, 9, 5],
                weak: vec![(2, Label::NonMatch)],
                select_secs: 0.5,
                received: vec![(0, Label::Match), (2, Label::NonMatch)],
            }),
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);

        // No-matcher / no-pending variants round-trip too.
        let mut lean = snap.clone();
        lean.matcher = None;
        lean.pending = None;
        lean.phase = SessionPhase::SeedDraw;
        let back = SessionSnapshot::from_bytes(&lean.to_bytes()).unwrap();
        assert_eq!(back, lean);

        // A frame naming a matcher blob round-trips the reference; only
        // `decode_frame` accepts it.
        let blob_bytes = snap.matcher.as_ref().unwrap().to_bytes();
        let blob = MatcherBlobRef::of(&blob_bytes);
        assert!(blob.names(&blob_bytes));
        let mut loop_state = snap.clone();
        loop_state.matcher = None;
        let framed = loop_state.to_bytes_naming(blob);
        let (back, named) = SessionSnapshot::decode_frame(&framed).unwrap();
        assert_eq!((back, named), (loop_state, Some(blob)));
        let err = SessionSnapshot::from_bytes(&framed).unwrap_err();
        assert!(err.to_string().contains("matcher blob"), "{err}");
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = sample_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            match SessionSnapshot::from_bytes(&bytes[..cut]) {
                Err(EmError::Codec(_)) => {}
                Err(other) => panic!("truncation at {cut} gave non-codec error {other}"),
                Ok(_) => panic!("truncation at {cut} decoded successfully"),
            }
        }
    }

    #[test]
    fn bit_flips_are_always_detected() {
        let bytes = sample_snapshot().to_bytes();
        // Every byte, one flipped bit (full per-bit sweep lives in the
        // serve proptest).
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x04;
            assert!(
                SessionSnapshot::from_bytes(&bad).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn invalid_enum_tags_are_rejected() {
        let mut snap = sample_snapshot();
        snap.matcher = None; // keep the frame small
        let good = snap.to_bytes();
        // Re-frame with a corrupted strategy tag: decode the payload,
        // patch, re-frame (so the checksum is valid and the tag check
        // itself must fire).
        let payload = read_frame(&good, SESSION_MAGIC, SESSION_BINARY_VERSION, "t").unwrap();
        let mut patched = payload.to_vec();
        // Offset of the strategy tag: version(4) + dataset(8 + len) + seed(8).
        let off = 4 + 8 + snap.dataset.len() + 8;
        assert!(patched[off] <= 3);
        patched[off] = 250;
        let reframed = write_frame(SESSION_MAGIC, SESSION_BINARY_VERSION, &patched);
        let err = SessionSnapshot::from_bytes(&reframed).unwrap_err();
        assert!(err.to_string().contains("strategy tag"), "{err}");
    }
}
