//! The matcher training loop and prediction interface.
//!
//! Follows the paper's protocol (§4.2): each active-learning iteration
//! trains a *fresh* model ("the parameters of DITTO in an active learning
//! iteration are initialized without using the values of previous
//! iterations") for a fixed number of epochs, keeping the parameters of
//! the epoch with the best validation F1. Prediction produces, per pair,
//! the match probability (temperature-sharpened, see
//! [`crate::calibration`]) and the pair representation.
//!
//! Both halves run on the batched engine (see [`crate::mlp`]):
//! training lays the network's first layer out for sparse or dense
//! inputs by the training rows' density (sparse ones are packed into
//! [`SparseRows`] once), then each step goes through
//! [`Mlp::backward_batch_sparse`] or [`Mlp::backward_batch`] over one
//! reusable [`MlpWorkspace`] and one [`AdamW::step`]. The backward's
//! axpy rows and the whole optimizer update run on
//! [`em_vector::Elementwise`] at the dispatched SIMD width, and the
//! step splits its update into ranges across the rayon pool; both are
//! bit-identical to the serial baseline-width loops. The per-epoch
//! validation probe packs the validation rows once into
//! `PREDICT_CHUNK`-row chunks and labels them across the pool over the
//! borrowed network (no `mlp.clone()`, no throwaway matcher), each
//! chunk on buffers it keeps across epochs, reassembling the labels in
//! index order; and [`TrainedMatcher::predict`] packs the requested
//! rows and fans the forward passes out over the same chunks —
//! bit-identical to the per-row [`TrainedMatcher::predict_one`] path,
//! chunked or not (the golden tests below assert it).
//!
//! # Certified labels
//!
//! The probe, [`TrainedMatcher::labels`] and [`TrainedMatcher::evaluate`]
//! read only each row's label `sigmoid(ẑ) ≥ 0.5`, where `ẑ` is the logit
//! of the exact forward (the one `predict` runs). For a sparse-input
//! network they decide it the way an adaptive geometric predicate
//! does (Shewchuk, *Discrete & Computational Geometry* 18, 1997): a
//! fast evaluation with a rigorous rounding-error bound settles most
//! rows, and only the rows the bound cannot settle run the exact
//! forward. The labels — and so every best epoch, parameter bit, F1
//! and report byte — are the exact forward's.
//!
//! *The fast logit and its bound.* The first layer runs
//! [`em_vector::sparse_gemm_bias_relu_bounded`]: ReLU activations `ã`
//! summed in index order, and per unit a bound `e ≥ |ã − â|` on the
//! distance from the exact kernel's activations `â`, on any tier. Each
//! deeper layer of fan-in `k` runs the dense kernel on `ã` and carries
//! the bound forward with that kernel over `|W|` (copies of the deeper
//! layers only, 97 floats for the shipped `848 → 96 → 1` network, taken
//! once per probe):
//! `e' = |W|·e + 2γ_{k+2}·(|W|·(ã + e) + |b|) + (k+1)·2⁻¹²⁶`. Both the
//! exact and the fast sums lie within `γ_{k+1}·(|W|·|a| + |b|)` of the
//! real `W·a + b` (any order, FMA or not; Higham, *Accuracy and
//! Stability of Numerical Algorithms*, §3.1), `|â| ≤ ã + e`, ReLU is
//! 1-Lipschitz, and the last term covers products rounded in the
//! subnormal range. The last layer ends in `(z̃, e)` per row; the
//! decision uses `E = 2e`.
//!
//! *Why `E` is doubled.* The bound is itself computed in `f32`, and
//! each of its sums of non-negative terms can fall short of its real
//! value, by a factor of at least `1 − γ_{k+4}` per layer. The doubling
//! covers the product of those factors while it stays above 1/2:
//! every fan-in is at most [`em_vector::MAX_BOUNDED_TERMS`] (4,094,
//! where `γ_{k+4} < 2.5·10⁻⁴`) and there are at most 1,024 layers;
//! other networks take the exact probe. So `|z̃ − ẑ| ≤ E`.
//!
//! *The decision.* `Match` if `z̃ > E`: then `ẑ > 0`, `exp(−ẑ) ≤ 1`
//! and `sigmoid(ẑ) = 1/(1 + exp(−ẑ)) ≥ 0.5`. `NonMatch` if
//! `z̃ + E < −τ` with `τ = 2⁻¹⁰`: then `ẑ < −τ`, `exp(ẑ) < 0.9991` and
//! `sigmoid(ẑ) = exp(ẑ)/(1 + exp(ẑ)) < 0.49976`, far from 0.5 after
//! rounding (inside `(−τ, 0)`, `exp` can round to 1 and `sigmoid` to
//! exactly 0.5, which labels `Match`). Both comparisons are sound in
//! `f32`, since rounding is monotone and `0` and `−τ` are floats.
//! Otherwise, or if `z̃` or `E` is not finite (NaN or infinite inputs
//! or weights, and magnitudes large enough that either evaluation
//! could overflow, all surface that way), the row runs the exact
//! forward. Widening `τ` or the bound only sends more rows there.
//!
//! *Preconditions.* Any SIMD tier and any evaluation order of the
//! exact kernels; the default IEEE rounding mode with subnormals kept
//! (no flush-to-zero). A dense-input network keeps the exact forward
//! for every row, so the exact forward is the one source of labels.
//! On featurized amazon-google rows (18 nonzeros of 848) a row costs
//! about a third of its exact forward (0.26 against 0.77 µs on one
//! core of a 2-core AVX-512 VM), and the bound leaves about one row in
//! 10,000 to the exact forward.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use em_core::{BinaryConfusion, EmError, Label, Prediction, Result, Rng};
use em_vector::{pack_rows, Embeddings, SparseRows};

use crate::adamw::AdamW;
use crate::calibration::apply_temperature;
use crate::labels::{sign_label, LabelProbe, LabelScratch};
use crate::mlp::{sigmoid, Mlp, MlpWorkspace, DENSE_INPUT_DENSITY};

/// Rows per parallel prediction chunk: large enough that the per-chunk
/// workspace allocation amortizes, small enough to fan out on few-row
/// calls.
const PREDICT_CHUNK: usize = 256;

/// Matcher hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Hidden layer widths; the last one is the representation dimension
    /// (the paper's `[CLS]` vector is 768-d from a fine-tuned RoBERTa;
    /// this reproduction substitutes an MLP over hashed-token and
    /// similarity pair features, for which 96 is plenty).
    pub hidden: Vec<usize>,
    /// Training epochs per active-learning iteration. The paper uses 12
    /// (8 for DBLP-Scholar) when *fine-tuning* a pretrained RoBERTa; a
    /// from-scratch MLP needs more optimizer steps to reach its
    /// asymptote, so the default is higher.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 12; 16 gives the MLP more steps
    /// per epoch at equal cost).
    pub batch_size: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Prediction-time logit temperature; < 1 sharpens, emulating PLM
    /// over-confidence (§3.5.1). Set to 1.0 for raw probabilities.
    pub temperature: f32,
    /// Weight initialisation / shuffling seed.
    pub seed: u64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            hidden: vec![96],
            epochs: 40,
            batch_size: 16,
            lr: 8e-3,
            weight_decay: 1e-4,
            temperature: 0.25,
            seed: 0xD1770,
        }
    }
}

impl MatcherConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(EmError::InvalidConfig("epochs must be > 0".into()));
        }
        if self.batch_size == 0 {
            return Err(EmError::InvalidConfig("batch_size must be > 0".into()));
        }
        if !self.temperature.is_finite() || self.temperature <= 0.0 {
            return Err(EmError::InvalidConfig(format!(
                "temperature {} must be finite and > 0",
                self.temperature
            )));
        }
        Ok(())
    }
}

/// A trained matcher ready for prediction.
#[derive(Debug, Clone)]
pub struct TrainedMatcher {
    mlp: Mlp,
    temperature: f32,
    /// Best validation F1 seen during training (0 if no validation data).
    pub best_valid_f1: f64,
    /// Epoch (0-based) whose parameters were kept.
    pub best_epoch: usize,
}

/// The complete serializable state of a [`TrainedMatcher`].
///
/// A checkpointed active-learning session must persist its current
/// model mid-run and resume it bit-identically; this struct captures
/// everything prediction depends on — architecture, flat parameters,
/// the sharpening temperature — plus the training provenance fields.
/// [`TrainedMatcher::to_snapshot`] / [`TrainedMatcher::from_snapshot`]
/// round-trip exactly: the restored matcher's predictions are
/// bit-identical to the original's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherSnapshot {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden-layer widths (the last is the representation dimension).
    pub hidden: Vec<usize>,
    /// Flat network parameters ([`Mlp::to_params`] layout).
    pub params: Vec<f32>,
    /// Prediction-time sharpening temperature.
    pub temperature: f32,
    /// Best validation F1 seen during training.
    pub best_valid_f1: f64,
    /// Epoch (0-based) whose parameters were kept.
    pub best_epoch: usize,
}

/// Binary frame magic for [`MatcherSnapshot`].
const MATCHER_SNAPSHOT_MAGIC: [u8; 4] = *b"EMMS";
/// Binary format version for [`MatcherSnapshot`].
const MATCHER_SNAPSHOT_VERSION: u8 = 2;

impl MatcherSnapshot {
    /// Encode the snapshot as a checksummed binary frame (see
    /// `em_core::codec`). The flat parameter array — the bulk of any
    /// session checkpoint — is written as raw little-endian `f32` bit
    /// patterns, so [`MatcherSnapshot::from_bytes`] restores a snapshot
    /// whose rebuilt matcher predicts bit-identically, exactly as the
    /// JSON path does at several times the size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = em_core::ByteWriter::with_capacity(4 * self.params.len() + 64);
        w.put_usize(self.input_dim);
        w.put_usizes(&self.hidden);
        w.put_f32s(&self.params);
        w.put_f32(self.temperature);
        w.put_f64(self.best_valid_f1);
        w.put_usize(self.best_epoch);
        em_core::codec::write_frame(
            MATCHER_SNAPSHOT_MAGIC,
            MATCHER_SNAPSHOT_VERSION,
            w.as_slice(),
        )
    }

    /// Decode a frame written by [`MatcherSnapshot::to_bytes`].
    /// Corruption of any kind (truncation, bit flips, bad
    /// magic/version) is a structured [`EmError::Codec`], never a panic;
    /// shape validation beyond framing happens in
    /// [`TrainedMatcher::from_snapshot`].
    pub fn from_bytes(bytes: &[u8]) -> Result<MatcherSnapshot> {
        let payload = em_core::codec::read_frame(
            bytes,
            MATCHER_SNAPSHOT_MAGIC,
            MATCHER_SNAPSHOT_VERSION,
            "MatcherSnapshot",
        )?;
        let mut r = em_core::ByteReader::new(payload, "MatcherSnapshot");
        let snapshot = MatcherSnapshot {
            input_dim: r.get_usize()?,
            hidden: r.get_usizes()?,
            params: r.get_f32s()?,
            temperature: r.get_f32()?,
            best_valid_f1: r.get_f64()?,
            best_epoch: r.get_usize()?,
        };
        r.finish()?;
        Ok(snapshot)
    }
}

/// Batched prediction output over a set of pairs.
#[derive(Debug, Clone)]
pub struct MatcherOutput {
    /// Per-pair prediction (sharpened probability + thresholded label).
    pub predictions: Vec<Prediction>,
    /// Per-pair representation (last hidden activation).
    pub representations: Embeddings,
}

impl TrainedMatcher {
    /// The underlying network, for tests.
    #[cfg(test)]
    pub(crate) fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Capture the matcher's complete state for checkpointing.
    pub fn to_snapshot(&self) -> MatcherSnapshot {
        MatcherSnapshot {
            input_dim: self.mlp.input_dim(),
            hidden: self.mlp.hidden_dims(),
            params: self.mlp.to_params(),
            temperature: self.temperature,
            best_valid_f1: self.best_valid_f1,
            best_epoch: self.best_epoch,
        }
    }

    /// Rebuild a matcher from a captured snapshot.
    ///
    /// The restored matcher predicts bit-identically to the one
    /// [`TrainedMatcher::to_snapshot`] was called on. Errors on
    /// malformed shapes (parameter count not matching the architecture)
    /// or an invalid temperature.
    pub fn from_snapshot(snapshot: &MatcherSnapshot) -> Result<TrainedMatcher> {
        if !snapshot.temperature.is_finite() || snapshot.temperature <= 0.0 {
            return Err(EmError::InvalidConfig(format!(
                "matcher snapshot temperature must be finite and > 0, got {}",
                snapshot.temperature
            )));
        }
        let mlp = Mlp::from_params(
            snapshot.input_dim,
            &snapshot.hidden,
            snapshot.params.clone(),
        )?;
        Ok(TrainedMatcher {
            mlp,
            temperature: snapshot.temperature,
            best_valid_f1: snapshot.best_valid_f1,
            best_epoch: snapshot.best_epoch,
        })
    }

    /// Predict one feature vector: `(prediction, representation)`.
    pub fn predict_one(&self, features: &[f32]) -> Result<(Prediction, Vec<f32>)> {
        let (logit, repr) = self.mlp.forward(features)?;
        let raw = sigmoid(logit);
        let prob = apply_temperature(raw, self.temperature)?;
        Ok((Prediction::from_prob(prob), repr))
    }

    /// Predict rows `indices` of the feature matrix.
    ///
    /// Rows are packed in chunks (sparse for a sparse-input network,
    /// dense otherwise) and each chunk runs one
    /// batched forward pass on its own [`MlpWorkspace`]; chunks execute
    /// in parallel and results are reassembled in index order, so the
    /// output is bit-identical to calling [`TrainedMatcher::predict_one`]
    /// row by row, at any thread count.
    pub fn predict(&self, features: &Embeddings, indices: &[usize]) -> Result<MatcherOutput> {
        check_rows(features, indices, "matcher predict")?;
        let repr_dim = self.mlp.repr_dim();
        if indices.is_empty() {
            return Ok(MatcherOutput {
                predictions: Vec::new(),
                representations: Embeddings::new(repr_dim)?,
            });
        }
        let chunks: Vec<&[usize]> = indices.chunks(PREDICT_CHUNK).collect();
        let parts: Vec<Result<(Vec<Prediction>, Vec<f32>)>> = chunks
            .par_iter()
            .map(|&chunk| {
                let mut ws = MlpWorkspace::new();
                let rows = PackedRows::new(&self.mlp, features, chunk)?;
                let (logits, reprs) = rows.forward(&self.mlp, &mut ws)?;
                let mut preds = Vec::with_capacity(chunk.len());
                for &logit in logits {
                    let prob = apply_temperature(sigmoid(logit), self.temperature)?;
                    preds.push(Prediction::from_prob(prob));
                }
                Ok((preds, reprs.to_vec()))
            })
            .collect();
        let mut predictions = Vec::with_capacity(indices.len());
        let mut flat_reprs = Vec::with_capacity(indices.len() * repr_dim);
        for part in parts {
            let (preds, reprs) = part?;
            predictions.extend(preds);
            flat_reprs.extend(reprs);
        }
        Ok(MatcherOutput {
            predictions,
            representations: Embeddings::from_flat(repr_dim, flat_reprs)?,
        })
    }

    /// Predict every row of the feature matrix.
    pub fn predict_all(&self, features: &Embeddings) -> Result<MatcherOutput> {
        let all: Vec<usize> = (0..features.len()).collect();
        self.predict(features, &all)
    }

    /// The labels [`TrainedMatcher::predict`] assigns to rows `indices`,
    /// without building its probabilities and representations.
    ///
    /// Rows are decided by the certified probe (see the module docs) in
    /// `PREDICT_CHUNK`-row chunks across the pool. Its sign labels
    /// `sigmoid(ẑ) ≥ 0.5` are `predict`'s labels because sharpening
    /// (`T < 1`) and the identity keep the 0.5 threshold; a smoothing
    /// temperature (`T > 1`), which can round a logit just below 0 up to
    /// exactly 0.5, reads the labels off `predict` instead.
    pub fn labels(&self, features: &Embeddings, indices: &[usize]) -> Result<Vec<Label>> {
        check_rows(features, indices, "matcher labels")?;
        if self.temperature > 1.0 {
            let out = self.predict(features, indices)?;
            return Ok(out.predictions.iter().map(|p| p.label).collect());
        }
        let probe = LabelProbe::new(&self.mlp);
        let chunks: Vec<&[usize]> = indices.chunks(PREDICT_CHUNK).collect();
        let parts: Vec<Result<Vec<Label>>> = chunks
            .par_iter()
            .map(|&chunk| {
                let rows = PackedRows::new(&self.mlp, features, chunk)?;
                let mut labels = Vec::with_capacity(chunk.len());
                let mut scratch = LabelScratch::new(features.dim());
                rows.labels(&self.mlp, probe.as_ref(), &mut scratch, &mut labels)?;
                Ok(labels)
            })
            .collect();
        let mut labels = Vec::with_capacity(indices.len());
        for part in parts {
            labels.extend(part?);
        }
        Ok(labels)
    }

    /// F1 against ground truth over the given rows.
    pub fn evaluate(
        &self,
        features: &Embeddings,
        indices: &[usize],
        truth: &[Label],
    ) -> Result<em_core::Metrics> {
        let predicted = self.labels(features, indices)?;
        Ok(BinaryConfusion::from_labels(&predicted, truth)?.metrics())
    }
}

/// Every row id must index `features`.
fn check_rows(features: &Embeddings, indices: &[usize], context: &str) -> Result<()> {
    match indices.iter().find(|&&i| i >= features.len()) {
        Some(&bad) => Err(EmError::IndexOutOfBounds {
            context: context.into(),
            index: bad,
            len: features.len(),
        }),
        None => Ok(()),
    }
}

/// One chunk of rows packed for a batched forward pass: sparse for a
/// sparse-input network, dense row-major otherwise.
enum PackedRows {
    Sparse(SparseRows),
    Dense { xs: Vec<f32>, rows: usize },
}

impl PackedRows {
    /// Pack rows `idx` of `features` for `mlp`'s first-layer layout.
    fn new(mlp: &Mlp, features: &Embeddings, idx: &[usize]) -> Result<PackedRows> {
        Ok(if mlp.sparse_input() {
            PackedRows::Sparse(SparseRows::from_rows(features, idx)?)
        } else {
            PackedRows::Dense {
                xs: pack_rows(features, idx),
                rows: idx.len(),
            }
        })
    }

    /// The batched forward pass over these rows: `(logits, reprs)`.
    fn forward<'w>(&self, mlp: &Mlp, ws: &'w mut MlpWorkspace) -> Result<(&'w [f32], &'w [f32])> {
        match self {
            PackedRows::Sparse(rows) => mlp.forward_batch_sparse(rows, ws),
            PackedRows::Dense { xs, rows } => mlp.forward_batch(xs, *rows, ws),
        }
    }

    /// Append these rows' sign labels `sigmoid(ẑ) ≥ 0.5` to `out`:
    /// certified by `probe` where the network has one, from the exact
    /// forward otherwise. Returns how many rows took the exact forward.
    fn labels(
        &self,
        mlp: &Mlp,
        probe: Option<&LabelProbe>,
        scratch: &mut LabelScratch,
        out: &mut Vec<Label>,
    ) -> Result<usize> {
        match (self, probe) {
            (PackedRows::Sparse(rows), Some(probe)) => probe.labels(mlp, rows, scratch, out),
            _ => self.exact_labels(mlp, scratch, out),
        }
    }

    /// [`PackedRows::labels`] with every row through the exact forward.
    fn exact_labels(
        &self,
        mlp: &Mlp,
        scratch: &mut LabelScratch,
        out: &mut Vec<Label>,
    ) -> Result<usize> {
        let (logits, _) = self.forward(mlp, &mut scratch.ws)?;
        out.extend(logits.iter().map(|&z| sign_label(z)));
        Ok(logits.len())
    }
}

/// How the validation probe labels one chunk: the rows, the network,
/// its per-probe constants and the chunk's buffers; returns how many
/// rows took the exact forward.
type ChunkLabels =
    fn(&PackedRows, &Mlp, Option<&LabelProbe>, &mut LabelScratch, &mut Vec<Label>) -> Result<usize>;

/// Rows the validation probe labelled over a training, and how many of
/// them took the exact forward.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeRows {
    rows: usize,
    exact: usize,
}

/// Share of nonzero entries over rows `idx` of `features`.
fn density(features: &Embeddings, idx: &[usize]) -> f64 {
    let nonzero: usize = idx
        .iter()
        .map(|&i| features.row(i).iter().filter(|&&x| x != 0.0).count())
        .sum();
    nonzero as f64 / (idx.len() * features.dim()) as f64
}

/// Train a matcher on rows `train_idx` (with `train_labels`) of
/// `features`, selecting the best epoch by F1 on `valid_idx`.
///
/// An empty validation set keeps the final epoch's parameters.
pub fn train_matcher(
    features: &Embeddings,
    train_idx: &[usize],
    train_labels: &[Label],
    valid_idx: &[usize],
    valid_labels: &[Label],
    config: &MatcherConfig,
) -> Result<TrainedMatcher> {
    let split = (train_idx, train_labels, valid_idx, valid_labels);
    train(features, split, config, PackedRows::labels).map(|(matcher, _)| matcher)
}

/// [`train_matcher`] with the probe's chunk labeller (the tests swap in
/// the all-exact one); also returns what the probe labelled.
fn train(
    features: &Embeddings,
    (train_idx, train_labels, valid_idx, valid_labels): (&[usize], &[Label], &[usize], &[Label]),
    config: &MatcherConfig,
    chunk_labels: ChunkLabels,
) -> Result<(TrainedMatcher, ProbeRows)> {
    config.validate()?;
    if train_idx.is_empty() {
        return Err(EmError::EmptyInput("matcher training set".into()));
    }
    if train_idx.len() != train_labels.len() {
        return Err(EmError::DimensionMismatch {
            context: "matcher train labels".into(),
            expected: train_idx.len(),
            actual: train_labels.len(),
        });
    }
    if valid_idx.len() != valid_labels.len() {
        return Err(EmError::DimensionMismatch {
            context: "matcher valid labels".into(),
            expected: valid_idx.len(),
            actual: valid_labels.len(),
        });
    }
    // Row ids are packed below (and gathered per batch) without further
    // checks, so reject out-of-range ids with a structured error here —
    // the clone-based probe used to surface these through `predict`.
    for (name, idx) in [("train", train_idx), ("valid", valid_idx)] {
        if let Some(&bad) = idx.iter().find(|&&i| i >= features.len()) {
            return Err(EmError::IndexOutOfBounds {
                context: format!("matcher {name} rows"),
                index: bad,
                len: features.len(),
            });
        }
    }

    let mut rng = Rng::seed_from_u64(config.seed);
    let mut mlp = Mlp::new(features.dim(), &config.hidden, &mut rng)?;
    // The first-layer kernel follows the training rows' density; both
    // produce the same bits.
    let sparse_input = density(features, train_idx) < DENSE_INPUT_DENSITY;
    mlp.set_sparse_input(sparse_input);

    // The train and validation rows never change, so they are packed
    // once. For sparse inputs each mini-batch gathers its rows from the
    // packed training set; dense inputs read the training rows in place.
    // The validation rows are packed in `PREDICT_CHUNK`-row chunks that
    // every epoch's probe forwards across the pool.
    let dim = features.dim();
    let train_rows = if sparse_input {
        SparseRows::from_rows(features, train_idx)?
    } else {
        SparseRows::new(dim)
    };
    let valid_chunks = valid_idx
        .chunks(PREDICT_CHUNK)
        .map(|chunk| PackedRows::new(&mlp, features, chunk))
        .collect::<Result<Vec<_>>>()?;
    let mut valid_scratch: Vec<LabelScratch> = valid_chunks
        .iter()
        .map(|_| LabelScratch::new(dim))
        .collect();
    let mut probed = ProbeRows::default();
    let mut batch = SparseRows::new(dim);
    let mut opt = AdamW::new(mlp.n_params(), config.lr, config.weight_decay)?;
    let decay_mask = mlp.decay_mask().to_vec();

    let mut order: Vec<usize> = (0..train_idx.len()).collect();
    let mut grads: Vec<f32> = Vec::new();
    let mut ws = MlpWorkspace::new();
    let mut best_snapshot = mlp.snapshot();
    let mut best_f1 = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;

    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(config.batch_size) {
            let ys: Vec<f32> = chunk.iter().map(|&o| train_labels[o].as_f32()).collect();
            let wts = vec![1.0f32; chunk.len()];
            if sparse_input {
                batch.clear();
                for &o in chunk {
                    batch.push_row_of(&train_rows, o)?;
                }
                mlp.backward_batch_sparse(&batch, &ys, &wts, &mut ws, &mut grads)?;
            } else {
                let xs: Vec<&[f32]> = chunk.iter().map(|&o| features.row(train_idx[o])).collect();
                mlp.backward_batch(&xs, &ys, &wts, &mut ws, &mut grads)?;
            }
            opt.step(mlp.params_mut(), &grads, &decay_mask)?;
        }
        // Best-epoch selection on validation F1 (paper §4.2), from the
        // sign labels of the certified probe (see the module docs) over
        // the borrowed network. The chunks run across the pool, each on
        // its own buffers kept across epochs, and their labels are
        // reassembled in index order; rows are independent, so the
        // labels do not depend on the split.
        if !valid_idx.is_empty() {
            let probe = LabelProbe::new(&mlp);
            let jobs: Vec<_> = valid_chunks.iter().zip(&mut valid_scratch).collect();
            let parts: Vec<Result<(Vec<Label>, usize)>> = jobs
                .into_par_iter()
                .map(|(rows, scratch)| {
                    let mut labels = Vec::with_capacity(PREDICT_CHUNK);
                    let exact = chunk_labels(rows, &mlp, probe.as_ref(), scratch, &mut labels)?;
                    Ok((labels, exact))
                })
                .collect();
            let mut predicted = Vec::with_capacity(valid_idx.len());
            for part in parts {
                let (labels, exact) = part?;
                predicted.extend(labels);
                probed.exact += exact;
            }
            probed.rows += predicted.len();
            let f1 = BinaryConfusion::from_labels(&predicted, valid_labels)?
                .metrics()
                .f1;
            if f1 > best_f1 {
                best_f1 = f1;
                best_snapshot = mlp.snapshot();
                best_epoch = epoch;
            }
        } else {
            best_snapshot = mlp.snapshot();
            best_epoch = epoch;
        }
    }
    mlp.restore(&best_snapshot)?;

    let matcher = TrainedMatcher {
        mlp,
        temperature: config.temperature,
        best_valid_f1: if best_f1.is_finite() { best_f1 } else { 0.0 },
        best_epoch,
    };
    Ok((matcher, probed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, Featurizer};
    use em_synth::{generate, DatasetProfile};

    fn small_task() -> (Embeddings, Vec<usize>, Vec<Label>, Vec<usize>, Vec<Label>) {
        let p = DatasetProfile::amazon_google().scaled(0.03);
        let d = generate(&p, &mut Rng::seed_from_u64(7)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let test = d.split().test.clone();
        let test_labels = d.ground_truth_of(&test);
        (feats, train, train_labels, test, test_labels)
    }

    #[test]
    fn trains_to_useful_f1_on_synthetic_benchmark() {
        // Walmart-Amazon at 15 % scale (~1k train pairs): the MLP should
        // clear 0.5 (the full-size Full-D lands above 0.8).
        let p = DatasetProfile::walmart_amazon().scaled(0.15);
        let d = generate(&p, &mut Rng::seed_from_u64(7)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let test = d.split().test.clone();
        let test_labels = d.ground_truth_of(&test);
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        let f1 = m.evaluate(&feats, &test, &test_labels).unwrap().f1;
        assert!(f1 > 0.5, "full-train F1 {f1}");
    }

    #[test]
    fn more_data_beats_tiny_data() {
        let (feats, train, train_labels, test, test_labels) = small_task();
        let cfg = MatcherConfig::default();
        let small =
            train_matcher(&feats, &train[..12], &train_labels[..12], &[], &[], &cfg).unwrap();
        let large = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        let f1_small = small.evaluate(&feats, &test, &test_labels).unwrap().f1;
        let f1_large = large.evaluate(&feats, &test, &test_labels).unwrap().f1;
        assert!(
            f1_large >= f1_small,
            "more data hurt: {f1_large} < {f1_small}"
        );
    }

    #[test]
    fn sharpened_confidences_are_dichotomous() {
        // The PLM-overconfidence emulation: most predictions should sit
        // near 0 or 1 after temperature sharpening.
        let (feats, train, train_labels, test, _) = small_task();
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        let out = m.predict(&feats, &test).unwrap();
        let extreme = out
            .predictions
            .iter()
            .filter(|p| p.prob < 0.05 || p.prob > 0.95)
            .count();
        let frac = extreme as f64 / out.predictions.len() as f64;
        assert!(frac > 0.7, "only {frac:.2} of confidences are extreme");
    }

    #[test]
    fn representations_have_configured_dim_and_separate_classes() {
        // Walmart-Amazon at 10% scale: enough data for the hidden layer
        // to develop class structure (the Figure 1 phenomenon).
        let p = DatasetProfile::walmart_amazon().scaled(0.1);
        let d = generate(&p, &mut Rng::seed_from_u64(7)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let test = d.split().test.clone();
        let test_labels = d.ground_truth_of(&test);
        let cfg = MatcherConfig {
            hidden: vec![32, 16],
            ..Default::default()
        };
        let m = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        let out = m.predict(&feats, &test).unwrap();
        assert_eq!(out.representations.dim(), 16);
        assert_eq!(out.representations.len(), test.len());
        // Match-pair representations should be more similar to each other
        // than to non-match representations (Figure 1's phenomenon).
        let pos: Vec<usize> = (0..test.len())
            .filter(|&i| test_labels[i].is_match())
            .collect();
        let neg: Vec<usize> = (0..test.len())
            .filter(|&i| !test_labels[i].is_match())
            .collect();
        if pos.len() >= 2 && !neg.is_empty() {
            let mut intra = 0.0f64;
            let mut n_intra = 0;
            for i in 0..pos.len().min(20) {
                for j in i + 1..pos.len().min(20) {
                    intra += out.representations.cosine(pos[i], pos[j]) as f64;
                    n_intra += 1;
                }
            }
            let mut inter = 0.0f64;
            let mut n_inter = 0;
            for &i in pos.iter().take(20) {
                for &j in neg.iter().take(20) {
                    inter += out.representations.cosine(i, j) as f64;
                    n_inter += 1;
                }
            }
            assert!(
                intra / n_intra as f64 > inter / n_inter as f64,
                "no class structure in representations"
            );
        }
    }

    #[test]
    fn best_epoch_selection_uses_validation() {
        // A mid-sized Walmart-Amazon task where the matcher reliably gets
        // off the ground, so the best validation F1 is strictly positive.
        let p = DatasetProfile::walmart_amazon().scaled(0.1);
        let d = generate(&p, &mut Rng::seed_from_u64(7)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let test = d.split().test.clone();
        let test_labels = d.ground_truth_of(&test);
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &test,
            &test_labels,
            &MatcherConfig::default(),
        )
        .unwrap();
        assert!(m.best_valid_f1 > 0.0);
        assert!(m.best_epoch < MatcherConfig::default().epochs);
    }

    #[test]
    fn dense_features_train_the_dense_layout_with_the_same_bits() {
        // Dense Gaussian rows: training lays the first layer out for
        // dense inputs; featurized rows keep the sparse layout.
        let mut rng = Rng::seed_from_u64(11);
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|_| (0..24).map(|_| rng.normal() as f32).collect())
            .collect();
        let feats = Embeddings::from_rows(&rows).unwrap();
        let labels: Vec<Label> = rows.iter().map(|r| Label::from_bool(r[0] > 0.0)).collect();
        let (train, test): (Vec<usize>, Vec<usize>) = (0..120).partition(|i| i % 4 != 0);
        let train_labels: Vec<Label> = train.iter().map(|&i| labels[i]).collect();
        let cfg = MatcherConfig {
            epochs: 3,
            ..Default::default()
        };
        let m = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        assert!(!m.mlp().sparse_input());
        let (sparse_feats, sparse_train, sparse_labels, _, _) = small_task();
        let sparse =
            train_matcher(&sparse_feats, &sparse_train, &sparse_labels, &[], &[], &cfg).unwrap();
        assert!(sparse.mlp().sparse_input());
        // A restored matcher is laid out for sparse inputs, yet predicts
        // the dense-trained matcher's bits, batched and per row.
        let restored = TrainedMatcher::from_snapshot(&m.to_snapshot()).unwrap();
        assert!(restored.mlp().sparse_input());
        let out = m.predict(&feats, &test).unwrap();
        let again = restored.predict(&feats, &test).unwrap();
        for (bi, &i) in test.iter().enumerate() {
            let (pred, repr) = m.predict_one(feats.row(i)).unwrap();
            for p in [&out.predictions[bi], &again.predictions[bi]] {
                assert_eq!(p.prob.to_bits(), pred.prob.to_bits(), "row {i}");
            }
            assert_eq!(out.representations.row(bi), repr.as_slice());
            assert_eq!(again.representations.row(bi), repr.as_slice());
        }
    }

    #[test]
    fn batched_predict_bit_identical_to_per_row_on_every_tier() {
        use em_vector::{with_simd_tier, SimdTier};
        let (feats, train, train_labels, test, _) = small_task();
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        for tier in [SimdTier::Portable, SimdTier::Avx2] {
            with_simd_tier(tier, || {
                rayon::serial_scope(|| {
                    let out = m.predict(&feats, &test).unwrap();
                    for (bi, &i) in test.iter().enumerate() {
                        let (pred, repr) = m.predict_one(feats.row(i)).unwrap();
                        assert_eq!(
                            out.predictions[bi].prob.to_bits(),
                            pred.prob.to_bits(),
                            "tier {} row {i}",
                            tier.name()
                        );
                        assert_eq!(out.predictions[bi].label, pred.label);
                        for (a, b) in out.representations.row(bi).iter().zip(&repr) {
                            assert_eq!(a.to_bits(), b.to_bits(), "tier {}", tier.name());
                        }
                    }
                })
            });
        }
    }

    #[test]
    fn parallel_predict_equals_serial_predict() {
        let (feats, train, train_labels, _, _) = small_task();
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        // All rows: enough to span several PREDICT_CHUNK chunks.
        let par = m.predict_all(&feats).unwrap();
        let ser = rayon::serial_scope(|| m.predict_all(&feats).unwrap());
        assert_eq!(par.predictions.len(), ser.predictions.len());
        for (a, b) in par.predictions.iter().zip(&ser.predictions) {
            assert_eq!(a.prob.to_bits(), b.prob.to_bits());
            assert_eq!(a.label, b.label);
        }
        assert_eq!(par.representations, ser.representations);
    }

    #[test]
    fn split_probe_trains_the_serial_bits() {
        // A validation set spanning four probe chunks, the last one
        // partial: the pool and `serial_scope` must keep the same
        // epoch, F1 and parameter bits.
        let d = generate(
            &DatasetProfile::dblp_scholar().scaled(0.15),
            &mut Rng::seed_from_u64(3),
        )
        .unwrap();
        let feats = Featurizer::new(&d, FeatureConfig::default())
            .unwrap()
            .featurize_all(&d)
            .unwrap();
        let rows = &d.split().train;
        let train = rows[..240].to_vec();
        let valid = rows[240..240 + 3 * PREDICT_CHUNK + 57].to_vec();
        let (train_labels, valid_labels) = (d.ground_truth_of(&train), d.ground_truth_of(&valid));
        let cfg = MatcherConfig {
            epochs: 6,
            ..Default::default()
        };
        let train_on =
            || train_matcher(&feats, &train, &train_labels, &valid, &valid_labels, &cfg).unwrap();
        let pool = train_on();
        let serial = rayon::serial_scope(train_on);
        assert_eq!(pool.best_epoch, serial.best_epoch);
        assert_eq!(pool.best_valid_f1.to_bits(), serial.best_valid_f1.to_bits());
        assert!(pool.best_valid_f1 > 0.0);
        let bits = |m: &TrainedMatcher| -> Vec<u32> {
            m.to_snapshot().params.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&pool), bits(&serial));
    }

    #[test]
    fn evaluate_on_selected_snapshot_reproduces_best_valid_f1() {
        // The validation F1 the borrowed probe records for the selected
        // epoch must be what the full prediction path reads on the
        // restored snapshot: `evaluate` over the validation rows gives
        // `best_valid_f1` to the bit.
        let p = DatasetProfile::walmart_amazon().scaled(0.1);
        let d = generate(&p, &mut Rng::seed_from_u64(7)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let valid = d.split().valid.clone();
        let valid_labels = d.ground_truth_of(&valid);
        let cfg = MatcherConfig {
            epochs: 8,
            ..Default::default()
        };
        let m = train_matcher(&feats, &train, &train_labels, &valid, &valid_labels, &cfg).unwrap();
        let f1 = m.evaluate(&feats, &valid, &valid_labels).unwrap().f1;
        assert_eq!(f1.to_bits(), m.best_valid_f1.to_bits());
    }

    /// [`train_matcher`] through the all-exact probe: the oracle of the
    /// certified one.
    fn train_all_exact(
        features: &Embeddings,
        split: (&[usize], &[Label], &[usize], &[Label]),
        config: &MatcherConfig,
    ) -> (TrainedMatcher, ProbeRows) {
        train(features, split, config, |rows, mlp, _, scratch, out| {
            rows.exact_labels(mlp, scratch, out)
        })
        .unwrap()
    }

    #[test]
    fn certified_probe_trains_the_all_exact_bits() {
        // Featurized amazon-google and dblp-scholar at small scale: the
        // certified probe must keep the all-exact probe's parameters,
        // best epoch and best F1 bit for bit — on every tier under
        // `serial_scope`, and across the pool at the detected tier (the
        // tier override is per thread, so a pool run mixes tiers) — and
        // must send under 1 % of its rows to the exact forward.
        use em_vector::{with_simd_tier, SimdTier};
        let tasks = [
            (DatasetProfile::amazon_google().scaled(0.1), 7),
            (DatasetProfile::dblp_scholar().scaled(0.1), 3),
        ];
        let cfg = MatcherConfig {
            epochs: 6,
            ..Default::default()
        };
        let mut probed = ProbeRows::default();
        for (profile, seed) in tasks {
            let d = generate(&profile, &mut Rng::seed_from_u64(seed)).unwrap();
            let feats = Featurizer::new(&d, FeatureConfig::default())
                .unwrap()
                .featurize_all(&d)
                .unwrap();
            let split = d.split();
            let train_rows = split.train[..split.train.len().min(400)].to_vec();
            let valid: Vec<usize> = split.valid.iter().chain(&split.test).copied().collect();
            let (train_labels, valid_labels) =
                (d.ground_truth_of(&train_rows), d.ground_truth_of(&valid));
            let split = (
                &train_rows[..],
                &train_labels[..],
                &valid[..],
                &valid_labels[..],
            );
            let compare = |name: &str| {
                let (fast, rows) = train(&feats, split, &cfg, PackedRows::labels).unwrap();
                let (exact, all) = train_all_exact(&feats, split, &cfg);
                assert_eq!(all.exact, all.rows, "{name}");
                assert_eq!(rows.rows, all.rows, "{name}");
                assert_eq!(fast.best_epoch, exact.best_epoch, "{name}");
                assert_eq!(
                    fast.best_valid_f1.to_bits(),
                    exact.best_valid_f1.to_bits(),
                    "{name}"
                );
                let bits = |m: &TrainedMatcher| -> Vec<u32> {
                    m.to_snapshot().params.iter().map(|x| x.to_bits()).collect()
                };
                assert!(bits(&fast) == bits(&exact), "{name}: parameters differ");
                rows
            };
            for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
                let name = format!("{} {}", d.name, tier.name());
                let rows = with_simd_tier(tier, || rayon::serial_scope(|| compare(&name)));
                probed.rows += rows.rows;
                probed.exact += rows.exact;
            }
            let rows = compare(&format!("{} pool", d.name));
            probed.rows += rows.rows;
            probed.exact += rows.exact;
        }
        assert!(probed.rows >= 20_000, "{probed:?}");
        assert!(probed.exact * 100 < probed.rows, "{probed:?}");
    }

    #[test]
    fn labels_are_predicts_labels_on_every_tier() {
        // A sparse-input and a dense-input network, each at the default
        // sharpening and at the identity temperature (and a smoothing
        // one, which reads `predict`): every row's label must be the one
        // `predict` assigns, on every tier.
        use em_vector::{with_simd_tier, SimdTier};
        let cfg = MatcherConfig {
            epochs: 4,
            ..Default::default()
        };
        let (sparse_feats, train, train_labels, test, _) = small_task();
        let sparse = train_matcher(&sparse_feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        assert!(sparse.mlp().sparse_input());
        let mut rng = Rng::seed_from_u64(12);
        let rows: Vec<Vec<f32>> = (0..700)
            .map(|_| (0..24).map(|_| rng.normal() as f32).collect())
            .collect();
        let dense_feats = Embeddings::from_rows(&rows).unwrap();
        let dense_labels: Vec<Label> = rows.iter().map(|r| Label::from_bool(r[0] > 0.0)).collect();
        let dense_train: Vec<usize> = (0..300).collect();
        let dense = train_matcher(
            &dense_feats,
            &dense_train,
            &dense_labels[..300],
            &[],
            &[],
            &cfg,
        )
        .unwrap();
        assert!(!dense.mlp().sparse_input());
        let dense_rows: Vec<usize> = (300..700).collect();
        for (m, feats, rows) in [
            (&sparse, &sparse_feats, &test),
            (&dense, &dense_feats, &dense_rows),
        ] {
            for temperature in [0.25f32, 1.0, 4.0] {
                let m = TrainedMatcher {
                    temperature,
                    ..m.clone()
                };
                for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
                    with_simd_tier(tier, || {
                        rayon::serial_scope(|| {
                            let labels = m.labels(feats, rows).unwrap();
                            let out = m.predict(feats, rows).unwrap();
                            assert_eq!(labels.len(), rows.len());
                            for (i, (l, p)) in labels.iter().zip(&out.predictions).enumerate() {
                                assert_eq!(
                                    *l,
                                    p.label,
                                    "tier {} T {temperature} row {i}",
                                    tier.name()
                                );
                            }
                        })
                    });
                }
            }
        }
        assert!(sparse.labels(&sparse_feats, &[]).unwrap().is_empty());
        assert!(sparse.labels(&sparse_feats, &[999_999]).is_err());
    }

    #[test]
    fn near_zero_logits_take_the_exact_forward() {
        // Shift the output bias so one row's exact logit lands on (or
        // within an ulp of) zero: the bound cannot settle that row, so it
        // takes the exact forward, and its label is still `predict`'s.
        use em_vector::{with_simd_tier, SimdTier};
        let cfg = MatcherConfig {
            epochs: 4,
            ..Default::default()
        };
        let (feats, train, train_labels, test, _) = small_task();
        let m = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        let rows = &test[..test.len().min(300)];
        for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
            with_simd_tier(tier, || {
                rayon::serial_scope(|| {
                    for &target in rows.iter().step_by(37) {
                        let (logit, _) = m.mlp().forward(feats.row(target)).unwrap();
                        let mut snapshot = m.to_snapshot();
                        *snapshot.params.last_mut().unwrap() -= logit;
                        let shifted = TrainedMatcher::from_snapshot(&snapshot).unwrap();
                        let (z, _) = shifted.mlp().forward(feats.row(target)).unwrap();
                        assert!(z.abs() < 1e-5, "logit {z}");
                        let packed = PackedRows::new(shifted.mlp(), &feats, rows).unwrap();
                        let probe = LabelProbe::new(shifted.mlp());
                        assert!(probe.is_some());
                        let mut scratch = LabelScratch::new(feats.dim());
                        let mut labels = Vec::new();
                        let exact = packed
                            .labels(shifted.mlp(), probe.as_ref(), &mut scratch, &mut labels)
                            .unwrap();
                        assert!(exact >= 1 && exact < rows.len() / 10, "{exact} exact rows");
                        let out = shifted.predict(&feats, rows).unwrap();
                        for (i, (l, p)) in labels.iter().zip(&out.predictions).enumerate() {
                            assert_eq!(*l, p.label, "tier {} row {i}", tier.name());
                        }
                        assert_eq!(labels, shifted.labels(&feats, rows).unwrap());
                    }
                })
            });
        }
    }

    #[test]
    fn snapshot_roundtrip_predicts_bit_identically() {
        let (feats, train, train_labels, test, _) = small_task();
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        let snap = m.to_snapshot();
        let restored = TrainedMatcher::from_snapshot(&snap).unwrap();
        assert_eq!(restored.best_epoch, m.best_epoch);
        assert_eq!(restored.best_valid_f1.to_bits(), m.best_valid_f1.to_bits());
        let a = m.predict(&feats, &test).unwrap();
        let b = restored.predict(&feats, &test).unwrap();
        for (x, y) in a.predictions.iter().zip(&b.predictions) {
            assert_eq!(x.prob.to_bits(), y.prob.to_bits());
            assert_eq!(x.label, y.label);
        }
        assert_eq!(a.representations, b.representations);
        // Malformed snapshots are rejected.
        let mut bad = snap.clone();
        bad.params.pop();
        assert!(TrainedMatcher::from_snapshot(&bad).is_err());
        for t in [0.0, f32::NAN, f32::INFINITY] {
            let mut bad = snap.clone();
            bad.temperature = t;
            assert!(
                TrainedMatcher::from_snapshot(&bad).is_err(),
                "temperature {t}"
            );
        }
    }

    #[test]
    fn binary_snapshot_roundtrip_is_bit_identical_to_json_path() {
        let (feats, train, train_labels, test, _) = small_task();
        let m = train_matcher(
            &feats,
            &train,
            &train_labels,
            &[],
            &[],
            &MatcherConfig::default(),
        )
        .unwrap();
        let snap = m.to_snapshot();
        let bytes = snap.to_bytes();
        let back = MatcherSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap, "binary round-trip must be lossless");
        // Both decode paths rebuild matchers with bit-identical output.
        let via_json: MatcherSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        let a = TrainedMatcher::from_snapshot(&back)
            .unwrap()
            .predict(&feats, &test)
            .unwrap();
        let b = TrainedMatcher::from_snapshot(&via_json)
            .unwrap()
            .predict(&feats, &test)
            .unwrap();
        for (x, y) in a.predictions.iter().zip(&b.predictions) {
            assert_eq!(x.prob.to_bits(), y.prob.to_bits());
        }
        assert_eq!(a.representations, b.representations);
        // The binary frame is the compact one (params dominate; JSON
        // spends ~2–4 bytes per byte of float payload).
        let json_len = serde_json::to_string(&snap).unwrap().len();
        assert!(
            bytes.len() * 2 < json_len,
            "binary {} B not well under JSON {} B",
            bytes.len(),
            json_len
        );
        // Corruption never panics.
        for cut in [0, 4, 13, bytes.len() / 2, bytes.len() - 1] {
            assert!(MatcherSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[bytes.len() / 3] ^= 0x10;
        assert!(MatcherSnapshot::from_bytes(&bad).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (feats, train, train_labels, _, _) = small_task();
        let cfg = MatcherConfig::default();
        let a = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        let b = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        let pa = a.predict(&feats, &[0, 1, 2]).unwrap();
        let pb = b.predict(&feats, &[0, 1, 2]).unwrap();
        for (x, y) in pa.predictions.iter().zip(&pb.predictions) {
            assert_eq!(x.prob, y.prob);
        }
    }

    #[test]
    fn validates_inputs() {
        let (feats, train, train_labels, _, _) = small_task();
        let cfg = MatcherConfig::default();
        assert!(train_matcher(&feats, &[], &[], &[], &[], &cfg).is_err());
        assert!(train_matcher(&feats, &train, &train_labels[..3], &[], &[], &cfg).is_err());
        let bad = MatcherConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(train_matcher(&feats, &train, &train_labels, &[], &[], &bad).is_err());
        // A non-finite temperature or weight decay is rejected before
        // training, not at the first `predict`.
        for t in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let bad = MatcherConfig {
                temperature: t,
                ..Default::default()
            };
            assert!(bad.validate().is_err(), "temperature {t}");
            assert!(train_matcher(&feats, &train, &train_labels, &[], &[], &bad).is_err());
        }
        for wd in [f32::NAN, f32::INFINITY] {
            let bad = MatcherConfig {
                weight_decay: wd,
                ..Default::default()
            };
            assert!(train_matcher(&feats, &train, &train_labels, &[], &[], &bad).is_err());
        }
        // Out-of-range train/valid rows are structured errors, not panics.
        assert!(train_matcher(&feats, &[999_999], &[Label::Match], &[], &[], &cfg).is_err());
        assert!(train_matcher(
            &feats,
            &train,
            &train_labels,
            &[999_999],
            &[Label::Match],
            &cfg
        )
        .is_err());
        let m = train_matcher(&feats, &train, &train_labels, &[], &[], &cfg).unwrap();
        assert!(m.predict(&feats, &[999_999]).is_err());
    }
}
