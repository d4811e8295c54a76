//! A multi-layer perceptron with manual backpropagation, computed as
//! layer-level GEMMs.
//!
//! Architecture: `input → [hidden ReLU]* → 1 logit`, sigmoid head,
//! binary cross-entropy loss. The activation of the **last hidden layer**
//! is exposed as the pair representation — the structural analogue of
//! DITTO's `[CLS]` embedding that the battleship algorithm clusters,
//! graphs and searches (§3.2).
//!
//! Parameters are stored flat (one contiguous `Vec<f32>`) so the AdamW
//! optimizer treats the whole network uniformly and snapshots for
//! best-epoch selection are a single memcpy.
//!
//! # Compute engine
//!
//! Both passes run as one layer-level batched product per layer over a
//! reusable [`MlpWorkspace`], in the order that fits each contraction.
//!
//! * **First layer: sparse or dense input.** The matcher's features are
//!   hashed token counts and one-hot bins — about 2 % of the 848 inputs
//!   are nonzero. For such inputs the network stores its first-layer
//!   weights **input-major** (`in_dim × out_dim`) and runs
//!   [`em_vector::sparse_gemm_bias_relu`] over an
//!   [`em_vector::SparseRows`] batch, so each nonzero input is one
//!   contiguous axpy over the hidden units, in the forward pass and in
//!   the weight gradient alike. A dense row would pay that kernel's
//!   per-slot bookkeeping on every input, so for dense inputs the first
//!   layer stays **output-major** like every other layer and runs the
//!   dense fused GEMM. [`Mlp::set_sparse_input`] picks the layout;
//!   [`crate::train_matcher`] picks it from the training rows' density
//!   ([`DENSE_INPUT_DENSITY`]). The sparse kernel is **bit-identical**
//!   to the dense one on every SIMD tier, so the layout moves only time.
//!   Checkpoints always use the output-major layout: [`Mlp::to_params`]
//!   / [`Mlp::from_params`] convert at that boundary.
//! * **Deeper layers: dense.** The forward pass contracts over the
//!   layer's input, one dispatched [`em_vector::gemm_bias_relu`] per
//!   layer (every inner product one dispatched `dot`: fixed lanes, fixed
//!   reduction order).
//! * **Backward.** The two products per layer (`∂W = Δᵀ·A`, `Δ' = Δ·W`)
//!   contract over the batch / output-unit dimensions, far too short for
//!   a dot-reduction kernel to amortize, so they run in outer-product
//!   (rank-1 update) order: data-parallel axpy rows with no loop-borne
//!   dependency, with dead ReLU units skipping their rows and zero
//!   inputs skipping theirs. Every axpy row and the final `1/batch`
//!   scaling run on [`em_vector::Elementwise`], the tier read once per
//!   pass: the crate forbids `unsafe`, so a loop written here would be
//!   compiled for the target's baseline (SSE2 on x86-64), while the
//!   elementwise kernels run at the dispatched width and are
//!   bit-identical on every tier.
//!
//! The batched forward is the only forward: [`Mlp::forward`] is a
//! one-row batch, so per-row and batched prediction agree bit for bit.
//! The tests below pin every path, in both layouts, against a dense,
//! output-major oracle (per-output `dot` plus bias) on every tier.
//! The seed's per-sample scalar implementation is preserved verbatim in
//! [`crate::reference`] as the measured baseline.

// Numeric kernels here walk several parallel arrays by index; the
// indexed form keeps the lockstep structure visible.
#![allow(clippy::needless_range_loop)]
use em_core::{EmError, Result, Rng};
use em_vector::{
    gemm_bias_relu, sparse_gemm_bias_relu, transpose, Elementwise, SparseRows, SparseScratch,
};

/// Share of nonzero training inputs below which
/// [`crate::train_matcher`] stores the first layer for the sparse
/// kernel. The two kernels cross over between about 0.15 (128 inputs)
/// and 0.6 (848 inputs) on one AVX-512 core; the matcher's features sit
/// near 0.02, dense embeddings at 1.
pub const DENSE_INPUT_DENSITY: f64 = 0.25;

/// Layer shape metadata over the flat parameter buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerSpec {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Offset of the weight block: `out_dim × in_dim` output-major, except
    /// layer 0 of a sparse-input network (`in_dim × out_dim`
    /// input-major).
    pub(crate) w_off: usize,
    /// Offset of the bias block (`out_dim`).
    pub(crate) b_off: usize,
}

/// Reusable buffers for the batched passes.
///
/// One workspace serves any number of [`Mlp::forward_batch`] /
/// [`Mlp::backward_batch`] calls (of any batch size); buffers grow to
/// the largest batch seen and are reused, so a training run performs no
/// steady-state allocation. Create one per thread — the matcher's
/// parallel predict fans out over row chunks, each with its own
/// workspace.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    /// `acts[l]` is the post-activation output of layer `l`
    /// (`batch × out_dim`; the last one holds the logits).
    acts: Vec<Vec<f32>>,
    /// Scratch of the sparse first-layer kernel.
    sparse: SparseScratch,
    /// A sparse batch densified for a dense-input network (`batch ×
    /// in_dim`); the first layer's weight gradient reads it back.
    dense_x: Vec<f32>,
    /// Delta of the current layer (`batch × out_dim`).
    delta: Vec<f32>,
    /// Delta being back-propagated to the previous layer.
    delta_prev: Vec<f32>,
}

impl MlpWorkspace {
    /// Empty workspace; buffers are sized lazily by the first pass.
    pub fn new() -> Self {
        MlpWorkspace::default()
    }
}

/// The MLP: flat parameters plus layer specs.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: Vec<f32>,
    layers: Vec<LayerSpec>,
    /// `true` for weights (decayed), `false` for biases.
    decay_mask: Vec<bool>,
    /// First-layer weights input-major, for the sparse kernel.
    sparse_input: bool,
}

/// Validate an architecture and lay out its flat parameter buffer:
/// `(layer specs, parameter count)`.
fn layout(input_dim: usize, hidden: &[usize]) -> Result<(Vec<LayerSpec>, usize)> {
    if input_dim == 0 {
        return Err(EmError::InvalidConfig("MLP input_dim must be > 0".into()));
    }
    if hidden.is_empty() {
        return Err(EmError::InvalidConfig(
            "MLP needs at least one hidden layer (it provides the pair representation)".into(),
        ));
    }
    if hidden.contains(&0) {
        return Err(EmError::InvalidConfig("hidden layer of width 0".into()));
    }
    let mut layers = Vec::with_capacity(hidden.len() + 1);
    let mut offset = 0usize;
    let mut prev = input_dim;
    for &h in hidden.iter().chain(std::iter::once(&1)) {
        layers.push(LayerSpec {
            in_dim: prev,
            out_dim: h,
            w_off: offset,
            b_off: offset + h * prev,
        });
        offset += h * prev + h;
        prev = h;
    }
    Ok((layers, offset))
}

impl Mlp {
    /// Build an MLP `input_dim → hidden[0] → … → hidden[n-1] → 1` with
    /// He-initialized weights, laid out for sparse inputs.
    pub fn new(input_dim: usize, hidden: &[usize], rng: &mut Rng) -> Result<Self> {
        let (layers, n_params) = layout(input_dim, hidden)?;
        // Draw in the output-major order of the checkpoint layout (so a
        // seed always yields the same network), then store it.
        let mut params = vec![0.0f32; n_params];
        for spec in &layers {
            // He init: N(0, 2/in_dim) for ReLU layers.
            let std = (2.0 / spec.in_dim as f64).sqrt();
            for i in 0..spec.out_dim * spec.in_dim {
                params[spec.w_off + i] = (rng.normal() * std) as f32;
            }
            // Biases stay zero and undecayed.
        }
        Mlp::from_params(input_dim, hidden, params)
    }

    /// Rebuild an MLP from its architecture and a flat parameter buffer
    /// in the checkpoint layout (the inverse of [`Mlp::to_params`]) —
    /// how a persisted matcher checkpoint becomes a live network again.
    /// The network is laid out for sparse inputs.
    ///
    /// `params` must have exactly the length a fresh
    /// `Mlp::new(input_dim, hidden, …)` would allocate.
    pub fn from_params(input_dim: usize, hidden: &[usize], params: Vec<f32>) -> Result<Self> {
        // Same validation as `new`, so a malformed checkpoint cannot
        // build a network `new` would have rejected.
        let (layers, n_params) = layout(input_dim, hidden)?;
        if params.len() != n_params {
            return Err(EmError::DimensionMismatch {
                context: "MLP from_params".into(),
                expected: n_params,
                actual: params.len(),
            });
        }
        let mut decay_mask = vec![false; n_params];
        for spec in &layers {
            decay_mask[spec.w_off..spec.w_off + spec.out_dim * spec.in_dim].fill(true);
        }
        let mut mlp = Mlp {
            params,
            layers,
            decay_mask,
            sparse_input: false,
        };
        mlp.set_sparse_input(true);
        Ok(mlp)
    }

    /// Lay the first layer out for sparse inputs (input-major weights,
    /// sparse kernel) or dense ones (output-major weights, dense fused
    /// GEMM). Outputs and gradients are bit-identical either way; only
    /// the training layout of [`Mlp::params_mut`] and
    /// [`Mlp::snapshot`] changes.
    pub fn set_sparse_input(&mut self, sparse: bool) {
        if sparse == self.sparse_input {
            return;
        }
        let first = self.layers[0];
        let block = first.w_off..first.b_off;
        let (rows, cols) = if sparse {
            (first.out_dim, first.in_dim)
        } else {
            (first.in_dim, first.out_dim)
        };
        let src = self.params[block.clone()].to_vec();
        transpose(&src, rows, cols, &mut self.params[block]);
        self.sparse_input = sparse;
    }

    /// `true` iff the first layer is laid out for sparse inputs.
    pub fn sparse_input(&self) -> bool {
        self.sparse_input
    }

    /// The flat parameters in the checkpoint layout: every weight block
    /// output-major (`out_dim × in_dim`), then its bias — the layout
    /// [`Mlp::from_params`] takes.
    pub fn to_params(&self) -> Vec<f32> {
        let mut params = self.params.clone();
        if self.sparse_input {
            let first = self.layers[0];
            let block = first.w_off..first.b_off;
            transpose(
                &self.params[block.clone()],
                first.in_dim,
                first.out_dim,
                &mut params[block],
            );
        }
        params
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// The hidden-layer widths, in order (the `hidden` argument the
    /// network was built with).
    pub fn hidden_dims(&self) -> Vec<usize> {
        self.layers[..self.layers.len() - 1]
            .iter()
            .map(|l| l.out_dim)
            .collect()
    }

    /// Width of the representation (last hidden layer).
    pub fn repr_dim(&self) -> usize {
        self.layers[self.layers.len() - 2].out_dim
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Flat parameter access for the optimizer, in the training layout
    /// (first-layer weights input-major when laid out for sparse inputs;
    /// see the module docs). The gradients [`Mlp::backward_batch`]
    /// writes and [`Mlp::decay_mask`] share this layout.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Layer metadata view (the seed-verbatim reference path and the
    /// certified labels read it).
    pub(crate) fn layer_specs(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Flat parameters in the training layout, read-only.
    pub(crate) fn params(&self) -> &[f32] {
        &self.params
    }

    /// Weight-decay mask aligned with [`Mlp::params_mut`].
    pub fn decay_mask(&self) -> &[bool] {
        &self.decay_mask
    }

    /// Snapshot the parameters in the training layout (for best-epoch
    /// selection; checkpoints use [`Mlp::to_params`]).
    pub fn snapshot(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Restore a snapshot taken from this network in its current layout.
    pub fn restore(&mut self, snapshot: &[f32]) -> Result<()> {
        if snapshot.len() != self.params.len() {
            return Err(EmError::DimensionMismatch {
                context: "MLP restore".into(),
                expected: self.params.len(),
                actual: snapshot.len(),
            });
        }
        self.params.copy_from_slice(snapshot);
        Ok(())
    }

    /// Forward pass for one input; returns `(logit, representation)`.
    ///
    /// The representation is the post-ReLU activation of the last hidden
    /// layer. A one-row [`Mlp::forward_batch`], so the two are
    /// bit-identical.
    pub fn forward(&self, x: &[f32]) -> Result<(f32, Vec<f32>)> {
        let mut ws = MlpWorkspace::new();
        let (logits, repr) = self.forward_batch(x, 1, &mut ws)?;
        Ok((logits[0], repr.to_vec()))
    }

    /// Batched forward over `batch` dense rows packed row-major in `xs`
    /// (`batch × input_dim`). Returns `(logits, representations)` views
    /// into the workspace: `logits` has `batch` entries, the
    /// representations are `batch × repr_dim` row-major.
    ///
    /// A sparse-input network packs the rows sparse first; see
    /// [`Mlp::forward_batch_sparse`].
    pub fn forward_batch<'w>(
        &self,
        xs: &[f32],
        batch: usize,
        ws: &'w mut MlpWorkspace,
    ) -> Result<(&'w [f32], &'w [f32])> {
        if xs.len() != batch * self.input_dim() {
            return Err(EmError::DimensionMismatch {
                context: "MLP forward_batch".into(),
                expected: batch * self.input_dim(),
                actual: xs.len(),
            });
        }
        if self.sparse_input {
            let input = self.pack(xs.chunks_exact(self.input_dim()))?;
            return self.forward_batch_sparse(&input, ws);
        }
        if batch == 0 {
            return Err(EmError::EmptyInput("MLP batch".into()));
        }
        ws.acts.resize_with(self.layers.len(), Vec::new);
        self.dense_layer(0, xs, batch, &mut ws.acts[0]);
        self.deeper_layers(batch, &mut ws.acts);
        Ok(self.outputs(ws))
    }

    /// Pack dense rows into a sparse batch (a row of the wrong width is
    /// a structured error).
    fn pack<'x>(&self, rows: impl IntoIterator<Item = &'x [f32]>) -> Result<SparseRows> {
        let mut input = SparseRows::new(self.input_dim());
        for x in rows {
            input.push_dense(x)?;
        }
        Ok(input)
    }

    /// Batched forward over rows in sparse form: the first layer runs
    /// [`em_vector::sparse_gemm_bias_relu`] (sparse-input network) or
    /// densifies the rows for [`em_vector::gemm_bias_relu`], then one
    /// [`em_vector::gemm_bias_relu`] per later layer. Returns views like
    /// [`Mlp::forward_batch`].
    pub fn forward_batch_sparse<'w>(
        &self,
        xs: &SparseRows,
        ws: &'w mut MlpWorkspace,
    ) -> Result<(&'w [f32], &'w [f32])> {
        self.check_batch(xs, "MLP forward_batch")?;
        self.forward_packed(xs, ws);
        Ok(self.outputs(ws))
    }

    /// Shape checks shared by the sparse entry points.
    fn check_batch(&self, xs: &SparseRows, context: &str) -> Result<()> {
        if xs.dim() != self.input_dim() {
            return Err(EmError::DimensionMismatch {
                context: context.into(),
                expected: self.input_dim(),
                actual: xs.dim(),
            });
        }
        if xs.is_empty() {
            return Err(EmError::EmptyInput("MLP batch".into()));
        }
        Ok(())
    }

    /// `(logits, representations)` of the last pass in `ws`.
    fn outputs<'w>(&self, ws: &'w MlpWorkspace) -> (&'w [f32], &'w [f32]) {
        let n_layers = self.layers.len();
        (&ws.acts[n_layers - 1], &ws.acts[n_layers - 2])
    }

    /// Layer `li` (output-major weights) as one dense fused GEMM over
    /// `input` (`batch × in_dim`) into `out`.
    fn dense_layer(&self, li: usize, input: &[f32], batch: usize, out: &mut Vec<f32>) {
        let spec = self.layers[li];
        out.clear();
        out.resize(batch * spec.out_dim, 0.0);
        gemm_bias_relu(
            input,
            batch,
            &self.params[spec.w_off..spec.b_off],
            spec.out_dim,
            spec.in_dim,
            &self.params[spec.b_off..spec.b_off + spec.out_dim],
            li != self.layers.len() - 1,
            out,
        );
    }

    /// Every layer after the first, each reading the previous one's
    /// activations.
    fn deeper_layers(&self, batch: usize, acts: &mut [Vec<f32>]) {
        for li in 1..self.layers.len() {
            let (prev, rest) = acts.split_at_mut(li);
            self.dense_layer(li, &prev[li - 1], batch, &mut rest[0]);
        }
    }

    /// Forward over a validated batch, filling `ws.acts`.
    fn forward_packed(&self, xs: &SparseRows, ws: &mut MlpWorkspace) {
        if !self.sparse_input {
            xs.to_dense(&mut ws.dense_x);
            self.forward_dense_x(xs.len(), ws);
            return;
        }
        let batch = xs.len();
        let MlpWorkspace { acts, sparse, .. } = ws;
        acts.resize_with(self.layers.len(), Vec::new);
        let first = self.layers[0];
        let out = &mut acts[0];
        out.clear();
        out.resize(batch * first.out_dim, 0.0);
        sparse_gemm_bias_relu(
            xs,
            &self.params[first.w_off..first.b_off],
            first.out_dim,
            &self.params[first.b_off..first.b_off + first.out_dim],
            true,
            out,
            sparse,
        );
        self.deeper_layers(batch, acts);
    }

    /// Forward of a dense-input network over the `batch` rows in
    /// `ws.dense_x`, filling `ws.acts`.
    fn forward_dense_x(&self, batch: usize, ws: &mut MlpWorkspace) {
        let MlpWorkspace { acts, dense_x, .. } = ws;
        acts.resize_with(self.layers.len(), Vec::new);
        self.dense_layer(0, dense_x, batch, &mut acts[0]);
        self.deeper_layers(batch, acts);
    }

    /// Forward + backward over a mini-batch of dense rows; accumulates
    /// the mean BCE gradient into `grads` (zeroed here, training layout)
    /// and returns the mean loss.
    ///
    /// `targets[i] ∈ {0.0, 1.0}`; `sample_weights` rescales individual
    /// samples (all-ones for the standard loss). A sparse-input network
    /// packs the rows sparse first; see [`Mlp::backward_batch_sparse`].
    pub fn backward_batch(
        &self,
        xs: &[&[f32]],
        targets: &[f32],
        sample_weights: &[f32],
        ws: &mut MlpWorkspace,
        grads: &mut Vec<f32>,
    ) -> Result<f32> {
        if self.sparse_input {
            let input = self.pack(xs.iter().copied())?;
            return self.backward_batch_sparse(&input, targets, sample_weights, ws, grads);
        }
        check_targets(xs.len(), targets, sample_weights)?;
        if xs.is_empty() {
            return Err(EmError::EmptyInput("MLP batch".into()));
        }
        ws.dense_x.clear();
        for x in xs {
            if x.len() != self.input_dim() {
                return Err(EmError::DimensionMismatch {
                    context: "MLP backward_batch input".into(),
                    expected: self.input_dim(),
                    actual: x.len(),
                });
            }
            ws.dense_x.extend_from_slice(x);
        }
        self.forward_dense_x(xs.len(), ws);
        Ok(self.backward_pass(None, targets, sample_weights, ws, grads))
    }

    /// [`Mlp::backward_batch`] over rows already in sparse form.
    pub fn backward_batch_sparse(
        &self,
        xs: &SparseRows,
        targets: &[f32],
        sample_weights: &[f32],
        ws: &mut MlpWorkspace,
        grads: &mut Vec<f32>,
    ) -> Result<f32> {
        check_targets(xs.len(), targets, sample_weights)?;
        self.check_batch(xs, "MLP backward_batch input")?;
        self.forward_packed(xs, ws);
        let sparse_rows = Some(xs).filter(|_| self.sparse_input);
        Ok(self.backward_pass(sparse_rows, targets, sample_weights, ws, grads))
    }

    /// The backward half over the forward pass just cached in `ws`;
    /// returns the mean loss. `sparse_rows` is the batch of a
    /// sparse-input network; a dense-input network's first-layer
    /// gradient reads the densified rows in `ws` instead.
    ///
    /// The whole pass is layer-level: per layer one weight-gradient
    /// product (`∂W = Δᵀ·A / batch`) and one delta propagation
    /// (`Δ' = Δ·W`, ReLU-gated), both in vectorized rank-1-update order
    /// (see the module docs) — the seed's per-sample index loops are
    /// preserved in [`crate::reference::backward_batch_reference`].
    fn backward_pass(
        &self,
        sparse_rows: Option<&SparseRows>,
        targets: &[f32],
        sample_weights: &[f32],
        ws: &mut MlpWorkspace,
        grads: &mut Vec<f32>,
    ) -> f32 {
        let batch = targets.len();
        grads.clear();
        grads.resize(self.params.len(), 0.0);
        let n_layers = self.layers.len();
        let batch_inv = 1.0 / batch as f32;
        let ew = Elementwise::dispatched();

        // Borrow the workspace fields disjointly for the backward loop.
        let MlpWorkspace {
            acts,
            dense_x,
            delta,
            delta_prev,
            ..
        } = ws;

        // Loss and delta at the logit (output layer has width 1).
        let logits = &acts[n_layers - 1];
        let mut total_loss = 0.0f32;
        delta.clear();
        delta.resize(batch, 0.0);
        for s in 0..batch {
            let logit = logits[s];
            let y = targets[s];
            let w = sample_weights[s];
            // Numerically stable BCE-with-logits.
            total_loss += w * (logit.max(0.0) - logit * y + (1.0 + (-logit.abs()).exp()).ln());
            delta[s] = w * (sigmoid(logit) - y);
        }

        for li in (1..n_layers).rev() {
            let spec = self.layers[li];
            let prev_act = &acts[li - 1];
            dense_weight_grad(ew, spec, delta, prev_act, batch, grads);
            // Delta propagation: Δ'[s, i] = Σ_o Δ[s, o] · W[o, i], gated
            // by the ReLU derivative (prev activation > 0). Same
            // rank-1-update order (the contraction is over output units,
            // accumulated ascending — the seed's order), axpy rows over
            // the contiguous weight rows.
            delta_prev.clear();
            delta_prev.resize(batch * spec.in_dim, 0.0);
            for s in 0..batch {
                let drow = &delta[s * spec.out_dim..(s + 1) * spec.out_dim];
                let out_row = &mut delta_prev[s * spec.in_dim..(s + 1) * spec.in_dim];
                for (o, &d) in drow.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let wrow = spec.w_off + o * spec.in_dim;
                    ew.axpy(d, &self.params[wrow..wrow + spec.in_dim], out_row);
                }
                let arow = &prev_act[s * spec.in_dim..(s + 1) * spec.in_dim];
                for (pd, &a) in out_row.iter_mut().zip(arow) {
                    if a <= 0.0 {
                        *pd = 0.0;
                    }
                }
            }
            std::mem::swap(delta, delta_prev);
        }

        let first = self.layers[0];
        if let Some(xs) = sparse_rows {
            // Input-major: row `i` of ∂Wᵀ gains x[s, i] · Δ[s, ·] for
            // every nonzero input — a contiguous axpy over the hidden
            // units — in sample order. The zero inputs a dense pass
            // would visit add ±0 to entries that are never −0, so
            // skipping them changes no bit; neither does adding a dead
            // unit's zero delta.
            for s in 0..batch {
                let drow = &delta[s * first.out_dim..(s + 1) * first.out_dim];
                let (idx, val) = xs.row(s);
                for (&i, &a) in idx.iter().zip(val) {
                    let grow = first.w_off + i * first.out_dim;
                    ew.axpy(a, drow, &mut grads[grow..grow + first.out_dim]);
                }
                for (g, &d) in grads[first.b_off..first.b_off + first.out_dim]
                    .iter_mut()
                    .zip(drow)
                {
                    *g += d;
                }
            }
        } else {
            dense_weight_grad(ew, first, delta, dense_x, batch, grads);
        }
        ew.scale(batch_inv, grads);
        total_loss * batch_inv
    }
}

/// Targets and sample weights must cover the batch.
fn check_targets(batch: usize, targets: &[f32], sample_weights: &[f32]) -> Result<()> {
    if batch != targets.len() || batch != sample_weights.len() {
        return Err(EmError::DimensionMismatch {
            context: "MLP backward_batch".into(),
            expected: batch,
            actual: targets.len().min(sample_weights.len()),
        });
    }
    Ok(())
}

/// Weight + bias gradients of an output-major layer: `∂W += Δᵀ·A`,
/// `∂b += Δᵀ·1` (unscaled). The contraction dimension is the batch —
/// far too short for a dot-reduction GEMM to amortize — so this runs the
/// product in outer-product (rank-1 update) order: one data-parallel
/// axpy row per (sample, live output unit), each one
/// [`Elementwise::axpy`] at the dispatched tier's full width. The
/// per-entry reduction is in sample order (the seed's), and dead ReLU
/// units (`d == 0`) skip their whole row.
fn dense_weight_grad(
    ew: Elementwise,
    spec: LayerSpec,
    delta: &[f32],
    prev_act: &[f32],
    batch: usize,
    grads: &mut [f32],
) {
    for s in 0..batch {
        let drow = &delta[s * spec.out_dim..(s + 1) * spec.out_dim];
        let arow = &prev_act[s * spec.in_dim..(s + 1) * spec.in_dim];
        for (o, &d) in drow.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let wrow = spec.w_off + o * spec.in_dim;
            ew.axpy(d, arow, &mut grads[wrow..wrow + spec.in_dim]);
            grads[spec.b_off + o] += d;
        }
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adamw::AdamW;

    #[test]
    fn construction_validates() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(Mlp::new(0, &[4], &mut rng).is_err());
        assert!(Mlp::new(4, &[], &mut rng).is_err());
        assert!(Mlp::new(4, &[4, 0], &mut rng).is_err());
        let mlp = Mlp::new(10, &[8, 4], &mut rng).unwrap();
        assert_eq!(mlp.input_dim(), 10);
        assert_eq!(mlp.repr_dim(), 4);
        // (10·8+8) + (8·4+4) + (4·1+1) = 88 + 36 + 5.
        assert_eq!(mlp.n_params(), 129);
    }

    #[test]
    fn forward_shapes_and_dim_check() {
        let mut rng = Rng::seed_from_u64(2);
        let mlp = Mlp::new(5, &[7], &mut rng).unwrap();
        let (logit, repr) = mlp.forward(&[0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        assert!(logit.is_finite());
        assert_eq!(repr.len(), 7);
        assert!(repr.iter().all(|&x| x >= 0.0), "ReLU output negative");
        assert!(mlp.forward(&[1.0]).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(3);
        let mut mlp = Mlp::new(3, &[4], &mut rng).unwrap();
        let x: Vec<f32> = vec![0.5, -0.3, 0.8];
        let y = 1.0f32;
        let mut grads = Vec::new();
        let mut ws = MlpWorkspace::new();
        mlp.backward_batch(&[&x], &[y], &[1.0], &mut ws, &mut grads)
            .unwrap();

        let loss_of = |m: &Mlp| -> f32 {
            let (logit, _) = m.forward(&x).unwrap();
            logit.max(0.0) - logit * y + (1.0 + (-logit.abs()).exp()).ln()
        };
        let eps = 1e-3f32;
        let snapshot = mlp.snapshot();
        let mut checked = 0;
        for p in (0..mlp.n_params()).step_by(4) {
            let mut plus = snapshot.clone();
            plus[p] += eps;
            mlp.restore(&plus).unwrap();
            let lp = loss_of(&mlp);
            let mut minus = snapshot.clone();
            minus[p] -= eps;
            mlp.restore(&minus).unwrap();
            let lm = loss_of(&mlp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[p]).abs() < 1e-2,
                "param {p}: numeric {numeric} vs analytic {}",
                grads[p]
            );
            checked += 1;
        }
        assert!(checked > 3);
        mlp.restore(&snapshot).unwrap();
    }

    #[test]
    fn learns_a_linearly_separable_problem() {
        let mut rng = Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(2, &[8], &mut rng).unwrap();
        let mut opt = AdamW::new(mlp.n_params(), 0.01, 0.0).unwrap();
        // y = 1 iff x0 > x1.
        let data: Vec<(Vec<f32>, f32)> = (0..200)
            .map(|_| {
                let a = rng.f32() * 2.0 - 1.0;
                let b = rng.f32() * 2.0 - 1.0;
                (vec![a, b], if a > b { 1.0 } else { 0.0 })
            })
            .collect();
        let mut grads = Vec::new();
        let mut scratch = MlpWorkspace::new();
        for _epoch in 0..60 {
            for chunk in data.chunks(32) {
                let xs: Vec<&[f32]> = chunk.iter().map(|(x, _)| x.as_slice()).collect();
                let ys: Vec<f32> = chunk.iter().map(|(_, y)| *y).collect();
                let ws = vec![1.0f32; xs.len()];
                mlp.backward_batch(&xs, &ys, &ws, &mut scratch, &mut grads)
                    .unwrap();
                let mask = mlp.decay_mask().to_vec();
                opt.step(mlp.params_mut(), &grads, &mask).unwrap();
            }
        }
        let correct = data
            .iter()
            .filter(|(x, y)| {
                let (logit, _) = mlp.forward(x).unwrap();
                (sigmoid(logit) >= 0.5) == (*y == 1.0)
            })
            .count();
        assert!(correct >= 190, "accuracy {correct}/200");
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = Rng::seed_from_u64(5);
        let mut mlp = Mlp::new(2, &[16], &mut rng).unwrap();
        let mut opt = AdamW::new(mlp.n_params(), 0.02, 0.0).unwrap();
        let data: [(Vec<f32>, f32); 4] = [
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 1.0),
            (vec![1.0, 1.0], 0.0),
        ];
        let mut grads = Vec::new();
        let mut scratch = MlpWorkspace::new();
        for _ in 0..800 {
            let xs: Vec<&[f32]> = data.iter().map(|(x, _)| x.as_slice()).collect();
            let ys: Vec<f32> = data.iter().map(|(_, y)| *y).collect();
            mlp.backward_batch(&xs, &ys, &[1.0; 4], &mut scratch, &mut grads)
                .unwrap();
            let mask = mlp.decay_mask().to_vec();
            opt.step(mlp.params_mut(), &grads, &mask).unwrap();
        }
        for (x, y) in &data {
            let (logit, _) = mlp.forward(x).unwrap();
            assert_eq!(sigmoid(logit) >= 0.5, *y == 1.0, "failed on {x:?}");
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut rng = Rng::seed_from_u64(6);
        let mut mlp = Mlp::new(4, &[3], &mut rng).unwrap();
        let snap = mlp.snapshot();
        let (before, _) = mlp.forward(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        mlp.params_mut()[0] += 1.0;
        let (changed, _) = mlp.forward(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_ne!(before, changed);
        mlp.restore(&snap).unwrap();
        let (after, _) = mlp.forward(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(before, after);
        assert!(mlp.restore(&[1.0]).is_err());
    }

    #[test]
    fn from_params_rebuilds_identical_network() {
        let mut rng = Rng::seed_from_u64(77);
        let mlp = Mlp::new(9, &[6, 4], &mut rng).unwrap();
        assert_eq!(mlp.hidden_dims(), vec![6, 4]);
        let rebuilt = Mlp::from_params(9, &[6, 4], mlp.to_params()).unwrap();
        assert_eq!(rebuilt.decay_mask(), mlp.decay_mask());
        assert_eq!(rebuilt.snapshot(), mlp.snapshot());
        assert_eq!(rebuilt.to_params(), mlp.to_params());
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.3 - 1.0).collect();
        let (la, ra) = mlp.forward(&x).unwrap();
        let (lb, rb) = rebuilt.forward(&x).unwrap();
        assert_eq!(la.to_bits(), lb.to_bits());
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape validation mirrors `new`.
        assert!(Mlp::from_params(0, &[4], vec![0.0; 9]).is_err());
        assert!(Mlp::from_params(4, &[], vec![0.0; 9]).is_err());
        assert!(Mlp::from_params(4, &[4, 0], vec![0.0; 9]).is_err());
        assert!(Mlp::from_params(9, &[6, 4], vec![0.0; 3]).is_err());
    }

    #[test]
    fn checkpoint_layout_is_output_major() {
        // Weight (o, i) of the first layer sits at `o · in_dim + i` in
        // the checkpoint layout, whatever the training layout does.
        let (in_dim, hidden) = (5usize, 3usize);
        let n = in_dim * hidden + hidden + hidden + 1;
        let params: Vec<f32> = (0..n).map(|p| p as f32).collect();
        let mlp = Mlp::from_params(in_dim, &[hidden], params.clone()).unwrap();
        assert_eq!(mlp.to_params(), params);
        let mut x = vec![0.0f32; in_dim];
        x[2] = 1.0;
        // ReLU(Σ_i W[o, i]·x_i + b_o) with x = e₂ picks W[o, 2] + b_o.
        let mut ws = MlpWorkspace::new();
        mlp.forward_batch(&x, 1, &mut ws).unwrap();
        let b0 = in_dim * hidden;
        for o in 0..hidden {
            assert_eq!(ws.acts[0][o], params[o * in_dim + 2] + params[b0 + o]);
        }
    }

    /// The dense, output-major forward this module's sparse first layer
    /// replaced: per output one dispatched `dot` plus the bias, ReLU on
    /// hidden layers. Returns `(logits, activations per layer)`.
    fn dense_forward(mlp: &Mlp, xs: &[f32], batch: usize) -> Vec<Vec<f32>> {
        let params = mlp.to_params();
        let layers = mlp.layer_specs();
        let mut acts = vec![xs.to_vec()];
        for (li, spec) in layers.iter().enumerate() {
            let prev = &acts[li];
            let mut out = vec![0.0f32; batch * spec.out_dim];
            for s in 0..batch {
                for o in 0..spec.out_dim {
                    let w = &params[spec.w_off + o * spec.in_dim..][..spec.in_dim];
                    let a = &prev[s * spec.in_dim..(s + 1) * spec.in_dim];
                    let mut v = em_vector::kernel::dot(a, w) + params[spec.b_off + o];
                    if li != layers.len() - 1 {
                        v = v.max(0.0);
                    }
                    out[s * spec.out_dim + o] = v;
                }
            }
            acts.push(out);
        }
        acts
    }

    /// The dense, output-major backward the sparse first layer replaced
    /// (every layer in rank-1 order over dense activations). Returns the
    /// mean loss and the gradients in the checkpoint layout.
    fn dense_backward(mlp: &Mlp, xs: &[f32], batch: usize, ys: &[f32]) -> (f32, Vec<f32>) {
        let params = mlp.to_params();
        let layers = mlp.layer_specs();
        let n_layers = layers.len();
        let acts = dense_forward(mlp, xs, batch);
        let batch_inv = 1.0 / batch as f32;
        let mut loss = 0.0f32;
        let mut delta = vec![0.0f32; batch];
        for s in 0..batch {
            let (z, y) = (acts[n_layers][s], ys[s]);
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
            delta[s] = sigmoid(z) - y;
        }
        let mut grads = vec![0.0f32; params.len()];
        for li in (0..n_layers).rev() {
            let spec = layers[li];
            let prev = &acts[li];
            for s in 0..batch {
                for o in 0..spec.out_dim {
                    let d = delta[s * spec.out_dim + o];
                    if d == 0.0 {
                        continue;
                    }
                    for i in 0..spec.in_dim {
                        grads[spec.w_off + o * spec.in_dim + i] += d * prev[s * spec.in_dim + i];
                    }
                    grads[spec.b_off + o] += d;
                }
            }
            if li == 0 {
                break;
            }
            let mut prev_delta = vec![0.0f32; batch * spec.in_dim];
            for s in 0..batch {
                for o in 0..spec.out_dim {
                    let d = delta[s * spec.out_dim + o];
                    if d == 0.0 {
                        continue;
                    }
                    for i in 0..spec.in_dim {
                        prev_delta[s * spec.in_dim + i] +=
                            d * params[spec.w_off + o * spec.in_dim + i];
                    }
                }
                for i in 0..spec.in_dim {
                    if prev[s * spec.in_dim + i] <= 0.0 {
                        prev_delta[s * spec.in_dim + i] = 0.0;
                    }
                }
            }
            delta = prev_delta;
        }
        for g in &mut grads {
            *g *= batch_inv;
        }
        (loss * batch_inv, grads)
    }

    /// Feature-like rows: row 0 all zero, the last row fully dense, the
    /// rest ~5 % hashed-count-like nonzeros plus one one-hot entry in
    /// the top 16 inputs.
    fn feature_rows(batch: usize, dim: usize, rng: &mut Rng) -> Vec<f32> {
        let mut xs = vec![0.0f32; batch * dim];
        for s in 1..batch {
            let row = &mut xs[s * dim..(s + 1) * dim];
            if s == batch - 1 {
                row.iter_mut().for_each(|x| *x = rng.normal() as f32);
                continue;
            }
            for x in row[..dim - 16].iter_mut() {
                if rng.f64() < 0.05 {
                    *x = (rng.normal() * 0.3) as f32;
                }
            }
            row[dim - 16 + rng.below(16)] = 1.0;
        }
        xs
    }

    /// Gradients in the training layout, re-expressed in the
    /// checkpoint layout.
    fn checkpoint_layout(mlp: &Mlp, train_layout: &[f32]) -> Vec<f32> {
        let mut m = mlp.clone();
        m.restore(train_layout).unwrap();
        m.to_params()
    }

    const TIERS: [em_vector::SimdTier; 3] = [
        em_vector::SimdTier::Portable,
        em_vector::SimdTier::Avx2,
        em_vector::SimdTier::Avx512,
    ];

    #[test]
    fn layout_switch_keeps_checkpoint_params() {
        let mut rng = Rng::seed_from_u64(41);
        let mut mlp = Mlp::new(7, &[5, 3], &mut rng).unwrap();
        assert!(mlp.sparse_input());
        let params = mlp.to_params();
        let sparse_snapshot = mlp.snapshot();
        mlp.set_sparse_input(false);
        assert!(!mlp.sparse_input());
        assert_eq!(mlp.to_params(), params);
        // The dense layout is the checkpoint layout.
        assert_eq!(mlp.snapshot(), params);
        mlp.set_sparse_input(false);
        assert_eq!(mlp.snapshot(), params);
        mlp.set_sparse_input(true);
        assert_eq!(mlp.snapshot(), sparse_snapshot);
    }

    #[test]
    fn both_layouts_match_dense_oracle_on_every_tier() {
        // Width 100 leaves remainders past both the 16- and 32-wide
        // steps and wraps the 64-slot period; 848 × [96] is the
        // matcher's shape. Batch 21 exercises ragged GEMM tiles.
        let mut rng = Rng::seed_from_u64(40);
        let shapes = [(100usize, vec![24usize, 9]), (848, vec![96])];
        let cases = [true, false]
            .into_iter()
            .flat_map(|sparse| shapes.clone().map(|shape| (shape, sparse)));
        for ((dim, hidden), sparse_input) in cases {
            let mut mlp = Mlp::new(dim, &hidden, &mut rng).unwrap();
            mlp.set_sparse_input(sparse_input);
            let repr = *hidden.last().unwrap();
            let batch = 21;
            let xs = feature_rows(batch, dim, &mut rng);
            let ys: Vec<f32> = (0..batch).map(|s| (s % 2) as f32).collect();
            for tier in TIERS {
                em_vector::with_simd_tier(tier, || {
                    rayon::serial_scope(|| {
                        let name = format!(
                            "{} sparse_input={sparse_input}",
                            em_vector::simd_tier().name()
                        );
                        let acts = dense_forward(&mlp, &xs, batch);
                        let mut ws = MlpWorkspace::new();
                        let (logits, reprs) = mlp.forward_batch(&xs, batch, &mut ws).unwrap();
                        for (a, b) in logits.iter().zip(&acts[acts.len() - 1]) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{name} {dim} logit");
                        }
                        for (a, b) in reprs.iter().zip(&acts[acts.len() - 2]) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{name} {dim} repr");
                        }
                        for s in 0..batch {
                            let (logit, r) = mlp.forward(&xs[s * dim..(s + 1) * dim]).unwrap();
                            assert_eq!(logit.to_bits(), logits[s].to_bits(), "{name} row {s}");
                            assert_eq!(r, reprs[s * repr..(s + 1) * repr]);
                        }
                        let (loss_d, grads_d) = dense_backward(&mlp, &xs, batch, &ys);
                        let rows: Vec<&[f32]> = xs.chunks(dim).collect();
                        let ones = vec![1.0; batch];
                        let mut grads = Vec::new();
                        let loss = mlp
                            .backward_batch(&rows, &ys, &ones, &mut ws, &mut grads)
                            .unwrap();
                        assert_eq!(loss.to_bits(), loss_d.to_bits(), "{name} {dim} loss");
                        for (p, (a, b)) in checkpoint_layout(&mlp, &grads)
                            .iter()
                            .zip(&grads_d)
                            .enumerate()
                        {
                            assert_eq!(a.to_bits(), b.to_bits(), "{name} {dim} grad {p}");
                        }
                        // The sparse entry points give the same bits in
                        // either layout.
                        let packed = mlp.pack(rows.iter().copied()).unwrap();
                        let (logits, _) = mlp.forward_batch_sparse(&packed, &mut ws).unwrap();
                        for (a, b) in logits.iter().zip(&acts[acts.len() - 1]) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{name} {dim} sparse logit");
                        }
                        let loss = mlp
                            .backward_batch_sparse(&packed, &ys, &ones, &mut ws, &mut grads)
                            .unwrap();
                        assert_eq!(loss.to_bits(), loss_d.to_bits(), "{name} {dim} sparse loss");
                        let grads = checkpoint_layout(&mlp, &grads);
                        for (p, (a, b)) in grads.iter().zip(&grads_d).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{name} {dim} sparse grad {p}");
                        }
                    })
                });
            }
        }
    }

    #[test]
    fn training_trajectory_matches_dense_oracle_on_every_tier() {
        // AdamW is elementwise, so the layout is invisible to it: a run
        // of steps in either layout ends on the dense run's exact weights.
        let (dim, batch) = (100usize, 8usize);
        for (tier, sparse_input) in TIERS.iter().flat_map(|&t| [(t, true), (t, false)]) {
            em_vector::with_simd_tier(tier, || {
                rayon::serial_scope(|| {
                    let mut rng = Rng::seed_from_u64(43);
                    let mut mlp = Mlp::new(dim, &[12], &mut rng).unwrap();
                    mlp.set_sparse_input(sparse_input);
                    let mut oracle = mlp.clone();
                    let mut opt = AdamW::new(mlp.n_params(), 0.05, 1e-3).unwrap();
                    let mut opt_oracle = opt.clone();
                    let mask = mlp.decay_mask().to_vec();
                    let mut ws = MlpWorkspace::new();
                    let mut grads = Vec::new();
                    for step in 0..12 {
                        let xs = feature_rows(batch, dim, &mut rng);
                        let ys: Vec<f32> = (0..batch)
                            .map(|s| ((s + step) % 3 == 0) as u8 as f32)
                            .collect();
                        let rows: Vec<&[f32]> = xs.chunks(dim).collect();
                        mlp.backward_batch(&rows, &ys, &[1.0; 8], &mut ws, &mut grads)
                            .unwrap();
                        opt.step(mlp.params_mut(), &grads, &mask).unwrap();
                        let (_, g) = dense_backward(&oracle, &xs, batch, &ys);
                        let mut params = oracle.to_params();
                        opt_oracle.step(&mut params, &g, &mask).unwrap();
                        oracle = Mlp::from_params(dim, &[12], params).unwrap();
                    }
                    let (a, b) = (mlp.to_params(), oracle.to_params());
                    for (p, (x, y)) in a.iter().zip(&b).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "tier {} sparse_input={sparse_input} param {p}",
                            tier.name()
                        );
                    }
                })
            });
        }
    }

    #[test]
    fn workspace_is_reusable_across_batch_sizes() {
        let mut rng = Rng::seed_from_u64(42);
        let mut mlp = Mlp::new(8, &[5], &mut rng).unwrap();
        let mut ws = MlpWorkspace::new();
        for (step, batch) in [4usize, 9, 1, 6].into_iter().enumerate() {
            mlp.set_sparse_input(step % 2 == 0);
            let xs: Vec<f32> = (0..batch * 8).map(|_| rng.normal() as f32).collect();
            let (logits, reprs) = mlp.forward_batch(&xs, batch, &mut ws).unwrap();
            assert_eq!(logits.len(), batch);
            assert_eq!(reprs.len(), batch * 5);
            for s in 0..batch {
                let (logit, _) = mlp.forward(&xs[s * 8..(s + 1) * 8]).unwrap();
                assert_eq!(logits[s].to_bits(), logit.to_bits(), "batch {batch}");
            }
        }
        // Shape errors are reported, not asserted, in either layout.
        for sparse_input in [true, false] {
            mlp.set_sparse_input(sparse_input);
            assert!(mlp.forward_batch(&[1.0; 7], 1, &mut ws).is_err());
            assert!(mlp.forward_batch(&[], 0, &mut ws).is_err());
        }
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }
}
