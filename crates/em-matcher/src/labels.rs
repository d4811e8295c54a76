//! Sign labels `sigmoid(ẑ) ≥ 0.5` of the exact forward, decided from an
//! error-bounded fast forward where its bound settles the sign, and
//! from the exact forward for the rows it does not.
//!
//! The argument, its constants and its preconditions are in the
//! [`crate::matcher`] module docs ("Certified labels"); the first
//! layer's bound is [`em_vector::sparse_gemm_bias_relu_bounded`]'s.

use std::ops::Range;

use em_core::{Label, Result};
use em_vector::{
    gemm_bias_relu, sparse_gemm_bias_relu_bounded, summation_gamma, underflow_allowance,
    SparseRows, MAX_BOUNDED_TERMS,
};

use crate::mlp::{sigmoid, Mlp, MlpWorkspace};

/// Margin below zero a logit must clear for a certified `NonMatch`:
/// `exp(−τ)` is far enough below 1 that `sigmoid` of every logit at or
/// below `−τ` rounds below 0.5, while a logit in `(−τ, 0)` can round
/// `exp` to 1 and `sigmoid` to exactly 0.5.
const TAU: f32 = 1.0 / 1024.0;

/// Deepest network whose bound arithmetic the final doubling covers:
/// each layer's bound falls short of the real one by at most a factor
/// `1 − γ_{k+4} ≥ 1 − 2.5·10⁻⁴` (fan-in `k` ≤ [`MAX_BOUNDED_TERMS`]),
/// and 1024 such factors stay above 1/2.
const MAX_BOUNDED_LAYERS: usize = 1024;

/// Rows per block of the fast forward: few enough that a block's
/// activations and bounds stay in L1 between layers (24 KiB at the
/// shipped 96 hidden units).
const BLOCK_ROWS: usize = 32;

/// The label the probe reads off an exact logit.
pub(crate) fn sign_label(z: f32) -> Label {
    Label::from_bool(sigmoid(z) >= 0.5)
}

/// What one probe of a network needs beyond its parameters: the
/// magnitudes of the deeper layers' weights and biases (97 floats for
/// the shipped `848 → 96 → 1` network), taken once per probe.
#[derive(Debug)]
pub(crate) struct LabelProbe {
    /// `|params|` from the second layer's weights on, in the parameter
    /// layout shifted by that layer's offset.
    abs: Vec<f32>,
    /// Zero biases for the `|W|·e` products, as wide as the widest layer.
    zeros: Vec<f32>,
}

impl LabelProbe {
    /// The probe of `mlp`, or `None` when its labels are not certified:
    /// a dense-input network, or a shape past the bound's preconditions
    /// (a deeper fan-in above [`MAX_BOUNDED_TERMS`], more than
    /// [`MAX_BOUNDED_LAYERS`] layers).
    pub(crate) fn new(mlp: &Mlp) -> Option<LabelProbe> {
        let layers = mlp.layer_specs();
        let certified = mlp.sparse_input()
            && layers.len() <= MAX_BOUNDED_LAYERS
            && layers[1..].iter().all(|l| l.in_dim <= MAX_BOUNDED_TERMS);
        if !certified {
            return None;
        }
        let widest = layers.iter().map(|l| l.out_dim).max().unwrap_or(0);
        Some(LabelProbe {
            abs: mlp.params()[layers[1].w_off..]
                .iter()
                .map(|x| x.abs())
                .collect(),
            zeros: vec![0.0; widest],
        })
    }

    /// Append the sign labels of `rows` to `out`; returns how many rows
    /// the bound left to the exact forward.
    pub(crate) fn labels(
        &self,
        mlp: &Mlp,
        rows: &SparseRows,
        s: &mut LabelScratch,
        out: &mut Vec<Label>,
    ) -> Result<usize> {
        let start = out.len();
        s.pending.clear();
        for block in (0..rows.len()).step_by(BLOCK_ROWS) {
            let block = block..(block + BLOCK_ROWS).min(rows.len());
            self.fast_logits(mlp, rows, block.clone(), s);
            for (r, (&z, &e)) in block.zip(s.act.iter().zip(&s.err)) {
                // Doubled for the rounding of the bound arithmetic.
                let bound = e + e;
                if z.is_finite() && bound.is_finite() && z > bound {
                    out.push(Label::Match);
                } else if z.is_finite() && bound.is_finite() && z + bound < -TAU {
                    out.push(Label::NonMatch);
                } else {
                    s.pending.push(r);
                    out.push(Label::NonMatch);
                }
            }
        }
        if !s.pending.is_empty() {
            s.exact.clear();
            for &r in &s.pending {
                s.exact.push_row_of(rows, r)?;
            }
            let (logits, _) = mlp.forward_batch_sparse(&s.exact, &mut s.ws)?;
            for (&r, &z) in s.pending.iter().zip(logits) {
                out[start + r] = sign_label(z);
            }
        }
        Ok(s.pending.len())
    }

    /// The fast logits `z̃` of rows `block` into `s.act` and their
    /// bounds (before the final doubling) into `s.err`.
    fn fast_logits(&self, mlp: &Mlp, rows: &SparseRows, block: Range<usize>, s: &mut LabelScratch) {
        let (layers, params) = (mlp.layer_specs(), mlp.params());
        let batch = block.len();
        let first = layers[0];
        s.act.resize(batch * first.out_dim, 0.0);
        s.err.resize(batch * first.out_dim, 0.0);
        sparse_gemm_bias_relu_bounded(
            rows,
            block,
            &params[first.w_off..first.b_off],
            first.out_dim,
            &params[first.b_off..first.b_off + first.out_dim],
            &mut s.act,
            &mut s.err,
        );
        let shift = layers[1].w_off;
        for (li, spec) in layers.iter().enumerate().skip(1) {
            let (k, n) = (spec.in_dim, spec.out_dim);
            let (w, b) = (spec.w_off..spec.b_off, spec.b_off..spec.b_off + n);
            let abs_w = &self.abs[w.start - shift..w.end - shift];
            let abs_b = &self.abs[b.start - shift..b.end - shift];
            let relu = li + 1 < layers.len();
            // ã' = act(W·ã + b), by the exact path's own dense kernel.
            s.next_act.resize(batch * n, 0.0);
            gemm_bias_relu(
                &s.act,
                batch,
                &params[w],
                n,
                k,
                &params[b],
                relu,
                &mut s.next_act,
            );
            // e' = |W|·e + 2γ·((|W|·ã + |b|) + |W|·e) + underflow.
            s.abs_e.resize(batch * n, 0.0);
            gemm_bias_relu(
                &s.err,
                batch,
                abs_w,
                n,
                k,
                &self.zeros[..n],
                false,
                &mut s.abs_e,
            );
            s.next_err.resize(batch * n, 0.0);
            gemm_bias_relu(&s.act, batch, abs_w, n, k, abs_b, false, &mut s.next_err);
            let (gamma, tiny) = (summation_gamma(k), underflow_allowance(k));
            for (e, &we) in s.next_err.iter_mut().zip(&s.abs_e) {
                let magnitude = *e + we;
                *e = we + (magnitude + magnitude) * gamma + tiny;
            }
            std::mem::swap(&mut s.act, &mut s.next_act);
            std::mem::swap(&mut s.err, &mut s.next_err);
        }
    }
}

/// Buffers of one chunk's labels, reused across probes.
#[derive(Debug)]
pub(crate) struct LabelScratch {
    act: Vec<f32>,
    err: Vec<f32>,
    next_act: Vec<f32>,
    next_err: Vec<f32>,
    abs_e: Vec<f32>,
    pending: Vec<usize>,
    /// The rows the bound left undecided, for the exact forward.
    exact: SparseRows,
    /// The exact forward's workspace.
    pub(crate) ws: MlpWorkspace,
}

impl LabelScratch {
    /// Empty buffers for rows of width `dim`; sized by the first use.
    pub(crate) fn new(dim: usize) -> Self {
        LabelScratch {
            act: Vec::new(),
            err: Vec::new(),
            next_act: Vec::new(),
            next_err: Vec::new(),
            abs_e: Vec::new(),
            pending: Vec::new(),
            exact: SparseRows::new(dim),
            ws: MlpWorkspace::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_decides_both_certified_signs() {
        // A positive logit (and +0) labels `Match` ...
        for z in [0.0f32, f32::MIN_POSITIVE, 1e-30, 1.0] {
            assert!(sigmoid(z) >= 0.5, "{z}");
            assert_eq!(sign_label(z), Label::Match);
        }
        // ... every logit at or below −τ labels `NonMatch`: each float
        // of the first percent below −τ, then a geometric sweep out to
        // −1e30 and −∞ ...
        let mut z = -TAU;
        while z >= -TAU * 1.01 {
            assert!(sigmoid(z) < 0.5, "{z}");
            z = z.next_down();
        }
        let mut z = -TAU;
        while z > -1e30 {
            assert!(sigmoid(z) < 0.5, "{z}");
            z *= 1.0 + 1.0 / 64.0;
        }
        assert_eq!(sign_label(f32::NEG_INFINITY), Label::NonMatch);
        // ... while inside the margin `exp` can round to 1, so the label
        // of a slightly negative logit is `Match`: why the margin exists.
        assert_eq!(sigmoid(-1e-10), 0.5);
        assert_eq!(sign_label(-1e-10), Label::Match);
    }
}
