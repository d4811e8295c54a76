//! Seed-verbatim scalar matcher paths, preserved as the measured
//! baseline.
//!
//! The GEMM-backed engine in [`crate::mlp`] / [`crate::matcher`]
//! replaced the seed's per-sample index loops. This module keeps those
//! loops — one forward accumulator per output unit, per-sample gradient
//! accumulation, per-row prediction, and the per-epoch `mlp.clone()`
//! validation probe — exactly as the seed ran them, for two purposes:
//!
//! * the `em-bench` matcher benchmark times [`train_matcher_reference`]
//!   and [`predict_reference`] against the batched engine (the ≥3× perf
//!   gate needs the real seed baseline, not a de-tuned copy);
//! * the tolerance tests in [`crate::matcher`] pin the batched engine's
//!   numerics to the seed's (same losses and gradients up to summation
//!   association — the seed reduces per sample in sample order, the
//!   GEMM engine in the fixed 16-lane kernel order, so the two are
//!   close but deliberately **not** bit-comparable; bit-identity is
//!   asserted between the scalar and batched *kernel* paths instead).
//!
//! Nothing in the production crates calls into this module.

// Seed-verbatim numeric loops walk parallel arrays by index; keep the
// lockstep structure exactly as the seed wrote it.
#![allow(clippy::needless_range_loop)]

use em_core::{BinaryConfusion, EmError, Label, Prediction, Result, Rng};
use em_vector::Embeddings;

use crate::adamw::AdamW;
use crate::calibration::apply_temperature;
use crate::matcher::{MatcherConfig, MatcherOutput, TrainedMatcher};
use crate::mlp::{sigmoid, LayerSpec, Mlp};

/// Seed-verbatim forward pass: one running accumulator per output unit
/// (bias first, then a single sequential multiply-add chain).
pub fn forward_reference(mlp: &Mlp, x: &[f32]) -> Result<(f32, Vec<f32>)> {
    forward_seed(mlp.layer_specs(), &mlp.to_params(), x)
}

/// The seed's forward over parameters in the checkpoint layout (every
/// weight block output-major, as the seed stored them).
fn forward_seed(layers: &[LayerSpec], params: &[f32], x: &[f32]) -> Result<(f32, Vec<f32>)> {
    if x.len() != layers[0].in_dim {
        return Err(EmError::DimensionMismatch {
            context: "MLP forward".into(),
            expected: layers[0].in_dim,
            actual: x.len(),
        });
    }
    let mut activation = x.to_vec();
    let mut repr = Vec::new();
    for (li, spec) in layers.iter().enumerate() {
        let mut next = vec![0.0f32; spec.out_dim];
        for o in 0..spec.out_dim {
            let row = &params[spec.w_off + o * spec.in_dim..][..spec.in_dim];
            let mut acc = params[spec.b_off + o];
            for (w, a) in row.iter().zip(&activation) {
                acc += w * a;
            }
            next[o] = acc;
        }
        let is_output = li == layers.len() - 1;
        if !is_output {
            for v in &mut next {
                *v = v.max(0.0);
            }
            if li == layers.len() - 2 {
                repr = next.clone();
            }
        }
        activation = next;
    }
    Ok((activation[0], repr))
}

/// Seed-verbatim forward + backward over a mini-batch: per-sample
/// forward with freshly allocated activation vectors, then per-sample
/// gradient accumulation in sample order. `grads` comes back in the
/// checkpoint layout ([`Mlp::to_params`]).
pub fn backward_batch_reference(
    mlp: &Mlp,
    xs: &[&[f32]],
    targets: &[f32],
    sample_weights: &[f32],
    grads: &mut Vec<f32>,
) -> Result<f32> {
    backward_seed(
        mlp.layer_specs(),
        &mlp.to_params(),
        xs,
        targets,
        sample_weights,
        grads,
    )
}

/// The seed's forward + backward over checkpoint-layout parameters.
fn backward_seed(
    layers: &[LayerSpec],
    params: &[f32],
    xs: &[&[f32]],
    targets: &[f32],
    sample_weights: &[f32],
    grads: &mut Vec<f32>,
) -> Result<f32> {
    if xs.len() != targets.len() || xs.len() != sample_weights.len() {
        return Err(EmError::DimensionMismatch {
            context: "MLP backward_batch".into(),
            expected: xs.len(),
            actual: targets.len().min(sample_weights.len()),
        });
    }
    if xs.is_empty() {
        return Err(EmError::EmptyInput("MLP batch".into()));
    }
    grads.clear();
    grads.resize(params.len(), 0.0);

    let n_layers = layers.len();
    let batch_inv = 1.0 / xs.len() as f32;
    let mut total_loss = 0.0f32;

    // Per-sample forward with cached activations, then backward.
    for (si, &x) in xs.iter().enumerate() {
        if x.len() != layers[0].in_dim {
            return Err(EmError::DimensionMismatch {
                context: "MLP backward_batch input".into(),
                expected: layers[0].in_dim,
                actual: x.len(),
            });
        }
        // Forward, caching post-activation outputs per layer.
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n_layers + 1);
        acts.push(x.to_vec());
        for (li, spec) in layers.iter().enumerate() {
            let prev = &acts[li];
            let mut next = vec![0.0f32; spec.out_dim];
            for o in 0..spec.out_dim {
                let row = &params[spec.w_off + o * spec.in_dim..][..spec.in_dim];
                let mut acc = params[spec.b_off + o];
                for (w, a) in row.iter().zip(prev) {
                    acc += w * a;
                }
                next[o] = acc;
            }
            if li != n_layers - 1 {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            acts.push(next);
        }

        let logit = acts[n_layers][0];
        let prob = sigmoid(logit);
        let y = targets[si];
        let w = sample_weights[si];
        // Numerically stable BCE-with-logits.
        let loss = logit.max(0.0) - logit * y + (1.0 + (-logit.abs()).exp()).ln();
        total_loss += w * loss;

        // Backward: delta at the logit.
        let mut delta = vec![w * (prob - y)];
        for li in (0..n_layers).rev() {
            let spec = layers[li];
            let prev_act = &acts[li];
            // Accumulate gradients of this layer.
            for o in 0..spec.out_dim {
                let d = delta[o] * batch_inv;
                if d == 0.0 {
                    continue;
                }
                let wrow = spec.w_off + o * spec.in_dim;
                for (g, a) in grads[wrow..wrow + spec.in_dim].iter_mut().zip(prev_act) {
                    *g += d * a;
                }
                grads[spec.b_off + o] += d;
            }
            if li == 0 {
                break;
            }
            // Propagate delta to the previous layer through Wᵀ, gated
            // by the ReLU derivative (prev activation > 0).
            let mut prev_delta = vec![0.0f32; spec.in_dim];
            for o in 0..spec.out_dim {
                let d = delta[o];
                if d == 0.0 {
                    continue;
                }
                let wrow = spec.w_off + o * spec.in_dim;
                for (pd, w) in prev_delta.iter_mut().zip(&params[wrow..wrow + spec.in_dim]) {
                    *pd += d * w;
                }
            }
            for (pd, &a) in prev_delta.iter_mut().zip(prev_act) {
                if a <= 0.0 {
                    *pd = 0.0;
                }
            }
            delta = prev_delta;
        }
    }
    Ok(total_loss * batch_inv)
}

/// Seed-verbatim prediction: one scalar forward per row, pushing each
/// representation into the output matrix individually.
pub fn predict_reference(
    matcher: &TrainedMatcher,
    features: &Embeddings,
    indices: &[usize],
) -> Result<MatcherOutput> {
    let mlp = matcher.mlp();
    let params = mlp.to_params();
    let mut predictions = Vec::with_capacity(indices.len());
    let mut representations = Embeddings::new(mlp.repr_dim())?;
    for &i in indices {
        if i >= features.len() {
            return Err(EmError::IndexOutOfBounds {
                context: "matcher predict".into(),
                index: i,
                len: features.len(),
            });
        }
        let (logit, repr) = forward_seed(mlp.layer_specs(), &params, features.row(i))?;
        let prob = apply_temperature(sigmoid(logit), matcher.temperature())?;
        predictions.push(Prediction::from_prob(prob));
        representations.push(&repr)?;
    }
    Ok(MatcherOutput {
        predictions,
        representations,
    })
}

/// Seed-verbatim training loop: per-sample backward, and a per-epoch
/// validation probe that clones the whole network into a throwaway
/// `TrainedMatcher` (the cost the batched engine's borrowed probe
/// removed).
pub fn train_matcher_reference(
    features: &Embeddings,
    train_idx: &[usize],
    train_labels: &[Label],
    valid_idx: &[usize],
    valid_labels: &[Label],
    config: &MatcherConfig,
) -> Result<TrainedMatcher> {
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

    let mut rng = Rng::seed_from_u64(config.seed);
    let mlp = Mlp::new(features.dim(), &config.hidden, &mut rng)?;
    // The seed trained its flat, output-major parameter buffer in place.
    let layers = mlp.layer_specs().to_vec();
    let mut params = mlp.to_params();
    let mut opt = AdamW::new(params.len(), config.lr, config.weight_decay)?;
    // Weight blocks occupy the same ranges in both layouts.
    let decay_mask = mlp.decay_mask().to_vec();

    let mut order: Vec<usize> = (0..train_idx.len()).collect();
    let mut grads: Vec<f32> = Vec::new();
    let mut best_snapshot = params.clone();
    let mut best_f1 = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;

    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(config.batch_size) {
            let xs: Vec<&[f32]> = chunk.iter().map(|&o| features.row(train_idx[o])).collect();
            let ys: Vec<f32> = chunk.iter().map(|&o| train_labels[o].as_f32()).collect();
            let ws = vec![1.0f32; xs.len()];
            backward_seed(&layers, &params, &xs, &ys, &ws, &mut grads)?;
            opt.step(&mut params, &grads, &decay_mask)?;
        }
        // Best-epoch selection on validation F1 through a full throwaway
        // matcher clone, as the seed did it.
        if !valid_idx.is_empty() {
            let probe_mlp = Mlp::from_params(features.dim(), &config.hidden, params.clone())?;
            let probe = TrainedMatcher::from_parts(probe_mlp, config.temperature, 0.0, 0);
            let out = predict_reference(&probe, features, valid_idx)?;
            let predicted: Vec<Label> = out.predictions.iter().map(|p| p.label).collect();
            let f1 = BinaryConfusion::from_labels(&predicted, valid_labels)?
                .metrics()
                .f1;
            if f1 > best_f1 {
                best_f1 = f1;
                best_snapshot = params.clone();
                best_epoch = epoch;
            }
        } else {
            best_snapshot = params.clone();
            best_epoch = epoch;
        }
    }

    Ok(TrainedMatcher::from_parts(
        Mlp::from_params(features.dim(), &config.hidden, best_snapshot)?,
        config.temperature,
        if best_f1.is_finite() { best_f1 } else { 0.0 },
        best_epoch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpWorkspace;

    #[test]
    fn reference_forward_agrees_with_kernel_forward_within_tolerance() {
        let mut rng = Rng::seed_from_u64(50);
        let mlp = Mlp::new(37, &[16], &mut rng).unwrap();
        for _ in 0..20 {
            let x: Vec<f32> = (0..37).map(|_| rng.normal() as f32).collect();
            let (l_ref, r_ref) = forward_reference(&mlp, &x).unwrap();
            let (l_new, r_new) = mlp.forward(&x).unwrap();
            assert!(
                (l_ref - l_new).abs() <= 1e-4 * (1.0 + l_ref.abs()),
                "{l_ref} vs {l_new}"
            );
            for (a, b) in r_ref.iter().zip(&r_new) {
                assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs()));
            }
        }
    }

    #[test]
    fn reference_backward_agrees_with_gemm_backward_within_tolerance() {
        let mut rng = Rng::seed_from_u64(51);
        let mlp = Mlp::new(24, &[12, 6], &mut rng).unwrap();
        let batch = 10;
        let flat: Vec<f32> = (0..batch * 24).map(|_| rng.normal() as f32).collect();
        let xs: Vec<&[f32]> = flat.chunks(24).collect();
        let ys: Vec<f32> = (0..batch).map(|s| (s % 2) as f32).collect();
        let wts = vec![1.0f32; batch];
        let mut g_ref = Vec::new();
        let loss_ref = backward_batch_reference(&mlp, &xs, &ys, &wts, &mut g_ref).unwrap();
        let mut ws = MlpWorkspace::new();
        let mut g_train = Vec::new();
        let loss_new = mlp
            .backward_batch(&xs, &ys, &wts, &mut ws, &mut g_train)
            .unwrap();
        // Gradients come back in the training layout; compare them in
        // the checkpoint layout the reference uses.
        let mut as_params = mlp.clone();
        as_params.restore(&g_train).unwrap();
        let g_new = as_params.to_params();
        assert!((loss_ref - loss_new).abs() <= 1e-4 * (1.0 + loss_ref.abs()));
        assert_eq!(g_ref.len(), g_new.len());
        for (i, (a, b)) in g_ref.iter().zip(&g_new).enumerate() {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
                "grad {i}: {a} vs {b}"
            );
        }
    }
}
