//! AdamW — Adam with decoupled weight decay (Loshchilov & Hutter 2019).
//!
//! The paper trains DITTO "with AdamW optimizer with a learning rate of
//! 3e-5" (§4.2). Our MLP substrate uses the same optimizer (at an
//! MLP-appropriate learning rate).
//!
//! [`AdamW`] owns the moments and the step counter; a step computes
//! the bias corrections, reads the SIMD tier once, splits the flat
//! vectors into contiguous ranges across the rayon pool and runs each
//! range through [`em_vector::Elementwise::adamw_update`], the one copy
//! of the element update. That kernel is bit-identical on every tier,
//! so the parameters do not depend on the tier or the thread count.

use em_core::{EmError, Result};
use em_vector::{AdamWScalars, Elementwise};
use rayon::prelude::*;

/// Parameters per parallel range of an [`AdamW::step`]. A multiple of 16
/// floats, so no cache line is written by two threads; a vector of one
/// range or less steps on the calling thread alone.
const RANGE: usize = 8 * 1024;

/// AdamW state over a flat parameter vector.
#[derive(Debug, Clone)]
pub struct AdamW {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// First-moment estimates.
    m: Vec<f32>,
    /// Second-moment estimates.
    v: Vec<f32>,
    /// Step counter for bias correction.
    t: u64,
}

impl AdamW {
    /// Create an optimizer for `n_params` parameters.
    pub fn new(n_params: usize, lr: f32, weight_decay: f32) -> Result<Self> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(EmError::InvalidConfig(format!("lr {lr} must be > 0")));
        }
        if !weight_decay.is_finite() || weight_decay < 0.0 {
            return Err(EmError::InvalidConfig(format!(
                "weight_decay {weight_decay} must be finite and >= 0"
            )));
        }
        Ok(AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        })
    }

    /// Number of tracked parameters.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// `true` iff tracking zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Apply one update step: `params -= lr·(m̂/(√v̂+ε) + wd·params)`.
    ///
    /// `decay_mask[i] = false` exempts a parameter (biases) from weight
    /// decay, per the usual convention. `grads` must match `params` in
    /// length.
    ///
    /// A first moment that has gone subnormal (`|m| < 2⁻¹²⁶`, which
    /// happens once a parameter has had no gradient for ~800 steps) is
    /// read as a zero of its sign. The exponent bits are tested before
    /// any float operation touches it, so the step never pays the
    /// microcode assist that every float operation on a subnormal
    /// costs. The parameters are then exactly those of the IEEE step
    /// whenever the terms a subnormal moment meets are not themselves
    /// tiny. The quotient `m̂/(√v̂+ε)` built from one is below 2⁻⁹⁶
    /// (`bc1 ≥ 0.1`, `ε = 10⁻⁸`): under half an ulp of a decay term
    /// `wd·p` of magnitude ≥ 2⁻⁷², or, with `lr ≤ 1` and no decay, of a
    /// parameter `p` of that magnitude. `β₁·m` is under half an ulp of
    /// any later gradient term `(1−β₁)·g` of magnitude ≥ 2⁻¹⁰². Only a
    /// parameter, decay term or gradient below those bounds can see a
    /// different bit; the moments themselves may differ (a flushed one
    /// holds zero where the IEEE one keeps decaying).
    ///
    /// The update is elementwise, so a large vector is split into
    /// contiguous ranges that run across the rayon pool, each through
    /// [`Elementwise::adamw_update`] on the tier read once per step;
    /// neither the split nor the tier changes a bit.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], decay_mask: &[bool]) -> Result<()> {
        let (bc1, bc2) = self.begin_step(params.len(), grads.len(), decay_mask.len())?;
        let k = AdamWScalars {
            beta1: self.beta1,
            beta2: self.beta2,
            bc1,
            bc2,
            lr: self.lr,
            eps: self.eps,
            wd: self.weight_decay,
        };
        let ew = Elementwise::dispatched();
        let ranges: Vec<_> = params
            .chunks_mut(RANGE)
            .zip(grads.chunks(RANGE))
            .zip(self.m.chunks_mut(RANGE).zip(self.v.chunks_mut(RANGE)))
            .zip(decay_mask.chunks(RANGE))
            .collect();
        ranges
            .into_par_iter()
            .for_each(|(((p, g), (m, v)), mask)| ew.adamw_update(k, p, g, m, v, mask));
        Ok(())
    }

    /// The plain IEEE step, subnormal moments included: the oracle
    /// [`AdamW::step`] is checked against.
    #[cfg(test)]
    pub(crate) fn step_ieee(
        &mut self,
        params: &mut [f32],
        grads: &[f32],
        decay_mask: &[bool],
    ) -> Result<()> {
        let (bc1, bc2) = self.begin_step(params.len(), grads.len(), decay_mask.len())?;
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
        let iter = params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
            .zip(decay_mask);
        for (((p, &g), (m, v)), &mask) in iter {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            let decay = if mask { wd } else { 0.0 };
            let update = m_hat / (v_hat.sqrt() + eps) + decay * *p;
            *p -= lr * update;
        }
        Ok(())
    }

    /// Check the slice lengths and advance the step counter; returns the
    /// bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)`.
    fn begin_step(&mut self, params: usize, grads: usize, decay_mask: usize) -> Result<(f32, f32)> {
        if params != self.m.len() || grads != self.m.len() || decay_mask != self.m.len() {
            return Err(EmError::DimensionMismatch {
                context: "AdamW step".into(),
                expected: self.m.len(),
                actual: params.min(grads).min(decay_mask),
            });
        }
        self.t += 1;
        Ok((
            1.0 - self.beta1.powi(self.t as i32),
            1.0 - self.beta2.powi(self.t as i32),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, Featurizer};
    use crate::matcher::MatcherConfig;
    use crate::mlp::{Mlp, MlpWorkspace};
    use em_core::Rng;
    use em_synth::{generate, DatasetProfile};
    use em_vector::SparseRows;

    /// One step of the flushed optimizer and one of the IEEE oracle from
    /// the same state; returns both optimizers and parameter vectors.
    fn step_both(
        opt: &AdamW,
        params: &[f32],
        grads: &[f32],
        mask: &[bool],
    ) -> ((AdamW, Vec<f32>), (AdamW, Vec<f32>)) {
        let (mut fast, mut ieee) = (opt.clone(), opt.clone());
        let (mut p_fast, mut p_ieee) = (params.to_vec(), params.to_vec());
        fast.step(&mut p_fast, grads, mask).unwrap();
        ieee.step_ieee(&mut p_ieee, grads, mask).unwrap();
        ((fast, p_fast), (ieee, p_ieee))
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A late-training state (bias corrections near 1) with first
    /// moment `m` and a normal second moment.
    fn state_with_moment(m: f32, weight_decay: f32) -> AdamW {
        let mut opt = AdamW::new(1, 8e-3, weight_decay).unwrap();
        opt.t = 900;
        opt.m[0] = m;
        opt.v[0] = 2.5e-7;
        opt
    }

    /// Flushing is the identity on a negative zero moment.
    #[test]
    fn negative_zero_moment_steps_like_ieee() {
        for g in [0.0f32, -0.0, 3e-3] {
            let opt = state_with_moment(-0.0, 1e-4);
            let ((fast, p_fast), (ieee, p_ieee)) = step_both(&opt, &[0.375], &[g], &[true]);
            assert_eq!(bits(&p_fast), bits(&p_ieee), "g = {g}");
            assert_eq!(bits(&fast.m), bits(&ieee.m), "g = {g}");
        }
    }

    /// A negative subnormal moment steps exactly like −0, and the
    /// parameter lands on the IEEE step's bits.
    #[test]
    fn negative_subnormal_moment_reads_as_negative_zero() {
        let sub = -1.0e-40f32;
        assert!(sub.is_subnormal());
        for g in [0.0f32, -0.0, -2e-3] {
            let ((fast, p_fast), (ieee, p_ieee)) =
                step_both(&state_with_moment(sub, 1e-4), &[-0.75], &[g], &[true]);
            assert_eq!(bits(&p_fast), bits(&p_ieee), "g = {g}");
            let ((zero, p_zero), _) =
                step_both(&state_with_moment(-0.0, 1e-4), &[-0.75], &[g], &[true]);
            assert_eq!(bits(&fast.m), bits(&zero.m), "g = {g}");
            assert_eq!(bits(&p_fast), bits(&p_zero), "g = {g}");
            if g == 0.0 {
                // The oracle keeps a decaying subnormal; the flushed
                // moment holds a zero.
                assert!(ieee.m[0].is_subnormal());
                assert_eq!(fast.m[0], 0.0);
            }
        }
    }

    /// A bias (no decay term to absorb the update) with a subnormal
    /// moment and no gradient stays on the IEEE step's bits.
    #[test]
    fn undecayed_bias_with_subnormal_moment_steps_like_ieee() {
        for (m, p) in [(3.0e-39f32, 0.125f32), (-7.0e-42, -1.5), (1.0e-45, 2.0e-3)] {
            assert!(m.is_subnormal());
            let opt = state_with_moment(m, 1e-4);
            let ((_, p_fast), (_, p_ieee)) = step_both(&opt, &[p], &[0.0], &[false]);
            assert_eq!(bits(&p_fast), bits(&p_ieee), "m = {m:e}, p = {p}");
            assert_eq!(p_fast[0], p);
        }
    }

    /// The flushed step reproduces the IEEE step's parameters bit for
    /// bit after every step of a featurized dblp-scholar training run
    /// long enough for first moments to go subnormal (900 rows, 18
    /// epochs, 1,026 steps; the oracle peaks near 4.8k subnormal
    /// moments). The parameters are asserted equal after each step, so
    /// one gradient serves both.
    #[test]
    fn flushed_step_matches_ieee_oracle_on_a_featurized_trajectory() {
        let d = generate(
            &DatasetProfile::dblp_scholar().scaled(0.15),
            &mut Rng::seed_from_u64(1),
        )
        .unwrap();
        let feats = Featurizer::new(&d, FeatureConfig::default())
            .unwrap()
            .featurize_all(&d)
            .unwrap();
        let train: Vec<usize> = d.split().train.iter().copied().take(900).collect();
        let labels = d.ground_truth_of(&train);
        let config = MatcherConfig::default();
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut mlp = Mlp::new(feats.dim(), &config.hidden, &mut rng).unwrap();
        mlp.set_sparse_input(true);
        let mut oracle_params = mlp.params_mut().to_vec();
        let mut opt = AdamW::new(mlp.n_params(), config.lr, config.weight_decay).unwrap();
        let mut oracle = opt.clone();
        let mask = mlp.decay_mask().to_vec();
        let rows = SparseRows::from_rows(&feats, &train).unwrap();
        let mut batch = SparseRows::new(feats.dim());
        let (mut ws, mut grads) = (MlpWorkspace::new(), Vec::new());
        let mut order: Vec<usize> = (0..train.len()).collect();
        let (mut steps, mut most_subnormal) = (0usize, 0usize);
        for _ in 0..18 {
            rng.shuffle(&mut order);
            for chunk in order.chunks(config.batch_size) {
                let ys: Vec<f32> = chunk.iter().map(|&o| labels[o].as_f32()).collect();
                batch.clear();
                for &o in chunk {
                    batch.push_row_of(&rows, o).unwrap();
                }
                mlp.backward_batch_sparse(
                    &batch,
                    &ys,
                    &vec![1.0; chunk.len()],
                    &mut ws,
                    &mut grads,
                )
                .unwrap();
                opt.step(mlp.params_mut(), &grads, &mask).unwrap();
                oracle.step_ieee(&mut oracle_params, &grads, &mask).unwrap();
                steps += 1;
                let params = mlp.params_mut();
                if let Some(i) = params
                    .iter()
                    .zip(&oracle_params)
                    .position(|(a, b)| a.to_bits() != b.to_bits())
                {
                    panic!(
                        "step {steps}: param {i} is {:e}, the IEEE step gives {:e}",
                        params[i], oracle_params[i]
                    );
                }
                let subnormal = oracle.m.iter().filter(|m| m.is_subnormal()).count();
                most_subnormal = most_subnormal.max(subnormal);
            }
        }
        assert!(steps >= 1000, "only {steps} steps");
        // Without subnormal moments the two steps are the same code path
        // and the comparison above would prove nothing.
        assert!(
            most_subnormal >= 100,
            "the oracle held at most {most_subnormal} subnormal moments"
        );
    }

    /// On the featurized matcher's shape (~81.6k parameters) the step is
    /// split across the pool whenever it has two or more threads; every
    /// parameter and moment matches the step under `serial_scope` bit
    /// for bit, subnormal and masked elements included.
    #[test]
    fn split_step_matches_serial_step_on_the_featurized_shape() {
        let d = generate(
            &DatasetProfile::dblp_scholar().scaled(0.02),
            &mut Rng::seed_from_u64(1),
        )
        .unwrap();
        let dim = Featurizer::new(&d, FeatureConfig::default()).unwrap().dim();
        let config = MatcherConfig::default();
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut mlp = Mlp::new(dim, &config.hidden, &mut rng).unwrap();
        let n = mlp.n_params();
        assert!(n > 80_000, "{n} parameters");
        assert!(n > RANGE, "the step would not split");
        let mask = mlp.decay_mask().to_vec();
        let mut opt = AdamW::new(n, config.lr, config.weight_decay).unwrap();
        opt.t = 900;
        for i in 0..n {
            opt.m[i] = if i % 19 == 0 {
                -1.0e-40
            } else {
                rng.normal() as f32 * 1e-3
            };
            opt.v[i] = rng.f32() * 1e-6;
        }
        let (mut split, mut serial) = (opt.clone(), opt);
        let mut p_split = mlp.params_mut().to_vec();
        let mut p_serial = p_split.clone();
        for _ in 0..3 {
            let grads: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 7 == 0 {
                        0.0
                    } else {
                        rng.normal() as f32 * 1e-2
                    }
                })
                .collect();
            split.step(&mut p_split, &grads, &mask).unwrap();
            rayon::serial_scope(|| serial.step(&mut p_serial, &grads, &mask)).unwrap();
            assert_eq!(bits(&p_split), bits(&p_serial));
            assert_eq!(bits(&split.m), bits(&serial.m));
            assert_eq!(bits(&split.v), bits(&serial.v));
        }
    }

    /// Minimize f(x) = (x − 3)²; gradient 2(x − 3).
    #[test]
    fn converges_on_quadratic() {
        let mut x = vec![0.0f32];
        let mut opt = AdamW::new(1, 0.1, 0.0).unwrap();
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g, &[true]).unwrap();
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    /// With pure decay (zero gradient), parameters shrink toward zero.
    #[test]
    fn weight_decay_shrinks_params() {
        let mut x = vec![1.0f32];
        let mut opt = AdamW::new(1, 0.01, 0.5).unwrap();
        for _ in 0..100 {
            opt.step(&mut x, &[0.0], &[true]).unwrap();
        }
        assert!(x[0] < 0.7, "x = {}", x[0]);

        // Masked parameter is untouched by decay.
        let mut b = vec![1.0f32];
        let mut opt = AdamW::new(1, 0.01, 0.5).unwrap();
        for _ in 0..100 {
            opt.step(&mut b, &[0.0], &[false]).unwrap();
        }
        assert_eq!(b[0], 1.0);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias-corrected first step is ±lr regardless of gradient
        // scale.
        let mut x = vec![0.0f32];
        let mut opt = AdamW::new(1, 0.05, 0.0).unwrap();
        opt.step(&mut x, &[123.0], &[true]).unwrap();
        assert!((x[0] + 0.05).abs() < 1e-4, "x = {}", x[0]);
    }

    #[test]
    fn validates_inputs() {
        assert!(AdamW::new(1, 0.0, 0.0).is_err());
        assert!(AdamW::new(1, 0.1, -1.0).is_err());
        // A non-finite decay would turn every decayed parameter into NaN
        // on the first step.
        for wd in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(AdamW::new(1, 0.1, wd).is_err(), "weight_decay {wd}");
        }
        for lr in [f32::NAN, f32::INFINITY] {
            assert!(AdamW::new(1, lr, 0.0).is_err(), "lr {lr}");
        }
        let mut opt = AdamW::new(2, 0.1, 0.0).unwrap();
        let mut x = vec![0.0f32; 2];
        assert!(opt.step(&mut x, &[1.0], &[true, true]).is_err());
    }

    #[test]
    fn two_dimensional_decoupling() {
        // Each coordinate converges to its own optimum.
        let mut x = vec![0.0f32, 0.0];
        let mut opt = AdamW::new(2, 0.1, 0.0).unwrap();
        for _ in 0..600 {
            let g = vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)];
            opt.step(&mut x, &g, &[true, true]).unwrap();
        }
        assert!((x[0] - 1.0).abs() < 1e-2);
        assert!((x[1] + 2.0).abs() < 1e-2);
    }
}
