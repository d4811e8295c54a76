//! Elementwise kernels — the matcher's training loops at the dispatched
//! SIMD width.
//!
//! Matcher training spends most of its time in three elementwise
//! loops: the AdamW update over every parameter, the backward pass's
//! rank-1 updates (`y += a·x`) and the batch-mean scaling of the
//! gradient (`y *= a`). A crate that forbids `unsafe` compiles such
//! loops for the target's baseline (4-lane SSE2 on x86-64); here each
//! kernel has one `#[inline(always)]` body compiled three times —
//! plain, with `avx2` enabled and with `avx512f` enabled — and
//! [`Elementwise`] picks the version of the dispatched
//! [`SimdTier`].
//!
//! # Contract: bit-identical on every tier
//!
//! Every output element is the same fixed sequence of correctly
//! rounded IEEE-754 multiplies, adds, divides, square roots and selects
//! over that element's inputs. There is no reduction, and Rust never
//! contracts `a·b + c` into an FMA (the bodies do not call
//! `f32::mul_add`), so the register width changes only how many
//! elements run at once. This is the third tier contract beside
//! "AVX2 ≡ portable" and "AVX-512 within tolerance" (see
//! [`crate::kernel`]): **elementwise kernels are bit-identical on every
//! tier**, AVX-512 included.

use crate::kernel::{simd_tier, SimdTier};

/// Exponent field of an `f32`: all zero for ±0 and subnormals.
const EXPONENT_BITS: u32 = 0x7F80_0000;
/// Sign bit of an `f32`.
const SIGN_BIT: u32 = 0x8000_0000;

/// The scalars one AdamW step applies to every element.
#[derive(Debug, Clone, Copy)]
pub struct AdamWScalars {
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Bias correction `1 − β₁ᵗ`.
    pub bc1: f32,
    /// Bias correction `1 − β₂ᵗ`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator guard `ε`.
    pub eps: f32,
    /// Decoupled weight decay.
    pub wd: f32,
}

/// The elementwise kernels of one SIMD tier the running CPU supports.
///
/// The only constructor reads the dispatched tier, which is always one
/// the hardware runs; a caller reads it once per pass and hands the
/// copy to every loop of that pass (and to pool workers, which would
/// not see a [`with_simd_tier`](crate::kernel::with_simd_tier)
/// override of the calling thread).
#[derive(Debug, Clone, Copy)]
pub struct Elementwise {
    tier: SimdTier,
}

impl Elementwise {
    /// The kernels of [`simd_tier`].
    pub fn dispatched() -> Self {
        Elementwise { tier: simd_tier() }
    }

    /// `y[i] += a·x[i]`: a rounded product, then a rounded add.
    ///
    /// # Panics
    /// If `x` and `y` differ in length.
    pub fn axpy(self, a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy operands differ in length");
        match self.tier {
            SimdTier::Portable => axpy_body(a, x, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Elementwise` holds only a tier produced by
            // `simd_tier`, which detection (or the clamped override)
            // guarantees the CPU runs; the Avx2 tier implies `avx2`.
            SimdTier::Avx2 => unsafe { axpy_avx2(a, x, y) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the Avx512 tier implies `avx512f`.
            SimdTier::Avx512 => unsafe { axpy_avx512(a, x, y) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Avx2 | SimdTier::Avx512 => axpy_body(a, x, y),
        }
    }

    /// `y[i] *= a`.
    pub fn scale(self, a: f32, y: &mut [f32]) {
        match self.tier {
            SimdTier::Portable => scale_body(a, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Elementwise` holds only a tier produced by
            // `simd_tier`, which detection (or the clamped override)
            // guarantees the CPU runs; the Avx2 tier implies `avx2`.
            SimdTier::Avx2 => unsafe { scale_avx2(a, y) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the Avx512 tier implies `avx512f`.
            SimdTier::Avx512 => unsafe { scale_avx512(a, y) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Avx2 | SimdTier::Avx512 => scale_body(a, y),
        }
    }

    /// One AdamW update of a contiguous range of parameters and their
    /// moments: `m ← β₁·m + (1−β₁)·g`, `v ← β₂·v + (1−β₂)·g²`,
    /// `p ← p − lr·(m̂/(√v̂+ε) + wd·p)` with `m̂ = m/bc1`, `v̂ = v/bc2`,
    /// and the decay term only where `mask` is set.
    ///
    /// A subnormal first moment is read as a zero of its sign: its
    /// exponent bits are tested before any float operation touches it,
    /// so the update never pays a microcode assist. The caller owns
    /// the argument for why that keeps the parameters' bits.
    ///
    /// # Panics
    /// If the five slices differ in length.
    pub fn adamw_update(
        self,
        k: AdamWScalars,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        mask: &[bool],
    ) {
        let n = params.len();
        assert!(
            grads.len() == n && m.len() == n && v.len() == n && mask.len() == n,
            "adamw_update operands differ in length"
        );
        match self.tier {
            SimdTier::Portable => adamw_body(k, params, grads, m, v, mask),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Elementwise` holds only a tier produced by
            // `simd_tier`, which detection (or the clamped override)
            // guarantees the CPU runs; the Avx2 tier implies `avx2`.
            SimdTier::Avx2 => unsafe { adamw_avx2(k, params, grads, m, v, mask) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the Avx512 tier implies `avx512f`.
            SimdTier::Avx512 => unsafe { adamw_avx512(k, params, grads, m, v, mask) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Avx2 | SimdTier::Avx512 => adamw_body(k, params, grads, m, v, mask),
        }
    }
}

/// [`axpy_body`] compiled with AVX2 enabled.
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(a: f32, x: &[f32], y: &mut [f32]) {
    axpy_body(a, x, y)
}

/// [`axpy_body`] compiled with AVX-512 enabled.
///
/// # Safety
/// Requires the `avx512f` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(a: f32, x: &[f32], y: &mut [f32]) {
    axpy_body(a, x, y)
}

#[inline(always)]
fn axpy_body(a: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// [`scale_body`] compiled with AVX2 enabled.
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(a: f32, y: &mut [f32]) {
    scale_body(a, y)
}

/// [`scale_body`] compiled with AVX-512 enabled.
///
/// # Safety
/// Requires the `avx512f` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scale_avx512(a: f32, y: &mut [f32]) {
    scale_body(a, y)
}

#[inline(always)]
fn scale_body(a: f32, y: &mut [f32]) {
    for y in y {
        *y *= a;
    }
}

/// [`adamw_body`] compiled with AVX2 enabled.
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn adamw_avx2(
    k: AdamWScalars,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    mask: &[bool],
) {
    adamw_body(k, params, grads, m, v, mask)
}

/// [`adamw_body`] compiled with AVX-512 enabled.
///
/// # Safety
/// Requires the `avx512f` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn adamw_avx512(
    k: AdamWScalars,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    mask: &[bool],
) {
    adamw_body(k, params, grads, m, v, mask)
}

/// The AdamW element update. The scalars arrive by value: the same loop
/// in a closure capturing them by reference was not vectorized and
/// measured ~4× slower.
#[inline(always)]
fn adamw_body(
    k: AdamWScalars,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    mask: &[bool],
) {
    let AdamWScalars {
        beta1,
        beta2,
        bc1,
        bc2,
        lr,
        eps,
        wd,
    } = k;
    // Branch-free element update (the decay mask and the subnormal
    // flush fold to bit masks), all inputs walked in lockstep with
    // bounds checks elided — the loop body has no loop-borne
    // dependency, so LLVM vectorizes it (vsqrtps/vdivps included).
    let iter = params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut().zip(v.iter_mut()))
        .zip(mask);
    for (((p, &g), (m, v)), &mask) in iter {
        // Clearing all but the sign bit is one AND with a mask; a
        // select between two bit patterns costs SSE2 twice as much.
        let bits = m.to_bits();
        let flush = if bits & EXPONENT_BITS == 0 {
            !SIGN_BIT
        } else {
            0
        };
        let m_prev = f32::from_bits(bits & !flush);
        // The new moments stay in registers: re-reading `*m` after
        // the store to `*v` would cost a load per vector.
        let m_new = beta1 * m_prev + (1.0 - beta1) * g;
        let v_new = beta2 * *v + (1.0 - beta2) * g * g;
        *m = m_new;
        *v = v_new;
        let m_hat = m_new / bc1;
        let v_hat = v_new / bc2;
        let decay = if mask { wd } else { 0.0 };
        let update = m_hat / (v_hat.sqrt() + eps) + decay * *p;
        *p -= lr * update;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::with_simd_tier;
    use em_core::Rng;

    const LENGTHS: [usize; 8] = [0, 1, 15, 17, 33, 95, 96, 8193];

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` values cycling through the special cases `specials`,
    /// interleaved with normal draws of scale `scale`.
    fn values(n: usize, specials: &[f32], scale: f32, rng: &mut Rng) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    specials[(i / 3) % specials.len()]
                } else {
                    rng.normal() as f32 * scale
                }
            })
            .collect()
    }

    /// Run `f` on every tier this CPU supports (a tier it lacks clamps
    /// to the best it has), pinned on the current thread with nothing
    /// escaping to the pool.
    fn on_every_tier(mut f: impl FnMut(Elementwise)) {
        for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
            with_simd_tier(tier, || {
                rayon::serial_scope(|| f(Elementwise::dispatched()))
            });
        }
    }

    #[test]
    fn axpy_and_scale_keep_the_portable_bits_on_every_tier() {
        let mut rng = Rng::seed_from_u64(17);
        let specials = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
            f32::NAN,
            f32::INFINITY,
            -f32::INFINITY,
        ];
        for n in LENGTHS {
            let x = values(n, &specials, 1.0, &mut rng);
            let y0 = values(n, &[0.0, -0.0, 2.0e-41], 1.0, &mut rng);
            for a in [0.37f32, -1.5e-3, 0.0, -0.0, 3.0e-39] {
                let mut want_axpy = y0.clone();
                axpy_body(a, &x, &mut want_axpy);
                let mut want_scale = x.clone();
                scale_body(a, &mut want_scale);
                on_every_tier(|ew| {
                    let mut got = y0.clone();
                    ew.axpy(a, &x, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want_axpy),
                        "axpy {} n {n} a {a}",
                        simd_tier().name()
                    );
                    let mut got = x.clone();
                    ew.scale(a, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want_scale),
                        "scale {} n {n} a {a}",
                        simd_tier().name()
                    );
                });
            }
        }
    }

    #[test]
    fn adamw_update_keeps_the_portable_bits_on_every_tier() {
        let mut rng = Rng::seed_from_u64(18);
        let k = AdamWScalars {
            beta1: 0.9,
            beta2: 0.999,
            bc1: 1.0 - 0.9f32.powi(900),
            bc2: 1.0 - 0.999f32.powi(900),
            lr: 8e-3,
            eps: 1e-8,
            wd: 1e-4,
        };
        for n in LENGTHS {
            let params = values(n, &[0.0, -0.0, 0.5, -2.0e-3], 0.05, &mut rng);
            // Gradients: signed zeros, NaN and both infinities.
            let grads = values(
                n,
                &[0.0, -0.0, f32::NAN, f32::INFINITY, -f32::INFINITY],
                1e-2,
                &mut rng,
            );
            // First moments: signed zeros, subnormals of both signs.
            let m0 = values(n, &[0.0, -0.0, 1.0e-40, -1.0e-40, -7.0e-42], 1e-3, &mut rng);
            let v0: Vec<f32> = (0..n).map(|_| rng.f32() * 1e-6).collect();
            let mask: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
            let (mut want_p, mut want_m, mut want_v) = (params.clone(), m0.clone(), v0.clone());
            adamw_body(k, &mut want_p, &grads, &mut want_m, &mut want_v, &mask);
            on_every_tier(|ew| {
                let (mut p, mut m, mut v) = (params.clone(), m0.clone(), v0.clone());
                ew.adamw_update(k, &mut p, &grads, &mut m, &mut v, &mask);
                assert_eq!(
                    bits(&p),
                    bits(&want_p),
                    "params {} n {n}",
                    simd_tier().name()
                );
                assert_eq!(bits(&m), bits(&want_m), "m {} n {n}", simd_tier().name());
                assert_eq!(bits(&v), bits(&want_v), "v {} n {n}", simd_tier().name());
            });
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn axpy_rejects_mismatched_lengths() {
        Elementwise::dispatched().axpy(1.0, &[1.0, 2.0], &mut [0.0]);
    }
}
