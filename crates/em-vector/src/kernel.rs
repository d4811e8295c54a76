//! Blocked similarity kernels — the compute layer behind the spatial
//! pipeline *and* the matcher's batched GEMM engine.
//!
//! The cluster → graph → centrality pipeline (§3.3) spends its time in
//! two primitives: pairwise dot products of unit-norm pair
//! representations (edge scoring; the paper runs this step on FAISS's
//! batched kernels, §4.2) and point-to-centroid squared distances
//! (K-Means). The matcher half of each iteration (§3.1/§4.2) spends its
//! time in dense layer products, which reduce to the same primitive.
//! This module provides the batched versions every hot path now uses:
//!
//! * [`gemm`] / [`gemm_bias_relu`] — cache-blocked row-major `A·Bᵀ`
//!   matrix products (the MLP forward/backward building block; the
//!   fused variant adds a per-column bias and an optional ReLU);
//! * [`gram_packed`] / [`gram_block`] — cache-blocked Gram matrices
//!   (`X·Yᵀ`) over row subsets, computed once and reused by every
//!   downstream stage;
//! * [`top_k_batch`] — batched top-`k` by dot product with the exact
//!   ordering semantics of the scalar [`crate::knn`] search;
//! * [`sq_dist`] / [`sq_dist_batch`] — an ILP-friendly unrolled squared
//!   Euclidean distance (the seed's scalar loop carried a
//!   single-accumulator dependency chain that cost ~3× on wide rows);
//! * [`pack_rows`] — gathers a row subset into a contiguous buffer so
//!   the kernels stream without indirection.
//!
//! # Dispatch tiers
//!
//! Every inner product goes through one runtime-dispatched [`dot`]
//! kernel with three tiers, decided **once** at startup (cached in a
//! `OnceLock`) via `std::is_x86_feature_detected!`:
//!
//! * [`SimdTier::Portable`] — the 16-lane autovectorizing form shared
//!   with [`crate::embeddings::dot`]; compiles on every target.
//! * [`SimdTier::Avx2`] — explicit AVX2 intrinsics (selected when the
//!   CPU reports `avx2` **and** `fma`): the same 16 lanes held in two
//!   256-bit accumulators, multiply-then-add per lane.
//! * [`SimdTier::Avx512`] — explicit AVX-512 intrinsics (selected when
//!   the CPU reports `avx512f`): 64 lanes per unrolled step in four
//!   512-bit accumulator chains updated with **single-rounding FMA**
//!   (`vfmadd`).
//!
//! `EM_SIMD_TIER=portable|avx2|avx512` pins the tier (e.g. to A/B the
//! tiers on one machine) — a request the hardware cannot run is clamped
//! to the best available tier, and an unknown value is ignored (the
//! structured parse error behind both behaviours is [`SimdTier::parse`],
//! so config surfaces can reject bad values without ever crashing the
//! dispatch). [`with_simd_tier`] overrides the tier on the current
//! thread for golden tests.
//!
//! # Reduction-order contract (Portable ≡ AVX2)
//!
//! The portable and AVX2 tiers compute **bit-identical** results: 16
//! fixed accumulator lanes (lane `l` accumulates elements `16·c + l`),
//! lanes reduced in ascending order, scalar remainder folded last. The
//! AVX2 tier encodes exactly that shape — and deliberately performs
//! *separate* multiply and add (no `fmadd` contraction: FMA's single
//! rounding would diverge from the portable lanes). Blocked kernels
//! ([`gemm`], [`gram_packed`], …) evaluate each output entry as exactly
//! one [`dot`] call (plus, for the fused variant, one bias add after the
//! reduction), so blocking and parallelism only reorder *which entries*
//! are computed when, never the arithmetic within an entry. The golden
//! tests in this module and the matcher's GEMM-vs-scalar tests assert
//! exactly that.
//!
//! # Tolerance contract (AVX-512)
//!
//! The AVX-512 tier trades the bit-identity contract for FMA throughput:
//! each `a·b` product is folded into its accumulator lane with a single
//! rounding, so results differ from the portable lanes in the low bits.
//! What it keeps is *determinism* and a *proven error bound*:
//!
//! * **Deterministic**: 32 fixed accumulator lanes (lane `l` accumulates
//!   elements `32·c + l` via `vfmaddps`), the two 512-bit accumulators
//!   added lane-wise, that vector reduced by a fixed explicit tree
//!   (quarters `q01 = q0+q1`, `q23 = q2+q3`, `q = q01+q23`, then the
//!   four lanes of `q` in ascending order), scalar remainder folded last
//!   with `f32::mul_add`. Every step is spelled out in source — no
//!   compiler-chosen reassociation — so results are bit-stable across
//!   runs, threads and builds *within* the tier.
//! * **Bounded**: both the portable and the AVX-512 sums satisfy the
//!   standard forward bound `|fl(aᵀb) − aᵀb| ≤ γ(n)·Σ|aᵢbᵢ|` with
//!   `γ(n) = n·ε/(1−n·ε)`, `ε = 2⁻²⁴` (FMA only *tightens* the
//!   per-term rounding), so the tiers differ by at most `2γ(n)·Σ|aᵢbᵢ|`.
//!   `tests/simd_tolerance.rs` pins this bound against an `f64`
//!   reference, asserts argmax/top-k stability whenever the winner's
//!   margin exceeds the bound, and gates the end-to-end ΔF1 of a grid
//!   run across tiers — the conditions under which AVX-512 is allowed
//!   as a detected default.
//!
//! Within the AVX-512 tier the blocked kernels keep the same per-entry
//! shape as everywhere else: each output entry is exactly one
//! [`dot`]-recipe evaluation, so `gemm`/`gram` entries are bit-identical
//! to standalone `dot` calls *on the same tier*.
//!
//! # Elementwise contract (every tier)
//!
//! The kernels in [`crate::elementwise`] (the AdamW update, axpy,
//! scale) have no reduction: each output element is one fixed sequence
//! of correctly rounded multiplies, adds, divides, square roots and
//! selects, with no FMA. The tier changes only how many elements run at
//! once, so they are **bit-identical on every tier**, AVX-512 included.

use std::cell::Cell;
use std::sync::OnceLock;

use rayon::prelude::*;

use em_core::{EmError, Result};

use crate::embeddings::{dot as portable_dot, Embeddings};
use crate::knn::{Neighbor, TopBuffer};

// --- Runtime ISA dispatch. -----------------------------------------------

/// Instruction-set tier the dispatched kernels run on.
///
/// Ordered by capability: clamping a requested tier to the hardware is
/// `tier.min(detected)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// 16-lane portable form (LLVM autovectorizes it on any target).
    Portable,
    /// Explicit AVX2 intrinsics; selected when the CPU reports both
    /// `avx2` and `fma`. Bit-identical to [`SimdTier::Portable`] (see
    /// the module-level reduction-order contract).
    Avx2,
    /// Explicit AVX-512 intrinsics with single-rounding FMA; selected
    /// when the CPU reports `avx512f`. **Not** bit-identical to the
    /// lower tiers — see the module-level tolerance contract.
    Avx512,
}

impl SimdTier {
    /// Stable display name (`"portable"` / `"avx2"` / `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier name (the `EM_SIMD_TIER` vocabulary), case
    /// insensitively. An unknown name is a structured
    /// [`EmError::InvalidConfig`] — dispatch itself never fails on it
    /// (it falls back to the detected best), but config surfaces use
    /// this to reject bad values instead of silently ignoring them.
    pub fn parse(value: &str) -> Result<SimdTier> {
        let v = value.trim();
        for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
            if v.eq_ignore_ascii_case(tier.name()) {
                return Ok(tier);
            }
        }
        Err(EmError::InvalidConfig(format!(
            "unknown SIMD tier `{value}` (expected portable, avx2 or avx512)"
        )))
    }
}

/// The best tier the hardware supports (no env override applied).
fn detect_best() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return SimdTier::Avx512;
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Portable
}

/// Detect the dispatch tier: the best available one, clamped down by a
/// parseable `EM_SIMD_TIER` request. A request the hardware cannot run
/// clamps to the best available tier; an unparseable value is ignored —
/// detection never fails (callers that want the structured parse error
/// go through [`SimdTier::parse`] directly).
fn detect_tier() -> SimdTier {
    let best = detect_best();
    match std::env::var("EM_SIMD_TIER") {
        Ok(v) => match SimdTier::parse(&v) {
            Ok(requested) => requested.min(best),
            Err(_) => best,
        },
        Err(_) => best,
    }
}

thread_local! {
    /// Per-thread tier override for golden tests ([`with_simd_tier`]).
    static TIER_OVERRIDE: Cell<Option<SimdTier>> = const { Cell::new(None) };
}

/// The dispatched tier: the startup detection, unless overridden on this
/// thread by [`with_simd_tier`]. The detection runs once per process.
pub fn simd_tier() -> SimdTier {
    if let Some(t) = TIER_OVERRIDE.with(Cell::get) {
        return t;
    }
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(detect_tier)
}

/// Run `f` with the dispatched tier pinned on the **current thread**
/// (golden tests compare the tiers this way; combine with
/// `rayon::serial_scope` so no work escapes to other threads). A
/// requested tier the hardware cannot run is clamped to the best
/// available one, so this is always safe to call. The previous override
/// is restored even if `f` panics (test harnesses catch unwinds and
/// reuse the thread).
pub fn with_simd_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let clamped = tier.min(detect_tier());
    let _restore = Restore(TIER_OVERRIDE.with(|c| c.replace(Some(clamped))));
    f()
}

/// AVX2 dot product mirroring the portable 16-lane kernel exactly:
/// lanes 0–7 live in `acc0`, lanes 8–15 in `acc1`, each updated with a
/// separate multiply and add (no `fmadd`), then reduced in lane order
/// with the scalar remainder folded last — bit-identical to
/// [`crate::embeddings::dot`] by construction.
///
/// # Safety
/// Requires the `avx2` CPU feature (guaranteed by dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 16;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    for c in 0..chunks {
        let base = c * 16;
        let a0 = _mm256_loadu_ps(pa.add(base));
        let b0 = _mm256_loadu_ps(pb.add(base));
        let a1 = _mm256_loadu_ps(pa.add(base + 8));
        let b1 = _mm256_loadu_ps(pb.add(base + 8));
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, b0));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a1, b1));
    }
    let mut lanes = [0.0f32; 16];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc0);
    _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc1);
    let mut sum = 0.0f32;
    for lane in lanes {
        sum += lane;
    }
    for i in chunks * 16..n {
        sum += a[i] * b[i];
    }
    sum
}

/// Four dot products of one left row against four consecutive packed
/// right rows — the GEMM micro-kernel. Each output is computed with
/// **exactly** the [`dot_avx2`] recipe (its own accumulator pair,
/// multiply-then-add, lane-order reduction, sequential remainder), so
/// every result is bit-identical to a standalone `dot` call; grouping
/// only shares the loads of `a` and amortizes call overhead.
///
/// # Safety
/// Requires the `avx2` CPU feature (guaranteed by dispatch); `b` must
/// hold four consecutive rows of `a.len()` starting at `b_off`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// The remainder loop indexes `a` in lockstep with raw row pointers; the
// indexed form keeps that correspondence visible.
#[allow(clippy::needless_range_loop)]
unsafe fn dot4_avx2(a: &[f32], b: &[f32], b_off: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = a.len();
    let chunks = k / 16;
    let pa = a.as_ptr();
    let pb0 = b.as_ptr().add(b_off);
    let pb1 = pb0.add(k);
    let pb2 = pb1.add(k);
    let pb3 = pb2.add(k);
    let mut acc = [_mm256_setzero_ps(); 8];
    for c in 0..chunks {
        let base = c * 16;
        let a0 = _mm256_loadu_ps(pa.add(base));
        let a1 = _mm256_loadu_ps(pa.add(base + 8));
        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(a0, _mm256_loadu_ps(pb0.add(base))));
        acc[1] = _mm256_add_ps(
            acc[1],
            _mm256_mul_ps(a1, _mm256_loadu_ps(pb0.add(base + 8))),
        );
        acc[2] = _mm256_add_ps(acc[2], _mm256_mul_ps(a0, _mm256_loadu_ps(pb1.add(base))));
        acc[3] = _mm256_add_ps(
            acc[3],
            _mm256_mul_ps(a1, _mm256_loadu_ps(pb1.add(base + 8))),
        );
        acc[4] = _mm256_add_ps(acc[4], _mm256_mul_ps(a0, _mm256_loadu_ps(pb2.add(base))));
        acc[5] = _mm256_add_ps(
            acc[5],
            _mm256_mul_ps(a1, _mm256_loadu_ps(pb2.add(base + 8))),
        );
        acc[6] = _mm256_add_ps(acc[6], _mm256_mul_ps(a0, _mm256_loadu_ps(pb3.add(base))));
        acc[7] = _mm256_add_ps(
            acc[7],
            _mm256_mul_ps(a1, _mm256_loadu_ps(pb3.add(base + 8))),
        );
    }
    let rows = [pb0, pb1, pb2, pb3];
    for (j, row) in rows.iter().enumerate() {
        let mut lanes = [0.0f32; 16];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc[2 * j]);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc[2 * j + 1]);
        let mut sum = 0.0f32;
        for lane in lanes {
            sum += lane;
        }
        for i in chunks * 16..k {
            sum += a[i] * *row.add(i);
        }
        out[j] = sum;
    }
}

/// Fixed-tree reduction of one 512-bit accumulator — the AVX-512 tiers'
/// one reduction shape (see the module-level tolerance contract):
/// quarters `q01 = q0 + q1`, `q23 = q2 + q3`, `q = q01 + q23` as 128-bit
/// vector adds, then the four lanes of `q` in ascending order. Spelled
/// out so the association is fixed in source, not chosen by the
/// compiler (`_mm512_reduce_add_ps` lowers to an unordered LLVM
/// reduction).
///
/// # Safety
/// Requires the `avx512f` CPU feature (guaranteed by dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn reduce_add_avx512(v: std::arch::x86_64::__m512) -> f32 {
    use std::arch::x86_64::*;
    let q0 = _mm512_extractf32x4_ps::<0>(v);
    let q1 = _mm512_extractf32x4_ps::<1>(v);
    let q2 = _mm512_extractf32x4_ps::<2>(v);
    let q3 = _mm512_extractf32x4_ps::<3>(v);
    let q = _mm_add_ps(_mm_add_ps(q0, q1), _mm_add_ps(q2, q3));
    let mut lanes = [0.0f32; 4];
    _mm_storeu_ps(lanes.as_mut_ptr(), q);
    ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
}

/// AVX-512 dot product: 64 fixed lanes per unrolled step in **four**
/// 512-bit accumulators (four independent FMA chains — two are not
/// enough to hide the ~4-cycle FMA latency, which left the two-chain
/// version no faster than the latency-friendlier mul+add AVX2 tier),
/// an odd trailing 32-lane step folded into the first two chains, each
/// product folded in with a **single-rounding FMA**, then the fixed
/// pairwise combine `(acc0+acc1) + (acc2+acc3)` into the
/// [`reduce_add_avx512`] tree with the scalar remainder folded last
/// (also via `mul_add`). Deterministic, but *not* bit-identical to the
/// lower tiers — covered by the tolerance contract, not the bit
/// contract.
///
/// # Safety
/// Requires the `avx512f` CPU feature (guaranteed by dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 32;
    let pairs = chunks / 2;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut acc2 = _mm512_setzero_ps();
    let mut acc3 = _mm512_setzero_ps();
    for p in 0..pairs {
        let base = p * 64;
        acc0 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base)),
            _mm512_loadu_ps(pb.add(base)),
            acc0,
        );
        acc1 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base + 16)),
            _mm512_loadu_ps(pb.add(base + 16)),
            acc1,
        );
        acc2 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base + 32)),
            _mm512_loadu_ps(pb.add(base + 32)),
            acc2,
        );
        acc3 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base + 48)),
            _mm512_loadu_ps(pb.add(base + 48)),
            acc3,
        );
    }
    if chunks % 2 == 1 {
        let base = pairs * 64;
        acc0 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base)),
            _mm512_loadu_ps(pb.add(base)),
            acc0,
        );
        acc1 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(base + 16)),
            _mm512_loadu_ps(pb.add(base + 16)),
            acc1,
        );
    }
    let combined = _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3));
    let mut sum = reduce_add_avx512(combined);
    for i in chunks * 32..n {
        sum = a[i].mul_add(b[i], sum);
    }
    sum
}

/// Four dot products of one left row against four consecutive packed
/// right rows — the AVX-512 GEMM micro-kernel. Each output is computed
/// with **exactly** the [`dot_avx512`] recipe (its own four-accumulator
/// group over 64-lane unrolled steps, the odd 32-lane step into the
/// group's first two chains, FMA per lane, the fixed pairwise combine
/// and reduction tree, sequential `mul_add` remainder), so every result
/// is bit-identical to a standalone `dot` call *on this tier*; grouping
/// only shares the loads of `a`.
///
/// # Safety
/// Requires the `avx512f` CPU feature (guaranteed by dispatch); `b` must
/// hold four consecutive rows of `a.len()` starting at `b_off`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// The remainder loop indexes `a` in lockstep with raw row pointers; the
// indexed form keeps that correspondence visible.
#[allow(clippy::needless_range_loop)]
unsafe fn dot4_avx512(a: &[f32], b: &[f32], b_off: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = a.len();
    let chunks = k / 32;
    let pairs = chunks / 2;
    let pa = a.as_ptr();
    let pb0 = b.as_ptr().add(b_off);
    let pb1 = pb0.add(k);
    let pb2 = pb1.add(k);
    let pb3 = pb2.add(k);
    let rows = [pb0, pb1, pb2, pb3];
    // acc[4j..4j + 4] is row j's accumulator group, in dot_avx512's
    // chain order.
    let mut acc = [_mm512_setzero_ps(); 16];
    for p in 0..pairs {
        let base = p * 64;
        let a0 = _mm512_loadu_ps(pa.add(base));
        let a1 = _mm512_loadu_ps(pa.add(base + 16));
        let a2 = _mm512_loadu_ps(pa.add(base + 32));
        let a3 = _mm512_loadu_ps(pa.add(base + 48));
        for (j, row) in rows.iter().enumerate() {
            acc[4 * j] = _mm512_fmadd_ps(a0, _mm512_loadu_ps(row.add(base)), acc[4 * j]);
            acc[4 * j + 1] =
                _mm512_fmadd_ps(a1, _mm512_loadu_ps(row.add(base + 16)), acc[4 * j + 1]);
            acc[4 * j + 2] =
                _mm512_fmadd_ps(a2, _mm512_loadu_ps(row.add(base + 32)), acc[4 * j + 2]);
            acc[4 * j + 3] =
                _mm512_fmadd_ps(a3, _mm512_loadu_ps(row.add(base + 48)), acc[4 * j + 3]);
        }
    }
    if chunks % 2 == 1 {
        let base = pairs * 64;
        let a0 = _mm512_loadu_ps(pa.add(base));
        let a1 = _mm512_loadu_ps(pa.add(base + 16));
        for (j, row) in rows.iter().enumerate() {
            acc[4 * j] = _mm512_fmadd_ps(a0, _mm512_loadu_ps(row.add(base)), acc[4 * j]);
            acc[4 * j + 1] =
                _mm512_fmadd_ps(a1, _mm512_loadu_ps(row.add(base + 16)), acc[4 * j + 1]);
        }
    }
    for (j, row) in rows.iter().enumerate() {
        let combined = _mm512_add_ps(
            _mm512_add_ps(acc[4 * j], acc[4 * j + 1]),
            _mm512_add_ps(acc[4 * j + 2], acc[4 * j + 3]),
        );
        let mut sum = reduce_add_avx512(combined);
        for i in chunks * 32..k {
            sum = a[i].mul_add(*row.add(i), sum);
        }
        out[j] = sum;
    }
}

/// AVX-512 squared Euclidean distance: the [`dot_avx512`] shape (four
/// FMA chains over 64-lane unrolled steps, odd 32-lane step into the
/// first two chains, fixed pairwise combine + reduction tree) with
/// `d = aᵢ − bᵢ` and `d·d` folded in by FMA. Same tolerance contract as
/// the dot kernel; **not** bit-identical to [`sq_dist`]'s portable
/// lanes.
///
/// # Safety
/// Requires the `avx512f` CPU feature (guaranteed by dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sq_dist_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 32;
    let pairs = chunks / 2;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut acc2 = _mm512_setzero_ps();
    let mut acc3 = _mm512_setzero_ps();
    for p in 0..pairs {
        let base = p * 64;
        let d0 = _mm512_sub_ps(_mm512_loadu_ps(pa.add(base)), _mm512_loadu_ps(pb.add(base)));
        let d1 = _mm512_sub_ps(
            _mm512_loadu_ps(pa.add(base + 16)),
            _mm512_loadu_ps(pb.add(base + 16)),
        );
        let d2 = _mm512_sub_ps(
            _mm512_loadu_ps(pa.add(base + 32)),
            _mm512_loadu_ps(pb.add(base + 32)),
        );
        let d3 = _mm512_sub_ps(
            _mm512_loadu_ps(pa.add(base + 48)),
            _mm512_loadu_ps(pb.add(base + 48)),
        );
        acc0 = _mm512_fmadd_ps(d0, d0, acc0);
        acc1 = _mm512_fmadd_ps(d1, d1, acc1);
        acc2 = _mm512_fmadd_ps(d2, d2, acc2);
        acc3 = _mm512_fmadd_ps(d3, d3, acc3);
    }
    if chunks % 2 == 1 {
        let base = pairs * 64;
        let d0 = _mm512_sub_ps(_mm512_loadu_ps(pa.add(base)), _mm512_loadu_ps(pb.add(base)));
        let d1 = _mm512_sub_ps(
            _mm512_loadu_ps(pa.add(base + 16)),
            _mm512_loadu_ps(pb.add(base + 16)),
        );
        acc0 = _mm512_fmadd_ps(d0, d0, acc0);
        acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    }
    let combined = _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3));
    let mut sum = reduce_add_avx512(combined);
    for i in chunks * 32..n {
        let d = a[i] - b[i];
        sum = d.mul_add(d, sum);
    }
    sum
}

/// Fill `out[j - j0]` with `dot(a, b_j)` for `j` in `j0..j1` over packed
/// rows of width `k` — the inner loop of every GEMM tile. On the AVX2
/// and AVX-512 tiers, groups of four consecutive rows go through the
/// [`dot4_avx2`] / [`dot4_avx512`] micro-kernels (bit-identical to
/// per-entry dots on the same tier; the grouping only amortizes loads
/// and calls), with per-entry dots on the remainder and on the portable
/// tier.
#[inline]
fn dot_row_with_tier(
    tier: SimdTier,
    a: &[f32],
    b: &[f32],
    k: usize,
    j0: usize,
    j1: usize,
    out: &mut [f32],
) {
    debug_assert!(j1 * k <= b.len());
    debug_assert!(j1 - j0 <= out.len());
    let mut j = j0;
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        while j + 4 <= j1 {
            // SAFETY: Avx2 tier implies the feature is present; rows
            // j..j+4 lie inside `b` by the debug-asserted bound.
            unsafe { dot4_avx2(a, b, j * k, &mut out[j - j0..j - j0 + 4]) };
            j += 4;
        }
    }
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx512 {
        while j + 4 <= j1 {
            // SAFETY: the Avx512 tier is only ever produced by
            // `detect_best` (or clamped to it), which checks `avx512f`
            // at runtime; rows j..j+4 lie inside `b` by the
            // debug-asserted bound.
            unsafe { dot4_avx512(a, b, j * k, &mut out[j - j0..j - j0 + 4]) };
            j += 4;
        }
    }
    for jj in j..j1 {
        out[jj - j0] = dot_with_tier(tier, a, &b[jj * k..(jj + 1) * k]);
    }
}

/// Dot product on an explicit tier (dispatch hoisted by the blocked
/// kernels so the decision is made once per kernel call, not per entry).
#[inline]
pub fn dot_with_tier(tier: SimdTier, a: &[f32], b: &[f32]) -> f32 {
    // Hard assert: the AVX2 path reads `a.len()` elements of `b` through
    // raw pointers, so a length mismatch must panic here rather than
    // read out of bounds in release builds.
    assert_eq!(a.len(), b.len());
    match tier {
        SimdTier::Portable => portable_dot(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 tier is only ever produced by `detect_best`
        // (or clamped to it), which checks `avx2` at runtime.
        SimdTier::Avx2 => unsafe { dot_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx512 tier is only ever produced by `detect_best`
        // (or clamped to it), which checks `avx512f` at runtime.
        SimdTier::Avx512 => unsafe { dot_avx512(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdTier::Avx2 | SimdTier::Avx512 => portable_dot(a, b),
    }
}

/// Runtime-dispatched dot product — the one inner-product kernel every
/// blocked path evaluates (bit-identical between the Portable and Avx2
/// tiers; tolerance-bounded on Avx512 — see the module docs).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with_tier(simd_tier(), a, b)
}

/// Tile edge (rows × columns per block) for the blocked kernels. 64 rows
/// of a 128-d `f32` matrix are 32 KiB — two operand tiles stay resident
/// in L1/L2 while a tile of `TILE²` outputs is produced.
pub const TILE: usize = 64;

/// Gather `rows` of `data` into a contiguous row-major buffer.
///
/// The spatial pipeline operates on cluster subsets of a shared
/// embedding matrix; packing removes the per-access index indirection
/// and makes the kernels stream sequentially.
pub fn pack_rows(data: &Embeddings, rows: &[usize]) -> Vec<f32> {
    let dim = data.dim();
    let mut out = Vec::with_capacity(rows.len() * dim);
    for &r in rows {
        out.extend_from_slice(data.row(r));
    }
    out
}

/// Transpose the row-major `rows × cols` matrix `src` into `dst`
/// (`cols × rows`, row-major).
pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Blocked Gram matrix between two packed row sets: `out[i·nb + j] =
/// dot(a_i, b_j)`.
///
/// `a` has `na` rows and `b` has `nb` rows, both of width `dim`. A Gram
/// matrix over row subsets *is* the [`gemm`] product `A·Bᵀ`, so this
/// simply delegates — same tiling, same micro-kernel, each entry one
/// [`dot`] call (bit-identical to the scalar path).
pub fn gram_block(a: &[f32], na: usize, b: &[f32], nb: usize, dim: usize, out: &mut [f32]) {
    gemm(a, na, b, nb, dim, out);
}

/// Cache-blocked row-major GEMM against a transposed right operand:
/// `out[i·n + j] = dot(a_i, b_j)` — i.e. `C = A·Bᵀ` with `A` of shape
/// `m × k` and `B` of shape `n × k`, both row-major.
///
/// This is the matcher's layer product: with `A` a batch of activations
/// and `B` a weight matrix stored as `n` output rows of `k` inputs,
/// `C` is the batch of pre-activations. Same tiling as [`gram_block`];
/// each entry is exactly one [`dot`] call on the tier dispatched once
/// per GEMM, so the result is bit-identical to the per-row scalar path
/// on every tier.
pub fn gemm(a: &[f32], m: usize, b: &[f32], n: usize, k: usize, out: &mut [f32]) {
    // Hard asserts: the AVX2 micro-kernel reads through raw pointers, so
    // an undersized operand must panic here rather than read out of
    // bounds in release builds.
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    let tier = simd_tier();
    for i0 in (0..m).step_by(TILE) {
        let i1 = (i0 + TILE).min(m);
        for j0 in (0..n).step_by(TILE) {
            let j1 = (j0 + TILE).min(n);
            for i in i0..i1 {
                let ai = &a[i * k..(i + 1) * k];
                let row_out = &mut out[i * n + j0..i * n + j1];
                dot_row_with_tier(tier, ai, b, k, j0, j1, row_out);
            }
        }
    }
}

/// [`gemm`] fused with a per-column bias add and an optional ReLU:
/// `out[i·n + j] = act(dot(a_i, b_j) + bias[j])` where `act` is
/// `max(0, ·)` when `relu` is set and the identity otherwise.
///
/// The bias is added **after** the dot reduction completes (one `f32`
/// add), matching the scalar forward path bit-for-bit; ReLU is a
/// max and cannot change bits beyond selecting them.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_relu(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    k: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    // Hard asserts — see [`gemm`] on why these cannot be debug-only.
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(bias.len(), n);
    assert_eq!(out.len(), m * n);
    let tier = simd_tier();
    for i0 in (0..m).step_by(TILE) {
        let i1 = (i0 + TILE).min(m);
        for j0 in (0..n).step_by(TILE) {
            let j1 = (j0 + TILE).min(n);
            for i in i0..i1 {
                let ai = &a[i * k..(i + 1) * k];
                let row_out = &mut out[i * n + j0..i * n + j1];
                dot_row_with_tier(tier, ai, b, k, j0, j1, row_out);
                for (v, &bj) in row_out.iter_mut().zip(&bias[j0..j1]) {
                    *v += bj;
                    if relu {
                        *v = v.max(0.0);
                    }
                }
            }
        }
    }
}

/// Symmetric Gram matrix over a packed row set, parallel over row tiles.
///
/// Returns the dense `n × n` matrix with `out[i·n + j] = dot(x_i, x_j)`
/// for `i ≠ j` and `0.0` on the diagonal (the pipeline never consumes
/// self-similarities). Each off-diagonal pair is computed **once** (the
/// upper triangle) and mirrored, so `out[i·n+j]` and `out[j·n+i]` are
/// the same bits.
pub fn gram_packed(packed: &[f32], n: usize, dim: usize) -> Vec<f32> {
    // Hard assert — see [`gemm`] on why this cannot be debug-only.
    assert_eq!(packed.len(), n * dim);
    let n_tiles = n.div_ceil(TILE).max(1);
    // One dispatch decision for the whole Gram; the captured value also
    // pins any `with_simd_tier` override across the worker threads.
    let tier = simd_tier();
    // Each task computes the upper-triangle strip of one row tile.
    let strips: Vec<Vec<f32>> = (0..n_tiles)
        .into_par_iter()
        .map(|t| {
            let i0 = t * TILE;
            let i1 = (i0 + TILE).min(n);
            let rows = i1 - i0;
            let mut strip = vec![0.0f32; rows * n];
            for j0 in (i0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    let xi = &packed[i * dim..(i + 1) * dim];
                    let js = j0.max(i + 1);
                    let row_out = &mut strip[(i - i0) * n + js..(i - i0) * n + j1];
                    dot_row_with_tier(tier, xi, packed, dim, js, j1, row_out);
                }
            }
            strip
        })
        .collect();
    let mut out = vec![0.0f32; n * n];
    for (t, strip) in strips.into_iter().enumerate() {
        let i0 = t * TILE;
        let rows = strip.len() / n.max(1);
        out[i0 * n..i0 * n + rows * n].copy_from_slice(&strip);
    }
    // Mirror the upper triangle; copying preserves bits exactly.
    for i in 0..n {
        for j in i + 1..n {
            out[j * n + i] = out[i * n + j];
        }
    }
    out
}

/// Scalar reference for the batched top-`k`: dot-product top-`k` of
/// `query_row` among `among`, skipping the query itself.
///
/// Same selection semantics as [`crate::knn::top_k_among`] (descending
/// similarity, ties toward the smaller index) but with the raw dot
/// product the graph builder uses on pre-normalized rows, instead of
/// re-deriving cosine.
pub fn top_k_among_dot(
    data: &Embeddings,
    query_row: usize,
    among: &[usize],
    k: usize,
) -> Vec<Neighbor> {
    let q = data.row(query_row);
    let mut buf = TopBuffer::new(k);
    for &i in among {
        if i == query_row {
            continue;
        }
        buf.offer(Neighbor {
            index: i,
            similarity: dot(q, data.row(i)),
        });
    }
    buf.into_sorted()
}

/// Batched top-`k` by dot product: for every query row, its `k` most
/// similar rows among `among` (global indices), excluding itself.
///
/// One blocked pass packs the candidate rows and streams them against
/// each query; queries are processed in parallel. Results are exactly
/// [`top_k_among_dot`] per query — the top-`k` under the total order
/// (similarity desc, index asc) does not depend on candidate visit
/// order.
pub fn top_k_batch(
    data: &Embeddings,
    queries: &[usize],
    among: &[usize],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    let dim = data.dim();
    let packed = pack_rows(data, among);
    let tier = simd_tier();
    queries
        .par_iter()
        .map(|&q| {
            let qrow = data.row(q);
            let mut buf = TopBuffer::new(k);
            let mut sims = [0.0f32; TILE];
            for c0 in (0..among.len()).step_by(TILE) {
                let c1 = (c0 + TILE).min(among.len());
                for (s, c) in (c0..c1).enumerate() {
                    sims[s] = dot_with_tier(tier, qrow, &packed[c * dim..(c + 1) * dim]);
                }
                for (s, c) in (c0..c1).enumerate() {
                    let idx = among[c];
                    if idx == q {
                        continue;
                    }
                    buf.offer(Neighbor {
                        index: idx,
                        similarity: sims[s],
                    });
                }
            }
            buf.into_sorted()
        })
        .collect()
}

/// Portable squared Euclidean distance (16 accumulator lanes).
///
/// The seed's [`crate::embeddings::sq_euclidean`] carries one
/// loop-borne accumulator — a ~4-cycle dependency per element that also
/// blocks autovectorization. This kernel uses the same lane structure
/// as [`dot`] (measured ~3.5× on 128-d rows). **Not** bit-compatible
/// with `sq_euclidean` (different summation association); the
/// clustering paths use one or the other consistently, never a mix.
#[inline]
fn sq_dist_portable(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let ca = a.chunks_exact(16);
    let cb = b.chunks_exact(16);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..16 {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut sum = 0.0;
    for lane in acc {
        sum += lane;
    }
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Squared Euclidean distance on an explicit tier. The Portable and
/// Avx2 tiers share the autovectorized 16-lane form (the bit contract
/// holds between them by construction); the Avx512 tier runs the FMA
/// kernel under the tolerance contract.
#[inline]
pub fn sq_dist_with_tier(tier: SimdTier, a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx512 {
        // Hard assert: the AVX-512 path reads `a.len()` elements of `b`
        // through raw pointers, so a length mismatch must panic here
        // rather than read out of bounds in release builds.
        assert_eq!(a.len(), b.len());
        // SAFETY: the Avx512 tier is only ever produced by `detect_best`
        // (or clamped to it), which checks `avx512f` at runtime; lengths
        // are equal per the assert above.
        return unsafe { sq_dist_avx512(a, b) };
    }
    let _ = tier;
    debug_assert_eq!(a.len(), b.len());
    sq_dist_portable(a, b)
}

/// Runtime-dispatched squared Euclidean distance — see
/// [`sq_dist_with_tier`] for the per-tier contracts.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist_with_tier(simd_tier(), a, b)
}

/// Squared distances from every row of `points` (packed, `n × dim`) to
/// every row of `centers` (packed, `k × dim`), parallel over points.
///
/// `out[i·k + c] = sq_dist(point_i, center_c)`. The K-Means assignment
/// and regret passes both read this one matrix instead of re-deriving
/// distances point-by-point.
pub fn sq_dist_batch(points: &[f32], n: usize, centers: &[f32], k: usize, dim: usize) -> Vec<f32> {
    debug_assert_eq!(points.len(), n * dim);
    debug_assert_eq!(centers.len(), k * dim);
    // One dispatch decision for the whole batch; the captured value also
    // pins any `with_simd_tier` override across the worker threads.
    let tier = simd_tier();
    (0..n)
        .into_par_iter()
        .map(|i| {
            let p = &points[i * dim..(i + 1) * dim];
            let mut row = Vec::with_capacity(k);
            for c in 0..k {
                row.push(sq_dist_with_tier(tier, p, &centers[c * dim..(c + 1) * dim]));
            }
            row
        })
        .collect::<Vec<Vec<f32>>>()
        .concat()
}

/// Distance in units-in-the-last-place between two finite `f32`s — the
/// metric of the AVX-512 tolerance harness. Implemented over the
/// monotone mapping of IEEE-754 bit patterns onto a signed integer
/// line, so the result counts representable values between `a` and `b`
/// (0 means bit-identical; +0.0 and −0.0 are 1 apart).
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            // Negative floats order by descending magnitude; map them
            // below the positives (−0.0 → −1) preserving order.
            -((bits & 0x7FFF_FFFF) as i64) - 1
        } else {
            bits as i64
        }
    }
    ordered(a).abs_diff(ordered(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::Rng;

    fn gaussian(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.normal() as f32).collect())
            .collect();
        let mut e = Embeddings::from_rows(&rows).unwrap();
        e.normalize_rows();
        e
    }

    #[test]
    fn gram_packed_matches_scalar_dot_bitwise() {
        // n deliberately not a multiple of TILE to cover ragged tiles.
        let data = gaussian(150, 37, 1);
        let members: Vec<usize> = (0..150).collect();
        let packed = pack_rows(&data, &members);
        let gram = gram_packed(&packed, 150, 37);
        for i in 0..150 {
            for j in 0..150 {
                let expected = if i == j {
                    0.0
                } else {
                    dot(data.row(i), data.row(j))
                };
                assert_eq!(
                    gram[i * 150 + j].to_bits(),
                    expected.to_bits(),
                    "gram[{i},{j}]"
                );
            }
        }
    }

    #[test]
    fn gram_packed_on_subset_rows() {
        let data = gaussian(80, 16, 2);
        let members: Vec<usize> = (0..80).step_by(3).collect();
        let m = members.len();
        let packed = pack_rows(&data, &members);
        let gram = gram_packed(&packed, m, 16);
        for a in 0..m {
            for b in 0..m {
                let expected = if a == b {
                    0.0
                } else {
                    dot(data.row(members[a]), data.row(members[b]))
                };
                assert_eq!(gram[a * m + b].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn gram_block_rectangular_matches_scalar() {
        let data = gaussian(100, 24, 3);
        let rows: Vec<usize> = (0..70).collect();
        let cols: Vec<usize> = (70..100).collect();
        let a = pack_rows(&data, &rows);
        let b = pack_rows(&data, &cols);
        let mut out = vec![0.0f32; rows.len() * cols.len()];
        gram_block(&a, rows.len(), &b, cols.len(), 24, &mut out);
        for (i, &r) in rows.iter().enumerate() {
            for (j, &c) in cols.iter().enumerate() {
                assert_eq!(
                    out[i * cols.len() + j].to_bits(),
                    dot(data.row(r), data.row(c)).to_bits()
                );
            }
        }
    }

    #[test]
    fn top_k_batch_matches_scalar_reference_exactly() {
        let data = gaussian(130, 19, 4);
        let among: Vec<usize> = (0..130).collect();
        let queries: Vec<usize> = (0..130).step_by(7).collect();
        let batch = top_k_batch(&data, &queries, &among, 9);
        for (qi, &q) in queries.iter().enumerate() {
            let reference = top_k_among_dot(&data, q, &among, 9);
            assert_eq!(batch[qi].len(), reference.len(), "query {q}");
            for (a, b) in batch[qi].iter().zip(&reference) {
                assert_eq!(a.index, b.index, "query {q}");
                assert_eq!(a.similarity.to_bits(), b.similarity.to_bits(), "query {q}");
            }
        }
    }

    #[test]
    fn top_k_batch_parallel_equals_serial() {
        let data = gaussian(200, 12, 5);
        let among: Vec<usize> = (0..200).collect();
        let queries: Vec<usize> = (0..200).collect();
        let par = top_k_batch(&data, &queries, &among, 5);
        let ser = rayon::serial_scope(|| top_k_batch(&data, &queries, &among, 5));
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn top_k_batch_handles_small_and_duplicate_cases() {
        let data = gaussian(6, 8, 6);
        // k larger than candidate count, query inside candidates.
        let hits = top_k_batch(&data, &[0], &[0, 1, 2], 10);
        assert_eq!(hits[0].len(), 2);
        // Zero k.
        assert!(top_k_batch(&data, &[1], &[0, 2], 0)[0].is_empty());
        // Empty candidates.
        assert!(top_k_batch(&data, &[1], &[], 3)[0].is_empty());
    }

    #[test]
    fn sq_dist_agrees_with_reference_within_fp_tolerance() {
        let data = gaussian(40, 33, 7);
        for i in 0..40 {
            for j in 0..40 {
                let fast = sq_dist(data.row(i), data.row(j));
                let slow = crate::embeddings::sq_euclidean(data.row(i), data.row(j));
                assert!(
                    (fast - slow).abs() <= 1e-5 * (1.0 + slow),
                    "({i},{j}): {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn dispatch_tiers_are_bit_identical() {
        // On AVX2 hardware this compares the intrinsics path against the
        // portable lanes; elsewhere `with_simd_tier` clamps to Portable
        // and the test degenerates to self-comparison (still valid).
        let mut rng = Rng::seed_from_u64(42);
        for len in [0usize, 1, 7, 15, 16, 17, 33, 64, 128, 131] {
            let a: Vec<f32> = (0..len).map(|_| rng.normal() as f32).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.normal() as f32).collect();
            let portable = with_simd_tier(SimdTier::Portable, || dot(&a, &b));
            let avx2 = with_simd_tier(SimdTier::Avx2, || dot(&a, &b));
            assert_eq!(portable.to_bits(), avx2.to_bits(), "len {len}");
            assert_eq!(
                portable.to_bits(),
                crate::embeddings::dot(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn gemm_matches_per_entry_dot_on_every_tier() {
        let data = gaussian(90, 45, 11);
        let a_rows: Vec<usize> = (0..53).collect();
        let b_rows: Vec<usize> = (53..90).collect();
        let a = pack_rows(&data, &a_rows);
        let b = pack_rows(&data, &b_rows);
        for tier in [SimdTier::Portable, SimdTier::Avx2] {
            let mut out = vec![0.0f32; a_rows.len() * b_rows.len()];
            with_simd_tier(tier, || {
                gemm(&a, a_rows.len(), &b, b_rows.len(), 45, &mut out)
            });
            for (i, &r) in a_rows.iter().enumerate() {
                for (j, &c) in b_rows.iter().enumerate() {
                    assert_eq!(
                        out[i * b_rows.len() + j].to_bits(),
                        crate::embeddings::dot(data.row(r), data.row(c)).to_bits(),
                        "tier {} entry ({i},{j})",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_bias_relu_fuses_exactly() {
        let data = gaussian(70, 30, 12);
        let a_rows: Vec<usize> = (0..40).collect();
        let w_rows: Vec<usize> = (40..70).collect();
        let a = pack_rows(&data, &a_rows);
        let w = pack_rows(&data, &w_rows);
        let bias: Vec<f32> = (0..w_rows.len()).map(|j| (j as f32 - 15.0) * 0.1).collect();
        for relu in [false, true] {
            let mut out = vec![0.0f32; a_rows.len() * w_rows.len()];
            gemm_bias_relu(
                &a,
                a_rows.len(),
                &w,
                w_rows.len(),
                30,
                &bias,
                relu,
                &mut out,
            );
            for (i, &r) in a_rows.iter().enumerate() {
                for (j, &c) in w_rows.iter().enumerate() {
                    let mut expected = dot(data.row(r), data.row(c)) + bias[j];
                    if relu {
                        expected = expected.max(0.0);
                    }
                    assert_eq!(
                        out[i * w_rows.len() + j].to_bits(),
                        expected.to_bits(),
                        "relu {relu} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn tier_override_clamps_and_restores() {
        let outer = simd_tier();
        with_simd_tier(SimdTier::Portable, || {
            assert_eq!(simd_tier(), SimdTier::Portable);
            // Nested override: Avx2 request never exceeds the detection.
            with_simd_tier(SimdTier::Avx2, || {
                assert!(simd_tier() <= detect_tier());
            });
            assert_eq!(simd_tier(), SimdTier::Portable);
        });
        assert_eq!(simd_tier(), outer);
        // The override is restored even when the closure panics (test
        // harnesses catch unwinds and reuse the thread).
        let caught = std::panic::catch_unwind(|| {
            with_simd_tier(SimdTier::Portable, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(simd_tier(), outer);
    }

    #[test]
    fn simd_tier_parse_vocabulary() {
        assert_eq!(SimdTier::parse("portable").unwrap(), SimdTier::Portable);
        assert_eq!(SimdTier::parse("AVX2").unwrap(), SimdTier::Avx2);
        assert_eq!(SimdTier::parse(" avx512 ").unwrap(), SimdTier::Avx512);
        // Unknown names are structured errors, never panics.
        for bad in ["avx1024", "", "sse", "portable2"] {
            match SimdTier::parse(bad) {
                Err(em_core::EmError::InvalidConfig(msg)) => {
                    assert!(msg.contains("SIMD tier"), "message for `{bad}`: {msg}")
                }
                other => panic!("parse(`{bad}`) should be InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn avx512_request_clamps_to_hardware() {
        // Requesting the top tier is always safe: `with_simd_tier`
        // clamps to the detection, so on non-AVX-512 hosts this runs the
        // best lower tier instead of faulting.
        let a: Vec<f32> = (0..67).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32).cos()).collect();
        with_simd_tier(SimdTier::Avx512, || {
            assert!(simd_tier() <= detect_best());
            let _ = dot(&a, &b);
        });
    }

    /// Forward-error budget for an `n`-term f32 dot product against an
    /// f64 reference: `γ(n)·Σ|aᵢbᵢ|` with a small safety factor.
    fn dot_error_budget(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len().max(2) as f64;
        let eps = 2.0_f64.powi(-24);
        let gamma = n * eps / (1.0 - n * eps);
        let mag: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (f64::from(x) * f64::from(y)).abs())
            .sum();
        2.0 * gamma * mag.max(f64::MIN_POSITIVE)
    }

    #[test]
    fn every_tier_is_within_the_dot_error_budget() {
        let mut rng = Rng::seed_from_u64(71);
        for len in [1usize, 15, 16, 31, 32, 33, 64, 127, 128, 384] {
            let a: Vec<f32> = (0..len).map(|_| rng.normal() as f32).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.normal() as f32).collect();
            let reference: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum();
            let budget = dot_error_budget(&a, &b);
            for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
                let got = with_simd_tier(tier, || dot(&a, &b));
                assert!(
                    (f64::from(got) - reference).abs() <= budget,
                    "tier {} len {len}: {got} vs {reference} (budget {budget:e})",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn avx512_gemm_entries_match_standalone_dot_on_the_same_tier() {
        // The within-tier contract: blocked kernels evaluate each entry
        // as exactly one dot call of their tier, AVX-512 included.
        let data = gaussian(90, 45, 13);
        let a_rows: Vec<usize> = (0..53).collect();
        let b_rows: Vec<usize> = (53..90).collect();
        let a = pack_rows(&data, &a_rows);
        let b = pack_rows(&data, &b_rows);
        with_simd_tier(SimdTier::Avx512, || {
            let mut out = vec![0.0f32; a_rows.len() * b_rows.len()];
            gemm(&a, a_rows.len(), &b, b_rows.len(), 45, &mut out);
            for (i, &r) in a_rows.iter().enumerate() {
                for (j, &c) in b_rows.iter().enumerate() {
                    assert_eq!(
                        out[i * b_rows.len() + j].to_bits(),
                        dot(data.row(r), data.row(c)).to_bits(),
                        "entry ({i},{j})"
                    );
                }
            }
        });
    }

    #[test]
    fn avx512_sq_dist_within_budget_and_batch_consistent() {
        let data = gaussian(30, 70, 14);
        with_simd_tier(SimdTier::Avx512, || {
            for i in 0..30 {
                for j in 0..30 {
                    let got = f64::from(sq_dist(data.row(i), data.row(j)));
                    let reference: f64 = data
                        .row(i)
                        .iter()
                        .zip(data.row(j))
                        .map(|(&x, &y)| {
                            let d = f64::from(x) - f64::from(y);
                            d * d
                        })
                        .sum();
                    assert!(
                        (got - reference).abs() <= 1e-4 * (1.0 + reference),
                        "({i},{j}): {got} vs {reference}"
                    );
                }
            }
            // The batched form hoists the tier once and must agree
            // bit-for-bit with the pointwise kernel on that tier.
            let pts: Vec<usize> = (0..20).collect();
            let ctr: Vec<usize> = (20..27).collect();
            let p = pack_rows(&data, &pts);
            let c = pack_rows(&data, &ctr);
            let out = sq_dist_batch(&p, 20, &c, 7, 70);
            for i in 0..20 {
                for k in 0..7 {
                    let expected = sq_dist(data.row(pts[i]), data.row(ctr[k]));
                    assert_eq!(out[i * 7 + k].to_bits(), expected.to_bits());
                }
            }
        });
    }

    #[test]
    fn ulp_diff_counts_representable_steps() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(0.0, -0.0), 1);
        assert_eq!(ulp_diff(-1.0, -1.0), 0);
        let a = -1.0f32;
        let next_toward_zero = f32::from_bits(a.to_bits() - 1);
        assert_eq!(ulp_diff(a, next_toward_zero), 1);
        // Symmetric.
        assert_eq!(ulp_diff(3.5, 3.25), ulp_diff(3.25, 3.5));
    }

    #[test]
    fn transpose_round_trips_ragged_shapes() {
        for (rows, cols) in [(1usize, 1usize), (3, 17), (16, 16), (33, 5), (40, 96)] {
            let src: Vec<f32> = (0..rows * cols).map(|v| v as f32).collect();
            let mut t = vec![0.0f32; rows * cols];
            transpose(&src, rows, cols, &mut t);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t[c * rows + r], src[r * cols + c]);
                }
            }
            let mut back = vec![0.0f32; rows * cols];
            transpose(&t, cols, rows, &mut back);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn sq_dist_batch_matches_pointwise_kernel() {
        let data = gaussian(50, 21, 8);
        let pts: Vec<usize> = (0..30).collect();
        let ctr: Vec<usize> = (30..37).collect();
        let p = pack_rows(&data, &pts);
        let c = pack_rows(&data, &ctr);
        let out = sq_dist_batch(&p, 30, &c, 7, 21);
        for i in 0..30 {
            for k in 0..7 {
                let expected = sq_dist(data.row(pts[i]), data.row(ctr[k]));
                assert_eq!(out[i * 7 + k].to_bits(), expected.to_bits());
            }
        }
    }
}
