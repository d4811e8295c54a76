//! Sparse-input layer product — the matcher's first layer over
//! compressed sparse rows, **bit-identical** to the dense
//! [`gemm_bias_relu`](crate::kernel::gemm_bias_relu) on every tier.
//!
//! The matcher's pair features are signed hashed-token counts plus
//! one-hot overlap bins: about 2 % of a row's 848 inputs are nonzero,
//! yet a dense first layer multiplies every input into every
//! hidden unit. [`sparse_gemm_bias_relu`] touches only the nonzeros of
//! a [`SparseRows`] batch, against an **input-major** weight matrix
//! (`wt`, `k × n`: row `i` holds input `i`'s weight into each of the `n`
//! outputs), so every nonzero is one contiguous axpy over the outputs.
//!
//! # Bit-identity with the dense kernel
//!
//! Every dense [`dot`](crate::kernel::dot) tier folds input `i` into a
//! fixed accumulator *slot*, in ascending `i` within the slot, reduces
//! the slots by a fixed order, and folds the inputs past the last full
//! step sequentially after the reduction:
//!
//! | tier | slot of `i` (below the last full step) | step | fold | slot reduction |
//! |---|---|---|---|---|
//! | Portable, AVX2 | `i mod 16` | 16 | `acc + x·w` (two roundings) | ascending into `+0` |
//! | AVX-512 | `i mod 64` (chain `(i mod 64)/16`, lane `i mod 16`) | 32 | FMA | chains pairwise, then the quarter tree |
//!
//! This kernel keeps one accumulator row of `n` outputs per slot,
//! folds each row's nonzeros with the tier's own operation in ascending
//! index order, reduces the slots in the tier's order and folds the
//! remainder last — the dense recipe with the zero terms left out.
//! Leaving them out changes no bit: a zero input adds `±0` to its slot,
//! and `acc + (±0) = acc` unless `acc` is `−0`. Accumulators start at
//! `+0`, and a sum of two floats is `−0` only if both operands are, so
//! with multiply-then-add no accumulator, tree node or running sum is
//! ever `−0`; untouched slots stay exactly `+0` and drop out of the
//! reduction the same way.
//!
//! Preconditions: weights are finite (the dense kernel turns `0·∞` into
//! NaN; the sparse one never forms that product). On the FMA tier, a
//! nonzero product smaller than `2⁻¹⁴⁹` in magnitude rounds to `±0`
//! inside the fused operation, so there the two kernels can differ in
//! the *sign of an exact-zero* pre-activation — never in a nonzero
//! value. Trained weights and the featurizer's inputs sit tens of
//! orders of magnitude above that range.

use em_core::{EmError, Result};

use crate::embeddings::Embeddings;
use crate::kernel::{simd_tier, SimdTier};

/// Rows of a matrix stored as their nonzero entries (compressed sparse
/// rows): column indices ascending within a row, zeros of either sign
/// dropped, every other value (NaN included) kept exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    dim: usize,
    /// `offsets[r]..offsets[r + 1]` is row `r`'s range in
    /// `indices`/`values`; `offsets[0] == 0`.
    offsets: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl SparseRows {
    /// An empty batch of rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        SparseRows {
            dim,
            offsets: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The nonzeros of `rows` of `data`, in the given order.
    pub fn from_rows(data: &Embeddings, rows: &[usize]) -> Result<Self> {
        let mut out = SparseRows::new(data.dim());
        for &r in rows {
            if r >= data.len() {
                return Err(EmError::IndexOutOfBounds {
                    context: "SparseRows::from_rows".into(),
                    index: r,
                    len: data.len(),
                });
            }
            out.push_dense(data.row(r))?;
        }
        Ok(out)
    }

    /// Remove every row, keeping the width and the allocations (a
    /// training loop reuses one batch across steps).
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.indices.clear();
        self.values.clear();
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored nonzeros over all rows.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The rows written densely into `out` (`len × dim`, row-major),
    /// replacing its contents; dropped zeros come back as `+0`.
    pub fn to_dense(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.len() * self.dim, 0.0);
        for r in 0..self.len() {
            let (idx, val) = self.row(r);
            let dst = &mut out[r * self.dim..(r + 1) * self.dim];
            for (&i, &v) in idx.iter().zip(val) {
                dst[i] = v;
            }
        }
    }

    /// Row `r` as `(column indices, values)`.
    ///
    /// # Panics
    /// If `r >= self.len()`.
    pub fn row(&self, r: usize) -> (&[usize], &[f32]) {
        let range = self.offsets[r]..self.offsets[r + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Append a dense row, keeping its nonzero entries.
    pub fn push_dense(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.dim {
            return Err(EmError::DimensionMismatch {
                context: "SparseRows::push_dense".into(),
                expected: self.dim,
                actual: row.len(),
            });
        }
        for (i, &x) in row.iter().enumerate() {
            if x != 0.0 {
                self.indices.push(i);
                self.values.push(x);
            }
        }
        self.offsets.push(self.values.len());
        Ok(())
    }

    /// Append row `r` of `other` (same width).
    pub fn push_row_of(&mut self, other: &SparseRows, r: usize) -> Result<()> {
        if other.dim != self.dim {
            return Err(EmError::DimensionMismatch {
                context: "SparseRows::push_row_of".into(),
                expected: self.dim,
                actual: other.dim,
            });
        }
        if r >= other.len() {
            return Err(EmError::IndexOutOfBounds {
                context: "SparseRows::push_row_of".into(),
                index: r,
                len: other.len(),
            });
        }
        let (idx, val) = other.row(r);
        self.indices.extend_from_slice(idx);
        self.values.extend_from_slice(val);
        self.offsets.push(self.values.len());
        Ok(())
    }
}

/// Reusable scratch of [`sparse_gemm_bias_relu`]: one accumulator row
/// per slot, and the current row's nonzeros bucketed by slot.
#[derive(Debug, Clone, Default)]
pub struct SparseScratch {
    slots: Vec<f32>,
    bucket: Vec<(usize, f32)>,
}

impl SparseScratch {
    /// Empty scratch; sized by the first call.
    pub fn new() -> Self {
        SparseScratch::default()
    }
}

/// Sparse-input layer product with bias and optional ReLU:
/// `out[r·n + j] = act(dot(x_r, w_j) + bias[j])`, where `w_j` is column
/// `j` of the input-major weight matrix `wt` (`x.dim() × n`, row-major)
/// and `act` is `max(0, ·)` when `relu` is set.
///
/// Bit-identical to [`gemm_bias_relu`](crate::kernel::gemm_bias_relu)
/// over the densified rows and the output-major weights `wtᵀ`, on the
/// dispatched tier (see the module docs for the argument and its
/// preconditions).
///
/// Per row, the nonzeros are bucketed by slot; each touched slot is
/// accumulated `PANEL` outputs at a time in registers and stored once;
/// then the touched slots are reduced in the tier's order, with
/// untouched slots (exact `+0` in the dense kernel) left out.
pub fn sparse_gemm_bias_relu(
    x: &SparseRows,
    wt: &[f32],
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
    scratch: &mut SparseScratch,
) {
    // Hard asserts, matching the dense kernels' contract on shapes.
    assert_eq!(wt.len(), x.dim() * n);
    assert_eq!(bias.len(), n);
    assert_eq!(out.len(), x.len() * n);
    // Touched slots are written before they are read, so stale values
    // from earlier rows or calls never leak into a result.
    scratch.slots.resize(WIDE_SLOTS * n, 0.0);
    match simd_tier() {
        SimdTier::Portable => sparse_rows::<false>(x, wt, n, bias, relu, out, scratch),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 tier is only ever produced by kernel dispatch
        // (or clamped to it), which checks `avx2` at runtime.
        SimdTier::Avx2 => unsafe { sparse_rows_avx2(x, wt, n, bias, relu, out, scratch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx512 tier is only ever produced by kernel
        // dispatch (or clamped to it), which checks `avx512f` at runtime.
        SimdTier::Avx512 => unsafe { sparse_rows_avx512(x, wt, n, bias, relu, out, scratch) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdTier::Avx2 | SimdTier::Avx512 => {
            sparse_rows::<false>(x, wt, n, bias, relu, out, scratch)
        }
    }
}

/// Accumulator slots of the widest (AVX-512) layout.
const WIDE_SLOTS: usize = 64;

/// Outputs accumulated in registers at once: two zmm, four ymm or eight
/// xmm registers.
const PANEL: usize = 32;

/// The portable recipe compiled with AVX2 enabled (same arithmetic —
/// Rust never contracts a multiply and an add into an FMA).
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sparse_rows_avx2(
    x: &SparseRows,
    wt: &[f32],
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
    scratch: &mut SparseScratch,
) {
    sparse_rows::<false>(x, wt, n, bias, relu, out, scratch)
}

/// The AVX-512 recipe: `f32::mul_add` lowers to `vfmadd` here.
///
/// # Safety
/// Requires the `avx512f` CPU feature (which implies `fma`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sparse_rows_avx512(
    x: &SparseRows,
    wt: &[f32],
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
    scratch: &mut SparseScratch,
) {
    sparse_rows::<true>(x, wt, n, bias, relu, out, scratch)
}

/// `acc += v·w` elementwise, with the tier's fold: one FMA when `FMA`,
/// else a rounded product then a rounded add.
#[inline(always)]
fn fold<const FMA: bool>(acc: &mut [f32], v: f32, w: &[f32]) {
    if FMA {
        for (a, &wj) in acc.iter_mut().zip(w) {
            *a = v.mul_add(wj, *a);
        }
    } else {
        for (a, &wj) in acc.iter_mut().zip(w) {
            *a += v * wj;
        }
    }
}

/// Outputs `o..o + W` of one slot's accumulator row, accumulated in
/// registers and stored once.
#[inline(always)]
fn panel<const FMA: bool, const W: usize>(
    entries: &[(usize, f32)],
    wt: &[f32],
    n: usize,
    o: usize,
    dst: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for &(i, v) in entries {
        fold::<FMA>(&mut acc, v, &wt[i * n + o..i * n + o + W]);
    }
    dst[o..o + W].copy_from_slice(&acc);
}

/// One slot's accumulator row: its entries folded in ascending index
/// order into `+0`, `PANEL` outputs at a time in registers.
#[inline(always)]
fn accumulate_slot<const FMA: bool>(
    entries: &[(usize, f32)],
    wt: &[f32],
    n: usize,
    dst: &mut [f32],
) {
    let mut o = 0;
    while o + 2 * PANEL <= n {
        panel::<FMA, { 2 * PANEL }>(entries, wt, n, o, dst);
        o += 2 * PANEL;
    }
    if o + PANEL <= n {
        panel::<FMA, PANEL>(entries, wt, n, o, dst);
        o += PANEL;
    }
    if o < n {
        let rest = &mut dst[o..n];
        rest.fill(0.0);
        for &(i, v) in entries {
            fold::<FMA>(rest, v, &wt[i * n + o..(i + 1) * n]);
        }
    }
}

/// One reduction-tree node over slot rows, `slot[dst] + slot[src]`
/// (`dst < src`), with an absent operand as the identity: both present
/// → add in place; only `src` → copy; otherwise nothing. `present`
/// tracks which slots hold a value.
#[inline(always)]
fn node(slots: &mut [f32], n: usize, dst: usize, src: usize, present: &mut u64) {
    if *present & (1 << src) == 0 {
        return;
    }
    let (head, tail) = slots.split_at_mut(src * n);
    let (d, s) = (&mut head[dst * n..(dst + 1) * n], &tail[..n]);
    if *present & (1 << dst) != 0 {
        for (a, &b) in d.iter_mut().zip(s) {
            *a += b;
        }
    } else {
        d.copy_from_slice(s);
        *present |= 1 << dst;
    }
}

/// The per-tier body: `FMA` selects the AVX-512 slot layout, fold and
/// reduction tree; otherwise the 16-lane Portable/AVX2 recipe.
#[inline(always)]
fn sparse_rows<const FMA: bool>(
    x: &SparseRows,
    wt: &[f32],
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
    scratch: &mut SparseScratch,
) {
    let (n_slots, step) = if FMA { (WIDE_SLOTS, 32) } else { (16, 16) };
    let main_len = x.dim() / step * step;
    let SparseScratch { slots, bucket } = scratch;
    for r in 0..x.len() {
        let (idx, val) = x.row(r);
        let split = idx.partition_point(|&i| i < main_len);
        // Counting sort of the main-section nonzeros by slot; within a
        // slot they stay in ascending index order.
        let mut starts = [0usize; WIDE_SLOTS + 1];
        for &i in &idx[..split] {
            starts[i % n_slots + 1] += 1;
        }
        let mut touched = 0u64;
        for s in 0..n_slots {
            if starts[s + 1] > 0 {
                touched |= 1 << s;
            }
            starts[s + 1] += starts[s];
        }
        bucket.clear();
        bucket.resize(split, (0, 0.0));
        let mut fill = starts;
        for (&i, &v) in idx[..split].iter().zip(&val[..split]) {
            let s = i % n_slots;
            bucket[fill[s]] = (i, v);
            fill[s] += 1;
        }
        let mut pending = touched;
        while pending != 0 {
            let s = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            accumulate_slot::<FMA>(
                &bucket[starts[s]..starts[s + 1]],
                wt,
                n,
                &mut slots[s * n..(s + 1) * n],
            );
        }
        // Reduce into slot 0.
        let mut present = touched;
        if FMA {
            // Per lane: (chain0 + chain1) + (chain2 + chain3) ...
            for l in 0..16 {
                node(slots, n, l, 16 + l, &mut present);
                node(slots, n, 32 + l, 48 + l, &mut present);
                node(slots, n, l, 32 + l, &mut present);
            }
            // ... quarters (q0 + q1) + (q2 + q3) lane-wise ...
            for j in 0..4 {
                node(slots, n, j, 4 + j, &mut present);
                node(slots, n, 8 + j, 12 + j, &mut present);
                node(slots, n, j, 8 + j, &mut present);
            }
            // ... then the quarter's four lanes in ascending order.
            for j in 1..4 {
                node(slots, n, 0, j, &mut present);
            }
        } else {
            // Lanes ascending into the running sum.
            for l in 1..16 {
                node(slots, n, 0, l, &mut present);
            }
        }
        let row_out = &mut out[r * n..(r + 1) * n];
        if present & 1 != 0 {
            row_out.copy_from_slice(&slots[..n]);
        } else {
            row_out.fill(0.0);
        }
        for (&i, &v) in idx[split..].iter().zip(&val[split..]) {
            fold::<FMA>(row_out, v, &wt[i * n..(i + 1) * n]);
        }
        for (o, &b) in row_out.iter_mut().zip(bias) {
            *o += b;
            if relu {
                *o = o.max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{gemm_bias_relu, transpose, with_simd_tier};
    use em_core::Rng;

    /// `rows × k` inputs where each entry is nonzero with probability
    /// `density`; row 0 is left all-zero.
    fn sparse_inputs(rows: usize, k: usize, density: f64, rng: &mut Rng) -> Vec<f32> {
        let mut xs = vec![0.0f32; rows * k];
        for (i, x) in xs.iter_mut().enumerate().skip(k) {
            if rng.f64() < density {
                *x = rng.normal() as f32;
            }
            // Negative zeros must behave like zeros.
            if i % 37 == 0 {
                *x = -0.0;
            }
        }
        xs
    }

    /// The rows as one dense row-major buffer (`len × dim`).
    fn to_dense(rows: &SparseRows) -> Vec<f32> {
        let mut out = Vec::new();
        rows.to_dense(&mut out);
        out
    }

    #[test]
    fn sparse_rows_keep_exact_nonzeros() {
        let mut rows = SparseRows::new(20);
        rows.push_dense(&[0.0; 20]).unwrap();
        let mut dense = [0.0f32; 20];
        dense[3] = 1.5;
        dense[16] = -2.0;
        dense[17] = -0.0;
        dense[19] = f32::NAN;
        rows.push_dense(&dense).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.nnz(), 3);
        assert_eq!(rows.row(0).0, &[] as &[usize]);
        assert_eq!(rows.row(1).0, &[3, 16, 19]);
        assert_eq!(&rows.row(1).1[..2], &[1.5, -2.0]);
        assert!(rows.row(1).1[2].is_nan());
        let back = to_dense(&rows);
        assert_eq!(back[20 + 3], 1.5);
        assert_eq!(back[20 + 17].to_bits(), 0.0f32.to_bits());
        // Shape errors are structured.
        assert!(rows.push_dense(&[1.0; 3]).is_err());
        let mut copy = SparseRows::new(20);
        copy.push_row_of(&rows, 1).unwrap();
        assert_eq!(copy.row(0).0, rows.row(1).0);
        assert_eq!(copy.row(0).1[..2], rows.row(1).1[..2]);
        assert!(copy.push_row_of(&rows, 2).is_err());
        assert!(SparseRows::new(4).push_row_of(&rows, 0).is_err());
        copy.clear();
        assert!(copy.is_empty());
        assert_eq!((copy.dim(), copy.nnz()), (20, 0));
    }

    #[test]
    fn from_rows_gathers_in_order_and_checks_bounds() {
        let data = Embeddings::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
        let rows = SparseRows::from_rows(&data, &[1, 0, 1]).unwrap();
        assert_eq!(to_dense(&rows), vec![2.0, 0.0, 0.0, 1.0, 2.0, 0.0]);
        assert!(SparseRows::from_rows(&data, &[2]).is_err());
    }

    #[test]
    fn sparse_layer_bit_identical_to_dense_gemm_on_every_tier() {
        let mut rng = Rng::seed_from_u64(90);
        // Widths straddle both step sizes (16 and 32) and the 64-slot
        // period, including remainders; 848 is the matcher's width.
        for &k in &[1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 848] {
            for &n in &[1usize, 7, 16, 96] {
                for &density in &[0.0, 0.05, 0.3, 1.0] {
                    let rows = 9;
                    let xs = sparse_inputs(rows, k, density, &mut rng);
                    let wt: Vec<f32> = (0..k * n).map(|_| rng.normal() as f32).collect();
                    let bias: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
                    let mut w = vec![0.0f32; k * n];
                    transpose(&wt, k, n, &mut w);
                    let mut scratch = SparseScratch::new();
                    let mut sparse = SparseRows::new(k);
                    for r in 0..rows {
                        sparse.push_dense(&xs[r * k..(r + 1) * k]).unwrap();
                    }
                    for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
                        for relu in [false, true] {
                            with_simd_tier(tier, || {
                                let mut dense = vec![0.0f32; rows * n];
                                gemm_bias_relu(&xs, rows, &w, n, k, &bias, relu, &mut dense);
                                let mut got = vec![0.0f32; rows * n];
                                sparse_gemm_bias_relu(
                                    &sparse,
                                    &wt,
                                    n,
                                    &bias,
                                    relu,
                                    &mut got,
                                    &mut scratch,
                                );
                                for (e, (a, b)) in got.iter().zip(&dense).enumerate() {
                                    assert_eq!(
                                        a.to_bits(),
                                        b.to_bits(),
                                        "tier {} k {k} n {n} density {density} relu {relu} \
                                         entry {e}: {a} vs {b}",
                                        simd_tier().name()
                                    );
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let x = SparseRows::new(5);
        let mut out = Vec::new();
        sparse_gemm_bias_relu(
            &x,
            &[0.5; 10],
            2,
            &[0.0; 2],
            true,
            &mut out,
            &mut SparseScratch::new(),
        );
        assert!(out.is_empty());
    }
}
