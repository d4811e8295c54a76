//! Row-major embedding storage and the basic vector kernels.
//!
//! Pair representations pooled from the matcher (the paper's `[CLS]`
//! embeddings, §3.2) are stored contiguously: row `i` is the vector of
//! pair `i`. Contiguous storage keeps the all-pairs similarity loops of
//! graph construction cache-friendly.

use em_core::{EmError, Result};

/// Dot product of two equal-length slices.
///
/// 16 independent accumulator lanes over `chunks_exact(16)`: the
/// iterator form eliminates bounds checks so LLVM reliably
/// autovectorizes (measured ~4× over the previous indexed 4-lane
/// unroll, which did not vectorize), and the fixed lane structure plus
/// fixed final reduction order make the result bit-deterministic on any
/// SIMD width — 16 lanes map onto 4×SSE, 2×AVX or 1×AVX-512 registers
/// with identical per-lane arithmetic.
///
/// This is the one similarity kernel of the workspace: the scalar
/// search paths, the blocked Gram kernels and the graph builders all
/// call it, so their results are mutually bit-compatible.
///
/// # Panics
///
/// If the slices differ in length, in every build profile.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    // Hard assert, as in `dot_with_tier`: the remainder loop would pair
    // the shorter slice's tail with the wrong elements of the longer one.
    assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 16];
    let ca = a.chunks_exact(16);
    let cb = b.chunks_exact(16);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..16 {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut sum = 0.0;
    for lane in acc {
        sum += lane;
    }
    for (x, y) in ra.iter().zip(rb) {
        sum += x * y;
    }
    sum
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in `[-1, 1]`; zero vectors yield 0.
///
/// # Panics
///
/// If the slices differ in length, zero vectors included.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Normalize in place to unit norm (no-op for the zero vector).
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a {
            *x /= n;
        }
    }
}

/// Squared Euclidean distance.
///
/// # Panics
///
/// If the slices differ in length (the extra elements would otherwise
/// be ignored).
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut sum = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// A dense row-major matrix of `n` vectors of dimension `dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Embeddings {
    dim: usize,
    data: Vec<f32>,
}

impl Embeddings {
    /// Empty collection of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(EmError::InvalidConfig("embedding dim must be > 0".into()));
        }
        Ok(Embeddings {
            dim,
            data: Vec::new(),
        })
    }

    /// Build from a flat row-major buffer. `data.len()` must be a multiple
    /// of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 {
            return Err(EmError::InvalidConfig("embedding dim must be > 0".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(EmError::DimensionMismatch {
                context: "flat embedding buffer".into(),
                expected: dim,
                actual: data.len() % dim,
            });
        }
        Ok(Embeddings { dim, data })
    }

    /// Build from row vectors; all rows must share one dimension.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let dim = rows
            .first()
            .map(Vec::len)
            .ok_or_else(|| EmError::EmptyInput("embedding rows".into()))?;
        let mut e = Embeddings::new(dim)?;
        for r in rows {
            e.push(r)?;
        }
        Ok(e)
    }

    /// Vector dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` iff no vectors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drop every stored vector, keeping the allocation (and `dim`) for
    /// reuse — the backing store for per-session scratch matrices that
    /// are rebuilt every iteration at roughly the same size.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Append one vector.
    pub fn push(&mut self, v: &[f32]) -> Result<()> {
        if v.len() != self.dim {
            return Err(EmError::DimensionMismatch {
                context: "Embeddings::push".into(),
                expected: self.dim,
                actual: v.len(),
            });
        }
        self.data.extend_from_slice(v);
        Ok(())
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Cosine similarity of rows `i` and `j`.
    #[inline]
    pub fn cosine(&self, i: usize, j: usize) -> f32 {
        cosine(self.row(i), self.row(j))
    }

    /// Normalize every row to unit norm, enabling dot-product == cosine.
    pub fn normalize_rows(&mut self) {
        for i in 0..self.len() {
            let start = i * self.dim;
            normalize(&mut self.data[start..start + self.dim]);
        }
    }

    /// Gather a subset of rows into a new `Embeddings` (row `k` of the
    /// output is row `idxs[k]` of the input).
    pub fn gather(&self, idxs: &[usize]) -> Result<Embeddings> {
        let mut out = Embeddings::new(self.dim)?;
        out.data.reserve(idxs.len() * self.dim);
        for &i in idxs {
            if i >= self.len() {
                return Err(EmError::IndexOutOfBounds {
                    context: "Embeddings::gather".into(),
                    index: i,
                    len: self.len(),
                });
            }
            out.data.extend_from_slice(self.row(i));
        }
        Ok(out)
    }

    /// Mean vector of all rows (error when empty).
    pub fn centroid(&self) -> Result<Vec<f32>> {
        if self.is_empty() {
            return Err(EmError::EmptyInput("embeddings for centroid".into()));
        }
        let mut c = vec![0.0f32; self.dim];
        for i in 0..self.len() {
            for (acc, &x) in c.iter_mut().zip(self.row(i)) {
                *acc += x;
            }
        }
        let n = self.len() as f32;
        for x in &mut c {
            *x /= n;
        }
        Ok(c)
    }

    /// Immutable view of the flat buffer.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        // length > 4 exercises the unrolled tail
        let a = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &a), 6.0);
    }

    #[test]
    fn cosine_known_values() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [0.3, -0.7, 0.2];
        let b = [1.5, 0.4, -0.9];
        let scaled: Vec<f32> = b.iter().map(|x| x * 42.0).collect();
        assert!((cosine(&a, &b) - cosine(&a, &scaled)).abs() < 1e-6);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn embeddings_push_and_row() {
        let mut e = Embeddings::new(3).unwrap();
        e.push(&[1.0, 2.0, 3.0]).unwrap();
        e.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.row(1), &[4.0, 5.0, 6.0]);
        assert!(e.push(&[1.0]).is_err());
    }

    #[test]
    fn from_flat_validates() {
        assert!(Embeddings::from_flat(0, vec![]).is_err());
        assert!(Embeddings::from_flat(3, vec![1.0; 4]).is_err());
        let e = Embeddings::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn from_rows_and_gather() {
        let e = Embeddings::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let g = e.gather(&[2, 0]).unwrap();
        assert_eq!(g.row(0), &[1.0, 1.0]);
        assert_eq!(g.row(1), &[1.0, 0.0]);
        assert!(e.gather(&[5]).is_err());
    }

    #[test]
    fn centroid_is_mean() {
        let e = Embeddings::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(e.centroid().unwrap(), vec![1.0, 2.0]);
        assert!(Embeddings::new(2).unwrap().centroid().is_err());
    }

    #[test]
    fn normalize_rows_enables_dot_as_cosine() {
        let mut e = Embeddings::from_rows(&[vec![3.0, 4.0], vec![5.0, 12.0]]).unwrap();
        let expected = e.cosine(0, 1);
        e.normalize_rows();
        let got = dot(e.row(0), e.row(1));
        assert!((expected - got).abs() < 1e-6);
    }

    #[test]
    fn sq_euclidean_known() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    // Lengths past one 16-lane block, so a release build would otherwise
    // reach the remainder loop with mismatched tails.
    #[test]
    #[should_panic]
    fn dot_rejects_slices_of_different_lengths() {
        dot(&[1.0; 17], &[1.0; 18]);
    }

    #[test]
    #[should_panic]
    fn cosine_rejects_slices_of_different_lengths() {
        // A zero vector returns early, after the length check.
        cosine(&[0.0; 17], &[1.0; 18]);
    }

    #[test]
    #[should_panic]
    fn sq_euclidean_rejects_slices_of_different_lengths() {
        sq_euclidean(&[1.0; 2], &[1.0; 3]);
    }
}
