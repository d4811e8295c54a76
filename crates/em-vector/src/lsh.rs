//! Random-hyperplane locality-sensitive hashing for cosine similarity.
//!
//! The paper's §5.2 names LSH (Gionis et al.) as a future-work route to
//! cut the nearest-neighbour cost of graph construction. This module
//! implements the signature half of the classic SimHash family: a vector
//! hashes to the sign pattern of `n_bits` random hyperplane projections,
//! so vectors at a small angle agree on most bits.
//!
//! The blocking tier (`battleship::blocking`) is the consumer: it samples
//! one plane set per band ([`sample_planes`]), computes per-band
//! signatures over record feature vectors ([`signatures`], rayon-chunked
//! over the [`kernel::dot`](crate::kernel::dot) path) and buckets records
//! by signature to extract candidate pairs.

use rayon::prelude::*;

use em_core::{EmError, Result, Rng};

use crate::embeddings::Embeddings;

/// Widest supported signature: bucket keys are `u64`, one bit per
/// hyperplane.
pub const MAX_SIGNATURE_BITS: usize = 64;

/// Sample `n_bits` hyperplane normals of dimension `dim` from `rng`,
/// concatenated row-major (`n_bits * dim` floats).
///
/// Draw order is bit-major (all of plane 0, then plane 1, …), so a given
/// `(seed, n_bits, dim)` always yields the same planes regardless of how
/// the signatures are later computed.
pub fn sample_planes(n_bits: usize, dim: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n_bits * dim).map(|_| rng.normal() as f32).collect()
}

/// The sign signature of one vector against `n_bits` planes: bit `b` is
/// set iff `dot(planes[b], v) >= 0`.
#[inline]
pub fn signature_of(v: &[f32], planes: &[f32], n_bits: usize) -> u64 {
    debug_assert!(n_bits <= MAX_SIGNATURE_BITS);
    let dim = v.len();
    let mut sig = 0u64;
    for b in 0..n_bits {
        let plane = &planes[b * dim..(b + 1) * dim];
        if crate::kernel::dot(plane, v) >= 0.0 {
            sig |= 1u64 << b;
        }
    }
    sig
}

/// Per-row bit signatures of every row of `data`, computed in parallel.
///
/// Rows are fanned out over rayon in contiguous chunks and reassembled
/// in row order; each projection is one [`kernel::dot`](crate::kernel::dot)
/// call, so the output is bit-identical for any worker-thread count.
pub fn signatures(data: &Embeddings, planes: &[f32], n_bits: usize) -> Result<Vec<u64>> {
    if n_bits == 0 || n_bits > MAX_SIGNATURE_BITS {
        return Err(EmError::InvalidConfig(format!(
            "signature bits must be in 1..={MAX_SIGNATURE_BITS}, got {n_bits}"
        )));
    }
    if planes.len() != n_bits * data.dim() {
        return Err(EmError::DimensionMismatch {
            context: "LSH hyperplanes".into(),
            expected: n_bits * data.dim(),
            actual: planes.len(),
        });
    }
    Ok((0..data.len())
        .into_par_iter()
        .map(|i| signature_of(data.row(i), planes, n_bits))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_data(n_per: usize) -> Embeddings {
        // Two tight clusters on the unit circle, far apart.
        let mut rng = Rng::seed_from_u64(77);
        let mut rows = Vec::new();
        for c in 0..2 {
            let center = if c == 0 { 0.0f64 } else { std::f64::consts::PI };
            for _ in 0..n_per {
                let angle = center + rng.normal() * 0.05;
                rows.push(vec![angle.cos() as f32, angle.sin() as f32]);
            }
        }
        Embeddings::from_rows(&rows).unwrap()
    }

    #[test]
    fn full_width_64_bit_signatures_work() {
        // The u64 bucket-key boundary: 64 planes must produce signatures
        // that exercise the top bit range and stay deterministic. (The
        // former 32-bit cap was an artifact of the old `u32` key type.)
        let e = clustered_data(20);
        let planes = sample_planes(64, e.dim(), &mut Rng::seed_from_u64(9));
        let sigs = signatures(&e, &planes, 64).unwrap();
        assert_eq!(sigs, signatures(&e, &planes, 64).unwrap());
        // Bits above the old 32-bit cap must actually be populated.
        assert!(
            sigs.iter().any(|&s| s >> 32 != 0),
            "no signature used the high 32 bits"
        );
    }

    #[test]
    fn signatures_match_scalar_and_any_thread_count() {
        let e = clustered_data(40);
        let mut rng = Rng::seed_from_u64(3);
        let planes = sample_planes(16, e.dim(), &mut rng);
        let par = signatures(&e, &planes, 16).unwrap();
        let serial = rayon::serial_scope(|| signatures(&e, &planes, 16).unwrap());
        let scalar: Vec<u64> = (0..e.len())
            .map(|i| signature_of(e.row(i), &planes, 16))
            .collect();
        assert_eq!(par, serial);
        assert_eq!(par, scalar);
    }

    #[test]
    fn signatures_validate_inputs() {
        let e = clustered_data(4);
        let planes = vec![0.0f32; 2 * e.dim()];
        assert!(signatures(&e, &planes, 3).is_err(), "plane count mismatch");
        assert!(signatures(&e, &planes, 0).is_err());
        let wide = vec![0.0f32; 65 * e.dim()];
        assert!(signatures(&e, &wide, 65).is_err());
    }

    /// Bucket keys of `data` under one `n_bits`-plane set drawn from
    /// `seed`.
    fn band(data: &Embeddings, n_bits: usize, seed: u64) -> Vec<u64> {
        let planes = sample_planes(n_bits, data.dim(), &mut Rng::seed_from_u64(seed));
        signatures(data, &planes, n_bits).unwrap()
    }

    #[test]
    fn candidates_find_own_cluster() {
        // Candidates of row 0 are the rows sharing its bucket in at least
        // one of 8 bands: most of its own cluster, none of the other.
        let e = clustered_data(30);
        let mut cands = vec![false; e.len()];
        for seed in 0..8 {
            let sigs = band(&e, 12, 0x15AC + seed);
            for (i, &s) in sigs.iter().enumerate() {
                cands[i] |= s == sigs[0];
            }
        }
        let in_cluster0 = cands[..30].iter().filter(|&&c| c).count();
        assert!(in_cluster0 >= 25, "found only {in_cluster0} of 30");
        assert!(cands[30..].iter().all(|&c| !c), "cross-cluster candidate");
    }

    #[test]
    fn deterministic_given_seed() {
        let e = clustered_data(20);
        assert_eq!(band(&e, 12, 0x15AC), band(&e, 12, 0x15AC));
        assert_ne!(band(&e, 12, 0x15AC), band(&e, 12, 0x15AD));
    }
}
