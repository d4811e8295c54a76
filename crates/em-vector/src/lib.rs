//! # em-vector
//!
//! Vector-space substrate for the `battleship-em` workspace.
//!
//! The battleship algorithm lives in the latent space of pair
//! representations: it measures cosine similarities, finds nearest
//! neighbours inside clusters (the paper uses FAISS for this, §4.2), and
//! visualizes the space with t-SNE (Figure 1). This crate provides all of
//! that from scratch:
//!
//! * [`Embeddings`] — a row-major matrix of `f32` vectors with the basic
//!   linear-algebra kernels (dot, norm, cosine),
//! * [`knn`] — exact top-k cosine search (the FAISS `IndexFlatIP`
//!   equivalent), the oracle that HNSW recall is checked against,
//! * [`kernel`] — the blocked compute kernels behind the spatial
//!   pipeline and the matcher's GEMM engine: cache-tiled Gram matrices
//!   (in-cluster neighbours are read off a cluster's Gram rows) and
//!   `A·Bᵀ` products (with fused bias+ReLU), and unrolled squared
//!   distances, parallelized with rayon and
//!   runtime-dispatched to AVX2 where available (bit-identical across
//!   tiers — see the module docs),
//! * [`elementwise`] — the matcher's training loops (the AdamW update,
//!   `y += a·x`, `y *= a`) compiled per tier behind [`Elementwise`];
//!   with no reduction and no FMA they are bit-identical on every tier,
//!   AVX-512 included,
//! * [`sparse`] — [`SparseRows`] (compressed sparse rows) and the
//!   sparse-input layer product behind the matcher's first layer,
//!   bit-identical to the dense fused GEMM on every tier,
//! * [`lsh`] — random-hyperplane (SimHash) signatures, the bucket keys
//!   of the blocking tier's LSH candidate extraction, and
//! * [`hnsw`] — a hierarchical navigable small world index; LSH and HNSW
//!   implement the approximate-search future work the paper names in §5.2,
//! * [`policy`] — the [`AnnPolicy`] exact ↔ HNSW routing policy shared by
//!   every stage that has both an exact kernel and an ANN variant
//!   (graph edges, k-selection, constrained assignment), with the
//!   crossover default cited from the measured BENCH_blocking.json sweep,
//! * [`pca`] — principal component analysis by power iteration (used to
//!   initialize t-SNE, as is standard practice),
//! * [`tsne`] — exact O(n²) t-SNE with perplexity calibration and early
//!   exaggeration, sufficient for the benchmark-sized pair sets of
//!   Figure 1.

pub mod elementwise;
pub mod embeddings;
pub mod hnsw;
pub mod kernel;
pub mod knn;
pub mod lsh;
pub mod pca;
pub mod policy;
pub mod sparse;
pub mod tsne;

pub use elementwise::{AdamWScalars, Elementwise};
pub use embeddings::{cosine, dot, norm, normalize, Embeddings};
pub use hnsw::{Hnsw, HnswConfig, HnswScratch};
pub use kernel::{
    gemm, gemm_bias_relu, gram_packed, pack_rows, simd_tier, sq_dist, sq_dist_batch,
    sq_dist_with_tier, transpose, ulp_diff, with_simd_tier, SimdTier,
};
pub use knn::{top_k, Neighbor};
pub use lsh::{sample_planes, signature_of, signatures, MAX_SIGNATURE_BITS};
pub use pca::Pca;
pub use policy::{AnnPolicy, DEFAULT_ANN_THRESHOLD};
pub use sparse::{sparse_gemm_bias_relu, SparseRows, SparseScratch};
pub use tsne::{Tsne, TsneConfig};
