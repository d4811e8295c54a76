//! The cluster → graph → connected-components pipeline (§3.3).
//!
//! [`SpatialIndex::build`] turns a set of pair representations into the
//! paper's spatial structure: constrained K-Means clusters (k chosen by
//! Kneedle with silhouette fallback), a pair graph with q-NN plus
//! top-ratio edges, and its connected components. The battleship
//! strategy builds three of these per iteration — over the
//! match-predicted pool (`G⁺`), the non-match-predicted pool (`G⁻`) and
//! the full heterogeneous set (`G`) — and the weak-supervision component
//! reuses them.

use em_cluster::{constrained_kmeans, select_k, ConstrainedConfig, KSelectConfig};
use em_core::{EmError, Result, Rng};
use em_graph::{
    build_graph_blocked, connected_components, BlockedConfig, EdgeConfig, NodeKind, PairGraph,
};
use em_vector::{AnnPolicy, Embeddings};

/// Parameters of the spatial pipeline (a projection of
/// [`crate::BattleshipParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialParams {
    /// q-NN edges per node.
    pub q: usize,
    /// Extra-edge ratio.
    pub extra_ratio: f64,
    /// Min cluster size fraction.
    pub cluster_min_frac: f64,
    /// Max cluster size fraction.
    pub cluster_max_frac: f64,
    /// Sample cap for the k-selection sweep.
    pub kselect_sample: usize,
    /// Exact ↔ ANN routing for every stage with an HNSW variant: edge
    /// creation ([`em_graph::build_graph_blocked`]), the k-selection
    /// silhouette fallback and the constrained assignment step all
    /// consult this one policy.
    pub ann: AnnPolicy,
    /// Seed for clustering and sweep sampling.
    pub seed: u64,
}

impl From<(&crate::config::BattleshipParams, u64)> for SpatialParams {
    fn from((p, seed): (&crate::config::BattleshipParams, u64)) -> Self {
        SpatialParams {
            q: p.q,
            extra_ratio: p.extra_ratio,
            cluster_min_frac: p.cluster_min_frac,
            cluster_max_frac: p.cluster_max_frac,
            kselect_sample: p.kselect_sample,
            ann: p.ann_policy(),
            seed,
        }
    }
}

/// The spatial structure over one node set.
pub struct SpatialIndex {
    /// The pair graph (node `i` = row `i` of the input embeddings).
    pub graph: PairGraph,
    /// Connected components (sorted node lists).
    pub components: Vec<Vec<usize>>,
    /// Cluster assignment per node.
    pub clusters: Vec<usize>,
    /// The `k` used for clustering (1 when the node set was too small to
    /// cluster).
    pub k: usize,
}

impl SpatialIndex {
    /// Build the spatial structure over `reprs` (which this function
    /// L2-normalizes into a working copy for cosine-as-dot similarity).
    ///
    /// `kinds[i]`/`confidences[i]` describe node `i` per §3.3.3. Callers
    /// that already hold unit-norm rows — the battleship strategy
    /// normalizes the pool representations **once per iteration** and
    /// builds all three indexes (`G⁺`, `G⁻`, `G`) from views of that
    /// matrix — should use [`SpatialIndex::build_normalized`] and skip
    /// this copy.
    pub fn build(
        reprs: &Embeddings,
        kinds: &[NodeKind],
        confidences: &[f32],
        params: &SpatialParams,
    ) -> Result<Self> {
        let mut normalized = reprs.clone();
        normalized.normalize_rows();
        Self::build_normalized(&normalized, kinds, confidences, params)
    }

    /// Build the spatial structure over rows the caller has already
    /// L2-normalized. No copy of the embedding matrix is made.
    ///
    /// This is the blocked/parallel pipeline: the k sweep runs its
    /// candidate K-Means in parallel, the constrained assignment reads
    /// one blocked distance matrix per Lloyd iteration, and edge
    /// creation computes each cluster's Gram matrix once
    /// ([`em_graph::build_graph_blocked`]), processing clusters in
    /// parallel. All reductions are fixed-order, so the result is
    /// identical for any thread count (golden-tested against
    /// `rayon::serial_scope`). The battleship strategy runs its three
    /// builds inside one `rayon::join` (`G` beside `G⁺` then `G⁻`); a
    /// parallel call nested in a join arm runs inline, so there the
    /// sweep, the assignment and the edge creation each run serially and
    /// the join's two arms fill the cores instead.
    pub fn build_normalized(
        normalized: &Embeddings,
        kinds: &[NodeKind],
        confidences: &[f32],
        params: &SpatialParams,
    ) -> Result<Self> {
        let n = normalized.len();
        Self::validate(n, kinds, confidences)?;

        // --- Cluster. -----------------------------------------------------
        let (clusters, k) = match Self::cluster_plan(n, params)? {
            None => (vec![0usize; n], 1),
            Some((k_min, k_max)) => {
                // Sweep k on a subsample (curve shape is stable), then
                // run the constrained assignment on the full node set.
                // The sweep borrows either the gathered sample or the
                // input itself — the seed implementation cloned the full
                // matrix in the small-n branch.
                let gathered;
                let sweep_data: &Embeddings = if n > params.kselect_sample {
                    let mut rng = Rng::seed_from_u64(params.seed ^ 0x5A5A);
                    let sample = rng.sample_indices(n, params.kselect_sample);
                    gathered = normalized.gather(&sample)?;
                    &gathered
                } else {
                    normalized
                };
                let selection = select_k(sweep_data, Self::kselect_config(k_min, k_max, params))?;
                let config = Self::constrained_config(n, selection.k, params)?;
                let result = constrained_kmeans(normalized, config)?;
                (result.assignment, selection.k)
            }
        };

        // --- Graph + components. -------------------------------------------
        let members = Self::members_of(&clusters, k);
        let graph = build_graph_blocked(
            normalized,
            kinds,
            confidences,
            &members,
            &BlockedConfig::from_policy(
                EdgeConfig {
                    q: params.q,
                    extra_ratio: params.extra_ratio,
                },
                &params.ann,
                params.seed ^ 0xA22_0E55,
            ),
        )?;
        let components = connected_components(&graph);

        Ok(SpatialIndex {
            graph,
            components,
            clusters,
            k,
        })
    }

    fn validate(n: usize, kinds: &[NodeKind], confidences: &[f32]) -> Result<()> {
        if n == 0 {
            return Err(EmError::EmptyInput("spatial index nodes".into()));
        }
        if kinds.len() != n || confidences.len() != n {
            return Err(EmError::DimensionMismatch {
                context: "spatial index kinds/confidences".into(),
                expected: n,
                actual: kinds.len().min(confidences.len()),
            });
        }
        Ok(())
    }

    /// Feasible k range from the size-fraction constraints, or `None`
    /// when the node set is too small to cluster meaningfully:
    /// k·min ≤ n ≤ k·max ⇒ k ∈ [⌈1/max_frac⌉, ⌊1/min_frac⌋]. With the
    /// paper's 0.05–0.15 fractions that is k ∈ [7, 20].
    fn cluster_plan(n: usize, params: &SpatialParams) -> Result<Option<(usize, usize)>> {
        let k_lo = (1.0 / params.cluster_max_frac).ceil() as usize;
        let k_hi = (1.0 / params.cluster_min_frac).floor() as usize;
        if n < k_lo.max(4) * 2 || k_lo + 2 > k_hi.min(n) {
            Ok(None)
        } else {
            Ok(Some((k_lo.max(2), k_hi.min(n))))
        }
    }

    fn kselect_config(k_min: usize, k_max: usize, params: &SpatialParams) -> KSelectConfig {
        KSelectConfig {
            k_min,
            k_max,
            kmeans_iters: 6,
            silhouette_sample: 256,
            seed: params.seed,
            ann: params.ann,
            ..Default::default()
        }
    }

    fn constrained_config(n: usize, k: usize, params: &SpatialParams) -> Result<ConstrainedConfig> {
        let mut config = ConstrainedConfig::from_fractions(
            n,
            k,
            params.cluster_min_frac,
            params.cluster_max_frac,
            params.seed,
        )?;
        // Fraction-derived bounds can be infeasible after flooring on
        // small n; relax toward feasibility rather than failing.
        if config.min_size * k > n {
            config.min_size = n / k;
        }
        if config.max_size * k < n {
            config.max_size = n.div_ceil(k);
        }
        config.ann = params.ann;
        Ok(config)
    }

    fn members_of(clusters: &[usize], k: usize) -> Vec<Vec<usize>> {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &c) in clusters.iter().enumerate() {
            members[c].push(i);
        }
        members
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` iff the index has no nodes (unreachable via `build`).
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> SpatialParams {
        SpatialParams {
            q: 3,
            extra_ratio: 0.03,
            cluster_min_frac: 0.05,
            cluster_max_frac: 0.15,
            kselect_sample: 400,
            ann: AnnPolicy::with_threshold(4096),
            seed,
        }
    }

    fn blobs(n_per: usize, n_blobs: usize, seed: u64) -> Embeddings {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for b in 0..n_blobs {
            let cx = (b % 4) as f32 * 8.0;
            let cy = (b / 4) as f32 * 8.0 + 1.0;
            for _ in 0..n_per {
                rows.push(vec![
                    cx + rng.normal() as f32 * 0.4,
                    cy + rng.normal() as f32 * 0.4,
                    1.0,
                ]);
            }
        }
        Embeddings::from_rows(&rows).unwrap()
    }

    #[test]
    fn builds_on_clustered_data() {
        let data = blobs(30, 8, 1);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedMatch; n];
        let conf = vec![0.9f32; n];
        let idx = SpatialIndex::build(&data, &kinds, &conf, &params(7)).unwrap();
        assert_eq!(idx.len(), n);
        assert!(idx.k >= 7 && idx.k <= 20, "k = {}", idx.k);
        // Every node has at least q neighbours or its whole cluster.
        for v in 0..n {
            assert!(idx.graph.degree(v) >= 1, "isolated node {v}");
        }
        // Components partition nodes.
        let total: usize = idx.components.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        // Components never bridge clusters.
        for comp in &idx.components {
            let c0 = idx.clusters[comp[0]];
            assert!(comp.iter().all(|&v| idx.clusters[v] == c0));
        }
    }

    #[test]
    fn cluster_sizes_respect_fractions() {
        let data = blobs(25, 8, 2);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedNonMatch; n];
        let conf = vec![0.8f32; n];
        let idx = SpatialIndex::build(&data, &kinds, &conf, &params(3)).unwrap();
        if idx.k > 1 {
            let mut sizes = vec![0usize; idx.k];
            for &c in &idx.clusters {
                sizes[c] += 1;
            }
            let min = (n as f64 * 0.05).floor() as usize;
            let max = (n as f64 * 0.15).ceil() as usize + 1;
            for (c, &s) in sizes.iter().enumerate() {
                assert!(
                    s >= min.min(n / idx.k) && s <= max.max(n.div_ceil(idx.k)),
                    "cluster {c} size {s} outside [{min},{max}]"
                );
            }
        }
    }

    #[test]
    fn tiny_node_sets_fall_back_to_single_cluster() {
        let data = blobs(3, 2, 3);
        let kinds = vec![NodeKind::PredictedMatch; 6];
        let conf = vec![0.9f32; 6];
        let idx = SpatialIndex::build(&data, &kinds, &conf, &params(1)).unwrap();
        assert_eq!(idx.k, 1);
        assert!(idx.components.len() <= 6);
    }

    #[test]
    fn heterogeneous_nodes_respect_labeled_exclusion() {
        let data = blobs(10, 2, 4);
        let n = data.len();
        let mut kinds = vec![NodeKind::PredictedMatch; n];
        let mut conf = vec![0.9f32; n];
        // Make half the nodes labeled.
        for i in 0..n / 2 {
            kinds[i] = NodeKind::LabeledMatch;
            conf[i] = 1.0;
        }
        let idx = SpatialIndex::build(&data, &kinds, &conf, &params(5)).unwrap();
        for (u, v, _) in idx.graph.edges() {
            assert!(
                !(kinds[u].is_labeled() && kinds[v].is_labeled()),
                "labeled–labeled edge ({u},{v})"
            );
        }
    }

    #[test]
    fn validates_inputs() {
        let data = blobs(5, 1, 6);
        let kinds = vec![NodeKind::PredictedMatch; 2];
        let conf = vec![0.9f32; 5];
        assert!(SpatialIndex::build(&data, &kinds, &conf, &params(1)).is_err());
        let empty = Embeddings::new(3).unwrap();
        assert!(SpatialIndex::build(&empty, &[], &[], &params(1)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(20, 6, 8);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedMatch; n];
        let conf = vec![0.7f32; n];
        let a = SpatialIndex::build(&data, &kinds, &conf, &params(11)).unwrap();
        let b = SpatialIndex::build(&data, &kinds, &conf, &params(11)).unwrap();
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.components, b.components);
        assert_eq!(a.graph.n_edges(), b.graph.n_edges());
    }

    fn assert_same_index(a: &SpatialIndex, b: &SpatialIndex) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.components, b.components);
        assert_eq!(a.graph.n_edges(), b.graph.n_edges());
        for v in 0..a.len() {
            let na = a.graph.neighbors(v);
            let nb = b.graph.neighbors(v);
            assert_eq!(na.len(), nb.len(), "degree of {v}");
            for (x, y) in na.iter().zip(nb) {
                assert_eq!(x.0, y.0, "neighbour order of {v}");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "weight bits of {v}");
            }
        }
    }

    /// Golden test: the parallel pipeline is bit-identical to its own
    /// serial execution — clusters, components, edges and weights.
    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let data = blobs(25, 8, 21);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedMatch; n];
        let conf = vec![0.85f32; n];
        let par = SpatialIndex::build(&data, &kinds, &conf, &params(13)).unwrap();
        let ser =
            rayon::serial_scope(|| SpatialIndex::build(&data, &kinds, &conf, &params(13)).unwrap());
        assert_same_index(&par, &ser);
    }

    /// `build` (normalizing copy) and `build_normalized` (caller-owned
    /// normalization) must agree exactly — upstream normalization is a
    /// pure refactor, not a behaviour change.
    #[test]
    fn build_equals_build_normalized_on_prenormalized_rows() {
        let data = blobs(20, 6, 31);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedNonMatch; n];
        let conf = vec![0.8f32; n];
        let via_build = SpatialIndex::build(&data, &kinds, &conf, &params(5)).unwrap();
        let mut normalized = data.clone();
        normalized.normalize_rows();
        let via_norm =
            SpatialIndex::build_normalized(&normalized, &kinds, &conf, &params(5)).unwrap();
        assert_same_index(&via_build, &via_norm);
    }

    /// The seed pipeline's edge count on the input of the test below:
    /// `blobs(25, 8, 17)`, every node predicted a match at confidence
    /// 0.9, `params(3)`, which it clustered at k = 13. Measured once at
    /// commit 11539af, the last with the seed's scalar build; that build
    /// was serial and scalar, so host, SIMD tier and thread count do not
    /// enter.
    const SEED_EDGES: usize = 427;

    /// The pipeline is valid and deterministic, and lands an edge
    /// density within ½–2× of the seed pipeline's on the same input.
    #[test]
    fn build_is_deterministic_and_near_the_seed_edge_count() {
        let data = blobs(25, 8, 17);
        let n = data.len();
        let kinds = vec![NodeKind::PredictedMatch; n];
        let conf = vec![0.9f32; n];
        let a = SpatialIndex::build(&data, &kinds, &conf, &params(3)).unwrap();
        let b = SpatialIndex::build(&data, &kinds, &conf, &params(3)).unwrap();
        assert_same_index(&a, &b);
        assert!(a.k >= 7 && a.k <= 20, "k = {}", a.k);
        let total: usize = a.components.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        let (lo, hi) = (SEED_EDGES / 2, SEED_EDGES * 2);
        assert!(
            (lo..=hi).contains(&a.graph.n_edges()),
            "{} edges vs the seed's {SEED_EDGES}",
            a.graph.n_edges()
        );
    }
}
