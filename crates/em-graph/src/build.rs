//! Edge creation (paper §3.3.2).
//!
//! Per cluster, two stages:
//!
//! 1. **q-NN stage** — every node is connected to its `q` most similar
//!    in-cluster peers ("each node shall be connected to a minimal number
//!    of neighbors"); the union over directed selections is undirected
//!    and deduplicated, so central nodes end up with more than `q` edges.
//! 2. **top-ratio stage** — the remaining allowed in-cluster pairs are
//!    sorted by descending similarity and the top
//!    `⌊extra_ratio · remaining⌋` become edges ("the total number of
//!    additional edges is proportional to the cluster size ... a more
//!    central node is more likely to be connected to a larger number of
//!    nodes").
//!
//! Labeled–labeled pairs are excluded in both stages ("we do not directly
//! connect two labeled pairs, as they are not a target for the certainty
//! calculations"). The worked Example 4 (Figure 4 + Table 2) is
//! reproduced verbatim in this module's tests.

use rayon::prelude::*;

use em_core::{EmError, Result};
use em_vector::Embeddings;

use crate::graph::{NodeKind, PairGraph};

/// A symmetric similarity provider over node indices.
///
/// The pipeline builds its graphs with [`build_graph_blocked`], which
/// reads similarities off each cluster's Gram rows. [`build_graph`] over
/// [`DotSim`] is the scalar reference it is pinned to bit for bit; tests
/// use [`MatrixSim`] to encode the paper's Table 2 directly.
pub trait Similarity {
    /// Similarity between nodes `i` and `j` (symmetric).
    fn sim(&self, i: usize, j: usize) -> f32;
}

/// Dot-product similarity over rows that the caller has already
/// L2-normalized (see [`Embeddings::normalize_rows`]).
///
/// On unit-norm rows this is their cosine, without re-deriving the
/// norms in a loop that evaluates `O(m²)` similarities per cluster.
pub struct DotSim<'a> {
    embeddings: &'a Embeddings,
}

impl<'a> DotSim<'a> {
    /// Wrap a matrix of unit-norm rows.
    pub fn new(normalized: &'a Embeddings) -> Self {
        DotSim {
            embeddings: normalized,
        }
    }
}

impl Similarity for DotSim<'_> {
    #[inline]
    fn sim(&self, i: usize, j: usize) -> f32 {
        em_vector::dot(self.embeddings.row(i), self.embeddings.row(j))
    }
}

/// A dense symmetric similarity matrix (for tests and small inputs).
pub struct MatrixSim {
    n: usize,
    values: Vec<f32>,
}

impl MatrixSim {
    /// Build from an upper-triangular list `(i, j, sim)` with `i < j`.
    pub fn from_entries(n: usize, entries: &[(usize, usize, f32)]) -> Result<Self> {
        let mut values = vec![0.0f32; n * n];
        for &(i, j, s) in entries {
            if i >= n || j >= n || i == j {
                return Err(EmError::InvalidConfig(format!(
                    "bad similarity entry ({i},{j}) for n={n}"
                )));
            }
            values[i * n + j] = s;
            values[j * n + i] = s;
        }
        Ok(MatrixSim { n, values })
    }
}

impl Similarity for MatrixSim {
    #[inline]
    fn sim(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.n && j < self.n);
        self.values[i * self.n + j]
    }
}

/// Edge-creation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    /// Nearest neighbours per node (the paper uses 15, §4.2; its worked
    /// example uses 2).
    pub q: usize,
    /// Fraction of the remaining allowed pairs to connect (the paper uses
    /// 0.03, §4.2; its worked example uses 0.15).
    pub extra_ratio: f64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            q: 15,
            extra_ratio: 0.03,
        }
    }
}

impl EdgeConfig {
    fn validate(&self) -> Result<()> {
        if self.q == 0 {
            return Err(EmError::InvalidConfig("edge config q must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.extra_ratio) {
            return Err(EmError::InvalidConfig(format!(
                "extra_ratio {} outside [0,1]",
                self.extra_ratio
            )));
        }
        Ok(())
    }
}

/// Whether an edge between `a` and `b` is permitted.
#[inline]
fn allowed(kinds: &[NodeKind], a: usize, b: usize) -> bool {
    !(kinds[a].is_labeled() && kinds[b].is_labeled())
}

/// Build the pair graph over `kinds.len()` nodes partitioned into
/// `clusters` (disjoint lists of node indices), using `sim` for edge
/// weights.
///
/// Every cluster contributes its own edges; nodes of different clusters
/// are never connected, so each cluster yields one or more connected
/// components (§3.3.2: "each cluster yields one (or more) connected
/// components").
pub fn build_graph<S: Similarity>(
    sim: &S,
    kinds: &[NodeKind],
    confidences: &[f32],
    clusters: &[Vec<usize>],
    config: EdgeConfig,
) -> Result<PairGraph> {
    config.validate()?;
    validate_clusters(kinds.len(), clusters)?;

    let mut graph = PairGraph::new(kinds.to_vec(), confidences.to_vec())?;

    for cluster in clusters {
        let m = cluster.len();
        if m < 2 {
            continue;
        }

        // Stage 1: q nearest allowed neighbours per node.
        for (pos, &v) in cluster.iter().enumerate() {
            // Collect allowed candidates with similarity; partial sort.
            let mut cands: Vec<(usize, f32)> = Vec::with_capacity(m - 1);
            for (other_pos, &u) in cluster.iter().enumerate() {
                if other_pos == pos || !allowed(kinds, v, u) {
                    continue;
                }
                cands.push((u, sim.sim(v, u)));
            }
            cands.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for &(u, w) in cands.iter().take(config.q) {
                if !graph.has_edge(v, u) {
                    graph.add_edge(v, u, sanitize_weight(w))?;
                }
            }
        }

        // Stage 2: top fraction of the remaining allowed pairs.
        let mut remaining: Vec<(usize, usize, f32)> = Vec::new();
        for a_pos in 0..m {
            for b_pos in a_pos + 1..m {
                let (a, b) = (cluster[a_pos], cluster[b_pos]);
                if !allowed(kinds, a, b) || graph.has_edge(a, b) {
                    continue;
                }
                remaining.push((a, b, sim.sim(a, b)));
            }
        }
        let extra = (config.extra_ratio * remaining.len() as f64).floor() as usize;
        if extra > 0 {
            remaining.sort_by(|x, y| {
                y.2.partial_cmp(&x.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then((x.0, x.1).cmp(&(y.0, y.1)))
            });
            for &(a, b, w) in remaining.iter().take(extra) {
                graph.add_edge(a, b, sanitize_weight(w))?;
            }
        }
    }

    Ok(graph)
}

/// Edge weights must be positive for PageRank; cosine similarities of
/// near-antipodal representations can be ≤ 0, so clamp to a small floor.
#[inline]
fn sanitize_weight(w: f32) -> f32 {
    if w.is_finite() {
        w.max(1e-6)
    } else {
        1e-6
    }
}

/// Clusters must be a family of disjoint in-range node lists.
fn validate_clusters(n: usize, clusters: &[Vec<usize>]) -> Result<()> {
    let mut seen = vec![false; n];
    for cluster in clusters {
        for &v in cluster {
            if v >= n {
                return Err(EmError::IndexOutOfBounds {
                    context: "cluster member".into(),
                    index: v,
                    len: n,
                });
            }
            if seen[v] {
                return Err(EmError::InvalidConfig(format!(
                    "node {v} appears in more than one cluster"
                )));
            }
            seen[v] = true;
        }
    }
    Ok(())
}

/// Configuration of the blocked graph builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedConfig {
    /// Edge-creation parameters (shared with the scalar builder).
    pub edge: EdgeConfig,
    /// Clusters **larger** than this route their neighbour search
    /// through the HNSW ANN index instead of the exact Gram kernel
    /// (approximate; see [`build_graph_blocked`]). Also caps the dense
    /// per-cluster Gram at `ann_threshold²` floats — note that clusters
    /// are processed in parallel, so peak transient memory is up to
    /// `worker_threads × ann_threshold²` floats; lower the threshold on
    /// memory-tight many-core hosts. `usize::MAX` disables ANN routing
    /// entirely.
    pub ann_threshold: usize,
    /// Seed for HNSW level draws on ANN-routed clusters (combined with
    /// the cluster index, so runs are reproducible).
    pub ann_seed: u64,
}

impl Default for BlockedConfig {
    fn default() -> Self {
        BlockedConfig {
            edge: EdgeConfig::default(),
            ann_threshold: em_vector::DEFAULT_ANN_THRESHOLD,
            ann_seed: 0xA22_0E55,
        }
    }
}

impl BlockedConfig {
    /// Derive the blocked builder's routing from a shared
    /// [`em_vector::AnnPolicy`] — the crossover threshold comes from the
    /// policy so every ANN-capable stage of a pipeline flips together.
    pub fn from_policy(edge: EdgeConfig, policy: &em_vector::AnnPolicy, ann_seed: u64) -> Self {
        BlockedConfig {
            edge,
            ann_threshold: policy.threshold,
            ann_seed,
        }
    }
}

/// Blocked, parallel edge creation over pre-normalized rows.
///
/// Semantics are identical to [`build_graph`] with
/// [`DotSim`]`::new(normalized)`: for every cluster at or under
/// `config.ann_threshold`, the per-cluster Gram matrix is computed once
/// by the blocked kernel (each entry the same `dot` call the scalar
/// path makes, so the resulting graph — edge set, weights *and*
/// adjacency order — is **bit-identical**; the golden tests assert
/// this). Clusters are processed in parallel and their edge lists
/// applied in cluster order, which reproduces the serial builder's
/// insertion order exactly.
///
/// Clusters larger than the threshold use the HNSW index for the q-NN
/// stage and a widened beam for the top-ratio stage (§5.2 names
/// approximate search as the scale-out for exactly this step); those
/// clusters are approximate but still deterministic under
/// `config.ann_seed`.
pub fn build_graph_blocked(
    normalized: &Embeddings,
    kinds: &[NodeKind],
    confidences: &[f32],
    clusters: &[Vec<usize>],
    config: &BlockedConfig,
) -> Result<PairGraph> {
    config.edge.validate()?;
    let n = kinds.len();
    if normalized.len() != n {
        return Err(EmError::DimensionMismatch {
            context: "build_graph_blocked rows vs kinds".into(),
            expected: n,
            actual: normalized.len(),
        });
    }
    validate_clusters(n, clusters)?;

    let edge_lists: Vec<Result<Vec<(usize, usize, f32)>>> = (0..clusters.len())
        .into_par_iter()
        .map(|c| {
            let cluster = &clusters[c];
            if cluster.len() > config.ann_threshold {
                cluster_edges_ann(
                    normalized,
                    kinds,
                    cluster,
                    config.edge,
                    config.ann_seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            } else {
                Ok(cluster_edges_exact(normalized, kinds, cluster, config.edge))
            }
        })
        .collect();

    let mut graph = PairGraph::new(kinds.to_vec(), confidences.to_vec())?;
    for list in edge_lists {
        for (a, b, w) in list? {
            graph.add_edge(a, b, w)?;
        }
    }
    Ok(graph)
}

/// Top-`q` allowed neighbours of the node at `pos` from its Gram row,
/// under the scalar builder's exact total order (similarity descending,
/// ties toward the smaller *global* index). Returns `(position, sim)`
/// pairs best-first.
fn top_q_allowed(
    row: &[f32],
    cluster: &[usize],
    kinds: &[NodeKind],
    pos: usize,
    q: usize,
) -> Vec<(usize, f32)> {
    let v = cluster[pos];
    let better = |a: (usize, f32), b: (usize, f32)| -> bool {
        match a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => cluster[a.0] < cluster[b.0],
        }
    };
    let mut items: Vec<(usize, f32)> = Vec::with_capacity(q + 1);
    for (u_pos, &w) in row.iter().enumerate() {
        if u_pos == pos || !allowed(kinds, v, cluster[u_pos]) {
            continue;
        }
        let cand = (u_pos, w);
        if items.len() == q {
            if !better(cand, *items.last().expect("non-empty buffer")) {
                continue;
            }
            items.pop();
        }
        let ins = items
            .iter()
            .position(|&x| better(cand, x))
            .unwrap_or(items.len());
        items.insert(ins, cand);
    }
    items
}

/// Exact per-cluster edges from one blocked Gram pass. Reproduces the
/// scalar builder's edge sequence bit-for-bit.
fn cluster_edges_exact(
    normalized: &Embeddings,
    kinds: &[NodeKind],
    cluster: &[usize],
    edge: EdgeConfig,
) -> Vec<(usize, usize, f32)> {
    let m = cluster.len();
    if m < 2 {
        return Vec::new();
    }
    let dim = normalized.dim();
    let packed = em_vector::kernel::pack_rows(normalized, cluster);
    let gram = em_vector::kernel::gram_packed(&packed, m, dim);

    let mut present = vec![false; m * m];
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();

    // Stage 1: q nearest allowed neighbours per node, from the Gram row.
    for pos in 0..m {
        let row = &gram[pos * m..(pos + 1) * m];
        for &(u_pos, w) in &top_q_allowed(row, cluster, kinds, pos, edge.q) {
            let (lo, hi) = (pos.min(u_pos), pos.max(u_pos));
            if !present[lo * m + hi] {
                present[lo * m + hi] = true;
                edges.push((cluster[pos], cluster[u_pos], sanitize_weight(w)));
            }
        }
    }

    // Stage 2: top fraction of the remaining allowed pairs, reusing the
    // Gram entries instead of recomputing every similarity.
    let mut remaining: Vec<(usize, usize, f32)> = Vec::new();
    for a_pos in 0..m {
        let a = cluster[a_pos];
        for b_pos in a_pos + 1..m {
            let b = cluster[b_pos];
            if !allowed(kinds, a, b) || present[a_pos * m + b_pos] {
                continue;
            }
            remaining.push((a, b, gram[a_pos * m + b_pos]));
        }
    }
    let extra = (edge.extra_ratio * remaining.len() as f64).floor() as usize;
    if extra > 0 {
        let cmp = |x: &(usize, usize, f32), y: &(usize, usize, f32)| {
            y.2.partial_cmp(&x.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((x.0, x.1).cmp(&(y.0, y.1)))
        };
        // The scalar path fully sorts; the prefix under a total order is
        // the same either way, so select the top block first and only
        // sort that.
        if extra < remaining.len() {
            remaining.select_nth_unstable_by(extra, cmp);
            remaining.truncate(extra);
        }
        remaining.sort_by(cmp);
        for &(a, b, w) in remaining.iter().take(extra) {
            edges.push((a, b, sanitize_weight(w)));
        }
    }
    edges
}

/// Approximate per-cluster edges through the HNSW index, for clusters
/// too large for the dense Gram. The q-NN stage queries the index; the
/// top-ratio stage ranks a widened candidate beam (4·q neighbours per
/// node) instead of all O(m²) remaining pairs. The extra-edge *count*
/// keeps the scalar formula (⌊ratio · remaining-allowed-pairs⌋) so edge
/// density matches the exact path.
fn cluster_edges_ann(
    normalized: &Embeddings,
    kinds: &[NodeKind],
    cluster: &[usize],
    edge: EdgeConfig,
    seed: u64,
) -> Result<Vec<(usize, usize, f32)>> {
    let m = cluster.len();
    if m < 2 {
        return Ok(Vec::new());
    }
    let dim = normalized.dim();
    let packed = em_vector::kernel::pack_rows(normalized, cluster);
    let mut index = em_vector::Hnsw::new(
        dim,
        em_vector::HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: (4 * edge.q).max(64),
            seed,
        },
    )?;
    for pos in 0..m {
        index.insert(&packed[pos * dim..(pos + 1) * dim])?;
    }
    let row = |pos: usize| &packed[pos * dim..(pos + 1) * dim];

    let mut present: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();
    let mark = |present: &mut std::collections::HashSet<(u32, u32)>, a: usize, b: usize| {
        let (lo, hi) = (a.min(b) as u32, a.max(b) as u32);
        present.insert((lo, hi))
    };

    // Stage 1: approximate q-NN per node (over-fetch to survive the
    // allowed-pair filter).
    let want = (edge.q + 8).min(m - 1);
    for pos in 0..m {
        let v = cluster[pos];
        let mut taken = 0usize;
        for hit in index.search(row(pos), want, Some(pos))? {
            if taken >= edge.q {
                break;
            }
            let u = cluster[hit.index];
            if !allowed(kinds, v, u) {
                continue;
            }
            taken += 1;
            if mark(&mut present, pos, hit.index) {
                let w = em_vector::dot(row(pos), row(hit.index));
                edges.push((v, u, sanitize_weight(w)));
            }
        }
    }

    // Stage 2: rank a widened beam of candidate pairs.
    let labeled = cluster.iter().filter(|&&v| kinds[v].is_labeled()).count();
    let allowed_pairs = m * (m - 1) / 2 - labeled.saturating_sub(1) * labeled / 2;
    let remaining_count = allowed_pairs.saturating_sub(edges.len());
    let extra = (edge.extra_ratio * remaining_count as f64).floor() as usize;
    if extra > 0 {
        let beam = (4 * edge.q).min(m - 1);
        let mut candidates: Vec<(usize, usize, f32)> = Vec::new();
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for pos in 0..m {
            let v = cluster[pos];
            for hit in index.search(row(pos), beam, Some(pos))? {
                let u = cluster[hit.index];
                if !allowed(kinds, v, u) {
                    continue;
                }
                let (lo, hi) = (pos.min(hit.index) as u32, pos.max(hit.index) as u32);
                if present.contains(&(lo, hi)) || !seen.insert((lo, hi)) {
                    continue;
                }
                let (a, b) = (cluster[lo as usize], cluster[hi as usize]);
                let w = em_vector::dot(row(lo as usize), row(hi as usize));
                candidates.push((a, b, w));
            }
        }
        candidates.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((x.0, x.1).cmp(&(y.0, y.1)))
        });
        for &(a, b, w) in candidates.iter().take(extra) {
            edges.push((a, b, sanitize_weight(w)));
        }
    }
    Ok(edges)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The similarity matrix of the paper's Table 2 (off-diagonal values;
    /// the diagonal of the table holds model confidences, which live in
    /// `confidences` instead).
    pub(crate) fn paper_example_sim() -> MatrixSim {
        // s1..s8 are nodes 0..7.
        MatrixSim::from_entries(
            8,
            &[
                (0, 1, 0.9),
                (0, 2, 0.5),
                (0, 3, 0.6),
                (0, 4, 0.85),
                (0, 5, 0.5),
                (0, 6, 0.9),
                (0, 7, 0.82),
                (1, 2, 0.55),
                (1, 3, 0.58),
                (1, 4, 0.92),
                (1, 5, 0.45),
                (1, 6, 0.83),
                (1, 7, 0.6),
                (2, 3, 0.75),
                (2, 4, 0.67),
                (2, 5, 0.56),
                (2, 6, 0.4),
                (2, 7, 0.38),
                (3, 4, 0.88),
                (3, 5, 0.84),
                (3, 6, 0.5),
                (3, 7, 0.55),
                (4, 5, 0.57),
                (4, 6, 0.63),
                (4, 7, 0.65),
                (5, 6, 0.41),
                (5, 7, 0.54),
                (6, 7, 0.64),
            ],
        )
        .unwrap()
    }

    pub(crate) fn paper_example_kinds() -> Vec<NodeKind> {
        vec![
            NodeKind::PredictedMatch,    // s1
            NodeKind::PredictedMatch,    // s2
            NodeKind::PredictedMatch,    // s3
            NodeKind::PredictedMatch,    // s4
            NodeKind::PredictedNonMatch, // s5
            NodeKind::PredictedNonMatch, // s6
            NodeKind::LabeledMatch,      // s7
            NodeKind::LabeledNonMatch,   // s8
        ]
    }

    pub(crate) fn paper_example_confidences() -> Vec<f32> {
        // Diagonal of Table 2: model confidence in the assigned label;
        // labeled samples get 1.
        vec![0.95, 0.92, 0.96, 0.94, 0.98, 0.88, 1.0, 1.0]
    }

    /// Reproduces the paper's Example 4 (Figure 4 + Table 2) exactly:
    /// q = 2, extra ratio 0.15, one cluster of 8 samples.
    #[test]
    fn example4_edge_creation_matches_paper() {
        let sim = paper_example_sim();
        let kinds = paper_example_kinds();
        let conf = paper_example_confidences();
        let clusters = vec![(0..8).collect::<Vec<_>>()];
        let g = build_graph(
            &sim,
            &kinds,
            &conf,
            &clusters,
            EdgeConfig {
                q: 2,
                extra_ratio: 0.15,
            },
        )
        .unwrap();

        // Stage-1 edges derived in the paper's prose: each sample joins
        // its two nearest neighbours (labeled–labeled excluded). The union
        // is 11 undirected edges; the paper's "12 created" counts the
        // forbidden s7–s8 slot, but its remaining-candidate count (16) and
        // the two extra edges it derives agree with this edge set.
        let expected_stage1 = [
            (0, 1), // s1–s2 (0.9)
            (0, 6), // s1–s7 (0.9)
            (1, 4), // s2–s5 (0.92)
            (2, 3), // s3–s4 (0.75)
            (2, 4), // s3–s5 (0.67)
            (3, 4), // s4–s5 (0.88)
            (3, 5), // s4–s6 (0.84)
            (4, 5), // s5–s6 from s6's 2-NN (0.57)
            (1, 6), // s2–s7 from s7's 2-NN (0.83)
            (0, 7), // s1–s8 from s8's 2-NN (0.82)
            (4, 7), // s5–s8 from s8's 2-NN (0.65)
        ];
        // Stage-2: 16 remaining allowed pairs, ⌊0.15·16⌋ = 2 extra edges —
        // the two highest-similarity remaining pairs s1–s5 (0.85) and
        // s5–s7 (0.63), as the paper derives.
        let expected_stage2 = [(0, 4), (4, 6)];

        for &(u, v) in expected_stage1.iter().chain(&expected_stage2) {
            assert!(
                g.has_edge(u, v),
                "expected edge s{}–s{} missing",
                u + 1,
                v + 1
            );
        }
        assert_eq!(
            g.n_edges(),
            expected_stage1.len() + expected_stage2.len(),
            "edge set: {:?}",
            g.edges()
        );
        // The labeled–labeled pair s7–s8 must not be connected even though
        // its similarity (0.64) exceeds that of s5–s7 (0.63).
        assert!(!g.has_edge(6, 7));
    }

    #[test]
    fn edge_weights_are_similarities() {
        let sim = paper_example_sim();
        let g = build_graph(
            &sim,
            &paper_example_kinds(),
            &paper_example_confidences(),
            &[(0..8).collect()],
            EdgeConfig {
                q: 2,
                extra_ratio: 0.15,
            },
        )
        .unwrap();
        assert!((g.edge_weight(0, 1).unwrap() - 0.9).abs() < 1e-6);
        assert!((g.edge_weight(0, 4).unwrap() - 0.85).abs() < 1e-6);
        assert!((g.edge_weight(4, 6).unwrap() - 0.63).abs() < 1e-6);
    }

    #[test]
    fn clusters_are_never_bridged() {
        let sim = MatrixSim::from_entries(
            4,
            &[
                (0, 1, 0.9),
                (0, 2, 0.95), // cross-cluster, must be ignored
                (1, 3, 0.99), // cross-cluster, must be ignored
                (2, 3, 0.8),
            ],
        )
        .unwrap();
        let kinds = vec![NodeKind::PredictedMatch; 4];
        let conf = vec![0.9; 4];
        let g = build_graph(
            &sim,
            &kinds,
            &conf,
            &[vec![0, 1], vec![2, 3]],
            EdgeConfig {
                q: 2,
                extra_ratio: 1.0,
            },
        )
        .unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn singleton_and_empty_clusters_are_fine() {
        let sim = MatrixSim::from_entries(3, &[(0, 1, 0.5)]).unwrap();
        let kinds = vec![NodeKind::PredictedNonMatch; 3];
        let conf = vec![0.8; 3];
        let g = build_graph(
            &sim,
            &kinds,
            &conf,
            &[vec![0, 1], vec![2], vec![]],
            EdgeConfig::default(),
        )
        .unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn overlapping_clusters_rejected() {
        let sim = MatrixSim::from_entries(3, &[]).unwrap();
        let kinds = vec![NodeKind::PredictedMatch; 3];
        let conf = vec![0.9; 3];
        let err = build_graph(
            &sim,
            &kinds,
            &conf,
            &[vec![0, 1], vec![1, 2]],
            EdgeConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn q_larger_than_cluster_connects_everything_allowed() {
        let sim = paper_example_sim();
        let g = build_graph(
            &sim,
            &paper_example_kinds(),
            &paper_example_confidences(),
            &[(0..8).collect()],
            EdgeConfig {
                q: 50,
                extra_ratio: 0.0,
            },
        )
        .unwrap();
        // Complete graph minus the one labeled–labeled pair: C(8,2) − 1.
        assert_eq!(g.n_edges(), 27);
    }

    #[test]
    fn extra_ratio_one_connects_all_allowed() {
        let sim = paper_example_sim();
        let g = build_graph(
            &sim,
            &paper_example_kinds(),
            &paper_example_confidences(),
            &[(0..8).collect()],
            EdgeConfig {
                q: 1,
                extra_ratio: 1.0,
            },
        )
        .unwrap();
        assert_eq!(g.n_edges(), 27);
        assert!(!g.has_edge(6, 7));
    }

    #[test]
    fn validates_config() {
        let sim = MatrixSim::from_entries(2, &[]).unwrap();
        let kinds = vec![NodeKind::PredictedMatch; 2];
        let conf = vec![0.5; 2];
        assert!(build_graph(
            &sim,
            &kinds,
            &conf,
            &[vec![0, 1]],
            EdgeConfig {
                q: 0,
                extra_ratio: 0.1
            }
        )
        .is_err());
        assert!(build_graph(
            &sim,
            &kinds,
            &conf,
            &[vec![0, 1]],
            EdgeConfig {
                q: 2,
                extra_ratio: 1.5
            }
        )
        .is_err());
    }

    #[test]
    fn matrix_sim_validates_entries() {
        assert!(MatrixSim::from_entries(2, &[(0, 0, 1.0)]).is_err());
        assert!(MatrixSim::from_entries(2, &[(0, 5, 1.0)]).is_err());
    }

    fn random_pool(n: usize, dim: usize, seed: u64) -> (Embeddings, Vec<NodeKind>, Vec<f32>) {
        use em_core::Rng;
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.normal() as f32).collect())
            .collect();
        let mut e = Embeddings::from_rows(&rows).unwrap();
        e.normalize_rows();
        let kinds: Vec<NodeKind> = (0..n)
            .map(|i| match i % 5 {
                0 => NodeKind::LabeledMatch,
                1 => NodeKind::PredictedNonMatch,
                4 => NodeKind::LabeledNonMatch,
                _ => NodeKind::PredictedMatch,
            })
            .collect();
        let confs: Vec<f32> = kinds
            .iter()
            .map(|k| if k.is_labeled() { 1.0 } else { 0.9 })
            .collect();
        (e, kinds, confs)
    }

    fn ragged_clusters(n: usize) -> Vec<Vec<usize>> {
        // Uneven sizes, non-contiguous membership, one singleton and one
        // empty cluster to hit all edge cases.
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); 5];
        for v in 0..n.saturating_sub(1) {
            clusters[v % 4].push(v);
        }
        if n > 0 {
            clusters.push(vec![n - 1]); // singleton
        }
        clusters
    }

    /// Golden test: the blocked parallel builder is bit-identical to the
    /// scalar generic builder over `DotSim` — same edge set, same
    /// weights, same adjacency order (which downstream certainty /
    /// PageRank sums depend on).
    ///
    /// Pinned to the AVX2 tier family (in a serial scope, since the
    /// override is thread-local and the blocked builder fans out):
    /// Portable and AVX2 share the bit contract with the scalar
    /// `em_vector::dot` path, while the AVX-512 tier is
    /// tolerance-bounded and may differ by ULPs — its agreement is
    /// gated by the workspace `simd_tolerance` suite instead.
    #[test]
    fn blocked_builder_is_bit_identical_to_scalar() {
        let (e, kinds, confs) = random_pool(173, 23, 42);
        let clusters = ragged_clusters(173);
        let config = EdgeConfig {
            q: 4,
            extra_ratio: 0.05,
        };
        let scalar = build_graph(&DotSim::new(&e), &kinds, &confs, &clusters, config).unwrap();
        let blocked = rayon::serial_scope(|| {
            em_vector::with_simd_tier(em_vector::SimdTier::Avx2, || {
                build_graph_blocked(
                    &e,
                    &kinds,
                    &confs,
                    &clusters,
                    &BlockedConfig {
                        edge: config,
                        ann_threshold: usize::MAX,
                        ..Default::default()
                    },
                )
            })
        })
        .unwrap();
        assert_eq!(scalar.n_edges(), blocked.n_edges());
        for v in 0..scalar.len() {
            let a = scalar.neighbors(v);
            let b = blocked.neighbors(v);
            assert_eq!(a.len(), b.len(), "degree of {v}");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.0, y.0, "neighbour order of {v}");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "weight bits of {v}–{}", x.0);
            }
        }
    }

    /// Golden test: parallel and serial runs of the blocked builder
    /// agree bit-for-bit.
    #[test]
    fn blocked_builder_parallel_equals_serial() {
        let (e, kinds, confs) = random_pool(140, 17, 7);
        let clusters = ragged_clusters(140);
        let config = BlockedConfig::default();
        let par = build_graph_blocked(&e, &kinds, &confs, &clusters, &config).unwrap();
        let ser = rayon::serial_scope(|| {
            build_graph_blocked(&e, &kinds, &confs, &clusters, &config).unwrap()
        });
        assert_eq!(par.edges(), ser.edges());
        for v in 0..par.len() {
            assert_eq!(par.neighbors(v), ser.neighbors(v));
        }
    }

    #[test]
    fn blocked_builder_validates_like_scalar() {
        let (e, kinds, confs) = random_pool(10, 4, 1);
        // Overlapping clusters rejected.
        assert!(build_graph_blocked(
            &e,
            &kinds,
            &confs,
            &[vec![0, 1], vec![1, 2]],
            &BlockedConfig::default(),
        )
        .is_err());
        // Row-count mismatch rejected.
        let small = e.gather(&[0, 1, 2]).unwrap();
        assert!(build_graph_blocked(
            &small,
            &kinds,
            &confs,
            &[vec![0, 1]],
            &BlockedConfig::default(),
        )
        .is_err());
        // Bad edge config rejected.
        assert!(build_graph_blocked(
            &e,
            &kinds,
            &confs,
            &[vec![0, 1]],
            &BlockedConfig {
                edge: EdgeConfig {
                    q: 0,
                    extra_ratio: 0.1,
                },
                ..Default::default()
            },
        )
        .is_err());
    }

    /// ANN routing: clusters above the threshold still produce a valid,
    /// deterministic graph with the expected connectivity (approximate,
    /// so compared structurally rather than bit-wise).
    #[test]
    fn ann_routed_cluster_is_deterministic_and_connected() {
        let (e, kinds, confs) = random_pool(220, 16, 9);
        let clusters = vec![(0..220).collect::<Vec<_>>()];
        let config = BlockedConfig {
            edge: EdgeConfig {
                q: 5,
                extra_ratio: 0.01,
            },
            ann_threshold: 100, // force the ANN path
            ann_seed: 77,
        };
        let a = build_graph_blocked(&e, &kinds, &confs, &clusters, &config).unwrap();
        let b = build_graph_blocked(&e, &kinds, &confs, &clusters, &config).unwrap();
        assert_eq!(a.edges(), b.edges(), "ANN path must be deterministic");
        // Every unlabeled node found at least one allowed neighbour.
        for v in 0..a.len() {
            assert!(a.degree(v) >= 1, "isolated node {v}");
        }
        // No labeled–labeled edges.
        for (u, v, _) in a.edges() {
            assert!(!(kinds[u].is_labeled() && kinds[v].is_labeled()));
        }
        // Edge density in the same ballpark as the exact path.
        let exact = build_graph_blocked(
            &e,
            &kinds,
            &confs,
            &clusters,
            &BlockedConfig {
                ann_threshold: usize::MAX,
                ..config
            },
        )
        .unwrap();
        let lo = exact.n_edges() / 2;
        let hi = exact.n_edges() * 2;
        assert!(
            (lo..=hi).contains(&a.n_edges()),
            "ANN edges {} vs exact {}",
            a.n_edges(),
            exact.n_edges()
        );
    }
}
