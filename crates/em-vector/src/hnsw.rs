//! Hierarchical Navigable Small World (HNSW) approximate nearest
//! neighbour index.
//!
//! Malkov & Yashunin's HNSW is the second approximate-search technique the
//! paper names (§5.2) for cutting the K-Means/k-NN cost that dominates the
//! battleship runtime. This is a from-scratch implementation specialised
//! to cosine similarity (vectors are stored L2-normalized so similarity is
//! a dot product):
//!
//! * nodes get a geometric random level (`p = 1/e` per extra layer),
//! * insertion descends greedily through upper layers and runs a beam
//!   search of width `ef_construction` on each layer at or below the
//!   node's level,
//! * neighbour lists are truncated to `m` (2·`m` at layer 0) by keeping
//!   the closest candidates,
//! * search descends greedily and finishes with a beam of width `ef`.

use std::collections::BinaryHeap;

use em_core::{EmError, Result, Rng};

use crate::embeddings::{dot, normalize, Embeddings};
use crate::knn::Neighbor;

/// Frontier entry for the beam search: max-heap by similarity, index as
/// a deterministic tie-break so the expansion order is a total order.
#[derive(Clone, Copy)]
struct Cand {
    sim: f32,
    idx: usize,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.sim.to_bits() == other.sim.to_bits() && self.idx == other.idx
    }
}
impl Eq for Cand {}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| self.idx.cmp(&other.idx))
    }
}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable search scratch: an epoch-stamped visited set, the frontier
/// heap and the normalized-query buffer.
///
/// A single query allocates nothing once the scratch is warm, which is
/// what makes per-point shortlist queries viable in hot loops — the
/// `HashSet` + two growing `Vec`s the old beam search allocated per
/// call cost more than the distance evaluations on small indexes (e.g.
/// an index over a few hundred K-Means centroids). Hold one per worker
/// thread and pass it to [`Hnsw::search_with`]; [`Hnsw::search`] keeps
/// the allocate-per-call convenience behaviour.
#[derive(Default)]
pub struct HnswScratch {
    /// `stamp[i] == epoch` ⇔ node `i` visited by the current query.
    stamp: Vec<u32>,
    epoch: u32,
    frontier: BinaryHeap<Cand>,
    /// Result beam: min-heap (worst on top) of the best `ef` seen.
    beam: BinaryHeap<std::cmp::Reverse<Cand>>,
    qbuf: Vec<f32>,
}

impl HnswScratch {
    /// Start a new query over an index of `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrapped: stale stamps could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
        self.beam.clear();
    }

    /// Mark `i` visited; `true` iff this is its first visit this query.
    fn visit(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }
}

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Max neighbours per node on layers ≥ 1 (layer 0 keeps `2m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (raise for recall, lower for speed).
    pub ef_search: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0x45_57,
        }
    }
}

impl HnswConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.m < 2 {
            return Err(EmError::InvalidConfig("HNSW m must be >= 2".into()));
        }
        if self.ef_construction < self.m {
            return Err(EmError::InvalidConfig(
                "HNSW ef_construction must be >= m".into(),
            ));
        }
        if self.ef_search == 0 {
            return Err(EmError::InvalidConfig("HNSW ef_search must be > 0".into()));
        }
        Ok(())
    }
}

/// One inserted element: its vector lives in `vectors`, its adjacency in
/// `links[layer]`.
struct Node {
    /// Per-layer neighbour lists, `links[l]` valid for `l <= level`.
    links: Vec<Vec<usize>>,
}

/// The HNSW index. Owns normalized copies of the inserted vectors.
pub struct Hnsw {
    config: HnswConfig,
    dim: usize,
    vectors: Vec<f32>,
    nodes: Vec<Node>,
    entry: Option<usize>,
    max_level: usize,
    rng: Rng,
    /// Scratch reused across inserts (construction runs one beam search
    /// per layer per node).
    scratch: HnswScratch,
}

impl Hnsw {
    /// Create an empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, config: HnswConfig) -> Result<Self> {
        config.validate()?;
        if dim == 0 {
            return Err(EmError::InvalidConfig("HNSW dim must be > 0".into()));
        }
        Ok(Hnsw {
            rng: Rng::seed_from_u64(config.seed),
            config,
            dim,
            vectors: Vec::new(),
            nodes: Vec::new(),
            entry: None,
            max_level: 0,
            scratch: HnswScratch::default(),
        })
    }

    /// Build an index over all rows of `data` (insertion order = row
    /// order).
    pub fn build(data: &Embeddings, config: HnswConfig) -> Result<Self> {
        let mut index = Hnsw::new(data.dim(), config)?;
        for i in 0..data.len() {
            index.insert(data.row(i))?;
        }
        Ok(index)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn vector(&self, i: usize) -> &[f32] {
        &self.vectors[i * self.dim..(i + 1) * self.dim]
    }

    fn similarity(&self, i: usize, q: &[f32]) -> f32 {
        dot(self.vector(i), q)
    }

    /// Geometric level draw with `p = 1/e`, the standard `mL = 1/ln M`
    /// choice collapsed to its canonical form.
    fn draw_level(&mut self) -> usize {
        let mut level = 0usize;
        while self.rng.f64() < (1.0 / std::f64::consts::E) && level < 24 {
            level += 1;
        }
        level
    }

    /// Greedy hill-climb toward `q` within `layer`, starting at `start`.
    fn greedy_closest(&self, q: &[f32], start: usize, layer: usize) -> usize {
        let mut current = start;
        let mut current_sim = self.similarity(current, q);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[current].links[layer] {
                let s = self.similarity(nb, q);
                if s > current_sim {
                    current = nb;
                    current_sim = s;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Beam search on `layer`: returns up to `ef` candidates sorted by
    /// descending similarity. The visited set and both heaps live in
    /// `scratch`, so a query allocates only its result vector. The
    /// result beam is a min-heap — acceptance and eviction are
    /// `O(log ef)` instead of the `O(ef)` memmove a sorted vector pays
    /// per accepted candidate, which dominated small-index queries.
    fn search_layer(
        &self,
        q: &[f32],
        entry: usize,
        ef: usize,
        layer: usize,
        scratch: &mut HnswScratch,
    ) -> Vec<Neighbor> {
        scratch.begin(self.nodes.len());
        scratch.visit(entry);
        let e = Cand {
            sim: self.similarity(entry, q),
            idx: entry,
        };
        scratch.beam.push(std::cmp::Reverse(e));
        scratch.frontier.push(e);
        while let Some(cand) = scratch.frontier.pop() {
            let worst = scratch.beam.peek().map(|r| r.0.sim).unwrap_or(f32::MIN);
            if scratch.beam.len() >= ef && cand.sim < worst {
                break;
            }
            for &nb in &self.nodes[cand.idx].links[layer] {
                if !scratch.visit(nb) {
                    continue;
                }
                let s = self.similarity(nb, q);
                let worst = scratch.beam.peek().map(|r| r.0.sim).unwrap_or(f32::MIN);
                if scratch.beam.len() < ef || s > worst {
                    let hit = Cand { sim: s, idx: nb };
                    scratch.beam.push(std::cmp::Reverse(hit));
                    if scratch.beam.len() > ef {
                        scratch.beam.pop();
                    }
                    scratch.frontier.push(hit);
                }
            }
        }
        let mut results: Vec<Neighbor> = scratch
            .beam
            .drain()
            .map(|r| Neighbor {
                index: r.0.idx,
                similarity: r.0.sim,
            })
            .collect();
        results.sort_unstable_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then_with(|| a.index.cmp(&b.index))
        });
        results
    }

    /// Insert one vector; returns its index.
    pub fn insert(&mut self, v: &[f32]) -> Result<usize> {
        if v.len() != self.dim {
            return Err(EmError::DimensionMismatch {
                context: "HNSW insert".into(),
                expected: self.dim,
                actual: v.len(),
            });
        }
        let mut vn = v.to_vec();
        normalize(&mut vn);

        let id = self.nodes.len();
        let level = self.draw_level();
        self.vectors.extend_from_slice(&vn);
        self.nodes.push(Node {
            links: vec![Vec::new(); level + 1],
        });

        let Some(mut entry) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return Ok(id);
        };

        // Descend from the top to level+1 greedily.
        for layer in (level + 1..=self.max_level).rev() {
            entry = self.greedy_closest(&vn, entry, layer);
        }

        // Connect on each layer from min(level, max_level) down to 0.
        // The scratch is moved out for the duration so the beam search
        // can borrow `self` immutably.
        let mut scratch = std::mem::take(&mut self.scratch);
        for layer in (0..=level.min(self.max_level)).rev() {
            let candidates =
                self.search_layer(&vn, entry, self.config.ef_construction, layer, &mut scratch);
            let cap = if layer == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let chosen: Vec<usize> = candidates.iter().take(cap).map(|n| n.index).collect();
            for &nb in &chosen {
                self.nodes[id].links[layer].push(nb);
                self.nodes[nb].links[layer].push(id);
                // Prune the neighbour's list if it overflowed.
                if self.nodes[nb].links[layer].len() > cap {
                    let nbv = self.vector(nb).to_vec();
                    let mut scored: Vec<Neighbor> = self.nodes[nb].links[layer]
                        .iter()
                        .map(|&x| Neighbor {
                            index: x,
                            similarity: self.similarity(x, &nbv),
                        })
                        .collect();
                    scored.sort_by(|a, b| {
                        b.similarity
                            .partial_cmp(&a.similarity)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    self.nodes[nb].links[layer] =
                        scored.into_iter().take(cap).map(|n| n.index).collect();
                }
            }
            if let Some(best) = candidates.first() {
                entry = best.index;
            }
        }
        self.scratch = scratch;

        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        Ok(id)
    }

    /// Approximate top-`k` most-cosine-similar indexed vectors to `query`.
    ///
    /// Allocates fresh scratch per call; loops issuing many queries
    /// should hold an [`HnswScratch`] and use [`Hnsw::search_with`].
    pub fn search(&self, query: &[f32], k: usize, exclude: Option<usize>) -> Result<Vec<Neighbor>> {
        let mut scratch = HnswScratch::default();
        self.search_with(query, k, exclude, &mut scratch)
    }

    /// [`Hnsw::search`] with caller-owned scratch: zero allocations per
    /// query beyond the returned hits once the scratch is warm.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<usize>,
        scratch: &mut HnswScratch,
    ) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(EmError::DimensionMismatch {
                context: "HNSW search".into(),
                expected: self.dim,
                actual: query.len(),
            });
        }
        let Some(mut entry) = self.entry else {
            return Ok(Vec::new());
        };
        let mut q = std::mem::take(&mut scratch.qbuf);
        q.clear();
        q.extend_from_slice(query);
        normalize(&mut q);
        for layer in (1..=self.max_level).rev() {
            entry = self.greedy_closest(&q, entry, layer);
        }
        let ef = self.config.ef_search.max(k);
        let mut hits = self.search_layer(&q, entry, ef, 0, scratch);
        scratch.qbuf = q;
        hits.retain(|n| exclude != Some(n.index));
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::top_k;

    fn gaussian_blobs(n_per: usize, n_blobs: usize, dim: usize) -> Embeddings {
        let mut rng = Rng::seed_from_u64(4242);
        let centers: Vec<Vec<f32>> = (0..n_blobs)
            .map(|_| (0..dim).map(|_| rng.normal() as f32 * 3.0).collect())
            .collect();
        let mut rows = Vec::new();
        for c in &centers {
            for _ in 0..n_per {
                rows.push(c.iter().map(|&x| x + rng.normal() as f32 * 0.2).collect());
            }
        }
        Embeddings::from_rows(&rows).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Hnsw::new(
            4,
            HnswConfig {
                m: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Hnsw::new(
            4,
            HnswConfig {
                ef_construction: 2,
                m: 8,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Hnsw::new(0, HnswConfig::default()).is_err());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = Hnsw::new(3, HnswConfig::default()).unwrap();
        assert!(idx.search(&[1.0, 0.0, 0.0], 5, None).unwrap().is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn insert_dim_mismatch() {
        let mut idx = Hnsw::new(3, HnswConfig::default()).unwrap();
        assert!(idx.insert(&[1.0]).is_err());
    }

    #[test]
    fn single_point_found() {
        let mut idx = Hnsw::new(2, HnswConfig::default()).unwrap();
        idx.insert(&[1.0, 0.0]).unwrap();
        let hits = idx.search(&[1.0, 0.1], 1, None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].index, 0);
    }

    #[test]
    fn recall_against_exact_search() {
        let data = gaussian_blobs(40, 5, 16);
        let idx = Hnsw::build(&data, HnswConfig::default()).unwrap();
        assert_eq!(idx.len(), 200);

        // Normalized copy for ground truth (HNSW stores normalized
        // vectors; cosine is normalization-invariant anyway).
        let mut total_hits = 0;
        let mut total = 0;
        for q in (0..200).step_by(17) {
            let exact: Vec<usize> = top_k(&data, data.row(q), 10, Some(q))
                .unwrap()
                .into_iter()
                .map(|n| n.index)
                .collect();
            let approx: Vec<usize> = idx
                .search(data.row(q), 10, Some(q))
                .unwrap()
                .into_iter()
                .map(|n| n.index)
                .collect();
            total_hits += approx.iter().filter(|i| exact.contains(i)).count();
            total += 10;
        }
        let recall = total_hits as f64 / total as f64;
        assert!(recall >= 0.9, "HNSW recall@10 = {recall}");
    }

    #[test]
    fn search_excludes_requested_index() {
        let data = gaussian_blobs(10, 2, 4);
        let idx = Hnsw::build(&data, HnswConfig::default()).unwrap();
        let hits = idx.search(data.row(0), 5, Some(0)).unwrap();
        assert!(hits.iter().all(|n| n.index != 0));
    }

    #[test]
    fn results_sorted_descending() {
        let data = gaussian_blobs(25, 3, 8);
        let idx = Hnsw::build(&data, HnswConfig::default()).unwrap();
        let hits = idx.search(data.row(1), 8, Some(1)).unwrap();
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = gaussian_blobs(20, 2, 6);
        let a = Hnsw::build(&data, HnswConfig::default()).unwrap();
        let b = Hnsw::build(&data, HnswConfig::default()).unwrap();
        let ha: Vec<usize> = a
            .search(data.row(3), 7, Some(3))
            .unwrap()
            .iter()
            .map(|n| n.index)
            .collect();
        let hb: Vec<usize> = b
            .search(data.row(3), 7, Some(3))
            .unwrap()
            .iter()
            .map(|n| n.index)
            .collect();
        assert_eq!(ha, hb);
    }
}
