//! Constrained K-Means: Lloyd iterations with min/max cluster sizes.
//!
//! "We apply a constrained version of K-Means \[6\] to avoid small clusters
//! that cannot be represented under budget limitations, or alternatively,
//! large clusters that demand multiple similarity comparisons. We set a
//! minimal and maximal size for a cluster" (§3.3.1). The paper cites
//! Bradley, Bennett & Demiriz (2000), who solve the constrained
//! assignment step exactly as a min-cost flow. We provide both:
//!
//! * [`AssignmentMode::Greedy`] — a regret-ordered greedy assignment with
//!   a repair pass; `O(n·k log n)` per iteration, the default at
//!   benchmark scale;
//! * [`AssignmentMode::Flow`] — the exact BBD formulation via
//!   [`crate::flow::MinCostFlow`]; used in tests and available for small
//!   instances (the `kmeans` group of `cargo bench -p em-bench --bench
//!   micro` times greedy against flow).

// Numeric kernels here walk several parallel arrays by index; the
// indexed form keeps the lockstep structure visible.
#![allow(clippy::needless_range_loop)]
use rayon::prelude::*;

use em_core::{EmError, Result, Rng};
use em_vector::kernel::{sq_dist, sq_dist_batch};
use em_vector::{AnnPolicy, Embeddings, Hnsw, HnswConfig};

use crate::flow::MinCostFlow;
use crate::kmeans::{kmeans, KMeansConfig, KMeansResult};

/// How the size-constrained assignment step is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentMode {
    /// Regret-ordered greedy with min-size repair (scalable).
    #[default]
    Greedy,
    /// Exact min-cost-flow assignment (Bradley–Bennett–Demiriz).
    Flow,
}

/// Configuration for constrained K-Means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedConfig {
    /// Number of clusters.
    pub k: usize,
    /// Minimum points per cluster.
    pub min_size: usize,
    /// Maximum points per cluster.
    pub max_size: usize,
    /// Lloyd iterations.
    pub max_iters: usize,
    /// Seed (initialisation reuses unconstrained k-means++).
    pub seed: u64,
    /// Assignment solver.
    pub mode: AssignmentMode,
    /// Exact ↔ ANN routing for the greedy assignment step: pools larger
    /// than `ann.threshold` with more than `ann.top_m` clusters shortlist
    /// candidate clusters through HNSW over the centroids instead of
    /// materialising the `n × k` distance matrix. Capacity bounds are
    /// enforced identically on both paths.
    pub ann: AnnPolicy,
}

impl ConstrainedConfig {
    /// Derive cluster-size bounds from fractions of `n`, the way the paper
    /// configures it: "the size of a cluster ranges from 0.05 to 0.15 of
    /// the number of samples against which the graph is created" (§4.2).
    pub fn from_fractions(
        n: usize,
        k: usize,
        min_frac: f64,
        max_frac: f64,
        seed: u64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&min_frac) || !(0.0..=1.0).contains(&max_frac) {
            return Err(EmError::InvalidConfig(
                "cluster size fractions must be in [0,1]".into(),
            ));
        }
        if min_frac > max_frac {
            return Err(EmError::InvalidConfig(
                "min_frac must be <= max_frac".into(),
            ));
        }
        let min_size = (n as f64 * min_frac).floor() as usize;
        let max_size = ((n as f64 * max_frac).ceil() as usize).max(1);
        Ok(ConstrainedConfig {
            k,
            min_size,
            max_size,
            max_iters: 30,
            seed,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        })
    }

    fn validate(&self, n: usize) -> Result<()> {
        if self.k == 0 || self.k > n {
            return Err(EmError::InvalidConfig(format!(
                "constrained kmeans k={} must be in 1..={n}",
                self.k
            )));
        }
        if self.min_size > self.max_size {
            return Err(EmError::InvalidConfig(format!(
                "min_size {} > max_size {}",
                self.min_size, self.max_size
            )));
        }
        if self.k * self.min_size > n {
            return Err(EmError::InvalidConfig(format!(
                "infeasible: k({}) * min_size({}) > n({n})",
                self.k, self.min_size
            )));
        }
        if self.k * self.max_size < n {
            return Err(EmError::InvalidConfig(format!(
                "infeasible: k({}) * max_size({}) < n({n})",
                self.k, self.max_size
            )));
        }
        self.ann.validate()
    }

    /// Whether the greedy assignment takes the HNSW shortlist route. A
    /// shortlist of `top_m ≥ k` clusters would cover every cluster, so
    /// those runs read the exact `n × k` matrix instead: same result,
    /// without the per-point shortlist sort or the per-steal distance
    /// recomputation.
    fn shortlists(&self, n: usize) -> bool {
        self.ann.use_ann(n) && self.k > self.ann.top_m
    }
}

/// Run size-constrained K-Means.
///
/// The returned clustering satisfies
/// `min_size <= |cluster| <= max_size` for every cluster.
pub fn constrained_kmeans(data: &Embeddings, config: ConstrainedConfig) -> Result<KMeansResult> {
    let n = data.len();
    if n == 0 {
        return Err(EmError::EmptyInput("constrained kmeans data".into()));
    }
    config.validate(n)?;
    let dim = data.dim();
    let k = config.k;

    // Initialise centroids from a short unconstrained run.
    let init = kmeans(
        data,
        KMeansConfig {
            k,
            max_iters: 5,
            tol: 1e-4,
            seed: config.seed,
        },
    )?;
    let mut centroids: Vec<f32> = init.centroids.flat().to_vec();
    let mut assignment = vec![usize::MAX; n];
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xBADC_0FFE);

    for _iter in 0..config.max_iters {
        let new_assignment = match config.mode {
            AssignmentMode::Greedy if config.shortlists(n) => {
                greedy_assign_ann(data, &centroids, k, config, &mut rng)?
            }
            AssignmentMode::Greedy => greedy_assign(data, &centroids, k, config, &mut rng)?,
            AssignmentMode::Flow => flow_assign(data, &centroids, k, config)?,
        };

        let converged = new_assignment == assignment;
        assignment = new_assignment;

        // Centroid update.
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignment[i];
            counts[c] += 1;
            for (acc, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(data.row(i)) {
                *acc += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                for x in &mut sums[c * dim..(c + 1) * dim] {
                    *x *= inv;
                }
            } else {
                sums[c * dim..(c + 1) * dim].copy_from_slice(&centroids[c * dim..(c + 1) * dim]);
            }
        }
        centroids = sums;
        if converged {
            break;
        }
    }

    let mut sse = 0.0f32;
    let mut sizes = vec![0usize; k];
    let final_d: Vec<f32> = (0..n)
        .into_par_iter()
        .map(|i| {
            let c = assignment[i];
            sq_dist(data.row(i), &centroids[c * dim..(c + 1) * dim])
        })
        .collect();
    for i in 0..n {
        sizes[assignment[i]] += 1;
        sse += final_d[i];
    }

    Ok(KMeansResult {
        centroids: Embeddings::from_flat(dim, centroids)?,
        assignment,
        sse,
        sizes,
    })
}

/// One capacity-bounded greedy assignment pass over fixed centroids,
/// routed per `config.ann` exactly as the Lloyd loop routes it.
///
/// This is the stage the ANN layer accelerates, exposed on its own so
/// benches can time it in isolation: the full [`constrained_kmeans`]
/// wraps it in an unconstrained warm-start that costs the same on both
/// routes and would dilute the measured stage speedup. The RNG is
/// seeded the same way the Lloyd loop seeds its first iteration, so a
/// single pass here reproduces iteration 0 of the full run bit for bit.
pub fn greedy_assign_pass(
    data: &Embeddings,
    centroids: &Embeddings,
    config: &ConstrainedConfig,
) -> Result<Vec<usize>> {
    let n = data.len();
    if n == 0 {
        return Err(EmError::EmptyInput("constrained assignment data".into()));
    }
    config.validate(n)?;
    if centroids.dim() != data.dim() || centroids.len() != config.k {
        return Err(EmError::InvalidConfig(format!(
            "centroids shape {}x{} does not match k={} points of dim {}",
            centroids.len(),
            centroids.dim(),
            config.k,
            data.dim()
        )));
    }
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xBADC_0FFE);
    if config.shortlists(n) {
        greedy_assign_ann(data, centroids.flat(), config.k, *config, &mut rng)
    } else {
        greedy_assign(data, centroids.flat(), config.k, *config, &mut rng)
    }
}

/// Greedy capacity-respecting assignment with min-size repair.
///
/// The full point × centroid distance matrix is computed once by the
/// blocked kernel (parallel over points); the regret, assignment and
/// repair passes below are all lookups into it. The seed implementation
/// recomputed every distance in each pass — 2–3× the kernel work per
/// Lloyd iteration.
fn greedy_assign(
    data: &Embeddings,
    centroids: &[f32],
    k: usize,
    config: ConstrainedConfig,
    rng: &mut Rng,
) -> Result<Vec<usize>> {
    let n = data.len();
    let dmat = sq_dist_batch(data.flat(), n, centroids, k, data.dim());
    let dist = |i: usize, c: usize| -> f32 { dmat[i * k + c] };

    // Regret ordering: points whose best choice matters most go first.
    let mut order: Vec<usize> = (0..n).collect();
    let regret: Vec<f32> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut best = f32::INFINITY;
            let mut second = f32::INFINITY;
            for c in 0..k {
                let d = dist(i, c);
                if d < best {
                    second = best;
                    best = d;
                } else if d < second {
                    second = d;
                }
            }
            if second.is_finite() {
                second - best
            } else {
                0.0
            }
        })
        .collect();
    // Shuffle first so equal-regret ties don't follow input order.
    rng.shuffle(&mut order);
    order.sort_by(|&a, &b| {
        regret[b]
            .partial_cmp(&regret[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assignment = vec![usize::MAX; n];
    let mut sizes = vec![0usize; k];
    for &i in &order {
        let mut best_c = usize::MAX;
        let mut best_d = f32::INFINITY;
        for c in 0..k {
            if sizes[c] >= config.max_size {
                continue;
            }
            let d = dist(i, c);
            if d < best_d {
                best_d = d;
                best_c = c;
            }
        }
        if best_c == usize::MAX {
            // config.validate guarantees k*max_size >= n, so a slot exists.
            return Err(EmError::NoSolution(
                "greedy assignment ran out of capacity".into(),
            ));
        }
        assignment[i] = best_c;
        sizes[best_c] += 1;
    }

    // Repair pass: lift clusters below min_size by stealing the
    // cheapest-to-move points from clusters that can spare them.
    while let Some(under) = (0..k).find(|&c| sizes[c] < config.min_size) {
        let mut best: Option<(usize, f32)> = None; // (point, added cost)
        for i in 0..n {
            let cur = assignment[i];
            if cur == under || sizes[cur] <= config.min_size {
                continue;
            }
            let added = dist(i, under) - dist(i, cur);
            if best.map(|(_, a)| added < a).unwrap_or(true) {
                best = Some((i, added));
            }
        }
        let Some((steal, _)) = best else {
            return Err(EmError::NoSolution(
                "min-size repair found no donor cluster".into(),
            ));
        };
        sizes[assignment[steal]] -= 1;
        assignment[steal] = under;
        sizes[under] += 1;
    }

    Ok(assignment)
}

/// ANN-assisted greedy assignment: same regret-ordered greedy +
/// min-size repair as [`greedy_assign`], but no `n × k` distance matrix
/// is ever materialised.
///
/// Each point queries an HNSW index built over the centroids for its
/// `top_m` candidate clusters (cosine shortlist, then exact
/// squared-distance re-rank — HNSW is cosine-specialised while K-Means
/// wants L2, so the index only nominates candidates). The assignment
/// pass walks the shortlist; if every shortlisted cluster is at
/// capacity it falls back to an on-demand scan of all `k` (validate
/// guarantees a slot exists). The repair pass caches each point's
/// assigned distance and the distance column of the cluster it is
/// filling.
///
/// Only reached when `k > top_m` ([`ConstrainedConfig::shortlists`]);
/// a shortlist covering every cluster is the exact path.
fn greedy_assign_ann(
    data: &Embeddings,
    centroids: &[f32],
    k: usize,
    config: ConstrainedConfig,
    rng: &mut Rng,
) -> Result<Vec<usize>> {
    let n = data.len();
    let dim = data.dim();
    let top_m = config.ann.top_m;
    let cdist =
        |i: usize, c: usize| -> f32 { sq_dist(data.row(i), &centroids[c * dim..(c + 1) * dim]) };

    // Per-point candidate shortlist, sorted by exact squared distance
    // ascending (stable sort from index order, so ties keep the exact
    // path's lowest-index-wins semantics).
    // The cosine index only nominates: fetch 2× the shortlist width,
    // re-rank by exact L2 and keep `top_m` — the oversample absorbs the
    // cosine ↔ L2 ranking gap for unnormalised centroids.
    let fetch = top_m.saturating_mul(2).min(k);
    let cent = Embeddings::from_flat(dim, centroids.to_vec())?;
    // The index holds only the k centroids — a small graph where the
    // policy's record-scale beam (m 16, ef 64) would visit nearly every
    // node and lose to a flat scan. Halve the degree and clamp the beam
    // to the fetch size: nomination recall is protected by the 2×
    // oversample, the exact re-rank and the repair pass, so a narrow
    // beam costs SSE nothing measurable (gated ≤ 1.25× in the ann bench;
    // measured ≈ 1.0005×).
    let base = config.ann.hnsw_seeded(config.seed ^ 0xCE_A551);
    let m = base.m.div_ceil(2).max(2);
    let hnsw_cfg = HnswConfig {
        m,
        ef_construction: base.ef_construction.max(m),
        ef_search: fetch.max(8),
        ..base
    };
    let index = Hnsw::build(&cent, hnsw_cfg)?;
    // Chunked so each worker reuses one HNSW scratch and one set of
    // candidate buffers across its whole chunk (same precedent as the
    // blocking tier's probe loop) — per-point allocations would
    // otherwise rival the distance work the shortlist saves.
    const SHORTLIST_CHUNK: usize = 1024;
    // Candidate clusters and their exact distances, sorted ascending.
    type Shortlist = (Vec<u32>, Vec<f32>);
    let n_chunks = n.div_ceil(SHORTLIST_CHUNK);
    let per_chunk: Vec<Result<Vec<Shortlist>>> = (0..n_chunks)
        .into_par_iter()
        .map(|chunk| -> Result<Vec<Shortlist>> {
            let lo = chunk * SHORTLIST_CHUNK;
            let hi = (lo + SHORTLIST_CHUNK).min(n);
            let mut out = Vec::with_capacity(hi - lo);
            let mut scratch = em_vector::HnswScratch::default();
            let mut cands: Vec<u32> = Vec::new();
            let mut dists: Vec<f32> = Vec::new();
            let mut order: Vec<usize> = Vec::new();
            for i in lo..hi {
                cands.clear();
                cands.extend(
                    index
                        .search_with(data.row(i), fetch, None, &mut scratch)?
                        .iter()
                        .map(|nb| nb.index as u32),
                );
                if cands.is_empty() {
                    cands.extend(0..k as u32);
                }
                dists.clear();
                dists.extend(cands.iter().map(|&c| cdist(i, c as usize)));
                // Sort both arrays together by distance, index breaking
                // ties.
                order.clear();
                order.extend(0..cands.len());
                order.sort_by(|&a, &b| {
                    dists[a]
                        .partial_cmp(&dists[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(cands[a].cmp(&cands[b]))
                });
                order.truncate(top_m.max(1));
                let cands_sorted: Vec<u32> = order.iter().map(|&j| cands[j]).collect();
                let dists_sorted: Vec<f32> = order.iter().map(|&j| dists[j]).collect();
                out.push((cands_sorted, dists_sorted));
            }
            Ok(out)
        })
        .collect();
    let mut shortlists: Vec<Shortlist> = Vec::with_capacity(n);
    for chunk in per_chunk {
        shortlists.extend(chunk?);
    }

    // Regret over the shortlist.
    let mut order: Vec<usize> = (0..n).collect();
    let regret: Vec<f32> = shortlists
        .par_iter()
        .map(|(_, d)| if d.len() >= 2 { d[1] - d[0] } else { 0.0 })
        .collect();
    rng.shuffle(&mut order);
    order.sort_by(|&a, &b| {
        regret[b]
            .partial_cmp(&regret[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assignment = vec![usize::MAX; n];
    let mut assigned_d = vec![f32::INFINITY; n];
    let mut sizes = vec![0usize; k];
    for &i in &order {
        let (cands, dists) = &shortlists[i];
        let mut best_c = usize::MAX;
        let mut best_d = f32::INFINITY;
        for (j, &c) in cands.iter().enumerate() {
            if sizes[c as usize] < config.max_size {
                best_c = c as usize;
                best_d = dists[j];
                break;
            }
        }
        if best_c == usize::MAX {
            // Shortlist exhausted: on-demand scan of every cluster.
            for c in 0..k {
                if sizes[c] >= config.max_size {
                    continue;
                }
                let d = cdist(i, c);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
        }
        if best_c == usize::MAX {
            // config.validate guarantees k*max_size >= n, so a slot exists.
            return Err(EmError::NoSolution(
                "greedy assignment ran out of capacity".into(),
            ));
        }
        assignment[i] = best_c;
        assigned_d[i] = best_d;
        sizes[best_c] += 1;
    }

    // Min-size repair, identical move rule to the exact path. Centroids
    // are fixed within the pass, so the under-filled cluster's distance
    // column is computed once and read by every steal that fills it.
    let mut column: Vec<f32> = Vec::with_capacity(n);
    let mut column_of = usize::MAX;
    while let Some(under) = (0..k).find(|&c| sizes[c] < config.min_size) {
        if column_of != under {
            column.clear();
            column.extend((0..n).map(|i| cdist(i, under)));
            column_of = under;
        }
        let mut best: Option<(usize, f32)> = None; // (point, added cost)
        for i in 0..n {
            let cur = assignment[i];
            if cur == under || sizes[cur] <= config.min_size {
                continue;
            }
            let added = column[i] - assigned_d[i];
            if best.map(|(_, a)| added < a).unwrap_or(true) {
                best = Some((i, added));
            }
        }
        let Some((steal, _)) = best else {
            return Err(EmError::NoSolution(
                "min-size repair found no donor cluster".into(),
            ));
        };
        sizes[assignment[steal]] -= 1;
        assignment[steal] = under;
        assigned_d[steal] = column[steal];
        sizes[under] += 1;
    }

    Ok(assignment)
}

/// Exact assignment by min-cost flow (Bradley–Bennett–Demiriz).
///
/// Network: `source → point_i` (cap 1), `point_i → cluster_c`
/// (cap 1, cost = scaled distance), `cluster_c → sink` twice — the first
/// `min_size` units at a large negative cost (forcing the optimum to fill
/// every cluster's minimum), the remainder at cost 0.
fn flow_assign(
    data: &Embeddings,
    centroids: &[f32],
    k: usize,
    config: ConstrainedConfig,
) -> Result<Vec<usize>> {
    let n = data.len();
    let dim = data.dim();
    const SCALE: f64 = 1_000_000.0;

    let source = 0usize;
    let sink = 1usize;
    let point_node = |i: usize| 2 + i;
    let cluster_node = |c: usize| 2 + n + c;
    let mut net = MinCostFlow::new(2 + n + k);

    // The forcing bonus must dominate any sum of distance costs.
    let mut max_cost = 0i64;
    let mut edge_ids = vec![(0usize, 0usize); n * k];
    for i in 0..n {
        net.add_edge(source, point_node(i), 1, 0)?;
        for c in 0..k {
            let d = sq_dist(data.row(i), &centroids[c * dim..(c + 1) * dim]) as f64;
            let cost = (d * SCALE) as i64;
            max_cost = max_cost.max(cost);
            edge_ids[i * k + c] = net.add_edge(point_node(i), cluster_node(c), 1, cost)?;
        }
    }
    let bonus = max_cost.saturating_mul(n as i64).saturating_add(1).max(1);
    for c in 0..k {
        if config.min_size > 0 {
            net.add_edge(cluster_node(c), sink, config.min_size as i64, -bonus)?;
        }
        let slack = config.max_size.saturating_sub(config.min_size);
        if slack > 0 {
            net.add_edge(cluster_node(c), sink, slack as i64, 0)?;
        }
    }

    let result = net.run(source, sink, n as i64)?;
    if result.flow != n as i64 {
        return Err(EmError::NoSolution(format!(
            "flow assignment routed {} of {n} points",
            result.flow
        )));
    }

    let mut assignment = vec![usize::MAX; n];
    for i in 0..n {
        for c in 0..k {
            if net.edge_flow(edge_ids[i * k + c]) > 0 {
                assignment[i] = c;
                break;
            }
        }
        if assignment[i] == usize::MAX {
            return Err(EmError::NoSolution(format!(
                "flow assignment left point {i} unrouted"
            )));
        }
    }
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[[f32; 2]], spread: f32, seed: u64) -> Embeddings {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    c[0] + rng.normal() as f32 * spread,
                    c[1] + rng.normal() as f32 * spread,
                ]);
            }
        }
        Embeddings::from_rows(&rows).unwrap()
    }

    fn check_bounds(res: &KMeansResult, min: usize, max: usize) {
        for (c, &s) in res.sizes.iter().enumerate() {
            assert!(
                (min..=max).contains(&s),
                "cluster {c} size {s} outside [{min},{max}]; all sizes {:?}",
                res.sizes
            );
        }
    }

    #[test]
    fn validates_feasibility() {
        let data = blobs(10, &[[0.0, 0.0]], 0.1, 1);
        // k*min > n
        let bad = ConstrainedConfig {
            k: 3,
            min_size: 5,
            max_size: 10,
            max_iters: 5,
            seed: 0,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        assert!(constrained_kmeans(&data, bad).is_err());
        // k*max < n
        let bad = ConstrainedConfig {
            k: 2,
            min_size: 0,
            max_size: 4,
            max_iters: 5,
            seed: 0,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        assert!(constrained_kmeans(&data, bad).is_err());
        // min > max
        let bad = ConstrainedConfig {
            k: 2,
            min_size: 6,
            max_size: 5,
            max_iters: 5,
            seed: 0,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        assert!(constrained_kmeans(&data, bad).is_err());
    }

    #[test]
    fn greedy_respects_bounds_on_skewed_data() {
        // One huge blob and one tiny blob; unconstrained k-means with k=3
        // would produce very uneven sizes.
        let mut rows = blobs(80, &[[0.0, 0.0]], 0.5, 2).flat().to_vec();
        rows.extend_from_slice(blobs(10, &[[9.0, 9.0]], 0.2, 3).flat());
        let data = Embeddings::from_flat(2, rows).unwrap();
        let cfg = ConstrainedConfig {
            k: 3,
            min_size: 20,
            max_size: 40,
            max_iters: 20,
            seed: 5,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let res = constrained_kmeans(&data, cfg).unwrap();
        check_bounds(&res, 20, 40);
        assert_eq!(res.sizes.iter().sum::<usize>(), 90);
    }

    #[test]
    fn flow_respects_bounds_and_beats_or_ties_greedy() {
        let data = blobs(15, &[[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]], 0.8, 7);
        let base = ConstrainedConfig {
            k: 3,
            min_size: 10,
            max_size: 20,
            max_iters: 15,
            seed: 9,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let greedy = constrained_kmeans(&data, base).unwrap();
        let flow = constrained_kmeans(
            &data,
            ConstrainedConfig {
                mode: AssignmentMode::Flow,
                ann: AnnPolicy::default(),
                ..base
            },
        )
        .unwrap();
        check_bounds(&greedy, 10, 20);
        check_bounds(&flow, 10, 20);
        // The exact assignment can only improve the final objective given
        // identical centroid trajectories — allow small slack because the
        // trajectories may diverge.
        assert!(
            flow.sse <= greedy.sse * 1.10,
            "flow {} vs greedy {}",
            flow.sse,
            greedy.sse
        );
    }

    #[test]
    fn exact_sizes_when_bounds_are_tight() {
        let data = blobs(12, &[[0.0, 0.0], [5.0, 5.0]], 1.0, 11);
        for mode in [AssignmentMode::Greedy, AssignmentMode::Flow] {
            let cfg = ConstrainedConfig {
                k: 4,
                min_size: 6,
                max_size: 6,
                max_iters: 10,
                seed: 1,
                mode,
                ann: AnnPolicy::default(),
            };
            let res = constrained_kmeans(&data, cfg).unwrap();
            assert!(
                res.sizes.iter().all(|&s| s == 6),
                "{mode:?}: {:?}",
                res.sizes
            );
        }
    }

    #[test]
    fn separated_blobs_stay_intact_when_feasible() {
        let data = blobs(20, &[[0.0, 0.0], [10.0, 10.0]], 0.3, 13);
        let cfg = ConstrainedConfig {
            k: 2,
            min_size: 10,
            max_size: 30,
            max_iters: 20,
            seed: 3,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let res = constrained_kmeans(&data, cfg).unwrap();
        // Each blob should map to exactly one cluster.
        let first = res.assignment[0];
        assert!(res.assignment[..20].iter().all(|&c| c == first));
        let second = res.assignment[20];
        assert_ne!(first, second);
        assert!(res.assignment[20..].iter().all(|&c| c == second));
    }

    #[test]
    fn from_fractions_maps_paper_config() {
        let cfg = ConstrainedConfig::from_fractions(1000, 10, 0.05, 0.15, 0).unwrap();
        assert_eq!(cfg.min_size, 50);
        assert_eq!(cfg.max_size, 150);
        assert!(ConstrainedConfig::from_fractions(10, 2, 0.5, 0.2, 0).is_err());
        assert!(ConstrainedConfig::from_fractions(10, 2, -0.1, 0.5, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(20, &[[0.0, 0.0], [6.0, 0.0]], 1.0, 17);
        let cfg = ConstrainedConfig {
            k: 2,
            min_size: 15,
            max_size: 25,
            max_iters: 10,
            seed: 21,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let a = constrained_kmeans(&data, cfg).unwrap();
        let b = constrained_kmeans(&data, cfg).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn min_size_zero_reduces_to_capped_kmeans() {
        let data = blobs(10, &[[0.0, 0.0], [8.0, 8.0]], 0.4, 19);
        let cfg = ConstrainedConfig {
            k: 2,
            min_size: 0,
            max_size: 20,
            max_iters: 10,
            seed: 23,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let res = constrained_kmeans(&data, cfg).unwrap();
        assert_eq!(res.sizes.iter().sum::<usize>(), 20);
    }

    /// Golden for the shortlist route (`k > top_m`): uneven blobs force
    /// the min-size repair to move points, both in one greedy pass and
    /// across the Lloyd loop. The digests were taken from the repair that
    /// recomputed each under-filled cluster's distances per steal;
    /// caching that column must not move a bit.
    #[test]
    fn shortlist_repair_matches_pinned_digest_when_k_exceeds_top_m() {
        let digest = |assignment: &[usize]| {
            let bytes: Vec<u8> = assignment
                .iter()
                .flat_map(|&c| (c as u32).to_le_bytes())
                .collect();
            em_core::codec::fnv1a64(&bytes)
        };
        em_vector::with_simd_tier(em_vector::SimdTier::Portable, || {
            rayon::serial_scope(|| {
                let mut rng = Rng::seed_from_u64(51);
                let dim = 8;
                let mut rows = Vec::new();
                for c in 0..24 {
                    let center: Vec<f32> = (0..dim).map(|_| rng.normal() as f32 * 4.0).collect();
                    for _ in 0..2 + 3 * (c % 7) {
                        rows.push(
                            center
                                .iter()
                                .map(|&x| x + rng.normal() as f32 * 0.7)
                                .collect::<Vec<f32>>(),
                        );
                    }
                }
                let data = Embeddings::from_rows(&rows).unwrap();
                let mut ann = AnnPolicy::always();
                ann.top_m = 4;
                let cfg = ConstrainedConfig {
                    k: 24,
                    min_size: 8,
                    max_size: 16,
                    max_iters: 10,
                    seed: 53,
                    mode: AssignmentMode::Greedy,
                    ann,
                };
                let full = constrained_kmeans(&data, cfg).unwrap();
                check_bounds(&full, 8, 16);

                let init = kmeans(
                    &data,
                    KMeansConfig {
                        k: 24,
                        max_iters: 5,
                        tol: 1e-4,
                        seed: 53,
                    },
                )
                .unwrap();
                let pass = greedy_assign_pass(&data, &init.centroids, &cfg).unwrap();
                let unrepaired = greedy_assign_pass(
                    &data,
                    &init.centroids,
                    &ConstrainedConfig { min_size: 0, ..cfg },
                )
                .unwrap();
                let moved = pass.iter().zip(&unrepaired).filter(|(a, b)| a != b).count();
                assert_eq!(moved, 37, "the repair pass must move points");
                assert_eq!(digest(&pass), 0xac24_2101_8c44_9996);
                assert_eq!(digest(&full.assignment), 0x6f9c_442b_9ab5_c3f3);
                assert_eq!(full.sse.to_bits(), 0x4512_e715);
            })
        });
    }

    /// Golden: below the policy threshold the `ann` field is inert —
    /// the default policy routes exactly like an explicit never().
    #[test]
    fn below_threshold_routes_through_exact_path() {
        let data = blobs(40, &[[0.0, 0.0], [7.0, 7.0]], 0.6, 37);
        let base = ConstrainedConfig {
            k: 2,
            min_size: 30,
            max_size: 50,
            max_iters: 10,
            seed: 39,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::default(),
        };
        let a = constrained_kmeans(&data, base).unwrap();
        let b = constrained_kmeans(
            &data,
            ConstrainedConfig {
                ann: AnnPolicy::never(),
                ..base
            },
        )
        .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.sse.to_bits(), b.sse.to_bits());
    }

    /// A true shortlist (`top_m < k`) must still satisfy the size
    /// bounds exactly, including when repair has to move points.
    #[test]
    fn ann_shortlist_respects_bounds_with_many_clusters() {
        let centers: Vec<[f32; 2]> = (0..20)
            .map(|c| [(c % 5) as f32 * 4.0, (c / 5) as f32 * 4.0])
            .collect();
        let data = blobs(12, &centers, 0.9, 41);
        let mut ann = AnnPolicy::always();
        ann.top_m = 4;
        let cfg = ConstrainedConfig {
            k: 20,
            min_size: 6,
            max_size: 18,
            max_iters: 8,
            seed: 43,
            mode: AssignmentMode::Greedy,
            ann,
        };
        let res = constrained_kmeans(&data, cfg).unwrap();
        check_bounds(&res, 6, 18);
        assert_eq!(res.sizes.iter().sum::<usize>(), 240);
    }

    /// Shortlisted assignment quality stays close to exact: SSE within
    /// a modest factor on blob data. Centers point in random directions
    /// (like real embeddings) — axis-aligned 2-D grids are a known
    /// worst case for the cosine nomination stage.
    #[test]
    fn ann_shortlist_sse_close_to_exact() {
        let mut rng = Rng::seed_from_u64(45);
        let dim = 8;
        let centers: Vec<Vec<f32>> = (0..20)
            .map(|_| (0..dim).map(|_| rng.normal() as f32 * 5.0).collect())
            .collect();
        let mut rows = Vec::new();
        for c in &centers {
            for _ in 0..12 {
                rows.push(
                    c.iter()
                        .map(|&x| x + rng.normal() as f32 * 0.5)
                        .collect::<Vec<f32>>(),
                );
            }
        }
        let data = Embeddings::from_rows(&rows).unwrap();
        let base = ConstrainedConfig {
            k: 20,
            min_size: 4,
            max_size: 30,
            max_iters: 8,
            seed: 49,
            mode: AssignmentMode::Greedy,
            ann: AnnPolicy::never(),
        };
        let exact = constrained_kmeans(&data, base).unwrap();
        let mut ann = AnnPolicy::always();
        ann.top_m = 4;
        let approx = constrained_kmeans(&data, ConstrainedConfig { ann, ..base }).unwrap();
        assert!(
            approx.sse <= exact.sse * 1.25,
            "ann sse {} vs exact {}",
            approx.sse,
            exact.sse
        );
    }
}
