//! Weighted PageRank centrality (paper Eq. 5).
//!
//! "We use PageRank, a well-known centrality measure for node's
//! importance in a graph ... Since edge directionality is important for
//! PageRank, we produce two inversely directed edges for each edge in a
//! connected component with the same edge weight" (§3.5.2). Our
//! [`crate::PairGraph`] adjacency is already symmetric, which is exactly
//! that construction. The update implemented here is Eq. 5:
//!
//! ```text
//! S_cen(v) = ρ · Σ_{v'∈N(v)} A(v,v') · S_cen(v') / Σ_{v''} A(v',v'')
//!            + (1 − ρ) / |V_cc|
//! ```
//!
//! computed per connected component by power iteration.
//!
//! **Component-local CSR.** Before iterating, each node's neighbours are
//! translated once into local indexes (`offsets`/`targets`) with their
//! weights widened to `f64`, so a power iteration reads three flat
//! arrays and does no map lookup per edge. The translation keeps the
//! graph's neighbour order, and every `next[u]` still gains
//! `share · w` in component order, then neighbour order, from the same
//! `f32 → f64` conversion: the scores are bit-identical to looking each
//! neighbour up on every iteration (pinned by this module's tests
//! against that loop).

use em_core::{EmError, Result};

use crate::graph::PairGraph;

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor ρ (the paper's "sampling parameter ... to avoid
    /// dead-end situations"). 0.85 is the classic value.
    pub rho: f64,
    /// Maximum power iterations.
    pub max_iters: usize,
    /// L1 convergence threshold.
    pub tol: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            rho: 0.85,
            max_iters: 100,
            tol: 1e-9,
        }
    }
}

impl PageRankConfig {
    fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.rho) {
            return Err(EmError::InvalidConfig(format!(
                "PageRank rho {} must be in [0,1)",
                self.rho
            )));
        }
        if self.max_iters == 0 {
            return Err(EmError::InvalidConfig(
                "PageRank needs at least one iteration".into(),
            ));
        }
        Ok(())
    }
}

/// PageRank scores for the nodes of one connected component.
///
/// `component` lists the node ids of the component; the returned vector is
/// aligned with it and sums to 1. Nodes with no neighbours inside the
/// component (possible only for singleton components) get score 1.
pub fn pagerank(
    graph: &PairGraph,
    component: &[usize],
    config: PageRankConfig,
) -> Result<Vec<f64>> {
    config.validate()?;
    let m = component.len();
    if m == 0 {
        return Err(EmError::EmptyInput("pagerank component".into()));
    }

    let n = graph.len();
    if let Some(&v) = component.iter().find(|&&v| v >= n) {
        return Err(EmError::IndexOutOfBounds {
            context: "pagerank component node".into(),
            index: v,
            len: n,
        });
    }

    // Local index lookup, used once per adjacency entry to build the
    // component-local CSR below.
    let mut local = std::collections::HashMap::with_capacity(m);
    for (li, &v) in component.iter().enumerate() {
        local.insert(v, li);
    }

    // Out-weight totals (= in-weight totals, the graph is symmetric), and
    // node `li`'s neighbours as local indexes in
    // `targets[offsets[li]..offsets[li + 1]]`, in the graph's neighbour
    // order, with their weights already widened to `f64`.
    let mut out_weight = vec![0.0f64; m];
    let mut offsets = Vec::with_capacity(m + 1);
    let mut targets: Vec<u32> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    offsets.push(0);
    for (li, &v) in component.iter().enumerate() {
        for &(u, w) in graph.neighbors(v) {
            let Some(&lu) = local.get(&(u as usize)) else {
                return Err(EmError::InvalidConfig(format!(
                    "node {v} has neighbour {u} outside its component"
                )));
            };
            out_weight[li] += w as f64;
            targets.push(lu as u32);
            weights.push(w as f64);
        }
        offsets.push(targets.len());
    }
    if m == 1 {
        return Ok(vec![1.0]);
    }

    let teleport = (1.0 - config.rho) / m as f64;
    let mut rank = vec![1.0 / m as f64; m];
    let mut next = vec![0.0f64; m];

    for _ in 0..config.max_iters {
        next.iter_mut().for_each(|x| *x = teleport);
        let mut dangling_mass = 0.0f64;
        for (li, &out) in out_weight.iter().enumerate() {
            if out <= 0.0 {
                dangling_mass += rank[li];
                continue;
            }
            let share = config.rho * rank[li] / out;
            let edges = offsets[li]..offsets[li + 1];
            for (&lu, &w) in targets[edges.clone()].iter().zip(&weights[edges]) {
                next[lu as usize] += share * w;
            }
        }
        // Dangling nodes spread their mass uniformly (standard fix; only
        // relevant for degenerate components).
        if dangling_mass > 0.0 {
            let spread = config.rho * dangling_mass / m as f64;
            for x in next.iter_mut() {
                *x += spread;
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tol {
            break;
        }
    }
    Ok(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn pool_graph(n: usize) -> PairGraph {
        PairGraph::new(vec![NodeKind::PredictedMatch; n], vec![0.9; n]).unwrap()
    }

    #[test]
    fn scores_sum_to_one() {
        let mut g = pool_graph(5);
        g.add_edge(0, 1, 0.9).unwrap();
        g.add_edge(1, 2, 0.8).unwrap();
        g.add_edge(2, 3, 0.7).unwrap();
        g.add_edge(3, 4, 0.6).unwrap();
        g.add_edge(4, 0, 0.5).unwrap();
        let pr = pagerank(&g, &[0, 1, 2, 3, 4], PageRankConfig::default()).unwrap();
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn star_center_is_most_central() {
        let mut g = pool_graph(6);
        for leaf in 1..6 {
            g.add_edge(0, leaf, 0.8).unwrap();
        }
        let pr = pagerank(&g, &[0, 1, 2, 3, 4, 5], PageRankConfig::default()).unwrap();
        for leaf in 1..6 {
            assert!(pr[0] > pr[leaf], "center {} leaf {}", pr[0], pr[leaf]);
        }
        // Leaves are symmetric.
        for leaf in 2..6 {
            assert!((pr[1] - pr[leaf]).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_ring_is_uniform() {
        let mut g = pool_graph(4);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.5).unwrap();
        g.add_edge(2, 3, 0.5).unwrap();
        g.add_edge(3, 0, 0.5).unwrap();
        let pr = pagerank(&g, &[0, 1, 2, 3], PageRankConfig::default()).unwrap();
        for &x in &pr {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn heavier_edges_attract_rank() {
        // Triangle where node 2's incident edges are heavier.
        let mut g = pool_graph(3);
        g.add_edge(0, 1, 0.1).unwrap();
        g.add_edge(1, 2, 0.9).unwrap();
        g.add_edge(0, 2, 0.9).unwrap();
        let pr = pagerank(&g, &[0, 1, 2], PageRankConfig::default()).unwrap();
        assert!(pr[2] > pr[0]);
        assert!(pr[2] > pr[1]);
    }

    #[test]
    fn singleton_component_scores_one() {
        let g = pool_graph(3);
        let pr = pagerank(&g, &[1], PageRankConfig::default()).unwrap();
        assert_eq!(pr, vec![1.0]);
    }

    #[test]
    fn rejects_cross_component_neighbours() {
        let mut g = pool_graph(3);
        g.add_edge(0, 1, 0.5).unwrap();
        // Component listing only node 0 is wrong — 1 is its neighbour.
        assert!(pagerank(&g, &[0], PageRankConfig::default()).is_err());
    }

    #[test]
    fn rejects_component_nodes_outside_the_graph() {
        let g = pool_graph(3);
        let err = pagerank(&g, &[0, 3], PageRankConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                EmError::IndexOutOfBounds {
                    index: 3,
                    len: 3,
                    ..
                }
            ),
            "unexpected error {err}"
        );
    }

    /// PageRank with one `HashMap` lookup per edge on every power
    /// iteration: the oracle the CSR loop must match bit for bit.
    fn pagerank_per_edge_lookup(
        graph: &PairGraph,
        component: &[usize],
        config: PageRankConfig,
    ) -> Vec<f64> {
        let m = component.len();
        let mut local = std::collections::HashMap::with_capacity(m);
        for (li, &v) in component.iter().enumerate() {
            local.insert(v, li);
        }
        let mut out_weight = vec![0.0f64; m];
        for (li, &v) in component.iter().enumerate() {
            for &(_, w) in graph.neighbors(v) {
                out_weight[li] += w as f64;
            }
        }
        if m == 1 {
            return vec![1.0];
        }
        let teleport = (1.0 - config.rho) / m as f64;
        let mut rank = vec![1.0 / m as f64; m];
        let mut next = vec![0.0f64; m];
        for _ in 0..config.max_iters {
            next.iter_mut().for_each(|x| *x = teleport);
            let mut dangling_mass = 0.0f64;
            for (li, &v) in component.iter().enumerate() {
                if out_weight[li] <= 0.0 {
                    dangling_mass += rank[li];
                    continue;
                }
                let share = config.rho * rank[li] / out_weight[li];
                for &(u, w) in graph.neighbors(v) {
                    let lu = local[&(u as usize)];
                    next[lu] += share * w as f64;
                }
            }
            if dangling_mass > 0.0 {
                let spread = config.rho * dangling_mass / m as f64;
                for x in next.iter_mut() {
                    *x += spread;
                }
            }
            let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, &mut next);
            if delta < config.tol {
                break;
            }
        }
        rank
    }

    #[test]
    fn csr_iteration_is_bit_identical_to_per_edge_lookup() {
        use em_core::Rng;
        let mut rng = Rng::seed_from_u64(0x9A6E_4A4C);
        let mut checked = (0usize, 0usize, 0usize); // groups, singletons, with a dangling node
        for case in 0..24 {
            let n = rng.range(20, 160);
            let mut g = pool_graph(n);
            let edges = rng.range(n / 2, 3 * n);
            for _ in 0..edges {
                let (u, v) = (rng.below(n), rng.below(n));
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v, rng.range_f64(0.01, 1.0) as f32).unwrap();
                }
            }
            // Merge runs of 1–3 shuffled connected components into one
            // node set: each set is closed under neighbours, and a set
            // holding an isolated node beside others has a dangling node.
            let mut components = crate::connected_components(&g);
            rng.shuffle(&mut components);
            let mut rest = components.as_slice();
            while !rest.is_empty() {
                let take = rng.range(1, 4).min(rest.len());
                let mut group: Vec<usize> = rest[..take].concat();
                rest = &rest[take..];
                rng.shuffle(&mut group);
                let config = PageRankConfig {
                    rho: [0.85, 0.5, 0.99][case % 3],
                    max_iters: [100, 7][case % 2],
                    tol: 1e-9,
                };
                let fast = pagerank(&g, &group, config).unwrap();
                let oracle = pagerank_per_edge_lookup(&g, &group, config);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&oracle), "case {case}, group {group:?}");
                checked.0 += 1;
                checked.1 += usize::from(group.len() == 1);
                checked.2 +=
                    usize::from(group.len() > 1 && group.iter().any(|&v| g.degree(v) == 0));
            }
        }
        assert!(checked.0 > 100, "too few groups: {checked:?}");
        assert!(
            checked.1 > 0 && checked.2 > 0,
            "missing shapes: {checked:?}"
        );
    }

    #[test]
    fn validates_config() {
        let g = pool_graph(2);
        assert!(pagerank(
            &g,
            &[0, 1],
            PageRankConfig {
                rho: 1.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(pagerank(
            &g,
            &[0, 1],
            PageRankConfig {
                max_iters: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(pagerank(&g, &[], PageRankConfig::default()).is_err());
    }

    #[test]
    fn paper_example_component_ranks_s5_central() {
        // On the Example 4 graph, s5 (node 4) has the highest degree (6
        // incident edges) and should out-rank the periphery.
        use crate::build::{build_graph, EdgeConfig};
        let sim = crate::build::tests::paper_example_sim();
        let g = build_graph(
            &sim,
            &crate::build::tests::paper_example_kinds(),
            &crate::build::tests::paper_example_confidences(),
            &[(0..8).collect()],
            EdgeConfig {
                q: 2,
                extra_ratio: 0.15,
            },
        )
        .unwrap();
        let comp: Vec<usize> = (0..8).collect();
        let pr = pagerank(&g, &comp, PageRankConfig::default()).unwrap();
        let max_node = (0..8)
            .max_by(|&a, &b| pr[a].partial_cmp(&pr[b]).unwrap())
            .unwrap();
        assert_eq!(max_node, 4, "ranks: {pr:?}");
    }
}
