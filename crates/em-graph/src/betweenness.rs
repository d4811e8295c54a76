//! Betweenness centrality (Brandes 2001), parallel over source nodes.
//!
//! The paper's background section names betweenness (Freeman 1977) as the
//! classic alternative centrality measure before settling on PageRank
//! (§2.2: "Centrality can \[be\] computed in multiple ways (e.g.,
//! betweenness centrality)"). This module provides it so the choice can
//! be ablated: `battleship::BattleshipParams::centrality` switches the
//! selection criterion between the two (see the `ablation_centrality`
//! bench).
//!
//! Implementation: Brandes' accumulation algorithm on the unweighted
//! graph topology, O(V·E) per component. Edge weights are deliberately
//! ignored — betweenness over similarity-weighted shortest paths would
//! invert the semantics (high similarity = short edge needs a weight
//! transform), and the paper's reference is to the classic unweighted
//! measure.
//!
//! **Parallelism and determinism.** Brandes decomposes into one
//! independent BFS + accumulation per source node; sources are processed
//! in fixed chunks of [`SOURCE_CHUNK`], each chunk accumulating into its
//! own buffer, and the per-chunk partials are reduced in chunk order.
//! The chunk structure is a function of the component size alone — never
//! of the thread count — so the floating-point reduction order is
//! identical whether the chunks run on one thread or many, and
//! `rayon::serial_scope(|| betweenness(..))` is bit-identical to the
//! parallel run (asserted by this module's golden test).

use rayon::prelude::*;

use em_core::{EmError, Result};

use crate::graph::PairGraph;

/// Sources per Brandes work unit. Also the reduction granularity: chunk
/// partials are summed in chunk order, so this constant (not the thread
/// count) fixes the floating-point association.
pub const SOURCE_CHUNK: usize = 64;

/// Reusable scratch for [`betweenness_with_scratch`]: a dense
/// node-id → local-index map that replaces the per-call `HashMap` the
/// seed implementation allocated for every component.
///
/// Grows once to the graph size and is wiped back to the sentinel after
/// every call, so a selection pass over many components performs no
/// per-component map allocations.
#[derive(Debug, Default)]
pub struct BetweennessScratch {
    /// `local[v]` = position of node `v` in the current component, or
    /// `u32::MAX`.
    local: Vec<u32>,
}

impl BetweennessScratch {
    /// Empty scratch; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Betweenness centrality for the nodes of one connected component.
///
/// `component` lists node ids; the returned vector is aligned with it.
/// Scores are normalized to `[0, 1]` by the pair count
/// `(n−1)(n−2)/2` (undirected convention); singleton and two-node
/// components yield zeros.
pub fn betweenness(graph: &PairGraph, component: &[usize]) -> Result<Vec<f64>> {
    betweenness_with_scratch(graph, component, &mut BetweennessScratch::new())
}

/// [`betweenness`] with caller-owned scratch, for loops over many
/// components (e.g. per-side selection) that want allocation reuse.
pub fn betweenness_with_scratch(
    graph: &PairGraph,
    component: &[usize],
    scratch: &mut BetweennessScratch,
) -> Result<Vec<f64>> {
    let m = component.len();
    if m == 0 {
        return Err(EmError::EmptyInput("betweenness component".into()));
    }
    let n = graph.len();
    if let Some(&v) = component.iter().find(|&&v| v >= n) {
        return Err(EmError::IndexOutOfBounds {
            context: "betweenness component node".into(),
            index: v,
            len: n,
        });
    }
    if scratch.local.len() < n {
        scratch.local.resize(n, u32::MAX);
    }
    for (li, &v) in component.iter().enumerate() {
        scratch.local[v] = li as u32;
    }
    // Validate closure while building the local adjacency; always wipe
    // the scratch entries before returning.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut closure_error = None;
    'outer: for (li, &v) in component.iter().enumerate() {
        for &(u, _) in graph.neighbors(v) {
            match scratch.local[u as usize] {
                u32::MAX => {
                    closure_error = Some(EmError::InvalidConfig(format!(
                        "node {v} has neighbour {u} outside its component"
                    )));
                    break 'outer;
                }
                lu => adj[li].push(lu as usize),
            }
        }
    }
    for &v in component {
        scratch.local[v] = u32::MAX;
    }
    if let Some(e) = closure_error {
        return Err(e);
    }
    if m < 3 {
        return Ok(vec![0.0; m]);
    }

    // One work unit per fixed-size source chunk; partials merged in
    // chunk order (deterministic for any thread count).
    let n_chunks = m.div_ceil(SOURCE_CHUNK);
    let partials: Vec<Vec<f64>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * SOURCE_CHUNK;
            let hi = (lo + SOURCE_CHUNK).min(m);
            brandes_chunk(&adj, lo..hi)
        })
        .collect();
    let mut centrality = vec![0.0f64; m];
    for partial in partials {
        for (acc, x) in centrality.iter_mut().zip(&partial) {
            *acc += x;
        }
    }

    // Undirected normalization: each pair counted twice; scale to [0,1].
    let norm = ((m - 1) * (m - 2)) as f64;
    for c in &mut centrality {
        *c /= norm;
    }
    Ok(centrality)
}

/// Brandes accumulation for the sources in `sources`, over the local
/// adjacency `adj`; returns this chunk's (unnormalized) centrality
/// contribution.
fn brandes_chunk(adj: &[Vec<usize>], sources: std::ops::Range<usize>) -> Vec<f64> {
    let m = adj.len();
    let mut centrality = vec![0.0f64; m];
    // Reusable per-source buffers.
    let mut sigma = vec![0.0f64; m];
    let mut dist = vec![-1i64; m];
    let mut delta = vec![0.0f64; m];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut stack: Vec<usize> = Vec::with_capacity(m);
    let mut queue = std::collections::VecDeque::with_capacity(m);

    for s in sources {
        sigma.iter_mut().for_each(|x| *x = 0.0);
        dist.iter_mut().for_each(|x| *x = -1);
        delta.iter_mut().for_each(|x| *x = 0.0);
        preds.iter_mut().for_each(Vec::clear);
        stack.clear();
        queue.clear();

        sigma[s] = 1.0;
        dist[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in &adj[v] {
                if dist[w] < 0 {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        // Accumulation in reverse BFS order.
        while let Some(w) = stack.pop() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                centrality[w] += delta[w];
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn pool_graph(n: usize) -> PairGraph {
        PairGraph::new(vec![NodeKind::PredictedMatch; n], vec![0.9; n]).unwrap()
    }

    #[test]
    fn path_graph_middle_is_most_central() {
        // 0 — 1 — 2 — 3 — 4: node 2 lies on the most shortest paths.
        let mut g = pool_graph(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 0.5).unwrap();
        }
        let comp: Vec<usize> = (0..5).collect();
        let bc = betweenness(&g, &comp).unwrap();
        assert!(bc[2] > bc[1] && bc[2] > bc[3], "{bc:?}");
        assert!(bc[1] > bc[0] && bc[3] > bc[4], "{bc:?}");
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
        // Known value: middle of a 5-path has betweenness 4/((4)(3)) per
        // undirected normalization with both directions counted:
        // pairs through node 2: (0,3),(0,4),(1,3),(1,4) = 4 of 6 pairs,
        // counted in both directions → 8/12 = 2/3.
        assert!((bc[2] - 2.0 / 3.0).abs() < 1e-9, "{}", bc[2]);
    }

    #[test]
    fn star_center_takes_everything() {
        let mut g = pool_graph(6);
        for leaf in 1..6 {
            g.add_edge(0, leaf, 0.9).unwrap();
        }
        let comp: Vec<usize> = (0..6).collect();
        let bc = betweenness(&g, &comp).unwrap();
        assert!((bc[0] - 1.0).abs() < 1e-9, "center {}", bc[0]);
        for b in bc.iter().skip(1) {
            assert_eq!(*b, 0.0);
        }
    }

    #[test]
    fn complete_graph_is_all_zero() {
        let mut g = pool_graph(4);
        for a in 0..4 {
            for b in a + 1..4 {
                g.add_edge(a, b, 0.5).unwrap();
            }
        }
        let comp: Vec<usize> = (0..4).collect();
        let bc = betweenness(&g, &comp).unwrap();
        assert!(bc.iter().all(|&x| x.abs() < 1e-12), "{bc:?}");
    }

    #[test]
    fn tiny_components_are_zero() {
        let mut g = pool_graph(3);
        g.add_edge(0, 1, 0.5).unwrap();
        assert_eq!(betweenness(&g, &[2]).unwrap(), vec![0.0]);
        assert_eq!(betweenness(&g, &[0, 1]).unwrap(), vec![0.0, 0.0]);
        assert!(betweenness(&g, &[]).is_err());
    }

    #[test]
    fn rejects_cross_component_neighbours() {
        let mut g = pool_graph(3);
        g.add_edge(0, 1, 0.5).unwrap();
        assert!(betweenness(&g, &[0]).is_err());
    }

    #[test]
    fn rejects_component_nodes_outside_the_graph() {
        let g = pool_graph(3);
        let err = betweenness(&g, &[0, 1, 3]).unwrap_err();
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

    #[test]
    fn bridge_node_dominates_two_cliques() {
        // Two triangles joined through node 3.
        let mut g = pool_graph(7);
        g.add_edge(0, 1, 0.5).unwrap();
        g.add_edge(1, 2, 0.5).unwrap();
        g.add_edge(0, 2, 0.5).unwrap();
        g.add_edge(2, 3, 0.5).unwrap();
        g.add_edge(3, 4, 0.5).unwrap();
        g.add_edge(4, 5, 0.5).unwrap();
        g.add_edge(5, 6, 0.5).unwrap();
        g.add_edge(4, 6, 0.5).unwrap();
        let comp: Vec<usize> = (0..7).collect();
        let bc = betweenness(&g, &comp).unwrap();
        let max = bc.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(bc[3], max, "{bc:?}");
    }

    #[test]
    fn scratch_reuse_across_components_matches_fresh_calls() {
        // Two disjoint paths in one graph; reusing scratch must not leak
        // state between components.
        let mut g = pool_graph(9);
        for i in 0..3 {
            g.add_edge(i, i + 1, 0.5).unwrap();
        }
        for i in 5..8 {
            g.add_edge(i, i + 1, 0.5).unwrap();
        }
        let comp_a: Vec<usize> = (0..4).collect();
        let comp_b: Vec<usize> = (5..9).collect();
        let mut scratch = BetweennessScratch::new();
        let a1 = betweenness_with_scratch(&g, &comp_a, &mut scratch).unwrap();
        let b1 = betweenness_with_scratch(&g, &comp_b, &mut scratch).unwrap();
        assert_eq!(a1, betweenness(&g, &comp_a).unwrap());
        assert_eq!(b1, betweenness(&g, &comp_b).unwrap());
        // An error call (bad closure) must still wipe its entries.
        assert!(betweenness_with_scratch(&g, &[0], &mut scratch).is_err());
        let a2 = betweenness_with_scratch(&g, &comp_a, &mut scratch).unwrap();
        assert_eq!(a1, a2);
    }

    /// Golden test: the parallel run is bit-identical to the serial run
    /// on a component large enough to span many source chunks.
    #[test]
    fn parallel_is_bit_identical_to_serial() {
        use em_core::Rng;
        let n = 3 * SOURCE_CHUNK + 17;
        let mut g = pool_graph(n);
        let mut rng = Rng::seed_from_u64(99);
        // Random connected graph: a ring plus random chords.
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 0.5).unwrap();
        }
        for _ in 0..4 * n {
            let a = rng.below(n);
            let b = rng.below(n);
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b, 0.5).unwrap();
            }
        }
        let comp: Vec<usize> = (0..n).collect();
        let par = betweenness(&g, &comp).unwrap();
        let ser = rayon::serial_scope(|| betweenness(&g, &comp).unwrap());
        let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
        let ser_bits: Vec<u64> = ser.iter().map(|x| x.to_bits()).collect();
        assert_eq!(par_bits, ser_bits);
    }
}
