//! Selection strategies the traced runs step sessions with.
//!
//! [`Timed`] wraps any library strategy in a span. [`TracedBattleship`]
//! re-composes `BattleshipStrategy::select` from the same public stage
//! functions, in the same order and with the same random draws, so
//! every stage gets its own span; each iteration it also runs the
//! library strategy on a cloned `Rng` and counts any difference.

use std::cell::RefCell;
use std::rc::Rc;

use battleship::budget::positive_budget;
use battleship::selection::select_side_with;
use battleship::strategies::Selection;
use battleship::weak::weak_side;
use battleship::{
    BattleshipStrategy, SelectionContext, SelectionScratch, SelectionStrategy, SpatialIndex,
    SpatialParams,
};
use em_cluster::{constrained_kmeans, select_k, ConstrainedConfig, KSelectConfig};
use em_core::{EmError, PairIdx, Prediction, Result, Rng};
use em_graph::{build_graph_blocked, connected_components, BlockedConfig, EdgeConfig, NodeKind};
use em_vector::Embeddings;

use crate::trace::Trace;

/// State shared between a strategy the session owns a borrow of and
/// the benchmark code driving that session (one thread).
pub(crate) type Shared<T> = Rc<RefCell<T>>;

/// Remember the rows the matcher predicted for this selection (pool,
/// then train) so the stepping loop can replay `TrainedMatcher::predict`.
fn capture_rows(rows: &RefCell<Vec<PairIdx>>, ctx: &SelectionContext<'_>) {
    let mut rows = rows.borrow_mut();
    rows.clear();
    rows.extend_from_slice(ctx.pool);
    rows.extend_from_slice(ctx.train);
}

/// A library strategy with its `select` calls in a
/// `strategy.<name>.select` span.
pub(crate) struct Timed {
    inner: Box<dyn SelectionStrategy + Send>,
    span: String,
    trace: Shared<Trace>,
    rows: Shared<Vec<PairIdx>>,
}

impl Timed {
    pub(crate) fn new(
        inner: Box<dyn SelectionStrategy + Send>,
        trace: Shared<Trace>,
        rows: Shared<Vec<PairIdx>>,
    ) -> Self {
        let span = format!("strategy.{}.select", inner.name());
        Timed {
            inner,
            span,
            trace,
            rows,
        }
    }
}

impl SelectionStrategy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection> {
        capture_rows(&self.rows, ctx);
        let mut trace = self.trace.borrow_mut();
        trace.time(&self.span, || self.inner.select(ctx, rng))
    }
}

/// `BattleshipStrategy::select`, composed from the public stage
/// functions with a span around each stage.
pub(crate) struct TracedBattleship {
    trace: Shared<Trace>,
    rows: Shared<Vec<PairIdx>>,
    reference_scratch: SelectionScratch,
}

impl TracedBattleship {
    pub(crate) fn new(trace: Shared<Trace>, rows: Shared<Vec<PairIdx>>) -> Self {
        TracedBattleship {
            trace,
            rows,
            reference_scratch: SelectionScratch::new(),
        }
    }
}

impl SelectionStrategy for TracedBattleship {
    fn name(&self) -> String {
        BattleshipStrategy.name()
    }

    fn select(&mut self, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection> {
        capture_rows(&self.rows, ctx);
        let trace = self.trace.clone();
        let mut tr = trace.borrow_mut();

        // The library strategy on a cloned rng, in a span the coverage
        // accounting leaves out.
        let check = tr.begin("check.reference");
        let mut reference_rng = rng.clone();
        let mut reference_ctx = SelectionContext {
            dataset: ctx.dataset,
            features: ctx.features,
            pool: ctx.pool,
            train: ctx.train,
            train_labels: ctx.train_labels,
            pool_preds: ctx.pool_preds,
            pool_reprs: ctx.pool_reprs,
            train_reprs: ctx.train_reprs,
            budget: ctx.budget,
            iteration: ctx.iteration,
            config: ctx.config,
            scratch: &mut self.reference_scratch,
        };
        let expected = BattleshipStrategy::new().select(&mut reference_ctx, &mut reference_rng)?;
        tr.end(check);

        let span = tr.begin("strategy.battleship.select");
        let got = compose(&mut tr, ctx, rng)?;
        tr.end(span);

        let same = got.to_label == expected.to_label
            && got.weak == expected.weak
            && rng.clone().next_u64() == reference_rng.next_u64();
        tr.add("strategy.checked_iterations", 1.0);
        if !same {
            tr.add("strategy.mismatched_iterations", 1.0);
        }
        let dataset = ctx.dataset;
        let hits = got
            .to_label
            .iter()
            .filter(|&&p| dataset.ground_truth(p).is_match())
            .count();
        tr.add("select.queried", got.to_label.len() as f64);
        tr.add("select.queried_matches", hits as f64);
        let correct = got
            .weak
            .iter()
            .filter(|&&(p, l)| dataset.ground_truth(p) == l)
            .count();
        tr.add("weak.labels", got.weak.len() as f64);
        tr.add("weak.correct", correct as f64);
        Ok(got)
    }
}

/// One prediction side's index and its nodes' pool positions.
struct Side {
    index: SpatialIndex,
    positions: Vec<usize>,
}

fn compose(tr: &mut Trace, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection> {
    let params = &ctx.config.battleship;
    let n_pool = ctx.pool.len();
    if n_pool == 0 {
        return Ok(Selection::default());
    }

    // Heterogeneous graph over pool ∪ labeled, from one normalized matrix.
    let assemble = tr.begin("spatial.assemble");
    let n_train = ctx.train.len();
    let (hetero_reprs, kinds, confs) = ctx.scratch.take(ctx.pool_reprs.dim())?;
    kinds.reserve(n_pool + n_train);
    confs.reserve(n_pool + n_train);
    for i in 0..n_pool {
        hetero_reprs.push(ctx.pool_reprs.row(i))?;
        kinds.push(if ctx.pool_preds[i].label.is_match() {
            NodeKind::PredictedMatch
        } else {
            NodeKind::PredictedNonMatch
        });
        confs.push(ctx.pool_preds[i].confidence_in_label());
    }
    for j in 0..n_train {
        hetero_reprs.push(ctx.train_reprs.row(j))?;
        kinds.push(if ctx.train_labels[j].is_match() {
            NodeKind::LabeledMatch
        } else {
            NodeKind::LabeledNonMatch
        });
        confs.push(1.0);
    }
    hetero_reprs.normalize_rows();
    tr.end(assemble);
    let spatial_seed = rng.next_u64();
    let hetero = build_index(
        tr,
        hetero_reprs,
        kinds,
        confs,
        &SpatialParams::from((params, spatial_seed)),
    )?;

    // Per-side graphs over the pool.
    let (pos_nodes, neg_nodes) =
        tr.time("spatial.assemble", || split_by_prediction(ctx.pool_preds));
    let plus = build_side(
        tr,
        hetero_reprs,
        ctx.pool_preds,
        &pos_nodes,
        NodeKind::PredictedMatch,
        &SpatialParams::from((params, rng.next_u64())),
    )?;
    let minus = build_side(
        tr,
        hetero_reprs,
        ctx.pool_preds,
        &neg_nodes,
        NodeKind::PredictedNonMatch,
        &SpatialParams::from((params, rng.next_u64())),
    )?;

    // Budgets, then per-side selection.
    let b_pos_target = positive_budget(ctx.budget, ctx.iteration);
    let (b_pos, b_neg) =
        split_budget_with_spill(b_pos_target, ctx.budget, pos_nodes.len(), neg_nodes.len());
    let mut to_label = Vec::with_capacity(ctx.budget);
    for (side, side_budget) in [(&plus, b_pos), (&minus, b_neg)] {
        let Some(side) = side else { continue };
        let picked = tr.time("select.rank", || {
            select_side_with(
                &side.index,
                &hetero.graph,
                &side.positions,
                side_budget,
                params.alpha,
                params.beta,
                params.rho,
                params.centrality,
                rng,
            )
        })?;
        to_label.extend(picked.iter().map(|&local| ctx.pool[side.positions[local]]));
    }

    // Weak supervision.
    let mut weak = Vec::new();
    if ctx.config.al.weak_supervision && ctx.config.al.weak_budget > 0 {
        let span = tr.begin("weak.select");
        let half = ctx.config.al.weak_budget / 2;
        let (w_pos, w_neg) = split_budget_with_spill(
            half,
            ctx.config.al.weak_budget,
            pos_nodes.len(),
            neg_nodes.len(),
        );
        for (side, side_budget) in [(&plus, w_pos), (&minus, w_neg)] {
            let Some(side) = side else { continue };
            let preds: Vec<Prediction> =
                side.positions.iter().map(|&p| ctx.pool_preds[p]).collect();
            let pairs: Vec<PairIdx> = side.positions.iter().map(|&p| ctx.pool[p]).collect();
            weak.extend(weak_side(
                &side.index,
                &hetero.graph,
                &side.positions,
                &preds,
                &pairs,
                side_budget,
                params.weak_method,
                params.beta,
                rng,
            )?);
        }
        let labeled: std::collections::HashSet<_> = to_label.iter().copied().collect();
        weak.retain(|(p, _)| !labeled.contains(p));
        tr.end(span);
    }
    Ok(Selection { to_label, weak })
}

fn build_side(
    tr: &mut Trace,
    normalized: &Embeddings,
    preds: &[Prediction],
    positions: &[usize],
    kind: NodeKind,
    params: &SpatialParams,
) -> Result<Option<Side>> {
    if positions.is_empty() {
        return Ok(None);
    }
    let gather = tr.begin("spatial.assemble");
    let reprs = normalized.gather(positions)?;
    let confs: Vec<f32> = positions
        .iter()
        .map(|&p| preds[p].confidence_in_label())
        .collect();
    let kinds = vec![kind; positions.len()];
    tr.end(gather);
    let index = build_index(tr, &reprs, &kinds, &confs, params)?;
    Ok(Some(Side {
        index,
        positions: positions.to_vec(),
    }))
}

/// `SpatialIndex::build_normalized`, one span per stage.
fn build_index(
    tr: &mut Trace,
    normalized: &Embeddings,
    kinds: &[NodeKind],
    confidences: &[f32],
    params: &SpatialParams,
) -> Result<SpatialIndex> {
    let n = normalized.len();
    if n == 0 || kinds.len() != n || confidences.len() != n {
        return Err(EmError::InvalidConfig(format!(
            "spatial index over {n} nodes with {} kinds and {} confidences",
            kinds.len(),
            confidences.len()
        )));
    }
    let (clusters, k) = match cluster_plan(n, params) {
        None => (vec![0usize; n], 1),
        Some((k_min, k_max)) => {
            let span = tr.begin("cluster.kselect");
            let gathered;
            let sweep_data: &Embeddings = if n > params.kselect_sample {
                let mut rng = Rng::seed_from_u64(params.seed ^ 0x5A5A);
                let sample = rng.sample_indices(n, params.kselect_sample);
                gathered = normalized.gather(&sample)?;
                &gathered
            } else {
                normalized
            };
            let selection = select_k(
                sweep_data,
                KSelectConfig {
                    k_min,
                    k_max,
                    kmeans_iters: 6,
                    silhouette_sample: 256,
                    seed: params.seed,
                    ann: params.ann,
                    ..Default::default()
                },
            )?;
            tr.end(span);
            tr.add("cluster.kselect_calls", 1.0);
            tr.add("cluster.k_sum", selection.k as f64);

            let span = tr.begin("cluster.kmeans");
            let config = constrained_config(n, selection.k, params)?;
            if config.ann.use_ann(n) {
                tr.add("cluster.kmeans_ann_calls", 1.0);
            }
            let result = constrained_kmeans(normalized, config)?;
            tr.end(span);
            (result.assignment, selection.k)
        }
    };

    let graph = tr.time("graph.build", || {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &c) in clusters.iter().enumerate() {
            members[c].push(i);
        }
        build_graph_blocked(
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
        )
    })?;
    tr.add("graph.edges", graph.n_edges() as f64);
    let components = tr.time("graph.components", || connected_components(&graph));
    tr.add("graph.components", components.len() as f64);
    Ok(SpatialIndex {
        graph,
        components,
        clusters,
        k,
    })
}

/// Feasible k range from the cluster-size fractions, or `None` when
/// the node set is too small to cluster.
fn cluster_plan(n: usize, params: &SpatialParams) -> Option<(usize, usize)> {
    let k_lo = (1.0 / params.cluster_max_frac).ceil() as usize;
    let k_hi = (1.0 / params.cluster_min_frac).floor() as usize;
    if n < k_lo.max(4) * 2 || k_lo + 2 > k_hi.min(n) {
        None
    } else {
        Some((k_lo.max(2), k_hi.min(n)))
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
    if config.min_size * k > n {
        config.min_size = n / k;
    }
    if config.max_size * k < n {
        config.max_size = n.div_ceil(k);
    }
    config.ann = params.ann;
    Ok(config)
}

/// Pool positions predicted match / non-match.
fn split_by_prediction(preds: &[Prediction]) -> (Vec<usize>, Vec<usize>) {
    (0..preds.len()).partition(|&i| preds[i].label.is_match())
}

/// Split budget `b` into match/non-match shares, spilling what one side
/// cannot use to the other.
fn split_budget_with_spill(
    b_pos_target: usize,
    b: usize,
    n_pos: usize,
    n_neg: usize,
) -> (usize, usize) {
    let b_pos = b_pos_target.min(n_pos);
    let b_neg = (b - b_pos).min(n_neg);
    let unspent = b - b_pos - b_neg;
    ((b_pos + unspent).min(n_pos), b_neg)
}
