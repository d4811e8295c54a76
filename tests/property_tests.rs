//! Property-based tests (proptest) over the core invariants of the
//! substrate data structures and algorithms.

use proptest::prelude::*;

use battleship_em::al::{distribute_budget, lpt_assign, lpt_start_offsets, positive_budget};
use battleship_em::cluster::{constrained_kmeans, ConstrainedConfig};
use battleship_em::core::{jaccard, tokenize, BinaryConfusion, F1Curve, Label, Rng, TokenSet};
use battleship_em::graph::{binary_entropy, connected_components, NodeKind, PairGraph};
use battleship_em::vector::{cosine, AnnPolicy, Embeddings};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metrics always land in [0, 1] and F1 is 0 whenever tp is 0.
    #[test]
    fn metrics_are_bounded(preds in prop::collection::vec(any::<bool>(), 1..200),
                           truths in prop::collection::vec(any::<bool>(), 1..200)) {
        let n = preds.len().min(truths.len());
        let p: Vec<Label> = preds[..n].iter().map(|&b| Label::from_bool(b)).collect();
        let t: Vec<Label> = truths[..n].iter().map(|&b| Label::from_bool(b)).collect();
        let m = BinaryConfusion::from_labels(&p, &t).unwrap().metrics();
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        prop_assert!((0.0..=1.0).contains(&m.accuracy));
    }

    /// Binary entropy is symmetric, bounded by [0, 1] and maximal at 0.5.
    #[test]
    fn entropy_properties(p in 0.0f64..=1.0) {
        let h = binary_entropy(p);
        prop_assert!((0.0..=1.0).contains(&h));
        prop_assert!((h - binary_entropy(1.0 - p)).abs() < 1e-9);
        prop_assert!(h <= binary_entropy(0.5) + 1e-12);
    }

    /// Jaccard is symmetric, bounded, and 1 for identical non-empty sets.
    #[test]
    fn jaccard_properties(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
        let ta = TokenSet::from_text(&a);
        let tb = TokenSet::from_text(&b);
        let j_ab = jaccard(&ta, &tb);
        let j_ba = jaccard(&tb, &ta);
        prop_assert!((j_ab - j_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j_ab));
        prop_assert!((jaccard(&ta, &ta) - 1.0).abs() < 1e-12);
    }

    /// Tokenization is idempotent under re-joining: tokens contain no
    /// separators and re-tokenizing the joined tokens is a fixpoint.
    #[test]
    fn tokenize_fixpoint(text in "[a-zA-Z0-9,.;:!? -]{0,60}") {
        let tokens = tokenize(&text);
        let rejoined = tokens.join(" ");
        prop_assert_eq!(tokenize(&rejoined), tokens);
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_properties(a in prop::collection::vec(-10.0f32..10.0, 4),
                         b in prop::collection::vec(-10.0f32..10.0, 4)) {
        let c1 = cosine(&a, &b);
        let c2 = cosine(&b, &a);
        prop_assert!((c1 - c2).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&c1));
    }

    /// Eq. 2 budget distribution: shares sum to min(budget, Σ sizes) and
    /// never exceed component sizes.
    #[test]
    fn budget_distribution_invariants(budget in 0usize..300,
                                      sizes in prop::collection::vec(1usize..80, 1..12),
                                      seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let shares = distribute_budget(budget, &sizes, &mut rng).unwrap();
        prop_assert_eq!(shares.len(), sizes.len());
        let total: usize = shares.iter().sum();
        let cap: usize = sizes.iter().sum();
        prop_assert_eq!(total, budget.min(cap));
        for (s, z) in shares.iter().zip(&sizes) {
            prop_assert!(s <= z);
        }
    }

    /// The budget schedule over a whole (simulated) grid run: each
    /// iteration's positive/negative split covers exactly the iteration
    /// budget, per-iteration selections never exceed it, the running
    /// total never exceeds budget × iterations, and a zero-budget grid
    /// spends nothing and terminates.
    #[test]
    fn budget_schedule_invariants_over_iterations(
        budget in 0usize..200,
        iterations in 1usize..12,
        sizes in prop::collection::vec(1usize..500, 1..10),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut total_selected = 0usize;
        for i in 0..iterations {
            // B⁺ schedule (§4.2): within budget, floored at B/2.
            let b_pos = positive_budget(budget, i);
            prop_assert!(b_pos <= budget);
            prop_assert!(b_pos >= budget / 2);
            // Monotone non-increasing in the iteration index.
            if i > 0 {
                prop_assert!(b_pos <= positive_budget(budget, i - 1));
            }
            // Each side's Eq. 2 distribution stays within its share.
            let pos_shares = distribute_budget(b_pos, &sizes, &mut rng).unwrap();
            let neg_shares = distribute_budget(budget - b_pos, &sizes, &mut rng).unwrap();
            let selected: usize =
                pos_shares.iter().sum::<usize>() + neg_shares.iter().sum::<usize>();
            prop_assert!(selected <= budget, "iteration selected {selected} > {budget}");
            total_selected += selected;
        }
        prop_assert!(total_selected <= budget * iterations);
        if budget == 0 {
            prop_assert_eq!(total_selected, 0, "zero-budget grid must spend nothing");
        }
    }

    /// The F1 curve's AUC of a constant curve equals value × span / 100.
    #[test]
    fn f1_curve_constant_auc(value in 0.0f64..100.0, span in 1.0f64..1000.0) {
        let curve = F1Curve::from_points(vec![(0.0, value), (span, value)]).unwrap();
        prop_assert!((curve.auc() - value * span / 100.0).abs() < 1e-6);
    }

    /// SIMD dispatch never changes results: the dispatched dot kernel is
    /// bit-identical across tiers, so a matcher's argmax label (and the
    /// probability itself) cannot depend on which ISA path ran. On
    /// hardware without AVX2 the override clamps to Portable and the
    /// property degenerates to self-comparison (still valid).
    #[test]
    fn simd_dispatch_never_changes_argmax_labels(
        dim in 1usize..40,
        hidden in 1usize..24,
        net_seed in any::<u64>(),
        xs in prop::collection::vec(-3.0f32..3.0, 40),
    ) {
        use battleship_em::matcher::Mlp;
        use battleship_em::matcher::mlp::sigmoid;
        use battleship_em::vector::{with_simd_tier, SimdTier};
        let mlp = Mlp::new(dim, &[hidden], &mut Rng::seed_from_u64(net_seed)).unwrap();
        let x = &xs[..dim];
        let (logit_p, repr_p) =
            with_simd_tier(SimdTier::Portable, || mlp.forward(x).unwrap());
        let (logit_a, repr_a) =
            with_simd_tier(SimdTier::Avx2, || mlp.forward(x).unwrap());
        prop_assert_eq!(logit_p.to_bits(), logit_a.to_bits());
        for (p, a) in repr_p.iter().zip(&repr_a) {
            prop_assert_eq!(p.to_bits(), a.to_bits());
        }
        // The label both tiers imply.
        prop_assert_eq!(sigmoid(logit_p) >= 0.5, sigmoid(logit_a) >= 0.5);
    }

    /// The sparse-input layer product equals the dense fused GEMM bit
    /// for bit on every SIMD tier, whatever the shape and sparsity
    /// pattern: widths straddle the 16/32-wide steps and the 64-slot
    /// period, and rows range from all-zero to fully dense (negative
    /// zeros included). Tiers the hardware lacks clamp to the best one.
    #[test]
    fn sparse_layer_bit_identical_to_dense_on_every_tier(
        k in 1usize..200,
        n in 1usize..70,
        rows in 1usize..6,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
        relu in any::<bool>(),
    ) {
        use battleship_em::vector::{
            gemm_bias_relu, sparse_gemm_bias_relu, transpose, with_simd_tier, SimdTier,
            SparseRows, SparseScratch,
        };
        let mut rng = Rng::seed_from_u64(seed);
        let xs: Vec<f32> = (0..rows * k)
            .map(|i| {
                if rng.f64() < density {
                    rng.normal() as f32
                } else if i % 3 == 0 {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect();
        let wt: Vec<f32> = (0..k * n).map(|_| rng.normal() as f32).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        let mut w = vec![0.0f32; k * n];
        transpose(&wt, k, n, &mut w);
        let mut sparse = SparseRows::new(k);
        for row in xs.chunks(k) {
            sparse.push_dense(row).unwrap();
        }
        for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
            let (dense, got) = with_simd_tier(tier, || {
                let mut dense = vec![0.0f32; rows * n];
                gemm_bias_relu(&xs, rows, &w, n, k, &bias, relu, &mut dense);
                let mut got = vec![0.0f32; rows * n];
                let mut scratch = SparseScratch::new();
                sparse_gemm_bias_relu(&sparse, &wt, n, &bias, relu, &mut got, &mut scratch);
                (dense, got)
            });
            for (a, b) in got.iter().zip(&dense) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "tier {}", tier.name());
            }
        }
    }

    /// Connected components partition the node set, whatever the edges.
    #[test]
    fn components_partition(n in 1usize..40,
                            edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)) {
        let mut g = PairGraph::new(
            vec![NodeKind::PredictedMatch; n],
            vec![0.5; n],
        ).unwrap();
        for (u, v) in edges {
            let (u, v) = (u % n, v % n);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, 0.5).unwrap();
            }
        }
        let comps = connected_components(&g);
        let mut all: Vec<usize> = comps.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        // Every edge stays inside one component.
        for (u, v, _) in g.edges() {
            let cu = comps.iter().position(|c| c.contains(&u));
            let cv = comps.iter().position(|c| c.contains(&v));
            prop_assert_eq!(cu, cv);
        }
    }
}

proptest! {
    // Clustering is costlier — fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Constrained k-means always returns a size-feasible partition when
    /// the instance is feasible.
    #[test]
    fn constrained_kmeans_respects_bounds(seed in any::<u64>(), k in 2usize..5) {
        let n = 60usize;
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.normal() as f32, rng.normal() as f32])
            .collect();
        let data = Embeddings::from_rows(&rows).unwrap();
        let min_size = 5usize;
        let max_size = 40usize;
        prop_assume!(k * min_size <= n && k * max_size >= n);
        let res = constrained_kmeans(
            &data,
            ConstrainedConfig {
                k,
                min_size,
                max_size,
                max_iters: 8,
                seed,
                mode: Default::default(),
                ann: Default::default(),
            },
        )
        .unwrap();
        prop_assert_eq!(res.sizes.iter().sum::<usize>(), n);
        for &s in &res.sizes {
            prop_assert!((min_size..=max_size).contains(&s), "size {}", s);
        }
    }

    /// ANN-assisted constrained assignment honours min/max capacity
    /// bounds for arbitrary feasible configs, including true shortlists
    /// (`top_m < k`) where the repair pass must work from the shortlist
    /// plus on-demand distances.
    #[test]
    fn ann_constrained_respects_bounds(
        seed in any::<u64>(),
        k in 2usize..12,
        top_m in 1usize..6,
        min_size in 0usize..6,
    ) {
        let n = 96usize;
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..4).map(|_| rng.normal() as f32).collect())
            .collect();
        let data = Embeddings::from_rows(&rows).unwrap();
        let max_size = 60usize;
        prop_assume!(k * min_size <= n && k * max_size >= n);
        let mut ann = AnnPolicy::always();
        ann.top_m = top_m;
        let res = constrained_kmeans(
            &data,
            ConstrainedConfig {
                k,
                min_size,
                max_size,
                max_iters: 6,
                seed,
                mode: Default::default(),
                ann,
            },
        )
        .unwrap();
        prop_assert_eq!(res.sizes.iter().sum::<usize>(), n);
        for &s in &res.sizes {
            prop_assert!((min_size..=max_size).contains(&s), "size {}", s);
        }
    }

    /// Golden: below the ANN-policy threshold the routed path is the
    /// exact path — bit-identical assignment and SSE for any seed. A
    /// full-coverage shortlist (`top_m >= k`) must also reproduce the
    /// exact result bit-for-bit.
    #[test]
    fn ann_below_threshold_bit_identical_to_exact(seed in any::<u64>(), k in 2usize..6) {
        let n = 60usize;
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.normal() as f32, rng.normal() as f32])
            .collect();
        let data = Embeddings::from_rows(&rows).unwrap();
        let base = ConstrainedConfig {
            k,
            min_size: 4,
            max_size: 40,
            max_iters: 6,
            seed,
            mode: Default::default(),
            ann: AnnPolicy::never(),
        };
        prop_assume!(k * base.min_size <= n && k * base.max_size >= n);
        let exact = constrained_kmeans(&data, base).unwrap();
        // Default policy: n = 60 is far below the 16384 crossover.
        let routed = constrained_kmeans(
            &data,
            ConstrainedConfig { ann: AnnPolicy::default(), ..base },
        )
        .unwrap();
        prop_assert_eq!(&exact.assignment, &routed.assignment);
        prop_assert_eq!(exact.sse.to_bits(), routed.sse.to_bits());
        // Forced ANN with a full-coverage shortlist (top_m 16 >= k).
        let full = constrained_kmeans(
            &data,
            ConstrainedConfig { ann: AnnPolicy::always(), ..base },
        )
        .unwrap();
        prop_assert_eq!(&exact.assignment, &full.assignment);
        prop_assert_eq!(exact.sse.to_bits(), full.sse.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LPT scheduling monotonicity: under the engine's cost-model LPT
    /// assignment, more work never schedules strictly later — a heavier
    /// item's idealized start offset is at most a lighter item's. (LPT
    /// places items in descending cost order onto the least-loaded bin,
    /// and the minimum bin load is non-decreasing over placements.)
    #[test]
    fn lpt_start_offsets_are_monotone_in_cost(
        costs in prop::collection::vec(0.0f64..100.0, 0..40),
        n_bins in 1usize..9,
    ) {
        let starts = lpt_start_offsets(&costs, n_bins);
        prop_assert_eq!(starts.len(), costs.len());
        for i in 0..costs.len() {
            for j in 0..costs.len() {
                if costs[i] > costs[j] {
                    prop_assert!(
                        starts[i] <= starts[j],
                        "heavier item {} (cost {}) starts at {} after lighter item {} (cost {}) at {}",
                        i, costs[i], starts[i], j, costs[j], starts[j]
                    );
                }
            }
        }
    }

    /// LPT assignment is always a partition of the items, for any bin
    /// count — nothing dropped, nothing duplicated, bins never exceed
    /// the requested count.
    #[test]
    fn lpt_assign_partitions_the_items(
        costs in prop::collection::vec(0.0f64..100.0, 0..40),
        n_bins in 0usize..9,
    ) {
        let bins = lpt_assign(&costs, n_bins);
        prop_assert_eq!(bins.len(), n_bins.max(1));
        let mut seen: Vec<usize> = bins.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
    }
}
