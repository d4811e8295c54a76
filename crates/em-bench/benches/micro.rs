//! Criterion micro-benchmarks of the performance-critical substrate
//! pieces behind Figure 6's runtime profile (§5.2: "the K-Means
//! clustering step consumes the majority of the running time"), plus two
//! ablation comparisons: exact vs HNSW nearest-neighbour search and
//! greedy vs min-cost-flow constrained assignment (the trade-off
//! `em_cluster::constrained`'s module docs describe). LSH lives on only
//! as blocking signatures, timed by the blocking bench.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use em_cluster::constrained::AssignmentMode;
use em_cluster::{constrained_kmeans, kmeans, ConstrainedConfig, Gmm, GmmConfig, KMeansConfig};
use em_core::Rng;
use em_graph::{build_graph, pagerank, DotSim, EdgeConfig, NodeKind, PageRankConfig};
use em_vector::{top_k, Embeddings, Hnsw, HnswConfig};

fn gaussian(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut rng = Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.normal() as f32).collect())
        .collect();
    Embeddings::from_rows(&rows).unwrap()
}

fn bench_kmeans(c: &mut Criterion) {
    let data = gaussian(2000, 96, 1);
    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    group.bench_function("plain_k10_n2000_d96", |b| {
        b.iter(|| {
            kmeans(
                black_box(&data),
                KMeansConfig {
                    k: 10,
                    max_iters: 10,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.bench_function("constrained_greedy_k10_n2000_d96", |b| {
        b.iter(|| {
            constrained_kmeans(
                black_box(&data),
                ConstrainedConfig {
                    k: 10,
                    min_size: 100,
                    max_size: 300,
                    max_iters: 10,
                    seed: 1,
                    mode: AssignmentMode::Greedy,
                    ann: Default::default(),
                },
            )
            .unwrap()
        })
    });
    // The exact flow assignment is far costlier per iteration — bench on
    // a smaller instance (the greedy-vs-flow ablation).
    let small = gaussian(300, 32, 2);
    group.bench_function("constrained_flow_k5_n300_d32", |b| {
        b.iter(|| {
            constrained_kmeans(
                black_box(&small),
                ConstrainedConfig {
                    k: 5,
                    min_size: 30,
                    max_size: 90,
                    max_iters: 3,
                    seed: 1,
                    mode: AssignmentMode::Flow,
                    ann: Default::default(),
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_knn_indexes(c: &mut Criterion) {
    let data = gaussian(5000, 96, 3);
    let hnsw = Hnsw::build(&data, HnswConfig::default()).unwrap();
    let mut group = c.benchmark_group("knn_indexes");
    {
        let k = 15usize;
        group.bench_with_input(BenchmarkId::new("exact", k), &k, |b, &k| {
            b.iter(|| top_k(black_box(&data), data.row(17), k, Some(17)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("hnsw", k), &k, |b, &k| {
            b.iter(|| hnsw.search(data.row(17), k, Some(17)).unwrap())
        });
    }
    group.finish();
}

/// HNSW in isolation — build, insert and k-query cost plus recall@k
/// against the exact `knn` kernel — so regressions in the index itself
/// are visible without running any pipeline bench. The ANN routing layer
/// (`AnnPolicy`) sends k-selection, constrained assignment and graph
/// edges here above the crossover, which makes these numbers
/// load-bearing for every large-pool stage.
fn bench_hnsw(c: &mut Criterion) {
    let data = {
        let mut d = gaussian(4000, 96, 7);
        d.normalize_rows();
        d
    };
    let config = HnswConfig::default();
    let mut group = c.benchmark_group("hnsw");
    group.bench_function("build_n4000_d96", |b| {
        b.iter(|| Hnsw::build(black_box(&data), config).unwrap())
    });
    group.bench_function("insert_d96", |b| {
        let mut index = Hnsw::build(&data, config).unwrap();
        let row = data.row(42).to_vec();
        b.iter(|| index.insert(black_box(&row)).unwrap())
    });
    let index = Hnsw::build(&data, config).unwrap();
    for k in [10usize, 50] {
        group.bench_with_input(BenchmarkId::new("query", k), &k, |b, &k| {
            b.iter(|| index.search(data.row(13), k, Some(13)).unwrap())
        });
        // Recall@k over a spread probe set, vs the exact kernel.
        let probes: Vec<usize> = (0..64).map(|p| p * data.len() / 64).collect();
        let mut hits = 0usize;
        let mut total = 0usize;
        for &qi in &probes {
            let exact: std::collections::HashSet<usize> = top_k(&data, data.row(qi), k, Some(qi))
                .unwrap()
                .into_iter()
                .map(|nb| nb.index)
                .collect();
            let approx = index.search(data.row(qi), k, Some(qi)).unwrap();
            hits += approx.iter().filter(|nb| exact.contains(&nb.index)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total.max(1) as f64;
        eprintln!(
            "[micro] hnsw recall@{k}: {recall:.4} over {} probes",
            probes.len()
        );
        assert!(
            recall >= 0.80,
            "hnsw recall@{k} collapsed to {recall:.4} (floor 0.80)"
        );
    }
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let data = {
        let mut d = gaussian(1500, 96, 4);
        d.normalize_rows();
        d
    };
    let kinds = vec![NodeKind::PredictedMatch; 1500];
    let confs = vec![0.9f32; 1500];
    // Ten equal clusters.
    let clusters: Vec<Vec<usize>> = (0..10)
        .map(|c| (c * 150..(c + 1) * 150).collect())
        .collect();
    let mut group = c.benchmark_group("graph");
    group.sample_size(10);
    group.bench_function("build_q15_n1500", |b| {
        b.iter(|| {
            build_graph(
                &DotSim::new(black_box(&data)),
                &kinds,
                &confs,
                &clusters,
                EdgeConfig::default(),
            )
            .unwrap()
        })
    });
    let graph = build_graph(
        &DotSim::new(&data),
        &kinds,
        &confs,
        &clusters,
        EdgeConfig::default(),
    )
    .unwrap();
    let comp: Vec<usize> = clusters[0].clone();
    group.bench_function("pagerank_one_component", |b| {
        b.iter(|| pagerank(black_box(&graph), &comp, PageRankConfig::default()).unwrap())
    });
    group.finish();
}

fn bench_gmm(c: &mut Criterion) {
    let data = gaussian(3000, 22, 5);
    let mut group = c.benchmark_group("gmm");
    group.sample_size(10);
    group.bench_function("em_2comp_n3000_d22", |b| {
        b.iter(|| {
            Gmm::fit(
                black_box(&data),
                GmmConfig {
                    max_iters: 25,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_matcher_step(c: &mut Criterion) {
    use em_matcher::{train_matcher, MatcherConfig};
    let data = gaussian(512, 848, 6);
    let mut rng = Rng::seed_from_u64(7);
    let labels: Vec<em_core::Label> = (0..512)
        .map(|_| em_core::Label::from_bool(rng.bool(0.2)))
        .collect();
    let idx: Vec<usize> = (0..512).collect();
    let mut group = c.benchmark_group("matcher");
    group.sample_size(10);
    group.bench_function("train_1epoch_n512_d848_h96", |b| {
        b.iter(|| {
            train_matcher(
                black_box(&data),
                &idx,
                &labels,
                &[],
                &[],
                &MatcherConfig {
                    epochs: 1,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

/// One epoch of `train_matcher`'s loop on featurized dblp-scholar rows
/// (the `table4-dblp` profile at 0.15 of Table 3 size, sparse first
/// layer): the mini-batch backward passes, the AdamW steps and one
/// validation probe over the validation split.
fn bench_train_epoch_featurized(c: &mut Criterion) {
    use em_matcher::{train_matcher, FeatureConfig, Featurizer, MatcherConfig};
    use em_synth::{generate, DatasetProfile};
    let d = generate(
        &DatasetProfile::dblp_scholar().scaled(0.15),
        &mut Rng::seed_from_u64(1),
    )
    .unwrap();
    let feats = Featurizer::new(&d, FeatureConfig::default())
        .unwrap()
        .featurize_all(&d)
        .unwrap();
    let (train, valid) = (d.split().train.clone(), d.split().valid.clone());
    let (train_labels, valid_labels) = (d.ground_truth_of(&train), d.ground_truth_of(&valid));
    eprintln!(
        "[micro] train_epoch_featurized: {} train rows, {} validation rows",
        train.len(),
        valid.len()
    );
    let config = MatcherConfig {
        epochs: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("matcher");
    group.sample_size(10);
    group.bench_function("train_epoch_featurized", |b| {
        b.iter(|| {
            train_matcher(
                black_box(&feats),
                &train,
                &train_labels,
                &valid,
                &valid_labels,
                &config,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// One AdamW step over the matcher's 81,601 parameters (848 → 96 → 1)
/// from a state in which every 20th first moment is subnormal: those
/// parameters saw one gradient and then none until their moments
/// decayed below 2⁻¹²⁶, like first-layer weights whose input features
/// have not recurred. Each timed step starts from a clone of that
/// state, so the subnormals do not decay away across iterations.
fn bench_adamw_step(c: &mut Criterion) {
    use em_matcher::AdamW;
    let n = 848 * 96 + 96 + 96 + 1;
    // With no gradient a first moment scales by β₁ = 0.9 (`AdamW::new`)
    // per step. Count the steps until the moment `(1 − β₁)·g` of a
    // one-off gradient `g` goes subnormal: the state is taken right
    // there, before a further step could flush it.
    let g = 1e-3f32;
    let (mut m, mut quiet_steps) = ((1.0f32 - 0.9) * g, 0);
    while m.is_normal() {
        m *= 0.9;
        quiet_steps += 1;
    }
    let mut rng = Rng::seed_from_u64(12);
    let mut opt = AdamW::new(n, 8e-3, 1e-4).unwrap();
    let mut params: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 0.05).collect();
    let mask = vec![true; n];
    let mut grads = vec![0.0f32; n];
    for step in 0..=quiet_steps {
        for (i, x) in grads.iter_mut().enumerate() {
            *x = match (i % 20, step) {
                (0, 0) => g,
                (0, _) => 0.0,
                _ => rng.normal() as f32 * 1e-3,
            };
        }
        opt.step(&mut params, &grads, &mask).unwrap();
    }
    let mut group = c.benchmark_group("matcher");
    group.bench_function("adamw_step_81k", |b| {
        b.iter_batched(
            || (opt.clone(), params.clone()),
            |(mut opt, mut params)| {
                opt.step(&mut params, black_box(&grads), &mask).unwrap();
                (opt, params)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Encode and decode of one serving-store checkpoint: a battleship
/// session on amazon-google at 0.25 of Table 3 size (the `serve-labelers`
/// configuration of `perfbench`) after its first training round, whose
/// matcher holds 81,601 parameters (848 → 96 → 1) in a ~333 KB frame.
fn bench_session_codec(c: &mut Criterion) {
    use battleship::api::{
        Label, MatchSession, PairIdx, Scenario, SessionConfig, SessionSnapshot, StrategySpec,
    };
    use battleship::ExperimentConfig;
    let scenario = Scenario::synthetic_scaled(em_synth::DatasetProfile::amazon_google(), 0.25, 3);
    let art = scenario.materialize().unwrap();
    let mut experiment = ExperimentConfig::default();
    experiment.al.iterations = 3;
    experiment.al.budget = 40;
    experiment.al.seed_size = 40;
    experiment.al.weak_budget = 40;
    experiment.matcher.epochs = 12;
    let config = SessionConfig {
        experiment,
        strategy: StrategySpec::Battleship,
        seed: 4,
    };
    let mut session = MatchSession::new(&art.dataset, &art.features, config).unwrap();
    session.advance().unwrap();
    let answers: Vec<(PairIdx, Label)> = session
        .next_query_batch()
        .iter()
        .map(|&p| (p, art.dataset.ground_truth(p)))
        .collect();
    session.submit_labels(&answers).unwrap();
    session.advance().unwrap();
    let snapshot = session.snapshot().unwrap();
    let frame = snapshot.to_bytes();
    let params = snapshot.matcher.as_ref().map_or(0, |m| m.params.len());
    eprintln!(
        "[micro] session frame: {} bytes, {params} matcher parameters",
        frame.len()
    );
    let mut group = c.benchmark_group("codec");
    group.bench_with_input(
        BenchmarkId::new("session_frame_333k", "encode"),
        &snapshot,
        |b, snapshot| b.iter(|| black_box(snapshot).to_bytes()),
    );
    group.bench_with_input(
        BenchmarkId::new("session_frame_333k", "decode"),
        &frame,
        |b, frame| b.iter(|| SessionSnapshot::from_bytes(black_box(frame)).unwrap()),
    );
    group.finish();
}

fn bench_kernel_tiers(c: &mut Criterion) {
    use em_vector::{gemm, kernel, simd_tier, with_simd_tier, AdamWScalars, Elementwise, SimdTier};
    let query = gaussian(1, 768, 8);
    let rows = gaussian(8, 768, 9);
    let a = gaussian(64, 96, 10);
    let bm = gaussian(16, 96, 11);
    // The AdamW element update over the matcher's 81,601 parameters,
    // late in training (bias corrections of step 900), with every 20th
    // first moment subnormal and every 20th gradient zero.
    let n = 848 * 96 + 96 + 96 + 1;
    let mut rng = Rng::seed_from_u64(13);
    let params: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 0.05).collect();
    let mut grads: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 1e-3).collect();
    let mut m: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 1e-4).collect();
    for i in (0..n).step_by(20) {
        grads[i] = 0.0;
        m[i] = -1.0e-40;
    }
    let v: Vec<f32> = (0..n).map(|_| rng.f32() * 1e-6).collect();
    let mask = vec![true; n];
    let scalars = AdamWScalars {
        beta1: 0.9,
        beta2: 0.999,
        bc1: 1.0 - 0.9f32.powi(900),
        bc2: 1.0 - 0.999f32.powi(900),
        lr: 8e-3,
        eps: 1e-8,
        wd: 1e-4,
    };
    let detected = simd_tier();
    let mut group = c.benchmark_group("kernel_tiers");
    for tier in [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512] {
        // Don't time a silently clamped tier under the wrong label.
        if detected < tier {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("dot_d768_r8", tier.name()),
            &tier,
            |b, &tier| {
                b.iter(|| {
                    with_simd_tier(tier, || {
                        let mut acc = 0.0f32;
                        for i in 0..8 {
                            acc += kernel::dot(black_box(query.row(0)), rows.row(i));
                        }
                        acc
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gemm_64x16x96", tier.name()),
            &tier,
            |b, &tier| {
                b.iter(|| {
                    with_simd_tier(tier, || {
                        let mut out = vec![0.0f32; 64 * 16];
                        gemm(black_box(a.flat()), 64, bm.flat(), 16, 96, &mut out);
                        out
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adamw_update_81k", tier.name()),
            &tier,
            |b, &tier| {
                let ew = with_simd_tier(tier, Elementwise::dispatched);
                b.iter_batched(
                    || (params.clone(), m.clone(), v.clone()),
                    |(mut p, mut m, mut v)| {
                        ew.adamw_update(scalars, &mut p, black_box(&grads), &mut m, &mut v, &mask);
                        (p, m, v)
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_knn_indexes,
    bench_hnsw,
    bench_graph,
    bench_gmm,
    bench_matcher_step,
    bench_train_epoch_featurized,
    bench_adamw_step,
    bench_session_codec,
    bench_kernel_tiers
);
criterion_main!(benches);
