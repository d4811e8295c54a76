//! Matcher-engine benchmark: the batched train + predict path versus
//! the seed's scalar implementation, measured in the same run.
//!
//! This is the perf gate for the matcher half of each active-learning
//! iteration (§3.1/§4.2). Two tasks sit on either side of the density
//! threshold at which training lays the network's first layer out for
//! sparse inputs ([`em_matcher::DENSE_INPUT_DENSITY`]):
//!
//! * **featurized** — the matcher's real input, amazon-google pairs
//!   (848-d hashed token counts and one-hot bins, ~2 % nonzero), which
//!   run the sparse first-layer kernel;
//! * **dense** — a synthetic two-blob task (`EM_BENCH_MATCHER_DIM`
//!   inputs, all nonzero), which runs the dense fused GEMM.
//!
//! On each, the batched engine ([`em_matcher::train_matcher`] +
//! [`TrainedMatcher::predict`]) must beat the seed-verbatim scalar
//! baseline ([`em_matcher::train_matcher_reference`] +
//! [`em_matcher::predict_reference`]) by ≥ 3× **on one core** (the
//! batched timing runs under `rayon::serial_scope`, so the gate measures
//! the kernel engine, not thread count). The parallel timing is reported
//! alongside. Results are written to `BENCH_matcher.json` for CI
//! artifacts, together with an end-to-end `run_active_learning`
//! wall-clock (2 iterations, amazon_google-scaled profile) so future
//! PRs can track whole-iteration latency, not just subsystem speedups.
//!
//! Knobs (environment):
//! * `EM_BENCH_MATCHER_N` — rows predicted per task (default 5000; the
//!   featurized task is capped at the generated pair count);
//! * `EM_BENCH_MATCHER_DIM` — feature dimension of the dense task
//!   (default 128);
//! * `EM_BENCH_MATCHER_OUT` — output JSON path
//!   (default `BENCH_matcher.json`);
//! * `EM_BENCH_MATCHER_MIN_SPEEDUP` — exit non-zero when either task's
//!   one-core ratio is below this (default 3.0; set 0 to only report);
//! * `RAYON_NUM_THREADS` — worker threads for the parallel timing (the
//!   gate itself is single-threaded by construction).

use std::io::Write as _;
use std::time::Instant;

use battleship::{run_active_learning, BattleshipStrategy, ExperimentConfig};
use em_core::{Label, PerfectOracle, Rng};
use em_matcher::{
    predict_reference, train_matcher, train_matcher_reference, FeatureConfig, Featurizer,
    MatcherConfig,
};
use em_synth::{generate, DatasetProfile};
use em_vector::{Embeddings, SparseRows};

use em_bench::env_or;

/// Two-blob synthetic matching task: rows of class 1 cluster around one
/// center, class 0 around another, with enough overlap that training
/// has real work to do.
fn synthetic_task(n: usize, dim: usize, seed: u64) -> (Embeddings, Vec<Label>) {
    let mut rng = Rng::seed_from_u64(seed);
    let center_pos: Vec<f32> = (0..dim).map(|_| rng.normal() as f32 * 0.8).collect();
    let center_neg: Vec<f32> = (0..dim).map(|_| rng.normal() as f32 * 0.8).collect();
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let positive = i % 3 == 0;
        let center = if positive { &center_pos } else { &center_neg };
        rows.push(
            center
                .iter()
                .map(|&c| c + rng.normal() as f32 * 0.9)
                .collect::<Vec<f32>>(),
        );
        labels.push(Label::from_bool(positive));
    }
    (
        Embeddings::from_rows(&rows).expect("non-empty task"),
        labels,
    )
}

/// One training/prediction task: features, labels and the row split.
struct Task {
    features: Embeddings,
    labels: Vec<Label>,
    train_n: usize,
    valid_n: usize,
}

/// Median seconds of the scalar baseline, the batched engine on one
/// core and the batched engine on every thread.
struct Timings {
    scalar: f64,
    serial: f64,
    parallel: f64,
}

impl Timings {
    fn speedup(&self) -> f64 {
        self.scalar / self.serial.max(1e-12)
    }
    fn speedup_parallel(&self) -> f64 {
        self.scalar / self.parallel.max(1e-12)
    }
}

/// Golden-check then time one task.
fn time_task(name: &str, task: &Task, config: &MatcherConfig) -> Timings {
    let n = task.features.len();
    let train_idx: Vec<usize> = (0..task.train_n).collect();
    let valid_idx: Vec<usize> = (task.train_n..task.train_n + task.valid_n).collect();
    let train_labels: Vec<Label> = train_idx.iter().map(|&i| task.labels[i]).collect();
    let valid_labels: Vec<Label> = valid_idx.iter().map(|&i| task.labels[i]).collect();
    let all_idx: Vec<usize> = (0..n).collect();
    let features = &task.features;
    let train = || {
        train_matcher(
            features,
            &train_idx,
            &train_labels,
            &valid_idx,
            &valid_labels,
            config,
        )
        .expect("batched training")
    };
    eprintln!(
        "[matcher] {name} task: n = {n}, dim = {}, train = {}, valid = {}",
        features.dim(),
        task.train_n,
        task.valid_n
    );

    // Golden check before timing: the batched + parallel predict must be
    // bit-identical to the per-row scalar path.
    let probe = train();
    let batched = probe.predict(features, &all_idx).expect("batched predict");
    for (bi, &i) in all_idx.iter().enumerate().step_by(97) {
        let (pred, repr) = probe.predict_one(features.row(i)).expect("scalar predict");
        assert_eq!(
            batched.predictions[bi].prob.to_bits(),
            pred.prob.to_bits(),
            "{name}: row {i} prob diverged"
        );
        assert_eq!(
            batched.representations.row(bi),
            repr.as_slice(),
            "{name}: row {i} representation diverged"
        );
    }
    eprintln!(
        "[matcher] {name}: golden check passed (tier: {}, best epoch {}, valid F1 {:.3})",
        em_vector::simd_tier().name(),
        probe.best_epoch,
        probe.best_valid_f1
    );

    // The seed-verbatim scalar baseline (inherently one core).
    let scalar = criterion::measure(3, || {
        let m = train_matcher_reference(
            features,
            &train_idx,
            &train_labels,
            &valid_idx,
            &valid_labels,
            config,
        )
        .expect("reference training");
        predict_reference(&m, features, &all_idx).expect("reference predict")
    });
    // The batched engine pinned to one core — the gate compares kernel
    // engines, not thread counts — then on every thread.
    let serial = rayon::serial_scope(|| {
        criterion::measure(3, || {
            train()
                .predict(features, &all_idx)
                .expect("batched predict")
        })
    });
    let parallel = criterion::measure(5, || {
        train()
            .predict(features, &all_idx)
            .expect("batched predict")
    });
    let timings = Timings {
        scalar: scalar.median_secs,
        serial: serial.median_secs,
        parallel: parallel.median_secs,
    };
    eprintln!(
        "[matcher] {name}: scalar {:.3} s, batched {:.3} s (1 core) / {:.3} s (parallel): \
         {:.2}× / {:.2}×",
        timings.scalar,
        timings.serial,
        timings.parallel,
        timings.speedup(),
        timings.speedup_parallel()
    );
    timings
}

/// Share of nonzero entries over a task's rows.
fn task_density(task: &Task) -> f64 {
    let rows: Vec<usize> = (0..task.features.len()).collect();
    let packed = SparseRows::from_rows(&task.features, &rows).expect("rows");
    packed.nnz() as f64 / (packed.len() * packed.dim()) as f64
}

/// The matcher's production input: featurized amazon-google pairs.
fn featurized_task(n: usize) -> Task {
    let profile = DatasetProfile::amazon_google().scaled(0.5);
    let dataset = generate(&profile, &mut Rng::seed_from_u64(0xBEEF)).expect("dataset");
    let featurizer = Featurizer::new(&dataset, FeatureConfig::default()).expect("featurizer");
    let all = featurizer.featurize_all(&dataset).expect("features");
    // Generation order puts every match first; the dataset's own split
    // interleaves them.
    let split = dataset.split();
    let order: Vec<usize> = split
        .train
        .iter()
        .chain(&split.valid)
        .chain(&split.test)
        .copied()
        .take(n)
        .collect();
    let n = order.len();
    let rows: Vec<Vec<f32>> = order.iter().map(|&i| all.row(i).to_vec()).collect();
    Task {
        features: Embeddings::from_rows(&rows).expect("non-empty task"),
        labels: order.iter().map(|&i| dataset.ground_truth(i)).collect(),
        train_n: (n / 5).max(64),
        valid_n: (n / 10).max(32),
    }
}

fn main() {
    let n: usize = env_or("EM_BENCH_MATCHER_N", 5000);
    let dim: usize = env_or("EM_BENCH_MATCHER_DIM", 128);
    let min_speedup: f64 = env_or("EM_BENCH_MATCHER_MIN_SPEEDUP", 3.0);
    let out_path: String = env_or("EM_BENCH_MATCHER_OUT", "BENCH_matcher.json".to_string());
    let config = MatcherConfig {
        hidden: vec![96],
        epochs: 10,
        seed: 0xD1770,
        ..Default::default()
    };

    let featurized = featurized_task(n);
    let sparse = time_task("featurized", &featurized, &config);
    let (dense_features, dense_labels) = synthetic_task(n, dim, 0xBEEF);
    let dense_task = Task {
        features: dense_features,
        labels: dense_labels,
        train_n: (n / 5).max(64),
        valid_n: (n / 10).max(32),
    };
    let dense = time_task("dense", &dense_task, &config);
    let (density, dense_density) = (task_density(&featurized), task_density(&dense_task));
    let speedup = sparse.speedup();
    let threads = rayon::current_num_threads();
    eprintln!(
        "[matcher] gate: {speedup:.2}× (featurized, density {density:.3}) and {:.2}× (dense, \
         density {dense_density:.3}) one-core (each ≥ {min_speedup:.1}×)",
        dense.speedup()
    );

    // End-to-end iteration latency: a full 2-iteration battleship run on
    // an amazon_google-scaled task, so the bench history tracks the
    // whole loop (train + predict + select), not just this subsystem.
    eprintln!("[matcher] end-to-end: run_active_learning (amazon_google, 2 iterations) …");
    let profile = DatasetProfile::amazon_google().scaled(0.06);
    let dataset = generate(&profile, &mut Rng::seed_from_u64(0xDA7A)).expect("dataset");
    let featurizer = Featurizer::new(&dataset, FeatureConfig::default()).expect("featurizer");
    let e2e_features = featurizer.featurize_all(&dataset).expect("features");
    let mut e2e_config = ExperimentConfig::default();
    e2e_config.al.budget = 40;
    e2e_config.al.seed_size = 40;
    e2e_config.al.weak_budget = 40;
    e2e_config.al.iterations = 2;
    e2e_config.matcher.epochs = 12;
    e2e_config.battleship.kselect_sample = 256;
    let oracle = PerfectOracle::new();
    let t_e2e = Instant::now();
    let report = run_active_learning(
        &dataset,
        &e2e_features,
        &mut BattleshipStrategy::new(),
        &oracle,
        &e2e_config,
        1,
    )
    .expect("end-to-end run");
    let e2e_secs = t_e2e.elapsed().as_secs_f64();
    let final_f1 = report
        .iterations
        .last()
        .map(|it| it.test_f1_pct)
        .unwrap_or(f64::NAN);
    let e2e_train_secs: f64 = report.iterations.iter().map(|it| it.train_secs).sum();
    let e2e_select_secs: f64 = report.iterations.iter().map(|it| it.select_secs).sum();
    eprintln!(
        "[matcher] end-to-end: {e2e_secs:.3} s ({} pairs, train {e2e_train_secs:.3} s, select \
         {e2e_select_secs:.3} s, final F1 {final_f1:.1}%)",
        dataset.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"matcher train+predict\",\n  \"task\": \"featurized amazon-google\",\n  \
         \"n\": {},\n  \"dim\": {},\n  \"density\": {density:.4},\n  \
         \"train_n\": {},\n  \"valid_n\": {},\n  \"epochs\": {},\n  \
         \"threads\": {threads},\n  \"simd_tier\": \"{}\",\n  \
         \"scalar_median_secs\": {:.6},\n  \"batched_serial_median_secs\": {:.6},\n  \
         \"batched_parallel_median_secs\": {:.6},\n  \"speedup_one_core\": {:.3},\n  \
         \"speedup_parallel\": {:.3},\n  \"min_speedup_gate\": {min_speedup},\n  \
         \"dense_task\": {{\n    \"n\": {},\n    \"dim\": {dim},\n    \
         \"density\": {dense_density:.4},\n    \
         \"scalar_median_secs\": {:.6},\n    \"batched_serial_median_secs\": {:.6},\n    \
         \"batched_parallel_median_secs\": {:.6},\n    \
         \"speedup_one_core\": {:.3}\n  }},\n  \
         \"e2e\": {{\n    \"dataset\": \"{}\",\n    \"scale\": 0.06,\n    \"pairs\": {},\n    \
         \"iterations\": {},\n    \"budget\": {},\n    \"wall_secs\": {:.6},\n    \
         \"train_secs\": {:.6},\n    \"select_secs\": {:.6},\n    \"final_f1_pct\": {:.3}\n  }}\n}}\n",
        featurized.features.len(),
        featurized.features.dim(),
        featurized.train_n,
        featurized.valid_n,
        config.epochs,
        em_vector::simd_tier().name(),
        sparse.scalar,
        sparse.serial,
        sparse.parallel,
        speedup,
        sparse.speedup_parallel(),
        dense_task.features.len(),
        dense.scalar,
        dense.serial,
        dense.parallel,
        dense.speedup(),
        dataset.name,
        dataset.len(),
        e2e_config.al.iterations,
        e2e_config.al.budget,
        e2e_secs,
        e2e_train_secs,
        e2e_select_secs,
        final_f1,
    );
    let json = em_bench::with_provenance(&json);
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[matcher] wrote {out_path}"),
        Err(e) => eprintln!("[matcher] warning: could not write {out_path}: {e}"),
    }

    for (name, task) in [("featurized", &sparse), ("dense", &dense)] {
        if min_speedup > 0.0 && task.speedup() < min_speedup {
            eprintln!(
                "[matcher] FAIL: {name} speedup {:.2}× below the {min_speedup:.1}× gate",
                task.speedup()
            );
            std::process::exit(1);
        }
    }
    eprintln!("[matcher] PASS");
}
