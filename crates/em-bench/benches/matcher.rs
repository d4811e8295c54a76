//! Matcher-engine benchmark: the batched train + predict path against
//! the seed's scalar implementation's frozen times on the same tasks.
//!
//! This is the perf gate for the matcher half of each active-learning
//! iteration (§3.1/§4.2). Two tasks sit on either side of the density
//! threshold at which training lays the network's first layer out for
//! sparse inputs ([`em_matcher::DENSE_INPUT_DENSITY`]):
//!
//! * **featurized** — the matcher's real input, amazon-google pairs
//!   (848-d hashed token counts and one-hot bins, ~2 % nonzero), which
//!   run the sparse first-layer kernel;
//! * **dense** — a synthetic two-blob task (128 inputs, all nonzero),
//!   which runs the dense fused GEMM.
//!
//! On each, the batched engine ([`em_matcher::train_matcher`] +
//! [`TrainedMatcher::predict`]) must run ≥ 3× faster **on one core**
//! than the seed's per-sample scalar train + predict did
//! ([`SEED_FEATURIZED_SECS`], [`SEED_DENSE_SECS`], measured once before
//! that copy was retired). The one-core runs are the `serial_scope` side
//! of 5 alternating pairs ([`em_bench::timing::paired`]) against the
//! batched engine on every thread, so the gate measures the kernel
//! engine, not thread count, and the parallel-vs-one-core ratio is
//! reported alongside. Results are written to `BENCH_matcher.json`,
//! quartiles included, together with an end-to-end `run_active_learning`
//! wall-clock (2 iterations, amazon_google-scaled profile) so future
//! PRs can track whole-iteration latency, not just subsystem speedups.
//!
//! Knobs (environment):
//! * `EM_BENCH_MATCHER_OUT` — output JSON path
//!   (default `BENCH_matcher.json`);
//! * `EM_BENCH_MATCHER_MIN_SPEEDUP` — exit non-zero when either task's
//!   one-core speedup is below this (default 3.0; set 0 to only report);
//! * `RAYON_NUM_THREADS` — worker threads for the parallel timing (the
//!   gate itself is single-threaded by construction).

use battleship::{run_active_learning, BattleshipStrategy, ExperimentConfig};
use em_core::{Label, PerfectOracle, Rng};
use em_matcher::{train_matcher, FeatureConfig, Featurizer, MatcherConfig};
use em_synth::{generate, DatasetProfile};
use em_vector::{Embeddings, SparseRows};

use em_bench::env_or;
use em_bench::gate::Gates;
use em_bench::timing::{paired, timed, Paired, Summary};

/// Alternating pairs behind each ratio.
const PAIRS: usize = 5;

/// Rows per task (the featurized task is capped at its generated pair
/// count) and the dense task's dimension; the frozen seed times hold
/// for these sizes only.
const N: usize = 5000;
const DENSE_DIM: usize = 128;

/// Where the seed's scalar train + predict was timed, one core: commit
/// 11539af, a 2-core AVX-512 VM, `RAYON_NUM_THREADS=2`.
const SEED_MEASURED: &str = "commit 11539af, 2-core AVX-512 VM, one core";

/// Seconds of the seed's train + predict on the featurized task: the
/// lower quartile of six bench runs' 5-pair medians (1.35–1.46 s),
/// since the host's load only adds time.
const SEED_FEATURIZED_SECS: f64 = 1.383;

/// Seconds of the seed's train + predict on the dense task: the lower
/// quartile of six bench runs' 5-pair medians (0.152–0.199 s).
const SEED_DENSE_SECS: f64 = 0.153;

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

/// One task's timings: the batched engine on every thread (A) against
/// one core (B), and the one-core side's speedup over the seed.
struct Timings {
    pool: Paired,
    speedup: Summary,
}

/// Golden-check then time one task against the seed's `seed_secs`.
fn time_task(name: &str, task: &Task, config: &MatcherConfig, seed_secs: f64) -> Timings {
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

    let batched = || {
        train()
            .predict(features, &all_idx)
            .expect("batched predict")
    };
    let (pool, _, _) = paired(PAIRS, batched, || rayon::serial_scope(batched));
    let speedup = Summary::of(&pool.b_secs).speedup_over(seed_secs);
    eprintln!(
        "[matcher] {name}: seed {seed_secs:.3} s, batched {:.3} s (1 core) / {:.3} s (parallel): \
         one-core speedup {speedup}",
        pool.b_median(),
        pool.a_median(),
    );
    Timings { pool, speedup }
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
    let min_speedup: f64 = env_or("EM_BENCH_MATCHER_MIN_SPEEDUP", 3.0);
    let out_path: String = env_or("EM_BENCH_MATCHER_OUT", "BENCH_matcher.json".to_string());
    let config = MatcherConfig {
        hidden: vec![96],
        epochs: 10,
        seed: 0xD1770,
        ..Default::default()
    };

    let featurized = featurized_task(N);
    let sparse = time_task("featurized", &featurized, &config, SEED_FEATURIZED_SECS);
    let (dense_features, dense_labels) = synthetic_task(N, DENSE_DIM, 0xBEEF);
    let dense_task = Task {
        features: dense_features,
        labels: dense_labels,
        train_n: N / 5,
        valid_n: N / 10,
    };
    let dense = time_task("dense", &dense_task, &config, SEED_DENSE_SECS);
    let (density, dense_density) = (task_density(&featurized), task_density(&dense_task));
    let threads = rayon::current_num_threads();
    eprintln!(
        "[matcher] gate: {:.2}× (featurized, density {density:.3}) and {:.2}× (dense, \
         density {dense_density:.3}) one-core (each ≥ {min_speedup:.1}×)",
        sparse.speedup.median, dense.speedup.median
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
    let (report, e2e_secs) = timed(|| {
        run_active_learning(
            &dataset,
            &e2e_features,
            &mut BattleshipStrategy::new(),
            &oracle,
            &e2e_config,
            1,
        )
        .expect("end-to-end run")
    });
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
         \"seed_measured\": \"{SEED_MEASURED}\",\n  \
         \"seed_secs\": {SEED_FEATURIZED_SECS},\n  \"batched_serial_median_secs\": {:.6},\n  \
         \"batched_parallel_median_secs\": {:.6},\n  \"speedup_one_core\": {},\n  \
         \"parallel_vs_one_core\": {},\n  \"min_speedup_gate\": {min_speedup},\n  \
         \"dense_task\": {{\n    \"n\": {},\n    \"dim\": {DENSE_DIM},\n    \
         \"density\": {dense_density:.4},\n    \
         \"seed_secs\": {SEED_DENSE_SECS},\n    \"batched_serial_median_secs\": {:.6},\n    \
         \"batched_parallel_median_secs\": {:.6},\n    \
         \"speedup_one_core\": {}\n  }},\n  \
         \"e2e\": {{\n    \"dataset\": \"{}\",\n    \"scale\": 0.06,\n    \"pairs\": {},\n    \
         \"iterations\": {},\n    \"budget\": {},\n    \"wall_secs\": {:.6},\n    \
         \"train_secs\": {:.6},\n    \"select_secs\": {:.6},\n    \"final_f1_pct\": {:.3}\n  }}\n}}\n",
        featurized.features.len(),
        featurized.features.dim(),
        featurized.train_n,
        featurized.valid_n,
        config.epochs,
        em_vector::simd_tier().name(),
        sparse.pool.b_median(),
        sparse.pool.a_median(),
        sparse.speedup,
        sparse.pool.ratio(),
        dense_task.features.len(),
        dense.pool.b_median(),
        dense.pool.a_median(),
        dense.speedup,
        dataset.name,
        dataset.len(),
        e2e_config.al.iterations,
        e2e_config.al.budget,
        e2e_secs,
        e2e_train_secs,
        e2e_select_secs,
        final_f1,
    );
    let mut gates = Gates::default();
    for (name, task) in [("featurized", &sparse), ("dense", &dense)] {
        gates.at_least(&format!("{name} speedup"), task.speedup.median, min_speedup);
    }
    gates.finish("matcher", &out_path, &json);
}
