//! Ablation: robustness to annotator error. The paper assumes a perfect
//! oracle (§3.6) while acknowledging real labelers are biased; this
//! binary quantifies what a noisy oracle costs the battleship approach
//! at several flip probabilities.
//!
//! Grid cells always label through a perfect oracle, so this binary
//! drives `run_active_learning` with a [`NoisyOracle`] itself — over the
//! same scenario artifacts and run seeds the grids use.

use battleship::{run_active_learning, BattleshipStrategy, MultiSeedReport, Scenario};
use em_bench::BenchArgs;
use em_core::NoisyOracle;

fn main() {
    let args = BenchArgs::parse();
    let config = args.scale.experiment_config();
    let seeds = args.grid_config(config.clone(), false).run_seeds();
    const FLIP_PROBS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

    println!("Ablation — oracle noise (battleship final F1 %)\n");
    em_bench::print_row(
        "dataset",
        &FLIP_PROBS
            .iter()
            .map(|p| format!("flip={p}"))
            .collect::<Vec<_>>(),
    );
    for profile in [
        em_synth::DatasetProfile::walmart_amazon(),
        em_synth::DatasetProfile::dblp_scholar(),
    ] {
        eprintln!("[ablation_noisy_oracle] {} …", profile.name);
        let artifacts = Scenario::synthetic(profile.scaled(args.scale.factor()), 0xDA7A)
            .materialize()
            .expect("materialize");
        let mut cells = Vec::new();
        for flip in FLIP_PROBS {
            let runs: Vec<_> = seeds
                .iter()
                .map(|&s| {
                    let oracle = NoisyOracle::new(flip, s ^ 0x0DD).expect("oracle");
                    let mut strategy = BattleshipStrategy::new();
                    run_active_learning(
                        &artifacts.dataset,
                        &artifacts.features,
                        &mut strategy,
                        &oracle,
                        &config,
                        s,
                    )
                    .expect("run")
                })
                .collect();
            let agg = MultiSeedReport::aggregate(&runs).expect("aggregate");
            cells.push(format!("{:.2}", agg.final_f1().unwrap_or(0.0)));
        }
        em_bench::print_row(&artifacts.dataset.name, &cells);
    }
    println!("\n(F1 is measured against clean ground truth; only training labels are noisy)");
}
