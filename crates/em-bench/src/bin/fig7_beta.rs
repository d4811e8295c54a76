//! Figure 7: local vs spatial certainty — β ∈ {0, 0.5, 1} on
//! Walmart-Amazon and Amazon-Google (α fixed at 0.5).
//!
//! β = 0 uses only the spatial (neighbourhood-agreement) entropy, β = 1
//! only the model's own entropy; the paper finds the β = 0.5 fusion ahead
//! once labels exceed ~500 and more stable throughout.

use battleship::{ArtifactCache, ExperimentGrid, Scenario, StrategySpec};
use em_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let config = args.scale.experiment_config();
    let scenarios: Vec<Scenario> = [
        em_synth::DatasetProfile::walmart_amazon(),
        em_synth::DatasetProfile::amazon_google(),
    ]
    .into_iter()
    .map(|p| Scenario::synthetic(p.scaled(args.scale.factor()), 0xDA7A))
    .collect();
    let cache = ArtifactCache::new();

    let betas = [0.0, 0.5, 1.0];
    let grids: Vec<_> = betas
        .iter()
        .map(|&beta| {
            eprintln!("[fig7] β = {beta} …");
            let mut cfg = config.clone();
            cfg.battleship.alpha = 0.5;
            cfg.battleship.beta = beta;
            ExperimentGrid::new(
                scenarios.clone(),
                vec![StrategySpec::Battleship],
                args.grid_config(cfg, false),
            )
            .run_with_cache(&cache)
            .expect("grid")
        })
        .collect();

    for scenario in &scenarios {
        let name = scenario.name();
        println!("\nFigure 7 — {name} (F1 % per iteration, α = 0.5)");
        let results: Vec<_> = betas
            .iter()
            .zip(&grids)
            .map(|(beta, grid)| {
                (
                    beta,
                    &grid.cell(name, "battleship").expect("cell").aggregate,
                )
            })
            .collect();
        let labels: Vec<String> = results[0]
            .1
            .mean_curve
            .iter()
            .map(|(x, _)| format!("{x:.0}"))
            .collect();
        em_bench::print_row("labels", &labels);
        for (beta, report) in &results {
            let cells: Vec<String> = report
                .mean_curve
                .iter()
                .map(|(_, y)| format!("{y:.2}"))
                .collect();
            em_bench::print_row(&format!("beta={beta}"), &cells);
        }
        let _ = args.write_json(&format!("fig7_{name}.json"), &results);
    }
}
