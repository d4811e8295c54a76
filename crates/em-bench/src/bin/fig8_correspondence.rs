//! Figure 8: the correspondence effect. With α = 1 and β = 1 the
//! battleship selection degenerates to DAL's entropy criterion — *except*
//! that selection stays confined to connected components with Eq. 2
//! budgets. Any gap between the two curves is therefore attributable to
//! the correspondence machinery (vector-space partitioning + budget
//! distribution) alone.

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

    eprintln!("[fig8] battleship (α = β = 1) …");
    let mut degenerate = config.clone();
    degenerate.battleship.alpha = 1.0;
    degenerate.battleship.beta = 1.0;
    let battleship_grid = ExperimentGrid::new(
        scenarios.clone(),
        vec![StrategySpec::Battleship],
        args.grid_config(degenerate, false),
    )
    .run_with_cache(&cache)
    .expect("battleship grid");
    eprintln!("[fig8] dal …");
    let dal_grid = ExperimentGrid::new(
        scenarios.clone(),
        vec![StrategySpec::Dal],
        args.grid_config(config, false),
    )
    .run_with_cache(&cache)
    .expect("dal grid");

    for scenario in &scenarios {
        let name = scenario.name();
        println!("\nFigure 8 — {name} (F1 % per iteration; α = 1, β = 1)");
        let battleship = &battleship_grid
            .cell(name, "battleship")
            .expect("cell")
            .aggregate;
        let dal = &dal_grid.cell(name, "dal").expect("cell").aggregate;

        let labels: Vec<String> = battleship
            .mean_curve
            .iter()
            .map(|(x, _)| format!("{x:.0}"))
            .collect();
        em_bench::print_row("labels", &labels);
        for (row, report) in [("battleship(1,1)", battleship), ("dal", dal)] {
            let cells: Vec<String> = report
                .mean_curve
                .iter()
                .map(|(_, y)| format!("{y:.2}"))
                .collect();
            em_bench::print_row(row, &cells);
        }
        println!(
            "AUC: battleship(1,1) {:.2} vs dal {:.2}",
            battleship.mean_auc, dal.mean_auc
        );
        let _ = args.write_json(
            &format!("fig8_{name}.json"),
            &vec![("battleship11", battleship), ("dal", dal)],
        );
    }
}
