//! Ablation: PageRank (the paper's Eq. 5 choice) vs Brandes betweenness
//! (the classic alternative the paper names in §2.2) as the centrality
//! half of the Eq. 6 rank blend.

use battleship::{ArtifactCache, CentralityMeasure, ExperimentGrid, Scenario, StrategySpec};
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

    let grids = [CentralityMeasure::PageRank, CentralityMeasure::Betweenness].map(|measure| {
        eprintln!("[ablation_centrality] {measure:?} …");
        let mut cfg = config.clone();
        cfg.battleship.centrality = measure;
        ExperimentGrid::new(
            scenarios.clone(),
            vec![StrategySpec::Battleship],
            args.grid_config(cfg, false),
        )
        .run_with_cache(&cache)
        .expect("grid")
    });

    println!("Ablation — centrality measure (final F1 % / AUC)\n");
    em_bench::print_row("dataset", &["pagerank".into(), "betweenness".into()]);
    for scenario in &scenarios {
        let name = scenario.name();
        let cells: Vec<String> = grids
            .iter()
            .map(|grid| {
                let agg = &grid.cell(name, "battleship").expect("cell").aggregate;
                format!("{:.1}/{:.0}", agg.final_f1().unwrap_or(0.0), agg.mean_auc)
            })
            .collect();
        em_bench::print_row(name, &cells);
    }
}
