//! Figure 1: t-SNE visualization of pair representations from a fully
//! trained matcher, for Amazon-Google and Walmart-Amazon.
//!
//! The paper's reading of the figure is qualitative — "positive pairs
//! tend to gather together" — so besides dumping the 2-D coordinates
//! (CSV in the out dir, plottable with anything) this binary reports the
//! quantitative version: k-NN label purity of the match class in the
//! embedding versus the dataset's base positive rate.

use std::io::Write as _;

use battleship::Scenario;
use em_bench::BenchArgs;
use em_core::Label;
use em_matcher::train_matcher;
use em_vector::tsne::knn_label_purity;
use em_vector::{Tsne, TsneConfig};

fn main() {
    let args = BenchArgs::parse();
    let config = args.scale.experiment_config();

    for profile in [
        em_synth::DatasetProfile::amazon_google(),
        em_synth::DatasetProfile::walmart_amazon(),
    ] {
        eprintln!("[fig1] {} …", profile.name);
        let artifacts = Scenario::synthetic(profile.scaled(args.scale.factor()), 0xDA7A)
            .materialize()
            .expect("materialize");
        let d = &artifacts.dataset;

        // Fully trained model (Figure 1 trains on the complete train set).
        let train = d.split().train.clone();
        let train_labels = d.ground_truth_of(&train);
        let valid = d.split().valid.clone();
        let valid_labels = d.ground_truth_of(&valid);
        let matcher = train_matcher(
            &artifacts.features,
            &train,
            &train_labels,
            &valid,
            &valid_labels,
            &config.matcher,
        )
        .expect("train");

        // Representations for a bounded sample (exact t-SNE is O(n²)).
        let cap = 1200.min(train.len());
        let sample: Vec<usize> = train.iter().copied().take(cap).collect();
        let out = matcher
            .predict(&artifacts.features, &sample)
            .expect("predict");
        let labels: Vec<bool> = sample
            .iter()
            .map(|&i| d.ground_truth(i) == Label::Match)
            .collect();

        let embedding = Tsne::new(TsneConfig {
            perplexity: 30.0,
            iterations: 350,
            ..Default::default()
        })
        .fit(&out.representations)
        .expect("tsne");

        let (pos_purity, neg_purity) = knn_label_purity(&embedding, &labels, 10).expect("purity");
        let base_rate = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
        println!(
            "Figure 1 — {}: 10-NN match purity {:.3} (base rate {:.3}), non-match purity {:.3}",
            d.name, pos_purity, base_rate, neg_purity
        );
        println!(
            "  → matches {} together (purity / base rate = {:.1}×)",
            if pos_purity > 2.0 * base_rate {
                "strongly concentrate"
            } else if pos_purity > base_rate {
                "concentrate"
            } else {
                "do NOT concentrate"
            },
            pos_purity / base_rate.max(1e-9)
        );

        // CSV dump: x, y, is_match.
        std::fs::create_dir_all(&args.out_dir).expect("out dir");
        let path = args.out_dir.join(format!("fig1_{}.csv", d.name));
        let mut f = std::fs::File::create(&path).expect("csv");
        writeln!(f, "x,y,is_match").unwrap();
        for (i, &label) in labels.iter().enumerate() {
            let r = embedding.row(i);
            writeln!(f, "{},{},{}", r[0], r[1], label as u8).unwrap();
        }
        println!("  coordinates written to {}", path.display());
    }
}
