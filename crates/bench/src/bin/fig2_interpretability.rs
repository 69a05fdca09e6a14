//! Figure 2: topic coherence (NPMI) and topic diversity versus the
//! proportion of selected topics (10%..100%), for all ten models on all
//! three datasets. Each model is run over `CT_SEEDS` seeds and the mean is
//! reported, as in the paper (3 seeds, error bars omitted).
//!
//! Trials are declared against the `ct-exp` registry and served from the
//! shared run ledger, so a re-run (or another harness sharing trials, like
//! fig3) performs no retraining.
//!
//! Expected shape: ContraTopic dominates coherence at every proportion and
//! stays near the top on diversity; CLNTM shows a coherent head with weak
//! diversity; several baselines decay sharply in coherence as lower-ranked
//! topics are included.

use ct_bench::{fmt_header, fmt_row, num_seeds, ModelKind};
use ct_corpus::DatasetPreset;
use ct_eval::PERCENTAGES;
use ct_exp::{aggregate_groups, ExperimentDef, GroupAggregate};

fn curve(group: &GroupAggregate, prefix: &str) -> Vec<f64> {
    PERCENTAGES
        .iter()
        .map(|p| {
            let tag = (p * 100.0).round() as u32;
            group.mean(&format!("{prefix}@{tag}")).unwrap_or(f64::NAN)
        })
        .collect()
}

fn main() {
    let scale = ct_bench::scale_from_env();
    let seeds = num_seeds();
    // Optional filter: pass model names as args to run a subset.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let models: Vec<ModelKind> = if args.is_empty() {
        ModelKind::ALL.to_vec()
    } else {
        ModelKind::ALL
            .into_iter()
            .filter(|m| args.iter().any(|a| a.eq_ignore_ascii_case(m.name())))
            .collect()
    };
    let cols: Vec<String> = PERCENTAGES
        .iter()
        .map(|p| format!("{:.0}%", p * 100.0))
        .collect();

    println!("Figure 2 — topic interpretability (scale {scale:?}, {seeds} seed(s))");
    let records = if args.is_empty() {
        ct_bench::run_experiment("fig2", scale, seeds, &|p| {
            if let Some(line) = ct_bench::progress_line(&p) {
                eprintln!("{line}");
            }
        })
    } else {
        let grid: Vec<_> = ExperimentDef::find("fig2")
            .expect("registered experiment")
            .grid(scale, seeds)
            .into_iter()
            .filter(|s| models.contains(&s.model))
            .collect();
        ct_bench::run_trials(&grid, &|p| {
            if let Some(line) = ct_bench::progress_line(&p) {
                eprintln!("{line}");
            }
        })
    };
    let groups = aggregate_groups(&records);

    for preset in DatasetPreset::ALL {
        println!("\n=== {} ===", preset.name());
        println!("[topic coherence (mean NPMI over selected topics)]");
        println!("{}", fmt_header("model", &cols));
        let mut diversity_rows = Vec::new();
        for &model in &models {
            let Some(group) = groups
                .iter()
                .find(|g| g.spec.preset == preset && g.spec.model == model)
            else {
                continue;
            };
            println!("{}", fmt_row(model.name(), &curve(group, "coh")));
            diversity_rows.push((model.name(), curve(group, "div")));
        }
        println!("[topic diversity (unique fraction of top-25 words)]");
        println!("{}", fmt_header("model", &cols));
        for (name, div) in diversity_rows {
            println!("{}", fmt_row(name, &div));
        }
    }
}
