//! Figure 3: document-representation quality. KMeans is run on the
//! test-set document-topic distributions at several cluster counts
//! (paper: 20..100) and scored with purity and NMI against the document
//! labels, on the two labelled datasets (20NG-like, Yahoo-like).
//!
//! Every fig3 trial is shared with fig2's grid, so running fig2 first
//! means this harness trains nothing — it reads the run ledger.

use ct_bench::{cluster_counts, fmt_header, fmt_row, num_seeds, ModelKind};
use ct_corpus::DatasetPreset;
use ct_exp::{aggregate_groups, ExperimentDef};

fn main() {
    let scale = ct_bench::scale_from_env();
    let seeds = num_seeds();
    let counts = cluster_counts(scale);
    let cols: Vec<String> = counts.iter().map(|c| format!("k={c}")).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let models: Vec<ModelKind> = if args.is_empty() {
        ModelKind::ALL.to_vec()
    } else {
        ModelKind::ALL
            .into_iter()
            .filter(|m| args.iter().any(|a| a.eq_ignore_ascii_case(m.name())))
            .collect()
    };

    println!(
        "Figure 3 — km-Purity / km-NMI on labelled datasets (scale {scale:?}, {seeds} seed(s))"
    );
    let records = if args.is_empty() {
        ct_bench::run_experiment("fig3", scale, seeds, &|p| {
            if let Some(line) = ct_bench::progress_line(&p) {
                eprintln!("{line}");
            }
        })
    } else {
        let grid: Vec<_> = ExperimentDef::find("fig3")
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

    for preset in [DatasetPreset::Ng20Like, DatasetPreset::YahooLike] {
        println!("\n=== {} ===", preset.name());
        let mut purity_rows = Vec::new();
        let mut nmi_rows = Vec::new();
        for &model in &models {
            let Some(group) = groups
                .iter()
                .find(|g| g.spec.preset == preset && g.spec.model == model)
            else {
                continue;
            };
            let at = |prefix: &str| -> Vec<f64> {
                counts
                    .iter()
                    .map(|k| group.mean(&format!("{prefix}@k{k}")).unwrap_or(f64::NAN))
                    .collect()
            };
            purity_rows.push((model.name(), at("pur")));
            nmi_rows.push((model.name(), at("nmi")));
        }
        println!("[km-Purity]");
        println!("{}", fmt_header("model", &cols));
        for (name, row) in &purity_rows {
            println!("{}", fmt_row(name, row));
        }
        println!("[km-NMI]");
        println!("{}", fmt_header("model", &cols));
        for (name, row) in &nmi_rows {
            println!("{}", fmt_row(name, row));
        }
    }
}
