//! Figure 6: backbone substitution on 20NG-like and Yahoo-like. Each of
//! ETM, WLDA and WeTe is trained plain (blue lines in the paper) and with
//! the ContraTopic regularizer attached (pink lines); we report coherence,
//! diversity, km-Purity and km-NMI.
//!
//! The ETM / ContraTopic / WeTe trials are shared with fig2 through the
//! run ledger; only the WLDA-family trials are unique to this figure.
//!
//! Expected shape: + regularizer improves coherence and diversity for
//! every backbone; WLDA gains the most in purity/NMI.

use ct_bench::{cluster_counts, num_seeds_or, ModelKind};
use ct_corpus::DatasetPreset;
use ct_exp::{aggregate_groups, GroupAggregate};

fn report(name: &str, group: &GroupAggregate, k_mid: usize) {
    let m = |metric: &str| group.mean(metric).unwrap_or(f64::NAN);
    println!(
        "{name:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        m("coh@10"),
        m("coh@100"),
        m("div@10"),
        m("div@100"),
        m(&format!("pur@k{k_mid}")),
        m(&format!("nmi@k{k_mid}")),
    );
}

fn main() {
    let scale = ct_bench::scale_from_env();
    let seeds = num_seeds_or(1);
    println!("Figure 6 — backbone substitution (scale {scale:?}, {seeds} seed(s))");
    let records = ct_bench::run_experiment("fig6", scale, seeds, &|p| {
        if let Some(line) = ct_bench::progress_line(&p) {
            eprintln!("{line}");
        }
    });
    let groups = aggregate_groups(&records);
    let rows = [
        (ModelKind::Etm, "ETM"),
        (ModelKind::ContraTopic, "ETM + regularizer"),
        (ModelKind::Wlda, "WLDA"),
        (ModelKind::ContraTopicWlda, "WLDA + regularizer"),
        (ModelKind::WeTe, "WeTe"),
        (ModelKind::ContraTopicWete, "WeTe + regularizer"),
    ];
    for preset in [DatasetPreset::Ng20Like, DatasetPreset::YahooLike] {
        let counts = cluster_counts(scale);
        let k_mid = counts[counts.len() / 2];
        println!(
            "\n=== {} ===\n{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            preset.name(),
            "model",
            "coh@10%",
            "coh@100%",
            "div@10%",
            "div@100%",
            "purity",
            "nmi"
        );
        for (model, name) in rows {
            let Some(group) = groups
                .iter()
                .find(|g| g.spec.preset == preset && g.spec.model == model)
            else {
                continue;
            };
            report(name, group, k_mid);
        }
    }
}
