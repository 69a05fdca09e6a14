//! Table II: ablation study on the 20NG-like dataset.
//!
//! Variants: ContraTopic (full), -P (positives only), -N (negatives only),
//! -I (embedding inner-product kernel), -S (no sampling — expectation).
//! Reported: topic coherence at 10/50/90% of selected topics, topic
//! diversity at the same proportions, and km-Purity at 20/60/100% of the
//! cluster-count range, each as mean ± std over `CT_SEEDS` seeds.
//!
//! The Full variant's trials coincide with fig2's ContraTopic runs and are
//! shared through the run ledger.
//!
//! Expected shape: Full >= -S > -P ≈ -I > -N, with -N clearly worst.

use contratopic::AblationVariant;
use ct_bench::{cluster_counts, num_seeds};
use ct_exp::{aggregate_groups, GroupAggregate};

fn cell(group: &GroupAggregate, metric: &str) -> String {
    match group.metrics.get(metric) {
        Some(ms) => format!("{:.2}±{:.1}", ms.mean, ms.std),
        None => "n/a".to_string(),
    }
}

fn main() {
    let scale = ct_bench::scale_from_env();
    let seeds = num_seeds();
    let counts = cluster_counts(scale);
    // 20/60/100% of the cluster-count range.
    let purity_ks = [
        counts[(counts.len() - 1) / 5],
        counts[(counts.len() - 1) * 3 / 5],
        counts[counts.len() - 1],
    ];

    println!("Table II — ablation on 20NG-like (scale {scale:?}, {seeds} seed(s))");
    let records = ct_bench::run_experiment("table2", scale, seeds, &|p| {
        if let Some(line) = ct_bench::progress_line(&p) {
            eprintln!("{line}");
        }
    });
    let groups = aggregate_groups(&records);

    println!(
        "{:<16} | {:^26} | {:^26} | {:^26}",
        "", "Topic Coherence", "Topic Diversity", "km-Purity"
    );
    println!(
        "{:<16} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "variant",
        "10%",
        "50%",
        "90%",
        "10%",
        "50%",
        "90%",
        format!("k={}", purity_ks[0]),
        format!("k={}", purity_ks[1]),
        format!("k={}", purity_ks[2]),
    );

    for variant in AblationVariant::ALL {
        let Some(group) = groups
            .iter()
            .find(|g| g.spec.ct.as_ref().is_some_and(|ct| ct.variant == variant))
        else {
            continue;
        };
        println!(
            "{:<16} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
            variant.label(),
            cell(group, "coh@10"),
            cell(group, "coh@50"),
            cell(group, "coh@90"),
            cell(group, "div@10"),
            cell(group, "div@50"),
            cell(group, "div@90"),
            cell(group, &format!("pur@k{}", purity_ks[0])),
            cell(group, &format!("pur@k{}", purity_ks[1])),
            cell(group, &format!("pur@k{}", purity_ks[2])),
        );
    }
    println!("\npaper shape: Full >= -S > -P ≈ -I > -N (−N worst across the board)");
}
