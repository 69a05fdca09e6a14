//! Figure 5: sensitivity to lambda and v on the NYTimes-like dataset.
//!
//! NYTimes is unlabelled, so the km-Purity columns are omitted; the paper
//! also notes lambda's scale is much larger on NYTimes (it uses 300), so
//! the sweep covers a wider range. Runs through the `ct-exp` ledger; the
//! default point (lambda=600, v=10) is shared with fig2's NYTimes trial.

use ct_exp::{aggregate_groups, default_lambda, GroupAggregate};

const LAMBDAS: [f32; 4] = [0.0, 150.0, 600.0, 1800.0];
const VS: [usize; 4] = [1, 7, 13, 19];

fn cells(group: &GroupAggregate) -> String {
    ["coh@10", "coh@90", "div@10", "div@90"]
        .iter()
        .map(|m| format!(" {:>8.3}", group.mean(m).unwrap_or(f64::NAN)))
        .collect()
}

fn main() {
    let scale = ct_bench::scale_from_env();
    println!("Figure 5 — sensitivity on NYTimes-like (scale {scale:?})");
    let records = ct_bench::run_experiment("fig5", scale, 1, &|p| {
        if let Some(line) = ct_bench::progress_line(&p) {
            eprintln!("{line}");
        }
    });
    let groups = aggregate_groups(&records);
    let lambda_default = default_lambda(ct_corpus::DatasetPreset::NyTimesLike);

    println!(
        "[lambda sweep, v = 10]\n{:<10} {:>8} {:>8} {:>8} {:>8}",
        "lambda", "coh@10%", "coh@90%", "div@10%", "div@90%"
    );
    for &l in &LAMBDAS {
        let Some(g) = groups.iter().find(|g| {
            g.spec
                .ct
                .as_ref()
                .is_some_and(|ct| ct.lambda == l && ct.v == 10)
        }) else {
            continue;
        };
        println!("{l:<10}{}", cells(g));
    }
    println!(
        "[v sweep, lambda = {lambda_default}]\n{:<10} {:>8} {:>8} {:>8} {:>8}",
        "v", "coh@10%", "coh@90%", "div@10%", "div@90%"
    );
    for &v in &VS {
        let Some(g) = groups.iter().find(|g| {
            g.spec
                .ct
                .as_ref()
                .is_some_and(|ct| ct.v == v && ct.lambda == lambda_default)
        }) else {
            continue;
        };
        println!("{v:<10}{}", cells(g));
    }
}
