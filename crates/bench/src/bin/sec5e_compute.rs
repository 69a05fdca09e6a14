//! §V-E computational analysis: the extra cost of the regularizer.
//!
//! The paper reports: NPMI precomputation ≈ 30 training epochs; the dense
//! NPMI matrix costs O(V^2) memory (14.5 GB GPU / 8.6 GB CPU-resident at
//! NYTimes scale); ContraTopic spends 65.68 s/epoch on NYTimes. Here we
//! time NPMI construction, report the dense kernel footprint, and compare
//! ContraTopic's epoch time against the plain ETM backbone on each preset.
//!
//! Each model's epoch time is the median over [`RUNS`] short fits of
//! [`EPOCHS_PER_RUN`] epochs, printed in ms to three significant digits:
//! at quick scale an ETM epoch takes tens of milliseconds, and a single
//! fit on a shared host can land in a stretch that runs 1.5× slow.

use std::time::Instant;

use contratopic::{fit_contratopic, SimilarityKernel};
use ct_bench::ExperimentContext;
use ct_corpus::{DatasetPreset, NpmiMatrix};
use ct_models::fit_etm;

/// Short fits timed per model; the reported epoch time is their median.
const RUNS: usize = 5;
/// Epochs in each timed fit.
const EPOCHS_PER_RUN: usize = 2;

/// Median wall time per epoch, in ms, of [`RUNS`] calls to `fit`.
fn median_epoch_ms(mut fit: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            fit();
            1e3 * t0.elapsed().as_secs_f64() / EPOCHS_PER_RUN as f64
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2]
}

/// `x` rounded to three significant digits, with no trailing exponent.
fn three_sig(x: f64) -> String {
    if !(x.is_finite() && x > 0.0) {
        return format!("{x}");
    }
    let digits = x.log10().floor() as i32 + 1;
    let unit = 10f64.powi(digits - 3);
    let decimals = (3 - digits).max(0) as usize;
    format!("{:.*}", decimals, (x / unit).round() * unit)
}

fn main() {
    let scale = ct_bench::scale_from_env();
    println!("§V-E — computational analysis (scale {scale:?})\n");
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "dataset", "V", "npmi-build", "kernel-mem", "ETM ms/epoch", "CT ms/epoch", "CT/ETM"
    );
    for preset in DatasetPreset::ALL {
        let ctx = ExperimentContext::build(preset, scale, 42);
        let t0 = Instant::now();
        let npmi = NpmiMatrix::from_corpus(&ctx.train);
        let npmi_secs = t0.elapsed().as_secs_f64();
        let kernel = SimilarityKernel::npmi(&npmi);
        let mem_mb = kernel.memory_bytes() as f64 / (1024.0 * 1024.0);

        let mut base = ctx.train_config(42);
        base.epochs = EPOCHS_PER_RUN;
        let etm_ms = median_epoch_ms(|| {
            fit_etm(&ctx.train, ctx.embeddings.clone(), &base);
        });
        let ct_ms = median_epoch_ms(|| {
            fit_contratopic(
                &ctx.train,
                ctx.embeddings.clone(),
                &ctx.npmi_train,
                &base,
                &ctx.contratopic_config(),
            );
        });
        println!(
            "{:<14} {:>6} {:>10.2}s {:>10.1}MB {:>14} {:>14} {:>8.2}",
            preset.name(),
            ctx.train.vocab_size(),
            npmi_secs,
            mem_mb,
            three_sig(etm_ms),
            three_sig(ct_ms),
            ct_ms / etm_ms,
        );
    }
    println!(
        "\npaper (NYTimes, V=34,330): 65.68 s/epoch, 14,593 MiB with the NPMI matrix in GPU memory"
    );
}
