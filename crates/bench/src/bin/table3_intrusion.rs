//! Table III: word-intrusion scores (WIS) on the 20NG-like dataset for all
//! ten models, with the simulated annotator panel (20 annotators, 30
//! decile-stratified topics per model, intruders drawn as in §V-J).
//!
//! Expected shape: ContraTopic highest; NTM-R / LDA in the low band —
//! mirroring the paper's WIS row (LDA .34, ProdLDA .37, WLDA .34, ETM .58,
//! NSTM .68, WeTe .67, NTMR .29, VTMRL .46, CLNTM .64, ContraTopic .80).

use ct_bench::{num_seeds, ExperimentContext, ModelKind};
use ct_corpus::DatasetPreset;
use ct_eval::{word_intrusion_score, IntrusionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = ct_bench::scale_from_env();
    let seeds = num_seeds();
    let ctx = ExperimentContext::build(DatasetPreset::Ng20Like, scale, 42);
    let config = IntrusionConfig::default();
    println!(
        "Table III — word-intrusion scores on {} (scale {scale:?}, {} annotators, {} topics/decile)",
        ctx.preset.name(),
        config.annotators,
        config.topics_per_decile
    );
    println!("{:<14} {:>6}", "model", "WIS");
    for model in ModelKind::ALL {
        let mut wis = 0.0;
        for s in 0..seeds {
            let fitted = model.fit(&ctx, 42 + s as u64);
            let mut rng = StdRng::seed_from_u64(1000 + s as u64);
            wis += word_intrusion_score(&fitted.beta(), &ctx.npmi_test, &config, &mut rng)
                / seeds as f64;
        }
        println!("{:<14} {wis:>6.2}", model.name());
    }
    println!("\npaper: LDA .34 ProdLDA .37 WLDA .34 ETM .58 NSTM .68 WeTe .67 NTMR .29 VTMRL .46 CLNTM .64 ContraTopic .80");
}
