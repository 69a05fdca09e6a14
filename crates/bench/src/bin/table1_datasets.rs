//! Table I: summary statistics of the three (synthetic) datasets.
//!
//! Paper values at full scale: 20NG V=5,770 / 10,827 train / 7,183 test;
//! Yahoo V=7,394 / 89,808 / 59,873; NYTimes V=34,330 / 179,814 / 119,876.
//! Our presets preserve the *relative* ordering (vocab, corpus size,
//! document length, label availability) at laptop scale.

use ct_bench::ExperimentContext;
use ct_corpus::DatasetPreset;

fn main() {
    let scale = ct_bench::scale_from_env();
    println!("Table I — dataset statistics (scale: {scale:?})\n");
    println!(
        "{:<14} {:>8} {:>10} {:>9} {:>10} {:>12} {:>8}",
        "Dataset", "Vocab", "Train", "Test", "AvgLen", "Tokens", "Labels"
    );
    for preset in DatasetPreset::ALL {
        let ctx = ExperimentContext::build(preset, scale, 42);
        let tokens = ctx.train.num_tokens() + ctx.test.num_tokens();
        println!(
            "{:<14} {:>8} {:>10} {:>9} {:>10.1} {:>12.0} {:>8}",
            preset.name(),
            ctx.train.vocab_size(),
            ctx.train.num_docs(),
            ctx.test.num_docs(),
            ctx.train.avg_doc_len(),
            tokens,
            if ctx.train.labels.is_some() {
                "yes"
            } else {
                "no"
            },
        );
    }
    println!("\npaper (full scale): 20NG 5770/10827/7183 len 59.8; Yahoo 7394/89808/59873 len 45.9; NYTimes 34330/179814/119876 len 345.7");
}
