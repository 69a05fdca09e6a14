//! Export a human-readable word-intrusion questionnaire (the paper's §V-J
//! / Figure 7 format) for a trained ContraTopic model, so an actual human
//! study can be run on top of this reproduction.
//!
//! ```sh
//! cargo run --release -p ct-bench --bin export_questionnaire > questionnaire.txt
//! ```

use ct_bench::{ExperimentContext, ModelKind};
use ct_corpus::DatasetPreset;
use ct_eval::intrusion::{generate_questionnaire, IntrusionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = ct_bench::scale_from_env();
    let ctx = ExperimentContext::build(DatasetPreset::Ng20Like, scale, 42);
    let model = ModelKind::ContraTopic.fit(&ctx, 42);
    let config = IntrusionConfig::default();
    let mut rng = StdRng::seed_from_u64(2024);
    let questions = generate_questionnaire(&model.beta(), &ctx.npmi_test, &config, &mut rng);

    println!("Word Intrusion Questionnaire — {}", model.name());
    println!("Instructions: in each question, five of the six words belong to");
    println!("one coherent latent category and one word is an intruder.");
    println!("Select the intruder word.\n");
    for (i, q) in questions.iter().enumerate() {
        let words: Vec<&str> = q
            .words
            .iter()
            .map(|&w| ctx.train.vocab.word(w as u32))
            .collect();
        println!(
            "Q{:02}. Please select the word that does NOT belong:",
            i + 1
        );
        for (j, w) in words.iter().enumerate() {
            println!("   ({}) {}", (b'A' + j as u8) as char, w);
        }
        println!();
    }
    // Answer key last, as in any well-behaved questionnaire.
    println!("--- answer key (for the experimenter) ---");
    for (i, q) in questions.iter().enumerate() {
        println!("Q{:02}: {}", i + 1, (b'A' + q.intruder_pos as u8) as char);
    }
}
