//! Tables IV–VI: case study. For each dataset, the top-5 highest-NPMI
//! topics of LDA, ETM, WeTe, CLNTM and ContraTopic are printed with their
//! top words, plus template descriptions of ContraTopic's topics (the
//! paper uses an LLM for the descriptions; we derive them from the planted
//! themes). Every trial here is shared with fig2's seed-42 runs via the
//! run ledger.

use ct_bench::ModelKind;
use ct_corpus::DatasetPreset;
use ct_eval::{describe_topic, TopicSummary};

fn main() {
    let scale = ct_bench::scale_from_env();
    let models = [
        ModelKind::Lda,
        ModelKind::Etm,
        ModelKind::WeTe,
        ModelKind::Clntm,
        ModelKind::ContraTopic,
    ];
    let records = ct_bench::run_experiment("table456", scale, 1, &|p| {
        if let Some(line) = ct_bench::progress_line(&p) {
            eprintln!("{line}");
        }
    });
    for preset in DatasetPreset::ALL {
        println!("\n==== {} (Tables IV–VI) ====", preset.name());
        for model in models {
            let Some(record) = records
                .iter()
                .find(|r| r.spec.preset == preset && r.spec.model == model)
            else {
                continue;
            };
            println!("\n-- {} --", model.name());
            if !record.outcome.is_ok() {
                println!("  (trial {}: {})", record.key, record.outcome.id());
                continue;
            }
            for t in &record.topics {
                println!("  {:.2}  {}", t.npmi, t.words.join(" "));
            }
            if model == ModelKind::ContraTopic {
                println!("\n  Topic descriptions for {}:", preset.name());
                for (i, t) in record.topics.iter().enumerate() {
                    let summary = TopicSummary {
                        topic: i,
                        npmi: t.npmi,
                        top_words: t.words.clone(),
                    };
                    println!("  • {}", describe_topic(&summary));
                }
            }
        }
    }
}
