//! Bitwise determinism of full ContraTopic training (backbone + batch-level
//! contrastive regularizer) under the sharded data-parallel driver: the
//! worker count must not change the trained parameters.

use contratopic::{fit_contratopic, ContraTopicConfig};
use ct_corpus::NpmiMatrix;
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::TrainConfig;
use ct_tensor::{params_to_bytes, pool};

/// Micro-batch (16) below the batch size (64) so the sharded path
/// engages; the regularizer runs once per mini-batch on the driver thread.
fn configs() -> (TrainConfig, ContraTopicConfig) {
    let base = TrainConfig {
        num_topics: 2,
        hidden: 32,
        epochs: 3,
        batch_size: 64,
        learning_rate: 5e-3,
        embed_dim: 8,
        ..TrainConfig::default()
    }
    .with_micro_batch(16);
    (
        base,
        ContraTopicConfig::default().with_lambda(5.0).with_v(4),
    )
}

#[test]
fn contratopic_fit_bitwise_equal_across_worker_counts() {
    let corpus = cluster_corpus(2, 12, 80);
    let emb = cluster_embeddings(&corpus);
    let npmi = NpmiMatrix::from_corpus(&corpus);
    let (base, config) = configs();
    let one = pool::with_threads(1, || {
        fit_contratopic(&corpus, emb.clone(), &npmi, &base, &config)
    });
    let four = pool::with_threads(4, || {
        fit_contratopic(&corpus, emb.clone(), &npmi, &base, &config)
    });
    assert_eq!(
        params_to_bytes(&one.inner.params),
        params_to_bytes(&four.inner.params),
        "ContraTopic params differ between 1 and 4 pool workers"
    );
}
