//! Bitwise determinism of the sharded training driver.
//!
//! The driver (`ct_models::train_backbone`) splits each mini-batch into
//! fixed micro-batches (`TrainConfig::micro_batch`), runs each micro on its
//! own tape, and reduces gradients in micro order with fixed weights. The
//! trained parameters must therefore be *bitwise identical* regardless of
//! how many pool workers execute the micros (`CT_NUM_THREADS`).

use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, fit_prodlda, TrainConfig};
use ct_tensor::{params_to_bytes, pool};

/// Micro-batch (16) below the batch size (64) so every batch fans out
/// into several micros and the sharded path is actually exercised;
/// 160 docs also leave a 32-doc ragged tail batch (micros 16+16).
fn config() -> TrainConfig {
    TrainConfig {
        num_topics: 2,
        epochs: 3,
        batch_size: 64,
        learning_rate: 5e-3,
        ..TrainConfig::tiny()
    }
    .with_micro_batch(16)
}

#[test]
fn etm_fit_bitwise_equal_across_worker_counts() {
    let corpus = cluster_corpus(2, 12, 80);
    let emb = cluster_embeddings(&corpus);
    let cfg = config();
    let one = pool::with_threads(1, || fit_etm(&corpus, emb.clone(), &cfg));
    let four = pool::with_threads(4, || fit_etm(&corpus, emb.clone(), &cfg));
    assert_eq!(
        params_to_bytes(&one.params),
        params_to_bytes(&four.params),
        "ETM params differ between 1 and 4 pool workers"
    );
}

/// ProdLDA routes batch-norm statistics through the micro-seq-keyed
/// pending queue (encoder BN and decoder BN), so this covers the
/// deterministic replay of forward side effects as well.
#[test]
fn prodlda_fit_bitwise_equal_across_worker_counts() {
    let corpus = cluster_corpus(2, 12, 80);
    let cfg = config();
    let one = pool::with_threads(1, || fit_prodlda(&corpus, &cfg));
    let four = pool::with_threads(4, || fit_prodlda(&corpus, &cfg));
    assert_eq!(
        params_to_bytes(&one.params),
        params_to_bytes(&four.params),
        "ProdLDA params differ between 1 and 4 pool workers"
    );
}
