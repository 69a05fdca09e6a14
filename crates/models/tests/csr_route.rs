//! Training must route sparse batches through the CSR kernels.
//! `ct_tensor::csr_matmuls()` is a process-global counter, so this check
//! lives alone in its own test binary: no other test can move the count
//! while the fit runs.

use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};

#[test]
fn fit_etm_routes_batches_through_csr_kernels() {
    let corpus = cluster_corpus(2, 12, 80);
    let emb = cluster_embeddings(&corpus);
    // 160 docs in batches of 64: 3 single-tape batches per epoch.
    let config = TrainConfig {
        num_topics: 2,
        epochs: 2,
        batch_size: 64,
        ..TrainConfig::tiny()
    };
    let batches = 6;
    let before = ct_tensor::csr_matmuls();
    fit_etm(&corpus, emb, &config);
    let delta = ct_tensor::csr_matmuls() - before;
    assert!(delta > 0, "no matrix product took the CSR route");
    // Per batch: the encoder's first-layer product and its weight
    // gradient (2), plus the three sparse products of the reconstruction
    // term (3). A batch handed over dense still counts the last three,
    // since `bow_log_likelihood` converts it, so the exact count is what
    // tells the CSR batch route from a dense fallback.
    assert_eq!(delta, 5 * batches, "CSR products over {batches} batches");
}
