//! Golden training trajectories: one epoch of ContraTopic and one of ETM on
//! a small seeded corpus must produce exactly the parameter bytes pinned
//! below.
//!
//! The SGEMM kernels may be restructured freely (blocking, packing, SIMD
//! width) as long as every output element still accumulates `c = c + a·b`
//! in ascending `k` order. That promise is what keeps training bitwise
//! identical from one kernel generation to the next, and these constants
//! make it a check: both hashes were captured with the axpy-streaming SGEMM
//! kernels that preceded the register-blocked micro-kernel, and the blocked
//! kernel must reproduce them.
//!
//! The fixture is sized so the hot paths that matter run: the vocabulary
//! (300) is wide enough for the old packed `nn` route (`n ≥ 192`) and deep
//! enough that the regularizer's `A·N` product (`M = K·v = 32`, `k = 300`)
//! spans two k-panels of the blocked kernel, and the batch (96) is split
//! into micro-batches of 24 so the sharded driver fans out.
//!
//! The hashes assume IEEE single precision with the platform's `libm`
//! (`exp`, `ln`); they are pinned on x86_64 Linux.

use contratopic::{fit_contratopic, ContraTopicConfig};
use ct_corpus::{generate, train_embeddings, BowCorpus, NpmiMatrix, SynthSpec};
use ct_models::{fit_etm, TrainConfig};
use ct_tensor::codec::fnv1a64;
use ct_tensor::{params_to_bytes, pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64 of the ContraTopic parameters after one epoch.
const CONTRATOPIC_PARAMS_FNV: u64 = 0xfbe7_9034_a062_67c5;
/// FNV-1a 64 of the ETM parameters after one epoch.
const ETM_PARAMS_FNV: u64 = 0xa4ca_2ba2_ae60_a5b3;

fn fixture() -> (BowCorpus, Tensor, NpmiMatrix, TrainConfig) {
    let spec = SynthSpec {
        vocab_size: 300,
        num_topics: 8,
        num_docs: 288,
        avg_doc_len: 30.0,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let corpus = generate(&spec, &mut rng).corpus;
    let emb = train_embeddings(&corpus, 16, &mut rng);
    let npmi = NpmiMatrix::from_corpus(&corpus);
    let config = TrainConfig {
        num_topics: 8,
        hidden: 32,
        epochs: 1,
        batch_size: 96,
        learning_rate: 3e-3,
        embed_dim: 16,
        ..TrainConfig::default()
    }
    .with_micro_batch(24);
    (corpus, emb, npmi, config)
}

#[test]
fn contratopic_one_epoch_matches_golden_params() {
    let (corpus, emb, npmi, config) = fixture();
    let ct = ContraTopicConfig::default().with_v(4);
    let model = pool::with_threads(2, || fit_contratopic(&corpus, emb, &npmi, &config, &ct));
    let hash = fnv1a64(&params_to_bytes(&model.inner.params));
    assert_eq!(
        hash, CONTRATOPIC_PARAMS_FNV,
        "ContraTopic trajectory moved: params hash {hash:#018x}"
    );
}

#[test]
fn etm_one_epoch_matches_golden_params() {
    let (corpus, emb, _, config) = fixture();
    let model = pool::with_threads(2, || fit_etm(&corpus, emb, &config));
    let hash = fnv1a64(&params_to_bytes(&model.params));
    assert_eq!(
        hash, ETM_PARAMS_FNV,
        "ETM trajectory moved: params hash {hash:#018x}"
    );
}
