//! The embedding factorisation's route, by work count rather than by
//! time: one `train_embeddings` call makes exactly `ITERS + 1` CSR
//! products (the subspace iterations plus the Rayleigh product), and the
//! PPMI it factorises stores no zeros. A fallback to a dense PPMI — and
//! with it the dense zero-scanning product — fails here on any host.
//!
//! This binary holds one test on purpose: `ct_tensor::csr_matmuls()` is a
//! process-wide counter, which another test's products would move.

use ct_corpus::embed::ITERS;
use ct_corpus::npmi::CoocAccumulator;
use ct_corpus::{generate, train_embeddings, SynthSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn train_embeddings_makes_iters_plus_one_csr_products_over_a_zero_free_ppmi() {
    let spec = SynthSpec {
        vocab_size: 400,
        num_topics: 6,
        num_docs: 200,
        avg_doc_len: 30.0,
        ..Default::default()
    };
    let corpus = generate(&spec, &mut StdRng::seed_from_u64(3)).corpus;

    let before = ct_tensor::csr_matmuls();
    let emb = train_embeddings(&corpus, 16, &mut StdRng::seed_from_u64(4));
    let products = ct_tensor::csr_matmuls() - before;
    assert_eq!(
        products,
        ITERS as u64 + 1,
        "expected ITERS + 1 = 13 CSR products"
    );
    assert_eq!(emb.shape(), (corpus.vocab_size(), 16));

    let mut cooc = CoocAccumulator::new(corpus.vocab_size());
    cooc.add_corpus(&corpus);
    let ppmi = cooc.to_ppmi();
    assert!(ppmi.nnz() > 0);
    assert!(
        ppmi.values().iter().all(|&x| x > 0.0),
        "the PPMI stores a zero or a negative entry"
    );
}
