//! Criterion micro-benchmarks of the substrate hot paths: SGEMM, the
//! relaxed subset sampler, the contrastive loss, NPMI construction,
//! KMeans, and a collapsed-Gibbs fit.

use contratopic::{
    relaxed_subset, AblationVariant, ContrastiveRegularizer, SimilarityKernel, SubsetSamplerConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use ct_corpus::{generate, NpmiMatrix, SynthSpec};
use ct_eval::kmeans;
use ct_models::{Lda, LdaConfig};
use ct_tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sgemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // Square baseline.
    let a = Tensor::randn(256, 256, 1.0, &mut rng);
    let b = Tensor::randn(256, 256, 1.0, &mut rng);
    // Training shapes: batch 256, hidden 128, vocab 600 — the decoder
    // forward (nn, hits the packed wide-n path), the input gradient (nt),
    // and the weight gradient (tn, the column-partitioned kernel).
    let x = Tensor::randn(256, 128, 1.0, &mut rng); // activations (B, H)
    let w = Tensor::randn(128, 600, 1.0, &mut rng); // weights (H, V)
    let g = Tensor::randn(256, 600, 1.0, &mut rng); // upstream grad (B, V)
    let mut group = c.benchmark_group("sgemm");
    group.bench_function("nn_256x256x256", |bencher| {
        bencher.iter(|| black_box(a.matmul(&b)))
    });
    group.bench_function("nt_256x256x256", |bencher| {
        bencher.iter(|| black_box(a.matmul_nt(&b)))
    });
    group.bench_function("nn_256x128x600_fwd", |bencher| {
        bencher.iter(|| black_box(x.matmul(&w)))
    });
    group.bench_function("nt_256x600x128_dx", |bencher| {
        bencher.iter(|| black_box(g.matmul_nt(&w)))
    });
    group.bench_function("tn_256x128x600_dw", |bencher| {
        bencher.iter(|| black_box(x.matmul_tn(&g)))
    });
    // NT below the transpose-route crossover (m*k*n < 2^23): exercises
    // the four-accumulator dot-product path the big shapes above no
    // longer take, so a regression in either NT route is visible.
    let sa = Tensor::randn(128, 256, 1.0, &mut rng);
    let sb = Tensor::randn(128, 256, 1.0, &mut rng);
    group.bench_function("nt_128x256x128_small_route", |bencher| {
        bencher.iter(|| black_box(sa.matmul_nt(&sb)))
    });
    // CSR encoder shapes: a bag-of-words batch (256 docs, vocab 600,
    // ~40 distinct words per doc) through the sparse forward and
    // weight-gradient kernels.
    let corpus = {
        let spec = SynthSpec {
            vocab_size: 600,
            num_topics: 8,
            num_docs: 256,
            avg_doc_len: 40.0,
            ..Default::default()
        };
        let mut crng = StdRng::seed_from_u64(9);
        generate(&spec, &mut crng).corpus
    };
    let idx: Vec<usize> = (0..256).collect();
    let xs = corpus.csr_batch(&idx);
    let we = Tensor::randn(600, 128, 1.0, &mut rng);
    let ge = Tensor::randn(256, 128, 1.0, &mut rng);
    group.bench_function("csr_256x600x128_enc_fwd", |bencher| {
        bencher.iter(|| black_box(xs.matmul(&we)))
    });
    group.bench_function("csr_tn_600x256x128_dw", |bencher| {
        bencher.iter(|| black_box(xs.matmul_tn(&ge)))
    });
    group.finish();
}

fn small_corpus() -> ct_corpus::BowCorpus {
    let spec = SynthSpec {
        vocab_size: 500,
        num_topics: 8,
        num_docs: 300,
        avg_doc_len: 40.0,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(2);
    generate(&spec, &mut rng).corpus
}

fn bench_npmi_build(c: &mut Criterion) {
    let corpus = small_corpus();
    c.bench_function("npmi_build_v500", |bencher| {
        bencher.iter(|| black_box(NpmiMatrix::from_corpus(&corpus)))
    });
}

fn bench_subset_sampler(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let beta_t = Tensor::rand_uniform(40, 1000, 0.0, 1.0, &mut rng).softmax_rows(1.0);
    let cfg = SubsetSamplerConfig { v: 10, tau_g: 0.5 };
    c.bench_function("relaxed_subset_k40_v1000", |bencher| {
        bencher.iter(|| {
            let tape = Tape::new();
            let beta = tape.leaf(beta_t.clone());
            black_box(relaxed_subset(&tape, beta, &cfg, &mut rng).stacked.value())
        })
    });
}

fn bench_contrastive_loss(c: &mut Criterion) {
    let corpus = small_corpus();
    let npmi = NpmiMatrix::from_corpus(&corpus);
    let kernel = SimilarityKernel::npmi(&npmi);
    let mut rng = StdRng::seed_from_u64(4);
    let v = corpus.vocab_size();
    let beta_t = Tensor::rand_uniform(40, v, 0.0, 1.0, &mut rng).softmax_rows(1.0);
    let reg = ContrastiveRegularizer::new(
        kernel,
        SubsetSamplerConfig { v: 10, tau_g: 0.5 },
        AblationVariant::Full,
    );
    c.bench_function("contrastive_loss_fwd_bwd_k40_v500", |bencher| {
        bencher.iter(|| {
            let tape = Tape::new();
            let beta = tape.leaf(beta_t.clone());
            let loss = reg.loss(&tape, beta, &mut rng);
            black_box(tape.backward(loss).get(beta).unwrap().norm())
        })
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let data = Tensor::rand_uniform(500, 40, 0.0, 1.0, &mut rng);
    c.bench_function("kmeans_500x40_k10", |bencher| {
        bencher.iter(|| black_box(kmeans(&data, 10, 20, &mut rng).inertia))
    });
}

fn bench_gibbs_fit(c: &mut Criterion) {
    let corpus = small_corpus();
    c.bench_function("lda_gibbs_fit_10iter", |bencher| {
        bencher.iter(|| {
            black_box(Lda::fit(
                &corpus,
                LdaConfig {
                    num_topics: 8,
                    iterations: 10,
                    ..Default::default()
                },
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sgemm, bench_npmi_build, bench_subset_sampler,
              bench_contrastive_loss, bench_kmeans, bench_gibbs_fit
}
criterion_main!(benches);
