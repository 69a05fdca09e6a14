//! The serving contract: a served θ is byte-identical to the offline eval
//! forward (`EncoderWeights::infer_theta` over one dense whole-corpus
//! batch) — for any server worker-thread count, for any micro-batch
//! composition, and whether the answer comes from a forward pass or the
//! LRU cache.

use std::sync::Arc;

use ct_corpus::{BowCorpus, SparseDoc};
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, Etm, TrainConfig};
use ct_serve::{ModelSnapshot, ServeConfig, ServeEngine};

fn trained() -> (BowCorpus, Etm) {
    let corpus = cluster_corpus(4, 6, 20);
    let config = TrainConfig {
        num_topics: 4,
        hidden: 24,
        embed_dim: 12,
        epochs: 3,
        batch_size: 16,
        seed: 11,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    (corpus, model)
}

fn offline_theta(model: &Etm, corpus: &BowCorpus) -> Vec<Vec<u32>> {
    let all: Vec<usize> = (0..corpus.num_docs()).collect();
    let x = corpus.dense_batch(&all);
    let theta = model
        .backbone
        .encoder
        .export_weights(&model.params)
        .infer_theta(&x);
    (0..theta.rows())
        .map(|r| theta.row(r).iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn bits(theta: &[f32]) -> Vec<u32> {
    theta.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn served_theta_bitwise_matches_offline_for_1_and_4_worker_threads() {
    let (corpus, model) = trained();
    let reference = offline_theta(&model, &corpus);
    for threads in [1usize, 4] {
        let snapshot =
            ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
        let config = ServeConfig {
            infer_threads: Some(threads),
            cache_capacity: 0, // every query takes the forward-pass path
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(snapshot, config);
        let handle = engine.handle();
        for (i, doc) in corpus.docs.iter().enumerate() {
            let outcome = handle.query(doc).expect("query");
            assert!(!outcome.cache_hit);
            assert_eq!(
                bits(&outcome.response.theta),
                reference[i],
                "doc {i} diverged from offline inference at {threads} worker threads"
            );
        }
        drop(handle);
        engine.shutdown();
    }
}

#[test]
fn served_theta_bitwise_stable_across_micro_batch_composition() {
    let (corpus, model) = trained();
    let reference = Arc::new(offline_theta(&model, &corpus));
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    // Concurrent clients get coalesced into multi-document micro-batches
    // of varying composition whenever they queue behind a forward pass.
    let config = ServeConfig {
        max_batch: 16,
        cache_capacity: 0,
        infer_threads: Some(2),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(snapshot, config);
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let handle = engine.handle();
            let docs: Vec<(usize, SparseDoc)> = corpus
                .docs
                .iter()
                .enumerate()
                .skip(c)
                .step_by(4)
                .map(|(i, d)| (i, d.clone()))
                .collect();
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                for (i, doc) in docs {
                    let outcome = handle.query(&doc).expect("query");
                    assert_eq!(
                        bits(&outcome.response.theta),
                        reference[i],
                        "doc {i} diverged under concurrent micro-batching"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = engine.stats();
    assert_eq!(stats.served, corpus.num_docs() as u64);
    engine.shutdown();
}

#[test]
fn cache_hit_returns_identical_bytes_as_the_miss() {
    let (corpus, model) = trained();
    let reference = offline_theta(&model, &corpus);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    let engine = ServeEngine::start(snapshot, ServeConfig::default());
    let handle = engine.handle();
    let doc = &corpus.docs[3];
    let miss = handle.query(doc).expect("miss");
    assert!(!miss.cache_hit);
    let hit = handle.query(doc).expect("hit");
    assert!(hit.cache_hit, "second identical query must hit the cache");
    assert_eq!(bits(&miss.response.theta), reference[3]);
    assert_eq!(bits(&hit.response.theta), bits(&miss.response.theta));
    assert_eq!(engine.stats().cache_hits, 1);
    drop(handle);
    engine.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn unix_round_trip_serves_json_responses() {
    use ct_serve::{query_unix, DocEncoder, UnixServer};

    let (corpus, model) = trained();
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    let engine = ServeEngine::start(snapshot, ServeConfig::default());
    let socket = std::env::temp_dir().join(format!("ct-serve-test-{}.sock", std::process::id()));
    let _server = UnixServer::bind(
        &socket,
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    )
    .expect("bind unix socket");
    let responses = query_unix(&socket, &["w0 w1 w2 w3", "", "w6 w7 w8"]).expect("query");
    assert_eq!(responses.len(), 3);
    assert!(responses[0].starts_with("{\"theta\":["), "{}", responses[0]);
    assert!(
        responses[1].contains("\"error\":\"empty_document\""),
        "{}",
        responses[1]
    );
    assert!(responses[2].contains("\"top\":["), "{}", responses[2]);
    std::fs::remove_file(&socket).ok();
}
