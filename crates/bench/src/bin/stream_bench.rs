//! Streaming continual-learning pipeline benchmark.
//!
//! Writes `BENCH_stream.json` into the current directory with three
//! sections:
//!
//! 1. **Generator throughput** — raw [`ct_corpus::stream::DocStream`]
//!    chunk production (docs/sec, tokens/sec) over a drifting script,
//!    out-of-core: only one chunk is ever materialized.
//! 2. **Pipeline under live queries** — the full continual-learning loop
//!    (incremental NPMI → `OnlineContraTopic` → snapshot promotion into a
//!    `ModelRegistry`) while a concurrent client thread queries the
//!    registry nonstop. The gate: **zero** failed queries across every
//!    promotion, and the promotion gap (engine swap latency) is reported
//!    as p50/p99.
//! 3. **Poisoned promotion** — exporting a snapshot whose beta carries a
//!    NaN must fail with a *typed* `InvalidSnapshot` error, and the
//!    previous generation must keep answering.
//!
//! `--smoke` shrinks every dimension for the CI gate; the JSON artifact
//! is only meaningful from a full run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use contratopic::{ContraTopicConfig, OnlineContraTopic};
use ct_bench::merge_bench_json;
use ct_corpus::stream::{DocStream, StreamSpec};
use ct_corpus::synth::CORE_SIZE;
use ct_corpus::{parse_drift_script, train_embeddings};
use ct_models::{EtmBackbone, TrainConfig};
use ct_serve::{ModelRegistry, ModelSnapshot, RegistryConfig, Router, ServeError};
use ct_tensor::{Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn percentile_us(latencies_ns: &mut [u64], p: f64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    latencies_ns.sort_unstable();
    let idx = ((latencies_ns.len() as f64 - 1.0) * p).round() as usize;
    latencies_ns[idx] as f64 / 1_000.0
}

/// Peak resident set size of this process so far, from `VmHWM` in
/// `/proc/self/status` (0.0 where unavailable) — the out-of-core claim
/// made measurable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ------------------------------------------------------------------
    // 1. Generator throughput: a 10-topic stream with vocabulary growth
    //    and a mixture shift, swept chunk by chunk without training.
    // ------------------------------------------------------------------
    let gen_docs: u64 = if smoke { 20_000 } else { 200_000 };
    let gen_topics = 10usize;
    let gen_vocab = gen_topics * CORE_SIZE + 100;
    let gen_spec = StreamSpec {
        vocab_size: gen_vocab,
        num_topics: gen_topics,
        start_vocab: gen_topics * CORE_SIZE + 10,
        num_docs: gen_docs,
        chunk_size: 2_000,
        events: parse_drift_script(&format!(
            "vocab:{gen_vocab}@{},alpha:0.3@{}",
            gen_docs / 2,
            gen_docs * 7 / 10
        ))
        .expect("drift script"),
        ..StreamSpec::default()
    };
    let gen_stream = DocStream::new(gen_spec).expect("generator spec");
    let t0 = Instant::now();
    let mut docs = 0u64;
    let mut tokens = 0f64;
    for chunk in gen_stream.clone() {
        docs += chunk.corpus.num_docs() as u64;
        tokens += chunk.corpus.num_tokens();
    }
    let gen_secs = t0.elapsed().as_secs_f64();
    let gen_docs_per_sec = docs as f64 / gen_secs;
    eprintln!(
        "generator: {docs} docs / {tokens:.0} tokens in {gen_secs:.2}s \
         ({gen_docs_per_sec:.0} docs/sec)"
    );
    assert_eq!(docs, gen_docs);

    // ------------------------------------------------------------------
    // 2. Pipeline under live queries.
    // ------------------------------------------------------------------
    let (pipe_docs, chunk_size, epochs) = if smoke {
        (1_000u64, 200usize, 1usize)
    } else {
        (6_000u64, 500usize, 2usize)
    };
    let num_topics = 6usize;
    let vocab_size = num_topics * CORE_SIZE + 60;
    let spec = StreamSpec {
        vocab_size,
        num_topics,
        start_vocab: (num_topics - 1) * CORE_SIZE + 40,
        num_docs: pipe_docs,
        chunk_size,
        avg_doc_len: 25.0,
        events: parse_drift_script(&format!(
            "birth:{}@{},vocab:{vocab_size}@{}",
            num_topics - 1,
            pipe_docs / 2,
            pipe_docs / 2
        ))
        .expect("drift script"),
        ..StreamSpec::default()
    };
    let stream = DocStream::new(spec).expect("pipeline spec");
    let vocab = stream.vocab().clone();
    let base = TrainConfig {
        num_topics,
        hidden: 64,
        embed_dim: 32,
        epochs,
        batch_size: 128,
        seed: stream.spec().seed,
        ..TrainConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(base.seed);
    let embeddings = train_embeddings(&stream.chunk(0).corpus, base.embed_dim, &mut rng);
    let mut online = OnlineContraTopic::new(
        vocab.len(),
        embeddings,
        base.clone(),
        ContraTopicConfig::default(),
    );

    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    let snapshot = ModelSnapshot::from_parts(online.backbone(), online.params(), vocab.clone(), 10)
        .expect("initial snapshot");
    registry
        .register_snapshot("stream", snapshot)
        .expect("register");

    // Concurrent client: hammer the registry for the whole pipeline run,
    // including across every hot swap. A promotion that drops even one
    // query fails the gate.
    let stop = Arc::new(AtomicBool::new(false));
    let failed = Arc::new(AtomicU64::new(0));
    let query_text: String = vocab.words()[..12.min(vocab.len())].join(" ");
    let client = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let failed = Arc::clone(&failed);
        std::thread::spawn(move || {
            let mut latencies_ns: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let q0 = Instant::now();
                match registry.answer(Some("stream"), &query_text) {
                    Ok(_) => latencies_ns.push(q0.elapsed().as_nanos() as u64),
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            latencies_ns
        })
    };

    let promote_every = 2u64;
    let mut promote_gaps_ns: Vec<u64> = Vec::new();
    let mut generation = 1u64;
    let t0 = Instant::now();
    for chunk in stream.clone() {
        online.fit_slice(&chunk.corpus);
        let index = chunk.index;
        if (index + 1) % promote_every == 0 || index + 1 == stream.num_chunks() {
            let snapshot =
                ModelSnapshot::from_parts(online.backbone(), online.params(), vocab.clone(), 10)
                    .expect("snapshot export");
            let p0 = Instant::now();
            generation = registry.promote("stream", snapshot).expect("promote");
            promote_gaps_ns.push(p0.elapsed().as_nanos() as u64);
        }
    }
    let pipe_secs = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let mut query_latencies = client.join().expect("client thread");
    let queries_ok = query_latencies.len() as u64;
    let queries_failed = failed.load(Ordering::Relaxed);
    let pipe_docs_per_sec = online.docs_seen() as f64 / pipe_secs;
    eprintln!(
        "pipeline: {} docs in {pipe_secs:.2}s ({pipe_docs_per_sec:.0} docs/sec), \
         {} promotions to generation {generation}, {queries_ok} queries ok, \
         {queries_failed} failed",
        online.docs_seen(),
        promote_gaps_ns.len(),
    );
    assert!(
        queries_failed == 0,
        "{queries_failed} queries failed during live promotion — zero-dropped-queries \
         gate violated"
    );
    assert!(queries_ok > 0, "client thread never completed a query");

    // ------------------------------------------------------------------
    // 3. Poisoned promotion: NaN beta must be rejected with a typed
    //    error at export, and the old generation must keep serving.
    // ------------------------------------------------------------------
    let mut bad_params = Params::new();
    let mut bad_rng = StdRng::seed_from_u64(1);
    let bad_backbone = EtmBackbone::new(
        &mut bad_params,
        vocab.len(),
        Tensor::ones(vocab.len(), base.embed_dim),
        &base,
        &mut bad_rng,
    );
    for id in bad_params.ids().collect::<Vec<_>>() {
        bad_params.value_mut(id).data_mut()[0] = f32::NAN;
    }
    let poisoned = ModelSnapshot::from_parts(&bad_backbone, &bad_params, vocab.clone(), 10);
    let typed_rejection = match poisoned {
        Err(ServeError::InvalidSnapshot(reason)) => {
            eprintln!("poisoned snapshot rejected as InvalidSnapshot: {reason}");
            true
        }
        Err(other) => panic!("expected InvalidSnapshot, got {other}"),
        Ok(_) => panic!("NaN beta produced a servable snapshot"),
    };
    registry
        .answer(Some("stream"), &vocab.words()[..8].join(" "))
        .expect("registry must keep serving the previous generation");

    // ------------------------------------------------------------------
    // Artifact.
    // ------------------------------------------------------------------
    let generator = format!(
        "{{\"docs\": {docs}, \"tokens\": {tokens:.0}, \"secs\": {gen_secs:.3}, \
         \"docs_per_sec\": {gen_docs_per_sec:.1}, \"tokens_per_sec\": {:.1}}}",
        tokens / gen_secs
    );
    let pipeline = format!(
        "{{\"docs\": {}, \"chunks\": {}, \"secs\": {pipe_secs:.3}, \
         \"docs_per_sec\": {pipe_docs_per_sec:.1}, \"promotions\": {}, \
         \"final_generation\": {generation}}}",
        online.docs_seen(),
        stream.num_chunks(),
        promote_gaps_ns.len()
    );
    let live_queries = format!(
        "{{\"ok\": {queries_ok}, \"failed\": {queries_failed}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
        percentile_us(&mut query_latencies, 0.50),
        percentile_us(&mut query_latencies, 0.99)
    );
    let promotion_gap = format!(
        "{{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
        promote_gaps_ns.len(),
        percentile_us(&mut promote_gaps_ns.clone(), 0.50),
        percentile_us(&mut promote_gaps_ns.clone(), 0.99)
    );
    let poisoned =
        format!("{{\"typed_rejection\": {typed_rejection}, \"old_generation_serving\": true}}");
    let out = merge_bench_json(
        "",
        &[
            ("generator", &generator),
            ("pipeline", &pipeline),
            ("live_queries", &live_queries),
            ("promotion_gap", &promotion_gap),
            ("poisoned_promotion", &poisoned),
            ("peak_rss_mb", &format!("{:.1}", peak_rss_mb())),
            ("smoke", &smoke.to_string()),
        ],
    );
    std::fs::write("BENCH_stream.json", &out).expect("write BENCH_stream.json");
    eprintln!("wrote BENCH_stream.json");
    print!("{out}");
}
