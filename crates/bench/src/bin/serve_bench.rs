//! Serving-path benchmark: micro-batched engine vs unbatched baseline.
//!
//! Updates `BENCH_serve.json` in the current directory (its own keys
//! only — `load_gen`'s latency/fan-in keys are preserved): per-query
//! p50/p99 latency and throughput for the raw single-threaded,
//! unbatched forward pass, and for the `ct-serve` engine under 1, 4 and
//! 8 concurrent client threads. The response cache is disabled so every
//! query pays for real inference — the point is to measure what
//! micro-batching buys, not what memoization hides. `speedup_4t` is the
//! batched 4-client throughput over the unbatched baseline; note the
//! CSR storage backend made the single-document baseline itself ~2.4x
//! faster (it only touches the encoder rows for terms present in the
//! doc), so this ratio is an honest measure of queueing amortization on
//! top of an already-sparse forward pass, not of batching papering over
//! a dense one.
//!
//! The gate on that ratio is calibrated to the floor hardware: on a
//! 1-core container, 4 clients only buy batching amortization (one
//! memory pass over the encoder weights instead of four), not parallel
//! compute, so the enforced floor is ≥ 1.1×. Multi-core hosts should
//! see ≥ 2× (batching plus the pool's data parallelism) — that figure
//! is an expectation to eyeball in the committed numbers, not a gate a
//! 1-core CI box would always fail.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_bench::merge_bench_json;
use ct_corpus::train_embeddings;
use ct_corpus::{generate, DatasetPreset, Scale};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{ModelSnapshot, ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Queries per client thread in each engine run.
const QUERIES_PER_CLIENT: usize = 400;
/// Queries in the unbatched baseline run.
const BASELINE_QUERIES: usize = 400;
/// Enforced floor on `speedup_4t_vs_unbatched` — what batching
/// amortization alone must buy on a single core (see module docs;
/// observed 1.2–1.45× on the 1-core reference container, so the floor
/// leaves headroom for scheduler noise; a multi-core host is *expected*
/// to clear 2×, but that is not gated).
const SPEEDUP_4T_FLOOR: f64 = 1.1;

struct RunResult {
    name: String,
    clients: usize,
    queries: usize,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
}

fn percentile_us(latencies_ns: &mut [u64], p: f64) -> f64 {
    latencies_ns.sort_unstable();
    let idx = ((latencies_ns.len() as f64 - 1.0) * p).round() as usize;
    latencies_ns[idx] as f64 / 1_000.0
}

fn main() {
    // A production-shaped model (quick-scale 20NG corpus, paper-sized
    // encoder): single-document inference streams the full ~8 MB first
    // layer from memory, which is exactly the cost micro-batching
    // amortizes across concurrent clients.
    let spec = DatasetPreset::Ng20Like.spec(Scale::Quick);
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = generate(&spec, &mut rng).corpus;
    let embeddings = train_embeddings(&corpus, 300.min(corpus.vocab_size()), &mut rng);
    let config = TrainConfig {
        num_topics: 50,
        hidden: 800,
        embed_dim: 300,
        epochs: 1,
        batch_size: 256,
        seed: 3,
        ..TrainConfig::default()
    };
    eprintln!(
        "training fixture model: {} docs, vocab {}",
        corpus.num_docs(),
        corpus.vocab_size()
    );
    let model = fit_etm(&corpus, embeddings, &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 10).expect("snapshot");
    let docs: Arc<Vec<ct_corpus::SparseDoc>> = Arc::new(corpus.docs.clone());

    let mut results = Vec::new();

    // Unbatched baseline: one thread, one document per forward pass,
    // straight into the snapshot with no queueing.
    {
        let mut latencies = Vec::with_capacity(BASELINE_QUERIES);
        let t0 = Instant::now();
        for q in 0..BASELINE_QUERIES {
            let doc = &docs[q % docs.len()];
            let qt = Instant::now();
            let x = snapshot.dense_batch(&[doc]);
            let theta = snapshot.infer_theta(&x);
            assert_eq!(theta.rows(), 1);
            latencies.push(qt.elapsed().as_nanos() as u64);
        }
        let wall = t0.elapsed();
        results.push(RunResult {
            name: "unbatched_1t".into(),
            clients: 1,
            queries: BASELINE_QUERIES,
            p50_us: percentile_us(&mut latencies, 0.50),
            p99_us: percentile_us(&mut latencies, 0.99),
            qps: BASELINE_QUERIES as f64 / wall.as_secs_f64(),
        });
    }

    // Engine runs: N client threads hammering one engine. Cache off so
    // every query is a real forward pass.
    for clients in [1usize, 4, 8] {
        let snapshot =
            ModelSnapshot::from_model(&model, corpus.vocab.clone(), 10).expect("snapshot");
        let engine = ServeEngine::start(
            snapshot,
            ServeConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(500),
                queue_capacity: 1024,
                cache_capacity: 0,
                infer_threads: None,
                top_n: 5,
            },
        );
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = engine.handle();
                let docs = Arc::clone(&docs);
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(QUERIES_PER_CLIENT);
                    for q in 0..QUERIES_PER_CLIENT {
                        let doc = &docs[(c + q * clients) % docs.len()];
                        let qt = Instant::now();
                        handle.query(doc).expect("query");
                        latencies.push(qt.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::new();
        for w in workers {
            latencies.extend(w.join().expect("client thread"));
        }
        let wall = t0.elapsed();
        let stats = engine.stats();
        eprintln!(
            "engine {clients}t: {} served in {} batches (max batch {})",
            stats.served, stats.batches, stats.max_batch_size
        );
        engine.shutdown();
        let queries = clients * QUERIES_PER_CLIENT;
        results.push(RunResult {
            name: format!("engine_{clients}t"),
            clients,
            queries,
            p50_us: percentile_us(&mut latencies, 0.50),
            p99_us: percentile_us(&mut latencies, 0.99),
            qps: queries as f64 / wall.as_secs_f64(),
        });
    }

    // bf16 scoring path: time the full K x V top-k rescore against the
    // f32 table vs the bf16 table (same single-pass selection kernel, half
    // the memory traffic), and bound the serving-visible error. θ never
    // flows through the bf16 table, so its max abs error must be exactly
    // zero; stored word scores carry the documented bf16 relative
    // tolerance of 2^-8. Rank order is only guaranteed where adjacent
    // scores differ by more than one bf16 ULP — on a 50-topic production
    // fixture some ties straddle that boundary, so the bench *measures*
    // top-k agreement (and gates it loosely) instead of asserting exact
    // equality the way the unit tests do on gap-verified snapshots.
    let (score_f32_ns, score_bf16_ns, theta_max_abs_err, topk_set_overlap) = {
        let f32_snap =
            ModelSnapshot::from_model(&model, corpus.vocab.clone(), 10).expect("snapshot");
        let bf16_snap = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 10)
            .expect("snapshot")
            .with_bf16_beta();
        let (ka, kb) = (f32_snap.score_top_k(10), bf16_snap.score_top_k(10));
        let mut shared = 0usize;
        let mut total = 0usize;
        for (ta, tb) in ka.iter().zip(&kb) {
            shared += ta.iter().filter(|id| tb.contains(id)).count();
            total += ta.len();
        }
        let overlap = shared as f64 / total.max(1) as f64;
        assert!(
            overlap >= 0.9,
            "bf16 top-10 set overlap {overlap:.3} below 0.9 — more than ULP-tie noise"
        );
        let time_scan = |snap: &ModelSnapshot| {
            let mut samples: Vec<u64> = (0..30)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(snap.score_top_k(10));
                    t0.elapsed().as_nanos() as u64
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let f32_ns = time_scan(&f32_snap);
        let bf16_ns = time_scan(&bf16_snap);
        let sample: Vec<&ct_corpus::SparseDoc> = docs.iter().take(64).collect();
        let x = f32_snap.dense_batch(&sample);
        let ta = f32_snap.infer_theta(&x);
        let tb = bf16_snap.infer_theta(&f32_snap.dense_batch(&sample));
        let err = ta
            .data()
            .iter()
            .zip(tb.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        (f32_ns, bf16_ns, err, overlap)
    };
    let bf16_speedup = score_f32_ns as f64 / score_bf16_ns.max(1) as f64;
    eprintln!(
        "bf16 top-k rescore: f32 {score_f32_ns} ns, bf16 {score_bf16_ns} ns \
         ({bf16_speedup:.2}x), top-10 set overlap {topk_set_overlap:.3}, \
         theta max abs err {theta_max_abs_err}"
    );

    let baseline_qps = results[0].qps;
    let engine_4t_qps = results
        .iter()
        .find(|r| r.name == "engine_4t")
        .map(|r| r.qps)
        .unwrap_or(0.0);
    let speedup_4t = engine_4t_qps / baseline_qps;

    let runs: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"clients\": {}, \"queries\": {}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"qps\": {:.1}}}",
                r.name, r.clients, r.queries, r.p50_us, r.p99_us, r.qps
            )
        })
        .collect();
    let runs = format!("[{}]", runs.join(","));
    let bf16 = format!(
        "{{\"score_f32_ns\": {score_f32_ns}, \
         \"score_bf16_ns\": {score_bf16_ns}, \
         \"speedup\": {bf16_speedup:.2}, \
         \"topk_set_overlap\": {topk_set_overlap:.3}, \
         \"theta_max_abs_err\": {theta_max_abs_err}, \
         \"beta_rel_tolerance\": 0.00390625}}"
    );
    let speedup_pass = speedup_4t >= SPEEDUP_4T_FLOOR;
    let speedup_gate = format!(
        "{{\"floor\": {SPEEDUP_4T_FLOOR}, \"multi_core_expectation\": 2.0, \
         \"pass\": {speedup_pass}}}"
    );

    // Splice this bench's keys into the existing file so load_gen's
    // latency_under_load / p99_gate / fan_in keys survive a rerun.
    let doc = std::fs::read_to_string("BENCH_serve.json").unwrap_or_default();
    let speedup = format!("{speedup_4t:.2}");
    let doc = merge_bench_json(
        &doc,
        &[
            ("runs", &runs),
            ("speedup_4t_vs_unbatched", &speedup),
            ("speedup_4t_gate", &speedup_gate),
            ("bf16_scoring", &bf16),
        ],
    );
    std::fs::write("BENCH_serve.json", &doc).expect("write BENCH_serve.json");
    println!("{doc}");
    eprintln!(
        "wrote BENCH_serve.json (speedup_4t = {speedup_4t:.2}x, floor {SPEEDUP_4T_FLOOR}x: {})",
        if speedup_pass { "pass" } else { "FAIL" }
    );
    if !speedup_pass {
        std::process::exit(1);
    }
}
