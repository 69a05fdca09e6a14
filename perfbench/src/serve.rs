//! The serving workloads: `serve_cold` (every request a distinct
//! document, so every request pays for inference) and `serve_hot`
//! (Zipf draws from a pool that fits in the response cache, so requests
//! bypass the engine), both over TCP through the epoll reactor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ct_corpus::{generate, DatasetPreset, NpmiMatrix, Scale, SparseDoc, SynthSpec};
use ct_eval::{TopicScores, K_TC};
use ct_models::{fit_etm, TraceEvent, TraceSink, TrainConfig};
use ct_serve::{
    DocEncoder, ModelRegistry, ModelSnapshot, ProtocolLimits, RegistryConfig, Router, ServeConfig,
    TcpClient, TcpServer,
};
use ct_tensor::Tensor;

use crate::gen::{self, Request};
use crate::report::{Phase, Report};
use crate::stats::{median, percentile, sorted, windowed_p99};
use crate::sys;
use crate::timing::{repeat_setup, time_median_us};

/// Documents in serve_hot's pool: a quarter of the default cache.
pub const HOT_POOL: usize = 256;
/// Open-loop rates: half of each workload's closed-loop capacity in the
/// slower runs on a 2-vCPU host with other tenants, which is about a
/// quarter of its median capacity (see README.md).
const COLD_RATE: f64 = 250.0;
const HOT_RATE: f64 = 2500.0;
/// Width of the windows the capacity phase's rate is taken over.
const WINDOW: Duration = Duration::from_millis(250);
/// Samples that support a p99 with ten beyond it, plus a margin.
const MIN_TAIL_SAMPLES: usize = 1100;
/// Top words per topic in the served snapshot.
const TOP_K: usize = 10;

/// Which request mix a serve workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
}

impl Mix {
    fn rate(self) -> f64 {
        match self {
            Mix::Cold => COLD_RATE,
            Mix::Hot => HOT_RATE,
        }
    }
}

/// The production-shaped served model: 20NG-like quick corpus,
/// K = 50 topics, H = 800 hidden units, E = 300 embedding dimensions.
pub struct Fixture {
    pub snapshot: ModelSnapshot,
    pub spec: SynthSpec,
    /// Figure 2 coherence at 50% of the served model's topics, against
    /// the fixture corpus's NPMI.
    pub coherence: f64,
}

impl Fixture {
    pub fn build(seed: u64) -> Self {
        let spec = DatasetPreset::Ng20Like.spec(Scale::Quick);
        let corpus = generate(&spec, &mut gen::rng(seed, 10)).corpus;
        // E = 300 word embeddings as a seeded random projection of 64
        // PPMI dimensions: inner products (and so topics) survive, and
        // factorising PPMI at 300 dimensions directly would take most of
        // the set-up (see README.md).
        let ppmi64 = ct_corpus::train_embeddings(&corpus, 64, &mut gen::rng(seed, 12));
        let projection = Tensor::randn(64, 300, 1.0 / 8.0, &mut gen::rng(seed, 11));
        let embeddings = ppmi64.matmul(&projection);
        let config = TrainConfig {
            num_topics: 50,
            hidden: 800,
            embed_dim: 300,
            epochs: 1,
            batch_size: 256,
            seed: gen::MODEL_SEED,
            ..TrainConfig::default()
        };
        let model = fit_etm(&corpus, embeddings, &config);
        let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), TOP_K)
            .expect("fixture snapshot");
        let coherence =
            TopicScores::compute(snapshot.beta(), &NpmiMatrix::from_corpus(&corpus), K_TC)
                .coherence_at(0.5);
        Self {
            snapshot,
            spec,
            coherence,
        }
    }

    /// The byte-exact offline answer for `docs`: encode → dense_batch →
    /// infer_theta → build_response → to_json, the path the server runs.
    pub fn offline_lines(&self, docs: &[&SparseDoc]) -> Vec<String> {
        let top_n = ServeConfig::default().top_n;
        let mut out = Vec::with_capacity(docs.len());
        for chunk in docs.chunks(64) {
            let theta = self.snapshot.infer_theta(&self.snapshot.dense_batch(chunk));
            for r in 0..chunk.len() {
                out.push(
                    self.snapshot
                        .build_response(theta.row(r).to_vec(), top_n)
                        .to_json(),
                );
            }
        }
        out
    }
}

/// Collects the engine's `ServeBatch` events.
#[derive(Default)]
struct BatchLog {
    batches: Vec<(usize, u64, u64)>,
}

impl TraceSink for BatchLog {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::ServeBatch {
            size,
            queue_ns,
            infer_ns,
        } = event
        {
            self.batches.push((*size, *queue_ns, *infer_ns));
        }
    }
}

/// The request stream a rig draws from.
struct Requests {
    mix: Mix,
    /// Cold: every request in send order. Hot: the pool.
    items: Vec<Request>,
    /// Hot only: the Zipf index sequence over the pool.
    sequence: Vec<usize>,
    next: AtomicUsize,
}

impl Requests {
    fn new(fixture: &Fixture, mix: Mix, seed: u64, cold_docs: usize) -> Self {
        let encoder = DocEncoder::new(fixture.snapshot.vocab().clone());
        let mut rng = gen::rng(seed, 20);
        let (items, sequence) = match mix {
            Mix::Cold => (
                gen::distinct_requests(&fixture.spec, &encoder, cold_docs, &mut rng),
                Vec::new(),
            ),
            Mix::Hot => {
                let pool = gen::distinct_requests(&fixture.spec, &encoder, HOT_POOL, &mut rng);
                let sequence = gen::zipf_sequence(HOT_POOL, 1 << 16, &mut gen::rng(seed, 21));
                (pool, sequence)
            }
        };
        Self {
            mix,
            items,
            sequence,
            next: AtomicUsize::new(0),
        }
    }

    /// The next request's item index; `None` once a cold pool is spent.
    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        match self.mix {
            Mix::Cold => (i < self.items.len()).then_some(i),
            Mix::Hot => Some(self.sequence[i % self.sequence.len()]),
        }
    }
}

/// A running server with its client connections and request stream.
struct Rig {
    server: TcpServer,
    registry: Arc<ModelRegistry>,
    clients: Vec<TcpClient>,
    requests: Requests,
    /// `(item, digest of the response line)` of every answered request,
    /// for checking.
    answers: Vec<(usize, u64)>,
}

/// One client's tally for a phase.
#[derive(Default)]
struct Tally {
    phase: Phase,
    /// Completion offsets from the phase start, ns.
    done_ns: Vec<u64>,
    /// Open loop: `(due index, latency from the due time in ns)`, in due
    /// order once merged.
    latency_ns: Vec<(usize, u64)>,
    /// Open loop: how late the send started against its schedule, ns.
    late_ns: Vec<u64>,
    answers: Vec<(usize, u64)>,
}

impl Rig {
    fn start(fixture: &Fixture, requests: Requests, trace: Option<Arc<Mutex<BatchLog>>>) -> Self {
        let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig {
            trace: trace.map(|t| t as ct_serve::SharedSink),
            ..RegistryConfig::default()
        }));
        registry
            .register_snapshot("default", fixture.snapshot.clone())
            .expect("register the fixture");
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry) as Arc<dyn Router>,
            ProtocolLimits::default(),
        )
        .expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let clients = (0..sys::nproc())
            .map(|_| TcpClient::connect(addr).expect("connect to the local server"))
            .collect();
        Self {
            server,
            registry,
            clients,
            requests,
            answers: Vec::new(),
        }
    }

    /// Send `n` requests serially on the first connection (cold) or the
    /// whole pool once (hot), so the timed phases start warm.
    fn warm_up(&mut self, n: usize) -> Phase {
        let mut phase = Phase::new("warmup");
        let count = match self.requests.mix {
            Mix::Cold => n,
            Mix::Hot => self.requests.items.len(),
        };
        for k in 0..count {
            let item = match self.requests.mix {
                Mix::Cold => match self.requests.take() {
                    Some(i) => i,
                    None => break,
                },
                Mix::Hot => k,
            };
            phase.attempted += 1;
            match self.clients[0].query_line(&self.requests.items[item].text) {
                Ok(line) if phase.classify_error_line(&line) => {}
                Ok(line) => self.answers.push((item, digest(&line))),
                Err(_) => phase.io += 1,
            }
        }
        phase
    }

    /// Closed loop: every connection sends its next request as soon as
    /// the previous answer arrives, until `duration` ends (or a cold
    /// pool is spent).
    fn closed_loop(&mut self, name: &str, duration: Duration) -> (Tally, f64) {
        let start = Instant::now();
        let deadline = start + duration;
        let requests = &self.requests;
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut t = Tally::default();
                        while Instant::now() < deadline {
                            let Some(item) = requests.take() else { break };
                            t.phase.attempted += 1;
                            match client.query_line(&requests.items[item].text) {
                                Ok(line) if t.phase.classify_error_line(&line) => {}
                                Ok(line) => {
                                    t.done_ns.push(start.elapsed().as_nanos() as u64);
                                    t.answers.push((item, digest(&line)));
                                }
                                Err(_) => t.phase.io += 1,
                            }
                        }
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        (self.merge(name, tallies), wall)
    }

    /// Open loop at `rate`: request `i` is due at `start + i / rate`
    /// whatever happened to earlier ones, and its latency runs from that
    /// due time. The connections take due requests in order.
    fn open_loop(&mut self, name: &str, rate: f64, duration: Duration) -> Tally {
        let total = (rate * duration.as_secs_f64()).round() as usize;
        let due_index = AtomicUsize::new(0);
        let start = Instant::now() + Duration::from_millis(20);
        let requests = &self.requests;
        let due_index = &due_index;
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut t = Tally::default();
                        loop {
                            let i = due_index.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            let due = start + Duration::from_secs_f64(i as f64 / rate);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let sent = Instant::now();
                            t.late_ns
                                .push(sent.saturating_duration_since(due).as_nanos() as u64);
                            let Some(item) = requests.take() else { break };
                            t.phase.attempted += 1;
                            match client.query_line(&requests.items[item].text) {
                                Ok(line) if t.phase.classify_error_line(&line) => {}
                                Ok(line) => {
                                    let ns =
                                        Instant::now().saturating_duration_since(due).as_nanos();
                                    t.latency_ns.push((i, ns as u64));
                                    t.answers.push((item, digest(&line)));
                                }
                                Err(_) => t.phase.io += 1,
                            }
                        }
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        self.merge(name, tallies)
    }

    fn merge(&mut self, name: &str, tallies: Vec<Tally>) -> Tally {
        let mut out = Tally {
            phase: Phase::new(name),
            ..Tally::default()
        };
        for mut t in tallies {
            out.phase.absorb(&t.phase);
            out.done_ns.append(&mut t.done_ns);
            out.latency_ns.append(&mut t.latency_ns);
            out.late_ns.append(&mut t.late_ns);
            self.answers.append(&mut t.answers);
        }
        out.latency_ns.sort_unstable();
        out
    }

    /// Compare every recorded answer with the offline path's line (by
    /// their digests), record the check, and return how many differ.
    fn verify(&mut self, fixture: &Fixture, report: &mut Report) -> u64 {
        let mut items: Vec<usize> = self.answers.iter().map(|(i, _)| *i).collect();
        items.sort_unstable();
        items.dedup();
        let docs: Vec<&SparseDoc> = items.iter().map(|&i| &self.requests.items[i].doc).collect();
        let expected = fixture.offline_lines(&docs);
        let mut wrong = 0u64;
        for (item, seen) in &self.answers {
            let k = items.binary_search(item).expect("item was recorded");
            if *seen != digest(&expected[k]) {
                wrong += 1;
            }
        }
        report.check(
            "serve.bytes_equal_offline",
            wrong == 0,
            format!(
                "{} answers, {} distinct documents, {wrong} differ",
                self.answers.len(),
                items.len()
            ),
        );
        self.answers.clear();
        wrong
    }

    fn shutdown(self) {
        let Rig {
            server,
            registry,
            clients,
            ..
        } = self;
        drop(clients);
        let report = server.shutdown(Duration::from_secs(10));
        assert_eq!(
            report.connections_aborted, 0,
            "drain force-closed connections"
        );
        if let Ok(registry) = Arc::try_unwrap(registry) {
            registry.shutdown();
        }
    }
}

/// Cold documents to generate: enough for the fastest plausible capacity
/// over the whole run, so no document is ever sent twice.
fn cold_docs_for(seconds: f64) -> usize {
    (seconds * 2500.0) as usize + 4096
}

/// Requests/s per `WINDOW` over the completion offsets, median across
/// the windows that lie wholly inside the phase.
fn windowed_rate(done_ns: &[u64], wall_s: f64) -> Option<f64> {
    let w = WINDOW.as_nanos() as u64;
    let windows = (wall_s * 1e9) as u64 / w;
    if windows == 0 {
        return None;
    }
    let mut counts = vec![0u64; windows as usize];
    for &t in done_ns {
        if let Some(c) = counts.get_mut((t / w) as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / WINDOW.as_secs_f64())
        .collect();
    median(&rates)
}

/// Set up a serve workload: fixture, request stream, server bind,
/// client connections and warm-up.
fn set_up(seed: u64, mix: Mix, seconds: f64) -> (Fixture, Rig, Phase) {
    let fixture = Fixture::build(seed);
    let requests = Requests::new(&fixture, mix, seed, cold_docs_for(seconds));
    let mut rig = Rig::start(&fixture, requests, None);
    let warm = rig.warm_up(64);
    (fixture, rig, warm)
}

/// The untraced serve workload.
pub fn run(mix: Mix, seed: u64, seconds: f64, report: &mut Report) {
    let ((fixture, mut rig, warm), setup_s) =
        repeat_setup(|| set_up(seed, mix, seconds), |(_, rig, _)| rig.shutdown());

    // Capacity: closed loop on every connection.
    let capacity_time = Duration::from_secs_f64(seconds * 0.4);
    let cpu0 = sys::server_cpu_s();
    let (cap, cap_wall) = rig.closed_loop("capacity", capacity_time);
    let server_cpu = sys::server_cpu_s() - cpu0;
    // Latency: open loop at the workload's fixed rate.
    let open = rig.open_loop(
        "open_loop",
        mix.rate(),
        Duration::from_secs_f64(seconds * 0.6),
    );

    let stats = rig.registry.stats("default").expect("default model stats");
    let wrong = rig.verify(&fixture, report);
    let ops = cap.done_ns.len() as f64;
    let in_order: Vec<f64> = open
        .latency_ns
        .iter()
        .map(|&(_, n)| n as f64 / 1e6)
        .collect();
    let p99 = windowed_p99(&in_order, MIN_TAIL_SAMPLES);
    let latencies = sorted(in_order);
    let p50 = percentile(&latencies, 50.0);
    report.check(
        "serve.open_loop_supports_p99",
        p99.is_some(),
        format!("{} latency samples", latencies.len()),
    );
    let hit_ratio = stats.cache_hits as f64 / (stats.cache_hits + stats.served).max(1) as f64;
    match mix {
        Mix::Cold => report.check(
            "serve.cold_never_hits",
            stats.cache_hits == 0,
            format!("{} hits", stats.cache_hits),
        ),
        Mix::Hot => report.check(
            "serve.hot_hits",
            hit_ratio >= 0.99,
            format!("hit ratio {hit_ratio}"),
        ),
    }
    report.info(
        "samples",
        format!(
            "{{\"setups\": {}, \"capacity_ops\": {}, \"capacity_windows\": {}, \"open_loop\": {}}}",
            setup_s.len(),
            cap.done_ns.len(),
            (cap_wall / WINDOW.as_secs_f64()) as u64,
            latencies.len()
        ),
    );
    let late = sorted(open.late_ns.iter().map(|&n| n as f64 / 1e3).collect());
    report.info(
        "generator_late_us_p99",
        format!("{}", percentile(&late, 99.0).unwrap_or(f64::NAN)),
    );

    report.metric("setup_s", median(&setup_s).expect("set-up samples"), "s");
    report.metric(
        "throughput",
        windowed_rate(&cap.done_ns, cap_wall).unwrap_or(f64::NAN),
        "ops/s",
    );
    report.metric("p50_ms", p50.unwrap_or(f64::NAN), "ms");
    report.metric("p99_ms", p99.unwrap_or(f64::NAN), "ms");
    report.metric("cpu_ms_per_op", server_cpu * 1e3 / ops.max(1.0), "ms");
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.metric("coherence_npmi", fixture.coherence, "npmi");

    // Answers are checked together after the phases; a wrong one is
    // charged to the last phase as a failed operation.
    report.phase(finish(warm, 0));
    report.phase(finish(cap.phase, 0));
    report.phase(finish(open.phase, wrong));
    rig.shutdown();
}

/// Stage timings of the serving path measured from outside, for the
/// traced run. Returns the capacity-phase throughput with the engine's
/// trace hook `(off, on)`.
pub fn probe(mix: Mix, seed: u64, seconds: f64, report: &mut Report) -> (f64, f64) {
    let fixture = Fixture::build(seed);
    let phase_time = Duration::from_secs_f64(seconds * 0.2);

    // Tracing off, then on: the capacity difference is the overhead.
    let requests = Requests::new(&fixture, mix, seed, cold_docs_for(seconds));
    let mut plain = Rig::start(&fixture, requests, None);
    let warm = plain.warm_up(64);
    let (cap, wall) = plain.closed_loop("probe_capacity_untraced", phase_time);
    let untraced_rate = windowed_rate(&cap.done_ns, wall).unwrap_or(f64::NAN);
    let wrong = plain.verify(&fixture, report);
    report.phase(finish(warm, 0));
    report.phase(finish(cap.phase, wrong));
    plain.shutdown();

    let log = Arc::new(Mutex::new(BatchLog::default()));
    let requests = Requests::new(&fixture, mix, seed ^ 1, cold_docs_for(seconds));
    let mut rig = Rig::start(&fixture, requests, Some(Arc::clone(&log)));
    let warm = rig.warm_up(64);
    let before = rig.registry.stats("default").expect("stats");
    log.lock().expect("batch log").batches.clear();
    let cpu0 = sys::server_cpu_s();
    let (cap, wall) = rig.closed_loop("probe_capacity_traced", phase_time);
    let cpu = sys::server_cpu_s() - cpu0;
    let traced_rate = windowed_rate(&cap.done_ns, wall).unwrap_or(f64::NAN);
    let after = rig.registry.stats("default").expect("stats");
    let (threads_all, threads_serving) = sys::thread_counts();
    let hits = after.cache_hits - before.cache_hits;
    let served = after.served - before.served;
    report.metric(
        "serve.lru.hit_ratio",
        hits as f64 / (hits + served).max(1) as f64,
        "ratio",
    );
    report.metric("serve.server.cpu_util", cpu / wall, "cores");
    report.metric("serve.reactor.threads", threads_serving as f64, "count");
    report.info("probe_threads_total", threads_all.to_string());

    // The engine is bypassed by cache hits, so its layer numbers always
    // come from a cold phase: the workload's own for serve_cold, an
    // extra one on the same server otherwise.
    // The phase runs on in short slices until enough batches support
    // a p99 of the queue wait.
    let saved = (mix == Mix::Hot).then(|| {
        let cold = Requests::new(&fixture, Mix::Cold, seed ^ 2, cold_docs_for(seconds));
        log.lock().expect("batch log").batches.clear();
        std::mem::replace(&mut rig.requests, cold)
    });
    let mut engine = Phase::new("probe_engine_cold");
    for _ in 0..60 {
        if log.lock().expect("batch log").batches.len() >= MIN_TAIL_SAMPLES {
            break;
        }
        let (t, _) = rig.closed_loop("probe_engine_cold", Duration::from_millis(500));
        engine.absorb(&t.phase);
    }
    let wrong = rig.verify(&fixture, report);
    let engine_phase = finish(engine, wrong);
    if let Some(saved) = saved {
        rig.requests = saved;
    }
    let batches = std::mem::take(&mut log.lock().expect("batch log").batches);
    let sizes: Vec<f64> = batches.iter().map(|b| b.0 as f64).collect();
    let queue_us = sorted(batches.iter().map(|b| b.1 as f64 / 1e3).collect());
    let infer_us: Vec<f64> = batches.iter().map(|b| b.2 as f64 / 1e3).collect();
    let batch_mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
    report.metric("serve.engine.batch_mean", batch_mean, "docs");
    let queue_p50 = percentile(&queue_us, 50.0).unwrap_or(f64::NAN);
    report.metric("serve.engine.queue_us.p50", queue_p50, "us");
    report.metric(
        "serve.engine.queue_us.p99",
        percentile(&queue_us, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    report.metric(
        "serve.engine.infer_us",
        median(&infer_us).unwrap_or(f64::NAN),
        "us",
    );
    report.info("engine_batches", batches.len().to_string());

    // Latency at the workload's rate, traced.
    let open_s = (seconds * 0.3).max(MIN_TAIL_SAMPLES as f64 / mix.rate());
    let open = rig.open_loop(
        "probe_open_loop",
        mix.rate(),
        Duration::from_secs_f64(open_s),
    );
    let lat = sorted(
        open.latency_ns
            .iter()
            .map(|&(_, n)| n as f64 / 1e3)
            .collect(),
    );
    let late = sorted(open.late_ns.iter().map(|&n| n as f64 / 1e3).collect());
    let e2e_p50_us = percentile(&lat, 50.0).unwrap_or(f64::NAN);
    report.metric(
        "bench.generator.late_us",
        percentile(&late, 99.0).unwrap_or(f64::NAN),
        "us",
    );

    // One connection, one request at a time: the serial wire round trip.
    let serial_n = 400;
    let mut serial_us = Vec::with_capacity(serial_n);
    let mut serial = Phase::new("probe_serial");
    for _ in 0..serial_n {
        let Some(item) = rig.requests.take() else {
            break;
        };
        serial.attempted += 1;
        let t0 = Instant::now();
        match rig.clients[0].query_line(&rig.requests.items[item].text) {
            Ok(line) if serial.classify_error_line(&line) => {}
            Ok(line) => {
                serial_us.push(t0.elapsed().as_secs_f64() * 1e6);
                rig.answers.push((item, digest(&line)));
            }
            Err(_) => serial.io += 1,
        }
    }
    let query_line_us = median(&serial_us).unwrap_or(f64::NAN);

    // In process through the router: encode + admission + cache/engine.
    let mut answer_us = Vec::with_capacity(serial_n);
    let mut responses = Vec::with_capacity(serial_n);
    let mut in_process = Phase::new("probe_answer");
    for _ in 0..serial_n {
        let Some(item) = rig.requests.take() else {
            break;
        };
        in_process.attempted += 1;
        let t0 = Instant::now();
        match rig.registry.answer(None, &rig.requests.items[item].text) {
            Ok(response) => {
                answer_us.push(t0.elapsed().as_secs_f64() * 1e6);
                rig.answers.push((item, digest(&response.to_json())));
                responses.push(response);
            }
            Err(_) => in_process.typed += 1,
        }
    }
    let answer_p50 = median(&answer_us).unwrap_or(f64::NAN);
    let wrong = rig.verify(&fixture, report);

    // Single-layer timings over the same inputs.
    let encoder = DocEncoder::new(fixture.snapshot.vocab().clone());
    let texts: Vec<&str> = rig
        .requests
        .items
        .iter()
        .take(256)
        .map(|r| r.text.as_str())
        .collect();
    let encode_us = time_median_us(texts.len(), 5, |i| {
        std::hint::black_box(encoder.encode(texts[i]).ok());
    });
    let json_us = time_median_us(responses.len().max(1), 5, |i| {
        std::hint::black_box(responses[i % responses.len().max(1)].to_json());
    });
    // Snapshot stages per document, at the batch size the engine formed.
    let b = (batch_mean.round() as usize).clamp(1, ServeConfig::default().max_batch);
    let docs: Vec<&SparseDoc> = rig
        .requests
        .items
        .iter()
        .map(|r| &r.doc)
        .take(b * 32)
        .collect();
    let groups: Vec<&[&SparseDoc]> = docs.chunks(b).filter(|g| g.len() == b).collect();
    let snap = &fixture.snapshot;
    let dense_us = time_median_us(groups.len(), 3, |i| {
        std::hint::black_box(snap.dense_batch(groups[i]));
    }) / b as f64;
    let xs: Vec<Tensor> = groups.iter().map(|g| snap.dense_batch(g)).collect();
    let infer_doc_us = time_median_us(xs.len(), 3, |i| {
        std::hint::black_box(snap.infer_theta(&xs[i]));
    }) / b as f64;
    let theta = snap.infer_theta(&xs[0]);
    let top_n = ServeConfig::default().top_n;
    let response_us = time_median_us(b, 20, |i| {
        std::hint::black_box(snap.build_response(theta.row(i).to_vec(), top_n));
    });
    report.metric("serve.encode.us", encode_us, "us");
    report.metric("serve.json.us", json_us, "us");
    report.metric("serve.snapshot.dense_batch_us", dense_us, "us");
    report.metric("serve.snapshot.infer_us", infer_doc_us, "us");
    report.metric("serve.snapshot.response_us", response_us, "us");
    report.metric("serve.registry.answer_us", answer_p50, "us");
    let wire_us = query_line_us - (answer_p50 + json_us);
    report.metric("serve.reactor.wire_us", wire_us, "us");
    // The stages a request passes through, without overlap: the wire,
    // JSON, encode and — when the engine answers — the queue wait plus
    // one batch's dense_batch and forward pass and its own response.
    let engine_us = match mix {
        Mix::Cold => queue_p50 + b as f64 * (dense_us + infer_doc_us) + response_us,
        Mix::Hot => 0.0,
    };
    let stage_sum = wire_us + json_us + encode_us + engine_us;
    report.metric("serve.residual_us", e2e_p50_us - stage_sum, "us");
    report.info(
        "serve_stage_sum_us",
        format!(
            "{{\"e2e_p50\": {e2e_p50_us}, \"stage_sum\": {stage_sum}, \"serial_query_line\": {query_line_us}, \"batch\": {b}}}"
        ),
    );

    report.phase(finish(warm, 0));
    report.phase(finish(cap.phase, 0));
    report.phase(engine_phase);
    report.phase(finish(open.phase, 0));
    report.phase(finish(serial, 0));
    report.phase(finish(in_process, wrong));
    rig.shutdown();
    (untraced_rate, traced_rate)
}

/// FNV-1a 64 of a response line: answers are kept as digests, so the
/// memory a run holds does not grow with how many requests it managed.
fn digest(line: &str) -> u64 {
    line.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Close a phase's books: `wrong` answers become failures, the rest of
/// the answered operations are ok.
fn finish(mut phase: Phase, wrong: u64) -> Phase {
    phase.wrong += wrong;
    phase.ok = phase.attempted - phase.failed().min(phase.attempted);
    phase
}
