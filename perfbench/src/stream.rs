//! The continual-learning workload, `stream_live`: an online ContraTopic
//! learns from a drifting document stream (a topic is born and the
//! vocabulary grows halfway), checkpoints to disk and hot-promotes
//! snapshots into a live registry that one client queries open-loop.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use contratopic::{ContraTopicConfig, OnlineContraTopic};
use ct_corpus::npmi::CoocAccumulator;
use ct_corpus::stream::{DocStream, StreamSpec};
use ct_corpus::synth::CORE_SIZE;
use ct_corpus::{parse_drift_script, train_embeddings};
use ct_eval::{TopicScores, K_TC};
use ct_models::{Backbone, TraceEvent, TraceSink, TrainConfig};
use ct_serve::{ModelRegistry, ModelSnapshot, RegistryConfig, Router};
use ct_tensor::{params_to_bytes, pool};

use crate::gen;
use crate::report::{Phase, Report};
use crate::stats::{median, percentile, sorted, windowed_p99};
use crate::sys;
use crate::timing::repeat_setup;

const TOPICS: usize = 20;
const CHUNK_DOCS: usize = 500;
/// Chunks per second of `--seconds`: about 0.8 of the run learns on a
/// 2-vCPU host.
const CHUNKS_PER_SECOND: f64 = 2.0;
/// Checkpoint every this many chunks, promote every this many.
const SAVE_EVERY: u64 = 4;
const PROMOTE_EVERY: u64 = 2;
/// The live client's fixed open-loop query rate.
const QUERY_RATE: f64 = 500.0;
/// Distinct query documents the client cycles through.
const QUERY_POOL: usize = 512;
/// Smallest live-query sample that supports a p99.
const MIN_QUERIES: usize = 1100;
const MODEL: &str = "stream";

/// The drifting stream for `seed`, sized for `chunks` chunks.
fn stream_for(seed: u64, chunks: u64) -> DocStream {
    let vocab_size = TOPICS * CORE_SIZE + 200;
    let num_docs = chunks * CHUNK_DOCS as u64;
    let spec = StreamSpec {
        vocab_size,
        num_topics: TOPICS,
        start_vocab: (TOPICS - 1) * CORE_SIZE + 60,
        num_docs,
        chunk_size: CHUNK_DOCS,
        avg_doc_len: 40.0,
        seed,
        events: parse_drift_script(&format!(
            "vocab:{vocab_size}@{half},birth:{}@{half}",
            TOPICS - 1,
            half = num_docs / 2
        ))
        .expect("drift script"),
        ..StreamSpec::default()
    };
    DocStream::new(spec).expect("stream spec")
}

fn chunks_for(seconds: f64) -> u64 {
    ((seconds * CHUNKS_PER_SECOND).round() as u64).max(4)
}

/// A checkpoint directory of this run's own inside the working
/// directory, removed when the pipeline is dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir =
            PathBuf::from(".perfbench-work").join(format!("{tag}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir).expect("create the checkpoint directory");
        Self(dir)
    }

    fn prefix(&self) -> String {
        self.0.join("online").to_string_lossy().into_owned()
    }

    fn bytes(&self) -> u64 {
        fs::read_dir(&self.0)
            .map(|d| {
                d.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
        // Leave no empty parent behind either (fails harmlessly while
        // another run's directory is still in it).
        fs::remove_dir(".perfbench-work").ok();
    }
}

/// Online learner, live registry and checkpoint directory.
struct Pipeline {
    stream: DocStream,
    base: TrainConfig,
    config: ContraTopicConfig,
    online: OnlineContraTopic,
    registry: Arc<ModelRegistry>,
    dir: WorkDir,
    /// Parameter bytes at the latest checkpoint.
    saved: Vec<u8>,
    promotions: u64,
    rejected_promotions: u64,
}

/// Counts the training batches the learner's trace hook reports.
#[derive(Default)]
struct BatchCount(u64);

impl TraceSink for BatchCount {
    fn record(&mut self, event: &TraceEvent) {
        if matches!(event, TraceEvent::BatchEnd { .. }) {
            self.0 += 1;
        }
    }
}

/// Wall times of each step, when the pipeline is traced.
#[derive(Default)]
struct StepTimes {
    batches: BatchCount,
    fit_slice_ms: Vec<f64>,
    save_state_ms: Vec<f64>,
    export_ms: Vec<f64>,
    promote_us: Vec<f64>,
}

impl Pipeline {
    fn new(seed: u64, chunks: u64, tag: &str) -> Self {
        let stream = stream_for(seed, chunks);
        let base = TrainConfig {
            num_topics: TOPICS,
            hidden: 128,
            embed_dim: 64,
            epochs: 2,
            batch_size: 128,
            seed: gen::MODEL_SEED,
            ..TrainConfig::default()
        };
        let embeddings = train_embeddings(
            &stream.chunk(0).corpus,
            base.embed_dim,
            &mut gen::rng(seed, 40),
        );
        let config = ContraTopicConfig::default();
        let online = OnlineContraTopic::new(
            stream.vocab().len(),
            embeddings,
            base.clone(),
            config.clone(),
        );
        let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig::default()));
        let snapshot = ModelSnapshot::from_parts(
            online.backbone(),
            online.params(),
            stream.vocab().clone(),
            10,
        )
        .expect("initial snapshot");
        registry
            .register_snapshot(MODEL, snapshot)
            .expect("register the stream model");
        Self {
            stream,
            base,
            config,
            online,
            registry,
            dir: WorkDir::new(tag),
            saved: Vec::new(),
            promotions: 0,
            rejected_promotions: 0,
        }
    }

    /// Learn from every chunk; checkpoint every `SAVE_EVERY` chunks and
    /// promote every `PROMOTE_EVERY`, both also after the last chunk.
    /// With `times`, the learner's trace hook is on and every step is
    /// timed. Returns docs/s of each block of `SAVE_EVERY` chunks,
    /// checkpoint and promotions included.
    fn run(&mut self, mut times: Option<&mut StepTimes>) -> Vec<f64> {
        let vocab = self.stream.vocab().clone();
        let last = self.stream.num_chunks() - 1;
        let mut block_rates = Vec::new();
        let (mut block_start, mut block_docs) = (Instant::now(), 0usize);
        for chunk in self.stream.clone() {
            let t0 = Instant::now();
            match times.as_deref_mut() {
                Some(t) => self.online.fit_slice_traced(&chunk.corpus, &mut t.batches),
                None => self.online.fit_slice(&chunk.corpus),
            }
            let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
            block_docs += chunk.corpus.num_docs();
            let (save, promote) = (
                (chunk.index + 1) % SAVE_EVERY == 0 || chunk.index == last,
                (chunk.index + 1) % PROMOTE_EVERY == 0 || chunk.index == last,
            );
            let mut save_ms = None;
            if save {
                let t0 = Instant::now();
                self.online
                    .save_state(&self.dir.prefix(), &vocab)
                    .expect("checkpoint the stream state");
                save_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
                self.saved = params_to_bytes(self.online.params());
            }
            let mut promote_times = None;
            if promote {
                let t0 = Instant::now();
                let snapshot = ModelSnapshot::from_parts(
                    self.online.backbone(),
                    self.online.params(),
                    vocab.clone(),
                    10,
                );
                let export_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t0 = Instant::now();
                match snapshot.map(|s| self.registry.promote(MODEL, s)) {
                    Ok(Ok(_)) => self.promotions += 1,
                    _ => self.rejected_promotions += 1,
                }
                promote_times = Some((export_ms, t0.elapsed().as_secs_f64() * 1e6));
            }
            if let Some(t) = times.as_deref_mut() {
                t.fit_slice_ms.push(fit_ms);
                t.save_state_ms.extend(save_ms);
                if let Some((export_ms, promote_us)) = promote_times {
                    t.export_ms.push(export_ms);
                    t.promote_us.push(promote_us);
                }
            }
            if save {
                block_rates.push(block_docs as f64 / block_start.elapsed().as_secs_f64());
                (block_start, block_docs) = (Instant::now(), 0);
            }
        }
        block_rates
    }

    /// Reload the last checkpoint and compare its parameter bytes with
    /// the ones saved.
    fn check_round_trip(&self, report: &mut Report) {
        let loaded = OnlineContraTopic::load_state(
            &self.dir.prefix(),
            self.base.clone(),
            self.config.clone(),
        );
        let same = loaded
            .as_ref()
            .is_ok_and(|(m, _)| params_to_bytes(m.params()) == self.saved);
        report.check(
            "stream.checkpoint_round_trips",
            same,
            match &loaded {
                Ok(_) => format!("{} bytes of parameters", self.saved.len()),
                Err(e) => format!("load_state failed: {e}"),
            },
        );
    }

    fn coherence(&self) -> f64 {
        let beta = self.online.backbone().beta_tensor(self.online.params());
        TopicScores::compute(&beta, &self.online.npmi(), K_TC).coherence_at(0.5)
    }

    fn shutdown(self) {
        let Pipeline { registry, .. } = self;
        if let Ok(registry) = Arc::try_unwrap(registry) {
            registry.shutdown();
        }
    }
}

/// Query texts for the live client: documents of an independent stream
/// over the same vocabulary.
fn query_texts(seed: u64) -> Vec<String> {
    let stream = stream_for(seed ^ 0x5eed, 2);
    let chunk = stream.chunk(0).corpus;
    chunk
        .docs
        .iter()
        .take(QUERY_POOL)
        .map(|d| gen::doc_text(d, &chunk.vocab))
        .filter(|t| !t.is_empty())
        .collect()
}

/// The live client's results.
struct Client {
    phase: Phase,
    latency_ms: Vec<f64>,
}

/// Query `registry` open-loop at `QUERY_RATE` until `done` is set and at
/// least `MIN_QUERIES` were sent; latency runs from each due time.
fn live_client(registry: &ModelRegistry, texts: &[String], done: &AtomicBool) -> Client {
    let mut c = Client {
        phase: Phase::new("live_queries"),
        latency_ms: Vec::new(),
    };
    let start = Instant::now();
    for i in 0.. {
        if done.load(Ordering::Acquire) && i >= MIN_QUERIES {
            break;
        }
        let due = start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        c.phase.attempted += 1;
        match registry.answer(Some(MODEL), &texts[i % texts.len()]) {
            Ok(_) => {
                c.phase.ok += 1;
                c.latency_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            Err(e) if e.kind() == "backpressure" => c.phase.backpressure += 1,
            Err(_) => c.phase.typed += 1,
        }
    }
    c
}

/// The untraced streaming workload.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let chunks = chunks_for(seconds);
    let set_up = || {
        let pipeline = Pipeline::new(seed, chunks, "stream");
        let texts = query_texts(seed);
        // Warm-up: one answer through the registry before timing.
        pipeline
            .registry
            .answer(Some(MODEL), &texts[0])
            .expect("warm-up query");
        (pipeline, texts)
    };
    let ((mut pipeline, texts), setup_s) = repeat_setup(set_up, |(p, _)| p.shutdown());

    let done = AtomicBool::new(false);
    let registry = Arc::clone(&pipeline.registry);
    let cpu0 = sys::process_cpu_s();
    let (client, block_rates) = std::thread::scope(|s| {
        let client = s.spawn(|| live_client(&registry, &texts, &done));
        // The learner trains on one thread and leaves the pool's workers
        // to the live model, so a query does not queue behind a training
        // step's partitions in the pool's one job queue.
        let block_rates = pool::with_threads(1, || pipeline.run(None));
        done.store(true, Ordering::Release);
        (client.join().expect("live client"), block_rates)
    });
    let cpu = sys::process_cpu_s() - cpu0;
    drop(registry);
    let docs = pipeline.online.docs_seen() as f64;

    let mut learn = Phase::new("learn_chunks");
    learn.attempted = pipeline.stream.num_chunks();
    learn.ok = learn.attempted;
    let mut promote = Phase::new("promotions");
    promote.attempted = pipeline.promotions + pipeline.rejected_promotions;
    promote.ok = pipeline.promotions;
    promote.typed = pipeline.rejected_promotions;
    report.check(
        "stream.no_failed_queries",
        client.phase.failed() == 0,
        format!(
            "{} of {} failed",
            client.phase.failed(),
            client.phase.attempted
        ),
    );
    report.check(
        "stream.every_promotion_accepted",
        pipeline.rejected_promotions == 0,
        format!(
            "{} accepted, {} rejected",
            pipeline.promotions, pipeline.rejected_promotions
        ),
    );
    pipeline.check_round_trip(report);
    let p99 = windowed_p99(&client.latency_ms, MIN_QUERIES);
    let latency = sorted(client.latency_ms);
    report.check(
        "stream.queries_support_p99",
        p99.is_some(),
        format!("{} latency samples", latency.len()),
    );
    report.info(
        "samples",
        format!(
            "{{\"setups\": {}, \"chunks\": {chunks}, \"docs\": {docs}, \"queries\": {}}}",
            setup_s.len(),
            latency.len()
        ),
    );
    report.metric("setup_s", median(&setup_s).expect("set-up samples"), "s");
    report.metric(
        "throughput",
        median(&block_rates).expect("at least one checkpoint block"),
        "ops/s",
    );
    report.metric(
        "p50_ms",
        percentile(&latency, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric("p99_ms", p99.unwrap_or(f64::NAN), "ms");
    report.metric("cpu_ms_per_op", cpu * 1e3 / docs, "ms");
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.metric("coherence_npmi", pipeline.coherence(), "npmi");
    report.phase(learn);
    report.phase(promote);
    report.phase(client.phase);
    pipeline.shutdown();
}

/// Per-layer numbers of the streaming path, for the traced run. Returns
/// the learning rate (docs/s) untraced and traced.
pub fn probe(seed: u64, seconds: f64, report: &mut Report) -> (f64, f64) {
    let chunks = chunks_for(seconds * 0.4);
    let mut phase = Phase::new("probe_stream");

    let mut plain = Pipeline::new(seed, chunks, "probe-plain");
    let untraced = median(&pool::with_threads(1, || plain.run(None))).expect("a checkpoint block");
    phase.attempted += plain.promotions + plain.rejected_promotions;
    phase.typed += plain.rejected_promotions;
    plain.shutdown();

    let mut traced = Pipeline::new(seed, chunks, "probe-traced");
    let mut times = StepTimes::default();
    let traced_rate = median(&pool::with_threads(1, || traced.run(Some(&mut times))))
        .expect("a checkpoint block");
    phase.attempted += traced.promotions + traced.rejected_promotions;
    phase.typed += traced.rejected_promotions;
    report.metric(
        "core.online.fit_slice_ms",
        median(&times.fit_slice_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "core.online.save_state_ms",
        median(&times.save_state_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "core.online.checkpoint_bytes",
        traced.dir.bytes() as f64,
        "bytes",
    );
    report.metric(
        "serve.snapshot.export_ms",
        median(&times.export_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "serve.registry.promote_us",
        median(&times.promote_us).unwrap_or(f64::NAN),
        "us",
    );
    traced.check_round_trip(report);

    // Stream generation and the incremental NPMI on their own.
    let stream = traced.stream.clone();
    let (mut chunk_ms, mut acc_ms, mut npmi_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut acc = CoocAccumulator::new(stream.vocab().len());
    for i in 0..stream.num_chunks() {
        let t0 = Instant::now();
        let chunk = stream.chunk(i);
        chunk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        acc.add_corpus(&chunk.corpus);
        acc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(acc.to_npmi());
        npmi_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    report.metric(
        "corpus.stream.chunk_ms",
        median(&chunk_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "corpus.npmi.accumulate_ms",
        median(&acc_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "corpus.npmi.to_npmi_ms",
        median(&npmi_ms).unwrap_or(f64::NAN),
        "ms",
    );
    traced.shutdown();
    phase.ok = phase.attempted - phase.typed.min(phase.attempted);
    report.phase(phase);
    (untraced, traced_rate)
}
