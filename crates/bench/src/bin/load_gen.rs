//! Open-loop TCP load generator for the `ct-serve` network tier.
//!
//! Unlike a closed-loop client (which waits for each response before
//! sending the next request, so a slow server slows the offered load and
//! hides queueing delay), this driver schedules request
//! `i` at `start + i/rate` and measures latency **from that scheduled
//! arrival time** — if the server falls behind, the lateness shows up in
//! the tail instead of disappearing into a throttled client. That is
//! the standard coordinated-omission-free methodology for
//! latency-under-load curves.
//!
//! Connections are established once and reused for the whole sweep, so
//! measured latency is queueing + inference, not connect/teardown
//! churn; connection-establishment failures are counted separately
//! (`connect_errors`) from request failures (`errors` for typed error
//! responses, `io_errors` for transport faults, which trigger one
//! reconnect attempt for the next request).
//!
//! Three modes:
//!
//! - default: train the production-shaped fixture model (quick-scale
//!   20NG corpus, paper-sized encoder). First time what micro-batching
//!   buys in process — one thread running one document per forward pass
//!   (`unbatched_1t`) against 4 closed-loop clients on a [`ServeEngine`]
//!   (`engine_4t`), cache off — and gate their throughput ratio
//!   `speedup_4t_vs_unbatched` at [`SPEEDUP_4T_FLOOR`]. Then self-host
//!   the model behind a real [`TcpServer`], sweep arrival rates, and
//!   gate the curve's p99 (`latency_under_load`, `p99_gate`). Both splice
//!   into `BENCH_serve.json` (other keys untouched), and the exit code is
//!   1 if either gate fails;
//! - `--idle-conns N` (without `--smoke`): the fan-in benchmark — park
//!   `N` idle connections on the server, drive the gate rate through a
//!   separate active pool, and splice a `fan_in` key recording tail
//!   latency under fan-in plus the server's resident thread count
//!   (counted from `/proc/self/task/*/comm` by the `ct-` thread-name
//!   prefix, which only the serving tier uses). Pass = p99 within 2× of
//!   the no-idle-load `p99_gate.p99_ms` already in the output file, 0
//!   dropped idle connections, and server threads O(cores);
//! - `--smoke [--idle-conns N]`: a seconds-long variant on a tiny
//!   fixture with a generous p99 bound, run by the `load_gen_smoke`
//!   integration test as a regression gate (exit code 1 on violation).
//!   With idle connections it additionally asserts none were dropped and
//!   the thread count stayed flat.
//!
//! Both writing modes also set the file's `host` block
//! ([`ct_bench::provenance`]).
//!
//! `--addr HOST:PORT` drives an already-running server instead of
//! self-hosting (the fixture corpus vocabulary must match; thread
//! counting and the in-process batching check are skipped since the
//! server is out-of-process).

use std::io::Read as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_bench::update_bench_json;
use ct_corpus::{generate, train_embeddings, BowCorpus, DatasetPreset, Scale, SparseDoc};
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{
    ModelRegistry, ModelSnapshot, ProtocolLimits, RegistryConfig, ServeConfig, ServeEngine,
    TcpClient, TcpServer,
};
use ct_tensor::codec::json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One rate point of the latency-under-load curve.
struct RatePoint {
    rate_qps: f64,
    duration_s: f64,
    sent: usize,
    ok: usize,
    rejected: usize,
    /// Typed error responses (anything but backpressure).
    errors: usize,
    /// Transport faults mid-request (reset, EOF, short write).
    io_errors: usize,
    /// Failed connection-establishment attempts (initial or reconnect).
    connect_errors: usize,
    achieved_qps: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000_000.0
}

/// Connect the persistent client pool once, up front; the sweep reuses
/// it across every rate point.
fn connect_pool(addr: &str, n: usize) -> (Vec<TcpClient>, usize) {
    let mut clients = Vec::with_capacity(n);
    let mut connect_errors = 0usize;
    for _ in 0..n {
        match TcpClient::connect(addr) {
            Ok(c) => clients.push(c),
            Err(_) => connect_errors += 1,
        }
    }
    (clients, connect_errors)
}

/// Drive `addr` open-loop at `rate_qps` for `duration` over the
/// persistent connections in `pool` (topped up to `connections` by
/// reconnecting as needed). Latency for request `i` is measured from
/// its scheduled arrival `start + i/rate`, response classification from
/// the JSON line (`"error":"backpressure"` counts as a rejection, any
/// other error line as a failure). Returns the pool for the next rate
/// point alongside the measurements.
fn run_rate(
    addr: &str,
    rate_qps: f64,
    duration: Duration,
    pool: Vec<TcpClient>,
    connections: usize,
    texts: &[String],
) -> (RatePoint, Vec<TcpClient>) {
    let total = (rate_qps * duration.as_secs_f64()).round() as usize;
    let next = Arc::new(AtomicUsize::new(0));
    // Give every worker time to settle before the clock starts.
    let start = Instant::now() + Duration::from_millis(100);
    let texts = Arc::new(texts.to_vec());
    let mut seats: Vec<Option<TcpClient>> = pool.into_iter().map(Some).collect();
    seats.resize_with(connections.max(1), || None);
    let workers: Vec<_> = seats
        .into_iter()
        .map(|seat| {
            let next = Arc::clone(&next);
            let texts = Arc::clone(&texts);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = seat;
                let mut latencies_ns = Vec::new();
                let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
                let (mut io_errors, mut connect_errors) = (0usize, 0usize);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let sched = start + Duration::from_secs_f64(i as f64 / rate_qps);
                    let now = Instant::now();
                    if sched > now {
                        std::thread::sleep(sched - now);
                    }
                    if client.is_none() {
                        // One reconnect attempt per scheduled request: a
                        // dead server degrades the curve, not the driver.
                        match TcpClient::connect(&addr) {
                            Ok(c) => client = Some(c),
                            Err(_) => {
                                connect_errors += 1;
                                io_errors += 1;
                                continue;
                            }
                        }
                    }
                    let line = match client.as_mut().unwrap().query_line(&texts[i % texts.len()]) {
                        Ok(line) => line,
                        Err(_) => {
                            io_errors += 1;
                            client = None;
                            continue;
                        }
                    };
                    // Open-loop latency: completion minus *scheduled* start.
                    let lat = Instant::now().saturating_duration_since(sched);
                    if line.contains("\"error\": \"backpressure\"")
                        || line.contains("\"error\":\"backpressure\"")
                    {
                        rejected += 1;
                    } else if line.starts_with("{\"error\"") {
                        errors += 1;
                    } else {
                        ok += 1;
                        latencies_ns.push(lat.as_nanos() as u64);
                    }
                }
                (
                    latencies_ns,
                    ok,
                    rejected,
                    errors,
                    io_errors,
                    connect_errors,
                    client,
                )
            })
        })
        .collect();
    let mut latencies_ns = Vec::with_capacity(total);
    let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
    let (mut io_errors, mut connect_errors) = (0usize, 0usize);
    let mut pool = Vec::new();
    for w in workers {
        let (l, o, r, e, ioe, ce, client) = w.join().expect("load worker");
        latencies_ns.extend(l);
        ok += o;
        rejected += r;
        errors += e;
        io_errors += ioe;
        connect_errors += ce;
        if let Some(c) = client {
            pool.push(c);
        }
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    latencies_ns.sort_unstable();
    let point = RatePoint {
        rate_qps,
        duration_s: duration.as_secs_f64(),
        sent: total,
        ok,
        rejected,
        errors,
        io_errors,
        connect_errors,
        achieved_qps: (ok + rejected + errors) as f64 / wall,
        p50_ms: percentile_ms(&latencies_ns, 0.50),
        p90_ms: percentile_ms(&latencies_ns, 0.90),
        p99_ms: percentile_ms(&latencies_ns, 0.99),
    };
    (point, pool)
}

/// Attach `n` idle connections and hold them open: they never send a
/// byte, so a correct server parks them for free. Connects are paced in
/// small batches (with per-connection retries) so a 5k burst doesn't
/// overrun the listener backlog.
fn attach_idle(addr: &str, n: usize) -> (Vec<TcpStream>, usize) {
    let mut conns = Vec::with_capacity(n);
    let mut failures = 0usize;
    for i in 0..n {
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    conns.push(s);
                    break;
                }
                Err(_) if attempt < 5 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(1 << attempt));
                }
                Err(_) => {
                    failures += 1;
                    break;
                }
            }
        }
        if (i + 1) % 64 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (conns, failures)
}

/// How many parked connections the server dropped: a healthy idle
/// connection is open and silent (nonblocking read → `WouldBlock`);
/// EOF or a reset means the server hung up on it.
fn count_dropped_idle(conns: &mut [TcpStream]) -> usize {
    let mut dropped = 0usize;
    let mut buf = [0u8; 8];
    for conn in conns.iter_mut() {
        if conn.set_nonblocking(true).is_err() {
            dropped += 1;
            continue;
        }
        match conn.read(&mut buf) {
            Ok(0) => dropped += 1,
            Ok(_) => {} // unsolicited bytes, but the connection is alive
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => dropped += 1,
        }
    }
    dropped
}

/// Resident thread counts `(serving, process)` read from
/// `/proc/self/task/*/comm`. Every serving-tier thread — reactor
/// shards, engine batchers, the tensor pool — is named with a `ct-`
/// prefix, so when the server is self-hosted the first count isolates
/// it from the load driver's own (unnamed) worker threads. `(0, 0)`
/// where `/proc` is unavailable.
fn thread_counts() -> (usize, usize) {
    let (mut serving, mut process) = (0usize, 0usize);
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for entry in dir.flatten() {
        process += 1;
        if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
            if comm.trim_start().starts_with("ct-") {
                serving += 1;
            }
        }
    }
    (serving, process)
}

/// Pull `p99_gate.p99_ms` out of an existing BENCH_serve.json so the
/// fan-in run can compare against the no-idle-load baseline.
fn baseline_p99_ms(doc: &str) -> Option<f64> {
    json::parse(doc)
        .ok()?
        .get("p99_gate")?
        .get("p99_ms")?
        .as_f64()
}

/// Decode a corpus back into request-line texts (token id → word,
/// repeated per count) so the wire path exercises the real encoder.
fn corpus_texts(corpus: &BowCorpus, max_docs: usize) -> Vec<String> {
    corpus
        .docs
        .iter()
        .take(max_docs)
        .map(|doc| {
            let mut text = String::new();
            for (id, count) in doc.iter() {
                for _ in 0..(count as usize).max(1) {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(corpus.vocab.word(id));
                }
            }
            text
        })
        .filter(|t| !t.is_empty())
        .collect()
}

/// Self-host a registry-backed TCP server on an ephemeral port; the
/// cache is disabled so every request pays for real inference.
fn host_fixture(snapshot: ModelSnapshot) -> (TcpServer, Arc<ModelRegistry>, String) {
    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig {
        max_inflight: 256,
        serve: ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
        trace: None,
    }));
    registry
        .register_snapshot("default", snapshot)
        .expect("register fixture model");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry) as Arc<dyn ct_serve::Router>,
        ProtocolLimits::default(),
    )
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();
    (server, registry, addr)
}

/// Queries per client thread in each closed-loop batching run.
const BATCHING_QUERIES: usize = 400;
/// Client threads in the batched run that `speedup_4t_vs_unbatched`
/// compares against the unbatched baseline.
const BATCHING_CLIENTS: usize = 4;
/// Floor on `speedup_4t_vs_unbatched`. On one core, 4 clients buy only
/// batching amortization (one memory pass over the encoder weights per
/// batch, not four); the 2× multi-core expectation is recorded, not
/// gated.
const SPEEDUP_4T_FLOOR: f64 = 1.1;

/// One closed-loop run of the batching check: its `runs` entry and its
/// throughput.
fn closed_loop_run(
    name: &str,
    clients: usize,
    mut latencies_ns: Vec<u64>,
    wall: Duration,
) -> (String, f64) {
    latencies_ns.sort_unstable();
    let queries = latencies_ns.len();
    let qps = queries as f64 / wall.as_secs_f64().max(1e-9);
    let run = format!(
        "{{\"name\": \"{name}\", \"clients\": {clients}, \"queries\": {queries}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"qps\": {qps:.1}}}",
        1e3 * percentile_ms(&latencies_ns, 0.50),
        1e3 * percentile_ms(&latencies_ns, 0.99),
    );
    (run, qps)
}

/// What micro-batching buys over one-document forward passes, in
/// process: the unbatched single-thread baseline straight into the
/// snapshot, then [`BATCHING_CLIENTS`] closed-loop clients on one engine
/// with the cache off. Returns the `runs` array (baseline first) and the
/// batched/unbatched throughput ratio.
fn batching_speedup(snapshot: &ModelSnapshot, docs: &[SparseDoc]) -> (String, f64) {
    let mut latencies = Vec::with_capacity(BATCHING_QUERIES);
    let t0 = Instant::now();
    for doc in docs.iter().cycle().take(BATCHING_QUERIES) {
        let qt = Instant::now();
        let theta = snapshot.infer_theta(&snapshot.dense_batch(&[doc]));
        assert_eq!(theta.rows(), 1);
        latencies.push(qt.elapsed().as_nanos() as u64);
    }
    let (unbatched, unbatched_qps) = closed_loop_run("unbatched_1t", 1, latencies, t0.elapsed());

    let engine = ServeEngine::start(
        snapshot.clone(),
        ServeConfig {
            max_batch: 64,
            queue_capacity: 1024,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let t0 = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..BATCHING_CLIENTS)
            .map(|c| {
                let handle = engine.handle();
                scope.spawn(move || {
                    (0..BATCHING_QUERIES)
                        .map(|q| {
                            let doc = &docs[(c + q * BATCHING_CLIENTS) % docs.len()];
                            let qt = Instant::now();
                            handle.query(doc).expect("query");
                            qt.elapsed().as_nanos() as u64
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let stats = engine.stats();
    eprintln!(
        "engine {BATCHING_CLIENTS}t: {} served in {} batches (max batch {})",
        stats.served, stats.batches, stats.max_batch_size
    );
    engine.shutdown();
    let name = format!("engine_{BATCHING_CLIENTS}t");
    let (batched, batched_qps) = closed_loop_run(&name, BATCHING_CLIENTS, latencies, wall);
    (
        format!("[{unbatched},{batched}]"),
        batched_qps / unbatched_qps,
    )
}

fn tiny_fixture() -> (ModelSnapshot, BowCorpus) {
    let corpus = cluster_corpus(4, 6, 20);
    let config = TrainConfig {
        num_topics: 4,
        hidden: 32,
        embed_dim: 8,
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    (snapshot, corpus)
}

fn production_fixture() -> (ModelSnapshot, BowCorpus) {
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
    (snapshot, corpus)
}

struct Args {
    smoke: bool,
    addr: Option<String>,
    rates: Vec<f64>,
    duration: Duration,
    connections: usize,
    idle_conns: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        addr: None,
        rates: vec![100.0, 200.0, 400.0, 800.0],
        duration: Duration::from_secs(3),
        connections: 8,
        idle_conns: 0,
        out: "BENCH_serve.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--addr" => args.addr = Some(value("--addr")),
            "--rates" => {
                args.rates = value("--rates")
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates takes comma-separated QPS"))
                    .collect();
            }
            "--duration-secs" => {
                args.duration = Duration::from_secs_f64(
                    value("--duration-secs").parse().expect("--duration-secs"),
                );
            }
            "--connections" => {
                args.connections = value("--connections").parse().expect("--connections");
            }
            "--idle-conns" => {
                args.idle_conns = value("--idle-conns").parse().expect("--idle-conns");
            }
            "--out" => args.out = value("--out"),
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: load_gen [--smoke] [--addr HOST:PORT] \
                     [--rates QPS,QPS,...] [--duration-secs S] [--connections N] \
                     [--idle-conns N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// The p99 bound the smoke gate enforces, in milliseconds. Generous
/// for a shared 1-core container: the point is to catch pathological
/// regressions (a stuck batcher, an accept-loop stall, lost responses),
/// not to benchmark the hardware.
const SMOKE_TARGET_QPS: f64 = 100.0;
const SMOKE_P99_MS: f64 = 250.0;

/// Full-mode gate recorded into BENCH_serve.json: p99 at the target
/// arrival rate must stay under this bound.
const GATE_TARGET_QPS: f64 = 200.0;
const GATE_P99_MS: f64 = 100.0;

/// Server-thread ceiling under fan-in: the reactor's resident cost is
/// its event-loop shards plus the engine batcher and pool threads, all
/// O(cores) — this bound is far below O(connections) but roomy enough
/// for any sane per-core scaling.
fn server_thread_bound() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    4 * cores + 16
}

fn render_point(p: &RatePoint) -> String {
    format!(
        "{{\"rate_qps\": {:.0}, \"duration_s\": {:.1}, \"sent\": {}, \"ok\": {}, \
         \"rejected\": {}, \"errors\": {}, \"io_errors\": {}, \"connect_errors\": {}, \
         \"achieved_qps\": {:.1}, \"p50_ms\": {:.2}, \"p90_ms\": {:.2}, \"p99_ms\": {:.2}}}",
        p.rate_qps,
        p.duration_s,
        p.sent,
        p.ok,
        p.rejected,
        p.errors,
        p.io_errors,
        p.connect_errors,
        p.achieved_qps,
        p.p50_ms,
        p.p90_ms,
        p.p99_ms
    )
}

fn main() {
    let args = parse_args();

    if args.smoke {
        run_smoke(&args);
        return;
    }
    if args.idle_conns > 0 {
        run_fan_in(&args);
        return;
    }
    run_sweep(&args);
}

fn run_smoke(args: &Args) {
    let (snapshot, corpus) = tiny_fixture();
    let texts = corpus_texts(&corpus, 64);
    let (server, registry, hosted) = host_fixture(snapshot);
    let addr = args.addr.clone().unwrap_or(hosted);
    let (mut idle, idle_failures) = attach_idle(&addr, args.idle_conns);
    if args.idle_conns > 0 {
        eprintln!(
            "smoke: {} idle connections attached ({} failed)",
            idle.len(),
            idle_failures
        );
    }
    let (pool, pool_connect_errors) = connect_pool(&addr, 4);
    let (point, pool) = run_rate(
        &addr,
        SMOKE_TARGET_QPS,
        Duration::from_secs(2),
        pool,
        4,
        &texts,
    );
    eprintln!(
        "smoke @ {:.0} QPS: {} ok / {} rejected / {} errors / {} io errors, \
         p50 {:.2} ms p99 {:.2} ms (achieved {:.1} QPS)",
        point.rate_qps,
        point.ok,
        point.rejected,
        point.errors,
        point.io_errors,
        point.p50_ms,
        point.p99_ms,
        point.achieved_qps
    );
    // Measure while the server (and every parked connection) is live.
    let (server_threads, process_threads) = thread_counts();
    let dropped_idle = count_dropped_idle(&mut idle);
    drop(pool);
    drop(idle);
    let report = server.shutdown(Duration::from_secs(5));
    drop(registry);
    let mut failures = Vec::new();
    if point.errors > 0 {
        failures.push(format!("{} non-backpressure error responses", point.errors));
    }
    if point.io_errors > 0 {
        failures.push(format!("{} request transport errors", point.io_errors));
    }
    if pool_connect_errors + point.connect_errors > 0 {
        failures.push(format!(
            "{} connect errors",
            pool_connect_errors + point.connect_errors
        ));
    }
    if point.ok + point.rejected + point.errors + point.io_errors != point.sent {
        failures.push(format!(
            "lost responses: sent {} got {}",
            point.sent,
            point.ok + point.rejected + point.errors + point.io_errors
        ));
    }
    if (point.ok as f64) < 0.9 * point.sent as f64 {
        failures.push(format!(
            "only {}/{} requests succeeded",
            point.ok, point.sent
        ));
    }
    if point.p99_ms > SMOKE_P99_MS {
        failures.push(format!(
            "p99 {:.2} ms exceeds the {SMOKE_P99_MS:.0} ms smoke bound",
            point.p99_ms
        ));
    }
    if report.connections_aborted > 0 {
        failures.push(format!(
            "{} connections force-closed during drain",
            report.connections_aborted
        ));
    }
    if args.idle_conns > 0 {
        if idle_failures > 0 {
            failures.push(format!("{idle_failures} idle connections failed to attach"));
        }
        if dropped_idle > 0 {
            failures.push(format!("server dropped {dropped_idle} idle connections"));
        }
        // Thread counting requires /proc and a self-hosted server.
        if args.addr.is_none() && server_threads > 0 && server_threads > server_thread_bound() {
            failures.push(format!(
                "server threads O(connections): {server_threads} ct- threads \
                 (bound {}, process total {process_threads})",
                server_thread_bound()
            ));
        }
    }
    if failures.is_empty() {
        let fan_in = if args.idle_conns > 0 {
            format!(
                ", {} idle conns parked on {} server threads",
                args.idle_conns, server_threads
            )
        } else {
            String::new()
        };
        println!(
            "load_gen --smoke: OK (p99 {:.2} ms @ {SMOKE_TARGET_QPS:.0} QPS{fan_in})",
            point.p99_ms
        );
    } else {
        for f in &failures {
            eprintln!("load_gen --smoke: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The headline fan-in benchmark: thousands of parked connections must
/// not move the active tail or the thread count.
fn run_fan_in(args: &Args) {
    let (texts, server_and_registry, addr) = match &args.addr {
        Some(addr) => {
            let (_, corpus) = tiny_fixture();
            (corpus_texts(&corpus, 256), None, addr.clone())
        }
        None => {
            let (snapshot, corpus) = production_fixture();
            let texts = corpus_texts(&corpus, 256);
            let (server, registry, addr) = host_fixture(snapshot);
            (texts, Some((server, registry)), addr)
        }
    };

    eprintln!("attaching {} idle connections...", args.idle_conns);
    let attach_start = Instant::now();
    let (mut idle, idle_failures) = attach_idle(&addr, args.idle_conns);
    eprintln!(
        "{} idle connections attached in {:.2}s ({} failed)",
        idle.len(),
        attach_start.elapsed().as_secs_f64(),
        idle_failures
    );

    let (pool, pool_connect_errors) = connect_pool(&addr, args.connections);
    let (point, pool) = run_rate(
        &addr,
        GATE_TARGET_QPS,
        args.duration,
        pool,
        args.connections,
        &texts,
    );
    let (server_threads, process_threads) = thread_counts();
    let dropped_idle = count_dropped_idle(&mut idle);
    eprintln!(
        "fan-in @ {:.0} QPS with {} idle conns: p50 {:.2} ms p99 {:.2} ms, \
         {} server threads / {} process threads, {} idle dropped",
        point.rate_qps,
        args.idle_conns,
        point.p50_ms,
        point.p99_ms,
        server_threads,
        process_threads,
        dropped_idle
    );
    drop(pool);
    drop(idle);
    if let Some((server, registry)) = server_and_registry {
        let report = server.shutdown(Duration::from_secs(10));
        assert_eq!(
            report.connections_aborted, 0,
            "drain force-closed connections"
        );
        drop(registry);
    }

    let doc = std::fs::read_to_string(&args.out).unwrap_or_default();
    let baseline = baseline_p99_ms(&doc);
    let bound_ms = baseline.map(|b| 2.0 * b);
    let connect_errors = pool_connect_errors + point.connect_errors;
    let mut pass = point.errors == 0
        && point.io_errors == 0
        && connect_errors == 0
        && idle_failures == 0
        && dropped_idle == 0;
    if let Some(bound) = bound_ms {
        pass &= point.p99_ms <= bound;
    }
    if args.addr.is_none() && server_threads > 0 {
        pass &= server_threads <= server_thread_bound();
    }
    let fan_in = format!(
        "{{\"idle_conns\": {}, \"idle_attach_failures\": {}, \"idle_dropped\": {}, \
         \"rate_qps\": {:.0}, \"duration_s\": {:.1}, \"ok\": {}, \"rejected\": {}, \
         \"errors\": {}, \"io_errors\": {}, \"connect_errors\": {}, \
         \"p50_ms\": {:.2}, \"p90_ms\": {:.2}, \"p99_ms\": {:.2}, \
         \"baseline_p99_ms\": {}, \"bound_ms\": {}, \
         \"server_threads\": {}, \"server_thread_bound\": {}, \"process_threads\": {}, \
         \"pass\": {}}}",
        args.idle_conns,
        idle_failures,
        dropped_idle,
        point.rate_qps,
        point.duration_s,
        point.ok,
        point.rejected,
        point.errors,
        point.io_errors,
        connect_errors,
        point.p50_ms,
        point.p90_ms,
        point.p99_ms,
        baseline.map_or("null".to_string(), |b| format!("{b:.2}")),
        bound_ms.map_or("null".to_string(), |b| format!("{b:.2}")),
        server_threads,
        server_thread_bound(),
        process_threads,
        pass
    );
    let doc = update_bench_json(&args.out, &[("fan_in", &fan_in)]).expect("write BENCH output");
    println!("{doc}");
    eprintln!(
        "wrote {} (fan-in p99 {:.2} ms vs baseline {} — {})",
        args.out,
        point.p99_ms,
        baseline.map_or("n/a".to_string(), |b| format!("{b:.2} ms")),
        if pass { "pass" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}

/// Full mode: check the batching speedup in process (self-hosted only),
/// then sweep rates against the production-shaped fixture, and splice
/// both into BENCH_serve.json.
fn run_sweep(args: &Args) {
    let mut batching = None;
    let (texts, server_and_registry, addr) = match &args.addr {
        Some(addr) => {
            let (_, corpus) = tiny_fixture();
            (corpus_texts(&corpus, 256), None, addr.clone())
        }
        None => {
            let (snapshot, corpus) = production_fixture();
            let (runs, speedup) = batching_speedup(&snapshot, &corpus.docs);
            eprintln!(
                "batching: {speedup:.2}x unbatched throughput at {BATCHING_CLIENTS} clients \
                 (floor {SPEEDUP_4T_FLOOR}x)"
            );
            batching = Some((runs, speedup));
            let texts = corpus_texts(&corpus, 256);
            let (server, registry, addr) = host_fixture(snapshot);
            (texts, Some((server, registry)), addr)
        }
    };

    let (mut pool, pool_connect_errors) = connect_pool(&addr, args.connections);
    if pool_connect_errors > 0 {
        eprintln!("warning: {pool_connect_errors} initial connect errors");
    }
    let mut points = Vec::new();
    for &rate in &args.rates {
        let (point, returned) =
            run_rate(&addr, rate, args.duration, pool, args.connections, &texts);
        pool = returned;
        eprintln!(
            "rate {:>6.0} QPS: p50 {:>7.2} ms  p90 {:>7.2} ms  p99 {:>7.2} ms  \
             ({} ok, {} rejected, {} errors, {} io errors, {} connect errors, \
             achieved {:.1} QPS)",
            point.rate_qps,
            point.p50_ms,
            point.p90_ms,
            point.p99_ms,
            point.ok,
            point.rejected,
            point.errors,
            point.io_errors,
            point.connect_errors,
            point.achieved_qps
        );
        points.push(point);
    }
    drop(pool);
    if let Some((server, registry)) = server_and_registry {
        let report = server.shutdown(Duration::from_secs(5));
        assert_eq!(
            report.connections_aborted, 0,
            "drain force-closed connections"
        );
        drop(registry);
    }

    let curve: Vec<String> = points.iter().map(render_point).collect();
    let curve = format!("[{}]", curve.join(","));

    // Gate: p99 at the slowest swept rate >= the target must hold.
    let gated = points
        .iter()
        .filter(|p| p.rate_qps >= GATE_TARGET_QPS)
        .min_by(|a, b| a.rate_qps.total_cmp(&b.rate_qps))
        .or_else(|| points.last());
    let (gate_rate, gate_p99, gate_pass) = match gated {
        Some(p) => (p.rate_qps, p.p99_ms, p.p99_ms <= GATE_P99_MS),
        None => (0.0, 0.0, false),
    };
    let gate = format!(
        "{{\"target_qps\": {gate_rate:.0}, \"p99_ms\": {gate_p99:.2}, \
         \"bound_ms\": {GATE_P99_MS:.0}, \"pass\": {gate_pass}}}"
    );

    let mut keys = Vec::new();
    let mut speedup_pass = true;
    if let Some((runs, speedup)) = batching {
        speedup_pass = speedup >= SPEEDUP_4T_FLOOR;
        keys.push(("runs", runs));
        keys.push(("speedup_4t_vs_unbatched", format!("{speedup:.2}")));
        keys.push((
            "speedup_4t_gate",
            format!(
                "{{\"floor\": {SPEEDUP_4T_FLOOR}, \"multi_core_expectation\": 2.0, \
                 \"pass\": {speedup_pass}}}"
            ),
        ));
    }
    keys.push(("latency_under_load", curve));
    keys.push(("p99_gate", gate));
    let keys: Vec<(&str, &str)> = keys.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let doc = update_bench_json(&args.out, &keys).expect("write BENCH output");
    println!("{doc}");
    eprintln!(
        "wrote {} (p99 {:.2} ms @ {:.0} QPS, gate {}; batching gate {})",
        args.out,
        gate_p99,
        gate_rate,
        if gate_pass { "pass" } else { "FAIL" },
        if speedup_pass { "pass" } else { "FAIL" }
    );
    if !gate_pass || !speedup_pass {
        std::process::exit(1);
    }
}
