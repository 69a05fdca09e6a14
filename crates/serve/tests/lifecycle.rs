//! Serving-tier lifecycle contracts, end to end over real sockets:
//! socket-family equivalence (TCP == Unix == offline, bitwise), registry
//! routing under concurrency, hot promotion that drops nothing,
//! drain-on-shutdown, fair-share admission, and the completion contracts
//! (a panicked batcher answers `closed`; an admission permit is held
//! until its request completes, whatever the outcome or the client).

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ct_corpus::{BowCorpus, SparseDoc};
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{
    query_tcp, query_unix, DocEncoder, InferenceModel, ModelRegistry, ModelSnapshot,
    ProtocolLimits, QueryResponse, RegistryConfig, Router, ServeConfig, ServeEngine, ServeError,
    TcpClient, TcpServer, UnixServer,
};
use ct_tensor::Tensor;

fn trained_with(clusters: usize, seed: u64) -> (BowCorpus, ModelSnapshot) {
    let corpus = cluster_corpus(clusters, 5, 12);
    let config = TrainConfig {
        num_topics: clusters,
        hidden: 12,
        embed_dim: 8,
        epochs: 2,
        batch_size: 12,
        seed,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    (corpus, snapshot)
}

/// The exact JSON line the engine must produce for `text`: encode with
/// the same tokenizer, run the snapshot's own forward pass on a
/// single-document batch, and render through the same serializer. The
/// bitwise-determinism contract says batch composition cannot change
/// θ, so this one string is *the* answer over every socket.
fn offline_response(snapshot: &ModelSnapshot, vocab: &ct_corpus::Vocab, text: &str) -> String {
    let doc = DocEncoder::new(vocab.clone()).encode(text).expect("encode");
    let x = snapshot.dense_batch(&[&doc]);
    let theta = snapshot.infer_theta(&x);
    snapshot
        .build_response(theta.row(0).to_vec(), ServeConfig::default().top_n)
        .to_json()
}

fn registry_server(registry: Arc<ModelRegistry>) -> (TcpServer, String) {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        registry as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn tcp_unix_and_offline_paths_serve_identical_bytes() {
    let (corpus, snapshot) = trained_with(3, 5);
    let texts = ["w0 w1 w2 w0", "w5 w6", "w10 w11 w12 w13 w14"];
    let expected: Vec<String> = texts
        .iter()
        .map(|t| offline_response(&snapshot, &corpus.vocab, t))
        .collect();

    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.register_snapshot("m", snapshot).expect("register");
    let (server, addr) = registry_server(Arc::clone(&registry));

    let over_tcp = query_tcp(&addr, &texts).expect("tcp");
    assert_eq!(over_tcp, expected, "TCP responses must match offline bytes");

    let path = std::env::temp_dir().join(format!("ct-lifecycle-eq-{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    let unix = UnixServer::bind_router(
        &path,
        Arc::clone(&registry) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind unix");
    let over_unix = query_unix(&path, &texts).expect("unix");
    assert_eq!(
        over_unix, expected,
        "Unix responses must match offline bytes"
    );
    unix.shutdown(Duration::from_secs(5));

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    match Arc::try_unwrap(registry) {
        Ok(r) => r.shutdown(),
        Err(_) => panic!("registry still shared after server shutdown"),
    }
}

#[test]
fn registry_routes_concurrent_clients_to_differently_shaped_models() {
    // Two tenants with *different vocabularies and topic counts*: any
    // cross-routing produces either a vocab error or a wrong-length θ,
    // so exact-bytes assertions catch it.
    let (corpus_a, snap_a) = trained_with(3, 5);
    let (corpus_b, snap_b) = trained_with(4, 9);
    let text_a = "w0 w1 w2 w0";
    let text_b = "w0 w1 w2 w17 w18"; // w17/w18 only exist in B's vocab
    let expect_a = offline_response(&snap_a, &corpus_a.vocab, text_a);
    let expect_b = offline_response(&snap_b, &corpus_b.vocab, text_b);
    assert_ne!(expect_a, expect_b);

    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry
        .register_snapshot("alpha", snap_a)
        .expect("register alpha");
    registry
        .register_snapshot("beta", snap_b)
        .expect("register beta");
    let (server, addr) = registry_server(Arc::clone(&registry));

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let (expect_a, expect_b) = (expect_a.clone(), expect_b.clone());
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(&addr).expect("connect");
                for i in 0..25 {
                    // Interleave tenants on one connection, offset per client.
                    if (i + c) % 2 == 0 {
                        let line = client.query_line(&format!("@alpha {text_a}")).expect("a");
                        assert_eq!(line, expect_a, "client {c} iter {i}");
                    } else {
                        let line = client.query_line(&format!("@beta {text_b}")).expect("b");
                        assert_eq!(line, expect_b, "client {c} iter {i}");
                    }
                }
                // B-only vocabulary against A is a typed error, not a
                // panic: A's encoder drops the unknown words, leaving an
                // empty document.
                let cross = client.query_line("@alpha w17 w18").expect("cross");
                assert!(cross.contains("\"error\":\"empty_document\""), "{cross}");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client");
    }

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}

#[test]
fn hot_promotion_mid_traffic_drops_nothing_and_serves_old_or_new_exactly() {
    let (corpus, snap_old) = trained_with(3, 5);
    let (_, snap_new) = trained_with(3, 21); // same vocab/shape, different weights
    let text = "w0 w1 w2 w5 w6";
    let expect_old = offline_response(&snap_old, &corpus.vocab, text);
    let expect_new = offline_response(&snap_new, &corpus.vocab, text);
    assert_ne!(expect_old, expect_new, "fixture models must differ");

    // Cache off so promotion visibility isn't masked by memoization.
    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig {
        serve: ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
        ..RegistryConfig::default()
    }));
    registry.register_snapshot("m", snap_old).expect("register");
    let gen_before = registry.stats("m").expect("stats").generation;
    let (server, addr) = registry_server(Arc::clone(&registry));

    let stop = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let (expect_old, expect_new) = (expect_old.clone(), expect_new.clone());
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(&addr).expect("connect");
                let mut seen_new = 0usize;
                let mut answered = 0usize;
                while stop.load(Ordering::Relaxed) == 0 || seen_new < 3 {
                    let line = client.query_line(text).expect("query during promotion");
                    // Every response is exactly the old or the new model's
                    // bytes — never an error, never a hybrid.
                    if line == expect_new {
                        seen_new += 1;
                    } else {
                        assert_eq!(line, expect_old, "response is neither old nor new");
                    }
                    answered += 1;
                }
                (answered, seen_new)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    let gen_after = registry.promote("m", snap_new).expect("promote");
    assert!(gen_after > gen_before);
    stop.store(1, Ordering::Relaxed);

    let mut total = 0usize;
    for c in clients {
        let (answered, seen_new) = c.join().expect("client");
        assert!(answered > 0);
        assert!(seen_new >= 3, "client never observed the promoted model");
        total += answered;
    }
    let stats = registry.stats("m").expect("stats");
    assert!(stats.served >= total as u64, "engine lost requests");

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}

/// A snapshot whose forward pass blocks until the test opens a gate
/// (same pattern as tests/backpressure.rs, local copy because Rust
/// integration tests are separate crates).
type Gate = Arc<(Mutex<bool>, Condvar)>;

struct GatedModel {
    inner: ModelSnapshot,
    open: Gate,
    entered: Arc<AtomicUsize>,
}

impl GatedModel {
    fn new(inner: ModelSnapshot) -> (Self, Gate, Arc<AtomicUsize>) {
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicUsize::new(0));
        let model = Self {
            inner,
            open: Arc::clone(&open),
            entered: Arc::clone(&entered),
        };
        (model, open, entered)
    }
}

fn open_gate(gate: &Gate) {
    let (lock, cv) = &**gate;
    *lock.lock().unwrap() = true;
    cv.notify_all();
}

impl InferenceModel for GatedModel {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }
    fn num_topics(&self) -> usize {
        self.inner.num_topics()
    }
    fn check_doc(&self, doc: &SparseDoc) -> Result<(), ServeError> {
        self.inner.check_doc(doc)
    }
    fn dense_batch(&self, docs: &[&SparseDoc]) -> Tensor {
        self.inner.dense_batch(docs)
    }
    fn infer_theta(&self, x: &Tensor) -> Tensor {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (lock, cv) = &*self.open;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.infer_theta(x)
    }
    fn build_response(&self, theta: Vec<f32>, top_n: usize) -> QueryResponse {
        self.inner.build_response(theta, top_n)
    }
    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

#[test]
fn shutdown_drains_the_request_in_flight_instead_of_dropping_it() {
    let (corpus, snapshot) = trained_with(3, 5);
    let (gated, gate, entered) = GatedModel::new(snapshot);
    let registry: Arc<ModelRegistry<GatedModel>> =
        Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry
        .register("m", gated, DocEncoder::new(corpus.vocab.clone()))
        .expect("register");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // One request enters the (gated) forward pass and blocks there.
    let client = std::thread::spawn(move || {
        let mut client = TcpClient::connect(&addr).expect("connect");
        client.query_line("w0 w1 w2").expect("in-flight query")
    });
    assert!(
        wait_until(Duration::from_secs(10), || entered.load(Ordering::SeqCst)
            >= 1),
        "query never reached the forward pass"
    );

    // Shutdown starts while the request is mid-inference...
    let shutdown = std::thread::spawn(move || server.shutdown(Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(50));
    // ...the gate opens, and the drain must deliver the response.
    open_gate(&gate);
    let report = shutdown.join().expect("shutdown thread");
    assert_eq!(
        report.connections_aborted, 0,
        "in-flight connection was force-closed instead of drained"
    );
    assert!(report.connections_drained >= 1);
    let response = client.join().expect("client thread");
    assert!(
        response.starts_with("{\"theta\":["),
        "in-flight request lost its response: {response}"
    );
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}

#[test]
fn fair_share_admission_protects_a_tenant_from_a_noisy_neighbor() {
    const MAX_INFLIGHT: usize = 4; // 2 tenants → guaranteed share of 2
    let (corpus, snapshot) = trained_with(3, 5);
    let (gated_a, _gate_a, _) = GatedModel::new(snapshot.clone());
    let (gated_b, gate_b, _) = GatedModel::new(snapshot);
    open_gate(&gate_b); // tenant B serves immediately
    let registry: Arc<ModelRegistry<GatedModel>> = Arc::new(ModelRegistry::new(RegistryConfig {
        max_inflight: MAX_INFLIGHT,
        ..RegistryConfig::default()
    }));
    registry
        .register("noisy", gated_a, DocEncoder::new(corpus.vocab.clone()))
        .expect("register noisy");
    registry
        .register("quiet", gated_b, DocEncoder::new(corpus.vocab.clone()))
        .expect("register quiet");

    // The noisy tenant fills the whole global budget with blocked queries.
    let doc = DocEncoder::new(corpus.vocab.clone())
        .encode("w0 w1 w2")
        .expect("encode");
    let blocked: Vec<_> = (0..MAX_INFLIGHT)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let doc = doc.clone();
            std::thread::spawn(move || registry.query(Some("noisy"), &doc))
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(10), || registry.inflight()
            == MAX_INFLIGHT),
        "noisy tenant never saturated the budget (inflight {})",
        registry.inflight()
    );

    // Beyond the budget, the noisy tenant is rejected with typed
    // backpressure...
    match registry.query(Some("noisy"), &doc) {
        Err(ServeError::Backpressure { .. }) => {}
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // ...but the quiet tenant's guaranteed share still admits it, even
    // with the global budget exhausted.
    let outcome = registry
        .query(Some("quiet"), &doc)
        .expect("quiet tenant must be admitted within its guaranteed share");
    assert_eq!(outcome.response.theta.len(), 3);

    // Release the noisy tenant and let everything finish.
    open_gate(&_gate_a);
    for b in blocked {
        b.join()
            .expect("blocked query")
            .expect("admitted query must be answered");
    }
    assert!(
        wait_until(Duration::from_secs(10), || registry.inflight() == 0),
        "permits leaked: inflight {} after all queries returned",
        registry.inflight()
    );
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}

/// A snapshot whose forward pass panics, taking its batcher thread down.
struct PanickingModel(ModelSnapshot);

impl InferenceModel for PanickingModel {
    fn vocab_size(&self) -> usize {
        self.0.vocab_size()
    }
    fn num_topics(&self) -> usize {
        self.0.num_topics()
    }
    fn check_doc(&self, doc: &SparseDoc) -> Result<(), ServeError> {
        self.0.check_doc(doc)
    }
    fn dense_batch(&self, docs: &[&SparseDoc]) -> Tensor {
        self.0.dense_batch(docs)
    }
    fn infer_theta(&self, _x: &Tensor) -> Tensor {
        panic!("test: forward pass panicked");
    }
    fn build_response(&self, theta: Vec<f32>, top_n: usize) -> QueryResponse {
        self.0.build_response(theta, top_n)
    }
}

#[test]
fn a_panicked_batcher_answers_closed_instead_of_hanging() {
    let (corpus, snapshot) = trained_with(3, 5);
    let doc = DocEncoder::new(corpus.vocab.clone())
        .encode("w0 w1 w2")
        .expect("encode");

    // In process: the request the batcher held when it panicked, and
    // every request after it, is answered Closed.
    let engine = ServeEngine::start(PanickingModel(snapshot.clone()), ServeConfig::default());
    let handle = engine.handle();
    assert_eq!(handle.query(&doc).unwrap_err(), ServeError::Closed);
    assert_eq!(handle.query(&doc).unwrap_err(), ServeError::Closed);
    drop(handle);
    engine.shutdown();

    // Over TCP: the client gets one typed error line per request (a read
    // timeout turns a hang into a failure), and the connection is not
    // left busy until the drain deadline.
    let registry: Arc<ModelRegistry<PanickingModel>> =
        Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry
        .register(
            "m",
            PanickingModel(snapshot),
            DocEncoder::new(corpus.vocab.clone()),
        )
        .expect("register");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        writer.write_all(b"w0 w1 w2\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("an answer, not a hang");
        assert!(line.starts_with("{\"error\":\"closed\""), "{line}");
    }
    assert_eq!(
        registry.inflight(),
        0,
        "a dropped reply released its permit"
    );
    drop((writer, reader));
    let report = server.shutdown(Duration::from_secs(10));
    assert_eq!(report.connections_aborted, 0);
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}

#[test]
fn admission_permits_ride_with_completions_through_every_outcome() {
    let (corpus, snapshot) = trained_with(3, 5);
    let text = "w0 w1 w2 w5 w6";
    let expected = offline_response(&snapshot, &corpus.vocab, text);
    let (open_model, open, _) = GatedModel::new(snapshot.clone());
    open_gate(&open);
    let (gated, gate, entered) = GatedModel::new(snapshot);
    let registry: Arc<ModelRegistry<GatedModel>> =
        Arc::new(ModelRegistry::new(RegistryConfig::default()));
    for (name, model) in [("open", open_model), ("gated", gated)] {
        registry
            .register(name, model, DocEncoder::new(corpus.vocab.clone()))
            .expect("register");
    }
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // A client sends a request that blocks in the gated batcher, then
    // disconnects without waiting for the answer.
    let mut quitter = TcpStream::connect(&addr).expect("connect");
    quitter.write_all(b"@gated w0 w1 w2\n").expect("send");
    assert!(
        wait_until(Duration::from_secs(10), || entered.load(Ordering::SeqCst)
            >= 1),
        "gated request never reached the forward pass"
    );
    drop(quitter);

    // Mixed traffic: answers, unknown models, empty documents and
    // oversized lines, from concurrent clients.
    let oversized = "w0 ".repeat(30_000);
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let expected = expected.clone();
            let oversized = oversized.clone();
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(&addr).expect("connect");
                for i in 0..8 {
                    let ok = client.query_line(&format!("@open {text}")).expect("ok");
                    assert_eq!(ok, expected, "client {c} iter {i}");
                    let cases = [
                        ("@nope w0 w1", "unknown_model"),
                        ("@open zzz qqq", "empty_document"),
                        (oversized.as_str(), "request_too_large"),
                    ];
                    for (line, kind) in cases {
                        let answer = client.query_line(line).expect("error line");
                        let tag = format!("{{\"error\":\"{kind}\"");
                        assert!(answer.starts_with(&tag), "client {c}: {answer}");
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client");
    }

    // Only the abandoned request still holds a permit: it is released
    // when its reply runs, not when its client goes away.
    assert_eq!(registry.inflight(), 1);
    open_gate(&gate);
    assert!(
        wait_until(Duration::from_secs(10), || registry.inflight() == 0),
        "permits leaked: inflight {}",
        registry.inflight()
    );
    let report = server.shutdown(Duration::from_secs(10));
    assert_eq!(report.connections_aborted, 0);
    if let Ok(r) = Arc::try_unwrap(registry) {
        r.shutdown();
    }
}
