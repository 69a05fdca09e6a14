//! Graceful degradation under load and operator error, and the
//! batching policy that load drives.
//!
//! The engine's two failure contracts, made deterministic with a gated
//! model: queue saturation must surface as a typed
//! [`ServeError::Backpressure`] (no panic, no silent drop — every
//! admitted request is eventually answered), and a snapshot swap that
//! fails validation must be rejected while the previous snapshot keeps
//! serving. The same gate pins natural batching without a clock: what
//! queues behind a busy forward pass becomes the next batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ct_corpus::{BowCorpus, SparseDoc};
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{
    InferenceModel, ModelSnapshot, QueryResponse, Reply, ServeConfig, ServeEngine, ServeError,
};
use ct_tensor::Tensor;

/// A snapshot whose forward pass blocks until the test opens a gate, and
/// whose validation outcome the test controls.
struct GatedModel {
    inner: ModelSnapshot,
    open: Arc<(Mutex<bool>, Condvar)>,
    entered: Arc<AtomicUsize>,
    poisoned: bool,
}

impl GatedModel {
    fn new(inner: ModelSnapshot, poisoned: bool) -> (Self, Arc<(Mutex<bool>, Condvar)>) {
        let open = Arc::new((Mutex::new(false), Condvar::new()));
        let model = Self {
            inner,
            open: Arc::clone(&open),
            entered: Arc::new(AtomicUsize::new(0)),
            poisoned,
        };
        (model, open)
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
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
        if self.poisoned {
            return Err("test poison: beta contains a non-finite value".into());
        }
        self.inner.validate()
    }
}

fn trained_snapshot() -> (BowCorpus, ModelSnapshot) {
    let corpus = cluster_corpus(3, 5, 12);
    let config = TrainConfig {
        num_topics: 3,
        hidden: 12,
        embed_dim: 8,
        epochs: 2,
        batch_size: 12,
        seed: 5,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    (corpus, snapshot)
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
fn saturated_queue_rejects_with_typed_backpressure_and_drops_nothing() {
    const QUEUE: usize = 4;
    let (corpus, snapshot) = trained_snapshot();
    let (gated, gate) = GatedModel::new(snapshot, false);
    let entered = Arc::clone(&gated.entered);
    let config = ServeConfig {
        max_batch: 1, // one request in flight, the rest queue up
        queue_capacity: QUEUE,
        cache_capacity: 0,
        infer_threads: Some(1),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(gated, config);

    // One request enters the (gated, blocked) forward pass...
    let blocked_in_infer = {
        let handle = engine.handle();
        let doc = corpus.docs[0].clone();
        std::thread::spawn(move || handle.query(&doc).expect("gated query"))
    };
    assert!(
        wait_until(Duration::from_secs(10), || entered.load(Ordering::SeqCst)
            == 1),
        "batcher never reached the forward pass"
    );

    // ...then QUEUE more fill the bounded channel behind it. Admission
    // can race with the probes below, so these clients do what a real
    // client does on Backpressure: back off and retry.
    let queued: Vec<_> = (0..QUEUE)
        .map(|i| {
            let handle = engine.handle();
            let doc = corpus.docs[i + 1].clone();
            std::thread::spawn(move || loop {
                match handle.query(&doc) {
                    Ok(outcome) => return outcome,
                    Err(ServeError::Backpressure { .. }) => {
                        std::thread::sleep(Duration::from_millis(1))
                    }
                    Err(other) => panic!("queued client hit {other:?}"),
                }
            })
        })
        .collect();

    // With the batcher blocked, the queue must eventually report full —
    // as a typed error on a fresh request, not a panic or a hang. A probe
    // that races into a still-free slot blocks until the gate opens, so
    // each probe runs on its own thread and is drained at the end.
    let mut probes = Vec::new();
    let saw_backpressure = wait_until(Duration::from_secs(10), || {
        if engine.stats().rejected >= 1 {
            return true;
        }
        let handle = engine.handle();
        let probe = corpus.docs[QUEUE + 1].clone();
        probes.push(std::thread::spawn(move || handle.query(&probe)));
        false
    });
    assert!(saw_backpressure, "full queue never surfaced Backpressure");

    // Opening the gate drains everything that was admitted: no request
    // is silently dropped, every client gets its answer.
    open_gate(&gate);
    let first = blocked_in_infer.join().expect("blocked client");
    assert_eq!(first.response.theta.len(), 3);
    for client in queued {
        let outcome = client.join().expect("queued client");
        assert_eq!(outcome.response.theta.len(), 3);
    }
    // Probes either bounced with Backpressure or were admitted and must
    // now be answered too — nothing hangs, nothing vanishes.
    for probe in probes {
        match probe.join().expect("probe thread") {
            Ok(outcome) => assert_eq!(outcome.response.theta.len(), 3),
            Err(ServeError::Backpressure { capacity }) => assert_eq!(capacity, QUEUE),
            Err(other) => panic!("unexpected probe error: {other:?}"),
        }
    }
    let stats = engine.stats();
    assert!(stats.rejected >= 1);
    assert!(
        stats.served >= (QUEUE + 1) as u64,
        "admitted requests must all be served, got {stats:?}"
    );
    engine.shutdown();
}

#[test]
fn poisoned_swap_is_rejected_and_previous_snapshot_keeps_serving() {
    let (corpus, snapshot) = trained_snapshot();
    let (good, gate) = GatedModel::new(snapshot.clone(), false);
    open_gate(&gate); // never block in this test
    let engine = ServeEngine::start(good, ServeConfig::default());
    let handle = engine.handle();

    let before = handle.query(&corpus.docs[0]).expect("query before swap");

    let (poisoned, _) = GatedModel::new(snapshot.clone(), true);
    let err = engine.swap_snapshot(poisoned).expect_err("poisoned swap");
    assert!(matches!(err, ServeError::InvalidSnapshot(_)), "{err:?}");

    // Same generation, same cache: the previous snapshot still answers.
    let after = handle
        .query(&corpus.docs[0])
        .expect("query after rejected swap");
    assert!(after.cache_hit, "rejected swap must not clear the cache");
    let same_bits = before
        .response
        .theta
        .iter()
        .zip(&after.response.theta)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same_bits);
    let stats = engine.stats();
    assert_eq!(stats.rejected_swaps, 1);
    assert_eq!(stats.swaps, 0);
    assert_eq!(stats.generation, 0);

    // A valid swap is accepted: generation bumps and the cache resets.
    let (replacement, gate2) = GatedModel::new(snapshot, false);
    open_gate(&gate2);
    engine.swap_snapshot(replacement).expect("valid swap");
    let stats = engine.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.generation, 1);
    let fresh = handle.query(&corpus.docs[0]).expect("query after swap");
    assert!(!fresh.cache_hit, "swap must invalidate cached responses");

    drop(handle);
    engine.shutdown();
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn requests_queued_behind_a_forward_pass_form_the_next_batch() {
    const QUEUED: usize = 5;
    let (corpus, snapshot) = trained_snapshot();
    let docs = &corpus.docs[..=QUEUED];
    let offline: Vec<Vec<u32>> = docs
        .iter()
        .map(|doc| bits(snapshot.infer_theta(&snapshot.dense_batch(&[doc])).row(0)))
        .collect();
    let (gated, gate) = GatedModel::new(snapshot, false);
    let entered = Arc::clone(&gated.entered);
    let config = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(gated, config);
    let handle = engine.handle();
    let (tx, rx) = mpsc::channel();
    let submit = |i: usize| {
        let tx = tx.clone();
        let reply = Reply::new(move |result| {
            let _ = tx.send((i, result));
        });
        handle.submit(docs[i].clone(), reply);
    };

    // The first document holds the batcher inside its forward pass...
    submit(0);
    assert!(
        wait_until(Duration::from_secs(10), || entered.load(Ordering::SeqCst)
            == 1),
        "batcher never reached the forward pass"
    );
    // ...while the rest queue behind it; submitting never blocks.
    for i in 1..=QUEUED {
        submit(i);
    }
    open_gate(&gate);

    let mut answered = vec![None; docs.len()];
    for _ in 0..docs.len() {
        let (i, result) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every submitted request is answered");
        answered[i] = Some(result.expect("served"));
    }
    for (i, outcome) in answered.into_iter().enumerate() {
        let outcome = outcome.expect("answered once");
        assert_eq!(
            bits(&outcome.response.theta),
            offline[i],
            "doc {i} diverged from offline inference"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.batches, 2, "{stats:?}");
    assert_eq!(stats.max_batch_size, QUEUED as u64, "{stats:?}");
    drop(handle);
    engine.shutdown();
}
