//! The micro-batching inference engine.
//!
//! Clients call [`ServeHandle::submit`] with a one-shot [`Reply`];
//! requests land in a *bounded* MPSC queue and a single batcher thread
//! drains them into batched forward passes on the persistent
//! `ct_tensor::pool` workers. The batcher blocks for the first request,
//! then takes whatever else is already queued, up to
//! [`ServeConfig::max_batch`] documents, and runs the batch at once
//! (natural batching): it never waits on a clock for stragglers, so a
//! lone request goes straight to the forward pass and batches grow only
//! as load grows. The batcher runs each request's [`Reply`] itself;
//! [`ServeHandle::query`] is `submit` plus a wait on a channel.
//!
//! Degradation is graceful and typed: a full queue rejects the request
//! with [`ServeError::Backpressure`] *before* enqueueing (the client
//! never blocks on admission), a reply that is dropped unrun (its batcher
//! panicked or was torn down) answers [`ServeError::Closed`], and a
//! snapshot swap that fails validation is rejected with
//! [`ServeError::InvalidSnapshot`] while the previous snapshot keeps
//! serving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ct_corpus::SparseDoc;
use ct_models::{TraceEvent, TraceSink};
use ct_tensor::pool;
use ct_tensor::Tensor;

use crate::error::ServeError;
use crate::lru::{bow_key, LruCache};
use crate::snapshot::{ModelSnapshot, QueryResponse};

/// What the engine needs from a model to serve it.
///
/// [`ModelSnapshot`] is the production implementation; tests substitute
/// wrappers (e.g. a gate that blocks `infer_theta`) to make concurrency
/// scenarios deterministic.
pub trait InferenceModel: Send + Sync + 'static {
    /// Vocabulary size the model expects.
    fn vocab_size(&self) -> usize;
    /// Number of topics in the mixture.
    fn num_topics(&self) -> usize;
    /// Reject documents this model cannot infer (empty / out-of-vocab).
    fn check_doc(&self, doc: &SparseDoc) -> Result<(), ServeError>;
    /// Materialize sparse documents as a dense `(docs, vocab)` batch.
    fn dense_batch(&self, docs: &[&SparseDoc]) -> Tensor;
    /// Amortized θ for a dense batch of raw counts.
    fn infer_theta(&self, x: &Tensor) -> Tensor;
    /// Assemble the response for one θ row.
    fn build_response(&self, theta: Vec<f32>, top_n: usize) -> QueryResponse;
    /// Pre-swap validation; an `Err` poisons the candidate snapshot.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

impl InferenceModel for ModelSnapshot {
    fn vocab_size(&self) -> usize {
        ModelSnapshot::vocab_size(self)
    }
    fn num_topics(&self) -> usize {
        ModelSnapshot::num_topics(self)
    }
    fn check_doc(&self, doc: &SparseDoc) -> Result<(), ServeError> {
        ModelSnapshot::check_doc(self, doc)
    }
    fn dense_batch(&self, docs: &[&SparseDoc]) -> Tensor {
        ModelSnapshot::dense_batch(self, docs)
    }
    fn infer_theta(&self, x: &Tensor) -> Tensor {
        ModelSnapshot::infer_theta(self, x)
    }
    fn build_response(&self, theta: Vec<f32>, top_n: usize) -> QueryResponse {
        ModelSnapshot::build_response(self, theta, top_n)
    }
    fn validate(&self) -> Result<(), String> {
        ModelSnapshot::validate(self)
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest batch one forward pass may carry.
    pub max_batch: usize,
    /// Bound of the request queue; a full queue means
    /// [`ServeError::Backpressure`].
    pub queue_capacity: usize,
    /// LRU response-cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Worker threads for the batched forward pass; `None` uses the
    /// pool's ambient configuration. Results are bitwise identical for
    /// any value (the pool partitions work into disjoint output slabs).
    pub infer_threads: Option<usize>,
    /// Topics returned per response (`theta` is always full-length).
    pub top_n: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            queue_capacity: 256,
            cache_capacity: 1024,
            infer_threads: None,
            top_n: 5,
        }
    }
}

/// Shared trace sink type for serving observability (the same
/// [`TraceSink`] implementations used by training telemetry).
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Live counters, readable at any time via [`ServeEngine::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered by a forward pass.
    pub served: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Requests rejected with [`ServeError::Backpressure`].
    pub rejected: u64,
    /// Largest micro-batch observed.
    pub max_batch_size: u64,
    /// Snapshot swaps accepted.
    pub swaps: u64,
    /// Snapshot swaps rejected by validation.
    pub rejected_swaps: u64,
    /// Current snapshot generation (starts at 0, +1 per accepted swap).
    pub generation: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    rejected: AtomicU64,
    max_batch_size: AtomicU64,
    swaps: AtomicU64,
    rejected_swaps: AtomicU64,
}

struct Shared<M> {
    model: Mutex<Arc<M>>,
    generation: AtomicU64,
    cache: Mutex<LruCache<Cached>>,
    counters: Counters,
    config: ServeConfig,
    trace: Option<SharedSink>,
}

/// A cached response together with the document it answers: the 64-bit
/// [`bow_key`] can collide, so a hit must also match the document.
struct Cached {
    doc: SparseDoc,
    response: Arc<QueryResponse>,
}

struct Request {
    doc: SparseDoc,
    key: u64,
    generation: u64,
    enqueued: Instant,
    reply: Reply,
}

/// A one-shot completion: receives a submitted query's outcome exactly
/// once, on whichever thread produced it (the caller's own thread for a
/// cache hit or an immediate rejection, the batcher thread otherwise).
///
/// A reply that is dropped without being run answers
/// [`ServeError::Closed`], so a batcher that panicked or was torn down
/// with requests in hand can never leave a caller waiting.
pub struct Reply(Option<Box<dyn FnOnce(QueryResult) + Send>>);

/// What a [`Reply`] receives.
pub type QueryResult = Result<QueryOutcome, ServeError>;

impl Reply {
    /// Wrap `done` as a reply.
    pub fn new(done: impl FnOnce(QueryResult) + Send + 'static) -> Self {
        Self(Some(Box::new(done)))
    }

    /// Deliver `result`, consuming the reply.
    pub fn run(mut self, result: QueryResult) {
        if let Some(done) = self.0.take() {
            done(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(done) = self.0.take() {
            done(Err(ServeError::Closed));
        }
    }
}

/// Hand a fresh [`Reply`] to `submit` and block until it runs: the one
/// blocking wait behind [`ServeHandle::query`] and
/// [`Router::answer`](crate::Router::answer).
pub(crate) fn wait_for(submit: impl FnOnce(Reply)) -> QueryResult {
    let (tx, rx) = mpsc::sync_channel(1);
    submit(Reply::new(move |result| {
        let _ = tx.send(result);
    }));
    rx.recv().unwrap_or(Err(ServeError::Closed))
}

/// A served query's result: the (possibly shared) response plus whether
/// it came from the cache.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The response; cached responses are shared between callers.
    pub response: Arc<QueryResponse>,
    /// `true` when answered from the LRU cache without a forward pass.
    pub cache_hit: bool,
}

/// The batched inference engine. Construct with [`ServeEngine::start`],
/// hand out [`ServeHandle`]s to clients, and keep the engine alive for
/// the lifetime of the service.
pub struct ServeEngine<M: InferenceModel = ModelSnapshot> {
    shared: Arc<Shared<M>>,
    tx: Option<SyncSender<Request>>,
    batcher: Option<JoinHandle<()>>,
}

/// Cloneable, thread-safe client handle onto a [`ServeEngine`].
pub struct ServeHandle<M: InferenceModel = ModelSnapshot> {
    tx: SyncSender<Request>,
    shared: Arc<Shared<M>>,
}

impl<M: InferenceModel> Clone for ServeHandle<M> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: InferenceModel> ServeEngine<M> {
    /// Start the engine around an initial model snapshot.
    pub fn start(model: M, config: ServeConfig) -> Self {
        Self::start_traced(model, config, None)
    }

    /// [`ServeEngine::start`] with per-batch [`TraceEvent::ServeBatch`]
    /// events routed to `trace`.
    pub fn start_traced(model: M, config: ServeConfig, trace: Option<SharedSink>) -> Self {
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            model: Mutex::new(Arc::new(model)),
            generation: AtomicU64::new(0),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            counters: Counters::default(),
            config,
            trace,
        });
        let worker_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("ct-serve-batcher".into())
            .spawn(move || batcher_loop(rx, worker_shared))
            .expect("spawn batcher thread");
        Self {
            shared,
            tx: Some(tx),
            batcher: Some(batcher),
        }
    }

    /// A new client handle. Handles are cheap to clone and safe to use
    /// from any thread.
    pub fn handle(&self) -> ServeHandle<M> {
        ServeHandle {
            tx: self.tx.as_ref().expect("engine running").clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Replace the serving snapshot.
    ///
    /// The candidate is validated first; on failure the engine keeps
    /// serving the previous snapshot and returns
    /// [`ServeError::InvalidSnapshot`]. On success the generation bumps
    /// and the response cache is cleared, so no stale answer can outlive
    /// the model that produced it. In-flight batches finish against
    /// whichever snapshot they already hold.
    pub fn swap_snapshot(&self, model: M) -> Result<(), ServeError> {
        if let Err(reason) = model.validate() {
            self.shared
                .counters
                .rejected_swaps
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::InvalidSnapshot(reason));
        }
        let next = Arc::new(model);
        {
            let mut current = self.shared.model.lock().unwrap();
            *current = next;
        }
        self.shared.generation.fetch_add(1, Ordering::Release);
        self.shared.cache.lock().unwrap().clear();
        self.shared.counters.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            served: c.served.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            max_batch_size: c.max_batch_size.load(Ordering::Relaxed),
            swaps: c.swaps.load(Ordering::Relaxed),
            rejected_swaps: c.rejected_swaps.load(Ordering::Relaxed),
            generation: self.shared.generation.load(Ordering::Acquire),
        }
    }

    /// Stop accepting requests and wait for the batcher to drain.
    ///
    /// Blocks until every outstanding [`ServeHandle`] has been dropped
    /// (each holds a sender that keeps the queue open).
    pub fn shutdown(mut self) {
        self.tx.take();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl<M: InferenceModel> Drop for ServeEngine<M> {
    fn drop(&mut self) {
        // Close our sender; the batcher exits once all handles are gone.
        // Dropping the JoinHandle detaches rather than blocking here.
        self.tx.take();
        self.batcher.take();
    }
}

impl<M: InferenceModel> ServeHandle<M> {
    /// Infer the topic mixture for one document, delivering the outcome
    /// to `reply`. Never blocks.
    ///
    /// Checks the document against the current snapshot and consults the
    /// LRU cache; a rejection or a cache hit runs `reply` before this
    /// returns. Otherwise the request joins the next micro-batch and the
    /// batcher thread runs `reply` once its forward pass is done. A full
    /// queue answers [`ServeError::Backpressure`] without enqueueing.
    pub fn submit(&self, doc: SparseDoc, reply: Reply) {
        let checked = self.shared.model.lock().unwrap().check_doc(&doc);
        if let Err(e) = checked {
            return reply.run(Err(e));
        }
        let generation = self.shared.generation.load(Ordering::Acquire);
        let key = bow_key(generation, &doc);
        if self.shared.config.cache_capacity > 0 {
            let hit = self
                .shared
                .cache
                .lock()
                .unwrap()
                .get(key)
                .filter(|hit| hit.doc == doc)
                .map(|hit| Arc::clone(&hit.response));
            if let Some(response) = hit {
                self.shared
                    .counters
                    .cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                return reply.run(Ok(QueryOutcome {
                    response,
                    cache_hit: true,
                }));
            }
        }
        let request = Request {
            doc,
            key,
            generation,
            enqueued: Instant::now(),
            reply,
        };
        match self.tx.try_send(request) {
            Ok(()) => {}
            Err(TrySendError::Full(request)) => {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                request.reply.run(Err(ServeError::Backpressure {
                    capacity: self.shared.config.queue_capacity,
                }));
            }
            Err(TrySendError::Disconnected(request)) => request.reply.run(Err(ServeError::Closed)),
        }
    }

    /// [`ServeHandle::submit`], blocking until the response is ready.
    pub fn query(&self, doc: &SparseDoc) -> Result<QueryOutcome, ServeError> {
        wait_for(|reply| self.submit(doc.clone(), reply))
    }

    /// Number of topics of the currently served snapshot.
    pub fn num_topics(&self) -> usize {
        self.shared.model.lock().unwrap().num_topics()
    }

    /// Vocabulary size of the currently served snapshot.
    pub fn vocab_size(&self) -> usize {
        self.shared.model.lock().unwrap().vocab_size()
    }
}

fn batcher_loop<M: InferenceModel>(rx: Receiver<Request>, shared: Arc<Shared<M>>) {
    let max_batch = shared.config.max_batch.max(1);
    // Block for the first request, then take only what is already
    // queued: under load batches fill at once, and a lone request never
    // waits for company.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(request) => batch.push(request),
                Err(_) => break,
            }
        }
        serve_batch(&shared, batch);
    }
}

fn serve_batch<M: InferenceModel>(shared: &Shared<M>, batch: Vec<Request>) {
    let model = Arc::clone(&shared.model.lock().unwrap());
    let current_generation = shared.generation.load(Ordering::Acquire);
    // A swap may have landed between admission and now; requests the new
    // snapshot cannot serve get a typed error instead of a wrong answer.
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for request in batch {
        match model.check_doc(&request.doc) {
            Ok(()) => live.push(request),
            Err(e) => request.reply.run(Err(e)),
        }
    }
    if live.is_empty() {
        return;
    }
    let queue_ns = live
        .iter()
        .map(|r| r.enqueued.elapsed().as_nanos() as u64)
        .max()
        .unwrap_or(0);
    let docs: Vec<&SparseDoc> = live.iter().map(|r| &r.doc).collect();
    let x = model.dense_batch(&docs);
    let infer_start = Instant::now();
    let theta = match shared.config.infer_threads {
        Some(n) => pool::with_threads(n, || model.infer_theta(&x)),
        None => model.infer_theta(&x),
    };
    let infer_ns = infer_start.elapsed().as_nanos() as u64;
    let size = live.len();
    // Counters update before the replies go out, so a client that has
    // received its answer always observes itself in `ServeStats::served`.
    let counters = &shared.counters;
    counters.served.fetch_add(size as u64, Ordering::Relaxed);
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .max_batch_size
        .fetch_max(size as u64, Ordering::Relaxed);
    for (row, request) in live.into_iter().enumerate() {
        let response = Arc::new(model.build_response(theta.row(row).to_vec(), shared.config.top_n));
        if shared.config.cache_capacity > 0 && request.generation == current_generation {
            let cached = Cached {
                doc: request.doc,
                response: Arc::clone(&response),
            };
            shared.cache.lock().unwrap().insert(request.key, cached);
        }
        request.reply.run(Ok(QueryOutcome {
            response,
            cache_hit: false,
        }));
    }
    if let Some(sink) = &shared.trace {
        let mut sink = sink.lock().unwrap();
        if sink.enabled() {
            sink.record(&TraceEvent::ServeBatch {
                size,
                queue_ns,
                infer_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::DocEncoder;
    use ct_models::testutil::{cluster_corpus, cluster_embeddings};
    use ct_models::{fit_etm, TrainConfig};

    #[test]
    fn colliding_cache_key_is_a_miss_not_another_documents_answer() {
        let corpus = cluster_corpus(3, 5, 12);
        let config = TrainConfig {
            num_topics: 3,
            hidden: 12,
            embed_dim: 8,
            epochs: 1,
            batch_size: 12,
            seed: 5,
            ..TrainConfig::default()
        };
        let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
        let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).unwrap();
        let encoder = DocEncoder::new(corpus.vocab.clone());
        let doc_a = encoder.encode("w0 w1 w2 w0").unwrap();
        let doc_b = encoder.encode("w5 w6").unwrap();
        let offline = |doc: &SparseDoc| {
            let theta = snapshot.infer_theta(&snapshot.dense_batch(&[doc]));
            snapshot.build_response(theta.row(0).to_vec(), ServeConfig::default().top_n)
        };
        let expected_a = offline(&doc_a).to_json();
        let response_b = offline(&doc_b);
        assert_ne!(
            expected_a,
            response_b.to_json(),
            "fixture documents must differ"
        );

        let engine = ServeEngine::start(snapshot.clone(), ServeConfig::default());
        // Plant B's answer under A's key, as a 64-bit hash collision would.
        let planted = Cached {
            doc: doc_b,
            response: Arc::new(response_b),
        };
        engine
            .shared
            .cache
            .lock()
            .unwrap()
            .insert(bow_key(0, &doc_a), planted);

        let outcome = engine.handle().query(&doc_a).unwrap();
        assert!(
            !outcome.cache_hit,
            "a colliding key must not count as a hit"
        );
        assert_eq!(outcome.response.to_json(), expected_a);
        assert_eq!(engine.stats().cache_hits, 0);
        // A's own answer replaced the planted entry, so A now hits.
        assert!(engine.handle().query(&doc_a).unwrap().cache_hit);
        engine.shutdown();
    }
}
