//! # ct-serve
//!
//! Embedded batched topic-inference engine for trained ContraTopic
//! models: load a saved bundle into an immutable [`ModelSnapshot`], hand
//! out thread-safe [`ServeHandle`]s, and let the engine micro-batch
//! concurrent doc→topic queries onto the persistent `ct_tensor::pool`
//! workers.
//!
//! The moving parts, front to back:
//!
//! - [`DocEncoder`] — raw text → sparse bag-of-words over the model
//!   vocabulary (same tokenizer as training);
//! - [`ServeHandle::query`] — admission (typed
//!   [`ServeError::Backpressure`] when the bounded queue is full), LRU
//!   cache lookup, and a blocking wait for the batched answer;
//! - [`ServeEngine`] — the batcher thread, max-batch/max-wait policy,
//!   validated snapshot swaps, live [`ServeStats`];
//! - [`ModelSnapshot`] — precomputed `beta`, top-k words, exported
//!   encoder weights; served θ is **bitwise identical** to the offline
//!   `Backbone::infer_theta_batch` path for any thread count;
//! - [`ModelRegistry`] — many named snapshots (per-tenant models or
//!   presets), each behind its own engine with its own generation
//!   counter and hot promotion, plus fair-share admission control over a
//!   global in-flight budget;
//! - `TcpServer` / `UnixServer` (Linux only) — two listeners over one
//!   epoll reactor that multiplexes every connection onto O(cores)
//!   threads, speaking the line-oriented wire protocol of [`net`]
//!   (bounded framing, `@model` routing, typed errors) with
//!   drain-with-deadline shutdown; used by `contratopic serve` and the
//!   `load_gen` open-loop benchmark driver. The clients ([`TcpClient`],
//!   [`query_tcp`], `query_unix`) build on any platform.
//!
//! ## Serving a trained model in-process
//!
//! ```rust
//! use ct_models::{fit_etm, TrainConfig};
//! use ct_models::testutil::{cluster_corpus, cluster_embeddings};
//! use ct_serve::{DocEncoder, ModelSnapshot, ServeConfig, ServeEngine};
//!
//! // A tiny trained model (in production: ModelSnapshot::load("prefix", 10)
//! // on a bundle written by `contratopic train --out prefix`).
//! let corpus = cluster_corpus(3, 5, 12);
//! let config = TrainConfig {
//!     num_topics: 3,
//!     hidden: 16,
//!     embed_dim: 8,
//!     epochs: 2,
//!     batch_size: 12,
//!     ..TrainConfig::default()
//! };
//! let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
//! let vocab = corpus.vocab.clone();
//! let snapshot = ModelSnapshot::from_model(&model, vocab.clone(), 5).unwrap();
//!
//! let engine = ServeEngine::start(snapshot, ServeConfig::default());
//! let handle = engine.handle();
//!
//! let doc = DocEncoder::new(vocab).encode("w0 w1 w2 w0").unwrap();
//! let outcome = handle.query(&doc).unwrap();
//! assert_eq!(outcome.response.theta.len(), 3);
//! assert!((outcome.response.theta.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! assert!(!outcome.response.top.is_empty());
//!
//! // The same query again is answered from the LRU cache.
//! assert!(handle.query(&doc).unwrap().cache_hit);
//!
//! drop(handle);
//! engine.shutdown();
//! ```
//!
//! ## Degradation is typed, never silent
//!
//! ```rust
//! use ct_corpus::SparseDoc;
//! use ct_serve::ServeError;
//! # use ct_models::{fit_etm, TrainConfig};
//! # use ct_models::testutil::{cluster_corpus, cluster_embeddings};
//! # use ct_serve::{ModelSnapshot, ServeConfig, ServeEngine};
//! # let corpus = cluster_corpus(2, 4, 8);
//! # let config = TrainConfig { num_topics: 2, hidden: 8, embed_dim: 4,
//! #     epochs: 1, batch_size: 8, ..TrainConfig::default() };
//! # let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
//! # let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 4).unwrap();
//! # let engine = ServeEngine::start(snapshot, ServeConfig::default());
//! # let handle = engine.handle();
//! // Out-of-vocabulary ids and empty docs are rejected up front...
//! let err = handle.query(&SparseDoc::from_tokens(&[9999])).unwrap_err();
//! assert!(matches!(err, ServeError::VocabMismatch { .. }));
//! assert_eq!(
//!     handle.query(&SparseDoc::default()).unwrap_err(),
//!     ServeError::EmptyDocument,
//! );
//! // ...and a full request queue fails fast with ServeError::Backpressure
//! // instead of blocking or dropping (exercised in tests/backpressure.rs).
//! # drop(handle);
//! # engine.shutdown();
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod engine;
pub mod error;
pub mod lru;
pub mod net;
#[cfg(target_os = "linux")]
mod reactor;
pub mod registry;
#[cfg(target_os = "linux")]
pub mod server;
pub mod snapshot;

pub use encode::DocEncoder;
pub use engine::{
    InferenceModel, QueryOutcome, ServeConfig, ServeEngine, ServeHandle, ServeStats, SharedSink,
};
pub use error::ServeError;
#[cfg(unix)]
pub use net::query_unix;
pub use net::{
    query_tcp, Frame, LineAssembler, ProtocolLimits, Router, Shutdown, ShutdownReport, SingleModel,
    TcpClient,
};
pub use registry::{ModelRegistry, RegistryConfig};
#[cfg(target_os = "linux")]
pub use server::{TcpServer, UnixServer};
pub use snapshot::{ModelSnapshot, QueryResponse, TopicHit};
