//! Multi-tenant model hosting: named engines, per-model generations,
//! hot promotion, and fair-share admission control.
//!
//! A [`ModelRegistry`] owns one micro-batching
//! [`ServeEngine`] per registered model, so every
//! tenant gets its own bounded request queue, batcher thread, response
//! cache, and generation counter — one tenant's burst can fill only its
//! own queue. On top of that per-queue isolation the registry layers a
//! *global* admission budget shared fairly: each tenant is guaranteed
//! `max_inflight / tenants` in-flight requests, and may exceed its share
//! only while the global budget has spare capacity. Admission failures
//! surface as the existing typed
//! [`ServeError::Backpressure`], so
//! clients need no new retry logic.
//!
//! *Hot promotion* ([`ModelRegistry::promote`]) swaps a named model's
//! snapshot through the engine's validated generation-counted swap:
//! in-flight batches finish on the snapshot they hold, the response
//! cache rolls over with the generation, and a snapshot that fails
//! validation is rejected while the previous one keeps serving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use ct_corpus::SparseDoc;

use crate::encode::DocEncoder;
use crate::engine::{InferenceModel, QueryOutcome, Reply, ServeConfig, ServeEngine, ServeStats};
use crate::error::ServeError;
use crate::net::Router;
use crate::snapshot::ModelSnapshot;

/// Registry-level tuning: the global fair-share admission budget plus
/// the engine configuration applied to newly registered models.
#[derive(Clone)]
pub struct RegistryConfig {
    /// Global in-flight request budget shared across tenants. Each
    /// tenant is guaranteed `max_inflight / tenants` (at least 1)
    /// admissions; beyond its share a tenant is admitted only while the
    /// global budget has spare capacity.
    pub max_inflight: usize,
    /// Engine configuration for models registered without an explicit
    /// per-model override.
    pub serve: ServeConfig,
    /// Trace sink shared by every tenant engine (serve-batch telemetry).
    pub trace: Option<crate::engine::SharedSink>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            max_inflight: 256,
            serve: ServeConfig::default(),
            trace: None,
        }
    }
}

struct Tenant<M: InferenceModel> {
    engine: ServeEngine<M>,
    encoder: DocEncoder,
    inflight: Arc<AtomicUsize>,
}

/// Named collection of serving engines with fair-share admission.
///
/// Generic over the [`InferenceModel`] like the engine itself;
/// production code uses the default [`ModelSnapshot`] (see
/// [`ModelRegistry::register_snapshot`]), tests substitute gated models
/// to make concurrency deterministic.
pub struct ModelRegistry<M: InferenceModel = ModelSnapshot> {
    tenants: RwLock<HashMap<String, Arc<Tenant<M>>>>,
    default_model: RwLock<Option<String>>,
    global_inflight: Arc<AtomicUsize>,
    config: RegistryConfig,
}

/// RAII admission slot: decrements the tenant and global in-flight
/// counters when dropped. It owns its counters, so it can ride inside a
/// [`Reply`] (see [`AdmissionPermit::hold_until`]) and be released
/// whenever and wherever the reply runs or is dropped.
struct AdmissionPermit {
    tenant: Arc<AtomicUsize>,
    global: Arc<AtomicUsize>,
}

impl AdmissionPermit {
    /// A reply that releases this permit, then runs `reply`.
    fn hold_until(self, reply: Reply) -> Reply {
        Reply::new(move |result| {
            drop(self);
            reply.run(result);
        })
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.tenant.fetch_sub(1, Ordering::SeqCst);
        self.global.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<M: InferenceModel> ModelRegistry<M> {
    /// An empty registry. The first registered model becomes the default
    /// route.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            tenants: RwLock::new(HashMap::new()),
            default_model: RwLock::new(None),
            global_inflight: Arc::new(AtomicUsize::new(0)),
            config,
        }
    }

    /// Register `model` under `name` with the registry's default engine
    /// configuration. Fails if the name is taken (use
    /// [`ModelRegistry::promote`] to replace a live model), syntactically
    /// unroutable, or the model fails validation.
    pub fn register(&self, name: &str, model: M, encoder: DocEncoder) -> Result<(), ServeError> {
        self.register_with(name, model, encoder, self.config.serve.clone())
    }

    /// [`ModelRegistry::register`] with a per-model engine configuration.
    pub fn register_with(
        &self,
        name: &str,
        model: M,
        encoder: DocEncoder,
        serve: ServeConfig,
    ) -> Result<(), ServeError> {
        if name.is_empty() || name.contains(char::is_whitespace) || name.starts_with('@') {
            return Err(ServeError::InvalidSnapshot(format!(
                "cannot register model under unroutable name '{name}' \
                 (must be non-empty, without whitespace or a leading '@')"
            )));
        }
        model.validate().map_err(ServeError::InvalidSnapshot)?;
        let mut tenants = self.tenants.write().unwrap();
        if tenants.contains_key(name) {
            return Err(ServeError::InvalidSnapshot(format!(
                "model '{name}' is already registered; use promote to replace it"
            )));
        }
        let engine = ServeEngine::start_traced(model, serve, self.config.trace.clone());
        tenants.insert(
            name.to_string(),
            Arc::new(Tenant {
                engine,
                encoder,
                inflight: Arc::new(AtomicUsize::new(0)),
            }),
        );
        drop(tenants);
        let mut default = self.default_model.write().unwrap();
        if default.is_none() {
            *default = Some(name.to_string());
        }
        Ok(())
    }

    /// Replace `name`'s serving snapshot through the engine's validated
    /// swap and return the new generation. On validation failure the
    /// previous snapshot keeps serving and the generation is unchanged.
    pub fn promote(&self, name: &str, model: M) -> Result<u64, ServeError> {
        let tenant = self.get(name)?;
        tenant.engine.swap_snapshot(model)?;
        Ok(tenant.engine.stats().generation)
    }

    /// The name unprefixed requests route to, if any model is registered.
    pub fn default_model(&self) -> Option<String> {
        self.default_model.read().unwrap().clone()
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live engine counters for `name` (includes the model's current
    /// generation).
    pub fn stats(&self, name: &str) -> Result<ServeStats, ServeError> {
        Ok(self.get(name)?.engine.stats())
    }

    /// Every model's current generation, sorted by name.
    pub fn generations(&self) -> Vec<(String, u64)> {
        let tenants = self.tenants.read().unwrap();
        let mut gens: Vec<(String, u64)> = tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.engine.stats().generation))
            .collect();
        drop(tenants);
        gens.sort();
        gens
    }

    /// Requests currently admitted across all tenants.
    pub fn inflight(&self) -> usize {
        self.global_inflight.load(Ordering::SeqCst)
    }

    /// Query `model` (`None` = the default) with an already-encoded
    /// document, through fair-share admission.
    pub fn query(&self, model: Option<&str>, doc: &SparseDoc) -> Result<QueryOutcome, ServeError> {
        let tenant = self.resolve(model)?;
        let _permit = self.admit(&tenant)?;
        tenant.engine.handle().query(doc)
    }

    /// Drain and stop every tenant engine. Waits for transient per-query
    /// tenant references to clear (bounded), then shuts each engine down;
    /// call after the transport servers have been shut down.
    pub fn shutdown(self) {
        let tenants = std::mem::take(&mut *self.tenants.write().unwrap());
        for (_, tenant) in tenants {
            let mut tenant = tenant;
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match Arc::try_unwrap(tenant) {
                    Ok(t) => {
                        t.engine.shutdown();
                        break;
                    }
                    Err(still_shared) => {
                        tenant = still_shared;
                        if Instant::now() >= deadline {
                            // A stuck query holds the tenant; dropping our
                            // reference detaches rather than deadlocking.
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
    }

    fn get(&self, name: &str) -> Result<Arc<Tenant<M>>, ServeError> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel { model: name.into() })
    }

    fn resolve(&self, model: Option<&str>) -> Result<Arc<Tenant<M>>, ServeError> {
        match model {
            Some(name) => self.get(name),
            None => {
                let default = self.default_model.read().unwrap().clone();
                match default {
                    Some(name) => self.get(&name),
                    None => Err(ServeError::UnknownModel {
                        model: "(default)".into(),
                    }),
                }
            }
        }
    }

    /// Fair-share admission: always admit within the tenant's guaranteed
    /// share, admit beyond it only while the global budget has spare
    /// capacity; otherwise fail fast with typed backpressure.
    fn admit(&self, tenant: &Tenant<M>) -> Result<AdmissionPermit, ServeError> {
        let tenants = self.tenants.read().unwrap().len().max(1);
        let share = (self.config.max_inflight / tenants).max(1);
        let mine = tenant.inflight.fetch_add(1, Ordering::SeqCst);
        let global = self.global_inflight.fetch_add(1, Ordering::SeqCst);
        if mine >= share && global >= self.config.max_inflight {
            tenant.inflight.fetch_sub(1, Ordering::SeqCst);
            self.global_inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Backpressure {
                capacity: self.config.max_inflight,
            });
        }
        Ok(AdmissionPermit {
            tenant: Arc::clone(&tenant.inflight),
            global: Arc::clone(&self.global_inflight),
        })
    }
}

impl ModelRegistry<ModelSnapshot> {
    /// Register a [`ModelSnapshot`] under `name`, deriving the text
    /// encoder from the snapshot's own vocabulary (per-tenant models may
    /// have entirely different vocabularies).
    pub fn register_snapshot(&self, name: &str, snapshot: ModelSnapshot) -> Result<(), ServeError> {
        let encoder = DocEncoder::new(snapshot.vocab().clone());
        self.register(name, snapshot, encoder)
    }
}

impl<M: InferenceModel> Router for ModelRegistry<M> {
    fn submit(&self, model: Option<&str>, text: &str, reply: Reply) {
        let tenant = match self.resolve(model) {
            Ok(tenant) => tenant,
            Err(e) => return reply.run(Err(e)),
        };
        let reply = match self.admit(&tenant) {
            Ok(permit) => permit.hold_until(reply),
            Err(e) => return reply.run(Err(e)),
        };
        match tenant.encoder.encode(text) {
            Ok(doc) => tenant.engine.handle().submit(doc, reply),
            Err(e) => reply.run(Err(e)),
        }
    }
}
