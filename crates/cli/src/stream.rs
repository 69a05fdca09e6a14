//! `contratopic stream` — the streaming continual-learning pipeline.
//!
//! Drives the full loop the paper's §VI sketches as future work: a
//! bounded-memory synthetic document stream with scripted drift
//! ([`ct_corpus::stream::DocStream`]) feeds chunk-sized slices into
//! [`contratopic::OnlineContraTopic`], whose NPMI kernel accumulates
//! incrementally; every few chunks the trained parameters are exported as
//! a [`ct_serve::ModelSnapshot`] and hot-promoted into a live
//! [`ct_serve::ModelRegistry`] so concurrent queries never observe a gap;
//! checkpoints make a mid-stream kill resumable with a bitwise-identical
//! coherence trajectory.

use std::fs;
use std::io::LineWriter;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use contratopic::{ContraTopicConfig, OnlineContraTopic, SubsetSamplerConfig};
use ct_corpus::stream::{DocStream, StreamSpec};
use ct_corpus::synth::CORE_SIZE;
use ct_corpus::{parse_drift_script, train_embeddings, Vocab};
use ct_eval::{TopicScores, K_TC};
use ct_models::{Backbone, JsonlSink, TraceEvent, TrainConfig};
use ct_serve::{ModelRegistry, ModelSnapshot, RegistryConfig, ServeConfig, SharedSink};
#[cfg(target_os = "linux")]
use ct_serve::{ProtocolLimits, Router, TcpServer, UnixServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;

/// Record one pipeline-level event through the shared sink, if tracing.
fn emit(trace: &Option<SharedSink>, event: &TraceEvent) {
    if let Some(sink) = trace {
        sink.lock().unwrap().record(event);
    }
}

/// Export the online model's current parameters as a serving snapshot.
fn export_snapshot(
    online: &OnlineContraTopic,
    vocab: &Vocab,
    top: usize,
) -> Result<ModelSnapshot, String> {
    ModelSnapshot::from_parts(online.backbone(), online.params(), vocab.clone(), top)
        .map_err(|e| format!("snapshot export: {e}"))
}

pub fn stream(args: &Args) -> Result<(), String> {
    if let Some(f) = args
        .unknown_flags(&[
            "topics",
            "extra-vocab",
            "start-vocab",
            "docs",
            "chunk",
            "avg-len",
            "alpha",
            "drift",
            "seed",
            "epochs",
            "batch",
            "lr",
            "lambda",
            "v",
            "hidden",
            "embed-dim",
            "checkpoint",
            "checkpoint-every",
            "promote-every",
            "model",
            "tcp",
            "socket",
            "top",
            "trace",
            "max-chunks",
            "hold-ms",
        ])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for stream"));
    }

    // --- Stream shape ----------------------------------------------------
    let num_topics: usize = args.get_or("topics", 8)?;
    let extra: usize = args.get_or("extra-vocab", 120)?;
    let vocab_size = num_topics * CORE_SIZE + extra;
    let spec = StreamSpec {
        vocab_size,
        num_topics,
        start_vocab: args.get_or("start-vocab", vocab_size)?,
        num_docs: args.get_or("docs", 10_000u64)?,
        chunk_size: args.get_or("chunk", 1_000)?,
        avg_doc_len: args.get_or("avg-len", 40.0)?,
        doc_topic_alpha: args.get_or("alpha", 0.12)?,
        seed: args.get_or("seed", 42)?,
        events: match args.get("drift") {
            Some(script) => parse_drift_script(script)?,
            None => Vec::new(),
        },
        ..StreamSpec::default()
    };
    let mut stream = DocStream::new(spec).map_err(|e| format!("stream spec: {e}"))?;
    let vocab = stream.vocab().clone();
    let num_chunks = stream.num_chunks();

    // --- Training configuration (must be repeated verbatim on resume) ----
    let base = TrainConfig {
        num_topics,
        hidden: args.get_or("hidden", 64)?,
        embed_dim: args.get_or("embed-dim", 32)?,
        epochs: args.get_or("epochs", 2)?,
        batch_size: args.get_or("batch", 128)?,
        learning_rate: args.get_or("lr", 3e-3)?,
        seed: stream.spec().seed,
        ..TrainConfig::default()
    };
    let ct_config = ContraTopicConfig {
        lambda: args.get_or("lambda", 100.0)?,
        sampler: SubsetSamplerConfig {
            v: args.get_or("v", 10)?,
            tau_g: 0.5,
        },
        ..ContraTopicConfig::default()
    };

    // --- Fresh start or checkpoint resume ---------------------------------
    let checkpoint = args.get("checkpoint");
    let checkpoint_every: u64 = args.get_or("checkpoint-every", 5)?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if let Some(prefix) = checkpoint {
        if let Some(parent) = std::path::Path::new(prefix).parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
    }
    let resuming = checkpoint
        .map(|prefix| fs::metadata(format!("{prefix}.state")).is_ok())
        .unwrap_or(false);
    let (mut online, start_chunk) = if resuming {
        let prefix = checkpoint.expect("resume without --checkpoint");
        let (online, saved_vocab) =
            OnlineContraTopic::load_state(prefix, base.clone(), ct_config.clone())
                .map_err(|e| format!("resuming {prefix}: {e}"))?;
        if saved_vocab.words() != vocab.words() {
            return Err(format!(
                "checkpoint {prefix} was written over a different vocabulary \
                 ({} words vs {}): stream flags must match the original run",
                saved_vocab.len(),
                vocab.len()
            ));
        }
        let start = online.slices_seen() as u64;
        if start > num_chunks {
            return Err(format!(
                "checkpoint {prefix} is ahead of the stream ({start} slices, \
                 {num_chunks} chunks): stream flags must match the original run"
            ));
        }
        eprintln!("resumed {prefix} at chunk {start}/{num_chunks}");
        (online, start)
    } else {
        // Bootstrap word embeddings from the first chunk — deterministic,
        // so a later resume (which restores them from the checkpoint)
        // replays the same trajectory.
        let mut rng = StdRng::seed_from_u64(base.seed);
        let first = stream.chunk(0);
        let embeddings = train_embeddings(&first.corpus, base.embed_dim, &mut rng);
        let online = OnlineContraTopic::new(vocab.len(), embeddings, base.clone(), ct_config);
        (online, 0u64)
    };

    // --- Telemetry ---------------------------------------------------------
    // One shared JSONL sink carries pipeline events (drift markers,
    // per-chunk coherence, promotions) interleaved with per-batch training
    // and serve-batch telemetry. Opened in append mode on resume so the
    // concatenated trace of a killed run and its resume equals the trace
    // of one uninterrupted run.
    let trace: Option<SharedSink> = match args.get("trace") {
        None => None,
        Some(path) => {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(resuming)
                .truncate(!resuming)
                .write(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("writing stream trace to {path}");
            Some(Arc::new(Mutex::new(JsonlSink::new(LineWriter::new(file)))))
        }
    };

    // --- Live serving ------------------------------------------------------
    // Register an initial snapshot and bind the listeners *before* the
    // first chunk trains, so a concurrent query thread started alongside
    // the pipeline never sees a connection refused or an empty registry —
    // only older generations of the model.
    let promote_every: u64 = args.get_or("promote-every", 5)?;
    if promote_every == 0 {
        return Err("--promote-every must be at least 1".into());
    }
    let top: usize = args.get_or("top", 10)?;
    let model_name = args.get_or("model", "stream".to_string())?;
    let serving = args.get("tcp").is_some() || args.get("socket").is_some();
    #[cfg(not(target_os = "linux"))]
    if serving {
        return Err("--tcp/--socket require Linux (the servers run on an epoll reactor)".into());
    }
    let registry: Option<Arc<ModelRegistry>> = if serving {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            serve: ServeConfig {
                top_n: top,
                ..ServeConfig::default()
            },
            trace: trace.clone(),
            ..RegistryConfig::default()
        }));
        registry
            .register_snapshot(&model_name, export_snapshot(&online, &vocab, top)?)
            .map_err(|e| format!("{model_name}: {e}"))?;
        Some(registry)
    } else {
        None
    };
    #[cfg(target_os = "linux")]
    let tcp_server = match (&registry, args.get("tcp")) {
        (Some(registry), Some(addr)) => {
            let router = Arc::clone(registry) as Arc<dyn Router>;
            let server = TcpServer::bind(addr, router, ProtocolLimits::default())
                .map_err(|e| format!("{addr}: {e}"))?;
            eprintln!("serving '{model_name}' on tcp {}", server.local_addr());
            Some(server)
        }
        _ => None,
    };
    #[cfg(target_os = "linux")]
    let unix_server = match (&registry, args.get("socket")) {
        (Some(registry), Some(socket)) => {
            let server = UnixServer::bind_router(
                socket,
                Arc::clone(registry) as Arc<dyn Router>,
                ProtocolLimits::default(),
            )
            .map_err(|e| format!("{socket}: {e}"))?;
            eprintln!("serving '{model_name}' on unix socket {socket}");
            Some(server)
        }
        _ => None,
    };

    // --- The streaming loop ------------------------------------------------
    let max_chunks: u64 = args.get_or("max-chunks", 0)?;
    let started = Instant::now();
    let mut generation: u64 = if serving { 1 } else { 0 };
    let mut processed: u64 = 0;
    let mut chunk_index = start_chunk;
    stream.seek(start_chunk);
    while chunk_index < num_chunks {
        if max_chunks > 0 && processed == max_chunks {
            break;
        }
        // Drift markers first: events that fired at the chunk boundary,
        // then those scripted inside it — so a reader of the trace sees
        // the regime change before the chunk trained under it.
        for event in stream.events_at_chunk_start(chunk_index) {
            emit(
                &trace,
                &TraceEvent::Drift {
                    kind: event.kind_name().to_string(),
                    at_doc: event.at_doc,
                    detail: event.detail(),
                },
            );
            eprintln!(
                "drift at doc {}: {} ({})",
                event.at_doc,
                event.kind_name(),
                event.detail()
            );
        }
        let chunk = stream.chunk(chunk_index);
        for event in &chunk.fired {
            emit(
                &trace,
                &TraceEvent::Drift {
                    kind: event.kind_name().to_string(),
                    at_doc: event.at_doc,
                    detail: event.detail(),
                },
            );
            eprintln!(
                "drift at doc {}: {} ({})",
                event.at_doc,
                event.kind_name(),
                event.detail()
            );
        }

        match &trace {
            Some(sink) => {
                let mut guard = sink.lock().unwrap();
                online.fit_slice_traced(&chunk.corpus, &mut *guard);
            }
            None => online.fit_slice(&chunk.corpus),
        }

        // Coherence over the *stream-so-far* NPMI statistics: the same
        // kernel the regularizer trains against scores the topics.
        let beta = online.backbone().beta_tensor(online.params());
        let scores = TopicScores::compute(&beta, &online.npmi(), K_TC);
        let docs_seen = online.docs_seen() as u64;
        emit(
            &trace,
            &TraceEvent::StreamChunk {
                chunk: chunk_index,
                docs_seen,
                coherence10: scores.coherence_at(0.1),
                coherence: scores.coherence_at(1.0),
            },
        );
        eprintln!(
            "chunk {:>4}/{num_chunks}: docs_seen={docs_seen} coherence@10%={:+.4} \
             coherence={:+.4}",
            chunk_index + 1,
            scores.coherence_at(0.1),
            scores.coherence_at(1.0)
        );

        if let Some(prefix) = checkpoint {
            if (chunk_index + 1) % checkpoint_every == 0 || chunk_index + 1 == num_chunks {
                online
                    .save_state(prefix, &vocab)
                    .map_err(|e| format!("checkpoint {prefix}: {e}"))?;
            }
        }
        if let Some(registry) = &registry {
            if (chunk_index + 1) % promote_every == 0 || chunk_index + 1 == num_chunks {
                let outcome = export_snapshot(&online, &vocab, top)
                    .and_then(|s| registry.promote(&model_name, s).map_err(|e| e.to_string()));
                let ok = match outcome {
                    Ok(new_generation) => {
                        generation = new_generation;
                        true
                    }
                    Err(e) => {
                        eprintln!("promotion rejected (still serving gen {generation}): {e}");
                        false
                    }
                };
                emit(
                    &trace,
                    &TraceEvent::Promotion {
                        model: model_name.clone(),
                        generation,
                        ok,
                    },
                );
                if ok {
                    eprintln!("promoted '{model_name}' to generation {generation}");
                }
            }
        }

        processed += 1;
        chunk_index += 1;
    }

    let stopped_early = chunk_index < num_chunks;
    if stopped_early {
        // A clean bounded exit doubles as the kill half of the
        // kill-and-resume robustness gate: checkpoint whatever cadence
        // skipped so `--checkpoint` picks up exactly here.
        if let Some(prefix) = checkpoint {
            online
                .save_state(prefix, &vocab)
                .map_err(|e| format!("checkpoint {prefix}: {e}"))?;
            eprintln!(
                "stopped after {processed} chunk(s) at chunk {chunk_index}/{num_chunks}; \
                 resume with --checkpoint {prefix}"
            );
        } else {
            eprintln!("stopped after {processed} chunk(s) at chunk {chunk_index}/{num_chunks}");
        }
    } else {
        let secs = started.elapsed().as_secs_f64();
        let docs = online.docs_seen() as f64;
        eprintln!(
            "stream complete: {} docs in {} chunks, {:.0} docs/sec end-to-end",
            online.docs_seen(),
            num_chunks - start_chunk,
            if secs > 0.0 { docs / secs } else { 0.0 }
        );
    }

    // Let a concurrent query thread keep exercising the final generation,
    // then drain the listeners gracefully.
    let hold_ms: u64 = args.get_or("hold-ms", 0)?;
    if hold_ms > 0 {
        std::thread::sleep(Duration::from_millis(hold_ms));
    }
    #[cfg(target_os = "linux")]
    {
        let drain = Duration::from_millis(500);
        if let Some(server) = tcp_server {
            let report = server.shutdown(drain);
            eprintln!(
                "tcp drained: {} connection(s) closed cleanly, {} aborted",
                report.connections_drained, report.connections_aborted
            );
        }
        if let Some(server) = unix_server {
            server.shutdown(drain);
        }
    }
    Ok(())
}
