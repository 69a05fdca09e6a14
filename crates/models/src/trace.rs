//! Structured training telemetry.
//!
//! The training driver ([`crate::common::train_loop_traced`]) emits
//! [`TraceEvent`]s into a [`TraceSink`]: per-batch loss components, the
//! global gradient norm before clipping, clip activations, the Adam step
//! count, divergence events (skipped batches with the offending loss
//! value), and wall-clock spans for the forward/backward/step phases.
//! Sinks are pluggable:
//!
//! - [`NoopSink`] — the default; reports `enabled() == false` so the
//!   driver skips event construction and timing entirely (zero overhead).
//! - [`JsonlSink`] — one JSON object per line, machine-readable; wired to
//!   the CLI's `--trace <path>` flag and the bench binaries' `CT_TRACE`
//!   environment variable.
//! - [`ConsoleSink`] — human-readable per-epoch lines (what
//!   `TrainConfig::verbose` used to print with `eprintln!`; library code
//!   must not write to stderr directly — `scripts/check.sh` enforces it).
//! - [`CollectSink`] — buffers events in memory, for tests.
//!
//! Tracing is observation-only: it never touches the RNG or the parameter
//! values, so a traced run and an untraced run with the same seed produce
//! byte-identical checkpoints (covered by a determinism test in the
//! `contratopic` crate).

use std::io::{self, Write};

use ct_tensor::codec::json::json_str;

/// Per-batch loss breakdown. `backbone` is the backbone's own objective
/// (ELBO / OT / WAE loss); `kl` is its KL term where the backbone exposes
/// one; `regularizer` is the *weighted* regularizer contribution
/// (`lambda * L_con`) when one is attached. The total batch loss is
/// `backbone + regularizer`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LossComponents {
    pub backbone: f32,
    pub kl: Option<f32>,
    pub regularizer: Option<f32>,
}

/// One telemetry event. Field meanings are documented per variant; all
/// wall-clock spans are nanoseconds and are `0` when the sink reported
/// itself disabled at the time of measurement.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Free-form annotation, e.g. a sweep point or a stream-slice label.
    Meta { key: &'static str, value: String },
    /// A named counter sampled at a point in time (e.g. `masks_built`,
    /// the regularizer's pair-mask cache-miss count).
    Counter { name: &'static str, value: u64 },
    /// Emitted once when `train_loop_traced` starts.
    TrainStart {
        epochs: usize,
        num_docs: usize,
        batch_size: usize,
    },
    /// A batch that completed forward/backward/step.
    BatchEnd {
        epoch: usize,
        batch: usize,
        loss: f32,
        components: LossComponents,
        /// Global gradient norm *before* clipping.
        grad_norm: f32,
        /// Whether clipping actually rescaled the gradients.
        clipped: bool,
        /// Adam step count after this batch's update.
        adam_step: u64,
        /// Forward wall time; on the data-parallel path this spans the
        /// whole micro-batch fan-out (per-shard forward + backward fused).
        forward_ns: u64,
        /// Backward wall time; on the data-parallel path this is the
        /// fixed-order gradient reduction plus the batch regularizer.
        backward_ns: u64,
        step_ns: u64,
        /// Micro-batch shards this batch was split into (1 = single tape).
        shards: usize,
        /// Tape-arena buffer reuses during this batch (all threads).
        arena_reuse: u64,
        /// Tape-arena allocation misses during this batch (all threads).
        arena_miss: u64,
    },
    /// A diverged batch dropped under [`DivergencePolicy::SkipBatch`],
    /// with the offending (non-finite) loss value.
    BatchSkipped {
        epoch: usize,
        batch: usize,
        loss: f32,
    },
    /// End of one epoch. `components` and `grad_norm` are means over the
    /// epoch's non-skipped batches.
    EpochEnd {
        epoch: usize,
        mean_loss: f32,
        components: LossComponents,
        grad_norm: f32,
        batches: usize,
        skipped: usize,
        wall_ns: u64,
    },
    /// Terminal: every batch of an epoch diverged under
    /// [`DivergencePolicy::SkipBatch`]; training stopped.
    AllBatchesDiverged { epoch: usize },
    /// Terminal: [`DivergencePolicy::Halt`] hit a non-finite loss.
    HaltedOnDivergence {
        epoch: usize,
        batch: usize,
        loss: f32,
    },
    /// Emitted once when the driver returns.
    TrainEnd {
        epochs_run: usize,
        skipped_batches: usize,
        wall_ns: u64,
    },
    /// One micro-batch served by the inference engine (`ct-serve`):
    /// how many queued queries were coalesced, how long the oldest of
    /// them waited in the queue, and the batched forward-pass time.
    ServeBatch {
        /// Number of queries coalesced into this forward pass.
        size: usize,
        /// Queue wait of the oldest request in the batch, nanoseconds.
        queue_ns: u64,
        /// Wall time of the batched encoder forward pass, nanoseconds.
        infer_ns: u64,
    },
    /// One stream chunk absorbed by the continual-learning pipeline:
    /// coherence is measured against the NPMI statistics accumulated over
    /// every document seen so far, so plotting `coherence` over
    /// `docs_seen` is the coherence-over-stream-time curve.
    StreamChunk {
        /// Chunk index (0-based).
        chunk: u64,
        /// Total documents absorbed including this chunk.
        docs_seen: u64,
        /// Mean topic coherence over the top-10% most coherent topics.
        coherence10: f64,
        /// Mean topic coherence over all topics.
        coherence: f64,
    },
    /// A snapshot promotion attempt against the live registry. `ok` is
    /// `false` when validation rejected the snapshot (the previous
    /// generation keeps serving); `generation` is the serving generation
    /// after the attempt either way.
    Promotion {
        /// Registry model name the snapshot was promoted into.
        model: String,
        /// Serving generation after the attempt.
        generation: u64,
        /// Whether the validated swap was accepted.
        ok: bool,
    },
    /// A scripted drift event fired in the document stream; `kind` is a
    /// `ct_corpus::stream::DriftEvent::kind_name` tag (`vocab_growth`,
    /// `topic_birth`, `topic_death`, `mixture_shift`) and `detail` its
    /// parameters.
    Drift {
        /// Machine-readable event kind.
        kind: String,
        /// Document offset the event fired at.
        at_doc: u64,
        /// Event parameters, e.g. `to_words=900`.
        detail: String,
    },
}

use crate::common::DivergencePolicy;

/// Receiver for [`TraceEvent`]s.
pub trait TraceSink {
    /// Whether events will actually be recorded. When `false` the driver
    /// skips event construction and all timing calls.
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent);
}

/// The default sink: records nothing, reports itself disabled.
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Buffers events in memory (test helper).
#[derive(Default)]
pub struct CollectSink {
    pub events: Vec<TraceEvent>,
}

impl TraceSink for CollectSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Format an `f32` as a JSON value. JSON has no literal for non-finite
/// floats, so `NaN`/`inf` — exactly what divergence events carry — are
/// emitted as strings.
fn json_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

fn json_opt_f32(v: Option<f32>) -> String {
    match v {
        Some(v) => json_f32(v),
        None => "null".to_string(),
    }
}

fn components_json(c: &LossComponents) -> String {
    format!(
        "\"backbone\":{},\"kl\":{},\"reg\":{}",
        json_f32(c.backbone),
        json_opt_f32(c.kl),
        json_opt_f32(c.regularizer),
    )
}

/// Render one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Meta { key, value } => {
            format!(
                "{{\"event\":\"meta\",\"key\":{},\"value\":{}}}",
                json_str(key),
                json_str(value)
            )
        }
        TraceEvent::Counter { name, value } => {
            format!(
                "{{\"event\":\"counter\",\"name\":{},\"value\":{value}}}",
                json_str(name)
            )
        }
        TraceEvent::TrainStart {
            epochs,
            num_docs,
            batch_size,
        } => format!(
            "{{\"event\":\"train_start\",\"epochs\":{epochs},\"num_docs\":{num_docs},\
             \"batch_size\":{batch_size}}}"
        ),
        TraceEvent::BatchEnd {
            epoch,
            batch,
            loss,
            components,
            grad_norm,
            clipped,
            adam_step,
            forward_ns,
            backward_ns,
            step_ns,
            shards,
            arena_reuse,
            arena_miss,
        } => format!(
            "{{\"event\":\"batch\",\"epoch\":{epoch},\"batch\":{batch},\"loss\":{},{},\
             \"grad_norm\":{},\"clipped\":{clipped},\"adam_step\":{adam_step},\
             \"forward_ns\":{forward_ns},\"backward_ns\":{backward_ns},\"step_ns\":{step_ns},\
             \"shards\":{shards},\"arena_reuse\":{arena_reuse},\"arena_miss\":{arena_miss}}}",
            json_f32(*loss),
            components_json(components),
            json_f32(*grad_norm),
        ),
        TraceEvent::BatchSkipped { epoch, batch, loss } => format!(
            "{{\"event\":\"batch_skipped\",\"epoch\":{epoch},\"batch\":{batch},\"loss\":{}}}",
            json_f32(*loss)
        ),
        TraceEvent::EpochEnd {
            epoch,
            mean_loss,
            components,
            grad_norm,
            batches,
            skipped,
            wall_ns,
        } => format!(
            "{{\"event\":\"epoch\",\"epoch\":{epoch},\"mean_loss\":{},{},\"grad_norm\":{},\
             \"batches\":{batches},\"skipped\":{skipped},\"wall_ns\":{wall_ns}}}",
            json_f32(*mean_loss),
            components_json(components),
            json_f32(*grad_norm),
        ),
        TraceEvent::AllBatchesDiverged { epoch } => {
            format!("{{\"event\":\"all_batches_diverged\",\"epoch\":{epoch}}}")
        }
        TraceEvent::HaltedOnDivergence { epoch, batch, loss } => format!(
            "{{\"event\":\"halted_on_divergence\",\"epoch\":{epoch},\"batch\":{batch},\
             \"loss\":{}}}",
            json_f32(*loss)
        ),
        TraceEvent::TrainEnd {
            epochs_run,
            skipped_batches,
            wall_ns,
        } => format!(
            "{{\"event\":\"train_end\",\"epochs_run\":{epochs_run},\
             \"skipped_batches\":{skipped_batches},\"wall_ns\":{wall_ns}}}"
        ),
        TraceEvent::ServeBatch {
            size,
            queue_ns,
            infer_ns,
        } => format!(
            "{{\"event\":\"serve_batch\",\"size\":{size},\"queue_ns\":{queue_ns},\
             \"infer_ns\":{infer_ns}}}"
        ),
        TraceEvent::StreamChunk {
            chunk,
            docs_seen,
            coherence10,
            coherence,
        } => format!(
            "{{\"event\":\"stream_chunk\",\"chunk\":{chunk},\"docs_seen\":{docs_seen},\
             \"coherence10\":{coherence10:.6},\"coherence\":{coherence:.6}}}"
        ),
        TraceEvent::Promotion {
            model,
            generation,
            ok,
        } => format!(
            "{{\"event\":\"promotion\",\"model\":{},\"generation\":{generation},\"ok\":{ok}}}",
            json_str(model)
        ),
        TraceEvent::Drift {
            kind,
            at_doc,
            detail,
        } => format!(
            "{{\"event\":\"drift\",\"kind\":{},\"at_doc\":{at_doc},\"detail\":{}}}",
            json_str(kind),
            json_str(detail)
        ),
    }
}

/// Machine-readable sink: one JSON object per event, one event per line.
pub struct JsonlSink<W: Write> {
    out: W,
    /// First write error, if any (subsequent events are dropped; surfaced
    /// by [`JsonlSink::finish`]).
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        Self { out, error: None }
    }

    /// Flush and return the underlying writer, or the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event_to_json(event);
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }
}

/// Human-readable sink: one line per epoch plus divergence notices. This
/// is what `TrainConfig::verbose` routes through (to stderr).
pub struct ConsoleSink<W: Write> {
    out: W,
}

impl ConsoleSink<io::Stderr> {
    pub fn stderr() -> Self {
        Self { out: io::stderr() }
    }
}

impl<W: Write> ConsoleSink<W> {
    pub fn new(out: W) -> Self {
        Self { out }
    }
}

impl<W: Write> TraceSink for ConsoleSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        // Write errors are deliberately dropped: progress lines are
        // best-effort and must not abort training.
        let _ = match event {
            TraceEvent::EpochEnd {
                epoch,
                mean_loss,
                skipped,
                ..
            } => {
                if *skipped > 0 {
                    writeln!(
                        self.out,
                        "epoch {:>3}: loss {mean_loss:.4} ({skipped} diverged batches skipped)",
                        epoch + 1
                    )
                } else {
                    writeln!(self.out, "epoch {:>3}: loss {mean_loss:.4}", epoch + 1)
                }
            }
            TraceEvent::AllBatchesDiverged { epoch } => writeln!(
                self.out,
                "epoch {:>3}: every batch diverged; stopping",
                epoch + 1
            ),
            TraceEvent::HaltedOnDivergence { epoch, batch, loss } => writeln!(
                self.out,
                "epoch {:>3}: halted on non-finite loss {loss} (batch {batch})",
                epoch + 1
            ),
            _ => Ok(()),
        };
    }
}

/// Parse a divergence-policy name (CLI plumbing lives here so every
/// front-end spells the values the same way).
pub fn parse_divergence_policy(s: &str) -> Result<DivergencePolicy, String> {
    match s.to_ascii_lowercase().as_str() {
        "skip" | "skip-batch" => Ok(DivergencePolicy::SkipBatch),
        "halt" | "halt-with-error" => Ok(DivergencePolicy::Halt),
        other => Err(format!("unknown divergence policy '{other}' (skip|halt)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        let mut s = NoopSink;
        s.record(&TraceEvent::AllBatchesDiverged { epoch: 0 });
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::TrainStart {
            epochs: 2,
            num_docs: 10,
            batch_size: 4,
        });
        sink.record(&TraceEvent::BatchEnd {
            epoch: 0,
            batch: 1,
            loss: 1.5,
            components: LossComponents {
                backbone: 1.0,
                kl: Some(0.25),
                regularizer: Some(0.5),
            },
            grad_norm: 3.0,
            clipped: true,
            adam_step: 2,
            forward_ns: 10,
            backward_ns: 20,
            step_ns: 5,
            shards: 4,
            arena_reuse: 100,
            arena_miss: 3,
        });
        sink.record(&TraceEvent::BatchSkipped {
            epoch: 0,
            batch: 2,
            loss: f32::NAN,
        });
        let out = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
        assert!(lines[1].contains("\"kl\":0.25"));
        assert!(lines[1].contains("\"clipped\":true"));
        assert!(lines[1].contains("\"shards\":4"));
        assert!(lines[1].contains("\"arena_reuse\":100"));
        assert!(lines[1].contains("\"arena_miss\":3"));
        // Non-finite floats must be quoted, or the line is invalid JSON.
        assert!(lines[2].contains("\"loss\":\"NaN\""));
    }

    #[test]
    fn stream_events_serialize_as_single_line_json() {
        let events = [
            TraceEvent::StreamChunk {
                chunk: 3,
                docs_seen: 4_000,
                coherence10: 0.31,
                coherence: 0.12,
            },
            TraceEvent::Promotion {
                model: "live".to_string(),
                generation: 2,
                ok: true,
            },
            TraceEvent::Drift {
                kind: "vocab_growth".to_string(),
                at_doc: 2_000,
                detail: "to_words=900".to_string(),
            },
        ];
        let lines: Vec<String> = events.iter().map(event_to_json).collect();
        for l in &lines {
            assert!(
                l.starts_with('{') && l.ends_with('}') && !l.contains('\n'),
                "{l}"
            );
        }
        assert!(
            lines[0].contains("\"event\":\"stream_chunk\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"docs_seen\":4000"), "{}", lines[0]);
        assert!(lines[1].contains("\"event\":\"promotion\""), "{}", lines[1]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
        assert!(lines[2].contains("\"event\":\"drift\""), "{}", lines[2]);
        assert!(
            lines[2].contains("\"kind\":\"vocab_growth\""),
            "{}",
            lines[2]
        );
        assert!(
            lines[2].contains("\"detail\":\"to_words=900\""),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn json_escapes_strings() {
        let e = TraceEvent::Meta {
            key: "point",
            value: "a\"b\\c\nd".to_string(),
        };
        let line = event_to_json(&e);
        assert!(line.contains("a\\\"b\\\\c\\nd"), "{line}");
    }

    #[test]
    fn console_sink_formats_epochs() {
        let mut sink = ConsoleSink::new(Vec::new());
        sink.record(&TraceEvent::EpochEnd {
            epoch: 0,
            mean_loss: 1.25,
            components: LossComponents::default(),
            grad_norm: 0.0,
            batches: 4,
            skipped: 1,
            wall_ns: 0,
        });
        let out = String::from_utf8(sink.out).unwrap();
        assert!(out.contains("loss 1.2500"), "{out}");
        assert!(out.contains("1 diverged"), "{out}");
    }

    #[test]
    fn parses_divergence_policy() {
        assert_eq!(
            parse_divergence_policy("skip").unwrap(),
            DivergencePolicy::SkipBatch
        );
        assert_eq!(
            parse_divergence_policy("HALT").unwrap(),
            DivergencePolicy::Halt
        );
        assert!(parse_divergence_policy("explode").is_err());
    }
}
