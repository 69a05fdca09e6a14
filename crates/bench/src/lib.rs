//! # ct-bench
//!
//! Experiment harness regenerating every table and figure of the
//! ContraTopic paper. The binaries in `src/bin/` each print one
//! table/figure; the Criterion benches in `benches/` cover the §V-E
//! computational analysis and the substrate micro-benchmarks.
//!
//! The experiment machinery itself — dataset contexts, model fitting,
//! evaluation, trial specs, the run ledger and the scheduler — lives in
//! the `ct-exp` crate; this crate re-exports the pieces the binaries
//! share and keeps only presentation helpers of its own. The binaries
//! declare their trial grids against `ct-exp` (see
//! [`ct_exp::registry`]), so trials shared between figures train once
//! and completed trials are served from the run ledger on re-runs.
//!
//! Scale is controlled by the `CT_SCALE` env var (`tiny` | `quick` |
//! `full`, default `quick`), the number of seeds by `CT_SEEDS`
//! (default 2; the paper uses 3), the ledger path by `CT_LEDGER`
//! (default `results/ledger/trials.jsonl`) and scheduler concurrency by
//! `CT_JOBS` (default 1).

use std::io::BufWriter;
use std::path::PathBuf;

use ct_models::{JsonlSink, NoopSink, TraceSink};
use ct_tensor::codec::json::{self, Json};

pub use ct_exp::{
    cluster_counts, embedding_noise, evaluate_clustering, evaluate_interpretability, num_seeds,
    num_seeds_or, ContextCache, ExperimentContext, InterpretabilityResult, ModelKind,
};

/// Mean and (population) standard deviation, as a tuple (compatibility
/// shim over [`ct_exp::mean_std`]; empty input yields zeros).
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let ms = ct_exp::mean_std(values);
    (ms.mean, ms.std)
}

/// The shared run ledger path: `CT_LEDGER` if set, else
/// `results/ledger/trials.jsonl` — one ledger for every harness binary,
/// which is what lets them share trials.
pub fn ledger_path() -> PathBuf {
    std::env::var("CT_LEDGER")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results/ledger/trials.jsonl"))
}

/// Scheduler concurrency for the harness binaries (`CT_JOBS`, default 1).
pub fn num_jobs() -> usize {
    std::env::var("CT_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Soft per-trial wall-clock budget for the harness binaries
/// (`CT_TIMEOUT_MS`; unset or unparsable = no budget). See
/// `SchedulerConfig::timeout_ms` for the determinism trade-off.
pub fn timeout_ms() -> Option<u64> {
    std::env::var("CT_TIMEOUT_MS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// Render one scheduler progress event as a human-readable line, or
/// `None` for events the harnesses don't surface. Pure formatting — the
/// binaries own the actual stderr write (library crates never print).
pub fn progress_line(p: &ct_exp::Progress) -> Option<String> {
    match p {
        ct_exp::Progress::Started {
            label,
            index,
            pending,
            ..
        } => Some(format!("  [{index}/{pending}] training {label}")),
        ct_exp::Progress::Finished {
            label,
            outcome,
            wall_ms,
            ..
        } if *outcome != "ok" => Some(format!("  {label}: {outcome} after {wall_ms} ms")),
        _ => None,
    }
}

/// Run a trial grid through the shared ledger and return its grid-ordered
/// records, reporting progress through the caller's callback (see
/// [`progress_line`]). Panics on ledger I/O errors — harness binaries
/// have no error path to propagate into.
pub fn run_trials(
    grid: &[ct_exp::TrialSpec],
    progress: &(dyn Fn(ct_exp::Progress) + Sync),
) -> Vec<ct_exp::TrialRecord> {
    let mut ledger =
        ct_exp::Ledger::open(ledger_path()).unwrap_or_else(|e| panic!("open ledger: {e}"));
    let contexts = ContextCache::new();
    let config = ct_exp::SchedulerConfig {
        jobs: num_jobs(),
        timeout_ms: timeout_ms(),
        ..Default::default()
    };
    let (records, _) = ct_exp::run_grid(grid, &mut ledger, &contexts, &config, progress)
        .unwrap_or_else(|e| panic!("run grid: {e}"));
    records
}

/// Run one named experiment end to end: its full grid through the shared
/// ledger, plus the `results/exp_<name>.{json,md}` report artifacts
/// (written next to the ledger's `results/` root). Returns the
/// grid-ordered records for the binary's own table rendering.
pub fn run_experiment(
    name: &str,
    scale: ct_corpus::Scale,
    seeds: usize,
    progress: &(dyn Fn(ct_exp::Progress) + Sync),
) -> Vec<ct_exp::TrialRecord> {
    let def =
        ct_exp::ExperimentDef::find(name).unwrap_or_else(|| panic!("unknown experiment '{name}'"));
    let records = run_trials(&def.grid(scale, seeds), progress);
    let report = ct_exp::ExperimentReport::build(def.name, def.title, &records);
    let out_dir = ledger_path()
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    report
        .write_artifacts(&out_dir)
        .unwrap_or_else(|e| panic!("write report artifacts under {}: {e}", out_dir.display()));
    records
}

/// JSONL trace sink gated on `CT_TRACE`: when the variable names a path,
/// training telemetry streams there; otherwise a no-op sink. Shared by
/// `fig4_sensitivity` and `perf_snapshot` (the flush happens when the
/// sink drops).
pub fn trace_sink_from_env() -> Box<dyn TraceSink> {
    match std::env::var("CT_TRACE") {
        Ok(path) => {
            let file = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("CT_TRACE={path}: cannot create trace file: {e}"));
            println!("writing training traces to {path}");
            Box::new(JsonlSink::new(BufWriter::new(file)))
        }
        Err(_) => Box::new(NoopSink),
    }
}

/// Render one row of a fixed-width table.
pub fn fmt_row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<18}");
    for v in values {
        s.push_str(&format!(" {v:>7.3}"));
    }
    s
}

/// Header row matching [`fmt_row`] widths.
pub fn fmt_header(label: &str, cols: &[String]) -> String {
    let mut s = format!("{label:<18}");
    for c in cols {
        s.push_str(&format!(" {c:>7}"));
    }
    s
}

/// Set top-level members (values as JSON text) of the `BENCH_*.json`
/// document `doc`, keeping every other member, and re-emit it one member
/// per line; an empty or non-object `doc` starts a fresh object. This is
/// how `load_gen` and `serve_bench` share `BENCH_serve.json` without
/// clobbering each other's keys. Panics on a value that is not JSON.
pub fn merge_bench_json(doc: &str, members: &[(&str, &str)]) -> String {
    let mut root = json::parse(doc).unwrap_or(Json::Null);
    for (key, value) in members {
        let value = json::parse(value)
            .unwrap_or_else(|e| panic!("BENCH member '{key}' is not valid JSON: {e}"));
        root.set(key, value);
    }
    root.emit_members_per_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn model_kinds_have_unique_names() {
        let names: std::collections::HashSet<_> = ModelKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), ModelKind::ALL.len());
    }

    #[test]
    fn fmt_row_and_header_align() {
        let header = fmt_header("model", &["a".into(), "b".into()]);
        let row = fmt_row("x", &[1.0, 2.0]);
        assert_eq!(header.len(), row.len());
    }

    #[test]
    fn ledger_path_honors_env_default() {
        // Only checks the default (env mutation would race other tests).
        if std::env::var("CT_LEDGER").is_err() {
            assert!(ledger_path().ends_with("results/ledger/trials.jsonl"));
        }
    }

    #[test]
    fn merge_json_appends_new_key() {
        let doc = "{\n  \"runs\": [{\"p99\": 1.5}]\n}\n";
        let merged = merge_bench_json(doc, &[("p99_gate", "{\"pass\": true}")]);
        assert_eq!(
            merged,
            "{\n  \"runs\": [{\"p99\":1.5}],\n  \"p99_gate\": {\"pass\":true}\n}\n"
        );
    }

    #[test]
    fn merge_json_replaces_existing_key_in_place() {
        let doc = "{\n  \"a\": {\"x\": [1, 2]},\n  \"b\": \"ke\\\"ep }\",\n  \"c\": 3\n}\n";
        let merged = merge_bench_json(doc, &[("a", "[9]")]);
        assert_eq!(
            merged,
            "{\n  \"a\": [9],\n  \"b\": \"ke\\\"ep }\",\n  \"c\": 3\n}\n"
        );
        let replaced_last = merge_bench_json(doc, &[("c", "4")]);
        assert!(replaced_last.contains("\"c\": 4\n}"), "{replaced_last}");
        assert!(!replaced_last.contains("\"c\": 3"), "{replaced_last}");
    }

    #[test]
    fn merge_json_ignores_nested_keys_with_same_name() {
        let doc = "{\n  \"outer\": {\"gate\": 1},\n  \"tail\": 2\n}\n";
        let merged = merge_bench_json(doc, &[("gate", "7")]);
        assert!(merged.contains("{\"gate\":1}"), "{merged}");
        assert!(merged.contains("\"gate\": 7"), "{merged}");
    }

    #[test]
    fn merge_json_survives_empty_or_invalid_docs() {
        for doc in ["", "{}", "not json", "[1, 2]"] {
            assert_eq!(
                merge_bench_json(doc, &[("k", "1")]),
                "{\n  \"k\": 1\n}\n",
                "{doc}"
            );
        }
    }

    #[test]
    fn trace_sink_disabled_without_env() {
        if std::env::var("CT_TRACE").is_err() {
            assert!(!trace_sink_from_env().enabled());
        }
    }
}
