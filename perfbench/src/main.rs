//! The repository's benchmark: one workload per run, seeded inputs, a
//! fixed measuring time, output checks, and one JSON result line.
//!
//! ```text
//! perfbench --workload <serve_cold|serve_hot|train_nyt|train_nyt_etm|stream_live>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced pass that reports the per-layer metrics. See
//! README.md for what each workload and metric means.

mod gen;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;
mod timing;
mod train;

use std::time::Instant;

use report::Report;

/// The metrics `BENCHMARK.json` declares, with their units: an untraced
/// run reports exactly the first list, a traced run exactly the second.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput", "ops/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("coherence_npmi", "npmi"),
];

const PER_LAYER: [(&str, &str); 40] = [
    ("serve.encode.us", "us"),
    ("serve.lru.hit_ratio", "ratio"),
    ("serve.snapshot.dense_batch_us", "us"),
    ("serve.snapshot.infer_us", "us"),
    ("serve.snapshot.response_us", "us"),
    ("serve.json.us", "us"),
    ("serve.engine.batch_mean", "docs"),
    ("serve.engine.queue_us.p50", "us"),
    ("serve.engine.queue_us.p99", "us"),
    ("serve.engine.infer_us", "us"),
    ("serve.registry.answer_us", "us"),
    ("serve.reactor.wire_us", "us"),
    ("serve.reactor.threads", "count"),
    ("serve.server.cpu_util", "cores"),
    ("serve.residual_us", "us"),
    ("serve.registry.promote_us", "us"),
    ("serve.snapshot.export_ms", "ms"),
    ("models.common.forward_ms", "ms"),
    ("models.common.backward_ms", "ms"),
    ("models.common.step_ms", "ms"),
    ("core.regularizer.loss_ms", "ms"),
    ("core.regularizer.masks_built", "count"),
    ("core.regularizer.epoch_ratio", "ratio"),
    ("tensor.sgemm.gflops", "GFLOP/s"),
    ("tensor.csr.gflops", "GFLOP/s"),
    ("tensor.csr.matmuls", "count"),
    ("tensor.arena.reuse", "count"),
    ("tensor.arena.miss", "count"),
    ("tensor.optim.adam_us", "us"),
    ("core.online.fit_slice_ms", "ms"),
    ("core.online.save_state_ms", "ms"),
    ("core.online.checkpoint_bytes", "bytes"),
    ("corpus.stream.chunk_ms", "ms"),
    ("corpus.npmi.accumulate_ms", "ms"),
    ("corpus.npmi.to_npmi_ms", "ms"),
    ("corpus.synth.ms", "ms"),
    ("corpus.embed.ms", "ms"),
    ("corpus.npmi.from_corpus_ms", "ms"),
    ("bench.generator.late_us", "us"),
    ("bench.trace.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeCold,
    ServeHot,
    TrainNyt,
    TrainNytEtm,
    StreamLive,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve_cold" => Self::ServeCold,
            "serve_hot" => Self::ServeHot,
            "train_nyt" => Self::TrainNyt,
            "train_nyt_etm" => Self::TrainNytEtm,
            "stream_live" => Self::StreamLive,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err(format!("--seconds {value} is outside 1..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload \
                 <serve_cold|serve_hot|train_nyt|train_nyt_etm|stream_live> --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let host0 = sys::HostTicks::now();
    let mut report = Report::default();
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    if trace {
        traced(workload, seed, seconds, &mut report);
    } else {
        match workload {
            Workload::ServeCold => serve::run(serve::Mix::Cold, seed, seconds, &mut report),
            Workload::ServeHot => serve::run(serve::Mix::Hot, seed, seconds, &mut report),
            Workload::TrainNyt => train::run(train::Model::ContraTopic, seed, seconds, &mut report),
            Workload::TrainNytEtm => train::run(train::Model::Etm, seed, seconds, &mut report),
            Workload::StreamLive => stream::run(seed, seconds, &mut report),
        }
    }
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names = report.names_exactly(expected);
    report.check(
        "output.names_every_metric",
        names.is_ok(),
        names.err().unwrap_or_default(),
    );
    provenance(&mut report, host0, started);
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
}

/// The traced pass: every layer's numbers, measured from outside. The
/// workload's own layers are probed over the full `seconds`; the others
/// over a shorter budget, so every run reports every per-layer metric.
/// The tracing overhead compares the workload's headline rate with the
/// trace hooks off and on inside this same run.
fn traced(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let own = seconds;
    let other = (seconds * 0.3).max(1.0);
    let mix = if workload == Workload::ServeHot {
        serve::Mix::Hot
    } else {
        serve::Mix::Cold
    };
    let serve_budget = if matches!(workload, Workload::ServeCold | Workload::ServeHot) {
        own
    } else {
        other
    };
    let (serve_off, serve_on) = serve::probe(mix, seed, serve_budget, report);
    let train_budget = if matches!(workload, Workload::TrainNyt | Workload::TrainNytEtm) {
        own
    } else {
        other
    };
    let train_rates = train::probe(seed, train_budget, report);
    let stream_budget = if workload == Workload::StreamLive {
        own
    } else {
        other
    };
    let (stream_off, stream_on) = stream::probe(seed, stream_budget, report);
    let (off, on) = match workload {
        Workload::ServeCold | Workload::ServeHot => (serve_off, serve_on),
        Workload::TrainNyt => train_rates.contratopic,
        Workload::TrainNytEtm => train_rates.etm,
        Workload::StreamLive => (stream_off, stream_on),
    };
    report.metric("bench.trace.overhead_pct", (off / on - 1.0) * 100.0, "%");
}

fn provenance(report: &mut Report, host0: sys::HostTicks, started: Instant) {
    report.info(
        "git_rev",
        sys::git_rev().map_or("null".to_string(), |r| report::json_str(&r)),
    );
    report.info_str("source_fnv", &sys::source_digest());
    report.info_str("cpu_model", &sys::cpu_model());
    report.info_str("simd", sys::simd_path());
    report.info("nproc", sys::nproc().to_string());
    report.info(
        "pool_threads",
        ct_tensor::pool::configured_threads().to_string(),
    );
    report.info(
        "ct_num_threads",
        std::env::var("CT_NUM_THREADS").map_or("null".to_string(), |v| report::json_str(&v)),
    );
    report.info(
        "steal_share",
        format!("{}", sys::HostTicks::now().steal_share_since(&host0)),
    );
    report.info("run_wall_s", format!("{}", started.elapsed().as_secs_f64()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_exp::json::{parse, Json};

    fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        assert_eq!(declared(&bench, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_parses_and_names_every_metric_with_its_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut report = Report::default();
            for (i, (name, unit)) in table.iter().enumerate() {
                report.metric(name, 0.5 + i as f64, unit);
            }
            assert_eq!(report.names_exactly(table), Ok(()));
            let line = parse(&report.result_json()).expect("result line is JSON");
            let Json::Obj(members) = &line else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").expect("metrics");
            for (i, (name, unit)) in table.iter().enumerate() {
                let m = metrics.get(name).expect("every metric named");
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5 + i as f64));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            }
        }
    }

    #[test]
    fn a_missing_or_mislabelled_metric_is_caught() {
        let mut report = Report::default();
        report.metric("setup_s", 1.0, "ms");
        assert!(report.names_exactly(&END_TO_END).is_err());
        report.metric("throughput", f64::NAN, "ops/s");
        assert!(!report.correct());
    }
}
