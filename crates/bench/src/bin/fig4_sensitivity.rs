//! Figure 4: sensitivity to lambda (regularizer weight) and v (words
//! sampled per topic) on 20NG-like and Yahoo-like.
//!
//! As in the paper, only the max-percentage and min-percentage scores are
//! reported: coherence at 10% and 90%, diversity at 10% and 90%, and
//! km-Purity at the smallest and largest cluster counts.
//!
//! Without `CT_TRACE`, the sweep runs through the `ct-exp` run ledger (the
//! default lambda/v point is the same trial fig2 trains, so it is shared).
//! With `CT_TRACE` set, the sweep instead trains directly with a JSONL
//! trace sink attached — telemetry capture, not caching, is the point of
//! that mode.
//!
//! Expected shape: coherence rises with lambda; diversity and purity rise
//! then fall once lambda gets large; v rises quickly then plateaus.

use contratopic::fit_contratopic_traced;
use ct_bench::{
    cluster_counts, evaluate_clustering, scale_from_env, trace_sink_from_env, ExperimentContext,
};
use ct_corpus::{DatasetPreset, Scale};
use ct_eval::{diversity_at, TopicScores, K_TC, K_TD};
use ct_exp::{aggregate_groups, default_lambda, GroupAggregate};
use ct_models::{TopicModel, TraceEvent, TraceSink};

const LAMBDAS: [f32; 4] = [0.0, 100.0, 400.0, 1200.0];
const VS: [usize; 4] = [1, 7, 13, 19];

fn row(values: &[f64]) -> String {
    values.iter().map(|v| format!(" {v:>8.3}")).collect()
}

fn point_metrics(group: &GroupAggregate, counts: &[usize]) -> Vec<f64> {
    [
        "coh@10".to_string(),
        "coh@90".to_string(),
        "div@10".to_string(),
        "div@90".to_string(),
        format!("pur@k{}", counts[0]),
        format!("pur@k{}", counts[counts.len() - 1]),
    ]
    .iter()
    .map(|m| group.mean(m).unwrap_or(f64::NAN))
    .collect()
}

fn sweep_from_ledger(scale: Scale) {
    let records = ct_bench::run_experiment("fig4", scale, 1, &|p| {
        if let Some(line) = ct_bench::progress_line(&p) {
            eprintln!("{line}");
        }
    });
    let groups = aggregate_groups(&records);
    let counts = cluster_counts(scale);
    for preset in [DatasetPreset::Ng20Like, DatasetPreset::YahooLike] {
        print_sweep_header(preset.name(), "lambda");
        for &l in &LAMBDAS {
            let Some(g) = groups.iter().find(|g| {
                g.spec.preset == preset
                    && g.spec
                        .ct
                        .as_ref()
                        .is_some_and(|ct| ct.lambda == l && ct.v == 10)
            }) else {
                continue;
            };
            println!("{l:<10}{}", row(&point_metrics(g, &counts)));
        }
        print_v_header(default_lambda(preset));
        for &v in &VS {
            let Some(g) = groups.iter().find(|g| {
                g.spec.preset == preset
                    && g.spec
                        .ct
                        .as_ref()
                        .is_some_and(|ct| ct.v == v && ct.lambda == default_lambda(preset))
            }) else {
                continue;
            };
            println!("{v:<10}{}", row(&point_metrics(g, &counts)));
        }
    }
}

fn print_sweep_header(preset: &str, knob: &str) {
    println!(
        "\n=== {preset} ===\n[{knob} sweep, v = 10]\n{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        knob, "coh@10%", "coh@90%", "div@10%", "div@90%", "pur@min", "pur@max"
    );
}

fn print_v_header(lambda: f32) {
    println!(
        "[v sweep, lambda = {lambda}]\n{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "v", "coh@10%", "coh@90%", "div@10%", "div@90%", "pur@min", "pur@max"
    );
}

fn eval_point_traced(
    ctx: &ExperimentContext,
    lambda: f32,
    v: usize,
    trace: &mut dyn TraceSink,
) -> Vec<f64> {
    let base = ctx.train_config(42);
    let cfg = ctx.contratopic_config().with_lambda(lambda).with_v(v);
    if trace.enabled() {
        trace.record(&TraceEvent::Meta {
            key: "point",
            value: format!("{} lambda={lambda} v={v}", ctx.preset.name()),
        });
    }
    let model = fit_contratopic_traced(
        &ctx.train,
        ctx.embeddings.clone(),
        &ctx.npmi_train,
        &base,
        &cfg,
        trace,
    );
    let beta = model.beta();
    let scores = TopicScores::compute(&beta, &ctx.npmi_test, K_TC);
    let counts = cluster_counts(ctx.scale);
    let labels = ctx.test.labels.clone().expect("labelled preset");
    let theta = model.theta(&ctx.test);
    let (p_min, _) = evaluate_clustering(&theta, &labels, counts[0], 7);
    let (p_max, _) = evaluate_clustering(&theta, &labels, *counts.last().unwrap(), 7);
    vec![
        scores.coherence_at(0.1),
        scores.coherence_at(0.9),
        diversity_at(&beta, &scores, 0.1, K_TD),
        diversity_at(&beta, &scores, 0.9, K_TD),
        p_min,
        p_max,
    ]
}

fn sweep_traced(scale: Scale, trace: &mut dyn TraceSink) {
    for preset in [DatasetPreset::Ng20Like, DatasetPreset::YahooLike] {
        let ctx = ExperimentContext::build(preset, scale, 42);
        print_sweep_header(preset.name(), "lambda");
        for &l in &LAMBDAS {
            println!("{l:<10}{}", row(&eval_point_traced(&ctx, l, 10, trace)));
        }
        print_v_header(ctx.default_lambda());
        for &v in &VS {
            println!(
                "{v:<10}{}",
                row(&eval_point_traced(&ctx, ctx.default_lambda(), v, trace))
            );
        }
    }
}

fn main() {
    let scale = scale_from_env();
    println!("Figure 4 — sensitivity to lambda and v (scale {scale:?})");
    let mut trace = trace_sink_from_env();
    if trace.enabled() {
        sweep_traced(scale, trace.as_mut());
    } else {
        sweep_from_ledger(scale);
    }
}
