//! Executes a single trial: train, classify the outcome, evaluate, record.
//!
//! Everything here is a deterministic function of the [`TrialSpec`] and the
//! dataset context it names — wall-clock time and the trained-trial counter
//! are the only side channels, and neither feeds into aggregates.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ct_eval::{top_topics, PERCENTAGES};
use ct_tensor::Tensor;

use crate::context::{
    cluster_counts, evaluate_clustering, evaluate_interpretability, fit_trial, ExperimentContext,
};
use crate::ledger::{TopicRecord, TrialOutcome, TrialRecord};
use crate::sched::DivergedTrialPolicy;
use crate::spec::TrialSpec;

/// Process-wide count of trials that actually trained (as opposed to being
/// served from the ledger). The resume tests use this to assert that a
/// completed sweep re-run performs zero training.
static TRIALS_TRAINED: AtomicU64 = AtomicU64::new(0);

/// Number of trials trained in this process so far.
pub fn trained_count() -> u64 {
    TRIALS_TRAINED.load(Ordering::Relaxed)
}

/// Serializes the unit tests that train trials: the counter is process
/// wide, so a test asserting on a [`trained_count`] delta must not see
/// a concurrently running test's training.
#[cfg(test)]
pub(crate) fn training_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How many topics / words each record keeps for the case-study tables.
const TOPICS_KEPT: usize = 5;
const WORDS_KEPT: usize = 8;

/// Train and evaluate one trial. Never panics: a panic inside the fit is
/// caught and becomes a [`TrialOutcome::Failed`] record; a diverged run
/// (per its [`ct_models::TrainStats`] or a non-finite `beta`) becomes
/// [`TrialOutcome::Diverged`]. `attempt`/`fallback_seed` annotate
/// divergence-policy retries; the record is still keyed by `spec`.
pub fn run_trial(
    spec: &TrialSpec,
    ctx: &ExperimentContext,
    attempt: u32,
    fallback_seed: Option<u64>,
) -> TrialRecord {
    run_trial_full(spec, ctx, attempt, fallback_seed).0
}

/// [`run_trial`], additionally returning the trained topic-word
/// distribution on an `ok` outcome so callers (the worker fleet's
/// `--export-models`) can checkpoint it without refitting.
pub fn run_trial_full(
    spec: &TrialSpec,
    ctx: &ExperimentContext,
    attempt: u32,
    fallback_seed: Option<u64>,
) -> (TrialRecord, Option<Tensor>) {
    let started = Instant::now();
    TRIALS_TRAINED.fetch_add(1, Ordering::Relaxed);
    let mut trained = spec.clone();
    if let Some(seed) = fallback_seed {
        trained.seed = seed;
    }
    let fitted = catch_unwind(AssertUnwindSafe(|| fit_trial(&trained, ctx)));
    let base = |outcome: TrialOutcome, skipped: u64| TrialRecord {
        key: spec.key(),
        spec: spec.clone(),
        outcome,
        attempt,
        fallback_seed,
        wall_ms: started.elapsed().as_millis() as u64,
        skipped_batches: skipped,
        metrics: BTreeMap::new(),
        topics: Vec::new(),
    };
    let model = match fitted {
        Ok(model) => model,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return (base(TrialOutcome::Failed { message }, 0), None);
        }
    };

    let skipped = model
        .train_stats()
        .map(|s| s.skipped_batches as u64)
        .unwrap_or(0);
    if let Some(stats) = model.train_stats() {
        if let Err(detail) = stats.check_diverged() {
            return (base(TrialOutcome::Diverged { detail }, skipped), None);
        }
    }
    let beta = model.beta();
    if !beta.data().iter().all(|x| x.is_finite()) {
        return (
            base(
                TrialOutcome::Diverged {
                    detail: "non-finite topic-word distribution".to_string(),
                },
                skipped,
            ),
            None,
        );
    }

    let mut metrics = BTreeMap::new();
    let interp = evaluate_interpretability(&beta, &ctx.npmi_test);
    for (i, &pct) in PERCENTAGES.iter().enumerate() {
        let tag = (pct * 100.0).round() as u32;
        metrics.insert(format!("coh@{tag}"), interp.coherence[i]);
        metrics.insert(format!("div@{tag}"), interp.diversity[i]);
    }
    if let Some(labels) = ctx.test.labels.as_ref() {
        let theta = model.theta(&ctx.test);
        // Historical convention from the standalone harnesses: clustering
        // seed 7 + s where the model seed was 42 + s. Deriving it from the
        // seed offset keeps the old binaries' exact numbers.
        let kmeans_seed = 7u64.wrapping_add(trained.seed.wrapping_sub(spec.data_seed));
        for k in cluster_counts(spec.scale) {
            let (pur, nmi) = evaluate_clustering(&theta, labels, k, kmeans_seed);
            metrics.insert(format!("pur@k{k}"), pur);
            metrics.insert(format!("nmi@k{k}"), nmi);
        }
    }
    let topics = top_topics(
        &beta,
        &ctx.npmi_test,
        &ctx.train.vocab,
        TOPICS_KEPT,
        WORDS_KEPT,
    )
    .into_iter()
    .map(|t| TopicRecord {
        npmi: t.npmi,
        words: t.top_words,
    })
    .collect();

    let record = TrialRecord {
        key: spec.key(),
        spec: spec.clone(),
        outcome: TrialOutcome::Ok,
        attempt,
        fallback_seed,
        wall_ms: started.elapsed().as_millis() as u64,
        skipped_batches: skipped,
        metrics,
        topics,
    };
    (record, Some(beta))
}

/// Execute one trial end to end under the scheduler's semantics: run it,
/// apply the divergence-retry `policy`, and post-hoc discard a result that
/// blew the soft `timeout_ms` budget (the trial is never interrupted —
/// that would make outcomes machine-speed dependent). Returns the record
/// to append plus the trained beta when the final outcome is `ok`.
///
/// This is the single execution path shared by the in-process scheduler
/// ([`crate::sched::run_grid`]) and the multi-process worker loop
/// ([`crate::worker::run_worker`]), so both modes settle identical records
/// for identical specs.
pub fn execute_trial(
    spec: &TrialSpec,
    ctx: &ExperimentContext,
    policy: DivergedTrialPolicy,
    timeout_ms: Option<u64>,
) -> (TrialRecord, Option<Tensor>) {
    let started = Instant::now();
    let (mut record, mut beta) = run_trial_full(spec, ctx, 0, None);
    if let DivergedTrialPolicy::RetryFallbackSeed {
        offset,
        max_retries,
    } = policy
    {
        let mut attempt = 0u32;
        while matches!(record.outcome, TrialOutcome::Diverged { .. }) && attempt < max_retries {
            attempt += 1;
            let fallback = spec.seed.wrapping_add(offset.wrapping_mul(attempt as u64));
            (record, beta) = run_trial_full(spec, ctx, attempt, Some(fallback));
        }
    }
    if let Some(budget_ms) = timeout_ms {
        let elapsed = started.elapsed().as_millis() as u64;
        if elapsed > budget_ms {
            record = TrialRecord {
                outcome: TrialOutcome::TimedOut { budget_ms },
                wall_ms: elapsed,
                metrics: Default::default(),
                topics: Vec::new(),
                ..record
            };
            beta = None;
        }
    }
    (record, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelKind;
    use ct_corpus::{DatasetPreset, Scale};

    #[test]
    fn ok_trial_carries_metrics_and_topics() {
        let _serial = training_lock();
        let mut spec =
            TrialSpec::baseline(ModelKind::Etm, DatasetPreset::Ng20Like, Scale::Tiny, 42);
        spec.epochs = Some(1);
        let ctx = ExperimentContext::build_with_noise(
            spec.preset,
            spec.scale,
            spec.data_seed,
            spec.emb_noise,
        );
        let before = trained_count();
        let rec = run_trial(&spec, &ctx, 0, None);
        assert_eq!(trained_count(), before + 1);
        assert_eq!(rec.outcome, TrialOutcome::Ok);
        assert_eq!(rec.key, spec.key());
        assert!(rec.metrics.contains_key("coh@10"));
        assert!(rec.metrics.contains_key("coh@100"));
        assert!(rec.metrics.contains_key("div@100"));
        assert!(
            rec.metrics.keys().any(|k| k.starts_with("pur@k")),
            "labelled preset must produce clustering metrics"
        );
        assert!(!rec.topics.is_empty());
        assert!(rec.topics.iter().all(|t| t.words.len() == 8));
    }

    #[test]
    fn trial_is_deterministic_across_runs() {
        let _serial = training_lock();
        let mut spec =
            TrialSpec::baseline(ModelKind::ProdLda, DatasetPreset::Ng20Like, Scale::Tiny, 43);
        spec.epochs = Some(1);
        let ctx = ExperimentContext::build_with_noise(
            spec.preset,
            spec.scale,
            spec.data_seed,
            spec.emb_noise,
        );
        let a = run_trial(&spec, &ctx, 0, None);
        let b = run_trial(&spec, &ctx, 0, None);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.topics, b.topics);
    }
}
