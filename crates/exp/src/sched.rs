//! The trial scheduler: runs a grid of independent trials with bounded
//! concurrency on the shared [`ct_tensor::pool`] worker pool, serving
//! already-settled trials from the ledger.
//!
//! Concurrency model: the grid's pending trials feed a work-stealing index;
//! `jobs` pool *slots* each loop over it. A slot claims one trial at a time
//! and trains it inline — nested `run_partitioned` calls inside the trainer
//! see `IN_POOL_WORKER` and stay single-threaded, which is safe because
//! training results are thread-count invariant (PR 4). With `jobs = 1`
//! (the default) everything runs on the calling thread.
//!
//! Determinism: trial *results* depend only on the spec, never on the
//! schedule; only ledger append order varies with `jobs`. Aggregates are
//! computed from the grid-ordered record list, so final artifacts are
//! bitwise identical across `jobs` and `CT_NUM_THREADS` settings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ct_tensor::pool;

use crate::context::ContextCache;
use crate::ledger::{Ledger, TrialOutcome, TrialRecord};
use crate::runner::execute_trial;
use crate::spec::TrialSpec;

/// What to do when a trial diverges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergedTrialPolicy {
    /// Record the divergence and move on; the configuration shows up in
    /// reports with that seed missing. The default: it never substitutes
    /// data the spec didn't ask for.
    RecordAndSkip,
    /// Retry with `seed + offset * attempt` up to `max_retries` times,
    /// recording the first non-diverged result under the original trial
    /// key with its `fallback_seed` noted. Mirrors the common manual
    /// workflow of re-rolling a diverged seed.
    RetryFallbackSeed {
        /// Seed increment per retry (applied to the spec's seed).
        offset: u64,
        /// Maximum fallback attempts after the original.
        max_retries: u32,
    },
}

/// Scheduler knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Concurrent trial slots (clamped to at least 1).
    pub jobs: usize,
    /// Soft per-trial wall-clock budget, in milliseconds. A trial is never
    /// interrupted mid-flight (that would make results depend on machine
    /// speed); instead its result is *discarded* after the fact and a
    /// settled `timeout` record is written. `None` (the default) disables
    /// the budget — with it enabled, aggregates are only reproducible on
    /// machines where the same trials exceed the budget.
    pub timeout_ms: Option<u64>,
    /// Divergence handling.
    pub policy: DivergedTrialPolicy,
    /// Stop after executing this many *new* trials (settled trials served
    /// from the ledger don't count). The interruption hook for resume
    /// tests and incremental sweeps.
    pub limit: Option<usize>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            jobs: 1,
            timeout_ms: None,
            policy: DivergedTrialPolicy::RecordAndSkip,
            limit: None,
        }
    }
}

/// One progress event, delivered to the caller's callback (this crate
/// never prints).
#[derive(Clone, Debug)]
pub enum Progress {
    /// A settled trial was served from the ledger.
    Reused {
        /// The trial's key.
        key: String,
        /// The trial's human label.
        label: String,
    },
    /// A trial is about to train.
    Started {
        /// The trial's key.
        key: String,
        /// The trial's human label.
        label: String,
        /// Position in the pending list (1-based).
        index: usize,
        /// Number of pending trials.
        pending: usize,
    },
    /// A trial finished and its record was appended.
    Finished {
        /// The trial's key.
        key: String,
        /// The trial's human label.
        label: String,
        /// `TrialOutcome::id()` of the recorded outcome.
        outcome: &'static str,
        /// Wall-clock milliseconds spent.
        wall_ms: u64,
    },
    /// A worker took over another worker's expired lease (fleet mode).
    Reclaimed {
        /// The trial's key.
        key: String,
        /// The worker id whose lease expired.
        from_worker: String,
    },
    /// A worker found every pending trial leased by live peers and is
    /// backing off before rescanning (fleet mode).
    Waiting {
        /// Trials still pending but leased elsewhere.
        held: usize,
    },
}

/// Counters summarizing one [`run_grid`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Trials trained in this call.
    pub executed: usize,
    /// Trials served from the ledger.
    pub reused: usize,
    /// Trials left pending by `limit`.
    pub remaining: usize,
    /// Executed trials that ended `failed`.
    pub failed: usize,
    /// Executed trials whose final record is `diverged`.
    pub diverged: usize,
    /// Executed trials that exceeded the soft budget.
    pub timed_out: usize,
}

/// Run every trial of `specs` (duplicates collapse to one trial), serving
/// settled trials from `ledger` and appending a record for each newly
/// executed one. Returns the grid-ordered records — one per distinct spec,
/// in first-appearance order, which is the order aggregation and reporting
/// consume — plus run counters. Trials cut off by `limit` are simply
/// absent from the returned list.
pub fn run_grid(
    specs: &[TrialSpec],
    ledger: &mut Ledger,
    contexts: &ContextCache,
    config: &SchedulerConfig,
    progress: &(dyn Fn(Progress) + Sync),
) -> std::io::Result<(Vec<TrialRecord>, RunSummary)> {
    // Dedup while preserving grid order: shared trials train once.
    let mut grid: Vec<TrialSpec> = Vec::with_capacity(specs.len());
    let mut seen = std::collections::HashSet::new();
    for spec in specs {
        if seen.insert(spec.key()) {
            grid.push(spec.clone());
        }
    }

    let mut summary = RunSummary::default();
    let mut pending: Vec<TrialSpec> = Vec::new();
    for spec in &grid {
        if let Some(rec) = ledger.settled(&spec.key()) {
            summary.reused += 1;
            progress(Progress::Reused {
                key: rec.key.clone(),
                label: spec.label(),
            });
        } else {
            pending.push(spec.clone());
        }
    }
    if let Some(limit) = config.limit {
        if pending.len() > limit {
            summary.remaining = pending.len() - limit;
            pending.truncate(limit);
        }
    }

    // Pre-warm contexts serially: concurrent slots would otherwise race to
    // build the same dataset (correct but wasteful — see ContextCache::get).
    for spec in &pending {
        contexts.get(spec);
    }

    let total = pending.len();
    let next = AtomicUsize::new(0);
    // Each record is appended (and fsynced) the moment its trial settles,
    // so a crash mid-grid loses at most the trials still in flight. With
    // `jobs > 1` the file's record order follows completion order — replay
    // is per-key and aggregation reads the grid-ordered list below, so
    // nothing downstream depends on file order.
    let sink: Mutex<(&mut Ledger, Vec<TrialOutcome>, Option<std::io::Error>)> =
        Mutex::new((ledger, Vec::with_capacity(total), None));
    let execute = |i: usize| {
        let spec = &pending[i];
        progress(Progress::Started {
            key: spec.key(),
            label: spec.label(),
            index: i + 1,
            pending: total,
        });
        let ctx = contexts.get(spec);
        let (record, _beta) = execute_trial(spec, &ctx, config.policy, config.timeout_ms);
        progress(Progress::Finished {
            key: record.key.clone(),
            label: spec.label(),
            outcome: record.outcome.id(),
            wall_ms: record.wall_ms,
        });
        let (ledger, outcomes, error) = &mut *sink.lock().unwrap();
        outcomes.push(record.outcome.clone());
        if let Err(e) = ledger.append(record) {
            error.get_or_insert(e);
        }
    };

    let slots = config.jobs.max(1).min(total.max(1));
    if slots <= 1 {
        while let Some(i) = claim(&next, total) {
            execute(i);
        }
    } else {
        // Partition pool *slots*, not trials: each slot work-steals off the
        // shared index so long trials don't straggle a static partition.
        pool::with_threads(slots, || {
            pool::run_partitioned(slots, 1, |_slot| {
                while let Some(i) = claim(&next, total) {
                    execute(i);
                }
            });
        });
    }

    let (ledger, outcomes, error) = sink.into_inner().unwrap();
    if let Some(e) = error {
        return Err(e);
    }
    for outcome in &outcomes {
        match outcome {
            TrialOutcome::Failed { .. } => summary.failed += 1,
            TrialOutcome::Diverged { .. } => summary.diverged += 1,
            TrialOutcome::TimedOut { .. } => summary.timed_out += 1,
            TrialOutcome::Ok => {}
        }
        summary.executed += 1;
    }

    let records = grid
        .iter()
        .filter_map(|spec| ledger.get(&spec.key()).cloned())
        .collect();
    Ok((records, summary))
}

fn claim(next: &AtomicUsize, total: usize) -> Option<usize> {
    let i = next.fetch_add(1, Ordering::Relaxed);
    (i < total).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{trained_count, training_lock};
    use crate::spec::ModelKind;
    use ct_corpus::{DatasetPreset, Scale};

    fn tiny_spec(model: ModelKind, seed: u64) -> TrialSpec {
        let mut s = TrialSpec::baseline(model, DatasetPreset::Ng20Like, Scale::Tiny, seed);
        s.epochs = Some(1);
        s
    }

    fn temp_ledger(tag: &str) -> Ledger {
        let path =
            std::env::temp_dir().join(format!("ct-exp-sched-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Ledger::open(path).unwrap()
    }

    #[test]
    fn completed_grid_rerun_trains_nothing() {
        let _serial = training_lock();
        let grid = vec![tiny_spec(ModelKind::Etm, 42), tiny_spec(ModelKind::Etm, 43)];
        let mut ledger = temp_ledger("rerun");
        let contexts = ContextCache::new();
        let cfg = SchedulerConfig::default();
        let quiet = |_: Progress| {};

        let (first, s1) = run_grid(&grid, &mut ledger, &contexts, &cfg, &quiet).unwrap();
        assert_eq!(s1.executed, 2);
        assert_eq!(s1.reused, 0);

        let before = trained_count();
        let (second, s2) = run_grid(&grid, &mut ledger, &contexts, &cfg, &quiet).unwrap();
        assert_eq!(trained_count(), before, "rerun must train zero trials");
        assert_eq!(s2.executed, 0);
        assert_eq!(s2.reused, 2);
        assert_eq!(first, second);
        std::fs::remove_file(ledger.path()).unwrap();
    }

    #[test]
    fn duplicate_specs_train_once() {
        let _serial = training_lock();
        let spec = tiny_spec(ModelKind::ProdLda, 42);
        let grid = vec![spec.clone(), spec.clone(), spec];
        let mut ledger = temp_ledger("dup");
        let contexts = ContextCache::new();
        let (records, summary) = run_grid(
            &grid,
            &mut ledger,
            &contexts,
            &SchedulerConfig::default(),
            &|_| {},
        )
        .unwrap();
        assert_eq!(summary.executed, 1);
        assert_eq!(records.len(), 1);
        std::fs::remove_file(ledger.path()).unwrap();
    }

    #[test]
    fn limit_cuts_off_and_resume_completes() {
        let _serial = training_lock();
        let grid = vec![
            tiny_spec(ModelKind::Etm, 42),
            tiny_spec(ModelKind::Etm, 43),
            tiny_spec(ModelKind::ProdLda, 44),
        ];
        let mut ledger = temp_ledger("limit");
        let contexts = ContextCache::new();
        let mut cfg = SchedulerConfig {
            limit: Some(2),
            ..Default::default()
        };
        let (records, summary) = run_grid(&grid, &mut ledger, &contexts, &cfg, &|_| {}).unwrap();
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.remaining, 1);
        assert_eq!(records.len(), 2, "cut-off trials are absent, not padded");

        cfg.limit = None;
        let (records, summary) = run_grid(&grid, &mut ledger, &contexts, &cfg, &|_| {}).unwrap();
        assert_eq!(summary.executed, 1);
        assert_eq!(summary.reused, 2);
        assert_eq!(records.len(), 3);
        std::fs::remove_file(ledger.path()).unwrap();
    }

    #[test]
    fn concurrent_slots_match_serial_results() {
        let _serial = training_lock();
        let grid = vec![
            tiny_spec(ModelKind::Etm, 42),
            tiny_spec(ModelKind::Etm, 43),
            tiny_spec(ModelKind::ProdLda, 42),
            tiny_spec(ModelKind::ProdLda, 43),
        ];
        let contexts = ContextCache::new();

        let mut serial_ledger = temp_ledger("serial");
        let serial_cfg = SchedulerConfig::default();
        let (serial, _) =
            run_grid(&grid, &mut serial_ledger, &contexts, &serial_cfg, &|_| {}).unwrap();

        let mut par_ledger = temp_ledger("par");
        let par_cfg = SchedulerConfig {
            jobs: 3,
            ..Default::default()
        };
        let (par, _) = run_grid(&grid, &mut par_ledger, &contexts, &par_cfg, &|_| {}).unwrap();

        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.metrics, b.metrics, "trial {} differs", a.spec.label());
            assert_eq!(a.topics, b.topics);
        }
        std::fs::remove_file(serial_ledger.path()).unwrap();
        std::fs::remove_file(par_ledger.path()).unwrap();
    }
}
