//! The fleet worker loop: one process's share of a grid, divided through
//! [`crate::lease`] over the shared trials ledger.
//!
//! Each worker repeatedly: refreshes its view of the ledger, scans the
//! grid *in grid order* for pending trials (no settled record, or a
//! `failed` record unchanged since this worker started — retried once per
//! fleet run), and races [`LeaseManager::try_claim`] on each. Winning a
//! claim it **re-checks the ledger before training** — the holder may have
//! settled the trial and died before releasing, and that re-check is what
//! makes "no settled trial ever retrains" hold across every crash point.
//! It then trains under a heartbeat, appends the settled record (fsynced)
//! *before* releasing the lease, and moves on. When every pending trial is
//! leased by live peers it backs off `poll_ms` and rescans; when nothing
//! is pending it exits.
//!
//! Determinism: workers only decide *which process* trains a trial.
//! Results are a pure function of the spec (PR 4), records land in the
//! shared ledger in completion order, and aggregation reads grid order —
//! so a fleet run's report is bitwise identical to a single-process run's.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ct_tensor::codec::{self, SliceReader};
use ct_tensor::Tensor;

use crate::context::ContextCache;
use crate::lease::{ClaimOutcome, LeaseManager};
use crate::ledger::{Ledger, TrialOutcome};
use crate::runner::execute_trial;
use crate::sched::{DivergedTrialPolicy, Progress};
use crate::spec::TrialSpec;

/// Knobs for one worker process.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Stable id written into lease records (defaults to `w<pid>`).
    pub worker_id: String,
    /// Lease duration; a worker silent this long is presumed dead and its
    /// trial reclaimed. Heartbeats renew at a third of this.
    pub lease_ttl_ms: u64,
    /// Back-off between scans when every pending trial is held by a live
    /// peer.
    pub poll_ms: u64,
    /// Soft per-trial budget, as in `SchedulerConfig::timeout_ms`.
    pub timeout_ms: Option<u64>,
    /// Divergence handling, as in the scheduler.
    pub policy: DivergedTrialPolicy,
    /// When set, each `ok` trial's topic-word distribution is written to
    /// `<dir>/<key>.ckpt` (atomic, checksummed — see
    /// [`save_beta_checkpoint`]) before the record is appended.
    pub export_dir: Option<PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            worker_id: format!("w{}", std::process::id()),
            lease_ttl_ms: 5_000,
            poll_ms: 200,
            timeout_ms: None,
            policy: DivergedTrialPolicy::RecordAndSkip,
            export_dir: None,
        }
    }
}

/// Counters from one [`run_worker`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Trials this worker trained.
    pub executed: usize,
    /// Executed trials that ended `failed`.
    pub failed: usize,
    /// Executed trials whose final record is `diverged`.
    pub diverged: usize,
    /// Executed trials that blew the soft budget.
    pub timed_out: usize,
    /// Claims won by reclaiming an expired peer lease.
    pub reclaimed: usize,
    /// Claims released without training because the ledger already held a
    /// settled record by the time the claim was won (a peer settled and
    /// died before releasing).
    pub already_settled: usize,
    /// Back-off sleeps taken while peers held every pending trial.
    pub waits: usize,
}

/// Is `key` still worth training, given a fresh ledger view? `retryable`
/// maps keys that already had a (non-settled) `failed` record when this
/// worker started to that record's replay seq: those retry once, but any
/// *new* failure observed mid-run (same key, higher seq) is final for this
/// fleet run — matching the single-process scheduler, which also retries a
/// pre-existing failure exactly once per invocation.
fn is_pending(ledger: &Ledger, key: &str, retryable: &HashMap<String, u64>) -> bool {
    match ledger.get(key) {
        None => true,
        Some(rec) if rec.outcome.is_settled() => false,
        Some(_) => ledger.latest_seq(key) == retryable.get(key).copied(),
    }
}

/// Run one worker over `specs` until nothing is pending. `ledger_path` is
/// the shared trials ledger; lease state lives under `lease_dir` (normally
/// the ledger's parent). Progress events go to `progress` — this crate
/// never prints.
pub fn run_worker(
    specs: &[TrialSpec],
    ledger_path: &Path,
    lease_dir: &Path,
    contexts: &ContextCache,
    cfg: &WorkerConfig,
    progress: &(dyn Fn(Progress) + Sync),
) -> std::io::Result<WorkerSummary> {
    // Dedup preserving grid order, as run_grid does.
    let mut grid: Vec<TrialSpec> = Vec::with_capacity(specs.len());
    let mut seen = std::collections::HashSet::new();
    for spec in specs {
        if seen.insert(spec.key()) {
            grid.push(spec.clone());
        }
    }
    let keys: Vec<String> = grid.iter().map(|s| s.key()).collect();

    let mut ledger = Ledger::open(ledger_path)?;
    let mut lease = LeaseManager::open(lease_dir, &cfg.worker_id, cfg.lease_ttl_ms)?;
    if let Some(dir) = &cfg.export_dir {
        std::fs::create_dir_all(dir)?;
    }
    // Failed records present at startup retry once this run.
    let retryable: HashMap<String, u64> = keys
        .iter()
        .filter(|k| ledger.get(k).is_some_and(|r| !r.outcome.is_settled()))
        .map(|k| (k.clone(), ledger.latest_seq(k).expect("record exists")))
        .collect();

    let mut summary = WorkerSummary::default();
    loop {
        ledger.refresh()?;
        let pending: Vec<usize> = (0..grid.len())
            .filter(|&i| is_pending(&ledger, &keys[i], &retryable))
            .collect();
        if pending.is_empty() {
            break;
        }
        let mut advanced = false;
        for &i in &pending {
            let spec = &grid[i];
            let key = &keys[i];
            let (nonce, reclaimed_from) = match lease.try_claim(key)? {
                ClaimOutcome::Claimed {
                    nonce,
                    reclaimed_from,
                } => (nonce, reclaimed_from),
                ClaimOutcome::Held { .. } => continue,
                ClaimOutcome::Lost => {
                    // Someone else is (re)claiming right now; rescan soon.
                    advanced = true;
                    continue;
                }
            };
            if let Some(evicted) = reclaimed_from {
                summary.reclaimed += 1;
                progress(Progress::Reclaimed {
                    key: key.clone(),
                    from_worker: evicted.unwrap_or_else(|| "?".to_string()),
                });
            }
            // The no-settled-trial-ever-retrains check: the previous
            // holder may have appended the record and died unreleased.
            ledger.refresh()?;
            if !is_pending(&ledger, key, &retryable) {
                summary.already_settled += 1;
                lease.release(key, nonce)?;
                advanced = true;
                continue;
            }
            let heartbeat = lease.start_heartbeat(key, nonce);
            progress(Progress::Started {
                key: key.clone(),
                label: spec.label(),
                index: summary.executed + 1,
                pending: pending.len(),
            });
            let ctx = contexts.get(spec);
            let (record, beta) = execute_trial(spec, &ctx, cfg.policy, cfg.timeout_ms);
            progress(Progress::Finished {
                key: key.clone(),
                label: spec.label(),
                outcome: record.outcome.id(),
                wall_ms: record.wall_ms,
            });
            match &record.outcome {
                TrialOutcome::Failed { .. } => summary.failed += 1,
                TrialOutcome::Diverged { .. } => summary.diverged += 1,
                TrialOutcome::TimedOut { .. } => summary.timed_out += 1,
                TrialOutcome::Ok => {}
            }
            summary.executed += 1;
            // Checkpoint before publish: a crash between the two re-runs
            // the trial (and re-exports); the reverse order could settle a
            // trial whose export never landed.
            if let (Some(dir), Some(beta)) = (&cfg.export_dir, &beta) {
                save_beta_checkpoint(&dir.join(format!("{key}.ckpt")), beta)?;
            }
            // Publish strictly before release: a reclaimer that wins the
            // lease after this line sees the settled record.
            ledger.append(record)?;
            heartbeat.stop();
            lease.release(key, nonce)?;
            advanced = true;
        }
        if !advanced {
            summary.waits += 1;
            progress(Progress::Waiting {
                held: pending.len(),
            });
            std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        }
    }
    Ok(summary)
}

/// Container magic of an exported beta checkpoint.
const BETA_MAGIC: &[u8; 8] = b"CTBETAEX";

/// Write a trial's topic-word distribution as a one-section (`beta`)
/// checksummed container, atomically and durably.
pub fn save_beta_checkpoint(path: &Path, beta: &Tensor) -> std::io::Result<()> {
    let mut body = Vec::new();
    ct_tensor::checkpoint::write_tensor(&mut body, beta);
    codec::write_file(path, BETA_MAGIC, &[("beta", &body)])
}

/// Load a checkpoint written by [`save_beta_checkpoint`]. Any corrupted
/// byte, truncation or trailing data is a typed error, never a panic or
/// an over-allocation.
pub fn load_beta_checkpoint(path: &Path) -> std::io::Result<Tensor> {
    codec::read_file(path, BETA_MAGIC, |file| {
        let mut r = SliceReader::new(file.section("beta")?);
        let tensor = ct_tensor::checkpoint::read_tensor(&mut r)?;
        r.finish()?;
        Ok(tensor)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_checkpoint_roundtrips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("ct-exp-beta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k.ckpt");
        let beta = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 2, 3);
        save_beta_checkpoint(&path, &beta).unwrap();
        let loaded = load_beta_checkpoint(&path).unwrap();
        assert_eq!(loaded.data(), beta.data());

        // Another artifact kind at the same path is refused by its magic;
        // byte-level corruption is covered by tests/artifact_corruption.rs.
        let mut params = ct_tensor::Params::new();
        params.add("beta", beta);
        let mut other = Vec::new();
        params.save(&mut other).unwrap();
        std::fs::write(&path, &other).unwrap();
        let err = load_beta_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
