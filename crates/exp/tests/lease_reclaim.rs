//! Lease-reclamation edge cases at the worker level:
//!
//! - a worker that died *after* appending its settled record but *before*
//!   releasing its lease must not cause a retrain on resume;
//! - a worker that observes a peer's live lease must back off and, once
//!   the peer settles the trial, exit without training;
//! - two workers racing one pending trial train it exactly once.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ct_corpus::{DatasetPreset, Scale};
use ct_exp::lease::{log_path_in, replay_log, ClaimOutcome, LeaseManager};
use ct_exp::{
    run_worker, trained_count, ContextCache, Ledger, ModelKind, TopicRecord, TrialOutcome,
    TrialRecord, TrialSpec, WorkerConfig,
};

/// Serializes this file's tests: `trained_count` is process wide, so a
/// test asserting on its delta must not see another test's training.
fn training_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_spec(seed: u64) -> TrialSpec {
    let mut s = TrialSpec::baseline(ModelKind::Etm, DatasetPreset::Ng20Like, Scale::Tiny, seed);
    s.epochs = Some(2);
    s
}

fn settled_record(spec: &TrialSpec) -> TrialRecord {
    let mut metrics = BTreeMap::new();
    metrics.insert("coh@100".to_string(), 0.5);
    TrialRecord {
        key: spec.key(),
        spec: spec.clone(),
        outcome: TrialOutcome::Ok,
        attempt: 0,
        fallback_seed: None,
        wall_ms: 1,
        skipped_batches: 0,
        metrics,
        topics: vec![TopicRecord {
            npmi: 0.1,
            words: vec!["w".into()],
        }],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ct-exp-lr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn settled_but_unreleased_lease_does_not_retrain() {
    let _serial = training_lock();
    let dir = temp_dir("unreleased");
    let ledger_path = dir.join("trials.jsonl");
    let spec = tiny_spec(42);

    // Simulate the dead worker: its record is in the ledger, its lease
    // was never released and has long expired.
    let mut ledger = Ledger::open(&ledger_path).unwrap();
    ledger.append(settled_record(&spec)).unwrap();
    let mut dead = LeaseManager::open(&dir, "dead", 1).unwrap();
    assert!(matches!(
        dead.try_claim(&spec.key()).unwrap(),
        ClaimOutcome::Claimed { .. }
    ));
    std::thread::sleep(std::time::Duration::from_millis(5));

    let before = trained_count();
    let summary = run_worker(
        std::slice::from_ref(&spec),
        &ledger_path,
        &dir,
        &ContextCache::new(),
        &WorkerConfig {
            worker_id: "resumer".into(),
            ..Default::default()
        },
        &|_| {},
    )
    .unwrap();
    assert_eq!(trained_count(), before, "settled trial must not retrain");
    assert_eq!(summary.executed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_backs_off_while_peer_holds_and_exits_once_settled() {
    let _serial = training_lock();
    let dir = temp_dir("backoff");
    let ledger_path = dir.join("trials.jsonl");
    let spec = tiny_spec(43);
    let key = spec.key();

    // The "peer": holds a live lease on the only trial.
    let mut peer = LeaseManager::open(&dir, "peer", 60_000).unwrap();
    let nonce = match peer.try_claim(&key).unwrap() {
        ClaimOutcome::Claimed { nonce, .. } => nonce,
        other => panic!("expected claim, got {other:?}"),
    };

    let before = trained_count();
    let worker_dir = dir.clone();
    let worker_ledger = ledger_path.clone();
    let worker_spec = spec.clone();
    let handle = std::thread::spawn(move || {
        run_worker(
            &[worker_spec],
            &worker_ledger,
            &worker_dir,
            &ContextCache::new(),
            &WorkerConfig {
                worker_id: "waiter".into(),
                poll_ms: 10,
                ..Default::default()
            },
            &|_| {},
        )
        .unwrap()
    });

    // Let the worker hit the Held path at least once, then settle the
    // trial as the peer would and release.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut ledger = Ledger::open(&ledger_path).unwrap();
    ledger.append(settled_record(&spec)).unwrap();
    assert!(peer.release(&key, nonce).unwrap());

    let summary = handle.join().unwrap();
    assert_eq!(summary.executed, 0, "loser backs off without training");
    assert!(summary.waits >= 1, "worker must have waited on the lease");
    assert_eq!(trained_count(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_workers_race_one_trial_exactly_one_trains() {
    let _serial = training_lock();
    let dir = temp_dir("race");
    let ledger_path = dir.join("trials.jsonl");
    let spec = tiny_spec(44);

    // Pre-warm the context cache outside the race so both threads pay no
    // dataset build inside their claim windows.
    let contexts = ContextCache::new();
    contexts.get(&spec);

    let before = trained_count();
    let worker = |id: &'static str| {
        let dir = dir.clone();
        let ledger_path = ledger_path.clone();
        let spec = spec.clone();
        let contexts = &contexts;
        move || {
            run_worker(
                &[spec],
                &ledger_path,
                &dir,
                contexts,
                &WorkerConfig {
                    worker_id: id.into(),
                    poll_ms: 10,
                    ..Default::default()
                },
                &|_| {},
            )
            .unwrap()
        }
    };
    let (sa, sb) = std::thread::scope(|s| {
        let a = s.spawn(worker("a"));
        let b = s.spawn(worker("b"));
        (a.join().unwrap(), b.join().unwrap())
    });

    assert_eq!(
        trained_count() - before,
        1,
        "exactly one worker trains the trial ({sa:?} vs {sb:?})"
    );
    assert_eq!(sa.executed + sb.executed, 1);

    let ledger = Ledger::open(&ledger_path).unwrap();
    assert!(ledger.settled(&spec.key()).is_some());
    assert_eq!(ledger.records_on_disk(), 1);

    // Lease accounting agrees: one claim, no reclaims, one release.
    let stats = replay_log(&log_path_in(&dir)).unwrap();
    assert_eq!(stats.claims.get(&spec.key()), Some(&1));
    assert!(stats.reclaims.is_empty());
    assert_eq!(stats.releases.get(&spec.key()), Some(&1));
    std::fs::remove_dir_all(&dir).unwrap();
}
