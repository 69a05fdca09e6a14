//! End-to-end test of `contratopic experiment`: a sweep interrupted after
//! two trials and resumed at one worker must write an aggregate report
//! byte-identical to an uninterrupted run at four workers and two jobs,
//! and re-running the completed sweep must train nothing — the
//! resumability and worker-count determinism contracts of the run
//! ledger, checked at the product surface.

use std::path::Path;
use std::process::Command;

/// Run `contratopic experiment` on the tiny 2-model × 2-seed smoke grid,
/// with its ledger and report under `dir/run`, and return its stdout.
fn experiment(dir: &Path, run: &str, threads: &str, extra: &[&str]) -> String {
    let ledger = format!("{run}/ledger/trials.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_contratopic"))
        .current_dir(dir)
        .env("CT_NUM_THREADS", threads)
        .args("experiment --exp smoke --scale tiny --seeds 2".split(' '))
        .args(["--ledger", &ledger, "--out", run])
        .args(extra)
        .output()
        .expect("spawn contratopic experiment");
    assert!(
        out.status.success(),
        "experiment {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_report() {
    let dir = std::env::temp_dir().join(format!("ct_experiment_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    experiment(&dir, "interrupted", "1", &["--op", "run", "--limit", "2"]);
    experiment(&dir, "interrupted", "1", &["--op", "resume"]);
    experiment(&dir, "uninterrupted", "4", &["--op", "run", "--jobs", "2"]);
    let report = |run: &str| std::fs::read(dir.join(run).join("exp_smoke.json")).unwrap();
    assert!(
        report("interrupted") == report("uninterrupted"),
        "resumed aggregate differs from the uninterrupted run"
    );

    let rerun = experiment(&dir, "interrupted", "1", &["--op", "resume"]);
    assert!(
        rerun.contains("smoke: 0 trained, 4 from ledger"),
        "re-running a completed sweep retrained trials:\n{rerun}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
