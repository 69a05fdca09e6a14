//! End-to-end tests of `contratopic stream`: a run killed mid-stream (via
//! `--max-chunks`) and resumed from its checkpoint must emit exactly the
//! per-chunk coherence trajectory and final checkpoint bytes of one
//! uninterrupted run — the kill-and-resume robustness contract of the
//! continual-learning pipeline — and a live run must hot-promote snapshots
//! without failing a concurrent query.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn run_stream(dir: &Path, trace: &str, checkpoint: &str, extra: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_contratopic"));
    cmd.current_dir(dir).args([
        "stream",
        "--topics",
        "3",
        "--extra-vocab",
        "30",
        "--docs",
        "500",
        "--chunk",
        "100",
        "--avg-len",
        "18.0",
        "--epochs",
        "1",
        "--batch",
        "64",
        "--start-vocab",
        "61",
        "--drift",
        "vocab:90@250,birth:2@250",
        "--checkpoint-every",
        "1",
        "--trace",
        trace,
        "--checkpoint",
        checkpoint,
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("spawn contratopic stream");
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn chunk_lines(dir: &Path, trace: &str) -> Vec<String> {
    let body = std::fs::read_to_string(dir.join(trace)).expect("trace file");
    body.lines()
        .filter(|l| l.contains("\"event\":\"stream_chunk\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn kill_and_resume_replays_the_same_trajectory() {
    let dir = std::env::temp_dir().join(format!("ct_stream_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Reference: one uninterrupted pass over all 5 chunks.
    run_stream(&dir, "full.jsonl", "full/ckpt", &[]);
    let full = chunk_lines(&dir, "full.jsonl");
    assert_eq!(full.len(), 5, "expected one stream_chunk event per chunk");

    // "Kill" after 2 chunks, then resume from the checkpoint; the trace
    // file is appended to, so it accumulates the whole trajectory.
    run_stream(&dir, "kr.jsonl", "kr/ckpt", &["--max-chunks", "2"]);
    assert_eq!(chunk_lines(&dir, "kr.jsonl").len(), 2);
    run_stream(&dir, "kr.jsonl", "kr/ckpt", &[]);

    assert_eq!(chunk_lines(&dir, "kr.jsonl"), full);

    // Drift markers survive the replay too: the interrupted run must
    // report the same scripted events as the uninterrupted one.
    let drift = |trace: &str| {
        std::fs::read_to_string(dir.join(trace))
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"event\":\"drift\""))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(drift("kr.jsonl"), drift("full.jsonl"));
    assert!(!drift("full.jsonl").is_empty());

    // The final checkpoints are byte-identical: parameters, batch-norm
    // running statistics, vocabulary and co-occurrence counts alike.
    let state = |prefix: &str| std::fs::read(dir.join(format!("{prefix}.state"))).unwrap();
    assert!(
        state("kr/ckpt") == state("full/ckpt"),
        "resumed run's final .state differs from the uninterrupted run's"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_flags() {
    let dir = std::env::temp_dir().join(format!("ct_stream_cli_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    run_stream(&dir, "t.jsonl", "c/ckpt", &["--max-chunks", "1"]);
    // Same checkpoint, different architecture: must fail loudly instead
    // of silently training a different model.
    let out = Command::new(env!("CARGO_BIN_EXE_contratopic"))
        .current_dir(&dir)
        .args([
            "stream",
            "--topics",
            "4",
            "--extra-vocab",
            "30",
            "--docs",
            "500",
            "--chunk",
            "100",
            "--epochs",
            "1",
            "--checkpoint",
            "c/ckpt",
        ])
        .output()
        .expect("spawn contratopic stream");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not match") || stderr.contains("vocabulary"),
        "unexpected error: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Live promotion under load: a stream run serving on an ephemeral TCP
/// port promotes a new snapshot every two chunks while a concurrent query
/// loop runs. No query may fail while the pipeline is up, at least one
/// must succeed, and the trace must record a successful promotion.
#[cfg(target_os = "linux")]
#[test]
fn live_promotion_fails_no_query() {
    let bin = env!("CARGO_BIN_EXE_contratopic");
    let dir = std::env::temp_dir().join(format!("ct_stream_cli_live_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = Command::new(bin)
        .current_dir(&dir)
        .args([
            "stream",
            "--topics",
            "3",
            "--extra-vocab",
            "30",
            "--docs",
            "600",
            "--chunk",
            "100",
            "--avg-len",
            "18.0",
            "--epochs",
            "1",
            "--batch",
            "64",
            "--start-vocab",
            "61",
            "--drift",
            "vocab:90@300,birth:2@300",
            "--checkpoint-every",
            "1",
            "--tcp",
            "127.0.0.1:0",
            "--promote-every",
            "2",
            "--hold-ms",
            "2000",
            "--trace",
            "live.jsonl",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn contratopic stream");
    // Drain stderr on a thread (a full pipe would stall the run), handing
    // over the bound address from its `serving '…' on tcp ADDR` line.
    let stderr = child.stderr.take().unwrap();
    let (addr_tx, addr_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some((_, addr)) = line.split_once(" on tcp ") {
                if line.starts_with("serving ") {
                    addr_tx.send(addr.to_string()).ok();
                }
            }
            lines.push(line);
        }
        lines
    });
    let Ok(addr) = addr_rx.recv_timeout(Duration::from_secs(120)) else {
        child.kill().ok();
        child.wait().ok();
        panic!(
            "no `serving … on tcp` line:\n{}",
            reader.join().unwrap().join("\n")
        );
    };

    let (mut ok, mut failed) = (0usize, 0usize);
    while child.try_wait().unwrap().is_none() {
        let status = Command::new(bin)
            .args(["query", "--tcp", &addr, "--text", "space nasa orbit launch"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn contratopic query");
        if status.success() {
            ok += 1;
        } else if child.try_wait().unwrap().is_none() {
            // Only a failure while the pipeline is still up counts as a
            // drop; refusals after it drains and exits are its end of life.
            failed += 1;
        }
        thread::sleep(Duration::from_millis(50));
    }
    let status = child.wait().unwrap();
    let log = reader.join().unwrap().join("\n");
    assert!(status.success(), "stream failed:\n{log}");
    assert!(
        failed == 0 && ok > 0,
        "live stream dropped queries (ok={ok} failed={failed}):\n{log}"
    );
    let trace = std::fs::read_to_string(dir.join("live.jsonl")).expect("trace file");
    assert!(
        trace
            .lines()
            .any(|l| l.contains("\"event\":\"promotion\"") && l.contains("\"ok\":true")),
        "no successful promotion in the trace"
    );

    std::fs::remove_dir_all(&dir).ok();
}
