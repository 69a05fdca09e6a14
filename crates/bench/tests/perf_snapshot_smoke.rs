//! The perf harness, run by the default test command: `perf_snapshot
//! --smoke` runs every code path of the committed snapshots on a tiny
//! preset and writes no artifact. It exits non-zero when the trained
//! parameters differ across worker counts.

use std::process::Command;

#[test]
fn perf_snapshot_smoke_passes() {
    let dir = std::env::temp_dir().join(format!("ct_perf_snapshot_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perf_snapshot"))
        .current_dir(&dir)
        .arg("--smoke")
        .output()
        .expect("spawn perf_snapshot");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "perf_snapshot --smoke exited with {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("bitwise_equal_across_workers: true"),
        "no bitwise-equality line\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
