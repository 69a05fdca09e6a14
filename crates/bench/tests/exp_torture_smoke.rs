//! The distributed-execution crash gate, run by the default test
//! command: `exp_torture --smoke` leases a tiny sweep to a worker fleet,
//! SIGKILLs one worker at a seeded point, and in a second scenario
//! truncates the trials ledger mid-record and resumes with a fresh fleet.
//! It exits non-zero unless each resumed aggregate report is
//! byte-identical to an uninterrupted single-process run, the final
//! aggregation pass trains nothing, and lease accounting bounds
//! training.

use std::process::Command;

#[test]
fn exp_torture_smoke_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_torture"))
        .arg("--smoke")
        .output()
        .expect("spawn exp_torture");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exp_torture --smoke exited with {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("exp_torture: all scenarios passed"),
        "no pass line\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}
