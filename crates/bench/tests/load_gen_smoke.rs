//! The serving tier's fan-in gate, run by the default test command:
//! `load_gen --smoke --idle-conns 1000` self-hosts a tiny model behind
//! the epoll reactor, parks 1000 idle connections on it, and drives
//! open-loop TCP traffic through a separate pool. It exits non-zero on
//! lost or errored responses, a p99 past its bound, a dropped idle
//! connection, a force-closed connection at drain, or a server thread
//! count that grows with connections instead of cores.

use std::process::Command;

#[test]
fn load_gen_smoke_with_1000_idle_connections_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_load_gen"))
        .args(["--smoke", "--idle-conns", "1000"])
        .output()
        .expect("spawn load_gen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "load_gen --smoke exited with {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("load_gen --smoke: OK"),
        "no OK line\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}
