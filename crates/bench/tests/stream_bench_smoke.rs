//! The streaming pipeline's gates, run by the default test command:
//! `stream_bench --smoke` sweeps a drifting stream out-of-core, trains on
//! it while a concurrent client queries the registry across every hot
//! promotion, and promotes a NaN-poisoned snapshot. It exits non-zero when
//! a query fails, when no query succeeds, or when the poisoned snapshot is
//! not rejected as a typed `InvalidSnapshot` while the previous generation
//! keeps serving. It writes a `BENCH_stream.json` of its own, so it runs
//! in a scratch directory.

use std::process::Command;

#[test]
fn stream_bench_smoke_drops_no_query_and_rejects_poison() {
    let dir = std::env::temp_dir().join(format!("ct_stream_bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_stream_bench"))
        .current_dir(&dir)
        .arg("--smoke")
        .output()
        .expect("spawn stream_bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "stream_bench --smoke exited with {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    let artifact = std::fs::read_to_string(dir.join("BENCH_stream.json")).unwrap();
    for field in ["\"failed\":0", "\"typed_rejection\":true"] {
        assert!(artifact.contains(field), "no {field} in:\n{artifact}");
    }
    let doc = ct_tensor::codec::json::parse(&artifact).expect("BENCH_stream.json parses");
    let host = doc.get("host").expect("no host member");
    assert!(host.get("simd").is_some(), "host lacks simd: {artifact}");
    std::fs::remove_dir_all(&dir).ok();
}
