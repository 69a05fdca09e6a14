//! Fan-in over the Unix socket: parked clients must cost the server no
//! threads, the same contract `load_gen --idle-conns` gates for TCP.
//!
//! This is its own test binary because it counts the process's `ct-`
//! threads, which servers started by concurrently running tests would
//! inflate.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{query_unix, DocEncoder, ModelSnapshot, ServeConfig, ServeEngine, UnixServer};

const IDLE_CLIENTS: usize = 200;

/// Threads whose name starts with `ct-`: every serving-tier thread
/// (reactor shards, engine batchers, the inference pool).
fn ct_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with("ct-"))
        .count()
}

#[test]
fn parked_unix_clients_cost_no_threads() {
    let corpus = cluster_corpus(3, 5, 12);
    let config = TrainConfig {
        num_topics: 3,
        hidden: 12,
        embed_dim: 8,
        epochs: 1,
        batch_size: 12,
        seed: 5,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    let engine = ServeEngine::start(snapshot, ServeConfig::default());
    let path = std::env::temp_dir().join(format!("ct-unix-fan-in-{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    let server = UnixServer::bind(
        &path,
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    )
    .expect("bind");

    let mut idle: Vec<UnixStream> = (0..IDLE_CLIENTS)
        .map(|_| UnixStream::connect(&path).expect("connect idle client"))
        .collect();
    // Connections are accepted in arrival order, so once a later client
    // is answered every parked one has been accepted too.
    let answered = query_unix(&path, &["w0 w1 w2"]).expect("query past the parked clients");
    assert!(answered[0].starts_with("{\"theta\":["), "{}", answered[0]);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bound = 4 * cores + 16;
    let threads = ct_threads();
    assert!(
        threads <= bound,
        "{threads} ct- threads with {IDLE_CLIENTS} parked Unix clients (bound {bound})"
    );
    // Parked is not dropped: every idle client is still connected.
    for (i, conn) in idle.iter_mut().enumerate() {
        conn.set_read_timeout(Some(Duration::from_millis(1)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        match conn.read(&mut byte) {
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock) => {}
            other => panic!("idle client {i} was closed or answered: {other:?}"),
        }
    }

    drop(idle);
    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    engine.shutdown();
}
