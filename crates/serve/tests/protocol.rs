//! Wire-protocol hardening: hostile request lines must come back as
//! well-formed, typed, single-line JSON errors — and must never take
//! the connection (let alone the server) down with them.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ct_corpus::BowCorpus;
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{
    DocEncoder, ModelSnapshot, ProtocolLimits, Router, ServeConfig, ServeEngine, SingleModel,
    TcpServer,
};

fn trained() -> (BowCorpus, ModelSnapshot) {
    let corpus = cluster_corpus(3, 5, 12);
    let config = TrainConfig {
        num_topics: 3,
        hidden: 12,
        embed_dim: 8,
        epochs: 2,
        batch_size: 12,
        seed: 5,
        ..TrainConfig::default()
    };
    let model = fit_etm(&corpus, cluster_embeddings(&corpus), &config);
    let snapshot = ModelSnapshot::from_model(&model, corpus.vocab.clone(), 5).expect("snapshot");
    (corpus, snapshot)
}

/// A running single-model TCP server plus the engine backing it (shut
/// both down at the end of each test).
fn serve_tcp(limits: ProtocolLimits) -> (TcpServer, ServeEngine<ModelSnapshot>, String) {
    let (corpus, snapshot) = trained();
    let engine = ServeEngine::start(snapshot, ServeConfig::default());
    let router: Arc<dyn Router> = Arc::new(SingleModel::new(
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    ));
    let server = TcpServer::bind("127.0.0.1:0", router, limits).expect("bind");
    let addr = server.local_addr().to_string();
    (server, engine, addr)
}

/// Send raw bytes, then read one response line.
fn send_and_read_line(stream: &mut TcpStream, reader: &mut impl BufRead, bytes: &[u8]) -> String {
    stream.write_all(bytes).expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read") > 0,
        "server closed the connection"
    );
    line.trim_end().to_string()
}

#[test]
fn hostile_error_messages_escape_to_valid_single_line_json() {
    let (server, engine, addr) = serve_tcp(ProtocolLimits::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    // A model name with a quote, a backslash, and (via the raw write)
    // no chance of client-side sanitizing: the error message embeds
    // it, so the response is only parseable if the server escapes
    // properly.
    let line = send_and_read_line(&mut stream, &mut reader, b"@q\"uo\\te doc text\n");
    assert!(line.contains("\"error\":\"unknown_model\""), "{line}");
    assert!(
        line.contains("q\\\"uo\\\\te"),
        "quote/backslash must be JSON-escaped in: {line}"
    );
    assert!(!line.contains('\n'), "response must be a single line");
    // The connection is still usable afterwards.
    let ok = send_and_read_line(&mut stream, &mut reader, b"w0 w1 w2\n");
    assert!(ok.starts_with("{\"theta\":["), "{ok}");
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    engine.shutdown();
}

#[test]
fn oversized_line_is_typed_and_the_connection_recovers() {
    let (server, engine, addr) = serve_tcp(ProtocolLimits {
        max_request_bytes: 64,
    });
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut huge = vec![b'x'; 10 * 1024];
    huge.push(b'\n');
    let line = send_and_read_line(&mut stream, &mut reader, &huge);
    assert!(line.contains("\"error\":\"request_too_large\""), "{line}");
    assert!(line.contains("64"), "limit should be named: {line}");
    // Same connection, next request: served normally.
    let ok = send_and_read_line(&mut stream, &mut reader, b"w0 w1 w2\n");
    assert!(ok.starts_with("{\"theta\":["), "{ok}");
    // And an empty line is the typed empty-document error, not a
    // hangup.
    let empty = send_and_read_line(&mut stream, &mut reader, b"\n");
    assert!(empty.contains("\"error\":\"empty_document\""), "{empty}");
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    engine.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_the_server_serving() {
    let (server, engine, addr) = serve_tcp(ProtocolLimits::default());
    // Client one: half a request (no terminating newline), vanish.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"w0 w1 half-a-requ").expect("write");
        stream.flush().expect("flush");
    } // dropped: TCP FIN mid-line
      // Client two (fresh connection) is served as if nothing happened.
    let responses = ct_serve::query_tcp(&addr, &["w0 w1 w2"]).expect("query after disconnect");
    assert!(responses[0].starts_with("{\"theta\":["), "{}", responses[0]);
    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    engine.shutdown();
}

#[test]
fn unterminated_oversized_flood_is_discarded_without_reply() {
    // A client that streams an endless unterminated line must not make
    // the server buffer it: the reader discards in constant memory and
    // answers TooLarge once the newline finally arrives.
    let (server, engine, addr) = serve_tcp(ProtocolLimits {
        max_request_bytes: 128,
    });
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for _ in 0..64 {
        stream.write_all(&[b'z'; 1024]).expect("write flood");
    }
    stream.write_all(b"\n").expect("terminate");
    stream.flush().expect("flush");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read") > 0);
    assert!(line.contains("\"error\":\"request_too_large\""), "{line}");
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    engine.shutdown();
}

#[test]
fn unix_bind_refuses_live_sockets_and_replaces_stale_ones() {
    use ct_serve::UnixServer;

    let (corpus, snapshot) = trained();
    let engine = ServeEngine::start(snapshot, ServeConfig::default());
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ct-protocol-bind-{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();

    let live = UnixServer::bind(
        &path,
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    )
    .expect("first bind");
    // A second bind on the same path must probe, find the live
    // listener, and refuse — not clobber it.
    let err = match UnixServer::bind(
        &path,
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    ) {
        Err(e) => e,
        Ok(_) => panic!("second bind must refuse a live socket"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The first server kept serving through the refused probe.
    let responses = ct_serve::query_unix(&path, &["w0 w1"]).expect("query live server");
    assert!(responses[0].starts_with("{\"theta\":["), "{}", responses[0]);
    live.shutdown(Duration::from_secs(5));

    // A *stale* socket file (no listener behind it) is replaced.
    std::os::unix::net::UnixListener::bind(&path).expect("create stale socket");
    // The listener is dropped here but its socket file remains.
    assert!(path.exists(), "stale socket file should linger");
    let revived = UnixServer::bind(
        &path,
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    )
    .expect("bind over a stale socket file");
    let responses = ct_serve::query_unix(&path, &["w0 w1 w2"]).expect("query revived server");
    assert!(responses[0].starts_with("{\"theta\":["), "{}", responses[0]);
    revived.shutdown(Duration::from_secs(5));
    engine.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_garbage_gets_an_answer_not_a_crash() {
    let (server, engine, addr) = serve_tcp(ProtocolLimits::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    // Invalid UTF-8 followed by a newline: lossy-decoded, then
    // rejected as out-of-vocabulary (or served, if it happens to
    // tokenize) — the contract is one well-formed JSON line back,
    // connection intact.
    let line = send_and_read_line(&mut stream, &mut reader, &[0xff, 0xfe, 0x80, b'\n']);
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let ok = send_and_read_line(&mut stream, &mut reader, b"w0 w1 w2\n");
    assert!(ok.starts_with("{\"theta\":["), "{ok}");
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    engine.shutdown();
}

#[test]
fn byte_at_a_time_writes_frame_identically_to_one_write() {
    // The incremental assembler must be read-boundary invariant all the
    // way up through the socket: a request trickled one byte per write
    // (with a flush each time, defeating any client-side coalescing)
    // parses identically to a single write.
    let (server, engine, addr) = serve_tcp(ProtocolLimits::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for byte in b"w0 w1 w2\n" {
        stream.write_all(&[*byte]).expect("write byte");
        stream.flush().expect("flush");
    }
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read") > 0);
    assert!(line.starts_with("{\"theta\":["), "{line}");
    // Two requests in one write: both answered, in order.
    let first = send_and_read_line(&mut stream, &mut reader, b"w0 w1\n@nope x\n");
    assert!(first.starts_with("{\"theta\":["), "{first}");
    let mut second = String::new();
    assert!(reader.read_line(&mut second).expect("read") > 0);
    assert!(second.contains("\"error\":\"unknown_model\""), "{second}");
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    engine.shutdown();
}
