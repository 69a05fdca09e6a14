//! Accept under fd exhaustion. With the fd table full, `accept` fails
//! with `EMFILE` while the pending connection keeps the listener
//! readable, so a level-triggered event loop that simply retries spins a
//! core until an fd frees. The reactor must back off instead, and still
//! answer the waiting client once fds are available again.
//!
//! This is its own test binary because `RLIMIT_NOFILE` is per process.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{fit_etm, TrainConfig};
use ct_serve::{
    DocEncoder, ModelSnapshot, ProtocolLimits, Router, ServeConfig, ServeEngine, SingleModel,
    TcpServer,
};

/// The rlimit and clock-tick calls, declared locally (std links libc).
mod sys {
    use std::ffi::{c_int, c_long, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct RLimit {
        pub cur: c_ulong,
        pub max: c_ulong,
    }

    pub const RLIMIT_NOFILE: c_int = 7;
    pub const SC_CLK_TCK: c_int = 2;

    extern "C" {
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

fn nofile_limit() -> sys::RLimit {
    let mut lim = sys::RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the call.
    assert_eq!(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile_limit(lim: sys::RLimit) {
    // SAFETY: `lim` is a live `struct rlimit` the call only reads.
    assert_eq!(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &lim) }, 0);
}

/// The open `/proc/self/task/<tid>/stat` of the thread named `name`.
/// Kept open so it can be re-read while no fd can be allocated.
///
/// A spawned thread sets its own name once it first runs, which can be
/// after `spawn` has returned to the caller, so the lookup retries for a
/// while before giving up.
fn thread_stat(name: &str) -> File {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
            let dir = task.expect("task entry").path();
            if std::fs::read_to_string(dir.join("comm")).is_ok_and(|comm| comm.trim_end() == name) {
                return File::open(dir.join("stat")).expect("open thread stat");
            }
        }
        assert!(Instant::now() < deadline, "no thread named {name}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The thread's user + system CPU time so far, in clock ticks.
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("rewind stat");
    stat.read_to_string(&mut text).expect("read stat");
    // Fields after the parenthesised name start at field 3 (state), so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let after_name = &text[text.rfind(')').expect("stat name") + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn accept_at_the_fd_limit_backs_off_and_recovers() {
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
    let router: Arc<dyn Router> = Arc::new(SingleModel::new(
        engine.handle(),
        DocEncoder::new(corpus.vocab.clone()),
    ));
    let server = TcpServer::bind("127.0.0.1:0", router, ProtocolLimits::default()).expect("bind");
    let addr = server.local_addr();
    let mut reactor_stat = thread_stat("ct-reactor-0");

    // Lower the soft fd limit just above the highest open fd and fill
    // the table, then free exactly one fd for the client socket.
    let original = nofile_limit();
    let highest_fd = std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .expect("open fds");
    set_nofile_limit(sys::RLimit {
        cur: (highest_fd + 16) as _,
        ..original
    });
    let mut fillers = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        fillers.push(file);
    }
    assert!(
        !fillers.is_empty(),
        "no fd was free below the lowered limit"
    );
    fillers.pop();
    let mut client = TcpStream::connect(addr).expect("connect at the fd limit");
    client.write_all(b"w0 w1 w2\n").expect("send request");

    // The handshake completed in the kernel, so the listener is readable,
    // but every accept fails with EMFILE.
    std::thread::sleep(Duration::from_millis(50));
    let ticks_before = cpu_ticks(&mut reactor_stat);
    std::thread::sleep(Duration::from_millis(300));
    let ticks_after = cpu_ticks(&mut reactor_stat);
    client.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    let pending = client.read(&mut byte);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the client was served while the fd table was full: {pending:?}"
    );
    // SAFETY: `sysconf` takes no pointers and has no preconditions.
    let tick_ms = 1000.0 / unsafe { sys::sysconf(sys::SC_CLK_TCK) } as f64;
    let busy_ms = (ticks_after - ticks_before) as f64 * tick_ms;
    assert!(
        busy_ms < 0.2 * 300.0,
        "reactor burned {busy_ms} ms of CPU in a 300 ms window at the fd limit"
    );

    // Free the fds: the waiting client is accepted and answered.
    drop(fillers);
    set_nofile_limit(original);
    client.set_nonblocking(false).expect("blocking");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut line = String::new();
    BufReader::new(&client)
        .read_line(&mut line)
        .expect("response after fds free");
    assert!(line.starts_with("{\"theta\":["), "{line}");

    drop(client);
    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_aborted, 0);
    engine.shutdown();
}
