//! A client that closes while its request is still in flight must leave
//! its shard idle until the completion arrives, over TCP (where the read
//! side sees EOF) and over a Unix socket (where the peer's close also
//! raises `EPOLLHUP`). Its own test binary, so the reactor threads it
//! measures are the only ones in the process.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ct_serve::{ProtocolLimits, Reply, Router, ShutdownReport, TcpServer, UnixServer};

/// A router that holds every reply until the test lets go of it.
#[derive(Default)]
struct Holding(Mutex<Vec<Reply>>);

impl Router for Holding {
    fn submit(&self, _model: Option<&str>, _text: &str, reply: Reply) {
        self.0.lock().unwrap().push(reply);
    }
}

impl Holding {
    fn held(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// Drop every held reply; a dropped reply answers `closed`.
    fn release(&self) {
        self.0.lock().unwrap().clear();
    }
}

/// CPU seconds (user + system) used so far by this process's `ct-reactor-*`
/// threads, from `/proc/self/task/*/stat` (fields 14 and 15, in ticks of
/// `USER_HZ`, which is 100 on Linux).
fn reactor_cpu_secs() -> f64 {
    let mut ticks = 0u64;
    for task in std::fs::read_dir("/proc/self/task")
        .expect("task dir")
        .flatten()
    {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("ct-reactor-") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
            continue;
        };
        // The fields after the parenthesized name start at field 3.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("stat name") + 1..]
            .split_whitespace()
            .collect();
        ticks += fields[11].parse::<u64>().expect("utime");
        ticks += fields[12].parse::<u64>().expect("stime");
    }
    ticks as f64 / 100.0
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

/// Send one request on `client`, wait until the router holds it, close the
/// client, and measure the reactor's CPU time over the next half second.
fn cpu_after_close(router: &Holding, mut client: impl Write) -> f64 {
    client.write_all(b"w0 w1 w2\n").expect("send");
    assert!(
        wait_until(Duration::from_secs(10), || router.held() == 1),
        "request never reached the router"
    );
    drop(client);
    // Let the shard see the close, then watch it.
    std::thread::sleep(Duration::from_millis(50));
    let before = reactor_cpu_secs();
    std::thread::sleep(Duration::from_millis(500));
    reactor_cpu_secs() - before
}

fn check(transport: &str, cpu: f64, router: &Holding, shutdown: impl FnOnce() -> ShutdownReport) {
    // A spinning shard burns the whole half second (~0.5 s).
    assert!(
        cpu < 0.1,
        "{transport}: reactor used {cpu:.2} s of CPU in 0.5 s while a closed client's request was in flight"
    );
    router.release();
    let report = shutdown();
    assert_eq!(report.connections_aborted, 0, "{transport}");
}

#[test]
fn a_closed_client_with_a_request_in_flight_leaves_its_shard_idle() {
    let router = Arc::new(Holding::default());
    let tcp = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind tcp");
    let client = TcpStream::connect(tcp.local_addr()).expect("connect tcp");
    let cpu = cpu_after_close(&router, client);
    check("tcp", cpu, &router, || tcp.shutdown(Duration::from_secs(5)));

    let path = std::env::temp_dir().join(format!("ct-closed-client-{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    let unix = UnixServer::bind_router(
        &path,
        Arc::clone(&router) as Arc<dyn Router>,
        ProtocolLimits::default(),
    )
    .expect("bind unix");
    let client = UnixStream::connect(&path).expect("connect unix");
    let cpu = cpu_after_close(&router, client);
    check("unix", cpu, &router, || {
        unix.shutdown(Duration::from_secs(5))
    });
    std::fs::remove_file(&path).ok();
}
