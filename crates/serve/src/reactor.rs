//! Poll-based connection reactor: the one connection transport behind
//! [`TcpServer`](crate::TcpServer) and [`UnixServer`](crate::UnixServer)
//! (Linux only).
//!
//! Every connection — TCP or `AF_UNIX`, the reactor does not care which
//! — is multiplexed onto a small, fixed set of **event-loop shards** (1
//! per 4 cores, at most 4), so a parked client costs a slab slot and an
//! epoll registration, not an OS thread. Each shard owns a raw `epoll`
//! instance and the nonblocking accept / read / write lifecycle for its
//! connections. Incoming bytes feed the incremental [`LineAssembler`],
//! which enforces the request-size cap and produces the typed
//! `request_too_large` frame.
//!
//! A complete request line goes to the shared [`Router`] through its
//! non-blocking [`Router::submit`], on the shard thread itself, with a
//! [`Reply`] that posts the outcome back to the owning shard's
//! completion mailbox and knocks on its `eventfd`. Admission and encoding
//! errors and cache hits complete inside `submit`; everything else
//! completes on the engine's batcher thread once its forward pass is
//! done. The shard renders the JSON line and writes it. No thread ever
//! blocks waiting for an answer, and the only request backlog is the
//! engine's bounded queue and the registry's admission budget, both of
//! which shed with typed `backpressure`.
//!
//! The two socket families differ only in `accept`, `TCP_NODELAY` and
//! the bound address; [`Listener`] absorbs the first two and the
//! servers own the third, so everything after accept is one code path.
//!
//! Responses go out through a per-connection write queue: the reply is
//! appended, flushed as far as the socket allows, and `EPOLLOUT`
//! interest is registered only while bytes remain — interest masks are
//! re-registered (`EPOLL_CTL_MOD`) whenever the desired read/write set
//! changes, including dropping read interest from a connection that
//! pipelines far ahead of the engine or stops draining its responses.
//!
//! Requests on one connection are answered strictly in order: a
//! connection has at most one line submitted at a time, and further
//! complete lines wait in its `pending` queue (oversized-line errors are
//! answered inline in arrival order). Graceful shutdown: parked idle
//! connections close immediately (counted as drained), a connection whose
//! request is already submitted gets its response written and flushed
//! before closing, and only connections still busy at the drain deadline
//! are force-closed (counted as aborted). A completion that arrives after
//! its shard has exited lands in a mailbox nobody reads.
//!
//! The `epoll`/`eventfd` calls are raw libc-level syscalls declared
//! locally — the same no-new-deps pattern as `ct_tensor::simd`'s
//! runtime dispatch — so this module builds with nothing beyond `std`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{QueryResult, Reply};
use crate::error::ServeError;
use crate::net::{Frame, LineAssembler, ProtocolLimits, Router, Shutdown, ShutdownReport};

/// Raw syscall surface: exactly what the reactor needs, declared
/// locally so no crate dependency is added (std already links libc).
mod sys {
    use std::ffi::{c_int, c_void};

    /// Mirror of `struct epoll_event`; packed on x86 per the kernel ABI.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Owned epoll instance.
struct EpollFd(RawFd);

impl EpollFd {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self(fd))
    }

    fn ctl(&self, op: std::ffi::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.0, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for events; `EINTR` and errors report as zero events.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> usize {
        let ms = timeout.as_millis().clamp(1, 60_000) as std::ffi::c_int;
        let rc = unsafe { sys::epoll_wait(self.0, events.as_mut_ptr(), events.len() as _, ms) };
        if rc < 0 {
            0
        } else {
            rc as usize
        }
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// Owned nonblocking eventfd used as a cross-thread wakeup doorbell.
struct EventFd(RawFd);

impl EventFd {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self(fd))
    }

    fn signal(&self) {
        let one: u64 = 1;
        unsafe { sys::write(self.0, (&one as *const u64).cast(), 8) };
    }

    fn drain(&self) {
        let mut counter: u64 = 0;
        unsafe { sys::read(self.0, (&mut counter as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// Event token of the shard's wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Event token of the listening socket (shard 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// `epoll_wait` timeout: how often a shard notices a shutdown signal or
/// a passed drain deadline with no socket activity, and how long the
/// listener sits out of the poll set after an accept error.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Events fetched per `epoll_wait`.
const MAX_EVENTS: usize = 256;
/// Connections accepted per listener event before yielding to other
/// connections (level-triggered epoll re-reports a non-empty backlog).
const ACCEPT_BURST: usize = 256;
/// Parsed-but-undispatched request lines a connection may pipeline
/// before the reactor stops reading from it until the engine catches up.
const MAX_PIPELINE: usize = 32;
/// Unflushed response bytes a connection may accumulate before the
/// reactor stops reading new requests from it.
const MAX_OUTBUF: usize = 256 * 1024;

/// Pack a connection identity into an epoll token: slot index in the
/// low 32 bits, a per-shard generation in the high 32 so a stale event
/// (or a late completion) can never touch a recycled slot.
fn conn_token(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | (idx as u64 & 0xffff_ffff)
}

/// Event-loop shards for this host: 1 per 4 cores, at most 4;
/// connections are dealt round-robin at accept.
fn shard_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 4).clamp(1, 4)
}

/// A bound, listening socket of either family. epoll, `read` and
/// `write` treat both alike; only `accept` differs.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Accept one connection as a nonblocking [`Stream`]. TCP streams
    /// get `TCP_NODELAY`, so a one-line reply is not held back by Nagle.
    fn accept(&self) -> io::Result<Stream> {
        let stream = match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                s.set_nonblocking(true)?;
                Stream::Tcp(s)
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Stream::Unix(s)
            }
        };
        Ok(stream)
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// An accepted connection of either family.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// A finished request travelling back to the owning shard.
struct Completion {
    token: u64,
    result: QueryResult,
}

/// Per-shard mailboxes reachable from other threads, paired with the
/// eventfd that wakes the shard when something lands in them.
struct ShardShared {
    wake: EventFd,
    completions: Mutex<Vec<Completion>>,
    incoming: Mutex<Vec<Stream>>,
}

/// State shared by every reactor thread.
struct ReactorShared {
    shutdown: Arc<AtomicBool>,
    /// Drain deadline, set by `shutdown(drain)`; `None` while only the
    /// asynchronous `Shutdown::signal` has fired (shards then drain
    /// in-flight work without force-closing anything).
    deadline: Mutex<Option<Instant>>,
    router: Arc<dyn Router>,
    limits: ProtocolLimits,
    shards: Vec<Arc<ShardShared>>,
    next_conn: AtomicUsize,
    drained: AtomicUsize,
    aborted: AtomicUsize,
}

/// One live connection owned by a shard.
struct Conn {
    stream: Stream,
    gen: u32,
    asm: LineAssembler,
    /// Complete frames not yet dispatched (order preserved).
    pending: VecDeque<Frame>,
    /// Whether one line is currently submitted to the router.
    busy: bool,
    /// Per-connection write queue: `out[out_pos..]` awaits the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Currently registered epoll interest mask.
    interest: u32,
    /// Read side saw EOF (the peer half-closed or disconnected).
    peer_closed: bool,
}

impl Conn {
    fn out_done(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn push_reply(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }
}

/// Everything a slab operation needs from its surroundings this loop
/// iteration.
struct Ctx<'a> {
    ep: &'a EpollFd,
    shared: &'a ReactorShared,
    shard: usize,
    draining: bool,
}

/// The shard's connection table: slot-indexed with generation tags, so
/// tokens in stale epoll events or late completions never alias a
/// recycled slot.
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u32,
}

impl Slab {
    fn adopt(&mut self, ctx: &Ctx, stream: Stream) {
        if ctx.draining {
            return; // accepted after shutdown: dropped (closed) unserved
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        if ctx
            .ep
            .add(stream.as_raw_fd(), interest, conn_token(gen, idx))
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            asm: LineAssembler::new(ctx.shared.limits.max_request_bytes),
            pending: VecDeque::new(),
            busy: false,
            out: Vec::new(),
            out_pos: 0,
            interest,
            peer_closed: false,
        });
        self.live += 1;
    }

    fn handle_event(&mut self, ctx: &Ctx, token: u64, mask: u32) {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let valid = matches!(self.conns.get(idx), Some(Some(c)) if c.gen == gen);
        if !valid {
            return; // stale event for a slot already closed or recycled
        }
        // `EPOLLHUP` means both directions are shut (a reset, or a Unix
        // peer that closed): no reply can arrive, and epoll reports it
        // whatever the interest mask, so keeping the connection would spin.
        if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(ctx, idx, false);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            let ok = read_into(self.conns[idx].as_mut().unwrap());
            if !ok {
                self.close(ctx, idx, false);
                return;
            }
        }
        self.service(ctx, idx);
    }

    fn complete(&mut self, ctx: &Ctx, completion: Completion) {
        let idx = (completion.token & 0xffff_ffff) as usize;
        let gen = (completion.token >> 32) as u32;
        let valid = matches!(self.conns.get(idx), Some(Some(c)) if c.gen == gen && c.busy);
        if !valid {
            return; // the connection died while its request was in flight
        }
        {
            let conn = self.conns[idx].as_mut().unwrap();
            conn.busy = false;
            let line = match completion.result {
                Ok(outcome) => outcome.response.to_json(),
                Err(e) => e.to_json(),
            };
            conn.push_reply(&line);
        }
        self.service(ctx, idx);
    }

    /// Dispatch/flush/close/re-register after any state change.
    fn service(&mut self, ctx: &Ctx, idx: usize) {
        let closable = {
            let conn = self.conns[idx].as_mut().unwrap();
            while let Some(frame) = conn.asm.next_frame() {
                conn.pending.push_back(frame);
            }
            pump(ctx, idx, conn);
            let broken = flush(conn).is_err();
            let done = !conn.busy
                && conn.pending.is_empty()
                && conn.out_done()
                && (conn.peer_closed || ctx.draining);
            if broken || done {
                Some(false)
            } else {
                None
            }
        };
        match closable {
            Some(forced) => self.close(ctx, idx, forced),
            None => {
                let conn = self.conns[idx].as_mut().unwrap();
                update_interest(ctx, idx, conn);
            }
        }
    }

    fn close(&mut self, ctx: &Ctx, idx: usize, forced: bool) {
        if let Some(conn) = self.conns[idx].take() {
            ctx.ep.delete(conn.stream.as_raw_fd());
            drop(conn); // closes the socket
            self.free.push(idx);
            self.live -= 1;
            if ctx.draining {
                let counter = if forced {
                    &ctx.shared.aborted
                } else {
                    &ctx.shared.drained
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Shutdown transition: park-and-close every connection with no
    /// request in flight and nothing left to write (counted as drained);
    /// busy connections stay to receive their response.
    fn begin_drain(&mut self, ctx: &Ctx) {
        for idx in 0..self.conns.len() {
            let idle = matches!(&self.conns[idx], Some(c) if !c.busy && c.out_done());
            if idle {
                self.close(ctx, idx, false);
            }
        }
    }

    /// Drain deadline passed: force-close everything left (aborted).
    fn abort_all(&mut self, ctx: &Ctx) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close(ctx, idx, true);
            }
        }
    }
}

/// Pull whatever the socket has ready into the line assembler, bounded
/// per event so one chatty client cannot starve the loop (level
/// triggering re-reports the remainder). `false` means a hard error.
fn read_into(conn: &mut Conn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    let mut rounds = 0;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.peer_closed = true;
                return true;
            }
            Ok(n) => {
                conn.asm.feed(&buf[..n]);
                rounds += 1;
                if rounds >= 4 {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Answer oversized-line frames inline and submit at most one request
/// line to the router — strict per-connection FIFO keeps responses in
/// request order without sequence numbers. The reply posts the outcome
/// to this shard's mailbox; when it runs inside `submit` (a cache hit or
/// a typed error), the shard picks it up on its next loop turn. After
/// shutdown no *new* request is started (parsed-but-undispatched lines
/// are dropped).
fn pump(ctx: &Ctx, idx: usize, conn: &mut Conn) {
    loop {
        if conn.busy {
            return;
        }
        if ctx.draining {
            conn.pending.clear();
            return;
        }
        match conn.pending.pop_front() {
            Some(Frame::Line(line)) => {
                conn.busy = true;
                let token = conn_token(conn.gen, idx);
                let mailbox = Arc::clone(&ctx.shared.shards[ctx.shard]);
                let reply = Reply::new(move |result| {
                    mailbox
                        .completions
                        .lock()
                        .unwrap()
                        .push(Completion { token, result });
                    mailbox.wake.signal();
                });
                let (model, text) = parse_request_line(&line);
                ctx.shared.router.submit(model, text, reply);
                return;
            }
            Some(Frame::TooLarge) => {
                let err = ServeError::RequestTooLarge {
                    limit: ctx.shared.limits.max_request_bytes,
                };
                conn.push_reply(&err.to_json());
            }
            None => return,
        }
    }
}

/// Write as much of the out-queue as the socket accepts right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > 8 * 1024 {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(())
}

/// Re-register epoll interest when the desired mask changed: `EPOLLOUT`
/// only while the write queue is non-empty, `EPOLLIN` only while we are
/// willing to take more input (not draining, peer still open, and the
/// connection is not backlogged past the pipeline/outbuf caps), and
/// `EPOLLRDHUP` only until the read side has seen EOF — level-triggered,
/// it would otherwise wake the shard on every wait while a half-closed
/// peer's request is in flight.
fn update_interest(ctx: &Ctx, idx: usize, conn: &mut Conn) {
    let mut want = if conn.peer_closed { 0 } else { sys::EPOLLRDHUP };
    let backlogged =
        conn.pending.len() >= MAX_PIPELINE || conn.out.len() - conn.out_pos >= MAX_OUTBUF;
    if !ctx.draining && !conn.peer_closed && !backlogged {
        want |= sys::EPOLLIN;
    }
    if !conn.out_done() {
        want |= sys::EPOLLOUT;
    }
    if want != conn.interest
        && ctx
            .ep
            .modify(conn.stream.as_raw_fd(), want, conn_token(conn.gen, idx))
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Accept a burst of connections and deal them round-robin across
/// shards; remote shards get the stream through their mailbox plus an
/// eventfd knock. An `Err` is an accept failure that retrying at once
/// cannot fix, such as `EMFILE`/`ENFILE` (fd table full).
fn accept_burst(listener: &Listener, slab: &mut Slab, ctx: &Ctx) -> io::Result<()> {
    for _ in 0..ACCEPT_BURST {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        let n = ctx.shared.shards.len();
        let target = if n <= 1 {
            ctx.shard
        } else {
            ctx.shared.next_conn.fetch_add(1, Ordering::Relaxed) % n
        };
        if target == ctx.shard {
            slab.adopt(ctx, stream);
        } else {
            let remote = &ctx.shared.shards[target];
            remote.incoming.lock().unwrap().push(stream);
            remote.wake.signal();
        }
    }
    Ok(())
}

fn shard_loop(shard_id: usize, mut listener: Option<Listener>, shared: Arc<ReactorShared>) {
    let mailbox = Arc::clone(&shared.shards[shard_id]);
    let Ok(ep) = EpollFd::new() else { return };
    if ep.add(mailbox.wake.0, sys::EPOLLIN, WAKE_TOKEN).is_err() {
        return;
    }
    if let Some(l) = &listener {
        if ep.add(l.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN).is_err() {
            return;
        }
    }
    // Set while the listener sits out of the poll set after an accept
    // error: a full fd table leaves the backlog readable, and
    // level-triggered epoll would report it again at once — a busy spin
    // until some fd frees. Re-armed once a poll interval has passed.
    let mut accept_paused_until: Option<Instant> = None;
    let mut slab = Slab::default();
    let mut draining = false;
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    loop {
        let n = ep.wait(&mut events, POLL_INTERVAL);
        if let (Some(until), Some(l)) = (accept_paused_until, &listener) {
            if Instant::now() >= until
                && ep
                    .modify(l.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)
                    .is_ok()
            {
                accept_paused_until = None;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) && !draining {
            draining = true;
            if let Some(l) = listener.take() {
                ep.delete(l.as_raw_fd());
                drop(l); // stop accepting; frees the port for rebinding
            }
            let ctx = Ctx {
                ep: &ep,
                shared: &shared,
                shard: shard_id,
                draining,
            };
            slab.begin_drain(&ctx);
        }
        let ctx = Ctx {
            ep: &ep,
            shared: &shared,
            shard: shard_id,
            draining,
        };
        for ev in events.iter().take(n) {
            let ev = *ev; // copy out of the packed array before field reads
            let (mask, token) = (ev.events, ev.data);
            match token {
                WAKE_TOKEN => {
                    mailbox.wake.drain();
                    let incoming: Vec<Stream> =
                        std::mem::take(&mut *mailbox.incoming.lock().unwrap());
                    for stream in incoming {
                        slab.adopt(&ctx, stream);
                    }
                    let completions: Vec<Completion> =
                        std::mem::take(&mut *mailbox.completions.lock().unwrap());
                    for completion in completions {
                        slab.complete(&ctx, completion);
                    }
                }
                LISTENER_TOKEN => {
                    if let Some(l) = &listener {
                        if accept_burst(l, &mut slab, &ctx).is_err()
                            && ep.modify(l.as_raw_fd(), 0, LISTENER_TOKEN).is_ok()
                        {
                            accept_paused_until = Some(Instant::now() + POLL_INTERVAL);
                        }
                    }
                }
                token => slab.handle_event(&ctx, token, mask),
            }
        }
        if draining {
            if slab.live == 0 {
                return;
            }
            let deadline = *shared.deadline.lock().unwrap();
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    let ctx = Ctx {
                        ep: &ep,
                        shared: &shared,
                        shard: shard_id,
                        draining,
                    };
                    slab.abort_all(&ctx);
                    return;
                }
            }
        }
    }
}

/// Split a request line into its optional model route and document text:
/// `@name text…` routes to `name`, anything else is text for the default
/// model.
fn parse_request_line(line: &str) -> (Option<&str>, &str) {
    match line.strip_prefix('@') {
        Some(rest) => match rest.split_once(char::is_whitespace) {
            Some((name, text)) => (Some(name), text),
            None => (Some(rest), ""),
        },
        None => (None, line),
    }
}

/// A running epoll reactor: the connection machinery behind
/// [`TcpServer`](crate::TcpServer) and [`UnixServer`](crate::UnixServer).
/// Dropping it stops and joins every thread it started.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Start serving `listener`, routing each request line through
    /// `router`.
    pub(crate) fn start(
        listener: Listener,
        router: Arc<dyn Router>,
        limits: ProtocolLimits,
    ) -> io::Result<Self> {
        listener.set_nonblocking()?;
        let shard_count = shard_count();
        let mut mailboxes = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            mailboxes.push(Arc::new(ShardShared {
                wake: EventFd::new()?,
                completions: Mutex::new(Vec::new()),
                incoming: Mutex::new(Vec::new()),
            }));
        }
        let shared = Arc::new(ReactorShared {
            shutdown: Arc::new(AtomicBool::new(false)),
            deadline: Mutex::new(None),
            router,
            limits,
            shards: mailboxes,
            next_conn: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
            aborted: AtomicUsize::new(0),
        });
        let mut reactor = Self {
            shared: Arc::clone(&shared),
            shard_threads: Vec::with_capacity(shard_count),
        };
        let mut listener = Some(listener);
        for i in 0..shard_count {
            let shared = Arc::clone(&shared);
            let listener = listener.take(); // shard 0 owns the listener
            let spawned = std::thread::Builder::new()
                .name(format!("ct-reactor-{i}"))
                .spawn(move || shard_loop(i, listener, shared));
            match spawned {
                Ok(handle) => reactor.shard_threads.push(handle),
                Err(e) => {
                    reactor.stop(Duration::ZERO);
                    return Err(e);
                }
            }
        }
        Ok(reactor)
    }

    pub(crate) fn shutdown_handle(&self) -> Shutdown {
        Shutdown {
            flag: Arc::clone(&self.shared.shutdown),
        }
    }

    /// Signal shutdown, give connections with a request in flight until
    /// `drain` to receive their response, force-close stragglers, and
    /// join every thread. Calling it again after the threads are joined
    /// only re-reads the report.
    pub(crate) fn stop(&mut self, drain: Duration) -> ShutdownReport {
        *self.shared.deadline.lock().unwrap() = Some(Instant::now() + drain);
        self.shared.shutdown.store(true, Ordering::Release);
        for mailbox in &self.shared.shards {
            mailbox.wake.signal();
        }
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
        ShutdownReport {
            connections_drained: self.shared.drained.load(Ordering::Relaxed),
            connections_aborted: self.shared.aborted.load(Ordering::Relaxed),
        }
    }

    /// Block until a [`Shutdown`] signal (or until every shard exited on
    /// a listener error), then drain with a 5 s deadline.
    pub(crate) fn join(&mut self) -> ShutdownReport {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if self.shard_threads.iter().all(|t| t.is_finished()) {
                break; // listener error or all shards gone
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.stop(Duration::from_secs(5))
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // A dropped reactor must not leak threads: immediate-deadline
        // drain (idle connections close, busy ones are force-closed,
        // in-flight engine queries still complete) and join every shard.
        if !self.shard_threads.is_empty() {
            self.stop(Duration::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_line_routes_models() {
        assert_eq!(
            parse_request_line("plain doc text"),
            (None, "plain doc text")
        );
        assert_eq!(parse_request_line("@t1 doc text"), (Some("t1"), "doc text"));
        assert_eq!(parse_request_line("@t1"), (Some("t1"), ""));
        assert_eq!(parse_request_line(""), (None, ""));
        assert_eq!(parse_request_line(" @not-a-route"), (None, " @not-a-route"));
    }
}
