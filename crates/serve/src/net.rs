//! The wire protocol, its framing and routing, and its clients.
//!
//! The protocol is line-oriented in both directions:
//!
//! - **request**: one line of raw document text, optionally prefixed
//!   with `@model ` to route to a named registry entry (a document that
//!   must literally start with `@` can be sent with a leading space —
//!   the tokenizer ignores it);
//! - **response**: one line of JSON — either a
//!   [`QueryResponse`] object or
//!   `{"error":"<kind>","message":"..."}` with the
//!   [`ServeError::kind`](crate::ServeError::kind) tag.
//!
//! Request lines are capped at
//! [`ProtocolLimits::max_request_bytes`]; an oversized line is
//! discarded in constant memory, answered with a typed
//! `request_too_large` error, and the connection stays usable.
//!
//! The servers (`TcpServer` and `UnixServer`, Linux only) frame with
//! [`LineAssembler`] and answer through a [`Router`]; the clients here
//! ([`TcpClient`], [`query_tcp`], and `query_unix` on Unix) build on any
//! platform.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::encode::DocEncoder;
use crate::engine::{wait_for, InferenceModel, Reply, ServeHandle};
use crate::error::ServeError;
use crate::snapshot::QueryResponse;

/// Framing limits shared by every listener.
#[derive(Clone, Debug)]
pub struct ProtocolLimits {
    /// Longest accepted request line in bytes (excluding the newline).
    /// Longer lines are discarded in constant memory and answered with
    /// [`ServeError::RequestTooLarge`].
    pub max_request_bytes: usize,
}

impl Default for ProtocolLimits {
    fn default() -> Self {
        Self {
            max_request_bytes: 64 * 1024,
        }
    }
}

/// Resolves a request line to a response: the pluggable routing layer
/// between the listeners and the engine(s).
///
/// [`SingleModel`] adapts one [`ServeHandle`] (the classic single-tenant
/// server); [`ModelRegistry`](crate::ModelRegistry) routes the `@model`
/// field across many named engines with fair-share admission.
pub trait Router: Send + Sync + 'static {
    /// Route `text` to `model` (`None` = the default model) and deliver
    /// the outcome to `reply`. Must not block: the reactor calls it on
    /// its event-loop thread, and routing, encoding and admission errors
    /// run `reply` before it returns.
    fn submit(&self, model: Option<&str>, text: &str, reply: Reply);

    /// [`Router::submit`], blocking until the response is ready.
    fn answer(&self, model: Option<&str>, text: &str) -> Result<Arc<QueryResponse>, ServeError> {
        wait_for(|reply| self.submit(model, text, reply)).map(|outcome| outcome.response)
    }
}

/// A [`Router`] over exactly one engine handle: every request goes to the
/// same model, and naming any model via `@name` is rejected with
/// [`ServeError::UnknownModel`] rather than silently answered by the
/// wrong tenant.
pub struct SingleModel<M: InferenceModel> {
    handle: ServeHandle<M>,
    encoder: DocEncoder,
}

impl<M: InferenceModel> SingleModel<M> {
    /// Route every request to `handle`, encoding text with `encoder`.
    pub fn new(handle: ServeHandle<M>, encoder: DocEncoder) -> Self {
        Self { handle, encoder }
    }
}

impl<M: InferenceModel> Router for SingleModel<M> {
    fn submit(&self, model: Option<&str>, text: &str, reply: Reply) {
        if let Some(name) = model {
            return reply.run(Err(ServeError::UnknownModel { model: name.into() }));
        }
        match self.encoder.encode(text) {
            Ok(doc) => self.handle.submit(doc, reply),
            Err(e) => reply.run(Err(e)),
        }
    }
}

/// One parsed frame off a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete request line (newline stripped, lossy UTF-8).
    Line(String),
    /// A line that exceeded the size cap; its bytes were discarded.
    TooLarge,
}

/// Incremental, bounded line assembly: the transport-independent core of
/// the wire framing.
///
/// Bytes are pushed in with [`LineAssembler::feed`] in chunks of *any*
/// size — a line may be split across arbitrarily many feeds (down to one
/// byte each) — and completed frames are popped with
/// [`LineAssembler::next_frame`]. Unlike `BufReader::lines`, a line that
/// never ends cannot grow memory without limit: once the cap is crossed
/// the assembler switches to a constant-memory discard of the rest of
/// the line and reports [`Frame::TooLarge`] when the terminator finally
/// arrives.
///
/// The reactor feeds it whatever each nonblocking read returns, so the
/// 64 KiB cap, CR stripping, and lossy UTF-8 decoding are the same for
/// every listener. A trailing CR counts toward the cap before it is
/// stripped.
pub struct LineAssembler {
    line: Vec<u8>,
    ready: VecDeque<Frame>,
    discarding: bool,
    max: usize,
}

impl LineAssembler {
    /// An empty assembler with a `max`-byte line cap (excluding the
    /// newline).
    pub fn new(max: usize) -> Self {
        Self {
            line: Vec::new(),
            ready: VecDeque::new(),
            discarding: false,
            max,
        }
    }

    /// Feed one chunk of received bytes; any frames completed by the
    /// chunk become available via [`LineAssembler::next_frame`].
    pub fn feed(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let over = self.discarding || self.line.len() + pos > self.max;
                    if !over {
                        self.line.extend_from_slice(&chunk[..pos]);
                    }
                    chunk = &chunk[pos + 1..];
                    self.discarding = false;
                    if over {
                        self.line.clear();
                        self.ready.push_back(Frame::TooLarge);
                        continue;
                    }
                    if self.line.last() == Some(&b'\r') {
                        self.line.pop();
                    }
                    let text = String::from_utf8_lossy(&self.line).into_owned();
                    self.line.clear();
                    self.ready.push_back(Frame::Line(text));
                }
                None => {
                    if !self.discarding {
                        if self.line.len() + chunk.len() > self.max {
                            self.line.clear();
                            self.discarding = true;
                        } else {
                            self.line.extend_from_slice(chunk);
                        }
                    }
                    chunk = &[];
                }
            }
        }
    }

    /// Pop the next completed frame, if any.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Whether an unterminated partial line (or a discard in progress)
    /// is buffered — at EOF such a tail is dropped, since the peer is
    /// gone and cannot receive a response anyway.
    pub fn has_partial(&self) -> bool {
        !self.line.is_empty() || self.discarding
    }

    /// Bytes currently held for the partial line — bounded by the cap
    /// even while discarding an arbitrarily long oversized line (the
    /// constant-memory contract, pinned by tests).
    pub fn partial_capacity(&self) -> usize {
        self.line.capacity()
    }
}

/// Cloneable handle that signals a server to shut down: the server
/// closes its listener and in-flight connections drain. Signalling is
/// asynchronous — pair it with the server's `shutdown` (or `join`) to
/// actually wait for the drain.
#[derive(Clone)]
pub struct Shutdown {
    pub(crate) flag: Arc<AtomicBool>,
}

impl Shutdown {
    /// Ask the server to stop accepting and start draining.
    pub fn signal(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

/// Outcome of a graceful shutdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Connections that finished their in-flight request and closed
    /// within the drain deadline.
    pub connections_drained: usize,
    /// Connections force-closed at the deadline.
    pub connections_aborted: usize,
}

/// Persistent client connection speaking the line protocol over TCP —
/// the client side of `TcpServer`, also used by the `load_gen`
/// benchmark driver.
pub struct TcpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpClient {
    /// Connect to a `TcpServer`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Send one document (newlines flattened to spaces, `@model ` prefix
    /// included by the caller if routing) and return the raw JSON
    /// response line.
    pub fn query_line(&mut self, text: &str) -> io::Result<String> {
        round_trip(&mut self.writer, &mut self.reader, text)
    }
}

/// Write `text` as one request line and read back one response line.
fn round_trip(
    writer: &mut impl Write,
    reader: &mut impl BufRead,
    text: &str,
) -> io::Result<String> {
    let one_line = text.replace('\n', " ");
    writer.write_all(one_line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// One-shot client helper: connect to `addr`, send each document of
/// `texts` as one line, and collect one JSON response line per document.
pub fn query_tcp(addr: impl ToSocketAddrs, texts: &[&str]) -> io::Result<Vec<String>> {
    let mut client = TcpClient::connect(addr)?;
    texts.iter().map(|text| client.query_line(text)).collect()
}

/// [`query_tcp`] over the Unix socket at `path`.
#[cfg(unix)]
pub fn query_unix(path: impl AsRef<std::path::Path>, texts: &[&str]) -> io::Result<Vec<String>> {
    let stream = std::os::unix::net::UnixStream::connect(path)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    texts
        .iter()
        .map(|text| round_trip(&mut writer, &mut reader, text))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(text: &str) -> Frame {
        Frame::Line(text.into())
    }

    #[test]
    fn assembler_is_feed_boundary_invariant() {
        // Each byte stream must produce the same frames, and leave the
        // same unterminated tail held back, no matter how it is sliced
        // into feeds — including one byte at a time.
        let mut oversized = vec![b'y'; 100];
        oversized.extend_from_slice(b"\nok\n");
        let cases: [(usize, &[u8], Vec<Frame>, bool); 5] = [
            (
                64,
                b"first line\r\nsecond\n\nthird one\n",
                vec![
                    line("first line"),
                    line("second"),
                    line(""),
                    line("third one"),
                ],
                false,
            ),
            // An over-cap line is rejected and the next one recovers.
            (
                8,
                b"short\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\nafter\n",
                vec![line("short"), Frame::TooLarge, line("after")],
                false,
            ),
            // The CR counts toward the cap and is stripped afterwards:
            // with cap 9, `12345678\r` fits; a 10-byte line does not.
            (
                9,
                b"12345678\r\n1234567890\n",
                vec![line("12345678"), Frame::TooLarge],
                false,
            ),
            (8, &oversized, vec![Frame::TooLarge, line("ok")], false),
            // An unterminated tail is held back, never emitted.
            (64, b"done\npartial", vec![line("done")], true),
        ];
        for (cap, data, expected, partial) in &cases {
            for chunk_size in [1usize, 2, 3, 7, data.len()] {
                let mut asm = LineAssembler::new(*cap);
                for chunk in data.chunks(chunk_size) {
                    asm.feed(chunk);
                }
                let frames: Vec<Frame> = std::iter::from_fn(|| asm.next_frame()).collect();
                let context = format!(
                    "{:?} chunk_size {chunk_size}",
                    String::from_utf8_lossy(data)
                );
                assert_eq!(&frames, expected, "{context}");
                assert_eq!(asm.has_partial(), *partial, "{context}");
            }
        }
    }

    #[test]
    fn assembler_discards_oversized_line_spanning_many_feeds() {
        let mut asm = LineAssembler::new(8);
        for _ in 0..10_000 {
            asm.feed(b"x");
            // Constant memory while discarding, no frame until newline.
            assert!(asm.partial_capacity() <= 16, "{}", asm.partial_capacity());
            assert!(asm.next_frame().is_none());
        }
        asm.feed(b"\nok\n");
        assert_eq!(asm.next_frame(), Some(Frame::TooLarge));
        assert_eq!(asm.next_frame(), Some(line("ok")));
        assert_eq!(asm.next_frame(), None);
    }

    #[test]
    fn assembler_multiple_frames_in_one_feed_and_partial_tail() {
        let mut asm = LineAssembler::new(64);
        asm.feed(b"a\nb\nc");
        assert_eq!(asm.next_frame(), Some(line("a")));
        assert_eq!(asm.next_frame(), Some(line("b")));
        assert_eq!(asm.next_frame(), None);
        assert!(asm.has_partial(), "unterminated 'c' must be held back");
        asm.feed(b"d\n");
        assert_eq!(asm.next_frame(), Some(line("cd")));
    }

    #[test]
    fn assembler_binary_garbage_decodes_lossily() {
        let mut asm = LineAssembler::new(64);
        asm.feed(&[0xff, 0xfe, b'o', b'k', 0x80]);
        asm.feed(b"\n");
        match asm.next_frame() {
            Some(Frame::Line(l)) => {
                assert!(l.contains("ok"), "{l:?}");
                assert!(
                    l.contains('\u{fffd}'),
                    "invalid bytes must map to U+FFFD: {l:?}"
                );
            }
            other => panic!("expected a lossy line, got {other:?}"),
        }
    }
}
