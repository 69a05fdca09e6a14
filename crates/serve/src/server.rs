//! The network front ends: a TCP server and a Unix-socket server, both
//! thin shells over one epoll reactor (Linux only).
//!
//! The two servers differ only in how they bind. Accept, framing,
//! routing, replies and graceful shutdown are one code path in the
//! reactor, so the wire protocol (see [`crate::net`]) behaves the same on
//! either socket family. [`UnixServer`] additionally owns the socket
//! file: it probes a leftover path before binding and removes the file
//! when it stops.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::encode::DocEncoder;
use crate::engine::{InferenceModel, ServeHandle};
use crate::net::{ProtocolLimits, Router, Shutdown, ShutdownReport, SingleModel};
use crate::reactor::{Listener, Reactor};

/// A TCP front end for the serving engine, with graceful shutdown.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use ct_serve::{ModelRegistry, ProtocolLimits, RegistryConfig, TcpServer};
/// let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig::default()));
/// // … register_snapshot("tenant-a", snapshot) …
/// let server = TcpServer::bind("127.0.0.1:7070", registry, ProtocolLimits::default())?;
/// let stop = server.shutdown_handle();
/// // … later, from any thread:
/// stop.signal();
/// let report = server.shutdown(std::time::Duration::from_secs(5));
/// assert_eq!(report.connections_aborted, 0);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TcpServer {
    reactor: Reactor,
    local_addr: SocketAddr,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// accepting connections routed through `router`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<dyn Router>,
        limits: ProtocolLimits,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::start(Listener::Tcp(listener), router, limits)?;
        Ok(Self {
            reactor,
            local_addr,
        })
    }

    /// The bound address (resolves the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable [`Shutdown`] trigger for this server.
    pub fn shutdown_handle(&self) -> Shutdown {
        self.reactor.shutdown_handle()
    }

    /// Gracefully shut down: stop accepting, give in-flight connections
    /// until `drain` to finish, force-close stragglers, join every
    /// server thread. Idle connections with no request in flight are
    /// closed (and counted as drained) immediately.
    pub fn shutdown(mut self, drain: Duration) -> ShutdownReport {
        self.reactor.stop(drain)
    }

    /// Block for the lifetime of the server (foreground mode): returns
    /// only after a [`Shutdown`] signal or a listener error, then drains.
    pub fn join(mut self) -> ShutdownReport {
        self.reactor.join()
    }
}

/// A listening Unix-socket server bound to a path.
///
/// The socket-family twin of [`TcpServer`]: same reactor, protocol,
/// routing and graceful shutdown. Shutting down, joining or dropping
/// the server removes the socket file.
pub struct UnixServer {
    reactor: Reactor,
    path: PathBuf,
}

impl UnixServer {
    /// Bind `path` and serve every request through `handle` with text
    /// encoded by `encoder` — the single-model convenience over
    /// [`UnixServer::bind_router`]. Returns once the socket is bound and
    /// listening.
    pub fn bind<M: InferenceModel>(
        path: impl AsRef<Path>,
        handle: ServeHandle<M>,
        encoder: DocEncoder,
    ) -> io::Result<Self> {
        Self::bind_router(
            path,
            Arc::new(SingleModel::new(handle, encoder)),
            ProtocolLimits::default(),
        )
    }

    /// Bind `path` and route requests through `router` (e.g. a
    /// [`crate::ModelRegistry`] for multi-tenant serving).
    ///
    /// A leftover socket file is only removed after probing it: if
    /// something still accepts connections on `path`, binding fails with
    /// [`io::ErrorKind::AddrInUse`] instead of silently clobbering a
    /// live server (unlinking it would strand that server on a socket
    /// nobody can reach).
    pub fn bind_router(
        path: impl AsRef<Path>,
        router: Arc<dyn Router>,
        limits: ProtocolLimits,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "{} is already being served (a live listener accepted a probe \
                             connection); refusing to clobber it",
                            path.display()
                        ),
                    ));
                }
                Err(_) => std::fs::remove_file(&path)?,
            }
        }
        let listener = UnixListener::bind(&path)?;
        let reactor = match Reactor::start(Listener::Unix(listener), router, limits) {
            Ok(reactor) => reactor,
            Err(e) => {
                std::fs::remove_file(&path).ok();
                return Err(e);
            }
        };
        Ok(Self { reactor, path })
    }

    /// A cloneable [`Shutdown`] trigger for this server.
    pub fn shutdown_handle(&self) -> Shutdown {
        self.reactor.shutdown_handle()
    }

    /// Gracefully shut down: stop accepting, give in-flight connections
    /// until `drain` to finish the request they are serving, force-close
    /// stragglers, join every server thread, and remove the socket file.
    pub fn shutdown(mut self, drain: Duration) -> ShutdownReport {
        self.reactor.stop(drain)
    }

    /// Block the calling thread for the lifetime of the server (the
    /// `contratopic serve` foreground mode): returns only after a
    /// [`Shutdown`] signal or a listener error, then drains and removes
    /// the socket file.
    pub fn join(mut self) -> ShutdownReport {
        self.reactor.join()
    }
}

impl Drop for UnixServer {
    fn drop(&mut self) {
        // Stop before unlinking (a no-op after `shutdown`/`join`).
        self.reactor.stop(Duration::ZERO);
        std::fs::remove_file(&self.path).ok();
    }
}
