//! One server-facing surface for both architectures.
//!
//! [`Server`] (AMPED shards) and [`MtServer`] (thread-per-connection)
//! expose the same operational verbs — address, stats, docroot reload,
//! drain, stop — but as inherent methods on two unrelated types, so
//! every loopback battery, lifecycle test, and example that compares
//! the two grew its own per-server match arms. [`ServeHandle`] is that
//! shared surface as a trait: code that only *operates* a server
//! (rather than starting one) takes a `Box<dyn ServeHandle>` and stops
//! caring which architecture is behind it.
//!
//! The consuming teardown verbs (`drain`, `stop`) take
//! `self: Box<Self>` because both servers consume themselves on
//! teardown — a drained handle cannot be reused, and the trait keeps
//! that guarantee instead of weakening it to `&mut self`.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;

use crate::config::NetConfig;
use crate::mt::MtServer;
use crate::server::Server;
use crate::stats::ServerStats;

/// The architecture-independent handle to a running server: everything
/// an operator (or a test battery) does to a server it did not start.
pub trait ServeHandle {
    /// The bound listening address.
    fn local_addr(&self) -> SocketAddr;

    /// The registry-backed counters and latency histograms.
    fn stats(&self) -> &ServerStats;

    /// Publishes a new document root without dropping a connection.
    fn reload_docroot(&self, docroot: PathBuf);

    /// Graceful teardown bounded by the configured drain timeout.
    fn drain(self: Box<Self>);

    /// Teardown with a short bounded grace for in-flight responses.
    fn stop(self: Box<Self>);
}

impl ServeHandle for Server {
    fn local_addr(&self) -> SocketAddr {
        self.addr()
    }
    fn stats(&self) -> &ServerStats {
        Server::stats(self)
    }
    fn reload_docroot(&self, docroot: PathBuf) {
        Server::reload_docroot(self, docroot);
    }
    fn drain(self: Box<Self>) {
        Server::drain(*self);
    }
    fn stop(self: Box<Self>) {
        Server::stop(*self);
    }
}

impl ServeHandle for MtServer {
    fn local_addr(&self) -> SocketAddr {
        self.addr()
    }
    fn stats(&self) -> &ServerStats {
        MtServer::stats(self)
    }
    fn reload_docroot(&self, docroot: PathBuf) {
        MtServer::reload_docroot(self, docroot);
    }
    fn drain(self: Box<Self>) {
        MtServer::drain(*self);
    }
    fn stop(self: Box<Self>) {
        MtServer::stop(*self);
    }
}

/// Which architecture to start — the one switch point left once
/// everything downstream goes through [`ServeHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerKind {
    /// The AMPED event-loop shards ([`Server`]).
    Amped,
    /// The thread-per-connection comparison server ([`MtServer`]).
    Mt,
}

/// Starts a server of the given architecture and returns it behind the
/// shared handle — the single entry point driver-parameterized tests
/// and examples loop over.
pub fn start(
    kind: ServerKind,
    addr: impl ToSocketAddrs,
    cfg: NetConfig,
) -> io::Result<Box<dyn ServeHandle>> {
    Ok(match kind {
        ServerKind::Amped => Box::new(Server::start(addr, cfg)?),
        ServerKind::Mt => Box::new(MtServer::start(addr, cfg)?),
    })
}
