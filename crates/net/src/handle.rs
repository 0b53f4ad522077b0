//! The one server handle, whichever architecture serves.
//!
//! [`Server`] runs either the AMPED event-loop shards
//! ([`crate::server`]) or the thread-per-connection MT server
//! ([`crate::mt`]), picked by [`ServerKind`]. Everything that is not the
//! architecture is written here, once: binding the listeners (or
//! adopting a previous generation's) and keeping the handoff set, the
//! counters, the lifecycle state and every verb on it — drain, stop,
//! stop now, reload, log rotation. A driver only spawns its threads over
//! the listeners the handle prepared, into the one thread set the handle
//! keeps (`Threads`: what wakes them, how to join them, and the access
//! logs they write, which a rotation reopens in place). Neither
//! driver runs a thread whose only job is a deadline: a shard and an MT
//! connection thread each ask the lifecycle whether to sever
//! (`LifecycleShared::severs`) on their own loop.
//!
//! [`ServeHandle`] is the same surface as a trait, with one impl. It
//! stays because code outside this crate — the benchmark harness, the
//! driver-parameterised batteries — holds a server as
//! `Box<dyn ServeHandle>` from [`start`]: a signature they keep, not a
//! second server. The consuming teardown verbs take `self: Box<Self>`,
//! so a drained handle cannot be reused through the trait either.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::NetConfig;
use crate::event::{self, BackendChoice};
use crate::lifecycle::LifecycleShared;
use crate::pool::{JobQueue, WakeHandle};
use crate::sock::{self, AcceptMode};
use crate::stats::{AccessLogWriter, ServerStats};
use crate::{mt, server};

/// Which architecture a [`Server`] runs: the one switch point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerKind {
    /// The AMPED event-loop shards ([`crate::server`]).
    Amped,
    /// The thread-per-connection comparison server ([`crate::mt`]).
    Mt,
}

/// Handle to a running server; dropping it does **not** stop the
/// server — call [`Server::stop`] (drain with a short grace),
/// [`Server::drain`] (graceful, bounded by
/// [`NetConfig::drain_timeout`]), or [`Server::stop_now`] (immediate).
///
/// # Lifecycle
///
/// ```text
///            SIGHUP: reload_docroot() — connections undisturbed
///               ┌───┐
///               ▼   │
///  ┌─────────────────┐  drain()/SIGTERM   ┌──────────────┐  all conns done
///  │     serving     │ ─────────────────► │   draining   │ ─────┬─────────► exited
///  └─────────────────┘                    └──────────────┘      │
///               │                               │ drain_timeout │
///               │ stop_now()/SIGINT             ▼               │
///               └─────────────────────────► exited ◄────────────┘
/// ```
///
/// Draining closes the listeners, idle keep-alive connections close at
/// once (on MT within the 200 ms read cadence), and everything
/// mid-request — in-flight `sendfile` bodies, pipelined keep-alive
/// bursts — is served to completion or the deadline. For zero-downtime
/// restarts, hand the listener set to the next generation first (see
/// [`crate::handoff`] and [`Server::handoff_listeners`]), start it with
/// [`Server::start_inherited`], then drain this one: the kernel sockets
/// (and their accept backlogs) survive the switch, in both accept modes
/// and on both architectures.
pub struct Server {
    addr: SocketAddr,
    stats: ServerStats,
    backend: BackendChoice,
    accept_mode: AcceptMode,
    lifecycle: Arc<LifecycleShared>,
    drain_timeout: Duration,
    /// A duplicate of every kernel socket this server accepts from
    /// (plus any extras inherited from a previous generation), held
    /// for handoff: passing these to the next generation keeps the
    /// kernel sockets — and their backlogs — alive across the switch.
    /// Dropped when the server handle is consumed, so a plain
    /// stop/drain still releases the port.
    handoff: Vec<TcpListener>,
    threads: Threads,
}

impl Server {
    /// Binds `addr` and starts the AMPED shards and the shared helper
    /// pool ([`Server::start_as`] with [`ServerKind::Amped`]).
    pub fn start(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Server> {
        Server::start_as(ServerKind::Amped, addr, cfg)
    }

    /// Binds `addr` and starts a server of the given architecture.
    /// Every listener is bound before any thread exists, so an
    /// unbindable port is a clean error.
    pub fn start_as(
        kind: ServerKind,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<Server> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let reuseport = accepting(kind, &cfg).0 == AcceptMode::ReusePort;
        let first = sock::bind_listener(addr, reuseport)?;
        Server::start_inherited_as(kind, cfg, vec![first])
    }

    /// [`Server::start_inherited_as`] with [`ServerKind::Amped`].
    pub fn start_inherited(cfg: NetConfig, inherited: Vec<TcpListener>) -> io::Result<Server> {
        Server::start_inherited_as(ServerKind::Amped, cfg, inherited)
    }

    /// Starts a server on listening sockets inherited from a previous
    /// generation (see [`crate::handoff`]) instead of binding fresh
    /// ones — the kernel sockets, and every connection queued in
    /// their backlogs, carry over from the old generation, so the
    /// switch drops nothing even in the `Single`/non-reuseport mode
    /// where a same-port rebind is impossible.
    ///
    /// In single mode (and on MT, which accepts from one socket) the
    /// first inherited listener serves everything; in reuseport mode
    /// the inherited set is dealt to the shards in order, and if there
    /// are fewer listeners than shards the remainder bind fresh
    /// `SO_REUSEPORT` siblings on the same port. Inherited listeners
    /// beyond what the accept path needs are not closed — they stay in
    /// this server's handoff set ([`Server::handoff_listeners`]),
    /// because closing the last duplicate of a listening socket RSTs
    /// its queued connections; still, matching `event_loops` across
    /// generations is the clean configuration.
    ///
    /// Every start comes through here. A config that
    /// [`NetConfig::validate`] refuses is an `InvalidInput` error
    /// carrying its reason: no thread is spawned, and the listeners
    /// are dropped, so the port is free again.
    pub fn start_inherited_as(
        kind: ServerKind,
        cfg: NetConfig,
        inherited: Vec<TcpListener>,
    ) -> io::Result<Server> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let (accept_mode, n) = accepting(kind, &cfg);
        let (mut listeners, handoff) = listeners(inherited, n, accept_mode)?;
        let addr = listeners[0].local_addr()?;
        let lifecycle = Arc::new(LifecycleShared::default());
        let (backend, drain_timeout) = (event::resolve(cfg.backend), cfg.drain_timeout);
        let mut threads = Threads::default();
        let spawned = match kind {
            ServerKind::Amped => server::spawn(listeners, &cfg, &lifecycle, &mut threads),
            ServerKind::Mt => mt::spawn(listeners.remove(0), cfg, &lifecycle, &mut threads),
        };
        let stats = match spawned {
            Ok(stats) => stats,
            Err(e) => {
                // What did start is torn down, as by a stop now: an
                // abandoned loop would hold its listener for the
                // process lifetime, and the port is released before the
                // error is returned.
                lifecycle.stop_now();
                threads.halt_and_join();
                return Err(e);
            }
        };
        Ok(Server {
            addr,
            stats: ServerStats::new(stats),
            backend,
            accept_mode,
            lifecycle,
            drain_timeout,
            handoff,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters, aggregated over shards on read (MT is one
    /// "shard": every connection thread writes the same atomics).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The readiness backend this server runs.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// The accept mode this server runs (`Single` on MT).
    pub fn accept_mode(&self) -> AcceptMode {
        self.accept_mode
    }

    /// The handoff set: duplicates of every listening socket this
    /// server accepts from. Send these to the next generation
    /// ([`crate::handoff::send_listeners`]) before draining this one —
    /// the kernel sockets and their accept backlogs then survive the
    /// generation switch.
    pub fn handoff_listeners(&self) -> &[TcpListener] {
        &self.handoff
    }

    /// Grace period [`Server::stop`] allows in-flight responses: long
    /// enough for any response already being written to go out whole
    /// on a healthy link, short enough that tests and tools calling
    /// `stop()` stay snappy.
    const STOP_GRACE: Duration = Duration::from_secs(1);

    /// Drains gracefully, bounded by [`NetConfig::drain_timeout`]:
    /// accepting stops everywhere, idle keep-alive connections are
    /// closed, connections mid-request — including in-flight
    /// `sendfile` bodies and pipelined keep-alive bursts already
    /// buffered — are served to completion, and every thread exits
    /// when its last connection finishes (or the deadline severs the
    /// rest). This is the SIGTERM order in the lifecycle diagram above.
    pub fn drain(self) {
        let grace = self.drain_timeout;
        self.drain_for(grace);
    }

    /// [`Server::drain`] with an explicit grace bound.
    pub fn drain_for(mut self, grace: Duration) {
        self.lifecycle.begin_drain(Instant::now() + grace);
        // This generation's claim on the port ends now: the handoff
        // dups close here, and each listener closes with the loop that
        // accepts from it, before any connection is waited for. A next
        // generation that already received inherited dups keeps the
        // kernel sockets — and their accept backlogs — alive; without
        // one, a fresh bind fully owns the port while we drain instead
        // of sharing it with sockets nobody is accepting from.
        self.handoff.clear();
        self.threads.halt_and_join();
    }

    /// Stops the server through the drain path with a short bounded
    /// grace (min of [`NetConfig::drain_timeout`] and 1 s): a response
    /// already being written goes out whole instead of being truncated
    /// mid-body, idle connections close, and anything slower than the
    /// grace is severed. Tests that need an instant teardown use
    /// [`Server::stop_now`].
    pub fn stop(self) {
        let grace = self.drain_timeout.min(Self::STOP_GRACE);
        self.drain_for(grace);
    }

    /// Stops immediately, severing in-flight connections — the SIGINT
    /// order.
    pub fn stop_now(mut self) {
        self.lifecycle.stop_now();
        self.threads.halt_and_join();
    }

    /// Publishes a new document root: every shard or connection thread
    /// swaps its config and the content cache is flushed between
    /// drives — in-flight requests finish undisturbed, the next request
    /// on every connection (including currently open keep-alives) is
    /// served from the new root. This is the SIGHUP order; completions
    /// from jobs dispatched before the swap are served to their waiters
    /// but not cached (epoch-checked), so pre-reload bytes cannot
    /// poison the post-reload cache. A reload is also a log boundary:
    /// the access logs reopen ([`Server::rotate_access_logs`]), so a
    /// rotation bundled with the SIGHUP takes effect too.
    pub fn reload_docroot(&self, docroot: impl Into<PathBuf>) {
        self.lifecycle.publish_reload(docroot.into());
        self.threads.wake();
        self.rotate_access_logs();
    }

    /// Reopens every access-log writer at its configured path — the
    /// logrotate handshake: rename the file, send SIGHUP (or call
    /// this), and the writers close the renamed inode and append to a
    /// fresh one. Each writer reopens under the lock its batches are
    /// written under, so when this returns every later batch lands in
    /// the fresh file and no line is lost or torn across the swap. A
    /// no-op unless [`NetConfig::access_log_path`] is set.
    pub fn rotate_access_logs(&self) {
        for log in &self.threads.logs {
            log.reopen();
        }
    }
}

/// How `kind` accepts under `cfg`: the accept mode, and how many loops
/// accept. MT accepts on one thread, from one kernel socket; each shard
/// accepts for itself, in the configured mode — where the kernel does
/// not load-balance reuseport, from the shared socket.
fn accepting(kind: ServerKind, cfg: &NetConfig) -> (AcceptMode, usize) {
    match kind {
        ServerKind::Amped if sock::platform_has_reuseport() => (cfg.accept_mode, cfg.event_loops),
        ServerKind::Amped => (AcceptMode::Single, cfg.event_loops),
        ServerKind::Mt => (AcceptMode::Single, 1),
    }
}

/// The `n` listening descriptors a driver accepts from, made from the
/// `given` ones (freshly bound, or a previous generation's — adopted
/// either way), and the handoff set beside them. The first fixes the
/// port; each further one is the next given reuseport socket, a fresh
/// reuseport sibling on the same address or, in single mode, one more
/// descriptor for the first's kernel socket. The handoff set holds one
/// duplicate of every kernel socket the accept path uses, plus the given
/// extras (closing the last dup of a listening socket would RST its
/// queued connections — extras ride along to the next generation
/// instead).
fn listeners(
    given: Vec<TcpListener>,
    n: usize,
    mode: AcceptMode,
) -> io::Result<(Vec<TcpListener>, Vec<TcpListener>)> {
    for l in &given {
        sock::adopt_listener(l)?;
    }
    let mut given = given.into_iter();
    let Some(first) = given.next() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "start_inherited requires at least one listener",
        ));
    };
    let reuseport = mode == AcceptMode::ReusePort;
    let addr = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..n {
        let next = if !reuseport {
            listeners[0].try_clone()?
        } else if let Some(l) = given.next() {
            l
        } else {
            // Fewer given listeners than shards: the rest bind fresh
            // reuseport siblings (the given sockets carry SO_REUSEPORT,
            // so the shared bind is permitted).
            sock::bind_listener(addr, true)?
        };
        listeners.push(next);
    }
    let kernel_sockets = if reuseport { n } else { 1 };
    let handoff = listeners[..kernel_sockets]
        .iter()
        .map(TcpListener::try_clone)
        .chain(given.map(Ok))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((listeners, handoff))
}

/// The threads a driver spawned: its loop threads — the shards, or MT's
/// accept thread, which joins its connection threads on the way out —
/// and, behind the shards, the helper pool; and the access-log writers
/// they append to.
#[derive(Default)]
pub(crate) struct Threads {
    /// One per loop thread: poked when a reload is published, forced
    /// at halt.
    pub(crate) wakes: Vec<WakeHandle>,
    pub(crate) loops: Vec<JoinHandle<()>>,
    /// The helpers' queue and threads: released once no loop is left
    /// to feed them.
    pub(crate) pool: Option<(Arc<JobQueue>, Vec<JoinHandle<()>>)>,
    /// Every access-log writer (one per shard, one for MT): a rotation
    /// reopens them here.
    pub(crate) logs: Vec<Arc<AccessLogWriter>>,
}

impl Threads {
    fn wake(&self) {
        for wake in &self.wakes {
            wake.wake();
        }
    }

    /// Wakes every loop and joins every thread. The lifecycle has left
    /// the running phase first, so each loop sees it on this wake: it
    /// closes its listener, then serves out or severs what it holds —
    /// the drain deadline is enforced by the loops themselves. When
    /// this returns the port is released (unless a next generation
    /// holds inherited duplicates — the point of handoff).
    pub(crate) fn halt_and_join(&mut self) {
        for wake in &self.wakes {
            wake.wake_force();
        }
        for t in self.loops.drain(..) {
            let _ = t.join();
        }
        if let Some((jobs, helpers)) = self.pool.take() {
            jobs.close();
            for t in helpers {
                let _ = t.join();
            }
        }
    }
}

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
        self.addr
    }
    fn stats(&self) -> &ServerStats {
        &self.stats
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

/// [`Server::start_as`] behind the [`ServeHandle`] box.
pub fn start(
    kind: ServerKind,
    addr: impl ToSocketAddrs,
    cfg: NetConfig,
) -> io::Result<Box<dyn ServeHandle>> {
    Ok(Box::new(Server::start_as(kind, addr, cfg)?))
}
