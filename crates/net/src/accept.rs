//! The accept loop both servers share: a listener and a stop pipe in
//! one readiness backend, drained to `EWOULDBLOCK` per cycle, handing
//! each connection to an [`AcceptSink`] — the AMPED single-acceptor
//! mode deals to the shards ([`ShardDealer`]), the MT server spawns a
//! thread. Reuseport shards accept for themselves
//! ([`crate::server`]) and never come through here.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::conn::ShardStats;
use crate::event::{new_backend, BackendChoice, Event, EventBackend, Interest};
use crate::pool::WakeHandle;

/// Token for an accept loop's listener registration.
const ACCEPT_LISTENER_TOKEN: u64 = 0;
/// Token for an accept loop's stop pipe.
const ACCEPT_STOP_TOKEN: u64 = 1;

/// Creates an accept loop's readiness backend with the listener and
/// stop pipe already registered — called on the *starting* thread so a
/// registration failure surfaces as a start error rather than a
/// silently deaf accept thread.
pub(crate) fn prepare_accept_backend(
    choice: BackendChoice,
    listener: &TcpListener,
    stop_rx: &UnixStream,
) -> io::Result<Box<dyn EventBackend>> {
    let mut backend = new_backend(choice);
    stop_rx.set_nonblocking(true)?;
    backend.register(listener.as_raw_fd(), ACCEPT_LISTENER_TOKEN, Interest::READ)?;
    backend.register(stop_rx.as_raw_fd(), ACCEPT_STOP_TOKEN, Interest::READ)?;
    Ok(backend)
}

/// What an accept loop does with each connection (and between drains);
/// the loop mechanics — wait, drain, retry — are shared between the
/// AMPED acceptor (deal to shards) and the MT server (spawn a worker).
pub(crate) trait AcceptSink {
    /// Called once per accepted connection.
    fn on_conn(&mut self, stream: TcpStream);
    /// Called once per wait/drain cycle (worker reaping and the like).
    fn after_drain(&mut self) {}
}

/// The accept loop over a prepared backend (see
/// [`prepare_accept_backend`]): blocks with an infinite timeout — the
/// stop pipe is the shutdown signal, so no polling interval is burned
/// while idle and shutdown latency is one pipe write, not a timeout
/// expiry — and drains accepts to `EWOULDBLOCK` per readiness cycle.
/// An accept failure other than `EWOULDBLOCK` (EMFILE/ENFILE under fd
/// exhaustion) bounds the next wait to a short retry instead: the
/// readiness edge is consumed but connections may still be queued, and
/// an edge-triggered backend reports each arrival only once.
pub(crate) fn run_accept_loop(
    listener: &TcpListener,
    mut backend: Box<dyn EventBackend>,
    shutdown: &AtomicBool,
    sink: &mut dyn AcceptSink,
) {
    let mut events: Vec<Event> = Vec::new();
    let mut retry_accept = false;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let timeout = if retry_accept { 10 } else { -1 };
        if backend.wait(&mut events, timeout).is_err() {
            continue;
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if events.iter().any(|e| e.token == ACCEPT_LISTENER_TOKEN) || retry_accept {
            retry_accept = false;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Linux copies the listener's TCP_NODELAY to
                        // the accepted socket (`crate::sock`).
                        #[cfg(not(any(target_os = "linux", target_os = "android")))]
                        let _ = stream.set_nodelay(true);
                        sink.on_conn(stream)
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        retry_accept = true;
                        break;
                    }
                }
            }
        }
        sink.after_drain();
    }
}

/// The AMPED acceptor's sink: deals accepted connections round-robin
/// to the shards, waking each target through its wake pipe.
pub(crate) struct ShardDealer {
    pub(crate) conn_txs: Vec<Sender<TcpStream>>,
    pub(crate) wakes: Vec<WakeHandle>,
    pub(crate) stats: Vec<Arc<ShardStats>>,
    pub(crate) next: usize,
}

impl AcceptSink for ShardDealer {
    fn on_conn(&mut self, stream: TcpStream) {
        // The one per-connection call this path keeps: the accept
        // loop is shared with the MT server, whose sockets must block.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.conn_txs[self.next].send(stream).is_ok() {
            self.stats[self.next]
                .accepted
                .fetch_add(1, Ordering::Relaxed);
            self.wakes[self.next].wake();
        }
        self.next = (self.next + 1) % self.conn_txs.len();
    }
}
