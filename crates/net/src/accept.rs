//! The MT server's accept loop: a listener and a wake pipe in one
//! readiness backend, drained to `EWOULDBLOCK` per cycle, each
//! connection handed to the caller's closure (MT spawns a thread), until
//! the server leaves the running phase. The AMPED shards accept for
//! themselves in both accept modes ([`crate::server`]) and share only
//! [`is_transient`] with this loop.
//!
//! This loop keeps the edge-triggered contract the shards' listeners
//! left ([`crate::event`], *The listener is level-triggered*): it
//! drains to `EWOULDBLOCK`, paying the `accept4` that finds the backlog
//! empty, because its `EMFILE` retry is built on one report per
//! arrival — once an accept fails, no further report comes for the
//! connections still queued, so a timed retry drains them all. Taking
//! one connection per report would mean reworking that retry for a
//! thread-per-connection server, whose thread spawn costs far more
//! than the call it would save.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

use crate::event::{new_backend, BackendChoice, Event, EventBackend, Interest};
use crate::lifecycle::{LifecycleShared, PHASE_RUNNING};

/// Token for an accept loop's listener registration.
const ACCEPT_LISTENER_TOKEN: u64 = 0;
/// Token for an accept loop's wake pipe.
const ACCEPT_WAKE_TOKEN: u64 = 1;

/// Creates an accept loop's readiness backend with the listener and
/// wake pipe already registered — called on the *starting* thread so a
/// registration failure surfaces as a start error rather than a
/// silently deaf accept thread.
pub(crate) fn prepare_accept_backend(
    choice: BackendChoice,
    listener: &TcpListener,
    wake_rx: &UnixStream,
) -> io::Result<Box<dyn EventBackend + Send>> {
    let mut backend = new_backend(choice);
    backend.register(listener.as_raw_fd(), ACCEPT_LISTENER_TOKEN, Interest::READ)?;
    backend.register(wake_rx.as_raw_fd(), ACCEPT_WAKE_TOKEN, Interest::READ)?;
    Ok(backend)
}

/// Whether an accept failure says nothing about the listener or the
/// process — a connection that died while queued in the backlog, a
/// signal landing mid-call — so the drain skips it and accepts again at
/// once. Anything else but `EWOULDBLOCK` is descriptor exhaustion
/// (`EMFILE`/`ENFILE`) or as persistent, and the caller backs off.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
    )
}

/// The accept loop over a prepared backend (see
/// [`prepare_accept_backend`]): blocks with an infinite timeout — a
/// forced wake after the lifecycle leaves the running phase is the
/// shutdown signal, so no polling interval is burned while idle and
/// shutdown latency is one pipe write, not a timeout expiry — and
/// drains accepts to `EWOULDBLOCK` per readiness cycle.
/// A persistent accept failure (EMFILE/ENFILE under fd exhaustion —
/// not [`is_transient`]) bounds the next wait to a short retry instead:
/// the readiness edge is consumed but connections may still be queued,
/// and an edge-triggered backend reports each arrival only once.
pub(crate) fn run_accept_loop(
    listener: &TcpListener,
    mut backend: Box<dyn EventBackend + Send>,
    lifecycle: &LifecycleShared,
    mut on_conn: impl FnMut(TcpStream),
) {
    let mut events: Vec<Event> = Vec::new();
    let mut retry_accept = false;
    loop {
        let timeout = if retry_accept { 10 } else { -1 };
        if backend.wait(&mut events, timeout).is_err() {
            continue;
        }
        if lifecycle.phase() != PHASE_RUNNING {
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
                        on_conn(stream)
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if is_transient(e) => continue,
                    Err(_) => {
                        retry_accept = true;
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_dead_backlog_entry_or_a_signal_is_transient() {
        assert!(is_transient(&io::ErrorKind::ConnectionAborted.into()));
        assert!(is_transient(&io::ErrorKind::Interrupted.into()));
        assert!(!is_transient(&io::ErrorKind::WouldBlock.into()));
        const EMFILE: i32 = 24;
        assert!(!is_transient(&io::Error::from_raw_os_error(EMFILE)));
    }
}
