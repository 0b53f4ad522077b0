//! The readiness-event subsystem: one trait, two kernels.
//!
//! Everything in the server that used to call `poll(2)` directly now
//! speaks [`EventBackend`]: register a descriptor once with an opaque
//! token, adjust its interest incrementally as the connection's state
//! machine moves, and collect batches of [`Event`]s from `wait`. Two
//! implementations live behind the trait:
//!
//! * [`epoll::EpollBackend`] — **edge-triggered** `epoll(7)` via raw
//!   FFI (`EPOLLIN|EPOLLOUT|EPOLLET`), Linux only. Interest changes
//!   are incremental `epoll_ctl` calls, so the per-iteration cost is
//!   O(ready descriptors), not O(watched descriptors) — the scaling
//!   property the paper's `select`-based loop lacks (§3.4 discussion),
//!   and the reason a shard can carry 10k+ mostly-idle keep-alive
//!   connections without the readiness call itself becoming the
//!   bottleneck.
//! * [`pollset::PollBackend`] — the portable fallback over `poll(2)`.
//!   It keeps an interest table and rebuilds the `pollfd` array per
//!   wait (O(watched fds), exactly the cost the epoll backend
//!   removes), reporting level-triggered readiness.
//!
//! # The edge-triggered contract
//!
//! Callers are written to edge-triggered semantics, which are strictly
//! more demanding than level-triggered — a loop that is correct under
//! ET is correct under LT, so one event loop serves both backends:
//!
//! 1. **Drain to `EWOULDBLOCK` — or to a short read with no hang-up
//!    seen.** A readable event may be the only notification for any
//!    amount of buffered data; the reader must consume until the
//!    socket is empty. On a stream socket a read that returns fewer
//!    bytes than it asked for has emptied it (the rule `epoll(7)`
//!    itself gives), and whatever arrives afterwards, a FIN included,
//!    raises a fresh event. The one thing a short read cannot see is a
//!    FIN harvested by the *same* `wait` as the data in front of it:
//!    that edge is already spent, which is why [`Event::hangup`]
//!    carries it and a reader that has seen it reads on to `Ok(0)`.
//! 2. **Arm write interest only while a send is in flight**, and fall
//!    back to read interest the moment the output queue drains. Write
//!    readiness is the steady state of an idle socket; leaving it
//!    armed under ET is harmless but under LT busy-loops the wait.
//! 3. **Re-arm after a voluntary yield.** A sender that stops mid-body
//!    for fairness (the `sendfile` visit budget) has consumed the
//!    writability edge without exhausting it; it must call
//!    [`EventBackend::rearm`] so the backend re-checks readiness and
//!    redelivers, or the connection would stall forever waiting for an
//!    edge that never comes.
//!
//! Backend selection is [`BackendChoice`]: `Auto` (the default)
//! resolves to epoll on Linux and poll elsewhere, overridable with the
//! `FLASH_EVENT_BACKEND=poll|epoll` environment variable (CI uses this
//! to keep the portable fallback green on Linux); `Epoll`/`Poll` pin a
//! backend explicitly and ignore the environment.

use std::io;
use std::os::unix::io::RawFd;

use crate::sys;

pub mod pollset;

#[cfg(any(target_os = "linux", target_os = "android"))]
pub mod epoll;

/// Which readiness events a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Watch for nothing (the descriptor stays registered; errors and
    /// hangups are still reported by kernels that always deliver them).
    pub const NONE: Interest = Interest(0);
    /// Watch for readability.
    pub const READ: Interest = Interest(1);
    /// Watch for writability.
    pub const WRITE: Interest = Interest(2);
    /// Watch for both.
    pub const READ_WRITE: Interest = Interest(3);

    /// True if readability is requested.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if writability is requested.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

/// One readiness notification: the token the descriptor was registered
/// with, plus what it is ready for. Error and hangup conditions are
/// folded into both flags — a connection handler must attempt the I/O
/// to observe the failure, exactly as with `poll(2)` revents.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen token from `register`/`modify`.
    pub token: u64,
    /// Ready for reading (or peer-closed/errored).
    pub readable: bool,
    /// Ready for writing (or errored).
    pub writable: bool,
    /// The peer hung up, half-closed or the socket errored
    /// (`EPOLLRDHUP | EPOLLHUP | EPOLLERR`; `POLLHUP | POLLERR`): an
    /// end of stream is queued behind whatever data is, so a reader
    /// must not stop at a short read (contract rule 1).
    pub hangup: bool,
}

/// Readiness multiplexing behind a uniform, incrementally-updated
/// interest set. See the module docs for the edge-triggered contract
/// callers must follow. Not `Send` by itself: the kernel backends are
/// ([`new_backend`]), the simulated one ([`crate::sim`]) shares its
/// kernel with the endpoints it watches and stays on its thread.
pub trait EventBackend {
    /// The resolved kind (for diagnostics and tests).
    fn kind(&self) -> BackendKind;

    /// True if events are delivered once per readiness *transition*
    /// (epoll ET) rather than re-reported while the condition holds.
    fn edge_triggered(&self) -> bool;

    /// Starts watching `fd` with `interest`; `token` comes back in
    /// every [`Event`] for this descriptor. A descriptor must be
    /// registered at most once.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Changes a registered descriptor's interest (and token). On the
    /// epoll backend this also re-arms edge-triggered delivery: if the
    /// descriptor is ready for the new interest *right now*, an event
    /// is delivered on the next wait even though the edge predates the
    /// call.
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Re-checks readiness without changing interest — required after
    /// consuming an edge without exhausting it (contract rule 3). A
    /// level-triggered backend may make this a no-op: it re-reports
    /// readiness on every wait anyway.
    fn rearm(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.modify(fd, token, interest)
    }

    /// Stops watching `fd`, which must still be **open**: the way to
    /// silence a descriptor whose open file description outlives this
    /// handle to it (a listener with a handoff duplicate — closing one
    /// dup unhooks nothing). For a descriptor the caller has closed,
    /// use [`EventBackend::forget`].
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Drops whatever the backend still holds about a registered `fd`
    /// the caller has **closed** (its last handle: `close(2)` already
    /// removed it from the kernel's interest set). No system call —
    /// epoll corrects its count, poll removes the table entry, so the
    /// descriptor number can be registered again when the kernel
    /// reuses it.
    fn forget(&mut self, fd: RawFd);

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout_ms` expires (negative = infinite). Ready events are
    /// appended to `events` (cleared first); returns how many. `EINTR`
    /// is retried internally.
    ///
    /// Callers with armed timers (the shard loop's timing wheel,
    /// [`crate::timer`]) pass the time to the next wheel tick here and
    /// block (-1) when nothing is armed — deadline latency is bounded
    /// by the tick, and an idle loop costs zero wakeups.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize>;

    /// Number of descriptors currently registered.
    fn registered(&self) -> usize;
}

/// Which concrete backend a [`BackendChoice`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Edge-triggered `epoll(7)`.
    Epoll,
    /// Level-triggered `poll(2)`.
    Poll,
}

impl BackendKind {
    /// Lower-case name, matching the `FLASH_EVENT_BACKEND` values.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Epoll => "epoll",
            BackendKind::Poll => "poll",
        }
    }
}

/// How the server picks its readiness backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Platform default — epoll on Linux, poll elsewhere — overridable
    /// with `FLASH_EVENT_BACKEND=poll|epoll`.
    #[default]
    Auto,
    /// Pin the edge-triggered epoll backend (falls back to poll on
    /// platforms without epoll). Ignores the environment.
    Epoll,
    /// Pin the portable poll backend. Ignores the environment.
    Poll,
}

const ENV_BACKEND: &str = "FLASH_EVENT_BACKEND";

fn platform_has_epoll() -> bool {
    cfg!(any(target_os = "linux", target_os = "android"))
}

/// Resolves a choice to the backend that will actually run, applying
/// the `FLASH_EVENT_BACKEND` override (only to `Auto`) and the
/// platform floor (epoll requested where it does not exist degrades to
/// poll rather than failing).
pub fn resolve(choice: BackendChoice) -> BackendKind {
    let want = match choice {
        BackendChoice::Poll => BackendKind::Poll,
        BackendChoice::Epoll => BackendKind::Epoll,
        BackendChoice::Auto => match std::env::var(ENV_BACKEND).ok().as_deref() {
            Some("poll") => BackendKind::Poll,
            Some("epoll") => BackendKind::Epoll,
            // Unknown values fall through to the platform default
            // rather than aborting a running server over a typo.
            _ => {
                if platform_has_epoll() {
                    BackendKind::Epoll
                } else {
                    BackendKind::Poll
                }
            }
        },
    };
    if want == BackendKind::Epoll && !platform_has_epoll() {
        BackendKind::Poll
    } else {
        want
    }
}

/// Creates the backend for `choice`. Infallible by design: if epoll
/// creation itself fails (fd exhaustion, exotic kernel), the portable
/// poll backend is returned instead — a server should degrade to the
/// O(n) scan, not refuse to start.
pub fn new_backend(choice: BackendChoice) -> Box<dyn EventBackend + Send> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    if resolve(choice) == BackendKind::Epoll {
        if let Ok(b) = epoll::EpollBackend::new() {
            return Box::new(b);
        }
    }
    let _ = choice;
    Box::new(pollset::PollBackend::new())
}

// -- RLIMIT_NOFILE helper ---------------------------------------------------
//
// High-connection-count workloads (and the 1k-socket tests that
// simulate them) need descriptor headroom beyond the common 1024
// soft limit. Raising the soft limit toward the hard limit is an
// unprivileged operation.

/// Ensures the process may hold at least `want` file descriptors,
/// raising the soft `RLIMIT_NOFILE` toward the hard limit if needed.
/// Returns `true` if `want` descriptors are available.
pub fn ensure_fd_limit(want: u64) -> bool {
    let Ok((soft, hard)) = sys::nofile_limit() else {
        return false;
    };
    if soft >= want {
        return true;
    }
    let raised = want.min(hard);
    sys::set_nofile_limit(raised, hard).is_ok() && raised >= want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_choices_ignore_environment() {
        // Whatever FLASH_EVENT_BACKEND says, pinned choices stand
        // (modulo the platform floor).
        assert_eq!(resolve(BackendChoice::Poll), BackendKind::Poll);
        if platform_has_epoll() {
            assert_eq!(resolve(BackendChoice::Epoll), BackendKind::Epoll);
        } else {
            assert_eq!(resolve(BackendChoice::Epoll), BackendKind::Poll);
        }
    }

    #[test]
    fn new_backend_matches_resolution() {
        let b = new_backend(BackendChoice::Poll);
        assert_eq!(b.kind(), BackendKind::Poll);
        assert!(!b.edge_triggered());
        let b = new_backend(BackendChoice::Auto);
        assert_eq!(b.kind(), resolve(BackendChoice::Auto));
    }

    #[test]
    fn interest_flags() {
        assert!(Interest::READ.is_readable());
        assert!(!Interest::READ.is_writable());
        assert!(Interest::WRITE.is_writable());
        assert!(!Interest::WRITE.is_readable());
        assert!(Interest::READ_WRITE.is_readable() && Interest::READ_WRITE.is_writable());
        assert!(!Interest::NONE.is_readable() && !Interest::NONE.is_writable());
    }

    #[test]
    fn fd_limit_query_succeeds() {
        // At minimum the current limit is queryable and already-held
        // descriptors fit inside it.
        assert!(ensure_fd_limit(8));
    }
}
