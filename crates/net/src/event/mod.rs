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
//! # The listener is level-triggered
//!
//! One registration is exempt from the contract: a shard's listener
//! asks for [`Interest::ACCEPT`], readability reported by *every* wait
//! while the backlog holds a connection, on both backends. Draining it
//! to `EWOULDBLOCK` as rule 1 would have it costs an `accept4(2)` that
//! finds the backlog empty after the last connection — and Linux
//! allocates the new socket's inode, file and descriptor before it
//! looks, then frees all three. Level-triggered, the shard takes one
//! connection per report (nginx's default, `multi_accept off`) and a
//! backlog with more behind it is simply reported again: a one-shot
//! connection costs exactly one `accept4`. Connections stay
//! edge-triggered.
//!
//! # Parked registrations
//!
//! A connection whose request a helper or an application worker owns
//! (`Waiting`) stays watched — for its peer's hang-up, which is how a
//! client abandoning a request on a worker reaches the shard — at the
//! cheapest interest each kernel offers
//! ([`crate::conn::machine::desired_interest`] decides, not the
//! driver):
//!
//! * **edge-triggered** backends keep the `READ` registration the
//!   connection already has (`EPOLLIN | EPOLLRDHUP`, for life), so
//!   parking and resuming cost no interest-set call. A data edge on a
//!   parked connection only withdraws the transport's "dry" note; the
//!   bytes stay in the socket for the drive after the completion, so
//!   pipelined requests start no header deadline while it is parked;
//! * **level-triggered** backends, where an interest change is a table
//!   edit and no system call, hold a [`Interest::HANGUP`] entry: the
//!   peer's data is not reported, its hang-up is. Once a hang-up has
//!   been noted the entry drops to [`Interest::NONE`] — out of the
//!   `poll(2)` set — until the connection resumes, or a condition that
//!   stays true would be reported by every wait.
//!
//! Backend selection is [`BackendChoice`], set by
//! [`NetConfig::backend`](crate::config::NetConfig::backend) and by
//! nothing else: its default is epoll on Linux and poll elsewhere, and
//! epoll asked for where there is none runs poll ([`resolve`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::os::unix::io::RawFd;

use crate::sys;

/// A map keyed by readiness tokens or descriptors — keys the shard or
/// the kernel mints, never ones a client chooses — hashed by
/// [`TokenHash`]: the deadline set's ([`crate::timer`]) and the poll
/// backend's descriptor index.
pub type TokenMap<K, V> = HashMap<K, V, BuildHasherDefault<TokenHash>>;

/// Hashes a token or a descriptor with one multiply where a `HashMap`
/// would spend a round of SipHash: keys no client chooses need no
/// defence against crafted collisions. The folded 128-bit product
/// carries every key bit into every hash bit.
#[derive(Default, Clone, Copy)]
pub struct TokenHash(u64);

impl Hasher for TokenHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.0) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

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
    /// Watch for readability (a hang-up reads as readable: `read`
    /// returns 0).
    pub const READ: Interest = Interest(1);
    /// Watch for writability.
    pub const WRITE: Interest = Interest(2);
    /// Watch for both.
    pub const READ_WRITE: Interest = Interest(3);
    /// Watch for the peer's hang-up alone — its half-close, close or
    /// reset, never its data (`POLLRDHUP`, Linux only: elsewhere poll
    /// has no such bit and the entry watches nothing). What a parked
    /// connection asks of the poll backend; epoll is never asked for
    /// it, a parked connection keeping its `READ` registration there.
    pub const HANGUP: Interest = Interest(4);
    /// Watch for readability, **level-triggered** on every backend:
    /// reported by each wait for as long as the condition holds, not
    /// once per edge. What a shard's listener asks for (module docs,
    /// *The listener is level-triggered*).
    pub const ACCEPT: Interest = Interest(1 | 8);

    /// True if readability is requested.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if writability is requested.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// True if the peer's hang-up alone is requested ([`Self::HANGUP`]).
    pub fn is_hangup(self) -> bool {
        self.0 & 4 != 0
    }

    /// True if readiness is to be reported level-triggered
    /// ([`Self::ACCEPT`]) even by an edge-triggered backend.
    pub fn is_level(self) -> bool {
        self.0 & 8 != 0
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
    /// (`EPOLLRDHUP | EPOLLHUP | EPOLLERR`; `POLLRDHUP | POLLHUP |
    /// POLLERR`): an end of stream is queued behind whatever data is,
    /// so a reader must not stop at a short read (contract rule 1).
    pub hangup: bool,
}

/// Readiness multiplexing behind a uniform, incrementally-updated
/// interest set. See the module docs for the edge-triggered contract
/// callers must follow. Not `Send` by itself: the kernel backends are
/// ([`new_backend`]), the simulated one (`flash-sim`) shares its
/// kernel with the endpoints it watches and stays on its thread.
pub trait EventBackend {
    /// Which backend this is (for diagnostics and tests).
    fn kind(&self) -> BackendChoice;

    /// True if events are delivered once per readiness *transition*
    /// (epoll ET) rather than re-reported while the condition holds —
    /// for every registration but a level-triggered one
    /// ([`Interest::ACCEPT`]).
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
    /// Callers with armed timers (the shard loop's deadlines,
    /// [`crate::timer`]) pass the time until the earliest one is due
    /// here and block (-1) when nothing is armed — a loop wakes for a
    /// deadline only when one is due, and an idle loop costs zero
    /// wakeups.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize>;

    /// Number of descriptors currently registered.
    fn registered(&self) -> usize;
}

/// Which readiness backend a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Edge-triggered `epoll(7)`: the default on Linux.
    Epoll,
    /// Level-triggered `poll(2)`: the portable fallback, and the
    /// default elsewhere.
    Poll,
}

impl Default for BackendChoice {
    fn default() -> Self {
        if platform_has_epoll() {
            BackendChoice::Epoll
        } else {
            BackendChoice::Poll
        }
    }
}

impl BackendChoice {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Epoll => "epoll",
            BackendChoice::Poll => "poll",
        }
    }
}

fn platform_has_epoll() -> bool {
    cfg!(any(target_os = "linux", target_os = "android"))
}

/// The backend `choice` runs on this platform: epoll asked for where
/// there is none runs poll rather than failing.
pub fn resolve(choice: BackendChoice) -> BackendChoice {
    if platform_has_epoll() {
        choice
    } else {
        BackendChoice::Poll
    }
}

/// Creates the backend for `choice`. Infallible by design: if epoll
/// creation itself fails (fd exhaustion, exotic kernel), the portable
/// poll backend is returned instead — a server should degrade to the
/// O(n) scan, not refuse to start.
pub fn new_backend(choice: BackendChoice) -> Box<dyn EventBackend + Send> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    if resolve(choice) == BackendChoice::Epoll {
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
    fn the_default_is_the_platforms_and_the_floor_is_poll() {
        let default = if platform_has_epoll() {
            BackendChoice::Epoll
        } else {
            BackendChoice::Poll
        };
        assert_eq!(BackendChoice::default(), default);
        assert_eq!(resolve(BackendChoice::Poll), BackendChoice::Poll);
        assert_eq!(resolve(BackendChoice::Epoll), default);
    }

    #[test]
    fn new_backend_matches_resolution() {
        for choice in [BackendChoice::Epoll, BackendChoice::Poll] {
            let b = new_backend(choice);
            assert_eq!(b.kind(), resolve(choice));
            assert_eq!(b.edge_triggered(), b.kind() == BackendChoice::Epoll);
        }
    }

    #[test]
    fn interest_flags() {
        assert!(Interest::READ.is_readable());
        assert!(!Interest::READ.is_writable());
        assert!(Interest::WRITE.is_writable());
        assert!(!Interest::WRITE.is_readable());
        assert!(Interest::READ_WRITE.is_readable() && Interest::READ_WRITE.is_writable());
        assert!(!Interest::NONE.is_readable() && !Interest::NONE.is_writable());
        let hup = Interest::HANGUP;
        assert!(hup.is_hangup() && !hup.is_readable() && !hup.is_writable());
        assert!(!Interest::READ_WRITE.is_hangup());
        let accept = Interest::ACCEPT;
        assert!(accept.is_readable() && accept.is_level() && !accept.is_writable());
        assert!(!Interest::READ.is_level() && !Interest::NONE.is_level());
    }

    #[test]
    fn fd_limit_query_succeeds() {
        // At minimum the current limit is queryable and already-held
        // descriptors fit inside it.
        assert!(ensure_fd_limit(8));
    }
}
