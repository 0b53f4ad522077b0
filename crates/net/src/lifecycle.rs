//! Server lifecycle: signal-driven orchestration and the shared
//! drain/reload state the event-loop shards consult.
//!
//! Two halves:
//!
//! * [`Signals`] — the classic **self-pipe trick**. A signal handler
//!   may only call async-signal-safe functions, so the handler here
//!   does exactly one thing: `write(2)` the signal number as a single
//!   byte into the write end of a socketpair installed at
//!   [`Signals::install`] time. The read end is an ordinary fd the
//!   process's control thread can block on (or register in an event
//!   backend), turning asynchronous signal delivery into ordinary
//!   readable-fd events — the same shape as the servers' existing
//!   stop-pipe/wake machinery. The conventional mapping, applied by
//!   the `graceful_restart` example:
//!
//!   | signal    | meaning                                        |
//!   |-----------|------------------------------------------------|
//!   | `SIGTERM` | drain: stop accepting, serve out, then exit    |
//!   | `SIGHUP`  | reload config/site tables, drop no connection  |
//!   | `SIGINT`  | immediate stop (today's abrupt teardown)       |
//!
//! * `LifecycleShared` — the per-server state those orders mutate:
//!   a monotonic phase (`Running → Draining → Stopping`; a drain can
//!   escalate to a stop, never the reverse), the drain deadline, and
//!   a generation-counted reload slot the shards poll for free (one
//!   relaxed atomic load per loop iteration).
//!
//! The handler and its registration live in [`crate::sys`]
//! (`sigaction` on Linux, the portable ANSI `signal(2)` elsewhere —
//! `SA_RESTART` is a nicety, not a correctness requirement, because
//! every blocking site in the servers already tolerates `EINTR`).

use std::io::{self, Read};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The signals the lifecycle machinery speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// `SIGHUP` — reload configuration without dropping a connection.
    Hup,
    /// `SIGINT` — stop immediately (sever in-flight connections).
    Int,
    /// `SIGTERM` — drain gracefully, then exit.
    Term,
}

impl Signal {
    /// The OS signal number (identical across unix platforms for
    /// these three).
    pub fn number(self) -> i32 {
        match self {
            Signal::Hup => 1,
            Signal::Int => 2,
            Signal::Term => 15,
        }
    }

    fn from_number(n: i32) -> Option<Signal> {
        match n {
            1 => Some(Signal::Hup),
            2 => Some(Signal::Int),
            15 => Some(Signal::Term),
            _ => None,
        }
    }
}

/// The read end of the installed self-pipe: signal delivery turned
/// into ordinary readable-fd bytes (one byte per signal, the signal
/// number itself).
pub struct Signals {
    rx: UnixStream,
}

impl Signals {
    /// Installs a handler for each signal in `set`, routing deliveries
    /// into a fresh self-pipe, and returns its read end. Installing
    /// again replaces the previous pipe (the handler is process-global
    /// state — the last installer wins); the replaced pipe's write end
    /// is intentionally leaked, never closed, so a signal racing the
    /// swap cannot write into a recycled descriptor.
    pub fn install(set: &[Signal]) -> io::Result<Signals> {
        let (tx, rx) = UnixStream::pair()?;
        // The handler's write must never block — a full pipe drops
        // (coalesces) the byte instead of wedging the interrupted
        // thread.
        tx.set_nonblocking(true)?;
        let fd = tx.as_raw_fd();
        // The write end must outlive any future signal delivery, so
        // it is leaked into the handler's static slot. An fd a prior
        // install leaked stays leaked: a handler that loaded the old
        // value just before the swap may still `write(2)` to it, and
        // closing it would let that write land on a closed — or
        // since-reused — descriptor and corrupt an unrelated stream.
        // Installs happen once or twice per process, so the cost is a
        // dormant socketpair end, never a misdirected byte.
        std::mem::forget(tx);
        crate::sys::forward_signals(fd, set.iter().map(|s| s.number()))?;
        Ok(Signals { rx })
    }

    /// The three conventional lifecycle signals: `SIGHUP`, `SIGINT`,
    /// `SIGTERM`.
    pub fn install_default() -> io::Result<Signals> {
        Signals::install(&[Signal::Hup, Signal::Int, Signal::Term])
    }

    /// The self-pipe's read end, for registration in an event backend.
    pub fn as_raw_fd(&self) -> i32 {
        self.rx.as_raw_fd()
    }

    /// Blocks until a recognized signal arrives.
    pub fn wait(&mut self) -> io::Result<Signal> {
        self.rx.set_read_timeout(None)?;
        self.read_one(None)
    }

    /// Blocks up to `timeout` for a signal; `Ok(None)` on timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> io::Result<Option<Signal>> {
        self.rx
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        match self.read_one(Some(Instant::now() + timeout)) {
            Ok(s) => Ok(Some(s)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn read_one(&mut self, deadline: Option<Instant>) -> io::Result<Signal> {
        let mut byte = [0u8; 1];
        loop {
            match self.rx.read(&mut byte) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "signal pipe closed",
                    ))
                }
                // Unknown numbers (a byte from a signal no longer in
                // the handled set) are skipped, not errors.
                Ok(_) => match Signal::from_number(byte[0] as i32) {
                    Some(s) => return Ok(s),
                    None => continue,
                },
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Err(io::ErrorKind::TimedOut.into());
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Sends `signal` to this process (`kill(getpid(), …)`), exactly as a
/// process supervisor would — used by the graceful-restart example
/// and tests to exercise the real delivery path.
pub fn send_to_self(signal: Signal) -> io::Result<()> {
    crate::sys::kill_self(signal.number())
}

/// Lifecycle phase: the server is accepting and serving.
pub(crate) const PHASE_RUNNING: u8 = 0;
/// Lifecycle phase: accepting has stopped; existing connections are
/// served to completion or the drain deadline.
pub(crate) const PHASE_DRAINING: u8 = 1;
/// Lifecycle phase: tear down now, severing whatever remains.
pub(crate) const PHASE_STOPPING: u8 = 2;

/// State shared between a server handle and its shards: the current
/// phase, the drain deadline, and the reload slot. Phase moves only
/// forward (`Running → Draining → Stopping`), so a drain that hits
/// its deadline escalates cleanly and a late `drain()` cannot undo a
/// `stop_now()`.
#[derive(Debug)]
pub(crate) struct LifecycleShared {
    phase: AtomicU8,
    drain_deadline: Mutex<Option<Instant>>,
    /// Bumped on every published reload; shards compare against their
    /// last-seen value — one relaxed load per loop iteration when
    /// nothing changed.
    reload_gen: AtomicU64,
    reload_docroot: Mutex<Option<PathBuf>>,
    /// Bumped on every access-log rotation request; shards compare
    /// against their last-seen value and reopen their log file at the
    /// configured path — the logrotate handshake, same polling shape
    /// as the reload generation.
    log_gen: AtomicU64,
}

impl LifecycleShared {
    pub fn new() -> Self {
        LifecycleShared {
            phase: AtomicU8::new(PHASE_RUNNING),
            drain_deadline: Mutex::new(None),
            reload_gen: AtomicU64::new(0),
            reload_docroot: Mutex::new(None),
            log_gen: AtomicU64::new(0),
        }
    }

    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Enters the draining phase (no-op if already draining or
    /// stopping — phases only move forward).
    pub fn begin_drain(&self, deadline: Instant) {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(deadline);
        let _ = self.phase.compare_exchange(
            PHASE_RUNNING,
            PHASE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Escalates straight to stopping, from any phase.
    pub fn stop_now(&self) {
        self.phase.store(PHASE_STOPPING, Ordering::SeqCst);
    }

    pub fn drain_deadline(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes a new docroot; shards observe the generation bump and
    /// swap their config (and flush their caches) between drives — no
    /// connection is interrupted.
    pub fn publish_reload(&self, docroot: PathBuf) {
        *self
            .reload_docroot
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(docroot);
        self.reload_gen.fetch_add(1, Ordering::Release);
    }

    pub fn reload_gen(&self) -> u64 {
        self.reload_gen.load(Ordering::Acquire)
    }

    pub fn reload_docroot(&self) -> Option<PathBuf> {
        self.reload_docroot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Asks every access-log owner to reopen its file.
    pub fn rotate_logs(&self) {
        self.log_gen.fetch_add(1, Ordering::Release);
    }

    pub fn log_gen(&self) -> u64 {
        self.log_gen.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_numbers_round_trip() {
        for s in [Signal::Hup, Signal::Int, Signal::Term] {
            assert_eq!(Signal::from_number(s.number()), Some(s));
        }
        assert_eq!(Signal::from_number(9), None);
    }

    #[test]
    fn phase_only_moves_forward() {
        let l = LifecycleShared::new();
        assert_eq!(l.phase(), PHASE_RUNNING);
        l.begin_drain(Instant::now());
        assert_eq!(l.phase(), PHASE_DRAINING);
        l.stop_now();
        assert_eq!(l.phase(), PHASE_STOPPING);
        // A late drain cannot resurrect a stopped server.
        l.begin_drain(Instant::now());
        assert_eq!(l.phase(), PHASE_STOPPING);
    }

    #[test]
    fn reload_publishes_generation_and_root() {
        let l = LifecycleShared::new();
        assert_eq!(l.reload_gen(), 0);
        assert_eq!(l.reload_docroot(), None);
        l.publish_reload(PathBuf::from("/srv/new"));
        assert_eq!(l.reload_gen(), 1);
        assert_eq!(l.reload_docroot(), Some(PathBuf::from("/srv/new")));
    }

    #[test]
    fn self_pipe_delivers_raised_signals() {
        // SIGHUP only: SIGINT/SIGTERM must keep their defaults under
        // the test harness.
        let mut signals = Signals::install(&[Signal::Hup]).unwrap();
        send_to_self(Signal::Hup).unwrap();
        let got = signals
            .wait_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("signal must arrive");
        assert_eq!(got, Signal::Hup);
        // Nothing further pending.
        assert_eq!(
            signals.wait_timeout(Duration::from_millis(50)).unwrap(),
            None
        );
    }
}
