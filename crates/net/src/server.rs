//! The real AMPED web server, sharded across cores: N independent
//! event loops (one per core by default, capped at 8), each a faithful
//! copy of the paper's single-process architecture (§3.4, §5), plus a
//! shared helper pool for what would block them: disk I/O, and forking
//! and reaping application workers — what [`Server`](crate::Server)
//! runs for [`ServerKind::Amped`](crate::ServerKind::Amped). This file
//! spawns the shards and the helpers over the listeners the handle
//! bound (start, drain, stop and reload are the handle's, in
//! `handle.rs`), and holds the **shard driver** — the event loop that
//! binds the sans-IO core in [`crate::conn`] to its environment; the
//! configuration lives in [`crate::config`], the counters in
//! [`crate::stats`], the helper pool in `pool.rs` and a shard's
//! application workers in `workerset.rs`.
//!
//! **One loop, two kernels.** The shard and its loop are generic over
//! one environment trait, `Env`: the clock, the connection transport
//! (a [`ConnIo`] whose descriptor is its readiness key; the shard keeps
//! the dry and hang-up notes on it, `SockIo`), the listener, the
//! application workers' endpoints, the readiness backend, and the
//! helper pool with its reply queue. The real server is monomorphised
//! over `NetEnv`, which makes exactly the calls described below and
//! is the only reader of the wall clock here; the deterministic sim
//! (the `flash-sim` crate) runs the same `shard_loop` — its lifecycle
//! prologue, then one `Shard::turn` per wait — over a simulated kernel,
//! reaching the shard through [`crate::driver`] alone.
//! A turn takes the helpers' replies (on a wake), the readiness events,
//! the expired deadlines and the accepts, in that order, and ends with
//! the worker sweep; the `Rig` tests below drive the same turn by hand.
//! Every answer to a job — the residency test's, a helper's, a worker's
//! frames — joins the shard's one completion queue and reaches the core
//! through one `Shard::settle`, run where answers arrive: after each
//! drive or expiry (before that connection is reconciled), after a
//! worker's readable event, and on a wake. No answer outlives its turn.
//!
//! **The turn's clock.** A turn reads the clock twice: once when its
//! wait returns — the turn's clock, which every core call, deadline,
//! timer expiry and accept of the turn is given — and once when it
//! ends, a reading that closes the phase ledger, feeds the stall
//! watchdog and times the next wait. A phase that does no work takes
//! no lap; each further phase that works in the same turn costs one
//! more reading (a keep-alive hit's turn and each of a warm dynamic
//! request's two are one phase, two readings; `flash-sim` counts
//! them). Each reading is also lent to the thread's `Date` cache, so
//! a response reads no clock of its own: its `Date` is the second its
//! turn began in. Durations become microseconds without 128-bit
//! division.
//!
//! Layout:
//!
//! * **accepting is the first step of each shard's own loop** (the
//!   paper's Fig. 1; there is no acceptor thread and no dealing hop in
//!   either mode): every shard holds a listening descriptor registered
//!   level-triggered in its own event backend ([`Interest::ACCEPT`];
//!   [`crate::event`], *The listener is level-triggered*) and takes one
//!   connection per readiness report — one `accept4(2)` per connection
//!   and none on an empty backlog, handing it over nonblocking,
//!   close-on-exec and (inherited from the listener, [`crate::sock`])
//!   `TCP_NODELAY`; a backlog with more behind it is reported again by
//!   the next wait. The accept mode
//!   ([`NetConfig::accept_mode`], see [`crate::sock`]) decides
//!   only how many kernel sockets stand behind those N registrations:
//!   in the default **reuseport** mode (Linux) N `SO_REUSEPORT`
//!   siblings, the kernel hashing incoming connections across them; in
//!   the portable **single** fallback one socket, every shard
//!   registered on a duplicate of it, a connection going to whichever
//!   shard wakes first. Backpressure is local in both: a shard at
//!   [`NetConfig::max_conns_per_shard`] (or hitting `EMFILE`/`ENFILE`
//!   — counted as `accept_backpressure`) drops its listener's read
//!   interest, leaving the backlog to the kernel and to its siblings,
//!   and re-arms the moment a slot frees;
//! * each **shard** is the paper's event loop on the pluggable
//!   readiness subsystem ([`crate::event`]): a new connection is
//!   driven first — HTTP clients speak first, the request is usually
//!   there — and registered with the [`EventBackend`] (edge-triggered
//!   `epoll` on Linux, `poll(2)` elsewhere — [`NetConfig::backend`])
//!   only if that drive leaves it open, so a one-request connection
//!   whose request was waiting costs `accept4`, `read`, `writev`,
//!   `close` and nothing else — and, the client having asked to close,
//!   its `writev` is corked (`MSG_MORE`), so the `close` puts the FIN
//!   in the response's last segment ([`ConnIo::writev_more`]); a
//!   registered connection's interest is
//!   adjusted incrementally as the [`Conn`] state machine moves (read
//!   interest while parsing, write interest only while a send is in
//!   flight; parked on a helper or a worker, it stays watched for its
//!   client's hang-up — on epoll by the read registration it already
//!   has, so a warm dynamic request costs no `epoll_ctl`), and its
//!   registration is *forgotten*, not deregistered, when its socket
//!   closes. The loop is written to the edge-triggered contract — drain
//!   reads until the socket is dry (`EWOULDBLOCK`, or a short read with
//!   no hang-up seen: a keep-alive request is `wait`, `read`, `writev`), re-arm
//!   after a voluntary yield — which is also correct under the
//!   level-triggered fallback. Each shard never
//!   blocks on the filesystem and owns a private
//!   [`ContentCache`](crate::cache::ContentCache) — no cross-shard
//!   locking anywhere on the request path. Every connection carries a
//!   **per-state deadline** in the shard's ordered deadline set
//!   ([`crate::timer`], §6.4's slow-WAN-client defense): which class a
//!   state arms and what its expiry does is the core's policy
//!   ([`crate::conn`]); the set itself is the driver's, bounds the
//!   backend's wait ("until the earliest deadline is due, or block")
//!   and expires in O((expired + 1) log n), never by scanning the
//!   connection table — nor does accepting, which takes its slot from
//!   a free stack;
//! * the **helper pool** is shared (disk parallelism is a global
//!   resource): a miss that becomes a job and that the residency test
//!   cannot answer — it resolves a memory-resident file by path on the
//!   spot (crate docs, *Residency test*) — enqueues a job in its
//!   shard's lane of the job queue, and helpers pop the lanes
//!   **round-robin by shard** — a cold-cache shard flooding its lane
//!   cannot starve the other shards' disk latency. The finishing
//!   helper routes the completion back to that shard's done queue,
//!   coalescing wake-up bytes so a burst of completions costs one pipe
//!   write, not one per job. The helpers also run **cache
//!   revalidation**: a content-cache hit older than
//!   [`NetConfig::cache_revalidate_ttl`] parks like a miss while the
//!   file is re-stat'ed (open+`fstat`, no read) — a matching (length,
//!   mtime) restarts the TTL clock and serves the waiters from memory
//!   (`revalidations`), a mismatch evicts the stale entry and reloads
//!   (`stale_evicted`), so a file edited in place stops being served —
//!   and 304-validated — from stale bytes within the TTL;
//! * the **dynamic tier is part of the loop** (§5.6): a shard's
//!   application workers are descriptors in its readiness set like any
//!   client, registered once under tokens of their own, and a worker's
//!   readable event is read, parsed and relayed in the loop turn that
//!   harvested it — the frame and the `END` behind it leave in one
//!   `writev`. `workerset.rs` has the exchange; this driver routes the
//!   event, applies the completions through the core's one completion
//!   path, and ends every loop turn with a sweep that retires the
//!   workers of exchanges the turn cancelled. Forking and reaping are
//!   the helpers' (crate docs, *The dynamic tier*);
//! * the send path is **two-tier and zero-copy at both tiers**: small
//!   bodies are queued as their cached header and body segments and
//!   transmitted with a single gathered `writev(2)` (see
//!   [`crate::writev`]), with partial-write resumption tracked across
//!   segment boundaries; bodies above
//!   [`NetConfig::sendfile_threshold_bytes`] never enter the content
//!   cache at all — the helper hands the shard an open fd, the shard
//!   sends the header with one corked gathered write (`sendmsg(2)`
//!   with `MSG_MORE`, so it rides in the body's first segment) and the
//!   body with `sendfile(2)` (see [`crate::sendfile`]) straight from
//!   the kernel page cache, resuming partial sends from the same
//!   per-connection state. A **held miss** — a content-cache miss on
//!   a file the shard's open-file table holds — takes the same path at
//!   any size, and is answered like a hit: before any job exists, the
//!   core asks the port (`Env::held`, the table's held check), and the
//!   table answers with its descriptor, under the header pair it keeps
//!   for the file, once `cachestat(2)` finds the pages resident. No
//!   job, no completion, no header render, and nothing cached.
//!
//! With `event_loops = 1` the behavior is byte-identical to the
//! original single-loop server; with N shards the same architecture
//! simply runs N times, the way per-core executor designs scale a
//! uniprocessor event loop.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::accept::is_transient;
use crate::appworker::Worker;
use crate::config::NetConfig;
use crate::conn::machine::{desired_interest, sync_deadline, Conn};
use crate::conn::{ConnIo, ConnState, DoneData, Drive, Held, HelperJob, ShardCore, ShardStats};
use crate::event::{new_backend, Event, EventBackend, Interest};
use crate::fsjob::OpenFileTable;
use crate::handle::Threads;
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_RUNNING};
use crate::pool::{helper_main, JobQueue, NetReply, PoolPort, Reply, WakeHandle, Work};
use crate::sendfile::send_file;
use crate::stats::{nanos_since, AccessLogWriter};
use crate::sys;
use crate::timer::{tick_for, TimerWheel};
use crate::workerset::{WorkerSet, WORKER_TOKEN_BASE};
use crate::writev::{writev_fd, writev_more_fd};

/// Everything a shard reaches outside its own memory: a clock, the
/// connection transport (with its readiness key), the listener, the
/// application workers' endpoints, the readiness backend, and the
/// helper pool with its reply queue. The loop ([`shard_loop`],
/// `Shard::turn`) is written once over this trait and monomorphised:
/// `NetEnv` makes the calls the real server makes; the simulated
/// kernel of the `flash-sim` crate answers the same calls from memory,
/// on simulated time. Public as part of [`crate::driver`].
pub trait Env: Sized {
    /// A connection's byte stream; its descriptor is its readiness key.
    type Stream: ConnIo + AsRawFd;
    /// What connections are accepted from.
    type Listener: AsRawFd;
    /// An application worker's endpoint, watched like a connection.
    type Worker: Read + Write + AsRawFd;
    /// The readiness backend.
    type Backend: EventBackend + ?Sized;

    /// The clock behind every instant the shard hands its core. The
    /// loop reads it twice a turn — when the wait returns and when the
    /// turn ends — and once more per further phase that works in the
    /// turn (module docs, *The turn's clock*); nothing else in the turn
    /// reads it.
    fn now(&self) -> Instant;
    /// Accepts one queued connection, nonblocking.
    fn accept(&mut self, listener: &Self::Listener) -> io::Result<Self::Stream>;
    /// The residency test: answers a filesystem job at once, or
    /// declines (crate docs, *Residency test*).
    fn try_inline(&mut self, job: &HelperJob) -> Option<DoneData<FileOf<Self>>>;
    /// A content-cache miss answered from a file the environment holds
    /// open, before any job exists ([`crate::conn::HelperPort::held`]),
    /// or declined. The default declines: an environment that holds no
    /// files, as the simulated kernel holds none.
    fn held(&mut self, _key: &str, _inline_max: u64, _now: Instant) -> Option<Held<FileOf<Self>>> {
        None
    }
    /// Hands the helpers what would block the loop.
    fn push(&mut self, work: Work<Self::Worker>);
    /// Drops the descriptors the residency test holds open.
    fn clear_files(&mut self);
    /// Takes the wake the reply queue raised; the next reply raises a
    /// fresh one.
    fn take_wake(&mut self);
    /// The next reply from the helpers, if one is queued.
    fn recv(&mut self) -> Option<Reply<FileOf<Self>, Self::Worker>>;
    /// Called after every loop turn; the sim checks its invariants.
    fn after_turn(_shard: &Shard<Self>) {}
}

/// The large-body handle of an environment's transport.
pub type FileOf<E> = <<E as Env>::Stream as ConnIo>::FileRef;

/// The real server's environment: the wall clock, nonblocking sockets,
/// the shared helper pool, the shard's reply channel and wake pipe, and
/// its open-file table.
pub(crate) struct NetEnv {
    jobs: Arc<JobQueue>,
    shard: usize,
    /// The shard's open-file table: read and written only on the
    /// event-loop thread, so it takes no lock. Cleared on a docroot
    /// reload, when the process runs out of descriptors, and at exit.
    files: OpenFileTable,
    replies: Receiver<NetReply>,
    wake_rx: UnixStream,
    wake: WakeHandle,
}

impl NetEnv {
    /// The wall clock: the one clock this file reads. Each reading is
    /// lent to the thread's `Date` cache, so a response rendered in the
    /// turn it starts reads no clock of its own
    /// ([`flash_http::date::set_loop_clock`]).
    fn clock() -> Instant {
        let now = Instant::now();
        flash_http::date::set_loop_clock(now);
        now
    }
}

impl Env for NetEnv {
    type Stream = TcpIo;
    type Listener = TcpListener;
    type Worker = Worker;
    type Backend = dyn EventBackend + Send;

    fn now(&self) -> Instant {
        NetEnv::clock()
    }

    fn accept(&mut self, listener: &TcpListener) -> io::Result<TcpIo> {
        sys::accept_nonblocking(listener).map(TcpIo)
    }

    fn try_inline(&mut self, job: &HelperJob) -> Option<DoneData<Arc<File>>> {
        crate::fsjob::exec_job_nowait(job, &mut self.files)
    }

    fn held(&mut self, key: &str, inline_max: u64, now: Instant) -> Option<Held<Arc<File>>> {
        self.files.held(key, inline_max, now)
    }

    fn push(&mut self, work: Work<Worker>) {
        self.jobs.push(self.shard, work);
    }

    fn clear_files(&mut self) {
        self.files.clear();
    }

    fn take_wake(&mut self) {
        // Drain the pipe completely (edge-triggered: this event may be
        // the only notification for any number of bytes), by the rule
        // connections read by: a short read emptied it — one `read`
        // per wake, wake bytes being coalesced.
        let mut sink = [0u8; 256];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n == sink.len()) {}
        // Clear the coalescing flag *before* the replies are read:
        // anything enqueued after this point writes a fresh wake byte,
        // so completions cannot be lost.
        self.wake.pending.store(false, Ordering::Release);
    }

    fn recv(&mut self) -> Option<NetReply> {
        self.replies.try_recv().ok()
    }
}

/// The real transport behind [`ConnIo`]: a nonblocking `TcpStream`,
/// with gathered writes via `writev(2)` — `sendmsg(2)` with `MSG_MORE`
/// when a file body follows — and file bodies via `sendfile(2)` against
/// shared `Arc<File>` handles.
pub(crate) struct TcpIo(TcpStream);

impl AsRawFd for TcpIo {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

impl ConnIo for TcpIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        writev_fd(self.as_raw_fd(), bufs)
    }

    /// One `sendmsg(MSG_MORE)` on Linux: the header waits for its
    /// `sendfile` body and leaves in the body's first segment, or a
    /// closing response's tail for the `close(2)` behind it, whose FIN
    /// then rides in the same segment.
    fn writev_more(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        writev_more_fd(self.as_raw_fd(), bufs)
    }

    fn sendfile(&mut self, file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        send_file(self.as_raw_fd(), file, offset, max)
    }
}

/// A connection's transport as the shard drives it: the environment's
/// stream plus the two notes readiness events leave on it.
pub(crate) struct SockIo<S> {
    pub(crate) stream: S,
    /// The receive queue is known to be empty ([`ConnIo::known_empty`]):
    /// set by a read that came back short or `EAGAIN`, withdrawn by the
    /// driver on every readable event and at drain entry.
    dry: bool,
    /// A readiness event reported the peer's hang-up. Its end of
    /// stream may have been harvested together with the data in front
    /// of it, where no later edge announces it, so from here on only
    /// `Ok(0)` or `EAGAIN` ends a drain — `dry` is never set again. The
    /// core hears of it too ([`ConnIo::hung_up`]): it aborts a request
    /// parked on a worker.
    hangup: bool,
}

impl<S: ConnIo> ConnIo for SockIo<S> {
    type FileRef = S::FileRef;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let res = self.stream.read(buf);
        // A stream socket that returns less than was asked for has
        // been emptied (the rule epoll(7) gives), and whatever arrives
        // next raises a fresh event on either backend.
        self.dry = !self.hangup
            && match &res {
                Ok(n) => *n < buf.len(),
                Err(e) => e.kind() == io::ErrorKind::WouldBlock,
            };
        res
    }

    fn known_empty(&self) -> bool {
        self.dry
    }

    fn hung_up(&self) -> bool {
        self.hangup
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.stream.writev(bufs)
    }

    fn writev_more(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.stream.writev_more(bufs)
    }

    fn sendfile(&mut self, file: &S::FileRef, offset: &mut u64, max: u64) -> io::Result<usize> {
        self.stream.sendfile(file, offset, max)
    }
}

/// A connection of a shard over environment `E`: the sans-IO state
/// machine ([`crate::conn::machine::Conn`]) bound to its transport.
type NetConn<E> = Conn<SockIo<<E as Env>::Stream>>;

/// Token for the shard's wake pipe (never a valid connection token:
/// connection tokens carry a slot in the high half, and slot 2^32-1
/// with fd 2^32-1 cannot occur).
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Token for a shard's listener registration — the slot half is
/// 2^32-1, which a real connection slot can never reach, so it can
/// never collide with a connection token (nor with [`WAKE_TOKEN`],
/// whose fd half differs).
pub const LISTENER_TOKEN: u64 = u64::MAX - 1;

// A shard's application workers are registered under the tokens from
// `WORKER_TOKEN_BASE` up (`workerset.rs`): the slot half of the two
// above, with a worker's index where those have 2^32-1 and 2^32-2.

/// Packs a connection's identity into an event token: slot index in
/// the high 32 bits, descriptor number in the low 32. The fd half lets
/// the loop reject stale events after a slot is recycled — the same
/// guard the old poll loop kept via its parallel fd array.
fn conn_token(slot: usize, fd: RawFd) -> u64 {
    ((slot as u64) << 32) | (fd as u32 as u64)
}

/// The slot and the descriptor a [`conn_token`] was minted from.
fn token_parts(token: u64) -> (usize, RawFd) {
    ((token >> 32) as usize, token as u32 as RawFd)
}

/// Spawns one shard per listener, and the shared helper pool behind
/// them, into `threads`. Every shard's listener — its own
/// `SO_REUSEPORT` socket, or in single mode its duplicate of the one
/// socket — is registered in that shard's event backend before its
/// thread exists ([`net_shard`]). Returns each shard's counters.
pub(crate) fn spawn(
    listeners: Vec<TcpListener>,
    cfg: &NetConfig,
    lifecycle: &Arc<LifecycleShared>,
    threads: &mut Threads,
) -> io::Result<Vec<Arc<ShardStats>>> {
    let n_shards = listeners.len();
    let shard_stats: Vec<Arc<ShardStats>> = (0..n_shards)
        .map(|_| Arc::new(ShardStats::default()))
        .collect();

    // One shared helper queue with per-shard lanes; per-shard done
    // queues and wake pipes routing completions back.
    let jobs = JobQueue::new(n_shards);
    let mut done_txs = Vec::with_capacity(n_shards);
    let mut shards = Vec::with_capacity(n_shards);
    for (shard_id, listener) in listeners.into_iter().enumerate() {
        let stats = &shard_stats[shard_id];
        let (mut shard, wake, done_tx) = net_shard(shard_id, cfg, stats, &jobs, listener)?;
        done_txs.push(done_tx);
        threads.wakes.push(wake);
        threads.logs.extend(shard.access_log.clone());
        // Every shard can see its siblings' counters, so a
        // `/.flash/metrics` scrape answered by any one shard
        // reports the whole server.
        shard.core.export = shard_stats.clone();
        shards.push(shard);
    }

    // The helpers fork the workers the shards ask for (lazily — a
    // server with no dynamic_prefix never forks anything).
    let command: Arc<[String]> = cfg.worker_command().into();
    let helpers = &mut threads.pool.insert((Arc::clone(&jobs), Vec::new())).1;
    for i in 0..cfg.helpers {
        let queue = Arc::clone(&jobs);
        let txs = done_txs.clone();
        let wakes = threads.wakes.clone();
        let command = Arc::clone(&command);
        helpers.push(
            std::thread::Builder::new()
                .name(format!("flash-helper-{i}"))
                .spawn(move || helper_main(queue, txs, wakes, command))?,
        );
    }
    drop(done_txs);
    for mut shard in shards {
        let lifecycle = Arc::clone(lifecycle);
        threads.loops.push(
            std::thread::Builder::new()
                .name(format!("flash-shard-{}", shard.core.shard))
                .spawn(move || shard_loop(&mut shard, &lifecycle))?,
        );
    }
    Ok(shard_stats)
}

/// Builds shard `id` of the real server around `listener`. The backend
/// is created and the wake pipe and the listener registered here,
/// before any thread exists, so a failure (epoll watch limits, fd
/// exhaustion) is a clean start() error instead of a silently dead
/// shard. Returns the shard, the handle that wakes it and the sender of
/// its reply channel.
fn net_shard(
    id: usize,
    cfg: &NetConfig,
    stats: &Arc<ShardStats>,
    jobs: &Arc<JobQueue>,
    listener: TcpListener,
) -> io::Result<(Shard<NetEnv>, WakeHandle, Sender<NetReply>)> {
    let (done_tx, replies) = channel();
    let (wake, wake_rx) = WakeHandle::pair()?;
    let mut backend = new_backend(cfg.backend);
    backend.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
    backend.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::ACCEPT)?;
    let open_files = open_file_budget(cfg.event_loops);
    let env = NetEnv {
        jobs: Arc::clone(jobs),
        shard: id,
        files: OpenFileTable::new(open_files, cfg.cache_revalidate_ttl, Arc::clone(stats)),
        replies,
        wake_rx,
        wake: wake.clone(),
    };
    let shard = Shard::new(id, env, backend, listener, Arc::clone(stats), cfg);
    Ok((shard, wake, done_tx))
}

/// One shard's driver-side state: the transport-agnostic protocol
/// core plus everything only this driver owns — the helper port (and
/// in it the environment), the connection table, the listener, the
/// event backend and the deadline timers.
///
/// The driver's whole contract with the core is `Shard::reconcile`:
/// every core call that can change a slot returns a [`Drive`], and
/// `reconcile` brings the backend, the timers and the slot table in
/// line with it. Which connection closes, when, and what that does to
/// the jobs it is parked on and to the counters is the core's business.
pub struct Shard<E: Env> {
    pub(crate) core: ShardCore,
    pub(crate) port: PoolPort<E>,
    conns: Vec<Option<NetConn<E>>>,
    /// The empty slots of `conns`: pushed by [`Shard::reconcile`]'s
    /// close arm — the only place a slot is given up — and popped by
    /// [`Shard::admit`], so accepting never walks the table and the
    /// occupancy the accept gate runs on is `conns.len() - free.len()`.
    free: Vec<usize>,
    /// Per slot: whether its descriptor is registered with `backend`.
    /// Set by the first [`Shard::reconcile`] that leaves the slot
    /// occupied, cleared by its close arm — which is how that arm knows
    /// there is a registration to forget, the connection being gone.
    watched: Vec<bool>,
    /// Created with the wake pipe and the listener already registered,
    /// so backend failures abort startup instead of killing one shard.
    backend: Box<E::Backend>,
    /// Per-state deadlines, keyed by the same slot+fd tokens the event
    /// backend uses: exactly one per live connection with a deadline
    /// class. The tick is an eighth of the smallest configured
    /// timeout and the wait ends when the earliest tick is due, so
    /// rounding (≤1 tick) keeps expiry within 1.125× the configured
    /// deadline; expiry work is O((expired + 1) log n), never a scan
    /// of the connection table.
    wheel: TimerWheel,
    /// This shard's listener — a `SO_REUSEPORT` socket of its own, or
    /// in single mode its duplicate of the one socket — registered
    /// under [`LISTENER_TOKEN`]. Closed (`None`) from drain entry on.
    listener: Option<E::Listener>,
    /// Whether the listener's READ interest is armed in the backend.
    listener_armed: bool,
    /// [`NetConfig::max_conns_per_shard`]: at the cap the shard's
    /// listener interest is dropped; any close below it re-arms.
    max_conns: usize,
    /// The access-log writer (`None` unless
    /// [`NetConfig::access_log_path`] is set), this shard's own; the
    /// server handle holds it too, to reopen it on a rotation.
    access_log: Option<Arc<AccessLogWriter>>,
    /// Scratch for [`Shard::settle`]: who the completions woke.
    woken: Vec<usize>,
    /// The turn's clock: read when the wait returned, and what every
    /// core call, deadline and expiry of the turn is given; between
    /// turns, the turn's end (module docs, *The turn's clock*).
    clock: Instant,
}

/// Each shard's open-file table capacity: a quarter of the process's
/// soft `RLIMIT_NOFILE`, read once at start and split evenly, so all
/// the tables together never hold more than a quarter of the
/// descriptors the process may have — connections, listeners, helper
/// opens and `sendfile` handles keep the rest. Derived, never raised:
/// the limit is the operator's. A shard that still runs out
/// (`EMFILE`/`ENFILE` at accept) empties its table before it backs
/// off. Unreadable limit: no tables.
fn open_file_budget(n_shards: usize) -> usize {
    let soft = sys::nofile_limit().map_or(0, |(soft, _)| soft);
    usize::try_from(soft / 4 / n_shards as u64).unwrap_or(usize::MAX)
}

impl<E: Env> Shard<E> {
    /// Shard `id` over `env`, whose `backend` has the wake channel and
    /// `listener` registered already. Each shard gets an equal slice of
    /// the cache budget: private caches mean zero lock traffic at the
    /// cost of N-way duplication of the hottest entries.
    pub fn new(
        id: usize,
        env: E,
        backend: Box<E::Backend>,
        listener: E::Listener,
        stats: Arc<ShardStats>,
        cfg: &NetConfig,
    ) -> Shard<E> {
        debug_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
        let timeouts = [
            cfg.idle_timeout,
            cfg.header_read_timeout,
            cfg.write_stall_timeout,
            cfg.helper_wait_timeout,
            cfg.dynamic_deadline,
        ];
        let clock = env.now();
        let wheel = TimerWheel::new_at(tick_for(timeouts.into_iter().flatten()), clock);
        Shard {
            port: PoolPort {
                done: VecDeque::new(),
                workers: cfg
                    .dynamic_prefix
                    .as_ref()
                    .map(|_| WorkerSet::new(cfg.helpers, Arc::clone(&stats))),
                env,
                stats: Arc::clone(&stats),
            },
            core: ShardCore::new(id, cfg.shard_cache_bytes(), cfg.proto(), stats),
            conns: Vec::new(),
            free: Vec::new(),
            watched: Vec::new(),
            backend,
            wheel,
            listener: Some(listener),
            listener_armed: true,
            max_conns: cfg.max_conns_per_shard,
            access_log: cfg
                .access_log_path
                .clone()
                .map(|p| Arc::new(AccessLogWriter::open(p))),
            woken: Vec::new(),
            clock,
        }
    }

    /// Appends the access records the core has staged, in one write.
    fn flush_access_log(&mut self) {
        if let Some(w) = &self.access_log {
            w.drain(&mut self.core.access_log);
        }
    }

    /// Leaves the loop: the open-file table's descriptors close here,
    /// and conns and application workers drop with the shard — on the
    /// real server the workers killed and reaped on its thread, which
    /// has no loop left to keep from blocking.
    fn exit(&mut self) {
        self.core.stats.draining.store(0, Ordering::Relaxed);
        self.port.env.clear_files();
        self.flush_access_log();
    }

    /// Connections currently occupying slots.
    pub fn live(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    /// The core's structural invariants over this shard's slots and
    /// timers ([`ShardCore::check_invariants`]), and the driver's own
    /// between turns: no completion outlives its turn, and every worker
    /// the turn retired has left the readiness set for the helpers.
    pub fn check_invariants(&self) -> Result<(), String> {
        let queued = self.port.done.len();
        let retired = self.port.workers.as_ref().map_or(0, |w| w.morgue.len());
        if queued + retired > 0 {
            return Err(format!(
                "{queued} completions unapplied, {retired} retired workers unburied"
            ));
        }
        self.core.check_cache_bytes()?;
        let token_of = |idx| self.fd_of(idx).map_or(0, |fd| conn_token(idx, fd));
        self.core
            .check_invariants(&self.conns, &self.wheel, token_of)
    }

    /// The descriptor in slot `idx`, if the slot is occupied. Tokens
    /// are minted from it ([`conn_token`]), so comparing it with a
    /// token's fd half is the stale-token guard: a readiness event or
    /// a deadline describes the registration it was minted for, and by
    /// the time it is handled the slot may hold another connection —
    /// with a recycled kernel fd number, even.
    fn fd_of(&self, idx: usize) -> Option<RawFd> {
        let conn = self.conns.get(idx)?.as_ref()?;
        Some(conn.io.stream.as_raw_fd())
    }

    /// Places a freshly accepted connection in a slot and drives it
    /// **before** registering it: HTTP clients speak first, so the
    /// request is usually queued already, and a connection answered
    /// and closed in this drive never costs a registration. One the
    /// drive leaves open is registered by [`Shard::reconcile`] with
    /// the interest its state wants; the registration reports whatever
    /// became ready in between.
    ///
    /// Out of line on purpose: with one caller it would be inlined,
    /// first drive and all, into the loop turn, which then measures
    /// ≈ 1.3% slower on `cached_small` (CHANGES.md has the pairs).
    #[inline(never)]
    fn admit(&mut self, stream: E::Stream) {
        let mut conn = Conn::new(SockIo {
            stream,
            dry: false,
            hangup: false,
        });
        conn.opened_at = Some(self.clock);
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.watched.push(false);
                self.conns.len() - 1
            }
        };
        self.drive(idx);
    }

    /// Handles one readiness event. A worker's means it has something
    /// to say: its frames join the completion queue, and the settle
    /// drives the connections they answer here, in the turn that read
    /// them — a `DATA` and the `END` behind it leave in one `writev`. A
    /// connection's, unless the token is stale (see [`Shard::fd_of`]),
    /// withdraws the transport's "dry" report — the event says
    /// otherwise — notes a hang-up, and drives, parked or not: what a
    /// hang-up on a parked request means is the core's rule.
    fn on_event(&mut self, ev: &Event) {
        if ev.token >= WORKER_TOKEN_BASE {
            if let Some(workers) = self.port.workers.as_mut() {
                let slot = (ev.token - WORKER_TOKEN_BASE) as usize;
                let (env, done) = (&mut self.port.env, &mut self.port.done);
                workers.on_readable(slot, ev.hangup, &mut self.backend, env, done);
                self.settle(None);
            }
            return;
        }
        let (idx, fd) = token_parts(ev.token);
        match self.conns.get_mut(idx) {
            Some(Some(conn)) if conn.io.stream.as_raw_fd() == fd => {
                conn.io.dry &= !ev.readable;
                conn.io.hangup |= ev.hangup;
            }
            _ => return,
        }
        self.drive(idx);
    }

    /// Applies the completion queue — the residency test's answers,
    /// the helpers' replies and the workers' frames alike — through the
    /// core's one completion path, and drives whoever it woke, until
    /// both are empty: a drive can dispatch again (the next pipelined
    /// request) and so can a completion (a revalidation that found the
    /// file changed requeues a load), and either can be answered on
    /// the spot.
    ///
    /// `held` is a connection a core call has just left and
    /// [`Shard::reconcile`] not yet seen. Woken, it is driven on here,
    /// unreconciled, and the outcome of its last drive returned: a miss
    /// answered on the spot never shows the backend or the deadline set
    /// its `Waiting` state, so it costs no interest change, no timer,
    /// no wake byte and no second wait.
    fn settle(&mut self, held: Option<usize>) -> Option<Drive> {
        let mut woken = std::mem::take(&mut self.woken);
        let mut outcome = None;
        loop {
            while let Some(done) = self.port.done.pop_front() {
                let now = self.clock;
                self.core
                    .complete_job(done, &mut self.conns, &mut woken, &mut self.port, now);
            }
            if woken.is_empty() {
                break;
            }
            // A chunk and its `END` woke the same connection.
            woken.dedup();
            for idx in woken.drain(..) {
                if Some(idx) != held {
                    self.drive(idx);
                    continue;
                }
                let (now, conns, port) = (self.clock, &mut self.conns, &mut self.port);
                outcome = Some(self.core.drive_conn(idx, conns, port, now));
            }
        }
        self.woken = woken;
        outcome
    }

    /// The end of a loop turn, for the worker set: exchanges the turn
    /// cancelled — their waiters were purged by a close, a client's
    /// hang-up or a deadline — lose their workers now, and every
    /// worker the turn retired leaves the readiness set and goes to
    /// the helper pool to be killed and reaped. There is nothing left
    /// to settle: every completion was applied where it was queued,
    /// and retiring a cancelled exchange answers nobody — nor can it
    /// free a worker for a waiting job, since a set never holds an
    /// idle worker and a waiting job at once.
    fn sweep_workers(&mut self) {
        if let Some(workers) = self.port.workers.as_mut() {
            workers.drop_cancelled(&mut self.port.env, &mut self.port.done);
            debug_assert!(self.port.done.is_empty(), "a sweep answered a job");
            workers.bury(&mut self.backend, &mut self.port.env);
        }
    }

    /// Drives one connection as far as it goes and reconciles. A slot
    /// that is already empty (a completion list can name a connection
    /// an earlier entry closed) is left alone.
    fn drive(&mut self, idx: usize) {
        let Some(fd) = self.fd_of(idx) else {
            return;
        };
        let outcome = self
            .core
            .drive_conn(idx, &mut self.conns, &mut self.port, self.clock);
        self.reconcile(idx, fd, outcome);
    }

    /// Fires the deadline behind an expired timer key, unless the key
    /// is stale (see [`Shard::fd_of`]).
    fn expire(&mut self, token: u64) {
        let (idx, fd) = token_parts(token);
        if self.fd_of(idx) != Some(fd) {
            return;
        }
        let outcome = self
            .core
            .expire_conn(idx, &mut self.conns, &mut self.port, self.clock);
        self.reconcile(idx, fd, outcome);
    }

    /// Brings the backend, the timers and the slot table in line
    /// with what a core call left in slot `idx` (whose connection had
    /// descriptor `fd` going in) — run after **every** core call that
    /// can change a slot: applies what the call had answered on the
    /// spot first ([`Shard::settle`]), then re-arms interest when the
    /// state machine moved, forces an edge re-check after a voluntary
    /// yield, syncs the per-state deadline, and gives up the slot of a
    /// connection that closed.
    fn reconcile(&mut self, idx: usize, fd: RawFd, outcome: Drive) {
        let outcome = self.settle(Some(idx)).unwrap_or(outcome);
        let token = conn_token(idx, fd);
        if let Some(conn) = self.conns[idx].as_mut() {
            let want = desired_interest(conn, self.backend.edge_triggered());
            let ctl = &self.core.stats.ctl_calls;
            let watched = if !self.watched[idx] {
                bump(ctl);
                self.backend.register(fd, token, want).map(|()| {
                    self.watched[idx] = true;
                    conn.interest = want;
                })
            } else if want != conn.interest {
                bump(ctl);
                self.backend
                    .modify(fd, token, want)
                    .map(|()| conn.interest = want)
            } else if matches!(outcome, Drive::Yielded) {
                bump(ctl);
                self.backend.rearm(fd, token, want)
            } else {
                Ok(())
            };
            if watched.is_ok() {
                sync_deadline(conn, token, &self.core.cfg, &mut self.wheel, self.clock);
                return;
            }
            // Unwatchable means unreachable — and under ET a consumed
            // edge that cannot be re-armed is a permanent stall: close
            // the connection rather than pin its fd and slot forever.
            self.core.close_conn(idx, &mut self.conns, self.clock);
        }
        // The slot is empty and the socket closed with it, which
        // unhooked it from the kernel's interest set: there is nothing
        // to deregister, only the backend's own record to drop — the
        // poll backend's table would otherwise hand a recycled fd
        // number to the kernel. The timer must go for the same
        // reason — the token will be reminted when the slot is reused.
        if std::mem::take(&mut self.watched[idx]) {
            self.backend.forget(fd);
        }
        self.wheel.cancel(token);
        debug_assert!(!self.free.contains(&idx), "slot {idx} given up twice");
        self.free.push(idx);
    }

    /// Flips the shard into drain and drives every `Reading` slot
    /// once: the drive reads the transport dry first — a pipelined burst
    /// already sitting in the socket buffer has not reached the parser
    /// yet, and a connection must not be severed with honourable
    /// requests in its receive queue, so every "dry" report is
    /// withdrawn here (the event that would have withdrawn it may be
    /// waiting in the backend) — and the core then applies its
    /// drain-entry rule. Everything else (mid-request, response in
    /// flight) is left to finish under the drain deadline.
    fn enter_drain(&mut self) {
        self.core.begin_drain();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            conn.io.dry = false;
            if matches!(conn.state, ConnState::Reading) {
                self.drive(idx);
            }
        }
    }

    /// Takes one connection off the shard's listener for one readiness
    /// report, admitting and immediately driving it. The listener is
    /// level-triggered ([`Interest::ACCEPT`]), so a backlog with more
    /// behind it is reported again by the next wait, and no `accept4`
    /// is spent finding it empty. Drops the listener's read interest
    /// instead at the shard's connection cap, or on an accept failure
    /// (`EMFILE`/`ENFILE` under fd exhaustion, counted as
    /// `accept_backpressure`, and answered by closing every descriptor
    /// the open-file table holds); pending connections then wait in
    /// the kernel backlog (or go to another shard) until this shard
    /// re-arms. Returns whether the listener interest is still armed.
    fn accept_one(&mut self) -> bool {
        if self.live() >= self.max_conns {
            return !self.set_listener_interest(Interest::NONE);
        }
        let Some(listener) = self.listener.as_ref() else {
            return false;
        };
        bump(&self.core.stats.accept_calls);
        match self.port.env.accept(listener) {
            Ok(stream) => {
                bump(&self.core.stats.accepted);
                self.admit(stream);
                true
            }
            // A sibling on a shared socket won the race, or the
            // connection died queued: the next report says whether
            // another is waiting.
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock || is_transient(e) => true,
            Err(_) => {
                // EMFILE/ENFILE (or another persistent failure):
                // accepting again immediately would fail immediately.
                // Count it and back off; the loop retries on the
                // ACCEPT_RETRY_MS cadence and on every freed slot —
                // and finds the headroom the open-file table held:
                // cached descriptors are the first thing to go.
                bump(&self.core.stats.accept_backpressure);
                self.port.env.clear_files();
                !self.set_listener_interest(Interest::NONE)
            }
        }
    }

    /// Sets the listener's interest, keeping the registration: `NONE`
    /// quiesces it, `ACCEPT` re-arms it. Returns whether the backend took
    /// it — a listener whose interest could not be dropped stays armed,
    /// and accepting simply retries on the next event.
    fn set_listener_interest(&mut self, interest: Interest) -> bool {
        let Some(fd) = self.listener.as_ref().map(AsRawFd::as_raw_fd) else {
            return false;
        };
        bump(&self.core.stats.ctl_calls);
        self.backend.modify(fd, LISTENER_TOKEN, interest).is_ok()
    }

    /// How long the next wait may block: until the earliest armed
    /// deadline is due; with nothing armed, indefinitely — new
    /// work always arrives as a wake or a readiness event. A throttled
    /// listener with room to re-arm (the EMFILE case: headroom can
    /// return without any local readiness edge) bounds the wait to a
    /// retry cadence, and a draining shard never sleeps past its drain
    /// deadline — the severing check must run when it lands even if
    /// every remaining connection is quietly mid-transfer.
    fn wait_timeout(&self, drain_deadline: Option<Instant>) -> i32 {
        let now = self.clock;
        let mut wait_ms = self.wheel.next_timeout_ms(now).unwrap_or(-1);
        if self.listener.is_some()
            && !self.listener_armed
            && !self.core.draining
            && self.live() < self.max_conns
            && !(0..=ACCEPT_RETRY_MS).contains(&wait_ms)
        {
            wait_ms = ACCEPT_RETRY_MS;
        }
        if let Some(d) = drain_deadline {
            let left = d.saturating_duration_since(now).as_millis();
            let left = left.clamp(1, i32::MAX as u128) as i32;
            if !(0..=left).contains(&wait_ms) {
                wait_ms = left;
            }
        }
        wait_ms
    }

    /// Waits for readiness — the one call a turn may block in — and
    /// counts it. Reads the clock as the wait returns: the start of the
    /// turn, returned, and the turn's clock. The time since the last
    /// turn ended is the wait's.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<Instant> {
        let n = self.backend.wait(events, timeout_ms)?;
        let start = self.port.env.now();
        let stats = &self.core.stats;
        charge(&stats.phase_wait_us, self.clock, start);
        bump(&stats.wait_calls);
        stats.wait_events.fetch_add(n as u64, Ordering::Relaxed);
        self.clock = start;
        Ok(start)
    }

    /// One loop turn over the `events` a wait returned at `start`, in
    /// the order the loop has always taken them: the helpers' replies
    /// (on a wake), the readiness events, the deadlines, the accepts,
    /// and the worker sweep; then the turn's access records are
    /// flushed, and the clock is read a second time: the turn's end,
    /// which closes the phase ledger, feeds the stall watchdog and
    /// becomes the clock between turns.
    fn turn(&mut self, events: &[Event], start: Instant) {
        // Everything from here to the end of the turn is non-wait time
        // — the span the stall watchdog measures, phase by phase.
        let mut open = None;
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            self.lap(&mut open, |s| &s.phase_completions_us);
            self.port.env.take_wake();
            while let Some(reply) = self.port.env.recv() {
                match reply {
                    Reply::Done(done) => self.port.done.push_back(done),
                    // A fresh worker opens the exchanges that were
                    // waiting for it.
                    Reply::Spawned(worker) => {
                        if let Some(workers) = self.port.workers.as_mut() {
                            let (env, done) = (&mut self.port.env, &mut self.port.done);
                            workers.adopt(worker, &mut self.backend, env, done);
                        }
                    }
                }
            }
            // Completions flip their waiters to Writing with write
            // interest unarmed; the settle drives them at once — the
            // socket is almost always writable, so the common case
            // finishes here without ever arming write interest.
            self.lap(&mut open, |s| &s.phase_respond_us);
            self.settle(None);
        }
        // Every token below the listener's is a connection's or a
        // worker's.
        if events.iter().any(|e| e.token < LISTENER_TOKEN) {
            self.lap(&mut open, |s| &s.phase_read_us);
        }
        let mut accept_ready = false;
        for ev in events {
            match ev.token {
                WAKE_TOKEN => {}
                // Taken below, after existing connections are
                // serviced and expiries may have freed slots.
                LISTENER_TOKEN => accept_ready = true,
                // (The replies above can close a connection and let its
                // slot be reused by a new stream; `on_event` drops an
                // event that describes the *old* registration.)
                _ => self.on_event(ev),
            }
        }
        // Expire deadlines last: anything the drives above just
        // re-armed is already accounted for (single-threaded, so the
        // timers are exactly consistent with the connection table here).
        let mut expired = Vec::new();
        self.wheel.expire(start, &mut expired);
        if !expired.is_empty() {
            self.lap(&mut open, |s| &s.phase_timers_us);
        }
        for token in expired {
            self.expire(token);
        }
        // Accept last: the drives and expiries above may have freed
        // slots, so the gate decision below sees this turn's final
        // occupancy. (A draining shard has no listener left.)
        if !self.listener_armed && self.listener.is_some() && self.live() < self.max_conns {
            // Re-arm: the listener is level-triggered, so the next wait
            // reports a backlog that is still pending and the accepts
            // resume without a new connection having to arrive.
            self.lap(&mut open, |s| &s.phase_accept_us);
            self.listener_armed = self.set_listener_interest(Interest::ACCEPT);
        } else if accept_ready && self.listener_armed {
            self.lap(&mut open, |s| &s.phase_accept_us);
            self.listener_armed = self.accept_one();
        }
        self.sweep_workers();
        // Flush this turn's access records in one append, then close
        // the watchdog ledger: everything since the wait returned was
        // time the event loop spent NOT listening — the one quantity
        // AMPED exists to keep small. The tail goes to the last phase
        // that worked.
        self.flush_access_log();
        let end = self.port.env.now();
        let stats = &self.core.stats;
        if let Some((phase, mark)) = open {
            charge(phase(stats), mark, end);
        }
        let busy = nanos_since(start, end) / 1_000;
        stats.loop_stall_max_us.fetch_max(busy, Ordering::Relaxed);
        if busy >= LOOP_STALL_THRESHOLD.as_micros() as u64 {
            bump(&stats.loop_stalls);
        }
        self.clock = end;
    }

    /// Opens `phase`, which has work to do this turn, in the turn's
    /// phase ledger `open`: the phase at work, and since when. The one
    /// open before it is charged up to now — the one clock read a phase
    /// costs, and only when a second phase works in the same turn: the
    /// turn's end closes the last one. A phase that does nothing opens
    /// nothing and reads no clock.
    fn lap(&self, open: &mut Option<(Phase, Instant)>, phase: Phase) {
        let mut now = self.clock;
        if let Some((done, mark)) = *open {
            now = self.port.env.now();
            charge(done(&self.core.stats), mark, now);
        }
        *open = Some((phase, now));
    }
}

/// One of the per-phase counters behind the event-loop stall watchdog.
type Phase = fn(&ShardStats) -> &AtomicU64;

/// Adds the whole microseconds from `from` to `to` to `counter`, with
/// no 128-bit division.
fn charge(counter: &AtomicU64, from: Instant, to: Instant) {
    counter.fetch_add(nanos_since(from, to) / 1_000, Ordering::Relaxed);
}

/// Bounded retry cadence while a shard's listener is throttled with
/// room available (the EMFILE/ENFILE case): the re-arm is driven by
/// the wait timeout rather than an event, because fd headroom can
/// reappear without any readiness edge on this shard's descriptors.
const ACCEPT_RETRY_MS: i32 = 50;

/// Event-loop stall watchdog threshold: a loop iteration whose
/// **non-wait** time (accept + read + respond + completions + timers)
/// reaches this counts as a `loop_stalls` event, and the
/// `loop_stall_max_us` gauge tracks the high-water mark either way.
/// This is the direct probe for the one pathology AMPED exists to
/// prevent — a blocked event loop.
const LOOP_STALL_THRESHOLD: Duration = Duration::from_millis(100);

/// One event-loop shard: the paper's AMPED loop on the pluggable
/// readiness backend, over this shard's private connection set — the
/// real server's thread body and the sim's whole run alike.
///
/// Written to the edge-triggered contract (see [`crate::event`]):
/// every drive runs the connection until its socket is dry or full,
/// interest is reconciled with the state machine after each drive, and
/// a voluntary yield (the `sendfile` fairness budget) re-arms the
/// descriptor so the consumed writability edge is redelivered.
///
/// Each iteration is a lifecycle prologue — stop, drain entry, drain
/// exit, a published reload or log rotation — then a wait and one
/// `Shard::turn`. The shard's listener is the contract's one
/// exception: level-triggered, and taken one connection per report.
/// **Backpressure is local** — at the connection cap (or on
/// `EMFILE`/`ENFILE`) the listener's read interest is dropped, so
/// pending connections stay in the kernel backlog (or go to other
/// shards), and the interest is re-armed the moment a slot frees; a
/// backlog that filled while throttled is reported by the next wait.
pub fn shard_loop<E: Env>(shard: &mut Shard<E>, lifecycle: &LifecycleShared) {
    let mut events: Vec<Event> = Vec::new();
    loop {
        let phase = lifecycle.phase();
        if phase == PHASE_DRAINING && !shard.core.draining {
            // The listener CLOSES here, not merely quiesces: an
            // open reuseport socket keeps its place in the
            // kernel's hash group even with no one accepting, so
            // keeping it would blackhole the connections hashed to
            // it (and a shared socket nobody accepts from would
            // hold the port against a fresh bind). A next
            // generation holding inherited handoff dups keeps the
            // kernel socket (and its backlog) alive; without one,
            // fresh binds now fully own the port.
            if let Some(l) = shard.listener.take() {
                // An explicit DEL, before the close: the handoff
                // dup (and, on a shared socket, every sibling's
                // descriptor) keeps the open file description — and
                // with it the registration — alive past this handle.
                bump(&shard.core.stats.ctl_calls);
                let _ = shard.backend.deregister(l.as_raw_fd());
            }
            shard.listener_armed = false;
            shard.enter_drain();
        }
        if (phase != PHASE_RUNNING && lifecycle.severs(|| shard.clock))
            || (shard.core.draining && shard.live() == 0)
        {
            // Stopped, or past the drain deadline — whatever is left
            // is severed — or drained clean.
            return shard.exit();
        }
        // Apply a published SIGHUP reload the shard has not seen yet.
        // The swap happens between drives, so in-flight requests
        // finish undisturbed and the next request on every connection
        // — including open keep-alives — sees the new root.
        let generation = lifecycle.reload_gen();
        if generation != shard.core.epoch {
            shard
                .core
                .apply_reload(lifecycle.reload_docroot(), generation);
            // The table binds names under the old root — or, on a
            // SIGHUP to the same root, names the operator has just
            // asked to have looked at again.
            shard.port.env.clear_files();
        }
        // No wait sleeps past the drain deadline: the severing check
        // must run when it lands.
        let deadline = shard.core.draining.then(|| lifecycle.drain_deadline());
        let timeout_ms = shard.wait_timeout(deadline.flatten());
        let Ok(start) = shard.wait(&mut events, timeout_ms) else {
            continue;
        };
        shard.turn(&events, start);
        E::after_turn(shard);
    }
}

/// One more of whatever `counter` counts.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Entry;
    use crate::conn::DeadlineKind;
    use crate::event::BackendChoice;
    use crate::sock;
    use std::net::{Shutdown, SocketAddr};
    use std::path::PathBuf;

    const BACKENDS: [BackendChoice; 2] = [BackendChoice::Epoll, BackendChoice::Poll];
    const BODY: &[u8] = b"<html>budget</html>";
    const GET_10: &[u8] = b"GET /index.html HTTP/1.0\r\n\r\n";
    const GET_11: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n";

    /// A shard built as `Server::start` builds one and turned by hand
    /// — no loop, no threads — over a listener of its own, with
    /// `/index.html` already in its cache so every request is a hit (no
    /// helper pool stands behind the job queue). Over loopback a
    /// client's `connect`, `write` and `shutdown` have reached the
    /// server's socket by the time they return, which is what lets the
    /// syscall counts below be exact.
    struct Rig {
        shard: Shard<NetEnv>,
        addr: SocketAddr,
        events: Vec<Event>,
        /// Keeps the wake pipe's write end open: a closed one would
        /// read as an event on every wait.
        _wake: WakeHandle,
    }

    /// The four counted syscall families, in the order
    /// `(accept_calls, read_calls, writev_calls, ctl_calls)`.
    type Counts = (u64, u64, u64, u64);

    impl Rig {
        fn new(choice: BackendChoice) -> Rig {
            Rig::over(choice, std::env::temp_dir(), 1 << 20)
        }

        /// A rig serving `docroot` through a `cache_bytes` content
        /// cache.
        fn over(choice: BackendChoice, docroot: PathBuf, cache_bytes: u64) -> Rig {
            let mut cfg = NetConfig::new(docroot);
            cfg.cache_revalidate_ttl = None;
            Rig::with(choice, &cfg, cache_bytes)
        }

        fn with(choice: BackendChoice, cfg: &NetConfig, cache_bytes: u64) -> Rig {
            // A small cache admits small entries only; the sendfile
            // tier starts where they stop, as `validate` requires.
            let largest = cache_bytes / crate::cache::MAX_ENTRY_DIVISOR;
            let cfg = NetConfig {
                backend: choice,
                cache_bytes,
                event_loops: 1,
                sendfile_threshold_bytes: cfg.sendfile_threshold_bytes.min(largest),
                ..cfg.clone()
            };
            let listener = sock::bind_listener("127.0.0.1:0".parse().unwrap(), false).unwrap();
            let addr = listener.local_addr().unwrap();
            let jobs = JobQueue::new(1);
            let (mut shard, wake, _) =
                net_shard(0, &cfg, &Arc::default(), &jobs, listener).unwrap();
            let entry = Entry::build("/index.html", BODY.to_vec());
            assert!(shard
                .core
                .cache
                .insert_at("/index.html".into(), entry, Instant::now()));
            Rig {
                shard,
                addr,
                events: Vec::new(),
                _wake: wake,
            }
        }

        /// A client whose connection sits in the listener's backlog.
        fn connect(&self) -> TcpStream {
            let client = TcpStream::connect(self.addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client
        }

        /// A client the shard has admitted and parked: nothing sent,
        /// so its first drive read `EAGAIN` and registered it.
        fn connect_parked(&mut self) -> TcpStream {
            let client = self.connect();
            assert!(self.shard.accept_one());
            client
        }

        /// One turn of the shard loop: a `wait`, then the shipped turn
        /// over everything it returned. Returns the number of events.
        fn turn(&mut self) -> usize {
            let start = self.shard.wait(&mut self.events, 5_000).unwrap();
            self.shard.turn(&self.events, start);
            self.events.len()
        }

        /// Turns until no connection is left; returns how many it took.
        fn turns_until_closed(&mut self) -> usize {
            let mut turns = 0;
            while self.shard.live() > 0 {
                assert!(self.turn() > 0, "nothing happened for 5 s");
                turns += 1;
            }
            turns
        }

        fn counts(&self) -> Counts {
            let s = &self.shard.core.stats;
            let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
            (
                get(&s.accept_calls),
                get(&s.read_calls),
                get(&s.writev_calls),
                get(&s.ctl_calls),
            )
        }
    }

    /// Reads one keep-alive response off `client`: up to the body the
    /// rig serves.
    fn read_response(client: &mut TcpStream) {
        read_response_with(client, BODY);
    }

    /// Reads one keep-alive `200` off `client`: up to `body`.
    fn read_response_with(client: &mut TcpStream, body: &[u8]) {
        let mut resp = Vec::new();
        let mut buf = [0u8; 1024];
        while !(resp.windows(4).any(|w| w == b"\r\n\r\n") && resp.ends_with(body)) {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "server closed mid-response");
            resp.extend_from_slice(&buf[..n]);
        }
        assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(resp[..resp.len() - body.len()].ends_with(b"\r\n\r\n"));
    }

    /// Reads `client` to the server's close: one whole response.
    fn read_last_response(mut client: TcpStream) {
        let mut resp = Vec::new();
        client.read_to_end(&mut resp).unwrap();
        assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n") && resp.ends_with(BODY));
    }

    /// Accepting must not walk the connection table: a close hands
    /// its slot to the free stack and the next admit takes it back.
    #[test]
    fn admit_reuses_the_slot_a_close_freed() {
        for choice in BACKENDS {
            let mut rig = Rig::new(choice);
            let mut clients: Vec<_> = (0..4).map(|_| rig.connect_parked()).collect();
            assert_eq!((rig.shard.conns.len(), rig.shard.live()), (4, 4));

            // Client 2 hangs up; the next wait reports it and the
            // drive reads its EOF.
            drop(clients.remove(2));
            while rig.shard.conns[2].is_some() {
                assert!(rig.turn() > 0, "EOF never arrived");
            }
            assert_eq!((rig.shard.live(), &rig.shard.free[..]), (3, &[2][..]));

            clients.push(rig.connect_parked());
            assert!(
                rig.shard.conns[2].is_some(),
                "the freed slot was not reused"
            );
            assert_eq!((rig.shard.conns.len(), rig.shard.live()), (4, 4));
        }
    }

    /// Budget (a): a one-request connection whose request is waiting
    /// costs `accept4`, `read`, `writev` and the `close` — no `accept4`
    /// finds the backlog empty — and never touches the readiness
    /// backend.
    #[test]
    fn a_one_shot_connection_is_never_registered() {
        for choice in BACKENDS {
            let mut rig = Rig::new(choice);
            let registered = rig.shard.backend.registered();
            let mut client = rig.connect();
            client.write_all(GET_10).unwrap();
            assert!(rig.shard.accept_one());
            read_last_response(client);
            assert_eq!(rig.counts(), (1, 1, 1, 0), "{choice:?}");
            assert_eq!(rig.shard.backend.registered(), registered);
            assert_eq!(rig.shard.live(), 0);
        }
    }

    /// Budget (b): a keep-alive request costs `wait`, `read`, `writev`
    /// — no second `read` to hear `EAGAIN` — and the connection one
    /// registration for its whole life, forgotten, not deregistered,
    /// at its close.
    #[test]
    fn a_keep_alive_request_is_one_read_and_the_connection_one_ctl() {
        for choice in BACKENDS {
            let mut rig = Rig::new(choice);
            let registered = rig.shard.backend.registered();
            let mut client = rig.connect();
            client.write_all(GET_11).unwrap();
            assert!(rig.shard.accept_one());
            read_response(&mut client);
            for _ in 0..2 {
                client.write_all(GET_11).unwrap();
                assert_eq!(rig.turn(), 1);
                read_response(&mut client);
            }
            assert_eq!(rig.counts(), (1, 3, 3, 1), "{choice:?}");
            assert_eq!(rig.shard.backend.registered(), registered + 1);

            drop(client);
            assert_eq!(rig.turns_until_closed(), 1);
            assert_eq!(
                rig.counts(),
                (1, 4, 3, 1),
                "{choice:?}: the EOF is one read"
            );
            assert_eq!(rig.shard.backend.registered(), registered);
        }
    }

    /// Budgets (c) and (d): a request with the client's half-close
    /// right behind it — harvested by one `wait` on a registered
    /// connection (c), or already queued at the unregistered first
    /// drive (d) — is answered and the connection closed at its EOF,
    /// not held to its idle deadline. The short read that took the
    /// request cannot see the FIN; on epoll the event (for (d), the
    /// registration's own readiness report) carries the hang-up, on
    /// poll the pending EOF is simply reported again.
    #[test]
    fn a_half_close_behind_the_request_closes_at_its_eof() {
        for choice in BACKENDS {
            let max_turns = if choice == BackendChoice::Epoll { 1 } else { 2 };
            for queued_before_accept in [false, true] {
                let what = format!("{choice:?}, queued before accept: {queued_before_accept}");
                let mut rig = Rig::new(choice);
                let mut client = rig.connect();
                if !queued_before_accept {
                    assert!(rig.shard.accept_one());
                }
                client.write_all(GET_11).unwrap();
                client.shutdown(Shutdown::Write).unwrap();
                if queued_before_accept {
                    assert!(rig.shard.accept_one());
                }
                assert_eq!((rig.shard.live(), rig.counts().3), (1, 1), "{what}");

                let turns = rig.turns_until_closed();
                assert!((1..=max_turns).contains(&turns), "{what}: {turns} turns");
                read_last_response(client);
                // The request and the EOF (and, registered first, the
                // `EAGAIN` that parked it); no ctl beyond the register.
                let reads = if queued_before_accept { 2 } else { 3 };
                assert_eq!(rig.counts(), (1, reads, 1, 1), "{what}");
                assert_eq!(rig.shard.core.stats.idle_reaped.load(Ordering::Relaxed), 0);
            }
        }
    }

    /// A rig with the dynamic tier on `/app/`, and the command line of
    /// the `sh` worker the test will play the helper with.
    fn dynamic_rig(choice: BackendChoice, worker: &str) -> (Rig, Vec<String>) {
        let mut cfg = NetConfig::new(std::env::temp_dir());
        cfg.dynamic_prefix = Some("/app/".into());
        let rig = Rig::with(choice, &cfg, 1 << 20);
        (rig, vec!["/bin/sh".into(), "-c".into(), worker.into()])
    }

    /// Answers every request with one write: a frame and its `END`.
    const ONE_WRITE_WORKER: &str = "while read -r m p; do printf 'DATA 2\\nokEND\\n'; done";
    const DYNAMIC_BODY: &[u8] = b"2\r\nok\r\n0\r\n\r\n";

    impl Rig {
        /// Plays the helper the shard asked for a worker: forks one and
        /// hands it over, as the wake branch of the loop would.
        fn adopt_worker(&mut self, command: &[String]) {
            let worker = Worker::spawn(command, false);
            let port = &mut self.shard.port;
            let workers = port.workers.as_mut().unwrap();
            workers.adopt(
                worker,
                &mut *self.shard.backend,
                &mut port.env,
                &mut port.done,
            );
            self.shard.settle(None);
        }

        fn dynamic_counts(&self) -> (u64, u64, u64) {
            let s = &self.shard.core.stats;
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            (
                get(&s.worker_io_calls),
                get(&s.helper_jobs) - get(&s.inline_jobs),
                get(&s.worker_respawns),
            )
        }
    }

    /// The dynamic budget: once its worker exists, a keep-alive dynamic
    /// request is `wait, read, write, wait, read, writev` — two calls on
    /// the worker's socket, nothing handed to the pool, and no
    /// interest-set call for the worker, whose one registration dates
    /// from its adoption. On epoll none for the connection either: it
    /// stays registered for reading, and so watched for its client's
    /// hang-up, while the worker owns its request. On poll its entry
    /// turns hang-up-only and back (`Reading` → `Waiting` → `Reading`):
    /// two table edits a request, counted, no system call.
    #[test]
    fn a_warm_dynamic_request_is_two_worker_calls_and_no_worker_ctl() {
        for choice in BACKENDS {
            let ctl = if choice == BackendChoice::Epoll { 0 } else { 4 };
            let (mut rig, command) = dynamic_rig(choice, ONE_WRITE_WORKER);
            let mut client = rig.connect();
            client
                .write_all(b"GET /app/cold HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            // Read and dispatched, to a set with no worker yet: the one
            // job of this test the pool is asked to do is the fork.
            assert!(rig.shard.accept_one());
            assert_eq!(rig.dynamic_counts(), (0, 1, 0), "{choice:?}");
            let registered = rig.shard.backend.registered();
            rig.adopt_worker(&command);
            assert_eq!(rig.shard.backend.registered(), registered + 1);
            assert_eq!(rig.turn(), 1);
            read_response_with(&mut client, DYNAMIC_BODY);
            assert_eq!(rig.dynamic_counts(), (2, 0, 0), "{choice:?}");

            let before = rig.counts();
            for path in ["warm", "warmer"] {
                let req = format!("GET /app/{path} HTTP/1.1\r\nHost: t\r\n\r\n");
                client.write_all(req.as_bytes()).unwrap();
                assert_eq!(rig.turn(), 1, "the client's request");
                assert_eq!(rig.turn(), 1, "the worker's answer");
                read_response_with(&mut client, DYNAMIC_BODY);
            }
            let after = rig.counts();
            assert_eq!(
                (
                    after.0 - before.0,
                    after.1 - before.1,
                    after.2 - before.2,
                    after.3 - before.3
                ),
                (0, 2, 2, ctl),
                "{choice:?}: a read and a writev per request"
            );
            assert_eq!(rig.dynamic_counts(), (6, 0, 0), "{choice:?}");
            assert_eq!(rig.shard.backend.registered(), registered + 1);
        }
    }

    /// One worker cannot hold the loop: whatever it has written, a
    /// readable event is worth sixteen reads of 16 KiB, so a 1 MiB
    /// frame takes at least four turns to arrive — and arrives whole.
    #[test]
    fn a_readable_event_is_worth_a_bounded_number_of_reads() {
        const FRAME: usize = 1 << 20;
        let chatty =
            "read -r m p; printf 'DATA 1048576\\n'; head -c 1048576 /dev/zero; printf 'END\\n'";
        for choice in BACKENDS {
            let (mut rig, command) = dynamic_rig(choice, chatty);
            let mut client = rig.connect();
            client
                .write_all(b"GET /app/big HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            assert!(rig.shard.accept_one());
            rig.adopt_worker(&command);
            client.set_nonblocking(true).unwrap();
            let io = |rig: &Rig| rig.dynamic_counts().0;
            let (mut resp, mut buf, mut worker_turns) = (Vec::new(), vec![0u8; 1 << 16], 0);
            while !resp.ends_with(b"\r\n0\r\n\r\n") {
                let before = io(&rig);
                assert!(
                    rig.turn() > 0,
                    "{choice:?}: stalled at {} bytes",
                    resp.len()
                );
                let reads = io(&rig) - before;
                assert!(reads <= 16, "{choice:?}: {reads} reads in one turn");
                worker_turns += usize::from(reads > 0);
                while let Ok(n) = client.read(&mut buf) {
                    assert!(n > 0, "{choice:?}: closed mid-response");
                    resp.extend_from_slice(&buf[..n]);
                }
            }
            assert!(worker_turns >= 4, "{choice:?}: {worker_turns} turns");
            let zeros = resp.iter().filter(|&&b| b == 0).count();
            assert_eq!(zeros, FRAME, "{choice:?}");
        }
    }

    /// A cancelled exchange loses its worker in the turn that cancelled
    /// it: the deadline of a connection waiting on a wedged worker
    /// fires, and the sweep that ends that turn has the worker out of
    /// the readiness set and on its way to a helper — the next request
    /// asks for a fresh one. And a worker that talks behind its `END`
    /// is retired by the event that says so, before it can be given
    /// another request.
    #[test]
    fn a_cancelled_or_talkative_worker_is_gone_by_the_end_of_the_turn() {
        let wedged = "read -r m p; exec sleep 30";
        let talkative =
            "while read -r m p; do printf 'DATA 2\\nokEND\\n'; printf 'DATA 1\\nx'; done";
        for choice in BACKENDS {
            let (mut rig, command) = dynamic_rig(choice, wedged);
            let registered = rig.shard.backend.registered();
            let mut client = rig.connect();
            client
                .write_all(b"GET /app/wedge HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            assert!(rig.shard.accept_one());
            rig.adopt_worker(&command);
            assert_eq!(rig.shard.backend.registered(), registered + 2);
            // The turn in which the dynamic deadline fires.
            let token = conn_token(0, rig.shard.fd_of(0).unwrap());
            rig.shard.expire(token);
            rig.shard.sweep_workers();
            assert_eq!(rig.dynamic_counts(), (1, 0, 1), "{choice:?}");
            assert_eq!(rig.shard.backend.registered(), registered, "{choice:?}");
            let mut resp = Vec::new();
            client.read_to_end(&mut resp).unwrap();
            assert!(resp.starts_with(b"HTTP/1.1 504 "), "{choice:?}");

            let (mut rig, command) = dynamic_rig(choice, talkative);
            let registered = rig.shard.backend.registered();
            let mut client = rig.connect();
            client
                .write_all(b"GET /app/chatty HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            assert!(rig.shard.accept_one());
            rig.adopt_worker(&command);
            // The answer, and — in that read or in one of its own —
            // what the worker had no business adding.
            while rig.dynamic_counts().2 == 0 {
                assert!(rig.turn() > 0, "{choice:?}: the worker stayed silent");
            }
            read_response_with(&mut client, DYNAMIC_BODY);
            assert_eq!(rig.shard.backend.registered(), registered + 1, "{choice:?}");
        }
    }

    /// A client that hangs up on a request its worker has not answered
    /// takes the worker with it in the turn that hears of it: the event
    /// carries the hang-up, the core aborts the request, and the sweep
    /// that ends the turn retires the worker — no deadline waited for.
    #[test]
    fn a_client_that_leaves_a_silent_worker_frees_it_in_that_turn() {
        for choice in BACKENDS {
            let (mut rig, command) = dynamic_rig(choice, "read -r m p; exec sleep 30");
            let registered = rig.shard.backend.registered();
            let client = rig.connect();
            (&client)
                .write_all(b"GET /app/silent HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            assert!(rig.shard.accept_one());
            rig.adopt_worker(&command);
            assert_eq!(
                rig.dynamic_counts(),
                (1, 0, 0),
                "{choice:?}: the request line"
            );
            drop(client);
            assert_eq!(rig.turn(), 1, "{choice:?}: the hang-up");
            assert_eq!(rig.dynamic_counts(), (1, 0, 1), "{choice:?}");
            let s = &rig.shard.core.stats;
            assert_eq!(s.jobs_cancelled.load(Ordering::Relaxed), 1, "{choice:?}");
            assert_eq!(s.dynamic_timeouts.load(Ordering::Relaxed), 0, "{choice:?}");
            assert_eq!(
                (rig.shard.live(), rig.shard.backend.registered()),
                (0, registered)
            );
        }
    }

    /// The open-file table's budget: six files behind a content cache
    /// that holds four, fetched twice in order over one keep-alive
    /// connection. Every miss is answered in the loop both times, and
    /// the helper queue (nobody stands behind it) is never used. The
    /// first pass resolves each name by path, inline, reads it and
    /// caches it, the last four inserts evicting the first two. The
    /// second pass misses those two and answers each from the
    /// descriptor the first pass left — `sendfile`, the whole body,
    /// under the head the table keeps — before any job exists, so
    /// neither counts as a job; it inserts nothing, so the four cached
    /// files it fetches next are still there: a cyclic pass no longer
    /// thrashes the cache. (Where `cachestat` is unavailable the held
    /// hits are jobs that read bytes and insert them, and the second
    /// pass misses all six, as every pass used to.) A miss answered
    /// in the loop never shows the backend its `Waiting` state: the
    /// connection's one registration is the only interest-set call
    /// (on poll a parked entry would cost two table edits), and after
    /// each response the one armed deadline is the connection's idle
    /// one.
    #[test]
    fn a_miss_on_a_file_served_before_is_answered_from_the_open_file_table() {
        let root = std::env::temp_dir().join(format!("flash-rig-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let body = |i: usize| vec![b'a' + i as u8; 1000 + i];
        for i in 0..6 {
            std::fs::write(root.join(format!("f{i}.html")), body(i)).unwrap();
            // What the residency test needs cached: the bytes, and the
            // negative lookup of the `.gz` sibling.
            std::fs::read(root.join(format!("f{i}.html"))).unwrap();
            assert!(std::fs::metadata(root.join(format!("f{i}.html.gz"))).is_err());
        }
        let probe = sys::open_cached(&root.join("f0.html"), false)
            .and_then(|f| sys::pread_nowait(&f, &mut [0u8; 1], 0));
        if probe.is_err() {
            eprintln!("residency test unavailable here ({probe:?}); skipping");
            let _ = std::fs::remove_dir_all(&root);
            return;
        }
        let by_descriptor = File::open(root.join("f0.html"))
            .and_then(|f| sys::resident(&f, 1))
            .is_ok();
        for choice in BACKENDS {
            // 6 000 bytes: four entries of ≈ 1.4 kB each, never six.
            let mut rig = Rig::over(choice, root.clone(), 6_000);
            let mut client = rig.connect();
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            let mut cached = 0;
            for pass in 0..2 {
                for i in 0..6 {
                    if pass == 1 && i == 0 {
                        cached = get(&rig.shard.core.stats.cache_used_bytes);
                    }
                    let req = format!("GET /f{i}.html HTTP/1.1\r\nHost: t\r\n\r\n");
                    client.write_all(req.as_bytes()).unwrap();
                    if pass + i == 0 {
                        assert!(rig.shard.accept_one());
                    } else {
                        assert_eq!(rig.turn(), 1);
                    }
                    read_response_with(&mut client, &body(i));
                    let conn = rig.shard.conns[0].as_ref().unwrap();
                    assert_eq!(
                        (rig.counts().3, rig.shard.wheel.pending(), conn.deadline),
                        (1, 1, DeadlineKind::Idle),
                        "{choice:?} pass {pass} file {i}"
                    );
                }
                let s = &rig.shard.core.stats;
                // The second pass: f0 and f1 from their descriptors,
                // with no job, f2–f5 from the cache (read, all six, by
                // jobs, without `cachestat`).
                let (done, held, hits, sent) = match (pass, by_descriptor) {
                    (0, _) => (6, 0, 0, (0, 0)),
                    (_, true) => (6, 2, 4, (2, 1000 + 1001)),
                    (_, false) => (12, 6, 0, (0, 0)),
                };
                assert_eq!(
                    (
                        get(&s.helper_jobs),
                        get(&s.inline_jobs),
                        get(&s.open_file_hits),
                        get(&s.open_files),
                        get(&s.cache_hits),
                    ),
                    (done, done, held, 6, hits),
                    "{choice:?} pass {pass}"
                );
                assert_eq!(
                    (get(&s.sendfile_calls), get(&s.bytes_sendfile)),
                    sent,
                    "{choice:?} pass {pass}: one sendfile per held hit, the whole body"
                );
                if pass == 1 && by_descriptor {
                    assert_eq!(
                        get(&s.cache_used_bytes),
                        cached,
                        "{choice:?}: a held hit must not insert"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn conn_token_roundtrips_slot_and_fd() {
        for (slot, fd) in [(0usize, 0), (3, 17), (100_000, 1023), (1, i32::MAX)] {
            let t = conn_token(slot, fd);
            assert_eq!(token_parts(t), (slot, fd));
            assert_ne!(t, WAKE_TOKEN);
        }
    }
}
