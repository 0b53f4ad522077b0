//! The MT variant on real sockets: one blocking thread per connection.
//!
//! The §3.2 architecture for comparison with the AMPED server in
//! [`crate::server`]: threads share the content cache behind a lock,
//! each handles one connection at a time with blocking I/O, and the OS
//! provides all the overlap. Simpler than the event loop — the exact
//! trade the paper discusses — at the cost of per-connection threads
//! and lock traffic.
//!
//! It is a **driver** of the protocol core in [`crate::conn`], not a
//! second server: a connection thread owns a [`ShardCore`] over a table
//! of one [`Conn`] and loops "drive; run what the core dispatched,
//! here, and hand back the result; expire the deadline the core armed
//! if it has lapsed; wait for bytes". Parsing, routing, negotiation,
//! revalidation, error responses, the dynamic stream, every counter and
//! the close-or-keep decision are the core's, as they are for the
//! shards. What is MT's own is exactly three things:
//!
//! * **threads** — one per connection, spawned by the accept loop
//!   (`accept.rs`) and joined at teardown;
//! * **blocking calls** — `BlockingIo`: a `read` that waits up to
//!   200 ms (the cadence on which a silent connection's thread looks at
//!   the lifecycle phase, the reload generation and its deadline), one
//!   `write` per queued segment and `sendfile`
//!   windows under `SO_SNDTIMEO` — a send that cannot move a byte for
//!   [`NetConfig::write_stall_timeout`] fails and the connection
//!   closes, the blocking twin of the write-stall deadline — and disk
//!   or worker I/O done right on the connection's thread
//!   ([`crate::fsjob::exec_job`], `appworker::run_exchange`): only
//!   this connection stalls;
//! * **the cache lock** — `SharedCache`, the [`CacheHandle`] through
//!   which every thread's core reaches the one content cache.
//!
//! The lifecycle is the one [`Server`](crate::Server)'s, started with
//! [`ServerKind::Mt`](crate::ServerKind::Mt): the handle binds or
//! adopts the listener, keeps the handoff set and owns every verb; this
//! file only spawns the accept thread over that listener. A connection
//! thread applies what the verbs published on its read cadence, as a
//! shard does on its loop: on a drain an idle keep-alive closes and a
//! request in flight finishes; at the drain deadline, or on a stop, the
//! thread severs its connection itself (`LifecycleShared::severs`,
//! read by its loop and by its worker exchange), so no watchdog thread
//! waits out the grace; a reload swaps the served root and flushes the
//! shared cache without dropping a connection. The accept thread closes
//! the listener as soon as the server leaves the running phase, before
//! it joins the connection threads, so a next generation can bind or
//! inherit the port while this one drains.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::accept::{prepare_accept_backend, run_accept_loop};
use crate::appworker::{self, WorkerPool};
use crate::cache::{CacheHandle, ContentCache, Entry, Lookup};
use crate::config::NetConfig;
use crate::conn::machine::sync_deadline;
use crate::conn::{
    Conn, ConnIo, ConnState, Done, DoneData, HelperJob, HelperPort, JobKind, ShardCore, ShardStats,
};
use crate::event::pollset::peer_hung_up;
use crate::fsjob;
use crate::handle::Threads;
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_RUNNING};
use crate::pool::WakeHandle;
use crate::sendfile::send_file;
use crate::stats::AccessLogWriter;

/// The content cache plus the reload generation its entries were
/// loaded under — one lock covers both, so a reload's flush and any
/// insert racing it serialize ([`SharedCache`]).
struct Generation {
    cache: ContentCache,
    number: u64,
}

/// What every connection thread shares.
struct Shared {
    cfg: NetConfig,
    cache: Mutex<Generation>,
    lifecycle: Arc<LifecycleShared>,
    /// One "shard" of counters and histograms: every thread's core
    /// writes the same atomics.
    stats: Arc<ShardStats>,
    /// The access log: one writer for every connection thread, each
    /// batch of records appended under its lock.
    log: Option<Arc<AccessLogWriter>>,
    /// The application workers of the dynamic tier.
    workers: WorkerPool,
}

/// Spawns MT's accept thread over `listener` into `threads`: a thread
/// per accepted connection, each joined when the accept loop ends. The
/// listener and the accept thread's wake pipe are registered in its
/// readiness backend before the thread exists, so a backend that cannot
/// watch them is a start error, not a silently deaf accept thread.
/// Returns the one "shard" of counters every connection thread writes —
/// the same registry the AMPED server exports, so both architectures
/// are compared with identical instruments.
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: NetConfig,
    lifecycle: &Arc<LifecycleShared>,
    threads: &mut Threads,
) -> io::Result<Vec<Arc<ShardStats>>> {
    let (wake, wake_rx) = WakeHandle::pair()?;
    let backend = prepare_accept_backend(cfg.backend, &listener, &wake_rx)?;
    // A published reload concerns the connection threads, which look
    // for themselves on their read cadence: the accept thread's wake is
    // left pending, so only halt's forced one reaches it.
    wake.pending.store(true, Ordering::Relaxed);
    threads.wakes.push(wake);
    let stats = Arc::new(ShardStats::default());
    let shared = Arc::new(Shared {
        cache: Mutex::new(Generation {
            cache: ContentCache::new(cfg.cache_bytes),
            number: 0,
        }),
        lifecycle: Arc::clone(lifecycle),
        stats: Arc::clone(&stats),
        log: cfg
            .access_log_path
            .clone()
            .map(|p| Arc::new(AccessLogWriter::open(p))),
        // One application-worker pool shared by every connection
        // thread — the MT twin of the AMPED helper pool's workers.
        workers: WorkerPool::new(cfg.worker_command()),
        cfg,
    });
    threads.logs.extend(shared.log.clone());
    let accept = std::thread::Builder::new()
        .name("flash-mt-accept".into())
        .spawn(move || {
            // One blocking thread per connection; each accept reaps
            // the ones that have finished since the last.
            let mut threads: Vec<JoinHandle<()>> = Vec::new();
            run_accept_loop(&listener, backend, &shared.lifecycle, |stream| {
                threads.retain(|h| !h.is_finished());
                let shared = Arc::clone(&shared);
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if let Ok(h) = std::thread::Builder::new()
                    .name("flash-mt-conn".into())
                    .spawn(move || ConnThread::new(stream, shared).serve())
                {
                    threads.push(h);
                }
            });
            // The port is released before the connections are waited
            // for: a next generation may bind it while these drain.
            drop((listener, wake_rx));
            for h in threads {
                let _ = h.join();
            }
        })?;
    threads.loops.push(accept);
    Ok(vec![stats])
}

/// One connection thread's handle on the cache all threads share,
/// carrying the reload generation its core has applied: an insert
/// under a stale generation is refused under the lock, so bytes read
/// against a pre-reload docroot can never land in the post-reload
/// cache.
struct SharedCache {
    shared: Arc<Shared>,
    epoch: u64,
}

impl SharedCache {
    fn lock(&self) -> MutexGuard<'_, Generation> {
        self.shared.cache.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl CacheHandle for SharedCache {
    fn lookup_at(&mut self, path: &str, ttl: Option<Duration>, now: Instant) -> Lookup {
        self.lock().cache.lookup_at(path, ttl, now)
    }
    fn insert_at(&mut self, path: String, entry: Arc<Entry>, now: Instant) -> bool {
        let mut locked = self.lock();
        locked.number == self.epoch && locked.cache.insert_at(path, entry, now)
    }
    fn peek(&self, path: &str) -> Option<Arc<Entry>> {
        self.lock().cache.peek(path)
    }
    fn refresh_at(&mut self, path: &str, now: Instant) {
        self.lock().cache.refresh_at(path, now)
    }
    fn invalidate(&mut self, path: &str) -> bool {
        self.lock().cache.invalidate(path)
    }
    fn used_bytes(&self) -> u64 {
        self.lock().cache.used_bytes()
    }
    /// The first thread to apply a reload flushes the cache; the
    /// generation lives under the lock, so that happens exactly once.
    fn reset(&mut self, generation: u64) {
        let mut locked = self.lock();
        if locked.number < generation {
            locked.cache.reset(generation);
            locked.number = generation;
        }
        drop(locked);
        self.epoch = generation;
    }
}

/// The blocking transport behind [`ConnIo`]. Writes block in the call,
/// bounded by `SO_SNDTIMEO`. Reads block *outside* the core, in
/// [`BlockingIo::fill`]: the core's clock is a parameter, and a drive
/// entered before a read that then waits 200 ms for the next request
/// would stamp that request — its latency, its helper wait — with the
/// instant the wait began. So the thread waits for bytes first and
/// drives with the time they arrived; [`ConnIo::read`] hands over what
/// the wait took and [`ConnIo::known_empty`] says when that is all —
/// a report as fresh as the wait every drive of a reading connection
/// follows, so there is none to withdraw at drain entry.
struct BlockingIo {
    stream: TcpStream,
    /// `inbox[at..end]` is what the last [`Self::fill`] took and the
    /// core has not read yet.
    inbox: Box<[u8; 4096]>,
    at: usize,
    end: usize,
    /// The peer closed (a read took the end of the stream, or a silent
    /// worker's tick saw the hang-up), or the socket failed: the next
    /// read the core makes past the inbox reports end of stream, and
    /// the core hears of it ([`ConnIo::hung_up`]).
    eof: bool,
}

impl BlockingIo {
    /// One blocking `read`, at most [`READ_CADENCE`] long. A timeout
    /// leaves the inbox empty — the core is not asked to read, as of a
    /// dry nonblocking socket — and returns `false`; bytes or the end
    /// of the stream return `true`, and the core's next `read` takes
    /// all of it (the inbox is the size of the core's read buffer).
    fn fill(&mut self) -> bool {
        debug_assert!(self.at == self.end, "filled over unread bytes");
        match self.stream.read(&mut self.inbox[..]) {
            Ok(0) => self.eof = true,
            Ok(n) => (self.at, self.end) = (0, n),
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted => return false,
                _ => self.eof = true,
            },
        }
        true
    }

    /// One `poll` of the socket for the peer's hang-up, noted as its
    /// end of stream. Whether one is noted.
    fn note_hangup(&mut self) -> bool {
        self.eof = self.eof || peer_hung_up(self.stream.as_raw_fd());
        self.eof
    }
}

/// A send `SO_SNDTIMEO` gave up on reports `EAGAIN` — which the core
/// takes for backpressure to be waited out. On a blocking socket it is
/// the write-stall deadline: the send failed.
fn stalled(e: io::Error) -> io::Error {
    match e.kind() {
        io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
        _ => e,
    }
}

impl ConnIo for BlockingIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.end - self.at).min(buf.len());
        if n == 0 && !self.eof {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        buf[..n].copy_from_slice(&self.inbox[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }

    fn known_empty(&self) -> bool {
        self.at == self.end && !self.eof
    }

    fn hung_up(&self) -> bool {
        self.eof
    }

    /// One `write` per segment (each looped on a partial write).
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        let mut n = 0;
        for buf in bufs {
            self.stream.write_all(buf).map_err(stalled)?;
            n += buf.len();
        }
        Ok(n)
    }

    fn sendfile(&mut self, file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        send_file(self.stream.as_raw_fd(), file, offset, max).map_err(stalled)
    }
}

/// The inline [`HelperPort`]: a thread per connection has no one to
/// hand a job to, so `submit` only queues it for [`ConnThread::run`].
struct InlinePort {
    jobs: Vec<HelperJob>,
}

impl HelperPort for InlinePort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }
}

/// How long a blocked `read` waits before the thread looks at the
/// lifecycle phase, the reload and log-rotation generations and its
/// deadline — so shutdown and every deadline are honoured on that
/// cadence even when the peer is silent.
const READ_CADENCE: Duration = Duration::from_millis(200);

/// One connection's thread: a protocol core of its own over a table
/// of one connection, its port, and the deadline the core has armed.
struct ConnThread {
    shared: Arc<Shared>,
    core: ShardCore<SharedCache>,
    conns: [Option<Conn<BlockingIo>>; 1],
    port: InlinePort,
    /// When the deadline [`sync_deadline`] armed lapses — this
    /// driver's whole deadline set.
    armed: Option<Instant>,
    /// Scratch: who a completion woke (always this connection).
    woken: Vec<usize>,
}

impl ConnThread {
    fn new(stream: TcpStream, shared: Arc<Shared>) -> ConnThread {
        let _ = stream.set_read_timeout(Some(READ_CADENCE));
        let _ = stream.set_write_timeout(shared.cfg.write_stall_timeout);
        let mut conn = Conn::new(BlockingIo {
            stream,
            inbox: Box::new([0; 4096]),
            at: 0,
            end: 0,
            eof: false,
        });
        conn.opened_at = Some(Instant::now());
        // The core starts at reload generation 0 with the docroot the
        // server was started on, however many reloads have been
        // published since: `serve` applies a pending one before the
        // first request is served.
        let cache = SharedCache {
            shared: Arc::clone(&shared),
            epoch: 0,
        };
        ConnThread {
            core: ShardCore::with_cache(0, cache, shared.cfg.proto(), Arc::clone(&shared.stats)),
            shared,
            conns: [Some(conn)],
            port: InlinePort { jobs: Vec::new() },
            armed: None,
            woken: Vec::new(),
        }
    }

    /// The connection's whole life. Every exit but the stop-now one is
    /// a close the core made (and recorded).
    fn serve(mut self) {
        while self.observe_lifecycle() {
            self.drive();
            while let Some(job) = self.port.jobs.pop() {
                self.run(job);
            }
            if lapsed(self.armed) {
                self.core
                    .expire_conn(0, &mut self.conns, &mut self.port, Instant::now());
                self.reconcile();
            }
            match self.conns[0].as_mut() {
                None => return,
                // `read_calls` is `read(2)`s on every driver: the core
                // counts this one when it is handed what it took; a
                // wait that came back empty it never hears of.
                Some(conn) if matches!(conn.state, ConnState::Reading) => {
                    if !conn.io.fill() {
                        self.core.stats.read_calls.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Mid-send (the `sendfile` fairness budget): drive on.
                Some(_) => {}
            }
        }
        self.core.close_conn(0, &mut self.conns, Instant::now());
    }

    /// Brings the core in line with what the server has been told:
    /// drain, a docroot reload, an access-log rotation. `false` means
    /// sever: the server is stopping, or this thread is past the drain
    /// deadline — which it enforces itself, as a shard does.
    fn observe_lifecycle(&mut self) -> bool {
        let lifecycle = &self.shared.lifecycle;
        let phase = lifecycle.phase();
        if phase == PHASE_DRAINING && !self.core.draining {
            self.core.begin_drain();
        }
        if phase != PHASE_RUNNING && lifecycle.severs(Instant::now) {
            return false;
        }
        let generation = lifecycle.reload_gen();
        if generation != self.core.epoch {
            self.core
                .apply_reload(lifecycle.reload_docroot(), generation);
        }
        true
    }

    fn drive(&mut self) {
        self.core
            .drive_conn(0, &mut self.conns, &mut self.port, Instant::now());
        self.reconcile();
    }

    /// After every core call that can change the slot: write out the
    /// access records it staged and sync the connection's deadline —
    /// from a clock read now, not the one the call was given. The call
    /// may have blocked in a send for as long as a slow client took,
    /// and a deadline counted from before it (the write-stall one
    /// after a `sendfile` visit, the idle one after a long flush) would
    /// be armed already lapsed.
    fn reconcile(&mut self) {
        if let Some(log) = &self.shared.log {
            log.drain(&mut self.core.access_log);
        }
        match self.conns[0].as_mut() {
            Some(conn) => sync_deadline(conn, 0, &self.core.cfg, &mut self.armed, Instant::now()),
            None => self.armed = None,
        }
    }

    /// Executes one job the core dispatched, on this thread — on MT
    /// every job is an inline job — and hands the core each result.
    fn run(&mut self, job: HelperJob) {
        self.core.stats.inline_jobs.fetch_add(1, Ordering::Relaxed);
        if job.kind != JobKind::Dynamic {
            return self.complete(&job, fsjob::exec_job(&job));
        }
        // The worker exchange stops when the core cancels the job — the
        // client went away, or hung up while the worker was silent —
        // when the server severs (stopped, or past the drain
        // deadline), or when the deadline the core armed
        // lapses — every delivered chunk re-arms it, so it bounds the
        // worker's silence. What a lapse means (`504` or sever) is
        // `expire_conn`'s to say, in `serve`.
        let shared = Arc::clone(&self.shared);
        let this = RefCell::new(self);
        let stop = |silent| {
            let mut this = this.borrow_mut();
            // A silent worker's tick: a look at the client. A hang-up
            // is noted and the parked connection driven — what it
            // means is the core's to say.
            if silent && this.conns[0].as_mut().is_some_and(|c| c.io.note_hangup()) {
                this.drive();
            }
            job.is_cancelled() || lapsed(this.armed) || shared.lifecycle.severs(Instant::now)
        };
        let retired = appworker::run_exchange(&shared.workers, &job, &stop, &mut |ev| {
            this.borrow_mut().complete(&job, DoneData::Dynamic(ev))
        });
        let respawns = &shared.stats.worker_respawns;
        respawns.fetch_add(retired, Ordering::Relaxed);
    }

    fn complete(&mut self, job: &HelperJob, data: DoneData<Arc<File>>) {
        let done = Done {
            path: job.path.clone(),
            data,
            epoch: job.epoch,
            token: job.token,
        };
        let now = Instant::now();
        self.core
            .complete_job(done, &mut self.conns, &mut self.woken, &mut self.port, now);
        self.woken.clear();
        self.drive();
    }
}

fn lapsed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}
