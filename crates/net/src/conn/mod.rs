//! The **sans-IO protocol core**: the connection state machine and
//! per-shard bookkeeping, extracted from the syscall-driven server
//! loop so one body of protocol logic runs under two drivers — the
//! AMPED event loop in [`crate::server`] and the thread-per-connection
//! MT server in [`crate::mt`] (a core per connection thread, blocking
//! calls, every job run on the thread that dispatched it). The event
//! loop is written once, over an environment: the real kernel
//! (nonblocking sockets, `writev(2)`, `sendfile(2)`, the shared
//! helper-thread pool) or the simulated one in [`crate::sim`]
//! (in-memory sockets, simulated time, scheduled fault injection,
//! hundreds of thousands of replayed connections per seed).
//!
//! The core speaks through two narrow traits, and reaches its content
//! cache through a third:
//!
//! * [`ConnIo`] — everything the state machine ever asks of a
//!   transport: `read`, gathered `writev`, and one `sendfile` chunk
//!   against an opaque [`ConnIo::FileRef`]. The shard driver implements
//!   it over a nonblocking `TcpStream` (with `FileRef = Arc<File>`),
//!   the MT driver over a blocking one; the simulated kernel over
//!   in-memory sockets with windows and injected partial writes (with
//!   a value-type file handle).
//! * [`HelperPort`] — how the core dispatches disk work. The core
//!   submits a [`HelperJob`] and later receives a [`Done`]; whether a
//!   helper thread pool, the submitting thread itself or a
//!   simulated-latency scheduler sits behind the port is the driver's
//!   business.
//! * [`crate::cache::CacheHandle`] — a shard's private
//!   [`crate::cache::ContentCache`], or an MT thread's locked handle
//!   on the one cache all threads share.
//!
//! # The driver contract
//!
//! Every core call that can change a slot —
//! [`ShardCore::drive_conn`], [`ShardCore::expire_conn`], and a
//! [`ShardCore::complete_job`] followed by a drive of each connection
//! it woke — ends in a [`Drive`], and the driver reconciles *its* side
//! with the slot in one place, after every such call:
//!
//! * the slot is **empty** (`Drive::Closed`): the transport went with
//!   the connection, so *forget* its readiness registration
//!   ([`crate::event::EventBackend::forget`]) — don't deregister a
//!   descriptor that is already closed — drop its
//!   [`crate::timer::TimerWheel`] key, and hand the slot to whatever
//!   admits the next connection;
//! * the slot is **occupied**: arm [`machine::desired_interest`] for
//!   the state the connection is now in (re-arming the consumed edge
//!   after `Drive::Yielded`), and call [`machine::sync_deadline`]. A
//!   new connection is driven *first* and registered here, at the
//!   first reconcile that leaves its slot occupied and with the
//!   interest that state wants: a connection answered and closed in
//!   its first drive is never registered at all, and since a
//!   registration reports readiness that predates it, nothing that
//!   arrived in between is lost. If the transport cannot be watched,
//!   the driver says so with [`ShardCore::close_conn`] and treats the
//!   slot as empty.
//!
//! A driver of one connection a thread has the same contract with
//! less to reconcile: no registration, and the deadline
//! `sync_deadline` arms is an instant the thread compares with its
//! clock ([`machine::Deadlines`]). Its transport may block, so it
//! reads the clock it gives `sync_deadline` *after* the call it
//! reconciles: a send can take as long as a slow client does, and a
//! deadline counted from before it would be armed already lapsed.
//!
//! Readiness ([`crate::event::EventBackend`]) and the wheel stay
//! driver-owned, and so do the tokens that key them: the driver mints
//! them, and the driver checks that an event or an expired key still
//! names the connection in the slot before it calls the core. When a
//! wheel key fires, the driver calls `expire_conn` and reconciles; at
//! drain entry it calls [`ShardCore::begin_drain`] and drives every
//! `Reading` slot once. A driver whose transport reports
//! [`ConnIo::known_empty`] withdraws that report on every readable
//! event and, for every slot, at drain entry — the drain-entry rule
//! must see what is in the transport, not what was.
//!
//! What a driver must **never** decide: which deadline class means
//! what (the counter, the `504`-or-sever choice), whether a close has
//! to purge a waiter registration or cancel a job, what a close
//! records, or whether a connection is idle enough for the drain to
//! close. Those rules live in [`shard`], once; `tests/driver_audit.rs`
//! fails if `server.rs`, `sim.rs` or `mt.rs` grows a copy — and if
//! `mt.rs` names any piece of the protocol at all.
//!
//! Layout: [`machine`] holds the per-connection state machine
//! ([`machine::Conn`], flush/gather/advance, deadline sync); [`shard`]
//! holds the per-shard protocol state ([`shard::ShardCore`]: content
//! cache, miss coalescing, job cancellation, reload epochs, drain) and
//! the request/completion transitions. Nothing in this module performs
//! a syscall or reads a clock — every instant is a parameter.

pub mod machine;
pub mod plan;
pub mod shard;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use machine::{Conn, ConnState, DeadlineKind, Drive};
pub use plan::{BodySource, RequestCond, Resource, ResponsePlan};
pub use shard::ShardCore;

use crate::cache::Variant;
use crate::stats::Histogram;

/// The transport seam: every I/O operation the connection state
/// machine performs, with nonblocking semantics — `WouldBlock` means
/// "retry when the driver says so", exactly as on a nonblocking
/// socket. Implementations must never block a thread that drives more
/// than one connection; the MT driver, a thread per connection, blocks
/// in its sends (and turns a send that timed out into an error, never
/// `WouldBlock`: nothing would retry it).
pub trait ConnIo {
    /// An opaque handle to a large body served without materializing
    /// its bytes in the core (`Arc<File>` for the real `sendfile(2)`
    /// path; a value type in the sim). `Clone` because one file can be
    /// mid-stream on many connections at once.
    type FileRef: Clone;

    /// Reads request bytes; `Ok(0)` is peer EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Whether the transport is known to be dry: a `read` now would
    /// return `WouldBlock`, **and** anything that arrives from here
    /// on, EOF included, raises a fresh readiness event. The core asks
    /// before every read and, on `true`, parks without one. `false`
    /// (the default) only ever costs the confirming read.
    fn known_empty(&self) -> bool {
        false
    }

    /// Gathered write of the queued response segments; returns bytes
    /// accepted (possibly a partial write mid-iovec).
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize>;

    /// Transmits up to `max` bytes of `file` starting at `*offset`,
    /// advancing `*offset` past the bytes sent. `Ok(0)` means the file
    /// ended early (it shrank after stat — a protocol-fatal condition).
    fn sendfile(&mut self, file: &Self::FileRef, offset: &mut u64, max: u64) -> io::Result<usize>;
}

/// The disk seam: the core submits jobs, the driver (helper pool or
/// simulated disk) executes them and feeds the resulting [`Done`] back
/// into [`shard::ShardCore::complete_job`] — later, from another
/// thread's result, or in the same loop turn when the driver can tell
/// the job needs no waiting (the residency test).
pub trait HelperPort {
    /// Dispatches one open/read (or open/fstat) job. Must not block.
    fn submit(&mut self, job: HelperJob);
}

/// What a helper does for a job: read the file, or merely re-stat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Open and read (or open-for-`sendfile`) — a cache miss.
    Load,
    /// Open and `fstat` only — a cache hit past its revalidation TTL;
    /// the shard compares the result against the cached entry.
    Revalidate,
    /// A dynamic-tier request: hand the URL path to a persistent
    /// application worker and stream its output back as [`DynEvent`]s.
    /// Unlike the filesystem kinds this job produces *multiple*
    /// completions under one token — every chunk the worker emits,
    /// then a terminal [`DynEvent::End`]. Never coalesced and never
    /// cached; `fs_path` carries the request's URL path verbatim and
    /// `path` a synthetic per-dispatch waiter key.
    Dynamic,
}

/// One unit of disk work dispatched through a [`HelperPort`].
pub struct HelperJob {
    /// Variant-cache key (the waiter-coalescing key): the URL path for
    /// identity, [`crate::cache::variant_key`]'s marked form for gzip.
    pub path: String,
    /// Filesystem path of the **identity** representation; executors
    /// derive the `.gz` sibling path from it when the job concerns the
    /// gzip variant.
    pub fs_path: PathBuf,
    pub kind: JobKind,
    /// Which representation the job concerns. For [`JobKind::Load`]
    /// this is a *preference*: `Gzip` means "probe the `.gz` sibling,
    /// serve it if present, fall back to identity" — the result
    /// reports which variant actually loaded. For
    /// [`JobKind::Revalidate`] it is exact (a gzip entry re-stats the
    /// sibling file).
    pub variant: Variant,
    /// Read the body into memory only when the representation is at
    /// most this many bytes; larger files come back as an open handle
    /// for the `sendfile` window path. The value is core policy
    /// (`ProtoConfig::sendfile_threshold`) carried on the job so
    /// executors stay mechanical — no driver consults the config.
    pub inline_max: u64,
    /// The dispatching shard's reload epoch; echoed back on the
    /// [`Done`] so a completion that raced a SIGHUP reload can be
    /// served to its waiters without poisoning the fresh cache.
    pub epoch: u64,
    /// Per-dispatch token, echoed back on the [`Done`]. The shard
    /// accepts a completion only while the *same* dispatch is still
    /// pending — a completion surviving past a cancellation (or a
    /// newer dispatch for the same path) is dropped wholesale.
    pub token: u64,
    /// Cooperative cancellation flag, set when the job's last waiter
    /// is reaped: an executor that observes it before doing the disk
    /// work skips the job entirely (the CGI-tier prerequisite — a
    /// long-running worker must be stoppable, not merely ignorable).
    pub cancel: Arc<AtomicBool>,
}

impl HelperJob {
    /// Whether this job was cancelled after dispatch. Executors check
    /// before (and long-running ones, during) the work; a cancelled
    /// job needs no completion — its pending entry is already gone.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// The completion that answers this job with `data`.
    pub fn done<F>(self, data: DoneData<F>) -> Done<F> {
        Done {
            path: self.path,
            data,
            epoch: self.epoch,
            token: self.token,
        }
    }
}

/// What a job execution hands back for a readable file: either the
/// bytes themselves (small representation, destined for the content
/// cache — `len <= HelperJob::inline_max`) or an opaque file handle
/// plus its stat'ed length (large representation, destined for the
/// `sendfile` window path — the shard never sees the body at all).
/// Both carry the fstat'ed mtime so responses advertise
/// `Last-Modified` and conditional requests can be answered `304`.
#[derive(Debug)]
pub enum FileData<F> {
    Bytes {
        body: Vec<u8>,
        mtime: Option<i64>,
    },
    Fd {
        file: F,
        len: u64,
        mtime: Option<i64>,
    },
}

/// A [`JobKind::Load`] execution's full result: which representation
/// actually loaded (a gzip *preference* falls back to identity when no
/// sibling exists), its payload, and whether a `.gz` sibling was seen
/// — the identity entry records that to emit `Vary` and to route
/// gzip-accepting clients.
#[derive(Debug)]
pub struct LoadResult<F> {
    pub data: FileData<F>,
    /// The representation `data` holds.
    pub variant: Variant,
    /// Whether a `.gz` sibling existed at load time.
    pub has_gzip: bool,
    /// When the name was last resolved **by path**, if that was
    /// earlier than this load: an answer from the open-file table
    /// ([`crate::fsjob::OpenFileTable`]) carries its entry's resolve
    /// time, and the content-cache entry built from it inherits that
    /// as its validation instant — so stale bytes stop within
    /// `cache_revalidate_ttl` of the moment the name stopped meaning
    /// this file, not within twice it. `None` (the blocking executor,
    /// the sim): resolved by this load.
    pub resolved_at: Option<Instant>,
}

/// One event in a dynamic job's completion stream. A [`JobKind::Dynamic`]
/// job delivers zero or more `Chunk`s followed by exactly one `End`,
/// all under the same dispatch token; the pending entry survives until
/// the `End` (or a cancellation) retires it.
#[derive(Debug, Clone)]
pub enum DynEvent {
    /// One body chunk produced by the worker, rendered on the wire as
    /// one `Transfer-Encoding: chunked` frame.
    Chunk(bytes::Bytes),
    /// The worker finished. `clean` means the protocol's terminal
    /// frame was seen (the response ends with the zero-length chunk);
    /// `!clean` means the worker crashed or was killed mid-body — the
    /// response is truncated without a terminal frame (pre-header, it
    /// becomes a `500`).
    End { clean: bool },
}

/// A completion's payload, matching the job's [`JobKind`].
pub enum DoneData<F> {
    /// [`JobKind::Load`]: the file's contents (or open handle), ready
    /// to render and cache.
    Loaded(io::Result<LoadResult<F>>),
    /// [`JobKind::Revalidate`]: the file's current (length, mtime)
    /// from a bare open+`fstat` — no bytes read.
    Stat(io::Result<(u64, Option<i64>)>),
    /// [`JobKind::Dynamic`]: one event of the worker's output stream.
    Dynamic(DynEvent),
}

/// A finished helper job, routed back to the dispatching shard.
pub struct Done<F> {
    pub path: String,
    pub data: DoneData<F>,
    /// Echo of [`HelperJob::epoch`] — see there.
    pub epoch: u64,
    /// Echo of [`HelperJob::token`] — see there.
    pub token: u64,
}

/// The protocol-relevant slice of the server configuration: what the
/// core needs to route requests and classify deadlines, and nothing a
/// driver owns (shard counts, socket options, backend choice).
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Directory served as the document root (the sim resolves
    /// against its simulated filesystem; the URL-path join rule is the
    /// core's either way).
    pub docroot: PathBuf,
    /// Keep-alive idle deadline (`None` disables the class).
    pub idle_timeout: Option<Duration>,
    /// Slow-header deadline, armed once per request.
    pub header_read_timeout: Option<Duration>,
    /// Write-progress deadline, re-armed on forward progress.
    pub write_stall_timeout: Option<Duration>,
    /// Helper-completion deadline for `Waiting` connections.
    pub helper_wait_timeout: Option<Duration>,
    /// Content-cache revalidation TTL (`None` trusts entries forever).
    pub cache_revalidate_ttl: Option<Duration>,
    /// The two-tier body policy, owned by the core: representations at
    /// most this many bytes are cached pre-rendered and sent with
    /// `writev`; larger ones stream through the `sendfile` window seam.
    /// Carried onto every [`HelperJob`] as `inline_max`.
    pub sendfile_threshold: u64,
    /// Serve `GET /.flash/metrics` (Prometheus text) and
    /// `/.flash/stats` (JSON) in-band on the normal parse/respond
    /// path. Off by default; endpoint responses count under
    /// [`ShardStats::metrics_requests`], not `requests`.
    pub metrics_endpoint: bool,
    /// URL-path prefix routed to the dynamic tier (persistent
    /// application workers, chunked responses). `None` disables the
    /// tier. The `/.flash/` endpoints always take precedence, even
    /// under a prefix of `/`.
    pub dynamic_prefix: Option<String>,
    /// Per-request worker deadline for `Waiting` dynamic connections,
    /// re-armed on every chunk: a wedged worker yields a `504` (or a
    /// severed stream once headers are out) and the worker is killed
    /// and respawned. `None` disables the class.
    pub dynamic_deadline: Option<Duration>,
    /// Stage an [`crate::stats::AccessRecord`] per completed response
    /// in [`ShardCore::access_log`] for the driver to drain and write.
    pub access_log: bool,
}

/// Live counters for one event-loop shard (real or simulated —
/// atomics so the real driver's cross-thread readers need no locks;
/// the sim reads them single-threaded).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Completed responses (any status).
    pub requests: AtomicU64,
    /// Connections this shard accepted from its listener — its own
    /// kernel socket (reuseport mode) or the shared one (single mode).
    pub accepted: AtomicU64,
    /// Jobs the core dispatched through its [`HelperPort`]:
    /// content-cache misses and revalidations after coalescing, and one
    /// per dynamic request. How many of them a helper thread actually
    /// ran is `helper_jobs - inline_jobs`.
    pub helper_jobs: AtomicU64,
    /// The subset of `helper_jobs` the driver ran itself, with no
    /// hand-off and no helper: a miss the residency test found in
    /// memory, completed in the loop turn that dispatched it, and every
    /// dynamic exchange a shard opened on one of its own workers
    /// (counted when the request line is written). Jobs actually handed
    /// to the pool = `helper_jobs - inline_jobs` — on warm dynamic
    /// traffic, none. On MT, where the dispatching thread runs every
    /// job, the two are equal.
    pub inline_jobs: AtomicU64,
    /// The subset of `inline_jobs` loads answered from the open-file
    /// table: no path lookup, an `fstat` and a read of the descriptor
    /// the table already held.
    pub open_file_hits: AtomicU64,
    /// Gauge: descriptors this shard's open-file table holds now.
    pub open_files: AtomicU64,
    /// Responses served from this shard's content cache.
    pub cache_hits: AtomicU64,
    /// Gathered writes issued on the send path: [`ConnIo::writev`]
    /// calls that moved bytes — one `writev(2)` each on the shards. On
    /// MT a flush is issued as one `write(2)` per segment (four for a
    /// cache hit) until the gathered-write follow-up (ROADMAP), so
    /// there the counter counts flushes, not syscalls.
    pub writev_calls: AtomicU64,
    /// [`ConnIo::read`] calls the core issued — `read(2)`s on the real
    /// transport, `EAGAIN` ones included. On MT the blocking `read(2)`
    /// happens before the drive and the core's read hands over what it
    /// took, one for one; the driver adds the ones that timed out
    /// empty, so there too the counter is `read(2)` calls.
    pub read_calls: AtomicU64,
    /// `accept4(2)` calls this shard issued on its listener, `EAGAIN`
    /// ones included — in single mode that is one for every sibling
    /// that woke for an arrival and lost the race.
    pub accept_calls: AtomicU64,
    /// Interest-set calls the shard driver made on its readiness
    /// backend (`register`, `modify`, `rearm`, `deregister`) — one
    /// `epoll_ctl(2)` each on epoll. An application worker costs one
    /// when it is adopted and one when it is retired, none per request.
    pub ctl_calls: AtomicU64,
    /// `read(2)`s and `write(2)`s a shard issued on its application
    /// workers' sockets: a warm dynamic request whose worker answers in
    /// one write is exactly two, the request line out and the frames
    /// in. Zero on MT, whose connection threads block in the exchange
    /// uncounted.
    pub worker_io_calls: AtomicU64,
    /// `sendfile(2)` calls issued on the large-body path.
    pub sendfile_calls: AtomicU64,
    /// Body bytes transmitted via `sendfile(2)` (page cache → socket,
    /// never through userspace).
    pub bytes_sendfile: AtomicU64,
    /// Gauge: bytes currently resident in this shard's content cache
    /// (refreshed after every insert).
    pub cache_used_bytes: AtomicU64,
    /// Readiness `wait` calls this shard has issued.
    pub wait_calls: AtomicU64,
    /// Readiness events those waits returned (the ratio
    /// `wait_events / wait_calls` is the batching gauge exposed as
    /// [`crate::stats::ServerStats::events_per_wait`]).
    pub wait_events: AtomicU64,
    /// Keep-alive connections closed by the idle deadline (no request
    /// in flight).
    pub idle_reaped: AtomicU64,
    /// Connections closed by the header-read deadline (slow or silent
    /// request senders).
    pub read_timeouts: AtomicU64,
    /// Connections closed by the write-progress deadline (peers that
    /// stopped draining a response).
    pub write_stall_timeouts: AtomicU64,
    /// `304 Not Modified` responses served to conditional requests.
    pub not_modified: AtomicU64,
    /// Requests carrying a well-formed single-range `Range` header
    /// that reached a file response (satisfiable or not).
    pub range_requests: AtomicU64,
    /// `416 Range Not Satisfiable` responses (`Content-Range: bytes
    /// */len`).
    pub range_unsatisfiable: AtomicU64,
    /// Times this shard's reuseport listener was throttled by fd
    /// exhaustion (`EMFILE`/`ENFILE`) or another accept failure — read
    /// interest dropped, re-armed once a connection slot frees.
    pub accept_backpressure: AtomicU64,
    /// Cache hits past the revalidation TTL whose re-stat confirmed
    /// the entry still matches the file (served, TTL clock restarted).
    pub revalidations: AtomicU64,
    /// Cache entries evicted because a revalidation re-stat saw a
    /// different mtime or size (the file changed or vanished) — the
    /// stale bytes were dropped instead of served.
    pub stale_evicted: AtomicU64,
    /// `Waiting` connections closed by the helper-completion deadline
    /// — their helper or disk wedged; the late completion, if it ever
    /// arrives, is discarded by its stale token.
    pub helper_wait_timeouts: AtomicU64,
    /// In-flight helper jobs cancelled because their last waiter was
    /// reaped: the cancel flag was raised and the pending entry
    /// dropped, so the job is skipped if still queued and its
    /// completion (if it already ran) dies on token mismatch — never
    /// populating the cache, never waking a reused slot.
    pub jobs_cancelled: AtomicU64,
    /// Gauge: 1 while this shard is in drain mode (listener quiesced,
    /// serving out existing connections), 0 otherwise.
    pub draining: AtomicU64,
    /// Connections retired *by the drain*: idle keep-alive
    /// connections closed at drain entry plus keep-alive connections
    /// closed after their final response went out whole.
    pub drained_conns: AtomicU64,
    /// Responses served by the `/.flash/metrics` and `/.flash/stats`
    /// endpoints (kept out of `requests` so workload counters stay
    /// exact under scraping).
    pub metrics_requests: AtomicU64,
    /// Requests routed to the dynamic tier (matched the configured
    /// prefix), whether they completed, timed out, or crashed.
    pub dynamic_requests: AtomicU64,
    /// Application workers retired — killed, reaped, and replaced when
    /// next needed: crashes (EOF before the protocol's END), garbled
    /// or out-of-turn output, and kills of workers whose exchange was
    /// cancelled (the deadline fired, or the client went away).
    pub worker_respawns: AtomicU64,
    /// Dynamic requests that hit `dynamic_deadline`: answered `504`
    /// before headers went out, severed mid-stream after.
    pub dynamic_timeouts: AtomicU64,
    /// Event-loop iterations whose non-wait time reached the stall
    /// threshold (100 ms) — the direct "did the AMPED loop block?"
    /// probe.
    pub loop_stalls: AtomicU64,
    /// Gauge (max-merged): high-water mark of per-iteration non-wait
    /// loop time, in microseconds.
    pub loop_stall_max_us: AtomicU64,
    /// Cumulative microseconds the loop spent blocked in readiness
    /// wait (the only phase *allowed* to block).
    pub phase_wait_us: AtomicU64,
    /// Cumulative microseconds spent accepting connections.
    pub phase_accept_us: AtomicU64,
    /// Cumulative microseconds spent driving readiness events.
    pub phase_read_us: AtomicU64,
    /// Cumulative microseconds spent driving connections whose helper
    /// completion just arrived.
    pub phase_respond_us: AtomicU64,
    /// Cumulative microseconds spent applying helper completions.
    pub phase_completions_us: AtomicU64,
    /// Cumulative microseconds spent expiring deadline timers.
    pub phase_timers_us: AtomicU64,
    /// Request latency: request parsed → final response byte queued.
    pub hist_request: Histogram,
    /// Time to first byte: request parsed → first response byte
    /// accepted by the transport.
    pub hist_ttfb: Histogram,
    /// Helper-job wait: connection parked `Waiting` → completion
    /// delivered.
    pub hist_helper_wait: Histogram,
    /// Worker wait: dynamic request dispatched → first worker event
    /// (first chunk or an immediate end) delivered.
    pub hist_worker_wait: Histogram,
    /// Connection lifetime: accept → close, any close reason.
    pub hist_lifetime: Histogram,
}
