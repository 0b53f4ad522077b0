//! The **sans-IO protocol core**: the connection state machine and
//! per-shard bookkeeping, extracted from the syscall-driven server
//! loop so one body of protocol logic runs under two drivers — the
//! AMPED event loop in [`crate::server`] and the thread-per-connection
//! MT server in [`crate::mt`] (a core per connection thread, blocking
//! calls, every job run on the thread that dispatched it). The event
//! loop is written once, over an environment: the real kernel
//! (nonblocking sockets, `writev(2)`, `sendfile(2)`, the shared
//! helper-thread pool) or the simulated one of the `flash-sim` crate
//! (in-memory sockets, simulated time, scheduled fault injection,
//! hundreds of thousands of replayed connections per seed).
//!
//! The core speaks through two narrow traits, and reaches its content
//! cache through a third:
//!
//! * [`ConnIo`] — everything the state machine ever asks of a
//!   transport: `read`, gathered `writev` (corked with
//!   [`ConnIo::writev_more`] when a `sendfile` body or the close's FIN
//!   follows), and one
//!   `sendfile` chunk against an opaque [`ConnIo::FileRef`]. The shard driver implements
//!   it over a nonblocking `TcpStream` (with `FileRef = Arc<File>`),
//!   the MT driver over a blocking one; the simulated kernel over
//!   in-memory sockets with windows and injected partial writes (with
//!   a value-type file handle).
//! * [`HelperPort`] — how the core dispatches disk work. The core
//!   submits a [`HelperJob`] and later receives a [`Done`]; whether a
//!   helper thread pool, the submitting thread itself or a
//!   simulated-latency scheduler sits behind the port is the driver's
//!   business. Before it makes a job for a content-cache miss, the
//!   core asks the port whether it holds the file open, ready to send
//!   ([`HelperPort::held`]): a shard's port answers from its open-file
//!   table, and such a miss is served like a hit, with no job at all.
//! * [`crate::cache::CacheHandle`] — a shard's private
//!   [`crate::cache::ContentCache`], or an MT thread's locked handle
//!   on the one cache all threads share.
//!
//! # The driver contract
//!
//! Every core call that can change a slot —
//! [`ShardCore::drive_conn`] and [`ShardCore::expire_conn`] — ends in a
//! [`Drive`]. What answers a job — a helper, a worker, or the
//! submitting driver itself on the spot — is a [`Done`], and the driver
//! feeds every one of them, in the order they came, to
//! [`ShardCore::complete_job`], then drives each connection it woke. A
//! job answered on the spot is answered before the drive that
//! dispatched it is reconciled: its connection is driven on first, and
//! never seen parked. The driver reconciles *its* side with the slot
//! in one place, after every drive or expiry:
//!
//! * the slot is **empty** (`Drive::Closed`): the transport went with
//!   the connection, so *forget* its readiness registration
//!   ([`crate::event::EventBackend::forget`]) — don't deregister a
//!   descriptor that is already closed — cancel its timer
//!   ([`crate::timer::TimerWheel`]), and hand the slot to whatever
//!   admits the next connection;
//! * the slot is **occupied**: arm [`machine::desired_interest`] for
//!   the state the connection is now in and the kind of backend it is
//!   registered with (re-arming the consumed edge after
//!   `Drive::Yielded`), and call [`machine::sync_deadline`]. A parked
//!   connection stays watched for its peer's hang-up — on an
//!   edge-triggered backend with the registration it already has, so
//!   parking costs no interest change ([`crate::event`], *Parked
//!   registrations*). A
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
//! Readiness ([`crate::event::EventBackend`]) and the timers stay
//! driver-owned, and so do the tokens that key them: the driver mints
//! them, and the driver checks that an event or an expired key still
//! names the connection in the slot before it calls the core. When a
//! timer key fires, the driver calls `expire_conn` and reconciles; at
//! drain entry it calls [`ShardCore::begin_drain`] and drives every
//! `Reading` slot once. A driver whose transport reports
//! [`ConnIo::known_empty`] withdraws that report on every readable
//! event and, for every slot, at drain entry — the drain-entry rule
//! must see what is in the transport, not what was. A hang-up it
//! hears of — a readiness event's mark, or (MT) a query on a silent
//! worker's tick — it notes on the transport ([`ConnIo::hung_up`]) and
//! drives the connection, parked or not: what the hang-up means is the
//! core's to say.
//!
//! What a driver must **never** decide: which deadline class means
//! what (the counter, the `504`-or-sever choice), whether a close has
//! to purge a waiter registration or cancel a job, what a close
//! records, whether a connection is idle enough for the drain to
//! close, which interest a state wants, or whether a hang-up aborts a
//! parked request (it does on a worker, as nginx's default
//! `proxy_ignore_client_abort off` has it, and not on a helper: the
//! file is answered, and the connection closed at its end of stream).
//! Those rules live in [`machine`] and [`shard`], once;
//! `tests/driver_audit.rs` fails if `server.rs`, the sim or `mt.rs`
//! grows a copy — and if `mt.rs` names any piece of the protocol at
//! all.
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

use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use machine::{Conn, ConnState, DeadlineKind, Drive};
pub use plan::{BodySource, RequestCond, Resource, ResponsePlan};
pub use shard::ShardCore;

pub use crate::stats::ShardStats;

use crate::cache::{Entry, Variant};

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

    /// Whether the peer is known to have hung up — half-closed, closed
    /// or reset — as the transport last heard (a readiness event's
    /// hang-up mark; a query MT makes on a silent worker's tick). The
    /// core asks it of a parked connection: one parked on an
    /// application worker whose client has hung up is a client abort.
    /// `false` (the default) only ever defers that to the worker's
    /// answer or its deadline.
    fn hung_up(&self) -> bool {
        false
    }

    /// Gathered write of the queued response segments; returns bytes
    /// accepted (possibly a partial write mid-iovec).
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize>;

    /// [`Self::writev`] of segments that something follows at once:
    /// the core calls it while a response's header is queued ahead of
    /// its [`Self::sendfile`] body, and for the last write of a
    /// response whose connection closes behind it at the client's
    /// request, on a transport [known to be dry](Self::known_empty)
    /// ([`machine::flush_out`]). A transport that can should hold a
    /// short tail back so it leaves in the body's first segment — or
    /// in the segment that carries the close's FIN — rather than in a
    /// packet of its own (TCP's `MSG_MORE`); the next send, or a close,
    /// must still push whatever it held. Same return and errors as
    /// `writev`, and `writev` itself by default.
    fn writev_more(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.writev(bufs)
    }

    /// Transmits up to `max` bytes of `file` starting at `*offset`,
    /// advancing `*offset` past the bytes sent. `Ok(0)` means the file
    /// ended early (it shrank after stat — a protocol-fatal condition).
    fn sendfile(&mut self, file: &Self::FileRef, offset: &mut u64, max: u64) -> io::Result<usize>;
}

/// The disk seam: the core submits jobs, the driver (helper pool or
/// simulated disk) executes them and feeds the resulting [`Done`] back
/// into [`shard::ShardCore::complete_job`] — later, from another
/// thread's result, or at once when the driver can tell the job needs
/// no waiting (the residency test): the same path either way.
///
/// `F` is the large-body handle of the transports the port serves
/// ([`ConnIo::FileRef`]); the real server's `Arc<File>` by default.
pub trait HelperPort<F = Arc<File>> {
    /// Dispatches one open/read (or open/fstat) job. Must not block.
    fn submit(&mut self, job: HelperJob);

    /// A content-cache miss on variant key `key`, with no job in
    /// flight for it, answered from a file the port already holds open
    /// — the paper's mapped-file and response-header caches (§5.3,
    /// §5.4) as a second tier behind the content cache — or declined
    /// (`None`), and the core makes its job as before. The core asks
    /// before it makes anything: an answer is sent at once on the
    /// `sendfile` tier, and costs no [`HelperJob`], token, cancel flag,
    /// job-table entry or [`Done`]. `inline_max` is the job's
    /// [`HelperJob::inline_max`]; `now` the driver's clock. Must not
    /// block. The default declines: a port that holds no files.
    fn held(&mut self, _key: &str, _inline_max: u64, _now: Instant) -> Option<Held<F>> {
        None
    }
}

/// A file a port holds open, as [`HelperPort::held`] hands it out: the
/// representation's head (its header pair and validators, rendered
/// once for as long as the port holds the file) and the handle to send
/// its `len` bytes from.
pub struct Held<F> {
    pub head: Arc<Entry>,
    pub file: F,
    pub len: u64,
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
    /// executors stay mechanical — no driver consults the config. (A
    /// file a shard's open-file table holds is answered with the handle
    /// at any size, once its pages are known resident, before any job
    /// is made — [`HelperPort::held`]: the bytes are read only for the
    /// content cache, and only a load resolved by path feeds that.)
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
    /// job needs no completion — the shard has already dropped it.
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
/// plus its stat'ed length (a large representation; destined for the
/// `sendfile` window path — the shard never sees the body at all, and
/// caches nothing). A file a shard's open-file table holds is answered
/// before any job exists, as a [`Held`].
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
/// all under the same dispatch token; the shard's job survives until
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
    /// Carried onto every [`HelperJob`] as `inline_max` (see there for
    /// the held-file exception).
    pub sendfile_threshold: u64,
    /// Serve `GET /.flash/metrics` (Prometheus text) in-band on the
    /// normal parse/respond path, and a `404` for any other `/.flash/`
    /// path. Off by default; these responses count under
    /// [`ShardStats::metrics_requests`], not `requests`.
    pub metrics_endpoint: bool,
    /// URL-path prefix routed to the dynamic tier (persistent
    /// application workers, chunked responses). `None` disables the
    /// tier. The `/.flash/` paths always take precedence, even under a
    /// prefix of `/`.
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
