//! The real AMPED web server, sharded across cores: N independent
//! event loops (one per core by default, capped at 8), each a faithful
//! copy of the paper's single-process architecture (§3.4, §5), plus a
//! shared helper pool for disk I/O.
//!
//! Layout:
//!
//! * the **accept path** is pluggable ([`NetConfig::accept_mode`],
//!   resolved by [`crate::sock`]): in the default **reuseport** mode
//!   (Linux) every shard owns its own `SO_REUSEPORT` listening socket
//!   registered in its own event backend — the kernel hashes incoming
//!   connections across the listeners, each shard drains its accepts
//!   to `EWOULDBLOCK` under the ET contract, and there is **no
//!   acceptor thread and no dealing hop**. Backpressure is local: a
//!   shard at [`NetConfig::max_conns_per_shard`] (or hitting
//!   `EMFILE`/`ENFILE` — counted as `accept_backpressure`) drops its
//!   listener's read interest, letting the backlog queue in the
//!   kernel or hash to its siblings, and re-arms the moment a slot
//!   frees. The portable **single** fallback keeps the previous
//!   shape: a lightweight acceptor thread owns the only listening
//!   socket and deals accepted connections round-robin to the shards
//!   over per-shard channels, waking each target through its wake
//!   socketpair; it blocks in its own readiness backend with no
//!   polling timeout — shutdown arrives as a byte on a dedicated stop
//!   pipe;
//! * each **shard** is the paper's event loop on the pluggable
//!   readiness subsystem ([`crate::event`]): connections are
//!   registered once with an [`EventBackend`] (edge-triggered `epoll`
//!   on Linux, `poll(2)` elsewhere — [`NetConfig::backend`]) and their
//!   interest is adjusted incrementally as the [`Conn`] state machine
//!   moves (read interest while parsing, write interest only while a
//!   send is in flight, none while a helper works). The loop is
//!   written to the edge-triggered contract — drain reads to
//!   `EWOULDBLOCK`, re-arm after a voluntary yield — which is also
//!   correct under the level-triggered fallback. Each shard never
//!   touches the filesystem and owns a private [`ContentCache`] — no
//!   cross-shard locking anywhere on the request path. Every
//!   connection carries a **per-state deadline** in the shard's hashed
//!   timing wheel ([`crate::timer`], §6.4's slow-WAN-client defense):
//!   a header-read deadline from the first byte of a request
//!   ([`NetConfig::header_read_timeout`], slowloris senders), a
//!   write-progress deadline re-armed on every byte of forward
//!   progress ([`NetConfig::write_stall_timeout`], stalled readers —
//!   covering both the `writev` and `sendfile` paths), and the
//!   keep-alive idle timeout ([`NetConfig::idle_timeout`]) between
//!   requests. The wheel drives the backend's wait timeout ("next
//!   wheel tick, or block") and expires in O(expired), never by
//!   scanning the connection table;
//! * the **helper pool** is shared (disk parallelism is a global
//!   resource): a miss enqueues a job in its shard's lane of the
//!   [`JobQueue`], and helpers pop the lanes **round-robin by shard**
//!   — a cold-cache shard flooding its lane cannot starve the other
//!   shards' disk latency. The finishing helper routes the completion
//!   back to that shard's done queue, coalescing wake-up bytes so a
//!   burst of completions costs one pipe write, not one per job. The
//!   helpers also run **cache revalidation**: a content-cache hit
//!   older than [`NetConfig::cache_revalidate_ttl`] parks like a miss
//!   while a helper re-stats the file (open+`fstat`, no read) — a
//!   matching (length, mtime) restarts the TTL clock and serves the
//!   waiters from memory (`revalidations`), a mismatch evicts the
//!   stale entry and reloads (`stale_evicted`), so a file edited in
//!   place stops being served — and 304-validated — from stale bytes
//!   within the TTL;
//! * the send path is **two-tier and zero-copy at both tiers**: small
//!   bodies are queued as their cached header and body segments and
//!   transmitted with a single gathered `writev(2)` (see
//!   [`crate::writev`]), with partial-write resumption tracked across
//!   segment boundaries; bodies above
//!   [`NetConfig::sendfile_threshold_bytes`] never enter the content
//!   cache at all — the helper hands the shard an open fd, the shard
//!   sends the header with `writev` and the body with `sendfile(2)`
//!   (see [`crate::sendfile`]) straight from the kernel page cache,
//!   resuming partial sends from the same per-connection state.
//!
//! With `event_loops = 1` the behavior is byte-identical to the
//! original single-loop server; with N shards the same architecture
//! simply runs N times, the way per-core executor designs scale a
//! uniprocessor event loop.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::machine::{sync_deadline, Conn};
use crate::conn::{ConnIo, ConnState, Done, Drive, HelperJob, HelperPort, ProtoConfig, ShardCore};
use crate::event::{new_backend, BackendChoice, BackendKind, Event, EventBackend, Interest};
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_STOPPING};
use crate::sendfile::send_file;
use crate::sock::{self, AcceptMode, AcceptModeKind};
use crate::stats::{self as metrics, AccessLogWriter, HistSnapshot};
use crate::timer::{tick_for, TimerWheel};
use crate::writev::writev_fd;

pub use crate::conn::{DeadlineKind, ShardStats};

/// A connection over the real transport: the sans-IO state machine
/// ([`crate::conn::machine::Conn`]) bound to a nonblocking socket.
type NetConn = Conn<SockIo>;

/// The real transport behind [`ConnIo`]: a nonblocking `TcpStream`,
/// with gathered writes via `writev(2)` and large bodies via
/// `sendfile(2)` against shared `Arc<File>` handles.
pub(crate) struct SockIo {
    pub(crate) stream: TcpStream,
}

impl ConnIo for SockIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        writev_fd(self.stream.as_raw_fd(), bufs)
    }

    fn sendfile(&mut self, file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        send_file(self.stream.as_raw_fd(), file, offset, max)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Directory served as the document root.
    pub docroot: PathBuf,
    /// Number of helper threads (the AMPED helper pool, shared by all
    /// shards).
    pub helpers: usize,
    /// Total content-cache capacity in bytes, divided evenly among the
    /// shards.
    pub cache_bytes: u64,
    /// Number of independent event-loop shards. Default:
    /// `min(available cores, 8)`.
    pub event_loops: usize,
    /// Bodies strictly larger than this bypass the content cache and
    /// are served from the kernel page cache with `sendfile(2)` (see
    /// [`crate::sendfile`]). Default 256 KiB — roughly where the cost
    /// of one more copy through userspace overtakes the cost of the
    /// extra syscall, and past the sweet spot of cache residency.
    pub sendfile_threshold_bytes: u64,
    /// Readiness backend (see [`crate::event`]): `Auto` (default)
    /// resolves to edge-triggered `epoll` on Linux and `poll` elsewhere,
    /// overridable with `FLASH_EVENT_BACKEND=poll|epoll`; `Epoll`/`Poll`
    /// pin a backend and ignore the environment.
    pub backend: BackendChoice,
    /// Keep-alive connections with no request in flight and no bytes
    /// received for this long are closed by their shard, so dead
    /// clients stop pinning descriptors and connection slots. `None`
    /// disables reaping. Default 30 s.
    pub idle_timeout: Option<Duration>,
    /// A connection that has begun a request (first header byte
    /// received) must deliver the complete header within this long or
    /// be closed — the slowloris-sender defense; the deadline is armed
    /// once per request and deliberately **not** re-armed by further
    /// trickled bytes. `None` disables it. Default 15 s.
    pub header_read_timeout: Option<Duration>,
    /// A connection mid-response must accept at least one byte of the
    /// response every interval this long or be closed — the stalled-
    /// reader defense, covering both the `writev` and `sendfile`
    /// paths. Unlike the header deadline it **re-arms on every byte of
    /// forward progress**, so an arbitrarily large body is fine as
    /// long as the peer keeps draining. `None` disables it.
    /// Default 30 s.
    pub write_stall_timeout: Option<Duration>,
    /// How `accept(2)` work is distributed (see [`crate::sock`]):
    /// `Auto` (default) resolves to per-shard `SO_REUSEPORT` listeners
    /// on Linux — every shard accepts from its own listener registered
    /// in its own event backend, no acceptor thread, no dealing hop —
    /// and to the single acceptor thread elsewhere, overridable with
    /// `FLASH_ACCEPT_MODE=single|reuseport`; `ReusePort`/`Single` pin
    /// a mode and ignore the environment.
    pub accept_mode: AcceptMode,
    /// Per-shard connection cap, enforced on the reuseport accept path
    /// as **local backpressure**: a shard at its cap unregisters its
    /// listener's read interest (new connections queue in the kernel
    /// backlog or hash to other shards) and re-arms the moment a slot
    /// frees. Default 8192.
    pub max_conns_per_shard: usize,
    /// Content-cache hits older than this re-stat the file (via the
    /// helper pool — the shard still never touches the filesystem)
    /// before serving: an mtime/size mismatch evicts the entry and
    /// reloads, so a file edited in place stops being served — and
    /// 304-validated — from stale cached bytes within the TTL. `None`
    /// trusts cached entries forever (the pre-revalidation behavior).
    /// Default 2 s.
    pub cache_revalidate_ttl: Option<Duration>,
    /// How long a drain ([`Server::drain`], SIGTERM) waits for
    /// existing connections to finish before the shards exit anyway.
    /// In-flight responses (including multi-gigabyte `sendfile`
    /// bodies) and pipelined keep-alive requests already buffered are
    /// served to completion within this bound; whatever is still open
    /// at the deadline is severed. Default 30 s.
    pub drain_timeout: Duration,
    /// A connection whose request is owned by a helper (`Waiting`)
    /// must receive its completion within this long or be closed —
    /// the wedged-disk/wedged-helper defense, the fourth timing-wheel
    /// deadline class. Without it a helper stuck in `open(2)` on a
    /// dead NFS mount (or a FIFO, or a hung CGI successor) pins the
    /// waiter's fd and slot forever. `None` disables it.
    /// Default 60 s — deliberately above every disk-latency spike a
    /// healthy system produces.
    pub helper_wait_timeout: Option<Duration>,
    /// Serve `GET /.flash/metrics` (Prometheus text exposition) and
    /// `GET /.flash/stats` (JSON) from the shards themselves — no
    /// sidecar thread; the scrape rides the normal parse/respond path
    /// and counts under `metrics_requests`, never `requests`. Off by
    /// default (the `/.flash/` prefix stays ordinary docroot space
    /// until opted in).
    pub metrics_endpoint: bool,
    /// Event-loop stall watchdog threshold: a loop iteration whose
    /// **non-wait** time (accept + read + respond + completions +
    /// timers) exceeds this counts as a `loop_stalls` event, and the
    /// `loop_stall_max_us` gauge tracks the high-water mark either
    /// way. This is the direct probe for the one pathology AMPED
    /// exists to prevent — a blocked event loop. Default 100 ms.
    pub loop_stall_threshold: Duration,
    /// Structured access log: each shard buffers one record per
    /// completed response and appends batched lines to this file
    /// (`None` disables logging). Reopened on SIGHUP via
    /// [`Server::rotate_access_logs`] and on every docroot reload.
    pub access_log_path: Option<PathBuf>,
    /// Requests whose path starts with this prefix are routed to the
    /// dynamic tier: a persistent worker process
    /// ([`crate::appworker`]) generates the body, streamed back as
    /// `Transfer-Encoding: chunked`. The reserved `/.flash/` namespace
    /// always wins over this rule — even a prefix of `/` cannot shadow
    /// the metrics endpoints. `None` (default) disables the tier.
    pub dynamic_prefix: Option<String>,
    /// A connection waiting on a dynamic worker must receive the next
    /// streaming event within this long or the request fails: 504 if
    /// no body bytes have been sent yet, a severed connection
    /// mid-stream — and the wedged worker is killed and respawned
    /// either way. Re-armed per event, so it bounds worker *silence*,
    /// not total response time. The fifth timing-wheel deadline class.
    /// `None` disables it. Default 10 s.
    pub dynamic_deadline: Option<Duration>,
    /// The worker command line (argv): spawned once per worker over a
    /// `socketpair(2)` and reused across requests. `None` (default)
    /// uses the built-in `/bin/sh` echo worker
    /// ([`crate::appworker::DEFAULT_WORKER_SCRIPT`]).
    pub dynamic_command: Option<Vec<String>>,
}

impl NetConfig {
    /// A config serving `docroot` with sensible defaults.
    pub fn new(docroot: impl Into<PathBuf>) -> Self {
        NetConfig {
            docroot: docroot.into(),
            helpers: 4,
            cache_bytes: 64 * 1024 * 1024,
            event_loops: default_event_loops(),
            sendfile_threshold_bytes: 256 * 1024,
            backend: BackendChoice::Auto,
            idle_timeout: Some(Duration::from_secs(30)),
            header_read_timeout: Some(Duration::from_secs(15)),
            write_stall_timeout: Some(Duration::from_secs(30)),
            accept_mode: AcceptMode::Auto,
            max_conns_per_shard: 8192,
            cache_revalidate_ttl: Some(Duration::from_secs(2)),
            drain_timeout: Duration::from_secs(30),
            helper_wait_timeout: Some(Duration::from_secs(60)),
            metrics_endpoint: false,
            loop_stall_threshold: Duration::from_millis(100),
            access_log_path: None,
            dynamic_prefix: None,
            dynamic_deadline: Some(Duration::from_secs(10)),
            dynamic_command: None,
        }
    }

    /// A validating builder over the same defaults (see
    /// [`NetConfigBuilder`]): `NetConfig::builder(root).build()?` is
    /// `NetConfig::new(root)` plus a consistency check.
    pub fn builder(docroot: impl Into<PathBuf>) -> NetConfigBuilder {
        NetConfigBuilder {
            cfg: NetConfig::new(docroot),
        }
    }

    /// The consistency check behind [`NetConfigBuilder::build`],
    /// callable on a hand-assembled config too.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn nonzero(n: u64, what: &'static str) -> Result<(), ConfigError> {
            if n == 0 {
                return Err(ConfigError(format!("{what} must be nonzero")));
            }
            Ok(())
        }
        nonzero(self.event_loops as u64, "event_loops")?;
        nonzero(self.helpers as u64, "helpers")?;
        nonzero(self.cache_bytes, "cache_bytes")?;
        nonzero(self.max_conns_per_shard as u64, "max_conns_per_shard")?;
        if self.drain_timeout.is_zero() {
            return Err(ConfigError(
                "drain_timeout of zero would sever every connection at drain entry".into(),
            ));
        }
        for (t, name) in [
            (self.idle_timeout, "idle_timeout"),
            (self.header_read_timeout, "header_read_timeout"),
            (self.write_stall_timeout, "write_stall_timeout"),
            (self.helper_wait_timeout, "helper_wait_timeout"),
            (self.cache_revalidate_ttl, "cache_revalidate_ttl"),
            (self.dynamic_deadline, "dynamic_deadline"),
        ] {
            if t == Some(Duration::ZERO) {
                return Err(ConfigError(format!(
                    "{name} of Some(0) would expire every connection instantly — use None to disable"
                )));
            }
        }
        // The largest cacheable body per shard is an ADMISSION bound
        // (cache slice / MAX_ENTRY_DIVISOR); a sendfile threshold
        // above it leaves a dead band of bodies too big to cache yet
        // too small for sendfile — every such hit re-reads the disk.
        let shard_cache = (self.cache_bytes / self.event_loops.max(1) as u64).max(1);
        let max_entry = shard_cache / crate::cache::MAX_ENTRY_DIVISOR;
        if self.sendfile_threshold_bytes > max_entry {
            return Err(ConfigError(format!(
                "sendfile_threshold_bytes ({}) exceeds the largest cacheable entry \
                 ({max_entry} = cache_bytes / event_loops / {}): bodies in between \
                 would neither cache nor sendfile",
                self.sendfile_threshold_bytes,
                crate::cache::MAX_ENTRY_DIVISOR,
            )));
        }
        if let Some(p) = &self.dynamic_prefix {
            if !p.starts_with('/') {
                return Err(ConfigError(format!(
                    "dynamic_prefix {p:?} must start with '/' (request paths always do)"
                )));
            }
        }
        if let Some(cmd) = &self.dynamic_command {
            if cmd.is_empty() {
                return Err(ConfigError(
                    "dynamic_command must name a program (use None for the built-in worker)".into(),
                ));
            }
        }
        Ok(())
    }

    /// Same config pinned to `n` event-loop shards.
    pub fn with_event_loops(mut self, n: usize) -> Self {
        self.event_loops = n.max(1);
        self
    }

    /// Same config with the large-body cutover at `bytes`.
    pub fn with_sendfile_threshold(mut self, bytes: u64) -> Self {
        self.sendfile_threshold_bytes = bytes;
        self
    }

    /// Same config pinned to a readiness backend.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Same config with the idle keep-alive reap threshold (`None`
    /// disables reaping).
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Same config with the slow-header deadline (`None` disables it).
    pub fn with_header_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.header_read_timeout = timeout;
        self
    }

    /// Same config with the write-progress deadline (`None` disables
    /// it).
    pub fn with_write_stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_stall_timeout = timeout;
        self
    }

    /// Same config pinned to an accept-path mode.
    pub fn with_accept_mode(mut self, mode: AcceptMode) -> Self {
        self.accept_mode = mode;
        self
    }

    /// Same config with the per-shard connection cap.
    pub fn with_max_conns_per_shard(mut self, cap: usize) -> Self {
        self.max_conns_per_shard = cap.max(1);
        self
    }

    /// Same config with the content-cache revalidation TTL (`None`
    /// trusts cached entries until eviction).
    pub fn with_cache_revalidate_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.cache_revalidate_ttl = ttl;
        self
    }

    /// Same config with the graceful-drain deadline.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Same config with the helper-completion deadline (`None`
    /// disables it).
    pub fn with_helper_wait_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.helper_wait_timeout = timeout;
        self
    }

    /// Same config with the in-band `/.flash/metrics` + `/.flash/stats`
    /// endpoints switched on or off.
    pub fn with_metrics_endpoint(mut self, on: bool) -> Self {
        self.metrics_endpoint = on;
        self
    }

    /// Same config with the event-loop stall watchdog threshold.
    pub fn with_loop_stall_threshold(mut self, threshold: Duration) -> Self {
        self.loop_stall_threshold = threshold;
        self
    }

    /// Same config writing a structured access log to `path`.
    pub fn with_access_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.access_log_path = Some(path.into());
        self
    }

    /// Same config routing paths under `prefix` to the dynamic tier.
    pub fn with_dynamic_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.dynamic_prefix = Some(prefix.into());
        self
    }

    /// Same config with the dynamic worker-silence deadline (`None`
    /// disables it).
    pub fn with_dynamic_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.dynamic_deadline = deadline;
        self
    }

    /// Same config with a custom worker command line.
    pub fn with_dynamic_command(mut self, argv: Vec<String>) -> Self {
        self.dynamic_command = Some(argv);
        self
    }
}

/// A rejected [`NetConfig`] — what was inconsistent and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Validating construction for [`NetConfig`]: the same defaults as
/// [`NetConfig::new`], one chainable setter per field, and a
/// [`NetConfigBuilder::build`] that rejects inconsistent combinations
/// (zero shard/helper/cap counts, `Some(0)` timeouts that would expire
/// everything instantly, a `drain_timeout` of zero, a sendfile
/// threshold above the largest cacheable entry, a dynamic prefix that
/// cannot match any request path) instead of starting a server that
/// can only misbehave.
///
/// ```no_run
/// # use flash_net::NetConfig;
/// let cfg = NetConfig::builder("/srv/www")
///     .event_loops(2)
///     .metrics_endpoint(true)
///     .build()
///     .expect("consistent config");
/// ```
#[derive(Debug, Clone)]
pub struct NetConfigBuilder {
    cfg: NetConfig,
}

impl NetConfigBuilder {
    pub fn helpers(mut self, n: usize) -> Self {
        self.cfg.helpers = n;
        self
    }

    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cfg.cache_bytes = bytes;
        self
    }

    pub fn event_loops(mut self, n: usize) -> Self {
        self.cfg.event_loops = n;
        self
    }

    pub fn sendfile_threshold_bytes(mut self, bytes: u64) -> Self {
        self.cfg.sendfile_threshold_bytes = bytes;
        self
    }

    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.cfg.backend = backend;
        self
    }

    pub fn idle_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.idle_timeout = t;
        self
    }

    pub fn header_read_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.header_read_timeout = t;
        self
    }

    pub fn write_stall_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.write_stall_timeout = t;
        self
    }

    pub fn accept_mode(mut self, mode: AcceptMode) -> Self {
        self.cfg.accept_mode = mode;
        self
    }

    pub fn max_conns_per_shard(mut self, cap: usize) -> Self {
        self.cfg.max_conns_per_shard = cap;
        self
    }

    pub fn cache_revalidate_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.cfg.cache_revalidate_ttl = ttl;
        self
    }

    pub fn drain_timeout(mut self, t: Duration) -> Self {
        self.cfg.drain_timeout = t;
        self
    }

    pub fn helper_wait_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.helper_wait_timeout = t;
        self
    }

    pub fn metrics_endpoint(mut self, on: bool) -> Self {
        self.cfg.metrics_endpoint = on;
        self
    }

    pub fn loop_stall_threshold(mut self, t: Duration) -> Self {
        self.cfg.loop_stall_threshold = t;
        self
    }

    pub fn access_log_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.access_log_path = Some(path.into());
        self
    }

    pub fn dynamic_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.cfg.dynamic_prefix = Some(prefix.into());
        self
    }

    pub fn dynamic_deadline(mut self, t: Option<Duration>) -> Self {
        self.cfg.dynamic_deadline = t;
        self
    }

    pub fn dynamic_command(mut self, argv: Vec<String>) -> Self {
        self.cfg.dynamic_command = Some(argv);
        self
    }

    /// Validates and returns the config, or says exactly what is
    /// inconsistent.
    pub fn build(self) -> Result<NetConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// `min(available cores, 8)` — beyond 8 loops the acceptor itself
/// becomes the bottleneck before the loops do.
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Counters for a running server: per-shard atomics, aggregated on
/// read so the hot path never contends on a shared cacheline.
///
/// Every getter delegates to the same [`crate::stats`] registry
/// descriptor the exporters ([`Self::render_prometheus`],
/// [`Self::render_json`]) iterate, so a counter cannot exist here
/// without appearing in the scrape output (or vice versa).
#[derive(Debug)]
pub struct ServerStats {
    shards: Vec<Arc<ShardStats>>,
}

impl ServerStats {
    pub(crate) fn new(shards: Vec<Arc<ShardStats>>) -> Self {
        ServerStats { shards }
    }

    /// Completed responses across all shards (excludes `/.flash/*`
    /// scrapes — those count under [`Self::metrics_requests`]).
    pub fn requests(&self) -> u64 {
        metrics::REQUESTS.merged(&self.shards)
    }

    /// `/.flash/metrics` + `/.flash/stats` responses served, across
    /// shards — kept out of `requests` so scraping never perturbs the
    /// workload counters it reports.
    pub fn metrics_requests(&self) -> u64 {
        metrics::METRICS_REQUESTS.merged(&self.shards)
    }

    /// Connections accepted across all shards.
    pub fn accepted(&self) -> u64 {
        metrics::ACCEPTED.merged(&self.shards)
    }

    /// Helper jobs dispatched across all shards.
    pub fn helper_jobs(&self) -> u64 {
        metrics::HELPER_JOBS.merged(&self.shards)
    }

    /// The subset of [`Self::helper_jobs`] the shards completed
    /// themselves, in the loop turn that dispatched them, because the
    /// file was memory resident; `helper_jobs() - inline_jobs()` jobs
    /// were handed to the pool.
    pub fn inline_jobs(&self) -> u64 {
        metrics::INLINE_JOBS.merged(&self.shards)
    }

    /// Content-cache hits across all shards.
    pub fn cache_hits(&self) -> u64 {
        metrics::CACHE_HITS.merged(&self.shards)
    }

    /// Gathered writes issued across all shards.
    pub fn writev_calls(&self) -> u64 {
        metrics::WRITEV_CALLS.merged(&self.shards)
    }

    /// `sendfile(2)` calls issued across all shards.
    pub fn sendfile_calls(&self) -> u64 {
        metrics::SENDFILE_CALLS.merged(&self.shards)
    }

    /// Body bytes served via `sendfile(2)` across all shards.
    pub fn bytes_sendfile(&self) -> u64 {
        metrics::BYTES_SENDFILE.merged(&self.shards)
    }

    /// Bytes currently resident in the content caches, summed over
    /// shards. Large-body responses must leave this untouched.
    pub fn cache_used_bytes(&self) -> u64 {
        metrics::CACHE_USED_BYTES.merged(&self.shards)
    }

    /// Readiness `wait` calls across all shards.
    pub fn wait_calls(&self) -> u64 {
        metrics::WAIT_CALLS.merged(&self.shards)
    }

    /// Readiness events delivered across all shards.
    pub fn wait_events(&self) -> u64 {
        metrics::WAIT_EVENTS.merged(&self.shards)
    }

    /// Gauge: mean readiness events per `wait` call — how much work
    /// each kernel crossing amortizes. Rises with load (and with the
    /// epoll backend under many-connection workloads, where a wait
    /// returns only the ready descriptors instead of scanning all).
    pub fn events_per_wait(&self) -> f64 {
        let calls = self.wait_calls();
        if calls == 0 {
            return 0.0;
        }
        self.wait_events() as f64 / calls as f64
    }

    /// Keep-alive connections closed by the idle deadline, across shards.
    pub fn idle_reaped(&self) -> u64 {
        metrics::IDLE_REAPED.merged(&self.shards)
    }

    /// Connections closed by the header-read deadline, across shards.
    pub fn read_timeouts(&self) -> u64 {
        metrics::READ_TIMEOUTS.merged(&self.shards)
    }

    /// Connections closed by the write-progress deadline, across shards.
    pub fn write_stall_timeouts(&self) -> u64 {
        metrics::WRITE_STALL_TIMEOUTS.merged(&self.shards)
    }

    /// `304 Not Modified` responses served, across shards.
    pub fn not_modified(&self) -> u64 {
        metrics::NOT_MODIFIED.merged(&self.shards)
    }

    /// Well-formed single-range requests that reached a file response
    /// (satisfiable or not), across shards.
    pub fn range_requests(&self) -> u64 {
        metrics::RANGE_REQUESTS.merged(&self.shards)
    }

    /// Range requests answered `416 Range Not Satisfiable`, across
    /// shards.
    pub fn range_unsatisfiable(&self) -> u64 {
        metrics::RANGE_UNSATISFIABLE.merged(&self.shards)
    }

    /// Accept-path backpressure events (listener throttled on
    /// `EMFILE`/`ENFILE` or accept failure), across shards.
    pub fn accept_backpressure(&self) -> u64 {
        metrics::ACCEPT_BACKPRESSURE.merged(&self.shards)
    }

    /// Successful cache revalidations (re-stat matched), across shards.
    pub fn revalidations(&self) -> u64 {
        metrics::REVALIDATIONS.merged(&self.shards)
    }

    /// Cache entries evicted as stale by a revalidation re-stat,
    /// across shards.
    pub fn stale_evicted(&self) -> u64 {
        metrics::STALE_EVICTED.merged(&self.shards)
    }

    /// `Waiting` connections closed by the helper-completion deadline,
    /// across shards.
    pub fn helper_wait_timeouts(&self) -> u64 {
        metrics::HELPER_WAIT_TIMEOUTS.merged(&self.shards)
    }

    /// Helper jobs cancelled because their last waiter was reaped
    /// before the completion landed, across shards: the job is skipped
    /// if still queued, and a completion that already ran is dropped
    /// by its stale token — neither populates the cache nor wakes a
    /// reused slot.
    pub fn jobs_cancelled(&self) -> u64 {
        metrics::JOBS_CANCELLED.merged(&self.shards)
    }

    /// Requests routed to the dynamic tier by the configured prefix,
    /// across shards.
    pub fn dynamic_requests(&self) -> u64 {
        metrics::DYNAMIC_REQUESTS.merged(&self.shards)
    }

    /// Application workers retired (crashed, garbled, cancel-killed,
    /// or found dead at checkout) and replaced, across shards.
    pub fn worker_respawns(&self) -> u64 {
        metrics::WORKER_RESPAWNS.merged(&self.shards)
    }

    /// Dynamic requests that hit `dynamic_deadline` (504 before the
    /// header, a severed connection mid-stream), across shards.
    pub fn dynamic_timeouts(&self) -> u64 {
        metrics::DYNAMIC_TIMEOUTS.merged(&self.shards)
    }

    /// Gauge: how many shards are currently in drain mode.
    pub fn draining_shards(&self) -> u64 {
        metrics::DRAINING.merged(&self.shards)
    }

    /// Connections retired by drains (idle keep-alives closed at
    /// drain entry + keep-alives closed after their final response),
    /// across shards.
    pub fn drained_conns(&self) -> u64 {
        metrics::DRAINED_CONNS.merged(&self.shards)
    }

    /// Event-loop iterations whose non-wait time exceeded
    /// [`NetConfig::loop_stall_threshold`], across shards — the AMPED
    /// "the event loop must never block" invariant, measured.
    pub fn loop_stalls(&self) -> u64 {
        metrics::LOOP_STALLS.merged(&self.shards)
    }

    /// Gauge: worst single-iteration non-wait time observed by any
    /// shard, in microseconds (high-water mark, max over shards).
    pub fn loop_stall_max_us(&self) -> u64 {
        metrics::LOOP_STALL_MAX_US.merged(&self.shards)
    }

    /// Request latency histogram (first request byte → response fully
    /// flushed), merged across shards.
    pub fn request_latency(&self) -> HistSnapshot {
        metrics::HIST_REQUEST.merged(&self.shards)
    }

    /// Time-to-first-byte histogram (first request byte → first
    /// response byte accepted by the socket), merged across shards.
    pub fn ttfb(&self) -> HistSnapshot {
        metrics::HIST_TTFB.merged(&self.shards)
    }

    /// Helper-job wait histogram (parked in `Waiting` → completion
    /// delivered), merged across shards.
    pub fn helper_wait(&self) -> HistSnapshot {
        metrics::HIST_HELPER_WAIT.merged(&self.shards)
    }

    /// Worker-wait histogram (dynamic request dispatched → first
    /// worker event delivered), merged across shards.
    pub fn worker_wait(&self) -> HistSnapshot {
        metrics::HIST_WORKER_WAIT.merged(&self.shards)
    }

    /// Connection lifetime histogram (accept → close), merged across
    /// shards.
    pub fn conn_lifetime(&self) -> HistSnapshot {
        metrics::HIST_LIFETIME.merged(&self.shards)
    }

    /// The full Prometheus text exposition — exactly what
    /// `GET /.flash/metrics` serves.
    pub fn render_prometheus(&self) -> String {
        metrics::render_prometheus(&self.shards)
    }

    /// The full JSON stats document — exactly what
    /// `GET /.flash/stats` serves.
    pub fn render_json(&self) -> String {
        metrics::render_json(&self.shards)
    }

    /// The per-shard counters (index = shard id).
    pub fn per_shard(&self) -> &[Arc<ShardStats>] {
        &self.shards
    }
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
/// Draining shards quiesce their listeners (reuseport) or the
/// acceptor stops (single mode), idle keep-alive connections are
/// closed at once, and everything mid-request — in-flight `sendfile`
/// bodies, pipelined keep-alive bursts — is served to completion or
/// the deadline. For zero-downtime restarts, hand the listener set to
/// the next generation first (see [`crate::handoff`] and
/// [`Server::handoff_listeners`]), start it with
/// [`Server::start_inherited`], then drain this one: the kernel
/// sockets (and their accept backlogs) survive the switch, in both
/// accept modes.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    backend: BackendKind,
    accept_mode: AcceptModeKind,
    /// Accept-path stop flag (the acceptor thread and the shared
    /// accept loop); shards take their orders from `lifecycle`.
    shutdown: Arc<AtomicBool>,
    lifecycle: Arc<LifecycleShared>,
    drain_timeout: Duration,
    /// Duplicates of every listening socket this server accepts from
    /// (plus any extras inherited from a previous generation), held
    /// for handoff: passing these to the next generation keeps the
    /// kernel sockets — and their backlogs — alive across the switch.
    /// Dropped when the server handle is consumed, so a plain
    /// stop/drain still releases the port.
    handoff: Vec<TcpListener>,
    shard_wakes: Vec<WakeHandle>,
    /// `Some` only in single-acceptor mode; reuseport shards are woken
    /// for shutdown through their ordinary wake pipes.
    acceptor_stop: Option<UnixStream>,
    jobs: Arc<JobQueue>,
    acceptor_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    helper_threads: Vec<JoinHandle<()>>,
}

/// The write side of a shard's wake socketpair, with a coalescing
/// flag: a producer writes the wake byte only when it is the first to
/// make the shard's work queues non-empty since the shard last
/// drained, so a burst of completions floods neither the pipe nor the
/// shard's event loop.
#[derive(Clone)]
struct WakeHandle {
    tx: Arc<UnixStream>,
    pending: Arc<AtomicBool>,
}

impl WakeHandle {
    fn new(tx: UnixStream) -> Self {
        WakeHandle {
            tx: Arc::new(tx),
            pending: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wakes the shard unless a wake is already pending.
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&*self.tx).write_all(b".");
        }
    }

    /// Unconditional wake (shutdown path — must never be elided).
    fn wake_force(&self) {
        let _ = (&*self.tx).write_all(b"q");
    }
}

/// One queued unit of helper work: the protocol core's [`HelperJob`]
/// plus the driver-side routing tag — which shard's done queue the
/// completion goes back to.
struct Job {
    /// Which shard's done queue the completion routes back to.
    shard: usize,
    job: HelperJob,
}

/// The real [`HelperPort`]. Each submitted job first meets the
/// residency test ([`crate::fsjob::exec_job_nowait`] — the paper's
/// `mincore` step): a file whose lookup and bytes are already in
/// memory is read on the spot and its completion parked in
/// `inline_done` for the shard to apply before this loop turn ends.
/// Only a job the disk would block — or whose answer is an error — is
/// wrapped with the shard's routing tag and pushed into that shard's
/// lane of the shared [`JobQueue`].
struct PoolPort {
    jobs: Arc<JobQueue>,
    shard: usize,
    /// Completions of jobs answered without a hand-off, awaiting
    /// [`complete_inline`].
    inline_done: Vec<Done<Arc<File>>>,
}

impl HelperPort for PoolPort {
    fn submit(&mut self, job: HelperJob) {
        match crate::fsjob::exec_job_nowait(&job) {
            Some(data) => self.inline_done.push(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            }),
            None => self.jobs.push(Job {
                shard: self.shard,
                job,
            }),
        }
    }
}

/// The shared helper-pool queue: one FIFO lane per shard, popped
/// **round-robin by shard**. A single global FIFO let one cold-cache
/// shard fill the queue and make every other shard's misses wait
/// behind its backlog; rotating over lanes bounds any shard's
/// head-of-line damage to one job per rotation while preserving FIFO
/// order within a shard.
struct JobQueue {
    lanes: Mutex<JobLanes>,
    ready: Condvar,
}

struct JobLanes {
    queues: Vec<VecDeque<Job>>,
    /// Next lane to serve; advances past each lane that yields a job.
    cursor: usize,
    queued: usize,
    closed: bool,
}

impl JobQueue {
    fn new(n_shards: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            lanes: Mutex::new(JobLanes {
                queues: (0..n_shards).map(|_| VecDeque::new()).collect(),
                cursor: 0,
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    fn push(&self, job: Job) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if lanes.closed {
            return;
        }
        let lane = job.shard;
        lanes.queues[lane].push_back(job);
        lanes.queued += 1;
        drop(lanes);
        self.ready.notify_one();
    }

    /// Blocks for the next job in shard-rotation order; `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = pop_round_robin(&mut lanes) {
                return Some(job);
            }
            if lanes.closed {
                return None;
            }
            lanes = self.ready.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every blocked helper; subsequent pops drain then end.
    fn close(&self) {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Takes the next job starting at the rotation cursor, advancing the
/// cursor past the lane served so consecutive pops visit lanes fairly.
fn pop_round_robin(lanes: &mut JobLanes) -> Option<Job> {
    if lanes.queued == 0 {
        return None;
    }
    let n = lanes.queues.len();
    for k in 0..n {
        let lane = (lanes.cursor + k) % n;
        if let Some(job) = lanes.queues[lane].pop_front() {
            lanes.cursor = (lane + 1) % n;
            lanes.queued -= 1;
            return Some(job);
        }
    }
    None
}

/// Token for the shard's wake pipe (never a valid connection token:
/// connection tokens carry a slot in the high half, and slot 2^32-1
/// with fd 2^32-1 cannot occur).
const WAKE_TOKEN: u64 = u64::MAX;

/// Token for a shard's own `SO_REUSEPORT` listener — the slot half is
/// 2^32-1, which a real connection slot can never reach, so it can
/// never collide with a connection token (nor with [`WAKE_TOKEN`],
/// whose fd half differs).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Packs a connection's identity into an event token: slot index in
/// the high 32 bits, descriptor number in the low 32. The fd half lets
/// the loop reject stale events after a slot is recycled — the same
/// guard the old poll loop kept via its parallel fd array.
fn conn_token(slot: usize, fd: RawFd) -> u64 {
    ((slot as u64) << 32) | (fd as u32 as u64)
}

fn token_slot(token: u64) -> usize {
    (token >> 32) as usize
}

fn token_fd(token: u64) -> RawFd {
    token as u32 as RawFd
}

impl Server {
    /// Binds `addr` and starts the event-loop shards, the shared
    /// helper pool and — in single-acceptor mode only — the acceptor
    /// thread. In reuseport mode every shard owns its own
    /// `SO_REUSEPORT` listener, registered in that shard's event
    /// backend before its thread exists.
    pub fn start(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Server> {
        let req_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Server::start_impl(Some(req_addr), Vec::new(), cfg)
    }

    /// Starts a server on listening sockets inherited from a previous
    /// generation (see [`crate::handoff`]) instead of binding fresh
    /// ones — the kernel sockets, and every connection queued in
    /// their backlogs, carry over from the old generation, so the
    /// switch drops nothing even in the `Single`/non-reuseport mode
    /// where a same-port rebind is impossible.
    ///
    /// In single mode the first inherited listener serves; in
    /// reuseport mode the inherited set is dealt to the shards in
    /// order, and if there are fewer listeners than shards the
    /// remainder bind fresh `SO_REUSEPORT` siblings on the same port.
    /// Inherited listeners beyond what the accept path needs are not
    /// closed — they stay in this server's handoff set
    /// ([`Server::handoff_listeners`]), because closing the last
    /// duplicate of a listening socket RSTs its queued connections;
    /// still, matching `event_loops` across generations is the
    /// clean configuration.
    pub fn start_inherited(cfg: NetConfig, inherited: Vec<TcpListener>) -> io::Result<Server> {
        if inherited.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "start_inherited requires at least one listener",
            ));
        }
        Server::start_impl(None, inherited, cfg)
    }

    fn start_impl(
        req_addr: Option<SocketAddr>,
        inherited: Vec<TcpListener>,
        cfg: NetConfig,
    ) -> io::Result<Server> {
        let accept_mode = sock::resolve_accept_mode(cfg.accept_mode);
        let shutdown = Arc::new(AtomicBool::new(false));
        let lifecycle = Arc::new(LifecycleShared::new());
        let n_shards = cfg.event_loops.max(1);
        let backend = crate::event::resolve(cfg.backend);

        // Inherited fds came in via SCM_RIGHTS as dups of the old
        // generation's listeners; dup shares the open file
        // description, so they are already nonblocking — asserted
        // here anyway, because a blocking listener would wedge a
        // whole shard on one spurious readiness event.
        for l in &inherited {
            l.set_nonblocking(true)?;
        }
        let mut inherited = inherited.into_iter();

        // All listeners are bound (or adopted) before any thread
        // exists, so an unbindable port is a clean start() error. In
        // reuseport mode the first bind fixes the port (addr may
        // carry port 0) and the remaining shards bind the resolved
        // address.
        let (addr, single_listener, shard_listeners) = match accept_mode {
            AcceptModeKind::Single => {
                let l = match inherited.next() {
                    Some(l) => l,
                    None => sock::bind_listener(req_addr.expect("addr or listeners"), false)?,
                };
                let bound = l.local_addr()?;
                (bound, Some(l), Vec::new())
            }
            AcceptModeKind::ReusePort => {
                let first = match inherited.next() {
                    Some(l) => l,
                    None => sock::bind_listener(req_addr.expect("addr or listeners"), true)?,
                };
                let bound = first.local_addr()?;
                let mut listeners = vec![first];
                for _ in 1..n_shards {
                    listeners.push(match inherited.next() {
                        Some(l) => l,
                        // Fewer inherited listeners than shards: the
                        // rest bind fresh reuseport siblings (the
                        // inherited sockets carry SO_REUSEPORT, so
                        // the shared bind is permitted).
                        None => sock::bind_listener(bound, true)?,
                    });
                }
                (bound, None, listeners)
            }
        };

        // The handoff set: one duplicate of every listener the accept
        // path uses, plus inherited extras (closing the last dup of a
        // listening socket would RST its queued connections — extras
        // ride along to the next generation instead).
        let mut handoff = Vec::new();
        for l in single_listener.iter().chain(shard_listeners.iter()) {
            handoff.push(l.try_clone()?);
        }
        handoff.extend(inherited);
        let mut shard_listeners = shard_listeners.into_iter();

        let shard_stats: Vec<Arc<ShardStats>> = (0..n_shards)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let stats = Arc::new(ServerStats {
            shards: shard_stats.clone(),
        });

        // One shared helper queue with per-shard lanes; per-shard done
        // queues and wake pipes routing completions back. The conn
        // channels exist only in single-acceptor mode — reuseport
        // shards accept for themselves, so there is no dealing hop and
        // no wake byte per accepted connection.
        let jobs = JobQueue::new(n_shards);
        let mut conn_txs = Vec::with_capacity(n_shards);
        let mut done_txs = Vec::with_capacity(n_shards);
        let mut shard_wakes = Vec::with_capacity(n_shards);
        let mut shard_threads = Vec::with_capacity(n_shards);
        let mut shard_setups = Vec::with_capacity(n_shards);
        for shard_id in 0..n_shards {
            let conn_rx = if accept_mode == AcceptModeKind::Single {
                let (conn_tx, conn_rx) = channel::<TcpStream>();
                conn_txs.push(conn_tx);
                Some(conn_rx)
            } else {
                None
            };
            let (done_tx, done_rx) = channel::<Done<Arc<File>>>();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            let wake = WakeHandle::new(wake_tx);
            done_txs.push(done_tx);
            shard_wakes.push(wake.clone());
            shard_setups.push((shard_id, conn_rx, done_rx, wake_rx, wake));
        }

        // The dynamic tier's worker pool, shared by every helper
        // thread (spawning is lazy — a server with no dynamic_prefix
        // never forks anything).
        let workers = Arc::new(crate::appworker::WorkerPool::new(
            cfg.dynamic_command
                .clone()
                .unwrap_or_else(crate::appworker::WorkerPool::default_command),
        ));
        let mut helper_threads = Vec::new();
        for i in 0..cfg.helpers.max(1) {
            let queue = Arc::clone(&jobs);
            let txs = done_txs.clone();
            let wakes = shard_wakes.clone();
            let pool = Arc::clone(&workers);
            let helper_stats = shard_stats.clone();
            helper_threads.push(
                std::thread::Builder::new()
                    .name(format!("flash-helper-{i}"))
                    .spawn(move || helper_main(queue, txs, wakes, pool, helper_stats))?,
            );
        }
        drop(done_txs);

        // Each shard gets an equal slice of the cache budget: private
        // caches mean zero lock traffic at the cost of N-way
        // duplication of the hottest entries.
        //
        // Everything fallible from the first shard spawn onward runs
        // inside this labeled block: once any shard thread exists, a
        // later failure must tear the spawned ones down (below) rather
        // than `?` straight out — an abandoned shard would otherwise
        // keep its SO_REUSEPORT listener bound for the process
        // lifetime and spin on its dead wake pipe.
        let shard_cache_bytes = (cfg.cache_bytes / n_shards as u64).max(1);
        let setup: io::Result<(Option<UnixStream>, Option<JoinHandle<()>>)> = 'setup: {
            for (shard_id, conn_rx, done_rx, wake_rx, wake) in shard_setups {
                // The backend is created and the wake pipe (and, in
                // reuseport mode, this shard's listener) registered
                // HERE so a failure (epoll watch limits, fd
                // exhaustion) aborts start() with an error instead of
                // leaving a silently dead shard.
                let mut shard_backend = new_backend(cfg.backend);
                if let Err(e) =
                    shard_backend.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
                {
                    break 'setup Err(e);
                }
                let listener = shard_listeners.next();
                if let Some(l) = &listener {
                    if let Err(e) =
                        shard_backend.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    {
                        break 'setup Err(e);
                    }
                }
                let proto = ProtoConfig {
                    docroot: cfg.docroot.clone(),
                    idle_timeout: cfg.idle_timeout,
                    header_read_timeout: cfg.header_read_timeout,
                    write_stall_timeout: cfg.write_stall_timeout,
                    helper_wait_timeout: cfg.helper_wait_timeout,
                    cache_revalidate_ttl: cfg.cache_revalidate_ttl,
                    sendfile_threshold: cfg.sendfile_threshold_bytes,
                    metrics_endpoint: cfg.metrics_endpoint,
                    dynamic_prefix: cfg.dynamic_prefix.clone(),
                    dynamic_deadline: cfg.dynamic_deadline,
                    access_log: cfg.access_log_path.is_some(),
                };
                let mut core = ShardCore::new(
                    shard_id,
                    shard_cache_bytes,
                    proto,
                    Arc::clone(&shard_stats[shard_id]),
                );
                // Every shard can see its siblings' counters, so a
                // `/.flash/metrics` scrape answered by any one shard
                // reports the whole server.
                core.export = shard_stats.clone();
                let ctx = ShardCtx {
                    core,
                    port: PoolPort {
                        inline_done: Vec::new(),
                        jobs: Arc::clone(&jobs),
                        shard: shard_id,
                    },
                    cfg: cfg.clone(),
                    live_conns: 0,
                    woken: Vec::new(),
                };
                let lifecycle2 = Arc::clone(&lifecycle);
                let spawned = std::thread::Builder::new()
                    .name(format!("flash-shard-{shard_id}"))
                    .spawn(move || {
                        shard_loop(
                            ctx,
                            conn_rx,
                            done_rx,
                            wake_rx,
                            wake,
                            listener,
                            shard_backend,
                            lifecycle2,
                        )
                    });
                match spawned {
                    Ok(t) => shard_threads.push(t),
                    Err(e) => break 'setup Err(e),
                }
            }

            match single_listener {
                None => Ok((None, None)),
                Some(listener) => {
                    let (acceptor_stop, stop_rx) = match UnixStream::pair() {
                        Ok(pair) => pair,
                        Err(e) => break 'setup Err(e),
                    };
                    // Same principle: listener + stop pipe registered
                    // before the thread exists, so a deaf acceptor is a
                    // start() error.
                    let accept_backend =
                        match prepare_accept_backend(cfg.backend, &listener, &stop_rx) {
                            Ok(b) => b,
                            Err(e) => break 'setup Err(e),
                        };
                    let shutdown2 = Arc::clone(&shutdown);
                    let accept_stats = shard_stats.clone();
                    let acceptor_wakes = shard_wakes.clone();
                    let spawned = std::thread::Builder::new()
                        .name("flash-acceptor".into())
                        .spawn(move || {
                            let mut dealer = ShardDealer {
                                conn_txs,
                                wakes: acceptor_wakes,
                                stats: accept_stats,
                                next: 0,
                            };
                            run_accept_loop(&listener, accept_backend, &shutdown2, &mut dealer);
                            drop(stop_rx); // keep the read side alive until exit
                        });
                    match spawned {
                        Ok(t) => Ok((Some(acceptor_stop), Some(t))),
                        Err(e) => break 'setup Err(e),
                    }
                }
            }
        };
        let (acceptor_stop, acceptor_thread) = match setup {
            Ok(v) => v,
            Err(e) => {
                // Partial start: stop and join every thread spawned so
                // far, exactly like stop_now() — the per-shard
                // listeners close with their loops, so the port is
                // released before the error is returned.
                lifecycle.stop_now();
                shutdown.store(true, Ordering::SeqCst);
                for wake in &shard_wakes {
                    wake.wake_force();
                }
                for t in shard_threads {
                    let _ = t.join();
                }
                jobs.close();
                for t in helper_threads {
                    let _ = t.join();
                }
                return Err(e);
            }
        };

        Ok(Server {
            addr,
            stats,
            backend,
            accept_mode,
            shutdown,
            lifecycle,
            drain_timeout: cfg.drain_timeout,
            handoff,
            shard_wakes,
            acceptor_stop,
            jobs,
            acceptor_thread,
            shard_threads,
            helper_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters, aggregated over shards on read.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The readiness backend this server resolved to at start.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The accept-path mode this server resolved to at start.
    pub fn accept_mode(&self) -> AcceptModeKind {
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
    /// closed at once, connections mid-request — including in-flight
    /// `sendfile` bodies and pipelined keep-alive bursts already
    /// buffered — are served to completion, and each shard exits when
    /// its last connection finishes (or the deadline severs the rest).
    /// This is the SIGTERM order in the lifecycle diagram above.
    pub fn drain(self) {
        let grace = self.drain_timeout;
        self.drain_for(grace);
    }

    /// [`Server::drain`] with an explicit grace bound.
    pub fn drain_for(mut self, grace: Duration) {
        self.lifecycle.begin_drain(Instant::now() + grace);
        // This generation's claim on the port ends now: the handoff
        // dups close here (and each shard closes its own listener as
        // it observes the drain). A next generation that already
        // received inherited dups keeps the kernel sockets — and
        // their accept backlogs — alive; without one, a fresh
        // `SO_REUSEPORT` bind fully owns the port while we drain
        // instead of sharing the hash group with sockets nobody is
        // accepting from.
        self.handoff.clear();
        self.halt_accept_and_join();
    }

    /// Stops the server through the drain path with a short bounded
    /// grace (min of [`NetConfig::drain_timeout`] and 1 s): a response
    /// already being written goes out whole instead of being truncated
    /// mid-body, idle connections close immediately, and anything
    /// slower than the grace is severed. Tests that need today's
    /// instant teardown use [`Server::stop_now`].
    pub fn stop(self) {
        let grace = self.drain_timeout.min(Self::STOP_GRACE);
        self.drain_for(grace);
    }

    /// Stops immediately, severing in-flight connections — the
    /// SIGINT order, and the pre-drain `stop()` behavior.
    pub fn stop_now(mut self) {
        self.lifecycle.stop_now();
        self.halt_accept_and_join();
    }

    /// Publishes a new document root: every shard swaps its config
    /// and flushes its content cache between drives — in-flight
    /// requests finish undisturbed, the next request on every
    /// connection (including currently open keep-alives) is served
    /// from the new root. This is the SIGHUP order; completions from
    /// jobs dispatched before the swap are served to their waiters
    /// but not cached (epoch-checked), so pre-reload bytes cannot
    /// poison the post-reload cache.
    pub fn reload_docroot(&self, docroot: impl Into<PathBuf>) {
        self.lifecycle.publish_reload(docroot.into());
        for wake in &self.shard_wakes {
            wake.wake();
        }
    }

    /// Asks every shard to reopen its access-log file at the
    /// configured path — the logrotate handshake: rename the file,
    /// send SIGHUP (or call this), and the shards close the renamed
    /// inode and append to a fresh one. Records are batched per loop
    /// iteration and written with a single `O_APPEND` write each, so
    /// no line is lost or torn across the swap. A no-op unless
    /// [`NetConfig::access_log_path`] is set.
    pub fn rotate_access_logs(&self) {
        self.lifecycle.rotate_logs();
        for wake in &self.shard_wakes {
            wake.wake();
        }
    }

    /// Wakes everything and joins all threads. Every listener — the
    /// acceptor's or the per-shard reuseport set — is owned by the
    /// thread it serves and closed before that thread is joined, and
    /// the handoff duplicates drop with `self`, so when the caller
    /// returns the port is fully released and rebindable (unless a
    /// next generation holds inherited duplicates — the point of
    /// handoff).
    fn halt_accept_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks with no timeout; its stop pipe is the
        // only thing that can wake it.
        if let Some(stop) = &self.acceptor_stop {
            let _ = (&*stop).write_all(b"q");
        }
        for wake in &self.shard_wakes {
            wake.wake_force();
        }
        if let Some(t) = self.acceptor_thread.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        // Shards are gone — no producer remains; release the helpers.
        self.jobs.close();
        for t in self.helper_threads.drain(..) {
            let _ = t.join();
        }
    }
}

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
                    Ok((stream, _)) => sink.on_conn(stream),
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
struct ShardDealer {
    conn_txs: Vec<Sender<TcpStream>>,
    wakes: Vec<WakeHandle>,
    stats: Vec<Arc<ShardStats>>,
    next: usize,
}

impl AcceptSink for ShardDealer {
    fn on_conn(&mut self, stream: TcpStream) {
        if sock::apply_conn_options(&stream).is_err() {
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

/// Shared helper pool: pops jobs and hands each to the shared
/// mechanical executor ([`crate::fsjob`]), routing the completion back
/// to the shard that requested it. No tier or variant policy lives
/// here — the job carries it all.
fn helper_main(
    jobs: Arc<JobQueue>,
    done_txs: Vec<Sender<Done<Arc<File>>>>,
    wakes: Vec<WakeHandle>,
    workers: Arc<crate::appworker::WorkerPool>,
    stats: Vec<Arc<ShardStats>>,
) {
    // `pop` rotates over the per-shard lanes; `None` means the server
    // closed the queue at shutdown.
    while let Some(Job { shard, job }) = jobs.pop() {
        // A job whose last waiter was reaped while it sat in the queue
        // needs no disk work and no completion: its pending entry is
        // already gone, so a Done would die on token mismatch anyway.
        if job.is_cancelled() {
            continue;
        }
        // Dynamic jobs are multi-event streams the single-shot
        // filesystem executor cannot express: the worker exchange runs
        // here, on this helper thread, emitting one completion per
        // frame under the job's single token.
        if job.kind == crate::conn::JobKind::Dynamic {
            let tx = &done_txs[shard];
            let wake = &wakes[shard];
            let retired = crate::appworker::run_job(&workers, &job, &mut |ev| {
                if tx
                    .send(Done {
                        path: job.path.clone(),
                        data: crate::conn::DoneData::Dynamic(ev),
                        epoch: job.epoch,
                        token: job.token,
                    })
                    .is_ok()
                {
                    wake.wake();
                }
            });
            if retired > 0 {
                stats[shard]
                    .worker_respawns
                    .fetch_add(retired, Ordering::Relaxed);
            }
            continue;
        }
        let data = crate::fsjob::exec_job(&job);
        if done_txs[shard]
            .send(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            })
            .is_err()
        {
            continue;
        }
        wakes[shard].wake();
    }
}

/// One shard's driver-side state: the transport-agnostic protocol
/// core plus everything only this driver owns — the helper-pool port,
/// the full (driver-level) config, and the accept gate's odometer.
struct ShardCtx {
    core: ShardCore,
    port: PoolPort,
    cfg: NetConfig,
    /// Connections currently occupying slots — the accept gate's
    /// odometer: at [`NetConfig::max_conns_per_shard`] the shard's
    /// listener interest is dropped; any close below the cap re-arms
    /// it.
    live_conns: usize,
    /// Scratch for [`drive_and_sync`]: who an inline completion woke.
    woken: Vec<usize>,
}

/// Applies the completions the port's residency test produced —
/// through the same [`ShardCore::complete_job`] a helper's result
/// takes, so coalescing, tokens, epochs and the cache insert are
/// untouched — appending the connections they answered to `completed`.
/// A completion can dispatch again (a revalidation that found the file
/// changed requeues a load), hence the loop.
fn complete_inline(
    core: &mut ShardCore,
    port: &mut PoolPort,
    conns: &mut [Option<NetConn>],
    completed: &mut Vec<usize>,
) {
    while let Some(done) = port.inline_done.pop() {
        core.stats.inline_jobs.fetch_add(1, Ordering::Relaxed);
        core.complete_job(done, conns, completed, port, Instant::now());
    }
}

/// Bounded retry cadence while a shard's listener is throttled with
/// room available (the EMFILE/ENFILE case): the re-arm is driven by
/// the wait timeout rather than an event, because fd headroom can
/// reappear without any readiness edge on this shard's descriptors.
const ACCEPT_RETRY_MS: i32 = 50;

/// One event-loop shard: the paper's AMPED loop on the pluggable
/// readiness backend, over this shard's private connection set.
///
/// Written to the edge-triggered contract (see [`crate::event`]):
/// every drive runs the connection until `EWOULDBLOCK`, interest is
/// reconciled with the state machine after each drive, and a voluntary
/// yield (the `sendfile` fairness budget) re-arms the descriptor so
/// the consumed writability edge is redelivered.
///
/// In reuseport mode (`listener` is `Some`) the shard also owns a
/// `SO_REUSEPORT` listener under [`LISTENER_TOKEN`]: accepts drain to
/// `EWOULDBLOCK` like any other read source, and **backpressure is
/// local** — at the connection cap (or on `EMFILE`/`ENFILE`) the
/// listener's read interest is dropped, so pending connections stay
/// in the kernel backlog (or hash to other shards), and the interest
/// is re-armed the moment a slot frees. The re-arm leans on the
/// backend contract that `modify` redelivers a still-true readiness
/// condition, so a backlog that filled while throttled surfaces as a
/// fresh event.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    mut ctx: ShardCtx,
    // `Some` only in single-acceptor mode (the dealing channel).
    conn_rx: Option<Receiver<TcpStream>>,
    done_rx: Receiver<Done<Arc<File>>>,
    mut wake_rx: UnixStream,
    wake: WakeHandle,
    // `Some` only in reuseport mode: this shard's own listener, owned
    // (and therefore closed) by this loop — dropped at drain entry or
    // on return, before Server::stop's join observes the thread gone,
    // so the port is free once stop() returns.
    mut listener: Option<TcpListener>,
    // Created by Server::start with the wake pipe already registered,
    // so backend failures abort startup instead of killing one shard.
    mut backend: Box<dyn EventBackend>,
    lifecycle: Arc<LifecycleShared>,
) {
    let mut conns: Vec<Option<NetConn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    // Per-state deadlines live in a hashed timing wheel keyed by the
    // same slot+fd tokens the event backend uses. The tick is an
    // eighth of the smallest configured timeout, so rounding (≤1 tick)
    // plus wait cadence (≤1 tick) keeps expiry within ~1.25× the
    // configured deadline; expiry work is O(expired), never a scan of
    // the connection table.
    let cfg_timeouts = [
        ctx.cfg.idle_timeout,
        ctx.cfg.header_read_timeout,
        ctx.cfg.write_stall_timeout,
        ctx.cfg.helper_wait_timeout,
        ctx.cfg.dynamic_deadline,
    ];
    let mut wheel = TimerWheel::new(tick_for(cfg_timeouts.into_iter().flatten()));
    let mut expired: Vec<u64> = Vec::new();
    // Whether the listener's READ interest is currently armed in the
    // backend (registered armed by Server::start).
    let mut listener_armed = listener.is_some();
    // The drain deadline, captured once when the shard observes the
    // draining phase (begin_drain stores it before flipping the
    // phase, so it is always visible here).
    let mut drain_deadline: Option<Instant> = None;
    // Flight-recorder state: the access-log writer (None unless
    // configured) and the rotation generation last applied.
    let mut access_log = ctx.cfg.access_log_path.clone().map(AccessLogWriter::open);
    let mut log_gen_seen = lifecycle.log_gen();
    let stall_threshold = ctx.cfg.loop_stall_threshold;

    loop {
        match lifecycle.phase() {
            PHASE_STOPPING => {
                if ctx.core.draining {
                    ctx.core.stats.draining.store(0, Ordering::Relaxed);
                }
                if let Some(w) = access_log.as_mut() {
                    w.drain(&mut ctx.core.access_log);
                }
                return;
            }
            PHASE_DRAINING if !ctx.core.draining => {
                drain_deadline = lifecycle.drain_deadline();
                // The listener CLOSES here, not merely quiesces: an
                // open reuseport socket keeps its place in the
                // kernel's hash group even with no one accepting, so
                // keeping it would blackhole the connections hashed to
                // it. A next generation holding inherited handoff dups
                // keeps the kernel socket (and its backlog) alive;
                // without one, fresh binds now fully own the port.
                if let Some(l) = listener.take() {
                    let _ = backend.deregister(l.as_raw_fd());
                }
                listener_armed = false;
                enter_drain(&mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
            _ => {}
        }
        if ctx.core.draining
            && (ctx.live_conns == 0 || drain_deadline.is_some_and(|d| Instant::now() >= d))
        {
            // Drained clean — or the deadline severs whatever is left
            // (conns drop with the loop's locals on return).
            ctx.core.stats.draining.store(0, Ordering::Relaxed);
            if let Some(w) = access_log.as_mut() {
                w.drain(&mut ctx.core.access_log);
            }
            return;
        }
        // Apply a published SIGHUP reload the shard has not seen yet.
        // The swap happens between drives, so in-flight requests
        // finish undisturbed and the next request on every connection
        // — including open keep-alives — sees the new root.
        let generation = lifecycle.reload_gen();
        if generation != ctx.core.epoch {
            ctx.core
                .apply_reload(lifecycle.reload_docroot(), generation);
            // A docroot reload is also a log boundary: reopen so a
            // rotation bundled with the SIGHUP takes effect here too.
            if let Some(w) = access_log.as_mut() {
                w.reopen();
            }
        }
        // Apply a pending access-log rotation (logrotate renamed the
        // file, then asked us to reopen the path).
        let log_gen = lifecycle.log_gen();
        if log_gen != log_gen_seen {
            log_gen_seen = log_gen;
            if let Some(w) = access_log.as_mut() {
                w.reopen();
            }
        }
        // Sleep until the next wheel tick could expire something; with
        // nothing armed, block — new work always arrives as a wake
        // byte or a readiness event. A throttled listener with room to
        // re-arm (the EMFILE case: headroom can return without any
        // local readiness edge) bounds the wait to a retry cadence on
        // top of whatever the wheel asks for.
        let mut wait_ms = wheel.next_timeout_ms(Instant::now()).unwrap_or(-1);
        if listener.is_some()
            && !listener_armed
            && !ctx.core.draining
            && ctx.live_conns < ctx.cfg.max_conns_per_shard
            && !(0..=ACCEPT_RETRY_MS).contains(&wait_ms)
        {
            wait_ms = ACCEPT_RETRY_MS;
        }
        // While draining, never sleep past the drain deadline — the
        // severing check above must run when it lands even if every
        // remaining connection is quietly mid-transfer.
        if let Some(d) = drain_deadline {
            let left = d
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(i32::MAX as u128) as i32;
            let left = left.max(1);
            if wait_ms < 0 || wait_ms > left {
                wait_ms = left;
            }
        }
        let wait_begin = Instant::now();
        if backend.wait(&mut events, wait_ms).is_err() {
            continue;
        }
        // Everything from here to the bottom of the loop is non-wait
        // time — the span the stall watchdog measures, phase by phase.
        let loop_start = Instant::now();
        ctx.core.stats.phase_wait_us.fetch_add(
            loop_start.duration_since(wait_begin).as_micros() as u64,
            Ordering::Relaxed,
        );
        let mut mark = loop_start;
        ctx.core.stats.wait_calls.fetch_add(1, Ordering::Relaxed);
        ctx.core
            .stats
            .wait_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut accept_ready = false;
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            // Drain the pipe completely (edge-triggered: this event
            // may be the only notification for any number of bytes).
            let mut sink = [0u8; 256];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            // Clear the coalescing flag *before* draining the queues:
            // anything enqueued after this point writes a fresh wake
            // byte, so completions cannot be lost.
            wake.pending.store(false, Ordering::Release);
            if let Some(conn_rx) = &conn_rx {
                while let Ok(stream) = conn_rx.try_recv() {
                    admit_conn(stream, &mut conns, &mut ctx, &mut *backend, &mut wheel);
                }
            }
            lap(&ctx.core.stats.phase_accept_us, &mut mark);
            completed.clear();
            while let Ok(done) = done_rx.try_recv() {
                ctx.core.complete_job(
                    done,
                    &mut conns,
                    &mut completed,
                    &mut ctx.port,
                    Instant::now(),
                );
                // A stale entry's re-stat just came back changed and
                // the requeued load was answered from memory.
                complete_inline(&mut ctx.core, &mut ctx.port, &mut conns, &mut completed);
            }
            lap(&ctx.core.stats.phase_completions_us, &mut mark);
            // Completions flipped their waiters to Writing with the
            // socket unarmed; drive them now — the socket is almost
            // always writable, so the common case finishes here
            // without ever arming write interest.
            for idx in completed.drain(..) {
                drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
            lap(&ctx.core.stats.phase_respond_us, &mut mark);
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            if ev.token == LISTENER_TOKEN {
                // Drained below, after existing connections are
                // serviced and expiries may have freed slots.
                accept_ready = true;
                continue;
            }
            let idx = token_slot(ev.token);
            let fd = token_fd(ev.token);
            // The wake-pipe drain above can close a connection and let
            // its slot be reused by a new stream — with a recycled
            // kernel fd number, even. The event in hand describes the
            // *old* registration, so only drive the slot if it still
            // holds the exact fd the token was minted with.
            let live = conns
                .get(idx)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.io.stream.as_raw_fd() == fd);
            if live {
                drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
        }
        lap(&ctx.core.stats.phase_read_us, &mut mark);
        // Expire deadlines last: anything the drives above just
        // re-armed is already accounted for (single-threaded, so the
        // wheel is exactly consistent with the connection table here).
        wheel.expire(Instant::now(), &mut expired);
        for token in expired.drain(..) {
            let idx = token_slot(token);
            let fd = token_fd(token);
            // Same stale-token guard as readiness events: only close
            // the slot if it still holds the connection the deadline
            // was armed for.
            let Some(conn) = conns
                .get_mut(idx)
                .and_then(|c| c.as_mut())
                .filter(|c| c.io.stream.as_raw_fd() == fd)
            else {
                continue;
            };
            let kind = conn.deadline;
            if kind == DeadlineKind::DynamicWait {
                // The worker went silent past dynamic_deadline. The
                // shared expiry logic purges the waiter — raising the
                // job's cancel flag, which makes the helper kill and
                // respawn the wedged worker — and either queues a 504
                // (no body bytes sent yet: drive it out) or reports
                // the stream unsalvageable (sever the slot).
                if ctx.core.expire_dynamic_wait(idx, &mut conns) {
                    drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel);
                } else if let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) {
                    ctx.core.note_close(conn, Instant::now());
                    let _ = backend.deregister(fd);
                    conns[idx] = None;
                    ctx.live_conns = ctx.live_conns.saturating_sub(1);
                }
                continue;
            }
            let counter = match kind {
                DeadlineKind::Idle => &ctx.core.stats.idle_reaped,
                DeadlineKind::Header => &ctx.core.stats.read_timeouts,
                DeadlineKind::WriteStall => &ctx.core.stats.write_stall_timeouts,
                DeadlineKind::HelperWait => &ctx.core.stats.helper_wait_timeouts,
                DeadlineKind::DynamicWait => unreachable!("handled above"),
                // An expiry for a conn with no armed class can only be
                // a stale token that survived validation by fd reuse;
                // leave the connection alone.
                DeadlineKind::None => continue,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            ctx.core.note_close(conn, Instant::now());
            let _ = backend.deregister(fd);
            conns[idx] = None;
            ctx.live_conns = ctx.live_conns.saturating_sub(1);
            if kind == DeadlineKind::HelperWait {
                // The reaped connection was parked on a waiter list;
                // remove it (cancelling the job if it was the last
                // waiter) so the completion — which may still arrive —
                // cannot be delivered to whatever connection reuses
                // this slot.
                ctx.core.purge_waiter(idx);
            }
        }
        lap(&ctx.core.stats.phase_timers_us, &mut mark);
        // Accept last: the drives and expiries above may have freed
        // slots, so the gate decision below sees this iteration's
        // final occupancy.
        // (`listener` is already `None` by drain entry, so a draining
        // shard can neither re-arm nor accept here.)
        if let Some(l) = &listener {
            if !listener_armed && ctx.live_conns < ctx.cfg.max_conns_per_shard {
                // Re-arm: `modify` redelivers a still-pending backlog
                // as a fresh readiness event (ET contract), and the
                // level-triggered backend re-reports it on the next
                // wait — either way the accepts resume without a new
                // connection having to arrive.
                if backend
                    .modify(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .is_ok()
                {
                    listener_armed = true;
                }
            } else if accept_ready && listener_armed {
                listener_armed = drain_accepts(l, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
        }
        lap(&ctx.core.stats.phase_accept_us, &mut mark);
        // Flush this iteration's access records in one append, then
        // close the watchdog ledger: everything since the wait
        // returned was time the event loop spent NOT listening — the
        // one quantity AMPED exists to keep small.
        if let Some(w) = access_log.as_mut() {
            w.drain(&mut ctx.core.access_log);
        }
        let busy = Instant::now().duration_since(loop_start);
        ctx.core
            .stats
            .loop_stall_max_us
            .fetch_max(busy.as_micros() as u64, Ordering::Relaxed);
        if busy >= stall_threshold {
            ctx.core.stats.loop_stalls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Adds the time since `*mark` to `counter` and advances the mark —
/// the per-phase ledger behind the event-loop stall watchdog.
fn lap(counter: &std::sync::atomic::AtomicU64, mark: &mut Instant) {
    let now = Instant::now();
    counter.fetch_add(
        now.duration_since(*mark).as_micros() as u64,
        Ordering::Relaxed,
    );
    *mark = now;
}

/// Drains a shard's own listener to `EWOULDBLOCK` under the ET
/// contract, admitting and immediately driving each connection.
/// Stops early — dropping the listener's read interest — at the
/// shard's connection cap or on an accept failure (`EMFILE`/`ENFILE`
/// under fd exhaustion, counted as `accept_backpressure`); pending
/// connections then wait in the kernel backlog (or hash to another
/// shard's listener) until this shard re-arms. Returns whether the
/// listener interest is still armed.
fn drain_accepts(
    listener: &TcpListener,
    conns: &mut Vec<Option<NetConn>>,
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) -> bool {
    loop {
        if ctx.live_conns >= ctx.cfg.max_conns_per_shard {
            return !quiesce_listener(listener, backend);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if sock::apply_conn_options(&stream).is_err() {
                    continue;
                }
                ctx.core.stats.accepted.fetch_add(1, Ordering::Relaxed);
                admit_conn(stream, conns, ctx, backend, wheel);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            // A connection that died while queued in the backlog is
            // not backpressure — skip it and keep draining. Neither is
            // a signal landing mid-accept: retry immediately.
            Err(ref e)
                if e.kind() == io::ErrorKind::ConnectionAborted
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => {
                // EMFILE/ENFILE (or another persistent failure):
                // accepting again immediately would fail immediately.
                // Count it and back off; the shard loop retries on the
                // ACCEPT_RETRY_MS cadence and on every freed slot.
                ctx.core
                    .stats
                    .accept_backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return !quiesce_listener(listener, backend);
            }
        }
    }
}

/// Drops a listener's read interest (keeping the registration).
/// Returns whether the interest was actually dropped — if the
/// `modify` itself fails the listener stays armed and accepting simply
/// retries on the next event.
fn quiesce_listener(listener: &TcpListener, backend: &mut dyn EventBackend) -> bool {
    backend
        .modify(listener.as_raw_fd(), LISTENER_TOKEN, Interest::NONE)
        .is_ok()
}

/// Flips a shard into drain: the listener's read interest is dropped
/// for good (its backlog belongs to whoever holds the handoff dup),
/// and **idle** keep-alive connections — parked between requests with
/// nothing buffered, nothing queued, and at least one response already
/// delivered — are closed at once instead of waiting out their idle
/// timeout. Everything else (mid-request, pipelined bytes buffered,
/// response in flight, or so fresh no response has been produced yet)
/// is left to finish under the drain deadline.
fn enter_drain(
    conns: &mut [Option<NetConn>],
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    ctx.core.begin_drain();
    for idx in 0..conns.len() {
        let reading = conns[idx]
            .as_ref()
            .is_some_and(|c| matches!(c.state, ConnState::Reading));
        if !reading {
            continue;
        }
        // Drive before judging: a pipelined burst already sitting in
        // the socket buffer has not reached the parser yet, and a
        // connection must not be severed with honourable requests in
        // its receive queue. The drive reads to EWOULDBLOCK and — with
        // `draining` already set — closes the connection itself after
        // its final response goes out.
        drive_and_sync(idx, conns, ctx, backend, wheel);
        let Some(conn) = conns[idx].as_ref() else {
            continue;
        };
        // Still Reading with nothing anywhere after the drive: a
        // genuinely idle keep-alive (at least one response served) —
        // close it now rather than waiting out its idle timeout. A
        // fresh connection (no response yet) keeps its grace to send
        // the request it connected for.
        let idle = matches!(conn.state, ConnState::Reading)
            && conn.parser.buffered() == 0
            && conn.out.is_empty()
            && conn.sendfile.is_none()
            && conn.progress > 0;
        if idle {
            let fd = conn.io.stream.as_raw_fd();
            ctx.core.note_close(conn, Instant::now());
            let _ = backend.deregister(fd);
            wheel.cancel(conn_token(idx, fd));
            conns[idx] = None;
            ctx.live_conns = ctx.live_conns.saturating_sub(1);
            ctx.core.stats.drained_conns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Places a freshly dealt connection in a slot, registers it with the
/// backend, and drives it immediately — its request bytes are usually
/// in flight already, so waiting for the first readiness event would
/// add a wait's latency for nothing.
fn admit_conn(
    stream: TcpStream,
    conns: &mut Vec<Option<NetConn>>,
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    let fd = stream.as_raw_fd();
    let mut conn = Conn::new(SockIo { stream });
    conn.opened_at = Some(Instant::now());
    let idx = match conns.iter_mut().position(|c| c.is_none()) {
        Some(i) => {
            conns[i] = Some(conn);
            i
        }
        None => {
            conns.push(Some(conn));
            conns.len() - 1
        }
    };
    if backend
        .register(fd, conn_token(idx, fd), Interest::READ)
        .is_err()
    {
        // A connection the backend cannot watch can never progress.
        conns[idx] = None;
        return;
    }
    ctx.live_conns += 1;
    drive_and_sync(idx, conns, ctx, backend, wheel);
}

/// Drives one connection, then reconciles the backend *and* the
/// timing wheel with the result: deregisters and disarms a closed
/// connection, re-arms interest when the state machine moved, syncs
/// the per-state deadline, and forces an edge re-check after a
/// voluntary yield.
fn drive_and_sync(
    idx: usize,
    conns: &mut [Option<NetConn>],
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    let Some(fd) = conns
        .get(idx)
        .and_then(|c| c.as_ref())
        .map(|c| c.io.stream.as_raw_fd())
    else {
        return;
    };
    let mut outcome = ctx
        .core
        .drive_conn(idx, conns, &mut ctx.port, Instant::now());
    // A miss the residency test answered parked this connection
    // `Waiting` with its completion already in hand. Apply it and
    // drive on *before* reconciling anything: the connection never
    // shows the backend or the wheel its `Waiting` state, so the miss
    // costs no interest change, no timer, no wake byte and no second
    // wait. Pipelined misses go round again.
    while !ctx.port.inline_done.is_empty() {
        complete_inline(&mut ctx.core, &mut ctx.port, conns, &mut ctx.woken);
        // A job dispatched inside this drive has this connection as
        // its only waiter: a path with earlier waiters already has a
        // pending job and dispatches nothing.
        debug_assert!(ctx.woken.iter().all(|&w| w == idx));
        ctx.woken.clear();
        outcome = ctx
            .core
            .drive_conn(idx, conns, &mut ctx.port, Instant::now());
    }
    let token = conn_token(idx, fd);
    match conns.get(idx).and_then(|c| c.as_ref()) {
        None => {
            // Deregister even though close() would eventually unhook
            // it: the poll backend keeps a userspace table that would
            // otherwise hand a recycled fd number to the kernel. The
            // wheel entry must go for the same reason — the token will
            // be reminted when the slot is reused.
            let _ = backend.deregister(fd);
            wheel.cancel(token);
            ctx.live_conns = ctx.live_conns.saturating_sub(1);
        }
        Some(conn) => {
            let want = crate::conn::machine::desired_interest(&conn.state);
            if want != conn.interest {
                if backend.modify(fd, token, want).is_ok() {
                    if let Some(c) = conns[idx].as_mut() {
                        c.interest = want;
                    }
                } else {
                    // Unwatchable means unreachable: drop it. If it
                    // just went Waiting, its waiter index must go too —
                    // the inbound helper completion would otherwise be
                    // served to whatever connection reuses the slot.
                    ctx.core.note_close(conn, Instant::now());
                    conns[idx] = None;
                    let _ = backend.deregister(fd);
                    wheel.cancel(token);
                    ctx.live_conns = ctx.live_conns.saturating_sub(1);
                    if want == Interest::NONE {
                        ctx.core.purge_waiter(idx);
                    }
                    return;
                }
            } else if matches!(outcome, Drive::Yielded) && backend.rearm(fd, token, want).is_err() {
                // A consumed edge that cannot be re-armed is a
                // permanent stall under ET: the connection can never
                // progress, so close it rather than pin its fd and
                // slot forever.
                ctx.core.note_close(conn, Instant::now());
                conns[idx] = None;
                let _ = backend.deregister(fd);
                wheel.cancel(token);
                ctx.live_conns = ctx.live_conns.saturating_sub(1);
                return;
            }
            if let Some(conn) = conns[idx].as_mut() {
                sync_deadline(conn, token, &ctx.core.cfg, wheel, Instant::now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Variant;
    use crate::conn::JobKind;

    #[test]
    fn default_event_loops_bounded() {
        let n = default_event_loops();
        assert!((1..=8).contains(&n));
    }

    #[test]
    fn conn_token_roundtrips_slot_and_fd() {
        for (slot, fd) in [(0usize, 0), (3, 17), (100_000, 1023), (1, i32::MAX)] {
            let t = conn_token(slot, fd);
            assert_eq!(token_slot(t), slot);
            assert_eq!(token_fd(t), fd);
            assert_ne!(t, WAKE_TOKEN);
        }
    }

    fn job_for(shard: usize) -> Job {
        Job {
            shard,
            job: HelperJob {
                path: format!("/{shard}"),
                fs_path: PathBuf::new(),
                kind: JobKind::Load,
                variant: Variant::Identity,
                inline_max: u64::MAX,
                epoch: 0,
                token: 0,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        }
    }

    #[test]
    fn job_queue_rotates_across_shards() {
        let q = JobQueue::new(3);
        // Shard 0 floods its lane; shard 2 queues two jobs.
        for _ in 0..4 {
            q.push(job_for(0));
        }
        q.push(job_for(2));
        q.push(job_for(2));
        let mut order = Vec::new();
        {
            let mut lanes = q.lanes.lock().unwrap();
            while let Some(job) = pop_round_robin(&mut lanes) {
                order.push(job.shard);
            }
        }
        // Rotation bounds shard 0's head-of-line damage to one job per
        // visit: the starved shard is served every other pop, not
        // after the whole backlog.
        assert_eq!(order, vec![0, 2, 0, 2, 0, 0]);
    }

    #[test]
    fn job_queue_preserves_fifo_within_a_shard() {
        let q = JobQueue::new(2);
        for i in 0..3 {
            q.push(Job {
                shard: 0,
                job: HelperJob {
                    path: format!("/a{i}"),
                    fs_path: PathBuf::new(),
                    kind: JobKind::Load,
                    variant: Variant::Identity,
                    inline_max: u64::MAX,
                    epoch: 0,
                    token: i as u64,
                    cancel: Arc::new(AtomicBool::new(false)),
                },
            });
        }
        let mut lanes = q.lanes.lock().unwrap();
        let paths: Vec<String> = std::iter::from_fn(|| pop_round_robin(&mut lanes))
            .map(|j| j.job.path)
            .collect();
        assert_eq!(paths, vec!["/a0", "/a1", "/a2"]);
    }

    #[test]
    fn job_queue_close_releases_poppers() {
        let q = JobQueue::new(1);
        q.push(job_for(0));
        q.close();
        // Closed but not drained: the queued job still comes out...
        assert!(q.pop().is_some());
        // ...then pops end instead of blocking forever.
        assert!(q.pop().is_none());
        // And pushes after close are refused.
        q.push(job_for(0));
        assert!(q.pop().is_none());
    }
}
