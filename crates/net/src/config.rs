//! Server configuration: [`NetConfig`] and its validating
//! [`NetConfigBuilder`], shared by the AMPED shards
//! ([`crate::server::Server`]) and the MT server
//! ([`crate::mt::MtServer`]), plus the one mapping from it to the
//! protocol core's [`ProtoConfig`].

use std::path::PathBuf;
use std::time::Duration;

use crate::conn::ProtoConfig;
use crate::event::BackendChoice;
use crate::sock::AcceptMode;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Directory served as the document root.
    pub docroot: PathBuf,
    /// Number of helper threads (the AMPED helper pool, shared by all
    /// shards) — and, there being no reason for a second number, the
    /// ceiling on the application workers each shard keeps alive for
    /// the dynamic tier: a shard with that many busy queues further
    /// dynamic requests FIFO under [`Self::dynamic_deadline`]. (On MT a
    /// worker is checked out by a connection thread; the connections
    /// bound them.)
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
    /// How many kernel sockets stand behind the shards' listener
    /// registrations (see [`crate::sock`]; every shard accepts for
    /// itself either way): `Auto` (default) resolves to per-shard
    /// `SO_REUSEPORT` listeners on Linux — the kernel hashes arrivals
    /// across them — and to one socket shared by every shard
    /// elsewhere, overridable with `FLASH_ACCEPT_MODE=single|reuseport`;
    /// `ReusePort`/`Single` pin a mode and ignore the environment.
    pub accept_mode: AcceptMode,
    /// Per-shard connection cap, enforced as **local backpressure**:
    /// a shard at its cap drops its listener's read interest (new
    /// connections queue in the kernel backlog or go to other shards)
    /// and re-arms the moment a slot frees. Default 8192.
    pub max_conns_per_shard: usize,
    /// Content-cache hits older than this re-stat the file (a job like
    /// any miss: answered on the spot when the lookup is in memory, by
    /// a helper otherwise — the shard still never waits for the
    /// filesystem) before serving: an mtime/size mismatch evicts the
    /// entry and reloads, so a file edited in place stops being served
    /// — and 304-validated — from stale cached bytes within the TTL.
    /// It is also how long a **miss** trusts a name it has resolved
    /// before: the shard's open-file table (crate docs, *Residency
    /// test*) keeps the descriptor a path led to for this long, and
    /// a content-cache entry built through it counts its TTL from that
    /// path lookup, not from the read. So the one bound holds to the
    /// letter on both paths: whatever changes what a *name* means — a
    /// symlinked directory flipped, a `.gz` sibling added — is seen
    /// within the TTL of the change; every change to the *file* the
    /// name led to (rewrite, truncation, delete, rename-over) is seen
    /// by the next miss, as ever. `None` trusts cached entries and
    /// name bindings until they are evicted (the pre-revalidation
    /// behavior). Default 2 s.
    pub cache_revalidate_ttl: Option<Duration>,
    /// How long a drain ([`Server::drain`](crate::server::Server::drain),
    /// SIGTERM) waits for existing connections to finish before the
    /// shards exit anyway.
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
    /// Structured access log: each shard buffers one record per
    /// completed response and appends batched lines to this file
    /// (`None` disables logging). Reopened on SIGHUP via
    /// [`Server::rotate_access_logs`](crate::server::Server::rotate_access_logs)
    /// and on every docroot reload.
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

    /// The protocol core's slice of this config — the only place a
    /// [`ProtoConfig`] is built from a `NetConfig`.
    pub fn proto(&self) -> ProtoConfig {
        ProtoConfig {
            docroot: self.docroot.clone(),
            idle_timeout: self.idle_timeout,
            header_read_timeout: self.header_read_timeout,
            write_stall_timeout: self.write_stall_timeout,
            helper_wait_timeout: self.helper_wait_timeout,
            cache_revalidate_ttl: self.cache_revalidate_ttl,
            sendfile_threshold: self.sendfile_threshold_bytes,
            metrics_endpoint: self.metrics_endpoint,
            dynamic_prefix: self.dynamic_prefix.clone(),
            dynamic_deadline: self.dynamic_deadline,
            access_log: self.access_log_path.is_some(),
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

/// `min(available cores, 8)`: one loop per core. The cap of 8 has not
/// been measured (the reference box has 2 vCPUs).
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_event_loops_bounded() {
        let n = default_event_loops();
        assert!((1..=8).contains(&n));
    }
}
