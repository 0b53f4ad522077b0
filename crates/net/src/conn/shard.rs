//! Per-shard protocol state and transitions: the content cache, miss
//! coalescing with per-job cancellation, reload epochs, drain mode,
//! and the request → helper → response pipeline — generic over
//! [`ConnIo`], free of syscalls and clocks (every instant is a
//! parameter), so the real event loop and the deterministic sim drive
//! the identical code.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use flash_http::chunked;
use flash_http::request::{ParseStatus, Request};
use flash_http::response::{error_body, ResponseHeader, Status};
use flash_http::Method;

use crate::cache::{self, CacheHandle, ContentCache, Entry, Lookup, Variant};
use crate::stats::{self, AccessRecord, Tier};
use crate::timer::TimerWheel;

use super::machine::{flush_out, Conn, ConnState, DeadlineKind, Drive, FlushResult};
use super::plan::{plan_dynamic, plan_response, queue_plan, RequestCond, Resource};
use super::{
    ConnIo, Done, DoneData, DynEvent, FileData, Held, HelperJob, HelperPort, JobKind, LoadResult,
    ProtoConfig, ShardStats,
};

/// The shard's one record of a dispatched, not-yet-completed job: the
/// token a completion must echo to be accepted, the connections parked
/// on it (coalesced misses share one job; a dynamic request has its
/// own), and the cancellation flag raised when the last of them leaves.
pub struct PendingJob {
    pub token: u64,
    pub cancel: Arc<AtomicBool>,
    /// Slots parked on this job, in arrival order; never empty while
    /// the job is in [`ShardCore::jobs`].
    pub waiters: Vec<usize>,
}

/// Everything one shard's protocol layer owns: its cache, its jobs in
/// flight with the connections parked on each, its statistics, and its
/// reload/drain posture. Deliberately **not** generic over the
/// transport — per-connection transport state lives in each
/// [`Conn`]; large-body handles pass through transiently. Generic
/// over how it reaches its cache ([`CacheHandle`]): an event-loop
/// shard owns a private [`ContentCache`] (the default, so the bare
/// type `ShardCore` is that), an MT connection thread holds a handle
/// to the cache all threads share.
pub struct ShardCore<C: CacheHandle = ContentCache> {
    pub shard: usize,
    pub cache: C,
    /// Jobs in flight, per variant key (or a dynamic request's
    /// synthetic `\0dyn:` key), each with the connections it answers.
    pub jobs: HashMap<String, PendingJob>,
    /// Monotonic per-dispatch token source (see [`HelperJob::token`]).
    next_job_token: u64,
    pub cfg: ProtoConfig,
    pub stats: Arc<ShardStats>,
    /// Whether this shard has entered drain: accepting has stopped,
    /// keep-alive connections close after their final response.
    pub draining: bool,
    /// Reload epoch, bumped on every SIGHUP docroot swap. Helper jobs
    /// carry the epoch they were dispatched under; a completion from a
    /// previous epoch still serves its waiters (their request predates
    /// the reload) but is never inserted into the post-reload cache.
    pub epoch: u64,
    /// Every shard's stats, for rendering the `/.flash/` endpoints
    /// server-wide (set by the driver; when empty — the sim, tests —
    /// the endpoint renders this shard's stats alone).
    pub export: Vec<Arc<ShardStats>>,
    /// Access records staged by completed responses (only when
    /// [`ProtoConfig::access_log`] is on); the driver drains this
    /// every loop iteration and writes the lines, stamping wall time
    /// itself so the core stays clock-free.
    pub access_log: Vec<AccessRecord>,
    /// Where [`Self::drive_conn`] reads request bytes: one buffer for
    /// the shard (the parser copies out what it keeps), not a zeroed
    /// array per call.
    read_buf: Box<[u8; READ_BUF]>,
}

/// Bytes asked of the transport per read.
const READ_BUF: usize = 4096;

impl ShardCore {
    /// A fresh shard core with a private, `cache_bytes`-bounded
    /// content cache.
    pub fn new(shard: usize, cache_bytes: u64, cfg: ProtoConfig, stats: Arc<ShardStats>) -> Self {
        ShardCore::with_cache(shard, ContentCache::new(cache_bytes), cfg, stats)
    }

    /// The cache's byte count reconciled: [`ContentCache::used_bytes`]
    /// is the sum of its entries' costs, and the `cache_used_bytes`
    /// gauge reads it — every path that inserts, evicts, invalidates or
    /// resets stores the gauge behind it.
    pub fn check_cache_bytes(&self) -> Result<(), String> {
        let (used, held) = (self.cache.used_bytes(), self.cache.entries_cost());
        let gauge = self.stats.cache_used_bytes.load(Ordering::Relaxed);
        if used != held || gauge != used {
            return Err(format!(
                "the cache counts {used} bytes and holds {held}; its gauge reads {gauge}"
            ));
        }
        Ok(())
    }
}

impl<C: CacheHandle> ShardCore<C> {
    /// A fresh shard core over `cache`.
    pub fn with_cache(shard: usize, cache: C, cfg: ProtoConfig, stats: Arc<ShardStats>) -> Self {
        ShardCore {
            shard,
            cache,
            jobs: HashMap::new(),
            next_job_token: 1,
            cfg,
            stats,
            draining: false,
            epoch: 0,
            export: Vec::new(),
            access_log: Vec::new(),
            read_buf: Box::new([0; READ_BUF]),
        }
    }

    /// Applies a docroot reload: the root swaps (when given), the
    /// content cache is reset (same budget — pre-reload bytes must not
    /// be served under the new root), and the epoch
    /// advances so a completion from a job dispatched before the swap
    /// serves its parked waiters but is never inserted into the fresh
    /// cache. In-flight connections are untouched.
    pub fn apply_reload(&mut self, docroot: Option<PathBuf>, generation: u64) {
        if let Some(root) = docroot {
            self.cfg.docroot = root;
        }
        self.cache.reset(generation);
        self.stats
            .cache_used_bytes
            .store(self.cache.used_bytes(), Ordering::Relaxed);
        self.epoch = generation;
    }

    /// Flips the shard into drain mode. The driver quiesces its
    /// listener and then drives every `Reading` slot once: the drive
    /// applies the drain-entry rule (where [`Self::drive_conn`] finds
    /// the transport dry).
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.stats.draining.store(1, Ordering::Relaxed);
    }

    /// Retires slot `idx` — the one way a connection leaves the table,
    /// for the core's own arms and for a driver that cannot keep
    /// watching a transport. Records the lifetime, empties the slot,
    /// and purges the waiter registration whenever the connection can
    /// be on a list (`Waiting`, or `Writing` a still-open dynamic
    /// stream — the membership rule [`Self::check_invariants`]
    /// checks), so a completion that is still to come cannot reach
    /// whichever connection reuses the slot. The common close pays one
    /// flag test. A no-op on an empty slot.
    pub fn close_conn<Io: ConnIo>(
        &mut self,
        idx: usize,
        conns: &mut [Option<Conn<Io>>],
        now: Instant,
    ) {
        let Some(conn) = conns.get(idx).and_then(|c| c.as_ref()) else {
            return;
        };
        if let Some(t0) = conn.opened_at {
            self.stats.conn_lifetime.record(stats::nanos_since(t0, now));
        }
        let listed = matches!(conn.state, ConnState::Waiting) || conn.stream_open;
        conns[idx] = None;
        if listed {
            self.purge_waiter(idx);
        }
    }

    /// Per-response accounting at the moment the last byte is queued
    /// out: the `requests` counter (or `metrics_requests` for
    /// `/.flash/` responses), the request-latency histogram, and the
    /// staged access-log record.
    fn finish_response<Io: ConnIo>(&mut self, conn: &mut Conn<Io>, now: Instant) {
        conn.ttfb_pending = false;
        if conn.metrics_response {
            conn.metrics_response = false;
            self.stats.metrics_requests.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let latency_nanos = conn.req_start.take().map(|t0| stats::nanos_since(t0, now));
        if let Some(ns) = latency_nanos {
            self.stats.request_latency.record(ns);
        }
        if let Some(mut log) = conn.log.take() {
            log.bytes = conn.progress - conn.progress_at_req;
            log.latency_us = latency_nanos.unwrap_or(0) / 1_000;
            self.access_log.push(log);
        }
    }

    /// Answers a request the parser refused with a `400` that closes
    /// the connection, and stages its access-log record. Nothing of
    /// the request is echoed — it may hold the very bytes it was
    /// refused for — so its method and path are logged as `-`.
    fn reject_request<Io: ConnIo>(&self, conn: &mut Conn<Io>) {
        self.stage_log(conn, None);
        let body = Bytes::from(error_body(Status::BadRequest));
        queue_error(conn, Status::BadRequest, body);
        set_log(conn, Status::BadRequest.code(), Tier::Error);
        conn.state = ConnState::Writing;
    }

    /// Marks where this request's response starts on the wire and, when
    /// the access log is on, stages its record — a refused request
    /// (`None`) as `"- -"`. The outcome is filled in when the response
    /// is decided ([`set_log`]), the bytes and latency when it finishes
    /// ([`Self::finish_response`]).
    fn stage_log<Io: ConnIo>(&self, conn: &mut Conn<Io>, req: Option<&Request>) {
        conn.progress_at_req = conn.progress;
        if !self.cfg.access_log {
            return;
        }
        let (host, method, path) = match req {
            Some(req) => (
                req.host.clone().unwrap_or_default(),
                req.method.as_str(),
                req.path.clone(),
            ),
            None => (String::new(), "-", "-".to_string()),
        };
        conn.log = Some(AccessRecord {
            host,
            method,
            path,
            status: 0,
            bytes: 0,
            latency_us: 0,
            tier: Tier::Error,
        });
    }

    /// Serves the in-band observability endpoint: the registry rendered
    /// as Prometheus text (`/.flash/metrics`), aggregated over every
    /// shard the driver exported; any other `/.flash/` path is a `404`.
    /// Rides the normal respond path — no sidecar thread — and counts
    /// under `metrics_requests`, never `requests`.
    fn serve_metrics<Io: ConnIo>(&mut self, conn: &mut Conn<Io>, path: &str) {
        conn.metrics_response = true;
        let shards: &[Arc<ShardStats>] = if self.export.is_empty() {
            std::slice::from_ref(&self.stats)
        } else {
            &self.export
        };
        if path != "/.flash/metrics" {
            let body = Bytes::from(error_body(Status::NotFound));
            queue_error(conn, Status::NotFound, body);
            conn.state = ConnState::Writing;
            return;
        }
        let body = Bytes::from(stats::render_prometheus(shards).into_bytes());
        let ctype = "text/plain; version=0.0.4";
        let hdr =
            ResponseHeader::build(Status::Ok, ctype, body.len() as u64, conn.keep_alive, true);
        conn.out.push_back(Bytes::from(hdr.as_bytes().to_vec()));
        if !conn.head_only {
            conn.out.push_back(body);
        }
        conn.state = ConnState::Writing;
    }

    /// Runs one connection's state machine as far as it will go
    /// without blocking — reads until the transport is dry (it says so,
    /// [`ConnIo::known_empty`], or a read returns `WouldBlock`), writes
    /// until backpressure — and reports why it stopped. `now` is the
    /// driver's clock (cache-TTL decisions happen here).
    pub fn drive_conn<Io: ConnIo>(
        &mut self,
        idx: usize,
        conns: &mut [Option<Conn<Io>>],
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) -> Drive {
        loop {
            let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                return Drive::Closed;
            };
            match conn.state {
                ConnState::Reading => {
                    // Serve any request already buffered (keep-alive
                    // pipelining) before asking the transport for more.
                    match conn.parser.feed(&[]) {
                        ParseStatus::Done(req) => {
                            self.handle_request(idx, conn, req, port, now);
                            continue;
                        }
                        ParseStatus::Error(_) => {
                            self.reject_request(conn);
                            continue;
                        }
                        ParseStatus::Incomplete => {}
                    }
                    // A transport that knows it is dry is not asked:
                    // the read could only say `WouldBlock`.
                    if !conn.io.known_empty() {
                        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
                        match conn.io.read(&mut self.read_buf[..]) {
                            Ok(0) => {
                                self.close_conn(idx, conns, now);
                                return Drive::Closed;
                            }
                            Ok(n) => {
                                match conn.parser.feed(&self.read_buf[..n]) {
                                    ParseStatus::Done(req) => {
                                        self.handle_request(idx, conn, req, port, now);
                                    }
                                    ParseStatus::Incomplete => {}
                                    ParseStatus::Error(_) => self.reject_request(conn),
                                }
                                continue;
                            }
                            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                            Err(_) => {
                                self.close_conn(idx, conns, now);
                                return Drive::Closed;
                            }
                        }
                    }
                    // The drain-entry rule. The transport is dry and
                    // nothing is buffered, so a connection that has
                    // been answered before is an idle keep-alive:
                    // close it now rather than wait out its idle
                    // timeout. One not yet answered keeps its grace to
                    // send the request it connected for, and buffered
                    // pipelined bytes never get here — they were
                    // served above, and the final flush closed the
                    // connection.
                    if self.draining && conn.progress > 0 && conn.parser.buffered() == 0 {
                        self.stats.drained_conns.fetch_add(1, Ordering::Relaxed);
                        self.close_conn(idx, conns, now);
                        return Drive::Closed;
                    }
                    return Drive::Blocked;
                }
                ConnState::Writing => {
                    let progress_before = conn.progress;
                    let flushed = flush_out(conn, &self.stats);
                    // First response byte accepted by the transport
                    // since the request parsed: that's TTFB, whatever
                    // the flush outcome.
                    if conn.ttfb_pending && conn.progress > progress_before {
                        conn.ttfb_pending = false;
                        if let Some(t0) = conn.req_start {
                            self.stats.ttfb.record(stats::nanos_since(t0, now));
                        }
                    }
                    match flushed {
                        FlushResult::Flushed => {
                            if conn.stream_open {
                                // Everything queued so far went out but
                                // the worker's stream is still open:
                                // park back in Waiting for the next
                                // chunk — the response is not finished
                                // and the dynamic-wait deadline covers
                                // the inter-chunk gap.
                                conn.state = ConnState::Waiting;
                                return Drive::Blocked;
                            }
                            self.finish_response(conn, now);
                            // Under drain a keep-alive connection closes
                            // after its final response — unless pipelined
                            // request bytes are already buffered, which are
                            // honoured before the close (the loop continues
                            // Reading and serves them without touching the
                            // transport).
                            if conn.keep_alive && !(self.draining && conn.parser.buffered() == 0) {
                                conn.state = ConnState::Reading;
                            } else {
                                if self.draining {
                                    self.stats.drained_conns.fetch_add(1, Ordering::Relaxed);
                                }
                                self.close_conn(idx, conns, now);
                                return Drive::Closed;
                            }
                        }
                        FlushResult::WouldBlock => return Drive::Blocked,
                        FlushResult::Yielded => return Drive::Yielded,
                        FlushResult::Error => {
                            self.close_conn(idx, conns, now);
                            return Drive::Closed;
                        }
                    }
                }
                // Parked. The transport is not read: a pipelined request
                // behind this one stays in the socket, starting no
                // deadline, until the completion resumes the connection.
                // Its peer's hang-up is the one thing that counts here.
                // A client that leaves a request an application worker
                // owns has aborted it (nginx's default,
                // `proxy_ignore_client_abort off`): the close purges the
                // waiter, which cancels the job, and the driver's sweep
                // retires the worker — now, not at the dynamic deadline.
                // Requests pipelined behind it go unanswered with it: a
                // half-close is not told apart from a close. A request
                // a helper owns is answered regardless, and the
                // connection closed at its end of stream.
                ConnState::Waiting if conn.dynamic && conn.io.hung_up() => {
                    self.close_conn(idx, conns, now);
                    return Drive::Closed;
                }
                ConnState::Waiting => return Drive::Blocked,
            }
        }
    }

    fn handle_request<Io: ConnIo>(
        &mut self,
        idx: usize,
        conn: &mut Conn<Io>,
        req: Request,
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) {
        conn.keep_alive = req.keep_alive();
        conn.client_close = !conn.keep_alive;
        conn.head_only = req.method == Method::Head;
        // The conditional/negotiation fields, snapshotted once here
        // (dates parsed; an unparseable date simply makes the request
        // unconditional). Carried on the connection because the
        // response may be rendered by a helper completion after `req`
        // is dropped.
        conn.cond = RequestCond::from_request(&req);
        // The observability endpoints answer before any workload
        // accounting: no `req_start`, no access-log record, counted
        // under `metrics_requests` — scraping never skews the numbers
        // it reports.
        if self.cfg.metrics_endpoint && req.path.starts_with("/.flash/") {
            self.serve_metrics(conn, &req.path);
            return;
        }
        conn.req_start = Some(now);
        conn.ttfb_pending = true;
        self.stage_log(conn, Some(&req));
        if req.method == Method::Post {
            let body = Bytes::from(error_body(Status::NotImplemented));
            queue_error(conn, Status::NotImplemented, body);
            set_log(conn, Status::NotImplemented.code(), Tier::Error);
            conn.state = ConnState::Writing;
            return;
        }
        // Dynamic-tier routing: a docroot-relative prefix rule, checked
        // after the reserved `/.flash/` namespace (which therefore can
        // never be shadowed, even by a rule covering `/`) and before
        // the trailing-slash rewrite — dynamic paths are opaque worker
        // arguments, not filesystem names.
        if let Some(prefix) = self.cfg.dynamic_prefix.as_deref() {
            if req.path.starts_with(prefix) {
                self.handle_dynamic(idx, conn, &req.path, port, now);
                return;
            }
        }
        let mut path = req.path.clone();
        if path.ends_with('/') {
            path.push_str("index.html");
        }
        let ttl = self.cfg.cache_revalidate_ttl;
        // Variant negotiation: a gzip-accepting client consults the
        // gzip slot of the variant cache first; everyone else (and any
        // resource known to have no `.gz` sibling) goes straight to the
        // identity slot. Either way the hit is served through the one
        // response plane — the planner, not the lookup, decides
        // 200/206/304/416.
        let gz_key = conn
            .cond
            .accept_gzip
            .then(|| cache::variant_key(&path, Variant::Gzip));
        let lookup = match &gz_key {
            None => self.cache.lookup_at(&path, ttl, now),
            // No gzip entry yet. An identity hit that *knows* no
            // sibling exists is served as-is; anything else (miss,
            // stale, or a sibling on record) dispatches a
            // gzip-preference load, which falls back to identity when
            // no `.gz` file is found.
            Some(gz) => match self.cache.lookup_at(gz, ttl, now) {
                Lookup::Miss => match self.cache.lookup_at(&path, ttl, now) {
                    Lookup::Hit(entry) if !entry.has_gzip => Lookup::Hit(entry),
                    _ => Lookup::Miss,
                },
                found => found,
            },
        };
        let kind = match lookup {
            Lookup::Hit(entry) => {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.respond(conn, &Resource::Cached(&entry), &path, Tier::Hit);
                return;
            }
            // Resident but past the revalidation TTL: the bytes cannot
            // be trusted until a helper re-stats the file — a cheap
            // open+fstat, no read — so the connection parks exactly
            // like a miss and is served by the completion (from memory
            // if the stat matches, from a reload if not).
            Lookup::Stale(_) => JobKind::Revalidate,
            // Miss: hand the disk work to a helper.
            Lookup::Miss => JobKind::Load,
        };
        // Coalesce concurrent misses (and revalidations) per variant
        // key: a request for a key already in flight parks on its job.
        // A miss on a key with none is asked of the port's held files
        // first, and answered like a hit if it holds this one.
        // The request parser has already normalized away any `..`, so
        // joining the relative remainder cannot escape the docroot.
        let key = gz_key.unwrap_or(path);
        match self.jobs.get_mut(&key) {
            Some(job) => job.waiters.push(idx),
            None => {
                if kind == JobKind::Load {
                    let held = port.held(&key, self.cfg.sendfile_threshold, now);
                    if let Some(Held { head, file, len }) = held {
                        let res = Resource::File {
                            head: &head,
                            file: &file,
                            len,
                        };
                        let url_path = cache::split_variant_key(&key).0;
                        self.respond(conn, &res, url_path, Tier::Sendfile);
                        return;
                    }
                }
                self.dispatch_job(key, kind, vec![idx], port);
            }
        }
        conn.wait_start = Some(now);
        conn.state = ConnState::Waiting;
    }

    /// Plans and queues one response — the only call site pattern for
    /// [`plan_response`] on this shard, so every tier and every
    /// completion shape goes through identical conditional/range
    /// handling.
    fn respond<Io: ConnIo>(
        &self,
        conn: &mut Conn<Io>,
        res: &Resource<'_, Io::FileRef>,
        path: &str,
        body_tier: Tier,
    ) {
        let plan = plan_response(
            res,
            path,
            &conn.cond,
            conn.keep_alive,
            body_tier,
            &self.stats,
        );
        set_log(conn, plan.status.code(), plan.tier);
        queue_plan(conn, plan);
        conn.state = ConnState::Writing;
    }

    /// Records a dispatch under `key` for `waiters`: mints its token
    /// and a fresh cancellation flag, and counts the job.
    fn register_job(&mut self, key: &str, waiters: Vec<usize>) -> (u64, Arc<AtomicBool>) {
        let token = self.next_job_token;
        self.next_job_token += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        let job = PendingJob {
            token,
            cancel: Arc::clone(&cancel),
            waiters,
        };
        self.jobs.insert(key.to_string(), job);
        self.stats.helper_jobs.fetch_add(1, Ordering::Relaxed);
        (token, cancel)
    }

    /// Dispatches the job for a variant key no job is in flight for,
    /// on behalf of `waiters`: tokened so only this dispatch's
    /// completion is accepted, and carrying a fresh cancellation flag.
    /// The job carries the core's tier threshold (`inline_max`) and the
    /// key's variant so every executor stays mechanical.
    fn dispatch_job<F>(
        &mut self,
        key: String,
        kind: JobKind,
        waiters: Vec<usize>,
        port: &mut dyn HelperPort<F>,
    ) {
        let (token, cancel) = self.register_job(&key, waiters);
        // The filesystem path is always the identity representation's;
        // executors derive the `.gz` sibling themselves when the job
        // concerns the gzip variant.
        let (url_path, variant) = cache::split_variant_key(&key);
        let fs_path = self.cfg.docroot.join(url_path.trim_start_matches('/'));
        port.submit(HelperJob {
            path: key,
            fs_path,
            kind,
            variant,
            inline_max: self.cfg.sendfile_threshold,
            epoch: self.epoch,
            token,
            cancel,
        });
    }

    /// Routes one request into the dynamic tier. HEAD answers
    /// immediately with the chunked header alone — no worker runs. GET
    /// dispatches a [`JobKind::Dynamic`] helper job under a synthetic
    /// waiter key (`"\0dyn:<token>"` — the NUL prefix cannot collide
    /// with URL paths, which always start with `/`): dynamic responses
    /// are per-connection streams, never coalesced, so each dispatch
    /// owns exactly one waiter. Conditional headers (ETag/304/Range)
    /// deliberately do not apply — generated output has no validators.
    fn handle_dynamic<Io: ConnIo>(
        &mut self,
        idx: usize,
        conn: &mut Conn<Io>,
        url_path: &str,
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) {
        self.stats.dynamic_requests.fetch_add(1, Ordering::Relaxed);
        set_log(conn, Status::Ok.code(), Tier::Dynamic);
        if conn.head_only {
            // Headers only: `queue_plan` drops the `Stream` body for
            // HEAD, so no stream opens and no worker is consulted.
            queue_plan(conn, plan_dynamic(conn.keep_alive));
            conn.state = ConnState::Writing;
            return;
        }
        // Keyed by the token `register_job` mints next.
        let key = format!("\0dyn:{}", self.next_job_token);
        let (token, cancel) = self.register_job(&key, vec![idx]);
        // `fs_path` carries the request path verbatim: it is the
        // worker's argument, not a filesystem name, so no docroot join
        // and no trailing-slash rewrite.
        port.submit(HelperJob {
            path: key,
            fs_path: PathBuf::from(url_path),
            kind: JobKind::Dynamic,
            variant: Variant::Identity,
            inline_max: 0,
            epoch: self.epoch,
            token,
            cancel,
        });
        conn.dynamic = true;
        conn.wait_start = Some(now);
        conn.state = ConnState::Waiting;
    }

    /// Removes a dropped connection's index from every job's waiters —
    /// so a helper completion can never be delivered to a recycled
    /// slot — and **cancels** any job it was the last waiter of: the
    /// entry is dropped (a completion that already ran dies on token
    /// mismatch in [`Self::complete_job`]) and the cancel flag is
    /// raised (an executor that has not started yet skips the job
    /// entirely).
    fn purge_waiter(&mut self, idx: usize) {
        let stats = &self.stats;
        self.jobs.retain(|_, job| {
            job.waiters.retain(|&w| w != idx);
            let orphaned = job.waiters.is_empty();
            if orphaned {
                job.cancel.store(true, Ordering::Release);
                stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            !orphaned
        });
    }

    /// Renders a helper completion into every waiter's output queue,
    /// flipping them to `Writing` and appending their indices to
    /// `completed` for the driver to drive. A completion whose token
    /// does not match the key's job in flight — the job was cancelled
    /// after a waiter reap, or superseded — is dropped wholesale: no
    /// cache insert, no waiter wake.
    pub fn complete_job<Io: ConnIo>(
        &mut self,
        done: Done<Io::FileRef>,
        conns: &mut [Option<Conn<Io>>],
        completed: &mut Vec<usize>,
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) {
        // A dynamic job produces *several* completions under one token
        // — every mid-stream `Chunk` keeps the job (its waiter and its
        // cancel flag) in place; only the final `End` (or any
        // non-dynamic completion) retires it, waiters and all.
        let waiters = match self.jobs.get(&done.path) {
            Some(job) if job.token == done.token => match done.data {
                DoneData::Dynamic(DynEvent::Chunk(_)) => job.waiters.clone(),
                _ => self
                    .jobs
                    .remove(&done.path)
                    .map(|job| job.waiters)
                    .unwrap_or_default(),
            },
            _ => return,
        };
        let result = match done.data {
            DoneData::Stat(stat) => {
                return self
                    .complete_revalidation(done.path, stat, waiters, conns, completed, port, now);
            }
            DoneData::Dynamic(ev) => {
                return self.deliver_dynamic(ev, &waiters, conns, completed, now);
            }
            DoneData::Loaded(result) => result,
        };
        let url_path = cache::split_variant_key(&done.path).0.to_string();
        let completion = match result {
            Ok(LoadResult {
                data: FileData::Bytes { body, mtime },
                variant,
                has_gzip,
                resolved_at,
            }) => {
                let entry = Entry::build_variant(&url_path, body, mtime, variant, has_gzip);
                // Oversized-for-this-cache entries are refused by the
                // admission check; the waiters below are still served
                // from the entry directly. A completion from before a
                // SIGHUP reload (stale epoch) also serves its waiters —
                // their requests predate the reload — but is NOT
                // inserted: pre-reload bytes must not poison the
                // post-reload cache. The insert key follows the variant
                // that actually loaded: a gzip-preference job that fell
                // back to identity (no `.gz` sibling) populates the
                // identity slot, so the next gzip-accepting request
                // hits `has_gzip: false` there and never re-dispatches.
                // The entry is as fresh as its name binding: bytes read
                // through a descriptor resolved earlier inherit that
                // instant, so the TTL runs from the path lookup.
                if done.epoch == self.epoch {
                    self.cache.insert_at(
                        cache::variant_key(&url_path, variant),
                        Arc::clone(&entry),
                        resolved_at.unwrap_or(now),
                    );
                    self.stats
                        .cache_used_bytes
                        .store(self.cache.used_bytes(), Ordering::Relaxed);
                }
                Completion::Small(entry)
            }
            Ok(LoadResult {
                data: FileData::Fd { file, len, mtime },
                variant,
                has_gzip,
                ..
            }) => Completion::Large {
                head: Entry::head(&url_path, len, mtime, variant, has_gzip),
                file,
                len,
            },
            Err(e) => {
                let status = match e.kind() {
                    io::ErrorKind::NotFound => Status::NotFound,
                    io::ErrorKind::PermissionDenied => Status::Forbidden,
                    _ => Status::InternalError,
                };
                Completion::Fail(status, Bytes::from(error_body(status)))
            }
        };
        self.deliver_completion(
            &completion,
            &waiters,
            &url_path,
            conns,
            completed,
            Tier::Miss,
            now,
        );
    }

    /// Handles a revalidation re-stat completion: if the cached entry
    /// still matches the file's (length, mtime), its TTL clock
    /// restarts and the waiters are served straight from memory;
    /// otherwise the stale entry is evicted and a full load is
    /// requeued for the same waiters, who stay parked: the `Load`
    /// completion serves them the fresh bytes (or the error the reload
    /// produces).
    #[allow(clippy::too_many_arguments)]
    fn complete_revalidation<Io: ConnIo>(
        &mut self,
        path: String,
        stat: io::Result<(u64, Option<i64>)>,
        waiters: Vec<usize>,
        conns: &mut [Option<Conn<Io>>],
        completed: &mut Vec<usize>,
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) {
        if let (Some(entry), Ok((len, mtime))) = (self.cache.peek(&path), &stat) {
            if entry.mtime == *mtime && entry.body.len() as u64 == *len {
                self.cache.refresh_at(&path, now);
                self.stats.revalidations.fetch_add(1, Ordering::Relaxed);
                let url_path = cache::split_variant_key(&path).0;
                let completion = Completion::Small(entry);
                self.deliver_completion(
                    &completion,
                    &waiters,
                    url_path,
                    conns,
                    completed,
                    Tier::Hit,
                    now,
                );
                return;
            }
        }
        // Changed, vanished, or evicted in the meantime: the resident
        // bytes can no longer be trusted. A vanished `.gz` sibling
        // lands here too — the requeued gzip-preference load falls
        // back to the identity file.
        if self.cache.invalidate(&path) {
            self.stats.stale_evicted.fetch_add(1, Ordering::Relaxed);
            self.stats
                .cache_used_bytes
                .store(self.cache.used_bytes(), Ordering::Relaxed);
        }
        self.dispatch_job(path, JobKind::Load, waiters, port);
    }

    /// Renders a completion into the output queue of each of the
    /// retired job's `waiters` through the response plane, flipping
    /// them to `Writing` and appending their indices to `completed` for
    /// the driver to drive.
    /// `served_tier` is the access-log tier a body-bearing small
    /// response reports (miss for a fresh load, hit for a confirmed
    /// revalidation); `now` closes out each waiter's helper-wait
    /// interval. Each waiter gets its *own* plan — their conditional
    /// headers, ranges, and keep-alive postures all differ.
    #[allow(clippy::too_many_arguments)]
    fn deliver_completion<Io: ConnIo>(
        &mut self,
        completion: &Completion<Io::FileRef>,
        waiters: &[usize],
        url_path: &str,
        conns: &mut [Option<Conn<Io>>],
        completed: &mut Vec<usize>,
        served_tier: Tier,
        now: Instant,
    ) {
        for &idx in waiters {
            let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            if let Some(t0) = conn.wait_start.take() {
                self.stats.helper_wait.record(stats::nanos_since(t0, now));
            }
            match completion {
                Completion::Small(entry) => {
                    self.respond(conn, &Resource::Cached(entry), url_path, served_tier);
                }
                Completion::Large { head, file, len } => {
                    let res = Resource::File {
                        head,
                        file,
                        len: *len,
                    };
                    self.respond(conn, &res, url_path, Tier::Sendfile);
                }
                Completion::Fail(status, body) => {
                    queue_error(conn, *status, body.clone());
                    set_log(conn, status.code(), Tier::Error);
                    conn.state = ConnState::Writing;
                }
            }
            completed.push(idx);
        }
    }

    /// Delivers one streaming event from a dynamic worker to the
    /// (single) waiter of its job. `Chunk` events leave the job in
    /// place — the stream is still running — while [`Self::complete_job`]'s
    /// gate has already retired it, waiter and all, for the `End`.
    /// The first event opens the response (chunked header + stream
    /// state); every chunk is framed on the spot; a clean end appends
    /// the `0\r\n\r\n` terminator; an unclean end (worker crashed)
    /// mid-stream drops terminator and connection both — chunked
    /// framing makes the truncation detectable — or, before any bytes
    /// were queued, turns into a plain 500.
    fn deliver_dynamic<Io: ConnIo>(
        &mut self,
        ev: DynEvent,
        waiters: &[usize],
        conns: &mut [Option<Conn<Io>>],
        completed: &mut Vec<usize>,
        now: Instant,
    ) {
        for &idx in waiters {
            let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            // Only the first event finds `wait_start` set: the
            // histogram records time-to-first-byte from the worker,
            // not per-chunk delivery.
            if let Some(start) = conn.wait_start.take() {
                self.stats
                    .worker_wait
                    .record(now.duration_since(start).as_nanos() as u64);
            }
            match &ev {
                DynEvent::Chunk(bytes) => {
                    if !conn.stream_open {
                        queue_plan(conn, plan_dynamic(conn.keep_alive));
                    }
                    push_chunk(conn, bytes.clone());
                }
                DynEvent::End { clean: true } => {
                    if !conn.stream_open {
                        // Zero-chunk body: still a valid (empty)
                        // chunked response.
                        queue_plan(conn, plan_dynamic(conn.keep_alive));
                    }
                    FRAMING.with(|(_, end)| conn.out.push_back(end.clone()));
                    conn.stream_open = false;
                    conn.dynamic = false;
                }
                DynEvent::End { clean: false } => {
                    if conn.stream_open {
                        // Mid-body crash: no terminator, no reuse — the
                        // client sees the truncation, and the slot
                        // closes once the partial tail flushes.
                        conn.stream_open = false;
                        conn.keep_alive = false;
                    } else {
                        let body = Bytes::from(error_body(Status::InternalError));
                        queue_error(conn, Status::InternalError, body);
                        set_log(conn, Status::InternalError.code(), Tier::Error);
                    }
                    conn.dynamic = false;
                }
            }
            conn.state = ConnState::Writing;
            completed.push(idx);
        }
    }

    /// Fires the deadline armed for slot `idx` (the driver has checked
    /// that the wheel key still names this connection): counts the
    /// cause and closes the slot. The one class with a choice is
    /// [`DeadlineKind::DynamicWait`] — the worker stayed silent past
    /// `dynamic_deadline`: before the header a clean 504 is queued and
    /// driven out; mid-stream the response cannot be repaired and the
    /// slot is severed. Either way the waiter purge raises the job's
    /// cancel flag, which makes whoever runs the exchange kill the
    /// wedged worker.
    pub fn expire_conn<Io: ConnIo>(
        &mut self,
        idx: usize,
        conns: &mut [Option<Conn<Io>>],
        port: &mut dyn HelperPort<Io::FileRef>,
        now: Instant,
    ) -> Drive {
        let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
            return Drive::Closed;
        };
        let counter = match conn.deadline {
            // No armed class: a stale key that survived the driver's
            // check by descriptor reuse; leave the connection alone.
            DeadlineKind::None => return Drive::Blocked,
            DeadlineKind::Idle => &self.stats.idle_reaped,
            DeadlineKind::Header => &self.stats.read_timeouts,
            DeadlineKind::WriteStall => &self.stats.write_stall_timeouts,
            DeadlineKind::HelperWait => &self.stats.helper_wait_timeouts,
            DeadlineKind::DynamicWait => &self.stats.dynamic_timeouts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if conn.deadline == DeadlineKind::DynamicWait && !conn.stream_open {
            conn.dynamic = false;
            let body = Bytes::from(error_body(Status::GatewayTimeout));
            queue_error(conn, Status::GatewayTimeout, body);
            set_log(conn, Status::GatewayTimeout.code(), Tier::Error);
            conn.state = ConnState::Writing;
            self.purge_waiter(idx);
            return self.drive_conn(idx, conns, port, now);
        }
        self.close_conn(idx, conns, now);
        Drive::Closed
    }

    /// Verifies the shard's structural invariants against its
    /// connection table and timers — the deterministic sim calls
    /// this after (samples of) every loop turn of the shipped shard;
    /// tests call it constantly.
    /// `token_of` maps a slot index to its timer key.
    ///
    /// Checked: every job in flight has a waiter; every waiter index
    /// refers to a live `Waiting` connection and is parked on exactly
    /// one job; every `Waiting` connection is parked on some job; a
    /// connection carries a deadline class iff its timer key is armed,
    /// and nothing else is armed: the timers are exactly the live
    /// connections with a deadline class.
    pub fn check_invariants<Io: ConnIo>(
        &self,
        conns: &[Option<Conn<Io>>],
        wheel: &TimerWheel,
        token_of: impl Fn(usize) -> u64,
    ) -> Result<(), String> {
        let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (path, job) in &self.jobs {
            if job.waiters.is_empty() {
                return Err(format!(
                    "job for {path} with no waiters (leak: nobody can consume it)"
                ));
            }
            for &idx in &job.waiters {
                if !seen.insert(idx) {
                    return Err(format!("conn {idx} is parked on two jobs"));
                }
                match conns.get(idx).and_then(|c| c.as_ref()) {
                    // A dynamic waiter with chunks still in flight may
                    // be `Writing` (draining queued frames) between
                    // events — `stream_open` marks it as legitimately
                    // parked on the list either way.
                    Some(c) if matches!(c.state, ConnState::Waiting) || c.stream_open => {}
                    Some(_) => {
                        return Err(format!("waiter {idx} on {path} is not in Waiting state"))
                    }
                    None => return Err(format!("waiter {idx} on {path} is an empty slot")),
                }
            }
        }
        let mut classed = 0;
        for (idx, slot) in conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let armed = wheel.is_armed(token_of(idx));
            let class = conn.deadline != DeadlineKind::None;
            classed += usize::from(class);
            if class != armed {
                return Err(format!(
                    "conn {idx}: deadline class {:?} but wheel armed={armed}",
                    conn.deadline
                ));
            }
            if matches!(conn.state, ConnState::Waiting) && !seen.contains(&idx) {
                return Err(format!(
                    "conn {idx} is Waiting but parked on no job (permanently parked)"
                ));
            }
        }
        if wheel.pending() != classed {
            return Err(format!(
                "{} timers armed for {classed} connections with a deadline class",
                wheel.pending()
            ));
        }
        Ok(())
    }
}

/// A finished helper job, rendered into whatever each waiting
/// connection needs queued.
enum Completion<F> {
    /// Small body: a cached (or at least cacheable) in-memory entry.
    Small(Arc<Entry>),
    /// Large body: a shared file handle of `len` bytes for the
    /// sendfile window path, under its [`Entry::head`] — rendered once
    /// for all the job's waiters (range/conditional responses
    /// re-render per waiter).
    Large {
        head: Entry,
        file: F,
        len: u64,
    },
    Fail(Status, Bytes),
}

/// Fills in the staged access-log record's outcome fields (no-op when
/// access logging is off — `log` is `None`).
fn set_log<Io: ConnIo>(conn: &mut Conn<Io>, status: u16, tier: Tier) {
    if let Some(log) = conn.log.as_mut() {
        log.status = status;
        log.tier = tier;
    }
}

thread_local! {
    /// The chunked framing's two constant segments, [`chunked::CRLF`]
    /// and [`chunked::TERMINATOR`], allocated once per thread and
    /// queued as clones: a reference count bump per use, shared by no
    /// other thread (a shard's, or an MT connection's).
    static FRAMING: (Bytes, Bytes) = (
        Bytes::from(chunked::CRLF),
        Bytes::from(chunked::TERMINATOR),
    );
}

/// Frames one worker chunk for the wire — `size\r\n`, the bytes,
/// `\r\n`: three output segments, zero copies of the body. Empty
/// chunks are skipped (a zero-size line would terminate the chunked
/// body early).
fn push_chunk<Io: ConnIo>(conn: &mut Conn<Io>, bytes: Bytes) {
    if bytes.is_empty() {
        return;
    }
    conn.out
        .push_back(Bytes::from(chunked::size_line(bytes.len())));
    conn.out.push_back(bytes);
    FRAMING.with(|(crlf, _)| conn.out.push_back(crlf.clone()));
}

pub(crate) fn queue_error<Io: ConnIo>(conn: &mut Conn<Io>, status: Status, body: Bytes) {
    let hdr = ResponseHeader::build(status, "text/html", body.len() as u64, false, true);
    conn.out.push_back(Bytes::from(hdr.as_bytes().to_vec()));
    if !conn.head_only {
        conn.out.push_back(body);
    }
    conn.keep_alive = false;
    conn.client_close = false;
}
