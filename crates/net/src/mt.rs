//! The MT variant on real sockets: one blocking thread per connection.
//!
//! The §3.2 architecture for comparison with the AMPED server in
//! [`crate::server`]: threads share the content cache behind a lock, each
//! handles one connection at a time with blocking I/O, and the OS
//! provides all the overlap. Simpler than the event loop — the exact
//! trade the paper discusses — at the cost of per-connection threads and
//! lock traffic.
//!
//! The AMPED server's per-state deadlines are honoured here with the
//! blocking-I/O equivalents: the keep-alive idle and header-read
//! deadlines ([`NetConfig::idle_timeout`],
//! [`NetConfig::header_read_timeout`]) are enforced by capping the
//! socket read timeout and checking a per-phase clock, and the
//! write-progress deadline ([`NetConfig::write_stall_timeout`]) maps
//! onto `SO_SNDTIMEO` — a `send` that cannot move a single byte for
//! that long fails the write, which is exactly the "re-arm on forward
//! progress" semantics (each partial send restarts the timer).
//!
//! The lifecycle semantics match the AMPED server's too (see
//! [`crate::lifecycle`]): [`MtServer::drain`] stops accepting and lets
//! every worker finish its in-flight request (idle keep-alives close
//! within their 200 ms read cadence; a watchdog severs anything
//! slower than the grace), [`MtServer::reload_docroot`] swaps the
//! served root and flushes the shared cache without dropping a
//! connection, and [`MtServer::stop_now`] is the immediate teardown.
//! [`MtServer::start_inherited`] adopts a handed-off listener so even
//! the thread-per-connection comparison server restarts without
//! resetting a queued connection.

use std::cell::Cell;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flash_http::chunked;
use flash_http::request::{ParseStatus, Request};
use flash_http::response::{error_body, ResponseHeader, Status};
use flash_http::Method;

use crate::accept::{prepare_accept_backend, run_accept_loop, AcceptSink};
use crate::appworker::{self, WorkerPool};
use crate::cache::{self, ContentCache, Entry, Lookup, Variant};
use crate::config::NetConfig;
use crate::conn::plan::{plan_response, BodySource, RequestCond, Resource, ResponsePlan};
use crate::conn::{FileData, HelperJob, JobKind, LoadResult, ShardStats};
use crate::fsjob;
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_STOPPING};
use crate::sock;
use crate::stats::{self as metrics, AccessLogWriter, AccessRecord, ServerStats, Tier};

/// The shared content cache plus the reload generation its entries
/// were loaded under — one lock covers both, so a SIGHUP flush and
/// any insert racing it serialize: a worker still holding pre-reload
/// bytes finds `generation` advanced and skips its insert.
struct SharedCache {
    cache: ContentCache,
    generation: u64,
}

/// The MT access log: one writer shared by every worker, each
/// completed response appended under the lock as a single `write_all`
/// — whole lines, never fragments. `gen_seen` is the last rotation
/// generation any worker applied (the first to observe a bump
/// reopens).
struct MtLog {
    writer: Mutex<AccessLogWriter>,
    gen_seen: AtomicU64,
}

/// Handle to a running MT server.
pub struct MtServer {
    addr: SocketAddr,
    /// Accept-path stop flag: flipping it (plus a stop byte) ends the
    /// accept loop; workers are governed by `lifecycle`, not this.
    accept_stop: Arc<AtomicBool>,
    lifecycle: Arc<LifecycleShared>,
    drain_timeout: Duration,
    handoff: Vec<TcpListener>,
    stop_tx: UnixStream,
    accept_thread: Option<JoinHandle<()>>,
    /// One "shard" of counters and histograms — the same registry the
    /// AMPED server exports, so both architectures are compared with
    /// identical instruments.
    stats: ServerStats,
}

impl MtServer {
    /// Binds `addr` and starts the accept loop. The listener comes
    /// from the shared socket-options helper ([`crate::sock`]) — same
    /// nonblocking + `SO_REUSEADDR` setup as the AMPED listeners, one
    /// accept path's options can never drift from the other's.
    pub fn start(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<MtServer> {
        let req_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let listener = sock::bind_listener(req_addr, false)?;
        Self::start_impl(listener, cfg)
    }

    /// Starts on a listening socket inherited from a previous
    /// generation (see [`crate::handoff`]): the kernel socket — and
    /// its accept backlog — survives the generation switch.
    pub fn start_inherited(cfg: NetConfig, listener: TcpListener) -> io::Result<MtServer> {
        sock::adopt_listener(&listener)?;
        Self::start_impl(listener, cfg)
    }

    fn start_impl(listener: TcpListener, cfg: NetConfig) -> io::Result<MtServer> {
        let addr = listener.local_addr()?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_stop2 = Arc::clone(&accept_stop);
        let lifecycle = Arc::new(LifecycleShared::new());
        let lifecycle2 = Arc::clone(&lifecycle);
        // The handoff dup, kept so a next generation can inherit the
        // live kernel socket while this one drains.
        let handoff = vec![listener.try_clone()?];
        // Shutdown wakes the accept loop through this pipe, so the
        // loop blocks in its readiness backend with no timeout instead
        // of polling on an arbitrary interval.
        let (stop_tx, stop_rx) = UnixStream::pair()?;
        let cache = Arc::new(Mutex::new(SharedCache {
            cache: ContentCache::new(cfg.cache_bytes),
            generation: 0,
        }));
        // Listener + stop pipe registered before the thread exists, so
        // a backend that cannot watch them is a start error, not a
        // silently deaf accept thread (same machinery as the AMPED
        // acceptor — the loop itself is shared).
        let backend = prepare_accept_backend(cfg.backend, &listener, &stop_rx)?;
        let drain_timeout = cfg.drain_timeout;
        let shard = Arc::new(ShardStats::default());
        let shard2 = Arc::clone(&shard);
        // One application-worker pool shared by every connection
        // thread — the MT twin of the AMPED helper pool's workers.
        let workers = Arc::new(WorkerPool::new(
            cfg.dynamic_command
                .clone()
                .unwrap_or_else(WorkerPool::default_command),
        ));
        let log = cfg.access_log_path.clone().map(|p| {
            Arc::new(MtLog {
                writer: Mutex::new(AccessLogWriter::open(p)),
                gen_seen: AtomicU64::new(0),
            })
        });
        let accept_thread = std::thread::Builder::new()
            .name("flash-mt-accept".into())
            .spawn(move || {
                let mut spawner = WorkerSpawner {
                    workers: Vec::new(),
                    cache,
                    cfg,
                    lifecycle: lifecycle2,
                    shard: shard2,
                    log,
                    pool: workers,
                };
                run_accept_loop(&listener, backend, &accept_stop2, &mut spawner);
                drop(stop_rx); // keep the read side alive until exit
                for h in spawner.workers {
                    let _ = h.join();
                }
            })?;
        Ok(MtServer {
            addr,
            accept_stop,
            lifecycle,
            drain_timeout,
            handoff,
            stop_tx,
            accept_thread: Some(accept_thread),
            stats: ServerStats::new(vec![shard]),
        })
    }

    /// The server's counters and latency histograms — the same
    /// registry-backed [`ServerStats`] surface the AMPED server
    /// exposes (one shard here: every worker thread writes the same
    /// atomics).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handoff set: a duplicate of the listening socket, for
    /// sending to the next generation (see [`crate::handoff`]).
    pub fn handoff_listeners(&self) -> &[TcpListener] {
        &self.handoff
    }

    /// See [`crate::server::Server::stop`]: the grace the drain-based
    /// `stop()` allows in-flight responses.
    const STOP_GRACE: Duration = Duration::from_secs(1);

    /// Drains gracefully, bounded by [`NetConfig::drain_timeout`]:
    /// accepting stops, workers finish their in-flight requests and
    /// close (idle keep-alives within their read-cadence), and a
    /// watchdog severs anything still running when the grace expires.
    pub fn drain(self) {
        let grace = self.drain_timeout;
        self.drain_for(grace);
    }

    /// [`MtServer::drain`] with an explicit grace bound.
    pub fn drain_for(mut self, grace: Duration) {
        self.lifecycle.begin_drain(Instant::now() + grace);
        // The deadline has no event loop to enforce it here — a
        // watchdog escalates to stop-now when the grace expires, so
        // the worker joins below cannot hang past it. It waits on a
        // channel rather than sleeping the full grace: when the drain
        // completes early the sender drops and the watchdog wakes and
        // exits at once, leaving no thread pinning the lifecycle Arc
        // for the rest of the grace.
        let lifecycle = Arc::clone(&self.lifecycle);
        let (drained_tx, drained_rx) = std::sync::mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if drained_rx.recv_timeout(grace) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                lifecycle.stop_now();
            }
        });
        // Release this generation's claim on the port: the handoff
        // dups close now (a next generation holding inherited dups
        // keeps the kernel socket alive), and the accept thread's
        // listener closes as it exits in the join below — so the
        // address is rebindable while the workers drain.
        self.handoff.clear();
        self.halt_accept_and_join();
        drop(drained_tx);
        let _ = watchdog.join();
    }

    /// Stops through the drain path with a short bounded grace (min of
    /// [`NetConfig::drain_timeout`] and 1 s), so a response already
    /// being written goes out whole. [`MtServer::stop_now`] is the
    /// immediate teardown.
    pub fn stop(self) {
        let grace = self.drain_timeout.min(Self::STOP_GRACE);
        self.drain_for(grace);
    }

    /// Stops immediately: workers notice within their 200 ms read
    /// cadence and return without finishing keep-alive conversations.
    pub fn stop_now(mut self) {
        self.lifecycle.stop_now();
        self.halt_accept_and_join();
    }

    /// Publishes a new document root: each worker swaps its docroot at
    /// the next loop turn and the shared cache is flushed exactly once
    /// (generation-checked under its lock). No connection is dropped.
    pub fn reload_docroot(&self, docroot: impl Into<std::path::PathBuf>) {
        self.lifecycle.publish_reload(docroot.into());
    }

    /// Asks the workers to reopen the access log at its configured
    /// path (the logrotate handshake — see
    /// [`crate::server::Server::rotate_access_logs`]). Applied by the
    /// first worker to observe the bump, within its 200 ms read
    /// cadence. A no-op unless [`NetConfig::access_log_path`] is set.
    pub fn rotate_access_logs(&self) {
        self.lifecycle.rotate_logs();
    }

    fn halt_accept_and_join(&mut self) {
        self.accept_stop.store(true, Ordering::SeqCst);
        let _ = (&self.stop_tx).write_all(b"q");
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// The MT accept sink: one blocking worker thread per connection,
/// finished workers reaped between drains.
struct WorkerSpawner {
    workers: Vec<JoinHandle<()>>,
    cache: Arc<Mutex<SharedCache>>,
    cfg: NetConfig,
    lifecycle: Arc<LifecycleShared>,
    shard: Arc<ShardStats>,
    log: Option<Arc<MtLog>>,
    /// Shared application-worker pool for the dynamic tier.
    pool: Arc<WorkerPool>,
}

impl AcceptSink for WorkerSpawner {
    fn on_conn(&mut self, stream: TcpStream) {
        let cache = Arc::clone(&self.cache);
        let cfg = self.cfg.clone();
        let lifecycle = Arc::clone(&self.lifecycle);
        let shard = Arc::clone(&self.shard);
        let log = self.log.clone();
        let pool = Arc::clone(&self.pool);
        shard.accepted.fetch_add(1, Ordering::Relaxed);
        if let Ok(h) = std::thread::Builder::new()
            .name("flash-mt-conn".into())
            .spawn(move || serve_conn(stream, cache, cfg, lifecycle, shard, log, pool))
        {
            self.workers.push(h);
        }
    }

    fn after_drain(&mut self) {
        self.workers.retain(|h| !h.is_finished());
    }
}

/// Lifetime wrapper around [`serve_conn_inner`]: however the worker
/// exits — clean close, deadline, error — the connection's accept-to-
/// close span lands in the lifetime histogram.
fn serve_conn(
    stream: TcpStream,
    cache: Arc<Mutex<SharedCache>>,
    cfg: NetConfig,
    lifecycle: Arc<LifecycleShared>,
    shard: Arc<ShardStats>,
    log: Option<Arc<MtLog>>,
    pool: Arc<WorkerPool>,
) {
    let opened = Instant::now();
    serve_conn_inner(stream, cache, cfg, lifecycle, &shard, &log, &pool);
    shard
        .hist_lifetime
        .record(metrics::nanos_since(opened, Instant::now()));
}

fn serve_conn_inner(
    mut stream: TcpStream,
    cache: Arc<Mutex<SharedCache>>,
    mut cfg: NetConfig,
    lifecycle: Arc<LifecycleShared>,
    shard: &Arc<ShardStats>,
    log: &Option<Arc<MtLog>>,
    pool: &Arc<WorkerPool>,
) {
    // The blocking read is capped at 200 ms so shutdown and the phase
    // deadlines below are checked on that cadence even when the peer
    // is silent.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // Write-progress deadline: SO_SNDTIMEO makes any single send that
    // cannot move a byte for this long fail; partial progress restarts
    // it — the blocking twin of the AMPED write-stall re-arm.
    let _ = stream.set_write_timeout(cfg.write_stall_timeout);
    let mut parser = flash_http::RequestParser::new();
    let mut buf = [0u8; 4096];
    // The current read phase started here: reset on every served
    // response and on the idle→header transition (first byte of a new
    // request). Idle and header phases carry different deadlines.
    let mut phase_start = Instant::now();
    let mut in_header = parser.buffered() > 0;
    // Reload generation this worker's docroot reflects. The cfg it
    // was spawned with is a clone of the accept thread's original —
    // generation 0's docroot, however many reloads have been
    // published since — so the epoch starts at 0 and the first loop
    // turn applies any pending reload before a request is served.
    // (Starting at `lifecycle.reload_gen()` would skip the swap and
    // serve — and cache — pre-reload content on post-reload
    // connections.)
    let mut epoch = 0u64;
    // Responses served so far: a fresh connection (none yet) gets
    // grace to send its first request during drain; an idle
    // keep-alive closes at once.
    let mut served = 0u64;
    loop {
        match lifecycle.phase() {
            PHASE_STOPPING => return,
            // Draining and idle between requests: close. The blocking
            // read below is capped at 200 ms, so an idle keep-alive
            // reaches this check within that cadence of the drain
            // starting. Buffered pipelined bytes are served first.
            PHASE_DRAINING if served > 0 && parser.buffered() == 0 => {
                shard.drained_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
            _ => {}
        }
        let generation = lifecycle.reload_gen();
        if generation != epoch {
            if let Some(root) = lifecycle.reload_docroot() {
                cfg.docroot = root;
            }
            // First worker to observe the new generation flushes the
            // shared cache; the generation lives under the cache lock,
            // so the flush happens exactly once and no pre-reload
            // insert can land after it (inserts are epoch-checked).
            let mut locked = cache.lock().unwrap_or_else(|e| e.into_inner());
            if locked.generation != generation {
                locked.cache = ContentCache::new(cfg.cache_bytes);
                locked.generation = generation;
            }
            drop(locked);
            epoch = generation;
        }
        // Apply a pending access-log rotation: the first worker to
        // observe the bump wins the swap and reopens the shared
        // writer; the rest see the generation already applied.
        if let Some(l) = log {
            let g = lifecycle.log_gen();
            if l.gen_seen.swap(g, Ordering::AcqRel) != g {
                l.writer.lock().unwrap_or_else(|e| e.into_inner()).reopen();
            }
        }
        // Serve any request already buffered (keep-alive pipelining)
        // before blocking on the socket for more bytes.
        let req = match parser.feed(&[]) {
            ParseStatus::Done(r) => r,
            ParseStatus::Error(_) => {
                let _ = respond_error(&mut stream, Status::BadRequest, false);
                return;
            }
            ParseStatus::Incomplete => {
                let now_in_header = parser.buffered() > 0;
                if now_in_header != in_header {
                    in_header = now_in_header;
                    phase_start = Instant::now();
                }
                let (deadline, expired) = if in_header {
                    (cfg.header_read_timeout, &shard.read_timeouts)
                } else {
                    (cfg.idle_timeout, &shard.idle_reaped)
                };
                if let Some(t) = deadline {
                    if phase_start.elapsed() >= t {
                        // Slow header sender or idle keep-alive.
                        expired.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                let n = match stream.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => n,
                    Err(ref e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => return,
                };
                match parser.feed(&buf[..n]) {
                    ParseStatus::Done(r) => r,
                    ParseStatus::Incomplete => continue,
                    ParseStatus::Error(_) => {
                        let _ = respond_error(&mut stream, Status::BadRequest, false);
                        return;
                    }
                }
            }
        };
        let keep = req.keep_alive();
        let head_only = req.method == Method::Head;
        let req_start = Instant::now();
        // The in-band observability endpoints, same contract as the
        // AMPED shards: counted under `metrics_requests`, never
        // `requests`, so scraping cannot perturb what it reports.
        if cfg.metrics_endpoint && req.path.starts_with("/.flash/") {
            let ok = serve_metrics_mt(&mut stream, shard, &req.path, keep, head_only);
            shard.metrics_requests.fetch_add(1, Ordering::Relaxed);
            if !ok || !keep {
                return;
            }
            served += 1;
            phase_start = Instant::now();
            in_header = parser.buffered() > 0;
            continue;
        }
        if req.method == Method::Post {
            let _ = respond_error(&mut stream, Status::NotImplemented, head_only);
            return;
        }
        // Dynamic-prefix routing, after the `/.flash/` endpoints above
        // (so a prefix covering `/` can never shadow them) and before
        // the static resolve: dynamic responses never touch the cache
        // or the filesystem.
        let dynamic = cfg
            .dynamic_prefix
            .as_deref()
            .is_some_and(|p| req.path.starts_with(p));
        let (ok, status_code, bytes_out, tier) = if dynamic {
            serve_dynamic_mt(&mut stream, pool, &cfg, shard, &req, req_start)
        } else {
            let mut path = req.path.clone();
            if path.ends_with('/') {
                path.push_str("index.html");
            }
            let cond = RequestCond::from_request(&req);
            // Resolve the representation against the shared variant cache
            // (gzip slot first for gzip-accepting clients), loading through
            // the shared mechanical executor on a miss — only this
            // connection stalls on the disk. The resolved resource then
            // goes through the same response plane as the AMPED shards:
            // the planner, not this driver, decides 200/206/304/416.
            let resolved = resolve_resource(&cache, &cfg, shard, epoch, &path, cond.accept_gzip);
            // Each arm writes the header first and records TTFB on its
            // success — with blocking sockets that write IS the first
            // response byte on the wire.
            let ttfb = || {
                shard
                    .hist_ttfb
                    .record(metrics::nanos_since(req_start, Instant::now()));
            };
            match resolved {
                Ok((resource, body_tier)) => {
                    let plan = match &resource {
                        MtResource::Cached(e) => {
                            let res: Resource<'_, Arc<File>> = Resource::Cached(e);
                            plan_response(&res, &path, &cond, keep, body_tier, shard)
                        }
                        MtResource::File {
                            file,
                            len,
                            mtime,
                            variant,
                            has_gzip,
                            etag,
                            header_keep,
                            header_close,
                        } => {
                            let res = Resource::File {
                                file,
                                len: *len,
                                mtime: *mtime,
                                variant: *variant,
                                has_gzip: *has_gzip,
                                etag,
                                header_keep,
                                header_close,
                            };
                            plan_response(&res, &path, &cond, keep, body_tier, shard)
                        }
                    };
                    let status = plan.status.code();
                    let tier = plan.tier;
                    match write_plan(&mut stream, plan, head_only, shard, &ttfb) {
                        Ok(n) => (true, status, n, tier),
                        Err(_) => (false, status, 0, tier),
                    }
                }
                Err(status) => match respond_error(&mut stream, status, head_only) {
                    Ok(n) => {
                        ttfb();
                        (true, status.code(), n, Tier::Error)
                    }
                    Err(_) => (false, status.code(), 0, Tier::Error),
                },
            }
        };
        if ok {
            let latency = metrics::nanos_since(req_start, Instant::now());
            shard.requests.fetch_add(1, Ordering::Relaxed);
            shard.hist_request.record(latency);
            if let Some(l) = log {
                let mut batch = vec![AccessRecord {
                    host: req.host.clone().unwrap_or_default(),
                    method: match req.method {
                        Method::Get => "GET",
                        Method::Head => "HEAD",
                        Method::Post => "POST",
                    },
                    path: req.path.clone(),
                    status: status_code,
                    bytes: bytes_out,
                    latency_us: latency / 1_000,
                    tier,
                }];
                l.writer
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .drain(&mut batch);
            }
        }
        if !ok || !keep {
            return;
        }
        served += 1;
        phase_start = Instant::now();
        in_header = parser.buffered() > 0;
    }
}

/// Serves one dynamic request inline on the connection thread — the
/// blocking twin of the AMPED shard's streaming path. The whole
/// worker exchange (checkout, request line, frame loop) runs right
/// here, each `DATA` frame forwarded to the client as one HTTP chunk
/// the moment it arrives. [`NetConfig::dynamic_deadline`] bounds
/// worker *silence* (re-armed on every frame), matching the shard's
/// `DynamicWait` semantics: a wedged worker yields a `504` while
/// nothing has been written yet, or a severed connection mid-stream —
/// the client sees chunked framing with no terminator, a detectable
/// truncation. Dynamic responses carry no validators and honour no
/// conditional or `Range` headers. Returns the same
/// `(ok, status, bytes, tier)` tuple as the static arms.
fn serve_dynamic_mt(
    stream: &mut TcpStream,
    pool: &WorkerPool,
    cfg: &NetConfig,
    shard: &Arc<ShardStats>,
    req: &Request,
    req_start: Instant,
) -> (bool, u16, u64, Tier) {
    shard.dynamic_requests.fetch_add(1, Ordering::Relaxed);
    let keep = req.keep_alive();
    let head_only = req.method == Method::Head;
    let header = ResponseHeader::build_chunked(Status::Ok, "text/plain", keep, true);
    let record_ttfb = || {
        shard
            .hist_ttfb
            .record(metrics::nanos_since(req_start, Instant::now()));
    };
    if head_only {
        // Headers only: no worker exchange, no chunked framing at all
        // (mirrors the shard tier, where HEAD never opens the stream).
        return match stream.write_all(header.as_bytes()) {
            Ok(()) => {
                record_ttfb();
                (
                    true,
                    Status::Ok.code(),
                    header.as_bytes().len() as u64,
                    Tier::Dynamic,
                )
            }
            Err(_) => (false, Status::Ok.code(), 0, Tier::Dynamic),
        };
    }
    let (worker, retired) = pool.checkout();
    let bump = |retired: u64| {
        if retired > 0 {
            shard.worker_respawns.fetch_add(retired, Ordering::Relaxed);
        }
    };
    let mut worker = match worker {
        Ok(w) => w,
        Err(_) => {
            // Cannot even spawn the worker program.
            bump(retired);
            return match respond_error(stream, Status::InternalError, false) {
                Ok(n) => {
                    record_ttfb();
                    (true, Status::InternalError.code(), n, Tier::Error)
                }
                Err(_) => (false, Status::InternalError.code(), 0, Tier::Error),
            };
        }
    };
    let wait_start = Instant::now();
    if worker
        .sock
        .write_all(format!("GET {}\n", req.path).as_bytes())
        .is_err()
    {
        drop(worker); // kills
        bump(retired + 1);
        return match respond_error(stream, Status::InternalError, false) {
            Ok(n) => {
                record_ttfb();
                (true, Status::InternalError.code(), n, Tier::Error)
            }
            Err(_) => (false, Status::InternalError.code(), 0, Tier::Error),
        };
    }
    // Silence deadline: `armed` resets on every worker event, and the
    // frame reader's poll tick trips the stop predicate when the gap
    // since the last event exceeds `dynamic_deadline`.
    let armed = Cell::new(Instant::now());
    let stop = || {
        cfg.dynamic_deadline
            .is_some_and(|d| armed.get().elapsed() >= d)
    };
    let mut reader = appworker::FrameReader::new(&worker.sock, &stop);
    let mut n = 0u64;
    let mut first_event = true;
    let mut header_written = false;
    let mut client_dead = false;
    // Loop exits (EOF, deadline, oversized line, framing corruption,
    // or a hard socket error) are classified below the loop.
    while let Ok(Some(line)) = reader.read_line() {
        armed.set(Instant::now());
        if first_event {
            first_event = false;
            shard
                .hist_worker_wait
                .record(metrics::nanos_since(wait_start, Instant::now()));
        }
        if line == b"END" {
            // Clean end: the worker survives. The client write may
            // still fail — that closes the connection, not the worker.
            drop(reader);
            pool.checkin(worker);
            bump(retired);
            let mut ok = true;
            if !header_written {
                ok = stream.write_all(header.as_bytes()).is_ok();
                if ok {
                    record_ttfb();
                    n += header.as_bytes().len() as u64;
                }
            }
            let ok = ok && stream.write_all(chunked::TERMINATOR).is_ok();
            if ok {
                n += chunked::TERMINATOR.len() as u64;
            }
            return (ok, Status::Ok.code(), n, Tier::Dynamic);
        }
        let Some(len) = appworker::parse_data_header(&line) else {
            break; // framing corruption — a crash
        };
        let body = match reader.read_exact(len) {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => break,
        };
        armed.set(Instant::now());
        if !header_written {
            header_written = true;
            if stream.write_all(header.as_bytes()).is_err() {
                client_dead = true;
                break;
            }
            record_ttfb();
            n += header.as_bytes().len() as u64;
        }
        if body.is_empty() {
            // A zero-length chunk would terminate the chunked body.
            continue;
        }
        let size = chunked::size_line(body.len());
        if stream.write_all(&size).is_err()
            || stream.write_all(&body).is_err()
            || stream.write_all(chunked::CRLF).is_err()
        {
            client_dead = true;
            break;
        }
        n += (size.len() + body.len() + chunked::CRLF.len()) as u64;
    }
    // The exchange broke: worker crash/garbage, silence deadline, or
    // the client vanished mid-stream. All paths kill the worker — a
    // kill is the only way to resync the framing (and for a vanished
    // client, the shard path cancels the exchange the same way).
    let timed_out = !client_dead && reader.stopped();
    drop(reader);
    drop(worker); // kills
    bump(retired + 1);
    if timed_out {
        shard.dynamic_timeouts.fetch_add(1, Ordering::Relaxed);
        if !header_written {
            // Wedged before the first byte: the 504 the shard tier
            // produces when its DynamicWait deadline fires.
            return match respond_error(stream, Status::GatewayTimeout, false) {
                Ok(k) => {
                    record_ttfb();
                    (true, Status::GatewayTimeout.code(), k, Tier::Error)
                }
                Err(_) => (false, Status::GatewayTimeout.code(), 0, Tier::Error),
            };
        }
    } else if !client_dead && !header_written {
        // Crashed before producing anything: a plain 500.
        return match respond_error(stream, Status::InternalError, false) {
            Ok(k) => {
                record_ttfb();
                (true, Status::InternalError.code(), k, Tier::Error)
            }
            Err(_) => (false, Status::InternalError.code(), 0, Tier::Error),
        };
    }
    // Mid-stream failure: sever. The unterminated chunked body is the
    // client's truncation signal.
    (false, Status::Ok.code(), n, Tier::Dynamic)
}

/// Serves `GET /.flash/metrics` (Prometheus text) or `/.flash/stats`
/// (JSON) from the MT worker's own thread; any other `/.flash/` path
/// is a 404. Returns whether the write succeeded.
fn serve_metrics_mt(
    stream: &mut TcpStream,
    shard: &Arc<ShardStats>,
    path: &str,
    keep: bool,
    head_only: bool,
) -> bool {
    let one = std::slice::from_ref(shard);
    let payload = match path {
        "/.flash/metrics" => Some(("text/plain; version=0.0.4", metrics::render_prometheus(one))),
        "/.flash/stats" => Some(("application/json", metrics::render_json(one))),
        _ => None,
    };
    match payload {
        Some((ctype, body)) => {
            let hdr = ResponseHeader::build(Status::Ok, ctype, body.len() as u64, keep, true);
            stream.write_all(hdr.as_bytes()).is_ok()
                && (head_only || stream.write_all(body.as_bytes()).is_ok())
        }
        None => respond_error(stream, Status::NotFound, head_only).is_ok(),
    }
}

/// A resolved representation on the MT path: a shared-cache entry, or
/// an open descriptor (with its plain-200 headers pre-rendered) bound
/// for the blocking `sendfile` window loop.
enum MtResource {
    Cached(Arc<Entry>),
    File {
        file: Arc<File>,
        len: u64,
        mtime: Option<i64>,
        variant: Variant,
        has_gzip: bool,
        etag: String,
        header_keep: Bytes,
        header_close: Bytes,
    },
}

/// A synthetic [`HelperJob`] for inline execution: the MT path has no
/// helper pool, so the job exists only to carry the variant and the
/// core's tier threshold to the shared executor.
fn inline_job(cfg: &NetConfig, key: &str, kind: JobKind, variant: Variant) -> HelperJob {
    let url_path = cache::split_variant_key(key).0;
    HelperJob {
        path: key.to_string(),
        fs_path: cfg.docroot.join(url_path.trim_start_matches('/')),
        kind,
        variant,
        inline_max: cfg.sendfile_threshold_bytes,
        epoch: 0,
        token: 0,
        cancel: Arc::new(AtomicBool::new(false)),
    }
}

/// Consults one slot of the shared variant cache, revalidating a
/// stale hit inline (blocking is this server's whole idiom): a
/// matching re-stat restarts the TTL clock, a mismatch evicts — the
/// same policy the AMPED shards apply through their helper pool.
fn check_slot(
    cache: &Arc<Mutex<SharedCache>>,
    cfg: &NetConfig,
    shard: &Arc<ShardStats>,
    key: &str,
    variant: Variant,
) -> Option<Arc<Entry>> {
    // The lookup's lock guard must drop before the stale arm runs: it
    // re-locks to refresh/invalidate.
    let looked_up = cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .cache
        .lookup(key, cfg.cache_revalidate_ttl);
    match looked_up {
        Lookup::Hit(e) => Some(e),
        Lookup::Stale(e) => {
            match fsjob::exec_stat(&inline_job(cfg, key, JobKind::Revalidate, variant)) {
                Ok((len, mtime)) if e.mtime == mtime && e.body.len() as u64 == len => {
                    cache
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .cache
                        .refresh(key);
                    shard.revalidations.fetch_add(1, Ordering::Relaxed);
                    Some(e)
                }
                _ => {
                    cache
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .cache
                        .invalidate(key);
                    shard.stale_evicted.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        }
        Lookup::Miss => None,
    }
}

/// Resolves the representation to serve for `path`: the gzip cache
/// slot first for gzip-accepting clients (with the identity slot
/// answering when it knows no `.gz` sibling exists), then a blocking
/// load through the shared executor — which negotiates the variant,
/// applies the tier threshold, and reports what actually loaded.
/// Mirrors the AMPED shard's routing exactly, minus the parking.
fn resolve_resource(
    cache: &Arc<Mutex<SharedCache>>,
    cfg: &NetConfig,
    shard: &Arc<ShardStats>,
    epoch: u64,
    path: &str,
    accept_gzip: bool,
) -> Result<(MtResource, Tier), Status> {
    let (key, want) = if accept_gzip {
        let gz_key = cache::variant_key(path, Variant::Gzip);
        if let Some(e) = check_slot(cache, cfg, shard, &gz_key, Variant::Gzip) {
            shard.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((MtResource::Cached(e), Tier::Hit));
        }
        // An identity hit that *knows* no sibling exists serves as-is;
        // anything else goes through a gzip-preference load.
        if let Lookup::Hit(e) = cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cache
            .lookup(path, cfg.cache_revalidate_ttl)
        {
            if !e.has_gzip {
                shard.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((MtResource::Cached(e), Tier::Hit));
            }
        }
        (gz_key, Variant::Gzip)
    } else {
        if let Some(e) = check_slot(cache, cfg, shard, path, Variant::Identity) {
            shard.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((MtResource::Cached(e), Tier::Hit));
        }
        (path.to_string(), Variant::Identity)
    };
    match fsjob::exec_load(&inline_job(cfg, &key, JobKind::Load, want)) {
        Ok(LoadResult {
            data: FileData::Bytes { body, mtime },
            variant,
            has_gzip,
            ..
        }) => {
            let e = Entry::build_variant(path, body, mtime, variant, has_gzip);
            // Epoch check under the lock: bytes read against a
            // pre-reload docroot must not land in the post-reload
            // cache. This connection is still served — its request
            // predates the swap. The insert key follows the variant
            // that actually loaded (a gzip preference may have fallen
            // back to identity).
            let mut locked = cache.lock().unwrap_or_else(|e| e.into_inner());
            if locked.generation == epoch {
                locked
                    .cache
                    .insert(cache::variant_key(path, variant), Arc::clone(&e));
            }
            drop(locked);
            Ok((MtResource::Cached(e), Tier::Miss))
        }
        Ok(LoadResult {
            data: FileData::Fd { file, len, mtime },
            variant,
            has_gzip,
            ..
        }) => {
            let (header_keep, header_close, etag) =
                cache::header_pair(path, len, mtime, variant, has_gzip);
            Ok((
                MtResource::File {
                    file,
                    len,
                    mtime,
                    variant,
                    has_gzip,
                    etag,
                    header_keep,
                    header_close,
                },
                Tier::Sendfile,
            ))
        }
        Err(err) => Err(match err.kind() {
            io::ErrorKind::NotFound => Status::NotFound,
            io::ErrorKind::PermissionDenied => Status::Forbidden,
            _ => Status::InternalError,
        }),
    }
}

/// Transmits one planned response on the blocking socket: header
/// segments first (TTFB lands on their success), then the body window
/// — in-memory bytes as a straight write, a file window through
/// `sendfile(2)` under `SO_SNDTIMEO` (a send that cannot move a byte
/// for the write-stall timeout fails the response, the blocking twin
/// of the AMPED write-stall deadline). Returns the bytes put on the
/// wire for the access log.
fn write_plan(
    stream: &mut TcpStream,
    plan: ResponsePlan<Arc<File>>,
    head_only: bool,
    shard: &Arc<ShardStats>,
    ttfb: &impl Fn(),
) -> io::Result<u64> {
    let mut n = 0u64;
    for seg in &plan.header {
        stream.write_all(seg)?;
        n += seg.len() as u64;
    }
    ttfb();
    if head_only {
        return Ok(n);
    }
    match plan.body {
        BodySource::Bytes(b) => {
            stream.write_all(&b)?;
            n += b.len() as u64;
        }
        BodySource::File {
            file,
            mut offset,
            len,
        } => {
            let mut remaining = len;
            while remaining > 0 {
                match crate::sendfile::send_file(stream.as_raw_fd(), &file, &mut offset, remaining)
                {
                    // The file shrank after fstat: the promised
                    // Content-Length cannot be honoured; drop the
                    // connection, as the AMPED tier does.
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "file shrank mid-send",
                        ))
                    }
                    Ok(k) => {
                        shard.sendfile_calls.fetch_add(1, Ordering::Relaxed);
                        shard.bytes_sendfile.fetch_add(k as u64, Ordering::Relaxed);
                        remaining -= k as u64;
                        n += k as u64;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        BodySource::Empty => {}
        // Streaming bodies never reach write_plan in this driver: the
        // dynamic tier runs its own inline exchange (serve_dynamic_mt)
        // and writes chunked frames directly.
        BodySource::Stream => {}
    }
    Ok(n)
}

/// Writes an error response; returns the bytes put on the wire (for
/// the access log).
fn respond_error(stream: &mut TcpStream, status: Status, head_only: bool) -> io::Result<u64> {
    let body = Bytes::from(error_body(status));
    let hdr = ResponseHeader::build(status, "text/html", body.len() as u64, false, true);
    stream.write_all(hdr.as_bytes())?;
    let mut n = hdr.as_bytes().len() as u64;
    if !head_only {
        stream.write_all(&body)?;
        n += body.len() as u64;
    }
    Ok(n)
}
