//! The traced run: a workload's own request mix replayed through the
//! sans-IO protocol core, with a span around every call this harness
//! makes into a layer.
//!
//! The harness *is* the driver here — `ShardCore::drive_conn` over an
//! in-memory [`ConnIo`] and an inline [`HelperPort`] running the real
//! `fsjob::exec_job` (or the real worker exchange) against the
//! workload's generated docroot — so every boundary it crosses is a
//! call it makes or receives, and spans need nothing inside the
//! server. Spans stay in memory and are written out when the run ends.
//! The timed run never touches this module.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flash_net::appworker::{self, WorkerPool};
use flash_net::conn::machine::Conn;
use flash_net::conn::{
    ConnIo, Done, DoneData, Drive, HelperJob, HelperPort, JobKind, ProtoConfig, ShardCore,
    ShardStats,
};
use flash_net::{fsjob, NetConfig};

use crate::workloads::Site;

/// One recorded interval. `parent` indexes the enclosing span (or
/// `u32::MAX` at the root); spans of one request share `request`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder. Disabled, `enter`/`exit` cost one branch —
/// the untraced replay runs the same code to price the tracing itself.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request: self.request,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time per span name: a span's duration minus the part of
/// it its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut child_cover = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_cover[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_cover[i]);
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => out.push((s.name, own, 1)),
        }
    }
    out
}

/// Writes the spans as one JSON array of objects.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

type SharedTracer = Rc<RefCell<Tracer>>;

/// The in-memory transport: hands the core one request's bytes, then
/// `WouldBlock`; drops what the core sends instead of keeping it (a
/// 1 MiB body per request would turn the replay into a `memcpy`
/// benchmark), remembering only whether each response began `200`.
struct ReplayIo {
    tracer: SharedTracer,
    inbox: Vec<u8>,
    read_at: usize,
    response_started: bool,
    bad_status: u64,
}

impl ReplayIo {
    fn note(&mut self, first: &[u8], n: usize) {
        if !self.response_started && n > 0 {
            self.response_started = true;
            if !first.starts_with(b"HTTP/1.1 200 ") {
                self.bad_status += 1;
            }
        }
    }
}

impl ConnIo for ReplayIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.tracer.borrow_mut().enter("io.read");
        let left = &self.inbox[self.read_at..];
        let result = if left.is_empty() {
            Err(io::ErrorKind::WouldBlock.into())
        } else {
            let n = left.len().min(buf.len());
            buf[..n].copy_from_slice(&left[..n]);
            self.read_at += n;
            Ok(n)
        };
        self.tracer.borrow_mut().exit();
        result
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.tracer.borrow_mut().enter("io.writev");
        let n = bufs.iter().map(|b| b.len()).sum();
        self.note(bufs.first().copied().unwrap_or_default(), n);
        self.tracer.borrow_mut().exit();
        Ok(n)
    }

    fn sendfile(&mut self, _file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        self.tracer.borrow_mut().enter("io.sendfile");
        *offset += max;
        self.tracer.borrow_mut().exit();
        Ok(max as usize)
    }
}

struct InlinePort {
    tracer: SharedTracer,
    jobs: Vec<HelperJob>,
}

impl HelperPort for InlinePort {
    fn submit(&mut self, job: HelperJob) {
        self.tracer.borrow_mut().enter("helper.submit");
        self.jobs.push(job);
        self.tracer.borrow_mut().exit();
    }
}

/// One shard core on one in-memory keep-alive connection, with helper
/// jobs executed inline — the `crates/net/tests/conn_machine.rs`
/// set-up, against the real filesystem executor.
pub struct Harness {
    tracer: SharedTracer,
    core: ShardCore,
    conns: Vec<Option<Conn<ReplayIo>>>,
    port: InlinePort,
    pool: Option<WorkerPool>,
    completed: Vec<usize>,
}

fn proto_config(cfg: &NetConfig) -> ProtoConfig {
    ProtoConfig {
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
        access_log: false,
    }
}

impl Harness {
    /// A fresh core configured as a one-shard server with `cfg` is.
    pub fn new(cfg: &NetConfig, traced: bool) -> Harness {
        let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(traced)));
        let io = ReplayIo {
            tracer: Rc::clone(&tracer),
            inbox: Vec::new(),
            read_at: 0,
            response_started: false,
            bad_status: 0,
        };
        Harness {
            core: ShardCore::new(
                0,
                cfg.cache_bytes,
                proto_config(cfg),
                Arc::new(ShardStats::default()),
            ),
            conns: vec![Some(Conn::new(io))],
            port: InlinePort {
                tracer: Rc::clone(&tracer),
                jobs: Vec::new(),
            },
            pool: cfg.dynamic_command.clone().map(WorkerPool::new),
            completed: Vec::new(),
            tracer,
        }
    }

    fn io(&mut self) -> &mut ReplayIo {
        &mut self.conns[0]
            .as_mut()
            .expect("a keep-alive GET of an existing target never closes the connection")
            .io
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Harness) -> R) -> R {
        self.tracer.borrow_mut().enter(name);
        let r = f(self);
        self.tracer.borrow_mut().exit();
        r
    }

    fn complete(&mut self, job: &HelperJob, data: DoneData<Arc<File>>, now: Instant) {
        let done = Done {
            path: job.path.clone(),
            data,
            epoch: job.epoch,
            token: job.token,
        };
        self.span("conn.complete", |h| {
            h.core
                .complete_job(done, &mut h.conns, &mut h.completed, &mut h.port, now)
        });
        self.completed.clear();
    }

    /// Serves one keep-alive `GET path` to completion; returns whether
    /// the core dispatched a helper job for it (a miss, a
    /// revalidation, a sendfile open, a dynamic exchange).
    pub fn serve(&mut self, id: u32, path: &str, now: Instant) -> bool {
        self.tracer.borrow_mut().set_request(id);
        self.span("request", |h| {
            let io = h.io();
            io.inbox.clear();
            io.inbox.extend_from_slice(b"GET ");
            io.inbox.extend_from_slice(path.as_bytes());
            io.inbox
                .extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
            io.read_at = 0;
            io.response_started = false;
            let mut had_job = false;
            loop {
                let drive = h.span("conn.drive", |h| {
                    h.core.drive_conn(0, &mut h.conns, &mut h.port, now)
                });
                if h.port.jobs.is_empty() {
                    if matches!(drive, Drive::Yielded) {
                        continue;
                    }
                    return had_job;
                }
                had_job = true;
                for job in std::mem::take(&mut h.port.jobs) {
                    if job.kind == JobKind::Dynamic {
                        let mut events = Vec::new();
                        h.span("appworker.exchange", |h| {
                            let pool = h.pool.as_ref().expect("dynamic prefix implies a worker");
                            appworker::run_job(pool, &job, &mut |ev| events.push(ev));
                        });
                        for ev in events {
                            h.complete(&job, DoneData::Dynamic(ev), now);
                        }
                    } else {
                        let data = h.span("fsjob.exec", |_| fsjob::exec_job(&job));
                        h.complete(&job, data, now);
                    }
                }
            }
        })
    }

    /// Responses that did not begin `200`.
    pub fn bad_status(&mut self) -> u64 {
        self.io().bad_status
    }

    pub fn into_spans(self) -> Vec<Span> {
        let Harness {
            tracer,
            conns,
            port,
            ..
        } = self;
        drop((conns, port));
        Rc::try_unwrap(tracer)
            .ok()
            .expect("the connection and the port held the other handles")
            .into_inner()
            .spans
    }
}

/// What one replay pass measured.
pub struct Replay {
    pub requests: u64,
    pub elapsed: Duration,
    pub with_jobs: u64,
    pub bad_status: u64,
    pub spans: Vec<Span>,
}

impl Replay {
    pub fn ns_per_request(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.requests.max(1) as f64
    }
}

/// Replays up to `max_requests` of the site's request sequence (or as
/// many as fit in `budget`) through a fresh harness configured as the
/// workload's server is. Keep-alive on one connection throughout, also
/// for `conn_churn`: the core is sans-IO, so connection set-up is not
/// one of its layers.
pub fn replay(
    site: &Site,
    cfg: &NetConfig,
    traced: bool,
    max_requests: usize,
    budget: Duration,
) -> Replay {
    let mut h = Harness::new(cfg, traced);
    let mut with_jobs = 0u64;
    let mut requests = 0u64;
    let started = Instant::now();
    for (i, &t) in site.sequence.iter().cycle().take(max_requests).enumerate() {
        if i % 64 == 63 && started.elapsed() > budget {
            break;
        }
        let path = &site.targets[t as usize].path;
        with_jobs += u64::from(h.serve(i as u32, path, Instant::now()));
        requests += 1;
    }
    let elapsed = started.elapsed();
    let bad_status = h.bad_status();
    Replay {
        requests,
        elapsed,
        with_jobs,
        bad_status,
        spans: h.into_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(spans);
        let outer = selfs.iter().find(|r| r.0 == "outer").unwrap();
        let inner = selfs.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner.1 >= 2_000_000);
        assert!(outer.1 < inner.1, "outer's self time excludes inner");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
