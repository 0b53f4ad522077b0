//! One definition per layer measurement: each [`Layer`] is a closure
//! that performs exactly one operation of one module through its
//! public functions, on inputs taken from the workload's generated
//! site where the layer sees workload data (request bytes, paths,
//! bodies) and on fixed inputs where it does not (timers, histograms).
//!
//! `--trace` times them with [`measure`]; a criterion bench can hand
//! the same closures to `b.iter`.

use std::fs::{self, File};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flash_http::request::{ParseStatus, RangeSpec, RequestParser};
use flash_http::response::{HeaderExtras, ResponseHeader, Status};
use flash_http::{chunked, date};
use flash_net::appworker::{self, WorkerPool};
use flash_net::cache::{ContentCache, Entry, Variant};
use flash_net::conn::plan::{plan_response, RequestCond, Resource};
use flash_net::conn::{DynEvent, HelperJob, JobKind, ShardStats};
use flash_net::event::{new_backend, Event, Interest};
use flash_net::stats::{AccessRecord, Histogram, Tier};
use flash_net::timer::TimerWheel;
use flash_net::{fsjob, sendfile, writev, BackendChoice, NetConfig};

use crate::summary::median;
use crate::trace::Harness;
use crate::workloads::{Site, DYNAMIC_BODY};

pub struct Layer {
    pub name: &'static str,
    /// `ns` for everything but the worker round trip (`us`).
    pub unit: &'static str,
    /// Divides the measured ns per call into the reported unit
    /// (1 for ns, 1000 for µs).
    pub divisor: f64,
    pub op: Box<dyn FnMut()>,
}

/// Median over five batches of the mean time per call, in the layer's
/// unit. Each batch runs for a fifth of `budget`.
pub fn measure(layer: &mut Layer, budget: Duration) -> f64 {
    let op = &mut layer.op;
    for _ in 0..3 {
        op();
    }
    let batch = budget / 5;
    let per_call: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..16 {
                    op();
                }
                calls += 16;
                let spent = start.elapsed();
                if spent >= batch {
                    return spent.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    median(&per_call) / layer.divisor
}

const MSG_TRUNC: i32 = 0x20;
const MSG_DONTWAIT: i32 = 0x40;

unsafe extern "C" {
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

/// Discards up to `len` received bytes without copying them out
/// (`MSG_TRUNC` on a TCP socket), so a send-side measurement is not
/// half receive-side `memcpy`. Returns bytes discarded, 0 if none were
/// waiting.
fn discard(stream: &TcpStream, len: usize) -> usize {
    // SAFETY: with MSG_TRUNC the kernel does not write through the
    // buffer pointer, so a null pointer with any length is allowed;
    // the descriptor is live for the borrow of `stream`.
    let n = unsafe {
        recv(
            stream.as_raw_fd(),
            std::ptr::null_mut(),
            len,
            MSG_TRUNC | MSG_DONTWAIT,
        )
    };
    n.max(0) as usize
}

fn tcp_pair() -> (TcpStream, TcpStream) {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let a = TcpStream::connect(l.local_addr().expect("bound")).expect("connect loopback");
    let (b, _) = l.accept().expect("accept loopback");
    a.set_nodelay(true).expect("nodelay");
    a.set_nonblocking(true).expect("nonblocking");
    (a, b)
}

fn job(kind: JobKind, path: &str, fs_path: PathBuf) -> HelperJob {
    HelperJob {
        path: path.to_string(),
        fs_path,
        kind,
        variant: Variant::Identity,
        inline_max: 256 * 1024,
        epoch: 0,
        token: 1,
        cancel: Arc::new(AtomicBool::new(false)),
    }
}

fn layer(name: &'static str, op: impl FnMut() + 'static) -> Layer {
    Layer {
        name,
        unit: "ns",
        divisor: 1.0,
        op: Box::new(op),
    }
}

const MTIME: Option<i64> = Some(1_700_000_000);

/// Builds every layer closure. `scratch` receives the two files the
/// filesystem and sendfile layers read; `worker_cmd` is the dynamic
/// worker command line.
pub fn all(site: &Site, scratch: &Path, worker_cmd: Vec<String>) -> Vec<Layer> {
    use std::hint::black_box;

    // The workload's own most popular targets, as the layers see them.
    let hot: Vec<(String, Vec<u8>)> = site.targets[site.first_requested..]
        .iter()
        .take(64)
        .map(|t| (t.path.clone(), t.body.clone()))
        .collect();
    let request = site.targets[site.sequence[0] as usize].request.clone();
    let (path0, body0) = hot[0].clone();
    let entry0 = Entry::build_variant(&path0, body0.clone(), MTIME, Variant::Identity, false);
    let body_8k = vec![0x5au8; 8 * 1024];
    let small_path = scratch.join("layer-8k.html");
    let large_path = scratch.join("layer-1m.bin");
    fs::write(&small_path, &body_8k).expect("write layer input");
    fs::write(&large_path, vec![0xa5u8; 1 << 20]).expect("write layer input");

    let mut layers = Vec::new();

    // One parser fed request after request, as a keep-alive connection
    // feeds its own.
    let mut parser = RequestParser::new();
    layers.push(layer("http.parse_ns", move || {
        match parser.feed(black_box(&request)) {
            ParseStatus::Done(r) => {
                black_box(r);
            }
            other => panic!("generated request did not parse: {other:?}"),
        }
    }));

    let (p, len, etag) = (path0.clone(), body0.len() as u64, entry0.etag.clone());
    layers.push(layer("http.header_render_ns", move || {
        let extras = HeaderExtras {
            etag: Some(&etag),
            ..HeaderExtras::default()
        };
        black_box(ResponseHeader::build_full(
            Status::Ok,
            Some((flash_http::mime::content_type(&p), black_box(len))),
            true,
            true,
            MTIME,
            extras,
        ));
    }));

    layers.push(layer("http.date_ns", || {
        black_box(date::now_imf_bytes());
    }));

    let chunk = vec![0x42u8; DYNAMIC_BODY];
    layers.push(layer("http.chunked_encode_ns", move || {
        black_box(chunked::encode(&[black_box(&chunk)]));
    }));

    let mut cache = ContentCache::new(64 * 1024 * 1024);
    for (path, body) in &hot {
        let e = Entry::build_variant(path, body.clone(), MTIME, Variant::Identity, false);
        cache.insert(path.clone(), e);
    }
    let paths: Vec<String> = hot.iter().map(|(p, _)| p.clone()).collect();
    let mut i = 0usize;
    let now = Instant::now();
    layers.push(layer("cache.lookup_hit_ns", move || {
        i = (i + 7) % paths.len();
        black_box(cache.lookup_at(&paths[i], Some(Duration::from_secs(2)), now));
    }));

    // A 1 MiB cache of 8 KiB entries: every insert past the first 120
    // or so evicts.
    let mut small_cache = ContentCache::new(1 << 20);
    let evictee = Entry::build_variant("/e.html", body_8k.clone(), MTIME, Variant::Identity, false);
    let mut k = 0u64;
    layers.push(layer("cache.insert_evict_ns", move || {
        k += 1;
        black_box(small_cache.insert_at(format!("/f{k:05}.html"), Arc::clone(&evictee), now));
    }));

    let (p, b) = (path0.clone(), body_8k.clone());
    layers.push(layer("cache.entry_build_ns", move || {
        // The body clone stands in for the helper's read buffer, which
        // the real path moves in.
        black_box(Entry::build_variant(
            &p,
            b.clone(),
            MTIME,
            Variant::Identity,
            false,
        ));
    }));

    let e = Arc::clone(&entry0);
    let mut out: Vec<Bytes> = Vec::with_capacity(4);
    layers.push(layer("cache.push_header_ns", move || {
        out.clear();
        e.push_header(true, &mut out);
        black_box(&out);
    }));

    let plan_layer = |name: &'static str, cond: RequestCond| {
        let (e, p, stats) = (Arc::clone(&entry0), path0.clone(), ShardStats::default());
        layer(name, move || {
            let resource: Resource<'_, Arc<File>> = Resource::Cached(&e);
            black_box(plan_response(&resource, &p, &cond, true, Tier::Hit, &stats).status);
        })
    };
    layers.push(plan_layer("conn.plan_200_ns", RequestCond::default()));
    layers.push(plan_layer(
        "conn.plan_304_ns",
        RequestCond {
            if_none_match: Some(entry0.etag.clone()),
            ..RequestCond::default()
        },
    ));
    layers.push(plan_layer(
        "conn.plan_206_ns",
        RequestCond {
            range: RangeSpec::parse("bytes=0-99"),
            ..RequestCond::default()
        },
    ));

    // The whole core on one request: parse, route, look up (or load),
    // plan, queue, flush into a counting transport.
    let drive_layer = |name: &'static str, cache_bytes: u64| {
        let mut cfg = NetConfig::new(scratch);
        cfg.cache_bytes = cache_bytes;
        cfg.cache_revalidate_ttl = None;
        let mut h = Harness::new(&cfg, false);
        let expect_job = cache_bytes == 1;
        h.serve(0, "/layer-8k.html", Instant::now());
        layer(name, move || {
            let had_job = h.serve(0, "/layer-8k.html", now);
            assert_eq!(had_job, expect_job, "{name} took the other path");
        })
    };
    layers.push(drive_layer("conn.drive_hit_ns", 64 * 1024 * 1024));
    // A one-byte cache admits nothing: every request is a miss, loaded
    // inline by the real filesystem executor.
    layers.push(drive_layer("conn.drive_miss_ns", 1));

    let far = now + Duration::from_secs(30);
    let mut wheel = TimerWheel::new(Duration::from_millis(100));
    for key in 0..1000u64 {
        wheel.arm(key, far);
    }
    let mut t = 0u64;
    layers.push(layer("timer.arm_cancel_ns", move || {
        t += 1;
        wheel.arm(5000, far + Duration::from_millis(t % 4096));
        wheel.cancel(5000);
    }));

    let mut wheel = TimerWheel::new(Duration::from_millis(100));
    for key in 0..1000u64 {
        wheel.arm(key, far);
    }
    let (mut expired, mut step) = (Vec::new(), 0u64);
    layers.push(layer("timer.expire_idle_ns", move || {
        step += 1;
        wheel.expire(now + Duration::from_micros(step), &mut expired);
        black_box(expired.len());
    }));

    let load = job(JobKind::Load, "/layer-8k.html", small_path.clone());
    layers.push(layer("fsjob.load_8k_ns", move || {
        black_box(fsjob::exec_load(&load).expect("layer input exists"));
    }));
    let stat = job(JobKind::Revalidate, "/layer-8k.html", small_path);
    layers.push(layer("fsjob.stat_ns", move || {
        black_box(fsjob::exec_stat(&stat).expect("layer input exists"));
    }));

    // One descriptor with a byte waiting. The epoll backend is edge
    // triggered, so each wait is preceded by the re-arm the shard loop
    // issues when it leaves an edge unconsumed; on poll the re-arm is
    // a no-op.
    let wait_layer = |name: &'static str, choice: BackendChoice| {
        let mut backend = new_backend(choice);
        let (mut tx, rx) = UnixStream::pair().expect("socketpair");
        tx.write_all(b"x").expect("prime the descriptor");
        backend
            .register(rx.as_raw_fd(), 9, Interest::READ)
            .expect("register");
        let mut events: Vec<Event> = Vec::with_capacity(8);
        layer(name, move || {
            let _keep = (&tx, &rx);
            backend
                .rearm(rx.as_raw_fd(), 9, Interest::READ)
                .expect("rearm");
            let n = backend.wait(&mut events, 0).expect("wait");
            assert_eq!(n, 1, "the primed descriptor must report ready");
        })
    };
    layers.push(wait_layer(
        "event.epoll_wait_ready_ns",
        BackendChoice::Epoll,
    ));
    layers.push(wait_layer("event.poll_wait_ready_ns", BackendChoice::Poll));

    // A response-shaped gathered write (256 B header + 4 KiB body)
    // over TCP loopback, the peer discarding without a copy.
    let (tx, rx) = tcp_pair();
    let (header, body_4k) = (vec![b'h'; 256], vec![b'b'; 4096]);
    layers.push(layer("writev.loopback_4k_ns", move || {
        let n = writev::writev_fd(tx.as_raw_fd(), &[&header, &body_4k]).expect("loopback writev");
        assert_eq!(n, 256 + 4096);
        discard(&rx, n);
    }));

    // One 1 MiB file through sendfile(2) over TCP loopback, the peer
    // discarding without a copy.
    let (tx, rx) = tcp_pair();
    let large = File::open(&large_path).expect("layer input exists");
    layers.push(layer("sendfile.loopback_ns_per_mib", move || {
        let (mut offset, total) = (0u64, 1u64 << 20);
        let mut drained = 0u64;
        while drained < total {
            if offset < total {
                let left = total - offset;
                match sendfile::send_file(tx.as_raw_fd(), &large, &mut offset, left) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("loopback sendfile: {e}"),
                }
            }
            drained += discard(&rx, 1 << 20) as u64;
        }
    }));

    let hist = Histogram::default();
    let mut v = 1u64;
    layers.push(layer("stats.hist_record_ns", move || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(black_box(v >> 40));
    }));

    let record = AccessRecord {
        host: "bench".to_string(),
        method: "GET",
        path: hot[0].0.clone(),
        status: 200,
        bytes: 8192 + 256,
        latency_us: 17,
        tier: Tier::Hit,
    };
    layers.push(layer("stats.access_render_ns", move || {
        black_box(record.render_line(black_box(1_700_000_000)));
    }));

    // One request through a persistent worker: write the request line,
    // read one DATA frame and END.
    let pool = WorkerPool::new(worker_cmd);
    let dynamic = job(JobKind::Dynamic, "dyn#1", PathBuf::from("/app/layer"));
    layers.push(Layer {
        unit: "us",
        divisor: 1000.0,
        ..layer("appworker.roundtrip_us", move || {
            let mut clean = false;
            appworker::run_job(&pool, &dynamic, &mut |ev| {
                if let DynEvent::End { clean: c } = ev {
                    clean = c;
                }
            });
            assert!(clean, "the benchmark worker must answer every request");
        })
    });

    layers
}
