//! Connection-setup-rate smoke test for the accept path: hammers the
//! real AMPED server with short-lived connections — one request each,
//! no keep-alive, so every request pays the full accept cost — under
//! **both accept modes** (one listening socket shared by the shards,
//! and the per-shard `SO_REUSEPORT` listeners), asserts every connection is served, and
//! prints the connections-per-second each mode sustained.
//!
//! Run with: `cargo run --release --example accept_churn`
//! CI runs this on every push; it exits non-zero on any violation.
//! The printed rates are for the job log only; numbers to compare
//! come from `loadbench/` (`conn_churn`).
//!
//! Doubles as the `/.flash/metrics` smoke: the endpoint is scraped
//! before and after the churn, every exposition line must parse,
//! counters must be monotone across the two scrapes, and the final
//! `flash_requests` must agree exactly with the example's own count —
//! which also proves scrapes land in `flash_metrics_requests`, never
//! in `flash_requests`.
//!
//! And as the syscall-diet smoke: from the same scrape it prints the
//! counted syscalls per connection — `(accept_calls + read_calls +
//! writev_calls + ctl_calls) / accepted` — and fails if `ctl_calls`
//! exceeds `accepted`. A one-request connection costs no readiness
//! registration when its request is already waiting at accept and
//! exactly one when it is not (registered, never deregistered: a closed
//! socket is forgotten), so one per connection is an upper bound
//! whichever way each first-read race goes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use flash_repro::net::{AcceptMode, AcceptModeKind, NetConfig, Server};

const CLIENT_THREADS: usize = 8;
const CONNS_PER_THREAD: usize = 250;
const TOTAL_CONNS: usize = CLIENT_THREADS * CONNS_PER_THREAD;

/// The `q`-quantile of a non-empty **sorted** sample, nearest rank.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Hammers the server; returns the wall time and every connection's
/// connect-to-close latency in milliseconds.
fn churn(addr: std::net::SocketAddr) -> (Duration, Vec<f64>) {
    let start = Instant::now();
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(CONNS_PER_THREAD);
                for _ in 0..CONNS_PER_THREAD {
                    let conn_start = Instant::now();
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    s.write_all(b"GET /index.html HTTP/1.0\r\n\r\n")
                        .expect("send");
                    let mut resp = Vec::new();
                    s.read_to_end(&mut resp).expect("read");
                    assert!(
                        resp.starts_with(b"HTTP/1.1 200 OK\r\n"),
                        "short-lived connection not served"
                    );
                    latencies.push(conn_start.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(TOTAL_CONNS);
    for t in threads {
        latencies.extend(t.join().expect("client thread"));
    }
    (start.elapsed(), latencies)
}

/// One scrape of `GET /.flash/metrics`: asserts the response is 200
/// and every exposition line parses, then returns the samples (metric
/// name — with any `{le="..."}` label intact — to value) and the
/// `# TYPE` map.
fn scrape(
    addr: std::net::SocketAddr,
) -> (
    std::collections::HashMap<String, u64>,
    std::collections::HashMap<String, String>,
) {
    let mut s = TcpStream::connect(addr).expect("connect for scrape");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /.flash/metrics HTTP/1.0\r\n\r\n")
        .expect("send scrape");
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read scrape");
    let text = String::from_utf8(resp).expect("metrics must be UTF-8");
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "metrics endpoint refused the scrape: {}",
        text.lines().next().unwrap_or("")
    );
    let body = text.split_once("\r\n\r\n").expect("header terminator").1;
    let mut samples = std::collections::HashMap::new();
    let mut types = std::collections::HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line shape");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type in {line:?}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample line shape");
        assert!(name.starts_with("flash_"), "unprefixed metric: {line:?}");
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        assert!(
            samples.insert(name.to_string(), value).is_none(),
            "duplicate sample {name}"
        );
    }
    assert!(!samples.is_empty(), "empty exposition");
    (samples, types)
}

/// The base (unlabelled, unsuffixed) metric name a sample belongs to,
/// for the `# TYPE` lookup: `flash_x_bucket{le="8"}` → `flash_x`.
fn base_name(sample: &str) -> &str {
    let name = sample.split('{').next().unwrap();
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

fn main() {
    let root = std::env::temp_dir().join(format!("flash-accept-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), b"<html>churn</html>").unwrap();

    for mode in [AcceptMode::Single, AcceptMode::ReusePort] {
        let server = Server::start(
            "127.0.0.1:0",
            NetConfig::builder(&root)
                .event_loops(4)
                .accept_mode(mode)
                .metrics_endpoint(true)
                .build()
                .unwrap(),
        )
        .unwrap();
        let resolved = server.accept_mode();
        let (before, _) = scrape(server.addr());
        let (elapsed, mut latencies_ms) = churn(server.addr());
        let (after, types) = scrape(server.addr());
        // Counters never go backwards between scrapes (gauges may;
        // histogram buckets, sums and counts are cumulative, so they
        // are held to the same bar). Zero buckets are omitted from the
        // exposition, so only keys present in both scrapes compare.
        for (name, &was) in &before {
            let kind = types
                .get(base_name(name))
                .unwrap_or_else(|| panic!("sample {name} has no TYPE"));
            if kind == "gauge" {
                continue;
            }
            if let Some(&now) = after.get(name) {
                assert!(now >= was, "counter {name} went backwards: {was} -> {now}");
            }
        }
        assert_eq!(
            after["flash_requests"], TOTAL_CONNS as u64,
            "scraped flash_requests must agree with the churn count \
             (and scrapes must not inflate it)"
        );
        // The counter increments when the response's last byte is
        // queued, so a scrape's body can only show *earlier* scrapes:
        // the second scrape must see at least the first one.
        assert!(
            after["flash_metrics_requests"] >= 1,
            "scrapes must be counted as metrics requests"
        );
        assert_eq!(
            after["flash_request_latency_nanos_count"], TOTAL_CONNS as u64,
            "every served request must land in the latency histogram"
        );
        let accepted = after["flash_accepted"];
        let ctl_calls = after["flash_ctl_calls"];
        let counted = ["accept", "read", "writev", "ctl"]
            .iter()
            .map(|k| after[&format!("flash_{k}_calls")])
            .sum::<u64>();
        assert!(
            ctl_calls <= accepted,
            "a one-request connection costs at most one registration: \
             {ctl_calls} ctl calls for {accepted} connections"
        );
        let stats = server.stats();
        assert_eq!(
            stats.requests(),
            TOTAL_CONNS as u64,
            "every connection must be served exactly once"
        );
        // + 2: the metrics scrapes bracketing the churn are real
        // connections too.
        assert_eq!(
            stats.accepted(),
            TOTAL_CONNS as u64 + 2,
            "every connection must be accepted"
        );
        if resolved == AcceptModeKind::ReusePort {
            // The kernel hash must have spread the churn across the
            // shards' listeners — a shard that accepted nothing would
            // mean its listener never took traffic.
            for (i, shard) in stats.per_shard().iter().enumerate() {
                let accepted = shard.accepted.load(std::sync::atomic::Ordering::Relaxed);
                assert!(accepted > 0, "shard {i} accepted nothing under reuseport");
            }
        }
        latencies_ms.sort_by(f64::total_cmp);
        println!(
            "accept churn OK [{}]: {} conns in {:?} ({:.0} conns/sec, p50 {:.3} ms, p99 {:.3} ms), \
             backpressure events: {}, counted syscalls/conn: {:.2} (registered: {:.3} of conns)",
            resolved.name(),
            TOTAL_CONNS,
            elapsed,
            TOTAL_CONNS as f64 / elapsed.as_secs_f64(),
            percentile(&latencies_ms, 0.50),
            percentile(&latencies_ms, 0.99),
            stats.accept_backpressure(),
            counted as f64 / accepted as f64,
            ctl_calls as f64 / accepted as f64,
        );
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
}
