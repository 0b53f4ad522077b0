//! The AMPED shards and the MT server are the same server: one request
//! script replayed through `handle::start(ServerKind::Amped, …)` and
//! `handle::start(ServerKind::Mt, …)` must leave `Date`-scrubbed
//! byte-identical wire streams, the same close-or-keep decision after
//! every response, and identical counter deltas. Both are drivers of
//! the one protocol core in `flash_net::conn`; a difference here means
//! a driver grew protocol logic of its own.
//!
//! The script is sequential — one connection at a time, the next
//! request sent on the same socket only if the server kept it open — so
//! the private cache of the one AMPED shard and MT's shared cache see
//! the same history and the counters can be compared exactly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use flash_http::chunked::ChunkedDecoder;
use flash_net::handle::{self, ServeHandle};
use flash_net::stats::ServerStats;
use flash_net::{BackendChoice, NetConfig, ServerKind};

const INDEX: &[u8] = b"<html>hello flash</html>\n";
const PAGE: &[u8] = b"<html>a page with a compressed sibling</html>\n";
const PAGE_GZ: &[u8] = b"\x1f\x8b\x08 the sibling's bytes, served verbatim";
const PLAIN: &[u8] = b"<html>no sibling here</html>\n";

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-diff-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), INDEX).unwrap();
    std::fs::write(dir.join("page.html"), PAGE).unwrap();
    std::fs::write(dir.join("page.html.gz"), PAGE_GZ).unwrap();
    std::fs::write(dir.join("plain.html"), PLAIN).unwrap();
    dir
}

/// One step of the script: the bytes to send, and how many responses
/// they ask for (a pipelined pair is one write, two responses).
struct Step {
    send: String,
    responses: usize,
}

fn step(send: impl Into<String>) -> Step {
    Step {
        send: send.into(),
        responses: 1,
    }
}

/// The script. `etag` is `/index.html`'s validator, learned from the
/// first server's first response (both servers render the same one —
/// the streams are compared).
fn script(etag: &str) -> Vec<Step> {
    let get =
        |path: &str, extra: &str| step(format!("GET {path} HTTP/1.1\r\nHost: diff\r\n{extra}\r\n"));
    vec![
        // A pipelined pair in one segment.
        Step {
            send: "GET /index.html HTTP/1.1\r\nHost: diff\r\n\r\n".repeat(2),
            responses: 2,
        },
        // An error to a keep-alive request, then a GET: on the same
        // socket only if the server kept it.
        get("/missing.html", ""),
        get("/index.html", ""),
        step("POST /index.html HTTP/1.1\r\nHost: diff\r\n\r\n"),
        get("/index.html", ""),
        step("NOT A REQUEST LINE\r\n\r\n"),
        step("HEAD /index.html HTTP/1.1\r\nHost: diff\r\n\r\n"),
        get("/index.html", &format!("If-None-Match: {etag}\r\n")),
        get("/index.html", "Range: bytes=6-10\r\n"),
        get("/index.html", "Range: bytes=9000-\r\n"),
        // Negotiation: a sibling to prefer, and none to find.
        get("/page.html", "Accept-Encoding: gzip\r\n"),
        get("/page.html", ""),
        get("/plain.html", "Accept-Encoding: gzip\r\n"),
        // The reserved namespace, endpoint on, a path it does not serve.
        get("/.flash/nope", ""),
        get("/app/hello", ""),
        // HTTP/1.0: answered and closed.
        step("GET /index.html HTTP/1.0\r\n\r\n"),
    ]
}

/// Reads exactly one response off `s` — by `Content-Length`, chunked
/// framing, or the no-body rules (`HEAD`, `304`) — and returns its
/// bytes with the `Date` value blanked.
fn read_one(s: &mut TcpStream, head: bool) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).expect("response header");
        raw.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .map(|v| v.trim().to_owned())
    };
    if let Some(at) = text.find("Date: ") {
        let end = at + text[at..].find("\r\n").unwrap();
        raw[at + 6..end].fill(b'_');
    }
    if head || text.starts_with("HTTP/1.1 304") {
        return raw;
    }
    if field("Transfer-Encoding: ").as_deref() == Some("chunked") {
        let mut dec = ChunkedDecoder::new();
        while !dec.is_done() {
            s.read_exact(&mut byte).expect("chunked body");
            dec.feed(&byte).expect("chunked framing");
            raw.push(byte[0]);
        }
        return raw;
    }
    let len: usize = field("Content-Length: ")
        .expect("a sized response")
        .parse()
        .unwrap();
    let at = raw.len();
    raw.resize(at + len, 0);
    s.read_exact(&mut raw[at..]).expect("response body");
    raw
}

/// Whether the server closed the connection after the response just
/// read: end of stream, as opposed to 100 ms of silence. Both servers
/// close in the call that finishes the response, so the `FIN` is
/// microseconds behind the last byte.
fn closed_after(s: &mut TcpStream) -> bool {
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut byte = [0u8; 1];
    let closed = match s.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => panic!("bytes after a complete response"),
        // Silence is "kept"; a reset is as closed as an end of stream.
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    };
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    closed
}

/// Replays `steps` against `addr`; returns the transcript, an entry a
/// step: the scrubbed bytes of its responses followed by the server's
/// decision.
fn replay(addr: SocketAddr, steps: &[Step]) -> Vec<String> {
    let mut transcript = Vec::new();
    let mut conn: Option<TcpStream> = None;
    for step in steps {
        let mut wire = Vec::new();
        let s = conn.get_or_insert_with(|| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        });
        s.write_all(step.send.as_bytes()).unwrap();
        for _ in 0..step.responses {
            wire.extend(read_one(s, step.send.starts_with("HEAD")));
        }
        if closed_after(s) {
            wire.extend_from_slice(b"\n<closed>");
            conn = None;
        } else {
            wire.extend_from_slice(b"\n<kept>");
        }
        transcript.push(String::from_utf8_lossy(&wire).into_owned());
    }
    transcript
}

/// The counters the script moves, by name.
fn counters(stats: &ServerStats) -> Vec<(&'static str, u64)> {
    vec![
        ("requests", stats.requests()),
        ("metrics_requests", stats.metrics_requests()),
        ("not_modified", stats.not_modified()),
        ("range_requests", stats.range_requests()),
        ("range_unsatisfiable", stats.range_unsatisfiable()),
        ("cache_hits", stats.cache_hits()),
        ("dynamic_requests", stats.dynamic_requests()),
        ("helper_jobs", stats.helper_jobs()),
    ]
}

fn read_calls(stats: &ServerStats) -> u64 {
    stats
        .per_shard()
        .iter()
        .map(|s| s.read_calls.load(Ordering::Relaxed))
        .sum()
}

fn run(tag: &str, backend: BackendChoice) {
    let root = docroot(tag);
    let start = |kind| -> Box<dyn ServeHandle> {
        let cfg = NetConfig::builder(&root)
            .backend(backend)
            .event_loops(1)
            .metrics_endpoint(true)
            .dynamic_prefix("/app/")
            // No entry goes stale mid-script, however slow the box.
            .cache_revalidate_ttl(None)
            .build()
            .unwrap();
        handle::start(kind, "127.0.0.1:0", cfg).unwrap()
    };
    let amped = start(ServerKind::Amped);
    let mt = start(ServerKind::Mt);

    // Learn the validator from a server that is not under test yet;
    // this request is part of neither transcript but of both counts.
    let etag = |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /index.html HTTP/1.0\r\n\r\n").unwrap();
        let resp = read_one(&mut s, false);
        String::from_utf8_lossy(&resp)
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("a 200 carries its validator")
            .trim()
            .to_owned()
    };
    let tag_amped = etag(amped.local_addr());
    assert_eq!(tag_amped, etag(mt.local_addr()));

    let steps = script(&tag_amped);
    let wire_amped = replay(amped.local_addr(), &steps);
    let wire_mt = replay(mt.local_addr(), &steps);
    let differing: Vec<String> = (0..steps.len())
        .filter(|&i| wire_amped[i] != wire_mt[i])
        .map(|i| {
            format!(
                "to {:?}\nAMPED: {:?}\n   MT: {:?}",
                steps[i].send, wire_amped[i], wire_mt[i]
            )
        })
        .collect();
    assert!(
        differing.is_empty(),
        "the drivers answered the script differently:\n{}",
        differing.join("\n")
    );

    // The transcript is what the script means it to be, not merely the
    // same on both sides.
    let text = wire_mt.concat();
    for status in ["200 OK", "404", "501", "400", "304", "206", "416"] {
        assert!(text.contains(&format!("HTTP/1.1 {status}")), "no {status}");
    }
    assert_eq!(text.matches("<closed>").count(), 5, "{text}");
    assert!(text.contains("Content-Encoding: gzip"));
    assert!(text.contains("Transfer-Encoding: chunked"));

    assert_eq!(
        counters(amped.stats()),
        counters(mt.stats()),
        "AMPED (left) and MT (right) counted the script differently"
    );
    let (a, m) = (amped.stats(), mt.stats());
    // 17 responses to the script and one to the validator probe, all
    // but the `/.flash/` one counted as requests.
    assert_eq!(m.requests(), 17);
    assert_eq!(m.metrics_requests(), 1);
    // Both transports are read through the core, which counts.
    assert!(read_calls(a) >= 16 && read_calls(m) >= 16);
    // index, missing, page (gzip preference), page (identity), plain,
    // the dynamic exchange: each dispatched once.
    assert_eq!(m.helper_jobs(), 6);
    // A thread per connection runs every job itself; a shard runs the
    // ones the residency test can answer and hands off the rest.
    assert_eq!(m.inline_jobs(), m.helper_jobs());
    assert!(a.inline_jobs() <= a.helper_jobs());

    amped.stop();
    mt.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn amped_and_mt_answer_one_script_identically_epoll() {
    run("epoll", BackendChoice::Epoll);
}

#[test]
fn amped_and_mt_answer_one_script_identically_poll() {
    run("poll", BackendChoice::Poll);
}
