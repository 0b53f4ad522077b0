//! End-to-end tests of the dynamic-content tier over loopback: worker
//! exchanges streamed back as `Transfer-Encoding: chunked`, worker
//! crashes mid-body, wedged workers hitting the dynamic deadline,
//! workers that talk behind their `END`, cancelled exchanges losing
//! their worker at once, and the `/.flash/*` endpoints keeping
//! precedence over a dynamic prefix. (What the process is left holding
//! afterwards — children, threads, descriptors — is counted in
//! `worker_leak.rs`, a process of its own.)
//!
//! Like `loopback.rs`, the suite runs twice — once per readiness
//! backend — and every scenario runs against both drivers through the
//! shared [`ServeHandle`] surface, so the battery itself is written
//! once with no per-server match arms.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use flash_http::chunked::ChunkedDecoder;
use flash_net::handle::{self, ServeHandle};
use flash_net::{BackendChoice, NetConfig, NetConfigBuilder, ServerKind};

/// Creates a docroot (the dynamic tier never reads it, but the static
/// tier behind the same listener does); returns its path.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-dyn-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), b"<html>static hello</html>\n").unwrap();
    dir
}

/// Base builder for a scenario: docroot + pinned backend + one shard
/// (deterministic stats) + the `/app/` dynamic prefix. Scenarios chain
/// their own knobs before `build()` — the validating construction path
/// is the one every test exercises.
fn builder(root: &std::path::Path, backend: BackendChoice) -> NetConfigBuilder {
    NetConfig::builder(root)
        .backend(backend)
        .event_loops(1)
        .dynamic_prefix("/app/")
}

fn start(kind: ServerKind, cfg: NetConfig) -> Box<dyn ServeHandle> {
    handle::start(kind, "127.0.0.1:0", cfg).unwrap()
}

/// Sends one request and reads until EOF; returns the raw response.
fn get(addr: std::net::SocketAddr, req: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(req.as_bytes()).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

/// Reads one response header off `s` (up to and including the blank
/// line); returns it as text.
fn read_header(s: &mut TcpStream) -> String {
    let mut hdr = Vec::new();
    let mut byte = [0u8; 1];
    while !hdr.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).unwrap();
        hdr.push(byte[0]);
    }
    String::from_utf8_lossy(&hdr).into_owned()
}

/// Drains one complete chunked body off `s` one byte at a time — the
/// harshest possible framing split, every chunk-size line and CRLF
/// crossing a read boundary — and returns the decoded payload.
fn read_chunked_body(s: &mut TcpStream) -> Vec<u8> {
    let mut dec = ChunkedDecoder::new();
    let mut byte = [0u8; 1];
    while !dec.is_done() {
        s.read_exact(&mut byte).unwrap();
        dec.feed(&byte).unwrap();
    }
    dec.body().to_vec()
}

/// Spins until `cond` holds. The respawn counter is bumped by the
/// helper that kills/reaps the worker, which runs concurrently with
/// the client-visible close — the count is guaranteed, its timing is
/// not.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Writes a worker script to a unique file under `root`; returns the
/// argv that runs it.
fn script(root: &std::path::Path, name: &str, body: &str) -> Vec<String> {
    let path = root.join(name);
    std::fs::write(&path, body).unwrap();
    vec!["/bin/sh".into(), path.to_str().unwrap().into()]
}

/// A dynamic GET streams a chunked body byte-exact, carries none of
/// the static tier's validators, and leaves the keep-alive connection
/// serviceable for both another dynamic and a static request.
fn run_dynamic_streams_chunked(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let server = start(kind, builder(&root, backend).build().unwrap());
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /app/test HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(hdr.contains("Transfer-Encoding: chunked"), "{hdr}");
    assert!(hdr.contains("Connection: keep-alive"), "{hdr}");
    assert!(!hdr.contains("Content-Length"), "chunked, not sized: {hdr}");
    assert!(!hdr.contains("ETag"), "dynamic has no validator: {hdr}");
    assert!(!hdr.contains("Last-Modified"), "{hdr}");
    let body = read_chunked_body(&mut s);
    assert_eq!(body, b"hello from worker: /app/test");

    // The terminator really ended the body: a second dynamic request
    // on the same connection parses cleanly...
    s.write_all(b"GET /app/two HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"hello from worker: /app/two");

    // ...and so does a static one — both tiers share the connection.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(hdr.contains("Content-Length: 26"), "{hdr}");
    drop(s);

    let stats = server.stats();
    assert_eq!(stats.dynamic_requests(), 2);
    assert_eq!(stats.worker_respawns(), 0, "clean exchanges only");
    assert_eq!(stats.dynamic_timeouts(), 0);
    assert_eq!(
        stats.worker_wait().count(),
        2,
        "every dynamic exchange lands in the worker-wait histogram"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// HEAD on a dynamic path: the chunked header plan, zero body bytes,
/// and no worker consulted.
fn run_dynamic_head(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let server = start(kind, builder(&root, backend).build().unwrap());
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"HEAD /app/x HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(hdr.contains("Transfer-Encoding: chunked"), "{hdr}");
    // No body followed the header: the next response arrives in order.
    s.write_all(b"GET /app/y HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"hello from worker: /app/y");
    drop(s);
    assert_eq!(server.stats().dynamic_requests(), 2);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The conditional/range surface does not apply to dynamic responses:
/// `If-None-Match: *`, a current-looking `If-Modified-Since`, and a
/// `Range` all ride along ignored — the full 200 chunked body streams.
fn run_dynamic_skips_conditionals(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let server = start(kind, builder(&root, backend).build().unwrap());
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"GET /app/cond HTTP/1.1\r\nHost: t\r\nIf-None-Match: *\r\n\
          If-Modified-Since: Fri, 01 Jan 2100 00:00:00 GMT\r\n\
          Range: bytes=0-3\r\n\r\n",
    )
    .unwrap();
    let hdr = read_header(&mut s);
    assert!(
        hdr.starts_with("HTTP/1.1 200 OK"),
        "dynamic must bypass 304/206: {hdr}"
    );
    assert!(!hdr.contains("Content-Range"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"hello from worker: /app/cond");
    drop(s);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A worker that dies mid-body: the client sees the header and the
/// chunks that made it out, then a hard close with NO terminating
/// `0\r\n\r\n` — a truncated chunked body is detectable, a silently
/// complete-looking one would not be. The pool retires the corpse.
fn run_worker_crash_mid_body(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let argv = script(
        &root,
        "crash.sh",
        "read -r m p\nprintf 'DATA 5\\nhello'\nexit 1\n",
    );
    let server = start(
        kind,
        builder(&root, backend)
            .dynamic_command(argv)
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let resp = get(addr, "GET /app/boom HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    let body_start = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let mut dec = ChunkedDecoder::new();
    dec.feed(&resp[body_start..]).unwrap();
    assert!(
        !dec.is_done(),
        "a crashed worker must NOT produce the chunked terminator"
    );
    assert_eq!(dec.body(), b"hello", "the emitted chunk still arrives");
    wait_for("corpse retired", || server.stats().worker_respawns() >= 1);
    assert_eq!(server.stats().dynamic_timeouts(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A wedged worker (accepts the request, never answers) hits the
/// dynamic deadline: 504 within the bound, the worker is killed and
/// counted as a respawn, and the next request on the same listener —
/// served by a fresh worker — succeeds.
fn run_wedged_worker_504_then_respawn(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let marker = root.join("wedged-once");
    // First exchange ever: leave the marker and wedge. Every later
    // exchange (a fresh worker sees the marker) answers normally.
    let argv = script(
        &root,
        "wedge.sh",
        &format!(
            "while read -r m p; do\n\
             if [ ! -f {marker} ]; then : > {marker}; sleep 30; exit 0; fi\n\
             b=\"ok: $p\"\n\
             printf 'DATA %s\\n%s' \"${{#b}}\" \"$b\"\n\
             printf 'END\\n'\n\
             done\n",
            marker = marker.display()
        ),
    );
    let deadline = Duration::from_millis(500);
    let server = start(
        kind,
        builder(&root, backend)
            .dynamic_command(argv)
            .dynamic_deadline(Some(deadline))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();

    let started = std::time::Instant::now();
    let resp = get(addr, "GET /app/first HTTP/1.0\r\n\r\n");
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(
        text.starts_with("HTTP/1.1 504 Gateway Timeout"),
        "wedged worker must yield 504: {text}"
    );
    assert!(
        elapsed >= deadline - Duration::from_millis(50),
        "504 before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed <= deadline.mul_f64(1.5) + Duration::from_millis(1000),
        "504 must arrive promptly after the deadline: {elapsed:?}"
    );

    // The listener is healthy: a fresh worker serves the next request.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /app/second HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"ok: /app/second");
    drop(s);

    let stats = server.stats();
    assert_eq!(stats.dynamic_timeouts(), 1);
    wait_for("wedged worker killed", || stats.worker_respawns() >= 1);
    assert_eq!(stats.dynamic_requests(), 2);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The deadline firing mid-stream — header and some chunks already on
/// the wire — cannot turn into a 504: the connection is severed with
/// the body visibly truncated (no chunked terminator).
fn run_deadline_fires_mid_stream(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let argv = script(
        &root,
        "stall.sh",
        "read -r m p\nprintf 'DATA 7\\npartial'\nsleep 30\n",
    );
    let deadline = Duration::from_millis(500);
    let server = start(
        kind,
        builder(&root, backend)
            .dynamic_command(argv)
            .dynamic_deadline(Some(deadline))
            .build()
            .unwrap(),
    );
    let started = std::time::Instant::now();
    let resp = get(server.local_addr(), "GET /app/stall HTTP/1.0\r\n\r\n");
    let elapsed = started.elapsed();
    assert!(
        elapsed <= deadline.mul_f64(1.5) + Duration::from_millis(1000),
        "sever must not wait out the worker's sleep: {elapsed:?}"
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(
        !text.contains("504"),
        "mid-stream expiry must sever, not 504: {text}"
    );
    let body_start = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let mut dec = ChunkedDecoder::new();
    dec.feed(&resp[body_start..]).unwrap();
    assert!(!dec.is_done(), "truncation must be visible to the client");
    assert_eq!(dec.body(), b"partial");
    let stats = server.stats();
    assert_eq!(stats.dynamic_timeouts(), 1);
    wait_for("stalled worker killed", || stats.worker_respawns() >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Whether process `pid` still exists in any form, zombie included.
fn pid_exists(pid: u32) -> bool {
    std::path::Path::new(&format!("/proc/{pid}/stat")).exists()
}

/// The pid a worker script left in `file` (`echo $$ > file`), once it
/// has.
fn worker_pid(file: &std::path::Path) -> u32 {
    let mut pid = None;
    wait_for("the worker's pid file", || {
        pid = std::fs::read_to_string(file)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        pid.is_some()
    });
    pid.unwrap()
}

/// A worker that writes behind its `END` — here in the same write, so
/// the bytes are in hand when the `END` is parsed — has answered that
/// request, cleanly, and no other: it is retired, and the next request
/// is a fresh worker's, read from its first byte. (Left alone, the
/// stray frame would lead the next response's body.)
fn run_bytes_after_end_retire_the_worker(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let argv = script(
        &root,
        "chatty.sh",
        "while read -r m p; do\nprintf 'DATA 2\\nokEND\\nDATA 1\\nx'\ndone\n",
    );
    let server = start(
        kind,
        builder(&root, backend)
            .dynamic_command(argv)
            .build()
            .unwrap(),
    );
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 1..=2u64 {
        s.write_all(b"GET /app/chatty HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let hdr = read_header(&mut s);
        assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
        assert_eq!(read_chunked_body(&mut s), b"ok", "round {round}");
        wait_for("the talkative worker retired", || {
            server.stats().worker_respawns() >= round
        });
    }
    drop(s);
    assert_eq!(server.stats().dynamic_timeouts(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A client that goes away mid-stream takes its worker with it, now:
/// the next chunk's write fails, the close cancels the exchange, and
/// the worker — which would stream forever, under a deadline that is
/// half a minute away — is killed and reaped without either being
/// waited for. One worker slot (`helpers(1)`): the request behind it
/// is answered only because that slot came free.
fn run_client_gone_mid_stream_kills_the_worker(
    tag: &str,
    backend: BackendChoice,
    kind: ServerKind,
) {
    let root = docroot(tag);
    let pid_file = root.join("streamer.pid");
    let argv = script(
        &root,
        "streamer.sh",
        &format!(
            "while read -r m p; do\n\
             case \"$p\" in\n\
             */forever) echo $$ > {pid}; while :; do printf 'DATA 1\\nx'; sleep 0.02; done;;\n\
             *) printf 'DATA 2\\nokEND\\n';;\n\
             esac\n\
             done\n",
            pid = pid_file.display()
        ),
    );
    let server = start(
        kind,
        builder(&root, backend)
            .helpers(1)
            .dynamic_command(argv)
            .dynamic_deadline(Some(Duration::from_secs(30)))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /app/forever HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    let pid = worker_pid(&pid_file);
    assert!(pid_exists(pid));
    drop(s);

    let started = std::time::Instant::now();
    wait_for("the streaming worker killed and reaped", || {
        !pid_exists(pid)
    });
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "worker outlived its client by {took:?}"
    );
    let stats = server.stats();
    wait_for("the retirement counted", || stats.worker_respawns() >= 1);
    assert_eq!(stats.dynamic_timeouts(), 0, "no deadline was waited for");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /app/next HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"ok");
    drop(s);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The deadline that answers a wedged worker's client `504` is the
/// last thing anyone waits for: the worker is dead and reaped, and its
/// slot — the only one, `helpers(1)` — serving the next request, well
/// inside another deadline period.
fn run_wedged_worker_is_gone_with_its_504(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let pid_file = root.join("wedged.pid");
    let argv = script(
        &root,
        "wedge-by-path.sh",
        &format!(
            "while read -r m p; do\n\
             case \"$p\" in\n\
             */wedge) echo $$ > {pid}; exec sleep 30;;\n\
             *) printf 'DATA 2\\nokEND\\n';;\n\
             esac\n\
             done\n",
            pid = pid_file.display()
        ),
    );
    let deadline = Duration::from_millis(400);
    let server = start(
        kind,
        builder(&root, backend)
            .helpers(1)
            .dynamic_command(argv)
            .dynamic_deadline(Some(deadline))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let resp = get(addr, "GET /app/wedge HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 504 Gateway Timeout"), "{text}");

    let answered = std::time::Instant::now();
    let pid = worker_pid(&pid_file);
    wait_for("the wedged worker killed and reaped", || !pid_exists(pid));
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /app/next HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"ok");
    let took = answered.elapsed();
    assert!(
        took < deadline,
        "reaping the worker and serving the next request took {took:?}"
    );
    drop(s);
    let stats = server.stats();
    assert_eq!(stats.dynamic_timeouts(), 1);
    assert_eq!(stats.worker_respawns(), 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// `/.flash/metrics` and `/.flash/stats` keep precedence over a
/// dynamic prefix that covers the whole path space (`/`): the scrape
/// endpoints answer in-process while everything else routes to the
/// worker.
fn run_metrics_not_shadowed_by_dynamic_prefix(tag: &str, backend: BackendChoice, kind: ServerKind) {
    let root = docroot(tag);
    let server = start(
        kind,
        builder(&root, backend)
            .dynamic_prefix("/")
            .metrics_endpoint(true)
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();

    // A dynamic request first, so the scrape has something to report
    // — and so the worker path provably covers "/".
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /anything HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let hdr = read_header(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(read_chunked_body(&mut s), b"hello from worker: /anything");
    drop(s);

    for path in ["/.flash/stats", "/.flash/metrics"] {
        let resp = get(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"));
        let text = String::from_utf8_lossy(&resp).into_owned();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{path}: {text}");
        assert!(
            !text.contains("Transfer-Encoding: chunked"),
            "{path} must be served in-process, not by the worker: {text}"
        );
        assert!(
            !text.contains("hello from worker"),
            "{path} routed to the dynamic tier: {text}"
        );
        assert!(
            text.contains("dynamic_requests"),
            "{path} must export the dynamic counters: {text}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.dynamic_requests(), 1, "scrapes are not dynamic");
    assert_eq!(stats.metrics_requests(), 2);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Instantiates the battery for one pinned backend × both drivers.
macro_rules! dynamic_suite {
    ($modname:ident, $backend:expr) => {
        mod $modname {
            use super::*;

            fn tag(name: &str) -> String {
                format!("{}-{name}", stringify!($modname))
            }

            #[test]
            fn amped_dynamic_streams_chunked_body() {
                run_dynamic_streams_chunked(&tag("stream"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_dynamic_streams_chunked_body() {
                run_dynamic_streams_chunked(&tag("mt-stream"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_dynamic_head_is_headers_only() {
                run_dynamic_head(&tag("head"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_dynamic_head_is_headers_only() {
                run_dynamic_head(&tag("mt-head"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_dynamic_skips_conditionals_and_ranges() {
                run_dynamic_skips_conditionals(&tag("cond"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_dynamic_skips_conditionals_and_ranges() {
                run_dynamic_skips_conditionals(&tag("mt-cond"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_worker_crash_mid_body_truncates_visibly() {
                run_worker_crash_mid_body(&tag("crash"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_worker_crash_mid_body_truncates_visibly() {
                run_worker_crash_mid_body(&tag("mt-crash"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_wedged_worker_504_then_respawn() {
                run_wedged_worker_504_then_respawn(&tag("wedge"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_wedged_worker_504_then_respawn() {
                run_wedged_worker_504_then_respawn(&tag("mt-wedge"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_deadline_mid_stream_severs() {
                run_deadline_fires_mid_stream(&tag("midstream"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_deadline_mid_stream_severs() {
                run_deadline_fires_mid_stream(&tag("mt-midstream"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_bytes_after_end_retire_the_worker() {
                run_bytes_after_end_retire_the_worker(&tag("chatty"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_bytes_after_end_retire_the_worker() {
                run_bytes_after_end_retire_the_worker(&tag("mt-chatty"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_client_gone_mid_stream_kills_the_worker() {
                run_client_gone_mid_stream_kills_the_worker(
                    &tag("gone"),
                    $backend,
                    ServerKind::Amped,
                );
            }

            #[test]
            fn mt_client_gone_mid_stream_kills_the_worker() {
                run_client_gone_mid_stream_kills_the_worker(
                    &tag("mt-gone"),
                    $backend,
                    ServerKind::Mt,
                );
            }

            #[test]
            fn amped_wedged_worker_is_gone_with_its_504() {
                run_wedged_worker_is_gone_with_its_504(&tag("reap"), $backend, ServerKind::Amped);
            }

            #[test]
            fn mt_wedged_worker_is_gone_with_its_504() {
                run_wedged_worker_is_gone_with_its_504(&tag("mt-reap"), $backend, ServerKind::Mt);
            }

            #[test]
            fn amped_metrics_keep_precedence_over_dynamic_prefix() {
                run_metrics_not_shadowed_by_dynamic_prefix(
                    &tag("metrics"),
                    $backend,
                    ServerKind::Amped,
                );
            }

            #[test]
            fn mt_metrics_keep_precedence_over_dynamic_prefix() {
                run_metrics_not_shadowed_by_dynamic_prefix(
                    &tag("mt-metrics"),
                    $backend,
                    ServerKind::Mt,
                );
            }
        }
    };
}

dynamic_suite!(epoll_backend, BackendChoice::Epoll);
dynamic_suite!(poll_backend, BackendChoice::Poll);

/// The builder rejects the nonsense combinations its doc promises it
/// rejects — and accepts the defaults.
#[test]
fn builder_validation_rejects_nonsense() {
    let root = docroot("builder-validate");
    assert!(NetConfig::builder(&root).build().is_ok());
    assert!(NetConfig::builder(&root)
        .drain_timeout(Duration::ZERO)
        .build()
        .is_err());
    assert!(NetConfig::builder(&root).event_loops(0).build().is_err());
    assert!(NetConfig::builder(&root).helpers(0).build().is_err());
    assert!(NetConfig::builder(&root)
        .dynamic_deadline(Some(Duration::ZERO))
        .build()
        .is_err());
    assert!(NetConfig::builder(&root)
        .dynamic_prefix("app/")
        .build()
        .is_err());
    assert!(NetConfig::builder(&root)
        .dynamic_command(vec![])
        .build()
        .is_err());
    // A sendfile threshold above the largest cacheable entry leaves a
    // dead band of bodies that neither cache nor sendfile.
    assert!(NetConfig::builder(&root)
        .cache_bytes(1024 * 1024)
        .event_loops(1)
        .sendfile_threshold_bytes(u64::MAX)
        .build()
        .is_err());
    let _ = std::fs::remove_dir_all(root);
}
