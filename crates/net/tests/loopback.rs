//! End-to-end tests of the real AMPED and MT servers over loopback,
//! using plain `std::net::TcpStream` clients.
//!
//! The whole suite runs **twice**, each pinning both portability
//! choices: once on Linux's defaults — the edge-triggered `epoll`
//! backend and per-shard `SO_REUSEPORT` listeners — and once on the
//! fallbacks every other platform runs — the `poll` backend and one
//! listening socket shared by the shards. (Off Linux the first run
//! degrades to the second: it still passes, it just re-covers the
//! fallbacks.) The event loop is one code path written to the
//! edge-triggered contract; these tests are what holds both kernels,
//! and both accept modes, to identical observable behavior. A scenario
//! that pins its own accept mode runs it on both backends.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use flash_net::{AcceptMode, BackendChoice, NetConfig, NetConfigBuilder, Server, ServerKind};
use flash_simcore::SimRng;

/// Creates a docroot with known content; returns its path guard.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-net-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    std::fs::write(dir.join("index.html"), b"<html>hello flash</html>\n").unwrap();
    std::fs::write(dir.join("sub/page.html"), b"subdir page").unwrap();
    std::fs::write(dir.join("big.bin"), vec![0xABu8; 2_000_000]).unwrap();
    dir
}

/// What a suite run pins: the readiness backend and the accept mode.
#[derive(Clone, Copy)]
struct Pins {
    backend: BackendChoice,
    accept_mode: AcceptMode,
}

/// Base config for a suite run: everything default except the pins.
fn cfg(root: &std::path::Path, pins: Pins) -> NetConfigBuilder {
    NetConfig::builder(root)
        .backend(pins.backend)
        .accept_mode(pins.accept_mode)
}

/// Sends one request and reads until EOF; returns the raw response.
fn get(addr: std::net::SocketAddr, req: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(req.as_bytes()).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn body_of(response: &[u8]) -> &[u8] {
    let pos = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    &response[pos + 4..]
}

/// Reads one keep-alive response off `s`: returns (header text, body).
fn read_response(s: &mut TcpStream) -> (String, Vec<u8>) {
    let mut hdr = Vec::new();
    let mut byte = [0u8; 1];
    while !hdr.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).unwrap();
        hdr.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&hdr).into_owned();
    let len: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
    (text, body)
}

fn run_serves_files_and_404s(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let addr = server.addr();

    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("Content-Type: text/html"));
    assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");

    let resp = get(addr, "GET /sub/page.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"subdir page");

    let resp = get(addr, "GET /nope.html HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));

    // Directory request maps to index.html.
    let resp = get(addr, "GET / HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");

    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_second_request_hits_cache(tag: &str, pins: Pins) {
    let root = docroot(tag);
    // One shard: all three connections share one content cache, so
    // exactly one disk read happens (shards have private caches).
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let stats = server.stats();
    assert_eq!(stats.helper_jobs(), 1, "one disk read");
    assert!(stats.cache_hits() >= 2);
    assert_eq!(stats.requests(), 3);
    assert!(stats.wait_calls() > 0, "stats must count backend waits");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_persistent_connection(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for i in 0..5 {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "request {i}: {text}");
        assert!(text.contains("Connection: keep-alive"));
        assert_eq!(body, b"<html>hello flash</html>\n");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The large tier end to end: a body far above the threshold goes
/// out whole through `sendfile`; fetched again, through the descriptor
/// the open-file table kept from the first fetch (where the kernel has
/// the cached-only calls; elsewhere a helper opens it again, by path);
/// and truncated in place, as the file now is — the table re-reads
/// `fstat` on every use.
fn run_streams_large_files_intact(tag: &str, pins: Pins) {
    let root = docroot(tag);
    // The lookup that finds no `.gz` sibling is cached before the first
    // request, so even that one is answered in the loop, and remembered.
    assert!(std::fs::metadata(root.join("big.bin.gz")).is_err());
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let fetch = || get(server.addr(), "GET /big.bin HTTP/1.0\r\n\r\n");
    let resp = fetch();
    let body = body_of(&resp);
    assert_eq!(body.len(), 2_000_000);
    assert!(body.iter().all(|&b| b == 0xAB));
    // 2 MB is far above the default 256 KiB threshold: this body went
    // out via sendfile, not from the content cache. It is also above
    // the 1 MiB fairness budget, so the transfer crossed at least one
    // voluntary yield — the re-arm path both backends must get right.
    let stats = server.stats();
    assert!(stats.sendfile_calls() >= 1);
    assert_eq!(stats.bytes_sendfile(), 2_000_000);

    let tabled = stats.open_files() > 0;
    let (hits, held) = (stats.open_file_hits(), stats.open_files());
    let resp = fetch();
    assert_eq!(body_of(&resp), &vec![0xAB; 2_000_000][..], "second fetch");
    assert_eq!(
        (stats.open_file_hits(), stats.open_files()),
        (hits + u64::from(tabled), held),
        "the second fetch must reuse the held descriptor"
    );
    assert_eq!(stats.bytes_sendfile(), 4_000_000);

    let half = 1_000_000;
    std::fs::File::options()
        .write(true)
        .open(root.join("big.bin"))
        .unwrap()
        .set_len(half)
        .unwrap();
    let resp = fetch();
    let text = String::from_utf8_lossy(&resp[..resp.len() - half as usize]).into_owned();
    assert_eq!(
        hdr_value(&text, "Content-Length").as_deref(),
        Some("1000000"),
        "truncation not seen: {text}"
    );
    assert_eq!(body_of(&resp), &vec![0xAB; half as usize][..]);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_sendfile_threshold_straddle(tag: &str, pins: Pins) {
    const T: u64 = 8 * 1024;
    let root = docroot(tag);
    let mk = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 31 + 7) as u8).collect() };
    // One byte below, exactly at, and one byte above the threshold:
    // the first two stay on the cached/writev tier, the third crosses
    // to sendfile ("strictly larger than" is the contract).
    std::fs::write(root.join("below.bin"), mk(T as usize - 1)).unwrap();
    std::fs::write(root.join("at.bin"), mk(T as usize)).unwrap();
    std::fs::write(root.join("above.bin"), mk(T as usize + 1)).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .sendfile_threshold_bytes(T)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    for (name, len) in [
        ("below.bin", T as usize - 1),
        ("at.bin", T as usize),
        ("above.bin", T as usize + 1),
    ] {
        let resp = get(addr, &format!("GET /{name} HTTP/1.0\r\n\r\n"));
        assert_eq!(body_of(&resp), &mk(len)[..], "{name} must be byte-exact");
    }
    let stats = server.stats();
    assert_eq!(
        stats.bytes_sendfile(),
        T + 1,
        "only the strictly-larger body takes the sendfile tier"
    );
    assert!(stats.sendfile_calls() >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_sendfile_preserves_keep_alive(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let body: Vec<u8> = (0..500_000usize).map(|i| (i * 13) as u8).collect();
    std::fs::write(root.join("video.bin"), &body).unwrap();
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Large (sendfile) request, then a small (cached) one on the SAME
    // connection: the large response must neither close the stream nor
    // leave stray bytes that would corrupt the next response.
    s.write_all(b"GET /video.bin HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (hdr, got) = read_response(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(hdr.contains("Connection: keep-alive"));
    assert_eq!(got, body);
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (hdr, got) = read_response(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(got, b"<html>hello flash</html>\n");
    assert!(server.stats().sendfile_calls() >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_head_on_large_file(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let resp = get(server.addr(), "HEAD /big.bin HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(
        text.contains("Content-Length: 2000000"),
        "HEAD must advertise the true file length: {text}"
    );
    assert!(body_of(&resp).is_empty(), "HEAD must carry no body");
    assert_eq!(
        server.stats().sendfile_calls(),
        0,
        "no file bytes may move for a HEAD"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_large_bodies_never_enter_cache(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    // Warm the small-file hot set, then snapshot cache residency.
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let _ = get(addr, "GET /sub/page.html HTTP/1.0\r\n\r\n");
    let resident = server.stats().cache_used_bytes();
    assert!(resident > 0, "small files must be cached");
    for _ in 0..3 {
        let resp = get(addr, "GET /big.bin HTTP/1.0\r\n\r\n");
        assert_eq!(body_of(&resp).len(), 2_000_000);
    }
    let stats = server.stats();
    assert_eq!(
        stats.cache_used_bytes(),
        resident,
        "large bodies must not displace a single cached byte"
    );
    assert!(stats.sendfile_calls() >= 3);
    assert_eq!(stats.bytes_sendfile(), 3 * 2_000_000);
    // And the small entries are still hits, not re-reads.
    let before = stats.helper_jobs();
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    assert_eq!(server.stats().helper_jobs(), before, "hot set survived");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_concurrent_clients(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let addr = server.addr();
    let threads: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let path = if i % 2 == 0 {
                    "/index.html"
                } else {
                    "/sub/page.html"
                };
                for _ in 0..20 {
                    let resp = get(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"));
                    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(server.stats().requests(), 320);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_pipelined_keep_alive(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Three keep-alive requests in a single write: the server must
    // serve all three back-to-back without waiting for more bytes —
    // under the edge-triggered backend this only works if the read
    // path drains the whole burst off one readiness event.
    let burst = "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n\
                 GET /sub/page.html HTTP/1.1\r\nHost: t\r\n\r\n\
                 GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n";
    s.write_all(burst.as_bytes()).unwrap();
    let expected_bodies: [&[u8]; 3] = [
        b"<html>hello flash</html>\n",
        b"subdir page",
        b"<html>hello flash</html>\n",
    ];
    for (i, expected) in expected_bodies.iter().enumerate() {
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "response {i}: {text}");
        assert_eq!(&body[..], *expected, "response {i}");
    }
    // The shard counts a request after its write, so the third
    // response can be read before its count lands.
    wait_for("the third count", || server.stats().requests() == 3);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A client that half-closes right behind its request(s) — `shutdown`
/// of the write side, the FIN in flight with (or on the heels of) the
/// data — must get every response and then see the server's close at
/// that end of stream, not at the idle deadline. The read that takes
/// the requests comes back short and cannot see the FIN behind them:
/// under the edge-triggered backend nothing else would ever report it
/// unless the readiness event's hang-up mark does. First on a cold
/// cache (the request parks on a miss, interest dropped and re-armed),
/// then as hits; alone, then as a pipelined pair in one segment; with
/// the connection fresh, then on one already registered and parked.
fn run_half_close_behind_requests(tag: &str, pins: Pins) {
    const ONE: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n";
    const PAIR: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n\
                          GET /sub/page.html HTTP/1.1\r\nHost: t\r\n\r\n";
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .idle_timeout(Some(Duration::from_secs(5)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let bodies: [&[u8]; 2] = [b"<html>hello flash</html>\n", b"subdir page"];
    let mut served = 0;
    for (n, parked_first) in [(1, false), (2, false), (1, true), (2, true)] {
        let what = format!("{n} request(s), parked first: {parked_first}");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if parked_first {
            // One exchange, so the shard has read the socket dry,
            // registered the connection and parked it.
            s.write_all(ONE).unwrap();
            assert_eq!(read_response(&mut s).1, bodies[0], "{what}");
            served += 1;
        }
        let sent = std::time::Instant::now();
        s.write_all(if n == 1 { ONE } else { PAIR }).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        for expected in &bodies[..n] {
            let (text, body) = read_response(&mut s);
            assert!(text.contains("Connection: keep-alive"), "{what}: {text}");
            assert_eq!(&body[..], *expected, "{what}");
            served += 1;
        }
        let mut rest = Vec::new();
        s.read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("{what}: held open past the client's EOF: {e}"));
        assert!(rest.is_empty(), "{what}: bytes after the last response");
        let took = sent.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{what}: closed after {took:?} — by the idle deadline, not the EOF"
        );
    }
    assert_eq!(server.stats().requests(), served);
    assert_eq!(server.stats().idle_reaped(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Spins until `cond` holds, for at most 5 s: for a counter bumped
/// after the client-visible event it counts.
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

/// `accept4(2)` calls the shards issued, `EAGAIN` ones included.
fn accept_calls(stats: &flash_net::ServerStats) -> u64 {
    use std::sync::atomic::Ordering;
    let shards = stats.per_shard().iter();
    shards.map(|s| s.accept_calls.load(Ordering::Relaxed)).sum()
}

/// The single fallback: four shards registered on one shared socket.
/// Which shard takes a connection is whichever wakes first, so nothing
/// is asserted about the split — only that every connection was
/// accepted by exactly one shard and answered whole, through the
/// shards' own counted accept arm: no acceptor thread exists.
fn run_single_mode_shards_share_one_socket(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(4)
            .accept_mode(AcceptMode::Single)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(server.accept_mode(), AcceptMode::Single);
    assert_eq!(server.stats().per_shard().len(), 4);
    for _ in 0..32 {
        let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
        assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");
    }
    let stats = server.stats();
    assert_eq!(stats.requests(), 32);
    assert_eq!(stats.accepted(), 32, "one shard per connection");
    assert!(accept_calls(stats) >= stats.accepted());
    // Each shard that took a connection missed its private cache once.
    use std::sync::atomic::Ordering;
    let shards = stats.per_shard().iter();
    let active = shards.filter(|s| s.accepted.load(Ordering::Relaxed) > 0);
    let active = active.count() as u64;
    assert_eq!(stats.helper_jobs(), active, "one disk read per shard cache");
    assert_eq!(stats.cache_hits(), 32 - active);
    #[cfg(target_os = "linux")]
    {
        let threads: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .collect();
        assert!(threads.iter().any(|t| t.trim() == "flash-shard-3"));
        assert!(
            !threads.iter().any(|t| t.starts_with("flash-acceptor")),
            "{threads:?}"
        );
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_cache_hit_is_one_writev(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    // Warm the cache, then measure the syscall count of a hit.
    let _ = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let before = server.stats().writev_calls();
    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
    let after = server.stats().writev_calls();
    assert_eq!(
        after - before,
        1,
        "header + body of a cache hit must go out in a single gathered write"
    );
    assert_eq!(server.stats().cache_hits(), 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_rejects_bad_requests_and_post(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let addr = server.addr();
    let resp = get(addr, "BOGUS /x HTTP/9.9\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"));
    let resp = get(addr, "POST /cgi-bin/x HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 501"));
    // Traversal normalizes inside the docroot; escaping yields 400.
    let resp = get(addr, "GET /../../etc/passwd HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"));
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A GET or HEAD that declares a body is refused, not parsed past: the
/// body of `GET /index.html` framed by `Content-Length` (or chunked)
/// is a request for `/secret.html`, which a proxy that frames by the
/// header never sent. One `400`, logged as `"- -"`, the connection
/// closed — and the smuggled request is never served.
fn run_body_is_not_a_request(tag: &str, pins: Pins, kind: ServerKind) {
    let root = docroot(tag);
    std::fs::write(root.join("secret.html"), b"top secret").unwrap();
    let log = root.join("access.log");
    let config = cfg(&root, pins).access_log_path(&log).build().unwrap();
    let server = Server::start_as(kind, "127.0.0.1:0", config).unwrap();
    let smuggled = "GET /secret.html HTTP/1.1\r\nHost: t\r\n\r\n";
    // Each framing also with a space before the colon: a field name
    // is a token, so the spaced header is a malformed one, not ignored.
    let framings = [
        format!("Content-Length: {}\r\n\r\n{smuggled}", smuggled.len()),
        format!(
            "Transfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
            smuggled.len()
        ),
        format!("Content-Length : {}\r\n\r\n{smuggled}", smuggled.len()),
        format!(
            "Transfer-Encoding : chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
            smuggled.len()
        ),
    ];
    for method in ["GET", "HEAD"] {
        for framing in &framings {
            let req = format!("{method} /index.html HTTP/1.1\r\nHost: t\r\n{framing}");
            let resp = get(server.addr(), &req);
            let text = String::from_utf8_lossy(&resp).into_owned();
            assert!(text.starts_with("HTTP/1.1 400 "), "{req:?}: {text}");
            assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{req:?}: {text}");
            assert!(!text.contains("top secret"), "{req:?}: {text}");
        }
    }
    assert_eq!(
        server.stats().requests(),
        8,
        "the eight refusals, nothing else"
    );
    server.stop();
    let lines = std::fs::read_to_string(&log).unwrap();
    assert_eq!(lines.lines().count(), 8, "{lines}");
    assert!(lines.lines().all(|l| l.contains("\"- -\" 400 ")), "{lines}");
    let _ = std::fs::remove_dir_all(root);
}

fn run_head_returns_headers_only(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let resp = get(server.addr(), "HEAD /index.html HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 200 OK"));
    assert!(text.contains("Content-Length: 25"));
    assert!(body_of(&resp).is_empty());
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_headers_are_alignment_padded(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let resp = get(server.addr(), "GET /index.html HTTP/1.0\r\n\r\n");
    let pos = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    assert_eq!((pos + 4) % 32, 0, "header must be 32-byte aligned (§5.5)");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Idle keep-alive reaping: a parked connection is closed once it sits
/// past `idle_timeout`, while a connection that keeps issuing requests
/// survives — activity resets its clock.
fn run_idle_reaper(tag: &str, pins: Pins) {
    let root = docroot(tag);
    // A generous timeout relative to the active client's 150 ms
    // request spacing: a CI scheduler stall would need to exceed a
    // full second before the survivor could be mis-reaped.
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .idle_timeout(Some(Duration::from_millis(1200)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();

    // The idler completes one request, then goes quiet.
    let mut idler = TcpStream::connect(addr).unwrap();
    idler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idler
        .write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (hdr, _) = read_response(&mut idler);
    assert!(hdr.contains("Connection: keep-alive"), "{hdr}");

    // The active client keeps requesting well inside the timeout.
    let mut active = TcpStream::connect(addr).unwrap();
    active
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..10 {
        active
            .write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (hdr, _) = read_response(&mut active);
        assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
        std::thread::sleep(Duration::from_millis(150));
    }

    // ~1.5 s have passed: the idler must be gone (EOF, not a hang);
    // the blocking read returns 0 the moment the reaper closes it.
    let mut buf = [0u8; 16];
    let n = idler.read(&mut buf).unwrap();
    assert_eq!(n, 0, "reaper must close the idle connection");
    assert!(
        server.stats().idle_reaped() >= 1,
        "reap must be counted: {}",
        server.stats().idle_reaped()
    );

    // The active connection is still serviceable.
    active
        .write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (hdr, _) = read_response(&mut active);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "survivor died: {hdr}");

    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Slow-header (slowloris) deadline: a client that trickles request
/// bytes without ever completing the header is closed within ~1.25×
/// the configured header-read deadline — and the trickle must NOT
/// refresh the deadline.
fn run_slow_header_deadline(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let timeout = Duration::from_millis(800);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .header_read_timeout(Some(timeout))
            // Generous sibling timeouts so only the header deadline
            // can be the one that fires.
            .idle_timeout(Some(Duration::from_secs(30)))
            .write_stall_timeout(Some(Duration::from_secs(30)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = std::time::Instant::now();
    s.write_all(b"GET /index.html HT").unwrap();
    // Keep trickling inside the deadline: if trickled bytes re-armed
    // the deadline (the slowloris hole), the close would slip past the
    // upper bound below.
    std::thread::sleep(Duration::from_millis(250));
    s.write_all(b"T").unwrap();
    std::thread::sleep(Duration::from_millis(250));
    s.write_all(b"P").unwrap();
    // The server must close us: read to EOF (or a reset — both count
    // as closed).
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
    let elapsed = start.elapsed();
    assert!(sink.is_empty(), "no response may precede the close");
    assert!(
        elapsed >= timeout - Duration::from_millis(50),
        "closed early: {elapsed:?}"
    );
    // Wheel bound: deadline + tick rounding (timeout/8) + wait cadence
    // (timeout/8) = 1.25×; the constant absorbs CI scheduling jitter.
    assert!(
        elapsed <= timeout.mul_f64(1.25) + Duration::from_millis(400),
        "closed late: {elapsed:?}"
    );
    assert_eq!(server.stats().read_timeouts(), 1, "cause must be counted");
    assert_eq!(server.stats().idle_reaped(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Write-stall deadline: a client that requests a large (sendfile)
/// body and then stops reading is closed within ~1.25× the configured
/// write-progress deadline, with the matching counter bumped.
fn run_stalled_reader_deadline(tag: &str, pins: Pins) {
    let root = docroot(tag);
    // Big enough that the kernel's socket buffers (both directions of
    // loopback, auto-tuned) can never absorb the whole body.
    std::fs::write(root.join("huge.bin"), vec![0x5Au8; 32 * 1024 * 1024]).unwrap();
    let timeout = Duration::from_millis(800);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .write_stall_timeout(Some(timeout))
            .idle_timeout(Some(Duration::from_secs(30)))
            .header_read_timeout(Some(Duration::from_secs(30)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /huge.bin HTTP/1.0\r\n\r\n").unwrap();
    // Read a little to let the response start, then stop reading
    // entirely: the server keeps sending until both socket buffers
    // fill, then makes no progress until the deadline fires.
    let mut chunk = [0u8; 65536];
    s.read_exact(&mut chunk).unwrap();
    let stalled_at = std::time::Instant::now();
    // Watch the server's own counter — the client-side close is
    // asynchronous (buffered bytes still drain), the stat is not.
    let deadline_bound = timeout.mul_f64(1.25) + Duration::from_millis(400);
    while server.stats().write_stall_timeouts() == 0 {
        assert!(
            stalled_at.elapsed() <= deadline_bound,
            "stall not reaped within {deadline_bound:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let elapsed = stalled_at.elapsed();
    assert!(
        elapsed >= timeout - Duration::from_millis(50),
        "reaped early: {elapsed:?} (forward progress must re-arm)"
    );
    assert_eq!(server.stats().write_stall_timeouts(), 1);
    assert_eq!(server.stats().read_timeouts(), 0);
    // The connection really is dead: draining it ends in EOF/reset
    // rather than the full 32 MiB body.
    let mut drained = 0u64;
    loop {
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n as u64,
        }
    }
    assert!(
        drained < 32 * 1024 * 1024,
        "close must cut the body short, got {drained} more bytes"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A keep-alive connection making steady progress through a large
/// body is NOT write-stall reaped even when the whole transfer takes
/// several deadlines' worth of time — progress re-arms the clock — and
/// the connection is a usable keep-alive afterwards. The client reads
/// `sip` bytes of the `len`-byte body every 100 ms, sixteen times, and
/// then the rest at once.
fn run_slow_but_steady_reader_survives(
    tag: &str,
    pins: Pins,
    kind: ServerKind,
    len: usize,
    sip: usize,
) {
    let root = docroot(tag);
    std::fs::write(root.join("steady.bin"), vec![0xABu8; len]).unwrap();
    let timeout = Duration::from_millis(400);
    let server = flash_net::handle::start(
        kind,
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .write_stall_timeout(Some(timeout))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /steady.bin HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // Drain the response in small sips spread over several deadlines:
    // each sip is forward progress, so the deadline keeps re-arming.
    let (hdr, body) = {
        let mut hdr = Vec::new();
        let mut byte = [0u8; 1];
        while !hdr.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).unwrap();
            hdr.push(byte[0]);
        }
        let mut body = vec![0u8; len];
        let mut off = 0;
        for _ in 0..16 {
            std::thread::sleep(Duration::from_millis(100));
            s.read_exact(&mut body[off..off + sip]).unwrap();
            off += sip;
        }
        s.read_exact(&mut body[off..]).unwrap();
        (String::from_utf8_lossy(&hdr).into_owned(), body)
    };
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(body.iter().all(|&b| b == 0xAB));
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(
        server.stats().write_stall_timeouts(),
        0,
        "steady progress must never trip the stall deadline"
    );
    assert_eq!(server.stats().idle_reaped(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// `If-Modified-Since` handling across both body tiers: a current
/// validator gets a bodyless 304 (keep-alive preserved, counter
/// bumped), a stale one gets the full 200 with `Last-Modified`.
fn run_if_modified_since(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();

    // Prime: the 200 carries Last-Modified (the validator clients echo).
    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    let validator = text
        .lines()
        .find_map(|l| l.strip_prefix("Last-Modified: "))
        .expect("200 must carry Last-Modified")
        .trim()
        .to_owned();

    // Conditional with the echoed validator → bodyless 304 on a
    // keep-alive connection that stays serviceable.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        format!("GET /index.html HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: {validator}\r\n\r\n")
            .as_bytes(),
    )
    .unwrap();
    let mut hdr = Vec::new();
    let mut byte = [0u8; 1];
    while !hdr.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).unwrap();
        hdr.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&hdr);
    assert!(text.starts_with("HTTP/1.1 304 Not Modified"), "{text}");
    assert!(!text.contains("Content-Length"), "304 is bodyless: {text}");
    assert!(text.contains("Connection: keep-alive"));
    // The very next request on the same connection must parse cleanly —
    // i.e. the 304 really carried no body bytes.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>hello flash</html>\n");
    assert_eq!(server.stats().not_modified(), 1);

    // A validator older than the file → full 200.
    let resp = get(
        addr,
        "GET /index.html HTTP/1.0\r\nIf-Modified-Since: Thu, 01 Jan 1970 00:00:00 GMT\r\n\r\n",
    );
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"));
    assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");

    // Same dance on the sendfile tier: big.bin is far above the
    // threshold, and its 304 must move zero file bytes.
    let resp = get(addr, "HEAD /big.bin HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    let validator = text
        .lines()
        .find_map(|l| l.strip_prefix("Last-Modified: "))
        .expect("sendfile-tier 200 must carry Last-Modified")
        .trim()
        .to_owned();
    let sendfile_before = server.stats().bytes_sendfile();
    let resp = get(
        addr,
        &format!("GET /big.bin HTTP/1.0\r\nIf-Modified-Since: {validator}\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 304 Not Modified"), "{text}");
    assert_eq!(
        server.stats().bytes_sendfile(),
        sendfile_before,
        "a 304 must not stream any of the file"
    );
    assert_eq!(server.stats().not_modified(), 2);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The Date header is the real current time in IMF-fixdate form —
/// including on cache hits, whose pre-rendered headers are re-dated at
/// send time rather than serving the load-time date forever.
fn run_date_header_is_current(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let date_of = |resp: &[u8]| -> i64 {
        let text = String::from_utf8_lossy(resp);
        let date = text
            .lines()
            .find_map(|l| l.strip_prefix("Date: "))
            .expect("Date header present")
            .trim()
            .to_owned();
        flash_http::date::parse_imf(&date)
            .unwrap_or_else(|| panic!("Date must be IMF-fixdate, got {date:?}"))
    };
    // Miss path: rendered now.
    let before = flash_http::date::unix_now();
    let resp = get(server.addr(), "GET /index.html HTTP/1.0\r\n\r\n");
    let after = flash_http::date::unix_now();
    let t = date_of(&resp);
    assert!(
        t >= before - 2 && t <= after + 2,
        "Date {t} outside [{before}, {after}]"
    );
    // Hit path: the entry was rendered ≥1 s ago, but its served Date
    // must be NOW, not the render time.
    std::thread::sleep(Duration::from_millis(1500));
    let before = flash_http::date::unix_now();
    let resp = get(server.addr(), "GET /index.html HTTP/1.0\r\n\r\n");
    let after = flash_http::date::unix_now();
    let t = date_of(&resp);
    assert!(
        t >= before - 1 && t <= after + 1,
        "cache hit served a stale Date: {t} outside [{before}, {after}]"
    );
    assert!(server.stats().cache_hits() >= 1, "second GET must be a hit");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Connection-header token lists steer keep-alive end to end.
fn run_connection_token_list(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start("127.0.0.1:0", cfg(&root, pins).build().unwrap()).unwrap();
    let addr = server.addr();
    // 1.0 + "keep-alive, upgrade": must keep the connection open.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.0\r\nConnection: keep-alive, upgrade\r\n\r\n")
        .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(text.contains("Connection: keep-alive"), "{text}");
    s.write_all(b"GET /index.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    // 1.1 + "close, te": must close after the response.
    let resp = get(
        addr,
        "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close, te\r\n\r\n",
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains("Connection: close"), "{text}");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_mt_server(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        cfg(&root, pins).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
                    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
                    assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let resp = get(addr, "GET /gone HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The MT server honours the same deadline knobs through its blocking
/// socket timeouts: a slow header sender is disconnected, and a
/// conditional request gets a 304.
fn run_mt_deadline_and_304(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let timeout = Duration::from_millis(800);
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        cfg(&root, pins)
            .header_read_timeout(Some(timeout))
            .idle_timeout(Some(Duration::from_secs(30)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();

    // Slow header sender: closed within the deadline plus the worker's
    // 200 ms check cadence.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = std::time::Instant::now();
    s.write_all(b"GET /index.html HT").unwrap();
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
    let elapsed = start.elapsed();
    assert!(sink.is_empty(), "no response may precede the close");
    assert!(
        elapsed >= timeout - Duration::from_millis(50),
        "closed early: {elapsed:?}"
    );
    assert!(
        elapsed <= timeout + Duration::from_millis(700),
        "closed late: {elapsed:?}"
    );
    // The worker counts the cause before it drops the socket, so the
    // close the client just observed is already in the registry.
    assert_eq!(server.stats().read_timeouts(), 1, "header deadline");
    assert_eq!(server.stats().idle_reaped(), 0, "not an idle reap");

    // 304 parity: prime, echo the validator back, expect Not Modified.
    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp);
    let validator = text
        .lines()
        .find_map(|l| l.strip_prefix("Last-Modified: "))
        .expect("MT 200 must carry Last-Modified")
        .trim()
        .to_owned();
    let resp = get(
        addr,
        &format!("GET /index.html HTTP/1.0\r\nIf-Modified-Since: {validator}\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 304 Not Modified"), "{text}");
    assert!(!text.contains("Content-Length"), "{text}");
    server.stop();

    // Idle keep-alive: one request served, then silence past the idle
    // deadline — closed by the server and counted as an idle reap.
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        cfg(&root, pins)
            .idle_timeout(Some(Duration::from_millis(400)))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut resp = Vec::new();
    let _ = s.read_to_end(&mut resp);
    assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n"), "served first");
    assert_eq!(server.stats().idle_reaped(), 1, "idle deadline");
    assert_eq!(server.stats().read_timeouts(), 0, "not a header timeout");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Per-shard reuseport listeners: the kernel's 4-tuple hash must
/// spread connections over every shard's listener. The distribution
/// is the kernel's, so it is asserted loosely — every shard saw *some*
/// traffic and nothing was lost — not as an exact split.
fn run_reuseport_accept_distribution(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(4)
            .accept_mode(AcceptMode::ReusePort)
            .build()
            .unwrap(),
    )
    .unwrap();
    if server.accept_mode() != AcceptMode::ReusePort {
        // Platform without load-balancing SO_REUSEPORT: the mode
        // degraded to the shared socket; nothing to assert here.
        server.stop();
        let _ = std::fs::remove_dir_all(root);
        return;
    }
    let addr = server.addr();
    const CONNS: u64 = 96;
    for _ in 0..CONNS {
        let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
    }
    let stats = server.stats();
    assert_eq!(stats.requests(), CONNS);
    assert_eq!(
        stats.accepted(),
        CONNS,
        "every connection must be accepted by some shard"
    );
    // Each shard owns its socket and takes a connection only when its
    // level-triggered listener reports one: no accept finds it empty.
    assert_eq!(accept_calls(stats), CONNS);
    // Loose distribution bound: 96 connections over 4 reuseport
    // listeners leaves each shard empty with probability (3/4)^96 —
    // a shard with zero accepts means its listener never took traffic.
    for (i, shard) in stats.per_shard().iter().enumerate() {
        use std::sync::atomic::Ordering;
        let accepted = shard.accepted.load(Ordering::Relaxed);
        assert!(accepted > 0, "shard {i} accepted no connections");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The observable protocol behavior — keep-alive, pipelining, both
/// body tiers on one connection — must be identical whichever accept
/// path delivered the connection.
fn run_accept_mode_parity(tag: &str, pins: Pins, mode: AcceptMode) {
    let root = docroot(tag);
    let body: Vec<u8> = (0..400_000usize).map(|i| (i * 7) as u8).collect();
    std::fs::write(root.join("video.bin"), &body).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(2)
            .accept_mode(mode)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A pipelined burst: both requests must come back in order off one
    // readiness event.
    let burst = "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n\
                 GET /sub/page.html HTTP/1.1\r\nHost: t\r\n\r\n";
    s.write_all(burst.as_bytes()).unwrap();
    let (hdr, got) = read_response(&mut s);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert_eq!(got, b"<html>hello flash</html>\n");
    let (_, got) = read_response(&mut s);
    assert_eq!(got, b"subdir page");
    // A sendfile-tier body on the same keep-alive connection...
    s.write_all(b"GET /video.bin HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (hdr, got) = read_response(&mut s);
    assert!(hdr.contains("Connection: keep-alive"), "{hdr}");
    assert_eq!(got, body);
    // ...followed by a small cached one: no stray bytes, stream intact.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, got) = read_response(&mut s);
    assert_eq!(got, b"<html>hello flash</html>\n");
    assert!(server.stats().sendfile_calls() >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Shutdown with connections mid-flight — idle keep-alive, a
/// half-sent request header — must complete promptly and close every
/// connection rather than hang in a join.
fn run_accept_shutdown_with_inflight(tag: &str, pins: Pins, mode: AcceptMode) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(2)
            .accept_mode(mode)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    // An established keep-alive connection (request served, parked).
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    idle.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut idle);
    // A connection with a half-sent request header.
    let mut partial = TcpStream::connect(addr).unwrap();
    partial
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    partial.write_all(b"GET /index.html HT").unwrap();
    let started = std::time::Instant::now();
    server.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop() must not hang on in-flight connections: {:?}",
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Stopping the server must actually close every listener: the exact
/// address must be immediately rebindable by a fresh server in either
/// accept mode (a leaked per-shard reuseport socket would make the
/// non-reuseport rebind fail forever).
fn run_accept_port_rebind_after_stop(tag: &str, pins: Pins, mode: AcceptMode) {
    let root = docroot(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(2)
            .accept_mode(mode)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
    server.stop();
    // Rebind the same port in single mode — which holds the only
    // listener, so any leaked reuseport socket from the first server
    // would fail this bind.
    let server2 = Server::start(
        addr,
        cfg(&root, pins)
            .event_loops(2)
            .accept_mode(AcceptMode::Single)
            .build()
            .unwrap(),
    )
    .expect("port must be rebindable after stop");
    assert_eq!(server2.addr(), addr);
    let resp = get(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
    server2.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Content-cache staleness vs mtime: a cached file edited on disk must
/// stop being served from the stale bytes once the revalidation TTL
/// lapses, and an unchanged file must revalidate (cheap re-stat)
/// without a reload.
fn run_cache_revalidation(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let ttl = Duration::from_millis(100);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .cache_revalidate_ttl(Some(ttl))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    std::fs::write(root.join("live.html"), b"version one").unwrap();
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"version one");

    // Within the TTL the entry is trusted: no re-stat, no reload.
    let jobs_before = server.stats().helper_jobs();
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"version one");
    assert_eq!(
        server.stats().helper_jobs(),
        jobs_before,
        "a fresh hit must not touch the helper pool"
    );

    // Edit the file (different length, so the mismatch is visible even
    // within one mtime second), let the TTL lapse, and refetch: the
    // stale bytes must be evicted and the new content served.
    std::fs::write(root.join("live.html"), b"version two, longer").unwrap();
    std::thread::sleep(ttl + Duration::from_millis(150));
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(
        body_of(&resp),
        b"version two, longer",
        "stale cached bytes must not be served past the TTL"
    );
    assert!(
        server.stats().stale_evicted() >= 1,
        "the eviction must be counted"
    );

    // And the stale entry must stop 304-validating: a validator echoed
    // from the *old* version must not suppress the new body. (The new
    // 200 carries the new Last-Modified.)
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.contains("Content-Length: 19"), "{text}");

    // Unchanged file past the TTL: served from memory after a cheap
    // re-stat — a revalidation, not an eviction.
    std::thread::sleep(ttl + Duration::from_millis(150));
    let evicted_before = server.stats().stale_evicted();
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"version two, longer");
    assert!(
        server.stats().revalidations() >= 1,
        "the matching re-stat must be counted"
    );
    assert_eq!(
        server.stats().stale_evicted(),
        evicted_before,
        "an unchanged file must not be evicted"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The MT server applies the same revalidation policy inline.
fn run_mt_cache_revalidation(tag: &str, pins: Pins) {
    let root = docroot(tag);
    let ttl = Duration::from_millis(100);
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        cfg(&root, pins)
            .cache_revalidate_ttl(Some(ttl))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    std::fs::write(root.join("live.html"), b"mt version one").unwrap();
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"mt version one");
    std::fs::write(root.join("live.html"), b"mt version two!!").unwrap();
    std::thread::sleep(ttl + Duration::from_millis(150));
    let resp = get(addr, "GET /live.html HTTP/1.0\r\n\r\n");
    assert_eq!(body_of(&resp), b"mt version two!!");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A server whose content cache the batteries below can never hit: a
/// docroot of `t.html` behind a cache that holds five entries, which
/// [`fetch_fillers`] empties between two requests for the target, so
/// every request for it misses — `miss_helper` in miniature — and is
/// answered through the open-file table (or, where the residency test
/// or `cachestat` is unavailable, resolved by path). Returns the
/// server, its docroot, and whether the table is in play.
fn always_missing_server(
    tag: &str,
    pins: Pins,
    ttl: Duration,
) -> (Server, std::path::PathBuf, bool) {
    let root = docroot(tag);
    std::fs::write(root.join("t.html"), vec![b'a'; 1000]).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .cache_bytes(8_000)
            .sendfile_threshold_bytes(2_000)
            .cache_revalidate_ttl(Some(ttl))
            .build()
            .unwrap(),
    )
    .unwrap();
    let tabled = flash_net::sys::open_cached(&root.join("t.html"), false)
        .and_then(|f| flash_net::sys::pread_nowait(&f, &mut [0u8; 1], 0))
        .and_then(|_| std::fs::File::open(root.join("t.html")))
        .and_then(|f| flash_net::sys::resident(&f, 1))
        .is_ok();
    (server, root, tabled)
}

/// Pushes whatever was fetched before out of the content cache: seven
/// files nobody has asked for yet, each loaded by path and cached. (A
/// name asked for again is answered from the open-file table's
/// descriptor, which caches nothing and pushes nothing out.)
fn fetch_fillers(addr: std::net::SocketAddr, root: &std::path::Path) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    for _ in 0..7 {
        let name = format!("fill{}.html", NEXT.fetch_add(1, Ordering::Relaxed));
        std::fs::write(root.join(&name), vec![b'f'; 1000]).unwrap();
        let resp = get(addr, &format!("GET /{name} HTTP/1.0\r\n\r\n"));
        assert_eq!(body_of(&resp), vec![b'f'; 1000]);
    }
}

/// What the open-file table may not hide. With a 10 s TTL — so only
/// the per-use descriptor checks can explain a fresh answer — a
/// rewrite in place, a delete and a rename-over each show on the very
/// next request, although the request before it was answered from the
/// table's descriptor.
fn run_open_file_table_sees_every_change_to_a_file(tag: &str, pins: Pins) {
    let (server, root, tabled) = always_missing_server(tag, pins, Duration::from_secs(10));
    let addr = server.addr();
    let target = root.join("t.html");
    let fetch = || get(addr, "GET /t.html HTTP/1.0\r\n\r\n");
    // Leaves `t.html` held by the table and absent from the content
    // cache: its next answer comes from the held descriptor.
    let settle = |want: &[u8]| {
        for _ in 0..2 {
            fetch_fillers(addr, &root);
            assert_eq!(body_of(&fetch()), want);
        }
        fetch_fillers(addr, &root);
    };
    settle(&[b'a'; 1000]);
    let old = String::from_utf8_lossy(&fetch()).into_owned();
    let hits = server.stats().open_file_hits();
    assert_eq!(hits > 0, tabled, "open_file_hits {hits}");
    fetch_fillers(addr, &root);

    // Rewritten in place to another length.
    std::fs::write(&target, vec![b'b'; 1500]).unwrap();
    let resp = fetch();
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert_eq!(body_of(&resp), vec![b'b'; 1500], "{text}");
    assert_eq!(
        hdr_value(&text, "Content-Length").as_deref(),
        Some("1500"),
        "{text}"
    );
    assert_ne!(hdr_value(&text, "ETag"), hdr_value(&old, "ETag"), "{text}");
    settle(&[b'b'; 1500]);

    // Deleted.
    std::fs::remove_file(&target).unwrap();
    let resp = fetch();
    assert!(
        resp.starts_with(b"HTTP/1.1 404"),
        "{}",
        String::from_utf8_lossy(&resp)
    );
    std::fs::write(&target, vec![b'c'; 1200]).unwrap();
    settle(&[b'c'; 1200]);

    // Renamed over.
    std::fs::write(root.join("new.tmp"), vec![b'd'; 1200]).unwrap();
    std::fs::rename(root.join("new.tmp"), &target).unwrap();
    assert_eq!(body_of(&fetch()), vec![b'd'; 1200]);

    let stats = server.stats();
    assert_eq!(stats.cache_hits(), 0, "the cycle must always miss");
    assert_eq!(
        (stats.revalidations(), stats.stale_evicted()),
        (0, 0),
        "the TTL never came into it"
    );
    assert_eq!(stats.open_file_hits() > hits, tabled);
    // The table's answers went out by `sendfile`.
    assert_eq!(stats.bytes_sendfile() > 0, tabled);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// What the table *may* hide, and for how long: a change to what the
/// **name** means, with the old file still linked where it was — a
/// symlinked directory flipped from one tree to another, a `.gz`
/// sibling added — shows within `cache_revalidate_ttl` of the change,
/// the same promise a content-cache hit makes. The sharp case is a
/// table entry about to lapse that answers once more: its descriptor
/// answer caches nothing, so the next requests ask the table again
/// and the binding lapses on time. (The TTL here is long enough that
/// twice it is past the slack the assertion allows.)
fn run_open_file_table_name_binding_lapses_with_the_ttl(tag: &str, pins: Pins) {
    let ttl = Duration::from_millis(400);
    let bound = ttl + Duration::from_millis(150);
    let (server, root, tabled) = always_missing_server(tag, pins, ttl);
    let addr = server.addr();
    for (tree, byte) in [("v1", b'1'), ("v2", b'2')] {
        std::fs::create_dir(root.join(tree)).unwrap();
        std::fs::write(root.join(tree).join("page.html"), vec![byte; 1100]).unwrap();
    }
    std::os::unix::fs::symlink("v1", root.join("current")).unwrap();
    let gz: &[u8] = b"pretend these are gzip bytes";

    type Change<'a> = &'a dyn Fn();
    let flip: Change = &|| {
        std::os::unix::fs::symlink("v2", root.join("next")).unwrap();
        std::fs::rename(root.join("next"), root.join("current")).unwrap();
    };
    let add_sibling: Change = &|| std::fs::write(root.join("t.html.gz"), gz).unwrap();
    let cases: [(&str, Vec<u8>, Change, Vec<u8>); 2] = [
        (
            "/current/page.html",
            vec![b'1'; 1100],
            flip,
            vec![b'2'; 1100],
        ),
        ("/t.html", vec![b'a'; 1000], add_sibling, gz.to_vec()),
    ];
    for (path, before, change, after) in cases {
        let fetch = || {
            get(
                addr,
                &format!("GET {path} HTTP/1.0\r\nAccept-Encoding: gzip\r\n\r\n"),
            )
        };
        // Fetch until the name is resolved inline, into the table: a
        // helper answers first and leaves every lookup cached (for a
        // symlink that includes an atime the kernel is content with).
        // Before each try, whatever the table holds for the name
        // lapses and the content cache forgets it.
        let mut tries = 0;
        let resolved = loop {
            std::thread::sleep(ttl);
            fetch_fillers(addr, &root);
            let (inline, at) = (server.stats().inline_jobs(), std::time::Instant::now());
            assert_eq!(body_of(&fetch()), before, "{path}");
            if !tabled || server.stats().inline_jobs() > inline {
                break at;
            }
            tries += 1;
            assert!(tries < 5, "{path} is never resolved inline");
        };
        change();
        let changed = std::time::Instant::now();
        // Just before the binding lapses, a content-cache miss answers
        // from it once more — legitimately: the TTL is not up.
        fetch_fillers(addr, &root);
        std::thread::sleep((ttl - Duration::from_millis(60)).saturating_sub(resolved.elapsed()));
        let hits = server.stats().open_file_hits();
        let resp = fetch();
        if tabled && resolved.elapsed() < ttl {
            assert_eq!(body_of(&resp), before, "{path}: the binding had not lapsed");
            assert_eq!(server.stats().open_file_hits(), hits + 1, "{path}");
        }
        // From here on only the table's entry is asked.
        loop {
            let resp = fetch();
            let late = changed.elapsed();
            if body_of(&resp) == after {
                let text = String::from_utf8_lossy(&resp).into_owned();
                assert_eq!(
                    hdr_value(&text, "Content-Encoding").is_some(),
                    path == "/t.html",
                    "{text}"
                );
                eprintln!("{tag} {path}: fresh {late:?} after the change (TTL {ttl:?})");
                break;
            }
            assert_eq!(body_of(&resp), before, "{path}");
            assert!(
                late < bound,
                "{path}: still stale {late:?} after the change"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A held file is answered under the head its table entry keeps, and
/// that head never outlives the file it describes. While the file is
/// unchanged, its `ETag` in `If-None-Match` is a `304` from the held
/// head. Rewritten in place to the same length with a new mtime, it is
/// answered under a new `ETag` and `Last-Modified` at once — the
/// per-use check drops the entry, head and all — and, held again, the
/// old tag is a `200`. Unlinked, it is a `404`.
fn run_held_file_answers_under_current_validators(tag: &str, pins: Pins) {
    let (server, root, tabled) = always_missing_server(tag, pins, Duration::from_secs(10));
    let addr = server.addr();
    let target = root.join("t.html");
    let fetch = |extra: &str| get(addr, &format!("GET /t.html HTTP/1.0\r\n{extra}\r\n"));
    // Held by the table and pushed out of the content cache: every
    // fetch below but the first after the rewrite is a held answer.
    for _ in 0..2 {
        fetch_fillers(addr, &root);
        assert_eq!(body_of(&fetch("")), [b'a'; 1000]);
    }
    fetch_fillers(addr, &root);
    let hits = server.stats().open_file_hits();
    let old = String::from_utf8_lossy(&fetch("")).into_owned();
    assert_eq!(server.stats().open_file_hits() > hits, tabled, "{old}");
    let old_tag = hdr_value(&old, "ETag").expect("an ETag");
    let old_modified = hdr_value(&old, "Last-Modified").expect("a Last-Modified");
    let if_none_match = format!("If-None-Match: {old_tag}\r\n");
    fetch_fillers(addr, &root);
    let resp = fetch(&if_none_match);
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 304"), "{text}");

    // Same length, new bytes, an mtime a day later.
    let mtime = std::fs::metadata(&target).unwrap().modified().unwrap();
    std::fs::write(&target, [b'b'; 1000]).unwrap();
    let file = std::fs::File::options().write(true).open(&target).unwrap();
    file.set_modified(mtime + Duration::from_secs(86_400))
        .unwrap();
    fetch_fillers(addr, &root);
    let resp = fetch("");
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert_eq!(body_of(&resp), [b'b'; 1000], "{text}");
    assert_ne!(hdr_value(&text, "ETag"), Some(old_tag.clone()), "{text}");
    assert_ne!(
        hdr_value(&text, "Last-Modified"),
        Some(old_modified),
        "{text}"
    );
    for _ in 0..2 {
        fetch_fillers(addr, &root);
        let hits = server.stats().open_file_hits();
        let resp = fetch(&if_none_match);
        let text = String::from_utf8_lossy(&resp).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert_eq!(body_of(&resp), [b'b'; 1000], "{text}");
        assert_eq!(server.stats().open_file_hits() > hits, tabled, "{text}");
    }

    fetch_fillers(addr, &root);
    std::fs::remove_file(&target).unwrap();
    let resp = fetch("");
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 404"), "{text}");
    assert_eq!(
        server.stats().cache_hits(),
        0,
        "the target must always miss"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_backend_resolution(tag: &str, backend: BackendChoice, expect: BackendChoice) {
    let root = docroot(tag);
    let cfg = NetConfig::builder(&root).backend(backend).build().unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    assert_eq!(server.backend(), expect);
    // Sanity: the resolved backend actually serves.
    let resp = get(server.addr(), "GET /index.html HTTP/1.0\r\n\r\n");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200"));
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Extracts a header value (case-insensitive name) from response text.
fn hdr_value(text: &str, name: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(": ")?;
        k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

/// Reads one bodyless keep-alive response's header text off `s`.
fn read_header_only(s: &mut TcpStream) -> String {
    let mut hdr = Vec::new();
    let mut byte = [0u8; 1];
    while !hdr.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).unwrap();
        hdr.push(byte[0]);
    }
    String::from_utf8_lossy(&hdr).into_owned()
}

/// Single-range behavior every driver must share, run against whichever
/// server listens at `addr`: 206 spans and suffixes with exact
/// `Content-Range`, HEAD carrying the 206 plan bodylessly, past-EOF →
/// 416 in the `bytes */<len>` form on a connection that stays
/// serviceable, inverted bounds degrading to the full 200, and
/// `If-Range` gating on the strong validator.
fn check_range_parity(addr: std::net::SocketAddr, name: &str, full: &[u8]) {
    let total = full.len();
    // Plain 200 first: grabs the validator If-Range will echo.
    let resp = get(addr, &format!("GET /{name} HTTP/1.0\r\n\r\n"));
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    let etag = hdr_value(&text, "ETag").expect("200 must carry ETag");
    assert_eq!(body_of(&resp), full);

    // A mid-body span → 206 with the exact window.
    let resp = get(
        addr,
        &format!("GET /{name} HTTP/1.0\r\nRange: bytes=5-20\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 206 Partial Content"), "{text}");
    assert_eq!(
        hdr_value(&text, "Content-Range").as_deref(),
        Some(format!("bytes 5-20/{total}").as_str())
    );
    assert_eq!(hdr_value(&text, "Content-Length").as_deref(), Some("16"));
    assert_eq!(body_of(&resp), &full[5..=20]);

    // Suffix form: the final 7 bytes.
    let resp = get(
        addr,
        &format!("GET /{name} HTTP/1.0\r\nRange: bytes=-7\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 206"), "{text}");
    assert_eq!(body_of(&resp), &full[total - 7..]);
    assert_eq!(
        hdr_value(&text, "Content-Range").as_deref(),
        Some(format!("bytes {}-{}/{total}", total - 7, total - 1).as_str())
    );

    // HEAD + Range: the 206 header plan, zero body bytes.
    let resp = get(
        addr,
        &format!("HEAD /{name} HTTP/1.0\r\nRange: bytes=5-20\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 206"), "{text}");
    assert_eq!(hdr_value(&text, "Content-Length").as_deref(), Some("16"));
    assert!(body_of(&resp).is_empty(), "HEAD must carry no body: {text}");

    // Past-EOF → 416 with the star form, and the connection survives.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        format!(
            "GET /{name} HTTP/1.1\r\nHost: t\r\nRange: bytes={}-\r\n\r\n",
            total + 10
        )
        .as_bytes(),
    )
    .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(
        text.starts_with("HTTP/1.1 416 Range Not Satisfiable"),
        "{text}"
    );
    assert_eq!(
        hdr_value(&text, "Content-Range").as_deref(),
        Some(format!("bytes */{total}").as_str())
    );
    assert!(
        text.contains("Connection: keep-alive"),
        "a 416 must not cost the connection: {text}"
    );
    s.write_all(format!("GET /{name} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "after a 416: {text}");
    assert_eq!(body, full);

    // Inverted bounds are malformed: dropped at parse → the full 200.
    let resp = get(
        addr,
        &format!("GET /{name} HTTP/1.0\r\nRange: bytes=20-5\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body_of(&resp), full);

    // If-Range: the current validator applies the range...
    let resp = get(
        addr,
        &format!("GET /{name} HTTP/1.0\r\nRange: bytes=0-3\r\nIf-Range: {etag}\r\n\r\n"),
    );
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 206"));
    assert_eq!(body_of(&resp), &full[..4]);
    // ...a stale one degrades to the full representation.
    let resp = get(
        addr,
        &format!("GET /{name} HTTP/1.0\r\nRange: bytes=0-3\r\nIf-Range: \"stale\"\r\n\r\n"),
    );
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"));
    assert_eq!(body_of(&resp), full);
}

/// Conditional-request precedence every driver must share: strong
/// `ETag` on the 200, `If-None-Match` deciding alone when present (a
/// match 304s past a stale `If-Modified-Since`; a mismatch serves 200
/// past a current one), and `*` matching any representation.
fn check_etag_conditional(addr: std::net::SocketAddr, name: &str, full: &[u8]) {
    let resp = get(addr, &format!("GET /{name} HTTP/1.0\r\n\r\n"));
    let text = String::from_utf8_lossy(&resp).into_owned();
    let etag = hdr_value(&text, "ETag").expect("200 must carry ETag");
    assert!(
        etag.starts_with('"') && etag.ends_with('"'),
        "strong quoted form: {etag}"
    );
    let lm = hdr_value(&text, "Last-Modified").expect("200 must carry Last-Modified");

    // Exact match → bodyless 304 repeating the tag, keep-alive intact.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        format!("GET /{name} HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let text = read_header_only(&mut s);
    assert!(text.starts_with("HTTP/1.1 304"), "{text}");
    assert!(!text.contains("Content-Length"), "304 is bodyless: {text}");
    assert_eq!(hdr_value(&text, "ETag").as_deref(), Some(etag.as_str()));

    // The match wins over a stale If-Modified-Since on the same request.
    s.write_all(
        format!(
            "GET /{name} HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\n\
             If-Modified-Since: Thu, 01 Jan 1970 00:00:00 GMT\r\n\r\n"
        )
        .as_bytes(),
    )
    .unwrap();
    let text = read_header_only(&mut s);
    assert!(
        text.starts_with("HTTP/1.1 304"),
        "INM match must override a stale IMS: {text}"
    );

    // `*` matches any current representation.
    s.write_all(format!("GET /{name} HTTP/1.1\r\nHost: t\r\nIf-None-Match: *\r\n\r\n").as_bytes())
        .unwrap();
    let text = read_header_only(&mut s);
    assert!(text.starts_with("HTTP/1.1 304"), "{text}");
    drop(s);

    // A mismatch serves 200 even though If-Modified-Since alone would
    // have said 304 — If-None-Match decides alone when present.
    let resp = get(
        addr,
        &format!(
            "GET /{name} HTTP/1.0\r\nIf-None-Match: \"other\"\r\nIf-Modified-Since: {lm}\r\n\r\n"
        ),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(
        text.starts_with("HTTP/1.1 200 OK"),
        "INM mismatch must override a current IMS: {text}"
    );
    assert_eq!(body_of(&resp), full);
}

/// Precompressed-variant negotiation every driver must share: an
/// `Accept-Encoding: gzip` client gets the `.gz` sibling's bytes under
/// `Content-Encoding: gzip` + `Vary`, a plain client the identity
/// bytes (still with `Vary` — the resource negotiates), a resource
/// with no sibling falls back silently, and the gzip representation
/// revalidates under its own `ETag`.
fn check_gzip_variant(
    addr: std::net::SocketAddr,
    gz_name: &str,
    identity: &[u8],
    gz: &[u8],
    plain_name: &str,
) {
    let resp = get(
        addr,
        &format!("GET /{gz_name} HTTP/1.0\r\nAccept-Encoding: gzip\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(
        hdr_value(&text, "Content-Encoding").as_deref(),
        Some("gzip")
    );
    assert_eq!(
        hdr_value(&text, "Vary").as_deref(),
        Some("Accept-Encoding"),
        "{text}"
    );
    assert_eq!(
        hdr_value(&text, "Content-Length").as_deref(),
        Some(gz.len().to_string().as_str()),
        "the gzip response describes the bytes actually sent"
    );
    assert_eq!(body_of(&resp), gz);
    let gz_etag = hdr_value(&text, "ETag").expect("gzip 200 must carry ETag");
    assert!(
        gz_etag.ends_with("-gz\""),
        "gzip representation gets its own validator: {gz_etag}"
    );

    // Plain client: identity bytes, no Content-Encoding, Vary present.
    let resp = get(addr, &format!("GET /{gz_name} HTTP/1.0\r\n\r\n"));
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(hdr_value(&text, "Content-Encoding").is_none(), "{text}");
    assert_eq!(hdr_value(&text, "Vary").as_deref(), Some("Accept-Encoding"));
    assert_eq!(body_of(&resp), identity);
    let id_etag = hdr_value(&text, "ETag").expect("identity 200 must carry ETag");
    assert_ne!(
        id_etag, gz_etag,
        "the two representations never share a validator"
    );

    // No sibling: the gzip preference falls back to identity, with no
    // Content-Encoding and no Vary (nothing to negotiate).
    let resp = get(
        addr,
        &format!("GET /{plain_name} HTTP/1.0\r\nAccept-Encoding: gzip\r\n\r\n"),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(hdr_value(&text, "Content-Encoding").is_none(), "{text}");
    assert!(hdr_value(&text, "Vary").is_none(), "{text}");

    // The gzip representation revalidates under its own tag.
    let resp = get(
        addr,
        &format!(
            "GET /{gz_name} HTTP/1.0\r\nAccept-Encoding: gzip\r\nIf-None-Match: {gz_etag}\r\n\r\n"
        ),
    );
    let text = String::from_utf8_lossy(&resp).into_owned();
    assert!(text.starts_with("HTTP/1.1 304"), "{text}");
}

/// Fixture set shared by the parity runners: a patterned file on each
/// body tier plus a negotiated resource with a `.gz` sibling.
fn parity_root(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u8>) {
    let root = docroot(tag);
    let pat: Vec<u8> = (0..4096usize).map(|i| (i * 31 + 7) as u8).collect();
    let patbig: Vec<u8> = (0..24 * 1024usize).map(|i| (i * 7 + 11) as u8).collect();
    std::fs::write(root.join("pat.bin"), &pat).unwrap();
    std::fs::write(root.join("patbig.bin"), &patbig).unwrap();
    std::fs::write(root.join("z.html"), b"<html>identity z</html>").unwrap();
    std::fs::write(root.join("z.html.gz"), b"\x1f\x8b-simulated-gz-z").unwrap();
    std::fs::write(root.join("plain.html"), b"no sibling here").unwrap();
    (root, pat, patbig)
}

/// The full 206/416/ETag-304/gzip-variant battery against one server
/// address; returns only when every cross-tier assert held.
fn check_send_plane(addr: std::net::SocketAddr, pat: &[u8], patbig: &[u8]) {
    // pat.bin sits below the 8 KiB threshold (cached/writev tier),
    // patbig.bin above it (sendfile window tier).
    check_range_parity(addr, "pat.bin", pat);
    check_range_parity(addr, "patbig.bin", patbig);
    check_etag_conditional(addr, "pat.bin", pat);
    check_etag_conditional(addr, "patbig.bin", patbig);
    check_gzip_variant(
        addr,
        "z.html",
        b"<html>identity z</html>",
        b"\x1f\x8b-simulated-gz-z",
        "plain.html",
    );
}

fn run_send_plane_parity(tag: &str, pins: Pins) {
    let (root, pat, patbig) = parity_root(tag);
    let server = Server::start(
        "127.0.0.1:0",
        cfg(&root, pins)
            .event_loops(1)
            .sendfile_threshold_bytes(8 * 1024)
            .build()
            .unwrap(),
    )
    .unwrap();
    check_send_plane(server.addr(), &pat, &patbig);
    let stats = server.stats();
    assert!(
        stats.range_requests() >= 10,
        "both tiers' range traffic must be counted: {}",
        stats.range_requests()
    );
    assert_eq!(stats.range_unsatisfiable(), 2, "one 416 per tier");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

fn run_mt_send_plane_parity(tag: &str, pins: Pins) {
    let (root, pat, patbig) = parity_root(tag);
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        cfg(&root, pins)
            .sendfile_threshold_bytes(8 * 1024)
            .build()
            .unwrap(),
    )
    .unwrap();
    check_send_plane(server.addr(), &pat, &patbig);
    let stats = server.stats();
    assert!(
        stats.range_requests() >= 10,
        "MT must count range traffic identically: {}",
        stats.range_requests()
    );
    assert_eq!(stats.range_unsatisfiable(), 2);
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Property test: seeded random `(offset, len)` windows — plus the
/// crafted full-body, final-byte, and threshold-straddling windows —
/// must come back byte-exact with exact `Content-Range` on both body
/// tiers. `mt` selects the driver; the window list is identical.
fn run_random_range_windows(tag: &str, pins: Pins, mt: bool) {
    const T: u64 = 8 * 1024;
    let root = docroot(tag);
    let small: Vec<u8> = (0..(T as usize / 2)).map(|i| (i * 13 + 3) as u8).collect();
    let big: Vec<u8> = (0..(3 * T as usize)).map(|i| (i * 29 + 5) as u8).collect();
    std::fs::write(root.join("wsmall.bin"), &small).unwrap();
    std::fs::write(root.join("wbig.bin"), &big).unwrap();
    let c = cfg(&root, pins)
        .event_loops(1)
        .sendfile_threshold_bytes(T)
        .build()
        .unwrap();
    // Both drivers behind the one ServeHandle surface: no per-server
    // match arms anywhere below.
    let kind = if mt {
        ServerKind::Mt
    } else {
        ServerKind::Amped
    };
    let srv = flash_net::handle::start(kind, "127.0.0.1:0", c).unwrap();
    let addr = srv.local_addr();
    let mut rng = SimRng::new(0x51D3);
    let mut big_window_bytes = 0u64;
    for (name, body) in [("wsmall.bin", &small), ("wbig.bin", &big)] {
        let len = body.len() as u64;
        let mut windows: Vec<(u64, u64)> = vec![(0, len), (len - 1, 1)];
        if len > T {
            // A window straddling the sendfile threshold offset.
            windows.push((T - 1, 2));
        }
        for _ in 0..20 {
            let off = rng.uniform(0, len);
            windows.push((off, 1 + rng.uniform(0, len - off)));
        }
        for (off, l) in windows {
            let last = off + l - 1;
            if len > T {
                big_window_bytes += l;
            }
            let resp = get(
                addr,
                &format!("GET /{name} HTTP/1.0\r\nRange: bytes={off}-{last}\r\n\r\n"),
            );
            let text = String::from_utf8_lossy(&resp).into_owned();
            assert!(
                text.starts_with("HTTP/1.1 206"),
                "{name} window {off}+{l}: {text}"
            );
            assert_eq!(
                hdr_value(&text, "Content-Range").as_deref(),
                Some(format!("bytes {off}-{last}/{len}").as_str()),
                "{name} window {off}+{l}"
            );
            assert_eq!(
                body_of(&resp),
                &body[off as usize..=last as usize],
                "{name} window {off}+{l} must be byte-exact"
            );
        }
    }
    // Every wbig window rides the sendfile seam — the tier follows the
    // representation's size, not the window's.
    assert_eq!(
        srv.stats().bytes_sendfile(),
        big_window_bytes,
        "sendfile must move exactly the windowed bytes"
    );
    srv.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Instantiates the full suite for one pinned backend and accept mode;
/// test names keep their historical `amped_*`/`mt_*` forms inside a
/// per-backend module.
macro_rules! backend_suite {
    ($modname:ident, $backend:expr, $accept_mode:expr) => {
        mod $modname {
            use super::*;

            const PINS: Pins = Pins {
                backend: $backend,
                accept_mode: $accept_mode,
            };

            fn tag(name: &str) -> String {
                format!("{}-{name}", stringify!($modname))
            }

            #[test]
            fn amped_serves_files_and_404s() {
                run_serves_files_and_404s(&tag("serves"), PINS);
            }

            #[test]
            fn amped_second_request_hits_cache() {
                run_second_request_hits_cache(&tag("cache"), PINS);
            }

            #[test]
            fn amped_persistent_connection_serves_multiple_requests() {
                run_persistent_connection(&tag("keepalive"), PINS);
            }

            #[test]
            fn amped_streams_large_files_intact() {
                run_streams_large_files_intact(&tag("large"), PINS);
            }

            #[test]
            fn amped_sendfile_threshold_straddle_is_byte_exact() {
                run_sendfile_threshold_straddle(&tag("straddle"), PINS);
            }

            #[test]
            fn amped_sendfile_preserves_keep_alive() {
                run_sendfile_preserves_keep_alive(&tag("sf-keepalive"), PINS);
            }

            #[test]
            fn amped_head_on_large_file_sends_no_body() {
                run_head_on_large_file(&tag("sf-head"), PINS);
            }

            #[test]
            fn amped_large_bodies_never_enter_the_content_cache() {
                run_large_bodies_never_enter_cache(&tag("sf-cache"), PINS);
            }

            #[test]
            fn amped_handles_concurrent_clients() {
                run_concurrent_clients(&tag("concurrent"), PINS);
            }

            #[test]
            fn amped_pipelined_keep_alive_requests_on_one_connection() {
                run_pipelined_keep_alive(&tag("pipeline"), PINS);
            }

            #[test]
            fn amped_single_mode_shards_share_one_socket() {
                run_single_mode_shards_share_one_socket(&tag("shards"), PINS);
            }

            #[test]
            fn amped_cache_hit_is_one_writev_call() {
                run_cache_hit_is_one_writev(&tag("writev"), PINS);
            }

            #[test]
            fn amped_rejects_bad_requests_and_post() {
                run_rejects_bad_requests_and_post(&tag("bad"), PINS);
            }

            #[test]
            fn amped_body_of_a_get_is_not_a_request() {
                run_body_is_not_a_request(&tag("body"), PINS, ServerKind::Amped);
            }

            #[test]
            fn mt_body_of_a_get_is_not_a_request() {
                run_body_is_not_a_request(&tag("mt-body"), PINS, ServerKind::Mt);
            }

            #[test]
            fn amped_head_returns_headers_only() {
                run_head_returns_headers_only(&tag("head"), PINS);
            }

            #[test]
            fn amped_headers_are_alignment_padded() {
                run_headers_are_alignment_padded(&tag("align"), PINS);
            }

            #[test]
            fn amped_half_close_behind_requests_closes_at_eof() {
                run_half_close_behind_requests(&tag("halfclose"), PINS);
            }

            #[test]
            fn amped_reaps_idle_keep_alive_connections() {
                run_idle_reaper(&tag("reaper"), PINS);
            }

            #[test]
            fn amped_slow_header_sender_hits_read_deadline() {
                run_slow_header_deadline(&tag("slowhdr"), PINS);
            }

            #[test]
            fn amped_stalled_body_reader_hits_write_deadline() {
                run_stalled_reader_deadline(&tag("stallrd"), PINS);
            }

            #[test]
            fn amped_steady_reader_outlives_write_deadline() {
                // The whole body in sips: ≈ 1.6 s, four deadlines.
                run_slow_but_steady_reader_survives(
                    &tag("steady"),
                    PINS,
                    ServerKind::Amped,
                    2_000_000,
                    125_000,
                );
            }

            /// MT's sends block for as long as the client takes: a body
            /// larger than the loopback socket buffers absorb, sipped so
            /// that one 1 MiB `sendfile` visit spans two deadlines — a
            /// deadline counted from a clock read before the visit would
            /// be armed already lapsed. (Slower than a shard can be
            /// asked to go: it learns of progress a writable event at a
            /// time, a third of the send buffer apart.)
            #[test]
            fn mt_steady_reader_outlives_write_deadline() {
                run_slow_but_steady_reader_survives(
                    &tag("mt-steady"),
                    PINS,
                    ServerKind::Mt,
                    8 << 20,
                    128 << 10,
                );
            }

            #[test]
            fn amped_if_modified_since_both_tiers() {
                run_if_modified_since(&tag("ims"), PINS);
            }

            #[test]
            fn amped_date_header_is_current() {
                run_date_header_is_current(&tag("date"), PINS);
            }

            #[test]
            fn amped_connection_header_token_list() {
                run_connection_token_list(&tag("connlist"), PINS);
            }

            #[test]
            fn amped_reuseport_accept_distribution_covers_all_shards() {
                run_reuseport_accept_distribution(&tag("rp-dist"), PINS);
            }

            #[test]
            fn amped_accept_mode_single_full_protocol_parity() {
                run_accept_mode_parity(&tag("parity-single"), PINS, AcceptMode::Single);
            }

            #[test]
            fn amped_accept_mode_reuseport_full_protocol_parity() {
                run_accept_mode_parity(&tag("parity-rp"), PINS, AcceptMode::ReusePort);
            }

            #[test]
            fn amped_accept_shutdown_with_inflight_connections_single() {
                run_accept_shutdown_with_inflight(&tag("shut-single"), PINS, AcceptMode::Single);
            }

            #[test]
            fn amped_accept_shutdown_with_inflight_connections_reuseport() {
                run_accept_shutdown_with_inflight(&tag("shut-rp"), PINS, AcceptMode::ReusePort);
            }

            #[test]
            fn amped_accept_port_rebinds_after_stop_single() {
                run_accept_port_rebind_after_stop(&tag("rebind-single"), PINS, AcceptMode::Single);
            }

            #[test]
            fn amped_accept_port_rebinds_after_stop_reuseport() {
                run_accept_port_rebind_after_stop(&tag("rebind-rp"), PINS, AcceptMode::ReusePort);
            }

            #[test]
            fn amped_cache_revalidates_entries_past_ttl() {
                run_cache_revalidation(&tag("revalidate"), PINS);
            }

            #[test]
            fn amped_open_file_table_sees_every_change_to_a_file() {
                run_open_file_table_sees_every_change_to_a_file(&tag("oft-fresh"), PINS);
            }

            #[test]
            fn amped_open_file_table_name_binding_lapses_with_the_ttl() {
                run_open_file_table_name_binding_lapses_with_the_ttl(&tag("oft-ttl"), PINS);
            }

            #[test]
            fn amped_held_file_answers_under_current_validators() {
                run_held_file_answers_under_current_validators(&tag("oft-head"), PINS);
            }

            #[test]
            fn mt_cache_revalidates_entries_past_ttl() {
                run_mt_cache_revalidation(&tag("mt-revalidate"), PINS);
            }

            #[test]
            fn amped_send_plane_range_etag_gzip_parity() {
                run_send_plane_parity(&tag("plane"), PINS);
            }

            #[test]
            fn mt_send_plane_range_etag_gzip_parity() {
                run_mt_send_plane_parity(&tag("mt-plane"), PINS);
            }

            #[test]
            fn amped_random_range_windows_byte_exact() {
                run_random_range_windows(&tag("windows"), PINS, false);
            }

            #[test]
            fn mt_random_range_windows_byte_exact() {
                run_random_range_windows(&tag("mt-windows"), PINS, true);
            }

            #[test]
            fn mt_server_serves_and_shares_cache() {
                run_mt_server(&tag("mt"), PINS);
            }

            #[test]
            fn mt_deadline_and_not_modified_parity() {
                run_mt_deadline_and_304(&tag("mt-deadline"), PINS);
            }
        }
    };
}

backend_suite!(epoll_backend, BackendChoice::Epoll, AcceptMode::ReusePort);
backend_suite!(poll_backend, BackendChoice::Poll, AcceptMode::Single);

#[test]
fn poll_choice_resolves_to_poll_everywhere() {
    run_backend_resolution("resolve-poll", BackendChoice::Poll, BackendChoice::Poll);
}

#[test]
fn epoll_choice_resolves_to_platform_best() {
    let expect = if cfg!(any(target_os = "linux", target_os = "android")) {
        BackendChoice::Epoll
    } else {
        BackendChoice::Poll
    };
    run_backend_resolution("resolve-epoll", BackendChoice::Epoll, expect);
}

/// Serves a *real* `gzip(1)`-produced sibling, not the simulated
/// pattern bytes the other variant tests use. CI generates the
/// fixture pair in the workflow and points `FLASH_GZ_FIXTURE` at it;
/// when the variable is unset the test produces its own pair by
/// shelling out to the system `gzip`, and skips if none is installed.
/// Both drivers must hand back the compressed bytes verbatim — full
/// body and a `Range` window carved out of the gzip representation.
#[test]
fn real_gzip_fixture_range_and_variant_parity() {
    let fixture = match std::env::var_os("FLASH_GZ_FIXTURE") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let dir = docroot("real-gz-fixture");
            std::fs::write(
                dir.join("page.html"),
                b"<html>real gzip fixture body for the send plane</html>\n",
            )
            .unwrap();
            let status = std::process::Command::new("gzip")
                .args(["-k", "-9"])
                .arg(dir.join("page.html"))
                .status();
            match status {
                Ok(s) if s.success() => dir,
                _ => {
                    eprintln!("skipping: no usable gzip(1) and FLASH_GZ_FIXTURE unset");
                    let _ = std::fs::remove_dir_all(&dir);
                    return;
                }
            }
        }
    };
    let identity = std::fs::read(fixture.join("page.html")).expect("fixture page.html");
    let gz = std::fs::read(fixture.join("page.html.gz")).expect("fixture page.html.gz");
    assert!(
        gz.starts_with(&[0x1f, 0x8b]),
        "fixture sibling must be real gzip output"
    );

    let root = docroot("real-gz-serve");
    std::fs::write(root.join("page.html"), &identity).unwrap();
    std::fs::write(root.join("page.html.gz"), &gz).unwrap();

    let check = |addr: std::net::SocketAddr| {
        // Full negotiated body: byte-for-byte the compressor's output.
        let resp = get(
            addr,
            "GET /page.html HTTP/1.0\r\nAccept-Encoding: gzip\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&resp).into_owned();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert_eq!(
            hdr_value(&text, "Content-Encoding").as_deref(),
            Some("gzip"),
            "{text}"
        );
        assert_eq!(body_of(&resp), &gz[..]);

        // A window over the gzip representation: the range applies to
        // the negotiated bytes, not the identity ones.
        let last = gz.len() - 2;
        let resp = get(
            addr,
            &format!(
                "GET /page.html HTTP/1.0\r\nAccept-Encoding: gzip\r\nRange: bytes=3-{last}\r\n\r\n"
            ),
        );
        let text = String::from_utf8_lossy(&resp).into_owned();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content"), "{text}");
        assert_eq!(
            hdr_value(&text, "Content-Range").as_deref(),
            Some(format!("bytes 3-{last}/{}", gz.len()).as_str())
        );
        assert_eq!(
            hdr_value(&text, "Content-Encoding").as_deref(),
            Some("gzip")
        );
        assert_eq!(body_of(&resp), &gz[3..=last]);

        // No Accept-Encoding: the identity body, untouched.
        let resp = get(addr, "GET /page.html HTTP/1.0\r\n\r\n");
        let text = String::from_utf8_lossy(&resp).into_owned();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(hdr_value(&text, "Content-Encoding").is_none(), "{text}");
        assert_eq!(body_of(&resp), &identity[..]);
    };

    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root).event_loops(1).build().unwrap(),
    )
    .unwrap();
    check(server.addr());
    server.stop();

    let server = Server::start_as(ServerKind::Mt, "127.0.0.1:0", NetConfig::new(&root)).unwrap();
    check(server.addr());
    server.stop();

    let _ = std::fs::remove_dir_all(&root);
    if std::env::var_os("FLASH_GZ_FIXTURE").is_none() {
        let _ = std::fs::remove_dir_all(&fixture);
    }
}
