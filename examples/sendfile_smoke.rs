//! Large-file smoke test for the `sendfile(2)` body tier: starts the
//! real AMPED server on loopback, fetches a 64 MiB file (far above the
//! default 256 KiB threshold), and checks the response is byte-exact,
//! went out via `sendfile`, and never touched the content cache. A
//! second fetch must come through the descriptor the open-file table
//! kept from the first, and a third — after the file is truncated in
//! place — must carry the new length: the table re-reads `fstat` on
//! every use.
//!
//! Run with: `cargo run --release --example sendfile_smoke`
//! CI runs this on every push; it exits non-zero on any violation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use flash_repro::net::{NetConfig, Server};

const FILE_BYTES: usize = 64 * 1024 * 1024;

fn main() {
    let root = std::env::temp_dir().join(format!("flash-sendfile-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    // A recognizable 256-byte cycle so corruption anywhere in 64 MiB
    // is caught by the checksum below, not just the length.
    let payload: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 251) as u8).collect();
    std::fs::write(root.join("huge.bin"), &payload).unwrap();
    std::fs::write(root.join("index.html"), b"small and cacheable").unwrap();
    // Ask the kernel about the `.gz` sibling once, so the lookup that
    // finds none is cached: the event loop then answers even the first
    // request for `huge.bin` itself, and remembers the descriptor.
    assert!(std::fs::metadata(root.join("huge.bin.gz")).is_err());

    let cfg = NetConfig::builder(&root)
        .event_loops(1)
        .build()
        .expect("consistent config");
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();

    // Warm the small-file tier and snapshot cache residency.
    fetch(addr, "GET /index.html HTTP/1.0\r\n\r\n");
    let resident = server.stats().cache_used_bytes();
    assert!(resident > 0, "small file must be cached");

    let start = Instant::now();
    let resp = fetch(addr, "GET /huge.bin HTTP/1.0\r\n\r\n");
    let elapsed = start.elapsed();
    let body = &resp[resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4..];
    assert_eq!(body.len(), FILE_BYTES, "body length mismatch");
    assert_eq!(body, &payload[..], "body bytes mismatch");

    let stats = server.stats();
    assert!(stats.sendfile_calls() > 0, "sendfile tier not exercised");
    assert_eq!(
        stats.bytes_sendfile(),
        FILE_BYTES as u64,
        "all body bytes must flow through sendfile"
    );
    assert_eq!(
        stats.cache_used_bytes(),
        resident,
        "large body must not enter the content cache"
    );

    // Again: the same bytes, through the descriptor the first fetch
    // left in the open-file table — where the kernel has the cached-
    // only calls at all (elsewhere a helper opens it again, by path).
    let tabled = stats.open_files() > 0;
    let (hits, held) = (stats.open_file_hits(), stats.open_files());
    let resp = fetch(addr, "GET /huge.bin HTTP/1.0\r\n\r\n");
    assert!(
        resp.ends_with(&payload) && resp.len() - payload.len() < 1024,
        "second fetch not byte-exact"
    );
    assert_eq!(
        (stats.open_file_hits(), stats.open_files()),
        (hits + tabled as u64, held),
        "the second fetch must reuse the held descriptor"
    );

    // Truncated in place: the held descriptor still names the file,
    // but its `fstat` no longer agrees — the next response describes
    // the file as it is now.
    let half = FILE_BYTES / 2;
    let file = std::fs::File::options()
        .write(true)
        .open(root.join("huge.bin"))
        .unwrap();
    file.set_len(half as u64).unwrap();
    let resp = fetch(addr, "GET /huge.bin HTTP/1.0\r\n\r\n");
    let text = String::from_utf8_lossy(&resp[..resp.len() - half]).into_owned();
    assert!(
        text.contains(&format!("Content-Length: {half}\r\n")),
        "truncation not seen: {text}"
    );
    assert!(resp.ends_with(&payload[..half]), "truncated body mismatch");

    println!(
        "sendfile smoke OK: {} MiB in {:?} ({:.0} MiB/s), {} sendfile calls, cache untouched at {} bytes, \
         open-file table {} (hits {}), truncation seen by the next request",
        FILE_BYTES / (1024 * 1024),
        elapsed,
        FILE_BYTES as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64(),
        stats.sendfile_calls(),
        resident,
        if tabled { "in play" } else { "unavailable" },
        stats.open_file_hits(),
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

fn fetch(addr: std::net::SocketAddr, req: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(req.as_bytes()).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    out
}
