//! Dynamic-tier smoke test: persistent workers serving chunked
//! responses from inside the event loop — a warm request is the shard's
//! own `write` and `read` on its worker's socket, nothing handed to the
//! helper pool — a worker crash mid-body, and a fresh worker forked for
//! the next request.
//!
//! The server routes `/app/*` to the dynamic tier. The first phase
//! uses the built-in echo worker; the second points
//! `dynamic_command` at a shell script that emits half a body and
//! dies, demonstrating that the truncation is visible on the wire
//! (no chunked terminator) and that the listener stays healthy.
//!
//! Run with: `cargo run --example dynamic_smoke`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use flash_repro::http::chunked::ChunkedDecoder;
use flash_repro::net::{NetConfig, Server};

fn fetch(addr: std::net::SocketAddr, req: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(req.as_bytes()).expect("send");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

/// Splits a raw response at the header terminator.
fn split(resp: &[u8]) -> (String, &[u8]) {
    let pos = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    (
        String::from_utf8_lossy(&resp[..pos]).into_owned(),
        &resp[pos + 4..],
    )
}

fn main() {
    let root = std::env::temp_dir().join(format!("flash-dynamic-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), b"static tier still here").unwrap();

    // Phase 1: the built-in echo worker streams chunked bodies.
    let cfg = NetConfig::builder(&root)
        .event_loops(1)
        .dynamic_prefix("/app/")
        .build()
        .expect("consistent config");
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    println!("dynamic tier on http://{addr}/app/* (built-in worker)");

    let resp = fetch(addr, "GET /app/demo HTTP/1.0\r\n\r\n");
    let (hdr, wire) = split(&resp);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    assert!(hdr.contains("Transfer-Encoding: chunked"), "{hdr}");
    let body = ChunkedDecoder::decode_all(wire).expect("well-formed chunked body");
    assert_eq!(body, b"hello from worker: /app/demo");
    println!("GET /app/demo -> 200, chunked body {:?}", body.len());
    assert_eq!(server.stats().dynamic_requests(), 1);

    // The worker exists now: from here on the helper pool has nothing
    // to do with a dynamic request.
    let stats = server.stats();
    let handed_off = || stats.helper_jobs() - stats.inline_jobs();
    let cold = handed_off();
    for i in 0..10 {
        let resp = fetch(addr, &format!("GET /app/warm{i} HTTP/1.0\r\n\r\n"));
        let body = ChunkedDecoder::decode_all(split(&resp).1).expect("chunked body");
        assert_eq!(
            body,
            format!("hello from worker: /app/warm{i}").into_bytes()
        );
    }
    println!(
        "requests={} worker_io_calls={} handed_to_pool={} worker_respawns={}",
        stats.requests(),
        stats.worker_io_calls(),
        handed_off(),
        stats.worker_respawns()
    );
    assert_eq!(handed_off(), cold, "a warm request went to the helper pool");
    assert!(stats.worker_io_calls() >= 2 * stats.requests());
    assert_eq!(stats.worker_respawns(), 0);
    server.stop();

    // Phase 2: a worker that dies halfway through its body. The shard
    // retires the corpse (a helper reaps it) and has a fresh worker
    // forked for the next request — the listener never degrades.
    let script = root.join("crashy.sh");
    std::fs::write(
        &script,
        "if [ -f \"$0.once\" ]; then\n\
         while read -r m p; do b=\"recovered: $p\"; \
         printf 'DATA %s\\n%s' \"${#b}\" \"$b\"; printf 'END\\n'; done\n\
         else\n: > \"$0.once\"\nread -r m p\nprintf 'DATA 4\\nhalf'\nexit 1\nfi\n",
    )
    .unwrap();
    let cfg = NetConfig::builder(&root)
        .event_loops(1)
        .dynamic_prefix("/app/")
        .dynamic_command(vec!["/bin/sh".into(), script.to_str().unwrap().to_string()])
        .build()
        .expect("consistent config");
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();

    let resp = fetch(addr, "GET /app/crash HTTP/1.0\r\n\r\n");
    let (hdr, wire) = split(&resp);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    let mut dec = ChunkedDecoder::new();
    dec.feed(wire).unwrap();
    assert!(
        !dec.is_done(),
        "a crashed worker must leave the chunked body visibly truncated"
    );
    println!(
        "GET /app/crash -> worker died mid-body: {} bytes arrived, no terminator",
        dec.body().len()
    );

    // The retirement is counted by the shard, beside the close the
    // client saw; give it a moment.
    let t0 = std::time::Instant::now();
    while server.stats().worker_respawns() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "respawn not counted");
        std::thread::sleep(Duration::from_millis(20));
    }

    // A fresh worker serves the next request on the same listener.
    let resp = fetch(addr, "GET /app/next HTTP/1.0\r\n\r\n");
    let (hdr, wire) = split(&resp);
    assert!(hdr.starts_with("HTTP/1.1 200 OK"), "{hdr}");
    let body = ChunkedDecoder::decode_all(wire).expect("clean body after respawn");
    assert_eq!(body, b"recovered: /app/next");
    println!(
        "GET /app/next -> 200 after respawn (worker_respawns={})",
        server.stats().worker_respawns()
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
    println!("dynamic smoke: OK");
}
