//! A thread per connection leaks nothing: after 64 connections in
//! every state a connection can be left in — answered and idle, closed
//! by the client mid-keep-alive, stopped mid-header, stopped mid-way
//! through a dynamic stream — and a `drain()`, the process has exactly
//! the threads (`/proc/self/task`) and descriptors (`/proc/self/fd`) it
//! had before `start`. And again for a second generation started on
//! the first one's listener with `start_inherited`.
//!
//! One test, in a file — a process — of its own (`fd_budget.rs`'s
//! pattern): it counts everything the process has.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use flash_net::{MtServer, NetConfig};

/// The drain grace: the two connections stopped mid-request outlast
/// any drain and are the watchdog's to sever.
const GRACE: Duration = Duration::from_millis(600);

/// Drains `server`; the grace bounds it — a connection in mid-stream,
/// whose thread is in a worker exchange, is severed like any other.
fn drain(server: MtServer) {
    let started = Instant::now();
    server.drain();
    let took = started.elapsed();
    assert!(took < GRACE + Duration::from_secs(2), "drain took {took:?}");
}

/// (threads, descriptors) of this process, now.
fn census() -> (usize, usize) {
    let count = |dir| std::fs::read_dir(dir).unwrap().count();
    (count("/proc/self/task"), count("/proc/self/fd"))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Reads up to and including the blank line that ends a header.
fn read_header(s: &mut TcpStream) -> String {
    let (mut hdr, mut byte) = (Vec::new(), [0u8; 1]);
    while !hdr.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).unwrap();
        hdr.push(byte[0]);
    }
    String::from_utf8_lossy(&hdr).into_owned()
}

/// 64 connections against `addr`, each of the first 62 answered once;
/// returns the ones still open, in the states the module doc lists.
fn exercise(addr: SocketAddr) -> Vec<TcpStream> {
    const BODY: &[u8] = b"<html>hello flash</html>\n";
    let mut held = Vec::new();
    for i in 0..62 {
        let mut s = connect(addr);
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert!(read_header(&mut s).starts_with("HTTP/1.1 200 OK"));
        let mut body = [0u8; BODY.len()];
        s.read_exact(&mut body).unwrap();
        assert_eq!(body, BODY);
        // A third hang up mid-keep-alive; the rest stay, idle.
        if i % 3 != 0 {
            held.push(s);
        }
    }
    let mut mid_header = connect(addr);
    mid_header.write_all(b"GET /index.html HT").unwrap();
    held.push(mid_header);
    let mut mid_stream = connect(addr);
    mid_stream
        .write_all(b"GET /app/stall HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert!(read_header(&mut mid_stream).contains("Transfer-Encoding: chunked"));
    held.push(mid_stream);
    held
}

#[test]
fn a_thread_per_connection_leaks_no_thread_and_no_descriptor() {
    let root = std::env::temp_dir().join(format!("flash-mt-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), b"<html>hello flash</html>\n").unwrap();
    // One frame, then silence: the stream stays open until the server
    // gives up on it.
    let worker = root.join("stall.sh");
    std::fs::write(
        &worker,
        "read -r m p\nprintf 'DATA 7\\npartial'\nexec sleep 30\n",
    )
    .unwrap();
    let cfg = NetConfig::builder(&root)
        .dynamic_prefix("/app/")
        .dynamic_command(vec!["/bin/sh".into(), worker.to_str().unwrap().into()])
        .drain_timeout(GRACE)
        .build()
        .unwrap();

    let before = census();
    let first = MtServer::start("127.0.0.1:0", cfg.clone()).unwrap();
    let held = exercise(first.addr());
    assert_eq!(first.stats().accepted(), 64);
    assert!(census().0 >= before.0 + 1 + held.len(), "a thread each");
    // The next generation's listener: the one descriptor that is
    // meant to outlive this one.
    let inherited = first.handoff_listeners()[0].try_clone().unwrap();
    drain(first);
    drop(held);
    assert_eq!(census(), (before.0, before.1 + 1), "first generation");

    let second = MtServer::start_inherited(cfg, inherited).unwrap();
    let held = exercise(second.addr());
    assert_eq!(second.stats().accepted(), 64);
    drain(second);
    drop(held);
    assert_eq!(census(), before, "second generation");
    let _ = std::fs::remove_dir_all(&root);
}
