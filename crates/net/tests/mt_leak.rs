//! Neither architecture leaks: after 64 connections in every state a
//! connection can be left in — answered and idle, closed by the client
//! mid-keep-alive, stopped mid-header, stopped mid-way through a dynamic
//! stream — and a `drain()`, the process has exactly the descriptors
//! (`/proc/self/fd`) it had before `start`, and, once the joined threads
//! have left `/proc/self/task`, exactly its threads. And again for a second generation started on the first
//! one's listeners with `start_inherited_as`. The AMPED shards run the
//! census first, on the platform's defaults and then on the fallbacks
//! (the `poll` backend, one shared listening socket), then MT's thread
//! per connection, whose drain deadline no watchdog enforces: each
//! connection thread severs itself.
//!
//! One test, in a file — a process — of its own (`fd_budget.rs`'s
//! pattern): it counts everything the process has, so the servers take
//! their turns in it one after the other.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use flash_net::{AcceptMode, BackendChoice, NetConfig, Server, ServerKind};

/// The drain grace: the two connections stopped mid-request outlast
/// any drain and are the deadline's to sever.
const GRACE: Duration = Duration::from_millis(600);

/// Drains `server`; the grace bounds it — a connection in mid-stream,
/// whose worker exchange is open, is severed like any other.
fn drain(server: Server) {
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

/// How long the thread count may take to settle: a joined thread leaves
/// `/proc/self/task` a moment after `join` returns (`worker_leak.rs`
/// waits as long).
const SETTLE: Duration = Duration::from_secs(2);

/// The census right after a drain is `want`: descriptors exactly, at
/// once; the thread count once it settles.
fn assert_clean(want: (usize, usize), what: &str) {
    assert_eq!(census().1, want.1, "{what}: descriptors");
    let start = Instant::now();
    while census().0 != want.0 {
        let threads = census().0;
        assert!(
            start.elapsed() < SETTLE,
            "{what}: {threads} threads, want {}",
            want.0
        );
        std::thread::sleep(Duration::from_millis(10));
    }
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

/// Two generations of `kind` on `backend` and `accept_mode` over one
/// docroot, counted against the census taken before the first started.
fn census_of(
    kind: ServerKind,
    backend: BackendChoice,
    accept_mode: AcceptMode,
    root: &std::path::Path,
) {
    let what = format!("{kind:?} on {} and {}", backend.name(), accept_mode.name());
    // One frame, then silence: the stream stays open until the server
    // gives up on it.
    let worker = root.join("stall.sh");
    let cfg = NetConfig::builder(root)
        .backend(backend)
        .accept_mode(accept_mode)
        .dynamic_prefix("/app/")
        .dynamic_command(vec!["/bin/sh".into(), worker.to_str().unwrap().into()])
        .drain_timeout(GRACE)
        .build()
        .unwrap();

    let before = census();
    let first = Server::start_as(kind, "127.0.0.1:0", cfg.clone()).unwrap();
    let held = exercise(first.addr());
    assert_eq!(first.stats().accepted(), 64, "{what}");
    if kind == ServerKind::Mt {
        assert!(census().0 >= before.0 + 1 + held.len(), "a thread each");
    }
    // The next generation's listeners: the descriptors that are meant
    // to outlive this one.
    let inherited: Vec<_> = first
        .handoff_listeners()
        .iter()
        .map(|l| l.try_clone().unwrap())
        .collect();
    let kept = inherited.len();
    drain(first);
    drop(held);
    assert_clean(
        (before.0, before.1 + kept),
        &format!("{what}: first generation"),
    );

    let second = Server::start_inherited_as(kind, cfg, inherited).unwrap();
    let held = exercise(second.addr());
    assert_eq!(second.stats().accepted(), 64, "{what}");
    drain(second);
    drop(held);
    assert_clean(before, &format!("{what}: second generation"));
}

#[test]
fn no_architecture_leaks_a_thread_or_a_descriptor() {
    let root = std::env::temp_dir().join(format!("flash-mt-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), b"<html>hello flash</html>\n").unwrap();
    std::fs::write(
        root.join("stall.sh"),
        "read -r m p\nprintf 'DATA 7\\npartial'\nexec sleep 30\n",
    )
    .unwrap();
    let platform = (BackendChoice::default(), AcceptMode::default());
    let fallbacks = (BackendChoice::Poll, AcceptMode::Single);
    for (kind, (backend, accept_mode)) in [
        (ServerKind::Amped, platform),
        (ServerKind::Amped, fallbacks),
        (ServerKind::Mt, platform),
    ] {
        census_of(kind, backend, accept_mode, &root);
    }
    let _ = std::fs::remove_dir_all(&root);
}
