//! The dynamic tier leaks nothing: after a clean exchange, a worker
//! crash and its respawn, a wedged worker cancelled by the deadline,
//! and a `stop()` — and again after a `drain()` with a worker still
//! alive and idle — the process has no child left (nothing in
//! `/proc/self/task/*/children`, which lists zombies too), and exactly
//! the threads (`/proc/self/task`) and descriptors (`/proc/self/fd`) it
//! had before `start`. For the event-loop server on both backends,
//! whose shards speak to their workers themselves and leave the fork
//! and the reap to the helper pool, and for the thread-per-connection
//! server, whose connection threads do all three.
//!
//! And, on the way, that a warm dynamic request is the shard's alone:
//! a hundred of them leave every `flash-helper-*` thread where it was —
//! asleep, its voluntary context switches (`/proc/self/task/<tid>/status`)
//! unchanged.
//!
//! One test, in a file — a process — of its own (`fd_budget.rs`'s
//! pattern): it counts everything the process has, and reads threads
//! by a name every server in a process gives its own.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use flash_http::chunked::ChunkedDecoder;
use flash_net::handle::{self, ServeHandle};
use flash_net::{BackendChoice, NetConfig, ServerKind};

/// (children, threads, descriptors) of this process, now.
fn census() -> (Vec<String>, usize, usize) {
    let count = |dir| std::fs::read_dir(dir).unwrap().count();
    let mut children = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread that has just exited takes its file with it.
        let list = std::fs::read_to_string(task.unwrap().path().join("children"));
        children.extend(
            list.iter()
                .flat_map(|l| l.split_whitespace().map(String::from)),
        );
    }
    (children, count("/proc/self/task"), count("/proc/self/fd"))
}

/// Spins until `cond` holds: a helper reaps a retired worker beside
/// the response that retired it, not before it.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One `HTTP/1.0` request; returns the status line and the decoded
/// chunked body with whether its terminator arrived.
fn get(addr: SocketAddr, path: &str) -> (String, Vec<u8>, bool) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = Vec::new();
    let _ = s.read_to_end(&mut resp);
    let head_len = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let status = String::from_utf8_lossy(&resp[..head_len]);
    let status = status.lines().next().unwrap().to_string();
    let mut dec = ChunkedDecoder::new();
    if status.contains("200") {
        dec.feed(&resp[head_len..]).unwrap();
    }
    (status, dec.body().to_vec(), dec.is_done())
}

/// `voluntary_ctxt_switches` of every live thread named
/// `flash-helper-*`, by thread id.
fn helper_switches() -> Vec<(String, String)> {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.starts_with("flash-helper-") {
            let status = std::fs::read_to_string(dir.join("status")).unwrap();
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches"));
            found.push((dir.display().to_string(), line.unwrap().to_string()));
        }
    }
    found.sort();
    found
}

/// A hundred keep-alive dynamic requests on one connection, against a
/// worker that already exists.
fn hundred_warm_requests(addr: SocketAddr) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..100 {
        s.write_all(format!("GET /app/warm{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let (mut dec, mut resp, mut byte) = (ChunkedDecoder::new(), Vec::new(), [0u8; 1]);
        while !resp.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).unwrap();
            resp.push(byte[0]);
        }
        while !dec.is_done() {
            s.read_exact(&mut byte).unwrap();
            dec.feed(&byte).unwrap();
        }
        assert_eq!(dec.body(), format!("ok: /app/warm{i}").as_bytes());
    }
}

/// Crash, cancel, serve: every way a worker's life ends but the
/// server's own exit. Leaves one worker alive and idle.
fn exercise(server: &dyn ServeHandle, kind: ServerKind) {
    let addr = server.local_addr();
    let (status, body, whole) = get(addr, "/app/one");
    assert!(status.contains("200") && whole, "{status}");
    assert_eq!(body, b"ok: /app/one");
    assert_eq!(census().0.len(), 1, "one worker, kept");

    if kind == ServerKind::Amped {
        let stats = server.stats();
        let handed_off = || stats.helper_jobs() - stats.inline_jobs();
        let before = (helper_switches(), handed_off(), stats.worker_io_calls());
        assert_eq!(before.0.len(), 4, "the default helper pool");
        hundred_warm_requests(addr);
        assert_eq!((helper_switches(), handed_off()), (before.0, before.1));
        assert!(stats.worker_io_calls() >= before.2 + 200);
    }

    let (status, body, whole) = get(addr, "/app/crash");
    assert!(status.contains("200") && !whole, "{status}");
    assert_eq!(body, b"half");
    wait_for("the crashed worker reaped", || census().0.is_empty());

    let (status, ..) = get(addr, "/app/wedge");
    assert!(status.contains("504"), "{status}");
    wait_for("the wedged worker killed and reaped", || {
        census().0.is_empty()
    });
    assert_eq!(server.stats().worker_respawns(), 2);

    let (status, body, whole) = get(addr, "/app/two");
    assert!(status.contains("200") && whole, "{status}");
    assert_eq!(body, b"ok: /app/two");
    assert_eq!(census().0.len(), 1, "a fresh worker, kept");
    assert_eq!(server.stats().loop_stalls(), 0);
}

#[test]
fn the_dynamic_tier_leaves_no_child_no_thread_and_no_descriptor() {
    let root = std::env::temp_dir().join(format!("flash-worker-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let worker = root.join("worker.sh");
    std::fs::write(
        &worker,
        "while read -r m p; do\n\
         case \"$p\" in\n\
         */crash) printf 'DATA 4\\nhalf'; exit 1;;\n\
         */wedge) exec sleep 30;;\n\
         *) b=\"ok: $p\"; printf 'DATA %s\\n%s' \"${#b}\" \"$b\"; printf 'END\\n';;\n\
         esac\n\
         done\n",
    )
    .unwrap();
    let before = census();
    assert!(
        before.0.is_empty(),
        "children before any server: {before:?}"
    );

    for (kind, backend) in [
        (ServerKind::Amped, BackendChoice::Epoll),
        (ServerKind::Amped, BackendChoice::Poll),
        (ServerKind::Mt, BackendChoice::Auto),
    ] {
        let what = format!("{kind:?} on {backend:?}");
        let cfg = NetConfig::builder(&root)
            .backend(backend)
            .event_loops(1)
            .dynamic_prefix("/app/")
            .dynamic_command(vec!["/bin/sh".into(), worker.to_str().unwrap().into()])
            .dynamic_deadline(Some(Duration::from_millis(300)))
            .build()
            .unwrap();

        let server = handle::start(kind, "127.0.0.1:0", cfg.clone()).unwrap();
        exercise(&*server, kind);
        server.stop();
        assert_eq!(census(), before, "{what}: after stop()");

        let server = handle::start(kind, "127.0.0.1:0", cfg).unwrap();
        exercise(&*server, kind);
        server.drain();
        assert_eq!(census(), before, "{what}: after drain()");
    }
    let _ = std::fs::remove_dir_all(&root);
}
