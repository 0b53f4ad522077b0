//! The worker transport: two pipes per application worker, written
//! and read by the shard that owns it (AMPED, on both readiness
//! backends) or by the connection thread that checked it out (MT).
//!
//! * A worker that stops reading its stdin is `EPIPE` for the next
//!   request line written to it: that request is a `500`, the worker is
//!   retired, and the next request has a fresh one. The process lives
//!   through it with `SIGPIPE` at its default disposition — checked in
//!   a child process of this test binary, which restores the default
//!   before it starts any server (the Rust runtime ignores `SIGPIPE`
//!   in every binary it starts, this one included).
//! * The longest request line the parser admits reaches the worker in
//!   one write: a shard, and MT too, retire a worker that takes only
//!   part of its line, so a whole echoed answer shows it went in one.
//!
//! What a live worker holds — two descriptors — and that `stop` gives
//! them back is counted in `worker_leak.rs` and `fd_budget.rs`.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

use flash_http::chunked::ChunkedDecoder;
use flash_http::request::MAX_HEADER_BYTES;
use flash_net::handle::{self, ServeHandle};
use flash_net::{BackendChoice, NetConfig, ServerKind};

const SERVERS: [(ServerKind, BackendChoice); 3] = [
    (ServerKind::Amped, BackendChoice::Epoll),
    (ServerKind::Amped, BackendChoice::Poll),
    (ServerKind::Mt, BackendChoice::Epoll),
];

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-transport-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(
    kind: ServerKind,
    backend: BackendChoice,
    root: &std::path::Path,
    worker: Option<&str>,
) -> Box<dyn ServeHandle> {
    let mut cfg = NetConfig::builder(root)
        .backend(backend)
        .event_loops(1)
        .dynamic_prefix("/app/");
    if let Some(script) = worker {
        cfg = cfg.dynamic_command(vec!["/bin/sh".into(), "-c".into(), script.into()]);
    }
    handle::start(kind, "127.0.0.1:0", cfg.build().unwrap()).unwrap()
}

/// One `HTTP/1.0` request; returns the status line and the decoded
/// chunked body of a `200`.
fn get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = Vec::new();
    let _ = s.read_to_end(&mut resp);
    let head_len = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let head = String::from_utf8_lossy(&resp[..head_len]);
    let status = head.lines().next().unwrap().to_string();
    let mut dec = ChunkedDecoder::new();
    if status.contains("200") {
        dec.feed(&resp[head_len..]).unwrap();
        assert!(dec.is_done(), "{status}: the body ended unclean");
    }
    (status, dec.body().to_vec())
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Answers its first request, but closes its stdin before it does:
/// by the time the `END` arrives nobody reads the request pipe, and
/// the worker lives on (`sleep`) with its reply pipe open and silent.
const STOPS_READING: &str = "read -r m p; exec 0<&-; printf 'DATA 2\\nokEND\\n'; exec sleep 30";

/// Set in the environment of the child process the test re-runs itself
/// in.
const CHILD: &str = "FLASH_TRANSPORT_TEST_CHILD";

#[test]
fn a_worker_that_stops_reading_is_epipe_never_sigpipe() {
    let name = "a_worker_that_stops_reading_is_epipe_never_sigpipe";
    if std::env::var_os(CHILD).is_some() {
        default_sigpipe();
        for (kind, backend) in SERVERS {
            epipe_then_respawn(kind, backend);
        }
        return;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "the child ({:?}) did not pass\n{stdout}\n{stderr}",
        out.status
    );
}

/// Restores `SIGPIPE`'s default disposition, which ends the process.
fn default_sigpipe() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: installs the default disposition, no handler.
    unsafe { signal(SIGPIPE, SIG_DFL) };
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let ignored = status.lines().find(|l| l.starts_with("SigIgn:")).unwrap();
    let mask = u64::from_str_radix(ignored["SigIgn:".len()..].trim(), 16).unwrap();
    assert_eq!(mask & (1 << (SIGPIPE - 1)), 0, "SIGPIPE still ignored");
}

fn epipe_then_respawn(kind: ServerKind, backend: BackendChoice) {
    let what = format!("{kind:?} on {backend:?}");
    let root = docroot(&format!("epipe-{kind:?}-{backend:?}"));
    let server = start(kind, backend, &root, Some(STOPS_READING));
    let addr = server.local_addr();
    assert_eq!(
        get(addr, "/app/one"),
        ("HTTP/1.1 200 OK".into(), b"ok".to_vec()),
        "{what}"
    );
    let (status, _) = get(addr, "/app/two");
    assert!(status.contains("500"), "{what}: {status}");
    let stats = server.stats();
    wait_for(&format!("{what}: the worker retired"), || {
        stats.worker_respawns() == 1
    });
    assert_eq!(
        get(addr, "/app/three"),
        ("HTTP/1.1 200 OK".into(), b"ok".to_vec()),
        "{what}: a fresh worker"
    );
    assert_eq!(stats.worker_respawns(), 1, "{what}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_longest_request_line_goes_to_the_worker_in_one_write() {
    let root = docroot("longest");
    // `GET <path> HTTP/1.0\r\n\r\n` at the parser's bound, exactly.
    let overhead = "GET ".len() + " HTTP/1.0\r\n\r\n".len();
    let path = format!(
        "/app/{}",
        "a".repeat(MAX_HEADER_BYTES - overhead - "/app/".len())
    );
    for (kind, backend) in SERVERS {
        let what = format!("{kind:?} on {backend:?}");
        let server = start(kind, backend, &root, None);
        let addr = server.local_addr();
        let (status, body) = get(addr, &path);
        assert_eq!(status, "HTTP/1.1 200 OK", "{what}");
        assert_eq!(
            body,
            format!("hello from worker: {path}").into_bytes(),
            "{what}"
        );
        // One byte more is past the bound, and never reaches a worker.
        let (status, _) = get(addr, &format!("{path}a"));
        assert!(!status.contains("200"), "{what}: {status}");
        assert_eq!(server.stats().worker_respawns(), 0, "{what}");
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
}
