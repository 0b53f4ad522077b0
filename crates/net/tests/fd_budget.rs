//! The open-file table's descriptor budget, counted in `/proc/self/fd`:
//! it holds no more than its derived capacity however many distinct
//! files are asked for, gives everything back on a docroot reload and
//! at stop, and is the first thing a shard sheds when the process runs
//! out of descriptors.
//!
//! One test, in a file — a process — of its own: it counts every
//! descriptor the process has and, at one point, uses them all up. CI
//! runs it a second time under `ulimit -n 256`.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use flash_net::{NetConfig, Server};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// The soft `RLIMIT_NOFILE`, as the kernel reports it.
fn soft_nofile_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let line = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .unwrap();
    let soft = line.split_whitespace().nth(3).unwrap();
    soft.parse().unwrap_or(u64::MAX)
}

/// One keep-alive `GET`; returns the status line and the body.
fn fetch(s: &mut TcpStream, path: &str) -> (String, Vec<u8>) {
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let (mut resp, mut buf) = (Vec::new(), [0u8; 4096]);
    loop {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed mid-response");
        resp.extend_from_slice(&buf[..n]);
        let Some(head_len) = resp.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = String::from_utf8_lossy(&resp[..head_len]).into_owned();
        let len = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap();
        let len: usize = len.trim().parse().unwrap();
        if resp.len() >= head_len + 4 + len {
            let status = head.lines().next().unwrap().to_string();
            return (status, resp.split_off(head_len + 4));
        }
    }
}

#[test]
fn open_file_table_stays_within_its_budget_and_leaks_nothing() {
    // One shard: the whole quarter of the limit is its table's.
    let capacity = (soft_nofile_limit() / 4) as usize;
    if !(8..=8192).contains(&capacity) {
        eprintln!("table capacity {capacity} here; run under `ulimit -n 256`. Skipping.");
        return;
    }
    let root = std::env::temp_dir().join(format!("flash-fd-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let n_files = 3 * capacity;
    for i in 0..n_files {
        std::fs::write(root.join(format!("f{i}.html")), format!("file {i}")).unwrap();
    }
    if flash_net::sys::open_cached(&root.join("f0.html"), false)
        .and_then(|f| flash_net::sys::pread_nowait(&f, &mut [0u8; 1], 0))
        .is_err()
    {
        eprintln!("residency test unavailable here: no table to bound. Skipping.");
        let _ = std::fs::remove_dir_all(&root);
        return;
    }

    let baseline = open_fds();
    // No TTL, so nothing leaves the table but by the rules under
    // test; a content cache of five entries, so every request is the
    // table's to answer.
    let cfg = NetConfig::builder(&root)
        .event_loops(1)
        .cache_revalidate_ttl(None)
        .cache_bytes(8_000)
        .sendfile_threshold_bytes(2_000)
        .metrics_endpoint(true)
        .build()
        .unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // What the process holds with the server up and this connection
    // accepted, the table still empty: a scrape opens nothing.
    assert_eq!(fetch(&mut client, "/.flash/stats").0, "HTTP/1.1 200 OK");
    let serving = open_fds();
    assert_eq!(server.stats().open_files(), 0);
    // A helper answers a name's first request and leaves its lookups
    // (the `.gz` sibling's negative one too) cached; the second pass
    // is the one the table sees.
    for _ in 0..2 {
        for i in 0..n_files {
            let (status, body) = fetch(&mut client, &format!("/f{i}.html"));
            assert_eq!(status, "HTTP/1.1 200 OK", "f{i}");
            assert_eq!(body, format!("file {i}").into_bytes());
        }
    }
    assert_eq!(server.stats().open_files(), capacity as u64);
    assert_eq!(open_fds(), serving + capacity);

    // A reload — to the same docroot — gives every one of them back.
    // (The shard applies it between requests.)
    server.reload_docroot(&root);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open_files() > 0 {
        assert!(Instant::now() < deadline, "reload never reached the table");
        fetch(&mut client, "/.flash/stats");
    }
    assert_eq!(open_fds(), serving);
    fetch(&mut client, "/f0.html");
    assert_eq!(server.stats().open_files(), 1);
    assert_eq!(open_fds(), serving + 1);

    // Out of descriptors: fill the table again, then take every
    // descriptor the process has left but one, for the next client.
    // Its connection cannot be accepted (`EMFILE`) until the shard
    // empties its table — which it does before it backs off.
    for i in 0..capacity {
        fetch(&mut client, &format!("/f{i}.html"));
    }
    assert_eq!(server.stats().open_files(), capacity as u64);
    let mut hog = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hog.push(f);
    }
    hog.pop();
    let mut late = TcpStream::connect(addr).unwrap();
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, body) = fetch(&mut late, "/f1.html");
    assert_eq!(
        (status.as_str(), &body[..]),
        ("HTTP/1.1 200 OK", &b"file 1"[..])
    );
    assert!(server.stats().accept_backpressure() >= 1);
    assert!(server.stats().open_files() <= 1, "the table was not shed");
    drop(hog);

    drop((client, late));
    server.stop();
    assert_eq!(open_fds(), baseline, "descriptors leaked past stop()");
    let _ = std::fs::remove_dir_all(&root);
}
