//! The allocation ledger: how many times the server calls the heap
//! allocator per request, exactly, on the paths the benchmark spends
//! its time on — a content-cache hit on AMPED and on MT, and a miss on
//! a file the shard's open-file table holds (`miss_helper`'s commonest
//! request). Unlike every timing on a shared machine, these counts are
//! deterministic, so a change that adds one allocation to a request
//! fails here, by name.
//!
//! A binary of its own with one `#[test]`: the counting
//! `#[global_allocator]` sees every thread in the process, so nothing
//! else may run beside the measurement. The client allocates nothing
//! once warmed up — a fixed request, and a response read into a fixed
//! buffer by its known length — so every count is the server's. Each
//! case counts `ROUNDS` requests between two quiet points and divides:
//! the once-a-second work (the `Date` segment a shard renders per
//! second) adds a handful of allocations, never `ROUNDS`.
//!
//! Each count is held at the `LANDED_AT` ratchet of its case, as
//! `crates/core/tests/model_size.rs` holds the model's size: a change
//! that lowers a count lowers its ratchet to match, and no change
//! raises one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use flash_net::{NetConfig, Server, ServerKind, ServerStats};

/// Counts every call that may hand out fresh memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the
// caller's own arguments; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per request for a cached hit on AMPED.
const HIT_AMPED_LANDED_AT: u64 = 11;
/// Allocations per request for a cached hit on MT.
const HIT_MT_LANDED_AT: u64 = 11;
/// Allocations per request for a held-file miss on AMPED.
const HELD_MISS_AMPED_LANDED_AT: u64 = 11;

/// Requests counted per case.
const ROUNDS: u64 = 1_000;

/// One keep-alive client whose measured requests allocate nothing.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    response: Vec<u8>,
}

impl Client {
    /// Connects, sends `GET path` once and learns the response's
    /// length: every later response to it has that length (the `Date`
    /// value is fixed-width).
    fn new(server: &Server, path: &str) -> Client {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: ledger\r\n\r\n").into_bytes();
        let mut client = Client {
            stream,
            request,
            response: Vec::new(),
        };
        client.stream.write_all(&client.request).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        let len = loop {
            let n = client.stream.read(&mut buf).unwrap();
            assert!(n > 0, "closed during warm-up");
            got.extend_from_slice(&buf[..n]);
            let Some(end) = got.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            let head = String::from_utf8_lossy(&got[..end]).into_owned();
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
            let body: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("a Content-Length")
                .parse()
                .unwrap();
            break end + 4 + body;
        };
        client.response = vec![0; len];
        let have = got.len().min(len);
        client
            .stream
            .read_exact(&mut client.response[have..])
            .unwrap();
        client
    }

    /// One request and its whole response, with no allocation.
    fn round(&mut self) {
        self.stream.write_all(&self.request).unwrap();
        self.stream.read_exact(&mut self.response).unwrap();
    }
}

/// Lets the server finish the turn that sent the last response — its
/// bookkeeping after the write — before the count is read.
fn quiet() {
    std::thread::sleep(Duration::from_millis(50));
}

/// Allocations per request over `ROUNDS` requests of `client`, and
/// the change in `counter` over them.
fn per_request(
    client: &mut Client,
    stats: &ServerStats,
    counter: fn(&ServerStats) -> u64,
) -> (u64, u64) {
    for _ in 0..20 {
        client.round();
    }
    quiet();
    let (before, counted) = (ALLOCATIONS.load(Ordering::Relaxed), counter(stats));
    for _ in 0..ROUNDS {
        client.round();
    }
    quiet();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    ((after - before) / ROUNDS, counter(stats) - counted)
}

/// A docroot under the OS temp root, removed on drop.
struct Docroot(PathBuf);

impl Docroot {
    fn new(tag: &str) -> Docroot {
        let p = std::env::temp_dir().join(format!("flash-alloc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Docroot(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Docroot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Holds one measured count to its ratchet.
fn ledger(what: &str, count: u64, landed_at: u64) {
    eprintln!("{what}: {count} allocations per request");
    assert!(
        count <= landed_at,
        "{what}: {count} allocations per request (ratchet: {landed_at})"
    );
    assert_eq!(
        count, landed_at,
        "{what} fell to {count} allocations per request: lower its LANDED_AT to match"
    );
}

#[test]
fn allocations_per_request() {
    // A cached hit, on both architectures: a 4 KiB page in the content
    // cache after its first request.
    let root = Docroot::new("hit");
    std::fs::write(root.path().join("page.html"), vec![b'p'; 4096]).unwrap();
    for (kind, landed_at) in [
        (ServerKind::Amped, HIT_AMPED_LANDED_AT),
        (ServerKind::Mt, HIT_MT_LANDED_AT),
    ] {
        let cfg = NetConfig::builder(root.path())
            .event_loops(1)
            .build()
            .unwrap();
        let server = Server::start_as(kind, "127.0.0.1:0", cfg).unwrap();
        let mut client = Client::new(&server, "/page.html");
        let (count, hits) = per_request(&mut client, server.stats(), ServerStats::cache_hits);
        assert_eq!(hits, ROUNDS, "{kind:?}: every request a cache hit");
        drop(client);
        server.stop();
        ledger(&format!("cached hit, {kind:?}"), count, landed_at);
    }

    // A held-file miss on AMPED: a body under the `sendfile` threshold
    // whose entry would cost more than the content cache admits, so
    // every request misses the cache and, once the name has been
    // resolved, is answered from the open-file table by descriptor.
    // Where `cachestat` is unavailable held files are answered by jobs
    // that read their bytes, and this case measures nothing.
    let root = Docroot::new("held");
    let page = root.path().join("held.html");
    std::fs::write(&page, vec![b'h'; 1_900]).unwrap();
    let cachestat = std::fs::File::open(&page).and_then(|f| flash_net::sys::resident(&f, 1));
    if let Err(e) = cachestat {
        eprintln!("held-file miss: cachestat unavailable here ({e}); not measured");
        return;
    }
    let cfg = NetConfig::builder(root.path())
        .event_loops(1)
        .cache_bytes(8_000)
        .sendfile_threshold_bytes(2_000)
        .cache_revalidate_ttl(None)
        .build()
        .unwrap();
    let server = Server::start(("127.0.0.1", 0), cfg).unwrap();
    let mut client = Client::new(&server, "/held.html");
    let (count, held) = per_request(&mut client, server.stats(), ServerStats::open_file_hits);
    assert_eq!(held, ROUNDS, "every request a held-file miss");
    assert_eq!(server.stats().cache_hits(), 0);
    drop(client);
    server.stop();
    ledger("held-file miss, Amped", count, HELD_MISS_AMPED_LANDED_AT);
    assert!(
        count <= HIT_AMPED_LANDED_AT + 2,
        "a held-file miss costs {count} allocations, a cached hit {HIT_AMPED_LANDED_AT}"
    );
}
