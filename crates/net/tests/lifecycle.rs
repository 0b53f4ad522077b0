//! End-to-end tests of the zero-downtime lifecycle over loopback:
//! graceful drain (in-flight sendfile bodies and pipelined bursts
//! complete; idle keep-alives close promptly), SIGHUP-style reload
//! without dropping a connection, generation handoff of listener fds,
//! the drain-based `stop()` vs the immediate `stop_now()`, and the
//! helper-wait deadline that reaps waiters of a wedged helper, and the
//! refusal of an invalid config at start. The drain, stop, handoff and
//! refusal scenarios run on both architectures through
//! the one `Server` handle: the AMPED test keeps the scenario's name,
//! MT's is prefixed `mt_`. Every AMPED scenario that does not pin its
//! own backend runs a second time on the fallbacks every platform has —
//! the `poll` backend and one shared listening socket — under the name
//! prefixed `portable_`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use flash_net::{
    send_to_self, AcceptMode, BackendChoice, NetConfig, NetConfigBuilder, Server, ServerKind,
    Signal, Signals,
};

/// How a scenario's server is built: the architecture, and the
/// readiness backend and accept mode it runs (MT accepts from one
/// socket whatever the mode).
#[derive(Clone, Copy, Debug)]
struct Setup {
    kind: ServerKind,
    backend: BackendChoice,
    accept_mode: AcceptMode,
}

impl Setup {
    /// AMPED on the fallbacks every platform has.
    const PORTABLE: Setup = Setup {
        kind: ServerKind::Amped,
        backend: BackendChoice::Poll,
        accept_mode: AcceptMode::Single,
    };

    /// `kind` on the platform's defaults.
    fn platform(kind: ServerKind) -> Setup {
        Setup {
            kind,
            backend: BackendChoice::default(),
            accept_mode: AcceptMode::default(),
        }
    }

    fn builder(self, root: &std::path::Path) -> NetConfigBuilder {
        NetConfig::builder(root)
            .backend(self.backend)
            .accept_mode(self.accept_mode)
    }

    fn start(self, addr: impl std::net::ToSocketAddrs, cfg: NetConfig) -> Server {
        Server::start_as(self.kind, addr, cfg).unwrap()
    }

    /// `scenario`'s docroot name for this setup.
    fn tag(self, scenario: &str) -> String {
        let (backend, mode) = (self.backend.name(), self.accept_mode.name());
        format!("{scenario}-{:?}-{backend}-{mode}", self.kind)
    }
}

/// Creates a docroot with known content; returns its path.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-lc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    std::fs::write(dir.join("index.html"), b"<html>hello flash</html>\n").unwrap();
    std::fs::write(dir.join("sub/page.html"), b"subdir page").unwrap();
    std::fs::write(dir.join("big.bin"), vec![0xABu8; 2_000_000]).unwrap();
    dir
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

/// How much later than a shard an architecture may notice a lifecycle
/// order: a shard is woken, an MT connection thread looks on its 200 ms
/// read cadence.
fn cadence(kind: ServerKind) -> Duration {
    match kind {
        ServerKind::Amped => Duration::ZERO,
        ServerKind::Mt => Duration::from_millis(200),
    }
}

fn run_drain_completes_inflight_sendfile(setup: Setup) {
    let root = docroot(&setup.tag("drain-sendfile"));
    let cfg = setup
        .builder(&root)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let server = setup.start("127.0.0.1:0", cfg);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /big.bin HTTP/1.0\r\n\r\n").unwrap();
    // Read just the opening of the response so the 2 MB sendfile body
    // is demonstrably in flight when the drain begins.
    let mut first = vec![0u8; 64 * 1024];
    s.read_exact(&mut first).unwrap();
    let drainer = thread::spawn(move || server.drain());
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    drainer.join().unwrap();
    let mut full = first;
    full.extend_from_slice(&rest);
    let body = body_of(&full);
    assert_eq!(body.len(), 2_000_000, "drain must let the body finish");
    assert!(body.iter().all(|&b| b == 0xAB));
    let _ = std::fs::remove_dir_all(root);
}

fn run_drain_completes_pipelined_burst(setup: Setup) {
    let root = docroot(&setup.tag("drain-pipeline"));
    let cfg = setup
        .builder(&root)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let server = setup.start("127.0.0.1:0", cfg);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // One served response first: the connection is an established
    // keep-alive, not a fresh one.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut s);
    // Five pipelined requests land in the socket, then the drain
    // begins: every one must be answered before the close.
    let burst = "GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n".repeat(5);
    s.write_all(burst.as_bytes()).unwrap();
    thread::sleep(Duration::from_millis(50)); // let the burst arrive
    let drainer = thread::spawn(move || server.drain());
    for i in 0..5 {
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "pipelined {i}: {text}");
        assert_eq!(body, b"<html>hello flash</html>\n");
    }
    // After the final pipelined response the draining server closes
    // the keep-alive connection.
    let mut tail = [0u8; 1];
    assert_eq!(s.read(&mut tail).unwrap_or(0), 0, "EOF after the burst");
    drainer.join().unwrap();
    let _ = std::fs::remove_dir_all(root);
}

fn run_drain_closes_idle_keepalive_promptly(setup: Setup) {
    let root = docroot(&setup.tag("drain-idle"));
    // Idle timeout far beyond the assertion window: a prompt close
    // proves the drain swept the connection, not the idle reaper.
    let cfg = setup
        .builder(&root)
        .drain_timeout(Duration::from_secs(30))
        .idle_timeout(Some(Duration::from_secs(30)))
        .build()
        .unwrap();
    let server = setup.start("127.0.0.1:0", cfg);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut s);
    // The connection now sits idle between requests.
    let started = Instant::now();
    let stats = server.stats();
    assert_eq!(stats.drained_conns(), 0);
    server.drain();
    assert!(
        started.elapsed() < Duration::from_secs(2) + cadence(setup.kind),
        "idle keep-alive must not hold the drain: {:?}",
        started.elapsed()
    );
    let mut tail = [0u8; 1];
    assert_eq!(s.read(&mut tail).unwrap_or(0), 0, "swept conn sees EOF");
    let _ = std::fs::remove_dir_all(root);
}

fn run_stop_finishes_response_already_in_flight(setup: Setup) {
    let root = docroot(&setup.tag("stop-grace"));
    let server = setup.start("127.0.0.1:0", setup.builder(&root).build().unwrap());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /big.bin HTTP/1.0\r\n\r\n").unwrap();
    let mut first = vec![0u8; 16 * 1024];
    s.read_exact(&mut first).unwrap();
    // stop() routes through the drain path with a short grace — the
    // 2 MB body already being written goes out whole, not truncated.
    let stopper = thread::spawn(move || server.stop());
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    stopper.join().unwrap();
    assert_eq!(first.len() + rest.len() - headers_len(&first), 2_000_000);
    let _ = std::fs::remove_dir_all(root);
}

fn headers_len(response_start: &[u8]) -> usize {
    response_start
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4
}

fn run_stop_now_severs_immediately(setup: Setup) {
    let root = docroot(&setup.tag("stop-now"));
    let server = setup.start("127.0.0.1:0", setup.builder(&root).build().unwrap());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut s);
    let started = Instant::now();
    server.stop_now();
    assert!(
        started.elapsed() < Duration::from_secs(2) + cadence(setup.kind),
        "stop_now must not wait out any grace"
    );
    let _ = std::fs::remove_dir_all(root);
}

fn run_reload_swaps_docroot_without_dropping_connection(setup: Setup) {
    let root_a = docroot(&setup.tag("reload-a"));
    let root_b = docroot(&setup.tag("reload-b"));
    std::fs::write(root_b.join("index.html"), b"<html>generation two</html>\n").unwrap();
    let server = setup.start("127.0.0.1:0", setup.builder(&root_a).build().unwrap());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, body) = read_response(&mut s);
    assert_eq!(body, b"<html>hello flash</html>\n");

    server.reload_docroot(&root_b);
    // The same keep-alive connection — never dropped — serves the new
    // root once its shard applies the swap (between drives; retry
    // briefly rather than racing the wake).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        if body == b"<html>generation two</html>\n" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reload never took effect; still serving {:?}",
            String::from_utf8_lossy(&body)
        );
        thread::sleep(Duration::from_millis(20));
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

/// The port must be rebindable by a new generation while the old one
/// is still draining — the reuseport half of a zero-downtime restart.
#[cfg(target_os = "linux")]
fn run_port_rebindable_by_new_generation_during_drain(setup: Setup) {
    let root = docroot(&setup.tag("rebind"));
    let cfg = setup
        .builder(&root)
        .accept_mode(AcceptMode::ReusePort)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let server = setup.start("127.0.0.1:0", cfg.clone());
    let addr = server.addr();
    // Hold the drain open: a fresh connection that has not sent its
    // request yet keeps its grace, so the old generation lingers.
    let mut held = TcpStream::connect(addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    held.write_all(b"GET /index.html HTT").unwrap(); // header incomplete
    thread::sleep(Duration::from_millis(100));
    let drainer = thread::spawn(move || server.drain());
    thread::sleep(Duration::from_millis(200));

    // New generation binds the same port while the old one drains.
    let next = setup.start(addr, cfg);
    assert_eq!(next.addr(), addr);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>hello flash</html>\n");

    // The held connection completes its request against the OLD
    // generation — the drain served it, not severed it.
    held.write_all(b"P/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (text, body) = read_response(&mut held);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>hello flash</html>\n");
    drainer.join().unwrap();
    next.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// Listener-fd handoff in the mode where a same-port rebind is
/// impossible: the one shared socket travels to the next
/// generation over SCM_RIGHTS, and the same kernel socket keeps
/// accepting.
#[cfg(target_os = "linux")]
fn run_handoff_passes_single_listener_across_generations(setup: Setup) {
    let root = docroot(&setup.tag("handoff-single"));
    let cfg = setup
        .builder(&root)
        .accept_mode(AcceptMode::Single)
        .build()
        .unwrap();
    let old = setup.start("127.0.0.1:0", cfg.clone());
    let addr = old.addr();

    // The control-socket hop, in-process: old sends its listener dups,
    // new adopts them.
    let (tx, rx) = std::os::unix::net::UnixStream::pair().unwrap();
    flash_net::send_listeners(&tx, old.handoff_listeners()).unwrap();
    let inherited = flash_net::recv_listeners(&rx).unwrap();
    let next = Server::start_inherited_as(setup.kind, cfg, inherited).unwrap();
    assert_eq!(next.addr(), addr);

    // Old generation drains away entirely...
    old.drain();
    // ...and the port still serves: same kernel socket, new process
    // (here: new server) behind it. HTTP/1.0 + read-to-EOF: the close
    // strictly follows the server's request-counter increment, so the
    // stats assert below cannot race the shard thread.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    assert!(resp.starts_with(b"HTTP/1.1 200 OK"));
    assert_eq!(body_of(&resp), b"<html>hello flash</html>\n");
    assert!(next.stats().requests() >= 1);
    next.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// A config assembled field by field is held to the builder's rules:
/// a zero idle timeout (every connection would expire at once) and a
/// helper count of zero each fail to start, naming the field, with no
/// server left holding the port.
fn run_invalid_config_starts_nothing(setup: Setup) {
    let root = docroot(&setup.tag("invalid"));
    let mut zero_idle = setup.builder(&root).build().unwrap();
    let mut no_helpers = zero_idle.clone();
    zero_idle.idle_timeout = Some(Duration::ZERO);
    no_helpers.helpers = 0;
    for (cfg, field) in [(zero_idle, "idle_timeout"), (no_helpers, "helpers")] {
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = match Server::start_as(setup.kind, addr, cfg) {
            Ok(server) => {
                server.stop_now();
                panic!("{setup:?} started with an invalid {field}");
            }
            Err(e) => e,
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{field}: {err}"
        );
        assert!(err.to_string().contains(field), "{field}: {err}");
        std::net::TcpListener::bind(addr).expect("the refused start left the port bound");
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A `#[test]` per architecture for each scenario above, and one more
/// for AMPED on the fallbacks: the AMPED one under the scenario's name,
/// the others prefixed `mt_` and `portable_`.
macro_rules! on_both_architectures {
    ($($(#[$attr:meta])* $run:ident => $amped:ident, $mt:ident, $portable:ident;)*) => {$(
        $(#[$attr])*
        #[test]
        fn $amped() {
            $run(Setup::platform(ServerKind::Amped));
        }

        $(#[$attr])*
        #[test]
        fn $mt() {
            $run(Setup::platform(ServerKind::Mt));
        }

        $(#[$attr])*
        #[test]
        fn $portable() {
            $run(Setup::PORTABLE);
        }
    )*};
}

on_both_architectures! {
    run_drain_completes_inflight_sendfile =>
        drain_completes_inflight_sendfile, mt_drain_completes_inflight_sendfile,
        portable_drain_completes_inflight_sendfile;
    run_drain_completes_pipelined_burst =>
        drain_completes_pipelined_burst, mt_drain_completes_pipelined_burst,
        portable_drain_completes_pipelined_burst;
    run_drain_closes_idle_keepalive_promptly =>
        drain_closes_idle_keepalive_promptly, mt_drain_closes_idle_keepalive_promptly,
        portable_drain_closes_idle_keepalive_promptly;
    run_stop_finishes_response_already_in_flight =>
        stop_finishes_response_already_in_flight, mt_stop_finishes_response_already_in_flight,
        portable_stop_finishes_response_already_in_flight;
    run_stop_now_severs_immediately =>
        stop_now_severs_immediately, mt_stop_now_severs_immediately,
        portable_stop_now_severs_immediately;
    run_invalid_config_starts_nothing =>
        invalid_config_starts_nothing, mt_invalid_config_starts_nothing,
        portable_invalid_config_starts_nothing;
    #[cfg(target_os = "linux")]
    run_port_rebindable_by_new_generation_during_drain =>
        port_rebindable_by_new_generation_during_drain,
        mt_port_rebindable_by_new_generation_during_drain,
        portable_port_rebindable_by_new_generation_during_drain;
    #[cfg(target_os = "linux")]
    run_handoff_passes_single_listener_across_generations =>
        handoff_passes_single_listener_across_generations,
        mt_handoff_passes_single_listener_across_generations,
        portable_handoff_passes_single_listener_across_generations;
}

/// The AMPED-only scenarios below: on the platform's defaults under the
/// scenario's name, on the fallbacks prefixed `portable_`.
macro_rules! on_both_platforms {
    ($($(#[$attr:meta])* $run:ident => $amped:ident, $portable:ident;)*) => {$(
        $(#[$attr])*
        #[test]
        fn $amped() {
            $run(Setup::platform(ServerKind::Amped));
        }

        $(#[$attr])*
        #[test]
        fn $portable() {
            $run(Setup::PORTABLE);
        }
    )*};
}

on_both_platforms! {
    run_reload_swaps_docroot_without_dropping_connection =>
        reload_swaps_docroot_without_dropping_connection,
        portable_reload_swaps_docroot_without_dropping_connection;
    #[cfg(target_os = "linux")]
    run_helper_wait_deadline_reaps_wedged_waiter =>
        helper_wait_deadline_reaps_wedged_waiter,
        portable_helper_wait_deadline_reaps_wedged_waiter;
    run_sighup_rotates_access_log_without_losing_lines =>
        sighup_rotates_access_log_without_losing_lines,
        portable_sighup_rotates_access_log_without_losing_lines;
    #[cfg(target_os = "linux")]
    run_reaping_last_waiter_cancels_inflight_jobs =>
        reaping_last_waiter_cancels_inflight_jobs,
        portable_reaping_last_waiter_cancels_inflight_jobs;
}

/// A `Waiting` connection whose helper never completes is reaped at
/// `helper_wait_timeout`, counted, and its slot safely reusable — the
/// late completion (if it ever arrives) is delivered to nobody.
#[cfg(target_os = "linux")]
fn run_helper_wait_deadline_reaps_wedged_waiter(setup: Setup) {
    let root = docroot(&setup.tag("helper-wedge"));
    // A FIFO in the docroot: File::open blocks until a writer appears,
    // which is exactly a wedged disk/helper from the shard's view.
    let fifo = root.join("wedge.fifo");
    mkfifo_at(&fifo);

    let mut cfg = setup
        .builder(&root)
        .event_loops(1)
        .helper_wait_timeout(Some(Duration::from_millis(400)))
        .build()
        .unwrap();
    cfg.helpers = 1; // the single helper wedges; nothing else moves
    let server = setup.start("127.0.0.1:0", cfg);
    let addr = server.addr();

    // Prewarm the cache while the helper still works.
    let mut warm = TcpStream::connect(addr).unwrap();
    warm.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    warm.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut warm);
    drop(warm);

    // Wedge the helper: opening the FIFO blocks forever (no writer).
    let mut wedged = TcpStream::connect(addr).unwrap();
    wedged
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    wedged
        .write_all(b"GET /wedge.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();

    // The waiter is reaped at helper_wait_timeout: EOF, no response.
    let started = Instant::now();
    let mut buf = [0u8; 256];
    let n = wedged.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "wedged waiter must be closed without a response");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(300) && waited < Duration::from_secs(3),
        "reap should land near helper_wait_timeout, took {waited:?}"
    );
    assert_eq!(server.stats().helper_wait_timeouts(), 1);

    // The slot is reusable: a new connection served from cache (no
    // helper needed) works while the helper is still wedged.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>hello flash</html>\n");

    // Unwedge: a writer opens the FIFO, the helper's open() returns,
    // and its late completion finds no waiter — delivered to nobody,
    // poisoning nothing. The helper is then free again for real work.
    let unwedge = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
    drop(unwedge);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        s.write_all(b"GET /sub/page.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        if body == b"subdir page" {
            break;
        }
        assert!(Instant::now() < deadline, "helper never recovered");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[cfg(target_os = "linux")]
fn mkfifo_at(path: &std::path::Path) {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn mkfifo(path: *const u8, mode: u32) -> i32;
    }
    let mut bytes = path.as_os_str().as_bytes().to_vec();
    bytes.push(0);
    // SAFETY: `bytes` is a NUL-terminated path buffer that outlives
    // the call; mkfifo reads it and touches nothing else.
    let rc = unsafe { mkfifo(bytes.as_ptr(), 0o644) };
    assert_eq!(rc, 0, "mkfifo failed: {}", std::io::Error::last_os_error());
}

#[test]
fn mt_drain_completes_inflight_and_reloads_live() {
    let root_a = docroot("mt-lc-a");
    let root_b = docroot("mt-lc-b");
    std::fs::write(root_b.join("index.html"), b"<html>generation two</html>\n").unwrap();
    let cfg = NetConfig::builder(&root_a)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let server = Server::start_as(ServerKind::Mt, "127.0.0.1:0", cfg).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, body) = read_response(&mut s);
    assert_eq!(body, b"<html>hello flash</html>\n");

    // Live reload on the same connection — never dropped.
    server.reload_docroot(&root_b);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        if body == b"<html>generation two</html>\n" {
            break;
        }
        assert!(Instant::now() < deadline, "MT reload never took effect");
        thread::sleep(Duration::from_millis(20));
    }

    // Drain with a pipelined request in flight: answered, then EOF.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    thread::sleep(Duration::from_millis(50));
    let drainer = thread::spawn(move || server.drain());
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>generation two</html>\n");
    let mut tail = [0u8; 1];
    assert_eq!(s.read(&mut tail).unwrap_or(0), 0, "EOF after drain");
    drainer.join().unwrap();
    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

#[test]
fn mt_connection_opened_after_reload_serves_new_root() {
    let root_a = docroot("mt-postreload-a");
    let root_b = docroot("mt-postreload-b");
    std::fs::write(root_b.join("index.html"), b"<html>generation two</html>\n").unwrap();
    let server = Server::start_as(ServerKind::Mt, "127.0.0.1:0", NetConfig::new(&root_a)).unwrap();
    // A pre-reload request warms the shared cache with root-a bytes.
    let mut warm = TcpStream::connect(server.addr()).unwrap();
    warm.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    warm.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, body) = read_response(&mut warm);
    assert_eq!(body, b"<html>hello flash</html>\n");
    drop(warm);

    server.reload_docroot(&root_b);
    // Workers spawned for connections opened *after* the reload start
    // from the spawner's original (root-a) config, so each must apply
    // the published reload before serving its first request — and the
    // flushed shared cache must refill with root-b bytes, never be
    // re-poisoned with root-a content (the later connections below
    // are served from what the first one cached).
    for i in 0..3 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert_eq!(
            body, b"<html>generation two</html>\n",
            "post-reload connection {i} served the stale root"
        );
    }
    server.stop_now();
    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

/// Asserts one structured access-log line is well-formed:
/// `host - - [unix_ts] "METHOD path" status bytes latency_us tier`.
/// Returns the quoted request target.
fn check_log_line(line: &str) -> String {
    let parts: Vec<&str> = line.splitn(3, '"').collect();
    assert_eq!(parts.len(), 3, "torn or malformed line: {line:?}");
    let head: Vec<&str> = parts[0].split_whitespace().collect();
    assert_eq!(head.len(), 4, "bad prefix in {line:?}");
    assert_eq!(head[1], "-");
    assert_eq!(head[2], "-");
    assert!(
        head[3].starts_with('[') && head[3].ends_with(']'),
        "{line:?}"
    );
    head[3][1..head[3].len() - 1]
        .parse::<u64>()
        .unwrap_or_else(|_| panic!("bad timestamp in {line:?}"));
    let tail: Vec<&str> = parts[2].split_whitespace().collect();
    assert_eq!(tail.len(), 4, "bad suffix in {line:?}");
    assert_eq!(tail[0], "200", "unexpected status in {line:?}");
    tail[1]
        .parse::<u64>()
        .unwrap_or_else(|_| panic!("bad byte count in {line:?}"));
    tail[2]
        .parse::<u64>()
        .unwrap_or_else(|_| panic!("bad latency in {line:?}"));
    assert!(!tail[3].is_empty(), "missing tier in {line:?}");
    parts[1].to_string()
}

/// The logrotate handshake against the sharded server: rename the
/// live access log mid-traffic, deliver SIGHUP (observed through the
/// self-pipe and mapped to [`Server::rotate_access_logs`], the same
/// shape the signal loop in a real deployment uses), keep serving.
/// Every request before and after the rotation must appear exactly
/// once across the two files, every line whole — the single
/// `O_APPEND` write per batch means concurrent shards can never tear
/// a line.
fn run_sighup_rotates_access_log_without_losing_lines(setup: Setup) {
    const BEFORE: usize = 40;
    const AFTER: usize = 40;
    let root = docroot(&setup.tag("log-rotate"));
    let log_path = root.join("access.log");
    let server = setup.start(
        "127.0.0.1:0",
        setup
            .builder(&root)
            .event_loops(2)
            .access_log_path(&log_path)
            .build()
            .unwrap(),
    );
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..BEFORE {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, _) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    }

    // logrotate's move-then-signal: the shards keep appending to the
    // renamed file (same descriptor) until the reopen lands.
    let rotated = root.join("access.log.1");
    std::fs::rename(&log_path, &rotated).unwrap();
    let mut signals = Signals::install(&[Signal::Hup]).unwrap();
    send_to_self(Signal::Hup).unwrap();
    let got = signals.wait_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(got, Some(Signal::Hup));
    server.rotate_access_logs();

    // `rotate_access_logs` reopened every shard's writer before it
    // returned: everything from here on lands in the fresh file.
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let _ = read_response(&mut s);
    thread::sleep(Duration::from_millis(100));
    for _ in 0..AFTER - 1 {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (text, _) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    }
    drop(s);
    // stop() drains the shards, and each shard flushes its staged
    // records before its loop returns.
    server.stop();

    let old = std::fs::read_to_string(&rotated).unwrap();
    let new = std::fs::read_to_string(&log_path).unwrap_or_default();
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    assert_eq!(
        old_lines.len() + new_lines.len(),
        BEFORE + AFTER,
        "lost or duplicated lines: {} pre-rotation + {} post-rotation",
        old_lines.len(),
        new_lines.len()
    );
    assert!(
        !new_lines.is_empty(),
        "rotation never took effect; everything landed in the old file"
    );
    for line in old_lines.iter().chain(new_lines.iter()) {
        assert_eq!(check_log_line(line), "GET /index.html");
    }
    assert!(old.ends_with('\n') && new.ends_with('\n'), "torn tail");
    let _ = std::fs::remove_dir_all(root);
}

/// The same handshake against the MT server, whose worker threads
/// share one writer behind a mutex.
#[test]
fn mt_access_log_rotation_loses_no_lines() {
    const BEFORE: usize = 15;
    const AFTER: usize = 15;
    let root = docroot("mt-log-rotate");
    let log_path = root.join("access.log");
    let server = Server::start_as(
        ServerKind::Mt,
        "127.0.0.1:0",
        NetConfig::builder(&root)
            .access_log_path(&log_path)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..BEFORE {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let _ = read_response(&mut s);
    }
    let rotated = root.join("access.log.1");
    std::fs::rename(&log_path, &rotated).unwrap();
    server.rotate_access_logs();
    for _ in 0..AFTER {
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let _ = read_response(&mut s);
    }
    drop(s);
    server.stop();
    let old = std::fs::read_to_string(&rotated).unwrap();
    let new = std::fs::read_to_string(&log_path).unwrap_or_default();
    assert_eq!(
        old.lines().count() + new.lines().count(),
        BEFORE + AFTER,
        "lost or duplicated lines"
    );
    assert!(!new.is_empty(), "rotation never took effect");
    for line in old.lines().chain(new.lines()) {
        check_log_line(line);
    }
    let _ = std::fs::remove_dir_all(root);
}

/// Reaping the **last waiter** of an in-flight job must cancel the job
/// itself: the shard drops its entry, the cancel flag is raised, and a
/// completion that arrives anyway dies on the token gate — never
/// populating the cache, never waking whatever reuses the slot. Two
/// jobs sit behind one wedged helper: the wedged job (started, past
/// its cancel check) and a queued one (never started — skipped by the
/// flag alone). Both name FIFOs: a FIFO is the one thing in a docroot
/// the shard's residency test always leaves to the helper, whatever
/// the dentry and page caches hold.
#[cfg(target_os = "linux")]
fn run_reaping_last_waiter_cancels_inflight_jobs(setup: Setup) {
    let root = docroot(&setup.tag("job-cancel"));
    let fifo = root.join("wedge.fifo");
    mkfifo_at(&fifo);
    let queued = root.join("queued.fifo");
    mkfifo_at(&queued);

    let mut cfg = setup
        .builder(&root)
        .event_loops(1)
        .helper_wait_timeout(Some(Duration::from_millis(300)))
        .build()
        .unwrap();
    cfg.helpers = 1; // one lane: the queued job sits behind the wedge
    let server = setup.start("127.0.0.1:0", cfg);
    let addr = server.addr();

    // Waiter 1 wedges the only helper on the FIFO open.
    let mut wedged = TcpStream::connect(addr).unwrap();
    wedged
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    wedged
        .write_all(b"GET /wedge.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    thread::sleep(Duration::from_millis(50));

    // Waiter 2's job is dispatched but only ever queued.
    let mut parked = TcpStream::connect(addr).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    parked
        .write_all(b"GET /queued.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();

    // Both waiters are reaped at the helper-wait deadline (EOF, no
    // bytes), and — each being its path's only waiter — both jobs are
    // cancelled with them.
    let mut buf = [0u8; 256];
    assert_eq!(wedged.read(&mut buf).unwrap_or(0), 0, "waiter 1 reaped");
    assert_eq!(parked.read(&mut buf).unwrap_or(0), 0, "waiter 2 reaped");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().jobs_cancelled() < 2 {
        assert!(
            Instant::now() < deadline,
            "expected 2 cancelled jobs, saw {} (reaps: {})",
            server.stats().jobs_cancelled(),
            server.stats().helper_wait_timeouts()
        );
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().helper_wait_timeouts(), 2);
    assert_eq!(server.stats().requests(), 0, "nobody was answered");

    // Unwedge. The helper's open() returns and its completion must be
    // dropped (stale token); the queued job must be skipped entirely
    // (cancel flag) — had it run, the helper would now be wedged on the
    // second FIFO and the 404 below, which only a helper can give,
    // would never come.
    drop(std::fs::OpenOptions::new().write(true).open(&fifo).unwrap());
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /missing.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 404"), "{text}");

    // And the very path whose job was cancelled while queued is
    // dispatched afresh, proving the cancellation didn't poison its
    // future: with a writer on the other end the helper's open()
    // returns, and a FIFO, not being a regular file, is a 404. (The
    // writer holds its end until the answer is in: the shard's own
    // non-blocking look at the FIFO also counts as a reader arriving.)
    let (answered, hold) = std::sync::mpsc::channel::<()>();
    let writer = thread::spawn(move || {
        let end = std::fs::OpenOptions::new()
            .write(true)
            .open(&queued)
            .unwrap();
        let _ = hold.recv();
        drop(end);
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /queued.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, _) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 404"), "{text}");
    drop(answered);
    writer.join().unwrap();
    assert_eq!(server.stats().helper_wait_timeouts(), 2, "no further reaps");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

/// The residency test, end to end: with the **only** helper wedged on
/// a FIFO open, files whose lookups and bytes are in memory are still
/// served — the shard reads them itself, in the loop turn that parsed
/// the request — while the FIFO's own waiter stays parked. Includes a
/// pipelined burst of distinct misses on one connection, which must
/// come back in request order.
#[cfg(target_os = "linux")]
fn run_resident_misses_bypass_wedged_helper(tag: &str, backend: flash_net::BackendChoice) {
    let root = docroot(tag);
    let names: Vec<String> = (0..6).map(|i| format!("r{i}.html")).collect();
    let body_of_name = |n: &str| format!("<p>{n}</p>").repeat(300).into_bytes();
    for n in &names {
        std::fs::write(root.join(n), body_of_name(n)).unwrap();
    }
    // What the residency test needs in memory: the bytes (just written)
    // and every lookup it will make — including the *negative* one for
    // each `.gz` sibling, which nothing has asked the kernel about yet.
    for n in names.iter().map(String::as_str).chain(["index.html"]) {
        std::fs::read(root.join(n)).unwrap();
        assert!(std::fs::metadata(root.join(format!("{n}.gz"))).is_err());
    }
    let probe = flash_net::sys::open_cached(&root.join("index.html"), false).and_then(|f| {
        let mut byte = [0u8; 1];
        flash_net::sys::pread_nowait(&f, &mut byte, 0)
    });
    if probe.is_err() {
        // Old kernel, seccomp, or a filesystem without non-blocking
        // reads: every miss takes the helper path, as it always did.
        eprintln!("residency test unavailable here ({probe:?}); skipping");
        let _ = std::fs::remove_dir_all(root);
        return;
    }
    let fifo = root.join("wedge.fifo");
    mkfifo_at(&fifo);

    let mut cfg = NetConfig::builder(&root)
        .backend(backend)
        .event_loops(1)
        .helper_wait_timeout(Some(Duration::from_secs(20)))
        .build()
        .unwrap();
    cfg.helpers = 1;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();

    // Wedge the only helper: the FIFO is declined by the residency
    // test (opened without blocking, seen not to be a file, dropped)
    // and the helper's blocking open never returns.
    let mut wedged = TcpStream::connect(addr).unwrap();
    wedged
        .write_all(b"GET /wedge.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().helper_jobs() < 1 {
        assert!(Instant::now() < deadline, "wedge request never dispatched");
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.stats().inline_jobs(),
        0,
        "a FIFO is not answered inline"
    );

    // A cold-cache request for a resident file: 200, byte-exact, no
    // helper involved.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (text, body) = read_response(&mut s);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(body, b"<html>hello flash</html>\n");
    assert_eq!(server.stats().inline_jobs(), 1);

    // Six distinct misses in one write, on the same connection.
    let burst: String = names
        .iter()
        .map(|n| format!("GET /{n} HTTP/1.1\r\nHost: t\r\n\r\n"))
        .collect();
    s.write_all(burst.as_bytes()).unwrap();
    for n in &names {
        let (text, body) = read_response(&mut s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{n}: {text}");
        assert_eq!(body, body_of_name(n), "{n}: out of order or corrupt");
    }
    let stats = server.stats();
    assert_eq!(stats.inline_jobs(), 7);
    assert_eq!(stats.helper_jobs(), 8, "seven inline plus the wedge");
    assert_eq!(stats.cache_hits(), 0, "every one of them was a miss");
    assert_eq!(stats.helper_wait_timeouts(), 0);
    assert_eq!(stats.requests(), 7);

    // Unwedge so the helper thread can be joined.
    drop(std::fs::OpenOptions::new().write(true).open(&fifo).unwrap());
    let (text, _) = read_response(&mut wedged);
    assert!(
        text.starts_with("HTTP/1.1 404"),
        "a FIFO is no file: {text}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[cfg(target_os = "linux")]
#[test]
fn resident_misses_bypass_wedged_helper_epoll() {
    run_resident_misses_bypass_wedged_helper("resident-epoll", flash_net::BackendChoice::Epoll);
}

#[cfg(target_os = "linux")]
#[test]
fn resident_misses_bypass_wedged_helper_poll() {
    run_resident_misses_bypass_wedged_helper("resident-poll", flash_net::BackendChoice::Poll);
}

/// The per-shard connection cap, end to end: a shard at
/// `max_conns_per_shard` stops accepting — later connections complete
/// their handshake into the kernel backlog and wait there, unanswered
/// — and every close admits exactly one of them. A close the
/// occupancy count missed would strand the queue; one counted twice
/// would admit past the cap. The cap is backpressure, not an error —
/// and the shard's own, whichever accept mode stands behind its
/// listener.
#[cfg(target_os = "linux")]
fn run_connection_cap_admits_one_per_close(
    tag: &str,
    backend: flash_net::BackendChoice,
    mode: AcceptMode,
) {
    let root = docroot(tag);
    let cfg = NetConfig::builder(&root)
        .backend(backend)
        .accept_mode(mode)
        .event_loops(1)
        .max_conns_per_shard(2)
        .build()
        .unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let open = || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        s
    };
    let served = |s: &mut TcpStream, who: &str| {
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut first = [0u8; 1];
        assert!(
            matches!(s.peek(&mut first), Ok(1)),
            "{who} was not answered within 2 s"
        );
        let (text, body) = read_response(s);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{who}: {text}");
        assert_eq!(body, b"<html>hello flash</html>\n", "{who}");
    };
    let unanswered = |s: &mut TcpStream, who: &str| {
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut first = [0u8; 1];
        let got = s.peek(&mut first);
        assert!(
            got.as_ref().is_err_and(|e| matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )),
            "{who} got through a full shard: {got:?}"
        );
    };

    let mut a = open();
    served(&mut a, "A");
    let mut b = open();
    served(&mut b, "B");
    let mut c = open();
    unanswered(&mut c, "C");
    drop(a);
    served(&mut c, "C");
    // B and C hold both slots again.
    let mut d = open();
    unanswered(&mut d, "D");
    drop(b);
    served(&mut d, "D");

    let stats = server.stats();
    assert_eq!(stats.accepted(), 4);
    assert_eq!(stats.accept_backpressure(), 0, "the cap is not an error");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[cfg(target_os = "linux")]
#[test]
fn connection_cap_admits_one_per_close_epoll() {
    use flash_net::BackendChoice::Epoll;
    run_connection_cap_admits_one_per_close("cap-epoll-single", Epoll, AcceptMode::Single);
    run_connection_cap_admits_one_per_close("cap-epoll-rp", Epoll, AcceptMode::ReusePort);
}

#[cfg(target_os = "linux")]
#[test]
fn connection_cap_admits_one_per_close_poll() {
    use flash_net::BackendChoice::Poll;
    run_connection_cap_admits_one_per_close("cap-poll-single", Poll, AcceptMode::Single);
    run_connection_cap_admits_one_per_close("cap-poll-rp", Poll, AcceptMode::ReusePort);
}
