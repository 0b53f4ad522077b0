//! Direct tests of the readiness subsystem (`flash_net::event`):
//! conformance shared by both backends, scale (≈1k registered
//! sockets with a sparse active set — the workload the epoll backend
//! exists for), the edge-triggered re-arm contract across partial
//! writes that the server's `sendfile` fairness yield depends on, and
//! parked registrations: a parked connection hears its peer's hang-up,
//! not its data, and a shard holding one does not spin.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

use flash_net::event::{ensure_fd_limit, new_backend, BackendChoice, BackendKind, Interest};

/// ~1k registered sockets, 64 of them readable: every active token is
/// reported (across however many wait batches it takes), no idle token
/// ever is.
fn sparse_ready_among_1k(choice: BackendChoice) {
    const TOTAL: usize = 1024;
    const ACTIVE: usize = 64;
    // Each pair costs two descriptors; leave headroom for the harness.
    assert!(
        ensure_fd_limit((TOTAL * 2 + 128) as u64),
        "cannot raise RLIMIT_NOFILE for the 1k-socket test"
    );
    let mut be = new_backend(choice);
    let pairs: Vec<(UnixStream, UnixStream)> =
        (0..TOTAL).map(|_| UnixStream::pair().unwrap()).collect();
    for (i, (a, _b)) in pairs.iter().enumerate() {
        a.set_nonblocking(true).unwrap();
        be.register(a.as_raw_fd(), i as u64, Interest::READ)
            .unwrap();
    }
    assert_eq!(be.registered(), TOTAL);

    // Spread the active set across the registration order.
    let active: BTreeSet<u64> = (0..ACTIVE).map(|k| (k * 16 + 3) as u64).collect();
    for &i in &active {
        (&pairs[i as usize].1).write_all(b"x").unwrap();
    }

    let mut got: BTreeSet<u64> = BTreeSet::new();
    let mut evs = Vec::new();
    // The epoll backend batches 256 events per wait; loop until the
    // full active set has been reported.
    for _ in 0..32 {
        if got.len() == active.len() {
            break;
        }
        let n = be.wait(&mut evs, 1000).unwrap();
        assert!(n > 0, "active sockets pending but wait returned none");
        for e in &evs {
            assert!(e.readable, "token {} not readable", e.token);
            assert!(
                active.contains(&e.token),
                "idle socket {} reported ready",
                e.token
            );
            got.insert(e.token);
        }
    }
    assert_eq!(got, active, "every active socket must be reported");

    // Deregister the whole set; the backend must end empty.
    for (a, _b) in &pairs {
        be.deregister(a.as_raw_fd()).unwrap();
    }
    assert_eq!(be.registered(), 0);
}

#[test]
fn poll_sparse_ready_among_1k() {
    sparse_ready_among_1k(BackendChoice::Poll);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_sparse_ready_among_1k() {
    sparse_ready_among_1k(BackendChoice::Epoll);
}

/// Fills `w`'s send buffer until `EWOULDBLOCK`, returning bytes accepted.
fn fill_until_blocked(w: &UnixStream) -> usize {
    let chunk = [0x5Au8; 64 * 1024];
    let mut sent = 0;
    loop {
        match (&*w).write(&chunk) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return sent,
            Err(e) => panic!("unexpected write error: {e}"),
        }
    }
}

/// Drains everything currently buffered on `r`.
fn drain(r: &UnixStream) -> usize {
    let mut buf = [0u8; 64 * 1024];
    let mut total = 0;
    loop {
        match (&*r).read(&mut buf) {
            Ok(0) => return total,
            Ok(n) => total += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return total,
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
}

/// The edge-triggered re-arm contract across partial writes, asserted
/// against the real epoll backend with ~1k other sockets registered —
/// the exact situation of one `sendfile` stream yielding for fairness
/// inside a shard full of idle keep-alive connections:
///
/// 1. consumed writability edges are NOT re-reported (this is what
///    makes ET cheap, and what makes a missing re-arm a hang, not a
///    slowdown);
/// 2. `rearm` on a still-writable socket redelivers the edge (the
///    fairness-yield resume path);
/// 3. `rearm` on a blocked socket invents nothing;
/// 4. the peer draining a full buffer is a fresh edge.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_rearm_across_partial_writes_among_1k_sockets() {
    const BACKGROUND: usize = 1000;
    assert!(
        ensure_fd_limit((BACKGROUND * 2 + 128) as u64),
        "cannot raise RLIMIT_NOFILE"
    );
    let mut be = new_backend(BackendChoice::Epoll);
    assert_eq!(be.kind(), BackendKind::Epoll);
    assert!(be.edge_triggered());

    // A quiet crowd: none of these may ever produce an event.
    let crowd: Vec<(UnixStream, UnixStream)> = (0..BACKGROUND)
        .map(|_| UnixStream::pair().unwrap())
        .collect();
    for (i, (a, _b)) in crowd.iter().enumerate() {
        a.set_nonblocking(true).unwrap();
        be.register(a.as_raw_fd(), 10_000 + i as u64, Interest::READ)
            .unwrap();
    }

    const TOKEN: u64 = 42;
    let (w, r) = UnixStream::pair().unwrap();
    w.set_nonblocking(true).unwrap();
    r.set_nonblocking(true).unwrap();
    be.register(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    let mut evs = Vec::new();

    // Fresh socket: the initial writability edge.
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert_eq!(evs[0].token, TOKEN);
    assert!(evs[0].writable);

    // Edge consumed, socket still writable: ET stays silent. A loop
    // that "yielded" here without re-arming would hang forever.
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0, "ET must not re-report");

    // The fairness-yield path: re-arm with the socket still writable —
    // the edge must be redelivered.
    be.rearm(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1, "rearm must redeliver");
    assert_eq!(evs[0].token, TOKEN);

    // Partial write until the buffer is full: now genuinely blocked.
    let sent = fill_until_blocked(&w);
    assert!(sent > 0, "some bytes must land before EWOULDBLOCK");
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0);

    // Re-arm on a blocked socket must NOT invent readiness.
    be.rearm(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    assert_eq!(
        be.wait(&mut evs, 50).unwrap(),
        0,
        "rearm must not fabricate"
    );

    // The peer drains: writable again, delivered as a fresh edge.
    let drained = drain(&r);
    assert_eq!(drained, sent);
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1, "drain is a new edge");
    assert_eq!(evs[0].token, TOKEN);
    assert!(evs[0].writable);
}

/// Same re-arm sequence against the poll backend: level-triggered
/// readiness makes rules 1/4 trivially true (readiness is re-reported
/// every wait), but rule 2 and 3 — rearm redelivers iff actually
/// writable — must hold identically, since the server runs one loop
/// over both kernels.
#[test]
fn poll_rearm_reports_only_true_readiness() {
    const TOKEN: u64 = 7;
    let mut be = new_backend(BackendChoice::Poll);
    assert!(!be.edge_triggered());
    let (w, r) = UnixStream::pair().unwrap();
    w.set_nonblocking(true).unwrap();
    r.set_nonblocking(true).unwrap();
    be.register(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    let mut evs = Vec::new();

    // Writable, and (LT) re-reported for as long as it stays so.
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    be.rearm(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].writable);

    // Blocked: silent, rearm or not.
    let sent = fill_until_blocked(&w);
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0);
    be.rearm(w.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0);

    // Drained: writable again.
    assert_eq!(drain(&r), sent);
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].writable);
}

/// Interest transitions as the server makes them: READ → NONE (a
/// quiesced listener; on poll, a parked connection whose hang-up has
/// been noted) → WRITE (response queued) → READ (keep-alive). Both
/// backends must deliver exactly the events the current interest asks
/// for.
fn interest_lifecycle(choice: BackendChoice) {
    const TOKEN: u64 = 3;
    let mut be = new_backend(choice);
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    be.register(a.as_raw_fd(), TOKEN, Interest::READ).unwrap();
    let mut evs = Vec::new();

    b.write_all(b"request").unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].readable);

    // Interest NONE silences the still-readable socket.
    be.modify(a.as_raw_fd(), TOKEN, Interest::NONE).unwrap();
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0);

    // Writing: the socket is writable, so switching interest delivers
    // immediately — on epoll this is the MOD-re-arms guarantee that
    // makes the Waiting→Writing transition race-free.
    be.modify(a.as_raw_fd(), TOKEN, Interest::WRITE).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].writable);

    // Back to Reading: the unread request bytes resurface.
    be.modify(a.as_raw_fd(), TOKEN, Interest::READ).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].readable);
}

#[test]
fn poll_interest_lifecycle() {
    interest_lifecycle(BackendChoice::Poll);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_interest_lifecycle() {
    interest_lifecycle(BackendChoice::Epoll);
}

/// A parked connection's poll entry ([`Interest::HANGUP`], the
/// level-triggered backend's alone: epoll keeps `READ`) reports its
/// peer's hang-up and not its peer's data: a pipelined request stays
/// unreported in the socket, the FIN behind it is an event marked
/// `hangup`. That condition stays true, so the entry must leave the
/// set ([`Interest::NONE`]) once it has been reported. Linux only:
/// elsewhere poll has no `POLLRDHUP`.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn poll_parked_entry_reports_the_fin_not_the_data() {
    const TOKEN: u64 = 11;
    let mut be = new_backend(BackendChoice::Poll);
    let (a, mut b) = UnixStream::pair().unwrap();
    a.set_nonblocking(true).unwrap();
    be.register(a.as_raw_fd(), TOKEN, Interest::HANGUP).unwrap();
    let mut evs = Vec::new();

    b.write_all(b"GET /pipelined HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0, "data is not reported");

    b.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1, "the FIN is");
    assert_eq!(evs[0].token, TOKEN);
    assert!(evs[0].hangup && evs[0].readable, "{:?}", evs[0]);

    be.modify(a.as_raw_fd(), TOKEN, Interest::NONE).unwrap();
    assert_eq!(be.wait(&mut evs, 50).unwrap(), 0, "noted, then silent");
    // Resumed for reading, the request is still there to be read.
    be.modify(a.as_raw_fd(), TOKEN, Interest::READ).unwrap();
    assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    assert!(evs[0].readable);
}

/// A shard with one connection parked and nothing else to do sleeps:
/// its request is a helper's — wedged opening a FIFO no one writes —
/// and its client half-closes behind it. The wait that reports the
/// hang-up is all the shard makes while it waits (the connection's
/// helper-wait deadline is a minute out, and the wait runs to it); a
/// level-triggered hang-up left in the poll set would return from
/// every wait. Unwedged, the request is answered and the connection
/// closed at its end of stream.
fn a_parked_hangup_costs_at_most_two_waits(choice: BackendChoice) {
    use flash_net::{NetConfig, Server};
    use std::net::TcpStream;
    use std::time::Duration;

    let root = std::env::temp_dir().join(format!(
        "flash-parked-hangup-{}-{}",
        flash_net::event::resolve(choice).name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let fifo = root.join("wedge.fifo");
    let made = std::process::Command::new("mkfifo").arg(&fifo).status();
    if !made.is_ok_and(|s| s.success()) {
        eprintln!("mkfifo(1) unavailable; skipping");
        return;
    }
    let cfg = NetConfig::builder(&root)
        .backend(choice)
        .event_loops(1)
        .build()
        .unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let shard = &server.stats().per_shard()[0];
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /wedge.fifo HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while get(&shard.helper_jobs) == 0 {
        assert!(std::time::Instant::now() < deadline, "never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    let waits = get(&shard.wait_calls);
    s.shutdown(std::net::Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let made = get(&shard.wait_calls) - waits;
    assert!(made <= 2, "{choice:?}: {made} waits while parked");

    drop(std::fs::OpenOptions::new().write(true).open(&fifo).unwrap());
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 404 "), "{choice:?}: {text}");
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn poll_a_parked_hangup_costs_at_most_two_waits() {
    a_parked_hangup_costs_at_most_two_waits(BackendChoice::Poll);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_a_parked_hangup_costs_at_most_two_waits() {
    a_parked_hangup_costs_at_most_two_waits(BackendChoice::Epoll);
}

/// A shard whose one connection sits idle between requests sleeps
/// until that connection's deadline: the wait after the response runs
/// to the idle timeout, and the reap lands on the first tick at or
/// after it. The tick is 37.5 ms here (an eighth of the 300 ms
/// header-read timeout), so a loop that woke once a tick would make
/// ≈ 16 waits in the 600 ms idle period.
fn an_idle_shard_sleeps_until_its_deadline(choice: BackendChoice) {
    use flash_net::{NetConfig, Server};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    const BODY: &[u8] = b"<p>asleep</p>";
    let root = std::env::temp_dir().join(format!(
        "flash-idle-sleep-{}-{}",
        flash_net::event::resolve(choice).name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), BODY).unwrap();
    let (idle, tick) = (Duration::from_millis(600), Duration::from_micros(37_500));
    let cfg = NetConfig::builder(&root)
        .backend(choice)
        .event_loops(1)
        .idle_timeout(Some(idle))
        .header_read_timeout(Some(Duration::from_millis(300)))
        .build()
        .unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let shard = &server.stats().per_shard()[0];
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // The idle deadline is armed after the request is sent.
    let sent = Instant::now();
    s.write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (mut resp, mut buf) = (Vec::new(), [0u8; 1024]);
    while !resp.ends_with(BODY) {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "{choice:?}: closed before the response");
        resp.extend_from_slice(&buf[..n]);
    }
    let waits = get(&shard.wait_calls);
    assert_eq!(s.read(&mut buf).unwrap(), 0, "{choice:?}: not reaped");
    let reaped = sent.elapsed();
    let made = get(&shard.wait_calls) - waits;
    assert!(made <= 2, "{choice:?}: {made} waits while idle");
    let late = idle + tick + Duration::from_millis(50);
    assert!(
        (idle..=late).contains(&reaped),
        "{choice:?}: reaped {reaped:?} after the request"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn poll_an_idle_shard_sleeps_until_its_deadline() {
    an_idle_shard_sleeps_until_its_deadline(BackendChoice::Poll);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_an_idle_shard_sleeps_until_its_deadline() {
    an_idle_shard_sleeps_until_its_deadline(BackendChoice::Epoll);
}

/// The accept-gate sequence the reuseport shards run their listeners
/// through: a listener registered for READ reports pending
/// connections, `Interest::NONE` quiesces it (backpressure — the
/// backlog keeps queueing in the kernel), and re-arming with `modify`
/// redelivers the *still-pending* backlog as a fresh event without a
/// new connection having to arrive.
fn listener_accept_gate(choice: BackendChoice) {
    use std::net::{TcpListener, TcpStream};

    const TOKEN: u64 = u64::MAX - 1; // the server's listener token
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut be = new_backend(choice);
    be.register(listener.as_raw_fd(), TOKEN, Interest::READ)
        .unwrap();
    let mut evs = Vec::new();

    // A pending connection surfaces as readability on the listener.
    let _c1 = TcpStream::connect(addr).unwrap();
    assert_eq!(be.wait(&mut evs, 2000).unwrap(), 1);
    assert_eq!(evs[0].token, TOKEN);
    assert!(evs[0].readable);
    let _ = listener.accept().unwrap();

    // Throttled: connections queue silently in the backlog.
    be.modify(listener.as_raw_fd(), TOKEN, Interest::NONE)
        .unwrap();
    let _c2 = TcpStream::connect(addr).unwrap();
    // Give the loopback handshake a beat to complete first.
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(
        be.wait(&mut evs, 50).unwrap(),
        0,
        "a quiesced listener must stay silent"
    );

    // Re-arm: the backlog that filled while throttled must be
    // redelivered even though its edge predates the modify.
    be.modify(listener.as_raw_fd(), TOKEN, Interest::READ)
        .unwrap();
    assert_eq!(
        be.wait(&mut evs, 2000).unwrap(),
        1,
        "re-arm must redeliver the pending backlog"
    );
    assert!(evs[0].readable);
    let _ = listener.accept().unwrap();
}

#[test]
fn poll_listener_accept_gate() {
    listener_accept_gate(BackendChoice::Poll);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn epoll_listener_accept_gate() {
    listener_accept_gate(BackendChoice::Epoll);
}
