//! Zero-downtime restart smoke test: a supervisor-shaped choreography
//! of the full lifecycle subsystem, under client load, in **both
//! accept modes**.
//!
//! The sequence per mode — exactly what a process supervisor would
//! drive across two real processes, compressed into one so CI can
//! assert on both generations' counters:
//!
//! 1. Generation A starts and serves; client threads churn
//!    short-lived connections against it continuously.
//! 2. A's listening sockets are duplicated over a unix control
//!    socket with `SCM_RIGHTS` ([`send_listeners`] /
//!    [`recv_listeners`]) and generation B adopts them with
//!    [`Server::start_inherited`] — the *kernel sockets* move, so the
//!    accept backlog survives and no SYN is ever reset.
//! 3. `SIGTERM` is delivered (really delivered: `kill(getpid())`),
//!    observed through the self-pipe ([`Signals`]), and mapped to
//!    [`Server::drain`] on A — which finishes its in-flight
//!    responses and exits while B keeps accepting.
//! 4. The churn continues against B; at the end, **zero failed or
//!    truncated requests** is the bar, and B must have taken traffic.
//!
//! Run with: `cargo run --release --example graceful_restart`
//! CI runs this on every push; it exits non-zero on any violation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flash_repro::net::{
    recv_listeners, send_listeners, send_to_self, AcceptMode, NetConfig, Server, Signal, Signals,
};

const CLIENT_THREADS: usize = 4;
const BODY: &[u8] = b"<html>served across generations</html>";

/// One short-lived request; any error or truncation is a failure —
/// the whole point of the exercise is that the restart drops nothing.
fn request(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    s.write_all(b"GET /index.html HTTP/1.0\r\nHost: restart\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).map_err(|e| format!("read: {e}"))?;
    if !resp.starts_with(b"HTTP/1.1 200 OK\r\n") {
        return Err("non-200 response".into());
    }
    if !resp.ends_with(BODY) {
        return Err("truncated body".into());
    }
    Ok(())
}

fn main() {
    let root = std::env::temp_dir().join(format!("flash-graceful-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("index.html"), BODY).unwrap();

    // The self-pipe is process-global; install once, reuse per mode.
    let mut signals = Signals::install(&[Signal::Term]).expect("install SIGTERM handler");

    for mode in [AcceptMode::Single, AcceptMode::ReusePort] {
        let cfg = || {
            NetConfig::builder(&root)
                .event_loops(2)
                .accept_mode(mode)
                .drain_timeout(Duration::from_secs(30))
                .build()
                .unwrap()
        };
        let a = Server::start("127.0.0.1:0", cfg()).expect("generation A");
        let addr = a.addr();
        let resolved = a.accept_mode();

        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match request(addr) {
                            Ok(()) => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("request failed during restart: {e}"),
                        }
                    }
                })
            })
            .collect();

        // Let the churn establish itself against generation A.
        std::thread::sleep(Duration::from_millis(200));

        // The restart: hand the kernel sockets to generation B over a
        // control socket, then SIGTERM the old generation.
        let (control_tx, control_rx) = UnixStream::pair().expect("control socket");
        send_listeners(&control_tx, a.handoff_listeners()).expect("send listener fds");
        let inherited = recv_listeners(&control_rx).expect("receive listener fds");
        let b = Server::start_inherited(cfg(), inherited).expect("generation B");

        send_to_self(Signal::Term).expect("deliver SIGTERM");
        match signals.wait_timeout(Duration::from_secs(5)).expect("wait") {
            Some(Signal::Term) => a.drain(),
            other => panic!("expected SIGTERM through the self-pipe, got {other:?}"),
        }

        // Old generation is gone; the churn must not have noticed.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for t in clients {
            t.join().expect("a client thread failed a request");
        }

        let total = served.load(Ordering::Relaxed);
        let taken_by_b = b.stats().requests();
        assert!(total > 0, "the churn must have served something");
        assert!(
            taken_by_b > 0,
            "generation B must have taken traffic after the handoff"
        );
        println!(
            "graceful restart OK [{}]: {} requests across the restart, 0 failed; \
             new generation served {}",
            resolved.name(),
            total,
            taken_by_b,
        );
        b.stop();
    }

    let _ = std::fs::remove_dir_all(&root);
}
