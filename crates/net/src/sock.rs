//! Listening-socket construction and accept-path mode selection.
//!
//! One place builds every listening socket the servers use — the MT
//! server's, the one socket every AMPED shard registers a duplicate of
//! in single mode, and (the point of this module) the **per-shard
//! `SO_REUSEPORT` listeners** that give each event-loop shard a kernel
//! socket, and a share of the arrivals, of its own. `SO_REUSEPORT` must
//! be set *before* `bind(2)`, which
//! `std::net::TcpListener` cannot express, so on Linux the socket is
//! assembled by `sys::bind_listener`; other platforms fall
//! back to `std` (and never request reuseport — see
//! [`resolve_accept_mode`]).
//!
//! It is also the one place that sets **per-connection options**, and
//! it sets them on the listener: `TCP_NODELAY` (one gathered write per
//! response makes Nagle pointless, and disabling it removes the
//! delayed-ACK interaction on keep-alive connections) is put on every
//! listening socket — fresh ([`bind_listener`]) or inherited
//! ([`adopt_listener`]) — and Linux copies it to each socket accepted
//! from it. A shard's connections arrive nonblocking from the
//! `accept4(2)` that accepts them (`sys::accept_nonblocking`), so no
//! accept path issues a `setsockopt` or an `ioctl` per connection;
//! only off Linux, where neither holds, does the accept wrapper make
//! the two calls itself.
//!
//! The shards accept for themselves in both modes; the mode is how
//! many kernel sockets stand behind their registrations. Selection
//! mirrors the readiness backend's ([`crate::event::resolve`]):
//! [`AcceptMode::Auto`] resolves to per-shard reuseport listeners on
//! Linux — where the kernel hashes incoming connections across all
//! sockets bound to the port — and to one shared socket elsewhere,
//! overridable with `FLASH_ACCEPT_MODE=single|reuseport`;
//! `ReusePort`/`Single` pin a mode and ignore the environment (modulo
//! the platform floor: reuseport requested where the kernel does not
//! load-balance it degrades to the shared socket rather than failing).

use std::io;
use std::net::{SocketAddr, TcpListener};

/// How `accept(2)` work is spread over the shards (see
/// [`crate::config::NetConfig::accept_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptMode {
    /// Platform default — per-shard `SO_REUSEPORT` listeners on Linux,
    /// one shared socket elsewhere — overridable with
    /// `FLASH_ACCEPT_MODE=single|reuseport`.
    #[default]
    Auto,
    /// Pin per-shard reuseport listeners (degrades to the shared
    /// socket on platforms without load-balancing `SO_REUSEPORT`).
    /// Ignores the environment.
    ReusePort,
    /// Pin one listening socket shared by every shard: each registers
    /// a duplicate of it, and a connection goes to whichever shard
    /// wakes first, bounded by
    /// [`max_conns_per_shard`](crate::config::NetConfig::max_conns_per_shard).
    /// Ignores the environment.
    Single,
}

/// Which concrete accept path an [`AcceptMode`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptModeKind {
    /// Each shard owns a `SO_REUSEPORT` listener registered in its own
    /// event backend; the kernel load-balances accepts.
    ReusePort,
    /// One kernel socket shared by every shard's registration; the
    /// shards race for each arrival.
    Single,
}

impl AcceptModeKind {
    /// Lower-case name, matching the `FLASH_ACCEPT_MODE` values.
    pub fn name(self) -> &'static str {
        match self {
            AcceptModeKind::ReusePort => "reuseport",
            AcceptModeKind::Single => "single",
        }
    }
}

const ENV_ACCEPT_MODE: &str = "FLASH_ACCEPT_MODE";

/// `SO_REUSEPORT` exists on the BSDs too, but only Linux (≥3.9) hashes
/// connections across the sockets sharing the port — which is the
/// entire point here, so only Linux gets it by default.
fn platform_has_reuseport() -> bool {
    cfg!(any(target_os = "linux", target_os = "android"))
}

/// Resolves a choice to the accept path that will actually run,
/// applying the `FLASH_ACCEPT_MODE` override (only to `Auto`) and the
/// platform floor (reuseport requested where the kernel does not
/// load-balance it degrades to the shared socket).
pub fn resolve_accept_mode(choice: AcceptMode) -> AcceptModeKind {
    let want = match choice {
        AcceptMode::Single => AcceptModeKind::Single,
        AcceptMode::ReusePort => AcceptModeKind::ReusePort,
        AcceptMode::Auto => match std::env::var(ENV_ACCEPT_MODE).ok().as_deref() {
            Some("single") => AcceptModeKind::Single,
            Some("reuseport") => AcceptModeKind::ReusePort,
            // Unknown values fall through to the platform default
            // rather than aborting a running server over a typo.
            _ => {
                if platform_has_reuseport() {
                    AcceptModeKind::ReusePort
                } else {
                    AcceptModeKind::Single
                }
            }
        },
    };
    if want == AcceptModeKind::ReusePort && !platform_has_reuseport() {
        AcceptModeKind::Single
    } else {
        want
    }
}

/// Re-asserts on a listener inherited from a previous generation
/// ([`crate::handoff`]) what [`bind_listener`] sets on a fresh one. The
/// descriptor is a dup sharing the old generation's open file
/// description, so both already hold — unless that generation predates
/// the listener-side `TCP_NODELAY`; and a blocking listener would
/// wedge a whole shard on one spurious readiness event.
pub fn adopt_listener(listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    crate::sys::set_listener_nodelay(listener)?;
    Ok(())
}

/// Binds a nonblocking listener on `addr`. With `reuseport`, the
/// socket gets `SO_REUSEPORT` before `bind(2)` so any number of
/// listeners — one per shard — can share the port and have the kernel
/// spread incoming connections across them. All listeners get
/// `SO_REUSEADDR`, so a restart does not trip over old connections in
/// `TIME_WAIT`, and (on Linux) `TCP_NODELAY`, for the connections
/// accepted from them to inherit.
pub fn bind_listener(addr: SocketAddr, reuseport: bool) -> io::Result<TcpListener> {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    {
        crate::sys::bind_listener(addr, reuseport)
    }
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    {
        // No load-balancing reuseport off Linux; resolve_accept_mode
        // never asks for it there, so std's builder suffices.
        debug_assert!(!reuseport, "reuseport listeners are Linux-only");
        let _ = reuseport;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(listener)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn pinned_modes_ignore_environment() {
        assert_eq!(
            resolve_accept_mode(AcceptMode::Single),
            AcceptModeKind::Single
        );
        if platform_has_reuseport() {
            assert_eq!(
                resolve_accept_mode(AcceptMode::ReusePort),
                AcceptModeKind::ReusePort
            );
        } else {
            assert_eq!(
                resolve_accept_mode(AcceptMode::ReusePort),
                AcceptModeKind::Single
            );
        }
    }

    /// Accepts one connection from the nonblocking `l` through the
    /// shard's own accept call.
    fn accept_one(l: &TcpListener) -> TcpStream {
        loop {
            match crate::sys::accept_nonblocking(l) {
                Ok(s) => return s,
                // The connection may need a beat to land.
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    #[test]
    fn bound_listener_accepts_and_frees_its_port() {
        let l = bind_listener("127.0.0.1:0".parse().unwrap(), false).unwrap();
        let addr = l.local_addr().unwrap();
        let mut c = TcpStream::connect(addr).unwrap();
        let mut s = accept_one(&l);
        s.write_all(b"ok").unwrap();
        drop(s);
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"ok");
        // Dropping the listener frees the port for an immediate rebind.
        drop(l);
        let l2 = bind_listener(addr, false).unwrap();
        assert_eq!(l2.local_addr().unwrap(), addr);
    }

    /// The listener is the one place per-connection options are set:
    /// what `accept_nonblocking` returns needs no further call. An
    /// adopted listener that never had the option gets it too.
    #[test]
    fn accepted_sockets_arrive_nodelay_nonblocking_and_cloexec() {
        use std::os::unix::io::AsRawFd;
        let bound = bind_listener("127.0.0.1:0".parse().unwrap(), false).unwrap();
        let plain = TcpListener::bind("127.0.0.1:0").unwrap();
        adopt_listener(&plain).unwrap();
        for l in [bound, plain] {
            let _c = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let mut s = accept_one(&l);
            assert!(s.nodelay().unwrap(), "TCP_NODELAY not inherited");
            let err = s.read(&mut [0u8; 1]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "socket blocks");
            // `flags:` in fdinfo is the descriptor's open flags in
            // octal, O_CLOEXEC (0o2000000) among them.
            let info = format!("/proc/self/fdinfo/{}", s.as_raw_fd());
            if let Ok(text) = std::fs::read_to_string(info) {
                let flags = text.lines().find_map(|l| l.strip_prefix("flags:")).unwrap();
                let flags = u32::from_str_radix(flags.trim(), 8).unwrap();
                assert_ne!(flags & 0o2000000, 0, "not close-on-exec: {flags:o}");
            }
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    #[test]
    fn reuseport_listeners_share_a_port() {
        let a = bind_listener("127.0.0.1:0".parse().unwrap(), true).unwrap();
        let addr = a.local_addr().unwrap();
        // A second (and third) listener on the same port must bind.
        let b = bind_listener(addr, true).unwrap();
        let c = bind_listener(addr, true).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
        assert_eq!(c.local_addr().unwrap(), addr);
        // Without reuseport the same bind must fail while a holds it.
        assert!(bind_listener(addr, false).is_err());
    }
}
