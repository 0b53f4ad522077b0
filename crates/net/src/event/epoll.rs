//! Edge-triggered `epoll(7)` backend — the Linux fast path of the
//! readiness subsystem.
//!
//! The three system calls come from [`crate::sys`]; no external I/O
//! crate is pulled in. Every registration but a listener's is
//! `EPOLLET` (edge-triggered), so `epoll_wait` costs O(ready
//! descriptors) and interest-set maintenance is an incremental
//! `epoll_ctl` per state-machine transition instead of a per-iteration
//! rebuild of the whole watch set. Callers must follow the
//! edge-triggered contract in the [module docs](crate::event). A
//! listener asks for [`Interest::ACCEPT`] and is registered without
//! `EPOLLET`: each wait reports it while its backlog holds a
//! connection, so the shard can take one per report and never call
//! `accept4` on an empty backlog (*The listener is level-triggered*).

use std::io;
use std::os::unix::io::{AsRawFd, OwnedFd, RawFd};

use super::{BackendChoice, Event, EventBackend, Interest};
use crate::sys::{self, EpollEvent};

const EPOLL_CTL_ADD: core::ffi::c_int = 1;
const EPOLL_CTL_DEL: core::ffi::c_int = 2;
const EPOLL_CTL_MOD: core::ffi::c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half — reported to readers so half-closed
/// keep-alive connections are reaped instead of lingering silently.
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

fn mask_of(interest: Interest) -> u32 {
    // EPOLLET unless the interest is level-triggered (a listener's
    // ACCEPT): even an Interest::NONE registration stays edge-triggered
    // for the error conditions the kernel always reports. EPOLLRDHUP
    // rides with read interest so a peer's half-close surfaces as
    // readability (read() will return 0). A parked connection keeps its
    // READ registration here (`desired_interest`); HANGUP is the
    // level-triggered backend's.
    debug_assert!(!interest.is_hangup(), "HANGUP is for poll, not epoll");
    let mut m = if interest.is_level() { 0 } else { EPOLLET };
    if interest.is_readable() {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.is_writable() {
        m |= EPOLLOUT;
    }
    m
}

/// Largest batch collected per `epoll_wait`. Ready descriptors beyond
/// the batch stay on the kernel's ready list and come back from the
/// next call — nothing is lost by bounding the buffer.
const WAIT_BATCH: usize = 256;

/// The edge-triggered epoll backend. One epoll instance per event
/// loop; the instance descriptor is closed on drop.
pub struct EpollBackend {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
    registered: usize,
}

impl EpollBackend {
    /// Creates a fresh epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<EpollBackend> {
        Ok(EpollBackend {
            epfd: sys::epoll_create()?,
            buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_BATCH],
            registered: 0,
        })
    }

    fn ctl(&self, op: core::ffi::c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
        sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, ev)
    }
}

impl EventBackend for EpollBackend {
    fn kind(&self) -> BackendChoice {
        BackendChoice::Epoll
    }

    fn edge_triggered(&self) -> bool {
        true
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: mask_of(interest),
                data: token,
            }),
        )?;
        self.registered += 1;
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // EPOLL_CTL_MOD re-arms edge-triggered delivery as a side
        // effect: the kernel re-evaluates readiness against the new
        // mask, so a condition that already holds is delivered again.
        // `rearm` (the default trait impl) relies on exactly this.
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: mask_of(interest),
                data: token,
            }),
        )
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)?;
        self.registered = self.registered.saturating_sub(1);
        Ok(())
    }

    fn forget(&mut self, _fd: RawFd) {
        // close(2) took the kernel-side entry with it; only the count
        // is left to correct.
        self.registered = self.registered.saturating_sub(1);
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        // `timeout_ms` maps straight onto epoll_wait's timeout:
        // negative blocks indefinitely (the shard loop passes -1 when
        // it has no deadline armed), zero polls.
        events.clear();
        let n = sys::epoll_wait(self.epfd.as_raw_fd(), &mut self.buf, timeout_ms)?;
        for raw in &self.buf[..n] {
            let bits = raw.events;
            events.push(Event {
                token: raw.data,
                // Errors and hangups fold into both directions, same
                // as the poll wrapper: the handler attempts the I/O
                // and observes the failure there.
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                hangup: bits & (EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }

    fn registered(&self) -> usize {
        self.registered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_edge_fires_once_until_new_data() {
        let mut be = EpollBackend::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        be.register(a.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut evs = Vec::new();

        // No data yet: timeout, zero events.
        assert_eq!(be.wait(&mut evs, 20).unwrap(), 0);

        b.write_all(b"x").unwrap();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);

        // Edge consumed, data NOT drained: ET reports nothing new.
        assert_eq!(be.wait(&mut evs, 20).unwrap(), 0, "ET must not re-report");

        // New data is a new edge.
        b.write_all(b"y").unwrap();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);

        // Drain, then modify re-arms: still-buffered data would be
        // redelivered, but we drained, so nothing fires.
        let mut sink = [0u8; 8];
        let _ = (&a).read(&mut sink).unwrap();
        be.modify(a.as_raw_fd(), 7, Interest::READ).unwrap();
        assert_eq!(be.wait(&mut evs, 20).unwrap(), 0);
    }

    #[test]
    fn modify_rearms_pending_readiness() {
        let mut be = EpollBackend::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        b.write_all(b"data").unwrap();
        let mut evs = Vec::new();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        // Edge consumed with data still buffered — MOD must redeliver.
        be.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        assert_eq!(
            be.wait(&mut evs, 1000).unwrap(),
            1,
            "MOD must re-arm a still-true condition"
        );
        assert!(evs[0].readable);
    }

    #[test]
    fn interest_none_silences_a_readable_fd() {
        let mut be = EpollBackend::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
        b.write_all(b"!").unwrap();
        let mut evs = Vec::new();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        be.modify(a.as_raw_fd(), 3, Interest::NONE).unwrap();
        assert_eq!(be.wait(&mut evs, 20).unwrap(), 0, "NONE must silence");
        // And switching back redelivers the buffered data.
        be.modify(a.as_raw_fd(), 3, Interest::READ).unwrap();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    }

    #[test]
    fn deregister_then_reuse_slot() {
        let mut be = EpollBackend::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 9, Interest::READ).unwrap();
        assert_eq!(be.registered(), 1);
        be.deregister(a.as_raw_fd()).unwrap();
        assert_eq!(be.registered(), 0);
        b.write_all(b"z").unwrap();
        let mut evs = Vec::new();
        assert_eq!(
            be.wait(&mut evs, 20).unwrap(),
            0,
            "deregistered fd is silent"
        );
        be.register(a.as_raw_fd(), 10, Interest::READ).unwrap();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        assert_eq!(evs[0].token, 10, "re-registration carries the new token");
    }
}
