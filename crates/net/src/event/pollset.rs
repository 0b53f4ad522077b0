//! Portable `poll(2)` backend — the fallback half of the readiness
//! subsystem, over the one call every Unix has (`sys::poll`):
//! the paper's portability argument, only ubiquitous interfaces.
//!
//! The interest table is maintained incrementally (register / modify /
//! deregister keep a dense entry vector plus an fd index), but each
//! `wait` still rebuilds a `pollfd` array and hands the whole watch
//! set to the kernel — the O(watched descriptors) scan the paper
//! attributes to `select`-style interfaces, and exactly the cost the
//! epoll backend exists to remove. Readiness is level-triggered:
//! strictly more events than edge-triggered, so a caller written to
//! the ET contract (see [module docs](crate::event)) is correct here
//! too, just with occasional spurious wakeups it absorbs as
//! `EWOULDBLOCK`.

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;

use super::{BackendKind, Event, EventBackend, Interest};
use crate::sys::{self, PollFd};

/// Readable readiness (POLLIN).
const POLL_IN: i16 = 0x001;
/// Writable readiness (POLLOUT).
const POLL_OUT: i16 = 0x004;
/// Error condition (POLLERR; only returned in `revents`).
const POLL_ERR: i16 = 0x008;
/// Hang-up (POLLHUP; only returned in `revents`).
const POLL_HUP: i16 = 0x010;

/// True if `revents` says readable — or peer-closed/errored, which a
/// reader must observe to reap the connection.
fn is_readable(revents: i16) -> bool {
    revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
}

/// True if `revents` says writable (or errored, as above).
fn is_writable(revents: i16) -> bool {
    revents & (POLL_OUT | POLL_ERR | POLL_HUP) != 0
}

struct Entry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

/// The level-triggered fallback backend.
pub struct PollBackend {
    entries: Vec<Entry>,
    index: HashMap<RawFd, usize>,
    /// Persistent `pollfd` buffer, cleared (never shrunk) per wait.
    fds: Vec<PollFd>,
    /// `fds[i]` (beyond any skipped entries) maps to `entries[fd_entry[i]]`.
    fd_entry: Vec<usize>,
}

impl PollBackend {
    /// Creates an empty poll set.
    pub fn new() -> PollBackend {
        PollBackend {
            entries: Vec::new(),
            index: HashMap::new(),
            fds: Vec::new(),
            fd_entry: Vec::new(),
        }
    }
}

impl Default for PollBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBackend for PollBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Poll
    }

    fn edge_triggered(&self) -> bool {
        false
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.index.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.index.insert(fd, self.entries.len());
        self.entries.push(Entry {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let &i = self
            .index
            .get(&fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries[i].token = token;
        self.entries[i].interest = interest;
        Ok(())
    }

    fn rearm(&mut self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        // Level-triggered: a still-true condition is re-reported on
        // every wait, so there is no edge to re-arm.
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .index
            .remove(&fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.index.insert(self.entries[i].fd, i);
        }
        Ok(())
    }

    fn forget(&mut self, fd: RawFd) {
        // The table is all there is: forgetting is deregistering.
        let _ = self.deregister(fd);
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        self.fds.clear();
        self.fd_entry.clear();
        for (i, e) in self.entries.iter().enumerate() {
            let mut mask = 0i16;
            if e.interest.is_readable() {
                mask |= POLL_IN;
            }
            if e.interest.is_writable() {
                mask |= POLL_OUT;
            }
            if mask == 0 {
                // Interest::NONE entries stay registered but are not
                // handed to the kernel: poll(2) would still report
                // POLLERR/POLLHUP for them, turning an intentionally
                // quiesced descriptor into a busy loop.
                continue;
            }
            self.fds.push(PollFd {
                fd: e.fd,
                events: mask,
                revents: 0,
            });
            self.fd_entry.push(i);
        }
        if self.fds.is_empty() {
            // Nothing pollable: honour the timeout so callers keep
            // their cadence (shutdown checks, timing-wheel ticks). An
            // infinite timeout degrades to a short sleep-poll — the
            // server's loops always keep at least a wake pipe
            // registered, so this path only guards exotic callers
            // against spinning.
            if timeout_ms != 0 {
                std::thread::sleep(std::time::Duration::from_millis(if timeout_ms < 0 {
                    50
                } else {
                    timeout_ms as u64
                }));
            }
            return Ok(0);
        }
        sys::poll(&mut self.fds, timeout_ms)?;
        for (slot, fd) in self.fds.iter().enumerate() {
            let (readable, writable) = (is_readable(fd.revents), is_writable(fd.revents));
            if readable || writable {
                events.push(Event {
                    token: self.entries[self.fd_entry[slot]].token,
                    readable,
                    writable,
                    hangup: fd.revents & (POLL_ERR | POLL_HUP) != 0,
                });
            }
        }
        Ok(events.len())
    }

    fn registered(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// One `poll(2)` of `fd` for `events`, as `wait` issues it.
    fn poll_one(fd: &UnixStream, events: i16, timeout_ms: i32) -> (usize, i16) {
        let mut fds = [PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }];
        let n = sys::poll(&mut fds, timeout_ms).unwrap();
        (n, fds[0].revents)
    }

    #[test]
    fn timeout_returns_zero_ready() {
        let (a, _b) = UnixStream::pair().unwrap();
        let (n, revents) = poll_one(&a, POLL_IN, 10);
        assert_eq!(n, 0);
        assert!(!is_readable(revents));
    }

    #[test]
    fn data_makes_fd_readable() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(b"x").unwrap();
        let (n, revents) = poll_one(&a, POLL_IN, 1000);
        assert_eq!(n, 1);
        assert!(is_readable(revents));
        assert!(!is_writable(revents));
    }

    #[test]
    fn sockets_start_writable() {
        let (a, _b) = UnixStream::pair().unwrap();
        let (n, revents) = poll_one(&a, POLL_OUT, 1000);
        assert_eq!(n, 1);
        assert!(is_writable(revents));
    }

    #[test]
    fn hangup_reported_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let (n, revents) = poll_one(&a, POLL_IN, 1000);
        assert_eq!(n, 1);
        assert!(is_readable(revents), "peer close must wake readers");
    }

    #[test]
    fn level_triggered_re_reports_until_drained() {
        let mut be = PollBackend::new();
        let (a, mut b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 5, Interest::READ).unwrap();
        b.write_all(b"x").unwrap();
        let mut evs = Vec::new();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        assert_eq!(evs[0].token, 5);
        // Not drained: LT keeps reporting — the opposite of the epoll
        // backend's single-edge delivery.
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    }

    #[test]
    fn interest_none_is_skipped_not_polled() {
        let mut be = PollBackend::new();
        let (a, mut b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 5, Interest::READ).unwrap();
        b.write_all(b"x").unwrap();
        be.modify(a.as_raw_fd(), 5, Interest::NONE).unwrap();
        let mut evs = Vec::new();
        assert_eq!(be.wait(&mut evs, 10).unwrap(), 0);
        assert_eq!(be.registered(), 1, "NONE keeps the registration");
        be.modify(a.as_raw_fd(), 5, Interest::READ).unwrap();
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
    }

    #[test]
    fn deregister_swaps_index_correctly() {
        let mut be = PollBackend::new();
        let pairs: Vec<_> = (0..4).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (a, _)) in pairs.iter().enumerate() {
            be.register(a.as_raw_fd(), i as u64, Interest::READ)
                .unwrap();
        }
        // Remove the first; the swapped-in last entry must stay
        // addressable for modify.
        be.deregister(pairs[0].0.as_raw_fd()).unwrap();
        assert_eq!(be.registered(), 3);
        be.modify(pairs[3].0.as_raw_fd(), 33, Interest::WRITE)
            .unwrap();
        let mut evs = Vec::new();
        // Sockets are writable immediately.
        assert_eq!(be.wait(&mut evs, 1000).unwrap(), 1);
        assert_eq!(evs[0].token, 33);
        assert!(evs[0].writable);
    }

    #[test]
    fn duplicate_register_is_an_error() {
        let mut be = PollBackend::new();
        let (a, _b) = UnixStream::pair().unwrap();
        be.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(be.register(a.as_raw_fd(), 2, Interest::READ).is_err());
    }
}
