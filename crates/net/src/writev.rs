//! Minimal safe wrapper over `writev(2)` — the gathered-write syscall
//! that lets the send path transmit a response's header and body (and
//! any queued continuation segments) in **one** kernel crossing
//! without copying them into a contiguous buffer first.
//!
//! The call itself is `sys::writev`; this module owns the
//! gathering policy.

use std::io::{self, IoSlice};
use std::os::unix::io::RawFd;

/// Most segments passed to one `writev` call. POSIX guarantees
/// `IOV_MAX >= 16` (`_XOPEN_IOV_MAX`); staying at that floor keeps the
/// wrapper portable without querying `sysconf`. Callers loop when more
/// segments are queued.
pub const MAX_IOV: usize = 16;

/// Writes the concatenation of `bufs` to `fd` with a single
/// `writev(2)` call, returning the number of bytes accepted (which may
/// land mid-segment — the caller tracks resumption). At most
/// [`MAX_IOV`] segments are submitted; extra segments are ignored and
/// simply remain for the next call.
///
/// `EINTR` is retried internally; all other errors (including
/// `EAGAIN`/`WouldBlock` on nonblocking sockets) surface to the
/// caller.
pub fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    let cnt = bufs.len().min(MAX_IOV);
    let mut iov = [IoSlice::new(&[]); MAX_IOV];
    for (slot, buf) in iov.iter_mut().zip(&bufs[..cnt]) {
        *slot = IoSlice::new(buf);
    }
    crate::sys::writev(fd, &iov[..cnt])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn gathers_segments_in_order() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let n = writev_fd(a.as_raw_fd(), &[b"hello ", b"writev", b"!"]).unwrap();
        assert_eq!(n, 13);
        let mut got = [0u8; 13];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello writev!");
    }

    #[test]
    fn zero_length_segments_are_harmless() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let n = writev_fd(a.as_raw_fd(), &[b"", b"x", b"", b"y"]).unwrap();
        assert_eq!(n, 2);
        let mut got = [0u8; 2];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"xy");
    }

    #[test]
    fn nonblocking_socket_reports_would_block_when_full() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let chunk = vec![0u8; 64 * 1024];
        // Fill the socket buffer; eventually the call must fail with
        // WouldBlock rather than blocking the thread.
        let mut total = 0usize;
        loop {
            match writev_fd(a.as_raw_fd(), &[&chunk, &chunk]) {
                Ok(n) => {
                    assert!(n > 0);
                    total += n;
                    assert!(total < 256 * 1024 * 1024, "kernel buffer can't be this big");
                }
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
                    break;
                }
            }
        }
        assert!(total > 0, "some bytes must have been accepted first");
    }

    #[test]
    fn partial_writes_can_land_mid_segment() {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        // Two large segments: drive writev until WouldBlock, drain the
        // reader, repeat — the reassembled stream must be byte-exact.
        let seg1: Vec<u8> = (0..150_000u32).map(|i| i as u8).collect();
        let seg2: Vec<u8> = (0..150_000u32).map(|i| (i * 7) as u8).collect();
        let mut expect = seg1.clone();
        expect.extend_from_slice(&seg2);
        let mut sent = 0usize;
        let mut got = Vec::new();
        let mut buf = [0u8; 8192];
        while sent < expect.len() || got.len() < expect.len() {
            if sent < expect.len() {
                // Build the remaining view across the two segments.
                let bufs: Vec<&[u8]> = if sent < seg1.len() {
                    vec![&seg1[sent..], &seg2[..]]
                } else {
                    vec![&seg2[sent - seg1.len()..]]
                };
                match writev_fd(a.as_raw_fd(), &bufs) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            match b.read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(got, expect, "reassembled stream must be byte-exact");
    }
}
