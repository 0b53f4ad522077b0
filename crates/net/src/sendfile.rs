//! Minimal safe wrapper over `sendfile(2)` — the zero-copy syscall
//! that transmits file bytes straight from the kernel page cache to a
//! socket, never routing them through application buffers.
//!
//! This is the large-body half of the server's two-tier send path:
//! small hot files live pre-rendered in the [`crate::ContentCache`]
//! and go out with `writev(2)`; bodies above
//! `NetConfig::sendfile_threshold_bytes` are served through this
//! module so a multi-megabyte response costs neither content-cache
//! budget nor a userspace copy (PAPER.md §4.4's mapped-file instinct,
//! taken all the way to the page cache).
//!
//! The call itself is `sys::sendfile`. On platforms without
//! a usable `sendfile` (anything non-Linux here) the same seam is
//! served by a positional `read` + `write` loop — strictly more
//! copies, identical observable behavior — so callers never branch on
//! the platform.

use std::fs::File;
use std::io;
use std::os::unix::io::RawFd;

/// Largest count passed to one `sendfile` call. Linux caps a single
/// call at `0x7ffff000` regardless; staying at that bound also keeps
/// the fallback's arithmetic safely inside `usize` on 32-bit targets.
pub const MAX_SEND: u64 = 0x7fff_f000;

/// Transmits up to `remaining` bytes of `file`, starting at `*offset`,
/// to the socket `out_fd`, advancing `*offset` by the number of bytes
/// accepted and returning that count.
///
/// `Ok(0)` with `remaining > 0` means the file ended early (truncated
/// after its length was stat'ed); since the response header already
/// promised a `Content-Length`, the caller must treat that as a dead
/// connection. `EINTR` is retried internally; `EAGAIN`/`WouldBlock` on
/// a nonblocking socket surfaces to the caller, which retries when the
/// socket polls writable.
#[cfg(any(target_os = "linux", target_os = "android"))]
pub fn send_file(
    out_fd: RawFd,
    file: &File,
    offset: &mut u64,
    remaining: u64,
) -> io::Result<usize> {
    let count = remaining.min(MAX_SEND) as usize;
    let mut off = *offset as i64;
    let sent = crate::sys::sendfile(out_fd, file, &mut off, count)?;
    *offset = off as u64;
    Ok(sent)
}

/// Portable seam: on platforms without `sendfile(2)` the same
/// signature is served by the buffered copy loop.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
pub fn send_file(
    out_fd: RawFd,
    file: &File,
    offset: &mut u64,
    remaining: u64,
) -> io::Result<usize> {
    send_file_buffered(out_fd, file, offset, remaining)
}

/// The fallback behind the [`send_file`] seam: positional `read_at`
/// into a bounce buffer, then one gathered write. One extra copy per
/// chunk versus real `sendfile`, but the same contract — positional
/// (never touches the file cursor, so the `File` stays shareable),
/// partial-write-aware, `Ok(0)` only at end-of-file.
///
/// Compiled on every platform so the portable path stays tested where
/// `sendfile` is the one actually used.
pub fn send_file_buffered(
    out_fd: RawFd,
    file: &File,
    offset: &mut u64,
    remaining: u64,
) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    const BOUNCE: usize = 64 * 1024;
    let mut buf = [0u8; BOUNCE];
    let want = remaining.min(BOUNCE as u64) as usize;
    if want == 0 {
        return Ok(0);
    }
    let n = file.read_at(&mut buf[..want], *offset)?;
    if n == 0 {
        return Ok(0);
    }
    // A partial socket write leaves the unread tail for the next call:
    // the offset advances only by what the socket accepted.
    let w = crate::writev::writev_fd(out_fd, &[&buf[..n]])?;
    *offset += w as u64;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn temp_file(tag: &str, contents: &[u8]) -> (std::path::PathBuf, File) {
        let path =
            std::env::temp_dir().join(format!("flash-sendfile-{tag}-{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        (path.clone(), File::open(&path).unwrap())
    }

    /// Drives `send` until `len` bytes have gone out, draining the
    /// reader side concurrently; returns the reassembled stream.
    fn pump(
        send: impl Fn(RawFd, &File, &mut u64, u64) -> io::Result<usize>,
        file: &File,
        len: u64,
    ) -> Vec<u8> {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut offset = 0u64;
        let mut got = Vec::new();
        let mut buf = [0u8; 8192];
        while offset < len || got.len() < len as usize {
            if offset < len {
                let want = len - offset;
                match send(a.as_raw_fd(), file, &mut offset, want) {
                    Ok(0) => panic!("unexpected EOF at offset {offset}"),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            match b.read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
        got
    }

    #[test]
    fn send_file_streams_byte_exactly_through_backpressure() {
        // Larger than any default socket buffer, so the nonblocking
        // socket backpressures and partial sends actually happen.
        let contents: Vec<u8> = (0..600_000u32).map(|i| (i * 31) as u8).collect();
        let (path, file) = temp_file("exact", &contents);
        let got = pump(send_file, &file, contents.len() as u64);
        assert_eq!(got, contents);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn buffered_fallback_streams_byte_exactly() {
        let contents: Vec<u8> = (0..600_000u32).map(|i| (i * 13) as u8).collect();
        let (path, file) = temp_file("fallback", &contents);
        let got = pump(send_file_buffered, &file, contents.len() as u64);
        assert_eq!(got, contents);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn offset_makes_file_shareable_between_senders() {
        let contents: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
        let (path, file) = temp_file("share", &contents);
        // Two interleaved "connections" over the same File: explicit
        // offsets mean neither perturbs the other.
        let (a1, mut b1) = UnixStream::pair().unwrap();
        let (a2, mut b2) = UnixStream::pair().unwrap();
        let (mut o1, mut o2) = (0u64, 0u64);
        let len = contents.len() as u64;
        let (mut g1, mut g2) = (Vec::new(), Vec::new());
        let mut buf = [0u8; 16384];
        while o1 < len || o2 < len {
            if o1 < len {
                let want = (len - o1).min(8192);
                send_file(a1.as_raw_fd(), &file, &mut o1, want).unwrap();
                let n = b1.read(&mut buf).unwrap();
                g1.extend_from_slice(&buf[..n]);
            }
            if o2 < len {
                let want = (len - o2).min(8192);
                send_file(a2.as_raw_fd(), &file, &mut o2, want).unwrap();
                let n = b2.read(&mut buf).unwrap();
                g2.extend_from_slice(&buf[..n]);
            }
        }
        while g1.len() < contents.len() {
            let n = b1.read(&mut buf).unwrap();
            g1.extend_from_slice(&buf[..n]);
        }
        while g2.len() < contents.len() {
            let n = b2.read(&mut buf).unwrap();
            g2.extend_from_slice(&buf[..n]);
        }
        assert_eq!(g1, contents);
        assert_eq!(g2, contents);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncation_surfaces_as_zero_length_send() {
        let (path, file) = temp_file("trunc", &[0xCC; 4096]);
        // Stat said 4096, but the file shrinks under us.
        std::fs::write(&path, b"oops").unwrap();
        let (a, mut _b) = UnixStream::pair().unwrap();
        let mut offset = 4u64; // past the new EOF
        let n = send_file(a.as_raw_fd(), &file, &mut offset, 4092).unwrap();
        assert_eq!(n, 0, "reads past EOF must report 0, not invent bytes");
        let _ = std::fs::remove_file(path);
    }
}
