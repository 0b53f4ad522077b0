//! Generation handoff: passing live listening sockets to a new server
//! process over a unix control socket with `SCM_RIGHTS`.
//!
//! The zero-downtime restart story has two halves. `SO_REUSEPORT`
//! (see [`crate::sock`]) lets a *new* generation bind fresh listeners
//! on the same port while the old one still serves — but a freshly
//! bound listener starts with an empty backlog, and the connections
//! already queued on the old generation's listeners are RST when those
//! sockets close. Passing the **actual listener fds** closes that
//! race: the new generation receives duplicates of the very kernel
//! sockets the old one accepts from, so the listening socket — and
//! every connection queued in its backlog — survives the generation
//! switch in both accept modes, including the `Single`/non-reuseport
//! fallback where a same-port rebind is impossible in the first place.
//!
//! The mechanism is the classic one: `sendmsg(2)` with a
//! `SCM_RIGHTS` control message over a `unix(7)` stream socket — the
//! kernel installs duplicates of the carried descriptors in the
//! receiving process. The wire format here is one data byte (the fd
//! count, which doubles as the message body `sendmsg` requires) plus
//! the fd array in ancillary data; [`send_fds`]/[`recv_fds`] carry
//! raw descriptors, [`send_listeners`]/[`recv_listeners`] wrap them
//! for the server's use, and [`HandoffControl`] is the rendezvous: the
//! old generation binds a control socket at a well-known path, the new
//! generation connects and collects the listener set, then the old
//! generation drains ([`crate::server::Server::drain`]).
//!
//! The `sendmsg`/`recvmsg` calls and the control-message layout live
//! in [`crate::sys`]; on platforms where that layout is not verified
//! (non-Linux), the functions return `Unsupported` rather than guess —
//! those platforms run the reuseport-less `Single` mode against std
//! listeners anyway.

use std::io;
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, IntoRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use crate::sys;

/// The most fds one handoff message carries — far above any real
/// listener set (one per shard, shards capped at 8), far below the
/// kernel's per-message `SCM_RIGHTS` ceiling (253).
pub const MAX_HANDOFF_FDS: usize = 64;

/// Sends duplicates of `fds` over a connected unix stream socket as a
/// single `SCM_RIGHTS` message.
pub fn send_fds(sock: &UnixStream, fds: &[RawFd]) -> io::Result<()> {
    if fds.is_empty() || fds.len() > MAX_HANDOFF_FDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "fd count out of range for handoff",
        ));
    }
    // One data byte — the fd count — both because sendmsg demands a
    // non-empty body for ancillary data to ride on and as a
    // cross-check for the receiver.
    sys::send_with_fds(sock.as_raw_fd(), &[fds.len() as u8], fds)
}

/// Receives one `SCM_RIGHTS` message, returning the installed
/// descriptor duplicates. The caller owns the returned fds.
pub fn recv_fds(sock: &UnixStream) -> io::Result<Vec<RawFd>> {
    Ok(recv_owned(sock)?
        .into_iter()
        .map(IntoRawFd::into_raw_fd)
        .collect())
}

/// [`recv_fds`] before ownership is given up. Every rejection drops —
/// and so closes — whatever descriptors the message installed, so a
/// malformed peer cannot leak descriptors into this process.
fn recv_owned(sock: &UnixStream) -> io::Result<Vec<OwnedFd>> {
    let mut count_byte = [0u8; 1];
    let msg = sys::recv_with_fds(sock.as_raw_fd(), &mut count_byte, MAX_HANDOFF_FDS)?;
    if msg.bytes == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "handoff peer closed before sending fds",
        ));
    }
    let reject = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidData, why));
    if msg.truncated {
        return reject("handoff control data truncated");
    }
    if msg.fds.is_empty() {
        return reject("handoff message carried no SCM_RIGHTS descriptors");
    }
    if msg.fds.len() != count_byte[0] as usize {
        return reject("handoff fd count mismatch");
    }
    Ok(msg.fds)
}

/// Sends duplicates of a listener set (see
/// [`crate::server::Server::handoff_listeners`]).
pub fn send_listeners(sock: &UnixStream, listeners: &[TcpListener]) -> io::Result<()> {
    let fds: Vec<RawFd> = listeners.iter().map(|l| l.as_raw_fd()).collect();
    send_fds(sock, &fds)
}

/// Receives a listener set for [`crate::server::Server::start_inherited`].
pub fn recv_listeners(sock: &UnixStream) -> io::Result<Vec<TcpListener>> {
    Ok(recv_owned(sock)?
        .into_iter()
        .map(TcpListener::from)
        .collect())
}

/// The old generation's rendezvous point: a unix listener at a
/// well-known filesystem path the new generation connects to. The
/// path is unlinked on drop (and a stale one replaced on bind), so a
/// crashed generation does not wedge the next restart.
pub struct HandoffControl {
    listener: UnixListener,
    path: PathBuf,
}

impl HandoffControl {
    /// Binds the control socket at `path`, replacing any stale socket
    /// file left by a dead process.
    pub fn bind(path: impl Into<PathBuf>) -> io::Result<HandoffControl> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(HandoffControl { listener, path })
    }

    /// The control socket's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serves one handoff request: blocks for a connection, then sends
    /// the listener set to it.
    pub fn serve_once(&self, listeners: &[TcpListener]) -> io::Result<()> {
        let (conn, _) = self.listener.accept()?;
        send_listeners(&conn, listeners)
    }
}

impl Drop for HandoffControl {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The new generation's side of [`HandoffControl`]: connect and
/// collect the old generation's listener set.
pub fn request_listeners(path: impl AsRef<Path>) -> io::Result<Vec<TcpListener>> {
    let conn = UnixStream::connect(path.as_ref())?;
    recv_listeners(&conn)
}

#[cfg(all(test, any(target_os = "linux", target_os = "android")))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn fds_survive_the_trip_and_still_work() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        send_listeners(&a, std::slice::from_ref(&listener)).unwrap();
        let received = recv_listeners(&b).unwrap();
        assert_eq!(received.len(), 1);
        let dup = &received[0];
        assert_ne!(dup.as_raw_fd(), listener.as_raw_fd(), "must be a dup");
        assert_eq!(dup.local_addr().unwrap(), addr);
        // The original closes; the dup's kernel socket lives on and
        // still accepts — the property generation handoff rests on.
        drop(listener);
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = dup.accept().unwrap();
        served.write_all(b"gen2").unwrap();
        drop(served);
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"gen2");
    }

    #[test]
    fn multiple_fds_in_one_message() {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l3 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        send_listeners(
            &a,
            &[
                l1.try_clone().unwrap(),
                l2.try_clone().unwrap(),
                l3.try_clone().unwrap(),
            ],
        )
        .unwrap();
        let got = recv_listeners(&b).unwrap();
        assert_eq!(got.len(), 3);
        for (orig, dup) in [&l1, &l2, &l3].into_iter().zip(&got) {
            assert_eq!(orig.local_addr().unwrap(), dup.local_addr().unwrap());
        }
    }

    #[test]
    fn empty_fd_set_is_refused() {
        let (a, _b) = UnixStream::pair().unwrap();
        assert!(send_fds(&a, &[]).is_err());
    }

    #[test]
    fn closed_peer_is_a_clean_error() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        assert_eq!(
            recv_fds(&b).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn control_socket_rendezvous() {
        let path = std::env::temp_dir().join(format!("flash-handoff-{}.sock", std::process::id()));
        let control = HandoffControl::bind(&path).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let path2 = path.clone();
        let requester = std::thread::spawn(move || request_listeners(&path2).unwrap());
        control.serve_once(std::slice::from_ref(&listener)).unwrap();
        let got = requester.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].local_addr().unwrap(), addr);
        drop(control);
        assert!(!path.exists(), "control socket must be unlinked on drop");
    }
}
