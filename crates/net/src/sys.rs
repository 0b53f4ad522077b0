//! The crate's FFI file: every foreign function the crate calls is
//! declared here and nowhere else, each behind a safe `#[inline]`
//! wrapper with a `// SAFETY:` note on every `unsafe` block
//! (`tests/ffi_audit.rs` holds both lines). No `libc` crate is pulled
//! in — the symbols come from the platform libc every Rust program on
//! Unix already links, and the constants and struct layouts they need
//! are spelled out beside them: the paper's portability argument, only
//! ubiquitous interfaces.
//!
//! A wrapper adds nothing to its call but the `rc < 0` → `errno`
//! conversion and, for the calls a signal can interrupt, the `EINTR`
//! retry loop (`retry_eintr`); policy — how many segments to gather,
//! which interest maps to which event bits, what a short `sendfile`
//! means — stays with the caller ([`crate::writev`],
//! [`crate::sendfile`], [`crate::event`], [`crate::sock`],
//! [`crate::handoff`], [`crate::lifecycle`]).
//!
//! The last section holds the calls behind the **residency test**
//! ([`crate::fsjob::exec_job_nowait`]): an `open` that succeeds only
//! when the whole path lookup is answered by the dentry cache, a
//! positional `read` that succeeds only for bytes already in the page
//! cache, `cachestat`, which counts a held file's resident pages
//! without reading one, and the bare `fstat` that checks every file a
//! job opens and re-checks a held descriptor before each use. All four
//! are issued through `syscall(2)` by number, so nothing here depends
//! on the libc being new enough to wrap them; where the numbers are not
//! known ([`HAS_NOWAIT`] is `false`) the functions report `Unsupported`
//! and callers fall back to blocking I/O on a helper thread.

use std::fs::File;
use std::io::{self, IoSlice};
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicI32, Ordering};

use core::ffi::{c_int, c_ulong, c_void};

/// The foreign declarations themselves. Argument and return types are
/// the C prototypes'; `ssize_t` is `isize`, `socklen_t` is `u32`,
/// `nfds_t` is `c_ulong` on every Unix Rust supports.
mod c {
    use super::*;

    unsafe extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        /// `iov` points at `struct iovec`s; [`IoSlice`] is one.
        pub fn writev(fd: c_int, iov: *const IoSlice<'_>, iovcnt: c_int) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn getpid() -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        pub fn signal(signum: c_int, handler: usize) -> usize;
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    unsafe extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        // With an explicit offset pointer the file's own cursor is
        // never read or written, so one open `File` can be shared by
        // every connection streaming it concurrently. The offset is
        // declared 64-bit unconditionally, so on 32-bit targets (where
        // the plain `sendfile` symbol takes a 32-bit `off_t`) the LFS
        // variant `sendfile64` must be bound instead — a raw extern
        // declaration gets no help from the libc's `_FILE_OFFSET_BITS`
        // macro magic.
        #[cfg_attr(target_pointer_width = "32", link_name = "sendfile64")]
        pub fn sendfile(out_fd: c_int, in_fd: c_int, offset: *mut i64, count: usize) -> isize;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn accept4(fd: c_int, addr: *mut c_void, addrlen: *mut u32, flags: c_int) -> c_int;
        pub fn sendmsg(fd: c_int, msg: *const scm::MsgHdr, flags: c_int) -> isize;
        pub fn recvmsg(fd: c_int, msg: *mut scm::MsgHdr, flags: c_int) -> isize;
        pub fn sigaction(signum: c_int, act: *const SigAction, oldact: *mut SigAction) -> c_int;
    }
}

/// `-1` → the thread's `errno`; anything else is the call's count.
#[inline]
fn cvt(rc: isize) -> io::Result<usize> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc as usize)
    }
}

/// [`cvt`] for the calls that return `0` or `-1`.
#[inline]
fn cvt_unit(rc: c_int) -> io::Result<()> {
    cvt(rc as isize).map(drop)
}

/// Repeats `call` while it fails with `EINTR`, so no caller of the
/// wrappers below ever observes an interrupted system call.
#[inline]
fn retry_eintr(mut call: impl FnMut() -> isize) -> io::Result<usize> {
    loop {
        match cvt(call()) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

// -- Readiness: poll(2), epoll(7) --------------------------------------------

/// One entry of a `poll(2)` set — layout-compatible with
/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// Blocks until a descriptor in `fds` is ready or `timeout_ms` expires
/// (negative = infinite). Returns the number of ready descriptors.
#[inline]
pub(crate) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd-compatible structs; the kernel writes only
    // `revents` within the slice bounds; the pointer does not outlive
    // the call.
    retry_eintr(|| unsafe { c::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) as isize })
}

/// `struct epoll_event`. The kernel ABI packs this to 4 bytes on
/// x86-64 (a 12-byte struct); other architectures use natural
/// alignment. This mirrors the libc definition exactly.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// A fresh close-on-exec epoll instance, closed when dropped.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    // SAFETY: plain syscall, no pointers.
    let epfd = unsafe { c::epoll_create1(EPOLL_CLOEXEC) };
    cvt(epfd as isize)?;
    // SAFETY: a non-negative return is a fresh descriptor that nothing
    // else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(epfd) })
}

/// `epoll_ctl(epfd, op, fd, &ev)`. `EPOLL_CTL_DEL` ignores `ev`; a
/// non-null pointer is passed anyway for pre-2.6.9 kernel
/// compatibility, as the man page prescribes.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn epoll_ctl(epfd: RawFd, op: c_int, fd: RawFd, mut ev: EpollEvent) -> io::Result<()> {
    // SAFETY: `ev` is a valid exclusive pointer for the call.
    cvt_unit(unsafe { c::epoll_ctl(epfd, op, fd, &mut ev) })
}

/// Collects up to `buf.len()` ready events into the front of `buf`;
/// `timeout_ms` is `epoll_wait`'s own (negative blocks, zero polls).
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn epoll_wait(
    epfd: RawFd,
    buf: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed array of
    // epoll_event structs; the kernel writes at most `maxevents`
    // entries.
    retry_eintr(|| unsafe {
        c::epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) as isize
    })
}

// -- The send path: writev(2), sendfile(2) -----------------------------------

/// One `writev(2)` of `iov` to `fd`: the bytes accepted, which may end
/// mid-segment. More segments than `IOV_MAX` fail with `EINVAL`.
#[inline]
pub(crate) fn writev(fd: RawFd, iov: &[IoSlice<'_>]) -> io::Result<usize> {
    // SAFETY: `IoSlice` is guaranteed ABI-compatible with `struct
    // iovec` on Unix and borrows the bytes it points at, so every
    // segment is live for the call; the kernel only reads through the
    // pointers.
    retry_eintr(|| unsafe { c::writev(fd, iov.as_ptr(), iov.len() as c_int) })
}

/// One `sendfile(2)` of up to `count` bytes of `file` from `*offset`
/// to `out_fd`, advancing `*offset` by the bytes accepted.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn sendfile(
    out_fd: RawFd,
    file: &File,
    offset: &mut i64,
    count: usize,
) -> io::Result<usize> {
    // SAFETY: `file` is borrowed, so its descriptor stays open for the
    // call; `offset` is a valid exclusive pointer; the kernel reads
    // the file range and writes only `*offset`.
    retry_eintr(|| unsafe { c::sendfile(out_fd, file.as_raw_fd(), offset, count) })
}

/// [`writev`] with more to follow: one `sendmsg(2)` of `iov` flagged
/// `MSG_MORE`, so TCP holds a short tail back for the bytes the caller
/// sends next instead of pushing it out in a segment of its own. The
/// next send without the flag (a `sendfile` counts) pushes it, and so
/// does a close.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn writev_more(fd: RawFd, iov: &[IoSlice<'_>]) -> io::Result<usize> {
    const MSG_MORE: c_int = 0x8000;
    let msg = scm::MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: iov.as_ptr() as *mut scm::MsgIoVec,
        iovlen: iov.len(),
        control: std::ptr::null_mut(),
        controllen: 0,
        flags: 0,
    };
    // SAFETY: `IoSlice` is ABI-compatible with `struct iovec`, as for
    // `writev`; every segment and `msg` itself outlive the call, and
    // `sendmsg` only reads through the pointers.
    retry_eintr(|| unsafe { c::sendmsg(fd, &msg, MSG_MORE) })
}

// -- Listening sockets and accept --------------------------------------------

#[cfg(any(target_os = "linux", target_os = "android"))]
const SOCK_NONBLOCK: c_int = 0o4000;
#[cfg(any(target_os = "linux", target_os = "android"))]
const SOCK_CLOEXEC: c_int = 0o2000000;

/// Sets the integer socket option `level`/`opt` on `fd` to 1.
#[cfg(any(target_os = "linux", target_os = "android"))]
fn set_flag(fd: RawFd, level: c_int, opt: c_int) -> io::Result<()> {
    let one: c_int = 1;
    // SAFETY: `one` outlives the call; the kernel reads exactly
    // `optlen` bytes from it.
    cvt_unit(unsafe {
        c::setsockopt(
            fd,
            level,
            opt,
            (&raw const one).cast(),
            size_of::<c_int>() as u32,
        )
    })
}

/// `TCP_NODELAY` on a **listening** socket: Linux copies the option to
/// every socket accepted from it, so setting it here once replaces a
/// `setsockopt` per connection.
#[cfg(any(target_os = "linux", target_os = "android"))]
pub(crate) fn set_listener_nodelay(listener: &std::net::TcpListener) -> io::Result<()> {
    const IPPROTO_TCP: c_int = 6;
    const TCP_NODELAY: c_int = 1;
    set_flag(listener.as_raw_fd(), IPPROTO_TCP, TCP_NODELAY)
}

/// One `accept4(2)` on a nonblocking listener: the connection comes
/// back nonblocking and close-on-exec from the same call (and, from a
/// [`bind_listener`] listener, with `TCP_NODELAY` inherited), its peer
/// address unasked for. `EAGAIN` is an empty backlog; `EINTR` is the
/// caller's to retry, so a caller that counts its calls counts them
/// all.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[inline]
pub(crate) fn accept_nonblocking(
    listener: &std::net::TcpListener,
) -> io::Result<std::net::TcpStream> {
    // SAFETY: `listener` is borrowed, so its descriptor stays open for
    // the call; null address pointers tell the kernel to write no peer
    // address.
    let fd = unsafe {
        c::accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            SOCK_NONBLOCK | SOCK_CLOEXEC,
        )
    };
    cvt(fd as isize)?;
    // SAFETY: a non-negative return is a fresh descriptor that nothing
    // else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) }.into())
}

/// Without `accept4` and option inheritance: `accept`, then the two
/// per-connection calls.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
pub(crate) fn accept_nonblocking(
    listener: &std::net::TcpListener,
) -> io::Result<std::net::TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A nonblocking, close-on-exec TCP listener on `addr` with
/// `SO_REUSEADDR` and, if asked, `SO_REUSEPORT` — both set *before*
/// `bind(2)`, which `std::net::TcpListener` cannot express — and
/// `TCP_NODELAY` for the connections accepted from it
/// ([`set_listener_nodelay`]).
#[cfg(any(target_os = "linux", target_os = "android"))]
pub(crate) fn bind_listener(
    addr: std::net::SocketAddr,
    reuseport: bool,
) -> io::Result<std::net::TcpListener> {
    use std::net::SocketAddr;

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    /// Accept backlog. Large enough that a burst arriving while a
    /// shard services existing connections queues in the kernel
    /// instead of seeing RSTs.
    const BACKLOG: c_int = 1024;

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        /// Network byte order.
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        /// Network byte order.
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    fn bind_to<T>(fd: RawFd, sa: &T) -> io::Result<()> {
        // SAFETY: `sa` is a live, correctly sized sockaddr_in or
        // sockaddr_in6 that the kernel only reads.
        cvt_unit(unsafe { c::bind(fd, (&raw const *sa).cast(), size_of::<T>() as u32) })
    }

    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: plain syscall, no pointers.
    let fd = unsafe { c::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    cvt(fd as isize)?;
    // SAFETY: a non-negative return is a fresh descriptor that nothing
    // else owns; it closes on every early return below.
    let sock = unsafe { OwnedFd::from_raw_fd(fd) };
    set_flag(fd, SOL_SOCKET, SO_REUSEADDR)?;
    if reuseport {
        set_flag(fd, SOL_SOCKET, SO_REUSEPORT)?;
    }
    match addr {
        SocketAddr::V4(v4) => bind_to(
            fd,
            &SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from_ne_bytes(v4.ip().octets()),
                zero: [0; 8],
            },
        )?,
        SocketAddr::V6(v6) => bind_to(
            fd,
            &SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            },
        )?,
    }
    // SAFETY: plain syscall on the descriptor owned above.
    cvt_unit(unsafe { c::listen(fd, BACKLOG) })?;
    let listener = sock.into();
    set_listener_nodelay(&listener)?;
    Ok(listener)
}

// -- Descriptor passing: SCM_RIGHTS over a unix socket -----------------------

/// What one [`recv_with_fds`] brought in.
pub(crate) struct FdMessage {
    /// Data bytes received; `0` is the peer's end of stream.
    pub bytes: usize,
    /// The descriptors the kernel installed for this message — already
    /// owned, so dropping the message closes them.
    pub fds: Vec<OwnedFd>,
    /// The control buffer was too small for the peer's ancillary data:
    /// the kernel dropped some descriptors, so the set is unusable.
    pub truncated: bool,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod scm {
    use super::*;

    const SOL_SOCKET: c_int = 1;
    const SCM_RIGHTS: c_int = 1;
    /// Atomically set `O_CLOEXEC` on every received fd, so a handoff
    /// landing mid-`fork` elsewhere in the process cannot leak
    /// listeners into unrelated children.
    const MSG_CMSG_CLOEXEC: c_int = 0x40000000;
    const MSG_CTRUNC: c_int = 0x8;

    /// `struct msghdr` (Linux layout).
    #[repr(C)]
    pub(super) struct MsgHdr {
        pub(super) name: *mut c_void,
        pub(super) namelen: u32,
        pub(super) iov: *mut MsgIoVec,
        pub(super) iovlen: usize,
        pub(super) control: *mut c_void,
        pub(super) controllen: usize,
        pub(super) flags: c_int,
    }

    /// `struct iovec` as `msghdr` wants it: one mutable pointer type for
    /// both directions.
    #[repr(C)]
    pub(super) struct MsgIoVec {
        base: *mut c_void,
        len: usize,
    }

    /// `struct cmsghdr`.
    #[repr(C)]
    pub(super) struct CmsgHdr {
        len: usize,
        level: c_int,
        ty: c_int,
    }

    /// `CMSG_ALIGN` for this ABI: round up to the pointer size.
    const fn cmsg_align(n: usize) -> usize {
        (n + size_of::<usize>() - 1) & !(size_of::<usize>() - 1)
    }

    /// Where a cmsg's payload starts.
    const DATA_OFF: usize = cmsg_align(size_of::<CmsgHdr>());

    /// A control buffer sized and aligned for one fd-carrying cmsg:
    /// `u64` elements guarantee `cmsghdr`'s alignment.
    fn control_buf(n_fds: usize) -> Vec<u64> {
        vec![0u64; (DATA_OFF + cmsg_align(n_fds * 4)).div_ceil(8)]
    }

    /// Sends `data` over the connected unix socket `sock` with
    /// duplicates of `fds` riding along as one `SCM_RIGHTS` control
    /// message. `data` must not be empty: ancillary data needs a byte
    /// to ride on.
    pub fn send_with_fds(sock: RawFd, data: &[u8], fds: &[RawFd]) -> io::Result<()> {
        let mut control = control_buf(fds.len());
        let controllen = DATA_OFF + fds.len() * 4;
        let base = control.as_mut_ptr() as *mut u8;
        // SAFETY: `control` is zeroed, u64-aligned, and large enough
        // for the header plus the fd array written right after it.
        unsafe {
            let hdr = base as *mut CmsgHdr;
            (*hdr).len = controllen;
            (*hdr).level = SOL_SOCKET;
            (*hdr).ty = SCM_RIGHTS;
            let payload = base.add(DATA_OFF) as *mut RawFd;
            for (i, fd) in fds.iter().enumerate() {
                payload.add(i).write_unaligned(*fd);
            }
        }
        let mut iov = MsgIoVec {
            base: data.as_ptr() as *mut c_void,
            len: data.len(),
        };
        let msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: base as *mut c_void,
            controllen,
            flags: 0,
        };
        // SAFETY: every pointer in `msg` outlives the call, and
        // `sendmsg` only reads through them (`data` included).
        retry_eintr(|| unsafe { c::sendmsg(sock, &msg, 0) }).map(drop)
    }

    /// Receives one message from the unix socket `sock` into `data`,
    /// with room for `max_fds` descriptors in its control message.
    pub fn recv_with_fds(sock: RawFd, data: &mut [u8], max_fds: usize) -> io::Result<FdMessage> {
        let mut control = control_buf(max_fds);
        let mut iov = MsgIoVec {
            base: data.as_mut_ptr() as *mut c_void,
            len: data.len(),
        };
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: control.as_mut_ptr() as *mut c_void,
            controllen: control.len() * 8,
            flags: 0,
        };
        // SAFETY: every pointer in `msg` outlives the call; the kernel
        // writes within the declared lengths.
        let bytes = retry_eintr(|| unsafe { c::recvmsg(sock, &mut msg, MSG_CMSG_CLOEXEC) })?;
        // Take ownership of whatever descriptors the kernel installed
        // *before* anyone validates the message: a caller rejecting a
        // malformed one then closes them by dropping it, instead of
        // leaking a hostile peer's descriptors into this process.
        let mut fds = Vec::new();
        if msg.controllen >= size_of::<CmsgHdr>() {
            let base = control.as_ptr() as *const u8;
            // SAFETY: `controllen` covers one header (checked above),
            // which the kernel wrote into the u64-aligned buffer.
            let (level, ty, cmsg_len) = unsafe {
                let hdr = base as *const CmsgHdr;
                ((*hdr).level, (*hdr).ty, (*hdr).len)
            };
            if level == SOL_SOCKET && ty == SCM_RIGHTS {
                let n = cmsg_len.min(msg.controllen).saturating_sub(DATA_OFF) / 4;
                for i in 0..n {
                    // SAFETY: `controllen` — never more than the buffer
                    // handed in — covers `n` descriptors from
                    // `DATA_OFF`; each was installed by this `recvmsg`
                    // and is owned by nothing else.
                    fds.push(unsafe {
                        let payload = base.add(DATA_OFF) as *const RawFd;
                        OwnedFd::from_raw_fd(payload.add(i).read_unaligned())
                    });
                }
            }
        }
        Ok(FdMessage {
            bytes,
            fds,
            truncated: msg.flags & MSG_CTRUNC != 0,
        })
    }
}

/// The `msghdr` layout above is verified for Linux only; elsewhere the
/// calls report `Unsupported` rather than guess — those platforms run
/// the reuseport-less `Single` accept mode against std listeners
/// anyway.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod scm {
    use super::*;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SCM_RIGHTS handoff is implemented for Linux only",
        ))
    }

    pub fn send_with_fds(_sock: RawFd, _data: &[u8], _fds: &[RawFd]) -> io::Result<()> {
        unsupported()
    }

    pub fn recv_with_fds(_sock: RawFd, _data: &mut [u8], _max: usize) -> io::Result<FdMessage> {
        unsupported()
    }
}

pub(crate) use scm::{recv_with_fds, send_with_fds};

// -- Signals -----------------------------------------------------------------

/// Write end of the self-pipe, stashed where the (process-global)
/// signal handler can reach it. −1 = no receiver installed.
static SIGNAL_FD: AtomicI32 = AtomicI32::new(-1);

/// The installed handler: forward the signal number as one byte down
/// the self-pipe. `write(2)` is async-signal-safe; nothing else here
/// allocates, locks, or calls into the runtime. A full pipe (wildly
/// unlikely — the receiver drains on every wait) drops the byte,
/// which merely coalesces repeated signals.
extern "C" fn forward_signal(signo: c_int) {
    let fd = SIGNAL_FD.load(Ordering::Relaxed);
    if fd >= 0 {
        let byte = [signo as u8];
        // SAFETY: one-byte write of a live stack buffer.
        unsafe { c::write(fd, byte.as_ptr().cast(), 1) };
    }
}

/// glibc's `struct sigaction` (x86-64/aarch64 layout): handler,
/// 1024-bit mask, flags, restorer. Only the handler and flags are
/// populated; an empty mask blocks nothing extra during delivery.
#[cfg(any(target_os = "linux", target_os = "android"))]
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

/// Routes every later delivery of the signals numbered in `signos`
/// into `fd`, one byte — the signal number — per delivery. The handler
/// is process-global and lives in this file, so the only code that
/// ever runs in signal context is [`forward_signal`]. `fd` must stay
/// open for the rest of the process and should be nonblocking.
///
/// Linux gets `sigaction` with `SA_RESTART`; elsewhere the portable
/// ANSI `signal` registration, which loses `SA_RESTART` — harmless,
/// every blocking site tolerates `EINTR`.
pub(crate) fn forward_signals(fd: RawFd, signos: impl Iterator<Item = i32>) -> io::Result<()> {
    SIGNAL_FD.store(fd, Ordering::SeqCst);
    let handler = forward_signal as extern "C" fn(c_int) as usize;
    for signo in signos {
        #[cfg(any(target_os = "linux", target_os = "android"))]
        {
            const SA_RESTART: c_int = 0x10000000;
            let act = SigAction {
                handler,
                mask: [0; 16],
                flags: SA_RESTART,
                restorer: 0,
            };
            // SAFETY: `act` is a correctly laid out glibc sigaction
            // the kernel only reads; the handler is async-signal-safe.
            cvt_unit(unsafe { c::sigaction(signo, &act, std::ptr::null_mut()) })?;
        }
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        {
            const SIG_ERR: usize = usize::MAX;
            // SAFETY: registering an async-signal-safe handler.
            if unsafe { c::signal(signo, handler) } == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
        }
    }
    Ok(())
}

/// `kill(getpid(), signo)`: the delivery a process supervisor would
/// cause.
pub(crate) fn kill_self(signo: i32) -> io::Result<()> {
    // SAFETY: plain syscalls, no pointers.
    cvt_unit(unsafe { c::kill(c::getpid(), signo) })
}

/// `kill(-pgid, SIGKILL)`: kills every process in the process group
/// `pgid` — a child spawned as the leader of a group of its own, and
/// whatever it forked. A `pgid` that is no process id (zero, or out of
/// `pid_t`'s range) is refused rather than passed on: `kill(0, ..)`
/// would signal the caller's own group.
pub(crate) fn kill_group(pgid: u32) -> io::Result<()> {
    const SIGKILL: c_int = 9;
    let pgid = c_int::try_from(pgid)
        .ok()
        .filter(|&p| p > 0)
        .ok_or(io::ErrorKind::InvalidInput)?;
    // SAFETY: plain syscall, no pointers.
    cvt_unit(unsafe { c::kill(-pgid, SIGKILL) })
}

// -- RLIMIT_NOFILE -----------------------------------------------------------

/// `struct rlimit` with a 64-bit `rlim_t`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

// RLIMIT_NOFILE is 7 on Linux and 8 on the BSDs/macOS.
#[cfg(any(target_os = "linux", target_os = "android"))]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const RLIMIT_NOFILE: c_int = 8;

/// The process's `(soft, hard)` limit on open descriptors. The soft
/// one is also what the shards' open-file tables are budgeted from
/// (a quarter of it, [`crate::server`]).
pub(crate) fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid exclusive pointer to an rlimit-layout
    // struct; the kernel only writes the two fields.
    cvt_unit(unsafe { c::getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    Ok((lim.cur, lim.max))
}

/// Sets the limit on open descriptors; raising the soft limit up to
/// the hard limit is an unprivileged operation.
pub(crate) fn set_nofile_limit(soft: u64, hard: u64) -> io::Result<()> {
    let lim = RLimit {
        cur: soft,
        max: hard,
    };
    // SAFETY: `lim` is a valid initialized struct the kernel only reads.
    cvt_unit(unsafe { c::setrlimit(RLIMIT_NOFILE, &lim) })
}

// -- The residency test: openat2(RESOLVE_CACHED), preadv2(RWF_NOWAIT), cachestat

/// Whether this target has the cached-only `open` and `read` and
/// `cachestat` below at all. `true` does not promise the running
/// kernel (or a seccomp filter) lets them through — see
/// [`is_unsupported`].
pub const HAS_NOWAIT: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// Whether `e` says the cached-only calls are unavailable *here* —
/// `ENOSYS` (kernel older than the call), `EINVAL` (the call exists
/// but not `RESOLVE_CACHED`/`RWF_NOWAIT`), `EPERM` (a seccomp filter,
/// or a kernel that lets only a file's owner or writer ask `cachestat`)
/// — as opposed to a verdict on one file. A caller seeing this should
/// stop trying.
pub fn is_unsupported(e: &io::Error) -> bool {
    const EPERM: i32 = 1;
    const EINVAL: i32 = 22;
    const ENOSYS: i32 = 38;
    matches!(e.raw_os_error(), Some(EPERM | EINVAL | ENOSYS))
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod nowait {
    use std::ffi::CString;
    use std::fs::File;
    use std::io;
    use std::os::unix::ffi::OsStrExt;
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::path::Path;

    use core::ffi::{c_int, c_long};

    // `openat2` postdates the per-architecture syscall tables: one
    // number everywhere. `preadv2` does not.
    const SYS_OPENAT2: c_long = 437;
    const SYS_CACHESTAT: c_long = 451;
    #[cfg(target_arch = "x86_64")]
    const SYS_PREADV2: c_long = 327;
    #[cfg(target_arch = "aarch64")]
    const SYS_PREADV2: c_long = 286;

    const AT_FDCWD: c_long = -100;
    // asm-generic values, shared by x86_64 and aarch64.
    const O_RDONLY: u64 = 0;
    const O_NONBLOCK: u64 = 0o4000;
    const O_CLOEXEC: u64 = 0o2000000;
    const O_PATH: u64 = 0o10000000;
    /// Fail with `EAGAIN` unless every path component is already in
    /// the dentry cache (Linux 5.12).
    const RESOLVE_CACHED: u64 = 0x20;
    /// Fail with `EAGAIN` rather than wait for a page to be read in
    /// (Linux 4.14).
    const RWF_NOWAIT: c_long = 0x8;

    /// `struct open_how` from `<linux/openat2.h>`.
    #[repr(C)]
    struct OpenHow {
        flags: u64,
        mode: u64,
        resolve: u64,
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct cachestat_range` from `<linux/mman.h>`.
    #[repr(C)]
    struct CachestatRange {
        off: u64,
        len: u64,
    }

    /// `struct cachestat` from `<linux/mman.h>`: page counts.
    #[repr(C)]
    #[derive(Default)]
    struct Cachestat {
        nr_cache: u64,
        nr_dirty: u64,
        nr_writeback: u64,
        nr_evicted: u64,
        nr_recently_evicted: u64,
    }

    /// `_SC_PAGESIZE`, the same on both supported targets.
    const SC_PAGESIZE: c_int = 30;

    #[cfg(target_arch = "x86_64")]
    const SYS_FSTAT: c_long = 5;
    #[cfg(target_arch = "aarch64")]
    const SYS_FSTAT: c_long = 80;

    /// The kernel's `struct stat` for `fstat(2)` on x86-64
    /// (`<asm/stat.h>`): 144 bytes.
    #[cfg(target_arch = "x86_64")]
    #[repr(C)]
    #[derive(Default)]
    struct Stat {
        _dev: u64,
        _ino: u64,
        nlink: u64,
        mode: u32,
        _uid: u32,
        _gid: u32,
        _pad0: i32,
        _rdev: u64,
        size: i64,
        _blksize: i64,
        _blocks: i64,
        _atime: [i64; 2],
        mtime: i64,
        _mtime_nsec: i64,
        _ctime: [i64; 2],
        _unused: [i64; 3],
    }

    /// The kernel's `struct stat` for `fstat(2)` on aarch64
    /// (`<asm-generic/stat.h>`): 128 bytes.
    #[cfg(target_arch = "aarch64")]
    #[repr(C)]
    #[derive(Default)]
    struct Stat {
        _dev: u64,
        _ino: u64,
        mode: u32,
        nlink: u32,
        _uid: u32,
        _gid: u32,
        _rdev: u64,
        _pad1: u64,
        size: i64,
        _blksize: i32,
        _pad2: i32,
        _blocks: i64,
        _atime: [i64; 2],
        mtime: i64,
        _mtime_nsec: i64,
        _ctime: [i64; 2],
        _unused: [u32; 2],
    }

    const _: () = assert!(
        std::mem::size_of::<Stat>()
            == if cfg!(target_arch = "x86_64") {
                144
            } else {
                128
            }
    );

    /// One bare `fstat(2)` of `file`: the regular-file check of every
    /// job and the per-use check of a held descriptor, without the
    /// `statx` (and the fields it fills) that `File::metadata` issues.
    /// Where [`HAS_NOWAIT`](super::HAS_NOWAIT) is `false` it is
    /// `File::metadata`, cut down the same way.
    pub fn fstat(file: &File) -> io::Result<super::FileStat> {
        const S_IFMT: u32 = 0o170000;
        const S_IFREG: u32 = 0o100000;
        let mut st = Stat::default();
        // SAFETY: `file` is borrowed, so its descriptor stays open for
        // the call; `st` is a live, exclusively borrowed `struct stat`
        // of this target's layout, the only memory the kernel writes.
        let rc = unsafe { syscall(SYS_FSTAT, file.as_raw_fd() as c_long, &mut st as *mut Stat) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(super::FileStat {
            regular: st.mode & S_IFMT == S_IFREG,
            linked: st.nlink > 0,
            len: st.size as u64,
            mtime: (st.mtime >= 0).then_some(st.mtime),
        })
    }

    unsafe extern "C" {
        // `long syscall(long number, ...)`: every argument below is
        // passed as a `c_long`-sized integer or a pointer, which is
        // what the kernel ABI takes on both supported targets.
        fn syscall(number: c_long, ...) -> c_long;
        fn sysconf(name: c_int) -> c_long;
        #[cfg(test)]
        fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
    }

    /// Opens `path` read-only **only if** the lookup needs no I/O:
    /// every component must already sit in the kernel's dentry cache
    /// (`openat2(2)` with `RESOLVE_CACHED`), else `EAGAIN`/`WouldBlock`.
    /// Symlinks are followed exactly as `File::open` follows them. The
    /// descriptor is `O_NONBLOCK | O_CLOEXEC`, so opening a FIFO returns
    /// at once instead of waiting for a writer. With `path_only` the
    /// descriptor is `O_PATH`: good for `fstat`, needs no read
    /// permission, opens nothing.
    ///
    /// A cached *negative* entry answers too: a file known to be missing
    /// fails with `NotFound`, not `WouldBlock`.
    pub fn open_cached(path: &Path, path_only: bool) -> io::Result<File> {
        let c_path = CString::new(path.as_os_str().as_bytes())?;
        let how = OpenHow {
            flags: if path_only {
                O_PATH | O_CLOEXEC
            } else {
                O_RDONLY | O_NONBLOCK | O_CLOEXEC
            },
            mode: 0,
            resolve: RESOLVE_CACHED,
        };
        // SAFETY: `c_path` is a live NUL-terminated buffer and `how` a
        // live `open_how` of exactly the size passed; the kernel only
        // reads both, and neither outlives this call in its hands.
        let rc = unsafe {
            syscall(
                SYS_OPENAT2,
                AT_FDCWD,
                c_path.as_ptr(),
                &how as *const OpenHow,
                std::mem::size_of::<OpenHow>(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: a non-negative return is a fresh descriptor that
        // nothing else owns; `File` takes over closing it.
        Ok(unsafe { File::from_raw_fd(rc as c_int) })
    }

    /// Reads into `buf` from `offset` **only from the page cache**
    /// (`preadv2(2)` with `RWF_NOWAIT`): returns the bytes that were
    /// resident — possibly fewer than asked, `0` at end of file — or
    /// `EAGAIN`/`WouldBlock` when the first byte would need the disk. A
    /// filesystem without non-blocking buffered reads fails with
    /// `EOPNOTSUPP`. The file's own cursor is neither used nor moved.
    pub fn pread_nowait(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let iov = IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        };
        // SAFETY: `file` is borrowed, so its descriptor stays open for
        // the call; `iov` describes exactly the exclusively borrowed
        // `buf`, the only memory the kernel writes. On 64-bit targets
        // the offset travels whole in `pos_l`; `pos_h` is ignored.
        let rc = unsafe {
            syscall(
                SYS_PREADV2,
                file.as_raw_fd() as c_long,
                &iov as *const IoVec,
                1 as c_long,
                offset as c_long,
                0 as c_long,
                RWF_NOWAIT,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    fn page_size() -> u64 {
        static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        // SAFETY: plain libc call, no pointers.
        *PAGE.get_or_init(|| (unsafe { sysconf(SC_PAGESIZE) }).max(1) as u64)
    }

    /// Whether every page of `file`'s first `len` bytes is in the page
    /// cache, by `cachestat(2)` (Linux 6.5): the question `mincore(2)`
    /// asks of a mapping, asked of a descriptor — nothing is read,
    /// mapped or copied, and nothing is waited for. An empty range is
    /// resident.
    pub fn resident(file: &File, len: u64) -> io::Result<bool> {
        if len == 0 {
            return Ok(true);
        }
        let range = CachestatRange { off: 0, len };
        let mut stat = Cachestat::default();
        // SAFETY: `file` is borrowed, so its descriptor stays open for
        // the call; `range` is a live `cachestat_range` the kernel
        // only reads, and `stat` a live, exclusively borrowed
        // `cachestat`, the only memory it writes.
        let rc = unsafe {
            syscall(
                SYS_CACHESTAT,
                file.as_raw_fd() as c_long,
                &range as *const CachestatRange,
                &mut stat as *mut Cachestat,
                0 as c_long,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // The kernel counts the pages of `[off, off + len)`, a page
        // partly covered at either end included.
        Ok(stat.nr_cache >= len.div_ceil(page_size()))
    }

    /// Drops `file`'s clean pages from the page cache
    /// (`posix_fadvise(POSIX_FADV_DONTNEED)`): how a test makes a file
    /// leave memory without touching anything else. Dirty pages stay,
    /// so sync the file first.
    #[cfg(test)]
    pub fn drop_cached_pages(file: &File) -> io::Result<()> {
        const POSIX_FADV_DONTNEED: c_int = 4;
        // SAFETY: `file` is borrowed, so its descriptor stays open for
        // the call; no pointers.
        match unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) } {
            0 => Ok(()),
            errno => Err(io::Error::from_raw_os_error(errno)),
        }
    }
}

pub use nowait::{fstat, open_cached, pread_nowait, resident};

#[cfg(test)]
pub(crate) use nowait::drop_cached_pages;

/// What `fstat(2)` reports of an open file, cut down to the fields the
/// regular-file check and the open-file table's per-use check compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Whether it is a regular file (`S_ISREG`).
    pub regular: bool,
    /// Whether it still has a name: its link count is `0` once it has
    /// been unlinked or renamed over.
    pub linked: bool,
    /// Its length in bytes.
    pub len: u64,
    /// Its mtime in whole unix seconds, or `None` before 1970
    /// ([`crate::fsjob::unix_mtime`]'s rule).
    pub mtime: Option<i64>,
}

/// Targets whose syscall numbers are not listed above: nothing to
/// call, so every job takes the helper path.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod nowait {
    use std::fs::File;
    use std::io;
    use std::path::Path;

    pub fn open_cached(_path: &Path, _path_only: bool) -> io::Result<File> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub fn pread_nowait(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub fn resident(_file: &File, _len: u64) -> io::Result<bool> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub fn fstat(file: &File) -> io::Result<super::FileStat> {
        use std::os::unix::fs::MetadataExt;
        let meta = file.metadata()?;
        Ok(super::FileStat {
            regular: meta.is_file(),
            linked: meta.nlink() > 0,
            len: meta.len(),
            mtime: crate::fsjob::unix_mtime(&meta),
        })
    }

    #[cfg(test)]
    pub fn drop_cached_pages(_file: &File) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// Makes a FIFO at `path` with `mkfifo(3)`. A test that ran
/// `mkfifo(1)` instead would spawn a child inside the test binary, and
/// the child's `SIGCHLD` can fail another test's timed `read` with
/// `EINTR`.
#[cfg(test)]
pub(crate) fn mkfifo(path: &std::path::Path) -> io::Result<()> {
    use std::ffi::CString;
    use std::os::unix::ffi::OsStrExt;
    unsafe extern "C" {
        fn mkfifo(path: *const core::ffi::c_char, mode: u32) -> c_int;
    }
    let c_path = CString::new(path.as_os_str().as_bytes())?;
    // SAFETY: `c_path` is a live NUL-terminated buffer that outlives
    // the call; mkfifo only reads it.
    if unsafe { mkfifo(c_path.as_ptr(), 0o644) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bare `fstat` reads what `File::metadata` reads, on a
    /// regular file, after an unlink and on a directory.
    #[test]
    fn fstat_agrees_with_metadata() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("flash-sys-fstat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, vec![7u8; 12_345]).unwrap();
        let file = File::open(&path).unwrap();
        let mtime = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let want = |f: &File| {
            let m = f.metadata().unwrap();
            FileStat {
                regular: m.is_file(),
                linked: m.nlink() > 0,
                len: m.len(),
                mtime: crate::fsjob::unix_mtime(&m),
            }
        };
        let got = fstat(&file).unwrap();
        assert_eq!(got, want(&file));
        assert_eq!((got.regular, got.linked, got.len), (true, true, 12_345));
        assert_eq!(got.mtime, Some(1_700_000_000));
        std::fs::remove_file(&path).unwrap();
        assert!(!fstat(&file).unwrap().linked);
        let d = File::open(&dir).unwrap();
        assert_eq!(fstat(&d).unwrap(), want(&d));
        assert!(!fstat(&d).unwrap().regular);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_is_about_the_call_not_the_file() {
        for errno in [1, 22, 38] {
            assert!(is_unsupported(&io::Error::from_raw_os_error(errno)));
        }
        // ENOENT, EACCES, EAGAIN, EOPNOTSUPP: verdicts on one file.
        for errno in [2, 13, 11, 95] {
            assert!(!is_unsupported(&io::Error::from_raw_os_error(errno)));
        }
    }
}
