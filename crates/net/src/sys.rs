//! Safe wrappers over raw system calls that have no `std` spelling —
//! the crate's FFI file. New foreign declarations land here, each
//! behind a safe function with a `// SAFETY:` note on every block; the
//! per-module `extern "C"` blocks that predate this file
//! ([`crate::writev`], [`crate::sendfile`], [`crate::event`], …) move
//! here as they are next touched.
//!
//! Today it holds the two calls behind the **residency test**
//! ([`crate::fsjob::exec_job_nowait`]): an `open` that succeeds only
//! when the whole path lookup is answered by the dentry cache, and a
//! positional `read` that succeeds only for bytes already in the page
//! cache. Both are issued through `syscall(2)` by number, so nothing
//! here depends on the libc being new enough to wrap them; where the
//! numbers are not known ([`HAS_NOWAIT`] is `false`) both functions
//! report `Unsupported` and callers fall back to blocking I/O on a
//! helper thread.

use std::fs::File;
use std::io;
use std::path::Path;

/// Whether this target has the cached-only `open` and `read` below at
/// all. `true` does not promise the running kernel (or a seccomp
/// filter) lets them through — see [`is_unsupported`].
pub const HAS_NOWAIT: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// Whether `e` says the cached-only calls are unavailable *here* —
/// `ENOSYS` (kernel older than the call), `EINVAL` (the call exists
/// but not `RESOLVE_CACHED`/`RWF_NOWAIT`), `EPERM` (a seccomp filter)
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

    unsafe extern "C" {
        // `long syscall(long number, ...)`: every argument below is
        // passed as a `c_long`-sized integer or a pointer, which is
        // what the kernel ABI takes on both supported targets.
        fn syscall(number: c_long, ...) -> c_long;
    }

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
}

/// Opens `path` read-only **only if** the lookup needs no I/O: every
/// component must already sit in the kernel's dentry cache
/// (`openat2(2)` with `RESOLVE_CACHED`), else `EAGAIN`/`WouldBlock`.
/// Symlinks are followed exactly as `File::open` follows them. The
/// descriptor is `O_NONBLOCK | O_CLOEXEC`, so opening a FIFO returns
/// at once instead of waiting for a writer. With `path_only` the
/// descriptor is `O_PATH`: good for `fstat`, needs no read permission,
/// opens nothing.
///
/// A cached *negative* entry answers too: a file known to be missing
/// fails with `NotFound`, not `WouldBlock`.
pub fn open_cached(path: &Path, path_only: bool) -> io::Result<File> {
    nowait::open_cached(path, path_only)
}

/// Reads into `buf` from `offset` **only from the page cache**
/// (`preadv2(2)` with `RWF_NOWAIT`): returns the bytes that were
/// resident — possibly fewer than asked, `0` at end of file — or
/// `EAGAIN`/`WouldBlock` when the first byte would need the disk. A
/// filesystem without non-blocking buffered reads fails with
/// `EOPNOTSUPP`. The file's own cursor is neither used nor moved.
pub fn pread_nowait(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    nowait::pread_nowait(file, buf, offset)
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
