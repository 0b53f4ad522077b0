//! User-mode samples of one thread's own CPU time: a software
//! task-clock event (`perf_event_open(2)`) that records the
//! instruction pointer every `period` nanoseconds the thread runs in
//! user space, read from the event's ring buffer. A process may sample
//! its own children's threads this way at `perf_event_paranoid` 2: the
//! event excludes the kernel and the hypervisor.

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_void};
use std::sync::atomic::{fence, Ordering};

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

const PERF_TYPE_SOFTWARE: u32 = 1;
const PERF_COUNT_SW_TASK_CLOCK: u64 = 1;
const PERF_SAMPLE_IP: u64 = 1;
const PERF_RECORD_SAMPLE: u32 = 9;
/// `perf_event_attr` flag bits: `exclude_kernel`, `exclude_hv`.
const EXCLUDE_KERNEL_AND_HV: u64 = (1 << 5) | (1 << 6);
const PERF_FLAG_FD_CLOEXEC: u64 = 1 << 3;
/// `PERF_ATTR_SIZE_VER5`: the fields set here, and the zeroed rest.
const ATTR_SIZE: usize = 112;
/// Data pages of the ring, a power of two.
const RING_PAGES: usize = 64;
const SC_PAGESIZE: c_int = 30;
/// Offsets in `struct perf_event_mmap_page` (linux/perf_event.h).
const DATA_HEAD: usize = 1024;
const DATA_TAIL: usize = 1032;
const DATA_OFFSET: usize = 1040;
const DATA_SIZE: usize = 1048;

/// One thread's sampling event and its mapped ring buffer.
pub struct Sampler {
    _fd: OwnedFd,
    /// The mapping: the control page, then the data ring.
    base: *mut u8,
    len: usize,
    data: usize,
    data_size: usize,
}

impl Sampler {
    /// Starts sampling thread `tid` in user mode, one sample per
    /// `period_ns` of its CPU time.
    pub fn open(tid: u32, period_ns: u64) -> io::Result<Sampler> {
        let mut attr = [0u64; ATTR_SIZE / 8];
        attr[0] = u64::from(PERF_TYPE_SOFTWARE) | ((ATTR_SIZE as u64) << 32);
        attr[1] = PERF_COUNT_SW_TASK_CLOCK;
        attr[2] = period_ns;
        attr[3] = PERF_SAMPLE_IP;
        attr[5] = EXCLUDE_KERNEL_AND_HV;
        let tid = c_int::try_from(tid).map_err(|_| io::ErrorKind::InvalidInput)?;
        // SAFETY: `attr` is an initialised `perf_event_attr` of the
        // size its `size` field states (type in the low half of the
        // first word, size in the high half, little-endian layout on
        // the supported targets), alive across the call; the other
        // arguments are plain integers.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                attr.as_ptr(),
                tid,
                -1 as c_int,
                -1 as c_int,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the kernel returned a fresh descriptor this process
        // owns and nothing else holds.
        let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
        // SAFETY: `sysconf` only reads a system constant.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
        let len = (1 + RING_PAGES) * page;
        // SAFETY: a fresh shared mapping of the event's ring, at an
        // address of the kernel's choosing; failure is checked below.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                3,
                1,
                std::os::fd::AsRawFd::as_raw_fd(&fd),
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let base = base.cast::<u8>();
        // SAFETY: the control page is mapped and at least a page long,
        // and the offsets are within it; the kernel wrote both fields
        // before `mmap` returned.
        let (data, data_size) = unsafe {
            (
                std::ptr::read_volatile(base.add(DATA_OFFSET).cast::<u64>()) as usize,
                std::ptr::read_volatile(base.add(DATA_SIZE).cast::<u64>()) as usize,
            )
        };
        let (data, data_size) = match data_size {
            0 => (page, RING_PAGES * page),
            _ => (data, data_size),
        };
        Ok(Sampler {
            _fd: fd,
            base,
            len,
            data,
            data_size,
        })
    }

    /// Appends the instruction pointers sampled since the last call to
    /// `out`, and hands their room back to the kernel.
    pub fn drain(&mut self, out: &mut Vec<u64>) {
        // SAFETY: `data_head` is inside the mapped control page; the
        // kernel advances it, so it is read volatile, and the fence
        // orders the record reads below after it (the ring protocol of
        // perf_event_open(2)).
        let head = unsafe { std::ptr::read_volatile(self.base.add(DATA_HEAD).cast::<u64>()) };
        fence(Ordering::Acquire);
        // SAFETY: as above; only this reader writes `data_tail`.
        let mut tail = unsafe { std::ptr::read_volatile(self.base.add(DATA_TAIL).cast::<u64>()) };
        while tail + 8 <= head {
            let header = self.read_u64(tail);
            let (kind, size) = (header as u32, (header >> 48) as u16);
            if size < 8 {
                break;
            }
            if kind == PERF_RECORD_SAMPLE && size >= 16 {
                out.push(self.read_u64(tail + 8));
            }
            tail += u64::from(size);
        }
        fence(Ordering::Release);
        // SAFETY: as for `data_head`; publishing the new tail after
        // the fence tells the kernel the records before it were read.
        unsafe { std::ptr::write_volatile(self.base.add(DATA_TAIL).cast::<u64>(), tail) };
    }

    /// The eight bytes at ring position `pos`, which may wrap.
    fn read_u64(&self, pos: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            let at = (pos as usize + i) % self.data_size;
            // SAFETY: `at` is below `data_size`, and the data area
            // `[data, data + data_size)` lies inside the mapping.
            *b = unsafe { std::ptr::read_volatile(self.base.add(self.data + at)) };
        }
        u64::from_ne_bytes(bytes)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // SAFETY: `base` and `len` are the mapping `open` made, unmapped
        // once, here; the descriptor closes after it.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}
