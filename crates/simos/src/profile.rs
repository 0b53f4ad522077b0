//! Operating-system cost profiles.
//!
//! The paper evaluates every server on two operating systems — Solaris 2.6
//! and FreeBSD 2.2.6 — on identical hardware (333 MHz Pentium II, 128 MB,
//! multiple 100 Mbit Ethernets), and finds that FreeBSD's network stack is
//! substantially cheaper while FreeBSD 2.2.6 lacks kernel threads entirely.
//! An [`OsProfile`] captures the per-operation CPU costs of such an OS; the
//! two presets are calibrated so the simulated single-file test lands in the
//! ranges of the paper's Figures 6 and 7 (FreeBSD ≈ 3.4k conn/s small files
//! and ≈ 240 Mb/s large cached files; Solaris ≈ 1.2k conn/s and ≈ 110 Mb/s).

use flash_simcore::time::Nanos;

/// Per-operation CPU costs and capabilities of a simulated operating system.
///
/// All `*_ns` fields are charged to the calling process on the simulated
/// CPU. Per-byte costs are `f64` because realistic values are fractional
/// nanoseconds-per-byte.
#[derive(Debug, Clone)]
pub struct OsProfile {
    /// Human-readable name used in reports ("FreeBSD", "Solaris").
    pub name: &'static str,
    /// Fixed cost of entering/leaving the kernel for a trivial syscall.
    pub syscall_ns: Nanos,
    /// Cost of `accept(2)` (allocating the socket, copying the address).
    pub accept_ns: Nanos,
    /// Cost of reading a request from a socket, excluding per-byte copy.
    pub sock_read_ns: Nanos,
    /// Cost of a `writev(2)` call, excluding per-byte copy.
    pub writev_ns: Nanos,
    /// Per-byte cost of moving data through the network stack
    /// (copy + checksum + driver), charged at `writev` time.
    pub net_per_byte_ns: f64,
    /// Additional per-byte cost when a `writev` region is misaligned
    /// (the §5.5 byte-position alignment problem).
    pub misalign_extra_per_byte_ns: f64,
    /// Per-byte cost of an in-memory `read(2)`-style copy into a user
    /// buffer (servers that do not use `mmap` pay this on every send,
    /// on top of the network per-byte cost).
    pub file_copy_per_byte_ns: f64,
    /// Cost of `select(2)`: fixed part.
    pub select_ns: Nanos,
    /// Cost of `select(2)`: per descriptor scanned.
    pub select_per_fd_ns: Nanos,
    /// Cost of `open(2)`/`stat(2)` per pathname component
    /// (directory lookup, permission checks), excluding disk I/O.
    pub path_component_ns: Nanos,
    /// Fixed cost of `open(2)`/`stat(2)`.
    pub stat_ns: Nanos,
    /// Cost of establishing one `mmap(2)` mapping.
    pub mmap_ns: Nanos,
    /// Cost of removing a mapping.
    pub munmap_ns: Nanos,
    /// Fixed cost of `mincore(2)`.
    pub mincore_ns: Nanos,
    /// Per-page cost of `mincore(2)`.
    pub mincore_per_page_ns: Nanos,
    /// Cost of sending a small message over a pipe (one syscall each side
    /// is charged separately via [`OsProfile::syscall_ns`]; this is the
    /// extra data-touch cost).
    pub pipe_ns: Nanos,
    /// Cost of a process-to-process context switch.
    pub ctx_switch_ns: Nanos,
    /// Cost of a thread-to-thread switch inside one address space.
    pub thread_switch_ns: Nanos,
    /// Cost of `fork(2)` (used when spawning helpers).
    pub fork_ns: Nanos,
    /// Cost of closing a connection (protocol control block teardown).
    pub close_ns: Nanos,
    /// Whether the OS supports kernel threads. FreeBSD 2.2.6 does not,
    /// which is why the paper has no MT results on FreeBSD.
    pub kernel_threads: bool,
    /// Per-request CPU inflation while memory is overcommitted, in
    /// nanoseconds per overcommitted megabyte (crude paging model; only
    /// matters for the 500-process MP runs of Figure 12).
    pub paging_ns_per_overcommitted_mb: Nanos,
}

impl OsProfile {
    /// FreeBSD 2.2.6: cheap network stack, no kernel threads.
    pub fn freebsd() -> Self {
        OsProfile {
            name: "FreeBSD",
            syscall_ns: 5_000,
            accept_ns: 40_000,
            sock_read_ns: 25_000,
            writev_ns: 22_000,
            net_per_byte_ns: 28.0,
            misalign_extra_per_byte_ns: 9.0,
            file_copy_per_byte_ns: 18.0,
            select_ns: 15_000,
            select_per_fd_ns: 180,
            path_component_ns: 25_000,
            stat_ns: 9_000,
            mmap_ns: 30_000,
            munmap_ns: 22_000,
            mincore_ns: 7_000,
            mincore_per_page_ns: 250,
            pipe_ns: 4_000,
            ctx_switch_ns: 14_000,
            thread_switch_ns: 6_000,
            fork_ns: 900_000,
            close_ns: 30_000,
            kernel_threads: false,
            paging_ns_per_overcommitted_mb: 1_500,
        }
    }

    /// Solaris 2.6: every kernel path noticeably more expensive (the paper
    /// measures up to ~50% lower throughput than FreeBSD), kernel threads
    /// available.
    pub fn solaris() -> Self {
        OsProfile {
            name: "Solaris",
            syscall_ns: 14_000,
            accept_ns: 200_000,
            sock_read_ns: 110_000,
            writev_ns: 90_000,
            net_per_byte_ns: 68.0,
            misalign_extra_per_byte_ns: 9.0,
            file_copy_per_byte_ns: 40.0,
            select_ns: 60_000,
            select_per_fd_ns: 420,
            path_component_ns: 60_000,
            stat_ns: 26_000,
            mmap_ns: 48_000,
            munmap_ns: 40_000,
            mincore_ns: 20_000,
            mincore_per_page_ns: 700,
            pipe_ns: 11_000,
            ctx_switch_ns: 40_000,
            thread_switch_ns: 24_000,
            fork_ns: 2_500_000,
            close_ns: 150_000,
            kernel_threads: true,
            paging_ns_per_overcommitted_mb: 1_500,
        }
    }

    /// Approximate fixed CPU cost of one small static request on the fast
    /// path (all caches hot), excluding per-byte costs. Used only by tests
    /// and documentation to sanity-check calibration.
    pub fn fast_path_fixed_ns(&self) -> Nanos {
        self.accept_ns
            + self.sock_read_ns
            + self.writev_ns
            + self.select_ns
            + self.close_ns
            + 2 * self.syscall_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freebsd_is_cheaper_than_solaris_everywhere() {
        let f = OsProfile::freebsd();
        let s = OsProfile::solaris();
        assert!(f.fast_path_fixed_ns() < s.fast_path_fixed_ns());
        assert!(f.net_per_byte_ns < s.net_per_byte_ns);
        assert!(f.ctx_switch_ns < s.ctx_switch_ns);
        assert!(f.select_ns < s.select_ns);
    }

    #[test]
    fn freebsd_lacks_kernel_threads() {
        assert!(!OsProfile::freebsd().kernel_threads);
        assert!(OsProfile::solaris().kernel_threads);
    }

    #[test]
    fn calibration_orders_of_magnitude() {
        // Small-request fixed path should be in the low hundreds of
        // microseconds: the paper's Figure 7 tops out around 3.4k conn/s on
        // FreeBSD (~290 µs/request) and Figure 6 around 1.2k conn/s on
        // Solaris (~830 µs/request). The fixed path here excludes parsing
        // and event-loop user time, so it must come in below those totals.
        let f = OsProfile::freebsd().fast_path_fixed_ns();
        assert!(f > 80_000 && f < 300_000, "freebsd fixed path {f}ns");
        let s = OsProfile::solaris().fast_path_fixed_ns();
        assert!(s > 250_000 && s < 830_000, "solaris fixed path {s}ns");
        // Large-file bandwidth is dominated by per-byte cost: FreeBSD
        // ~30 ns/B ≈ 260 Mb/s CPU-limited; Solaris ~70 ns/B ≈ 115 Mb/s.
        let bw = |ns: f64| 8.0 * 1000.0 / ns; // Mb/s if CPU-bound
        assert!(bw(OsProfile::freebsd().net_per_byte_ns) > 200.0);
        assert!(bw(OsProfile::solaris().net_per_byte_ns) < 150.0);
    }

    #[test]
    fn thread_switch_cheaper_than_process_switch() {
        for p in [OsProfile::freebsd(), OsProfile::solaris()] {
            assert!(p.thread_switch_ns < p.ctx_switch_ns, "{}", p.name);
        }
    }
}
