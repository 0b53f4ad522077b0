//! What the benchmark reads about its own process from outside the
//! server: CPU clocks, `/proc` status fields, and the machine
//! fingerprint printed with every result.

use std::fs;
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Room for 1024 CPUs, the C library's own `cpu_set_t`.
type CpuSet = [u64; 16];

unsafe extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process was allowed when first asked (later calls to
/// [`pin_to`] narrow the calling thread's own set, not this answer),
/// ascending.
pub fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(current_affinity)
}

fn current_affinity() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, exclusively borrowed buffer of exactly
    // the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread — and every thread or process it
/// starts from now on — to `cpu`. Returns whether the kernel agreed.
pub fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    let Some(word) = set.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed, only
    // read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) == 0 }
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, exclusively borrowed timespec of the
    // layout the C library expects on 64-bit Linux; the call writes
    // only through that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time (user + kernel) consumed by every thread of this process,
/// in nanoseconds. `/proc/self/stat` carries the same sum but in 10 ms
/// ticks, too coarse for a 1 s slice.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The numeric value of `key` in a `/proc/<pid>/status`-style text
/// (`Key:\t  123 kB`), ignoring any unit suffix.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Restarts the `VmHWM` high-water mark from the current resident set
/// (`5` to `clear_refs`), so each run of `--all` reports its own peak.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Voluntary context switches summed over every live thread of this
/// process except `exclude_tid` (the generator spins and never sleeps,
/// but is excluded so the count is the server's alone).
pub fn voluntary_switches_excluding(exclude_tid: u64) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let excluded = exclude_tid.to_string();
    tasks
        .flatten()
        .filter(|t| t.file_name().to_str() != Some(excluded.as_str()))
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|text| status_field(&text, "voluntary_ctxt_switches"))
        .sum()
}

/// One line naming the machine the numbers came from.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let governor = fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".to_string(), |g| g.trim().to_string());
    format!(
        "nproc={cores} kernel={} cpu=\"{model}\" governor={governor} link=loopback",
        kernel.trim()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_field_reads_value_and_ignores_unit() {
        let text = "Name:\tflash\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(text, "VmHWM"), Some(20480));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(text, "VmRSS"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(status_field("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn cpu_clocks_advance_and_thread_is_within_process() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (p1, t1) = (process_cpu_ns(), thread_cpu_ns());
        assert!(t1 > t0, "thread clock must advance under work");
        assert!(p1 - p0 >= (t1 - t0) / 2, "process clock covers its threads");
        assert!(peak_rss_mib() > 0.0);
        assert!(current_tid() > 0);
    }
}
