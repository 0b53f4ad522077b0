//! Server configuration and the architecture presets from the paper.
//!
//! §6 of the paper builds four servers from the same code base — AMPED
//! ("Flash"), SPED ("Flash-SPED"), MP ("Flash-MP") and MT ("Flash-MT") —
//! plus external baselines Apache 1.3.1 (MP, without Flash's aggressive
//! optimizations) and Zeus 1.30 (SPED, with its own quirks). Each is a
//! [`ServerConfig`] preset here. User-level CPU costs (parsing, header
//! generation) are architecture-independent because every server shares
//! the code base; kernel costs come from the OS profile.

use flash_simcore::time::Nanos;

/// Concurrency architecture (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Asymmetric Multi-Process Event-Driven: one event-driven process
    /// plus helper processes for blocking disk operations.
    Amped,
    /// Single-Process Event-Driven.
    Sped,
    /// One process per concurrent request, blocking calls.
    Mp,
    /// One kernel thread per concurrent request, shared address space.
    Mt,
}

/// Complete description of a server to deploy in the simulator.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Display name used in experiment output ("Flash", "Apache", ...).
    pub name: String,
    /// Concurrency architecture.
    pub arch: Architecture,
    /// MP processes / MT threads / SPED event processes.
    pub workers: usize,
    /// AMPED helper-pool size (ignored by other architectures). An event
    /// loop with helpers tests residency before it sends file data and
    /// routes misses to them; one without (SPED) simply risks blocking.
    pub helpers: usize,
    /// Pathname-translation cache entries (0 disables; §5.2).
    pub path_cache_entries: usize,
    /// Response-header cache entries (0 disables; §5.3), bounded apart
    /// from the pathname cache so the Figure 11 breakdown can toggle
    /// them separately.
    pub header_cache_entries: usize,
    /// Mapped-file cache capacity in bytes (0 disables; §5.4).
    pub mmap_cache_bytes: u64,
    /// Serve file data via `mmap` (Flash/Zeus) or `read()`+copy (Apache).
    pub use_mmap: bool,
    /// AMPED only: how the event loop tests residency. Off, it asks the
    /// kernel (`mincore`, §5.7); on, it takes §5.7's fallback for OSes
    /// without a usable `mincore` and predicts residency from the
    /// server's own mapped-file LRU. Cheaper per request than `mincore`
    /// but can mispredict (an occasional blocking fault) under memory
    /// pressure.
    pub residency_heuristic: bool,
    /// §5.5 byte-position alignment padding of response headers.
    pub aligned_headers: bool,
    /// Zeus's small-document priority: service ready connections with the
    /// least remaining data first (discussed around Figure 9).
    pub small_doc_priority: bool,
    /// Resident memory of the main process (event loop) or of each MP
    /// worker's shared text/data.
    pub main_mem: u64,
    /// Additional resident memory per worker (MP process / MT stack).
    pub per_worker_mem: u64,
    /// Resident memory per helper process.
    pub helper_mem: u64,
    /// User CPU to parse a request.
    pub parse_ns: Nanos,
    /// User CPU for per-request bookkeeping (logging, event loop).
    pub request_user_ns: Nanos,
    /// User CPU to generate a response header (on header-cache miss).
    pub header_gen_ns: Nanos,
    /// Lock acquire+release cost for shared caches (MT only).
    pub lock_ns: Nanos,
    /// Extra per-request user CPU modelling a less optimized code base
    /// (Apache).
    pub extra_request_ns: Nanos,
}

impl ServerConfig {
    /// Flash: the AMPED server with all optimizations (the paper's
    /// flagship configuration: 32 MB mapped-file cache, 6000-entry
    /// pathname cache).
    pub fn flash() -> Self {
        ServerConfig {
            name: "Flash".into(),
            arch: Architecture::Amped,
            workers: 1,
            helpers: 32,
            path_cache_entries: 6000,
            header_cache_entries: 6000,
            mmap_cache_bytes: 32 * 1024 * 1024,
            use_mmap: true,
            residency_heuristic: false,
            aligned_headers: true,
            small_doc_priority: false,
            main_mem: 1_200_000,
            per_worker_mem: 0,
            helper_mem: 128 * 1024,
            parse_ns: 45_000,
            request_user_ns: 55_000,
            header_gen_ns: 45_000,
            lock_ns: 0,
            extra_request_ns: 0,
        }
    }

    /// Flash-SPED: same code, no helpers, hence no residency checks —
    /// blocks on any disk access.
    pub fn flash_sped() -> Self {
        ServerConfig {
            name: "Flash-SPED".into(),
            arch: Architecture::Sped,
            helpers: 0,
            ..Self::flash()
        }
    }

    /// Flash-MP: 32 processes, each with private (smaller) caches —
    /// 2 MB mapped-file cache and 200 pathname entries per process.
    pub fn flash_mp() -> Self {
        ServerConfig {
            name: "Flash-MP".into(),
            arch: Architecture::Mp,
            workers: 32,
            helpers: 0,
            path_cache_entries: 200,
            header_cache_entries: 200,
            mmap_cache_bytes: 2 * 1024 * 1024,
            main_mem: 1_200_000,
            per_worker_mem: 300_000,
            ..Self::flash()
        }
    }

    /// Flash-MT: 32 kernel threads sharing one cache set, with lock
    /// costs on shared state.
    pub fn flash_mt() -> Self {
        ServerConfig {
            name: "Flash-MT".into(),
            arch: Architecture::Mt,
            workers: 32,
            helpers: 0,
            per_worker_mem: 96 * 1024,
            lock_ns: 4_000,
            ..Self::flash()
        }
    }

    /// Apache-like baseline: MP architecture without the aggressive
    /// optimizations — no caches, `read()`+copy instead of `mmap`,
    /// unaligned headers, and a less tuned per-request code path.
    pub fn apache_like() -> Self {
        ServerConfig {
            name: "Apache".into(),
            arch: Architecture::Mp,
            workers: 32,
            helpers: 0,
            path_cache_entries: 0,
            header_cache_entries: 0,
            mmap_cache_bytes: 0,
            use_mmap: false,
            residency_heuristic: false,
            aligned_headers: false,
            small_doc_priority: false,
            main_mem: 1_600_000,
            per_worker_mem: 500_000,
            helper_mem: 0,
            parse_ns: 70_000,
            request_user_ns: 70_000,
            header_gen_ns: 80_000,
            lock_ns: 0,
            extra_request_ns: 70_000,
        }
    }

    /// Zeus-like baseline: optimized SPED server with the two quirks the
    /// paper observed — unpadded (misaligned) response headers and
    /// small-document priority. `workers` is 1 for the synthetic tests
    /// and 2 for the trace tests, per the vendor's advice quoted in §6.
    pub fn zeus_like(workers: usize) -> Self {
        ServerConfig {
            name: "Zeus".into(),
            arch: Architecture::Sped,
            workers,
            helpers: 0,
            aligned_headers: false,
            small_doc_priority: true,
            ..Self::flash()
        }
    }

    /// Flash-Heuristic: the §5.7 variant for operating systems without a
    /// usable `mincore` — residency is predicted from the mapped-file
    /// cache itself, with helpers still absorbing predicted misses.
    pub fn flash_heuristic() -> Self {
        ServerConfig {
            name: "Flash-Heuristic".into(),
            residency_heuristic: true,
            ..Self::flash()
        }
    }

    /// The fixed user CPU on the fast path (all caches hot), used by
    /// calibration tests.
    pub fn fast_path_user_ns(&self) -> Nanos {
        self.parse_ns + self.request_user_ns + self.extra_request_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_architectures() {
        assert_eq!(ServerConfig::flash().arch, Architecture::Amped);
        assert_eq!(ServerConfig::flash_sped().arch, Architecture::Sped);
        assert_eq!(ServerConfig::flash_mp().arch, Architecture::Mp);
        assert_eq!(ServerConfig::flash_mt().arch, Architecture::Mt);
        assert_eq!(ServerConfig::apache_like().arch, Architecture::Mp);
        assert_eq!(ServerConfig::zeus_like(2).arch, Architecture::Sped);
    }

    #[test]
    fn flash_has_helpers_and_mincore_sped_does_not() {
        let f = ServerConfig::flash();
        let h = ServerConfig::flash_heuristic();
        assert!(f.helpers > 0 && !f.residency_heuristic);
        assert!(h.helpers > 0 && h.residency_heuristic);
        assert_eq!(ServerConfig::flash_sped().helpers, 0);
        assert_eq!(ServerConfig::zeus_like(1).helpers, 0);
    }

    #[test]
    fn mp_caches_are_smaller_replicas() {
        let f = ServerConfig::flash();
        let mp = ServerConfig::flash_mp();
        assert!(mp.path_cache_entries < f.path_cache_entries);
        assert!(mp.mmap_cache_bytes < f.mmap_cache_bytes);
        assert_eq!(mp.workers, 32);
    }

    #[test]
    fn apache_lacks_every_optimization() {
        let a = ServerConfig::apache_like();
        assert_eq!(a.path_cache_entries, 0);
        assert_eq!(a.header_cache_entries, 0);
        assert_eq!(a.mmap_cache_bytes, 0);
        assert!(!a.use_mmap);
        assert!(!a.aligned_headers);
        assert!(a.fast_path_user_ns() > ServerConfig::flash().fast_path_user_ns());
    }

    #[test]
    fn zeus_quirks_match_paper() {
        let z = ServerConfig::zeus_like(1);
        assert!(!z.aligned_headers, "byte-alignment problem (§5.5, Fig 7)");
        assert!(z.small_doc_priority, "small-document priority (Fig 9)");
        assert_eq!(ServerConfig::zeus_like(2).workers, 2);
    }
}
