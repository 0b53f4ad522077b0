//! Flash's three application-level caches (§5.2–§5.4).
//!
//! * **Pathname-translation cache** — maps requested names to files,
//!   avoiding `stat`/translation-helper work on every request (§5.2).
//! * **Response-header cache** — reuses rendered HTTP response headers for
//!   repeatedly requested files (§5.3).
//! * **Mapped-file cache** — keeps `mmap` chunks alive across requests,
//!   with an LRU free list and lazy unmapping (§5.4): small files are one
//!   chunk, large files are split into [`CHUNK_BYTES`] chunks.
//!
//! All three are built on the shipped server's O(1) [`LruCache`]. A shared
//! [`CacheStats`] records hits and misses so the Figure 11 breakdown
//! experiment (and the tests) can attribute costs.
//!
//! The steps that use them are written once, in `request.rs`, for every
//! architecture.

use flash_net::lru::LruCache;
use flash_simos::FileId;

use crate::config::ServerConfig;

/// Mapped-file chunk size in bytes (64 KB: 16 pages).
pub const CHUNK_BYTES: u64 = 64 * 1024;

/// A pathname-translation cache entry: the result of resolving a
/// requested name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Resolved file.
    pub fid: FileId,
    /// File size (for the response header and send loop).
    pub size: u64,
}

/// A response-header cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderEntry {
    /// Rendered header length in bytes.
    pub len: u64,
    /// Whether the header is §5.5 alignment-padded.
    pub aligned: bool,
}

/// The mapped-file chunk cache: bounded by total mapped bytes, LRU,
/// lazily unmapped (evictions are returned so the caller can charge
/// `munmap` cost).
pub struct MappedCache {
    lru: LruCache<(FileId, u64), u64>,
    capacity_bytes: u64,
    mapped_bytes: u64,
}

impl MappedCache {
    /// Creates a cache bounded to `capacity_bytes` of mappings.
    pub fn new(capacity_bytes: u64) -> Self {
        MappedCache {
            // The byte bound is enforced below; the LRU entry bound only
            // needs to be unreachable. A mapping covers at least one page,
            // so bytes/page entries can never be exceeded.
            lru: LruCache::new((capacity_bytes / 4096) as usize + 1),
            capacity_bytes,
            mapped_bytes: 0,
        }
    }

    /// Total currently mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// The chunk index covering byte `offset`.
    pub fn chunk_of(offset: u64) -> u64 {
        offset / CHUNK_BYTES
    }

    /// True (and promoted) if the chunk holding `offset` of `file` is
    /// mapped.
    pub fn hit(&mut self, file: FileId, offset: u64) -> bool {
        self.lru.get(&(file, Self::chunk_of(offset))).is_some()
    }

    /// Maps the chunk holding `offset` of a file of `file_size` bytes.
    /// Returns the number of chunks unmapped to stay under the byte
    /// bound (the caller charges `munmap` cost per eviction).
    pub fn map(&mut self, file: FileId, offset: u64, file_size: u64) -> u32 {
        let chunk = Self::chunk_of(offset);
        let start = chunk * CHUNK_BYTES;
        let bytes = (file_size - start.min(file_size)).clamp(1, CHUNK_BYTES);
        let mut evicted = 0;
        if let Some((_, b)) = self.lru.insert((file, chunk), bytes) {
            self.mapped_bytes -= b;
            evicted += 1;
        }
        self.mapped_bytes += bytes;
        while self.mapped_bytes > self.capacity_bytes {
            match self.lru.pop_lru() {
                Some((_, b)) => {
                    self.mapped_bytes -= b;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// Hit/miss counters for the three caches plus helper activity.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    /// Pathname cache hits.
    pub path_hits: u64,
    /// Pathname cache misses (each one costs translation work).
    pub path_misses: u64,
    /// Header cache hits.
    pub header_hits: u64,
    /// Header cache misses (each one costs header generation).
    pub header_misses: u64,
    /// Mapped-file cache hits.
    pub mmap_hits: u64,
    /// Mapped-file cache misses (each one costs an `mmap`).
    pub mmap_misses: u64,
    /// Chunks lazily unmapped on eviction.
    pub unmaps: u64,
    /// Jobs dispatched to AMPED helper processes.
    pub helper_jobs: u64,
    /// `mincore` checks that found the data resident.
    pub mincore_resident: u64,
    /// `mincore` checks that found data missing (→ helper read).
    pub mincore_missing: u64,
    /// Requests fully served.
    pub requests_done: u64,
}

/// The cache set of one server process (or the shared set of an MT
/// server). `None` means the optimization is disabled — that is how the
/// Figure 11 breakdown turns individual caches off.
pub struct Caches {
    /// Pathname-translation cache, keyed by request token.
    pub path: Option<LruCache<u64, PathEntry>>,
    /// Response-header cache, keyed by (token, keep_alive).
    pub header: Option<LruCache<(u64, bool), HeaderEntry>>,
    /// Mapped-file chunk cache.
    pub mmap: Option<MappedCache>,
    /// Counters.
    pub stats: CacheStats,
}

impl Caches {
    /// Builds the cache set `cfg` describes: a cache whose size is 0 is
    /// disabled.
    pub fn build(cfg: &ServerConfig) -> Self {
        let (path, header, mmap) = (
            cfg.path_cache_entries,
            cfg.header_cache_entries,
            cfg.mmap_cache_bytes,
        );
        Caches {
            path: (path > 0).then(|| LruCache::new(path)),
            header: (header > 0).then(|| LruCache::new(header)),
            mmap: (mmap > 0).then(|| MappedCache::new(mmap)),
            stats: CacheStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_cache_respects_byte_bound() {
        let mut m = MappedCache::new(4 * CHUNK_BYTES);
        let f = FileId(1);
        // Map 6 full chunks of a large file: at most 4 stay mapped.
        let mut evictions = 0;
        for i in 0..6 {
            evictions += m.map(f, i * CHUNK_BYTES, 10 * CHUNK_BYTES);
        }
        assert!(m.mapped_bytes() <= 4 * CHUNK_BYTES);
        assert_eq!(evictions, 2);
        assert!(m.hit(f, 5 * CHUNK_BYTES));
        assert!(!m.hit(f, 0));
    }

    #[test]
    fn mapped_cache_small_files_use_their_size() {
        let mut m = MappedCache::new(2 * CHUNK_BYTES);
        // 32 files of 2 KB each: 64 KB total, all fit despite being 32
        // entries, because small files occupy one small chunk each (§5.4).
        for i in 0..32 {
            m.map(FileId(i), 0, 2048);
        }
        assert_eq!(m.mapped_bytes(), 32 * 2048);
        assert!(m.hit(FileId(0), 0));
    }

    #[test]
    fn mapped_cache_chunk_indexing() {
        assert_eq!(MappedCache::chunk_of(0), 0);
        assert_eq!(MappedCache::chunk_of(CHUNK_BYTES - 1), 0);
        assert_eq!(MappedCache::chunk_of(CHUNK_BYTES), 1);
        assert_eq!(MappedCache::chunk_of(10 * CHUNK_BYTES + 5), 10);
    }

    #[test]
    fn caches_build_respects_disables() {
        let c = Caches::build(&ServerConfig::apache_like());
        assert!(c.path.is_none() && c.header.is_none() && c.mmap.is_none());
        let c = Caches::build(&ServerConfig::flash());
        assert!(c.path.is_some() && c.header.is_some() && c.mmap.is_some());
        let no_headers = ServerConfig {
            header_cache_entries: 0,
            ..ServerConfig::flash()
        };
        let c = Caches::build(&no_headers);
        assert!(c.path.is_some() && c.header.is_none() && c.mmap.is_some());
    }
}
