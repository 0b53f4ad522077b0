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
//! All three are built on a generic O(1) [`LruCache`]. A shared
//! [`CacheStats`] records hits and misses so the Figure 11 breakdown
//! experiment (and the tests) can attribute costs.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use flash_simos::FileId;

/// Mapped-file chunk size in bytes (64 KB: 16 pages).
pub const CHUNK_BYTES: u64 = 64 * 1024;

const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    // `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// A generic LRU cache with O(1) get/insert/evict, bounded by entry count.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, u32>,
    slab: Vec<Node<K, V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; use `Option<LruCache>` to model a
    /// disabled cache.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity LruCache; use None instead");
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    ///
    /// Accepts any borrowed form of the key (`Borrow<Q>`), so a
    /// `String`-keyed cache is queried with a plain `&str` — no
    /// per-lookup key allocation on the hot path.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx as usize].value.as_ref()
    }

    /// Looks up `key` mutably, promoting it to most-recently-used on a
    /// hit — for callers that keep per-entry bookkeeping (validation
    /// stamps) alongside the cached value.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx as usize].value.as_mut()
    }

    /// Looks up without promoting (for tests/introspection).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.slab[idx as usize].value.as_ref()
    }

    /// Inserts `key → value`. Returns the entry this displaced — either
    /// the previous value of the same key, or the evicted LRU entry when
    /// the cache was full — so callers can release its resources (Flash
    /// unmaps evicted chunks; the net server's cache adjusts its byte
    /// accounting).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = self.slab[idx as usize].value.replace(value);
            self.unlink(idx);
            self.push_front(idx);
            return old.map(|v| (key, v));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key`, returning its value. O(1), any recency position
    /// — the targeted-invalidation counterpart of [`Self::pop_lru`]
    /// (the net server's content cache drops entries whose backing
    /// file changed on disk).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx as usize].value.take()
    }

    /// The least-recently-used entry — the one [`Self::pop_lru`] would
    /// take — without removing or promoting it.
    pub fn peek_lru(&self) -> Option<(&K, &V)> {
        let node = self.slab.get(self.tail as usize)?;
        Some((&node.key, node.value.as_ref()?))
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.free.push(idx);
        let node = &mut self.slab[idx as usize];
        let key = node.key.clone();
        let value = node.value.take().expect("live node holds a value");
        self.map.remove(&key);
        Some((key, value))
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let n = &mut self.slab[idx as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        {
            let n = &mut self.slab[idx as usize];
            n.prev = NIL;
            n.next = old;
        }
        if old != NIL {
            self.slab[old as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A pathname-translation cache entry: the result of resolving a
/// requested name.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// CGI requests forwarded to application processes.
    pub cgi_requests: u64,
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
    /// Builds a cache set: `path_entries == 0`, `header == false` or
    /// `mmap_bytes == 0` disable the respective cache.
    pub fn build(
        path_entries: usize,
        header: bool,
        header_entries: usize,
        mmap_bytes: u64,
    ) -> Self {
        Caches {
            path: (path_entries > 0).then(|| LruCache::new(path_entries)),
            header: (header && header_entries > 0).then(|| LruCache::new(header_entries)),
            mmap: (mmap_bytes > 0).then(|| MappedCache::new(mmap_bytes)),
            stats: CacheStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_get_promotes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)), "b was LRU after touching a");
        assert_eq!(c.len(), 2);
        assert!(c.peek(&"a").is_some());
    }

    #[test]
    fn lru_insert_existing_updates_value_and_returns_old() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.insert("a", 9), Some(("a", 1)));
        assert_eq!(c.get(&"a"), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_pop_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        assert_eq!(c.peek_lru(), Some((&2, &())));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(2));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(3));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(1));
        assert_eq!(c.pop_lru(), None);
        assert_eq!(c.peek_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for i in 0..100u32 {
            c.insert(i, i * 10);
            assert!(c.len() <= 2);
        }
        assert_eq!(c.get(&99), Some(&990));
        assert_eq!(c.get(&98), Some(&980));
        assert_eq!(c.get(&97), None);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn lru_zero_capacity_panics() {
        let _ = LruCache::<u32, ()>::new(0);
    }

    #[test]
    fn lru_values_drop_exactly_once() {
        use std::rc::Rc;
        let v = Rc::new(());
        {
            let mut c = LruCache::new(1);
            c.insert(1, v.clone());
            c.insert(2, v.clone()); // evicts (1), dropping its Rc
            assert_eq!(Rc::strong_count(&v), 2);
            let popped = c.pop_lru().unwrap();
            drop(popped);
            assert_eq!(Rc::strong_count(&v), 1);
        }
        assert_eq!(Rc::strong_count(&v), 1);
    }

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
        let c = Caches::build(0, false, 0, 0);
        assert!(c.path.is_none() && c.header.is_none() && c.mmap.is_none());
        let c = Caches::build(10, true, 10, CHUNK_BYTES);
        assert!(c.path.is_some() && c.header.is_some() && c.mmap.is_some());
    }
}
