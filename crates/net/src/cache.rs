//! The real server's application-level content cache.
//!
//! Plays the role of Flash's pathname-translation + mapped-file +
//! response-header caches combined: a hit serves entirely from memory
//! with a pre-rendered (alignment-padded) header. (On a miss the first
//! of the three has a home of its own: the shard's open-file table,
//! [`crate::fsjob::OpenFileTable`].) Residency testing via
//! `mincore` has no portable stable equivalent, so — exactly as §5.7 of
//! the paper suggests as the fallback — the server treats its own
//! LRU-bounded cache as the definition of "in memory" and routes misses
//! to helper threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flash_core::caches::LruCache;
use flash_http::mime;
use flash_http::response::{etag_value, HeaderExtras, ResponseHeader, Status};

/// Which representation of a resource an entry (or helper load) holds.
/// The content cache is keyed by `(path, variant)` — see
/// [`variant_key`] — so identity and gzip entries coexist and
/// revalidate/evict independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// The file's own bytes, served without `Content-Encoding`.
    #[default]
    Identity,
    /// A sibling `<path>.gz` discovered at helper open time, served
    /// under `Content-Encoding: gzip` + `Vary: Accept-Encoding`.
    Gzip,
}

impl Variant {
    /// Whether this is the gzip representation.
    pub fn is_gzip(self) -> bool {
        matches!(self, Variant::Gzip)
    }
}

/// The composite cache/coalescing key for `(path, variant)`. Identity
/// keys are the path itself; gzip keys append a `NUL`-separated marker
/// — request paths can never contain a `NUL` (the parser rejects
/// `%00`), so variant keys cannot collide with any real path.
pub fn variant_key(path: &str, variant: Variant) -> String {
    match variant {
        Variant::Identity => path.to_string(),
        Variant::Gzip => format!("{path}\u{0}gz"),
    }
}

/// Inverse of [`variant_key`]: recovers the URL path and variant from
/// a composite key.
pub fn split_variant_key(key: &str) -> (&str, Variant) {
    match key.strip_suffix("\u{0}gz") {
        Some(path) => (path, Variant::Gzip),
        None => (key, Variant::Identity),
    }
}

/// One cached, ready-to-send response.
#[derive(Debug)]
pub struct Entry {
    /// Pre-rendered, alignment-padded response header (keep-alive form).
    pub header_keep: Bytes,
    /// Pre-rendered header, close form.
    pub header_close: Bytes,
    /// Byte offset of the `Date` *value* (always
    /// [`flash_http::date::IMF_FIXDATE_LEN`] bytes) within both header
    /// forms — their prefixes are identical — so the send path can
    /// splice in the current date with zero-copy slices instead of
    /// serving the load-time date for the entry's whole cache life.
    date_at: Option<usize>,
    /// File contents.
    pub body: Bytes,
    /// File mtime (unix seconds) at load time, when the filesystem
    /// reported one — the validator `If-Modified-Since` compares
    /// against, and the `Last-Modified` value baked into the headers.
    pub mtime: Option<i64>,
    /// Which representation this entry holds (gzip entries hold the
    /// sibling `.gz` file's bytes and carry its mtime/length).
    pub variant: Variant,
    /// Whether a `.gz` sibling existed when this entry was loaded —
    /// recorded on identity entries so they emit `Vary:
    /// Accept-Encoding` and so gzip-accepting clients know to load the
    /// gzip variant instead of settling for this one.
    pub has_gzip: bool,
    /// The representation's strong entity tag (mtime+length derived,
    /// variant-marked), as baked into the pre-rendered headers.
    pub etag: String,
}

/// Renders the pre-padded 200 header pair (keep-alive form, close
/// form) for a body of `len` bytes at `path` — the one place plain-200
/// header rendering happens, shared by the cached-entry tier and the
/// large-body `sendfile` tier so the two can never drift apart. A
/// known `mtime` (unix seconds) adds a `Last-Modified` field; every
/// pair carries the representation's `ETag`, gzip variants add
/// `Content-Encoding: gzip`, and any negotiated resource (either
/// variant, when a `.gz` sibling exists) adds `Vary: Accept-Encoding`.
/// Only the keep-alive form goes through the formatter; the close form
/// is derived from it ([`ResponseHeader::close_form`]).
pub fn header_pair(
    path: &str,
    len: u64,
    mtime: Option<i64>,
    variant: Variant,
    has_gzip: bool,
) -> (Bytes, Bytes, String) {
    let etag = etag_value(mtime, len, variant.is_gzip());
    let keep = ResponseHeader::build_full(
        Status::Ok,
        Some((mime::content_type(path), len)),
        true,
        true,
        mtime,
        HeaderExtras {
            etag: Some(&etag),
            content_range: None,
            gzip: variant.is_gzip(),
            vary_accept_encoding: variant.is_gzip() || has_gzip,
        },
    );
    let close = keep.close_form();
    (
        Bytes::from(keep.into_bytes()),
        Bytes::from(close.into_bytes()),
        etag,
    )
}

impl Entry {
    /// Builds an entry for `path` with `body` contents and no known
    /// mtime (no `Last-Modified`; conditional requests always miss).
    pub fn build(path: &str, body: Vec<u8>) -> Arc<Entry> {
        Self::build_with_mtime(path, body, None)
    }

    /// Builds an identity entry for `path` with `body` contents and
    /// the file's mtime in unix seconds.
    pub fn build_with_mtime(path: &str, body: Vec<u8>, mtime: Option<i64>) -> Arc<Entry> {
        Self::build_variant(path, body, mtime, Variant::Identity, false)
    }

    /// Builds an entry for one representation of `path`: its variant,
    /// and whether a gzip sibling exists for the resource.
    pub fn build_variant(
        path: &str,
        body: Vec<u8>,
        mtime: Option<i64>,
        variant: Variant,
        has_gzip: bool,
    ) -> Arc<Entry> {
        let (header_keep, header_close, etag) =
            header_pair(path, body.len() as u64, mtime, variant, has_gzip);
        // Locate the Date value once; the keep/close forms share their
        // prefix (status line + Date line), so one offset serves both.
        let date_at = header_keep
            .windows(6)
            .position(|w| w == b"Date: ")
            .map(|i| i + 6)
            .filter(|&at| {
                at + flash_http::date::IMF_FIXDATE_LEN <= header_close.len()
                    && header_keep[..at] == header_close[..at]
            });
        Arc::new(Entry {
            header_keep,
            header_close,
            date_at,
            body: Bytes::from(body),
            mtime,
            variant,
            has_gzip,
            etag,
        })
    }

    /// Queues this entry's header with a **current** `Date` onto
    /// `out`: two zero-copy slices of the pre-rendered header around a
    /// per-second-cached date segment. Pre-rendering bakes in the
    /// load-time date, which may be arbitrarily stale by the time a
    /// cache hit is served; IMF-fixdate is fixed-width, so splicing
    /// changes no length (alignment included).
    pub fn push_header(&self, keep: bool, out: &mut impl Extend<Bytes>) {
        let hdr = if keep {
            &self.header_keep
        } else {
            &self.header_close
        };
        match self.date_at {
            Some(at) => out.extend([
                hdr.slice(..at),
                flash_http::date::now_imf_bytes(),
                hdr.slice(at + flash_http::date::IMF_FIXDATE_LEN..),
            ]),
            // No recognizable Date line: serve the header as rendered.
            None => out.extend([hdr.clone()]),
        }
    }

    /// Whether a conditional request bearing this `If-Modified-Since`
    /// value (unix seconds, already parsed) can be answered `304`: the
    /// file has a known mtime no newer than the validator.
    pub fn not_modified_since(&self, ims: Option<i64>) -> bool {
        not_modified_since(self.mtime, ims)
    }

    /// Total cached bytes (headers + body).
    pub fn cost(&self) -> u64 {
        (self.header_keep.len() + self.header_close.len() + self.body.len()) as u64
    }
}

/// The `If-Modified-Since` validator rule, shared by both body tiers
/// (cached entries and the `sendfile` fd path) so their `304` behavior
/// can never drift apart: not-modified iff the file has a known mtime
/// no newer than the client's validator (both unix seconds).
pub fn not_modified_since(mtime: Option<i64>, ims: Option<i64>) -> bool {
    matches!((mtime, ims), (Some(m), Some(v)) if m <= v)
}

/// Largest admissible entry, as a divisor of capacity: entries costing
/// more than `capacity / MAX_ENTRY_DIVISOR` are refused outright.
/// Without this bound, inserting one entry bigger than the whole cache
/// evicts every resident entry *and then itself*, so each request for
/// that file wipes the cache and still misses — pure churn. Oversized
/// bodies belong on the sendfile path (the kernel page cache), not in
/// here.
pub const MAX_ENTRY_DIVISOR: u64 = 4;

/// A resident entry plus the instant it was last known to match the
/// file on disk — set at insert, refreshed by a successful
/// revalidation re-stat (see [`ContentCache::lookup`]).
struct Cached {
    entry: Arc<Entry>,
    validated_at: Instant,
}

/// Outcome of a freshness-aware lookup ([`ContentCache::lookup`]).
pub enum Lookup {
    /// Resident and within its revalidation TTL: serve it.
    Hit(Arc<Entry>),
    /// Resident but past the TTL: the entry may no longer match the
    /// file on disk — re-stat before serving, then
    /// [`ContentCache::refresh`] (unchanged) or
    /// [`ContentCache::invalidate`] (changed).
    Stale(Arc<Entry>),
    /// Not resident.
    Miss,
}

/// A byte-bounded LRU cache of rendered responses, keyed by URL path.
pub struct ContentCache {
    lru: LruCache<String, Cached>,
    capacity_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    rejected_oversized: u64,
}

impl ContentCache {
    /// Creates a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        ContentCache {
            // Entries are at least ~300 bytes (two headers); the entry
            // bound below is therefore unreachable before the byte bound.
            lru: LruCache::new((capacity_bytes / 256 + 2) as usize),
            capacity_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
            rejected_oversized: 0,
        }
    }

    /// Largest entry cost this cache will admit.
    pub fn max_entry_bytes(&self) -> u64 {
        self.capacity_bytes / MAX_ENTRY_DIVISOR
    }

    /// Looks up a path, promoting on hit. Borrowed-key lookup: no
    /// allocation on this per-request path. Freshness-blind — callers
    /// that honour a revalidation TTL use [`Self::lookup`].
    pub fn get(&mut self, path: &str) -> Option<Arc<Entry>> {
        match self.lru.get(path) {
            Some(c) => {
                self.hits += 1;
                Some(Arc::clone(&c.entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Freshness-aware lookup: a resident entry whose last validation
    /// is older than `ttl` comes back [`Lookup::Stale`] — still
    /// promoted and counted as a hit (the bytes are resident; it is
    /// their *currency* that is in doubt), but the caller must re-stat
    /// the file and either [`Self::refresh`] or [`Self::invalidate`]
    /// before serving. `ttl = None` disables staleness entirely.
    pub fn lookup(&mut self, path: &str, ttl: Option<Duration>) -> Lookup {
        self.lookup_at(path, ttl, Instant::now())
    }

    /// [`Self::lookup`] with an explicit notion of "now" — the seam
    /// the deterministic sim driver uses (its clock is a base
    /// `Instant` plus simulated nanoseconds, never the wall clock).
    pub fn lookup_at(&mut self, path: &str, ttl: Option<Duration>, now: Instant) -> Lookup {
        match self.lru.get(path) {
            Some(c) => {
                self.hits += 1;
                let entry = Arc::clone(&c.entry);
                match ttl {
                    Some(t) if now.saturating_duration_since(c.validated_at) >= t => {
                        Lookup::Stale(entry)
                    }
                    _ => Lookup::Hit(entry),
                }
            }
            None => {
                self.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Looks up a path without promoting it or touching the hit/miss
    /// counters — for internal consultations (a revalidation
    /// completion checking what is resident) that are not requests.
    pub fn peek(&self, path: &str) -> Option<Arc<Entry>> {
        self.lru.peek(path).map(|c| Arc::clone(&c.entry))
    }

    /// Marks a resident entry as just revalidated against the disk
    /// file (a re-stat matched its mtime and size): its TTL clock
    /// restarts now.
    pub fn refresh(&mut self, path: &str) {
        self.refresh_at(path, Instant::now())
    }

    /// [`Self::refresh`] with an explicit validation instant.
    pub fn refresh_at(&mut self, path: &str, now: Instant) {
        if let Some(c) = self.lru.get_mut(path) {
            c.validated_at = now;
        }
    }

    /// Drops a resident entry whose backing file changed on disk (or
    /// vanished), so stale bytes stop being served — and stop
    /// 304-validating — immediately. Returns whether an entry was
    /// actually removed.
    pub fn invalidate(&mut self, path: &str) -> bool {
        match self.lru.remove(path) {
            Some(old) => {
                self.used_bytes -= old.entry.cost();
                true
            }
            None => false,
        }
    }

    /// Inserts an entry, evicting LRU entries past the byte bound.
    ///
    /// Entries costing more than [`Self::max_entry_bytes`] are refused
    /// (returning `false`, touching nothing): admitting them would
    /// evict a disproportionate share of the working set — or, past
    /// capacity, the entire cache plus the entry itself — for a body
    /// the page cache serves better.
    pub fn insert(&mut self, path: String, entry: Arc<Entry>) -> bool {
        self.insert_at(path, entry, Instant::now())
    }

    /// [`Self::insert`] with an explicit validation instant.
    pub fn insert_at(&mut self, path: String, entry: Arc<Entry>, now: Instant) -> bool {
        if entry.cost() > self.max_entry_bytes() {
            self.rejected_oversized += 1;
            return false;
        }
        self.used_bytes += entry.cost();
        let cached = Cached {
            entry,
            validated_at: now,
        };
        if let Some((_, old)) = self.lru.insert(path, cached) {
            self.used_bytes -= old.entry.cost();
        }
        while self.used_bytes > self.capacity_bytes {
            match self.lru.pop_lru() {
                Some((_, old)) => self.used_bytes -= old.entry.cost(),
                None => break,
            }
        }
        true
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Inserts refused by the oversized-entry admission check.
    pub fn rejected_oversized(&self) -> u64 {
        self.rejected_oversized
    }
}

/// How a [`crate::conn::ShardCore`] reaches its content cache: the
/// seven operations the protocol core performs, and nothing else.
///
/// An AMPED shard's handle *is* its private [`ContentCache`] — the
/// default type parameter, monomorphised, so a shard pays no lock and
/// no indirection. The MT server's connection threads share one cache,
/// as §3.2 says threads do, through a handle that takes the lock per
/// operation ([`crate::mt`]).
pub trait CacheHandle {
    /// [`ContentCache::lookup_at`].
    fn lookup_at(&mut self, path: &str, ttl: Option<Duration>, now: Instant) -> Lookup;
    /// [`ContentCache::insert_at`]. A shared handle also refuses an
    /// insert from a holder that has not applied the latest reload.
    fn insert_at(&mut self, path: String, entry: Arc<Entry>, now: Instant) -> bool;
    /// [`ContentCache::peek`].
    fn peek(&self, path: &str) -> Option<Arc<Entry>>;
    /// [`ContentCache::refresh_at`].
    fn refresh_at(&mut self, path: &str, now: Instant);
    /// [`ContentCache::invalidate`].
    fn invalidate(&mut self, path: &str) -> bool;
    /// [`ContentCache::used_bytes`].
    fn used_bytes(&self) -> u64;
    /// A docroot reload: the holder now serves reload `generation`,
    /// and nothing cached under an earlier one may be served again.
    fn reset(&mut self, generation: u64);
}

impl CacheHandle for ContentCache {
    fn lookup_at(&mut self, path: &str, ttl: Option<Duration>, now: Instant) -> Lookup {
        ContentCache::lookup_at(self, path, ttl, now)
    }
    fn insert_at(&mut self, path: String, entry: Arc<Entry>, now: Instant) -> bool {
        ContentCache::insert_at(self, path, entry, now)
    }
    fn peek(&self, path: &str) -> Option<Arc<Entry>> {
        ContentCache::peek(self, path)
    }
    fn refresh_at(&mut self, path: &str, now: Instant) {
        ContentCache::refresh_at(self, path, now)
    }
    fn invalidate(&mut self, path: &str) -> bool {
        ContentCache::invalidate(self, path)
    }
    fn used_bytes(&self) -> u64 {
        ContentCache::used_bytes(self)
    }
    fn reset(&mut self, _generation: u64) {
        *self = ContentCache::new(self.capacity_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_headers_are_aligned_and_formed() {
        let e = Entry::build("/x.html", b"hello".to_vec());
        assert_eq!(e.header_keep.len() % 32, 0);
        assert_eq!(e.header_close.len() % 32, 0);
        assert!(e.header_keep.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert_eq!(&e.body[..], b"hello");
        assert!(e.cost() > 5);
    }

    #[test]
    fn entry_with_mtime_carries_last_modified_and_validates() {
        let e = Entry::build_with_mtime("/x.html", b"hi".to_vec(), Some(784_111_777));
        let s = String::from_utf8(e.header_keep.to_vec()).unwrap();
        assert!(s.contains("Last-Modified: Sun, 06 Nov 1994 08:49:37 GMT\r\n"));
        assert_eq!(e.header_keep.len() % 32, 0, "padding must still align");
        // Validator semantics: not-modified iff mtime <= the client's date.
        assert!(e.not_modified_since(Some(784_111_777)));
        assert!(e.not_modified_since(Some(784_111_778)));
        assert!(!e.not_modified_since(Some(784_111_776)));
        assert!(!e.not_modified_since(None));
        // No mtime: never claim not-modified.
        let e = Entry::build("/x.html", b"hi".to_vec());
        assert!(!e.not_modified_since(Some(i64::MAX)));
        let s = String::from_utf8(e.header_keep.to_vec()).unwrap();
        assert!(!s.contains("Last-Modified"));
    }

    /// The derived close form is the rendered one, over everything
    /// `header_pair` takes: each digit count of the length moves the
    /// padding remainder. `Date` is scrubbed — the renders being
    /// compared can straddle a second.
    #[test]
    fn header_pair_close_form_equals_a_second_render() {
        let scrub = |b: &[u8]| {
            let mut b = b.to_vec();
            let at = b.windows(6).position(|w| w == b"Date: ").unwrap() + 6;
            b[at..at + flash_http::date::IMF_FIXDATE_LEN].fill(b'_');
            String::from_utf8(b).unwrap()
        };
        let lens = (0..10).flat_map(|d| [10u64.pow(d) - 1, 10u64.pow(d)]);
        for len in lens {
            for mtime in [None, Some(784_111_777)] {
                for variant in [Variant::Identity, Variant::Gzip] {
                    for has_gzip in [false, true] {
                        for path in ["/a.html", "/b.jpeg", "/no-extension"] {
                            let (keep, close, etag) =
                                header_pair(path, len, mtime, variant, has_gzip);
                            let render = |keep_alive| {
                                ResponseHeader::build_full(
                                    Status::Ok,
                                    Some((mime::content_type(path), len)),
                                    keep_alive,
                                    true,
                                    mtime,
                                    HeaderExtras {
                                        etag: Some(&etag),
                                        content_range: None,
                                        gzip: variant.is_gzip(),
                                        vary_accept_encoding: variant.is_gzip() || has_gzip,
                                    },
                                )
                            };
                            assert_eq!(scrub(&keep), scrub(render(true).as_bytes()));
                            assert_eq!(scrub(&close), scrub(render(false).as_bytes()));
                            assert_eq!(close.len() % 32, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn push_header_splices_a_current_date_without_changing_length() {
        let e = Entry::build_with_mtime("/x.html", b"hi".to_vec(), Some(784_111_777));
        for keep in [true, false] {
            let baked = if keep {
                &e.header_keep
            } else {
                &e.header_close
            };
            let mut segs: Vec<Bytes> = Vec::new();
            e.push_header(keep, &mut segs);
            assert_eq!(segs.len(), 3, "prefix + date + suffix");
            let joined: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
            assert_eq!(joined.len(), baked.len(), "splice must preserve length");
            assert_eq!(joined.len() % 32, 0, "and therefore alignment");
            let text = String::from_utf8(joined).unwrap();
            let date = text
                .lines()
                .find_map(|l| l.strip_prefix("Date: "))
                .expect("Date line intact");
            let t = flash_http::date::parse_imf(date).expect("valid IMF-fixdate");
            assert!((t - flash_http::date::unix_now()).abs() <= 2, "date is now");
            // Everything except the date value matches the baked form.
            assert_eq!(&segs[0][..], &baked[..segs[0].len()]);
            assert_eq!(
                &segs[2][..],
                &baked[segs[0].len() + flash_http::date::IMF_FIXDATE_LEN..]
            );
        }
    }

    #[test]
    fn validator_rule_is_shared_and_consistent() {
        assert!(not_modified_since(Some(5), Some(5)));
        assert!(not_modified_since(Some(5), Some(9)));
        assert!(!not_modified_since(Some(5), Some(4)));
        assert!(!not_modified_since(None, Some(5)));
        assert!(!not_modified_since(Some(5), None));
        assert!(!not_modified_since(None, None));
    }

    #[test]
    fn cache_hit_and_miss_counting() {
        let mut c = ContentCache::new(1024 * 1024);
        assert!(c.get("/a").is_none());
        c.insert("/a".into(), Entry::build("/a", vec![1, 2, 3]));
        assert!(c.get("/a").is_some());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn byte_bound_evicts_lru() {
        let mut c = ContentCache::new(8000);
        for i in 0..10 {
            assert!(c.insert(format!("/f{i}"), Entry::build("/f", vec![0u8; 700])));
            assert!(c.used_bytes() <= 8000, "used {}", c.used_bytes());
        }
        assert!(c.get("/f9").is_some());
        assert!(c.get("/f0").is_none());
    }

    #[test]
    fn oversized_entry_is_refused_without_churn() {
        let mut c = ContentCache::new(8000);
        for i in 0..4 {
            assert!(c.insert(format!("/f{i}"), Entry::build("/f", vec![0u8; 700])));
        }
        let resident = c.used_bytes();
        assert!(resident > 0);
        // Bigger than max_entry_bytes (capacity/4 = 2000): must be
        // refused, evicting nothing — before this check, the insert
        // emptied the whole cache and then evicted itself, leaving the
        // cache cold on every request for the oversized file.
        let big = Entry::build("/big", vec![0u8; 4000]);
        assert!(big.cost() > c.max_entry_bytes());
        assert!(!c.insert("/big".into(), big));
        assert_eq!(c.used_bytes(), resident, "resident set must be untouched");
        assert!(c.get("/big").is_none());
        assert_eq!(c.rejected_oversized(), 1);
        for i in 0..4 {
            assert!(c.get(&format!("/f{i}")).is_some(), "/f{i} must survive");
        }
    }

    #[test]
    fn lookup_reports_staleness_and_refresh_resets_it() {
        let mut c = ContentCache::new(1024 * 1024);
        c.insert("/a".into(), Entry::build("/a", b"x".to_vec()));
        // Long TTL: fresh.
        assert!(matches!(
            c.lookup("/a", Some(Duration::from_secs(60))),
            Lookup::Hit(_)
        ));
        // Zero TTL: immediately stale — resident but untrusted.
        assert!(matches!(
            c.lookup("/a", Some(Duration::ZERO)),
            Lookup::Stale(_)
        ));
        // No TTL: staleness disabled entirely.
        assert!(matches!(c.lookup("/a", None), Lookup::Hit(_)));
        // A refresh restarts the clock for a non-zero TTL.
        c.refresh("/a");
        assert!(matches!(
            c.lookup("/a", Some(Duration::from_secs(60))),
            Lookup::Hit(_)
        ));
        assert!(matches!(
            c.lookup("/missing", Some(Duration::from_secs(60))),
            Lookup::Miss
        ));
    }

    #[test]
    fn invalidate_removes_entry_and_byte_accounting() {
        let mut c = ContentCache::new(1024 * 1024);
        c.insert("/a".into(), Entry::build("/a", vec![0u8; 500]));
        c.insert("/b".into(), Entry::build("/b", vec![0u8; 700]));
        let both = c.used_bytes();
        assert!(c.invalidate("/a"), "resident entry must be removed");
        assert!(c.get("/a").is_none(), "stale bytes must stop serving");
        assert!(c.used_bytes() < both, "bytes must be released");
        assert!(c.get("/b").is_some(), "other entries untouched");
        assert!(!c.invalidate("/a"), "second invalidate is a no-op");
        // The slot is reusable: a reload re-inserts cleanly.
        c.insert("/a".into(), Entry::build("/a", vec![1u8; 200]));
        assert!(c.get("/a").is_some());
    }

    #[test]
    fn variant_entries_coexist_under_distinct_keys() {
        let mut c = ContentCache::new(1024 * 1024);
        let id = Entry::build_variant(
            "/x.html",
            b"plain".to_vec(),
            Some(7),
            Variant::Identity,
            true,
        );
        let gz = Entry::build_variant("/x.html", b"gz".to_vec(), Some(9), Variant::Gzip, true);
        assert_ne!(
            variant_key("/x.html", Variant::Identity),
            variant_key("/x.html", Variant::Gzip)
        );
        c.insert(variant_key("/x.html", Variant::Identity), Arc::clone(&id));
        c.insert(variant_key("/x.html", Variant::Gzip), Arc::clone(&gz));
        let got_id = c.get(&variant_key("/x.html", Variant::Identity)).unwrap();
        let got_gz = c.get(&variant_key("/x.html", Variant::Gzip)).unwrap();
        assert_eq!(&got_id.body[..], b"plain");
        assert_eq!(&got_gz.body[..], b"gz");
        assert_ne!(
            got_id.etag, got_gz.etag,
            "representations need distinct tags"
        );
        // Evicting one variant leaves the other resident.
        assert!(c.invalidate(&variant_key("/x.html", Variant::Gzip)));
        assert!(c.get(&variant_key("/x.html", Variant::Identity)).is_some());
        assert!(c.get(&variant_key("/x.html", Variant::Gzip)).is_none());
    }

    #[test]
    fn variant_headers_carry_encoding_etag_and_vary() {
        let gz = Entry::build_variant("/x.html", b"gzbytes".to_vec(), Some(7), Variant::Gzip, true);
        let s = String::from_utf8(gz.header_keep.to_vec()).unwrap();
        assert!(s.contains("Content-Encoding: gzip\r\n"), "{s}");
        assert!(s.contains("Vary: Accept-Encoding\r\n"));
        assert!(s.contains(&format!("ETag: {}\r\n", gz.etag)));
        assert!(
            s.contains("Content-Type: text/html\r\n"),
            "gzip variant keeps the underlying media type: {s}"
        );
        assert_eq!(gz.header_keep.len() % 32, 0);
        // Identity entry of a negotiated resource: Vary but no encoding.
        let id = Entry::build_variant(
            "/x.html",
            b"plain".to_vec(),
            Some(7),
            Variant::Identity,
            true,
        );
        let s = String::from_utf8(id.header_keep.to_vec()).unwrap();
        assert!(!s.contains("Content-Encoding"));
        assert!(s.contains("Vary: Accept-Encoding\r\n"));
        // Un-negotiated resource: no Vary at all.
        let plain = Entry::build_with_mtime("/y.html", b"p".to_vec(), Some(7));
        let s = String::from_utf8(plain.header_keep.to_vec()).unwrap();
        assert!(!s.contains("Vary"));
        // The date splice still finds its offset with the new fields.
        let mut segs: Vec<Bytes> = Vec::new();
        gz.push_header(true, &mut segs);
        assert_eq!(segs.len(), 3, "date splice must survive extras");
    }

    #[test]
    fn reinsert_replaces_accounting() {
        let mut c = ContentCache::new(100_000);
        c.insert("/a".into(), Entry::build("/a", vec![0u8; 1000]));
        let first = c.used_bytes();
        c.insert("/a".into(), Entry::build("/a", vec![0u8; 2000]));
        assert_eq!(c.used_bytes(), first + 1000);
    }
}
