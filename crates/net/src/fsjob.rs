//! The **shared real-filesystem job executor**: one mechanical
//! implementation of [`HelperJob`] execution used by every real
//! driver — the AMPED helper pool ([`crate::server`]) and the
//! thread-per-connection server ([`crate::mt`]) — so the two can never
//! drift on tier selection, variant negotiation, or TOCTOU hygiene.
//! The deterministic sim (the `flash-sim` crate) answers helper jobs
//! the way [`exec_job`] does, against its in-memory files; its
//! residency test is a seeded coin, not [`exec_job_nowait`] and its
//! open-file table.
//!
//! "Mechanical" means: no policy lives here. The tier threshold rides
//! on the job as [`HelperJob::inline_max`]; the wanted representation
//! rides as [`HelperJob::variant`]. This module just opens files and
//! obeys.
//!
//! TOCTOU rule: the file is opened *first* and everything after that
//! — the regular-file check, the length, the bytes read or the fd
//! handed out — comes from the open descriptor (`fstat` semantics). A
//! `fs::metadata` + `fs::read` pair races with path swaps: the
//! metadata could describe one inode and the read return another.
//!
//! A load is two halves: `resolve` binds the name to an open regular
//! file (and learns which variant it is and whether a `.gz` sibling
//! exists); `tiered` turns the open file into bytes or hands out the
//! descriptor. Every job resolves its name by path when it runs.
//!
//! There are two executors over those rules. [`exec_job`] blocks for
//! as long as the disk takes and always answers — success or the error
//! the client will see; it runs on helper threads (and MT connection
//! threads). [`exec_job_nowait`] is the event loop's **residency
//! test**: it never waits, and either answers a regular file as
//! `exec_job` would — the same file, variant and validators — or
//! declines, leaving the job to a helper.
//!
//! The event loop's [`OpenFileTable`] remembers what the residency
//! test resolved, and is asked in the loop only, before any job
//! exists ([`OpenFileTable::held`]): a held file is answered like a
//! cache hit, with the **descriptor** at any size, as Flash sent from
//! its mapped files (§5.4), under a header pair rendered once per entry
//! (§5.3), once `cachestat(2)` confirms that every page is resident
//! (§5.7's `mincore` test, asked of a descriptor). The rule above then
//! reads: **the name binding — what `open` decided, path lookup and
//! permission check both — is trusted for `cache_revalidate_ttl`; the
//! regular-file check, the link count, the length, the mtime and the
//! residency of the bytes come from the open descriptor every time.**
//! That is what a content-cache hit already assumes about a name, and
//! no more. So a content-cache miss takes one of two paths: the table holds the file and the loop
//! answers it, or the name is resolved by path — in the loop by the
//! residency test, or by a helper. **Platform rule:** before Linux 6.5,
//! or where `cachestat` is refused, a shard keeps no open-file table,
//! and every miss resolves by path.

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{self, Entry, Variant};
use crate::conn::{DoneData, FileData, Held, HelperJob, JobKind, LoadResult, ShardStats};
use crate::lru::LruCache;
use crate::sys;

/// The `.gz` sibling of an identity filesystem path (`a/b.html` →
/// `a/b.html.gz`) — the on-disk layout of the precompressed variant.
pub fn gzip_sibling(p: &Path) -> PathBuf {
    let mut os = p.as_os_str().to_os_string();
    os.push(".gz");
    PathBuf::from(os)
}

/// A file's mtime as unix seconds, if the filesystem reports one that
/// fits (pre-1970 mtimes are reported as `None` rather than lied
/// about — `Last-Modified` simply goes unsent).
pub fn unix_mtime(meta: &std::fs::Metadata) -> Option<i64> {
    let t = meta.modified().ok()?;
    let d = t.duration_since(std::time::UNIX_EPOCH).ok()?;
    Some(d.as_secs() as i64)
}

/// Executes one helper job against the real filesystem, producing the
/// completion payload for [`crate::conn::Done`].
pub fn exec_job(job: &HelperJob) -> DoneData<Arc<File>> {
    match job.kind {
        JobKind::Load => DoneData::Loaded(exec_load(job)),
        JobKind::Revalidate => DoneData::Stat(exec_stat(job)),
        // Dynamic jobs are multi-event streams, exchanges with an
        // application worker (`crate::appworker`): a shard's worker
        // set or an MT connection thread takes them before this
        // single-shot executor. Reaching here means a driver forgot
        // to — fail the request, don't guess.
        JobKind::Dynamic => DoneData::Loaded(Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "dynamic job reached the filesystem executor",
        ))),
    }
}

/// How an executor touches the filesystem. The job logic below
/// ([`resolve`], [`tiered`], [`stat`]) is written once over this table, so
/// the blocking and the non-blocking executor cannot drift on open
/// order, sibling rules or tier selection; they differ only in the
/// four entries.
struct Access {
    /// Opens a file for reading.
    open: fn(&Path) -> io::Result<File>,
    /// Stat-only probe: is there a regular file at this path?
    is_file: fn(&Path) -> io::Result<bool>,
    /// Whether a failed *sibling* open or probe means "no `.gz`
    /// sibling"; any other error ends the job.
    absent: fn(&io::Error) -> bool,
    /// Reads a body `fstat` put at `want` bytes.
    read: fn(&File, usize) -> io::Result<Vec<u8>>,
}

/// Waits for the disk as long as it takes, and always has an answer:
/// whatever is wrong with a sibling, the identity file is served.
const BLOCKING: Access = Access {
    open: |p| File::open(p),
    is_file: |p| Ok(std::fs::metadata(p)?.is_file()),
    absent: |_| true,
    read: read_body,
};

/// Answers from the dentry and page caches or fails ([`sys`]): same
/// path resolution as `File::open` (symlinks followed, no containment
/// flags), so both executors name the same file. The probe's `O_PATH`
/// descriptor needs no read permission and opens nothing, like the
/// `stat` it stands in for. Only `NotFound` — a cached negative
/// lookup, or [`regular`]'s verdict on a sibling that is no file —
/// counts as "no sibling"; where [`BLOCKING`] shrugs off any other
/// sibling error, this one fails, and `BLOCKING` gets to shrug.
const NOWAIT: Access = Access {
    open: |p| sys::open_cached(p, false),
    is_file: |p| Ok(sys::fstat(&sys::open_cached(p, true)?)?.regular),
    absent: |e| e.kind() == io::ErrorKind::NotFound,
    read: read_body_nowait,
};

/// The regular-file check on an **open** descriptor (one bare `fstat`,
/// [`sys::fstat`] — no second path lookup): refuses directories, FIFOs
/// and the rest; returns the descriptor with its length and mtime.
fn regular(file: File) -> io::Result<(File, u64, Option<i64>)> {
    let st = sys::fstat(&file)?;
    if !st.regular {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "not a regular file",
        ));
    }
    Ok((file, st.len, st.mtime))
}

/// One read of `want + 1` bytes: `want` back means the extra byte met
/// end of file — the whole body, confirmed, in one syscall
/// (`read_to_end` spends an fstat, an lseek and an EOF probe read on
/// the same answer). Anything else means the file changed size after
/// the fstat (or the read was cut short): keep reading to the real end
/// of file, as this path always has.
fn read_body(mut file: &File, want: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; want + 1];
    let n = loop {
        match file.read(&mut body) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            r => break r?,
        }
    };
    body.truncate(n);
    if n != want {
        file.read_to_end(&mut body)?;
    }
    Ok(body)
}

/// The same `want + 1` read from the page cache alone; a count other
/// than `want` — a page not resident, or a size change — is for
/// [`read_body`] to sort out.
fn read_body_nowait(file: &File, want: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; want + 1];
    if sys::pread_nowait(file, &mut body, 0)? != want {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    body.truncate(want);
    Ok(body)
}

/// What [`resolve`] binds a job's name to.
struct Resolved {
    /// The open regular file the response is made from (the `.gz`
    /// sibling for [`Variant::Gzip`]).
    file: Arc<File>,
    /// Its length and mtime, by `fstat`.
    len: u64,
    mtime: Option<i64>,
    variant: Variant,
    /// Whether a `.gz` sibling exists.
    has_gzip: bool,
}

/// The first half of a [`JobKind::Load`]: opens the identity file and
/// negotiates the variant.
///
/// The identity file is opened *first* even for a gzip-preference job:
/// a missing resource must `404` identically for gzip-accepting and
/// plain clients, and a sibling-only `.gz` (no original) is
/// deliberately never served. A gzip preference then probes the
/// sibling and serves it when present — under the `.gz` file's **own**
/// length and mtime (its `Content-Length`, `Last-Modified`, and `ETag`
/// describe the bytes actually sent) — falling back to identity when
/// absent. An identity load still stats the sibling so the entry can
/// advertise `Vary: Accept-Encoding` and route future gzip-accepting
/// clients. Sibling discovery happens only here: a `.gz` added or
/// removed afterwards is picked up by the next resolve — after a
/// revalidation or a cache miss, within the TTL — not mid-entry.
fn resolve(fs: &Access, job: &HelperJob) -> io::Result<Resolved> {
    let found = |(file, len, mtime), variant, has_gzip| Resolved {
        file: Arc::new(file),
        len,
        mtime,
        variant,
        has_gzip,
    };
    let identity = regular((fs.open)(&job.fs_path)?)?;
    let sibling = gzip_sibling(&job.fs_path);
    if job.variant.is_gzip() {
        return match (fs.open)(&sibling).and_then(regular) {
            Ok(gz) => Ok(found(gz, Variant::Gzip, true)),
            Err(e) if (fs.absent)(&e) => Ok(found(identity, Variant::Identity, false)),
            Err(e) => Err(e),
        };
    }
    let has_gzip = match (fs.is_file)(&sibling) {
        Ok(is_file) => is_file,
        Err(e) if (fs.absent)(&e) => false,
        Err(e) => return Err(e),
    };
    Ok(found(identity, Variant::Identity, has_gzip))
}

/// The second half: applies the job's tier rule to the open file.
/// Bodies at most `inline_max` bytes come back as bytes (destined for
/// the content cache and the `writev` path), larger ones as the open
/// descriptor for the `sendfile` window path — a multi-gigabyte file
/// never materializes in executor memory.
fn tiered(fs: &Access, found: &Resolved, inline_max: u64) -> io::Result<LoadResult<Arc<File>>> {
    let data = if found.len > inline_max {
        FileData::Fd {
            file: Arc::clone(&found.file),
            len: found.len,
            mtime: found.mtime,
        }
    } else {
        let body = (fs.read)(&found.file, found.len as usize)?;
        let mtime = found.mtime;
        FileData::Bytes { body, mtime }
    };
    Ok(LoadResult {
        data,
        variant: found.variant,
        has_gzip: found.has_gzip,
    })
}

/// Executes a [`JobKind::Load`] — `resolve`, then `tiered` — and
/// reports which representation actually loaded.
pub fn exec_load(job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
    load(&BLOCKING, job)
}

fn load(fs: &Access, job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
    tiered(fs, &resolve(fs, job)?, job.inline_max)
}

/// Executes a [`JobKind::Revalidate`]: the cheap open + `fstat` probe,
/// no bytes read, against the file the entry's variant actually came
/// from (the `.gz` sibling for gzip entries). Returns the current
/// (length, mtime) for comparison against the cached entry.
pub fn exec_stat(job: &HelperJob) -> io::Result<(u64, Option<i64>)> {
    stat(&BLOCKING, job)
}

fn stat(fs: &Access, job: &HelperJob) -> io::Result<(u64, Option<i64>)> {
    let sibling;
    let p: &Path = if job.variant.is_gzip() {
        sibling = gzip_sibling(&job.fs_path);
        &sibling
    } else {
        &job.fs_path
    };
    let (_file, len, mtime) = regular((fs.open)(p)?)?;
    Ok((len, mtime))
}

/// Set once the cached-only system calls prove unavailable (old
/// kernel, seccomp filter, unsupported target): from then on every job
/// goes to a helper without the wasted calls. Publishes nothing but
/// itself, so `Relaxed` suffices.
static NOWAIT_OFF: AtomicBool = AtomicBool::new(!sys::HAS_NOWAIT);

/// One shard's **open-file table**: `resolve` memoised, and with it the
/// response head — the paper's pathname-translation and
/// response-header caches (§5.2, §5.3), holding descriptors where Flash
/// held `mmap`s (§5.4). It is a second cache tier behind the content
/// cache, answered in the loop and nowhere else: a content-cache miss
/// on a file the shard has served before is asked of [`Self::held`]
/// before any job exists, and answered like a hit — an `fstat` and a
/// `cachestat` of a descriptor the table already holds, then that
/// descriptor, under the head the entry rendered at its first such
/// answer, for `sendfile` — no `openat2`, no sibling probe, no read, no
/// copy, no `close`, no header render, and no helper job. Such an
/// answer inserts nothing: the content cache is fed only by loads
/// resolved by path, which the residency test ([`exec_job_nowait`])
/// makes and remembers here.
///
/// An entry-count-bounded LRU keyed by the job's variant key, owned by
/// the shard's environment and touched by its event-loop thread only.
/// What an entry is trusted for is the module's TTL and TOCTOU rules,
/// checked in one place ([`Self::held`]): the name binding for `ttl`
/// since it was resolved by path (`None`: until something else drops
/// it), then everything else re-read from the descriptor on every use
/// (`OpenFile::unchanged`), then the body's residency asked of
/// `cachestat` (`OpenFile::resident`). Any disagreement, error or page
/// not resident drops the entry, its head with it, and declines; the
/// job the core then makes resolves by path. Two things only the TTL
/// catches, as on a content-cache hit: a `chmod` that would refuse
/// the open today, and a rename-over of a file that keeps another hard
/// link (its link count never reaches zero). Entries leave by LRU eviction at
/// capacity, by [`Self::clear`] (docroot reload, descriptor
/// exhaustion, shard exit), and — so that a file nobody asks for again
/// does not pin a deleted inode's blocks until eviction — from the LRU
/// tail on every insert once their TTL has lapsed.
///
/// The capacity is the caller's descriptor budget; below
/// [`Self::MIN_CAPACITY`] there is no table and every load resolves by
/// path. The module's platform rule is the same verdict: a target
/// without the cached-only calls never builds a table, and a table
/// whose `cachestat` is refused closes every descriptor and is gone.
pub struct OpenFileTable {
    lru: Option<LruCache<Arc<str>, OpenFile>>,
    ttl: Option<Duration>,
    stats: Arc<ShardStats>,
}

/// One table entry: what [`resolve`] found, and when.
struct OpenFile {
    found: Resolved,
    resolved_at: Instant,
    /// The representation's head — header pair and validators —
    /// rendered at the entry's first held answer and kept for as long
    /// as the entry lives: it describes `found`'s length and mtime,
    /// which the per-use check holds the file to, and it leaves with
    /// the entry, whichever way the entry leaves.
    head: Option<Arc<Entry>>,
}

impl OpenFile {
    fn trusted(&self, ttl: Option<Duration>, now: Instant) -> bool {
        ttl.is_none_or(|t| now.saturating_duration_since(self.resolved_at) < t)
    }

    /// The per-use check, one bare `fstat` ([`sys::fstat`]): the
    /// descriptor must still be a regular file with a name
    /// (`st_nlink > 0` — an unlinked or renamed-over file is dropped
    /// at once, so a delete still `404`s and a `mv new old` shows on
    /// the very next request) and the length and mtime it had when
    /// resolved. No byte is read after it: the length this promises is
    /// `sendfile`'s to deliver, and a file that shrinks in between
    /// drops the connection (`ConnIo::sendfile`'s `Ok(0)`), on either
    /// tier.
    fn unchanged(&self) -> io::Result<()> {
        let st = sys::fstat(&self.found.file)?;
        let same =
            st.regular && st.linked && st.len == self.found.len && st.mtime == self.found.mtime;
        if same {
            Ok(())
        } else {
            Err(io::Error::other("open file changed since it was resolved"))
        }
    }

    /// The residency step: every page of a body a helper would read
    /// (at most `inline_max` bytes) must be in the page cache, by
    /// `cachestat`; `WouldBlock` when one is not — the disk would
    /// block, a helper's business. A larger body is the descriptor
    /// either way, as a helper's answer would be, and whether its
    /// pages are resident is `sendfile`'s business.
    fn resident(&self, inline_max: u64) -> io::Result<()> {
        let found = &self.found;
        if found.len > inline_max || sys::resident(&found.file, found.len)? {
            Ok(())
        } else {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    /// The held answer: the descriptor, under the head rendered at the
    /// first one. `key` is the entry's variant key.
    fn sendable(&mut self, key: &str) -> Held<Arc<File>> {
        let OpenFile { found, head, .. } = self;
        let head = head.get_or_insert_with(|| {
            let url_path = cache::split_variant_key(key).0;
            let (len, mtime, variant) = (found.len, found.mtime, found.variant);
            Arc::new(Entry::head(url_path, len, mtime, variant, found.has_gzip))
        });
        Held {
            head: Arc::clone(head),
            file: Arc::clone(&found.file),
            len: found.len,
        }
    }
}

impl OpenFileTable {
    /// Smallest descriptor budget worth a table.
    pub const MIN_CAPACITY: usize = 8;

    /// A table holding at most `capacity` descriptors, counting into
    /// `stats` (`open_file_hits`, `open_files`).
    pub fn new(capacity: usize, ttl: Option<Duration>, stats: Arc<ShardStats>) -> Self {
        let worth = sys::HAS_NOWAIT && capacity >= Self::MIN_CAPACITY;
        OpenFileTable {
            lru: worth.then(|| LruCache::new(capacity)),
            ttl,
            stats,
        }
    }

    /// Closes every descriptor the table holds.
    pub fn clear(&mut self) {
        if let Some(lru) = &mut self.lru {
            *lru = LruCache::new(lru.capacity());
        }
        self.stats.open_files.store(0, Ordering::Relaxed);
    }

    /// A content-cache miss on variant key `key` answered in the loop,
    /// before any job exists ([`crate::conn::HelperPort::held`]): the
    /// held descriptor under its head, if the table holds the file and
    /// it passes the held check — trusted (its name binding inside the
    /// TTL), then `OpenFile::unchanged`, then `OpenFile::resident` —
    /// and the answer counts as one of the `open_file_hits`. `None`
    /// declines, and the core makes its job: no entry for `key`, or one
    /// that failed the check, which is dropped here. An error that says
    /// a call is unavailable here ([`sys::is_unsupported`]) is a verdict
    /// on the platform, not on the file: the table closes every
    /// descriptor and is gone (`abandon`).
    pub fn held(&mut self, key: &str, inline_max: u64, now: Instant) -> Option<Held<Arc<File>>> {
        let lru = self.lru.as_mut()?;
        let held = lru.get_mut(key)?;
        let checked = held
            .trusted(self.ttl, now)
            .then(|| held.unchanged().and_then(|()| held.resident(inline_max)));
        match checked {
            Some(Ok(())) => {
                self.stats.open_file_hits.fetch_add(1, Ordering::Relaxed);
                return Some(held.sendable(key));
            }
            Some(Err(e)) if sys::is_unsupported(&e) => self.abandon(),
            _ => {
                lru.remove(key);
                self.stats
                    .open_files
                    .store(lru.len() as u64, Ordering::Relaxed);
            }
        }
        None
    }

    /// The platform refused the held check: closes every descriptor and
    /// keeps no table from here on, so every miss resolves by path, as
    /// below [`Self::MIN_CAPACITY`].
    fn abandon(&mut self) {
        self.lru = None;
        self.stats.open_files.store(0, Ordering::Relaxed);
    }

    /// A [`JobKind::Load`] for the residency test: resolved by path and,
    /// with a table, remembered as resolved at `now` (the turn's clock)
    /// once the bytes have come too.
    fn answer(&mut self, job: &HelperJob, now: Instant) -> io::Result<LoadResult<Arc<File>>> {
        let Some(lru) = &mut self.lru else {
            return load(&NOWAIT, job);
        };
        let key = job.path.as_str();
        lru.remove(key);
        let answer = resolve(&NOWAIT, job).and_then(|found| {
            let answer = tiered(&NOWAIT, &found, job.inline_max)?;
            while lru
                .peek_lru()
                .is_some_and(|(_, idle)| !idle.trusted(self.ttl, now))
            {
                lru.pop_lru();
            }
            let held = OpenFile {
                found,
                resolved_at: now,
                head: None,
            };
            lru.insert(Arc::from(key), held);
            Ok(answer)
        });
        self.stats
            .open_files
            .store(lru.len() as u64, Ordering::Relaxed);
        answer
    }
}

/// The **residency test**: executes a [`JobKind::Load`] or
/// [`JobKind::Revalidate`] job only if that takes no waiting — path
/// lookups answered by the dentry cache ([`sys::open_cached`]), bytes
/// by the page cache ([`sys::pread_nowait`]) — and remembers a load's
/// name binding in `table`. `Some` carries the payload [`exec_job`]
/// would produce — the same file, variant and validators — and `None`
/// declines, and the caller hands the job to a helper as if this had
/// never run. Every load here resolves its name by path: a file the
/// table holds is the loop's to answer before any job exists
/// ([`OpenFileTable::held`]). A load the table remembers is resolved
/// at `now`, the caller's clock — a shard's, its turn's — which its
/// TTL runs from.
///
/// It declines whenever the answer is not "a regular file, here it
/// is": a lookup or read that would touch the disk (`EAGAIN`), a read
/// that came back short or long (the file changed size after the
/// `fstat`), anything that is not a regular file (a FIFO
/// opens without blocking, is recognised by `fstat`, and is dropped —
/// a writer blocked opening its other end does see that reader come
/// and go), and **every error** —
/// `404`/`403`/`500` are decided by the blocking executor alone, so
/// there is one source of error semantics. Never [`JobKind::Dynamic`].
pub fn exec_job_nowait(
    job: &HelperJob,
    table: &mut OpenFileTable,
    now: Instant,
) -> Option<DoneData<Arc<File>>> {
    if NOWAIT_OFF.load(Ordering::Relaxed) {
        return None;
    }
    let done = match job.kind {
        JobKind::Load => table.answer(job, now).map(|r| DoneData::Loaded(Ok(r))),
        JobKind::Revalidate => stat(&NOWAIT, job).map(|s| DoneData::Stat(Ok(s))),
        JobKind::Dynamic => return None,
    };
    done.inspect_err(|e| {
        if sys::is_unsupported(e) {
            NOWAIT_OFF.store(true, Ordering::Relaxed);
        }
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throwaway directory under the OS temp root (the workspace has
    /// no tempdir crate), removed on drop.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> TestDir {
            let p = std::env::temp_dir().join(format!("flash-fsjob-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TestDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn job(dir: &Path, name: &str, kind: JobKind, variant: Variant, inline_max: u64) -> HelperJob {
        HelperJob {
            path: crate::cache::variant_key(&format!("/{name}"), variant),
            fs_path: dir.join(name),
            kind,
            variant,
            inline_max,
            epoch: 0,
            token: 1,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn gzip_preference_serves_sibling_and_falls_back() {
        let dir = TestDir::new("gzpref");
        std::fs::write(dir.path().join("a.html"), b"identity-bytes").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"gz").unwrap();
        std::fs::write(dir.path().join("b.html"), b"plain-only").unwrap();

        let got = exec_load(&job(
            dir.path(),
            "a.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap();
        assert_eq!(got.variant, Variant::Gzip);
        assert!(got.has_gzip);
        match got.data {
            FileData::Bytes { body, .. } => assert_eq!(body, b"gz"),
            _ => panic!("2 bytes must come back inline"),
        }

        let got = exec_load(&job(
            dir.path(),
            "b.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap();
        assert_eq!(
            got.variant,
            Variant::Identity,
            "no sibling: identity fallback"
        );
        assert!(!got.has_gzip);

        // Identity load of a negotiated resource records the sibling.
        let got = exec_load(&job(
            dir.path(),
            "a.html",
            JobKind::Load,
            Variant::Identity,
            1024,
        ))
        .unwrap();
        assert_eq!(got.variant, Variant::Identity);
        assert!(got.has_gzip);
    }

    #[test]
    fn inline_max_decides_the_tier_mechanically() {
        let dir = TestDir::new("tier");
        std::fs::write(dir.path().join("x.bin"), vec![7u8; 100]).unwrap();
        let got = exec_load(&job(
            dir.path(),
            "x.bin",
            JobKind::Load,
            Variant::Identity,
            99,
        ))
        .unwrap();
        match got.data {
            FileData::Fd { len, .. } => assert_eq!(len, 100),
            _ => panic!("100 > 99 must come back as an fd"),
        }
        let got = exec_load(&job(
            dir.path(),
            "x.bin",
            JobKind::Load,
            Variant::Identity,
            100,
        ))
        .unwrap();
        assert!(
            matches!(got.data, FileData::Bytes { .. }),
            "100 <= 100 stays inline"
        );
    }

    #[test]
    fn revalidate_stats_the_variant_file() {
        let dir = TestDir::new("reval");
        std::fs::write(dir.path().join("a.html"), b"0123456789").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"123").unwrap();
        let (len, _) = exec_stat(&job(
            dir.path(),
            "a.html",
            JobKind::Revalidate,
            Variant::Gzip,
            0,
        ))
        .unwrap();
        assert_eq!(len, 3, "gzip revalidation must stat the sibling");
        let (len, _) = exec_stat(&job(
            dir.path(),
            "a.html",
            JobKind::Revalidate,
            Variant::Identity,
            0,
        ))
        .unwrap();
        assert_eq!(len, 10);
    }

    /// A completion payload reduced to what the shard acts on, for
    /// comparing the two executors: the body, whichever way it came. A
    /// descriptor is read to its end — by position, as `sendfile` reads
    /// it: the open-file table hands the same descriptor out again and
    /// again, so its cursor is nobody's — and must hold exactly the
    /// length it was handed out with.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Body(Vec<u8>, Option<i64>, Variant, bool),
        Stat(u64, Option<i64>),
        Failed(io::ErrorKind),
    }

    fn seen(data: DoneData<Arc<File>>) -> Seen {
        match data {
            DoneData::Loaded(Ok(LoadResult {
                data,
                variant,
                has_gzip,
                ..
            })) => match data {
                FileData::Bytes { body, mtime } => Seen::Body(body, mtime, variant, has_gzip),
                FileData::Fd { file, len, mtime } => {
                    use std::os::unix::fs::FileExt;
                    let mut all = vec![0u8; len as usize + 1];
                    let n = file.read_at(&mut all, 0).unwrap();
                    assert_eq!(n as u64, len, "a descriptor handed out with a stale length");
                    all.truncate(n);
                    Seen::Body(all, mtime, variant, has_gzip)
                }
            },
            DoneData::Stat(Ok((len, mtime))) => Seen::Stat(len, mtime),
            DoneData::Loaded(Err(e)) | DoneData::Stat(Err(e)) => Seen::Failed(e.kind()),
            DoneData::Dynamic(_) => unreachable!("no dynamic jobs here"),
        }
    }

    /// Whether a load was answered with a descriptor, for `sendfile`.
    fn by_descriptor(data: &DoneData<Arc<File>>) -> bool {
        matches!(
            data,
            DoneData::Loaded(Ok(LoadResult {
                data: FileData::Fd { .. },
                ..
            }))
        )
    }

    /// Whether `cachestat` answers here: where it does not, the first
    /// held check gives the table up, and every miss resolves by path.
    fn cachestat_works(file: &Path) -> bool {
        File::open(file).and_then(|f| sys::resident(&f, 1)).is_ok()
    }

    /// Whether the cached-only calls work on this kernel *and* this
    /// filesystem: the executor may decline for either reason, and a
    /// test can demand an answer only where one is possible.
    fn nowait_works(warm_file: &Path) -> bool {
        std::fs::read(warm_file).unwrap();
        let mut byte = [0u8; 1];
        sys::open_cached(warm_file, false)
            .and_then(|f| sys::pread_nowait(&f, &mut byte, 0))
            .is_ok()
    }

    /// An open-file table of `capacity` descriptors and the counters
    /// it reports into.
    fn table(capacity: usize, ttl: Option<Duration>) -> (OpenFileTable, Arc<ShardStats>) {
        let stats = Arc::new(ShardStats::default());
        (OpenFileTable::new(capacity, ttl, Arc::clone(&stats)), stats)
    }

    const MINUTE: Option<Duration> = Some(Duration::from_secs(60));

    /// What a shard does with a content-cache miss: it asks the table
    /// for the file held open ([`OpenFileTable::held`]) — the answer
    /// shown here as the load result it stands for — and makes a job,
    /// met first by the residency test, only if the table declines.
    fn miss(j: &HelperJob, files: &mut OpenFileTable) -> Option<DoneData<Arc<File>>> {
        let (load, now) = (j.kind == JobKind::Load, Instant::now());
        match load.then(|| files.held(&j.path, j.inline_max, now)) {
            Some(Some(Held { head, file, len })) => Some(DoneData::Loaded(Ok(LoadResult {
                data: FileData::Fd {
                    file,
                    len,
                    mtime: head.mtime,
                },
                variant: head.variant,
                has_gzip: head.has_gzip,
            }))),
            _ => exec_job_nowait(j, files, now),
        }
    }

    fn hits_and_held(stats: &ShardStats) -> (u64, u64) {
        (
            stats.open_file_hits.load(Ordering::Relaxed),
            stats.open_files.load(Ordering::Relaxed),
        )
    }

    /// The differential contract: over a docroot of regular files —
    /// both tiers, empty, with and without a `.gz` sibling, both
    /// variants, both job kinds — a miss answered without a helper
    /// (from a held file, or by the residency test), whenever it is,
    /// carries the blocking executor's body, variant and validators.
    /// Run after the blocking executor has touched every path (so
    /// lookups and bytes are resident), it must be answered wherever
    /// the kernel and filesystem can — without a table, through an
    /// empty table, and a second time from the entries the first pass
    /// left. That second time every load is answered with the held
    /// descriptor, at any size, where `cachestat` can vouch for its
    /// pages; where it cannot, the first held check gives the table up,
    /// every load resolves by path again, and only the large tier is a
    /// descriptor.
    #[test]
    fn nowait_agrees_with_exec_job_on_regular_files() {
        let dir = TestDir::new("differential");
        let body: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(dir.path().join("page.html"), &body).unwrap();
        std::fs::write(dir.path().join("page.html.gz"), b"gz-bytes").unwrap();
        std::fs::write(dir.path().join("plain.html"), b"no sibling here").unwrap();
        std::fs::write(dir.path().join("empty.html"), b"").unwrap();
        std::fs::write(dir.path().join("big.bin"), vec![9u8; 20_000]).unwrap();
        let inline_max = 16 * 1024;
        let cases = [
            ("page.html", JobKind::Load, Variant::Identity),
            ("page.html", JobKind::Load, Variant::Gzip),
            ("plain.html", JobKind::Load, Variant::Identity),
            ("plain.html", JobKind::Load, Variant::Gzip),
            ("empty.html", JobKind::Load, Variant::Identity),
            ("big.bin", JobKind::Load, Variant::Identity),
            ("page.html", JobKind::Revalidate, Variant::Identity),
            ("page.html", JobKind::Revalidate, Variant::Gzip),
        ];
        let must_answer = nowait_works(&dir.path().join("page.html"));
        let held_by_descriptor = cachestat_works(&dir.path().join("page.html"));
        for capacity in [0, 64] {
            let (mut files, stats) = table(capacity, MINUTE);
            for pass in 0..2 {
                for (name, kind, variant) in cases {
                    let what =
                        format!("{name} {kind:?} {variant:?}, table of {capacity}, pass {pass}");
                    let j = job(dir.path(), name, kind, variant, inline_max);
                    let want = seen(exec_job(&j));
                    assert!(
                        !matches!(want, Seen::Failed(_)),
                        "{what}: fixture must load"
                    );
                    match miss(&j, &mut files) {
                        Some(got) => {
                            let held = capacity > 0 && pass == 1 && held_by_descriptor;
                            let fd = kind == JobKind::Load && (held || name == "big.bin");
                            assert_eq!(by_descriptor(&got), fd, "{what}: by descriptor");
                            assert_eq!(seen(got), want, "{what}");
                        }
                        None => assert!(!must_answer, "{what}: declined"),
                    }
                }
                if must_answer {
                    // Six loads: all remembered, and the second pass
                    // answered from what the first remembered — or,
                    // without `cachestat`, no table after the first
                    // held check.
                    let want = match (capacity, held_by_descriptor) {
                        (0, _) => (0, 0),
                        (_, true) => (6 * pass, 6),
                        (_, false) => (0, 6 * (1 - pass)),
                    };
                    assert_eq!(hits_and_held(&stats), want);
                }
            }
        }
        // Spot-check the expectations themselves, so agreement is not
        // two executors agreeing on nonsense.
        let j = job(
            dir.path(),
            "page.html",
            JobKind::Load,
            Variant::Identity,
            inline_max,
        );
        let loaded = exec_job(&j);
        assert!(!by_descriptor(&loaded), "8 KiB under 16 KiB is read");
        match seen(loaded) {
            Seen::Body(b, _, Variant::Identity, true) => assert_eq!(b, body),
            other => panic!("page.html: {other:?}"),
        }
    }

    /// What a table entry is trusted for. The name binding, for the
    /// TTL; everything else is asked of the descriptor on every use —
    /// so a rewrite, a delete or a rename-over is declined by the very
    /// next held check, which leaves nothing held, and the job behind
    /// it resolves by path.
    #[test]
    fn table_entry_is_rechecked_on_every_use_and_dropped_on_any_change() {
        let dir = TestDir::new("table-recheck");
        let p = dir.path().join("f.html");
        std::fs::write(&p, b"version one").unwrap();
        std::fs::write(dir.path().join("big.bin"), vec![1u8; 4096]).unwrap();
        if !nowait_works(&p) || !cachestat_works(&p) {
            return;
        }
        let load = |name: &str, files: &mut OpenFileTable| {
            let j = job(dir.path(), name, JobKind::Load, Variant::Identity, 1024);
            // The blocking executor first: it is the reference, and it
            // leaves every lookup (the sibling's negative one too) cached.
            let want = seen(exec_job(&j));
            (miss(&j, files).map(seen), want)
        };
        let held = |name: &str, files: &mut OpenFileTable| {
            let key = crate::cache::variant_key(&format!("/{name}"), Variant::Identity);
            files.held(&key, 1024, Instant::now()).is_some()
        };
        let (mut files, stats) = table(8, MINUTE);
        let (got, want) = load("f.html", &mut files);
        assert_eq!(got, Some(want));
        let (got, want) = load("f.html", &mut files);
        assert_eq!(got, Some(want));
        assert_eq!(hits_and_held(&stats), (1, 1));

        // Rewritten in place to another length, truncated, deleted,
        // renamed over: each is seen by the next held check, which
        // declines and forgets; the job behind it resolves by path
        // again (a deleted file's `404` is a helper's).
        let changes: [&dyn Fn(); 4] = [
            &|| std::fs::write(&p, b"version two, longer").unwrap(),
            &|| {
                File::options()
                    .write(true)
                    .open(&p)
                    .unwrap()
                    .set_len(3)
                    .unwrap()
            },
            &|| std::fs::remove_file(&p).unwrap(),
            &|| {
                std::fs::write(dir.path().join("new"), b"renamed over!").unwrap();
                std::fs::rename(dir.path().join("new"), &p).unwrap();
            },
        ];
        for (i, change) in changes.iter().enumerate() {
            let hits = hits_and_held(&stats).0;
            change();
            assert!(!held("f.html", &mut files), "change {i} must decline");
            assert_eq!(hits_and_held(&stats), (hits, 0), "change {i} left an entry");
            if !p.exists() {
                // Deleted: there is nothing to remember until it is back.
                let (got, want) = load("f.html", &mut files);
                assert_eq!((got, want), (None, Seen::Failed(io::ErrorKind::NotFound)));
                std::fs::write(&p, b"back again").unwrap();
            }
            let (got, want) = load("f.html", &mut files);
            assert_eq!(got, Some(want), "after change {i}");
            let (got, want) = load("f.html", &mut files);
            assert_eq!(got, Some(want), "after change {i}, from the table");
            assert_eq!(hits_and_held(&stats), (hits + 1, 1));
        }

        // The large tier hands out the held descriptor, after the same
        // check: a truncation shows in the very next answer's length.
        let (got, want) = load("big.bin", &mut files);
        assert_eq!(got, Some(want));
        let (got, want) = load("big.bin", &mut files);
        assert!(matches!(&want, Seen::Body(b, ..) if b.len() == 4096));
        assert_eq!(got, Some(want));
        let big = dir.path().join("big.bin");
        File::options()
            .write(true)
            .open(&big)
            .unwrap()
            .set_len(2048)
            .unwrap();
        assert!(!held("big.bin", &mut files));
        let (got, want) = load("big.bin", &mut files);
        assert!(matches!(&want, Seen::Body(b, ..) if b.len() == 2048));
        assert_eq!(got, Some(want));
    }

    /// The response head is rendered once per entry (§5.3): two held
    /// answers share it. A rewrite in place to the same length, with a
    /// new mtime, fails the next check, which drops the entry and its
    /// head; the entry resolved after it renders a head of its own,
    /// under the new validators.
    #[test]
    fn a_held_entry_renders_its_head_once() {
        let dir = TestDir::new("held-head");
        let p = dir.path().join("f.html");
        std::fs::write(&p, b"version one").unwrap();
        if !nowait_works(&p) || !cachestat_works(&p) {
            return;
        }
        let j = job(dir.path(), "f.html", JobKind::Load, Variant::Identity, 1024);
        seen(exec_job(&j));
        let (mut files, stats) = table(8, MINUTE);
        let held = |files: &mut OpenFileTable| files.held(&j.path, 1024, Instant::now());
        assert!(held(&mut files).is_none(), "nothing is held yet");
        assert!(exec_job_nowait(&j, &mut files, Instant::now()).is_some());
        let (a, b) = (held(&mut files).unwrap(), held(&mut files).unwrap());
        assert!(Arc::ptr_eq(&a.head, &b.head), "one head per entry");
        assert!(Arc::ptr_eq(&a.file, &b.file));
        assert_eq!((a.len, a.head.body.len()), (11, 0));
        assert_eq!(hits_and_held(&stats), (2, 1));

        std::fs::write(&p, b"version two").unwrap();
        let later = std::time::SystemTime::now() + Duration::from_secs(10);
        File::options()
            .write(true)
            .open(&p)
            .unwrap()
            .set_modified(later)
            .unwrap();
        assert!(held(&mut files).is_none(), "a new mtime fails the check");
        assert_eq!(hits_and_held(&stats), (2, 0));
        assert!(exec_job_nowait(&j, &mut files, Instant::now()).is_some());
        let c = held(&mut files).unwrap();
        assert!(!Arc::ptr_eq(&a.head, &c.head));
        assert_ne!(a.head.etag, c.head.etag);
        assert_ne!(a.head.mtime, c.head.mtime);
    }

    /// A load the table remembers is resolved at the clock its caller
    /// gives — a shard's, its turn's — and its TTL runs from there, not
    /// from a clock of the table's own.
    #[test]
    fn a_remembered_load_is_resolved_at_the_callers_clock() {
        let dir = TestDir::new("turn-clock");
        let p = dir.path().join("f.html");
        std::fs::write(&p, b"body").unwrap();
        if !nowait_works(&p) || !cachestat_works(&p) {
            return;
        }
        let j = job(dir.path(), "f.html", JobKind::Load, Variant::Identity, 1024);
        seen(exec_job(&j));
        let (mut files, stats) = table(8, MINUTE);
        let (turn, ttl) = (Instant::now(), MINUTE.unwrap());
        assert!(exec_job_nowait(&j, &mut files, turn).is_some());
        let just_inside = turn + ttl - Duration::from_millis(1);
        assert!(files.held(&j.path, 1024, just_inside).is_some());
        assert!(
            files.held(&j.path, 1024, turn + ttl).is_none(),
            "lapsed a TTL after the turn that resolved it"
        );
        assert_eq!(hits_and_held(&stats), (1, 0));
    }

    /// How entries leave: past the TTL an entry is resolved again
    /// rather than used; lapsed entries are closed from the LRU tail
    /// by later inserts; capacity evicts; `clear` closes everything;
    /// and below the minimum budget there is no table at all.
    #[test]
    fn table_forgets_by_ttl_capacity_and_clear() {
        let dir = TestDir::new("table-bounds");
        for i in 0..20 {
            std::fs::write(dir.path().join(format!("f{i}.html")), [i; 64]).unwrap();
        }
        let f0 = dir.path().join("f0.html");
        if !nowait_works(&f0) || !cachestat_works(&f0) {
            return;
        }
        let load = |i: usize, files: &mut OpenFileTable| {
            let name = format!("f{i}.html");
            let j = job(dir.path(), &name, JobKind::Load, Variant::Identity, 1024);
            let want = seen(exec_job(&j));
            assert_eq!(miss(&j, files).map(seen), Some(want));
        };
        // A TTL nothing survives: never a hit, and each insert finds
        // the previous entry lapsed at the tail and closes it.
        let (mut files, stats) = table(8, Some(Duration::ZERO));
        for i in [0, 0, 1, 2, 2] {
            load(i, &mut files);
            assert_eq!(hits_and_held(&stats), (0, 1));
        }
        // No TTL: trusted until something else drops it — here, the
        // capacity, least recently used first.
        let (mut files, stats) = table(8, None);
        for i in 0..20 {
            load(i, &mut files);
        }
        assert_eq!(hits_and_held(&stats), (0, 8));
        load(19, &mut files);
        load(12, &mut files);
        assert_eq!(hits_and_held(&stats), (2, 8));
        load(11, &mut files);
        assert_eq!(
            hits_and_held(&stats),
            (2, 8),
            "f11 was evicted, f13 went for it"
        );
        files.clear();
        assert_eq!(hits_and_held(&stats), (2, 0));
        load(19, &mut files);
        assert_eq!(hits_and_held(&stats), (2, 1));
        // Fewer than eight descriptors of budget: resolve by path, always.
        let (mut files, stats) = table(OpenFileTable::MIN_CAPACITY - 1, None);
        load(0, &mut files);
        load(0, &mut files);
        assert_eq!(hits_and_held(&stats), (0, 0));
    }

    /// The platform verdict, driven by hand (the step [`held`] takes
    /// when `cachestat` is refused, which a kernel that has it never
    /// shows): the table closes every descriptor, declines every later
    /// held check, and leaves the residency test answering loads by
    /// path — byte for byte what a table of capacity 0 answers — with
    /// nothing inserted.
    ///
    /// [`held`]: OpenFileTable::held
    #[test]
    fn a_table_the_platform_refused_holds_nothing_and_resolves_by_path() {
        let dir = TestDir::new("refused");
        std::fs::write(dir.path().join("a.html"), b"first page").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"gz").unwrap();
        std::fs::write(dir.path().join("b.html"), b"second page").unwrap();
        std::fs::write(dir.path().join("big.bin"), vec![5u8; 4096]).unwrap();
        if !nowait_works(&dir.path().join("a.html")) {
            return;
        }
        let jobs = [
            ("a.html", Variant::Identity),
            ("a.html", Variant::Gzip),
            ("b.html", Variant::Identity),
            ("big.bin", Variant::Identity),
        ]
        .map(|(name, variant)| job(dir.path(), name, JobKind::Load, variant, 1024));
        let (mut files, stats) = table(8, MINUTE);
        let (mut none, _) = table(0, MINUTE);
        for j in &jobs {
            seen(exec_job(j));
            assert!(exec_job_nowait(j, &mut files, Instant::now()).is_some());
        }
        assert_eq!(hits_and_held(&stats), (0, 4));
        files.abandon();
        assert_eq!(hits_and_held(&stats), (0, 0), "every descriptor closed");
        for pass in 0..2 {
            for j in &jobs {
                let what = format!("{} {:?}, pass {pass}", j.path, j.variant);
                assert!(files.held(&j.path, 1024, Instant::now()).is_none());
                let got = exec_job_nowait(j, &mut files, Instant::now()).map(seen);
                assert!(got.is_some(), "{what}: resolved by path");
                assert_eq!(
                    got,
                    exec_job_nowait(j, &mut none, Instant::now()).map(seen),
                    "{what}"
                );
                assert_eq!(got, Some(seen(exec_job(j))), "{what}");
            }
        }
        assert_eq!(hits_and_held(&stats), (0, 0), "nothing inserted");
    }

    /// Everything that is not "a regular file, here it is" is the
    /// blocking executor's business: the residency test says nothing.
    #[cfg(unix)]
    #[test]
    fn nowait_declines_whatever_is_not_a_readable_regular_file() {
        use std::os::unix::fs::PermissionsExt;
        let dir = TestDir::new("decline");
        std::fs::create_dir(dir.path().join("subdir")).unwrap();
        std::os::unix::fs::symlink(dir.path().join("nowhere"), dir.path().join("dangling"))
            .unwrap();
        std::fs::write(dir.path().join("secret.html"), b"mode 000").unwrap();
        std::fs::set_permissions(
            dir.path().join("secret.html"),
            std::fs::Permissions::from_mode(0o000),
        )
        .unwrap();
        let (mut files, stats) = table(64, MINUTE);
        for name in ["subdir", "dangling", "missing.html"] {
            for kind in [JobKind::Load, JobKind::Revalidate] {
                let j = job(dir.path(), name, kind, Variant::Identity, 1024);
                // Blocking first: a negative lookup is cached after it,
                // so the decline below is the executor's choice, not
                // merely a cold dentry cache.
                assert!(matches!(seen(exec_job(&j)), Seen::Failed(_)), "{name}");
                assert!(
                    exec_job_nowait(&j, &mut files, Instant::now()).is_none(),
                    "{name} {kind:?}"
                );
            }
        }
        assert_eq!(hits_and_held(&stats), (0, 0), "a decline left an entry");
        // Unreadable: an error for everyone but root, who reads it —
        // then both executors must read the same thing.
        let j = job(
            dir.path(),
            "secret.html",
            JobKind::Load,
            Variant::Identity,
            1024,
        );
        let want = seen(exec_job(&j));
        match exec_job_nowait(&j, &mut files, Instant::now()) {
            None => {}
            Some(got) => assert_eq!(seen(got), want),
        }
        if let Seen::Failed(kind) = want {
            assert_eq!(kind, io::ErrorKind::PermissionDenied);
            assert!(
                exec_job_nowait(&j, &mut files, Instant::now()).is_none(),
                "a 403 is the helper's to give"
            );
            // And nothing that was declined is remembered.
            assert_eq!(hits_and_held(&stats), (0, 0));
        }
        // A dynamic job is never the filesystem's.
        let j = job(
            dir.path(),
            "secret.html",
            JobKind::Dynamic,
            Variant::Identity,
            0,
        );
        assert!(exec_job_nowait(&j, &mut files, Instant::now()).is_none());
    }

    /// A FIFO with no writer blocks `File::open` forever — the trick
    /// the wedged-helper tests use. The residency test must come back
    /// at once, and with nothing: a FIFO is not answered inline.
    #[cfg(unix)]
    #[test]
    fn nowait_neither_blocks_on_nor_answers_a_fifo() {
        let dir = TestDir::new("fifo");
        let fifo = dir.path().join("wedge.fifo");
        crate::sys::mkfifo(&fifo).expect("mkfifo");
        let (tx, rx) = std::sync::mpsc::channel();
        let root = dir.path().to_path_buf();
        std::thread::spawn(move || {
            let (mut files, stats) = table(64, MINUTE);
            for kind in [JobKind::Load, JobKind::Revalidate] {
                let j = job(&root, "wedge.fifo", kind, Variant::Identity, 1024);
                let declined = exec_job_nowait(&j, &mut files, Instant::now()).is_none();
                let _ = tx.send(declined && hits_and_held(&stats) == (0, 0));
            }
        });
        for _ in 0..2 {
            let declined = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("the residency test blocked on a FIFO");
            assert!(declined, "a FIFO must be neither answered inline nor held");
        }
    }

    /// §5.7 on the held path: a held file whose pages have left
    /// memory is not sent from the loop. `cachestat` reports the pages
    /// gone, the residency test declines (a helper reads the file) and
    /// forgets the entry, and a held file still resident is answered
    /// with its descriptor. Where `cachestat` is unavailable the first
    /// held check gives the table up and the miss resolves by path,
    /// reading its bytes; where the cached-only calls are, the
    /// residency test answers nothing at all.
    #[test]
    fn a_held_file_that_left_memory_is_declined_and_a_resident_one_sent_by_descriptor() {
        let dir = TestDir::new("evicted");
        let body: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let path = |name: &str| dir.path().join(name);
        for name in ["cold.bin", "warm.bin"] {
            std::fs::write(path(name), &body).unwrap();
        }
        let load = |name: &str| {
            job(
                dir.path(),
                name,
                JobKind::Load,
                Variant::Identity,
                64 * 1024,
            )
        };
        let nowait = nowait_works(&path("warm.bin"));
        let (mut files, stats) = table(8, MINUTE);
        // Resolved by path (the blocking executor first, so every
        // lookup is cached) and remembered: both files are held.
        for name in ["cold.bin", "warm.bin"] {
            let want = seen(exec_job(&load(name)));
            let got = miss(&load(name), &mut files).map(seen);
            assert_eq!(got, nowait.then_some(want), "{name}");
        }
        assert_eq!(hits_and_held(&stats), (0, if nowait { 2 } else { 0 }));

        let cold = File::open(path("cold.bin")).unwrap();
        cold.sync_all().unwrap();
        let dropped = sys::drop_cached_pages(&cold);
        let len = body.len() as u64;
        match sys::resident(&cold, len) {
            Ok(resident) => {
                dropped.unwrap();
                assert!(!resident, "cachestat still counts cold.bin's pages");
                let warm = File::open(path("warm.bin")).unwrap();
                assert!(sys::resident(&warm, len).unwrap());
                assert!(
                    miss(&load("cold.bin"), &mut files).is_none(),
                    "a body out of memory was answered from the loop"
                );
                let got = miss(&load("warm.bin"), &mut files);
                assert_eq!(got.is_some(), nowait);
                if let Some(got) = got {
                    assert!(
                        by_descriptor(&got),
                        "a resident held file goes by descriptor"
                    );
                    assert_eq!(seen(got), seen(exec_job(&load("warm.bin"))));
                    // The decline forgot cold.bin; warm.bin was a hit.
                    assert_eq!(hits_and_held(&stats), (1, 1));
                }
            }
            Err(e) => {
                assert!(
                    sys::is_unsupported(&e) || e.kind() == io::ErrorKind::Unsupported,
                    "{e}"
                );
                // No `cachestat`: the held check gives the table up,
                // and the miss resolves by path, its `RWF_NOWAIT` read
                // the residency test.
                let got = miss(&load("warm.bin"), &mut files);
                assert_eq!(got.is_some(), nowait);
                if let Some(got) = got {
                    assert!(
                        !by_descriptor(&got),
                        "without cachestat a miss resolves by path and reads"
                    );
                    assert_eq!(seen(got), seen(exec_job(&load("warm.bin"))));
                    assert_eq!(hits_and_held(&stats), (0, 0), "no table left");
                }
            }
        }
    }

    /// A file that changes size between the `fstat` and the read: the
    /// `len + 1` read sees it either way. The blocking executor reads
    /// on to the real end of file; the residency test declines.
    #[test]
    fn size_change_after_fstat_is_read_through_or_declined() {
        let dir = TestDir::new("resize");
        let p = dir.path().join("f.bin");
        let actual: Vec<u8> = (0..100u8).collect();
        std::fs::write(&p, &actual).unwrap();
        // `fstat` said 50 (the file has since grown), then 150 (it has
        // since been truncated), then the truth.
        for stale_len in [50usize, 150, 100] {
            let body = read_body(&File::open(&p).unwrap(), stale_len).unwrap();
            assert_eq!(body, actual, "fstat said {stale_len}");
        }
        if !nowait_works(&p) {
            return;
        }
        let f = sys::open_cached(&p, false).unwrap();
        for stale_len in [50usize, 150] {
            assert!(
                read_body_nowait(&f, stale_len).is_err(),
                "fstat said {stale_len}: must decline"
            );
        }
        assert_eq!(read_body_nowait(&f, 100).unwrap(), actual);
    }

    #[test]
    fn missing_identity_fails_even_with_sibling_present() {
        let dir = TestDir::new("ghost");
        std::fs::write(dir.path().join("ghost.html.gz"), b"gz").unwrap();
        let err = exec_load(&job(
            dir.path(),
            "ghost.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
