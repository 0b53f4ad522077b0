//! The **shared real-filesystem job executor**: one mechanical
//! implementation of [`HelperJob`] execution used by every real
//! driver — the AMPED helper pool ([`crate::server`]) and the
//! thread-per-connection server ([`crate::mt`]) — so the two can never
//! drift on tier selection, variant negotiation, or TOCTOU hygiene.
//! The deterministic sim implements the same mechanics against its
//! in-memory filesystem.
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
//! descriptor. The event loop's [`OpenFileTable`] memoises the first
//! half, and the rule above then reads: **the name binding — what
//! `open` decided, path lookup and permission check both — is trusted
//! for `cache_revalidate_ttl`; the regular-file check, the link count,
//! the length, the mtime and the bytes come from the open descriptor
//! every time.** That is what a content-cache hit already assumes
//! about a name, and no more.
//!
//! There are two executors over those rules. [`exec_job`] blocks for
//! as long as the disk takes and always answers — success or the error
//! the client will see; it runs on helper threads (and MT connection
//! threads) and resolves every job by path. [`exec_job_nowait`] is the
//! event loop's **residency test**: it never waits, and either returns
//! exactly what `exec_job` would for a regular file or declines,
//! leaving the job to a helper.

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flash_core::caches::LruCache;

use crate::cache::Variant;
use crate::conn::{DoneData, FileData, HelperJob, JobKind, LoadResult, ShardStats};
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
    is_file: |p| Ok(sys::open_cached(p, true)?.metadata()?.is_file()),
    absent: |e| e.kind() == io::ErrorKind::NotFound,
    read: read_body_nowait,
};

/// The regular-file check on an **open** descriptor (`fstat` — no
/// second path lookup): refuses directories, FIFOs and the rest;
/// returns the descriptor with its length and mtime.
fn regular(file: File) -> io::Result<(File, u64, Option<i64>)> {
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "not a regular file",
        ));
    }
    let len = meta.len();
    let mtime = unix_mtime(&meta);
    Ok((file, len, mtime))
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
fn tiered(
    fs: &Access,
    found: &Resolved,
    inline_max: u64,
    resolved_at: Option<Instant>,
) -> io::Result<LoadResult<Arc<File>>> {
    let mtime = found.mtime;
    let data = if found.len > inline_max {
        FileData::Fd {
            file: Arc::clone(&found.file),
            len: found.len,
            mtime,
        }
    } else {
        let body = (fs.read)(&found.file, found.len as usize)?;
        FileData::Bytes { body, mtime }
    };
    Ok(LoadResult {
        data,
        variant: found.variant,
        has_gzip: found.has_gzip,
        resolved_at,
    })
}

/// Executes a [`JobKind::Load`] — `resolve`, then `tiered` — and
/// reports which representation actually loaded.
pub fn exec_load(job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
    load(&BLOCKING, job)
}

fn load(fs: &Access, job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
    tiered(fs, &resolve(fs, job)?, job.inline_max, None)
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

/// One shard's **open-file table**: `resolve` memoised for the
/// residency test, so a content-cache miss on a file the shard has
/// served before costs an `fstat` and a read of a descriptor it
/// already holds instead of `openat2`, `fstat`, the sibling probe, the
/// read and `close` — the paper's pathname-translation cache (§5.2),
/// holding descriptors where Flash held `mmap`s.
///
/// An entry-count-bounded LRU keyed by the job's variant key, owned by
/// the shard's port and touched by its event-loop thread only. What an
/// entry is trusted for is the module's TOCTOU rule: the name binding
/// for `ttl` since it was resolved by path (`None`: until something
/// else drops it), everything else re-read from the descriptor on
/// every use (`OpenFile::unchanged`). Any disagreement, error or
/// would-block drops the entry and declines the job; the helper that
/// takes it resolves by path. Two things only the TTL catches, as on
/// a content-cache hit: a `chmod` that would refuse the open today,
/// and a rename-over of a file that keeps another hard link (its link
/// count never reaches zero). Entries leave by LRU eviction at
/// capacity, by [`Self::clear`] (docroot reload, descriptor
/// exhaustion, shard exit), and — so that a file nobody asks for again
/// does not pin a deleted inode's blocks until eviction — from the LRU
/// tail on every insert once their TTL has lapsed.
///
/// The capacity is the caller's descriptor budget; below
/// [`Self::MIN_CAPACITY`] there is no table and every load resolves by
/// path. Where the cached-only calls are unavailable nothing is ever
/// inserted.
pub struct OpenFileTable {
    lru: Option<LruCache<Arc<str>, OpenFile>>,
    ttl: Option<Duration>,
    stats: Arc<ShardStats>,
}

/// One table entry: what [`resolve`] found, and when.
struct OpenFile {
    found: Resolved,
    resolved_at: Instant,
}

impl OpenFile {
    fn trusted(&self, ttl: Option<Duration>, now: Instant) -> bool {
        ttl.is_none_or(|t| now.saturating_duration_since(self.resolved_at) < t)
    }

    /// The per-use check: the descriptor must still be a regular file
    /// with a name (`st_nlink > 0` — an unlinked or renamed-over file
    /// is dropped at once, so a delete still `404`s and a `mv new old`
    /// shows on the very next request) and the length and mtime it had
    /// when resolved. The bytes' own check is [`tiered`]'s `len + 1`
    /// read.
    fn unchanged(&self) -> io::Result<()> {
        let meta = self.found.file.metadata()?;
        let same = meta.is_file()
            && meta.nlink() > 0
            && meta.len() == self.found.len
            && unix_mtime(&meta) == self.found.mtime;
        if same {
            Ok(())
        } else {
            Err(io::Error::other("open file changed since it was resolved"))
        }
    }
}

impl OpenFileTable {
    /// Smallest descriptor budget worth a table.
    pub const MIN_CAPACITY: usize = 8;

    /// A table holding at most `capacity` descriptors, counting into
    /// `stats` (`open_file_hits`, `open_files`).
    pub fn new(capacity: usize, ttl: Option<Duration>, stats: Arc<ShardStats>) -> Self {
        OpenFileTable {
            lru: (capacity >= Self::MIN_CAPACITY).then(|| LruCache::new(capacity)),
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

    /// A [`JobKind::Load`] through the table: from a trusted entry if
    /// there is one, else resolved by path and remembered.
    fn answer(&mut self, job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
        let Some(lru) = &mut self.lru else {
            return load(&NOWAIT, job);
        };
        let (key, now) = (job.path.as_str(), Instant::now());
        let answer = match lru.get(key) {
            Some(held) if held.trusted(self.ttl, now) => {
                let at = Some(held.resolved_at);
                let answer = held
                    .unchanged()
                    .and_then(|()| tiered(&NOWAIT, &held.found, job.inline_max, at));
                if answer.is_ok() {
                    self.stats.open_file_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Failed its per-use check: drop it and decline.
                    lru.remove(key);
                }
                answer
            }
            // Not held, or held past its TTL: resolve by path, and
            // remember the binding once the bytes have come too.
            _ => {
                lru.remove(key);
                resolve(&NOWAIT, job).and_then(|found| {
                    let answer = tiered(&NOWAIT, &found, job.inline_max, Some(now))?;
                    while lru
                        .peek_lru()
                        .is_some_and(|(_, idle)| !idle.trusted(self.ttl, now))
                    {
                        lru.pop_lru();
                    }
                    let held = OpenFile {
                        found,
                        resolved_at: now,
                    };
                    lru.insert(Arc::from(key), held);
                    Ok(answer)
                })
            }
        };
        self.stats
            .open_files
            .store(lru.len() as u64, Ordering::Relaxed);
        answer
    }
}

/// The **residency test**: executes a [`JobKind::Load`] or
/// [`JobKind::Revalidate`] job only if that takes no waiting — path
/// lookups answered by the dentry cache ([`sys::open_cached`]) or by
/// `table`, bytes by the page cache ([`sys::pread_nowait`]). `Some`
/// carries exactly the payload [`exec_job`] would produce; `None`
/// declines, and the caller hands the job to a helper as if this had
/// never run.
///
/// It declines whenever the answer is not "a regular file, here it
/// is": a lookup or read that would touch the disk (`EAGAIN`), a read
/// that came back short or long (the file changed size after the
/// `fstat`), a table entry that fails its per-use check, anything that
/// is not a regular file (a FIFO opens without blocking, is recognised
/// by `fstat`, and is dropped — a writer blocked opening its other end
/// does see that reader come and go), and **every error** —
/// `404`/`403`/`500` are decided by the blocking executor alone, so
/// there is one source of error semantics. Never [`JobKind::Dynamic`].
pub fn exec_job_nowait(job: &HelperJob, table: &mut OpenFileTable) -> Option<DoneData<Arc<File>>> {
    if NOWAIT_OFF.load(Ordering::Relaxed) {
        return None;
    }
    let done = match job.kind {
        JobKind::Load => table.answer(job).map(|r| DoneData::Loaded(Ok(r))),
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
    /// comparing the two executors. A descriptor is read to its end —
    /// by position, as `sendfile` reads it: the open-file table hands
    /// the same descriptor out again and again, so its cursor is
    /// nobody's.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Bytes(Vec<u8>, Option<i64>, Variant, bool),
        Fd(Vec<u8>, u64, Option<i64>, Variant, bool),
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
                FileData::Bytes { body, mtime } => Seen::Bytes(body, mtime, variant, has_gzip),
                FileData::Fd { file, len, mtime } => {
                    use std::os::unix::fs::FileExt;
                    let mut all = vec![0u8; len as usize + 1];
                    let n = file.read_at(&mut all, 0).unwrap();
                    all.truncate(n);
                    Seen::Fd(all, len, mtime, variant, has_gzip)
                }
            },
            DoneData::Stat(Ok((len, mtime))) => Seen::Stat(len, mtime),
            DoneData::Loaded(Err(e)) | DoneData::Stat(Err(e)) => Seen::Failed(e.kind()),
            DoneData::Dynamic(_) => unreachable!("no dynamic jobs here"),
        }
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

    fn hits_and_held(stats: &ShardStats) -> (u64, u64) {
        (
            stats.open_file_hits.load(Ordering::Relaxed),
            stats.open_files.load(Ordering::Relaxed),
        )
    }

    /// The differential contract: over a docroot of regular files —
    /// both tiers, empty, with and without a `.gz` sibling, both
    /// variants, both job kinds — the residency test's answer,
    /// whenever it gives one, is the blocking executor's answer. Run
    /// after the blocking executor has touched every path (so lookups
    /// and bytes are resident), it must give one wherever the kernel
    /// and filesystem can — without a table, through an empty table,
    /// and a second time from the entries the first pass left.
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
                    match exec_job_nowait(&j, &mut files) {
                        Some(got) => assert_eq!(seen(got), want, "{what}"),
                        None => assert!(!must_answer, "{what}: declined"),
                    }
                }
                if must_answer {
                    // Six loads: all remembered, and the second pass
                    // answered from what the first remembered.
                    let loads = if capacity == 0 { 0 } else { 6 };
                    assert_eq!(hits_and_held(&stats), (loads * pass, loads));
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
        match seen(exec_job(&j)) {
            Seen::Bytes(b, _, Variant::Identity, true) => assert_eq!(b, body),
            other => panic!("page.html: {other:?}"),
        }
    }

    /// What a table entry is trusted for. The name binding, for the
    /// TTL; everything else is asked of the descriptor on every use —
    /// so a rewrite, a delete or a rename-over declines the very next
    /// job (the helper then resolves by path) and leaves nothing held.
    #[test]
    fn table_entry_is_rechecked_on_every_use_and_dropped_on_any_change() {
        let dir = TestDir::new("table-recheck");
        let p = dir.path().join("f.html");
        std::fs::write(&p, b"version one").unwrap();
        std::fs::write(dir.path().join("big.bin"), vec![1u8; 4096]).unwrap();
        if !nowait_works(&p) {
            return;
        }
        let load = |name: &str, files: &mut OpenFileTable| {
            let j = job(dir.path(), name, JobKind::Load, Variant::Identity, 1024);
            // The blocking executor first: it is the reference, and it
            // leaves every lookup (the sibling's negative one too) cached.
            let want = seen(exec_job(&j));
            (exec_job_nowait(&j, files).map(seen), want)
        };
        let (mut files, stats) = table(8, MINUTE);
        let (got, want) = load("f.html", &mut files);
        assert_eq!(got, Some(want));
        let (got, want) = load("f.html", &mut files);
        assert_eq!(got, Some(want));
        assert_eq!(hits_and_held(&stats), (1, 1));

        // Rewritten in place to another length, truncated, deleted,
        // renamed over: each is seen by the next use, which declines
        // and forgets; the use after that resolves by path again.
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
            let (got, want) = load("f.html", &mut files);
            assert_eq!(got, None, "change {i} must decline");
            assert_eq!(hits_and_held(&stats), (hits, 0), "change {i} left an entry");
            if matches!(want, Seen::Failed(_)) {
                // Deleted: there is nothing to remember until it is back.
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
        assert!(matches!(want, Seen::Fd(_, 4096, ..)));
        assert_eq!(got, Some(want));
        let big = dir.path().join("big.bin");
        File::options()
            .write(true)
            .open(&big)
            .unwrap()
            .set_len(2048)
            .unwrap();
        let (got, want) = load("big.bin", &mut files);
        assert!(matches!(want, Seen::Fd(_, 2048, ..)));
        assert_eq!(got, None);
        let (got, _) = load("big.bin", &mut files);
        assert_eq!(got, Some(want));
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
        if !nowait_works(&dir.path().join("f0.html")) {
            return;
        }
        let load = |i: usize, files: &mut OpenFileTable| {
            let name = format!("f{i}.html");
            let j = job(dir.path(), &name, JobKind::Load, Variant::Identity, 1024);
            let want = seen(exec_job(&j));
            assert_eq!(exec_job_nowait(&j, files).map(seen), Some(want));
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
                assert!(exec_job_nowait(&j, &mut files).is_none(), "{name} {kind:?}");
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
        match exec_job_nowait(&j, &mut files) {
            None => {}
            Some(got) => assert_eq!(seen(got), want),
        }
        if let Seen::Failed(kind) = want {
            assert_eq!(kind, io::ErrorKind::PermissionDenied);
            assert!(
                exec_job_nowait(&j, &mut files).is_none(),
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
        assert!(exec_job_nowait(&j, &mut files).is_none());
    }

    /// A FIFO with no writer blocks `File::open` forever — the trick
    /// the wedged-helper tests use. The residency test must come back
    /// at once, and with nothing: a FIFO is not answered inline.
    #[cfg(unix)]
    #[test]
    fn nowait_neither_blocks_on_nor_answers_a_fifo() {
        let dir = TestDir::new("fifo");
        let fifo = dir.path().join("wedge.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        if !made.is_ok_and(|s| s.success()) {
            eprintln!("mkfifo(1) unavailable; skipping");
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let root = dir.path().to_path_buf();
        std::thread::spawn(move || {
            let (mut files, stats) = table(64, MINUTE);
            for kind in [JobKind::Load, JobKind::Revalidate] {
                let j = job(&root, "wedge.fifo", kind, Variant::Identity, 1024);
                let declined = exec_job_nowait(&j, &mut files).is_none();
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
