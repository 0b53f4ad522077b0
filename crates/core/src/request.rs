//! The request path every modelled architecture shares (§2's basic
//! steps over the §5.2–5.4 caches).
//!
//! The event loop ([`crate::eventloop`]) and the blocking worker
//! ([`crate::seq`]) keep only their I/O discipline — which step may
//! block, and who waits for it — and call [`Steps`] for everything a
//! request does to the caches: the preamble, the pathname lookup and
//! the insert after a translation, the header lookup or generation, the
//! mapped-file chunk and the end of a response. So the §6 comparisons
//! compare concurrency architectures, not copies of the request path.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flash_simos::kernel::{Kernel, SendSrc};
use flash_simos::syscall::Blocking;
use flash_simos::{ConnId, FileId};

use crate::caches::{Caches, HeaderEntry, PathEntry, CHUNK_BYTES};
use crate::config::ServerConfig;
use crate::site::Site;

/// Token flag requesting a persistent (keep-alive) connection.
pub const KEEP_ALIVE_BIT: u64 = 1 << 63;

/// The request a connection is serving.
#[derive(Debug, Default)]
pub(crate) struct Request {
    /// The requested file's token, without [`KEEP_ALIVE_BIT`].
    pub(crate) token: u64,
    keep_alive: bool,
    fid: Option<FileId>,
    /// Body bytes of the response.
    pub(crate) size: u64,
    hdr_left: u64,
    aligned: bool,
    /// Body bytes already written.
    pub(crate) offset: u64,
    /// Requests pipelined behind this one on a persistent connection.
    pub(crate) pending_tokens: VecDeque<u64>,
}

impl Request {
    /// The file and length of the next body chunk (at most
    /// [`CHUNK_BYTES`]), or `None` once only header bytes are left.
    pub(crate) fn chunk(&self) -> Option<(FileId, u64)> {
        let chunk = self.size.saturating_sub(self.offset).min(CHUNK_BYTES);
        self.fid.filter(|_| chunk > 0).map(|fid| (fid, chunk))
    }

    /// Writes the header bytes still unsent, then `body`.
    pub(crate) fn send(&self, k: &mut Kernel, conn: ConnId, body: SendSrc, blocking: Blocking) {
        k.sys_send(conn, self.hdr_left, body, self.aligned, blocking);
    }
}

/// What a connection does once a write completes.
pub(crate) enum AfterWrite {
    /// Send the rest of the response.
    Send,
    /// The response is done: begin the request pipelined behind it.
    Next(u64),
    /// The response is done: read the next request on the persistent
    /// connection.
    Read,
    /// The response is done: close the connection.
    Close,
}

/// One server's side of the request path: its configuration, the site
/// it serves and its cache set (private to an MP process or an event
/// process, shared by MT threads).
pub(crate) struct Steps {
    pub(crate) cfg: Rc<ServerConfig>,
    pub(crate) site: Rc<Site>,
    pub(crate) caches: Rc<RefCell<Caches>>,
}

impl Steps {
    /// The preamble of a parsed request: charges its parse and
    /// bookkeeping CPU, decodes [`KEEP_ALIVE_BIT`] (clients set it to
    /// ask for a persistent connection; the paper uses them in the WAN
    /// experiment only) and resets the response state.
    pub(crate) fn begin(&self, k: &mut Kernel, req: &mut Request, token: u64) {
        k.cpu(self.cfg.fast_path_user_ns());
        req.keep_alive = token & KEEP_ALIVE_BIT != 0;
        req.token = token & !KEEP_ALIVE_BIT;
        req.offset = 0;
        req.hdr_left = 0;
    }

    /// §5.2: the cached translation of the request's name, counting the
    /// hit or miss; `None` (a miss, or no cache) needs a translation.
    pub(crate) fn lookup(&self, req: &Request) -> Option<PathEntry> {
        let mut caches = self.caches.borrow_mut();
        let Caches { path, stats, .. } = &mut *caches;
        let hit = path.as_mut()?.get(&req.token).copied();
        if hit.is_some() {
            stats.path_hits += 1;
        } else {
            stats.path_misses += 1;
        }
        hit
    }

    /// §5.2: a finished translation of the request's name, recorded in
    /// the cache.
    pub(crate) fn translated(&self, req: &Request) -> PathEntry {
        let f = self.site.file(req.token);
        let entry = PathEntry {
            fid: f.fid,
            size: f.size,
        };
        if let Some(cache) = self.caches.borrow_mut().path.as_mut() {
            cache.insert(req.token, entry);
        }
        entry
    }

    /// §5.3: fills the response header from the header cache, or
    /// generates it (charging its CPU) and caches it.
    pub(crate) fn respond(&self, k: &mut Kernel, req: &mut Request, file: PathEntry) {
        let f = self.site.file(req.token);
        let aligned = self.cfg.aligned_headers;
        let fresh = HeaderEntry {
            len: if aligned {
                f.hdr_len_aligned
            } else {
                f.hdr_len_raw
            },
            aligned,
        };
        let key = (req.token, req.keep_alive);
        let mut caches = self.caches.borrow_mut();
        let Caches { header, stats, .. } = &mut *caches;
        let cached = match header.as_mut() {
            Some(cache) => match cache.get(&key) {
                Some(e) => {
                    stats.header_hits += 1;
                    Some(*e)
                }
                None => {
                    stats.header_misses += 1;
                    cache.insert(key, fresh);
                    None
                }
            },
            None => None,
        };
        let header = cached.unwrap_or_else(|| {
            k.cpu(self.cfg.header_gen_ns);
            fresh
        });
        req.fid = Some(file.fid);
        req.size = file.size;
        req.hdr_left = header.len;
        req.aligned = header.aligned;
        req.offset = 0;
    }

    /// §5.7's fallback residency test: whether the mapped-file cache
    /// holds the chunk at `offset` of `fid` (a prediction of the page
    /// cache; it costs no syscall but can be wrong).
    pub(crate) fn predicts_resident(&self, fid: FileId, offset: u64) -> bool {
        let mut caches = self.caches.borrow_mut();
        caches.mmap.as_mut().is_some_and(|m| m.hit(fid, offset))
    }

    /// §5.4: maps the request's next `chunk` of `fid` through the
    /// mapped-file cache, charging the `mmap` of a miss and the lazy
    /// `munmap`s it evicts (or both, around every send, with no
    /// cache), and returns it as the body of the next send.
    pub(crate) fn map_chunk(
        &self,
        k: &mut Kernel,
        req: &Request,
        fid: FileId,
        chunk: u64,
    ) -> SendSrc {
        let (mmap_ns, munmap_ns) = (k.cfg.os.mmap_ns, k.cfg.os.munmap_ns);
        let mut caches = self.caches.borrow_mut();
        let Caches { mmap, stats, .. } = &mut *caches;
        match mmap.as_mut() {
            Some(mc) => {
                if mc.hit(fid, req.offset) {
                    stats.mmap_hits += 1;
                } else {
                    let evicted = u64::from(mc.map(fid, req.offset, req.size));
                    stats.mmap_misses += 1;
                    stats.unmaps += evicted;
                    k.cpu(mmap_ns + evicted * munmap_ns);
                }
            }
            // No cache: map and lazily unmap around every send.
            None => k.cpu(mmap_ns + munmap_ns),
        }
        SendSrc::File {
            file: fid,
            offset: req.offset,
            len: chunk,
        }
    }

    /// Accounts a completed write of `hdr` header and `body` body
    /// bytes. At the end of the response it marks the boundary, counts
    /// the request and says how the connection goes on.
    pub(crate) fn written(
        &self,
        k: &mut Kernel,
        conn: ConnId,
        req: &mut Request,
        hdr: u64,
        body: u64,
    ) -> AfterWrite {
        req.hdr_left -= hdr;
        req.offset += body;
        if req.hdr_left > 0 || req.offset < req.size {
            return AfterWrite::Send;
        }
        k.mark_response_boundary(conn);
        self.caches.borrow_mut().stats.requests_done += 1;
        if !req.keep_alive {
            AfterWrite::Close
        } else if let Some(token) = req.pending_tokens.pop_front() {
            AfterWrite::Next(token)
        } else {
            AfterWrite::Read
        }
    }
}
