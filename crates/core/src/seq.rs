//! The sequential blocking worker: MP and MT servers (§3.1, §3.2).
//!
//! Each worker executes the basic request-processing steps (§2) in order
//! with blocking system calls, handling one request at a time. Deployed
//! as N full processes it is the MP architecture (Flash-MP, Apache); as N
//! kernel threads sharing one cache set it is the MT architecture
//! (Flash-MT). The OS overlaps disk, CPU and network by switching among
//! workers — at context-switch and memory cost.
//!
//! The Apache-like baseline runs the same worker with every cache
//! disabled and the `read()`+copy (non-mmap) send path.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use flash_simos::kernel::{Kernel, SendSrc};
use flash_simos::syscall::{Blocking, Completion};
use flash_simos::{ConnId, FileId, ListenId, Pid, ProcessLogic};

use crate::caches::{Caches, HeaderEntry, PathEntry, CHUNK_BYTES};
use crate::config::ServerConfig;
use crate::eventloop::KEEP_ALIVE_BIT;
use crate::site::{FileKind, Site};

/// Worker state across blocking syscalls.
#[derive(Debug)]
enum SeqPhase {
    /// Blocked in `accept`.
    Accepting,
    /// Blocked reading a request.
    Reading(ConnId),
    /// Blocked in `stat` (pathname translation).
    Translating(ConnId),
    /// Blocked in `read(2)` filling the copy buffer (non-mmap path).
    FillingBuffer(ConnId),
    /// Blocked in (or about to retry) `writev`.
    Sending(ConnId),
    /// Blocked in `close`.
    Closing(ConnId),
}

/// Per-request scratch (the worker serves one request at a time).
#[derive(Debug, Default)]
struct SeqCtx {
    token: u64,
    keep_alive: bool,
    fid: Option<FileId>,
    size: u64,
    hdr_left: u64,
    aligned: bool,
    offset: u64,
    /// Bytes already `read()` into the user buffer (non-mmap path).
    buffered: u64,
    pending_tokens: VecDeque<u64>,
}

/// One sequential worker (an MP process or an MT thread).
pub struct SeqWorker {
    cfg: Rc<ServerConfig>,
    site: Rc<Site>,
    listen: ListenId,
    /// Private caches (MP) or the shared cache set (MT).
    caches: Rc<RefCell<Caches>>,
    phase: SeqPhase,
    ctx: SeqCtx,
}

impl SeqWorker {
    /// Creates a worker; for MT all workers share one `caches`.
    pub fn new(
        cfg: Rc<ServerConfig>,
        site: Rc<Site>,
        listen: ListenId,
        caches: Rc<RefCell<Caches>>,
    ) -> Self {
        SeqWorker {
            cfg,
            site,
            listen,
            caches,
            phase: SeqPhase::Accepting,
            ctx: SeqCtx::default(),
        }
    }

    /// Lock cost for one shared-cache access (MT only; 0 elsewhere).
    fn lock(&self, k: &mut Kernel) {
        if self.cfg.lock_ns > 0 {
            k.cpu(self.cfg.lock_ns);
        }
    }

    /// Starts a parsed request; returns the next phase after issuing the
    /// appropriate syscall.
    fn begin_request(&mut self, k: &mut Kernel, conn: ConnId, token: u64) -> SeqPhase {
        k.cpu(self.cfg.parse_ns + self.cfg.request_user_ns + self.cfg.extra_request_ns);
        let keep_alive = token & KEEP_ALIVE_BIT != 0;
        let token = token & !KEEP_ALIVE_BIT;
        let f = self.site.file(token);
        self.ctx.token = token;
        self.ctx.keep_alive = keep_alive;
        self.ctx.offset = 0;
        self.ctx.buffered = 0;
        if let FileKind::Cgi { .. } = f.kind {
            // Sequential workers have no CGI plumbing in this build; they
            // answer with a fixed-size error page (the paper's evaluation
            // is static-only for MP/MT).
            self.caches.borrow_mut().stats.cgi_requests += 1;
            self.ctx.fid = None;
            self.ctx.size = 512;
            self.ctx.hdr_left = 160;
            self.ctx.aligned = self.cfg.aligned_headers;
            k.cpu(self.cfg.header_gen_ns);
            return self.send_step(k, conn);
        }
        self.lock(k);
        let hit = {
            let mut caches = self.caches.borrow_mut();
            match caches.path.as_mut() {
                Some(cache) => {
                    let hit = cache.get(&token).cloned();
                    if hit.is_some() {
                        caches.stats.path_hits += 1;
                    } else {
                        caches.stats.path_misses += 1;
                    }
                    hit
                }
                None => None,
            }
        };
        match hit {
            Some(entry) => {
                self.setup_response(k, entry.fid, entry.size);
                self.send_step(k, conn)
            }
            None => {
                // Blocking translation: only this worker stalls on a
                // metadata miss.
                k.sys_stat(f.fid.expect("static file"));
                SeqPhase::Translating(conn)
            }
        }
    }

    fn setup_response(&mut self, k: &mut Kernel, fid: FileId, size: u64) {
        let f = self.site.file(self.ctx.token);
        let aligned = self.cfg.aligned_headers;
        let len = if aligned {
            f.hdr_len_aligned
        } else {
            f.hdr_len_raw
        };
        self.lock(k);
        let key = (self.ctx.token, self.ctx.keep_alive);
        let entry = {
            let mut caches = self.caches.borrow_mut();
            let Caches { header, stats, .. } = &mut *caches;
            match header.as_mut() {
                Some(cache) => match cache.get(&key) {
                    Some(e) => {
                        stats.header_hits += 1;
                        *e
                    }
                    None => {
                        stats.header_misses += 1;
                        k.cpu(self.cfg.header_gen_ns);
                        let e = HeaderEntry { len, aligned };
                        cache.insert(key, e);
                        e
                    }
                },
                None => {
                    k.cpu(self.cfg.header_gen_ns);
                    HeaderEntry { len, aligned }
                }
            }
        };
        self.ctx.fid = Some(fid);
        self.ctx.size = size;
        self.ctx.hdr_left = entry.len;
        self.ctx.aligned = entry.aligned;
    }

    /// Issues the next step of the response: a buffer fill (`read(2)`
    /// path), or a blocking `writev`. Returns the phase to wait in.
    fn send_step(&mut self, k: &mut Kernel, conn: ConnId) -> SeqPhase {
        let remaining = self.ctx.size - self.ctx.offset.min(self.ctx.size);
        let chunk = remaining.min(CHUNK_BYTES);
        let Some(fid) = self.ctx.fid else {
            // CGI error page / memory-backed body.
            k.sys_send(
                conn,
                self.ctx.hdr_left,
                SendSrc::Mem { len: chunk },
                self.ctx.aligned,
                Blocking::Yes,
            );
            return SeqPhase::Sending(conn);
        };
        if chunk == 0 {
            // Only header bytes left.
            k.sys_send(
                conn,
                self.ctx.hdr_left,
                SendSrc::Mem { len: 0 },
                self.ctx.aligned,
                Blocking::Yes,
            );
            return SeqPhase::Sending(conn);
        }
        if !self.cfg.use_mmap {
            // Apache path: read() into a user buffer (may block on disk),
            // then write from memory.
            if self.ctx.buffered == 0 {
                k.sys_file_read(fid, self.ctx.offset, chunk, true);
                return SeqPhase::FillingBuffer(conn);
            }
            let n = self.ctx.buffered.min(chunk);
            k.sys_send(
                conn,
                self.ctx.hdr_left,
                SendSrc::Mem { len: n },
                self.ctx.aligned,
                Blocking::Yes,
            );
            return SeqPhase::Sending(conn);
        }
        // mmap path with the §5.4 chunk cache; the writev may block on a
        // page fault — acceptable here, only this worker stalls.
        let os_mmap = k.cfg.os.mmap_ns;
        let os_munmap = k.cfg.os.munmap_ns;
        self.lock(k);
        {
            let mut caches = self.caches.borrow_mut();
            match caches.mmap.as_mut() {
                Some(mc) => {
                    if mc.hit(fid, self.ctx.offset) {
                        caches.stats.mmap_hits += 1;
                    } else {
                        let evicted = mc.map(fid, self.ctx.offset, self.ctx.size);
                        caches.stats.mmap_misses += 1;
                        caches.stats.unmaps += u64::from(evicted);
                        k.cpu(os_mmap + u64::from(evicted) * os_munmap);
                    }
                }
                None => k.cpu(os_mmap + os_munmap),
            }
        }
        k.sys_send(
            conn,
            self.ctx.hdr_left,
            SendSrc::File {
                file: fid,
                offset: self.ctx.offset,
                len: chunk,
            },
            self.ctx.aligned,
            Blocking::Yes,
        );
        SeqPhase::Sending(conn)
    }

    /// A response is fully sent: log it and move on.
    fn finish_response(&mut self, k: &mut Kernel, conn: ConnId) -> SeqPhase {
        k.mark_response_boundary(conn);
        self.caches.borrow_mut().stats.requests_done += 1;
        if self.ctx.keep_alive {
            if let Some(t) = self.ctx.pending_tokens.pop_front() {
                return self.begin_request(k, conn, t);
            }
            k.sys_conn_read(conn, Blocking::Yes);
            SeqPhase::Reading(conn)
        } else {
            k.sys_close(conn);
            SeqPhase::Closing(conn)
        }
    }
}

impl ProcessLogic for SeqWorker {
    fn on_run(&mut self, _pid: Pid, k: &mut Kernel, completion: Completion) {
        self.phase = match (&self.phase, completion) {
            // Start of life, or back from a close: accept the next
            // connection (blocking).
            (SeqPhase::Accepting, Completion::Accepted(conn)) => {
                k.sys_conn_read(conn, Blocking::Yes);
                SeqPhase::Reading(conn)
            }
            (SeqPhase::Accepting, _) => {
                k.sys_accept(self.listen, Blocking::Yes);
                SeqPhase::Accepting
            }
            (SeqPhase::Reading(conn), Completion::ConnRead { bytes, tokens, .. }) => {
                let conn = *conn;
                if bytes == 0 {
                    // Peer closed (persistent connection ended).
                    k.sys_close(conn);
                    SeqPhase::Closing(conn)
                } else if tokens.is_empty() {
                    // Partial request: keep reading.
                    k.sys_conn_read(conn, Blocking::Yes);
                    SeqPhase::Reading(conn)
                } else {
                    self.ctx.pending_tokens.extend(tokens);
                    let t = self.ctx.pending_tokens.pop_front().expect("nonempty");
                    self.begin_request(k, conn, t)
                }
            }
            (SeqPhase::Translating(conn), Completion::Stated { file }) => {
                let conn = *conn;
                let size = self.site.file(self.ctx.token).size;
                let fid = file;
                self.lock(k);
                {
                    let mut caches = self.caches.borrow_mut();
                    if let Some(cache) = caches.path.as_mut() {
                        cache.insert(self.ctx.token, PathEntry { fid, size });
                    }
                }
                self.setup_response(k, fid, size);
                self.send_step(k, conn)
            }
            (SeqPhase::FillingBuffer(conn), Completion::FileRead { bytes, .. }) => {
                let conn = *conn;
                self.ctx.buffered = bytes;
                self.send_step(k, conn)
            }
            (
                SeqPhase::Sending(conn),
                Completion::Written {
                    hdr_bytes,
                    body_bytes,
                    ..
                },
            ) => {
                let conn = *conn;
                self.ctx.hdr_left -= hdr_bytes;
                self.ctx.offset += body_bytes;
                if self.ctx.buffered > 0 {
                    self.ctx.buffered -= body_bytes.min(self.ctx.buffered);
                }
                if self.ctx.hdr_left == 0 && self.ctx.offset >= self.ctx.size {
                    self.finish_response(k, conn)
                } else {
                    self.send_step(k, conn)
                }
            }
            // A blocking write was parked on a full buffer and woken.
            (SeqPhase::Sending(conn), Completion::WouldBlock) => {
                let conn = *conn;
                self.send_step(k, conn)
            }
            (SeqPhase::Closing(conn), Completion::Closed(closed)) => {
                debug_assert_eq!(*conn, closed, "close completion for the wrong socket");
                self.ctx = SeqCtx::default();
                k.sys_accept(self.listen, Blocking::Yes);
                SeqPhase::Accepting
            }
            (phase, completion) => {
                panic!("SeqWorker: unexpected completion {completion:?} in phase {phase:?}")
            }
        };
    }
}
