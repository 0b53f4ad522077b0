//! The event-driven server: AMPED ("Flash") and SPED from one code base.
//!
//! A single process multiplexes all connections through `select`,
//! processing one basic step (§2) per readiness event. The two
//! architectures differ in exactly two switches, mirroring the paper's
//! methodology of building every server from the same code:
//!
//! * **AMPED** (`use_mincore = true`, `helpers > 0`): before sending
//!   file data the server checks residency with `mincore`; misses are
//!   routed to helper processes, so the event loop itself never faults.
//!   Pathname-translation misses also go to helpers.
//! * **SPED** (`use_mincore = false`, `helpers = 0`): the server calls
//!   `stat` and `writev` directly and simply *blocks the whole process*
//!   when disk I/O is needed — the weakness the paper demonstrates.
//!
//! The Zeus-like baseline is SPED plus unaligned headers and
//! small-document priority (see `ServerConfig::zeus_like`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use flash_simos::kernel::{Kernel, SendSrc};
use flash_simos::syscall::{Blocking, Completion, PipeMsg};
use flash_simos::{ConnId, Fd, FileId, ListenId, Pid, PipeId, ProcessLogic};

use crate::caches::{Caches, HeaderEntry, PathEntry, CHUNK_BYTES};
use crate::config::ServerConfig;
use crate::helper::{
    pack_a, pack_c, unpack_a, OP_CHUNK, OP_CHUNK_DONE, OP_TRANSLATE, OP_TRANSLATE_DONE,
};
use crate::site::Site;

/// Per-connection request state.
#[derive(Debug)]
struct Ctx {
    conn: ConnId,
    phase: Phase,
    token: u64,
    keep_alive: bool,
    fid: Option<FileId>,
    size: u64,
    hdr_left: u64,
    aligned: bool,
    offset: u64,
    want_write: bool,
    /// Set when a helper just brought the current chunk into memory, so
    /// the next send skips the residency check (crucial for the §5.7
    /// heuristic, which cannot observe the helper's page touches).
    resident_hint: bool,
    pending_tokens: VecDeque<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (more) request bytes.
    ReadRequest,
    /// SPED: a blocking `stat` is in flight.
    Translating,
    /// AMPED: waiting for a helper notification.
    WaitExternal,
    /// Transmitting header/body.
    Send,
    /// `close` issued.
    Closing,
}

/// Work items queued between syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    Accept,
    Read(u32),
    Continue(u32),
    Close(u32),
    DrainPipe,
    SendJob,
}

/// A helper process slot.
struct Slot {
    job_pipe: PipeId,
    busy: bool,
}

/// A queued job for a helper.
#[derive(Debug, Clone, Copy)]
enum Job {
    Translate {
        conn: u32,
        token: u64,
    },
    Chunk {
        conn: u32,
        fid: FileId,
        offset: u64,
        len: u64,
    },
}

/// The event-driven server process logic.
pub struct EventLoopServer {
    cfg: Rc<ServerConfig>,
    site: Rc<Site>,
    listen: ListenId,
    caches: Rc<RefCell<Caches>>,
    conns: BTreeMap<u32, Ctx>,
    work: VecDeque<Work>,
    cur_work: Option<Work>,
    helpers: Vec<Slot>,
    done_pipe: Option<PipeId>,
    pending_jobs: VecDeque<Job>,
    stat_conn: Option<u32>,
}

impl EventLoopServer {
    /// Creates the event-loop logic. `helpers` are the job pipes of the
    /// already-spawned helper processes; `done_pipe` is their shared
    /// notification pipe (present iff there are helpers).
    pub fn new(
        cfg: Rc<ServerConfig>,
        site: Rc<Site>,
        listen: ListenId,
        caches: Rc<RefCell<Caches>>,
        helpers: Vec<PipeId>,
        done_pipe: Option<PipeId>,
    ) -> Self {
        assert!(
            helpers.is_empty() == done_pipe.is_none(),
            "done pipe must exist exactly when helpers do"
        );
        EventLoopServer {
            cfg,
            site,
            listen,
            caches,
            conns: BTreeMap::new(),
            work: VecDeque::new(),
            cur_work: None,
            helpers: helpers
                .into_iter()
                .map(|p| Slot {
                    job_pipe: p,
                    busy: false,
                })
                .collect(),
            done_pipe,
            pending_jobs: VecDeque::new(),
            stat_conn: None,
        }
    }

    // -------------------------------------------------------------
    // Handle phase: interpret the last syscall's completion. No
    // syscalls may be issued here — only state updates, CPU charges
    // and work-queue pushes.
    // -------------------------------------------------------------

    fn handle(&mut self, k: &mut Kernel, completion: Completion) {
        match completion {
            Completion::Start => {}
            Completion::SelectReady(fds) => self.on_select_ready(fds),
            Completion::Accepted(conn) => {
                self.conns.insert(
                    conn.0,
                    Ctx {
                        conn,
                        phase: Phase::ReadRequest,
                        token: 0,
                        keep_alive: false,
                        fid: None,
                        size: 0,
                        hdr_left: 0,
                        aligned: true,
                        offset: 0,
                        want_write: false,
                        resident_hint: false,
                        pending_tokens: VecDeque::new(),
                    },
                );
                // Keep accepting until the queue drains (WouldBlock).
                self.work.push_back(Work::Accept);
            }
            Completion::WouldBlock => {
                // Which operation found nothing is in cur_work; readiness
                // interest (select) covers every case, so nothing to do
                // except note a full send buffer.
                if let Some(Work::Continue(c)) = self.cur_work {
                    if let Some(ctx) = self.conns.get_mut(&c) {
                        if ctx.phase == Phase::Send {
                            ctx.want_write = true;
                        }
                    }
                }
            }
            Completion::ConnRead {
                conn,
                bytes,
                tokens,
            } => self.on_conn_read(k, conn, bytes, tokens),
            Completion::Stated { .. } => {
                let c = self
                    .stat_conn
                    .take()
                    .expect("Stated completion without an in-flight stat");
                if let Some(ctx) = self.conns.get_mut(&c) {
                    debug_assert_eq!(ctx.phase, Phase::Translating);
                    let token = ctx.token;
                    self.finish_translation(k, c, token);
                    self.work.push_back(Work::Continue(c));
                }
            }
            Completion::Written {
                conn,
                hdr_bytes,
                body_bytes,
            } => self.on_written(k, conn, hdr_bytes, body_bytes),
            Completion::Closed(conn) => {
                self.conns.remove(&conn.0);
            }
            Completion::PipeMsg { msg, .. } => self.on_notification(k, msg),
            Completion::PipeSent => {
                // Job handed to a worker; nothing more to record.
            }
            other => panic!("event loop got unexpected completion {other:?}"),
        }
    }

    fn on_select_ready(&mut self, fds: Vec<Fd>) {
        let mut items: Vec<Work> = Vec::with_capacity(fds.len());
        for fd in fds {
            match fd {
                Fd::Listen(_) => items.push(Work::Accept),
                Fd::Pipe(_) => items.push(Work::DrainPipe),
                Fd::ConnRead(c) => items.push(Work::Read(c.0)),
                Fd::ConnWrite(c) => {
                    if let Some(ctx) = self.conns.get_mut(&c.0) {
                        ctx.want_write = false;
                        items.push(Work::Continue(c.0));
                    }
                }
            }
        }
        if self.cfg.small_doc_priority {
            // Zeus quirk: service connections with the least remaining
            // data first, which under load starves large documents.
            items.sort_by_key(|w| match w {
                Work::Accept | Work::DrainPipe | Work::SendJob => 0,
                Work::Read(_) => 1,
                Work::Continue(c) | Work::Close(c) => self
                    .conns
                    .get(c)
                    .map(|ctx| 2 + ctx.size.saturating_sub(ctx.offset))
                    .unwrap_or(2),
            });
        }
        self.work.extend(items);
    }

    fn on_conn_read(&mut self, k: &mut Kernel, conn: ConnId, bytes: u64, tokens: Vec<u64>) {
        let Some(ctx) = self.conns.get_mut(&conn.0) else {
            return;
        };
        if bytes == 0 {
            // Peer closed.
            self.work.push_back(Work::Close(conn.0));
            return;
        }
        if tokens.is_empty() {
            return; // partial request; select will fire again
        }
        ctx.pending_tokens.extend(tokens);
        if ctx.phase == Phase::ReadRequest {
            let t = ctx.pending_tokens.pop_front().expect("just extended");
            self.begin_request(k, conn.0, t);
            self.work.push_back(Work::Continue(conn.0));
        }
    }

    fn on_written(&mut self, k: &mut Kernel, conn: ConnId, hdr: u64, body: u64) {
        let Some(ctx) = self.conns.get_mut(&conn.0) else {
            return;
        };
        ctx.hdr_left -= hdr;
        ctx.offset += body;
        if ctx.hdr_left == 0 && ctx.offset >= ctx.size {
            k.mark_response_boundary(conn);
            self.caches.borrow_mut().stats.requests_done += 1;
            if ctx.keep_alive {
                if let Some(t) = ctx.pending_tokens.pop_front() {
                    self.begin_request(k, conn.0, t);
                    self.work.push_back(Work::Continue(conn.0));
                } else {
                    ctx.phase = Phase::ReadRequest;
                }
            } else {
                self.work.push_back(Work::Close(conn.0));
            }
        } else {
            self.work.push_back(Work::Continue(conn.0));
        }
    }

    fn on_notification(&mut self, k: &mut Kernel, msg: PipeMsg) {
        match msg.op {
            OP_TRANSLATE_DONE => {
                let (slot, conn) = unpack_a(msg.a);
                self.helpers[slot].busy = false;
                if self.conns.contains_key(&conn) {
                    self.finish_translation(k, conn, msg.c);
                    self.work.push_back(Work::Continue(conn));
                }
            }
            OP_CHUNK_DONE => {
                let (slot, conn) = unpack_a(msg.a);
                self.helpers[slot].busy = false;
                if let Some(ctx) = self.conns.get_mut(&conn) {
                    debug_assert_eq!(ctx.phase, Phase::WaitExternal);
                    ctx.phase = Phase::Send;
                    ctx.resident_hint = true;
                    self.work.push_back(Work::Continue(conn));
                }
            }
            other => panic!("server got unknown notification op {other}"),
        }
        if !self.pending_jobs.is_empty() {
            self.work.push_front(Work::SendJob);
        }
        // There may be more notifications queued behind this one.
        self.work.push_back(Work::DrainPipe);
    }

    /// Starts processing a parsed request: resolves the token through the
    /// pathname cache or schedules translation. Handle-phase only.
    fn begin_request(&mut self, k: &mut Kernel, conn: u32, token: u64) {
        k.cpu(self.cfg.parse_ns + self.cfg.request_user_ns + self.cfg.extra_request_ns);
        // Clients encode "use a persistent connection" in the token's
        // high bit (the paper uses persistent connections in the WAN
        // experiment only).
        let keep_alive = token & KEEP_ALIVE_BIT != 0;
        let token = token & !KEEP_ALIVE_BIT;
        {
            let ctx = self.conns.get_mut(&conn).expect("request on live conn");
            ctx.token = token;
            ctx.offset = 0;
            ctx.hdr_left = 0;
            ctx.keep_alive = keep_alive;
        }
        // Pathname translation (§5.2).
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
                self.setup_response(k, conn, token, entry.fid, entry.size);
            }
            None => {
                if self.helpers.is_empty() {
                    // SPED: translate inline; the stat may block the whole
                    // process on a metadata read.
                    self.conns.get_mut(&conn).unwrap().phase = Phase::Translating;
                } else {
                    // AMPED: hand translation to a helper.
                    self.conns.get_mut(&conn).unwrap().phase = Phase::WaitExternal;
                    self.pending_jobs.push_back(Job::Translate { conn, token });
                    self.work.push_front(Work::SendJob);
                }
            }
        }
    }

    /// Records a finished translation in the cache and moves to sending.
    fn finish_translation(&mut self, k: &mut Kernel, conn: u32, token: u64) {
        let f = self.site.file(token);
        let (fid, size) = (f.fid, f.size);
        {
            let mut caches = self.caches.borrow_mut();
            if let Some(cache) = caches.path.as_mut() {
                cache.insert(token, PathEntry { fid, size });
            }
        }
        self.setup_response(k, conn, token, fid, size);
    }

    /// Fills header state (cache or generation) and enters the send
    /// phase. Handle-phase only (charges CPU, no syscalls).
    fn setup_response(&mut self, k: &mut Kernel, conn: u32, token: u64, fid: FileId, size: u64) {
        let f = self.site.file(token);
        let ctx = self.conns.get_mut(&conn).expect("live conn");
        let key = (token, ctx.keep_alive);
        let aligned = self.cfg.aligned_headers;
        let fresh = HeaderEntry {
            len: if aligned {
                f.hdr_len_aligned
            } else {
                f.hdr_len_raw
            },
            aligned,
        };
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
                        cache.insert(key, fresh);
                        fresh
                    }
                },
                None => {
                    k.cpu(self.cfg.header_gen_ns);
                    fresh
                }
            }
        };
        let ctx = self.conns.get_mut(&conn).expect("live conn");
        ctx.fid = Some(fid);
        ctx.size = size;
        ctx.hdr_left = entry.len;
        ctx.aligned = entry.aligned;
        ctx.offset = 0;
        ctx.phase = Phase::Send;
    }

    // -------------------------------------------------------------
    // Issue phase: perform exactly one syscall (looping over queued
    // work until one is issued; falling back to select).
    // -------------------------------------------------------------

    fn issue(&mut self, k: &mut Kernel) {
        loop {
            let Some(w) = self.work.pop_front() else {
                self.cur_work = None;
                let interests = self.interests();
                k.sys_select(interests);
                return;
            };
            self.cur_work = Some(w);
            match w {
                Work::Accept => {
                    k.sys_accept(self.listen, Blocking::No);
                    return;
                }
                Work::Read(c) => {
                    if let Some(ctx) = self.conns.get(&c) {
                        if ctx.phase != Phase::Closing {
                            k.sys_conn_read(ctx.conn, Blocking::No);
                            return;
                        }
                    }
                }
                Work::DrainPipe => {
                    if let Some(p) = self.done_pipe {
                        k.sys_pipe_recv(p, Blocking::No);
                        return;
                    }
                }
                Work::Continue(c) => {
                    if self.advance_conn(k, c) {
                        return;
                    }
                }
                Work::Close(c) => {
                    if let Some(ctx) = self.conns.get_mut(&c) {
                        if ctx.phase != Phase::Closing {
                            ctx.phase = Phase::Closing;
                            k.sys_close(ctx.conn);
                            return;
                        }
                    }
                }
                Work::SendJob => {
                    if self.dispatch_job(k) {
                        return;
                    }
                }
            }
        }
    }

    /// Tries to advance a connection in the send pipeline; returns true
    /// if a syscall was issued.
    fn advance_conn(&mut self, k: &mut Kernel, c: u32) -> bool {
        let Some(ctx) = self.conns.get(&c) else {
            return false;
        };
        match ctx.phase {
            Phase::Translating => {
                if self.stat_conn.is_some() {
                    // One blocking stat at a time (it stalls the whole
                    // process anyway); retry after it finishes.
                    self.work.push_back(Work::Continue(c));
                    return false;
                }
                let token = ctx.token;
                let fid = self.site.file(token).fid;
                self.stat_conn = Some(c);
                k.sys_stat(fid);
                true
            }
            Phase::Send => self.advance_send(k, c),
            // Waiting on a helper or idle: nothing to issue.
            Phase::ReadRequest | Phase::WaitExternal | Phase::Closing => false,
        }
    }

    fn advance_send(&mut self, k: &mut Kernel, c: u32) -> bool {
        let (conn, fid, size, offset, hdr_left, aligned, hint) = {
            let ctx = self.conns.get_mut(&c).expect("live conn");
            let hint = std::mem::take(&mut ctx.resident_hint);
            (
                ctx.conn,
                ctx.fid,
                ctx.size,
                ctx.offset,
                ctx.hdr_left,
                ctx.aligned,
                hint,
            )
        };
        let chunk = (size - offset.min(size)).min(CHUNK_BYTES);
        let (Some(fid), true) = (fid, chunk > 0) else {
            // Nothing left but header bytes: a memory send that can
            // never fault on file pages.
            k.sys_send(
                conn,
                hdr_left,
                SendSrc::Mem { len: chunk },
                aligned,
                Blocking::No,
            );
            return true;
        };
        // AMPED: test residency before sending; a miss becomes helper
        // work instead of a page fault in the event loop (§3.4). Either
        // ask the kernel (`mincore`, §5.7) or — on systems without a
        // usable mincore — predict from the server's own mapped-file LRU
        // (the paper's §5.7 fallback). The prediction costs no syscall
        // but can be wrong, in which case the writev below blocks like
        // SPED would.
        if (self.cfg.use_mincore || self.cfg.residency_heuristic) && chunk > 0 && !hint {
            let resident = if self.cfg.use_mincore {
                let os = &k.cfg.os;
                let pages = chunk.div_ceil(flash_simos::PAGE_SIZE);
                k.cpu(os.mincore_ns + pages * os.mincore_per_page_ns);
                k.residency(fid, offset, chunk)
            } else {
                let mut caches = self.caches.borrow_mut();
                caches.mmap.as_mut().is_some_and(|m| m.hit(fid, offset))
            };
            let mut caches = self.caches.borrow_mut();
            if resident {
                caches.stats.mincore_resident += 1;
            } else {
                caches.stats.mincore_missing += 1;
                drop(caches);
                self.conns.get_mut(&c).unwrap().phase = Phase::WaitExternal;
                self.pending_jobs.push_back(Job::Chunk {
                    conn: c,
                    fid,
                    offset,
                    len: chunk,
                });
                return self.dispatch_job(k);
            }
        }
        // Mapped-file cache (§5.4).
        if chunk > 0 {
            let os_mmap = k.cfg.os.mmap_ns;
            let os_munmap = k.cfg.os.munmap_ns;
            let mut caches = self.caches.borrow_mut();
            match caches.mmap.as_mut() {
                Some(mc) => {
                    if mc.hit(fid, offset) {
                        caches.stats.mmap_hits += 1;
                    } else {
                        let evicted = mc.map(fid, offset, size);
                        caches.stats.mmap_misses += 1;
                        caches.stats.unmaps += u64::from(evicted);
                        k.cpu(os_mmap + u64::from(evicted) * os_munmap);
                    }
                }
                None => {
                    // No cache: map and lazily unmap around every send.
                    k.cpu(os_mmap + os_munmap);
                }
            }
        }
        k.sys_send(
            conn,
            hdr_left,
            SendSrc::File {
                file: fid,
                offset,
                len: chunk,
            },
            aligned,
            Blocking::No,
        );
        true
    }

    /// Sends the oldest pending job to an idle helper; returns true if a
    /// syscall was issued.
    fn dispatch_job(&mut self, k: &mut Kernel) -> bool {
        let Some(job) = self.pending_jobs.front().copied() else {
            return false;
        };
        let Some(idx) = self.helpers.iter().position(|s| !s.busy) else {
            return false; // all helpers busy; retried on next notification
        };
        let msg = match job {
            Job::Translate { conn, token } => PipeMsg {
                op: OP_TRANSLATE,
                a: pack_a(idx, conn),
                // The helper needs the file to stat; the done handler
                // needs the token back, so both travel in the message.
                b: self.site.file(token).fid.0 as u64,
                c: token,
            },
            Job::Chunk {
                conn,
                fid,
                offset,
                len,
            } => PipeMsg {
                op: OP_CHUNK,
                a: pack_a(idx, conn),
                b: fid.0 as u64,
                c: pack_c(offset, len),
            },
        };
        self.helpers[idx].busy = true;
        let pipe = self.helpers[idx].job_pipe;
        self.pending_jobs.pop_front();
        self.caches.borrow_mut().stats.helper_jobs += 1;
        k.sys_pipe_send(pipe, msg);
        true
    }

    /// Select interest set: listen, the notification pipe, and every
    /// connection that is waiting to read or blocked on send-buffer space.
    fn interests(&self) -> Vec<Fd> {
        let mut v = Vec::with_capacity(self.conns.len() + 2);
        v.push(Fd::Listen(self.listen));
        if let Some(p) = self.done_pipe {
            v.push(Fd::Pipe(p));
        }
        for ctx in self.conns.values() {
            match ctx.phase {
                Phase::ReadRequest => v.push(Fd::ConnRead(ctx.conn)),
                Phase::Send if ctx.want_write => v.push(Fd::ConnWrite(ctx.conn)),
                _ => {}
            }
        }
        v
    }
}

/// Token flag requesting a persistent (keep-alive) connection.
pub const KEEP_ALIVE_BIT: u64 = 1 << 63;

impl ProcessLogic for EventLoopServer {
    fn on_run(&mut self, _pid: Pid, k: &mut Kernel, completion: Completion) {
        self.handle(k, completion);
        self.issue(k);
    }
}
