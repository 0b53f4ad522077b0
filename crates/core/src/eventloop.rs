//! The event-driven server: AMPED ("Flash") and SPED from one code base.
//!
//! A single process multiplexes all connections through `select`,
//! processing one basic step (§2) per readiness event. The request path
//! itself — the preamble, the §5.2–5.4 caches, the end of a response —
//! is the one the blocking workers run too (`request.rs`); this module
//! keeps only the event-driven I/O discipline. The two architectures
//! differ in one switch, whether the loop has helpers, mirroring the
//! paper's methodology of building every server from the same code:
//!
//! * **AMPED** (`helpers > 0`): before sending file data the server
//!   tests residency — with `mincore`, or by the §5.7 prediction when
//!   `residency_heuristic` is set; misses are routed to helper
//!   processes, so the event loop itself never faults.
//!   Pathname-translation misses also go to helpers.
//! * **SPED** (`helpers = 0`): the server calls `stat` and `writev`
//!   directly and simply *blocks the whole process* when disk I/O is
//!   needed — the weakness the paper demonstrates.
//!
//! The Zeus-like baseline is SPED plus unaligned headers and
//! small-document priority (see `ServerConfig::zeus_like`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use flash_simos::kernel::{Kernel, SendSrc};
use flash_simos::syscall::{Blocking, Completion, PipeMsg};
use flash_simos::{ConnId, Fd, FileId, ListenId, Pid, PipeId, ProcessLogic};

use crate::caches::Caches;
use crate::config::ServerConfig;
use crate::helper::{
    pack_a, pack_c, unpack_a, OP_CHUNK, OP_CHUNK_DONE, OP_TRANSLATE, OP_TRANSLATE_DONE,
};
use crate::request::{AfterWrite, Request, Steps};
use crate::site::Site;

/// Per-connection state.
#[derive(Debug)]
struct Ctx {
    conn: ConnId,
    phase: Phase,
    req: Request,
    want_write: bool,
    /// Set when a helper just brought the current chunk into memory, so
    /// the next send skips the residency check (crucial for the §5.7
    /// heuristic, which cannot observe the helper's page touches).
    resident_hint: bool,
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
    steps: Steps,
    listen: ListenId,
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
            steps: Steps { cfg, site, caches },
            listen,
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
                        req: Request::default(),
                        want_write: false,
                        resident_hint: false,
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
                debug_assert!(self
                    .conns
                    .get(&c)
                    .is_none_or(|ctx| ctx.phase == Phase::Translating));
                self.finish_translation(k, c);
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
        if self.steps.cfg.small_doc_priority {
            // Zeus quirk: service connections with the least remaining
            // data first, which under load starves large documents.
            items.sort_by_key(|w| match w {
                Work::Accept | Work::DrainPipe | Work::SendJob => 0,
                Work::Read(_) => 1,
                Work::Continue(c) | Work::Close(c) => self
                    .conns
                    .get(c)
                    .map(|ctx| 2 + ctx.req.size.saturating_sub(ctx.req.offset))
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
        ctx.req.pending_tokens.extend(tokens);
        if ctx.phase == Phase::ReadRequest {
            let t = ctx.req.pending_tokens.pop_front().expect("just extended");
            self.begin_request(k, conn.0, t);
            self.work.push_back(Work::Continue(conn.0));
        }
    }

    fn on_written(&mut self, k: &mut Kernel, conn: ConnId, hdr: u64, body: u64) {
        let Some(ctx) = self.conns.get_mut(&conn.0) else {
            return;
        };
        match self.steps.written(k, conn, &mut ctx.req, hdr, body) {
            AfterWrite::Send => self.work.push_back(Work::Continue(conn.0)),
            AfterWrite::Next(token) => {
                self.begin_request(k, conn.0, token);
                self.work.push_back(Work::Continue(conn.0));
            }
            AfterWrite::Read => ctx.phase = Phase::ReadRequest,
            AfterWrite::Close => self.work.push_back(Work::Close(conn.0)),
        }
    }

    fn on_notification(&mut self, k: &mut Kernel, msg: PipeMsg) {
        match msg.op {
            OP_TRANSLATE_DONE => {
                let (slot, conn) = unpack_a(msg.a);
                self.helpers[slot].busy = false;
                self.finish_translation(k, conn);
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
        let ctx = self.conns.get_mut(&conn).expect("request on live conn");
        self.steps.begin(k, &mut ctx.req, token);
        match self.steps.lookup(&ctx.req) {
            Some(file) => {
                self.steps.respond(k, &mut ctx.req, file);
                ctx.phase = Phase::Send;
            }
            // SPED: translate inline; the stat may block the whole
            // process on a metadata read.
            None if self.helpers.is_empty() => ctx.phase = Phase::Translating,
            None => {
                // AMPED: hand translation to a helper.
                ctx.phase = Phase::WaitExternal;
                let token = ctx.req.token;
                self.pending_jobs.push_back(Job::Translate { conn, token });
                self.work.push_front(Work::SendJob);
            }
        }
    }

    /// Records a finished translation, fills the response header and
    /// moves a still-open connection to sending. Handle-phase only.
    fn finish_translation(&mut self, k: &mut Kernel, conn: u32) {
        let Some(ctx) = self.conns.get_mut(&conn) else {
            return;
        };
        let file = self.steps.translated(&ctx.req);
        self.steps.respond(k, &mut ctx.req, file);
        ctx.phase = Phase::Send;
        self.work.push_back(Work::Continue(conn));
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
                let fid = self.steps.site.file(ctx.req.token).fid;
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
        let ctx = self.conns.get_mut(&c).expect("live conn");
        let hint = std::mem::take(&mut ctx.resident_hint);
        let Some((fid, chunk)) = ctx.req.chunk() else {
            // Nothing left but header bytes: a memory send that can
            // never fault on file pages.
            ctx.req
                .send(k, ctx.conn, SendSrc::Mem { len: 0 }, Blocking::No);
            return true;
        };
        // AMPED: test residency before sending; a miss becomes helper
        // work instead of a page fault in the event loop (§3.4). Either
        // ask the kernel (`mincore`, §5.7) or — on systems without a
        // usable mincore — predict from the server's own mapped-file LRU
        // (the paper's §5.7 fallback). The prediction costs no syscall
        // but can be wrong, in which case the writev below blocks like
        // SPED would.
        let offset = ctx.req.offset;
        if !self.helpers.is_empty() && !hint {
            let resident = if self.steps.cfg.residency_heuristic {
                self.steps.predicts_resident(fid, offset)
            } else {
                let os = &k.cfg.os;
                let pages = chunk.div_ceil(flash_simos::PAGE_SIZE);
                k.cpu(os.mincore_ns + pages * os.mincore_per_page_ns);
                k.residency(fid, offset, chunk)
            };
            let mut caches = self.steps.caches.borrow_mut();
            if resident {
                caches.stats.mincore_resident += 1;
            } else {
                caches.stats.mincore_missing += 1;
                drop(caches);
                ctx.phase = Phase::WaitExternal;
                self.pending_jobs.push_back(Job::Chunk {
                    conn: c,
                    fid,
                    offset,
                    len: chunk,
                });
                return self.dispatch_job(k);
            }
        }
        let body = self.steps.map_chunk(k, &ctx.req, fid, chunk);
        ctx.req.send(k, ctx.conn, body, Blocking::No);
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
                // The file to stat; the done handler finds the token on
                // the connection, which waits for nothing else.
                b: self.steps.site.file(token).fid.0 as u64,
                c: 0,
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
        self.steps.caches.borrow_mut().stats.helper_jobs += 1;
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

impl ProcessLogic for EventLoopServer {
    fn on_run(&mut self, _pid: Pid, k: &mut Kernel, completion: Completion) {
        self.handle(k, completion);
        self.issue(k);
    }
}
