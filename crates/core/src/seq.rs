//! The sequential blocking worker: MP and MT servers (§3.1, §3.2).
//!
//! Each worker executes the basic request-processing steps (§2) in order
//! with blocking system calls, handling one request at a time. Deployed
//! as N full processes it is the MP architecture (Flash-MP, Apache); as N
//! kernel threads sharing one cache set it is the MT architecture
//! (Flash-MT). The OS overlaps disk, CPU and network by switching among
//! workers — at context-switch and memory cost.
//!
//! The request path itself — the preamble, the §5.2–5.4 caches, the
//! end of a response — is the one the event loop runs too
//! (`request.rs`); this module keeps only the blocking phases and MT's
//! lock charge on the shared cache set.
//!
//! The Apache-like baseline runs the same worker with every cache
//! disabled and the `read()`+copy (non-mmap) send path.

use std::cell::RefCell;
use std::rc::Rc;

use flash_simos::kernel::{Kernel, SendSrc};
use flash_simos::syscall::{Blocking, Completion};
use flash_simos::{ConnId, ListenId, Pid, ProcessLogic};

use crate::caches::{Caches, PathEntry};
use crate::config::ServerConfig;
use crate::request::{AfterWrite, Request, Steps};
use crate::site::Site;

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
    req: Request,
    /// Bytes already `read()` into the user buffer (non-mmap path).
    buffered: u64,
}

/// One sequential worker (an MP process or an MT thread).
pub struct SeqWorker {
    /// Over private caches (MP) or the shared cache set (MT).
    steps: Steps,
    listen: ListenId,
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
            steps: Steps { cfg, site, caches },
            listen,
            phase: SeqPhase::Accepting,
            ctx: SeqCtx::default(),
        }
    }

    /// Lock cost for one shared-cache access (MT only; 0 elsewhere).
    fn lock(&self, k: &mut Kernel) {
        if self.steps.cfg.lock_ns > 0 {
            k.cpu(self.steps.cfg.lock_ns);
        }
    }

    /// Starts a parsed request; returns the next phase after issuing the
    /// appropriate syscall.
    fn begin_request(&mut self, k: &mut Kernel, conn: ConnId, token: u64) -> SeqPhase {
        self.steps.begin(k, &mut self.ctx.req, token);
        self.ctx.buffered = 0;
        self.lock(k);
        match self.steps.lookup(&self.ctx.req) {
            Some(file) => self.respond(k, conn, file),
            None => {
                // Blocking translation: only this worker stalls on a
                // metadata miss.
                k.sys_stat(self.steps.site.file(self.ctx.req.token).fid);
                SeqPhase::Translating(conn)
            }
        }
    }

    /// Fills the response header under the lock and starts sending.
    fn respond(&mut self, k: &mut Kernel, conn: ConnId, file: PathEntry) -> SeqPhase {
        self.lock(k);
        self.steps.respond(k, &mut self.ctx.req, file);
        self.send_step(k, conn)
    }

    /// Issues the next step of the response: a buffer fill (`read(2)`
    /// path), or a blocking `writev`. Returns the phase to wait in.
    fn send_step(&mut self, k: &mut Kernel, conn: ConnId) -> SeqPhase {
        let req = &self.ctx.req;
        let Some((fid, chunk)) = req.chunk() else {
            // Only header bytes left.
            req.send(k, conn, SendSrc::Mem { len: 0 }, Blocking::Yes);
            return SeqPhase::Sending(conn);
        };
        if !self.steps.cfg.use_mmap {
            // Apache path: read() into a user buffer (may block on disk),
            // then write from memory.
            if self.ctx.buffered == 0 {
                k.sys_file_read(fid, req.offset, chunk, true);
                return SeqPhase::FillingBuffer(conn);
            }
            let len = self.ctx.buffered.min(chunk);
            req.send(k, conn, SendSrc::Mem { len }, Blocking::Yes);
            return SeqPhase::Sending(conn);
        }
        // mmap path with the §5.4 chunk cache; the writev may block on a
        // page fault — acceptable here, only this worker stalls.
        self.lock(k);
        let body = self.steps.map_chunk(k, req, fid, chunk);
        req.send(k, conn, body, Blocking::Yes);
        SeqPhase::Sending(conn)
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
                    self.ctx.req.pending_tokens.extend(tokens);
                    let t = self.ctx.req.pending_tokens.pop_front().expect("nonempty");
                    self.begin_request(k, conn, t)
                }
            }
            (SeqPhase::Translating(conn), Completion::Stated { .. }) => {
                let conn = *conn;
                self.lock(k);
                let file = self.steps.translated(&self.ctx.req);
                self.respond(k, conn, file)
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
                self.ctx.buffered -= body_bytes.min(self.ctx.buffered);
                match self
                    .steps
                    .written(k, conn, &mut self.ctx.req, hdr_bytes, body_bytes)
                {
                    AfterWrite::Send => self.send_step(k, conn),
                    AfterWrite::Next(token) => self.begin_request(k, conn, token),
                    AfterWrite::Read => {
                        k.sys_conn_read(conn, Blocking::Yes);
                        SeqPhase::Reading(conn)
                    }
                    AfterWrite::Close => {
                        k.sys_close(conn);
                        SeqPhase::Closing(conn)
                    }
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
