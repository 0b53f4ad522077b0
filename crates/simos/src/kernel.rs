//! The simulated kernel: scheduler, syscalls, page cache, disk and wire.
//!
//! Server logic runs "inside" simulated processes: at each dispatch the
//! scheduler hands the process its previous syscall's [`Completion`], the
//! logic charges CPU with [`Kernel::cpu`] and issues exactly one syscall,
//! and the kernel either re-queues the process (result available) or blocks
//! it. All costs come from the machine's
//! [`OsProfile`](crate::profile::OsProfile).
//!
//! The single semantic the whole paper hinges on is reproduced here
//! faithfully: **socket operations honour non-blocking mode, file
//! operations do not**. A `writev` of file-backed pages that are not in the
//! page cache blocks the calling process until the disk read completes —
//! even for a "non-blocking" socket — exactly like `mmap`'d file I/O on
//! 1999-era UNIX (§3.3). SPED stalls on this; AMPED routes the fault to a
//! helper first.

use std::collections::VecDeque;

use flash_simcore::time::{wire_time, Nanos};
use flash_simcore::{EventQueue, SimTime};

use crate::config::{MachineConfig, PAGE_SIZE};
use crate::disk::{Disk, DiskReq};
use crate::fs::{FileSystem, META_FILE};
use crate::ids::{AgentId, ConnId, Fd, FileId, ListenId, Pid, PipeId};
use crate::metrics::Metrics;
use crate::net::{ConnState, Connection, Listen};
use crate::pagecache::PageCache;
use crate::proc::{Proc, ProcKind, ProcState, ProcTable};
use crate::syscall::{Blocking, Completion, PendingOp, PipeMsg};

/// Internal kernel events.
#[derive(Debug)]
pub(crate) enum KEvent {
    /// Run the next process on the CPU.
    Dispatch,
    /// The active disk request finished.
    DiskDone,
    /// A wire chunk arrived at the client.
    WireDelivered { conn: ConnId, bytes: u64 },
    /// Request bytes arrived at the server socket.
    InboundArrive {
        conn: ConnId,
        bytes: u64,
        token: u64,
    },
    /// A connection attempt reached the listen socket.
    SynArrive {
        listen: ListenId,
        agent: AgentId,
        client_bps: u64,
        rtt_ns: Nanos,
    },
    /// A process `sleep` expired.
    ProcTimer(Pid),
}

/// Events delivered to external agents (simulated client machines).
#[derive(Debug, Clone)]
pub enum AgentEvent {
    /// The connection is established (client-side `connect` returned).
    Connected(ConnId),
    /// Response bytes arrived at the client.
    Data {
        /// Connection the bytes arrived on.
        conn: ConnId,
        /// Number of bytes.
        bytes: u64,
    },
    /// A full response (as marked by the server) has arrived.
    ResponseComplete {
        /// Connection the response arrived on.
        conn: ConnId,
    },
    /// The connection is fully closed.
    Closed(ConnId),
}

/// What to do with the current process when its dispatch ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostRun {
    Requeue,
    Block,
    Exit,
}

/// Source of the body bytes for [`Kernel::sys_send`].
#[derive(Debug, Clone, Copy)]
pub enum SendSrc {
    /// File-backed data (sendfile/mmap-style): pages must be resident or
    /// the caller blocks on the disk — regardless of non-blocking mode.
    File {
        /// Source file.
        file: FileId,
        /// Byte offset of the first body byte.
        offset: u64,
        /// Body length in bytes.
        len: u64,
    },
    /// Application-memory data (app buffers): never faults,
    /// but pays the user-space copy on top of the stack cost.
    Mem {
        /// Body length in bytes.
        len: u64,
    },
}

#[derive(Debug, Default)]
struct Pipe {
    msgs: VecDeque<PipeMsg>,
    read_waiters: VecDeque<Pid>,
}

/// The simulated kernel. See the module docs for the execution model.
pub struct Kernel {
    /// Machine description (OS profile, memory, disk, net).
    pub cfg: MachineConfig,
    /// Future-event calendar.
    pub(crate) queue: EventQueue<KEvent>,
    /// Process table.
    pub procs: ProcTable,
    /// Filesystem (files must be created before the run starts).
    pub fs: FileSystem,
    /// Unified page cache.
    pub cache: PageCache,
    /// Disk device.
    pub disk: Disk,
    /// Run metrics.
    pub metrics: Metrics,

    conns: Vec<Connection>,
    listens: Vec<Listen>,
    pipes: Vec<Pipe>,

    nic_free_at: SimTime,

    run_queue: VecDeque<Pid>,
    dispatch_pending: bool,
    cpu_busy_until: SimTime,
    last_ran: Option<Pid>,

    cur: Option<Pid>,
    cur_cpu: Nanos,
    cur_syscalled: bool,
    post: PostRun,

    select_waiters: Vec<Pid>,
    pub(crate) agent_outbox: VecDeque<(AgentId, AgentEvent)>,

    app_mem_bytes: u64,
    overcommit_mb: u64,
    next_group: u32,
}

impl Kernel {
    /// Creates a kernel for the given machine. The page cache starts at
    /// full capacity; spawning processes or reserving application memory
    /// shrinks it.
    pub fn new(cfg: MachineConfig) -> Self {
        let cache = PageCache::new(cfg.memory.cache_pages(0));
        let disk = Disk::new(cfg.disk.clone());
        Kernel {
            cfg,
            queue: EventQueue::new(),
            procs: ProcTable::default(),
            fs: FileSystem::new(),
            cache,
            disk,
            metrics: Metrics::default(),
            conns: Vec::new(),
            listens: Vec::new(),
            pipes: Vec::new(),
            nic_free_at: SimTime::ZERO,
            run_queue: VecDeque::new(),
            dispatch_pending: false,
            cpu_busy_until: SimTime::ZERO,
            last_ran: None,
            cur: None,
            cur_cpu: 0,
            cur_syscalled: false,
            post: PostRun::Block,
            select_waiters: Vec::new(),
            agent_outbox: VecDeque::new(),
            app_mem_bytes: 0,
            overcommit_mb: 0,
            next_group: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Allocates a fresh address-space group id.
    pub fn new_group(&mut self) -> u32 {
        let g = self.next_group;
        self.next_group += 1;
        g
    }

    /// Reserves `bytes` of server application memory (user-level caches);
    /// the page cache shrinks accordingly (§4.2 "Application-level
    /// caching": cache memory competes with the filesystem cache).
    pub fn set_app_mem(&mut self, bytes: u64) {
        self.app_mem_bytes = bytes;
        self.recompute_memory();
    }

    /// Creates a listening socket.
    pub fn add_listen(&mut self) -> ListenId {
        let id = ListenId(self.listens.len() as u32);
        let backlog = self.cfg.net.backlog;
        self.listens.push(Listen::new(id, backlog));
        id
    }

    /// Creates a pipe.
    pub fn add_pipe(&mut self) -> PipeId {
        let id = PipeId(self.pipes.len() as u32);
        self.pipes.push(Pipe::default());
        id
    }

    /// Read access to a connection (server logic uses this for state
    /// checks; all mutation goes through syscalls).
    pub fn conn(&self, c: ConnId) -> &Connection {
        &self.conns[c.0 as usize]
    }

    /// Read-only residency query over `[offset, offset+len)` of `file` —
    /// the information `mincore(2)` returns. Server logic that models a
    /// `mincore` call charges its CPU cost via [`Kernel::cpu`] and uses
    /// this to branch; the call itself can never block, so no dispatch
    /// round-trip is needed.
    pub fn residency(&self, file: FileId, offset: u64, len: u64) -> bool {
        let (first, n) = page_range(offset, len);
        self.cache.resident_count(file, first, n) == n
    }

    /// Marks "everything enqueued so far on `c` is the end of a response";
    /// the client agent receives [`AgentEvent::ResponseComplete`] when the
    /// last byte arrives. Call after the final `writev` of a response.
    ///
    /// The final bytes may already have drained to the client by the time
    /// the server marks the boundary (the wire runs concurrently with the
    /// server's dispatch), so crossing is checked immediately as well as
    /// on every future delivery.
    pub fn mark_response_boundary(&mut self, c: ConnId) {
        let conn = &mut self.conns[c.0 as usize];
        conn.mark_response_boundary();
        let crossed = conn.deliver(0);
        let agent = conn.agent;
        for _ in 0..crossed {
            self.metrics.requests.inc();
            self.agent_outbox
                .push_back((agent, AgentEvent::ResponseComplete { conn: c }));
        }
    }

    pub(crate) fn recompute_memory(&mut self) {
        let consumed = self.procs.resident_bytes() + self.app_mem_bytes;
        self.cache
            .set_capacity(self.cfg.memory.cache_pages(consumed));
        self.overcommit_mb = self.cfg.memory.overcommit_bytes(consumed) / (1024 * 1024);
    }

    // ---------------------------------------------------------------
    // Scheduler
    // ---------------------------------------------------------------

    pub(crate) fn spawn(&mut self, p: Proc) -> Pid {
        let pid = self.procs.add(p);
        self.recompute_memory();
        self.make_runnable(pid);
        pid
    }

    fn make_runnable(&mut self, pid: Pid) {
        let p = self.procs.get_mut(pid);
        if p.state == ProcState::Exited {
            return;
        }
        p.state = ProcState::Runnable;
        self.run_queue.push_back(pid);
        self.ensure_dispatch();
    }

    /// Wakes `pid` with `completion` (it will be delivered at its next
    /// dispatch).
    fn wake_with(&mut self, pid: Pid, completion: Completion) {
        let p = self.procs.get_mut(pid);
        debug_assert!(p.completion.is_none(), "overwriting completion of {pid:?}");
        p.completion = Some(completion);
        self.make_runnable(pid);
    }

    fn ensure_dispatch(&mut self) {
        if self.dispatch_pending || self.run_queue.is_empty() {
            return;
        }
        let at = self.queue.now().max(self.cpu_busy_until);
        self.queue.schedule_at(at, KEvent::Dispatch);
        self.dispatch_pending = true;
    }

    /// Pops the next runnable process and prepares its dispatch context.
    /// Returns the pid and the completion to deliver, or `None` if the run
    /// queue is empty (CPU goes idle).
    pub(crate) fn begin_dispatch(&mut self) -> Option<(Pid, Completion)> {
        self.dispatch_pending = false;
        let pid = loop {
            let p = self.run_queue.pop_front()?;
            if self.procs.get(p).state == ProcState::Runnable {
                break p;
            }
            // Stale queue entry (process exited while queued): skip.
        };
        let switch = self.switch_cost(pid);
        if switch > 0 {
            self.metrics.ctx_switches.inc();
        }
        self.cur = Some(pid);
        self.cur_syscalled = false;
        self.post = PostRun::Block;
        let p = self.procs.get_mut(pid);
        self.cur_cpu = switch + p.pending_charge;
        p.pending_charge = 0;
        let completion = p.completion.take().unwrap_or(Completion::Start);
        Some((pid, completion))
    }

    /// Finishes the dispatch started by [`Kernel::begin_dispatch`]:
    /// advances the CPU-busy horizon, applies the post-run action, and
    /// schedules the next dispatch if work remains.
    pub(crate) fn end_dispatch(&mut self) {
        let pid = self.cur.take().expect("end_dispatch without begin");
        assert!(
            self.cur_syscalled || self.post == PostRun::Exit,
            "process {:?} ({}) returned without a syscall or exit",
            pid,
            self.procs.get(pid).label
        );
        let t_end = self.queue.now() + self.cur_cpu;
        self.cpu_busy_until = t_end;
        self.metrics.cpu_busy_ns += self.cur_cpu;
        match self.post {
            PostRun::Requeue => {
                let p = self.procs.get_mut(pid);
                p.state = ProcState::Runnable;
                self.run_queue.push_back(pid);
            }
            PostRun::Block => {}
            PostRun::Exit => {
                self.procs.get_mut(pid).state = ProcState::Exited;
                self.recompute_memory();
            }
        }
        self.last_ran = Some(pid);
        self.ensure_dispatch();
    }

    fn switch_cost(&mut self, pid: Pid) -> Nanos {
        let Some(prev) = self.last_ran else {
            return 0;
        };
        if prev == pid {
            return 0;
        }
        let prev_group = self.procs.get(prev).group;
        let p = self.procs.get(pid);
        let base = if p.group == prev_group && p.kind == ProcKind::Thread {
            self.cfg.os.thread_switch_ns
        } else {
            self.cfg.os.ctx_switch_ns
        };
        // Crude paging model: overcommitted process memory makes address-
        // space switches progressively more expensive (TLB/working-set
        // reload from swap). Only matters with hundreds of processes.
        let paging = self.cfg.os.paging_ns_per_overcommitted_mb * self.overcommit_mb;
        base + paging.min(3_000_000)
    }

    fn cur_pid(&self) -> Pid {
        self.cur.expect("syscall outside a dispatch")
    }

    fn note_syscall(&mut self) {
        assert!(
            !self.cur_syscalled,
            "process {:?} issued a second syscall in one dispatch",
            self.cur_pid()
        );
        self.cur_syscalled = true;
    }

    fn finish_now(&mut self, completion: Completion) {
        let pid = self.cur_pid();
        let p = self.procs.get_mut(pid);
        debug_assert!(p.completion.is_none());
        p.completion = Some(completion);
        self.post = PostRun::Requeue;
    }

    fn finish_block(&mut self, state: ProcState) {
        let pid = self.cur_pid();
        self.procs.get_mut(pid).state = state;
        self.post = PostRun::Block;
    }

    // ---------------------------------------------------------------
    // Syscalls (called by server logic during a dispatch)
    // ---------------------------------------------------------------

    /// Charges user-level CPU time to the current dispatch.
    pub fn cpu(&mut self, ns: Nanos) {
        assert!(self.cur.is_some(), "cpu() outside a dispatch");
        self.cur_cpu += ns;
    }

    /// Terminates the current process.
    pub fn sys_exit(&mut self) {
        self.note_syscall();
        self.post = PostRun::Exit;
    }

    /// Sleeps for `ns` (delivers `TimerFired`).
    pub fn sys_sleep(&mut self, ns: Nanos) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.syscall_ns;
        let pid = self.cur_pid();
        self.queue.schedule_in(ns.max(1), KEvent::ProcTimer(pid));
        self.finish_block(ProcState::Sleeping);
    }

    /// `accept(2)`: dequeues a pending connection.
    pub fn sys_accept(&mut self, listen: ListenId, blocking: Blocking) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.accept_ns;
        let l = &mut self.listens[listen.0 as usize];
        if let Some(conn) = l.queue.pop_front() {
            self.metrics.conns_accepted.inc();
            self.finish_now(Completion::Accepted(conn));
        } else {
            match blocking {
                Blocking::No => self.finish_now(Completion::WouldBlock),
                Blocking::Yes => {
                    let pid = self.cur_pid();
                    self.listens[listen.0 as usize]
                        .accept_waiters
                        .push_back(pid);
                    self.finish_block(ProcState::BlockedAccept);
                }
            }
        }
    }

    /// `read(2)` on a connection: consumes available request bytes.
    pub fn sys_conn_read(&mut self, conn: ConnId, blocking: Blocking) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.sock_read_ns;
        let c = &mut self.conns[conn.0 as usize];
        if c.in_avail > 0 {
            let n = c.in_avail;
            c.in_avail = 0;
            let tokens: Vec<u64> = c.in_tokens.drain(..).collect();
            self.cur_cpu += (n as f64 * self.cfg.os.net_per_byte_ns) as Nanos;
            self.finish_now(Completion::ConnRead {
                conn,
                bytes: n,
                tokens,
            });
        } else if c.state != ConnState::Open {
            self.finish_now(Completion::ConnRead {
                conn,
                bytes: 0,
                tokens: Vec::new(),
            });
        } else {
            match blocking {
                Blocking::No => self.finish_now(Completion::WouldBlock),
                Blocking::Yes => {
                    let pid = self.cur_pid();
                    self.conns[conn.0 as usize].read_waiter = Some(pid);
                    self.finish_block(ProcState::BlockedConnRead(conn));
                }
            }
        }
    }

    /// `writev(2)`: sends `hdr_bytes` of header plus a body from `src`.
    ///
    /// Socket-full honours `blocking`; a page fault on file-backed data
    /// blocks unconditionally (see module docs). `aligned` is the §5.5
    /// byte-position alignment of the header: misaligned headers make the
    /// kernel's copy of the *body* regions more expensive.
    pub fn sys_send(
        &mut self,
        conn: ConnId,
        hdr_bytes: u64,
        src: SendSrc,
        aligned: bool,
        blocking: Blocking,
    ) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.writev_ns;
        let space = self.conns[conn.0 as usize].space();
        if space == 0 {
            match blocking {
                Blocking::No => self.finish_now(Completion::WouldBlock),
                Blocking::Yes => {
                    let pid = self.cur_pid();
                    self.conns[conn.0 as usize].write_waiter = Some(pid);
                    self.finish_block(ProcState::BlockedConnWrite(conn));
                }
            }
            return;
        }
        let hdr_acc = hdr_bytes.min(space);
        let body_space = space - hdr_acc;
        match src {
            SendSrc::Mem { len } => {
                let body_acc = len.min(body_space);
                // Copy from app memory into the socket: user copy + stack.
                let cost = ((hdr_acc + body_acc) as f64 * self.cfg.os.net_per_byte_ns
                    + body_acc as f64 * self.cfg.os.file_copy_per_byte_ns
                    + self.misalign_cost(hdr_acc, body_acc, aligned))
                    as Nanos;
                self.cur_cpu += cost;
                self.enqueue_and_drain(conn, hdr_acc + body_acc);
                self.finish_now(Completion::Written {
                    conn,
                    hdr_bytes: hdr_acc,
                    body_bytes: body_acc,
                });
            }
            SendSrc::File { file, offset, len } => {
                let body_acc = len.min(body_space);
                let (first_page, npages) = page_range(offset, body_acc);
                match self.missing_range(file, first_page, npages) {
                    None => {
                        // All pages resident: touch them (LRU promote) and
                        // copy straight out of the page cache (mmap path —
                        // no user-space copy).
                        self.touch_pages(file, first_page, npages);
                        let cost = ((hdr_acc + body_acc) as f64 * self.cfg.os.net_per_byte_ns
                            + self.misalign_cost(hdr_acc, body_acc, aligned))
                            as Nanos;
                        self.cur_cpu += cost;
                        self.enqueue_and_drain(conn, hdr_acc + body_acc);
                        self.finish_now(Completion::Written {
                            conn,
                            hdr_bytes: hdr_acc,
                            body_bytes: body_acc,
                        });
                    }
                    Some((miss_first, miss_n)) => {
                        // Page fault: the process blocks on the disk no
                        // matter what — this is how SPED stalls.
                        let pid = self.cur_pid();
                        self.procs.get_mut(pid).pending_op = Some(PendingOp::Send {
                            conn,
                            file,
                            hdr_bytes: hdr_acc,
                            body_bytes: body_acc,
                            first_page,
                            npages,
                            aligned,
                        });
                        self.request_disk(file, miss_first, miss_n, pid);
                        self.finish_block(ProcState::BlockedDisk);
                    }
                }
            }
        }
    }

    /// `close(2)` on a connection; buffered data still drains to the
    /// client before the FIN.
    pub fn sys_close(&mut self, conn: ConnId) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.close_ns;
        let c = &mut self.conns[conn.0 as usize];
        if c.state == ConnState::Open {
            c.state = ConnState::Closing;
        }
        if self.conns[conn.0 as usize].sendbuf_used == 0 {
            self.finalize_close(conn);
        }
        self.finish_now(Completion::Closed(conn));
    }

    /// `stat(2)`/`open(2)`: pathname translation. CPU cost scales with the
    /// number of path components; a cold inode/directory page costs a disk
    /// read and **blocks the caller unconditionally** — this is the work
    /// Flash's name-translation helpers absorb.
    pub fn sys_stat(&mut self, file: FileId) {
        self.note_syscall();
        let f = self.fs.get(file);
        let meta_page = f.meta_page();
        let components = f.components as u64;
        self.cur_cpu += self.cfg.os.stat_ns + components * self.cfg.os.path_component_ns;
        if self.cache.touch((META_FILE, meta_page)) {
            self.finish_now(Completion::Stated { file });
        } else {
            let pid = self.cur_pid();
            self.procs.get_mut(pid).pending_op = Some(PendingOp::Stat { file });
            self.request_disk(META_FILE, meta_page, 1, pid);
            self.finish_block(ProcState::BlockedDisk);
        }
    }

    /// Reads `[offset, offset+len)` of `file`: touches pages, faulting
    /// missing ones from disk (blocking the caller). With `copy` the data
    /// is also copied to a user buffer (`read(2)` semantics, as used by
    /// servers without mmap); without, it is a pure page touch (what
    /// AMPED helpers do to warm the cache).
    pub fn sys_file_read(&mut self, file: FileId, offset: u64, len: u64, copy: bool) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.syscall_ns;
        let (first, n) = page_range(offset, len);
        match self.missing_range(file, first, n) {
            None => {
                self.touch_pages(file, first, n);
                if copy {
                    self.cur_cpu += (len as f64 * self.cfg.os.file_copy_per_byte_ns) as Nanos;
                }
                self.finish_now(Completion::FileRead { file, bytes: len });
            }
            Some((miss_first, miss_n)) => {
                let pid = self.cur_pid();
                self.procs.get_mut(pid).pending_op = Some(PendingOp::FileRead {
                    file,
                    first_page: first,
                    npages: n,
                    bytes: len,
                    copy,
                });
                self.request_disk(file, miss_first, miss_n, pid);
                self.finish_block(ProcState::BlockedDisk);
            }
        }
    }

    /// Writes a message into a pipe, waking a blocked reader if any.
    pub fn sys_pipe_send(&mut self, pipe: PipeId, msg: PipeMsg) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.syscall_ns + self.cfg.os.pipe_ns;
        let p = &mut self.pipes[pipe.0 as usize];
        p.msgs.push_back(msg);
        if let Some(reader) = p.read_waiters.pop_front() {
            let msg = self.pipes[pipe.0 as usize]
                .msgs
                .pop_front()
                .expect("just pushed");
            // The reader pays its wakeup copy when it runs.
            self.procs.get_mut(reader).pending_charge = self.cfg.os.pipe_ns;
            self.wake_with(reader, Completion::PipeMsg { pipe, msg });
        } else {
            self.notify_fd_ready(Fd::Pipe(pipe));
        }
        self.finish_now(Completion::PipeSent);
    }

    /// Reads a message from a pipe.
    pub fn sys_pipe_recv(&mut self, pipe: PipeId, blocking: Blocking) {
        self.note_syscall();
        self.cur_cpu += self.cfg.os.syscall_ns + self.cfg.os.pipe_ns;
        let p = &mut self.pipes[pipe.0 as usize];
        if let Some(msg) = p.msgs.pop_front() {
            self.finish_now(Completion::PipeMsg { pipe, msg });
        } else {
            match blocking {
                Blocking::No => self.finish_now(Completion::WouldBlock),
                Blocking::Yes => {
                    let pid = self.cur_pid();
                    self.pipes[pipe.0 as usize].read_waiters.push_back(pid);
                    self.finish_block(ProcState::BlockedPipe(pipe));
                }
            }
        }
    }

    /// `select(2)`: returns the ready subset of `interests`, or blocks
    /// until one becomes ready. Cost scales with the interest-set size
    /// (the §6.4 effect: with many connections each call is expensive, but
    /// many ready fds amortize it).
    pub fn sys_select(&mut self, interests: Vec<Fd>) {
        self.note_syscall();
        self.cur_cpu +=
            self.cfg.os.select_ns + interests.len() as u64 * self.cfg.os.select_per_fd_ns;
        self.metrics.select_calls.inc();
        let ready: Vec<Fd> = interests
            .iter()
            .copied()
            .filter(|fd| self.fd_ready(*fd))
            .collect();
        if !ready.is_empty() {
            self.metrics.select_ready_fds.add(ready.len() as u64);
            self.finish_now(Completion::SelectReady(ready));
        } else {
            let pid = self.cur_pid();
            self.procs.get_mut(pid).select_interest = interests;
            self.select_waiters.push(pid);
            self.finish_block(ProcState::BlockedSelect);
        }
    }

    fn misalign_cost(&self, hdr: u64, body: u64, aligned: bool) -> f64 {
        if aligned || hdr == 0 {
            0.0
        } else {
            body as f64 * self.cfg.os.misalign_extra_per_byte_ns
        }
    }

    // ---------------------------------------------------------------
    // Readiness
    // ---------------------------------------------------------------

    fn fd_ready(&self, fd: Fd) -> bool {
        match fd {
            Fd::Listen(l) => !self.listens[l.0 as usize].queue.is_empty(),
            Fd::ConnRead(c) => {
                let conn = &self.conns[c.0 as usize];
                conn.in_avail > 0 || conn.state != ConnState::Open
            }
            Fd::ConnWrite(c) => self.conns[c.0 as usize].space() > 0,
            Fd::Pipe(p) => !self.pipes[p.0 as usize].msgs.is_empty(),
        }
    }

    fn notify_fd_ready(&mut self, fd: Fd) {
        if self.select_waiters.is_empty() {
            return;
        }
        let mut woken = Vec::new();
        for (i, &pid) in self.select_waiters.iter().enumerate() {
            if self.procs.get(pid).select_interest.contains(&fd) {
                woken.push(i);
            }
        }
        // Wake in reverse index order so removal is stable.
        for &i in woken.iter().rev() {
            let pid = self.select_waiters.swap_remove(i);
            let interests = std::mem::take(&mut self.procs.get_mut(pid).select_interest);
            let ready: Vec<Fd> = interests
                .iter()
                .copied()
                .filter(|f| self.fd_ready(*f))
                .collect();
            debug_assert!(!ready.is_empty());
            self.metrics.select_ready_fds.add(ready.len() as u64);
            self.wake_with(pid, Completion::SelectReady(ready));
        }
    }

    // ---------------------------------------------------------------
    // Page cache & disk
    // ---------------------------------------------------------------

    fn touch_pages(&mut self, file: FileId, first: u64, n: u64) {
        for p in first..first + n {
            self.cache.touch((file, p));
        }
    }

    /// The contiguous page span covering all non-resident pages of the
    /// range, or `None` when everything is resident. Reading the whole
    /// span in one request models disk-read clustering.
    fn missing_range(&self, file: FileId, first: u64, n: u64) -> Option<(u64, u64)> {
        let mut lo = None;
        let mut hi = 0;
        for p in first..first + n {
            if !self.cache.resident((file, p)) {
                if lo.is_none() {
                    lo = Some(p);
                }
                hi = p;
            }
        }
        lo.map(|l| (l, hi - l + 1))
    }

    fn request_disk(&mut self, file: FileId, first: u64, n: u64, pid: Pid) {
        if self.disk.join_if_covered(file, first, n, pid) {
            return;
        }
        self.metrics.disk_reads.inc();
        self.metrics.disk_bytes.add(n * PAGE_SIZE);
        let req = DiskReq {
            file,
            first_page: first,
            npages: n,
            start_block: self.fs.block_of(file, first),
            waiters: vec![pid],
        };
        if let Some(delay) = self.disk.submit(req) {
            self.queue.schedule_in(delay, KEvent::DiskDone);
        }
    }

    pub(crate) fn handle_disk_done(&mut self) {
        let (done, next) = self.disk.complete();
        if let Some(delay) = next {
            self.queue.schedule_in(delay, KEvent::DiskDone);
        }
        for p in done.first_page..done.first_page + done.npages {
            self.cache.insert((done.file, p));
        }
        for pid in done.waiters {
            self.resume_after_disk(pid);
        }
    }

    fn resume_after_disk(&mut self, pid: Pid) {
        let op = self
            .procs
            .get_mut(pid)
            .pending_op
            .take()
            .expect("disk waiter without a pending op");
        match op {
            PendingOp::Stat { file } => {
                let meta = self.fs.get(file).meta_page();
                if self.cache.touch((META_FILE, meta)) {
                    self.wake_with(pid, Completion::Stated { file });
                } else {
                    // Evicted before we ran (extreme memory pressure):
                    // fault it again.
                    self.procs.get_mut(pid).pending_op = Some(PendingOp::Stat { file });
                    self.request_disk(META_FILE, meta, 1, pid);
                }
            }
            PendingOp::FileRead {
                file,
                first_page,
                npages,
                bytes,
                copy,
            } => match self.missing_range(file, first_page, npages) {
                None => {
                    self.touch_pages(file, first_page, npages);
                    if copy {
                        self.procs.get_mut(pid).pending_charge =
                            (bytes as f64 * self.cfg.os.file_copy_per_byte_ns) as Nanos;
                    }
                    self.wake_with(pid, Completion::FileRead { file, bytes });
                }
                Some((lo, n)) => {
                    self.procs.get_mut(pid).pending_op = Some(PendingOp::FileRead {
                        file,
                        first_page,
                        npages,
                        bytes,
                        copy,
                    });
                    self.request_disk(file, lo, n, pid);
                }
            },
            PendingOp::Send {
                conn,
                file,
                hdr_bytes,
                body_bytes,
                first_page,
                npages,
                aligned,
            } => match self.missing_range(file, first_page, npages) {
                None => {
                    self.touch_pages(file, first_page, npages);
                    let cost = ((hdr_bytes + body_bytes) as f64 * self.cfg.os.net_per_byte_ns
                        + self.misalign_cost(hdr_bytes, body_bytes, aligned))
                        as Nanos;
                    self.procs.get_mut(pid).pending_charge = cost;
                    self.enqueue_and_drain(conn, hdr_bytes + body_bytes);
                    self.wake_with(
                        pid,
                        Completion::Written {
                            conn,
                            hdr_bytes,
                            body_bytes,
                        },
                    );
                }
                Some((lo, n)) => {
                    self.procs.get_mut(pid).pending_op = Some(PendingOp::Send {
                        conn,
                        file,
                        hdr_bytes,
                        body_bytes,
                        first_page,
                        npages,
                        aligned,
                    });
                    self.request_disk(file, lo, n, pid);
                }
            },
        }
    }

    // ---------------------------------------------------------------
    // Wire
    // ---------------------------------------------------------------

    fn enqueue_and_drain(&mut self, conn: ConnId, bytes: u64) {
        self.conns[conn.0 as usize].enqueue(bytes);
        self.start_drain(conn);
    }

    fn start_drain(&mut self, conn: ConnId) {
        let now = self.queue.now();
        let c = &mut self.conns[conn.0 as usize];
        if c.inflight || c.state == ConnState::Closed {
            return;
        }
        let chunk = c.next_chunk();
        if chunk == 0 {
            return;
        }
        let start = now.max(self.nic_free_at);
        self.nic_free_at = start + wire_time(chunk, self.cfg.net.nic_bps);
        let done = start.max(c.link_free_at) + wire_time(chunk, c.client_bps);
        c.link_free_at = done;
        c.inflight = true;
        self.queue
            .schedule_at(done, KEvent::WireDelivered { conn, bytes: chunk });
    }

    pub(crate) fn handle_wire_delivered(&mut self, conn: ConnId, bytes: u64) {
        let (agent, crossed, remaining, closing) = {
            let c = &mut self.conns[conn.0 as usize];
            c.inflight = false;
            let crossed = c.deliver(bytes);
            (
                c.agent,
                crossed,
                c.sendbuf_used,
                c.state == ConnState::Closing,
            )
        };
        self.metrics.bytes_out.add(bytes);
        self.agent_outbox
            .push_back((agent, AgentEvent::Data { conn, bytes }));
        for _ in 0..crossed {
            self.metrics.requests.inc();
            self.agent_outbox
                .push_back((agent, AgentEvent::ResponseComplete { conn }));
        }
        // Send-buffer space opened up: wake a blocked writer (it retries
        // its write) or a selecting server.
        if let Some(w) = self.conns[conn.0 as usize].write_waiter.take() {
            self.wake_with(w, Completion::WouldBlock);
        } else {
            self.notify_fd_ready(Fd::ConnWrite(conn));
        }
        if remaining > 0 {
            self.start_drain(conn);
        } else if closing {
            self.finalize_close(conn);
        }
    }

    fn finalize_close(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn.0 as usize];
        if c.state == ConnState::Closed {
            return;
        }
        c.state = ConnState::Closed;
        let agent = c.agent;
        self.agent_outbox
            .push_back((agent, AgentEvent::Closed(conn)));
    }

    pub(crate) fn handle_inbound(&mut self, conn: ConnId, bytes: u64, token: u64) {
        let c = &mut self.conns[conn.0 as usize];
        if c.state == ConnState::Closed {
            return;
        }
        c.in_avail += bytes;
        c.in_tokens.push_back(token);
        if let Some(r) = c.read_waiter.take() {
            let n = c.in_avail;
            c.in_avail = 0;
            let tokens: Vec<u64> = c.in_tokens.drain(..).collect();
            self.procs.get_mut(r).pending_charge =
                (n as f64 * self.cfg.os.net_per_byte_ns) as Nanos;
            self.wake_with(
                r,
                Completion::ConnRead {
                    conn,
                    bytes: n,
                    tokens,
                },
            );
        } else {
            self.notify_fd_ready(Fd::ConnRead(conn));
        }
    }

    pub(crate) fn handle_syn(
        &mut self,
        listen: ListenId,
        agent: AgentId,
        client_bps: u64,
        rtt_ns: Nanos,
    ) {
        if self.listens[listen.0 as usize].queue.len() >= self.listens[listen.0 as usize].backlog {
            self.metrics.syn_drops.inc();
            return;
        }
        let id = ConnId(self.conns.len() as u32);
        self.conns.push(Connection::new(
            id,
            agent,
            client_bps,
            rtt_ns,
            self.cfg.net.sendbuf_bytes,
        ));
        self.agent_outbox
            .push_back((agent, AgentEvent::Connected(id)));
        let l = &mut self.listens[listen.0 as usize];
        l.queue.push_back(id);
        if let Some(w) = l.accept_waiters.pop_front() {
            let conn = self.listens[listen.0 as usize]
                .queue
                .pop_front()
                .expect("just pushed");
            self.metrics.conns_accepted.inc();
            self.wake_with(w, Completion::Accepted(conn));
        } else {
            self.notify_fd_ready(Fd::Listen(listen));
        }
    }

    pub(crate) fn handle_proc_timer(&mut self, pid: Pid) {
        if self.procs.get(pid).state == ProcState::Sleeping {
            self.wake_with(pid, Completion::TimerFired);
        }
    }

    // ---------------------------------------------------------------
    // Agent-side API (client machines; no server CPU is charged)
    // ---------------------------------------------------------------

    /// Starts a connection attempt from `agent` to `listen` over a link
    /// of `client_bps` with round-trip `rtt_ns`. The agent receives
    /// [`AgentEvent::Connected`] when the SYN lands.
    pub fn agent_connect(
        &mut self,
        agent: AgentId,
        listen: ListenId,
        client_bps: u64,
        rtt_ns: Nanos,
    ) {
        self.queue.schedule_in(
            rtt_ns / 2,
            KEvent::SynArrive {
                listen,
                agent,
                client_bps,
                rtt_ns,
            },
        );
    }

    /// Sends `bytes` of request data from the client to the server,
    /// tagged with an opaque request `token` (typically a file-set index)
    /// that the server logic receives once the bytes arrive.
    pub fn agent_send(&mut self, conn: ConnId, bytes: u64, token: u64) {
        let c = &self.conns[conn.0 as usize];
        let delay = c.rtt_ns / 2 + wire_time(bytes, c.client_bps);
        self.queue
            .schedule_in(delay, KEvent::InboundArrive { conn, bytes, token });
    }
}

/// The page span covering `[offset, offset + len)` (at least one page for
/// zero-length bodies so callers can treat empty files uniformly).
fn page_range(offset: u64, len: u64) -> (u64, u64) {
    let first = offset / PAGE_SIZE;
    if len == 0 {
        return (first, 1);
    }
    let last = (offset + len - 1) / PAGE_SIZE;
    (first, last - first + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_range_spans() {
        assert_eq!(page_range(0, 1), (0, 1));
        assert_eq!(page_range(0, PAGE_SIZE), (0, 1));
        assert_eq!(page_range(0, PAGE_SIZE + 1), (0, 2));
        assert_eq!(page_range(PAGE_SIZE - 1, 2), (0, 2));
        assert_eq!(page_range(3 * PAGE_SIZE, 0), (3, 1));
        assert_eq!(page_range(10_000, 10_000), (2, 3));
    }

    #[test]
    fn kernel_constructs_with_full_cache() {
        let k = Kernel::new(MachineConfig::freebsd());
        let expect = (128 - 20) * 1024 * 1024 / PAGE_SIZE;
        assert_eq!(k.cache.capacity(), expect);
    }

    #[test]
    fn app_memory_shrinks_cache() {
        let mut k = Kernel::new(MachineConfig::freebsd());
        let before = k.cache.capacity();
        k.set_app_mem(32 * 1024 * 1024);
        assert_eq!(before - k.cache.capacity(), 32 * 1024 * 1024 / PAGE_SIZE);
    }

    #[test]
    fn listen_and_pipe_ids_are_sequential() {
        let mut k = Kernel::new(MachineConfig::freebsd());
        assert_eq!(k.add_listen(), ListenId(0));
        assert_eq!(k.add_listen(), ListenId(1));
        assert_eq!(k.add_pipe(), PipeId(0));
        assert_eq!(k.add_pipe(), PipeId(1));
    }
}
