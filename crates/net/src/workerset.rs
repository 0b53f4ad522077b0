//! A shard's own application workers: the dynamic tier as the paper
//! has it (§5.6) — the worker's reply pipe sits in the event loop's
//! readiness set beside the client sockets, and the loop relays what
//! it says "just like static content".
//!
//! One set per shard, touched by that shard's thread alone (the
//! ownership rule of its open-file table), holding at most
//! [`crate::NetConfig::helpers`] live workers. A worker is two
//! nonblocking pipes to the shard (`appworker.rs`): its reply pipe is
//! registered **once**, when the helper that forked it hands it over,
//! under a token of its own ([`worker_token`]) and for reading only;
//! its request pipe is only ever written. From then on a warm exchange
//! is one `write` into the request pipe (the request line, at
//! [`WorkerSet::submit`]) and one `read` off the reply pipe (the
//! readable event that brings the frames, [`WorkerSet::on_readable`]),
//! with no interest change, no thread switch and no wake byte. Its frames join
//! the shard's one completion queue ([`DoneQueue`]) beside the
//! residency test's answers and the helpers' replies, and reach the
//! core through the same `ShardCore::complete_job`, so the core cannot
//! tell who ran the exchange.
//!
//! What the loop enforces, having no helper to do it:
//!
//! * **a busy set queues** — jobs wait FIFO for a worker, under the
//!   `dynamic_deadline` the core armed for their connections;
//! * **a cancelled exchange dies with the turn** — the shard sweeps
//!   ([`WorkerSet::drop_cancelled`]) at the end of every loop turn, so
//!   the worker of a job whose waiter was purged in that turn is
//!   retired before the next wait, silently. A waiter is purged by its
//!   deadline, by its connection's close, and by its client's hang-up
//!   while the worker is still at work: the parked connection stays
//!   watched, and the core counts a hang-up on a request a worker owns
//!   as a client abort;
//! * **a worker speaks only when spoken to** — EOF, garbage, a refused
//!   request line (one it took only part of, or `EPIPE`: it no longer
//!   reads its stdin), or anything at all readable on an idle worker
//!   (its death, or bytes behind an `END`) retires it, counted as
//!   `worker_respawns`;
//! * **one worker cannot hold the loop** — a readable event is worth
//!   [`READS_PER_EVENT`] reads, then the descriptor is re-armed and the
//!   loop moves on.
//!
//! **Who owns the relay's bytes.** A warm exchange allocates nothing.
//! The request line is written from the job's own path into one
//! buffer the set keeps and overwrites. A read lands in the set's one
//! read buffer and is copied once into the worker's frame parser,
//! which each worker keeps for its life; a `DATA` payload leaves the
//! parser as a [`bytes::Bytes`] view of that parser's buffer, not a
//! copy, and travels as such through the completion queue onto the
//! connection's output queue. Once the connection has sent it — in the
//! same turn, on a warm keep-alive — the view drops, and the parser's
//! next read reuses the buffer ([`bytes::BytesMut`]); a view a slow
//! client still holds only makes that read copy into a fresh buffer.
//! A completion names its job by token alone, so no path is cloned
//! per chunk.
//!
//! Nothing here forks, kills or reaps (`tests/driver_audit.rs`): a
//! cold worker is asked of the helper pool ([`Work::Spawn`]) and a
//! retired one given to it ([`Work::Reap`]), the pool doing for
//! processes what it does for disks — the calls that block. The set is
//! generic over the shard's environment ([`Env`]): on the real server a
//! worker is a child process behind a pipe pair, in the sim an
//! endpoint of the simulated kernel that writes the same frames.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

use crate::appworker::{request_line, Frame, FrameParser};
use crate::conn::{Done, DynEvent, HelperJob, ShardStats};
use crate::event::{EventBackend, Interest};
use crate::pool::{DoneQueue, Work};
use crate::server::{bump, Env};

/// Worker tokens carry the slot half no connection can have (2^32-1,
/// as the wake pipe's and the listener's do) and the worker's index in
/// its set where a connection has its descriptor — far below the two
/// values those tokens use.
pub(crate) const WORKER_TOKEN_BASE: u64 = (u32::MAX as u64) << 32;

/// The token worker `slot` of a set is registered under.
pub(crate) fn worker_token(slot: usize) -> u64 {
    WORKER_TOKEN_BASE | slot as u64
}

/// Bytes asked of a worker's reply pipe per read.
const READ_CHUNK: usize = 16 * 1024;

/// Reads one readable event is worth before the loop moves on.
const READS_PER_EVENT: usize = 16;

/// One live worker, registered with the shard's backend.
struct Slot<W> {
    worker: W,
    /// The frames it sends, kept from one exchange to the next with
    /// the buffer they are split off.
    parser: FrameParser,
    /// The job of the exchange it is in; `None` while idle.
    job: Option<HelperJob>,
}

pub(crate) struct WorkerSet<E: Env> {
    /// As many slots as the set may have live workers; worker `i` is
    /// registered under `worker_token(i)`.
    slots: Vec<Option<Slot<E::Worker>>>,
    /// Workers asked of the helper pool and not handed over yet.
    spawning: usize,
    /// Jobs waiting for a worker, oldest first.
    queue: VecDeque<HelperJob>,
    /// Retired workers, still registered and still alive: the shard
    /// deregisters them and hands them on at the end of the turn
    /// ([`WorkerSet::bury`]).
    pub(crate) morgue: Vec<E::Worker>,
    chunk: Box<[u8; READ_CHUNK]>,
    /// The request line being written, over the last one.
    line: Vec<u8>,
    stats: Arc<ShardStats>,
}

impl<E: Env> WorkerSet<E> {
    pub(crate) fn new(ceiling: usize, stats: Arc<ShardStats>) -> WorkerSet<E> {
        WorkerSet {
            slots: (0..ceiling).map(|_| None).collect(),
            spawning: 0,
            queue: VecDeque::new(),
            morgue: Vec::new(),
            chunk: Box::new([0; READ_CHUNK]),
            line: Vec::new(),
            stats,
        }
    }

    /// Takes one dynamic job: straight to an idle worker if there is
    /// one, else behind the jobs already waiting.
    pub(crate) fn submit(&mut self, job: HelperJob, env: &mut E, done: &mut DoneQueue<E>) {
        self.queue.push_back(job);
        self.pump(env, done);
    }

    /// Takes the worker a helper forked for this set — or its failure
    /// to, which fails the oldest waiting job as a `500` — and registers
    /// it: the one interest-set call of its life.
    pub(crate) fn adopt(
        &mut self,
        spawned: io::Result<E::Worker>,
        backend: &mut E::Backend,
        env: &mut E,
        done: &mut DoneQueue<E>,
    ) {
        self.spawning = self.spawning.saturating_sub(1);
        let adopted = spawned.and_then(|worker| {
            // Live and asked-for workers together never outnumber the
            // slots, so one is free.
            let registered = match self.slots.iter().position(Option::is_none) {
                Some(slot) => {
                    bump(&self.stats.ctl_calls);
                    let fd = worker.as_raw_fd();
                    backend
                        .register(fd, worker_token(slot), Interest::READ)
                        .map(|()| slot)
                }
                None => Err(io::Error::other("no free worker slot")),
            };
            match registered {
                Ok(slot) => {
                    self.slots[slot] = Some(Slot {
                        worker,
                        parser: FrameParser::default(),
                        job: None,
                    });
                    Ok(())
                }
                Err(e) => {
                    self.morgue.push(worker);
                    Err(e)
                }
            }
        });
        if adopted.is_err() {
            if let Some(job) = self.next_job() {
                finish(job, false, done);
            }
        }
        self.pump(env, done);
    }

    /// Reads what worker `slot` has to say — to dry, or for
    /// [`READS_PER_EVENT`] reads — and queues it as completions.
    /// `hangup`: the event says an end of stream is queued, which a
    /// short read does not rule out ([`crate::event`], rule 1).
    pub(crate) fn on_readable(
        &mut self,
        slot: usize,
        hangup: bool,
        backend: &mut E::Backend,
        env: &mut E,
        done: &mut DoneQueue<E>,
    ) {
        for reads in 0.. {
            let Some(live) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                break; // a stale token, or retired below
            };
            if reads == READS_PER_EVENT {
                // The edge is spent and the pipe is not dry.
                bump(&self.stats.ctl_calls);
                let fd = live.worker.as_raw_fd();
                if backend
                    .rearm(fd, worker_token(slot), Interest::READ)
                    .is_err()
                {
                    self.retire(slot, Some(false), done);
                }
                break;
            }
            bump(&self.stats.worker_io_calls);
            let n = match live.worker.read(&mut self.chunk[..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => 0,
            };
            // EOF or a dead pipe — or an idle worker with something
            // to say: it died, or it wrote behind its `END`.
            let Some(job) = live.job.as_ref().filter(|_| n > 0) else {
                self.retire(slot, Some(false), done);
                break;
            };
            live.parser.push(&self.chunk[..n]);
            let ended = loop {
                match live.parser.pop() {
                    Some(Frame::Data(body)) => done.push_back(job.event(DynEvent::Chunk(body))),
                    Some(Frame::End) => break Some(true),
                    Some(Frame::Corrupt) => break Some(false),
                    None => break None,
                }
            };
            if ended == Some(true) && !live.parser.has_leftover() {
                if let Some(job) = live.job.take() {
                    finish(job, true, done);
                }
            } else if ended.is_some() {
                self.retire(slot, ended, done);
                break;
            }
            if n < READ_CHUNK && !hangup {
                break; // dry: what comes next raises an event of its own
            }
        }
        self.pump(env, done);
    }

    /// Retires the worker of every exchange whose job has been
    /// cancelled — the core purged its waiter: the client went away or
    /// hung up, or the deadline fired — without a word to anyone, and forgets the
    /// cancelled jobs still waiting for a worker.
    pub(crate) fn drop_cancelled(&mut self, env: &mut E, done: &mut DoneQueue<E>) {
        self.queue.retain(|job| !job.is_cancelled());
        for slot in 0..self.slots.len() {
            let cancelled = self.slots[slot]
                .as_ref()
                .and_then(|live| live.job.as_ref())
                .is_some_and(HelperJob::is_cancelled);
            if cancelled {
                self.retire(slot, None, done);
            }
        }
        self.pump(env, done);
    }

    /// Takes the retired workers out of the readiness set and gives
    /// them to the helper pool to kill and reap.
    pub(crate) fn bury(&mut self, backend: &mut E::Backend, env: &mut E) {
        for worker in self.morgue.drain(..) {
            bump(&self.stats.ctl_calls);
            let _ = backend.deregister(worker.as_raw_fd());
            env.push(Work::Reap(worker));
        }
    }

    /// Starts waiting jobs on idle workers, oldest job first, and asks
    /// the helper pool for as many more workers as the jobs left over
    /// need and the ceiling allows.
    fn pump(&mut self, env: &mut E, done: &mut DoneQueue<E>) {
        for slot in 0..self.slots.len() {
            if self.queue.is_empty() {
                return;
            }
            if matches!(&self.slots[slot], Some(live) if live.job.is_none()) {
                if let Some(job) = self.next_job() {
                    self.begin(slot, job, done);
                }
            }
        }
        let live = self.slots.iter().flatten().count();
        while self.spawning < self.queue.len() && live + self.spawning < self.slots.len() {
            self.spawning += 1;
            env.push(Work::Spawn);
        }
    }

    /// The oldest waiting job nobody has cancelled.
    fn next_job(&mut self) -> Option<HelperJob> {
        while let Some(job) = self.queue.pop_front() {
            if !job.is_cancelled() {
                return Some(job);
            }
        }
        None
    }

    /// Opens an exchange on idle worker `slot`: the request line, in
    /// one `write`. A worker that does not take all of it at once —
    /// its request pipe is empty, and holds far more than the longest
    /// line the parser admits — is not reading, and one whose pipe has
    /// no reader is `EPIPE`; either is retired and the request fails
    /// as a `500`.
    fn begin(&mut self, slot: usize, job: HelperJob, done: &mut DoneQueue<E>) {
        let Some(live) = self.slots[slot].as_mut() else {
            return;
        };
        bump(&self.stats.inline_jobs);
        bump(&self.stats.worker_io_calls);
        request_line(&job, &mut self.line);
        if matches!(live.worker.write(&self.line), Ok(n) if n == self.line.len()) {
            live.job = Some(job);
        } else {
            self.retire(slot, None, done);
            finish(job, false, done);
        }
    }

    /// Takes worker `slot` out of service — it goes to the morgue, and
    /// counts as a respawn — and ends the exchange it was in, if any,
    /// as `clean` says; `None` ends it silently (a cancelled job takes
    /// no completion).
    fn retire(&mut self, slot: usize, clean: Option<bool>, done: &mut DoneQueue<E>) {
        let Some(live) = self.slots[slot].take() else {
            return;
        };
        bump(&self.stats.worker_respawns);
        self.morgue.push(live.worker);
        if let (Some(job), Some(clean)) = (live.job, clean) {
            finish(job, clean, done);
        }
    }
}

/// Queues the `End` that closes `job`'s completion stream.
fn finish<F>(job: HelperJob, clean: bool, done: &mut VecDeque<Done<F>>) {
    done.push_back(job.event(DynEvent::End { clean }));
}
