//! A shard's own application workers: the dynamic tier as the paper
//! has it (§5.6) — the worker's descriptor sits in the event loop's
//! readiness set beside the client sockets, and the loop relays what
//! it says "just like static content".
//!
//! One set per shard, touched by that shard's thread alone (the
//! ownership rule of its open-file table), holding at most
//! [`crate::NetConfig::helpers`] live workers. A worker's non-blocking
//! socket is registered **once**, when the helper that forked it hands
//! it over, under a token of its own ([`worker_token`]) and for reading
//! only; from then on a warm exchange is one `write` (the request
//! line, at [`WorkerSet::submit`]) and one `read` (the readable event
//! that brings the frames, [`WorkerSet::on_readable`]), with no
//! interest change, no thread switch and no wake byte. Completions go
//! through [`WorkerSet::outbox`] to the same `ShardCore::complete_job`
//! a helper's reply takes, so the core cannot tell who ran the
//! exchange.
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
//!   request line, or anything at all readable on an idle worker (its
//!   death, or bytes behind an `END`) retires it, counted as
//!   `worker_respawns`;
//! * **one worker cannot hold the loop** — a readable event is worth
//!   [`READS_PER_EVENT`] reads, then the descriptor is re-armed and the
//!   loop moves on.
//!
//! Nothing here forks, kills or reaps (`tests/driver_audit.rs`): a
//! cold worker is asked of the helper pool ([`Work::Spawn`]) and a
//! retired one given to it ([`Work::Reap`]), the pool doing for
//! processes what it does for disks — the calls that block. The set is
//! generic over the shard's environment ([`Env`]): on the real server a
//! worker is a child process behind a socketpair, in the sim an
//! endpoint of the simulated kernel that writes the same frames.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::appworker::{request_line, Frame, FrameParser};
use crate::conn::{Done, DoneData, DynEvent, HelperJob, ShardStats};
use crate::event::{EventBackend, Interest};
use crate::pool::Work;
use crate::server::{Env, FileOf};

/// Worker tokens carry the slot half no connection can have (2^32-1,
/// as the wake pipe's and the listener's do) and the worker's index in
/// its set where a connection has its descriptor — far below the two
/// values those tokens use.
pub(crate) const WORKER_TOKEN_BASE: u64 = (u32::MAX as u64) << 32;

/// The token worker `slot` of a set is registered under.
pub(crate) fn worker_token(slot: usize) -> u64 {
    WORKER_TOKEN_BASE | slot as u64
}

/// Bytes asked of a worker's socket per read.
const READ_CHUNK: usize = 16 * 1024;

/// Reads one readable event is worth before the loop moves on.
const READS_PER_EVENT: usize = 16;

/// One live worker, registered with the shard's backend.
struct Slot<W> {
    worker: W,
    /// The exchange it is in; `None` while idle — an idle worker holds
    /// no buffer.
    exchange: Option<Exchange>,
}

struct Exchange {
    job: HelperJob,
    parser: FrameParser,
}

pub(crate) struct WorkerSet<E: Env> {
    /// As many slots as the set may have live workers; worker `i` is
    /// registered under `worker_token(i)`.
    slots: Vec<Option<Slot<E::Worker>>>,
    /// Workers asked of the helper pool and not handed over yet.
    spawning: usize,
    /// Jobs waiting for a worker, oldest first.
    queue: VecDeque<HelperJob>,
    /// Completions for the shard to apply, oldest first.
    pub(crate) outbox: VecDeque<Done<FileOf<E>>>,
    /// Retired workers, still registered and still alive: the shard
    /// deregisters them and hands them on at the end of the turn
    /// ([`WorkerSet::bury`]).
    morgue: Vec<E::Worker>,
    chunk: Box<[u8; READ_CHUNK]>,
    stats: Arc<ShardStats>,
}

impl<E: Env> WorkerSet<E> {
    pub(crate) fn new(ceiling: usize, stats: Arc<ShardStats>) -> WorkerSet<E> {
        WorkerSet {
            slots: (0..ceiling).map(|_| None).collect(),
            spawning: 0,
            queue: VecDeque::new(),
            outbox: VecDeque::new(),
            morgue: Vec::new(),
            chunk: Box::new([0; READ_CHUNK]),
            stats,
        }
    }

    /// Takes one dynamic job: straight to an idle worker if there is
    /// one, else behind the jobs already waiting.
    pub(crate) fn submit(&mut self, job: HelperJob, env: &mut E) {
        self.queue.push_back(job);
        self.pump(env);
    }

    /// Takes the worker a helper forked for this set — or its failure
    /// to, which fails the oldest waiting job as a `500` — and registers
    /// it: the one interest-set call of its life.
    pub(crate) fn adopt(
        &mut self,
        spawned: io::Result<E::Worker>,
        backend: &mut E::Backend,
        env: &mut E,
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
                        exchange: None,
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
                self.finish(job, false);
            }
        }
        self.pump(env);
    }

    /// Reads what worker `slot` has to say — to dry, or for
    /// [`READS_PER_EVENT`] reads — and turns it into completions.
    /// `hangup`: the event says an end of stream is queued, which a
    /// short read does not rule out ([`crate::event`], rule 1).
    pub(crate) fn on_readable(
        &mut self,
        slot: usize,
        hangup: bool,
        backend: &mut E::Backend,
        env: &mut E,
    ) {
        for reads in 0.. {
            let Some(live) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                break; // a stale token, or retired below
            };
            if reads == READS_PER_EVENT {
                // The edge is spent and the socket is not dry.
                bump(&self.stats.ctl_calls);
                let fd = live.worker.as_raw_fd();
                if backend
                    .rearm(fd, worker_token(slot), Interest::READ)
                    .is_err()
                {
                    self.retire(slot, Some(false));
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
            // EOF or a dead socket — or an idle worker with something
            // to say: it died, or it wrote behind its `END`.
            let Some(exchange) = live.exchange.as_mut().filter(|_| n > 0) else {
                self.retire(slot, Some(false));
                break;
            };
            exchange.parser.push(&self.chunk[..n]);
            let mut ended = None;
            while let Some(frame) = exchange.parser.pop() {
                match frame {
                    Frame::Data(body) => self.outbox.push_back(Done {
                        path: exchange.job.path.clone(),
                        data: DoneData::Dynamic(DynEvent::Chunk(Bytes::from(body))),
                        epoch: exchange.job.epoch,
                        token: exchange.job.token,
                    }),
                    Frame::End => ended = Some(true),
                    Frame::Corrupt => ended = Some(false),
                }
                if ended.is_some() {
                    break;
                }
            }
            if ended == Some(true) && !exchange.parser.has_leftover() {
                if let Some(done) = live.exchange.take() {
                    self.finish(done.job, true);
                }
            } else if ended.is_some() {
                self.retire(slot, ended);
                break;
            }
            if n < READ_CHUNK && !hangup {
                break; // dry: what comes next raises an event of its own
            }
        }
        self.pump(env);
    }

    /// Retires the worker of every exchange whose job has been
    /// cancelled — the core purged its waiter: the client went away or
    /// hung up, or the deadline fired — without a word to anyone, and forgets the
    /// cancelled jobs still waiting for a worker.
    pub(crate) fn drop_cancelled(&mut self, env: &mut E) {
        self.queue.retain(|job| !job.is_cancelled());
        for slot in 0..self.slots.len() {
            let cancelled = self.slots[slot]
                .as_ref()
                .and_then(|live| live.exchange.as_ref())
                .is_some_and(|exchange| exchange.job.is_cancelled());
            if cancelled {
                self.retire(slot, None);
            }
        }
        self.pump(env);
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
    fn pump(&mut self, env: &mut E) {
        for slot in 0..self.slots.len() {
            if self.queue.is_empty() {
                return;
            }
            if matches!(&self.slots[slot], Some(live) if live.exchange.is_none()) {
                if let Some(job) = self.next_job() {
                    self.begin(slot, job);
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
    /// its socket buffer is empty — is not reading; it is retired and
    /// the request fails as a `500`.
    fn begin(&mut self, slot: usize, job: HelperJob) {
        let Some(live) = self.slots[slot].as_mut() else {
            return;
        };
        bump(&self.stats.inline_jobs);
        bump(&self.stats.worker_io_calls);
        let line = request_line(&job);
        if matches!(live.worker.write(&line), Ok(n) if n == line.len()) {
            live.exchange = Some(Exchange {
                job,
                parser: FrameParser::default(),
            });
        } else {
            self.retire(slot, None);
            self.finish(job, false);
        }
    }

    /// Takes worker `slot` out of service — it goes to the morgue, and
    /// counts as a respawn — and ends the exchange it was in, if any,
    /// as `clean` says; `None` ends it silently (a cancelled job takes
    /// no completion).
    fn retire(&mut self, slot: usize, clean: Option<bool>) {
        let Some(live) = self.slots[slot].take() else {
            return;
        };
        bump(&self.stats.worker_respawns);
        self.morgue.push(live.worker);
        if let (Some(exchange), Some(clean)) = (live.exchange, clean) {
            self.finish(exchange.job, clean);
        }
    }

    /// Queues the `End` that closes `job`'s completion stream.
    fn finish(&mut self, job: HelperJob, clean: bool) {
        let end = DoneData::Dynamic(DynEvent::End { clean });
        self.outbox.push_back(job.done(end));
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}
