//! The shared helper pool of the AMPED server: per-shard job lanes
//! popped round-robin ([`JobQueue`]), the coalescing wake handle that
//! routes a completion back to its shard ([`WakeHandle`]), the shard's
//! [`HelperPort`] ([`PoolPort`], over whatever environment the shard
//! runs in — the real one or the simulated kernel), and the helper
//! threads' main loop.
//!
//! Helpers do what would block the loop, and nothing else ([`Work`]):
//! the filesystem calls of a miss whose file is not in memory, the
//! `fork`+`exec` of a cold application worker and the `kill`+`waitpid`
//! of a retired one. A dynamic *exchange* is none of those — a shard
//! speaks to its workers' sockets itself (`workerset.rs`) — so a
//! dynamic job never enters the queue.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use crate::appworker::Worker;
use crate::conn::{Done, HelperJob, HelperPort, JobKind};
use crate::server::{Env, FileOf};
use crate::workerset::WorkerSet;

/// The write side of a shard's wake socketpair, with a coalescing
/// flag: a producer writes the wake byte only when it is the first to
/// make the shard's work queues non-empty since the shard last
/// drained, so a burst of completions floods neither the pipe nor the
/// shard's event loop.
#[derive(Clone)]
pub(crate) struct WakeHandle {
    tx: Arc<UnixStream>,
    pub(crate) pending: Arc<AtomicBool>,
}

impl WakeHandle {
    pub(crate) fn new(tx: UnixStream) -> Self {
        WakeHandle {
            tx: Arc::new(tx),
            pending: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wakes the shard unless a wake is already pending.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&*self.tx).write_all(b".");
        }
    }

    /// Unconditional wake (shutdown path — must never be elided).
    pub(crate) fn wake_force(&self) {
        let _ = (&*self.tx).write_all(b"q");
    }
}

/// What a shard asks of a helper: the calls that would block its loop.
pub(crate) enum Work<W = Worker> {
    /// The filesystem work of one of the protocol core's jobs.
    Job(HelperJob),
    /// `fork` + `exec` one application worker for the shard's set.
    Spawn,
    /// `kill` + `waitpid` a worker the shard has retired (and already
    /// taken out of its readiness set).
    Reap(W),
}

/// What a helper sends back to the shard that asked.
pub(crate) enum Reply<F = Arc<File>, W = Worker> {
    Done(Done<F>),
    Spawned(io::Result<W>),
}

/// One queued unit of helper work plus the driver-side routing tag —
/// which shard's reply queue the result goes back to.
struct Queued {
    shard: usize,
    work: Work,
}

/// A shard's [`HelperPort`]. Each submitted filesystem job first
/// meets the environment's residency test ([`Env::try_inline`]; on the
/// real server [`crate::fsjob::exec_job_nowait`] — the paper's
/// `mincore` step — through the shard's open-file table): a job it can
/// answer without blocking is completed on the spot and parked in
/// `inline_done` for the shard to apply before this loop turn ends.
/// Only a job the disk would block — or whose answer is an error — goes
/// to the helpers ([`Env::push`]), which resolve by path and know
/// nothing of the table. A dynamic job goes to neither: the shard's own
/// worker set takes it.
pub(crate) struct PoolPort<E: Env> {
    /// The environment: the helpers, the residency test, the clock.
    pub(crate) env: E,
    /// Completions of jobs answered without a hand-off, awaiting
    /// the shard's inline-completion loop.
    pub(crate) inline_done: Vec<Done<FileOf<E>>>,
    /// The shard's application workers, touched by the loop's thread
    /// alone, no lock. `None` without a
    /// [`crate::NetConfig::dynamic_prefix`] — the core then dispatches
    /// no dynamic job.
    pub(crate) workers: Option<WorkerSet<E>>,
}

impl<E: Env> HelperPort for PoolPort<E> {
    fn submit(&mut self, job: HelperJob) {
        if job.kind == JobKind::Dynamic {
            if let Some(workers) = self.workers.as_mut() {
                return workers.submit(job, &mut self.env);
            }
        }
        match self.env.try_inline(&job) {
            Some(data) => self.inline_done.push(job.done(data)),
            None => self.env.push(Work::Job(job)),
        }
    }
}

/// The shared helper-pool queue: one FIFO lane per shard, popped
/// **round-robin by shard**. A single global FIFO let one cold-cache
/// shard fill the queue and make every other shard's misses wait
/// behind its backlog; rotating over lanes bounds any shard's
/// head-of-line damage to one job per rotation while preserving FIFO
/// order within a shard.
pub(crate) struct JobQueue {
    lanes: Mutex<JobLanes>,
    ready: Condvar,
}

struct JobLanes {
    queues: Vec<VecDeque<Queued>>,
    /// Next lane to serve; advances past each lane that yields a job.
    cursor: usize,
    queued: usize,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new(n_shards: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            lanes: Mutex::new(JobLanes {
                queues: (0..n_shards).map(|_| VecDeque::new()).collect(),
                cursor: 0,
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Queues `work` in `shard`'s lane; refused (dropped) once the
    /// queue is closed, which is after the last shard has exited.
    pub(crate) fn push(&self, shard: usize, work: Work) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if lanes.closed {
            return;
        }
        lanes.queues[shard].push_back(Queued { shard, work });
        lanes.queued += 1;
        drop(lanes);
        self.ready.notify_one();
    }

    /// Blocks for the next job in shard-rotation order; `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<Queued> {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = pop_round_robin(&mut lanes) {
                return Some(job);
            }
            if lanes.closed {
                return None;
            }
            lanes = self.ready.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every blocked helper; subsequent pops drain then end.
    pub(crate) fn close(&self) {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Takes the next job starting at the rotation cursor, advancing the
/// cursor past the lane served so consecutive pops visit lanes fairly.
fn pop_round_robin(lanes: &mut JobLanes) -> Option<Queued> {
    if lanes.queued == 0 {
        return None;
    }
    let n = lanes.queues.len();
    for k in 0..n {
        let lane = (lanes.cursor + k) % n;
        if let Some(job) = lanes.queues[lane].pop_front() {
            lanes.cursor = (lane + 1) % n;
            lanes.queued -= 1;
            return Some(job);
        }
    }
    None
}

/// Shared helper pool: pops work in shard rotation, does the one
/// blocking thing it names, and routes the result back to the shard
/// that asked. No tier or variant policy lives here — a job carries it
/// all to the mechanical executor ([`crate::fsjob`]) — and nothing of
/// the worker protocol: a worker is forked here and reaped here, and
/// spoken to elsewhere.
pub(crate) fn helper_main(
    jobs: Arc<JobQueue>,
    reply_txs: Vec<Sender<Reply>>,
    wakes: Vec<WakeHandle>,
    worker_command: Arc<[String]>,
) {
    // `pop` rotates over the per-shard lanes; `None` means the server
    // closed the queue at shutdown.
    while let Some(Queued { shard, work }) = jobs.pop() {
        let reply = match work {
            // A job whose last waiter was reaped while it sat in the
            // queue needs no disk work and no completion: its pending
            // entry is already gone, so a Done would die on token
            // mismatch anyway.
            Work::Job(job) if job.is_cancelled() => continue,
            Work::Job(job) => {
                let data = crate::fsjob::exec_job(&job);
                Reply::Done(job.done(data))
            }
            Work::Spawn => Reply::Spawned(Worker::spawn(&worker_command, false)),
            Work::Reap(worker) => {
                drop(worker); // kills, and waits for the corpse
                continue;
            }
        };
        // A shard that has exited takes no replies; a worker spawned
        // for it dies with the refused message.
        if reply_txs[shard].send(reply).is_ok() {
            wakes[shard].wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Variant;
    use std::path::PathBuf;

    fn job(path: String, token: u64) -> Work {
        Work::Job(HelperJob {
            path,
            fs_path: PathBuf::new(),
            kind: JobKind::Load,
            variant: Variant::Identity,
            inline_max: u64::MAX,
            epoch: 0,
            token,
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    fn push(q: &JobQueue, shard: usize) {
        q.push(shard, job(format!("/{shard}"), 0));
    }

    #[test]
    fn job_queue_rotates_across_shards() {
        let q = JobQueue::new(3);
        // Shard 0 floods its lane; shard 2 queues two jobs.
        for _ in 0..4 {
            push(&q, 0);
        }
        push(&q, 2);
        push(&q, 2);
        let mut order = Vec::new();
        {
            let mut lanes = q.lanes.lock().unwrap();
            while let Some(queued) = pop_round_robin(&mut lanes) {
                order.push(queued.shard);
            }
        }
        // Rotation bounds shard 0's head-of-line damage to one job per
        // visit: the starved shard is served every other pop, not
        // after the whole backlog.
        assert_eq!(order, vec![0, 2, 0, 2, 0, 0]);
    }

    #[test]
    fn job_queue_preserves_fifo_within_a_shard() {
        let q = JobQueue::new(2);
        for i in 0..3 {
            q.push(0, job(format!("/a{i}"), i));
        }
        let mut lanes = q.lanes.lock().unwrap();
        let paths: Vec<String> = std::iter::from_fn(|| pop_round_robin(&mut lanes))
            .map(|queued| match queued.work {
                Work::Job(job) => job.path,
                _ => unreachable!("only jobs were queued"),
            })
            .collect();
        assert_eq!(paths, vec!["/a0", "/a1", "/a2"]);
    }

    #[test]
    fn job_queue_close_releases_poppers() {
        let q = JobQueue::new(1);
        push(&q, 0);
        q.close();
        // Closed but not drained: the queued job still comes out...
        assert!(q.pop().is_some());
        // ...then pops end instead of blocking forever.
        assert!(q.pop().is_none());
        // And pushes after close are refused.
        push(&q, 0);
        assert!(q.pop().is_none());
    }
}
