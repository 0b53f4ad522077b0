//! The shared helper pool of the AMPED server: per-shard job lanes
//! popped round-robin ([`JobQueue`]), the coalescing wake handle that
//! routes a completion back to its shard ([`WakeHandle`]), the shard's
//! [`HelperPort`] with its residency test ([`PoolPort`]), and the
//! helper threads' main loop.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use crate::conn::{Done, HelperJob, HelperPort, ShardStats};
use crate::fsjob::OpenFileTable;

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

/// One queued unit of helper work: the protocol core's [`HelperJob`]
/// plus the driver-side routing tag — which shard's done queue the
/// completion goes back to.
struct Job {
    /// Which shard's done queue the completion routes back to.
    shard: usize,
    job: HelperJob,
}

/// The real [`HelperPort`]. Each submitted job first meets the
/// residency test ([`crate::fsjob::exec_job_nowait`] — the paper's
/// `mincore` step): a file whose lookup and bytes are already in
/// memory is read on the spot — through the shard's open-file table,
/// so a file served before is not even looked up again — and its
/// completion parked in `inline_done` for the shard to apply before
/// this loop turn ends. Only a job the disk would block — or whose
/// answer is an error — is wrapped with the shard's routing tag and
/// pushed into that shard's lane of the shared [`JobQueue`]; helpers
/// resolve by path and know nothing of the table.
pub(crate) struct PoolPort {
    pub(crate) jobs: Arc<JobQueue>,
    pub(crate) shard: usize,
    /// Completions of jobs answered without a hand-off, awaiting
    /// the shard's inline-completion loop.
    pub(crate) inline_done: Vec<Done<Arc<File>>>,
    /// The shard's open-file table: read and written only here, on
    /// the event-loop thread, so it takes no lock. The shard driver
    /// clears it on a docroot reload, when the process runs out of
    /// descriptors, and at exit.
    pub(crate) files: OpenFileTable,
}

impl HelperPort for PoolPort {
    fn submit(&mut self, job: HelperJob) {
        match crate::fsjob::exec_job_nowait(&job, &mut self.files) {
            Some(data) => self.inline_done.push(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            }),
            None => self.jobs.push(Job {
                shard: self.shard,
                job,
            }),
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
    queues: Vec<VecDeque<Job>>,
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

    fn push(&self, job: Job) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if lanes.closed {
            return;
        }
        let lane = job.shard;
        lanes.queues[lane].push_back(job);
        lanes.queued += 1;
        drop(lanes);
        self.ready.notify_one();
    }

    /// Blocks for the next job in shard-rotation order; `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
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
fn pop_round_robin(lanes: &mut JobLanes) -> Option<Job> {
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

/// Shared helper pool: pops jobs and hands each to the shared
/// mechanical executor ([`crate::fsjob`]), routing the completion back
/// to the shard that requested it. No tier or variant policy lives
/// here — the job carries it all.
pub(crate) fn helper_main(
    jobs: Arc<JobQueue>,
    done_txs: Vec<Sender<Done<Arc<File>>>>,
    wakes: Vec<WakeHandle>,
    workers: Arc<crate::appworker::WorkerPool>,
    stats: Vec<Arc<ShardStats>>,
) {
    // `pop` rotates over the per-shard lanes; `None` means the server
    // closed the queue at shutdown.
    while let Some(Job { shard, job }) = jobs.pop() {
        // A job whose last waiter was reaped while it sat in the queue
        // needs no disk work and no completion: its pending entry is
        // already gone, so a Done would die on token mismatch anyway.
        if job.is_cancelled() {
            continue;
        }
        // Dynamic jobs are multi-event streams the single-shot
        // filesystem executor cannot express: the worker exchange runs
        // here, on this helper thread, emitting one completion per
        // frame under the job's single token.
        if job.kind == crate::conn::JobKind::Dynamic {
            let tx = &done_txs[shard];
            let wake = &wakes[shard];
            let retired = crate::appworker::run_job(&workers, &job, &mut |ev| {
                if tx
                    .send(Done {
                        path: job.path.clone(),
                        data: crate::conn::DoneData::Dynamic(ev),
                        epoch: job.epoch,
                        token: job.token,
                    })
                    .is_ok()
                {
                    wake.wake();
                }
            });
            if retired > 0 {
                stats[shard]
                    .worker_respawns
                    .fetch_add(retired, Ordering::Relaxed);
            }
            continue;
        }
        let data = crate::fsjob::exec_job(&job);
        if done_txs[shard]
            .send(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            })
            .is_err()
        {
            continue;
        }
        wakes[shard].wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Variant;
    use crate::conn::JobKind;
    use std::path::PathBuf;

    fn job_for(shard: usize) -> Job {
        Job {
            shard,
            job: HelperJob {
                path: format!("/{shard}"),
                fs_path: PathBuf::new(),
                kind: JobKind::Load,
                variant: Variant::Identity,
                inline_max: u64::MAX,
                epoch: 0,
                token: 0,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        }
    }

    #[test]
    fn job_queue_rotates_across_shards() {
        let q = JobQueue::new(3);
        // Shard 0 floods its lane; shard 2 queues two jobs.
        for _ in 0..4 {
            q.push(job_for(0));
        }
        q.push(job_for(2));
        q.push(job_for(2));
        let mut order = Vec::new();
        {
            let mut lanes = q.lanes.lock().unwrap();
            while let Some(job) = pop_round_robin(&mut lanes) {
                order.push(job.shard);
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
            q.push(Job {
                shard: 0,
                job: HelperJob {
                    path: format!("/a{i}"),
                    fs_path: PathBuf::new(),
                    kind: JobKind::Load,
                    variant: Variant::Identity,
                    inline_max: u64::MAX,
                    epoch: 0,
                    token: i as u64,
                    cancel: Arc::new(AtomicBool::new(false)),
                },
            });
        }
        let mut lanes = q.lanes.lock().unwrap();
        let paths: Vec<String> = std::iter::from_fn(|| pop_round_robin(&mut lanes))
            .map(|j| j.job.path)
            .collect();
        assert_eq!(paths, vec!["/a0", "/a1", "/a2"]);
    }

    #[test]
    fn job_queue_close_releases_poppers() {
        let q = JobQueue::new(1);
        q.push(job_for(0));
        q.close();
        // Closed but not drained: the queued job still comes out...
        assert!(q.pop().is_some());
        // ...then pops end instead of blocking forever.
        assert!(q.pop().is_none());
        // And pushes after close are refused.
        q.push(job_for(0));
        assert!(q.pop().is_none());
    }
}
