//! [`ServerStats`]: a running server's counters, read through the
//! registry in the parent module.

use std::sync::Arc;

use super::{self as metrics, HistSnapshot};
use crate::conn::ShardStats;

/// Counters for a running server: per-shard atomics, aggregated on
/// read so the hot path never contends on a shared cacheline.
///
/// Every getter delegates to the same [`crate::stats`] registry
/// descriptor the exporters ([`Self::render_prometheus`],
/// [`Self::render_json`]) iterate, so a counter cannot exist here
/// without appearing in the scrape output (or vice versa).
#[derive(Debug)]
pub struct ServerStats {
    shards: Vec<Arc<ShardStats>>,
}

impl ServerStats {
    pub(crate) fn new(shards: Vec<Arc<ShardStats>>) -> Self {
        ServerStats { shards }
    }

    /// Completed responses across all shards (excludes `/.flash/*`
    /// scrapes — those count under [`Self::metrics_requests`]).
    pub fn requests(&self) -> u64 {
        metrics::REQUESTS.merged(&self.shards)
    }

    /// `/.flash/metrics` + `/.flash/stats` responses served, across
    /// shards — kept out of `requests` so scraping never perturbs the
    /// workload counters it reports.
    pub fn metrics_requests(&self) -> u64 {
        metrics::METRICS_REQUESTS.merged(&self.shards)
    }

    /// Connections accepted across all shards.
    pub fn accepted(&self) -> u64 {
        metrics::ACCEPTED.merged(&self.shards)
    }

    /// Jobs dispatched through the helper port across all shards
    /// (misses, revalidations, dynamic requests).
    pub fn helper_jobs(&self) -> u64 {
        metrics::HELPER_JOBS.merged(&self.shards)
    }

    /// The subset of [`Self::helper_jobs`] the shards ran themselves:
    /// misses on memory-resident files, and dynamic exchanges on their
    /// own workers; `helper_jobs() - inline_jobs()` jobs were handed to
    /// the pool.
    pub fn inline_jobs(&self) -> u64 {
        metrics::INLINE_JOBS.merged(&self.shards)
    }

    /// Loads answered from the shards' open-file tables (a subset of
    /// [`Self::inline_jobs`]).
    pub fn open_file_hits(&self) -> u64 {
        metrics::OPEN_FILE_HITS.merged(&self.shards)
    }

    /// Gauge: descriptors the shards' open-file tables hold now.
    pub fn open_files(&self) -> u64 {
        metrics::OPEN_FILES.merged(&self.shards)
    }

    /// Content-cache hits across all shards.
    pub fn cache_hits(&self) -> u64 {
        metrics::CACHE_HITS.merged(&self.shards)
    }

    /// Gathered writes issued across all shards.
    pub fn writev_calls(&self) -> u64 {
        metrics::WRITEV_CALLS.merged(&self.shards)
    }

    /// `sendfile(2)` calls issued across all shards.
    pub fn sendfile_calls(&self) -> u64 {
        metrics::SENDFILE_CALLS.merged(&self.shards)
    }

    /// Body bytes served via `sendfile(2)` across all shards.
    pub fn bytes_sendfile(&self) -> u64 {
        metrics::BYTES_SENDFILE.merged(&self.shards)
    }

    /// Bytes currently resident in the content caches, summed over
    /// shards. Large-body responses must leave this untouched.
    pub fn cache_used_bytes(&self) -> u64 {
        metrics::CACHE_USED_BYTES.merged(&self.shards)
    }

    /// Readiness `wait` calls across all shards.
    pub fn wait_calls(&self) -> u64 {
        metrics::WAIT_CALLS.merged(&self.shards)
    }

    /// Readiness events delivered across all shards.
    pub fn wait_events(&self) -> u64 {
        metrics::WAIT_EVENTS.merged(&self.shards)
    }

    /// Gauge: mean readiness events per `wait` call — how much work
    /// each kernel crossing amortizes. Rises with load (and with the
    /// epoll backend under many-connection workloads, where a wait
    /// returns only the ready descriptors instead of scanning all).
    pub fn events_per_wait(&self) -> f64 {
        let calls = self.wait_calls();
        if calls == 0 {
            return 0.0;
        }
        self.wait_events() as f64 / calls as f64
    }

    /// Keep-alive connections closed by the idle deadline, across shards.
    pub fn idle_reaped(&self) -> u64 {
        metrics::IDLE_REAPED.merged(&self.shards)
    }

    /// Connections closed by the header-read deadline, across shards.
    pub fn read_timeouts(&self) -> u64 {
        metrics::READ_TIMEOUTS.merged(&self.shards)
    }

    /// Connections closed by the write-progress deadline, across shards.
    pub fn write_stall_timeouts(&self) -> u64 {
        metrics::WRITE_STALL_TIMEOUTS.merged(&self.shards)
    }

    /// `304 Not Modified` responses served, across shards.
    pub fn not_modified(&self) -> u64 {
        metrics::NOT_MODIFIED.merged(&self.shards)
    }

    /// Well-formed single-range requests that reached a file response
    /// (satisfiable or not), across shards.
    pub fn range_requests(&self) -> u64 {
        metrics::RANGE_REQUESTS.merged(&self.shards)
    }

    /// Range requests answered `416 Range Not Satisfiable`, across
    /// shards.
    pub fn range_unsatisfiable(&self) -> u64 {
        metrics::RANGE_UNSATISFIABLE.merged(&self.shards)
    }

    /// Accept-path backpressure events (listener throttled on
    /// `EMFILE`/`ENFILE` or accept failure), across shards.
    pub fn accept_backpressure(&self) -> u64 {
        metrics::ACCEPT_BACKPRESSURE.merged(&self.shards)
    }

    /// Successful cache revalidations (re-stat matched), across shards.
    pub fn revalidations(&self) -> u64 {
        metrics::REVALIDATIONS.merged(&self.shards)
    }

    /// Cache entries evicted as stale by a revalidation re-stat,
    /// across shards.
    pub fn stale_evicted(&self) -> u64 {
        metrics::STALE_EVICTED.merged(&self.shards)
    }

    /// `Waiting` connections closed by the helper-completion deadline,
    /// across shards.
    pub fn helper_wait_timeouts(&self) -> u64 {
        metrics::HELPER_WAIT_TIMEOUTS.merged(&self.shards)
    }

    /// Helper jobs cancelled because their last waiter was reaped
    /// before the completion landed, across shards: the job is skipped
    /// if still queued, and a completion that already ran is dropped
    /// by its stale token — neither populates the cache nor wakes a
    /// reused slot.
    pub fn jobs_cancelled(&self) -> u64 {
        metrics::JOBS_CANCELLED.merged(&self.shards)
    }

    /// Requests routed to the dynamic tier by the configured prefix,
    /// across shards.
    pub fn dynamic_requests(&self) -> u64 {
        metrics::DYNAMIC_REQUESTS.merged(&self.shards)
    }

    /// `read(2)` + `write(2)` calls the shards issued on their
    /// application workers' sockets — two per warm dynamic request.
    pub fn worker_io_calls(&self) -> u64 {
        metrics::WORKER_IO_CALLS.merged(&self.shards)
    }

    /// Application workers retired (crashed, garbled, out of turn,
    /// cancel-killed, or found dead) and replaced, across shards.
    pub fn worker_respawns(&self) -> u64 {
        metrics::WORKER_RESPAWNS.merged(&self.shards)
    }

    /// Dynamic requests that hit `dynamic_deadline` (504 before the
    /// header, a severed connection mid-stream), across shards.
    pub fn dynamic_timeouts(&self) -> u64 {
        metrics::DYNAMIC_TIMEOUTS.merged(&self.shards)
    }

    /// Gauge: how many shards are currently in drain mode.
    pub fn draining_shards(&self) -> u64 {
        metrics::DRAINING.merged(&self.shards)
    }

    /// Connections retired by drains (idle keep-alives closed at
    /// drain entry + keep-alives closed after their final response),
    /// across shards.
    pub fn drained_conns(&self) -> u64 {
        metrics::DRAINED_CONNS.merged(&self.shards)
    }

    /// Event-loop iterations whose non-wait time reached the stall
    /// threshold (100 ms), across shards — the AMPED
    /// "the event loop must never block" invariant, measured.
    pub fn loop_stalls(&self) -> u64 {
        metrics::LOOP_STALLS.merged(&self.shards)
    }

    /// Gauge: worst single-iteration non-wait time observed by any
    /// shard, in microseconds (high-water mark, max over shards).
    pub fn loop_stall_max_us(&self) -> u64 {
        metrics::LOOP_STALL_MAX_US.merged(&self.shards)
    }

    /// Request latency histogram (first request byte → response fully
    /// flushed), merged across shards.
    pub fn request_latency(&self) -> HistSnapshot {
        metrics::HIST_REQUEST.merged(&self.shards)
    }

    /// Time-to-first-byte histogram (first request byte → first
    /// response byte accepted by the socket), merged across shards.
    pub fn ttfb(&self) -> HistSnapshot {
        metrics::HIST_TTFB.merged(&self.shards)
    }

    /// Helper-job wait histogram (parked in `Waiting` → completion
    /// delivered), merged across shards.
    pub fn helper_wait(&self) -> HistSnapshot {
        metrics::HIST_HELPER_WAIT.merged(&self.shards)
    }

    /// Worker-wait histogram (dynamic request dispatched → first
    /// worker event delivered), merged across shards.
    pub fn worker_wait(&self) -> HistSnapshot {
        metrics::HIST_WORKER_WAIT.merged(&self.shards)
    }

    /// Connection lifetime histogram (accept → close), merged across
    /// shards.
    pub fn conn_lifetime(&self) -> HistSnapshot {
        metrics::HIST_LIFETIME.merged(&self.shards)
    }

    /// The full Prometheus text exposition — exactly what
    /// `GET /.flash/metrics` serves.
    pub fn render_prometheus(&self) -> String {
        metrics::render_prometheus(&self.shards)
    }

    /// The full JSON stats document — exactly what
    /// `GET /.flash/stats` serves.
    pub fn render_json(&self) -> String {
        metrics::render_json(&self.shards)
    }

    /// The per-shard counters (index = shard id).
    pub fn per_shard(&self) -> &[Arc<ShardStats>] {
        &self.shards
    }
}
