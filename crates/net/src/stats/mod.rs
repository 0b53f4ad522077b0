//! The **metrics registry**: one table that declares every counter,
//! gauge, and latency histogram the server maintains, so the
//! per-shard fields, the aggregated [`ServerStats`] getters, the
//! Prometheus text exposition, the JSON export and the sim's report
//! are all generated from the same line and cannot drift apart.
//!
//! Adding a metric is one table line (the `metrics!` invocation
//! below): its doc, its name, and for a scalar its [`Kind`],
//! [`MergeRule`] and `# HELP` string, for a histogram its `# HELP`.
//! From it the macro generates the [`ShardStats`] field, the [`Desc`]
//! in [`REGISTRY`] (or the [`HistDesc`] in [`HIST_REGISTRY`]), the
//! [`ServerStats`] getter of the same name, and the slot in the
//! [`Counts`] snapshot. There is no other declaration to keep in step.
//!
//! Scalars live as plain `AtomicU64` fields on [`ShardStats`] (one
//! instance per shard, written with relaxed ordering on the hot path,
//! merged on read by their rule).
//!
//! Latencies use [`Histogram`]: 64 power-of-two buckets over
//! nanoseconds, each a plain `AtomicU64`. Recording is a single
//! `leading_zeros` plus two relaxed `fetch_add`s — per-shard, no
//! locks, no shared cachelines. Merging per-shard histograms is
//! bucket-wise addition, which is exactly the histogram of the merged
//! samples (the property test below proves it), and any quantile read
//! from the merged buckets is within one bucket — a factor of two —
//! of the exact sample quantile.

mod server_stats;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use server_stats::ServerStats;

/// Elapsed nanoseconds between two driver-supplied instants,
/// saturating at zero — the sole conversion the instrumentation uses,
/// so real and simulated clocks feed the histograms identically.
pub fn nanos_since(t0: std::time::Instant, now: std::time::Instant) -> u64 {
    now.saturating_duration_since(t0).as_nanos() as u64
}

/// Number of power-of-two buckets; bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0), so the full
/// `u64` range is covered.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-size log-bucketed latency histogram: per-shard, lock-free,
/// mergeable on read like the scalar counters. Values are
/// nanoseconds; the sim records simulated time through the same code
/// path, so its histograms are bit-identical per seed.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of all recorded values (for mean / Prometheus `_sum`).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: `floor(log2(v))`, with 0 mapping to
/// bucket 0.
fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value a quantile read
/// reports for samples landing in it).
fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// Records one sample (nanoseconds). Two relaxed `fetch_add`s on
    /// shard-private cachelines — safe on the hot path.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy (individual buckets are
    /// exact; concurrent writers may land between bucket reads, as
    /// with every merged counter read).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut s = HistSnapshot::default();
        for (i, b) in self.buckets.iter().enumerate() {
            s.buckets[i] = b.load(Ordering::Relaxed);
        }
        s.sum = self.sum.load(Ordering::Relaxed);
        s
    }
}

/// A plain-integer copy of a [`Histogram`], mergeable bucket-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise merge; merging per-shard snapshots equals the
    /// snapshot of the merged sample stream.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.sum += other.sum;
    }

    /// Nearest-rank quantile, reported as the containing bucket's
    /// upper bound — within one bucket (≤ 2× relative error) of the
    /// exact sample quantile. `q` in `[0, 1]`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// The compact digest exported in reports: count, sum, p50, p99.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum_nanos: self.sum,
            p50_nanos: self.quantile(0.50),
            p99_nanos: self.quantile(0.99),
        }
    }
}

/// Count / sum / p50 / p99 digest of one histogram. Plain integers,
/// `Eq` — the deterministic sim embeds these in its fingerprinted
/// report, so same-seed runs must (and do) reproduce them bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub sum_nanos: u64,
    pub p50_nanos: u64,
    pub p99_nanos: u64,
}

/// Metric kind, for export (`# TYPE` in the Prometheus exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically non-decreasing.
    Counter,
    /// Point-in-time level (may go down).
    Gauge,
}

/// How per-shard values aggregate into the server-wide value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Add across shards (counters, additive gauges).
    Sum,
    /// Take the maximum across shards (high-water gauges).
    Max,
}

/// One scalar metric: its export identity plus the [`ShardStats`]
/// field it lives in.
pub struct Desc {
    /// Export name — also the JSON key, the [`ShardStats`] field and
    /// the [`ServerStats`] getter; prefixed `flash_` in the Prometheus
    /// exposition.
    pub name: &'static str,
    pub kind: Kind,
    pub merge: MergeRule,
    /// One-line help string (`# HELP` in the exposition).
    pub help: &'static str,
    cell: fn(&ShardStats) -> &AtomicU64,
}

impl Desc {
    /// This metric's counter on one shard.
    pub fn cell<'a>(&self, s: &'a ShardStats) -> &'a AtomicU64 {
        (self.cell)(s)
    }

    /// The server-wide value: per-shard values combined by the merge
    /// rule.
    pub fn merged(&self, shards: &[Arc<ShardStats>]) -> u64 {
        let vals = shards.iter().map(|s| self.cell(s).load(Ordering::Relaxed));
        self.merge.fold(vals)
    }
}

impl MergeRule {
    /// Combines per-shard values into the server-wide one.
    fn fold(self, vals: impl Iterator<Item = u64>) -> u64 {
        match self {
            MergeRule::Sum => vals.sum(),
            MergeRule::Max => vals.max().unwrap_or(0),
        }
    }
}

/// One latency histogram: its export identity plus the [`ShardStats`]
/// field it lives in.
pub struct HistDesc {
    /// Export name: the [`ShardStats`] field and [`ServerStats`] getter
    /// with `_nanos` appended; values are nanoseconds.
    pub name: &'static str,
    pub help: &'static str,
    cell: fn(&ShardStats) -> &Histogram,
}

impl HistDesc {
    /// This histogram on one shard.
    pub fn cell<'a>(&self, s: &'a ShardStats) -> &'a Histogram {
        (self.cell)(s)
    }

    /// Per-shard snapshots merged bucket-wise into the server-wide
    /// histogram.
    pub fn merged(&self, shards: &[Arc<ShardStats>]) -> HistSnapshot {
        merge_hists(shards.iter().map(|s| self.cell(s)))
    }
}

fn merge_hists<'a>(hists: impl Iterator<Item = &'a Histogram>) -> HistSnapshot {
    let mut total = HistSnapshot::default();
    for h in hists {
        total.merge(&h.snapshot());
    }
    total
}

/// Expands the table of metrics below. Each counter or gauge entry is
/// `doc name: Kind, MergeRule, "HELP";`, each histogram entry
/// `doc name: "HELP";`, and each generates, from that one line:
///
/// * its [`ShardStats`] field (an `AtomicU64`, or a [`Histogram`]);
/// * its [`Desc`] in [`REGISTRY`] (or [`HistDesc`] in
///   [`HIST_REGISTRY`], exported as `<name>_nanos`), in table order;
/// * its [`ServerStats`] getter of the same name, merged by its rule;
/// * its slot in [`Counts`] (a [`HistSummary`] for a histogram).
macro_rules! metrics {
    (
        counters { $( $(#[$doc:meta])* $name:ident: $kind:ident, $merge:ident, $help:literal; )+ }
        histograms { $( $(#[$hdoc:meta])* $hist:ident: $hhelp:literal; )+ }
    ) => {
        /// Live metrics of one event-loop shard (real or simulated) or
        /// of an MT server: atomics, so readers on other threads need
        /// no lock, written with relaxed ordering on the request path
        /// and merged on read ([`ServerStats`]).
        #[derive(Debug, Default)]
        pub struct ShardStats {
            $( $(#[$doc])* pub $name: AtomicU64, )+
            $( $(#[$hdoc])* pub $hist: Histogram, )+
        }

        /// A plain-value copy of one [`ShardStats`]: every counter and
        /// gauge, and a [`HistSummary`] of every histogram. `Eq`, so two
        /// same-seed sim reports compare over every metric.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Counts {
            $( $(#[$doc])* pub $name: u64, )+
            $( $(#[$hdoc])* pub $hist: HistSummary, )+
        }

        impl ShardStats {
            /// This shard's metrics as plain values.
            pub fn counts(&self) -> Counts {
                Counts {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                    $( $hist: self.$hist.snapshot().summary(), )+
                }
            }
        }

        /// Every scalar metric the server maintains, in export order.
        pub static REGISTRY: &[Desc] = &[$(
            Desc {
                name: stringify!($name),
                kind: Kind::$kind,
                merge: MergeRule::$merge,
                help: $help,
                cell: |s: &ShardStats| &s.$name,
            },
        )+];

        /// Every latency histogram the server maintains, in export order.
        pub static HIST_REGISTRY: &[HistDesc] = &[$(
            HistDesc {
                name: concat!(stringify!($hist), "_nanos"),
                help: $hhelp,
                cell: |s: &ShardStats| &s.$hist,
            },
        )+];

        impl ServerStats {
            $(
                $(#[$doc])*
                #[doc = ""]
                #[doc = concat!("Server-wide: merged across shards by [`MergeRule::", stringify!($merge), "`].")]
                pub fn $name(&self) -> u64 {
                    MergeRule::$merge.fold(self.shards.iter().map(|s| s.$name.load(Ordering::Relaxed)))
                }
            )+
            $(
                $(#[$hdoc])*
                #[doc = ""]
                #[doc = "Server-wide: merged bucket-wise across shards."]
                pub fn $hist(&self) -> HistSnapshot {
                    merge_hists(self.shards.iter().map(|s| &s.$hist))
                }
            )+
        }

        // Each getter under its metric's name, for the test that every
        // view of a metric agrees. Each shares a line with its
        // attribute: `driver_audit.rs` counts product lines up to the
        // first line that is `#[cfg(test)]` alone.
        #[cfg(test)] const GETTERS: &[(&str, fn(&ServerStats) -> u64)] =
            &[$((stringify!($name), ServerStats::$name)),+];
        #[cfg(test)] const HIST_GETTERS: &[(&str, fn(&ServerStats) -> HistSnapshot)] =
            &[$((stringify!($hist), ServerStats::$hist)),+];
    };
}

metrics! {
    counters {
        /// Completed responses (any status), excluding `/.flash/` endpoint
        /// responses, which count under `metrics_requests`.
        requests: Counter, Sum, "Completed responses (any status), excluding /.flash/ endpoint responses";
        /// Responses to the reserved `/.flash/` paths — the
        /// `/.flash/metrics` endpoint, or a `404` — kept out of
        /// `requests`, so scraping never perturbs the workload counters
        /// it reports.
        metrics_requests: Counter, Sum, "Responses to /.flash/ paths: the /.flash/metrics endpoint, or a 404";
        /// Connections the shard accepted from its listener — its own
        /// kernel socket (reuseport mode) or the shared one (single mode).
        /// Shards accept for themselves: nothing is dealt to them.
        accepted: Counter, Sum, "Connections the shards accepted from their listeners";
        /// Jobs the core dispatched through its [`crate::conn::HelperPort`]:
        /// content-cache misses and revalidations after coalescing, and one
        /// per dynamic request. A miss answered from the open-file table
        /// (`open_file_hits`) is no job and is not counted here. How many
        /// of them a helper thread actually ran is `helper_jobs -
        /// inline_jobs`.
        helper_jobs: Counter, Sum, "Jobs dispatched through the helper port: misses and revalidations after coalescing, and dynamic requests; a miss answered from the open-file table is none";
        /// The subset of `helper_jobs` the driver ran itself, with no
        /// hand-off and no helper: a miss the residency test found in
        /// memory and resolved by path, completed in the loop turn that
        /// dispatched it, and every dynamic exchange a shard opened on one
        /// of its own workers (counted when the request line is written).
        /// Jobs actually handed to the pool = `helper_jobs - inline_jobs`
        /// — on warm dynamic traffic, none. On MT, where the dispatching
        /// thread runs every job, the two are equal.
        inline_jobs: Counter, Sum, "Jobs the dispatching driver ran itself with no helper hand-off: memory-resident misses, and dynamic exchanges on a shard's own workers";
        /// Content-cache misses answered from the open-file table before
        /// any job exists: no path lookup, an `fstat` and a `cachestat` of
        /// the descriptor the table already held, and that descriptor
        /// handed to `sendfile` under the head the table keeps for it —
        /// served on the `sendfile` tier, counted in neither `helper_jobs`
        /// nor `cache_hits`, inserting nothing into the content cache.
        /// (Where `cachestat` is unavailable there is no table, and no
        /// such answer.)
        open_file_hits: Counter, Sum, "Content-cache misses answered from the open-file table before any job: an fstat and a cachestat of a descriptor already held, sent with sendfile";
        /// Gauge: descriptors the open-file table holds now.
        open_files: Gauge, Sum, "Descriptors the shards' open-file tables hold now";
        /// Responses served from the content cache.
        cache_hits: Counter, Sum, "Responses served from the per-shard content cache";
        /// Gathered writes issued on the send path:
        /// [`crate::conn::ConnIo::writev`] calls that moved bytes — one
        /// `writev(2)` each on the shards. On MT a flush is issued as one
        /// `write(2)` per segment (four for a cache hit) until the
        /// gathered-write follow-up (ROADMAP), so there the counter counts
        /// flushes, not syscalls.
        writev_calls: Counter, Sum, "Gathered writev(2) calls issued on the send path";
        /// [`crate::conn::ConnIo::read`] calls the core issued — `read(2)`s
        /// on the real transport, `EAGAIN` ones included. On MT the
        /// blocking `read(2)` happens before the drive and the core's read
        /// hands over what it took, one for one; the driver adds the ones
        /// that timed out empty, so there too the counter is `read(2)`
        /// calls.
        read_calls: Counter, Sum, "Transport reads issued by the connection core (read(2) on sockets, EAGAIN included)";
        /// `accept4(2)` calls the shard issued on its listener, `EAGAIN`
        /// ones included — in single mode that is one for every sibling
        /// that woke for an arrival and lost the race.
        accept_calls: Counter, Sum, "accept4(2) calls issued by the shards on their own listeners, EAGAIN included";
        /// Interest-set calls the shard driver made on its readiness
        /// backend (`register`, `modify`, `rearm`, `deregister`) — one
        /// `epoll_ctl(2)` each on epoll, a table edit and no system call on
        /// poll. An application worker costs one when it is adopted and one
        /// when it is retired, none per request; a parked request costs its
        /// connection none on epoll (the registration does not change) and
        /// two table edits on poll (`READ` → `HANGUP` → `READ`).
        ctl_calls: Counter, Sum, "Interest-set calls (register, modify, rearm, deregister) the shard drivers made on their readiness backends";
        /// `read(2)`s and `write(2)`s the shard issued on its application
        /// workers' pipes: a warm dynamic request whose worker answers in
        /// one write is exactly two, the request line out and the frames
        /// in. Zero on MT, whose connection threads block in the exchange
        /// uncounted.
        worker_io_calls: Counter, Sum, "read(2) and write(2) calls the shards issued on their application workers' pipes";
        /// `sendfile(2)` calls issued on the file-body path: bodies above
        /// the threshold, and files answered from the open-file table.
        sendfile_calls: Counter, Sum, "sendfile(2) calls issued on the file-body path: large bodies and open-file-table hits";
        /// Body bytes transmitted via `sendfile(2)` (page cache → socket,
        /// never through userspace).
        bytes_sendfile: Counter, Sum, "Body bytes transmitted via sendfile(2)";
        /// Gauge: bytes resident in the content cache now (refreshed after
        /// every insert). `sendfile`-tier responses — large bodies and
        /// open-file-table hits — leave it untouched.
        cache_used_bytes: Gauge, Sum, "Bytes currently resident in the content caches";
        /// Readiness `wait` calls the shard issued.
        wait_calls: Counter, Sum, "Readiness wait calls issued by the shard loops";
        /// Readiness events those waits returned; per `wait_calls`, how
        /// much work each wait amortizes.
        wait_events: Counter, Sum, "Readiness events returned by those waits";
        /// Keep-alive connections closed by the idle deadline (no request
        /// in flight).
        idle_reaped: Counter, Sum, "Keep-alive connections closed by the idle deadline";
        /// Connections closed by the header-read deadline (slow or silent
        /// request senders).
        read_timeouts: Counter, Sum, "Connections closed by the header-read deadline";
        /// Connections closed by the write-progress deadline (peers that
        /// stopped draining a response).
        write_stall_timeouts: Counter, Sum, "Connections closed by the write-progress deadline";
        /// `304 Not Modified` responses served to conditional requests.
        not_modified: Counter, Sum, "304 Not Modified responses served to conditional requests";
        /// Requests carrying a well-formed single-range `Range` header
        /// that reached a file response (satisfiable or not).
        range_requests: Counter, Sum, "Well-formed single-range requests reaching a file response (satisfiable or not)";
        /// `416 Range Not Satisfiable` responses (`Content-Range: bytes
        /// */len`).
        range_unsatisfiable: Counter, Sum, "Range requests answered 416 because no byte of the representation was addressable";
        /// Times the shard's listener was throttled by fd exhaustion
        /// (`EMFILE`/`ENFILE`) or another accept failure — read interest
        /// dropped, re-armed once a connection slot frees.
        accept_backpressure: Counter, Sum, "Accept throttles from fd exhaustion or accept failure";
        /// Cache hits past the revalidation TTL whose re-stat confirmed
        /// the entry still matches the file (served, TTL clock restarted).
        revalidations: Counter, Sum, "Cache re-stats confirming an entry past its TTL still matches";
        /// Cache entries evicted because a revalidation re-stat saw a
        /// different mtime or size (the file changed or vanished) — the
        /// stale bytes were dropped instead of served.
        stale_evicted: Counter, Sum, "Cache entries evicted because a re-stat saw them change";
        /// `Waiting` connections closed by the helper-completion deadline
        /// — their helper or disk wedged; the late completion, if it ever
        /// arrives, is discarded by its stale token.
        helper_wait_timeouts: Counter, Sum, "Waiting connections closed by the helper-completion deadline";
        /// In-flight helper jobs cancelled because their last waiter was
        /// reaped by a deadline or went away — its connection closed, or
        /// its client hung up on a request parked on an application worker
        /// (a client abort): the cancel flag was raised and the pending
        /// entry dropped, so the job is skipped if still queued and its
        /// completion (if it already ran) dies on token mismatch — never
        /// populating the cache, never waking a reused slot.
        jobs_cancelled: Counter, Sum, "In-flight helper jobs cancelled after their last waiter left";
        /// Requests routed to the dynamic tier (matched the configured
        /// prefix), whether they completed, timed out, or crashed.
        dynamic_requests: Counter, Sum, "Requests routed to the dynamic tier by the configured prefix";
        /// Application workers retired — killed, reaped, and replaced when
        /// next needed: crashes (EOF before the protocol's END), garbled
        /// or out-of-turn output, and kills of workers whose exchange was
        /// cancelled (the deadline fired, or the client went away).
        worker_respawns: Counter, Sum, "Application workers retired (crashed, garbled, out of turn, or cancelled) and replaced";
        /// Dynamic requests that hit `dynamic_deadline`: answered `504`
        /// before headers went out, severed mid-stream after.
        dynamic_timeouts: Counter, Sum, "Dynamic requests that hit dynamic_deadline (504 pre-header, severed mid-stream)";
        /// Gauge: 1 while the shard is in drain mode (listener quiesced,
        /// serving out existing connections), 0 otherwise; server-wide,
        /// the shards draining now.
        draining: Gauge, Sum, "Shards currently in drain mode";
        /// Connections retired *by the drain*: idle keep-alive
        /// connections closed at drain entry plus keep-alive connections
        /// closed after their final response went out whole.
        drained_conns: Counter, Sum, "Connections retired by a drain";
        /// Event-loop iterations whose non-wait time reached the stall
        /// threshold (100 ms) — the direct "did the AMPED loop block?"
        /// probe.
        loop_stalls: Counter, Sum, "Event-loop iterations whose non-wait time reached the 100 ms stall threshold";
        /// Gauge: high-water mark of per-iteration non-wait loop time, in
        /// microseconds (server-wide, the worst shard's).
        loop_stall_max_us: Gauge, Max, "High-water mark of per-iteration non-wait loop time, microseconds";
        /// Cumulative microseconds the loop spent blocked in readiness
        /// wait (the only phase *allowed* to block).
        phase_wait_us: Counter, Sum, "Cumulative microseconds spent blocked in readiness wait";
        /// Cumulative microseconds spent accepting connections.
        phase_accept_us: Counter, Sum, "Cumulative microseconds spent accepting connections";
        /// Cumulative microseconds spent driving readiness events.
        phase_read_us: Counter, Sum, "Cumulative microseconds spent driving readiness events";
        /// Cumulative microseconds spent on a wake applying the completion
        /// queue and driving the connections it answered. Answers settled
        /// after a drive or a worker's event count in the phase that drove
        /// or read.
        phase_respond_us: Counter, Sum, "Cumulative microseconds spent on a wake applying the completion queue and driving the connections it answered";
        /// Cumulative microseconds spent on a wake taking the helpers'
        /// replies into the completion queue (and adopting spawned
        /// workers).
        phase_completions_us: Counter, Sum, "Cumulative microseconds spent on a wake taking helper replies into the completion queue";
        /// Cumulative microseconds spent expiring deadline timers.
        phase_timers_us: Counter, Sum, "Cumulative microseconds spent expiring deadline timers";
    }
    histograms {
        /// Request latency: request parsed → final response byte queued
        /// for the transport.
        request_latency: "Request latency: request parsed to final response byte queued for the transport";
        /// Time to first byte: request parsed → first response byte
        /// accepted by the transport.
        ttfb: "Time to first byte: request parsed to first response byte accepted by the transport";
        /// Helper-job wait: connection parked `Waiting` → completion
        /// delivered.
        helper_wait: "Helper-job wait: connection parked Waiting to its completion delivered";
        /// Worker wait: dynamic request dispatched → first worker event
        /// (first chunk or an immediate end) delivered.
        worker_wait: "Worker wait: dynamic request dispatched to first worker event delivered";
        /// Connection lifetime: accept → close, any close reason.
        conn_lifetime: "Connection lifetime: accept to close, any close reason";
    }
}

/// Renders the full registry in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`): every scalar as
/// `flash_<name> <value>` with `# HELP` / `# TYPE` preamble, every
/// histogram as cumulative `_bucket{le="..."}` lines (nanosecond
/// bounds) plus `_sum` and `_count`.
pub fn render_prometheus(shards: &[Arc<ShardStats>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    for d in REGISTRY {
        let kind = match d.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        let _ = writeln!(out, "# HELP flash_{} {}", d.name, d.help);
        let _ = writeln!(out, "# TYPE flash_{} {}", d.name, kind);
        let _ = writeln!(out, "flash_{} {}", d.name, d.merged(shards));
    }
    for h in HIST_REGISTRY {
        let snap = h.merged(shards);
        let _ = writeln!(out, "# HELP flash_{} {}", h.name, h.help);
        let _ = writeln!(out, "# TYPE flash_{} histogram", h.name);
        let mut cum = 0u64;
        for (i, &b) in snap.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            cum += b;
            let _ = writeln!(
                out,
                "flash_{}_bucket{{le=\"{}\"}} {}",
                h.name,
                bucket_upper(i),
                cum
            );
        }
        let _ = writeln!(out, "flash_{}_bucket{{le=\"+Inf\"}} {}", h.name, cum);
        let _ = writeln!(out, "flash_{}_sum {}", h.name, snap.sum);
        let _ = writeln!(out, "flash_{}_count {}", h.name, cum);
    }
    out
}

/// Which tier served a response — the access log's last field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the content cache (including confirmed
    /// revalidations).
    Hit,
    /// Loaded from disk by a helper for this (coalesced) request.
    Miss,
    /// A body streamed via the `sendfile` path: one above the
    /// threshold, or a file the open-file table held.
    Sendfile,
    /// `304 Not Modified` — no body either way.
    NotModified,
    /// Generated by an application worker on the dynamic tier
    /// (chunked response).
    Dynamic,
    /// An error response.
    Error,
}

impl Tier {
    /// The token written in the access-log line.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Hit => "hit",
            Tier::Miss => "miss",
            Tier::Sendfile => "sendfile",
            Tier::NotModified => "not_modified",
            Tier::Dynamic => "dynamic",
            Tier::Error => "error",
        }
    }
}

/// One response's access-log line. The sans-IO core stages it on the
/// connection when the request parses, fills in the outcome when the
/// response is decided and the bytes and latency when it finishes;
/// the driver stamps the wall-clock time at write time (keeping the
/// core free of clock reads).
#[derive(Debug, Clone)]
pub struct AccessRecord {
    pub host: String,
    pub method: &'static str,
    pub path: String,
    pub status: u16,
    /// Response bytes put on the wire for this request (header +
    /// body, as transmitted).
    pub bytes: u64,
    /// Request latency in microseconds (same measurement as the
    /// `request_latency_nanos` histogram).
    pub latency_us: u64,
    pub tier: Tier,
}

impl AccessRecord {
    /// Formats one structured access-log line (common-log field order
    /// with latency and tier appended):
    /// `host - - [unix_ts] "METHOD path" status bytes latency_us tier`.
    pub fn render_line(&self, unix_ts: u64) -> String {
        format!(
            "{} - - [{}] \"{} {}\" {} {} {} {}\n",
            if self.host.is_empty() {
                "-"
            } else {
                &self.host
            },
            unix_ts,
            self.method,
            self.path,
            self.status,
            self.bytes,
            self.latency_us,
            self.tier.name()
        )
    }
}

/// Append-only access-log writer: a batch of records is formatted
/// into one buffer and written with a single `write_all` against an
/// `O_APPEND` descriptor, so concurrent writers (shards, each with its
/// own) interleave whole batches — never fragments of a line. One
/// writer may also be shared (the MT server's threads share one): a
/// batch is written, and a `reopen` made, under its lock, so a rotation
/// lands between batches. An `open` failure disables the writer
/// (records drain to nowhere) rather than killing its owner; `reopen`
/// retries the same path — the SIGHUP/logrotate handshake.
#[derive(Debug)]
pub struct AccessLogWriter {
    path: std::path::PathBuf,
    /// The open file, if the last open succeeded, and the buffer a
    /// batch is rendered into.
    out: std::sync::Mutex<(Option<std::fs::File>, String)>,
}

impl AccessLogWriter {
    pub fn open(path: std::path::PathBuf) -> Self {
        let file = Self::open_file(&path);
        AccessLogWriter {
            path,
            out: std::sync::Mutex::new((file, String::new())),
        }
    }

    fn open_file(path: &std::path::Path) -> Option<std::fs::File> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()
    }

    fn out(&self) -> std::sync::MutexGuard<'_, (Option<std::fs::File>, String)> {
        self.out.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Closes the current file and appends to whatever now lives at
    /// the configured path (after logrotate renamed the old one).
    pub fn reopen(&self) {
        self.out().0 = Self::open_file(&self.path);
    }

    /// Stamps wall-clock time on the staged records and appends them
    /// as one write. Records are consumed even with no open file, so
    /// a failed open cannot grow the staging buffer without bound.
    pub fn drain(&self, records: &mut Vec<AccessRecord>) {
        if records.is_empty() {
            return;
        }
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let (file, buf) = &mut *self.out();
        buf.clear();
        for r in records.drain(..) {
            buf.push_str(&r.render_line(ts));
        }
        if let Some(f) = file {
            use std::io::Write;
            let _ = f.write_all(buf.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — no dev-dependencies needed for the
    /// property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A latency-shaped sample: spread across many orders of
        /// magnitude, occasionally huge.
        fn sample(&mut self) -> u64 {
            let shift = self.next() % 40; // up to ~2^40 ns ≈ 18 min
            self.next() & ((1u64 << (shift + 1)) - 1)
        }
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        for v in [0u64, 1, 2, 3, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    /// Property: merging per-shard histograms bucket-wise equals the
    /// histogram of the merged sample stream.
    #[test]
    fn merge_of_shards_equals_histogram_of_merged_samples() {
        let mut rng = Rng(0x5EED01);
        for round in 0..32 {
            let shards: Vec<Histogram> = (0..4).map(|_| Histogram::default()).collect();
            let whole = Histogram::default();
            for i in 0..500 {
                let v = rng.sample();
                shards[(i + round) % 4].record(v);
                whole.record(v);
            }
            let mut merged = HistSnapshot::default();
            for s in &shards {
                merged.merge(&s.snapshot());
            }
            assert_eq!(merged, whole.snapshot(), "round {round}");
        }
    }

    /// Property: the reported quantile is within one bucket of the
    /// exact nearest-rank sample quantile — i.e. the exact quantile's
    /// bucket upper bound, which is at most 2× the exact value.
    #[test]
    fn quantiles_within_one_bucket_of_exact() {
        let mut rng = Rng(0x5EED02);
        for round in 0..16 {
            let h = Histogram::default();
            let mut samples = Vec::with_capacity(1000);
            for _ in 0..1000 {
                let v = rng.sample();
                h.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let exact = samples[rank - 1];
                let got = snap.quantile(q);
                // The report is the upper bound of the exact value's
                // bucket: never below the exact value, never past the
                // end of its bucket.
                assert!(
                    got >= exact && got <= bucket_upper(bucket_of(exact)),
                    "round {round} q {q}: exact {exact} got {got}"
                );
            }
        }
    }

    #[test]
    fn quantile_on_empty_is_zero() {
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
        assert_eq!(HistSnapshot::default().count(), 0);
    }

    #[test]
    fn summary_counts_and_sums() {
        let h = Histogram::default();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_nanos, 1111);
        assert!(s.p50_nanos >= 10 && s.p99_nanos >= 1000);
    }

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for d in REGISTRY {
            assert!(!d.name.is_empty() && !d.help.is_empty());
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for h in HIST_REGISTRY {
            assert!(seen.insert(h.name), "duplicate metric {}", h.name);
        }
    }

    /// Two shards hold distinct values for every metric; each metric's
    /// getter and its Prometheus sample both read the value its rule
    /// merges: the sum, or the larger for the one high-water gauge.
    #[test]
    fn renderers_cover_every_metric() {
        let shards = vec![
            Arc::new(ShardStats::default()),
            Arc::new(ShardStats::default()),
        ];
        let stats = ServerStats::new(shards.clone());
        assert_eq!(GETTERS.len(), REGISTRY.len());
        for (i, d) in (0u64..).zip(REGISTRY) {
            let (a, b) = (1000 + 2 * i, 3 * i + 7);
            d.cell(&shards[0]).store(a, Ordering::Relaxed);
            d.cell(&shards[1]).store(b, Ordering::Relaxed);
        }
        for (i, h) in (0u32..).zip(HIST_REGISTRY) {
            for _ in 0..=i {
                h.cell(&shards[0]).record(1 << (10 + i));
            }
            h.cell(&shards[1]).record(3 << (20 + i));
        }
        let prom = render_prometheus(&shards);
        for ((i, d), (getter, get)) in (0u64..).zip(REGISTRY).zip(GETTERS) {
            let (a, b) = (1000 + 2 * i, 3 * i + 7);
            let want = if d.name == "loop_stall_max_us" {
                a.max(b)
            } else {
                a + b
            };
            assert_eq!(*getter, d.name);
            assert_eq!(get(&stats), want, "{}", d.name);
            assert!(
                prom.lines()
                    .any(|l| l == format!("flash_{} {want}", d.name)),
                "{}",
                d.name
            );
        }
        assert_eq!(HIST_GETTERS.len(), HIST_REGISTRY.len());
        for ((i, h), (getter, get)) in (0u64..).zip(HIST_REGISTRY).zip(HIST_GETTERS) {
            let (count, sum) = (i + 2, (i + 1) * (1 << (10 + i)) + (3 << (20 + i)));
            assert_eq!(h.name.strip_suffix("_nanos"), Some(*getter));
            let snap = get(&stats);
            assert_eq!((snap.count(), snap.sum), (count, sum), "{}", h.name);
            assert_eq!(snap, h.merged(&shards), "{}", h.name);
            assert!(prom
                .lines()
                .any(|l| l == format!("flash_{}_count {count}", h.name)));
            assert!(prom
                .lines()
                .any(|l| l == format!("flash_{}_sum {sum}", h.name)));
        }
    }

    #[test]
    fn access_record_renders_one_line() {
        let rec = AccessRecord {
            host: "10.0.0.1".into(),
            method: "GET",
            path: "/index.html".into(),
            status: 200,
            bytes: 1234,
            latency_us: 87,
            tier: Tier::Hit,
        };
        let line = rec.render_line(1_700_000_000);
        assert_eq!(
            line,
            "10.0.0.1 - - [1700000000] \"GET /index.html\" 200 1234 87 hit\n"
        );
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
    }
}
