//! The **metrics registry**: one place that knows every counter,
//! gauge, and latency histogram the server maintains, so the
//! aggregated [`ServerStats`] getters, the Prometheus
//! text exposition, and the JSON export all read through the same
//! descriptors and cannot drift apart.
//!
//! Scalars live as plain `AtomicU64` fields on
//! [`crate::conn::ShardStats`] (one instance per shard, written with
//! relaxed ordering on the hot path, merged on read). Each field is
//! described once in [`REGISTRY`] — name, kind, merge rule, help —
//! and read through a function pointer, so adding a counter without
//! registering it is a one-line diff away from being export-visible.
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

use crate::conn::ShardStats;

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

/// One scalar metric: its export identity plus how to read it off a
/// [`ShardStats`]. Every `AtomicU64` field on `ShardStats` has exactly
/// one `Desc` in [`REGISTRY`]; the `ServerStats` getters read through
/// these same descriptors.
pub struct Desc {
    /// Export name (also the JSON key; prefixed `flash_` in the
    /// Prometheus exposition).
    pub name: &'static str,
    pub kind: Kind,
    pub merge: MergeRule,
    /// One-line help string (`# HELP` in the exposition).
    pub help: &'static str,
    read: fn(&ShardStats) -> u64,
}

impl Desc {
    /// This metric's value on one shard.
    pub fn read_one(&self, s: &ShardStats) -> u64 {
        (self.read)(s)
    }

    /// The server-wide value: per-shard values combined by the merge
    /// rule.
    pub fn merged(&self, shards: &[Arc<ShardStats>]) -> u64 {
        let vals = shards.iter().map(|s| (self.read)(s));
        match self.merge {
            MergeRule::Sum => vals.sum(),
            MergeRule::Max => vals.max().unwrap_or(0),
        }
    }
}

macro_rules! registry {
    ($( $konst:ident / $field:ident : $kind:ident, $merge:ident, $help:expr; )+) => {
        $(
            pub const $konst: Desc = Desc {
                name: stringify!($field),
                kind: Kind::$kind,
                merge: MergeRule::$merge,
                help: $help,
                read: |s: &ShardStats| s.$field.load(Ordering::Relaxed),
            };
        )+
        /// Every scalar metric the server maintains, in export order.
        pub static REGISTRY: &[Desc] = &[ $( $konst ),+ ];
    };
}

registry! {
    REQUESTS / requests: Counter, Sum, "Completed responses (any status), excluding /.flash/ endpoint responses";
    METRICS_REQUESTS / metrics_requests: Counter, Sum, "Responses served by the /.flash/metrics and /.flash/stats endpoints";
    ACCEPTED / accepted: Counter, Sum, "Connections accepted and dealt to shards";
    HELPER_JOBS / helper_jobs: Counter, Sum, "Jobs dispatched through the helper port: misses and revalidations after coalescing, and dynamic requests";
    INLINE_JOBS / inline_jobs: Counter, Sum, "Jobs the dispatching driver ran itself with no helper hand-off: memory-resident misses, and dynamic exchanges on a shard's own workers";
    OPEN_FILE_HITS / open_file_hits: Counter, Sum, "Loads answered from the open-file table: no path lookup, an fstat and a read of a descriptor already held";
    OPEN_FILES / open_files: Gauge, Sum, "Descriptors the shards' open-file tables hold now";
    CACHE_HITS / cache_hits: Counter, Sum, "Responses served from the per-shard content cache";
    WRITEV_CALLS / writev_calls: Counter, Sum, "Gathered writev(2) calls issued on the send path";
    READ_CALLS / read_calls: Counter, Sum, "Transport reads issued by the connection core (read(2) on sockets, EAGAIN included)";
    ACCEPT_CALLS / accept_calls: Counter, Sum, "accept4(2) calls issued by the shards on their own listeners, EAGAIN included";
    CTL_CALLS / ctl_calls: Counter, Sum, "Interest-set calls (register, modify, rearm, deregister) the shard drivers made on their readiness backends";
    WORKER_IO_CALLS / worker_io_calls: Counter, Sum, "read(2) and write(2) calls the shards issued on their application workers' sockets";
    SENDFILE_CALLS / sendfile_calls: Counter, Sum, "sendfile(2) calls issued on the large-body path";
    BYTES_SENDFILE / bytes_sendfile: Counter, Sum, "Body bytes transmitted via sendfile(2)";
    CACHE_USED_BYTES / cache_used_bytes: Gauge, Sum, "Bytes currently resident in the content caches";
    WAIT_CALLS / wait_calls: Counter, Sum, "Readiness wait calls issued by the shard loops";
    WAIT_EVENTS / wait_events: Counter, Sum, "Readiness events returned by those waits";
    IDLE_REAPED / idle_reaped: Counter, Sum, "Keep-alive connections closed by the idle deadline";
    READ_TIMEOUTS / read_timeouts: Counter, Sum, "Connections closed by the header-read deadline";
    WRITE_STALL_TIMEOUTS / write_stall_timeouts: Counter, Sum, "Connections closed by the write-progress deadline";
    NOT_MODIFIED / not_modified: Counter, Sum, "304 Not Modified responses served to conditional requests";
    RANGE_REQUESTS / range_requests: Counter, Sum, "Well-formed single-range requests reaching a file response (satisfiable or not)";
    RANGE_UNSATISFIABLE / range_unsatisfiable: Counter, Sum, "Range requests answered 416 because no byte of the representation was addressable";
    ACCEPT_BACKPRESSURE / accept_backpressure: Counter, Sum, "Accept throttles from fd exhaustion or accept failure";
    REVALIDATIONS / revalidations: Counter, Sum, "Cache re-stats confirming an entry past its TTL still matches";
    STALE_EVICTED / stale_evicted: Counter, Sum, "Cache entries evicted because a re-stat saw them change";
    HELPER_WAIT_TIMEOUTS / helper_wait_timeouts: Counter, Sum, "Waiting connections closed by the helper-completion deadline";
    JOBS_CANCELLED / jobs_cancelled: Counter, Sum, "In-flight helper jobs cancelled after their last waiter left";
    DYNAMIC_REQUESTS / dynamic_requests: Counter, Sum, "Requests routed to the dynamic tier by the configured prefix";
    WORKER_RESPAWNS / worker_respawns: Counter, Sum, "Application workers retired (crashed, garbled, out of turn, or cancelled) and replaced";
    DYNAMIC_TIMEOUTS / dynamic_timeouts: Counter, Sum, "Dynamic requests that hit dynamic_deadline (504 pre-header, severed mid-stream)";
    DRAINING / draining: Gauge, Sum, "Shards currently in drain mode";
    DRAINED_CONNS / drained_conns: Counter, Sum, "Connections retired by a drain";
    LOOP_STALLS / loop_stalls: Counter, Sum, "Event-loop iterations whose non-wait time reached the 100 ms stall threshold";
    LOOP_STALL_MAX_US / loop_stall_max_us: Gauge, Max, "High-water mark of per-iteration non-wait loop time, microseconds";
    PHASE_WAIT_US / phase_wait_us: Counter, Sum, "Cumulative microseconds spent blocked in readiness wait";
    PHASE_ACCEPT_US / phase_accept_us: Counter, Sum, "Cumulative microseconds spent accepting connections";
    PHASE_READ_US / phase_read_us: Counter, Sum, "Cumulative microseconds spent driving readiness events";
    PHASE_RESPOND_US / phase_respond_us: Counter, Sum, "Cumulative microseconds spent on a wake applying the completion queue and driving the connections it answered";
    PHASE_COMPLETIONS_US / phase_completions_us: Counter, Sum, "Cumulative microseconds spent on a wake taking helper replies into the completion queue";
    PHASE_TIMERS_US / phase_timers_us: Counter, Sum, "Cumulative microseconds spent expiring deadline timers";
}

/// One latency histogram: export identity plus how to read it off a
/// [`ShardStats`].
pub struct HistDesc {
    /// Export name; values are nanoseconds.
    pub name: &'static str,
    pub help: &'static str,
    read: fn(&ShardStats) -> &Histogram,
}

impl HistDesc {
    /// Per-shard snapshots merged bucket-wise into the server-wide
    /// histogram.
    pub fn merged(&self, shards: &[Arc<ShardStats>]) -> HistSnapshot {
        let mut total = HistSnapshot::default();
        for s in shards {
            total.merge(&(self.read)(s).snapshot());
        }
        total
    }
}

pub const HIST_REQUEST: HistDesc = HistDesc {
    name: "request_latency_nanos",
    help: "Request latency: request parsed to final response byte queued for the transport",
    read: |s: &ShardStats| &s.hist_request,
};
pub const HIST_TTFB: HistDesc = HistDesc {
    name: "ttfb_nanos",
    help: "Time to first byte: request parsed to first response byte accepted by the transport",
    read: |s: &ShardStats| &s.hist_ttfb,
};
pub const HIST_HELPER_WAIT: HistDesc = HistDesc {
    name: "helper_wait_nanos",
    help: "Helper-job wait: connection parked Waiting to its completion delivered",
    read: |s: &ShardStats| &s.hist_helper_wait,
};
pub const HIST_WORKER_WAIT: HistDesc = HistDesc {
    name: "worker_wait_nanos",
    help: "Worker wait: dynamic request dispatched to first worker event delivered",
    read: |s: &ShardStats| &s.hist_worker_wait,
};
pub const HIST_LIFETIME: HistDesc = HistDesc {
    name: "conn_lifetime_nanos",
    help: "Connection lifetime: accept to close, any close reason",
    read: |s: &ShardStats| &s.hist_lifetime,
};

/// Every latency histogram the server maintains, in export order.
pub static HIST_REGISTRY: &[HistDesc] = &[
    HIST_REQUEST,
    HIST_TTFB,
    HIST_HELPER_WAIT,
    HIST_WORKER_WAIT,
    HIST_LIFETIME,
];

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

/// Renders the full registry as a JSON document: `"counters"` and
/// `"gauges"` objects keyed by metric name, plus `"histograms"` with
/// each histogram's count / sum / p50 / p99 (nanoseconds).
pub fn render_json(shards: &[Arc<ShardStats>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"counters\": {");
    let mut first = true;
    for d in REGISTRY.iter().filter(|d| d.kind == Kind::Counter) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", d.name, d.merged(shards));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    first = true;
    for d in REGISTRY.iter().filter(|d| d.kind == Kind::Gauge) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", d.name, d.merged(shards));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    first = true;
    for h in HIST_REGISTRY {
        if !first {
            out.push(',');
        }
        first = false;
        let s = h.merged(shards).summary();
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum_nanos\": {}, \"p50_nanos\": {}, \"p99_nanos\": {}}}",
            h.name, s.count, s.sum_nanos, s.p50_nanos, s.p99_nanos
        );
    }
    out.push_str("\n  }\n}\n");
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
    /// Large body streamed via the `sendfile` path.
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

/// Response metadata staged on a connection between request parse and
/// response completion, when access logging is on. Bytes and latency
/// are filled in at completion time.
#[derive(Debug, Clone)]
pub struct PendingLog {
    pub host: String,
    pub method: &'static str,
    pub path: String,
    pub status: u16,
    pub tier: Tier,
}

/// One finished response, ready to be written as an access-log line.
/// The sans-IO core fills everything but the wall-clock timestamp;
/// the driver stamps that at write time (keeping the core free of
/// clock reads).
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

    #[test]
    fn renderers_cover_every_metric() {
        let shards = vec![Arc::new(ShardStats::default())];
        shards[0].requests.fetch_add(7, Ordering::Relaxed);
        shards[0].hist_request.record(1500);
        let prom = render_prometheus(&shards);
        let json = render_json(&shards);
        for d in REGISTRY {
            assert!(prom.contains(&format!("flash_{} ", d.name)), "{}", d.name);
            assert!(json.contains(&format!("\"{}\":", d.name)), "{}", d.name);
        }
        for h in HIST_REGISTRY {
            assert!(prom.contains(&format!("flash_{}_count", h.name)));
            assert!(json.contains(&format!("\"{}\":", h.name)));
        }
        assert!(prom.contains("flash_requests 7"));
        assert!(prom.contains("flash_request_latency_nanos_count 1"));
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
