//! The **deterministic simulation** of one shard: the shipped loop
//! ([`flash_net::driver::shard_loop`] and `Shard::turn`, the same code
//! a real shard thread runs) over a **simulated kernel** — in-memory
//! endpoints, a simulated clock ([`flash_simcore::EventQueue`]) and a
//! seeded RNG ([`flash_simcore::SimRng`]) — so hundreds of thousands of
//! connections replay in seconds of wall time, **bit-for-bit
//! reproducibly**: the same seed produces the same [`SimReport`],
//! fingerprint included.
//!
//! The sim is not a driver, and it lives outside the server's crate:
//! it reaches the shard through [`flash_net::driver`] and nothing else.
//! The shard loop is written once, over an environment
//! ([`flash_net::driver::Env`]); the real server supplies the kernel,
//! and this crate supplies a simulated one:
//!
//! ```text
//!              ┌────────────────────────────────────────────────┐
//!              │  the shard loop (flash_net::server) — a        │
//!              │  connection table, its timers, readiness, the  │
//!              │  worker set; generic over its environment      │
//!              ├───────────────────────┬────────────────────────┤
//!              │  the real kernel      │  a simulated kernel    │
//!              │  (`NetEnv`): sockets, │  (this crate):         │
//!              │  epoll or poll, the   │  in-memory sockets, a  │
//!              │  helper pool, the     │  seeded calendar,      │
//!              │  wall clock           │  simulated time,       │
//!              │                       │  injected faults       │
//!              └───────────────────────┴────────────────────────┘
//! ```
//!
//! It answers the environment's calls at the seams where the real
//! server makes system calls:
//!
//! * **readiness** — `SimBackend`, an [`EventBackend`] with epoll's
//!   edge-triggered semantics, whose `wait` advances the calendar to
//!   the next event or to the timeout the shard's deadlines asked
//!   for, and reports the edges in-memory endpoints raised — and the
//!   listener, registered level-triggered ([`Interest::ACCEPT`]) as a
//!   real shard's is, whenever its backlog is non-empty;
//! * **the transport** — `SimFd` as a connection: its inbox (filled on
//!   the client's script), its receive window (a refill is a writable
//!   edge) and the capture of everything sent;
//! * **accept** — a listener whose backlog fills on the seeded arrival
//!   schedule, and whose accept can fail with `EMFILE`;
//! * **the worker endpoint** — `SimFd` as a worker's socket: a
//!   `DynApp` model that writes real `DATA`/`END` frames over simulated
//!   time, after per-endpoint compute times (1–5 ms), read by the
//!   shard's own worker set and frame parser;
//! * **the helpers** — the residency test's answer and helper
//!   completions delivered on simulated time through the same reply
//!   queue and wake token the pool uses. Residency is a seeded coin
//!   ([`SimConfig::resident_fraction`]), not a page cache (see
//!   `Kernel::exec_job`);
//! * **held files** — none. The kernel holds no open-file table, so it
//!   takes the environment's default for
//!   [`Env::held`] and declines every
//!   one: a content-cache miss that the real server answers in the loop
//!   from a held descriptor, with no job, is a job here, answered by
//!   the coin. Held answers are not simulated until the kernel has a
//!   page cache to hold files in (ROADMAP item 14).
//!
//! Mid-run reloads and the final drain reach the shard through the
//! shared lifecycle state ([`LifecycleShared`]), the way signals reach
//! the real server. What the sim injects that loopback tests cannot
//! (not reliably, not on demand, and never twice the same way) is the
//! [`FaultPlan`]: partial writes,
//! trickled headers, disk stalls and wedged helpers, EMFILE storms,
//! crashing, wedged and garbling workers, half-closing and resetting
//! clients, and clients that leave a request parked on a silent worker.
//!
//! After every loop turn (configurable cadence at scale) the sim runs
//! the shard's invariant check
//! ([`Shard::check_invariants`], the core's
//! [`flash_net::conn::ShardCore::check_invariants`] among it):
//! no leaked slots or waiter registrations, no job without a waiter,
//! the armed timers exactly the connections with a
//! deadline class, the content cache's byte count the sum of its
//! entries and what its gauge reads — and the driver's: no completion
//! left in the shard's queue, no retired worker left registered. A run
//! that violates an invariant, livelocks
//! (fuel exhausted), or strands a connection returns `Err`.
//!
//! Determinism rules: the only wall-clock value in the response stream
//! is the `Date` header (rendered by `flash_http::date` from real
//! time); the fingerprint scrubs those 29 bytes before hashing.
//! Everything else — simulated time, RNG, event order (FIFO within an
//! instant) — is a pure function of the seed.
//!
//! # How to add a fault to the sim
//!
//! Faults live in the simulated kernel, never in the shard or the core
//! — the shipped loop must already survive them, that's the point:
//!
//! 1. **Add a knob** to [`FaultPlan`] (a probability or
//!    magnitude), defaulted into `FaultPlan::heavy()` so the CI replay
//!    exercises it.
//! 2. **Express it at a kernel seam.** The *transport* (`SimFd` as a
//!    connection: shrink the window for partial writes, cut the client's
//!    script short or end it in a half-close, reset the client after so
//!    many bytes); *readiness* (`SimBackend`: which edges a calendar
//!    event raises, e.g. a window refill is a writable edge); *accept*
//!    (the listener's backlog: refuse with `EMFILE`); the *worker
//!    endpoint* (`SimFd` as a worker: the script of frames the `DynApp`
//!    model writes — delay it, stop it, garble it); and *helper
//!    delivery* (stretch a completion's delay for a stall or a wedge,
//!    deliver a cancelled job's completion anyway to test the token
//!    gate).
//! 3. **Consume randomness deterministically**: draw from the kernel's
//!    one `SimRng` only inside the kernel's calls and event handlers
//!    (never during iteration over a hash map), and schedule effects
//!    through the event calendar so a seed fully determines the
//!    interleaving.
//! 4. **Assert the consequence**, not just survival: add a counter to
//!    the report if the fault has an observable outcome, and extend
//!    the unit tests below so a fault that stops firing fails loudly.
//!    The invariant check runs between loop turns either way — leaked
//!    slots, stale-epoch cache inserts, or orphaned deadlines from the
//!    new fault fail the replay without further wiring.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flash_simcore::time::{Nanos, MILLI, SEC};
use flash_simcore::{EventQueue, SimRng};
use flash_workload::{FileSpec, Zipf};

use flash_net::cache::{self, Variant};
use flash_net::conn::{ConnIo, DoneData, FileData, HelperJob, JobKind, LoadResult};
use flash_net::driver::{shard_loop, Env, LifecycleShared, Reply, Shard, Work};
use flash_net::driver::{LISTENER_TOKEN, WAKE_TOKEN};
use flash_net::event::{BackendChoice, Event, EventBackend, Interest};
use flash_net::stats::Counts;
use flash_net::NetConfig;

/// Fault-injection probabilities, all independent. `none()` is a
/// clean-network baseline; [`FaultPlan::heavy`] is the CI setting.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-connection: request bytes arrive in 1–4 byte chunks with
    /// millisecond gaps (slowloris; many die on the header deadline).
    pub trickle: f64,
    /// Per-connection: the receive window opens 64–512 bytes at a
    /// time, forcing partial writes on every flush.
    pub partial_write: f64,
    /// Per-job: completion delayed ~50 ms (past the helper-wait
    /// deadline — the waiter is reaped, the job cancelled).
    pub disk_stall: f64,
    /// Per-job: completion delayed 5 s (a wedged helper; the late
    /// completion must be dropped by cancel flag or token mismatch).
    /// Per-exchange: the worker never answers (the dynamic deadline
    /// answers `504` and the worker is retired).
    pub wedge: f64,
    /// Per-accept: the accept fails with `EMFILE`; the shard backs off.
    pub emfile: f64,
    /// Per-exchange: the application worker exits mid-body — some
    /// frames, then end of stream (no chunked terminator on the wire)
    /// and a worker respawn.
    pub worker_crash: f64,
    /// Per-connection: the client leaves out `Connection: close` and
    /// half-closes behind its last request instead (`Ok(0)`, with the
    /// hang-up on the event); a quarter of them close in the middle of
    /// that request, which then gets nothing. Its requests arrive on a
    /// schedule that ignores the responses, so its hang-up can reach a
    /// dynamic request still parked on a worker: a client abort, which
    /// takes the requests pipelined behind it too.
    pub half_close: f64,
    /// Per-connection: the client resets after the first 64–4 160
    /// response bytes reach it; the next send fails.
    pub client_reset: f64,
    /// Per-exchange: the worker writes a line that is not a frame,
    /// before its first frame (a `500`) or after one (a truncated
    /// stream), and is retired.
    pub worker_garbage: f64,
    /// Per-connection, when the mix has dynamic requests at all: the
    /// client's one request goes to a worker that never answers, and
    /// the client leaves once the worker has it — a hang-up on a
    /// connection parked on a worker, which aborts the request and
    /// retires the worker.
    pub parked_hangup: f64,
}

impl FaultPlan {
    /// No faults: every byte arrives promptly, every window is wide,
    /// every helper and worker answers fast.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The fault mix the CI replay runs under.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            trickle: 0.05,
            partial_write: 0.06,
            disk_stall: 0.04,
            wedge: 0.01,
            emfile: 0.02,
            worker_crash: 0.03,
            half_close: 0.05,
            client_reset: 0.03,
            worker_garbage: 0.03,
            parked_hangup: 0.02,
        }
    }
}

/// The shard's `max_conns_per_shard`: arrivals beyond it wait in the
/// listener's backlog.
const MAX_CONCURRENT: usize = 256;
/// Mean open-to-open gap in simulated nanoseconds.
const INTERARRIVAL_NANOS: Nanos = 150_000;
/// Per-GET/HEAD fraction carrying a single-range `Range` header (mix
/// of satisfiable spans, suffixes, and past-EOF → 416).
const RANGE_FRACTION: f64 = 0.12;
/// Per-GET fraction carrying `If-None-Match` (60/40 current validator
/// → 304 vs stale → 200), drawn against the representation the
/// request will negotiate.
const INM_FRACTION: f64 = 0.10;
/// Mean of the exponential jitter added to each simulated
/// application's fixed per-request compute time.
const DYNAMIC_COMPUTE_NANOS: Nanos = 2 * MILLI;

/// One simulated run's shape. `connections` is the number admitted;
/// each plays a 1–4 request keep-alive script drawn from the seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    pub connections: u64,
    /// Content-cache budget — deliberately small so eviction and
    /// re-load churn under Zipf traffic.
    pub cache_bytes: u64,
    /// Bodies at or above this stream through the simulated
    /// `sendfile` path instead of the cache.
    pub sendfile_threshold: u64,
    /// Run the full invariant check after every N loop turns (0 = only
    /// at the end). Small runs use 1; CI-scale uses ~512.
    pub check_every: u64,
    /// Per-request fraction advertising `Accept-Encoding: gzip`,
    /// steering negotiation onto the simulated `.gz` siblings.
    pub gzip_fraction: f64,
    /// Per-filesystem-job fraction the simulated residency test
    /// answers: the job completes in the turn that dispatched it, as
    /// the real shard's does for a file already in memory. The rest go
    /// to the simulated helpers.
    pub resident_fraction: f64,
    /// Per-request fraction routed to the dynamic tier (a simulated
    /// application endpoint under [`DYN_PREFIX`], streamed back as
    /// chunked frames through the shard's worker set).
    pub dynamic_fraction: f64,
    pub faults: FaultPlan,
}

impl SimConfig {
    /// Defaults tuned for fault-heavy replay: small cache, low
    /// `sendfile` threshold (both body tiers exercised), sampled
    /// invariant checks.
    pub fn new(seed: u64, connections: u64) -> SimConfig {
        SimConfig {
            seed,
            connections,
            cache_bytes: 256 * 1024,
            sendfile_threshold: 16 * 1024,
            check_every: 512,
            gzip_fraction: 0.25,
            resident_fraction: 0.5,
            dynamic_fraction: 0.08,
            faults: FaultPlan::heavy(),
        }
    }
}

/// Everything a run observed, every field a pure function of
/// (`SimConfig`, file set): two runs with the same inputs must compare
/// equal — that comparison IS the determinism test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The shard's metrics at the end of the run: every counter and
    /// gauge the real server exports ([`flash_net::stats`]), and a
    /// [`flash_net::stats::HistSummary`] of each latency histogram, fed
    /// simulated time through the identical instrumentation path.
    /// `counts.accepted` is `SimConfig::connections` on success.
    pub counts: Counts,
    /// Response bytes transmitted (headers + both body tiers).
    pub bytes: u64,
    /// Order-sensitive FNV fold of every connection's full response
    /// stream (Date headers scrubbed — the one wall-clock leak).
    pub fingerprint: u64,
    /// Connections closed without a response byte sent.
    pub unanswered: u64,
    /// `500 Internal Server Error` status lines sent.
    pub server_errors: u64,
    /// Mid-run docroot reloads applied (epoch bumps).
    pub reloads: u64,
    /// Simulated instant the shard's loop returned.
    pub sim_elapsed_nanos: u64,
    /// Calendar events processed.
    pub events: u64,
}

impl SimReport {
    /// Every kernel crossing the shard counted, by kind: readiness
    /// waits, client `read`s, `writev`s and `sendfile`s, `accept`s,
    /// interest-set calls, and `read`s and `write`s on its workers.
    pub fn crossings(&self) -> [(&'static str, u64); 7] {
        let c = &self.counts;
        [
            ("wait", c.wait_calls),
            ("read", c.read_calls),
            ("writev", c.writev_calls),
            ("sendfile", c.sendfile_calls),
            ("accept", c.accept_calls),
            ("ctl", c.ctl_calls),
            ("worker_io", c.worker_io_calls),
        ]
    }
}

/// A simulated file: identity and metadata only — body bytes are the
/// pure function [`body_byte`]`(id, offset)`, so a multi-gigabyte
/// simulated docroot costs nothing to hold.
#[derive(Debug, Clone)]
pub struct SimFile {
    pub id: u32,
    pub len: u64,
    pub mtime: i64,
}

/// Deterministic body byte for file `id` at `offset` — what the
/// simulated disk "reads" and the simulated `sendfile` streams.
pub fn body_byte(id: u32, offset: u64) -> u8 {
    ((id as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(offset.wrapping_mul(0x9E37_79B1))
        % 251) as u8
}

/// The simulated `.gz` sibling of an identity file, if the docroot
/// "has one": every third file is precompressed, ~2/3 the identity
/// length (so siblings land on both sides of the sendfile threshold
/// too) and slightly newer. Its id is the identity file's with the
/// high bit set, so [`body_byte`] streams a distinct (still
/// deterministic) sequence for the compressed representation. A pure function of the identity file —
/// part of the per-seed determinism contract.
pub fn gzip_sibling(f: &SimFile) -> Option<SimFile> {
    if f.id & 0x8000_0000 != 0 || !f.id.is_multiple_of(3) {
        return None;
    }
    Some(SimFile {
        id: f.id | 0x8000_0000,
        len: (f.len * 2 / 3).max(1),
        mtime: f.mtime + 7,
    })
}

/// The URL namespace the sim routes to its dynamic tier (the
/// `dynamic_prefix` the simulated shard runs with).
pub const DYN_PREFIX: &str = "/app/";

/// The endpoint under [`DYN_PREFIX`] whose worker never answers,
/// followed by the descriptor of the client that will leave it
/// ([`FaultPlan::parked_hangup`]).
const SILENT: &str = "/app/silent/";

/// One simulated application endpoint (a persistent CGI process, §5.6):
/// a fixed per-request compute time and a deterministic response body
/// its worker writes back as `DATA` frames.
#[derive(Debug, Clone, Copy)]
struct DynApp {
    /// Body-byte id-space with the top two bits set — never collides
    /// with static file ids or their gzip twins.
    id: u32,
    compute_ns: Nanos,
    output_bytes: u64,
}

impl DynApp {
    fn new(id: u32, compute_ns: Nanos, output_bytes: u64) -> DynApp {
        DynApp {
            id,
            compute_ns,
            output_bytes,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Blanks the 29-byte IMF-fixdate value after every `Date: ` in place
/// — the only wall-clock bytes in a response stream, cut short when
/// the client went away mid-header — and counts the `500` status lines
/// on the way.
fn scrub_dates(buf: &mut [u8]) -> u64 {
    const PAT: &[u8] = b"Date: ";
    const VAL: usize = flash_http::date::IMF_FIXDATE_LEN;
    const ERR: &[u8] = b"HTTP/1.1 500 ";
    let (mut i, mut errors) = (0, 0);
    while i < buf.len() {
        if buf[i..].starts_with(PAT) {
            let end = buf.len().min(i + PAT.len() + VAL);
            buf[i + PAT.len()..end].fill(b'#');
            i = end;
        } else {
            errors += u64::from(buf[i..].starts_with(ERR));
            i += 1;
        }
    }
    errors
}

/// The simulated kernel, shared by every handle the shard holds on it:
/// its environment, its backend, and the descriptors of its listener,
/// connections and workers. The loop is single-threaded, so the handles
/// borrow it one call at a time.
type K = Rc<RefCell<Kernel>>;

/// The descriptor of the shard's wake channel.
const WAKE_FD: RawFd = 0;
/// The descriptor of the shard's listener.
const LISTEN_FD: RawFd = 1;
/// The drain's grace: longer than any fault keeps a connection open,
/// so a drain that reaches it has stranded a connection.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// The shard's worker ceiling (`NetConfig::helpers`): room for every
/// exchange the default dynamic fraction keeps in flight.
const SIM_WORKERS: usize = 64;
/// Body bytes per `DATA` frame a simulated worker writes.
const FRAME: u64 = 1024;

/// The calendar's event alphabet. Descriptors are never reused, so an
/// event for one closed since finds nothing and is dropped.
enum Ev {
    /// The next planned connection reaches the listener's backlog.
    Open,
    /// The next chunk of a peer's script arrives.
    Arrive(RawFd),
    /// A client's receive window opens by this many bytes.
    Refill(RawFd, usize),
    /// A client leaves: its end of stream, behind whatever it sent.
    Leave(RawFd),
    /// A helper job's completion lands in the reply queue.
    HelperDone(HelperJob),
    /// A helper has forked the worker the shard asked for.
    Spawned,
    /// The end of a wait's timeout.
    Tick,
    /// Every planned connection has arrived: the shard is drained.
    BeginDrain,
}

/// A simulated socket, seen from the shard: what its peer — a client,
/// or an application worker — has sent and the shard not yet read, and
/// what the peer sends next; for a client, also its receive window and
/// the capture of what the shard sent it.
#[derive(Default)]
struct Sock {
    worker: bool,
    inbox: VecDeque<u8>,
    /// The peer has closed its end: reads return `Ok(0)` once `inbox`
    /// is dry.
    eof: bool,
    /// The peer's next chunks: (delay before the chunk, bytes).
    script: VecDeque<(Nanos, Vec<u8>)>,
    /// The peer closes behind its last chunk: a client's half-close,
    /// a worker's crash.
    eof_after: bool,
    window: usize,
    refill_pending: bool,
    /// Window refills stay tiny for this connection's whole life.
    partial: bool,
    /// The client resets once this many response bytes reached it.
    reset_at: Option<u64>,
    /// What the shard sent a client, kept until it closes and its
    /// stream is fingerprinted: the `writev` stream verbatim (headers
    /// and small bodies), and a running FNV over the `sendfile` stream
    /// (never buffered — large bodies carry no headers to scrub).
    sent: Vec<u8>,
    body_hash: u64,
    body_bytes: u64,
}

impl Sock {
    fn received(&self) -> u64 {
        self.sent.len() as u64 + self.body_bytes
    }

    fn reset(&self) -> bool {
        self.reset_at.is_some_and(|at| self.received() >= at)
    }
}

struct Kernel {
    cfg: SimConfig,
    rng: SimRng,
    queue: EventQueue<Ev>,
    /// Simulated instant `t` is `base + t` (the shard speaks
    /// `Instant`; only differences matter).
    base: Instant,
    lifecycle: Arc<LifecycleShared>,
    files: HashMap<String, SimFile>,
    paths: Vec<String>,
    /// The dynamic tier's endpoints, by URL path.
    apps: Vec<(String, DynApp)>,
    zipf: Zipf,
    /// Sockets and the backend's registrations, by descriptor;
    /// [`WAKE_FD`] and [`LISTEN_FD`] are the kernel's own.
    socks: Vec<Option<Sock>>,
    regs: Vec<Option<(u64, Interest)>>,
    /// Descriptors whose readiness may have changed since the last
    /// wait: the edges the next one reports.
    edges: Vec<RawFd>,
    arrived: u64,
    backlog: u64,
    wake: bool,
    replies: VecDeque<Reply<SimFile, RawFd>>,
    turns: u64,
    /// When a test asks for it: after each turn, the clock reads and
    /// wakes so far and the shard's counters.
    turn_log: Option<Vec<(u64, u64, Counts)>>,
    error: Option<String>,
    fingerprint: u64,
    bytes: u64,
    unanswered: u64,
    server_errors: u64,
}

impl Kernel {
    fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.queue.now().as_nanos())
    }

    /// Records the run's first failure and stops the shard, the way
    /// `Server::stop_now` stops a real one.
    fn fail(&mut self, e: String) {
        self.error.get_or_insert(e);
        self.lifecycle.stop_now();
    }

    fn open(&mut self, sock: Sock) -> RawFd {
        self.socks.push(Some(sock));
        self.regs.push(None);
        (self.socks.len() - 1) as RawFd
    }

    fn sock(&mut self, fd: RawFd) -> Option<&mut Sock> {
        self.socks.get_mut(fd as usize)?.as_mut()
    }

    /// Closes `fd`; a connection's response stream is folded into the
    /// fingerprint here.
    fn close(&mut self, fd: RawFd) {
        let Some(s) = self.socks[fd as usize].take().filter(|s| !s.worker) else {
            return;
        };
        let mut head = s.sent;
        self.server_errors += scrub_dates(&mut head);
        let h = head.iter().fold(FNV_OFFSET, |h, &b| fnv(h, b));
        let h = h ^ s.body_hash.rotate_left(17);
        self.fingerprint = (self.fingerprint ^ h).wrapping_mul(FNV_PRIME);
        self.bytes += head.len() as u64 + s.body_bytes;
        self.unanswered += u64::from(head.is_empty() && s.body_bytes == 0);
    }

    /// Whether the run has spent the events and turns a livelock-free
    /// run of its size could need.
    fn out_of_fuel(&self) -> bool {
        let fuel = self.cfg.connections.saturating_mul(500) + 1_000_000;
        self.queue.events_processed() + self.turns > fuel
    }

    fn raise_wake(&mut self) {
        if !std::mem::replace(&mut self.wake, true) {
            self.edges.push(WAKE_FD);
        }
    }

    fn reply(&mut self, reply: Reply<SimFile, RawFd>) {
        self.replies.push_back(reply);
        self.raise_wake();
    }

    /// What `fd` is ready for now: (readable, writable, hung up).
    fn readiness(&self, fd: RawFd) -> (bool, bool, bool) {
        match (fd, &self.socks[fd as usize]) {
            (WAKE_FD, _) => (self.wake, false, false),
            (LISTEN_FD, _) => (self.backlog > 0, false, false),
            (_, Some(s)) => {
                let gone = s.eof || s.reset();
                (gone || !s.inbox.is_empty(), gone || s.window > 0, gone)
            }
            (_, None) => (false, false, false),
        }
    }

    /// Blocks the shard in simulated time: handles calendar events
    /// until an edge meets a registration's interest, or until the
    /// timeout. Edge-triggered, as epoll is: an edge on a descriptor
    /// not watching for it is gone, and registering or changing
    /// interest re-checks what already holds. A level-triggered
    /// registration — the listener's — is reported whenever its
    /// condition holds, edge or not.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> usize {
        events.clear();
        let deadline = u64::try_from(timeout_ms)
            .ok()
            .map(|ms| self.queue.now() + ms * MILLI);
        loop {
            let listener = self.regs[LISTEN_FD as usize];
            if self.backlog > 0 && listener.is_some_and(|(_, interest)| interest.is_level()) {
                self.edges.push(LISTEN_FD);
            }
            for i in 0..self.edges.len() {
                let fd = self.edges[i];
                let Some((token, interest)) = self.regs[fd as usize] else {
                    continue;
                };
                let (readable, writable, hangup) = self.readiness(fd);
                let readable = readable && interest.is_readable();
                let writable = writable && interest.is_writable();
                if (readable || writable) && !events.iter().any(|e| e.token == token) {
                    let hangup = hangup && readable;
                    events.push(Event {
                        token,
                        readable,
                        writable,
                        hangup,
                    });
                }
            }
            self.edges.clear();
            if !events.is_empty() || self.error.is_some() {
                return events.len();
            }
            // A wait that never returns is a livelock too: say, a
            // backlog nobody reports holding the drain off for ever.
            if self.out_of_fuel() {
                let events = self.queue.events_processed();
                self.fail(format!(
                    "fuel exhausted after {events} events inside one wait"
                ));
                return 0;
            }
            if let Some(d) = deadline.filter(|&d| self.queue.peek_time().is_none_or(|t| t > d)) {
                self.queue.schedule_at(d, Ev::Tick);
            }
            match self.queue.pop() {
                Some((_, Ev::Tick)) => return 0,
                Some((_, ev)) => self.handle(ev),
                None => {
                    self.fail("the calendar ran dry with the shard waiting for ever".into());
                    return 0;
                }
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Open => {
                self.arrived += 1;
                self.backlog += 1;
                self.edges.push(LISTEN_FD);
                // Two mid-run reloads with jobs in flight: stale-epoch
                // completions must serve waiters, never the new cache.
                let third = self.cfg.connections / 3;
                if third > 0 && (self.arrived == third || self.arrived == 2 * third) {
                    self.lifecycle.publish_reload(PathBuf::from("/sim"));
                    self.raise_wake();
                }
                if self.arrived < self.cfg.connections {
                    let gap = 1 + self.rng.exp(INTERARRIVAL_NANOS as f64) as u64;
                    self.queue.schedule_in(gap, Ev::Open);
                } else {
                    self.queue.schedule_in(5 * MILLI, Ev::BeginDrain);
                }
            }
            Ev::Arrive(fd) => {
                let Some(s) = self.sock(fd) else {
                    return;
                };
                let Some((_, chunk)) = s.script.pop_front() else {
                    return;
                };
                s.inbox.extend(chunk);
                s.eof |= s.script.is_empty() && s.eof_after;
                let next = s.script.front().map(|&(d, _)| d);
                self.edges.push(fd);
                if let Some(d) = next {
                    self.queue.schedule_in(d, Ev::Arrive(fd));
                }
            }
            Ev::Refill(fd, add) => {
                if let Some(s) = self.sock(fd) {
                    s.refill_pending = false;
                    s.window += add;
                    self.edges.push(fd);
                }
            }
            Ev::Leave(fd) => {
                if let Some(s) = self.sock(fd) {
                    s.eof = true;
                    self.edges.push(fd);
                }
            }
            Ev::HelperDone(job) => {
                // A cancelled job is usually skipped by the helper (the
                // cooperative flag); half the time we model a helper
                // already past the check — its completion must then die
                // on the token gate inside `complete_job`.
                if job.is_cancelled() && self.rng.chance(0.5) {
                    return;
                }
                let data = self.exec_job(&job);
                self.reply(Reply::Done(job.done(data)));
            }
            Ev::Spawned => {
                let worker = Sock {
                    worker: true,
                    ..Sock::default()
                };
                let fd = self.open(worker);
                self.reply(Reply::Spawned(Ok(fd)));
            }
            Ev::Tick => {}
            Ev::BeginDrain if self.backlog > 0 => {
                self.queue.schedule_in(5 * MILLI, Ev::BeginDrain);
            }
            Ev::BeginDrain => {
                self.lifecycle.begin_drain(self.now() + DRAIN_GRACE);
                self.raise_wake();
            }
        }
    }

    /// A receive window, initial or refilled: tiny under the
    /// partial-write fault.
    fn window(&mut self, partial: bool) -> usize {
        if partial {
            64 + self.rng.uniform(0, 448) as usize
        } else {
            2048 + self.rng.uniform(0, 62 * 1024) as usize
        }
    }

    /// Takes one connection off the backlog — or fails with `EMFILE`
    /// — and gives it its script, its faults and its window.
    fn accept(&mut self) -> io::Result<RawFd> {
        const EMFILE: i32 = 24;
        if self.backlog == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let f = self.cfg.faults.clone();
        if self.rng.chance(f.emfile) {
            return Err(io::Error::from_raw_os_error(EMFILE));
        }
        self.backlog -= 1;
        let (trickle, partial) = (self.rng.chance(f.trickle), self.rng.chance(f.partial_write));
        let eof_after = self.rng.chance(f.half_close);
        let reset_at = self.rng.chance(f.client_reset);
        let reset_at = reset_at.then(|| 64 + self.rng.uniform(0, 4096));
        // A dynamic request: only where the mix has any.
        let leaves = self.cfg.dynamic_fraction > 0.0 && self.rng.chance(f.parked_hangup);
        let fd = self.open(Sock::default());
        let window = self.window(partial);
        let (script, eof_after) = if leaves {
            // The silent endpoint learns from the path whom to hang up.
            let req = format!("GET {SILENT}{fd} HTTP/1.1\r\nHost: sim\r\n\r\n");
            (VecDeque::from([(50_000, req.into_bytes())]), false)
        } else {
            (self.build_script(trickle, eof_after), eof_after)
        };
        let first = script.front().map(|&(d, _)| d);
        self.socks[fd as usize] = Some(Sock {
            window,
            script,
            eof_after,
            partial,
            reset_at,
            ..Sock::default()
        });
        if let Some(d) = first {
            self.queue.schedule_in(d, Ev::Arrive(fd));
        }
        Ok(fd)
    }

    /// How many bytes connection `fd` takes now: its window, up to the
    /// client's reset point. A closed window schedules its refill.
    fn room(&mut self, fd: RawFd) -> io::Result<usize> {
        let s = self.sock(fd).expect("an open connection");
        if s.reset() {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        let to_reset = s.reset_at.map_or(u64::MAX, |at| at - s.received());
        let room = s.window.min(to_reset as usize);
        if room == 0 && !std::mem::replace(&mut s.refill_pending, true) {
            let partial = s.partial;
            let d = 50_000 + self.rng.exp(0.4 * MILLI as f64) as u64;
            let add = self.window(partial);
            self.queue.schedule_in(d, Ev::Refill(fd, add));
        }
        match room {
            0 => Err(io::ErrorKind::WouldBlock.into()),
            n => Ok(n),
        }
    }

    /// A helper job: a wedged helper, a stalled disk, or the usual
    /// latency.
    fn dispatch(&mut self, job: HelperJob) {
        let (wedge, stall) = (self.cfg.faults.wedge, self.cfg.faults.disk_stall);
        let delay = if self.rng.chance(wedge) {
            5 * SEC
        } else if self.rng.chance(stall) {
            50 * MILLI + self.rng.exp(5.0 * MILLI as f64) as u64
        } else {
            100_000 + self.rng.exp(2.0 * MILLI as f64) as u64
        };
        self.queue.schedule_in(delay, Ev::HelperDone(job));
    }

    /// A worker reads its request line and scripts its answer: after
    /// the endpoint's compute time, one `DATA` frame per write on
    /// simulated time, the last with the `END` behind it. Under the
    /// faults it never answers (a wedge), exits halfway (a crash), or
    /// writes a line that is not a frame where a frame or the `END`
    /// belonged (garbage). The silent endpoint never answers, and its
    /// client leaves shortly after the worker has the line.
    fn start_exchange(&mut self, fd: RawFd, line: &[u8]) {
        let path = std::str::from_utf8(line).unwrap_or_default();
        let path = path.trim_end().trim_start_matches("GET ");
        if let Some(client) = path.strip_prefix(SILENT).and_then(|c| c.parse().ok()) {
            let d = 20_000 + self.rng.exp(200_000.0) as u64;
            self.queue.schedule_in(d, Ev::Leave(client));
            return;
        }
        // An unknown endpoint answers an empty response.
        let app = self.apps.iter().find(|(p, _)| p == path);
        let app = app.map_or(DynApp::new(0, 0, 0), |&(_, app)| app);
        let f = self.cfg.faults.clone();
        let wedge = self.rng.chance(f.wedge);
        let crash = self.rng.chance(f.worker_crash);
        let garbage = self.rng.chance(f.worker_garbage);
        let emit = if crash {
            app.output_bytes / 2
        } else {
            app.output_bytes
        };
        let frames = emit.div_ceil(FRAME);
        let garbage_at = garbage.then(|| self.rng.uniform(0, frames + 1));
        let jitter = self.rng.exp(DYNAMIC_COMPUTE_NANOS as f64) as u64;
        let mut delay = app.compute_ns + 100_000 + jitter;
        let mut script = VecDeque::new();
        for frame in (0..frames).take_while(|&f| garbage_at != Some(f)) {
            let (off, take) = (frame * FRAME, (emit - frame * FRAME).min(FRAME));
            let mut bytes = format!("DATA {take}\n").into_bytes();
            bytes.extend((off..off + take).map(|o| body_byte(app.id, o)));
            script.push_back((delay, bytes));
            delay = 20_000 + self.rng.exp(100_000.0) as u64;
        }
        let end: &[u8] = match (garbage, crash) {
            (true, _) => b"WAT\n",
            (false, true) => b"",
            (false, false) => b"END\n",
        };
        match script.back_mut() {
            Some((_, last)) if !garbage => last.extend_from_slice(end),
            _ => script.push_back((delay, end.to_vec())),
        }
        let first = script.front().map(|&(d, _)| d);
        let s = self.sock(fd).expect("an open worker");
        (s.script, s.eof_after) = (script, crash);
        if let Some(d) = first.filter(|_| !wedge) {
            self.queue.schedule_in(d, Ev::Arrive(fd));
        }
    }

    /// One client's whole life as request chunks: 1–4 pipelineable
    /// requests (the last `Connection: close`, unless the client
    /// half-closes instead), a sprinkling of HEAD, POST, conditional,
    /// and missing-path requests, delivered whole or trickled
    /// byte-by-byte per the fault plan.
    fn build_script(&mut self, trickle: bool, half_close: bool) -> VecDeque<(Nanos, Vec<u8>)> {
        let nreq = 1 + self.rng.uniform(0, 4);
        let (mut stream, mut last_start) = (Vec::new(), 0);
        for i in 0..nreq {
            last_start = stream.len();
            let roll = self.rng.unit();
            let (method, path) = if roll < 0.02 {
                ("POST", "/submit".to_string())
            } else if roll < 0.05 {
                ("GET", format!("/missing/{}.html", self.rng.uniform(0, 997)))
            } else if roll < 0.07 {
                ("GET", "/".to_string())
            } else {
                // The dynamic tier's endpoints have no validators and
                // no ranges: `rep` below resolves to None for them,
                // matching the tier's conditional bypass.
                let path = if self.rng.chance(self.cfg.dynamic_fraction) {
                    let pick = self.rng.uniform(0, self.apps.len() as u64) as usize;
                    self.apps[pick].0.clone()
                } else {
                    self.paths[self.zipf.sample(&mut self.rng)].clone()
                };
                (if self.rng.chance(0.05) { "HEAD" } else { "GET" }, path)
            };
            let _ = write!(stream, "{method} {path} HTTP/1.1\r\nHost: sim\r\n");
            let accept_gzip = method != "POST" && self.rng.chance(self.cfg.gzip_fraction);
            if accept_gzip {
                stream.extend_from_slice(b"Accept-Encoding: gzip\r\n");
            }
            // The representation this request will negotiate: the `.gz`
            // sibling when the client accepts gzip and the file has
            // one, the identity file otherwise. Conditional validators
            // and range bounds are drawn against it, exactly as a real
            // client revalidating or resuming a prior download would.
            let rep = self.files.get(&path).map(|f| match gzip_sibling(f) {
                Some(gz) if accept_gzip => gz,
                _ => f.clone(),
            });
            let get = method == "GET";
            if let Some(f) = rep.as_ref().filter(|_| get && self.rng.chance(0.15)) {
                let t = flash_http::date::format_imf(f.mtime - self.stale());
                let _ = write!(stream, "If-Modified-Since: {t}\r\n");
            }
            let inm = get && self.rng.chance(INM_FRACTION);
            if let Some(f) = rep.as_ref().filter(|_| inm) {
                let gz = f.id & 0x8000_0000 != 0;
                let tag = flash_http::etag_value(Some(f.mtime - self.stale()), f.len, gz);
                let _ = write!(stream, "If-None-Match: {tag}\r\n");
            }
            let range = method != "POST" && self.rng.chance(RANGE_FRACTION);
            if let Some(f) = rep.as_ref().filter(|_| range) {
                let roll = self.rng.unit();
                let _ = if roll < 0.10 {
                    // Past EOF: unsatisfiable → 416.
                    let start = f.len + 1 + self.rng.uniform(0, 1000);
                    write!(stream, "Range: bytes={start}-\r\n")
                } else if roll < 0.25 {
                    let suffix = 1 + self.rng.uniform(0, f.len.max(1));
                    write!(stream, "Range: bytes=-{suffix}\r\n")
                } else {
                    let start = self.rng.uniform(0, f.len.max(1));
                    let end = start + self.rng.uniform(0, f.len - start + 64);
                    write!(stream, "Range: bytes={start}-{end}\r\n")
                };
            }
            if i + 1 == nreq && !half_close {
                stream.extend_from_slice(b"Connection: close\r\n");
            }
            stream.extend_from_slice(b"\r\n");
        }
        if half_close && self.rng.chance(0.25) {
            // The end of stream lands inside the last request.
            let span = (stream.len() - last_start - 1) as u64;
            stream.truncate(last_start + 1 + self.rng.uniform(0, span) as usize);
        }
        let mut script = VecDeque::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            // Trickled: slow enough that a typical request needs longer
            // than the header deadline — most trickled requests are the
            // slowloris the deadline exists for; short ones squeak
            // through.
            let (chunk, delay) = if trickle {
                (
                    1 + self.rng.uniform(0, 4),
                    MILLI + self.rng.uniform(0, 9 * MILLI),
                )
            } else {
                (
                    256 + self.rng.uniform(0, 1792),
                    50_000 + self.rng.uniform(0, MILLI),
                )
            };
            let (now, later) = rest.split_at((chunk as usize).min(rest.len()));
            script.push_back((delay, now.to_vec()));
            rest = later;
        }
        script
    }

    /// How far a conditional validator lags the file: 60/40 current
    /// (→ 304) vs two hours stale (→ 200).
    fn stale(&mut self) -> i64 {
        if self.rng.chance(0.6) {
            0
        } else {
            7200
        }
    }

    /// The simulated disk, answering as a helper's blocking executor
    /// ([`flash_net::fsjob::exec_job`]) does: no tier or variant policy
    /// of its own — the inline/fd split obeys
    /// [`HelperJob::inline_max`], the representation obeys
    /// [`HelperJob::variant`] (a gzip preference serves the simulated
    /// `.gz` sibling when the identity file has one, falling back to
    /// identity otherwise; a missing identity file is `NotFound` even
    /// when a sibling "exists").
    ///
    /// The residency test does **not** match the real one. The sim
    /// decides residency with the [`SimConfig::resident_fraction`]
    /// coin and then answers here, as a helper would: bytes up to
    /// `inline_max`. The real test
    /// ([`flash_net::fsjob::exec_job_nowait`]) resolves by path and
    /// reads; a file the real shard's open-file table holds never
    /// becomes a job at all ([`flash_net::fsjob::OpenFileTable::held`]),
    /// and this kernel holds none. A simulated page cache, and the
    /// table with it, is ROADMAP item 14.
    fn exec_job(&self, job: &HelperJob) -> DoneData<SimFile> {
        let not_found = || io::Error::from(io::ErrorKind::NotFound);
        let file = self.files.get(cache::split_variant_key(&job.path).0);
        let sibling = file.and_then(gzip_sibling);
        match job.kind {
            // Stat the file the entry's variant came from.
            JobKind::Revalidate => {
                let probe = if job.variant.is_gzip() {
                    sibling
                } else {
                    file.cloned()
                };
                DoneData::Stat(probe.map(|v| (v.len, Some(v.mtime))).ok_or_else(not_found))
            }
            JobKind::Load => DoneData::Loaded(file.ok_or_else(not_found).map(|f| {
                let has_gzip = sibling.is_some();
                let (serve, variant) = match sibling.filter(|_| job.variant.is_gzip()) {
                    Some(gz) => (gz, Variant::Gzip),
                    None => (f.clone(), Variant::Identity),
                };
                let mtime = Some(serve.mtime);
                let data = if serve.len > job.inline_max {
                    let len = serve.len;
                    FileData::Fd {
                        file: serve,
                        len,
                        mtime,
                    }
                } else {
                    let body = (0..serve.len).map(|o| body_byte(serve.id, o)).collect();
                    FileData::Bytes { body, mtime }
                };
                LoadResult {
                    data,
                    variant,
                    has_gzip,
                }
            })),
            // Dynamic jobs go to the shard's workers, never to a disk.
            JobKind::Dynamic => unreachable!("dynamic job reached the sim disk"),
        }
    }
}

/// A descriptor of the simulated kernel, as the shard holds it: the
/// listener, a client connection (its transport) or an application
/// worker's socket (the worker set's endpoint).
struct SimFd {
    fd: RawFd,
    k: K,
}

impl AsRawFd for SimFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for SimFd {
    fn drop(&mut self) {
        self.k.borrow_mut().close(self.fd);
    }
}

impl Read for SimFd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut k = self.k.borrow_mut();
        let s = k.sock(self.fd).expect("an open socket");
        if s.reset() {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if s.inbox.is_empty() && !s.eof {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        s.inbox.read(buf)
    }
}

/// A worker's socket takes one request line at a time.
impl Write for SimFd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.k.borrow_mut().start_exchange(self.fd, buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ConnIo for SimFd {
    type FileRef = SimFile;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        let mut k = self.k.borrow_mut();
        let room = k.room(self.fd)?;
        let s = k.sock(self.fd).expect("an open connection");
        let mut n = 0;
        for b in bufs {
            let take = (room - n).min(b.len());
            s.sent.extend_from_slice(&b[..take]);
            n += take;
        }
        s.window -= n;
        Ok(n)
    }

    fn sendfile(&mut self, file: &SimFile, offset: &mut u64, max: u64) -> io::Result<usize> {
        let mut k = self.k.borrow_mut();
        let room = k.room(self.fd)?;
        let s = k.sock(self.fd).expect("an open connection");
        let n = max.min(room as u64).min(file.len.saturating_sub(*offset));
        for off in *offset..*offset + n {
            s.body_hash = fnv(s.body_hash, body_byte(file.id, off));
        }
        s.body_bytes += n;
        s.window -= n as usize;
        *offset += n;
        Ok(n as usize)
    }
}

/// The shard's readiness backend: the kernel's registrations and edges.
struct SimBackend {
    k: K,
}

impl EventBackend for SimBackend {
    fn kind(&self) -> BackendChoice {
        BackendChoice::Epoll
    }

    fn edge_triggered(&self) -> bool {
        true
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut k = self.k.borrow_mut();
        k.regs[fd as usize] = Some((token, interest));
        k.edges.push(fd);
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut k = self.k.borrow_mut();
        let reg = k.regs[fd as usize]
            .as_mut()
            .ok_or(io::ErrorKind::NotFound)?;
        *reg = (token, interest);
        k.edges.push(fd);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.forget(fd);
        Ok(())
    }

    fn forget(&mut self, fd: RawFd) {
        self.k.borrow_mut().regs[fd as usize] = None;
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        Ok(self.k.borrow_mut().wait(events, timeout_ms))
    }

    fn registered(&self) -> usize {
        self.k.borrow().regs.iter().flatten().count()
    }
}

/// The shard's environment in the sim: every call answered by the
/// kernel, and the clock reads and wakes the shard takes counted.
struct SimEnv {
    k: K,
    /// Every `Env::now` the shard has made: a loop turn reads the clock
    /// when its wait returns and when it ends, and once more only for
    /// each further phase that works in it (`server.rs`, *The turn's
    /// clock*).
    clock_reads: Cell<u64>,
    /// Every wake the shard has taken.
    wakes: u64,
}

impl Env for SimEnv {
    type Stream = SimFd;
    type Listener = SimFd;
    type Worker = SimFd;
    type Backend = SimBackend;

    fn now(&self) -> Instant {
        self.clock_reads.set(self.clock_reads.get() + 1);
        self.k.borrow().now()
    }

    fn accept(&mut self, _listener: &SimFd) -> io::Result<SimFd> {
        let fd = self.k.borrow_mut().accept()?;
        let k = Rc::clone(&self.k);
        Ok(SimFd { fd, k })
    }

    fn try_inline(&mut self, job: &HelperJob) -> Option<DoneData<SimFile>> {
        let mut k = self.k.borrow_mut();
        let resident = k.cfg.resident_fraction;
        k.rng.chance(resident).then(|| k.exec_job(job))
    }

    fn push(&mut self, work: Work<SimFd>) {
        match work {
            // Killed and reaped: its descriptor closes.
            Work::Reap(worker) => drop(worker),
            Work::Spawn => {
                let mut k = self.k.borrow_mut();
                let d = 300_000 + k.rng.exp(300_000.0) as u64;
                k.queue.schedule_in(d, Ev::Spawned);
            }
            Work::Job(job) => self.k.borrow_mut().dispatch(job),
        }
    }

    fn clear_files(&mut self) {}

    fn take_wake(&mut self) {
        self.wakes += 1;
        self.k.borrow_mut().wake = false;
    }

    fn recv(&mut self) -> Option<Reply<SimFile, SimFd>> {
        let reply = self.k.borrow_mut().replies.pop_front()?;
        let k = Rc::clone(&self.k);
        Some(match reply {
            Reply::Done(done) => Reply::Done(done),
            Reply::Spawned(fd) => Reply::Spawned(fd.map(|fd| SimFd { fd, k })),
        })
    }

    fn after_turn(shard: &Shard<SimEnv>) {
        let env = shard.env();
        let mut k = env.k.borrow_mut();
        k.turns += 1;
        if let Some(log) = k.turn_log.as_mut() {
            log.push((env.clock_reads.get(), env.wakes, shard.counts()));
        }
        let (turns, events) = (k.turns, k.queue.events_processed());
        let every = k.cfg.check_every;
        if let Some(Err(e)) = (every > 0 && turns % every == 0).then(|| shard.check_invariants()) {
            let t = k.queue.now();
            k.fail(format!("invariant violated (turn {turns}, t={t:?}): {e}"));
        }
        if k.out_of_fuel() {
            let live = shard.live();
            k.fail(format!(
                "fuel exhausted after {events} events and {turns} turns with {live} connections live — livelock"
            ));
        }
    }
}

/// One simulated run: the kernel, the shard over it, and the lifecycle
/// the kernel drives the shard through.
struct Sim {
    k: K,
    lifecycle: Arc<LifecycleShared>,
    shard: Shard<SimEnv>,
}

impl Sim {
    fn new(cfg: SimConfig, specs: &[FileSpec]) -> Sim {
        let (mut files, mut paths) = (HashMap::new(), Vec::new());
        for (i, s) in specs.iter().enumerate() {
            // Deterministic, distinct per file, in the parseable
            // IMF-fixdate range.
            let (id, len) = (i as u32, s.size);
            let mtime = 800_000_000 + id as i64 * 61;
            files.insert(s.path.clone(), SimFile { id, len, mtime });
            paths.push(s.path.clone());
        }
        // The application set, a pure function of the index: compute
        // times 1–5 ms, bodies a few frames long.
        let apps: Vec<_> = (0u32..12)
            .map(|i| {
                let (compute, output) = ((1 + i as u64 % 5) * MILLI, 200 + (i as u64 * 977) % 6000);
                (
                    format!("{DYN_PREFIX}{i}"),
                    DynApp::new(0xC000_0000 | i, compute, output),
                )
            })
            .collect();
        let mut net = NetConfig::new("/sim");
        net.cache_bytes = cfg.cache_bytes;
        net.event_loops = 1;
        net.idle_timeout = Some(Duration::from_millis(120));
        net.header_read_timeout = Some(Duration::from_millis(100));
        net.write_stall_timeout = Some(Duration::from_millis(150));
        net.helper_wait_timeout = Some(Duration::from_millis(20));
        net.cache_revalidate_ttl = Some(Duration::from_millis(5));
        net.sendfile_threshold_bytes = cfg.sendfile_threshold;
        net.max_conns_per_shard = MAX_CONCURRENT;
        net.helpers = SIM_WORKERS;
        net.dynamic_prefix = Some(DYN_PREFIX.to_string());
        // Generous against the 1–5 ms compute times, decisive against
        // a wedged worker.
        net.dynamic_deadline = Some(Duration::from_millis(100));
        let lifecycle = Arc::new(LifecycleShared::default());
        let k = Rc::new(RefCell::new(Kernel {
            zipf: Zipf::new(paths.len().max(1), 1.0),
            rng: SimRng::new(cfg.seed),
            queue: EventQueue::new(),
            base: Instant::now(),
            lifecycle: Arc::clone(&lifecycle),
            files,
            paths,
            apps,
            socks: vec![None, None],
            regs: vec![None, None],
            edges: Vec::new(),
            arrived: 0,
            backlog: 0,
            wake: false,
            replies: VecDeque::new(),
            turns: 0,
            turn_log: None,
            error: None,
            fingerprint: FNV_OFFSET,
            bytes: 0,
            unanswered: 0,
            server_errors: 0,
            cfg,
        }));
        // Registered as `Server::start` registers a real shard's.
        let mut backend = Box::new(SimBackend { k: Rc::clone(&k) });
        let _ = backend.register(WAKE_FD, WAKE_TOKEN, Interest::READ);
        let _ = backend.register(LISTEN_FD, LISTENER_TOKEN, Interest::ACCEPT);
        let listener = SimFd {
            fd: LISTEN_FD,
            k: Rc::clone(&k),
        };
        let env = SimEnv {
            k: Rc::clone(&k),
            clock_reads: Cell::new(0),
            wakes: 0,
        };
        let shard = Shard::new(0, env, backend, listener, Arc::default(), &net);
        // A run of no connections drains at once.
        let first = match k.borrow().cfg.connections {
            0 => Ev::BeginDrain,
            _ => Ev::Open,
        };
        k.borrow_mut().queue.schedule_in(1, first);
        Sim {
            k,
            lifecycle,
            shard,
        }
    }

    /// Runs the shard's loop until the drain ends it, and reports.
    fn run(mut self) -> Result<SimReport, String> {
        shard_loop(&mut self.shard, &self.lifecycle);
        let mut k = self.k.borrow_mut();
        let shard = &self.shard;
        if let Some(e) = k.error.take() {
            return Err(e);
        }
        if shard.live() != 0 {
            let live = shard.live();
            return Err(format!("the drain deadline severed {live} connections"));
        }
        shard
            .check_invariants()
            .map_err(|e| format!("invariant violated at the end: {e}"))?;
        if shard.jobs_in_flight() != 0 {
            return Err("leaked jobs in flight at end of run".into());
        }
        Ok(SimReport {
            counts: shard.counts(),
            bytes: k.bytes,
            fingerprint: k.fingerprint,
            unanswered: k.unanswered,
            server_errors: k.server_errors,
            reloads: shard.epoch(),
            sim_elapsed_nanos: k.queue.now().as_nanos(),
            events: k.queue.events_processed(),
        })
    }
}

/// Replays `cfg.connections` simulated connections through the shipped
/// shard loop over the simulated kernel and the given file set. Returns
/// the run's [`SimReport`] — or `Err` on any invariant violation,
/// stranded connection, or livelock. Same inputs ⇒ equal report, always.
pub fn run(cfg: &SimConfig, specs: &[FileSpec]) -> Result<SimReport, String> {
    if specs.is_empty() {
        return Err("sim needs a non-empty file set".into());
    }
    Sim::new(cfg.clone(), specs).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_simcore::time::SimTime;
    use flash_workload::sitegen::{generate_files, SizeDist};

    fn small_site(seed: u64) -> Vec<FileSpec> {
        let mut rng = SimRng::new(seed);
        let dist = SizeDist {
            body_median: 2_000.0,
            body_sigma: 1.0,
            tail_fraction: 0.03,
            tail_scale: 20_000.0,
            tail_alpha: 1.3,
            max_bytes: 128 * 1024,
        };
        generate_files(&mut rng, 512 * 1024, &dist)
    }

    /// Checked on every event: a few thousand fault-heavy connections
    /// with the invariant checker at maximum cadence.
    #[test]
    fn fault_heavy_run_holds_invariants_every_event() {
        let site = small_site(7);
        let mut cfg = SimConfig::new(42, 2_000);
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("invariants must hold");
        assert_eq!(report.counts.accepted, 2_000);
        assert!(
            report.counts.requests > 1_000,
            "requests: {}",
            report.counts.requests
        );
        assert!(report.bytes > 0);
        assert!(
            report.counts.cache_hits > 0,
            "Zipf traffic must hit the cache"
        );
        assert!(report.counts.helper_jobs > 0);
        assert_eq!(report.reloads, 2, "both mid-run reloads must apply");
        assert!(
            report.counts.helper_wait_timeouts > 0,
            "wedged/stalled helpers must reap waiters: {report:?}"
        );
        assert!(
            report.counts.jobs_cancelled > 0,
            "reaped last-waiters must cancel their jobs: {report:?}"
        );
        assert!(
            report.counts.read_timeouts > 0,
            "trickled headers must hit the header deadline: {report:?}"
        );
        assert!(
            report.counts.not_modified > 0,
            "current-validator IMS/INM requests must 304: {report:?}"
        );
        assert!(
            report.counts.range_requests > 0,
            "the range fraction must reach file responses: {report:?}"
        );
        assert!(
            report.counts.range_unsatisfiable > 0,
            "past-EOF ranges must 416: {report:?}"
        );
        assert!(
            report.counts.range_unsatisfiable < report.counts.range_requests,
            "most generated ranges are satisfiable: {report:?}"
        );
        assert!(
            report.counts.drained_conns > 0,
            "drain must retire idle conns"
        );
        // The dynamic fraction must reach the worker pool, and the
        // fault mix must produce both respawns (crashes) and wedges
        // reaped by the DynamicWait deadline.
        assert!(report.counts.dynamic_requests > 0, "{report:?}");
        assert!(report.counts.worker_respawns > 0, "{report:?}");
        assert!(
            report.counts.worker_wait.count > 0,
            "delivered dynamic exchanges must record a worker wait: {report:?}"
        );
        // The histograms ride the same drive path: every completed
        // response has a latency sample, every admitted connection a
        // lifetime sample, and parked waiters a helper-wait sample.
        assert_eq!(
            report.counts.request_latency.count, report.counts.requests,
            "{report:?}"
        );
        assert_eq!(
            report.counts.conn_lifetime.count, report.counts.accepted,
            "{report:?}"
        );
        assert!(report.counts.helper_wait.count > 0, "{report:?}");
        assert!(report.counts.ttfb.count > 0, "{report:?}");
        assert!(report.counts.request_latency.p99_nanos >= report.counts.request_latency.p50_nanos);
    }

    /// A connection whose first request chunk is still in flight when
    /// the drain begins (the first chunk lands 50 µs–1 ms after the
    /// connection; the drain here 1 ns after it) has not been answered
    /// yet: the core's drain-entry rule must spare it, and it is served
    /// before the drain retires it. The drain reaches the shard through
    /// `LifecycleShared`, as a signal's does.
    #[test]
    fn drain_entry_spares_a_connection_not_yet_answered() {
        let mut cfg = SimConfig::new(3, 1);
        cfg.faults = FaultPlan::none();
        cfg.check_every = 1;
        let sim = Sim::new(cfg, &small_site(7));
        sim.k
            .borrow_mut()
            .queue
            .schedule_at(SimTime(2), Ev::BeginDrain);
        let report = sim.run().expect("invariants");
        assert_eq!(report.counts.accepted, 1);
        assert!(
            report.counts.requests >= 1,
            "swept before its request arrived"
        );
        assert_eq!(report.counts.drained_conns, 1);
        assert_eq!(report.unanswered, 0);
    }

    /// The listener is level-triggered and taken one connection per
    /// report: eight arrivals queued behind the one edge the shard's
    /// first wait reports are admitted over eight turns, one `accept`
    /// each — none finds the backlog empty — and none is stranded.
    #[test]
    fn a_queued_backlog_is_admitted_one_accept_per_turn() {
        const N: u64 = 8;
        let mut cfg = SimConfig::new(5, 0);
        cfg.faults = FaultPlan::none();
        cfg.check_every = 1;
        let sim = Sim::new(cfg, &small_site(7));
        {
            let mut k = sim.k.borrow_mut();
            k.backlog = N;
            k.edges.push(LISTEN_FD);
        }
        let report = sim.run().expect("invariants");
        let c = &report.counts;
        assert_eq!((c.accepted, c.accept_calls), (N, N), "{report:?}");
        assert!(c.wait_calls >= N, "{report:?}");
        assert_eq!(report.unanswered, 0, "{report:?}");
    }

    /// The clock-read ledger: a loop turn that only serves requests —
    /// keep-alive cache hits, or a warm dynamic request's two turns
    /// (the request line out, the worker's frames back and relayed) —
    /// reads the clock twice, when its wait returns and when it ends,
    /// whatever it serves. Turns that accept, take a wake, fire a
    /// deadline or replace a worker work in more than one phase and
    /// may read once more per phase; they are left out.
    #[test]
    fn a_serving_turn_reads_the_clock_twice() {
        for dynamic in [false, true] {
            let mut cfg = SimConfig::new(11, 400);
            cfg.faults = FaultPlan::none();
            cfg.check_every = 1;
            cfg.resident_fraction = 1.0;
            cfg.gzip_fraction = 0.0;
            cfg.dynamic_fraction = if dynamic { 1.0 } else { 0.0 };
            let sim = Sim::new(cfg, &small_site(3));
            let k = Rc::clone(&sim.k);
            k.borrow_mut().turn_log = Some(Vec::new());
            sim.run().expect("clean run");
            let log = k.borrow_mut().turn_log.take().unwrap();
            let mut serving = 0;
            for pair in log.windows(2) {
                let ((r0, w0, a), (r1, w1, b)) = (&pair[0], &pair[1]);
                let quiet = |f: fn(&Counts) -> u64| f(a) == f(b);
                let only_served = w0 == w1
                    && quiet(|c| c.accepted)
                    && quiet(|c| c.idle_reaped + c.read_timeouts + c.write_stall_timeouts)
                    && quiet(|c| c.helper_wait_timeouts + c.dynamic_timeouts)
                    && quiet(|c| c.worker_respawns);
                let served = if dynamic {
                    !quiet(|c| c.worker_io_calls)
                } else {
                    !quiet(|c| c.cache_hits) && quiet(|c| c.helper_jobs)
                };
                if only_served && served {
                    serving += 1;
                    assert_eq!(r1 - r0, 2, "dynamic: {dynamic}, {a:?} -> {b:?}");
                }
            }
            assert!(serving > 100, "dynamic: {dynamic}: {serving} serving turns");
        }
    }

    /// The acceptance bar: same seed ⇒ byte-identical report (the
    /// fingerprint folds every scrubbed response byte), different
    /// seed ⇒ a different stream.
    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let site = small_site(7);
        let cfg = SimConfig::new(1234, 3_000);
        let a = run(&cfg, &site).expect("run A");
        let b = run(&cfg, &site).expect("run B");
        assert_eq!(a, b, "same seed must replay bit-for-bit");

        let other = run(&SimConfig::new(1235, 3_000), &site).expect("run C");
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "different seeds should not collide"
        );
    }

    /// With faults off and generous pacing, nothing times out and no
    /// job is ever cancelled — the reap counters are all quiet.
    #[test]
    fn clean_run_has_no_timeouts_or_cancellations() {
        let site = small_site(9);
        let mut cfg = SimConfig::new(5, 1_500);
        cfg.faults = FaultPlan::none();
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("clean run");
        assert_eq!(report.counts.accepted, 1_500);
        assert_eq!(report.counts.helper_wait_timeouts, 0, "{report:?}");
        assert_eq!(report.counts.jobs_cancelled, 0, "{report:?}");
        assert_eq!(report.counts.read_timeouts, 0, "{report:?}");
        assert_eq!(report.counts.write_stall_timeouts, 0, "{report:?}");
        assert_eq!(report.counts.dynamic_timeouts, 0, "{report:?}");
        assert_eq!(report.counts.worker_respawns, 0, "{report:?}");
        assert_eq!(report.unanswered, 0, "{report:?}");
        assert!(report.counts.requests > 1_500, "{report:?}");
        assert!(
            report.counts.dynamic_requests > 0,
            "the dynamic fraction must draw requests: {report:?}"
        );
    }

    /// Wedged application workers must be reaped by the DynamicWait
    /// deadline: a heavy wedge fraction yields 504s (`dynamic_timeouts`)
    /// and kills (`worker_respawns`), and the run stays bit-identical
    /// per seed — the dynamic tier is inside the fingerprint contract.
    #[test]
    fn wedged_workers_time_out_deterministically() {
        let site = small_site(17);
        let mut cfg = SimConfig::new(99, 2_000);
        cfg.dynamic_fraction = 0.25;
        cfg.faults = FaultPlan::none();
        cfg.faults.wedge = 0.10;
        cfg.faults.worker_crash = 0.05;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("wedged run");
        assert!(report.counts.dynamic_requests > 50, "{report:?}");
        assert!(
            report.counts.dynamic_timeouts > 0,
            "wedged exchanges must 504 on the DynamicWait deadline: {report:?}"
        );
        assert!(
            report.counts.worker_respawns > 0,
            "wedges and crashes must retire workers: {report:?}"
        );
        assert!(
            report.counts.jobs_cancelled > 0,
            "purged dynamic waiters must cancel their jobs: {report:?}"
        );
        let again = run(&cfg, &site).expect("wedged run again");
        assert_eq!(report, again, "dynamic traffic stays bit-identical");
    }

    /// The residency split: every filesystem job is either completed
    /// in its dispatching tick (counted, invariants checked after it)
    /// or handed to the simulated pool. All-resident traffic never
    /// waits on a helper, so nothing can be reaped there; no-resident
    /// traffic never takes the inline path; the fraction moves the
    /// response timing, so it is inside the per-seed fingerprint
    /// contract like every other knob.
    #[test]
    fn resident_jobs_complete_in_their_dispatching_tick() {
        let site = small_site(19);
        let mut cfg = SimConfig::new(31, 1_500);
        cfg.check_every = 1;
        cfg.dynamic_fraction = 0.0;
        let mixed = run(&cfg, &site).expect("mixed run");
        assert!(mixed.counts.inline_jobs > 0, "{mixed:?}");
        assert!(
            mixed.counts.inline_jobs < mixed.counts.helper_jobs,
            "{mixed:?}"
        );
        assert_eq!(mixed, run(&cfg, &site).expect("mixed run again"));

        cfg.resident_fraction = 1.0;
        let all = run(&cfg, &site).expect("all-resident run");
        assert_eq!(all.counts.inline_jobs, all.counts.helper_jobs, "{all:?}");
        assert_eq!(all.counts.helper_wait_timeouts, 0, "{all:?}");
        assert_eq!(all.counts.jobs_cancelled, 0, "{all:?}");
        assert_eq!(
            all.counts.helper_wait.sum_nanos, 0,
            "a resident job completes at the instant it was dispatched: {all:?}"
        );
        assert!(
            all.counts.revalidations > 0 && all.counts.stale_evicted == 0,
            "{all:?}"
        );

        cfg.resident_fraction = 0.0;
        let none = run(&cfg, &site).expect("no-resident run");
        assert_eq!(none.counts.inline_jobs, 0, "{none:?}");
        assert!(none.counts.helper_wait_timeouts > 0, "{none:?}");
        assert_ne!(none.fingerprint, all.fingerprint);
    }

    /// Both body tiers must be exercised: the sim's threshold sits
    /// inside the generated size range, so some bodies stream through
    /// the simulated `sendfile` and some through `writev`.
    #[test]
    fn both_body_tiers_are_exercised() {
        let site = small_site(11);
        assert!(
            site.iter().any(|f| f.size >= 16 * 1024),
            "need a large file"
        );
        assert!(site.iter().any(|f| f.size < 16 * 1024), "need a small file");
        let report = run(&SimConfig::new(77, 2_000), &site).expect("run");
        assert!(report.bytes > 0);
    }

    /// Variant negotiation must be live in the stream: turning the
    /// Accept-Encoding fraction off changes what the same seed serves
    /// (the gzip representation has different bytes, lengths, and
    /// validators). `chance(0.0)` still consumes an RNG draw, so the
    /// two runs share arrival order and differ only in negotiation.
    #[test]
    fn gzip_negotiation_reaches_the_wire() {
        let site = small_site(13);
        assert!(
            site.len() >= 3,
            "need enough files for some to have gz siblings"
        );
        let mut cfg = SimConfig::new(21, 1_000);
        cfg.faults = FaultPlan::none();
        let with_gz = run(&cfg, &site).expect("gzip run");
        let mut cfg_id = cfg.clone();
        cfg_id.gzip_fraction = 0.0;
        let identity_only = run(&cfg_id, &site).expect("identity run");
        assert_ne!(
            with_gz.fingerprint, identity_only.fingerprint,
            "negotiated gzip variants must change the response stream"
        );
        let again = run(&cfg, &site).expect("gzip run again");
        assert_eq!(with_gz, again, "variant traffic stays bit-identical");
    }

    /// A client that half-closes behind its last request is closed at
    /// that end of stream, never held to the idle deadline; one whose
    /// end of stream cuts its only request short gets nothing.
    #[test]
    fn a_half_close_closes_at_the_eof() {
        let site = small_site(23);
        let mut cfg = SimConfig::new(61, 1_500);
        cfg.faults = FaultPlan::none();
        cfg.faults.half_close = 1.0;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("half-close run");
        assert_eq!(report.counts.accepted, 1_500);
        assert_eq!(report.counts.idle_reaped, 0, "{report:?}");
        assert_eq!(report.counts.read_timeouts, 0, "{report:?}");
        assert!(report.unanswered > 0, "{report:?}");
        assert!(report.counts.requests > 1_500, "{report:?}");
    }

    /// A client that resets while a dynamic response is still arriving
    /// cancels its exchange at the next chunk, and the worker is retired
    /// by the sweep that ends that turn: one respawn per cancellation.
    #[test]
    fn a_client_reset_mid_stream_retires_the_worker() {
        let site = small_site(29);
        let mut cfg = SimConfig::new(67, 1_500);
        cfg.dynamic_fraction = 1.0;
        cfg.faults = FaultPlan::none();
        cfg.faults.client_reset = 0.3;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("reset run");
        assert!(report.counts.jobs_cancelled > 0, "{report:?}");
        assert_eq!(
            report.counts.worker_respawns, report.counts.jobs_cancelled,
            "{report:?}"
        );
        assert_eq!(report.counts.dynamic_timeouts, 0, "{report:?}");
    }

    /// A client that leaves while its request is parked on a worker
    /// that has not answered aborts it: the hang-up's event closes the
    /// connection, which cancels the exchange, and the sweep that ends
    /// that turn retires the worker — one respawn per cancellation, and
    /// none of it waits for the dynamic deadline.
    #[test]
    fn a_client_leaving_a_silent_worker_retires_it() {
        let site = small_site(37);
        let mut cfg = SimConfig::new(73, 1_500);
        cfg.faults = FaultPlan::none();
        cfg.faults.parked_hangup = 0.1;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("parked-hangup run");
        assert!(report.counts.jobs_cancelled > 0, "{report:?}");
        assert_eq!(
            report.counts.worker_respawns, report.counts.jobs_cancelled,
            "{report:?}"
        );
        assert_eq!(report.counts.dynamic_timeouts, 0, "{report:?}");
        assert_eq!(report.counts.helper_wait_timeouts, 0, "{report:?}");
    }

    /// A worker that writes what is not a frame is read by the real
    /// parser as `Corrupt`: before its first frame the request gets a
    /// `500`, after it a truncated stream — and every such exchange
    /// retires its worker.
    #[test]
    fn worker_garbage_is_a_500_or_a_truncation_and_a_respawn() {
        let site = small_site(31);
        let mut cfg = SimConfig::new(71, 1_000);
        cfg.dynamic_fraction = 0.3;
        cfg.faults = FaultPlan::none();
        cfg.faults.worker_garbage = 1.0;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("garbage run");
        assert!(report.server_errors > 0, "{report:?}");
        assert!(report.counts.worker_respawns > 0, "{report:?}");
        // One worker-wait sample per exchange, one retirement each.
        assert_eq!(
            report.counts.worker_respawns, report.counts.worker_wait.count,
            "{report:?}"
        );
        assert_eq!(report.counts.dynamic_timeouts, 0, "{report:?}");
    }

    #[test]
    fn date_scrubbing_blanks_only_the_value() {
        let mut buf =
            b"HTTP/1.1 200 OK\r\nDate: Fri, 08 Aug 2026 12:00:00 GMT\r\nX: y\r\n\r\n".to_vec();
        let before = buf.len();
        assert_eq!(scrub_dates(&mut buf), 0);
        assert_eq!(buf.len(), before);
        assert!(buf.windows(6).any(|w| w == b"Date: "));
        assert!(
            !buf.windows(3).any(|w| w == b"GMT"),
            "the date value must be gone"
        );
        assert!(
            buf.windows(8).any(|w| w == b"\r\nX: y\r\n"),
            "neighbours intact"
        );
        // A client that reset mid-header took part of a date with it.
        let mut cut = b"HTTP/1.1 500 Internal\r\nDate: Fri, 08 Aug".to_vec();
        assert_eq!(scrub_dates(&mut cut), 1);
        assert!(
            cut.ends_with(b"Date: ###########"),
            "a date cut short is blanked too"
        );
    }
}
