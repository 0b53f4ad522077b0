//! The per-connection protocol machine: output queueing, gathered
//! flush with partial-write resumption, the `sendfile` fairness
//! budget, and per-state deadline classification — generic over
//! [`ConnIo`], performing no syscalls and reading no clocks.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use bytes::Bytes;

use crate::event::Interest;
use crate::timer::TimerWheel;
use crate::writev::MAX_IOV;

use super::plan::RequestCond;
use super::{ConnIo, ProtoConfig, ShardStats};

use std::sync::atomic::Ordering;

/// Where a connection is in its request/response cycle.
pub enum ConnState {
    /// Parsing (or waiting for) request bytes.
    Reading,
    /// Parked: the request is owned by a helper job or an application
    /// worker, and a completion will flip the connection to `Writing`.
    /// Still watched for its peer's hang-up ([`desired_interest`]).
    Waiting,
    /// A response is queued or in flight.
    Writing,
}

/// Large-body transmission state: everything the `sendfile` path needs
/// to resume after a partial send, tracked per connection alongside
/// `out`/`out_off`. The file handle is `Clone` ([`ConnIo::FileRef`])
/// because many connections can stream the same body at once —
/// explicit offsets mean no shared cursor is ever touched.
pub struct SendFileState<F> {
    pub file: F,
    pub offset: u64,
    pub remaining: u64,
}

/// Which deadline class is currently armed in the shard's timers for
/// a connection — also the expiry's *cause*, mapped to the
/// matching [`ShardStats`] counter when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// No deadline armed (the state's class is disabled in
    /// [`ProtoConfig`]).
    None,
    /// Keep-alive idle: between requests, nothing buffered.
    Idle,
    /// Header read: a request has started but not completed.
    Header,
    /// Write progress: a response is in flight.
    WriteStall,
    /// Helper wait: the request is owned by a helper, and a wedged
    /// helper or stalled disk must not pin the fd and slot forever.
    HelperWait,
    /// Dynamic wait: the request is owned by an application worker.
    /// Re-armed on every delivered chunk; expiry answers `504` before
    /// headers are out, severs the stream after — and in both cases
    /// cancels the job so the helper kills and respawns the worker.
    DynamicWait,
}

/// One connection: its transport, parser, and transmission state.
pub struct Conn<Io: ConnIo> {
    /// The transport this connection speaks through.
    pub io: Io,
    pub parser: flash_http::RequestParser,
    pub state: ConnState,
    /// Response segments pending transmission (header, body, ...) —
    /// drained with gathered writes, never copied into one buffer.
    pub out: VecDeque<Bytes>,
    /// Bytes of `out.front()` already transmitted.
    pub out_off: usize,
    /// Large body pending transmission via the sendfile path, sent
    /// after `out` drains (the header always precedes the file bytes).
    pub sendfile: Option<SendFileState<Io::FileRef>>,
    pub keep_alive: bool,
    /// The client asked to close after this response (HTTP/1.0 without
    /// keep-alive, or `Connection: close`). A close of the server's own
    /// choosing never has it: a refusal or an error response clears it,
    /// and a drain's close does not set it. See [`flush_out`] for what
    /// it buys.
    pub client_close: bool,
    pub head_only: bool,
    /// The in-flight request's conditional/negotiation fields
    /// (`If-Modified-Since`, `If-None-Match`, `Range`, `If-Range`,
    /// `Accept-Encoding`), snapshotted at parse — the response may be
    /// rendered by a helper completion long after the `Request` is
    /// gone.
    pub cond: RequestCond,
    /// Interest currently armed in the driver's event backend (from
    /// the moment the driver registers the connection); the driver
    /// reconciles this against the state machine after every drive.
    pub interest: Interest,
    /// Deadline class currently armed in the shard's timers;
    /// reconciled alongside interest after every drive.
    pub deadline: DeadlineKind,
    /// Value of `progress` when the write-stall deadline was last
    /// armed: any advance re-arms it (forward progress resets the
    /// clock; a full stall does not).
    pub deadline_progress: u64,
    /// Cumulative response bytes transmitted (writev + sendfile) — the
    /// write-progress deadline's odometer.
    pub progress: u64,
    /// When the driver accepted this connection — source of the
    /// connection-lifetime histogram, recorded at whichever close site
    /// retires the slot. `None` until the driver stamps it.
    pub opened_at: Option<Instant>,
    /// When the in-flight request finished parsing — source of the
    /// request-latency histogram, taken at response completion.
    /// `/.flash/` endpoint responses never stamp it.
    pub req_start: Option<Instant>,
    /// True from request parse until the response's first byte is
    /// accepted by the transport (the TTFB record point).
    pub ttfb_pending: bool,
    /// `progress` at request parse — the subtrahend for this
    /// response's transmitted-bytes figure in the access log.
    pub progress_at_req: u64,
    /// When this connection parked `Waiting` on a helper job — source
    /// of the helper-wait histogram, taken at completion delivery.
    pub wait_start: Option<Instant>,
    /// True while the queued response came from the `/.flash/`
    /// endpoints: counted under `metrics_requests`, excluded from the
    /// latency histograms and the access log.
    pub metrics_response: bool,
    /// True from dynamic-tier dispatch until the worker's terminal
    /// event (or an error path) retires the request: steers the
    /// `Waiting` state onto the [`DeadlineKind::DynamicWait`] class.
    pub dynamic: bool,
    /// True while a chunked response stream is open: the header (and
    /// zero or more chunks) are queued or sent but the terminal frame
    /// is not — draining `out` must park the connection back in
    /// `Waiting` instead of finishing the response.
    pub stream_open: bool,
    /// The in-flight request's access-log record, staged at parse
    /// (only when access logging is on) and completed — bytes and
    /// latency — when its response finishes.
    pub log: Option<crate::stats::AccessRecord>,
}

impl<Io: ConnIo> Conn<Io> {
    /// A fresh connection over `io`, in `Reading` with read interest.
    pub fn new(io: Io) -> Conn<Io> {
        Conn {
            io,
            parser: flash_http::RequestParser::new(),
            state: ConnState::Reading,
            out: VecDeque::new(),
            out_off: 0,
            sendfile: None,
            keep_alive: false,
            client_close: false,
            head_only: false,
            cond: RequestCond::default(),
            interest: Interest::READ,
            deadline: DeadlineKind::None,
            deadline_progress: 0,
            progress: 0,
            opened_at: None,
            req_start: None,
            ttfb_pending: false,
            progress_at_req: 0,
            wait_start: None,
            metrics_response: false,
            dynamic: false,
            stream_open: false,
            log: None,
        }
    }
}

/// What a core call that can change a slot left behind — returned by
/// [`ShardCore::drive_conn`](super::ShardCore::drive_conn) and
/// [`ShardCore::expire_conn`](super::ShardCore::expire_conn), and all a
/// driver needs to reconcile its side (see [`crate::conn`]).
pub enum Drive {
    /// The slot is now empty (connection finished, died, or was
    /// closed by the core's policy).
    Closed,
    /// Progress stopped on genuine backpressure or pending work; the
    /// next readiness event or completion resumes it.
    Blocked,
    /// The connection *chose* to stop mid-send (fairness budget) while
    /// its transport may still be writable — under an edge-triggered
    /// backend the consumed edge must be re-armed or it never speaks
    /// again.
    Yielded,
}

/// The interest a backend — edge-triggered or not — should have armed
/// for `conn`: read while parsing, write only while a send is in
/// flight, and while a helper or a worker owns the request (its
/// completions arrive through the driver, not the transport) the
/// peer's hang-up, at whatever costs least ([`crate::event`], *Parked
/// registrations*). An edge-triggered backend keeps `READ`: parking
/// and resuming change nothing, and a data edge meanwhile leaves its
/// bytes in the socket. A level-triggered one gets the hang-up alone,
/// and nothing once a hang-up has been noted — a condition that stays
/// true would be reported by every wait.
pub fn desired_interest<Io: ConnIo>(conn: &Conn<Io>, edge_triggered: bool) -> Interest {
    match conn.state {
        ConnState::Reading => Interest::READ,
        ConnState::Writing => Interest::WRITE,
        ConnState::Waiting if edge_triggered => Interest::READ,
        ConnState::Waiting if conn.io.hung_up() => Interest::NONE,
        ConnState::Waiting => Interest::HANGUP,
    }
}

/// Where [`sync_deadline`] keeps the deadlines it arms: a shard's
/// [`TimerWheel`], keyed by connection token, or — for a driver with
/// one connection and no set — the instant itself.
pub trait Deadlines {
    fn arm(&mut self, token: u64, at: Instant);
    fn cancel(&mut self, token: u64);
}

impl Deadlines for TimerWheel {
    fn arm(&mut self, token: u64, at: Instant) {
        TimerWheel::arm(self, token, at)
    }
    fn cancel(&mut self, token: u64) {
        TimerWheel::cancel(self, token)
    }
}

impl Deadlines for Option<Instant> {
    fn arm(&mut self, _token: u64, at: Instant) {
        *self = Some(at);
    }
    fn cancel(&mut self, _token: u64) {
        *self = None;
    }
}

/// Reconciles the timers with a connection's state machine after
/// a drive — the deadline analogue of the interest reconcile:
///
/// * `Reading` with an empty parse buffer → the **idle** keep-alive
///   deadline, armed on entry to the state;
/// * `Reading` with request bytes buffered → the **header-read**
///   deadline, armed once when the request starts and deliberately
///   *not* re-armed by further trickled bytes (re-arming is exactly
///   the slowloris hole);
/// * `Writing` → the **write-progress** deadline, re-armed whenever
///   `progress` advanced since the last arm — forward progress resets
///   the clock, a stalled peer's does not;
/// * `Waiting` → the **helper-wait** deadline: the helper owns the
///   request, and a wedged helper or stalled disk must not pin the
///   waiter's fd and slot forever. Expiry reaps the connection *and*
///   purges its waiter registration (cancelling the job if it was the
///   last waiter), so a late completion cannot reach a reused slot;
/// * `Waiting` on the dynamic tier (`conn.dynamic`) → the
///   **dynamic-wait** deadline instead: an application worker owns the
///   request. Every delivered chunk transits the state machine, so the
///   class re-arms per chunk — the deadline bounds worker *silence*,
///   not total response time. Expiry answers `504` (pre-header) or
///   severs the chunked stream (mid-body) and cancels the job, which
///   gets the wedged worker killed and respawned.
///
/// `now` is the driver's clock — wall time on the real server, the
/// simulated instant under the deterministic sim.
pub fn sync_deadline<Io: ConnIo>(
    conn: &mut Conn<Io>,
    token: u64,
    cfg: &ProtoConfig,
    wheel: &mut impl Deadlines,
    now: Instant,
) {
    let (kind, timeout) = match conn.state {
        ConnState::Waiting if conn.dynamic => (DeadlineKind::DynamicWait, cfg.dynamic_deadline),
        ConnState::Waiting => (DeadlineKind::HelperWait, cfg.helper_wait_timeout),
        ConnState::Writing => (DeadlineKind::WriteStall, cfg.write_stall_timeout),
        ConnState::Reading => {
            if conn.parser.buffered() > 0 {
                (DeadlineKind::Header, cfg.header_read_timeout)
            } else {
                (DeadlineKind::Idle, cfg.idle_timeout)
            }
        }
    };
    match timeout {
        None => {
            // State has no deadline (or its class is disabled).
            if conn.deadline != DeadlineKind::None {
                wheel.cancel(token);
                conn.deadline = DeadlineKind::None;
            }
        }
        Some(t) => {
            // Re-arm when the class changed — OR when response bytes
            // moved since the last arm. The progress check is what
            // re-arms a stalled writer on forward progress, and it
            // also covers transitions invisible to the kind compare:
            // one drive can run Reading → Writing → Reading
            // (request served, response flushed, back to idle), which
            // must start a *fresh* idle period even though the class
            // reads unchanged. Trickled request bytes advance nothing,
            // so a slowloris sender never refreshes its own deadline.
            if conn.deadline != kind || conn.progress != conn.deadline_progress {
                wheel.arm(token, now + t);
                conn.deadline = kind;
                conn.deadline_progress = conn.progress;
            }
        }
    }
}

/// Collects up to [`MAX_IOV`] non-empty segment views starting at
/// `out_off` into `bufs`; returns the number collected.
pub fn gather_out<'a>(
    out: &'a VecDeque<Bytes>,
    out_off: usize,
    bufs: &mut [&'a [u8]; MAX_IOV],
) -> usize {
    let mut cnt = 0;
    for (i, seg) in out.iter().enumerate() {
        if cnt == MAX_IOV {
            break;
        }
        let view = if i == 0 { &seg[out_off..] } else { &seg[..] };
        if !view.is_empty() {
            bufs[cnt] = view;
            cnt += 1;
        }
    }
    cnt
}

/// Consumes `n` transmitted bytes from the front of the queue,
/// tracking resumption across segment boundaries and discarding
/// zero-length segments.
pub fn advance_out(out: &mut VecDeque<Bytes>, out_off: &mut usize, mut n: usize) {
    while let Some(front) = out.front() {
        let remaining = front.len() - *out_off;
        if n >= remaining {
            n -= remaining;
            out.pop_front();
            *out_off = 0;
            // Keep popping: this also clears zero-length segments so
            // the queue can never stall on an empty front.
            if n == 0 && out.front().is_some_and(|f| !f.is_empty()) {
                break;
            }
        } else {
            *out_off += n;
            break;
        }
    }
    debug_assert!(out.front().is_none() || out.front().is_some_and(|f| *out_off < f.len()));
}

/// Outcome of one attempt to flush a connection's output queue.
pub enum FlushResult {
    /// Everything queued was transmitted.
    Flushed,
    /// The transport backpressured; retry when writable.
    WouldBlock,
    /// The fairness budget ran out with the transport still accepting
    /// — the caller must re-arm the (consumed) writability edge.
    Yielded,
    /// The connection is dead.
    Error,
}

/// Per-visit `sendfile` byte budget: a fast consumer of a huge file
/// could otherwise keep the send succeeding for seconds, monopolizing
/// the shard's event loop. An exhausted budget reports
/// [`FlushResult::Yielded`] — distinct from `WouldBlock`, because the
/// transport is typically STILL writable, so under an edge-triggered
/// backend no fresh edge would ever arrive: the driver re-arms the
/// registration to get the event redelivered, and every other
/// connection gets serviced in between.
const SENDFILE_VISIT_BUDGET: u64 = 1024 * 1024;

/// Drains `conn.out` with gathered writes — the happy path (cached
/// header + body fitting the transport's window) is exactly one
/// `writev` — then streams any pending file body through
/// [`ConnIo::sendfile`]. Segments a file body follows go out with
/// [`ConnIo::writev_more`], so the header can leave in the body's
/// first segment. So do the last segments of a response that closes
/// its connection at the client's request ([`Conn::client_close`]) on
/// a transport that knows no unread byte is waiting
/// ([`ConnIo::known_empty`]): the close that follows puts the FIN in
/// the held segment. Any other close keeps a pushed write: a close
/// with bytes unread sends a reset, which would discard what was held.
pub fn flush_out<Io: ConnIo>(conn: &mut Conn<Io>, stats: &ShardStats) -> FlushResult {
    let cork = conn.sendfile.is_some()
        || (conn.client_close && !conn.stream_open && conn.io.known_empty());
    while !conn.out.is_empty() {
        let mut bufs: [&[u8]; MAX_IOV] = [&[]; MAX_IOV];
        let cnt = gather_out(&conn.out, conn.out_off, &mut bufs);
        if cnt == 0 {
            // Only zero-length segments remain (e.g. an empty file's
            // body): discard them without a syscall.
            conn.out.clear();
            conn.out_off = 0;
            break;
        }
        let sent = if cork {
            conn.io.writev_more(&bufs[..cnt])
        } else {
            conn.io.writev(&bufs[..cnt])
        };
        match sent {
            Ok(n) => {
                stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                conn.progress += n as u64;
                advance_out(&mut conn.out, &mut conn.out_off, n);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return FlushResult::WouldBlock,
            Err(_) => return FlushResult::Error,
        }
    }
    // Header out; now the body, page cache → socket (or simulated
    // store → endpoint). On backpressure the state (offset/remaining)
    // goes back on the connection and the driver retries when the
    // transport is writable again.
    if let Some(mut sf) = conn.sendfile.take() {
        let mut budget = SENDFILE_VISIT_BUDGET;
        while sf.remaining > 0 {
            if budget == 0 {
                conn.sendfile = Some(sf);
                return FlushResult::Yielded;
            }
            match conn
                .io
                .sendfile(&sf.file, &mut sf.offset, sf.remaining.min(budget))
            {
                // The file shrank after fstat: the promised
                // Content-Length can no longer be honoured, so the
                // only correct HTTP/1.x signal is a dropped connection.
                Ok(0) => return FlushResult::Error,
                Ok(n) => {
                    stats.sendfile_calls.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_sendfile.fetch_add(n as u64, Ordering::Relaxed);
                    conn.progress += n as u64;
                    sf.remaining -= n as u64;
                    budget -= n as u64;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.sendfile = Some(sf);
                    return FlushResult::WouldBlock;
                }
                Err(_) => return FlushResult::Error,
            }
        }
    }
    FlushResult::Flushed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn bytes_of(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    /// Simulates a sink that accepts `k` bytes per call against the
    /// gather/advance pair, verifying the reassembled stream is exact
    /// no matter where partial writes land — including mid-iovec.
    fn drain_with_chunk_size(segments: &[&str], k: usize) -> Vec<u8> {
        let mut out: VecDeque<Bytes> = segments.iter().map(|s| bytes_of(s)).collect();
        let mut out_off = 0usize;
        let mut sink = Vec::new();
        let mut guard = 0;
        while !out.is_empty() {
            let mut bufs: [&[u8]; MAX_IOV] = [&[]; MAX_IOV];
            let cnt = gather_out(&out, out_off, &mut bufs);
            if cnt == 0 {
                out.clear();
                break;
            }
            let total: usize = bufs[..cnt].iter().map(|b| b.len()).sum();
            let n = k.min(total);
            let mut left = n;
            for b in &bufs[..cnt] {
                let take = left.min(b.len());
                sink.extend_from_slice(&b[..take]);
                left -= take;
                if left == 0 {
                    break;
                }
            }
            advance_out(&mut out, &mut out_off, n);
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        sink
    }

    #[test]
    fn partial_write_resumption_is_byte_exact_for_every_split() {
        let segments = [
            "HEADER-32-bytes-of-padding-data!",
            "body: hello world",
            "",
            "tail",
        ];
        let expect: Vec<u8> = segments.concat().into_bytes();
        // Every chunk size from 1 byte (worst case: every write lands
        // mid-iovec) to larger than the whole queue.
        for k in 1..expect.len() + 4 {
            let got = drain_with_chunk_size(&segments, k);
            assert_eq!(got, expect, "chunk size {k}");
        }
    }

    #[test]
    fn advance_out_discards_empty_segments() {
        let mut out: VecDeque<Bytes> = [bytes_of(""), bytes_of(""), bytes_of("x")]
            .into_iter()
            .collect();
        let mut off = 0;
        advance_out(&mut out, &mut off, 0);
        assert_eq!(out.len(), 1, "empty fronts must be popped");
        assert_eq!(&out[0][..], b"x");
        advance_out(&mut out, &mut off, 1);
        assert!(out.is_empty());
        assert_eq!(off, 0);
    }

    #[test]
    fn gather_out_skips_empties_and_respects_offset() {
        let out: VecDeque<Bytes> = [bytes_of("abcdef"), bytes_of(""), bytes_of("gh")]
            .into_iter()
            .collect();
        let mut bufs: [&[u8]; MAX_IOV] = [&[]; MAX_IOV];
        let cnt = gather_out(&out, 4, &mut bufs);
        assert_eq!(cnt, 2);
        assert_eq!(bufs[0], b"ef");
        assert_eq!(bufs[1], b"gh");
    }

    #[test]
    fn desired_interest_tracks_state_machine() {
        for (edge_triggered, parked) in [(true, Interest::READ), (false, Interest::HANGUP)] {
            let mut conn = Conn::new(InertIo::default());
            let want = |c: &Conn<InertIo>| desired_interest(c, edge_triggered);
            assert_eq!(want(&conn), Interest::READ);
            conn.state = ConnState::Writing;
            assert_eq!(want(&conn), Interest::WRITE);
            conn.state = ConnState::Waiting;
            assert_eq!(want(&conn), parked, "edge-triggered: {edge_triggered}");
            conn.io.hung_up = true;
            let noted = if edge_triggered {
                parked
            } else {
                Interest::NONE
            };
            assert_eq!(want(&conn), noted, "a hang-up is reported once");
        }
    }

    /// A transport that never moves a byte — the deadline logic under
    /// test never touches it — and reports a hang-up when told to.
    #[derive(Default)]
    struct InertIo {
        hung_up: bool,
    }

    impl ConnIo for InertIo {
        type FileRef = ();
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
        fn hung_up(&self) -> bool {
            self.hung_up
        }
        fn writev(&mut self, _bufs: &[&[u8]]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
        fn sendfile(&mut self, _f: &(), _off: &mut u64, _max: u64) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    fn proto_cfg() -> ProtoConfig {
        ProtoConfig {
            docroot: "/tmp".into(),
            idle_timeout: Some(Duration::from_secs(30)),
            header_read_timeout: Some(Duration::from_secs(15)),
            write_stall_timeout: Some(Duration::from_secs(30)),
            helper_wait_timeout: Some(Duration::from_secs(60)),
            cache_revalidate_ttl: Some(Duration::from_secs(2)),
            sendfile_threshold: 256 * 1024,
            metrics_endpoint: false,
            dynamic_prefix: None,
            dynamic_deadline: Some(Duration::from_secs(10)),
            access_log: false,
        }
    }

    #[test]
    fn sync_deadline_maps_states_to_classes() {
        let mut conn = Conn::new(InertIo::default());
        let cfg = proto_cfg();
        let mut wheel = TimerWheel::new(Duration::from_millis(10));
        let token = 42;
        let now = Instant::now();

        // Reading + empty buffer → idle class.
        sync_deadline(&mut conn, token, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::Idle);
        assert_eq!(wheel.pending(), 1);
        assert!(wheel.is_armed(token));

        // Request bytes buffered → header class (fresh arm).
        let _ = conn.parser.feed(b"GET /slow");
        sync_deadline(&mut conn, token, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::Header);

        // Helper owns the request → the helper-wait class, so a wedged
        // helper cannot pin the slot forever.
        conn.state = ConnState::Waiting;
        sync_deadline(&mut conn, token, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::HelperWait);
        assert_eq!(wheel.pending(), 1, "Waiting arms the helper-wait class");

        // A dynamic request in the same state rides the fifth class
        // instead — worker silence is bounded separately from disk.
        conn.dynamic = true;
        sync_deadline(&mut conn, token, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::DynamicWait);
        assert_eq!(wheel.pending(), 1, "Waiting+dynamic arms dynamic-wait");
        conn.dynamic = false;

        // Response in flight → write-stall class.
        conn.state = ConnState::Writing;
        sync_deadline(&mut conn, token, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::WriteStall);
        assert_eq!(wheel.pending(), 1);

        // The class honours its disable switch like the others.
        let no_hw = ProtoConfig {
            helper_wait_timeout: None,
            ..proto_cfg()
        };
        conn.state = ConnState::Waiting;
        sync_deadline(&mut conn, token, &no_hw, &mut wheel, now);
        assert_eq!(conn.deadline, DeadlineKind::None);
        assert_eq!(wheel.pending(), 0, "disabled helper-wait disarms");
        assert!(!wheel.is_armed(token));
    }

    #[test]
    fn sync_deadline_rearms_on_forward_progress_only() {
        let mut conn = Conn::new(InertIo::default());
        let cfg = proto_cfg();
        let mut wheel = TimerWheel::new(Duration::from_millis(10));
        let now = Instant::now();
        conn.state = ConnState::Writing;
        sync_deadline(&mut conn, 7, &cfg, &mut wheel, now);
        let armed_at = conn.deadline_progress;

        // No progress: the arm point must not move (a stalled peer
        // must not refresh its own deadline).
        sync_deadline(&mut conn, 7, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline_progress, armed_at);

        // Forward progress: the arm point follows the odometer.
        conn.progress += 4096;
        sync_deadline(&mut conn, 7, &cfg, &mut wheel, now);
        assert_eq!(conn.deadline_progress, conn.progress);
        assert_eq!(wheel.pending(), 1, "re-arm replaces, never duplicates");
    }

    #[test]
    fn sync_deadline_honours_disabled_classes() {
        let mut conn = Conn::new(InertIo::default());
        let cfg = ProtoConfig {
            idle_timeout: None,
            header_read_timeout: None,
            write_stall_timeout: None,
            helper_wait_timeout: None,
            ..proto_cfg()
        };
        let mut wheel = TimerWheel::new(Duration::from_millis(10));
        let now = Instant::now();
        for state in [ConnState::Reading, ConnState::Writing, ConnState::Waiting] {
            conn.state = state;
            sync_deadline(&mut conn, 9, &cfg, &mut wheel, now);
            assert_eq!(conn.deadline, DeadlineKind::None);
        }
        assert_eq!(
            wheel.pending(),
            0,
            "every class disabled: wheel stays empty"
        );
    }
}
