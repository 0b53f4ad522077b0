//! The load generator: one thread multiplexing [`CONNS`] nonblocking
//! connections, busy-polling its sockets and the clock.
//!
//! It never blocks: on the 2-core reference box a generator that slept
//! in `poll(2)` gave closed-loop throughput spreading ±15% run to run,
//! the spinning one ±5%. The server gets one event loop; the generator
//! owns the other core. Never more connections than cores.
//!
//! Two pacings. **Closed**: a connection sends its next request when
//! the previous response completes — throughput of a saturated server.
//! **Open**: requests fall due on a fixed schedule and each is timed
//! from its *due* time, so a stall is charged to every request it
//! delays (coordinated-omission-safe); a due request waiting for a
//! free connection keeps its due time.
//!
//! Every response is validated: status line, `Content-Length` or
//! chunked framing, exact body length, and — during warm-up and on a
//! seeded 1-in-64 sample — every body byte against the generated
//! input.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::procstat;
use crate::summary::percentile;
use crate::workloads::{Site, Traffic};

/// Concurrent connections (and in-flight requests).
pub const CONNS: usize = 2;
/// A request outstanding this long has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// After an open phase ends, how long overdue requests may still be
/// sent and answered before they count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    Connect,
    Io,
    Timeout,
    Status,
    Framing,
    Length,
    Bytes,
}

/// Incremental response validator. Sans-IO: fed whatever the socket
/// returned, it reports completion or the first violation.
#[derive(Default)]
pub struct ResponseParser {
    state: PState,
    head: Vec<u8>,
    /// Body bytes accepted so far.
    offset: usize,
}

#[derive(Default)]
enum PState {
    #[default]
    Head,
    Sized {
        remaining: usize,
    },
    ChunkSize {
        value: usize,
        digits: u8,
        seen_cr: bool,
    },
    ChunkData {
        remaining: usize,
    },
    /// The CRLF closing a chunk (or, after the zero chunk, the empty
    /// trailer section).
    ChunkEnd {
        remaining: u8,
        last: bool,
    },
    Done,
}

fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i + 4)
}

enum Framing {
    Sized(usize),
    Chunked,
}

fn parse_head(head: &[u8]) -> Result<Framing, Failure> {
    let mut lines = head.split(|&b| b == b'\n');
    let status = lines.next().unwrap_or_default();
    if !status.starts_with(b"HTTP/1.1 200 ") {
        return Err(Failure::Status);
    }
    let mut framing = None;
    for line in lines {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            let n = std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse().ok())
                .ok_or(Failure::Framing)?;
            framing = Some(Framing::Sized(n));
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            if !value.eq_ignore_ascii_case(b"chunked") {
                return Err(Failure::Framing);
            }
            framing = Some(Framing::Chunked);
        }
    }
    framing.ok_or(Failure::Framing)
}

impl ResponseParser {
    pub fn reset(&mut self) {
        self.state = PState::Head;
        self.head.clear();
        self.offset = 0;
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, PState::Done)
    }

    fn accept_body(&mut self, chunk: &[u8], expect: &[u8], compare: bool) -> Result<(), Failure> {
        let end = self.offset + chunk.len();
        if end > expect.len() {
            return Err(Failure::Length);
        }
        if compare && chunk != &expect[self.offset..end] {
            return Err(Failure::Bytes);
        }
        self.offset = end;
        Ok(())
    }

    fn finish(&mut self, expect: &[u8]) -> Result<(), Failure> {
        if self.offset != expect.len() {
            return Err(Failure::Length);
        }
        self.state = PState::Done;
        Ok(())
    }

    /// Consumes `bytes`; `Ok(true)` once the response is complete and
    /// carried exactly `expect` (length always, bytes when `compare`).
    /// Bytes past the end of the response are a framing failure: one
    /// request is outstanding per connection, so nothing may follow.
    pub fn feed(
        &mut self,
        mut bytes: &[u8],
        expect: &[u8],
        compare: bool,
    ) -> Result<bool, Failure> {
        while !bytes.is_empty() {
            match &mut self.state {
                PState::Head => {
                    // The common case — the whole head in the first
                    // read — is parsed in place without a copy.
                    let (head_end, in_place) = if self.head.is_empty() {
                        (find_head_end(bytes, 0), true)
                    } else {
                        let from = self.head.len().saturating_sub(3);
                        self.head.extend_from_slice(bytes);
                        (find_head_end(&self.head, from), false)
                    };
                    let Some(end) = head_end else {
                        if in_place {
                            self.head.extend_from_slice(bytes);
                        }
                        if self.head.len() > 16 * 1024 {
                            return Err(Failure::Framing);
                        }
                        return Ok(false);
                    };
                    let framing = if in_place {
                        let f = parse_head(&bytes[..end])?;
                        bytes = &bytes[end..];
                        f
                    } else {
                        let f = parse_head(&self.head[..end])?;
                        let unread = self.head.len() - end;
                        bytes = &bytes[bytes.len() - unread..];
                        f
                    };
                    match framing {
                        Framing::Sized(n) if n != expect.len() => return Err(Failure::Length),
                        Framing::Sized(0) => self.finish(expect)?,
                        Framing::Sized(n) => self.state = PState::Sized { remaining: n },
                        Framing::Chunked => {
                            self.state = PState::ChunkSize {
                                value: 0,
                                digits: 0,
                                seen_cr: false,
                            }
                        }
                    }
                }
                PState::Sized { remaining } => {
                    let n = bytes.len().min(*remaining);
                    *remaining -= n;
                    let left = *remaining;
                    let (chunk, rest) = bytes.split_at(n);
                    bytes = rest;
                    self.accept_body(chunk, expect, compare)?;
                    if left == 0 {
                        self.finish(expect)?;
                    }
                }
                PState::ChunkSize {
                    value,
                    digits,
                    seen_cr,
                } => {
                    let b = bytes[0];
                    bytes = &bytes[1..];
                    match b {
                        b'\r' if !*seen_cr && *digits > 0 => *seen_cr = true,
                        b'\n' if *seen_cr => {
                            let n = *value;
                            self.state = if n == 0 {
                                PState::ChunkEnd {
                                    remaining: 2,
                                    last: true,
                                }
                            } else {
                                PState::ChunkData { remaining: n }
                            };
                        }
                        _ if !*seen_cr && *digits < 8 => {
                            let d = (b as char).to_digit(16).ok_or(Failure::Framing)?;
                            *value = *value * 16 + d as usize;
                            *digits += 1;
                        }
                        _ => return Err(Failure::Framing),
                    }
                }
                PState::ChunkData { remaining } => {
                    let n = bytes.len().min(*remaining);
                    *remaining -= n;
                    let left = *remaining;
                    let (chunk, rest) = bytes.split_at(n);
                    bytes = rest;
                    self.accept_body(chunk, expect, compare)?;
                    if left == 0 {
                        self.state = PState::ChunkEnd {
                            remaining: 2,
                            last: false,
                        };
                    }
                }
                PState::ChunkEnd { remaining, last } => {
                    let want = if *remaining == 2 { b'\r' } else { b'\n' };
                    if bytes[0] != want {
                        return Err(Failure::Framing);
                    }
                    bytes = &bytes[1..];
                    *remaining -= 1;
                    if *remaining == 0 {
                        if *last {
                            self.finish(expect)?;
                        } else {
                            self.state = PState::ChunkSize {
                                value: 0,
                                digits: 0,
                                seen_cr: false,
                            };
                        }
                    }
                }
                PState::Done => return Err(Failure::Framing),
            }
        }
        Ok(self.is_done())
    }
}

/// The open-loop schedule: request `i` falls due at `t0 + i / rate`,
/// whatever happened to requests before it.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub t0: Instant,
    pub interval: Duration,
    /// Requests due inside the measured window.
    pub total: u64,
}

impl Schedule {
    pub fn new(t0: Instant, rate: f64, window: Duration) -> Schedule {
        let interval = Duration::from_secs_f64(1.0 / rate);
        Schedule {
            t0,
            interval,
            total: (window.as_secs_f64() * rate).floor() as u64,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.t0 + Duration::from_nanos((self.interval.as_nanos() as u64).saturating_mul(i))
    }

    /// The timing origin of request `i` if it may be sent at `now`:
    /// always its due time, however late `now` is.
    pub fn ready(&self, i: u64, now: Instant) -> Option<Instant> {
        let due = self.due(i);
        (i < self.total && due <= now).then_some(due)
    }
}

/// What one slice of a phase measured.
#[derive(Default, Clone)]
pub struct Slice {
    pub secs: f64,
    pub completed: u64,
    pub body_bytes: u64,
    /// Origin → last body byte (EOF on `conn_churn`), nanoseconds,
    /// binned by the slice the request's origin fell in.
    pub latencies_ns: Vec<u64>,
    /// CPU nanoseconds of every thread but the generator.
    pub server_cpu_ns: u64,
}

impl Slice {
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.secs
    }

    pub fn mib_per_s(&self) -> f64 {
        self.body_bytes as f64 / self.secs / (1u64 << 20) as f64
    }

    /// Median latency in µs; `None` for a slice nothing was due in.
    pub fn p50_us(&self) -> Option<f64> {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        (!v.is_empty()).then(|| percentile(&v, 0.5) as f64 / 1e3)
    }

    /// Server CPU µs per completed request; `None` if none completed.
    pub fn cpu_us_per_req(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.server_cpu_ns as f64 / self.completed as f64 / 1e3)
    }
}

#[derive(Default)]
pub struct PhaseStats {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// Open phase: send time minus due time per request, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Open phase: requests the schedule held.
    pub offered: u64,
    pub completed: u64,
    pub first_failure: Option<Failure>,
}

impl PhaseStats {
    /// Open phase: completed inside the window ÷ offered. Below 0.99
    /// the server did not keep up and the workload is `saturated`.
    pub fn achieved_rate_ratio(&self) -> f64 {
        let in_window: u64 = self.slices.iter().map(|s| s.completed).sum();
        in_window as f64 / self.offered.max(1) as f64
    }

    /// Appends a later stretch of the same phase.
    pub fn absorb(&mut self, later: PhaseStats) {
        self.slices.extend(later.slices);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.late_ns.extend(later.late_ns);
        self.offered += later.offered;
        self.completed += later.completed;
        self.first_failure = self.first_failure.or(later.first_failure);
    }
}

#[derive(Clone, Copy)]
pub enum Pacing {
    Closed,
    Open { rate: f64 },
}

struct Inflight {
    target: u32,
    compare: bool,
    origin: Instant,
    sent: Instant,
}

#[derive(Default)]
struct Slot {
    stream: Option<TcpStream>,
    parser: ResponseParser,
    inflight: Option<Inflight>,
}

enum Polled {
    Pending,
    Done,
    Failed(Failure),
}

enum Policy<'a> {
    /// Fetch exactly these targets, comparing every byte.
    List(&'a [u32]),
    Closed {
        until: Instant,
    },
    Open {
        schedule: Schedule,
        until: Instant,
    },
}

pub struct Generator<'a> {
    addr: SocketAddr,
    site: &'a Site,
    traffic: Traffic,
    slots: [Slot; CONNS],
    /// Position in the cyclic request sequence; runs on across phases.
    seq_pos: usize,
    buf: Vec<u8>,
}

fn server_cpu_ns() -> u64 {
    procstat::process_cpu_ns().saturating_sub(procstat::thread_cpu_ns())
}

impl<'a> Generator<'a> {
    pub fn new(addr: SocketAddr, site: &'a Site, traffic: Traffic) -> Generator<'a> {
        Generator {
            addr,
            site,
            traffic,
            slots: Default::default(),
            seq_pos: 0,
            buf: vec![0u8; 256 * 1024],
        }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        // Loopback handshakes complete inside connect(2); the call
        // does not wait on the server's accept.
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    }

    fn issue(
        &mut self,
        slot: usize,
        target: u32,
        compare: bool,
        origin: Instant,
    ) -> Result<(), Failure> {
        if self.slots[slot].stream.is_none() {
            let s = self.connect().map_err(|_| Failure::Connect)?;
            self.slots[slot].stream = Some(s);
        }
        let s = &mut self.slots[slot];
        s.parser.reset();
        let request = &self.site.targets[target as usize].request;
        // A request is far smaller than an empty socket buffer.
        let stream = s.stream.as_mut().expect("connected above");
        if stream.write_all(request).is_err() {
            s.stream = None;
            return Err(Failure::Io);
        }
        s.inflight = Some(Inflight {
            target,
            compare,
            origin,
            sent: Instant::now(),
        });
        Ok(())
    }

    /// Reads whatever slot `i` has, until it would block or the
    /// response (and, on `conn_churn`, the connection) is complete.
    fn poll(&mut self, i: usize) -> Polled {
        let slot = &mut self.slots[i];
        let (Some(stream), Some(fl)) = (slot.stream.as_mut(), slot.inflight.as_ref()) else {
            return Polled::Pending;
        };
        let expect = &self.site.targets[fl.target as usize].body;
        let churn = self.traffic == Traffic::Churn;
        loop {
            match stream.read(&mut self.buf) {
                Ok(0) if churn && slot.parser.is_done() => return Polled::Done,
                Ok(0) => return Polled::Failed(Failure::Io),
                Ok(n) => match slot.parser.feed(&self.buf[..n], expect, fl.compare) {
                    Ok(true) if !churn => return Polled::Done,
                    Ok(_) => {}
                    Err(f) => return Polled::Failed(f),
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Polled::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Polled::Failed(Failure::Io),
            }
        }
    }

    fn next_in_sequence(&mut self) -> (u32, bool) {
        let pos = self.seq_pos % self.site.sequence.len();
        self.seq_pos += 1;
        (self.site.sequence[pos], self.site.sampled[pos])
    }

    /// Fetches every requestable target once, comparing every byte —
    /// which also fills the server's caches and opens the keep-alive
    /// connections. Any failure is an error: the run must not start.
    pub fn warm_up(&mut self) -> Result<u64, String> {
        let list: Vec<u32> = self.site.requested_targets().collect();
        let stats = self.drive(Policy::List(&list), Instant::now(), Duration::ZERO, 0);
        match stats.first_failure {
            Some(f) => Err(format!(
                "warm-up: {} of {} requests failed, first {f:?}",
                stats.failed, stats.attempted
            )),
            None => Ok(stats.attempted),
        }
    }

    /// Runs one measured phase of `slices` × `slice`.
    pub fn run_phase(&mut self, pacing: Pacing, slices: usize, slice: Duration) -> PhaseStats {
        let t0 = Instant::now();
        let window = slice * slices as u32;
        let until = t0 + window;
        let policy = match pacing {
            Pacing::Closed => Policy::Closed { until },
            Pacing::Open { rate } => Policy::Open {
                schedule: Schedule::new(t0, rate, window),
                until,
            },
        };
        self.drive(policy, t0, slice, slices)
    }

    fn drive(
        &mut self,
        policy: Policy<'_>,
        t0: Instant,
        slice: Duration,
        n_slices: usize,
    ) -> PhaseStats {
        let mut stats = PhaseStats {
            slices: vec![Slice::default(); n_slices],
            ..PhaseStats::default()
        };
        if let Policy::Open { schedule, .. } = &policy {
            stats.offered = schedule.total;
        }
        let slice_of = |t: Instant| -> Option<usize> {
            if slice.is_zero() {
                return None;
            }
            let i = (t.saturating_duration_since(t0).as_nanos() / slice.as_nanos()) as usize;
            (i < n_slices).then_some(i)
        };
        let mut list_pos = 0usize;
        let mut next_due = 0u64;
        let mut boundary = 0usize; // slices whose end has been stamped
        let mut cpu_mark = server_cpu_ns();
        let mut time_mark = t0;
        loop {
            let now = Instant::now();
            // Stamp every slice boundary that has passed.
            while boundary < n_slices && now >= t0 + slice * (boundary as u32 + 1) {
                let cpu = server_cpu_ns();
                stats.slices[boundary].server_cpu_ns = cpu.saturating_sub(cpu_mark);
                stats.slices[boundary].secs = now.duration_since(time_mark).as_secs_f64();
                cpu_mark = cpu;
                time_mark = now;
                boundary += 1;
            }
            // Collect.
            let mut inflight = 0;
            for i in 0..CONNS {
                let Some(fl) = self.slots[i].inflight.as_ref() else {
                    continue;
                };
                let (origin, sent, target) = (fl.origin, fl.sent, fl.target);
                let outcome = match self.poll(i) {
                    Polled::Pending if now.duration_since(sent) > REQUEST_TIMEOUT => {
                        Polled::Failed(Failure::Timeout)
                    }
                    p => p,
                };
                match outcome {
                    Polled::Pending => inflight += 1,
                    Polled::Done => {
                        let done = Instant::now();
                        self.slots[i].inflight = None;
                        if self.traffic == Traffic::Churn {
                            self.slots[i].stream = None;
                        }
                        stats.completed += 1;
                        let len = self.site.targets[target as usize].body.len() as u64;
                        // Work is counted in the slice being stamped
                        // (its seconds and its CPU time are measured
                        // stamp to stamp); latency where it was due.
                        if let Some(s) = stats.slices.get_mut(boundary) {
                            s.completed += 1;
                            s.body_bytes += len;
                        }
                        if let Some(s) = slice_of(origin) {
                            stats.slices[s]
                                .latencies_ns
                                .push(done.duration_since(origin).as_nanos() as u64);
                        }
                    }
                    Polled::Failed(f) => {
                        self.slots[i].inflight = None;
                        self.slots[i].stream = None;
                        stats.failed += 1;
                        stats.first_failure.get_or_insert(f);
                    }
                }
            }
            // Issue.
            let mut more = false;
            for i in 0..CONNS {
                let free = self.slots[i].inflight.is_none();
                let next = match &policy {
                    Policy::List(list) => {
                        more = list_pos < list.len() && stats.first_failure.is_none();
                        (more && free).then(|| {
                            list_pos += 1;
                            (list[list_pos - 1], true, now)
                        })
                    }
                    Policy::Closed { until } => {
                        more = now < *until;
                        (more && free).then(|| {
                            let (t, c) = self.next_in_sequence();
                            (t, c, now)
                        })
                    }
                    Policy::Open { schedule, until } => {
                        // Overdue requests may still go out for a
                        // bounded time after the window closes.
                        more = next_due < schedule.total && now < *until + DRAIN_LIMIT;
                        match schedule.ready(next_due, now).filter(|_| more && free) {
                            Some(due) => {
                                next_due += 1;
                                stats
                                    .late_ns
                                    .push(now.duration_since(due).as_nanos() as u64);
                                let (t, c) = self.next_in_sequence();
                                Some((t, c, due))
                            }
                            None => None,
                        }
                    }
                };
                if let Some((target, compare, origin)) = next {
                    stats.attempted += 1;
                    match self.issue(i, target, compare, origin) {
                        Ok(()) => inflight += 1,
                        Err(f) => {
                            stats.failed += 1;
                            stats.first_failure.get_or_insert(f);
                        }
                    }
                }
            }
            if !more && inflight == 0 && boundary == n_slices {
                break;
            }
        }
        // Requests the schedule held but the drain limit cut off never
        // got an answer: failures.
        if let Policy::Open { schedule, .. } = &policy {
            let unsent = schedule.total - next_due;
            if unsent > 0 {
                stats.attempted += unsent;
                stats.failed += unsent;
                stats.first_failure.get_or_insert(Failure::Timeout);
            }
        }
        stats
    }

    /// Closes every connection (so a server stop has nothing to wait
    /// for).
    pub fn close(&mut self) {
        self.slots = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(wire: &[u8], split: usize, expect: &[u8], compare: bool) -> Result<bool, Failure> {
        let mut p = ResponseParser::default();
        let (a, b) = wire.split_at(split.min(wire.len()));
        let first = p.feed(a, expect, compare)?;
        if b.is_empty() {
            return Ok(first);
        }
        p.feed(b, expect, compare)
    }

    #[test]
    fn sized_response_validates_at_every_split() {
        let body = b"hello world";
        let wire = b"HTTP/1.1 200 OK\r\nDate: x\r\nContent-Length: 11\r\n\r\nhello world";
        for split in 0..=wire.len() {
            assert_eq!(feed_all(wire, split, body, true), Ok(true), "split {split}");
        }
        assert_eq!(feed_all(wire, 5, b"hello WORLD", true), Err(Failure::Bytes));
        // Without comparison only the length is checked.
        assert_eq!(feed_all(wire, 5, b"hello WORLD", false), Ok(true));
        assert_eq!(feed_all(wire, 5, b"hello", true), Err(Failure::Length));
        let partial = &wire[..wire.len() - 1];
        assert_eq!(feed_all(partial, 9, body, true), Ok(false));
    }

    #[test]
    fn chunked_response_validates_at_every_split() {
        let body = b"abcdefghij";
        let wire =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n6\r\nefghij\r\n0\r\n\r\n";
        for split in 0..=wire.len() {
            assert_eq!(feed_all(wire, split, body, true), Ok(true), "split {split}");
        }
        assert_eq!(feed_all(wire, 60, b"abcdefghiX", true), Err(Failure::Bytes));
        assert_eq!(
            feed_all(wire, 60, b"abcdefghijk", true),
            Err(Failure::Length)
        );
        let bad = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcdXX";
        assert_eq!(feed_all(bad, 50, b"abcd", true), Err(Failure::Framing));
    }

    #[test]
    fn wrong_status_missing_framing_and_trailing_bytes_fail() {
        let w404 = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(feed_all(w404, 10, b"", true), Err(Failure::Status));
        let bare = b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n";
        assert_eq!(feed_all(bare, 10, b"", true), Err(Failure::Framing));
        let extra = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokZ";
        assert_eq!(feed_all(extra, 10, b"ok", true), Err(Failure::Framing));
    }

    #[test]
    fn schedule_is_fixed_and_a_late_request_keeps_its_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0, Duration::from_secs(2));
        assert_eq!(s.total, 2000);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(500), t0 + Duration::from_millis(500));
        // Not yet due.
        assert_eq!(s.ready(500, t0 + Duration::from_millis(499)), None);
        // Sent 300 ms late (say, waiting for a free connection): the
        // timing origin is still the due time, so the wait is charged.
        let late = t0 + Duration::from_millis(800);
        assert_eq!(s.ready(500, late), Some(t0 + Duration::from_millis(500)));
        // Nothing is due past the window.
        assert_eq!(s.ready(2000, t0 + Duration::from_secs(3)), None);
    }
}
