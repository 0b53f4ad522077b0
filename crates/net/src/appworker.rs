//! Persistent application workers — the dynamic tier's backend (the
//! paper's §5.6 CGI successor: long-lived worker *processes* reused
//! across requests instead of a fork+exec per hit).
//!
//! Each worker is spawned **once** over a `socketpair(2)`
//! ([`std::os::unix::net::UnixStream::pair`]) with both stdin and
//! stdout bound to the child end, kept between requests, and killed +
//! replaced only when it crashes, corrupts the framing, talks out of
//! turn, or is cancelled mid-exchange (a kill is the only way to
//! resynchronize a stream protocol with no request ids).
//!
//! This module holds what every driver shares — the process
//! (`Worker`: spawned as the leader of a process group of its own, and
//! the whole group killed + the worker reaped on drop, so nothing it
//! forked outlives it) and the wire protocol
//! ([`FrameParser`], sans-IO) — and the exchange in its **blocking**
//! form (`run_exchange` over a shared [`WorkerPool`]), which MT's
//! connection threads run themselves. An event-loop shard does not
//! block on a worker and does not hand the exchange to a helper
//! either: as in the paper, the worker's descriptor sits in the same
//! readiness set as the client sockets, and the shard speaks to it
//! directly (`workerset.rs`); only the `fork`+`exec` of a cold worker
//! and the `kill`+`waitpid` of a retired one — the two calls here that
//! block — go to the helper pool.
//!
//! ## Wire protocol (server ↔ worker, newline-framed)
//!
//! ```text
//! server → worker:   GET <path>\n
//! worker → server:   DATA <len>\n<len raw bytes>     (zero or more)
//!                    END\n
//! ```
//!
//! Every `DATA` frame becomes one HTTP chunk on the wire
//! ([`crate::conn::DynEvent::Chunk`]); `END` terminates the exchange
//! cleanly and leaves the worker idle, ready for the next request.
//! EOF or a garbled frame before `END` is a crash: the worker is
//! killed and the response ends unclean
//! ([`crate::conn::DynEvent::End`] with `clean: false` — a detectable
//! truncation, because chunked framing never sees its `0\r\n\r\n`
//! terminator). A worker says nothing between an `END` and the next
//! request: bytes behind an `END` end that response cleanly and the
//! worker's life with it.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::ffi::OsStrExt;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use bytes::{Bytes, BytesMut};

use crate::conn::{DynEvent, HelperJob};

/// Cadence at which a blocked frame read wakes to ask `stop` — the
/// path by which a deadline, a cancellation or a server stop reaches a
/// thread that is inside [`run_exchange`].
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// Upper bound on a single `DATA` frame. A length past this is treated
/// as framing corruption (worker killed), not an allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Upper bound on a header line, newline excluded. A kilobyte-scale
/// "line" is framing corruption, not a header — it is not buffered on.
pub const MAX_LINE: usize = 4096;

/// The built-in worker program: a POSIX `sh` loop that answers every
/// request with one `DATA` frame echoing the path, then `END`. Real
/// deployments point [`crate::NetConfig::dynamic_command`] at their own
/// binary speaking the same protocol; this default exists so the
/// dynamic tier works — and is testable — out of the box.
pub const DEFAULT_WORKER_SCRIPT: &str = r#"while read -r m p; do
  b="hello from worker: $p"
  printf 'DATA %s\n%s' "${#b}" "$b"
  printf 'END\n'
done"#;

/// One live worker process and the parent's end of its socketpair.
pub(crate) struct Worker {
    pub(crate) child: Child,
    pub(crate) sock: UnixStream,
}

impl Worker {
    /// Forks and execs `command` — blocking calls, so never on an
    /// event-loop thread. `blocking` picks what the parent's end is
    /// for: reads that wake on the cancel-poll cadence
    /// ([`run_exchange`]), or a non-blocking end for a shard's
    /// readiness set.
    pub(crate) fn spawn(command: &[String], blocking: bool) -> io::Result<Worker> {
        if command.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty worker command",
            ));
        }
        let (ours, theirs) = UnixStream::pair()?;
        // Both child stdio ends are dups of the same socket — one
        // bidirectional pipe, the socketpair(2) shape the paper's
        // persistent CGI processes used.
        let stdin_fd = OwnedFd::from(theirs.try_clone()?);
        let stdout_fd = OwnedFd::from(theirs);
        // A process group of its own, led by the worker: what it
        // forks (a shell script's `sleep`) is killed with it.
        let child = Command::new(&command[0])
            .args(&command[1..])
            .stdin(Stdio::from(stdin_fd))
            .stdout(Stdio::from(stdout_fd))
            .process_group(0)
            .spawn()?;
        let worker = Worker { child, sock: ours };
        if blocking {
            worker.sock.set_read_timeout(Some(CANCEL_POLL))?;
        } else {
            worker.sock.set_nonblocking(true)?;
        }
        Ok(worker)
    }

    /// Whether the process has already exited (a dead idle worker is
    /// discarded at checkout instead of being handed a request).
    fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)) | Err(_))
    }
}

/// A shard speaks to a worker through its socket: reads and writes on
/// the parent's end, registered under that descriptor.
impl Read for Worker {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.sock.read(buf)
    }
}

impl Write for Worker {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sock.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl AsRawFd for Worker {
    fn as_raw_fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }
}

impl Drop for Worker {
    // Kill + wait on every drop: no zombies and no orphans, whether the
    // worker is retired for crash, cancellation, or pool teardown. The
    // group is signalled only while its leader is unreaped (`try_wait`
    // reaps nothing that still runs), so its id cannot have been
    // reused; a worker that already exited on its own leaves its group
    // to whatever it made of it.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = crate::sys::kill_group(self.child.id());
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The pool behind the blocking exchange: a command line and the idle
/// list. Workers are spawned lazily (first dynamic request), reused
/// LIFO (the hottest worker stays hottest), and never counted against
/// a cap: a checked-out worker has a thread blocked on it, so the
/// driver's thread count bounds them.
pub struct WorkerPool {
    command: Vec<String>,
    idle: Mutex<Vec<Worker>>,
}

impl WorkerPool {
    pub fn new(command: Vec<String>) -> WorkerPool {
        WorkerPool {
            command,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The built-in echo worker (see [`DEFAULT_WORKER_SCRIPT`]).
    pub fn default_command() -> Vec<String> {
        vec![
            "/bin/sh".to_string(),
            "-c".to_string(),
            DEFAULT_WORKER_SCRIPT.to_string(),
        ]
    }

    /// Pops an idle worker (discarding any that died while parked —
    /// each discard is counted in the returned tally) or spawns a
    /// fresh one.
    pub(crate) fn checkout(&self) -> (io::Result<Worker>, u64) {
        let mut dead = 0;
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(mut w) = idle.pop() {
            if w.exited() {
                dead += 1;
                continue;
            }
            return (Ok(w), dead);
        }
        drop(idle);
        (Worker::spawn(&self.command, true), dead)
    }

    pub(crate) fn checkin(&self, worker: Worker) {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(worker);
    }
}

/// One thing the worker said, as [`FrameParser`] reads it.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// The payload of one `DATA <len>` frame: a view of the buffer it
    /// was read into, not a copy.
    Data(Bytes),
    /// The `END` line.
    End,
    /// Not the protocol: a line that is neither `END` nor a `DATA`
    /// header with a decimal length of at most [`MAX_FRAME`], or more
    /// than [`MAX_LINE`] bytes with no newline. Final — the stream has
    /// no resynchronisation point, so every later `pop` says it again.
    Corrupt,
}

/// The worker → server half of the wire protocol, **sans-IO**: push
/// the bytes a read produced, pop the frames they complete. How the
/// bytes were cut into reads never shows in the frames
/// (`tests/worker_frames.rs`), which is what lets the blocking exchange (`run_exchange`)
/// and a shard's readable arm (`workerset.rs`) share it. End of stream
/// is the driver's to notice: short of an `END` it is a crash wherever
/// it falls, and the parser is simply never given the rest.
///
/// A `DATA` payload is split off the parser's buffer, not copied out
/// of it: the buffer takes its allocation back once every payload
/// popped from it has been dropped ([`BytesMut`]), so a parser whose
/// payloads are sent before the next read reuses one allocation for
/// as long as it lives.
#[derive(Default)]
pub struct FrameParser {
    /// What was pushed and not yet popped as frames.
    buf: BytesMut,
    /// The payload length of a `DATA` header already consumed.
    want: Option<usize>,
    corrupt: bool,
}

impl FrameParser {
    /// Buffers what one read returned.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, or `None` until more bytes arrive.
    pub fn pop(&mut self) -> Option<Frame> {
        if self.corrupt {
            return Some(Frame::Corrupt);
        }
        let len = match self.want {
            Some(len) => len,
            None => {
                let pos = match self.buf.iter().position(|&b| b == b'\n') {
                    Some(pos) if pos <= MAX_LINE => pos,
                    // Still short enough to become a header.
                    None if self.buf.len() <= MAX_LINE => return None,
                    _ => return Some(self.corrupted()),
                };
                let header = match &self.buf[..pos] {
                    b"END" => None,
                    line => Some(parse_data_header(line)),
                };
                self.buf.advance(pos + 1);
                match header {
                    None => return Some(Frame::End),
                    Some(Some(len)) => *self.want.insert(len),
                    Some(None) => return Some(self.corrupted()),
                }
            }
        };
        if self.buf.len() < len {
            return None;
        }
        self.want = None;
        Some(Frame::Data(self.buf.split_to(len).freeze()))
    }

    /// Whether bytes are buffered past the frames popped so far. After
    /// an `END` that is a worker talking out of turn: it cannot be
    /// handed another request.
    pub fn has_leftover(&self) -> bool {
        !self.buf.is_empty()
    }

    fn corrupted(&mut self) -> Frame {
        self.corrupt = true;
        Frame::Corrupt
    }
}

/// Runs one dynamic exchange end to end on the calling thread, until
/// it ends or the job is cancelled: `run_exchange` stopped by the
/// job's cancel flag.
pub fn run_job(pool: &WorkerPool, job: &HelperJob, emit: &mut dyn FnMut(DynEvent)) -> u64 {
    run_exchange(pool, job, &|_| job.is_cancelled(), emit)
}

/// The worker exchange in its **blocking** form — checkout, request
/// line, frame loop, checkin-or-kill, on the calling thread — for a
/// driver whose threads may block: an MT connection thread, which adds
/// the deadline its core armed to `stop` and, on a silent worker's
/// tick, a look at its client, and `loadbench`'s round-trip layer
/// ([`run_job`]). `stop` is asked between reads, with `false`, and on
/// every poll tick of a silent worker, with `true`.
///
/// `emit` is called once per streaming event, in order; a clean
/// exchange ends with `End { clean: true }`, a crash with
/// `End { clean: false }`, and a **stopped** exchange emits nothing
/// further at all — the core already purged the waiter (or is about
/// to expire it), so any late completion would die at the token gate
/// anyway.
///
/// Returns how many workers this call retired (killed or found dead);
/// the caller feeds the tally into the `worker_respawns` counter —
/// every retirement is followed by a respawn on the next checkout.
pub(crate) fn run_exchange(
    pool: &WorkerPool,
    job: &HelperJob,
    stop: &dyn Fn(bool) -> bool,
    emit: &mut dyn FnMut(DynEvent),
) -> u64 {
    let (worker, mut retired) = pool.checkout();
    let mut worker = match worker {
        Ok(w) => w,
        Err(_) => {
            // Cannot even spawn the worker program: fail the request
            // (a pre-header unclean end renders as a 500).
            emit(DynEvent::End { clean: false });
            return retired;
        }
    };
    let mut line = Vec::new();
    request_line(job, &mut line);
    if worker.sock.write_all(&line).is_err() {
        drop(worker); // kills
        emit(DynEvent::End { clean: false });
        return retired + 1;
    }
    let mut parser = FrameParser::default();
    let mut chunk = [0u8; 4096];
    // Whether the last read came back empty: a tick of a silent worker.
    let mut silent = false;
    // Whether the worker said `END`. Every other way out (EOF, stop,
    // garbage, a hard socket error) means it cannot be trusted to be
    // frame-aligned again.
    let ended = 'exchange: loop {
        if stop(std::mem::take(&mut silent)) {
            break false;
        }
        while let Some(frame) = parser.pop() {
            match frame {
                Frame::Data(body) => emit(DynEvent::Chunk(body)),
                Frame::End => break 'exchange true,
                Frame::Corrupt => break 'exchange false,
            }
        }
        match worker.sock.read(&mut chunk) {
            Ok(0) => break false,
            Ok(n) => parser.push(&chunk[..n]),
            // The cancel-poll tick of a silent worker, or a signal.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                silent = true
            }
            Err(_) => break false,
        }
    };
    // Bytes behind the `END` would be read as the next request's
    // first frame: such a worker is not checked in either.
    if ended && !parser.has_leftover() {
        pool.checkin(worker);
    } else {
        drop(worker); // kills — the only way to resync the framing
        retired += 1;
    }
    if ended || !stop(false) {
        emit(DynEvent::End { clean: ended });
    }
    retired
}

/// The server → worker half of the protocol, `GET <path>\n`, written
/// over what `line` held: the path's own bytes, no formatting.
pub(crate) fn request_line(job: &HelperJob, line: &mut Vec<u8>) {
    line.clear();
    line.extend_from_slice(b"GET ");
    line.extend_from_slice(job.fs_path.as_os_str().as_bytes());
    line.push(b'\n');
}

/// Parses `DATA <len>` (ASCII decimal, bounded by [`MAX_FRAME`]).
fn parse_data_header(line: &[u8]) -> Option<usize> {
    let rest = line.strip_prefix(b"DATA ")?;
    let s = std::str::from_utf8(rest).ok()?;
    let len: usize = s.trim().parse().ok()?;
    (len <= MAX_FRAME).then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Variant;
    use crate::conn::JobKind;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn dyn_job(path: &str) -> HelperJob {
        HelperJob {
            path: String::new(),
            fs_path: PathBuf::from(path),
            kind: JobKind::Dynamic,
            variant: Variant::Identity,
            inline_max: 0,
            epoch: 0,
            token: 1,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    fn collect(pool: &WorkerPool, job: &HelperJob) -> (Vec<DynEvent>, u64) {
        let mut events = Vec::new();
        let retired = run_job(pool, job, &mut |ev| events.push(ev));
        (events, retired)
    }

    #[test]
    fn default_worker_round_trips_and_is_reused() {
        let pool = WorkerPool::new(WorkerPool::default_command());
        for i in 0..3 {
            let (events, retired) = collect(&pool, &dyn_job(&format!("/app/{i}")));
            assert_eq!(retired, 0, "clean exchange must not retire the worker");
            assert!(matches!(events.last(), Some(DynEvent::End { clean: true })));
            let body: Vec<u8> = events
                .iter()
                .filter_map(|e| match e {
                    DynEvent::Chunk(b) => Some(b.to_vec()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(body, format!("hello from worker: /app/{i}").into_bytes());
        }
        // All three requests were served by the one persistent worker.
        assert_eq!(pool.idle.lock().unwrap().len(), 1);
    }

    #[test]
    fn crash_mid_body_ends_unclean_and_retires_the_worker() {
        // One DATA frame, then exit without END: a mid-stream crash.
        let pool = WorkerPool::new(vec![
            "/bin/sh".into(),
            "-c".into(),
            "read -r m p; printf 'DATA 5\\nhello'; exit 7".into(),
        ]);
        let (events, retired) = collect(&pool, &dyn_job("/app/x"));
        assert_eq!(retired, 1);
        assert!(matches!(events[0], DynEvent::Chunk(ref b) if &b[..] == b"hello"));
        assert!(matches!(
            events.last(),
            Some(DynEvent::End { clean: false })
        ));
        assert!(pool.idle.lock().unwrap().is_empty());
        // The pool recovers: the next request spawns a fresh worker.
        let pool2 = WorkerPool::new(WorkerPool::default_command());
        let (events, _) = collect(&pool2, &dyn_job("/app/y"));
        assert!(matches!(events.last(), Some(DynEvent::End { clean: true })));
    }

    #[test]
    fn garbage_framing_is_a_crash() {
        let pool = WorkerPool::new(vec![
            "/bin/sh".into(),
            "-c".into(),
            "read -r m p; printf 'WAT\\n'; sleep 60".into(),
        ]);
        let (events, retired) = collect(&pool, &dyn_job("/app/x"));
        assert_eq!(retired, 1);
        assert!(matches!(
            events.last(),
            Some(DynEvent::End { clean: false })
        ));
    }

    #[test]
    fn cancellation_kills_without_emitting() {
        // A wedged worker: answers nothing, sleeps. The cancel flag is
        // pre-raised, so the first cancel-poll tick aborts the
        // exchange without emitting any event.
        let pool = WorkerPool::new(vec!["/bin/sh".into(), "-c".into(), "sleep 60".into()]);
        let job = dyn_job("/app/wedge");
        job.cancel.store(true, Ordering::Release);
        let (events, retired) = collect(&pool, &job);
        assert!(events.is_empty(), "cancelled exchange must stay silent");
        assert_eq!(retired, 1);
        assert!(pool.idle.lock().unwrap().is_empty());
    }

    #[test]
    fn dead_idle_worker_is_discarded_at_checkout() {
        let pool = WorkerPool::new(WorkerPool::default_command());
        let (events, _) = collect(&pool, &dyn_job("/a"));
        assert!(matches!(events.last(), Some(DynEvent::End { clean: true })));
        // Kill the parked worker behind the pool's back.
        {
            let mut idle = pool.idle.lock().unwrap();
            let w = &mut idle[0];
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        let (events, retired) = collect(&pool, &dyn_job("/b"));
        assert_eq!(retired, 1, "the dead idle worker counts as a retirement");
        assert!(matches!(events.last(), Some(DynEvent::End { clean: true })));
    }
}
