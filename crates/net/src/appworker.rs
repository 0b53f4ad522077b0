//! Persistent application-worker pool — the dynamic tier's backend
//! (the paper's §5.6 CGI successor: long-lived worker *processes*
//! reused across requests instead of a fork+exec per hit).
//!
//! Each worker is spawned **once** over a `socketpair(2)`
//! ([`std::os::unix::net::UnixStream::pair`]) with both stdin and
//! stdout bound to the child end, parked in an idle list between
//! requests, and killed + replaced only when it crashes, corrupts the
//! framing, or is cancelled mid-exchange (a kill is the only way to
//! resynchronize a stream protocol with no request ids). The helper
//! pool runs the exchange — the event-loop shards never block on a
//! worker, exactly as they never block on disk.
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
//! cleanly and returns the worker to the idle list. EOF or a garbled
//! frame before `END` is a crash: the worker is killed and the
//! response ends unclean ([`crate::conn::DynEvent::End`] with
//! `clean: false` — a detectable truncation, because chunked framing
//! never sees its `0\r\n\r\n` terminator).

use std::io::{self, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;

use crate::conn::{DynEvent, HelperJob};

/// Cadence at which a blocked frame read wakes to check the job's
/// cancellation flag — the path by which a shard's `dynamic_deadline`
/// expiry (or a vanished client) reaches a helper mid-exchange.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// Upper bound on a single `DATA` frame. A length past this is treated
/// as framing corruption (worker killed), not an allocation request.
const MAX_FRAME: usize = 16 * 1024 * 1024;

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
    fn spawn(command: &[String]) -> io::Result<Worker> {
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
        let child = Command::new(&command[0])
            .args(&command[1..])
            .stdin(Stdio::from(stdin_fd))
            .stdout(Stdio::from(stdout_fd))
            .spawn()?;
        ours.set_read_timeout(Some(CANCEL_POLL))?;
        Ok(Worker { child, sock: ours })
    }

    /// Whether the process has already exited (a dead idle worker is
    /// discarded at checkout instead of being handed a request).
    fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)) | Err(_))
    }
}

impl Drop for Worker {
    // Kill + wait on every drop: no zombies, whether the worker is
    // retired for crash, cancellation, or pool teardown.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The shared pool: a command line and the idle list. Workers are
/// spawned lazily (first dynamic request), reused FIFO-ish (LIFO,
/// actually — the hottest worker stays hottest), and never counted
/// against a cap: the helper pool's own size bounds concurrent
/// exchanges, so at most `helpers` workers can be checked out at once.
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
        (Worker::spawn(&self.command), dead)
    }

    pub(crate) fn checkin(&self, worker: Worker) {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(worker);
    }
}

/// What one attempt to pull bytes from the worker produced.
enum Pull {
    Data,
    Eof,
    Stopped,
}

/// A hand-rolled line/frame reader over the worker socket. Not a
/// `BufReader`: the cancel-poll read timeout can land mid-line, and
/// this buffer must survive that timeout intact. The `stop` predicate
/// is checked on every poll tick.
struct FrameReader<'a> {
    sock: &'a UnixStream,
    stop: &'a dyn Fn() -> bool,
    buf: Vec<u8>,
}

impl<'a> FrameReader<'a> {
    fn new(sock: &'a UnixStream, stop: &'a dyn Fn() -> bool) -> FrameReader<'a> {
        FrameReader {
            sock,
            stop,
            buf: Vec::new(),
        }
    }

    /// Blocks (on the cancel-poll cadence) until at least one more
    /// byte is buffered, EOF, or the stop predicate fires.
    fn fill(&mut self) -> io::Result<Pull> {
        let mut tmp = [0u8; 4096];
        loop {
            match (&mut self.sock).read(&mut tmp) {
                Ok(0) => return Ok(Pull::Eof),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    return Ok(Pull::Data);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if (self.stop)() {
                        return Ok(Pull::Stopped);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One `\n`-terminated line (returned without the newline), or
    /// `None` on EOF/stop/garbage-oversized-line.
    fn read_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                return Ok(Some(line));
            }
            if self.buf.len() > 4096 {
                // A kilobyte-scale "line" is framing corruption, not a
                // header — stop buffering it.
                return Ok(None);
            }
            match self.fill()? {
                Pull::Data => {}
                Pull::Eof | Pull::Stopped => return Ok(None),
            }
        }
    }

    /// Exactly `len` payload bytes, or `None` on EOF/stop.
    fn read_exact(&mut self, len: usize) -> io::Result<Option<Vec<u8>>> {
        while self.buf.len() < len {
            match self.fill()? {
                Pull::Data => {}
                Pull::Eof | Pull::Stopped => return Ok(None),
            }
        }
        let rest = self.buf.split_off(len);
        Ok(Some(std::mem::replace(&mut self.buf, rest)))
    }
}

/// Runs one dynamic exchange end to end on the calling (helper)
/// thread, until it ends or the job is cancelled: `run_exchange`
/// stopped by the job's cancel flag.
pub fn run_job(pool: &WorkerPool, job: &HelperJob, emit: &mut dyn FnMut(DynEvent)) -> u64 {
    run_exchange(pool, job, &|| job.is_cancelled(), emit)
}

/// The one worker exchange: checkout, request line, frame loop,
/// checkin-or-kill, on the calling thread. `stop` is asked between
/// frames and on every poll tick of a silent worker — the helper pool
/// plugs in the job's cancel flag ([`run_job`]), an MT connection
/// thread adds the deadline its core armed.
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
    stop: &dyn Fn() -> bool,
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
    let line = format!("GET {}\n", job.fs_path.display());
    if worker.sock.write_all(line.as_bytes()).is_err() {
        drop(worker); // kills
        emit(DynEvent::End { clean: false });
        return retired + 1;
    }
    let mut reader = FrameReader::new(&worker.sock, stop);
    // Loop exits (EOF, stop, oversized line, unparseable header, or
    // a hard socket error) all mean the worker cannot be trusted to be
    // frame-aligned again — fall through to the kill below.
    while !stop() {
        let Ok(Some(line)) = reader.read_line() else {
            break;
        };
        if line == b"END" {
            drop(reader);
            pool.checkin(worker);
            emit(DynEvent::End { clean: true });
            return retired;
        }
        let Some(len) = parse_data_header(&line) else {
            break;
        };
        match reader.read_exact(len) {
            Ok(Some(body)) => emit(DynEvent::Chunk(Bytes::from(body))),
            Ok(None) | Err(_) => break,
        }
    }
    drop(reader);
    drop(worker); // kills — the only way to resync the framing
    retired += 1;
    if !stop() {
        emit(DynEvent::End { clean: false });
    }
    retired
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
            path: "\0dyn:1".to_string(),
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
