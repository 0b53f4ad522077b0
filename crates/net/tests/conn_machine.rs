//! Byte-boundary property test against the sans-IO protocol core: a
//! pipelined multi-request burst must produce **byte-identical
//! responses no matter where the transport splits the request stream**
//! — every TCP segmentation of the same bytes is the same
//! conversation. The old loopback tests could only sample a few split
//! points through real sockets; driving [`flash_net::conn`] directly
//! makes every split position cheap enough to test exhaustively.
//!
//! The burst compositions are drawn from a seeded
//! [`flash_simcore::SimRng`], so the exercised request mixes vary but
//! reproduce exactly.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flash_net::cache::Variant;
use flash_net::conn::machine::{sync_deadline, Conn};
use flash_net::conn::{
    ConnIo, ConnState, Done, DoneData, Drive, DynEvent, FileData, Held, HelperJob, HelperPort,
    JobKind, LoadResult, ProtoConfig, ShardCore, ShardStats,
};
use flash_net::timer::TimerWheel;
use flash_simcore::SimRng;

/// An in-memory transport, writable unless `write_err` says every
/// write fails that way; the response stream — and which call carried
/// each write — is captured behind an `Rc` so it survives the core
/// closing the slot.
struct TestIo {
    inbox: VecDeque<u8>,
    captured: Rc<RefCell<Vec<u8>>>,
    calls: Rc<RefCell<Vec<&'static str>>>,
    write_err: Option<io::ErrorKind>,
    /// Scripts [`ConnIo::known_empty`]: the transport says so whenever
    /// its inbox is empty (a socket works that out from a short read).
    reports_dry: bool,
    /// The peer's end of stream is queued behind the inbox — and the
    /// transport has been told (the hang-up mark), so it never reports
    /// dry: an empty inbox reads `Ok(0)`.
    peer_closed: bool,
}

impl TestIo {
    fn new(captured: &Rc<RefCell<Vec<u8>>>) -> TestIo {
        TestIo {
            inbox: VecDeque::new(),
            captured: Rc::clone(captured),
            calls: Rc::default(),
            write_err: None,
            reports_dry: false,
            peer_closed: false,
        }
    }
}

impl ConnIo for TestIo {
    type FileRef = Arc<Vec<u8>>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return if self.peer_closed {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        let n = buf.len().min(self.inbox.len());
        for slot in buf.iter_mut().take(n) {
            *slot = self.inbox.pop_front().unwrap();
        }
        Ok(n)
    }

    fn known_empty(&self) -> bool {
        self.reports_dry && !self.peer_closed && self.inbox.is_empty()
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.calls.borrow_mut().push("writev");
        self.gather(bufs)
    }

    fn writev_more(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.calls.borrow_mut().push("writev_more");
        self.gather(bufs)
    }

    fn sendfile(&mut self, file: &Arc<Vec<u8>>, offset: &mut u64, max: u64) -> io::Result<usize> {
        self.calls.borrow_mut().push("sendfile");
        let left = (file.len() as u64).saturating_sub(*offset);
        if left == 0 {
            return Ok(0);
        }
        let n = max.min(left);
        self.captured
            .borrow_mut()
            .extend_from_slice(&file[*offset as usize..(*offset + n) as usize]);
        *offset += n;
        Ok(n as usize)
    }
}

impl TestIo {
    /// What both gathered writes do with their segments.
    fn gather(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        if let Some(kind) = self.write_err {
            return Err(kind.into());
        }
        let mut out = self.captured.borrow_mut();
        let mut n = 0;
        for b in bufs {
            out.extend_from_slice(b);
            n += b.len();
        }
        Ok(n)
    }
}

struct SyncPort {
    jobs: Vec<HelperJob>,
}

impl HelperPort<Arc<Vec<u8>>> for SyncPort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }
}

/// The in-memory "disk": path → body, with the large file served
/// through the `sendfile` tier.
fn disk() -> HashMap<String, (Vec<u8>, bool)> {
    let mut d = HashMap::new();
    d.insert("/a.html".to_string(), (b"alpha body".to_vec(), false));
    d.insert(
        "/b.html".to_string(),
        (b"a longer beta body for variety".to_vec(), false),
    );
    let big: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    d.insert("/big.bin".to_string(), (big, true));
    d
}

fn exec(files: &HashMap<String, (Vec<u8>, bool)>, job: &HelperJob) -> Done<Arc<Vec<u8>>> {
    let data = match files.get(&job.path) {
        None => DoneData::Loaded(Err(io::ErrorKind::NotFound.into())),
        Some((body, large)) => {
            assert_eq!(job.kind, JobKind::Load, "TTL is disabled in this harness");
            let data = if *large {
                FileData::Fd {
                    file: Arc::new(body.clone()),
                    len: body.len() as u64,
                    mtime: Some(123_456_789),
                }
            } else {
                FileData::Bytes {
                    body: body.clone(),
                    mtime: Some(123_456_789),
                }
            };
            DoneData::Loaded(Ok(LoadResult {
                data,
                variant: Variant::Identity,
                has_gzip: false,
                resolved_at: None,
            }))
        }
    };
    Done {
        path: job.path.clone(),
        data,
        epoch: job.epoch,
        token: job.token,
    }
}

fn core() -> ShardCore {
    let cfg = ProtoConfig {
        docroot: PathBuf::from("/test"),
        idle_timeout: None,
        header_read_timeout: None,
        write_stall_timeout: None,
        helper_wait_timeout: None,
        cache_revalidate_ttl: None,
        dynamic_deadline: None,
        dynamic_prefix: None,
        sendfile_threshold: 4096,
        metrics_endpoint: false,
        access_log: false,
    };
    ShardCore::new(0, 1024 * 1024, cfg, Arc::new(ShardStats::default()))
}

/// Drives the single connection to quiescence: every synchronous
/// "helper" completion is executed and delivered until no jobs remain.
fn settle(
    core: &mut ShardCore,
    conns: &mut [Option<Conn<TestIo>>],
    port: &mut SyncPort,
    files: &HashMap<String, (Vec<u8>, bool)>,
    now: Instant,
) {
    loop {
        let _ = core.drive_conn(0, conns, port, now);
        if port.jobs.is_empty() {
            return;
        }
        let jobs: Vec<_> = port.jobs.drain(..).collect();
        let mut completed = Vec::new();
        for job in jobs {
            let done = exec(files, &job);
            core.complete_job(done, conns, &mut completed, port, now);
        }
    }
}

/// Replays `burst` against a fresh core, delivered in the given
/// chunks; returns the full captured response stream.
fn replay(burst: &[u8], chunks: &[&[u8]], files: &HashMap<String, (Vec<u8>, bool)>) -> Vec<u8> {
    assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), burst.len());
    let mut core = core();
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut conns = vec![Some(Conn::new(TestIo::new(&captured)))];
    let mut port = SyncPort { jobs: Vec::new() };
    let now = Instant::now();
    let wheel = TimerWheel::new(std::time::Duration::from_millis(10));
    for chunk in chunks {
        let Some(conn) = conns[0].as_mut() else { break };
        conn.io.inbox.extend(chunk.iter().copied());
        settle(&mut core, &mut conns, &mut port, files, now);
        core.check_invariants(&conns, &wheel, |_| 0)
            .expect("invariants must hold after every chunk");
    }
    assert!(
        core.jobs.is_empty(),
        "no parked state may survive a settled replay"
    );
    let out = captured.borrow().clone();
    out
}

/// The 29-byte IMF-fixdate after each `Date: ` is the response
/// stream's only wall-clock content; blank it before comparing.
fn scrub_dates(buf: &mut [u8]) {
    const PAT: &[u8] = b"Date: ";
    const VAL: usize = 29;
    let mut i = 0;
    while i + PAT.len() + VAL <= buf.len() {
        if &buf[i..i + PAT.len()] == PAT {
            for b in &mut buf[i + PAT.len()..i + PAT.len() + VAL] {
                *b = b'#';
            }
            i += PAT.len() + VAL;
        } else {
            i += 1;
        }
    }
}

/// A seeded 3-request pipelined burst: paths and methods drawn from
/// the RNG, the last request `Connection: close`.
fn build_burst(rng: &mut SimRng) -> Vec<u8> {
    const PATHS: [&str; 4] = ["/a.html", "/b.html", "/big.bin", "/missing.html"];
    let mut burst = Vec::new();
    for i in 0..3 {
        let path = PATHS[rng.uniform(0, PATHS.len() as u64) as usize];
        let method = if rng.chance(0.25) { "HEAD" } else { "GET" };
        burst.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: t\r\n").as_bytes());
        if i == 2 {
            burst.extend_from_slice(b"Connection: close\r\n");
        }
        burst.extend_from_slice(b"\r\n");
    }
    burst
}

/// The property: for several seeded bursts, splitting the request
/// stream at **every** byte position yields responses identical to
/// the unsplit replay — partial headers, headers split mid-token,
/// pipelined requests severed across reads, all of it.
#[test]
fn every_split_position_yields_identical_responses() {
    let files = disk();
    let mut rng = SimRng::new(0xB0A7);
    for round in 0..3 {
        let burst = build_burst(&mut rng);
        let mut baseline = replay(&burst, &[&burst], &files);
        scrub_dates(&mut baseline);
        assert!(!baseline.is_empty(), "baseline produced no responses");
        for split in 1..burst.len() {
            let (head, tail) = burst.split_at(split);
            let mut got = replay(&burst, &[head, tail], &files);
            scrub_dates(&mut got);
            assert_eq!(
                got,
                baseline,
                "round {round}: split at byte {split} diverged from unsplit replay\nburst: {:?}",
                String::from_utf8_lossy(&burst)
            );
        }
    }
}

/// Sanity for the harness itself: three-way splits (two boundaries)
/// also match, on a burst that crosses every response tier.
#[test]
fn three_way_splits_match_for_mixed_tiers() {
    let files = disk();
    let burst = b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /big.bin HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /missing.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        .to_vec();
    let mut baseline = replay(&burst, &[&burst], &files);
    scrub_dates(&mut baseline);
    assert!(
        baseline.windows(4).any(|w| w == b"200 "),
        "expected a 200 in the stream"
    );
    assert!(
        baseline.windows(4).any(|w| w == b"404 "),
        "expected a 404 in the stream"
    );
    // A spread of two-boundary splits, including both inside one
    // request and across the pipelined seams.
    for (a, b) in [(1, 2), (5, 40), (33, 34), (36, 80), (70, 110)] {
        let mut got = replay(&burst, &[&burst[..a], &burst[a..b], &burst[b..]], &files);
        scrub_dates(&mut got);
        assert_eq!(got, baseline, "split at ({a}, {b}) diverged");
    }
}

/// A dynamic stream's waiter registration must die with its
/// connection, however the connection dies mid-stream — a transport
/// error on the flush, or the write-stall deadline on a peer that
/// stopped reading. Otherwise the slot's index stays on the
/// `\0dyn:<token>` list with the job uncancelled, and the worker's
/// next chunk is framed and sent — fresh `200` header and all — to
/// whichever connection is accepted into the recycled slot.
#[test]
fn a_dead_dynamic_stream_cannot_reach_the_slots_next_connection() {
    for death in [io::ErrorKind::BrokenPipe, io::ErrorKind::WouldBlock] {
        let mut core = core();
        core.cfg.dynamic_prefix = Some("/app/".to_string());
        core.cfg.write_stall_timeout = Some(Duration::from_secs(30));
        let captured = Rc::new(RefCell::new(Vec::new()));
        let mut conns = vec![Some(Conn::new(TestIo::new(&captured)))];
        let mut port = SyncPort { jobs: Vec::new() };
        let mut wheel = TimerWheel::new(Duration::from_millis(10));
        let mut completed = Vec::new();
        let now = Instant::now();
        let check = |core: &ShardCore, conns: &[Option<Conn<TestIo>>], wheel: &TimerWheel| {
            core.check_invariants(conns, wheel, |_| 0)
                .unwrap_or_else(|e| panic!("{death:?}: {e}"));
        };

        let io = &mut conns[0].as_mut().unwrap().io;
        io.inbox.extend(b"GET /app/x HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(matches!(
            core.drive_conn(0, &mut conns, &mut port, now),
            Drive::Blocked
        ));
        let job = port.jobs.pop().expect("a dynamic job was dispatched");
        assert_eq!(job.kind, JobKind::Dynamic);
        check(&core, &conns, &wheel);
        let chunk = |body: &'static [u8]| Done {
            path: job.path.clone(),
            data: DoneData::Dynamic(DynEvent::Chunk(Bytes::from(body))),
            epoch: job.epoch,
            token: job.token,
        };

        // Chunk 1 is delivered and flushed; the stream stays open.
        core.complete_job(chunk(b"one"), &mut conns, &mut completed, &mut port, now);
        assert_eq!(completed, [0]);
        assert!(matches!(
            core.drive_conn(0, &mut conns, &mut port, now),
            Drive::Blocked
        ));
        assert!(captured.borrow().ends_with(b"3\r\none\r\n"));
        check(&core, &conns, &wheel);

        // The client goes away; chunk 2 finds that out.
        conns[0].as_mut().unwrap().io.write_err = Some(death);
        core.complete_job(chunk(b"two"), &mut conns, &mut completed, &mut port, now);
        let outcome = core.drive_conn(0, &mut conns, &mut port, now);
        if death == io::ErrorKind::WouldBlock {
            // Backpressure, not an error: the connection sits `Writing`
            // with its stream open until the write-stall deadline fires.
            assert!(matches!(outcome, Drive::Blocked));
            let conn = conns[0].as_mut().unwrap();
            assert!(matches!(conn.state, ConnState::Writing) && conn.stream_open);
            sync_deadline(conn, 0, &core.cfg, &mut wheel, now);
            check(&core, &conns, &wheel);
            let outcome = core.expire_conn(0, &mut conns, &mut port, now);
            wheel.cancel(0);
            assert!(matches!(outcome, Drive::Closed));
            assert_eq!(core.stats.write_stall_timeouts.load(Ordering::Relaxed), 1);
        } else {
            assert!(matches!(outcome, Drive::Closed));
        }
        assert!(conns[0].is_none());
        check(&core, &conns, &wheel);
        assert!(job.is_cancelled(), "{death:?}: the worker runs for nobody");
        assert_eq!(core.stats.jobs_cancelled.load(Ordering::Relaxed), 1);
        assert!(core.jobs.is_empty());

        // A new client is accepted into the recycled slot; the worker,
        // not yet stopped, emits chunk 3 under the old token.
        let fresh = Rc::new(RefCell::new(Vec::new()));
        conns[0] = Some(Conn::new(TestIo::new(&fresh)));
        completed.clear();
        core.complete_job(chunk(b"three"), &mut conns, &mut completed, &mut port, now);
        assert!(
            completed.is_empty(),
            "{death:?}: a stale chunk woke someone"
        );
        let _ = core.drive_conn(0, &mut conns, &mut port, now);
        assert!(
            fresh.borrow().is_empty(),
            "{death:?}: a stale chunk was sent"
        );
        check(&core, &conns, &wheel);
    }
}

/// One keep-alive request through a fresh core on a transport set up
/// by `script`; returns what the drive left, the `read` calls it made,
/// and the response stream.
fn one_request(script: impl FnOnce(&mut TestIo)) -> (Drive, u64, Vec<u8>) {
    let mut core = core();
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut io = TestIo::new(&captured);
    io.inbox.extend(b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n");
    script(&mut io);
    let mut conns = vec![Some(Conn::new(io))];
    let entry = flash_net::cache::Entry::build("/a.html", b"alpha body".to_vec());
    assert!(core
        .cache
        .insert_at("/a.html".into(), entry, Instant::now()));
    let mut port = SyncPort { jobs: Vec::new() };
    let outcome = core.drive_conn(0, &mut conns, &mut port, Instant::now());
    assert!(port.jobs.is_empty(), "a cache hit dispatches nothing");
    let reads = core.stats.read_calls.load(Ordering::Relaxed);
    let out = captured.borrow().clone();
    (outcome, reads, out)
}

/// The dry rule: the core asks the transport before it reads. One that
/// cannot tell pays the confirming read; one that knows it is dry
/// parks on the read that took the request; one that has seen the
/// peer's hang-up reads on to the end of stream and closes there.
#[test]
fn a_dry_transport_is_not_read_and_a_hung_up_one_is_read_to_eof() {
    let (outcome, reads, out) = one_request(|_| {});
    assert!(matches!(outcome, Drive::Blocked));
    assert_eq!(reads, 2, "the request, then the read that says WouldBlock");
    assert!(out.starts_with(b"HTTP/1.1 200 ") && out.ends_with(b"alpha body"));

    let (outcome, reads, dry_out) = one_request(|io| io.reports_dry = true);
    assert!(matches!(outcome, Drive::Blocked));
    assert_eq!(reads, 1, "a transport known to be dry is not asked");
    assert_eq!(scrubbed(dry_out), scrubbed(out.clone()));

    let (outcome, reads, closed_out) = one_request(|io| {
        io.reports_dry = true;
        io.peer_closed = true;
    });
    assert!(matches!(outcome, Drive::Closed), "closed at its EOF");
    assert_eq!(reads, 2, "the request, then the read that says Ok(0)");
    assert_eq!(scrubbed(closed_out), scrubbed(out));
}

/// One connection answering `request` on a transport that reports
/// itself dry when `dry`, on a shard draining when `drain`: which call
/// carried each write, and whether the connection closed.
fn carriers(request: &[u8], dry: bool, drain: bool) -> (Vec<&'static str>, bool) {
    let files = disk();
    let mut core = core();
    if drain {
        core.begin_drain();
    }
    let mut io = TestIo::new(&Rc::default());
    io.reports_dry = dry;
    io.inbox.extend(request);
    let calls = Rc::clone(&io.calls);
    let mut conns = vec![Some(Conn::new(io))];
    let mut port = SyncPort { jobs: Vec::new() };
    settle(&mut core, &mut conns, &mut port, &files, Instant::now());
    let calls = calls.borrow().clone();
    (calls, conns[0].is_none())
}

/// The cork rule: a response that ends its connection because the
/// client asked to close, on a transport that knows no unread byte is
/// waiting, leaves through `writev_more`, so the close behind it puts
/// the FIN in the held segment. Every other response's last write is
/// pushed — a keep-alive one's, a drain's close of a keep-alive, one
/// on a transport that cannot vouch for being dry, a refusal's (the
/// refused request's body may still be arriving, and a close with
/// bytes unread sends a reset, which would discard a held segment),
/// and a `sendfile` body's, whose header alone is corked.
#[test]
fn only_a_close_the_client_asked_for_is_corked() {
    const GET_10: &[u8] = b"GET /a.html HTTP/1.0\r\n\r\n";
    const GET_11: &[u8] = b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n";
    const CLOSE: &[u8] = b"GET /a.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    const BODY_400: &[u8] = b"GET /a.html HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc";
    const POST_501: &[u8] = b"POST /a.html HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc";
    const BIG: &[u8] = b"GET /big.bin HTTP/1.0\r\n\r\n";
    let corked = (vec!["writev_more"], true);
    let pushed = (vec!["writev"], true);
    assert_eq!(carriers(GET_10, true, false), corked, "HTTP/1.0");
    assert_eq!(carriers(CLOSE, true, false), corked, "Connection: close");
    let kept = (vec!["writev"], false);
    assert_eq!(carriers(GET_11, true, false), kept, "keep-alive");
    assert_eq!(carriers(GET_11, true, true), pushed, "a drain's close");
    assert_eq!(carriers(GET_10, false, false), pushed, "not known dry");
    assert_eq!(carriers(BODY_400, true, false), pushed, "a 400");
    assert_eq!(carriers(POST_501, true, false), pushed, "a 501");
    let sendfile = (vec!["writev_more", "sendfile"], true);
    assert_eq!(carriers(BIG, true, false), sendfile, "a sendfile body");
}

fn scrubbed(mut buf: Vec<u8>) -> Vec<u8> {
    scrub_dates(&mut buf);
    buf
}

/// One connection's fate at drain entry: `served` is answered before
/// the drain begins, `unread` sits in the transport when it does;
/// `reports_dry` scripts the transport's [`ConnIo::known_empty`].
/// Returns whether the slot is still occupied after the drain-entry
/// drive, how many `200`s went out in all, and `drained_conns`.
fn at_drain_entry(served: &[u8], unread: &[u8], reports_dry: bool) -> (bool, usize, u64) {
    let files = disk();
    let mut core = core();
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut conns = vec![Some(Conn::new(TestIo::new(&captured)))];
    let mut port = SyncPort { jobs: Vec::new() };
    let wheel = TimerWheel::new(Duration::from_millis(10));
    let now = Instant::now();
    conns[0].as_mut().unwrap().io.reports_dry = reports_dry;
    conns[0].as_mut().unwrap().io.inbox.extend(served);
    settle(&mut core, &mut conns, &mut port, &files, now);
    core.check_invariants(&conns, &wheel, |_| 0).unwrap();
    conns[0].as_mut().unwrap().io.inbox.extend(unread);
    // What a driver does at drain entry: flip the core, then drive
    // every `Reading` slot once.
    core.begin_drain();
    let reads_before = core.stats.read_calls.load(Ordering::Relaxed);
    settle(&mut core, &mut conns, &mut port, &files, now);
    core.check_invariants(&conns, &wheel, |_| 0).unwrap();
    if reports_dry && unread.is_empty() {
        let reads = core.stats.read_calls.load(Ordering::Relaxed);
        assert_eq!(reads, reads_before, "the rule ran on the park path");
    }
    let oks = captured
        .borrow()
        .windows(13)
        .filter(|w| w == b"HTTP/1.1 200 ")
        .count();
    (
        conns[0].is_some(),
        oks,
        core.stats.drained_conns.load(Ordering::Relaxed),
    )
}

/// The drain-entry rule lives in the core, so every driver gets the
/// same one: an answered, idle keep-alive closes at once; requests
/// already in the transport are served first; a connection not yet
/// answered — or mid-request — keeps its grace. It is the same rule
/// whether the core learns the transport is dry from a `WouldBlock`
/// read or from the transport's own word.
#[test]
fn drain_entry_closes_only_answered_idle_connections() {
    const GET: &[u8] = b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n";
    for dry in [false, true] {
        let at = |served, unread| at_drain_entry(served, unread, dry);
        assert_eq!(at(b"", b""), (true, 0, 0), "not yet answered");
        assert_eq!(at(GET, b""), (false, 1, 1), "answered and idle");
        assert_eq!(at(GET, GET), (false, 2, 1), "a request unread");
        assert_eq!(at(GET, &GET[..9]), (true, 1, 0), "mid-request");
    }
}

/// Two connections coalesced on one stale entry follow their job
/// through a revalidation that finds the file changed: the re-stat's
/// answer dispatches exactly one `Load` under a new token for the same
/// waiters, a late answer under the old token is dropped, a waiter
/// that leaves takes only itself off the job, the `Load` answers the
/// survivor alone, and the last waiter's leaving cancels the job.
#[test]
fn coalesced_waiters_follow_their_job_through_a_changed_file() {
    let mut core = core();
    // Every resident entry is past its TTL: each request re-stats.
    core.cfg.cache_revalidate_ttl = Some(Duration::ZERO);
    let now = Instant::now();
    let old = flash_net::cache::Entry::build_with_mtime("/a.html", b"old".to_vec(), Some(1));
    assert!(core.cache.insert_at("/a.html".into(), old, now));
    let outs: Vec<_> = (0..2).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let mut conns: Vec<_> = outs
        .iter()
        .map(|o| Some(Conn::new(TestIo::new(o))))
        .collect();
    let mut port = SyncPort { jobs: Vec::new() };
    let wheel = TimerWheel::new(Duration::from_millis(10));
    let mut completed = Vec::new();
    let check = |core: &ShardCore, conns: &[Option<Conn<TestIo>>]| {
        core.check_invariants(conns, &wheel, |_| 0).unwrap();
    };
    const GET: &[u8] = b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n";
    let waiters = |core: &ShardCore| core.jobs.get("/a.html").map(|job| job.waiters.clone());

    // Both ask; one `Revalidate` job carries both.
    for idx in 0..2 {
        conns[idx].as_mut().unwrap().io.inbox.extend(GET);
        let _ = core.drive_conn(idx, &mut conns, &mut port, now);
        check(&core, &conns);
    }
    let stat = port.jobs.pop().expect("one revalidation");
    assert!(port.jobs.is_empty(), "the second request coalesced");
    assert_eq!(stat.kind, JobKind::Revalidate);
    assert_eq!(waiters(&core), Some(vec![0, 1]));

    // The re-stat reports a change: one `Load` under a new token, for
    // the same waiters, and no one is answered yet.
    let changed = Done {
        path: stat.path.clone(),
        data: DoneData::Stat(Ok((9, Some(2)))),
        epoch: stat.epoch,
        token: stat.token,
    };
    core.complete_job(changed, &mut conns, &mut completed, &mut port, now);
    check(&core, &conns);
    assert!(completed.is_empty());
    let load = port.jobs.pop().expect("the changed file is reloaded");
    assert!(port.jobs.is_empty(), "exactly one reload");
    assert_eq!((load.kind, load.path.as_str()), (JobKind::Load, "/a.html"));
    assert_ne!(load.token, stat.token);
    assert_eq!(waiters(&core), Some(vec![0, 1]));
    assert_eq!(core.stats.stale_evicted.load(Ordering::Relaxed), 1);
    let fresh = |token| Done {
        path: load.path.clone(),
        data: DoneData::Loaded(Ok(LoadResult {
            data: FileData::Bytes {
                body: b"new body!".to_vec(),
                mtime: Some(2),
            },
            variant: Variant::Identity,
            has_gzip: false,
            resolved_at: None,
        })),
        epoch: load.epoch,
        token,
    };

    // A late answer under the old token wakes no one.
    core.complete_job(
        fresh(stat.token),
        &mut conns,
        &mut completed,
        &mut port,
        now,
    );
    check(&core, &conns);
    assert!(completed.is_empty() && port.jobs.is_empty());
    assert_eq!(waiters(&core), Some(vec![0, 1]));

    // One waiter leaves; the job stays for the other.
    core.close_conn(0, &mut conns, now);
    check(&core, &conns);
    assert_eq!(waiters(&core), Some(vec![1]));
    assert!(!load.is_cancelled());
    assert_eq!(core.stats.jobs_cancelled.load(Ordering::Relaxed), 0);

    // The `Load` answers the survivor alone, with the new bytes.
    core.complete_job(
        fresh(load.token),
        &mut conns,
        &mut completed,
        &mut port,
        now,
    );
    check(&core, &conns);
    assert_eq!(completed, [1]);
    assert!(core.jobs.is_empty());
    let _ = core.drive_conn(1, &mut conns, &mut port, now);
    check(&core, &conns);
    assert!(outs[0].borrow().is_empty());
    let answer = outs[1].borrow().clone();
    assert!(answer.starts_with(b"HTTP/1.1 200 ") && answer.ends_with(b"new body!"));

    // The survivor asks again and leaves before the re-stat answers:
    // its job is cancelled.
    conns[1].as_mut().unwrap().io.inbox.extend(GET);
    let _ = core.drive_conn(1, &mut conns, &mut port, now);
    check(&core, &conns);
    let again = port.jobs.pop().expect("a second revalidation");
    assert_eq!(again.kind, JobKind::Revalidate);
    core.close_conn(1, &mut conns, now);
    check(&core, &conns);
    assert!(core.jobs.is_empty());
    assert!(again.is_cancelled());
    assert_eq!(core.stats.jobs_cancelled.load(Ordering::Relaxed), 1);
}

/// A port that holds some files open, as a shard's open-file table
/// does, and counts how often the core asks it for one.
struct HoldingPort {
    jobs: Vec<HelperJob>,
    held: HashMap<String, (Arc<flash_net::cache::Entry>, Arc<Vec<u8>>)>,
    asked: usize,
}

impl HoldingPort {
    fn hold(&mut self, path: &str, body: &[u8]) {
        let len = body.len() as u64;
        let head = flash_net::cache::Entry::head(path, len, Some(7), Variant::Identity, false);
        self.held
            .insert(path.to_string(), (Arc::new(head), Arc::new(body.to_vec())));
    }
}

impl HelperPort<Arc<Vec<u8>>> for HoldingPort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }

    fn held(&mut self, key: &str, _inline_max: u64, _now: Instant) -> Option<Held<Arc<Vec<u8>>>> {
        self.asked += 1;
        let (head, file) = self.held.get(key)?;
        Some(Held {
            head: Arc::clone(head),
            file: Arc::clone(file),
            len: file.len() as u64,
        })
    }
}

/// A content-cache miss on a file the port holds is answered at once,
/// on the `sendfile` tier under the held head, and makes no job at all.
/// A miss on a key whose job is in flight parks on that job, even once
/// the port holds the file: the port is not even asked, and the job's
/// answer serves both waiters.
#[test]
fn a_held_file_answers_a_miss_with_no_job_unless_one_is_in_flight() {
    let mut core = core();
    let now = Instant::now();
    let outs: Vec<_> = (0..2).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let mut conns: Vec<_> = outs
        .iter()
        .map(|o| Some(Conn::new(TestIo::new(o))))
        .collect();
    let mut port = HoldingPort {
        jobs: Vec::new(),
        held: HashMap::new(),
        asked: 0,
    };
    port.hold("/h.html", b"held body");
    let wheel = TimerWheel::new(Duration::from_millis(10));
    let check = |core: &ShardCore, conns: &[Option<Conn<TestIo>>]| {
        core.check_invariants(conns, &wheel, |_| 0).unwrap();
    };
    let ask = |conns: &mut [Option<Conn<TestIo>>], idx: usize, path: &str| {
        let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
        conns[idx].as_mut().unwrap().io.inbox.extend(req.as_bytes());
    };

    ask(&mut conns, 0, "/h.html");
    let _ = core.drive_conn(0, &mut conns, &mut port, now);
    check(&core, &conns);
    assert!(port.jobs.is_empty() && core.jobs.is_empty(), "no job");
    assert_eq!(port.asked, 1);
    let answer = outs[0].borrow().clone();
    assert!(answer.starts_with(b"HTTP/1.1 200 ") && answer.ends_with(b"held body"));
    let calls = conns[0].as_ref().unwrap().io.calls.borrow().clone();
    assert_eq!(calls, ["writev_more", "sendfile"]);
    let stats = &core.stats;
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(
        (count(&stats.helper_jobs), count(&stats.cache_hits)),
        (0, 0)
    );
    outs[0].borrow_mut().clear();

    // Not held: a job, with conn 0 parked on it.
    ask(&mut conns, 0, "/a.html");
    let _ = core.drive_conn(0, &mut conns, &mut port, now);
    check(&core, &conns);
    assert_eq!((port.jobs.len(), port.asked), (1, 2));
    // The port holds it now, but the job in flight has it: conn 1
    // parks beside conn 0, and the port is not asked.
    port.hold("/a.html", b"held a");
    ask(&mut conns, 1, "/a.html");
    let _ = core.drive_conn(1, &mut conns, &mut port, now);
    check(&core, &conns);
    assert_eq!((port.jobs.len(), port.asked), (1, 2));
    assert_eq!(
        core.jobs.get("/a.html").map(|j| j.waiters.clone()),
        Some(vec![0, 1])
    );
    assert!(outs[1].borrow().is_empty(), "answered around its job");

    let job = port.jobs.pop().unwrap();
    let mut completed = Vec::new();
    core.complete_job(
        exec(&disk(), &job),
        &mut conns,
        &mut completed,
        &mut port,
        now,
    );
    check(&core, &conns);
    assert_eq!(completed, [0, 1]);
    for idx in completed {
        let _ = core.drive_conn(idx, &mut conns, &mut port, now);
        let answer = outs[idx].borrow().clone();
        assert!(answer.ends_with(b"alpha body"), "{idx}: the job's answer");
    }
    assert_eq!(count(&core.stats.helper_jobs), 1);
}
