//! A real, runnable Flash-style web server on actual sockets — the
//! paper's AMPED architecture, sharded across modern cores.
//!
//! One server handle, [`Server`], built from the shared `flash-http`
//! machinery and **one protocol implementation** ([`conn`]), runs
//! either of two architectures ([`ServerKind`]):
//!
//! * [`ServerKind::Amped`] (what [`Server::start`] runs; the shard
//!   driver is [`server`]) — **sharded AMPED**:
//!   `NetConfig::event_loops` independent event-loop shards (default
//!   `min(cores, 8)`), **each accepting for itself** as the first
//!   step of its own loop — no acceptor thread serializes connection
//!   setup and no cross-thread dealing hop precedes a request. The
//!   accept mode ([`NetConfig::accept_mode`]; see [`sock`])
//!   decides only what the shards' listener registrations stand on: in
//!   the reuseport mode (the Linux default) **each shard owns its own
//!   `SO_REUSEPORT` listener** and the kernel load-balances connection
//!   setup across them; in the portable single mode every shard
//!   registers a duplicate of one shared socket and a connection goes
//!   to whichever wakes first. Backpressure is local in both (a shard
//!   at [`NetConfig::max_conns_per_shard`], or out of descriptors,
//!   quiesces its listener interest and re-arms as slots free —
//!   `accept_backpressure` counts it). Each
//!   shard multiplexes its connections through the pluggable
//!   **readiness subsystem** in [`event`]: an [`EventBackend`] trait
//!   with an edge-triggered `epoll(7)` implementation (Linux; raw FFI,
//!   `EPOLLIN|EPOLLOUT|EPOLLET`, incremental `epoll_ctl` interest
//!   updates — O(ready fds) per iteration) and a portable `poll(2)`
//!   fallback (no external I/O crates; O(watched fds) per iteration),
//!   selected by [`NetConfig::backend`] (default: epoll on Linux,
//!   poll elsewhere). The loop is
//!   written to the **edge-triggered contract** (see [`event`]): reads
//!   drain to `EWOULDBLOCK` or to a short read, write interest is armed
//!   only while a send is in flight, and a voluntary mid-`sendfile`
//!   yield re-arms the consumed edge. Every connection carries a **per-state deadline**
//!   in its shard's **ordered deadline set** ([`timer`]; the paper's
//!   §6.4 slow-WAN-client concern): a header-read deadline from the
//!   first request byte ([`NetConfig::header_read_timeout`],
//!   default 15 s — slowloris senders; deliberately *not* refreshed by
//!   trickled bytes), a write-progress deadline re-armed on every byte
//!   of forward progress ([`NetConfig::write_stall_timeout`],
//!   default 30 s — stalled readers, on both the `writev` and
//!   `sendfile` paths), and the keep-alive idle timeout
//!   ([`NetConfig::idle_timeout`], default 30 s) between
//!   requests; each knob is `Option` (`None` disables that class). The
//!   earliest deadline bounds the backend's wait ("until the next one
//!   is due, or block"), and expiry costs **O((expired + 1) log n)** —
//!   no connection-table scan — with each cause counted separately
//!   (`read_timeouts`, `write_stall_timeouts`, `idle_reaped` in
//!   [`ServerStats`]).
//!   The MT server honours the same knobs: its read deadlines are the
//!   core's, checked on a 200 ms read cadence, its write-stall bound
//!   is `SO_SNDTIMEO`. Conditional requests are answered: 200s carry
//!   `Last-Modified`, a strong `ETag`, and a real, per-second-cached
//!   `Date`; `If-None-Match` / `If-Modified-Since` validators get a
//!   bodyless `304 Not Modified` (the `not_modified` counter), single
//!   `Range` requests a windowed `206`, and gzip-accepting clients a
//!   precompressed sibling when one exists — all without moving an
//!   unneeded body byte on either tier (see *The send plane* below for
//!   the precedence rules). Shards never
//!   block on disk and own a **private**
//!   [`ContentCache`] so the request path takes no locks. A **shared
//!   helper pool** performs all filesystem work that could block (a
//!   miss whose file is already in memory is read by the shard itself
//!   — see *Residency test* below), popping its per-shard job lanes round-robin so one cold-cache shard cannot starve the
//!   others; completions route back to the owning shard over per-shard
//!   queues with coalesced socketpair wake-ups (one wake byte per
//!   burst, not per job — the modern analogue of the paper's IPC
//!   pipes). The body path is **two-tier**: small files are cached
//!   pre-rendered and go out in a single gathered `writev(2)` (see
//!   [`writev`]) with partial-write resumption tracked across segment
//!   boundaries, while bodies above
//!   [`NetConfig::sendfile_threshold_bytes`] (default
//!   256 KiB) bypass the content cache entirely and stream from the
//!   kernel page cache with `sendfile(2)` (see [`sendfile`]), their
//!   header corked to ride in the body's first segment — so the
//!   in-memory cache budget holds only the small-file hot set, and a
//!   multi-gigabyte response costs no userspace memory at all. A miss
//!   on a file the shard already holds open is sent the same way at any
//!   size, from the page cache, without a copy (*Residency test*).
//!   Oversized entries are likewise refused at cache admission
//!   ([`cache::MAX_ENTRY_DIVISOR`]), so one huge body can never churn
//!   a shard's working set. Cached entries do not outlive the files
//!   they were rendered from: a hit older than
//!   [`NetConfig::cache_revalidate_ttl`] (default 2 s) is
//!   re-stat'ed by a helper before it is trusted — unchanged files
//!   revalidate for free (`revalidations`), changed or deleted ones
//!   are evicted and reloaded (`stale_evicted`).
//! * [`ServerKind::Mt`] ([`Server::start_as`]; the driver is [`mt`]) —
//!   **MT**: thread-per-connection with blocking I/O and a shared,
//!   locked content cache, for comparison (the §3.2 trade-off
//!   discussion, measurable with `cargo run --release --offline
//!   --manifest-path loadbench/Cargo.toml -- --workload
//!   cached_small_mt` against `--workload cached_small`). Not a
//!   second server: each connection thread drives the same protocol
//!   core the shards do, and the handle around it — listeners,
//!   handoff, counters, drain, reload, stop — is the same `Server`, so
//!   the comparison is between two architectures and nothing else
//!   (`tests/differential.rs` holds the two to byte-identical
//!   answers).
//!
//! Every foreign function either server calls — `epoll`, `poll`,
//! `writev`, `sendmsg`, `sendfile`, the listener and `SCM_RIGHTS`
//! plumbing, the signal handler, `kill`, `openat2`/`preadv2`/`cachestat`
//! — is declared in **one file**,
//! [`sys`], behind safe wrappers that carry a `// SAFETY:` note on
//! every `unsafe` block; `tests/ffi_audit.rs` fails if a declaration
//! appears anywhere else.
//!
//! Substitutions from the 1999 original (`CHANGES.md` has the history):
//! helper *threads* instead of forked processes (§3.4 permits both),
//! an application-level content cache for the bytes a load resolved by
//! path reads, and held descriptors sent with `sendfile` where Flash
//! sent from `mmap`ed files (§5.4), the `mincore` residency test in its
//! modern spelling (see *Residency test* below), and N event-loop
//! shards instead of one process — the paper
//! predates multicore; per-core loops are how its single-loop design
//! scales while keeping every invariant intact *within* a shard.
//!
//! # Architecture: one protocol core, two drivers, one shard loop
//!
//! Both servers are layered **sans-IO**: everything the paper is
//! *about* — request parsing, the cache/helper handoff, completion
//! routing, deadlines, drain — lives in a protocol core that performs
//! no syscalls, reads no clocks, and names no file descriptors. The
//! core is driven through three narrow seams (and holds its content
//! cache through a fourth, [`cache::CacheHandle`]: private to a shard,
//! locked and shared between MT's threads), and everything
//! platform-shaped plugs in underneath:
//!
//! ```text
//!              ┌────────────────────────────────────────────────┐
//!              │            protocol core   [`conn`]            │
//!              │  Conn<Io> state machine · ShardCore: cache,    │
//!              │  one job table (token, waiters), completion    │
//!              │  routing, deadlines, drain, check_invariants() │
//!              └───────┬──────────────┬──────────────┬──────────┘
//!        seams:     ConnIo        HelperPort     Timers + `now`
//!              (read/writev,   (submit job;     (every Instant is
//!               corked ahead    completions      a parameter; the
//!               of sendfile     come back as     core never reads
//!               on FileRef)     plain values)    a clock)
//!              ┌───────┴──────────────┴──────────────┴──────────┐
//!   driver #1  │  the shard loop  [`server`] — a connection     │
//!              │  table, its timers, readiness, the worker      │
//!              │  set; generic over its environment (`Env`,     │
//!              │  [`driver`]), here the real kernel (`NetEnv`): │
//!              │  sockets, epoll or poll, the helper pool, the  │
//!              │  wall clock                                    │
//!              ├────────────────────────────────────────────────┤
//!   driver #2  │  MT  [`mt`] — a thread and a core per          │
//!              │  connection: blocking `read`/`write`/          │
//!              │  `sendfile`, jobs run on the thread that       │
//!              │  dispatched them, one locked cache for all     │
//!              └────────────────────────────────────────────────┘
//! ```
//!
//! Driver #1 is the production server described above; its loop only
//! moves bytes and readiness, so every behavior worth testing lives
//! below the seams. What a driver owes the core after each call, and
//! what it must never decide for itself, is written down once, in
//! [`conn`] (*The driver contract*). Driver #2 is the paper's MT
//! architecture: what it owns is threads, blocking calls and the cache
//! lock, and `tests/driver_audit.rs` keeps it to that.
//!
//! The environment is the shard's one seam, and [`driver`] names
//! everything on it. The deterministic simulator, the `flash-sim`
//! crate, is not a third driver: it runs driver #1's `shard_loop` over
//! a simulated kernel of its own through that module and nothing else.
//! `crates/net/tests/conn_machine.rs` uses the core's seams to prove
//! byte-boundary independence exhaustively.
//!
//! Module map of the AMPED side: [`config`] ([`NetConfig`], its
//! validating builder, and the one mapping to the core's
//! [`conn::ProtoConfig`]); [`server`] ([`Server`], the shard loop and
//! its real environment); [`driver`] (the shard's seam, as a driver
//! outside this crate sees it); `pool.rs` (the helper pool: job lanes, wake
//! handles, the shard's `HelperPort` with its residency test);
//! `workerset.rs` (a shard's application workers); [`stats`] (the
//! metrics registry and [`ServerStats`] over it); [`lru`] (the O(1)
//! LRU map under the content cache and the open-file table). The MT
//! side is [`mt`] and its accept loop, `accept.rs`.
//!
//! # Residency test: a helper only when the disk would block
//!
//! Flash does not hand every miss in its own caches to a helper. Its
//! main loop asks `mincore()` whether the file's pages are in memory
//! and, when they are, sends at once; helpers exist for the misses
//! that would otherwise block the loop on the disk — and most misses
//! in a server's own caches still hit the OS buffer cache. The real
//! shards do the same with the two system calls that make the test
//! *atomic with the access* ([`sys`]): when the core submits a `Load`
//! or `Revalidate` job, the shard's port first runs
//! [`fsjob::exec_job_nowait`] —
//!
//! 1. `openat2(O_RDONLY|O_NONBLOCK|O_CLOEXEC, RESOLVE_CACHED)`: the
//!    path lookup is answered by the dentry cache or fails `EAGAIN`
//!    (same symlink policy as the helper's `open`; the `.gz` sibling
//!    probe is the same call with `O_PATH`, and a cached *negative*
//!    lookup is an answer too);
//! 2. `fstat` on the open descriptor — the open-first TOCTOU rule of
//!    [`fsjob`] is kept;
//! 3. one `preadv2(RWF_NOWAIT)` of `len + 1` bytes: the page cache
//!    answers or it fails `EAGAIN`; exactly `len` back is the whole
//!    body with end of file confirmed
//!
//! — and a job answered this way is not a special case: its answer
//! joins the shard's one completion queue, where the helpers' replies
//! and the workers' frames arrive too, and the queue is applied
//! through the one `ShardCore::complete_job` (coalescing, tokens,
//! epochs and the cache insert alike) right after the drive that
//! dispatched it, before that connection's interest and deadline are
//! reconciled. An inline-served miss therefore costs no queue lock, no
//! futex wake, no context switch, no wake byte, no `epoll_ctl`, no
//! timer and no second `epoll_wait`. `inline_jobs` counts them, where
//! they are answered.
//!
//! Step 1 is remembered, and with it the response head. Flash keeps
//! three caches, not one — pathname translation, response headers,
//! mapped files (§5.2–5.4) — so that a request whose *bytes* have left
//! its content cache still skips name resolution and header rendering;
//! here each shard's environment keeps an **open-file table**
//! ([`fsjob::OpenFileTable`]): what step 1 found — the open regular
//! file, which variant it is, whether a `.gz` sibling exists — in an
//! entry-count-bounded LRU keyed like the content cache, touched by
//! the event-loop thread only. It is a **second cache tier**, asked in
//! the loop: on a content-cache miss for a key with no job in flight,
//! the core asks its port for the file held open
//! ([`conn::HelperPort::held`]) *before* it makes a job, and a held
//! file is answered like a hit, as Flash sent from its mapped files
//! (`open_file_hits` counts them): step 2 — a bare `fstat` — then
//! `cachestat(2)` in place of step 3 — it counts the file's resident
//! pages without reading one, the question `mincore` asked of a
//! mapping — and, with every page of the body resident, the descriptor
//! itself goes to `sendfile(2)`, at any size, under the header pair the
//! entry rendered at its first such answer and keeps for as long as it
//! lives. No job, token, cancel flag, job-table entry or completion is
//! made, no header is rendered, no byte is read or copied, and nothing
//! is inserted into the content cache, which only loads resolved by
//! path feed (a first touch, a name re-resolved once its TTL lapsed, a
//! helper's load); such a miss is in neither `helper_jobs` nor
//! `inline_jobs`. A first-time miss is a job, and the residency test
//! pays `openat2`, `fstat`, the sibling probe, `preadv2` and `close`
//! for it. A held body with a page out of memory is declined, and the
//! job it becomes goes to a helper. So a content-cache miss takes one
//! of two paths: the table holds the file and the loop answers it, or
//! the name is resolved by path — by the residency test or by a
//! helper; no job is ever answered from the table. The platform rule
//! is [`fsjob`]'s: before Linux 6.5, or where `cachestat` is refused,
//! a shard keeps no open-file table, and every miss resolves by path
//! (a path no benchmark workload measures on a kernel that has
//! `cachestat`). A file
//! that shrinks between the `fstat` and the `sendfile` ends its
//! connection, since its `Content-Length` is already promised — the
//! large tier's rule, now every held file's. What the table is trusted
//! for is the policy the content cache already had, not a new one:
//!
//! * the **name binding** — what `open` decided: path lookup, symlinks
//!   followed, permission checked, sibling present or not — is trusted
//!   for [`NetConfig::cache_revalidate_ttl`] since the name was last
//!   resolved by path, exactly as a content-cache hit trusts it. A
//!   held answer inserts nothing into the content cache, and every
//!   entry there comes from a load that resolved its name as it ran,
//!   so the two never add up to twice the TTL;
//! * **everything else comes from the descriptor on every use**: it
//!   must still be a regular file, still linked (`st_nlink > 0`), of
//!   the length and mtime it had when resolved — the ones its kept
//!   header advertises — and its pages resident. One method makes the
//!   check, in that order: trusted, unchanged, resident. A rewrite, a
//!   truncation, a delete or a `mv new old` therefore shows on the very
//!   next request, under a fresh `ETag` and `Last-Modified`, as it
//!   always did; any disagreement, error or `EAGAIN` drops the entry,
//!   its header with it, and declines, and the job the core then makes
//!   resolves by path.
//!
//! The table's capacity is derived, not configured: a quarter of the
//! process's soft `RLIMIT_NOFILE`, read once at start, split over the
//! shards (1024 → 256 descriptors in all; under 8 a shard has no
//! table), never raised. An entry leaves by LRU eviction, when its TTL
//! has lapsed and a later insert finds it at the LRU tail (an idle
//! entry must not pin a deleted file's blocks), on a docroot reload —
//! a SIGHUP to the *same* root drops everything too — at shard exit,
//! and when `accept4` reports `EMFILE`/`ENFILE`: cached descriptors
//! are the first thing a shard sheds (`open_files` is the gauge). An
//! entry's header pair leaves with it, however it leaves.
//! Helpers, the MT server and `Revalidate` jobs resolve by path, every
//! time.
//!
//! The test **either returns exactly what the blocking executor would
//! for a regular file, or declines**, and a declined job goes to the
//! pool as if the test had never run. It declines on:
//!
//! * `EAGAIN` from either call, or a held body that `cachestat` finds
//!   not wholly resident — the disk would block, which is what helpers
//!   are for;
//! * a read that came back short or long — a page not resident, or the
//!   file changed size after the `fstat`;
//! * anything that is not a regular file — a FIFO is opened without
//!   blocking, recognised, and dropped: it neither stalls the loop nor
//!   is answered inline;
//! * **any error at all** — missing, unreadable, a loop of symlinks.
//!   `404`/`403`/`500` are produced by the blocking executor alone, so
//!   error semantics have a single source and cannot drift;
//! * `ENOSYS`/`EINVAL`/`EPERM` — a kernel older than `openat2` (5.6),
//!   `RESOLVE_CACHED` (5.12) or `RWF_NOWAIT` (4.14), or a seccomp
//!   filter. The first one latches the test off and every job takes
//!   the helper path, exactly as before this existed; so does every
//!   job on a target whose syscall numbers [`sys`] does not list. The
//!   same answer from `cachestat` gives the shard's table up, as above;
//! * `Dynamic` jobs, always — on a shard they never get this far: its
//!   worker set takes them (*The dynamic tier*).
//!
//! There is no switch: residency is a property the server observes
//! per request, not a mode an operator picks. One caveat is the
//! filesystem's: `RESOLVE_CACHED` and `RWF_NOWAIT` promise "no I/O" on
//! local filesystems (ext4, xfs, btrfs, tmpfs); a network or FUSE
//! filesystem may revalidate a cached dentry over the wire or lack
//! non-blocking reads — the first makes `openat2` return `EAGAIN`, the
//! second `EOPNOTSUPP`, and both simply decline. Bodies above the
//! `sendfile` threshold come back as a descriptor either way; whether
//! *their* pages are resident is `sendfile(2)`'s business, as it was
//! (`cachestat` asks only of bodies the threshold would have read).
//! The MT server has no loop to protect and keeps calling the blocking
//! executor on its connection threads.
//!
//! # The send plane: one response planner, every driver
//!
//! Every response body — on either tier, from any driver — is a byte
//! window `[offset, offset + len)` over a **body source**: a cached
//! entry's bytes or an opaque file reference ([`conn::BodySource`]).
//! One pure function ([`conn::plan::plan_response`]) turns a resource
//! plus the request's conditional snapshot into a
//! [`conn::ResponsePlan`] — status, header segments, windowed source —
//! and one queuing step hands the plan to the tier machinery (gathered
//! `writev` segments, or a `sendfile` window with partial-send
//! resumption and the fairness budget). The real shards, the MT
//! server, and the deterministic sim all serve `200`/`206`/`304`/`416`
//! through this single plane; a driver implements only "send this
//! window".
//!
//! Conditional precedence (RFC 9110 §13.2.2), identical everywhere:
//!
//! | Request carries | Decision |
//! |---|---|
//! | `If-None-Match` (present at all) | Compare against the representation's `ETag` (`*` matches anything); **`If-Modified-Since` is ignored entirely** |
//! | `If-Modified-Since` only | `304` iff the validator is at least as new as the file's mtime |
//! | `Range` + `If-Range` | The range applies only if the strong validator matches (or `If-Range` is absent); otherwise the full `200` |
//! | `Range`, satisfiable | `206 Partial Content` with `Content-Range: bytes a-b/len` (`range_requests`) |
//! | `Range`, unsatisfiable | `416` with `Content-Range: bytes */len` (`range_unsatisfiable`) — the connection stays open |
//! | `Range`, malformed or multi-range | Dropped at parse time → the full `200` |
//! | *(any of the above on a dynamic-prefix path)* | **Ignored entirely** — dynamic responses have no validators and no byte-addressable representation; the full `200` streams chunked (see *The dynamic tier*) |
//!
//! `ETag`s are strong and derived from `(mtime, length)` —
//! deterministic, cheap, and they change exactly when `Last-Modified`
//! would. The gzip representation's tag appends `-gz`, so the two
//! representations never share a validator.
//!
//! **Precompressed variants**: a sibling `path + ".gz"` discovered at
//! helper open time is served to `Accept-Encoding: gzip` clients under
//! `Content-Encoding: gzip` + `Vary: Accept-Encoding`, with the
//! sibling's *own* length, mtime, and `ETag` (the headers describe the
//! bytes actually sent). The identity file is opened first even for a
//! gzip preference — a missing resource `404`s identically for every
//! client, and a sibling-only `.gz` is never served. The content cache
//! keys the two representations separately ([`cache::variant_key`]:
//! `path + "\0gz"`; NUL cannot survive path normalization, so variant
//! keys cannot collide with real paths), and each cached identity
//! entry remembers whether a sibling existed so later gzip-accepting
//! clients route without a disk probe. Tier policy — the `sendfile`
//! threshold — rides on the helper job itself
//! ([`conn::HelperJob::inline_max`]), so job executors stay
//! mechanical: the AMPED helper pool and the MT server share one real
//! filesystem executor ([`fsjob`]).
//!
//! # The dynamic tier: persistent workers, chunked streaming
//!
//! Paths under [`NetConfig::dynamic_prefix`] (builder:
//! `dynamic_prefix("/app/")`) bypass the filesystem entirely and are
//! answered by **persistent worker processes** ([`appworker`]) — the
//! paper's persistent CGI processes (§2.2, §5.6), without
//! fork-per-request: each worker is spawned once with a pipe for its
//! stdin and another for its stdout, given one request at a time, and
//! kept after a clean exchange. A worker
//! that crashes, emits garbage, says anything it was not asked for, or
//! misses its deadline is killed and discarded; the next request that
//! needs one has a replacement forked (`worker_respawns`).
//!
//! The wire protocol is deliberately tiny. Server → worker, one line:
//! `<METHOD> <path>\n`. Worker → server, a frame stream:
//!
//! ```text
//! DATA <len>\n<len bytes>     (repeated; each frame = one HTTP chunk)
//! END\n                       (clean completion)
//! ```
//!
//! EOF or a malformed frame before `END` is a crash. Each `DATA` frame
//! is relayed to the client as one `Transfer-Encoding: chunked` chunk
//! ([`flash_http::chunked`]); `END` sends the `0\r\n\r\n` terminator.
//! Because the body length is unknown when the header goes out,
//! dynamic responses carry **no `Content-Length`, no `Last-Modified`,
//! no `ETag`, and no range surface** — `If-None-Match`,
//! `If-Modified-Since`, `Range`, and `If-Range` are all ignored on a
//! dynamic path (there is no representation to validate against), and
//! `HEAD` sends the chunked header plan with zero body bytes and no
//! worker consulted. The reserved `/.flash/` paths keep precedence
//! over any dynamic prefix, including `/` itself.
//!
//! Worker silence is bounded by
//! [`NetConfig::dynamic_deadline`] (default 10 s), riding the
//! same deadline set as the other deadline classes: expiry **before
//! the first frame** yields a `504 Gateway Timeout`; expiry
//! **mid-stream** severs the connection, leaving the truncation
//! visible on the wire (no chunked terminator) — a 504 after bytes of
//! a 200 have been sent would be a lie. Either way the wedged worker
//! is killed via the helper-job cancellation token and counted in
//! `dynamic_timeouts` + `worker_respawns`.
//!
//! Both drivers serve the tier, and the core cannot tell
//! them apart: a dynamic job goes out through the [`conn::HelperPort`] and
//! comes back as streaming completions ([`conn::DynEvent`] under a
//! single job token).
//!
//! * **An event-loop shard speaks to its workers itself** — the paper's
//!   design (§5.6: the CGI process's descriptor is one more member of
//!   the `select` set, and its output is transmitted "just like static
//!   content"). Each shard owns up to [`NetConfig::helpers`] workers
//!   and speaks to each over two pipes; a worker's nonblocking reply
//!   pipe is registered with the readiness backend once, when it is
//!   forked. A warm keep-alive request is, on the one thread and with
//!   no other involved, six kernel crossings:
//!
//!   ```text
//!   wait    the client's socket is readable
//!   read    the request                        (read_calls)
//!   write   GET <path>\n to an idle worker      (worker_io_calls)
//!   wait    the worker's reply pipe is readable
//!   read    DATA <len>\n<bytes>END\n            (worker_io_calls)
//!   writev  header, chunk and terminator       (writev_calls)
//!   ```
//!
//!   No interest change: on epoll the parked connection keeps the
//!   read registration it has (on poll its entry turns hang-up-only
//!   and back, two table edits and no system call), and the chunked
//!   header is the shard's pre-rendered pair with the current `Date`
//!   spliced in, its `CRLF` and terminator segments shared, not
//!   allocated. The helper pool keeps the two calls that
//!   block — the `fork`+`exec` of a cold worker, the `kill`+`waitpid`
//!   of a retired one — so a warm request hands it nothing
//!   (`helper_jobs − inline_jobs` stays put). A set with every worker
//!   busy queues requests FIFO under the dynamic deadline, and the
//!   worker of an exchange that is cancelled — the deadline fired, the
//!   client's connection closed, or its client hung up before the
//!   worker answered (a client abort, the core's rule) — is retired at
//!   the end of the loop turn that cancelled it.
//! * **An MT connection thread runs the exchange inline**, blocking:
//!   checkout from the shared [`WorkerPool`] (a `waitpid` to skip the
//!   dead), `write` the request line, `read` frames on a 50 ms
//!   cancel-poll cadence, one `write` per queued segment to the client,
//!   check the worker back in. On each tick of a silent worker it
//!   `poll`s its client for a hang-up (timeout 0), so the same abort
//!   rule reaches it; a worker that answers within a tick answers a
//!   client that has already hung up.
//!
//! # Lifecycle: drain, signals, and generation handoff
//!
//! A production server's restarts and deploys must be non-events. The
//! lifecycle subsystem ([`lifecycle`], [`handoff`]) gives both architectures
//! a real one:
//!
//! ```text
//!            SIGTERM / drain()              last conn done
//!             (or deadline)                 (or deadline)
//!  serving ───────────────────▶ draining ───────────────────▶ exited
//!     │                            ▲
//!     │ SIGHUP / reload_docroot()  │  accepting stops, idle
//!     │ (config swaps in place,    │  keep-alives close at once,
//!     │  no connection dropped)    │  in-flight responses and
//!     └──▶ serving                 │  pipelined requests finish
//!
//!  serving ── SIGINT / stop_now() ──▶ exited   (immediate teardown)
//! ```
//!
//! | Signal    | Action                                               |
//! |-----------|------------------------------------------------------|
//! | `SIGTERM` | Drain: stop accepting, finish in-flight work, exit   |
//! | `SIGHUP`  | Reload: swap docroot + flush caches, drop no conn    |
//! | `SIGINT`  | Stop now: immediate teardown, severing connections   |
//!
//! Signals are delivered with the classic **self-pipe trick**
//! ([`lifecycle::Signals`]): an async-signal-safe handler writes the
//! signal number to a nonblocking socketpair and the orchestrator
//! (your main thread) reads it at leisure and calls
//! [`Server::drain`], [`Server::reload_docroot`], or
//! [`Server::stop_now`] — the same verbs on either architecture, each
//! written once ([`handle`]). Every loop enforces the drain deadline
//! itself — a shard in its wait, an MT connection thread on its read
//! cadence — so no thread exists only to wait out the grace.
//!
//! **Generation handoff** makes the restart itself zero-downtime: the
//! old process sends duplicates of its listening sockets
//! ([`Server::handoff_listeners`])
//! over a unix control socket with `SCM_RIGHTS`
//! ([`handoff::send_listeners`] / [`handoff::recv_listeners`], or the
//! [`handoff::HandoffControl`] rendezvous), the new process adopts
//! them with [`Server::start_inherited`] (or
//! [`Server::start_inherited_as`]),
//! and only then does the old generation drain. Because the *kernel
//! sockets* move — not just the port via a fresh `SO_REUSEPORT` bind —
//! the accept backlog survives the switch in both accept modes and no
//! SYN or queued connection is ever reset. See
//! `examples/graceful_restart.rs` for the full choreography under
//! load.
//!
//! # Observability: the flight recorder
//!
//! Every number the server knows about itself is declared once, as
//! one line of the **table of metrics** in [`stats`]: its doc, name,
//! kind, merge rule and `# HELP` string. That line generates the
//! per-shard field on [`ShardStats`], the registry descriptor
//! ([`stats::Desc`] in [`stats::REGISTRY`], or [`stats::HistDesc`]), a
//! [`ServerStats`] getter of the same name, and a slot in the plain
//! [`stats::Counts`] snapshot the deterministic sim reports. The
//! getters, the Prometheus exposition and the JSON document cannot
//! drift apart, and adding a metric is one table line. Shards write
//! with relaxed atomics on their own cache lines (no locks, no
//! contention on the request path); readers merge per-shard values on
//! demand (counters sum, `loop_stall_max_us` takes the max). The
//! [`ShardStats`] field docs say what each metric counts.
//!
//! Latency is recorded in **log-bucketed histograms**
//! ([`Histogram`]: 64 power-of-two nanosecond buckets, so a quantile
//! read off a merged snapshot is within one bucket — ≤ 2× relative
//! error — of the exact sample quantile, and bucket-wise merging of
//! per-shard snapshots equals the histogram of the merged stream).
//! Recording happens inside the sans-IO core with `Instant`s passed in
//! as parameters, so the real shards, the MT server, and the
//! deterministic sim produce the *same* histograms — the sim in
//! simulated time, bit-identical per seed, with the five
//! [`HistSummary`] digests folded into its fingerprinted report. The
//! five are `request_latency` (request parsed → final response byte
//! queued), `ttfb` (request parsed → first byte accepted by the
//! transport), `helper_wait`, `worker_wait` and `conn_lifetime`,
//! exported with `_nanos` appended.
//!
//! The `phase_*` counters and the **stall watchdog** are the direct
//! probe of the AMPED contract that the event loop never blocks: each
//! iteration's non-wait time is split across the six phases, its
//! maximum is kept in `loop_stall_max_us`, and any iteration busier
//! than the threshold (a constant 100 ms) increments
//! `loop_stalls` — a nonzero value means some phase performed blocking
//! work on the event thread.
//!
//! ## Endpoints
//!
//! With [`NetConfig::metrics_endpoint`] enabled (builder:
//! `metrics_endpoint(true)`), both architectures answer one reserved
//! path in-band on every shard, served from the counters without
//! touching cache or helpers: `GET /.flash/metrics`, the Prometheus
//! text exposition (`text/plain; version=0.0.4`) — every scalar as
//! `flash_<name> <value>` with `# HELP`/`# TYPE`, every histogram as
//! cumulative `flash_<name>_bucket{le="<nanos>"}` lines plus `_sum` and
//! `_count`. Any other path under `/.flash/` is a `404`.
//!
//! These responses count only `metrics_requests`, never `requests` —
//! scrapes don't perturb the workload numbers they report.
//!
//! ## Access log
//!
//! [`NetConfig::access_log_path`] (builder:
//! `access_log_path(path)`) turns on a structured per-response log,
//! one line per completed response in common-log field order with
//! latency and serving tier appended:
//!
//! ```text
//! host - - [unix_ts] "METHOD path" status bytes latency_us tier
//! ```
//!
//! where `tier` is `hit`, `miss`, `sendfile`, `not_modified`, or
//! `error`. The core stages records clock-free; each shard batches
//! them into a single `write_all` against an `O_APPEND` descriptor at
//! the end of its loop iteration, so concurrent shards (or MT worker
//! threads) interleave whole batches — never fragments of a line. The
//! logrotate handshake is
//! [`Server::rotate_access_logs`]
//! (typically mapped from `SIGHUP` alongside the reload): rename the
//! file, signal, and every writer reopens the configured path.
//!
//! # Quick start
//!
//! ```no_run
//! use flash_net::{NetConfig, Server};
//!
//! // NetConfig::new gives working defaults; the validating builder
//! // rejects inconsistent combinations before any socket is opened.
//! let cfg = NetConfig::builder("./public")
//!     .dynamic_prefix("/app/")
//!     .metrics_endpoint(true)
//!     .build()
//!     .unwrap();
//! let server = Server::start("127.0.0.1:8080", cfg).unwrap();
//! println!("serving on http://{}", server.addr());
//! println!("event-loop shards: {}", server.stats().per_shard().len());
//! // ... later: finish what's in flight, bounded by drain_timeout.
//! server.drain();
//! ```
//!
//! The MT comparison server is the same handle with the other
//! architecture behind it — every verb above applies unchanged:
//!
//! ```no_run
//! use flash_net::{NetConfig, Server, ServerKind};
//!
//! let mt = Server::start_as(ServerKind::Mt, "127.0.0.1:8081", NetConfig::new("./public"))
//!     .unwrap();
//! mt.drain();
//! ```
//!
//! [`ServeHandle`] is that handle as a trait with one impl, kept for
//! code that holds a server boxed — the benchmark harness and the
//! driver-parameterised batteries call
//! `handle::start(ServerKind::Amped | ServerKind::Mt, addr, cfg)` and
//! get a `Box<dyn ServeHandle>` with `local_addr` / `stats` /
//! `reload_docroot` / `drain` / `stop`.

mod accept;
pub mod appworker;
pub mod cache;
pub mod config;
pub mod conn;
pub mod driver;
pub mod event;
pub mod fsjob;
pub mod handle;
pub mod handoff;
pub mod lifecycle;
pub mod lru;
pub mod mt;
mod pool;
pub mod sendfile;
pub mod server;
pub mod sock;
pub mod stats;
pub mod sys;
pub mod timer;
mod workerset;
pub mod writev;

pub use appworker::WorkerPool;
pub use cache::{ContentCache, Entry};
pub use config::{ConfigError, NetConfig, NetConfigBuilder};
pub use conn::ShardStats;
pub use event::{BackendChoice, EventBackend};
pub use handle::{ServeHandle, Server, ServerKind};
pub use handoff::{recv_listeners, request_listeners, send_listeners, HandoffControl};
pub use lifecycle::{send_to_self, Signal, Signals};
pub use sock::AcceptMode;
pub use stats::{HistSnapshot, HistSummary, Histogram, ServerStats};
