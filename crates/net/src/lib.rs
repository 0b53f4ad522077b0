//! A real, runnable Flash-style web server on actual sockets — the
//! paper's AMPED architecture, sharded across modern cores.
//!
//! Two servers built from the shared `flash-http` machinery and **one
//! protocol implementation** ([`conn`]):
//!
//! * [`server::Server`] — **sharded AMPED**:
//!   `NetConfig::event_loops` independent event-loop shards (default
//!   `min(cores, 8)`), **each accepting for itself** as the first
//!   step of its own loop — no acceptor thread serializes connection
//!   setup and no cross-thread dealing hop precedes a request. The
//!   accept mode ([`NetConfig::accept_mode`], resolved by [`sock`])
//!   decides only what the shards' listener registrations stand on: in
//!   the default reuseport mode (Linux; `Auto`, overridable with
//!   `FLASH_ACCEPT_MODE=single|reuseport`) **each shard owns its own
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
//!   selected by [`NetConfig::backend`] (`Auto` = epoll on Linux,
//!   overridable with `FLASH_EVENT_BACKEND=poll|epoll`). The loop is
//!   written to the **edge-triggered contract** (see [`event`]): reads
//!   drain to `EWOULDBLOCK` or to a short read, write interest is armed
//!   only while a send is in flight, and a voluntary mid-`sendfile`
//!   yield re-arms the consumed edge. Every connection carries a **per-state deadline**
//!   in its shard's hashed **timing wheel** ([`timer`]; the paper's
//!   §6.4 slow-WAN-client concern): a header-read deadline from the
//!   first request byte ([`NetConfig::header_read_timeout`],
//!   default 15 s — slowloris senders; deliberately *not* refreshed by
//!   trickled bytes), a write-progress deadline re-armed on every byte
//!   of forward progress ([`NetConfig::write_stall_timeout`],
//!   default 30 s — stalled readers, on both the `writev` and
//!   `sendfile` paths), and the keep-alive idle timeout
//!   ([`NetConfig::idle_timeout`], default 30 s) between
//!   requests; each knob is `Option` (`None` disables that class). The
//!   wheel sets the backend's wait timeout ("next wheel tick, or
//!   block") and expires in **O(expired)** — no connection-table scan
//!   — with each cause counted separately (`read_timeouts`,
//!   `write_stall_timeouts`, `idle_reaped` in [`ServerStats`]).
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
//!   kernel page cache with `sendfile(2)` (see [`sendfile`]) — so the
//!   in-memory cache budget holds only the small-file hot set, and a
//!   multi-gigabyte response costs no userspace memory at all.
//!   Oversized entries are likewise refused at cache admission
//!   ([`cache::MAX_ENTRY_DIVISOR`]), so one huge body can never churn
//!   a shard's working set. Cached entries do not outlive the files
//!   they were rendered from: a hit older than
//!   [`NetConfig::cache_revalidate_ttl`] (default 2 s) is
//!   re-stat'ed by a helper before it is trusted — unchanged files
//!   revalidate for free (`revalidations`), changed or deleted ones
//!   are evicted and reloaded (`stale_evicted`).
//! * [`mt::MtServer`] — **MT**: thread-per-connection with blocking
//!   I/O and a shared, locked content cache, for comparison (the §3.2
//!   trade-off discussion, measurable with `cargo run --release
//!   --offline --manifest-path loadbench/Cargo.toml -- --workload
//!   cached_small_mt` against `--workload cached_small`). Not a
//!   second server: each connection thread drives the same protocol
//!   core the shards do, so the comparison is between two
//!   architectures and nothing else (`tests/differential.rs` holds
//!   the two to byte-identical answers).
//!
//! Every foreign function either server calls — `epoll`, `poll`,
//! `writev`, `sendfile`, the listener and `SCM_RIGHTS` plumbing, the
//! signal handler, `openat2`/`preadv2` — is declared in **one file**,
//! [`sys`], behind safe wrappers that carry a `// SAFETY:` note on
//! every `unsafe` block; `tests/ffi_audit.rs` fails if a declaration
//! appears anywhere else.
//!
//! Substitutions from the 1999 original (`CHANGES.md` has the history):
//! helper *threads* instead of forked processes (§3.4 permits both),
//! an application-level content cache instead of `mmap` (§5.7), the
//! `mincore` residency test in its modern spelling (see *Residency
//! test* below), and N event-loop shards instead of one process — the paper
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
//!              │  waiter lists, job tokens, completion routing, │
//!              │  deadline policy, drain · check_invariants()   │
//!              └───────┬──────────────┬──────────────┬──────────┘
//!        seams:     ConnIo        HelperPort      Wheel + `now`
//!              (read/writev/   (submit job;     (every Instant is
//!               sendfile on     completions      a parameter; the
//!               Io::FileRef)    come back as     core never reads
//!                               plain values)    a clock)
//!              ┌───────┴──────────────┴──────────────┴──────────┐
//!   driver #1  │  the shard loop  [`server`] — a connection     │
//!              │  table, a timing wheel, readiness, the worker  │
//!              │  set; generic over its environment (`Env`):    │
//!              ├───────────────────────┬────────────────────────┤
//!              │  the real kernel      │  a simulated kernel    │
//!              │  (`NetEnv`): sockets, │  [`sim`]: in-memory    │
//!              │  epoll or poll, the   │  sockets, a seeded     │
//!              │  helper pool, the     │  calendar, simulated   │
//!              │  wall clock           │  time, injected faults │
//!              ├───────────────────────┴────────────────────────┤
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
//! The deterministic sim is not a third driver: it runs driver #1's
//! `shard_loop` — the same lifecycle prologue and `Shard::turn` — over
//! a simulated kernel, replaying hundreds of thousands of connections
//! per seed in seconds of wall time. Same-seed runs are
//! **bit-identical** (the report's fingerprint folds every response
//! byte), the fault mix runs against the loop the real sockets drive,
//! and the core's invariants, the timing wheel's bound among them, are
//! checked between loop turns. `cargo run --release --example
//! sim_replay` is the CI entry point; `crates/net/tests/conn_machine.rs`
//! uses the core's seams to prove byte-boundary independence
//! exhaustively.
//!
//! Module map of the AMPED side: [`config`] ([`NetConfig`], its
//! validating builder, and the one mapping to the core's
//! [`conn::ProtoConfig`]); [`server`] ([`Server`], the shard loop and
//! its real environment); `pool.rs` (the helper pool: job lanes, wake
//! handles, the shard's `HelperPort` with its residency test);
//! `workerset.rs` (a shard's application workers); [`stats`] (the
//! metrics registry and [`ServerStats`] over it). The MT side is [`mt`]
//! and its accept loop, `accept.rs`.
//!
//! ## How to add a fault to the sim
//!
//! Faults live in the simulated kernel, never in the shard or the core
//! — the shipped loop must already survive them, that's the point:
//!
//! 1. **Add a knob** to [`sim::FaultPlan`] (a probability or
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
//!    the in-file tests so a fault that stops firing fails loudly.
//!    `ShardCore::check_invariants` runs between loop turns either way
//!    — leaked slots, stale-epoch cache inserts, orphaned deadlines or
//!    an unbounded wheel from the new fault fail the replay without
//!    further wiring.
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
//! — and a job answered this way is completed **in the loop turn that
//! dispatched it**, through the same `ShardCore::complete_job` a
//! helper's result takes (coalescing, tokens, epochs and the cache
//! insert are untouched), before the connection's interest and
//! deadline are reconciled. An inline-served miss therefore costs no
//! queue lock, no futex wake, no context switch, no wake byte, no
//! `epoll_ctl`, no timer and no second `epoll_wait`. `inline_jobs`
//! counts them.
//!
//! Step 1 is remembered. Flash keeps three caches, not one — pathname
//! translation, response headers, mapped files (§5.2–5.4) — so that a
//! request whose *bytes* have left memory still skips name resolution;
//! here each shard's port keeps an **open-file table**
//! ([`fsjob::OpenFileTable`]): what step 1 found — the open regular
//! file, which variant it is, whether a `.gz` sibling exists — in an
//! entry-count-bounded LRU keyed like the content cache, touched by
//! the event-loop thread only. A load whose name is in the table is
//! steps 2 and 3 on the descriptor already held (`open_file_hits`
//! counts them): `fstat` and `preadv2` where a first-time miss pays
//! `openat2`, `fstat`, the sibling probe, `preadv2` and `close`; a
//! body above the `sendfile` threshold is the `fstat` and a clone of
//! the handle. What the table is trusted for is the policy the content
//! cache already had, not a new one:
//!
//! * the **name binding** — what `open` decided: path lookup, symlinks
//!   followed, permission checked, sibling present or not — is trusted
//!   for [`NetConfig::cache_revalidate_ttl`] since the name was last
//!   resolved by path, exactly as a content-cache hit trusts it. A
//!   content-cache entry built through the table **inherits the table
//!   entry's resolve time** ([`conn::LoadResult::resolved_at`]), so
//!   the two never add up to twice the TTL;
//! * **everything else comes from the descriptor on every use**: it
//!   must still be a regular file, still linked (`st_nlink > 0`), of
//!   the length and mtime it had when resolved, and the `len + 1` read
//!   must meet end of file. A rewrite, a truncation, a delete or a
//!   `mv new old` therefore shows on the very next request, as it
//!   always did; any disagreement, error or `EAGAIN` drops the entry
//!   and declines, and the helper that takes the job resolves by path.
//!
//! The table's capacity is derived, not configured: a quarter of the
//! process's soft `RLIMIT_NOFILE`, read once at start, split over the
//! shards (1024 → 256 descriptors in all; under 8 a shard has no
//! table), never raised. An entry leaves by LRU eviction, when its TTL
//! has lapsed and a later insert finds it at the LRU tail (an idle
//! entry must not pin a deleted file's blocks), on a docroot reload —
//! a SIGHUP to the *same* root drops everything too — at shard exit,
//! and when `accept4` reports `EMFILE`/`ENFILE`: cached descriptors
//! are the first thing a shard sheds (`open_files` is the gauge).
//! Helpers, the MT server and `Revalidate` jobs resolve by path, every
//! time.
//!
//! The test **either returns exactly what the blocking executor would
//! for a regular file, or declines**, and a declined job goes to the
//! pool as if the test had never run. It declines on:
//!
//! * `EAGAIN` from either call — the disk would block, which is what
//!   helpers are for;
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
//!   job on a target whose syscall numbers [`sys`] does not list;
//! * a table entry that fails its per-use check (the entry is dropped
//!   with the decline);
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
//! *their* pages are resident is `sendfile(2)`'s business, as it was.
//! The MT server has no loop to protect and keeps calling the blocking
//! executor on its connection threads; the sim models the split with a
//! seeded [`sim::SimConfig::resident_fraction`].
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
//! filesystem executor ([`fsjob`]), and the sim mirrors its mechanics
//! against the in-memory file table.
//!
//! # The dynamic tier: persistent workers, chunked streaming
//!
//! Paths under [`NetConfig::dynamic_prefix`] (builder:
//! `dynamic_prefix("/app/")`) bypass the filesystem entirely and are
//! answered by **persistent worker processes** ([`appworker`]) — the
//! paper's CGI concern (§2.2, §5.6; `FileKind::Cgi` in the workload
//! model) without fork-per-request: each worker is spawned once over a
//! `socketpair(2)` (its stdin *and* stdout are the same socket), given
//! one request at a time, and kept after a clean exchange. A worker
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
//! worker consulted. The reserved `/.flash/*` endpoints keep
//! precedence over any dynamic prefix, including `/` itself.
//!
//! Worker silence is bounded by
//! [`NetConfig::dynamic_deadline`] (default 10 s), riding the
//! same timing wheel as the other deadline classes: expiry **before
//! the first frame** yields a `504 Gateway Timeout`; expiry
//! **mid-stream** severs the connection, leaving the truncation
//! visible on the wire (no chunked terminator) — a 504 after bytes of
//! a 200 have been sent would be a lie. Either way the wedged worker
//! is killed via the helper-job cancellation token and counted in
//! `dynamic_timeouts` + `worker_respawns`.
//!
//! Both drivers and the sim serve the tier, and the core cannot tell
//! them apart: a dynamic job goes out through the [`conn::HelperPort`] and
//! comes back as streaming completions ([`conn::DynEvent`] under a
//! single job token).
//!
//! * **An event-loop shard speaks to its workers itself** — the paper's
//!   design (§5.6: the CGI process's descriptor is one more member of
//!   the `select` set, and its output is transmitted "just like static
//!   content"). Each shard owns up to [`NetConfig::helpers`] workers,
//!   their non-blocking sockets registered with its readiness backend
//!   once, when they are forked. A warm keep-alive request is, on the
//!   one thread and with no other involved,
//!
//!   ```text
//!   wait    the client's socket is readable
//!   read    the request                        (read_calls)
//!   write   GET <path>\n to an idle worker      (worker_io_calls)
//!   wait    the worker's socket is readable
//!   read    DATA <len>\n<bytes>END\n            (worker_io_calls)
//!   writev  header, chunk and terminator       (writev_calls)
//!   ```
//!
//!   plus the connection's own two interest changes (`Reading` →
//!   `Waiting` → `Reading`). The helper pool keeps the two calls that
//!   block — the `fork`+`exec` of a cold worker, the `kill`+`waitpid`
//!   of a retired one — so a warm request hands it nothing
//!   (`helper_jobs − inline_jobs` stays put). A set with every worker
//!   busy queues requests FIFO under the dynamic deadline, and the
//!   worker of an exchange that is cancelled — the deadline fired, the
//!   client's connection closed — is retired at the end of the loop
//!   turn that cancelled it.
//! * **An MT connection thread runs the exchange inline**, blocking:
//!   checkout from the shared [`WorkerPool`] (a `waitpid` to skip the
//!   dead), `write` the request line, `read` frames on a 50 ms
//!   cancel-poll cadence, one `write` per queued segment to the client,
//!   check the worker back in.
//! * **The deterministic sim** runs the shard's own worker set against
//!   simulated workers that write real `DATA`/`END` frames on simulated
//!   time, after per-endpoint compute times from the workload's
//!   `FileKind::Cgi` shape — wedged, crashing and garbling workers and
//!   clients that reset mid-stream are all folded into its
//!   bit-identical fingerprint.
//!
//! # Lifecycle: drain, signals, and generation handoff
//!
//! A production server's restarts and deploys must be non-events. The
//! lifecycle subsystem ([`lifecycle`], [`handoff`]) gives both servers
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
//! [`Server::drain`](server::Server::drain),
//! [`Server::reload_docroot`](server::Server::reload_docroot), or
//! [`Server::stop_now`](server::Server::stop_now).
//!
//! **Generation handoff** makes the restart itself zero-downtime: the
//! old process sends duplicates of its listening sockets
//! ([`Server::handoff_listeners`](server::Server::handoff_listeners))
//! over a unix control socket with `SCM_RIGHTS`
//! ([`handoff::send_listeners`] / [`handoff::recv_listeners`], or the
//! [`handoff::HandoffControl`] rendezvous), the new process adopts
//! them with [`Server::start_inherited`](server::Server::start_inherited),
//! and only then does the old generation drain. Because the *kernel
//! sockets* move — not just the port via a fresh `SO_REUSEPORT` bind —
//! the accept backlog survives the switch in both accept modes and no
//! SYN or queued connection is ever reset. See
//! `examples/graceful_restart.rs` for the full choreography under
//! load.
//!
//! # Observability: the flight recorder
//!
//! Every number the server knows about itself lives in one place: the
//! metrics **registry** in [`stats`]. Each per-shard `AtomicU64` on
//! [`ShardStats`] has exactly one [`stats::Desc`] (name, kind, merge
//! rule, help), each latency histogram one [`stats::HistDesc`] — the
//! [`ServerStats`] getters, the Prometheus exposition, and the JSON
//! document all read through the same descriptors, so an exported
//! metric can never drift from its getter. Shards write with relaxed
//! atomics on their own cache lines (no locks, no contention on the
//! request path); readers merge per-shard values on demand (counters
//! sum, `loop_stall_max_us` takes the max).
//!
//! Latency is recorded in **log-bucketed histograms**
//! ([`Histogram`]: 64 power-of-two nanosecond buckets, so a quantile
//! read off a merged snapshot is within one bucket — ≤ 2× relative
//! error — of the exact sample quantile, and bucket-wise merging of
//! per-shard snapshots equals the histogram of the merged stream).
//! Recording happens inside the sans-IO core with `Instant`s passed in
//! as parameters, so the real shards, the MT server, and the
//! deterministic sim produce the *same* histograms — the sim in
//! simulated time, bit-identical per seed, with the four
//! [`HistSummary`] digests folded into its fingerprinted report.
//!
//! ## Scalar metrics
//!
//! | Metric | Kind | What it counts |
//! |---|---|---|
//! | `requests` | counter | Completed responses (any status), excluding `/.flash/` responses |
//! | `metrics_requests` | counter | Responses served by the `/.flash/*` endpoints |
//! | `accepted` | counter | Connections accepted by the shards, each from its own listener registration |
//! | `helper_jobs` | counter | Jobs dispatched through the helper port — misses and revalidations after coalescing, dynamic requests — whoever ends up executing them |
//! | `inline_jobs` | counter | The subset of `helper_jobs` the dispatching driver ran itself: misses the residency test answered in that loop turn, and dynamic exchanges on a shard's own workers; jobs handed to the pool = `helper_jobs − inline_jobs` |
//! | `open_file_hits` | counter | The subset of `inline_jobs` loads answered from a descriptor the open-file table already held: no path lookup |
//! | `open_files` | gauge | Descriptors the shards' open-file tables hold now |
//! | `cache_hits` | counter | Responses served from the content cache |
//! | `writev_calls` | counter | Gathered `writev(2)` calls on the send path |
//! | `sendfile_calls` | counter | `sendfile(2)` calls on the large-body path |
//! | `bytes_sendfile` | counter | Body bytes transmitted via `sendfile(2)` |
//! | `cache_used_bytes` | gauge | Bytes resident in the content caches |
//! | `wait_calls` / `wait_events` | counter | Readiness waits and the events they returned |
//! | `idle_reaped` | counter | Keep-alives closed by the idle deadline |
//! | `read_timeouts` | counter | Connections closed by the header-read deadline |
//! | `write_stall_timeouts` | counter | Connections closed by the write-progress deadline |
//! | `not_modified` | counter | `304 Not Modified` responses |
//! | `range_requests` | counter | Well-formed single-range requests reaching a file response |
//! | `range_unsatisfiable` | counter | Range requests answered `416 Range Not Satisfiable` |
//! | `accept_backpressure` | counter | Accept throttles (fd exhaustion / accept failure) |
//! | `revalidations` | counter | Re-stats confirming a past-TTL entry unchanged |
//! | `stale_evicted` | counter | Entries evicted because a re-stat saw them change |
//! | `helper_wait_timeouts` | counter | Waiters closed by the helper-completion deadline |
//! | `jobs_cancelled` | counter | In-flight jobs cancelled after their last waiter left |
//! | `dynamic_requests` | counter | Requests routed to the dynamic tier by the configured prefix |
//! | `worker_respawns` | counter | Workers retired (crashed, garbled, out of turn, cancelled) and replaced |
//! | `worker_io_calls` | counter | `read(2)` + `write(2)` calls the shards issued on their workers' sockets: two per warm dynamic request |
//! | `dynamic_timeouts` | counter | Dynamic requests that hit `dynamic_deadline` (504 pre-header, severed mid-stream) |
//! | `draining` | gauge | Shards currently in drain mode |
//! | `drained_conns` | counter | Connections retired by a drain |
//! | `loop_stalls` | counter | Iterations whose non-wait time reached the stall threshold (100 ms) |
//! | `loop_stall_max_us` | gauge (max) | High-water per-iteration non-wait time, µs |
//! | `phase_{wait,accept,read,respond,completions,timers}_us` | counter | Cumulative µs per event-loop phase |
//!
//! Histograms (nanoseconds): `request_latency_nanos` (request parsed →
//! final response byte queued), `ttfb_nanos` (request parsed → first
//! byte accepted by the transport), `helper_wait_nanos` (parked
//! `Waiting` → completion delivered), `conn_lifetime_nanos` (accept →
//! close, any reason), `worker_wait_nanos` (dynamic dispatch → first
//! worker frame delivered).
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
//! `metrics_endpoint(true)`), both servers answer two reserved
//! paths in-band on every shard, served from the counters without
//! touching cache or helpers:
//!
//! * `GET /.flash/metrics` — Prometheus text exposition
//!   (`text/plain; version=0.0.4`): every scalar as
//!   `flash_<name> <value>` with `# HELP`/`# TYPE`, every histogram as
//!   cumulative `flash_<name>_bucket{le="<nanos>"}` lines plus `_sum`
//!   and `_count`.
//! * `GET /.flash/stats` — the same registry as one JSON document:
//!   `{"counters": {...}, "gauges": {...}, "histograms": {"<name>":
//!   {"count", "sum_nanos", "p50_nanos", "p99_nanos"}}}`.
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
//! [`Server::rotate_access_logs`](server::Server::rotate_access_logs)
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
//! Code that only *operates* a server — batteries, lifecycle
//! harnesses, examples comparing the two architectures — can start
//! either one behind the shared [`ServeHandle`] surface instead:
//! `handle::start(ServerKind::Amped | ServerKind::Mt, addr, cfg)`
//! returns a `Box<dyn ServeHandle>` with `local_addr` / `stats` /
//! `reload_docroot` / `drain` / `stop`.

mod accept;
pub mod appworker;
pub mod cache;
pub mod config;
pub mod conn;
pub mod event;
pub mod fsjob;
pub mod handle;
pub mod handoff;
pub mod lifecycle;
pub mod mt;
mod pool;
pub mod sendfile;
pub mod server;
pub mod sim;
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
pub use event::{BackendChoice, BackendKind, EventBackend};
pub use handle::{ServeHandle, ServerKind};
pub use handoff::{recv_listeners, request_listeners, send_listeners, HandoffControl};
pub use lifecycle::{send_to_self, Signal, Signals};
pub use mt::MtServer;
pub use server::Server;
pub use sock::{AcceptMode, AcceptModeKind};
pub use stats::{HistSnapshot, HistSummary, Histogram, ServerStats};
