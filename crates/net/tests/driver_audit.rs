//! `Conn<Io>` drivers are thin, and this holds them to it by reading
//! the source, as `ffi_audit.rs` does for the foreign-function surface:
//!
//! * connection-lifecycle policy — which deadline class means what,
//!   when a waiter registration must be purged, what a close records,
//!   whether a hang-up aborts a parked request, which interest a state
//!   wants — is `conn/`'s alone: no driver (`server.rs`, the sim in
//!   `crates/sim`, `mt.rs`) names a `DeadlineKind` or `purge_waiter`, asks a
//!   transport whether it hung up, maps a `ConnState` to an
//!   `Interest`, or calls the close/expiry internals outside its tests;
//! * `mt.rs` is a driver, not a second server: it names nothing the
//!   protocol is made of — parser, planner, header renderer, error
//!   pages, chunked framing, cache verdicts, worker frames — and stays
//!   at or under the size it had when it became one, so the next
//!   protocol feature cannot be added to MT by hand;
//! * `server.rs` is the shard driver and nothing else: the config, the
//!   stats facade and the helper pool each have a module of their own;
//! * there is one AMPED accept path, the shard's own: no acceptor
//!   thread, no channel of dealt streams — and `accept.rs`, MT's
//!   accept loop, knows nothing of the shards;
//! * a shard speaks to its application workers and does nothing to
//!   them that blocks: the shard-side worker set names no process call
//!   (fork, kill, reap are `appworker.rs`'s, run on helper threads or
//!   at the shard's exit), and the helper pool names nothing of the
//!   exchange — it forks and reaps workers, it does not talk to them;
//! * the shard's syscall counters stay honest: every AMPED file accepts
//!   through the one counted wrapper (`sys::accept_nonblocking`, bumped
//!   as `accept_calls`) and sets no per-connection socket option — the
//!   listener carries them (`sock.rs`);
//! * there is one shard loop: the sim (`crates/sim/src/lib.rs`) is a
//!   simulated kernel under the shipped `Shard`, with no connection
//!   table, wheel, core or loop of its own, and `server.rs` reads the wall clock only through
//!   `NetEnv`'s clock — a stray read would break the sim's per-seed
//!   determinism;
//! * deadlines are cancelled at once: `timer.rs` keeps no stale entry
//!   to police — no generation, no slack, no sweep — and stays at or
//!   under the size it landed at;
//! * a shard applies every answer to a job — the residency test's, a
//!   helper's, a worker's frames — through one completion queue and
//!   one call of the core's completion path, and the driver files stay
//!   at or under the size they landed at;
//! * there is one server handle for both architectures: `handle.rs`
//!   holds `Server` and every lifecycle verb, written once, no file
//!   names the MT handle it replaced, and no thread exists only to
//!   enforce a drain deadline — the loops sever for themselves.
//! * a metric is declared once, as a line of the table in
//!   `stats/mod.rs`: no other file declares its counter, its histogram
//!   or a plain copy of it, `stats/server_stats.rs` writes no getter by
//!   hand, and the two stats files stay at or under the size they
//!   landed at.
//! * a request in flight is recorded once: one map of jobs, each
//!   holding the connections parked on it; one `Entry` head for the
//!   headers and validators of either body tier, rendered only in
//!   `cache.rs`; one staged access-log record — and the files that
//!   hold them stay at or under the size they landed at.
//! * the shipped crates do not build the model: neither `flash-net`
//!   nor `flash-workload` depends on `flash-core` or `flash-simos`, or
//!   names either in its source — the arrows point from the model to
//!   the shipped crates — and `flash-net` depends on `flash-http` and
//!   `bytes` alone: the simulator, its clock and its workloads are
//!   `flash-sim`'s.
//! * `NetConfig` is the one thing that configures the server: no
//!   product line of `flash-net` reads the process environment.

use std::path::Path;

/// The code lines of `src/<file>` — not blank, not a comment, above
/// its `#[cfg(test)]` module — numbered. Fewer than `floor` of them
/// means the wrong file was read.
fn product_lines(file: &str, floor: usize) -> Vec<(usize, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<(usize, String)> = text
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with("//"))
        .map(|(n, l)| (n + 1, l.to_string()))
        .collect();
    assert!(lines.len() > floor, "read the wrong file: {path:?}");
    lines
}

/// The drivers, each with the least code it can plausibly have.
const SERVER: (&str, usize) = ("server.rs", 600);
/// The sim drives the shard from a crate of its own, `flash-sim`.
const SIM: (&str, usize) = ("../../sim/src/lib.rs", 600);
const MT: (&str, usize) = ("mt.rs", 250);
const ACCEPT: (&str, usize) = ("accept.rs", 30);
const POOL: (&str, usize) = ("pool.rs", 100);
const WORKERSET: (&str, usize) = ("workerset.rs", 100);
const TIMER: (&str, usize) = ("timer.rs", 40);
const HANDLE: (&str, usize) = ("handle.rs", 100);
/// What a connection passes through on its way into a shard.
const AMPED: [(&str, usize); 5] = [
    SERVER,
    POOL,
    WORKERSET,
    ("conn/shard.rs", 300),
    ("conn/machine.rs", 200),
];

fn offenders((file, floor): (&str, usize), needles: &[&str]) -> Vec<String> {
    product_lines(file, floor)
        .iter()
        .filter(|(_, l)| needles.iter().any(|n| l.contains(n)))
        .map(|(n, l)| format!("{file}:{n}: {}", l.trim()))
        .collect()
}

#[test]
fn drivers_decide_no_connection_lifecycle_policy() {
    // `.hung_up()`: a driver notes a hang-up on the transport; asking
    // it back is deciding what it means — the abort rule is the core's.
    const POLICY: [&str; 5] = [
        "DeadlineKind::",
        "note_close(",
        "purge_waiter",
        "expire_dynamic_wait",
        ".hung_up()",
    ];
    let found = [
        offenders(SERVER, &POLICY),
        offenders(SIM, &POLICY),
        offenders(MT, &POLICY),
    ]
    .concat();
    assert!(
        found.is_empty(),
        "lifecycle policy belongs in conn/shard.rs, once: {found:#?}"
    );
}

/// Which interest a connection's state wants — parked ones included,
/// per backend — is `desired_interest`'s, in `conn/machine.rs`: no
/// driver line names a `ConnState::` within three lines of an
/// `Interest::`.
#[test]
fn drivers_map_no_state_to_an_interest() {
    let mut found = Vec::new();
    for (file, floor) in [SERVER, SIM, MT] {
        let lines = product_lines(file, floor);
        for (i, (n, line)) in lines.iter().enumerate() {
            let near = &lines[i.saturating_sub(3)..(i + 4).min(lines.len())];
            if line.contains("ConnState::") && near.iter().any(|(_, l)| l.contains("Interest::")) {
                found.push(format!("{file}:{n}: {}", line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "the state-to-interest map is desired_interest's, once: {found:#?}"
    );
}

#[test]
fn server_rs_is_the_shard_driver_only() {
    const MOVED: [&str; 5] = [
        "struct NetConfig",
        "struct ServerStats",
        "struct JobQueue",
        "fn run_accept_loop",
        "struct Server",
    ];
    let found = offenders(SERVER, &MOVED);
    assert!(
        found.is_empty(),
        "these live in config.rs, stats/, pool.rs, accept.rs and handle.rs: {found:#?}"
    );
}

#[test]
fn shards_accept_for_themselves_and_accept_rs_is_mts_alone() {
    const ACCEPTOR: [&str; 4] = [
        "Receiver<TcpStream>",
        "ShardDealer",
        "\"flash-acceptor\"",
        "acceptor_",
    ];
    const SHARDS: [&str; 3] = ["ShardStats", "WakeHandle", "crate::pool"];
    let found = [offenders(SERVER, &ACCEPTOR), offenders(ACCEPT, &SHARDS)].concat();
    assert!(found.is_empty(), "a second AMPED accept path: {found:#?}");
}

#[test]
fn the_shard_accepts_through_the_counted_wrapper_and_sets_no_option() {
    const PER_CONN: [&str; 3] = [".accept()", "set_nodelay(", "set_nonblocking("];
    let found: Vec<String> = AMPED
        .iter()
        .flat_map(|&file| offenders(file, &PER_CONN))
        // Once per shard, at start: the read end of its wake pipe.
        .filter(|l| !l.ends_with("wake_rx.set_nonblocking(true)?;"))
        .collect();
    assert!(
        found.is_empty(),
        "uncounted accept or per-connection option on an AMPED path: {found:#?}"
    );
}

#[test]
fn the_loop_talks_to_workers_and_the_pool_forks_and_reaps_them() {
    const PROCESS: [&str; 5] = ["Command::", ".spawn(", ".kill(", ".wait(", "try_wait("];
    const EXCHANGE: [&str; 3] = ["run_job", "run_exchange", "DynEvent"];
    let found = [offenders(WORKERSET, &PROCESS), offenders(POOL, &EXCHANGE)].concat();
    assert!(
        found.is_empty(),
        "a blocking process call on the loop, or the exchange back on a helper: {found:#?}"
    );
}

#[test]
fn mt_is_a_driver_not_a_second_server() {
    const PROTOCOL: [&str; 11] = [
        "plan_response(",
        "RequestParser",
        "ParseStatus::",
        "ResponseHeader::",
        "error_body(",
        "chunked::",
        "Lookup::",
        "Entry::build",
        "header_pair(",
        "parse_data_header(",
        "FrameReader",
    ];
    let found = offenders(MT, &PROTOCOL);
    assert!(
        found.is_empty(),
        "protocol belongs in conn/ (and appworker.rs), once: {found:#?}"
    );
    // The size it has as a driver (it was 794 as a server, landed at
    // 431 with a trait impl where the accept closure is now, and at 318
    // when its handle, lifecycle verbs and drain watchdog went to the
    // one `Server`). What is MT's own — threads, blocking calls, the
    // cache lock — is all there; anything that grows it is most likely
    // the core's or the handle's.
    const LANDED_AT: usize = 318;
    let lines = product_lines(MT.0, MT.1).len();
    assert!(
        lines <= LANDED_AT,
        "mt.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn the_sim_is_a_kernel_under_the_shipped_loop() {
    const LOOP: [&str; 10] = [
        "fn admit",
        "fn drive",
        "fn reconcile",
        "fn expire",
        "fn pump_timers",
        "TimerWheel",
        "ShardCore",
        "drive_conn(",
        "complete_job(",
        "expire_conn(",
    ];
    let found = offenders(SIM, &LOOP);
    assert!(
        found.is_empty(),
        "a second event loop in the sim: {found:#?}"
    );
}

#[test]
fn server_rs_reads_the_wall_clock_only_through_net_env() {
    let lines = product_lines(SERVER.0, SERVER.1);
    let reads: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].1.contains("Instant::now()"))
        .collect();
    let clock = reads.len() == 1
        && reads[0] >= 2
        && lines[reads[0] - 1].1.trim() == "fn clock() -> Instant {"
        && lines[reads[0] - 2].1.trim() == "impl NetEnv {";
    let reads: Vec<_> = reads.iter().map(|&i| &lines[i]).collect();
    assert!(clock, "Instant::now() outside NetEnv's clock: {reads:#?}");
}

#[test]
fn timers_are_cancelled_at_once_and_stay_small() {
    // What lazy cancellation needs and eager cancellation never makes.
    const LAZY: [&str; 4] = ["STALE", "stale", "gen:", "generation"];
    let found = offenders(TIMER, &LAZY);
    assert!(
        found.is_empty(),
        "lazy cancellation is back in timer.rs: {found:#?}"
    );
    const LANDED_AT: usize = 75;
    let lines = product_lines(TIMER.0, TIMER.1).len();
    assert!(
        lines <= LANDED_AT,
        "timer.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn a_shard_applies_every_answer_in_one_place() {
    let applied = offenders(SERVER, &["complete_job("]);
    assert_eq!(
        applied.len(),
        1,
        "one completion path, applied once (Shard::settle): {applied:#?}"
    );
    // The side queues the one completion queue replaced.
    let found: Vec<String> = AMPED
        .iter()
        .flat_map(|&file| offenders(file, &["inline_done", "outbox"]))
        .collect();
    assert!(found.is_empty(), "a second completion queue: {found:#?}");
    // The three files the shard's completions pass through, as they
    // landed with one queue (1 175 before it; 1 156 until the server
    // handle left server.rs).
    const LANDED_AT: usize = 1004;
    let lines: usize = [SERVER, POOL, WORKERSET]
        .map(|file| product_lines(file.0, file.1).len())
        .iter()
        .sum();
    assert!(
        lines <= LANDED_AT,
        "server.rs + pool.rs + workerset.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn one_server_handle_for_both_architectures() {
    // The old MT handle's name, in two halves so this file does not
    // name it either.
    let old_handle = concat!("Mt", "Server");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut named = Vec::new();
    let mut drain_for = Vec::new();
    let mut dirs = vec![src.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for (n, line) in text.lines().enumerate() {
                let at = format!("{}:{}", path.strip_prefix(&src).unwrap().display(), n + 1);
                if line.contains(old_handle) {
                    named.push(at.clone());
                }
                if line.contains("fn drain_for(") {
                    drain_for.push(at);
                }
            }
        }
    }
    assert!(
        named.is_empty(),
        "the second server handle is back: {named:#?}"
    );
    assert_eq!(
        drain_for.len(),
        1,
        "each lifecycle verb is written once (handle.rs): {drain_for:#?}"
    );
    // A watchdog waits out the grace on a channel; MT's connection
    // threads sever themselves at the deadline instead.
    let watchdog = offenders(MT, &["recv_timeout", "thread::spawn("]);
    assert!(
        watchdog.is_empty(),
        "a drain watchdog in mt.rs: {watchdog:#?}"
    );
    const LANDED_AT: usize = 229;
    let lines = product_lines(HANDLE.0, HANDLE.1).len();
    assert!(
        lines <= LANDED_AT,
        "handle.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn a_metric_is_declared_once() {
    use flash_net::stats::{HIST_REGISTRY, REGISTRY};
    let scalars = REGISTRY.iter().map(|d| d.name);
    let hists = HIST_REGISTRY
        .iter()
        .map(|h| h.name.strip_suffix("_nanos").unwrap());
    let names: Vec<&str> = scalars.chain(hists).collect();
    // A field of a per-shard counter, or of a copy of one.
    let mut fields: Vec<String> = [": AtomicU64", ": Histogram", ": HistSummary"]
        .map(String::from)
        .to_vec();
    fields.extend(names.iter().map(|n| format!("pub {n}: u64")));
    let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
    let getters: Vec<String> = names.iter().map(|n| format!("pub fn {n}(")).collect();
    let getters: Vec<&str> = getters.iter().map(String::as_str).collect();
    const STATS: (&str, usize) = ("stats/mod.rs", 150);
    const SERVER_STATS: (&str, usize) = ("stats/server_stats.rs", 10);
    let found = [
        offenders(("conn/mod.rs", 50), &fields),
        offenders(SIM, &fields),
        offenders(SERVER_STATS, &getters),
    ]
    .concat();
    assert!(
        found.is_empty(),
        "a metric declared outside the table in stats/mod.rs: {found:#?}"
    );
    // The table and what it generates, as they landed (552 lines
    // before: four declarations of every metric), less the staged
    // log record's own type, which went when the log record was
    // staged as itself.
    const LANDED_AT: usize = 458;
    let lines: usize = [STATS, SERVER_STATS]
        .map(|file| product_lines(file.0, file.1).len())
        .iter()
        .sum();
    assert!(
        lines <= LANDED_AT,
        "stats/mod.rs + stats/server_stats.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn a_request_in_flight_is_held_once() {
    const CONN: [(&str, usize); 4] = [
        ("conn/mod.rs", 50),
        ("conn/machine.rs", 200),
        ("conn/plan.rs", 100),
        ("conn/shard.rs", 300),
    ];
    // A second map keyed like the jobs, a loose copy of a header or a
    // validator beside an `Entry`, a log record staged as another type.
    const TWICE: [&str; 4] = [
        "waiters: HashMap",
        "header_keep",
        "header_close",
        "PendingLog",
    ];
    let found: Vec<String> = CONN
        .iter()
        .flat_map(|&file| offenders(file, &TWICE))
        .collect();
    assert!(
        found.is_empty(),
        "a fact about a request in flight is held twice: {found:#?}"
    );
    // The plain-200 header pair is rendered in one place, for both
    // body tiers (`Entry::head`).
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut rendered = Vec::new();
    let mut dirs = vec![src.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let name = path.strip_prefix(&src).unwrap().display().to_string();
            let text = std::fs::read_to_string(&path).unwrap();
            if name != "cache.rs" && text.contains("header_pair(") {
                rendered.push(name);
            }
        }
    }
    assert!(
        rendered.is_empty(),
        "the header pair is rendered outside cache.rs: {rendered:#?}"
    );
    // The three files a request in flight is held in, as they landed
    // (1 361 lines before: two job maps, three copies of the head).
    const LANDED_AT: usize = 1266;
    let lines: usize = [
        ("conn/shard.rs", 300),
        ("conn/plan.rs", 100),
        ("cache.rs", 100),
    ]
    .map(|file| product_lines(file.0, file.1).len())
    .iter()
    .sum();
    assert!(
        lines <= LANDED_AT,
        "conn/shard.rs + conn/plan.rs + cache.rs grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}

#[test]
fn the_shipped_crates_do_not_build_the_model() {
    const MODEL: [&str; 2] = ["flash-core", "flash-simos"];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut found = Vec::new();
    for krate in ["net", "workload"] {
        let manifest = crates.join(krate).join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let deps: Vec<&str> = text
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .collect();
        assert!(
            deps.iter().any(|l| l.starts_with("flash-")),
            "read no [dependencies] table: {manifest:?}"
        );
        if krate == "net" {
            let mut names: Vec<&str> = deps
                .iter()
                .map(|l| l.trim())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| l.split(['.', ' ', '=']).next().unwrap())
                .collect();
            names.sort_unstable();
            assert_eq!(
                names,
                ["bytes", "flash-http"],
                "flash-net builds the server and nothing else: {manifest:?}"
            );
        }
        found.extend(
            deps.iter()
                .filter(|l| MODEL.iter().any(|m| l.trim_start().starts_with(m)))
                .map(|l| format!("{krate}/Cargo.toml: {}", l.trim())),
        );
        let mut dirs = vec![crates.join(krate).join("src")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                found.extend(
                    text.lines()
                        .enumerate()
                        .filter(|(_, l)| l.contains("flash_core") || l.contains("flash_simos"))
                        .map(|(n, l)| {
                            let file = path.strip_prefix(crates).unwrap().display();
                            format!("{file}:{}: {}", n + 1, l.trim())
                        }),
                );
            }
        }
    }
    assert!(
        found.is_empty(),
        "a shipped crate builds the model: {found:#?}"
    );
}

/// `NetConfig` is the one thing that configures the server: no line of
/// the shipped crate reads the process environment, so no setting can
/// take effect that the config does not show.
#[test]
fn the_environment_does_not_configure_the_server() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut dirs = vec![src.clone()];
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let file = path.strip_prefix(&src).unwrap().to_str().unwrap();
            found.extend(offenders((file, 0), &["env::var", "std::env"]));
        }
    }
    assert!(
        found.is_empty(),
        "read from the environment:\n{}",
        found.join("\n")
    );
}
