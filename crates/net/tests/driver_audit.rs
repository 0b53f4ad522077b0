//! `Conn<Io>` drivers are thin, and this holds them to it by reading
//! the source, as `ffi_audit.rs` does for the foreign-function surface:
//!
//! * connection-lifecycle policy — which deadline class means what,
//!   when a waiter registration must be purged, what a close records,
//!   whether a hang-up aborts a parked request, which interest a state
//!   wants — is `conn/`'s alone: no driver (`server.rs`, `sim.rs`,
//!   `mt.rs`) names a `DeadlineKind` or `purge_waiter`, asks a
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
//! * there is one shard loop: `sim.rs` is a simulated kernel under the
//!   shipped `Shard`, with no connection table, wheel, core or loop of
//!   its own, and `server.rs` reads the wall clock only through
//!   `NetEnv`'s clock — a stray read would break the sim's per-seed
//!   determinism;
//! * deadlines are cancelled at once: `timer.rs` keeps no stale entry
//!   to police — no generation, no slack, no sweep — and stays at or
//!   under the size it landed at.

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
const SIM: (&str, usize) = ("sim.rs", 600);
const MT: (&str, usize) = ("mt.rs", 250);
const ACCEPT: (&str, usize) = ("accept.rs", 30);
const POOL: (&str, usize) = ("pool.rs", 100);
const WORKERSET: (&str, usize) = ("workerset.rs", 100);
const TIMER: (&str, usize) = ("timer.rs", 40);
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
    const MOVED: [&str; 4] = [
        "struct NetConfig",
        "struct ServerStats",
        "struct JobQueue",
        "fn run_accept_loop",
    ];
    let found = offenders(SERVER, &MOVED);
    assert!(
        found.is_empty(),
        "these live in config.rs, stats/, pool.rs and accept.rs: {found:#?}"
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
    // The size it has as a driver (it was 794 as a server, and landed
    // at 431 with a trait impl where the accept closure is now). What
    // is MT's own — threads, blocking calls, the cache lock, the
    // lifecycle shell — is all there; anything that grows it is most
    // likely the core's.
    const LANDED_AT: usize = 419;
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
