//! `Conn<Io>` drivers are thin, and this holds them to it by reading
//! the source, as `ffi_audit.rs` does for the foreign-function surface:
//!
//! * connection-lifecycle policy — which deadline class means what,
//!   when a waiter registration must be purged, what a close records —
//!   is `conn/shard.rs`'s alone: neither driver (`server.rs`, `sim.rs`)
//!   names a `DeadlineKind` or calls the close/expiry internals
//!   outside its tests;
//! * `server.rs` is the shard driver and nothing else: the config, the
//!   stats facade, the helper pool and the accept loop each have a
//!   module of their own;
//! * the shard's syscall counters stay honest: it accepts through the
//!   one counted wrapper (`sys::accept_nonblocking`, bumped as
//!   `accept_calls`) and sets no per-connection socket option — the
//!   listener carries them (`sock.rs`).

use std::path::Path;

/// The non-comment lines of `src/<file>` above its `#[cfg(test)]`
/// module, numbered.
fn product_lines(file: &str) -> Vec<(usize, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<(usize, String)> = text
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(n, l)| (n + 1, l.to_string()))
        .collect();
    assert!(lines.len() > 300, "read the wrong file: {path:?}");
    lines
}

fn offenders(file: &str, needles: &[&str]) -> Vec<String> {
    product_lines(file)
        .iter()
        .filter(|(_, l)| needles.iter().any(|n| l.contains(n)))
        .map(|(n, l)| format!("{file}:{n}: {}", l.trim()))
        .collect()
}

#[test]
fn drivers_decide_no_connection_lifecycle_policy() {
    const POLICY: [&str; 4] = [
        "DeadlineKind::",
        "note_close(",
        "purge_waiter(",
        "expire_dynamic_wait",
    ];
    let found = [
        offenders("server.rs", &POLICY),
        offenders("sim.rs", &POLICY),
    ]
    .concat();
    assert!(
        found.is_empty(),
        "lifecycle policy belongs in conn/shard.rs, once: {found:#?}"
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
    let found = offenders("server.rs", &MOVED);
    assert!(
        found.is_empty(),
        "these live in config.rs, stats/, pool.rs and accept.rs: {found:#?}"
    );
}

#[test]
fn the_shard_accepts_through_the_counted_wrapper_and_sets_no_option() {
    let found = offenders("server.rs", &[".accept()", "set_nodelay("]);
    assert!(
        found.is_empty(),
        "uncounted accept or per-connection option in the shard driver: {found:#?}"
    );
}
