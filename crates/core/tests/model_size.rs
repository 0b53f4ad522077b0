//! The modelled server only shrinks. `crates/core` models the paper's
//! architectures on the simulated OS, beside the shipped loop in
//! `flash-net` that actually serves. ROADMAP item 10 retires the model
//! as the shipped loop takes over its figures; each step that deletes
//! model code lowers [`LANDED_AT`] to the count it lands at, and no
//! step raises it.
//!
//! Lines are counted as `flash-net`'s `driver_audit.rs` counts them:
//! not blank, not a `//` comment, above the file's `#[cfg(test)]`
//! module.

use std::path::Path;

/// Product lines of `crates/core/src` as the model last shrank: 1 616
/// before ROADMAP item 17 moved `LruCache` to `flash-net` and
/// `FileSpec` to `flash-workload`, so that the model depends on the
/// shipped crates and never the reverse (1 827 before its CGI tier
/// went).
const LANDED_AT: usize = 1440;

/// The code lines of one source file.
fn product_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("//"))
        .count()
}

#[test]
fn the_model_only_shrinks() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut dirs = vec![src];
    let mut lines = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                lines += product_lines(&path);
            }
        }
    }
    assert!(lines > 0, "read no source");
    assert!(
        lines <= LANDED_AT,
        "crates/core/src grew to {lines} code lines (ratchet: {LANDED_AT})"
    );
}
