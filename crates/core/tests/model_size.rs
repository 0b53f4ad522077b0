//! The modelled server only shrinks. `crates/core` models the paper's
//! architectures on the simulated OS, beside the shipped loop in
//! `flash-net` that actually serves, and `crates/experiments` drives it
//! through the paper's figures. ROADMAP item 10 retires the model as
//! the shipped loop takes over its figures; each step that deletes
//! model code lowers [`LANDED_AT`] (and [`DRIVERS_LANDED_AT`]) to the
//! count it lands at, and no step raises either.
//!
//! Lines are counted as `flash-net`'s `driver_audit.rs` counts them:
//! not blank, not a `//` comment, above the file's `#[cfg(test)]`
//! module.

use std::path::{Path, PathBuf};

/// Product lines of `crates/core/src` as the model last shrank: 1 440
/// before the event loop and the blocking workers shared one request
/// path (`request.rs`), 1 616 before ROADMAP item 17 moved `LruCache`
/// to `flash-net` and `FileSpec` to `flash-workload`, 1 827 before the
/// model's CGI tier went.
const LANDED_AT: usize = 1301;

/// Product lines of `crates/experiments/src`, the figure drivers, as
/// they last shrank (846 before Figures 6/7 and 9/10 shared one
/// line-up).
const DRIVERS_LANDED_AT: usize = 834;

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![dir.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

/// The code lines of one source file.
fn product_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("//"))
        .map(str::to_owned)
        .collect()
}

fn crate_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name)
}

#[test]
fn the_model_only_shrinks() {
    for (name, ratchet) in [("core", LANDED_AT), ("experiments", DRIVERS_LANDED_AT)] {
        let files = rust_files(&crate_dir(name).join("src"));
        let lines: usize = files.iter().map(|f| product_lines(f).len()).sum();
        assert!(lines > 0, "read no source of crates/{name}");
        assert!(
            lines <= ratchet,
            "crates/{name}/src grew to {lines} code lines (ratchet: {ratchet})"
        );
    }
}

/// Whether `line` holds `word` not continued by an identifier
/// character: `.path` but not `.path_len`.
fn names(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// Whether `line` reaches a cache of the set: a field access, or a
/// destructuring of `Caches`.
fn reaches_cache_field(line: &str) -> bool {
    line.contains("Caches {") || [".path", ".header", ".mmap"].iter().any(|f| names(line, f))
}

/// The §5.2–5.4 cache steps are written once, in `request.rs`: the
/// event loop and the blocking worker call them and keep only their
/// I/O discipline, and the two switches that restated other settings
/// are gone from every caller.
#[test]
fn the_cache_steps_are_written_once() {
    let src = crate_dir("core").join("src");
    for file in ["eventloop.rs", "seq.rs"] {
        let offenders: Vec<String> = product_lines(&src.join(file))
            .into_iter()
            .filter(|l| reaches_cache_field(l) || l.contains("header_gen_ns"))
            .collect();
        assert!(
            offenders.is_empty(),
            "{file} runs a cache step of its own: {offenders:#?}"
        );
    }

    // Spelled in pieces so that this file does not name them itself.
    let mincore = ["use", "_mincore"].concat();
    let header_switch = ["header", "_cache"].concat();
    let root = crate_dir("..");
    let mut offenders = Vec::new();
    for dir in ["crates/core", "crates/experiments", "tests", "examples"] {
        for file in rust_files(&root.join(dir)) {
            let text = std::fs::read_to_string(&file).unwrap();
            for (n, line) in text.lines().enumerate() {
                if names(line, &header_switch) || line.contains(&mincore) {
                    offenders.push(format!("{}:{}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "the removed ServerConfig switches are named again: {offenders:#?}"
    );
}
