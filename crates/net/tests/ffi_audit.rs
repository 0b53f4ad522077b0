//! The crate's foreign-function surface is one file. Two lines are
//! held here, both by reading the source:
//!
//! * a foreign *declaration* block (`extern "C" {`, with or without a
//!   leading `unsafe`) appears in `src/sys.rs` and nowhere else;
//! * every `unsafe {` block in `src/sys.rs` sits directly under a
//!   comment that says `SAFETY:`.
//!
//! A foreign-ABI function *definition* (`extern "C" fn …`) is not a
//! declaration and would be allowed anywhere; the only one the crate
//! has, the signal handler `forward_signal`, moved into `sys.rs` with
//! its registration, so no safe caller can install any other handler.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn src_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("src")
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

#[test]
fn foreign_declarations_appear_in_sys_rs_only() {
    let src = src_dir();
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(files.len() > 10, "walked the wrong directory: {src:?}");
    let mut offenders = Vec::new();
    for file in files.iter().filter(|f| **f != src.join("sys.rs")) {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if !is_comment(line) && line.contains("extern \"C\" {") {
                offenders.push(format!("{}:{}", file.display(), n + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "foreign declarations outside src/sys.rs: {offenders:#?}"
    );
}

#[test]
fn every_unsafe_block_in_sys_rs_says_why() {
    let text = std::fs::read_to_string(src_dir().join("sys.rs")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut blocks = 0;
    let mut offenders = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if is_comment(line) || !line.contains("unsafe {") {
            continue;
        }
        blocks += 1;
        // Back up to the first line of the statement the block is in
        // (rustfmt may have broken it), then over the comment above.
        let mut at = n;
        while at > 0 && !is_comment(lines[at - 1]) {
            let prev = lines[at - 1].trim_end();
            if prev.is_empty() || prev.ends_with([';', '{', '}', ',']) {
                break;
            }
            at -= 1;
        }
        let mut justified = false;
        while at > 0 && is_comment(lines[at - 1]) {
            at -= 1;
            justified |= lines[at].contains("SAFETY:");
        }
        if !justified {
            offenders.push(format!("sys.rs:{}: {}", n + 1, line.trim()));
        }
    }
    assert!(blocks > 10, "found only {blocks} unsafe blocks in sys.rs");
    assert!(
        offenders.is_empty(),
        "unsafe blocks without a `// SAFETY:` comment: {offenders:#?}"
    );
}
