//! `--worker` mode: the dynamic-tier application worker the server
//! spawns for `dynamic_small`. It answers every request line with one
//! `DATA` frame and `END` and does no other work, so what the workload
//! measures is the server's relay — checkout, frame read, chunked
//! encode, streaming completions — not an interpreter.

use std::io::{self, BufRead, Write};

use crate::workloads::worker_body;

/// Serves `<METHOD> <path>\n` request lines until EOF.
pub fn serve(mut requests: impl BufRead, mut frames: impl Write) -> io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        if requests.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let body = worker_body(path);
        let mut out = format!("DATA {}\n", body.len()).into_bytes();
        out.extend_from_slice(&body);
        out.extend_from_slice(b"END\n");
        // One write per response: the frame and its terminator reach
        // the server's helper in one read.
        frames.write_all(&out)?;
        frames.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_each_line_with_one_frame_and_end() {
        let mut out = Vec::new();
        serve(&b"GET /app/a\nGET /app/b\n"[..], &mut out).unwrap();
        let mut expect = Vec::new();
        for p in ["/app/a", "/app/b"] {
            expect.extend_from_slice(b"DATA 1024\n");
            expect.extend_from_slice(&worker_body(p));
            expect.extend_from_slice(b"END\n");
        }
        assert_eq!(out, expect);
        assert_ne!(worker_body("/app/a"), worker_body("/app/b"));
    }
}
