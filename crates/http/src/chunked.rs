//! `Transfer-Encoding: chunked` framing (RFC 9112 §7.1) for the
//! dynamic-content tier: response bodies whose length is unknown when
//! the header goes out — a CGI worker produces output incrementally —
//! are framed as hex-sized chunks and terminated with a zero-length
//! chunk, so keep-alive survives without a `Content-Length` and a
//! truncated stream (worker crash mid-body) is *detectable* by the
//! client: the terminal chunk never arrives.
//!
//! The encoder side is deliberately split into pieces ([`SizeLine`],
//! [`CRLF`], [`TERMINATOR`]) so the server can queue a worker's chunk
//! as three segments — size line, the worker's bytes zero-copy, CRLF —
//! on its gathered-`writev` path instead of reassembling a copy. The
//! two constant pieces never change, so the server holds each as one
//! shared segment per thread and queues it without allocating; only
//! the size line is made per chunk, on the stack, and copied into a
//! buffer the server reuses. [`encode`] glues them for tests and
//! one-shot callers.
//!
//! The decoder ([`ChunkedDecoder`]) is incremental byte-at-a-time —
//! feed it arbitrary splits of the wire stream and it reassembles the
//! body exactly; tests and the loopback batteries use it to prove the
//! framing round-trips on every byte boundary. Chunk extensions and
//! trailer fields are not produced by this server and are rejected on
//! decode.

use std::cell::RefCell;
use std::fmt;

use bytes::{Bytes, BytesMut};

/// The line terminator between framing elements.
pub const CRLF: &[u8] = b"\r\n";

/// The terminal frame: a zero-length chunk plus the empty trailer
/// section. Queuing this ends a chunked body cleanly.
pub const TERMINATOR: &[u8] = b"0\r\n\r\n";

/// The size line introducing one chunk of `len` bytes: lowercase hex
/// followed by CRLF. The chunk data and its trailing [`CRLF`] follow
/// as separate segments.
pub fn size_line(len: usize) -> Vec<u8> {
    SizeLine::new(len).as_bytes().to_vec()
}

thread_local! {
    /// Where [`size_line_segment`] renders size lines and splits them
    /// off: it takes its allocation back once the lines split off
    /// before have been sent and dropped.
    static SIZE_LINES: RefCell<BytesMut> = RefCell::new(BytesMut::new());
}

/// The size line of a chunk of `len` bytes as a segment of its own,
/// for a gathered write: copied into a per-thread buffer and split
/// off it, so a server that sends each chunk before the next arrives
/// allocates nothing per chunk.
pub fn size_line_segment(len: usize) -> Bytes {
    let line = SizeLine::new(len);
    SIZE_LINES.with_borrow_mut(|lines| {
        lines.extend_from_slice(line.as_bytes());
        lines.split_to(line.as_bytes().len()).freeze()
    })
}

/// A chunk's size line rendered on the stack, with no formatting
/// machinery: the caller copies it where its segment is kept.
pub struct SizeLine {
    buf: [u8; 2 * std::mem::size_of::<usize>() + 2],
    start: usize,
}

impl SizeLine {
    /// The size line of a chunk of `len` bytes.
    pub fn new(mut len: usize) -> SizeLine {
        let mut line = SizeLine {
            buf: [0; 2 * std::mem::size_of::<usize>() + 2],
            start: 2 * std::mem::size_of::<usize>(),
        };
        line.buf[line.start..].copy_from_slice(CRLF);
        loop {
            line.start -= 1;
            line.buf[line.start] = b"0123456789abcdef"[len & 0xf];
            len >>= 4;
            if len == 0 {
                return line;
            }
        }
    }

    /// The line's bytes: the hex digits and the CRLF.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// Encodes `chunks` as one contiguous chunked body, terminal frame
/// included. Zero-length chunks are skipped — a zero size line *is*
/// the terminator and must never appear mid-stream.
pub fn encode(chunks: &[&[u8]]) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len() + 16).sum();
    let mut out = Vec::with_capacity(total + TERMINATOR.len());
    for chunk in chunks {
        if chunk.is_empty() {
            continue;
        }
        out.extend_from_slice(SizeLine::new(chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(CRLF);
    }
    out.extend_from_slice(TERMINATOR);
    out
}

/// A malformed chunked stream (bad size line, missing CRLF, bytes
/// after the terminal frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedError(&'static str);

impl fmt::Display for ChunkedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed chunked body: {}", self.0)
    }
}

impl std::error::Error for ChunkedError {}

/// Where the decoder is within the framing grammar.
enum DecodeState {
    /// Accumulating the hex size (at least one digit seen iff
    /// `seen_digit`).
    Size {
        value: u64,
        seen_digit: bool,
    },
    /// Saw the CR ending a size line; LF must follow.
    SizeLf {
        value: u64,
    },
    /// Consuming `0` or more remaining data bytes of the current chunk.
    Data {
        remaining: u64,
    },
    /// Chunk data consumed; CRLF must follow.
    DataCr,
    DataLf,
    /// Terminal chunk's size line consumed; the empty trailer section
    /// (a bare CRLF) must follow.
    TrailerCr,
    TrailerLf,
    /// Terminal frame complete; any further byte is an error.
    Done,
}

/// Incremental chunked-body decoder: feed wire bytes in arbitrary
/// splits, read the reassembled body out of [`ChunkedDecoder::body`]
/// once [`ChunkedDecoder::is_done`].
pub struct ChunkedDecoder {
    state: DecodeState,
    body: Vec<u8>,
}

impl Default for ChunkedDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkedDecoder {
    pub fn new() -> ChunkedDecoder {
        ChunkedDecoder {
            state: DecodeState::Size {
                value: 0,
                seen_digit: false,
            },
            body: Vec::new(),
        }
    }

    /// Whether the terminal frame has been consumed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, DecodeState::Done)
    }

    /// The body bytes decoded so far (complete iff
    /// [`ChunkedDecoder::is_done`]).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Consumes one slice of the wire stream. An error is terminal —
    /// the decoder's state is unspecified afterwards.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), ChunkedError> {
        while !bytes.is_empty() {
            match self.state {
                DecodeState::Size {
                    mut value,
                    mut seen_digit,
                } => {
                    let b = bytes[0];
                    bytes = &bytes[1..];
                    match b {
                        b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' => {
                            let digit = (b as char).to_digit(16).unwrap() as u64;
                            value = value
                                .checked_mul(16)
                                .and_then(|v| v.checked_add(digit))
                                .ok_or(ChunkedError("chunk size overflows"))?;
                            seen_digit = true;
                            self.state = DecodeState::Size { value, seen_digit };
                        }
                        b'\r' if seen_digit => self.state = DecodeState::SizeLf { value },
                        _ => return Err(ChunkedError("bad byte in chunk size line")),
                    }
                }
                DecodeState::SizeLf { value } => {
                    if bytes[0] != b'\n' {
                        return Err(ChunkedError("size CR without LF"));
                    }
                    bytes = &bytes[1..];
                    self.state = if value == 0 {
                        DecodeState::TrailerCr
                    } else {
                        DecodeState::Data { remaining: value }
                    };
                }
                DecodeState::Data { remaining } => {
                    let take = (remaining as usize).min(bytes.len());
                    self.body.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    let left = remaining - take as u64;
                    self.state = if left == 0 {
                        DecodeState::DataCr
                    } else {
                        DecodeState::Data { remaining: left }
                    };
                }
                DecodeState::DataCr => {
                    if bytes[0] != b'\r' {
                        return Err(ChunkedError("chunk data not followed by CR"));
                    }
                    bytes = &bytes[1..];
                    self.state = DecodeState::DataLf;
                }
                DecodeState::DataLf => {
                    if bytes[0] != b'\n' {
                        return Err(ChunkedError("chunk data CR without LF"));
                    }
                    bytes = &bytes[1..];
                    self.state = DecodeState::Size {
                        value: 0,
                        seen_digit: false,
                    };
                }
                DecodeState::TrailerCr => {
                    if bytes[0] != b'\r' {
                        return Err(ChunkedError("trailer fields are not supported"));
                    }
                    bytes = &bytes[1..];
                    self.state = DecodeState::TrailerLf;
                }
                DecodeState::TrailerLf => {
                    if bytes[0] != b'\n' {
                        return Err(ChunkedError("trailer CR without LF"));
                    }
                    bytes = &bytes[1..];
                    self.state = DecodeState::Done;
                }
                DecodeState::Done => return Err(ChunkedError("bytes after the terminal frame")),
            }
        }
        Ok(())
    }

    /// Decodes a complete chunked body in one call.
    pub fn decode_all(wire: &[u8]) -> Result<Vec<u8>, ChunkedError> {
        let mut d = ChunkedDecoder::new();
        d.feed(wire)?;
        if !d.is_done() {
            return Err(ChunkedError("stream ended before the terminal frame"));
        }
        Ok(d.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* (the workspace takes no dev-deps for
    /// property tests — same idiom as the stats registry's).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn encode_of_known_chunks_matches_rfc_form() {
        let wire = encode(&[b"Wiki", b"pedia in \r\nchunks."]);
        assert_eq!(
            wire,
            b"4\r\nWiki\r\n12\r\npedia in \r\nchunks.\r\n0\r\n\r\n".to_vec()
        );
    }

    #[test]
    fn empty_body_is_just_the_terminator() {
        assert_eq!(encode(&[]), TERMINATOR.to_vec());
        assert_eq!(encode(&[b""]), TERMINATOR.to_vec());
        assert_eq!(ChunkedDecoder::decode_all(TERMINATOR).unwrap(), b"");
    }

    #[test]
    fn size_lines_are_lowercase_hex() {
        assert_eq!(size_line(10), b"a\r\n".to_vec());
        assert_eq!(size_line(255), b"ff\r\n".to_vec());
        assert_eq!(size_line(4096), b"1000\r\n".to_vec());
        assert_eq!(size_line(0), b"0\r\n".to_vec());
        assert_eq!(size_line(usize::MAX), b"ffffffffffffffff\r\n".to_vec());
        assert_eq!(&size_line_segment(4096)[..], b"1000\r\n");
        assert_eq!(&size_line_segment(10)[..], b"a\r\n");
    }

    /// Property: random chunk sequences round-trip through the
    /// encoder/decoder pair no matter where the wire stream is split —
    /// every byte boundary of every frame, in the style of the
    /// conn-machine partial-write sweeps.
    #[test]
    fn random_chunks_round_trip_across_every_byte_split() {
        let mut rng = Rng(0x5EED_C0DE);
        for round in 0..48 {
            let n_chunks = (rng.next() % 6) as usize + 1;
            let mut chunks: Vec<Vec<u8>> = Vec::new();
            for _ in 0..n_chunks {
                let len = (rng.next() % 300) as usize + 1;
                chunks.push((0..len).map(|_| rng.next() as u8).collect());
            }
            let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
            let wire = encode(&views);
            let expect: Vec<u8> = chunks.concat();

            // One-shot decode.
            assert_eq!(
                ChunkedDecoder::decode_all(&wire).unwrap(),
                expect,
                "round {round}"
            );

            // Split at a sweep of byte boundaries, including 1-byte
            // feeds through the densest framing region.
            for split in [1usize, 2, 3, 7, wire.len() / 2, wire.len() - 1] {
                let split = split.clamp(1, wire.len());
                let mut d = ChunkedDecoder::new();
                for piece in wire.chunks(split) {
                    d.feed(piece).unwrap();
                }
                assert!(d.is_done(), "round {round} split {split}");
                assert_eq!(d.body(), expect.as_slice(), "round {round} split {split}");
            }
        }
    }

    #[test]
    fn truncation_is_detectable() {
        let wire = encode(&[b"partial body"]);
        // Drop the terminal frame: the decoder must not report done.
        let cut = &wire[..wire.len() - TERMINATOR.len()];
        let mut d = ChunkedDecoder::new();
        d.feed(cut).unwrap();
        assert!(!d.is_done(), "truncated stream must not look complete");
        assert!(ChunkedDecoder::decode_all(cut).is_err());
    }

    #[test]
    fn malformed_streams_are_rejected() {
        for bad in [
            b"zz\r\nxx\r\n0\r\n\r\n".as_slice(), // non-hex size
            b"\r\n0\r\n\r\n".as_slice(),         // empty size line
            b"2\rab\r\n0\r\n\r\n".as_slice(),    // CR without LF
            b"1\r\na\r\r0\r\n\r\n".as_slice(),   // bad data terminator
            b"0\r\nX: y\r\n\r\n".as_slice(),     // trailer field
        ] {
            assert!(
                ChunkedDecoder::decode_all(bad).is_err(),
                "{:?} must be rejected",
                String::from_utf8_lossy(bad)
            );
        }
        // Bytes after the terminal frame are an error too.
        let mut d = ChunkedDecoder::new();
        d.feed(b"0\r\n\r\n").unwrap();
        assert!(d.is_done());
        assert!(d.feed(b"x").is_err());
    }
}
