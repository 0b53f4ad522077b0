//! The worker wire protocol under hostile input, through the one
//! parser both drivers read it with ([`FrameParser`], sans-IO): how a
//! byte stream is cut into reads never shows in the frames it yields,
//! and everything that is not the protocol is `Corrupt`, once and for
//! good. End of stream is not the parser's to see — a driver that
//! reads EOF before an `END` has a crashed worker — so the two EOF rows
//! below assert what the parser had said by then: no `END`, and
//! nothing of the frame that was cut.

use flash_net::appworker::{Frame, FrameParser, MAX_FRAME, MAX_LINE};
use proptest::prelude::*;

/// Every frame `stream` yields when it arrives in reads of the given
/// sizes (cycled; the empty list means one read), up to and including
/// the first `Corrupt`.
fn frames(stream: &[u8], reads: &[usize]) -> Vec<Frame> {
    let mut parser = FrameParser::default();
    let mut out = Vec::new();
    let mut sizes = reads.iter().copied().cycle();
    let mut rest = stream;
    while !rest.is_empty() {
        let n = sizes.next().unwrap_or(rest.len()).clamp(1, rest.len());
        parser.push(&rest[..n]);
        rest = &rest[n..];
        while let Some(frame) = parser.pop() {
            let corrupt = frame == Frame::Corrupt;
            out.push(frame);
            if corrupt {
                return out;
            }
        }
    }
    out
}

fn data(body: &[u8]) -> Frame {
    Frame::Data(body.to_vec())
}

#[test]
fn a_table_of_streams() {
    // A header line of exactly `n` bytes: the length may be padded.
    let padded = |n: usize| format!("DATA {:>w$}\nxEND\n", 1, w = n - 5).into_bytes();
    let rows: Vec<(&str, Vec<u8>, Vec<Frame>)> = vec![
        (
            "two frames and the end",
            b"DATA 5\nhelloDATA 1\n!END\n".to_vec(),
            vec![data(b"hello"), data(b"!"), Frame::End],
        ),
        ("garbage", b"WAT\n".to_vec(), vec![Frame::Corrupt]),
        (
            "a lower-case header is garbage too",
            b"data 1\nx".to_vec(),
            vec![Frame::Corrupt],
        ),
        (
            "a length that is not a number",
            b"DATA five\nhello".to_vec(),
            vec![Frame::Corrupt],
        ),
        (
            "a negative length",
            b"DATA -1\n".to_vec(),
            vec![Frame::Corrupt],
        ),
        (
            "a length past MAX_FRAME is not an allocation request",
            format!("DATA {}\n", MAX_FRAME + 1).into_bytes(),
            vec![Frame::Corrupt],
        ),
        (
            "a length that overflows",
            b"DATA 99999999999999999999999999\n".to_vec(),
            vec![Frame::Corrupt],
        ),
        (
            "a 4096-byte line is still a line",
            padded(MAX_LINE),
            vec![data(b"x"), Frame::End],
        ),
        (
            "a 4097-byte line",
            padded(MAX_LINE + 1),
            vec![Frame::Corrupt],
        ),
        (
            "4097 bytes and no newline yet",
            vec![b'D'; MAX_LINE + 1],
            vec![Frame::Corrupt],
        ),
        ("EOF mid-header", b"DATA 1".to_vec(), vec![]),
        (
            "EOF mid-payload",
            b"DATA 1\nxDATA 10\nabc".to_vec(),
            vec![data(b"x")],
        ),
        (
            "END inside a payload is payload",
            b"DATA 8\nEND\nEND\nEND\n".to_vec(),
            vec![data(b"END\nEND\n"), Frame::End],
        ),
        (
            "a zero-length DATA",
            b"DATA 0\nDATA 0\nEND\n".to_vec(),
            vec![data(b""), data(b""), Frame::End],
        ),
        (
            "frames behind a corrupt one are never read",
            b"DATA 1\nxNOPE\nDATA 1\nyEND\n".to_vec(),
            vec![data(b"x"), Frame::Corrupt],
        ),
    ];
    for (what, stream, want) in rows {
        assert_eq!(frames(&stream, &[]), want, "{what}: whole");
        assert_eq!(frames(&stream, &[1]), want, "{what}: a byte a read");
        assert_eq!(frames(&stream, &[3, 1, 7]), want, "{what}: 3, 1, 7");
    }
}

/// `Corrupt` is final, and what is buffered behind an `END` is there
/// to be asked about — it is why such a worker is retired.
#[test]
fn corrupt_is_sticky_and_leftover_is_visible() {
    let mut parser = FrameParser::default();
    parser.push(b"WAT\nEND\n");
    assert_eq!(parser.pop(), Some(Frame::Corrupt));
    parser.push(b"END\n");
    assert_eq!(parser.pop(), Some(Frame::Corrupt));

    let mut parser = FrameParser::default();
    parser.push(b"END\n");
    assert_eq!(parser.pop(), Some(Frame::End));
    assert!(!parser.has_leftover());

    let mut parser = FrameParser::default();
    parser.push(b"END\nDATA 1\nx");
    assert_eq!(parser.pop(), Some(Frame::End));
    assert!(parser.has_leftover(), "a worker talking out of turn");
}

/// One piece of a stream: a well-formed frame, an `END`, or noise.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|body| {
            let mut frame = format!("DATA {}\n", body.len()).into_bytes();
            frame.extend_from_slice(&body);
            frame
        }),
        any::<u8>().prop_map(|_| b"END\n".to_vec()),
        proptest::collection::vec(any::<u8>(), 0..12),
    ]
}

proptest! {
    /// Any stream, cut into reads any way, yields the frames it yields
    /// when it arrives whole.
    #[test]
    fn every_split_reads_the_same(
        pieces in proptest::collection::vec(piece(), 0..12),
        reads in proptest::collection::vec(1usize..24, 1..8),
    ) {
        let stream = pieces.concat();
        prop_assert_eq!(frames(&stream, &reads), frames(&stream, &[]));
    }
}
