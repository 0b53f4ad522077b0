//! Hostile input for the request parser: repeated and conflicting
//! fields, bare-LF and folded lines, encoded traversal, header blocks
//! at the size bound, bytes that are not UTF-8, and a pipelined pair
//! cut at every byte. Every case is a request a client can send; the
//! parser must answer each the same way however it arrives.

use flash_http::request::{ParseError, ParseStatus, RequestParser, MAX_HEADER_BYTES};

/// The path and `Host` of a request that parsed, owned.
type Seen = (String, Option<String>);

/// Feeds `raw` in one piece to a fresh parser: the request, or the
/// error (`None`: incomplete).
fn parse(raw: &[u8]) -> Result<Seen, Option<ParseError>> {
    let mut p = RequestParser::new();
    match p.feed(raw) {
        ParseStatus::Done(r) => Ok((r.path.to_string(), r.host.as_deref().map(str::to_string))),
        ParseStatus::Incomplete => Err(None),
        ParseStatus::Error(e) => Err(Some(e)),
    }
}

fn error(raw: &[u8]) -> ParseError {
    match parse(raw) {
        Err(Some(e)) => e,
        other => panic!(
            "{:?}: expected an error, got {other:?}",
            String::from_utf8_lossy(raw)
        ),
    }
}

fn path(raw: &[u8]) -> String {
    match parse(raw) {
        Ok((path, _)) => path,
        other => panic!(
            "{:?}: expected a request, got {other:?}",
            String::from_utf8_lossy(raw)
        ),
    }
}

/// Everything `p` can parse out of what it holds, and whether it ended
/// on an error.
fn drain(p: &mut RequestParser, bytes: &[u8], out: &mut Vec<Seen>) -> bool {
    let mut input = bytes;
    loop {
        match p.feed(input) {
            ParseStatus::Done(r) => {
                out.push((r.path.to_string(), r.host.as_deref().map(str::to_string)));
            }
            ParseStatus::Incomplete => return false,
            ParseStatus::Error(_) => return true,
        }
        input = &[];
    }
}

#[test]
fn a_repeated_field_is_refused_or_read_as_its_framing_demands() {
    // A second Host, in any case: which one names the site is
    // ambiguous, so neither does.
    for second in ["Host: b", "host: a", "HOST:a"] {
        let raw = format!("GET / HTTP/1.1\r\nHost: a\r\n{second}\r\n\r\n");
        assert_eq!(error(raw.as_bytes()), ParseError::BadHeader, "{second}");
    }
    // Conflicting lengths on a GET: any nonzero one declares a body.
    for pair in [
        "Content-Length: 0\r\nContent-Length: 5",
        "Content-Length: 5\r\nContent-Length: 0",
        "Content-Length: 0\r\nTransfer-Encoding: chunked",
    ] {
        let raw = format!("GET /x HTTP/1.1\r\nHost: a\r\n{pair}\r\n\r\n");
        assert_eq!(error(raw.as_bytes()), ParseError::UnexpectedBody, "{pair}");
    }
    // Two agreeing zero lengths declare no body.
    let raw = b"GET /x HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 0\r\n\r\n";
    assert_eq!(path(raw), "/x");
    // A close among repeated Connection fields closes; field names
    // match in any case.
    let mut p = RequestParser::new();
    let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\nCONNECTION: Close\r\n\r\n";
    match p.feed(raw) {
        ParseStatus::Done(r) => assert!(!r.keep_alive()),
        other => panic!("{other:?}"),
    }
    let raw = b"GET / HTTP/1.0\r\ncOnNeCtIoN: Keep-Alive\r\n\r\n";
    match p.feed(raw) {
        ParseStatus::Done(r) => assert!(r.keep_alive()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn bare_lf_lines_parse_and_folded_lines_are_refused() {
    let seen = parse(b"GET /lf HTTP/1.1\nHost: h\n\n").unwrap();
    assert_eq!(seen, ("/lf".to_string(), Some("h".to_string())));
    // A header ended by LF alone, the block by CRLF CRLF.
    let seen = parse(b"GET /mixed HTTP/1.1\r\nX-A: 1\nHost: h\r\n\r\n").unwrap();
    assert_eq!(seen, ("/mixed".to_string(), Some("h".to_string())));
    // obs-fold (RFC 9112 §5.2): a continuation line is no field.
    for fold in [" folded", "\tfolded", " X-B: 2"] {
        let raw = format!("GET / HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n{fold}\r\n\r\n");
        assert_eq!(error(raw.as_bytes()), ParseError::BadHeader, "{fold:?}");
    }
}

#[test]
fn encoded_dot_segments_and_slashes_are_decoded_before_normalising() {
    for (target, want) in [
        ("/a/%2e%2e/b", "/b"),
        ("/a/%2E%2E/b", "/b"),
        ("/a/.%2e/b", "/b"),
        ("/a/%2e/b", "/a/b"),
        ("/a%2fb", "/a/b"),
        ("/a%2Fb%2f", "/a/b/"),
        ("/a/b%2f..%2fc", "/a/c"),
        ("/%2e%2e.html", "/...html"),
    ] {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        assert_eq!(path(raw.as_bytes()), want, "{target}");
    }
    for target in [
        "/%2e%2e/etc/passwd",
        "/%2E%2E%2Fetc%2Fpasswd",
        "/a/..%2f..%2fx",
        "/a/%2e%2e%2f%2e%2e/x",
        "/%2e%2e",
    ] {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        assert_eq!(error(raw.as_bytes()), ParseError::PathTraversal, "{target}");
    }
}

/// A request whose whole header block, blank line included, is `len`
/// bytes.
fn block_of(len: usize) -> Vec<u8> {
    let head = b"GET /big HTTP/1.1\r\nX-Fill: ";
    let tail = b"\r\n\r\n";
    let mut raw = head.to_vec();
    raw.resize(len - tail.len(), b'f');
    raw.extend_from_slice(tail);
    assert_eq!(raw.len(), len);
    raw
}

#[test]
fn a_header_block_at_the_bound_parses_and_one_byte_more_does_not() {
    for len in [MAX_HEADER_BYTES - 1, MAX_HEADER_BYTES] {
        assert_eq!(path(&block_of(len)), "/big", "{len} bytes");
        // Split anywhere, the same.
        let raw = block_of(len);
        for cut in [1, len / 2, len - 1] {
            let mut p = RequestParser::new();
            let mut seen = Vec::new();
            assert!(!drain(&mut p, &raw[..cut], &mut seen));
            assert!(!drain(&mut p, &raw[cut..], &mut seen));
            assert_eq!(seen.len(), 1, "{len} bytes cut at {cut}");
        }
    }
    let raw = block_of(MAX_HEADER_BYTES + 1);
    assert_eq!(error(&raw), ParseError::TooLarge);
    // Arriving a byte short of its end, it is already refused: no
    // terminator can fall within the bound any more.
    let mut p = RequestParser::new();
    assert_eq!(
        p.feed(&raw[..MAX_HEADER_BYTES + 1]),
        ParseStatus::Error(ParseError::TooLarge)
    );
    // A block at the bound with the next request's bytes behind it.
    let mut two = block_of(MAX_HEADER_BYTES);
    two.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
    let mut p = RequestParser::new();
    let mut seen = Vec::new();
    assert!(!drain(&mut p, &two, &mut seen));
    let paths: Vec<&str> = seen.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(paths, ["/big", "/next"]);
}

#[test]
fn bytes_that_are_not_utf8_are_read_lossily() {
    let seen = parse(b"GET /x HTTP/1.1\r\nHost: caf\xe9\r\n\r\n").unwrap();
    assert_eq!(seen.1.as_deref(), Some("caf\u{fffd}"));
    // In a field nobody reads, they change nothing.
    let seen = parse(b"GET /x HTTP/1.1\r\nX-Junk: \xff\xfe\x80\r\nHost: h\r\n\r\n").unwrap();
    assert_eq!(seen, ("/x".to_string(), Some("h".to_string())));
    // In the path, raw or encoded.
    assert_eq!(path(b"GET /caf\xe9 HTTP/1.1\r\n\r\n"), "/caf\u{fffd}");
    assert_eq!(path(b"GET /caf%e9 HTTP/1.1\r\n\r\n"), "/caf\u{fffd}");
    assert_eq!(path(b"GET /caf%C3%A9 HTTP/1.1\r\n\r\n"), "/caf\u{e9}");
    // In a field name, they are not a token.
    assert_eq!(
        error(b"GET /x HTTP/1.1\r\nX-\xe9: 1\r\n\r\n"),
        ParseError::BadHeader
    );
}

#[test]
fn two_pipelined_requests_cut_at_every_byte_parse_the_same() {
    let first = b"GET /first.html HTTP/1.1\r\nHost: one\r\nConnection: keep-alive\r\n\r\n";
    let second = b"GET /second%20page?q=1 HTTP/1.1\r\nhost: two\r\n\r\n";
    let both = [&first[..], &second[..]].concat();
    let want = vec![
        ("/first.html".to_string(), Some("one".to_string())),
        ("/second page".to_string(), Some("two".to_string())),
    ];
    for cut in 0..=both.len() {
        let mut p = RequestParser::new();
        let mut seen = Vec::new();
        assert!(!drain(&mut p, &both[..cut], &mut seen), "cut at {cut}");
        assert!(!drain(&mut p, &both[cut..], &mut seen), "cut at {cut}");
        assert_eq!(seen, want, "cut at {cut}");
        assert_eq!(p.buffered(), 0, "cut at {cut}");
    }
    // And a byte at a time.
    let mut p = RequestParser::new();
    let mut seen = Vec::new();
    for b in &both {
        assert!(!drain(&mut p, std::slice::from_ref(b), &mut seen));
    }
    assert_eq!(seen, want);
}
