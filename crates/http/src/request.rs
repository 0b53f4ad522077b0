//! Incremental HTTP request parsing.
//!
//! The parser consumes bytes as they arrive from a socket (requests can be
//! split across arbitrarily many reads — slow WAN clients in the paper's
//! §6.4 do exactly this) and never panics on malformed input: every
//! failure is a typed [`ParseError`] that the server maps to a 4xx
//! response. A parsed [`Request`] borrows the parser's buffer: field
//! names are matched in any case where they lie, and a value is copied
//! only where it is not UTF-8.
//!
//! A path is percent-decoded and normalized before anything sees it.
//! One that climbs above the root, or that holds a control byte once
//! decoded — a NUL, a newline, any byte below 0x20, or DEL — is
//! rejected with a `400`: such names are not served.
//!
//! The parser reads no request body. A GET or HEAD that declares one —
//! any `Transfer-Encoding`, or a `Content-Length` other than `0` — is
//! refused, not parsed past: its body bytes would otherwise be read as
//! the next request, which a proxy framing by `Content-Length` never
//! sent (request smuggling).

use bytes::BytesMut;
use std::borrow::Cow;
use std::fmt;

/// Maximum accepted request-header size; larger requests are rejected
/// (defense against unbounded buffering).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET — the only method that returns content.
    Get,
    /// HEAD — headers only.
    Head,
    /// POST — accepted and routed to CGI handling.
    Post,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }

    /// The method's token, as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP protocol version of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// HTTP/0.9 (bare `GET /path` line).
    Http09,
    /// HTTP/1.0.
    Http10,
    /// HTTP/1.1 (persistent by default).
    Http11,
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Version::Http09 => "HTTP/0.9",
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        })
    }
}

/// A parsed HTTP request, borrowed from the parser's buffer: it lives
/// until the parser is fed again. A field is copied only where parsing
/// has to change its bytes — a path that is percent-encoded or not yet
/// normal, a value that is not UTF-8 (read lossily, as `U+FFFD`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    /// Request method.
    pub method: Method,
    /// Decoded path (no query string), always starting with `/`, and
    /// free of control bytes.
    pub path: Cow<'a, str>,
    /// Raw query string (after `?`), if any.
    pub query: Option<Cow<'a, str>>,
    /// Protocol version.
    pub version: Version,
    /// Value of the `Connection` header, if present (verbatim; its
    /// tokens are matched in any case).
    pub connection: Option<Cow<'a, str>>,
    /// Value of the `Host` header, if present.
    pub host: Option<Cow<'a, str>>,
    /// Value of the `If-Modified-Since` header, if present (verbatim).
    pub if_modified_since: Option<Cow<'a, str>>,
    /// Parsed single-range `Range` header. `None` both when the header
    /// is absent and when it is malformed or multi-range — RFC 9110
    /// §14.2 says an unintelligible `Range` is simply ignored (full
    /// 200), never an error.
    pub range: Option<RangeSpec>,
    /// Parsed `If-Range` validator (ETag or exact HTTP-date), if
    /// present. Gates `range`: on mismatch the range is ignored.
    pub if_range: Option<IfRange>,
    /// Value of the `If-None-Match` header, if present (verbatim) —
    /// takes precedence over `If-Modified-Since` (RFC 9110 §13.1.2).
    pub if_none_match: Option<Cow<'a, str>>,
    /// Whether `Accept-Encoding` admits gzip (a `gzip` or `*` token
    /// with nonzero q). False when the header is absent.
    pub accept_gzip: bool,
}

/// One parsed `Range: bytes=…` spec (single-range only), before it is
/// resolved against a representation length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSpec {
    /// `bytes=a-b`: the inclusive window `[a, b]` (parse guarantees
    /// `a <= b`).
    FromTo(u64, u64),
    /// `bytes=a-`: from `a` through the end.
    From(u64),
    /// `bytes=-n`: the final `n` bytes.
    Suffix(u64),
}

impl RangeSpec {
    /// Parses a `Range` header value. Returns `None` for anything other
    /// than a well-formed **single** `bytes` range — multi-range sets,
    /// other units, inverted or unparseable bounds — which callers must
    /// treat as "no Range header" (RFC 9110 §14.2).
    pub fn parse(value: &str) -> Option<RangeSpec> {
        let rest = value.trim();
        let rest = rest
            .strip_prefix("bytes=")
            .or_else(|| rest.strip_prefix("Bytes="))?;
        if rest.contains(',') {
            return None; // multi-range: serve the full representation
        }
        let rest = rest.trim();
        let (a, b) = rest.split_once('-')?;
        match (a.is_empty(), b.is_empty()) {
            (true, true) => None,
            (true, false) => b.parse().ok().map(RangeSpec::Suffix),
            (false, true) => a.parse().ok().map(RangeSpec::From),
            (false, false) => match (a.parse().ok()?, b.parse().ok()?) {
                (a, b) if a <= b => Some(RangeSpec::FromTo(a, b)),
                _ => None, // inverted bounds: malformed, ignore
            },
        }
    }

    /// Resolves the spec against a representation of `total` bytes into
    /// an inclusive `(start, end)` window, or `None` when the range is
    /// unsatisfiable (→ `416` with `Content-Range: bytes */total`).
    pub fn resolve(&self, total: u64) -> Option<(u64, u64)> {
        match *self {
            RangeSpec::FromTo(a, b) if a < total => Some((a, b.min(total - 1))),
            RangeSpec::From(a) if a < total => Some((a, total - 1)),
            RangeSpec::Suffix(n) if n > 0 && total > 0 => Some((total - n.min(total), total - 1)),
            _ => None,
        }
    }
}

/// A parsed `If-Range` validator: the range applies only while the
/// selected representation still matches it (RFC 9110 §13.1.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfRange {
    /// An entity tag (verbatim, including quotes / `W/` prefix).
    Tag(String),
    /// An HTTP-date, as unix seconds; must equal `Last-Modified`
    /// exactly (dates are only weak validators otherwise).
    Date(i64),
}

impl IfRange {
    fn parse(value: &str) -> Option<IfRange> {
        let v = value.trim();
        if v.starts_with('"') || v.starts_with("W/") {
            Some(IfRange::Tag(v.to_string()))
        } else {
            // An unparseable date can never match a validator, but it
            // must still *gate* the range — report it as a date that
            // matches nothing rather than dropping the header.
            Some(IfRange::Date(crate::date::parse_imf(v).unwrap_or(i64::MIN)))
        }
    }

    /// Whether the validator matches the selected representation
    /// (strong comparison only — `W/` tags and inexact dates never
    /// match, so the range is ignored and the full body served).
    pub fn matches(&self, etag: &str, last_modified_unix: Option<i64>) -> bool {
        match self {
            IfRange::Tag(t) => t == etag,
            IfRange::Date(d) => last_modified_unix == Some(*d),
        }
    }
}

/// Whether an `If-None-Match` header value matches `etag` (weak
/// comparison: a `W/` prefix on either side is ignored, per RFC 9110
/// §8.8.3.2 — correct for cache validation). `*` matches any
/// representation.
pub fn etag_matches(header_value: &str, etag: &str) -> bool {
    header_value.split(',').any(|t| {
        let t = t.trim();
        t == "*" || t.strip_prefix("W/").unwrap_or(t) == etag.strip_prefix("W/").unwrap_or(etag)
    })
}

/// Whether an `Accept-Encoding` value admits gzip: a `gzip` (or `*`)
/// token whose qvalue is not zero.
fn accepts_gzip(value: &str) -> bool {
    value.split(',').any(|part| {
        let mut it = part.split(';');
        let token = it.next().unwrap_or("").trim();
        if !(token.eq_ignore_ascii_case("gzip") || token == "*") {
            return false;
        }
        !it.any(|p| {
            p.trim()
                .strip_prefix("q=")
                .and_then(|v| v.trim().parse::<f32>().ok())
                .is_some_and(|q| q == 0.0)
        })
    })
}

impl Request<'_> {
    /// Whether the connection should persist after this request
    /// (HTTP/1.1 default-on, HTTP/1.0 with `keep-alive`).
    ///
    /// `Connection` is a comma-separated **token list** (RFC 9110
    /// §7.6.1), so `Connection: keep-alive, upgrade` keeps a 1.0
    /// connection alive and `Connection: close, te` closes a 1.1 one —
    /// whole-value string comparison got both of those wrong.
    pub fn keep_alive(&self) -> bool {
        let has_token = |tok: &str| {
            self.connection
                .as_deref()
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(tok)))
        };
        match self.version {
            Version::Http09 => false,
            Version::Http10 => has_token("keep-alive") && !has_token("close"),
            Version::Http11 => !has_token("close"),
        }
    }
}

/// Why a request failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line was not `METHOD SP PATH [SP VERSION]`.
    BadRequestLine,
    /// Method unknown.
    BadMethod,
    /// Version string unknown.
    BadVersion,
    /// A path escaped the document root via `..`, or held a control
    /// byte (below 0x20, or 0x7F) once decoded.
    PathTraversal,
    /// Header section exceeded [`MAX_HEADER_BYTES`].
    TooLarge,
    /// A header line had no `:` separator, or its field name was empty
    /// or not a token (whitespace before the colon included); or the
    /// request carried a second `Host`.
    BadHeader,
    /// A GET or HEAD declared a body: a `Transfer-Encoding`, or a
    /// `Content-Length` other than `0` (an unparseable one included).
    UnexpectedBody,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseError::BadRequestLine => "malformed request line",
            ParseError::BadMethod => "unknown method",
            ParseError::BadVersion => "unknown HTTP version",
            ParseError::PathTraversal => "path escapes document root or holds a control byte",
            ParseError::TooLarge => "request header too large",
            ParseError::BadHeader => "malformed header line",
            ParseError::UnexpectedBody => "GET or HEAD request declares a body",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

/// Outcome of feeding bytes to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseStatus<'a> {
    /// Need more bytes.
    Incomplete,
    /// A complete request was parsed.
    Done(Request<'a>),
    /// The request is malformed.
    Error(ParseError),
}

/// An incremental request parser. Feed it socket bytes with
/// [`RequestParser::feed`]; it buffers until a full header is present.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: BytesMut,
    /// Bytes at the front of `buf` that the last [`ParseStatus::Done`]
    /// or error consumed: the request borrows them until the next
    /// `feed`, which drops them.
    consumed: usize,
}

impl RequestParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered past the last request parsed (for tests
    /// and flow control).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Appends `bytes` and attempts to parse. On [`ParseStatus::Done`]
    /// the request is consumed — it borrows the buffer until the next
    /// call — so pipelined requests parse one at a time.
    pub fn feed(&mut self, bytes: &[u8]) -> ParseStatus<'_> {
        self.buf.advance(std::mem::take(&mut self.consumed));
        if !bytes.is_empty() {
            self.buf.extend_from_slice(bytes);
        }
        // The size bound applies to the *current request's* header, not
        // the whole buffer: a burst of pipelined requests buffered
        // together may legitimately exceed MAX_HEADER_BYTES in total
        // while each request stays small. Only search the first
        // MAX_HEADER_BYTES for the terminator — if it isn't there, this
        // request's header really is oversized.
        let search = &self.buf[..self.buf.len().min(MAX_HEADER_BYTES)];
        // An HTTP/0.9 request is a single CRLF- (or LF-) terminated line;
        // 1.0/1.1 headers end with a blank line.
        let Some(line_end) = find(search, b"\n") else {
            return if self.buf.len() > MAX_HEADER_BYTES {
                ParseStatus::Error(ParseError::TooLarge)
            } else {
                ParseStatus::Incomplete
            };
        };
        let first_line = trim_cr(&self.buf[..line_end]);
        let is_09 = !first_line
            .rsplit(|&b| b == b' ')
            .next()
            .is_some_and(|last| last.starts_with(b"HTTP/"));
        let header_end = if is_09 {
            line_end + 1
        } else {
            match find(search, b"\r\n\r\n") {
                Some(i) => i + 4,
                None => match find(search, b"\n\n") {
                    Some(i) => i + 2,
                    None => {
                        // No terminator within the bound: oversized if
                        // more is already buffered, otherwise just
                        // incomplete.
                        return if self.buf.len() > MAX_HEADER_BYTES {
                            ParseStatus::Error(ParseError::TooLarge)
                        } else {
                            ParseStatus::Incomplete
                        };
                    }
                },
            }
        };
        self.consumed = header_end;
        match parse_header(&self.buf[..header_end]) {
            Ok(req) => ParseStatus::Done(req),
            Err(e) => ParseStatus::Error(e),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

/// `bytes` as text: borrowed when UTF-8, a lossy copy otherwise.
fn text(bytes: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

/// A field value: its text with surrounding whitespace trimmed.
fn value(bytes: &[u8]) -> Cow<'_, str> {
    match text(bytes) {
        Cow::Borrowed(v) => Cow::Borrowed(v.trim()),
        Cow::Owned(v) => Cow::Owned(v.trim().to_string()),
    }
}

/// The method, version, path and query of a request line.
type Target<'a> = (Method, Version, Cow<'a, str>, Option<Cow<'a, str>>);

fn request_line(line: &str) -> Result<Target<'_>, ParseError> {
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(ParseError::BadRequestLine)?;
    let target = parts.next().ok_or(ParseError::BadRequestLine)?;
    let version = match parts.next() {
        None => Version::Http09,
        Some("HTTP/1.0") => Version::Http10,
        Some("HTTP/1.1") => Version::Http11,
        Some(v) if v.starts_with("HTTP/") => return Err(ParseError::BadVersion),
        Some(_) => return Err(ParseError::BadRequestLine),
    };
    if parts.next().is_some() {
        return Err(ParseError::BadRequestLine);
    }
    let method = Method::parse(method).ok_or(ParseError::BadMethod)?;
    let (path_raw, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(Cow::Borrowed(q))),
        None => (target, None),
    };
    Ok((method, version, normalize_path(path_raw)?, query))
}

fn parse_header(raw: &[u8]) -> Result<Request<'_>, ParseError> {
    let mut lines = raw.split(|&b| b == b'\n').map(trim_cr);
    let first = lines.next().ok_or(ParseError::BadRequestLine)?;
    let (method, version, path, query) = match text(first) {
        Cow::Borrowed(line) => request_line(line)?,
        Cow::Owned(line) => {
            let (method, version, path, query) = request_line(&line)?;
            let owned = |c: Cow<'_, str>| Cow::Owned(c.into_owned());
            (method, version, owned(path), query.map(owned))
        }
    };

    let mut connection = None;
    let mut host = None;
    let mut if_modified_since = None;
    let mut range = None;
    let mut if_range = None;
    let mut if_none_match = None;
    let mut accept_gzip = false;
    // POST is answered `501` and the connection closed, so its body is
    // never read as a request; any other method may declare none.
    let bodiless = method != Method::Post;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(ParseError::BadHeader)?;
        let (name, raw_value) = (&line[..colon], &line[colon + 1..]);
        // A field name is a token (RFC 9110 §5.6.2), so whitespace
        // before the colon is a `400` (RFC 9112 §5.1): read leniently,
        // `Content-Length : 5` would get past the body refusal below.
        if name.is_empty() || !name.iter().all(|&b| is_tchar(b)) {
            return Err(ParseError::BadHeader);
        }
        // Names match in any case, without a lowered copy.
        let is = |field: &str| name.eq_ignore_ascii_case(field.as_bytes());
        if is("transfer-encoding") && bodiless {
            return Err(ParseError::UnexpectedBody);
        } else if is("content-length") && bodiless {
            if value(raw_value).parse::<u64>() != Ok(0) {
                return Err(ParseError::UnexpectedBody);
            }
        } else if is("connection") {
            connection = Some(value(raw_value));
        } else if is("host") {
            // More than one `Host` is a `400` (RFC 9112 §3.2).
            if host.replace(value(raw_value)).is_some() {
                return Err(ParseError::BadHeader);
            }
        } else if is("if-modified-since") {
            if_modified_since = Some(value(raw_value));
        } else if is("range") {
            range = RangeSpec::parse(&value(raw_value));
        } else if is("if-range") {
            if_range = IfRange::parse(&value(raw_value));
        } else if is("if-none-match") {
            if_none_match = Some(value(raw_value));
        } else if is("accept-encoding") {
            accept_gzip = accepts_gzip(&value(raw_value));
        }
    }
    Ok(Request {
        method,
        path,
        query,
        version,
        connection,
        host,
        if_modified_since,
        range,
        if_range,
        if_none_match,
        accept_gzip,
    })
}

/// A `tchar` of RFC 9110 §5.6.2: the bytes a field name may hold.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Percent-decodes and normalizes a request path, rejecting traversal
/// outside the document root. A path already in normal form — rooted,
/// with no `%`, no empty, `.` or `..` segment — is returned as it is.
fn normalize_path(raw: &str) -> Result<Cow<'_, str>, ParseError> {
    // A NUL is a filename-smuggling vector on C-string filesystems;
    // rejecting it also guarantees decoded paths never collide with the
    // server's NUL-separated internal variant-cache keys. Every other
    // control byte goes with it: a `%0A` would split the request line
    // handed to an application worker in two, and forge a line of the
    // access log.
    let normal = raw.starts_with('/')
        && !raw.contains("//")
        && !raw.bytes().any(|b| b == b'%' || b.is_ascii_control())
        && raw.split('/').all(|seg| !matches!(seg, "." | ".."));
    if normal {
        return Ok(Cow::Borrowed(raw));
    }
    let decoded = percent_decode(raw);
    if decoded.chars().any(|c| c.is_ascii_control()) {
        return Err(ParseError::PathTraversal);
    }
    let mut out: Vec<&str> = Vec::new();
    for seg in decoded.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                if out.pop().is_none() {
                    return Err(ParseError::PathTraversal);
                }
            }
            s => out.push(s),
        }
    }
    let mut path = String::from("/");
    path.push_str(&out.join("/"));
    // Preserve a trailing slash (directory request) except on the root.
    if decoded.ends_with('/') && path.len() > 1 {
        path.push('/');
    }
    Ok(Cow::Owned(path))
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = |b: u8| -> Option<u8> {
                match b {
                    b'0'..=b'9' => Some(b - b'0'),
                    b'a'..=b'f' => Some(b - b'a' + 10),
                    b'A'..=b'F' => Some(b - b'A' + 10),
                    _ => None,
                }
            };
            if let (Some(h), Some(l)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push(h << 4 | l);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ParseStatus<'static> {
        match RequestParser::new().feed(s.as_bytes()) {
            ParseStatus::Done(r) => ParseStatus::Done(owned(r)),
            ParseStatus::Incomplete => ParseStatus::Incomplete,
            ParseStatus::Error(e) => ParseStatus::Error(e),
        }
    }

    /// `req` with every field its own.
    fn owned(req: Request<'_>) -> Request<'static> {
        let own = |c: Cow<'_, str>| Cow::Owned(c.into_owned());
        Request {
            method: req.method,
            path: own(req.path),
            query: req.query.map(own),
            version: req.version,
            connection: req.connection.map(own),
            host: req.host.map(own),
            if_modified_since: req.if_modified_since.map(own),
            range: req.range,
            if_range: req.if_range,
            if_none_match: req.if_none_match.map(own),
            accept_gzip: req.accept_gzip,
        }
    }

    fn done(s: &str) -> Request<'static> {
        match parse(s) {
            ParseStatus::Done(r) => r,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_get() {
        let r = done("GET /index.html HTTP/1.0\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/index.html");
        assert_eq!(r.version, Version::Http10);
        assert!(!r.keep_alive());
    }

    #[test]
    fn parses_headers_of_interest() {
        let r = done(
            "GET /a/b.html HTTP/1.0\r\nHost: rice.edu\r\nConnection: Keep-Alive\r\nIf-Modified-Since: Sat, 29 Oct 1994 19:43:31 GMT\r\n\r\n",
        );
        assert_eq!(r.host.as_deref(), Some("rice.edu"));
        assert_eq!(r.connection.as_deref(), Some("Keep-Alive"));
        assert!(r.keep_alive());
        assert!(r.if_modified_since.is_some());
    }

    #[test]
    fn http11_is_persistent_by_default() {
        assert!(done("GET / HTTP/1.1\r\nHost: x\r\n\r\n").keep_alive());
        assert!(!done("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
    }

    #[test]
    fn http09_bare_line() {
        let r = done("GET /foo.html\r\n");
        assert_eq!(r.version, Version::Http09);
        assert!(!r.keep_alive());
    }

    #[test]
    fn query_string_split() {
        let r = done("GET /cgi-bin/search?q=flash+server HTTP/1.0\r\n\r\n");
        assert_eq!(r.path, "/cgi-bin/search");
        assert_eq!(r.query.as_deref(), Some("q=flash+server"));
    }

    #[test]
    fn percent_decoding() {
        let r = done("GET /my%20file.html HTTP/1.0\r\n\r\n");
        assert_eq!(r.path, "/my file.html");
    }

    #[test]
    fn dot_segments_collapse() {
        let r = done("GET /a/./b/../c.html HTTP/1.0\r\n\r\n");
        assert_eq!(r.path, "/a/c.html");
    }

    #[test]
    fn traversal_is_rejected() {
        assert_eq!(
            parse("GET /../etc/passwd HTTP/1.0\r\n\r\n"),
            ParseStatus::Error(ParseError::PathTraversal)
        );
        assert_eq!(
            parse("GET /a/../../x HTTP/1.0\r\n\r\n"),
            ParseStatus::Error(ParseError::PathTraversal)
        );
    }

    #[test]
    fn incremental_feeding() {
        let mut p = RequestParser::new();
        assert_eq!(p.feed(b"GE"), ParseStatus::Incomplete);
        assert_eq!(p.feed(b"T /x.html HT"), ParseStatus::Incomplete);
        assert_eq!(p.feed(b"TP/1.0\r\n"), ParseStatus::Incomplete);
        match p.feed(b"\r\n") {
            ParseStatus::Done(r) => assert_eq!(r.path, "/x.html"),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut p = RequestParser::new();
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match p.feed(two) {
            ParseStatus::Done(r) => assert_eq!(r.path, "/a"),
            other => panic!("{other:?}"),
        }
        match p.feed(b"") {
            ParseStatus::Done(r) => assert_eq!(r.path, "/b"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let r = done("GET /x HTTP/1.0\nHost: y\n\n");
        assert_eq!(r.path, "/x");
        assert_eq!(r.host.as_deref(), Some("y"));
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            parse("FROB /x HTTP/1.0\r\n\r\n"),
            ParseStatus::Error(ParseError::BadMethod)
        );
        assert_eq!(
            parse("GET /x HTTP/3.9\r\n\r\n"),
            ParseStatus::Error(ParseError::BadVersion)
        );
        assert_eq!(
            parse("GET\r\n\r\n"),
            ParseStatus::Error(ParseError::BadRequestLine)
        );
        assert_eq!(
            parse("GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n"),
            ParseStatus::Error(ParseError::BadHeader)
        );
    }

    #[test]
    fn oversized_header_rejected() {
        let mut p = RequestParser::new();
        let big = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert_eq!(p.feed(&big), ParseStatus::Error(ParseError::TooLarge));
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // 1.0: keep-alive among other tokens still keeps alive.
        assert!(done("GET / HTTP/1.0\r\nConnection: keep-alive, upgrade\r\n\r\n").keep_alive());
        assert!(done("GET / HTTP/1.0\r\nConnection: upgrade,keep-alive\r\n\r\n").keep_alive());
        // 1.1: close among other tokens still closes.
        assert!(!done("GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n").keep_alive());
        assert!(!done("GET / HTTP/1.1\r\nConnection: te , close\r\n\r\n").keep_alive());
        // A token that merely *contains* the word is not a match.
        assert!(done("GET / HTTP/1.1\r\nConnection: not-close\r\n\r\n").keep_alive());
        assert!(!done("GET / HTTP/1.0\r\nConnection: keep-alive-ish\r\n\r\n").keep_alive());
        // Contradictory tokens: close wins on both versions.
        assert!(!done("GET / HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n").keep_alive());
    }

    #[test]
    fn pipelined_burst_larger_than_header_cap_is_accepted() {
        // Many small requests buffered together exceed MAX_HEADER_BYTES
        // in aggregate; each individual header is tiny, so every one
        // must parse — the cap bounds a single request's header, not
        // the buffer.
        let one = "GET /tiny HTTP/1.1\r\nHost: h\r\n\r\n";
        let n = MAX_HEADER_BYTES / one.len() + 2;
        let burst: String = one.repeat(n);
        assert!(burst.len() > MAX_HEADER_BYTES);
        let mut p = RequestParser::new();
        match p.feed(burst.as_bytes()) {
            ParseStatus::Done(r) => assert_eq!(r.path, "/tiny"),
            other => panic!("first of the burst must parse: {other:?}"),
        }
        for i in 1..n {
            match p.feed(b"") {
                ParseStatus::Done(r) => assert_eq!(r.path, "/tiny", "request {i}"),
                other => panic!("request {i}: {other:?}"),
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn single_oversized_request_still_rejected_even_when_complete() {
        // One request whose own header exceeds the cap is refused even
        // though a terminator eventually arrives.
        let mut p = RequestParser::new();
        let mut req = String::from("GET /x HTTP/1.1\r\nX-Filler: ");
        req.push_str(&"a".repeat(MAX_HEADER_BYTES));
        req.push_str("\r\n\r\n");
        assert_eq!(
            p.feed(req.as_bytes()),
            ParseStatus::Error(ParseError::TooLarge)
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // Smoke test; the proptest suite drives this much harder.
        for chunk in [&b"\x00\xff\xfe GET"[..], b"\r\n\r\n", b"%%%%%"] {
            let mut p = RequestParser::new();
            let _ = p.feed(chunk);
        }
    }

    #[test]
    fn trailing_slash_preserved() {
        assert_eq!(done("GET /dir/ HTTP/1.0\r\n\r\n").path, "/dir/");
        assert_eq!(done("GET / HTTP/1.0\r\n\r\n").path, "/");
    }

    #[test]
    fn nul_in_path_is_rejected() {
        for path in [
            "/a%00.html",
            "/app/x%0Ay",
            "/nope%0Aforged%20line",
            "/a%0D.html",
            "/a%01",
            "/a%1f",
            "/a%7F",
            "/a\x01b",
            "/a\x7fb",
        ] {
            assert_eq!(
                parse(&format!("GET {path} HTTP/1.0\r\n\r\n")),
                ParseStatus::Error(ParseError::PathTraversal),
                "{path:?}"
            );
        }
        // The printable neighbours are served.
        assert_eq!(done("GET /a%20b%7E HTTP/1.0\r\n\r\n").path, "/a b~");
    }

    #[test]
    fn a_get_or_head_that_declares_a_body_is_refused() {
        for method in ["GET", "HEAD"] {
            for header in [
                "Content-Length: 58",
                "content-length: 1",
                "Content-Length: -1",
                "Content-Length: lots",
                "Content-Length: ",
                "Transfer-Encoding: chunked",
                "Transfer-Encoding: identity",
            ] {
                assert_eq!(
                    parse(&format!("{method} /x HTTP/1.1\r\n{header}\r\n\r\n")),
                    ParseStatus::Error(ParseError::UnexpectedBody),
                    "{method} with {header:?}"
                );
            }
            // An empty body is no body.
            for header in [
                "Content-Length: 0",
                "Content-Length:  0 ",
                "Content-Length: 00",
            ] {
                let r = done(&format!("{method} /x HTTP/1.1\r\n{header}\r\n\r\n"));
                assert_eq!(r.path, "/x", "{method} with {header:?}");
            }
        }
        // POST keeps its own refusal (a `501` that closes), so it parses.
        let r = done("POST /x HTTP/1.1\r\nContent-Length: 58\r\n\r\n");
        assert_eq!(r.method, Method::Post);
    }

    /// The refusal comes before the body is looked at: the smuggled
    /// request is never returned, and the server closes the connection
    /// on a parse error, so the bytes behind it are not fed again.
    #[test]
    fn a_body_is_never_parsed_as_the_next_request() {
        let body = "GET /secret.html HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut p = RequestParser::new();
        let req = format!(
            "GET /index.html HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(
            p.feed(req.as_bytes()),
            ParseStatus::Error(ParseError::UnexpectedBody)
        );
    }

    /// A field name is a token: a space or a tab before the colon, or
    /// no name at all, is a malformed header, so a spaced framing
    /// header cannot slip past the body refusal.
    #[test]
    fn a_field_name_that_is_not_a_token_is_refused() {
        for method in ["GET", "HEAD"] {
            for header in [
                "Transfer-Encoding : chunked",
                "Content-Length : 5",
                "Content-Length\t: 5",
                "Host\t: h",
                " Host: h",
                ": x",
                "Ho(st: h",
            ] {
                assert_eq!(
                    parse(&format!(
                        "{method} / HTTP/1.1\r\nHost: h\r\n{header}\r\n\r\n"
                    )),
                    ParseStatus::Error(ParseError::BadHeader),
                    "{method} with {header:?}"
                );
            }
        }
        // Every tchar is accepted, and the value may still be spaced.
        let r = done("GET / HTTP/1.1\r\nX-!#$%&'*+.^_`|~9: a b \r\nHost:  h \r\n\r\n");
        assert_eq!(r.host.as_deref(), Some("h"));
    }

    #[test]
    fn a_second_host_is_refused() {
        assert_eq!(
            parse("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"),
            ParseStatus::Error(ParseError::BadHeader)
        );
        assert_eq!(
            parse("GET / HTTP/1.0\r\nhost: a\r\nHOST: a\r\n\r\n"),
            ParseStatus::Error(ParseError::BadHeader)
        );
        assert_eq!(
            done("GET / HTTP/1.1\r\nHost: a\r\n\r\n").host.as_deref(),
            Some("a")
        );
    }

    #[test]
    fn range_header_parses_single_specs() {
        let r = done("GET /f HTTP/1.1\r\nRange: bytes=10-19\r\n\r\n");
        assert_eq!(r.range, Some(RangeSpec::FromTo(10, 19)));
        let r = done("GET /f HTTP/1.1\r\nRange: bytes=100-\r\n\r\n");
        assert_eq!(r.range, Some(RangeSpec::From(100)));
        let r = done("GET /f HTTP/1.1\r\nRange: bytes=-500\r\n\r\n");
        assert_eq!(r.range, Some(RangeSpec::Suffix(500)));
    }

    #[test]
    fn malformed_or_multi_range_is_ignored() {
        for v in [
            "bytes=19-10",   // inverted
            "bytes=a-b",     // not numbers
            "bytes=-",       // empty both sides
            "bytes=0-5,7-9", // multi-range: full body
            "chars=0-5",     // unknown unit
            "0-5",           // missing unit
        ] {
            let r = done(&format!("GET /f HTTP/1.1\r\nRange: {v}\r\n\r\n"));
            assert_eq!(r.range, None, "{v} must be ignored");
        }
    }

    #[test]
    fn range_resolution_clamps_and_rejects() {
        assert_eq!(RangeSpec::FromTo(0, 9).resolve(100), Some((0, 9)));
        assert_eq!(RangeSpec::FromTo(90, 200).resolve(100), Some((90, 99)));
        assert_eq!(RangeSpec::FromTo(100, 200).resolve(100), None);
        assert_eq!(RangeSpec::From(40).resolve(100), Some((40, 99)));
        assert_eq!(RangeSpec::From(100).resolve(100), None);
        assert_eq!(RangeSpec::Suffix(10).resolve(100), Some((90, 99)));
        assert_eq!(RangeSpec::Suffix(500).resolve(100), Some((0, 99)));
        assert_eq!(RangeSpec::Suffix(0).resolve(100), None);
        // Empty representation: nothing is satisfiable.
        assert_eq!(RangeSpec::From(0).resolve(0), None);
        assert_eq!(RangeSpec::Suffix(5).resolve(0), None);
    }

    #[test]
    fn if_range_gates_by_strong_validator() {
        let r = done("GET /f HTTP/1.1\r\nIf-Range: \"abc-12\"\r\n\r\n");
        let ir = r.if_range.unwrap();
        assert!(ir.matches("\"abc-12\"", None));
        assert!(!ir.matches("\"abc-13\"", None));
        let r = done("GET /f HTTP/1.1\r\nIf-Range: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n");
        let ir = r.if_range.unwrap();
        assert!(ir.matches("\"x\"", Some(784_111_777)));
        assert!(
            !ir.matches("\"x\"", Some(784_111_778)),
            "dates must match exactly"
        );
        assert!(!ir.matches("\"x\"", None));
        // A weak tag never strong-matches.
        let r = done("GET /f HTTP/1.1\r\nIf-Range: W/\"abc-12\"\r\n\r\n");
        assert!(!r.if_range.unwrap().matches("\"abc-12\"", None));
    }

    #[test]
    fn if_none_match_uses_weak_comparison_and_star() {
        assert!(etag_matches("\"a-1\"", "\"a-1\""));
        assert!(etag_matches("W/\"a-1\"", "\"a-1\""));
        assert!(etag_matches("\"x\", \"a-1\"", "\"a-1\""));
        assert!(etag_matches("*", "\"anything\""));
        assert!(!etag_matches("\"a-2\"", "\"a-1\""));
        let r = done("GET /f HTTP/1.1\r\nIf-None-Match: \"a-1\"\r\n\r\n");
        assert_eq!(r.if_none_match.as_deref(), Some("\"a-1\""));
    }

    #[test]
    fn accept_encoding_gzip_detection() {
        assert!(done("GET / HTTP/1.1\r\nAccept-Encoding: gzip\r\n\r\n").accept_gzip);
        assert!(done("GET / HTTP/1.1\r\nAccept-Encoding: br, gzip;q=0.5\r\n\r\n").accept_gzip);
        assert!(done("GET / HTTP/1.1\r\nAccept-Encoding: *\r\n\r\n").accept_gzip);
        assert!(!done("GET / HTTP/1.1\r\nAccept-Encoding: gzip;q=0\r\n\r\n").accept_gzip);
        assert!(!done("GET / HTTP/1.1\r\nAccept-Encoding: br\r\n\r\n").accept_gzip);
        assert!(!done("GET / HTTP/1.1\r\n\r\n").accept_gzip);
    }
}
