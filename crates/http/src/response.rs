//! Response-header generation with byte-position alignment.
//!
//! §5.5 of the paper: `writev` of a header followed by file data causes
//! misaligned kernel copies of *all* subsequent regions when the header
//! length is not a multiple of the machine word; Flash therefore aligns
//! response headers on 32-byte boundaries (cache-line size) by padding a
//! variable-length field. [`ResponseHeader`] implements exactly that.
//!
//! The `Date` field is the real current time (IMF-fixdate, cached per
//! second per thread by [`crate::date`]); because the format is
//! fixed-width, header lengths stay deterministic for the simulator and
//! the alignment padding. `Last-Modified` rides along when the caller
//! knows the file's mtime, and [`ResponseHeader::not_modified`] renders
//! the bodyless `304` used to answer `If-Modified-Since` hits.

use crate::date;
use std::fmt::Write as _;

/// Alignment target for response headers (bytes). The paper picks 32 to
/// match cache-line-optimized copy loops.
pub const ALIGN: usize = 32;

/// HTTP status codes used by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200 OK.
    Ok,
    /// 206 Partial Content.
    PartialContent,
    /// 304 Not Modified.
    NotModified,
    /// 400 Bad Request.
    BadRequest,
    /// 403 Forbidden.
    Forbidden,
    /// 404 Not Found.
    NotFound,
    /// 416 Range Not Satisfiable.
    RangeNotSatisfiable,
    /// 500 Internal Server Error.
    InternalError,
    /// 501 Not Implemented.
    NotImplemented,
    /// 504 Gateway Timeout (a dynamic-tier worker missed its deadline).
    GatewayTimeout,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::PartialContent => 206,
            Status::NotModified => 304,
            Status::BadRequest => 400,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::RangeNotSatisfiable => 416,
            Status::InternalError => 500,
            Status::NotImplemented => 501,
            Status::GatewayTimeout => 504,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::PartialContent => "Partial Content",
            Status::NotModified => "Not Modified",
            Status::BadRequest => "Bad Request",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::RangeNotSatisfiable => "Range Not Satisfiable",
            Status::InternalError => "Internal Server Error",
            Status::NotImplemented => "Not Implemented",
            Status::GatewayTimeout => "Gateway Timeout",
        }
    }
}

/// A `Content-Range` field value (RFC 9110 §14.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentRange {
    /// `bytes start-end/total` on a `206`.
    Span {
        /// First byte position (inclusive).
        start: u64,
        /// Last byte position (inclusive).
        end: u64,
        /// Complete representation length.
        total: u64,
    },
    /// `bytes */total` on a `416`.
    Unsatisfiable {
        /// Complete representation length.
        total: u64,
    },
}

/// Optional response fields for the conditional/range/variant surface,
/// emitted between `Connection` and `Content-Type` so the pre-rendered
/// header prefix through the `Date` line stays layout-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeaderExtras<'a> {
    /// `ETag: <value>` (the value carries its own quotes).
    pub etag: Option<&'a str>,
    /// `Content-Range` on 206/416 responses.
    pub content_range: Option<ContentRange>,
    /// Emit `Content-Encoding: gzip` (precompressed variant).
    pub gzip: bool,
    /// Emit `Vary: Accept-Encoding` (the resource negotiates variants,
    /// whichever one this response carries).
    pub vary_accept_encoding: bool,
}

/// Renders the strong entity tag for a representation: hex mtime and
/// length (the same pair the cache revalidates by), with a `-gz` marker
/// so the gzip variant's tag can never collide with identity's.
pub fn etag_value(mtime: Option<i64>, len: u64, gzip: bool) -> String {
    let m = mtime.unwrap_or(0);
    if gzip {
        format!("\"{m:x}-{len:x}-gz\"")
    } else {
        format!("\"{m:x}-{len:x}\"")
    }
}

/// How a response describes its payload: a known length
/// (`Content-Length`), chunked framing (`Transfer-Encoding: chunked`),
/// or no payload at all (`304`).
enum BodyMeta<'a> {
    Sized(&'a str, u64),
    Chunked(&'a str),
    None,
}

/// A rendered response header, optionally padded to [`ALIGN`] bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHeader {
    bytes: Vec<u8>,
    aligned: bool,
    /// Offset just past the `Server` product token — where the
    /// alignment padding sits.
    pad_at: usize,
    /// Padding spaces at `pad_at`.
    pad: usize,
    /// Whether the header was rendered with `pad_align`.
    pad_align: bool,
}

/// The two `Connection` lines, each with the CRLF that ends the
/// `Server` line in front of it: the only bytes, padding aside, in
/// which a header's keep-alive and close forms differ.
const CONNECTION_KEEP: &str = "\r\nConnection: keep-alive\r\n";
const CONNECTION_CLOSE: &str = "\r\nConnection: close\r\n";

impl ResponseHeader {
    /// Builds a header for `status` with the given content metadata.
    ///
    /// With `pad_align` the Server field is padded so the total header
    /// length is a multiple of [`ALIGN`] (Flash's §5.5 optimization);
    /// without it the length is whatever it happens to be (how Apache and
    /// Zeus behaved, triggering the misaligned-copy penalty).
    pub fn build(
        status: Status,
        content_type: &str,
        content_length: u64,
        keep_alive: bool,
        pad_align: bool,
    ) -> ResponseHeader {
        Self::render(
            status,
            Some((content_type, content_length)),
            keep_alive,
            pad_align,
            None,
        )
    }

    /// [`ResponseHeader::build`] plus a `Last-Modified` field, for
    /// responses whose file mtime (unix seconds) is known — the
    /// validator `If-Modified-Since` compares against.
    pub fn build_with_last_modified(
        status: Status,
        content_type: &str,
        content_length: u64,
        keep_alive: bool,
        pad_align: bool,
        last_modified_unix: i64,
    ) -> ResponseHeader {
        Self::render(
            status,
            Some((content_type, content_length)),
            keep_alive,
            pad_align,
            Some(last_modified_unix),
        )
    }

    /// The fully general builder: [`ResponseHeader::build`] plus an
    /// optional `Last-Modified` and the [`HeaderExtras`] surface
    /// (ETag, `Content-Range`, content encoding, `Vary`).
    pub fn build_full(
        status: Status,
        content: Option<(&str, u64)>,
        keep_alive: bool,
        pad_align: bool,
        last_modified_unix: Option<i64>,
        extras: HeaderExtras<'_>,
    ) -> ResponseHeader {
        Self::render_full(
            status,
            content,
            keep_alive,
            pad_align,
            last_modified_unix,
            extras,
        )
    }

    /// A chunked-transfer header for the dynamic tier: `Transfer-Encoding:
    /// chunked` in place of `Content-Length` (the body length is unknown
    /// when the header goes out — a worker produces it incrementally).
    /// No `Last-Modified`, `ETag`, or range surface: dynamic responses
    /// are generated per request and bypass the conditional plane
    /// entirely. Alignment padding applies as usual — the header still
    /// rides the gathered-`writev` path ahead of chunk frames.
    pub fn build_chunked(
        status: Status,
        content_type: &str,
        keep_alive: bool,
        pad_align: bool,
    ) -> ResponseHeader {
        Self::render_any(
            status,
            BodyMeta::Chunked(content_type),
            keep_alive,
            pad_align,
            None,
            HeaderExtras::default(),
        )
    }

    /// A bodyless `304 Not Modified` header: no `Content-Type` or
    /// `Content-Length` (the response carries no payload by
    /// definition), `Last-Modified` echoed when known so caches can
    /// refresh their validator.
    pub fn not_modified(keep_alive: bool, last_modified_unix: Option<i64>) -> ResponseHeader {
        Self::render(
            Status::NotModified,
            None,
            keep_alive,
            true,
            last_modified_unix,
        )
    }

    /// [`ResponseHeader::not_modified`] plus the representation's
    /// `ETag`, so `If-None-Match` revalidations refresh both
    /// validators.
    pub fn not_modified_full(
        keep_alive: bool,
        last_modified_unix: Option<i64>,
        etag: Option<&str>,
    ) -> ResponseHeader {
        Self::render_full(
            Status::NotModified,
            None,
            keep_alive,
            true,
            last_modified_unix,
            HeaderExtras {
                etag,
                ..HeaderExtras::default()
            },
        )
    }

    fn render(
        status: Status,
        content: Option<(&str, u64)>,
        keep_alive: bool,
        pad_align: bool,
        last_modified_unix: Option<i64>,
    ) -> ResponseHeader {
        Self::render_full(
            status,
            content,
            keep_alive,
            pad_align,
            last_modified_unix,
            HeaderExtras::default(),
        )
    }

    fn render_full(
        status: Status,
        content: Option<(&str, u64)>,
        keep_alive: bool,
        pad_align: bool,
        last_modified_unix: Option<i64>,
        extras: HeaderExtras<'_>,
    ) -> ResponseHeader {
        let body = match content {
            Some((ct, len)) => BodyMeta::Sized(ct, len),
            None => BodyMeta::None,
        };
        Self::render_any(
            status,
            body,
            keep_alive,
            pad_align,
            last_modified_unix,
            extras,
        )
    }

    fn render_any(
        status: Status,
        body: BodyMeta<'_>,
        keep_alive: bool,
        pad_align: bool,
        last_modified_unix: Option<i64>,
        extras: HeaderExtras<'_>,
    ) -> ResponseHeader {
        let mut h = String::with_capacity(224);
        let _ = write!(h, "HTTP/1.1 {} {}\r\n", status.code(), status.reason());
        // Real current time; IMF-fixdate is fixed-width, so header
        // lengths stay deterministic. Rendered at most once a second
        // per thread (see crate::date).
        date::with_now_imf(|now| {
            let _ = write!(h, "Date: {now}\r\n");
        });
        h.push_str("Server: Flash/1.0");
        let pad_at = h.len();
        h.push_str(if keep_alive {
            CONNECTION_KEEP
        } else {
            CONNECTION_CLOSE
        });
        if let Some(lm) = last_modified_unix {
            let _ = write!(h, "Last-Modified: {}\r\n", date::format_imf(lm));
        }
        if let Some(etag) = extras.etag {
            let _ = write!(h, "ETag: {etag}\r\n");
        }
        match extras.content_range {
            Some(ContentRange::Span { start, end, total }) => {
                let _ = write!(h, "Content-Range: bytes {start}-{end}/{total}\r\n");
            }
            Some(ContentRange::Unsatisfiable { total }) => {
                let _ = write!(h, "Content-Range: bytes */{total}\r\n");
            }
            None => {}
        }
        if extras.gzip {
            h.push_str("Content-Encoding: gzip\r\n");
        }
        if extras.vary_accept_encoding {
            h.push_str("Vary: Accept-Encoding\r\n");
        }
        match body {
            BodyMeta::Sized(content_type, content_length) => {
                let _ = write!(h, "Content-Type: {content_type}\r\n");
                let _ = write!(h, "Content-Length: {content_length}\r\n");
            }
            BodyMeta::Chunked(content_type) => {
                let _ = write!(h, "Content-Type: {content_type}\r\n");
                h.push_str("Transfer-Encoding: chunked\r\n");
            }
            BodyMeta::None => {}
        }
        h.push_str("\r\n");

        let mut bytes = h.into_bytes();
        let pad = Self::padding(bytes.len(), pad_align);
        // Pad the Server product token (a variable-length field the
        // paper calls out as the padding site) with trailing spaces.
        bytes.splice(pad_at..pad_at, std::iter::repeat_n(b' ', pad));
        Self::padded(bytes, pad_at, pad, pad_align)
    }

    /// Spaces that bring an `unpadded`-byte header to a multiple of
    /// [`ALIGN`], if padding is wanted at all.
    fn padding(unpadded: usize, pad_align: bool) -> usize {
        if pad_align {
            (ALIGN - unpadded % ALIGN) % ALIGN
        } else {
            0
        }
    }

    fn padded(bytes: Vec<u8>, pad_at: usize, pad: usize, pad_align: bool) -> ResponseHeader {
        let aligned = bytes.len().is_multiple_of(ALIGN);
        debug_assert!(!pad_align || aligned);
        ResponseHeader {
            bytes,
            aligned,
            pad_at,
            pad,
            pad_align,
        }
    }

    /// The `Connection: close` form of a keep-alive header, **derived**
    /// rather than rendered again: the two forms differ only in the
    /// `Connection` value and — the value being five bytes shorter —
    /// in the `Server` padding, so the close form is this header's
    /// bytes with those two spans rewritten. Byte-identical to
    /// rendering the same response with `keep_alive = false` in the
    /// same clock second (the `Date` value is copied, not re-read). A
    /// header already in its close form is returned as it is.
    pub fn close_form(&self) -> ResponseHeader {
        let server_end = self.pad_at + self.pad;
        let Some(rest) = self.bytes[server_end..].strip_prefix(CONNECTION_KEEP.as_bytes()) else {
            return self.clone();
        };
        let unpadded = self.pad_at + CONNECTION_CLOSE.len() + rest.len();
        let pad = Self::padding(unpadded, self.pad_align);
        let mut bytes = Vec::with_capacity(unpadded + pad);
        bytes.extend_from_slice(&self.bytes[..self.pad_at]);
        bytes.resize(self.pad_at + pad, b' ');
        bytes.extend_from_slice(CONNECTION_CLOSE.as_bytes());
        bytes.extend_from_slice(rest);
        Self::padded(bytes, self.pad_at, pad, self.pad_align)
    }

    /// The header bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The header bytes, without the copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Header length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Headers are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the header length is a multiple of [`ALIGN`].
    pub fn aligned(&self) -> bool {
        self.aligned
    }
}

/// Renders a minimal HTML error body for a status (used for 4xx/5xx).
pub fn error_body(status: Status) -> Vec<u8> {
    format!(
        "<html><head><title>{} {}</title></head>\n<body><h1>{}</h1></body></html>\n",
        status.code(),
        status.reason(),
        status.reason()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_headers_are_aligned() {
        for len in [0u64, 1, 512, 4096, 123_456_789] {
            for ka in [false, true] {
                let h = ResponseHeader::build(Status::Ok, "text/html", len, ka, true);
                assert_eq!(h.len() % ALIGN, 0, "len={len} ka={ka}");
                assert!(h.aligned());
            }
        }
    }

    #[test]
    fn unpadded_headers_usually_are_not_aligned() {
        let misaligned = (0..64)
            .filter(|len| {
                !ResponseHeader::build(Status::Ok, "text/plain", *len, false, false).aligned()
            })
            .count();
        assert!(misaligned > 48, "only {misaligned}/64 misaligned");
    }

    #[test]
    fn header_contains_required_fields() {
        let h = ResponseHeader::build(Status::Ok, "image/gif", 42, true, true);
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 42\r\n"));
        assert!(s.contains("Content-Type: image/gif\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn padding_preserves_header_syntax() {
        let h = ResponseHeader::build(Status::Ok, "text/html", 7, false, true);
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        // The padded Server line must still be one well-formed line.
        let server_line = s
            .lines()
            .find(|l| l.starts_with("Server:"))
            .expect("server header present");
        assert!(server_line.trim_end().ends_with("Flash/1.0"));
    }

    #[test]
    fn status_codes_and_reasons() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::NotModified.code(), 304);
        assert_eq!(Status::InternalError.reason(), "Internal Server Error");
    }

    #[test]
    fn error_bodies_mention_the_status() {
        let b = String::from_utf8(error_body(Status::NotFound)).unwrap();
        assert!(b.contains("404"));
        assert!(b.contains("Not Found"));
    }

    #[test]
    fn deterministic_for_same_inputs() {
        // The Date field moves once a second; two back-to-back builds
        // land in the same second except across a boundary, absorbed by
        // retrying.
        for _ in 0..3 {
            let a = ResponseHeader::build(Status::Ok, "text/html", 100, true, true);
            let b = ResponseHeader::build(Status::Ok, "text/html", 100, true, true);
            if a == b {
                return;
            }
        }
        panic!("three straight builds disagreed");
    }

    #[test]
    fn date_is_current_imf_fixdate() {
        let before = crate::date::unix_now();
        let h = ResponseHeader::build(Status::Ok, "text/html", 1, true, true);
        let after = crate::date::unix_now();
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        let date_line = s
            .lines()
            .find_map(|l| l.strip_prefix("Date: "))
            .expect("Date header present");
        let t = crate::date::parse_imf(date_line).expect("Date must be IMF-fixdate");
        assert!(
            (before..=after).contains(&t),
            "Date {t} outside [{before}, {after}]"
        );
    }

    /// `Date` value blanked: two renders can straddle a second.
    fn scrub_date(h: &ResponseHeader) -> Vec<u8> {
        let mut b = h.as_bytes().to_vec();
        let at = b.windows(6).position(|w| w == b"Date: ").unwrap() + 6;
        b[at..at + date::IMF_FIXDATE_LEN].fill(b'_');
        b
    }

    /// Every header shape the server renders, keep-alive form: its
    /// derived close form is the rendered close form, padded or not —
    /// the padding remainder moves with each digit of the length.
    #[test]
    fn close_form_is_the_rendered_close_form() {
        let extras = HeaderExtras {
            etag: Some("\"2ebd1ca1-2a\""),
            content_range: Some(ContentRange::Span {
                start: 5,
                end: 14,
                total: 42,
            }),
            gzip: true,
            vary_accept_encoding: true,
        };
        for pad in [true, false] {
            let build = |keep| {
                let mut all = vec![
                    ResponseHeader::build_chunked(Status::Ok, "text/plain", keep, pad),
                    ResponseHeader::not_modified_full(keep, Some(784_111_777), Some("\"aa-1\"")),
                ];
                for len in (0..10).flat_map(|d| [10u64.pow(d) - 1, 10u64.pow(d)]) {
                    all.push(ResponseHeader::build(
                        Status::Ok,
                        "image/gif",
                        len,
                        keep,
                        pad,
                    ));
                    all.push(ResponseHeader::build_full(
                        Status::PartialContent,
                        Some(("text/html", len)),
                        keep,
                        pad,
                        Some(784_111_777),
                        extras,
                    ));
                }
                all
            };
            for (keep, close) in build(true).iter().zip(&build(false)) {
                let derived = keep.close_form();
                assert_eq!(
                    String::from_utf8(scrub_date(&derived)).unwrap(),
                    String::from_utf8(scrub_date(close)).unwrap()
                );
                assert_eq!(derived.aligned(), close.aligned());
                // A close form is its own close form.
                assert_eq!(derived.close_form(), derived);
            }
        }
    }

    #[test]
    fn last_modified_rides_along_and_stays_aligned() {
        let h = ResponseHeader::build_with_last_modified(
            Status::Ok,
            "text/html",
            42,
            true,
            true,
            784_111_777,
        );
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(s.contains("Last-Modified: Sun, 06 Nov 1994 08:49:37 GMT\r\n"));
        assert_eq!(h.len() % ALIGN, 0);
    }

    #[test]
    fn extras_render_between_connection_and_content() {
        let h = ResponseHeader::build_full(
            Status::PartialContent,
            Some(("text/html", 10)),
            true,
            true,
            Some(784_111_777),
            HeaderExtras {
                etag: Some("\"2ebd1ca1-2a\""),
                content_range: Some(ContentRange::Span {
                    start: 5,
                    end: 14,
                    total: 42,
                }),
                gzip: true,
                vary_accept_encoding: true,
            },
        );
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(s.starts_with("HTTP/1.1 206 Partial Content\r\n"), "{s}");
        assert!(s.contains("ETag: \"2ebd1ca1-2a\"\r\n"));
        assert!(s.contains("Content-Range: bytes 5-14/42\r\n"));
        assert!(s.contains("Content-Encoding: gzip\r\n"));
        assert!(s.contains("Vary: Accept-Encoding\r\n"));
        assert!(s.contains("Content-Length: 10\r\n"));
        assert_eq!(h.len() % ALIGN, 0, "extras must not break alignment");
        // Date stays the second line regardless of extras — the cache's
        // zero-copy date splice depends on that layout.
        assert!(s.lines().nth(1).unwrap().starts_with("Date: "));
    }

    #[test]
    fn chunked_header_swaps_length_for_transfer_encoding() {
        for ka in [false, true] {
            let h = ResponseHeader::build_chunked(Status::Ok, "text/plain", ka, true);
            let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
            assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
            assert!(s.contains("Transfer-Encoding: chunked\r\n"));
            assert!(s.contains("Content-Type: text/plain\r\n"));
            assert!(
                !s.contains("Content-Length"),
                "chunked and Content-Length are mutually exclusive"
            );
            assert!(!s.contains("ETag") && !s.contains("Last-Modified"));
            assert_eq!(h.len() % ALIGN, 0, "chunked headers stay aligned");
            assert!(s.lines().nth(1).unwrap().starts_with("Date: "));
        }
    }

    #[test]
    fn gateway_timeout_status_renders() {
        assert_eq!(Status::GatewayTimeout.code(), 504);
        assert_eq!(Status::GatewayTimeout.reason(), "Gateway Timeout");
        let b = String::from_utf8(error_body(Status::GatewayTimeout)).unwrap();
        assert!(b.contains("504"));
    }

    #[test]
    fn unsatisfiable_content_range_renders_star_form() {
        let h = ResponseHeader::build_full(
            Status::RangeNotSatisfiable,
            Some(("text/html", 0)),
            false,
            true,
            None,
            HeaderExtras {
                content_range: Some(ContentRange::Unsatisfiable { total: 42 }),
                ..HeaderExtras::default()
            },
        );
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(
            s.starts_with("HTTP/1.1 416 Range Not Satisfiable\r\n"),
            "{s}"
        );
        assert!(s.contains("Content-Range: bytes */42\r\n"));
    }

    #[test]
    fn etag_value_is_strong_and_variant_distinct() {
        let id = etag_value(Some(784_111_777), 42, false);
        let gz = etag_value(Some(784_111_777), 42, true);
        assert!(id.starts_with('"') && id.ends_with('"'));
        assert_ne!(id, gz, "variants must never share a tag");
        assert_eq!(etag_value(None, 7, false), "\"0-7\"");
    }

    #[test]
    fn not_modified_full_carries_etag() {
        let h = ResponseHeader::not_modified_full(true, Some(784_111_777), Some("\"aa-1\""));
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(s.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(s.contains("ETag: \"aa-1\"\r\n"));
        assert!(!s.contains("Content-Length"));
    }

    #[test]
    fn not_modified_is_bodyless_by_construction() {
        let h = ResponseHeader::not_modified(true, Some(784_111_777));
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(s.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{s}");
        assert!(!s.contains("Content-Length"), "304 must not promise a body");
        assert!(!s.contains("Content-Type"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.contains("Last-Modified: Sun, 06 Nov 1994 08:49:37 GMT\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
        // And without a known mtime the validator line is simply absent.
        let h = ResponseHeader::not_modified(false, None);
        let s = String::from_utf8(h.as_bytes().to_vec()).unwrap();
        assert!(!s.contains("Last-Modified"));
        assert!(s.contains("Connection: close\r\n"));
    }
}
