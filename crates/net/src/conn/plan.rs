//! The **response plane**: one pure planner that turns (resource,
//! request conditions) into a [`ResponsePlan`] — status, header
//! segments, and a [`BodySource`] byte window — for *every* response
//! either tier produces. Conditional precedence (`If-None-Match` over
//! `If-Modified-Since`), `If-Range` gating, single-range resolution to
//! `206`/`416`, and variant headers are decided here and nowhere else;
//! drivers only ever transmit the window they are handed.
//!
//! The tier split itself (in-memory `writev` vs. `sendfile` window) is
//! decided at load time by [`super::HelperJob::inline_max`] and merely
//! *reflected* here: a cached resource yields [`BodySource::Bytes`]
//! windows, a file resource yields [`BodySource::File`] windows, and
//! range arithmetic is identical for both.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use flash_http::request::{IfRange, RangeSpec, Request};
use flash_http::response::{error_body, ContentRange, HeaderExtras, ResponseHeader, Status};
use flash_http::{etag_matches, mime};

use crate::cache::{self, Entry};
use crate::stats::Tier;

use super::machine::{Conn, SendFileState};
use super::{ConnIo, ShardStats};

/// The conditional/negotiation slice of one request, snapshotted onto
/// the connection at parse time — the response is often rendered by a
/// helper completion long after the `Request` itself is gone.
#[derive(Debug, Clone, Default)]
pub struct RequestCond {
    /// `If-Modified-Since`, parsed to unix seconds (an unparseable
    /// date makes the request unconditional).
    pub if_modified_since: Option<i64>,
    /// `If-None-Match`, verbatim; takes precedence over
    /// `If-Modified-Since` when present (RFC 9110 §13.1.3).
    pub if_none_match: Option<String>,
    /// A well-formed single-range `Range: bytes=..` header (malformed
    /// or multi-range headers were dropped at parse time: ignoring the
    /// header — a full `200` — is the compliant degradation).
    pub range: Option<RangeSpec>,
    /// `If-Range`: gates `range` on a strong validator match.
    pub if_range: Option<IfRange>,
    /// Whether `Accept-Encoding` admits gzip.
    pub accept_gzip: bool,
}

impl RequestCond {
    /// Snapshots the conditional fields of a parsed request.
    pub fn from_request(req: &Request) -> RequestCond {
        RequestCond {
            if_modified_since: req
                .if_modified_since
                .as_deref()
                .and_then(flash_http::date::parse_imf),
            if_none_match: req.if_none_match.clone(),
            range: req.range,
            if_range: req.if_range.clone(),
            accept_gzip: req.accept_gzip,
        }
    }
}

/// The representation about to be served, unified across the two
/// storage tiers so the planner never branches on "cached or fd": both
/// hold an [`Entry`] for the headers and validators, and differ only in
/// where the body is.
pub enum Resource<'a, F> {
    /// A content-cache entry (body resident, headers pre-rendered).
    Cached(&'a Arc<Entry>),
    /// An open file handle of `len` bytes bound for the `sendfile`
    /// window seam, under its [`Entry::head`].
    File {
        head: &'a Entry,
        file: &'a F,
        len: u64,
    },
}

impl<'a, F: Clone> Resource<'a, F> {
    /// Complete representation length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Resource::Cached(e) => e.body.len() as u64,
            Resource::File { len, .. } => *len,
        }
    }

    /// Whether the representation is empty (`len() == 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The headers and validators, whichever tier holds the body.
    fn head(&self) -> &Entry {
        match self {
            Resource::Cached(e) => e,
            Resource::File { head, .. } => head,
        }
    }

    /// The byte window `[offset, offset+len)` of this representation as
    /// a transmittable body source.
    fn window(&self, offset: u64, len: u64) -> BodySource<F> {
        match self {
            Resource::Cached(e) => {
                BodySource::Bytes(e.body.slice(offset as usize..(offset + len) as usize))
            }
            Resource::File { file, .. } => BodySource::File {
                file: (*file).clone(),
                offset,
                len,
            },
        }
    }
}

/// A byte window over some representation — the only body shape a
/// driver ever transmits. Which storage it windows decides the
/// transmit mechanism, not the semantics.
pub enum BodySource<F> {
    /// In-memory bytes, queued on the gathered-`writev` path.
    Bytes(Bytes),
    /// A file window `[offset, offset+len)`, streamed through the
    /// [`ConnIo::sendfile`] seam with partial-send resumption and the
    /// fairness budget.
    File { file: F, offset: u64, len: u64 },
    /// No body (`304`, or a zero-length window).
    Empty,
    /// An open chunked stream: the body's length is unknown when the
    /// header goes out — an application worker produces it
    /// incrementally and the shard appends each chunk to the output
    /// queue as its [`super::DynEvent`] arrives. Queueing this source
    /// opens the connection's stream state; the terminal frame (or an
    /// error path) closes it. HEAD never opens a stream — the header
    /// is kept and the source dropped, like every other body.
    Stream,
}

/// One fully-decided response: status for the access log, header
/// segments to queue verbatim, and the body window. HEAD is applied at
/// queue time (header kept — with the true `Content-Length` /
/// `Content-Range` — body dropped).
pub struct ResponsePlan<F> {
    pub status: Status,
    /// Access-log tier (`NotModified` for 304, `Error` for 416, the
    /// caller's serving tier otherwise).
    pub tier: Tier,
    /// Header segments, queued ahead of the body (a plain `200`'s, on
    /// either tier, arrives as zero-copy slices around a fresh date).
    pub header: Vec<Bytes>,
    pub body: BodySource<F>,
}

/// Decides the response for `resource` under `cond` — the single
/// authority for conditional precedence, `If-Range` gating, and range
/// resolution on **both** tiers:
///
/// 1. `If-None-Match` first (weak comparison, `*` allowed); when
///    present it *replaces* `If-Modified-Since` entirely. A match is a
///    `304` carrying the representation's `ETag`.
/// 2. Otherwise `If-Modified-Since` (unix-seconds comparison) may
///    yield the `304`.
/// 3. A `Range` header applies only when `If-Range` is absent or its
///    strong validator matches exactly; a satisfiable single range is
///    a `206` with `Content-Range: bytes start-end/total` and the
///    matching byte window; an unsatisfiable one is a `416` with
///    `Content-Range: bytes */total` (keep-alive preserved — the
///    connection is fine, the range was not).
/// 4. Everything else is the plain `200` with the pre-rendered header
///    ([`Entry::push_header`]), on either tier.
///
/// `path` is the resource's URL path (content-type only); `body_tier`
/// is the access-log tier a body-bearing response reports.
pub fn plan_response<F: Clone>(
    resource: &Resource<'_, F>,
    path: &str,
    cond: &RequestCond,
    keep_alive: bool,
    body_tier: Tier,
    stats: &ShardStats,
) -> ResponsePlan<F> {
    let head = resource.head();
    let etag = head.etag.as_str();
    let mtime = head.mtime;
    let total = resource.len();
    // Conditional evaluation: If-None-Match wins outright when present.
    let not_modified = match cond.if_none_match.as_deref() {
        Some(inm) => etag_matches(inm, etag),
        None => head.not_modified_since(cond.if_modified_since),
    };
    if not_modified {
        stats.not_modified.fetch_add(1, Ordering::Relaxed);
        let extras = HeaderExtras {
            etag: Some(etag),
            ..HeaderExtras::default()
        };
        let hdr =
            ResponseHeader::build_full(Status::NotModified, None, keep_alive, true, mtime, extras);
        return ResponsePlan {
            status: Status::NotModified,
            tier: Tier::NotModified,
            header: vec![Bytes::from(hdr.as_bytes().to_vec())],
            body: BodySource::Empty,
        };
    }
    // Range applies only when If-Range is absent or matches strongly.
    let range = cond.range.filter(|_| {
        cond.if_range
            .as_ref()
            .is_none_or(|ir| ir.matches(etag, mtime))
    });
    if let Some(spec) = range {
        stats.range_requests.fetch_add(1, Ordering::Relaxed);
        let extras_for = |content_range| HeaderExtras {
            etag: Some(etag),
            content_range: Some(content_range),
            gzip: head.variant.is_gzip(),
            vary_accept_encoding: head.variant.is_gzip() || head.has_gzip,
        };
        match spec.resolve(total) {
            Some((start, end)) => {
                let len = end - start + 1;
                let hdr = ResponseHeader::build_full(
                    Status::PartialContent,
                    Some((mime::content_type(path), len)),
                    keep_alive,
                    true,
                    mtime,
                    extras_for(ContentRange::Span { start, end, total }),
                );
                return ResponsePlan {
                    status: Status::PartialContent,
                    tier: body_tier,
                    header: vec![Bytes::from(hdr.as_bytes().to_vec())],
                    body: resource.window(start, len),
                };
            }
            None => {
                stats.range_unsatisfiable.fetch_add(1, Ordering::Relaxed);
                let body = Bytes::from(error_body(Status::RangeNotSatisfiable));
                let hdr = ResponseHeader::build_full(
                    Status::RangeNotSatisfiable,
                    Some(("text/html", body.len() as u64)),
                    keep_alive,
                    true,
                    None,
                    extras_for(ContentRange::Unsatisfiable { total }),
                );
                return ResponsePlan {
                    status: Status::RangeNotSatisfiable,
                    tier: Tier::Error,
                    header: vec![Bytes::from(hdr.as_bytes().to_vec())],
                    body: BodySource::Bytes(body),
                };
            }
        }
    }
    // Plain 200: the pre-rendered header pair with a current `Date`,
    // full-body window.
    let mut header = Vec::with_capacity(3);
    head.push_header(keep_alive, &mut header);
    ResponsePlan {
        status: Status::Ok,
        tier: body_tier,
        header,
        body: resource.window(0, total),
    }
}

/// Applies a plan to a connection: headers onto the `writev` queue,
/// the body window onto whichever transmit path it names — unless the
/// request was HEAD, which keeps the headers (true `Content-Length` /
/// `Content-Range` included) and drops the body.
pub fn queue_plan<Io: ConnIo>(conn: &mut Conn<Io>, plan: ResponsePlan<Io::FileRef>) {
    conn.out.extend(plan.header);
    if conn.head_only {
        return;
    }
    match plan.body {
        BodySource::Bytes(b) => {
            if !b.is_empty() {
                conn.out.push_back(b);
            }
        }
        BodySource::File { file, offset, len } => {
            if len > 0 {
                conn.sendfile = Some(SendFileState {
                    file,
                    offset,
                    remaining: len,
                });
            }
        }
        BodySource::Empty => {}
        BodySource::Stream => {
            conn.stream_open = true;
        }
    }
}

/// The dynamic tier's chunked `200` header, both forms, and where
/// their `Date` value sits: the one header the tier sends, rendered
/// once per thread.
struct ChunkedPair {
    keep: Bytes,
    close: Bytes,
    date_at: Option<usize>,
}

thread_local! {
    /// Per thread — a shard's, or an MT connection's — like the date
    /// cache it splices from, so no two threads share a reference count.
    static CHUNKED_200: ChunkedPair = {
        let keep = ResponseHeader::build_chunked(Status::Ok, "text/plain", true, true);
        let close = Bytes::from(keep.close_form().into_bytes());
        let keep = Bytes::from(keep.into_bytes());
        let date_at = cache::date_offset(&keep, &close);
        ChunkedPair { keep, close, date_at }
    };
}

/// The dynamic tier's response plan: a chunked `200` whose body is an
/// open [`BodySource::Stream`]. Dynamic responses bypass the
/// conditional plane entirely — no `ETag`, `Last-Modified`, `304`, or
/// `Range` handling applies ([`plan_response`] is never consulted);
/// the worker's output is generated per request and has no validators.
/// So the header never varies but for `Connection` and `Date`: it is
/// the thread's pre-rendered pair with the current `Date` spliced in,
/// as a cached entry's is ([`Entry::push_header`]) — three zero-copy
/// segments, nothing rendered per response.
pub fn plan_dynamic<F>(keep_alive: bool) -> ResponsePlan<F> {
    let mut header = Vec::with_capacity(3);
    CHUNKED_200.with(|pair| {
        let hdr = if keep_alive { &pair.keep } else { &pair.close };
        cache::push_dated(hdr, pair.date_at, &mut header);
    });
    ResponsePlan {
        status: Status::Ok,
        tier: Tier::Dynamic,
        header,
        body: BodySource::Stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{variant_key, Variant};

    fn stats() -> ShardStats {
        ShardStats::default()
    }

    fn entry() -> Arc<Entry> {
        Entry::build_with_mtime("/a.html", b"0123456789".to_vec(), Some(1_000_000))
    }

    /// A resource with no backing file — `F = ()` exercises the cached
    /// arm only.
    fn plan_cached(cond: &RequestCond, e: &Arc<Entry>, s: &ShardStats) -> ResponsePlan<()> {
        let res: Resource<'_, ()> = Resource::Cached(e);
        plan_response(&res, "/a.html", cond, true, Tier::Hit, s)
    }

    #[test]
    fn inm_match_beats_newer_ims() {
        let e = entry();
        let s = stats();
        // IMS alone would say "modified" (validator older than mtime),
        // but a matching If-None-Match must win with a 304.
        let cond = RequestCond {
            if_modified_since: Some(1),
            if_none_match: Some(e.etag.clone()),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::NotModified));
        assert_eq!(s.not_modified.load(Ordering::Relaxed), 1);
        // And a non-matching INM suppresses a would-be IMS 304.
        let cond = RequestCond {
            if_modified_since: Some(2_000_000),
            if_none_match: Some("\"other\"".into()),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::Ok));
    }

    #[test]
    fn satisfiable_range_windows_the_body() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::PartialContent));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Content-Range: bytes 2-5/10\r\n"), "{hdr}");
        assert!(hdr.contains("Content-Length: 4\r\n"), "{hdr}");
        match plan.body {
            BodySource::Bytes(b) => assert_eq!(&b[..], b"2345"),
            _ => panic!("cached resource must window in memory"),
        }
        assert_eq!(s.range_requests.load(Ordering::Relaxed), 1);
        assert_eq!(s.range_unsatisfiable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unsatisfiable_range_is_416_with_star_form_and_keepalive() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=99-"),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::RangeNotSatisfiable));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Content-Range: bytes */10\r\n"), "{hdr}");
        assert!(
            hdr.contains("Connection: keep-alive\r\n"),
            "416 must not cost the connection: {hdr}"
        );
        assert_eq!(s.range_unsatisfiable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn if_range_mismatch_degrades_to_full_200() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            if_range: Some(IfRange::Tag("\"stale\"".into())),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::Ok));
        match plan.body {
            BodySource::Bytes(b) => assert_eq!(b.len(), 10, "full body, not the window"),
            _ => panic!("expected in-memory body"),
        }
        assert_eq!(
            s.range_requests.load(Ordering::Relaxed),
            0,
            "a gated-out range is not a range request"
        );
        // A matching If-Range lets the window through.
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            if_range: Some(IfRange::Tag(e.etag.clone())),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::PartialContent));
    }

    #[test]
    fn file_resource_windows_through_sendfile_seam() {
        let head = Entry::head("/big.bin", 100_000, Some(7), Variant::Identity, false);
        let file = 42u32;
        let res: Resource<'_, u32> = Resource::File {
            head: &head,
            file: &file,
            len: 100_000,
        };
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=-500"),
            ..Default::default()
        };
        let plan = plan_response(&res, "/big.bin", &cond, true, Tier::Sendfile, &s);
        assert!(matches!(plan.status, Status::PartialContent));
        match plan.body {
            BodySource::File { file, offset, len } => {
                assert_eq!(file, 42);
                assert_eq!(offset, 99_500);
                assert_eq!(len, 500);
            }
            _ => panic!("file resource must window through sendfile"),
        }
        // Its plain 200 is its head's, with a current `Date` spliced in
        // as a cached entry's is, and the whole file behind it.
        let plan = plan_response(
            &res,
            "/big.bin",
            &RequestCond::default(),
            false,
            Tier::Sendfile,
            &s,
        );
        assert!(matches!(plan.status, Status::Ok));
        assert_eq!(plan.header.len(), 3, "prefix + date + suffix");
        let joined: Vec<u8> = plan.header.iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(joined.len(), head.header_close.len());
        assert!(matches!(
            plan.body,
            BodySource::File {
                offset: 0,
                len: 100_000,
                ..
            }
        ));
    }

    #[test]
    fn dynamic_plan_is_chunked_and_unconditional() {
        let plan: ResponsePlan<()> = plan_dynamic(true);
        assert!(matches!(plan.status, Status::Ok));
        assert!(matches!(plan.tier, Tier::Dynamic));
        assert!(matches!(plan.body, BodySource::Stream));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Transfer-Encoding: chunked\r\n"), "{hdr}");
        assert!(!hdr.contains("Content-Length"), "{hdr}");
        assert!(!hdr.contains("ETag"), "dynamic bypasses validators: {hdr}");
        assert!(!hdr.contains("Last-Modified"), "{hdr}");
    }

    /// The thread's pre-rendered chunked pair is the header a render
    /// would give, in both forms — `Date` aside, which is spliced in
    /// current: three segments, the rendered length, so the alignment.
    #[test]
    fn plan_dynamic_splices_a_current_date_into_the_rendered_pair() {
        let blank = |b: &[u8]| {
            let mut b = b.to_vec();
            let at = b.windows(6).position(|w| w == b"Date: ").unwrap() + 6;
            b[at..at + flash_http::date::IMF_FIXDATE_LEN].fill(b'_');
            String::from_utf8(b).unwrap()
        };
        for keep in [true, false] {
            let plan: ResponsePlan<()> = plan_dynamic(keep);
            assert_eq!(plan.header.len(), 3, "prefix + date + suffix");
            let joined: Vec<u8> = plan.header.iter().flat_map(|s| s.to_vec()).collect();
            let rendered = ResponseHeader::build_chunked(Status::Ok, "text/plain", keep, true);
            assert_eq!(
                blank(&joined),
                blank(rendered.as_bytes()),
                "keep-alive: {keep}"
            );
            assert_eq!(joined.len() % 32, 0, "the splice keeps the alignment");
            let text = String::from_utf8(joined).unwrap();
            let date = text.lines().find_map(|l| l.strip_prefix("Date: ")).unwrap();
            let t = flash_http::date::parse_imf(date).expect("valid IMF-fixdate");
            assert!((t - flash_http::date::unix_now()).abs() <= 2, "date is now");
        }
    }

    #[test]
    fn variant_keys_round_trip() {
        let k = variant_key("/x", Variant::Gzip);
        assert_eq!(crate::cache::split_variant_key(&k), ("/x", Variant::Gzip));
    }
}
