//! IMF-fixdate (RFC 9110 §5.6.7) formatting and parsing.
//!
//! HTTP dates appear on every response (`Date`), on every 200 with a
//! known file time (`Last-Modified`), and in conditional requests
//! (`If-Modified-Since`). The format is fixed-width — always exactly
//! [`IMF_FIXDATE_LEN`] bytes, e.g. `Sun, 06 Nov 1994 08:49:37 GMT` —
//! which keeps rendered header lengths deterministic (the simulator and
//! the §5.5 alignment padding both rely on that).
//!
//! Formatting walks the proleptic Gregorian calendar with the
//! days-from-civil algorithm (no `libc`, no chrono); [`now_imf_bytes`]
//! caches the rendered date **per second per thread** — each server
//! shard is a thread, so the hot path re-formats at most once a second
//! per shard and otherwise costs one integer compare — and is the one
//! source of the current date: [`with_now_imf`] reads it too.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Length of an IMF-fixdate string in bytes, always.
pub const IMF_FIXDATE_LEN: usize = 29;

const DAY_NAMES: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Civil date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`, valid across the proleptic Gregorian calendar).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11], March-based
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Days since 1970-01-01 for a civil date (the inverse of
/// [`civil_from_days`]).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Formats `unix_secs` as an IMF-fixdate, e.g.
/// `Sun, 06 Nov 1994 08:49:37 GMT`. Always [`IMF_FIXDATE_LEN`] bytes.
pub fn format_imf(unix_secs: i64) -> String {
    let days = unix_secs.div_euclid(86_400);
    let secs_of_day = unix_secs.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    // 1970-01-01 (day 0) was a Thursday, index 4 in the Sunday-based table.
    let weekday = (days + 4).rem_euclid(7) as usize;
    let (h, rest) = (secs_of_day / 3600, secs_of_day % 3600);
    let (min, s) = (rest / 60, rest % 60);
    let out = format!(
        "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
        DAY_NAMES[weekday],
        day,
        MONTH_NAMES[(month - 1) as usize],
        year,
        h,
        min,
        s
    );
    debug_assert_eq!(out.len(), IMF_FIXDATE_LEN);
    out
}

/// Parses an IMF-fixdate back to unix seconds. Returns `None` for
/// anything malformed (including the obsolete RFC 850 and asctime
/// forms) — a conditional request with an unparseable date is simply
/// treated as unconditional, which is the safe direction.
pub fn parse_imf(s: &str) -> Option<i64> {
    let s = s.trim();
    if s.len() != IMF_FIXDATE_LEN || !s.ends_with(" GMT") {
        return None;
    }
    let b = s.as_bytes();
    if &b[3..5] != b", " || b[7] != b' ' || b[11] != b' ' || b[16] != b' ' {
        return None;
    }
    if b[19] != b':' || b[22] != b':' {
        return None;
    }
    let num = |r: std::ops::Range<usize>| -> Option<i64> {
        let t = &s[r];
        if !t.bytes().all(|c| c.is_ascii_digit()) {
            return None;
        }
        t.parse().ok()
    };
    let day = num(5..7)?;
    let month = MONTH_NAMES.iter().position(|m| *m == &s[8..11])? as u32 + 1;
    let year = num(12..16)?;
    let (h, min, sec) = (num(17..19)?, num(20..22)?, num(23..25)?);
    if !(1..=31).contains(&day) || h > 23 || min > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(year, month, day as u32);
    let secs = days * 86_400 + h * 3600 + min * 60 + sec;
    // Round-trip check rejects impossible dates like Feb 30: the
    // forward formatting of the computed instant must name the same
    // civil day the caller wrote.
    let (y2, m2, d2) = civil_from_days(days);
    if y2 != year || m2 != month || d2 != day as u32 {
        return None;
    }
    // The weekday name must also agree (a lie here usually means a
    // corrupted header; being strict costs only a full re-send).
    let weekday = (days + 4).rem_euclid(7) as usize;
    if DAY_NAMES[weekday] != &s[0..3] {
        return None;
    }
    Some(secs)
}

/// Current unix time in whole seconds.
pub fn unix_now() -> i64 {
    match SystemTime::now().duration_since(UNIX_EPOCH) {
        Ok(d) => d.as_secs() as i64,
        Err(e) => -(e.duration().as_secs() as i64),
    }
}

/// Runs `f` with the current time as an IMF-fixdate: the text of
/// [`now_imf_bytes`], so a header rendered whole is dated as the
/// spliced `Date` is — by the thread's lent loop clock, if it has one —
/// and the date is formatted at most once a second per thread.
pub fn with_now_imf<R>(f: impl FnOnce(&str) -> R) -> R {
    let now = now_imf_bytes();
    f(std::str::from_utf8(&now).expect("an IMF-fixdate is ASCII"))
}

thread_local! {
    /// (second, rendered date as shared bytes) — see [`now_imf_bytes`].
    static NOW_BYTES: RefCell<(i64, bytes::Bytes)> =
        RefCell::new((i64::MIN, bytes::Bytes::new()));
    /// The clock an event loop on this thread lends the cache
    /// ([`set_loop_clock`]): its last reading, and the span of its
    /// instants over which the cached second is current.
    static LOOP_CLOCK: Cell<Option<(Instant, Instant, Instant)>> = const { Cell::new(None) };
}

/// Lends [`now_imf_bytes`] this thread's event-loop clock: `at` is the
/// loop's latest reading of it, and from here on the thread's date is
/// the second `at` falls in. The wall clock is read again only when a
/// reading leaves the second last rendered — once a second — not per
/// response. An event loop calls this with each reading it takes
/// anyway, so what it renders in a turn is dated by that turn's clock.
pub fn set_loop_clock(at: Instant) {
    LOOP_CLOCK.with(|c| {
        let (from, until) = c.get().map_or((at, at), |(_, from, until)| (from, until));
        c.set(Some((at, from, until)));
    });
}

/// Current time as IMF-fixdate [`bytes::Bytes`], cached per second per
/// thread; within one second every call returns a clone of the same
/// allocation (an `Arc` bump, no formatting, no copy) — what a server
/// splices into pre-rendered headers to keep their `Date` current. On a
/// thread that lends its loop's clock ([`set_loop_clock`]) a call
/// within the cached second reads no clock either.
pub fn now_imf_bytes() -> bytes::Bytes {
    let lent = LOOP_CLOCK.with(Cell::get);
    NOW_BYTES.with(|c| {
        let mut c = c.borrow_mut();
        if let Some((at, from, until)) = lent {
            if from <= at && at < until {
                return c.1.clone();
            }
        }
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        let now = wall.as_secs() as i64;
        if c.0 != now {
            c.1 = bytes::Bytes::from(format_imf(now).into_bytes());
            c.0 = now;
        }
        if let Some((at, ..)) = lent {
            // `at` is no later than the reading above, so the second
            // rendered lasts at least this long past it.
            let left = Duration::from_secs(1) - Duration::from_nanos(wall.subsec_nanos().into());
            LOOP_CLOCK.with(|c| c.set(Some((at, at, at + left))));
        }
        c.1.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_known_instants() {
        // RFC 9110's own example.
        assert_eq!(format_imf(784_111_777), "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(format_imf(0), "Thu, 01 Jan 1970 00:00:00 GMT");
        // The seed's old hardcoded date, for the record.
        assert_eq!(format_imf(929_040_392), "Thu, 10 Jun 1999 18:46:32 GMT");
    }

    #[test]
    fn format_is_fixed_width() {
        for t in [0i64, 1, 59, 784_111_777, 4_102_444_799, 253_402_300_799] {
            assert_eq!(format_imf(t).len(), IMF_FIXDATE_LEN, "t={t}");
        }
    }

    #[test]
    fn round_trips_through_parse() {
        for t in [0i64, 784_111_777, 929_040_392, 2_000_000_000] {
            assert_eq!(parse_imf(&format_imf(t)), Some(t), "t={t}");
        }
    }

    #[test]
    fn rejects_malformed_dates() {
        for bad in [
            "",
            "yesterday",
            "Sun, 06 Nov 1994 08:49:37 PST",  // not GMT
            "Sunday, 06-Nov-94 08:49:37 GMT", // RFC 850 form
            "Sun Nov  6 08:49:37 1994",       // asctime form
            "Mon, 06 Nov 1994 08:49:37 GMT",  // wrong weekday
            "Sun, 31 Feb 1994 08:49:37 GMT",  // impossible day
            "Sun, 06 Nov 1994 25:49:37 GMT",  // bad hour
            "Sun, 0x Nov 1994 08:49:37 GMT",  // non-digit
        ] {
            assert_eq!(parse_imf(bad), None, "{bad:?} must not parse");
        }
    }

    /// A lent clock dates what is rendered by its readings: the same
    /// second's segment while they stay in it, a fresh one once a
    /// reading leaves it — forward or, a clock of another loop, back.
    #[test]
    fn a_lent_loop_clock_dates_by_its_readings() {
        let t0 = Instant::now();
        set_loop_clock(t0);
        let first = now_imf_bytes();
        let t = parse_imf(std::str::from_utf8(&first).unwrap()).unwrap();
        assert!((t - unix_now()).abs() <= 2, "date is now");
        set_loop_clock(t0);
        assert_eq!(now_imf_bytes(), first, "same reading, same second");
        let (_, from, until) = LOOP_CLOCK.with(Cell::get).unwrap();
        assert!(from == t0 && until > t0 && until <= t0 + Duration::from_secs(1));
        for at in [until, t0 - Duration::from_millis(1)] {
            set_loop_clock(at);
            let _ = now_imf_bytes();
            let (_, from, _) = LOOP_CLOCK.with(Cell::get).unwrap();
            assert_eq!(
                from, at,
                "a reading out of the span re-reads the wall clock"
            );
        }
    }

    #[test]
    fn now_cache_matches_direct_formatting() {
        // Within one call the cache and a direct render agree (modulo a
        // second boundary, absorbed by retrying), and a whole header's
        // date is the spliced one.
        for _ in 0..3 {
            let direct = format_imf(unix_now());
            let cached = with_now_imf(str::to_owned);
            if direct == cached {
                assert_eq!(parse_imf(&cached), parse_imf(&direct));
                assert_eq!(cached.as_bytes(), &now_imf_bytes()[..]);
                return;
            }
        }
        panic!("cache and direct render disagreed across three attempts");
    }
}
