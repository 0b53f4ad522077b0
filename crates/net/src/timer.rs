//! A hashed timing wheel: per-connection deadlines with O(1) arm,
//! O(1) cancel, and O(expired) expiry.
//!
//! The idle reaper this replaces swept the whole connection table on
//! every wait — O(conns) per cadence, the ROADMAP's scaling blocker
//! past ~10k connections per shard. The wheel instead hashes each
//! deadline into one of [`WHEEL_SLOTS`] coarse tick buckets
//! (`slot = deadline_tick % WHEEL_SLOTS`), so advancing the clock
//! touches only the buckets whose ticks have elapsed, and each bucket
//! holds only the timers that hash there. Deadlines further out than
//! one wheel revolution simply stay in their bucket until their tick
//! actually comes around (the "hashed" scheme, versus a cascading
//! hierarchical wheel — at one revolution ≥ 256 × tick, a multi-lap
//! timer is touched a handful of times over its whole life).
//!
//! **Cancellation is lazy.** Re-arming a timer on every byte of write
//! progress must be cheap, so `arm`/`cancel` never search a bucket:
//! the wheel keeps an authoritative `armed` map (key → generation +
//! tick) and every bucket entry carries the generation it was pushed
//! with. A bucket entry whose generation no longer matches the map is
//! stale — dropped for free when its bucket is next processed. As an
//! extra guard against churn, re-arming to the *same* tick (a
//! steadily-progressing sender re-arming faster than the tick
//! granularity) is a no-op.
//!
//! **Stale entries are bounded by the live ones, not by the clock.** A
//! bucket comes round a whole timeout after its entries were pushed,
//! and a connection that alternates between two deadline classes — a
//! dynamic request arms the worker-wait deadline, its response the
//! idle one, ten and thirty seconds out — re-arms to a new tick twice
//! a request: left to the clock, that is 48 bytes a request for half a
//! minute, memory in proportion to the request rate. So the wheel
//! counts its entries, and when the stale ones outnumber the live ones
//! by more than a constant it drops them all in one pass, paid for by
//! the arms, cancels and expiries that made it necessary (amortised
//! O(1)). The bound — entries ≤ 2 × armed + [`STALE_SLACK`] — therefore
//! holds between any two calls, and `ShardCore::check_invariants`
//! asserts it.
//!
//! Timers never fire **early**: deadlines round *up* to a tick
//! boundary and a tick is processed only once it has fully elapsed.
//! They fire at most one tick late (plus the caller's wait cadence,
//! which [`TimerWheel::next_timeout_ms`] bounds to the next tick
//! boundary) — callers pick the tick as a fraction of their smallest
//! timeout ([`tick_for`] uses 1/8th) to keep worst-case lateness
//! within ~1.25× the configured deadline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Number of buckets in the wheel. 256 keeps the per-revolution
/// re-touch cost of long timers negligible while the bucket array
/// stays a fraction of a page.
pub const WHEEL_SLOTS: usize = 256;

/// Stale bucket entries tolerated beyond one per live timer before the
/// wheel sweeps them out (24 bytes each).
pub const STALE_SLACK: usize = 1024;

/// The authoritative record of one armed timer.
#[derive(Debug, Clone, Copy)]
struct Armed {
    gen: u64,
    tick: u64,
}

/// One bucket entry; live iff its `gen` matches the `armed` map.
#[derive(Debug, Clone, Copy)]
struct Slotted {
    key: u64,
    gen: u64,
    tick: u64,
}

/// The wheel. Keys are caller-chosen `u64`s (the server uses the same
/// packed slot+fd tokens its event backend uses, so an expiry can be
/// validated against slot reuse exactly like a readiness event).
pub struct TimerWheel {
    tick: Duration,
    start: Instant,
    /// Next tick to process: every tick < `cur` has been processed.
    cur: u64,
    slots: Vec<Vec<Slotted>>,
    /// Entries in `slots`, live and stale together; each armed key has
    /// exactly one live one.
    entries: usize,
    armed: HashMap<u64, Armed>,
    gen: u64,
}

/// Tick duration for a set of configured timeouts: an eighth of the
/// smallest, clamped to [1 ms, 1 s]. Rounding (≤1 tick) plus wait
/// cadence (≤1 tick) then bounds expiry lateness to ≤ deadline × 1.25
/// for every timeout in the set.
pub fn tick_for<I>(timeouts: I) -> Duration
where
    I: IntoIterator<Item = Duration>,
{
    let min = timeouts.into_iter().min();
    match min {
        Some(t) => (t / 8).clamp(Duration::from_millis(1), Duration::from_secs(1)),
        None => Duration::from_secs(1),
    }
}

impl TimerWheel {
    /// An empty wheel ticking at `tick` granularity, starting now.
    pub fn new(tick: Duration) -> TimerWheel {
        TimerWheel::new_at(tick, Instant::now())
    }

    /// An empty wheel with an explicit epoch — a shard starts its wheel
    /// at its environment's clock, so under the deterministic sim every
    /// `arm`/`expire` instant is one base `Instant` plus simulated
    /// nanoseconds and the wheel's behavior is a pure function of the
    /// simulation.
    pub fn new_at(tick: Duration, start: Instant) -> TimerWheel {
        TimerWheel {
            tick: tick.max(Duration::from_millis(1)),
            start,
            cur: 0,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            entries: 0,
            armed: HashMap::new(),
            gen: 0,
        }
    }

    /// Whether `key` currently has a live (armed) timer — the
    /// invariant checkers' view, so "every conn with a deadline class
    /// has a wheel entry and vice versa" is directly assertable.
    pub fn is_armed(&self, key: u64) -> bool {
        self.armed.contains_key(&key)
    }

    /// Number of armed (live) timers.
    pub fn pending(&self) -> usize {
        self.armed.len()
    }

    /// Bucket entries held, live and stale together.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Ticks that have *fully elapsed* by `now` (floor).
    fn elapsed_ticks(&self, now: Instant) -> u64 {
        (now.saturating_duration_since(self.start).as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// The tick a deadline rounds up to — never earlier than the
    /// deadline, and never a tick the wheel has already processed.
    fn deadline_tick(&self, deadline: Instant) -> u64 {
        let nanos = deadline.saturating_duration_since(self.start).as_nanos();
        let t = self.tick.as_nanos().max(1);
        (nanos.div_ceil(t) as u64).max(self.cur)
    }

    /// Arms (or re-arms) the timer for `key` to fire at `deadline`.
    /// O(1). Re-arming to a deadline that rounds to the already-armed
    /// tick is a no-op, so per-byte progress re-arms cost nothing until
    /// they actually move the deadline by a tick.
    pub fn arm(&mut self, key: u64, deadline: Instant) {
        let tick = self.deadline_tick(deadline);
        if let Some(a) = self.armed.get(&key) {
            if a.tick == tick {
                return;
            }
        }
        self.gen += 1;
        let gen = self.gen;
        self.armed.insert(key, Armed { gen, tick });
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(Slotted { key, gen, tick });
        self.entries += 1;
        self.bound_stale();
    }

    /// Disarms `key`'s timer. O(1): the bucket entry goes stale and is
    /// dropped when its bucket next comes around, or by the sweep.
    pub fn cancel(&mut self, key: u64) {
        self.armed.remove(&key);
        self.bound_stale();
    }

    /// Drops every stale entry once they outnumber the live ones by
    /// more than [`STALE_SLACK`].
    fn bound_stale(&mut self) {
        if self.entries > 2 * self.armed.len() + STALE_SLACK {
            let armed = &self.armed;
            for bucket in &mut self.slots {
                bucket.retain(|e| armed.get(&e.key).is_some_and(|a| a.gen == e.gen));
            }
            self.entries = armed.len();
        }
    }

    /// Milliseconds until the next tick boundary — what the event
    /// loop's wait should be bounded by. `None` when nothing is armed
    /// (the loop may block indefinitely).
    pub fn next_timeout_ms(&self, now: Instant) -> Option<i32> {
        if self.armed.is_empty() {
            return None;
        }
        let tick = self.tick.as_nanos().max(1);
        let boundary = (self.elapsed_ticks(now) as u128 + 1) * tick;
        let since_start = now.saturating_duration_since(self.start).as_nanos();
        let ms = (boundary.saturating_sub(since_start) / 1_000_000) as i64;
        Some(ms.clamp(1, i32::MAX as i64) as i32)
    }

    /// Advances the wheel to `now`, appending every expired key to
    /// `out` (cleared first) and disarming it. Work is proportional to
    /// elapsed ticks plus the entries in their buckets — **never** to
    /// the total number of armed timers.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<u64>) {
        out.clear();
        let now_tick = self.elapsed_ticks(now);
        if self.cur > now_tick {
            return;
        }
        // After a stall longer than a full revolution every bucket is
        // due anyway; one pass over the wheel replaces the (arbitrarily
        // long) tick-by-tick walk.
        if now_tick - self.cur >= WHEEL_SLOTS as u64 {
            for slot in 0..WHEEL_SLOTS {
                self.process_slot(slot, now_tick, out);
            }
            self.cur = now_tick + 1;
            return;
        }
        while self.cur <= now_tick {
            let slot = (self.cur % WHEEL_SLOTS as u64) as usize;
            let due = self.cur;
            self.process_slot(slot, due, out);
            self.cur += 1;
        }
    }

    /// Drains one bucket: fires live entries due by `due_tick`, keeps
    /// live future-revolution entries, drops stale ones.
    fn process_slot(&mut self, slot: usize, due_tick: u64, out: &mut Vec<u64>) {
        if self.slots[slot].is_empty() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.slots[slot]);
        self.entries -= bucket.len();
        bucket.retain(|e| {
            match self.armed.get(&e.key) {
                Some(a) if a.gen == e.gen => {
                    if e.tick <= due_tick {
                        out.push(e.key);
                        false // fired; disarmed below
                    } else {
                        true // a later revolution of this bucket
                    }
                }
                _ => false, // stale: cancelled or re-armed since
            }
        });
        self.entries += bucket.len();
        self.slots[slot] = bucket;
        for key in out.iter() {
            self.armed.remove(key);
        }
        self.bound_stale();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expire at an absolute offset from the wheel's start.
    fn expire_at(w: &mut TimerWheel, offset: Duration) -> Vec<u64> {
        let mut out = Vec::new();
        w.expire(w.start + offset, &mut out);
        out
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn fires_at_rounded_tick_never_early() {
        let mut w = TimerWheel::new(10 * MS);
        let deadline = w.start + 25 * MS; // rounds up to tick 3 = 30 ms
        w.arm(1, deadline);
        assert_eq!(w.pending(), 1);
        assert!(expire_at(&mut w, 24 * MS).is_empty(), "before deadline");
        assert!(
            expire_at(&mut w, 29 * MS).is_empty(),
            "deadline rounds UP: 25 ms arms tick 30 ms"
        );
        assert_eq!(expire_at(&mut w, 30 * MS), vec![1]);
        assert_eq!(w.pending(), 0);
        assert!(expire_at(&mut w, 100 * MS).is_empty(), "fires once");
    }

    /// A key that alternates between two deadlines — a dynamic
    /// request's worker wait and the idle period behind it — leaves a
    /// stale entry at every re-arm; they are swept by count, long
    /// before their ticks come round, and nothing live goes with them.
    #[test]
    fn stale_entries_are_bounded_by_the_live_ones_not_the_clock() {
        let mut w = TimerWheel::new(10 * MS);
        for key in 0..8 {
            w.arm(key, w.start + 50 * MS);
        }
        for i in 0..100_000u64 {
            let key = 100 + i % 2;
            w.arm(key, w.start + 10_000 * MS);
            w.arm(key, w.start + 30_000 * MS);
            let held: usize = w.slots.iter().map(Vec::len).sum();
            assert_eq!(held, w.entries);
            assert!(held <= 2 * w.pending() + STALE_SLACK + 1, "{held} entries");
        }
        assert_eq!(w.pending(), 10);
        // Cancelling leaves no more behind than arming does.
        for key in 1000..3000 {
            w.arm(key, w.start + 20_000 * MS);
        }
        for key in 1000..3000 {
            w.cancel(key);
            assert!(
                w.entries() <= 2 * w.pending() + STALE_SLACK,
                "{} entries",
                w.entries()
            );
        }
        let mut fired = expire_at(&mut w, 60 * MS);
        fired.sort_unstable();
        assert_eq!(fired, (0..8).collect::<Vec<u64>>());
        assert!(expire_at(&mut w, 29_999 * MS).is_empty());
        let mut fired = expire_at(&mut w, 30_000 * MS);
        fired.sort_unstable();
        assert_eq!(fired, vec![100, 101]);
        assert_eq!((w.pending(), w.entries), (0, 0));
    }

    #[test]
    fn cancel_suppresses_firing() {
        let mut w = TimerWheel::new(10 * MS);
        w.arm(7, w.start + 15 * MS);
        w.cancel(7);
        assert_eq!(w.pending(), 0);
        assert!(expire_at(&mut w, 500 * MS).is_empty());
    }

    #[test]
    fn rearm_on_progress_moves_the_deadline() {
        let mut w = TimerWheel::new(10 * MS);
        w.arm(3, w.start + 20 * MS);
        // Forward progress: push the deadline out before it fires.
        w.arm(3, w.start + 200 * MS);
        assert_eq!(w.pending(), 1, "re-arm replaces, never duplicates");
        assert!(
            expire_at(&mut w, 100 * MS).is_empty(),
            "old deadline is dead"
        );
        assert_eq!(expire_at(&mut w, 200 * MS), vec![3]);
    }

    #[test]
    fn rearm_to_same_tick_is_a_noop_not_a_duplicate() {
        let mut w = TimerWheel::new(10 * MS);
        for _ in 0..1000 {
            // A fast sender re-arming within one tick: the bucket must
            // not accumulate an entry per call.
            w.arm(9, w.start + 55 * MS);
        }
        assert_eq!(w.slots[6].len(), 1, "same-tick re-arms must not pile up");
        assert_eq!(expire_at(&mut w, 60 * MS), vec![9]);
    }

    #[test]
    fn multi_revolution_timer_survives_wrap() {
        // Deadline more than one full revolution out: its bucket is
        // visited WHEEL_SLOTS ticks earlier, where it must be kept, not
        // fired (the hashed wheel's lap check).
        let mut w = TimerWheel::new(MS);
        let one_rev = MS * WHEEL_SLOTS as u32;
        w.arm(5, w.start + one_rev + 50 * MS);
        assert!(
            expire_at(&mut w, one_rev).is_empty(),
            "first lap must keep the timer"
        );
        assert_eq!(w.pending(), 1);
        assert!(expire_at(&mut w, one_rev + 49 * MS).is_empty());
        assert_eq!(expire_at(&mut w, one_rev + 50 * MS), vec![5]);
    }

    #[test]
    fn stall_past_a_revolution_fires_everything_due() {
        let mut w = TimerWheel::new(MS);
        for k in 0..50u64 {
            w.arm(k, w.start + Duration::from_millis(10 + k));
        }
        // The loop stalls for 3 revolutions; one call collects all.
        let mut fired = expire_at(&mut w, MS * (3 * WHEEL_SLOTS) as u32);
        fired.sort_unstable();
        assert_eq!(fired, (0..50).collect::<Vec<_>>());
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn expiry_touches_only_elapsed_buckets() {
        // O(expired): with 10k timers parked far in the future, an
        // expire over a few elapsed ticks must not walk them. Proxy
        // measurement: buckets for unelapsed ticks keep their entries
        // untouched (len unchanged), and nothing fires.
        let mut w = TimerWheel::new(10 * MS);
        for k in 0..10_000u64 {
            w.arm(
                k,
                w.start + Duration::from_secs(2) + Duration::from_millis(k),
            );
        }
        let before: usize = w.slots.iter().map(Vec::len).sum();
        assert!(expire_at(&mut w, 30 * MS).is_empty());
        let after: usize = w.slots.iter().map(Vec::len).sum();
        assert_eq!(before, after, "future timers must not be disturbed");
        assert_eq!(w.pending(), 10_000);
    }

    #[test]
    fn next_timeout_tracks_the_tick_boundary() {
        let mut w = TimerWheel::new(100 * MS);
        assert_eq!(w.next_timeout_ms(w.start), None, "empty wheel blocks");
        w.arm(1, w.start + Duration::from_secs(5));
        let ms = w.next_timeout_ms(w.start + 30 * MS).unwrap();
        // 70 ms to the next boundary (±1 for integer truncation).
        assert!((1..=100).contains(&ms), "got {ms}");
        w.cancel(1);
        assert_eq!(w.next_timeout_ms(w.start), None, "cancel empties the wheel");
    }

    #[test]
    fn tick_for_scales_with_the_smallest_timeout() {
        assert_eq!(
            tick_for([Duration::from_secs(30), Duration::from_secs(4)]),
            Duration::from_millis(500)
        );
        // Clamped below...
        assert_eq!(tick_for([Duration::from_millis(2)]), MS);
        // ...and above.
        assert_eq!(
            tick_for([Duration::from_secs(3600)]),
            Duration::from_secs(1)
        );
        // No timeouts configured: granularity is moot, wheel stays idle.
        assert_eq!(tick_for([]), Duration::from_secs(1));
    }

    #[test]
    fn distinct_keys_in_one_bucket_fire_independently() {
        let mut w = TimerWheel::new(10 * MS);
        // Same tick, three keys; cancel one, re-arm another later.
        w.arm(1, w.start + 20 * MS);
        w.arm(2, w.start + 20 * MS);
        w.arm(3, w.start + 20 * MS);
        w.cancel(2);
        w.arm(3, w.start + 40 * MS);
        let mut fired = expire_at(&mut w, 20 * MS);
        fired.sort_unstable();
        assert_eq!(fired, vec![1]);
        assert_eq!(expire_at(&mut w, 40 * MS), vec![3]);
    }
}
