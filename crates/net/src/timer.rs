//! Per-connection deadlines in one ordered set: O(log n) arm and
//! cancel, O((expired + 1) log n) expiry, where n is the number of
//! armed timers.
//!
//! The idle reaper this replaced swept the whole connection table on
//! every wait — O(conns) per cadence, the ROADMAP's scaling blocker
//! past ~10k connections per shard. Here each armed key has exactly
//! one entry, held twice: a map from key to the tick it is due at, and
//! a set of `(tick, key)` pairs ordered by due tick. `arm` and `cancel`
//! remove the old pair at once, so the set is always exactly the armed
//! timers — no stale entries to sweep, memory in proportion to the
//! live connections and never to the request rate. Re-arming to the
//! *same* tick (a steadily progressing sender re-arming faster than
//! the tick granularity) is a no-op. Expiry pops from the front while
//! the front is due, and keys due in one tick fire in key order.
//!
//! Timers never fire **early**: deadlines round *up* to a tick
//! boundary and a tick fires only once it has fully elapsed. They fire
//! at most one tick late: [`TimerWheel::next_timeout_ms`] is the time
//! to the earliest armed tick, so the caller's wait ends when the next
//! timer is due — and a shard whose nearest deadline is minutes away
//! sleeps for minutes. Callers pick the tick as a fraction of their
//! smallest timeout ([`tick_for`] uses 1/8th).
//!
//! The type keeps the name `TimerWheel`, from the hashed wheel this
//! replaced, because the benchmark (`loadbench`) imports it by that
//! name.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::event::TokenMap;

/// The armed deadlines. Keys are caller-chosen `u64`s (the server uses
/// the same packed slot+fd tokens its event backend uses, so an expiry
/// can be validated against slot reuse exactly like a readiness event).
pub struct TimerWheel {
    /// The tick, in nanoseconds.
    tick: u64,
    start: Instant,
    /// Key → the tick it fires at. Keys are the caller's own tokens,
    /// hashed with a multiply ([`crate::event::TokenHash`]).
    armed: TokenMap<u64, u64>,
    /// The same timers as `(tick, key)`, earliest first.
    due: BTreeSet<(u64, u64)>,
}

/// Tick duration for a set of configured timeouts: an eighth of the
/// smallest, clamped to [1 ms, 1 s]. Rounding (≤1 tick) then bounds
/// expiry lateness to ≤ deadline × 1.125 for every timeout in the set.
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
    /// An empty set ticking at `tick` granularity, starting now.
    pub fn new(tick: Duration) -> TimerWheel {
        TimerWheel::new_at(tick, Instant::now())
    }

    /// An empty set with an explicit epoch — a shard starts its timers
    /// at its environment's clock, so under the deterministic sim every
    /// `arm`/`expire` instant is one base `Instant` plus simulated
    /// nanoseconds and the timers' behavior is a pure function of the
    /// simulation.
    pub fn new_at(tick: Duration, start: Instant) -> TimerWheel {
        TimerWheel {
            tick: tick.max(Duration::from_millis(1)).as_nanos() as u64,
            start,
            armed: TokenMap::default(),
            due: BTreeSet::new(),
        }
    }

    /// Whether `key` currently has an armed timer — the invariant
    /// checkers' view, so "every conn with a deadline class has an
    /// armed timer and vice versa" is directly assertable.
    pub fn is_armed(&self, key: u64) -> bool {
        self.armed.contains_key(&key)
    }

    /// Number of armed timers.
    pub fn pending(&self) -> usize {
        self.armed.len()
    }

    /// Nanoseconds from the epoch to `at` (in 64 bits: 584 years),
    /// so no tick arithmetic divides in 128.
    fn since_start(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// Arms (or re-arms) the timer for `key` to fire at `deadline`,
    /// rounded up to a tick boundary. Re-arming to the already-armed
    /// tick is a no-op, so per-byte progress re-arms cost one lookup
    /// until they actually move the deadline by a tick.
    pub fn arm(&mut self, key: u64, deadline: Instant) {
        let tick = self.since_start(deadline).div_ceil(self.tick);
        if let Some(old) = self.armed.insert(key, tick) {
            if old == tick {
                return;
            }
            self.due.remove(&(old, key));
        }
        self.due.insert((tick, key));
        debug_assert_eq!(self.due.len(), self.armed.len());
    }

    /// Disarms `key`'s timer, if it has one.
    pub fn cancel(&mut self, key: u64) {
        if let Some(tick) = self.armed.remove(&key) {
            self.due.remove(&(tick, key));
        }
        debug_assert_eq!(self.due.len(), self.armed.len());
    }

    /// Milliseconds, rounded up, until the earliest armed timer is due
    /// (0 if one already is) — what the event loop's wait should be
    /// bounded by. `None` when nothing is armed (the loop may block
    /// indefinitely).
    pub fn next_timeout_ms(&self, now: Instant) -> Option<i32> {
        let &(tick, _) = self.due.first()?;
        let left = (tick * self.tick).saturating_sub(self.since_start(now));
        Some(left.div_ceil(1_000_000).min(i32::MAX as u64) as i32)
    }

    /// Appends every key due by `now` to `out` (cleared first), earliest
    /// tick first and in key order within a tick, and disarms it.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<u64>) {
        out.clear();
        let now_tick = self.since_start(now) / self.tick;
        while let Some(&(_, key)) = self.due.first().filter(|&&(tick, _)| tick <= now_tick) {
            self.due.pop_first();
            self.armed.remove(&key);
            out.push(key);
        }
        debug_assert_eq!(self.due.len(), self.armed.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// A set and its epoch, both taken now.
    fn timers(tick: Duration) -> (TimerWheel, Instant) {
        let start = Instant::now();
        (TimerWheel::new_at(tick, start), start)
    }

    fn expire(w: &mut TimerWheel, at: Instant) -> Vec<u64> {
        let mut out = Vec::new();
        w.expire(at, &mut out);
        out
    }

    #[test]
    fn fires_at_the_rounded_tick_never_early_and_at_most_a_tick_late() {
        let (mut w, t0) = timers(10 * MS);
        w.arm(1, t0 + 25 * MS); // rounds up to tick 3 = 30 ms
        assert_eq!(w.pending(), 1);
        assert!(expire(&mut w, t0 + 24 * MS).is_empty(), "before deadline");
        assert_eq!(w.next_timeout_ms(t0 + 24 * MS), Some(6), "wait to the tick");
        assert!(
            expire(&mut w, t0 + 29 * MS).is_empty(),
            "deadline rounds UP: 25 ms arms tick 30 ms"
        );
        assert_eq!(expire(&mut w, t0 + 30 * MS), vec![1]);
        assert_eq!(w.pending(), 0);
        assert!(expire(&mut w, t0 + 100 * MS).is_empty(), "fires once");
    }

    #[test]
    fn next_timeout_is_the_earliest_armed_tick_not_the_next_boundary() {
        let (mut w, t0) = timers(100 * MS);
        assert_eq!(w.next_timeout_ms(t0), None, "nothing armed: block");
        w.arm(1, t0 + Duration::from_secs(5));
        w.arm(2, t0 + Duration::from_secs(60));
        assert_eq!(w.next_timeout_ms(t0 + 30 * MS), Some(4970));
        // Sub-millisecond remainders round up, so the wait never ends
        // before the tick has elapsed.
        let almost = t0 + Duration::from_micros(4_999_001);
        assert_eq!(w.next_timeout_ms(almost), Some(1));
        assert_eq!(w.next_timeout_ms(t0 + Duration::from_secs(6)), Some(0));
        w.cancel(1);
        assert_eq!(w.next_timeout_ms(t0), Some(60_000));
        w.cancel(2);
        assert_eq!(w.next_timeout_ms(t0), None, "cancel empties the set");
    }

    #[test]
    fn rearm_to_the_same_tick_is_a_noop_not_a_duplicate() {
        let (mut w, t0) = timers(10 * MS);
        for _ in 0..1000 {
            w.arm(9, t0 + 55 * MS);
        }
        assert_eq!(w.pending(), 1);
        assert!(expire(&mut w, t0 + 59 * MS).is_empty());
        assert_eq!(expire(&mut w, t0 + 60 * MS), vec![9]);
        assert!(expire(&mut w, t0 + 500 * MS).is_empty(), "fired once");
    }

    #[test]
    fn rearm_moves_the_deadline_and_cancel_suppresses_it() {
        let (mut w, t0) = timers(10 * MS);
        w.arm(3, t0 + 20 * MS);
        w.arm(3, t0 + 200 * MS);
        assert_eq!(w.pending(), 1, "re-arm replaces, never duplicates");
        assert!(
            expire(&mut w, t0 + 100 * MS).is_empty(),
            "old deadline is dead"
        );
        assert_eq!(expire(&mut w, t0 + 200 * MS), vec![3]);

        w.arm(7, t0 + 215 * MS);
        w.cancel(7);
        w.cancel(8); // never armed
        assert_eq!(w.pending(), 0);
        assert!(expire(&mut w, t0 + 500 * MS).is_empty());
    }

    #[test]
    fn a_deadline_past_256_ticks_fires_on_time() {
        let (mut w, t0) = timers(MS);
        w.arm(5, t0 + 306 * MS);
        assert!(expire(&mut w, t0 + 256 * MS).is_empty());
        assert!(expire(&mut w, t0 + 305 * MS).is_empty());
        assert_eq!(expire(&mut w, t0 + 306 * MS), vec![5]);
    }

    #[test]
    fn one_expire_after_a_long_stall_returns_everything_due() {
        let (mut w, t0) = timers(MS);
        for k in 0..50u64 {
            w.arm(k, t0 + (10 + k as u32) * MS);
        }
        w.arm(99, t0 + Duration::from_secs(10));
        let fired = expire(&mut w, t0 + 768 * MS);
        assert_eq!(fired, (0..50).collect::<Vec<_>>(), "earliest first");
        assert_eq!(w.pending(), 1, "the future one stays armed");
    }

    #[test]
    fn distinct_keys_in_one_tick_fire_independently_in_key_order() {
        let (mut w, t0) = timers(10 * MS);
        for key in [4, 1, 3, 2] {
            w.arm(key, t0 + 20 * MS);
        }
        w.cancel(2);
        w.arm(3, t0 + 40 * MS);
        assert_eq!(expire(&mut w, t0 + 20 * MS), vec![1, 4]);
        assert_eq!(expire(&mut w, t0 + 40 * MS), vec![3]);
    }

    /// A key that alternates between two deadlines — a dynamic
    /// request's worker wait and the idle period behind it — holds one
    /// entry however often it moves.
    #[test]
    fn alternating_rearms_leave_exactly_the_armed_timers() {
        let (mut w, t0) = timers(10 * MS);
        for key in 0..8 {
            w.arm(key, t0 + 50 * MS);
        }
        for i in 0..100_000u64 {
            let key = 100 + i % 2;
            w.arm(key, t0 + 10_000 * MS);
            w.arm(key, t0 + 30_000 * MS);
        }
        assert_eq!(w.pending(), 10);
        assert_eq!(expire(&mut w, t0 + 60 * MS), (0..8).collect::<Vec<_>>());
        assert!(expire(&mut w, t0 + 29_999 * MS).is_empty());
        assert_eq!(expire(&mut w, t0 + 30_000 * MS), vec![100, 101]);
        assert_eq!(w.pending(), 0);
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
}
