//! The deterministic event scheduler.
//!
//! [`Scheduler`] is a calendar queue (Brown, CACM 1988): events hash into
//! time-windowed buckets of width `2^shift` nanoseconds. A bucket keeps
//! its later instants in front and its earliest instant at the back, and
//! the entries of one instant in the order they were scheduled, so the
//! bucket's earliest run is its back slice in FIFO order. Popping scans
//! bucket windows forward from the clock; the first bucket whose back
//! entry falls inside the bucket's current window holds the global
//! minimum. Bucket count and width adapt to the queued population, so
//! `schedule`/`pop` are amortized O(1) instead of a binary heap's
//! O(log n) per event.
//!
//! Ordering is by `(time, sequence)`: two events scheduled for the same
//! instant pop in the order they were scheduled, which makes whole
//! simulations replayable. A scheduled event always fires: there is no
//! cancellation. A deadline that moves earlier is answered by scheduling
//! a second event and letting the later one fire as a harmless poll.
//!
//! `tests/sched_equivalence.rs` holds the calendar to a plain binary-heap
//! oracle under randomized and lock-step workloads.

use crate::time::{SimDuration, SimTime};

/// 16 bytes of key beside the event: a 48-byte event makes a queued
/// entry exactly one 64-byte cache line.
struct Entry<E> {
    at: SimTime,
    /// Scheduling order: a resize re-sorts the population by `(at, seq)`.
    seq: u64,
    event: E,
}

/// Smallest bucket count the calendar shrinks down to.
const MIN_BUCKETS: usize = 4;
/// Largest bucket count the calendar grows up to (2^20 buckets).
const MAX_BUCKETS: usize = 1 << 20;
/// Largest bucket-width exponent (widths beyond 2^62 ns are pointless).
const MAX_SHIFT: u32 = 62;
/// Initial bucket-width exponent: 2^10 ns ≈ 1 µs, the ballpark of NIC
/// event spacing before the first adaptive resize.
const INITIAL_SHIFT: u32 = 10;
/// Clock advances a resize needs before it re-sizes the width; with
/// fewer (a burst of inserts doubling the population) the width stays.
const MIN_ADVANCES: u64 = 16;
/// Drained runs between two looks at the median clock advance, so the
/// width also follows the head of a queue whose population holds steady.
const WIDTH_CHECK_RUNS: u64 = 4096;

/// A deterministic discrete-event queue (calendar queue).
///
/// The scheduler owns the simulation clock: [`Scheduler::pop`] advances
/// `now()` to the popped event's timestamp. Scheduling in the past is a
/// programming error and panics, because it would make causality ambiguous.
///
/// # Example
///
/// ```
/// use ftgm_sim::{Scheduler, SimDuration};
///
/// let mut s: Scheduler<u32> = Scheduler::new();
/// s.schedule_in(SimDuration::from_us(2), 2);
/// s.schedule_in(SimDuration::from_us(1), 1);
/// assert_eq!(s.peek_time().map(|t| t.as_nanos()), Some(1_000));
/// assert_eq!(s.pop().map(|(_, e)| e), Some(1));
/// assert_eq!(s.pop().map(|(_, e)| e), Some(2));
/// assert!(s.pop().is_none());
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    next_event_seq: u64,
    /// Buckets sorted descending by time and, within one instant,
    /// ascending by sequence: the bucket's earliest instant is its back
    /// run, oldest entry first.
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; the bucket count is always a power of two.
    mask: usize,
    /// Bucket width is `2^shift` nanoseconds.
    shift: u32,
    /// Scheduled, not yet fired entries.
    live: usize,
    popped: u64,
    /// Clock advances since the width was last sized, counted by
    /// `floor(log2(ns))`: how far apart the head's instants are.
    advances: [u64; 64],
    /// Runs drained since the last width check.
    runs: u64,
    /// The median advance the current width was sized from.
    sized_from: Option<u32>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_event_seq: 0,
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            shift: INITIAL_SHIFT,
            live: 0,
            popped: 0,
            advances: [0; 64],
            runs: 0,
            sized_from: None,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }

    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.as_nanos() >> self.shift) as usize) & self.mask
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than `now()`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        let idx = self.bucket_of(at);
        let bucket = &mut self.buckets[idx];
        let entry = Entry { at, seq, event };
        // The newest entry of its instant goes behind every entry at or
        // after `at` and in front of every earlier one. An event at `now`,
        // or one joining its bucket's earliest instant, has nothing
        // earlier behind it: a push.
        match bucket.last() {
            Some(back) if back.at < at => {
                let pos = bucket.partition_point(|e| e.at >= at);
                bucket.insert(pos, entry);
            }
            _ => bucket.push(entry),
        }
        self.live += 1;
        if self.live > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Finds the bucket holding the global minimum and that minimum's
    /// timestamp.
    ///
    /// Scans bucket windows forward from `now`: within one calendar
    /// rotation each window maps to exactly one bucket, so the first back
    /// entry found inside its own window is the earliest event. If a
    /// whole rotation turns up nothing (every event is beyond one
    /// rotation), the scan has visited every bucket once and returns the
    /// earliest of their minima; one instant's entries all share a
    /// bucket, so comparing times suffices.
    fn locate_min(&self) -> Option<(usize, SimTime)> {
        if self.live == 0 {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        let base = self.now.as_nanos() >> self.shift;
        let mut earliest: Option<(usize, SimTime)> = None;
        for k in 0..nbuckets {
            let window = base.saturating_add(k);
            let idx = (window as usize) & self.mask;
            if let Some(e) = self.buckets[idx].last() {
                if e.at.as_nanos() >> self.shift == window {
                    return Some((idx, e.at));
                }
                if earliest.is_none_or(|(_, at)| e.at < at) {
                    earliest = Some((idx, e.at));
                }
            }
        }
        earliest
    }

    /// Index of the first entry of the back run at instant `t` in bucket
    /// `idx`. Walks from the back, so it costs the run's length, which
    /// draining the run pays anyway.
    fn run_start(&self, idx: usize, t: SimTime) -> usize {
        let bucket = &self.buckets[idx];
        bucket.iter().rposition(|e| e.at != t).map_or(0, |i| i + 1)
    }

    /// Accounts for a run of `n` events fired at `t`. Shrinks the
    /// calendar if the population fell below a quarter of the bucket
    /// count, and every [`WIDTH_CHECK_RUNS`] runs rebuilds it if the
    /// median clock advance has moved since the width was sized.
    fn fired(&mut self, t: SimTime, n: usize) {
        debug_assert!(t >= self.now);
        let advance = t.as_nanos() - self.now.as_nanos();
        if advance > 0 {
            self.advances[advance.ilog2() as usize] += 1;
        }
        self.now = t;
        self.live -= n;
        self.popped += n as u64;
        self.runs += 1;
        let nbuckets = self.buckets.len();
        if self.live < nbuckets / 4 && nbuckets > MIN_BUCKETS {
            self.resize();
        } else if self.runs >= WIDTH_CHECK_RUNS {
            self.runs = 0;
            let median = self.median_advance();
            if median.is_some() && median != self.sized_from {
                self.resize();
            }
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    ///
    /// The oldest entry of the earliest instant sits at the front of its
    /// bucket's back run, so this moves the rest of that run;
    /// [`Scheduler::pop_run`] is the world's drain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (idx, t) = self.locate_min()?;
        let start = self.run_start(idx, t);
        let e = self.buckets[idx].remove(start);
        self.fired(t, 1);
        Some((t, e.event))
    }

    /// Drains the entire run of events sharing the earliest timestamp
    /// into `out` (cleared first), advancing the clock once. Returns the
    /// number of events drained; 0 means the queue is exhausted.
    ///
    /// Equal-timestamp events hash to the same bucket and sit contiguous
    /// at its back in FIFO order, so the run comes out in exactly the
    /// order repeated [`Scheduler::pop`] calls would deliver it — one
    /// bucket locate and one resize check amortized over the whole run
    /// instead of per event. Events scheduled *during* the run's
    /// execution carry higher sequence numbers, so handling the drained
    /// prefix before re-polling preserves replay order.
    pub fn pop_run(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        self.pop_run_by(SimTime::MAX, out)
    }

    /// [`Scheduler::pop_run`], but only if the earliest timestamp is at or
    /// before `deadline`; otherwise drains nothing, leaves the clock
    /// where it is and returns 0. One locate decides both whether a run
    /// is due and where it is.
    pub fn pop_run_by(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        out.clear();
        let Some((idx, t)) = self.locate_min() else {
            return 0;
        };
        if t > deadline {
            return 0;
        }
        let start = self.run_start(idx, t);
        out.extend(self.buckets[idx].drain(start..).map(|e| (t, e.event)));
        self.fired(t, out.len());
        out.len()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.locate_min().map(|(_, t)| t)
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Rebuilds the calendar for the current population: recomputes the
    /// bucket count (≈ one event per bucket) and the bucket width
    /// ([`width_shift`]).
    fn resize(&mut self) {
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.live);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        debug_assert_eq!(all.len(), self.live);

        let nbuckets = all
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Latest first, one instant's entries oldest first: pushing in
        // this order lays every bucket out as `schedule_at` keeps it.
        all.sort_unstable_by(|a, b| b.at.cmp(&a.at).then(a.seq.cmp(&b.seq)));
        if let Some(median) = self.median_advance() {
            self.shift = width_shift(median, &all, self.now, nbuckets);
            self.sized_from = Some(median);
            self.advances = [0; 64];
            self.runs = 0;
        }
        self.mask = nbuckets - 1;
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        for e in all {
            let idx = ((e.at.as_nanos() >> self.shift) as usize) & self.mask;
            self.buckets[idx].push(e);
        }
    }

    /// `floor(log2)` of the median clock advance since the width was
    /// last sized, or `None` below [`MIN_ADVANCES`] advances.
    fn median_advance(&self) -> Option<u32> {
        let advances: u64 = self.advances.iter().sum();
        if advances < MIN_ADVANCES {
            return None;
        }
        let mut seen = 0;
        let median = self.advances.iter().position(|&c| {
            seen += c;
            seen > advances / 2
        })?;
        Some(median as u32)
    }
}

/// The bucket-width exponent for `sorted` (the population, latest first)
/// spread over `nbuckets`, given the median clock advance `median`.
///
/// Brown sizes the width from the head of the queue, not from its
/// farthest timer: here it is the median advance, so the instants the
/// clock steps through land in buckets of their own and a same-instant
/// burst joins its bucket's back run with a push. It is widened only as
/// far as one rotation must reach to cover the nearer half of the queue;
/// the farther timers wrap around the calendar instead of stretching
/// every window.
fn width_shift<E>(median: u32, sorted: &[Entry<E>], now: SimTime, nbuckets: usize) -> u32 {
    let reach = sorted.get(sorted.len() / 2).map_or(0, |mid| {
        let per_bucket = (mid.at.as_nanos() - now.as_nanos()) >> nbuckets.ilog2();
        per_bucket.checked_ilog2().map_or(0, |b| b + 1)
    });
    median.max(reach).min(MAX_SHIFT)
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("buckets", &self.buckets.len())
            .field("width_ns", &(1u64 << self.shift))
            .field("live", &self.live)
            .field("delivered", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The behavioral contract; `tests/sched_equivalence.rs` holds the
    /// same contract on the binary-heap oracle.
    mod calendar {
        use super::super::*;

        #[test]
        fn pops_in_time_order() {
            let mut s: Scheduler<&str> = Scheduler::new();
            s.schedule_at(SimTime::from_nanos(30), "c");
            s.schedule_at(SimTime::from_nanos(10), "a");
            s.schedule_at(SimTime::from_nanos(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        }

        #[test]
        fn ties_break_fifo() {
            let mut s: Scheduler<u32> = Scheduler::new();
            for i in 0..10 {
                s.schedule_at(SimTime::from_nanos(5), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn clock_advances_on_pop() {
            let mut s: Scheduler<()> = Scheduler::new();
            s.schedule_at(SimTime::from_nanos(42), ());
            assert_eq!(s.now(), SimTime::ZERO);
            s.pop();
            assert_eq!(s.now(), SimTime::from_nanos(42));
        }

        #[test]
        #[should_panic(expected = "past")]
        fn scheduling_in_the_past_panics() {
            let mut s: Scheduler<()> = Scheduler::new();
            s.schedule_at(SimTime::from_nanos(10), ());
            s.pop();
            s.schedule_at(SimTime::from_nanos(5), ());
        }

        #[test]
        fn schedule_in_is_relative_to_now() {
            let mut s: Scheduler<u32> = Scheduler::new();
            s.schedule_at(SimTime::from_nanos(100), 1);
            s.pop();
            s.schedule_in(SimDuration::from_nanos(50), 2);
            assert_eq!(s.pop(), Some((SimTime::from_nanos(150), 2)));
        }

        #[test]
        fn empty_and_counters() {
            let mut s: Scheduler<u32> = Scheduler::new();
            assert!(s.is_empty());
            s.schedule_in(SimDuration::ZERO, 9);
            assert!(!s.is_empty());
            s.pop();
            assert!(s.is_empty());
            assert_eq!(s.events_delivered(), 1);
        }

        #[test]
        fn pop_run_drains_exactly_the_tie_run_in_fifo_order() {
            let mut s: Scheduler<u32> = Scheduler::new();
            for i in 0..5 {
                s.schedule_at(SimTime::from_nanos(10), i);
            }
            s.schedule_at(SimTime::from_nanos(11), 99);
            let mut out = Vec::new();
            assert_eq!(s.pop_run(&mut out), 5);
            for (k, &(at, e)) in out.iter().enumerate() {
                assert_eq!(at, SimTime::from_nanos(10));
                assert_eq!(e, k as u32);
            }
            assert_eq!(s.now(), SimTime::from_nanos(10));
            // The later timestamp is untouched by the first run.
            assert_eq!(s.pop_run(&mut out), 1);
            assert_eq!(out, vec![(SimTime::from_nanos(11), 99)]);
            assert_eq!(s.now(), SimTime::from_nanos(11));
            // Exhausted: returns 0 and leaves out empty.
            assert_eq!(s.pop_run(&mut out), 0);
            assert!(out.is_empty());
            assert_eq!(s.events_delivered(), 6);
        }

        #[test]
        fn pop_run_matches_sequential_pops() {
            // Same mixed workload through both drain styles must yield
            // the identical (time, payload) stream.
            let build = || {
                let mut s: Scheduler<u32> = Scheduler::new();
                for i in 0..200u32 {
                    let at = SimTime::from_nanos(u64::from(i * 13 % 29));
                    s.schedule_at(at, i);
                }
                s
            };
            let mut a = build();
            let singles: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
            let mut b = build();
            let mut runs = Vec::new();
            let mut out = Vec::new();
            while b.pop_run(&mut out) > 0 {
                runs.extend(out.drain(..));
            }
            assert_eq!(singles, runs);
            assert_eq!(a.events_delivered(), b.events_delivered());
        }
    }

    #[test]
    fn survives_growth_and_shrink_resizes() {
        let mut s: Scheduler<usize> = Scheduler::new();
        // Push well past several doublings, then drain — exercises both
        // the grow and shrink paths while order must stay intact.
        for i in 0..1_000 {
            s.schedule_at(SimTime::from_nanos((i as u64 * 37) % 911), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((at, _)) = s.pop() {
            assert!(at >= last.0);
            last = (at, last.1);
            n += 1;
        }
        assert_eq!(n, 1_000);
        assert_eq!(s.events_delivered(), 1_000);
    }

    #[test]
    fn far_future_events_use_the_fallback_scan() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // Far beyond one rotation of the initial 4×1µs calendar.
        s.schedule_at(SimTime::from_nanos(50_000_000_000), 2);
        s.schedule_at(SimTime::from_nanos(1_000_000_000), 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(1_000_000_000)));
        assert_eq!(s.pop().map(|(_, e)| e), Some(1));
        assert_eq!(s.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn max_deadline_is_representable() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::MAX, 9);
        s.schedule_at(SimTime::from_nanos(5), 1);
        assert_eq!(s.pop().map(|(_, e)| e), Some(1));
        assert_eq!(s.pop(), Some((SimTime::MAX, 9)));
    }

    #[test]
    fn pop_run_by_leaves_a_later_run_queued() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(20), 1);
        let mut out = Vec::new();
        assert_eq!(s.pop_run_by(SimTime::from_nanos(19), &mut out), 0);
        assert_eq!((s.now(), s.len()), (SimTime::ZERO, 1));
        assert_eq!(s.pop_run_by(SimTime::from_nanos(20), &mut out), 1);
        assert_eq!(out, vec![(SimTime::from_nanos(20), 1)]);
    }

    #[test]
    fn the_width_follows_the_head_of_the_queue() {
        // A steady population whose clock steps 8 ns at a time: the
        // periodic check narrows the initial 1 µs windows to the step.
        let mut s: Scheduler<u64> = Scheduler::new();
        for k in 1..=8 {
            s.schedule_at(SimTime::from_nanos(8 * k), k);
        }
        let mut out = Vec::new();
        for _ in 0..WIDTH_CHECK_RUNS {
            s.pop_run(&mut out);
            s.schedule_in(SimDuration::from_nanos(64), 0);
        }
        assert_eq!((s.shift, s.buckets.len()), (3, 8));
        // One rotation must still reach the nearer half of the queue: 256
        // timers a millisecond out widen 256 windows to 4 µs.
        let far: Vec<Entry<u64>> = (0..256u64)
            .map(|k| Entry { at: SimTime::from_nanos(1_000_000 + k), seq: k, event: k })
            .rev()
            .collect();
        assert_eq!(width_shift(3, &far, SimTime::from_nanos(512), 256), 12);
    }

    #[test]
    fn a_48_byte_event_makes_a_one_cache_line_entry() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 6]>>(), 64);
    }
}
