//! The deterministic event scheduler.
//!
//! [`Scheduler`] is a calendar queue (Brown, CACM 1988): events hash into
//! time-windowed buckets of width `2^shift` nanoseconds, each bucket kept
//! sorted so its earliest entry is at the back. Popping scans bucket
//! windows forward from the clock; the first entry whose timestamp falls
//! inside its bucket's current window is the global minimum. Bucket count
//! and width adapt to the queued population, so `schedule`/`pop` are
//! amortized O(1) instead of a binary heap's O(log n) per event.
//!
//! Ordering is by `(time, sequence)`: two events scheduled for the same
//! instant pop in the order they were scheduled, which makes whole
//! simulations replayable. A scheduled event always fires: there is no
//! cancellation. A deadline that moves earlier is answered by scheduling
//! a second event and letting the later one fire as a harmless poll.
//!
//! [`HeapScheduler`] is a plain binary heap with the same interface. It
//! is the *differential-test oracle*: the `sched_equivalence` suite
//! drives randomized push/pop/pop-run workloads through both
//! implementations and asserts identical pop order. Not used in
//! production worlds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// 16 bytes of key beside the event: a 48-byte event makes a queued
/// entry exactly one 64-byte cache line.
struct Entry<E> {
    at: SimTime,
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
    /// Buckets sorted descending by `(at, seq)`: the bucket's earliest
    /// entry is at the back, so popping it is O(1).
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; the bucket count is always a power of two.
    mask: usize,
    /// Bucket width is `2^shift` nanoseconds.
    shift: u32,
    /// Scheduled, not yet fired entries.
    live: usize,
    popped: u64,
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
        // Keep the bucket sorted descending by (at, seq): everything
        // strictly greater than the new entry stays in front of it.
        let pos = bucket.partition_point(|e| (e.at, e.seq) > (at, seq));
        bucket.insert(pos, Entry { at, seq, event });
        self.live += 1;
        if self.live > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Finds the bucket whose back entry is the global minimum.
    ///
    /// Scans bucket windows forward from `now`: within one calendar
    /// rotation each window maps to exactly one bucket, so the first back
    /// entry found inside its own window is the earliest event. If a
    /// whole rotation turns up nothing (every event is beyond one rotation),
    /// falls back to a direct min-scan over all bucket minima.
    fn locate_min(&self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        let base = self.now.as_nanos() >> self.shift;
        for k in 0..nbuckets {
            let window = base.saturating_add(k);
            let idx = (window as usize) & self.mask;
            if let Some(e) = self.buckets[idx].last() {
                if e.at.as_nanos() >> self.shift == window {
                    return Some(idx);
                }
            }
        }
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.last() {
                if best.is_none_or(|(at, seq, _)| (e.at, e.seq) < (at, seq)) {
                    best = Some((e.at, e.seq, idx));
                }
            }
        }
        best.map(|(_, _, idx)| idx)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self.locate_min()?;
        let e = self.buckets[idx].pop()?;
        self.live -= 1;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.popped += 1;
        let nbuckets = self.buckets.len();
        if self.live < nbuckets / 4 && nbuckets > MIN_BUCKETS {
            self.resize();
        }
        Some((e.at, e.event))
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
        out.clear();
        let Some(idx) = self.locate_min() else {
            return 0;
        };
        let Some(first) = self.buckets[idx].pop() else {
            return 0;
        };
        let t = first.at;
        debug_assert!(t >= self.now);
        self.now = t;
        out.push((t, first.event));
        while let Some(e) = self.buckets[idx].pop_if(|e| e.at == t) {
            out.push((t, e.event));
        }
        self.live -= out.len();
        self.popped += out.len() as u64;
        let nbuckets = self.buckets.len();
        if self.live < nbuckets / 4 && nbuckets > MIN_BUCKETS {
            self.resize();
        }
        out.len()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let idx = self.locate_min()?;
        self.buckets[idx].last().map(|e| e.at)
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
    /// bucket count (≈ one event per bucket) and the bucket width (≈ the
    /// mean gap between now and the farthest event, so one rotation
    /// covers the whole horizon).
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
        let span = all
            .iter()
            .map(|e| e.at.as_nanos())
            .max()
            .unwrap_or(0)
            .saturating_sub(self.now.as_nanos());
        let width = (span / all.len().max(1) as u64).max(1);
        // floor(log2(width)), so a rotation of nbuckets windows spans
        // roughly the whole live horizon.
        self.shift = (63 - width.leading_zeros()).min(MAX_SHIFT);
        self.mask = nbuckets - 1;
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        // Descending insertion order keeps every bucket sorted descending.
        all.sort_by(|a, b| (b.at, b.seq).cmp(&(a.at, a.seq)));
        for e in all {
            let idx = ((e.at.as_nanos() >> self.shift) as usize) & self.mask;
            self.buckets[idx].push(e);
        }
    }
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

// ---------------------------------------------------------------------------
// The binary-heap scheduler, kept as the test oracle.
// ---------------------------------------------------------------------------

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A binary-heap scheduler, retained as the differential-test oracle
/// for the calendar queue.
///
/// Semantics are identical to [`Scheduler`] — `(time, sequence)` ordering,
/// past-scheduling panics — and the `sched_equivalence` suite holds the
/// two to identical pop order under randomized workloads. Not used in
/// production worlds.
pub struct HeapScheduler<E> {
    now: SimTime,
    next_event_seq: u64,
    heap: BinaryHeap<HeapEntry<E>>,
    popped: u64,
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapScheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapScheduler {
            now: SimTime::ZERO,
            next_event_seq: 0,
            heap: BinaryHeap::new(),
            popped: 0,
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
        self.heap.push(HeapEntry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Drains the entire run of events sharing the earliest timestamp
    /// into `out` (cleared first), advancing the clock once. Returns the
    /// number of events drained; 0 means the queue is exhausted.
    ///
    /// Behaviorally identical to the calendar's [`Scheduler::pop_run`]:
    /// the heap orders ties by sequence number, so the run comes out in
    /// the same FIFO order repeated `pop` calls would deliver it.
    pub fn pop_run(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        out.clear();
        let Some((t, first)) = self.pop() else {
            return 0;
        };
        out.push((t, first));
        while self.peek_time() == Some(t) {
            let Some((at, e)) = self.pop() else {
                break;
            };
            out.push((at, e));
        }
        out.len()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> std::fmt::Debug for HeapScheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapScheduler")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("delivered", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instantiates the behavioral contract tests for both scheduler
    /// implementations, so the oracle can never drift from the calendar.
    macro_rules! scheduler_contract_tests {
        ($mod_name:ident, $sched:ident) => {
            mod $mod_name {
                use super::super::*;

                #[test]
                fn pops_in_time_order() {
                    let mut s: $sched<&str> = $sched::new();
                    s.schedule_at(SimTime::from_nanos(30), "c");
                    s.schedule_at(SimTime::from_nanos(10), "a");
                    s.schedule_at(SimTime::from_nanos(20), "b");
                    let order: Vec<_> =
                        std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
                    assert_eq!(order, vec!["a", "b", "c"]);
                }

                #[test]
                fn ties_break_fifo() {
                    let mut s: $sched<u32> = $sched::new();
                    for i in 0..10 {
                        s.schedule_at(SimTime::from_nanos(5), i);
                    }
                    let order: Vec<_> =
                        std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
                    assert_eq!(order, (0..10).collect::<Vec<_>>());
                }

                #[test]
                fn clock_advances_on_pop() {
                    let mut s: $sched<()> = $sched::new();
                    s.schedule_at(SimTime::from_nanos(42), ());
                    assert_eq!(s.now(), SimTime::ZERO);
                    s.pop();
                    assert_eq!(s.now(), SimTime::from_nanos(42));
                }

                #[test]
                #[should_panic(expected = "past")]
                fn scheduling_in_the_past_panics() {
                    let mut s: $sched<()> = $sched::new();
                    s.schedule_at(SimTime::from_nanos(10), ());
                    s.pop();
                    s.schedule_at(SimTime::from_nanos(5), ());
                }

                #[test]
                fn schedule_in_is_relative_to_now() {
                    let mut s: $sched<u32> = $sched::new();
                    s.schedule_at(SimTime::from_nanos(100), 1);
                    s.pop();
                    s.schedule_in(SimDuration::from_nanos(50), 2);
                    assert_eq!(s.pop(), Some((SimTime::from_nanos(150), 2)));
                }

                #[test]
                fn empty_and_counters() {
                    let mut s: $sched<u32> = $sched::new();
                    assert!(s.is_empty());
                    s.schedule_in(SimDuration::ZERO, 9);
                    assert!(!s.is_empty());
                    s.pop();
                    assert!(s.is_empty());
                    assert_eq!(s.events_delivered(), 1);
                }

                #[test]
                fn pop_run_drains_exactly_the_tie_run_in_fifo_order() {
                    let mut s: $sched<u32> = $sched::new();
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
                    // Same mixed workload through both drain styles must
                    // yield the identical (time, payload) stream.
                    let build = || {
                        let mut s: $sched<u32> = $sched::new();
                        for i in 0..200u32 {
                            let at = SimTime::from_nanos(u64::from(i * 13 % 29));
                            s.schedule_at(at, i);
                        }
                        s
                    };
                    let mut a = build();
                    let singles: Vec<_> =
                        std::iter::from_fn(|| a.pop()).collect();
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
        };
    }

    scheduler_contract_tests!(calendar, Scheduler);
    scheduler_contract_tests!(heap_oracle, HeapScheduler);

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
    fn a_48_byte_event_makes_a_one_cache_line_entry() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 6]>>(), 64);
    }
}
