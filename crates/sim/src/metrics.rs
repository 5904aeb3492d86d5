//! Deterministic metrics registry fed by the typed trace.
//!
//! [`Metrics`] holds monotonic per-kind counters and fixed-bucket
//! histograms over sim-time quantities (detection latency, per-phase
//! recovery durations, watchdog gaps, retry backoffs, queue depths).
//! Everything is plain integer state in fixed-size arrays: observation
//! never allocates, snapshots are `Clone`, and [`Metrics::to_json`]
//! renders a byte-stable JSON document through [`crate::json`]
//! (integers only, fixed field order) so exported snapshots can be
//! compared across runs and thread counts.

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;

use crate::json;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropKind, RecoveryPhase, TraceKind, KIND_COUNT, KIND_NAMES};

/// Integer goodput in bytes per second over `window` (0 when the window
/// is empty). Shared by every bandwidth/goodput report so they all round
/// the same way.
pub fn bytes_per_sec(bytes: u64, window: SimDuration) -> u64 {
    let ns = window.as_nanos();
    if ns == 0 {
        return 0;
    }
    ((bytes as u128) * 1_000_000_000 / (ns as u128)) as u64
}

/// An exact-sample series of duration observations: the workspace's single
/// quantile implementation.
///
/// Fixed-bucket [`Histogram`]s answer "roughly where did samples land"
/// without allocation; `Samples` keeps every observation so workload and
/// app stats can report exact p50/p95/p99/p999. All of them share this
/// type so the quantile edge cases are defined exactly once:
///
/// * empty series → every statistic is `None`,
/// * `q <= 0.0` (and NaN) → the minimum sample,
/// * `q >= 1.0` → the maximum sample,
/// * otherwise nearest-rank: the smallest sample whose cumulative
///   frequency reaches `q`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Samples {
    values: Vec<u64>,
}

impl Samples {
    /// An empty series.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.values.push(d.as_nanos());
    }

    /// Records one raw nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.values.push(ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.values.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.values.iter().min().map(|&v| SimDuration::from_nanos(v))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.values.iter().max().map(|&v| SimDuration::from_nanos(v))
    }

    /// Mean sample (rounded down to whole nanoseconds).
    pub fn mean(&self) -> Option<SimDuration> {
        if self.values.is_empty() {
            return None;
        }
        Some(SimDuration::from_nanos(
            self.sum_ns() / self.values.len() as u64,
        ))
    }

    /// The nearest-rank `q`-quantile (see the type docs for edge cases).
    ///
    /// Convenience wrapper over [`Samples::quantile_permille`] for
    /// display code; anything feeding a byte-stable export must call
    /// the per-mille form directly so the path stays integer-only.
    #[expect(
        clippy::float_arithmetic,
        reason = "display-only wrapper; exports call quantile_permille"
    )]
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        // NaN fails the comparison and degrades to the minimum, exactly
        // as the f64 version always did.
        let p = if q > 0.0 {
            ((q * 1000.0).ceil() as u64).min(1000) as u32
        } else {
            0
        };
        self.quantile_permille(p)
    }

    /// The nearest-rank quantile at `p`/1000, in pure integer
    /// arithmetic: the smallest sample whose cumulative rank covers a
    /// `p` per-mille share. `p == 0` is the minimum; `p >= 1000` the
    /// maximum. It neither copies nor sorts the series.
    pub fn quantile_permille(&self, p: u32) -> Option<SimDuration> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        // ceil(p * n / 1000), computed in u64 so a billion samples at
        // p=1000 cannot overflow.
        let rank = (u64::from(p) * n as u64).div_ceil(1000) as usize;
        let idx = rank.saturating_sub(1).min(n - 1);
        Some(SimDuration::from_nanos(select_nth(&self.values, idx)))
    }

    /// Folds another series into this one (order-independent statistics).
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Read-only view of the raw samples in record order, in nanoseconds.
    pub fn raw_ns(&self) -> &[u64] {
        &self.values
    }
}

/// The `k`-th smallest value (0-based) of `values`, or 0 when `k` is out
/// of range: an exact most-significant-digit radix select over 16-bit
/// digits.
///
/// Each of four passes counts the next digit of every value that shares
/// the digits chosen so far, then picks the digit whose count range
/// holds `k`. One 64 Ki-entry table serves all passes, and only the
/// span of digits a pass saw is walked and cleared, so a series of
/// small latencies pays for its low digits alone.
fn select_nth(values: &[u64], mut k: usize) -> u64 {
    let mut counts = vec![0usize; 1 << 16];
    let mut prefix = 0u64;
    for shift in [48u32, 32, 16, 0] {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &v in values {
            // Digits above this one must equal the chosen prefix.
            if ((v ^ prefix) >> shift) >> 16 == 0 {
                let d = ((v >> shift) & 0xFFFF) as usize;
                if let Some(c) = counts.get_mut(d) {
                    *c += 1;
                }
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
        let Some(seen) = counts.get_mut(lo..=hi) else {
            return 0;
        };
        let mut digit = None;
        for (d, c) in (lo..).zip(seen.iter_mut()) {
            if digit.is_none() {
                if k < *c {
                    digit = Some(d);
                } else {
                    k -= *c;
                }
            }
            *c = 0;
        }
        let Some(digit) = digit else {
            return 0;
        };
        prefix |= (digit as u64) << shift;
    }
    prefix
}

/// The registered histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistId {
    /// Fault activation → FTD woken (Table 3 "detection" component).
    DetectionLatency,
    /// Duration of the card-reset phase.
    PhaseReset,
    /// Duration of the SRAM-clear phase.
    PhaseClearSram,
    /// Duration of the MCP-reload phase.
    PhaseReloadMcp,
    /// Duration of the engine-restart phase.
    PhaseRestartEngines,
    /// Duration of the page-table-restore phase.
    PhaseRestorePageTable,
    /// Duration of the route-restore phase.
    PhaseRestoreRoutes,
    /// Gap between consecutive `L_timer()` watchdog re-arms.
    WatchdogGap,
    /// Backoff delays scheduled between reload attempts.
    RetryBackoff,
    /// Send tokens in flight at each `gm_send` post.
    SendQueueDepth,
    /// Receive tokens in flight at each buffer provide.
    RecvQueueDepth,
    /// MPI mailbox depth after each buffered envelope delivery.
    MailboxDepth,
}

/// Number of [`HistId`] variants (sizes the histogram array).
pub const HIST_COUNT: usize = 12;

/// Bucket upper bounds for sim-duration histograms, in nanoseconds:
/// 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s (+overflow bucket).
const DURATION_BOUNDS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Bucket upper bounds for queue-depth histograms (+overflow bucket).
const DEPTH_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

impl HistId {
    /// All histograms in export order.
    pub const ALL: [HistId; HIST_COUNT] = [
        HistId::DetectionLatency,
        HistId::PhaseReset,
        HistId::PhaseClearSram,
        HistId::PhaseReloadMcp,
        HistId::PhaseRestartEngines,
        HistId::PhaseRestorePageTable,
        HistId::PhaseRestoreRoutes,
        HistId::WatchdogGap,
        HistId::RetryBackoff,
        HistId::SendQueueDepth,
        HistId::RecvQueueDepth,
        HistId::MailboxDepth,
    ];

    /// Dense index into the histogram array.
    pub fn index(self) -> usize {
        match self {
            HistId::DetectionLatency => 0,
            HistId::PhaseReset => 1,
            HistId::PhaseClearSram => 2,
            HistId::PhaseReloadMcp => 3,
            HistId::PhaseRestartEngines => 4,
            HistId::PhaseRestorePageTable => 5,
            HistId::PhaseRestoreRoutes => 6,
            HistId::WatchdogGap => 7,
            HistId::RetryBackoff => 8,
            HistId::SendQueueDepth => 9,
            HistId::RecvQueueDepth => 10,
            HistId::MailboxDepth => 11,
        }
    }

    /// Stable snake-case name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            HistId::DetectionLatency => "detection_latency_ns",
            HistId::PhaseReset => "phase_reset_ns",
            HistId::PhaseClearSram => "phase_clear_sram_ns",
            HistId::PhaseReloadMcp => "phase_reload_mcp_ns",
            HistId::PhaseRestartEngines => "phase_restart_engines_ns",
            HistId::PhaseRestorePageTable => "phase_restore_page_table_ns",
            HistId::PhaseRestoreRoutes => "phase_restore_routes_ns",
            HistId::WatchdogGap => "watchdog_gap_ns",
            HistId::RetryBackoff => "retry_backoff_ns",
            HistId::SendQueueDepth => "send_queue_depth",
            HistId::RecvQueueDepth => "recv_queue_depth",
            HistId::MailboxDepth => "mailbox_depth",
        }
    }

    /// The histogram for one recovery phase.
    pub fn for_phase(phase: RecoveryPhase) -> HistId {
        match phase {
            RecoveryPhase::Reset => HistId::PhaseReset,
            RecoveryPhase::ClearSram => HistId::PhaseClearSram,
            RecoveryPhase::ReloadMcp => HistId::PhaseReloadMcp,
            RecoveryPhase::RestartEngines => HistId::PhaseRestartEngines,
            RecoveryPhase::RestorePageTable => HistId::PhaseRestorePageTable,
            RecoveryPhase::RestoreRoutes => HistId::PhaseRestoreRoutes,
        }
    }

    /// This histogram's bucket upper bounds (the last bucket is +inf).
    pub fn bounds(self) -> &'static [u64; 7] {
        match self {
            HistId::SendQueueDepth | HistId::RecvQueueDepth | HistId::MailboxDepth => {
                &DEPTH_BOUNDS
            }
            _ => &DURATION_BOUNDS,
        }
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Eight buckets: seven bounded by [`HistId::bounds`] (a sample lands in
/// the first bucket whose bound it does not exceed) plus an overflow
/// bucket. Also tracks count/sum/min/max exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket occupancy; `buckets[7]` is the overflow bucket.
    pub buckets: [u64; 8],
}

/// An empty histogram, usable in `const` array initialisers.
pub const EMPTY_HISTOGRAM: Histogram = Histogram {
    count: 0,
    sum: 0,
    min: 0,
    max: 0,
    buckets: [0; 8],
};

impl Default for Histogram {
    fn default() -> Self {
        EMPTY_HISTOGRAM
    }
}

impl Histogram {
    /// Records one sample against the given bucket bounds.
    pub fn observe(&mut self, value: u64, bounds: &[u64; 7]) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let slot = bounds.iter().position(|&b| value <= b).unwrap_or(7);
        if let Some(bucket) = self.buckets.get_mut(slot) {
            *bucket += 1;
        }
    }
}

/// The registry: per-kind event counters, protocol accumulators, and the
/// [`HistId`] histograms. Derived entirely from [`TraceKind`] observations
/// so it can never disagree with the event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    counters: [u64; KIND_COUNT],
    resent_chunks: u64,
    committed_messages: u64,
    /// Per-reason fabric drop counts, indexed by [`DropKind::index`].
    drops: [u64; DropKind::COUNT],
    hists: [Histogram; HIST_COUNT],
    /// Open fault marks: node → activation time, consumed by the next
    /// `FtdWoken` on that node to derive detection latency.
    pending_fault: BTreeMap<u16, SimTime>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: [0; KIND_COUNT],
            resent_chunks: 0,
            committed_messages: 0,
            drops: [0; DropKind::COUNT],
            hists: [EMPTY_HISTOGRAM; HIST_COUNT],
            pending_fault: BTreeMap::new(),
        }
    }
}

impl Metrics {
    /// Feeds one event into the registry.
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) {
        if let Some(c) = self.counters.get_mut(kind.kind_index()) {
            *c += 1;
        }
        match *kind {
            TraceKind::FaultInjected { node, .. } | TraceKind::ForcedHang { node } => {
                self.pending_fault.insert(node, at);
            }
            TraceKind::FtdWoken { node } => {
                if let Some(t0) = self.pending_fault.remove(&node) {
                    self.observe_hist(HistId::DetectionLatency, at.saturating_since(t0).as_nanos());
                }
            }
            TraceKind::RecoveryPhaseDone { phase, dur, .. } => {
                self.observe_hist(HistId::for_phase(phase), dur.as_nanos());
            }
            TraceKind::WatchdogRearmed { gap, .. } => {
                self.observe_hist(HistId::WatchdogGap, gap.as_nanos());
            }
            TraceKind::RetryScheduled { backoff, .. } => {
                self.observe_hist(HistId::RetryBackoff, backoff.as_nanos());
            }
            TraceKind::SendPosted { depth, .. } => {
                self.observe_hist(HistId::SendQueueDepth, u64::from(depth));
            }
            TraceKind::RecvProvided { depth, .. } => {
                self.observe_hist(HistId::RecvQueueDepth, u64::from(depth));
            }
            TraceKind::MailboxQueued { depth, .. } => {
                self.observe_hist(HistId::MailboxDepth, u64::from(depth));
            }
            TraceKind::Resent { chunks, .. } => {
                self.resent_chunks = self.resent_chunks.saturating_add(chunks);
            }
            TraceKind::CommitAdvanced { messages, .. } => {
                self.committed_messages = self.committed_messages.saturating_add(messages);
            }
            TraceKind::FabricDrop { reason, .. } => {
                if let Some(d) = self.drops.get_mut(reason.index()) {
                    *d += 1;
                }
            }
            _ => {}
        }
    }

    fn observe_hist(&mut self, id: HistId, value: u64) {
        let bounds = id.bounds();
        if let Some(h) = self.hists.get_mut(id.index()) {
            h.observe(value, bounds);
        }
    }

    /// Events observed for the named kind (a [`crate::trace::KIND_NAMES`]
    /// entry); 0 for unknown names.
    pub fn counter(&self, kind_name: &str) -> u64 {
        KIND_NAMES
            .iter()
            .position(|&n| n == kind_name)
            .and_then(|i| self.counters.get(i).copied())
            .unwrap_or(0)
    }

    /// Total events observed across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counters.iter().sum()
    }

    /// Total Go-Back-N chunks retransmitted.
    pub fn resent_chunks(&self) -> u64 {
        self.resent_chunks
    }

    /// Total messages passed the delayed-ACK commit point.
    pub fn committed_messages(&self) -> u64 {
        self.committed_messages
    }

    /// Fabric drops observed for one reason.
    pub fn fabric_drops(&self, kind: DropKind) -> u64 {
        self.drops.get(kind.index()).copied().unwrap_or(0)
    }

    /// Fabric drops observed across all reasons.
    pub fn fabric_drops_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// One histogram's current state.
    pub fn hist(&self, id: HistId) -> &Histogram {
        self.hists.get(id.index()).unwrap_or(&EMPTY_HISTOGRAM)
    }

    /// Renders the registry as a standalone JSON document (integers
    /// only, fixed field order).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.field("events_total", self.total_events());
            o.field("resent_chunks", self.resent_chunks);
            o.field("committed_messages", self.committed_messages);
            o.field("counters", json::object(|c| {
                for (name, &n) in KIND_NAMES.iter().zip(&self.counters) {
                    if n > 0 {
                        c.field(name, n);
                    }
                }
            }));
            o.field("fabric_drops", json::object(|d| {
                d.field("total", self.fabric_drops_total());
                for kind in DropKind::ALL {
                    d.field(kind.name(), self.fabric_drops(kind));
                }
            }));
            o.field("histograms", json::object(|hs| {
                for id in HistId::ALL {
                    let h = self.hist(id);
                    hs.field(id.name(), json::inline_object(|f| {
                        f.field("count", h.count).field("sum", h.sum);
                        f.field("min", h.min).field("max", h.max);
                        f.field("bounds", json::inline_array(|a| {
                            for b in id.bounds() {
                                a.item(b);
                            }
                        }));
                        f.field("buckets", json::inline_array(|a| {
                            for b in &h.buckets {
                                a.item(b);
                            }
                        }));
                    }));
                }
            }));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn samples_empty_is_all_none() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn samples_quantile_edge_cases() {
        let mut s = Samples::new();
        // Record out of order: quantiles must sort internally.
        for ns in [40u64, 10, 30, 20] {
            s.record_ns(ns);
        }
        let d = SimDuration::from_nanos;
        assert_eq!(s.quantile(0.0), Some(d(10)), "q=0 is the minimum");
        assert_eq!(s.quantile(-3.0), Some(d(10)), "q<0 clamps to minimum");
        assert_eq!(s.quantile(1.0), Some(d(40)), "q=1 is the maximum");
        assert_eq!(s.quantile(7.0), Some(d(40)), "q>1 clamps to maximum");
        assert_eq!(s.quantile(f64::NAN), Some(d(10)), "NaN degrades to min");
        // Nearest-rank interior points on n=4: rank = ceil(q*4).
        assert_eq!(s.quantile(0.25), Some(d(10)));
        assert_eq!(s.quantile(0.5), Some(d(20)));
        assert_eq!(s.quantile(0.75), Some(d(30)));
        assert_eq!(s.quantile(0.99), Some(d(40)));
        assert_eq!(s.min(), Some(d(10)));
        assert_eq!(s.max(), Some(d(40)));
        assert_eq!(s.mean(), Some(d(25)));
        assert_eq!(s.sum_ns(), 100);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn samples_single_value_every_quantile() {
        let mut s = Samples::new();
        s.record(SimDuration::from_us(7));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(SimDuration::from_us(7)), "q={q}");
        }
    }

    /// The clone-and-sort nearest-rank rule the radix select replaced.
    fn sorted_oracle(values: &[u64], p: u32) -> Option<u64> {
        let mut v = values.to_vec();
        v.sort_unstable();
        let n = v.len() as u64;
        let rank = (u64::from(p) * n).div_ceil(1000) as usize;
        v.get(rank.saturating_sub(1).min(v.len().saturating_sub(1))).copied()
    }

    #[test]
    fn quantile_matches_the_sort_oracle() {
        const PERMILLES: [u32; 8] = [0, 1, 500, 950, 990, 999, 1000, 1001];
        let check = |values: &[u64]| {
            let mut s = Samples::new();
            for &v in values {
                s.record_ns(v);
            }
            for p in PERMILLES {
                let got = s.quantile_permille(p).map(|d| d.as_nanos());
                assert_eq!(got, sorted_oracle(values, p), "p={p} over {values:?}");
            }
        };
        check(&[]);
        check(&[42]);
        check(&[7; 33]);
        check(&[u64::MAX, 0]);
        check(&[0, u64::MAX, u64::MAX, 0, 1, u64::MAX - 1]);
        // Random series drawn from small pools, so ties are heavy and
        // values share their high digits and differ only low, or the
        // reverse.
        let mut rng = crate::SimRng::new(0x5e1ec7);
        for case in 0..200 {
            let pool: Vec<u64> = (0..1 + rng.gen_range(12))
                .map(|_| match rng.gen_range(4) {
                    0 => rng.gen_range(70_000),
                    1 => rng.next_u64(),
                    2 => rng.next_u64() & 0xFFFF_0000_0000_FFFF,
                    _ => u64::MAX - rng.gen_range(3),
                })
                .collect();
            let n = rng.gen_range(if case % 10 == 0 { 3_000 } else { 64 });
            let values: Vec<u64> = (0..n).map(|_| *rng.choose(&pool)).collect();
            check(&values);
        }
    }

    #[test]
    fn samples_merge_matches_sequential() {
        let mut a = Samples::new();
        let mut b = Samples::new();
        let mut both = Samples::new();
        for ns in [5u64, 100, 7] {
            a.record_ns(ns);
            both.record_ns(ns);
        }
        for ns in [1u64, 900] {
            b.record_ns(ns);
            both.record_ns(ns);
        }
        a.merge(&b);
        assert_eq!(a.len(), both.len());
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
    }

    #[test]
    fn bytes_per_sec_rounds_down_and_handles_empty_window() {
        assert_eq!(bytes_per_sec(1_000_000, SimDuration::from_secs(1)), 1_000_000);
        assert_eq!(bytes_per_sec(1_500, SimDuration::from_ms(1)), 1_500_000);
        assert_eq!(bytes_per_sec(0, SimDuration::from_secs(1)), 0);
        assert_eq!(bytes_per_sec(123, SimDuration::ZERO), 0);
        // Large products must not overflow: 1 TB over 1000 s.
        assert_eq!(
            bytes_per_sec(1_000_000_000_000, SimDuration::from_secs(1_000)),
            1_000_000_000
        );
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        h.observe(500, &DURATION_BOUNDS); // ≤ 1µs bucket 0
        h.observe(5_000, &DURATION_BOUNDS); // bucket 1
        h.observe(2_000_000_000, &DURATION_BOUNDS); // overflow bucket 7
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 500 + 5_000 + 2_000_000_000);
        assert_eq!(h.min, 500);
        assert_eq!(h.max, 2_000_000_000);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[7], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn detection_latency_derived_from_fault_and_wake() {
        let mut m = Metrics::default();
        m.observe(t(100), &TraceKind::ForcedHang { node: 3 });
        m.observe(t(912), &TraceKind::FtdWoken { node: 3 });
        let h = m.hist(HistId::DetectionLatency);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 812_000);
        // A second wake without a new fault records nothing.
        m.observe(t(2_000), &TraceKind::FtdWoken { node: 3 });
        assert_eq!(m.hist(HistId::DetectionLatency).count, 1);
    }

    #[test]
    fn phase_durations_land_in_their_histograms() {
        let mut m = Metrics::default();
        m.observe(
            t(10),
            &TraceKind::RecoveryPhaseDone {
                node: 0,
                phase: RecoveryPhase::ReloadMcp,
                dur: SimDuration::from_ms(600),
            },
        );
        assert_eq!(m.hist(HistId::PhaseReloadMcp).count, 1);
        assert_eq!(m.hist(HistId::PhaseReloadMcp).sum, 600_000_000);
        assert_eq!(m.hist(HistId::PhaseReset).count, 0);
    }

    #[test]
    fn accumulators_and_depths() {
        let mut m = Metrics::default();
        m.observe(t(1), &TraceKind::Resent { node: 0, chunks: 4 });
        m.observe(t(2), &TraceKind::Resent { node: 1, chunks: 3 });
        m.observe(t(3), &TraceKind::CommitAdvanced { node: 0, messages: 9 });
        m.observe(
            t(4),
            &TraceKind::SendPosted { node: 0, port: 2, token: 1, len: 64, depth: 3 },
        );
        assert_eq!(m.resent_chunks(), 7);
        assert_eq!(m.committed_messages(), 9);
        assert_eq!(m.hist(HistId::SendQueueDepth).count, 1);
        assert_eq!(m.hist(HistId::SendQueueDepth).max, 3);
        assert_eq!(m.counter("Resent"), 2);
        assert_eq!(m.total_events(), 4);
    }

    #[test]
    fn fabric_drops_counted_per_reason_and_exported() {
        let mut m = Metrics::default();
        m.observe(t(1), &TraceKind::FabricDrop { node: 0, reason: DropKind::BadLink });
        m.observe(t(2), &TraceKind::FabricDrop { node: 1, reason: DropKind::BadLink });
        m.observe(t(3), &TraceKind::FabricDrop { node: 0, reason: DropKind::LinkDown });
        assert_eq!(m.fabric_drops(DropKind::BadLink), 2);
        assert_eq!(m.fabric_drops(DropKind::LinkDown), 1);
        assert_eq!(m.fabric_drops(DropKind::TooManyHops), 0);
        assert_eq!(m.fabric_drops_total(), 3);
        let j = m.to_json();
        assert!(j.contains("\"fabric_drops\""));
        assert!(j.contains("\"bad_link\": 2"));
        assert!(j.contains("\"link_down\": 1"));
        assert!(j.contains("\"total\": 3"));
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let mut m = Metrics::default();
        m.observe(t(5), &TraceKind::ForcedHang { node: 2 });
        m.observe(t(905), &TraceKind::FtdWoken { node: 2 });
        let j1 = m.to_json();
        let j2 = m.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"events_total\": 2"));
        assert!(j1.contains("\"ForcedHang\": 1"));
        assert!(j1.contains("\"detection_latency_ns\""));
        assert!(j1.contains(
            "\n    \"send_queue_depth\": {\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, \
             \"bounds\": [1, 2, 4, 8, 16, 32, 64], \"buckets\": [0, 0, 0, 0, 0, 0, 0, 0]},\n"
        ));
        assert_eq!(j1.matches('{').count(), j1.matches('}').count());
    }
}
