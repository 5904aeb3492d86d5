//! Trace exporters: JSON-lines and Chrome `trace_event` format.
//!
//! Both exporters are pure functions of the recorded trace, format all
//! numbers with integer math (no floating-point printing), and emit
//! fields in a fixed order — the determinism regression test compares
//! their output byte-for-byte across runs and thread counts.
//!
//! The Chrome export loads directly in `chrome://tracing` or Perfetto:
//! recovery phases become duration (`"X"`) spans per node, everything
//! else an instant (`"i"`) event.

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::fmt::Write as _;

use crate::trace::{Trace, TraceKind};

/// Formats nanoseconds as a decimal microsecond literal (`1234.567`)
/// using integer math only.
fn micros_literal(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Exports all stored events as JSON-lines: one object per event with
/// `at_ns`, `kind`, `cat`, then the kind's payload fields.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for ev in trace.events() {
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"kind\":\"{}\",\"cat\":\"{}\"",
            ev.at.as_nanos(),
            ev.kind.name(),
            ev.kind.category()
        );
        ev.kind.write_json_fields(&mut out);
        out.push_str("}\n");
    }
    out
}

/// Exports all stored events in Chrome `trace_event` JSON format
/// (`{"traceEvents": [...]}`). Node ids map to `pid` so each simulated
/// node gets its own track.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for ev in trace.events() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let pid = ev.kind.node().map(u64::from).unwrap_or(0);
        match ev.kind {
            TraceKind::RecoveryPhaseDone { phase, dur, .. } => {
                let start_ns = ev.at.as_nanos().saturating_sub(dur.as_nanos());
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":0,\"args\":{{\"kind\":\"{}\"",
                    phase.label(),
                    ev.kind.category(),
                    micros_literal(start_ns),
                    micros_literal(dur.as_nanos()),
                    ev.kind.name()
                );
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":0,\"args\":{{\"kind\":\"{}\"",
                    ev.kind.name(),
                    ev.kind.category(),
                    micros_literal(ev.at.as_nanos()),
                    ev.kind.name()
                );
            }
        }
        ev.kind.write_json_fields(&mut out);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::RecoveryPhase;

    fn sample_trace() -> Trace {
        let mut tr = Trace::enabled();
        tr.emit(
            SimTime::from_nanos(800_123),
            TraceKind::WatchdogFired { node: 1 },
        );
        tr.emit(
            SimTime::from_nanos(650_000_000),
            TraceKind::RecoveryPhaseDone {
                node: 1,
                phase: RecoveryPhase::ReloadMcp,
                dur: SimDuration::from_ms(600),
            },
        );
        tr
    }

    #[test]
    fn jsonl_one_line_per_event_with_fields() {
        let j = to_jsonl(&sample_trace());
        let lines: Vec<&str> = j.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at_ns\":800123,\"kind\":\"WatchdogFired\",\"cat\":\"wdog\",\"node\":1}"
        );
        assert!(lines[1].contains("\"phase\":\"reload_mcp\""));
        assert!(lines[1].contains("\"dur_ns\":600000000"));
    }

    #[test]
    fn chrome_trace_has_span_and_instant() {
        let j = to_chrome_trace(&sample_trace());
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("]}"));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"ph\":\"X\""));
        // The reload span starts at 650ms − 600ms = 50ms = 50000 µs.
        assert!(j.contains("\"ts\":50000.000,\"dur\":600000.000"), "{j}");
        assert!(j.contains("\"ts\":800.123"));
        assert!(j.contains("\"pid\":1"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        assert_eq!(to_chrome_trace(&a), to_chrome_trace(&b));
    }

    #[test]
    fn micros_literal_pads_fraction() {
        assert_eq!(micros_literal(0), "0.000");
        assert_eq!(micros_literal(1_234_567), "1234.567");
        assert_eq!(micros_literal(5), "0.005");
    }
}
