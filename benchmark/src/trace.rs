//! Spans recorded from the benchmark's own files, around its calls into
//! the layers. Kept in memory; written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter snapshot taken when the span closed.
    pub counters: Vec<(&'static str, u64)>,
}

/// Records nothing when disabled, so untraced runs pay one branch per
/// slice boundary.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span; `usize::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.map(|p| p.0),
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Host ns since the tracer started; what span times are measured in.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn push(&mut self, name: &str, parent: SpanId, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent.0),
                start_ns,
                end_ns,
                counters: Vec::new(),
            });
        }
    }

    pub fn close(&mut self, id: SpanId, counters: Vec<(&'static str, u64)>) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
            span.counters = counters;
        }
    }

    /// The span file: every span with the workload id they share.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": \"{workload}\",");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"clock\": \"host ns since the tracer started\",");
        let _ = writeln!(out, "  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"workload\": \"{workload}\", \"start_ns\": {}, \"end_ns\": {}, \"counters\": {{{}}}}}{comma}",
                s.name,
                s.start_ns,
                s.end_ns,
                counters.join(", ")
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}
