//! Byte oracle for the trace export schema.
//!
//! Two hand-written samples of every [`TraceKind`], each printed through
//! every per-kind accessor as one line —
//! `kind_index name category node frequency | message | json fields` —
//! plus the `KIND_NAMES` line, compared with `golden/trace_kinds.txt`.
//! This is deliberately the schema's second spelling: a change to an
//! export name, a field name, a message or the counter order has to show
//! up as a diff of that file.
//!
//! After an intentional change, copy the file the failure message names
//! over the golden and review the diff.

use ftgm_sim::trace::{KIND_COUNT, KIND_NAMES};
use ftgm_sim::{DmaDir, DropKind, RecoveryPhase, SimDuration, TraceKind, ZoneTrigger};
use std::fmt::Write as _;
use std::path::Path;

/// Two samples per kind, in `kind_index` order. Between them the pairs
/// cover both `ProbeWritten` arms, both `DmaDir`s and non-zero durations.
fn samples() -> Vec<TraceKind> {
    use TraceKind::*;
    vec![
        SendPosted { node: 0, port: 1, token: 2, len: 3, depth: 4 },
        SendPosted { node: 511, port: 7, token: u64::MAX, len: 262_144, depth: 64 },
        SendCompleted { node: 0, port: 1, token: 2 },
        SendCompleted { node: 9, port: 3, token: 1_000_000 },
        SendFailed { node: 0, port: 1, token: 2 },
        SendFailed { node: 12, port: 5, token: 77 },
        RecvProvided { node: 0, port: 1, token: 2, depth: 3 },
        RecvProvided { node: 255, port: 6, token: 99, depth: 16 },
        MessageReceived { node: 0, port: 1, src_node: 2, src_port: 3, len: 4 },
        MessageReceived { node: 7, port: 2, src_node: 300, src_port: 4, len: 4096 },
        DmaStaged { node: 0, len: 1 },
        DmaStaged { node: 31, len: 4096 },
        DmaDone { node: 0, dir: DmaDir::HostToSram, len: 1 },
        DmaDone { node: 31, dir: DmaDir::SramToHost, len: 4096 },
        CommitAdvanced { node: 0, messages: 1 },
        CommitAdvanced { node: 4, messages: 12 },
        Resent { node: 0, chunks: 1 },
        Resent { node: 4, chunks: 64 },
        WatchdogArmed { node: 0, ticks: 1 },
        WatchdogArmed { node: 2, ticks: 1_600 },
        WatchdogRearmed { node: 0, gap: SimDuration::from_nanos(1) },
        WatchdogRearmed { node: 2, gap: SimDuration::from_us(400) },
        WatchdogFired { node: 0 },
        WatchdogFired { node: 65_535 },
        FaultInjected { node: 0, bit: 1 },
        FaultInjected { node: 3, bit: 4_194_303 },
        ForcedHang { node: 0 },
        ForcedHang { node: 3 },
        LinkDown { link: 0 },
        LinkDown { link: 1_279 },
        LinkUp { link: 0 },
        LinkUp { link: 1_279 },
        NoiseOpened,
        NoiseOpened,
        NoiseClosed,
        NoiseClosed,
        FtdFatalIgnoredDead { node: 0 },
        FtdFatalIgnoredDead { node: 5 },
        FtdReverifyQueued { node: 0 },
        FtdReverifyQueued { node: 5 },
        FtdWoken { node: 0 },
        FtdWoken { node: 5 },
        FtdRunning { node: 0 },
        FtdRunning { node: 5 },
        ProbeWritten { node: 0, ok: true },
        ProbeWritten { node: 5, ok: false },
        ProbeFalseAlarm { node: 0 },
        ProbeFalseAlarm { node: 5 },
        ProbeConfirmedHang { node: 0 },
        ProbeConfirmedHang { node: 5 },
        ProbeRequeued { node: 0 },
        ProbeRequeued { node: 5 },
        RecoveryAttempt { node: 0, attempt: 1, max_attempts: 3 },
        RecoveryAttempt { node: 5, attempt: 3, max_attempts: 3 },
        RecoveryPhaseDone { node: 0, phase: RecoveryPhase::Reset, dur: SimDuration::from_ms(10) },
        RecoveryPhaseDone {
            node: 5,
            phase: RecoveryPhase::RestoreRoutes,
            dur: SimDuration::from_nanos(123_456_789),
        },
        ReloadVerifying { node: 0 },
        ReloadVerifying { node: 5 },
        ReloadVerified { node: 0 },
        ReloadVerified { node: 5 },
        RetryScheduled { node: 0, attempt: 1, backoff: SimDuration::from_ms(50) },
        RetryScheduled { node: 5, attempt: 2, backoff: SimDuration::from_ms(100) },
        FaultDetectedPosted { node: 0, port: 1 },
        FaultDetectedPosted { node: 5, port: 7 },
        Escalated { node: 0, attempts: 1 },
        Escalated { node: 5, attempts: 3 },
        OutstandingSendsFailed { node: 0, count: 1 },
        OutstandingSendsFailed { node: 5, count: 4_000_000_000 },
        FtdSleeping { node: 0 },
        FtdSleeping { node: 5 },
        GmUnknownEntered { node: 0, port: 1 },
        GmUnknownEntered { node: 5, port: 7 },
        StaleHandlerSuperseded { node: 0, port: 1 },
        StaleHandlerSuperseded { node: 5, port: 7 },
        PortReopened { node: 0, port: 1, sends_replayed: 2, recvs_replayed: 3, streams_restored: 4 },
        PortReopened { node: 5, port: 7, sends_replayed: 64, recvs_replayed: 16, streams_restored: 255 },
        SwitchKilled { switch: 0, links: 1 },
        SwitchKilled { switch: 19, links: 16 },
        FabricDrop { node: 0, reason: DropKind::SourceNotCabled },
        FabricDrop { node: 6, reason: DropKind::FaultDrop },
        RerouteStarted { down_links: 0 },
        RerouteStarted { down_links: 16 },
        RoutesInstalled { nodes: 1, changed: 0 },
        RoutesInstalled { nodes: 256, changed: 31 },
        PeerStallDetected { observer: 0, peer: 1 },
        PeerStallDetected { observer: 6, peer: 5 },
        ZoneRerouteTriggered { observer: 0, trigger: ZoneTrigger::LinkChange },
        ZoneRerouteTriggered { observer: 6, trigger: ZoneTrigger::Cascade },
        PeerIsolated { observer: 0, peer: 1 },
        PeerIsolated { observer: 6, peer: 5 },
        MailboxQueued { node: 0, port: 1, depth: 2 },
        MailboxQueued { node: 255, port: 3, depth: 1_024 },
        FtdStepDroppedDead { node: 0 },
        FtdStepDroppedDead { node: 5 },
    ]
}

fn render(samples: &[TraceKind]) -> String {
    let mut out = format!("KIND_NAMES {}\n", KIND_NAMES.join(" "));
    for kind in samples {
        let node = kind.node().map_or("-".to_string(), |n| n.to_string());
        let frequency = if kind.is_high_frequency() { "high_frequency" } else { "milestone" };
        let mut json = String::new();
        kind.write_json_fields(&mut json);
        let _ = writeln!(
            out,
            "{} {} {} {} {} | {} | {}",
            kind.kind_index(),
            kind.name(),
            kind.category(),
            node,
            frequency,
            kind.message(),
            json
        );
    }
    out
}

#[test]
fn every_kind_has_two_samples() {
    let indices: Vec<usize> = samples().iter().map(TraceKind::kind_index).collect();
    let want: Vec<usize> = (0..KIND_COUNT).flat_map(|i| [i, i]).collect();
    assert_eq!(indices, want, "two samples per kind, in kind_index order, none missing");
}

#[test]
fn per_kind_bytes_match_the_golden() {
    let got = render(&samples());
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_kinds.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_kinds.txt");
        std::fs::write(&fresh, &got).expect("write the fresh rendering");
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "trace export schema drifted from {} (first differing line: {:?});\n\
             if intended, review and copy {} over it",
            golden.display(),
            line.map(|l| l + 1),
            fresh.display()
        );
    }
}
