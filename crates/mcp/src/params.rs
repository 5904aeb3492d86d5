//! MCP timing and protocol parameters.
//!
//! Handler costs are calibrated so a GM data packet consumes ≈6.0 µs of
//! LANai time end-to-end and FTGM ≈6.8 µs, matching Table 2's "LANai
//! utilization" row; the watchdog-related intervals reproduce §4.2 (the
//! `L_timer()` period whose maximum observed gap is ~800 µs).

use ftgm_sim::SimDuration;

/// Which protocol the MCP speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Stock GM 1.5.1 semantics: MCP-owned per-connection sequence
    /// numbers, ACK on packet acceptance.
    Gm,
    /// The paper's FTGM: host-supplied per-(port, destination) sequence
    /// streams, message-commit ACK delayed until the receive DMA completes,
    /// IT1 watchdog armed by `L_timer()`.
    Ftgm,
}

/// Ablation switches for FTGM (used by the `ablation_*` benchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtgmKnobs {
    /// When `false`, the final-chunk ACK is sent at acceptance time like
    /// GM — re-creating the Figure 5 lost-message window.
    pub delayed_commit_ack: bool,
    /// When `false`, sequence numbers come from the MCP like GM — so a
    /// reload forgets them, re-creating the Figure 4 duplicate window.
    pub host_sequence_numbers: bool,
}

impl Default for FtgmKnobs {
    fn default() -> Self {
        FtgmKnobs {
            delayed_commit_ack: true,
            host_sequence_numbers: true,
        }
    }
}

/// All MCP tunables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McpParams {
    /// Protocol variant.
    pub variant: Variant,
    /// FTGM ablation switches (ignored in GM mode).
    pub knobs: FtgmKnobs,
    /// LANai core clock period (LANai9 ≈ 132 MHz).
    pub cycle: SimDuration,
    /// Dispatch-loop overhead charged per handler invocation.
    pub dispatch_overhead: SimDuration,
    /// Programming the send (host→SRAM) DMA for one chunk.
    pub sdma_setup: SimDuration,
    /// Receive-path parse + validate cost per packet.
    pub rx_process: SimDuration,
    /// Programming the receive (SRAM→host) DMA for one chunk.
    pub rdma_setup: SimDuration,
    /// Building and transmitting an ACK/NACK in the Rust-modelled path.
    pub ack_build: SimDuration,
    /// Processing an incoming ACK/NACK at the sender.
    pub ack_process: SimDuration,
    /// Posting one event record into a host receive queue.
    pub event_post: SimDuration,
    /// `L_timer()` housekeeping routine body cost.
    pub ltimer_body: SimDuration,
    /// FTGM: extra per-chunk send-side cost (token-seq validation,
    /// resend-map upkeep).
    pub ftgm_send_extra: SimDuration,
    /// FTGM: extra per-chunk receive-side cost (per-(connection,port) ACK
    /// table, delayed-ACK bookkeeping, event seq field).
    pub ftgm_recv_extra: SimDuration,
    /// `L_timer()` re-arm interval in IT0 ticks (0.5 µs each).
    pub ltimer_ticks: u32,
    /// FTGM: IT1 watchdog interval in ticks — "slightly greater" than the
    /// maximum observed `L_timer()` gap (§4.2: ~800 µs).
    pub watchdog_ticks: u32,
    /// Maximum payload bytes per packet (GM fragments at 4 KB).
    pub max_chunk: u32,
    /// Go-Back-N window per stream, in chunks.
    pub window: u32,
    /// Retransmit timeout.
    pub rto: SimDuration,
    /// Retransmission attempts before the send is declared failed.
    pub retry_limit: u32,
    /// Instruction budget per firmware routine invocation.
    pub firmware_budget: u64,
}

impl McpParams {
    /// Parameters for stock GM.
    pub fn gm() -> McpParams {
        McpParams {
            variant: Variant::Gm,
            knobs: FtgmKnobs::default(),
            cycle: SimDuration::from_nanos(8),
            dispatch_overhead: SimDuration::from_nanos(250),
            sdma_setup: SimDuration::from_nanos(700),
            rx_process: SimDuration::from_nanos(900),
            rdma_setup: SimDuration::from_nanos(700),
            ack_build: SimDuration::from_nanos(400),
            ack_process: SimDuration::from_nanos(400),
            event_post: SimDuration::from_nanos(500),
            ltimer_body: SimDuration::from_us(6),
            ftgm_send_extra: SimDuration::ZERO,
            ftgm_recv_extra: SimDuration::ZERO,
            ltimer_ticks: 1_600,   // 800us: the paper's observed max gap
            watchdog_ticks: 0,     // GM arms no watchdog
            max_chunk: 4_096,
            window: 64,
            rto: SimDuration::from_ms(30),
            retry_limit: 200,
            firmware_budget: 20_000,
        }
    }

    /// Parameters for FTGM.
    pub fn ftgm() -> McpParams {
        McpParams {
            variant: Variant::Ftgm,
            ftgm_send_extra: SimDuration::from_nanos(500),
            ftgm_recv_extra: SimDuration::from_nanos(500),
            // §4.2: IT1 is initialized "just slightly greater than 800us".
            watchdog_ticks: 1_700, // 850us
            ..McpParams::gm()
        }
    }

    /// `true` when running the FTGM variant.
    pub fn is_ftgm(&self) -> bool {
        self.variant == Variant::Ftgm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gm_has_no_watchdog() {
        assert_eq!(McpParams::gm().watchdog_ticks, 0);
        assert!(!McpParams::gm().is_ftgm());
    }

    #[test]
    fn ftgm_watchdog_exceeds_ltimer_period() {
        let p = McpParams::ftgm();
        assert!(p.is_ftgm());
        assert!(
            p.watchdog_ticks > p.ltimer_ticks,
            "watchdog must outlast the worst L_timer gap"
        );
    }

    #[test]
    fn ftgm_extras_sum_to_paper_delta() {
        // Table 2: LANai utilization 6.0us (GM) vs 6.8us (FTGM).
        let p = McpParams::ftgm();
        let delta = p.ftgm_send_extra + p.ftgm_recv_extra;
        let us = delta.as_micros_f64();
        assert!((0.6..=1.0).contains(&us), "delta {us}us");
    }

    #[test]
    fn knobs_default_on() {
        let k = FtgmKnobs::default();
        assert!(k.delayed_commit_ack && k.host_sequence_numbers);
    }
}
