//! LANai busy-time accounting by handler category.
//!
//! Table 2 of the paper reports *LANai utilization*: the network
//! processor time one message costs. The dispatch machine charges every
//! handler's cost to its [`Handler`] category here, once or twice per
//! dispatch, so the categories are a fixed array indexed by the enum.

use std::fmt;

use ftgm_sim::SimDuration;

/// What a slice of LANai time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Handler {
    /// Building an ACK/NACK frame.
    AckBuild,
    /// Processing a received ACK/NACK.
    AckProcess,
    /// The dispatch loop's own per-handler overhead.
    Dispatch,
    /// Posting an event record toward a host receive queue.
    EventPost,
    /// FTGM: extra receive-path work (per-port stream lookup).
    FtgmRecvExtra,
    /// FTGM: extra send-path work (host sequence numbers).
    FtgmSendExtra,
    /// `L_timer()` housekeeping.
    Ltimer,
    /// Setting up a receive (SRAM → host) DMA.
    RdmaSetup,
    /// Receive-frame processing.
    Rx,
    /// Setting up a send-staging (host → SRAM) DMA.
    SdmaSetup,
    /// The `send_chunk` firmware routine (interpreted cycles).
    SendChunk,
}

impl Handler {
    /// All categories, in name order.
    pub const ALL: [Handler; 11] = [
        Handler::AckBuild,
        Handler::AckProcess,
        Handler::Dispatch,
        Handler::EventPost,
        Handler::FtgmRecvExtra,
        Handler::FtgmSendExtra,
        Handler::Ltimer,
        Handler::RdmaSetup,
        Handler::Rx,
        Handler::SdmaSetup,
        Handler::SendChunk,
    ];

    /// Stable lower-case label (for reports).
    pub const fn name(self) -> &'static str {
        match self {
            Handler::AckBuild => "ack_build",
            Handler::AckProcess => "ack_process",
            Handler::Dispatch => "dispatch",
            Handler::EventPost => "event_post",
            Handler::FtgmRecvExtra => "ftgm_recv_extra",
            Handler::FtgmSendExtra => "ftgm_send_extra",
            Handler::Ltimer => "ltimer",
            Handler::RdmaSetup => "rdma_setup",
            Handler::Rx => "rx",
            Handler::SdmaSetup => "sdma_setup",
            Handler::SendChunk => "send_chunk",
        }
    }
}

/// LANai busy time accumulated per [`Handler`] category.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HandlerTimes([SimDuration; Handler::ALL.len()]);

impl fmt::Debug for HandlerTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(Handler::ALL.into_iter().map(|h| (h.name(), self.get(h))))
            .finish()
    }
}

impl Default for HandlerTimes {
    fn default() -> HandlerTimes {
        HandlerTimes([SimDuration::ZERO; Handler::ALL.len()])
    }
}

impl HandlerTimes {
    /// Charges `d` of LANai time to `cat`.
    pub fn charge(&mut self, cat: Handler, d: SimDuration) {
        self.0[cat as usize] += d;
    }

    /// Total time charged to a category.
    pub fn get(&self, cat: Handler) -> SimDuration {
        self.0[cat as usize]
    }

    /// Grand total across all categories.
    pub fn total(&self) -> SimDuration {
        self.0.iter().fold(SimDuration::ZERO, |a, d| a + *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_category_at_its_own_index() {
        for (i, h) in Handler::ALL.into_iter().enumerate() {
            assert_eq!(h as usize, i, "{}", h.name());
        }
        let mut names: Vec<&str> = Handler::ALL.iter().map(|h| h.name()).collect();
        let listed = names.clone();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names, listed, "labels unique and in name order");
    }

    #[test]
    fn charges_accumulate_per_category() {
        let mut t = HandlerTimes::default();
        t.charge(Handler::Rx, SimDuration::from_nanos(300));
        t.charge(Handler::Rx, SimDuration::from_nanos(200));
        t.charge(Handler::Ltimer, SimDuration::from_nanos(50));
        assert_eq!(t.get(Handler::Rx), SimDuration::from_nanos(500));
        assert_eq!(t.get(Handler::SendChunk), SimDuration::ZERO);
        assert_eq!(t.total(), SimDuration::from_nanos(550));
        let shown = format!("{t:?}");
        assert!(shown.contains("\"ltimer\": ") && shown.contains("\"rx\": "), "{shown}");
    }
}
