//! Shared TCP configuration.

use lossburst_netsim::time::SimDuration;

/// Parameters common to all the TCP-family senders. Defaults follow the
/// paper's NS-2 setup where it states one, and conventional NS-2 defaults
/// elsewhere.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Payload bytes per segment.
    pub mss: u32,
    /// Header overhead bytes added to each data segment on the wire.
    pub header_bytes: u32,
    /// Size of a pure acknowledgment on the wire.
    pub ack_bytes: u32,
    /// Initial congestion window in packets (the paper: "a TCP flow starts
    /// ... sending two packets every round trip").
    pub initial_cwnd: f64,
    /// Initial slow-start threshold in packets (effectively unbounded).
    pub initial_ssthresh: f64,
    /// Congestion-window cap in packets (models the receiver window).
    pub max_cwnd: f64,
    /// Lower bound on the retransmission timeout (RFC 2988, the standard
    /// of the paper's era: 1 s; set lower to model modern kernels).
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Initial RTO before any RTT sample (RFC 6298: 1 s; NS-2 uses 3 s for
    /// the very first).
    pub initial_rto: SimDuration,
    /// Acknowledge every `ack_every` data packets (1 = ack everything,
    /// 2 = classic delayed ACK).
    pub ack_every: u32,
    /// Negotiate ECN: set ECT on data, react to ECN-echo once per RTT.
    pub ecn: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1000,
            header_bytes: 40,
            ack_bytes: 40,
            initial_cwnd: 2.0,
            initial_ssthresh: 1e9,
            max_cwnd: 1e9,
            min_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            ack_every: 1,
            ecn: false,
        }
    }
}

impl TcpConfig {
    /// Bytes on the wire for one full-sized data segment.
    #[inline]
    pub(crate) fn segment_bytes(&self) -> u32 {
        self.mss + self.header_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_segment_size() {
        let c = TcpConfig::default();
        assert_eq!(c.segment_bytes(), 1040);
        assert_eq!(c.initial_cwnd, 2.0);
    }
}
