//! Shared TCP configuration: the three values a run sets, and the segment
//! sizes every TCP-family sender uses.

use lossburst_netsim::time::SimDuration;

/// Payload bytes per segment.
pub(crate) const MSS: u32 = 1000;
/// Bytes on the wire for one full-sized data segment (payload plus 40
/// bytes of headers).
pub(crate) const SEGMENT_BYTES: u32 = MSS + 40;
/// Size of a pure acknowledgment on the wire.
pub(crate) const ACK_BYTES: u32 = 40;

/// The per-flow settings of the TCP-family senders. Defaults follow the
/// paper's NS-2 setup where it states one, and conventional NS-2 defaults
/// elsewhere.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Lower bound on the retransmission timeout (RFC 2988, the standard
    /// of the paper's era: 1 s; set lower to model modern kernels).
    pub min_rto: SimDuration,
    /// Initial RTO before any RTT sample (RFC 6298: 1 s; NS-2 uses 3 s for
    /// the very first).
    pub initial_rto: SimDuration,
    /// Negotiate ECN: set ECT on data, react to ECN-echo once per RTT.
    pub ecn: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            min_rto: SimDuration::from_secs(1),
            initial_rto: SimDuration::from_secs(1),
            ecn: false,
        }
    }
}
