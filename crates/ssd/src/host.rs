//! The host interface: a PCIe link model (§2.2: "for PCIe 3.0, the I/O
//! bandwidth is only 1 GB/s in each lane"; Table 2: PCIe 3.0 ×4).

use ecssd_trace::{Stage, Timeline, Tracer};

use crate::{Bandwidth, SimTime};

/// A serialized host link with fixed per-transfer latency.
#[derive(Debug, Clone)]
pub struct HostInterface {
    bandwidth: Bandwidth,
    latency_ns: u64,
    timeline: Timeline,
    bytes_moved: u64,
    tracer: Tracer,
}

impl HostInterface {
    /// A link with the given bandwidth and per-transfer latency.
    pub fn new(bandwidth: Bandwidth, latency_ns: u64) -> Self {
        HostInterface {
            bandwidth,
            latency_ns,
            timeline: Timeline::default(),
            bytes_moved: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace handle; every subsequent transfer records a
    /// [`Stage::HostLink`] span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// PCIe 3.0 ×4 (Table 2): 4 GB/s raw, ~1 µs command latency.
    pub fn pcie3_x4() -> Self {
        HostInterface::new(Bandwidth::from_gbps(4.0), 1_000)
    }

    /// Link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Schedules a transfer; returns its completion time. Transfers
    /// serialize on the link.
    pub fn transfer(&mut self, bytes: u64, issue: SimTime) -> SimTime {
        if bytes == 0 {
            return issue;
        }
        let dur = self.latency_ns + self.bandwidth.transfer_ns(bytes);
        let (start, done) = self.timeline.occupy(issue, dur);
        self.bytes_moved += bytes;
        self.tracer.span(Stage::HostLink, start, done);
        done
    }

    /// Accumulated link busy time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.timeline.busy_ns()
    }

    /// Total bytes moved over the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie3_x4_is_4_gbps() {
        let mut h = HostInterface::pcie3_x4();
        // 4 GB/s = 4 bytes/ns: 4 MiB takes ~1 ms + 1 us latency.
        let done = h.transfer(4 << 20, SimTime::ZERO);
        assert_eq!(done.as_ns(), 1_000 + (4 << 20) / 4);
    }

    #[test]
    fn transfers_serialize() {
        let mut h = HostInterface::new(Bandwidth::from_gbps(1.0), 0);
        let a = h.transfer(100, SimTime::ZERO);
        let b = h.transfer(100, SimTime::ZERO);
        assert_eq!(a.as_ns(), 100);
        assert_eq!(b.as_ns(), 200);
        assert_eq!(h.bytes_moved(), 200);
        assert_eq!(h.busy_ns(), 200);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut h = HostInterface::pcie3_x4();
        assert_eq!(h.transfer(0, SimTime::from_ns(3)), SimTime::from_ns(3));
    }
}
