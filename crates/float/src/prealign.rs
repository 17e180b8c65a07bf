//! Host-side pre-alignment cost model (§4.2).
//!
//! Pre-alignment runs on the host ("trivial and easy for the powerful GPU,
//! CPU, or FPGA host"); the paper measures 0.005 ms for a 1×1024 vector on
//! an RTX 3090. We model the cost as linear in the number of elements with
//! that measured constant, since it only enters the pipeline as a small,
//! fully overlappable host-side stage.

/// The paper's measured pre-alignment cost for one 1×1024 FP32 vector, in
/// milliseconds (§4.2).
pub const PAPER_PREALIGN_MS_PER_1X1024: f64 = 0.005;

/// Linear cost model for host-side pre-alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreAlignCostModel {
    ns_per_element: f64,
}

impl PreAlignCostModel {
    /// Model calibrated to the paper's RTX 3090 measurement.
    pub fn paper_default() -> Self {
        PreAlignCostModel {
            ns_per_element: PAPER_PREALIGN_MS_PER_1X1024 * 1.0e6 / 1024.0,
        }
    }

    /// Time to pre-align `elements` FP32 values, in nanoseconds.
    pub fn cost_ns(&self, elements: usize) -> f64 {
        self.ns_per_element * elements as f64
    }
}

impl Default for PreAlignCostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_measurement() {
        let m = PreAlignCostModel::paper_default();
        // 1x1024 vector -> 0.005 ms = 5000 ns.
        assert!((m.cost_ns(1024) - 5_000.0).abs() < 1e-9);
    }
}
