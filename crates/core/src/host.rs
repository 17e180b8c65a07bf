//! The simulated host (§6.1: "we also simulate a simple host to coordinate
//! with ECSSD").
//!
//! The pipeline studies measure steady-state *throughput*; a serving host
//! cares about *latency under load*: query batches arrive on an open-loop
//! schedule, queue if the device is still busy, and complete after their
//! pipeline pass. [`HostCoordinator`] drives the [`crate::EcssdMachine`]
//! with such a schedule and reports the latency distribution.

use ecssd_ssd::SimTime;
use ecssd_trace::Timeline;

use crate::EcssdMachine;

/// An open-loop arrival schedule: one query batch every `interarrival_ns`,
/// with deterministic jitter so batches do not align artificially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSchedule {
    /// Mean time between query-batch arrivals, ns.
    pub interarrival_ns: u64,
    /// Relative jitter in `[0, 1)`: arrival `i` is shifted by up to
    /// `±jitter/2 × interarrival`, from a seeded hash.
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl ArrivalSchedule {
    /// A schedule at `load` × the device's service rate: `service_ns` is
    /// the measured steady-state time per batch; `load < 1` keeps the
    /// queue stable, `load > 1` saturates it.
    pub fn at_load(service_ns: f64, load: f64) -> Self {
        assert!(load > 0.0, "load must be positive");
        ArrivalSchedule {
            interarrival_ns: (service_ns / load).max(1.0) as u64,
            jitter: 0.3,
            seed: 0xa221,
        }
    }

    /// Arrival time of query-batch `i`.
    pub fn arrival(&self, i: usize) -> SimTime {
        let base = self.interarrival_ns * i as u64;
        if self.jitter == 0.0 {
            return SimTime::from_ns(base);
        }
        let mut x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.seed;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let span = self.interarrival_ns as f64 * self.jitter;
        let shift = (u - 0.5) * span;
        SimTime::from_ns((base as f64 + shift).max(0.0) as u64)
    }
}

/// Latency results of a served arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-batch latency (completion − arrival), ns, in arrival order.
    pub latencies_ns: Vec<u64>,
    /// Completion time of the last batch.
    pub makespan: SimTime,
}

impl ServiceReport {
    /// Mean latency, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().sum::<u64>() as f64 / self.latencies_ns.len() as f64
    }

    /// Latency quantile `q ∈ [0, 1]`, ns, with linear interpolation between
    /// closest ranks (see [`ecssd_trace::percentile_ns`]).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        ecssd_trace::percentile_ns(&sorted, q)
    }
}

/// Drives a machine with an open-loop arrival schedule.
///
/// The device serves batches in order; a batch's service begins when both
/// it has arrived and the previous batch finished (the accelerator works on
/// one query batch's tile stream at a time from the host's perspective).
/// Service time per batch is taken from a steady-state pipeline window and
/// rounded once to whole nanoseconds; the batches queue on one
/// [`Timeline`].
#[derive(Debug)]
pub struct HostCoordinator {
    schedule: ArrivalSchedule,
}

impl HostCoordinator {
    /// A coordinator with the given schedule.
    pub fn new(schedule: ArrivalSchedule) -> Self {
        HostCoordinator { schedule }
    }

    /// Serves `batches` arrivals on `machine` (window of `max_tiles` per
    /// batch) and reports latencies.
    ///
    /// # Errors
    ///
    /// Propagates any [`ecssd_ssd::SsdError`] from the probe run.
    ///
    /// # Panics
    ///
    /// Panics if `batches == 0`.
    pub fn serve(
        &self,
        machine: &mut EcssdMachine,
        batches: usize,
        max_tiles: usize,
    ) -> Result<ServiceReport, ecssd_ssd::SsdError> {
        assert!(batches > 0, "need at least one batch");
        // Measure the per-batch service time once in steady state.
        let probe = machine.run_window(2, max_tiles)?;
        let service_ns = probe.ns_per_query().round() as u64;
        let mut device = Timeline::default();
        let latencies = (0..batches)
            .map(|i| {
                let arrival = self.schedule.arrival(i);
                let (_, done) = device.occupy(arrival, service_ns);
                done.as_ns() - arrival.as_ns()
            })
            .collect();
        Ok(ServiceReport {
            latencies_ns: latencies,
            makespan: device.free_at(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EcssdConfig, MachineVariant};
    use ecssd_workloads::{Benchmark, SampledWorkload, TraceConfig};

    fn machine() -> EcssdMachine {
        let bench = Benchmark::by_abbrev("Transformer-W268K").unwrap();
        let w = SampledWorkload::new(bench, TraceConfig::paper_default());
        EcssdMachine::new(
            EcssdConfig::paper_default(),
            MachineVariant::paper_ecssd(),
            Box::new(w),
        )
        .unwrap()
    }

    #[test]
    fn arrivals_are_monotone_enough_and_deterministic() {
        let s = ArrivalSchedule {
            interarrival_ns: 1000,
            jitter: 0.3,
            seed: 7,
        };
        assert_eq!(s.arrival(5), s.arrival(5));
        // Jitter never reorders arrivals (span < interarrival).
        for i in 1..200 {
            assert!(s.arrival(i) > s.arrival(i - 1), "reordered at {i}");
        }
    }

    #[test]
    fn light_load_latency_is_near_service_time() {
        let mut m = machine();
        let probe = m.run_window(2, 12).unwrap().ns_per_query();
        let mut m = machine();
        let report = HostCoordinator::new(ArrivalSchedule::at_load(probe, 0.3))
            .serve(&mut m, 24, 12)
            .unwrap();
        // At 30% load the queue is almost always empty.
        assert!(
            report.mean_ns() < probe * 1.3,
            "mean {} vs service {}",
            report.mean_ns(),
            probe
        );
    }

    #[test]
    fn overload_grows_the_queue() {
        let mut m = machine();
        let probe = m.run_window(2, 12).unwrap().ns_per_query();
        let serve_at = |load: f64| {
            let mut m = machine();
            HostCoordinator::new(ArrivalSchedule::at_load(probe, load))
                .serve(&mut m, 32, 12)
                .unwrap()
        };
        let light = serve_at(0.5);
        let heavy = serve_at(1.5);
        // At 150% load, the tail latency diverges linearly with position.
        assert!(heavy.quantile_ns(0.95) > 4.0 * light.quantile_ns(0.95));
        assert!(heavy.mean_ns() > light.mean_ns() * 2.0);
    }

    #[test]
    fn quantiles_are_ordered() {
        let r = ServiceReport {
            latencies_ns: vec![5, 1, 9, 3, 7],
            makespan: SimTime::from_ns(100),
        };
        assert!(r.quantile_ns(0.0) <= r.quantile_ns(0.5));
        assert!(r.quantile_ns(0.5) <= r.quantile_ns(1.0));
        assert_eq!(r.quantile_ns(1.0), 9.0);
        // Even-count medians interpolate instead of snapping to a rank.
        let even = ServiceReport {
            latencies_ns: vec![1, 3],
            makespan: SimTime::from_ns(100),
        };
        assert_eq!(even.quantile_ns(0.5), 2.0);
    }
}
