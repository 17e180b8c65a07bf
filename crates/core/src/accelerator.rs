//! Timeline models of the accelerator's compute engines.

use ecssd_ssd::{SimTime, Stage, Tracer};

/// A serialized compute engine with a fixed operation rate.
///
/// Engines are resources like buses: an operation batch occupies the engine
/// from `max(issue, free_at)` for `ops / rate` nanoseconds.
#[derive(Debug, Clone)]
pub struct ComputeEngine {
    /// Giga-operations per second (= ops per ns).
    rate_gops: f64,
    free_at: SimTime,
    busy_ns: u64,
    ops_done: u64,
    tracer: Tracer,
    trace_stage: Option<Stage>,
}

impl ComputeEngine {
    /// An engine with the given throughput in GOPS (operations per ns).
    ///
    /// # Panics
    ///
    /// Panics if `rate_gops` is not strictly positive.
    pub fn new(rate_gops: f64) -> Self {
        assert!(rate_gops > 0.0, "engine rate must be positive");
        ComputeEngine {
            rate_gops,
            free_at: SimTime::ZERO,
            busy_ns: 0,
            ops_done: 0,
            tracer: Tracer::disabled(),
            trace_stage: None,
        }
    }

    /// Installs a trace handle; every subsequent batch records a span of
    /// the given stage (e.g. [`Stage::Int4Screen`] for the screening array,
    /// [`Stage::Fp32Mac`] for the CFP32 array).
    pub fn set_tracer(&mut self, tracer: Tracer, stage: Stage) {
        self.tracer = tracer;
        self.trace_stage = Some(stage);
    }

    /// Schedules `ops` operations no earlier than `issue`; returns the
    /// completion time.
    pub fn compute(&mut self, ops: u64, issue: SimTime) -> SimTime {
        if ops == 0 {
            return issue;
        }
        let start = issue.max(self.free_at);
        let dur = ((ops as f64 / self.rate_gops).ceil() as u64).max(1);
        let done = start + dur;
        self.free_at = done;
        self.busy_ns += dur;
        self.ops_done += ops;
        if let Some(stage) = self.trace_stage {
            self.tracer.span(stage, start, done);
        }
        done
    }

    /// Throughput in GOPS.
    pub fn rate_gops(&self) -> f64 {
        self.rate_gops
    }

    /// Accumulated busy time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Total operations executed.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Earliest time the engine is free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_is_ops_over_rate() {
        let mut e = ComputeEngine::new(50.0); // 50 GFLOPS
        let done = e.compute(5_000, SimTime::ZERO);
        assert_eq!(done.as_ns(), 100);
        assert_eq!(e.busy_ns(), 100);
        assert_eq!(e.ops_done(), 5_000);
    }

    #[test]
    fn batches_serialize() {
        let mut e = ComputeEngine::new(1.0);
        let a = e.compute(10, SimTime::ZERO);
        let b = e.compute(10, SimTime::ZERO);
        assert_eq!(a.as_ns(), 10);
        assert_eq!(b.as_ns(), 20);
    }

    #[test]
    fn zero_ops_is_free() {
        let mut e = ComputeEngine::new(1.0);
        assert_eq!(e.compute(0, SimTime::from_ns(4)), SimTime::from_ns(4));
        assert_eq!(e.busy_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ComputeEngine::new(0.0);
    }
}
