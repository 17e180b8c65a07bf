//! The accelerator next to the SSD's data buffer (§4.5): its compute
//! engines as timeline resources, and the stage charges both device models
//! make on them — [`crate::EcssdMachine`] per tile, the serving
//! [`crate::Ecssd`] per batch.

use ecssd_ssd::{HostInterface, SimTime, Stage, Tracer};
use ecssd_trace::Timeline;

/// Fixed scheduler/comparator latency of one candidate selection, ns.
const TILE_CONTROL_NS: u64 = 200;

/// A serialized compute engine with a fixed operation rate.
///
/// Engines are resources like buses: an operation batch occupies the engine
/// from `max(issue, free_at)` for `ops / rate` nanoseconds.
#[derive(Debug, Clone)]
pub struct ComputeEngine {
    /// Giga-operations per second (= ops per ns).
    rate_gops: f64,
    timeline: Timeline,
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
            timeline: Timeline::default(),
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
        let dur = ((ops as f64 / self.rate_gops).ceil() as u64).max(1);
        let (start, done) = self.timeline.occupy(issue, dur);
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
        self.timeline.busy_ns()
    }

    /// Total operations executed.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Earliest time the engine is free.
    pub fn free_at(&self) -> SimTime {
        self.timeline.free_at()
    }
}

/// INT4 operations of screening `rows` weight rows of `k` projected
/// dimensions against `n` inputs: a multiply and an add per code.
pub fn int4_screen_ops(k: u64, rows: u64, n: u64) -> u64 {
    2 * k * rows * n
}

/// FP32 flops of classifying `pairs` (input, candidate) pairs of `d`
/// features: a multiply and an add per feature.
pub fn classify_flops(d: u64, pairs: u64) -> u64 {
    2 * d * pairs
}

/// Uploads `n` inputs' features over the host link from `issue`: each
/// input's `d` CFP32 features (4 bytes each plus the shared exponent byte)
/// and its `k` INT4 projected features (two per byte), as one transfer.
/// Returns when they are on the device.
pub(crate) fn upload_features(
    host: &mut HostInterface,
    n: u64,
    d: u64,
    k: u64,
    issue: SimTime,
) -> SimTime {
    host.transfer(n * (4 * d + 1) + n * k.div_ceil(2), issue)
}

/// The accelerator's compute stages: the INT4 screening engine, the
/// comparator that selects candidates, and the CFP32 MAC engine.
#[derive(Debug)]
pub(crate) struct Accelerator {
    pub(crate) int4: ComputeEngine,
    pub(crate) fp32: ComputeEngine,
    tracer: Tracer,
}

impl Accelerator {
    /// An accelerator with an INT4 engine at `int4_gops` and an FP32
    /// engine at `fp32_gflops`.
    pub(crate) fn new(int4_gops: f64, fp32_gflops: f64) -> Self {
        Accelerator {
            int4: ComputeEngine::new(int4_gops),
            fp32: ComputeEngine::new(fp32_gflops),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace handle: the engines record [`Stage::Int4Screen`]
    /// and [`Stage::Fp32Mac`] spans, the comparator
    /// [`Stage::CandidateSelect`] spans.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.int4.set_tracer(tracer.clone(), Stage::Int4Screen);
        self.fp32.set_tracer(tracer.clone(), Stage::Fp32Mac);
        self.tracer = tracer;
    }

    /// Screens `rows` weight rows for `n` inputs of `k` projected
    /// dimensions once their INT4 weights are `ready`
    /// ([`int4_screen_ops`]), then selects the candidates. Returns when
    /// the candidate set is known.
    pub(crate) fn screen(&mut self, k: u64, rows: u64, n: u64, ready: SimTime) -> SimTime {
        let screened = self.int4.compute(int4_screen_ops(k, rows, n), ready);
        self.select(screened)
    }

    /// The comparator: a candidate set is selected [`TILE_CONTROL_NS`]
    /// after its scores (or routed ids) are `ready`.
    pub(crate) fn select(&self, ready: SimTime) -> SimTime {
        let selected = ready + TILE_CONTROL_NS;
        self.tracer.span(Stage::CandidateSelect, ready, selected);
        selected
    }

    /// Candidate-only classification of `pairs` (input, candidate) pairs
    /// of `d` features ([`classify_flops`]), once the candidate rows are
    /// `fetched` and the inputs `uploaded`. Returns when it finishes.
    pub(crate) fn classify(
        &mut self,
        d: u64,
        pairs: u64,
        fetched: SimTime,
        uploaded: SimTime,
    ) -> SimTime {
        self.fp32
            .compute(classify_flops(d, pairs), fetched.max(uploaded))
    }

    /// Pools `rows` gathered rows of `d` features (one accumulate per
    /// feature, `d·rows` flops), once the rows are `fetched` and the
    /// request descriptors `uploaded`. Returns when it finishes.
    pub(crate) fn pool(
        &mut self,
        d: u64,
        rows: u64,
        fetched: SimTime,
        uploaded: SimTime,
    ) -> SimTime {
        self.fp32.compute(d * rows, fetched.max(uploaded))
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
