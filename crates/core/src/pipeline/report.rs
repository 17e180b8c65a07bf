//! Run-report assembly: [`RunReport`] / [`TileTiming`] and the fold that
//! collects a window's resource counters into one record.

use ecssd_ssd::{CacheStats, HealthReport, ImbalanceReport, SimTime};
use ecssd_trace::StageBreakdown;

use super::schedule::TaskKind;
use super::EcssdMachine;

/// Outcome of a pipeline run.
#[derive(Clone, PartialEq)]
pub struct RunReport {
    /// End-to-end simulated time.
    pub makespan: SimTime,
    /// Query batches executed.
    pub queries: usize,
    /// Tiles simulated per query.
    pub tiles_simulated: usize,
    /// Tiles the full matrix would need per query.
    pub tiles_total: usize,
    /// Candidate rows fetched in total.
    pub candidate_rows: u64,
    /// Channel-bandwidth utilization of FP32 weight traffic only (the
    /// quantity Fig. 8 reports).
    pub fp_channel_utilization: f64,
    /// Per-channel FP32 bytes moved.
    pub fp_channel_bytes: Vec<u64>,
    /// INT4 engine busy time, ns.
    pub int4_busy_ns: u64,
    /// FP32 engine busy time, ns.
    pub fp32_busy_ns: u64,
    /// DRAM interface busy time, ns.
    pub dram_busy_ns: u64,
    /// Producer stalls waiting for a buffer bank, ns.
    pub buffer_stall_ns: u64,
    /// Fault and degradation accounting for the run (all-zero when no
    /// faults were injected or observed).
    pub health: HealthReport,
    /// Hot candidate-row cache counters (all-zero when
    /// `SsdConfig::hot_cache_bytes == 0`).
    pub cache: CacheStats,
    /// Per-stage simulated-time attribution over `[0, makespan]`, present
    /// when span tracing is on (see [`EcssdMachine::enable_tracing`]).
    /// `None` when tracing is disabled, so traced and untraced reports
    /// differ only in this field.
    pub breakdown: Option<StageBreakdown>,
    /// Which in-storage task the window executed. Defaults to
    /// [`TaskKind::Classification`] so reports serialized before the task
    /// abstraction deserialize unchanged.
    pub task: TaskKind,
}

/// Hand-written to match the derive output exactly for classification
/// reports — the 9 pre-task golden fixtures compare `{:#?}` renders
/// byte-for-byte — while still surfacing the [`RunReport::task`] tag for
/// every other task.
impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RunReport");
        s.field("makespan", &self.makespan)
            .field("queries", &self.queries)
            .field("tiles_simulated", &self.tiles_simulated)
            .field("tiles_total", &self.tiles_total)
            .field("candidate_rows", &self.candidate_rows)
            .field("fp_channel_utilization", &self.fp_channel_utilization)
            .field("fp_channel_bytes", &self.fp_channel_bytes)
            .field("int4_busy_ns", &self.int4_busy_ns)
            .field("fp32_busy_ns", &self.fp32_busy_ns)
            .field("dram_busy_ns", &self.dram_busy_ns)
            .field("buffer_stall_ns", &self.buffer_stall_ns)
            .field("health", &self.health)
            .field("cache", &self.cache)
            .field("breakdown", &self.breakdown);
        if self.task != TaskKind::Classification {
            s.field("task", &self.task);
        }
        s.finish()
    }
}

impl RunReport {
    /// Simulated nanoseconds per query batch over the simulated window.
    pub fn ns_per_query(&self) -> f64 {
        self.makespan.as_ns() as f64 / self.queries.max(1) as f64
    }

    /// Extrapolated nanoseconds per query batch over the full weight
    /// matrix (window time scaled by the tile ratio; valid because the
    /// pipeline is in steady state within the window).
    pub fn ns_per_query_full(&self) -> f64 {
        self.ns_per_query() * self.tiles_total as f64 / self.tiles_simulated.max(1) as f64
    }

    /// Imbalance of the per-channel FP32 byte loads.
    pub fn fp_imbalance(&self) -> ImbalanceReport {
        ImbalanceReport::from_loads(&self.fp_channel_bytes)
    }
}

/// Per-tile timing record (optional instrumentation; see
/// [`EcssdMachine::enable_tile_timings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTiming {
    /// Query batch index.
    pub query: usize,
    /// Tile index.
    pub tile: usize,
    /// Candidate rows this tile fetched.
    pub candidates: usize,
    /// When screening finished (candidates known).
    pub screen_done: SimTime,
    /// When the last candidate page arrived in the buffer bank.
    pub fetch_done: SimTime,
    /// When FP32 classification finished.
    pub fp_done: SimTime,
}

/// Folds the machine's resource counters into the window's [`RunReport`].
pub(crate) fn assemble(
    m: &EcssdMachine,
    task: TaskKind,
    makespan: SimTime,
    queries: usize,
    tiles_simulated: usize,
    tiles_total: usize,
    candidate_rows: u64,
) -> RunReport {
    let channels = m.config.ssd.geometry.channels;
    let total_fp_busy: u64 = m.fp_busy.iter().sum();
    RunReport {
        makespan,
        queries,
        tiles_simulated,
        tiles_total,
        candidate_rows,
        fp_channel_utilization: total_fp_busy as f64
            / (makespan.as_ns().max(1) as f64 * channels as f64),
        fp_channel_bytes: m.fp_bytes.clone(),
        int4_busy_ns: m.accel.int4.busy_ns(),
        fp32_busy_ns: m.accel.fp32.busy_ns(),
        dram_busy_ns: m.dram.busy_ns(),
        buffer_stall_ns: m.buffer.stall_ns(),
        health: m.health_report(),
        cache: m.hot_cache.stats(),
        breakdown: if m.tracer.is_enabled() {
            let mut b = StageBreakdown::attribute(&m.tracer.spans(), SimTime::ZERO, makespan);
            b.dropped_spans = m.tracer.dropped_spans();
            Some(b)
        } else {
            None
        },
        task,
    }
}
