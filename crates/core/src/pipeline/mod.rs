//! The ECSSD execution pipeline: tile-by-tile, dual-precision, double
//! buffered (§4.5), decomposed into separately-testable stages.
//!
//! Per query batch and per weight tile:
//!
//! 1. the INT4 screener weights of the tile stream in — from device DRAM
//!    under the heterogeneous layout, or from the flash channels (sharing
//!    the buses with FP32 traffic) under the homogeneous baseline;
//! 2. the INT4 MAC array computes approximate scores, the comparator
//!    filters candidates;
//! 3. candidate FP32 (CFP32) weight rows are fetched from the flash
//!    channels into a ping-pong buffer bank;
//! 4. the FP32 MAC array runs candidate-only classification.
//!
//! All stages are timeline resources, so the ping-pong overlap of §4.5
//! (INT4 of tile *t+1* concurrent with FP32 of tile *t*, fetch of *t+1*
//! concurrent with compute of *t*) emerges from the dependency graph
//! rather than being hard-coded. The module splits along that graph:
//!
//! * [`schedule`] — the inter-tile dependency edges as data
//!   ([`SchedulePlan`]), the task-generic [`TileTask`] substrate trait,
//!   and the shared [`run_tile_loop`] driver (also used by the GenStore
//!   DES baseline in `ecssd-baselines`);
//! * [`fetch`](self) — the classification task's stage implementations:
//!   screener-weight streaming + candidate selection, the candidate fetch
//!   (one [`ecssd_ssd::RowPath::read`] over the hot-row cache, addressed
//!   through the interleaved layout), FP32 classification;
//! * [`gather`](self) — the RecSSD-style embedding-gather task: lookup-id
//!   routing, the same candidate fetch, pooling compute;
//! * [`degrade`](self) — the Fail/Retry/Reconstruct/Skip fault ladder;
//! * [`report`](self) — [`RunReport`] / [`TileTiming`] assembly.

use ecssd_float::MacCircuit;
use ecssd_layout::{InterleavingStrategy, TileLayout};
use ecssd_ssd::{
    Dram, FaultPlan, FlashSim, HealthReport, HostInterface, HotRowCache, PingPongBuffer, SsdError,
};
use ecssd_trace::Tracer;
use ecssd_workloads::CandidateSource;

use crate::accelerator::Accelerator;
use crate::EcssdConfig;

mod degrade;
mod fetch;
mod gather;
mod report;
mod schedule;

use degrade::DegradeLedger;
use fetch::EcssdTileRun;
use gather::GatherTileRun;

pub use report::{RunReport, TileTiming};
pub use schedule::{run_tile_loop, RowSelection, SchedulePlan, TaskKind, TilePhase, TileTask};

/// Where the INT4 screener weights live (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPlacement {
    /// ECSSD's heterogeneous layout: INT4 in device DRAM, FP32 in NAND.
    Heterogeneous,
    /// Baseline: both INT4 and FP32 weights in NAND flash; their transfers
    /// interfere on the channel buses.
    Homogeneous,
}

/// What the pipeline does when a candidate-row read comes back faulted
/// (uncorrectable ECC error or dead die).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Surface the fault as a typed error and abort the run. The right
    /// choice when any silent accuracy loss is unacceptable.
    #[default]
    Fail,
    /// Re-issue the failed page reads up to `max` more times. Recovers
    /// transient uncorrectable errors (a later attempt re-senses with
    /// fresh reference voltages); permanently failed pages that survive
    /// all attempts are dropped and counted as unrecovered.
    Retry {
        /// Maximum re-read attempts per failed page.
        max: u32,
    },
    /// Rebuild the lost page from its RAID-5 stripe peers (the other dies
    /// of the same channel, [`ecssd_layout::ParityScheme`]). Costs
    /// `stripe_width - 1` extra same-channel page reads per lost page;
    /// rows whose stripe peers also fail are counted as unrecovered.
    Reconstruct,
    /// Drop the affected candidate rows from classification and account
    /// the potential recall loss ([`EcssdMachine::skipped`]). Cheapest in
    /// time, pays in accuracy.
    Skip,
}

/// One architecture point: MAC circuit × placement × interleaving × overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineVariant {
    /// FP32 MAC circuit implementation.
    pub mac: MacCircuit,
    /// INT4/FP32 data placement.
    pub placement: DataPlacement,
    /// FP32 row interleaving over channels.
    pub interleaving: InterleavingStrategy,
    /// Whether the dual-module / ping-pong overlap of §4.5 is enabled
    /// (disabling it is the ablation of DESIGN.md §5).
    pub overlap: bool,
    /// Whether the scheduler drains one tile's candidate transfers before
    /// issuing the next tile's (§4.5 passes candidate addresses to the
    /// flash controllers tile by tile; §5.2: "the final data access time is
    /// decided by the busiest flash channel"). Disabling it models a more
    /// aggressive per-channel run-ahead scheduler — an ablation.
    pub per_tile_sync: bool,
    /// Training queries used to fine-tune hot degrees (0 disables the
    /// frequency signal even if the strategy asks for it).
    pub training_queries: usize,
    /// How the pipeline degrades when candidate reads fault (only
    /// observable when a [`FaultPlan`] is installed).
    pub degradation: DegradationPolicy,
}

impl MachineVariant {
    /// The full ECSSD design point.
    pub fn paper_ecssd() -> Self {
        MachineVariant {
            mac: MacCircuit::AlignmentFree,
            placement: DataPlacement::Heterogeneous,
            interleaving: InterleavingStrategy::Learned(Default::default()),
            overlap: true,
            per_tile_sync: true,
            training_queries: 24,
            degradation: DegradationPolicy::Fail,
        }
    }

    /// The Fig. 8 starting baseline: naive FP MAC, sequential storing,
    /// homogeneous placement.
    pub fn baseline_start() -> Self {
        MachineVariant {
            mac: MacCircuit::Naive,
            placement: DataPlacement::Homogeneous,
            interleaving: InterleavingStrategy::Sequential,
            overlap: true,
            per_tile_sync: true,
            training_queries: 0,
            degradation: DegradationPolicy::Fail,
        }
    }

    /// Sets the degradation policy (builder style).
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = policy;
        self
    }

    /// The scheduler edges this variant enables (§4.5 as data).
    pub fn schedule_plan(&self) -> SchedulePlan {
        SchedulePlan::pipelined(self.overlap, self.per_tile_sync)
    }
}

/// The assembled ECSSD performance model.
pub struct EcssdMachine {
    config: EcssdConfig,
    variant: MachineVariant,
    source: Box<dyn CandidateSource>,
    flash: FlashSim,
    dram: Dram,
    /// Hot candidate-row cache held in reserved device DRAM: rows that hit
    /// skip their NAND fetch and stream from DRAM instead.
    hot_cache: HotRowCache,
    host: HostInterface,
    buffer: PingPongBuffer,
    /// The INT4 and FP32 engines and the comparator.
    accel: Accelerator,
    /// Cached per-tile layouts (keyed by tile index).
    layouts: std::collections::HashMap<usize, TileLayout>,
    /// FP32-only traffic accounting (bus busy ns, bytes) per channel.
    fp_busy: Vec<u64>,
    fp_bytes: Vec<u64>,
    /// Optional per-tile timing instrumentation.
    tile_timings: Option<Vec<TileTiming>>,
    /// Known-dead dies per channel (populated by the retirement path of
    /// the learned framework; empty vectors mean a healthy channel).
    dead_per_channel: Vec<Vec<usize>>,
    /// Each channel's surviving dies, the draw row placement hashes over;
    /// `None` (no retirements, or every die dead) hashes over every die.
    /// Rebuilt beside `dead_per_channel` whenever a die retires.
    surviving_dies: Vec<Option<Vec<usize>>>,
    /// Dead-die detections already absorbed from the flash layer.
    absorbed_dead: usize,
    /// Degradation-policy accounting (accumulated across runs, merged into
    /// [`RunReport::health`]).
    ledger: DegradeLedger,
    /// Reusable per-tile fetch scratch (see [`fetch::TileScratch`]), so the
    /// tile loop allocates nothing per tile.
    tile_scratch: fetch::TileScratch,
    /// Span-trace handle shared with every timed resource (disabled by
    /// default; see [`EcssdMachine::enable_tracing`]).
    tracer: Tracer,
}

impl std::fmt::Debug for EcssdMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcssdMachine")
            .field("variant", &self.variant)
            .field("benchmark", &self.source.benchmark().abbrev)
            .finish_non_exhaustive()
    }
}

impl EcssdMachine {
    /// Builds the machine for one benchmark trace.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::DramCapacityExceeded`] when the heterogeneous
    /// layout is selected but the benchmark's INT4 screener matrix does
    /// not fit the configured device DRAM (the paper sizes DRAM so this
    /// holds for every paper benchmark, §7.1).
    pub fn new(
        config: EcssdConfig,
        variant: MachineVariant,
        source: Box<dyn CandidateSource>,
    ) -> Result<Self, SsdError> {
        let geometry = config.ssd.geometry;
        let flash = FlashSim::new(geometry, config.ssd.timing);
        let mut dram = Dram::new(
            config.ssd.dram_bytes,
            ecssd_ssd::Bandwidth::from_gbps(config.ssd.dram_gbps),
        );
        if variant.placement == DataPlacement::Heterogeneous {
            dram.reserve(source.benchmark().int4_matrix_bytes())?;
        }
        let hot_cache = HotRowCache::new(config.ssd.hot_cache_bytes);
        if hot_cache.is_enabled() {
            dram.reserve(hot_cache.capacity_bytes())?;
        }
        let accel = config.accelerator;
        Ok(EcssdMachine {
            buffer: PingPongBuffer::new(config.ssd.buffer_bytes),
            accel: Accelerator::new(accel.int4_gops(), accel.fp32_gflops(variant.mac)),
            flash,
            dram,
            hot_cache,
            host: HostInterface::pcie3_x4(),
            layouts: std::collections::HashMap::new(),
            fp_busy: vec![0; geometry.channels],
            fp_bytes: vec![0; geometry.channels],
            tile_timings: None,
            dead_per_channel: vec![Vec::new(); geometry.channels],
            surviving_dies: vec![None; geometry.channels],
            absorbed_dead: 0,
            ledger: DegradeLedger::default(),
            tile_scratch: fetch::TileScratch::default(),
            tracer: Tracer::disabled(),
            config,
            variant,
            source,
        })
    }

    /// Enables simulated-time span tracing and returns the shared handle.
    /// Subsequent [`RunReport`]s carry a per-stage
    /// [`StageBreakdown`](ecssd_trace::StageBreakdown), and the handle's
    /// spans can be exported with [`ecssd_trace::chrome_trace_json`].
    /// Tracing observes the timelines without perturbing them: a traced
    /// run reports the same times as an untraced one.
    pub fn enable_tracing(&mut self) -> Tracer {
        self.set_tracer(Tracer::enabled());
        self.tracer.clone()
    }

    /// Installs a span-trace handle into every timed pipeline resource
    /// (flash array, DRAM interface, host link, both MAC engines).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.flash.set_tracer(tracer.clone());
        self.dram.set_tracer(tracer.clone());
        self.host.set_tracer(tracer.clone());
        self.accel.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The machine's trace handle (disabled unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs a deterministic fault plan on the underlying flash
    /// simulator. Subsequent runs draw faults from it; the active
    /// [`DegradationPolicy`] decides how the pipeline reacts.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a die outside the configured geometry.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.flash.set_fault_plan(plan);
    }

    /// Candidate rows dropped under [`DegradationPolicy::Skip`] (or left
    /// unrecovered by the other policies), as `(query, tile, global_row)`.
    /// Downstream recall-loss accounting compares these against the true
    /// top-k rows of each query.
    pub fn skipped(&self) -> &[(usize, usize, u64)] {
        &self.ledger.skipped
    }

    /// The device-health summary so far (flash-layer counters plus
    /// policy-level recovery accounting).
    pub fn health_report(&self) -> HealthReport {
        let mut health = self.flash.health_report();
        health.retried_reads = self.ledger.retried_reads;
        health.reconstructed_rows = self.ledger.reconstructed_rows;
        health.reconstruction_page_reads = self.ledger.reconstruction_page_reads;
        health.skipped_rows = self.ledger.skipped.len() as u64 - self.ledger.unrecovered_rows;
        health.unrecovered_rows = self.ledger.unrecovered_rows;
        health
    }

    /// Records a [`TileTiming`] for every (query, tile) processed by
    /// subsequent runs — the data behind pipeline-visualization tooling.
    pub fn enable_tile_timings(&mut self) {
        self.tile_timings = Some(Vec::new());
    }

    /// The recorded per-tile timings (empty unless enabled).
    pub fn tile_timings(&self) -> &[TileTiming] {
        self.tile_timings.as_deref().unwrap_or(&[])
    }

    /// The variant under test.
    pub fn variant(&self) -> &MachineVariant {
        &self.variant
    }

    /// Runs `queries` query batches over the first `max_tiles` tiles of the
    /// matrix (use `usize::MAX` for all tiles). Returns the run report.
    ///
    /// The window is one [`run_tile_loop`] drive of the machine's
    /// classification [`TileTask`] view under the variant's
    /// [`SchedulePlan`].
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::BufferOverflow`] when a tile's candidates
    /// exceed one ping-pong bank, and — under [`DegradationPolicy::Fail`]
    /// only — [`SsdError::Uncorrectable`] / [`SsdError::DieFailed`] when
    /// an injected fault hits a candidate read. The other policies degrade
    /// gracefully and report through [`RunReport::health`].
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0`.
    pub fn run_window(&mut self, queries: usize, max_tiles: usize) -> Result<RunReport, SsdError> {
        assert!(queries > 0, "need at least one query");
        let tiles_total = self.source.num_tiles();
        let tiles = tiles_total.min(max_tiles);
        let plan = self.variant.schedule_plan();
        let mut run = EcssdTileRun::new(self);
        let makespan = run_tile_loop(&mut run, plan, queries, tiles)?;
        let candidate_rows = run.candidate_rows;
        Ok(report::assemble(
            self,
            TaskKind::Classification,
            makespan,
            queries,
            tiles,
            tiles_total,
            candidate_rows,
        ))
    }

    /// Runs `queries` query batches over the whole matrix.
    ///
    /// # Errors
    ///
    /// See [`EcssdMachine::run_window`].
    pub fn run(&mut self, queries: usize) -> Result<RunReport, SsdError> {
        self.run_window(queries, usize::MAX)
    }

    /// Runs `queries` embedding-gather batches over the first `max_tiles`
    /// table tiles (use `usize::MAX` for all tiles): the machine's
    /// [`TaskKind::EmbeddingGather`] view under the same
    /// [`SchedulePlan`]. The trace source supplies each batch's lookup
    /// rows per tile; rows fetch through the shared hot-row-cache +
    /// interleaved-layout path and are pooled on the FP32 engine.
    ///
    /// # Errors
    ///
    /// See [`EcssdMachine::run_window`] — the fetch path (and therefore
    /// its error surface) is shared.
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0`.
    pub fn run_gather_window(
        &mut self,
        queries: usize,
        max_tiles: usize,
    ) -> Result<RunReport, SsdError> {
        assert!(queries > 0, "need at least one query");
        let tiles_total = self.source.num_tiles();
        let tiles = tiles_total.min(max_tiles);
        let plan = self.variant.schedule_plan();
        let mut run = GatherTileRun::new(self);
        let makespan = run_tile_loop(&mut run, plan, queries, tiles)?;
        let gathered_rows = run.gathered_rows;
        Ok(report::assemble(
            self,
            TaskKind::EmbeddingGather,
            makespan,
            queries,
            tiles,
            tiles_total,
            gathered_rows,
        ))
    }

    /// Per-channel candidate access counts of one `(query, tile)` pair —
    /// the Fig. 11 measurement.
    pub fn tile_channel_loads(&mut self, query: usize, tile: usize) -> Vec<u64> {
        let range = self.source.tile_row_range(tile);
        let cands = self.source.candidates(query, tile);
        let layout = self.tile_layout(tile);
        let local: Vec<usize> = cands.iter().map(|&r| (r - range.start) as usize).collect();
        ecssd_layout::channel_loads(layout, &local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecssd_ssd::CacheStats;
    use ecssd_trace::Stage;
    use ecssd_workloads::{Benchmark, SampledWorkload, TraceConfig};

    fn machine(variant: MachineVariant, bench: &str) -> EcssdMachine {
        let b = Benchmark::by_abbrev(bench).unwrap();
        let w = SampledWorkload::new(b, TraceConfig::paper_default());
        EcssdMachine::new(EcssdConfig::paper_default(), variant, Box::new(w)).unwrap()
    }

    fn window_report(variant: MachineVariant, bench: &str) -> RunReport {
        machine(variant, bench).run_window(3, 24).unwrap()
    }

    #[test]
    fn ecssd_outperforms_baseline() {
        let ecssd = window_report(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let base = window_report(MachineVariant::baseline_start(), "Transformer-W268K");
        let speedup = base.ns_per_query() / ecssd.ns_per_query();
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn sequential_baseline_leaves_channels_idle() {
        let base = window_report(MachineVariant::baseline_start(), "Transformer-W268K");
        assert!(
            base.fp_channel_utilization < 0.15,
            "utilization {}",
            base.fp_channel_utilization
        );
        // Most channels never see FP32 traffic in a 24-tile window.
        assert!(base.fp_imbalance().idle_channels >= 6);
    }

    #[test]
    fn learned_interleaving_balances_fp_traffic() {
        let r = window_report(MachineVariant::paper_ecssd(), "Transformer-W268K");
        assert!(
            r.fp_imbalance().balance() > 0.9,
            "balance {}",
            r.fp_imbalance().balance()
        );
        assert!(
            r.fp_channel_utilization > 0.65,
            "utilization {}",
            r.fp_channel_utilization
        );
    }

    #[test]
    fn uniform_sits_between_sequential_and_learned() {
        let mk = |interleaving| MachineVariant {
            interleaving,
            ..MachineVariant::paper_ecssd()
        };
        let seq = window_report(mk(InterleavingStrategy::Sequential), "Transformer-W268K");
        let uni = window_report(mk(InterleavingStrategy::Uniform), "Transformer-W268K");
        let lrn = window_report(MachineVariant::paper_ecssd(), "Transformer-W268K");
        assert!(seq.ns_per_query() > uni.ns_per_query());
        assert!(uni.ns_per_query() > lrn.ns_per_query());
    }

    #[test]
    fn heterogeneous_beats_homogeneous() {
        let hetero = window_report(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let homo = window_report(
            MachineVariant {
                placement: DataPlacement::Homogeneous,
                ..MachineVariant::paper_ecssd()
            },
            "Transformer-W268K",
        );
        assert!(homo.ns_per_query() > hetero.ns_per_query() * 1.05);
        assert!(homo.dram_busy_ns < hetero.dram_busy_ns);
    }

    #[test]
    fn alignment_free_beats_naive_on_compute_bound_benchmarks() {
        // GNMT (D=1024) is compute-heavy at batch 16; the naive MAC stalls.
        let af = window_report(MachineVariant::paper_ecssd(), "GNMT-E32K");
        let naive = window_report(
            MachineVariant {
                mac: MacCircuit::Naive,
                ..MachineVariant::paper_ecssd()
            },
            "GNMT-E32K",
        );
        assert!(
            naive.ns_per_query() > af.ns_per_query() * 1.2,
            "naive {} vs af {}",
            naive.ns_per_query(),
            af.ns_per_query()
        );
    }

    #[test]
    fn overlap_ablation_slows_the_pipeline() {
        let on = window_report(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let off = window_report(
            MachineVariant {
                overlap: false,
                ..MachineVariant::paper_ecssd()
            },
            "Transformer-W268K",
        );
        assert!(
            off.ns_per_query() > on.ns_per_query() * 1.1,
            "no-overlap {} vs overlapped {}",
            off.ns_per_query(),
            on.ns_per_query()
        );
    }

    #[test]
    fn extrapolation_scales_with_tiles() {
        let mut m = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let r = m.run_window(2, 16).unwrap();
        let full = r.ns_per_query_full();
        assert!(full > r.ns_per_query() * 30.0, "523 tiles vs 16 simulated");
    }

    #[test]
    fn fig11_loads_are_more_balanced_under_learned() {
        let mut lrn = machine(MachineVariant::paper_ecssd(), "GNMT-E32K");
        let mut uni = machine(
            MachineVariant {
                interleaving: InterleavingStrategy::Uniform,
                training_queries: 0,
                ..MachineVariant::paper_ecssd()
            },
            "GNMT-E32K",
        );
        // Average the per-tile balance over several (query, tile) pairs;
        // any single tile is one random draw.
        let mut lb = 0.0;
        let mut ub = 0.0;
        let pairs = 24;
        for q in 0..4 {
            for t in 0..6 {
                let l = lrn.tile_channel_loads(q, t);
                let u = uni.tile_channel_loads(q, t);
                lb += ecssd_ssd::ImbalanceReport::from_loads(&l).balance();
                ub += ecssd_ssd::ImbalanceReport::from_loads(&u).balance();
            }
        }
        lb /= pairs as f64;
        ub /= pairs as f64;
        assert!(lb > ub + 0.1, "learned {lb} vs uniform {ub}");
    }

    #[test]
    fn tile_timings_record_the_pipeline_order() {
        let mut m = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        m.enable_tile_timings();
        let _ = m.run_window(1, 8).unwrap();
        let timings = m.tile_timings();
        assert_eq!(timings.len(), 8);
        for t in timings {
            assert!(t.screen_done <= t.fetch_done);
            assert!(t.fetch_done <= t.fp_done);
            assert!(t.candidates > 0);
        }
        // Screening runs ahead: by the last tile, its screen_done precedes
        // the previous tile's fp_done (dual-module overlap, §4.5).
        let last = &timings[7];
        let prev = &timings[6];
        assert!(last.screen_done < prev.fp_done);
    }

    #[test]
    fn works_at_100m_scale() {
        let mut m = machine(MachineVariant::paper_ecssd(), "XMLCNN-S100M");
        let r = m.run_window(1, 4).unwrap();
        assert_eq!(r.tiles_total, 195_313);
        assert!(r.ns_per_query_full() > 1e6);
    }

    #[test]
    fn hot_cache_serves_repeat_candidates_from_dram() {
        let bench = Benchmark::by_abbrev("Transformer-W268K").unwrap();
        let config = EcssdConfig::builder()
            .hot_cache_bytes(64 << 20)
            .build()
            .unwrap();
        let w = SampledWorkload::new(bench, TraceConfig::paper_default());
        let mut m = EcssdMachine::new(config, MachineVariant::paper_ecssd(), Box::new(w)).unwrap();
        let r = m.run_window(3, 16).unwrap();
        assert!(r.cache.hits > 0, "repeat candidates should hit the cache");
        assert!(r.cache.bytes_saved > 0);
        assert!(r.cache.resident_bytes > 0);
        // Cache hits shed NAND traffic vs the uncached run (same window);
        // a disabled cache reports all-zero counters.
        let base = machine(MachineVariant::paper_ecssd(), "Transformer-W268K")
            .run_window(3, 16)
            .unwrap();
        assert_eq!(base.cache, CacheStats::default());
        let cached_bytes: u64 = r.fp_channel_bytes.iter().sum();
        let base_fp: u64 = base.fp_channel_bytes.iter().sum();
        assert!(
            cached_bytes < base_fp,
            "cached {cached_bytes} vs base {base_fp}"
        );
    }

    // ---- fault injection & degradation ---------------------------------

    fn faulted_report(policy: DegradationPolicy, plan: FaultPlan) -> RunReport {
        let mut m = machine(
            MachineVariant::paper_ecssd().with_degradation(policy),
            "Transformer-W268K",
        );
        m.set_fault_plan(plan);
        m.run_window(2, 16).unwrap()
    }

    #[test]
    fn inert_fault_plan_leaves_the_run_byte_identical() {
        let clean = machine(MachineVariant::paper_ecssd(), "Transformer-W268K")
            .run_window(2, 16)
            .unwrap();
        let inert = faulted_report(DegradationPolicy::Fail, FaultPlan::with_seed(99));
        assert_eq!(clean, inert);
        assert!(inert.health.is_clean());
    }

    #[test]
    fn fail_policy_surfaces_a_typed_uecc_error() {
        let mut m = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        m.set_fault_plan(FaultPlan::with_seed(3).with_uecc(1.0));
        match m.run_window(1, 4) {
            Err(SsdError::Uncorrectable { .. }) => {}
            other => panic!("expected Uncorrectable, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_recovers_transient_uecc_without_losing_rows() {
        let plan = FaultPlan::with_seed(11).with_uecc(0.01);
        let r = faulted_report(DegradationPolicy::Retry { max: 4 }, plan);
        assert!(r.health.uecc_events > 0, "no fault ever fired");
        assert!(r.health.retried_reads > 0);
        assert_eq!(r.health.unrecovered_rows, 0);
        assert_eq!(r.health.skipped_rows, 0);
        // Recovery traffic costs time vs the fault-free run (same window).
        let clean = machine(MachineVariant::paper_ecssd(), "Transformer-W268K")
            .run_window(2, 16)
            .unwrap();
        assert!(r.ns_per_query() >= clean.ns_per_query());
    }

    #[test]
    fn reconstruct_policy_rebuilds_rows_from_stripe_peers() {
        let plan = FaultPlan::with_seed(11).with_uecc(0.01);
        let r = faulted_report(DegradationPolicy::Reconstruct, plan);
        assert!(r.health.reconstructed_rows > 0);
        // RAID-5 over the channel's dies: stripe_width - 1 peer reads per
        // lost page (rows are single-page on this benchmark).
        let w = EcssdConfig::paper_default().ssd.geometry.dies_per_channel as u64;
        assert!(r.health.reconstruction_page_reads >= r.health.reconstructed_rows * (w - 1));
        assert_eq!(r.health.skipped_rows, 0);
    }

    #[test]
    fn skip_policy_drops_rows_and_accounts_them() {
        let plan = FaultPlan::with_seed(11).with_uecc(0.01);
        let mut m = machine(
            MachineVariant::paper_ecssd().with_degradation(DegradationPolicy::Skip),
            "Transformer-W268K",
        );
        m.set_fault_plan(plan);
        let r = m.run_window(2, 16).unwrap();
        assert!(r.health.skipped_rows > 0);
        assert_eq!(r.health.skipped_rows, m.skipped().len() as u64);
        // Every skipped entry names a (query, tile) inside the window.
        for &(q, t, _row) in m.skipped() {
            assert!(q < 2 && t < 16);
        }
    }

    #[test]
    fn faulted_runs_replay_byte_identically() {
        let plan = FaultPlan::with_seed(77)
            .with_uecc(0.01)
            .with_retry_storms(0.02);
        let a = faulted_report(DegradationPolicy::Retry { max: 2 }, plan.clone());
        let b = faulted_report(DegradationPolicy::Retry { max: 2 }, plan);
        assert_eq!(a, b);
        assert_eq!(a.health, b.health);
    }

    #[test]
    fn learned_interleaving_retires_a_dead_die_and_routes_around_it() {
        // Channel 0: the sequential layout maps the first tiles there, so
        // both variants exercise the dead die.
        let plan = FaultPlan::with_seed(5).with_dead_die(0, 1);
        let mut m = machine(
            MachineVariant::paper_ecssd().with_degradation(DegradationPolicy::Skip),
            "Transformer-W268K",
        );
        m.set_fault_plan(plan.clone());
        let first = m.run_window(2, 16).unwrap();
        assert!(first.health.dead_dies.contains(&(0, 1)));
        // After detection + retirement, subsequent windows re-place rows on
        // the surviving dies: no further reads hit the dead die.
        let before = m.health_report().dead_die_reads;
        let _ = m.run_window(2, 16).unwrap();
        assert_eq!(m.health_report().dead_die_reads, before);

        // The sequential baseline has no health feedback: its layout keeps
        // addressing the dead die in every window.
        let mut seq = machine(
            MachineVariant {
                interleaving: InterleavingStrategy::Sequential,
                ..MachineVariant::paper_ecssd()
            }
            .with_degradation(DegradationPolicy::Skip),
            "Transformer-W268K",
        );
        seq.set_fault_plan(plan);
        let _ = seq.run_window(2, 16).unwrap();
        let before = seq.health_report().dead_die_reads;
        let _ = seq.run_window(2, 16).unwrap();
        assert!(seq.health_report().dead_die_reads > before);
    }

    #[test]
    fn tracing_is_an_observer_not_a_participant() {
        // A traced run must report the same simulated times as an untraced
        // one: tracing reads the timelines, it never perturbs them.
        let mut plain = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let mut traced = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let tracer = traced.enable_tracing();
        assert!(tracer.is_enabled());

        let a = plain.run_window(3, 24).unwrap();
        let mut b = traced.run_window(3, 24).unwrap();
        let breakdown = b.breakdown.take().expect("traced run carries a breakdown");
        assert_eq!(a.breakdown, None);
        assert_eq!(a, b, "tracing changed the simulated run");

        // Exclusive attribution covers the whole window: stage times plus
        // idle equal the makespan exactly.
        assert_eq!(
            breakdown.attributed_total_ns() + breakdown.idle_ns,
            breakdown.total_ns
        );
        assert!(breakdown.reconciles(0.01));
        assert_eq!(breakdown.dropped_spans, 0);
        // The pipeline exercises screening, selection, MAC, and flash.
        for stage in [
            Stage::Int4Screen,
            Stage::CandidateSelect,
            Stage::Fp32Mac,
            Stage::FlashRead,
        ] {
            let e = breakdown.entries.iter().find(|e| e.stage == stage);
            assert!(
                e.is_some_and(|e| e.busy_ns > 0),
                "no {stage} spans recorded"
            );
        }
    }

    #[test]
    fn traced_counters_match_report() {
        let mut m = machine(MachineVariant::paper_ecssd(), "Transformer-W268K");
        let tracer = m.enable_tracing();
        let r = m.run_window(3, 24).unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            tracer.counters().into_iter().collect();
        assert_eq!(
            counters.get("pipeline.candidate_rows").copied(),
            Some(r.candidate_rows)
        );
        assert_eq!(
            counters.get("cache.hit_rows").copied().unwrap_or(0),
            r.cache.hits
        );
    }
}
