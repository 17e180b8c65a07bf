//! A *simulated* GenStore-like machine (§6.7), cross-validating the
//! analytic [`crate::BaselineParams`] model on the same discrete-event
//! substrate ECSSD runs on.
//!
//! GenStore's defining trait is channel-level accelerators: "there is a
//! proprietary accelerator for each channel... each of them works
//! independently without inter-channel communication". Consequences the
//! simulation captures directly:
//!
//! * each channel's accelerator can only classify the candidate rows that
//!   physically live in its channel — imbalance costs compute time, not
//!   just transfer time;
//! * the area budget splits eight ways, buying ~3 naive FP32 MAC lanes per
//!   channel (2.4 GFLOPS each);
//! * the GenStore-AP variant stores INT4 screener data homogeneously in
//!   flash, interfering with candidate traffic on the buses.
//!
//! The machine has no tile loop of its own: it implements the
//! classification [`TileTask`] and is driven by the same
//! [`run_tile_loop`] scheduler as
//! [`EcssdMachine`](ecssd_core::EcssdMachine), under the no-lookahead
//! [`SchedulePlan::in_order`] plan (GenStore has no tile double
//! buffering — serialization comes from its bus and engine timelines).

use ecssd_core::{
    classify_flops, int4_screen_ops, run_tile_loop, ComputeEngine, EcssdConfig, RowSelection,
    SchedulePlan, TaskKind, TilePhase, TileTask,
};
use ecssd_ssd::{FlashSim, PhysPageAddr, SimTime, SsdError};
use ecssd_workloads::CandidateSource;

/// GenStore variant under simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStoreVariant {
    /// No approximate screening: every row is read and classified.
    Naive,
    /// With the approximate screening algorithm (SSD-level INT4
    /// accelerator, homogeneous layout, uniform striping).
    Screening,
}

/// Result of a simulated GenStore run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStoreReport {
    /// Simulated ns per query batch over the window.
    pub ns_per_query: f64,
    /// Extrapolated ns per query batch over the full matrix.
    pub ns_per_query_full: f64,
    /// Busy fraction of the busiest channel's accelerator.
    pub max_engine_busy: f64,
}

/// The simulated GenStore machine.
pub struct GenStoreMachine {
    config: EcssdConfig,
    variant: GenStoreVariant,
    source: Box<dyn CandidateSource>,
    flash: FlashSim,
    /// SSD-level INT4 screener engine (Screening variant only).
    int4: ComputeEngine,
    /// One naive FP32 accelerator per channel.
    fp_engines: Vec<ComputeEngine>,
    /// Per-channel naive FP32 throughput, GFLOPS.
    channel_gflops: f64,
}

impl std::fmt::Debug for GenStoreMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenStoreMachine")
            .field("variant", &self.variant)
            .field("benchmark", &self.source.benchmark().abbrev)
            .finish_non_exhaustive()
    }
}

impl GenStoreMachine {
    /// Builds the machine. `channel_gflops` defaults to the calibrated
    /// 2.4 GFLOPS per channel (see [`crate::BaselineParams`]).
    pub fn new(
        config: EcssdConfig,
        variant: GenStoreVariant,
        source: Box<dyn CandidateSource>,
        channel_gflops: f64,
    ) -> Self {
        let channels = config.ssd.geometry.channels;
        GenStoreMachine {
            flash: FlashSim::new(config.ssd.geometry, config.ssd.timing),
            int4: ComputeEngine::new(config.accelerator.int4_gops()),
            fp_engines: (0..channels)
                .map(|_| ComputeEngine::new(channel_gflops))
                .collect(),
            channel_gflops,
            config,
            variant,
            source,
        }
    }

    /// Runs `queries` batches over the first `max_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0`.
    pub fn run_window(&mut self, queries: usize, max_tiles: usize) -> GenStoreReport {
        assert!(queries > 0, "need at least one query");
        let tiles_total = self.source.num_tiles();
        let tiles = tiles_total.min(max_tiles);
        let makespan = match run_tile_loop(self, SchedulePlan::in_order(), queries, tiles) {
            Ok(makespan) => makespan,
            Err(_) => unreachable!("GenStore tile stages are infallible"),
        };

        let max_busy = self
            .fp_engines
            .iter()
            .map(ComputeEngine::busy_ns)
            .max()
            .unwrap_or(0);
        GenStoreReport {
            ns_per_query: makespan.as_ns() as f64 / queries as f64,
            ns_per_query_full: makespan.as_ns() as f64 / queries as f64 * tiles_total as f64
                / tiles.max(1) as f64,
            max_engine_busy: max_busy as f64 / makespan.as_ns().max(1) as f64,
        }
    }

    /// Per-channel naive FP32 throughput the machine was built with.
    pub fn channel_gflops(&self) -> f64 {
        self.channel_gflops
    }
}

impl TileTask for GenStoreMachine {
    fn kind(&self) -> TaskKind {
        TaskKind::Classification
    }

    /// GenStore models no host feature upload: queries are on-device at
    /// time zero.
    fn begin_query(&mut self, _query: usize, _issue: SimTime) -> SimTime {
        SimTime::ZERO
    }

    fn select_rows(&mut self, query: usize, tile: usize, issue: SimTime) -> RowSelection {
        let bench = *self.source.benchmark();
        let range = self.source.tile_row_range(tile);
        let tile_len = (range.end - range.start) as usize;
        match self.variant {
            // No screening: every row of the tile is a "candidate".
            GenStoreVariant::Naive => RowSelection {
                select_done: issue,
                rows: range.collect(),
            },
            GenStoreVariant::Screening => {
                // Homogeneous INT4 stream over the buses + SSD-level INT4
                // screening.
                let channels = self.config.ssd.geometry.channels;
                let batch = self.config.accelerator.batch as u64;
                let k = bench.projected_dim() as u64;
                let int4_bytes = tile_len as u64 * bench.int4_row_bytes();
                let per = int4_bytes / channels as u64;
                let mut fetch_done = issue;
                for ch in 0..channels {
                    fetch_done = fetch_done.max(self.flash.bus_transfer(ch, per, issue));
                }
                let select_done = self
                    .int4
                    .compute(int4_screen_ops(k, tile_len as u64, batch), fetch_done);
                RowSelection {
                    select_done,
                    rows: self.source.candidates(query, tile),
                }
            }
        }
    }

    fn process_rows(
        &mut self,
        _query: usize,
        _tile: usize,
        candidates: &[u64],
        screen_done: SimTime,
        _sync: Option<SimTime>,
    ) -> Result<TilePhase, SsdError> {
        let bench = *self.source.benchmark();
        let g = self.config.ssd.geometry;
        let channels = g.channels;
        let pages_per_row = bench.pages_per_row(g.page_bytes);
        let batch = self.config.accelerator.batch as u64;
        let d = bench.hidden as u64;

        // Per-channel fetch + channel-local classification (uniform
        // stripe: global row `r` lives on channel `r % channels`): each
        // accelerator only sees the rows of its channel.
        let mut per_channel_addrs: Vec<Vec<PhysPageAddr>> = vec![Vec::new(); channels];
        for &row in candidates {
            let ch = (row % channels as u64) as usize;
            for p in 0..pages_per_row {
                per_channel_addrs[ch].push(PhysPageAddr::of_row_page(&g, ch, row, p, None));
            }
        }
        let mut done = SimTime::ZERO;
        for (ch, addrs) in per_channel_addrs.iter().enumerate() {
            if addrs.is_empty() {
                continue;
            }
            let fetch = self
                .flash
                .read_batch_checked(addrs, screen_done, screen_done);
            let row_count = addrs.len() as u64 / pages_per_row;
            let flops = classify_flops(d, row_count * batch);
            done = done.max(self.fp_engines[ch].compute(flops, fetch.done));
        }
        Ok(TilePhase {
            fetch_done: done,
            done,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineArch, BaselineParams};
    use ecssd_workloads::{Benchmark, SampledWorkload, TraceConfig};

    fn machine(variant: GenStoreVariant) -> GenStoreMachine {
        let bench = Benchmark::by_abbrev("XMLCNN-S10M").unwrap();
        let workload = SampledWorkload::new(bench, TraceConfig::paper_default());
        GenStoreMachine::new(
            EcssdConfig::paper_default(),
            variant,
            Box::new(workload),
            BaselineParams::paper_default().genstore_channel_gflops,
        )
    }

    #[test]
    fn screening_variant_is_much_faster() {
        let n = machine(GenStoreVariant::Naive).run_window(1, 8);
        let ap = machine(GenStoreVariant::Screening).run_window(1, 8);
        let ratio = n.ns_per_query / ap.ns_per_query;
        assert!(ratio > 3.0, "screening speedup {ratio}");
    }

    #[test]
    fn naive_variant_is_compute_bound() {
        let r = machine(GenStoreVariant::Naive).run_window(1, 8);
        assert!(r.max_engine_busy > 0.9, "engine busy {}", r.max_engine_busy);
    }

    #[test]
    fn simulation_validates_the_analytic_model() {
        // The DES and the closed-form model must agree within ~35% on the
        // full-matrix extrapolation for both variants.
        let params = BaselineParams::paper_default();
        let bench = Benchmark::by_abbrev("XMLCNN-S10M").unwrap();
        for (variant, arch) in [
            (GenStoreVariant::Naive, BaselineArch::GenStoreN),
            (GenStoreVariant::Screening, BaselineArch::GenStoreAp),
        ] {
            let sim = machine(variant).run_window(1, 12).ns_per_query_full;
            let analytic = params.ns_per_batch(arch, &bench);
            let ratio = sim / analytic;
            assert!(
                (0.65..=1.55).contains(&ratio),
                "{arch}: sim {sim:.3e} vs analytic {analytic:.3e} (ratio {ratio:.2})"
            );
        }
    }
}
