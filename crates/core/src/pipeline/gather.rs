//! The RecSSD-style embedding-gather task: route each batch's lookup ids
//! to the table tiles, fetch the looked-up rows with the classification
//! task's candidate fetch (one [`ecssd_ssd::RowPath::read`] over the
//! hot-row cache, addressed through the interleaved layout), and pool them
//! on the FP32 engine.
//!
//! Gather is the substrate's second [`TileTask`]: read-dominated with
//! trivial compute, so it stresses interleaving and the hot-row cache in
//! the opposite way from extreme classification. The select phase is
//! id routing (no INT4 screening, no screener-weight stream); the process
//! phase reuses [`EcssdMachine::fetch_candidates`] and the shared
//! post-fetch traffic accounting, then charges a multiply-free pooling
//! accumulate instead of a candidate-only GEMV.

use ecssd_ssd::{SimTime, SsdError};

use super::schedule::{RowSelection, TaskKind, TilePhase, TileTask};
use super::{EcssdMachine, TileTiming};

/// Per-batch-element request descriptor bytes uploaded at admission
/// (lookup count, pooling op, result slot).
const GATHER_HEADER_BYTES: u64 = 16;

/// Bytes per lookup id streamed to the on-device router.
const LOOKUP_ID_BYTES: u64 = 8;

/// One gather window of an [`EcssdMachine`], viewed as the
/// [`TaskKind::EmbeddingGather`] task. Holds the per-query admission time
/// the pooling stage gates on and the window's gathered-row count.
pub(crate) struct GatherTileRun<'m> {
    machine: &'m mut EcssdMachine,
    /// When the current query's request descriptors arrived on-device.
    host_done: SimTime,
    /// Lookup rows routed across the window.
    pub(crate) gathered_rows: u64,
}

impl<'m> GatherTileRun<'m> {
    pub(crate) fn new(machine: &'m mut EcssdMachine) -> Self {
        GatherTileRun {
            machine,
            host_done: SimTime::ZERO,
            gathered_rows: 0,
        }
    }
}

impl TileTask for GatherTileRun<'_> {
    fn kind(&self) -> TaskKind {
        TaskKind::EmbeddingGather
    }

    fn begin_query(&mut self, _query: usize, issue: SimTime) -> SimTime {
        // Host sends the batch's request descriptors; the id lists
        // themselves stream per tile as the router consumes them.
        let batch = self.machine.config.accelerator.batch as u64;
        self.host_done = self
            .machine
            .host
            .transfer(batch * GATHER_HEADER_BYTES, issue);
        self.host_done
    }

    fn select_rows(&mut self, query: usize, tile: usize, issue: SimTime) -> RowSelection {
        let phase = self.machine.gather_select_stage(query, tile, issue);
        self.gathered_rows += phase.rows.len() as u64;
        phase
    }

    fn process_rows(
        &mut self,
        query: usize,
        tile: usize,
        rows: &[u64],
        select_done: SimTime,
        sync: Option<SimTime>,
    ) -> Result<TilePhase, SsdError> {
        self.machine
            .gather_stage(query, tile, rows, select_done, sync, self.host_done)
    }
}

impl EcssdMachine {
    /// The gather select phase: the host streams tile `tile`'s routed
    /// lookup ids and the on-device router resolves them against the
    /// table's tile map. No screener stream, no INT4 compute — selection
    /// cost is id transfer plus the fixed control latency.
    fn gather_select_stage(&mut self, query: usize, tile: usize, issue: SimTime) -> RowSelection {
        let rows = self.source.candidates(query, tile);
        let ids_done = self
            .host
            .transfer(rows.len() as u64 * LOOKUP_ID_BYTES, issue);
        let select_done = self.accel.select(ids_done);
        self.tracer.count("pipeline.gather_rows", rows.len() as u64);
        RowSelection { select_done, rows }
    }

    /// The gather process phase: fetch the tile's looked-up rows through
    /// the shared cache/layout/fault path, pool them (one accumulate of
    /// each delivered row — `d` MACs per row, no multiplies against a
    /// weight matrix), and return the tile's partial pooled vectors.
    fn gather_stage(
        &mut self,
        query: usize,
        tile: usize,
        rows: &[u64],
        select_done: SimTime,
        sync: Option<SimTime>,
        host_done: SimTime,
    ) -> Result<TilePhase, SsdError> {
        let fetch_done = self.fetch_candidates(query, tile, rows, select_done, sync)?;
        let bench = *self.source.benchmark();
        let batch = self.config.accelerator.batch as u64;
        let d = bench.hidden as u64;
        let delivered = self.account_delivered_rows(rows);
        let fp_done = self.accel.pool(d, delivered, fetch_done, host_done);
        self.buffer.release(fp_done);

        if let Some(timings) = &mut self.tile_timings {
            timings.push(TileTiming {
                query,
                tile,
                candidates: rows.len(),
                screen_done: select_done,
                fetch_done,
                fp_done,
            });
        }
        // A contributing tile returns its partial pooled vectors:
        // batch × d × 4 bytes. Tiles no request looked into return
        // nothing.
        let result_bytes = if delivered > 0 { batch * d * 4 } else { 0 };
        let result_done = self.host.transfer(result_bytes, fp_done);
        Ok(TilePhase {
            fetch_done,
            done: result_done,
        })
    }
}
