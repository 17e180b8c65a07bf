//! The ECSSD classification per-tile stages: screener-weight streaming +
//! candidate selection, candidate row fetch (one [`RowPath::read`] over
//! the hot-row cache, addressed through the interleaved layout, then
//! fault resolution), and FP32 classification.
//!
//! [`EcssdTileRun`] adapts one [`EcssdMachine`] window to the
//! [`TileTask`] trait so the shared scheduler
//! ([`run_tile_loop`](super::run_tile_loop)) drives it; the stage methods
//! on [`EcssdMachine`] own the resource timelines. The fetch half
//! ([`EcssdMachine::fetch_candidates`] and the post-fetch traffic
//! accounting) is task-generic and shared with the embedding-gather task
//! in [`super::gather`].

use ecssd_layout::{InterleavingStrategy, TileLayout};
use ecssd_ssd::{PhysPageAddr, RowPath, RowReadScratch, SimTime, SsdError};

use super::degrade::{self, TileFaultCtx};
use super::schedule::{RowSelection, TaskKind, TilePhase, TileTask};
use super::{DataPlacement, EcssdMachine, TileTiming};
use crate::accelerator::upload_features;

/// One query window of an [`EcssdMachine`], viewed as the classification
/// [`TileTask`]. Holds the per-query admission time the FP32 stage gates
/// on and the window's candidate-row count.
pub(crate) struct EcssdTileRun<'m> {
    machine: &'m mut EcssdMachine,
    /// When the current query's features arrived on-device.
    host_done: SimTime,
    /// Candidate rows selected across the window.
    pub(crate) candidate_rows: u64,
}

impl<'m> EcssdTileRun<'m> {
    pub(crate) fn new(machine: &'m mut EcssdMachine) -> Self {
        EcssdTileRun {
            machine,
            host_done: SimTime::ZERO,
            candidate_rows: 0,
        }
    }
}

impl TileTask for EcssdTileRun<'_> {
    fn kind(&self) -> TaskKind {
        TaskKind::Classification
    }

    fn begin_query(&mut self, _query: usize, issue: SimTime) -> SimTime {
        let bench = *self.machine.source.benchmark();
        let batch = self.machine.config.accelerator.batch as u64;
        let k = bench.projected_dim() as u64;
        let d = bench.hidden as u64;
        self.host_done = upload_features(&mut self.machine.host, batch, d, k, issue);
        self.host_done
    }

    fn select_rows(&mut self, query: usize, tile: usize, issue: SimTime) -> RowSelection {
        let phase = self.machine.screen_stage(query, tile, issue);
        self.candidate_rows += phase.rows.len() as u64;
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
            .classify_stage(query, tile, rows, select_done, sync, self.host_done)
    }
}

/// Reusable per-tile fetch scratch owned by the machine, so the tile loop
/// allocates nothing per tile. Contents are only meaningful between a
/// `fetch_candidates` call and the end of the stage that issued it.
#[derive(Debug, Default)]
pub(super) struct TileScratch {
    /// The candidate read's misses (as candidate indices) and their pages.
    read: RowReadScratch,
    /// Candidate rows excluded from classification (skipped/unrecovered).
    row_dropped: Vec<bool>,
}

impl EcssdMachine {
    /// Streams tile `tile`'s INT4 screener weights, runs screening and
    /// candidate selection. `issue` is the earliest the stream may start.
    fn screen_stage(&mut self, query: usize, tile: usize, issue: SimTime) -> RowSelection {
        let bench = *self.source.benchmark();
        let batch = self.config.accelerator.batch as u64;
        let k = bench.projected_dim() as u64;
        let channels = self.config.ssd.geometry.channels;
        let tiles_total = self.source.num_tiles();
        let range = self.source.tile_row_range(tile);
        let tile_len = (range.end - range.start) as usize;
        let int4_tile_bytes = tile_len as u64 * bench.int4_row_bytes();
        let int4_fetch_done = match self.variant.placement {
            DataPlacement::Heterogeneous => self.dram.transfer(int4_tile_bytes, issue),
            DataPlacement::Homogeneous => {
                // INT4 weights stream from flash, sharing the buses with
                // FP32 candidate traffic. Sequential storing co-locates
                // them with the tile's FP32 rows; the interleaved layouts
                // spread them over all buses.
                match self.variant.interleaving {
                    InterleavingStrategy::Sequential => {
                        let ch = (tile * channels / tiles_total).min(channels - 1);
                        self.flash.bus_transfer(ch, int4_tile_bytes, issue)
                    }
                    _ => {
                        let per = int4_tile_bytes / channels as u64;
                        let mut done = issue;
                        for ch in 0..channels {
                            done = done.max(self.flash.bus_transfer(ch, per, issue));
                        }
                        done
                    }
                }
            }
        };
        let screen_done = self
            .accel
            .screen(k, tile_len as u64, batch, int4_fetch_done);
        let candidates = self.source.candidates(query, tile);
        self.tracer
            .count("pipeline.candidate_rows", candidates.len() as u64);
        RowSelection {
            select_done: screen_done,
            rows: candidates,
        }
    }

    /// Fetches `cands` into a ping-pong bank through the shared row read
    /// ([`RowPath::read`]): rows resident in the hot cache stream from
    /// reserved device DRAM; only misses go to the flash channels. Faulted
    /// reads are resolved per the active
    /// [`DegradationPolicy`](super::DegradationPolicy).
    ///
    /// Fills the machine-owned [`TileScratch`] (misses, page addresses,
    /// dropped flags) instead of allocating per tile, and returns when the
    /// last candidate page reached the bank, recovery traffic included.
    pub(super) fn fetch_candidates(
        &mut self,
        query: usize,
        tile: usize,
        cands: &[u64],
        screen_done: SimTime,
        sync: Option<SimTime>,
    ) -> Result<SimTime, SsdError> {
        let bench = *self.source.benchmark();
        let page_bytes = self.config.ssd.geometry.page_bytes;
        let pages_per_row = bench.pages_per_row(page_bytes);
        let tile_start = self.source.tile_row_range(tile).start;
        let cand_bytes = cands.len() as u64 * pages_per_row * page_bytes as u64;
        // Materialize the layout cache entry before the read borrows it
        // immutably.
        self.tile_layout(tile);
        let bank = self.buffer.acquire(cand_bytes.max(1), screen_done)?;
        // Sense commands go to the dies as soon as screening resolved the
        // addresses; data leaves the page registers once the ping-pong
        // bank is ours — and, with the paper's per-tile scheduler, once
        // the previous tile's transfers drained ("the final data access
        // time is decided by the busiest flash channel", §5.2).
        let gate = match sync {
            Some(prev_drain) => bank.max(prev_drain),
            None => bank,
        };
        let layout = &self.layouts[&tile];
        let geometry = &self.config.ssd.geometry;
        let surviving_dies = &self.surviving_dies;
        let read = RowPath {
            cache: &mut self.hot_cache,
            dram: &mut self.dram,
            flash: &mut self.flash,
        }
        .read(
            cands,
            pages_per_row,
            screen_done,
            gate,
            &mut self.tile_scratch.read,
            |row, page| {
                // The layout's channel, spread over its surviving dies.
                let channel = layout.channel_of((row - tile_start) as usize);
                let dies = surviving_dies[channel].as_deref();
                Ok(PhysPageAddr::of_row_page(
                    geometry, channel, row, page, dies,
                ))
            },
        )?;
        // A tracer lists a counter once it is counted, so a hitless tile
        // must not count zero.
        if read.hits > 0 {
            self.tracer.count("cache.hit_rows", read.hits);
        }
        let mut fetch_done = read.done();
        // Read indices cover only the fetched (cache-miss) rows, so they
        // are remapped to candidate indices before recovery.
        let ppr = pages_per_row as usize;
        self.tile_scratch.row_dropped.clear();
        self.tile_scratch.row_dropped.resize(cands.len(), false);
        let mut failed = read.batch.failures;
        for f in &mut failed {
            f.index = self.tile_scratch.read.misses[f.index / ppr] * ppr + f.index % ppr;
        }
        if !failed.is_empty() {
            // Dead-die detections feed back into interleaving and
            // placement before any recovery traffic is issued.
            self.absorb_die_failures();
            let ctx = TileFaultCtx {
                query,
                tile,
                cands,
                pages_per_row,
                gate,
            };
            let geometry = self.config.ssd.geometry;
            fetch_done = fetch_done.max(degrade::resolve_failed_pages(
                &mut self.flash,
                geometry,
                self.variant.degradation,
                &ctx,
                &failed,
                &mut self.tile_scratch.row_dropped,
                &mut self.ledger,
            )?);
        }
        Ok(fetch_done)
    }

    /// The FP32 phase of one tile: candidate fetch, FP32-traffic and
    /// cache accounting, candidate-only classification, and the result
    /// transfer back to the host.
    fn classify_stage(
        &mut self,
        query: usize,
        tile: usize,
        cands: &[u64],
        screen_done: SimTime,
        sync: Option<SimTime>,
        host_done: SimTime,
    ) -> Result<TilePhase, SsdError> {
        let fetch_done = self.fetch_candidates(query, tile, cands, screen_done, sync)?;
        let bench = *self.source.benchmark();
        let batch = self.config.accelerator.batch as u64;
        let d = bench.hidden as u64;
        let delivered = self.account_delivered_rows(cands);
        // A tile's delivered rows are every input's candidates.
        let fp_done = self
            .accel
            .classify(d, delivered * batch, fetch_done, host_done);
        self.buffer.release(fp_done);

        if let Some(timings) = &mut self.tile_timings {
            timings.push(TileTiming {
                query,
                tile,
                candidates: cands.len(),
                screen_done,
                fetch_done,
                fp_done,
            });
        }
        // Results return to host: batch × candidates × 4 bytes.
        let result_done = self.host.transfer(batch * delivered * 4, fp_done);
        Ok(TilePhase {
            fetch_done,
            done: result_done,
        })
    }

    /// Post-fetch traffic and cache accounting shared by every task that
    /// fetches rows through [`EcssdMachine::fetch_candidates`]: only
    /// candidate pages that actually reached the buffer count as useful
    /// traffic (reconstruction peer reads occupy the buses but deliver no
    /// new candidate data; dropped rows deliver nothing), and rows that
    /// survived the NAND fetch become hot-cache residents for subsequent
    /// queries. Returns the number of rows delivered to the compute stage
    /// (cache hits included).
    pub(super) fn account_delivered_rows(&mut self, cands: &[u64]) -> u64 {
        let bench = *self.source.benchmark();
        let page_bytes = self.config.ssd.geometry.page_bytes;
        let pages_per_row = bench.pages_per_row(page_bytes);
        let ppr = pages_per_row as usize;
        let row_bytes = pages_per_row * page_bytes as u64;
        let per_page_ns = self.config.ssd.timing.page_transfer_ns(page_bytes);
        for fi in 0..self.tile_scratch.read.misses.len() {
            let ci = self.tile_scratch.read.misses[fi];
            if self.tile_scratch.row_dropped[ci] {
                continue;
            }
            for p in 0..ppr {
                let channel = self.tile_scratch.read.addrs[fi * ppr + p].channel;
                self.fp_busy[channel] += per_page_ns;
                self.fp_bytes[channel] += page_bytes as u64;
            }
            self.hot_cache.insert(cands[ci], row_bytes);
        }
        self.tile_scratch
            .row_dropped
            .iter()
            .filter(|&&dropped| !dropped)
            .count() as u64
    }

    /// The per-tile layout (computed on first use; health-weighted so the
    /// learned framework routes load away from degraded or dying
    /// channels — on a healthy device this is identical to the plain
    /// assignment).
    pub fn tile_layout(&mut self, tile: usize) -> &TileLayout {
        if !self.layouts.contains_key(&tile) {
            let channels = self.config.ssd.geometry.channels;
            let num_tiles = self.source.num_tiles();
            let range = self.source.tile_row_range(tile);
            // Frequencies first: drawing them caches the tile's hotness
            // weights, which a sampled source's prediction then reuses.
            let freq = if self.variant.training_queries > 0 {
                Some(
                    self.source
                        .training_frequency(tile, self.variant.training_queries),
                )
            } else {
                None
            };
            let predicted = self.source.predicted_hotness(tile);
            let weights = self.channel_health_weights();
            let mut profile = ecssd_layout::RowAccessProfile::predicted(&predicted);
            if let Some(freq) = freq.as_deref() {
                profile = profile.with_observed(freq);
            }
            let layout = self.variant.interleaving.assign_rows_with_health(
                tile,
                num_tiles,
                range.start,
                &profile,
                channels,
                &weights,
            );
            self.layouts.insert(tile, layout);
        }
        &self.layouts[&tile]
    }

    /// Per-channel health weights for failure-aware interleaving: the
    /// fraction of the channel's dies still alive, scaled by any bandwidth
    /// derating. A healthy device is all-1.0.
    fn channel_health_weights(&self) -> Vec<f64> {
        let dies = self.config.ssd.geometry.dies_per_channel;
        (0..self.config.ssd.geometry.channels)
            .map(|ch| {
                let alive = dies - self.dead_per_channel[ch].len();
                let derate = self
                    .flash
                    .fault_plan()
                    .map(|p| p.derate_for(ch))
                    .unwrap_or(1.0);
                alive as f64 / dies as f64 * derate
            })
            .collect()
    }

    /// Folds newly detected die failures into the machine's health state.
    /// Only the learned framework has the health tracking to act on a
    /// detection: it retires the die (subsequent reads fail fast instead
    /// of timing out), remaps row placement onto the surviving dies, and
    /// re-weights the interleaving. The sequential and uniform baselines
    /// keep paying the full command-timeout ladder on every access.
    fn absorb_die_failures(&mut self) {
        let detected: Vec<(usize, usize)> = self.flash.detected_dead_dies().to_vec();
        if detected.len() == self.absorbed_dead {
            return;
        }
        for &(ch, die) in &detected[self.absorbed_dead..] {
            if matches!(self.variant.interleaving, InterleavingStrategy::Learned(_)) {
                self.flash.retire_die(ch, die);
                let dead = &mut self.dead_per_channel[ch];
                if !dead.contains(&die) {
                    dead.push(die);
                    dead.sort_unstable();
                    let dies = self.config.ssd.geometry.dies_per_channel;
                    self.surviving_dies[ch] = (dead.len() < dies)
                        .then(|| (0..dies).filter(|d| !dead.contains(d)).collect());
                }
                // Re-place subsequent tiles around the lost die.
                self.layouts.clear();
            }
        }
        self.absorbed_dead = detected.len();
    }
}
