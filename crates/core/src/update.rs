//! Online model updates on the [`Ecssd`] device: stage → commit.
//!
//! An [`UpdateBatch`] is *staged* onto the serving device as a
//! [`RowDelta`] over the live image: version N+1's touched weight rows are
//! programmed into fresh LPNs through the FTL write path (so program and
//! GC traffic contend with version-N query reads on the shared flash
//! timelines), the touched stripes pay their RAID-5 read-modify-write, and
//! the touched INT4 rows are re-quantized per the device's
//! [`RequantPolicy`]. Queries keep reading version N untouched until
//! [`Ecssd::commit_update`] swaps the delta's rows in, trims the superseded
//! pages, and invalidates the touched rows in the hot-row cache — the
//! staleness barrier that makes a pre-update cached row image unreachable.

use ecssd_screen::{Int4Matrix, RowImage};
use ecssd_ssd::{GcReport, PhysPageAddr, SimTime};
use ecssd_update::{
    ParityRefreshCost, ParityRefreshModel, RequantPolicy, ScaleDriftDetector, UpdateBatch,
    UpdateOp, UpdatePolicy, UpdateReport,
};

use crate::api::{Ecssd, EcssdError};
use crate::delta::RowDelta;
use crate::recovery::EpochUndo;

/// What one staged row does to version N+1.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StagedOp {
    /// Appends a row.
    Add,
    /// Overwrites row `r`.
    Replace(usize),
    /// Tombstones row `r`: its row is all zeros.
    Remove(usize),
}

/// Version N+1 under construction while queries serve version N.
#[derive(Debug)]
pub(crate) struct StagedUpdate {
    /// Version N+1's rows that differ from version N: touched rows point
    /// at fresh pages; untouched rows are version N's.
    pub(crate) delta: RowDelta,
    /// LPNs superseded by the batches, trimmed + recycled at commit.
    pub(crate) freed_lpns: Vec<u64>,
    /// Fresh LPNs holding version N+1's rows, trimmed on abort.
    pub(crate) staged_lpns: Vec<u64>,
    /// Accounting over every batch staged into this version.
    pub(crate) report: UpdateReport,
}

impl Ecssd {
    /// Sets the screener re-quantization policy for subsequent updates and
    /// re-baselines the scale-drift detector.
    pub fn set_update_policy(&mut self, policy: UpdatePolicy) {
        self.update_policy = policy;
        self.drift = ScaleDriftDetector::new(match policy.requant {
            RequantPolicy::InPlace { max_drift } => max_drift,
            RequantPolicy::Exact => 2.0, // inert: Exact never observes drift
        });
    }

    /// The active update policy.
    pub fn update_policy(&self) -> UpdatePolicy {
        self.update_policy
    }

    /// Deployment version queries currently read (0 = nothing deployed;
    /// each `weight_deploy` or committed update bumps it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a staged (uncommitted) version N+1 exists.
    pub fn has_staged_update(&self) -> bool {
        self.staged.is_some()
    }

    /// Stages an update batch into version N+1 (repeatable: further
    /// batches stack onto the staged version until commit). Queries
    /// continue to read version N, but the staging writes — data
    /// programs, GC relocations, parity read-modify-write — share the
    /// flash timing model with them, which is exactly the read/write
    /// interference the update study measures. Each row is pre-aligned
    /// and projected once, here, into the form the device stores.
    ///
    /// # Errors
    ///
    /// Fails outside accelerator mode, before deployment, or when the
    /// batch does not fit the staged model (a target out of range, or rows
    /// of another width); those checks charge nothing and leave any
    /// staged version as it was. On a later error the whole staged version
    /// is dropped (as if aborted) and its pages are recycled; the serving
    /// state is never touched.
    pub fn stage_update(&mut self, batch: &UpdateBatch) -> Result<UpdateReport, EcssdError> {
        self.require_accelerator()?;
        let (Some(image), Some(screener)) = (self.image.as_ref(), self.screener.as_ref()) else {
            return Err(EcssdError::NoWeights);
        };
        let rows = self
            .staged
            .as_ref()
            .map_or(image.rows(), |s| s.delta.rows());
        batch.validate_against(rows)?;
        let zero_row = vec![0.0f32; image.cols()];
        let mut payload = RowImage::empty(image.cols(), image.projected_dim());
        let mut ops = Vec::with_capacity(batch.len());
        for op in batch.ops() {
            let (staged, values) = match op {
                UpdateOp::Add(v) => (StagedOp::Add, v.as_slice()),
                UpdateOp::Replace(r, v) => (StagedOp::Replace(*r), v.as_slice()),
                UpdateOp::Remove(r) => (StagedOp::Remove(*r), zero_row.as_slice()),
            };
            payload.push_values(values, screener.projector())?;
            ops.push(staged);
        }
        self.stage_rows(&ops, &payload)
    }

    /// Stages `ops`, op `i` carrying row `i` of `rows`, into version N+1:
    /// the one staging routine behind [`Ecssd::stage_update`] and
    /// [`Ecssd::reinterleave_stage`]. On error the whole staged version is
    /// dropped and its pages are recycled.
    pub(crate) fn stage_rows(
        &mut self,
        ops: &[StagedOp],
        rows: &RowImage,
    ) -> Result<UpdateReport, EcssdError> {
        let image = self.image.as_ref().ok_or(EcssdError::NoWeights)?;
        let mut staged = self.staged.take().unwrap_or_else(|| StagedUpdate {
            delta: RowDelta::new(image),
            freed_lpns: Vec::new(),
            staged_lpns: Vec::new(),
            report: UpdateReport::default(),
        });
        match self.apply_ops(ops, rows, &mut staged) {
            Ok(report) => {
                staged.report = staged.report.merge(&report);
                self.staged = Some(staged);
                Ok(report)
            }
            Err(e) => {
                // Recycle every page of the dropped version; trims on
                // already-dead pages are idempotent no-ops.
                for &lpn in &staged.staged_lpns {
                    let _ = self.device.trim_mapped(lpn, self.clock);
                }
                self.rows.lpns.release(&staged.staged_lpns);
                Err(e)
            }
        }
    }

    /// Applies one batch's ops to the staged delta and charges the flash
    /// traffic (programs, GC, parity) on the shared timelines. Touched
    /// INT4 rows follow the device policy; in-place drift that trips the
    /// detector escalates to a full re-quantization (the whole INT4 image
    /// is rewritten in DRAM, restoring exactness). Added rows always
    /// quantize exactly.
    fn apply_ops(
        &mut self,
        ops: &[StagedOp],
        rows: &RowImage,
        staged: &mut StagedUpdate,
    ) -> Result<UpdateReport, EcssdError> {
        let (Some(image), Some(screener)) = (self.image.as_ref(), self.screener.as_ref()) else {
            return Err(EcssdError::NoWeights);
        };
        let mut report = UpdateReport::default();
        // Host ships the batch's fresh rows over PCIe before any flash op.
        let payload_rows = ops
            .iter()
            .filter(|op| !matches!(op, StagedOp::Remove(_)))
            .count() as u64;
        let issue = self
            .device
            .host_mut()
            .transfer(payload_rows * 4 * image.cols() as u64, self.clock);
        // Staging is asynchronous with serving: the host hands the batch
        // off (the clock advances past the PCIe transfer only) and the
        // writes below occupy the flash timelines in the background, all
        // issued at once as a controller queues them: each die programs
        // its own pages while the others program theirs. Query reads
        // issued later queue behind them wherever they collide on a die
        // or channel bus — the read/write interference the update study
        // measures. The INT4 re-encode transfers run on the DRAM's own
        // timeline.
        let mut dram = issue;
        let mut programs = issue;
        let staged_before = staged.staged_lpns.len();
        let pages = self.rows.weights.pages;
        let gc_before = self.device.ftl().gc_by_channel().to_vec();
        let row_bytes = (screener.projected_dim().div_ceil(2) + 4) as u64;
        let delta = &mut staged.delta;
        for (i, &op) in ops.iter().enumerate() {
            let row = match op {
                StagedOp::Add => {
                    report.rows_added += 1;
                    delta.rows()
                }
                StagedOp::Replace(r) => {
                    report.rows_replaced += 1;
                    r
                }
                // Tombstone: the category id stays valid for in-flight
                // queries; its weights go to zero.
                StagedOp::Remove(r) => {
                    report.rows_removed += 1;
                    r
                }
            };
            let projection = rows.projection(i);
            let (int4, drift) = match (op, self.update_policy.requant) {
                (StagedOp::Add, _) | (_, RequantPolicy::Exact) => {
                    (screener.quantize_projection(projection)?, None)
                }
                (_, RequantPolicy::InPlace { .. }) => {
                    let scale = delta.scale(screener, row);
                    let (int4, drift) = screener.reencode_projection(projection, scale)?;
                    (int4, Some(drift))
                }
            };
            let old_first = delta.stage_row(row, rows, i, int4, &self.rows.weights.firsts)?;
            if !matches!(op, StagedOp::Add) {
                dram = self.device.dram_mut().transfer(row_bytes, dram);
                match drift {
                    None => report.rows_requantized += 1,
                    Some(drift) => {
                        report.rows_reencoded += 1;
                        if self.drift.observe(drift) {
                            // Every deployed scale returns to its ideal.
                            let int4_bytes = delta.requantize_all(image, screener)?;
                            report.rows_requantized += delta.rows() as u64;
                            report.drift_requants += 1;
                            self.drift.reset();
                            dram = self.device.dram_mut().transfer(int4_bytes, dram);
                        }
                    }
                }
                // Supersede the row's current pages (version N's for a
                // first touch — they stay readable until commit).
                staged.freed_lpns.extend(old_first..old_first + pages);
            }
            // Program version N+1's row at fresh LPNs, issued with the
            // batch. A row placed before a later row fails stays in
            // `staged_lpns`, so the error path recycles it.
            let (placed, done) = self.rows.lpns.place(&mut self.device, 1, pages, issue)?;
            programs = programs.max(done);
            for first in placed {
                delta.set_first(row, first);
                staged.staged_lpns.extend(first..first + pages);
            }
            report.pages_programmed += pages;
        }
        let new_lpns = &staged.staged_lpns[staged_before..];
        let side_effects = self.charge_side_effects(&mut report, &gc_before, new_lpns, issue);
        report.staged_at = programs.max(dram).max(side_effects);
        self.clock = issue;
        Ok(report)
    }

    /// Charges what the update writes triggered beyond the data programs,
    /// issued with them at `issue`: each channel's GC relocations/erases
    /// on that channel (`gc_before` holds the per-channel counts before
    /// the writes), and the RAID-5 read-modify-write of each touched
    /// stripe on that stripe's own dies. Returns when the last of them
    /// completes.
    fn charge_side_effects(
        &mut self,
        report: &mut UpdateReport,
        gc_before: &[GcReport],
        new_lpns: &[u64],
        issue: SimTime,
    ) -> SimTime {
        let (ftl, _, flash) = self.device.split_mut();
        let new_pages: Vec<PhysPageAddr> = new_lpns
            .iter()
            .filter_map(|&lpn| ftl.translate(lpn).ok())
            .collect();
        let mut done = issue;
        for (channel, (&after, &before)) in ftl.gc_by_channel().iter().zip(gc_before).enumerate() {
            let gc = after - before;
            if gc != GcReport::default() {
                report.gc = report.gc + gc;
                done = done.max(ftl.charge_gc(flash, channel, gc, issue));
            }
        }
        let geometry = self.device.config().geometry;
        if !new_pages.is_empty() && geometry.dies_per_channel >= 2 {
            let refresh = ParityRefreshModel::new(geometry).refresh_for_pages(&new_pages);
            let flash = self.device.flash_mut();
            for stripe in &refresh {
                // The new parity needs the old images read first.
                let read = stripe
                    .reads
                    .iter()
                    .fold(issue, |t, &addr| t.max(flash.read_page(addr, issue).done));
                done = done.max(flash.program_page(stripe.parity, read));
            }
            report.parity = ParityRefreshCost::of(&refresh);
        }
        done
    }

    /// Atomically swaps the staged version in: queries issued after this
    /// call read version N+1, queries completed before it read version N,
    /// and none ever sees a mix. Superseded pages are trimmed (their LPNs
    /// recycle to future updates) and every touched row is invalidated in
    /// the hot-row cache.
    ///
    /// # Errors
    ///
    /// Fails with [`EcssdError::NoStagedUpdate`] when nothing is staged.
    pub fn commit_update(&mut self) -> Result<UpdateReport, EcssdError> {
        self.require_accelerator()?;
        let rows = self
            .staged
            .as_ref()
            .ok_or(EcssdError::NoStagedUpdate)?
            .delta
            .rows();
        let k = self
            .screener
            .as_ref()
            .ok_or(EcssdError::NoWeights)?
            .projected_dim();
        // Rows added by `Add` grow the INT4 matrix in DRAM; a commit that
        // does not fit fails here, leaving the staged version staged.
        self.reserve_int4(Int4Matrix::storage_bytes_for(rows, k) as u64)?;
        let staged = self.staged.take().ok_or(EcssdError::NoStagedUpdate)?;
        let (Some(image), Some(screener)) = (self.image.as_mut(), self.screener.as_mut()) else {
            return Err(EcssdError::NoWeights);
        };
        let StagedUpdate {
            mut delta,
            freed_lpns,
            mut report,
            ..
        } = staged;
        let touched: Vec<u64> = delta.touched().iter().map(|&r| r as u64).collect();
        // The swap itself: version N+1 becomes the serving state, and the
        // delta keeps the rows it overwrote — the commit's undo record.
        delta.swap(image, screener, &mut self.rows.weights.firsts)?;
        // Committed `Add` ops grow the hotness histogram; removed rows
        // keep their slot (tombstoned, never accessed again).
        self.row_accesses.resize(image.rows(), 0);
        // Staleness barrier: a committed query can never be served a
        // pre-update cached row image.
        let inv_before = self.hot_cache.stats().invalidations;
        self.hot_cache.invalidate_rows(&touched);
        report.cache_invalidations = self.hot_cache.stats().invalidations - inv_before;
        // Version N's superseded pages die and their LPNs recycle. The
        // trims are applied directly and journaled below as part of the
        // commit group, so the whole commit is one atomic flush: a crash
        // rolls back the trims and the placement bumps together.
        for &lpn in &freed_lpns {
            self.device.ftl_mut().trim(lpn)?;
        }
        self.rows.lpns.release(&freed_lpns);
        self.update_programs += report.pages_programmed + report.parity.parity_programs;
        self.epoch += 1;
        report.epoch = self.epoch;
        let undo = self.keeps_history().then_some(EpochUndo::Rows(delta));
        self.record_commit(&touched, &freed_lpns, touched.len() as u64, undo);
        Ok(report)
    }

    /// Drops the staged version: its pages are trimmed and their LPNs
    /// recycle. The serving state is untouched.
    ///
    /// # Errors
    ///
    /// Fails with [`EcssdError::NoStagedUpdate`] when nothing is staged.
    pub fn abort_update(&mut self) -> Result<(), EcssdError> {
        let staged = self.staged.take().ok_or(EcssdError::NoStagedUpdate)?;
        for &lpn in &staged.staged_lpns {
            self.device.trim_mapped(lpn, self.clock)?;
        }
        self.rows.lpns.release(&staged.staged_lpns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use ecssd_screen::DenseMatrix;
    use ecssd_ssd::JournalConfig;
    use ecssd_update::UpdateBatch;

    use super::StagedUpdate;
    use crate::{Ecssd, EcssdConfig};

    impl StagedUpdate {
        /// `(4-byte words, INT4 codes, LPNs)` the staged version holds
        /// beyond the live image, as `RowDelta::footprint` counts them.
        fn footprint(&self) -> (usize, usize, usize) {
            let StagedUpdate {
                delta,
                freed_lpns: _,
                staged_lpns: _,
                report: _,
            } = self;
            delta.footprint()
        }
    }

    #[test]
    fn a_staged_replace_holds_one_row_beyond_the_live_image() {
        const COLS: usize = 32;
        let mut dev = Ecssd::new(EcssdConfig::tiny());
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(512, COLS, 5))
            .unwrap();
        dev.enable_journal(JournalConfig::default());
        let k = dev.screener.as_ref().unwrap().projected_dim();
        let batch = UpdateBatch::new(COLS)
            .replace(300, vec![0.5; COLS])
            .unwrap();
        dev.stage_update(&batch).unwrap();
        let (words, codes, lpns) = dev.staged.as_ref().unwrap().footprint();
        // One row: its mantissas, exponent, projection and INT4 scale, its
        // codes, its first LPN.
        assert!(words <= COLS + k + 2, "{words} words held");
        assert!(codes <= k, "{codes} INT4 codes held");
        assert!(lpns <= 1, "{lpns} LPNs held");
    }

    #[test]
    fn access_counts_survive_a_commit_but_not_a_deploy() {
        const COLS: usize = 32;
        const ROWS: usize = 512;
        let mut dev = Ecssd::new(
            EcssdConfig::tiny_builder()
                .hot_cache_bytes(4096)
                .build()
                .unwrap(),
        );
        dev.enable();
        let weights = DenseMatrix::random(ROWS, COLS, 5);
        dev.weight_deploy(&weights).unwrap();
        let unheard = |dev: &Ecssd| (0..ROWS as u64).all(|r| dev.hot_cache.frequency(r) == 0);
        assert!(unheard(&dev));
        let input = |r: usize| weights.row(r).to_vec();
        let candidates = |dev: &Ecssd, r: usize| -> BTreeSet<usize> {
            let screener = dev.screener.as_ref().unwrap();
            let lists = screener.screen_batch(&[input(r)], dev.threshold).unwrap();
            lists[0].iter().copied().collect()
        };
        // Two inputs that share a candidate `row`, and an input that
        // selects a row neither does; a cache that holds exactly the two
        // inputs' candidates.
        let first = candidates(&dev, 7);
        let second = (8..ROWS)
            .find(|&r| !candidates(&dev, r).is_disjoint(&first))
            .unwrap();
        let both: BTreeSet<usize> = first.union(&candidates(&dev, second)).copied().collect();
        let row = *first
            .intersection(&candidates(&dev, second))
            .next()
            .unwrap() as u64;
        let cold = (0..ROWS)
            .find(|&r| !candidates(&dev, r).is_subset(&both))
            .unwrap();
        dev.set_cache_capacity(both.len() as u64 * 4096).unwrap();
        // The shared row is looked up by every batch, the others by half.
        let warm = |dev: &mut Ecssd| {
            for _ in 0..3 {
                dev.classify_batch(&[input(7)], 3).unwrap();
                dev.classify_batch(&[input(second)], 3).unwrap();
            }
        };
        warm(&mut dev);
        assert_eq!(dev.hot_cache.frequency(row), 6);
        // A redeploy starts the count history over.
        dev.weight_deploy(&weights).unwrap();
        assert!(unheard(&dev));

        warm(&mut dev);
        assert_eq!(dev.hot_cache.len(), both.len(), "full");
        let batch = UpdateBatch::new(COLS)
            .replace(row as usize, input(row as usize))
            .unwrap();
        dev.stage_update(&batch).unwrap();
        dev.commit_update().unwrap();
        assert_eq!(
            dev.hot_cache.len(),
            both.len() - 1,
            "the row was invalidated"
        );
        assert_eq!(
            dev.hot_cache.frequency(row),
            6,
            "a replaced row keeps its count"
        );
        // The cold input's first new row takes the free slot; the replaced
        // row's next miss then finds the cache full, and its count beats
        // the least recently used row's.
        dev.classify_batch(&[input(cold)], 3).unwrap();
        assert_eq!(dev.hot_cache.len(), both.len());
        let before = dev.cache_stats();
        dev.classify_batch(&[input(7)], 3).unwrap();
        let after = dev.cache_stats();
        assert_eq!(
            after.misses - before.misses,
            1,
            "only the replaced row missed"
        );
        assert_eq!(
            (
                after.insertions - before.insertions,
                after.evictions - before.evictions
            ),
            (1, 1),
            "the replaced row was readmitted"
        );
        assert!(dev.hot_cache.lookup(row));
    }

    #[test]
    fn update_gc_is_charged_on_the_channels_that_collected() {
        const COLS: usize = 32;
        const ROWS: usize = 640;
        // One die per channel: no parity stripe, so a staged batch's die
        // time is its data programs and the GC they trigger.
        let config = EcssdConfig::tiny_builder()
            .dies_per_channel(1)
            .build()
            .unwrap();
        let mut dev = Ecssd::new(config);
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(ROWS, COLS, 5))
            .unwrap();
        let timing = *dev.device().flash().timing();
        let channels = dev.device().config().geometry.channels;
        let mut multi_channel_batches = 0;
        for round in 0..96usize {
            let mut batch = UpdateBatch::new(COLS);
            // Scattered rows: blocks are left partly valid, so GC must
            // relocate pages as well as erase.
            for i in 0..16 {
                let row = (round * 16 + i).wrapping_mul(0x9e37_79b9) % ROWS;
                batch = batch.replace(row, vec![round as f32 * 0.01; COLS]).unwrap();
            }
            let gc_before = dev.device().ftl().gc_by_channel().to_vec();
            let busy_before = dev.device().flash().die_busy_ns();
            dev.stage_update(&batch).unwrap();
            let ftl = dev.device().ftl();
            let mut programs = vec![0u64; channels];
            for &lpn in &dev.staged.as_ref().unwrap().staged_lpns {
                programs[ftl.channel_of(lpn)] += 1;
            }
            let busy_after = dev.device().flash().die_busy_ns();
            let mut collected = 0;
            for c in 0..channels {
                let gc = ftl.gc_by_channel()[c] - gc_before[c];
                if gc.moved_pages + gc.erased_blocks > 0 {
                    collected += 1;
                }
                assert_eq!(
                    busy_after[c] - busy_before[c],
                    programs[c] * timing.program_latency_ns
                        + gc.moved_pages * (timing.read_latency_ns + timing.program_latency_ns)
                        + gc.erased_blocks * timing.erase_latency_ns,
                    "round {round}, channel {c}: {gc:?}"
                );
            }
            if collected >= 2 {
                multi_channel_batches += 1;
            }
            dev.commit_update().unwrap();
        }
        assert!(
            multi_channel_batches > 0,
            "no batch collected on two channels"
        );
    }
}
