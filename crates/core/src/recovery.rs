//! Crash consistency for the accelerator: power loss, journaled recovery,
//! and background scrubbing on the [`Ecssd`] device.
//!
//! The device keeps its FTL metadata in volatile controller DRAM. A power
//! cut ([`Ecssd::power_cut`]) discards everything volatile — queued
//! inputs, staged updates, the hot-row cache, and (without a journal) the
//! L2P table itself. With journaling enabled
//! ([`Ecssd::enable_journal`]), every FTL mutation on the deploy/update
//! paths flows through the device's journaled write path, each commit
//! seals an epoch with an atomic group flush, and
//! [`Ecssd::recover`] replays the durable log back into a consistent
//! serving state whose epoch is never ahead of the last durable commit.
//! Without a journal, recovery falls back to the last armed snapshot
//! ([`Ecssd::arm_crash_snapshot`]) and every commit since is lost — the
//! quantified cost a journal exists to prevent.
//!
//! The journal (or the snapshot) recovers placements; the functional image
//! (pre-aligned row image and screener) of every epoch a recovery can reach comes from
//! one sealed history, kept while a journal is enabled or a snapshot is
//! armed. The newest sealed epoch is always the live serving image, so
//! the history holds no copy of it. Each older epoch is reached by
//! applying the newer epochs' undo records, newest first: the [`RowDelta`]
//! a commit swapped out of the live image, or the whole previous image for
//! a redeploy. Epochs older than the journal checkpoint (or the armed
//! snapshot) are unreachable and dropped, so the history is bounded by the
//! checkpoint cadence.

use std::collections::BTreeSet;

use ecssd_screen::{RowImage, Screener};
use ecssd_ssd::{Ftl, JournalConfig, JournalRecord, ScrubReport};

use crate::api::{Ecssd, EcssdError, InputQueue};
use crate::delta::RowDelta;
use crate::rows::{LpnAllocator, RowStore};

/// One committed epoch of the recovery history.
///
/// The FTL journal recovers *placements*; the weight values themselves are
/// host-owned data that the host can re-supply for any committed epoch.
/// The history models that re-supply without a host round-trip, holding
/// only what each commit overwrote.
#[derive(Debug)]
pub(crate) struct SealedEpoch {
    pub(crate) epoch: u64,
    pub(crate) pages_per_row: u64,
    /// Turns this epoch's image back into the previous sealed epoch's;
    /// `None` for the base, the oldest epoch kept.
    pub(crate) undo: Option<EpochUndo>,
}

/// What one sealing commit overwrote in the serving image.
#[derive(Debug)]
pub(crate) enum EpochUndo {
    /// A redeploy: the previous row image, screener and rows' first LPNs.
    Image(RowImage, Screener, Vec<u64>),
    /// An update commit: the rows it swapped out of the live image.
    Rows(RowDelta),
}

/// One journaled commit's bookkeeping mark, kept per committed epoch for
/// rows-lost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommitMark {
    /// The epoch this commit produced.
    pub(crate) epoch: u64,
    /// Distinct rows the commit (re)placed.
    pub(crate) rows_touched: u64,
    /// Journal append counter right after the commit's group flush
    /// (0 without a journal). A crash instant at or past this count means
    /// the commit was durable when the power failed.
    pub(crate) appended: u64,
}

/// Unjournaled-mode durable baseline taken by
/// [`Ecssd::arm_crash_snapshot`]: the placements of the serving state. Its
/// functional image is the sealed history's base. Everything committed
/// after the snapshot is unrecoverable without a journal.
#[derive(Debug, Clone)]
pub(crate) struct CrashSnapshot {
    pub(crate) epoch: u64,
    pub(crate) rows: RowStore,
    pub(crate) ftl: Ftl,
}

/// What one crash-and-recover cycle did to the device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Whether a metadata journal drove the recovery (`false` = snapshot
    /// fallback with full-device scan).
    pub journaled: bool,
    /// Serving epoch at the instant of the power cut.
    pub epoch_before_crash: u64,
    /// Epoch the device serves after recovery (never ahead of the last
    /// durable commit).
    pub recovered_epoch: u64,
    /// Journal records replayed on top of the checkpoint (0 unjournaled).
    pub replayed_records: u64,
    /// Row-commits that were durable (or, unjournaled, committed since the
    /// snapshot) but could not be recovered. Zero for a working journal.
    pub rows_lost: u64,
    /// Hot-row cache entries invalidated by the recovery staleness
    /// barrier, counted under `CacheStats::invalidations`.
    pub cache_invalidations: u64,
    /// Mapped LPNs no recovered placement referenced, trimmed during
    /// cleanup (pages from commits that never became durable).
    pub orphaned_lpns: u64,
    /// Simulated recovery time: checkpoint + journal reads and orphan
    /// cleanup (journaled), or the full-device metadata scan (snapshot).
    pub recovery_ns: u64,
    /// Whether the recovered FTL passed its full mapping cross-check and
    /// the placements matched the restored functional image.
    pub mapping_consistent: bool,
}

impl Ecssd {
    /// Enables FTL metadata journaling from the current serving state.
    ///
    /// The current placements and epoch seed the journal's initial
    /// checkpoint, and the current functional image becomes the base of
    /// the sealed history so [`Ecssd::recover`] can restore it. From here
    /// on the deploy and update paths journal every FTL mutation; each
    /// commit is flushed durably as one atomic group.
    pub fn enable_journal(&mut self, config: JournalConfig) {
        let weights = &self.rows.weights;
        let placements: Vec<(u64, u64, u64)> = weights
            .firsts
            .iter()
            .enumerate()
            .map(|(row, &first)| (row as u64, first, weights.pages))
            .collect();
        self.device.enable_journal(config, &placements, self.epoch);
        self.seal_base();
    }

    /// Restarts the sealed history at the serving image, and forgets the
    /// commit marks past the serving epoch.
    fn seal_base(&mut self) {
        self.sealed.clear();
        if self.image.is_some() && self.screener.is_some() {
            self.sealed.push(SealedEpoch {
                epoch: self.epoch,
                pages_per_row: self.rows.weights.pages,
                undo: None,
            });
        }
        self.commit_log.retain(|m| m.epoch <= self.epoch);
    }

    /// Whether commits seal undo records: a recovery can reach back past
    /// the serving epoch through a journal or an armed snapshot.
    pub(crate) fn keeps_history(&self) -> bool {
        self.journal_enabled() || self.crash_snapshot.is_some()
    }

    /// Whether a metadata journal is enabled.
    pub fn journal_enabled(&self) -> bool {
        self.device.journal().is_some()
    }

    /// Total journal records appended since enable (`None` without a
    /// journal). Crash instants are expressed in this coordinate.
    pub fn journal_appended(&self) -> Option<u64> {
        self.device.journal().map(|j| j.appended())
    }

    /// Arms the unjournaled crash baseline: a snapshot of the current
    /// serving state, standing in for the last state the device could
    /// reconstruct without a journal. [`Ecssd::recover`] falls back to it
    /// when no journal is enabled; every commit after the snapshot is
    /// reported as lost. Until then, commits keep their undo records back
    /// to the snapshot, so the history grows with the commits since it;
    /// arming again drops them.
    pub fn arm_crash_snapshot(&mut self) {
        self.crash_snapshot = Some(CrashSnapshot {
            epoch: self.epoch,
            rows: self.rows.clone(),
            ftl: self.device.ftl().clone(),
        });
        if self.journal_enabled() {
            // Recovery follows the journal, whose checkpoint bounds the
            // history.
            self.commit_log.retain(|m| m.epoch <= self.epoch);
        } else {
            self.seal_base();
        }
    }

    /// Simulates a power cut at an arbitrary instant: queued inputs,
    /// pending results, any staged update, and the journal's un-flushed
    /// group-commit buffer are all lost. With `survived = Some(k)` the
    /// durable journal rolls back to the last group flush at or before
    /// `k` total appended records (the [`ecssd_ssd::PowerLossInjector`]
    /// coordinate); `None` crashes "now", losing only the pending buffer.
    ///
    /// The device must not serve again until [`Ecssd::recover`] runs.
    pub fn power_cut(&mut self, survived: Option<u64>) {
        self.crash_bound = match (self.journal_appended(), survived) {
            (Some(appended), Some(k)) => Some(k.min(appended)),
            (Some(appended), None) => Some(appended),
            (None, _) => None,
        };
        self.device.power_cut(survived);
        self.queue = InputQueue::default();
        self.results.clear();
        self.staged = None;
    }

    /// Recovers the device after a [`Ecssd::power_cut`]: journaled replay
    /// when a journal is enabled, snapshot restore otherwise.
    ///
    /// # Errors
    ///
    /// [`EcssdError::NoRecoverySource`] when neither a journal nor an
    /// armed snapshot exists, [`EcssdError::NoSealedImage`] when no sealed
    /// functional image matches the recovered epoch; propagates device
    /// errors from a corrupt journal.
    pub fn recover(&mut self) -> Result<RecoveryOutcome, EcssdError> {
        self.recover_inner(None)
    }

    /// Journaled recovery bounded at `max_epoch`: replay stops at the last
    /// durable epoch commit `<= max_epoch`. This is the multi-shard
    /// rollback path — after independent recoveries disagree, every shard
    /// re-recovers to the minimum.
    ///
    /// # Errors
    ///
    /// [`EcssdError::BoundedRecoveryNeedsJournal`] without a journal,
    /// [`EcssdError::NoSealedImage`] when no sealed image matches;
    /// propagates device errors.
    pub fn recover_to(&mut self, max_epoch: u64) -> Result<RecoveryOutcome, EcssdError> {
        self.recover_inner(Some(max_epoch))
    }

    fn recover_inner(&mut self, max_epoch: Option<u64>) -> Result<RecoveryOutcome, EcssdError> {
        let epoch_before = self.epoch;
        let entry = self.clock;
        let prev_rows = self.categories();
        // Volatile state dies with the power, however recovery is driven.
        self.queue = InputQueue::default();
        self.results.clear();
        self.staged = None;

        let mut outcome = if self.device.journal().is_some() {
            self.recover_journaled(max_epoch)?
        } else {
            if max_epoch.is_some() {
                return Err(EcssdError::BoundedRecoveryNeedsJournal);
            }
            self.recover_snapshot()?
        };
        // The INT4 reservation follows the restored screener.
        let int4_bytes = self
            .screener
            .as_ref()
            .map_or(0, |s| s.weights4().storage_bytes() as u64);
        self.reserve_int4(int4_bytes)?;

        // Staleness barrier: controller DRAM is volatile, so every cached
        // row image from before the crash is untrusted, and the access
        // counts are lost with it.
        let rows_now = self.categories();
        let inv_before = self.hot_cache.stats().invalidations;
        let rows = prev_rows.max(rows_now);
        self.rows.weights.invalidate(&mut self.hot_cache, rows);
        self.hot_cache.clear_counts();
        outcome.cache_invalidations = self.hot_cache.stats().invalidations - inv_before;

        self.drift.reset();
        self.commit_log.retain(|m| m.epoch <= self.epoch);
        outcome.epoch_before_crash = epoch_before;
        outcome.recovered_epoch = self.epoch;
        outcome.recovery_ns = self.clock.saturating_since(entry);
        Ok(outcome)
    }

    /// Replays the device journal, rolls the live image back to the
    /// recovered epoch through the sealed history, and trims orphaned
    /// pages from never-durable commits.
    fn recover_journaled(&mut self, max_epoch: Option<u64>) -> Result<RecoveryOutcome, EcssdError> {
        let epoch_before = self.epoch;
        let report = self.device.recover(max_epoch, self.clock)?;
        let recovered = report.recovered_epoch;
        let pages_per_row = self.roll_back_to(recovered)?;
        let rows = self.categories();

        // Rebuild placements; rows must be contiguous from 0 and agree
        // with the restored image for the mapping to count as consistent.
        let mut consistent = report.mapping_consistent;
        let mut placements = report.placements.clone();
        placements.sort_unstable();
        let mut firsts = Vec::with_capacity(placements.len());
        for (i, &(row, first, pages)) in placements.iter().enumerate() {
            if row != i as u64 || pages != pages_per_row {
                consistent = false;
            }
            firsts.push(first);
        }
        if firsts.len() != rows {
            consistent = false;
        }
        self.rows.weights.firsts = firsts;
        self.rows.weights.pages = pages_per_row;
        self.row_accesses.resize(rows, 0);

        // Rows-lost audit: a commit whose group flush preceded the crash
        // instant was durable and must have been recovered.
        let bound = self.crash_bound.take().unwrap_or(0);
        let rows_lost = self
            .commit_log
            .iter()
            .filter(|m| m.appended <= bound && m.epoch > recovered && m.epoch <= epoch_before)
            .map(|m| m.rows_touched)
            .sum();

        // Orphan cleanup: pages mapped by replayed writes whose commit
        // never became durable. Trim them (journaled) and re-seal the
        // recovered epoch so the cleanup itself is crash-consistent.
        let referenced: BTreeSet<u64> = self.rows.weights.lpns().collect();
        let mut t = self.clock + report.recovery_ns;
        let mut orphans = 0u64;
        for lpn in 0..self.device.ftl().logical_pages() {
            if self.device.ftl().is_mapped(lpn) && !referenced.contains(&lpn) {
                t = t.max(self.device.trim_mapped(lpn, t)?);
                orphans += 1;
            }
        }
        if orphans > 0 {
            let rows = self.rows.weights.firsts.len() as u64;
            t = t.max(self.device.journal_commit(
                vec![JournalRecord::EpochCommit {
                    epoch: recovered,
                    rows,
                }],
                t,
            ));
        }

        self.rows.lpns = LpnAllocator::around(&referenced);
        self.epoch = recovered;
        self.clock = t;
        Ok(RecoveryOutcome {
            journaled: true,
            replayed_records: report.replayed_records,
            rows_lost,
            orphaned_lpns: orphans,
            mapping_consistent: consistent,
            ..RecoveryOutcome::default()
        })
    }

    /// Rolls the live image back to sealed `epoch`: the live image is the
    /// newest sealed epoch, so the newer commits are undone, newest first,
    /// down to it. Returns the epoch's pages per row.
    fn roll_back_to(&mut self, epoch: u64) -> Result<u64, EcssdError> {
        let no_image = || EcssdError::NoSealedImage { epoch };
        let idx = self
            .sealed
            .iter()
            .rposition(|s| s.epoch == epoch)
            .ok_or_else(no_image)?;
        let (Some(image), Some(screener)) = (self.image.as_mut(), self.screener.as_mut()) else {
            return Err(no_image());
        };
        let firsts = &mut self.rows.weights.firsts;
        for sealed in self.sealed.drain(idx + 1..).rev() {
            match sealed.undo {
                Some(EpochUndo::Image(i, s, f)) => (*image, *screener, *firsts) = (i, s, f),
                Some(EpochUndo::Rows(mut delta)) => delta.swap(image, screener, firsts)?,
                None => {}
            }
        }
        Ok(self.sealed[idx].pages_per_row)
    }

    /// Unjournaled fallback: restores the armed snapshot after paying a
    /// full-device metadata scan, losing every commit since the snapshot.
    fn recover_snapshot(&mut self) -> Result<RecoveryOutcome, EcssdError> {
        self.crash_bound = None;
        let snap = self
            .crash_snapshot
            .clone()
            .ok_or(EcssdError::NoRecoverySource)?;
        // Every commit since the snapshot is gone, journal or not.
        let rows_lost = self
            .commit_log
            .iter()
            .filter(|m| m.epoch > snap.epoch)
            .map(|m| m.rows_touched)
            .sum();
        *self.device.ftl_mut() = snap.ftl;
        // Rebuilding L2P without a journal means scanning every mapped
        // page's out-of-band area — the full-device read the journal's
        // bounded replay avoids.
        let mut t = self.clock;
        for lpn in 0..self.device.ftl().logical_pages() {
            if !self.device.ftl().is_mapped(lpn) {
                continue;
            }
            if let Ok(addr) = self.device.ftl().translate(lpn) {
                t = self.device.flash_mut().read_page(addr, t).done;
            }
        }
        if snap.epoch == 0 {
            // Armed before any deploy: there is no image to roll back to.
            self.image = None;
            self.screener = None;
            self.sealed.clear();
        } else {
            self.roll_back_to(snap.epoch)?;
        }
        self.row_accesses.resize(self.categories(), 0);
        self.rows = snap.rows;
        self.epoch = snap.epoch;
        self.clock = t;
        let consistent = self.device.ftl().mapping_is_consistent();
        Ok(RecoveryOutcome {
            journaled: false,
            rows_lost,
            mapping_consistent: consistent,
            ..RecoveryOutcome::default()
        })
    }

    /// One background scrub pass: patrol-reads up to `max_pages` mapped
    /// pages and repairs any latent-UECC page via its RAID-5 stripe peers
    /// before a query trips over it. Scrub traffic shares the flash
    /// timelines with foreground work (that contention *is* the patrol
    /// overhead); the host clock does not advance.
    pub fn scrub_pass(&mut self, max_pages: u64) -> ScrubReport {
        self.device.scrub_pass(max_pages, self.clock)
    }

    /// Accumulated scrubber activity since device creation.
    pub fn scrub_totals(&self) -> ScrubReport {
        self.device.scrub_totals()
    }

    /// Seals a committed epoch: journals the placement group + epoch
    /// commit as one atomic flush, seals the epoch into the recovery
    /// history with `undo` (what the commit overwrote in the serving
    /// image), and records the commit mark for rows-lost accounting.
    /// Sealed epochs older than the journal checkpoint, or without a
    /// journal the armed snapshot, are dropped: no recovery can reach
    /// them. Called by `weight_deploy` and `commit_update` after bumping
    /// the epoch; a no-op flush-wise without a journal.
    pub(crate) fn record_commit(
        &mut self,
        placement_rows: &[u64],
        unmapped: &[u64],
        rows_touched: u64,
        undo: Option<EpochUndo>,
    ) {
        if self.device.journal().is_some() {
            let mut records: Vec<JournalRecord> = Vec::new();
            for &lpn in unmapped {
                records.push(JournalRecord::Unmap { lpn });
            }
            let weights = &self.rows.weights;
            for &row in placement_rows {
                records.push(JournalRecord::RowPlacement {
                    row,
                    first_lpn: weights.firsts[row as usize],
                    pages: weights.pages,
                });
            }
            records.push(JournalRecord::EpochCommit {
                epoch: self.epoch,
                rows: weights.firsts.len() as u64,
            });
            self.clock = self
                .clock
                .max(self.device.journal_commit(records, self.clock));
        }
        let oldest = match (self.device.journal(), &self.crash_snapshot) {
            (Some(journal), _) => Some(journal.checkpoint_epoch()),
            (None, Some(snap)) => Some(snap.epoch),
            (None, None) => None,
        };
        if let Some(oldest) = oldest {
            self.sealed.push(SealedEpoch {
                epoch: self.epoch,
                pages_per_row: self.rows.weights.pages,
                undo,
            });
            let unreachable = self.sealed.partition_point(|s| s.epoch < oldest);
            self.sealed.drain(..unreachable);
            if let Some(base) = self.sealed.first_mut() {
                base.undo = None;
            }
        }
        let appended = self.journal_appended().unwrap_or(0);
        self.commit_log.push(CommitMark {
            epoch: self.epoch,
            rows_touched,
            appended,
        });
    }
}

#[cfg(test)]
mod tests {
    use ecssd_screen::{DenseMatrix, Int4Matrix};
    use ecssd_ssd::JournalConfig;
    use ecssd_update::UpdateBatch;

    use super::EpochUndo;
    use crate::delta::tests::{image_words, screener_footprint};
    use crate::{Ecssd, EcssdConfig};

    impl EpochUndo {
        /// `(4-byte words, INT4 codes, LPNs)` the record holds, as
        /// `RowDelta::footprint` counts them.
        fn footprint(&self) -> (usize, usize, usize) {
            match self {
                EpochUndo::Image(image, screener, firsts) => {
                    let (words, codes) = screener_footprint(screener);
                    (image_words(image) + words, codes, firsts.len())
                }
                EpochUndo::Rows(delta) => delta.footprint(),
            }
        }
    }

    impl Ecssd {
        /// `(4-byte words, INT4 codes, LPNs)` the sealed history holds
        /// beyond the live image, summed over every undo record.
        fn sealed_footprint(&self) -> (usize, usize, usize) {
            self.sealed
                .iter()
                .filter_map(|s| s.undo.as_ref())
                .map(EpochUndo::footprint)
                .fold((0, 0, 0), |(f, c, l), (df, dc, dl)| {
                    (f + df, c + dc, l + dl)
                })
        }
    }

    const COLS: usize = 32;

    fn row(seed: u32) -> Vec<f32> {
        (0..COLS)
            .map(|i| ((i as f32) * 0.31 + seed as f32).cos())
            .collect()
    }

    fn journaled(rows: usize, journal: JournalConfig) -> Ecssd {
        let mut dev = Ecssd::new(EcssdConfig::tiny());
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(rows, COLS, 5))
            .unwrap();
        dev.enable_journal(journal);
        dev
    }

    fn commit_replace(dev: &mut Ecssd, r: usize, seed: u32) {
        let batch = UpdateBatch::new(COLS).replace(r, row(seed)).unwrap();
        dev.stage_update(&batch).unwrap();
        dev.commit_update().unwrap();
    }

    #[test]
    fn history_holds_touched_rows_not_images() {
        let mut dev = journaled(512, JournalConfig::default());
        let base = dev.image.clone().unwrap();
        let k = dev.screener.as_ref().unwrap().projected_dim();
        for i in 0..20u32 {
            commit_replace(&mut dev, (i as usize * 37) % 512, i);
        }
        assert_eq!(dev.sealed.len(), 21, "every commit is reachable");
        let (words, codes, lpns) = dev.sealed_footprint();
        // One row's worth: its mantissas, exponent and projection plus its
        // INT4 scale and codes.
        assert!(words <= 20 * (COLS + k + 2), "{words} words held");
        assert!(codes <= 20 * k, "{codes} INT4 codes held");
        assert!(lpns <= 20, "{lpns} LPNs held");
        dev.power_cut(None);
        dev.recover_to(1).unwrap();
        assert_eq!(dev.image, Some(base), "undo restores the base bitwise");
    }

    #[test]
    fn the_int4_reservation_follows_commits_and_rollbacks() {
        let mut dev = journaled(64, JournalConfig::default());
        let reserved = |dev: &Ecssd| dev.device().dram().reserved_bytes();
        let at_deploy = reserved(&dev);
        let k = dev.screener.as_ref().unwrap().projected_dim();
        let grown =
            (Int4Matrix::storage_bytes_for(66, k) - Int4Matrix::storage_bytes_for(64, k)) as u64;
        let batch = UpdateBatch::new(COLS)
            .add(row(1))
            .unwrap()
            .add(row(2))
            .unwrap();
        dev.stage_update(&batch).unwrap();
        assert_eq!(reserved(&dev), at_deploy, "staged rows reserve nothing");
        dev.commit_update().unwrap();
        assert_eq!(reserved(&dev), at_deploy + grown);
        commit_replace(&mut dev, 3, 9);
        assert_eq!(reserved(&dev), at_deploy + grown);
        dev.power_cut(None);
        dev.recover_to(1).unwrap();
        assert_eq!(
            reserved(&dev),
            at_deploy,
            "the rollback gives the rows back"
        );
    }

    #[test]
    fn checkpoint_bounds_the_history() {
        const COMMITS: u32 = 50;
        let journal = JournalConfig {
            checkpoint_every: 64,
            ..JournalConfig::default()
        };
        let build = || {
            let mut dev = journaled(64, journal);
            for i in 0..COMMITS {
                commit_replace(&mut dev, (i as usize * 7) % 64, i);
                let checkpoint = dev.device.journal().unwrap().checkpoint_epoch();
                assert!(dev.sealed.len() as u64 <= dev.epoch() - checkpoint + 1);
            }
            dev
        };
        let reference = build();
        let stats = reference.device.journal().unwrap().stats();
        assert!(stats.checkpoints > 0, "the cadence must checkpoint");
        assert!(reference.sealed.len() < COMMITS as usize);
        for k in 0..=reference.journal_appended().unwrap() {
            let mut dev = build();
            dev.power_cut(Some(k));
            let outcome = dev.recover().unwrap();
            assert_eq!(outcome.rows_lost, 0, "instant {k}");
            assert!(outcome.mapping_consistent, "instant {k}");
        }
    }
}
