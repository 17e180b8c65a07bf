//! FTL metadata journaling, power-loss injection, and replay-based crash
//! recovery.
//!
//! The volatile FTL state (L2P/P2L tables, block bookkeeping, allocation
//! cursors) lives in device DRAM and is lost on power failure. The
//! [`MetadataJournal`] makes it recoverable: every mutating FTL operation
//! appends an append-only record, records are group-committed to NAND at a
//! configurable cadence (the flush *programs real pages* on the journal
//! channel, so journaling cost contends with query reads on the same flash
//! timelines), and recovery replays the durable record prefix on top of the
//! last checkpoint image.
//!
//! The journal is a **logical redo log**, which works because the FTL is
//! fully deterministic: replaying the same `write`/`trim`/`gc_channel`
//! sequence from the same starting state reproduces physical placement —
//! including the garbage collection a write triggers — bit for bit
//! (property-tested in `tests/prop_ftl.rs`). Per-page physical records and
//! explicit erase records therefore collapse into their deterministic
//! triggering ops; [`JournalRecord::Erase`] survives as a replay
//! *cross-check* rather than a replayed action.
//!
//! Atomicity comes from ordering, not locking: an update commit appends its
//! whole record group ([`JournalRecord::RowPlacement`] for every touched
//! row, [`JournalRecord::Unmap`] for every freed page, then the sealing
//! [`JournalRecord::EpochCommit`]) and flushes once. A crash instant either
//! captures the entire group or none of it, so every durable prefix
//! describes a consistent placement set: either the old row versions (whose
//! pages were not yet durably unmapped) or the new ones (whose programs
//! were journaled during staging). That is why journaled recovery loses
//! zero committed rows at *every* crash instant.

use std::collections::BTreeMap;

use crate::{FlashSim, Ftl, PhysPageAddr, SimTime, SsdError};

/// Synthetic on-flash size of one journal record: tag + three 64-bit
/// operands, the widest variant ([`JournalRecord::RowPlacement`]).
pub const JOURNAL_RECORD_BYTES: u64 = 25;

/// One append-only FTL metadata record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// An L2P update: `lpn` was (over)written. Replay re-runs
    /// [`Ftl::write`], which deterministically reproduces the physical
    /// placement and any garbage collection the original write triggered.
    Map {
        /// The logical page that was written.
        lpn: u64,
    },
    /// An unmapping: `lpn` was trimmed. Replay re-runs [`Ftl::trim`].
    Unmap {
        /// The logical page that was trimmed.
        lpn: u64,
    },
    /// An explicit garbage-collection pass on `channel` (proactive GC
    /// triggered *inside* a journaled write needs no record — the write's
    /// replay reproduces it).
    Gc {
        /// The channel that was collected.
        channel: usize,
    },
    /// Replay cross-check: the preceding records erased exactly `blocks`
    /// blocks since the previous `Erase` record. A mismatch during replay
    /// means the journal and the FTL diverged and recovery reports the
    /// mapping as inconsistent.
    Erase {
        /// Channel the erases happened on.
        channel: usize,
        /// Blocks erased since the last cross-check.
        blocks: u64,
    },
    /// A placement-version bump: `row` now lives at `pages` consecutive
    /// LPNs starting at `first_lpn`.
    RowPlacement {
        /// The weight-matrix row.
        row: u64,
        /// First LPN of the row's placement.
        first_lpn: u64,
        /// Pages per row.
        pages: u64,
    },
    /// An update-epoch commit sealing the records before it. `rows` is the
    /// total row count at the commit, so replay can truncate placements
    /// when a commit shrank the matrix.
    EpochCommit {
        /// The committed epoch.
        epoch: u64,
        /// Row count at the commit.
        rows: u64,
    },
}

/// Group-commit and checkpoint cadence of the metadata journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Flush the volatile record buffer to NAND once it holds this many
    /// records (1 = write-through; larger values batch records per program
    /// but widen the window a crash can erase).
    pub group_commit: usize,
    /// Take a checkpoint (full FTL image + log truncation) once the
    /// durable log holds this many records.
    pub checkpoint_every: u64,
    /// Channel whose dies hold the journal and checkpoint pages.
    pub channel: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            group_commit: 32,
            checkpoint_every: 4096,
            channel: 0,
        }
    }
}

/// Journal activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since enable (monotone; crash truncation does not
    /// un-count them).
    pub appended: u64,
    /// Group-commit flushes performed.
    pub flushes: u64,
    /// Records made durable by flushes.
    pub flushed_records: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// NAND pages programmed for journal flushes and checkpoints.
    pub pages_programmed: u64,
    /// Power cuts survived.
    pub power_cuts: u64,
    /// Records lost to power cuts (pending at the crash or flushed after
    /// the injected instant).
    pub dropped_records: u64,
}

/// A checkpoint image: the FTL plus the durable annotation state
/// (placements and epoch) at the moment the log was truncated.
#[derive(Debug, Clone)]
struct Checkpoint {
    ftl: Ftl,
    rows: BTreeMap<u64, (u64, u64)>,
    epoch: u64,
    /// Value of the appended counter when the checkpoint was taken.
    appended_at: u64,
}

/// Counters of one replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Total records replayed (including annotations and cross-checks).
    pub records: u64,
    /// `Map` records re-executed.
    pub maps: u64,
    /// `Unmap` records re-executed.
    pub unmaps: u64,
    /// Explicit `Gc` passes re-executed.
    pub gc_passes: u64,
    /// Blocks erased during replay (implicit GC included) — checked
    /// against the `Erase` cross-check records.
    pub erased_blocks: u64,
}

/// The state a replay pass reconstructs.
#[derive(Debug, Clone)]
pub struct ReplayedState {
    /// The reconstructed FTL.
    pub ftl: Ftl,
    /// Reconstructed row placements as `(row, first_lpn, pages)`, sorted
    /// by row.
    pub placements: Vec<(u64, u64, u64)>,
    /// The last durably committed epoch at the replay bound.
    pub epoch: u64,
    /// Replay counters.
    pub counts: ReplayCounts,
    /// Whether the reconstructed FTL passed `mapping_is_consistent()` and
    /// every `Erase` cross-check matched.
    pub consistent: bool,
}

/// Outcome of a device-level recovery, including the simulated cost of
/// reading the checkpoint and the journal back from NAND.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// `Map` records re-executed.
    pub replayed_maps: u64,
    /// `Unmap` records re-executed.
    pub replayed_unmaps: u64,
    /// Explicit GC passes re-executed.
    pub replayed_gc_passes: u64,
    /// The epoch the device recovered to (the last durable
    /// [`JournalRecord::EpochCommit`]; never ahead of the pre-crash epoch).
    pub recovered_epoch: u64,
    /// Recovered row placements as `(row, first_lpn, pages)`.
    pub placements: Vec<(u64, u64, u64)>,
    /// Synthetic checkpoint image size streamed back from NAND.
    pub checkpoint_bytes: u64,
    /// Journal pages read back during replay.
    pub journal_pages_read: u64,
    /// Simulated recovery time (checkpoint stream + journal page reads +
    /// replay are charged on the flash timelines).
    pub recovery_ns: u64,
    /// Whether the replayed FTL passed its full mapping cross-check.
    pub mapping_consistent: bool,
}

/// The append-only FTL metadata journal with group commit, checkpointing,
/// and crash truncation.
#[derive(Debug, Clone)]
pub struct MetadataJournal {
    config: JournalConfig,
    checkpoint: Checkpoint,
    /// Records flushed to NAND, in append order, since the checkpoint.
    durable: Vec<JournalRecord>,
    /// Records appended but not yet flushed (lost on power cut).
    pending: Vec<JournalRecord>,
    /// Total records appended since enable.
    appended: u64,
    /// `(appended, durable_len)` after each flush, monotone in both; crash
    /// truncation rolls the durable log back to the last flush at or
    /// before the injected instant.
    flush_points: Vec<(u64, usize)>,
    stats: JournalStats,
}

impl MetadataJournal {
    /// Starts journaling from the given FTL state, row placements
    /// (`(row, first_lpn, pages)`), and epoch. The initial checkpoint is
    /// this starting state; it is assumed durable at enable time (the
    /// deploy that produced it already programmed the data), so the first
    /// flush only pays for the records appended afterwards.
    pub fn new(
        config: JournalConfig,
        ftl: &Ftl,
        placements: &[(u64, u64, u64)],
        epoch: u64,
    ) -> Self {
        assert!(config.group_commit >= 1, "group_commit must be >= 1");
        assert!(
            config.checkpoint_every >= 1,
            "checkpoint_every must be >= 1"
        );
        let rows = placements
            .iter()
            .map(|&(row, first, pages)| (row, (first, pages)))
            .collect();
        MetadataJournal {
            config,
            checkpoint: Checkpoint {
                ftl: ftl.clone(),
                rows,
                epoch,
                appended_at: 0,
            },
            durable: Vec::new(),
            pending: Vec::new(),
            appended: 0,
            flush_points: Vec::new(),
            stats: JournalStats::default(),
        }
    }

    /// The active cadence configuration.
    pub fn config(&self) -> JournalConfig {
        self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Total records appended since enable. Crash instants are expressed
    /// in this coordinate: "crash after the k-th append".
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records currently durable on NAND (excludes the pending buffer).
    pub fn durable_records(&self) -> u64 {
        self.durable.len() as u64
    }

    /// Epoch of the last checkpoint. Crash instants clamp to the
    /// checkpoint and replay starts there, so no recovery can reach an
    /// older epoch.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint.epoch
    }

    /// Appends one record to the volatile buffer. Durability requires a
    /// flush — either the group-commit cadence ([`MetadataJournal::flush_due`])
    /// or a sealing [`MetadataJournal::flush`] from a commit group.
    pub fn append(&mut self, record: JournalRecord) {
        self.pending.push(record);
        self.appended += 1;
        self.stats.appended += 1;
    }

    /// True once the pending buffer reached the group-commit threshold.
    pub fn flush_due(&self) -> bool {
        self.pending.len() >= self.config.group_commit
    }

    /// Flushes the pending buffer to NAND: programs
    /// `ceil(bytes / page_bytes)` journal pages on the configured channel
    /// (charged on the shared flash timelines, starting at `issue`), makes
    /// the records durable, and takes a checkpoint when the durable log
    /// reached the checkpoint cadence. Returns the completion time
    /// (`issue` when nothing was pending).
    pub fn flush(&mut self, ftl: &Ftl, flash: &mut FlashSim, issue: SimTime) -> SimTime {
        if self.pending.is_empty() {
            return issue;
        }
        let n = self.pending.len() as u64;
        let bytes = n * JOURNAL_RECORD_BYTES;
        let pages = bytes.div_ceil(flash.geometry().page_bytes as u64);
        let mut t = issue;
        let addr = self.journal_addr(flash);
        for _ in 0..pages {
            t = flash.program_page(addr, t);
        }
        self.durable.append(&mut self.pending);
        self.flush_points.push((self.appended, self.durable.len()));
        self.stats.flushes += 1;
        self.stats.flushed_records += n;
        self.stats.pages_programmed += pages;
        if self.durable.len() as u64 >= self.config.checkpoint_every {
            t = self.take_checkpoint(ftl, flash, t);
        }
        t
    }

    /// Takes a checkpoint: folds the durable annotations into the base
    /// image, snapshots the live FTL, truncates the log, and charges the
    /// checkpoint programs. The live FTL is exactly the durable log's
    /// replay target at this point because every pending record was
    /// flushed first.
    fn take_checkpoint(&mut self, ftl: &Ftl, flash: &mut FlashSim, issue: SimTime) -> SimTime {
        debug_assert!(self.pending.is_empty(), "checkpoint with unflushed records");
        for record in &self.durable {
            Self::fold_annotation(
                &mut self.checkpoint.rows,
                &mut self.checkpoint.epoch,
                record,
            );
        }
        self.checkpoint.ftl = ftl.clone();
        self.checkpoint.appended_at = self.appended;
        self.durable.clear();
        self.flush_points.clear();
        self.stats.checkpoints += 1;
        let bytes = self.checkpoint_bytes();
        let pages = bytes.div_ceil(flash.geometry().page_bytes as u64);
        self.stats.pages_programmed += pages;
        let addr = self.journal_addr(flash);
        let mut t = issue;
        for _ in 0..pages {
            t = flash.program_page(addr, t);
        }
        t
    }

    /// Synthetic checkpoint image size: the L2P table (4 B per logical
    /// page, §2.2) plus the placement/epoch annotations.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint.ftl.logical_pages() * 4 + self.checkpoint.rows.len() as u64 * 24 + 64
    }

    fn journal_addr(&self, flash: &FlashSim) -> PhysPageAddr {
        // Representative address on the journal channel; like
        // `Ftl::charge_gc`, cost is dominated by counts, not placement.
        let g = flash.geometry();
        PhysPageAddr {
            channel: self.config.channel.min(g.channels - 1),
            die: 0,
            plane: 0,
            block: g.blocks_per_plane - 1,
            page: 0,
        }
    }

    fn fold_annotation(rows: &mut BTreeMap<u64, (u64, u64)>, epoch: &mut u64, r: &JournalRecord) {
        match *r {
            JournalRecord::RowPlacement {
                row,
                first_lpn,
                pages,
            } => {
                rows.insert(row, (first_lpn, pages));
            }
            JournalRecord::EpochCommit { epoch: e, rows: n } => {
                *epoch = e;
                rows.retain(|&row, _| row < n);
            }
            _ => {}
        }
    }

    /// Simulates a power cut at the injected instant: the pending buffer
    /// is lost, and the durable log rolls back to the last flush at or
    /// before `survived_appends` total appends (`None` = crash right now,
    /// losing only the pending buffer). Instants before the last
    /// checkpoint clamp to it — the checkpoint was durable by then.
    pub fn power_cut(&mut self, survived_appends: Option<u64>) {
        let k = survived_appends
            .unwrap_or(self.appended)
            .clamp(self.checkpoint.appended_at, self.appended);
        let keep = self
            .flush_points
            .iter()
            .rev()
            .find(|&&(appended, _)| appended <= k)
            .map_or(0, |&(_, len)| len);
        let lost = (self.durable.len() - keep) as u64 + self.pending.len() as u64;
        self.durable.truncate(keep);
        self.flush_points.retain(|&(appended, _)| appended <= k);
        self.pending.clear();
        self.appended = self.checkpoint.appended_at + self.durable.len() as u64;
        self.stats.power_cuts += 1;
        self.stats.dropped_records += lost;
    }

    /// Replays the durable log on top of the checkpoint and returns the
    /// reconstructed state. With `max_epoch = Some(e)` the replay stops at
    /// the last [`JournalRecord::EpochCommit`] with epoch `<= e` (the
    /// multi-shard rollback path); `None` replays everything durable.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors from re-executed operations — these only
    /// occur if the journal does not describe a valid operation sequence.
    pub fn replay(&self, max_epoch: Option<u64>) -> Result<ReplayedState, SsdError> {
        let bound = match max_epoch {
            None => self.durable.len(),
            Some(e) => {
                let mut cut = 0;
                for (i, r) in self.durable.iter().enumerate() {
                    if let JournalRecord::EpochCommit { epoch, .. } = r {
                        if *epoch <= e {
                            cut = i + 1;
                        }
                    }
                }
                cut
            }
        };
        let mut ftl = self.checkpoint.ftl.clone();
        let mut rows = self.checkpoint.rows.clone();
        let mut epoch = self.checkpoint.epoch;
        let mut counts = ReplayCounts::default();
        let mut consistent = true;
        let erased_base = ftl.gc_totals().erased_blocks;
        let mut erased_checked = 0u64;
        for record in &self.durable[..bound] {
            counts.records += 1;
            match *record {
                JournalRecord::Map { lpn } => {
                    counts.maps += 1;
                    ftl.write(lpn)?;
                }
                JournalRecord::Unmap { lpn } => {
                    counts.unmaps += 1;
                    ftl.trim(lpn)?;
                }
                JournalRecord::Gc { channel } => {
                    counts.gc_passes += 1;
                    ftl.gc_channel(channel)?;
                }
                JournalRecord::Erase { blocks, .. } => {
                    // Cross-check: the erases since the previous check must
                    // match what the original execution observed.
                    let seen = ftl.gc_totals().erased_blocks - erased_base - erased_checked;
                    if seen != blocks {
                        consistent = false;
                    }
                    erased_checked += seen;
                }
                JournalRecord::RowPlacement { .. } | JournalRecord::EpochCommit { .. } => {
                    Self::fold_annotation(&mut rows, &mut epoch, record);
                }
            }
        }
        counts.erased_blocks = ftl.gc_totals().erased_blocks - erased_base;
        consistent = consistent && ftl.mapping_is_consistent();
        Ok(ReplayedState {
            ftl,
            placements: rows
                .iter()
                .map(|(&row, &(first, pages))| (row, first, pages))
                .collect(),
            epoch,
            counts,
            consistent,
        })
    }

    /// Charges the simulated cost of reading recovery state back from
    /// NAND: the checkpoint image streams over the journal channel's bus
    /// and every durable journal page is read. Returns the completion
    /// time.
    pub fn charge_recovery_reads(&self, flash: &mut FlashSim, issue: SimTime) -> (u64, SimTime) {
        let addr = self.journal_addr(flash);
        let mut t = flash.bus_transfer(addr.channel, self.checkpoint_bytes(), issue);
        let bytes = self.durable.len() as u64 * JOURNAL_RECORD_BYTES;
        let pages = bytes.div_ceil(flash.geometry().page_bytes as u64);
        for _ in 0..pages {
            t = flash.read_page(addr, t).done;
        }
        (pages, t)
    }
}

/// Deterministic, seeded power-loss instant picker: crash instant `i` of a
/// run that appended `appended` journal records maps to a record count in
/// `[0, appended]` at which the device loses power. The draw is a pure
/// splitmix-style hash of `(seed, i)`, so sweeps replay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLossInjector {
    seed: u64,
}

impl PowerLossInjector {
    /// An injector drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        PowerLossInjector { seed }
    }

    /// The number of appended records that survive crash instant `i`.
    pub fn crash_point(&self, i: u64, appended: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(0xd605_8c1d_9f1a_e2e7));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        if appended == u64::MAX {
            x
        } else {
            x % (appended + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlashTiming, SsdGeometry};

    fn setup() -> (Ftl, FlashSim) {
        let g = SsdGeometry::tiny();
        (
            Ftl::new(g, 0.25),
            FlashSim::new(g, FlashTiming::paper_default()),
        )
    }

    fn journaled_write(j: &mut MetadataJournal, ftl: &mut Ftl, flash: &mut FlashSim, lpn: u64) {
        let before = ftl.gc_totals().erased_blocks;
        ftl.write(lpn).unwrap();
        j.append(JournalRecord::Map { lpn });
        let delta = ftl.gc_totals().erased_blocks - before;
        if delta > 0 {
            j.append(JournalRecord::Erase {
                channel: ftl.channel_of(lpn),
                blocks: delta,
            });
        }
        if j.flush_due() {
            j.flush(ftl, flash, SimTime::ZERO);
        }
    }

    #[test]
    fn replay_reproduces_the_ftl_bit_for_bit() {
        let (mut ftl, mut flash) = setup();
        let mut j = MetadataJournal::new(JournalConfig::default(), &ftl, &[], 0);
        // Churn enough to trigger implicit GC inside the journaled writes.
        for round in 0..90 {
            for lpn in 0..32 {
                journaled_write(&mut j, &mut ftl, &mut flash, (lpn * 3 + round) % 96);
            }
        }
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        let replayed = j.replay(None).unwrap();
        assert!(replayed.consistent);
        assert_eq!(replayed.ftl, ftl, "replay must reproduce the FTL exactly");
        assert!(replayed.counts.maps > 0);
        assert!(
            replayed.counts.erased_blocks > 0,
            "churn must exercise the implicit-GC replay path"
        );
    }

    #[test]
    fn pending_records_are_lost_on_power_cut() {
        let (mut ftl, mut flash) = setup();
        let cfg = JournalConfig {
            group_commit: 1000, // never auto-flush
            ..JournalConfig::default()
        };
        let mut j = MetadataJournal::new(cfg, &ftl, &[], 0);
        for lpn in 0..8 {
            ftl.write(lpn).unwrap();
            j.append(JournalRecord::Map { lpn });
        }
        // Flush the first half only; the rest stays pending.
        // (Manually: flush drains everything, so re-stage.)
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        for lpn in 8..12 {
            ftl.write(lpn).unwrap();
            j.append(JournalRecord::Map { lpn });
        }
        assert_eq!(j.durable_records(), 8);
        j.power_cut(None);
        assert_eq!(j.durable_records(), 8, "durable prefix survives");
        assert_eq!(j.stats().dropped_records, 4, "pending buffer lost");
        let replayed = j.replay(None).unwrap();
        assert_eq!(replayed.ftl.mapped_pages(), 8);
        assert!(replayed.consistent);
    }

    #[test]
    fn crash_instant_rolls_back_to_the_last_flush() {
        let (mut ftl, mut flash) = setup();
        let cfg = JournalConfig {
            group_commit: 4,
            ..JournalConfig::default()
        };
        let mut j = MetadataJournal::new(cfg, &ftl, &[], 0);
        for lpn in 0..16 {
            journaled_write(&mut j, &mut ftl, &mut flash, lpn);
        }
        assert_eq!(j.appended(), 16);
        // Crash after the 10th append: flushes happened at 4, 8, 12, 16;
        // the last one at or before 10 is 8.
        j.power_cut(Some(10));
        assert_eq!(j.durable_records(), 8);
        let replayed = j.replay(None).unwrap();
        assert_eq!(replayed.ftl.mapped_pages(), 8);
        // The journal keeps accepting appends after recovery.
        journaled_write(&mut j, &mut ftl, &mut flash, 20);
        assert_eq!(j.appended(), 9);
    }

    #[test]
    fn commit_groups_are_atomic_across_crash_instants() {
        let (mut ftl, mut flash) = setup();
        let cfg = JournalConfig {
            group_commit: 64,
            ..JournalConfig::default()
        };
        let mut j = MetadataJournal::new(cfg, &ftl, &[], 0);
        // "Deploy" rows 0..4, one page each, sealed by an epoch commit.
        for lpn in 0..4 {
            ftl.write(lpn).unwrap();
            j.append(JournalRecord::Map { lpn });
            j.append(JournalRecord::RowPlacement {
                row: lpn,
                first_lpn: lpn,
                pages: 1,
            });
        }
        j.append(JournalRecord::EpochCommit { epoch: 1, rows: 4 });
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        let sealed = j.appended();
        // Stage + commit an update of row 2 onto LPN 9 as one group.
        ftl.write(9).unwrap();
        j.append(JournalRecord::Map { lpn: 9 });
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        ftl.trim(2).unwrap();
        j.append(JournalRecord::RowPlacement {
            row: 2,
            first_lpn: 9,
            pages: 1,
        });
        j.append(JournalRecord::Unmap { lpn: 2 });
        j.append(JournalRecord::EpochCommit { epoch: 2, rows: 4 });
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        // Sweep every crash instant: the recovered placements must always
        // translate — the commit group lands atomically or not at all.
        for k in 0..=j.appended() {
            let mut jj = j.clone();
            jj.power_cut(Some(k));
            let r = jj.replay(None).unwrap();
            assert!(r.consistent, "instant {k}: inconsistent mapping");
            if k < sealed {
                // Before the deploy seal there may be no placements yet.
                continue;
            }
            assert_eq!(r.placements.len(), 4, "instant {k}");
            for &(row, first, pages) in &r.placements {
                for lpn in first..first + pages {
                    assert!(
                        r.ftl.translate(lpn).is_ok(),
                        "instant {k}: row {row} lost page {lpn}"
                    );
                }
            }
            if r.epoch == 2 {
                assert_eq!(
                    r.placements[2],
                    (2, 9, 1),
                    "instant {k}: epoch 2 must serve the new placement"
                );
            }
        }
    }

    #[test]
    fn checkpoint_truncates_the_log_and_survives_crashes() {
        let (mut ftl, mut flash) = setup();
        let cfg = JournalConfig {
            group_commit: 4,
            checkpoint_every: 16,
            channel: 0,
        };
        let mut j = MetadataJournal::new(cfg, &ftl, &[], 0);
        for lpn in 0..40 {
            journaled_write(&mut j, &mut ftl, &mut flash, lpn % 24);
        }
        j.flush(&ftl, &mut flash, SimTime::ZERO);
        assert!(j.stats().checkpoints > 0, "cadence must checkpoint");
        assert!(j.durable_records() < 40, "checkpoint must truncate the log");
        // A crash instant before the checkpoint clamps to it.
        let mut jj = j.clone();
        jj.power_cut(Some(0));
        let r = jj.replay(None).unwrap();
        assert!(r.consistent);
        assert!(r.ftl.mapped_pages() >= 16);
    }

    #[test]
    fn bounded_replay_rolls_back_to_an_earlier_epoch() {
        let (mut ftl, mut flash) = setup();
        let mut j = MetadataJournal::new(JournalConfig::default(), &ftl, &[], 0);
        for epoch in 1..=3u64 {
            let lpn = 10 + epoch;
            ftl.write(lpn).unwrap();
            j.append(JournalRecord::Map { lpn });
            j.append(JournalRecord::RowPlacement {
                row: 0,
                first_lpn: lpn,
                pages: 1,
            });
            j.append(JournalRecord::EpochCommit { epoch, rows: 1 });
            j.flush(&ftl, &mut flash, SimTime::ZERO);
        }
        let r = j.replay(Some(2)).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.placements, vec![(0, 12, 1)]);
        // Epoch 3's map is beyond the bound: LPN 13 is unmapped.
        assert!(r.ftl.translate(13).is_err());
        assert!(r.ftl.translate(12).is_ok());
    }

    #[test]
    fn no_replay_reaches_behind_the_checkpoint_epoch() {
        let (mut ftl, mut flash) = setup();
        let cfg = JournalConfig {
            group_commit: 1,
            checkpoint_every: 4,
            channel: 0,
        };
        let mut j = MetadataJournal::new(cfg, &ftl, &[], 0);
        assert_eq!(j.checkpoint_epoch(), 0);
        for epoch in 1..=3u64 {
            ftl.write(epoch).unwrap();
            j.append(JournalRecord::Map { lpn: epoch });
            j.append(JournalRecord::EpochCommit { epoch, rows: 0 });
            j.flush(&ftl, &mut flash, SimTime::ZERO);
        }
        // The checkpoint folded epochs 1-2; epoch 3 is in the log.
        assert_eq!(j.checkpoint_epoch(), 2);
        assert_eq!(j.replay(Some(1)).unwrap().epoch, 2);
        j.power_cut(Some(0));
        assert_eq!(j.replay(None).unwrap().epoch, 2);
    }

    #[test]
    fn flush_charges_program_traffic_and_recovery_charges_reads() {
        let (mut ftl, mut flash) = setup();
        let mut j = MetadataJournal::new(JournalConfig::default(), &ftl, &[], 0);
        for lpn in 0..8 {
            ftl.write(lpn).unwrap();
            j.append(JournalRecord::Map { lpn });
        }
        let done = j.flush(&ftl, &mut flash, SimTime::ZERO);
        assert!(
            done.as_ns() >= flash.timing().program_latency_ns,
            "a flush must occupy the flash timelines"
        );
        assert!(j.stats().pages_programmed >= 1);
        let (pages, read_done) = j.charge_recovery_reads(&mut flash, done);
        assert!(pages >= 1);
        assert!(read_done > done);
    }

    #[test]
    fn crash_point_draws_are_deterministic_and_in_range() {
        let inj = PowerLossInjector::new(0xc4a5);
        for i in 0..32 {
            let a = inj.crash_point(i, 100);
            assert_eq!(a, inj.crash_point(i, 100), "same draw must replay");
            assert!(a <= 100);
        }
        // Distinct instants spread over the range rather than collapsing.
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|i| inj.crash_point(i, 1000)).collect();
        assert!(distinct.len() > 16);
    }
}
