//! The device's flash row store: the classifier weight rows live in a
//! [`RowRegion`], and one [`LpnAllocator`] hands out their logical pages
//! and those of staged updates, so no LPN ever belongs to two rows.

use std::collections::BTreeSet;

use ecssd_ssd::{HotRowCache, RowPath, RowReadScratch, SimTime, SsdDevice, SsdError};

/// The weight rows the device keeps in flash. Row `r` occupies `pages`
/// consecutive LPNs starting at `firsts[r]`, and keys the hot-row cache by
/// its row id.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowRegion {
    /// First LPN of each row.
    pub(crate) firsts: Vec<u64>,
    /// Pages per row.
    pub(crate) pages: u64,
}

impl RowRegion {
    /// Every LPN the region's rows occupy.
    pub(crate) fn lpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.firsts
            .iter()
            .flat_map(move |&first| first..first + self.pages)
    }

    /// Replaces the region's rows with `rows` rows of `row_bytes`: drops
    /// their cached images and access counts (a new model's row ids name
    /// new categories), frees their LPNs and places the new rows from the
    /// lowest free LPN up. Returns when the last program completes.
    pub(crate) fn redeploy(
        &mut self,
        lpns: &mut LpnAllocator,
        device: &mut SsdDevice,
        cache: &mut HotRowCache,
        rows: usize,
        row_bytes: u64,
        issue: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.invalidate(cache, self.firsts.len());
        cache.clear_counts();
        lpns.free.extend(self.lpns());
        lpns.free.sort_unstable_by(|a, b| b.cmp(a));
        self.pages = row_bytes.div_ceil(device.config().geometry.page_bytes as u64);
        let (firsts, done) = lpns.place(device, rows, self.pages, issue)?;
        self.firsts = firsts;
        Ok(done)
    }

    /// Drops the cached image of rows `0..rows` from the hot-row cache.
    pub(crate) fn invalidate(&self, cache: &mut HotRowCache, rows: usize) {
        let keys: Vec<u64> = (0..rows as u64).collect();
        cache.invalidate_rows(&keys);
    }

    /// Fetches a batch's candidate `union` as one request through the
    /// shared row read ([`RowPath::read`]): each row is looked up in the
    /// hot-row cache once, every hit streams from device DRAM, and the
    /// misses are read from flash in one batch read, all issued at `t`,
    /// then cached. Returns when the last row has arrived, or the first
    /// injected flash fault as [`SsdError::Uncorrectable`] /
    /// [`SsdError::DieFailed`], caching nothing from the failed batch.
    pub(crate) fn fetch(
        &self,
        union: &mut CandidateUnion,
        device: &mut SsdDevice,
        cache: &mut HotRowCache,
        t: SimTime,
    ) -> Result<SimTime, SsdError> {
        let row_bytes = self.pages * device.config().geometry.page_bytes as u64;
        let (ftl, dram, flash) = device.split_mut();
        let path = RowPath { cache, dram, flash };
        let read = path.read(
            &union.rows,
            self.pages,
            t,
            t,
            &mut union.read,
            |row, page| ftl.translate(self.firsts[row as usize] + page),
        )?;
        if let Some(fault) = read.batch.failures.first() {
            return Err(fault.error());
        }
        for &i in &union.read.misses {
            cache.insert(union.rows[i], row_bytes);
        }
        Ok(read.done())
    }
}

/// The distinct candidate rows of one device batch, in first-use
/// (query-major) order, with a membership mark per row id, and the read
/// scratch [`RowRegion::fetch`] reuses. Device scratch, reused
/// across batches: [`CandidateUnion::clear`] unmarks by walking the union,
/// so a batch touches only the marks of the rows it selected, and the
/// marks grow only when a larger row id first appears.
#[derive(Debug, Clone, Default)]
pub(crate) struct CandidateUnion {
    rows: Vec<u64>,
    marked: Vec<bool>,
    /// The union's read: its misses, cached once the read succeeds.
    read: RowReadScratch,
}

impl CandidateUnion {
    /// Adds `row` unless it is already in the union.
    pub(crate) fn insert(&mut self, row: usize) {
        if row >= self.marked.len() {
            self.marked.resize(row + 1, false);
        }
        if !std::mem::replace(&mut self.marked[row], true) {
            self.rows.push(row as u64);
        }
    }

    /// Empties the union, keeping its storage.
    pub(crate) fn clear(&mut self) {
        for &row in &self.rows {
            self.marked[row as usize] = false;
        }
        self.rows.clear();
    }
}

/// The device-wide LPN allocator. Every LPN below the tail is owned by a
/// weight row, held by a staged update, or free; none at or above the
/// tail is mapped.
#[derive(Debug, Clone, Default)]
pub(crate) struct LpnAllocator {
    /// The never-used tail.
    next: u64,
    /// Free LPNs below the tail, taken from the end.
    free: Vec<u64>,
}

impl LpnAllocator {
    /// Takes `pages` consecutive LPNs for one row: the most recently
    /// released run when the top of the free list is one, else the
    /// never-used tail. Returns the first.
    pub(crate) fn take(&mut self, pages: u64) -> u64 {
        if let Some(start) = self.free.len().checked_sub(pages as usize) {
            let (lo, hi) = self.free[start..]
                .iter()
                .fold((u64::MAX, 0), |(lo, hi), &l| (lo.min(l), hi.max(l)));
            if pages > 0 && hi - lo + 1 == pages {
                self.free.truncate(start);
                return lo;
            }
        }
        let first = self.next;
        self.next += pages;
        first
    }

    /// Programs `rows` rows of `pages` pages at freshly taken runs through
    /// the journaled write path, every page issued at `issue`. Returns the
    /// rows' first LPNs and when the last program or flush completes.
    pub(crate) fn place(
        &mut self,
        device: &mut SsdDevice,
        rows: usize,
        pages: u64,
        issue: SimTime,
    ) -> Result<(Vec<u64>, SimTime), SsdError> {
        let mut firsts = Vec::with_capacity(rows);
        let mut done = issue;
        for _ in 0..rows {
            let first = self.take(pages);
            for lpn in first..first + pages {
                let (addr, flushed) = device.write_mapped(lpn, issue)?;
                done = done
                    .max(device.flash_mut().program_page(addr, issue))
                    .max(flushed);
            }
            firsts.push(first);
        }
        Ok((firsts, done))
    }

    /// Returns LPNs for reuse.
    pub(crate) fn release(&mut self, lpns: &[u64]) {
        self.free.extend_from_slice(lpns);
    }

    /// The allocator recovery rebuilds around the `referenced` LPNs: the
    /// tail sits past the highest, and every gap below it is free.
    pub(crate) fn around(referenced: &BTreeSet<u64>) -> Self {
        let next = referenced.last().map_or(0, |&l| l + 1);
        LpnAllocator {
            next,
            free: (0..next).filter(|l| !referenced.contains(l)).collect(),
        }
    }
}

/// The weight rows and the allocator they draw from.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowStore {
    pub(crate) weights: RowRegion,
    pub(crate) lpns: LpnAllocator,
}

#[cfg(test)]
mod tests {
    use ecssd_screen::DenseMatrix;
    use ecssd_ssd::JournalConfig;
    use ecssd_update::UpdateBatch;
    use proptest::prelude::*;

    use super::*;
    use crate::{Ecssd, EcssdConfig};

    #[test]
    fn take_recycles_runs_before_growing_the_tail() {
        let mut lpns = LpnAllocator::default();
        assert_eq!(lpns.take(1), 0);
        assert_eq!(lpns.take(2), 1);
        lpns.release(&[1, 2]);
        lpns.release(&[0]);
        assert_eq!(lpns.take(1), 0, "the last released LPN first");
        assert_eq!(lpns.take(2), 1, "a released run serves a two-page row");
        assert_eq!(lpns.take(2), 3, "then the tail grows");
        lpns.release(&[0, 4]);
        assert_eq!(lpns.take(2), 5, "a non-contiguous top is no run");
    }

    #[test]
    fn redeploy_rewrites_from_the_lowest_free_lpn() {
        let mut dev = Ecssd::new(EcssdConfig::tiny());
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(8, COLS, 1)).unwrap();
        assert_eq!(dev.rows.weights.firsts, (0..8).collect::<Vec<u64>>());
        dev.weight_deploy(&DenseMatrix::random(10, COLS, 2))
            .unwrap();
        assert_eq!(dev.rows.weights.firsts, (0..10).collect::<Vec<u64>>());
        dev.weight_deploy(&DenseMatrix::random(6, COLS, 3)).unwrap();
        assert_eq!(dev.rows.weights.firsts, (0..6).collect::<Vec<u64>>());
        // Staging takes the lowest LPN the redeploy freed, and a commit's
        // superseded page serves the next staged row before the tail.
        for (target, first) in [(5, 6), (0, 5)] {
            let replace = UpdateBatch::new(COLS).replace(target, row(9)).unwrap();
            dev.stage_update(&replace).unwrap();
            dev.commit_update().unwrap();
            assert_eq!(dev.rows.weights.firsts[target], first);
        }
        assert_eq!(dev.rows.weights.firsts, vec![5, 1, 2, 3, 4, 6]);
        assert_eq!(dev.rows.lpns.next, 10, "the tail never grew");
    }

    const COLS: usize = 16;

    #[derive(Debug, Clone)]
    enum Step {
        Deploy {
            rows: usize,
            seed: u64,
        },
        /// `(kind, pick)` ops (0 = add, 1 = replace, 2 = remove) staged as
        /// one batch, then committed or aborted.
        Update {
            ops: Vec<(u8, u16)>,
            commit: bool,
        },
        /// A power cut at a pick of the journal's append count, then
        /// recovery.
        Crash(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            1 => (8usize..40, any::<u64>()).prop_map(|(rows, seed)| Step::Deploy { rows, seed }),
            3 => (prop::collection::vec((0u8..3, any::<u16>()), 1..4), any::<bool>())
                .prop_map(|(ops, commit)| Step::Update { ops, commit }),
            2 => any::<u64>().prop_map(Step::Crash),
        ]
    }

    fn row(seed: u16) -> Vec<f32> {
        (0..COLS)
            .map(|i| ((i as f32) * 0.37 + f32::from(seed) * 0.11).sin())
            .collect()
    }

    /// One batch over `rows` rows; a second op on a touched row is dropped.
    fn batch(ops: &[(u8, u16)], rows: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new(COLS);
        let mut targets = BTreeSet::new();
        for &(kind, pick) in ops {
            let target = usize::from(pick) % rows;
            batch = match kind {
                0 => batch.add(row(pick)),
                _ if !targets.insert(target) => continue,
                1 => batch.replace(target, row(pick)),
                _ => batch.remove(target),
            }
            .unwrap();
        }
        batch
    }

    /// Row ownership after any step: every owned LPN is mapped and owned
    /// once, no free LPN is owned, and classification never meets an SSD
    /// error.
    fn check(dev: &mut Ecssd) -> Result<(), TestCaseError> {
        let owned: Vec<u64> = dev.rows.weights.lpns().collect();
        let distinct: BTreeSet<u64> = owned.iter().copied().collect();
        prop_assert_eq!(distinct.len(), owned.len(), "an LPN belongs to two rows");
        prop_assert!(owned.iter().all(|&l| dev.device.ftl().is_mapped(l)));
        prop_assert!(dev.rows.lpns.free.iter().all(|l| !distinct.contains(l)));
        prop_assert!(distinct.iter().all(|&l| l < dev.rows.lpns.next));
        prop_assert_eq!(dev.rows.weights.firsts.len(), dev.categories());
        let query: Vec<f32> = (0..COLS).map(|i| (i as f32 * 0.13).sin()).collect();
        let scores = dev.classify_batch(&[query], 3);
        prop_assert!(scores.is_ok(), "classify failed: {:?}", scores.err());
        Ok(())
    }

    proptest! {
        #[test]
        fn rows_keep_one_owner_through_deploys_updates_and_crashes(
            steps in prop::collection::vec(step(), 1..12),
            seed in any::<u64>(),
        ) {
            let config = EcssdConfig::tiny_builder()
                .hot_cache_bytes(16 << 10)
                .build()
                .unwrap();
            let mut dev = Ecssd::new(config);
            dev.enable();
            dev.weight_deploy(&DenseMatrix::random(24, COLS, seed)).unwrap();
            dev.enable_journal(JournalConfig {
                group_commit: 4,
                ..JournalConfig::default()
            });
            for step in &steps {
                match step {
                    Step::Deploy { rows, seed } => {
                        dev.weight_deploy(&DenseMatrix::random(*rows, COLS, *seed)).unwrap();
                    }
                    Step::Update { ops, commit } => {
                        dev.stage_update(&batch(ops, dev.categories())).unwrap();
                        if *commit {
                            dev.commit_update().unwrap();
                        } else {
                            dev.abort_update().unwrap();
                        }
                    }
                    Step::Crash(pick) => {
                        let appended = dev.journal_appended().unwrap();
                        dev.power_cut(Some(pick % (appended + 1)));
                        let outcome = dev.recover().unwrap();
                        prop_assert!(outcome.mapping_consistent);
                        prop_assert_eq!(outcome.rows_lost, 0);
                    }
                }
                check(&mut dev)?;
            }
        }
    }
}
