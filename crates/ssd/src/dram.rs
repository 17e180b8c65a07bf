//! The device DRAM: capacity for SSD management data (L2P table) and — in
//! ECSSD's heterogeneous layout — the INT4 screener weights, plus a shared
//! bandwidth timeline (§2.2, §4.3, §6.1: 16 GB at 12.8 GB/s).
//!
//! The DRAM can also host a [`HotRowCache`]: a cache of recently fetched
//! FP32 candidate rows, evicted in LRU order and admitted by access
//! frequency, so repeated candidates under skewed query traffic are served
//! from DRAM instead of re-reading NAND (the RecSSD-style device-side
//! caching the serving engine builds on). [`RowPath::read`] is
//! the one candidate-row read through it: cache lookup, DRAM hit, flash
//! batch read.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ecssd_trace::{Stage, Timeline, Tracer};

use crate::{Bandwidth, BatchRead, CacheStats, FlashSim, PhysPageAddr, SimTime, SsdError};

/// The SSD's internal DRAM.
#[derive(Debug, Clone)]
pub struct Dram {
    capacity_bytes: u64,
    bandwidth: Bandwidth,
    reserved_bytes: u64,
    timeline: Timeline,
    bytes_moved: u64,
    tracer: Tracer,
}

impl Dram {
    /// A DRAM with the given capacity and bandwidth.
    pub fn new(capacity_bytes: u64, bandwidth: Bandwidth) -> Self {
        Dram {
            capacity_bytes,
            bandwidth,
            reserved_bytes: 0,
            timeline: Timeline::default(),
            bytes_moved: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace handle; every subsequent transfer records a
    /// [`Stage::DramTransfer`] span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The paper's configuration: 16 GB at 12.8 GB/s (§6.1, §7.1).
    pub fn paper_default() -> Self {
        Dram::new(16 << 30, Bandwidth::from_gbps(12.8))
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently reserved.
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved_bytes
    }

    /// Bandwidth of the DRAM interface.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Reserves capacity (e.g. the 12.8 GB INT4 weight matrix of the
    /// 100M-category benchmark, §7.1, or the L2P table).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::DramCapacityExceeded`] if the reservation does
    /// not fit.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), SsdError> {
        let new_total = self.reserved_bytes + bytes;
        if new_total > self.capacity_bytes {
            return Err(SsdError::DramCapacityExceeded {
                requested: bytes,
                available: self.capacity_bytes - self.reserved_bytes,
            });
        }
        self.reserved_bytes = new_total;
        Ok(())
    }

    /// Releases previously reserved capacity.
    ///
    /// # Panics
    ///
    /// Panics if more is released than reserved.
    pub fn release(&mut self, bytes: u64) {
        assert!(
            bytes <= self.reserved_bytes,
            "releasing more DRAM than reserved"
        );
        self.reserved_bytes -= bytes;
    }

    /// Schedules a transfer of `bytes` over the DRAM interface; returns the
    /// completion time. Transfers serialize on the shared interface.
    ///
    /// ```
    /// use ecssd_ssd::{Dram, SimTime};
    /// let mut dram = Dram::paper_default(); // 12.8 GB/s
    /// // One 512-row INT4 screener tile (64 KB) takes ~5.1 µs.
    /// let done = dram.transfer(64 << 10, SimTime::ZERO);
    /// assert_eq!(done.as_ns(), 5_120);
    /// ```
    pub fn transfer(&mut self, bytes: u64, issue: SimTime) -> SimTime {
        if bytes == 0 {
            return issue;
        }
        let (start, done) = self
            .timeline
            .occupy(issue, self.bandwidth.transfer_ns(bytes));
        self.bytes_moved += bytes;
        self.tracer.span(Stage::DramTransfer, start, done);
        done
    }

    /// Accumulated interface busy time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.timeline.busy_ns()
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Earliest time the interface is free.
    pub fn free_at(&self) -> SimTime {
        self.timeline.free_at()
    }

    /// Clears traffic statistics (capacity reservations are preserved).
    pub fn reset_stats(&mut self) {
        self.timeline.reset_busy();
        self.bytes_moved = 0;
    }
}

/// A cache of hot candidate FP32 rows resident in device DRAM: LRU
/// eviction behind frequency-gated admission.
///
/// Keys are global weight-row ids; values only track the row's footprint in
/// bytes (the simulator never materializes weight bytes). A capacity of 0
/// disables the cache entirely: every lookup misses, nothing is inserted,
/// and no statistics are counted, so a disabled cache is behaviorally
/// invisible.
///
/// Admission follows TinyLFU (Einziger, Friedman and Manes, ACM ToS 2017),
/// with exact counts in place of its sketch. Every lookup, hit or miss,
/// bumps the row's saturating 4-bit access count; every ten times as many
/// lookups as the rows resident when the cache last filled, every count is
/// halved and zeros are forgotten. A row offered to a cache with room is
/// inserted; offered to a full cache, it replaces the least recently used
/// row only if it was looked up strictly more often, and is dropped
/// otherwise. So a one-off scan cannot flush rows that recur.
///
/// Every operation is O(1) (amortized over the halvings): resident rows
/// are slab entries on a doubly linked recency list, found through a map
/// keyed by a one-multiply hash of the row id, and counts sit in a second
/// map with the same hash. Freed slab slots are reused, so the slab never
/// holds more entries than were ever resident at once.
///
/// ```
/// use ecssd_ssd::HotRowCache;
/// let mut cache = HotRowCache::new(4096); // room for one row
/// assert!(!cache.lookup(7)); // cold
/// cache.insert(7, 4096);
/// assert!(cache.lookup(7)); // hot: the flash fetch is skipped
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().bytes_saved, 4096);
/// assert!(!cache.lookup(9)); // row 9 is asked for once, row 7 twice:
/// cache.insert(9, 4096); // not admitted
/// assert!(cache.lookup(7));
/// ```
#[derive(Debug, Clone)]
pub struct HotRowCache {
    capacity_bytes: u64,
    resident_bytes: u64,
    /// Row id → slab index of its entry.
    index: HashMap<u64, u32, BuildHasherDefault<RowIdHasher>>,
    /// Resident entries, linked from least to most recently used, and
    /// freed slots, linked through `next` from `free`.
    slab: Vec<Entry>,
    free: u32,
    /// Least recently used entry (`NIL` when empty).
    lru: u32,
    /// Most recently used entry (`NIL` when empty).
    mru: u32,
    /// Row id → access count, resident or not; never zero.
    counts: HashMap<u64, u8, BuildHasherDefault<RowIdHasher>>,
    /// Lookups since the counts were last halved.
    sampled: u64,
    /// Rows resident the last time an insert found the cache full (0
    /// until then); the counts are halved every `SAMPLE_PERIOD` times as
    /// many lookups.
    full_rows: u64,
    hits: u64,
    misses: u64,
    bytes_saved: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

/// The null slab link.
const NIL: u32 = u32::MAX;

/// The largest access count (counts are 4-bit).
const MAX_COUNT: u8 = 15;

/// Lookups between halvings, per row resident when full: TinyLFU's
/// sample size.
const SAMPLE_PERIOD: u64 = 10;

/// One slab slot: a resident row and its recency neighbours.
#[derive(Debug, Clone, Copy)]
struct Entry {
    row: u64,
    bytes: u64,
    /// Next less recently used entry.
    prev: u32,
    /// Next more recently used entry, or the next free slot.
    next: u32,
}

/// Hashes a row id with one 64 × 64 → 128-bit multiply by 2^64 / φ,
/// folding the high half into the low so ids that differ only in high
/// bits still spread over the table.
#[derive(Debug, Clone, Copy, Default)]
struct RowIdHasher(u64);

impl Hasher for RowIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Default for HotRowCache {
    fn default() -> Self {
        HotRowCache::new(0)
    }
}

impl HotRowCache {
    /// A cache bounded by `capacity_bytes` (0 disables it).
    pub fn new(capacity_bytes: u64) -> Self {
        HotRowCache {
            capacity_bytes,
            resident_bytes: 0,
            index: HashMap::default(),
            slab: Vec::new(),
            free: NIL,
            lru: NIL,
            mru: NIL,
            counts: HashMap::default(),
            sampled: 0,
            full_rows: 0,
            hits: 0,
            misses: 0,
            bytes_saved: 0,
            insertions: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Whether the cache participates at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Takes entry `i` off the recency list.
    fn unlink(&mut self, i: u32) {
        let Entry { prev, next, .. } = self.slab[i as usize];
        match prev {
            NIL => self.lru = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Links entry `i` in as the most recently used.
    fn push_mru(&mut self, i: u32) {
        let entry = &mut self.slab[i as usize];
        entry.prev = self.mru;
        entry.next = NIL;
        match self.mru {
            NIL => self.lru = i,
            m => self.slab[m as usize].next = i,
        }
        self.mru = i;
    }

    /// Drops resident entry `i`: off the list, out of the index and the
    /// resident bytes, its slot onto the free list.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        let entry = &mut self.slab[i as usize];
        self.index.remove(&entry.row);
        self.resident_bytes -= entry.bytes;
        entry.next = self.free;
        self.free = i;
    }

    /// Evicts the least recently used row; `false` when nothing is
    /// resident.
    fn evict_lru(&mut self) -> bool {
        if self.lru == NIL {
            return false;
        }
        self.remove(self.lru);
        self.evictions += 1;
        true
    }

    /// Looks up a row, refreshing its recency on a hit. Unless the cache
    /// is disabled, bumps the row's access count and counts one hit or
    /// miss (and `bytes_saved` on a hit).
    ///
    /// Inlined so that a disabled cache, which the paper's machine calls
    /// once per candidate row, costs its callers no call.
    #[inline]
    pub fn lookup(&mut self, row: u64) -> bool {
        self.is_enabled() && self.lookup_enabled(row)
    }

    fn lookup_enabled(&mut self, row: u64) -> bool {
        self.count_access(row);
        match self.index.get(&row).copied() {
            Some(i) => {
                self.hits += 1;
                self.bytes_saved += self.slab[i as usize].bytes;
                self.unlink(i);
                self.push_mru(i);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Bumps `row`'s access count, and halves every count once a sample
    /// period of lookups has passed.
    fn count_access(&mut self, row: u64) {
        let count = self.counts.entry(row).or_insert(0);
        *count = (*count + 1).min(MAX_COUNT);
        self.sampled += 1;
        if self.full_rows > 0 && self.sampled >= SAMPLE_PERIOD * self.full_rows {
            self.sampled = 0;
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    /// How often `row` was looked up lately: its access count, halved
    /// once per sample period (0 when never looked up or decayed away).
    pub fn frequency(&self, row: u64) -> u8 {
        self.counts.get(&row).copied().unwrap_or(0)
    }

    /// Forgets every access count, for a cache whose rows now hold a
    /// different model.
    pub fn clear_counts(&mut self) {
        self.counts.clear();
        self.sampled = 0;
    }

    /// Offers a row of `bytes`: a resident row is refreshed (LRU rows,
    /// never it, are evicted until a grown row fits), a row that fits is
    /// inserted, and a row that does not fit replaces least-recently-used
    /// rows only if its [`frequency`](Self::frequency) is strictly above
    /// the least recently used row's. Rows larger than the whole capacity
    /// are not cached.
    #[inline]
    pub fn insert(&mut self, row: u64, bytes: u64) {
        if self.is_enabled() && bytes <= self.capacity_bytes {
            self.insert_enabled(row, bytes);
        }
    }

    fn insert_enabled(&mut self, row: u64, bytes: u64) {
        if let Some(&i) = self.index.get(&row) {
            let entry = &mut self.slab[i as usize];
            self.resident_bytes = self.resident_bytes - entry.bytes + bytes;
            entry.bytes = bytes;
            self.unlink(i);
            self.push_mru(i);
            while self.resident_bytes > self.capacity_bytes && self.evict_lru() {}
            return;
        }
        if self.resident_bytes + bytes > self.capacity_bytes {
            // Full: `bytes` fits the capacity, so some row is resident.
            self.full_rows = self.index.len() as u64;
            let victim = self.slab[self.lru as usize].row;
            if self.frequency(row) <= self.frequency(victim) {
                return;
            }
            while self.resident_bytes + bytes > self.capacity_bytes && self.evict_lru() {}
        }
        self.insertions += 1;
        let entry = Entry {
            row,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free {
            NIL => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
            f => {
                self.free = self.slab[f as usize].next;
                self.slab[f as usize] = entry;
                f
            }
        };
        self.push_mru(i);
        self.index.insert(row, i);
        self.resident_bytes += bytes;
    }

    /// Drops the given rows from the cache if resident.
    ///
    /// This is the staleness barrier of the online-update path: every
    /// applied weight update must invalidate the rows it touched so a
    /// subsequent query can never be served a pre-update row image from
    /// DRAM. Rows that are not resident are ignored.
    pub fn invalidate_rows(&mut self, rows: &[u64]) {
        if !self.is_enabled() {
            return;
        }
        for &row in rows {
            if let Some(&i) = self.index.get(&row) {
                self.remove(i);
                self.invalidations += 1;
            }
        }
    }

    /// Retunes the capacity at runtime, evicting least-recently-used rows
    /// until the resident set fits the new bound. Evictions are counted in
    /// [`CacheStats::evictions`] like insert-driven ones, and the LRU order
    /// is the same deterministic recency order `insert` evicts in, so two
    /// identically-seeded runs resize identically. Growing never drops
    /// rows; resizing to 0 disables the cache and drops everything
    /// resident. Hit/miss history is preserved either way.
    pub fn set_capacity(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
        while self.resident_bytes > self.capacity_bytes && self.evict_lru() {}
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bytes_saved: self.bytes_saved,
            insertions: self.insertions,
            evictions: self.evictions,
            invalidations: self.invalidations,
            resident_bytes: self.resident_bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }

    /// Clears the resident rows, access counts and counters (capacity is
    /// preserved).
    pub fn reset(&mut self) {
        let capacity = self.capacity_bytes;
        *self = HotRowCache::new(capacity);
    }
}

/// The device resources a candidate-row read runs on: the hot-row cache in
/// front, the DRAM its hits stream from and the flash its misses are read
/// from.
#[derive(Debug)]
pub struct RowPath<'a> {
    /// The cache every row is looked up in.
    pub cache: &'a mut HotRowCache,
    /// The DRAM interface hits stream over.
    pub dram: &'a mut Dram,
    /// The flash array misses are read from.
    pub flash: &'a mut FlashSim,
}

/// Caller-kept scratch for [`RowPath::read`], reused across reads so a
/// read allocates nothing once its vectors have grown.
#[derive(Debug, Clone, Default)]
pub struct RowReadScratch {
    /// Positions in the row list of the rows that missed, in list order.
    pub misses: Vec<usize>,
    /// The misses' flash pages, `pages_per_row` per miss in miss order;
    /// [`FailedRead::index`](crate::FailedRead::index) indexes this list.
    pub addrs: Vec<PhysPageAddr>,
}

/// One [`RowPath::read`]: the rows [`RowReadScratch::misses`] names went
/// to flash, every other row was served from DRAM.
#[derive(Debug, Clone)]
pub struct RowRead {
    /// Rows served from DRAM.
    pub hits: u64,
    /// When the last hit arrived (the issue time when none hit).
    pub hit_done: SimTime,
    /// The misses' batch read.
    pub batch: BatchRead,
}

impl RowRead {
    /// When every row arrived or its failure was known.
    pub fn done(&self) -> SimTime {
        self.batch.done.max(self.hit_done)
    }
}

impl RowPath<'_> {
    /// Reads `rows` of `pages_per_row` pages each. Every row is looked up
    /// in the cache once, in list order (lookup order is LRU state); a hit
    /// streams from DRAM at `issue`, and a miss's pages, addressed by
    /// `page_addr(row, page)`, join one [`FlashSim::read_batch_checked`]
    /// that senses at `issue` and moves data from `gate` on. Nothing is
    /// inserted into the cache: which misses to cache after a failed page
    /// is the caller's policy.
    ///
    /// ```
    /// use ecssd_ssd::*;
    /// let mut flash = FlashSim::new(SsdGeometry::tiny(), FlashTiming::paper_default());
    /// let mut dram = Dram::paper_default();
    /// let mut cache = HotRowCache::new(8192);
    /// cache.insert(7, 4096); // row 7 is hot, row 9 is not
    /// let mut scratch = RowReadScratch::default();
    /// let path = RowPath { cache: &mut cache, dram: &mut dram, flash: &mut flash };
    /// let t = SimTime::ZERO;
    /// let read = path.read(&[7, 9], 1, t, t, &mut scratch, |row, page| {
    ///     let channel = (row % 4) as usize;
    ///     Ok(PhysPageAddr { channel, die: 0, plane: 0, block: 0, page: page as usize })
    /// })?;
    /// assert_eq!((read.hits, scratch.misses.as_slice()), (1, &[1][..]));
    /// assert!(read.batch.all_ok() && read.done() > t);
    /// # Ok::<(), SsdError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first error of `page_addr`. The rows before it have
    /// been looked up and their hits streamed; no flash read was issued.
    pub fn read<F>(
        self,
        rows: &[u64],
        pages_per_row: u64,
        issue: SimTime,
        gate: SimTime,
        scratch: &mut RowReadScratch,
        mut page_addr: F,
    ) -> Result<RowRead, SsdError>
    where
        F: FnMut(u64, u64) -> Result<PhysPageAddr, SsdError>,
    {
        let row_bytes = pages_per_row * self.flash.geometry().page_bytes as u64;
        scratch.misses.clear();
        scratch.addrs.clear();
        let mut hit_done = issue;
        for (i, &row) in rows.iter().enumerate() {
            if self.cache.lookup(row) {
                hit_done = hit_done.max(self.dram.transfer(row_bytes, issue));
                continue;
            }
            scratch.misses.push(i);
            for page in 0..pages_per_row {
                scratch.addrs.push(page_addr(row, page)?);
            }
        }
        Ok(RowRead {
            hits: (rows.len() - scratch.misses.len()) as u64,
            hit_done,
            batch: self.flash.read_batch_checked(&scratch.addrs, issue, gate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let d = Dram::paper_default();
        assert_eq!(d.capacity_bytes(), 16 << 30);
        assert_eq!(d.bandwidth().as_gbps(), 12.8);
    }

    #[test]
    fn reservations_respect_capacity() {
        let mut d = Dram::new(100, Bandwidth::from_gbps(1.0));
        assert!(d.reserve(60).is_ok());
        assert!(matches!(
            d.reserve(50),
            Err(SsdError::DramCapacityExceeded {
                requested: 50,
                available: 40
            })
        ));
        d.release(60);
        assert!(d.reserve(100).is_ok());
    }

    #[test]
    fn hundred_million_category_int4_matrix_fits() {
        // §7.1: the 12.8 GB INT4 matrix of the 100M-category layer fits in
        // 16 GB (alongside a 1 GB-scale L2P table); 50M categories would
        // also fit in 8 GB but 100M would not.
        let mut d = Dram::paper_default();
        let int4_bytes = 100_000_000u64 * 256 / 2; // L=100M, K=256, 4-bit
        assert_eq!(int4_bytes, 12_800_000_000);
        assert!(d.reserve(int4_bytes).is_ok());
        let mut small = Dram::new(8 << 30, Bandwidth::from_gbps(12.8));
        assert!(small.reserve(int4_bytes).is_err());
    }

    #[test]
    fn transfers_serialize() {
        let mut d = Dram::new(1 << 30, Bandwidth::from_gbps(2.0));
        let a = d.transfer(1000, SimTime::ZERO);
        assert_eq!(a.as_ns(), 500);
        let b = d.transfer(1000, SimTime::ZERO);
        assert_eq!(b.as_ns(), 1000, "second transfer waits for the first");
        assert_eq!(d.busy_ns(), 1000);
        assert_eq!(d.bytes_moved(), 2000);
    }

    #[test]
    fn zero_transfer_is_free() {
        let mut d = Dram::paper_default();
        assert_eq!(d.transfer(0, SimTime::from_ns(7)), SimTime::from_ns(7));
        assert_eq!(d.busy_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "releasing more")]
    fn over_release_panics() {
        let mut d = Dram::new(10, Bandwidth::from_gbps(1.0));
        d.release(1);
    }

    #[test]
    fn disabled_cache_is_invisible() {
        let mut c = HotRowCache::new(0);
        assert!(!c.lookup(1));
        c.insert(1, 100);
        assert!(!c.lookup(1));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn cache_hits_after_insert() {
        let mut c = HotRowCache::new(1 << 20);
        assert!(!c.lookup(42));
        c.insert(42, 4096);
        assert!(c.lookup(42));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_saved, 4096);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_row() {
        let mut c = HotRowCache::new(3 * 4096);
        for row in 0..3 {
            assert!(!c.lookup(row));
            c.insert(row, 4096);
        }
        // Refresh row 0: row 1 is now coldest. Row 3 misses twice, so it
        // outranks row 1 (looked up once).
        assert!(c.lookup(0));
        assert!(!c.lookup(3) && !c.lookup(3));
        c.insert(3, 4096);
        assert!(!c.lookup(1), "coldest row was evicted");
        assert!(c.lookup(0) && c.lookup(2) && c.lookup(3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.resident_bytes(), 3 * 4096);
    }

    #[test]
    fn a_scan_does_not_flush_the_hot_set() {
        let mut c = HotRowCache::new(4 * 4096);
        // Each batch asks for the four hot rows and four rows of a scan
        // that never recur. A plain LRU would cache every scan row and miss
        // every hot row from the second batch on; here each scan row is
        // offered to the full cache and dropped.
        for batch in 0..25 {
            for row in 0..4 {
                let hit = c.lookup(row);
                assert_eq!(hit, batch > 0, "batch {batch} row {row}");
                if !hit {
                    c.insert(row, 4096);
                }
            }
            for row in 100 + 4 * batch..104 + 4 * batch {
                assert!(!c.lookup(row));
                c.insert(row, 4096);
            }
        }
        let s = c.stats();
        assert_eq!((s.insertions, s.evictions), (4, 0));
    }

    #[test]
    fn a_grown_refresh_evicts_other_rows_until_it_fits() {
        let mut c = HotRowCache::new(3 * 4096);
        for row in 0..3 {
            assert!(!c.lookup(row));
            c.insert(row, 4096);
        }
        c.insert(2, 2 * 4096); // row 2 grows: row 0, the coldest, goes
        assert_eq!(c.resident_bytes(), 3 * 4096);
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.lookup(0) && c.lookup(1) && c.lookup(2));
        c.insert(2, 3 * 4096); // grows to the whole capacity: row 1 goes
        assert_eq!((c.len(), c.resident_bytes()), (1, 3 * 4096));
        assert!(c.lookup(2));
    }

    #[test]
    fn counts_halve_every_sample_period_and_clear_on_request() {
        let mut c = HotRowCache::new(2 * 4096);
        for row in 0..2 {
            assert!(!c.lookup(row));
            c.insert(row, 4096);
        }
        assert!(!c.lookup(9));
        c.insert(9, 4096); // full with 2 rows: the period is 20 lookups
        for _ in 0..16 {
            assert!(c.lookup(0));
        }
        assert_eq!((c.frequency(0), c.frequency(1)), (15, 1), "saturated at 15");
        assert!(c.lookup(0)); // the 20th lookup: every count halves
        assert_eq!((c.frequency(0), c.frequency(1), c.frequency(9)), (7, 0, 0));
        c.clear_counts();
        assert_eq!(c.frequency(0), 0);
        assert!(c.lookup(1), "clearing counts keeps the rows");
    }

    #[test]
    fn set_capacity_evicts_down_in_lru_order() {
        let mut c = HotRowCache::new(4 * 4096);
        for row in 0..4 {
            c.insert(row, 4096);
        }
        assert!(c.lookup(0)); // refresh row 0: rows 1, 2 are now coldest
        c.set_capacity(2 * 4096);
        assert_eq!(c.resident_bytes(), 2 * 4096);
        assert_eq!(c.stats().evictions, 2, "evictions are counted");
        assert!(c.lookup(0) && c.lookup(3), "warmest rows survive");
        assert!(!c.lookup(1) && !c.lookup(2), "coldest rows were dropped");
    }

    #[test]
    fn set_capacity_growth_drops_nothing() {
        let mut c = HotRowCache::new(2 * 4096);
        c.insert(0, 4096);
        c.insert(1, 4096);
        c.set_capacity(8 * 4096);
        assert_eq!(c.capacity_bytes(), 8 * 4096);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.lookup(0) && c.lookup(1));
    }

    #[test]
    fn set_capacity_zero_disables_and_empties() {
        let mut c = HotRowCache::new(2 * 4096);
        c.insert(0, 4096);
        let hits_before = c.stats().hits;
        c.set_capacity(0);
        assert!(!c.is_enabled());
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().hits, hits_before, "history is preserved");
        assert!(!c.lookup(0));
    }

    #[test]
    fn oversized_rows_are_not_cached() {
        let mut c = HotRowCache::new(1000);
        c.insert(9, 4096);
        assert!(!c.lookup(9));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn reinsert_updates_footprint() {
        let mut c = HotRowCache::new(10_000);
        c.insert(5, 4096);
        c.insert(5, 8192);
        assert_eq!(c.resident_bytes(), 8192);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_drops_rows_and_counts() {
        let mut c = HotRowCache::new(1 << 20);
        c.insert(1, 4096);
        c.insert(2, 4096);
        c.invalidate_rows(&[1, 99]); // 99 is not resident: ignored
        assert!(!c.lookup(1), "invalidated row must miss");
        assert!(c.lookup(2), "untouched row stays resident");
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.resident_bytes(), 4096);
        // Re-inserting after invalidation behaves like a fresh row.
        c.insert(1, 4096);
        assert!(c.lookup(1));
    }

    #[test]
    fn invalidation_unlinks_the_row_from_the_lru_order() {
        // An invalidated row must leave the recency order, so a later
        // eviction takes the coldest row still resident.
        let mut c = HotRowCache::new(2 * 4096);
        for row in 1..=3 {
            assert!(!c.lookup(row));
            c.insert(row, 4096);
            if row == 2 {
                c.invalidate_rows(&[1]);
            }
        }
        // Row 3 fit without eviction; row 4, looked up more often than
        // row 2, must evict row 2 (coldest live row).
        assert!(!c.lookup(4) && !c.lookup(4));
        c.insert(4, 4096);
        assert!(!c.lookup(2));
        assert!(c.lookup(3) && c.lookup(4));
        assert_eq!(c.resident_bytes(), 2 * 4096);
    }

    #[test]
    fn slab_stays_bounded_by_the_resident_rows() {
        let mut c = HotRowCache::new(64 * 4096);
        for i in 0..10_000u64 {
            let row = (i % 97) << 33;
            // Offered on every miss, a recurring row is admitted once it
            // has been asked for more often than the row it replaces.
            while !c.lookup(row) {
                c.insert(row, 4096);
            }
            assert!(c.lookup(row));
            if i % 7 == 0 {
                c.invalidate_rows(&[row]);
            }
        }
        assert!(c.len() <= 64);
        assert!(c.slab.len() <= 64, "slab length {}", c.slab.len());
        assert!(c.stats().evictions > 8_000, "slots were freed and reused");
    }
}
