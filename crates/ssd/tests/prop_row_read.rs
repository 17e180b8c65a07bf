//! Differential property test of the shared candidate-row read
//! ([`RowPath::read`]) against the loop the serving device ran before the
//! read was shared, kept here as the reference: one cache lookup per row in
//! list order, a DRAM stream per hit, the misses' pages in one batch read.
//! On random distinct row lists, warm caches (capacity 0 included), 1-2
//! pages per row, issue and gate times, page-address failures and UECC
//! fault plans, both must leave the same cache (counters and recency), the
//! same DRAM and flash timelines, and report the same misses, completion
//! and failed pages.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ecssd_ssd::{
    BatchRead, Dram, FaultPlan, FlashSim, FlashTiming, HotRowCache, PhysPageAddr, RowPath,
    RowReadScratch, SimTime, SsdError, SsdGeometry,
};
use proptest::prelude::*;

/// Row ids are drawn below this; a failing row id at or above it fails
/// nothing.
const ROW_IDS: u64 = 48;

/// A fixed placement crowding the rows onto the tiny geometry's dies, so
/// senses queue and planes pair.
fn page_addr(row: u64, page: u64) -> PhysPageAddr {
    let g = SsdGeometry::tiny();
    PhysPageAddr {
        channel: (row % g.channels as u64) as usize,
        die: ((row / 4) % g.dies_per_channel as u64) as usize,
        plane: ((row / 8 + page) % g.planes_per_die as u64) as usize,
        block: ((row / 16) % g.blocks_per_plane as u64) as usize,
        page: ((row * 2 + page) % g.pages_per_block as u64) as usize,
    }
}

/// What the reference read reports: the rows that missed, in list order,
/// their pages, when the last hit arrived, and the batch read.
type ReferenceRead = (Vec<u64>, Vec<PhysPageAddr>, SimTime, BatchRead);

/// The device's row fetch before the read was shared, with the page
/// translation passed in and a transfer gate apart from the issue time.
fn reference_read(
    rows: &[u64],
    pages: u64,
    (cache, dram, flash): (&mut HotRowCache, &mut Dram, &mut FlashSim),
    (issue, gate): (SimTime, SimTime),
    translate: impl Fn(u64, u64) -> Result<PhysPageAddr, SsdError>,
) -> Result<ReferenceRead, SsdError> {
    let row_bytes = pages * flash.geometry().page_bytes as u64;
    let mut addrs = Vec::new();
    let mut misses = Vec::new();
    let mut hit_done = issue;
    for &row in rows {
        if cache.lookup(row) {
            hit_done = hit_done.max(dram.transfer(row_bytes, issue));
            continue;
        }
        misses.push(row);
        for page in 0..pages {
            addrs.push(translate(row, page)?);
        }
    }
    let batch = flash.read_batch_checked(&addrs, issue, gate);
    Ok((misses, addrs, hit_done, batch))
}

/// Drops repeated row ids, keeping first occurrences in order.
fn distinct(rows: Vec<u64>) -> Vec<u64> {
    let mut seen = [false; ROW_IDS as usize];
    rows.into_iter()
        .filter(|&r| !std::mem::replace(&mut seen[r as usize], true))
        .collect()
}

// The default case count, so `PROPTEST_CASES` scales these cheap cases
// in the stress run.
proptest! {
    #[test]
    fn shared_read_matches_the_reference_loop(
        rows in prop::collection::vec(0..ROW_IDS, 0..40),
        warm in prop::collection::vec(0..ROW_IDS, 0..32),
        (pages, cap_rows) in (1u64..=2, 0u64..24),
        (issue_ns, gate_extra, dram_prior) in (0u64..100_000, 0u64..50_000, 0u64..(256 << 10)),
        failing_row in 0..2 * ROW_IDS,
        (uecc, seed) in (any::<bool>(), any::<u64>()),
    ) {
        let rows = distinct(rows);
        let geometry = SsdGeometry::tiny();
        let row_bytes = pages * geometry.page_bytes as u64;
        let mut cache = HotRowCache::new(cap_rows * row_bytes);
        for &row in &warm {
            cache.insert(row, row_bytes);
        }
        let mut dram = Dram::paper_default();
        dram.transfer(dram_prior, SimTime::ZERO);
        let mut flash = FlashSim::new(geometry, FlashTiming::paper_default());
        if uecc {
            flash.set_fault_plan(FaultPlan::with_seed(seed).with_uecc(0.2));
        }
        let (mut ref_cache, mut ref_dram, mut ref_flash) =
            (cache.clone(), dram.clone(), flash.clone());
        let translate = |row: u64, page: u64| {
            if row == failing_row {
                Err(SsdError::Unmapped { lpn: row * pages + page })
            } else {
                Ok(page_addr(row, page))
            }
        };
        let insertions = cache.stats().insertions;
        let issue = SimTime::from_ns(issue_ns);
        let gate = SimTime::from_ns(issue_ns + gate_extra);

        let mut scratch = RowReadScratch::default();
        let path = RowPath { cache: &mut cache, dram: &mut dram, flash: &mut flash };
        let read = path.read(&rows, pages, issue, gate, &mut scratch, translate);
        let reference = reference_read(
            &rows,
            pages,
            (&mut ref_cache, &mut ref_dram, &mut ref_flash),
            (issue, gate),
            translate,
        );

        match (read, reference) {
            (Ok(read), Ok((misses, addrs, hit_done, batch))) => {
                let read_misses: Vec<u64> = scratch.misses.iter().map(|&i| rows[i]).collect();
                prop_assert_eq!(read_misses, misses);
                prop_assert_eq!(&scratch.addrs, &addrs);
                prop_assert_eq!(read.hits, (rows.len() - scratch.misses.len()) as u64);
                prop_assert_eq!(read.hit_done, hit_done);
                prop_assert_eq!(read.batch.done, batch.done);
                prop_assert_eq!(&read.batch.failures, &batch.failures);
                prop_assert_eq!(read.done(), batch.done.max(hit_done));
            }
            (Err(e), Err(ref_e)) => prop_assert_eq!(e, ref_e),
            (read, reference) => {
                prop_assert!(false, "read {:?} but reference {:?}", read.map(|r| r.hits), reference.map(|r| r.0));
            }
        }
        // A lookup never inserts.
        prop_assert_eq!(cache.stats().insertions, insertions);
        prop_assert_eq!(cache.stats(), ref_cache.stats());
        // The slab's recency links are part of the Debug text, so equal
        // text means the same LRU order.
        prop_assert_eq!(format!("{cache:?}"), format!("{ref_cache:?}"));
        prop_assert_eq!(dram.busy_ns(), ref_dram.busy_ns());
        prop_assert_eq!(dram.bytes_moved(), ref_dram.bytes_moved());
        prop_assert_eq!(dram.free_at(), ref_dram.free_at());
        prop_assert_eq!(flash.die_busy_ns(), ref_flash.die_busy_ns());
        prop_assert_eq!(flash.channel_stats(), ref_flash.channel_stats());
    }
}
