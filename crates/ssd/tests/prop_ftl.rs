//! Property-based tests of FTL invariants under random workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use ecssd_ssd::{
    FlashSim, FlashTiming, Ftl, JournalConfig, JournalRecord, MetadataJournal, SimTime, SsdGeometry,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
}

fn op_strategy(lpns: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..lpns).prop_map(Op::Write),
        1 => (0..lpns).prop_map(Op::Trim),
    ]
}

/// Journaled workload op: writes, trims, and explicit per-channel GC.
#[derive(Debug, Clone)]
enum JOp {
    Write(u64),
    Trim(u64),
    Gc(usize),
}

fn jop_strategy(lpns: u64, channels: usize) -> impl Strategy<Value = JOp> {
    prop_oneof![
        6 => (0..lpns).prop_map(JOp::Write),
        2 => (0..lpns).prop_map(JOp::Trim),
        1 => (0..channels).prop_map(JOp::Gc),
    ]
}

/// Runs `ops` against a live FTL while mirroring every mutation into a
/// real [`MetadataJournal`] exactly like the device write path does
/// (including the erase-delta cross-checks), flushing at the journal's
/// group-commit cadence. Returns the live FTL and the journal.
fn run_journaled(ops: &[JOp], group_commit: usize) -> (Ftl, MetadataJournal) {
    let geometry = SsdGeometry::tiny();
    let mut ftl = Ftl::new(geometry, 0.25);
    let mut flash = FlashSim::new(geometry, FlashTiming::paper_default());
    let mut journal = MetadataJournal::new(
        JournalConfig {
            group_commit,
            checkpoint_every: u64::MAX,
            channel: 0,
        },
        &ftl,
        &[],
        0,
    );
    let mut t = SimTime::ZERO;
    let mut erases_checked = 0u64;
    for op in ops {
        match *op {
            JOp::Write(lpn) => {
                ftl.write(lpn).unwrap();
                journal.append(JournalRecord::Map { lpn });
            }
            JOp::Trim(lpn) => {
                ftl.trim(lpn).unwrap();
                journal.append(JournalRecord::Unmap { lpn });
            }
            JOp::Gc(channel) => {
                ftl.gc_channel(channel).unwrap();
                journal.append(JournalRecord::Gc { channel });
            }
        }
        let erased = ftl.gc_totals().erased_blocks;
        if erased > erases_checked {
            journal.append(JournalRecord::Erase {
                channel: 0,
                blocks: erased - erases_checked,
            });
            erases_checked = erased;
        }
        if journal.flush_due() {
            t = journal.flush(&ftl, &mut flash, t);
        }
    }
    if journal.appended() > journal.durable_records() {
        journal.flush(&ftl, &mut flash, t);
    }
    (ftl, journal)
}

/// No two mapped LPNs may resolve to the same physical page — the
/// "never double-invalidate / double-map" half of crash consistency.
fn assert_no_aliasing(ftl: &Ftl) {
    let mut seen = std::collections::HashSet::new();
    for lpn in 0..ftl.logical_pages() {
        if ftl.is_mapped(lpn) {
            let addr = ftl.translate(lpn).unwrap();
            assert!(seen.insert(addr), "two LPNs share a physical page");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of writes and trims: every mapped LPN translates
    /// to a unique in-range physical page on channel `lpn % channels`, and
    /// the mapped count equals the live-set size.
    #[test]
    fn mapping_invariants_hold(ops in prop::collection::vec(op_strategy(200), 1..400)) {
        let geometry = SsdGeometry::tiny();
        let mut ftl = Ftl::new(geometry, 0.25);
        let mut live: HashMap<u64, ()> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(lpn) => {
                    ftl.write(lpn).unwrap();
                    live.insert(lpn, ());
                }
                Op::Trim(lpn) => {
                    ftl.trim(lpn).unwrap();
                    live.remove(&lpn);
                }
            }
        }
        prop_assert_eq!(ftl.mapped_pages(), live.len() as u64);
        let mut seen = std::collections::HashSet::new();
        for &lpn in live.keys() {
            let addr = ftl.translate(lpn).unwrap();
            prop_assert!(geometry.contains(addr), "address out of range");
            prop_assert_eq!(
                addr.channel,
                (lpn % geometry.channels as u64) as usize,
                "striping violated"
            );
            prop_assert!(seen.insert(addr), "two LPNs share a physical page");
        }
    }

    /// Heavy overwrite churn forces GC; mappings survive and wear spreads
    /// across more than one block.
    #[test]
    fn gc_preserves_mappings(seed in 0u64..1000) {
        let geometry = SsdGeometry::tiny();
        let mut ftl = Ftl::new(geometry, 0.25);
        let lpns: Vec<u64> = (0..48).map(|i| (i * 7 + seed % 5) % 96).collect();
        for round in 0..30 {
            for &lpn in &lpns {
                ftl.write(lpn).unwrap();
            }
            if round == 0 {
                // Every written LPN resolves from round one on.
                for &lpn in &lpns {
                    prop_assert!(ftl.translate(lpn).is_ok());
                }
            }
        }
        for &lpn in &lpns {
            prop_assert!(ftl.translate(lpn).is_ok());
        }
        // GC either never needed (enough space) or ran and erased blocks.
        let wear = ftl.wear();
        prop_assert_eq!(wear.total_erases, ftl.gc_totals().erased_blocks);
    }

    /// Unwritten LPNs always fail translation, written ones always succeed.
    #[test]
    fn translate_matches_write_history(writes in prop::collection::hash_set(0u64..100, 0..50)) {
        let mut ftl = Ftl::new(SsdGeometry::tiny(), 0.25);
        for &lpn in &writes {
            ftl.write(lpn).unwrap();
        }
        for lpn in 0..100 {
            prop_assert_eq!(ftl.translate(lpn).is_ok(), writes.contains(&lpn));
        }
    }

    /// Sustained overwrite (the online-update workload): dynamic wear
    /// leveling must keep the erase load spread, i.e. the max/mean per-block
    /// erase ratio stays bounded once GC has cycled the whole device.
    #[test]
    fn wear_leveling_bounds_max_over_mean(seed in 0u64..500) {
        let geometry = SsdGeometry::tiny();
        let mut ftl = Ftl::new(geometry, 0.25);
        // A hot working set of 40 LPNs overwritten 100 times churns far
        // more pages than the device holds, forcing many GC cycles.
        let lpns: Vec<u64> = (0..40).map(|i| (i * 11 + seed) % 96).collect();
        for _ in 0..100 {
            for &lpn in &lpns {
                ftl.write(lpn).unwrap();
            }
        }
        let wear = ftl.wear();
        prop_assert!(wear.total_erases > 0, "churn must trigger GC");
        // Leveling acts per die (allocation takes the least-worn free block
        // of the die): within any die that cycled all its blocks at least
        // once, no block may carry more than a small multiple of the die's
        // mean erase load. The bound is deliberately loose (greedy GC is not perfect leveling)
        // but fails immediately if leveling regresses to e.g. always
        // reusing the first free block.
        let counts = ftl.erase_counts();
        let blocks_per_die = counts.len() / geometry.total_dies();
        for (die, die_counts) in counts.chunks(blocks_per_die).enumerate() {
            let total: u64 = die_counts.iter().map(|&c| u64::from(c)).sum();
            if total < die_counts.len() as u64 {
                continue; // die not yet fully cycled; ratios are noisy
            }
            let mean = total as f64 / die_counts.len() as f64;
            let max = die_counts.iter().copied().max().unwrap_or(0);
            let ratio = f64::from(max) / mean;
            prop_assert!(
                ratio <= 3.0,
                "die {die}: max/mean erase ratio {ratio:.2} exceeds \
                 wear-leveling bound (max {max} mean {mean:.2})"
            );
        }
        // The per-block histogram must be consistent with the summary.
        prop_assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), wear.total_erases);
        prop_assert_eq!(counts.iter().copied().max().unwrap_or(0), wear.max_erases);
    }

    /// GC relocation never leaves the mapping tables inconsistent: after
    /// every overwrite round under heavy churn, each live LPN resolves to a
    /// unique in-range page whose reverse mapping points back at it, and
    /// per-block valid counters agree with the live set.
    #[test]
    fn gc_relocation_keeps_mapping_consistent(
        ops in prop::collection::vec(op_strategy(96), 200..600),
    ) {
        let geometry = SsdGeometry::tiny();
        let mut ftl = Ftl::new(geometry, 0.25);
        let mut live: HashMap<u64, ()> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Write(lpn) => {
                    ftl.write(lpn).unwrap();
                    live.insert(lpn, ());
                }
                Op::Trim(lpn) => {
                    ftl.trim(lpn).unwrap();
                    live.remove(&lpn);
                }
            }
            // Full-table audit is O(pages); sample it to keep runtime sane,
            // but always audit the final state.
            if i % 37 == 0 || i + 1 == ops.len() {
                prop_assert!(ftl.mapping_is_consistent(), "mapping tables corrupt after op {i}");
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &lpn in live.keys() {
            let addr = ftl.translate(lpn).unwrap();
            prop_assert!(geometry.contains(addr), "GC moved a page out of range");
            prop_assert!(seen.insert(addr), "GC aliased two LPNs onto one page");
        }
    }
}

proptest! {
    // Each case replays a journal from scratch, so keep the case count a
    // notch below the pure-FTL suites.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-replay consistency: journal a random interleaving of writes,
    /// trims, and explicit GC passes, cut power after a random number of
    /// surviving appends, and replay. Whatever prefix survived must yield
    /// a consistent FTL (per-block valid counters agree with the mapping,
    /// so no page was double-invalidated) in which no two mapped LPNs
    /// alias one physical page.
    #[test]
    fn crash_replay_preserves_mapping_consistency(
        ops in prop::collection::vec(jop_strategy(96, 4), 100..300),
        group_commit in 1usize..8,
        crash_seed in any::<u64>(),
    ) {
        let (_, mut journal) = run_journaled(&ops, group_commit);
        let appended = journal.appended();
        let k = crash_seed % (appended + 1);
        journal.power_cut(Some(k));
        prop_assert!(journal.durable_records() <= k);
        let replayed = journal.replay(None).unwrap();
        prop_assert!(
            replayed.consistent,
            "crash at {k}/{appended} appends replayed inconsistently"
        );
        prop_assert!(replayed.ftl.mapping_is_consistent());
        assert_no_aliasing(&replayed.ftl);
    }

    /// With every record durable, replay reconstructs the live FTL
    /// bit-for-bit — mapping tables, block bookkeeping, allocation
    /// cursors, and GC counters all included. This pins the journal as a
    /// *complete* redo log: any FTL mutation missing a record type would
    /// diverge here.
    #[test]
    fn full_replay_reconstructs_the_live_ftl_bit_for_bit(
        ops in prop::collection::vec(jop_strategy(96, 4), 100..300),
        group_commit in 1usize..8,
    ) {
        let (ftl, mut journal) = run_journaled(&ops, group_commit);
        prop_assert_eq!(journal.durable_records(), journal.appended());
        // Crash exactly at the last flushed append: nothing is lost.
        let appended = journal.appended();
        journal.power_cut(Some(appended));
        let replayed = journal.replay(None).unwrap();
        prop_assert!(replayed.consistent);
        prop_assert_eq!(replayed.counts.records, appended);
        prop_assert_eq!(&replayed.ftl, &ftl, "replay diverged from the live FTL");
        assert_no_aliasing(&replayed.ftl);
    }
}
