//! Online-update path on the functional [`Ecssd`] device: staging
//! isolation, atomic commit, cache staleness barrier, LPN recycling, and
//! the bit-identical acceptance property (a served device that applies
//! updates online converges to exactly the state of a quiesced redeploy
//! of the same final weights), and the conservation law of the write
//! path's flash time.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use ecssd_core::prelude::*;
use ecssd_core::{RequantPolicy, UpdateBatch, UpdatePolicy};
use ecssd_ssd::{GcReport, PhysPageAddr};
use proptest::prelude::*;

const ROWS: usize = 256;
const COLS: usize = 64;

fn device() -> Ecssd {
    let mut dev = Ecssd::new(EcssdConfig::tiny());
    dev.enable();
    dev
}

fn query(phase: f32) -> Vec<f32> {
    (0..COLS)
        .map(|i| ((i as f32) * 0.13 + phase).sin())
        .collect()
}

fn queries() -> Vec<Vec<f32>> {
    (0..4).map(|q| query(q as f32 * 0.7)).collect()
}

/// A replacement row correlated with the queries so it lands in the top-k.
fn hot_row(seed: f32) -> Vec<f32> {
    (0..COLS)
        .map(|i| ((i as f32) * 0.13 + seed).sin() * 1.5)
        .collect()
}

fn replace_batch(rows: &[usize]) -> UpdateBatch {
    let mut batch = UpdateBatch::new(COLS);
    for (i, &r) in rows.iter().enumerate() {
        batch = batch.replace(r, hot_row(0.2 + i as f32 * 0.3)).unwrap();
    }
    batch
}

#[test]
fn staged_update_is_invisible_until_commit() {
    let mut dev = device();
    let weights = DenseMatrix::random(ROWS, COLS, 11);
    dev.weight_deploy(&weights).unwrap();
    let before = dev.classify_batch(&queries(), 8).unwrap();

    let report = dev.stage_update(&replace_batch(&[3, 99, 200])).unwrap();
    assert_eq!(report.rows_replaced, 3);
    assert!(report.pages_programmed >= 3);
    assert!(dev.has_staged_update());

    // Version N still serves, bit-identical to pre-stage.
    let during = dev.classify_batch(&queries(), 8).unwrap();
    assert_eq!(before, during, "staged rows must stay invisible");

    let committed = dev.commit_update().unwrap();
    assert!(!dev.has_staged_update());
    assert_eq!(committed.epoch, dev.epoch());
    let after = dev.classify_batch(&queries(), 8).unwrap();
    assert_ne!(before, after, "committed rows must become visible");
}

#[test]
fn online_commit_matches_quiesced_redeploy_bit_identically() {
    // The acceptance property: apply updates to a *serving* device, then
    // compare against a fresh device that deploys the final weights
    // directly. Top-k must agree bitwise.
    let weights = DenseMatrix::random(ROWS, COLS, 13);
    let touched = [1usize, 42, 107, 200, 255];

    let mut online = device();
    online.weight_deploy(&weights).unwrap();
    // Serve some load before, between, and after staged batches.
    online.classify_batch(&queries(), 8).unwrap();
    online.stage_update(&replace_batch(&touched[..2])).unwrap();
    online.classify_batch(&queries(), 8).unwrap();
    online.stage_update(&replace_batch(&touched[2..])).unwrap();
    let report = online.commit_update().unwrap();
    assert_eq!(report.rows_replaced, 5);
    assert!(report.cache_invalidations <= touched.len() as u64);
    let online_topk = online.classify_batch(&queries(), 8).unwrap();

    // Quiesced reference: final weights deployed in one shot.
    let mut final_weights = weights.clone();
    let mut batch_rows = Vec::new();
    for (i, &r) in touched[..2].iter().enumerate() {
        batch_rows.push((r, hot_row(0.2 + i as f32 * 0.3)));
    }
    for (i, &r) in touched[2..].iter().enumerate() {
        batch_rows.push((r, hot_row(0.2 + i as f32 * 0.3)));
    }
    for (r, row) in batch_rows {
        final_weights.row_mut(r).copy_from_slice(&row);
    }
    let mut quiesced = device();
    quiesced.weight_deploy(&final_weights).unwrap();
    let quiesced_topk = quiesced.classify_batch(&queries(), 8).unwrap();

    assert_eq!(
        online_topk, quiesced_topk,
        "online updates must converge to the quiesced deploy bit-for-bit"
    );
}

#[test]
fn commit_invalidates_cached_rows() {
    // tiny() disables the hot-row cache; turn it on for this test.
    let config = EcssdConfig::tiny_builder()
        .hot_cache_bytes(1 << 20)
        .build()
        .unwrap();
    let mut dev = Ecssd::new(config);
    dev.enable();
    let weights = DenseMatrix::random(ROWS, COLS, 17);
    dev.weight_deploy(&weights).unwrap();
    // Warm the hot-row cache with every candidate of this query mix.
    dev.classify_batch(&queries(), 8).unwrap();
    let warm = dev.cache_stats();
    assert!(warm.insertions > 0, "cache must be warm for this test");

    // Replace rows the screener is known to select for these queries
    // (hot_row correlates with query(0.0) by construction).
    let mut batch = UpdateBatch::new(COLS);
    for r in [3usize, 99, 200] {
        batch = batch.replace(r, hot_row(0.0)).unwrap();
    }
    dev.stage_update(&batch).unwrap();
    let report = dev.commit_update().unwrap();
    let stats = dev.cache_stats();
    assert_eq!(stats.invalidations, report.cache_invalidations);
    // Whether a given row was resident depends on the screener, but the
    // device-level invariant holds: no stale row image can be served.
    let after = dev.classify_batch(&queries(), 8).unwrap();
    let mut reference = device();
    let mut final_weights = weights;
    for r in [3usize, 99, 200] {
        final_weights.row_mut(r).copy_from_slice(&hot_row(0.0));
    }
    reference.weight_deploy(&final_weights).unwrap();
    assert_eq!(after, reference.classify_batch(&queries(), 8).unwrap());
}

#[test]
fn epoch_tracks_deploys_and_commits_not_stages_or_aborts() {
    let mut dev = device();
    assert_eq!(dev.epoch(), 0);
    let weights = DenseMatrix::random(ROWS, COLS, 19);
    dev.weight_deploy(&weights).unwrap();
    assert_eq!(dev.epoch(), 1);

    let baseline = dev.classify_batch(&queries(), 8).unwrap();
    dev.stage_update(&replace_batch(&[7])).unwrap();
    assert_eq!(dev.epoch(), 1, "staging must not bump the epoch");
    dev.abort_update().unwrap();
    assert_eq!(dev.epoch(), 1, "abort must not bump the epoch");
    assert!(!dev.has_staged_update());
    assert_eq!(
        baseline,
        dev.classify_batch(&queries(), 8).unwrap(),
        "abort must leave the serving state untouched"
    );

    dev.stage_update(&replace_batch(&[7])).unwrap();
    let report = dev.commit_update().unwrap();
    assert_eq!(dev.epoch(), 2);
    assert_eq!(report.epoch, 2);
    assert!(matches!(
        dev.commit_update(),
        Err(EcssdError::NoStagedUpdate)
    ));
}

#[test]
fn sustained_updates_recycle_lpns_and_keep_ftl_consistent() {
    let mut dev = device();
    let weights = DenseMatrix::random(ROWS, COLS, 23);
    dev.weight_deploy(&weights).unwrap();
    for round in 0..20 {
        let rows = [round % ROWS, (round * 7 + 3) % ROWS];
        let rows = if rows[0] == rows[1] {
            vec![rows[0]]
        } else {
            rows.to_vec()
        };
        dev.stage_update(&replace_batch(&rows)).unwrap();
        dev.commit_update().unwrap();
    }
    // The FTL never accumulates mapping damage under sustained overwrite.
    assert!(dev.device_mut().ftl().mapping_is_consistent());
    let health = dev.health_report();
    assert!(health.update_programs > 0);
    // The device still classifies and matches a quiesced redeploy of its
    // own final weights? (cheap smoke: it still serves top-k correctly)
    let topk = dev.classify_batch(&queries(), 8).unwrap();
    assert_eq!(topk.len(), queries().len());
}

#[test]
fn add_and_remove_reshape_the_category_set() {
    let mut dev = device();
    let weights = DenseMatrix::random(ROWS, COLS, 29);
    dev.weight_deploy(&weights).unwrap();
    assert_eq!(dev.categories(), ROWS);

    let batch = UpdateBatch::new(COLS)
        .add(hot_row(0.0))
        .unwrap()
        .remove(5)
        .unwrap();
    dev.stage_update(&batch).unwrap();
    let report = dev.commit_update().unwrap();
    assert_eq!(report.rows_added, 1);
    assert_eq!(report.rows_removed, 1);
    // Adds grow the category set; removes tombstone (ids stay dense).
    assert_eq!(dev.categories(), ROWS + 1);

    // The appended row correlates with query(0.0) and must be reachable.
    let topk = dev.classify_batch(&[query(0.0)], 8).unwrap();
    assert!(
        topk[0].iter().any(|s| s.category == ROWS),
        "appended category must be servable"
    );
    // The tombstoned row scores exactly zero, so it cannot win top-1.
    assert_ne!(topk[0][0].category, 5);
}

#[test]
fn inplace_policy_detects_drift_and_restores_exactness() {
    let mut dev = device();
    dev.set_update_policy(UpdatePolicy {
        requant: RequantPolicy::InPlace { max_drift: 1.05 },
    });
    let weights = DenseMatrix::random(ROWS, COLS, 31);
    dev.weight_deploy(&weights).unwrap();

    // A replacement with much larger magnitude blows past the deployed
    // scale and must trip the detector into a full re-quantization.
    let loud: Vec<f32> = query(0.4).iter().map(|v| v * 40.0).collect();
    let batch = UpdateBatch::new(COLS).replace(9, loud.clone()).unwrap();
    let report = dev.stage_update(&batch).unwrap();
    assert_eq!(report.rows_reencoded, 1);
    assert!(
        report.drift_requants >= 1,
        "40x magnitude must trip a 1.05 drift bound"
    );
    dev.commit_update().unwrap();

    // The full re-quantization restored ideal scales, so the device is
    // again bit-identical to a quiesced redeploy.
    let mut final_weights = weights;
    final_weights.row_mut(9).copy_from_slice(&loud);
    let mut reference = device();
    reference.weight_deploy(&final_weights).unwrap();
    assert_eq!(
        dev.classify_batch(&queries(), 8).unwrap(),
        reference.classify_batch(&queries(), 8).unwrap()
    );
}

#[test]
fn malformed_batches_are_rejected_cleanly() {
    let mut dev = device();
    let weights = DenseMatrix::random(ROWS, COLS, 37);
    dev.weight_deploy(&weights).unwrap();
    let baseline = dev.classify_batch(&queries(), 8).unwrap();

    // Out-of-range target fails at stage time, not at commit.
    let bad = UpdateBatch::new(COLS)
        .replace(ROWS + 10, hot_row(0.1))
        .unwrap();
    assert!(matches!(dev.stage_update(&bad), Err(EcssdError::Update(_))));
    assert!(!dev.has_staged_update());

    // Builder-level rejections: wrong dims, non-finite, duplicate target.
    assert!(UpdateBatch::new(COLS)
        .replace(0, vec![1.0; COLS + 1])
        .is_err());
    assert!(UpdateBatch::new(COLS)
        .replace(0, vec![f32::NAN; COLS])
        .is_err());
    assert!(UpdateBatch::new(COLS)
        .replace(0, hot_row(0.0))
        .unwrap()
        .remove(0)
        .is_err());

    assert_eq!(baseline, dev.classify_batch(&queries(), 8).unwrap());
}

/// One batch from `(kind, pick)` draws (0 = add, 1 = replace, 2 =
/// remove); a second op on a touched row is dropped.
fn drawn_batch(ops: &[(u8, u16)]) -> UpdateBatch {
    let mut batch = UpdateBatch::new(COLS);
    let mut targets = BTreeSet::new();
    for &(kind, pick) in ops {
        let target = usize::from(pick) % ROWS;
        batch = match kind {
            0 => batch.add(hot_row(f32::from(pick) * 0.01)),
            _ if !targets.insert(target) => continue,
            1 => batch.replace(target, hot_row(f32::from(pick) * 0.01)),
            _ => batch.remove(target),
        }
        .unwrap();
    }
    batch
}

proptest! {
    /// The write path's flash time, by law, on the tiny geometry (2 dies
    /// a channel, so every rewritten page is its own full parity stripe
    /// and its parity's only legal die is the other die of its channel),
    /// with the journal and the hot-row cache off:
    /// - every die's busy time grows by exactly its data programs plus the
    ///   parity programs of the other die's data pages, times tPROG; so no
    ///   parity program sits on its data page's die or leaves its channel;
    /// - the batch completes, counted from its issue, within the time its
    ///   dies need when they program in parallel: for some die, its
    ///   programs × tPROG plus every page transfer on its channel.
    #[test]
    fn update_writes_program_their_dies_in_parallel(
        ops in prop::collection::vec((0u8..3, any::<u16>()), 1..48),
        seed in any::<u64>(),
    ) {
        let mut dev = device();
        dev.weight_deploy(&DenseMatrix::random(ROWS, COLS, seed)).unwrap();
        let ssd = dev.device();
        let geometry = ssd.config().geometry;
        let timing = *ssd.flash().timing();
        let lpns = ssd.ftl().logical_pages();
        let mapping = |dev: &Ecssd| -> Vec<Option<PhysPageAddr>> {
            (0..lpns).map(|l| dev.device().ftl().translate(l).ok()).collect()
        };
        let mapped_before = mapping(&dev);
        let busy_before = ssd.flash().die_busy_ns().to_vec();

        let report = dev.stage_update(&drawn_batch(&ops)).unwrap();
        let issue = dev.elapsed();
        prop_assert_eq!(report.gc, GcReport::default(), "the draw must not trigger GC");
        prop_assert_eq!(report.parity.page_reads, 0, "2-die stripes are always full");

        // The batch's data pages: every LPN whose mapping it changed.
        let dies = geometry.dies_per_channel;
        prop_assert_eq!(dies, 2);
        let mut data = vec![0u64; geometry.total_dies()];
        for (before, after) in mapped_before.iter().zip(mapping(&dev)) {
            if let Some(page) = after.filter(|&a| Some(a) != *before) {
                data[page.flat_die(&geometry)] += 1;
            }
        }
        prop_assert_eq!(data.iter().sum::<u64>(), report.pages_programmed);
        prop_assert_eq!(report.parity.parity_programs, report.pages_programmed);

        let busy = dev.device().flash().die_busy_ns();
        let mut bound = 0;
        for channel in 0..geometry.channels {
            let die = |d: usize| channel * dies + d;
            // Each data page and its parity cross this channel's bus.
            let transfers = 2 * (data[die(0)] + data[die(1)]);
            for d in 0..dies {
                let programs = data[die(d)] + data[die(1 - d)];
                prop_assert_eq!(
                    busy[die(d)] - busy_before[die(d)],
                    programs * timing.program_latency_ns,
                    "channel {} die {}: data {:?}", channel, d, data
                );
                bound = bound.max(
                    programs * timing.program_latency_ns
                        + transfers * timing.page_transfer_ns(geometry.page_bytes),
                );
            }
        }
        let took = report.staged_at.as_ns() - issue.as_ns();
        prop_assert!(took <= bound, "staged {} ns after issue, bound {} ns", took, bound);
    }
}
