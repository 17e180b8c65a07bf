//! The serving device's clock checked by law: every
//! [`Ecssd::classify_batch`] charges exactly the stage work its batch
//! implies, on the tiny geometry, over random batch sizes, top-`k`,
//! candidate ratios and hot-row cache sizes.

use std::collections::BTreeSet;

use ecssd_screen::{DenseMatrix, ThresholdPolicy};
use ecssd_ssd::{HostInterface, SimTime};
use ecssd_trace::{Stage, StageBreakdown, Tracer};
use proptest::prelude::*;

use crate::{ComputeEngine, Ecssd, EcssdConfig};

const COLS: usize = 64;

fn input(pick: u16, i: usize) -> Vec<f32> {
    let phase = f32::from(pick) * 0.37 + i as f32 * 1.3;
    (0..COLS)
        .map(|j| ((j as f32) * 0.13 + phase).sin())
        .collect()
}

/// The busy time `ComputeEngine::compute` charges for `ops`.
fn engine_ns(engine: &ComputeEngine, ops: u64) -> u64 {
    if ops == 0 {
        return 0;
    }
    ((ops as f64 / engine.rate_gops()).ceil() as u64).max(1)
}

/// Every counter a batch moves.
#[derive(Debug, Clone)]
struct Counters {
    clock: u64,
    int4_ops: u64,
    int4_busy: u64,
    fp32_ops: u64,
    fp32_busy: u64,
    host_bytes: u64,
    host_busy: u64,
    dram_bytes: u64,
    dram_busy: u64,
    hits: u64,
    die_busy: Vec<u64>,
    bus_busy: Vec<u64>,
}

fn counters(dev: &Ecssd) -> Counters {
    let ssd = dev.device();
    Counters {
        clock: dev.elapsed().as_ns(),
        int4_ops: dev.accel.int4.ops_done(),
        int4_busy: dev.accel.int4.busy_ns(),
        fp32_ops: dev.accel.fp32.ops_done(),
        fp32_busy: dev.accel.fp32.busy_ns(),
        host_bytes: ssd.host().bytes_moved(),
        host_busy: ssd.host().busy_ns(),
        dram_bytes: ssd.dram().bytes_moved(),
        dram_busy: ssd.dram().busy_ns(),
        hits: dev.cache_stats().hits,
        die_busy: ssd.flash().die_busy_ns(),
        bus_busy: ssd.flash().channel_stats().busy_ns().to_vec(),
    }
}

proptest! {
    #[test]
    fn a_batch_charges_exactly_its_stage_work(
        rows in 64usize..512,
        seed in any::<u64>(),
        cache_kib in prop_oneof![Just(0u64), 4u64..128],
        ratio in 0.01f64..1.0,
        batches in prop::collection::vec((1usize..9, 1usize..9, any::<u16>()), 1..5),
    ) {
        let config = EcssdConfig::tiny_builder()
            .hot_cache_bytes(cache_kib << 10)
            .build()
            .unwrap();
        let mut dev = Ecssd::new(config);
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(rows, COLS, seed)).unwrap();
        dev.filter_threshold(ThresholdPolicy::TopRatio(ratio)).unwrap();
        let screener = dev.screener.as_ref().unwrap();
        let k_proj = screener.projected_dim() as u64;
        let int4_bytes = screener.weights4().storage_bytes() as u64;
        let row_bytes =
            dev.rows.weights.pages * dev.device().config().geometry.page_bytes as u64;
        let d = COLS as u64;
        for &(n, k, pick) in &batches {
            let inputs: Vec<Vec<f32>> = (0..n).map(|i| input(pick, i)).collect();
            let lists = dev
                .screener
                .as_ref()
                .unwrap()
                .screen_batch(&inputs, dev.threshold)
                .unwrap();
            let pairs: u64 = lists.iter().map(|l| l.len() as u64).sum();
            let distinct: BTreeSet<usize> = lists.iter().flatten().copied().collect();
            prop_assert!(pairs > 0 && !distinct.is_empty());
            let tracer = Tracer::enabled();
            dev.set_tracer(tracer.clone());
            let before = counters(&dev);
            let top_k = dev.classify_batch(&inputs, k).unwrap();
            let after = counters(&dev);
            let n = n as u64;

            // INT4 screening: 2·k·L·n ops on the INT4 engine.
            let int4_ops = 2 * k_proj * rows as u64 * n;
            prop_assert_eq!(after.int4_ops - before.int4_ops, int4_ops);
            prop_assert_eq!(
                after.int4_busy - before.int4_busy,
                engine_ns(&dev.accel.int4, int4_ops)
            );
            // CFP32 classification: 2·d flops per (input, candidate) pair.
            let flops = 2 * d * pairs;
            prop_assert_eq!(after.fp32_ops - before.fp32_ops, flops);
            prop_assert_eq!(
                after.fp32_busy - before.fp32_busy,
                engine_ns(&dev.accel.fp32, flops)
            );
            // Host link: one feature upload, then 8 bytes per top-k entry,
            // each one transfer on the device's PCIe 3.0 x4 link.
            let returned: u64 = top_k.iter().map(|t| t.len() as u64).sum();
            let upload = n * (4 * d + 1) + n * k_proj.div_ceil(2);
            prop_assert_eq!(after.host_bytes - before.host_bytes, upload + 8 * returned);
            let mut link = HostInterface::pcie3_x4();
            link.transfer(upload, SimTime::ZERO);
            link.transfer(8 * returned, SimTime::ZERO);
            prop_assert_eq!(after.host_busy - before.host_busy, link.busy_ns());
            // DRAM: one INT4 stream, plus every hit row streamed from the
            // hot-row cache.
            let hits = after.hits - before.hits;
            prop_assert!(hits <= distinct.len() as u64);
            prop_assert_eq!(
                after.dram_bytes - before.dram_bytes,
                int4_bytes + hits * row_bytes
            );
            // No resource is busy longer than the batch took.
            let elapsed = after.clock - before.clock;
            let mut busy = vec![
                after.int4_busy - before.int4_busy,
                after.fp32_busy - before.fp32_busy,
                after.host_busy - before.host_busy,
                after.dram_busy - before.dram_busy,
            ];
            busy.extend(after.die_busy.iter().zip(&before.die_busy).map(|(a, b)| a - b));
            busy.extend(after.bus_busy.iter().zip(&before.bus_busy).map(|(a, b)| a - b));
            prop_assert!(busy.iter().all(|&b| b <= elapsed), "{busy:?} > {elapsed}");
            // The traced stages explain the batch, compute included.
            let b = StageBreakdown::attribute(
                &tracer.spans(),
                SimTime::from_ns(before.clock),
                dev.elapsed(),
            );
            prop_assert_eq!(b.total_ns, elapsed);
            prop_assert!(b.reconciles(0.0));
            // One stage hands over to the next: the device never idles.
            prop_assert_eq!(b.idle_ns, 0);
            for stage in [Stage::Int4Screen, Stage::CandidateSelect, Stage::Fp32Mac] {
                let attributed = b
                    .entries
                    .iter()
                    .find(|e| e.stage == stage)
                    .map_or(0, |e| e.attributed_ns);
                prop_assert!(attributed > 0, "{stage:?} has no share: {b:?}");
            }
        }
    }
}
