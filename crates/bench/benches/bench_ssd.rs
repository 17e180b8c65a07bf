//! Criterion micro-benchmarks of the SSD simulator substrate and of the
//! serving device's host path over it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecssd_core::{Ecssd, EcssdConfig};
use ecssd_screen::DenseMatrix;
use ecssd_ssd::{FlashSim, FlashTiming, Ftl, HotRowCache, PhysPageAddr, SimTime, SsdGeometry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn bench_flash_batch(c: &mut Criterion) {
    let geometry = SsdGeometry::paper_default();
    let addrs: Vec<PhysPageAddr> = (0..512u64)
        .map(|i| PhysPageAddr {
            channel: (i % 8) as usize,
            die: ((i / 8) % 8) as usize,
            plane: 0,
            block: (i % 64) as usize,
            page: (i % 2048) as usize,
        })
        .collect();
    c.bench_function("flash_read_batch_512", |b| {
        b.iter(|| {
            let mut flash = FlashSim::new(geometry, FlashTiming::paper_default());
            flash.read_batch_checked(black_box(&addrs), SimTime::ZERO, SimTime::ZERO)
        })
    });
}

fn bench_ftl_writes(c: &mut Criterion) {
    // The tiny geometry exports 1536 logical pages at 25% overprovisioning.
    c.bench_function("ftl_write_1500_lpns", |b| {
        b.iter(|| {
            let mut ftl = Ftl::new(SsdGeometry::tiny(), 0.25);
            for lpn in 0..1500u64 {
                ftl.write(black_box(lpn)).unwrap();
            }
            ftl.mapped_pages()
        })
    });
}

/// The hot-row cache under a serving shard's candidate stream: 64 batches
/// of 8 queries × 410 candidates over 8,192 rows, 60 % of each list from
/// 512 hot rows, replayed as `RowRegion::fetch` drives the cache (look
/// up, insert on a miss) into a cache of 1,024 4 KiB rows. One iteration
/// is the whole replay, 209,920 lookups.
fn bench_hot_cache_replay(c: &mut Criterion) {
    const ROWS: usize = 8192;
    const ROW_BYTES: u64 = 4096;
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let trace: Vec<u64> = (0..64 * 8 * 410)
        .map(|i| {
            let hot = i % 410 < 246;
            rng.gen_range(0..if hot { 512 } else { ROWS }) as u64
        })
        .collect();
    c.bench_function("hot_cache_replay_64x8x410", |b| {
        b.iter(|| {
            let mut cache = HotRowCache::new(1024 * ROW_BYTES);
            for &row in &trace {
                if !cache.lookup(black_box(row)) {
                    cache.insert(row, ROW_BYTES);
                }
            }
            cache.stats()
        })
    });
}

/// The serving device's whole host path at fleet size, as `fleet-open`'s
/// replicas run it: a 600 × 32 model on `EcssdConfig::tiny()` (no hot-row
/// cache, so every candidate is a flash read), batches of 2 queries drawn
/// from 48 fixed inputs, k = 5. One iteration is 48 batches: INT4
/// screening, the candidate-union fetch and CFP32 classification.
fn bench_fleet_device(c: &mut Criterion) {
    let mut device = Ecssd::new(EcssdConfig::tiny());
    device.enable();
    device
        .weight_deploy(&DenseMatrix::random(600, 32, 0xec55d))
        .unwrap();
    let queries: Vec<Vec<f32>> = (0..48)
        .map(|id| {
            (0..32)
                .map(|i| (i as f32 * 0.17 + id as f32 * 0.61).sin())
                .collect()
        })
        .collect();
    let batches: Vec<Vec<Vec<f32>>> = (0..48)
        .map(|b| vec![queries[b].clone(), queries[(b * 7 + 13) % 48].clone()])
        .collect();
    c.bench_function("fleet_device_600x32_48x2", |b| {
        b.iter(|| {
            for batch in &batches {
                black_box(device.classify_batch(black_box(batch), 5).unwrap());
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_flash_batch, bench_ftl_writes, bench_hot_cache_replay, bench_fleet_device
}
criterion_main!(benches);
