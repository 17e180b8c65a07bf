//! Fleet-level guarantees under an open-loop arrival process: seeded
//! determinism (byte-identical reports), epoch-aware routing through a
//! rolling deploy (zero requests served at a stale epoch), and recovery
//! of a crashed replica mid-stream.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ecssd_core::prelude::*;
use ecssd_core::UpdateBatch;
use ecssd_serve::Fleet;
use ecssd_ssd::JournalConfig;
use ecssd_workloads::{OpenLoopArrivals, RateCurve, ZipfPopularity};

const D: usize = 32;
const L: usize = 600;
const K: usize = 5;

fn tiny() -> EcssdConfig {
    EcssdConfig::tiny_builder().build().unwrap()
}

/// The canonical query for a popularity-ranked id: a Zipf head of ids maps
/// to a Zipf head of feature vectors, which is what warms replica caches
/// under affinity routing.
fn query_for(id: u64) -> Vec<f32> {
    (0..D)
        .map(|i| ((i as f32) * 0.17 + id as f32 * 0.61).sin())
        .collect()
}

fn request_for(arrival: &ecssd_workloads::Arrival, ls_fraction: f64) -> Request {
    let class = if arrival.class_draw < ls_fraction {
        QueryClass::LatencySensitive
    } else {
        QueryClass::Batch
    };
    Request::new(query_for(arrival.query_id), K)
        .with_class(class)
        .with_arrival_ns(arrival.at_ns)
}

fn drive(seed: u64, n: usize, qps: f64) -> ecssd_serve::FleetReport {
    let mut fleet = Fleet::builder(tiny())
        .replicas(2)
        .slo(SloTargets {
            latency_sensitive_us: 20_000,
            batch_us: 500_000,
        })
        .build()
        .unwrap();
    fleet.deploy(&DenseMatrix::random(L, D, 0xf1ee7)).unwrap();
    let arrivals = OpenLoopArrivals::new(
        seed,
        RateCurve::Diurnal {
            base_qps: qps,
            amplitude: 0.4,
            period_s: 0.02,
        },
        ZipfPopularity::new(48, 1.1),
    );
    for arrival in arrivals.take(n) {
        let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
    }
    fleet.drain().unwrap();
    fleet.report()
}

/// The whole pipeline — arrival process, routing, admission, engine batch
/// execution — runs in simulated time, so the same seed must produce a
/// byte-identical report (compared through its `Debug` form).
#[test]
fn same_seed_yields_byte_identical_fleet_report() {
    let a = format!("{:?}", drive(1234, 200, 2_000.0));
    let b = format!("{:?}", drive(1234, 200, 2_000.0));
    assert_eq!(a, b);
    // And a different seed actually changes the run.
    let c = format!("{:?}", drive(4321, 200, 2_000.0));
    assert_ne!(a, c);
}

#[test]
fn open_loop_run_accounts_for_every_arrival() {
    let report = drive(7, 300, 2_000.0);
    let total = |c: &ecssd_serve::ClassReport| {
        c.completed + c.shed_queue_full + c.shed_deadline + c.shed_unavailable
    };
    assert_eq!(
        total(&report.latency_sensitive) + total(&report.batch),
        300,
        "every arrival is either completed or shed: {report:?}"
    );
    assert_eq!(report.stale_served, 0);
    assert_eq!(report.mixed_version_batches, 0);
    assert!(report.per_replica.iter().all(|r| r.epoch_lag == 0));
}

/// During a rolling deploy, arrivals keep flowing between per-replica
/// commit steps. Routing must send every one of them to a replica already
/// at the newest epoch: zero stale-served requests, zero mixed-version
/// engine batches, and no epoch lag once the roll completes.
#[test]
fn rolling_deploy_never_serves_from_a_stale_replica() {
    let mut fleet = Fleet::builder(tiny())
        .replicas(3)
        .slo(SloTargets {
            latency_sensitive_us: 1_000_000,
            batch_us: 10_000_000,
        })
        .build()
        .unwrap();
    fleet.deploy(&DenseMatrix::random(L, D, 0xf1ee7)).unwrap();
    let mut arrivals = OpenLoopArrivals::new(
        99,
        RateCurve::Constant { qps: 2_000.0 },
        ZipfPopularity::new(48, 1.1),
    );
    // Warm-up traffic at the old epoch.
    for arrival in arrivals.by_ref().take(60) {
        let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
    }
    fleet.drain().unwrap();
    let epoch_before = fleet.epoch();

    let update = UpdateBatch::new(D).replace(0, query_for(77)).unwrap();
    fleet.rolling_update_begin(update).unwrap();
    loop {
        let more = fleet.rolling_update_step().unwrap();
        // Mid-deploy traffic: some replicas are still at the old epoch.
        for arrival in arrivals.by_ref().take(40) {
            let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
        }
        fleet.drain().unwrap();
        if !more {
            break;
        }
    }

    let report = fleet.report();
    assert!(report.fleet_epoch > epoch_before);
    assert_eq!(report.stale_served, 0, "stale replica served: {report:?}");
    assert_eq!(report.mixed_version_batches, 0);
    assert!(report.per_replica.iter().all(|r| r.epoch_lag == 0));
    // The roll did not stop the fleet: mid-deploy arrivals were served.
    let completed = report.latency_sensitive.completed + report.batch.completed;
    assert!(completed > 60, "only {completed} completed");
}

/// A single-replica crash mid-stream: the survivor keeps serving, the
/// crashed replica recovers from its journal and rejoins at the fleet
/// epoch, and no batch ever mixes weight versions.
#[test]
fn single_replica_crash_recovers_and_rejoins_routing() {
    let mut fleet = Fleet::builder(tiny())
        .replicas(2)
        .journal(JournalConfig::default())
        .slo(SloTargets {
            latency_sensitive_us: 1_000_000,
            batch_us: 10_000_000,
        })
        .queue_limit(1_000)
        .build()
        .unwrap();
    fleet.deploy(&DenseMatrix::random(L, D, 0xf1ee7)).unwrap();
    let mut arrivals = OpenLoopArrivals::new(
        5,
        RateCurve::Constant { qps: 2_000.0 },
        ZipfPopularity::new(48, 1.1),
    );
    for arrival in arrivals.by_ref().take(80) {
        let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
    }
    fleet.drain().unwrap();

    let summary = fleet.crash_replica(1, None).unwrap();
    assert!(summary.shards_consistent);
    assert_eq!(summary.epoch_after, summary.epoch_before);

    for arrival in arrivals.by_ref().take(80) {
        let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
    }
    fleet.drain().unwrap();

    let report = fleet.report();
    assert_eq!(report.stale_served, 0);
    assert_eq!(report.mixed_version_batches, 0);
    // Journaled recovery restored the commit epoch: the replica rejoined.
    assert_eq!(report.per_replica[1].epoch_lag, 0);
    assert!(report.per_replica[1].queries > 0);
    let completed = report.latency_sensitive.completed + report.batch.completed;
    assert!(completed > 0);
}

/// Affinity routing sends the Zipf head back to the replica whose hot-row
/// cache it warmed: with it on, the fleet must read no more candidate rows
/// from flash than with it off.
#[test]
fn affinity_routing_does_not_hurt_the_cache() {
    let run = |affinity: bool| {
        let config = EcssdConfig::tiny_builder()
            .hot_cache_bytes(1 << 20)
            .build()
            .unwrap();
        let mut fleet = Fleet::builder(config)
            .replicas(2)
            .affinity_routing(affinity)
            .slo(SloTargets {
                latency_sensitive_us: 1_000_000,
                batch_us: 10_000_000,
            })
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(L, D, 0xf1ee7)).unwrap();
        let arrivals = OpenLoopArrivals::new(
            13,
            RateCurve::Constant { qps: 1_000.0 },
            ZipfPopularity::new(8, 1.3),
        );
        for arrival in arrivals.take(120) {
            let _ = fleet.offer(request_for(&arrival, 0.5)).unwrap();
        }
        fleet.drain().unwrap();
        let report = fleet.report();
        report
            .per_replica
            .iter()
            .map(|r| r.cache_misses)
            .sum::<u64>()
    };
    let with_affinity = run(true);
    let without = run(false);
    assert!(
        with_affinity <= without,
        "flash row reads: affinity {with_affinity} vs scattered {without}"
    );
}
