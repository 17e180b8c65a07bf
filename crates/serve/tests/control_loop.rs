//! The adaptive control plane at the serving layer: an attached-but-inert
//! controller is bit-identical to no controller at all, identically-seeded
//! feedback controllers replay the same action sequence, and
//! controller-driven re-interleaving commits on batch boundaries without
//! ever producing a mixed-version batch.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ecssd_control::{
    ControlAction, Controller, DriftConfig, EstimatorConfig, SloFeedbackConfig, SloFeedbackControl,
    StaticControl, TelemetryFrame,
};
use ecssd_core::prelude::*;
use ecssd_screen::ThresholdPolicy;
use ecssd_serve::{ServeEngine, ServeReport};

const ROWS: usize = 600;
const COLS: usize = 32;
const SHARDS: usize = 3;

fn tiny() -> EcssdConfig {
    EcssdConfig::tiny_builder().build().unwrap()
}

fn weights() -> DenseMatrix {
    DenseMatrix::random(ROWS, COLS, 71)
}

/// A query that screens close to weight row `row`: a scaled copy with a
/// deterministic per-element perturbation, so its candidate set (and
/// therefore the row-access histogram) concentrates around that row.
fn near_row(weights: &DenseMatrix, row: usize, jitter: f32) -> Vec<f32> {
    weights
        .row(row)
        .iter()
        .enumerate()
        .map(|(i, &w)| w + (i as f32 * 0.7 + jitter).sin() * 0.05)
        .collect()
}

#[test]
fn attached_static_controller_is_bit_identical_to_none() {
    let weights = weights();
    let queries: Vec<Vec<f32>> = (0..24)
        .map(|q| near_row(&weights, q * 20, q as f32))
        .collect();

    let mut plain = ServeEngine::builder(tiny()).shards(SHARDS).build().unwrap();
    let mut controlled = ServeEngine::builder(tiny())
        .shards(SHARDS)
        .controller(StaticControl)
        .build()
        .unwrap();
    plain.deploy(&weights).unwrap();
    controlled.deploy(&weights).unwrap();

    for chunk in queries.chunks(6) {
        let a = plain.classify_batch(chunk, 5).unwrap();
        let b = controlled.classify_batch(chunk, 5).unwrap();
        assert_eq!(a, b, "answers must not depend on an inert controller");
        // Tick every window: StaticControl observes and does nothing.
        let actions = controlled.control_tick().unwrap();
        assert!(actions.is_empty());
    }

    assert!(controlled.control_log().is_empty());
    assert_eq!(
        plain.report(),
        controlled.report(),
        "telemetry collection must not perturb the simulated metrics"
    );
}

#[test]
fn identically_seeded_adaptive_controllers_act_identically() {
    // An unreachable p99 target forces the feedback loop to act (tighten
    // the batch policy) every over-streak, on both engines identically.
    let config = SloFeedbackConfig {
        p99_target_us: 1.0,
        over_streak: 1,
        ..SloFeedbackConfig::default()
    };
    let weights = weights();
    let queries: Vec<Vec<f32>> = (0..30)
        .map(|q| near_row(&weights, q * 17, q as f32))
        .collect();

    let run = |cfg: SloFeedbackConfig| -> (Vec<(u64, ControlAction)>, ServeReport) {
        let mut engine = ServeEngine::builder(tiny())
            .shards(SHARDS)
            .controller(SloFeedbackControl::new(cfg))
            .build()
            .unwrap();
        engine.deploy(&weights).unwrap();
        for chunk in queries.chunks(6) {
            engine.classify_batch(chunk, 5).unwrap();
            engine.control_tick().unwrap();
        }
        (engine.control_log().to_vec(), engine.report())
    };

    let (log_a, report_a) = run(config);
    let (log_b, report_b) = run(config);
    assert!(!log_a.is_empty(), "the over-SLO loop must have acted");
    assert_eq!(log_a, log_b, "same seed + telemetry ⇒ same action sequence");
    assert_eq!(report_a, report_b);
}

#[test]
fn fleet_runs_one_controller_per_replica() {
    use ecssd_serve::Fleet;
    use ecssd_workloads::{OpenLoopArrivals, RateCurve, ZipfPopularity};

    // Same unreachable target as above, so every replica's controller
    // acts as soon as it sees traffic.
    let config = SloFeedbackConfig {
        p99_target_us: 1.0,
        over_streak: 1,
        ..SloFeedbackConfig::default()
    };
    let weights = weights();
    let mut fleet = Fleet::builder(tiny())
        .replicas(2)
        .controller(move || SloFeedbackControl::new(config))
        .build()
        .unwrap();
    fleet.deploy(&weights).unwrap();

    let arrivals = OpenLoopArrivals::new(
        7,
        RateCurve::Constant { qps: 4_000.0 },
        ZipfPopularity::new(48, 1.1),
    );
    for arrival in arrivals.take(40) {
        let q = near_row(&weights, (arrival.query_id as usize * 13) % ROWS, 0.0);
        let _ = fleet
            .offer(Request::new(q, 5).with_arrival_ns(arrival.at_ns))
            .unwrap();
    }
    fleet.drain().unwrap();
    let actions = fleet.control_tick().unwrap();
    assert_eq!(actions.len(), 2, "one action list per replica");
    assert!(
        actions.iter().any(|a| !a.is_empty()),
        "at least one replica's controller must have acted"
    );

    // The fleet still serves, and no controller action broke atomicity.
    let _ = fleet
        .offer(Request::new(near_row(&weights, 0, 0.0), 5))
        .unwrap();
    fleet.drain().unwrap();
    let report = fleet.report();
    assert_eq!(report.mixed_version_batches, 0);
}

/// Sets one-query batches on every tick.
struct OneQueryBatches;

impl Controller for OneQueryBatches {
    fn name(&self) -> &'static str {
        "one-query-batches"
    }

    fn observe(&mut self, _: &TelemetryFrame) -> Vec<ControlAction> {
        vec![ControlAction::SetPolicy {
            max_batch: 1,
            max_wait_us: 400,
        }]
    }
}

#[test]
fn fleet_controller_set_policy_cuts_replica_queues() {
    use ecssd_serve::{Fleet, FleetReport};
    use ecssd_workloads::{OpenLoopArrivals, RateCurve, ZipfPopularity};

    let weights = weights();
    // Budgets far above the device time: admission sheds nothing.
    let mut fleet = Fleet::builder(tiny())
        .replicas(2)
        .slo(SloTargets {
            latency_sensitive_us: 1_000_000,
            batch_us: 10_000_000,
        })
        .controller(|| OneQueryBatches)
        .build()
        .unwrap();
    fleet.deploy(&weights).unwrap();
    // Arrivals 250 µs apart on average, inside the default 400 µs window,
    // so the default policy batches them.
    let mut arrivals = OpenLoopArrivals::new(
        7,
        RateCurve::Constant { qps: 4_000.0 },
        ZipfPopularity::new(48, 1.1),
    );
    let mut offer = |fleet: &mut Fleet, n: usize| -> FleetReport {
        for arrival in arrivals.by_ref().take(n) {
            let q = near_row(&weights, (arrival.query_id as usize * 13) % ROWS, 0.0);
            let _ = fleet
                .offer(Request::new(q, 5).with_arrival_ns(arrival.at_ns))
                .unwrap();
        }
        fleet.drain().unwrap();
        fleet.report()
    };

    let before = offer(&mut fleet, 64);
    assert!(
        before.per_replica.iter().any(|r| r.queries > r.batches),
        "the default policy must batch: {:?}",
        before.per_replica
    );
    let actions = fleet.control_tick().unwrap();
    assert!(actions.iter().all(|a| a.len() == 1));

    let after = offer(&mut fleet, 64);
    for (b, a) in before.per_replica.iter().zip(&after.per_replica) {
        let queries = a.queries - b.queries;
        assert_eq!(
            queries,
            a.batches - b.batches,
            "SetPolicy {{ max_batch: 1 }} must cut one-query batches"
        );
        assert!(queries > 0, "every replica serves after the tick");
    }
}

#[test]
fn drift_recovery_reinterleaves_without_mixed_version_batches() {
    // Small groups + a hair-trigger detector so one hot-set rotation is
    // enough; a sane p99 target keeps the batch-policy loop quiet.
    let config = SloFeedbackConfig {
        p99_target_us: 1e9,
        estimator: EstimatorConfig {
            group_rows: 64,
            ..EstimatorConfig::default()
        },
        drift: DriftConfig {
            threshold: 0.3,
            persistence: 1,
            cooldown: 2,
        },
        ..SloFeedbackConfig::default()
    };
    let weights = weights();
    let mut engine = ServeEngine::builder(tiny())
        .shards(SHARDS)
        .filter_threshold(ThresholdPolicy::TopRatio(0.05))
        .controller(SloFeedbackControl::new(config))
        .build()
        .unwrap();
    engine.deploy(&weights).unwrap();

    let drive = |engine: &mut ServeEngine, hot: usize, windows: usize| {
        for w in 0..windows {
            let chunk: Vec<Vec<f32>> = (0..6)
                .map(|q| near_row(&weights, hot + q, (w * 6 + q) as f32))
                .collect();
            engine.classify_batch(&chunk, 5).unwrap();
            engine.control_tick().unwrap();
        }
    };

    let epoch_before = engine.epoch();
    drive(&mut engine, 10, 3); // settle on hot set A
    drive(&mut engine, 520, 3); // rotate to hot set B → drift fires

    let reinterleaves = engine
        .control_log()
        .iter()
        .filter(|(_, a)| matches!(a, ControlAction::Reinterleave { .. }))
        .count();
    assert!(reinterleaves >= 1, "drift must trigger a re-interleave");
    assert!(
        engine.epoch() > epoch_before,
        "re-interleave commits through the update path (epoch bumps)"
    );
    let report = engine.report();
    assert_eq!(report.mixed_version_batches, 0);

    // Same-value re-placement: answers stay correct afterwards.
    let after = engine
        .classify_batch(&[near_row(&weights, 520, 0.0)], 5)
        .unwrap();
    assert_eq!(after[0].len(), 5);
}
