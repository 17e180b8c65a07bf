//! The fleet checked by law, over random operation sequences on a
//! journaled 2-replica fleet with one shard per replica: offers with
//! random gaps, classes and top-`k`, drains, rolling-update begins and
//! steps, replica crashes, and control ticks whose controllers retune each
//! replica's batch policy. After every operation no stale or
//! mixed-version batch has been served, each replica's utilization is
//! exactly its engine's device time over the fleet's span, and no engine
//! batch outgrew its replica's policy; after every full drain each
//! offered request was either answered or shed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ecssd_control::{ControlAction, Controller, TelemetryFrame};
use ecssd_core::{Classifier, EcssdConfig, EcssdError, QueryClass, Request, UpdateBatch};
use ecssd_screen::DenseMatrix;
use ecssd_ssd::JournalConfig;
use proptest::prelude::*;

use super::{ClassReport, Fleet};
use crate::ServePolicy;

const ROWS: usize = 400;
const COLS: usize = 32;
const REPLICAS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Op {
    Offer {
        gap_us: u64,
        batch_class: bool,
        k: usize,
        pick: u16,
    },
    Drain,
    UpdateBegin(u16),
    UpdateStep,
    Crash(usize),
    /// `(max_batch, max_wait_us)` each replica's controller sets.
    Tick([(usize, u64); REPLICAS]),
}

fn op() -> impl Strategy<Value = Op> {
    let policy = || (1usize..10, 0u64..800);
    prop_oneof![
        12 => (0u64..500, any::<bool>(), prop_oneof![Just(3usize), Just(5usize)], any::<u16>())
            .prop_map(|(gap_us, batch_class, k, pick)| Op::Offer { gap_us, batch_class, k, pick }),
        1 => Just(Op::Drain),
        1 => any::<u16>().prop_map(Op::UpdateBegin),
        1 => Just(Op::UpdateStep),
        1 => (0usize..REPLICAS).prop_map(Op::Crash),
        2 => (policy(), policy()).prop_map(|(a, b)| Op::Tick([a, b])),
    ]
}

/// Sets, on every tick, the batch policy the test planned for its replica.
struct Planned {
    replica: usize,
    plan: Arc<Mutex<[ServePolicy; REPLICAS]>>,
}

impl Controller for Planned {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn observe(&mut self, _: &TelemetryFrame) -> Vec<ControlAction> {
        let policy = self.plan.lock().unwrap()[self.replica];
        vec![ControlAction::SetPolicy {
            max_batch: policy.max_batch,
            max_wait_us: policy.max_wait_us,
        }]
    }
}

fn features(pick: u16) -> Vec<f32> {
    (0..COLS)
        .map(|i| ((i as f32) * 0.13 + f32::from(pick) * 0.37).sin())
        .collect()
}

fn shed(class: &ClassReport) -> u64 {
    class.shed_queue_full + class.shed_deadline + class.shed_unavailable
}

proptest! {
    #[test]
    fn fleet_laws_hold_over_random_operations(ops in prop::collection::vec(op(), 1..32)) {
        let plan = Arc::new(Mutex::new([Fleet::DEFAULT_POLICY; REPLICAS]));
        let next_replica = Arc::new(AtomicUsize::new(0));
        let factory_plan = Arc::clone(&plan);
        let mut fleet = Fleet::builder(EcssdConfig::tiny_builder().build().unwrap())
            .replicas(REPLICAS)
            .journal(JournalConfig::default())
            .controller(move || Planned {
                replica: next_replica.fetch_add(1, Ordering::Relaxed),
                plan: Arc::clone(&factory_plan),
            })
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(ROWS, COLS, 11)).unwrap();
        let deployed_ns: Vec<u64> = fleet
            .engines
            .iter()
            .map(|e| Classifier::elapsed(e).as_ns())
            .collect();
        let mut updating = false;
        for &op in &ops {
            let policies: Vec<ServePolicy> = fleet.engines.iter().map(|e| e.policy()).collect();
            let before: Vec<_> = fleet.engines.iter().map(Classifier::stats).collect();
            // Whether the operation flushed every replica queue.
            let drained = match op {
                Op::Offer { gap_us, batch_class, k, pick } => {
                    let class = if batch_class {
                        QueryClass::Batch
                    } else {
                        QueryClass::LatencySensitive
                    };
                    let request = Request::new(features(pick), k)
                        .with_class(class)
                        .with_arrival_ns(fleet.now_ns() + gap_us * 1_000);
                    fleet.offer(request).unwrap();
                    false
                }
                Op::Drain => {
                    fleet.drain().unwrap();
                    true
                }
                Op::UpdateBegin(pick) => {
                    let batch = UpdateBatch::new(COLS)
                        .replace(usize::from(pick) % ROWS, features(pick))
                        .unwrap();
                    let begun = fleet.rolling_update_begin(batch);
                    if updating {
                        prop_assert!(matches!(begun, Err(EcssdError::RollingUpdateInProgress)));
                    } else {
                        begun.unwrap();
                        updating = true;
                    }
                    false
                }
                Op::UpdateStep => match fleet.rolling_update_step() {
                    Ok(more) => {
                        prop_assert!(updating);
                        updating = more;
                        true
                    }
                    Err(EcssdError::NoRollingUpdate) => {
                        prop_assert!(!updating);
                        false
                    }
                    Err(e) => panic!("rolling update step failed: {e}"),
                },
                Op::Crash(replica) => {
                    let summary = fleet.crash_replica(replica, None).unwrap();
                    prop_assert!(summary.shards_consistent);
                    false
                }
                Op::Tick(planned) => {
                    *plan.lock().unwrap() = planned.map(|(max_batch, max_wait_us)| ServePolicy {
                        max_batch,
                        max_wait_us,
                    });
                    fleet.control_tick().unwrap();
                    for (engine, (max_batch, max_wait_us)) in fleet.engines.iter().zip(planned) {
                        prop_assert_eq!(engine.policy(), ServePolicy { max_batch, max_wait_us });
                    }
                    true
                }
            };

            let report = fleet.report();
            prop_assert_eq!(report.stale_served, 0);
            prop_assert_eq!(report.mixed_version_batches, 0);
            if drained {
                for class in [&report.latency_sensitive, &report.batch] {
                    prop_assert_eq!(class.arrived, class.completed + shed(class), "{:?}", class);
                }
            }
            for (r, replica) in report.per_replica.iter().enumerate() {
                // Occupancy: every batch, update, control action and
                // recovery the engine's clock advanced by is busy time.
                let advance = Classifier::elapsed(&fleet.engines[r]).as_ns() - deployed_ns[r];
                let expected = if report.sim_elapsed_ns == 0 {
                    0.0
                } else {
                    advance as f64 / report.sim_elapsed_ns as f64
                };
                prop_assert_eq!(replica.utilization.to_bits(), expected.to_bits(), "replica {}", r);
                prop_assert!(replica.utilization <= 1.0);
                // Batches this operation ran were cut under the policy in
                // force before it (a tick drains before it retunes).
                let queries = replica.queries - before[r].queries;
                let batches = replica.batches - before[r].batches;
                prop_assert!(
                    queries <= batches * policies[r].max_batch as u64,
                    "replica {} ran {} queries in {} batches under {:?}",
                    r,
                    queries,
                    batches,
                    policies[r]
                );
            }
        }
    }
}
