//! The serving layer: a sharded batched engine, a validating builder, and
//! a fleet of replicated engine groups behind an SLO-aware load balancer.
//!
//! Three levels, bottom up:
//!
//! 1. [`ServeEngine`] — `N` simulated ECSSD devices stepped by one
//!    synchronous shard executor (`ecssd_core::run_shards`): requests are
//!    split into device batches by `ecssd_core::split_batches` under a
//!    [`ServePolicy`] (in simulated time), every shard runs the full
//!    screening + CFP32 pipeline on its slice of the matrix in parallel,
//!    and the merged global top-k answers are bit-identical to a single
//!    device holding the whole matrix. Every call returns once all shards
//!    finished, so commits, crashes and control actions land between
//!    batches. Construct with [`ServeEngine::builder`]. (The embedding-gather
//!    model is studied on the timing machine,
//!    `ecssd_core::EcssdMachine::run_gather_window`.)
//! 2. [`ServeEngineBuilder`] — one validating builder: shards, policy,
//!    tracing, journal, cache sizing and SLO targets in one place.
//! 3. [`Fleet`] — `R` replicated engine groups behind a load balancer fed
//!    by an open-loop arrival process (`ecssd_workloads::OpenLoopArrivals`):
//!    per-class QoS (latency-sensitive vs batch), deadline-aware admission
//!    control and load shedding under overload, cache-hotness-affine and
//!    update-epoch-aware replica routing, rolling deploys via staged
//!    per-replica commits, and per-replica crash recovery. [`FleetReport`]
//!    extends the engine metrics with per-class goodput, SLO-violation
//!    rate, shed counts and per-replica utilization/epoch-lag.
//!
//! Queries are typed [`ecssd_core::Request`]s carrying QoS class, deadline
//! and arrival time; `(Vec<f32>, usize)` converts for positional
//! back-compat.
//!
//! ```
//! use ecssd_core::prelude::*;
//! use ecssd_serve::ServeEngine;
//!
//! # fn main() -> Result<(), EcssdError> {
//! let config = EcssdConfig::tiny_builder().build()?;
//! let mut engine = ServeEngine::builder(config).shards(2).build()?;
//! engine.deploy(&DenseMatrix::random(600, 32, 7))?;
//! let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin()).collect();
//! let top = engine.classify_batch(&[x], 5)?;
//! assert_eq!(top[0].len(), 5);
//! assert!(engine.report().queries >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod builder;
mod engine;
mod fleet;

pub use builder::ServeEngineBuilder;
// Control-plane vocabulary re-exported so engine/fleet callers can attach
// controllers without a direct `ecssd-control` dependency.
pub use ecssd_control::{ControlAction, Controller, TelemetryFrame};
pub use engine::{
    BatchOutcome, PendingBatch, RecoverySummary, ServeEngine, ServePolicy, ServeReport,
};
pub use fleet::{
    AdmissionControl, ClassReport, Fleet, FleetBuilder, FleetPolicy, FleetReport, ReplicaReport,
};
