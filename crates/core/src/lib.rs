//! The ECSSD machine: the paper's primary contribution assembled on top of
//! the substrates.
//!
//! ECSSD (ISCA '23) inserts a dual-precision accelerator next to the data
//! buffer of a conventional SSD and co-designs three things around the
//! approximate screening algorithm:
//!
//! 1. an **alignment-free FP32 MAC** datapath fed with CFP32 operands
//!    (`ecssd-float`), lifting in-SSD FP throughput from 29.2 to 50 GFLOPS
//!    within the 0.21 mm² area budget,
//! 2. a **heterogeneous data layout** — INT4 screener weights in device
//!    DRAM, FP32 weight rows in NAND — removing 4-bit/32-bit transfer
//!    interference ([`DataPlacement`]),
//! 3. **learning-based adaptive interleaving** of FP32 rows over flash
//!    channels (`ecssd-layout`), lifting channel bandwidth utilization to
//!    ~95 %.
//!
//! [`EcssdMachine`] is the cycle-approximate performance model driving the
//! `ecssd-ssd` discrete-event substrate; [`Ecssd`] is the functional
//! host-facing device with the Table-1 API; [`roofline`] and [`scale`]
//! reproduce the paper's analytical figures.
//!
//! ```
//! use ecssd_core::{EcssdConfig, EcssdMachine, MachineVariant};
//! use ecssd_workloads::{Benchmark, SampledWorkload, TraceConfig};
//!
//! let bench = Benchmark::by_abbrev("GNMT-E32K").unwrap();
//! let workload = SampledWorkload::new(bench, TraceConfig::paper_default());
//! let mut machine = EcssdMachine::new(
//!     EcssdConfig::paper_default(),
//!     MachineVariant::paper_ecssd(),
//!     Box::new(workload),
//! )
//! .expect("INT4 matrix fits device DRAM");
//! let report = machine.run(2).expect("no faults injected"); // two query batches
//! assert!(report.makespan.as_ns() > 0);
//! assert!(report.fp_channel_utilization > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod accelerator;
mod api;
mod classifier;
mod config;
mod delta;
#[cfg(test)]
mod device_law;
mod energy;
mod host;
mod integration;
mod parallel;
mod pipeline;
mod recovery;
mod request;
pub mod roofline;
mod rows;
pub mod scale;
mod update;

pub use accelerator::{classify_flops, int4_screen_ops, ComputeEngine};
pub use api::{Ecssd, EcssdError, EcssdMode};
pub use classifier::{merge_shard_topk, sort_scores, split_batches, Classifier, ClassifierStats};
pub use config::{AcceleratorConfig, ConfigError, EcssdConfig, EcssdConfigBuilder};
pub use ecssd_layout::ShardMap;
pub use ecssd_update::{
    RequantPolicy, ScaleDriftDetector, UpdateBatch, UpdateError, UpdateOp, UpdatePolicy,
    UpdateReport,
};
pub use energy::{EnergyModel, EnergyReport};
pub use host::{ArrivalSchedule, HostCoordinator, ServiceReport};
pub use integration::ClassifierLayer;
pub use parallel::run_shards;
pub use pipeline::{
    run_tile_loop, DataPlacement, DegradationPolicy, EcssdMachine, MachineVariant, RowSelection,
    RunReport, SchedulePlan, TaskKind, TilePhase, TileTask, TileTiming,
};
pub use recovery::RecoveryOutcome;
pub use request::{QueryClass, RejectReason, Request, SloTargets};

/// One-stop imports for writing against the unified frontend API: the
/// [`Classifier`] trait, the frontends that implement it, the validating
/// config builder, and the screen-layer types that appear in its signatures.
///
/// ```
/// use ecssd_core::prelude::*;
///
/// # fn main() -> Result<(), EcssdError> {
/// let config = EcssdConfig::tiny_builder().build()?;
/// let mut device = Ecssd::new(config);
/// device.enable();
/// device.deploy(&DenseMatrix::random(256, 64, 42))?;
/// let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
/// let top = device.classify_batch(&[x], 5)?;
/// assert_eq!(top[0].len(), 5);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::{
        Classifier, ClassifierStats, ConfigError, Ecssd, EcssdConfig, EcssdConfigBuilder,
        EcssdError, EcssdMode, QueryClass, RejectReason, Request, SloTargets,
    };
    pub use ecssd_screen::{DenseMatrix, Score, ThresholdPolicy};
    pub use ecssd_ssd::{CacheStats, SimTime};
}
