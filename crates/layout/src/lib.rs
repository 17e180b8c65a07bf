//! Weight-row data layout over flash channels (paper §5).
//!
//! After approximate screening, only a sparse, skewed subset of FP32 weight
//! rows is fetched per tile. How rows are distributed over the SSD's flash
//! channels therefore decides channel-level bandwidth utilization:
//!
//! * [`InterleavingStrategy::Sequential`] (§5.1) — rows stored contiguously;
//!   a tile's candidates live in one channel, the other seven idle.
//! * [`InterleavingStrategy::Uniform`] (§5.2, Fig. 6) — rows striped
//!   round-robin; all channels work, but the discrete, skewed candidate
//!   pattern leaves them imbalanced ("the final data access time is decided
//!   by the busiest flash channel").
//! * [`InterleavingStrategy::Learned`] (§5.3, Fig. 7) — rows are graded
//!   *very hot / medium hot / not hot* from the |INT4| magnitude signal,
//!   fine-tuned by candidate frequencies observed on a training trace, and
//!   dealt across channels so every channel carries the same expected load.
//!
//! The framework emits per-tile [`TileLayout`]s (row → channel), and that
//! is the one rule for which channel holds a row of the paper's machine:
//! the machine places each row's pages on its `TileLayout` channel
//! directly (`ecssd_ssd::PhysPageAddr::of_row_page`). The serving device's
//! FTL takes no part in the choice; it only stripes (`lpn % channels`).
//!
//! Above the device, [`ShardMap`] decides which device holds which rows
//! when a layer is partitioned over several ECSSDs (§7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod grade;
mod metrics;
mod parity;
mod shard;
mod strategy;

pub use grade::{grade_rows, GradeConfig, HotGrade};
pub use metrics::channel_loads;
pub use parity::ParityScheme;
pub use shard::ShardMap;
pub use strategy::{InterleavingStrategy, LearnedConfig, RowAccessProfile, TileLayout};
