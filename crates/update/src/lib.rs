//! Online model-update subsystem for the ECSSD reproduction.
//!
//! ECSSD deploys the FP32 classifier into NAND and the INT4 screener into
//! SSD DRAM once, but production extreme-classification label sets churn
//! continuously. This crate provides the pieces every layer of the stack
//! shares to ingest weight updates *while serving*:
//!
//! - [`UpdateBatch`] / [`UpdateOp`] — the host-facing API: an atomic batch
//!   of add / replace / remove category-row mutations, validated at build
//!   time and splittable along a serving-shard partition.
//! - [`UpdatePolicy`] / [`RequantPolicy`] / [`ScaleDriftDetector`] — how
//!   touched INT4 screener rows are re-quantized: `Exact` (fresh per-row
//!   scale, bitwise identical to a full rebuild) or `InPlace` (deployed
//!   scale kept; a sticky drift detector forces a full shard
//!   re-quantization once the grid degrades past a bound).
//! - [`ParityRefreshModel`] — the RAID-5 read-modify-write of the stripes
//!   an update touches, at the physical addresses it reads and programs.
//! - [`UpdateReport`] — flash-operation and simulated-time accounting of
//!   an applied batch.
//!
//! The *mechanics* live in the layers themselves: `ecssd-core` stages
//! batches through the FTL write path (program and GC traffic contend
//! with query reads in the flash timing model), and `ecssd-serve`
//! hot-swaps staged versions at an epoch boundary with no dropped or
//! mixed-version queries.

mod batch;
mod parity;
mod policy;
mod report;

pub use batch::{UpdateBatch, UpdateOp};
pub use parity::{ParityRefreshCost, ParityRefreshModel, StripeRefresh};
pub use policy::{RequantPolicy, ScaleDriftDetector, UpdatePolicy};
pub use report::UpdateReport;

/// Errors raised while building or validating an update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// A row had the wrong number of weight columns.
    DimensionMismatch {
        /// Columns the batch was created with.
        expected: usize,
        /// Columns the offending row carried.
        got: usize,
    },
    /// A weight value was NaN or infinite.
    NonFiniteWeight,
    /// Two ops in one batch target the same row; batches are atomic, so
    /// the second op's intent would be ambiguous.
    DuplicateTarget {
        /// The doubly-targeted row.
        row: usize,
    },
    /// A replace/remove target does not exist in the deployed model.
    RowOutOfRange {
        /// The offending target.
        row: usize,
        /// Deployed row count.
        rows: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DimensionMismatch { expected, got } => {
                write!(f, "update row has {got} columns, model has {expected}")
            }
            UpdateError::NonFiniteWeight => write!(f, "update row contains a non-finite weight"),
            UpdateError::DuplicateTarget { row } => {
                write!(f, "row {row} is targeted twice in one batch")
            }
            UpdateError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} outside the deployed model ({rows} rows)")
            }
        }
    }
}

impl std::error::Error for UpdateError {}
