//! Baseline architectures for the ECSSD evaluation (§6.7, Fig. 13; §7.2;
//! §7.3).
//!
//! Eight end-to-end baselines are modeled analytically on the same workload
//! dimensions the [`ecssd_core::EcssdMachine`] simulates, each with its
//! binding resource explicit:
//!
//! | Arch | Data path | Typical bound |
//! |---|---|---|
//! | CPU-N | SSD → host over PCIe, full FP32 matrix per batch | host storage I/O |
//! | CPU-AP | screener in host DRAM, candidate rows via 4 KB random reads | random-read IOPS |
//! | GenStore-N | per-channel naive FP32 accelerators, full stream | per-channel compute |
//! | GenStore-AP | + SSD-level INT4 screener, uniform striping, homogeneous | per-channel compute × imbalance |
//! | SmartSSD-N | SSD → FPGA over a 3 GB/s PCIe switch, full stream | P2P link |
//! | SmartSSD-AP | + screening on FPGA, random candidate reads over the switch | P2P link (random) |
//! | SmartSSD-H-N/AP | same with a hypothetical 6 GB/s switch | P2P link |
//!
//! Every effective-bandwidth constant is documented at its definition in
//! [`BaselineParams`]; see DESIGN.md §3/§6 for the calibration rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod enmc;
pub mod genstore;
pub mod gpu;
mod model;

pub use enmc::EnmcMachine;
pub use genstore::{GenStoreMachine, GenStoreReport, GenStoreVariant};
pub use model::{BaselineArch, BaselineParams};
