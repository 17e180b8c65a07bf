//! A discrete-event NAND-flash SSD simulator — the substrate ECSSD runs on.
//!
//! The paper evaluates ECSSD with "a simulator that can interface with
//! MQSim" (§6.1). This crate is a from-scratch Rust substrate covering the
//! mechanisms that determine every architecture result in the paper:
//!
//! * **Geometry** (§2.2): channel → package → die → plane → block → page
//!   hierarchy with 4 KB pages ([`SsdGeometry`]).
//! * **Flash timing**: per-die read/program/erase latencies and per-channel
//!   NVDDR3 bus bandwidth (1 GB/s per channel); dies on a channel operate
//!   concurrently, the bus serializes transfers ([`FlashSim`]).
//! * **FTL** (§2.2): logical-to-physical page mapping, write allocation with
//!   pluggable channel policies (the hook the learning-based interleaving
//!   framework uses, §5.3), greedy garbage collection, and wear accounting
//!   ([`Ftl`]).
//! * **DRAM**: a bandwidth/capacity model for the 16 GB device DRAM that
//!   holds the L2P table and — in ECSSD's heterogeneous layout — the INT4
//!   screener weights ([`Dram`]).
//! * **Data buffer**: the MB-level ping-pong buffer fronting the inserted
//!   accelerator ([`PingPongBuffer`]).
//! * **Host interface**: a PCIe 3.0 ×4 link model ([`HostInterface`]).
//! * **Statistics**: per-channel busy accounting and the channel-bandwidth
//!   utilization / imbalance metrics reported in Figs. 8, 11 and 12
//!   ([`ChannelStats`]).
//!
//! Time is modeled in nanoseconds ([`SimTime`]); 1 GB/s is exactly one byte
//! per nanosecond ([`Bandwidth::from_gbps`]).
//!
//! ```
//! use ecssd_ssd::{FlashSim, FlashTiming, PhysPageAddr, SimTime, SsdGeometry};
//!
//! let geometry = SsdGeometry::paper_default();
//! let mut flash = FlashSim::new(geometry, FlashTiming::paper_default());
//! let addr = PhysPageAddr { channel: 0, die: 0, plane: 0, block: 0, page: 0 };
//! let result = flash.read_page(addr, SimTime::ZERO);
//! assert!(result.done > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod dram;
mod error;
mod fault;
mod flash;
mod ftl;
mod geometry;
mod host;
mod journal;
mod ssd;
mod stats;

pub use buffer::PingPongBuffer;
pub use dram::{Dram, HotRowCache, RowPath, RowRead, RowReadScratch};
pub use error::SsdError;
pub use fault::{FaultDecision, FaultInjector, FaultPlan};
pub use flash::{BatchRead, BatchSense, FailedRead, FlashSim, FlashTiming, PageReadResult};
pub use ftl::{AllocationPolicy, Ftl, GcReport, WearReport};
pub use geometry::{PhysPageAddr, SsdGeometry};
pub use host::HostInterface;
pub use journal::{
    JournalConfig, JournalRecord, JournalStats, MetadataJournal, PowerLossInjector, RecoveryReport,
    ReplayCounts, ReplayedState, JOURNAL_RECORD_BYTES,
};
pub use ssd::{SsdConfig, SsdDevice};
pub use stats::{
    CacheStats, ChannelStats, DieWearReport, HealthReport, ImbalanceReport, ScrubReport,
};
// The time and trace primitives live in `ecssd-trace`, the root of the
// dependency graph, so the device model can emit trace spans.
pub use ecssd_trace::{Bandwidth, SimTime, Span, Stage, Tracer};
