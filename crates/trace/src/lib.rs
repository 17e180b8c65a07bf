//! Simulated-time observability for the ECSSD simulator.
//!
//! The paper's headline results are *attribution* claims — §6 argues where
//! time goes inside the device (flash channels at 44 % → 95 % utilization,
//! compute hidden under transfers). This crate provides the lens those
//! claims need:
//!
//! * **Time primitives** ([`SimTime`], [`Bandwidth`], [`Timeline`]) — the
//!   nanosecond clock and the one serialized-resource timeline shared by
//!   every simulator crate (re-exported by `ecssd-ssd` for
//!   compatibility; this crate is the root of the dependency graph so the
//!   device model itself can emit spans).
//! * **Spans and counters** ([`Span`], [`Stage`], [`Tracer`]) — each
//!   instrumented resource records `[start, end)` busy intervals labeled
//!   with a stage and optional shard/channel/die. The default [`Tracer`]
//!   is disabled and costs a single branch per call site.
//! * **Attribution** ([`StageBreakdown`]) — stages overlap by design, so
//!   the breakdown reports raw busy time *and* an exclusive attribution
//!   where every instant is charged to one stage (or idle); the exclusive
//!   side reconciles with end-to-end simulated time by construction.
//! * **Export** ([`chrome_trace_json`]) — a Chrome `trace_event` JSON
//!   array so a full `classify_batch` can be opened in `chrome://tracing`
//!   or Perfetto.
//! * **JSON** ([`json`]) — the workspace's one JSON value, writer and
//!   reader, shared by the Chrome exporter and the result files.
//!
//! ```
//! use ecssd_trace::{SimTime, Span, Stage, StageBreakdown, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.span(Stage::DramTransfer, SimTime::ZERO, SimTime::from_us(2));
//! tracer.span(Stage::Int4Screen, SimTime::from_us(1), SimTime::from_us(4));
//! let b = StageBreakdown::attribute(&tracer.spans(), SimTime::ZERO, SimTime::from_us(5));
//! assert_eq!(b.attributed_total_ns(), b.total_ns); // exact reconciliation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod breakdown;
mod chrome;
pub mod json;
mod percentile;
mod sink;
mod span;
mod time;

pub use breakdown::{StageBreakdown, StageEntry};
pub use chrome::chrome_trace_json;
pub use percentile::{percentile_ns, percentile_us};
pub use sink::{Tracer, DEFAULT_SPAN_CAP};
pub use span::{Span, Stage};
pub use time::{Bandwidth, SimTime, Timeline};
