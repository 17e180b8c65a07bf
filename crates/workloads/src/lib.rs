//! Benchmarks and candidate traces for ECSSD experiments.
//!
//! The paper evaluates on seven extreme-classification benchmarks (Table 3),
//! from GNMT-E32K (32 K categories) to XMLCNN-S100M (100 M categories). The
//! architecture experiments consume two things from a benchmark:
//!
//! 1. its **dimensions** — category count `L`, hidden size `D`, projected
//!    size `K = D/4` — which set all data-transfer volumes, and
//! 2. the **per-tile distribution of candidate rows** selected by the
//!    approximate screener, which determines flash-channel load balance.
//!
//! For the small benchmarks (`L ≤ 670K`) we generate synthetic weights with
//! planted hot-cluster structure and run the *real* screening algorithm
//! ([`ComputedWorkload`]). For the 10M–100M synthetic benchmarks the paper
//! itself uses synthetic datasets; materializing a 400 GB weight matrix is
//! pointless when only the access pattern reaches the simulator, so
//! [`SampledWorkload`] draws candidate sets directly from a seeded
//! clustered-Zipf hotness model — the explicit knob behind the paper's
//! implicit skew (see DESIGN.md §2).
//!
//! Beyond classification, [`EmbeddingTableTrace`] re-parameterizes the same
//! sampler as a RecSSD-style embedding-gather workload: seeded multi-hot
//! lookups into an embedding table, for exercising the task-generic
//! in-storage substrate with a second task.
//!
//! ```
//! use ecssd_workloads::{Benchmark, CandidateSource, SampledWorkload, TraceConfig};
//!
//! let bench = Benchmark::suite()[0]; // GNMT-E32K
//! let mut workload = SampledWorkload::new(bench, TraceConfig::paper_default());
//! let candidates = workload.candidates(0, 0); // query 0, tile 0
//! assert!(!candidates.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod benchmark;
mod computed;
mod gather;
mod hotness;
mod trace;

pub use arrivals::{Arrival, OpenLoopArrivals, RateCurve, ZipfPopularity};
pub use benchmark::Benchmark;
pub use computed::ComputedWorkload;
pub use gather::{EmbeddingTableTrace, GatherTraceConfig};
pub use hotness::{HotnessModel, PredictorModel};
pub use trace::{CandidateSource, SampledWorkload, TraceConfig, TRAINING_QUERY_BASE};
