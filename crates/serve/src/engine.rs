//! The sharded batched serving engine: `N` simulated ECSSD devices stepped
//! by one synchronous shard executor.
//!
//! [`ServeEngine`] partitions a deployed weight matrix into contiguous row
//! shards — one per simulated [`Ecssd`] device the engine owns — and
//! serves classification queries end to end:
//!
//! 1. requests arrive through [`Classifier::classify_batch`],
//!    [`ServeEngine::classify_requests`] or the pre-formed-batch
//!    [`ServeEngine::submit_formed`];
//! 2. [`split_batches`] forms device batches under the [`ServePolicy`]: a
//!    batch closes at `max_batch` requests, on a change of `k`, or — for
//!    requests stamped with `arrival_ns` — once a request arrives more than
//!    `max_wait_us` of *simulated* time after the batch's first request. A
//!    pre-formed batch runs as one unit, which is what lets the fleet layer
//!    form its own batches in simulated time;
//! 3. [`run_shards`] steps every shard device through the full screening +
//!    CFP32 pipeline on its slice of the matrix, on parallel host threads
//!    (shards share no simulated state, so this moves no simulated
//!    timestamp);
//! 4. the per-shard top-k lists are merged in shard order into global
//!    top-k predictions (bit-identical to a single device holding the whole
//!    matrix, see [`ecssd_core::sort_scores`]), and per-request deadlines
//!    are enforced: an answer that completes past its simulated deadline is
//!    dropped and surfaced as a typed [`EcssdError::Rejected`].
//!
//! Every public method is a plain call that returns once every shard has
//! finished. A commit, a crash-and-recover cycle, a policy retune or a
//! control action therefore always falls between two batches, so no batch
//! can mix weight versions ([`ServeReport::mixed_version_batches`] stays 0
//! by construction and is kept as an audit), and the same call sequence
//! yields the same [`ServeReport`] on every run.

use ecssd_control::{cache_window, ControlAction, Controller, TelemetryFrame};
use ecssd_core::{
    merge_shard_topk, run_shards, split_batches, Classifier, ClassifierStats, Ecssd, EcssdConfig,
    EcssdError, EcssdMode, RejectReason, Request, ShardMap, SloTargets, UpdateBatch, UpdateError,
    UpdateReport,
};
use ecssd_screen::{DenseMatrix, Score, ThresholdPolicy};
use ecssd_ssd::{CacheStats, JournalConfig, SimTime};
use ecssd_trace::{percentile_us, StageBreakdown, Tracer};

/// Batch-formation policy for [`ServeEngine::classify_batch`] and
/// [`ServeEngine::classify_requests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Close a batch once it holds this many queries.
    pub max_batch: usize,
    /// Close a batch once a request arrives more than this many simulated
    /// µs after the batch's first request (only requests stamped with
    /// `arrival_ns` are split on time).
    pub max_wait_us: u64,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            max_batch: 8,
            max_wait_us: 200,
        }
    }
}

/// Serving metrics snapshot: latency percentiles, sustained throughput in
/// simulated time, per-shard utilization, merged cache counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Shards (devices).
    pub shards: usize,
    /// Queries answered.
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Median per-query *simulated* latency, µs (a query's latency is the
    /// slowest shard's simulated time for its batch — shards run in
    /// parallel).
    pub p50_us: f64,
    /// 95th-percentile per-query simulated latency, µs.
    pub p95_us: f64,
    /// 99th-percentile per-query simulated latency, µs.
    pub p99_us: f64,
    /// Simulated time of the slowest shard (shards run in parallel).
    pub sim_elapsed: SimTime,
    /// Sustained throughput: queries per simulated second of the slowest
    /// shard.
    pub sim_queries_per_sec: f64,
    /// Per-shard utilization: each shard's busy serving time (simulated
    /// time spent executing batches, deployment excluded) relative to the
    /// busiest shard (1.0 = critical path).
    pub shard_utilization: Vec<f64>,
    /// Hot candidate-row cache counters, merged over shards.
    pub cache: CacheStats,
    /// Per-stage simulated-time attribution merged over shards (serving
    /// only, deployment excluded). `Some` iff the engine was built with
    /// tracing enabled ([`crate::ServeEngineBuilder::tracing`]).
    pub breakdown: Option<StageBreakdown>,
    /// Deployment version the shards serve (max over shards; every deploy
    /// or committed update bumps it).
    pub epoch: u64,
    /// Batches whose shard answers carried differing epochs. Commits run
    /// between batch calls, so this is 0 by construction; it stays as an
    /// audit that the update-study smoke run asserts.
    pub mixed_version_batches: u64,
    /// Submissions shed at a queue limit. Always 0: the engine runs every
    /// batch synchronously and has no queue to fill — shedding at a queue
    /// limit is the fleet's job ([`crate::FleetBuilder::queue_limit`]).
    /// Kept so existing report consumers stay unchanged.
    pub shed_queue_full: u64,
    /// Served queries whose answer completed past their simulated deadline
    /// and was dropped ([`EcssdError::Rejected`] with
    /// [`RejectReason::DeadlineExceeded`]).
    pub rejected_deadline: u64,
}

/// Fleet-wide outcome of one [`ServeEngine::crash_and_recover`] cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Highest serving epoch across shards at the instant of the crash.
    pub epoch_before: u64,
    /// Epoch every shard serves after recovery — the minimum the
    /// independent shard recoveries agreed on, never ahead of
    /// `epoch_before`.
    pub epoch_after: u64,
    /// Durably committed rows lost across shards (0 for a working
    /// journal).
    pub rows_lost: u64,
    /// Journal records replayed, summed over shards.
    pub replayed_records: u64,
    /// Slowest shard's simulated recovery time, ns (shards recover in
    /// parallel).
    pub recovery_ns_max: u64,
    /// Whether every shard's replayed mapping passed its consistency
    /// cross-check.
    pub shards_consistent: bool,
    /// Shards that needed the phase-2 rollback because their independent
    /// recovery landed ahead of the fleet minimum.
    pub rolled_back_shards: usize,
}

/// A pre-formed batch's merged answers (returned by
/// [`ServeEngine::submit_formed`]). The engine runs the batch before
/// `submit_formed` returns, so the handle holds an already-resolved
/// outcome.
#[derive(Debug)]
pub struct PendingBatch {
    outcome: Result<BatchOutcome, EcssdError>,
}

/// The merged outcome of one pre-formed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One top-`k` list per request, in submission order.
    pub results: Vec<Vec<Score>>,
    /// The batch's simulated device latency: the slowest shard's time for
    /// the round trip (shards run in parallel).
    pub sim_ns: u64,
    /// Deployment version the batch was served at.
    pub epoch: u64,
}

impl PendingBatch {
    /// Hands over the batch's outcome.
    ///
    /// # Errors
    ///
    /// The first per-query failure wins: [`EcssdError::Rejected`] for a
    /// deadline miss, or the shard device's own typed error for a pipeline
    /// failure.
    pub fn wait(self) -> Result<BatchOutcome, EcssdError> {
        self.outcome
    }
}

/// One shard: a device the engine owns plus its serving bookkeeping.
#[derive(Debug)]
struct Shard {
    device: Ecssd,
    /// Device clock at the end of the last deployment — serving spans and
    /// utilization are measured past this point.
    serve_start: SimTime,
    /// Simulated time spent executing batches (busy serving time;
    /// deployment excluded).
    busy_ns: u64,
}

impl Shard {
    fn elapsed(&self) -> SimTime {
        Classifier::elapsed(&self.device)
    }

    /// Runs one serving operation and charges the simulated time it took
    /// as busy time (a failed operation still consumed device time).
    fn timed<T>(
        &mut self,
        op: impl FnOnce(&mut Ecssd) -> Result<T, EcssdError>,
    ) -> Result<(T, u64), EcssdError> {
        let before = self.elapsed().as_ns();
        let outcome = op(&mut self.device);
        let sim_ns = self.elapsed().as_ns().saturating_sub(before);
        self.busy_ns += sim_ns;
        outcome.map(|value| (value, sim_ns))
    }
}

fn busy_relative(shards: &[Shard]) -> Vec<f64> {
    let busy_max = shards.iter().map(|s| s.busy_ns).max().unwrap_or(0);
    shards
        .iter()
        .map(|s| {
            if busy_max == 0 {
                0.0
            } else {
                s.busy_ns as f64 / busy_max as f64
            }
        })
        .collect()
}

/// Knobs the [`crate::ServeEngineBuilder`] resolves before building the
/// engine.
#[derive(Default)]
pub(crate) struct EngineOptions {
    pub(crate) tracer: Option<Tracer>,
    pub(crate) slo: Option<SloTargets>,
    pub(crate) controller: Option<Box<dyn Controller>>,
}

/// The sharded batched serving engine (see the module docs for the
/// execution model). Implements [`Classifier`], so it is a drop-in for a
/// single [`Ecssd`]; with an unbounded [`ServePolicy`] every call is one
/// device batch.
pub struct ServeEngine {
    shards: Vec<Shard>,
    enabled: bool,
    /// Which shard holds which weight rows; `None` until deployment.
    weight_map: Option<ShardMap>,
    /// Root span-trace handle shared by every shard device; `Some` iff the
    /// engine was built with tracing enabled.
    tracer: Option<Tracer>,
    /// Default per-class deadlines stamped onto typed requests that carry
    /// none.
    slo: Option<SloTargets>,
    /// Batch-formation policy currently in force.
    policy: ServePolicy,
    /// Per-query simulated latency, ns, in answer order.
    sim_latencies_ns: Vec<u64>,
    queries: u64,
    batches: u64,
    mixed_version_batches: u64,
    rejected_deadline: u64,
    /// The attached control policy. `None` means no control plane: no
    /// telemetry is ever collected and serving is byte-identical to an
    /// engine built without one.
    controller: Option<Box<dyn Controller>>,
    /// Every applied control action, tagged with its window index.
    control_log: Vec<(u64, ControlAction)>,
    /// Next control-window index.
    control_window: u64,
    /// Cumulative per-shard cache counters at the last tick (window
    /// deltas are computed against these).
    control_prev_cache: Vec<CacheStats>,
    /// Latency samples already consumed by previous ticks.
    control_prev_latency: usize,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("shards", &self.shards.len())
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    pub(crate) fn build(
        config: EcssdConfig,
        shards: usize,
        policy: ServePolicy,
        opts: EngineOptions,
    ) -> Result<Self, EcssdError> {
        if shards == 0 {
            return Err(EcssdError::NoShards);
        }
        if policy.max_batch == 0 {
            return Err(EcssdError::ZeroMaxBatch);
        }
        config.validate()?;
        let tracer = opts.tracer;
        let shards = (0..shards)
            .map(|i| {
                let mut device = Ecssd::new(config.clone());
                device.enable();
                if let Some(t) = &tracer {
                    device.set_tracer(t.for_shard(i as u32));
                }
                Shard {
                    device,
                    serve_start: SimTime::ZERO,
                    busy_ns: 0,
                }
            })
            .collect::<Vec<_>>();
        let n = shards.len();
        Ok(ServeEngine {
            shards,
            enabled: true,
            weight_map: None,
            tracer,
            slo: opts.slo,
            policy,
            sim_latencies_ns: Vec::new(),
            queries: 0,
            batches: 0,
            mixed_version_batches: 0,
            rejected_deadline: 0,
            controller: opts.controller,
            control_log: Vec::new(),
            control_window: 0,
            control_prev_cache: vec![CacheStats::default(); n],
            control_prev_latency: 0,
        })
    }

    /// The engine's span-trace handle (`None` unless built with tracing
    /// enabled).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn count(&self, key: &'static str, n: u64) {
        if let Some(t) = &self.tracer {
            t.count(key, n);
        }
    }

    /// Per-shard hot-row cache counters (index = shard).
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.device.cache_stats()).collect()
    }

    /// Shard (device) count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Re-enables serving after [`ServeEngine::disable`].
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Takes the engine out of accelerator mode: classification calls fail
    /// with [`EcssdError::WrongMode`] until re-enabled.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    fn require_enabled(&self) -> Result<(), EcssdError> {
        if self.enabled {
            Ok(())
        } else {
            Err(EcssdError::WrongMode {
                current: EcssdMode::Ssd,
            })
        }
    }

    /// The deployed weight partition.
    fn require_deployed(&self) -> Result<&ShardMap, EcssdError> {
        self.require_enabled()?;
        self.weight_map.as_ref().ok_or(EcssdError::NoWeights)
    }

    /// The balanced split of `rows` rows over the shards.
    fn partition(&self, rows: usize) -> Result<ShardMap, EcssdError> {
        let shards = self.shards.len();
        ShardMap::even(rows, shards).ok_or(EcssdError::TooFewRows { rows, shards })
    }

    /// Partitions `weights` into contiguous row shards and deploys one per
    /// shard device.
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled, [`EcssdError::TooFewRows`]
    /// for fewer rows than shards, and the lowest-indexed shard's typed
    /// deployment error (no shard is considered deployed after a failure).
    pub fn deploy(&mut self, weights: &DenseMatrix) -> Result<(), EcssdError> {
        self.require_enabled()?;
        let map = self.partition(weights.rows())?;
        self.weight_map = None;
        run_shards(&mut self.shards, |i, shard| {
            let outcome = shard.device.weight_deploy_rows(weights, map.span(i));
            shard.serve_start = shard.elapsed();
            outcome
        })?;
        self.weight_map = Some(map);
        Ok(())
    }

    /// Sets the screening threshold on every shard.
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled; the lowest-indexed
    /// shard's typed error.
    pub fn filter_threshold(&mut self, policy: ThresholdPolicy) -> Result<(), EcssdError> {
        self.require_enabled()?;
        run_shards(&mut self.shards, |_, shard| {
            shard.device.filter_threshold(policy)
        })?;
        Ok(())
    }

    fn check_ready(&self, inputs_len: usize, k: usize) -> Result<(), EcssdError> {
        let categories = self.require_deployed()?.rows();
        if inputs_len == 0 {
            return Err(EcssdError::NoInputs);
        }
        if k > categories {
            return Err(EcssdError::KExceedsCategories { k, categories });
        }
        Ok(())
    }

    /// Runs one device batch on every shard and merges the answers:
    /// returns the global top-`k` lists, the batch's simulated latency
    /// (slowest shard) and the epoch it was served at.
    fn execute(
        &mut self,
        inputs: &[Vec<f32>],
        k: usize,
    ) -> Result<(Vec<Vec<Score>>, u64, u64), EcssdError> {
        self.count("serve.batches_formed", 1);
        self.count("serve.batch_queries", inputs.len() as u64);
        let per_shard = run_shards(&mut self.shards, |_, shard| {
            let rows = shard.device.categories();
            let (top, sim_ns) = shard.timed(|device| device.classify_batch(inputs, k.min(rows)))?;
            Ok::<_, EcssdError>((top, sim_ns, shard.device.epoch()))
        })?;
        let sim_ns = per_shard.iter().map(|p| p.1).max().unwrap_or(0);
        let epoch_lo = per_shard.iter().map(|p| p.2).min().unwrap_or(0);
        let epoch = per_shard.iter().map(|p| p.2).max().unwrap_or(0);
        if epoch_lo != epoch {
            self.mixed_version_batches += 1;
            self.count("serve.mixed_version_batches", 1);
        }
        let map = self.weight_map.as_ref().ok_or(EcssdError::NoWeights)?;
        let lists = per_shard.into_iter().map(|(lists, _, _)| lists);
        let merged = merge_shard_topk(map, lists, inputs.len(), k);
        // A query's simulated latency is its batch's: the slowest shard's
        // device time for the round trip (shards run in parallel).
        let n = inputs.len();
        self.batches += 1;
        self.queries += n as u64;
        self.sim_latencies_ns.extend(std::iter::repeat_n(sim_ns, n));
        self.count("serve.queries_merged", n as u64);
        Ok((merged, sim_ns, epoch))
    }

    /// Runs one batch of typed requests sharing one `k` and enforces each
    /// request's simulated deadline (its own, or the engine's per-class
    /// [`SloTargets`] default): the batch consumes device time either way,
    /// but a late answer is dropped as [`RejectReason::DeadlineExceeded`].
    fn serve_batch(&mut self, requests: Vec<Request>) -> Result<BatchOutcome, EcssdError> {
        let k = requests.first().map_or(0, |r| r.k);
        let mut deadlines = Vec::with_capacity(requests.len());
        let mut inputs = Vec::with_capacity(requests.len());
        for r in requests {
            let slo = self.slo.map(|slo| slo.deadline_us(r.class));
            deadlines.push((r.class, r.deadline_us.or(slo)));
            inputs.push(r.features);
        }
        let (results, sim_ns, epoch) = self.execute(&inputs, k)?;
        let mut rejection = None;
        for (class, deadline_us) in deadlines {
            if deadline_us.is_some_and(|d| sim_ns > d.saturating_mul(1_000)) {
                self.rejected_deadline += 1;
                self.count("serve.rejected_deadline", 1);
                rejection.get_or_insert(EcssdError::Rejected {
                    class,
                    reason: RejectReason::DeadlineExceeded,
                });
            }
        }
        match rejection {
            Some(e) => Err(e),
            None => Ok(BatchOutcome {
                results,
                sim_ns,
                epoch,
            }),
        }
    }

    /// The device batches `requests` split into under the current policy.
    fn batch_spans(&self, requests: &[Request]) -> Vec<std::ops::Range<usize>> {
        let max_wait_ns = self.policy.max_wait_us.saturating_mul(1_000);
        split_batches(requests, self.policy.max_batch, max_wait_ns)
    }

    /// Runs a pre-formed batch as one device batch: it is never split or
    /// merged with other requests, whatever the [`ServePolicy`]. This is
    /// the path the fleet layer uses, forming its own batches in simulated
    /// time. A batch run before a [`ServeEngine::commit_update`] is served
    /// entirely at the old epoch, one run after it entirely at the new.
    ///
    /// # Errors
    ///
    /// Same readiness contract as [`Classifier::classify_batch`]; all
    /// requests must share one `k` ([`EcssdError::MixedK`] otherwise).
    /// Deadline misses and shard failures resolve through
    /// [`PendingBatch::wait`].
    pub fn submit_formed(&mut self, requests: Vec<Request>) -> Result<PendingBatch, EcssdError> {
        let k = requests.first().map_or(0, |r| r.k);
        self.check_ready(requests.len(), k)?;
        if let Some(r) = requests.iter().find(|r| r.k != k) {
            return Err(EcssdError::MixedK {
                expected: k,
                found: r.k,
            });
        }
        Ok(PendingBatch {
            outcome: self.serve_batch(requests),
        })
    }

    /// Classifies a batch of inputs, split into device batches of at most
    /// `max_batch` queries. Every input is served: this positional path
    /// carries no deadlines.
    ///
    /// # Errors
    ///
    /// The [`Classifier`] contract ([`EcssdError::WrongMode`] /
    /// [`EcssdError::NoWeights`] / [`EcssdError::NoInputs`] /
    /// [`EcssdError::KExceedsCategories`]); shard pipeline failures as the
    /// lowest-indexed shard's typed error.
    pub fn classify_batch(
        &mut self,
        inputs: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<Vec<Score>>, EcssdError> {
        self.check_ready(inputs.len(), k)?;
        // The batcher only reads `k` and arrival stamps, so the split runs
        // on feature-less requests and the batches borrow `inputs`.
        let shapes: Vec<Request> = inputs.iter().map(|_| Request::new(Vec::new(), k)).collect();
        let mut out = Vec::with_capacity(inputs.len());
        for span in self.batch_spans(&shapes) {
            out.extend(self.execute(&inputs[span], k)?.0);
        }
        Ok(out)
    }

    /// Classifies typed requests in submission order. Requests are split
    /// into device batches by [`split_batches`] under the current
    /// [`ServePolicy`] (a `k` change, `max_batch`, or an arrival gap longer
    /// than `max_wait_us` closes a batch), and each request's deadline is
    /// enforced as in [`ServeEngine::submit_formed`].
    ///
    /// # Errors
    ///
    /// The [`Classifier`] contract; [`EcssdError::Rejected`] for the first
    /// deadline miss; shard pipeline failures as the lowest-indexed
    /// shard's typed error. A failing batch has already run on the
    /// devices; later batches of the call do not run.
    pub fn classify_requests(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Vec<Score>>, EcssdError> {
        let k_max = requests.iter().map(|r| r.k).max().unwrap_or(0);
        self.check_ready(requests.len(), k_max)?;
        let mut out = Vec::with_capacity(requests.len());
        for span in self.batch_spans(requests) {
            out.extend(self.serve_batch(requests[span].to_vec())?.results);
        }
        Ok(out)
    }

    /// Splits `batch` along the shard partition and stages each slice as
    /// version N+1 on its shard device. Serving continues at version N
    /// throughout; the staging program/GC traffic contends with query
    /// reads on each shard's flash timelines. Stage repeatedly to stack
    /// batches, then [`ServeEngine::commit_update`] to make them visible.
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled, [`EcssdError::NoWeights`]
    /// before deployment, [`EcssdError::Update`] for a malformed batch,
    /// and the lowest-indexed shard's typed error.
    pub fn stage_update(&mut self, batch: &UpdateBatch) -> Result<UpdateReport, EcssdError> {
        // Every shard stages — even an empty slice — so the commit bumps
        // every device epoch in lockstep.
        let slices = batch
            .split_by_shards(self.require_deployed()?)
            .map_err(EcssdError::Update)?;
        let reports = run_shards(&mut self.shards, |i, shard| {
            shard.device.stage_update(&slices[i])
        })?;
        Ok(merge_reports(&reports))
    }

    /// Swaps the staged version in on every shard. The call returns only
    /// after every shard committed, and batches run only inside other
    /// calls, so batches before the commit read version N on all shards,
    /// batches after it read N+1 on all shards, and none sees a mix (see
    /// [`ServeReport::mixed_version_batches`]).
    ///
    /// Shard row counts grow by the committed `Add` ops (appends land on
    /// the last shard, so existing global category ids never shift).
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled, [`EcssdError::NoWeights`]
    /// before deployment, [`EcssdError::NoStagedUpdate`] with nothing
    /// staged, and the lowest-indexed shard's typed error.
    pub fn commit_update(&mut self) -> Result<UpdateReport, EcssdError> {
        self.require_deployed()?;
        let reports = run_shards(&mut self.shards, |_, shard| shard.device.commit_update())?;
        let added: u64 = reports.iter().map(|r| r.rows_added).sum();
        if let Some(map) = &mut self.weight_map {
            map.grow_last(added as usize);
        }
        Ok(merge_reports(&reports))
    }

    /// Drops the staged version on every shard; serving state and epoch
    /// are untouched.
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled; [`EcssdError::NoStagedUpdate`]
    /// with nothing staged, and the lowest-indexed shard's typed error.
    pub fn abort_update(&mut self) -> Result<(), EcssdError> {
        self.require_enabled()?;
        run_shards(&mut self.shards, |_, shard| shard.device.abort_update())?;
        Ok(())
    }

    /// Enables FTL metadata journaling on every shard device. Each shard
    /// seals its current serving state as the journal's initial
    /// checkpoint; from here on deploys and committed updates are
    /// recoverable via [`ServeEngine::crash_and_recover`].
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled.
    pub fn enable_journal(&mut self, config: JournalConfig) -> Result<(), EcssdError> {
        self.require_enabled()?;
        for shard in &mut self.shards {
            shard.device.enable_journal(config);
        }
        Ok(())
    }

    /// Injects a power cut on every shard at the given journal instant and
    /// recovers the engine. The crash falls between two batch calls on
    /// every shard; each shard replays its own journal independently, and
    /// shards whose recovery landed ahead of the minimum are rolled back
    /// to it ([`Ecssd::recover_to`]) so serving resumes at one epoch —
    /// never ahead of the last commit every shard had durably journaled.
    ///
    /// # Errors
    ///
    /// [`EcssdError::WrongMode`] while disabled; the lowest-indexed
    /// shard's typed recovery error (e.g. [`EcssdError::NoRecoverySource`]
    /// without a journal); [`EcssdError::RecoveredAhead`] if the recovered
    /// epoch somehow exceeded the pre-crash epoch (an invariant breach).
    pub fn crash_and_recover(
        &mut self,
        survived: Option<u64>,
    ) -> Result<RecoverySummary, EcssdError> {
        self.require_enabled()?;
        // Phase 1: crash + independent recovery on every shard.
        let mut outcomes = run_shards(&mut self.shards, |_, shard| {
            shard.device.power_cut(survived);
            shard.device.recover()
        })?;
        // Phase 2: shards ahead of the minimum roll back to it.
        let floor = outcomes
            .iter()
            .map(|o| o.recovered_epoch)
            .min()
            .unwrap_or(0);
        let rollbacks = run_shards(&mut self.shards, |i, shard| {
            if outcomes[i].recovered_epoch == floor {
                return Ok(None);
            }
            shard.device.recover_to(floor).map(Some)
        })?;
        let mut rolled_back = 0usize;
        for (outcome, rollback) in outcomes.iter_mut().zip(rollbacks) {
            if let Some(r) = rollback {
                outcome.recovered_epoch = r.recovered_epoch;
                outcome.rows_lost += r.rows_lost;
                outcome.mapping_consistent &= r.mapping_consistent;
                rolled_back += 1;
            }
        }
        let summary = RecoverySummary {
            epoch_before: outcomes
                .iter()
                .map(|o| o.epoch_before_crash)
                .max()
                .unwrap_or(0),
            epoch_after: floor,
            rows_lost: outcomes.iter().map(|o| o.rows_lost).sum(),
            replayed_records: outcomes.iter().map(|o| o.replayed_records).sum(),
            recovery_ns_max: outcomes.iter().map(|o| o.recovery_ns).max().unwrap_or(0),
            shards_consistent: outcomes.iter().all(|o| o.mapping_consistent),
            rolled_back_shards: rolled_back,
        };
        if summary.epoch_after > summary.epoch_before {
            return Err(EcssdError::RecoveredAhead {
                recovered: summary.epoch_after,
                before: summary.epoch_before,
            });
        }
        Ok(summary)
    }

    /// The deployment version the shards serve (max over shards; commits
    /// keep them in lockstep).
    pub fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.device.epoch())
            .max()
            .unwrap_or(0)
    }

    /// The batch-formation policy currently in force.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// Replaces the batch-formation policy; every later batch forms under
    /// the new one. Batches form inside a single call, so no batch ever
    /// forms under mixed knobs.
    ///
    /// # Errors
    ///
    /// A zero `max_batch` surfaces as [`EcssdError::ZeroMaxBatch`].
    pub fn set_policy(&mut self, policy: ServePolicy) -> Result<(), EcssdError> {
        if policy.max_batch == 0 {
            return Err(EcssdError::ZeroMaxBatch);
        }
        self.count("serve.policy_retunes", 1);
        self.policy = policy;
        Ok(())
    }

    /// Sets every shard's hot-row cache capacity (bytes; 0 disables).
    /// Shrinking evicts down in LRU order immediately.
    ///
    /// # Errors
    ///
    /// The lowest-indexed shard's typed error (e.g. DRAM budget
    /// exhausted).
    pub fn set_cache_capacity(&mut self, bytes: u64) -> Result<(), EcssdError> {
        run_shards(&mut self.shards, |_, shard| {
            shard.device.set_cache_capacity(bytes)
        })?;
        Ok(())
    }

    /// Re-places the given global rows through the online update path:
    /// each shard stages a same-value replace of its slice (the program/GC
    /// traffic contends with query reads on the flash timelines), then one
    /// commit swaps every shard between the same two batches — so
    /// re-interleaving never produces a mixed-version batch.
    ///
    /// # Errors
    ///
    /// [`EcssdError::NoWeights`] before deployment, an out-of-range row as
    /// [`UpdateError::RowOutOfRange`], and the lowest-indexed shard's typed
    /// error.
    pub fn reinterleave(&mut self, rows: &[u64]) -> Result<UpdateReport, EcssdError> {
        let map = self.weight_map.as_ref().ok_or(EcssdError::NoWeights)?;
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for &row in rows {
            let row = usize::try_from(row).unwrap_or(usize::MAX);
            let (shard, local) = map.locate(row).ok_or(UpdateError::RowOutOfRange {
                row,
                rows: map.rows(),
            })?;
            per_shard[shard].push(local as u64);
        }
        // Every shard stages — even an empty slice — so the commit bumps
        // every device epoch in lockstep.
        let reports = run_shards(&mut self.shards, |i, shard| {
            shard.device.reinterleave_stage(&per_shard[i])
        })?;
        Ok(merge_reports(&reports).merge(&self.commit_update()?))
    }

    /// Fail-fasts a detected-dead die on one shard's device.
    ///
    /// # Errors
    ///
    /// An unknown shard as [`EcssdError::NoSuchShard`].
    pub fn retire_die(
        &mut self,
        shard: usize,
        channel: usize,
        die: usize,
    ) -> Result<(), EcssdError> {
        let shards = self.shards.len();
        let target = self
            .shards
            .get_mut(shard)
            .ok_or(EcssdError::NoSuchShard { shard, shards })?;
        target.device.retire_die(channel, die);
        Ok(())
    }

    /// Every control action applied so far, tagged with its window index.
    pub fn control_log(&self) -> &[(u64, ControlAction)] {
        &self.control_log
    }

    /// Runs one control-loop iteration: snapshots a [`TelemetryFrame`]
    /// from the per-shard counters (cache/latency fields are deltas since
    /// the previous tick), hands it to the attached controller, and
    /// applies every returned action through the engine's actuation
    /// surfaces. A no-op returning an empty list when no controller is
    /// attached.
    ///
    /// The window covers every batch run since the previous tick, and the
    /// actions run between two batches like any other call, so a tick can
    /// never produce a mixed-version or mixed-policy batch.
    ///
    /// # Errors
    ///
    /// Actuation failures, as the typed error of the failing call.
    pub fn control_tick(&mut self) -> Result<Vec<ControlAction>, EcssdError> {
        let Some(mut controller) = self.controller.take() else {
            return Ok(Vec::new());
        };
        let frame = self.telemetry_frame();
        let actions = controller.observe(&frame);
        self.controller = Some(controller);
        for action in &actions {
            match action {
                ControlAction::ResizeCache { bytes } => self.set_cache_capacity(*bytes)?,
                ControlAction::SetPolicy {
                    max_batch,
                    max_wait_us,
                } => self.set_policy(ServePolicy {
                    max_batch: (*max_batch).max(1),
                    max_wait_us: *max_wait_us,
                })?,
                ControlAction::Reinterleave { rows } => {
                    self.reinterleave(rows)?;
                }
                ControlAction::RetireDie {
                    shard,
                    channel,
                    die,
                } => self.retire_die(*shard, *channel, *die)?,
            }
            self.control_log.push((self.control_window, action.clone()));
        }
        self.control_window += 1;
        Ok(actions)
    }

    /// Drains every shard's row-access histogram (so each window observes
    /// a delta) and builds the window's telemetry frame.
    fn telemetry_frame(&mut self) -> TelemetryFrame {
        let mut row_accesses = vec![0u64; self.weight_map.as_ref().map_or(0, ShardMap::rows)];
        let mut health = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let drained = shard.device.take_row_accesses();
            if let Some(map) = &self.weight_map {
                for (global, count) in row_accesses[map.span(i)].iter_mut().zip(drained) {
                    *global += count;
                }
            }
            health.push(shard.device.health_report());
        }
        // Window metrics: latency/query/cache deltas since the last tick.
        let consumed = self.control_prev_latency.min(self.sim_latencies_ns.len());
        let mut window: Vec<u64> = self.sim_latencies_ns[consumed..].to_vec();
        window.sort_unstable();
        let cache_now = self.shard_cache_stats();
        let merged_now = merge_cache(&cache_now);
        let merged_prev = merge_cache(&self.control_prev_cache);
        self.control_prev_latency = self.sim_latencies_ns.len();
        self.control_prev_cache = cache_now;
        TelemetryFrame {
            window: self.control_window,
            queries: window.len() as u64,
            p50_us: percentile_us(&window, 0.50),
            p99_us: percentile_us(&window, 0.99),
            cache: cache_window(&merged_now, &merged_prev),
            shard_utilization: busy_relative(&self.shards),
            row_accesses,
            health,
            epoch: self.epoch(),
        }
    }

    /// [`ServeReport::mixed_version_batches`] without building the report.
    pub(crate) fn mixed_version_batches(&self) -> u64 {
        self.mixed_version_batches
    }

    /// Serving metrics so far.
    pub fn report(&self) -> ServeReport {
        let mut sim = self.sim_latencies_ns.clone();
        sim.sort_unstable();
        let sim_elapsed = Classifier::elapsed(self);
        let denom = sim_elapsed.as_ns();
        ServeReport {
            shards: self.shards.len(),
            queries: self.queries,
            batches: self.batches,
            p50_us: percentile_us(&sim, 0.50),
            p95_us: percentile_us(&sim, 0.95),
            p99_us: percentile_us(&sim, 0.99),
            sim_elapsed,
            sim_queries_per_sec: if denom == 0 {
                0.0
            } else {
                self.queries as f64 * 1e9 / denom as f64
            },
            shard_utilization: busy_relative(&self.shards),
            cache: merge_cache(&self.shard_cache_stats()),
            breakdown: self.tracer.as_ref().map(|t| {
                let windows: Vec<(SimTime, SimTime)> = self
                    .shards
                    .iter()
                    .map(|s| (s.serve_start, s.elapsed()))
                    .collect();
                let mut b = StageBreakdown::attribute_sharded(&t.spans(), &windows);
                b.dropped_spans = t.dropped_spans();
                b
            }),
            epoch: self.epoch(),
            mixed_version_batches: self.mixed_version_batches,
            shed_queue_full: 0,
            rejected_deadline: self.rejected_deadline,
        }
    }
}

fn merge_reports(reports: &[UpdateReport]) -> UpdateReport {
    reports
        .iter()
        .fold(UpdateReport::default(), |acc, r| acc.merge(r))
}

fn merge_cache(stats: &[CacheStats]) -> CacheStats {
    stats
        .iter()
        .fold(CacheStats::default(), |acc, c| acc.merge(c))
}

impl Classifier for ServeEngine {
    fn deploy(&mut self, weights: &DenseMatrix) -> Result<(), EcssdError> {
        ServeEngine::deploy(self, weights)
    }

    fn classify_batch(
        &mut self,
        inputs: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<Vec<Score>>, EcssdError> {
        ServeEngine::classify_batch(self, inputs, k)
    }

    fn classify_requests(&mut self, requests: &[Request]) -> Result<Vec<Vec<Score>>, EcssdError> {
        ServeEngine::classify_requests(self, requests)
    }

    /// The slowest shard device's clock (shards run in parallel).
    fn elapsed(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::elapsed)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn stats(&self) -> ClassifierStats {
        ClassifierStats {
            devices: self.shards.len(),
            categories: self.weight_map.as_ref().map_or(0, ShardMap::rows),
            queries: self.queries,
            batches: self.batches,
            cache: merge_cache(&self.shard_cache_stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecssd_core::QueryClass;

    fn tiny() -> EcssdConfig {
        EcssdConfig::tiny_builder().build().unwrap()
    }

    fn query(d: usize, phase: f32) -> Vec<f32> {
        (0..d).map(|i| ((i as f32) * 0.13 + phase).sin()).collect()
    }

    fn policy(max_batch: usize, max_wait_us: u64) -> ServePolicy {
        ServePolicy {
            max_batch,
            max_wait_us,
        }
    }

    #[test]
    fn engine_serves_batches_end_to_end() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(600, 32, 7)).unwrap();
        let inputs: Vec<Vec<f32>> = (0..6).map(|i| query(32, i as f32)).collect();
        let out = engine.classify_batch(&inputs, 5).unwrap();
        assert_eq!(out.len(), 6);
        for top in &out {
            assert_eq!(top.len(), 5);
            assert!(top.windows(2).all(|p| p[0].value >= p[1].value));
            assert!(top.iter().all(|s| s.category < 600));
        }
        let report = engine.report();
        assert_eq!(report.queries, 6);
        // Six queries under the default max_batch of 8: one device batch.
        assert_eq!(report.batches, 1);
        assert!(report.sim_elapsed > SimTime::ZERO);
        assert!(report.sim_queries_per_sec > 0.0);
        assert!(report.p50_us > 0.0 && report.p99_us >= report.p50_us);
        assert_eq!(report.shard_utilization.len(), 2);
        assert!(report
            .shard_utilization
            .iter()
            .any(|&u| (u - 1.0).abs() < 1e-9));
    }

    #[test]
    fn classify_requests_closes_batches_at_max_batch() {
        let mut engine = ServeEngine::builder(tiny())
            .shards(2)
            .policy(policy(4, 5_000))
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::new(query(32, i as f32 * 0.5), 3))
            .collect();
        let out = engine.classify_requests(&requests).unwrap();
        assert!(out.iter().all(|top| top.len() == 3));
        let report = engine.report();
        assert_eq!(report.queries, 10);
        // max_batch 4 over 10 queries: batches of 4, 4 and 2.
        assert_eq!(report.batches, 3);
    }

    #[test]
    fn typed_and_positional_requests_agree() {
        let mut engine = ServeEngine::builder(tiny()).shards(1).build().unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        let typed = Request::new(query(32, 0.4), 4).with_class(QueryClass::Batch);
        let top = engine.classify_requests(&[typed]).unwrap();
        assert_eq!(top[0].len(), 4);
        let positional = engine.classify_batch(&[query(32, 0.4)], 4).unwrap();
        assert_eq!(positional, top);
    }

    #[test]
    fn mixed_k_splits_batches() {
        let mut engine = ServeEngine::builder(tiny())
            .policy(policy(16, 20_000))
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        let out = engine
            .classify_requests(&[
                Request::new(query(32, 0.1), 2),
                Request::new(query(32, 0.2), 7),
            ])
            .unwrap();
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[1].len(), 7);
        // Different k cannot share a device round trip.
        assert_eq!(engine.report().batches, 2);
    }

    #[test]
    fn arrival_gaps_close_batches_in_simulated_time() {
        let mut engine = ServeEngine::builder(tiny())
            .policy(policy(8, 100))
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        // 0, 60 and 100 µs share the first batch's 100 µs window; 250 µs
        // opens a second; 400 µs is more than 100 µs past 250 µs.
        let requests: Vec<Request> = [0u64, 60, 100, 250, 300, 400]
            .iter()
            .enumerate()
            .map(|(i, &us)| Request::new(query(32, i as f32), 3).with_arrival_ns(us * 1_000))
            .collect();
        engine.classify_requests(&requests).unwrap();
        assert_eq!(engine.report().batches, 3);
        // The policy is simulated time, retunable between calls.
        engine.set_policy(policy(8, 1_000)).unwrap();
        engine.classify_requests(&requests).unwrap();
        assert_eq!(engine.report().batches, 4);
    }

    #[test]
    fn formed_batches_dispatch_atomically() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let requests: Vec<Request> = (0..5).map(|i| (query(32, i as f32), 3).into()).collect();
        let outcome = engine.submit_formed(requests).unwrap().wait().unwrap();
        assert_eq!(outcome.results.len(), 5);
        assert!(outcome.results.iter().all(|top| top.len() == 3));
        assert!(outcome.sim_ns > 0);
        assert_eq!(outcome.epoch, engine.epoch());
        // One formed submission is exactly one batch.
        assert_eq!(engine.report().batches, 1);
    }

    #[test]
    fn formed_batch_rejects_mixed_k() {
        let mut engine = ServeEngine::builder(tiny()).build().unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        let mixed = vec![
            Request::new(query(32, 0.1), 2),
            Request::new(query(32, 0.2), 3),
        ];
        assert!(matches!(
            engine.submit_formed(mixed),
            Err(EcssdError::MixedK {
                expected: 2,
                found: 3
            })
        ));
        assert!(matches!(
            engine.submit_formed(Vec::new()),
            Err(EcssdError::NoInputs)
        ));
    }

    #[test]
    fn formed_batches_are_deterministic_across_engines() {
        let run = || {
            let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
            engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
            let mut sims = Vec::new();
            for round in 0..3 {
                let requests: Vec<Request> = (0..4)
                    .map(|i| (query(32, (round * 4 + i) as f32), 3).into())
                    .collect();
                let outcome = engine.submit_formed(requests).unwrap().wait().unwrap();
                sims.push((outcome.sim_ns, outcome.results));
            }
            sims
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn impossible_deadline_rejects_typed() {
        let mut engine = ServeEngine::builder(tiny()).build().unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        let doomed = Request::new(query(32, 0.3), 3)
            .with_class(QueryClass::Batch)
            .with_deadline_us(0);
        let err = engine
            .submit_formed(vec![doomed])
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EcssdError::Rejected {
                    class: QueryClass::Batch,
                    reason: RejectReason::DeadlineExceeded,
                }
            ),
            "got {err:?}"
        );
        let report = engine.report();
        assert_eq!(report.rejected_deadline, 1);
        assert_eq!(report.shed_queue_full, 0);
        // The query consumed device time even though its answer was late.
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn slo_targets_stamp_default_deadlines() {
        // An SLO of 0 µs for the latency-sensitive class makes every
        // undeadlined request miss; a batch-class request with its own
        // generous deadline still succeeds.
        let mut engine = ServeEngine::builder(tiny())
            .slo(SloTargets {
                latency_sensitive_us: 0,
                batch_us: u64::MAX / 2_000,
            })
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(300, 32, 5)).unwrap();
        let err = engine
            .classify_requests(&[Request::new(query(32, 0.1), 3)])
            .unwrap_err();
        assert!(matches!(
            err,
            EcssdError::Rejected {
                reason: RejectReason::DeadlineExceeded,
                ..
            }
        ));
        let ok = engine
            .classify_requests(&[Request::new(query(32, 0.2), 3).with_class(QueryClass::Batch)]);
        assert!(ok.is_ok());
        // The positional path carries no deadlines at all.
        assert!(engine.classify_batch(&[query(32, 0.3)], 3).is_ok());
    }

    #[test]
    fn shard_failures_are_relayed_not_hung() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(200, 16, 1)).unwrap();
        // Wrong feature dimension: the shard pipelines fail and the typed
        // device error reaches the caller.
        let err = engine.classify_batch(&[vec![0.0; 4]], 3).unwrap_err();
        assert!(matches!(err, EcssdError::Screen(_)), "got {err:?}");
        // The engine keeps serving afterwards.
        let ok = engine.classify_batch(&[query(16, 0.3)], 3).unwrap();
        assert_eq!(ok[0].len(), 3);
    }

    #[test]
    fn a_shard_flash_fault_reaches_the_caller_typed() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(128, 32, 21)).unwrap();
        engine
            .filter_threshold(ThresholdPolicy::TopRatio(1.0))
            .unwrap();
        let faulty = &mut engine.shards[1].device;
        let plan = ecssd_ssd::FaultPlan::with_seed(17).with_latent_uecc(0.05);
        faulty.device_mut().flash_mut().set_fault_plan(plan);
        let err = engine.classify_batch(&[query(32, 0.3)], 3).unwrap_err();
        assert!(
            matches!(
                err,
                EcssdError::Ssd(ecssd_ssd::SsdError::Uncorrectable { .. })
            ),
            "got {err:?}"
        );
        // A full patrol repairs every latent page; the batch then serves.
        let faulty = &mut engine.shards[1].device;
        let logical = faulty.device().ftl().logical_pages();
        faulty.scrub_pass(logical);
        assert_eq!(
            engine.classify_batch(&[query(32, 0.3)], 3).unwrap()[0].len(),
            3
        );
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(matches!(
            ServeEngine::builder(tiny()).shards(0).build(),
            Err(EcssdError::NoShards)
        ));
        assert!(matches!(
            ServeEngine::builder(tiny())
                .shards(2)
                .policy(policy(0, 0))
                .build(),
            Err(EcssdError::ZeroMaxBatch)
        ));
        let broken = EcssdConfig::tiny_builder().channels(0).build();
        assert!(broken.is_err());
        let mut unvalidated = EcssdConfig::tiny();
        unvalidated.accelerator.batch = 0;
        assert!(matches!(
            ServeEngine::builder(unvalidated).shards(2).build(),
            Err(EcssdError::Config(_))
        ));
        let mut engine = ServeEngine::builder(tiny()).shards(4).build().unwrap();
        assert!(matches!(
            engine.classify_batch(&[query(8, 0.0)], 1),
            Err(EcssdError::NoWeights)
        ));
        assert!(matches!(
            engine.deploy(&DenseMatrix::random(3, 8, 1)),
            Err(EcssdError::TooFewRows { rows: 3, shards: 4 })
        ));
        assert!(matches!(
            engine.set_policy(policy(0, 0)),
            Err(EcssdError::ZeroMaxBatch)
        ));
        assert!(matches!(
            engine.retire_die(4, 0, 0),
            Err(EcssdError::NoSuchShard {
                shard: 4,
                shards: 4
            })
        ));
        engine.deploy(&DenseMatrix::random(40, 8, 1)).unwrap();
        assert!(matches!(
            engine.reinterleave(&[3, 40]),
            Err(EcssdError::Update(UpdateError::RowOutOfRange {
                row: 40,
                rows: 40
            }))
        ));
    }

    #[test]
    fn a_non_finite_weight_fails_deploy_with_the_lowest_shard_error() {
        let mut engine = ServeEngine::builder(tiny()).shards(4).build().unwrap();
        let mut weights = DenseMatrix::random(40, 8, 1);
        // Shard 2 holds rows 20..30 and shard 3 rows 30..40.
        weights.row_mut(25)[3] = f32::NAN;
        weights.row_mut(33)[0] = f32::INFINITY;
        // Shard 2 alone fails with the non-finite value's index in its rows.
        let mut shard = Ecssd::new(tiny());
        shard.enable();
        let Err(EcssdError::Screen(want)) =
            shard.weight_deploy(&weights.row_range(20..30).unwrap())
        else {
            panic!("a non-finite weight must fail deploy");
        };
        assert_eq!(shard.elapsed(), SimTime::ZERO, "nothing is charged");
        let err = engine.deploy(&weights).unwrap_err();
        assert!(matches!(&err, EcssdError::Screen(e) if *e == want), "{err}");
        assert!(matches!(
            engine.classify_batch(&[query(8, 0.0)], 1),
            Err(EcssdError::NoWeights)
        ));
        weights.row_mut(25)[3] = 0.5;
        weights.row_mut(33)[0] = 0.5;
        engine.deploy(&weights).unwrap();
        assert_eq!(
            engine.classify_batch(&[query(8, 0.0)], 3).unwrap()[0].len(),
            3
        );
    }

    #[test]
    fn builder_covers_the_legacy_constructor_shapes() {
        // The configurations the removed 0.1 positional constructors
        // (`ServeEngine::new`, `with_tracing`) used to produce, expressed
        // through the builder.
        let mut engine = ServeEngine::builder(tiny())
            .shards(2)
            .policy(ServePolicy::default())
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        assert_eq!(
            engine.classify_batch(&[query(32, 0.5)], 3).unwrap().len(),
            1
        );
        let traced = ServeEngine::builder(tiny()).tracing(true).build().unwrap();
        assert!(traced.tracer().is_some());
    }

    #[test]
    fn percentile_interpolates_linearly() {
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        // Nearest-rank with rounding reported p50 of [1µs, 100µs] as 100µs;
        // linear interpolation gives the midpoint.
        assert!((percentile_us(&[1_000, 100_000], 0.50) - 50.5).abs() < 1e-9);
        let one = [42_000u64];
        assert_eq!(percentile_us(&one, 0.0), 42.0);
        assert_eq!(percentile_us(&one, 0.5), 42.0);
        assert_eq!(percentile_us(&one, 1.0), 42.0);
        let s: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile_us(&s, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile_us(&s, 0.95) - 95.05).abs() < 1e-9);
        assert!((percentile_us(&s, 1.0) - 100.0).abs() < 1e-9);
        for window in [(0.50, 0.95), (0.95, 0.99)] {
            assert!(percentile_us(&s, window.0) <= percentile_us(&s, window.1));
        }
    }

    #[test]
    fn report_percentiles_are_monotone_and_simulated() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(600, 32, 7)).unwrap();
        for i in 0..4 {
            let inputs: Vec<Vec<f32>> = (0..3).map(|j| query(32, (i * 3 + j) as f32)).collect();
            let _ = engine.classify_batch(&inputs, 4).unwrap();
        }
        let r = engine.report();
        assert!(r.p50_us > 0.0);
        assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
        // Simulated latency is bounded by the slowest shard's total
        // simulated serving time.
        assert!(r.p99_us <= r.sim_elapsed.as_ns() as f64 / 1_000.0);
    }

    #[test]
    fn utilization_derives_from_busy_time_not_elapsed() {
        let mut engine = ServeEngine::builder(tiny()).shards(3).build().unwrap();
        // Deliberately imbalanced busy serving time 4:2:1 while every
        // device clock reads the same: utilization follows busy time.
        for (shard, busy) in engine.shards.iter_mut().zip([400_000, 200_000, 100_000]) {
            shard.busy_ns = busy;
        }
        let u = engine.report().shard_utilization;
        assert_eq!(u, vec![1.0, 0.5, 0.25]);
    }

    #[test]
    fn utilization_is_busy_relative_to_critical_path() {
        let mut engine = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        engine.deploy(&DenseMatrix::random(600, 32, 9)).unwrap();
        for i in 0..4 {
            let _ = engine.classify_batch(&[query(32, i as f32)], 3).unwrap();
        }
        let u = engine.report().shard_utilization;
        assert_eq!(u.len(), 2);
        let max = u.iter().cloned().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12, "critical path must read 1.0");
        assert!(u.iter().all(|&x| x > 0.0 && x <= 1.0), "{u:?}");
    }

    #[test]
    fn traced_engine_reports_breakdown() {
        let mut engine = ServeEngine::builder(tiny())
            .shards(2)
            .tracing(true)
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(600, 32, 7)).unwrap();
        let inputs: Vec<Vec<f32>> = (0..6).map(|i| query(32, i as f32)).collect();
        let _ = engine.classify_batch(&inputs, 5).unwrap();
        let report = engine.report();
        let b = report
            .breakdown
            .expect("traced engine must report breakdown");
        assert!(b.total_ns > 0);
        assert_eq!(b.attributed_total_ns() + b.idle_ns, b.total_ns);
        assert!(b.reconciles(0.01));
        assert!(b.entries.iter().any(|e| e.busy_ns > 0));
        let counters: std::collections::BTreeMap<String, u64> = engine
            .tracer()
            .expect("tracing(true) exposes the tracer")
            .counters()
            .into_iter()
            .collect();
        assert_eq!(
            counters.get("serve.queries_merged").copied(),
            Some(report.queries)
        );
        assert_eq!(
            counters.get("serve.batches_formed").copied(),
            Some(report.batches)
        );

        let mut plain = ServeEngine::builder(tiny()).shards(2).build().unwrap();
        plain.deploy(&DenseMatrix::random(600, 32, 7)).unwrap();
        let _ = plain.classify_batch(&inputs, 5).unwrap();
        assert!(plain.report().breakdown.is_none());
        assert!(plain.tracer().is_none());
    }
}
