//! The host-facing ECSSD device with the Table-1 software API.
//!
//! [`Ecssd`] is a *functional* emulator: it executes the real approximate
//! screening math (projection, INT4 screening, threshold filtering, CFP32
//! candidate-only classification) against weights physically placed through
//! the FTL, and charges simulated time for every transfer and every compute
//! stage it performs, through the accelerator stage charges
//! [`crate::EcssdMachine`] makes too. It is the integration point the
//! examples drive end-to-end; the cycle-approximate throughput studies use
//! [`crate::EcssdMachine`].

use std::ops::Range;

use ecssd_float::{Cfp32Vector, FloatError, MacCircuit};
use ecssd_screen::{
    classify_image, DenseMatrix, Prediction, Projector, RowImage, Score, ScreenError, Screener,
    ThresholdPolicy,
};
use ecssd_ssd::{HotRowCache, SimTime, SsdDevice, SsdError};
use ecssd_update::{UpdateError, UpdateReport};

use crate::accelerator::{upload_features, Accelerator};
use crate::delta::RowDelta;
use crate::recovery::EpochUndo;
use crate::rows::{CandidateUnion, RowStore};
use crate::update::StagedOp;
use crate::{Classifier, ClassifierStats, EcssdConfig};

/// The JL projection seed of [`Ecssd::weight_deploy`].
const DEFAULT_PROJECTION_SEED: u64 = 0x5eed;

/// Working mode (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcssdMode {
    /// Conventional SSD: the accelerator is disabled and ignored.
    Ssd,
    /// The device only serves the extreme-classification accelerator.
    Accelerator,
}

/// Errors surfaced by the Table-1 API.
#[derive(Debug)]
#[non_exhaustive]
pub enum EcssdError {
    /// The call is not valid in the current mode.
    WrongMode {
        /// Mode the device is in.
        current: EcssdMode,
    },
    /// Weights were not deployed yet.
    NoWeights,
    /// No inputs are queued for the requested computation.
    NoInputs,
    /// The requested top-`k` exceeds the deployed category count.
    KExceedsCategories {
        /// Requested `k`.
        k: usize,
        /// Deployed categories `L`.
        categories: usize,
    },
    /// An error from the screening algorithm.
    Screen(ScreenError),
    /// An error from the SSD substrate.
    Ssd(SsdError),
    /// A configuration rejected by the validating builder.
    Config(crate::ConfigError),
    /// A sharded frontend was built with zero shards.
    NoShards,
    /// A fleet was built with zero replicas.
    NoReplicas,
    /// A batch-formation policy with a zero `max_batch`.
    ZeroMaxBatch,
    /// Fewer rows to partition than shards to hold them.
    TooFewRows {
        /// Rows offered.
        rows: usize,
        /// Shards to spread them over.
        shards: usize,
    },
    /// A pre-formed batch mixed different `k`.
    MixedK {
        /// The first request's `k`.
        expected: usize,
        /// The first differing `k`.
        found: usize,
    },
    /// A shard index past the engine's shard count.
    NoSuchShard {
        /// The requested shard.
        shard: usize,
        /// Shards the engine has.
        shards: usize,
    },
    /// A replica index past the fleet's replica count.
    NoSuchReplica {
        /// The requested replica.
        replica: usize,
        /// Replicas the fleet has.
        replicas: usize,
    },
    /// A rolling update began while another was still in progress.
    RollingUpdateInProgress,
    /// A rolling-update step with no rolling update in progress.
    NoRollingUpdate,
    /// A malformed or inapplicable update batch.
    Update(ecssd_update::UpdateError),
    /// `commit_update`/`abort_update` was called with nothing staged.
    NoStagedUpdate,
    /// Crash recovery found neither a metadata journal nor an armed crash
    /// snapshot to recover from.
    NoRecoverySource,
    /// Bounded recovery (`recover_to`) needs a metadata journal.
    BoundedRecoveryNeedsJournal,
    /// The journal recovered an epoch the sealed history holds no
    /// functional image for.
    NoSealedImage {
        /// The recovered epoch.
        epoch: u64,
    },
    /// A recovery came back at an epoch ahead of the pre-crash one.
    RecoveredAhead {
        /// The epoch recovered to.
        recovered: u64,
        /// The epoch served before the crash.
        before: u64,
    },
    /// The request was shed by admission control or missed its deadline;
    /// the payload says which class was affected and why, so callers can
    /// observe (and react to) admission decisions instead of parsing a
    /// generic serving error.
    Rejected {
        /// QoS class of the rejected request.
        class: crate::QueryClass,
        /// Why it was rejected.
        reason: crate::RejectReason,
    },
}

impl std::fmt::Display for EcssdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcssdError::WrongMode { current } => {
                write!(f, "operation invalid in {current:?} mode")
            }
            EcssdError::NoWeights => write!(f, "no weights deployed"),
            EcssdError::NoInputs => write!(f, "no inputs queued"),
            EcssdError::KExceedsCategories { k, categories } => {
                write!(
                    f,
                    "top-{k} requested but only {categories} categories deployed"
                )
            }
            EcssdError::Screen(e) => write!(f, "screening error: {e}"),
            EcssdError::Ssd(e) => write!(f, "ssd error: {e}"),
            EcssdError::Config(e) => write!(f, "configuration error: {e}"),
            EcssdError::NoShards => write!(f, "at least one shard is required"),
            EcssdError::NoReplicas => write!(f, "at least one replica is required"),
            EcssdError::ZeroMaxBatch => write!(f, "max_batch must be nonzero"),
            EcssdError::TooFewRows { rows, shards } => {
                write!(f, "fewer rows ({rows}) than shards ({shards})")
            }
            EcssdError::MixedK { expected, found } => {
                write!(f, "a pre-formed batch mixes k = {expected} and k = {found}")
            }
            EcssdError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} in an engine of {shards}")
            }
            EcssdError::NoSuchReplica { replica, replicas } => {
                write!(f, "no replica {replica} in a fleet of {replicas}")
            }
            EcssdError::RollingUpdateInProgress => {
                write!(f, "a rolling update is already in progress")
            }
            EcssdError::NoRollingUpdate => write!(f, "no rolling update in progress"),
            EcssdError::Update(e) => write!(f, "update error: {e}"),
            EcssdError::NoStagedUpdate => write!(f, "no staged update to commit or abort"),
            EcssdError::NoRecoverySource => write!(f, "no journal or crash snapshot to recover"),
            EcssdError::BoundedRecoveryNeedsJournal => {
                write!(f, "bounded recovery needs a journal")
            }
            EcssdError::NoSealedImage { epoch } => write!(f, "no sealed image for epoch {epoch}"),
            EcssdError::RecoveredAhead { recovered, before } => {
                write!(f, "recovered epoch {recovered} is ahead of epoch {before}")
            }
            EcssdError::Rejected { class, reason } => {
                write!(f, "{class} request rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for EcssdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EcssdError::Screen(e) => Some(e),
            EcssdError::Ssd(e) => Some(e),
            EcssdError::Config(e) => Some(e),
            EcssdError::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ecssd_update::UpdateError> for EcssdError {
    fn from(e: ecssd_update::UpdateError) -> Self {
        EcssdError::Update(e)
    }
}

impl From<crate::ConfigError> for EcssdError {
    fn from(e: crate::ConfigError) -> Self {
        EcssdError::Config(e)
    }
}

impl From<ScreenError> for EcssdError {
    fn from(e: ScreenError) -> Self {
        EcssdError::Screen(e)
    }
}

impl From<SsdError> for EcssdError {
    fn from(e: SsdError) -> Self {
        EcssdError::Ssd(e)
    }
}

/// Checks a batch of feature vectors before anything is queued: every
/// length against the deployed input dimension, then every value for
/// finiteness, so the errors are the ones queuing and then scoring the
/// batch would report.
fn check_features<X: AsRef<[f32]>>(input_dim: usize, inputs: &[X]) -> Result<(), ScreenError> {
    if let Some(x) = inputs.iter().find(|x| x.as_ref().len() != input_dim) {
        return Err(ScreenError::DimensionMismatch {
            expected: input_dim,
            got: x.as_ref().len(),
        });
    }
    match inputs
        .iter()
        .find_map(|x| x.as_ref().iter().position(|v| !v.is_finite()))
    {
        Some(index) => Err(FloatError::NonFinite { index }.into()),
        None => Ok(()),
    }
}

/// A deployed input batch awaiting screening/classification.
#[derive(Debug, Default)]
pub(crate) struct InputQueue {
    /// Original feature vectors (host side keeps them for verification).
    pub(crate) features: Vec<Vec<f32>>,
    /// Screening candidates per queued input, filled by `int4_screen`.
    pub(crate) candidates: Vec<Vec<usize>>,
    /// When the last queued input's features reached the device.
    pub(crate) uploaded: SimTime,
}

/// The ECSSD device handle (Table 1 API).
///
/// Fields are `pub(crate)` so the online-update path
/// (`crate::update`) can stage version N+1 alongside the serving state.
#[derive(Debug)]
pub struct Ecssd {
    pub(crate) mode: EcssdMode,
    pub(crate) device: SsdDevice,
    /// The INT4 and CFP32 engines and the comparator beside the data
    /// buffer, at the ECSSD design point (alignment-free MACs).
    pub(crate) accel: Accelerator,
    pub(crate) clock: SimTime,
    /// The deployed rows as the device stores them: pre-aligned CFP32
    /// rows beside their projections. There is no FP32 copy.
    pub(crate) image: Option<RowImage>,
    pub(crate) screener: Option<Screener>,
    /// Where every weight row lives in flash.
    pub(crate) rows: RowStore,
    pub(crate) threshold: ThresholdPolicy,
    pub(crate) queue: InputQueue,
    pub(crate) results: Vec<Prediction>,
    /// Cache of recently fetched candidate FP32 rows in device DRAM: LRU
    /// eviction, frequency-gated admission (a miss replaces the LRU row
    /// only if it was looked up more often).
    pub(crate) hot_cache: HotRowCache,
    /// DRAM bytes reserved for the hot-row cache.
    pub(crate) cache_reserved: u64,
    /// DRAM bytes reserved for the live screener's INT4 matrix.
    pub(crate) int4_reserved: u64,
    pub(crate) queries: u64,
    pub(crate) batches: u64,
    /// Deployment version visible to queries (0 = nothing deployed).
    pub(crate) epoch: u64,
    /// Version N+1 being built while queries are served from version N.
    pub(crate) staged: Option<crate::update::StagedUpdate>,
    /// Screener re-quantization policy for updates.
    pub(crate) update_policy: ecssd_update::UpdatePolicy,
    /// Scale-drift tracker for `RequantPolicy::InPlace`.
    pub(crate) drift: ecssd_update::ScaleDriftDetector,
    /// Epochs sealed at commits while a journal or crash snapshot can
    /// reach them, oldest first; the newest is the live image.
    pub(crate) sealed: Vec<crate::recovery::SealedEpoch>,
    /// Unjournaled-mode durable baseline (see `arm_crash_snapshot`).
    pub(crate) crash_snapshot: Option<crate::recovery::CrashSnapshot>,
    /// One mark per committed epoch, for rows-lost accounting.
    pub(crate) commit_log: Vec<crate::recovery::CommitMark>,
    /// Journal append count that survived the last power cut.
    pub(crate) crash_bound: Option<u64>,
    /// Cumulative data+parity pages programmed by applied updates.
    pub(crate) update_programs: u64,
    /// Per-row candidate-access counts since the last
    /// [`Ecssd::take_row_accesses`] — the observed-hotness telemetry a
    /// control plane's estimator consumes. Sized at deployment, resized
    /// by committed `Add` ops.
    pub(crate) row_accesses: Vec<u64>,
    /// The distinct candidate rows of the batch being classified.
    pub(crate) union: CandidateUnion,
}

impl Ecssd {
    /// Powers on a device in SSD mode.
    pub fn new(config: EcssdConfig) -> Self {
        let hot_cache = HotRowCache::new(config.ssd.hot_cache_bytes);
        let accel = config.accelerator;
        Ecssd {
            mode: EcssdMode::Ssd,
            device: SsdDevice::new(config.ssd),
            accel: Accelerator::new(
                accel.int4_gops(),
                accel.fp32_gflops(MacCircuit::AlignmentFree),
            ),
            clock: SimTime::ZERO,
            image: None,
            screener: None,
            rows: RowStore::default(),
            threshold: ThresholdPolicy::TopRatio(0.1),
            queue: InputQueue::default(),
            results: Vec::new(),
            hot_cache,
            cache_reserved: 0,
            int4_reserved: 0,
            queries: 0,
            batches: 0,
            epoch: 0,
            staged: None,
            update_policy: ecssd_update::UpdatePolicy::default(),
            drift: ecssd_update::ScaleDriftDetector::new(2.0),
            sealed: Vec::new(),
            crash_snapshot: None,
            commit_log: Vec::new(),
            crash_bound: None,
            update_programs: 0,
            row_accesses: Vec::new(),
            union: CandidateUnion::default(),
        }
    }

    /// `ECSSD_enable()`: switch to accelerator mode.
    pub fn enable(&mut self) {
        self.mode = EcssdMode::Accelerator;
    }

    /// `ECSSD_disable()`: switch back to SSD mode.
    pub fn disable(&mut self) {
        self.mode = EcssdMode::Ssd;
    }

    /// Current working mode.
    pub fn mode(&self) -> EcssdMode {
        self.mode
    }

    /// Simulated time consumed so far.
    pub fn elapsed(&self) -> SimTime {
        self.clock
    }

    /// The underlying SSD (e.g. for SSD-mode I/O in tests).
    pub fn device_mut(&mut self) -> &mut SsdDevice {
        &mut self.device
    }

    /// Read-only view of the underlying SSD.
    pub fn device(&self) -> &SsdDevice {
        &self.device
    }

    /// Installs a span-trace handle into the device's timed resources
    /// (flash array, DRAM interface, host link, INT4 and CFP32 engines,
    /// comparator). Spans land in the handle's shared sink; see the
    /// `ecssd-trace` crate for attribution and export.
    pub fn set_tracer(&mut self, tracer: ecssd_trace::Tracer) {
        self.device.set_tracer(tracer.clone());
        self.accel.set_tracer(tracer);
    }

    pub(crate) fn require_accelerator(&self) -> Result<(), EcssdError> {
        if self.mode != EcssdMode::Accelerator {
            return Err(EcssdError::WrongMode { current: self.mode });
        }
        Ok(())
    }

    /// Moves the shared hot-row cache's DRAM reservation to `bytes`: the
    /// first deploy reserves the configured capacity, a resize moves it.
    fn reserve_hot_cache(&mut self, bytes: u64) -> Result<(), SsdError> {
        move_reservation(&mut self.device, &mut self.cache_reserved, bytes)
    }

    /// Moves the INT4 matrix's DRAM reservation to `bytes`, the live
    /// screener's size: a deploy moves it from the superseded screener's,
    /// a commit grows it by the added rows, a rollback follows the
    /// restored screener.
    pub(crate) fn reserve_int4(&mut self, bytes: u64) -> Result<(), SsdError> {
        move_reservation(&mut self.device, &mut self.int4_reserved, bytes)
    }

    /// `Pre_align()`: host-side pre-alignment of a feature vector into
    /// CFP32. Weight rows never come through here: `weight_deploy`
    /// pre-aligns every row once and `stage_update` each staged row once,
    /// and the device stores them in that form.
    ///
    /// # Errors
    ///
    /// Propagates CFP32 conversion errors (non-finite input).
    pub fn pre_align(features: &[f32]) -> Result<Cfp32Vector, ecssd_float::FloatError> {
        Cfp32Vector::from_f32(features)
    }

    /// `Weight_deploy()`: pre-align every weight row into CFP32 once,
    /// project + quantize the screener into device DRAM, and write every
    /// weight row into NAND through the FTL. The device keeps the
    /// pre-aligned rows and their projections, not the FP32 matrix.
    ///
    /// # Errors
    ///
    /// Fails when not in accelerator mode; with [`FloatError::NonFinite`]
    /// (the row-major index) for a NaN or infinite weight, before any
    /// clock, flash or DRAM charge; when the INT4 matrix does not fit DRAM
    /// beside the hot-row cache (a redeploy first gives back the
    /// superseded screener's share); or when the flash is out of space.
    pub fn weight_deploy(&mut self, weights: &DenseMatrix) -> Result<(), EcssdError> {
        self.weight_deploy_seeded(weights, DEFAULT_PROJECTION_SEED)
    }

    /// [`Self::weight_deploy`] with an explicit seed for the JL projection
    /// that builds the INT4 screener. Deployment is otherwise identical;
    /// the seed only rotates the random projection, which lets tests and
    /// studies average screening recall over several projections instead
    /// of gating on one arbitrary draw.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::weight_deploy`].
    pub fn weight_deploy_seeded(
        &mut self,
        weights: &DenseMatrix,
        projection_seed: u64,
    ) -> Result<(), EcssdError> {
        self.deploy_rows(weights, 0..weights.rows(), projection_seed)
    }

    /// [`Self::weight_deploy`] of rows `rows` of `weights` only, as one
    /// shard of a row-partitioned layer holds them: row `rows.start`
    /// becomes this device's row 0. The rows are read in place, not copied
    /// out.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::weight_deploy`], plus
    /// [`ScreenError::Empty`] for an empty range and
    /// [`ScreenError::DimensionMismatch`] for one past the last row; a
    /// non-finite weight's index counts from row `rows.start`.
    pub fn weight_deploy_rows(
        &mut self,
        weights: &DenseMatrix,
        rows: Range<usize>,
    ) -> Result<(), EcssdError> {
        self.deploy_rows(weights, rows, DEFAULT_PROJECTION_SEED)
    }

    fn deploy_rows(
        &mut self,
        weights: &DenseMatrix,
        rows: Range<usize>,
        projection_seed: u64,
    ) -> Result<(), EcssdError> {
        self.require_accelerator()?;
        // Host ships the whole FP32 matrix + INT4 matrix over PCIe.
        let projector =
            Projector::paper_scale(weights.cols(), projection_seed).map_err(EcssdError::Screen)?;
        let image = RowImage::from_rows(weights, rows, &projector)?;
        let categories = image.rows();
        let screener = Screener::from_image(&image, projector)?;
        let int4_bytes = screener.weights4().storage_bytes() as u64;
        let superseded = self.int4_reserved;
        self.reserve_int4(int4_bytes)?;
        // The hot-row cache occupies DRAM alongside the INT4 matrix.
        if let Err(e) = self.reserve_hot_cache(self.hot_cache.capacity_bytes()) {
            // The live screener's share fits again: nothing else was
            // reserved since it moved.
            let _ = self.reserve_int4(superseded);
            return Err(e.into());
        }
        let fp32_row_bytes = 4 * weights.cols() as u64;
        let host_done = self
            .device
            .host_mut()
            .transfer(categories as u64 * fp32_row_bytes + int4_bytes, self.clock);
        // A redeploy supersedes any half-built staged version, and every
        // previously deployed row image in the DRAM cache is now stale.
        if self.staged.is_some() {
            self.abort_update()?;
        }
        // Place rows through the FTL from the lowest free LPN, LPN 0 up
        // (the machine-level layout studies live in EcssdMachine).
        let old_firsts = self.rows.weights.firsts.clone();
        self.clock = self.rows.weights.redeploy(
            &mut self.rows.lpns,
            &mut self.device,
            &mut self.hot_cache,
            categories,
            fp32_row_bytes,
            host_done,
        )?;
        let old_image = self.image.replace(image);
        let old_screener = self.screener.replace(screener);
        self.row_accesses = vec![0; categories];
        self.drift.reset();
        self.epoch += 1;
        let placed: Vec<u64> = (0..categories as u64).collect();
        let undo = match (old_image, old_screener) {
            (Some(i), Some(s)) if self.keeps_history() => Some(EpochUndo::Image(i, s, old_firsts)),
            _ => None,
        };
        self.record_commit(&placed, &[], categories as u64, undo);
        Ok(())
    }

    /// `Filter_threshold()`: set the screening threshold policy.
    pub fn filter_threshold(&mut self, policy: ThresholdPolicy) -> Result<(), EcssdError> {
        self.require_accelerator()?;
        policy.validate()?;
        self.threshold = policy;
        Ok(())
    }

    /// `INT4_input_send()` + `CFP32_input_send()`: queue one input's 4-bit
    /// projected features and 32-bit pre-aligned features. The host sends
    /// both up front so screening and classification can pipeline.
    ///
    /// # Errors
    ///
    /// Fails outside accelerator mode or before weights are deployed, and
    /// with [`ScreenError::DimensionMismatch`] or [`FloatError::NonFinite`]
    /// (the feature's index) for an input CFP32 cannot carry, before any
    /// transfer is charged.
    pub fn input_send(&mut self, features: &[f32]) -> Result<(), EcssdError> {
        self.upload(&[features])
    }

    /// Checks `inputs` as one batch, then queues them and charges their
    /// upload as one host transfer at the clock. Checking is eager;
    /// `int4_screen` projects the inputs.
    fn upload<X: AsRef<[f32]>>(&mut self, inputs: &[X]) -> Result<(), EcssdError> {
        self.require_accelerator()?;
        let screener = self.screener.as_ref().ok_or(EcssdError::NoWeights)?;
        check_features(screener.input_dim(), inputs)?;
        let d = screener.input_dim() as u64;
        let k = screener.projected_dim() as u64;
        let n = inputs.len() as u64;
        self.clock = upload_features(self.device.host_mut(), n, d, k, self.clock);
        self.queue.uploaded = self.clock;
        self.queue
            .features
            .extend(inputs.iter().map(|x| x.as_ref().to_vec()));
        Ok(())
    }

    /// `INT4_screen()`: run low-precision screening + threshold filtering
    /// for the queued batch in one pass ([`Screener::screen_batch`]),
    /// charging one DRAM stream of the INT4 weights for the whole batch,
    /// then the batch's INT4 MACs and the comparator's selection.
    ///
    /// # Errors
    ///
    /// Fails without deployed weights or queued inputs, and with the
    /// screening error of the first input that fails, before any charge.
    pub fn int4_screen(&mut self) -> Result<(), EcssdError> {
        self.require_accelerator()?;
        let screener = self.screener.as_ref().ok_or(EcssdError::NoWeights)?;
        if self.queue.features.is_empty() {
            return Err(EcssdError::NoInputs);
        }
        // A failed screen leaves no stale candidates behind.
        self.queue.candidates.clear();
        self.queue.candidates = screener.screen_batch(&self.queue.features, self.threshold)?;
        let int4_bytes = screener.weights4().storage_bytes() as u64;
        let streamed = self.device.dram_mut().transfer(int4_bytes, self.clock);
        self.clock = self.accel.screen(
            screener.projected_dim() as u64,
            screener.categories() as u64,
            self.queue.features.len() as u64,
            streamed,
        );
        Ok(())
    }

    /// `CFP32_classify()`: fetch the batch's candidate rows and run CFP32
    /// candidate-only classification, keeping the top `k` per input. The
    /// MACs are charged once the rows are fetched and the inputs uploaded.
    ///
    /// The queued batch is scored by [`classify_image`] against the stored
    /// pre-aligned rows: each input is pre-aligned once, and each
    /// (input, candidate) pair costs one pass of the alignment-free MAC.
    /// No row is pre-aligned here; that happened once, at deploy or stage
    /// time.
    ///
    /// The fetch is one request over the batch's candidate union: a row
    /// several inputs selected is looked up, and read or streamed, once,
    /// and every distinct row's flash read is issued together at the
    /// batch's clock. Every (input, candidate) pair still counts in
    /// [`Ecssd::row_accesses`].
    ///
    /// # Errors
    ///
    /// Fails if `int4_screen` has not produced candidates, and with a
    /// [`ScreenError`] for an input CFP32 cannot pre-align, before any
    /// fetch is charged. A flash fault in the union's read fails the whole
    /// batch: none of its rows is cached and the clock does not move.
    pub fn cfp32_classify(&mut self, k: usize) -> Result<(), EcssdError> {
        self.require_accelerator()?;
        let image = self.image.as_ref().ok_or(EcssdError::NoWeights)?;
        if self.queue.candidates.len() != self.queue.features.len()
            || self.queue.features.is_empty()
        {
            return Err(EcssdError::NoInputs);
        }
        // Function first, so a failure charges nothing: CFP32
        // candidate-only classification of the whole batch.
        let top_k = classify_image(image, &self.queue.features, &self.queue.candidates, k)?;
        let d = image.cols() as u64;
        let pairs = self.queue.candidates.iter().map(Vec::len).sum::<usize>() as u64;
        for &c in self.queue.candidates.iter().flatten() {
            if let Some(count) = self.row_accesses.get_mut(c) {
                *count += 1;
            }
            self.union.insert(c);
        }
        let fetched = self.rows.weights.fetch(
            &mut self.union,
            &mut self.device,
            &mut self.hot_cache,
            self.clock,
        );
        self.union.clear();
        self.clock = self.accel.classify(d, pairs, fetched?, self.queue.uploaded);
        self.results = std::mem::take(&mut self.queue.candidates)
            .into_iter()
            .zip(top_k)
            .map(|(candidates, top_k)| Prediction { candidates, top_k })
            .collect();
        self.queue.features.clear();
        Ok(())
    }

    /// `Get_results()`: drain the finished predictions, charging the return
    /// transfer.
    ///
    /// # Errors
    ///
    /// Fails outside accelerator mode.
    pub fn get_results(&mut self) -> Result<Vec<Prediction>, EcssdError> {
        self.require_accelerator()?;
        let bytes: u64 = self
            .results
            .iter()
            .map(|p| (p.top_k.len() * 8) as u64)
            .sum();
        self.clock = self.device.host_mut().transfer(bytes, self.clock);
        Ok(std::mem::take(&mut self.results))
    }

    /// Batch-first classification: queue, screen, classify and drain in one
    /// call — the primary inference entry point (also available through the
    /// [`Classifier`] trait).
    ///
    /// # Errors
    ///
    /// Fails with [`EcssdError::WrongMode`] outside accelerator mode,
    /// [`EcssdError::NoWeights`] before deployment, [`EcssdError::NoInputs`]
    /// on an empty batch, [`EcssdError::KExceedsCategories`] when `k`
    /// exceeds the deployed category count, and propagates screening/SSD
    /// errors. Every input is checked as [`Self::input_send`] checks it
    /// before anything is queued or charged, so a malformed batch leaves the
    /// clock, the cache and the flash untouched; the checked batch then
    /// uploads in one host transfer. A later error, a flash
    /// fault in the candidate fetch, fails the whole batch: none of its rows
    /// is cached, the clock returns to where the batch found it (the
    /// resources the batch occupied stay busy), and the input queue is
    /// cleared, so a failed batch never leaks into the next one.
    pub fn classify_batch(
        &mut self,
        inputs: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<Vec<Score>>, EcssdError> {
        self.require_accelerator()?;
        let categories = self.image.as_ref().ok_or(EcssdError::NoWeights)?.rows();
        if inputs.is_empty() {
            return Err(EcssdError::NoInputs);
        }
        if k > categories {
            return Err(EcssdError::KExceedsCategories { k, categories });
        }
        let clock = self.clock;
        self.upload(inputs)?;
        let attempt = self.int4_screen().and_then(|()| self.cfp32_classify(k));
        if let Err(e) = attempt {
            self.clock = clock;
            self.queue.features.clear();
            self.queue.candidates.clear();
            return Err(e);
        }
        let predictions = self.get_results()?;
        self.queries += inputs.len() as u64;
        self.batches += 1;
        Ok(predictions.into_iter().map(|p| p.top_k).collect())
    }

    /// The hot-row cache counters of this device.
    pub fn cache_stats(&self) -> ecssd_ssd::CacheStats {
        self.hot_cache.stats()
    }

    /// Deployed category count (0 before deployment). Grows when an
    /// update batch with `Add` ops commits.
    pub fn categories(&self) -> usize {
        self.image.as_ref().map_or(0, RowImage::rows)
    }

    /// The deployed rows as the device stores them: each row pre-aligned
    /// into CFP32 beside its projection (`None` before deployment).
    pub fn row_image(&self) -> Option<&RowImage> {
        self.image.as_ref()
    }

    /// Device-health summary: fault counters from the flash array plus
    /// FTL wear/GC totals and the update path's program traffic.
    pub fn health_report(&self) -> ecssd_ssd::HealthReport {
        let mut health = self.device.flash().health_report();
        health.absorb_wear(&self.device.ftl().wear(), &self.device.ftl().gc_totals());
        health.die_wear = Some(self.device.ftl().die_wear());
        health.update_programs = self.update_programs;
        health
    }

    /// Per-row candidate-access counts accumulated since the last
    /// [`Ecssd::take_row_accesses`] (indexed by global row id of this
    /// device; empty before deployment). Every candidate the CFP32 stage
    /// touches counts, hit or miss — the observed-hotness signal a
    /// control plane's estimator consumes.
    pub fn row_accesses(&self) -> &[u64] {
        &self.row_accesses
    }

    /// Drains the per-row access histogram: returns the counts since the
    /// previous take and resets them, so each control window observes its
    /// own traffic.
    pub fn take_row_accesses(&mut self) -> Vec<u64> {
        let drained = self.row_accesses.clone();
        for count in &mut self.row_accesses {
            *count = 0;
        }
        drained
    }

    /// Retunes the hot-row cache capacity at runtime, adjusting the DRAM
    /// reservation to match and evicting least-recently-used rows until
    /// the resident set fits (evictions are counted in
    /// [`ecssd_ssd::CacheStats`]). The control plane's cache-resize
    /// actuator.
    ///
    /// # Errors
    ///
    /// [`EcssdError::Ssd`] when DRAM cannot fit the grown reservation;
    /// the cache keeps its previous capacity in that case.
    pub fn set_cache_capacity(&mut self, bytes: u64) -> Result<(), EcssdError> {
        self.reserve_hot_cache(bytes)?;
        self.hot_cache.set_capacity(bytes);
        Ok(())
    }

    /// Stages a placement-only rewrite of `rows` as version N+1: each row
    /// keeps its current image (a copy of the staged or live image row)
    /// but is programmed into fresh pages by the staging routine
    /// [`Ecssd::stage_update`] runs, so the re-placement's program/GC/parity
    /// traffic genuinely contends with version-N query reads on the flash
    /// timelines. Rows are deduplicated and staged in ascending order so
    /// identically-seeded runs stage identically. An empty `rows` still
    /// creates a (no-op) staged version, so a sharded engine can commit
    /// every shard in lockstep. Commit with [`Ecssd::commit_update`].
    ///
    /// # Errors
    ///
    /// [`EcssdError::NoWeights`] before deployment, then
    /// [`UpdateError::RowOutOfRange`] for the first row past the staged
    /// model, then the contract of [`Ecssd::stage_update`].
    pub fn reinterleave_stage(&mut self, rows: &[u64]) -> Result<UpdateReport, EcssdError> {
        let image = self.image.as_ref().ok_or(EcssdError::NoWeights)?;
        // The staged version's rows when one exists: live rows under its delta.
        let delta = self.staged.as_ref().map(|s| &s.delta);
        let source_rows = delta.map_or(image.rows(), RowDelta::rows);
        let mut targets: Vec<u64> = rows.to_vec();
        targets.sort_unstable();
        targets.dedup();
        let mut copies = RowImage::empty(image.cols(), image.projected_dim());
        let mut ops = Vec::with_capacity(targets.len());
        for &row in &targets {
            let idx = usize::try_from(row).unwrap_or(usize::MAX);
            if idx >= source_rows {
                return Err(EcssdError::Update(UpdateError::RowOutOfRange {
                    row: idx,
                    rows: source_rows,
                }));
            }
            let (from, i) = delta.map_or((image, idx), |d| d.row(image, idx));
            copies.insert_row(copies.rows(), from, i);
            ops.push(StagedOp::Replace(idx));
        }
        self.require_accelerator()?;
        self.stage_rows(&ops, &copies)
    }

    /// Marks a detected-dead die as retired so reads to it fail fast
    /// instead of burning the full retry-ladder timeout — the control
    /// plane's die-retirement actuator (forwards to
    /// [`ecssd_ssd::FlashSim::retire_die`]; no-op without a fault plan).
    pub fn retire_die(&mut self, channel: usize, die: usize) {
        self.device.flash_mut().retire_die(channel, die);
    }
}

/// Moves a DRAM reservation held in `*reserved` to `bytes`.
fn move_reservation(
    device: &mut SsdDevice,
    reserved: &mut u64,
    bytes: u64,
) -> Result<(), SsdError> {
    if bytes >= *reserved {
        device.dram_mut().reserve(bytes - *reserved)?;
    } else {
        device.dram_mut().release(*reserved - bytes);
    }
    *reserved = bytes;
    Ok(())
}

impl Classifier for Ecssd {
    fn deploy(&mut self, weights: &DenseMatrix) -> Result<(), EcssdError> {
        self.weight_deploy(weights)
    }

    fn classify_batch(
        &mut self,
        inputs: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<Vec<Score>>, EcssdError> {
        Ecssd::classify_batch(self, inputs, k)
    }

    fn elapsed(&self) -> SimTime {
        self.clock
    }

    fn stats(&self) -> ClassifierStats {
        ClassifierStats {
            devices: 1,
            categories: self.categories(),
            queries: self.queries,
            batches: self.batches,
            cache: self.hot_cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecssd_screen::{full_classify, ClassifyPrecision};

    fn small_device() -> Ecssd {
        Ecssd::new(EcssdConfig::tiny())
    }

    fn query(d: usize, phase: f32) -> Vec<f32> {
        (0..d).map(|i| ((i as f32) * 0.13 + phase).sin()).collect()
    }

    #[test]
    fn full_accelerator_flow() {
        let mut dev = small_device();
        dev.enable();
        let weights = DenseMatrix::random(256, 64, 9);
        dev.weight_deploy(&weights).unwrap();
        dev.filter_threshold(ThresholdPolicy::TopRatio(0.1))
            .unwrap();
        dev.input_send(&query(64, 0.0)).unwrap();
        dev.input_send(&query(64, 1.0)).unwrap();
        dev.int4_screen().unwrap();
        dev.cfp32_classify(5).unwrap();
        let results = dev.get_results().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].top_k.len(), 5);
        assert!(dev.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn predictions_match_brute_force_on_separable_data() {
        let mut dev = small_device();
        dev.enable();
        let x = query(64, 0.5);
        let mut weights = DenseMatrix::random(256, 64, 10);
        for r in [3usize, 99, 200] {
            let row = weights.row_mut(r);
            for (rv, &xv) in row.iter_mut().zip(&x) {
                *rv = 1.8 * xv + 0.1 * *rv;
            }
        }
        dev.weight_deploy(&weights).unwrap();
        dev.input_send(&x).unwrap();
        dev.int4_screen().unwrap();
        dev.cfp32_classify(3).unwrap();
        let results = dev.get_results().unwrap();
        let reference = full_classify(&weights, &x, ClassifyPrecision::Fp32).unwrap();
        let got: Vec<usize> = results[0].top_k.iter().map(|s| s.category).collect();
        let want: Vec<usize> = reference.iter().take(3).map(|s| s.category).collect();
        assert_eq!(got, want, "screened top-3 must match brute force");
    }

    #[test]
    fn mode_gating() {
        let mut dev = small_device();
        // SSD mode rejects accelerator calls.
        assert!(matches!(
            dev.weight_deploy(&DenseMatrix::random(4, 8, 0)),
            Err(EcssdError::WrongMode { .. })
        ));
        dev.enable();
        assert_eq!(dev.mode(), EcssdMode::Accelerator);
        // Accelerator calls before deployment fail cleanly.
        assert!(matches!(
            dev.input_send(&[0.0; 8]),
            Err(EcssdError::NoWeights)
        ));
        assert!(matches!(dev.int4_screen(), Err(EcssdError::NoWeights)));
        dev.disable();
        assert_eq!(dev.mode(), EcssdMode::Ssd);
    }

    #[test]
    fn ssd_mode_still_serves_io() {
        let mut dev = small_device();
        let done = dev.device_mut().host_write(0, 4, SimTime::ZERO).unwrap();
        assert!(dev.device_mut().host_read(0, 4, done).is_ok());
    }

    #[test]
    fn screening_requires_inputs() {
        let mut dev = small_device();
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(64, 32, 2)).unwrap();
        assert!(matches!(dev.int4_screen(), Err(EcssdError::NoInputs)));
        assert!(matches!(dev.cfp32_classify(1), Err(EcssdError::NoInputs)));
    }

    #[test]
    fn pre_align_is_hosts_job() {
        let v = Ecssd::pre_align(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(v.to_f32_vec(), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn redeploys_keep_the_int4_reservation() {
        let mut dev = small_device();
        dev.enable();
        let weights = DenseMatrix::random(256, 64, 9);
        dev.weight_deploy(&weights).unwrap();
        let reserved = dev.device().dram().reserved_bytes();
        for _ in 0..1_000 {
            dev.weight_deploy(&weights).unwrap();
        }
        assert_eq!(dev.device().dram().reserved_bytes(), reserved);
        // A smaller model gives back the difference.
        dev.weight_deploy(&DenseMatrix::random(128, 64, 9)).unwrap();
        assert_eq!(dev.device().dram().reserved_bytes(), reserved - 1536);
    }

    #[test]
    fn a_screener_over_half_of_dram_redeploys() {
        // L2P takes 6 KiB of the tiny device's DRAM; a 1024 × 64 model's
        // INT4 matrix takes 12 KiB, more than half of the 22 KiB total.
        let config = EcssdConfig::tiny_builder()
            .dram_bytes(22 << 10)
            .build()
            .unwrap();
        let mut dev = Ecssd::new(config);
        dev.enable();
        let weights = DenseMatrix::random(1024, 64, 3);
        dev.weight_deploy(&weights).unwrap();
        let int4 = dev.screener.as_ref().unwrap().weights4().storage_bytes() as u64;
        assert!(2 * int4 > dev.device().dram().capacity_bytes());
        dev.weight_deploy(&DenseMatrix::random(1024, 64, 4))
            .unwrap();
        assert_eq!(dev.epoch(), 2);
        assert_eq!(
            dev.classify_batch(&[query(64, 0.2)], 4).unwrap()[0].len(),
            4
        );
    }

    #[test]
    fn a_row_range_deploys_like_its_copy() {
        let weights = DenseMatrix::random(300, 64, 12);
        let mut in_place = small_device();
        let mut copied = small_device();
        in_place.enable();
        copied.enable();
        in_place.weight_deploy_rows(&weights, 100..250).unwrap();
        copied
            .weight_deploy(&weights.row_range(100..250).unwrap())
            .unwrap();
        assert_eq!(in_place.row_image(), copied.row_image());
        let x = [query(64, 0.1), query(64, 0.8)];
        assert_eq!(
            in_place.classify_batch(&x, 5).unwrap(),
            copied.classify_batch(&x, 5).unwrap()
        );
        assert_eq!(in_place.elapsed(), copied.elapsed());
        assert!(matches!(
            in_place.weight_deploy_rows(&weights, 7..7),
            Err(EcssdError::Screen(ScreenError::Empty))
        ));
        assert!(matches!(
            in_place.weight_deploy_rows(&weights, 250..301),
            Err(EcssdError::Screen(ScreenError::DimensionMismatch {
                expected: 300,
                got: 301
            }))
        ));
        assert_eq!(in_place.epoch(), 1, "a rejected range deploys nothing");
    }

    #[test]
    fn non_finite_weights_fail_deploy_before_any_charge() {
        let mut dev = small_device();
        dev.enable();
        let mut weights = DenseMatrix::random(256, 64, 9);
        weights.row_mut(7)[5] = f32::NAN;
        let reserved = dev.device().dram().reserved_bytes();
        let err = dev.weight_deploy(&weights).unwrap_err();
        assert!(
            matches!(
                err,
                EcssdError::Screen(ScreenError::Float(FloatError::NonFinite { index: 453 }))
            ),
            "{err}"
        );
        assert_eq!(dev.elapsed(), SimTime::ZERO);
        assert_eq!(dev.device().dram().reserved_bytes(), reserved);
        assert_eq!(dev.device().ftl().mapped_pages(), 0);
        assert_eq!((dev.epoch(), dev.categories()), (0, 0));
        // Over a deployed model, the failed redeploy leaves it serving.
        weights.row_mut(7)[5] = 0.25;
        dev.weight_deploy(&weights).unwrap();
        let x = [query(64, 0.3)];
        let before = dev.classify_batch(&x, 3).unwrap();
        let (clock, reserved) = (dev.elapsed(), dev.device().dram().reserved_bytes());
        weights.row_mut(255)[63] = f32::NEG_INFINITY;
        assert!(dev.weight_deploy(&weights).is_err());
        assert_eq!(dev.elapsed(), clock);
        assert_eq!(dev.device().dram().reserved_bytes(), reserved);
        assert_eq!((dev.epoch(), dev.categories()), (1, 256));
        assert_eq!(dev.classify_batch(&x, 3).unwrap(), before);
    }

    #[test]
    fn non_finite_features_are_rejected_before_any_charge() {
        let config = EcssdConfig::tiny_builder()
            .hot_cache_bytes(1 << 20)
            .build()
            .unwrap();
        let weights = DenseMatrix::random(256, 64, 9);
        let mut failed = Ecssd::new(config.clone());
        let mut clean = Ecssd::new(config);
        for dev in [&mut failed, &mut clean] {
            dev.enable();
            dev.weight_deploy(&weights).unwrap();
            dev.classify_batch(&[query(64, 0.1)], 3).unwrap();
        }
        let (clock, cache) = (failed.elapsed(), failed.cache_stats());
        let mut bad = query(64, 0.9);
        bad[3] = f32::NAN;
        let err = failed
            .classify_batch(&[query(64, 0.3), query(64, 0.6), bad.clone()], 3)
            .unwrap_err();
        assert!(
            matches!(
                err,
                EcssdError::Screen(ScreenError::Float(FloatError::NonFinite { index: 3 }))
            ),
            "{err}"
        );
        assert_eq!(failed.elapsed(), clock, "a rejected batch charges no time");
        assert_eq!(
            failed.cache_stats(),
            cache,
            "a rejected batch touches no row"
        );
        let err = failed.input_send(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                EcssdError::Screen(ScreenError::Float(FloatError::NonFinite { index: 3 }))
            ),
            "{err}"
        );
        assert_eq!(failed.elapsed(), clock);
        // The device then runs exactly like one that never saw the batch.
        let next = [query(64, 0.4), query(64, 0.7)];
        assert_eq!(
            failed.classify_batch(&next, 3).unwrap(),
            clean.classify_batch(&next, 3).unwrap()
        );
        assert_eq!(failed.elapsed(), clean.elapsed());
        assert_eq!(failed.cache_stats(), clean.cache_stats());
    }

    /// Exact counters a batch's charges move.
    struct Counters {
        lookups: u64,
        hits: u64,
        pages_read: u64,
        dram_bytes: u64,
        accesses: u64,
    }

    fn counters(dev: &Ecssd) -> Counters {
        let cache = dev.cache_stats();
        let flash = dev.device().flash().channel_stats();
        Counters {
            lookups: cache.hits + cache.misses,
            hits: cache.hits,
            pages_read: flash.transfers().iter().sum(),
            dram_bytes: dev.device().dram().bytes_moved(),
            accesses: dev.row_accesses().iter().sum(),
        }
    }

    /// The batch's candidate lists and their distinct rows.
    fn candidates(dev: &Ecssd, inputs: &[Vec<f32>]) -> (Vec<Vec<usize>>, usize) {
        let screener = dev.screener.as_ref().unwrap();
        let lists = screener.screen_batch(inputs, dev.threshold).unwrap();
        let distinct: std::collections::BTreeSet<usize> = lists.iter().flatten().copied().collect();
        (lists, distinct.len())
    }

    #[test]
    fn a_batch_charges_its_candidate_union_once() {
        let config = EcssdConfig::tiny_builder()
            .hot_cache_bytes(48 << 10)
            .build()
            .unwrap();
        let mut dev = Ecssd::new(config);
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(512, 64, 5)).unwrap();
        let int4_bytes = dev.screener.as_ref().unwrap().weights4().storage_bytes() as u64;
        let page_bytes = dev.device().config().geometry.page_bytes as u64;
        let pages = dev.rows.weights.pages;
        for b in 0..12u32 {
            // Overlapping batches: phases repeat within and across them.
            let inputs: Vec<Vec<f32>> = (0..1 + b % 6)
                .map(|q| query(64, ((b + q) % 5) as f32 * 0.7))
                .collect();
            let (lists, distinct) = candidates(&dev, &inputs);
            let before = counters(&dev);
            dev.classify_batch(&inputs, 3).unwrap();
            let after = counters(&dev);
            let hits = after.hits - before.hits;
            assert_eq!(after.lookups - before.lookups, distinct as u64, "batch {b}");
            assert_eq!(
                after.pages_read - before.pages_read,
                (distinct as u64 - hits) * pages,
                "batch {b}"
            );
            assert_eq!(
                after.dram_bytes - before.dram_bytes,
                int4_bytes + hits * pages * page_bytes,
                "batch {b}"
            );
            let pairs: usize = lists.iter().map(Vec::len).sum();
            assert_eq!(after.accesses - before.accesses, pairs as u64, "batch {b}");
        }
        assert!(dev.cache_stats().hits > 0, "the batches overlap");
    }

    #[test]
    fn without_a_cache_a_row_every_input_selects_is_read_once() {
        let mut dev = small_device();
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(256, 64, 9)).unwrap();
        assert!(!dev.hot_cache.is_enabled());
        let inputs = vec![query(64, 0.4); 6];
        let (lists, distinct) = candidates(&dev, &inputs);
        assert!(
            lists.iter().all(|l| *l == lists[0]),
            "every input selects the same rows"
        );
        let before = counters(&dev);
        dev.classify_batch(&inputs, 3).unwrap();
        let after = counters(&dev);
        assert_eq!(
            after.pages_read - before.pages_read,
            distinct as u64 * dev.rows.weights.pages
        );
        assert_eq!(
            after.lookups, before.lookups,
            "a disabled cache counts nothing"
        );
    }

    #[test]
    fn a_dies_paired_planes_share_each_sense() {
        let mut dev = small_device();
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(256, 64, 9)).unwrap();
        dev.filter_threshold(ThresholdPolicy::TopRatio(1.0))
            .unwrap();
        assert!(!dev.hot_cache.is_enabled());
        // Every row is one page: the deploy spreads each die's pages
        // evenly over its planes.
        let g = dev.device().config().geometry;
        let mut per_plane = vec![0u64; g.total_dies() * g.planes_per_die];
        for lpn in dev.rows.weights.lpns() {
            let a = dev.device().ftl().translate(lpn).unwrap();
            per_plane[a.flat_die(&g) * g.planes_per_die + a.plane] += 1;
        }
        let m = per_plane[0];
        assert!(m > 0 && per_plane.iter().all(|&n| n == m), "{per_plane:?}");
        // Every row is a candidate and misses: each die senses m times,
        // one plane's page and the other's per sense.
        let flash = |dev: &Ecssd| dev.device().flash().die_busy_ns().to_vec();
        let before = flash(&dev);
        dev.classify_batch(&[query(64, 0.4)], 3).unwrap();
        let tr = dev.device().flash().timing().read_latency_ns;
        for (die, (after, before)) in flash(&dev).iter().zip(&before).enumerate() {
            assert_eq!(after - before, m * tr, "die {die}");
        }
    }

    #[test]
    fn a_faulted_batch_caches_nothing_and_keeps_the_clock() {
        let config = EcssdConfig::tiny_builder()
            .hot_cache_bytes(1 << 20)
            .build()
            .unwrap();
        let mut dev = Ecssd::new(config);
        dev.enable();
        dev.weight_deploy(&DenseMatrix::random(256, 64, 9)).unwrap();
        dev.classify_batch(&[query(64, 0.1)], 3).unwrap();
        // Only inserts, evictions and invalidations change the resident
        // set; a lookup refreshes recency alone.
        let resident = |dev: &Ecssd| {
            let c = dev.cache_stats();
            (c.insertions, c.evictions, c.invalidations, c.resident_bytes)
        };
        let (cached, clock) = (resident(&dev), dev.elapsed());
        dev.device_mut()
            .flash_mut()
            .set_fault_plan(ecssd_ssd::FaultPlan::with_seed(3).with_uecc(1.0));
        // Hits from the first batch beside misses that fault.
        let batch = [query(64, 0.1), query(64, 1.3), query(64, 2.9)];
        let err = dev.classify_batch(&batch, 3).unwrap_err();
        assert!(
            matches!(err, EcssdError::Ssd(SsdError::Uncorrectable { .. })),
            "{err}"
        );
        assert_eq!(
            resident(&dev),
            cached,
            "a faulted batch caches none of its rows"
        );
        assert_eq!(
            dev.elapsed(),
            clock,
            "a faulted batch does not move the clock"
        );
        dev.device_mut()
            .flash_mut()
            .set_fault_plan(ecssd_ssd::FaultPlan::none());
        assert_eq!(dev.classify_batch(&batch, 3).unwrap().len(), 3);
    }
}
