//! The fleet layer: `R` replicated [`ServeEngine`] groups behind an
//! SLO-aware load balancer, driven by an open-loop arrival process.
//!
//! A single engine answers every query it is given; a *fleet* must decide
//! which queries to answer at all. Under open-loop load (queries arrive on
//! their own clock — see `ecssd_workloads::OpenLoopArrivals`) the
//! interesting regime is overload, and the fleet's job is threefold:
//!
//! * **Routing** — pick a replica per admitted request: least-backlog with
//!   an optional cache-affinity preference (the same query features hash
//!   to the same replica, so its hot candidate-row cache warms for the
//!   Zipf head), and *epoch-aware* eligibility (never route to a replica
//!   behind the fleet commit epoch — one mid-rolling-deploy or still
//!   catching up after crash recovery).
//! * **Admission** — per-class deadline-aware shedding
//!   ([`AdmissionControl::DeadlineAware`]): a request whose estimated
//!   completion would bust its latency budget is rejected *at arrival*,
//!   and the batch class runs out of budget first (its ceiling is a small
//!   multiple of the latency-sensitive target), so under overload batch
//!   traffic sheds while latency-sensitive p99 holds.
//! * **Reporting** — [`FleetReport`] with per-class goodput, SLO-violation
//!   and shed counts, and per-replica utilization / epoch-lag /
//!   cache-hit-rate.
//!
//! The fleet runs entirely in *simulated* time: its clock advances with
//! arrivals, a replica queue is cut into engine batches by the same
//! batcher the engine uses (`ecssd_core::split_batches`) under that
//! replica engine's own [`ServePolicy`] (so a controller's `SetPolicy`
//! retunes it), each batch runs synchronously as one pre-formed engine
//! batch ([`ServeEngine::submit_formed`]) and occupies the replica's one
//! [`Timeline`], and the same seed therefore yields a byte-identical
//! report.

use std::collections::VecDeque;

use ecssd_control::{ControlAction, Controller};
use ecssd_core::{
    split_batches, Classifier, EcssdConfig, EcssdError, QueryClass, RejectReason, Request,
    SloTargets, UpdateBatch,
};
use ecssd_screen::DenseMatrix;
use ecssd_ssd::JournalConfig;
use ecssd_trace::{percentile_us, SimTime, Timeline};

use crate::engine::{RecoverySummary, ServeEngine, ServePolicy};

/// Admission-control policy applied to every offered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionControl {
    /// Admit everything the queue limit allows. Under overload latency
    /// grows without bound until queues fill — the baseline the
    /// deadline-aware policy is measured against.
    None,
    /// Reject a request at arrival if its estimated completion would bust
    /// its latency budget. The batch class's effective budget is capped at
    /// `batch_headroom ×` the latency-sensitive target — a fraction below
    /// 1.0, so as backlog builds batch traffic runs out of budget *first*
    /// and the remaining capacity is reserved for latency-sensitive
    /// requests, whose p99 holds through the overload knee.
    DeadlineAware {
        /// Batch-class budget cap as a multiple of the latency-sensitive
        /// SLO target (default 0.5: batch admitted only while the
        /// estimated completion fits in half the latency-sensitive
        /// budget).
        batch_headroom: f64,
    },
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl::DeadlineAware {
            batch_headroom: 0.5,
        }
    }
}

/// A factory producing one fresh controller per replica engine (each
/// replica runs its own independent control loop).
type ControllerFactory = Box<dyn Fn() -> Box<dyn Controller>>;

/// Builds a [`Fleet`]: replica count, per-replica sharding, balancer
/// policy, SLO targets, admission control, journaling, affinity routing,
/// optional per-replica adaptive control.
#[must_use = "a builder does nothing until .build()"]
pub struct FleetBuilder {
    config: EcssdConfig,
    replicas: usize,
    shards_per_replica: usize,
    policy: ServePolicy,
    queue_limit: usize,
    slo: SloTargets,
    admission: AdmissionControl,
    journal: Option<JournalConfig>,
    affinity_routing: bool,
    controller: Option<ControllerFactory>,
}

impl std::fmt::Debug for FleetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBuilder")
            .field("replicas", &self.replicas)
            .field("shards_per_replica", &self.shards_per_replica)
            .field("policy", &self.policy)
            .field("controller", &self.controller.is_some())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// The batch policy every replica engine starts with unless
    /// [`FleetBuilder::policy`] sets another: batches of up to 8 requests,
    /// cut once the oldest has waited 400 µs (twice the engine's own
    /// default window, [`ServePolicy::default`]).
    pub const DEFAULT_POLICY: ServePolicy = ServePolicy {
        max_batch: 8,
        max_wait_us: 400,
    };

    /// The per-replica queue limit unless [`FleetBuilder::queue_limit`]
    /// sets another.
    pub const DEFAULT_QUEUE_LIMIT: usize = 64;

    /// Starts building a fleet over one device configuration (every shard
    /// of every replica is a clone of it).
    pub fn builder(config: EcssdConfig) -> FleetBuilder {
        FleetBuilder {
            config,
            replicas: 2,
            shards_per_replica: 1,
            policy: Fleet::DEFAULT_POLICY,
            queue_limit: Fleet::DEFAULT_QUEUE_LIMIT,
            slo: SloTargets::default(),
            admission: AdmissionControl::default(),
            journal: None,
            affinity_routing: true,
            controller: None,
        }
    }
}

impl FleetBuilder {
    /// Replica (engine group) count. Default 2; zero is rejected at build.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Shards (devices) per replica engine. Default 1.
    pub fn shards_per_replica(mut self, shards: usize) -> Self {
        self.shards_per_replica = shards;
        self
    }

    /// The batch policy every replica engine starts with. The fleet cuts
    /// each replica's queue under that engine's policy in force
    /// ([`ServeEngine::policy`]), so a controller's `SetPolicy` retunes
    /// it. Default [`Fleet::DEFAULT_POLICY`].
    pub fn policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shed ([`RejectReason::QueueFull`]) once a replica's queued and
    /// estimated in-flight requests exceed this count. Default
    /// [`Fleet::DEFAULT_QUEUE_LIMIT`].
    pub fn queue_limit(mut self, queue_limit: usize) -> Self {
        self.queue_limit = queue_limit;
        self
    }

    /// Per-class latency SLO targets (deadline defaults and violation
    /// accounting).
    pub fn slo(mut self, slo: SloTargets) -> Self {
        self.slo = slo;
        self
    }

    /// Admission-control policy. Default: deadline-aware with a batch
    /// headroom of 0.5 ([`AdmissionControl::default`]).
    pub fn admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Enable FTL journaling on every replica, so
    /// [`Fleet::crash_replica`] can recover one.
    pub fn journal(mut self, config: JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Route repeated queries to the same replica by feature hash (warms
    /// that replica's hot-row cache for the popularity head). Default on.
    pub fn affinity_routing(mut self, enabled: bool) -> Self {
        self.affinity_routing = enabled;
        self
    }

    /// Attach an adaptive control policy to every replica engine: the
    /// factory is called once per replica so each runs an independent
    /// controller over its own telemetry. The loops advance only when the
    /// host calls [`Fleet::control_tick`]. Default: none.
    pub fn controller<C, F>(mut self, factory: F) -> Self
    where
        C: Controller + 'static,
        F: Fn() -> C + 'static,
    {
        self.controller = Some(Box::new(move || Box::new(factory())));
        self
    }

    /// Validates the knobs and spawns every replica engine.
    ///
    /// # Errors
    ///
    /// Zero replicas are rejected ([`EcssdError::NoReplicas`]); engine
    /// construction failures propagate, a zero `max_batch`
    /// ([`EcssdError::ZeroMaxBatch`]) among them.
    pub fn build(self) -> Result<Fleet, EcssdError> {
        if self.replicas == 0 {
            return Err(EcssdError::NoReplicas);
        }
        let mut engines = Vec::with_capacity(self.replicas);
        for _ in 0..self.replicas {
            let mut b = ServeEngine::builder(self.config.clone())
                .shards(self.shards_per_replica)
                .policy(self.policy);
            if let Some(journal) = self.journal {
                b = b.journal(journal);
            }
            if let Some(factory) = &self.controller {
                b = b.controller(factory());
            }
            engines.push(b.build()?);
        }
        let n = self.replicas;
        Ok(Fleet {
            engines,
            queue_limit: self.queue_limit,
            slo: self.slo,
            admission: self.admission,
            affinity_routing: self.affinity_routing,
            fleet_epoch: 0,
            now_ns: 0,
            timelines: vec![Timeline::default(); n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            service_est_ns: 0.0,
            stale_served: 0,
            classes: [ClassAccum::default(), ClassAccum::default()],
            pending_update: None,
        })
    }
}

/// An admitted request waiting in a replica queue.
struct QueuedRequest {
    features: Vec<f32>,
    k: usize,
    class: QueryClass,
    arrival_ns: u64,
    /// Absolute completion deadline on the fleet clock.
    deadline_ns: u64,
}

/// Per-class accumulator behind [`ClassReport`].
#[derive(Debug, Default)]
struct ClassAccum {
    arrived: u64,
    admitted: u64,
    completed: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_unavailable: u64,
    slo_violations: u64,
    latencies_ns: Vec<u64>,
}

/// `R` replicated engines behind the SLO-aware balancer. Drive it by
/// [`Fleet::offer`]ing requests in arrival order (the fleet clock advances
/// with them), then [`Fleet::drain`] and [`Fleet::report`].
pub struct Fleet {
    engines: Vec<ServeEngine>,
    queue_limit: usize,
    slo: SloTargets,
    admission: AdmissionControl,
    affinity_routing: bool,
    /// The newest epoch any replica serves; only replicas *at* it are
    /// eligible for new requests.
    fleet_epoch: u64,
    /// The fleet clock, ns; advances with offered arrivals.
    now_ns: u64,
    /// Each replica's device occupancy: its batches, updates, control
    /// actions and recoveries, one after another.
    timelines: Vec<Timeline>,
    queues: Vec<VecDeque<QueuedRequest>>,
    /// EWMA per-query service estimate, ns (admission and backlog math).
    service_est_ns: f64,
    /// Requests served by a replica whose epoch was behind the fleet's —
    /// must stay 0 (routing excludes stale replicas).
    stale_served: u64,
    /// `[latency-sensitive, batch]`.
    classes: [ClassAccum; 2],
    /// In-progress rolling update: the staged batch and the next replica
    /// to update.
    pending_update: Option<(UpdateBatch, usize)>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("replicas", &self.engines.len())
            .field("fleet_epoch", &self.fleet_epoch)
            .field("now_ns", &self.now_ns)
            .finish_non_exhaustive()
    }
}

fn class_idx(class: QueryClass) -> usize {
    match class {
        QueryClass::LatencySensitive => 0,
        QueryClass::Batch => 1,
    }
}

/// splitmix64 over the first few feature bits: the affinity key that sends
/// a repeated query back to the replica whose cache it warmed.
fn feature_hash(features: &[f32]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &f in features.iter().take(16) {
        h = h.wrapping_add(u64::from(f.to_bits()));
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

impl Fleet {
    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.engines.len()
    }

    /// The newest commit epoch any replica serves.
    pub fn epoch(&self) -> u64 {
        self.fleet_epoch
    }

    /// The fleet clock, simulated ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Deploys `weights` to every replica. Deployment happens before the
    /// fleet clock starts; its device time is excluded from serving
    /// metrics.
    ///
    /// # Errors
    ///
    /// The first replica failure propagates.
    pub fn deploy(&mut self, weights: &DenseMatrix) -> Result<(), EcssdError> {
        for engine in &mut self.engines {
            engine.deploy(weights)?;
            self.fleet_epoch = self.fleet_epoch.max(engine.epoch());
        }
        Ok(())
    }

    /// Replica `r`'s batch window, ns, under its engine's policy.
    fn max_wait_ns(&self, r: usize) -> u64 {
        self.engines[r].policy().max_wait_us.saturating_mul(1_000)
    }

    /// When replica `r`'s device finishes the work it holds, ns.
    fn free_at(&self, r: usize) -> u64 {
        self.timelines[r].free_at().as_ns()
    }

    /// Offers one request to the fleet at its arrival time (requests must
    /// be offered in nondecreasing `arrival_ns` order; a request without
    /// one arrives "now"). Returns `Ok(None)` if admitted and enqueued, or
    /// `Ok(Some(reason))` if shed.
    ///
    /// # Errors
    ///
    /// Engine dispatch failures propagate (they indicate a broken fleet,
    /// not a sheddable request).
    pub fn offer(&mut self, request: Request) -> Result<Option<RejectReason>, EcssdError> {
        let arrival = request.arrival_ns.unwrap_or(self.now_ns).max(self.now_ns);
        self.advance_to(arrival)?;
        let ci = class_idx(request.class);
        self.classes[ci].arrived += 1;
        let deadline_ns = arrival
            + request
                .deadline_us
                .unwrap_or_else(|| self.slo.deadline_us(request.class))
                .saturating_mul(1_000);

        // Epoch-aware eligibility: a replica mid-rolling-deploy or behind
        // after crash recovery never sees new requests.
        let eligible: Vec<usize> = (0..self.engines.len())
            .filter(|&r| self.engines[r].epoch() == self.fleet_epoch)
            .collect();
        if eligible.is_empty() {
            self.classes[ci].shed_unavailable += 1;
            return Ok(Some(RejectReason::Unavailable));
        }

        // Route: least backlog, with an affinity preference unless it is
        // materially worse.
        let backlog = |fleet: &Fleet, r: usize| -> f64 {
            fleet.free_at(r).saturating_sub(arrival) as f64
                + fleet.queues[r].len() as f64 * fleet.service_est_ns
        };
        let mut target = eligible[0];
        for &r in &eligible {
            if backlog(self, r) < backlog(self, target) {
                target = r;
            }
        }
        if self.affinity_routing {
            let pref = eligible[(feature_hash(&request.features) % eligible.len() as u64) as usize];
            let slack = self.service_est_ns * self.engines[pref].policy().max_batch as f64;
            if backlog(self, pref) <= backlog(self, target) + slack {
                target = pref;
            }
        }

        // Queue limit: queued plus the in-flight work the device still owes.
        let in_flight = if self.service_est_ns > 0.0 {
            (self.free_at(target).saturating_sub(arrival) as f64 / self.service_est_ns).ceil()
                as usize
        } else {
            0
        };
        if self.queues[target].len() + in_flight > self.queue_limit {
            self.classes[ci].shed_queue_full += 1;
            return Ok(Some(RejectReason::QueueFull));
        }

        // Deadline-aware admission: estimate completion latency and check
        // it against the class budget.
        if let AdmissionControl::DeadlineAware { batch_headroom } = self.admission {
            let est_ns = self.max_wait_ns(target) as f64
                + self.free_at(target).saturating_sub(arrival) as f64
                + self.queues[target].len() as f64 * self.service_est_ns
                + self.service_est_ns * self.engines[target].policy().max_batch as f64;
            let own_budget_ns = deadline_ns.saturating_sub(arrival) as f64;
            let ls_target_ns = self.slo.latency_sensitive_us.saturating_mul(1_000) as f64;
            let ceiling_ns = match request.class {
                QueryClass::LatencySensitive => own_budget_ns,
                QueryClass::Batch => own_budget_ns.min(batch_headroom * ls_target_ns),
            };
            if est_ns > ceiling_ns {
                self.classes[ci].shed_deadline += 1;
                return Ok(Some(RejectReason::DeadlineUnmeetable));
            }
        }

        self.classes[ci].admitted += 1;
        self.queues[target].push_back(QueuedRequest {
            features: request.features,
            k: request.k,
            class: request.class,
            arrival_ns: arrival,
            deadline_ns,
        });
        if self.queues[target].len() >= self.engines[target].policy().max_batch {
            self.dispatch(target, arrival)?;
        }
        Ok(None)
    }

    /// Advances the fleet clock to `t`, dispatching every queue whose
    /// oldest request's wait window expires on the way (in due order, so
    /// replica interleaving is deterministic).
    fn advance_to(&mut self, t: u64) -> Result<(), EcssdError> {
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (r, queue) in self.queues.iter().enumerate() {
                if let Some(front) = queue.front() {
                    let due = front.arrival_ns + self.max_wait_ns(r);
                    if due <= t && best.is_none_or(|(d, _)| due < d) {
                        best = Some((due, r));
                    }
                }
            }
            let Some((due, r)) = best else { break };
            let at = self.now_ns.max(due);
            self.dispatch(r, at)?;
            self.now_ns = at;
        }
        self.now_ns = self.now_ns.max(t);
        Ok(())
    }

    /// Dispatches up to `max_batch` queued requests on replica `r` at fleet
    /// time `at_ns`, as one or more pre-formed engine batches (consecutive
    /// equal-`k` runs share a batch) cut under the replica's policy.
    fn dispatch(&mut self, r: usize, at_ns: u64) -> Result<(), EcssdError> {
        let policy = self.engines[r].policy();
        let take = self.queues[r].len().min(policy.max_batch);
        let mut taken: Vec<QueuedRequest> = self.queues[r].drain(..take).collect();
        if taken.is_empty() {
            return Ok(());
        }
        // The batcher only reads `k` and arrival stamps. Engine requests
        // carry no deadline: the fleet accounts SLOs on its own clock.
        let shapes: Vec<Request> = taken
            .iter()
            .map(|q| Request::new(Vec::new(), q.k).with_arrival_ns(q.arrival_ns))
            .collect();
        for span in split_batches(&shapes, policy.max_batch, self.max_wait_ns(r)) {
            let group = &mut taken[span];
            let requests: Vec<Request> = group
                .iter_mut()
                .map(|q| Request::new(std::mem::take(&mut q.features), q.k))
                .collect();
            let n = requests.len() as u64;
            let outcome = self.engines[r].submit_formed(requests)?.wait()?;
            let (_, done) = self.timelines[r].occupy(SimTime::from_ns(at_ns), outcome.sim_ns);
            let done = done.as_ns();
            if outcome.epoch < self.fleet_epoch {
                self.stale_served += n;
            }
            let per_query = outcome.sim_ns as f64 / n as f64;
            self.service_est_ns = if self.service_est_ns > 0.0 {
                0.3 * per_query + 0.7 * self.service_est_ns
            } else {
                per_query
            };
            for q in group.iter() {
                let ci = class_idx(q.class);
                let latency = done.saturating_sub(q.arrival_ns);
                self.classes[ci].completed += 1;
                self.classes[ci].latencies_ns.push(latency);
                if done > q.deadline_ns {
                    self.classes[ci].slo_violations += 1;
                }
            }
        }
        Ok(())
    }

    /// Flushes every replica queue (each batch dispatches at its due time
    /// or now, whichever is later). Call after the last offer so the
    /// report covers every admitted request.
    ///
    /// # Errors
    ///
    /// Engine dispatch failures propagate.
    pub fn drain(&mut self) -> Result<(), EcssdError> {
        for r in 0..self.queues.len() {
            self.flush(r)?;
        }
        Ok(())
    }

    /// Flushes replica `r`'s queue, each batch dispatching at its due time
    /// or now, whichever is later.
    fn flush(&mut self, r: usize) -> Result<(), EcssdError> {
        while let Some(front) = self.queues[r].front() {
            let at = self.now_ns.max(front.arrival_ns + self.max_wait_ns(r));
            self.dispatch(r, at)?;
        }
        Ok(())
    }

    /// Occupies replica `r` for `delta_ns` of device time from now (an
    /// update, a control action or a recovery) and refreshes the fleet
    /// epoch from its engine.
    fn charge(&mut self, r: usize, delta_ns: u64) {
        self.timelines[r].occupy(SimTime::from_ns(self.now_ns), delta_ns);
        self.fleet_epoch = self.fleet_epoch.max(self.engines[r].epoch());
    }

    /// Runs `op` on replica `r`'s engine and [charges](Self::charge) the
    /// device time it advanced the engine's clock by.
    fn charged<T>(
        &mut self,
        r: usize,
        op: impl FnOnce(&mut ServeEngine) -> Result<T, EcssdError>,
    ) -> Result<T, EcssdError> {
        let before = Classifier::elapsed(&self.engines[r]).as_ns();
        let out = op(&mut self.engines[r])?;
        let delta = Classifier::elapsed(&self.engines[r])
            .as_ns()
            .saturating_sub(before);
        self.charge(r, delta);
        Ok(out)
    }

    /// Begins a rolling deploy of `batch`: replicas are updated one at a
    /// time by [`Fleet::rolling_update_step`], and a replica being updated
    /// (or not yet updated once the first commit lands) is excluded from
    /// routing until it reaches the new epoch.
    ///
    /// # Errors
    ///
    /// A rolling update is already in progress
    /// ([`EcssdError::RollingUpdateInProgress`]).
    pub fn rolling_update_begin(&mut self, batch: UpdateBatch) -> Result<(), EcssdError> {
        if self.pending_update.is_some() {
            return Err(EcssdError::RollingUpdateInProgress);
        }
        self.pending_update = Some((batch, 0));
        Ok(())
    }

    /// Updates the next replica: flushes all queues, stages and commits the
    /// batch on that replica, charges its device the update time, and
    /// advances the fleet epoch. Returns `Ok(true)` while replicas remain.
    /// Interleave offers between steps to exercise mid-deploy routing —
    /// new requests only ever land on already-updated replicas.
    ///
    /// # Errors
    ///
    /// No rolling update in progress ([`EcssdError::NoRollingUpdate`]), or
    /// a stage/commit failure.
    pub fn rolling_update_step(&mut self) -> Result<bool, EcssdError> {
        let Some((batch, next)) = self.pending_update.take() else {
            return Err(EcssdError::NoRollingUpdate);
        };
        // Flush in-queue work first: those requests were admitted at the
        // old epoch and must not straddle the commit.
        self.drain()?;
        self.charged(next, |engine| {
            engine.stage_update(&batch)?;
            engine.commit_update()
        })?;
        let next = next + 1;
        if next < self.engines.len() {
            self.pending_update = Some((batch, next));
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Runs one control-loop iteration on every replica engine (see
    /// [`ServeEngine::control_tick`]): each replica's controller observes
    /// its own telemetry window and actuates on its own devices. Queues
    /// are flushed first so every window covers fully-answered work, and
    /// the fleet epoch is refreshed afterwards (a controller-triggered
    /// re-interleave commits like any update, and routing must not treat
    /// ticked replicas as stale). A `SetPolicy` changes how that
    /// replica's queue is cut from then on. Returns the actions per
    /// replica; all empty when no controller is attached.
    ///
    /// # Errors
    ///
    /// Queue-flush and engine actuation failures propagate.
    pub fn control_tick(&mut self) -> Result<Vec<Vec<ControlAction>>, EcssdError> {
        self.drain()?;
        let mut all = Vec::with_capacity(self.engines.len());
        for replica in 0..self.engines.len() {
            // Actuation (re-interleave staging/commit) advances the
            // device clock; charge it like an update step.
            all.push(self.charged(replica, ServeEngine::control_tick)?);
        }
        Ok(all)
    }

    /// Power-cuts one replica and recovers it from its journal. The
    /// replica's queue is flushed first; its device is charged the
    /// recovery time, and if recovery lands behind the fleet epoch the
    /// replica stays excluded from routing (visible as `epoch_lag` in the
    /// report) until a later update catches it up.
    ///
    /// # Errors
    ///
    /// An unknown replica ([`EcssdError::NoSuchReplica`]), or an engine
    /// recovery failure.
    pub fn crash_replica(
        &mut self,
        replica: usize,
        survived: Option<u64>,
    ) -> Result<RecoverySummary, EcssdError> {
        if replica >= self.engines.len() {
            return Err(EcssdError::NoSuchReplica {
                replica,
                replicas: self.engines.len(),
            });
        }
        self.flush(replica)?;
        let summary = self.engines[replica].crash_and_recover(survived)?;
        // Recovery never lands ahead of the fleet epoch, so refreshing
        // the fleet epoch here is a no-op.
        self.charge(replica, summary.recovery_ns_max);
        Ok(summary)
    }

    /// The fleet-wide metrics snapshot. Deterministic: two fleets driven
    /// by the same seed report identical snapshots.
    pub fn report(&self) -> FleetReport {
        let sim_elapsed_ns = (0..self.engines.len())
            .map(|r| self.free_at(r))
            .max()
            .unwrap_or(0)
            .max(self.now_ns);
        let class_report = |acc: &ClassAccum| -> ClassReport {
            let mut sorted = acc.latencies_ns.clone();
            sorted.sort_unstable();
            let good = acc.completed.saturating_sub(acc.slo_violations);
            ClassReport {
                arrived: acc.arrived,
                admitted: acc.admitted,
                completed: acc.completed,
                shed_queue_full: acc.shed_queue_full,
                shed_deadline: acc.shed_deadline,
                shed_unavailable: acc.shed_unavailable,
                slo_violations: acc.slo_violations,
                p50_us: percentile_us(&sorted, 0.50),
                p95_us: percentile_us(&sorted, 0.95),
                p99_us: percentile_us(&sorted, 0.99),
                goodput_qps: if sim_elapsed_ns == 0 {
                    0.0
                } else {
                    good as f64 * 1e9 / sim_elapsed_ns as f64
                },
            }
        };
        let per_replica = (0..self.engines.len())
            .map(|r| {
                let stats = Classifier::stats(&self.engines[r]);
                let epoch = self.engines[r].epoch();
                ReplicaReport {
                    queries: stats.queries,
                    batches: stats.batches,
                    utilization: if sim_elapsed_ns == 0 {
                        0.0
                    } else {
                        self.timelines[r].busy_ns() as f64 / sim_elapsed_ns as f64
                    },
                    epoch,
                    epoch_lag: self.fleet_epoch.saturating_sub(epoch),
                    cache_hit_rate: stats.cache.hit_rate(),
                    cache_misses: stats.cache.misses,
                }
            })
            .collect();
        FleetReport {
            replicas: self.engines.len(),
            fleet_epoch: self.fleet_epoch,
            sim_elapsed_ns,
            stale_served: self.stale_served,
            mixed_version_batches: self
                .engines
                .iter()
                .map(ServeEngine::mixed_version_batches)
                .sum(),
            latency_sensitive: class_report(&self.classes[0]),
            batch: class_report(&self.classes[1]),
            per_replica,
        }
    }
}

/// Per-QoS-class serving outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Requests offered.
    pub arrived: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Shed at the replica queue limit.
    pub shed_queue_full: u64,
    /// Shed by deadline-aware admission.
    pub shed_deadline: u64,
    /// Shed because no replica at the fleet epoch was available.
    pub shed_unavailable: u64,
    /// Completions past their deadline.
    pub slo_violations: u64,
    /// Median completion latency (arrival to batch completion), µs.
    pub p50_us: f64,
    /// 95th-percentile completion latency, µs.
    pub p95_us: f64,
    /// 99th-percentile completion latency, µs.
    pub p99_us: f64,
    /// In-SLO completions per simulated second.
    pub goodput_qps: f64,
}

/// Per-replica utilization and version state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Requests this replica served.
    pub queries: u64,
    /// Batches this replica executed.
    pub batches: u64,
    /// Busy device time (batches, updates, control actions and
    /// recoveries) over the fleet's simulated span.
    pub utilization: f64,
    /// Commit epoch the replica serves.
    pub epoch: u64,
    /// How far behind the fleet epoch the replica is (> 0 keeps it out of
    /// routing).
    pub epoch_lag: u64,
    /// Hot candidate-row cache hit rate on the replica's devices.
    pub cache_hit_rate: f64,
    /// Candidate rows the replica's devices read from flash: the hot-row
    /// cache's misses.
    pub cache_misses: u64,
}

/// The fleet-wide metrics snapshot ([`Fleet::report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Replica count.
    pub replicas: usize,
    /// The newest commit epoch any replica serves.
    pub fleet_epoch: u64,
    /// Simulated span of the run, ns.
    pub sim_elapsed_ns: u64,
    /// Requests served by a replica behind the fleet epoch (routing must
    /// keep this 0).
    pub stale_served: u64,
    /// Engine batches that mixed weight versions, summed over replicas
    /// (must stay 0).
    pub mixed_version_batches: u64,
    /// Latency-sensitive class outcomes.
    pub latency_sensitive: ClassReport,
    /// Batch class outcomes.
    pub batch: ClassReport,
    /// Per-replica utilization and version state.
    pub per_replica: Vec<ReplicaReport>,
}

#[cfg(test)]
#[path = "fleet_law.rs"]
mod law;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EcssdConfig {
        EcssdConfig::tiny_builder().build().unwrap()
    }

    fn query(d: usize, phase: f32) -> Vec<f32> {
        (0..d).map(|i| ((i as f32) * 0.13 + phase).sin()).collect()
    }

    fn offered(fleet: &mut Fleet, n: usize, gap_ns: u64) -> u64 {
        let mut shed = 0;
        for i in 0..n {
            let req = Request::new(query(32, i as f32 * 0.37), 3)
                .with_arrival_ns(i as u64 * gap_ns)
                .with_class(if i % 2 == 0 {
                    QueryClass::LatencySensitive
                } else {
                    QueryClass::Batch
                });
            if fleet.offer(req).unwrap().is_some() {
                shed += 1;
            }
        }
        fleet.drain().unwrap();
        shed
    }

    #[test]
    fn fleet_serves_everything_at_low_load() {
        let mut fleet = Fleet::builder(tiny())
            .replicas(2)
            .slo(SloTargets {
                latency_sensitive_us: 200_000,
                batch_us: 2_000_000,
            })
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        // Widely spaced arrivals: everything admitted, nothing violated.
        let shed = offered(&mut fleet, 24, 50_000_000);
        assert_eq!(shed, 0);
        let report = fleet.report();
        assert_eq!(report.latency_sensitive.arrived, 12);
        assert_eq!(report.batch.arrived, 12);
        assert_eq!(
            report.latency_sensitive.completed + report.batch.completed,
            24
        );
        assert_eq!(report.latency_sensitive.slo_violations, 0);
        assert_eq!(report.batch.slo_violations, 0);
        assert_eq!(report.stale_served, 0);
        assert_eq!(report.mixed_version_batches, 0);
        assert!(report.latency_sensitive.goodput_qps > 0.0);
        assert!(report.per_replica.iter().all(|r| r.epoch_lag == 0));
        // Both replicas took work.
        assert!(report.per_replica.iter().all(|r| r.queries > 0));
    }

    #[test]
    fn admission_sheds_batch_class_first_under_overload() {
        let slo = SloTargets {
            latency_sensitive_us: 5_000,
            batch_us: 10_000_000,
        };
        let mut fleet = Fleet::builder(tiny())
            .replicas(1)
            .slo(slo)
            .admission(AdmissionControl::DeadlineAware {
                batch_headroom: 0.5,
            })
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        // Back-to-back arrivals at ~0 spacing: far beyond one tiny
        // replica's capacity at a 5 ms latency-sensitive budget.
        let _ = offered(&mut fleet, 64, 1_000);
        let report = fleet.report();
        let ls = &report.latency_sensitive;
        let batch = &report.batch;
        assert!(
            batch.shed_deadline > 0,
            "overload must shed batch traffic: {batch:?}"
        );
        let ls_shed_frac = ls.shed_deadline as f64 / ls.arrived as f64;
        let batch_shed_frac = batch.shed_deadline as f64 / batch.arrived as f64;
        assert!(
            batch_shed_frac >= ls_shed_frac,
            "batch class must shed at least as hard: ls {ls_shed_frac} batch {batch_shed_frac}"
        );
    }

    #[test]
    fn no_admission_baseline_lets_latency_diverge() {
        let slo = SloTargets {
            latency_sensitive_us: 5_000,
            batch_us: 10_000_000,
        };
        let build = |admission| {
            let mut fleet = Fleet::builder(tiny())
                .replicas(1)
                .slo(slo)
                .admission(admission)
                .queue_limit(10_000)
                .build()
                .unwrap();
            fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
            // A burst one replica cannot serve within the LS SLO.
            let _ = offered(&mut fleet, 192, 1_000);
            fleet.report()
        };
        let managed = build(AdmissionControl::DeadlineAware {
            batch_headroom: 0.5,
        });
        let baseline = build(AdmissionControl::None);
        // The baseline admits (nearly) everything and its tail explodes;
        // admission keeps the served tail bounded.
        assert!(baseline.latency_sensitive.p99_us > managed.latency_sensitive.p99_us);
        assert!(baseline.latency_sensitive.slo_violations > 0);
    }

    #[test]
    fn rolling_update_keeps_stale_replicas_out_of_routing() {
        let mut fleet = Fleet::builder(tiny()).replicas(3).build().unwrap();
        fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let _ = offered(&mut fleet, 12, 10_000_000);
        let epoch_before = fleet.epoch();
        let update = UpdateBatch::new(32).replace(0, query(32, 9.9)).unwrap();
        assert!(matches!(
            fleet.rolling_update_step(),
            Err(EcssdError::NoRollingUpdate)
        ));
        fleet.rolling_update_begin(update.clone()).unwrap();
        assert!(matches!(
            fleet.rolling_update_begin(update),
            Err(EcssdError::RollingUpdateInProgress)
        ));
        let mut i = 0u64;
        loop {
            let more = fleet.rolling_update_step().unwrap();
            // Interleave offers mid-deploy: they must route to updated
            // replicas only.
            for j in 0..6 {
                let req = Request::new(query(32, (i * 6 + j) as f32), 3)
                    .with_arrival_ns(fleet.now_ns() + j * 1_000_000);
                let _ = fleet.offer(req).unwrap();
            }
            fleet.drain().unwrap();
            i += 1;
            if !more {
                break;
            }
        }
        let report = fleet.report();
        assert!(report.fleet_epoch > epoch_before);
        assert_eq!(report.stale_served, 0, "stale replica served mid-deploy");
        assert_eq!(report.mixed_version_batches, 0);
        assert!(report.per_replica.iter().all(|r| r.epoch_lag == 0));
    }

    #[test]
    fn crashed_replica_recovers_and_rejoins() {
        let mut fleet = Fleet::builder(tiny())
            .replicas(2)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let _ = offered(&mut fleet, 8, 10_000_000);
        assert!(matches!(
            fleet.crash_replica(2, None),
            Err(EcssdError::NoSuchReplica {
                replica: 2,
                replicas: 2
            })
        ));
        let summary = fleet.crash_replica(1, None).unwrap();
        assert!(summary.shards_consistent);
        // Journaled recovery restores the deploy epoch: the replica
        // rejoins routing immediately.
        let _ = offered(&mut fleet, 16, 10_000_000);
        let report = fleet.report();
        assert_eq!(report.stale_served, 0);
        assert_eq!(report.per_replica[1].epoch_lag, 0);
        assert!(report.per_replica[1].queries > 0);
    }

    #[test]
    fn updates_and_recoveries_count_as_busy_time() {
        let mut fleet = Fleet::builder(tiny())
            .replicas(2)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        fleet.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let deployed: Vec<u64> = fleet
            .engines
            .iter()
            .map(|e| Classifier::elapsed(e).as_ns())
            .collect();
        // No traffic: a rolling update over both replicas, then a crash.
        let update = UpdateBatch::new(32).replace(0, query(32, 9.9)).unwrap();
        fleet.rolling_update_begin(update).unwrap();
        while fleet.rolling_update_step().unwrap() {}
        fleet.crash_replica(1, None).unwrap();
        let report = fleet.report();
        for (r, replica) in report.per_replica.iter().enumerate() {
            let advance = Classifier::elapsed(&fleet.engines[r]).as_ns() - deployed[r];
            assert!(replica.utilization > 0.0, "replica {r}: {replica:?}");
            assert_eq!(
                replica.utilization,
                advance as f64 / report.sim_elapsed_ns as f64
            );
        }
    }

    #[test]
    fn invalid_fleet_construction_is_rejected() {
        assert!(matches!(
            Fleet::builder(tiny()).replicas(0).build(),
            Err(EcssdError::NoReplicas)
        ));
        assert!(matches!(
            Fleet::builder(tiny())
                .policy(ServePolicy {
                    max_batch: 0,
                    ..Fleet::DEFAULT_POLICY
                })
                .build(),
            Err(EcssdError::ZeroMaxBatch)
        ));
    }
}
