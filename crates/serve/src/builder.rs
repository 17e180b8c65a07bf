//! The validating [`ServeEngineBuilder`]: the one construction path of a
//! [`ServeEngine`].

use ecssd_control::Controller;
use ecssd_core::{EcssdConfig, EcssdError, SloTargets};
use ecssd_screen::ThresholdPolicy;
use ecssd_ssd::JournalConfig;
use ecssd_trace::Tracer;

use crate::engine::{EngineOptions, ServeEngine, ServePolicy};

/// Builds a [`ServeEngine`] in one validated step.
///
/// The builder collects every knob first and [`ServeEngineBuilder::build`]
/// validates and applies them in one place:
///
/// ```
/// use ecssd_core::{EcssdConfig, SloTargets};
/// use ecssd_serve::{ServeEngine, ServePolicy};
///
/// # fn main() -> Result<(), ecssd_core::EcssdError> {
/// let config = EcssdConfig::tiny_builder().build()?;
/// let engine = ServeEngine::builder(config)
///     .shards(2)
///     .policy(ServePolicy::default())
///     .tracing(true)
///     .slo(SloTargets::default())
///     .build()?;
/// assert_eq!(engine.shards(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use = "a builder does nothing until .build()"]
pub struct ServeEngineBuilder {
    config: EcssdConfig,
    shards: usize,
    policy: ServePolicy,
    tracing: bool,
    journal: Option<JournalConfig>,
    threshold: Option<ThresholdPolicy>,
    slo: Option<SloTargets>,
    controller: Option<Box<dyn Controller>>,
}

impl std::fmt::Debug for ServeEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngineBuilder")
            .field("shards", &self.shards)
            .field("policy", &self.policy)
            .field("tracing", &self.tracing)
            .field("controller", &self.controller.as_ref().map(|c| c.name()))
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Starts building an engine over one device configuration (every
    /// shard device is a clone of it).
    pub fn builder(config: EcssdConfig) -> ServeEngineBuilder {
        ServeEngineBuilder {
            config,
            shards: 1,
            policy: ServePolicy::default(),
            tracing: false,
            journal: None,
            threshold: None,
            slo: None,
            controller: None,
        }
    }
}

impl ServeEngineBuilder {
    /// Shard (device) count. Default 1; zero is rejected at build time.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Batch-formation policy ([`ServePolicy`]).
    pub fn policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Collect per-stage spans on every shard device; the report then
    /// carries a [`ecssd_trace::StageBreakdown`].
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Enable FTL metadata journaling on every shard at construction, so
    /// the initial deployment is already recoverable
    /// ([`ServeEngine::crash_and_recover`]).
    pub fn journal(mut self, config: JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Screening threshold installed on every shard before any query runs.
    pub fn filter_threshold(mut self, policy: ThresholdPolicy) -> Self {
        self.threshold = Some(policy);
        self
    }

    /// Hot candidate-row cache capacity per shard device, bytes (overrides
    /// the value in the device config).
    pub fn hot_cache_bytes(mut self, bytes: u64) -> Self {
        self.config.ssd.hot_cache_bytes = bytes;
        self
    }

    /// Per-class latency SLOs: a typed request
    /// ([`ServeEngine::classify_requests`], [`ServeEngine::submit_formed`])
    /// without its own deadline is stamped with its class target, and
    /// answers completing past it are rejected
    /// ([`ecssd_core::RejectReason::DeadlineExceeded`]). Default: no
    /// deadlines.
    pub fn slo(mut self, targets: SloTargets) -> Self {
        self.slo = Some(targets);
        self
    }

    /// Attaches an adaptive control policy. The engine itself only
    /// gathers telemetry and applies actions when the host calls
    /// [`ServeEngine::control_tick`] — an attached-but-never-ticked (or
    /// absent) controller costs nothing and changes nothing. Default:
    /// none.
    pub fn controller(mut self, controller: impl Controller + 'static) -> Self {
        self.controller = Some(Box::new(controller));
        self
    }

    /// Validates every knob and builds the engine's shard devices.
    ///
    /// # Errors
    ///
    /// Rejects an invalid device config ([`EcssdError::Config`]), zero
    /// shards ([`EcssdError::NoShards`]), a zero `max_batch`
    /// ([`EcssdError::ZeroMaxBatch`]), and an invalid threshold policy.
    pub fn build(self) -> Result<ServeEngine, EcssdError> {
        let opts = EngineOptions {
            tracer: self.tracing.then(Tracer::enabled),
            slo: self.slo,
            controller: self.controller,
        };
        let mut engine = ServeEngine::build(self.config, self.shards, self.policy, opts)?;
        if let Some(journal) = self.journal {
            engine.enable_journal(journal)?;
        }
        if let Some(threshold) = self.threshold {
            engine.filter_threshold(threshold)?;
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecssd_screen::DenseMatrix;

    fn tiny() -> EcssdConfig {
        EcssdConfig::tiny_builder().build().unwrap()
    }

    #[test]
    fn builder_defaults_match_plain_construction() {
        let engine = ServeEngine::builder(tiny()).build().unwrap();
        assert_eq!(engine.shards(), 1);
        assert!(engine.tracer().is_none());
    }

    #[test]
    fn builder_journal_makes_initial_deploy_recoverable() {
        let mut engine = ServeEngine::builder(tiny())
            .shards(2)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let summary = engine.crash_and_recover(None).unwrap();
        assert!(summary.shards_consistent);
        assert_eq!(summary.epoch_after, summary.epoch_before);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin()).collect();
        assert_eq!(engine.classify_batch(&[x], 3).unwrap()[0].len(), 3);
    }

    #[test]
    fn builder_threshold_is_installed_before_queries() {
        let mut engine = ServeEngine::builder(tiny())
            .filter_threshold(ThresholdPolicy::TopRatio(0.25))
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin()).collect();
        assert_eq!(engine.classify_batch(&[x], 3).unwrap()[0].len(), 3);
    }

    #[test]
    fn builder_invalid_threshold_fails_build() {
        let err = ServeEngine::builder(tiny())
            .filter_threshold(ThresholdPolicy::TopRatio(0.0))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_cache_override_reaches_devices() {
        let mut engine = ServeEngine::builder(tiny())
            .hot_cache_bytes(1 << 20)
            .build()
            .unwrap();
        engine.deploy(&DenseMatrix::random(400, 32, 3)).unwrap();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).cos()).collect();
        for _ in 0..3 {
            let _ = engine.classify_batch(std::slice::from_ref(&x), 3).unwrap();
        }
        let stats = engine.shard_cache_stats();
        assert_eq!(stats.len(), 1);
        // A 1 MiB cache on the tiny config sees traffic.
        assert!(stats[0].hits + stats[0].misses > 0);
    }
}
