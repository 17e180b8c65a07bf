//! Typed classification requests: the QoS-aware request object every
//! frontend accepts, replacing the positional `(features, k)` pair.
//!
//! A [`Request`] carries the feature vector and top-`k` like before, plus
//! the serving metadata the fleet layer routes and admits on: a
//! [`QueryClass`] (latency-sensitive interactive traffic vs
//! deadline-tolerant batch traffic), an optional per-request deadline in
//! simulated microseconds, and an optional open-loop arrival timestamp.
//! `From<(Vec<f32>, usize)>` keeps the old positional call sites working:
//! `Request::from((features, k))` builds a default latency-sensitive
//! request with no deadline.

/// Quality-of-service class of a request (DeepRecSys-style split): the
/// fleet admits, routes, and sheds the two classes differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Interactive traffic with a tight deadline; shed last.
    LatencySensitive,
    /// Throughput-oriented background traffic with a loose deadline; under
    /// overload it is shed first to protect the latency-sensitive class.
    Batch,
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryClass::LatencySensitive => write!(f, "latency-sensitive"),
            QueryClass::Batch => write!(f, "batch"),
        }
    }
}

/// Why a request was rejected instead of answered (the typed payload of
/// [`crate::EcssdError::Rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// A fleet replica's queue was at its configured limit
    /// (`ecssd_serve::FleetBuilder::queue_limit`).
    QueueFull,
    /// Admission control predicted the deadline cannot be met and shed the
    /// request before it consumed device time.
    DeadlineUnmeetable,
    /// The request was served, but its answer completed after the deadline
    /// (simulated time); the late answer is dropped.
    DeadlineExceeded,
    /// No eligible replica: every replica was draining, recovering, or
    /// behind the fleet commit epoch.
    Unavailable,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "submission queue full"),
            RejectReason::DeadlineUnmeetable => {
                write!(f, "deadline unmeetable at admission")
            }
            RejectReason::DeadlineExceeded => write!(f, "answer missed the deadline"),
            RejectReason::Unavailable => write!(f, "no eligible replica"),
        }
    }
}

/// Per-class latency SLO targets in simulated microseconds. Used as the
/// default deadline for requests that do not carry their own, and as the
/// admission-control reference: batch traffic is shed once the predicted
/// queueing delay threatens the latency-sensitive target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTargets {
    /// Deadline for [`QueryClass::LatencySensitive`] requests, µs.
    pub latency_sensitive_us: u64,
    /// Deadline for [`QueryClass::Batch`] requests, µs.
    pub batch_us: u64,
}

impl SloTargets {
    /// The deadline for `class`, µs.
    pub fn deadline_us(&self, class: QueryClass) -> u64 {
        match class {
            QueryClass::LatencySensitive => self.latency_sensitive_us,
            QueryClass::Batch => self.batch_us,
        }
    }
}

impl Default for SloTargets {
    fn default() -> Self {
        SloTargets {
            latency_sensitive_us: 2_000,
            batch_us: 50_000,
        }
    }
}

/// A typed classification request: features and top-`k`, plus the QoS
/// metadata the serving layers act on.
///
/// ```
/// use ecssd_core::{QueryClass, Request};
///
/// // Positional back-compat: a default latency-sensitive request.
/// let r: Request = (vec![0.0f32; 8], 5).into();
/// assert_eq!(r.k, 5);
/// assert_eq!(r.class, QueryClass::LatencySensitive);
///
/// // Full form, builder style.
/// let r = Request::new(vec![0.0f32; 8], 5)
///     .with_class(QueryClass::Batch)
///     .with_deadline_us(50_000)
///     .with_arrival_ns(1_000_000);
/// assert_eq!(r.deadline_us, Some(50_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The feature vector to classify.
    pub features: Vec<f32>,
    /// How many top categories to return.
    pub k: usize,
    /// QoS class (default [`QueryClass::LatencySensitive`]).
    pub class: QueryClass,
    /// Deadline in simulated µs from arrival; `None` uses the serving
    /// layer's per-class [`SloTargets`] default (or no deadline at all if
    /// none is configured).
    pub deadline_us: Option<u64>,
    /// Open-loop arrival time in simulated ns; set by arrival-process
    /// drivers, `None` for closed-loop callers.
    pub arrival_ns: Option<u64>,
}

impl Request {
    /// A latency-sensitive request with no deadline or arrival stamp.
    pub fn new(features: Vec<f32>, k: usize) -> Self {
        Request {
            features,
            k,
            class: QueryClass::LatencySensitive,
            deadline_us: None,
            arrival_ns: None,
        }
    }

    /// Sets the QoS class.
    #[must_use]
    pub fn with_class(mut self, class: QueryClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the deadline, simulated µs from arrival.
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Sets the open-loop arrival time, simulated ns.
    #[must_use]
    pub fn with_arrival_ns(mut self, arrival_ns: u64) -> Self {
        self.arrival_ns = Some(arrival_ns);
        self
    }
}

impl From<(Vec<f32>, usize)> for Request {
    fn from((features, k): (Vec<f32>, usize)) -> Self {
        Request::new(features, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_tuple_builds_default_request() {
        let r: Request = (vec![1.0f32, 2.0], 3).into();
        assert_eq!(r.features, vec![1.0, 2.0]);
        assert_eq!(r.k, 3);
        assert_eq!(r.class, QueryClass::LatencySensitive);
        assert_eq!(r.deadline_us, None);
        assert_eq!(r.arrival_ns, None);
    }

    #[test]
    fn slo_targets_resolve_per_class() {
        let slo = SloTargets::default();
        assert_eq!(
            slo.deadline_us(QueryClass::LatencySensitive),
            slo.latency_sensitive_us
        );
        assert_eq!(slo.deadline_us(QueryClass::Batch), slo.batch_us);
        assert!(slo.batch_us > slo.latency_sensitive_us);
    }
}
