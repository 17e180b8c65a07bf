//! The recording side of the trace: a cheap cloneable [`Tracer`] handle
//! shared by every instrumented component.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{SimTime, Span, Stage};

/// Default bound on the number of retained spans per shard.
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// One shard's (or the unsharded handles') spans, bounded by the sink's
/// cap.
#[derive(Debug, Default)]
struct SpanBuffer {
    spans: Vec<Span>,
    dropped: u64,
}

#[derive(Debug)]
struct SinkState {
    /// Span buffers by shard label (`None` for unsharded handles). A
    /// buffer is created by the first handle for its shard and shared by
    /// that handle's clones.
    buffers: Mutex<BTreeMap<Option<u32>, Arc<Mutex<SpanBuffer>>>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    cap: usize,
}

impl SinkState {
    fn buffer(&self, shard: Option<u32>) -> Arc<Mutex<SpanBuffer>> {
        Arc::clone(locked(&self.buffers).entry(shard).or_default())
    }
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A handle components record spans and counters into.
///
/// `Tracer` is the whole hook API: instrumented components hold a clone and
/// call [`Tracer::record`] / [`Tracer::count`] on it. The default handle is
/// *disabled* — it holds no sink, and every recording call is a single
/// branch on a `None`, so tracing is zero-cost unless explicitly enabled.
/// All clones of an enabled handle share one sink; snapshots can be taken
/// from any clone.
///
/// Spans are bounded by a capacity (default [`DEFAULT_SPAN_CAP`]) per
/// shard: each [`Tracer::for_shard`] handle, and the unsharded handles
/// together, keep their own buffer, and spans past its cap are counted in
/// [`Tracer::dropped_spans`] instead of growing memory without bound. Shard
/// handles may record from parallel host threads; since a shard's buffer
/// sees only that shard's records, which spans are kept and which are
/// dropped depends only on each shard's own recording order, never on
/// thread timing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<SinkState>>,
    /// This handle's span buffer in the sink.
    buffer: Option<Arc<Mutex<SpanBuffer>>>,
    shard: Option<u32>,
}

impl Tracer {
    /// A disabled handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled handle with the default span capacity.
    pub fn enabled() -> Self {
        Tracer::with_capacity(DEFAULT_SPAN_CAP)
    }

    /// An enabled handle retaining at most `cap` spans per shard.
    pub fn with_capacity(cap: usize) -> Self {
        let sink = Arc::new(SinkState {
            buffers: Mutex::new(BTreeMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            cap,
        });
        Tracer {
            buffer: Some(sink.buffer(None)),
            sink: Some(sink),
            shard: None,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A clone of this handle that stamps `shard` on every span it records
    /// (used by the serving engine to label each worker's device spans).
    /// Every handle for one shard shares that shard's span buffer.
    pub fn for_shard(&self, shard: u32) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            buffer: self.sink.as_ref().map(|sink| sink.buffer(Some(shard))),
            shard: Some(shard),
        }
    }

    /// Records a span. Zero-length spans (`end <= start`) are discarded.
    #[inline]
    pub fn record(&self, mut span: Span) {
        let (Some(sink), Some(buffer)) = (&self.sink, &self.buffer) else {
            return;
        };
        if span.end <= span.start {
            return;
        }
        if span.shard.is_none() {
            span.shard = self.shard;
        }
        let mut buffer = locked(buffer);
        if buffer.spans.len() < sink.cap {
            buffer.spans.push(span);
        } else {
            buffer.dropped += 1;
        }
    }

    /// Records an unlabeled span for `stage` covering `[start, end)`.
    #[inline]
    pub fn span(&self, stage: Stage, start: SimTime, end: SimTime) {
        if self.sink.is_some() {
            self.record(Span::new(stage, start, end));
        }
    }

    /// Adds `n` to the named counter.
    #[inline]
    pub fn count(&self, key: &'static str, n: u64) {
        let Some(sink) = &self.sink else { return };
        *locked(&sink.counters).entry(key).or_insert(0) += n;
    }

    /// Snapshot of all recorded spans (empty if disabled): unsharded spans
    /// first, then shard 0, 1, …, each group in its recording order.
    pub fn spans(&self) -> Vec<Span> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let mut spans: Vec<Span> = Vec::new();
        for buffer in locked(&sink.buffers).values() {
            spans.extend_from_slice(&locked(buffer).spans);
        }
        // A span labeled with a shard by its recorder joins that shard's
        // group.
        spans.sort_by_key(|s| s.shard);
        spans
    }

    /// Snapshot of all counters (empty if disabled).
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.sink {
            Some(sink) => locked(&sink.counters)
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Spans recorded past a shard's capacity bound and therefore
    /// discarded, over all shards.
    pub fn dropped_spans(&self) -> u64 {
        match &self.sink {
            Some(sink) => locked(&sink.buffers)
                .values()
                .map(|buffer| locked(buffer).dropped)
                .sum(),
            None => 0,
        }
    }

    /// Discards all recorded spans and counters, keeping the sink enabled.
    pub fn clear(&self) {
        if let Some(sink) = &self.sink {
            for buffer in locked(&sink.buffers).values() {
                *locked(buffer) = SpanBuffer::default();
            }
            locked(&sink.counters).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(t: u64) -> SimTime {
        SimTime::from_ns(t)
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        t.span(Stage::HostLink, ns(0), ns(10));
        t.count("x", 3);
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.span(Stage::DramTransfer, ns(5), ns(9));
        u.count("hits", 2);
        t.count("hits", 1);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.counters(), vec![("hits".to_string(), 3)]);
    }

    #[test]
    fn shard_handle_stamps_spans() {
        let t = Tracer::enabled();
        let s1 = t.for_shard(1);
        s1.span(Stage::FlashBus, ns(0), ns(4));
        assert_eq!(t.spans()[0].shard, Some(1));
    }

    #[test]
    fn spans_group_by_shard_in_recording_order() {
        let t = Tracer::enabled();
        let (s0, s1) = (t.for_shard(0), t.for_shard(1));
        s1.span(Stage::FlashBus, ns(0), ns(4));
        s0.span(Stage::FlashRead, ns(9), ns(12));
        t.span(Stage::HostLink, ns(20), ns(21));
        s1.span(Stage::DramTransfer, ns(1), ns(2));
        s0.span(Stage::FlashBus, ns(3), ns(5));
        let order: Vec<_> = t.spans().iter().map(|s| (s.shard, s.start)).collect();
        assert_eq!(
            order,
            vec![
                (None, ns(20)),
                (Some(0), ns(9)),
                (Some(0), ns(3)),
                (Some(1), ns(0)),
                (Some(1), ns(1)),
            ]
        );
    }

    #[test]
    fn zero_length_spans_discarded() {
        let t = Tracer::enabled();
        t.span(Stage::HostLink, ns(7), ns(7));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn the_cap_drops_the_same_spans_whatever_the_thread_interleaving() {
        // Each shard records five spans, three past a cap of two, from its own
        // thread; the two runs join the threads in opposite orders.
        let run = |first: u32| {
            let t = Tracer::with_capacity(2);
            let record = |shard: u32| {
                let s = t.for_shard(shard);
                std::thread::spawn(move || {
                    for i in 0..5 {
                        s.span(Stage::FlashBus, ns(10 * u64::from(shard) + i), ns(100));
                    }
                })
            };
            record(first).join().unwrap();
            record(1 - first).join().unwrap();
            (t.spans(), t.dropped_spans())
        };
        let (spans, dropped) = run(0);
        assert_eq!((spans.clone(), dropped), run(1));
        assert_eq!(dropped, 6);
        let kept: Vec<_> = spans.iter().map(|s| (s.shard, s.start)).collect();
        assert_eq!(
            kept,
            vec![
                (Some(0), ns(0)),
                (Some(0), ns(1)),
                (Some(1), ns(10)),
                (Some(1), ns(11)),
            ]
        );
    }

    #[test]
    fn capacity_bounds_spans() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.span(Stage::HostLink, ns(i), ns(i + 1));
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped_spans(), 3);
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped_spans(), 0);
    }
}
