//! Shared percentile estimator for latency reports.
//!
//! Every crate that summarizes a latency distribution (`ecssd-core`'s
//! host-path reports, `ecssd-serve`'s serving metrics) uses this one
//! definition, so a p99 means the same thing everywhere: linear
//! interpolation between closest ranks, the same estimator NumPy's default
//! `percentile` uses.

/// Percentile of `sorted_ns` with linear interpolation between closest
/// ranks: `p` in `[0, 1]` maps to fractional rank `p * (n - 1)` over the
/// sorted samples (so p50 of `[1, 100]` is 50.5, not 100).
///
/// `sorted_ns` must be sorted ascending; an empty slice yields 0.0.
pub fn percentile_ns(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted_ns.len() - 1) as f64;
    let lo = sorted_ns[rank.floor() as usize] as f64;
    let hi = sorted_ns[rank.ceil() as usize] as f64;
    lo + (hi - lo) * rank.fract()
}

/// [`percentile_ns`] scaled to microseconds.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    percentile_ns(sorted_ns, p) / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_zero() {
        assert_eq!(percentile_ns(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_ns(&[42_000], p), 42_000.0);
        }
    }

    #[test]
    fn interpolates_between_closest_ranks() {
        // p50 of two samples is their midpoint, not the upper one (the
        // nearest-rank estimator would return 100_000 here).
        assert!((percentile_ns(&[1_000, 100_000], 0.50) - 50_500.0).abs() < 1e-9);
        let s: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile_ns(&s, 0.50) - 50_500.0).abs() < 1e-9);
        assert!((percentile_ns(&s, 0.95) - 95_050.0).abs() < 1e-9);
        assert!((percentile_ns(&s, 1.0) - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_p_clamps() {
        let s = [10, 20, 30];
        assert_eq!(percentile_ns(&s, -1.0), 10.0);
        assert_eq!(percentile_ns(&s, 2.0), 30.0);
    }

    #[test]
    fn is_monotone_in_p() {
        let s: Vec<u64> = (0..37).map(|i| i * i * 100).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let v = percentile_ns(&s, i as f64 / 100.0);
            assert!(v >= last, "p={i}% regressed: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn us_is_ns_scaled() {
        let s = [1_000, 2_000, 10_000];
        assert!((percentile_us(&s, 0.5) - 2.0).abs() < 1e-12);
    }
}
