//! Property tests pinning the latency histogram's accuracy contract:
//! a quantile reported from log₂ buckets (as the containing bucket's
//! midpoint) stays within a factor of 2 of the exact sample quantile —
//! in BOTH directions — for any sample set of ≥ 1 µs latencies.
//!
//! Why ≥ 1 µs: bucket 0 collapses all sub-microsecond samples to a
//! 0.5 µs midpoint, where no relative bound is possible (a 1 ns sample
//! would be over-reported 500×). Serving latencies are far above this.

use proptest::prelude::*;
use std::time::Duration;
use wino_serve::LatencyHistogram;

/// The exact `q`-quantile of `samples` under the histogram's own rank
/// rule (`rank = ceil(q·n)`, clamped to ≥ 1), computed from the sorted
/// samples directly.
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every sample set and every quantile, the histogram's answer
    /// is within 2× of the exact answer — the ≤2× relative-error bound
    /// the midpoint read-out guarantees (the true ratio is even tighter,
    /// in [0.75, 1.5], because the exact sample shares the reported
    /// bucket; the pinned bound leaves headroom, not slack in the
    /// implementation).
    #[test]
    fn midpoint_quantiles_stay_within_2x_of_exact(
        samples_us in prop::collection::vec(1u64..10_000_000, 50),
        q_milli in 0u64..=1000,
    ) {
        let q = q_milli as f64 / 1000.0;
        let mut h = LatencyHistogram::new();
        for &us in &samples_us {
            h.record(Duration::from_micros(us));
        }
        let exact_us = exact_quantile(&samples_us, q) as f64;
        let reported_us = h.quantile(q).as_secs_f64() * 1e6;
        prop_assert!(
            reported_us <= 2.0 * exact_us && exact_us <= 2.0 * reported_us,
            "q={q}: reported {reported_us} µs vs exact {exact_us} µs exceeds 2x"
        );
    }

    /// The mean needs no bucket approximation at all (the histogram
    /// keeps an exact sum), so it must match to microsecond rounding.
    #[test]
    fn histogram_mean_is_exact_to_rounding(
        samples_us in prop::collection::vec(1u64..1_000_000, 20),
    ) {
        let mut h = LatencyHistogram::new();
        for &us in &samples_us {
            h.record(Duration::from_micros(us));
        }
        let exact = samples_us.iter().sum::<u64>() / samples_us.len() as u64;
        prop_assert_eq!(h.mean(), Duration::from_micros(exact));
    }

    /// Merging is exact: two histograms merged equal one histogram fed
    /// both sample sets — every bucket count, the total and the sum.
    #[test]
    fn merge_equals_recording_both_sample_sets(
        a_ns in prop::collection::vec(0u64..10_000_000_000, 30),
        b_ns in prop::collection::vec(0u64..10_000_000_000, 17),
    ) {
        let fill = |samples: &[u64], h: &mut LatencyHistogram| {
            for &ns in samples {
                h.record(Duration::from_nanos(ns));
            }
        };
        let (mut merged, mut b, mut both) =
            (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        fill(&a_ns, &mut merged);
        fill(&b_ns, &mut b);
        merged.merge(&b);
        fill(&a_ns, &mut both);
        fill(&b_ns, &mut both);
        prop_assert_eq!(merged, both);
    }
}
