//! Order statistics over raw samples, by exact rank.
//!
//! Every percentile here is read straight off the sorted samples (no
//! buckets), so a reported p50 or p99 is a latency that was actually
//! measured, and each comes with the sample count behind it.

/// The value at percentile `p` (0 < p <= 100) by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or one that is not sorted ascending.
pub fn rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // p * n first: exact for integer p, where p / 100 * n can round up
    let idx = (p * n as f64 / 100.0).ceil() as usize;
    idx.clamp(1, n) - 1
}

/// Median by nearest rank (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    rank(&sorted(samples), 50.0)
}

/// A copy of `samples` sorted ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentile reported as "p99".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported: 99, or lower when there are too
    /// few samples for 99 to have ten beyond it.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples it was read from.
    pub n: usize,
}

/// Fewest samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The p99 by exact rank, lowered to the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it. `None` with fewer than
/// `TAIL_BEYOND + 1` samples, where no such percentile exists.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = rank_index(n, 99.0).min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: sorted[idx],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn rank_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(rank(&s, 50.0), 5.0);
        assert_eq!(rank(&s, 90.0), 9.0);
        assert_eq!(rank(&s, 91.0), 10.0);
        assert_eq!(rank(&s, 100.0), 10.0);
        assert_eq!(rank(&s, 0.1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "lower middle");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None, "no rank has ten beyond it");
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.n), (1.0, 11), "the only rank with ten beyond");
        // 100 samples: p99 has one beyond, so the tail drops to p90
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(ramp(100).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_is_p99_once_there_are_enough_samples() {
        // 1100 samples: the p99 rank (1089) has exactly 11 beyond it
        let t = tail(&ramp(1100)).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 1089.0);
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 4950.0));
    }

    #[test]
    fn tail_ignores_input_order_once_sorted() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        v = sorted(&v);
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 189.0);
        assert!(v.iter().filter(|&&x| x > t.value).count() >= TAIL_BEYOND);
    }
}
