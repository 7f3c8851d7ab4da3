//! The benchmark's own arithmetic: order statistics, the sample-count rule
//! for percentiles, self-time subtraction and failure accounting.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method) does, so the spread printed here matches the one a reader
/// computes from the per-run values.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        ld => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * d.len() as f64).ceil() as usize;
    d[rank.clamp(1, d.len()) - 1]
}

/// Percentiles the report ladder offers, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Σ over `runs` of `run − base[key] − extra[key]`, in milliseconds.
///
/// This is how a layer's self time is taken from outside the program: the
/// same trace is run with and without the layer, and whatever else the
/// layer's run also did (the oracle pre-pass for SHM) is timed on its own
/// and subtracted.  A key missing from `base` or `extra` subtracts 0.
pub fn self_time_ms<K: Ord>(
    runs: &[(K, u64)],
    base: &BTreeMap<K, u64>,
    extra: &BTreeMap<K, u64>,
) -> f64 {
    runs.iter()
        .map(|(k, ns)| {
            *ns as f64
                - base.get(k).copied().unwrap_or(0) as f64
                - extra.get(k).copied().unwrap_or(0) as f64
        })
        .fold(0.0, |acc, x| acc + x)
        / 1e6
}

/// Attempted and failed operations of one run.  An operation is one `repro`
/// invocation or one simulation job; a correctness check that fails, a
/// non-zero exit, a panic and a watchdog trip each count one failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Operations stopped by the watchdog (also counted in `failed`).
    pub watchdog_trips: u64,
    /// One line per failure, for the report.
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Records `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.reasons.push(why.into());
    }

    /// Records one operation stopped by the watchdog.
    pub fn trip(&mut self, what: &str) {
        self.watchdog_trips += 1;
        self.fail(format!("watchdog: {what} did not finish"));
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the method
        // extrapolates beyond the data for tiny samples.
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_base_and_extra_per_key() {
        let runs = [("a", 5_000_000u64), ("b", 3_000_000), ("a", 4_000_000)];
        let base = BTreeMap::from([("a", 1_000_000u64), ("b", 2_000_000)]);
        let extra = BTreeMap::from([("a", 500_000u64)]);
        // (5 − 1 − 0.5) + (3 − 2) + (4 − 1 − 0.5) = 7 ms
        assert!((self_time_ms(&runs, &base, &extra) - 7.0).abs() < 1e-12);
        // An empty sum is +0, not the -0 that `Iterator::sum` gives floats.
        assert!(self_time_ms(&runs[..0], &base, &extra).is_sign_positive());
    }

    #[test]
    fn watchdog_trip_and_digest_mismatch_each_count_once() {
        let mut l = Ledger::default();
        l.attempt(8);
        l.trip("repro all --jobs 2");
        l.fail("stdout digest differs from the first run");
        l.attempt(2);
        assert_eq!(l.failed, 2);
        assert_eq!(l.watchdog_trips, 1);
        assert_eq!(l.reasons.len(), 2);
        assert!((l.fail_frac() - 0.2).abs() < 1e-12);
        assert_eq!(Ledger::default().fail_frac(), 0.0);
    }
}
