//! Order statistics used by every report: nearest-rank percentiles, the
//! "at least ten samples beyond" tail rule, min-over-passes merging and the
//! quartiles `repeat.sh` judges spreads with.

/// A tail percentile is only reported when this many samples lie beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest-rank of percentile `pct` among `n` samples. Percentiles
/// are taken to a tenth, in integers: `0.999 * 10_000` is not 9 990 in
/// floating point.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// The highest ladder percentile with at least [`TAIL_SAMPLES_BEYOND`]
/// samples strictly above its rank; the median when even p75 has too few.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| n - nearest_rank(n, pct).min(n) >= TAIL_SAMPLES_BEYOND)
        .unwrap_or(50.0)
}

/// Folds one pass's per-call latencies into the running per-call minimum:
/// interference only ever adds time, so the minimum over passes is the
/// least-disturbed observation of each call.
pub fn merge_min(best: &mut [f64], pass: &[f64]) {
    for (slot, &value) in best.iter_mut().zip(pass) {
        if value < *slot {
            *slot = value;
        }
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median with midpoint interpolation (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), so `repeat.sh --seeds` computes the same
/// spread the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_pct_needs_ten_samples_beyond() {
        // p99 of 1000 calls is rank 990: exactly ten beyond.
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(10_000), 99.9);
        // p90 of 100 calls is rank 90: ten beyond; 99 calls only have nine.
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(99), 75.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(39), 50.0);
        assert_eq!(tail_pct(3), 50.0);
    }

    #[test]
    fn merge_min_keeps_the_fastest_observation_per_call() {
        let mut best = vec![f64::INFINITY; 3];
        merge_min(&mut best, &[5.0, 2.0, 9.0]);
        merge_min(&mut best, &[4.0, 3.0, 9.5]);
        assert_eq!(best, vec![4.0, 2.0, 9.0]);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
