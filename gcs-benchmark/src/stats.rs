//! Order statistics, the seed-driven generator, and delivery-gap
//! arithmetic shared by every workload.

/// SplitMix64: the benchmark's only source of randomness. Inputs are a
/// pure function of `--seed`, so two runs with one seed submit the same
/// bytes in the same order.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` ≥ 1; the modulo bias is irrelevant
    /// at the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so a
/// spread computed here is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let x = values.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the steadiness
/// measure the benchmark's bounds are written against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / m).abs()
}

/// The longest interval inside `[from, to]` during which no delivery
/// arrived, given ascending arrival instants (all in one time base).
/// The window's own edges count as boundaries, so an outage that runs
/// into the end of the window is still seen.
pub fn longest_gap(arrivals: &[u64], from: u64, to: u64) -> u64 {
    let mut last = from;
    let mut longest = 0;
    for &t in arrivals.iter().filter(|t| (from..=to).contains(*t)) {
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(to.saturating_sub(last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_repeats_by_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
        let f: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile_of(&f, 90.0), 18.0);
        assert_eq!(percentile_of(&f, 10.0), 2.0);
        assert_eq!(percentile_of(&[], 10.0), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let (q1, q3) = quartiles(&[30.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 30.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn longest_gap_counts_window_edges() {
        // Deliveries at 10, 20, 70, 80 in a window [0, 100]: the outage
        // is the 50 between 20 and 70.
        assert_eq!(longest_gap(&[10, 20, 70, 80], 0, 100), 50);
        // An outage that never ends inside the window runs to its edge.
        assert_eq!(longest_gap(&[10, 20], 0, 100), 80);
        // Arrivals outside the window are ignored.
        assert_eq!(longest_gap(&[5, 50, 150], 40, 100), 50);
        assert_eq!(longest_gap(&[], 0, 100), 100);
    }
}
