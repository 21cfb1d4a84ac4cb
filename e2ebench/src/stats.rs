//! Small numeric helpers: quantiles, medians and a seeded generator for
//! arrival schedules.

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is clamped to
/// `[0, 1]`; an empty slice gives `None`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at p99: p99 needs 1000 samples, p90 needs 100.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples >= 1000 {
        0.99
    } else if samples >= 100 {
        0.90
    } else {
        0.50
    }
}

/// SplitMix64: a tiny seeded generator, so arrival schedules and
/// traffic picks depend on the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-self.unit().ln() / rate * 1e9) as u64
    }
}

/// Mixes a base seed with a stream label, so each input set gets an
/// independent seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let v = sorted(&[5.0, 1.0, 9.0, 3.0, 3.0, 8.0, 2.0]);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let x = quantile(&v, i as f64 / 100.0).unwrap();
            assert!(x >= last);
            last = x;
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(999), 0.90);
        assert_eq!(tail_quantile(99), 0.50);
        for n in [100usize, 999, 1000, 5000] {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 9.99, "{n} samples leave {beyond} beyond");
        }
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean_and_repeat_by_seed() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let n = 200_000;
        let mut total = 0u64;
        for _ in 0..n {
            let g = a.exp_gap_ns(1000.0);
            assert_eq!(g, b.exp_gap_ns(1000.0));
            total += g;
        }
        let mean_us = total as f64 / n as f64 / 1e3;
        assert!((mean_us - 1000.0).abs() < 10.0, "mean gap {mean_us} us");
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
    }
}
