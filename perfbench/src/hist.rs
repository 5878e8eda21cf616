//! A mergeable log-bucket latency histogram (std only).
//!
//! Values are non-negative integers (nanoseconds here). Values below
//! `2^SUB_BITS` get a bucket each; above that every power of two is split
//! into `2^SUB_BITS` equal sub-buckets, so a bucket's width is at most
//! 1/16 of its lower bound. Two histograms merge by adding bucket counts,
//! so per-thread or per-pass histograms combine without keeping samples.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for any `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-bucket histogram with exact count, sum, min and max.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index of `v`.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// The smallest value that falls in bucket `b`.
fn bucket_low(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let exp = b / SUB + u64::from(SUB_BITS) - 1;
    let sub = b % SUB;
    (1u64 << exp) | (sub << (exp - u64::from(SUB_BITS)))
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, or 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`); 0 without samples.
    /// Within its bucket the value is interpolated linearly by rank (the
    /// bucket's samples taken as evenly spread), then clamped to the
    /// observed range, so it stays inside the bucket of the exact answer.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let low = bucket_low(b) as f64;
                let high = if b + 1 < BUCKETS {
                    bucket_low(b + 1) as f64
                } else {
                    u64::MAX as f64
                };
                let at = ((rank - seen) as f64 - 0.5) / c as f64;
                return (low + (high - low) * at).clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Samples strictly above the `q`-quantile's rank: how many samples a
    /// reported percentile rests on in its tail.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).min(self.count);
        self.count - rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of a sorted sample.
    fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// A small deterministic generator (xorshift) spanning many decades.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let decades = x % 7;
                (x >> 8) % 10u64.pow(decades as u32 + 1)
            })
            .collect()
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        for b in 0..BUCKETS - 1 {
            let low = bucket_low(b);
            assert_eq!(bucket_of(low), b, "low bound of bucket {b}");
            let next = bucket_low(b + 1);
            assert!(next > low);
            assert_eq!(bucket_of(next - 1), b, "top of bucket {b}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_width_is_bounded_relative_to_value() {
        for v in [17u64, 100, 1_000, 123_456, 9_876_543_210] {
            let b = bucket_of(v);
            let width = bucket_low(b + 1) - bucket_low(b);
            assert!(width as f64 <= v as f64 / SUB as f64 + 1.0, "v={v}");
        }
    }

    #[test]
    fn merged_percentiles_match_sorted_array_within_one_bucket() {
        let parts: Vec<Vec<u64>> = (1..=4)
            .map(|s| samples(s * 7919, 5_000 + 997 * s as usize))
            .collect();
        let mut merged = Histogram::default();
        for part in &parts {
            let mut h = Histogram::default();
            for &v in part {
                h.record(v);
            }
            merged.merge(&h);
        }
        let mut all: Vec<u64> = parts.concat();
        all.sort_unstable();
        assert_eq!(merged.count(), all.len() as u64);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = sorted_quantile(&all, q);
            let got = merged.quantile(q);
            let (bg, be) = (bucket_of(got.floor() as u64), bucket_of(exact));
            assert!(
                bg.abs_diff(be) <= 1,
                "q={q}: histogram {got} (bucket {bg}) vs sorted {exact} (bucket {be})"
            );
        }
        let exact_mean = all.iter().map(|&v| v as f64).sum::<f64>() / all.len() as f64;
        assert!((merged.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0));
    }

    #[test]
    fn merge_order_does_not_matter() {
        let (a, b) = (samples(3, 2_000), samples(5, 3_000));
        let mut ab = Histogram::default();
        let mut ba = Histogram::default();
        for &v in a.iter().chain(&b) {
            ab.record(v);
        }
        for &v in b.iter().chain(&a) {
            ba.record(v);
        }
        for q in [0.5, 0.99] {
            assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }
}
