//! Log-bucketed histogram with bounded relative error and exact merge.
//!
//! [`LogHistogram`] replaces the fixed 1-second-bin percentile path that
//! quantized every reported response-time percentile to whole seconds.
//! Values are recorded in integer **ticks** (1 tick = 1 µs) and bucketed
//! HDR-style: the first 128 ticks get exact unit buckets, and every
//! octave above that is split into 64 sub-buckets, so above the linear
//! range the bucket half-width never exceeds `1/128` of the value — a
//! guaranteed relative error below **0.79 %** for any quantile query
//! (see [`REL_ERROR`]); within the linear range the error is absolute
//! and at most half a tick (0.5 µs).
//!
//! Merging is *exact*: bucket counts, totals and the (128-bit) tick sum
//! add component-wise, so merging per-shard histograms yields the same
//! histogram as recording the concatenated stream — a property the
//! parallel experiment executor relies on and the property tests pin.

/// Sub-bucket resolution: `2^SUB_BITS` unit buckets in the linear range,
/// `2^(SUB_BITS-1)` sub-buckets per octave above it.
const SUB_BITS: u32 = 7;
/// Size of the exact linear range (`[0, LINEAR)` ticks).
const LINEAR: u64 = 1 << SUB_BITS;
/// Sub-buckets per octave above the linear range.
const PER_OCTAVE: usize = (LINEAR / 2) as usize;

/// Ticks per second: values are stored at microsecond resolution.
pub const TICKS_PER_SEC: f64 = 1_000_000.0;

/// Worst-case relative error of a quantile estimate: half of one
/// sub-bucket width relative to the bucket's lowest value.
pub const REL_ERROR: f64 = 1.0 / LINEAR as f64;

/// A log-bucketed (HDR-like) histogram over non-negative values.
///
/// Construction is free; bucket storage grows lazily with the largest
/// recorded value (at most ~3.8 k buckets even for `u64::MAX` ticks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ticks: u128,
    min_ticks: u64,
    max_ticks: u64,
}

/// Bucket index for a tick value.
#[inline]
fn index_of(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        // v ∈ [2^msb, 2^(msb+1)); shifting by msb-6 lands in [64, 128).
        let msb = 63 - v.leading_zeros();
        let shift = msb - (SUB_BITS - 1);
        let base = LINEAR as usize + (msb - SUB_BITS) as usize * PER_OCTAVE;
        base + ((v >> shift) as usize - PER_OCTAVE)
    }
}

/// Inclusive-low tick value and width of a bucket.
#[inline]
fn bucket_low_width(idx: usize) -> (u64, u64) {
    if idx < LINEAR as usize {
        (idx as u64, 1)
    } else {
        let octave = (idx - LINEAR as usize) / PER_OCTAVE;
        let pos = (idx - LINEAR as usize) % PER_OCTAVE;
        let shift = octave as u32 + 1;
        (((PER_OCTAVE + pos) as u64) << shift, 1u64 << shift)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            total: 0,
            sum_ticks: 0,
            min_ticks: u64::MAX,
            max_ticks: 0,
        }
    }

    /// Record a value in ticks.
    pub fn record_ticks(&mut self, v: u64) {
        let idx = index_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ticks += v as u128;
        self.min_ticks = self.min_ticks.min(v);
        self.max_ticks = self.max_ticks.max(v);
    }

    /// Record a value in seconds, rounded to the nearest tick (µs);
    /// negatives clamp to zero.
    pub fn record_secs(&mut self, secs: f64) {
        let ticks = if secs <= 0.0 || !secs.is_finite() {
            0
        } else {
            (secs * TICKS_PER_SEC).round() as u64
        };
        self.record_ticks(ticks);
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ticks as f64 / self.total as f64 / TICKS_PER_SEC
        }
    }

    /// Exact sum of all recorded values, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ticks as f64 / TICKS_PER_SEC
    }

    /// Smallest recorded value in seconds (`None` when empty).
    pub fn min_secs(&self) -> Option<f64> {
        (self.total > 0).then(|| self.min_ticks as f64 / TICKS_PER_SEC)
    }

    /// Largest recorded value in seconds (`None` when empty).
    pub fn max_secs(&self) -> Option<f64> {
        (self.total > 0).then(|| self.max_ticks as f64 / TICKS_PER_SEC)
    }

    /// Merge another histogram into this one. Exact: the result equals a
    /// histogram of both input streams concatenated.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ticks += other.sum_ticks;
        self.min_ticks = self.min_ticks.min(other.min_ticks);
        self.max_ticks = self.max_ticks.max(other.max_ticks);
    }

    /// `q`-quantile (`0 ≤ q ≤ 1`) in seconds, `None` when empty. The
    /// estimate is the midpoint of the bucket holding the target rank,
    /// so its relative error is bounded by [`REL_ERROR`] (plus half a
    /// tick of rounding at record time).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= target {
                let (low, width) = bucket_low_width(idx);
                return Some((low as f64 + width as f64 / 2.0) / TICKS_PER_SEC);
            }
        }
        unreachable!("cumulative count never reached total")
    }

    /// Non-empty buckets as `(upper_bound_secs, cumulative_count)` pairs
    /// in ascending order — the shape Prometheus histogram exposition
    /// wants for its `le` labels (the `+Inf` bucket is the caller's).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let (low, width) = bucket_low_width(idx);
            out.push(((low + width) as f64 / TICKS_PER_SEC, cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(bucket_low_width(v as usize), (v, 1));
        }
    }

    #[test]
    fn index_and_decode_are_consistent() {
        // Every bucket's low value must map back to the same bucket, and
        // so must its highest contained value. The last representable
        // bucket is index_of(u64::MAX); its top edge is exactly u64::MAX.
        let last = index_of(u64::MAX);
        for idx in 0..=last {
            let (low, width) = bucket_low_width(idx);
            assert_eq!(index_of(low), idx, "low of bucket {idx}");
            assert_eq!(index_of(low + (width - 1)), idx, "high of bucket {idx}");
            match low.checked_add(width) {
                Some(next) => assert_eq!(index_of(next), idx + 1, "next after bucket {idx}"),
                None => assert_eq!(idx, last, "only the top bucket may end at u64::MAX"),
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Above the linear range the error is relative; within it,
        // absolute (half a tick).
        for &v in &[128u64, 129, 1000, 7_200_000, 123_456_789, u64::MAX / 3] {
            let (low, width) = bucket_low_width(index_of(v));
            let mid = low as f64 + width as f64 / 2.0;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= REL_ERROR, "v={v}: err {err}");
        }
        for &v in &[0u64, 1, 17, 127] {
            let (low, width) = bucket_low_width(index_of(v));
            let mid = low as f64 + width as f64 / 2.0;
            assert!((mid - v as f64).abs() <= 0.5, "v={v}");
        }
    }

    #[test]
    fn quantiles_track_exact_values() {
        let mut h = LogHistogram::new();
        // Response times around 7.2 s with millisecond spread.
        for i in 0..1000u64 {
            h.record_secs(7.2 + i as f64 * 1e-4);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 7.25).abs() < 7.25 * 2.0 * REL_ERROR, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 7.299).abs() < 7.3 * 2.0 * REL_ERROR, "p99 {p99}");
        // Sub-second resolution: the estimate is nowhere near the 0.5 s
        // quantization the old fixed-bin histogram imposed.
        assert!((p50 - 7.5).abs() > 0.1);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        h.record_secs(1.0);
        h.record_secs(2.0);
        h.record_secs(6.0);
        assert!((h.mean_secs() - 3.0).abs() < 1e-9);
        assert_eq!(h.min_secs(), Some(1.0));
        assert_eq!(h.max_secs(), Some(6.0));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn merge_is_exact() {
        let vals: Vec<u64> = (0..500).map(|i| (i * i * 37 + 11) % 10_000_000).collect();
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record_ticks(v);
            if i % 3 == 0 {
                a.record_ticks(v);
            } else {
                b.record_ticks(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_and_negative_handling() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min_secs(), None);
        h.record_secs(-3.0);
        assert_eq!(h.quantile(0.5), Some(0.5 / TICKS_PER_SEC));
    }

    #[test]
    fn cumulative_buckets_reach_total() {
        let mut h = LogHistogram::new();
        for v in [5u64, 5, 1000, 2_000_000] {
            h.record_ticks(v);
        }
        let b = h.cumulative_buckets();
        assert_eq!(b.last().unwrap().1, h.total());
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }
}
