//! Random variates for the paper's workloads.
//!
//! * [`Exponential`] — transaction inter-arrival times (`λ` in TPS).
//! * [`Normal`] — the I/O-demand estimation error of Experiment 3
//!   (`C = C0 · (1 + x)`, `x ~ N(0, σ²)`).
//! * [`Uniform`] — uniform reals in an interval.
//! * [`Discrete`] — sampling from an explicit weight table (used by
//!   extension workloads with skewed file popularity).

use crate::rng::Xoshiro256;

/// Sample a distribution with an explicit RNG.
pub trait Sample {
    /// Draw one variate.
    fn sample(&mut self, rng: &mut Xoshiro256) -> f64;
}

/// Exponential distribution with the given rate (events per unit time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create from a rate `λ > 0`.
    ///
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Exponential rate must be positive, got {rate}"
        );
        Exponential { rate }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Theoretical mean (`1/λ`).
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    fn sample(&mut self, rng: &mut Xoshiro256) -> f64 {
        // Inverse CDF on (0,1] avoids ln(0).
        -rng.next_f64_open().ln() / self.rate
    }
}

/// Normal distribution via the Box–Muller transform (caching the second
/// variate of each pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
    spare: Option<f64>,
}

impl Normal {
    /// Create from mean and standard deviation (`σ ≥ 0`).
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid Normal parameters: mean={mean}, std_dev={std_dev}"
        );
        Normal {
            mean,
            std_dev,
            spare: None,
        }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The cached Box–Muller spare variate, for checkpointing. `None` when
    /// the next [`Sample::sample`] call will draw a fresh pair.
    pub fn spare(&self) -> Option<f64> {
        self.spare
    }

    /// Restore the cached spare variate captured by [`Normal::spare`].
    pub fn set_spare(&mut self, spare: Option<f64>) {
        self.spare = spare;
    }
}

impl Sample for Normal {
    fn sample(&mut self, rng: &mut Xoshiro256) -> f64 {
        if let Some(z) = self.spare.take() {
            return self.mean + self.std_dev * z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.spare = Some(z1);
        self.mean + self.std_dev * z0
    }
}

/// Uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Create on `[low, high)`.
    ///
    /// # Panics
    /// Panics unless `low < high` and both are finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "invalid Uniform bounds [{low}, {high})"
        );
        Uniform { low, high }
    }
}

impl Sample for Uniform {
    fn sample(&mut self, rng: &mut Xoshiro256) -> f64 {
        self.low + (self.high - self.low) * rng.next_f64()
    }
}

/// Discrete distribution over indices `0..weights.len()` proportional to
/// the given non-negative weights (linear-scan inversion; the tables used
/// here are small).
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Build from a weight table.
    ///
    /// # Panics
    /// Panics if the table is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Discrete: empty weight table");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "Discrete: bad weight {w}");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "Discrete: all weights zero");
        for c in &mut cumulative {
            *c /= total;
        }
        Discrete { cumulative }
    }

    /// Draw an index.
    pub fn sample_index(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        match self.cumulative.iter().position(|&c| u < c) {
            Some(i) => i,
            // u can only reach the final bucket boundary through rounding.
            None => self.fallback_index(),
        }
    }

    /// Index drawn when rounding pushes `u` past every bucket boundary:
    /// the *last index with nonzero weight*. Trailing zero-weight entries
    /// repeat the previous cumulative value, so falling back to
    /// `len() - 1` could return an index that must never be drawn (e.g.
    /// weights `[1.0, 0.0]`).
    fn fallback_index(&self) -> usize {
        let mut i = self.cumulative.len() - 1;
        while i > 0 && self.cumulative[i] <= self.cumulative[i - 1] {
            i -= 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(2024)
    }

    #[test]
    fn exponential_mean_matches() {
        let mut d = Exponential::new(1.2);
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 0.01,
            "sample mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut d = Exponential::new(0.001);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn normal_moments_match() {
        let mut d = Normal::new(3.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_zero_sigma_is_constant() {
        let mut d = Normal::new(5.0, 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid Normal")]
    fn normal_rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut d = Uniform::new(-2.0, 3.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean() {
        let mut d = Uniform::new(0.0, 10.0);
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[1.0, 3.0, 0.0, 6.0]);
        let mut r = rng();
        let mut counts = [0u32; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[d.sample_index(&mut r)] += 1;
        }
        assert_eq!(counts[2], 0);
        let f1 = counts[1] as f64 / n as f64;
        let f3 = counts[3] as f64 / n as f64;
        assert!((f1 - 0.3).abs() < 0.01, "f1={f1}");
        assert!((f3 - 0.6).abs() < 0.01, "f3={f3}");
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn discrete_rejects_zero_weights() {
        Discrete::new(&[0.0, 0.0]);
    }

    #[test]
    fn normal_spare_round_trip_resumes_stream() {
        // Capture at every parity of the Box–Muller pair cache; the
        // restored sampler must produce the identical tail.
        let mut d = Normal::new(1.0, 2.0);
        let mut r = rng();
        for _ in 0..50 {
            let mut d2 = d;
            d2.set_spare(d.spare());
            let mut r2 = Xoshiro256::from_state(r.state());
            for _ in 0..7 {
                assert_eq!(d2.sample(&mut r2), d.sample(&mut r));
            }
        }
    }

    #[test]
    fn rounding_fallback_skips_trailing_zero_weights() {
        // The fallback index must always carry nonzero weight — falling
        // back to `len() - 1` would return a forbidden index whenever the
        // table ends in zero weights.
        assert_eq!(Discrete::new(&[1.0, 0.0]).fallback_index(), 0);
        assert_eq!(Discrete::new(&[0.5, 0.5, 0.0, 0.0]).fallback_index(), 1);
        assert_eq!(Discrete::new(&[1.0, 2.0]).fallback_index(), 1);
        assert_eq!(Discrete::new(&[0.0, 1.0]).fallback_index(), 1);
    }

    #[test]
    fn trailing_zero_weight_is_never_drawn() {
        let d = Discrete::new(&[1.0, 0.0]);
        let mut r = rng();
        for _ in 0..100_000 {
            assert_eq!(d.sample_index(&mut r), 0);
        }
    }
}
