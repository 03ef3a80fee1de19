//! Transaction arrival processes.
//!
//! The paper's transactions arrive at the control node "in the
//! exponential distribution of arrival rate λ" — a Poisson process.

use bds_des::dist::{Exponential, Sample};
use bds_des::rng::Xoshiro256;
use bds_des::time::{Duration, SimTime};

/// Poisson arrival process with rate λ in transactions per second.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    inter: Exponential,
    rng: Xoshiro256,
    next: SimTime,
}

impl PoissonArrivals {
    /// Create a process with the given rate (TPS) and its own RNG stream.
    ///
    /// # Panics
    /// Panics if `tps` is not finite and positive (a rate of zero means
    /// "no arrivals"; model that by not creating the process).
    pub fn new(tps: f64, rng: Xoshiro256) -> Self {
        // The Exponential is parameterized per millisecond.
        let inter = Exponential::new(tps / 1000.0);
        let mut this = PoissonArrivals {
            inter,
            rng,
            next: SimTime::ZERO,
        };
        this.advance();
        this
    }

    fn advance(&mut self) {
        let gap = self.inter.sample(&mut self.rng).max(0.0);
        self.next += Duration::from_millis_f64(gap);
    }

    /// Time of the next arrival.
    pub fn peek(&self) -> SimTime {
        self.next
    }

    /// Consume the next arrival time and advance the process.
    pub fn pop(&mut self) -> SimTime {
        let t = self.next;
        self.advance();
        t
    }

    /// Rate in TPS.
    pub fn tps(&self) -> f64 {
        self.inter.rate() * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_recovered_from_long_run() {
        let rng = Xoshiro256::seed_from_u64(77);
        let mut p = PoissonArrivals::new(1.2, rng);
        let horizon = SimTime::from_secs(100_000);
        let mut count = 0u64;
        while p.peek() < horizon {
            p.pop();
            count += 1;
        }
        let rate = count as f64 / horizon.as_secs_f64();
        assert!((rate - 1.2).abs() < 0.02, "measured {rate} TPS");
    }

    #[test]
    fn arrivals_are_monotone() {
        let rng = Xoshiro256::seed_from_u64(5);
        let mut p = PoissonArrivals::new(10.0, rng);
        let mut prev = SimTime::ZERO;
        for _ in 0..1000 {
            let t = p.pop();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = {
            let mut p = PoissonArrivals::new(1.0, Xoshiro256::seed_from_u64(9));
            (0..100).map(|_| p.pop()).collect()
        };
        let b: Vec<_> = {
            let mut p = PoissonArrivals::new(1.0, Xoshiro256::seed_from_u64(9));
            (0..100).map(|_| p.pop()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn tps_accessor() {
        let p = PoissonArrivals::new(0.8, Xoshiro256::seed_from_u64(1));
        assert!((p.tps() - 0.8).abs() < 1e-12);
    }
}
