//! Simulation configuration.

use bds_des::rng::Xoshiro256;
use bds_des::time::Duration;
use bds_fault::FaultPlan;
use bds_machine::CostBook;
use bds_sched::SchedulerKind;
use bds_workload::gen::{
    CustomPattern, Experiment1, Experiment2, WithEstimationError, WorkloadGen, EXP2_HOT_FILES,
    EXP2_READ_ONLY_FILES,
};
use bds_workload::pattern::Pattern;

/// Which workload to generate.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Experiment 1 (§5.1): Pattern 1 over `num_files` files.
    Exp1 {
        /// Number of files (paper default 16; Table 2 uses 8–64).
        num_files: u32,
    },
    /// Experiment 2 (§5.2): Pattern 2 over 8 read-only + 8 hot files.
    Exp2,
    /// Experiment 3 (§5.3): Experiment 1 with I/O-demand estimation
    /// error `C = C0 · (1 + x)`, `x ~ N(0, σ²)`.
    Exp3 {
        /// Number of files.
        num_files: u32,
        /// Standard deviation of the relative estimation error.
        sigma: f64,
    },
    /// A custom pattern over `num_files` uniformly chosen files.
    Custom {
        /// The step pattern.
        pattern: Pattern,
        /// Number of files.
        num_files: u32,
    },
}

impl WorkloadKind {
    /// Number of files in the database.
    pub fn num_files(&self) -> u32 {
        match self {
            WorkloadKind::Exp1 { num_files } | WorkloadKind::Exp3 { num_files, .. } => *num_files,
            WorkloadKind::Exp2 => EXP2_READ_ONLY_FILES + EXP2_HOT_FILES,
            WorkloadKind::Custom { num_files, .. } => *num_files,
        }
    }

    /// Check that [`WorkloadKind::build`] can build this workload: the
    /// patterns need as many distinct files as they have slots (two for
    /// Experiments 1 and 3), and σ must be finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        let (files, slots) = match self {
            WorkloadKind::Exp1 { num_files } => (*num_files, 2),
            WorkloadKind::Exp2 => return Ok(()),
            WorkloadKind::Exp3 { num_files, sigma } => {
                if !(sigma.is_finite() && *sigma >= 0.0) {
                    return Err(format!("bad sigma {sigma} (finite, >= 0)"));
                }
                (*num_files, 2)
            }
            WorkloadKind::Custom { pattern, num_files } => (*num_files, pattern.num_slots),
        };
        if (files as usize) < slots {
            return Err(format!(
                "file count {files} too small: the pattern needs {slots} distinct files"
            ));
        }
        Ok(())
    }

    /// Build the generator with its own RNG stream.
    ///
    /// # Panics
    /// Panics if [`WorkloadKind::validate`] refuses the workload.
    pub fn build(&self, rng: Xoshiro256) -> Box<dyn WorkloadGen> {
        match self {
            WorkloadKind::Exp1 { num_files } => Box::new(Experiment1::new(*num_files, rng)),
            WorkloadKind::Exp2 => Box::new(Experiment2::new(rng)),
            WorkloadKind::Exp3 { num_files, sigma } => {
                // Common random numbers: the inner Experiment-1 stream is
                // the *same* stream Exp1 would use, so an Exp3 run at any
                // σ generates the identical sequence of true workloads —
                // only the declared demands differ (the paper's
                // sensitivity test compares exactly this way). The error
                // stream is derived by re-seeding from a peeked output.
                let err_seed = rng.clone().next_u64() ^ 0x00E3_57A7_1C4E_5EED;
                Box::new(WithEstimationError::new(
                    Experiment1::new(*num_files, rng),
                    *sigma,
                    Xoshiro256::seed_from_u64(err_seed),
                ))
            }
            WorkloadKind::Custom { pattern, num_files } => {
                Box::new(CustomPattern::uniform(pattern.clone(), *num_files, rng))
            }
        }
    }
}

/// One simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Workload to generate.
    pub workload: WorkloadKind,
    /// Arrival rate in transactions per second (paper: 0 – 1.4).
    pub lambda_tps: f64,
    /// Degree of declustering (paper: 1, 2, 4, 8).
    pub dd: u32,
    /// Simulation horizon (paper: 2,000,000 clocks = 2,000 s).
    pub horizon: Duration,
    /// Master RNG seed.
    pub seed: u64,
    /// Multiprogramming-level cap (`None` = ∞, the paper's default;
    /// `Some(m)` is used for C2PL+M).
    pub mpl: Option<u32>,
    /// The machine's cost constants (Table 1).
    pub costs: CostBook,
    /// Delay after which blocked/delayed requests are re-submitted when
    /// no state-change event wakes them first ("submitted … after some
    /// delay").
    pub retry_delay: Duration,
    /// Delay before an aborted transaction (OPT validation failure) is
    /// re-submitted ("aborted … lock-requests are submitted … after some
    /// delay").
    pub restart_delay: Duration,
    /// Maximum admission tests per admission sweep (bounds the CN work
    /// spent scanning a long start queue; ASL's availability checks are
    /// free and scan the whole queue).
    pub admission_scan_limit: usize,
    /// Fault-injection plan (DPN crashes, CN stalls, link faults). The
    /// default is [`FaultPlan::none`], under which the simulator is
    /// byte-identical to a fault-free build.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A configuration with the paper's defaults (λ = 1.0 TPS, DD = 1,
    /// 2,000 s horizon, mpl = ∞).
    pub fn new(scheduler: SchedulerKind, workload: WorkloadKind) -> Self {
        SimConfig {
            scheduler,
            workload,
            lambda_tps: 1.0,
            dd: 1,
            horizon: Duration::from_millis(2_000_000),
            seed: 0x5EED_BA7C,
            mpl: None,
            costs: CostBook::default(),
            retry_delay: Duration::from_millis(1000),
            restart_delay: Duration::from_millis(1000),
            admission_scan_limit: 16,
            faults: FaultPlan::none(),
        }
    }

    /// Builder-style arrival rate.
    pub fn with_lambda(mut self, tps: f64) -> Self {
        self.lambda_tps = tps;
        self
    }

    /// Builder-style declustering degree.
    pub fn with_dd(mut self, dd: u32) -> Self {
        self.dd = dd;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style mpl cap (for C2PL+M).
    pub fn with_mpl(mut self, mpl: u32) -> Self {
        self.mpl = Some(mpl);
        self
    }

    /// Builder-style fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Canonical cache key for simulation-point memoization.
    ///
    /// Two configs with the same key produce byte-identical
    /// [`crate::metrics::SimReport`]s: the simulator is a pure function
    /// of the config, and every field (including nested cost constants
    /// and workload parameters) participates in the key. Floats are
    /// rendered through `Debug`, which in Rust prints the shortest
    /// round-trippable representation, so distinct bit patterns map to
    /// distinct keys.
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }

    /// Validate parameter ranges and the workload
    /// ([`WorkloadKind::validate`]). [`crate::Engine::new`] panics on
    /// the error; untrusted input (`bds-serve configure`) gets it as a
    /// refusal.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.lambda_tps > 0.0 && self.lambda_tps.is_finite()) {
            return Err(format!("lambda must be positive, got {}", self.lambda_tps));
        }
        if !(self.dd >= 1 && self.dd <= self.costs.num_nodes) {
            return Err(format!(
                "DD {} out of range 1..={}",
                self.dd, self.costs.num_nodes
            ));
        }
        if self.horizon.is_zero() {
            return Err("zero horizon".into());
        }
        if self.mpl == Some(0) {
            return Err("mpl cap must be positive".into());
        }
        self.workload.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
        assert_eq!(c.horizon.as_millis(), 2_000_000);
        assert_eq!(c.dd, 1);
        assert_eq!(c.mpl, None);
        assert_eq!(c.costs.num_nodes, 8);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp2)
            .with_lambda(1.2)
            .with_dd(4)
            .with_seed(7)
            .with_mpl(16);
        assert_eq!(c.lambda_tps, 1.2);
        assert_eq!(c.dd, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.mpl, Some(16));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn workload_num_files() {
        assert_eq!(WorkloadKind::Exp1 { num_files: 32 }.num_files(), 32);
        assert_eq!(WorkloadKind::Exp2.num_files(), 16);
        assert_eq!(
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 1.0
            }
            .num_files(),
            16
        );
    }

    #[test]
    fn workload_builds_generators() {
        let rng = Xoshiro256::seed_from_u64(1);
        let mut g = WorkloadKind::Exp1 { num_files: 16 }.build(rng.clone());
        assert_eq!(g.next_batch().len(), 4);
        let mut g = WorkloadKind::Exp2.build(rng.clone());
        assert_eq!(g.next_batch().len(), 3);
        let mut g = WorkloadKind::Exp3 {
            num_files: 16,
            sigma: 0.5,
        }
        .build(rng);
        assert_eq!(g.next_batch().len(), 4);
    }

    #[test]
    #[should_panic(expected = "DD 9 out of range")]
    fn validate_rejects_bad_dd() {
        let mut c = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
        c.dd = 9;
        c.validate().unwrap();
    }

    #[test]
    fn validate_refuses_workloads_the_generators_cannot_build() {
        let cfg = |w| SimConfig::new(SchedulerKind::Low(2), w);
        for w in [
            WorkloadKind::Exp1 { num_files: 1 },
            WorkloadKind::Exp3 {
                num_files: 1,
                sigma: 0.5,
            },
        ] {
            let err = cfg(w).validate().unwrap_err();
            assert!(err.contains("file count 1"), "{err}");
        }
        for sigma in [-1.0, f64::NAN, f64::INFINITY] {
            let w = WorkloadKind::Exp3 {
                num_files: 16,
                sigma,
            };
            assert!(cfg(w).validate().unwrap_err().contains("sigma"));
        }
        let w = WorkloadKind::Custom {
            pattern: Pattern::pattern1(),
            num_files: 1,
        };
        assert!(cfg(w).validate().is_err());
        assert_eq!(cfg(WorkloadKind::Exp1 { num_files: 2 }).validate(), Ok(()));
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let c = SimConfig::new(
            SchedulerKind::Low(2),
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 1.0,
            },
        );
        assert_eq!(c.cache_key(), c.clone().cache_key());
        // Every knob participates in the key.
        assert_ne!(c.cache_key(), c.clone().with_lambda(1.0000001).cache_key());
        assert_ne!(c.cache_key(), c.clone().with_dd(2).cache_key());
        assert_ne!(c.cache_key(), c.clone().with_seed(1).cache_key());
        assert_ne!(c.cache_key(), c.clone().with_mpl(4).cache_key());
        let mut d = c.clone();
        d.workload = WorkloadKind::Exp3 {
            num_files: 16,
            sigma: 2.0,
        };
        assert_ne!(c.cache_key(), d.cache_key());
        let mut e = d.clone();
        e.costs.num_nodes = 4;
        assert_ne!(d.cache_key(), e.cache_key());
        let f = d
            .clone()
            .with_faults(FaultPlan::parse("crash=0@100x10").unwrap());
        assert_ne!(d.cache_key(), f.cache_key());
    }
}
