//! # bds-fault — deterministic fault plans for the simulator
//!
//! The paper's machine is failure-free; production shared-nothing
//! deployments are not. This crate describes *what goes wrong and when*
//! as plain data — a [`FaultPlan`] — so that the simulator can inject
//! failures as ordinary DES events and every run remains a pure function
//! of its configuration:
//!
//! * **DPN crashes** ([`CrashFault`]): a data-processing node goes down
//!   at a given instant and recovers after a fixed downtime. In-flight
//!   cohorts on the node are lost; their parent transactions abort and
//!   retry under the plan's [`RetryPolicy`].
//! * **CN stalls** ([`CnStall`]): the control node freezes for a window;
//!   lock/commit messages queue but are not served until it ends.
//! * **Link faults** ([`LinkFaults`]): every cohort-dispatch message is
//!   delayed by a fixed interconnect latency and, with a configured
//!   probability, lost and redelivered after a timeout.
//!
//! Crash schedules can be given explicitly (`crash=node@at×down`) or
//! generated from per-node MTBF/MTTR exponentials seeded by the plan —
//! [`FaultPlan::timeline`] expands either form into one sorted list of
//! [`FaultAction`]s. An empty plan ([`FaultPlan::is_empty`]) injects
//! nothing and must leave the simulator byte-identical to a build
//! without this crate.
//!
//! Plans parse from compact command-line strings via
//! [`FaultPlan::parse`]; see that method for the grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bds_des::rng::Xoshiro256;
use bds_des::time::{Duration, SimTime};

/// One explicit DPN crash: `node` goes down at `at` and recovers at
/// `at + down_for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Index of the crashed data-processing node.
    pub node: u32,
    /// Instant the node fails.
    pub at: SimTime,
    /// Downtime; the node recovers at `at + down_for`.
    pub down_for: Duration,
}

/// One control-node stall window: the CN serves nothing during
/// `[at, at + stall_for)`; queued work resumes afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnStall {
    /// Instant the stall begins.
    pub at: SimTime,
    /// Length of the stall window.
    pub stall_for: Duration,
}

/// Interconnect fault model applied to every cohort-dispatch message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Fixed one-way delivery delay added to each dispatch message.
    pub delay: Duration,
    /// Per-message loss probability in permille (0..=1000). A lost
    /// message is redelivered once after [`LinkFaults::redeliver_after`].
    pub loss_per_mille: u32,
    /// Redelivery timeout for lost messages.
    pub redeliver_after: Duration,
}

impl LinkFaults {
    /// True when the link is perfect (no delay, no loss).
    pub fn is_perfect(&self) -> bool {
        self.delay.is_zero() && self.loss_per_mille == 0
    }
}

/// Exponential-backoff retry policy for fault-killed transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Cap on the backed-off delay.
    pub max_delay: Duration,
    /// Maximum fault kills a transaction survives; on the
    /// `max_attempts`-th kill it is dropped permanently.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: Duration::from_secs(2),
            max_delay: Duration::from_secs(60),
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// Backed-off delay before retry number `kill` (1-based: the first
    /// fault kill waits `base_delay`, the second `2 × base_delay`, …),
    /// capped at `max_delay`.
    pub fn delay_for(&self, kill: u32) -> Duration {
        let shift = kill.saturating_sub(1).min(32);
        let ms = self
            .base_delay
            .as_millis()
            .saturating_mul(1u64 << shift)
            .min(self.max_delay.as_millis());
        Duration::from_millis(ms)
    }
}

/// What to do with work destined for a crashed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Route the cohort to the next surviving node (replica read): the
    /// machine keeps full throughput minus the lost CPU.
    #[default]
    Reroute,
    /// Hold the cohort at the CN until the node recovers: the
    /// transaction stays live but makes no progress on that fragment.
    Hold,
}

/// A deterministic, seed-driven fault plan.
///
/// Embedded in the simulator configuration; equality and `Debug` are
/// part of the simulation cache key, so two configs with the same plan
/// memoize to the same point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault-side random draw (MTBF schedule expansion
    /// and link-loss coin flips). Independent of the workload seed.
    pub seed: u64,
    /// Explicit DPN crashes.
    pub crashes: Vec<CrashFault>,
    /// Explicit CN stall windows.
    pub cn_stalls: Vec<CnStall>,
    /// Interconnect fault model.
    pub link: LinkFaults,
    /// Retry policy for fault-killed transactions.
    pub retry: RetryPolicy,
    /// Placement policy while a node is down.
    pub degraded: DegradedMode,
    /// When set, generate additional crashes per node from an
    /// exponential(MTBF) / exponential(MTTR) renewal process seeded by
    /// [`FaultPlan::seed`].
    pub mtbf: Option<Duration>,
    /// Mean time to repair for MTBF-generated crashes.
    pub mttr: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            crashes: Vec::new(),
            cn_stalls: Vec::new(),
            link: LinkFaults::default(),
            retry: RetryPolicy::default(),
            degraded: DegradedMode::default(),
            mtbf: None,
            mttr: Duration::from_secs(30),
        }
    }
}

/// One entry of the expanded fault timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Node `node` fails now.
    CrashNode {
        /// Index of the failing node.
        node: u32,
    },
    /// Node `node` comes back now.
    RecoverNode {
        /// Index of the recovering node.
        node: u32,
    },
    /// The control node stalls for `dur` starting now.
    StallCn {
        /// Length of the stall window.
        dur: Duration,
    },
}

impl FaultPlan {
    /// An empty plan: no crashes, no stalls, a perfect link. The
    /// simulator must behave byte-identically to a fault-free build.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that crashes nodes from a per-node exponential(MTBF)
    /// renewal process with exponential(MTTR) repairs, seeded by `seed`.
    pub fn from_mtbf(mtbf: Duration, mttr: Duration, seed: u64) -> Self {
        FaultPlan {
            seed,
            mtbf: Some(mtbf),
            mttr,
            ..FaultPlan::default()
        }
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.cn_stalls.is_empty()
            && self.link.is_perfect()
            && self.mtbf.is_none()
    }

    /// Seed for the simulator's fault-side RNG stream, mixed with the
    /// workload seed so distinct workloads see distinct loss patterns
    /// while the stream stays a pure function of the configuration.
    pub fn rng_seed(&self, workload_seed: u64) -> u64 {
        self.seed ^ workload_seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15
    }

    /// Expand the plan into a time-sorted list of fault actions for a
    /// machine with `num_nodes` DPNs over `horizon`.
    ///
    /// Explicit crashes with `node >= num_nodes` are dropped; crashes at
    /// or past the horizon are dropped (their recoveries would never be
    /// observed). Per node, overlapping explicit crashes are merged by
    /// ignoring any crash that begins while the node is already down,
    /// so the timeline alternates crash/recover strictly per node. The
    /// expansion is a pure function of the plan, `num_nodes` and
    /// `horizon`.
    pub fn timeline(&self, num_nodes: u32, horizon: Duration) -> Vec<(SimTime, FaultAction)> {
        let mut crashes: Vec<CrashFault> = self
            .crashes
            .iter()
            .copied()
            .filter(|c| c.node < num_nodes && c.at.as_millis() < horizon.as_millis())
            .collect();
        if let Some(mtbf) = self.mtbf {
            let mtbf_ms = mtbf.as_millis().max(1) as f64;
            let mttr_ms = self.mttr.as_millis().max(1) as f64;
            let mut master = Xoshiro256::seed_from_u64(self.seed ^ 0x4D54_4246); // "MTBF"
            for node in 0..num_nodes {
                let mut rng = master.fork();
                let mut t = 0.0f64;
                loop {
                    t += exp_draw(&mut rng, mtbf_ms);
                    if t >= horizon.as_millis() as f64 {
                        break;
                    }
                    let down = exp_draw(&mut rng, mttr_ms).max(1.0);
                    crashes.push(CrashFault {
                        node,
                        at: SimTime::from_millis(t as u64),
                        down_for: Duration::from_millis(down as u64),
                    });
                    // Next failure clock starts after repair.
                    t += down;
                }
            }
        }
        // Per node, drop crashes that begin while the node is already
        // down so the action stream alternates strictly.
        crashes.sort_by_key(|c| (c.node, c.at));
        let mut actions: Vec<(SimTime, FaultAction)> = Vec::new();
        let mut down_until: Vec<SimTime> = vec![SimTime::ZERO; num_nodes as usize];
        for c in &crashes {
            let up_at = down_until[c.node as usize];
            if c.at < up_at {
                continue;
            }
            // A recover and a crash of the same node at the same instant
            // would be ambiguous; delay the new crash by one tick.
            let at = if c.at == up_at && up_at != SimTime::ZERO {
                SimTime::from_millis(c.at.as_millis() + 1)
            } else {
                c.at
            };
            let recover = at + c.down_for.max(Duration::from_millis(1));
            actions.push((at, FaultAction::CrashNode { node: c.node }));
            actions.push((recover, FaultAction::RecoverNode { node: c.node }));
            down_until[c.node as usize] = recover;
        }
        for s in &self.cn_stalls {
            if s.at.as_millis() < horizon.as_millis() && !s.stall_for.is_zero() {
                actions.push((s.at, FaultAction::StallCn { dur: s.stall_for }));
            }
        }
        // Stable: simultaneous actions keep per-node alternation order.
        actions.sort_by_key(|(at, _)| *at);
        actions
    }

    /// Parse a plan from a compact directive string.
    ///
    /// Comma-separated directives (seconds unless stated otherwise):
    ///
    /// ```text
    /// crash=NODE@AT x DOWN    crash=2@100x30   (node 2 down 100s..130s)
    /// stall=AT x DUR          stall=50x5       (CN frozen 50s..55s)
    /// delay=MS                fixed link delay in milliseconds
    /// loss=PER_MILLE          per-message loss chance, 0..=1000
    /// redeliver=MS            redelivery timeout for lost messages
    /// retry=BASE:MAX:N        backoff base ms, cap ms, max attempts
    /// mode=reroute|hold       degraded placement policy
    /// mtbf=SECS  mttr=SECS    generated per-node crash schedule
    /// seed=N                  fault-side RNG seed
    /// ```
    ///
    /// Every time or span is at most [`MAX_PLAN_MILLIS`]; a larger one,
    /// which would overflow the simulator's millisecond clock, is an
    /// `Err`. The empty string parses to [`FaultPlan::none`].
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("fault directive '{part}' is not key=value"))?;
            match key {
                "crash" => {
                    let (node, rest) = val
                        .split_once('@')
                        .ok_or_else(|| format!("crash '{val}': expected NODE@ATxDOWN"))?;
                    let (at, down) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("crash '{val}': expected NODE@ATxDOWN"))?;
                    plan.crashes.push(CrashFault {
                        node: parse_num(node, "crash node")?,
                        at: SimTime::from_millis(parse_millis(at, 1000, "crash at")?),
                        down_for: Duration::from_millis(parse_millis(down, 1000, "crash down")?),
                    });
                }
                "stall" => {
                    let (at, dur) = val
                        .split_once('x')
                        .ok_or_else(|| format!("stall '{val}': expected ATxDUR"))?;
                    plan.cn_stalls.push(CnStall {
                        at: SimTime::from_millis(parse_millis(at, 1000, "stall at")?),
                        stall_for: Duration::from_millis(parse_millis(dur, 1000, "stall dur")?),
                    });
                }
                "delay" => plan.link.delay = Duration::from_millis(parse_millis(val, 1, "delay")?),
                "loss" => {
                    let pm: u64 = parse_num(val, "loss")?;
                    if pm > 1000 {
                        return Err(format!("loss '{val}': permille must be 0..=1000"));
                    }
                    plan.link.loss_per_mille = pm as u32;
                }
                "redeliver" => {
                    plan.link.redeliver_after =
                        Duration::from_millis(parse_millis(val, 1, "redeliver")?)
                }
                "retry" => {
                    let mut it = val.splitn(3, ':');
                    let (Some(b), Some(m), Some(n)) = (it.next(), it.next(), it.next()) else {
                        return Err(format!("retry '{val}': expected BASE:MAX:N"));
                    };
                    plan.retry = RetryPolicy {
                        base_delay: Duration::from_millis(parse_millis(b, 1, "retry base")?),
                        max_delay: Duration::from_millis(parse_millis(m, 1, "retry max")?),
                        max_attempts: parse_num::<u32>(n, "retry attempts")?,
                    };
                    if plan.retry.max_attempts == 0 {
                        return Err("retry: max attempts must be >= 1".into());
                    }
                }
                "mode" => {
                    plan.degraded = match val {
                        "reroute" => DegradedMode::Reroute,
                        "hold" => DegradedMode::Hold,
                        other => return Err(format!("mode '{other}': expected reroute|hold")),
                    }
                }
                "mtbf" => plan.mtbf = Some(Duration::from_millis(parse_millis(val, 1000, "mtbf")?)),
                "mttr" => plan.mttr = Duration::from_millis(parse_millis(val, 1000, "mttr")?),
                "seed" => plan.seed = parse_num(val, "seed")?,
                other => return Err(format!("unknown fault directive '{other}'")),
            }
        }
        if plan.link.loss_per_mille > 0 && plan.link.redeliver_after.is_zero() {
            // A lost message with no redelivery would wedge its
            // transaction forever; default to a 1 s timeout.
            plan.link.redeliver_after = Duration::from_secs(1);
        }
        Ok(plan)
    }
}

/// An exponential draw with the given mean, in the same unit as `mean`.
fn exp_draw(rng: &mut Xoshiro256, mean: f64) -> f64 {
    -mean * rng.next_f64_open().ln()
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse::<T>()
        .map_err(|_| format!("{what}: could not parse '{s}'"))
}

/// Largest time or span a plan may give, in milliseconds (about 31
/// years): far past any horizon, and small enough that the simulator's
/// millisecond clock cannot overflow when it adds one to the current
/// time.
pub const MAX_PLAN_MILLIS: u64 = 1_000_000_000_000;

/// Parse a count of `unit_ms`-millisecond units into milliseconds,
/// refusing values above [`MAX_PLAN_MILLIS`].
fn parse_millis(s: &str, unit_ms: u64, what: &str) -> Result<u64, String> {
    parse_num::<u64>(s, what)?
        .checked_mul(unit_ms)
        .filter(|&ms| ms <= MAX_PLAN_MILLIS)
        .ok_or_else(|| format!("{what}: '{s}' is above {MAX_PLAN_MILLIS} ms"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::none()
            .timeline(8, Duration::from_secs(1000))
            .is_empty());
    }

    #[test]
    fn parse_directives() {
        let p = FaultPlan::parse(
            "crash=2@100x30,stall=50x5,delay=3,loss=25,redeliver=500,retry=1000:30000:4,mode=hold,seed=9",
        )
        .unwrap();
        assert_eq!(
            p.crashes,
            vec![CrashFault {
                node: 2,
                at: SimTime::from_secs(100),
                down_for: Duration::from_secs(30),
            }]
        );
        assert_eq!(
            p.cn_stalls,
            vec![CnStall {
                at: SimTime::from_secs(50),
                stall_for: Duration::from_secs(5),
            }]
        );
        assert_eq!(p.link.delay, Duration::from_millis(3));
        assert_eq!(p.link.loss_per_mille, 25);
        assert_eq!(p.link.redeliver_after, Duration::from_millis(500));
        assert_eq!(p.retry.max_attempts, 4);
        assert_eq!(p.degraded, DegradedMode::Hold);
        assert_eq!(p.seed, 9);
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("crash=2").is_err());
        assert!(FaultPlan::parse("loss=1001").is_err());
        assert!(FaultPlan::parse("retry=1:2:0").is_err());
        assert!(FaultPlan::parse("mode=sideways").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
    }

    /// A time past the millisecond clock's range is an `Err`, not an
    /// overflow panic (`mtbf=18446744073709552` was the fuzzer's first
    /// find).
    #[test]
    fn parse_refuses_times_past_the_clock() {
        assert!(FaultPlan::parse("mtbf=18446744073709552").is_err());
        assert!(FaultPlan::parse("crash=1@18446744073709552x1").is_err());
        assert!(FaultPlan::parse("stall=1x1000000001").is_err());
        assert!(FaultPlan::parse("delay=1000000000001").is_err());
        assert!(FaultPlan::parse("retry=1:18446744073709551615:1").is_err());
        let p = FaultPlan::parse("crash=0@1000000000x1000000000,redeliver=1000000000000").unwrap();
        assert_eq!(p.crashes[0].at, SimTime::from_millis(MAX_PLAN_MILLIS));
        assert_eq!(
            p.link.redeliver_after,
            Duration::from_millis(MAX_PLAN_MILLIS)
        );
    }

    #[test]
    fn loss_without_redeliver_gets_default_timeout() {
        let p = FaultPlan::parse("loss=10").unwrap();
        assert_eq!(p.link.redeliver_after, Duration::from_secs(1));
    }

    #[test]
    fn timeline_alternates_per_node_and_is_deterministic() {
        let plan = FaultPlan::from_mtbf(Duration::from_secs(120), Duration::from_secs(20), 42);
        let horizon = Duration::from_secs(2_000);
        let a = plan.timeline(8, horizon);
        let b = plan.timeline(8, horizon);
        assert_eq!(a, b, "timeline expansion must be deterministic");
        assert!(!a.is_empty(), "2000s at MTBF 120s should produce crashes");
        // Strict crash/recover alternation per node.
        let mut down = [false; 8];
        let mut prev = SimTime::ZERO;
        for (at, act) in &a {
            assert!(*at >= prev, "timeline must be sorted");
            prev = *at;
            match act {
                FaultAction::CrashNode { node } => {
                    assert!(!down[*node as usize], "crash while already down");
                    down[*node as usize] = true;
                }
                FaultAction::RecoverNode { node } => {
                    assert!(down[*node as usize], "recover while up");
                    down[*node as usize] = false;
                }
                FaultAction::StallCn { .. } => {}
            }
        }
    }

    #[test]
    fn overlapping_explicit_crashes_are_merged() {
        let mut plan = FaultPlan::none();
        plan.crashes = vec![
            CrashFault {
                node: 0,
                at: SimTime::from_secs(10),
                down_for: Duration::from_secs(100),
            },
            CrashFault {
                node: 0,
                at: SimTime::from_secs(50),
                down_for: Duration::from_secs(10),
            },
        ];
        let t = plan.timeline(4, Duration::from_secs(1_000));
        assert_eq!(t.len(), 2, "second crash begins while down; dropped");
    }

    #[test]
    fn out_of_range_crashes_are_dropped() {
        let mut plan = FaultPlan::none();
        plan.crashes = vec![
            CrashFault {
                node: 99,
                at: SimTime::from_secs(10),
                down_for: Duration::from_secs(5),
            },
            CrashFault {
                node: 0,
                at: SimTime::from_secs(5_000),
                down_for: Duration::from_secs(5),
            },
        ];
        assert!(plan.timeline(8, Duration::from_secs(1_000)).is_empty());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            base_delay: Duration::from_millis(1000),
            max_delay: Duration::from_millis(5000),
            max_attempts: 8,
        };
        assert_eq!(r.delay_for(1), Duration::from_millis(1000));
        assert_eq!(r.delay_for(2), Duration::from_millis(2000));
        assert_eq!(r.delay_for(3), Duration::from_millis(4000));
        assert_eq!(r.delay_for(4), Duration::from_millis(5000));
        assert_eq!(r.delay_for(63), Duration::from_millis(5000));
    }

    #[test]
    fn rng_seed_mixes_both_seeds() {
        let p = FaultPlan::none();
        assert_ne!(p.rng_seed(1), p.rng_seed(2));
        let mut q = FaultPlan::none();
        q.seed = 7;
        assert_ne!(p.rng_seed(1), q.rng_seed(1));
    }
}
