//! Chaos/differential harness: property tests sweeping random
//! seed + fault-plan combinations against scheduler-independent
//! invariants, plus a differential fuzzer running all eight schedulers
//! on the same seeded workload and fault plan and cross-checking the
//! NODC-bound and accounting relations.
//!
//! The workload/plan/invariant machinery lives in `harness.rs`, shared
//! with the scheduler-conformance suite. Every assertion message
//! carries the failing case seed so a failure can be replayed exactly:
//! `harness::random_plan` and the config derive all randomness from it.

#[path = "harness.rs"]
mod harness;

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;
use harness::{case_config, check_case, random_plan};

/// Cases per scheduler in the property sweep.
const CASES: u64 = 200;

fn sweep(kind: SchedulerKind, salt: u64) {
    for case in 0..CASES {
        check_case(
            kind,
            salt.wrapping_add(case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }
}

#[test]
fn chaos_sweep_nodc() {
    sweep(SchedulerKind::Nodc, 0x01);
}

#[test]
fn chaos_sweep_asl() {
    sweep(SchedulerKind::Asl, 0x02);
}

#[test]
fn chaos_sweep_gow() {
    sweep(SchedulerKind::Gow, 0x03);
}

#[test]
fn chaos_sweep_low() {
    sweep(SchedulerKind::Low(2), 0x04);
}

#[test]
fn chaos_sweep_c2pl() {
    sweep(SchedulerKind::C2pl, 0x05);
}

#[test]
fn chaos_sweep_opt() {
    sweep(SchedulerKind::Opt, 0x06);
}

#[test]
fn chaos_sweep_dgcc() {
    sweep(SchedulerKind::Dgcc, 0x07);
}

/// Brook's sweep doubles as the corpus-wide zero-deadlock check:
/// `check_case` asserts `aborts_scheduler == 0` for Brook on every
/// case, so 200 random fault plans must finish without a single
/// scheduler-induced restart.
#[test]
fn chaos_sweep_brook() {
    sweep(SchedulerKind::Brook, 0x08);
}

/// Differential fuzzer: one workload + one fault plan, all eight
/// schedulers. Checks relations that must hold *across* schedulers.
#[test]
fn differential_same_plan_across_schedulers() {
    for case in 0..30u64 {
        let case_seed = 0xD1FF_0000u64 + case;
        let mut rng = Xoshiro256::seed_from_u64(case_seed);
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 120);
        let mut reports = Vec::new();
        for kind in SchedulerKind::EXTENDED_SET {
            let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
            c.seed = seed;
            c.lambda_tps = 0.6;
            c.horizon = Duration::from_secs(120);
            let c = c.with_faults(plan.clone());
            let mut sim = Engine::new(&c);
            sim.run_to_horizon();
            let r = sim.report();
            assert_eq!(
                r.arrived,
                r.completed + r.killed + sim.in_flight(),
                "{kind} case_seed={case_seed:#x}: conservation violated"
            );
            reports.push((kind, r));
        }
        let (_, nodc) = &reports[0];
        for (kind, r) in &reports {
            // Identical seed ⇒ identical arrival stream, regardless of
            // scheduler.
            assert_eq!(
                r.arrived, nodc.arrived,
                "{kind} case_seed={case_seed:#x}: arrival stream diverged"
            );
            // The crash/recovery timeline is scheduler-independent, so
            // availability must match bit-for-bit.
            assert_eq!(
                r.availability, nodc.availability,
                "{kind} case_seed={case_seed:#x}: availability diverged"
            );
            // NODC runs with no concurrency control at all: no scheduler
            // may outrun it by more than boundary noise.
            let slack = 10 + nodc.completed / 5;
            assert!(
                r.completed <= nodc.completed + slack,
                "{kind} case_seed={case_seed:#x}: completed {} beats the NODC bound {}",
                r.completed,
                nodc.completed
            );
            // Brook never aborts of its own accord, on any shared plan.
            if *kind == SchedulerKind::Brook {
                assert_eq!(
                    r.aborts_scheduler, 0,
                    "case_seed={case_seed:#x}: Brook-2PL scheduler abort"
                );
            }
        }
    }
}

/// Same (seed, plan, scheduler) must reproduce the identical report —
/// fault injection is part of the determinism contract.
#[test]
fn chaos_runs_are_deterministic() {
    for case in 0..10u64 {
        let case_seed = 0xDE7E_0000u64 + case;
        for kind in [
            SchedulerKind::Nodc,
            SchedulerKind::Gow,
            SchedulerKind::Opt,
            SchedulerKind::Dgcc,
            SchedulerKind::Brook,
        ] {
            let c = case_config(kind, case_seed);
            let a = Engine::run(&c);
            let b = Engine::run(&c);
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{kind} case_seed={case_seed:#x}: nondeterministic under faults"
            );
        }
    }
}

/// Fault plans written elsewhere in the tree (CI, README, examples,
/// perfbench and the test suites): the fuzzer's seed corpus.
const PLAN_CORPUS: &[&str] = &[
    "crash=1@40x20,mtbf=120,mttr=15,retry=1000:8000:4",
    "mtbf=120,mttr=15,retry=1000:8000:4",
    "crash=1@40x20,mtbf=60,mttr=15,retry=500:2000:1,seed=3",
    "crash=1@20x10,crash=4@50x15,retry=1000:8000:4",
    "crash=0@100x10",
    "crash=2@6x8,retry=500:2000:3",
    "crash=1@40x20,crash=5@110x15,delay=4,loss=50,redeliver=350,stall=70x6,retry=800:6400:3",
    "crash=2@100x30,stall=50x5,delay=3,loss=25,redeliver=500,retry=1000:30000:4,mode=hold,seed=9",
    "mtbf=90,mttr=12,stall=60x5,retry=500:4000:2,seed=5",
    "delay=5,loss=60,redeliver=400,stall=50x5,stall=150x10,crash=3@100x20",
    "crash=2@60x40,mode=hold,retry=2000:16000:6",
    "crash=0@60x20,crash=1@60x20,crash=2@60x20,crash=3@60x20,stall=61x2,retry=1000:8000:1",
    "loss=10",
    "",
];

/// Mutants made by the `FaultPlan::parse` fuzzer.
const PLAN_MUTANTS: usize = 12_000;
/// How many of the mutants that parse are also run in an engine.
const PLAN_RUNS: usize = 200;

/// One random edit of a plan string: a character replaced, inserted or
/// deleted, a digit run swapped for an edge-case number, a directive
/// duplicated or spliced in from another corpus plan, or a key renamed.
fn mutate_plan(plan: &mut Vec<char>, rng: &mut Xoshiro256) {
    const ALPHABET: &[char] = &[
        '0', '1', '9', ',', '=', '@', 'x', ':', '-', '+', '.', ' ', 'e', 'a', 'z', '\u{0}', 'é',
    ];
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "1000",
        "-1",
        "+7",
        "1e3",
        "4294967295",
        "4294967296",
        "18446744073709551",
        "18446744073709552",
        "18446744073709551615",
        "18446744073709551616",
    ];
    const KEYS: &[&str] = &[
        "crash",
        "stall",
        "delay",
        "loss",
        "redeliver",
        "retry",
        "mode",
        "mtbf",
        "mttr",
        "seed",
    ];
    let pos = rng.next_index(plan.len() + 1);
    match rng.next_range(7) {
        0 if pos < plan.len() => plan[pos] = ALPHABET[rng.next_index(ALPHABET.len())],
        1 => plan.insert(pos, ALPHABET[rng.next_index(ALPHABET.len())]),
        2 if pos < plan.len() => {
            plan.remove(pos);
        }
        3 => {
            let digits: Vec<usize> = (0..plan.len())
                .filter(|&i| plan[i].is_ascii_digit() && (i == 0 || !plan[i - 1].is_ascii_digit()))
                .collect();
            if let Some(&start) = digits.get(rng.next_index(digits.len().max(1))) {
                let end = (start..plan.len())
                    .find(|&i| !plan[i].is_ascii_digit())
                    .unwrap_or(plan.len());
                let n = NUMBERS[rng.next_index(NUMBERS.len())];
                plan.splice(start..end, n.chars());
            }
        }
        4 => {
            let donor = PLAN_CORPUS[rng.next_index(PLAN_CORPUS.len())];
            let parts: Vec<&str> = donor.split(',').collect();
            let part = parts[rng.next_index(parts.len())];
            plan.push(',');
            plan.extend(part.chars());
        }
        5 => {
            let text: String = plan.iter().collect();
            let parts: Vec<&str> = text.split(',').collect();
            let part = parts[rng.next_index(parts.len())].to_string();
            plan.push(',');
            plan.extend(part.chars());
        }
        _ => {
            let text: String = plan.iter().collect();
            let mut parts: Vec<String> = text.split(',').map(str::to_string).collect();
            let i = rng.next_index(parts.len());
            if let Some((_, val)) = parts[i].split_once('=') {
                parts[i] = format!("{}={val}", KEYS[rng.next_index(KEYS.len())]);
            }
            *plan = parts.join(",").chars().collect();
        }
    }
}

/// Seeded `FaultPlan::parse` fuzzer: every mutant of the corpus returns
/// `Ok` or `Err` without a panic, and the first plans that parse, run
/// under a configuration `SimConfig::validate` accepts, drive a LOW
/// engine to a short horizon without a panic.
#[test]
fn fault_plan_parse_mutants_never_panic() {
    let mut rng = Xoshiro256::seed_from_u64(0xFA17_9A25);
    let (mut parsed, mut runs) = (0usize, 0usize);
    for i in 0..PLAN_MUTANTS {
        let mut plan: Vec<char> = PLAN_CORPUS[i % PLAN_CORPUS.len()].chars().collect();
        for _ in 0..1 + rng.next_range(4) {
            mutate_plan(&mut plan, &mut rng);
        }
        let text: String = plan.iter().collect();
        let parsed_plan = std::panic::catch_unwind(|| FaultPlan::parse(&text))
            .unwrap_or_else(|_| panic!("mutant {i}: FaultPlan::parse panicked on {text:?}"));
        let Ok(faults) = parsed_plan else {
            continue;
        };
        parsed += 1;
        if runs == PLAN_RUNS {
            continue;
        }
        let mut c = SimConfig::new(SchedulerKind::Low(2), WorkloadKind::Exp1 { num_files: 16 });
        c.seed = i as u64;
        c.lambda_tps = 0.6;
        c.horizon = Duration::from_secs(150);
        let c = c.with_faults(faults);
        if c.validate().is_err() {
            continue;
        }
        runs += 1;
        let run = std::panic::catch_unwind(|| {
            let mut sim = Engine::new(&c);
            sim.run_to_horizon();
            sim.report()
        });
        assert!(run.is_ok(), "mutant {i}: engine panicked under {text:?}");
    }
    assert!(
        parsed > PLAN_MUTANTS / 10 && runs == PLAN_RUNS,
        "{parsed} parsed, {runs} run"
    );
}
