//! Extending the library: plug a *custom scheduler* into the simulator.
//!
//! This example implements plain strict two-phase locking with
//! timestamp-based deadlock avoidance (wait-die flavored on declared
//! demand): a request blocked by a holder is allowed to wait only if
//! the requester started earlier, otherwise it is delayed. It is not
//! one of the paper's schedulers — it demonstrates the `Scheduler`
//! trait as an extension point and compares the result against LOW.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::lock_table::LockTable;
use batchsched::sched::{Outcome, ReqDecision, Scheduler, SchedulerKind, StartDecision};
use batchsched::workload::{BatchSpec, FileId};
use batchsched::wtpg::TxnId;
use std::collections::BTreeMap;

/// Strict 2PL with wait-die ordering on transaction ids (arrival order).
#[derive(Debug, Default)]
struct WaitDie2pl {
    table: LockTable,
    specs: BTreeMap<TxnId, BatchSpec>,
    live: std::collections::BTreeSet<TxnId>,
}

impl Scheduler for WaitDie2pl {
    fn name(&self) -> &'static str {
        "WD2PL"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.specs.insert(id, spec);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        self.live.insert(id);
        Outcome::free(StartDecision::Admit)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.specs[&id].steps[step];
        if self.table.can_grant(id, s.file, s.mode) {
            self.table.grant(id, s.file, s.mode);
            return Outcome::free(ReqDecision::Granted);
        }
        // Wait-die: older transactions (smaller id = earlier arrival)
        // may wait; younger ones are pushed back (delayed, not aborted —
        // batches are too expensive to roll back).
        let oldest_holder = self
            .table
            .conflicting_holders(id, s.file, s.mode)
            .into_iter()
            .min()
            .expect("incompatible grant implies a conflicting holder");
        if id < oldest_holder {
            Outcome::free(ReqDecision::Blocked)
        } else {
            Outcome::free(ReqDecision::Delayed)
        }
    }

    fn step_complete(&mut self, _id: TxnId, _step: usize) {}

    fn validate(&mut self, _id: TxnId) -> Outcome<bool> {
        Outcome::free(true)
    }

    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        self.live.remove(&id);
        self.specs.remove(&id);
        self.table.release_all(id)
    }

    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        self.live.remove(&id);
        self.table.release_all(id)
    }

    fn live_count(&self) -> usize {
        self.live.len()
    }
}

fn main() {
    let workload = WorkloadKind::Exp1 { num_files: 16 };
    let horizon = Duration::from_millis(1_000_000);
    let lambda = 0.7;

    // Run the custom scheduler by driving the Engine manually with a
    // scheduler override: build the config for LOW (any kind works — we
    // replace the scheduler object through the public test hook below).
    //
    // The library's `SchedulerKind` covers the paper's set; custom
    // schedulers run through `Engine::replace_scheduler` before the
    // first event.
    let mut cfg = SimConfig::new(SchedulerKind::Low(2), workload.clone());
    cfg.lambda_tps = lambda;
    cfg.horizon = horizon;

    let low = Engine::run(&cfg);

    let mut master = batchsched::des::rng::Xoshiro256::seed_from_u64(cfg.seed);
    let arrival_rng = master.fork();
    let gen_rng = master.fork();
    let genr = workload.build(gen_rng);
    let mut sim = Engine::with_generator(&cfg, genr, arrival_rng);
    sim.replace_scheduler(Box::new(WaitDie2pl::default()));
    sim.run_to_horizon();
    let wd = sim.report();

    println!("Custom scheduler vs LOW (Exp.1, λ = {lambda}, DD = 1)");
    println!();
    println!(
        "{:>7} {:>10} {:>10} {:>10}",
        "sched", "completed", "meanRT(s)", "TPS"
    );
    for r in [&wd, &low] {
        println!(
            "{:>7} {:>10} {:>10.1} {:>10.2}",
            if r.scheduler == "LOW" { "LOW" } else { "WD2PL" },
            r.completed,
            r.mean_rt_secs(),
            r.throughput_tps()
        );
    }
    println!();
    println!("Wait-die 2PL still builds blocking chains, so LOW's");
    println!("contention-aware grants keep a lower response time.");
}
