//! Parallel experiment executor with simulation-point memoization.
//!
//! Every experiment artifact (Figs. 8–13, Tables 2–5) is a grid of
//! independent simulation cells: one `(scheduler × workload × λ × DD)`
//! point, or one bisection/search that itself runs several points. Each
//! cell derives its RNG streams solely from `SimConfig::seed`, so a
//! cell's [`SimReport`] is a pure function of its config — cells can run
//! on any thread in any order and the assembled tables stay
//! byte-identical to a serial run.
//!
//! Two pieces exploit that:
//!
//! * [`PointCache`] — a concurrent memo table keyed on
//!   [`SimConfig::cache_key`]. Bisections re-probe endpoints, Table 3
//!   and Fig. 10 share an identical grid, and Fig. 13's σ = 0 column
//!   equals Table 2's clean runs; the cache collapses every duplicate to
//!   a single simulator invocation (and counts invocations vs hits).
//! * [`ExecCtx`] — a dependency-free `std::thread::scope` fan-out that
//!   maps a worker function over cells with a fixed job count,
//!   preserving input order in the results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::metrics::SimReport;

/// State of one memoized point.
enum Slot {
    /// Some thread is currently simulating this point.
    InFlight,
    /// The point's finished report.
    Ready(Arc<SimReport>),
}

/// Concurrent memo table of simulation points.
///
/// `get_or_run` guarantees each distinct config is simulated at most
/// once per cache lifetime, even when many threads request it
/// concurrently: the first requester marks the key in-flight and runs
/// the simulation outside the lock; later requesters block on a condvar
/// until the report is published.
#[derive(Default)]
pub struct PointCache {
    map: Mutex<HashMap<String, Slot>>,
    ready: Condvar,
    runs: AtomicU64,
    hits: AtomicU64,
}

/// Removes an in-flight marker if the owning thread panics inside
/// `Engine::run`, so waiters retry instead of hanging.
struct InFlightGuard<'a> {
    cache: &'a PointCache,
    key: &'a str,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut map = self.cache.map.lock().unwrap();
            map.remove(self.key);
            self.cache.ready.notify_all();
        }
    }
}

impl PointCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the memoized report for `cfg`, simulating it first if this
    /// is the first request for its [`SimConfig::cache_key`].
    pub fn get_or_run(&self, cfg: &SimConfig) -> Arc<SimReport> {
        let key = cfg.cache_key();
        {
            let mut map = self.map.lock().unwrap();
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(r)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(r);
                    }
                    Some(Slot::InFlight) => {
                        map = self.ready.wait(map).unwrap();
                    }
                    None => {
                        map.insert(key.clone(), Slot::InFlight);
                        break;
                    }
                }
            }
        }
        let mut guard = InFlightGuard {
            cache: self,
            key: &key,
            armed: true,
        };
        let report = Arc::new(Engine::run(cfg));
        guard.armed = false;
        drop(guard);
        self.runs.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().unwrap();
        map.insert(key, Slot::Ready(Arc::clone(&report)));
        self.ready.notify_all();
        drop(map);
        report
    }

    /// Number of actual `Engine::run` invocations performed.
    pub fn sim_runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Number of requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct points currently memoized.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Execution context for experiment drivers: a job count plus a shared
/// [`PointCache`]. Passing one context across several artifacts lets
/// later artifacts reuse every point earlier ones simulated.
pub struct ExecCtx {
    jobs: usize,
    cache: PointCache,
}

impl ExecCtx {
    /// A context fanning out across `jobs` worker threads (clamped to a
    /// minimum of 1), each point running serially.
    pub fn new(jobs: usize) -> Self {
        ExecCtx {
            jobs: jobs.max(1),
            cache: PointCache::new(),
        }
    }

    /// A single-threaded context (still memoizing).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared point cache.
    pub fn cache(&self) -> &PointCache {
        &self.cache
    }

    /// Run one point through the memo table.
    pub fn run_point(&self, cfg: &SimConfig) -> Arc<SimReport> {
        self.cache.get_or_run(cfg)
    }

    /// Map `work` over `items` on this context's worker pool, returning
    /// results in input order. With one job (or one item) this runs
    /// inline with no thread overhead.
    pub fn map<T, R, F>(&self, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        map_jobs(items, self.jobs, work)
    }
}

/// Resolve a requested job count against a machine's core budget:
/// `min(requested, available)`, defaulting to `available` and clamped
/// to at least 1, so `--jobs` never oversubscribes the cores.
pub fn resolve_thread_budget(jobs: Option<usize>, available: usize) -> usize {
    let available = available.max(1);
    jobs.unwrap_or(available).clamp(1, available)
}

/// Order-preserving parallel map over a slice with a bounded worker
/// count. Workers pull the next index from a shared atomic counter, so
/// uneven cell costs (a saturated bisection vs a light λ point) balance
/// dynamically instead of by static striping.
pub fn map_jobs<T, R, F>(items: &[T], jobs: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = work(i, item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every slot filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadKind;
    use bds_des::time::Duration;
    use bds_sched::SchedulerKind;

    fn tiny() -> SimConfig {
        let mut c = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
        c.horizon = Duration::from_secs(60);
        c
    }

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..37).collect();
        let out = map_jobs(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_one_job_is_inline() {
        let items = [1u32, 2, 3];
        let out = map_jobs(&items, 1, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_with_empty_input() {
        let items: [u8; 0] = [];
        let out = map_jobs(&items, 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn cache_runs_each_point_once() {
        let ctx = ExecCtx::new(2);
        let a = ctx.run_point(&tiny());
        let b = ctx.run_point(&tiny());
        assert_eq!(*a, *b);
        assert_eq!(ctx.cache().sim_runs(), 1);
        assert_eq!(ctx.cache().hits(), 1);
        let c = ctx.run_point(&tiny().with_lambda(0.5));
        assert_ne!(a.lambda_tps, c.lambda_tps);
        assert_eq!(ctx.cache().sim_runs(), 2);
        assert_eq!(ctx.cache().len(), 2);
    }

    #[test]
    fn concurrent_requests_share_one_simulation() {
        let ctx = ExecCtx::new(8);
        let cfgs: Vec<SimConfig> = (0..16).map(|_| tiny()).collect();
        let reports = ctx.map(&cfgs, |_, cfg| ctx.run_point(cfg));
        assert_eq!(ctx.cache().sim_runs(), 1, "identical configs must coalesce");
        for r in &reports[1..] {
            assert_eq!(**r, *reports[0]);
        }
    }

    #[test]
    fn thread_budget_clamps_jobs_to_cores() {
        // Oversubscription is cut to the core count.
        assert_eq!(resolve_thread_budget(Some(8), 2), 2);
        // Defaults to every core.
        assert_eq!(resolve_thread_budget(None, 8), 8);
        // Requests within budget are kept.
        assert_eq!(resolve_thread_budget(Some(3), 8), 3);
        // Zero inputs clamp rather than panic.
        assert_eq!(resolve_thread_budget(Some(0), 0), 1);
    }

    #[test]
    fn parallel_map_equals_serial_map() {
        let cfgs: Vec<SimConfig> = [0.2, 0.4, 0.6, 0.8]
            .iter()
            .map(|&l| tiny().with_lambda(l))
            .collect();
        let serial = ExecCtx::serial();
        let parallel = ExecCtx::new(4);
        let a = serial.map(&cfgs, |_, cfg| serial.run_point(cfg));
        let b = parallel.map(&cfgs, |_, cfg| parallel.run_point(cfg));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(**x, **y, "parallel and serial reports must match");
        }
    }
}
