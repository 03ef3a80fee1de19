//! Checkpoint state for the engine: the [`Snapshot`] captured by
//! [`crate::engine::Engine::snapshot`] and its JSON wire format.
//!
//! A snapshot is a complete, self-describing copy of the simulation
//! state: the event queue's entries, the CN/DPN servers, every live
//! transaction, all RNG streams, the fault bookkeeping, the statistics
//! accumulators, and — in place of the scheduler's opaque internal
//! state — the *op-log* of every scheduler call made so far. Schedulers
//! are deterministic, RNG-free state machines, so replaying the log
//! against a fresh instance reproduces the exact scheduler state; this
//! keeps the six protocol implementations free of serialization code.
//!
//! ## Wire format
//!
//! Serialization uses the workspace's hand-rolled JSON layer
//! (`bds-trace::json` writers, `bds-metrics::jsonv` parser) — no
//! external dependencies. The parser's only number type is `f64`, which
//! cannot hold every `u64`, so the format encodes **all integers as
//! decimal strings** and **all floats as `f64::to_bits` strings**:
//! round-trips are exact to the bit, which the byte-identity guarantee
//! requires. Booleans are JSON booleans; options are `null` or the
//! value. The top-level `"v"` field names the format version; a parser
//! refuses any other version.

use crate::engine::{Event, PendingReq, Phase, PrevSample, Txn, WaitKind};
use bds_des::stats::{TimeWeighted, Welford};
use bds_des::time::{Duration, SimTime};
use bds_fault::FaultAction;
use bds_machine::{Cohort, CohortId};
use bds_metrics::jsonv::{self, JsonValue};
use bds_sched::SchedulerKind;
use bds_trace::json::{JsonArr, JsonObj};
use bds_workload::spec::Access;
use bds_workload::{BatchSpec, FileId, LockMode, Step};
use bds_wtpg::TxnId;

/// Wire-format version written to and required in `"v"`.
const VERSION: &str = "2";

/// One recorded scheduler call, replayed verbatim on restore.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SchedOp {
    Register { id: TxnId, spec: BatchSpec },
    TryStart { id: TxnId },
    Request { id: TxnId, step: usize },
    StepComplete { id: TxnId, step: usize },
    Validate { id: TxnId },
    Commit { id: TxnId },
    Abort { id: TxnId },
    Forget { id: TxnId },
    Drain,
}

/// Captured state of one DPN.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DpnState {
    pub(crate) ready: Vec<Cohort>,
    pub(crate) running: Option<(Cohort, SimTime, Duration)>,
    pub(crate) busy: TimeWeighted,
    pub(crate) busy_time: Duration,
    pub(crate) completed: u64,
}

/// Captured state of one [`bds_metrics::LogHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistState {
    pub(crate) counts: Vec<u64>,
    pub(crate) total: u64,
    pub(crate) sum_ticks: u128,
    pub(crate) min_ticks: u64,
    pub(crate) max_ticks: u64,
}

/// Captured state of an active metrics sampler.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricsState {
    pub(crate) next_ms: u64,
    pub(crate) dt_ms: u64,
    pub(crate) names: Vec<String>,
    pub(crate) times_ms: Vec<u64>,
    pub(crate) values: Vec<f64>,
    pub(crate) prev: PrevSample,
}

/// A complete engine checkpoint (see the module docs). Produced by
/// [`crate::engine::Engine::snapshot`], consumed by
/// [`crate::engine::Engine::restore`]; [`Snapshot::to_json`] /
/// [`Snapshot::from_json`] round-trip it losslessly through text.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) cache_key: String,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) label: String,
    pub(crate) now: SimTime,
    pub(crate) events_popped: u64,
    pub(crate) events: Vec<(SimTime, Event)>,
    pub(crate) cn_free_at: SimTime,
    pub(crate) cn_busy: TimeWeighted,
    pub(crate) cn_total_demand: Duration,
    pub(crate) cn_jobs: u64,
    pub(crate) dpns: Vec<DpnState>,
    pub(crate) oplog: Vec<SchedOp>,
    pub(crate) arrivals_rng: [u64; 4],
    pub(crate) arrivals_next: SimTime,
    pub(crate) gen_cursor: bds_workload::gen::GenCursor,
    pub(crate) txns: Vec<(u64, Txn)>,
    pub(crate) start_queue: Vec<u64>,
    pub(crate) pending: Vec<PendingReq>,
    pub(crate) next_txn: u64,
    pub(crate) next_seq: u64,
    pub(crate) next_cohort: u64,
    pub(crate) cohort_owner: Vec<(u64, u64)>,
    pub(crate) live: TimeWeighted,
    pub(crate) rt: Welford,
    pub(crate) arrived: u64,
    pub(crate) started: u64,
    pub(crate) completed: u64,
    pub(crate) restarts: u64,
    pub(crate) lock_requests: u64,
    pub(crate) requests_denied: u64,
    pub(crate) retry_tick_armed: bool,
    pub(crate) fault_rng: [u64; 4],
    pub(crate) node_up: Vec<bool>,
    pub(crate) dpn_epoch: Vec<u32>,
    pub(crate) down_since: Vec<Option<SimTime>>,
    pub(crate) downtime: Vec<Duration>,
    pub(crate) held_cohorts: Vec<(u32, Cohort)>,
    pub(crate) aborts_validation: u64,
    pub(crate) aborts_scheduler: u64,
    pub(crate) aborts_fault: u64,
    pub(crate) killed: u64,
    pub(crate) retry_hist: HistState,
    pub(crate) rt_log: HistState,
    pub(crate) metrics: Option<MetricsState>,
}

impl Snapshot {
    /// Simulated time at which the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed when the snapshot was taken.
    pub fn events_popped(&self) -> u64 {
        self.events_popped
    }

    /// The scheduler kind active when the snapshot was taken.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Configuration cache key of the run that produced the snapshot.
    pub fn cache_key(&self) -> &str {
        &self.cache_key
    }
}

// ----- encode helpers --------------------------------------------------

/// Bit-exact float encoding (the parser's `f64` numbers are lossy for
/// 64-bit integers, and text round-trips of floats are fragile).
fn fb(v: f64) -> String {
    v.to_bits().to_string()
}

fn arr_u64(vals: impl IntoIterator<Item = u64>) -> String {
    let mut a = JsonArr::new();
    for v in vals {
        a.str(&v.to_string());
    }
    a.finish()
}

fn arr_f64(vals: &[f64]) -> String {
    let mut a = JsonArr::new();
    for &v in vals {
        a.str(&fb(v));
    }
    a.finish()
}

fn enc_rng(s: [u64; 4]) -> String {
    arr_u64(s)
}

fn enc_tw(t: &TimeWeighted) -> String {
    let (last_change, value, weighted_sum, start) = t.state();
    let mut a = JsonArr::new();
    a.str(&last_change.0.to_string());
    a.str(&fb(value));
    a.str(&fb(weighted_sum));
    a.str(&start.0.to_string());
    a.finish()
}

fn enc_welford(w: &Welford) -> String {
    let (count, mean, m2, min, max) = w.state();
    let mut a = JsonArr::new();
    a.str(&count.to_string());
    a.str(&fb(mean));
    a.str(&fb(m2));
    match min {
        Some(v) => a.str(&fb(v)),
        None => a.raw("null"),
    }
    match max {
        Some(v) => a.str(&fb(v)),
        None => a.raw("null"),
    }
    a.finish()
}

fn enc_cohort(c: &Cohort) -> String {
    let mut a = JsonArr::new();
    a.str(&c.id.0.to_string());
    a.str(&c.remaining.0.to_string());
    a.str(&c.quantum.0.to_string());
    a.finish()
}

fn enc_fault(f: &FaultAction) -> String {
    let mut o = JsonObj::new();
    match f {
        FaultAction::CrashNode { node } => {
            o.str("f", "crash");
            o.str("node", &node.to_string());
        }
        FaultAction::RecoverNode { node } => {
            o.str("f", "recover");
            o.str("node", &node.to_string());
        }
        FaultAction::StallCn { dur } => {
            o.str("f", "stall");
            o.str("dur", &dur.0.to_string());
        }
    }
    o.finish()
}

fn enc_event(at: SimTime, e: &Event) -> String {
    let mut o = JsonObj::new();
    o.str("at", &at.0.to_string());
    match e {
        Event::Arrival => o.str("k", "arr"),
        Event::CnDone { id, phase } => {
            o.str("k", "cn");
            o.str("id", &id.0.to_string());
            match phase {
                Phase::Started => o.str("p", "s"),
                Phase::Dispatch { step } => {
                    o.str("p", "d");
                    o.str("step", &step.to_string());
                }
                Phase::StepDone { step } => {
                    o.str("p", "sd");
                    o.str("step", &step.to_string());
                }
                Phase::Commit => o.str("p", "c"),
            }
        }
        Event::SliceEnd { node, epoch } => {
            o.str("k", "slice");
            o.str("node", &node.to_string());
            o.str("epoch", &epoch.to_string());
        }
        Event::RetryTick => o.str("k", "retry"),
        Event::Restart { id } => {
            o.str("k", "restart");
            o.str("id", &id.0.to_string());
        }
        Event::Fault { action } => {
            o.str("k", "fault");
            o.raw("a", &enc_fault(action));
        }
        Event::CohortArrive { node, cohort } => {
            o.str("k", "cohort");
            o.str("node", &node.to_string());
            o.raw("co", &enc_cohort(cohort));
        }
    }
    o.finish()
}

fn enc_spec(spec: &BatchSpec) -> String {
    let mut a = JsonArr::new();
    for s in &spec.steps {
        let mut o = JsonObj::new();
        o.str("f", &s.file.0.to_string());
        o.str(
            "m",
            match s.mode {
                LockMode::Shared => "s",
                LockMode::Exclusive => "x",
            },
        );
        o.str(
            "a",
            match s.access {
                Access::Read => "r",
                Access::Write => "w",
            },
        );
        o.str("c", &fb(s.cost));
        o.str("d", &fb(s.declared));
        a.raw(&o.finish());
    }
    a.finish()
}

fn enc_op(op: &SchedOp) -> String {
    let mut o = JsonObj::new();
    let mut id_op = |name: &str, id: &TxnId| {
        o.str("op", name);
        o.str("id", &id.0.to_string());
    };
    match op {
        SchedOp::Register { id, spec } => {
            id_op("reg", id);
            o.raw("spec", &enc_spec(spec));
        }
        SchedOp::TryStart { id } => id_op("try", id),
        SchedOp::Request { id, step } => {
            id_op("req", id);
            o.str("step", &step.to_string());
        }
        SchedOp::StepComplete { id, step } => {
            id_op("sc", id);
            o.str("step", &step.to_string());
        }
        SchedOp::Validate { id } => id_op("val", id),
        SchedOp::Commit { id } => id_op("commit", id),
        SchedOp::Abort { id } => id_op("abort", id),
        SchedOp::Forget { id } => id_op("forget", id),
        SchedOp::Drain => o.str("op", "drain"),
    }
    o.finish()
}

fn enc_kind(k: SchedulerKind) -> String {
    match k {
        SchedulerKind::Nodc => "nodc".to_string(),
        SchedulerKind::Asl => "asl".to_string(),
        SchedulerKind::C2pl => "c2pl".to_string(),
        SchedulerKind::Opt => "opt".to_string(),
        SchedulerKind::Gow => "gow".to_string(),
        SchedulerKind::Wdl => "wdl".to_string(),
        SchedulerKind::Dgcc => "dgcc".to_string(),
        SchedulerKind::Brook => "brook".to_string(),
        SchedulerKind::Low(k) => format!("low:{k}"),
    }
}

fn enc_hist(h: &HistState) -> String {
    let mut o = JsonObj::new();
    o.raw("counts", &arr_u64(h.counts.iter().copied()));
    o.str("total", &h.total.to_string());
    o.str("sum", &h.sum_ticks.to_string());
    o.str("min", &h.min_ticks.to_string());
    o.str("max", &h.max_ticks.to_string());
    o.finish()
}

fn enc_prev(p: &PrevSample) -> String {
    let mut o = JsonObj::new();
    o.str("at", &p.at_ms.to_string());
    o.str("arr", &p.arrived.to_string());
    o.str("comp", &p.completed.to_string());
    o.str("rst", &p.restarts.to_string());
    o.str("den", &p.denied.to_string());
    o.str("lr", &p.lock_requests.to_string());
    o.str("cnb", &fb(p.cn_busy_ms));
    o.raw("dpnb", &arr_f64(&p.dpn_busy_ms));
    o.finish()
}

// ----- decode helpers --------------------------------------------------

fn field<'a>(v: &'a JsonValue, k: &str) -> Result<&'a JsonValue, String> {
    v.get(k).ok_or_else(|| format!("missing field '{k}'"))
}

fn p_str(v: &JsonValue) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".to_string())
}

fn p_u64(v: &JsonValue) -> Result<u64, String> {
    p_str(v)?.parse().map_err(|e| format!("bad u64: {e}"))
}

fn p_u128(v: &JsonValue) -> Result<u128, String> {
    p_str(v)?.parse().map_err(|e| format!("bad u128: {e}"))
}

fn p_u32(v: &JsonValue) -> Result<u32, String> {
    p_str(v)?.parse().map_err(|e| format!("bad u32: {e}"))
}

fn p_usize(v: &JsonValue) -> Result<usize, String> {
    p_str(v)?.parse().map_err(|e| format!("bad usize: {e}"))
}

fn p_f64(v: &JsonValue) -> Result<f64, String> {
    Ok(f64::from_bits(p_u64(v)?))
}

fn p_bool(v: &JsonValue) -> Result<bool, String> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err("expected a boolean".to_string()),
    }
}

fn p_arr(v: &JsonValue) -> Result<&[JsonValue], String> {
    v.as_arr().ok_or_else(|| "expected an array".to_string())
}

fn g_u64(v: &JsonValue, k: &str) -> Result<u64, String> {
    p_u64(field(v, k)?)
}

fn g_str<'a>(v: &'a JsonValue, k: &str) -> Result<&'a str, String> {
    p_str(field(v, k)?)
}

fn dec_time(v: &JsonValue) -> Result<SimTime, String> {
    Ok(SimTime(p_u64(v)?))
}

fn dec_dur(v: &JsonValue) -> Result<Duration, String> {
    Ok(Duration(p_u64(v)?))
}

fn dec_rng(v: &JsonValue) -> Result<[u64; 4], String> {
    let a = p_arr(v)?;
    if a.len() != 4 {
        return Err("RNG state must have 4 words".to_string());
    }
    Ok([p_u64(&a[0])?, p_u64(&a[1])?, p_u64(&a[2])?, p_u64(&a[3])?])
}

fn dec_tw(v: &JsonValue) -> Result<TimeWeighted, String> {
    let a = p_arr(v)?;
    if a.len() != 4 {
        return Err("time-weighted state must have 4 entries".to_string());
    }
    Ok(TimeWeighted::from_state(
        dec_time(&a[0])?,
        p_f64(&a[1])?,
        p_f64(&a[2])?,
        dec_time(&a[3])?,
    ))
}

fn dec_opt_f64(v: &JsonValue) -> Result<Option<f64>, String> {
    match v {
        JsonValue::Null => Ok(None),
        _ => Ok(Some(p_f64(v)?)),
    }
}

fn dec_welford(v: &JsonValue) -> Result<Welford, String> {
    let a = p_arr(v)?;
    if a.len() != 5 {
        return Err("Welford state must have 5 entries".to_string());
    }
    Ok(Welford::from_state(
        p_u64(&a[0])?,
        p_f64(&a[1])?,
        p_f64(&a[2])?,
        dec_opt_f64(&a[3])?,
        dec_opt_f64(&a[4])?,
    ))
}

fn dec_cohort(v: &JsonValue) -> Result<Cohort, String> {
    let a = p_arr(v)?;
    if a.len() != 3 {
        return Err("cohort must have 3 entries".to_string());
    }
    Ok(Cohort {
        id: CohortId(p_u64(&a[0])?),
        remaining: dec_dur(&a[1])?,
        quantum: dec_dur(&a[2])?,
    })
}

fn dec_fault(v: &JsonValue) -> Result<FaultAction, String> {
    match g_str(v, "f")? {
        "crash" => Ok(FaultAction::CrashNode {
            node: p_u32(field(v, "node")?)?,
        }),
        "recover" => Ok(FaultAction::RecoverNode {
            node: p_u32(field(v, "node")?)?,
        }),
        "stall" => Ok(FaultAction::StallCn {
            dur: dec_dur(field(v, "dur")?)?,
        }),
        other => Err(format!("unknown fault action '{other}'")),
    }
}

fn dec_event(v: &JsonValue) -> Result<(SimTime, Event), String> {
    let at = dec_time(field(v, "at")?)?;
    let ev = match g_str(v, "k")? {
        "arr" => Event::Arrival,
        "cn" => {
            let id = TxnId(g_u64(v, "id")?);
            let phase = match g_str(v, "p")? {
                "s" => Phase::Started,
                "d" => Phase::Dispatch {
                    step: p_usize(field(v, "step")?)?,
                },
                "sd" => Phase::StepDone {
                    step: p_usize(field(v, "step")?)?,
                },
                "c" => Phase::Commit,
                other => return Err(format!("unknown phase '{other}'")),
            };
            Event::CnDone { id, phase }
        }
        "slice" => Event::SliceEnd {
            node: p_u32(field(v, "node")?)?,
            epoch: p_u32(field(v, "epoch")?)?,
        },
        "retry" => Event::RetryTick,
        "restart" => Event::Restart {
            id: TxnId(g_u64(v, "id")?),
        },
        "fault" => Event::Fault {
            action: dec_fault(field(v, "a")?)?,
        },
        "cohort" => Event::CohortArrive {
            node: p_u32(field(v, "node")?)?,
            cohort: dec_cohort(field(v, "co")?)?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok((at, ev))
}

fn dec_spec(v: &JsonValue) -> Result<BatchSpec, String> {
    let mut steps = Vec::new();
    for s in p_arr(v)? {
        steps.push(Step {
            file: FileId(p_u32(field(s, "f")?)?),
            mode: match g_str(s, "m")? {
                "s" => LockMode::Shared,
                "x" => LockMode::Exclusive,
                other => return Err(format!("unknown lock mode '{other}'")),
            },
            access: match g_str(s, "a")? {
                "r" => Access::Read,
                "w" => Access::Write,
                other => return Err(format!("unknown access '{other}'")),
            },
            cost: p_f64(field(s, "c")?)?,
            declared: p_f64(field(s, "d")?)?,
        });
    }
    Ok(BatchSpec { steps })
}

fn dec_op(v: &JsonValue) -> Result<SchedOp, String> {
    let id = || -> Result<TxnId, String> { Ok(TxnId(g_u64(v, "id")?)) };
    let step = || -> Result<usize, String> { p_usize(field(v, "step")?) };
    Ok(match g_str(v, "op")? {
        "reg" => SchedOp::Register {
            id: id()?,
            spec: dec_spec(field(v, "spec")?)?,
        },
        "try" => SchedOp::TryStart { id: id()? },
        "req" => SchedOp::Request {
            id: id()?,
            step: step()?,
        },
        "sc" => SchedOp::StepComplete {
            id: id()?,
            step: step()?,
        },
        "val" => SchedOp::Validate { id: id()? },
        "commit" => SchedOp::Commit { id: id()? },
        "abort" => SchedOp::Abort { id: id()? },
        "forget" => SchedOp::Forget { id: id()? },
        "drain" => SchedOp::Drain,
        other => return Err(format!("unknown scheduler op '{other}'")),
    })
}

fn dec_kind(s: &str) -> Result<SchedulerKind, String> {
    Ok(match s {
        "nodc" => SchedulerKind::Nodc,
        "asl" => SchedulerKind::Asl,
        "c2pl" => SchedulerKind::C2pl,
        "opt" => SchedulerKind::Opt,
        "gow" => SchedulerKind::Gow,
        "wdl" => SchedulerKind::Wdl,
        "dgcc" => SchedulerKind::Dgcc,
        "brook" => SchedulerKind::Brook,
        other => match other.strip_prefix("low:") {
            Some(k) => SchedulerKind::Low(k.parse().map_err(|e| format!("bad LOW K '{k}': {e}"))?),
            None => return Err(format!("unknown scheduler kind '{other}'")),
        },
    })
}

fn dec_u64_vec(v: &JsonValue) -> Result<Vec<u64>, String> {
    p_arr(v)?.iter().map(p_u64).collect()
}

fn dec_hist(v: &JsonValue) -> Result<HistState, String> {
    Ok(HistState {
        counts: dec_u64_vec(field(v, "counts")?)?,
        total: g_u64(v, "total")?,
        sum_ticks: p_u128(field(v, "sum")?)?,
        min_ticks: g_u64(v, "min")?,
        max_ticks: g_u64(v, "max")?,
    })
}

fn dec_prev(v: &JsonValue) -> Result<PrevSample, String> {
    Ok(PrevSample {
        at_ms: g_u64(v, "at")?,
        arrived: g_u64(v, "arr")?,
        completed: g_u64(v, "comp")?,
        restarts: g_u64(v, "rst")?,
        denied: g_u64(v, "den")?,
        lock_requests: g_u64(v, "lr")?,
        cn_busy_ms: p_f64(field(v, "cnb")?)?,
        dpn_busy_ms: p_arr(field(v, "dpnb")?)?
            .iter()
            .map(p_f64)
            .collect::<Result<_, _>>()?,
    })
}

impl Snapshot {
    /// Serialize to the JSON wire format (see the module docs). The
    /// output is deterministic: equal snapshots produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("v", VERSION);
        o.str("cache_key", &self.cache_key);
        o.str("sched", &enc_kind(self.scheduler));
        o.str("label", &self.label);
        o.str("now", &self.now.0.to_string());
        o.str("popped", &self.events_popped.to_string());
        let mut evs = JsonArr::new();
        for (at, e) in &self.events {
            evs.raw(&enc_event(*at, e));
        }
        o.raw("events", &evs.finish());
        let mut cn = JsonObj::new();
        cn.str("free", &self.cn_free_at.0.to_string());
        cn.raw("busy", &enc_tw(&self.cn_busy));
        cn.str("dem", &self.cn_total_demand.0.to_string());
        cn.str("jobs", &self.cn_jobs.to_string());
        o.raw("cn", &cn.finish());
        let mut dpns = JsonArr::new();
        for d in &self.dpns {
            let mut od = JsonObj::new();
            let mut ready = JsonArr::new();
            for c in &d.ready {
                ready.raw(&enc_cohort(c));
            }
            od.raw("ready", &ready.finish());
            match &d.running {
                Some((c, end, len)) => {
                    let mut run = JsonObj::new();
                    run.raw("co", &enc_cohort(c));
                    run.str("end", &end.0.to_string());
                    run.str("len", &len.0.to_string());
                    od.raw("run", &run.finish());
                }
                None => od.raw("run", "null"),
            }
            od.raw("busy", &enc_tw(&d.busy));
            od.str("bt", &d.busy_time.0.to_string());
            od.str("done", &d.completed.to_string());
            dpns.raw(&od.finish());
        }
        o.raw("dpns", &dpns.finish());
        let mut ops = JsonArr::new();
        for op in &self.oplog {
            ops.raw(&enc_op(op));
        }
        o.raw("oplog", &ops.finish());
        o.raw("arr_rng", &enc_rng(self.arrivals_rng));
        o.str("arr_next", &self.arrivals_next.0.to_string());
        let mut gen = JsonObj::new();
        let mut rngs = JsonArr::new();
        for s in &self.gen_cursor.rngs {
            rngs.raw(&enc_rng(*s));
        }
        gen.raw("rngs", &rngs.finish());
        match self.gen_cursor.normal_spare {
            Some(v) => gen.str("spare", &fb(v)),
            None => gen.raw("spare", "null"),
        }
        o.raw("gen", &gen.finish());
        let mut txns = JsonArr::new();
        for (id, t) in &self.txns {
            let mut ot = JsonObj::new();
            ot.str("id", &id.to_string());
            ot.raw("spec", &enc_spec(&t.spec));
            ot.str("arr", &t.arrival.0.to_string());
            ot.str("step", &t.step.to_string());
            ot.str("oc", &t.outstanding_cohorts.to_string());
            ot.bool("es", t.ever_started);
            ot.str("fk", &t.fault_kills.to_string());
            txns.raw(&ot.finish());
        }
        o.raw("txns", &txns.finish());
        o.raw("startq", &arr_u64(self.start_queue.iter().copied()));
        let mut pend = JsonArr::new();
        for p in &self.pending {
            let mut op = JsonObj::new();
            op.str("seq", &p.seq.to_string());
            op.str("id", &p.id.0.to_string());
            op.str("step", &p.step.to_string());
            op.str("file", &p.file.0.to_string());
            op.str(
                "kind",
                match p.kind {
                    WaitKind::Blocked => "b",
                    WaitKind::Delayed => "d",
                },
            );
            op.bool("el", p.eligible);
            pend.raw(&op.finish());
        }
        o.raw("pending", &pend.finish());
        o.str("nt", &self.next_txn.to_string());
        o.str("ns", &self.next_seq.to_string());
        o.str("nc", &self.next_cohort.to_string());
        let mut owner = JsonArr::new();
        for &(k, v) in &self.cohort_owner {
            owner.raw(&arr_u64([k, v]));
        }
        o.raw("owner", &owner.finish());
        o.raw("live", &enc_tw(&self.live));
        o.raw("rt", &enc_welford(&self.rt));
        o.str("arrived", &self.arrived.to_string());
        o.str("started", &self.started.to_string());
        o.str("completed", &self.completed.to_string());
        o.str("restarts", &self.restarts.to_string());
        o.str("lock_requests", &self.lock_requests.to_string());
        o.str("requests_denied", &self.requests_denied.to_string());
        o.bool("rta", self.retry_tick_armed);
        o.raw("frng", &enc_rng(self.fault_rng));
        let mut nup = JsonArr::new();
        for &up in &self.node_up {
            nup.raw(if up { "true" } else { "false" });
        }
        o.raw("nup", &nup.finish());
        o.raw(
            "epoch",
            &arr_u64(self.dpn_epoch.iter().map(|&e| u64::from(e))),
        );
        let mut ds = JsonArr::new();
        for s in &self.down_since {
            match s {
                Some(t) => ds.str(&t.0.to_string()),
                None => ds.raw("null"),
            }
        }
        o.raw("dsince", &ds.finish());
        o.raw("dtime", &arr_u64(self.downtime.iter().map(|d| d.0)));
        let mut held = JsonArr::new();
        for (node, c) in &self.held_cohorts {
            let mut oh = JsonObj::new();
            oh.str("n", &node.to_string());
            oh.raw("co", &enc_cohort(c));
            held.raw(&oh.finish());
        }
        o.raw("held", &held.finish());
        o.str("ab_val", &self.aborts_validation.to_string());
        o.str("ab_sched", &self.aborts_scheduler.to_string());
        o.str("ab_fault", &self.aborts_fault.to_string());
        o.str("killed", &self.killed.to_string());
        o.raw("rhist", &enc_hist(&self.retry_hist));
        o.raw("rlog", &enc_hist(&self.rt_log));
        match &self.metrics {
            Some(m) => {
                let mut om = JsonObj::new();
                om.str("next", &m.next_ms.to_string());
                om.str("dt", &m.dt_ms.to_string());
                let mut names = JsonArr::new();
                for n in &m.names {
                    names.str(n);
                }
                om.raw("names", &names.finish());
                om.raw("t", &arr_u64(m.times_ms.iter().copied()));
                om.raw("vals", &arr_f64(&m.values));
                om.raw("prev", &enc_prev(&m.prev));
                o.raw("metrics", &om.finish());
            }
            None => o.raw("metrics", "null"),
        }
        o.finish()
    }

    /// Parse a snapshot from its JSON wire format.
    ///
    /// # Errors
    /// Returns a description of the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = jsonv::parse(text)?;
        if g_str(&v, "v")? != VERSION {
            return Err(format!(
                "unsupported snapshot version '{}'",
                g_str(&v, "v")?
            ));
        }
        let events = p_arr(field(&v, "events")?)?
            .iter()
            .map(dec_event)
            .collect::<Result<Vec<_>, _>>()?;
        let cn = field(&v, "cn")?;
        let dpns = p_arr(field(&v, "dpns")?)?
            .iter()
            .map(|d| -> Result<DpnState, String> {
                let ready = p_arr(field(d, "ready")?)?
                    .iter()
                    .map(dec_cohort)
                    .collect::<Result<Vec<_>, _>>()?;
                let running = match field(d, "run")? {
                    JsonValue::Null => None,
                    r => Some((
                        dec_cohort(field(r, "co")?)?,
                        dec_time(field(r, "end")?)?,
                        dec_dur(field(r, "len")?)?,
                    )),
                };
                Ok(DpnState {
                    ready,
                    running,
                    busy: dec_tw(field(d, "busy")?)?,
                    busy_time: dec_dur(field(d, "bt")?)?,
                    completed: g_u64(d, "done")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let oplog = p_arr(field(&v, "oplog")?)?
            .iter()
            .map(dec_op)
            .collect::<Result<Vec<_>, _>>()?;
        let gen = field(&v, "gen")?;
        let gen_cursor = bds_workload::gen::GenCursor {
            rngs: p_arr(field(gen, "rngs")?)?
                .iter()
                .map(dec_rng)
                .collect::<Result<Vec<_>, _>>()?,
            normal_spare: dec_opt_f64(field(gen, "spare")?)?,
        };
        let txns = p_arr(field(&v, "txns")?)?
            .iter()
            .map(|t| -> Result<(u64, Txn), String> {
                Ok((
                    g_u64(t, "id")?,
                    Txn {
                        spec: dec_spec(field(t, "spec")?)?,
                        arrival: dec_time(field(t, "arr")?)?,
                        step: p_usize(field(t, "step")?)?,
                        outstanding_cohorts: p_u32(field(t, "oc")?)?,
                        ever_started: p_bool(field(t, "es")?)?,
                        fault_kills: p_u32(field(t, "fk")?)?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pending = p_arr(field(&v, "pending")?)?
            .iter()
            .map(|p| -> Result<PendingReq, String> {
                Ok(PendingReq {
                    seq: g_u64(p, "seq")?,
                    id: TxnId(g_u64(p, "id")?),
                    step: p_usize(field(p, "step")?)?,
                    file: FileId(p_u32(field(p, "file")?)?),
                    kind: match g_str(p, "kind")? {
                        "b" => WaitKind::Blocked,
                        "d" => WaitKind::Delayed,
                        other => return Err(format!("unknown wait kind '{other}'")),
                    },
                    eligible: p_bool(field(p, "el")?)?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cohort_owner = p_arr(field(&v, "owner")?)?
            .iter()
            .map(|pair| -> Result<(u64, u64), String> {
                let a = p_arr(pair)?;
                if a.len() != 2 {
                    return Err("owner pair must have 2 entries".to_string());
                }
                Ok((p_u64(&a[0])?, p_u64(&a[1])?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let down_since = p_arr(field(&v, "dsince")?)?
            .iter()
            .map(|s| -> Result<Option<SimTime>, String> {
                match s {
                    JsonValue::Null => Ok(None),
                    t => Ok(Some(dec_time(t)?)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let held_cohorts = p_arr(field(&v, "held")?)?
            .iter()
            .map(|h| -> Result<(u32, Cohort), String> {
                Ok((p_u32(field(h, "n")?)?, dec_cohort(field(h, "co")?)?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = match field(&v, "metrics")? {
            JsonValue::Null => None,
            m => Some(MetricsState {
                next_ms: g_u64(m, "next")?,
                dt_ms: g_u64(m, "dt")?,
                names: p_arr(field(m, "names")?)?
                    .iter()
                    .map(|n| Ok(p_str(n)?.to_string()))
                    .collect::<Result<Vec<_>, String>>()?,
                times_ms: dec_u64_vec(field(m, "t")?)?,
                values: p_arr(field(m, "vals")?)?
                    .iter()
                    .map(p_f64)
                    .collect::<Result<Vec<_>, _>>()?,
                prev: dec_prev(field(m, "prev")?)?,
            }),
        };
        Ok(Snapshot {
            cache_key: g_str(&v, "cache_key")?.to_string(),
            scheduler: dec_kind(g_str(&v, "sched")?)?,
            label: g_str(&v, "label")?.to_string(),
            now: dec_time(field(&v, "now")?)?,
            events_popped: g_u64(&v, "popped")?,
            events,
            cn_free_at: dec_time(field(cn, "free")?)?,
            cn_busy: dec_tw(field(cn, "busy")?)?,
            cn_total_demand: dec_dur(field(cn, "dem")?)?,
            cn_jobs: g_u64(cn, "jobs")?,
            dpns,
            oplog,
            arrivals_rng: dec_rng(field(&v, "arr_rng")?)?,
            arrivals_next: dec_time(field(&v, "arr_next")?)?,
            gen_cursor,
            txns,
            start_queue: dec_u64_vec(field(&v, "startq")?)?,
            pending,
            next_txn: g_u64(&v, "nt")?,
            next_seq: g_u64(&v, "ns")?,
            next_cohort: g_u64(&v, "nc")?,
            cohort_owner,
            live: dec_tw(field(&v, "live")?)?,
            rt: dec_welford(field(&v, "rt")?)?,
            arrived: g_u64(&v, "arrived")?,
            started: g_u64(&v, "started")?,
            completed: g_u64(&v, "completed")?,
            restarts: g_u64(&v, "restarts")?,
            lock_requests: g_u64(&v, "lock_requests")?,
            requests_denied: g_u64(&v, "requests_denied")?,
            retry_tick_armed: p_bool(field(&v, "rta")?)?,
            fault_rng: dec_rng(field(&v, "frng")?)?,
            node_up: p_arr(field(&v, "nup")?)?
                .iter()
                .map(p_bool)
                .collect::<Result<Vec<_>, _>>()?,
            dpn_epoch: p_arr(field(&v, "epoch")?)?
                .iter()
                .map(p_u32)
                .collect::<Result<Vec<_>, _>>()?,
            down_since,
            downtime: p_arr(field(&v, "dtime")?)?
                .iter()
                .map(dec_dur)
                .collect::<Result<Vec<_>, _>>()?,
            held_cohorts,
            aborts_validation: g_u64(&v, "ab_val")?,
            aborts_scheduler: g_u64(&v, "ab_sched")?,
            aborts_fault: g_u64(&v, "ab_fault")?,
            killed: g_u64(&v, "killed")?,
            retry_hist: dec_hist(field(&v, "rhist")?)?,
            rt_log: dec_hist(field(&v, "rlog")?)?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, WorkloadKind};
    use crate::engine::Engine;
    use bds_des::time::Duration;

    fn cfg(kind: SchedulerKind) -> SimConfig {
        let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 32 });
        c.lambda_tps = 1.0;
        c.horizon = Duration::from_millis(120_000);
        c
    }

    #[test]
    fn snapshot_json_roundtrip_is_lossless() {
        let mut e = Engine::new(&cfg(SchedulerKind::Gow));
        e.enable_checkpointing();
        e.run_until(SimTime::from_millis(40_000));
        let snap = e.snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("parse back");
        assert_eq!(snap, back);
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn snapshot_json_roundtrip_with_metrics_and_faults() {
        let base = cfg(SchedulerKind::C2pl).with_faults(
            bds_fault::FaultPlan::parse("crash=1@20x10,crash=4@50x15,retry=1000:8000:4")
                .expect("plan parses"),
        );
        let mut e = Engine::new(&base);
        e.enable_checkpointing();
        e.set_metrics_interval(Duration::from_millis(5_000));
        e.run_until(SimTime::from_millis(60_000));
        let snap = e.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("parse back");
        assert_eq!(snap, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"v":"99"}"#).is_err());
    }

    #[test]
    fn from_json_refuses_version_1() {
        let mut e = Engine::new(&cfg(SchedulerKind::Gow));
        e.enable_checkpointing();
        e.run_until(SimTime::from_millis(10_000));
        let v2 = e.snapshot().to_json();
        assert!(Snapshot::from_json(&v2).is_ok());
        let v1 = v2.replacen(r#""v":"2""#, r#""v":"1""#, 1);
        let err = Snapshot::from_json(&v1).expect_err("v1 must be refused");
        assert!(err.contains("version '1'"), "{err}");
    }
}
