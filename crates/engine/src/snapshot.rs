//! Checkpoint state for the engine: the [`Snapshot`] captured by
//! [`crate::engine::Engine::snapshot`] and its JSON wire format.
//!
//! The engine is deterministic: one [`crate::config::SimConfig`] plus
//! the calls made on the engine from outside fix every event. So a
//! snapshot is an *input log*, not a copy of the state. It holds the
//! configuration's cache key, the scheduler the run started with, and
//! every external call that changes simulation state — `submit`,
//! `swap_scheduler`, and switching the metrics sampler on
//! (`set_metrics_interval`) or off (`take_metrics`) — each stamped with
//! the number of events processed when it was made.
//! [`crate::engine::Engine::restore`] rebuilds the engine from the
//! configuration and replays the log, so restoring costs time in
//! proportion to the simulated prefix. A few values recorded at
//! snapshot time (events, clock, arrivals, commits, the sampler's grid
//! position and the workload generator's cursor) must match after the
//! replay, or the snapshot is refused.
//!
//! ## Wire format
//!
//! Serialization uses the workspace's hand-rolled JSON layer
//! (`bds-trace::json` writers, `bds-metrics::jsonv` parser) — no
//! external dependencies. The parser's only number type is `f64`, which
//! cannot hold every `u64`, so the format encodes **all integers as
//! decimal strings** and **all floats as `f64::to_bits` strings**:
//! round-trips are exact to the bit. Options are `null` or the value.
//! The top-level `"v"` field names the format version; a parser refuses
//! any other version.

use bds_des::time::{Duration, SimTime};
use bds_metrics::jsonv::{self, JsonValue};
use bds_sched::SchedulerKind;
use bds_trace::json::{JsonArr, JsonObj};
use bds_workload::gen::GenCursor;
use bds_workload::spec::Access;
use bds_workload::{BatchSpec, FileId, LockMode, Step};

/// Wire-format version written to and required in `"v"`.
const VERSION: &str = "3";

/// An external call that changes simulation state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Call {
    /// [`crate::engine::Engine::submit`] (the spec as given, before DD
    /// scaling).
    Submit(BatchSpec),
    /// [`crate::engine::Engine::swap_scheduler`].
    Swap(SchedulerKind),
    /// [`crate::engine::Engine::set_metrics_interval`] (`Some`), or
    /// [`crate::engine::Engine::take_metrics`] detaching an active
    /// sampler (`None`).
    Metrics(Option<Duration>),
}

/// A point in the run between two events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mark {
    /// Events processed so far.
    pub(crate) events: u64,
    /// The metrics sampler's next grid point in ms (`None` when
    /// sampling is off). `run_until` fills the grid past the last
    /// event, so this is not implied by `events`.
    pub(crate) next_sample_ms: Option<u64>,
}

/// One recorded [`Call`] and where in the run it was made.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Input {
    pub(crate) at: Mark,
    pub(crate) call: Call,
}

/// An engine checkpoint (see the module docs). Produced by
/// [`crate::engine::Engine::snapshot`], consumed by
/// [`crate::engine::Engine::restore`]; [`Snapshot::to_json`] /
/// [`Snapshot::from_json`] round-trip it losslessly through text.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) cache_key: String,
    /// The scheduler the run started with (swaps are inputs).
    pub(crate) scheduler: SchedulerKind,
    pub(crate) inputs: Vec<Input>,
    pub(crate) end: Mark,
    pub(crate) now: SimTime,
    pub(crate) arrived: u64,
    pub(crate) completed: u64,
    pub(crate) gen_cursor: Option<GenCursor>,
}

impl Snapshot {
    /// Simulated time at which the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed when the snapshot was taken.
    pub fn events_popped(&self) -> u64 {
        self.end.events
    }
}

// ----- encode helpers --------------------------------------------------

/// Bit-exact float encoding (see the module docs).
fn fb(v: f64) -> String {
    v.to_bits().to_string()
}

fn opt_u64(o: &mut JsonObj, k: &str, v: Option<u64>) {
    match v {
        Some(v) => o.str(k, &v.to_string()),
        None => o.raw(k, "null"),
    }
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

fn enc_mark(o: &mut JsonObj, m: &Mark) {
    o.str("events", &m.events.to_string());
    opt_u64(o, "next_sample", m.next_sample_ms);
}

fn enc_cursor(c: &GenCursor) -> String {
    let mut o = JsonObj::new();
    let mut rngs = JsonArr::new();
    for s in &c.rngs {
        let mut w = JsonArr::new();
        for v in s {
            w.str(&v.to_string());
        }
        rngs.raw(&w.finish());
    }
    o.raw("rngs", &rngs.finish());
    match c.normal_spare {
        Some(v) => o.str("spare", &fb(v)),
        None => o.raw("spare", "null"),
    }
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

fn p_u32(v: &JsonValue) -> Result<u32, String> {
    p_str(v)?.parse().map_err(|e| format!("bad u32: {e}"))
}

fn p_f64(v: &JsonValue) -> Result<f64, String> {
    Ok(f64::from_bits(p_u64(v)?))
}

fn p_arr(v: &JsonValue) -> Result<&[JsonValue], String> {
    v.as_arr().ok_or_else(|| "expected an array".to_string())
}

fn p_opt<T>(
    v: &JsonValue,
    parse: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match v {
        JsonValue::Null => Ok(None),
        _ => parse(v).map(Some),
    }
}

fn g_u64(v: &JsonValue, k: &str) -> Result<u64, String> {
    p_u64(field(v, k)?)
}

fn g_str<'a>(v: &'a JsonValue, k: &str) -> Result<&'a str, String> {
    p_str(field(v, k)?)
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

fn dec_mark(v: &JsonValue) -> Result<Mark, String> {
    Ok(Mark {
        events: g_u64(v, "events")?,
        next_sample_ms: p_opt(field(v, "next_sample")?, p_u64)?,
    })
}

fn dec_input(v: &JsonValue) -> Result<Input, String> {
    let call = match (v.get("submit"), v.get("swap"), v.get("metrics")) {
        (Some(spec), None, None) => Call::Submit(dec_spec(spec)?),
        (None, Some(kind), None) => Call::Swap(dec_kind(p_str(kind)?)?),
        (None, None, Some(dt)) => Call::Metrics(p_opt(dt, |d| p_u64(d).map(Duration))?),
        _ => return Err("an input needs exactly one of submit, swap, metrics".to_string()),
    };
    Ok(Input {
        at: dec_mark(v)?,
        call,
    })
}

fn dec_cursor(v: &JsonValue) -> Result<GenCursor, String> {
    let rngs = p_arr(field(v, "rngs")?)?
        .iter()
        .map(|s| {
            let w = p_arr(s)?;
            if w.len() != 4 {
                return Err("RNG state must have 4 words".to_string());
            }
            Ok([p_u64(&w[0])?, p_u64(&w[1])?, p_u64(&w[2])?, p_u64(&w[3])?])
        })
        .collect::<Result<_, String>>()?;
    Ok(GenCursor {
        rngs,
        normal_spare: p_opt(field(v, "spare")?, p_f64)?,
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
        let mut inputs = JsonArr::new();
        for input in &self.inputs {
            let mut oi = JsonObj::new();
            enc_mark(&mut oi, &input.at);
            match &input.call {
                Call::Submit(spec) => oi.raw("submit", &enc_spec(spec)),
                Call::Swap(kind) => oi.str("swap", &enc_kind(*kind)),
                Call::Metrics(dt) => opt_u64(&mut oi, "metrics", dt.map(Duration::as_millis)),
            }
            inputs.raw(&oi.finish());
        }
        o.raw("inputs", &inputs.finish());
        enc_mark(&mut o, &self.end);
        o.str("now", &self.now.0.to_string());
        o.str("arrived", &self.arrived.to_string());
        o.str("completed", &self.completed.to_string());
        match &self.gen_cursor {
            Some(c) => o.raw("gen", &enc_cursor(c)),
            None => o.raw("gen", "null"),
        }
        o.finish()
    }

    /// Parse a snapshot from its JSON wire format.
    ///
    /// # Errors
    /// Returns a description of the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = jsonv::parse(text)?;
        let version = g_str(&v, "v")?;
        if version != VERSION {
            return Err(format!("unsupported snapshot version '{version}'"));
        }
        Ok(Snapshot {
            cache_key: g_str(&v, "cache_key")?.to_string(),
            scheduler: dec_kind(g_str(&v, "sched")?)?,
            inputs: p_arr(field(&v, "inputs")?)?
                .iter()
                .map(dec_input)
                .collect::<Result<_, _>>()?,
            end: dec_mark(&v)?,
            now: SimTime(g_u64(&v, "now")?),
            arrived: g_u64(&v, "arrived")?,
            completed: g_u64(&v, "completed")?,
            gen_cursor: p_opt(field(&v, "gen")?, dec_cursor)?,
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
        e.run_until(SimTime::from_millis(30_000));
        e.submit(BatchSpec::new(vec![
            Step::write(FileId(3), 0.5).with_declared(0.7)
        ]));
        e.run_until(SimTime::from_millis(42_500));
        e.swap_scheduler(SchedulerKind::Low(3));
        e.run_until(SimTime::from_millis(60_000));
        let snap = e.snapshot();
        assert_eq!(snap.inputs.len(), 3);
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
        let v3 = e.snapshot().to_json();
        assert!(Snapshot::from_json(&v3).is_ok());
        for old in ["1", "2"] {
            let text = v3.replacen(r#""v":"3""#, &format!(r#""v":"{old}""#), 1);
            let err = Snapshot::from_json(&text).expect_err("old versions must be refused");
            assert!(err.contains(&format!("version '{old}'")), "{err}");
        }
    }
}
