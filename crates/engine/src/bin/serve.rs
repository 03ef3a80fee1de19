//! `bds-serve` — a long-lived streaming front over [`bds_engine::Engine`].
//!
//! Speaks newline-delimited JSON (NDJSON): one request object per line
//! on stdin, one response object per line on stdout. With `--listen
//! ADDR` it serves the same protocol over TCP instead (one client at a
//! time; the simulation session persists across connections).
//!
//! ```text
//! {"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":2000}
//! {"cmd":"run-until","t_ms":50000}
//! {"cmd":"step","n":10}
//! {"cmd":"submit","steps":[["r",3,1200.0],["w",7,600.0]]}
//! {"cmd":"snapshot","path":"/tmp/ckpt.json"}
//! {"cmd":"swap-scheduler","scheduler":"asl"}
//! {"cmd":"restore","path":"/tmp/ckpt.json"}
//! {"cmd":"metrics","format":"prom"}
//! {"cmd":"report"}
//! {"cmd":"status"}
//! {"cmd":"trace","capacity":4096}   then later   {"cmd":"trace","dump":"/tmp/t.json"}
//! {"cmd":"watch","t_ms":200000,"interval_ms":5000}
//! {"cmd":"quit"}
//! ```
//!
//! Every response carries `"ok":true` or `"ok":false` plus `"error"`.
//! Bad input is refused with `"ok":false` and leaves the session as it
//! was: `configure` rejects unknown keys, non-integral or out-of-range
//! integers and an `mpl` of 0; `submit` rejects a step `file` that is
//! not an integer naming one of the workload's files. `configure`
//! accepts `scheduler`, `workload`, `lambda`, `dd`, `horizon_s`, `seed`,
//! `mpl`, `faults`, `metrics_dt_ms` and `profile`. The engine runs every
//! session on one serial event loop.
//!
//! `step` processes up to `n` events (default 1) and lists, in order,
//! the `effects` they produced: one object per lifecycle fact, named by
//! `"e"` — `arrived`, `admitted`, `admit-refused`, `granted`, `blocked`
//! and `delayed` (these three with `step` and `file`), `restart`,
//! `committed`, `aborted` (with `cause`: `validation`, `scheduler` or
//! `fault`), `killed`, and `fault` (with `action` `crash` or `recover`
//! plus `node`, or `stall-cn` plus `dur_ms`). Effects are read from the
//! engine's trace records of those events only; `run-until`, `run` and
//! `watch` record nothing.
//!
//! `watch` is the one streaming command: it advances the simulation in
//! `interval_ms` sim-time chunks and emits one `{"watch":true,...}`
//! NDJSON telemetry delta per chunk (engine progress, windowed
//! commit/restart/arrival rates and host-profiler phase shares)
//! *before* the final `"ok"` reply, so a running simulation can be
//! observed without stopping it.
//! The binary uses only the standard library and the workspace's own
//! hand-rolled JSON reader/writers — no external dependencies.

use bds_des::time::{Duration, SimTime};
use bds_engine::config::{SimConfig, WorkloadKind};
use bds_engine::engine::{AbortCause, Engine};
use bds_engine::snapshot::Snapshot;
use bds_fault::FaultPlan;
use bds_metrics::{parse, JsonValue, PromText};
use bds_obs::Profiler;
use bds_sched::SchedulerKind;
use bds_trace::json::{JsonArr, JsonObj};
use bds_trace::{chrome_trace, EventKind, Rec, Tracer};
use bds_workload::{BatchSpec, FileId, LockMode, Step};
use std::io::{BufRead, BufReader, Write};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut session = Session::default();
    if let Some(pos) = args.iter().position(|a| a == "--listen") {
        let addr = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--listen requires an address (e.g. 127.0.0.1:7070)");
            std::process::exit(2);
        });
        serve_tcp(&addr, &mut session);
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_stream(stdin.lock(), stdout.lock(), &mut session);
    }
}

fn serve_tcp(addr: &str, session: &mut Session) {
    let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    // Report the bound address (supports ephemeral-port binds in tests).
    if let Ok(local) = listener.local_addr() {
        println!("listening {local}");
    }
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        if serve_stream(reader, stream, session) {
            break; // quit ends the process, not just the connection
        }
    }
}

/// Pump requests until EOF or `quit`; returns true on `quit`.
fn serve_stream(reader: impl BufRead, mut writer: impl Write, session: &mut Session) -> bool {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (reply, quit) = session.handle_line(&line, &mut writer);
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if quit {
            return true;
        }
    }
    false
}

/// The streaming session: one engine, reconfigurable and restorable.
#[derive(Default)]
struct Session {
    cfg: Option<SimConfig>,
    engine: Option<Engine>,
}

fn err(msg: &str) -> String {
    let mut o = JsonObj::new();
    o.bool("ok", false);
    o.str("error", msg);
    o.finish()
}

fn ok() -> JsonObj {
    let mut o = JsonObj::new();
    o.bool("ok", true);
    o
}

/// An optional non-negative integer field. Fractions, negatives,
/// non-numbers and values beyond `u64` are refused, never truncated.
fn get_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    let Some(raw) = v.get(key) else {
        return Ok(None);
    };
    // 2^64, the first f64 above `u64::MAX`.
    const LIMIT: f64 = 18_446_744_073_709_551_616.0;
    match raw.as_num() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n < LIMIT => Ok(Some(n as u64)),
        _ => Err(format!("{key} must be a non-negative integer below 2^64")),
    }
}

/// [`get_u64`], additionally refusing values beyond `u32`.
fn get_u32(v: &JsonValue, key: &str) -> Result<Option<u32>, String> {
    get_u64(v, key)?
        .map(|n| u32::try_from(n).map_err(|_| format!("{key} {n} exceeds {}", u32::MAX)))
        .transpose()
}

/// The keys `configure` understands; any other key is refused.
const CONFIGURE_KEYS: [&str; 11] = [
    "cmd",
    "scheduler",
    "workload",
    "lambda",
    "dd",
    "horizon_s",
    "seed",
    "mpl",
    "faults",
    "metrics_dt_ms",
    "profile",
];

fn parse_kind(s: &str) -> Result<SchedulerKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "nodc" => SchedulerKind::Nodc,
        "asl" => SchedulerKind::Asl,
        "gow" => SchedulerKind::Gow,
        "c2pl" => SchedulerKind::C2pl,
        "opt" => SchedulerKind::Opt,
        "wdl" => SchedulerKind::Wdl,
        "dgcc" => SchedulerKind::Dgcc,
        "brook" => SchedulerKind::Brook,
        "low" => SchedulerKind::Low(2),
        other => {
            if let Some(k) = other.strip_prefix("low:").or(other.strip_prefix("low(")) {
                let k = k.trim_end_matches(')');
                let k: u32 = k.parse().map_err(|_| format!("bad LOW depth {k:?}"))?;
                SchedulerKind::Low(k)
            } else {
                return Err(format!("unknown scheduler {other:?}"));
            }
        }
    })
}

fn parse_workload(s: &str) -> Result<WorkloadKind, String> {
    let lower = s.to_ascii_lowercase();
    if lower == "exp2" {
        return Ok(WorkloadKind::Exp2);
    }
    if let Some(n) = lower.strip_prefix("exp1:") {
        let num_files = parse_file_count(n)?;
        return Ok(WorkloadKind::Exp1 { num_files });
    }
    if let Some(rest) = lower.strip_prefix("exp3:") {
        let (n, sigma) = rest
            .split_once(':')
            .ok_or_else(|| "exp3 wants exp3:FILES:SIGMA".to_string())?;
        let num_files = parse_file_count(n)?;
        let sigma: f64 = sigma.parse().map_err(|_| format!("bad sigma {sigma:?}"))?;
        return Ok(WorkloadKind::Exp3 { num_files, sigma });
    }
    Err(format!("unknown workload {s:?} (exp1:N | exp2 | exp3:N:S)"))
}

fn parse_file_count(n: &str) -> Result<u32, String> {
    match n.parse() {
        Ok(files) if files > 0 => Ok(files),
        _ => Err(format!("bad file count {n:?}")),
    }
}

/// The `step` reply's view of one trace record: the lifecycle facts a
/// client sees (`"e"` names the effect), or `None` for records that are
/// internal detail (lock requests, cohorts, CPU bursts, edges, …).
fn record_json(rec: &Rec) -> Option<String> {
    let mut o = JsonObj::new();
    let lock = |o: &mut JsonObj, e: &str, txn: u64, step: u32, file: u32| {
        o.str("e", e);
        o.int("txn", txn);
        o.int("step", u64::from(step));
        o.int("file", u64::from(file));
    };
    match rec.kind {
        EventKind::Arrival { txn } => {
            o.str("e", "arrived");
            o.int("txn", txn.0);
        }
        EventKind::Admit { txn } => {
            o.str("e", "admitted");
            o.int("txn", txn.0);
        }
        EventKind::AdmitRefuse { txn, .. } => {
            o.str("e", "admit-refused");
            o.int("txn", txn.0);
        }
        EventKind::LockGrant { txn, step, file } => lock(&mut o, "granted", txn.0, step, file.0),
        EventKind::LockBlock {
            txn, step, file, ..
        } => lock(&mut o, "blocked", txn.0, step, file.0),
        EventKind::LockDeny {
            txn, step, file, ..
        } => lock(&mut o, "delayed", txn.0, step, file.0),
        EventKind::Restart { txn } => {
            o.str("e", "restart");
            o.int("txn", txn.0);
        }
        EventKind::Commit { txn } => {
            o.str("e", "committed");
            o.int("txn", txn.0);
        }
        EventKind::Abort { txn, cause } => {
            o.str("e", "aborted");
            o.int("txn", txn.0);
            o.str(
                "cause",
                match cause {
                    AbortCause::Validation => "validation",
                    AbortCause::Scheduler => "scheduler",
                    AbortCause::Fault => "fault",
                },
            );
        }
        EventKind::TxnKilled { txn, .. } => {
            o.str("e", "killed");
            o.int("txn", txn.0);
        }
        EventKind::FaultInjected {
            node: Some(node),
            what: "dpn-crash",
            ..
        } => {
            o.str("e", "fault");
            o.str("action", "crash");
            o.int("node", u64::from(node));
        }
        EventKind::NodeRecovered { node } => {
            o.str("e", "fault");
            o.str("action", "recover");
            o.int("node", u64::from(node));
        }
        EventKind::FaultInjected {
            what: "cn-stall",
            dur,
            ..
        } => {
            o.str("e", "fault");
            o.str("action", "stall-cn");
            o.int("dur_ms", dur.as_millis());
        }
        _ => return None,
    }
    Some(o.finish())
}

impl Session {
    /// Dispatch one request line; returns (reply JSON, quit?).
    ///
    /// `sink` is the live connection: only `watch` writes to it (one
    /// NDJSON delta per interval, ahead of the final reply line).
    fn handle_line(&mut self, line: &str, sink: &mut dyn Write) -> (String, bool) {
        let req = match parse(line) {
            Ok(v) => v,
            Err(e) => return (err(&format!("bad JSON: {e}")), false),
        };
        let Some(cmd) = req.get("cmd").and_then(JsonValue::as_str) else {
            return (err("missing \"cmd\""), false);
        };
        if cmd == "quit" {
            return (ok().finish(), true);
        }
        let reply = match cmd {
            "configure" => self.configure(&req),
            "step" => self.step(&req),
            "run-until" => self.run_until(&req),
            "run" => self.run(),
            "submit" => self.submit(&req),
            "snapshot" => self.snapshot(&req),
            "restore" => self.restore(&req),
            "swap-scheduler" => self.swap(&req),
            "metrics" => self.metrics(&req),
            "report" => self.report(),
            "trace" => self.trace(&req),
            "watch" => self.watch(&req, sink),
            "status" => self.status(),
            other => Err(format!("unknown cmd {other:?}")),
        };
        (reply.unwrap_or_else(|e| err(&e)), false)
    }

    fn engine(&mut self) -> Result<&mut Engine, String> {
        self.engine
            .as_mut()
            .ok_or_else(|| "no session: send configure first".to_string())
    }

    fn configure(&mut self, req: &JsonValue) -> Result<String, String> {
        if let JsonValue::Obj(fields) = req {
            if let Some((key, _)) = fields
                .iter()
                .find(|(k, _)| !CONFIGURE_KEYS.contains(&k.as_str()))
            {
                return Err(format!(
                    "unknown configure key {key:?} (known: {})",
                    CONFIGURE_KEYS[1..].join(", ")
                ));
            }
        }
        let kind = match req.get("scheduler").and_then(JsonValue::as_str) {
            Some(s) => parse_kind(s)?,
            None => SchedulerKind::Gow,
        };
        let workload = match req.get("workload").and_then(JsonValue::as_str) {
            Some(s) => parse_workload(s)?,
            None => WorkloadKind::Exp1 { num_files: 16 },
        };
        let mut cfg = SimConfig::new(kind, workload);
        if let Some(l) = req.get("lambda").and_then(JsonValue::as_num) {
            if !(l > 0.0 && l.is_finite()) {
                return Err(format!("lambda must be positive, got {l}"));
            }
            cfg.lambda_tps = l;
        }
        if let Some(dd) = get_u32(req, "dd")? {
            cfg.dd = dd;
        }
        if let Some(h) = get_u64(req, "horizon_s")? {
            let ms = h
                .checked_mul(1000)
                .filter(|&ms| ms > 0)
                .ok_or_else(|| format!("horizon_s {h} out of range"))?;
            cfg.horizon = Duration::from_millis(ms);
        }
        if let Some(seed) = get_u64(req, "seed")? {
            cfg.seed = seed;
        }
        if let Some(mpl) = get_u32(req, "mpl")? {
            if mpl == 0 {
                return Err("mpl must be positive".into());
            }
            cfg.mpl = Some(mpl);
        }
        let metrics_dt = get_u64(req, "metrics_dt_ms")?;
        if metrics_dt == Some(0) {
            return Err("metrics_dt_ms must be positive".into());
        }
        let profile = match req.get("profile") {
            None => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err("profile must be true or false".into()),
        };
        if let Some(plan) = req.get("faults").and_then(JsonValue::as_str) {
            cfg = cfg.with_faults(FaultPlan::parse(plan)?);
        }
        if cfg.dd < 1 || cfg.dd > cfg.costs.num_nodes {
            return Err(format!(
                "dd {} out of range 1..={}",
                cfg.dd, cfg.costs.num_nodes
            ));
        }
        let mut engine = Engine::new(&cfg);
        engine.enable_checkpointing();
        if let Some(dt) = metrics_dt {
            engine.set_metrics_interval(Duration::from_millis(dt));
        }
        if profile {
            engine.set_profiler(Profiler::on());
        }
        let mut o = ok();
        o.str("scheduler", engine.label());
        o.int("horizon_ms", engine.horizon().as_millis());
        self.cfg = Some(cfg);
        self.engine = Some(engine);
        Ok(o.finish())
    }

    fn step(&mut self, req: &JsonValue) -> Result<String, String> {
        let n = get_u64(req, "n")?.unwrap_or(1);
        let e = self.engine()?;
        let mut effects = JsonArr::new();
        let mut records = Vec::new();
        let mut processed = 0u64;
        let mut at = e.now();
        for _ in 0..n {
            let Some(t) = e.step_records(&mut records) else {
                break;
            };
            processed += 1;
            at = t;
            for json in records.drain(..).filter_map(|rec| record_json(&rec)) {
                effects.raw(&json);
            }
        }
        let mut o = ok();
        o.int("events", processed);
        o.int("now_ms", at.as_millis());
        o.bool("done", processed < n);
        o.raw("effects", &effects.finish());
        Ok(o.finish())
    }

    fn run_until(&mut self, req: &JsonValue) -> Result<String, String> {
        let t = get_u64(req, "t_ms")?.ok_or("run-until wants t_ms")?;
        let e = self.engine()?;
        let n = e.run_until(SimTime::from_millis(t));
        let mut o = ok();
        o.int("events", n);
        o.int("now_ms", e.now().as_millis());
        Ok(o.finish())
    }

    fn run(&mut self) -> Result<String, String> {
        let e = self.engine()?;
        let before = e.events_processed();
        e.run_to_horizon();
        let mut o = ok();
        o.int("events", e.events_processed() - before);
        o.int("now_ms", e.now().as_millis());
        Ok(o.finish())
    }

    fn submit(&mut self, req: &JsonValue) -> Result<String, String> {
        // steps: [["r"|"rs"|"w", file, cost, declared?], ...] — "r" reads
        // under an X lock like the paper's Pattern 1, "rs" under a shared
        // lock, "w" writes.
        let num_files = self.engine()?.config().workload.num_files();
        let raw = req
            .get("steps")
            .and_then(JsonValue::as_arr)
            .ok_or("submit wants steps: [[op,file,cost,declared?],...]")?;
        let mut steps = Vec::with_capacity(raw.len());
        for (i, s) in raw.iter().enumerate() {
            let parts = s
                .as_arr()
                .ok_or_else(|| format!("step {i}: not an array"))?;
            let op = parts
                .first()
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("step {i}: missing op"))?;
            let file = parts
                .get(1)
                .and_then(JsonValue::as_num)
                .filter(|f| f.fract() == 0.0 && (0.0..f64::from(num_files)).contains(f))
                .ok_or_else(|| format!("step {i}: file must be an integer in 0..{num_files}"))?
                as u32;
            let cost = parts
                .get(2)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("step {i}: missing cost"))?;
            if !(cost.is_finite() && cost > 0.0) {
                return Err(format!("step {i}: bad cost {cost}"));
            }
            let mut step = match op {
                "r" => Step::read(FileId(file), LockMode::Exclusive, cost),
                "rs" => Step::read(FileId(file), LockMode::Shared, cost),
                "w" => Step::write(FileId(file), cost),
                other => return Err(format!("step {i}: unknown op {other:?}")),
            };
            if let Some(declared) = parts.get(3).and_then(JsonValue::as_num) {
                if !(declared.is_finite() && declared >= 0.0) {
                    return Err(format!("step {i}: bad declared {declared}"));
                }
                step = step.with_declared(declared);
            }
            steps.push(step);
        }
        if steps.is_empty() {
            return Err("submit wants at least one step".into());
        }
        let e = self.engine()?;
        let txn = e.submit(BatchSpec::new(steps));
        let mut o = ok();
        o.int("txn", txn.0);
        o.int("now_ms", e.now().as_millis());
        Ok(o.finish())
    }

    fn snapshot(&mut self, req: &JsonValue) -> Result<String, String> {
        let path = req
            .get("path")
            .and_then(JsonValue::as_str)
            .map(String::from);
        let e = self.engine()?;
        let snap = e.snapshot();
        let text = snap.to_json();
        let mut o = ok();
        o.int("now_ms", snap.now().as_millis());
        o.int("events", snap.events_popped());
        match path {
            Some(p) => {
                std::fs::write(&p, &text).map_err(|io| format!("write {p}: {io}"))?;
                o.str("path", &p);
                o.int("bytes", text.len() as u64);
            }
            None => o.raw("snapshot", &text),
        }
        Ok(o.finish())
    }

    fn restore(&mut self, req: &JsonValue) -> Result<String, String> {
        let path = req
            .get("path")
            .and_then(JsonValue::as_str)
            .ok_or("restore wants path")?;
        let text = std::fs::read_to_string(path).map_err(|io| format!("read {path}: {io}"))?;
        let snap = Snapshot::from_json(&text)?;
        let base = self
            .cfg
            .as_ref()
            .ok_or("no session: send configure first (it sets the base config)")?;
        // The restored run keeps the snapshot's scheduler; everything
        // else must match the configured base exactly.
        let mut check = base.clone();
        check.scheduler = snap.scheduler();
        if check.cache_key() != snap.cache_key() {
            return Err("snapshot was taken under a different configuration".into());
        }
        // Carry the session's profiler across the rebuild so a watch or
        // profile spanning a restore keeps one continuous timeline (the
        // rebuild itself lands in the `restore` phase).
        let obs = self
            .engine
            .as_mut()
            .map(Engine::take_profiler)
            .unwrap_or_default();
        let engine = Engine::restore_with_profiler(base, &snap, obs);
        let mut o = ok();
        o.str("scheduler", engine.label());
        o.int("now_ms", engine.now().as_millis());
        o.int("events", engine.events_processed());
        self.engine = Some(engine);
        Ok(o.finish())
    }

    fn swap(&mut self, req: &JsonValue) -> Result<String, String> {
        let kind = req
            .get("scheduler")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "swap-scheduler wants scheduler".to_string())
            .and_then(parse_kind)?;
        let e = self.engine()?;
        let drained = e.swap_scheduler(kind);
        let mut o = ok();
        o.str("scheduler", e.label());
        o.int("drained_events", drained);
        o.int("now_ms", e.now().as_millis());
        Ok(o.finish())
    }

    fn metrics(&mut self, req: &JsonValue) -> Result<String, String> {
        let format = req
            .get("format")
            .and_then(JsonValue::as_str)
            .unwrap_or("prom");
        let e = self.engine()?;
        let r = e.report();
        let in_flight = e.in_flight();
        let body = match format {
            "prom" => {
                let mut p = PromText::new();
                let labels: &[(&str, &str)] = &[("scheduler", &r.scheduler)];
                p.counter(
                    "bds_txns_arrived",
                    "Transactions arrived",
                    labels,
                    r.arrived,
                );
                p.counter(
                    "bds_txns_committed",
                    "Transactions committed",
                    labels,
                    r.completed,
                );
                p.counter(
                    "bds_txns_killed",
                    "Transactions permanently killed",
                    labels,
                    r.killed,
                );
                p.counter(
                    "bds_txn_restarts",
                    "Attempts aborted and restarted",
                    labels,
                    r.restarts,
                );
                p.counter(
                    "bds_events_total",
                    "Simulation events processed",
                    labels,
                    r.events,
                );
                p.counter(
                    "bds_lock_requests",
                    "Lock requests evaluated",
                    labels,
                    r.lock_requests,
                );
                p.gauge(
                    "bds_txns_in_flight",
                    "Arrived, not yet committed or killed",
                    labels,
                    in_flight as f64,
                );
                p.gauge(
                    "bds_sim_now_seconds",
                    "Simulated clock",
                    labels,
                    e.now().as_millis() as f64 / 1e3,
                );
                p.gauge(
                    "bds_cn_utilization",
                    "Control-node CPU utilization",
                    labels,
                    r.cn_utilization,
                );
                p.gauge(
                    "bds_dpn_utilization",
                    "Mean data-node utilization",
                    labels,
                    r.dpn_utilization,
                );
                p.gauge(
                    "bds_availability",
                    "Fraction of node-time up",
                    labels,
                    r.availability,
                );
                p.histogram(
                    "bds_response_time_seconds",
                    "Committed-transaction response time",
                    labels,
                    e.rt_histogram(),
                );
                p.finish()
            }
            "csv" => {
                let mut csv = String::from("metric,value\n");
                for (k, v) in [
                    ("arrived", r.arrived as f64),
                    ("completed", r.completed as f64),
                    ("killed", r.killed as f64),
                    ("restarts", r.restarts as f64),
                    ("in_flight", in_flight as f64),
                    ("events", r.events as f64),
                    ("mean_rt_s", r.mean_rt_secs()),
                    ("throughput_tps", r.throughput_tps()),
                    ("cn_utilization", r.cn_utilization),
                    ("dpn_utilization", r.dpn_utilization),
                    ("availability", r.availability),
                ] {
                    csv.push_str(&format!("{k},{v}\n"));
                }
                csv
            }
            "series-csv" => {
                // Detaches the sampler: the sampled series so far, as CSV.
                e.take_metrics()
                    .ok_or(
                        "no series: configure with metrics_dt_ms first (series-csv detaches it)",
                    )?
                    .to_csv()
            }
            other => {
                return Err(format!(
                    "unknown format {other:?} (prom | csv | series-csv)"
                ))
            }
        };
        let mut o = ok();
        o.str("format", format);
        o.str("body", &body);
        Ok(o.finish())
    }

    fn report(&mut self) -> Result<String, String> {
        let e = self.engine()?;
        let mut o = ok();
        o.raw("report", &e.report().to_json());
        o.int("in_flight", e.in_flight());
        Ok(o.finish())
    }

    fn trace(&mut self, req: &JsonValue) -> Result<String, String> {
        let capacity = get_u64(req, "capacity")?;
        let dump = req
            .get("dump")
            .and_then(JsonValue::as_str)
            .map(String::from);
        let e = self.engine()?;
        let mut o = ok();
        match (capacity, dump) {
            (Some(cap), None) => {
                e.set_tracer(Tracer::ring(cap as usize));
                o.int("capacity", cap);
            }
            (None, Some(path)) => {
                let data = e
                    .take_trace()
                    .ok_or("no tracer: send trace with capacity first")?;
                let text = chrome_trace(&data);
                std::fs::write(&path, &text).map_err(|io| format!("write {path}: {io}"))?;
                o.str("path", &path);
                o.int("bytes", text.len() as u64);
            }
            _ => return Err("trace wants capacity (install) xor dump (write chrome trace)".into()),
        }
        Ok(o.finish())
    }

    fn status(&mut self) -> Result<String, String> {
        let e = self.engine()?;
        let mut o = ok();
        o.str("scheduler", e.label());
        o.int("now_ms", e.now().as_millis());
        o.int("horizon_ms", e.horizon().as_millis());
        o.int("events", e.events_processed());
        o.int("arrived", e.arrived());
        o.int("completed", e.completed());
        o.int("killed", e.killed());
        o.int("in_flight", e.in_flight());
        o.bool(
            "conserved",
            e.arrived() == e.completed() + e.killed() + e.in_flight(),
        );
        o.bool("profiler", e.profiler_enabled());
        o.raw("build", &bds_obs::build_info_json());
        Ok(o.finish())
    }

    /// Advance the simulation in `interval_ms` sim-time chunks up to
    /// `t_ms` (default: the horizon), streaming one NDJSON telemetry
    /// delta per chunk to the client before the final reply. Installs
    /// the host profiler if none is attached, so phase shares are
    /// included from the first delta.
    fn watch(&mut self, req: &JsonValue, sink: &mut dyn Write) -> Result<String, String> {
        let t_ms = get_u64(req, "t_ms")?;
        let interval = get_u64(req, "interval_ms")?.unwrap_or(1_000);
        if interval == 0 {
            return Err("interval_ms must be positive".into());
        }
        let max_deltas = get_u64(req, "max_deltas")?.unwrap_or(u64::MAX);
        let e = self.engine()?;
        let target = t_ms
            .unwrap_or(e.horizon().as_millis())
            .min(e.horizon().as_millis());
        if !e.profiler_enabled() {
            e.set_profiler(Profiler::on());
        }
        let started = std::time::Instant::now();
        let mut prev = WatchPoint::capture(e, e.now().as_millis());
        let mut deltas = 0u64;
        // Advance a sim-time cursor rather than chasing `e.now()`: once
        // the event queue drains the clock stops moving, but the cursor
        // still reaches `target` and the loop terminates.
        let mut cursor = prev.t_ms;
        while cursor < target && deltas < max_deltas {
            cursor = (cursor + interval).min(target);
            e.run_until(SimTime::from_millis(cursor));
            let cur = WatchPoint::capture(e, cursor);
            deltas += 1;
            let line = watch_delta(e, &prev, &cur, deltas, started.elapsed().as_millis() as u64);
            if writeln!(sink, "{line}")
                .and_then(|()| sink.flush())
                .is_err()
            {
                break; // client went away; stop advancing on its behalf
            }
            prev = cur;
        }
        let mut o = ok();
        o.int("deltas", deltas);
        o.int("t_ms", target);
        o.int("interval_ms", interval);
        o.int("now_ms", e.now().as_millis());
        o.int("events", e.events_processed());
        Ok(o.finish())
    }
}

/// Counter snapshot at one watch interval boundary; deltas between two
/// of these give the windowed rates.
struct WatchPoint {
    /// Interval-boundary sim time (not `e.now()`, which stops at the
    /// last event), so rates divide by the full chunk width.
    t_ms: u64,
    events: u64,
    arrived: u64,
    completed: u64,
    killed: u64,
    restarts: u64,
}

impl WatchPoint {
    fn capture(e: &Engine, t_ms: u64) -> WatchPoint {
        let r = e.report();
        WatchPoint {
            t_ms,
            events: e.events_processed(),
            arrived: e.arrived(),
            completed: e.completed(),
            killed: e.killed(),
            restarts: r.restarts,
        }
    }
}

/// One `{"watch":true,...}` NDJSON line: cumulative progress, windowed
/// per-sim-second rates, and (when the profiler is live) phase shares.
fn watch_delta(e: &Engine, prev: &WatchPoint, cur: &WatchPoint, seq: u64, wall_ms: u64) -> String {
    let mut o = JsonObj::new();
    o.bool("watch", true);
    o.int("seq", seq);
    o.int("now_ms", cur.t_ms);
    o.int("wall_ms", wall_ms);
    o.int("events", cur.events);
    o.int("arrived", cur.arrived);
    o.int("completed", cur.completed);
    o.int("killed", cur.killed);
    o.int("restarts", cur.restarts);
    o.int("in_flight", e.in_flight());
    let dt_s = cur.t_ms.saturating_sub(prev.t_ms) as f64 / 1e3;
    let rate = |now: u64, before: u64| {
        if dt_s > 0.0 {
            now.saturating_sub(before) as f64 / dt_s
        } else {
            0.0
        }
    };
    let mut rates = JsonObj::new();
    rates.num("arrivals_per_s", rate(cur.arrived, prev.arrived));
    rates.num("commits_per_s", rate(cur.completed, prev.completed));
    rates.num("restarts_per_s", rate(cur.restarts, prev.restarts));
    rates.num("events_per_s", rate(cur.events, prev.events));
    o.raw("rates", &rates.finish());
    if let Some(prof) = e.profile() {
        let mut phases = JsonObj::new();
        for (label, share) in prof.phase_shares() {
            phases.num(label, share);
        }
        o.raw("phases", &phases.finish());
    }
    o.finish()
}
