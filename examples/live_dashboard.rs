//! A live terminal dashboard over the host profiler and the `watch`
//! telemetry stream: windowed commit/restart/event rates as scrolling
//! sparklines and the profiler's phase shares, redrawn in place as the
//! simulation advances.
//!
//! ```text
//! cargo run --release --example live_dashboard
//! cargo run --release --example live_dashboard -- --connect 127.0.0.1:7070
//! ```
//!
//! With no arguments the dashboard drives an in-process profiled engine
//! (Exp-1, 16 files, λ = 1.1, GOW) and reads its profile directly.
//! With `--connect HOST:PORT` it attaches to a running
//! `bds-serve --listen` session instead, configures one if the session
//! is empty, issues a `watch` command, and renders the NDJSON deltas as
//! they stream in — the same numbers, produced server-side.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::time::SimTime;
use batchsched::des::Duration;
use batchsched::engine::engine::Engine;
use batchsched::obs::Profiler;
use batchsched::telemetry::{parse, sparkline, JsonValue};
use bds_sched::SchedulerKind;
use std::io::{BufRead, BufReader, IsTerminal, Write};

/// Sparkline history width (points kept per rate).
const WIDTH: usize = 60;

/// One rendered tick of telemetry, source-agnostic: the in-process
/// engine and the `watch` stream both reduce to this.
#[derive(Default)]
struct Frame {
    t_ms: u64,
    horizon_ms: u64,
    completed: u64,
    in_flight: u64,
    commits_per_s: f64,
    restarts_per_s: f64,
    events_per_s: f64,
    /// (phase label, share of attributed time).
    phases: Vec<(String, f64)>,
}

/// Scrolling rate histories plus in-place terminal redraw.
struct Dashboard {
    scheduler: String,
    commits: Vec<f64>,
    restarts: Vec<f64>,
    events: Vec<f64>,
    in_flight: Vec<f64>,
    drawn_lines: usize,
    tty: bool,
}

impl Dashboard {
    fn new(scheduler: &str) -> Dashboard {
        Dashboard {
            scheduler: scheduler.to_string(),
            commits: Vec::new(),
            restarts: Vec::new(),
            events: Vec::new(),
            in_flight: Vec::new(),
            drawn_lines: 0,
            tty: std::io::stdout().is_terminal(),
        }
    }

    fn push(&mut self, f: &Frame) {
        for (hist, v) in [
            (&mut self.commits, f.commits_per_s),
            (&mut self.restarts, f.restarts_per_s),
            (&mut self.events, f.events_per_s),
            (&mut self.in_flight, f.in_flight as f64),
        ] {
            hist.push(v);
            if hist.len() > WIDTH {
                hist.remove(0);
            }
        }
        self.render(f);
    }

    fn render(&mut self, f: &Frame) {
        let mut out = String::new();
        out.push_str(&format!(
            "live dashboard — {}  t = {:.0}s / {:.0}s  committed {}\n",
            self.scheduler,
            f.t_ms as f64 / 1e3,
            f.horizon_ms as f64 / 1e3,
            f.completed
        ));
        for (label, hist) in [
            ("commits/s", &self.commits),
            ("restarts/s", &self.restarts),
            ("events/s", &self.events),
            ("in flight", &self.in_flight),
        ] {
            let last = hist.last().copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {label:<10} {:<WIDTH$} {last:>9.2}\n",
                sparkline(hist)
            ));
        }
        if !f.phases.is_empty() {
            let shares = f
                .phases
                .iter()
                .filter(|(_, s)| *s >= 0.005)
                .map(|(p, s)| format!("{p} {:.0}%", s * 100.0))
                .collect::<Vec<_>>()
                .join("  ");
            out.push_str(&format!("  phases:    {shares}\n"));
        }
        if self.tty && self.drawn_lines > 0 {
            // Redraw over the previous frame.
            print!("\x1b[{}A\x1b[J", self.drawn_lines);
        }
        print!("{out}");
        std::io::stdout().flush().expect("flush dashboard");
        self.drawn_lines = out.lines().count();
    }
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_num).unwrap_or(0.0)
}

/// One request/reply round-trip over the NDJSON session socket.
fn ask(
    w: &mut std::net::TcpStream,
    reader: &mut BufReader<std::net::TcpStream>,
    req: &str,
) -> JsonValue {
    writeln!(w, "{req}").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
}

/// Attach to a `bds-serve --listen` session: configure it if empty,
/// issue one full-horizon `watch`, and render the streamed deltas.
fn run_connected(addr: &str) {
    let stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("connect {addr}: {e} (start `bds-serve --listen {addr}`)"));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut status = ask(&mut writer, &mut reader, r#"{"cmd":"status"}"#);
    if status.get("ok") != Some(&JsonValue::Bool(true)) {
        println!("no session on {addr}; configuring the demo point");
        ask(
            &mut writer,
            &mut reader,
            r#"{"cmd":"configure","scheduler":"gow","lambda":1.1,"horizon_s":600,"seed":7}"#,
        );
        status = ask(&mut writer, &mut reader, r#"{"cmd":"status"}"#);
    }
    let scheduler = status
        .get("scheduler")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_string();
    let horizon_ms = num(&status, "horizon_ms") as u64;
    let mut dash = Dashboard::new(&scheduler);
    writeln!(writer, r#"{{"cmd":"watch","interval_ms":10000}}"#).expect("send watch");
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("recv delta") == 0 {
            break;
        }
        let v = parse(&line).unwrap_or_else(|e| panic!("bad stream line {line:?}: {e}"));
        if v.get("watch") != Some(&JsonValue::Bool(true)) {
            // Final reply: the watch is complete.
            println!("watch finished: {} delta(s)", num(&v, "deltas") as u64);
            break;
        }
        let rates = v.get("rates").cloned().unwrap_or(JsonValue::Null);
        let phases = match v.get("phases") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, s)| s.as_num().map(|n| (k.clone(), n)))
                .collect(),
            _ => Vec::new(),
        };
        dash.push(&Frame {
            t_ms: num(&v, "now_ms") as u64,
            horizon_ms,
            completed: num(&v, "completed") as u64,
            in_flight: num(&v, "in_flight") as u64,
            commits_per_s: num(&rates, "commits_per_s"),
            restarts_per_s: num(&rates, "restarts_per_s"),
            events_per_s: num(&rates, "events_per_s"),
            phases,
        });
    }
}

/// Drive a profiled engine in-process and render its telemetry at every
/// sim-time chunk — no server required.
fn run_in_process() {
    let mut cfg = SimConfig::new(SchedulerKind::Gow, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.1;
    cfg.horizon = Duration::from_secs(600);
    let horizon_ms = cfg.horizon.as_millis();
    let interval_ms = 10_000u64;
    let mut engine = Engine::new(&cfg);
    engine.set_profiler(Profiler::on());
    let mut dash = Dashboard::new(engine.label());
    let mut prev = (0u64, 0u64, 0u64, 0u64); // (t_ms, completed, restarts, events)
    let mut cursor = 0u64;
    while cursor < horizon_ms {
        cursor = (cursor + interval_ms).min(horizon_ms);
        engine.run_until(SimTime::from_millis(cursor));
        let r = engine.report();
        let dt_s = (cursor - prev.0) as f64 / 1e3;
        let prof = engine.profile().expect("profiler is on");
        dash.push(&Frame {
            t_ms: cursor,
            horizon_ms,
            completed: r.completed,
            in_flight: engine.in_flight(),
            commits_per_s: (r.completed - prev.1) as f64 / dt_s,
            restarts_per_s: (r.restarts - prev.2) as f64 / dt_s,
            events_per_s: (r.events - prev.3) as f64 / dt_s,
            phases: prof
                .phase_shares()
                .iter()
                .map(|(p, s)| (p.to_string(), *s))
                .collect(),
        });
        prev = (cursor, r.completed, r.restarts, r.events);
        // Pace the demo so the redraw is visible as a live stream.
        if std::io::stdout().is_terminal() {
            std::thread::sleep(std::time::Duration::from_millis(120));
        }
    }
    let r = engine.report();
    println!(
        "done: {} arrived, {} committed, {} restarts over {:.0}s simulated",
        r.arrived, r.completed, r.restarts, r.horizon_secs
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--connect") => {
            let addr = args.get(1).unwrap_or_else(|| {
                eprintln!("--connect requires HOST:PORT");
                std::process::exit(2);
            });
            run_connected(addr);
        }
        Some(other) => {
            eprintln!("unknown argument {other:?} (usage: live_dashboard [--connect HOST:PORT])");
            std::process::exit(2);
        }
        None => run_in_process(),
    }
}
