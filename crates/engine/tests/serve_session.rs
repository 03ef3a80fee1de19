//! End-to-end smoke of the `bds-serve` NDJSON protocol: spawn the real
//! binary, drive a session through submit → run → snapshot →
//! hot-swap → restore → metrics, and check the conservation invariant
//! (arrivals = commits + kills + in-flight) at every probe point.

use bds_metrics::{parse, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Serve {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    fn spawn() -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bds-serve"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn bds-serve");
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        Serve {
            child,
            stdin,
            stdout,
        }
    }

    /// Send one request line, read one reply line, require `"ok":true`.
    fn send(&mut self, req: &str) -> JsonValue {
        self.send_raw(req).1
    }

    /// [`Serve::send`], also returning the reply line as sent.
    fn send_raw(&mut self, req: &str) -> (String, JsonValue) {
        writeln!(self.stdin, "{req}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read reply");
        let reply = parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(
            reply.get("ok"),
            Some(&JsonValue::Bool(true)),
            "request {req} failed: {line}"
        );
        (line, reply)
    }

    /// Send a streaming request: collect `{"watch":true,...}` delta
    /// lines until the final reply arrives, which must be `"ok":true`.
    fn send_watch(&mut self, req: &str) -> (Vec<JsonValue>, JsonValue) {
        writeln!(self.stdin, "{req}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut deltas = Vec::new();
        loop {
            let mut line = String::new();
            self.stdout.read_line(&mut line).expect("read stream line");
            let v = parse(&line).unwrap_or_else(|e| panic!("bad stream line {line:?}: {e}"));
            if v.get("watch") == Some(&JsonValue::Bool(true)) {
                deltas.push(v);
                continue;
            }
            assert_eq!(
                v.get("ok"),
                Some(&JsonValue::Bool(true)),
                "request {req} failed: {line}"
            );
            return (deltas, v);
        }
    }

    /// Send a request that must be refused.
    fn send_err(&mut self, req: &str) -> String {
        writeln!(self.stdin, "{req}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read reply");
        let reply = parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(
            reply.get("ok"),
            Some(&JsonValue::Bool(false)),
            "request {req} unexpectedly succeeded: {line}"
        );
        reply
            .get("error")
            .and_then(JsonValue::as_str)
            .expect("error message")
            .to_string()
    }

    fn quit(mut self) {
        self.send(r#"{"cmd":"quit"}"#);
        let status = self.child.wait().expect("wait for bds-serve");
        assert!(status.success(), "bds-serve exited with {status}");
    }
}

fn num(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_num)
        .unwrap_or_else(|| panic!("missing {key} in {v:?}")) as u64
}

/// The invariant every status reply must satisfy.
fn check_conserved(status: &JsonValue) {
    assert_eq!(status.get("conserved"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        num(status, "arrived"),
        num(status, "completed") + num(status, "killed") + num(status, "in_flight"),
    );
}

#[test]
fn session_with_snapshot_swap_and_restore() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("bds-serve-ckpt-{}.json", std::process::id()));
    let ckpt_str = ckpt.to_str().expect("utf-8 temp path");
    let mut s = Serve::spawn();

    // Commands before configure are refused, not fatal.
    let msg = s.send_err(r#"{"cmd":"run"}"#);
    assert!(msg.contains("configure"), "unhelpful error: {msg}");

    let r = s.send(
        r#"{"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":300,"seed":7,"faults":"crash=2@80x15,retry=1000:8000:4"}"#,
    );
    assert_eq!(r.get("scheduler").and_then(JsonValue::as_str), Some("GOW"));

    // An out-of-band submission rides along with the Poisson stream.
    let r = s.send(r#"{"cmd":"submit","steps":[["r",3,1200.0],["w",7,600.0]]}"#);
    let submitted = num(&r, "txn");
    let r = s.send(r#"{"cmd":"submit","steps":[["rs",5,800.0]]}"#);
    assert_ne!(num(&r, "txn"), submitted, "submissions get distinct ids");

    let r = s.send(r#"{"cmd":"run-until","t_ms":60000}"#);
    assert!(num(&r, "events") > 0);
    assert!(num(&r, "now_ms") <= 60_000);

    // Single-stepping reports effects.
    let r = s.send(r#"{"cmd":"step","n":25}"#);
    assert_eq!(num(&r, "events"), 25);
    let effects = r
        .get("effects")
        .and_then(JsonValue::as_arr)
        .expect("effects");
    assert!(
        !effects.is_empty(),
        "25 mid-run events must produce effects"
    );

    let snap = s.send(&format!(r#"{{"cmd":"snapshot","path":"{ckpt_str}"}}"#));
    let snap_now = num(&snap, "now_ms");
    let snap_events = num(&snap, "events");
    assert!(num(&snap, "bytes") > 0);

    // Hot-swap at an epoch boundary: the engine drains in-flight work,
    // re-registers survivors, and keeps every transaction accounted for.
    let r = s.send(r#"{"cmd":"swap-scheduler","scheduler":"asl"}"#);
    assert_eq!(r.get("scheduler").and_then(JsonValue::as_str), Some("ASL"));
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);

    s.send(r#"{"cmd":"run-until","t_ms":150000}"#);
    let status = s.send(r#"{"cmd":"status"}"#);
    assert_eq!(
        status.get("scheduler").and_then(JsonValue::as_str),
        Some("ASL")
    );
    check_conserved(&status);

    // Restore rewinds to the checkpoint: same clock, same event count,
    // original scheduler.
    let r = s.send(&format!(r#"{{"cmd":"restore","path":"{ckpt_str}"}}"#));
    assert_eq!(r.get("scheduler").and_then(JsonValue::as_str), Some("GOW"));
    assert_eq!(num(&r, "now_ms"), snap_now);
    assert_eq!(num(&r, "events"), snap_events);
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);

    // Prometheus exposition parses: TYPE lines and the core series.
    let m = s.send(r#"{"cmd":"metrics"}"#);
    let body = m
        .get("body")
        .and_then(JsonValue::as_str)
        .expect("prom body");
    for needle in [
        "# TYPE bds_txns_arrived counter",
        "# TYPE bds_txns_in_flight gauge",
        "# TYPE bds_response_time_seconds histogram",
        "bds_response_time_seconds_bucket",
        "scheduler=\"GOW\"",
    ] {
        assert!(
            body.contains(needle),
            "prom text missing {needle:?}:\n{body}"
        );
    }
    for line in body.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "unparseable prom line {line:?}"
        );
    }

    let m = s.send(r#"{"cmd":"metrics","format":"csv"}"#);
    let body = m.get("body").and_then(JsonValue::as_str).expect("csv body");
    assert!(body.starts_with("metric,value\n"));
    assert!(body.lines().count() > 5);

    // Run out the horizon and read the final report.
    s.send(r#"{"cmd":"run"}"#);
    let r = s.send(r#"{"cmd":"report"}"#);
    let report = r.get("report").expect("report object");
    assert_eq!(
        report.get("scheduler").and_then(JsonValue::as_str),
        Some("GOW")
    );
    assert!(num(report, "completed") > 0);
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);

    s.quit();
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn restored_session_finishes_identically() {
    // Per config, drive two sessions: one straight through, one
    // snapshotted between runs, run on (past a scheduler swap for the
    // first config), then restored. Their final reports must be
    // identical text.
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("bds-serve-ident-{}.json", std::process::id()));
    let ckpt_str = ckpt.to_str().expect("utf-8 temp path");
    let cases = [
        (
            r#"{"cmd":"configure","scheduler":"c2pl","lambda":0.6,"horizon_s":300,"seed":11}"#,
            Some("wdl"),
        ),
        (
            r#"{"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":300,"seed":17,"faults":"crash=1@60x20"}"#,
            None,
        ),
    ];
    for (cfg, swap) in cases {
        let mut a = Serve::spawn();
        a.send(cfg);
        a.send(r#"{"cmd":"run"}"#);
        let straight = a.send(r#"{"cmd":"report"}"#);
        a.quit();

        let mut b = Serve::spawn();
        b.send(cfg);
        b.send(r#"{"cmd":"run-until","t_ms":90000}"#);
        let status = b.send(r#"{"cmd":"status"}"#);
        check_conserved(&status);
        b.send(&format!(r#"{{"cmd":"snapshot","path":"{ckpt_str}"}}"#));
        if let Some(kind) = swap {
            b.send(&format!(
                r#"{{"cmd":"swap-scheduler","scheduler":"{kind}"}}"#
            ));
        }
        b.send(r#"{"cmd":"run-until","t_ms":200000}"#);
        b.send(&format!(r#"{{"cmd":"restore","path":"{ckpt_str}"}}"#));
        b.send(r#"{"cmd":"run"}"#);
        let restored = b.send(r#"{"cmd":"report"}"#);
        b.quit();

        assert_eq!(
            straight.get("report"),
            restored.get("report"),
            "detour through snapshot + restore changed the outcome of {cfg}"
        );
    }
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn configure_refuses_bad_input_and_stays_up() {
    let mut s = Serve::spawn();
    s.send(r#"{"cmd":"configure","scheduler":"low","horizon_s":60,"seed":1}"#);
    // (request, substring the error must name)
    let cases = [
        (r#"{"cmd":"configure","mpl":0}"#, "mpl"),
        (r#"{"cmd":"configure","mpl":4294967296}"#, "mpl"),
        (r#"{"cmd":"configure","dd":4294967297}"#, "dd"),
        (r#"{"cmd":"configure","dd":1.5}"#, "dd"),
        (r#"{"cmd":"configure","seed":-1}"#, "seed"),
        (r#"{"cmd":"configure","horizon_s":1e30}"#, "horizon_s"),
        (
            r#"{"cmd":"configure","horizon_s":18446744073709551}"#,
            "horizon_s",
        ),
        (r#"{"cmd":"configure","horizon_s":0}"#, "horizon_s"),
        (r#"{"cmd":"configure","metrics_dt_ms":0}"#, "metrics_dt_ms"),
        (r#"{"cmd":"configure","profile":1}"#, "profile"),
        (r#"{"cmd":"configure","workload":"exp1:0"}"#, "file count"),
        (r#"{"cmd":"configure","bogus":1}"#, "bogus"),
        // `submit` file ids must be integers naming one of the 16 files.
        // Under LOW an id of 1e12 used to abort the whole server: the
        // WTPG sizes per-file state by the largest id it sees.
        (r#"{"cmd":"submit","steps":[["r",-1,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",2.7,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",16,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",1e12,100.0]]}"#, "file"),
    ];
    for (req, needle) in cases {
        let msg = s.send_err(req);
        assert!(
            msg.contains(needle),
            "{req}: error {msg:?} lacks {needle:?}"
        );
        // The server is still up and the refused request left the
        // configured session untouched.
        let status = s.send(r#"{"cmd":"status"}"#);
        check_conserved(&status);
        assert_eq!(num(&status, "horizon_ms"), 60_000, "after {req}");
        assert_eq!(num(&status, "arrived"), 0, "after {req}");
    }
    s.quit();
}

#[test]
fn batch_epoch_schedulers_serve_end_to_end() {
    // The batch/epoch family (DGCC, BROOK) drives through the full
    // session surface: configure, run, hot-swap between the two, and a
    // snapshot/restore round trip that preserves the kind on the wire.
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("bds-serve-dgcc-{}.json", std::process::id()));
    let ckpt_str = ckpt.to_str().expect("utf-8 temp path");

    let mut s = Serve::spawn();
    let r =
        s.send(r#"{"cmd":"configure","scheduler":"dgcc","lambda":0.6,"horizon_s":300,"seed":13}"#);
    assert_eq!(r.get("scheduler").and_then(JsonValue::as_str), Some("DGCC"));
    s.send(r#"{"cmd":"run-until","t_ms":60000}"#);
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);

    s.send(&format!(r#"{{"cmd":"snapshot","path":"{ckpt_str}"}}"#));
    let r = s.send(r#"{"cmd":"swap-scheduler","scheduler":"brook"}"#);
    assert_eq!(
        r.get("scheduler").and_then(JsonValue::as_str),
        Some("BROOK")
    );
    s.send(r#"{"cmd":"run-until","t_ms":150000}"#);
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);
    // Brook never aborts of its own accord, served or not.
    let r = s.send(r#"{"cmd":"report"}"#);
    let report = r.get("report").expect("report object");
    assert_eq!(num(report, "aborts_scheduler"), 0);

    // Restore rewinds to the DGCC checkpoint: the kind round-trips.
    let r = s.send(&format!(r#"{{"cmd":"restore","path":"{ckpt_str}"}}"#));
    assert_eq!(r.get("scheduler").and_then(JsonValue::as_str), Some("DGCC"));
    s.send(r#"{"cmd":"run"}"#);
    let r = s.send(r#"{"cmd":"report"}"#);
    let report = r.get("report").expect("report object");
    assert!(num(report, "completed") > 0);
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);

    s.quit();
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn watch_streams_live_telemetry_deltas() {
    // Reference: the same point run straight through, serial, unprofiled.
    let mut a = Serve::spawn();
    a.send(r#"{"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":300,"seed":5}"#);
    a.send(r#"{"cmd":"run"}"#);
    let plain = a.send(r#"{"cmd":"report"}"#);
    a.quit();

    // Watched session: advanced in 20 s chunks with one telemetry
    // delta streamed per chunk.
    let mut s = Serve::spawn();
    s.send(r#"{"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":300,"seed":5}"#);
    let (deltas, reply) = s.send_watch(r#"{"cmd":"watch","t_ms":120000,"interval_ms":20000}"#);
    assert_eq!(num(&reply, "deltas"), deltas.len() as u64);
    assert!(deltas.len() >= 3, "wanted >=3 deltas, got {}", deltas.len());
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!(num(d, "seq"), i as u64 + 1);
        assert_eq!(num(d, "now_ms"), 20_000 * (i as u64 + 1));
        let rates = d.get("rates").expect("rates object");
        assert!(rates
            .get("commits_per_s")
            .and_then(JsonValue::as_num)
            .is_some());
        // watch auto-installs the profiler, so phase shares stream live:
        // one share per pump phase, each in [0, 1], summing to one.
        let Some(JsonValue::Obj(phases)) = d.get("phases") else {
            panic!("delta {i} lacks phase shares: {d:?}");
        };
        let share = |label: &str| {
            phases
                .iter()
                .find(|(k, _)| k == label)
                .and_then(|(_, v)| v.as_num())
                .unwrap_or_else(|| panic!("delta {i} lacks phase {label}: {phases:?}"))
        };
        for label in ["event_queue", "scheduler_decide", "cn_work"] {
            assert!((0.0..=1.0).contains(&share(label)), "{label} share");
        }
        let total: f64 = phases.iter().filter_map(|(_, v)| v.as_num()).sum();
        assert!((total - 1.0).abs() < 1e-9, "phase shares sum to {total}");
        assert!(share("event_queue") > 0.0, "the pump's queue phase ran");
        assert!(d.get("obs").is_none(), "only phase shares are streamed");
    }
    let last = deltas.last().expect("deltas");
    assert!(num(last, "events") > 0);
    assert!(num(last, "completed") > 0);

    // Status is enriched with profiler and build info.
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);
    assert_eq!(status.get("profiler"), Some(&JsonValue::Bool(true)));
    let build = status.get("build").expect("build info");
    assert_eq!(
        build.get("package").and_then(JsonValue::as_str),
        Some("batchsched")
    );
    assert!(build.get("version").and_then(JsonValue::as_str).is_some());

    // Finish the horizon under watch; chunked advance + live profiling
    // must not perturb the simulation outcome.
    let (tail, _) = s.send_watch(r#"{"cmd":"watch","interval_ms":60000}"#);
    assert!(!tail.is_empty());
    let watched = s.send(r#"{"cmd":"report"}"#);
    s.quit();
    assert_eq!(
        plain.get("report"),
        watched.get("report"),
        "watch changed the outcome"
    );
}

#[test]
fn tcp_listener_serves_the_same_protocol() {
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bds-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bds-serve --listen");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |req: &str| -> JsonValue {
        writeln!(writer, "{req}").expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        let v = parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)), "{req} -> {line}");
        v
    };

    ask(r#"{"cmd":"configure","scheduler":"low","lambda":0.5,"horizon_s":120,"seed":3}"#);
    let r = ask(r#"{"cmd":"run-until","t_ms":60000}"#);
    assert!(num(&r, "events") > 0);
    let status = ask(r#"{"cmd":"status"}"#);
    assert_eq!(
        status.get("scheduler").and_then(JsonValue::as_str),
        Some("LOW")
    );
    check_conserved(&status);
    ask(r#"{"cmd":"quit"}"#);

    let status = child.wait().expect("wait");
    assert!(status.success(), "bds-serve exited with {status}");
}

/// FNV-1a 64-bit, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of every `step` reply below, concatenated in order. A change
/// here means the `step` wire format (effect names, fields, order) moved.
const STEP_REPLIES_FNV: u64 = 0x5247_9d35_2e24_968e;

#[test]
fn step_replies_are_pinned() {
    // (configure, commands before stepping, step sizes). OPT produces
    // validation aborts, C2PL blocks and delays, LOW refuses admission,
    // and WDL under a crash + stall plan with retry cap 1 covers
    // scheduler aborts, fault aborts, kills and every fault action.
    let sessions: [(&str, &[&str], &[u64]); 4] = [
        (
            r#"{"cmd":"configure","scheduler":"opt","lambda":0.9,"horizon_s":300,"seed":3}"#,
            &[r#"{"cmd":"run-until","t_ms":100000}"#],
            &[1, 50, 400],
        ),
        (
            r#"{"cmd":"configure","scheduler":"c2pl","lambda":0.8,"horizon_s":300,"seed":4}"#,
            &[r#"{"cmd":"run-until","t_ms":100000}"#],
            &[300],
        ),
        (
            r#"{"cmd":"configure","scheduler":"low","lambda":0.8,"horizon_s":300,"seed":5}"#,
            &[
                r#"{"cmd":"submit","steps":[["r",3,1200.0],["w",7,600.0]]}"#,
                r#"{"cmd":"run-until","t_ms":100000}"#,
            ],
            &[300],
        ),
        (
            r#"{"cmd":"configure","scheduler":"wdl","lambda":0.8,"horizon_s":300,"seed":6,"faults":"crash=0@60x20,crash=1@60x20,crash=2@60x20,crash=3@60x20,stall=61x2,retry=1000:8000:1"}"#,
            &[r#"{"cmd":"run-until","t_ms":59000}"#],
            &[600, 200],
        ),
    ];
    let mut replies = String::new();
    for (configure, setup, steps) in sessions {
        let mut s = Serve::spawn();
        s.send(configure);
        for req in setup {
            s.send(req);
        }
        for n in steps {
            let (line, reply) = s.send_raw(&format!(r#"{{"cmd":"step","n":{n}}}"#));
            assert_eq!(num(&reply, "events"), *n, "{configure}: run ended early");
            replies.push_str(&line);
        }
        // Stepping runs on the same loop as the bulk drivers.
        check_conserved(&s.send(r#"{"cmd":"status"}"#));
        s.quit();
    }
    for name in [
        "arrived",
        "admitted",
        "admit-refused",
        "granted",
        "blocked",
        "delayed",
        "restart",
        "committed",
        "aborted",
        "killed",
        "fault",
    ] {
        assert!(
            replies.contains(&format!(r#""e":"{name}""#)),
            "no {name:?} effect in the scripted sessions"
        );
    }
    for cause in ["validation", "scheduler", "fault"] {
        assert!(
            replies.contains(&format!(r#""cause":"{cause}""#)),
            "no {cause:?} abort in the scripted sessions"
        );
    }
    for action in ["crash", "recover", "stall-cn"] {
        assert!(
            replies.contains(&format!(r#""action":"{action}""#)),
            "no {action:?} fault in the scripted sessions"
        );
    }
    assert_eq!(
        fnv1a(replies.as_bytes()),
        STEP_REPLIES_FNV,
        "step wire format changed ({} reply bytes)",
        replies.len()
    );
}
