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
        // The sampler keeps a row per interval over the horizon (10 M
        // here), and the fault timeline is expanded up front (8 M
        // crashes here); both used to abort the server on a failed
        // allocation under a 1 GB address-space limit.
        (
            r#"{"cmd":"configure","metrics_dt_ms":1,"horizon_s":10000}"#,
            "metrics_dt_ms",
        ),
        (r#"{"cmd":"configure","faults":"mtbf=0,mttr=0"}"#, "mtbf"),
        (r#"{"cmd":"configure","profile":1}"#, "profile"),
        (r#"{"cmd":"configure","workload":"exp1:0"}"#, "file count"),
        // Per-file tables are sized by the file count.
        (
            r#"{"cmd":"configure","workload":"exp1:4000000000"}"#,
            "file count",
        ),
        // The Experiment 1 pattern needs two distinct files; one used
        // to abort the server in the generator.
        (r#"{"cmd":"configure","workload":"exp1:1"}"#, "file count"),
        (
            r#"{"cmd":"configure","workload":"exp3:1:0.5"}"#,
            "file count",
        ),
        // σ feeds `Normal::new`, which panics on a negative or
        // non-finite deviation.
        (r#"{"cmd":"configure","workload":"exp3:16:-1"}"#, "sigma"),
        (r#"{"cmd":"configure","workload":"exp3:16:nan"}"#, "sigma"),
        (r#"{"cmd":"configure","bogus":1}"#, "bogus"),
        // `submit` file ids must be integers naming one of the 16 files.
        // Under LOW an id of 1e12 used to abort the whole server: the
        // WTPG sizes per-file state by the largest id it sees.
        (r#"{"cmd":"submit","steps":[["r",-1,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",2.7,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",16,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",1e12,100.0]]}"#, "file"),
        (r#"{"cmd":"submit","steps":[["r",2,0]]}"#, "cost"),
        (
            r#"{"cmd":"submit","steps":[["w",2,1.0,1e999]]}"#,
            "declared",
        ),
        (r#"{"cmd":"submit","steps":[]}"#, "step"),
        // A zero-capacity ring used to panic in `RingRecorder::new`.
        (r#"{"cmd":"trace","capacity":0}"#, "capacity"),
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
fn restore_refuses_a_mismatched_generator_cursor_and_stays_up() {
    // A snapshot whose workload-generator cursor does not fit the
    // configured workload must be refused with `ok:false`, not abort
    // the server.
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("bds-serve-badgen-{}.json", std::process::id()));
    let ckpt_str = ckpt.to_str().expect("utf-8 temp path");
    let cfg = r#"{"cmd":"configure","scheduler":"low","horizon_s":60,"seed":1}"#;
    let mut s = Serve::spawn();
    s.send(cfg);
    s.send(r#"{"cmd":"run-until","t_ms":30000}"#);
    s.send(&format!(r#"{{"cmd":"snapshot","path":"{ckpt_str}"}}"#));
    let text = std::fs::read_to_string(&ckpt).expect("read snapshot");
    let start = text.find(r#""gen":{"#).expect("snapshot has a gen cursor");
    let end = start + text[start..].find('}').expect("gen object closes") + 1;
    let edited = format!(
        r#"{}"gen":{{"rngs":[],"spare":null}}{}"#,
        &text[..start],
        &text[end..]
    );
    std::fs::write(&ckpt, edited).expect("write edited snapshot");

    s.send(cfg);
    let msg = s.send_err(&format!(r#"{{"cmd":"restore","path":"{ckpt_str}"}}"#));
    assert!(
        msg.contains("cursor"),
        "error {msg:?} does not name the cursor"
    );
    let status = s.send(r#"{"cmd":"status"}"#);
    check_conserved(&status);
    s.quit();
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn restore_refuses_a_diverging_replay_and_stays_up() {
    // A snapshot is an input log replayed on restore. Edited check
    // values or an input the engine would refuse are `ok:false`, and
    // the running session stays as it was.
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("bds-serve-diverge-{}.json", std::process::id()));
    let ckpt_str = ckpt.to_str().expect("utf-8 temp path");
    let mut s = Serve::spawn();
    s.send(r#"{"cmd":"configure","scheduler":"low","horizon_s":60,"seed":1}"#);
    s.send(r#"{"cmd":"run-until","t_ms":10000}"#);
    s.send(r#"{"cmd":"submit","steps":[["r",3,1.5],["w",7,0.5]]}"#);
    s.send(r#"{"cmd":"run-until","t_ms":30000}"#);
    s.send(&format!(r#"{{"cmd":"snapshot","path":"{ckpt_str}"}}"#));
    let text = std::fs::read_to_string(&ckpt).expect("read snapshot");
    let before = s.send(r#"{"cmd":"status"}"#);

    // The top-level event count follows the input list.
    let at = text
        .rfind(r#""events":""#)
        .expect("snapshot has an event count")
        + 10;
    let digits = text[at..].find('"').expect("event count closes");
    let events: u64 = text[at..at + digits].parse().expect("event count");
    let more_events = format!("{}{}{}", &text[..at], events + 1, &text[at + digits..]);
    let far_file = text.replacen(r#""f":"7""#, r#""f":"99""#, 1);
    assert_ne!(far_file, text, "the submitted step names file 7");
    for (edited, needle) in [(more_events, "diverged"), (far_file, "file")] {
        std::fs::write(&ckpt, edited).expect("write edited snapshot");
        let msg = s.send_err(&format!(r#"{{"cmd":"restore","path":"{ckpt_str}"}}"#));
        assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}");
        let status = s.send(r#"{"cmd":"status"}"#);
        check_conserved(&status);
        assert_eq!(num(&status, "events"), num(&before, "events"));
    }
    s.quit();
    let _ = std::fs::remove_file(&ckpt);
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

/// Seeded NDJSON fuzzer: mutants of a corpus of `bds-serve` requests,
/// each followed by a `status` probe. A mutant must get a well-formed
/// reply (accepted or refused) and leave the server answering `status`;
/// a live session must still conserve transactions. The server is
/// respawned only after it dies. Mutants that would write files get
/// paths in a temp directory, and every knob that scales work (horizon,
/// run-until time, arrival rate, step count, trace size, sampling and
/// watch intervals, the failure rate of a fault plan) is clamped, so
/// the whole run stays within seconds.
mod fuzz {
    use bds_metrics::{parse, JsonValue};
    use std::io::{BufRead, BufReader, Write};
    use std::path::{Path, PathBuf};
    use std::process::{Child, ChildStdin, Command, Stdio};
    use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
    use std::time::Duration;

    const SEED: u64 = 0x5E27_F022;
    const MUTANTS: usize = 10_000;
    /// Longest simulated time a mutant may ask for.
    const MAX_SIM_MS: f64 = 600_000.0;
    /// A reply slower than this counts as a hang.
    const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

    /// The seed corpus, one request per line, sent as it is before the
    /// mutants. Its first entry is the configure that once aborted the
    /// server in the workload generator; the last ones stopped the
    /// server before this fuzzer's fixes.
    const CORPUS: &[&[u8]] = &[
        br#"{"cmd":"configure","workload":"exp1:1"}"#,
        br#"{"cmd":"configure","scheduler":"c2pl","lambda":1.1,"horizon_s":120,"seed":3}"#,
        br#"{"cmd":"configure","scheduler":"gow","lambda":0.6,"horizon_s":300,"seed":7,"faults":"crash=2@80x15,retry=1000:8000:4"}"#,
        br#"{"cmd":"configure","scheduler":"low","workload":"exp3:16:0.5","dd":4,"mpl":8,"horizon_s":200,"metrics_dt_ms":5000,"profile":true}"#,
        br#"{"cmd":"configure","scheduler":"brook","workload":"exp2","horizon_s":150,"faults":"mtbf=60,mttr=10,delay=3,loss=25,redeliver=500,mode=hold,seed=9"}"#,
        br#"{"cmd":"configure","scheduler":"wdl","lambda":1.1,"horizon_s":100,"seed":5,"faults":"stall=50x5"}"#,
        br#"{"cmd":"configure","scheduler":"dgcc","horizon_s":200}"#,
        br#"{"cmd":"configure","scheduler":"opt","horizon_s":200,"seed":11}"#,
        br#"{"cmd":"configure","scheduler":"nodc","horizon_s":150,"workload":"exp1:64"}"#,
        br#"{"cmd":"configure","scheduler":"asl","horizon_s":100,"lambda":0.9}"#,
        br#"{"cmd":"submit","steps":[["r",3,1200.0],["w",7,600.0]]}"#,
        br#"{"cmd":"submit","steps":[["rs",5,800.0,400.0]]}"#,
        br#"{"cmd":"run-until","t_ms":60000}"#,
        br#"{"cmd":"step","n":25}"#,
        br#"{"cmd":"run"}"#,
        br#"{"cmd":"snapshot","path":"a"}"#,
        br#"{"cmd":"snapshot"}"#,
        br#"{"cmd":"restore","path":"a"}"#,
        br#"{"cmd":"swap-scheduler","scheduler":"asl"}"#,
        br#"{"cmd":"metrics","format":"prom"}"#,
        br#"{"cmd":"metrics","format":"csv"}"#,
        br#"{"cmd":"metrics","format":"series-csv"}"#,
        br#"{"cmd":"report"}"#,
        br#"{"cmd":"trace","capacity":4096}"#,
        br#"{"cmd":"trace","dump":"t"}"#,
        br#"{"cmd":"watch","t_ms":90000,"interval_ms":5000,"max_deltas":4}"#,
        br#"{"cmd":"status"}"#,
        // A line that is not UTF-8 used to end the session.
        b"{\"cmd\":\"st\xff\"}",
        // Per-file tables are sized by the file count: a run under four
        // billion files used to abort on a 75 GB allocation.
        br#"{"cmd":"configure","workload":"exp1:4000000000","horizon_s":60}"#,
        br#"{"cmd":"run"}"#,
    ];

    /// Values the structured mutations splice in.
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "-1",
        "2",
        "7",
        "8",
        "9",
        "16",
        "0.5",
        "1.5",
        "-0",
        "1e-300",
        "1e300",
        "1e999",
        "-1e999",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "9007199254740993",
        "600000",
        "65536",
        "65537",
        "4000000000",
        "1e15",
        "0.0001",
    ];
    const STRINGS: &[&str] = &[
        "",
        "configure",
        "submit",
        "run",
        "run-until",
        "step",
        "snapshot",
        "restore",
        "swap-scheduler",
        "metrics",
        "report",
        "trace",
        "watch",
        "status",
        "nodc",
        "asl",
        "gow",
        "low",
        "c2pl",
        "opt",
        "wdl",
        "dgcc",
        "brook",
        "C2PL",
        "exp1:1",
        "exp1:2",
        "exp1:65536",
        "exp1:65537",
        "exp1:4000000000",
        "exp2",
        "exp3:2:0",
        "exp3:16:1e308",
        "exp3:16:inf",
        "exp3:",
        "exp1:",
        "r",
        "rs",
        "w",
        "x",
        "prom",
        "csv",
        "series-csv",
        "crash=0@1x1",
        "crash=99@1x1",
        "stall=0x0",
        "loss=1000,redeliver=0",
        "retry=0:0:0",
        "retry=1:1:1",
        "mode=hold",
        "delay=0",
        "mtbf=30,mttr=0",
        "seed=18446744073709551615",
        "crash=1@0x0,crash=1@0x0",
        "\u{1F600}",
        "\\",
        "\"",
    ];
    const KEYS: &[&str] = &[
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
        "steps",
        "t_ms",
        "n",
        "path",
        "format",
        "capacity",
        "dump",
        "interval_ms",
        "max_deltas",
        "bogus",
    ];

    /// SplitMix64: a small seeded generator for test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn pick<'a, T: ?Sized>(&mut self, from: &[&'a T]) -> &'a T {
            from[self.below(from.len())]
        }
    }

    /// Byte ranges `(start, end)` of literals in a request.
    type Spans = Vec<(usize, usize)>;

    /// Byte ranges of the number and string literals of a request.
    fn tokens(line: &[u8]) -> (Spans, Spans) {
        let (mut nums, mut strs) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < line.len() {
            let c = line[i];
            if c == b'"' {
                let start = i;
                i += 1;
                while i < line.len() && line[i] != b'"' {
                    i += if line[i] == b'\\' { 2 } else { 1 };
                }
                strs.push((start, (i + 1).min(line.len())));
                i += 1;
            } else if c == b'-' || c.is_ascii_digit() {
                let start = i;
                while i < line.len() && b"+-.eE0123456789".contains(&line[i]) {
                    i += 1;
                }
                nums.push((start, i));
            } else {
                i += 1;
            }
        }
        (nums, strs)
    }

    fn quoted(s: &str) -> Vec<u8> {
        let mut out = Vec::from(&b"\""[..]);
        for c in s.chars() {
            match c {
                '"' => out.extend_from_slice(b"\\\""),
                '\\' => out.extend_from_slice(b"\\\\"),
                c => out.extend_from_slice(c.to_string().as_bytes()),
            }
        }
        out.push(b'"');
        out
    }

    /// Apply one random mutation to `line`.
    fn mutate(r: &mut Rng, line: &mut Vec<u8>) {
        let (nums, strs) = tokens(line);
        let at = r.below(line.len() + 1);
        // Mostly structured edits, so most mutants still parse and reach
        // a handler; a fifth are raw byte edits for the parser.
        let op = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 6, 7, 7, 7, 8][r.below(20)];
        match op {
            0 if !nums.is_empty() => {
                let (a, b) = nums[r.below(nums.len())];
                line.splice(a..b, r.pick(NUMBERS).bytes());
            }
            1 if !strs.is_empty() => {
                let (a, b) = strs[r.below(strs.len())];
                let with = if r.below(4) == 0 {
                    r.pick(KEYS)
                } else {
                    r.pick(STRINGS)
                };
                line.splice(a..b, quoted(with));
            }
            2 if !line.is_empty() => {
                line.remove(at.min(line.len() - 1));
            }
            3 => {
                const ALPHABET: &[u8] = b"{}[]\",:.-+eE0123456789 trufalsn\\/x";
                line.insert(at, ALPHABET[r.below(ALPHABET.len())]);
            }
            4 if !line.is_empty() => {
                // Any byte but a newline, valid UTF-8 or not.
                let b = (1 + r.below(255)) as u8;
                let i = at.min(line.len() - 1);
                line[i] = if b == b'\n' { b'\r' } else { b };
            }
            5 if !line.is_empty() => {
                let a = r.below(line.len());
                let b = (a + 1 + r.below(16)).min(line.len());
                let span: Vec<u8> = line[a..b].to_vec();
                let to = r.below(line.len() + 1);
                line.splice(to..to, span);
            }
            6 => {
                // Splice the tail of another corpus entry after a comma.
                let other = r.pick(CORPUS);
                let cut = line.iter().rposition(|&c| c == b',').unwrap_or(0);
                let from = other.iter().position(|&c| c == b',').unwrap_or(0);
                line.truncate(cut);
                line.extend_from_slice(&other[from..]);
            }
            7 => {
                // Add a key with a random value before the closing brace.
                let key = r.pick(KEYS);
                let val = if r.below(2) == 0 {
                    r.pick(NUMBERS).to_string()
                } else {
                    String::from_utf8(quoted(r.pick(STRINGS))).expect("utf-8")
                };
                let end = line.iter().rposition(|&c| c == b'}').unwrap_or(line.len());
                let add = format!(",\"{key}\":{val}");
                line.splice(end..end, add.bytes());
            }
            _ => {
                if let Some((a, b)) = strs.get(r.below(strs.len().max(1))).copied() {
                    // Drop a key or value.
                    line.drain(a..b);
                }
            }
        }
    }

    fn write_json(v: &JsonValue, out: &mut String) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) if n.is_infinite() => {
                out.push_str(if *n > 0.0 { "1e999" } else { "-1e999" })
            }
            JsonValue::Num(n) => out.push_str(&format!("{n:?}")),
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json(item, out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json(&JsonValue::Str(k.clone()), out);
                    out.push(':');
                    write_json(item, out);
                }
                out.push('}');
            }
        }
    }

    /// Raise every `mtbf=S` of a fault plan below 30 s to 30 s: a plan
    /// that fails a node every millisecond is valid, but slow to run.
    fn slow_failures(plan: &str) -> String {
        plan.split(',')
            .map(|d| match d.strip_prefix("mtbf=").map(str::parse::<u64>) {
                Some(Ok(s)) if s < 30 => "mtbf=30".to_string(),
                _ => d.to_string(),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Keep a parsed mutant within the run's budget: clamp the knobs that
    /// scale work, point paths into `dir`, and never send `quit`.
    fn sanitize(line: Vec<u8>, dir: &Path) -> Vec<u8> {
        let Ok(text) = std::str::from_utf8(&line) else {
            return line;
        };
        let Ok(JsonValue::Obj(mut fields)) = parse(text) else {
            return line;
        };
        let mut has_horizon = false;
        let is_configure = fields
            .iter()
            .any(|(k, v)| k == "cmd" && v.as_str() == Some("configure"));
        for (key, v) in &mut fields {
            let clamp = |v: &mut JsonValue, lo: f64, hi: f64| {
                if let JsonValue::Num(n) = v {
                    if *n > hi {
                        *n = hi;
                    } else if *n > 0.0 && *n < lo {
                        *n = lo;
                    }
                }
            };
            match key.as_str() {
                "cmd" if v.as_str() == Some("quit") => *v = JsonValue::Str("status".into()),
                "horizon_s" => {
                    has_horizon = true;
                    clamp(v, 0.0, MAX_SIM_MS / 1e3);
                }
                "t_ms" => clamp(v, 0.0, MAX_SIM_MS),
                "lambda" => clamp(v, 0.0, 2.0),
                "n" => clamp(v, 0.0, 2_000.0),
                "capacity" => clamp(v, 0.0, 10_000.0),
                "interval_ms" | "metrics_dt_ms" => clamp(v, 1_000.0, f64::MAX),
                "faults" => {
                    if let JsonValue::Str(plan) = v {
                        *plan = slow_failures(plan);
                    }
                }
                "path" | "dump" => {
                    if let JsonValue::Str(p) = v {
                        let name = format!("fuzz-{}.json", p.len() % 3);
                        *p = dir.join(name).to_str().expect("utf-8 temp dir").into();
                    }
                }
                _ => {}
            }
        }
        if is_configure && !has_horizon {
            fields.push(("horizon_s".into(), JsonValue::Num(120.0)));
        }
        let mut out = String::new();
        write_json(&JsonValue::Obj(fields), &mut out);
        out.into_bytes()
    }

    /// One `bds-serve` child with a reader thread, so a hang times out
    /// instead of stalling the test.
    struct Server {
        child: Child,
        stdin: ChildStdin,
        lines: Receiver<String>,
    }

    impl Server {
        fn spawn() -> Server {
            let mut child = Command::new(env!("CARGO_BIN_EXE_bds-serve"))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn bds-serve");
            let stdin = child.stdin.take().expect("stdin piped");
            let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
            let (tx, lines) = channel();
            std::thread::spawn(move || {
                for line in stdout.lines() {
                    let Ok(line) = line else { break };
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
            Server {
                child,
                stdin,
                lines,
            }
        }

        /// Send one request; return its final reply (skipping `watch`
        /// stream lines), or why none came.
        fn ask(&mut self, req: &[u8]) -> Result<JsonValue, String> {
            let sent = self
                .stdin
                .write_all(req)
                .and_then(|()| self.stdin.write_all(b"\n"))
                .and_then(|()| self.stdin.flush());
            if let Err(e) = sent {
                return Err(format!("write failed: {e}"));
            }
            loop {
                let line = match self.lines.recv_timeout(REPLY_TIMEOUT) {
                    Ok(line) => line,
                    Err(RecvTimeoutError::Timeout) => return Err("no reply (hang)".into()),
                    Err(RecvTimeoutError::Disconnected) => return Err("server exited".into()),
                };
                let v = parse(&line).map_err(|e| format!("malformed reply {line:?}: {e}"))?;
                if v.get("watch") == Some(&JsonValue::Bool(true)) {
                    continue;
                }
                return match v.get("ok") {
                    Some(JsonValue::Bool(_)) => Ok(v),
                    _ => Err(format!("reply without ok: {line}")),
                };
            }
        }
    }

    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }

    /// The status probe after a request: an answer, and, when a session
    /// is live, conserved transactions.
    fn probe(s: &mut Server) -> Result<(), String> {
        let v = s.ask(br#"{"cmd":"status"}"#)?;
        if v.get("ok") == Some(&JsonValue::Bool(true))
            && v.get("conserved") != Some(&JsonValue::Bool(true))
        {
            return Err(format!("status lost conservation: {v:?}"));
        }
        Ok(())
    }

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bds-serve-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn ndjson_mutants_never_stop_the_server() {
        let dir = temp_dir();
        let mut r = Rng(SEED);
        let mut server = Server::spawn();
        let mut failures: Vec<String> = Vec::new();
        let mut refused = 0usize;
        let mut run = |server: &mut Server, req: Vec<u8>, failures: &mut Vec<String>| {
            let shown = String::from_utf8_lossy(&req).into_owned();
            let outcome = server.ask(&req).and_then(|v| {
                if v.get("ok") == Some(&JsonValue::Bool(false)) {
                    refused += 1;
                }
                probe(server)
            });
            if let Err(why) = outcome {
                failures.push(format!("{shown} -> {why}"));
                *server = Server::spawn();
            }
        };
        // The corpus as it is, then the mutants.
        for req in CORPUS {
            run(&mut server, sanitize(req.to_vec(), &dir), &mut failures);
        }
        for _ in 0..MUTANTS {
            let mut line = r.pick(CORPUS).to_vec();
            for _ in 0..[1, 1, 1, 1, 1, 1, 1, 2, 2, 3][r.below(10)] {
                mutate(&mut r, &mut line);
            }
            run(&mut server, sanitize(line, &dir), &mut failures);
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            failures.is_empty(),
            "{} of {MUTANTS} mutants stopped the server; first ones:\n{}",
            failures.len(),
            failures[..failures.len().min(10)].join("\n")
        );
        // Most mutants must still reach a handler, not just the parser.
        assert!(refused < MUTANTS * 9 / 10, "{refused} of {MUTANTS} refused");
    }
}
