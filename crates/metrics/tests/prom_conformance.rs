//! Property test: everything `PromText` emits conforms to the
//! Prometheus text exposition format, for arbitrary (hostile) metric
//! structure and label values — validated by
//! [`bds_metrics::check_exposition`], which rejects bad metric-name
//! charsets, illegal label escapes, duplicate `# TYPE` headers, and
//! duplicate series.

use bds_metrics::{check_exposition, LogHistogram, PromText};

/// Minimal xorshift-style generator; the workspace carries no external
/// dependencies, so the "property" part is a fixed-seed fuzz loop.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // SplitMix64 step: good enough scrambling for test-case shapes.
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Characters a label value might plausibly (or maliciously) contain:
/// every escape-relevant byte plus the structural characters of the
/// format itself.
const NASTY: &[char] = &[
    'a', 'Z', '9', '_', '"', '\\', '\n', ' ', '{', '}', '=', ',', '#', 'µ', '☃', ':', '-', '.',
];

fn nasty_string(r: &mut Lcg, max_len: usize) -> String {
    let len = r.below(max_len + 1);
    (0..len).map(|_| NASTY[r.below(NASTY.len())]).collect()
}

/// A syntactically valid metric/label name stem.
fn name(r: &mut Lcg, prefix: &str) -> String {
    const BODY: &[char] = &['a', 'b', 'c', '_', 'x', '1'];
    let len = 1 + r.below(6);
    let tail: String = (0..len).map(|_| BODY[r.below(BODY.len())]).collect();
    format!("{prefix}_{tail}")
}

/// Undo the exposition label escaping (`\\`, `\"`, `\n`).
fn unescape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            other => panic!("illegal escape \\{other:?} in {s:?}"),
        }
    }
    out
}

#[test]
fn random_documents_conform() {
    let mut r = Lcg(7);
    for round in 0..300 {
        let mut p = PromText::new();
        let families = 1 + r.below(4);
        for f in 0..families {
            let metric = name(&mut r, &format!("m{round}_{f}"));
            let help = nasty_string(&mut r, 12);
            let series = 1 + r.below(4);
            for s in 0..series {
                // The serial number inside the label value keeps the
                // series distinct even when the random part collides.
                let val = format!("{s}:{}", nasty_string(&mut r, 10));
                let labels: &[(&str, &str)] = &[("sched", &val)];
                match r.below(3) {
                    0 => p.counter(&metric, &help, labels, r.next() % 1_000),
                    1 => p.gauge(&metric, &help, labels, r.next() as f64 / 1e18),
                    _ => {
                        let mut h = LogHistogram::new();
                        for _ in 0..r.below(5) {
                            h.record_secs(1e-3 + (r.next() % 1_000) as f64 / 100.0);
                        }
                        p.histogram(&metric, &help, labels, &h);
                    }
                }
            }
        }
        let doc = p.finish();
        if let Err(e) = check_exposition(&doc) {
            panic!("round {round} produced a non-conforming document: {e}\n{doc}");
        }
    }
}

#[test]
fn label_escaping_round_trips() {
    let mut r = Lcg(99);
    for _ in 0..500 {
        let original = nasty_string(&mut r, 24);
        let mut p = PromText::new();
        p.gauge("m", "h", &[("l", &original)], 1.0);
        let doc = p.finish();
        check_exposition(&doc).expect("escaped document conforms");
        let sample = doc.lines().last().expect("sample line");
        let escaped = sample
            .strip_prefix("m{l=\"")
            .and_then(|s| s.strip_suffix("\"} 1"))
            .unwrap_or_else(|| panic!("unexpected sample shape {sample:?}"));
        assert_eq!(
            unescape_label(escaped),
            original,
            "lossy label escaping for {original:?}"
        );
    }
}

#[test]
fn repeated_families_share_one_type_header() {
    // Per-phase and per-node series — the shape of the `bds_obs_*`
    // exporter — append samples under a single # TYPE header instead of
    // re-emitting it (the format allows at most one per metric name).
    let mut p = PromText::new();
    let base: &[(&str, &str)] = &[("scheduler", "GOW")];
    for phase in ["scheduler_decide", "cn_work", "event_queue"] {
        let mut labels = base.to_vec();
        labels.push(("phase", phase));
        p.counter(
            "bds_obs_phase_calls_total",
            "Exact probe entries per pump phase",
            &labels,
            7,
        );
        p.gauge(
            "bds_obs_phase_est_seconds",
            "Estimated total wall time per phase (stride-sampled)",
            &labels,
            0.25,
        );
    }
    for node in ["0", "1", "2", "3"] {
        let mut labels = base.to_vec();
        labels.push(("node", node));
        p.gauge("bds_dpn_busy_seconds", "Busy", &labels, 1.5);
        p.gauge("bds_dpn_down_seconds", "Down", &labels, 0.5);
    }
    let mut h = LogHistogram::new();
    h.record_secs(0.004);
    h.record_secs(3.0);
    p.histogram("bds_response_time_seconds", "Response times", base, &h);
    let doc = p.finish();
    check_exposition(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
    let type_lines = doc
        .lines()
        .filter(|l| l.starts_with("# TYPE bds_obs_phase_calls_total"))
        .count();
    assert_eq!(type_lines, 1, "duplicate TYPE headers:\n{doc}");
    assert_eq!(
        doc.lines()
            .filter(|l| l.starts_with("bds_obs_phase_calls_total{"))
            .count(),
        3
    );
}

#[test]
fn validator_rejects_known_violations() {
    // Duplicate series.
    let dup = "# HELP m h\n# TYPE m gauge\nm{l=\"a\"} 1\nm{l=\"a\"} 2\n";
    assert!(check_exposition(dup).is_err());
    // Duplicate TYPE header for one name.
    let dup_type = "# TYPE m gauge\nm 1\n# TYPE m gauge\n";
    assert!(check_exposition(dup_type).is_err());
    // Raw (unescaped) inner quote.
    let raw_quote = "# TYPE m gauge\nm{l=\"a\"b\"} 1\n";
    assert!(check_exposition(raw_quote).is_err());
    // Illegal escape sequence.
    let bad_escape = "# TYPE m gauge\nm{l=\"a\\tb\"} 1\n";
    assert!(check_exposition(bad_escape).is_err());
    // Metric name outside the charset.
    let bad_name = "# TYPE 1m gauge\n1m 1\n";
    assert!(check_exposition(bad_name).is_err());
    // Sample without any TYPE header.
    assert!(check_exposition("m 1\n").is_err());
    // And the canonical happy path still passes.
    let ok = "# HELP m h\n# TYPE m counter\nm{l=\"a\\nb\\\\c\\\"d\"} 3\n";
    check_exposition(ok).expect("escaped document conforms");
}
