//! Bench regression comparison: the core of the `benchdiff` CLI.
//!
//! Compares two `BENCH_*.json` documents (as produced by `repro`)
//! metric by metric. Metrics are classified by their leaf key:
//!
//! * **time** — wall-clock and overhead measurements (`secs`,
//!   `*_secs`, `*_pct`, `*ns_per*`): noisy across machines, so a
//!   regression means the current value is worse than baseline by more
//!   than a configurable relative tolerance *plus* a per-unit absolute
//!   floor (lower is always better for these).
//! * **count** — deterministic integers (`completed`, `sim_runs`,
//!   `cache_hits`, `events`, …): the simulator is a pure function of
//!   its config, so any drift is a behavioral change and fails the
//!   gate regardless of tolerance.
//! * **config** — run parameters (`jobs`, `horizon_secs`,
//!   `bisect_iters`, `quick`, string labels): must match exactly,
//!   otherwise the two documents measured different experiments and
//!   the comparison itself is invalid.
//!
//! Metrics present in the baseline but missing from the current run are
//! reported (and fail only under `strict_missing`); new metrics are
//! listed and ignored, so the schema can grow without re-pinning.

use crate::jsonv::JsonValue;
use bds_trace::json::{JsonArr, JsonObj};

/// How a metric participates in the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricClass {
    /// Lower-is-better measurement with noise; `abs_floor` is the
    /// minimum absolute worsening (in the metric's own unit) that can
    /// ever count as a regression.
    Time {
        /// Absolute slack in the metric's unit.
        abs_floor: f64,
    },
    /// Higher-is-better measurement with noise (throughput rates);
    /// regresses when the current value drops below baseline by more
    /// than the relative tolerance and `abs_floor`.
    Rate {
        /// Absolute slack in the metric's unit.
        abs_floor: f64,
    },
    /// Deterministic integer; must match exactly.
    Count,
    /// Run parameter; must match exactly or the comparison is invalid.
    Config,
}

impl MetricClass {
    /// Stable label for machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            MetricClass::Time { .. } => "time",
            MetricClass::Rate { .. } => "rate",
            MetricClass::Count => "count",
            MetricClass::Config => "config",
        }
    }
}

/// Classify a metric by its leaf key.
pub fn classify(key: &str) -> MetricClass {
    match key {
        "jobs" | "bisect_iters" | "horizon_secs" | "lambda_tps" | "dd" | "capacity" => {
            MetricClass::Config
        }
        _ if key.contains("ns_per") => MetricClass::Time { abs_floor: 1.0 },
        _ if key.ends_with("_pct") => MetricClass::Time { abs_floor: 2.0 },
        _ if key == "secs" || key.ends_with("_secs") => MetricClass::Time { abs_floor: 0.25 },
        // Peak RSS (MiB): lower-better but allocator/OS dependent, so a
        // generous floor keeps shared runners from tripping the gate.
        _ if key.ends_with("_mib") => MetricClass::Time { abs_floor: 32.0 },
        // Throughput (events/s, M events/s, …): higher-better, noisy.
        _ if key.contains("per_sec") => MetricClass::Rate { abs_floor: 0.2 },
        _ => MetricClass::Count,
    }
}

/// Comparison tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Allowed relative worsening for time metrics (0.5 = +50 %).
    pub time_rel: f64,
    /// Skip time metrics entirely (counts and config still gate).
    pub ignore_time: bool,
    /// Treat metrics missing from the current document as regressions.
    pub strict_missing: bool,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            time_rel: 0.5,
            ignore_time: false,
            strict_missing: false,
        }
    }
}

/// One compared numeric metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the metric (`schedulers[GOW].secs`).
    pub path: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Classification used.
    pub class: MetricClass,
    /// True when this metric fails the gate.
    pub regressed: bool,
}

impl Delta {
    /// Relative change (`+0.12` = 12 % higher than baseline), `inf`
    /// when the baseline is zero and the value moved.
    pub fn rel_change(&self) -> f64 {
        if self.base == 0.0 {
            if self.cur == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.cur - self.base) / self.base.abs()
        }
    }
}

/// The outcome of comparing two bench documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All compared numeric metrics.
    pub deltas: Vec<Delta>,
    /// Config/string/bool mismatches (always fail the gate).
    pub mismatches: Vec<String>,
    /// Baseline metrics missing from the current document.
    pub missing: Vec<String>,
    /// Current metrics absent from the baseline (informational).
    pub added: Vec<String>,
    /// Whether missing metrics fail the gate.
    strict_missing: bool,
}

impl DiffReport {
    /// Does the current document regress against the baseline?
    pub fn regressed(&self) -> bool {
        !self.mismatches.is_empty()
            || self.deltas.iter().any(|d| d.regressed)
            || (self.strict_missing && !self.missing.is_empty())
    }

    /// Metrics that failed the gate, worst first.
    pub fn regressions(&self) -> Vec<&Delta> {
        let mut v: Vec<&Delta> = self.deltas.iter().filter(|d| d.regressed).collect();
        v.sort_by(|a, b| {
            b.rel_change()
                .partial_cmp(&a.rel_change())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }

    /// One-line summary for run footers, e.g.
    /// `ok: 23 time metrics within +50% (worst total_secs +12.3%), 41 counts exact`.
    pub fn summary_line(&self) -> String {
        let times: Vec<&Delta> = self
            .deltas
            .iter()
            .filter(|d| matches!(d.class, MetricClass::Time { .. } | MetricClass::Rate { .. }))
            .collect();
        let counts = self.deltas.len() - times.len();
        let worst = times.iter().max_by(|a, b| {
            a.rel_change()
                .partial_cmp(&b.rel_change())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let worst_s = match worst {
            Some(d) => format!(" (worst {} {})", d.path, fmt_rel(d.rel_change())),
            None => String::new(),
        };
        if self.regressed() {
            let n = self.regressions().len() + self.mismatches.len();
            format!(
                "REGRESSION: {n} metric(s) failed — {} time compared{worst_s}, {counts} counts",
                times.len()
            )
        } else {
            format!(
                "ok: {} time metrics within tolerance{worst_s}, {counts} counts exact",
                times.len()
            )
        }
    }

    /// All compared metrics sorted by severity: regressions first, each
    /// group worst relative change first. This is the row order of both
    /// `render()` and `to_json()`.
    pub fn by_severity(&self) -> Vec<&Delta> {
        let mut v: Vec<&Delta> = self.deltas.iter().collect();
        v.sort_by(|a, b| {
            b.regressed.cmp(&a.regressed).then(
                b.rel_change()
                    .partial_cmp(&a.rel_change())
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        v
    }

    /// Machine-readable rendering: the full per-metric delta table
    /// (severity-sorted), schema drift, and the gate verdict, as one
    /// JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.bool("regressed", self.regressed());
        o.str("summary", &self.summary_line());
        let mut deltas = JsonArr::new();
        for d in self.by_severity() {
            let mut e = JsonObj::new();
            e.str("path", &d.path);
            e.str("class", d.class.label());
            e.num("base", d.base);
            e.num("cur", d.cur);
            // Infinite (zero-baseline) changes serialize as null.
            e.num("rel_change", d.rel_change());
            e.bool("regressed", d.regressed);
            deltas.raw(&e.finish());
        }
        o.raw("deltas", &deltas.finish());
        for (key, items) in [
            ("mismatches", &self.mismatches),
            ("missing", &self.missing),
            ("added", &self.added),
        ] {
            let mut arr = JsonArr::new();
            for s in items {
                arr.str(s);
            }
            o.raw(key, &arr.finish());
        }
        o.finish()
    }

    /// Full multi-line rendering (regressions, mismatches, schema drift).
    /// Regression rows are column-aligned and sorted worst-first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rows: Vec<(&Delta, String, String, String)> = self
            .regressions()
            .into_iter()
            .map(|d| (d, fmt_val(d.base), fmt_val(d.cur), fmt_rel(d.rel_change())))
            .collect();
        let w_path = rows.iter().map(|(d, ..)| d.path.len()).max().unwrap_or(0);
        let w_base = rows.iter().map(|(_, b, ..)| b.len()).max().unwrap_or(0);
        let w_cur = rows.iter().map(|(_, _, c, _)| c.len()).max().unwrap_or(0);
        for (d, base, cur, rel) in &rows {
            out.push_str(&format!(
                "REGRESSION  {:<w_path$}  {base:>w_base$} -> {cur:>w_cur$}  ({rel})\n",
                d.path,
            ));
        }
        for m in &self.mismatches {
            out.push_str(&format!("MISMATCH    {m}\n"));
        }
        for m in &self.missing {
            out.push_str(&format!(
                "{}     {m}: in baseline but not in current run\n",
                if self.strict_missing {
                    "MISSING"
                } else {
                    "missing"
                }
            ));
        }
        for a in &self.added {
            out.push_str(&format!("new         {a}: not in baseline (ignored)\n"));
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }
}

fn fmt_val(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_rel(r: f64) -> String {
    if r.is_infinite() {
        "+inf%".into()
    } else {
        format!("{:+.1}%", r * 100.0)
    }
}

/// Label an array element for paths: use its `id`/`scheduler` member
/// when present so reordering doesn't shuffle metric identities.
fn element_key(v: &JsonValue, idx: usize) -> String {
    for k in ["id", "scheduler", "bin", "name"] {
        if let Some(s) = v.get(k).and_then(JsonValue::as_str) {
            return s.to_string();
        }
    }
    idx.to_string()
}

fn walk(
    path: &str,
    base: &JsonValue,
    cur: Option<&JsonValue>,
    tol: &Tolerances,
    out: &mut DiffReport,
) {
    let Some(cur) = cur else {
        out.missing.push(path.to_string());
        return;
    };
    match (base, cur) {
        (JsonValue::Obj(bm), JsonValue::Obj(_)) => {
            for (k, bv) in bm {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(&child, bv, cur.get(k), tol, out);
            }
            if let JsonValue::Obj(cm) = cur {
                for (k, _) in cm {
                    if base.get(k).is_none() {
                        out.added.push(format!("{path}.{k}"));
                    }
                }
            }
        }
        (JsonValue::Arr(ba), JsonValue::Arr(ca)) => {
            // Match elements by their id label when available, falling
            // back to position.
            for (i, bv) in ba.iter().enumerate() {
                let key = element_key(bv, i);
                let child = format!("{path}[{key}]");
                let matched = ca
                    .iter()
                    .enumerate()
                    .find(|(j, cv)| element_key(cv, *j) == key)
                    .map(|(_, cv)| cv);
                walk(&child, bv, matched, tol, out);
            }
            if ca.len() > ba.len() {
                out.added.push(format!("{path}[{}..]", ba.len()));
            }
        }
        (JsonValue::Num(b), JsonValue::Num(c)) => {
            let leaf = path.rsplit('.').next().unwrap_or(path);
            let leaf = leaf.split('[').next().unwrap_or(leaf);
            let class = classify(leaf);
            let regressed = match class {
                MetricClass::Time { abs_floor } => {
                    !tol.ignore_time && *c > *b + (tol.time_rel * b.abs()).max(abs_floor)
                }
                MetricClass::Rate { abs_floor } => {
                    !tol.ignore_time && *c < *b - (tol.time_rel * b.abs()).max(abs_floor)
                }
                MetricClass::Count => (c - b).abs() > 1e-9,
                MetricClass::Config => {
                    if (c - b).abs() > 1e-9 {
                        out.mismatches.push(format!(
                            "{path}: config differs (baseline {}, current {})",
                            fmt_val(*b),
                            fmt_val(*c)
                        ));
                    }
                    false
                }
            };
            out.deltas.push(Delta {
                path: path.to_string(),
                base: *b,
                cur: *c,
                class,
                regressed,
            });
        }
        (JsonValue::Str(b), JsonValue::Str(c)) => {
            if b != c {
                out.mismatches.push(format!("{path}: \"{b}\" vs \"{c}\""));
            }
        }
        (JsonValue::Bool(b), JsonValue::Bool(c)) => {
            if b != c {
                out.mismatches.push(format!("{path}: {b} vs {c}"));
            }
        }
        (JsonValue::Null, JsonValue::Null) => {}
        _ => {
            out.mismatches
                .push(format!("{path}: type changed between documents"));
        }
    }
}

/// Compare a current bench document against a baseline.
pub fn compare(base: &JsonValue, cur: &JsonValue, tol: &Tolerances) -> DiffReport {
    let mut out = DiffReport {
        strict_missing: tol.strict_missing,
        ..DiffReport::default()
    };
    walk("", base, Some(cur), tol, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::parse;

    fn cmp(base: &str, cur: &str, tol: Tolerances) -> DiffReport {
        compare(&parse(base).unwrap(), &parse(cur).unwrap(), &tol)
    }

    #[test]
    fn rate_metrics_regress_downward_only() {
        // Higher throughput is fine…
        let r = cmp(
            r#"{"events_per_sec_m":3.0,"completed":5}"#,
            r#"{"events_per_sec_m":4.5,"completed":5}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed(), "{}", r.render());
        // …a collapse is a regression…
        let r = cmp(
            r#"{"events_per_sec_m":3.0,"completed":5}"#,
            r#"{"events_per_sec_m":1.0,"completed":5}"#,
            Tolerances::default(),
        );
        assert!(r.regressed(), "{}", r.render());
        assert_eq!(r.regressions()[0].path, "events_per_sec_m");
        // …and small dips sit inside the tolerance.
        let r = cmp(
            r#"{"events_per_sec_m":3.0,"completed":5}"#,
            r#"{"events_per_sec_m":2.8,"completed":5}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed(), "{}", r.render());
    }

    #[test]
    fn rss_metrics_get_an_absolute_floor() {
        // +20 MiB on a 13 MiB baseline is huge relatively but inside
        // the allocator-noise floor.
        let r = cmp(
            r#"{"peak_rss_mib":13.0}"#,
            r#"{"peak_rss_mib":33.0}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed(), "{}", r.render());
        let r = cmp(
            r#"{"peak_rss_mib":13.0}"#,
            r#"{"peak_rss_mib":200.0}"#,
            Tolerances::default(),
        );
        assert!(r.regressed(), "{}", r.render());
    }

    #[test]
    fn identical_documents_pass() {
        let doc = r#"{"total_secs":10.0,"completed":500,"jobs":2}"#;
        let r = cmp(doc, doc, Tolerances::default());
        assert!(!r.regressed(), "{}", r.render());
        assert_eq!(r.deltas.len(), 3);
    }

    #[test]
    fn time_within_tolerance_passes() {
        let r = cmp(
            r#"{"total_secs":10.0}"#,
            r#"{"total_secs":14.0}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed());
    }

    #[test]
    fn injected_time_regression_fails() {
        let r = cmp(
            r#"{"total_secs":10.0}"#,
            r#"{"total_secs":16.0}"#,
            Tolerances::default(),
        );
        assert!(r.regressed());
        assert_eq!(r.regressions()[0].path, "total_secs");
        assert!(r.summary_line().starts_with("REGRESSION"));
    }

    #[test]
    fn time_improvement_passes() {
        let r = cmp(
            r#"{"total_secs":10.0}"#,
            r#"{"total_secs":2.0}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed());
    }

    #[test]
    fn tiny_time_base_uses_absolute_floor() {
        // 0.01 s -> 0.2 s is +1900 % but only +0.19 s: under the 0.25 s
        // floor, not a regression.
        let r = cmp(r#"{"secs":0.01}"#, r#"{"secs":0.2}"#, Tolerances::default());
        assert!(!r.regressed(), "{}", r.render());
    }

    #[test]
    fn count_drift_always_fails() {
        let r = cmp(
            r#"{"completed":500}"#,
            r#"{"completed":501}"#,
            Tolerances {
                time_rel: 1e9,
                ..Tolerances::default()
            },
        );
        assert!(r.regressed());
    }

    #[test]
    fn config_mismatch_fails() {
        let r = cmp(r#"{"jobs":2}"#, r#"{"jobs":4}"#, Tolerances::default());
        assert!(r.regressed());
        assert_eq!(r.mismatches.len(), 1);
    }

    #[test]
    fn ignore_time_skips_time_only() {
        let tol = Tolerances {
            ignore_time: true,
            ..Tolerances::default()
        };
        let r = cmp(
            r#"{"total_secs":1.0,"completed":5}"#,
            r#"{"total_secs":99.0,"completed":5}"#,
            tol,
        );
        assert!(!r.regressed());
    }

    #[test]
    fn arrays_match_by_id_label() {
        let base = r#"{"artifacts":[{"id":"fig8","sim_runs":36},{"id":"table2","sim_runs":12}]}"#;
        let cur = r#"{"artifacts":[{"id":"table2","sim_runs":12},{"id":"fig8","sim_runs":36}]}"#;
        let r = cmp(base, cur, Tolerances::default());
        assert!(!r.regressed(), "{}", r.render());
    }

    #[test]
    fn missing_metric_is_soft_unless_strict() {
        let base = r#"{"a_secs":1.0,"completed":2}"#;
        let cur = r#"{"completed":2}"#;
        assert!(!cmp(base, cur, Tolerances::default()).regressed());
        let strict = Tolerances {
            strict_missing: true,
            ..Tolerances::default()
        };
        assert!(cmp(base, cur, strict).regressed());
    }

    #[test]
    fn new_metrics_are_ignored() {
        let r = cmp(
            r#"{"completed":2}"#,
            r#"{"completed":2,"brand_new":7}"#,
            Tolerances::default(),
        );
        assert!(!r.regressed());
        assert_eq!(r.added, vec![".brand_new".to_string()]);
    }

    #[test]
    fn json_output_is_severity_sorted_and_parses() {
        let base = r#"{"a_secs":1.0,"b_secs":1.0,"completed":5,"label":"x"}"#;
        let cur = r#"{"a_secs":1.3,"b_secs":9.0,"completed":5,"label":"y","extra":1}"#;
        let r = cmp(base, cur, Tolerances::default());
        let doc = crate::jsonv::parse(&r.to_json()).expect("to_json parses");
        assert_eq!(doc.get("regressed"), Some(&JsonValue::Bool(true)));
        let deltas = doc
            .get("deltas")
            .and_then(JsonValue::as_arr)
            .expect("deltas");
        assert_eq!(deltas.len(), 3);
        // Severity order: the failing b_secs leads, then a_secs (larger
        // rel change than the exact count), then completed.
        let paths: Vec<&str> = deltas
            .iter()
            .map(|d| d.get("path").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(paths, ["b_secs", "a_secs", "completed"]);
        assert_eq!(
            deltas[0].get("class").and_then(JsonValue::as_str),
            Some("time")
        );
        assert_eq!(deltas[0].get("regressed"), Some(&JsonValue::Bool(true)));
        assert_eq!(deltas[1].get("regressed"), Some(&JsonValue::Bool(false)));
        let mismatches = doc
            .get("mismatches")
            .and_then(JsonValue::as_arr)
            .expect("mismatches");
        assert_eq!(mismatches.len(), 1);
        assert_eq!(
            doc.get("added").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn zero_baseline_rel_change_serializes_as_null() {
        let r = cmp(
            r#"{"x_secs":0.0,"completed":1}"#,
            r#"{"x_secs":5.0,"completed":1}"#,
            Tolerances::default(),
        );
        let doc = crate::jsonv::parse(&r.to_json()).expect("to_json parses");
        let deltas = doc
            .get("deltas")
            .and_then(JsonValue::as_arr)
            .expect("deltas");
        let x = deltas
            .iter()
            .find(|d| d.get("path").and_then(JsonValue::as_str) == Some("x_secs"))
            .expect("x_secs delta");
        assert_eq!(x.get("rel_change"), Some(&JsonValue::Null));
    }

    #[test]
    fn render_aligns_regression_columns() {
        let base = r#"{"short_secs":1.0,"a_much_longer_metric_secs":2.0}"#;
        let cur = r#"{"short_secs":99.0,"a_much_longer_metric_secs":444.0}"#;
        let r = cmp(base, cur, Tolerances::default());
        let out = r.render();
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("REGRESSION  "))
            .collect();
        assert_eq!(rows.len(), 2);
        // Worst relative change first, and the "->" separators line up.
        assert!(rows[0].contains("a_much_longer_metric_secs"));
        let arrow = |l: &str| l.find("->").expect("arrow");
        assert_eq!(arrow(rows[0]), arrow(rows[1]), "unaligned:\n{out}");
    }

    #[test]
    fn nested_paths_classify_by_leaf() {
        let base = r#"{"trace":{"on_secs":1.0,"events":100}}"#;
        let cur = r#"{"trace":{"on_secs":3.0,"events":100}}"#;
        let r = cmp(base, cur, Tolerances::default());
        assert!(r.regressed());
        assert_eq!(r.regressions()[0].path, "trace.on_secs");
    }
}
