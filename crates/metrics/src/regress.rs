//! Bench regression comparison: the core of the `benchdiff` CLI.
//!
//! Compares two bench documents (a `BENCH_*.json` written by `repro`,
//! or the result line of `perfbench`) metric by metric, and every value
//! in the baseline must be reproduced exactly:
//!
//! * numbers, strings and bools must match — the simulator is a pure
//!   function of its config, so any drift is a behavioral change, not
//!   noise;
//! * a baseline metric missing from the current document fails too.
//!
//! Host timing is not compared: it is noise across machines, and
//! `perfbench` measures it. Metrics present only in the current document
//! are listed and ignored, so a baseline can pin the deterministic subset
//! of a larger document (the perfbench baselines keep only its counts).

use crate::jsonv::JsonValue;

/// One numeric metric whose value differs from the baseline.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the metric (`artifacts[fig8].sim_runs`).
    pub path: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
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
    /// Number of numeric metrics compared.
    pub compared: usize,
    /// Numeric metrics that differ, largest relative change first.
    pub changed: Vec<Delta>,
    /// String/bool/type mismatches.
    pub mismatches: Vec<String>,
    /// Baseline metrics missing from the current document.
    pub missing: Vec<String>,
    /// Current metrics absent from the baseline (informational).
    pub added: Vec<String>,
}

impl DiffReport {
    /// Does the current document fail to reproduce the baseline?
    pub fn regressed(&self) -> bool {
        !self.changed.is_empty() || !self.mismatches.is_empty() || !self.missing.is_empty()
    }

    /// One-line summary, e.g. `ok: 41 metrics exact`.
    pub fn summary_line(&self) -> String {
        if self.regressed() {
            format!(
                "REGRESSION: {} changed, {} mismatched, {} missing of {} metrics",
                self.changed.len(),
                self.mismatches.len(),
                self.missing.len(),
                self.compared + self.missing.len()
            )
        } else {
            format!("ok: {} metrics exact", self.compared)
        }
    }

    /// Full multi-line rendering (changes, mismatches, schema drift).
    /// Change rows are column-aligned, largest relative change first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rows: Vec<(&Delta, String, String, String)> = self
            .changed
            .iter()
            .map(|d| {
                (
                    d,
                    fmt_val(d.base),
                    fmt_val(d.cur),
                    format!("{:+}", d.cur - d.base),
                )
            })
            .collect();
        let w_path = rows.iter().map(|(d, ..)| d.path.len()).max().unwrap_or(0);
        let w_base = rows.iter().map(|(_, b, ..)| b.len()).max().unwrap_or(0);
        let w_cur = rows.iter().map(|(_, _, c, _)| c.len()).max().unwrap_or(0);
        for (d, base, cur, diff) in &rows {
            out.push_str(&format!(
                "REGRESSION  {:<w_path$}  {base:>w_base$} -> {cur:>w_cur$}  ({diff})\n",
                d.path,
            ));
        }
        for m in &self.mismatches {
            out.push_str(&format!("MISMATCH    {m}\n"));
        }
        for m in &self.missing {
            out.push_str(&format!(
                "MISSING     {m}: in baseline but not in current run\n"
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

/// `path.key`, or just `key` at the document root.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, base: &JsonValue, cur: Option<&JsonValue>, out: &mut DiffReport) {
    let Some(cur) = cur else {
        out.missing.push(path.to_string());
        return;
    };
    match (base, cur) {
        (JsonValue::Obj(bm), JsonValue::Obj(cm)) => {
            for (k, bv) in bm {
                walk(&join(path, k), bv, cur.get(k), out);
            }
            for (k, _) in cm {
                if base.get(k).is_none() {
                    out.added.push(join(path, k));
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
                walk(&child, bv, matched, out);
            }
            if ca.len() > ba.len() {
                out.added.push(format!("{path}[{}..]", ba.len()));
            }
        }
        (JsonValue::Num(b), JsonValue::Num(c)) => {
            out.compared += 1;
            if b != c {
                out.changed.push(Delta {
                    path: path.to_string(),
                    base: *b,
                    cur: *c,
                });
            }
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
pub fn compare(base: &JsonValue, cur: &JsonValue) -> DiffReport {
    let mut out = DiffReport::default();
    walk("", base, Some(cur), &mut out);
    out.changed.sort_by(|a, b| {
        b.rel_change()
            .abs()
            .partial_cmp(&a.rel_change().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::parse;

    fn cmp(base: &str, cur: &str) -> DiffReport {
        compare(&parse(base).unwrap(), &parse(cur).unwrap())
    }

    #[test]
    fn identical_documents_pass() {
        let doc = r#"{"total_secs":10.0,"completed":500,"jobs":2}"#;
        let r = cmp(doc, doc);
        assert!(!r.regressed(), "{}", r.render());
        assert_eq!(r.compared, 3);
        assert_eq!(r.summary_line(), "ok: 3 metrics exact");
    }

    #[test]
    fn injected_time_regression_fails() {
        let r = cmp(r#"{"total_secs":10.0}"#, r#"{"total_secs":16.0}"#);
        assert!(r.regressed());
        assert_eq!(r.changed[0].path, "total_secs");
        assert!(r.summary_line().starts_with("REGRESSION"));
    }

    #[test]
    fn count_drift_always_fails() {
        let r = cmp(r#"{"completed":500}"#, r#"{"completed":501}"#);
        assert!(r.regressed());
    }

    #[test]
    fn config_mismatch_fails() {
        let r = cmp(r#"{"jobs":2}"#, r#"{"jobs":4}"#);
        assert!(r.regressed());
        assert_eq!(r.changed.len(), 1);
    }

    #[test]
    fn arrays_match_by_id_label() {
        let base = r#"{"artifacts":[{"id":"fig8","sim_runs":36},{"id":"table2","sim_runs":12}]}"#;
        let cur = r#"{"artifacts":[{"id":"table2","sim_runs":12},{"id":"fig8","sim_runs":36}]}"#;
        let r = cmp(base, cur);
        assert!(!r.regressed(), "{}", r.render());
    }

    #[test]
    fn missing_metric_fails() {
        let r = cmp(r#"{"a_secs":1.0,"completed":2}"#, r#"{"completed":2}"#);
        assert!(r.regressed());
        assert_eq!(r.missing, vec!["a_secs".to_string()]);
        assert!(r.render().contains("MISSING     a_secs"));
    }

    #[test]
    fn new_metrics_are_ignored() {
        let r = cmp(r#"{"completed":2}"#, r#"{"completed":2,"brand_new":7}"#);
        assert!(!r.regressed());
        assert_eq!(r.added, vec!["brand_new".to_string()]);
    }

    #[test]
    fn render_aligns_regression_columns() {
        let base = r#"{"short_secs":1.0,"a_much_longer_metric_secs":2.0}"#;
        let cur = r#"{"short_secs":99.0,"a_much_longer_metric_secs":444.0}"#;
        let r = cmp(base, cur);
        let out = r.render();
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("REGRESSION  "))
            .collect();
        assert_eq!(rows.len(), 2);
        // Largest relative change first, and the "->" separators line up.
        assert!(rows[0].contains("a_much_longer_metric_secs"));
        let arrow = |l: &str| l.find("->").expect("arrow");
        assert_eq!(arrow(rows[0]), arrow(rows[1]), "unaligned:\n{out}");
    }

    #[test]
    fn nested_paths_are_dotted() {
        let base = r#"{"metrics":{"sched.request.calls":{"value":10,"unit":"count"}}}"#;
        let cur = r#"{"metrics":{"sched.request.calls":{"value":11,"unit":"count"},"x":{}}}"#;
        let r = cmp(base, cur);
        assert!(r.regressed());
        assert_eq!(r.changed[0].path, "metrics.sched.request.calls.value");
        assert_eq!(r.added, vec!["metrics.x".to_string()]);
    }
}
