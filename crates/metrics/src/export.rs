//! Exporters: Prometheus text exposition and ASCII sparklines.
//!
//! (CSV and JSON renderings of a series live on
//! [`TimeSeries`](crate::series::TimeSeries) itself; this module holds
//! the formats that compose several instruments into one document.)

use crate::hist::LogHistogram;

/// Builder for the Prometheus text exposition format (version 0.0.4):
/// `# HELP` / `# TYPE` headers plus one sample line per metric, with
/// optional `{label="value"}` pairs. Headers are emitted once per
/// metric name — repeated calls for the same family (per-node or
/// per-phase series) append samples under the first header, as the
/// format requires.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
    headered: std::collections::BTreeSet<String>,
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{inner}}}")
}

fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if !self.headered.insert(name.to_string()) {
            return;
        }
        // Help text escapes backslash and line feed per the format.
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        self.buf
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// Append a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        self.buf
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Append a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.header(name, help, "gauge");
        self.buf.push_str(&format!(
            "{name}{} {}\n",
            render_labels(labels),
            render_value(value)
        ));
    }

    /// Append a histogram: one `_bucket` line per non-empty log bucket
    /// (cumulative, `le`-labelled), the `+Inf` bucket, `_sum` and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &LogHistogram) {
        self.header(name, help, "histogram");
        for (le, cum) in h.cumulative_buckets() {
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            let le_s = render_value(le);
            ls.push(("le", &le_s));
            self.buf
                .push_str(&format!("{name}_bucket{} {cum}\n", render_labels(&ls)));
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.buf.push_str(&format!(
            "{name}_bucket{} {}\n",
            render_labels(&ls),
            h.total()
        ));
        let base = render_labels(labels);
        self.buf.push_str(&format!(
            "{name}_sum{base} {}\n",
            render_value(h.sum_secs())
        ));
        self.buf
            .push_str(&format!("{name}_count{base} {}\n", h.total()));
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Validate a Prometheus text exposition document as produced by
/// [`PromText`]. Checks, line by line:
///
/// * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names
///   `[a-zA-Z_][a-zA-Z0-9_]*`;
/// * label values use only the legal escapes (`\\`, `\"`, `\n`);
/// * sample values parse as a float or `NaN` / `+Inf` / `-Inf`;
/// * at most one `# TYPE` per metric name, with a known kind, and every
///   sample's family (the name less a `_bucket`/`_sum`/`_count`
///   histogram suffix) carries one;
/// * no duplicate series: a (name, sorted label set) pair appears once.
///
/// Returns the first violation as `Err`. Deliberately stricter than a
/// scrape parser — arbitrary `#` comments and timestamps, which the
/// format allows but [`PromText`] never writes, are rejected.
pub fn check_exposition(text: &str) -> Result<(), String> {
    fn valid_name(s: &str, allow_colon: bool) -> bool {
        let mut chars = s.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        let head_ok = first.is_ascii_alphabetic() || first == '_' || (allow_colon && first == ':');
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
    }
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {ln}: TYPE without a kind"))?;
                if !valid_name(name, true) {
                    return Err(format!("line {ln}: bad metric name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {ln}: unknown TYPE kind {kind:?}"));
                }
                if !typed.insert(name.to_string()) {
                    return Err(format!("line {ln}: duplicate TYPE for {name}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_name(name, true) {
                    return Err(format!("line {ln}: bad metric name {name:?}"));
                }
            } else {
                return Err(format!("line {ln}: unexpected comment {line:?}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: sample without a value: {line:?}"))?;
        if !(value == "NaN" || value == "+Inf" || value == "-Inf") && value.parse::<f64>().is_err()
        {
            return Err(format!("line {ln}: bad sample value {value:?}"));
        }
        let (name, label_body) = match series.find('{') {
            Some(at) => {
                let body = series[at..]
                    .strip_prefix('{')
                    .and_then(|b| b.strip_suffix('}'))
                    .ok_or_else(|| format!("line {ln}: unterminated label block"))?;
                (&series[..at], Some(body))
            }
            None => (series, None),
        };
        if !valid_name(name, true) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        let mut labels: Vec<(String, String)> = Vec::new();
        if let Some(body) = label_body {
            let mut chars = body.chars();
            loop {
                let mut key = String::new();
                let mut next = chars.next();
                while let Some(c) = next {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                    next = chars.next();
                }
                if next != Some('=') {
                    return Err(format!("line {ln}: label without '=': {body:?}"));
                }
                if !valid_name(&key, false) {
                    return Err(format!("line {ln}: bad label name {key:?}"));
                }
                if chars.next() != Some('"') {
                    return Err(format!("line {ln}: unquoted value for label {key}"));
                }
                // Keep the escaped form; only validate the escapes.
                let mut val = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some(e @ ('\\' | '"' | 'n')) => {
                                val.push('\\');
                                val.push(e);
                            }
                            other => {
                                return Err(format!(
                                    "line {ln}: illegal escape \\{} in label {key}",
                                    other.map(String::from).unwrap_or_default()
                                ))
                            }
                        },
                        '"' => {
                            closed = true;
                            break;
                        }
                        c => val.push(c),
                    }
                }
                if !closed {
                    return Err(format!("line {ln}: unterminated value for label {key}"));
                }
                labels.push((key, val));
                match chars.next() {
                    None => break,
                    Some(',') => continue,
                    Some(c) => return Err(format!("line {ln}: junk {c:?} after label value")),
                }
            }
        }
        labels.sort();
        let series_key = format!("{name}{labels:?}");
        if !seen.insert(series_key) {
            return Err(format!("line {ln}: duplicate series {series:?}"));
        }
        let family_typed = typed.contains(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| typed.contains(base))
            });
        if !family_typed {
            return Err(format!("line {ln}: sample {name} has no TYPE header"));
        }
    }
    Ok(())
}

/// Render a value sequence as a one-line ASCII sparkline using the eight
/// block glyphs `▁▂▃▄▅▆▇█`, scaled to the sequence's own min/max.
/// Non-finite values render as `·`; an empty slice yields an empty
/// string.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return values.iter().map(|_| '·').collect();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '·'
            } else {
                let t = ((v - lo) / span * 7.0).round() as usize;
                GLYPHS[t.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render() {
        let mut p = PromText::new();
        p.counter("bds_commits_total", "Commits.", &[("sched", "GOW")], 42);
        p.gauge("bds_util", "Utilization.", &[], 0.5);
        let s = p.finish();
        assert!(s.contains("# TYPE bds_commits_total counter"));
        assert!(s.contains("bds_commits_total{sched=\"GOW\"} 42"));
        assert!(s.contains("bds_util 0.5"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut h = LogHistogram::new();
        h.record_secs(0.5);
        h.record_secs(0.5);
        h.record_secs(2.0);
        let mut p = PromText::new();
        p.histogram("bds_rt_seconds", "RT.", &[("sched", "LOW")], &h);
        let s = p.finish();
        assert!(s.contains("# TYPE bds_rt_seconds histogram"));
        assert!(s.contains("bds_rt_seconds_bucket{sched=\"LOW\",le=\"+Inf\"} 3"));
        assert!(s.contains("bds_rt_seconds_count{sched=\"LOW\"} 3"));
        assert!(s.contains("bds_rt_seconds_sum{sched=\"LOW\"} 3"));
        // Two finite buckets (0.5 s ×2 and 2.0 s), cumulative.
        let buckets: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("_bucket") && !l.contains("+Inf"))
            .collect();
        assert_eq!(buckets.len(), 2);
        assert!(buckets[0].ends_with(" 2"));
        assert!(buckets[1].ends_with(" 3"));
    }

    #[test]
    fn label_escaping() {
        let mut p = PromText::new();
        p.gauge("g", "h.", &[("l", "a\"b\\c")], 1.0);
        assert!(p.finish().contains(r#"g{l="a\"b\\c"} 1"#));
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[f64::NAN, 1.0]), "·▁");
    }
}
