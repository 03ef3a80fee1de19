//! Sim-time series: a fixed-Δt grid of metric samples, and the
//! enum-dispatch [`Sampler`] that keeps the disabled path off the hot
//! loop (mirroring `bds-trace::Tracer`: one predictable branch per
//! event, zero construction work when off).
//!
//! Simulation state is piecewise constant between events, so the
//! simulator samples by calling [`Sampler::due`] with each event's
//! timestamp and, when due, recording one row per grid point passed.
//! Rows are dense `f64` columns; names are fixed at construction.

use bds_des::time::SimTime;
use bds_trace::json::{JsonArr, JsonObj};

/// A fixed-Δt time series with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    dt_ms: u64,
    names: Vec<String>,
    times_ms: Vec<u64>,
    /// Row-major sample values (`times_ms.len() × names.len()`).
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series sampling every `dt_ms` with the given columns.
    ///
    /// # Panics
    /// Panics if `dt_ms` is zero or `names` is empty.
    pub fn new(dt_ms: u64, names: &[&str]) -> Self {
        assert!(dt_ms > 0, "sampling interval must be positive");
        assert!(!names.is_empty(), "a series needs at least one column");
        TimeSeries {
            dt_ms,
            names: names.iter().map(|s| s.to_string()).collect(),
            times_ms: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Sampling interval in milliseconds.
    pub fn dt_ms(&self) -> u64 {
        self.dt_ms
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times_ms.len()
    }

    /// True when no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times_ms.is_empty()
    }

    /// Append a row sampled at `at_ms`.
    ///
    /// # Panics
    /// Panics on arity mismatch or non-monotone timestamps.
    pub fn push_row(&mut self, at_ms: u64, row: &[f64]) {
        assert_eq!(row.len(), self.width(), "row arity mismatch");
        if let Some(&last) = self.times_ms.last() {
            assert!(at_ms > last, "samples must advance in time");
        }
        self.times_ms.push(at_ms);
        self.values.extend_from_slice(row);
    }

    /// Value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.width() + col]
    }

    /// Sample timestamps in milliseconds.
    pub fn times_ms(&self) -> &[u64] {
        &self.times_ms
    }

    /// One column by name, as a fresh vector (`None` if unknown).
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let col = self.names.iter().position(|n| n == name)?;
        Some((0..self.len()).map(|r| self.get(r, col)).collect())
    }

    /// Render as CSV: a `t_secs` column followed by the named columns.
    /// Float formatting uses Rust's shortest round-trip representation,
    /// so the output is deterministic.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_secs");
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for r in 0..self.len() {
            out.push_str(&format!("{}", self.times_ms[r] as f64 / 1000.0));
            for c in 0..self.width() {
                out.push(',');
                let v = self.get(r, c);
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("nan");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as a column-oriented JSON object:
    /// `{"dt_ms":…,"t_ms":[…],"columns":{"name":[…],…}}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.int("dt_ms", self.dt_ms);
        let mut t = JsonArr::new();
        for &ms in &self.times_ms {
            t.int(ms);
        }
        o.raw("t_ms", &t.finish());
        let mut cols = JsonObj::new();
        for (c, name) in self.names.iter().enumerate() {
            let mut arr = JsonArr::new();
            for r in 0..self.len() {
                let v = self.get(r, c);
                if v.is_finite() {
                    arr.raw(&format!("{v}"));
                } else {
                    arr.raw("null");
                }
            }
            cols.raw(name, &arr.finish());
        }
        o.raw("columns", &cols.finish());
        o.finish()
    }
}

/// An active sampler: the next grid point plus the accumulating series.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSampler {
    next_ms: u64,
    /// The series under construction.
    pub series: TimeSeries,
    /// Reused row buffer for the caller to fill.
    pub row: Vec<f64>,
}

impl ActiveSampler {
    /// Next grid point to sample, in milliseconds.
    pub fn next_ms(&self) -> u64 {
        self.next_ms
    }

    /// Record the filled [`ActiveSampler::row`] at the current grid
    /// point and advance to the next.
    pub fn commit_row(&mut self) {
        let at = self.next_ms;
        // Split borrows: push from the scratch row without cloning.
        let series = &mut self.series;
        series.push_row(at, &self.row);
        self.next_ms = at + series.dt_ms();
    }
}

/// The simulator-facing sampling handle: enum dispatch over "off" and
/// "sampling", like `bds-trace::Tracer`. When off, [`Sampler::due`] is a
/// single branch and no sampling state exists.
#[derive(Debug, Default)]
pub enum Sampler {
    /// Sampling disabled.
    #[default]
    Off,
    /// Sampling into a time series.
    On(Box<ActiveSampler>),
}

impl Sampler {
    /// A sampler recording every `dt_ms` into columns `names`. The first
    /// sample lands at `t = dt_ms` (state at `t = 0` is all-idle).
    pub fn every_ms(dt_ms: u64, names: &[&str]) -> Self {
        Sampler::On(Box::new(ActiveSampler {
            next_ms: dt_ms,
            series: TimeSeries::new(dt_ms, names),
            row: Vec::with_capacity(names.len()),
        }))
    }

    /// Is sampling enabled?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Sampler::Off)
    }

    /// Has simulated time reached the next grid point? One branch when
    /// off — this is the only call on the event hot path.
    #[inline(always)]
    pub fn due(&self, now: SimTime) -> bool {
        match self {
            Sampler::Off => false,
            Sampler::On(s) => now.as_millis() >= s.next_ms,
        }
    }

    /// The active sampler, if sampling (callers loop
    /// `while next_ms() <= now`, fill `row`, `commit_row()`).
    #[inline]
    pub fn active(&mut self) -> Option<&mut ActiveSampler> {
        match self {
            Sampler::Off => None,
            Sampler::On(s) => Some(s),
        }
    }

    /// Consume the sampler, yielding the series (`None` when off).
    pub fn finish(self) -> Option<TimeSeries> {
        match self {
            Sampler::Off => None,
            Sampler::On(s) => Some(s.series),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_and_reads_back() {
        let mut s = TimeSeries::new(1000, &["a", "b"]);
        s.push_row(1000, &[1.0, 2.0]);
        s.push_row(2000, &[3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1, 0), 3.0);
        assert_eq!(s.column("b"), Some(vec![2.0, 4.0]));
        assert_eq!(s.column("nope"), None);
    }

    #[test]
    fn csv_shape_and_determinism() {
        let mut s = TimeSeries::new(500, &["x"]);
        s.push_row(500, &[0.25]);
        s.push_row(1000, &[f64::NAN]);
        assert_eq!(s.to_csv(), "t_secs,x\n0.5,0.25\n1,nan\n");
    }

    #[test]
    fn json_is_column_oriented() {
        let mut s = TimeSeries::new(1000, &["u"]);
        s.push_row(1000, &[0.5]);
        assert_eq!(
            s.to_json(),
            r#"{"dt_ms":1000,"t_ms":[1000],"columns":{"u":[0.5]}}"#
        );
    }

    #[test]
    #[should_panic(expected = "advance in time")]
    fn non_monotone_rows_rejected() {
        let mut s = TimeSeries::new(1000, &["x"]);
        s.push_row(1000, &[1.0]);
        s.push_row(1000, &[2.0]);
    }

    #[test]
    fn sampler_off_is_inert() {
        let mut s = Sampler::Off;
        assert!(!s.enabled());
        assert!(!s.due(SimTime::from_millis(u64::MAX)));
        assert!(s.active().is_none());
        assert!(s.finish().is_none());
    }

    #[test]
    fn sampler_grid_advances() {
        let mut s = Sampler::every_ms(1000, &["v"]);
        assert!(!s.due(SimTime::from_millis(999)));
        assert!(s.due(SimTime::from_millis(1000)));
        let a = s.active().unwrap();
        a.row.clear();
        a.row.push(7.0);
        a.commit_row();
        assert_eq!(a.next_ms(), 2000);
        assert!(!s.due(SimTime::from_millis(1500)));
        let series = s.finish().unwrap();
        assert_eq!(series.times_ms(), &[1000]);
        assert_eq!(series.get(0, 0), 7.0);
    }
}
