//! Host-side wall-clock profiler for the batchsched engine.
//!
//! The simulator can already explain *simulated* time (the trace and
//! metrics layers); this crate explains where the *host's* seconds go.
//! It follows the same enum-dispatch pattern as `Tracer`/`Sampler`:
//! [`Profiler::Off`] is the default and compiles down to one predictable
//! branch per probe, so an unprofiled run is byte-identical — and
//! within noise, cycle-identical — to a build without the probes.
//!
//! Two kinds of data are collected when the profiler is on:
//!
//! * **Phase attribution** ([`Phase`]): scoped monotonic-clock timers
//!   around the engine pump's leaf phases (scheduler decisions, CN work
//!   enqueue, event-queue ops, snapshot/restore). Hot phases are
//!   stride-sampled — every call is counted, every `STRIDE_HOT`-th call
//!   is timed — which keeps the on-overhead inside the same ≤2 % budget
//!   as step dispatch while the estimate `ns_sum × count / sampled`
//!   stays unbiased for i.i.d. durations.
//! * **Wall-clock spans**: a bounded ring of snapshot/restore spans
//!   exported as a Chrome trace in *host* time, complementing the
//!   sim-time exporter in `bds-trace`.
//!
//! Everything is wall-clock only: the profiler never reads or advances
//! sim time, touches no RNG, and cannot reorder events, so profiled
//! runs produce bit-identical artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bds_metrics::PromText;
use bds_trace::json::{JsonArr, JsonObj};
use std::time::Instant;

/// Timed calls per sample for hot phases (cold phases time every call).
/// Counts are exact regardless; only durations are sampled.
pub const STRIDE_HOT: u32 = 64;

/// Bounded capacity of the wall-clock span ring (snapshots, restores);
/// overflow increments a drop counter instead of growing.
pub const SPAN_CAP: usize = 8192;

/// A leaf phase of the engine pump, attributed by scoped timers.
///
/// Phases are non-overlapping by construction (each probe wraps a leaf
/// scope that contains no other probe), so their estimated totals can
/// be compared as shares of attributed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Scheduler calls: `try_start`, `request`, `step_complete`,
    /// validate/commit, abort/forget.
    SchedulerDecide,
    /// Control-node CPU burst enqueue (`cn_work`).
    CnWork,
    /// Event-queue peek/sample/pop in the pump.
    EventQueue,
    /// Snapshot capture (copying out the input log).
    Snapshot,
    /// Snapshot restore (replaying the input log).
    Restore,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 5;

    /// All phases, in report order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::SchedulerDecide,
        Phase::CnWork,
        Phase::EventQueue,
        Phase::Snapshot,
        Phase::Restore,
    ];

    /// Stable snake_case label used in every export.
    pub fn label(self) -> &'static str {
        match self {
            Phase::SchedulerDecide => "scheduler_decide",
            Phase::CnWork => "cn_work",
            Phase::EventQueue => "event_queue",
            Phase::Snapshot => "snapshot",
            Phase::Restore => "restore",
        }
    }

    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }

    /// Hot phases fire per event and are stride-sampled; cold phases
    /// (snapshot, restore) are rare and timed every call.
    #[inline(always)]
    fn stride(self) -> u32 {
        match self {
            Phase::SchedulerDecide | Phase::CnWork | Phase::EventQueue => STRIDE_HOT,
            Phase::Snapshot | Phase::Restore => 1,
        }
    }
}

/// Accumulated statistics for one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Total probe entries (exact).
    pub count: u64,
    /// Entries that were actually timed.
    pub sampled: u64,
    /// Summed duration of the timed entries, ns.
    pub ns_sum: u64,
    /// Largest timed entry, ns.
    pub ns_max: u64,
}

impl PhaseStat {
    /// Estimated total wall time of the phase: sampled time scaled by
    /// the sampling ratio (exact when every call is timed).
    pub fn est_total_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.ns_sum as f64 * (self.count as f64 / self.sampled as f64)
    }
}

/// One wall-clock span for the Chrome-trace export.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    /// Start offset from the profiler epoch, ns.
    start_ns: u64,
    dur_ns: u64,
}

/// Live profiler state (boxed behind [`Profiler::On`]).
#[derive(Debug, Clone)]
pub struct ObsState {
    epoch: Instant,
    phases: [PhaseStat; Phase::COUNT],
    /// Per-phase countdown to the next timed call.
    countdown: [u32; Phase::COUNT],
    spans: Vec<SpanRec>,
    spans_dropped: u64,
}

impl ObsState {
    fn new() -> Self {
        ObsState {
            epoch: Instant::now(),
            phases: [PhaseStat::default(); Phase::COUNT],
            // Time the first call of every phase.
            countdown: [1; Phase::COUNT],
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    fn push_span(&mut self, name: &'static str, start: Instant) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRec {
                name,
                start_ns,
                dur_ns,
            });
        } else {
            self.spans_dropped += 1;
        }
    }
}

/// Token returned by [`Profiler::phase_start`]; hand it back to
/// [`Profiler::phase_end`] when the scope closes. Zero-sized work when
/// the profiler is off or the call was not stride-selected for timing.
#[must_use = "phase tokens must be closed with phase_end"]
#[derive(Debug, Clone, Copy)]
pub struct PhaseToken {
    phase: Phase,
    start: Option<Instant>,
}

/// The host-side profiler: a zero-cost-when-off observer owned by the
/// engine, mirroring `Tracer`'s `Off`/boxed-state shape.
#[derive(Debug, Clone, Default)]
pub enum Profiler {
    /// No profiling; every probe is one predictable branch.
    #[default]
    Off,
    /// Collecting (state boxed to keep the engine struct small).
    On(Box<ObsState>),
}

impl Profiler {
    /// A fresh, enabled profiler (epoch = now).
    pub fn on() -> Profiler {
        Profiler::On(Box::new(ObsState::new()))
    }

    /// Is the profiler collecting?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Profiler::Off)
    }

    /// Open a phase scope. Always counts the entry; reads the clock
    /// only on stride-selected calls (every call for cold phases).
    #[inline(always)]
    pub fn phase_start(&mut self, phase: Phase) -> PhaseToken {
        let start = match self {
            Profiler::Off => None,
            Profiler::On(s) => {
                let i = phase.idx();
                s.phases[i].count += 1;
                s.countdown[i] -= 1;
                if s.countdown[i] == 0 {
                    s.countdown[i] = phase.stride();
                    Some(Instant::now())
                } else {
                    None
                }
            }
        };
        PhaseToken { phase, start }
    }

    /// Close a phase scope opened by [`Profiler::phase_start`].
    #[inline(always)]
    pub fn phase_end(&mut self, tok: PhaseToken) {
        let Some(start) = tok.start else { return };
        if let Profiler::On(s) = self {
            let ns = start.elapsed().as_nanos() as u64;
            let st = &mut s.phases[tok.phase.idx()];
            st.sampled += 1;
            st.ns_sum += ns;
            st.ns_max = st.ns_max.max(ns);
            if matches!(tok.phase, Phase::Snapshot | Phase::Restore) {
                s.push_span(tok.phase.label(), start);
            }
        }
    }

    /// Consume the profiler and produce the report (`None` when off).
    pub fn finish(self) -> Option<ObsReport> {
        match self {
            Profiler::Off => None,
            Profiler::On(s) => Some(ObsReport::from_state(&s)),
        }
    }

    /// Snapshot the current report without stopping collection
    /// (`None` when off). Used by the live `watch` stream.
    pub fn report(&self) -> Option<ObsReport> {
        match self {
            Profiler::Off => None,
            Profiler::On(s) => Some(ObsReport::from_state(s)),
        }
    }
}

/// One phase's row in the report.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Stable label ([`Phase::label`]).
    pub label: &'static str,
    /// Exact probe count.
    pub count: u64,
    /// Timed entries.
    pub sampled: u64,
    /// Summed timed duration, ns.
    pub ns_sum: u64,
    /// Largest timed entry, ns.
    pub ns_max: u64,
    /// Estimated total wall time, ns ([`PhaseStat::est_total_ns`]).
    pub est_total_ns: f64,
}

/// Aggregated profile, ready for export. Snapshot-able mid-run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Wall time since the profiler was installed, ns.
    pub wall_ns: u64,
    /// Per-phase attribution (report order = [`Phase::ALL`]).
    pub phases: Vec<PhaseReport>,
    spans: Vec<SpanRec>,
    spans_dropped: u64,
}

impl ObsReport {
    fn from_state(s: &ObsState) -> ObsReport {
        ObsReport {
            wall_ns: s.epoch.elapsed().as_nanos() as u64,
            phases: Phase::ALL
                .iter()
                .map(|p| {
                    let st = &s.phases[p.idx()];
                    PhaseReport {
                        label: p.label(),
                        count: st.count,
                        sampled: st.sampled,
                        ns_sum: st.ns_sum,
                        ns_max: st.ns_max,
                        est_total_ns: st.est_total_ns(),
                    }
                })
                .collect(),
            spans: s.spans.clone(),
            spans_dropped: s.spans_dropped,
        }
    }

    /// Total attributed phase time, ns.
    pub fn attributed_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.est_total_ns).sum()
    }

    /// `(label, share-of-attributed-time)` rows, largest first.
    pub fn phase_shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.attributed_ns();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut rows: Vec<_> = self
            .phases
            .iter()
            .map(|p| (p.label, p.est_total_ns / total))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Serialize to JSON with the standard build-info header.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.raw("build", &build_info_json());
        o.int("wall_ns", self.wall_ns);
        let mut phases = JsonArr::new();
        for p in &self.phases {
            let mut row = JsonObj::new();
            row.str("phase", p.label);
            row.int("count", p.count);
            row.int("sampled", p.sampled);
            row.int("ns_sum", p.ns_sum);
            row.int("ns_max", p.ns_max);
            row.num("est_total_ns", p.est_total_ns);
            phases.raw(&row.finish());
        }
        o.raw("phases", &phases.finish());
        o.num("attributed_ns", self.attributed_ns());
        o.finish()
    }

    /// Append the profile to a Prometheus exposition, labelled by
    /// `scheduler` when non-empty.
    pub fn render_prom(&self, p: &mut PromText, scheduler: &str) {
        let base: Vec<(&str, &str)> = if scheduler.is_empty() {
            Vec::new()
        } else {
            vec![("scheduler", scheduler)]
        };
        p.counter(
            "bds_obs_wall_seconds_total",
            "Wall time since the profiler was installed",
            &base,
            self.wall_ns / 1_000_000_000,
        );
        for row in &self.phases {
            let mut labels = base.clone();
            labels.push(("phase", row.label));
            p.counter(
                "bds_obs_phase_calls_total",
                "Exact probe entries per pump phase",
                &labels,
                row.count,
            );
            p.gauge(
                "bds_obs_phase_est_seconds",
                "Estimated total wall time per phase (stride-sampled)",
                &labels,
                row.est_total_ns / 1e9,
            );
        }
    }

    /// Export the wall-clock span ring as a Chrome trace (host time,
    /// complementing the sim-time exporter in `bds-trace`).
    pub fn chrome_trace(&self) -> String {
        let mut events = JsonArr::new();
        let mut meta = JsonObj::new();
        meta.str("name", "process_name");
        meta.str("ph", "M");
        meta.int("pid", 1);
        meta.int("tid", 0);
        let mut args = JsonObj::new();
        args.str("name", "bds-obs wall clock");
        meta.raw("args", &args.finish());
        events.raw(&meta.finish());
        for s in &self.spans {
            let mut e = JsonObj::new();
            e.str("name", s.name);
            e.str("ph", "X");
            e.int("pid", 1);
            e.int("tid", 0);
            e.num("ts", s.start_ns as f64 / 1e3);
            e.num("dur", s.dur_ns as f64 / 1e3);
            events.raw(&e.finish());
        }
        let mut o = JsonObj::new();
        o.raw("traceEvents", &events.finish());
        o.str("displayTimeUnit", "ms");
        o.raw("metadata", &build_info_json());
        o.int("spans_dropped", self.spans_dropped);
        o.finish()
    }
}

/// Build/version header attached to every exported profile: package
/// version, build profile, enabled features, and the host's thread
/// budget — enough to attribute an artifact to a binary.
pub fn build_info_json() -> String {
    let mut o = JsonObj::new();
    o.str("package", "batchsched");
    o.str("version", env!("CARGO_PKG_VERSION"));
    o.str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    // The workspace defines no cargo features; record that explicitly
    // so the field stays meaningful if features appear later.
    o.raw("features", "[]");
    o.int(
        "host_threads",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_metrics::jsonv::{parse, JsonValue};

    #[test]
    fn off_profiler_produces_nothing() {
        let mut p = Profiler::Off;
        assert!(!p.enabled());
        let tok = p.phase_start(Phase::SchedulerDecide);
        p.phase_end(tok);
        assert!(p.report().is_none());
        assert!(p.finish().is_none());
    }

    #[test]
    fn counts_are_exact_and_sampling_is_strided() {
        let mut p = Profiler::on();
        for _ in 0..1000 {
            let tok = p.phase_start(Phase::EventQueue);
            p.phase_end(tok);
        }
        let r = p.finish().expect("on profiler reports");
        let row = &r.phases[Phase::EventQueue.idx()];
        assert_eq!(row.count, 1000);
        // First call timed, then every STRIDE_HOT-th.
        let want = 1 + (1000 - 1) / STRIDE_HOT as u64;
        assert_eq!(row.sampled, want);
        assert!(row.est_total_ns >= row.ns_sum as f64);
    }

    #[test]
    fn cold_phases_time_every_call() {
        let mut p = Profiler::on();
        for _ in 0..5 {
            let tok = p.phase_start(Phase::Snapshot);
            p.phase_end(tok);
        }
        let r = p.report().expect("on profiler reports");
        let row = &r.phases[Phase::Snapshot.idx()];
        assert_eq!((row.count, row.sampled), (5, 5));
        // Snapshot scopes also land in the chrome span ring.
        assert!(r.chrome_trace().contains("\"name\":\"snapshot\""));
    }

    #[test]
    fn json_export_parses_and_carries_build_header() {
        let mut p = Profiler::on();
        let tok = p.phase_start(Phase::CnWork);
        p.phase_end(tok);
        let r = p.finish().expect("report");
        let v = parse(&r.to_json()).expect("valid json");
        let build = v.get("build").expect("build header");
        assert_eq!(
            build.get("version").and_then(JsonValue::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(build.get("host_threads").is_some());
        let phases = v.get("phases").and_then(JsonValue::as_arr).expect("phases");
        assert_eq!(phases.len(), Phase::COUNT);
    }

    #[test]
    fn prom_export_has_phase_series() {
        let mut p = Profiler::on();
        let tok = p.phase_start(Phase::SchedulerDecide);
        p.phase_end(tok);
        let r = p.finish().expect("report");
        let mut t = PromText::new();
        r.render_prom(&mut t, "GOW");
        let body = t.finish();
        assert!(body.contains("bds_obs_phase_calls_total"));
        assert!(body.contains("phase=\"scheduler_decide\""));
        assert!(body.contains("scheduler=\"GOW\""));
        // The multi-phase families must still be a valid exposition
        // document (one TYPE header, no duplicate series).
        bds_metrics::check_exposition(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    }
}
