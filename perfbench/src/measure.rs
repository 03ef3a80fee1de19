//! Host clocks, memory and summary statistics.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this
/// process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    wall: Instant,
    cpu: Duration,
}

impl Span {
    /// Start both clocks.
    pub fn start() -> Span {
        Span {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Span::start`].
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = (process_cpu() - self.cpu).as_secs_f64();
        (wall, cpu)
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Reset the peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_mib`] covers only what runs after this call. Returns false
/// where the kernel refuses; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100] of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean of `xs`, 0 for none.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set-up times sampled throughout a run, so that they see the same host
/// conditions as the passes they precede rather than one instant of them.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time `n` builds one at a time; each instance is dropped after its
    /// clock stops, so drops are not timed.
    pub fn sample<T>(&mut self, n: usize, mut build: impl FnMut() -> T) {
        for _ in 0..n {
            let t = Instant::now();
            let built = std::hint::black_box(build());
            self.0.push(t.elapsed().as_secs_f64());
            drop(built);
        }
    }

    /// Median seconds per build.
    ///
    /// # Panics
    /// Panics if nothing was sampled.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 90.0), 180.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances() {
        let s = Span::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let (wall, cpu) = s.stop();
        assert!(wall > 0.0 && cpu > 0.0, "wall {wall} cpu {cpu} x {x}");
    }
}
