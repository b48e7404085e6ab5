//! # repro-bench — the experiment harness
//!
//! One binary per table/figure of the paper, plus ablation binaries for
//! the in-text claims, plus Criterion micro-benchmarks:
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run --release -p repro-bench --bin table1` | Table 1: old vs new sequential run times |
//! | `cargo run --release -p repro-bench --bin table2` | Table 2: conventional vs 4-lane vs 8-lane alignment times |
//! | `cargo run --release -p repro-bench --bin figure8` | Figure 8: speed improvement vs processor count |
//! | `... --bin ablation_striping` | §5.1: cache-aware striping gains |
//! | `... --bin ablation_speculation` | §5.1: SIMD group speculation overhead |
//! | `... --bin ablation_queue` | §3: realignments avoided by the task queue |
//! | `... --bin ablation_smp` | §5.2: SMP scaling and speculative waste |
//! | `... --bin run_report` | per-engine `RunReport`s + flight-recorder ablation (→ `results/BENCH_report.json`) |
//! | `cargo bench --workspace` | kernel/queue micro-benchmarks |
//!
//! Every binary accepts `--scale small|medium|full` (default `medium`;
//! `small` is used by the smoke tests, `full` approaches the paper's
//! problem sizes and takes correspondingly long).

#![warn(missing_docs)]

use repro::obs::json::{num, obj, str, Json};
use std::time::{Duration, Instant};

/// Problem-size selector shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke runs (CI).
    Small,
    /// Minutes-long default runs.
    Medium,
    /// Paper-scale runs (hours for Table 1's O(n⁴) column).
    Full,
}

impl Scale {
    /// Parse from command-line arguments (`--scale X`), defaulting to
    /// `Medium`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?}, using medium");
                        Scale::Medium
                    }
                };
            }
        }
        Scale::Medium
    }
}

/// Time one closure, returning (result, elapsed seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Time several closures head-to-head until `budget` elapses (each runs
/// at least once), returning each one's minimum per-iteration seconds.
/// The arms alternate rep-by-rep so slow frequency/thermal drift hits
/// all equally instead of biasing whichever arm ran last — on sub-20 ms
/// workloads that drift alone was measured moving a ratio of two minima
/// by ±5 %.
pub fn time_min_each(budget: Duration, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let start = Instant::now();
    let mut best = vec![f64::INFINITY; arms.len()];
    loop {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            arm();
            *best = best.min(t0.elapsed().as_secs_f64());
        }
        if start.elapsed() >= budget {
            return best;
        }
    }
}

/// [`time_min_each`] for two closures.
pub fn time_min_pair(budget: Duration, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let best = time_min_each(budget, &mut [&mut a, &mut b]);
    (best[0], best[1])
}

/// Time a closure repeatedly until `budget` elapses (at least once),
/// returning the minimum per-iteration seconds.
pub fn time_min(budget: Duration, mut f: impl FnMut()) -> f64 {
    time_min_each(budget, &mut [&mut f])[0]
}

/// The `host` object every `BENCH_*.json` carries: the CPU count, the
/// x86 features the kernels and the row step dispatch on, and the SIMD
/// selection the engines make on this machine.
pub fn host() -> Json {
    #[cfg(target_arch = "x86_64")]
    let features = [
        ("sse2", std::arch::is_x86_feature_detected!("sse2")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: [(&str, bool); 0] = [];
    let features = features.into_iter().filter(|&(_, on)| on);
    let auto = repro::simd::select(None, None).expect("auto selection never fails");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", num(nproc as f64)),
        (
            "cpu_features",
            Json::Arr(features.map(|(f, _)| str(f)).collect()),
        ),
        ("dispatch", str(&auto.to_string())),
    ])
}

/// Right-aligned table printer: header once, then rows.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Print the header and remember the column widths.
    pub fn new(headers: &[&str]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let mut line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{h:>w$}  "));
        }
        println!("{}", line.trim_end());
        println!("{}", "-".repeat(line.trim_end().len()));
        Table { widths }
    }

    /// Print one row of already-formatted cells.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$}  "));
        }
        println!("{}", line.trim_end());
    }
}

/// Format seconds human-readably.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_medium() {
        // (Cannot easily inject argv; just check the default path.)
        assert_eq!(Scale::from_args(), Scale::Medium);
    }

    #[test]
    fn time_reports_positive() {
        let (v, s) = time(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn time_min_runs_at_least_once() {
        let mut n = 0;
        let best = time_min(Duration::from_millis(1), || n += 1);
        assert!(n >= 1);
        assert!(best.is_finite());
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(123.0), "123 s");
        assert_eq!(secs(1.5), "1.50 s");
        assert_eq!(secs(0.0015), "1.50 ms");
        assert_eq!(secs(2e-6), "2.0 µs");
    }
}
