//! What the benchmark asks the operating system: CPU time, peak memory,
//! core count, and the `host` block stamped into every result.

use repro::obs::json::{num, obj, str, Json};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every
/// thread of this process, at scheduler (nanosecond) resolution — the
/// tick-granular `/proc/self/stat` is too coarse for 0.3 s reps.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed so far, all threads.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, which the layout above
    // matches) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block: results from different hosts are not comparable, and
/// `compare` refuses to try.
pub fn host() -> Json {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
        ] {
            if present {
                features.push(name);
            }
        }
    }
    let dispatch = repro::simd::select(None, None)
        .map_or_else(|e| format!("error: {e}"), |sel| sel.to_string());
    obj(vec![
        ("nproc", num(nproc() as f64)),
        ("arch", str(std::env::consts::ARCH)),
        (
            "cpu_features",
            Json::Arr(features.into_iter().map(str).collect()),
        ),
        ("dispatch", str(&dispatch)),
        ("smp_threads", num(crate::workloads::smp_threads() as f64)),
        (
            "cluster_workers",
            num(crate::workloads::CLUSTER_WORKERS as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
