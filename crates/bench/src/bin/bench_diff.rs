//! **Bench diff** — compare freshly generated `BENCH_*.json` files
//! against the committed baselines under `results/`, direction-aware.
//!
//! Each bench file contributes a set of headline metrics (wall ratios,
//! speedups, throughputs) with a known good direction; `bench_diff`
//! matches them by name between the two trees and prints the relative
//! change. Under `--check` it exits non-zero when
//!
//! * a baseline metric is absent or non-finite in the fresh run of the
//!   same suite (a renamed engine, a dropped leg, broken JSON) — always;
//! * a metric moved in its *bad* direction by more than the threshold —
//!   only when both files carry the same `host` and `scale` stamps.
//!   Across hosts or scales the file is compared for structure only.
//!
//! Metrics only the fresh run has (new legs) never fail; whole files
//! missing on either side warn and skip, so a quick gate need not
//! regenerate every suite.
//!
//! Usage: `cargo run --release -p repro-bench --bin bench_diff --
//! [--fresh DIR] [--baseline DIR] [--threshold PCT] [--check]`
//!
//! Defaults: fresh = current directory (where the bench bins write),
//! baseline = `results/`, threshold = 15 (percent).

use repro::obs::json::Json;
use repro_bench::Table;

/// The bench outputs the diff knows how to read. A file absent from a
/// tree is warned about and skipped, not failed — regenerating every
/// suite for every change would defeat the point of a quick gate.
const FILES: &[&str] = &[
    "BENCH_report.json",
    "BENCH_e2e.json",
    "BENCH_prune.json",
    "BENCH_cluster_real.json",
    "BENCH_simd.json",
];

/// Relative regression allowed before `--check` fails, in percent.
const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// One headline metric: a stable name, its value, and which direction
/// is an improvement.
#[derive(Debug, Clone, PartialEq)]
struct MetricVal {
    name: String,
    value: f64,
    higher_is_better: bool,
}

fn m(name: String, value: f64, higher_is_better: bool) -> MetricVal {
    MetricVal {
        name,
        value,
        higher_is_better,
    }
}

fn f(v: Option<&Json>) -> Option<f64> {
    v.and_then(Json::as_f64)
}

fn s(v: Option<&Json>) -> &str {
    v.and_then(Json::as_str).unwrap_or("?")
}

/// Pull the headline metrics out of a parsed bench file, dispatching
/// on its `bench` tag. Unknown tags yield no metrics (forward
/// compatible: a new bench diffs as empty until a rule is added here).
fn extract(doc: &Json) -> Vec<MetricVal> {
    let mut out = Vec::new();
    match s(doc.get("bench")) {
        "run_report" => {
            if let Some(r) = f(doc.get("ablation").and_then(|a| a.get("ratio"))) {
                out.push(m("report:ablation_ratio".into(), r, false));
            }
            for rep in doc.get("reports").and_then(Json::as_arr).unwrap_or(&[]) {
                let engine = s(rep.get("engine"));
                if let Some(v) = f(rep.get("elapsed_secs")) {
                    out.push(m(format!("report:{engine}:elapsed_secs"), v, false));
                }
            }
        }
        "e2e_speed" => {
            for e in doc.get("engines").and_then(Json::as_arr).unwrap_or(&[]) {
                let engine = s(e.get("engine"));
                if let Some(v) = f(e.get("speedup")) {
                    out.push(m(format!("e2e:{engine}:speedup"), v, true));
                }
            }
        }
        "split_prune" => {
            for r in doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
                let workload = s(r.get("workload"));
                let engine = s(r.get("engine"));
                if let Some(v) = f(r.get("wall_ratio")) {
                    out.push(m(
                        format!("prune:{workload}:{engine}:wall_ratio"),
                        v,
                        false,
                    ));
                }
            }
        }
        "cluster_real" => {
            for t in doc
                .get("transports")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                let workers = f(t.get("workers")).unwrap_or(0.0) as u64;
                if let Some(v) = f(t.get("overhead")) {
                    out.push(m(format!("cluster:{workers}w:proc_overhead"), v, false));
                }
            }
            for key in [
                "proc_over_seq",
                "proc_over_simd",
                "lanes_over_simd",
                "result_frames_per_task",
            ] {
                if let Some(v) = f(doc.get("small_task").and_then(|t| t.get(key))) {
                    out.push(m(format!("cluster:small_task:{key}"), v, false));
                }
            }
            for (key, higher_is_better) in
                [("roundtrip_16k_over_64", false), ("row_codec_mbps", true)]
            {
                if let Some(v) = f(doc.get("wire").and_then(|w| w.get(key))) {
                    out.push(m(format!("cluster:wire:{key}"), v, higher_is_better));
                }
            }
        }
        "simd_sweep" => {
            for k in doc.get("kernels").and_then(Json::as_arr).unwrap_or(&[]) {
                let path = s(k.get("path"));
                let lanes = f(k.get("lanes")).unwrap_or(0.0) as u64;
                let kernel = s(k.get("kernel"));
                if let Some(v) = f(k.get("lane_cells_per_sec")) {
                    out.push(m(
                        format!("simd:{path}:x{lanes}:{kernel}:lane_cells_per_sec"),
                        v,
                        true,
                    ));
                }
            }
            for c in doc.get("chain").and_then(Json::as_arr).unwrap_or(&[]) {
                let path = s(c.get("path"));
                let lanes = f(c.get("lanes")).unwrap_or(0.0) as u64;
                let leg = s(c.get("leg"));
                if let Some(v) = f(c.get("useful_cells_per_sec")) {
                    out.push(m(
                        format!("simd:chain:{path}:x{lanes}:{leg}:useful_cells_per_sec"),
                        v,
                        true,
                    ));
                }
            }
            for r in doc.get("row").and_then(Json::as_arr).unwrap_or(&[]) {
                let kernel = s(r.get("kernel"));
                let cols = f(r.get("cols")).unwrap_or(0.0) as u64;
                let masked = match r.get("masked") {
                    Some(Json::Bool(true)) => ":masked",
                    _ => "",
                };
                if let Some(v) = f(r.get("cells_per_sec")) {
                    out.push(m(
                        format!("simd:row:{kernel}:{cols}{masked}:cells_per_sec"),
                        v,
                        true,
                    ));
                }
            }
        }
        _ => {}
    }
    out
}

/// One compared metric: the signed relative change and whether it
/// crossed the regression threshold in its bad direction.
#[derive(Debug, Clone, PartialEq)]
struct DiffRow {
    name: String,
    base: f64,
    fresh: f64,
    /// Relative change in the metric's value, in percent (sign follows
    /// the raw value, not goodness).
    change_pct: f64,
    regressed: bool,
}

/// Match metrics by name and flag regressions beyond `threshold_pct`.
/// A regression is a move in the metric's *bad* direction: up for
/// costs/ratios, down for speedups/throughputs.
fn diff(base: &[MetricVal], fresh: &[MetricVal], threshold_pct: f64) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for b in base {
        let Some(fr) = fresh.iter().find(|f| f.name == b.name) else {
            continue;
        };
        if b.value.abs() < 1e-12 {
            continue; // a zero baseline has no meaningful relative change
        }
        let change_pct = 100.0 * (fr.value - b.value) / b.value;
        let worse_pct = if b.higher_is_better {
            -change_pct
        } else {
            change_pct
        };
        rows.push(DiffRow {
            name: b.name.clone(),
            base: b.value,
            fresh: fr.value,
            change_pct,
            regressed: worse_pct > threshold_pct,
        });
    }
    rows
}

/// Baseline metrics the fresh run does not carry as a finite number.
fn missing(base: &[MetricVal], fresh: &[MetricVal]) -> Vec<String> {
    base.iter()
        .filter(|b| {
            !fresh
                .iter()
                .any(|f| f.name == b.name && f.value.is_finite())
        })
        .map(|b| b.name.clone())
        .collect()
}

/// Whether two runs of a suite are comparable by value: both stamped
/// with the same `host` and the same `scale`. A missing stamp never
/// matches.
fn values_comparable(base: &Json, fresh: &Json) -> bool {
    ["host", "scale"]
        .iter()
        .all(|key| base.get(key).is_some() && base.get(key) == fresh.get(key))
}

fn load(path: &std::path::Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_val = |name: &str| {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].clone())
    };
    let fresh_dir = flag_val("--fresh").unwrap_or_else(|| ".".to_string());
    let base_dir = flag_val("--baseline").unwrap_or_else(|| "results".to_string());
    let threshold: f64 = flag_val("--threshold")
        .map(|t| t.parse().unwrap_or(DEFAULT_THRESHOLD_PCT))
        .unwrap_or(DEFAULT_THRESHOLD_PCT);
    let check = args.iter().any(|a| a == "--check");

    println!(
        "bench_diff: fresh={fresh_dir} baseline={base_dir} \
         threshold={threshold}%{}",
        if check { " (check)" } else { "" }
    );

    let mut regressions = 0usize;
    let mut lost = 0usize;
    let mut compared = 0usize;
    for file in FILES {
        let base_path = std::path::Path::new(&base_dir).join(file);
        let fresh_path = std::path::Path::new(&fresh_dir).join(file);
        let base = match load(&base_path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("warning: no baseline for {file} ({e}); skipping");
                continue;
            }
        };
        let fresh = match load(&fresh_path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("warning: no fresh run of {file} ({e}); skipping");
                continue;
            }
        };
        let (base_metrics, fresh_metrics) = (extract(&base), extract(&fresh));
        let gone = missing(&base_metrics, &fresh_metrics);
        let gated = values_comparable(&base, &fresh);
        let rows = diff(&base_metrics, &fresh_metrics, threshold);
        let scope = if gated {
            ""
        } else {
            " (structure only: host or scale differs)"
        };
        println!("\n{file}{scope}");
        for name in &gone {
            println!("  {name}: MISSING from the fresh run");
        }
        let table = Table::new(&["metric", "baseline", "fresh", "change"]);
        for r in &rows {
            table.row(&[
                r.name.clone(),
                format!("{:.4}", r.base),
                format!("{:.4}", r.fresh),
                format!(
                    "{:+.1}%{}",
                    r.change_pct,
                    if gated && r.regressed {
                        "  REGRESSED"
                    } else {
                        ""
                    }
                ),
            ]);
        }
        compared += rows.len();
        lost += gone.len();
        if gated {
            regressions += rows.iter().filter(|r| r.regressed).count();
        }
    }

    println!("\n{compared} metric(s) compared, {lost} missing, {regressions} regression(s)");
    if check && lost > 0 {
        eprintln!("CHECK FAILED: {lost} baseline metric(s) missing from the fresh run");
        std::process::exit(1);
    }
    if check && regressions > 0 {
        eprintln!(
            "CHECK FAILED: {regressions} metric(s) regressed past \
             {threshold}% — see the rows marked REGRESSED"
        );
        std::process::exit(1);
    }
    if check && compared == 0 {
        eprintln!("CHECK FAILED: nothing was compared (no fresh bench output?)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn extracts_every_known_bench_kind() {
        let report = doc(
            r#"{"bench":"run_report","ablation":{"ratio":0.95},
                "reports":[{"engine":"sequential","elapsed_secs":1.5}]}"#,
        );
        let got = extract(&report);
        assert_eq!(got.len(), 2);
        assert!(!got[0].higher_is_better);
        assert_eq!(got[1].name, "report:sequential:elapsed_secs");

        let e2e = doc(r#"{"bench":"e2e_speed","engines":[{"engine":"threads:2","speedup":2.8}]}"#);
        let got = extract(&e2e);
        assert_eq!(got[0].name, "e2e:threads:2:speedup");
        assert!(got[0].higher_is_better);

        let prune = doc(
            r#"{"bench":"split_prune","rows":[
                {"workload":"sparse_island","engine":"sequential","wall_ratio":0.06}]}"#,
        );
        assert_eq!(
            extract(&prune)[0].name,
            "prune:sparse_island:sequential:wall_ratio"
        );

        let cluster = doc(
            r#"{"bench":"cluster_real","transports":[{"workers":2,"overhead":1.0}],
                "small_task":{"proc_over_seq":1.2,"lanes_over_simd":1.6,
                "result_frames_per_task":0.4},
                "wire":{"roundtrip_16k_over_64":2.1,"row_codec_mbps":2500}}"#,
        );
        let got = extract(&cluster);
        let names: Vec<&str> = got.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cluster:2w:proc_overhead",
                "cluster:small_task:proc_over_seq",
                "cluster:small_task:lanes_over_simd",
                "cluster:small_task:result_frames_per_task",
                "cluster:wire:roundtrip_16k_over_64",
                "cluster:wire:row_codec_mbps"
            ]
        );
        let better: Vec<bool> = got.iter().map(|m| m.higher_is_better).collect();
        assert_eq!(better, [false, false, false, false, false, true]);

        let simd = doc(
            r#"{"bench":"simd_sweep","kernels":[
                {"path":"sse2","lanes":8,"kernel":"profile","lane_cells_per_sec":3.0e9}],
                "chain":[
                {"path":"avx2","lanes":16,"leg":"narrowest","useful_cells_per_sec":4.0e9}]}"#,
        );
        let names: Vec<String> = extract(&simd).into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "simd:sse2:x8:profile:lane_cells_per_sec",
                "simd:chain:avx2:x16:narrowest:useful_cells_per_sec"
            ]
        );

        assert!(extract(&doc(r#"{"bench":"novel"}"#)).is_empty());
    }

    #[test]
    fn diff_is_direction_aware() {
        let base = vec![
            m("cost".into(), 1.0, false),
            m("speed".into(), 1.0, true),
        ];
        // Cost up 20% = regression; speed up 20% = improvement.
        let fresh = vec![
            m("cost".into(), 1.2, false),
            m("speed".into(), 1.2, true),
        ];
        let rows = diff(&base, &fresh, 15.0);
        assert!(rows[0].regressed, "cost +20% must regress");
        assert!(!rows[1].regressed, "speed +20% must not regress");
        // And mirrored: cost down is fine, speed down 20% regresses.
        let fresh = vec![
            m("cost".into(), 0.8, false),
            m("speed".into(), 0.8, true),
        ];
        let rows = diff(&base, &fresh, 15.0);
        assert!(!rows[0].regressed);
        assert!(rows[1].regressed, "speed -20% must regress");
    }

    #[test]
    fn a_baseline_metric_absent_or_non_finite_in_the_fresh_run_is_missing() {
        let base = vec![
            m("kept".into(), 1.0, false),
            m("gone".into(), 1.0, true),
            m("nan".into(), 1.0, false),
        ];
        let fresh = vec![
            m("kept".into(), 9.0, false),
            m("nan".into(), f64::NAN, false),
            m("new".into(), 1.0, false),
        ];
        assert_eq!(missing(&base, &fresh), ["gone", "nan"]);
        // A metric whose JSON value is not a number is absent too.
        let fresh = extract(&doc(r#"{"bench":"run_report","ablation":{"ratio":null}}"#));
        let base = extract(&doc(r#"{"bench":"run_report","ablation":{"ratio":1.1}}"#));
        assert_eq!(missing(&base, &fresh), ["report:ablation_ratio"]);
        let none = missing(&fresh, &base);
        assert!(none.is_empty(), "a new metric is never missing");
    }

    #[test]
    fn values_are_gated_only_on_the_same_host_and_scale() {
        let run = |host: &str, scale: &str| {
            let text = format!(r#"{{"bench":"e2e_speed","host":{host},"scale":"{scale}"}}"#);
            doc(&text)
        };
        let here = r#"{"nproc":2,"dispatch":"avx2x16"}"#;
        let there = r#"{"nproc":8,"dispatch":"avx2x16"}"#;
        let base = run(here, "Medium");
        assert!(values_comparable(&base, &run(here, "Medium")));
        assert!(!values_comparable(&base, &run(there, "Medium")));
        assert!(!values_comparable(&base, &run(here, "Small")));
        // An unstamped baseline (an older file) is structure only.
        let unstamped = doc(r#"{"bench":"e2e_speed","scale":"Medium"}"#);
        assert!(!values_comparable(&unstamped, &unstamped));
    }

    #[test]
    fn diff_respects_the_threshold_and_skips_unmatched() {
        let base = vec![
            m("a".into(), 1.0, false),
            m("gone".into(), 1.0, false),
            m("zero".into(), 0.0, false),
        ];
        let fresh = vec![m("a".into(), 1.10, false), m("new".into(), 5.0, false)];
        let rows = diff(&base, &fresh, 15.0);
        // +10% stays under a 15% threshold; unmatched and zero-baseline
        // metrics are skipped rather than failed.
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].regressed);
        assert!((rows[0].change_pct - 10.0).abs() < 1e-9);
        let rows = diff(&base, &fresh, 5.0);
        assert!(rows[0].regressed, "+10% must regress at a 5% threshold");
    }
}
