//! Files the benchmark writes under `out/`, the every-workload runner
//! that assembles `results.json`, and `compare` for two such files.

use crate::check::{batch_digest, digest_hex, tops_digest};
use crate::layers::{Value, LAYER_METRICS};
use crate::run::{RunRecord, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use repro::obs::json::{num, obj, str, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Version of the `results.json` layout.
pub const RESULTS_SCHEMA: u64 = 1;

/// This package's directory: everything the benchmark writes goes under
/// its `out/`.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn run_file(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "run-{workload}-{}.json",
        if traced { "traced" } else { "timed" }
    ))
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    let dir = path.parent().expect("output files live in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, value.to_string_compact() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write a run's full record (and, for a traced run, its spans as
/// Chrome trace JSON) under `out/`.
pub fn write_run_files(record: &RunRecord) -> Result<(), String> {
    let name = record.opts.workload.name;
    write_json(&run_file(name, record.opts.trace), &record.to_json())?;
    if record.opts.trace {
        write_json(
            &out_dir().join(format!("trace-{name}.json")),
            &record.spans.to_chrome_trace(),
        )?;
    }
    Ok(())
}

/// Print every metric of a run by name, with its unit.
pub fn print_run(record: &RunRecord) {
    let o = &record.opts;
    println!(
        "{} seed {} ({} residues, longest sequence {}, {} tops each): {} reps in {} s, {} outputs checked, {} failed",
        o.workload.name,
        o.seed,
        record.residues,
        record.longest,
        o.workload.tops,
        record.wall_s.len(),
        o.seconds,
        record.attempted,
        record.failed
    );
    for failure in &record.failures {
        println!("  FAILED {failure}");
    }
    if o.trace {
        for (def, (_, value)) in LAYER_METRICS.iter().zip(&record.layers) {
            match value {
                Value::Num(v) => {
                    println!("  {:<32} {v:>16.6} {}", def.name, def.unit)
                }
                Value::Missing => {
                    println!("  {:<32} {:>16} (source absent)", def.name, "missing")
                }
                Value::NotApplicable => println!("  {:<32} {:>16}", def.name, "n/a"),
            }
        }
    } else {
        for (&(name, unit, _), value) in END_TO_END.iter().zip(record.end_to_end()) {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        println!(
            "  {:<32} {:>16.6} ratio",
            "fail_frac",
            record.failed as f64 / record.attempted.max(1) as f64
        );
    }
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// The `results.json` document around the per-run records.
pub fn results_json(seed: u64, seconds: f64, smoke: bool, runs: Vec<Json>) -> Json {
    obj(vec![
        ("schema", num(RESULTS_SCHEMA as f64)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("git_rev", str(&git_rev())),
        ("host", crate::sys::host()),
        ("runs", Json::Arr(runs)),
    ])
}

/// Run every workload, each in a child process of its own so that peak
/// memory is per workload, and assemble `out/results.json`. Returns
/// whether every output of every workload was correct.
pub fn run_all(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            all_correct &= status.success();
            runs.push(read_json(&run_file(w.name, trace))?);
        }
    }
    let results = results_json(seed, seconds, smoke, runs);
    let path = out_dir().join("results.json");
    write_json(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Record `golden.json`: the seed-1 tops digest of every workload from
/// the plain sequential engine (no pruning, no checkpoints, no SIMD).
pub fn record_golden() -> Result<(), String> {
    let digests = WORKLOADS
        .iter()
        .map(|w| {
            let golden = w.golden();
            let per_sequence = w
                .inputs(1, false)
                .iter()
                .map(|seq| golden.try_run(seq).map(|a| tops_digest(&a.tops.alignments)))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("{}: {e}", w.name))?;
            let digest = digest_hex(batch_digest(&per_sequence));
            println!("{:<24} {digest}", w.name);
            Ok((w.name.to_string(), str(&digest)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let golden = obj(vec![("seed", num(1.0)), ("digests", Json::Obj(digests))]);
    write_json(&bench_dir().join("golden.json"), &golden)
}

fn run_of<'a>(results: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    results.get("runs")?.as_arr()?.iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("traced") == Some(&Json::Bool(traced))
    })
}

/// Raw samples behind an end-to-end metric of a run: the reps for the
/// timings, the single reading for peak memory.
fn samples_of(run: &Json, metric: &str) -> Option<Vec<f64>> {
    match run.get("samples")?.get(metric) {
        Some(arr) => arr.as_arr()?.iter().map(Json::as_f64).collect(),
        None => Some(vec![run
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()?]),
    }
}

fn show(value: Option<&Json>) -> String {
    value.map_or_else(|| "absent".to_string(), Json::to_string_compact)
}

/// Compare two `results.json` files. `Ok(true)` when every workload ×
/// end-to-end metric agrees within the metric's bound and every count
/// flagged exact is identical; `Err` when the files are not comparable.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for (path, results) in [(a_path, &a), (b_path, &b)] {
        if results.get("schema").and_then(Json::as_u64) != Some(RESULTS_SCHEMA) {
            return Err(format!(
                "{}: not a schema-{RESULTS_SCHEMA} results file",
                path.display()
            ));
        }
        if results.get("smoke") != Some(&Json::Bool(false)) {
            return Err(format!(
                "{}: smoke results are not comparable",
                path.display()
            ));
        }
    }
    if a.get("host") != b.get("host") {
        return Err(format!(
            "host blocks differ, results are not comparable:\n  {}\n  {}",
            show(a.get("host")),
            show(b.get("host"))
        ));
    }

    let quart = |v: &[f64]| {
        quartiles(v).map_or_else(|| "-".to_string(), |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
    };
    let mut agree = true;
    println!(
        "{:<22} {:<12} {:>10} {:>19} {:>10} {:>19} {:>8} {:>6}",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "B vs A",
        "bound"
    );
    for w in &WORKLOADS {
        let (Some(run_a), Some(run_b)) = (run_of(&a, w.name, false), run_of(&b, w.name, false))
        else {
            return Err(format!("{}: missing from one of the files", w.name));
        };
        for &(metric, _, bound) in &END_TO_END {
            let (Some(sa), Some(sb)) = (samples_of(run_a, metric), samples_of(run_b, metric))
            else {
                return Err(format!("{} {metric}: no samples", w.name));
            };
            let (ma, mb) = (median(&sa), median(&sb));
            let diff = (mb - ma) / ma;
            let verdict = match diff {
                d if d > bound => "WORSE",
                d if d < -bound => "BETTER",
                _ => "",
            };
            agree &= verdict.is_empty();
            println!(
                "{:<22} {metric:<12} {ma:>10.4} {:>19} {mb:>10.4} {:>19} {:>+7.1}% {:>5.0}% {verdict}",
                w.name,
                quart(&sa),
                quart(&sb),
                diff * 100.0,
                bound * 100.0
            );
        }
        for (run, path) in [(run_a, a_path), (run_b, b_path)] {
            if run.get("failed").and_then(Json::as_u64) != Some(0) {
                println!("{:<22} FAILED outputs in {}", w.name, path.display());
                agree = false;
            }
        }
        // Counts flagged exact must not move at all between two runs of
        // one commit; between commits a move is the finding.
        if let (Some(ta), Some(tb)) = (run_of(&a, w.name, true), run_of(&b, w.name, true)) {
            let layers_a = ta.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
            for (name, entry) in layers_a {
                if entry.get("exact") != Some(&Json::Bool(true)) {
                    continue;
                }
                let was = entry.get("value");
                let now = tb.get("per_layer").and_then(|l| l.get(name)?.get("value"));
                if was != now {
                    println!(
                        "{:<22} {name}: exact count moved, {} -> {}",
                        w.name,
                        show(was),
                        show(now)
                    );
                    agree = false;
                }
            }
        }
    }
    Ok(agree)
}
