//! Self-tests of the benchmark as a whole: the smoke pass, the
//! `results.json` round trip, `compare`, and the checks that the three
//! descriptions of the benchmark (`BENCHMARK.json`, the tables in the
//! source, the root manifest's release profile) say the same thing.

use repro::obs::json::Json;
use repro_benchmark::layers::{Value, LAYER_METRICS};
use repro_benchmark::results::{bench_dir, compare, results_json};
use repro_benchmark::run::{run_workload, RunOpts, DEFAULT_SECONDS, END_TO_END};
use repro_benchmark::workloads::{EngineKind, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn smoke(workload: &'static Workload, trace: bool) -> RunOpts {
    RunOpts {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn smoke_pass_runs_every_workload_through_the_command() {
    // The only test that runs the binary, so the only writer of `out/`.
    let start = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_repro-benchmark"))
        .args(["--smoke", "--seconds", "0", "--seed", "3", "--trace", "1"])
        .status()
        .expect("the benchmark binary runs");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(status.success(), "smoke pass failed: {status}");
    // Unoptimised engines are some 25 times slower; the time limit is a
    // statement about the build that is measured.
    if !cfg!(debug_assertions) {
        assert!(elapsed < 10.0, "smoke pass took {elapsed:.1} s");
    }

    let out = bench_dir().join("out");
    let results = Json::parse(&read(&out.join("results.json"))).expect("results.json parses");
    assert_eq!(
        keys(&results),
        ["schema", "seed", "seconds", "smoke", "git_rev", "host", "runs"]
    );
    assert_eq!(results.get("smoke"), Some(&Json::Bool(true)));
    let runs = results.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    for run in runs {
        assert!(run.get("longest").and_then(Json::as_u64).unwrap() <= 300);
        assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0));
        let reps = run.get("reps").and_then(Json::as_u64).unwrap() as usize;
        for metric in ["wall_s", "cpu_s"] {
            let raw = run
                .get("samples")
                .and_then(|s| s.get(metric))
                .and_then(Json::as_arr)
                .unwrap();
            assert_eq!(raw.len(), reps, "every raw {metric} sample is kept");
        }
    }
    for w in &WORKLOADS {
        let trace = Json::parse(&read(&out.join(format!("trace-{}.json", w.name)))).unwrap();
        let names: Vec<_> = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for want in [
            "setup",
            "setup.generate",
            "setup.oracle",
            "warmup",
            "rep",
            "probe.align.gotoh",
        ] {
            assert!(
                names.contains(&want),
                "{}: no {want} span in {names:?}",
                w.name
            );
        }
    }

    // Smoke results are refused by `compare`, with the usage exit code.
    let results_path = out.join("results.json");
    let status = Command::new(env!("CARGO_BIN_EXE_repro-benchmark"))
        .arg("compare")
        .args([&results_path, &results_path])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn dense_workloads_share_a_digest_and_the_driver_line_has_exactly_the_contract_keys() {
    let simd = run_workload(smoke(
        Workload::by_name("protein_dense_simd").unwrap(),
        false,
    ));
    let smp = run_workload(smoke(
        Workload::by_name("protein_dense_smp").unwrap(),
        false,
    ));
    assert!(
        simd.correct() && smp.correct(),
        "{:?} {:?}",
        simd.failures,
        smp.failures
    );
    assert_eq!(simd.digest, smp.digest);

    let line = simd.driver_line();
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").unwrap();
    assert_eq!(keys(metrics), END_TO_END.map(|(name, _, _)| name));
    for (name, unit, _) in END_TO_END {
        let m = metrics.get(name).unwrap();
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{name} must never be 0"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_metric_or_names_it_missing() {
    let record = run_workload(smoke(
        Workload::by_name("dna_tandem_cluster").unwrap(),
        true,
    ));
    assert!(record.correct(), "{:?}", record.failures);
    let names: Vec<_> = record.layers.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        LAYER_METRICS.iter().map(|def| def.name).collect::<Vec<_>>()
    );
    let line = record.driver_line();
    assert_eq!(keys(line.get("metrics").unwrap()), names);

    let get = |name: &str| record.layers.iter().find(|(n, _)| *n == name).unwrap().1;
    // The cluster layer ran, the SMP layer did not.
    assert!(matches!(get("cluster.batches"), Value::Num(b) if b > 0.0));
    assert_eq!(get("parallel.task_claims"), Value::NotApplicable);
    assert!(matches!(get("obs.trace_overhead"), Value::Num(r) if r > 0.0));
    assert!(matches!(get("xmpi.socket_roundtrip_us"), Value::Num(us) if us > 0.0));

    let json = record.to_json();
    let listed = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().len();
    let with_value = json.get("per_layer").and_then(Json::as_obj).unwrap().len();
    assert_eq!(
        with_value + listed("missing") + listed("not_applicable"),
        LAYER_METRICS.len()
    );
}

#[test]
fn a_renamed_report_key_is_reported_missing_not_zero() {
    use repro_benchmark::layers::{derive, RunContext, TracedJob};
    use repro_benchmark::probes::ProbeResults;
    let w = Workload::by_name("dna_loose_seq").unwrap();
    let seq = &w.inputs(3, true)[0];
    let report = w.measured().run(seq).run.to_json();
    let renamed = Json::parse(
        &report
            .to_string_compact()
            .replace("\"stale_pops\"", "\"stale_pops_v2\""),
    )
    .unwrap();
    let probes = ProbeResults::default();
    let ctx = RunContext {
        engine: EngineKind::Sequential,
        workers: 1,
        untraced_wall_s: &[1.0],
        reference: None,
        probes: &probes,
    };
    let job = TracedJob {
        report: renamed,
        seq_len: seq.len(),
        wall_s: 1.0,
        cpu_s: 1.0,
    };
    let layers = derive(&[vec![job]], &ctx);
    let get = |name: &str| layers.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(get("core.stale_pops"), Value::Missing);
    assert!(matches!(get("core.fresh_pops"), Value::Num(_)));
    // No probe ran: missing, not 0.
    assert_eq!(get("align.gotoh_mcups"), Value::Missing);
}

fn write_results(name: &str, results: &Json) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, results.to_string_compact()).unwrap();
    path
}

#[test]
fn results_round_trip_and_compare_verdicts() {
    let runs: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| run_workload(smoke(w, false)).to_json())
        .collect();
    // Smoke results exist to be refused; flip the flag to test the rest.
    let results = results_json(3, 0.0, false, runs);
    let text = results.to_string_compact();
    assert_eq!(
        Json::parse(&text).unwrap(),
        results,
        "results.json survives a round trip"
    );
    for run in results.get("runs").and_then(Json::as_arr).unwrap() {
        for key in [
            "workload",
            "seed",
            "reps",
            "fail_frac",
            "digest",
            "end_to_end",
            "samples",
        ] {
            assert!(run.get(key).is_some(), "run record lacks {key}");
        }
    }

    let same = write_results("same.json", &results);
    assert_eq!(compare(&same, &same), Ok(true));

    // Ten times the wall time on every rep: far outside any bound.
    let slower =
        Json::parse(&text.replace("\"wall_s\":[", "\"wall_s\":[1e3,1e3,1e3,1e3,")).unwrap();
    let slower = write_results("slower.json", &slower);
    assert_eq!(compare(&same, &slower), Ok(false));
    assert_eq!(
        compare(&slower, &same),
        Ok(false),
        "a difference either way is a disagreement"
    );

    let other_host = Json::parse(&text.replace("\"nproc\":", "\"nproc\":1")).unwrap();
    let other_host = write_results("other_host.json", &other_host);
    assert!(compare(&same, &other_host).unwrap_err().contains("host"));

    let smoke = write_results("smoke.json", &results_json(3, 0.0, true, Vec::new()));
    assert!(compare(&same, &smoke).unwrap_err().contains("smoke"));
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let ours = release_profile(&read(&bench_dir().join("Cargo.toml")));
    let root = release_profile(&read(&bench_dir().join("../Cargo.toml")));
    assert!(
        !root.is_empty(),
        "root manifest has a [profile.release] table"
    );
    assert_eq!(
        ours, root,
        "the measured codegen must be the shipped codegen"
    );
}

#[test]
fn benchmark_json_matches_the_tables_in_the_source() {
    let spec =
        Json::parse(&read(&bench_dir().join("../BENCHMARK.json"))).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
    assert_eq!(
        spec.get("paths"),
        Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
    );
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );

    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(text(listed, "name"), w.name);
        assert_eq!(text(listed, "why"), w.why);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one line of at most 200",
            w.name
        );
    }

    let end_to_end = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(keys(listed), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (text(listed, "name"), text(listed, "unit")),
            (name.to_string(), unit.to_string())
        );
        assert_eq!(text(listed, "better"), "lower");
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(bound));
        assert!(bound <= 0.25);
    }

    let per_layer = spec.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), LAYER_METRICS.len());
    for (listed, def) in per_layer.iter().zip(&LAYER_METRICS) {
        assert_eq!(keys(listed), ["name", "unit", "better"]);
        assert_eq!(text(listed, "name"), def.name);
        assert_eq!(text(listed, "unit"), def.unit);
        assert_eq!(text(listed, "better"), def.better);
        assert!(def.unit.len() <= 16 && def.name.len() <= 64);
    }
}
