//! **Run reports** — structured per-engine `RunReport`s plus the
//! zero-overhead ablation for the flight recorder.
//!
//! Three modes:
//!
//! * default: run every engine on a titin-like workload, attach the
//!   sequential baseline to each report (filling
//!   `claims.extra_alignment_overhead`), and write
//!   `BENCH_report.json` — the checked-in copy lives under `results/`.
//!   The key paper claim surfaced by each report is
//!   `claims.realignments_avoided`: the fraction of best-first pops
//!   served from a still-fresh bound (§3 of the paper claims 90–97%
//!   on real proteins).
//! * `--check`: additionally exit non-zero if the flight recorder's
//!   measured overhead over the `NoopRecorder` path exceeds the
//!   ablation threshold (the recorder now carries the full histogram
//!   set, so this is the histograms-enabled gate), if any claim leaves
//!   its band, if any engine's schema-v4 report is missing its latency
//!   histograms, or if the sim and proc transports disagree on the
//!   merged cluster-wide work counters. This is the CI gate proving
//!   the instrumentation stays out of the hot loop *and* stays
//!   truthful over real sockets.
//! * `--validate FILE`: parse a report file — either this binary's
//!   output or the CLI's `--report` output (`{"reports":[…]}`) — and
//!   structurally validate every embedded report
//!   ([`RunReport::validate`]); exit non-zero on the first problem.
//!
//! Usage: `cargo run --release -p repro-bench --bin run_report --
//! [--scale small|medium|full] [--out BENCH_report.json] [--check] |
//! [--validate FILE]`.

use repro::core::{FinderConfig, Search, TopAlignmentFinder};
use repro::obs::json::Json;
use repro::obs::{FlightRecorder, NoopRecorder, DEFAULT_EVENT_CAP};
use repro::{Engine, Repro, RunReport, Scoring, SeedConfig, Transport};
use repro_bench::{host, secs, time_min, Scale, Table};
use std::time::Duration;

/// Flight recorder wall-time budget relative to the `NoopRecorder`
/// path, enforced under `--check`. The recorder adds two `Instant`
/// reads per phase transition and one add per counter bump — far off
/// the per-cell hot loop — so even 1.25× is generous; the headroom is
/// for noisy CI machines.
const ABLATION_THRESHOLD: f64 = 1.25;

/// Band for the *seeded* sequential run's `realignments_avoided`.
/// Pruning removes the easy-reject splits from the denominator
/// ([`repro::Stats::realignment_fraction_effective`]), so the honest
/// fraction reads below the paper's unpruned 90–97 % band — and the
/// better the bounds prune, the further below, because the denominator
/// shrinks with every split pruned while each survivor's (late) first
/// pass stays in the numerator. The two ends are therefore held on two
/// readings of the same run:
///
/// * the **ceiling** on the report's prune-aware fraction — the claim a
///   plain denominator would silently inflate past 97 %;
/// * the **floor** on the fraction of the naive `rounds × splits`
///   budget avoided, whose denominator does not depend on how many
///   splits were pruned (better pruning can only raise it) — next to
///   an absolute count: the seeded run may not make more score-only
///   alignments than the unseeded baseline (its
///   `extra_alignment_overhead` must not be positive).
const SEEDED_AVOIDED_BAND: std::ops::RangeInclusive<f64> = 0.85..=0.97;

fn validate_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let reports = doc
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"reports\" array"))?;
    if reports.is_empty() {
        return Err(format!("{path}: \"reports\" is empty"));
    }
    for (i, report) in reports.iter().enumerate() {
        RunReport::validate(report).map_err(|e| format!("{path}: reports[{i}]: {e}"))?;
    }
    Ok(reports.len())
}

/// Time the sequential core finder with the noop recorder vs the full
/// flight recorder; returns `(noop_secs, flight_secs)`.
fn ablation(seq: &repro::Seq, scoring: &Scoring, count: usize) -> (f64, f64) {
    let budget = Duration::from_millis(400);
    let finder = || TopAlignmentFinder::new(seq, scoring, FinderConfig::new(Search::new(count)));
    let noop = time_min(budget, || {
        std::hint::black_box(finder().run_recorded(&mut NoopRecorder));
    });
    let flight = time_min(budget, || {
        let mut rec = FlightRecorder::with_events(DEFAULT_EVENT_CAP);
        std::hint::black_box(finder().run_recorded(&mut rec));
    });
    (noop, flight)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let path = match args.get(pos + 1) {
            Some(p) => p,
            None => {
                eprintln!("--validate needs a file");
                std::process::exit(2);
            }
        };
        match validate_file(path) {
            Ok(n) => println!("{path}: {n} report(s), all valid"),
            Err(e) => {
                eprintln!("run_report: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_report.json".to_string());

    let scale = Scale::from_args();
    // `medium` is calibrated so `realignments_avoided` sits inside the
    // paper's 90–97% band (tops=50 pushes past 97% on this generator).
    let (len, tops) = match scale {
        Scale::Small => (400, 10),
        Scale::Medium => (1200, 10),
        Scale::Full => (2400, 25),
    };
    let scoring = Scoring::protein_default();
    let seq = repro_seqgen::titin_like(len, 1);

    let engines: Vec<Engine> = vec![
        Engine::Sequential,
        Engine::SimdDispatch {
            width: None,
            path: None,
        },
        Engine::SimdThreads {
            threads: 2,
            width: None,
            path: None,
        },
        Engine::Threads(2),
        Engine::Cluster { workers: 2 },
    ];

    println!(
        "Run reports — titin-like {len} aa, {tops} top alignments \
         (claims.realignments_avoided band: 0.90..=0.97)\n"
    );
    let table = Table::new(&["engine", "elapsed", "avoided", "overhead", "events"]);

    let mut baseline: Option<RunReport> = None;
    let mut reports: Vec<Json> = Vec::new();
    let mut claims_ok = true;
    let mut hist_rows: Vec<(String, Vec<repro::HistogramSummary>)> = Vec::new();
    for engine in engines {
        let analysis = Repro::new(scoring.clone())
            .top_alignments(tops)
            .engine(engine)
            .trace(true)
            .try_run(&seq)
            .unwrap_or_else(|e| panic!("{engine:?} failed: {e}"));
        let mut run = analysis.run;
        if let Some(base) = &baseline {
            run.set_baseline(base);
        }
        let avoided = run.claims.realignments_avoided;
        // The SIMD engines realign whole lane groups, so their
        // per-lane fraction trails the sequential engine; the band is
        // asserted on the sequential report only.
        if engine == Engine::Sequential && !(0.90..=0.97).contains(&avoided) {
            claims_ok = false;
        }
        table.row(&[
            run.engine.clone(),
            secs(run.elapsed_secs),
            format!("{:.1}%", 100.0 * avoided),
            match run.claims.extra_alignment_overhead {
                Some(o) => format!("{:+.1}%", 100.0 * o),
                None => "(baseline)".to_string(),
            },
            analysis.events.len().to_string(),
        ]);
        hist_rows.push((run.engine.clone(), run.histograms.clone()));
        reports.push(run.to_json());
        if baseline.is_none() {
            baseline = Some(run);
        }
    }

    // One seeded sequential run rides along: with split pruning on, the
    // report's `realignment_fraction` switches to the prune-aware
    // denominator (pruned splits never entered the realignment budget),
    // so the paper's 90–97 % band must still hold — a claim the plain
    // denominator would silently inflate past 97 %.
    {
        let analysis = Repro::new(scoring.clone())
            .top_alignments(tops)
            .seed_config(Some(SeedConfig::default()))
            .run(&seq);
        let mut run = analysis.run;
        run.engine = "sequential-seeded".to_string();
        if let Some(base) = &baseline {
            run.set_baseline(base);
        }
        let avoided = run.claims.realignments_avoided;
        let avoided_of_naive = 1.0 - analysis.tops.stats.realignment_fraction(seq.len() - 1);
        if avoided > *SEEDED_AVOIDED_BAND.end()
            || avoided_of_naive < *SEEDED_AVOIDED_BAND.start()
            || run.claims.extra_alignment_overhead.is_some_and(|o| o > 0.0)
        {
            claims_ok = false;
        }
        table.row(&[
            run.engine.clone(),
            secs(run.elapsed_secs),
            format!("{:.1}%", 100.0 * avoided),
            match run.claims.extra_alignment_overhead {
                Some(o) => format!("{:+.1}%", 100.0 * o),
                None => "(baseline)".to_string(),
            },
            format!(
                "pruned {}, {:.1}% of naive budget avoided",
                run.stats.splits_pruned,
                100.0 * avoided_of_naive
            ),
        ]);
        reports.push(run.to_json());
    }

    // Per-engine latency distributions (schema v4's `histograms`
    // block): the nanosecond quantiles behind every wall-clock claim.
    println!("\nlatency histograms (p50/p99 ns; count in parens)");
    let hist_table = Table::new(&["engine", "sweep", "task_rtt", "queue_wait"]);
    let mut hists_ok = true;
    for (engine, hists) in &hist_rows {
        let cell = |name: &str| -> String {
            match hists.iter().find(|h| h.metric == name) {
                Some(h) if h.count > 0 => format!("{}/{} ({})", h.p50, h.p99, h.count),
                _ => "-".to_string(),
            }
        };
        hist_table.row(&[
            engine.clone(),
            cell("sweep_ns"),
            cell("task_round_trip_ns"),
            cell("queue_wait_ns"),
        ]);
        let count_of = |name: &str| {
            hists
                .iter()
                .find(|h| h.metric == name)
                .map_or(0, |h| h.count)
        };
        // Every engine sweeps; the task-queue engines must also show
        // round trips — a zero count means the telemetry path silently
        // dropped the worker-side recorder again.
        if count_of("sweep_ns") == 0 {
            eprintln!("histograms: {engine} recorded no sweep durations");
            hists_ok = false;
        }
        let has_tasks = engine.contains("threads") || engine.contains("cluster");
        if has_tasks && count_of("task_round_trip_ns") == 0 {
            eprintln!("histograms: {engine} recorded no task round trips");
            hists_ok = false;
        }
    }

    // Transport truthfulness: the cluster-wide merged counters must be
    // bit-equal between the simulator and real sockets on the same
    // deterministic single-worker schedule, and a worker-side counter
    // only telemetry carries — the workers' group sweeps — must actually
    // survive the trip (0 == 0 proves nothing).
    let transport_ok = {
        let tseq = repro_seqgen::titin_like(300, 7);
        let base = Repro::new(scoring.clone())
            .top_alignments(6)
            .checkpoint_budget(Some(repro::align::checkpoint::DEFAULT_CHECKPOINT_BUDGET))
            .engine(Engine::Cluster { workers: 1 });
        let sim = base.clone().run(&tseq);
        let proc = base.transport(Transport::Proc).run(&tseq);
        let group_sweeps = |a: &repro::Analysis| {
            let found = a.run.counters.iter().find(|c| c.0 == "group_sweeps");
            found.map_or(0, |c| c.1)
        };
        let pairs = [
            (
                "alignments",
                sim.run.stats.alignments,
                proc.run.stats.alignments,
            ),
            ("cells", sim.run.stats.cells, proc.run.stats.cells),
            (
                "checkpoint_hits",
                sim.run.stats.checkpoint_hits,
                proc.run.stats.checkpoint_hits,
            ),
            ("group_sweeps", group_sweeps(&sim), group_sweeps(&proc)),
        ];
        let mut ok = sim.tops.alignments == proc.tops.alignments;
        for (name, s, p) in pairs {
            if s != p {
                eprintln!("transport: {name} diverged (sim {s}, proc {p})");
                ok = false;
            }
        }
        if group_sweeps(&sim) == 0 {
            eprintln!("transport: group_sweeps is 0 — worker telemetry went missing");
            ok = false;
        }
        println!(
            "\ntransport: sim vs proc merged counters {} \
             (group_sweeps {} on both)",
            if ok { "bit-equal" } else { "DIVERGED" },
            group_sweeps(&sim),
        );
        ok
    };

    let (noop, flight) = ablation(&seq, &scoring, tops.min(10));
    let ratio = flight / noop.max(1e-12);
    println!(
        "\nablation: NoopRecorder {} vs FlightRecorder {}  ({ratio:.3}x, \
         threshold {ABLATION_THRESHOLD}x)",
        secs(noop),
        secs(flight),
    );

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("run_report".to_string())),
        ("scale".to_string(), Json::Str(format!("{scale:?}"))),
        ("host".to_string(), host()),
        (
            "sequence".to_string(),
            Json::Obj(vec![
                ("kind".to_string(), Json::Str("titin_like".to_string())),
                ("residues".to_string(), Json::Num(len as f64)),
                ("tops".to_string(), Json::Num(tops as f64)),
            ]),
        ),
        (
            "ablation".to_string(),
            Json::Obj(vec![
                ("noop_secs".to_string(), Json::Num(noop)),
                ("flight_secs".to_string(), Json::Num(flight)),
                ("ratio".to_string(), Json::Num(ratio)),
                ("threshold".to_string(), Json::Num(ABLATION_THRESHOLD)),
            ]),
        ),
        ("reports".to_string(), Json::Arr(reports)),
    ]);
    let mut text = doc.to_string_compact();
    text.push('\n');
    std::fs::write(&out, text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");

    if check {
        let mut failed = false;
        if ratio > ABLATION_THRESHOLD {
            eprintln!(
                "CHECK FAILED: flight recorder overhead {ratio:.3}x exceeds \
                 {ABLATION_THRESHOLD}x — instrumentation leaked into the hot loop"
            );
            failed = true;
        }
        if !claims_ok {
            eprintln!(
                "CHECK FAILED: sequential realignments_avoided left the paper's \
                 0.90..=0.97 band, or the seeded run left SEEDED_AVOIDED_BAND \
                 (prune-aware ceiling, naive-budget floor, no more alignments than unseeded)"
            );
            failed = true;
        }
        if !hists_ok {
            eprintln!(
                "CHECK FAILED: an engine's schema-v4 report is missing its \
                 latency histograms (see above)"
            );
            failed = true;
        }
        if !transport_ok {
            eprintln!(
                "CHECK FAILED: sim and proc transports disagree on the merged \
                 cluster-wide counters (see above)"
            );
            failed = true;
        }
        if let Err(e) = validate_file(&out) {
            eprintln!("CHECK FAILED: {e}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check: ablation + claims + histograms + transport + schema all \
             within bounds"
        );
    }
}
