//! One workload, one process: set up, measure for the requested time,
//! check every output, and (when tracing) derive the per-layer numbers.

use crate::check::{batch_digest, check_tops, digest_hex, tops_digest};
use crate::layers::{self, RunContext, TracedJob, Value, LAYER_METRICS};
use crate::probes::run_probes;
use crate::spans::Spans;
use crate::stats::median;
use crate::sys::{cpu_seconds, peak_rss_mib};
use crate::workloads::{EngineKind, Workload};
use repro::obs::json::{num, obj, str, Json};
use repro::{Analysis, Repro, ReproError, Scoring, Seq};
use std::time::Instant;

/// Seconds of timed reps per run; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest reps of each kind a run measures, however short `--seconds`.
pub const MIN_REPS: usize = 3;
/// Failure messages kept per run (the count is never capped).
const MAX_FAILURE_MESSAGES: usize = 8;

/// The end-to-end metrics: name, unit, and the share of the parent's
/// median by which it may get worse. All are lower-is-better.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
    ("setup_s", "s", 0.25),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: f64,
    /// Record spans, alternate traced and untraced reps, run the probes
    /// and derive the per-layer metrics.
    pub trace: bool,
    /// Shrink the inputs for the self-test.
    pub smoke: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunRecord {
    /// What was run.
    pub opts: RunOpts,
    /// Sequences in the generated batch.
    pub sequences: usize,
    /// Residues in the generated batch.
    pub residues: usize,
    /// Length of the batch's longest sequence.
    pub longest: usize,
    /// Program runs whose output was checked.
    pub attempted: u64,
    /// Of those, how many returned `Err` or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest of the oracle's top alignments over the whole batch.
    pub digest: u64,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced rep (one pass over the batch).
    pub wall_s: Vec<f64>,
    /// CPU seconds (all threads) of each untraced rep.
    pub cpu_s: Vec<f64>,
    /// Wall seconds of each traced rep (traced runs only).
    pub traced_wall_s: Vec<f64>,
    /// `VmHWM` when the run ended.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, Value)>,
    /// The benchmark's spans (traced runs only).
    pub spans: Spans,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }
}

/// The batch and what its outputs are checked against.
struct Prepared {
    seqs: Vec<Seq>,
    scoring: Scoring,
    /// The oracle's tops digest for each sequence.
    oracle_digests: Vec<u64>,
}

impl Prepared {
    /// A measured run is correct when it succeeds, is structurally
    /// sound, and found exactly the oracle's alignments.
    fn check(
        &self,
        job: usize,
        tops: usize,
        result: &Result<Analysis, ReproError>,
    ) -> Result<(), String> {
        let analysis = result.as_ref().map_err(|e| format!("engine error: {e}"))?;
        let found = &analysis.tops.alignments;
        check_tops(&self.seqs[job], &self.scoring, tops, found)?;
        let (digest, oracle) = (tops_digest(found), self.oracle_digests[job]);
        if digest != oracle {
            return Err(format!(
                "tops digest {} differs from the oracle's {}",
                digest_hex(digest),
                digest_hex(oracle)
            ));
        }
        Ok(())
    }
}

/// Seed-1 batch digest of `workload` recorded in `golden.json`, if any.
fn golden_digest(workload: &str) -> Option<u64> {
    let golden = Json::parse(include_str!("../golden.json")).expect("golden.json parses");
    let hex = golden.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// One set-up: generate the batch, run the oracle on every sequence,
/// warm the measured engine up on every sequence. Everything a user
/// pays before the first timed rep.
fn set_up(opts: &RunOpts, spans: &mut Spans, tally: &mut Tally) -> Prepared {
    let w = opts.workload;
    spans.scope("setup", |spans| {
        let seqs = spans.scope("setup.generate", |_| w.inputs(opts.seed, opts.smoke));
        let scoring = w.scoring();
        let oracle = w.oracle();
        let oracle_digests: Vec<u64> = spans.scope("setup.oracle", |_| {
            seqs.iter()
                .map(|seq| {
                    let result = oracle.try_run(seq);
                    let tops = result.as_ref().map_or(&[][..], |a| &a.tops.alignments);
                    let sound = match &result {
                        Err(e) => Err(format!("engine error: {e}")),
                        Ok(_) => check_tops(seq, &scoring, w.tops, tops),
                    };
                    tally.record("oracle", sound);
                    tops_digest(tops)
                })
                .collect()
        });
        // At the recorded seed the oracle must also agree with the plain
        // sequential engine's digest, so a bug shared by every SIMD path
        // cannot pass.
        if let (1, false, Some(golden)) = (opts.seed, opts.smoke, golden_digest(w.name)) {
            let digest = batch_digest(&oracle_digests);
            let agrees = (digest == golden).then_some(()).ok_or_else(|| {
                format!(
                    "batch digest {} differs from golden.json's {}",
                    digest_hex(digest),
                    digest_hex(golden)
                )
            });
            tally.record("oracle vs golden", agrees);
        }
        let prepared = Prepared {
            seqs,
            scoring,
            oracle_digests,
        };
        let measured = w.measured();
        spans.scope("warmup", |_| {
            for (job, seq) in prepared.seqs.iter().enumerate() {
                let result = measured.try_run(seq);
                tally.record("warm-up", prepared.check(job, w.tops, &result));
            }
        });
        prepared
    })
}

/// One pass over the batch: wall and CPU seconds of each `try_run`
/// (checking happens between the timers), and each result.
fn timed_pass(
    run: &Repro,
    prepared: &Prepared,
    what: &str,
    tops: usize,
    tally: &mut Tally,
) -> Vec<(f64, f64, Option<Analysis>)> {
    prepared
        .seqs
        .iter()
        .enumerate()
        .map(|(job, seq)| {
            let cpu0 = cpu_seconds();
            let t = Instant::now();
            let result = run.try_run(seq);
            let wall = t.elapsed().as_secs_f64();
            let cpu = cpu_seconds() - cpu0;
            tally.record(what, prepared.check(job, tops, &result));
            (wall, cpu, result.ok())
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum RepKind {
    Untraced,
    Traced,
    /// The SMP workload's single-thread reference (traced runs only).
    Reference,
}

/// Run one workload in this process.
pub fn run_workload(opts: RunOpts) -> RunRecord {
    let w = opts.workload;
    let mut spans = Spans::new(opts.trace);
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(set_up(&opts, &mut spans, &mut tally));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPS is at least one");

    // Closed loop, one job at a time. A traced run interleaves its rep
    // kinds so drift in the host hits all of them alike.
    let measured = w.measured();
    let reference = w.single_thread_reference();
    let kinds: &[RepKind] = match (opts.trace, w.engine) {
        (false, _) => &[RepKind::Untraced],
        (true, EngineKind::SimdSmp) => &[RepKind::Untraced, RepKind::Traced, RepKind::Reference],
        (true, _) => &[RepKind::Untraced, RepKind::Traced],
    };
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<Vec<TracedJob>> = Vec::new();
    let (mut reference_wall_s, mut reference_cells) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rep = 0;
    while start.elapsed().as_secs_f64() < opts.seconds || rep < MIN_REPS * kinds.len() {
        let kind = kinds[rep % kinds.len()];
        rep += 1;
        match kind {
            RepKind::Untraced => {
                let pass = timed_pass(&measured, &prepared, "rep", w.tops, &mut tally);
                wall_s.push(pass.iter().map(|(wall, _, _)| wall).sum());
                cpu_s.push(pass.iter().map(|(_, cpu, _)| cpu).sum());
            }
            RepKind::Traced => {
                let pass = spans.scope("rep", |_| {
                    timed_pass(&measured, &prepared, "traced rep", w.tops, &mut tally)
                });
                let jobs: Vec<TracedJob> = pass
                    .into_iter()
                    .zip(&prepared.seqs)
                    .filter_map(|((wall_s, cpu_s, analysis), seq)| {
                        Some(TracedJob {
                            report: analysis?.run.to_json(),
                            seq_len: seq.len(),
                            wall_s,
                            cpu_s,
                        })
                    })
                    .collect();
                if jobs.len() == prepared.seqs.len() {
                    traced.push(jobs);
                }
            }
            RepKind::Reference => {
                let pass = spans.scope("reference", |_| {
                    timed_pass(&reference, &prepared, "reference rep", w.tops, &mut tally)
                });
                if pass.iter().all(|(_, _, analysis)| analysis.is_some()) {
                    reference_wall_s.push(pass.iter().map(|(wall, _, _)| wall).sum());
                    reference_cells.push(
                        pass.iter()
                            .flat_map(|(_, _, a)| a)
                            .map(|a| a.tops.stats.cells as f64)
                            .sum(),
                    );
                }
            }
        }
    }

    let mut layers = Vec::new();
    if opts.trace && !traced.is_empty() {
        let probes = run_probes(&prepared.seqs[0], &prepared.scoring, &mut spans, opts.smoke);
        let ctx = RunContext {
            engine: w.engine,
            workers: w.engine.workers(),
            untraced_wall_s: &wall_s,
            reference: (!reference_wall_s.is_empty())
                .then(|| (&reference_wall_s[..], median(&reference_cells))),
            probes: &probes,
        };
        layers = layers::derive(&traced, &ctx);
    }

    RunRecord {
        opts,
        sequences: prepared.seqs.len(),
        residues: prepared.seqs.iter().map(Seq::len).sum(),
        longest: prepared.seqs.iter().map(Seq::len).max().unwrap_or(0),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        digest: batch_digest(&prepared.oracle_digests),
        setup_s,
        wall_s,
        cpu_s,
        traced_wall_s: traced
            .iter()
            .map(|jobs| jobs.iter().map(|j| j.wall_s).sum())
            .collect(),
        peak_rss_mb: peak_rss_mib(),
        layers,
        spans,
    }
}

fn metric(value: f64, unit: &str) -> Json {
    obj(vec![("value", num(value)), ("unit", str(unit))])
}

fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

impl RunRecord {
    /// Whether every checked output was right (and the traced run, if
    /// asked for, produced its per-layer numbers).
    pub fn correct(&self) -> bool {
        self.failed == 0 && (!self.opts.trace || !self.layers.is_empty())
    }

    /// The end-to-end metrics: medians over the untraced reps and the
    /// set-ups, and the process's peak memory.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            median(&self.wall_s),
            median(&self.cpu_s),
            self.peak_rss_mb,
            median(&self.setup_s),
        ]
    }

    fn end_to_end_json(&self) -> Json {
        let named = END_TO_END.iter().zip(self.end_to_end());
        Json::Obj(
            named
                .map(|(&(name, unit, _), v)| (name.to_string(), metric(v, unit)))
                .collect(),
        )
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub fn driver_line(&self) -> Json {
        let metrics = if self.opts.trace {
            let defs = LAYER_METRICS.iter().map(|def| (def.name, def.unit));
            let values = self.layers.iter().map(|(_, v)| v.or_sentinel());
            Json::Obj(
                defs.zip(values)
                    .map(|((name, unit), v)| (name.to_string(), metric(v, unit)))
                    .collect(),
            )
        } else {
            self.end_to_end_json()
        };
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// The full record `results.json` keeps: every raw sample, the
    /// digest, the failures, and for a traced run each per-layer metric
    /// with its `exact` flag plus the `missing` list.
    pub fn to_json(&self) -> Json {
        let o = &self.opts;
        let mut fields = vec![
            ("workload", str(o.workload.name)),
            ("seed", num(o.seed as f64)),
            ("seconds", num(o.seconds)),
            ("traced", Json::Bool(o.trace)),
            ("smoke", Json::Bool(o.smoke)),
            ("sequences", num(self.sequences as f64)),
            ("residues", num(self.residues as f64)),
            ("longest", num(self.longest as f64)),
            ("tops", num(o.workload.tops as f64)),
            ("reps", num(self.wall_s.len() as f64)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "fail_frac",
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| str(f)).collect()),
            ),
            ("digest", str(&digest_hex(self.digest))),
            ("end_to_end", self.end_to_end_json()),
            (
                "samples",
                obj(vec![
                    ("wall_s", samples(&self.wall_s)),
                    ("cpu_s", samples(&self.cpu_s)),
                    ("setup_s", samples(&self.setup_s)),
                    ("traced_wall_s", samples(&self.traced_wall_s)),
                ]),
            ),
        ];
        if o.trace {
            let per_layer = LAYER_METRICS
                .iter()
                .zip(&self.layers)
                .filter_map(|(def, &(_, value))| match value {
                    Value::Num(v) => Some((
                        def.name.to_string(),
                        obj(vec![
                            ("value", num(v)),
                            ("unit", str(def.unit)),
                            (
                                "exact",
                                Json::Bool(def.from_counts && o.workload.exact_counts),
                            ),
                        ]),
                    )),
                    _ => None,
                })
                .collect();
            let names = |want: Value| {
                Json::Arr(
                    self.layers
                        .iter()
                        .filter(|(_, v)| *v == want)
                        .map(|(n, _)| str(n))
                        .collect(),
                )
            };
            fields.push(("per_layer", Json::Obj(per_layer)));
            fields.push(("missing", names(Value::Missing)));
            fields.push(("not_applicable", names(Value::NotApplicable)));
        }
        obj(fields)
    }
}
