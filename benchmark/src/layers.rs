//! Per-layer metrics: the table of names, and how each is derived from
//! outside the program — from the run report's JSON, read by string key
//! so a renamed or dropped key shows up as *missing* rather than as 0 or
//! as a build break, and from the probes.

use crate::probes::ProbeResults;
use crate::stats::median;
use crate::workloads::EngineKind;
use repro::obs::json::Json;

/// A per-layer metric's value on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Measured.
    Num(f64),
    /// The source (report key, phase, histogram, probe) does not exist
    /// or never recorded anything.
    Missing,
    /// The layer does no work on this workload, or the denominator of
    /// the ratio is zero.
    NotApplicable,
}

/// What the one-line driver output prints for a metric without a value:
/// no per-layer metric can be negative, so this is never mistaken for a
/// measurement (and never reads as 0).
pub const NO_VALUE: f64 = -1.0;

impl Value {
    /// The number, or [`NO_VALUE`].
    pub fn or_sentinel(self) -> f64 {
        match self {
            Value::Num(v) => v,
            Value::Missing | Value::NotApplicable => NO_VALUE,
        }
    }

    fn map(self, f: impl FnOnce(f64) -> f64) -> Value {
        match self {
            Value::Num(v) => Value::Num(f(v)),
            other => other,
        }
    }
}

/// One per-layer metric. The layer is the part of `name` before the dot.
#[derive(Debug)]
pub struct LayerMetric {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Computed from the program's work counts alone, so on a workload
    /// with [`crate::workloads::Workload::exact_counts`] it repeats
    /// exactly.
    pub from_counts: bool,
}

/// A metric that varies from run to run: a time, a rate, or a count
/// that depends on thread or message scheduling.
const fn varies(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        from_counts: false,
    }
}

/// A metric computed from the program's deterministic work counts.
const fn counted(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        from_counts: true,
    }
}

/// Every per-layer metric, in reporting order. `BENCHMARK.json` lists
/// the same names, units and directions (checked by the self-tests).
pub const LAYER_METRICS: [LayerMetric; 54] = [
    varies("align.gotoh_mcups", "Mcells/s", "higher"),
    varies("align.traceback_s", "s", "lower"),
    varies("align.traceback_mcups", "Mcells/s", "higher"),
    counted("core.alignments", "count", "lower"),
    counted("core.cells", "count", "lower"),
    counted("core.realign_avoided_frac", "ratio", "higher"),
    counted("core.stale_pops", "count", "lower"),
    counted("core.fresh_pops", "count", "higher"),
    counted("core.splits_pruned_frac", "ratio", "higher"),
    counted("core.pruned_pops", "count", "higher"),
    counted("core.bound_recomputes", "count", "lower"),
    varies("core.bounds_build_s", "s", "lower"),
    counted("core.ckpt_hits", "count", "higher"),
    counted("core.ckpt_misses", "count", "lower"),
    counted("core.ckpt_rows_skipped_frac", "ratio", "higher"),
    varies("core.first_sweep_s", "s", "lower"),
    varies("core.drain_s", "s", "lower"),
    varies("core.queue_mops", "Mops/s", "higher"),
    varies("simd.kernel_peak_glcups", "Gcells/s", "higher"),
    varies("simd.sweep_busy_s", "s", "lower"),
    varies("simd.achieved_glcups", "Gcells/s", "higher"),
    varies("simd.efficiency", "ratio", "higher"),
    counted("simd.group_sweeps", "count", "lower"),
    counted("simd.lane_occupancy", "ratio", "higher"),
    counted("simd.promoted_sweeps", "count", "lower"),
    counted("simd.narrow_saturations", "count", "lower"),
    counted("simd.lanes_skipped", "count", "higher"),
    counted("simd.lanes_compacted", "count", "higher"),
    counted("simd.resume_rows_p50", "rows", "lower"),
    varies("parallel.scaling_eff", "ratio", "higher"),
    varies("parallel.extra_cells_frac", "ratio", "lower"),
    varies("parallel.task_claims", "count", "lower"),
    varies("parallel.superseded_work", "count", "lower"),
    varies("parallel.idle_s", "s", "lower"),
    varies("parallel.queue_wait_p50_ns", "ns", "lower"),
    varies("parallel.queue_wait_p99_ns", "ns", "lower"),
    varies("parallel.cpu_over_wall", "ratio", "higher"),
    varies("xmpi.chan_roundtrip_us", "us", "lower"),
    varies("xmpi.chan_roundtrip_16k_us", "us", "lower"),
    varies("xmpi.socket_roundtrip_us", "us", "lower"),
    varies("xmpi.socket_roundtrip_16k_us", "us", "lower"),
    varies("xmpi.wire_codec_mbps", "MB/s", "higher"),
    varies("cluster.round_trip_p50_us", "us", "lower"),
    varies("cluster.round_trip_p99_us", "us", "lower"),
    varies("cluster.batches", "count", "lower"),
    varies("cluster.tasks_per_round_trip", "ratio", "higher"),
    varies("cluster.protocol_share", "ratio", "lower"),
    varies("cluster.retries", "count", "lower"),
    varies("cluster.reassignments", "count", "lower"),
    varies("cluster.resyncs", "count", "lower"),
    varies("cluster.local_fallbacks", "count", "lower"),
    varies("cluster.dropped_events", "count", "lower"),
    varies("repro.post_s", "s", "lower"),
    varies("obs.trace_overhead", "ratio", "lower"),
];

/// What one sequence of a traced rep contributes: its report and its
/// own timings. A traced rep is one of these per sequence of the batch.
#[derive(Debug)]
pub struct TracedJob {
    /// `Analysis.run.to_json()`.
    pub report: Json,
    /// Sequence length.
    pub seq_len: usize,
    /// Wall seconds of the run.
    pub wall_s: f64,
    /// CPU seconds of the run, all threads.
    pub cpu_s: f64,
}

/// What the per-layer derivation needs beyond the traced reps.
#[derive(Debug)]
pub struct RunContext<'a> {
    /// Engine of the workload (gates the `parallel.*` / `cluster.*` rows).
    pub engine: EngineKind,
    /// Compute workers the engine ran (threads or cluster ranks).
    pub workers: usize,
    /// Batch wall of each untraced rep of the same run. Rep kinds take
    /// turns, so the i-th untraced, traced and reference reps are
    /// neighbours in time and are compared pairwise.
    pub untraced_wall_s: &'a [f64],
    /// The SMP workload's single-thread reference: the batch wall of
    /// each reference rep, and the cells of the same batch on
    /// `SimdDispatch` with CLI defaults.
    pub reference: Option<(&'a [f64], f64)>,
    /// Probe measurements.
    pub probes: &'a ProbeResults,
}

fn num(v: Option<f64>) -> Value {
    v.map_or(Value::Missing, Value::Num)
}

fn ratio(n: Option<f64>, d: Option<f64>) -> Value {
    match (n, d) {
        (Some(n), Some(d)) if d != 0.0 => Value::Num(n / d),
        (Some(_), Some(_)) => Value::NotApplicable,
        _ => Value::Missing,
    }
}

/// The metrics one report yields, keyed by name.
fn from_report(rep: &TracedJob, ctx: &RunContext) -> Vec<(&'static str, Value)> {
    let r = &rep.report;
    let field = |block: &str, key: &str| r.get(block)?.get(key)?.as_f64();
    let stat = |key: &str| field("stats", key);
    let counter = |key: &str| field("counters", key);
    let batching = |key: &str| field("batching", key);
    // A histogram or phase that never recorded is a missing source, not
    // a zero: the SMP engines, for one, record no phases today.
    let hist = |metric: &str, key: &str| {
        let h = r.get("histograms")?.get(metric)?;
        (h.get("count")?.as_f64()? > 0.0)
            .then(|| h.get(key)?.as_f64())
            .flatten()
    };
    let phase = |name: &str| {
        let p = r
            .get("phases")?
            .as_arr()?
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))?;
        (p.get("entries")?.as_f64()? > 0.0)
            .then(|| p.get("secs")?.as_f64())
            .flatten()
    };
    let scaled = |v: Option<f64>, by: f64| v.map(|v| v * by);
    let sum = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a + b);

    let cells = stat("cells");
    let busy_s = scaled(hist("sweep_ns", "sum"), 1e-9);
    let peak = ctx.probes.kernel_peak_glcups;
    let wall = Some(rep.wall_s);
    vec![
        ("align.traceback_s", num(phase("traceback"))),
        (
            "align.traceback_mcups",
            ratio(scaled(stat("traceback_cells"), 1e-6), phase("traceback")),
        ),
        ("core.alignments", num(stat("alignments"))),
        ("core.cells", num(cells)),
        (
            "core.realign_avoided_frac",
            num(field("claims", "realignments_avoided")),
        ),
        ("core.stale_pops", num(stat("stale_pops"))),
        ("core.fresh_pops", num(stat("fresh_pops"))),
        (
            "core.splits_pruned_frac",
            ratio(stat("splits_pruned"), Some((rep.seq_len - 1) as f64)),
        ),
        ("core.pruned_pops", num(stat("pruned_pops"))),
        ("core.bound_recomputes", num(stat("bound_recomputes"))),
        ("core.ckpt_hits", num(stat("checkpoint_hits"))),
        ("core.ckpt_misses", num(stat("checkpoint_misses"))),
        (
            "core.ckpt_rows_skipped_frac",
            ratio(
                stat("realign_rows_skipped"),
                sum(stat("realign_rows_skipped"), stat("realign_rows_swept")),
            ),
        ),
        ("core.first_sweep_s", num(phase("first_sweep"))),
        ("core.drain_s", num(phase("drain"))),
        ("simd.sweep_busy_s", num(busy_s)),
        ("simd.achieved_glcups", ratio(scaled(cells, 1e-9), busy_s)),
        (
            "simd.efficiency",
            ratio(scaled(cells, 1e-9), scaled(peak, rep.wall_s)),
        ),
        ("simd.group_sweeps", num(counter("group_sweeps"))),
        (
            "simd.lane_occupancy",
            ratio(
                counter("lanes_active"),
                sum(counter("lanes_active"), counter("lanes_padded")),
            ),
        ),
        ("simd.promoted_sweeps", num(counter("promoted_sweeps"))),
        (
            "simd.narrow_saturations",
            num(counter("narrow_saturations")),
        ),
        ("simd.lanes_skipped", num(batching("lanes_skipped"))),
        ("simd.lanes_compacted", num(batching("lanes_compacted"))),
        ("simd.resume_rows_p50", num(batching("resume_rows_p50"))),
        ("parallel.task_claims", num(counter("task_claims"))),
        ("parallel.superseded_work", num(counter("superseded_work"))),
        ("parallel.idle_s", num(phase("worker_idle"))),
        (
            "parallel.queue_wait_p50_ns",
            num(hist("queue_wait_ns", "p50")),
        ),
        (
            "parallel.queue_wait_p99_ns",
            num(hist("queue_wait_ns", "p99")),
        ),
        ("parallel.cpu_over_wall", ratio(Some(rep.cpu_s), wall)),
        (
            "cluster.round_trip_p50_us",
            num(scaled(hist("task_round_trip_ns", "p50"), 1e-3)),
        ),
        (
            "cluster.round_trip_p99_us",
            num(scaled(hist("task_round_trip_ns", "p99"), 1e-3)),
        ),
        ("cluster.batches", num(batching("batches"))),
        (
            "cluster.tasks_per_round_trip",
            num(batching("tasks_per_round_trip")),
        ),
        (
            "cluster.protocol_share",
            ratio(busy_s, Some(ctx.workers as f64 * rep.wall_s)).map(|busy| 1.0 - busy),
        ),
        ("cluster.retries", num(stat("cluster_retries"))),
        ("cluster.reassignments", num(stat("cluster_reassignments"))),
        ("cluster.resyncs", num(counter("cluster_resyncs"))),
        (
            "cluster.local_fallbacks",
            num(counter("cluster_local_fallbacks")),
        ),
        (
            "cluster.dropped_events",
            num(r.get("dropped_events").and_then(Json::as_f64)),
        ),
        (
            "repro.post_s",
            num(sum(phase("delineate"), phase("consensus"))),
        ),
    ]
}

/// `f` over the numbers among `values`. Missing on any part is missing
/// on the whole; parts where the metric does not apply (a ratio over
/// zero) are left out, and if it applies nowhere it does not apply.
fn combine(values: &[Value], f: fn(&[f64]) -> f64) -> Value {
    if values.contains(&Value::Missing) {
        return Value::Missing;
    }
    let nums: Vec<f64> = values
        .iter()
        .filter_map(|v| match v {
            Value::Num(n) => Some(*n),
            _ => None,
        })
        .collect();
    if nums.is_empty() {
        Value::NotApplicable
    } else {
        Value::Num(f(&nums))
    }
}

/// One row out of many with the same names in the same order: each
/// metric's values combined by the function `how` picks for its name.
fn fold(
    rows: &[Vec<(&'static str, Value)>],
    how: impl Fn(&str) -> fn(&[f64]) -> f64,
) -> Vec<(&'static str, Value)> {
    rows[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<Value> = rows.iter().map(|row| row[i].1).collect();
            (name, combine(&values, how(name)))
        })
        .collect()
}

/// Every per-layer metric of one traced run, in [`LAYER_METRICS`] order.
/// Within a rep, counts and seconds add up over the batch's sequences
/// and everything else (ratios, rates, percentiles) is the median over
/// them; across reps every metric is the median (a count that repeats
/// exactly is its own median). The rest come from the probes and from
/// the run's own untraced reps.
pub fn derive(reps: &[Vec<TracedJob>], ctx: &RunContext) -> Vec<(&'static str, Value)> {
    assert!(
        !reps.is_empty() && reps.iter().all(|jobs| !jobs.is_empty()),
        "a traced run has at least one traced rep over a non-empty batch"
    );
    let over_batch = |name: &str| -> fn(&[f64]) -> f64 {
        let unit = LAYER_METRICS
            .iter()
            .find(|def| def.name == name)
            .map(|def| def.unit);
        if matches!(unit, Some("count" | "s")) {
            |v| v.iter().sum()
        } else {
            median
        }
    };
    let per_rep: Vec<_> = reps
        .iter()
        .map(|jobs| {
            let per_job: Vec<_> = jobs.iter().map(|job| from_report(job, ctx)).collect();
            fold(&per_job, over_batch)
        })
        .collect();
    let mut found = fold(&per_rep, |_| median);

    let p = ctx.probes;
    let traced_wall: Vec<f64> = reps
        .iter()
        .map(|jobs| jobs.iter().map(|j| j.wall_s).sum())
        .collect();
    // Median of neighbour-to-neighbour ratios: host drift over the
    // window cancels within a pair.
    let paired = |num: &[f64], den: &[f64]| {
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        if ratios.is_empty() {
            Value::Missing
        } else {
            Value::Num(median(&ratios))
        }
    };
    let cells = found
        .iter()
        .find(|(name, _)| *name == "core.cells")
        .map_or(Value::Missing, |f| f.1);
    found.extend([
        ("align.gotoh_mcups", num(p.gotoh_mcups)),
        ("core.bounds_build_s", num(p.bounds_build_s)),
        ("core.queue_mops", num(p.queue_mops)),
        ("simd.kernel_peak_glcups", num(p.kernel_peak_glcups)),
        (
            "xmpi.chan_roundtrip_us",
            num(p.chan_roundtrip_us.map(|(small, _)| small)),
        ),
        (
            "xmpi.chan_roundtrip_16k_us",
            num(p.chan_roundtrip_us.map(|(_, large)| large)),
        ),
        (
            "xmpi.socket_roundtrip_us",
            num(p.socket_roundtrip_us.map(|(small, _)| small)),
        ),
        (
            "xmpi.socket_roundtrip_16k_us",
            num(p.socket_roundtrip_us.map(|(_, large)| large)),
        ),
        ("xmpi.wire_codec_mbps", num(p.wire_codec_mbps)),
        (
            "parallel.scaling_eff",
            ctx.reference
                .map_or(Value::Missing, |(walls, _)| {
                    paired(walls, ctx.untraced_wall_s)
                })
                .map(|speedup| speedup / ctx.workers as f64),
        ),
        (
            "parallel.extra_cells_frac",
            match (cells, ctx.reference) {
                (Value::Num(cells), Some((_, reference))) => Value::Num(cells / reference - 1.0),
                _ => Value::Missing,
            },
        ),
        (
            "obs.trace_overhead",
            paired(&traced_wall, ctx.untraced_wall_s),
        ),
    ]);

    LAYER_METRICS
        .iter()
        .map(|def| {
            let value = found
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("no derivation for per-layer metric {}", def.name))
                .1;
            // A layer the engine does not run through has nothing to
            // report, whatever zeros the report's fixed schema carries.
            let idle_layer = (def.name.starts_with("parallel.")
                && ctx.engine != EngineKind::SimdSmp)
                || (def.name.starts_with("cluster.") && ctx.engine != EngineKind::ClusterProc);
            (
                def.name,
                if idle_layer {
                    Value::NotApplicable
                } else {
                    value
                },
            )
        })
        .collect()
}
