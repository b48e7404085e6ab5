//! Structured run reports.
//!
//! A [`RunReport`] is the serializable snapshot of one engine run: the
//! configuration, the common work counters (`Stats`), the flight
//! recorder's per-phase timings and engine counters, and the derived
//! **paper-claim ratios** — the fraction of realignments the task-queue
//! heuristic avoided (the paper's "90–97 %") and, when a sequential
//! baseline is attached, the extra-alignment overhead of a parallel
//! engine (the paper's "< 0.70 %" / "up to 8.4 %").
//!
//! Reports serialize to JSON through `repro-obs`'s dependency-free
//! writer and validate structurally with [`RunReport::validate`], which
//! is what the CI smoke job and the `run_report` bench bin check
//! emitted files against.

use repro_core::{Stats, TopAlignments};
use repro_obs::json::{num, obj, str, Json};
use repro_obs::{Counter, FlightRecorder, Metric, Phase};

/// Schema version stamped into every report; bump on breaking layout
/// changes so downstream consumers can fail loudly instead of misread.
/// Version 2 added the incremental-realignment stats (checkpoint
/// hits/misses, rows swept/skipped, pool reuses). Version 3 added the
/// seeded split-pruning stats (splits pruned, pruned pops, bound
/// recomputes, seed-index build time) and made the avoided-realignment
/// claim prune-aware. Version 4 added the `histograms` block: per-metric
/// latency/size distributions (count, sum, p50/p90/p99) from the
/// log-bucketed histograms, cluster-wide for the distributed engines.
/// Version 5 added the `batching` block: cluster task-batch shape
/// (batches sent, batch-size median, mean tasks per round trip), the
/// SIMD per-lane skip/compaction counters, and the resume-depth median
/// (`resume_rows` p50) — the lane-granular resume headline number.
/// Version 6 dropped `pool_reuses` (stats and counters; its scratch
/// pool went with the split unit) and made a checkpoint hit any
/// realignment a shortcut served, so `hits + misses` counts every
/// realignment once. Version 7 dropped the twelve `counters` keys that
/// repeated a `stats` or `batching` key (checkpoint hits and misses,
/// realignment rows swept and skipped, the four pruning tallies, cluster
/// retries and reassignments, lanes skipped and compacted): every exact
/// work tally has one key, and `counters` holds recorder observations
/// only.
pub const REPORT_SCHEMA_VERSION: u64 = 7;

/// One phase's accumulated wall-clock time and entry count.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Stable snake_case phase name (see [`Phase::name`]).
    pub name: &'static str,
    /// Total seconds spent in the phase.
    pub secs: f64,
    /// Times the phase was entered (or credited externally).
    pub entries: u64,
}

/// One metric's distribution summary: the serialized face of a
/// log-bucketed [`repro_obs::Hist`]. Quantiles carry the histogram's
/// bounded relative error (≤ 1/16); a never-recorded metric summarizes
/// as all zeros so the schema is identical across engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Stable snake_case metric name (see [`Metric::name`]).
    pub metric: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values (exact, not bucketed).
    pub sum: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Batched-assignment and lane-granular-resume shape of one run, as the
/// recorder saw it: how tasks were shipped (cluster engines) and how
/// deep checkpointed realignments swept. The report's `batching` block
/// adds the exact lane tallies from [`Stats`]. All zeros for engines
/// without the corresponding subsystem, so the schema is identical
/// across engines.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingSummary {
    /// Task batches shipped by the master (one per `Assign` action).
    pub batches: u64,
    /// Median batch size, in tasks.
    pub batch_size_p50: u64,
    /// Mean tasks per master→worker round trip (`0.0` when no batches
    /// were sent).
    pub tasks_per_round_trip: f64,
    /// Median rows actually swept per checkpointed realignment
    /// (`resume_rows` p50) — the lane-granular resume headline.
    pub resume_rows_p50: u64,
}

/// The ratios behind the paper's headline work-accounting claims.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperClaims {
    /// Fraction of the naive `tops × splits` realignment budget spent
    /// after the initial sweep (the paper reports 3–10 %).
    pub realignment_fraction: f64,
    /// `1 − realignment_fraction`: the fraction of realignments the
    /// stale-upper-bound queue avoided (the paper's 90–97 %).
    pub realignments_avoided: f64,
    /// Relative extra score-only alignments versus an attached
    /// sequential baseline (`None` until [`RunReport::set_baseline`]):
    /// the paper's "< 0.70 %" (SSE) and "up to 8.4 %" (cluster).
    pub extra_alignment_overhead: Option<f64>,
}

/// A serializable snapshot of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine label, e.g. `"sequential"`, `"simd-dispatch"`,
    /// `"cluster:2"`.
    pub engine: String,
    /// Input sequence length.
    pub seq_len: usize,
    /// Top alignments requested.
    pub tops_requested: usize,
    /// Top alignments actually found (≤ requested on short inputs).
    pub tops_found: usize,
    /// Wall-clock seconds from recorder creation to report capture.
    pub elapsed_secs: f64,
    /// The run's work tallies, exactly as the engine returned them.
    pub stats: Stats,
    /// Every phase's timing, in [`Phase::ALL`] order (zero entries
    /// included so the schema is identical across engines).
    pub phases: Vec<PhaseTiming>,
    /// Every flight-recorder counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every metric's distribution summary, in [`Metric::ALL`] order
    /// (all-zero summaries included so the schema is identical across
    /// engines).
    pub histograms: Vec<HistogramSummary>,
    /// Task-batching and per-lane resume shape.
    pub batching: BatchingSummary,
    /// Derived paper-claim ratios.
    pub claims: PaperClaims,
    /// Events the recorder dropped because its buffer cap was reached.
    pub dropped_events: u64,
}

impl RunReport {
    /// Capture a report from a finished run. `elapsed_secs` and the
    /// phase/counter totals come from `rec`; the work counters from
    /// `tops.stats`; the claim ratios are derived on the spot.
    pub fn capture(
        engine: impl Into<String>,
        seq_len: usize,
        tops_requested: usize,
        tops: &TopAlignments,
        rec: &FlightRecorder,
    ) -> Self {
        let splits = seq_len.saturating_sub(1);
        // Prune-aware denominator: pruned splits never entered the
        // realignment budget, so counting them would inflate "avoided".
        let fraction = tops.stats.realignment_fraction_effective(splits);
        RunReport {
            engine: engine.into(),
            seq_len,
            tops_requested,
            tops_found: tops.alignments.len(),
            elapsed_secs: rec.elapsed_secs(),
            stats: tops.stats.clone(),
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseTiming {
                    name: p.name(),
                    secs: rec.phase_secs(p),
                    entries: rec.phase_entries(p),
                })
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), rec.counter(c)))
                .collect(),
            histograms: Metric::ALL
                .iter()
                .map(|&m| {
                    let h = rec.hist(m);
                    HistogramSummary {
                        metric: m.name(),
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.p50(),
                        p90: h.p90(),
                        p99: h.p99(),
                    }
                })
                .collect(),
            batching: {
                let batch = rec.hist(Metric::BatchSize);
                let resume = rec.hist(Metric::ResumeRows);
                BatchingSummary {
                    batches: batch.count(),
                    batch_size_p50: batch.p50(),
                    tasks_per_round_trip: if batch.count() == 0 {
                        0.0
                    } else {
                        batch.sum() as f64 / batch.count() as f64
                    },
                    resume_rows_p50: resume.p50(),
                }
            },
            claims: PaperClaims {
                realignment_fraction: fraction,
                realignments_avoided: 1.0 - fraction,
                extra_alignment_overhead: None,
            },
            dropped_events: rec.dropped_events(),
        }
    }

    /// Attach a sequential baseline: fills
    /// [`PaperClaims::extra_alignment_overhead`] with the relative extra
    /// score-only alignments this run performed versus `baseline`.
    pub fn set_baseline(&mut self, baseline: &RunReport) {
        let base = baseline.stats.alignments;
        if base > 0 {
            let extra = self.stats.alignments as f64 - base as f64;
            self.claims.extra_alignment_overhead = Some(extra / base as f64);
        }
    }

    /// Serialize to a JSON value (see the module docs for the layout).
    pub fn to_json(&self) -> Json {
        let stats = obj(self
            .stats
            .tallies()
            .into_iter()
            .map(|(name, v)| (name, num(v as f64)))
            .collect());
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    obj(vec![
                        ("name", str(p.name)),
                        ("secs", num(p.secs)),
                        ("entries", num(p.entries as f64)),
                    ])
                })
                .collect(),
        );
        let counters = obj(self
            .counters
            .iter()
            .map(|&(name, v)| (name, num(v as f64)))
            .collect());
        let histograms = obj(self
            .histograms
            .iter()
            .map(|h| {
                (
                    h.metric,
                    obj(vec![
                        ("count", num(h.count as f64)),
                        ("sum", num(h.sum as f64)),
                        ("p50", num(h.p50 as f64)),
                        ("p90", num(h.p90 as f64)),
                        ("p99", num(h.p99 as f64)),
                    ]),
                )
            })
            .collect());
        let batching = obj(vec![
            ("batches", num(self.batching.batches as f64)),
            (
                "batch_size_p50",
                num(self.batching.batch_size_p50 as f64),
            ),
            (
                "tasks_per_round_trip",
                num(self.batching.tasks_per_round_trip),
            ),
            ("lanes_skipped", num(self.stats.lanes_skipped as f64)),
            ("lanes_compacted", num(self.stats.lanes_compacted as f64)),
            (
                "resume_rows_p50",
                num(self.batching.resume_rows_p50 as f64),
            ),
        ]);
        let claims = obj(vec![
            (
                "realignment_fraction",
                num(self.claims.realignment_fraction),
            ),
            (
                "realignments_avoided",
                num(self.claims.realignments_avoided),
            ),
            (
                "extra_alignment_overhead",
                match self.claims.extra_alignment_overhead {
                    Some(v) => num(v),
                    None => Json::Null,
                },
            ),
        ]);
        obj(vec![
            ("schema_version", num(REPORT_SCHEMA_VERSION as f64)),
            ("engine", str(&self.engine)),
            ("seq_len", num(self.seq_len as f64)),
            ("tops_requested", num(self.tops_requested as f64)),
            ("tops_found", num(self.tops_found as f64)),
            ("elapsed_secs", num(self.elapsed_secs)),
            ("stats", stats),
            ("phases", phases),
            ("counters", counters),
            ("histograms", histograms),
            ("batching", batching),
            ("claims", claims),
            ("dropped_events", num(self.dropped_events as f64)),
        ])
    }

    /// Structurally validate a parsed report: every required key
    /// present with the right type, the schema version supported, the
    /// phase list complete, and the claim ratios in range. Returns a
    /// human-readable description of the first problem found.
    pub fn validate(v: &Json) -> Result<(), String> {
        fn req_num(v: &Json, key: &str) -> Result<f64, String> {
            v.get(key)
                .and_then(|j| j.as_f64())
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        }
        let version = req_num(v, "schema_version")?;
        if version != REPORT_SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema_version {version}"));
        }
        v.get("engine")
            .and_then(|j| j.as_str())
            .ok_or("missing or non-string field `engine`")?;
        for key in ["seq_len", "tops_requested", "tops_found", "elapsed_secs"] {
            req_num(v, key)?;
        }
        let stats = v
            .get("stats")
            .and_then(|j| j.as_obj())
            .ok_or("missing or non-object field `stats`")?;
        for (key, _) in Stats::default().tallies() {
            if !stats.iter().any(|(k, j)| k == key && j.as_f64().is_some()) {
                return Err(format!("stats: missing or non-numeric field `{key}`"));
            }
        }
        let phases = v
            .get("phases")
            .and_then(|j| j.as_arr())
            .ok_or("missing or non-array field `phases`")?;
        if phases.len() != Phase::ALL.len() {
            return Err(format!(
                "phases: expected {} entries, got {}",
                Phase::ALL.len(),
                phases.len()
            ));
        }
        for (i, (p, want)) in phases.iter().zip(Phase::ALL).enumerate() {
            let name = p
                .get("name")
                .and_then(|j| j.as_str())
                .ok_or_else(|| format!("phases[{i}]: missing `name`"))?;
            if name != want.name() {
                return Err(format!(
                    "phases[{i}]: expected `{}`, got `{name}`",
                    want.name()
                ));
            }
            req_num(p, "secs").map_err(|e| format!("phases[{i}]: {e}"))?;
            req_num(p, "entries").map_err(|e| format!("phases[{i}]: {e}"))?;
        }
        let counters = v
            .get("counters")
            .and_then(|j| j.as_obj())
            .ok_or("missing or non-object field `counters`")?;
        for c in Counter::ALL {
            if !counters
                .iter()
                .any(|(k, j)| k == c.name() && j.as_f64().is_some())
            {
                return Err(format!("counters: missing or non-numeric `{}`", c.name()));
            }
        }
        let histograms = v
            .get("histograms")
            .and_then(|j| j.as_obj())
            .ok_or("missing or non-object field `histograms`")?;
        for m in Metric::ALL {
            let h = histograms
                .iter()
                .find(|(k, _)| k == m.name())
                .map(|(_, j)| j)
                .ok_or_else(|| format!("histograms: missing metric `{}`", m.name()))?;
            for key in ["count", "sum", "p50", "p90", "p99"] {
                req_num(h, key)
                    .map_err(|e| format!("histograms.{}: {e}", m.name()))?;
            }
        }
        let batching = v.get("batching").ok_or("missing field `batching`")?;
        for key in [
            "batches",
            "batch_size_p50",
            "tasks_per_round_trip",
            "lanes_skipped",
            "lanes_compacted",
            "resume_rows_p50",
        ] {
            req_num(batching, key).map_err(|e| format!("batching: {e}"))?;
        }
        let claims = v.get("claims").ok_or("missing field `claims`")?;
        let fraction =
            req_num(claims, "realignment_fraction").map_err(|e| format!("claims: {e}"))?;
        let avoided =
            req_num(claims, "realignments_avoided").map_err(|e| format!("claims: {e}"))?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(format!(
                "claims: realignment_fraction {fraction} out of [0, 1]"
            ));
        }
        if (fraction + avoided - 1.0).abs() > 1e-9 {
            return Err("claims: fraction and avoided do not sum to 1".into());
        }
        match claims.get("extra_alignment_overhead") {
            Some(Json::Null) | Some(Json::Num(_)) => {}
            _ => return Err("claims: `extra_alignment_overhead` must be number or null".into()),
        }
        req_num(v, "dropped_events")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_align::{Scoring, Seq};
    use repro_core::{FinderConfig, Search, TopAlignmentFinder};
    use repro_obs::Recorder;

    /// Three tops of the Figure 4 sequence on the sequential engine.
    fn recorded_run(seq: &Seq, rec: &mut FlightRecorder) -> TopAlignments {
        let scoring = Scoring::dna_example();
        TopAlignmentFinder::new(seq, &scoring, FinderConfig::new(Search::new(3))).run_recorded(rec)
    }

    fn sample() -> RunReport {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let mut rec = FlightRecorder::new();
        let tops = recorded_run(&seq, &mut rec);
        RunReport::capture("sequential", seq.len(), 3, &tops, &rec)
    }

    #[test]
    fn capture_reflects_stats_and_phases() {
        let report = sample();
        assert_eq!(report.engine, "sequential");
        assert_eq!(report.tops_found, 3);
        assert_eq!(report.stats.stale_pops, 17);
        assert_eq!(report.stats.fresh_pops, 3);
        assert_eq!(report.phases.len(), Phase::ALL.len());
        assert_eq!(report.phases[0].name, "first_sweep");
        assert_eq!(report.phases[0].entries, 11);
        let sum = report.claims.realignment_fraction + report.claims.realignments_avoided;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_validates() {
        let report = sample();
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        RunReport::validate(&parsed).unwrap();
        assert_eq!(
            parsed.get("engine").and_then(|j| j.as_str()),
            Some("sequential")
        );
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("stale_pops"))
                .and_then(|j| j.as_u64()),
            Some(17)
        );
    }

    #[test]
    fn validation_rejects_structural_damage() {
        let report = sample();
        let good = report.to_json().to_string_compact();
        // Missing stats field.
        let bad = good.replace("\"stale_pops\"", "\"stole_pops\"");
        let err = RunReport::validate(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("stale_pops"), "{err}");
        // Wrong schema version.
        let bad = good.replace("\"schema_version\":7", "\"schema_version\":999");
        let err = RunReport::validate(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        // Phase renamed.
        let bad = good.replace("\"first_sweep\"", "\"zeroth_sweep\"");
        assert!(RunReport::validate(&Json::parse(&bad).unwrap()).is_err());
        // Histogram metric renamed.
        let bad = good.replace("\"sweep_ns\"", "\"swoop_ns\"");
        let err = RunReport::validate(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("sweep_ns"), "{err}");
        // Batching field renamed.
        let bad = good.replace("\"resume_rows_p50\"", "\"resume_rows_p51\"");
        let err = RunReport::validate(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("resume_rows_p50"), "{err}");
    }

    #[test]
    fn batching_block_reflects_recorder_and_stats() {
        // A sequential run ships no batches and compacts no lanes: the
        // block must exist with all zeros (schema-stable across engines).
        let report = sample();
        assert_eq!(report.batching.batches, 0);
        assert_eq!(report.batching.tasks_per_round_trip, 0.0);
        assert_eq!(report.stats.lanes_skipped, 0);

        // A recorder with observed batch sizes and resume depths feeds
        // the medians straight into the block.
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let mut rec = FlightRecorder::new();
        let tops = recorded_run(&seq, &mut rec);
        for size in [1u64, 4, 4] {
            rec.observe(Metric::BatchSize, size);
        }
        rec.observe(Metric::ResumeRows, 100);
        let report = RunReport::capture("cluster:2", seq.len(), 3, &tops, &rec);
        assert_eq!(report.batching.batches, 3);
        assert_eq!(report.batching.tasks_per_round_trip, 3.0);
        assert!(report.batching.batch_size_p50 >= 4);
        assert!(report.batching.resume_rows_p50 >= 97); // ≤ 1/16 bucket error
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        RunReport::validate(&parsed).unwrap();
        assert_eq!(
            parsed
                .get("batching")
                .and_then(|b| b.get("batches"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    /// One home per tally: no recorder counter repeats a `Stats` tally
    /// or any other key of the `stats` and `batching` blocks, and the
    /// report still carries every `stats.*` and `batching.*` key the
    /// benchmark's per-layer table (`benchmark/src/layers.rs`) reads.
    #[test]
    fn every_tally_has_one_home_and_the_benchmark_keys_stay() {
        let parsed = Json::parse(&sample().to_json().to_string_compact()).unwrap();
        let block = |name: &str| -> Vec<String> {
            let fields = parsed.get(name).and_then(Json::as_obj).unwrap();
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        let tallies = Stats::default().tallies().map(|(name, _)| name);
        for c in Counter::ALL.map(Counter::name) {
            assert!(!tallies.contains(&c), "counter {c} is a Stats tally");
            for home in ["stats", "batching"] {
                let repeated = block(home).iter().any(|k| k == c);
                assert!(!repeated, "counter {c} repeats {home}.{c}");
            }
        }
        let read = [
            ("stats", "alignments"),
            ("stats", "cells"),
            ("stats", "traceback_cells"),
            ("stats", "stale_pops"),
            ("stats", "fresh_pops"),
            ("stats", "splits_pruned"),
            ("stats", "pruned_pops"),
            ("stats", "bound_recomputes"),
            ("stats", "checkpoint_hits"),
            ("stats", "checkpoint_misses"),
            ("stats", "realign_rows_swept"),
            ("stats", "realign_rows_skipped"),
            ("stats", "cluster_retries"),
            ("stats", "cluster_reassignments"),
            ("batching", "batches"),
            ("batching", "tasks_per_round_trip"),
            ("batching", "lanes_skipped"),
            ("batching", "lanes_compacted"),
            ("batching", "resume_rows_p50"),
        ];
        for (home, key) in read {
            let value = parsed.get(home).and_then(|b| b.get(key)?.as_f64());
            assert!(value.is_some(), "report has no {home}.{key}");
        }
    }

    #[test]
    fn histograms_are_captured_and_serialized() {
        let report = sample();
        assert_eq!(report.histograms.len(), Metric::ALL.len());
        let sweep = report
            .histograms
            .iter()
            .find(|h| h.metric == "sweep_ns")
            .unwrap();
        assert!(sweep.count > 0, "sequential run must record sweep durations");
        assert!(sweep.sum > 0);
        assert!(sweep.p99 >= sweep.p50);
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        let got = parsed
            .get("histograms")
            .and_then(|h| h.get("sweep_ns"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(got, sweep.count);
    }

    #[test]
    fn baseline_attaches_overhead() {
        let mut report = sample();
        let baseline = sample();
        assert_eq!(report.claims.extra_alignment_overhead, None);
        report.set_baseline(&baseline);
        // Identical runs: zero overhead.
        assert_eq!(report.claims.extra_alignment_overhead, Some(0.0));
        let text = report.to_json().to_string_compact();
        RunReport::validate(&Json::parse(&text).unwrap()).unwrap();
    }
}
