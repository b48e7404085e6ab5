//! # repro — internal-repeat detection via nonoverlapping top alignments
//!
//! A Rust reproduction of Romein, Heringa & Bal, *A Million-Fold Speed
//! Improvement in Genomic Repeats Detection* (SC 2003): the `O(n³)`
//! top-alignment algorithm behind the Repro protein-repeat method, with
//! the paper's three parallelisation levels (coarse-grained SIMD,
//! shared-memory threads, distributed master/worker) and the `O(n⁴)`
//! 1993 baseline for comparison.
//!
//! ## Quick start
//!
//! ```
//! use repro::{Repro, Seq, Scoring};
//!
//! let seq = Seq::dna("ATGCATGCATGC").unwrap();
//! let analysis = Repro::new(Scoring::dna_example())
//!     .top_alignments(3)
//!     .run(&seq);
//! assert_eq!(analysis.tops.alignments.len(), 3);
//! assert_eq!(analysis.report.period, Some(4));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`align`] | alignment kernels, alphabets, matrices, FASTA |
//! | [`core`] | override triangle, the one bottom-row store, task queue, the one unit of work (`PackUnit<K>`) and Figure 5's loop generic over its kernel (the inline driver), delineation |
//! | [`simd`] | 4/8/16-lane interleaved neighbouring-matrix kernels, query profiles, runtime dispatch, the lane-pack unit; [`find_top_alignments_simd`] |
//! | [`parallel`] | shared-memory speculative engines: [`find_top_alignments_parallel`], [`find_top_alignments_parallel_simd`] |
//! | [`xmpi`] | message-passing substrate (threads, sockets, virtual time) |
//! | [`cluster`] | distributed engines ([`cluster::run_cluster`], [`cluster::run_cluster_proc`], [`cluster::run_hybrid`]) and the DAS-2 simulator |
//! | [`legacy`] | the old `O(n⁴)` algorithm |
//! | [`seqgen`] | deterministic workloads (planted repeats, titin-like) |
//!
//! Every engine produces **identical** top alignments; they differ only
//! in how the work is scheduled, exactly as the paper claims.
//!
//! ## One entry point per engine
//!
//! Below the [`Repro`] facade each engine is one function of one shape:
//! the shared [`Search`] says *what* to find (count, checkpoint budget,
//! seeded pruning), the engine's own arguments say *how* (a kernel
//! selection, a thread count, a worker count and deadline), what only a
//! recorder observes goes into the one handed in ([`obs::NoopRecorder`]
//! compiles all of it out), and the plain [`TopAlignments`] comes back
//! with every exact work tally in its `stats` — wrapped, for the
//! message-passing engines, in a [`cluster::ClusterResult`] that adds
//! the rank count.
//!
//! ```
//! use repro::obs::{Counter, FlightRecorder, NoopRecorder};
//! use repro::{find_top_alignments, find_top_alignments_parallel, find_top_alignments_simd};
//! use repro::{select, Scoring, Search, SeedConfig, Seq};
//!
//! let seq = Seq::dna("ATGCATGCATGCATGC")?;
//! let scoring = Scoring::dna_example();
//! let oracle = find_top_alignments(&seq, &scoring, 3);
//!
//! let search = Search { seed: Some(SeedConfig::default()), ..Search::new(3) };
//! let mut rec = FlightRecorder::new();
//! let simd = find_top_alignments_simd(&seq, &scoring, &search, select(None, None)?, &mut rec);
//! let smp = find_top_alignments_parallel(&seq, &scoring, &search, 2, &mut NoopRecorder);
//! assert_eq!(simd.alignments, oracle.alignments);
//! assert_eq!(smp.alignments, oracle.alignments);
//! assert_eq!(simd.stats.fresh_pops, 3);          // exact work tallies: `stats` only
//! assert!(rec.counter(Counter::GroupSweeps) > 0);  // what only the recorder observes
//!
//! // The message-passing engines: `cluster::{run_cluster, run_cluster_proc, run_hybrid}`.
//! use repro::cluster::{run_hybrid, DEFAULT_DEADLINE};
//! use repro::xmpi::thread::FaultPlan;
//! let clean = FaultPlan::default();
//! let hybrid = run_hybrid(&seq, &scoring, &search, 2, 2, DEFAULT_DEADLINE, clean, &mut NoopRecorder)?;
//! assert_eq!(hybrid.result.alignments, oracle.alignments);
//! assert_eq!(hybrid.ranks, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod report;
pub mod trace;

pub use repro_align as align;
pub use repro_cluster as cluster;
pub use repro_core as core;
pub use repro_legacy as legacy;
pub use repro_obs as obs;
pub use repro_parallel as parallel;
pub use repro_seqgen as seqgen;
pub use repro_simd as simd;
pub use repro_xmpi as xmpi;

pub use repro_align::{Alphabet, ExchangeMatrix, GapPenalties, ScoreRangeError, Scoring, Seq};
pub use repro_cluster::ClusterError;
pub use repro_core::{
    delineate, find_top_alignments, unit_consensus, Consensus, RepeatReport, Search, Stats,
    TopAlignment, TopAlignments,
};
pub use repro_core::seed::SeedConfig;
pub use repro_legacy::{find_top_alignments_old, LegacyKernel};
pub use repro_parallel::{find_top_alignments_parallel, find_top_alignments_parallel_simd};
pub use repro_simd::{
    find_top_alignments_simd, select, DispatchError, DispatchPath, LaneWidth, SimdSel,
};

pub use report::{
    BatchingSummary, HistogramSummary, PaperClaims, PhaseTiming, RunReport,
    REPORT_SCHEMA_VERSION,
};

use repro_cluster::{run_cluster, run_cluster_proc, run_hybrid, ProcOptions, DEFAULT_DEADLINE};
use repro_core::{FinderConfig, TopAlignmentFinder};
use repro_obs::{
    EventRecord, FlightRecorder, Phase, Progress, ProgressSink, Recorder, DEFAULT_EVENT_CAP,
};
use repro_xmpi::thread::FaultPlan;

/// Why a run could not start or finish: the distributed engine hit an
/// unrecoverable world, a SIMD kernel request cannot be satisfied on
/// the running CPU (e.g. forcing SSE2 at 16 lanes), or the scoring
/// scheme could overflow 32-bit scores on a sequence this long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproError {
    /// A message-passing engine failed unrecoverably.
    Cluster(ClusterError),
    /// The requested SIMD lane width / dispatch path is impossible here.
    Dispatch(DispatchError),
    /// The scoring/length pair fails [`Scoring::check_range`].
    ScoreRange(ScoreRangeError),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Cluster(e) => write!(f, "{e}"),
            ReproError::Dispatch(e) => write!(f, "{e}"),
            ReproError::ScoreRange(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<ClusterError> for ReproError {
    fn from(e: ClusterError) -> Self {
        ReproError::Cluster(e)
    }
}

impl From<DispatchError> for ReproError {
    fn from(e: DispatchError) -> Self {
        ReproError::Dispatch(e)
    }
}

impl From<ScoreRangeError> for ReproError {
    fn from(e: ScoreRangeError) -> Self {
        ReproError::ScoreRange(e)
    }
}

/// Which execution engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential `O(n³)` algorithm (paper §3).
    Sequential,
    /// Coarse-grained SIMD groups (paper §4.1) with runtime dispatch:
    /// `None` means "let the CPU probe decide". A width alone never
    /// fails (the portable kernels cover every width); an impossible
    /// explicit combination surfaces [`DispatchError`] through
    /// [`Repro::try_run`].
    SimdDispatch {
        /// Lane width, or `None` for the widest the path supports.
        width: Option<LaneWidth>,
        /// Kernel path, or `None` for the best available.
        path: Option<DispatchPath>,
    },
    /// SIMD × SMP: worker threads claiming whole groups, each realigned
    /// with the runtime-dispatched vector sweep.
    SimdThreads {
        /// Worker threads.
        threads: usize,
        /// Lane width, or `None` for the widest the path supports.
        width: Option<LaneWidth>,
        /// Kernel path, or `None` for the best available.
        path: Option<DispatchPath>,
    },
    /// Shared-memory worker threads (paper §4.2).
    Threads(usize),
    /// Distributed master/worker over in-process ranks (paper §4.3).
    Cluster {
        /// Worker ranks (one extra rank is the sacrificed master).
        workers: usize,
    },
    /// Cluster of SMPs (paper §4.3's hybrid): threads within a node
    /// share the triangle replica and row cache; nodes message-pass.
    Hybrid {
        /// SMP nodes (node 0 donates one CPU to the master).
        nodes: usize,
        /// CPUs per node.
        threads_per_node: usize,
    },
    /// The old `O(n⁴)` algorithm (Table 1's baseline).
    Legacy(LegacyKernel),
}

/// Which physical transport the message-passing [`Engine::Cluster`]
/// runs over. The protocol, recovery behaviour and alignments are
/// identical; only the substrate differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process rank threads over channels (the simulator backend):
    /// no sockets, fully deterministic fault injection. The default.
    #[default]
    Sim,
    /// Real TCP sockets: the master binds a hub and workers run
    /// [`cluster::socket_worker`] against it (as threads here; spawn
    /// separate processes with the `repro worker` subcommand for full
    /// process isolation). Membership is elastic — workers may join
    /// mid-run and die at any time.
    Proc,
}

/// High-level entry point: configure once, run on any sequence.
#[derive(Debug, Clone)]
pub struct Repro {
    scoring: Scoring,
    search: Search,
    engine: Engine,
    transport: Transport,
    low_memory: bool,
    trace: bool,
    progress: Option<ProgressSink>,
}

/// Everything a run produces: the top alignments (with work stats and
/// the override triangle), the delineated repeat report, the
/// majority-vote consensus of the repeat units, and the flight
/// recorder's structured [`RunReport`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Top alignments in acceptance order, plus stats and triangle.
    pub tops: TopAlignments,
    /// Repeat units delineated from the top alignments.
    pub report: RepeatReport,
    /// Consensus of the delineated units (`None` when no units exist).
    pub consensus: Option<Consensus>,
    /// Serializable run report: configuration, per-phase timings,
    /// engine counters, and the paper-claim ratios.
    pub run: RunReport,
    /// The structured event log (cluster engines with
    /// [`Repro::trace`] enabled; empty otherwise).
    pub events: Vec<EventRecord>,
}

impl Repro {
    /// A sequential-engine run with 10 top alignments (the paper's
    /// "typically 10–30").
    pub fn new(scoring: Scoring) -> Self {
        Repro {
            scoring,
            search: Search::new(10),
            engine: Engine::Sequential,
            transport: Transport::default(),
            low_memory: false,
            trace: false,
            progress: None,
        }
    }

    /// Set the number of top alignments to search for.
    pub fn top_alignments(mut self, count: usize) -> Self {
        self.search.count = count;
        self
    }

    /// Select the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the transport for [`Engine::Cluster`]: the in-process
    /// simulator (default) or real sockets. Other engines ignore it.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Use the linear-memory configuration of the paper's Appendix A
    /// (sparse override triangle + on-demand bottom-row recomputation).
    /// Only the [`Engine::Sequential`] engine honours this; results are
    /// identical either way, only memory/work trade off.
    pub fn low_memory(mut self, on: bool) -> Self {
        self.low_memory = on;
        self
    }

    /// Capture the structured event log (the cluster engines' per-event
    /// flight record) into [`Analysis::events`]. Off by default: event
    /// buffering has a (bounded) memory cost the timings-only recorder
    /// does not.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable the incremental-realignment layer with the given
    /// checkpoint byte budget (`None` disables it — the default;
    /// `Some(0)` enables the accounting but every sweep misses; a
    /// reasonable default budget is
    /// [`align::checkpoint::DEFAULT_CHECKPOINT_BUDGET`]). Every engine
    /// honours this; alignments are bit-identical on or off, only the
    /// DP rows actually swept change.
    pub fn checkpoint_budget(mut self, budget: Option<usize>) -> Self {
        self.search.checkpoint_budget = budget;
        self
    }

    /// Enable seeded split pruning with the given configuration (`None`
    /// disables it — the default). When enabled, an exact k-mer seed
    /// index computes an upper bound per split that provably dominates
    /// its true alignment score; splits whose bound cannot beat the
    /// current frontier are **never aligned at all**. Alignments are
    /// bit-identical on or off; only the number of splits swept changes
    /// (see the `splits_pruned` counter). Every engine except
    /// [`Engine::Legacy`] honours this.
    pub fn seed_config(mut self, seed: Option<SeedConfig>) -> Self {
        self.search.seed = seed;
        self
    }

    /// Stream periodic progress heartbeats (JSONL, one object per
    /// line) into `sink` while the run executes, and write one final
    /// line when it finishes. The recorder-holding engines (sequential,
    /// SIMD, cluster) heartbeat live mid-run; the SMP engines track
    /// their tallies worker-side and so only produce the final line.
    /// `None` (the default) disables streaming.
    pub fn progress(mut self, sink: Option<ProgressSink>) -> Self {
        self.progress = sink;
        self
    }

    /// The configured scoring scheme.
    pub fn scoring(&self) -> &Scoring {
        &self.scoring
    }

    /// Stable label for the configured engine, used in run reports.
    pub fn engine_label(&self) -> String {
        match self.engine {
            Engine::Sequential if self.low_memory => "sequential-low-memory".into(),
            Engine::Sequential => "sequential".into(),
            Engine::SimdDispatch {
                width: Some(width),
                path: None,
            } => format!("simd:{}", width.lanes()),
            Engine::SimdDispatch { .. } => "simd-dispatch".into(),
            Engine::SimdThreads { threads, .. } => format!("simd-threads:{threads}"),
            Engine::Threads(threads) => format!("threads:{threads}"),
            Engine::Cluster { workers } => match self.transport {
                Transport::Sim => format!("cluster:{workers}"),
                Transport::Proc => format!("cluster-proc:{workers}"),
            },
            Engine::Hybrid {
                nodes,
                threads_per_node,
            } => format!("hybrid:{nodes}x{threads_per_node}"),
            Engine::Legacy(kernel) => format!("legacy:{kernel:?}").to_lowercase(),
        }
    }

    /// Run the analysis. All engines return identical alignments.
    ///
    /// Panics if a distributed engine fails outright (its master rank
    /// dying — impossible without fault injection), an explicit SIMD
    /// dispatch request is unsatisfiable on this CPU, or the scoring
    /// could overflow 32-bit scores on `seq`; use [`Repro::try_run`] to
    /// handle those cases as values.
    pub fn run(&self, seq: &Seq) -> Analysis {
        self.try_run(seq).expect(
            "engine cannot fail without fault injection, an impossible dispatch request \
             or an overflowing scoring",
        )
    }

    /// Run the analysis, surfacing distributed-engine failures as a
    /// typed error instead of a panic. The message-passing engines
    /// tolerate message loss, duplication, corruption, delay and worker
    /// crashes (retrying, reassigning and finally degrading to local
    /// computation); `Err` is reserved for genuinely unrecoverable
    /// worlds (e.g. the master's own endpoint dying), for SIMD
    /// dispatch requests the running CPU cannot honour, and for a
    /// scoring/length pair outside [`Scoring::check_range`] — checked
    /// before any kernel runs, on every engine.
    pub fn try_run(&self, seq: &Seq) -> Result<Analysis, ReproError> {
        self.scoring.check_range(seq.len())?;
        let mut rec = if self.trace {
            FlightRecorder::with_events(DEFAULT_EVENT_CAP)
        } else {
            FlightRecorder::new()
        };
        if let Some(sink) = &self.progress {
            rec.set_progress(sink.clone());
        }
        let (scoring, search, deadline) = (&self.scoring, &self.search, DEFAULT_DEADLINE);
        // Every engine folds its own tallies into `rec`.
        let tops = match self.engine {
            Engine::Sequential => {
                let config = if self.low_memory {
                    FinderConfig::linear_memory(*search)
                } else {
                    FinderConfig::new(*search)
                };
                TopAlignmentFinder::new(seq, scoring, config).run_recorded(&mut rec)
            }
            Engine::SimdDispatch { width, path } => {
                find_top_alignments_simd(seq, scoring, search, select(width, path)?, &mut rec)
            }
            Engine::SimdThreads {
                threads,
                width,
                path,
            } => {
                let sel = select(width, path)?;
                find_top_alignments_parallel_simd(seq, scoring, search, threads, sel, &mut rec)
            }
            Engine::Threads(threads) => {
                find_top_alignments_parallel(seq, scoring, search, threads, &mut rec)
            }
            Engine::Cluster { workers } => match self.transport {
                Transport::Sim => {
                    let faults = FaultPlan::default();
                    run_cluster(seq, scoring, search, workers, deadline, faults, &mut rec)?.result
                }
                Transport::Proc => {
                    let opts = ProcOptions::default();
                    run_cluster_proc(seq, scoring, search, workers, deadline, &opts, &mut rec)?
                        .result
                }
            },
            Engine::Hybrid {
                nodes,
                threads_per_node: tpn,
            } => {
                let faults = FaultPlan::default();
                run_hybrid(seq, scoring, search, nodes, tpn, deadline, faults, &mut rec)?.result
            }
            Engine::Legacy(kernel) => find_top_alignments_old(seq, scoring, search.count, kernel),
        };
        if self.progress.is_some() {
            // End-of-run heartbeat, reconstructed from the final stats
            // so it is truthful for every engine — including the SMP
            // ones, which never offered a mid-run snapshot.
            let total = seq.len().saturating_sub(1) as u64;
            let pruned = tops.stats.splits_pruned;
            rec.progress_force(&Progress {
                splits_done: total.saturating_sub(pruned),
                splits_total: total,
                splits_pruned: pruned,
                realignments_avoided: tops.stats.pruned_pops + tops.stats.checkpoint_hits,
                tops_found: tops.alignments.len() as u64,
                tops_requested: search.count as u64,
            });
        }
        rec.phase_start(Phase::Delineate);
        let report = delineate(seq, &tops.alignments);
        rec.phase_end(Phase::Delineate);
        rec.phase_start(Phase::Consensus);
        let consensus = unit_consensus(seq, &report.units, &self.scoring);
        rec.phase_end(Phase::Consensus);
        let run = RunReport::capture(self.engine_label(), seq.len(), search.count, &tops, &rec);
        let events = rec.events().to_vec();
        Ok(Analysis {
            tops,
            report,
            consensus,
            run,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let r = Repro::new(Scoring::dna_example());
        assert_eq!(r.search, Search::new(10));
        assert_eq!(r.engine, Engine::Sequential);
    }

    #[test]
    fn impossible_dispatch_is_a_typed_error() {
        let seq = Seq::dna("ATGCATGC").unwrap();
        let err = Repro::new(Scoring::dna_example())
            .engine(Engine::SimdDispatch {
                width: Some(LaneWidth::X16),
                path: Some(DispatchPath::Sse2),
            })
            .try_run(&seq)
            .unwrap_err();
        let ReproError::Dispatch(e) = err else {
            panic!("expected a dispatch error, got {err:?}");
        };
        assert!(e.to_string().contains("sse2"), "{e}");
    }

    #[test]
    fn overflowing_scoring_is_a_typed_error_on_every_engine() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let huge = Scoring::new(
            ExchangeMatrix::match_mismatch(Alphabet::Dna, i32::MAX / 16, -1),
            GapPenalties::new(2, 1),
        );
        for engine in [
            Engine::Sequential,
            Engine::Threads(2),
            Engine::SimdDispatch {
                width: None,
                path: None,
            },
            Engine::Cluster { workers: 2 },
        ] {
            let err = Repro::new(huge.clone())
                .engine(engine)
                .try_run(&seq)
                .unwrap_err();
            let ReproError::ScoreRange(e) = err else {
                panic!("expected a score-range error, got {err:?}");
            };
            assert_eq!(e.len, seq.len());
            assert!(e.to_string().contains("overflow 32 bits"), "{e}");
        }
        // The same matrix on one residue pair is representable.
        let tiny = Seq::dna("AA").unwrap();
        assert!(Repro::new(huge).try_run(&tiny).is_ok());
    }

    #[test]
    fn run_report_claims_agree_between_sequential_and_simd() {
        let seq = seqgen::titin_like(240, 1);
        let scoring = Scoring::protein_default();
        let a = Repro::new(scoring.clone()).top_alignments(5).run(&seq);
        let b = Repro::new(scoring)
            .top_alignments(5)
            .engine(Engine::SimdDispatch {
                width: None,
                path: None,
            })
            .run(&seq);
        assert_eq!(a.tops.alignments, b.tops.alignments);
        // Identical acceptance schedule → identical fresh pops.
        assert_eq!(a.run.stats.fresh_pops, b.run.stats.fresh_pops);
        assert_eq!(a.run.engine, "sequential");
        assert_eq!(b.run.engine, "simd-dispatch");
        // The paper-claim ratio agrees across engines. The SIMD engine
        // realigns whole 4-lane groups, so on a short input its per-lane
        // realignment fraction is somewhat higher than the sequential
        // engine's (the gap shrinks with sequence length — the paper's
        // "< 0.70 %" is measured on multi-thousand-residue proteins).
        let da = a.run.claims.realignments_avoided;
        let db = b.run.claims.realignments_avoided;
        assert!(da > 0.9, "sequential avoided {da}");
        assert!(db > 0.8, "simd avoided {db}");
        assert!((da - db).abs() < 0.15, "avoided diverged: {da} vs {db}");
        // The SIMD engine never computes fewer alignments, and the
        // group-granularity overhead stays below doubling even here.
        let mut with_base = b.run.clone();
        with_base.set_baseline(&a.run);
        let overhead = with_base.claims.extra_alignment_overhead.unwrap();
        assert!(
            (0.0..1.0).contains(&overhead),
            "SIMD extra-alignment overhead {overhead} out of expected band"
        );
        // Both reports serialize and validate.
        for r in [&a.run, &b.run] {
            let text = r.to_json().to_string_compact();
            RunReport::validate(&obs::json::Json::parse(&text).unwrap()).unwrap();
        }
    }

    #[test]
    fn trace_captures_the_cluster_event_log() {
        let seq = Seq::dna("ATGCATGCATGCATGC").unwrap();
        let traced = Repro::new(Scoring::dna_example())
            .top_alignments(3)
            .engine(Engine::Cluster { workers: 2 })
            .trace(true)
            .run(&seq);
        assert!(traced
            .events
            .iter()
            .any(|e| matches!(e.event, obs::Event::Assign { .. })));
        assert!(traced
            .events
            .iter()
            .any(|e| matches!(e.event, obs::Event::Done { .. })));
        assert!(traced
            .run
            .phases
            .iter()
            .any(|p| p.name == "recovery" && p.entries == 1));
        let untraced = Repro::new(Scoring::dna_example())
            .top_alignments(3)
            .engine(Engine::Cluster { workers: 2 })
            .run(&seq);
        assert!(untraced.events.is_empty());
        assert_eq!(traced.tops.alignments, untraced.tops.alignments);
    }

    #[test]
    fn proc_transport_matches_sim_through_the_facade() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let base = Repro::new(Scoring::dna_example())
            .top_alignments(4)
            .engine(Engine::Cluster { workers: 2 });
        let sim = base.clone().run(&seq);
        let proc = base.transport(Transport::Proc).run(&seq);
        assert_eq!(sim.tops.alignments, proc.tops.alignments);
        assert_eq!(proc.run.engine, "cluster-proc:2");
        assert_eq!(sim.run.engine, "cluster:2");
    }

    #[test]
    fn sim_and_proc_transports_report_identical_merged_counters() {
        // The regression this pins down: worker-side tallies used to be
        // dropped on the floor by both cluster transports — the report
        // showed 0 where the sequential engine showed thousands. With
        // telemetry frames the merged cluster-wide counters must be
        // deterministic and transport-independent: same seed, same
        // work, same numbers.
        // One worker: with a single claimant the task schedule is
        // deterministic, so *every* merged work counter must agree
        // bit-for-bit (more workers put `alignments` at the mercy of
        // claim interleaving, which is exactly what this test is not
        // about).
        let seq = seqgen::titin_like(120, 7);
        let scoring = Scoring::protein_default();
        let base = Repro::new(scoring)
            .top_alignments(4)
            .checkpoint_budget(Some(repro_align::checkpoint::DEFAULT_CHECKPOINT_BUDGET))
            .engine(Engine::Cluster { workers: 1 });
        let sim = base.clone().run(&seq);
        let proc = base.transport(Transport::Proc).run(&seq);
        assert_eq!(sim.tops.alignments, proc.tops.alignments);
        // Deterministic work counters are bit-equal across transports.
        // (Timing histograms and retry counts are scheduling-dependent
        // and excluded by design.)
        assert_eq!(sim.run.stats.alignments, proc.run.stats.alignments);
        assert_eq!(sim.run.stats.cells, proc.run.stats.cells);
        assert_eq!(
            sim.run.stats.checkpoint_hits,
            proc.run.stats.checkpoint_hits
        );
        assert_eq!(
            sim.run.stats.checkpoint_misses,
            proc.run.stats.checkpoint_misses
        );
        assert_eq!(
            sim.run.stats.realign_rows_swept,
            proc.run.stats.realign_rows_swept
        );
        assert_eq!(
            sim.run.stats.realign_rows_skipped,
            proc.run.stats.realign_rows_skipped
        );
        // Lane counters only worker telemetry can deliver: 0 == 0 would
        // pass the equalities vacuously.
        let counter = |a: &Analysis, name: &str| {
            let found = a.run.counters.iter().find(|c| c.0 == name);
            found.expect("every counter is reported").1
        };
        for name in ["group_sweeps", "lanes_active"] {
            assert_eq!(counter(&sim, name), counter(&proc, name), "{name} diverged");
            assert!(
                counter(&sim, name) > 0,
                "worker {name} must survive the transport"
            );
        }
    }

    #[test]
    fn progress_sink_streams_heartbeats_and_a_final_line() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};
        use std::time::Duration;

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let seq = seqgen::titin_like(120, 3);
        let buf = SharedBuf::default();
        let sink = ProgressSink::to_writer(Box::new(buf.clone()), Duration::ZERO);
        let analysis = Repro::new(Scoring::protein_default())
            .top_alignments(3)
            .progress(Some(sink))
            .run(&seq);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Zero-period sink: the sequential engine offers a snapshot per
        // queue pop, so there are mid-run lines plus the forced final.
        assert!(lines.len() >= 2, "expected streaming heartbeats, got {lines:?}");
        for line in &lines {
            obs::json::Json::parse(line).expect("heartbeat lines are valid JSON");
        }
        let last = obs::json::Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(
            last.get("splits_total").and_then(obs::json::Json::as_u64),
            Some(seq.len() as u64 - 1)
        );
        assert_eq!(
            last.get("tops_found").and_then(obs::json::Json::as_u64),
            Some(analysis.tops.alignments.len() as u64)
        );
        assert_eq!(
            last.get("tops_requested").and_then(obs::json::Json::as_u64),
            Some(3)
        );
        // The final line reports a finished search: ETA is null.
        assert!(matches!(
            last.get("eta_secs"),
            Some(obs::json::Json::Null)
        ));
    }

    /// Under a checkpoint budget every realignment is counted exactly
    /// once, as a hit (some shortcut fired) or a miss: `hits + misses`
    /// is the stale pops past each unit's one first pass, on the row
    /// kernel and the lane kernel, inline and on two SMP workers.
    #[test]
    fn checkpoint_hits_and_misses_count_every_realignment_once() {
        let motif = "GCCAACCGCATTAGC";
        let text = format!("GTATGAAC{motif}AAAATA{motif}ATGCGAG{motif}TTGGGCGTA");
        let seq = Seq::dna(&text).unwrap();
        let auto = select(None, None).unwrap().width;
        let engines = [
            (Engine::Sequential, 1),
            (Engine::Threads(2), 1),
            (Engine::SimdDispatch { width: Some(LaneWidth::X16), path: None }, 16),
            (Engine::SimdThreads { threads: 2, width: None, path: None }, auto.lanes()),
        ];
        for (engine, lanes) in engines {
            let a = Repro::new(Scoring::dna_example())
                .top_alignments(8)
                .checkpoint_budget(Some(1 << 20))
                .engine(engine)
                .run(&seq);
            let s = &a.tops.stats;
            let units = (seq.len() - 1).div_ceil(lanes) as u64;
            assert_eq!(
                s.checkpoint_hits + s.checkpoint_misses,
                s.stale_pops - units,
                "{engine:?}"
            );
            assert!(s.checkpoint_hits > 0, "{engine:?}: no shortcut fired");
        }
    }

    #[test]
    fn seeded_pruning_matches_unseeded_and_counts_pruned_splits() {
        // Low-repeat fixture: two adjacent motif copies inside long
        // non-repetitive flanks, so most splits share no k-mer with
        // their other side and prune away.
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let base = Repro::new(Scoring::dna_example())
            .top_alignments(1)
            .run(&seq);
        let seeded = Repro::new(Scoring::dna_example())
            .top_alignments(1)
            .seed_config(Some(SeedConfig::default()))
            .run(&seq);
        assert_eq!(base.tops.alignments, seeded.tops.alignments);
        assert_eq!(base.run.stats.splits_pruned, 0);
        assert!(
            seeded.run.stats.splits_pruned > 0,
            "expected pruning on the sparse fixture"
        );
        assert!(seeded.run.stats.seed_index_build_ns > 0);
        assert!(seeded.run.stats.alignments < base.run.stats.alignments);
    }

    #[test]
    fn every_engine_agrees_through_the_facade() {
        let seq = Seq::dna("ATGCATGCATGCATGCATGC").unwrap();
        let simd = |width, path| Engine::SimdDispatch { width, path };
        let engines = [
            (Engine::Sequential, "sequential"),
            (simd(Some(LaneWidth::X4), None), "simd:4"),
            (simd(Some(LaneWidth::X8), None), "simd:8"),
            (simd(Some(LaneWidth::X16), None), "simd:16"),
            (simd(None, None), "simd-dispatch"),
            (
                simd(Some(LaneWidth::X16), Some(DispatchPath::Portable)),
                "simd-dispatch",
            ),
            (
                Engine::SimdThreads {
                    threads: 2,
                    width: None,
                    path: None,
                },
                "simd-threads:2",
            ),
            (Engine::Threads(2), "threads:2"),
            (Engine::Cluster { workers: 2 }, "cluster:2"),
            (
                Engine::Hybrid {
                    nodes: 2,
                    threads_per_node: 2,
                },
                "hybrid:2x2",
            ),
            (Engine::Legacy(LegacyKernel::Gotoh), "legacy:gotoh"),
            (Engine::Legacy(LegacyKernel::Naive), "legacy:naive"),
        ];
        let base = Repro::new(Scoring::dna_example())
            .top_alignments(4)
            .run(&seq);
        for (engine, label) in engines {
            let analysis = Repro::new(Scoring::dna_example())
                .top_alignments(4)
                .engine(engine)
                .run(&seq);
            assert_eq!(
                analysis.tops.alignments, base.tops.alignments,
                "{engine:?} disagrees"
            );
            assert_eq!(analysis.report, base.report, "{engine:?} report disagrees");
            assert_eq!(analysis.run.engine, label, "{engine:?}");
        }
    }
}
