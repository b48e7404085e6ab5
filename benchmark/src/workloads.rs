//! The five workloads: what each feeds the program, through which
//! engine, and why it exists. `README.md` has the same table in prose.

use repro::align::checkpoint::DEFAULT_CHECKPOINT_BUDGET;
use repro::{Engine, Repro, Scoring, SeedConfig, Seq, Transport};
use repro_seqgen::titin::{titin_like_with, TitinParams};
use repro_seqgen::{PlantedRepeats, RepeatKind, RepeatSpec, Rng};

/// Worker ranks of the cluster workload (the master is event-driven and
/// mostly asleep, so this fits a two-core host).
pub const CLUSTER_WORKERS: usize = 2;

/// Compute threads of the SMP workload: `min(nproc, 4)`.
pub fn smp_threads() -> usize {
    crate::sys::nproc().min(4)
}

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `Engine::Sequential`: the scalar single-thread baseline.
    Sequential,
    /// `Engine::SimdDispatch { None, None }` on one thread.
    Simd,
    /// `Engine::SimdThreads` on [`smp_threads`] threads.
    SimdSmp,
    /// `Engine::Cluster` over `Transport::Proc` (TCP loopback).
    ClusterProc,
}

impl EngineKind {
    /// Compute workers the engine runs: threads or cluster ranks.
    pub fn workers(self) -> usize {
        match self {
            EngineKind::Sequential | EngineKind::Simd => 1,
            EngineKind::SimdSmp => smp_threads(),
            EngineKind::ClusterProc => CLUSTER_WORKERS,
        }
    }
}

/// One workload: an input family, an engine, and the reason it exists.
///
/// An input is a *batch* of independent sequences (a multi-record FASTA
/// file, analysed record by record). The program's work on any single
/// sequence is chaotic in the residues — changing 1 % of them moves the
/// cell count by ±30 % — so a single-sequence workload cannot be steady
/// across seeds; a batch of low-variance sequences averages that out
/// (`README.md` has the measurements behind the batch sizes).
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in results.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Top alignments requested per sequence.
    pub tops: usize,
    /// Sequences per batch.
    pub jobs: usize,
    /// Engine under measurement.
    pub engine: EngineKind,
    /// Whether the program's work counts repeat exactly from run to run
    /// (single-threaded engines: yes; threads and sockets: no).
    pub exact_counts: bool,
    sequence: fn(seed: u64, smoke: bool) -> Seq,
    protein: bool,
}

fn dense_protein(seed: u64, smoke: bool) -> Seq {
    // One domain family at fixed domain and linker lengths: every
    // shift-by-k-domains diagonal is a full chain of similar pairs, so
    // the realignment load is regular. (The default two families with
    // random lengths swing the work 3x between seeds.)
    let params = TitinParams {
        families: 1,
        domain_len: (95, 95),
        linker_len: (5, 5),
        substitution_rate: 0.4,
        ..TitinParams::default()
    };
    titin_like_with(if smoke { 300 } else { 600 }, seed, &params)
}

fn protein_island(seed: u64, smoke: bool) -> Seq {
    // Three well-conserved 64-residue copies, 32-64 residues apart,
    // between long unrelated flanks: about half the splits survive
    // pruning and each of those is swept exactly once. (At the preset's
    // 30 % substitution rate the surviving share hinges on whether one
    // chance alignment in the flanks beats a copy pair, and the work
    // swings 4x between seeds.)
    let spec = RepeatSpec {
        flank: if smoke { 20 } else { 1200 },
        substitution_rate: 0.05,
        kind: RepeatKind::Interspersed {
            min_spacer: 32,
            max_spacer: 64,
        },
        ..RepeatSpec::protein_interspersed(if smoke { 40 } else { 64 }, 3)
    };
    PlantedRepeats::generate(&spec, seed).seq
}

fn dna_loose(seed: u64, smoke: bool) -> Seq {
    let spec = if smoke {
        RepeatSpec {
            flank: 40,
            ..RepeatSpec::dna_sparse_island(32, 4)
        }
    } else {
        RepeatSpec {
            flank: 100,
            ..RepeatSpec::dna_sparse_island(50, 4)
        }
    };
    PlantedRepeats::generate(&spec, seed).seq
}

fn dna_tandem(seed: u64, smoke: bool) -> Seq {
    let spec = RepeatSpec::dna_tandem(25, if smoke { 8 } else { 12 });
    PlantedRepeats::generate(&spec, seed).seq
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "protein_dense_simd",
        why: "Repeat-dense proteins on one SIMD thread: mostly realignment (lane compaction, checkpoint resume, queue) plus full-matrix tracebacks; parallel, cluster and xmpi do nothing.",
        tops: 20,
        engine: EngineKind::Simd,
        exact_counts: true,
        jobs: 16,
        sequence: dense_protein,
        protein: true,
    },
    Workload {
        name: "protein_dense_smp",
        why: "The same batch and cells scheduled by the SMP layer: speculation, queue contention, idle time and the serial traceback bound the speed-up; tops must equal protein_dense_simd's.",
        tops: 20,
        engine: EngineKind::SimdSmp,
        exact_counts: false,
        jobs: 16,
        sequence: dense_protein,
        protein: true,
    },
    Workload {
        name: "protein_island_simd",
        why: "Three conserved copies between long unrelated flanks: almost pure first-pass, full-width SIMD sweeps of the largest matrices; half the splits pruned, next to no resume.",
        tops: 1,
        engine: EngineKind::Simd,
        exact_counts: true,
        jobs: 4,
        sequence: protein_island,
        protein: true,
    },
    Workload {
        name: "dna_loose_seq",
        why: "The plain single-threaded scalar baseline on DNA, where chance matches keep the pruning bounds loose; simd, parallel and cluster do nothing.",
        tops: 5,
        engine: EngineKind::Sequential,
        exact_counts: true,
        jobs: 24,
        sequence: dna_loose,
        protein: false,
    },
    Workload {
        name: "dna_tandem_cluster",
        why: "Thousands of sub-millisecond tasks over TCP loopback to two workers: each waits on a protocol round trip, so framing, batching and sockets show; only cluster and xmpi changes should move it.",
        tops: 18,
        engine: EngineKind::ClusterProc,
        exact_counts: false,
        jobs: 16,
        sequence: dna_tandem,
        protein: false,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The batch for `seed`: every sequence drawn from the workload's
    /// family with its own sub-seed. `smoke` shrinks the batch to two
    /// sequences of at most 300 residues for the self-test; smoke
    /// results are never comparable.
    pub fn inputs(&self, seed: u64, smoke: bool) -> Vec<Seq> {
        let mut rng = Rng::new(seed);
        let jobs = if smoke { 2 } else { self.jobs };
        (0..jobs)
            .map(|_| (self.sequence)(rng.next_u64(), smoke))
            .collect()
    }

    /// The scoring scheme a CLI user gets for this alphabet.
    pub fn scoring(&self) -> Scoring {
        if self.protein {
            Scoring::protein_default()
        } else {
            Scoring::dna_example()
        }
    }

    /// The run under measurement, configured as the CLI configures it:
    /// seeded pruning on, default checkpoint budget. (Only the cluster
    /// engine looks at the transport.)
    pub fn measured(&self) -> Repro {
        with_cli_defaults(
            self.plain(engine_of(self.engine))
                .transport(Transport::Proc),
        )
    }

    /// The correctness oracle: the same input on the SIMD engine with
    /// pruning and checkpointing off.
    pub fn oracle(&self) -> Repro {
        self.plain(engine_of(EngineKind::Simd))
    }

    /// The run `golden.json` was recorded from: the plain sequential
    /// engine, no pruning, no checkpoints, no SIMD.
    pub fn golden(&self) -> Repro {
        self.plain(Engine::Sequential)
    }

    /// The single-thread SIMD run with CLI defaults: the reference the
    /// SMP workload's scaling efficiency is taken against.
    pub fn single_thread_reference(&self) -> Repro {
        with_cli_defaults(self.plain(engine_of(EngineKind::Simd)))
    }

    fn plain(&self, engine: Engine) -> Repro {
        Repro::new(self.scoring())
            .top_alignments(self.tops)
            .engine(engine)
    }
}

fn with_cli_defaults(run: Repro) -> Repro {
    run.checkpoint_budget(Some(DEFAULT_CHECKPOINT_BUDGET))
        .seed_config(Some(SeedConfig::new(6)))
}

fn engine_of(kind: EngineKind) -> Engine {
    match kind {
        EngineKind::Sequential => Engine::Sequential,
        EngineKind::Simd => Engine::SimdDispatch {
            width: None,
            path: None,
        },
        EngineKind::SimdSmp => Engine::SimdThreads {
            threads: smp_threads(),
            width: None,
            path: None,
        },
        EngineKind::ClusterProc => Engine::Cluster {
            workers: CLUSTER_WORKERS,
        },
    }
}
