//! # repro-cluster — the distributed-memory engine (paper §4.3) and the
//! DAS-2 cluster simulator (Figure 8)
//!
//! One processor (rank 0, the **master**) is sacrificed to own the task
//! queue and the bottom-row store and to hand work to **workers**,
//! exactly as the paper does to fit the MPI paradigm. The override
//! triangle is replicated: each acceptance is broadcast and applied
//! locally. First-pass bottom rows travel worker → master once and are
//! pushed back to a worker with its task when it does not hold a cached
//! copy (the paper has workers *pull* replicas; pushing with the task is
//! the same caching behaviour minus one round trip).
//!
//! Three entry points, one shape — the shared [`repro_core::Search`]
//! says *what* to find, the rest says where it runs:
//! [`run_cluster`]`(seq, scoring, &search, workers, deadline, faults, rec)`
//! on in-process rank threads,
//! [`run_cluster_proc`]`(.., workers, deadline, &ProcOptions, rec)` over
//! real sockets, and
//! [`run_hybrid`]`(.., nodes, threads_per_node, deadline, faults, rec)`
//! for the cluster of SMPs. All three drive the same master loop on the
//! calling thread — which is why the recorder needs no synchronisation: events
//! are recorded live, worker telemetry frames are folded as they arrive
//! and the final stats are mirrored at the end — and return a
//! [`ClusterResult`]: the plain top alignments plus the ranks that took
//! part ([`DEFAULT_DEADLINE`] is the budget to pass when there is no
//! reason to pick another).
//!
//! The crate is layered so the scheduling logic exists once:
//!
//! * [`master`] — the pure master state machine (no I/O; time is an
//!   input): feed it worker events and the clock, get back protocol
//!   actions. Acceptance fires exactly when the globally best upper
//!   bound is fresh, so the distributed engine emits the same alignments
//!   as every other engine. It speculates best-first, bounds a batch in
//!   lanes, not units (up to four splits, or one lane pack), and owns
//!   every fault rule: per-task retry with exponential backoff, the
//!   silent-worker rule, reassignment away from dead workers and the
//!   master-local sequential fallback.
//! * [`protocol`] — message tags and payload codecs.
//! * [`recovery`] — the transport loop every message-passing master
//!   runs: it hands the master the clock and the messages, sends what
//!   it returns, and owns the run's budget, the event log and the
//!   worker telemetry.
//! * [`engine`] — the real backend on [`repro_xmpi::thread`], and the
//!   one worker every transport runs: a rank of `T` sweep threads over
//!   one replica (one thread in a flat cluster, a node's CPUs in the
//!   [`hybrid`] configuration). Injected message loss is healed by
//!   retransmission and surfaces, at worst, as a typed error — never a
//!   hang.
//! * [`proc`] — the same protocol over real TCP sockets
//!   ([`repro_xmpi::socket`]) with workers in their own processes (or
//!   threads, for tests). Membership is elastic: workers join mid-run
//!   via the hub's greeting replay and leave by dying; socket-level
//!   chaos rides through a frame-aware fault proxy.
//! * [`sim`] — the same protocol on [`repro_xmpi::virtual_time`]: real
//!   alignment computations, virtual clocks, calibrated per-cell costs
//!   and a Myrinet-class link model. This regenerates Figure 8 on one
//!   machine, for any processor count (see DESIGN.md, substitutions).

#![warn(missing_docs)]

pub mod engine;
pub mod hybrid;
pub mod master;
pub mod proc;
pub mod protocol;
pub mod recovery;
pub mod sim;

pub use engine::{run_cluster, ClusterError, ClusterResult};
pub use hybrid::run_hybrid;
pub use master::{MasterAction, MasterState, LOCAL_WORKER};
pub use proc::{
    maybe_run_worker_from_env, run_cluster_proc, socket_worker, ProcOptions, SpawnMode,
    WorkerError, WORKER_ENV,
};
pub use recovery::DEFAULT_DEADLINE;
pub use sim::{simulate_cluster, AlignCache, CostModel, SimReport};
