//! The real distributed backend: master and workers as OS threads over
//! [`repro_xmpi::thread`] channels.
//!
//! Rank 0 is the sacrificed master (paper §4.3); ranks `1..P` are
//! workers holding a replicated override triangle and a cache of
//! first-pass bottom rows. A worker defers any task stamped with a
//! triangle version its replica has not reached yet — an ACCEPTED
//! broadcast and a TASK travel independently, and computing under a
//! too-old triangle would inflate a score that the master would then
//! trust as exact. (Computing under a *newer* replica is provably safe:
//! the result is still a valid upper bound and can never be mistaken for
//! fresh.)
//!
//! The master side runs the recovery loop of [`crate::recovery`]:
//! per-task deadlines with retransmission and exponential backoff,
//! liveness tracking from worker beacons, reassignment away from dead
//! workers, and a master-local fallback when every worker is lost. The
//! worker side beacons IDLE/RESYNC, requests replica resyncs when an
//! ACCEPTED broadcast went missing, and watches its own deadline so a
//! dead master never leaves a thread hanging.

use crate::protocol::{tag, AcceptedMsg, ResultMsg, ResyncMsg, TaskItem, TaskMsg, TelemetryMsg};
use crate::recovery::{
    already_deferred, idle_payload, master_loop, RecoveryConfig, BEACON_PERIOD, WORKER_POLL,
};
use repro_align::{Score, Scoring, Seq};
use repro_core::seed::SeedConfig;
use repro_core::{DirtyLog, IncrementalSweeper, OverrideTriangle, ScoredSeq, TopAlignments};
use repro_obs::{Counter, FlightRecorder, Metric, NoopRecorder, Recorder};
use repro_xmpi::thread::{FaultPlan, ThreadComm};
use repro_xmpi::{Comm, RecvError};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Distributed-engine failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No progress within the deadline (lost messages or dead peers),
    /// and even local fallback could not complete the search.
    Stalled,
    /// The master's own endpoint died; no result can be produced.
    MasterDead,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Stalled => write!(f, "cluster engine stalled (message loss?)"),
            ClusterError::MasterDead => write!(f, "cluster master crashed"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Alignments, stats and triangle — identical alignments to the
    /// sequential engine.
    pub result: TopAlignments,
    /// Total ranks (1 master + workers).
    pub ranks: usize,
}

/// Run the distributed engine with `workers` worker ranks (plus the
/// master), using real threads. `deadline` bounds the total time the
/// master spends waiting on the cluster before it degrades to local
/// computation.
pub fn find_top_alignments_cluster(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
) -> Result<ClusterResult, ClusterError> {
    find_top_alignments_cluster_faulty(seq, scoring, count, workers, deadline, FaultPlan::default())
}

/// [`find_top_alignments_cluster`] with the incremental realignment
/// layer on every worker rank: each worker keeps a checkpoint store and
/// a dirty-log replica fed by the ACCEPTED broadcasts it applies, and
/// its per-task tallies travel home inside [`ResultMsg`]. Alignments
/// are bit-identical either way.
pub fn find_top_alignments_cluster_checkpointed(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    checkpoint_budget: Option<usize>,
) -> Result<ClusterResult, ClusterError> {
    run_cluster(
        seq,
        scoring,
        count,
        workers,
        deadline,
        FaultPlan::default(),
        &mut NoopRecorder,
        checkpoint_budget,
        None,
    )
}

/// [`find_top_alignments_cluster_checkpointed`] with seeded split
/// pruning on the master: splits whose seed bound never reaches the
/// acceptance frontier are never assigned to any worker (the master
/// owns the only seed index; per-task bounds ship inside the
/// [`TaskMsg`]). Alignments are bit-identical to the unseeded run.
#[allow(clippy::too_many_arguments)] // thin wrapper over run_cluster
pub fn find_top_alignments_cluster_seeded<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    checkpoint_budget: Option<usize>,
    seed: Option<SeedConfig>,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    run_cluster(
        seq,
        scoring,
        count,
        workers,
        deadline,
        FaultPlan::default(),
        rec,
        checkpoint_budget,
        seed,
    )
}

/// [`find_top_alignments_cluster_checkpointed`] with a flight recorder
/// attached to the master (see
/// [`find_top_alignments_cluster_recorded`]).
pub fn find_top_alignments_cluster_checkpointed_recorded<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    checkpoint_budget: Option<usize>,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    run_cluster(
        seq,
        scoring,
        count,
        workers,
        deadline,
        FaultPlan::default(),
        rec,
        checkpoint_budget,
        None,
    )
}

/// [`find_top_alignments_cluster`] with fault injection on every
/// endpoint (the chaos-test hook).
pub fn find_top_alignments_cluster_faulty(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    faults: FaultPlan,
) -> Result<ClusterResult, ClusterError> {
    find_top_alignments_cluster_faulty_recorded(
        seq,
        scoring,
        count,
        workers,
        deadline,
        faults,
        &mut NoopRecorder,
    )
}

/// [`find_top_alignments_cluster`] with a flight recorder attached to
/// the master: every assign/result/retry/death/resync/fallback incident
/// is mirrored into `rec` as a structured event, which is what makes a
/// chaos-test failure replayable from its JSONL event log.
pub fn find_top_alignments_cluster_recorded<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    find_top_alignments_cluster_faulty_recorded(
        seq,
        scoring,
        count,
        workers,
        deadline,
        FaultPlan::default(),
        rec,
    )
}

/// The fully general entry point: fault injection *and* a recorder.
/// The recorder runs on the master's (calling) thread only, so it needs
/// no synchronisation; worker-side tallies travel home inside
/// [`ResultMsg`] and are folded into the master's stats.
pub fn find_top_alignments_cluster_faulty_recorded<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    faults: FaultPlan,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    run_cluster(
        seq, scoring, count, workers, deadline, faults, rec, None, None,
    )
}

/// The engine body every public entry point funnels into.
#[allow(clippy::too_many_arguments)] // the thin pub wrappers pick the knobs
fn run_cluster<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    workers: usize,
    deadline: Duration,
    faults: FaultPlan,
    rec: &mut R,
    checkpoint_budget: Option<usize>,
    seed: Option<SeedConfig>,
) -> Result<ClusterResult, ClusterError> {
    assert!(workers >= 1, "need at least one worker rank");
    let ranks = workers + 1;
    let mut world = ThreadComm::world_with_faults(ranks, faults);
    let master_comm = world.remove(0);

    rec.phase_start(repro_obs::Phase::Recovery);
    let result = std::thread::scope(|scope| {
        for comm in world {
            scope.spawn(move || worker_loop(seq, scoring, comm, deadline, checkpoint_budget));
        }
        master_loop(
            seq,
            scoring,
            count,
            master_comm,
            RecoveryConfig::with_overall(deadline),
            rec,
            seed,
        )
    });
    rec.phase_end(repro_obs::Phase::Recovery);

    result.map(|r| ClusterResult { result: r, ranks })
}

/// The worker body, generic over the transport: the exact same loop
/// serves a simulator thread (rank = a `ThreadComm` endpoint) and a
/// worker process (rank = a `SocketPeer`). See the module docs for the
/// defer/resync discipline.
pub(crate) fn worker_loop<C: Comm>(
    seq: &Seq,
    scoring: &Scoring,
    comm: C,
    deadline: Duration,
    checkpoint_budget: Option<usize>,
) {
    let input = ScoredSeq::new(seq, scoring);
    let mut triangle = OverrideTriangle::new(seq.len());
    let mut applied = 0usize; // ACCEPTED broadcasts applied so far
    let mut rows: HashMap<usize, Vec<Score>> = HashMap::new();
    // Incremental realignment state, tracking this worker's replica:
    // the dirty log records exactly the ACCEPTED broadcasts applied, so
    // its version always equals `applied`.
    let mut incr = checkpoint_budget.map(IncrementalSweeper::new);
    let mut dirty = DirtyLog::new();
    let mut deferred: Vec<TaskMsg> = Vec::new();
    // Attempts whose result we already sent once: receiving them again
    // means that result was lost, so its replacement is sent twice (a
    // single copy can phase-lock with a deterministic loss pattern).
    let mut sent: HashSet<(usize, u64)> = HashSet::new();
    let mut last_master = Instant::now();
    let mut next_beacon = Instant::now(); // fires immediately: first IDLE
    // This worker's own telemetry: sweep/resume/queue-wait samples and
    // the scratch-pool tally, shipped home as cumulative snapshots on
    // the beacon cadence. Pure observability — every frame may be lost
    // without changing the search result.
    let mut wrec = FlightRecorder::new();
    let mut tele_seq: u64 = 0;
    let mut pool_sent: u64 = 0;
    let mut idle_since = Instant::now();

    loop {
        // Run any deferred task whose stamp the replica has reached.
        // Deferred frames are single-item (batches are exploded at
        // receipt), so one pop runs one split.
        if let Some(pos) = deferred.iter().position(|t| t.stamp <= applied) {
            let task = deferred.swap_remove(pos);
            let stamp = task.stamp;
            let item = task
                .items
                .into_iter()
                .next()
                .expect("deferred frames are single-item");
            let repeat = !sent.insert((item.r, item.attempt));
            wrec.observe(Metric::QueueWaitNs, idle_since.elapsed().as_nanos() as u64);
            if !run_task(
                &input, &comm, &triangle, &mut rows, &mut incr, &dirty, applied, stamp, item,
                repeat, &mut wrec,
            ) {
                return; // endpoint (ours or the master's) is dead
            }
            idle_since = Instant::now();
            continue;
        }
        let now = Instant::now();
        if now.duration_since(last_master) > deadline {
            return; // master has gone silent for the whole budget
        }
        if now >= next_beacon {
            // Free workers re-announce IDLE (idempotent at the master —
            // it dedupes per slot — and robust to a lost first one);
            // workers stuck on deferred work send a liveness heartbeat
            // and ask for the acceptances their replica is missing.
            let beacon = if deferred.is_empty() {
                comm.send(0, tag::IDLE, idle_payload(0))
            } else {
                // Sent as a pair: a lone copy each period can land on
                // the same phase of a deterministic loss pattern every
                // time, starving the replica forever. Any received
                // traffic refreshes liveness at the master, so the
                // resync request doubles as the heartbeat.
                let _ = comm.send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                comm.send(0, tag::RESYNC, ResyncMsg { applied }.encode())
            };
            if beacon.is_err() {
                return;
            }
            // Ship the cumulative telemetry snapshot alongside the
            // beacon. The sweeper's pool tally lives outside the
            // recorder, so fold its growth in first.
            let pool = incr.as_ref().map_or(0, |s| s.pool_reuses());
            wrec.add(Counter::PoolReuses, pool - pool_sent);
            pool_sent = pool;
            tele_seq += 1;
            let frame = TelemetryMsg {
                seq: tele_seq,
                fin: false,
                snap: wrec.telemetry_snapshot(),
            };
            if comm.send(0, tag::TELEMETRY, frame.encode()).is_err() {
                return;
            }
            next_beacon = now + BEACON_PERIOD;
        }
        let msg = match comm.recv_timeout(WORKER_POLL) {
            Ok(m) => m,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Disconnected) => return,
        };
        last_master = Instant::now();
        match msg.tag {
            tag::TASK => {
                let Ok(task) = TaskMsg::decode(&msg.payload) else {
                    continue; // corrupted; the master will retransmit
                };
                let stamp = task.stamp;
                if stamp <= applied {
                    // Run the batch back to back, streaming one result
                    // per item — consecutive items are neighbouring
                    // splits (bound locality), so their checkpoint and
                    // row-cache state stays hot between runs.
                    let mut dead = false;
                    for item in task.items {
                        let repeat = !sent.insert((item.r, item.attempt));
                        wrec.observe(
                            Metric::QueueWaitNs,
                            idle_since.elapsed().as_nanos() as u64,
                        );
                        if !run_task(
                            &input, &comm, &triangle, &mut rows, &mut incr, &dirty, applied, stamp,
                            item, repeat, &mut wrec,
                        ) {
                            dead = true;
                            break;
                        }
                        idle_since = Instant::now();
                    }
                    if dead {
                        return;
                    }
                } else {
                    // Replica lags the whole batch (one stamp per
                    // frame: all-run-or-all-defer). Defer each item as
                    // its own single-item frame so per-item
                    // retransmissions dedupe against it.
                    for item in task.items {
                        let single = TaskMsg::single(stamp, item);
                        if !already_deferred(&deferred, &single) {
                            deferred.push(single);
                        }
                    }
                }
            }
            tag::ACCEPTED => {
                let Ok(acc) = AcceptedMsg::decode(&msg.payload) else {
                    // A corrupted acceptance would leave the replica
                    // behind forever; ask for it again right away.
                    let _ = comm.send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                    continue;
                };
                // Acceptances must be applied *in order*: if index k
                // was lost and k+1 arrives first, applying it and
                // claiming stamp k+2 would leave k's override pairs
                // silently missing — and every score computed under
                // that replica would be wrongly trusted as fresh.
                if acc.index > applied {
                    let _ = comm.send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                    continue;
                }
                if acc.index < applied {
                    continue; // duplicate of an already-applied acceptance
                }
                for &(p, q) in &acc.pairs {
                    triangle.set(p, q);
                }
                if incr.is_some() {
                    dirty.record_accept(&acc.pairs);
                }
                applied += 1;
            }
            tag::DONE => {
                // Final (`fin`) snapshot, sent twice so a period-2 loss
                // pattern cannot swallow the worker's whole telemetry
                // tail. Failures are moot: we are exiting either way.
                let pool = incr.as_ref().map_or(0, |s| s.pool_reuses());
                wrec.add(Counter::PoolReuses, pool - pool_sent);
                tele_seq += 1;
                let frame = TelemetryMsg {
                    seq: tele_seq,
                    fin: true,
                    snap: wrec.telemetry_snapshot(),
                };
                let payload = frame.encode();
                let _ = comm.send(0, tag::TELEMETRY, payload.clone());
                let _ = comm.send(0, tag::TELEMETRY, payload);
                return;
            }
            _ => {} // stray tag: ignore
        }
    }
}

/// Compute one task and send its result. Returns `false` when the
/// send proves an endpoint dead (ours or the master's), which is the
/// worker's cue to exit; injected drops stay invisible and are healed
/// by the master's retransmission.
#[allow(clippy::too_many_arguments)] // the worker loop threads its whole replica state
fn run_task<C: Comm>(
    input: &ScoredSeq,
    comm: &C,
    triangle: &OverrideTriangle,
    rows: &mut HashMap<usize, Vec<Score>>,
    incr: &mut Option<IncrementalSweeper>,
    dirty: &DirtyLog,
    applied: usize,
    stamp: usize,
    task: TaskItem,
    repeat: bool,
    wrec: &mut FlightRecorder,
) -> bool {
    if !task.first {
        if let Some(row) = &task.row {
            rows.insert(task.r, row.clone());
        }
    }
    let sweep_t0 = Instant::now();
    // The incremental path serves realignments, and first passes while
    // the replica is still pristine. A first pass under a grown replica
    // — a late one behind the master's seed bounds, or a retransmitted
    // attempt racing an acceptance — takes the plain path and leaves
    // the sweeper alone: seeding it there was measured (EXPERIMENTS.md,
    // PR 13) to buy a few checkpoint hits and no wall time on the
    // tandem inputs this engine is benchmarked on, for 20–30 % more
    // resident memory.
    let use_incr = incr.is_some() && (!task.first || applied == 0);
    let (score, shadow_rejections, cells, incr_tallies, first_row) = if use_incr {
        let sweeper = incr.as_mut().expect("checked incr.is_some()");
        if task.first {
            let res = sweeper.first_pass(input, task.r, triangle, 0);
            let row = res.first_row.expect("first pass returns its row");
            rows.insert(task.r, row.clone());
            (res.score, 0, res.cells, [0; 4], Some(row))
        } else {
            let original = rows
                .get(&task.r)
                .expect("realignment without cached or attached row");
            let sweep = sweeper.realign(input, task.r, triangle, original, dirty, applied as u64);
            let tallies = [
                u64::from(sweep.hit()),
                u64::from(!sweep.hit()),
                sweep.rows_swept,
                sweep.rows_skipped,
            ];
            wrec.observe(Metric::ResumeRows, sweep.rows_swept);
            (
                sweep.result.score,
                sweep.result.shadow_rejections,
                sweep.result.cells,
                tallies,
                None,
            )
        }
    } else if task.first {
        // Possibly under a grown replica — the master prunes with seed
        // bounds, so accepts can precede a first pass. The row every
        // later realignment diffs against must be the CLEAN bottom row;
        // the score reflects the mask.
        let res = repro_core::late_first_pass(input, task.r, triangle, None);
        let row = res.first_row.expect("first pass returns its row");
        rows.insert(task.r, row.clone());
        (res.score, res.shadow_rejections, res.cells, [0; 4], Some(row))
    } else {
        let original = rows
            .get(&task.r)
            .expect("realignment without cached or attached row");
        let res = input.align_task(task.r, triangle, Some(original), None);
        (res.score, res.shadow_rejections, res.cells, [0; 4], None)
    };
    wrec.observe(Metric::SweepNs, sweep_t0.elapsed().as_nanos() as u64);
    // The shipped bound dominates any score computed at or past the
    // task's stamp (masking monotonicity); a violation would mean the
    // master's seed index is broken.
    debug_assert!(
        score <= task.bound,
        "split {}: score {} above shipped bound {}",
        task.r,
        score,
        task.bound
    );
    let res = ResultMsg {
        r: task.r,
        stamp,
        attempt: task.attempt,
        score,
        cells,
        shadow_rejections,
        incr: incr_tallies,
        first_row,
    };
    let payload = res.encode();
    // A repeat means the first copy was lost en route: send two copies
    // back to back so a period-2 loss pattern cannot swallow both.
    for _ in 0..if repeat { 2 } else { 1 } {
        if comm.send(0, tag::RESULT, payload.clone()).is_err() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::find_top_alignments;

    const DL: Duration = Duration::from_secs(10);

    #[test]
    fn figure4_example_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for workers in [1, 2, 4] {
            let got = find_top_alignments_cluster(&seq, &scoring, 3, workers, DL).unwrap();
            assert_eq!(
                got.result.alignments, want.alignments,
                "{workers} workers disagree with sequential"
            );
            assert_eq!(got.ranks, workers + 1);
        }
    }

    #[test]
    fn agrees_on_varied_inputs() {
        let scoring = Scoring::dna_example();
        for text in [
            "ACGTTGCAACGTACGTTGCAGGTT",
            "AAAAAAAAAAAAAAA",
            "ACGGTACGGTAACGGTTTTTACGGT",
        ] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 5);
            for workers in [1, 3] {
                let got = find_top_alignments_cluster(&seq, &scoring, 5, workers, DL).unwrap();
                assert_eq!(
                    got.result.alignments, want.alignments,
                    "{workers} on {text}"
                );
            }
        }
    }

    #[test]
    fn protein_run() {
        let seq = Seq::protein("MGEKALVPYRLQHCMGEKALVPYRWWMGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = find_top_alignments_cluster(&seq, &scoring, 4, 2, DL).unwrap();
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn checkpointed_matches_plain_and_skips_rows() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 6);
        for budget in [Some(0), Some(1 << 20)] {
            for workers in [1, 2] {
                let got = find_top_alignments_cluster_checkpointed(
                    &seq, &scoring, 6, workers, DL, budget,
                )
                .unwrap();
                assert_eq!(
                    got.result.alignments, want.alignments,
                    "budget {budget:?}, {workers} workers"
                );
                let s = &got.result.stats;
                if budget == Some(0) {
                    assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                    assert_eq!(s.realign_rows_skipped, 0);
                    assert!(s.checkpoint_misses > 0);
                } else {
                    assert!(
                        s.checkpoint_hits > 0,
                        "{workers} workers: expected memo/checkpoint hits"
                    );
                    assert!(s.realign_rows_skipped > 0);
                }
            }
        }
    }

    #[test]
    fn seeded_matches_unpruned_across_workers_and_budgets() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 4);
            for workers in [1, 2] {
                for budget in [None, Some(1 << 20)] {
                    let got = find_top_alignments_cluster_seeded(
                        &seq,
                        &scoring,
                        4,
                        workers,
                        DL,
                        budget,
                        Some(SeedConfig::default()),
                        &mut NoopRecorder,
                    )
                    .unwrap();
                    assert_eq!(
                        got.result.alignments, want.alignments,
                        "seeded {workers} workers, budget {budget:?}, on {text}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_cluster_prunes_splits_on_low_repeat_input() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 1);
        let got = find_top_alignments_cluster_seeded(
            &seq,
            &scoring,
            1,
            2,
            DL,
            None,
            Some(SeedConfig::default()),
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(got.result.alignments, want.alignments);
        let s = &got.result.stats;
        assert!(s.splits_pruned > 0, "flank splits must never be assigned");
        assert!((s.splits_pruned as usize) < seq.len() - 1);
        assert!(s.seed_index_build_ns > 0);
    }

    #[test]
    fn exhaustion_terminates() {
        let seq = Seq::dna("ACGT").unwrap();
        let scoring = Scoring::dna_example();
        let got = find_top_alignments_cluster(&seq, &scoring, 10, 2, DL).unwrap();
        assert!(got.result.alignments.len() < 10);
    }

    #[test]
    fn message_loss_is_healed_by_retransmission() {
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        // Drop every 5th message on every endpoint: the retry layer
        // must recover every lost task, result and acceptance, and the
        // alignments must still be exactly the sequential ones.
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            5,
            2,
            Duration::from_secs(20),
            FaultPlan {
                drop_every: 5,
                ..FaultPlan::default()
            },
        )
        .expect("message loss must be recovered, not fatal");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn heavy_message_loss_completes_instead_of_stalling() {
        // The regression the recovery layer exists for: dropping every
        // 2nd message used to yield ClusterError::Stalled.
        let seq = Seq::dna(&"ATGC".repeat(6)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            3,
            2,
            Duration::from_secs(30),
            FaultPlan {
                drop_every: 2,
                ..FaultPlan::default()
            },
        )
        .expect("drop_every=2 must complete, possibly via local fallback");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn duplicated_messages_are_harmless() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            4,
            2,
            DL,
            FaultPlan {
                dup_every: 7,
                ..FaultPlan::default()
            },
        )
        .expect("duplicates must be absorbed by attempt dedup");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn corrupted_payloads_are_dropped_and_recovered() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            4,
            2,
            Duration::from_secs(20),
            FaultPlan {
                corrupt_every: 9,
                ..FaultPlan::default()
            },
        )
        .expect("corruption is detected by framing and healed by retry");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn crashed_worker_is_reassigned_around() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        // Rank 2 (a worker) dies after its first few sends; the master
        // must reassign its work to the survivor and still finish.
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            4,
            2,
            Duration::from_secs(20),
            FaultPlan {
                crash_rank: Some(2),
                crash_after_sends: 3,
                ..FaultPlan::default()
            },
        )
        .expect("a crashed worker must not sink the run");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn all_workers_crashing_degrades_to_local_fallback() {
        let seq = Seq::dna(&"ATGC".repeat(6)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        // The only worker dies almost immediately.
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            3,
            1,
            Duration::from_secs(20),
            FaultPlan {
                crash_rank: Some(1),
                crash_after_sends: 1,
                ..FaultPlan::default()
            },
        )
        .expect("losing every worker must degrade to local computation");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn all_workers_dying_at_once_mid_run_never_hangs() {
        // Recv-timeout audit (satellite): the whole pool dying at the
        // same instant — between a broadcast and its results — must
        // terminate promptly via the local fallback with the exact
        // sequential alignments, never hang on a collect that can no
        // longer complete.
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let start = Instant::now();
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            4,
            3,
            Duration::from_secs(60),
            FaultPlan {
                crash_workers_after: 4,
                ..FaultPlan::default()
            },
        )
        .expect("whole-pool death must degrade to local computation");
        assert_eq!(got.result.alignments, want.alignments);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "must not idle out the 60s budget"
        );
    }

    #[test]
    fn crashed_master_is_a_typed_error() {
        let seq = Seq::dna(&"ATGC".repeat(6)).unwrap();
        let scoring = Scoring::dna_example();
        let out = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            3,
            2,
            Duration::from_secs(5),
            FaultPlan {
                crash_rank: Some(0),
                crash_after_sends: 2,
                ..FaultPlan::default()
            },
        );
        assert_eq!(out.unwrap_err(), ClusterError::MasterDead);
    }

    #[test]
    fn recorded_chaos_run_produces_a_replayable_event_log() {
        use repro_obs::{Counter, Event, FlightRecorder, Phase};
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let mut rec = FlightRecorder::with_events(10_000);
        // Crash one of two workers mid-run: the event log must show the
        // death and the reassignments that healed it.
        let got = find_top_alignments_cluster_faulty_recorded(
            &seq,
            &scoring,
            4,
            2,
            Duration::from_secs(20),
            FaultPlan {
                crash_rank: Some(2),
                crash_after_sends: 3,
                ..FaultPlan::default()
            },
            &mut rec,
        )
        .expect("a crashed worker must not sink the recorded run");
        assert_eq!(got.result.alignments, want.alignments);

        // The recovery phase wraps the whole run.
        assert_eq!(rec.phase_entries(Phase::Recovery), 1);
        assert!(rec.phase_secs(Phase::Recovery) > 0.0);

        // The transport tallies surface both in the recorder and in the
        // result's stats, and they agree.
        assert_eq!(
            rec.counter(Counter::ClusterReassignments),
            got.result.stats.cluster_reassignments
        );
        assert_eq!(
            rec.counter(Counter::ClusterRetries),
            got.result.stats.cluster_retries
        );
        assert!(rec.counter(Counter::ClusterWorkerDeaths) >= 1);

        // The structured event stream tells the story: assignments,
        // results, the death, and a terminal Done with the right count.
        let events = rec.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::Assign { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::Result { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::WorkerDead { worker: 2 })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::Done { tops } if tops == want.alignments.len())));
        // Timestamps are monotone, so the JSONL log replays in order.
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // And every record serialises to a JSONL line.
        for e in events {
            let line = e.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn telemetry_ships_worker_histograms_and_pool_reuses_home() {
        use repro_obs::{Event, FlightRecorder, Metric};
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 6);
        let mut rec = FlightRecorder::with_events(10_000);
        let got = find_top_alignments_cluster_checkpointed_recorded(
            &seq,
            &scoring,
            6,
            2,
            DL,
            Some(1 << 20),
            &mut rec,
        )
        .unwrap();
        assert_eq!(got.result.alignments, want.alignments);
        // The workers' scratch-pool tallies come home: before the
        // telemetry channel existed they were silently lost on every
        // cluster transport and reported as 0.
        assert!(
            got.result.stats.pool_reuses > 0,
            "worker pool reuses must survive the wire"
        );
        // Master-side round trips and worker-side sweep/queue samples
        // all land in the master's merged histograms.
        for m in [Metric::TaskRoundTripNs, Metric::SweepNs, Metric::QueueWaitNs] {
            let h = rec.hist(m);
            assert!(h.count() > 0, "{} must have samples", m.name());
            assert!(h.p99() >= h.p50(), "{} quantiles inverted", m.name());
        }
        // Telemetry folds appear in the event log as a per-worker
        // timeline with strictly increasing sequence numbers.
        let mut last_seq: HashMap<usize, u64> = HashMap::new();
        let mut folds = 0;
        for e in rec.events() {
            if let Event::Telemetry { worker, seq, .. } = e.event {
                let prev = last_seq.entry(worker).or_insert(0);
                assert!(seq > *prev, "worker {worker} telemetry folded out of order");
                *prev = seq;
                folds += 1;
            }
        }
        assert!(folds > 0, "telemetry events must appear in the log");
    }

    #[test]
    fn delayed_messages_do_not_change_the_answer() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = find_top_alignments_cluster_faulty(
            &seq,
            &scoring,
            4,
            3,
            Duration::from_secs(20),
            FaultPlan {
                delay_every: 4,
                delay: Duration::from_millis(70),
                ..FaultPlan::default()
            },
        )
        .expect("delays reorder traffic but never corrupt the schedule");
        assert_eq!(got.result.alignments, want.alignments);
    }
}
