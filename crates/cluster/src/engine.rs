//! The real distributed backend: master and workers as OS threads over
//! [`repro_xmpi::thread`] channels.
//!
//! Rank 0 is the sacrificed master (paper §4.3); ranks `1..P` are
//! workers holding a replicated override triangle and a cache of
//! first-pass bottom rows. A worker runs `T` sweep threads over one
//! replica — one in [`run_cluster`] and in a worker process, a node's
//! CPUs in [`crate::run_hybrid`] — that share everything, their packs'
//! state included, and take turns on the rank's endpoint behind a
//! mutex, as the paper guards its MPI calls.
//!
//! A worker reads its inbox in arrival order, and a thread reads the
//! next message only when nothing queued can run: every task item goes
//! into one run queue, and an item stamped with a triangle version the
//! replica has not reached yet waits there — an ACCEPTED broadcast and a
//! TASK travel independently, and a sweep under a too-old triangle is
//! work the master could only file as stale. With one thread, what an
//! item is computed against is therefore decided by the order of the
//! master's messages, never by how their arrival interleaves with the
//! sweeps, and a result reports that version (the replica's, at or past
//! the task's stamp): the master trusts a score as exact only when the
//! version is its own. The worker announces `PREFETCH_SLOTS` capacity
//! slots per thread, so the next task is already in its inbox when the
//! current one ends, and sends every result in its own frame the moment
//! its item ends.
//!
//! The master side runs the recovery loop of [`crate::recovery`]:
//! per-task deadlines with retransmission and exponential backoff,
//! liveness tracking from worker beacons, reassignment away from dead
//! workers, and a master-local fallback when every worker is lost. The
//! worker side beacons IDLE/RESYNC, requests replica resyncs when an
//! ACCEPTED broadcast went missing, and watches its own deadline so a
//! dead master never leaves a thread hanging.

use crate::master::{Claim, MasterState};
use crate::protocol::{tag, AcceptedMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg, TelemetryMsg};
use crate::recovery::{idle_payload, master_loop, RecoveryConfig, BEACON_PERIOD, WORKER_POLL};
use parking_lot::{Mutex, MutexGuard};
use repro_align::{Scoring, Seq};
use repro_core::{
    Common, LanePacks, OverrideTriangle, PackKernel, PackUnit, Search, TopAlignment, TopAlignments,
};
use repro_obs::{FlightRecorder, Metric, Recorder};
use repro_simd::{select, GroupSweeper, SimdSel};
use repro_xmpi::thread::{FaultPlan, ThreadComm};
use repro_xmpi::{Comm, Message, RecvError};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
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

/// Result of a message-passing run ([`run_cluster`],
/// [`crate::run_cluster_proc`], [`crate::run_hybrid`]).
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Alignments, stats and triangle — identical alignments to the
    /// sequential engine.
    pub result: TopAlignments,
    /// Total ranks (1 master + workers or nodes). Over sockets this
    /// counts every worker ever admitted, so elastic joins are visible
    /// to the caller.
    pub ranks: usize,
}

/// Run the distributed engine with `workers` worker ranks (plus the
/// master), using real threads. `deadline` bounds the total time the
/// master spends waiting on the cluster before it degrades to local
/// computation; `faults` injects message faults on every endpoint (the
/// chaos-test hook — [`FaultPlan::default`] is a clean world).
///
/// A task is a lane pack ([`PackUnit`]) at the width and on the path
/// the CPU probe picks (`select(None, None)`, no knob), swept by the
/// group kernel ([`GroupSweeper`]) on every worker. With `search.checkpoint_budget` set,
/// each worker keeps its packs' lane memos and checkpoints, stamped
/// against the ACCEPTED broadcasts it applies, and its tallies travel
/// home inside [`crate::protocol::ResultMsg`]. With `search.seed` set
/// the master — which owns the only seed index — never assigns a pack
/// whose bound stays below the acceptance frontier; per-task bounds ship
/// inside the [`TaskMsg`]. Alignments are bit-identical with either
/// layer on or off.
///
/// `rec` runs on the master's (calling) thread only, so it needs no
/// synchronisation: every assign/result/retry/death/resync/fallback
/// incident is mirrored into it as a structured event (what makes a
/// chaos failure replayable from its JSONL log), worker telemetry is
/// folded in as it arrives, and the final `Stats` are mirrored at the
/// end.
pub fn run_cluster<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    workers: usize,
    deadline: Duration,
    faults: FaultPlan,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    assert!(workers >= 1, "need at least one worker rank");
    run_ranks(
        seq,
        scoring,
        search,
        &vec![1; workers],
        deadline,
        faults,
        rec,
    )
}

/// The thread-backed world both [`run_cluster`] and
/// [`crate::run_hybrid`] are: a master on the calling thread and one
/// worker rank per entry of `threads`, with that many sweep threads (a
/// rank with none never registers), over a [`ThreadComm`] world with
/// `faults` on every endpoint.
pub(crate) fn run_ranks<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    threads: &[usize],
    deadline: Duration,
    faults: FaultPlan,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    let ranks = threads.len() + 1;
    let mut world = ThreadComm::world_with_faults(ranks, faults);
    let master_comm = world.remove(0);
    let sel = cluster_sel();
    let packs = || {
        PackUnit::new(
            GroupSweeper::new(seq, scoring, sel),
            search.checkpoint_budget,
        )
    };

    rec.phase_start(repro_obs::Phase::Recovery);
    let result = std::thread::scope(|scope| {
        let workers: Vec<_> = world
            .into_iter()
            .zip(threads)
            .filter(|&(_, &t)| t > 0)
            .map(|(comm, &t)| {
                scope.spawn(move || worker_loop(packs(), seq, scoring, comm, deadline, t))
            })
            .collect();
        let config = RecoveryConfig::with_overall(deadline);
        let master = MasterState::with_unit(packs(), seq, scoring, search);
        let result = master_loop(master, master_comm, config, rec);
        join_all(workers);
        result
    });
    rec.phase_end(repro_obs::Phase::Recovery);

    result.map(|r| ClusterResult { result: r, ranks })
}

/// Join each OS thread, not only its closure (all a scope waits for): a
/// thread still exiting holds its malloc arena, so the next run's
/// threads would each open a new one. A thread's panic goes on up.
fn join_all(threads: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for thread in threads {
        if let Err(panic) = thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The cluster engines' kernel: `select(None, None)`, no knob. Its width
/// cuts the packs; a worker process sweeps them on its own best path.
pub(crate) fn cluster_sel() -> SimdSel {
    select(None, None).expect("the automatic selection always resolves")
}

/// Task frames a worker asks the master to keep with each of its sweep
/// threads, each a capacity slot announced by IDLE: one task being swept
/// and one waiting in the inbox behind it, so the end of a task never
/// waits a master round trip. Depth 3 measured slower than 2; with one
/// pack to a frame, depth 1 read 1 % slower than 2 on wall time and 6 %
/// lower on CPU, so 2 stays (EXPERIMENTS.md, "Cluster workers kept fed"
/// and "Cluster speculation bounded in lanes").
pub(crate) const PREFETCH_SLOTS: usize = 2;

/// One item of a received task frame, waiting its turn.
struct Queued {
    /// Replica version the item must at least run under.
    stamp: usize,
    item: TaskItem,
}

/// A worker rank: what its sweep threads share. The profiled sequence
/// and its rows (written once each) need no lock, the endpoint has its
/// own, and everything else sits under one lock in [`Replica`]; a thread
/// keeps only its idle clock.
struct Worker<'a, C, K: PackKernel> {
    unit: PackUnit<K>,
    /// The profiled sequence and every first-pass row this worker has
    /// computed or been sent.
    common: Common<'a>,
    comm: Mutex<C>,
    replica: Mutex<Replica>,
    threads: usize,
    /// Test hook: extra wall time every sweep takes.
    #[cfg(test)]
    sweep_pad: Duration,
}

/// A worker's replica, run queue and telemetry, under its lock.
struct Replica {
    /// The override triangle: a sweep holds a snapshot, so an ACCEPTED
    /// copies it only while another thread sweeps.
    triangle: Arc<OverrideTriangle>,
    /// The ACCEPTED broadcasts applied so far, in order: the replica's
    /// version is their count, and the unit's plan stamps against them.
    accepted: Vec<TopAlignment>,
    /// The unit's state the threads share.
    packs: LanePacks,
    /// Every received task item not yet run, in arrival order. An item
    /// runs once the replica has reached its stamp and no other thread
    /// sweeps its unit.
    queue: VecDeque<Queued>,
    /// The units being swept.
    running: Vec<usize>,
    /// Attempts whose result already went out once: receiving them again
    /// means that result was lost, so its replacement is sent twice (a
    /// single copy can phase-lock with a deterministic loss pattern).
    sent: HashSet<(usize, u64)>,
    last_master: Instant,
    next_beacon: Instant,
    /// DONE, a dead endpoint or a silent master: every thread exits.
    done: bool,
    // This worker's own telemetry: sweep/resume/queue-wait samples and
    // the lane counters of its commits, shipped home as cumulative
    // snapshots on the beacon cadence. Pure observability — every frame
    // may be lost without changing the search result.
    wrec: FlightRecorder,
    tele_seq: u64,
}

impl Replica {
    /// ACCEPTED broadcasts applied so far: the replica's version.
    fn applied(&self) -> usize {
        self.accepted.len()
    }

    /// The next cumulative telemetry frame.
    fn telemetry(&mut self, fin: bool) -> Vec<u8> {
        self.tele_seq += 1;
        TelemetryMsg {
            seq: self.tele_seq,
            fin,
            snap: self.wrec.telemetry_snapshot(),
        }
        .encode()
    }
}

/// The worker body, generic over the transport and the kernel: the exact
/// same loop serves a simulator thread (rank = a `ThreadComm` endpoint),
/// a worker process (rank = a `SocketPeer`) and a hybrid node, on
/// `threads` sweep threads (the calling one among them). See the module
/// docs for the message-order/resync discipline.
pub(crate) fn worker_loop<C: Comm + Send, K: PackKernel>(
    unit: PackUnit<K>,
    seq: &Seq,
    scoring: &Scoring,
    comm: C,
    deadline: Duration,
    threads: usize,
) {
    Worker::new(unit, seq, scoring, comm, threads).serve(deadline);
}

impl<'a, C: Comm + Send, K: PackKernel> Worker<'a, C, K> {
    fn new(unit: PackUnit<K>, seq: &'a Seq, scoring: &'a Scoring, comm: C, threads: usize) -> Self {
        assert!(threads >= 1, "a worker needs a sweep thread");
        let now = Instant::now();
        Worker {
            common: Common::new(seq, scoring),
            comm: Mutex::new(comm),
            replica: Mutex::new(Replica {
                triangle: Arc::new(OverrideTriangle::new(seq.len())),
                accepted: Vec::new(),
                packs: unit.packs(),
                queue: VecDeque::new(),
                running: Vec::new(),
                sent: HashSet::new(),
                last_master: now,
                next_beacon: now, // fires immediately: first IDLE
                done: false,
                wrec: FlightRecorder::new(),
                tele_seq: 0,
            }),
            unit,
            threads,
            #[cfg(test)]
            sweep_pad: Duration::ZERO,
        }
    }

    /// Serve the master on every sweep thread until DONE, a dead
    /// endpoint, or `deadline` of silence from it.
    fn serve(&self, deadline: Duration) {
        std::thread::scope(|scope| {
            let threads: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(|| self.sweep_thread(deadline)))
                .collect();
            self.sweep_thread(deadline);
            join_all(threads);
        });
    }

    /// One sweep thread: run what can run, else beacon when due and take
    /// a turn on the endpoint.
    fn sweep_thread(&self, deadline: Duration) {
        let mut idle_since = Instant::now();
        loop {
            let mut replica = self.replica.lock();
            if replica.done {
                return;
            }
            let (applied, running) = (replica.applied(), &replica.running);
            let runnable = |q: &Queued| q.stamp <= applied && !running.contains(&q.item.unit);
            if let Some(pos) = replica.queue.iter().position(runnable) {
                if !self.run(replica, pos, idle_since) {
                    break; // endpoint (ours or the master's) is dead
                }
                idle_since = Instant::now();
                continue;
            }
            let now = Instant::now();
            if now.duration_since(replica.last_master) > deadline {
                break; // master has gone silent for the whole budget
            }
            let beacon = (now >= replica.next_beacon).then(|| {
                replica.next_beacon = now + BEACON_PERIOD;
                self.beacon(&mut replica)
            });
            drop(replica);
            if beacon.is_some_and(|frames| !self.send(frames)) {
                break;
            }
            let msg = self.comm.lock().recv_timeout(WORKER_POLL);
            let alive = match msg {
                Ok(msg) => self.on_message(msg),
                Err(RecvError::Timeout) => true,
                Err(RecvError::Disconnected) => false,
            };
            if !alive {
                break;
            }
        }
        // The other threads stop at their next look at the replica.
        self.replica.lock().done = true;
    }

    /// Send `frames` to the master in order, stopping at the first
    /// failure. Returns `false` when a send proves an endpoint dead
    /// (ours or the master's), which is the worker's cue to exit;
    /// injected drops stay invisible and are healed by the master's
    /// retransmission.
    fn send(&self, frames: Vec<(u32, Vec<u8>)>) -> bool {
        let comm = self.comm.lock();
        frames
            .into_iter()
            .all(|(tag, payload)| comm.send(0, tag, payload).is_ok())
    }

    /// Handle one message from the master. Returns `false` on DONE.
    fn on_message(&self, msg: Message) -> bool {
        let mut replica = self.replica.lock();
        replica.last_master = Instant::now();
        match msg.tag {
            tag::TASK => {
                let Ok(task) = TaskMsg::decode(&msg.payload, &self.unit) else {
                    return true; // corrupted; the master will retransmit
                };
                for item in task.items {
                    // A retransmission of an item still waiting here
                    // will be answered when that one runs.
                    if !replica.queue.iter().any(|q| q.item.same_attempt(&item)) {
                        let stamp = task.stamp;
                        replica.queue.push_back(Queued { stamp, item });
                    }
                }
            }
            // Acceptances must be applied *in order*: if index k was
            // lost and k+1 arrives first, applying it and claiming
            // version k+2 would leave k's override pairs silently
            // missing — and every score computed under that replica
            // would be wrongly trusted as fresh. A corrupted one would
            // leave the replica behind forever. Either way, ask for the
            // missing ones right away.
            tag::ACCEPTED => match AcceptedMsg::decode(&msg.payload) {
                Ok(acc) if acc.index < replica.applied() => {} // a duplicate
                Ok(acc) if acc.index == replica.applied() => {
                    let Replica {
                        triangle, accepted, ..
                    } = &mut *replica;
                    acc.apply(Arc::make_mut(triangle), accepted);
                }
                _ => {
                    let applied = replica.applied();
                    drop(replica);
                    let _ = self.send(vec![(tag::RESYNC, ResyncMsg { applied }.encode())]);
                }
            },
            tag::DONE => {
                // Final (`fin`) snapshot, sent twice so a period-2 loss
                // pattern cannot swallow the worker's whole telemetry
                // tail. Failures are moot: we are exiting either way.
                let payload = replica.telemetry(true);
                drop(replica);
                self.send(vec![
                    (tag::TELEMETRY, payload.clone()),
                    (tag::TELEMETRY, payload),
                ]);
                return false;
            }
            _ => {} // stray tag: ignore
        }
        true
    }

    /// The beacon of a thread with nothing to run, and the cumulative
    /// telemetry snapshot that rides along.
    fn beacon(&self, replica: &mut Replica) -> Vec<(u32, Vec<u8>)> {
        // A worker with an empty queue re-announces every slot as IDLE
        // (idempotent at the master — it dedupes per slot, so slots busy
        // on other threads stay busy — and robust to a lost first one);
        // a worker whose whole queue waits sends a liveness heartbeat
        // and asks for the acceptances its replica is missing.
        let mut frames: Vec<_> = if replica.queue.is_empty() {
            let slots = 0..self.threads * PREFETCH_SLOTS;
            slots.map(|slot| (tag::IDLE, idle_payload(slot))).collect()
        } else {
            // Sent as a pair: a lone copy each period can land on the
            // same phase of a deterministic loss pattern every time,
            // starving the replica forever. Any received traffic
            // refreshes liveness at the master, so the resync request
            // doubles as the heartbeat.
            let resync = ResyncMsg {
                applied: replica.applied(),
            }
            .encode();
            vec![(tag::RESYNC, resync.clone()), (tag::RESYNC, resync)]
        };
        frames.push((tag::TELEMETRY, replica.telemetry(false)));
        frames
    }

    /// Run the queued item at `pos`: plan it under the lock, sweep it
    /// unlocked against the replica as it stands, commit it under the
    /// lock again, then send the result. Returns `false` when a send
    /// proves an endpoint dead.
    fn run(&self, mut replica: MutexGuard<'_, Replica>, pos: usize, idle_since: Instant) -> bool {
        let Queued { item, .. } = replica.queue.remove(pos).expect("position is in range");
        let (u, repeat) = (item.unit, !replica.sent.insert((item.unit, item.attempt)));
        replica.running.push(u);
        let waited = idle_since.elapsed().as_nanos() as u64;
        replica.wrec.observe(Metric::QueueWaitNs, waited);
        let Replica {
            triangle,
            accepted,
            packs,
            ..
        } = &mut *replica;
        let mut claim = Claim::new(&self.unit, packs, (&self.common, accepted), item);
        let triangle = Arc::clone(triangle);
        drop(replica);
        #[cfg(test)]
        std::thread::sleep(self.sweep_pad);
        claim.sweep(&triangle);
        drop(triangle);
        let mut replica = self.replica.lock();
        replica.running.retain(|&v| v != u);
        let Replica { packs, wrec, .. } = &mut *replica;
        let res = claim.commit(packs, wrec);
        drop(replica);
        // A repeat means an earlier copy was lost en route: send two
        // copies back to back so a period-2 loss pattern cannot swallow
        // both.
        let payload = ResultsMsg { items: vec![res] }.encode();
        let copies = if repeat { 2 } else { 1 };
        self.send(vec![(tag::RESULT, payload); copies])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::master::{Timeouts, MAX_BATCH};
    use crate::protocol::{ResultMsg, Work};
    use repro_align::Score;
    use repro_core::{find_top_alignments, ScoredSeq, SeedConfig, Stats};
    use repro_obs::{Counter, NoopRecorder};
    use repro_xmpi::SendError;
    use std::collections::HashMap;

    const DL: Duration = Duration::from_secs(10);

    /// Three copies of a 15-nt motif, 75 nt, 6 tops at a 1 MiB budget:
    /// the inline `simd` engine hits a memo here, and two cluster workers
    /// hit at least two in each of 130 runs measured (×16).
    pub(crate) fn three_copies() -> String {
        let motif = "GCCAACCGCATTAGC";
        format!("GTATGAAC{motif}AAAATA{motif}ATGCGAG{motif}TTGGGCGTA")
    }

    /// A low-repeat input long enough for seeded pruning to keep whole
    /// ×16 packs off every worker: three 24-nt copies between two
    /// 288-nt flanks.
    pub(crate) fn island() -> Seq {
        let spec = repro_seqgen::RepeatSpec::dna_sparse_island(24, 3);
        repro_seqgen::PlantedRepeats::generate(&spec, 7).seq
    }

    /// 1-lane packs under the row kernel: what the scheduling tests
    /// below drive, so that a batch holds as many tasks as they need.
    fn rows_of<'s>(seq: &'s Seq, scoring: &'s Scoring) -> PackUnit<ScoredSeq<'s>> {
        PackUnit::new(ScoredSeq::new(seq, scoring), None)
    }

    /// The lane kernel the engine ships, at four lanes: short sequences
    /// still have the packs a batch needs.
    fn packs_x4<'s>(seq: &'s Seq, scoring: &'s Scoring) -> PackUnit<GroupSweeper<'s>> {
        let sel = select(Some(repro_simd::LaneWidth::X4), None).unwrap();
        PackUnit::new(GroupSweeper::new(seq, scoring, sel), None)
    }

    /// `count` tops under `faults`, both layers off, nothing recorded.
    fn faulty(
        seq: &Seq,
        scoring: &Scoring,
        count: usize,
        workers: usize,
        deadline: Duration,
        faults: FaultPlan,
    ) -> Result<ClusterResult, ClusterError> {
        let search = Search::new(count);
        run_cluster(
            seq,
            scoring,
            &search,
            workers,
            deadline,
            faults,
            &mut NoopRecorder,
        )
    }

    /// [`faulty`] on a clean world under the default test deadline.
    fn plain(seq: &Seq, scoring: &Scoring, count: usize, workers: usize) -> ClusterResult {
        faulty(seq, scoring, count, workers, DL, FaultPlan::default()).unwrap()
    }

    #[test]
    fn figure4_example_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for workers in [1, 2, 4] {
            let got = plain(&seq, &scoring, 3, workers);
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
                let got = plain(&seq, &scoring, 5, workers);
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
        let got = plain(&seq, &scoring, 4, 2);
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn checkpointed_matches_plain_and_skips_rows() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        // The hit guard runs only where the inline `simd` engine with the
        // same budget hits too, so it checks the search and not wasted
        // speculation. A memo hits only on the worker whose packs swept
        // it: on the bare core (three ×16 packs) two workers hit in about
        // half the runs, on three motif copies in every run.
        let scoring = Scoring::dna_example();
        for (text, hits_up_to) in [(text, 1), (three_copies(), 2)] {
            let seq = Seq::dna(&text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 6);
            for budget in [Some(0), Some(1 << 20)] {
                for workers in [1, 2] {
                    let search = Search {
                        checkpoint_budget: budget,
                        ..Search::new(6)
                    };
                    let got = run_cluster(
                        &seq,
                        &scoring,
                        &search,
                        workers,
                        DL,
                        FaultPlan::default(),
                        &mut NoopRecorder,
                    )
                    .unwrap();
                    assert_eq!(
                        got.result.alignments, want.alignments,
                        "budget {budget:?}, {workers} workers on {text}"
                    );
                    let s = &got.result.stats;
                    if budget == Some(0) {
                        assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                        assert_eq!(s.realign_rows_skipped, 0);
                        assert!(s.checkpoint_misses > 0);
                    } else {
                        if workers <= hits_up_to {
                            assert!(
                                s.checkpoint_hits > 0,
                                "{workers} workers on {text}: expected memo/checkpoint hits"
                            );
                        }
                        assert!(s.realign_rows_skipped > 0, "{workers} workers on {text}");
                    }
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
                    let search = Search {
                        count: 4,
                        checkpoint_budget: budget,
                        seed: Some(SeedConfig::default()),
                    };
                    let got = run_cluster(
                        &seq,
                        &scoring,
                        &search,
                        workers,
                        DL,
                        FaultPlan::default(),
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
        // A whole pack prunes only behind the first wave of speculative
        // first passes (two workers' prefetch slots, one pack each). At
        // ×16 this input is five packs, four of them in that wave, and
        // the fifth is seldom pruned (0 of 20 runs); the island has far
        // more packs than the wave.
        let scoring = Scoring::dna_example();
        for (seq, prunes) in [(Seq::dna(&text).unwrap(), false), (island(), true)] {
            let want = find_top_alignments(&seq, &scoring, 1);
            let search = Search {
                seed: Some(SeedConfig::default()),
                ..Search::new(1)
            };
            let got = run_cluster(
                &seq,
                &scoring,
                &search,
                2,
                DL,
                FaultPlan::default(),
                &mut NoopRecorder,
            )
            .unwrap();
            assert_eq!(got.result.alignments, want.alignments);
            let s = &got.result.stats;
            if prunes {
                assert!(s.splits_pruned > 0, "flank splits must never be assigned");
            }
            assert!((s.splits_pruned as usize) < seq.len() - 1);
            assert!(s.seed_index_build_ns > 0);
        }
    }

    #[test]
    fn exhaustion_terminates() {
        let seq = Seq::dna("ACGT").unwrap();
        let scoring = Scoring::dna_example();
        let got = plain(&seq, &scoring, 10, 2);
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
        let got = faulty(
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
        let got = faulty(
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
        assert!(got.result.stats.cluster_retries > 0, "the loss was healed");
    }

    #[test]
    fn duplicated_messages_are_harmless() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = faulty(
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
        let got = faulty(
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
        let got = faulty(
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
        let got = faulty(
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
        let got = faulty(
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
        let out = faulty(
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
        let seq = Seq::dna(&"ATGC".repeat(32)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let mut rec = FlightRecorder::with_events(10_000);
        // Crash one of two workers mid-run: the event log must show the
        // death and the reassignments that healed it. Its first beacon is
        // three sends, so it dies sending its first result: the input
        // must leave it a pack once the other worker's two slots are full.
        let got = run_cluster(
            &seq,
            &scoring,
            &Search::new(4),
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
        // The crashed rank held a pack, and every retransmission round
        // is one `retry` event.
        let stats = &got.result.stats;
        assert!(stats.cluster_reassignments >= 1);
        let retries = rec
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::Retry { .. }))
            .count();
        assert_eq!(stats.cluster_retries, retries as u64);

        // The recovery phase wraps the whole run.
        assert_eq!(rec.phase_entries(Phase::Recovery), 1);
        assert!(rec.phase_secs(Phase::Recovery) > 0.0);

        // The recorder saw the death.
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
    fn telemetry_ships_worker_histograms_and_lane_counters_home() {
        use repro_obs::{Event, FlightRecorder, Metric};
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 6);
        let mut rec = FlightRecorder::with_events(10_000);
        let search = Search {
            checkpoint_budget: Some(1 << 20),
            ..Search::new(6)
        };
        let got = run_cluster(
            &seq,
            &scoring,
            &search,
            2,
            DL,
            FaultPlan::default(),
            &mut rec,
        )
        .unwrap();
        assert_eq!(got.result.alignments, want.alignments);
        // The workers' lane counters come home: before the telemetry
        // channel existed worker-side tallies were silently lost on
        // every cluster transport and reported as 0.
        for c in [Counter::GroupSweeps, Counter::LanesActive] {
            assert!(
                rec.counter(c) > 0,
                "worker {} must survive the wire",
                c.name()
            );
        }
        // Master-side round trips and worker-side sweep/queue samples
        // all land in the master's merged histograms.
        for m in [
            Metric::TaskRoundTripNs,
            Metric::SweepNs,
            Metric::QueueWaitNs,
        ] {
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

    /// A scripted master end for `worker_loop`, run on the test thread:
    /// every blocking receive — the worker has nothing left it can run —
    /// is served the next scripted message, DONE once the script is
    /// exhausted, and every receive and every RESULT frame is logged in
    /// order. RESULT frames are decoded against `unit`, and their items
    /// kept whole in `results`.
    struct Scripted<K> {
        unit: PackUnit<K>,
        script: Mutex<VecDeque<Message>>,
        log: Mutex<Vec<Logged>>,
        results: Mutex<Vec<ResultMsg>>,
    }

    impl<K: PackKernel> Scripted<K> {
        fn new(unit: PackUnit<K>, script: impl IntoIterator<Item = Message>) -> Self {
            Scripted {
                unit,
                script: Mutex::new(script.into_iter().collect()),
                log: Mutex::new(Vec::new()),
                results: Mutex::new(Vec::new()),
            }
        }
    }

    #[derive(Debug, PartialEq)]
    enum Logged {
        /// The worker read a message with this tag.
        Received(u32),
        /// A RESULT frame went out: `(r, attempt, stamp)` per item, `r`
        /// the unit's best member.
        Results(Vec<(usize, u64, usize)>),
    }

    impl<K: PackKernel> Comm for Scripted<K> {
        fn rank(&self) -> usize {
            1
        }
        fn size(&self) -> usize {
            2
        }
        fn send(&self, _to: usize, tag: u32, payload: Vec<u8>) -> Result<(), SendError> {
            if tag == tag::RESULT {
                let frame = ResultsMsg::decode(&payload, &self.unit).expect("worker frames decode");
                let items = frame.items.iter().map(|i| (i.best.0, i.attempt, i.stamp));
                self.log.lock().push(Logged::Results(items.collect()));
                self.results.lock().extend(frame.items);
            }
            Ok(())
        }
        fn recv_timeout(&self, _timeout: Duration) -> Result<Message, RecvError> {
            let msg = self.script.lock().pop_front().unwrap_or(Message {
                from: 0,
                tag: tag::DONE,
                payload: Vec::new(),
            });
            self.log.lock().push(Logged::Received(msg.tag));
            Ok(msg)
        }
        fn try_recv(&self) -> Option<Message> {
            None
        }
    }

    #[test]
    fn message_order_alone_decides_what_an_item_is_computed_against() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 2).alignments;
        let input = ScoredSeq::new(&seq, &scoring);
        let clean = |r| input.align_task(r, &OverrideTriangle::new(seq.len()), None);
        // First passes of `(split, bound)`, and a realignment of split
        // `r` carrying its clean row.
        let first = |items: &[(usize, Score)]| {
            let item = |&(r, bound): &(usize, Score)| TaskItem {
                unit: r - 1,
                attempt: 1,
                first: true,
                bound,
                rows: vec![],
            };
            items.iter().map(item).collect()
        };
        let realign = |r: usize| {
            vec![TaskItem {
                unit: r - 1,
                attempt: 1,
                first: false,
                bound: Score::MAX,
                rows: vec![(r, clean(r).first_row.unwrap())],
            }]
        };
        let task = |stamp, items: Vec<TaskItem>| {
            let payload = TaskMsg { stamp, items }.encode();
            Message {
                from: 0,
                tag: tag::TASK,
                payload,
            }
        };
        let accepted = |index: usize| Message {
            from: 0,
            tag: tag::ACCEPTED,
            payload: AcceptedMsg {
                index,
                pairs: tops[index].pairs.clone(),
            }
            .encode(),
        };
        // Split 4's score equals split 8's bound (the sequence is its
        // own mirror image there).
        assert_eq!(clean(4).score, clean(8).score);
        let comm = Scripted::new(
            rows_of(&seq, &scoring),
            [
                task(0, first(&[(4, clean(4).score), (8, clean(8).score)])),
                // The prefetched batch, and the acceptance that lands
                // behind it while the first batch is being swept.
                task(0, first(&[(2, Score::MAX), (6, Score::MAX)])),
                accepted(0),
                // Ahead of the replica: waits, and its retransmitted
                // twin is dropped on receipt.
                task(2, first(&[(10, Score::MAX)])),
                task(2, first(&[(10, Score::MAX)])),
                accepted(1),
                // Behind the replica: reports the version it ran under.
                task(1, realign(3)),
            ],
        );
        worker_loop(rows_of(&seq, &scoring), &seq, &scoring, &comm, DL, 1);
        use Logged::{Received, Results};
        assert_eq!(
            *comm.log.lock(),
            [
                Received(tag::TASK),
                Results(vec![(4, 1, 0)]),
                Results(vec![(8, 1, 0)]),
                // Nothing is read while an item can run, so the second
                // batch runs under its own stamp on every schedule.
                Received(tag::TASK),
                Results(vec![(2, 1, 0)]),
                Results(vec![(6, 1, 0)]),
                Received(tag::ACCEPTED),
                Received(tag::TASK),
                Received(tag::TASK),
                Received(tag::ACCEPTED),
                // A first pass both accepts straddle: one clean sweep,
                // exact under version 0.
                Results(vec![(10, 1, 0)]),
                Received(tag::TASK),
                Results(vec![(3, 1, 2)]),
                Received(tag::DONE),
            ]
        );
    }

    /// A unit first-passed by one worker and realigned by another:
    /// worker 2 is handed pack `u` with every member's row attached,
    /// under a replica two accepts in, its packs never having swept `u`.
    /// It must sweep every lane — those no accept straddles have no memo
    /// here to replay — and answer exactly what an inline plan · sweep ·
    /// commit on fresh packs answers, whose best member the scalar
    /// kernel confirms.
    #[test]
    fn a_unit_first_passed_elsewhere_is_swept_whole_not_replayed() {
        let motif = "ATGCATGCATGC";
        let seq = Seq::dna(&format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG")).unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 2).alignments;
        let sel = select(Some(repro_simd::LaneWidth::X4), None).unwrap();
        let packs = || PackUnit::new(GroupSweeper::new(&seq, &scoring, sel), Some(1 << 20));
        let input = ScoredSeq::new(&seq, &scoring);
        let empty = OverrideTriangle::new(seq.len());
        let clean = |r| input.align_task(r, &empty, None).first_row.unwrap();
        let straddled = |r: usize| {
            let mut pairs = tops.iter().flat_map(|t| &t.pairs);
            pairs.any(|&(p, q)| p < r && r <= q)
        };
        let unit = packs();
        let u = (0..unit.units())
            .find(|&u| {
                let mut s = unit.splits(u);
                s.clone().any(straddled) && !s.all(straddled)
            })
            .expect("a pack the accepts straddle in part");
        let rows: Vec<_> = unit.splits(u).map(|r| (r, clean(r))).collect();
        let accepted = |index: usize| Message {
            from: 0,
            tag: tag::ACCEPTED,
            payload: AcceptedMsg {
                index,
                pairs: tops[index].pairs.clone(),
            }
            .encode(),
        };
        let item = TaskItem {
            unit: u,
            attempt: 1,
            first: false,
            bound: Score::MAX,
            rows: rows.clone(),
        };
        let task = Message {
            from: 0,
            tag: tag::TASK,
            payload: TaskMsg::single(2, item).encode(),
        };
        let comm = Scripted::new(packs(), [accepted(0), accepted(1), task]);
        worker_loop(packs(), &seq, &scoring, &comm, DL, 1);

        // The inline unit of work on fresh packs, from scratch.
        let common = Common::new(&seq, &scoring);
        for (r, row) in rows {
            common.set_row(r, row);
        }
        let mut triangle = OverrideTriangle::new(seq.len());
        for &(p, q) in tops.iter().flat_map(|t| &t.pairs) {
            triangle.set(p, q);
        }
        let mut packs = unit.packs();
        let plan = packs.plan(u, false, &tops);
        let swept = unit.sweep(&common, &plan, &triangle);
        let mut grown = Stats::new();
        packs.commit(&mut grown, &mut NoopRecorder, plan, Some(swept));
        let want = ResultMsg {
            unit: u,
            stamp: 2,
            attempt: 1,
            best: packs.best_member(u),
            rows: vec![],
            work: Work::of(&grown),
        };
        assert_eq!(*comm.results.lock(), std::slice::from_ref(&want));
        let lanes = unit.splits(u).len() as u64;
        assert_eq!((grown.alignments, grown.lanes_skipped), (lanes, 0));
        // The best member, lowest on ties, by the scalar kernel.
        let scalar = unit.splits(u).map(|r| {
            let score = input
                .align_task(r, &triangle, Some(&common.row(r).widened()))
                .score;
            (r, score)
        });
        let oracle = scalar.reduce(|a, b| if b.1 > a.1 { b } else { a });
        assert_eq!(Some(want.best), oracle);
    }

    /// Every sweep outlasts a beacon period and a whole frame of them
    /// outlasts the liveness window: a worker that held a frame's
    /// results to its end would be written off at the first retry
    /// check. Results go out between sweeps instead, so the master
    /// keeps hearing from both workers — also while every thread of a
    /// two-thread worker sweeps, when none of them beacons.
    fn slow_sweeps_on<K: PackKernel>(
        seq: &Seq,
        scoring: &Scoring,
        unit: impl Fn() -> PackUnit<K> + Sync,
    ) {
        let want = find_top_alignments(seq, scoring, 2);
        let overall = Duration::from_secs(60);
        let config = RecoveryConfig::with_overall(overall);
        let timeouts = Timeouts {
            retry_base: Duration::from_millis(150),
            max_retries: 0,
            retry_cap: Duration::from_secs(5),
            liveness: Duration::from_millis(120),
        };
        let pad = Duration::from_millis(45);
        assert!(pad >= BEACON_PERIOD && pad * MAX_BATCH as u32 > timeouts.liveness);
        for threads in [1, 2] {
            let mut world = ThreadComm::world(3);
            let master_comm = world.remove(0);
            let got = std::thread::scope(|scope| {
                for comm in world {
                    let unit = &unit;
                    scope.spawn(move || {
                        let mut worker = Worker::new(unit(), seq, scoring, comm, threads);
                        worker.sweep_pad = pad;
                        worker.serve(overall)
                    });
                }
                let master = MasterState::with_unit(unit(), seq, scoring, &Search::new(2))
                    .with_timeouts(timeouts);
                master_loop(master, master_comm, config, &mut NoopRecorder)
            })
            .unwrap();
            assert_eq!(got.alignments, want.alignments, "{threads} threads");
            assert_eq!(
                got.stats.cluster_reassignments, 0,
                "{threads} threads: a healthy worker was written off"
            );
        }
    }

    #[test]
    fn slow_sweeps_never_silence_a_worker_past_the_liveness_window() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna(&"ATGC".repeat(5)).unwrap();
        slow_sweeps_on(&seq, &scoring, || rows_of(&seq, &scoring));
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        slow_sweeps_on(&seq, &scoring, || packs_x4(&seq, &scoring));
    }

    #[test]
    fn delayed_messages_do_not_change_the_answer() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = faulty(
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
