//! The real distributed backend: master and workers as OS threads over
//! [`repro_xmpi::thread`] channels.
//!
//! Rank 0 is the sacrificed master (paper §4.3); ranks `1..P` are
//! workers holding a replicated override triangle and a cache of
//! first-pass bottom rows. A worker handles its inbox strictly in
//! arrival order and reads the next message only when nothing it holds
//! can run: every task item goes into one run queue, and an item
//! stamped with a triangle version the replica has not reached yet
//! waits there — an ACCEPTED broadcast and a TASK travel independently,
//! and a sweep under a too-old triangle is work the master could only
//! file as stale. What an item is computed against is therefore decided
//! by the order of the master's messages, never by how their arrival
//! interleaves with the sweeps, and a result reports that version (the
//! replica's, at or past the task's stamp): the master trusts a score
//! as exact only when the version is its own. The worker announces
//! `PREFETCH_SLOTS` capacity slots, so the next batch is already in its
//! inbox when the current one ends, and it sends a batch's results in
//! as few frames as the acceptance rule and the master's liveness clock
//! allow.
//!
//! The master side runs the recovery loop of [`crate::recovery`]:
//! per-task deadlines with retransmission and exponential backoff,
//! liveness tracking from worker beacons, reassignment away from dead
//! workers, and a master-local fallback when every worker is lost. The
//! worker side beacons IDLE/RESYNC, requests replica resyncs when an
//! ACCEPTED broadcast went missing, and watches its own deadline so a
//! dead master never leaves a thread hanging.

use crate::master::{run_task, MasterState};
use crate::protocol::{
    tag, AcceptedMsg, ResultMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg, TelemetryMsg,
};
use crate::recovery::{idle_payload, master_loop, RecoveryConfig, BEACON_PERIOD, WORKER_POLL};
use repro_align::{Scoring, Seq};
use repro_core::{Common, OverrideTriangle, Search, TopAlignment, TopAlignments, Unit};
use repro_obs::{FlightRecorder, Metric, Recorder};
use repro_simd::{select, PackUnit, SimdSel};
use repro_xmpi::thread::{FaultPlan, ThreadComm};
use repro_xmpi::{Comm, Message, RecvError, SendError};
use std::collections::{HashSet, VecDeque};
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
/// group kernel on every worker. With `search.checkpoint_budget` set,
/// each worker keeps its packs' lane memos and checkpoints, stamped
/// against the ACCEPTED broadcasts it applies, and its tallies travel
/// home inside [`ResultMsg`]. With `search.seed` set the master — which owns the
/// only seed index — never assigns a pack whose bound stays below the
/// acceptance frontier; per-task bounds ship inside the [`TaskMsg`].
/// Alignments are bit-identical with either layer on or off.
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
    let ranks = workers + 1;
    let mut world = ThreadComm::world_with_faults(ranks, faults);
    let master_comm = world.remove(0);
    let sel = cluster_sel();
    let packs = || PackUnit::new(seq, scoring, sel, search.checkpoint_budget);

    rec.phase_start(repro_obs::Phase::Recovery);
    let result = std::thread::scope(|scope| {
        for comm in world {
            scope.spawn(move || worker_loop(packs(), seq, scoring, comm, deadline));
        }
        let config = RecoveryConfig::with_overall(deadline);
        let master = MasterState::with_unit(packs(), seq, scoring, search);
        master_loop(master, master_comm, config, rec)
    });
    rec.phase_end(repro_obs::Phase::Recovery);

    result.map(|r| ClusterResult { result: r, ranks })
}

/// The cluster engines' kernel: `select(None, None)`, no knob. Its width
/// cuts the packs; a worker process sweeps them on its own best path.
pub(crate) fn cluster_sel() -> SimdSel {
    select(None, None).expect("the automatic selection always resolves")
}

/// Task frames a worker asks the master to keep with it, each a
/// capacity slot announced by IDLE: one batch being swept and one
/// waiting in the inbox behind it, so the end of a batch never waits a
/// master round trip. Depth 3 measured slower than 2; with one pack to
/// a frame, depth 1 read 1 % slower than 2 on wall time and 6 % lower
/// on CPU, so 2 stays (EXPERIMENTS.md, "Cluster workers kept fed" and
/// "Cluster speculation bounded in lanes").
pub(crate) const PREFETCH_SLOTS: usize = 2;

/// One item of a received task frame, waiting its turn.
struct Queued {
    /// Replica version the item must at least run under.
    stamp: usize,
    /// Which received frame it came in (a worker-local count): results
    /// are coalesced per task frame.
    frame: u64,
    item: TaskItem,
}

/// A worker rank's whole state: replica, unit state, run queue,
/// telemetry.
struct Worker<'a, C: Comm, U: Unit> {
    unit: U,
    /// The profiled sequence and every first-pass row this worker has
    /// computed or been sent.
    common: Common<'a>,
    comm: C,
    triangle: OverrideTriangle,
    /// The ACCEPTED broadcasts applied so far, in order: the replica's
    /// version is their count, and the unit's plan stamps against them.
    /// (Only the pairs are known here; `r` and `score` are left 0.)
    accepted: Vec<TopAlignment>,
    // The unit's state, this worker's own: one thread, no lock.
    locked: U::Locked,
    local: U::Local,
    /// Every received task item not yet run, in arrival order. An item
    /// runs once the replica has reached its stamp.
    queue: VecDeque<Queued>,
    frames_seen: u64,
    /// Results computed and not yet sent, all of the task frame being
    /// run: a frame's items share one stamp and nothing is read while an
    /// item can run, so a frame runs to its end once it starts.
    held: Vec<ResultMsg>,
    /// Some held result answers an attempt that was answered before.
    held_repeat: bool,
    /// When this worker last sent the master a result or a beacon — any
    /// of its traffic refreshes the master's liveness clock, and held
    /// results must not stop it.
    last_sent: Instant,
    /// Attempts whose result we already sent once: receiving them again
    /// means that result was lost, so its replacement is sent twice (a
    /// single copy can phase-lock with a deterministic loss pattern).
    sent: HashSet<(usize, u64)>,
    last_master: Instant,
    // This worker's own telemetry: sweep/resume/queue-wait samples and
    // the lane counters of its commits, shipped home as cumulative
    // snapshots on the beacon cadence. Pure observability — every frame
    // may be lost without changing the search result.
    wrec: FlightRecorder,
    tele_seq: u64,
    idle_since: Instant,
    /// Test hook: extra wall time every sweep takes.
    #[cfg(test)]
    sweep_pad: Duration,
}

/// The worker body, generic over the transport and the unit: the exact
/// same loop serves a simulator thread (rank = a `ThreadComm` endpoint)
/// and a worker process (rank = a `SocketPeer`). See the module docs for
/// the message-order/hold-back/resync discipline.
pub(crate) fn worker_loop<C: Comm, U: Unit>(
    unit: U,
    seq: &Seq,
    scoring: &Scoring,
    comm: C,
    deadline: Duration,
) {
    Worker::new(unit, seq, scoring, comm).serve(deadline);
}

impl<'a, C: Comm, U: Unit> Worker<'a, C, U> {
    fn new(unit: U, seq: &'a Seq, scoring: &'a Scoring, comm: C) -> Self {
        let now = Instant::now();
        Worker {
            common: Common::new(seq, scoring),
            comm,
            triangle: OverrideTriangle::new(seq.len()),
            accepted: Vec::new(),
            locked: unit.locked(),
            local: unit.local(),
            unit,
            queue: VecDeque::new(),
            frames_seen: 0,
            held: Vec::new(),
            held_repeat: false,
            last_sent: now,
            sent: HashSet::new(),
            last_master: now,
            wrec: FlightRecorder::new(),
            tele_seq: 0,
            idle_since: now,
            #[cfg(test)]
            sweep_pad: Duration::ZERO,
        }
    }

    /// ACCEPTED broadcasts applied so far: the replica's version.
    fn applied(&self) -> usize {
        self.accepted.len()
    }

    /// Serve the master until DONE, a dead endpoint, or `deadline` of
    /// silence from it.
    fn serve(mut self, deadline: Duration) {
        let mut next_beacon = Instant::now(); // fires immediately: first IDLE
        loop {
            if let Some(pos) = self.queue.iter().position(|q| q.stamp <= self.applied()) {
                if !self.run(pos) {
                    return; // endpoint (ours or the master's) is dead
                }
                continue;
            }
            let now = Instant::now();
            if now.duration_since(self.last_master) > deadline {
                return; // master has gone silent for the whole budget
            }
            if now >= next_beacon {
                if !self.beacon() {
                    return;
                }
                next_beacon = now + BEACON_PERIOD;
            }
            match self.comm.recv_timeout(WORKER_POLL) {
                Ok(msg) => {
                    if !self.on_message(msg) {
                        return;
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }
        }
    }

    /// Handle one message from the master. Returns `false` on DONE.
    fn on_message(&mut self, msg: Message) -> bool {
        self.last_master = Instant::now();
        match msg.tag {
            tag::TASK => {
                let Ok(task) = TaskMsg::decode(&msg.payload, &self.unit) else {
                    return true; // corrupted; the master will retransmit
                };
                self.frames_seen += 1;
                for item in task.items {
                    // A retransmission of an item still waiting here
                    // will be answered when that one runs.
                    if !self.queue.iter().any(|q| q.item.same_attempt(&item)) {
                        self.queue.push_back(Queued {
                            stamp: task.stamp,
                            frame: self.frames_seen,
                            item,
                        });
                    }
                }
            }
            tag::ACCEPTED => {
                let Ok(acc) = AcceptedMsg::decode(&msg.payload) else {
                    // A corrupted acceptance would leave the replica
                    // behind forever; ask for it again right away.
                    let _ = self.request_resync();
                    return true;
                };
                // Acceptances must be applied *in order*: if index k
                // was lost and k+1 arrives first, applying it and
                // claiming version k+2 would leave k's override pairs
                // silently missing — and every score computed under
                // that replica would be wrongly trusted as fresh.
                if acc.index > self.applied() {
                    let _ = self.request_resync();
                } else if acc.index == self.applied() {
                    for &(p, q) in &acc.pairs {
                        self.triangle.set(p, q);
                    }
                    self.accepted.push(TopAlignment {
                        index: acc.index,
                        r: 0,
                        score: 0,
                        pairs: acc.pairs,
                    });
                } // else: duplicate of an already-applied acceptance
            }
            tag::DONE => {
                // Final (`fin`) snapshot, sent twice so a period-2 loss
                // pattern cannot swallow the worker's whole telemetry
                // tail. Failures are moot: we are exiting either way.
                let payload = self.telemetry(true);
                let _ = self.comm.send(0, tag::TELEMETRY, payload.clone());
                let _ = self.comm.send(0, tag::TELEMETRY, payload);
                return false;
            }
            _ => {} // stray tag: ignore
        }
        true
    }

    fn request_resync(&self) -> Result<(), SendError> {
        let applied = self.applied();
        self.comm
            .send(0, tag::RESYNC, ResyncMsg { applied }.encode())
    }

    /// The beacon of a worker with nothing to run. Returns `false` when
    /// a send proves an endpoint dead.
    fn beacon(&mut self) -> bool {
        // A free worker re-announces every slot as IDLE (idempotent at
        // the master — it dedupes per slot — and robust to a lost first
        // one); a worker whose whole queue waits for acceptances sends
        // a liveness heartbeat and asks for the ones its replica is
        // missing.
        let sent = if self.queue.is_empty() {
            (0..PREFETCH_SLOTS)
                .try_for_each(|slot| self.comm.send(0, tag::IDLE, idle_payload(slot)))
        } else {
            // Sent as a pair: a lone copy each period can land on
            // the same phase of a deterministic loss pattern every
            // time, starving the replica forever. Any received
            // traffic refreshes liveness at the master, so the
            // resync request doubles as the heartbeat.
            self.request_resync().and_then(|()| self.request_resync())
        };
        self.last_sent = Instant::now();
        // Ship the cumulative telemetry snapshot alongside the beacon.
        let payload = self.telemetry(false);
        sent.is_ok() && self.comm.send(0, tag::TELEMETRY, payload).is_ok()
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

    /// Run the queued item at `pos` and hold or send its result.
    /// Returns `false` when a send proves an endpoint dead (ours or the
    /// master's), which is the worker's cue to exit; injected drops
    /// stay invisible and are healed by the master's retransmission.
    fn run(&mut self, pos: usize) -> bool {
        let Queued { frame, item, .. } = self.queue.remove(pos).expect("position is in range");
        // Held results wait only while the master has heard from this
        // worker within a beacon period: a busy worker sends nothing
        // else, and a frame of slow sweeps held to its end would look
        // like a dead rank.
        let overdue = self.last_sent.elapsed() >= BEACON_PERIOD;
        if !self.held.is_empty() && overdue && !self.flush() {
            return false;
        }
        self.held_repeat |= !self.sent.insert((item.unit, item.attempt));
        self.wrec.observe(
            Metric::QueueWaitNs,
            self.idle_since.elapsed().as_nanos() as u64,
        );
        let res = self.sweep(item);
        // The master cannot accept this unit while a higher stale
        // bound of the same frame is outstanding, and the frame's slot
        // is not credited before its last item settles: until the score
        // reaches every bound still queued from the frame, holding the
        // result delays neither this unit's acceptance nor the refill.
        let score = res.best.1;
        let mut rest = self.queue.iter().filter(|q| q.frame == frame);
        let send_now = rest.all(|q| score >= q.item.bound);
        self.held.push(res);
        let alive = !send_now || self.flush();
        self.idle_since = Instant::now();
        alive
    }

    /// Send the held results as one frame. A repeat among them means an
    /// earlier copy was lost en route: send two copies back to back so
    /// a period-2 loss pattern cannot swallow both.
    fn flush(&mut self) -> bool {
        self.last_sent = Instant::now();
        let payload = ResultsMsg {
            items: std::mem::take(&mut self.held),
        }
        .encode();
        if std::mem::take(&mut self.held_repeat)
            && self.comm.send(0, tag::RESULT, payload.clone()).is_err()
        {
            return false;
        }
        self.comm.send(0, tag::RESULT, payload).is_ok()
    }

    /// Compute one task against the replica as it stands, on this
    /// worker's own unit state.
    fn sweep(&mut self, mut task: TaskItem) -> ResultMsg {
        let splits = self.unit.splits(task.unit);
        for (r, row) in std::mem::take(&mut task.rows) {
            if !self.common.has_row(r) {
                self.common.set_row(r, row);
            }
        }
        // A first pass this worker already ran — its result was lost and
        // the master retransmitted the task — is a realignment here: the
        // rows are stored, and go home again below.
        let first = task.first;
        task.first &= !splits.clone().all(|r| self.common.has_row(r));
        #[cfg(test)]
        std::thread::sleep(self.sweep_pad);
        let state = (&mut self.locked, &mut self.local);
        let replica = (&self.common, &self.triangle, &self.accepted[..]);
        let mut res = run_task(&self.unit, state, replica, &task, &mut self.wrec);
        // The shipped bound dominates any score computed at or past the
        // task's stamp (masking monotonicity); a violation would mean the
        // master's seed index is broken.
        debug_assert!(
            res.best.1 <= task.bound,
            "unit {}: score {} above shipped bound {}",
            task.unit,
            res.best.1,
            task.bound
        );
        // The rows every later realignment diffs against are the CLEAN
        // bottom rows, whatever the replica looked like.
        if first {
            res.rows = splits.map(|r| (r, self.common.row(r).to_vec())).collect();
        }
        res
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::master::MAX_BATCH;
    use crate::protocol::Work;
    use repro_align::Score;
    use repro_core::{find_top_alignments, ScoredSeq, SeedConfig, SplitUnit, Stats};
    use repro_obs::{Counter, NoopRecorder};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// The split unit over `seq`: what the scheduling tests below drive,
    /// so that a batch holds as many tasks as they need.
    fn splits_of(seq: &Seq) -> SplitUnit {
        SplitUnit::new(seq, None, None)
    }

    /// The unit the engine ships, at four lanes: short sequences still
    /// have the packs a batch needs.
    fn packs_x4<'s>(seq: &'s Seq, scoring: &'s Scoring) -> PackUnit<'s> {
        let sel = select(Some(repro_simd::LaneWidth::X4), None).unwrap();
        PackUnit::new(seq, scoring, sel, None)
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

    /// A scripted master end for `worker_loop`, run on the test thread:
    /// every blocking receive — the worker has nothing left it can run —
    /// is served the next scripted message, DONE once the script is
    /// exhausted, and every receive and every RESULT frame is logged in
    /// order. RESULT frames are decoded against `unit`, and their items
    /// kept whole in `results`.
    struct Scripted<U> {
        unit: U,
        script: RefCell<VecDeque<Message>>,
        log: RefCell<Vec<Logged>>,
        results: RefCell<Vec<ResultMsg>>,
    }

    impl<U: Unit> Scripted<U> {
        fn new(unit: U, script: impl IntoIterator<Item = Message>) -> Self {
            Scripted {
                unit,
                script: RefCell::new(script.into_iter().collect()),
                log: RefCell::new(Vec::new()),
                results: RefCell::new(Vec::new()),
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

    impl<U: Unit> Comm for Scripted<U> {
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
                self.log.borrow_mut().push(Logged::Results(items.collect()));
                self.results.borrow_mut().extend(frame.items);
            }
            Ok(())
        }
        fn recv_timeout(&self, _timeout: Duration) -> Result<Message, RecvError> {
            let msg = self.script.borrow_mut().pop_front().unwrap_or(Message {
                from: 0,
                tag: tag::DONE,
                payload: Vec::new(),
            });
            self.log.borrow_mut().push(Logged::Received(msg.tag));
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
        let clean = |r| {
            input
                .align_task(r, &OverrideTriangle::new(seq.len()), None, None)
                .score
        };
        let task = |stamp, items: &[(usize, Score)]| {
            let items = items.iter().map(|&(r, bound)| TaskItem {
                unit: r - 1,
                attempt: 1,
                first: true,
                bound,
                rows: vec![],
            });
            let payload = TaskMsg {
                stamp,
                items: items.collect(),
            }
            .encode();
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
        // own mirror image there), so 4's result may not wait for 8.
        assert_eq!(clean(4), clean(8));
        let comm = Scripted::new(
            splits_of(&seq),
            [
                task(0, &[(4, clean(4)), (8, clean(8))]),
                // The prefetched batch, and the acceptance that lands
                // behind it while the first batch is being swept.
                // Unseeded bounds: 2's result waits for 6.
                task(0, &[(2, Score::MAX), (6, Score::MAX)]),
                accepted(0),
                // Ahead of the replica: waits, and its retransmitted
                // twin is dropped on receipt.
                task(2, &[(10, Score::MAX)]),
                task(2, &[(10, Score::MAX)]),
                accepted(1),
                // Behind the replica: reports the version it ran under.
                task(1, &[(3, Score::MAX)]),
            ],
        );
        worker_loop(splits_of(&seq), &seq, &scoring, &comm, DL);
        use Logged::{Received, Results};
        assert_eq!(
            *comm.log.borrow(),
            [
                Received(tag::TASK),
                Results(vec![(4, 1, 0)]),
                Results(vec![(8, 1, 0)]),
                // Nothing is read while an item can run, so the second
                // batch runs under its own stamp on every schedule.
                Received(tag::TASK),
                Results(vec![(2, 1, 0), (6, 1, 0)]),
                Received(tag::ACCEPTED),
                Received(tag::TASK),
                Received(tag::TASK),
                Received(tag::ACCEPTED),
                Results(vec![(10, 1, 2)]),
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
        let packs = || PackUnit::new(&seq, &scoring, sel, Some(1 << 20));
        let input = ScoredSeq::new(&seq, &scoring);
        let empty = OverrideTriangle::new(seq.len());
        let clean = |r| input.align_task(r, &empty, None, None).first_row.unwrap();
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
        worker_loop(packs(), &seq, &scoring, &comm, DL);

        // The inline unit of work on fresh packs, from scratch.
        let common = Common::new(&seq, &scoring);
        for (r, row) in rows {
            common.set_row(r, row);
        }
        let mut triangle = OverrideTriangle::new(seq.len());
        for &(p, q) in tops.iter().flat_map(|t| &t.pairs) {
            triangle.set(p, q);
        }
        let (mut locked, mut local) = (unit.locked(), unit.local());
        let plan = unit.plan(&mut locked, &mut local, u, false, &tops);
        let swept = unit.sweep(&common, &mut local, &plan, &triangle);
        let mut grown = Stats::new();
        let score = unit.commit(
            &mut locked,
            &mut grown,
            &mut NoopRecorder,
            plan,
            Some(swept),
        );
        let want = ResultMsg {
            unit: u,
            stamp: 2,
            attempt: 1,
            best: unit.best_member(&locked, u, score),
            rows: vec![],
            work: Work::of(&grown),
        };
        assert_eq!(*comm.results.borrow(), std::slice::from_ref(&want));
        let lanes = unit.splits(u).len() as u64;
        assert_eq!((grown.alignments, grown.lanes_skipped), (lanes, 0));
        // The best member, lowest on ties, by the scalar kernel.
        let scalar = unit.splits(u).map(|r| {
            let score = input
                .align_task(r, &triangle, Some(common.row(r)), None)
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
    /// keeps hearing from both workers.
    fn slow_sweeps_on<U: Unit>(seq: &Seq, scoring: &Scoring, unit: impl Fn() -> U + Sync) {
        let want = find_top_alignments(seq, scoring, 2);
        let mut world = ThreadComm::world(3);
        let master_comm = world.remove(0);
        let overall = Duration::from_secs(60);
        let config = RecoveryConfig {
            retry_base: Duration::from_millis(150),
            max_retries: 0,
            retry_cap: Duration::from_secs(5),
            liveness: Duration::from_millis(120),
            ..RecoveryConfig::with_overall(overall)
        };
        let pad = Duration::from_millis(45);
        assert!(pad >= BEACON_PERIOD && pad * MAX_BATCH as u32 > config.liveness);
        let got = std::thread::scope(|scope| {
            for comm in world {
                let unit = &unit;
                scope.spawn(move || {
                    let mut worker = Worker::new(unit(), seq, scoring, comm);
                    worker.sweep_pad = pad;
                    worker.serve(overall)
                });
            }
            let master = MasterState::with_unit(unit(), seq, scoring, &Search::new(2));
            master_loop(master, master_comm, config, &mut NoopRecorder)
        })
        .unwrap();
        assert_eq!(got.alignments, want.alignments);
        assert_eq!(
            got.stats.cluster_reassignments, 0,
            "a healthy worker was written off"
        );
    }

    #[test]
    fn slow_sweeps_never_silence_a_worker_past_the_liveness_window() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna(&"ATGC".repeat(5)).unwrap();
        slow_sweeps_on(&seq, &scoring, || splits_of(&seq));
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        slow_sweeps_on(&seq, &scoring, || packs_x4(&seq, &scoring));
    }

    /// A worker endpoint that loses every second result frame carrying
    /// more than one item (frames decoded against `unit`). Only split
    /// frames can: a pack batch is one pack.
    struct DropCoalesced<U> {
        unit: U,
        inner: ThreadComm,
        coalesced: AtomicU64,
    }

    impl<U: Unit> Comm for DropCoalesced<U> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send(&self, to: usize, tag: u32, payload: Vec<u8>) -> Result<(), SendError> {
            let coalesced = tag == tag::RESULT
                && ResultsMsg::decode(&payload, &self.unit)
                    .is_ok_and(|frame| frame.items.len() > 1);
            if coalesced && self.coalesced.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
                return Ok(()); // lost: invisible to the sender
            }
            self.inner.send(to, tag, payload)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
            self.inner.recv_timeout(timeout)
        }
        fn try_recv(&self) -> Option<Message> {
            self.inner.try_recv()
        }
    }

    #[test]
    fn every_second_coalesced_result_frame_lost_heals_item_by_item() {
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        let mut world = ThreadComm::world(3);
        let master_comm = world.remove(0);
        let workers: Vec<DropCoalesced<SplitUnit>> = world
            .into_iter()
            .map(|inner| DropCoalesced {
                unit: splits_of(&seq),
                inner,
                coalesced: AtomicU64::new(0),
            })
            .collect();
        let deadline = Duration::from_secs(30);
        let got = std::thread::scope(|scope| {
            for comm in &workers {
                let (seq, scoring) = (&seq, &scoring);
                scope.spawn(move || worker_loop(splits_of(seq), seq, scoring, comm, deadline));
            }
            let config = RecoveryConfig::with_overall(deadline);
            let master = MasterState::new(&seq, &scoring, &Search::new(5));
            master_loop(master, master_comm, config, &mut NoopRecorder)
        })
        .expect("lost result frames must be healed, not fatal");
        assert_eq!(got.alignments, want.alignments);
        let lost: u64 = workers
            .iter()
            .map(|w| w.coalesced.load(Ordering::Relaxed) / 2)
            .sum();
        assert!(lost > 0, "the schedule must have lost coalesced frames");
        assert!(
            got.stats.cluster_retries >= lost,
            "each lost frame's items come back through per-item retransmission: \
             {lost} lost, {} retries",
            got.stats.cluster_retries
        );
        assert_eq!(
            got.stats.cluster_reassignments, 0,
            "no worker was written off"
        );
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
