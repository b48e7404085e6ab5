//! The hybrid configuration of paper §4.3: a cluster of SMPs.
//!
//! "Although it is possible to start multiple independent processes on
//! a single shared-memory multi-processor that communicate through MPI,
//! this wastes much memory ... Therefore, we run multiple threads on
//! each SMP that share these data structures. A small complication is
//! that thread support is not integrated with our MPI implementation,
//! therefore we protect all MPI calls with a mutex. If the master
//! processor resides on a SMP, the other processors are regular
//! slaves."
//!
//! Mapping here: one rank per *node*; rank 0 is the sacrificed master
//! CPU; rank 1 is the rest of the master's SMP (running one fewer
//! worker thread); ranks 2.. are full SMP nodes. Within a node, worker
//! threads share the override-triangle replica (an `Arc` snapshot
//! swapped on each acceptance) and the bottom-row cache, and take
//! turns on the node's single communication endpoint behind a mutex —
//! exactly the paper's structure. Each thread registers its own
//! capacity **slot** with the master (an `IDLE` carrying the slot id),
//! which is how one rank offers several units of capacity without the
//! master confusing a re-announced IDLE with extra CPUs.
//!
//! The master side is the same recovery loop as [`crate::engine`]
//! (retransmission, liveness, reassignment, local fallback), so a dead
//! node's work migrates to the surviving nodes.

use crate::engine::{ClusterError, ClusterResult};
use crate::master::MasterState;
use crate::protocol::{tag, AcceptedMsg, ResultMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg};
use crate::recovery::{idle_payload, master_loop, RecoveryConfig, BEACON_PERIOD, WORKER_POLL};
use parking_lot::{Condvar, Mutex};
use repro_align::{Score, Scoring, Seq};
use repro_core::{DirtyLog, OverrideTriangle, ScoredSeq, Search, SplitSweeper, SplitUnit};
use repro_obs::Recorder;
use repro_xmpi::thread::ThreadComm;
use repro_xmpi::{Comm, RecvError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-node state shared by that node's worker threads.
struct NodeShared {
    inner: Mutex<NodeInner>,
    wake: Condvar,
}

struct NodeInner {
    triangle: Arc<OverrideTriangle>,
    applied: usize,
    /// Pair lists of the acceptances applied so far, in order — the
    /// node-wide feed for each thread's private dirty-log replica.
    /// Only populated when the incremental layer is on.
    accepts: Vec<Vec<(usize, usize)>>,
    rows: HashMap<usize, Arc<Vec<Score>>>,
    /// Items whose stamp the replica has not reached, with that stamp.
    deferred: Vec<(usize, TaskItem)>,
    /// Attempts whose result already went out once (node-wide — the
    /// retransmit may be polled by a different thread than the one
    /// that answered the original). A repeat means that result was
    /// lost, so its replacement is sent twice; see the engine worker.
    sent: HashSet<(usize, u64)>,
    last_master: Instant,
    done: bool,
}

/// Run the cluster-of-SMPs configuration: `nodes` multi-CPU nodes with
/// `threads_per_node` CPUs each; one CPU of node 0 is the master, so
/// `nodes × threads_per_node − 1` workers do alignment work. The result
/// counts one rank per node plus the master.
///
/// With `search.checkpoint_budget` set, each worker thread keeps its own
/// checkpoint store, fed by a private dirty-log replica synced from the
/// node's accept history under the node lock. `search.seed`, `deadline`
/// and `rec` act exactly as in [`crate::run_cluster`]: the master owns
/// the only seed index, pruned splits are never assigned to any node,
/// and the recorder sees the same structured event stream. Alignments
/// are bit-identical with either layer on or off.
pub fn run_hybrid<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    nodes: usize,
    threads_per_node: usize,
    deadline: Duration,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    let checkpoint_budget = search.checkpoint_budget;
    assert!(nodes >= 1, "need at least the master's node");
    assert!(threads_per_node >= 1, "nodes need at least one CPU");
    assert!(
        nodes * threads_per_node >= 2,
        "need at least one worker CPU besides the master"
    );

    // Rank 0: master. Ranks 1..=nodes: one per SMP node.
    let mut world = ThreadComm::world(nodes + 1);
    let master_comm = world.remove(0);

    // Read-only, so the simulated nodes' threads all sweep from one.
    let input = ScoredSeq::new(seq, scoring);
    let input = &input;
    rec.phase_start(repro_obs::Phase::Recovery);
    let result = std::thread::scope(|scope| {
        for (node_idx, comm) in world.into_iter().enumerate() {
            // Node 0 of the cluster (rank 1) lost one CPU to the master.
            let threads = if node_idx == 0 {
                threads_per_node - 1
            } else {
                threads_per_node
            };
            if threads == 0 {
                continue;
            }
            let shared = Arc::new(NodeShared {
                inner: Mutex::new(NodeInner {
                    triangle: Arc::new(OverrideTriangle::new(seq.len())),
                    applied: 0,
                    accepts: Vec::new(),
                    rows: HashMap::new(),
                    deferred: Vec::new(),
                    sent: HashSet::new(),
                    last_master: Instant::now(),
                    done: false,
                }),
                wake: Condvar::new(),
            });
            // The node's single communication endpoint, mutex-guarded
            // exactly as the paper guards its MPI calls.
            let comm = Arc::new(Mutex::new(comm));
            for slot in 0..threads {
                let shared = Arc::clone(&shared);
                let comm = Arc::clone(&comm);
                scope.spawn(move || {
                    node_worker(input, comm, shared, slot, deadline, checkpoint_budget)
                });
            }
        }
        let config = RecoveryConfig::with_overall(deadline);
        let master = MasterState::new(seq, scoring, search);
        master_loop(master, master_comm, config, rec)
    });
    rec.phase_end(repro_obs::Phase::Recovery);

    result.map(|r| ClusterResult {
        result: r,
        ranks: nodes + 1,
    })
}

/// One worker thread's view of its node: the shared replica and
/// endpoint, plus the split unit and the incremental state it keeps to
/// itself. The dirty-log replica is caught up from the node's accept
/// history at every claim, under the node lock, so its version equals
/// the `applied` of the snapshot swept.
struct NodeThread<'a, C: Comm> {
    input: &'a ScoredSeq<'a>,
    comm: Arc<Mutex<C>>,
    shared: Arc<NodeShared>,
    sweeper: SplitSweeper,
    dirty: DirtyLog,
}

fn node_worker<C: Comm>(
    input: &ScoredSeq,
    comm: Arc<Mutex<C>>,
    shared: Arc<NodeShared>,
    slot: usize,
    deadline: Duration,
    checkpoint_budget: Option<usize>,
) {
    // What tasks are decoded against: one split each.
    let unit = SplitUnit::new(input.seq, None, None);
    let mut me = NodeThread {
        input,
        comm: Arc::clone(&comm),
        shared: Arc::clone(&shared),
        // A first pass under a grown replica leaves the sweeper alone:
        // seeding it measured +20–30 % RSS for no wall time (PR 13).
        sweeper: SplitSweeper::new(checkpoint_budget, false),
        dirty: DirtyLog::new(),
    };
    let mut next_beacon = Instant::now(); // fires immediately: first IDLE
    loop {
        // Prefer runnable deferred tasks (their stamp has been reached).
        let runnable = {
            let mut inner = shared.inner.lock();
            if inner.done {
                return;
            }
            let applied = inner.applied;
            match inner.deferred.iter().position(|&(s, _)| s <= applied) {
                Some(pos) => {
                    let (_, item) = inner.deferred.swap_remove(pos);
                    let snapshot = Arc::clone(&inner.triangle);
                    let repeat = !inner.sent.insert((item.unit, item.attempt));
                    if me.sweeper.checkpointing() {
                        sync_dirty(&mut me.dirty, &inner);
                    }
                    Some((item, snapshot, repeat, applied))
                }
                None => None,
            }
        };
        if let Some((item, triangle, repeat, applied)) = runnable {
            me.run_task(&triangle, applied, item, repeat);
            continue;
        }

        let now = Instant::now();
        {
            let lagging = {
                let inner = shared.inner.lock();
                if now.duration_since(inner.last_master) > deadline {
                    return; // master silent for the whole budget
                }
                (!inner.deferred.is_empty()).then_some(inner.applied)
            };
            if now >= next_beacon {
                // This thread's capacity slot re-announces itself while
                // free (the master dedupes); a lagging replica instead
                // heartbeats and asks for the acceptances it missed.
                let guard = comm.lock();
                let sent = match lagging {
                    None => guard.send(0, tag::IDLE, idle_payload(slot)),
                    Some(applied) => {
                        // Paired so a deterministic loss pattern cannot
                        // starve the replica (see the engine worker);
                        // the request itself refreshes liveness.
                        let _ = guard.send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                        guard.send(0, tag::RESYNC, ResyncMsg { applied }.encode())
                    }
                };
                drop(guard);
                if sent.is_err() {
                    shared.inner.lock().done = true;
                    return;
                }
                next_beacon = now + BEACON_PERIOD;
            }
        }

        // Take a turn on the node's endpoint (short slice so siblings
        // also get to poll; the master's recovery loop governs liveness).
        let msg = {
            let guard = comm.lock();
            guard.recv_timeout(WORKER_POLL)
        };
        let msg = match msg {
            Ok(m) => m,
            Err(RecvError::Disconnected) => {
                shared.inner.lock().done = true;
                return;
            }
            Err(RecvError::Timeout) => continue,
        };
        shared.inner.lock().last_master = Instant::now();
        match msg.tag {
            tag::TASK => {
                let Ok(mut task) = TaskMsg::decode(&msg.payload, &unit) else {
                    continue; // corrupted; the master will retransmit
                };
                let stamp = task.stamp;
                let snapshot = {
                    let mut inner = shared.inner.lock();
                    if stamp <= inner.applied {
                        // Claim every item of the batch under one lock
                        // hold so the repeat flags and the dirty sync
                        // describe the same replica version.
                        let repeats: Vec<bool> = task
                            .items
                            .iter()
                            .map(|item| !inner.sent.insert((item.unit, item.attempt)))
                            .collect();
                        if me.sweeper.checkpointing() {
                            sync_dirty(&mut me.dirty, &inner);
                        }
                        Some((Arc::clone(&inner.triangle), repeats, inner.applied))
                    } else {
                        // Replica lags the whole batch (one stamp per
                        // frame: all-run-or-all-defer). Defer item by
                        // item, so a per-item retransmission finds its
                        // twin already waiting.
                        for item in task.items.drain(..) {
                            if !inner.deferred.iter().any(|(_, d)| d.same_attempt(&item)) {
                                inner.deferred.push((stamp, item));
                            }
                        }
                        None
                    }
                };
                if let Some((triangle, repeats, applied)) = snapshot {
                    for (item, repeat) in task.items.into_iter().zip(repeats) {
                        me.run_task(&triangle, applied, item, repeat);
                    }
                }
            }
            tag::ACCEPTED => {
                let Ok(acc) = AcceptedMsg::decode(&msg.payload) else {
                    let applied = shared.inner.lock().applied;
                    let _ = comm
                        .lock()
                        .send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                    continue;
                };
                let mut inner = shared.inner.lock();
                // In-order application only: skipping a lost acceptance
                // would leave its override pairs out of the shared
                // replica while the stamp claims otherwise (see the
                // engine worker for the full argument).
                if acc.index > inner.applied {
                    let applied = inner.applied;
                    drop(inner);
                    let _ = comm
                        .lock()
                        .send(0, tag::RESYNC, ResyncMsg { applied }.encode());
                    continue;
                }
                if acc.index < inner.applied {
                    continue; // duplicate of an already-applied acceptance
                }
                let mut triangle = (*inner.triangle).clone();
                for &(p, q) in &acc.pairs {
                    triangle.set(p, q);
                }
                inner.triangle = Arc::new(triangle);
                if checkpoint_budget.is_some() {
                    inner.accepts.push(acc.pairs);
                }
                inner.applied += 1;
                shared.wake.notify_all();
            }
            tag::DONE => {
                let mut inner = shared.inner.lock();
                inner.done = true;
                shared.wake.notify_all();
                return;
            }
            _ => {} // stray tag: ignore
        }
    }
}

/// Append the accept entries `local` has not yet seen from the node's
/// history. Called under the node lock, so afterwards
/// `local.version() == inner.applied` whenever the layer is on.
fn sync_dirty(local: &mut DirtyLog, inner: &NodeInner) {
    while (local.version() as usize) < inner.accepts.len() {
        local.record_accept(&inner.accepts[local.version() as usize]);
    }
}

impl<C: Comm> NodeThread<'_, C> {
    /// Sweep `task` under `triangle`, the node's replica at version
    /// `applied` (at or past the task's stamp), and send the result.
    fn run_task(
        &mut self,
        triangle: &OverrideTriangle,
        applied: usize,
        task: TaskItem,
        repeat: bool,
    ) {
        // The clean row a realignment is filtered against: attached to
        // the task, or cached node-wide by whoever first-passed it.
        let r = task.unit + 1;
        let original = (!task.first).then(|| {
            let mut inner = self.shared.inner.lock();
            if let Some((_, row)) = task.rows.first() {
                inner.rows.insert(r, Arc::new(row.clone()));
            }
            let row = inner.rows.get(&r);
            Arc::clone(row.expect("realignment without cached or attached row"))
        });
        let original = original.as_ref().map(|row| &row[..]);
        let out = self
            .sweeper
            .sweep(self.input, r, triangle, original, &self.dirty, None);
        if let Some(row) = &out.first_row {
            let row = Arc::new(row.clone());
            self.shared.inner.lock().rows.insert(r, row);
        }
        debug_assert!(
            out.score <= task.bound,
            "split {r}: score {} above shipped bound {}",
            out.score,
            task.bound
        );
        let res = ResultMsg::answer(&task, applied, out);
        let payload = ResultsMsg { items: vec![res] }.encode();
        // A repeat means the first copy was lost: double-send so a
        // period-2 loss pattern cannot swallow both copies.
        for _ in 0..if repeat { 2 } else { 1 } {
            if self
                .comm
                .lock()
                .send(0, tag::RESULT, payload.clone())
                .is_err()
            {
                // The master is gone; let the node wind down.
                self.shared.inner.lock().done = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::NoopRecorder;

    const DL: Duration = Duration::from_secs(20);

    /// A run under `search` on `nodes` × `tpn` CPUs, nothing recorded.
    fn hybrid(
        seq: &Seq,
        scoring: &Scoring,
        search: Search,
        nodes: usize,
        tpn: usize,
    ) -> ClusterResult {
        run_hybrid(seq, scoring, &search, nodes, tpn, DL, &mut NoopRecorder)
            .expect("in-process hybrid cannot stall")
    }

    #[test]
    fn hybrid_matches_sequential() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 4);
            for (nodes, tpn) in [(1, 2), (2, 2), (3, 2), (2, 3)] {
                let got = hybrid(&seq, &scoring, Search::new(4), nodes, tpn);
                assert_eq!(
                    got.result.alignments, want.alignments,
                    "{nodes} nodes × {tpn} CPUs on {text}"
                );
                assert_eq!(got.ranks, nodes + 1);
            }
        }
    }

    #[test]
    fn master_only_node_plus_full_nodes() {
        // threads_per_node = 1: the master's node contributes no workers.
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        let got = hybrid(&seq, &scoring, Search::new(5), 3, 1);
        assert_eq!(got.result.alignments, want.alignments);
        assert_eq!(got.ranks, 4);
    }

    #[test]
    fn protein_hybrid() {
        let seq = Seq::protein("MGEKALVPYRLQHCMGEKALVPYRWWMGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = hybrid(&seq, &scoring, Search::new(4), 2, 2);
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
            for (nodes, tpn) in [(1, 2), (2, 2)] {
                let search = Search {
                    checkpoint_budget: budget,
                    ..Search::new(6)
                };
                let got = hybrid(&seq, &scoring, search, nodes, tpn);
                assert_eq!(
                    got.result.alignments, want.alignments,
                    "budget {budget:?}, {nodes}×{tpn}"
                );
                let s = &got.result.stats;
                if budget == Some(0) {
                    assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                    assert_eq!(s.realign_rows_skipped, 0);
                    assert!(s.checkpoint_misses > 0);
                } else {
                    assert!(s.checkpoint_hits > 0, "{nodes}×{tpn}: expected hits");
                    assert!(s.realign_rows_skipped > 0);
                }
            }
        }
    }

    #[test]
    fn seeded_matches_unpruned_and_prunes() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 2);
        let search = Search {
            seed: Some(SeedConfig::default()),
            ..Search::new(2)
        };
        for (nodes, tpn) in [(1, 2), (2, 2)] {
            let got = hybrid(&seq, &scoring, search, nodes, tpn);
            assert_eq!(
                got.result.alignments, want.alignments,
                "seeded {nodes}×{tpn}"
            );
            // Which splits two racing workers leave unswept depends on the
            // schedule; only the one-worker config prunes deterministically.
            if (nodes, tpn) == (1, 2) {
                assert!(got.result.stats.splits_pruned > 0, "{nodes}×{tpn}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn single_cpu_world_is_rejected() {
        let seq = Seq::dna("ATGC").unwrap();
        let _ = hybrid(&seq, &Scoring::dna_example(), Search::new(1), 1, 1);
    }
}
