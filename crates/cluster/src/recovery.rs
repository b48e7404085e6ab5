//! The transport-level recovery loop every message-passing master runs
//! (threads, sockets, and the hybrid's nodes).
//!
//! [`MasterState`] decides *what* to do;
//! this module decides *when to stop believing a worker*. It wraps the
//! state machine with:
//!
//! * **per-task deadlines with bounded retry** — every assignment is
//!   remembered; if its result does not arrive in time the identical
//!   task (same attempt number) is retransmitted under exponential
//!   backoff. Recomputing is idempotent and the attempt number makes
//!   late duplicates harmless;
//! * **liveness tracking** — any traffic from a rank (results, IDLE
//!   re-announcements, heartbeats, resync requests) refreshes its
//!   last-heard time. A worker whose retries are exhausted *and* whose
//!   beacons stopped is declared dead; a send that fails with
//!   [`SendError::PeerDead`] declares it dead immediately;
//! * **reassignment** — a dead worker's in-flight tasks return to the
//!   master's pool and are reissued (with a bumped attempt) to the
//!   surviving workers;
//! * **graceful degradation** — when every worker is lost, or the
//!   overall budget runs out with work still undone, the master
//!   finishes the search locally against its own triangle. The result
//!   is still exactly the sequential one; [`ClusterError::Stalled`] is
//!   reserved for worlds where not even that is possible.

use crate::engine::ClusterError;
use crate::master::{MasterAction, MasterState};
use crate::protocol::{tag, ResultsMsg, ResyncMsg, TaskItem, TaskMsg, TelemetryMsg};
use repro_core::{PackKernel, TopAlignments};
use repro_obs::{Counter, Event, Metric, Phase, Recorder, TelemetrySnapshot};
use repro_xmpi::{Comm, RecvError, SendError};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The overall budget a run gets when its caller has no reason to pick
/// another (the facade, for every message-passing engine): far above any
/// real run, so only a genuinely stuck world ever meets it.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Knobs for the recovery loop. The defaults are tuned for in-process
/// test worlds (short timeouts); `overall` is set per run.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// First retransmission timeout for an unanswered assignment.
    pub retry_base: Duration,
    /// Retransmissions before the worker's liveness is questioned.
    pub max_retries: u32,
    /// Ceiling on the exponential backoff between retransmissions.
    /// Under *sustained* loss (every task needs several retransmits)
    /// an uncapped doubling turns a lossy-but-live world into minutes
    /// of idle waiting; past the point where liveness would catch a
    /// dead worker there is nothing to gain from waiting longer.
    pub retry_cap: Duration,
    /// How long a rank may stay silent before "no result + retries
    /// exhausted" escalates to a death declaration.
    pub liveness: Duration,
    /// Hard budget for the whole run; when it expires the master stops
    /// waiting and finishes the remaining work locally.
    pub overall: Duration,
    /// How long the master waits for a *first* worker to register
    /// before giving up on the cluster and finishing locally. Without
    /// this, a world where no worker ever announces itself — none
    /// spawned, all crashed before their first IDLE, or (on the socket
    /// backend) none connected — would spin silently until `overall`
    /// (minutes at production budgets) with zero in-flight work to
    /// retry. The audit: a master with no live workers *and* no flights
    /// past this grace must degrade, never idle.
    pub join_grace: Duration,
}

impl RecoveryConfig {
    /// Defaults with the given overall budget.
    pub fn with_overall(overall: Duration) -> Self {
        RecoveryConfig {
            retry_base: Duration::from_millis(60),
            max_retries: 3,
            retry_cap: Duration::from_millis(250),
            liveness: Duration::from_millis(400),
            overall,
            join_grace: Duration::from_secs(2).min(overall),
        }
    }
}

/// An assignment the master is still waiting on.
struct Flight {
    worker: usize,
    /// The batch's stamp and this flight's item of it: re-shipped alone
    /// (and only then encoded) if the result does not arrive in time.
    stamp: usize,
    item: TaskItem,
    retry_at: Instant,
    backoff: Duration,
    retries: u32,
    /// When the task was first handed to the transport; the round-trip
    /// histogram samples `sent_at → accepted result`.
    sent_at: Instant,
}

/// Receive poll granularity when no retransmit deadline is nearer.
const TICK: Duration = Duration::from_millis(25);

/// How long the master keeps listening after DONE for the final (`fin`)
/// telemetry snapshots of workers that already sent telemetry. Bounded:
/// a crashed worker's missing fin costs at most this much shutdown
/// latency and some understated tallies, never a hang.
const TELEMETRY_GRACE: Duration = Duration::from_millis(250);

/// Per-worker telemetry state on the master: the last cumulative
/// snapshot folded (so the next one can be diffed into a delta), the
/// highest sequence number seen, and whether the final snapshot landed.
#[derive(Default)]
struct WorkerTelemetry {
    snap: TelemetrySnapshot,
    last_seq: Option<u64>,
    fin: bool,
}

/// The master's fold of every worker's telemetry stream. Counter and
/// histogram snapshots arrive *cumulative*; the ledger diffs each
/// against the previous one from that worker, so lost or duplicated
/// frames cost staleness, never double-counting. What the snapshots
/// carry — the lane counters of the workers' commits, their sweep,
/// resume and queue-wait samples — is recorder-only: the work counters
/// travel in the results.
#[derive(Default)]
struct TelemetryLedger {
    per_worker: HashMap<usize, WorkerTelemetry>,
}

impl TelemetryLedger {
    /// Fold one snapshot: drop stale sequence numbers, diff against the
    /// previous snapshot, fold the delta into the recorder.
    fn fold<R: Recorder>(&mut self, worker: usize, msg: TelemetryMsg, rec: &mut R) {
        let entry = self.per_worker.entry(worker).or_default();
        if entry.last_seq.is_some_and(|s| msg.seq <= s) {
            return; // duplicate or reordered: already folded
        }
        let delta = msg.snap.delta_from(&entry.snap);
        for c in Counter::ALL {
            rec.add(c, delta.counter(c));
        }
        for m in Metric::ALL {
            let h = delta.hists.get(m);
            if !h.is_empty() {
                rec.observe_hist(m, h);
            }
        }
        if R::ENABLED {
            rec.event(Event::Telemetry {
                worker,
                seq: msg.seq,
            });
        }
        entry.snap = msg.snap;
        entry.last_seq = Some(msg.seq);
        entry.fin |= msg.fin;
    }

    /// `true` while some worker that has sent telemetry has not yet
    /// delivered its final snapshot.
    fn awaiting_fins(&self) -> bool {
        self.per_worker.values().any(|w| !w.fin)
    }
}

/// After DONE went out: keep folding late telemetry until every worker
/// that ever sent any delivers its `fin` snapshot, bounded by
/// [`TELEMETRY_GRACE`]. Workers that never sent telemetry (crashed, or
/// a peer that does not speak the tag) are not waited for.
fn drain_final_telemetry<C: Comm, R: Recorder>(
    comm: &C,
    ledger: &mut TelemetryLedger,
    rec: &mut R,
) {
    let deadline = Instant::now() + TELEMETRY_GRACE;
    while ledger.awaiting_fins() {
        let now = Instant::now();
        let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
            return;
        };
        let msg = match comm.recv_timeout(left) {
            Ok(m) => m,
            Err(_) => return,
        };
        if msg.tag == tag::TELEMETRY {
            if let Ok(t) = TelemetryMsg::decode(&msg.payload) {
                ledger.fold(msg.from, t, rec);
            }
        }
        // Any other late traffic (results, beacons) is post-DONE noise.
    }
}

/// Finish the machine: report its acceptance time as the `traceback`
/// phase and patch the transport-level recovery tallies into the
/// result's stats (the state machine itself never sees them).
fn finalize<K: PackKernel, R: Recorder>(
    master: MasterState<K>,
    rec: &mut R,
    retries: u64,
    reassigns: u64,
) -> TopAlignments {
    if !master.alignments().is_empty() {
        rec.add_phase_secs(Phase::Traceback, master.traceback_secs());
    }
    rec.add(Counter::ClusterRejectedResults, master.rejected_results());
    let mut tops = master.into_result();
    tops.stats.cluster_retries = retries;
    tops.stats.cluster_reassignments = reassigns;
    tops
}

/// Drain the master's local-fallback actions and return its result.
/// Emits a [`Event::LocalFallback`] so event logs make the degradation
/// visible, then the terminal [`Event::Done`].
fn local_finish<K: PackKernel, C: Comm, R: Recorder>(
    mut master: MasterState<K>,
    comm: &C,
    rec: &mut R,
    retries: u64,
    reassigns: u64,
    ledger: &mut TelemetryLedger,
) -> Result<TopAlignments, ClusterError> {
    rec.add(Counter::ClusterLocalFallbacks, 1);
    rec.event(Event::LocalFallback);
    for action in master.finish_locally() {
        match action {
            MasterAction::Broadcast(acc) => {
                rec.add(Counter::ClusterBroadcasts, 1);
                if R::ENABLED {
                    rec.event(Event::Broadcast { index: acc.index });
                }
                repro_xmpi::broadcast_from(comm, tag::ACCEPTED, &acc.encode());
            }
            MasterAction::Done => {
                repro_xmpi::broadcast_from(comm, tag::DONE, &[]);
            }
            MasterAction::Assign { .. } => unreachable!("local assigns are internal"),
        }
    }
    if master.is_done() {
        if R::ENABLED {
            rec.event(Event::Done {
                tops: master.alignments().len(),
            });
        }
        drain_final_telemetry(comm, ledger, rec);
        Ok(finalize(master, rec, retries, reassigns))
    } else {
        // No workers, and the local pass could not finish either
        // (it always can; this is a defensive dead end).
        Err(ClusterError::Stalled)
    }
}

// Execute master actions; returns Ok(true) when DONE was emitted.
// A failed direct send declares the destination dead on the spot,
// and the resulting reassignments join the work list.
#[allow(clippy::too_many_arguments)] // transport loop state, threaded explicitly
fn act<K: PackKernel, C: Comm, R: Recorder>(
    comm: &C,
    master: &mut MasterState<K>,
    flights: &mut HashMap<usize, Flight>,
    config: &RecoveryConfig,
    actions: Vec<MasterAction>,
    rec: &mut R,
    reassigns: &mut u64,
) -> Result<bool, ClusterError> {
    let mut queue: std::collections::VecDeque<MasterAction> = actions.into();
    let mut done = false;
    while let Some(action) = queue.pop_front() {
        match action {
            MasterAction::Assign { worker, task } => {
                let payload = task.encode();
                let now = Instant::now();
                if R::ENABLED {
                    rec.observe(Metric::BatchSize, task.items.len() as u64);
                    for item in &task.items {
                        rec.event(Event::Assign {
                            worker,
                            r: master.unit().splits(item.unit).start, // a unit's first split
                            attempt: item.attempt,
                            stamp: task.stamp,
                        });
                    }
                }
                match comm.send(worker, tag::TASK, payload) {
                    // One flight per batched item: an unanswered item is
                    // re-shipped alone, so a partially-answered batch is
                    // healed piecewise and settled items never recompute.
                    Ok(()) => {
                        for item in task.items {
                            flights.insert(
                                item.unit,
                                Flight {
                                    worker,
                                    stamp: task.stamp,
                                    item,
                                    retry_at: now + config.retry_base,
                                    backoff: config.retry_base,
                                    retries: 0,
                                    sent_at: now,
                                },
                            );
                        }
                    }
                    Err(SendError::SelfDead) => return Err(ClusterError::MasterDead),
                    Err(SendError::PeerDead(_)) => {
                        // Flights these units still hold are from
                        // assignments that were withdrawn: drop them.
                        let dropped = task.items.len() as u64;
                        for item in &task.items {
                            flights.remove(&item.unit);
                        }
                        *reassigns += dropped;
                        rec.add(Counter::ClusterWorkerDeaths, 1);
                        if R::ENABLED {
                            rec.event(Event::WorkerDead { worker });
                        }
                        queue.extend(master.worker_dead(worker));
                    }
                }
            }
            MasterAction::Broadcast(acc) => {
                rec.add(Counter::ClusterBroadcasts, 1);
                if R::ENABLED {
                    rec.event(Event::Broadcast { index: acc.index });
                }
                repro_xmpi::broadcast_from(comm, tag::ACCEPTED, &acc.encode());
            }
            MasterAction::Done => {
                if R::ENABLED {
                    rec.event(Event::Done {
                        tops: master.alignments().len(),
                    });
                }
                repro_xmpi::broadcast_from(comm, tag::DONE, &[]);
                done = true;
            }
        }
    }
    Ok(done)
}

/// The fault-tolerant master loop: drives `master` over `comm` until
/// the search completes (possibly via local fallback) or the world is
/// genuinely unrecoverable. Every transport-level incident (assign,
/// result, retransmit, death, resync, fallback) is mirrored into `rec`
/// as a structured [`Event`], which is what makes chaos failures
/// replayable from the JSONL event log.
pub(crate) fn master_loop<K: PackKernel, C: Comm, R: Recorder>(
    mut master: MasterState<K>,
    comm: C,
    config: RecoveryConfig,
    rec: &mut R,
) -> Result<TopAlignments, ClusterError> {
    // One flight per unit in flight, keyed by unit.
    let mut flights: HashMap<usize, Flight> = HashMap::new();
    let start = Instant::now();
    let mut last_heard: HashMap<usize, Instant> = (1..comm.size()).map(|r| (r, start)).collect();
    let mut retries_total: u64 = 0;
    let mut reassigns_total: u64 = 0;
    let mut ledger = TelemetryLedger::default();

    loop {
        let now = Instant::now();
        if now.duration_since(start) >= config.overall {
            // Budget exhausted with the search unfinished: stop
            // believing the cluster and compute the rest ourselves.
            repro_xmpi::broadcast_from(&comm, tag::DONE, &[]);
            return local_finish(
                master,
                &comm,
                rec,
                retries_total,
                reassigns_total,
                &mut ledger,
            );
        }
        if master.live_workers() == 0
            && flights.is_empty()
            && !master.is_done()
            && now.duration_since(start) >= config.join_grace
        {
            // No worker ever registered (or every registered one was
            // already written off) and nothing is in flight to retry:
            // waiting longer cannot make progress, so degrade now
            // instead of idling out the whole overall budget.
            repro_xmpi::broadcast_from(&comm, tag::DONE, &[]);
            return local_finish(
                master,
                &comm,
                rec,
                retries_total,
                reassigns_total,
                &mut ledger,
            );
        }

        // Retransmit overdue assignments; escalate silent workers.
        let mut newly_dead: Vec<usize> = Vec::new();
        for (&u, flight) in flights.iter_mut() {
            if now < flight.retry_at {
                continue;
            }
            let heard = last_heard
                .get(&flight.worker)
                .is_some_and(|&t| now.duration_since(t) < config.liveness);
            if flight.retries >= config.max_retries && !heard {
                newly_dead.push(flight.worker);
                continue;
            }
            // Retransmit in back-to-back pairs: a deterministic loss
            // pattern with a short period can phase-lock with the
            // loop's regular cadence and swallow every single-copy
            // retransmission; two consecutive copies straddle any
            // period-2 lock, and recomputation is idempotent anyway.
            let payload = TaskMsg::single(flight.stamp, flight.item.clone()).encode();
            let fate = comm
                .send(flight.worker, tag::TASK, payload.clone())
                .and_then(|()| comm.send(flight.worker, tag::TASK, payload));
            match fate {
                Ok(()) => {
                    flight.retries += 1;
                    flight.backoff = (flight.backoff * 2).min(config.retry_cap);
                    flight.retry_at = now + flight.backoff;
                    retries_total += 1;
                    if R::ENABLED {
                        rec.event(Event::Retry {
                            worker: flight.worker,
                            r: master.unit().splits(u).start,
                            attempt: flight.item.attempt,
                            retries: flight.retries,
                        });
                    }
                }
                Err(SendError::SelfDead) => return Err(ClusterError::MasterDead),
                Err(SendError::PeerDead(_)) => newly_dead.push(flight.worker),
            }
        }
        if !newly_dead.is_empty() {
            newly_dead.sort_unstable();
            newly_dead.dedup();
            let mut actions = Vec::new();
            for w in newly_dead {
                let before = flights.len();
                flights.retain(|_, f| f.worker != w);
                let dropped = (before - flights.len()) as u64;
                reassigns_total += dropped;
                rec.add(Counter::ClusterWorkerDeaths, 1);
                if R::ENABLED {
                    rec.event(Event::WorkerDead { worker: w });
                }
                actions.extend(master.worker_dead(w));
            }
            if act(
                &comm,
                &mut master,
                &mut flights,
                &config,
                actions,
                rec,
                &mut reassigns_total,
            )? {
                drain_final_telemetry(&comm, &mut ledger, rec);
                return Ok(finalize(master, rec, retries_total, reassigns_total));
            }
            if master.live_workers() == 0 && !master.is_done() {
                return local_finish(
                    master,
                    &comm,
                    rec,
                    retries_total,
                    reassigns_total,
                    &mut ledger,
                );
            }
        }

        // Wait for traffic, but never past the next retransmit due time.
        let mut timeout = TICK;
        if let Some(next) = flights.values().map(|f| f.retry_at).min() {
            timeout = timeout.min(next.saturating_duration_since(now));
        }
        let msg = match comm.recv_timeout(timeout.max(Duration::from_millis(1))) {
            Ok(m) => m,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Disconnected) => {
                // Our own endpoint crashed (or the world tore down
                // beneath us): the master cannot produce a result.
                return Err(ClusterError::MasterDead);
            }
        };
        last_heard.insert(msg.from, Instant::now());
        let actions = match msg.tag {
            tag::IDLE => match ResyncMsg::decode(&msg.payload) {
                // IDLE carries the announcing slot in `applied`'s place.
                Ok(m) => master.worker_idle(msg.from, m.applied),
                Err(_) => Vec::new(), // corrupted announcement; it repeats
            },
            tag::HEARTBEAT => Vec::new(),
            tag::RESULT => match ResultsMsg::decode(&msg.payload, master.unit()) {
                Ok(frame) => {
                    rec.add(Counter::ClusterResultFrames, 1);
                    let mut acts = Vec::new();
                    for res in frame.items {
                        if flights
                            .get(&res.unit)
                            .is_some_and(|f| f.worker == msg.from && f.item.attempt == res.attempt)
                        {
                            let flight = flights.remove(&res.unit).expect("checked above");
                            if R::ENABLED {
                                rec.observe(
                                    Metric::TaskRoundTripNs,
                                    flight.sent_at.elapsed().as_nanos() as u64,
                                );
                            }
                        }
                        if R::ENABLED {
                            rec.event(Event::Result {
                                worker: msg.from,
                                r: master.unit().splits(res.unit).start,
                                attempt: res.attempt,
                                score: res.best.1 as i64,
                            });
                        }
                        acts.extend(master.result(msg.from, res));
                    }
                    if R::ENABLED {
                        rec.progress(&master.progress());
                    }
                    acts
                }
                Err(_) => Vec::new(), // corrupted in flight; retry recovers
            },
            tag::RESYNC => {
                if let Ok(m) = ResyncMsg::decode(&msg.payload) {
                    rec.add(Counter::ClusterResyncs, 1);
                    if R::ENABLED {
                        rec.event(Event::Resync {
                            worker: msg.from,
                            applied: m.applied,
                        });
                    }
                    for acc in master.accepted_since(m.applied) {
                        // Paired: the reply is retransmission traffic,
                        // and a single copy per round can phase-lock
                        // with a deterministic loss pattern.
                        let payload = acc.encode();
                        let _ = comm.send(msg.from, tag::ACCEPTED, payload.clone());
                        let _ = comm.send(msg.from, tag::ACCEPTED, payload);
                    }
                }
                Vec::new()
            }
            tag::TELEMETRY => {
                // Pure observability: folded into the ledger (and the
                // recorder's histograms), never into scheduling state.
                if let Ok(t) = TelemetryMsg::decode(&msg.payload) {
                    ledger.fold(msg.from, t, rec);
                }
                Vec::new()
            }
            _ => Vec::new(), // stray tag: ignore rather than crash
        };
        if act(
            &comm,
            &mut master,
            &mut flights,
            &config,
            actions,
            rec,
            &mut reassigns_total,
        )? {
            drain_final_telemetry(&comm, &mut ledger, rec);
            return Ok(finalize(master, rec, retries_total, reassigns_total));
        }
        if master.live_workers() == 0 && !master.is_done() && flights.is_empty() {
            // Every registered worker has been written off.
            return local_finish(
                master,
                &comm,
                rec,
                retries_total,
                reassigns_total,
                &mut ledger,
            );
        }
    }
}

/// How often a worker beacons (IDLE while free, a paired RESYNC while
/// it has deferred work) so the master can tell "slow" from "gone".
pub(crate) const BEACON_PERIOD: Duration = Duration::from_millis(40);

/// Worker-side receive poll granularity.
pub(crate) const WORKER_POLL: Duration = Duration::from_millis(15);

/// Encode a worker's IDLE announcement (the slot rides in the
/// [`ResyncMsg`] frame — both are a single `usize`).
pub(crate) fn idle_payload(slot: usize) -> Vec<u8> {
    ResyncMsg { applied: slot }.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_align::{Scoring, Seq};
    use repro_core::{find_top_alignments, Search};
    use repro_obs::NoopRecorder;
    use repro_xmpi::thread::ThreadComm;

    #[test]
    fn master_alone_degrades_after_join_grace_not_overall() {
        // Recv-timeout audit: a master whose workers never announce
        // themselves (none spawned, none connected, or all dead before
        // their first IDLE) must degrade to local computation after the
        // join grace — not idle silently until the overall budget.
        let seq = Seq::dna(&"ATGC".repeat(6)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        // Endpoints for ranks 1 and 2 exist but nobody ever runs them.
        let mut world = ThreadComm::world(3);
        let master = world.remove(0);
        let mut config = RecoveryConfig::with_overall(DEFAULT_DEADLINE);
        config.join_grace = Duration::from_millis(150);
        let start = Instant::now();
        let got = master_loop(
            MasterState::new(&seq, &scoring, &Search::new(3)),
            master,
            config,
            &mut NoopRecorder,
        )
        .expect("a silent world must still produce the local result");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "must not idle out the overall budget"
        );
        assert_eq!(got.alignments, want.alignments);
        drop(world);
    }
}
