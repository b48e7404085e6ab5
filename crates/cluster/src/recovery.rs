//! The transport loop every message-passing master runs (threads,
//! sockets, and the hybrid's nodes): the I/O around [`MasterState`].
//!
//! The state machine decides everything about the work: when to
//! retransmit, how long to wait and when a silent worker is dead. This
//! loop hands it the clock and the messages and carries out what it
//! returns:
//!
//! * **the clock** — the time since the run started, read after every
//!   receive ([`MasterState::heard`]), at every task sent
//!   ([`MasterState::sent`]) and on every wake-up
//!   ([`MasterState::tick`]); a receive never waits past the master's
//!   next retry deadline;
//! * **sends** — tasks, retransmissions (in back-to-back pairs) and
//!   broadcasts; a send that fails with [`SendError::PeerDead`] declares
//!   the worker dead on the spot;
//! * **graceful degradation** — when every worker of the world is
//!   lost, none is live past the join grace, or the overall budget runs
//!   out with work still undone, the master finishes the search locally
//!   against its own triangle. The result is still exactly the
//!   sequential one; [`ClusterError::Stalled`] is reserved for worlds
//!   where not even that is possible;
//! * **observability** — every incident as a structured event, and the
//!   workers' telemetry folded as it arrives.

use crate::engine::ClusterError;
use crate::master::{MasterAction, MasterState};
use crate::protocol::{tag, ResultsMsg, ResyncMsg, TelemetryMsg};
use repro_core::{PackKernel, TopAlignments};
use repro_obs::{Counter, Event, Metric, Phase, Recorder, TelemetrySnapshot};
use repro_xmpi::{Comm, Message, RecvError, SendError};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The overall budget a run gets when its caller has no reason to pick
/// another (the facade, for every message-passing engine): far above any
/// real run, so only a genuinely stuck world ever meets it.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// The loop's budgets; the retransmission and liveness knobs are the
/// master's ([`crate::master::RETRY_BASE`] and the three after it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryConfig {
    /// Hard budget for the whole run; when it expires the master stops
    /// waiting and finishes the remaining work locally.
    pub(crate) overall: Duration,
    /// How long a master with no live worker waits before it finishes
    /// locally: a world where none ever announces itself (none spawned,
    /// all crashed before their first IDLE, none connected) must
    /// degrade, not idle until `overall`.
    pub(crate) join_grace: Duration,
}

impl RecoveryConfig {
    /// Defaults with the given overall budget.
    pub(crate) fn with_overall(overall: Duration) -> Self {
        RecoveryConfig {
            overall,
            join_grace: Duration::from_secs(2).min(overall),
        }
    }
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
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        let Ok(msg) = comm.recv_timeout(left) else {
            return;
        };
        if msg.tag == tag::TELEMETRY {
            if let Ok(t) = TelemetryMsg::decode(&msg.payload) {
                ledger.fold(msg.from, t, rec);
            }
        }
        // Any other late traffic (results, beacons) is post-DONE noise.
    }
}

/// Finish the machine once DONE went out: fold the workers' final
/// telemetry, and report its acceptance time as the `traceback` phase
/// and its rejected results.
fn finish<K: PackKernel, C: Comm, R: Recorder>(
    master: MasterState<K>,
    comm: &C,
    ledger: &mut TelemetryLedger,
    rec: &mut R,
) -> TopAlignments {
    drain_final_telemetry(comm, ledger, rec);
    if !master.alignments().is_empty() {
        rec.add_phase_secs(Phase::Traceback, master.traceback_secs());
    }
    rec.add(Counter::ClusterRejectedResults, master.rejected_results());
    master.into_result()
}

/// Finish the search on the master itself and return its result.
/// Emits a [`Event::LocalFallback`] so event logs make the degradation
/// visible, then forwards the leftover broadcasts and DONE.
fn local_finish<K: PackKernel, C: Comm, R: Recorder>(
    mut master: MasterState<K>,
    comm: &C,
    rec: &mut R,
    ledger: &mut TelemetryLedger,
    start: Instant,
) -> Result<TopAlignments, ClusterError> {
    rec.add(Counter::ClusterLocalFallbacks, 1);
    rec.event(Event::LocalFallback);
    let actions = master.finish_locally();
    if act(comm, &mut master, actions, rec, start)? {
        Ok(finish(master, comm, ledger, rec))
    } else {
        // No workers, and the local pass could not finish either
        // (it always can; this is a defensive dead end).
        Err(ClusterError::Stalled)
    }
}

// Carry out the master's actions, in order; returns Ok(true) once DONE
// went out. Each task that went out is reported to the master with the
// time since `start`; a send that fails because its worker is gone
// declares the worker dead on the spot, and the reassignments join the
// queue.
fn act<K: PackKernel, C: Comm, R: Recorder>(
    comm: &C,
    master: &mut MasterState<K>,
    actions: Vec<MasterAction>,
    rec: &mut R,
    start: Instant,
) -> Result<bool, ClusterError> {
    let mut queue: VecDeque<MasterAction> = actions.into();
    let mut done = false;
    while let Some(action) = queue.pop_front() {
        let (worker, task, retries) = match &action {
            MasterAction::Assign { worker, task } => {
                if R::ENABLED {
                    rec.observe(Metric::BatchSize, task.items.len() as u64);
                    for item in &task.items {
                        rec.event(Event::Assign {
                            worker: *worker,
                            r: master.unit().splits(item.unit).start, // a unit's first split
                            attempt: item.attempt,
                            stamp: task.stamp,
                        });
                    }
                }
                (*worker, task, None)
            }
            MasterAction::Retry {
                worker,
                task,
                retries,
            } => (*worker, task, Some(*retries)),
            &MasterAction::WorkerDead { worker } => {
                rec.add(Counter::ClusterWorkerDeaths, 1);
                if R::ENABLED {
                    rec.event(Event::WorkerDead { worker });
                }
                continue;
            }
            MasterAction::Broadcast(acc) => {
                rec.add(Counter::ClusterBroadcasts, 1);
                if R::ENABLED {
                    rec.event(Event::Broadcast { index: acc.index });
                }
                repro_xmpi::broadcast_from(comm, tag::ACCEPTED, &acc.encode());
                continue;
            }
            MasterAction::Done => {
                if R::ENABLED {
                    rec.event(Event::Done {
                        tops: master.alignments().len(),
                    });
                }
                repro_xmpi::broadcast_from(comm, tag::DONE, &[]);
                done = true;
                continue;
            }
        };
        let payload = task.encode();
        let at = start.elapsed();
        let sent = match retries {
            // Retransmit in back-to-back pairs: a deterministic loss
            // pattern with a short period can phase-lock with the
            // loop's regular cadence and swallow every single-copy
            // retransmission; two consecutive copies straddle any
            // period-2 lock, and recomputation is idempotent anyway.
            Some(_) => comm
                .send(worker, tag::TASK, payload.clone())
                .and_then(|()| comm.send(worker, tag::TASK, payload)),
            None => comm.send(worker, tag::TASK, payload),
        };
        match sent {
            Ok(()) => {
                if let Some(retries) = retries.filter(|_| R::ENABLED) {
                    let item = &task.items[0]; // a retransmission is one item
                    rec.event(Event::Retry {
                        worker,
                        r: master.unit().splits(item.unit).start,
                        attempt: item.attempt,
                        retries,
                    });
                }
                master.sent(&action, at);
            }
            Err(SendError::SelfDead) => return Err(ClusterError::MasterDead),
            Err(SendError::PeerDead(_)) => queue.extend(master.worker_dead(worker)),
        }
    }
    Ok(done)
}

/// What one received message asks of the master. RESYNC replies and
/// telemetry are handled here; they never change the schedule.
fn dispatch<K: PackKernel, C: Comm, R: Recorder>(
    comm: &C,
    master: &mut MasterState<K>,
    msg: Message,
    rec: &mut R,
    ledger: &mut TelemetryLedger,
) -> Vec<MasterAction> {
    match msg.tag {
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
                    if R::ENABLED {
                        rec.event(Event::Result {
                            worker: msg.from,
                            r: master.unit().splits(res.unit).start,
                            attempt: res.attempt,
                            score: res.best.1 as i64,
                        });
                    }
                    acts.extend(master.result(msg.from, res));
                    if let Some(round_trip) = master.take_round_trip() {
                        rec.observe(Metric::TaskRoundTripNs, round_trip.as_nanos() as u64);
                    }
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
    }
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
    let start = Instant::now();
    let mut ledger = TelemetryLedger::default();
    loop {
        let now = start.elapsed();
        if now >= config.overall || (master.live_workers() == 0 && now >= config.join_grace) {
            // The budget is spent with the search unfinished, or no
            // worker ever registered (or every registered one was
            // written off): waiting longer cannot make progress, so stop
            // believing the cluster and compute the rest ourselves.
            repro_xmpi::broadcast_from(&comm, tag::DONE, &[]);
            return local_finish(master, &comm, rec, &mut ledger, start);
        }
        let due = master.tick(now);
        let actions = if !due.is_empty() {
            due
        } else {
            // Wait for traffic, but never past the next retry deadline.
            let wait = master
                .next_deadline()
                .map_or(TICK, |at| at.saturating_sub(now).min(TICK));
            let msg = match comm.recv_timeout(wait.max(Duration::from_millis(1))) {
                Ok(m) => m,
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Disconnected) => {
                    // Our own endpoint crashed (or the world tore down
                    // beneath us): the master cannot produce a result.
                    return Err(ClusterError::MasterDead);
                }
            };
            master.heard(msg.from, start.elapsed());
            dispatch(&comm, &mut master, msg, rec, &mut ledger)
        };
        if act(&comm, &mut master, actions, rec, start)? {
            return Ok(finish(master, &comm, &mut ledger, rec));
        }
        if master.live_workers() == 0 && master.workers_seen() + 1 >= comm.size() {
            // Every worker of the world registered and was written off;
            // one still to register is waited for until the join grace.
            return local_finish(master, &comm, rec, &mut ledger, start);
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
