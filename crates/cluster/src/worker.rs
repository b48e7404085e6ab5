//! The cluster worker (the paper's §4.3 slave) as a pure state machine:
//! the replica, the lane packs' state, the run queue and the memo of
//! what it answered. It does no I/O, and time is an input: a driver
//! hands it the master's frames and the clock and sends the frames it
//! returns. The engine's sweep threads ([`crate::engine`]), the Figure 8
//! simulator ([`crate::sim`]) and the lossy-network property test all
//! drive this one worker.
//!
//! A driver reads the next frame only when nothing queued can run, and
//! an item stamped with a version the replica has not reached waits in
//! the queue (an ACCEPTED and a TASK travel independently): what an item
//! is computed against is decided by the order of the master's frames
//! alone, and its result reports the replica's version. An item is swept
//! at most once: a retransmission of one queued or running is dropped,
//! and one of an answered item is answered again from the memo.

use crate::master::{member_rows, Claim};
use crate::protocol::TelemetryMsg;
use crate::protocol::{tag, AcceptedMsg, ResultMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg};
use repro_core::{Common, LanePacks, OverrideTriangle, PackKernel, PackUnit, TopAlignment};
use repro_obs::{FlightRecorder, Metric, Recorder};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// A frame for the master: its tag and payload.
pub type Frame = (u32, Vec<u8>);

/// How often a worker beacons (IDLE while free, a paired RESYNC while
/// it has deferred work) so the master can tell "slow" from "gone".
pub(crate) const BEACON_PERIOD: Duration = Duration::from_millis(40);

/// One worker rank: what its sweep threads share, behind one lock in
/// the engine. The unit and the row store are borrowed, so a claim
/// sweeps them with the lock released.
pub struct WorkerState<'w, K> {
    unit: &'w PackUnit<K>,
    /// The profiled sequence and every first-pass row this worker has
    /// computed or been sent.
    common: &'w Common<'w>,
    /// The override triangle: a sweep holds a snapshot, so an ACCEPTED
    /// copies it only while a claim is out.
    triangle: Arc<OverrideTriangle>,
    /// The ACCEPTED broadcasts applied so far, in order: the replica's
    /// version is their count, and the unit's plan stamps against them.
    accepted: Vec<TopAlignment>,
    packs: LanePacks,
    /// Every received task item not yet run, with its stamp, in arrival
    /// order. An item runs once the replica has reached its stamp and no
    /// claim holds its unit.
    queue: VecDeque<(usize, TaskItem)>,
    /// The `(unit, attempt)` of every claim out.
    running: Vec<(usize, u64)>,
    /// Every attempt answered, by `(unit, attempt)`: its result less
    /// the rows, which a first pass's resend rebuilds from `common`.
    answered: HashMap<(usize, u64), ResultMsg>,
    /// Capacity slots an IDLE beacon announces.
    slots: usize,
    /// When the master was last heard, and when the next beacon is due.
    last_master: Duration,
    next_beacon: Duration,
    /// DONE, or the driver gave up: every sweep thread exits.
    pub(crate) done: bool,
    // Telemetry, shipped home as cumulative snapshots on the beacon
    // cadence: any frame may be lost without changing the result.
    wrec: FlightRecorder,
    tele_seq: u64,
}

/// A claimed item, planned and ready to sweep with no lock held.
pub struct Claimed<'w, K> {
    claim: Claim<'w, K>,
    /// The triangle snapshot to sweep under, until the sweep lets go.
    triangle: Option<Arc<OverrideTriangle>>,
}

impl<K: PackKernel> Claimed<'_, K> {
    /// The claimed item, its rows already stored.
    pub fn task(&self) -> &TaskItem {
        &self.claim.task
    }

    /// Sweep as planned (unless the plan is a replay), and let go of the
    /// triangle snapshot.
    pub fn sweep(&mut self) {
        if let Some(triangle) = self.triangle.take() {
            self.claim.sweep(&triangle);
        }
    }
}

impl<'w, K: PackKernel> WorkerState<'w, K> {
    /// A worker sweeping `unit`'s packs over `common`'s rows, announcing
    /// `slots` capacity slots while idle. Its first beacon is due at
    /// once.
    pub fn new(unit: &'w PackUnit<K>, common: &'w Common<'w>, slots: usize) -> Self {
        WorkerState {
            triangle: Arc::new(OverrideTriangle::new(common.input.seq.len())),
            accepted: Vec::new(),
            packs: unit.packs(),
            queue: VecDeque::new(),
            running: Vec::new(),
            answered: HashMap::new(),
            slots,
            last_master: Duration::ZERO,
            next_beacon: Duration::ZERO,
            done: false,
            wrec: FlightRecorder::new(),
            tele_seq: 0,
            unit,
            common,
        }
    }

    /// ACCEPTED broadcasts applied so far: the replica's version.
    pub(crate) fn applied(&self) -> usize {
        self.accepted.len()
    }

    /// How long the master has been silent at `now`.
    pub(crate) fn silent_for(&self, now: Duration) -> Duration {
        now.saturating_sub(self.last_master)
    }

    /// Take one frame from the master at `now`; returns the frames to
    /// send back. An undecodable frame is dropped (the master
    /// retransmits, or the worker asks for a resync).
    pub fn receive(&mut self, tag: u32, payload: &[u8], now: Duration) -> Vec<Frame> {
        self.last_master = now;
        match tag {
            tag::TASK => {
                let Ok(task) = TaskMsg::decode(payload, self.unit) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for item in task.items {
                    let key = (item.unit, item.attempt);
                    if let Some(res) = self.answered.get(&key) {
                        // The first answer was lost: two copies, as a
                        // lone one can phase-lock with a loss pattern.
                        let rows = match item.first {
                            true => member_rows(self.unit, self.common, item.unit),
                            false => Vec::new(),
                        };
                        let frame = result_frame(ResultMsg {
                            rows,
                            ..res.clone()
                        });
                        out.extend([frame.clone(), frame]);
                    } else if !self.running.contains(&key)
                        && !self.queue.iter().any(|(_, q)| (q.unit, q.attempt) == key)
                    {
                        self.queue.push_back((task.stamp, item));
                    }
                }
                out
            }
            // Acceptances must be applied *in order*: if index k was
            // lost and k+1 arrives first, applying it and claiming
            // version k+2 would leave k's override pairs silently
            // missing — and every score computed under that replica
            // would be wrongly trusted as fresh. A corrupted one would
            // leave the replica behind forever. Either way, ask for the
            // missing ones right away.
            tag::ACCEPTED => match AcceptedMsg::decode(payload) {
                Ok(acc) if acc.index < self.applied() => Vec::new(), // a duplicate
                Ok(acc) if acc.index == self.applied() => {
                    acc.apply(Arc::make_mut(&mut self.triangle), &mut self.accepted);
                    Vec::new()
                }
                _ => vec![self.resync()],
            },
            tag::DONE => {
                // Final (`fin`) snapshot, sent twice so a period-2 loss
                // pattern cannot swallow the worker's whole telemetry
                // tail.
                self.done = true;
                let fin = self.telemetry(true);
                vec![fin.clone(), fin]
            }
            _ => Vec::new(), // stray tag: ignore
        }
    }

    /// Claim the first queued item that can run, planned through
    /// `master::Claim::new`, and sample `waited`, how long the claiming
    /// thread waited for work. `None` when nothing can run.
    pub fn claim(&mut self, waited: Duration) -> Option<Claimed<'w, K>> {
        let (applied, running) = (self.applied(), &self.running);
        let runnable = |(stamp, item): &(usize, TaskItem)| {
            *stamp <= applied && !running.iter().any(|&(u, _)| u == item.unit)
        };
        let pos = self.queue.iter().position(runnable)?;
        let (_, item) = self.queue.remove(pos).expect("position is in range");
        self.running.push((item.unit, item.attempt));
        self.wrec
            .observe(Metric::QueueWaitNs, waited.as_nanos() as u64);
        let replica = (self.common, &self.accepted[..]);
        Some(Claimed {
            claim: Claim::new(self.unit, &mut self.packs, replica, item),
            triangle: Some(Arc::clone(&self.triangle)),
        })
    }

    /// Commit a swept claim into the packs: its result.
    pub(crate) fn commit(&mut self, claimed: Claimed<'w, K>) -> ResultMsg {
        claimed.claim.commit(&mut self.packs, &mut self.wrec)
    }

    /// Answer a claimed item with `res` (its commit, or in the simulator
    /// a replayed one): store the rows it brings, record it, and return
    /// its RESULT frame.
    pub(crate) fn answer(&mut self, mut res: ResultMsg) -> Vec<Frame> {
        let key = (res.unit, res.attempt);
        self.running.retain(|&k| k != key);
        for (r, row) in &res.rows {
            if !self.common.has_row(*r) {
                self.common.set_row(*r, row.clone());
            }
        }
        let rows = std::mem::take(&mut res.rows);
        self.answered.insert(key, res.clone());
        vec![result_frame(ResultMsg { rows, ..res })]
    }

    /// Commit a swept claim and answer it.
    pub fn finish(&mut self, claimed: Claimed<'w, K>) -> Vec<Frame> {
        let res = self.commit(claimed);
        self.answer(res)
    }

    /// The beacon, when one is due at `now`: with an empty queue every
    /// slot re-announced as IDLE (idempotent at the master — it dedupes
    /// per slot, so slots busy on other threads stay busy — and robust
    /// to a lost first one); with a queue that waits, a RESYNC pair, the
    /// liveness heartbeat that asks for the acceptances the replica is
    /// missing. The cumulative telemetry snapshot rides along.
    pub fn beacon(&mut self, now: Duration) -> Vec<Frame> {
        if now < self.next_beacon {
            return Vec::new();
        }
        self.next_beacon = now + BEACON_PERIOD;
        let mut frames: Vec<_> = if self.queue.is_empty() {
            let slots = 0..self.slots;
            // The slot rides in the RESYNC frame: both are one `usize`.
            let idle = |applied| (tag::IDLE, ResyncMsg { applied }.encode());
            slots.map(idle).collect()
        } else {
            // A pair: a lone copy each period can land on the same phase
            // of a deterministic loss pattern every time, starving the
            // replica forever.
            vec![self.resync(); 2]
        };
        frames.push(self.telemetry(false));
        frames
    }

    /// A RESYNC request for every acceptance past the replica's.
    fn resync(&self) -> Frame {
        let applied = self.applied();
        (tag::RESYNC, ResyncMsg { applied }.encode())
    }

    /// The next cumulative telemetry frame.
    fn telemetry(&mut self, fin: bool) -> Frame {
        self.tele_seq += 1;
        let snap = self.wrec.telemetry_snapshot();
        let msg = TelemetryMsg {
            seq: self.tele_seq,
            fin,
            snap,
        };
        (tag::TELEMETRY, msg.encode())
    }
}

/// `res` in a RESULT frame of its own.
fn result_frame(res: ResultMsg) -> Frame {
    (tag::RESULT, ResultsMsg { items: vec![res] }.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_align::{Score, Scoring, Seq};
    use repro_core::ScoredSeq;

    /// A retransmitted item is swept once whether it arrives while the
    /// item is queued, running or answered; an answered one is answered
    /// again from the memo, its first-pass rows rebuilt, byte for byte.
    #[test]
    fn a_retransmission_is_never_swept_again() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let unit = PackUnit::new(ScoredSeq::new(&seq, &scoring), None);
        let common = Common::new(&seq, &scoring);
        let mut worker = WorkerState::new(&unit, &common, 2);
        let item = TaskItem {
            unit: 3,
            attempt: 1,
            first: true,
            bound: Score::MAX,
            rows: Vec::new(),
        };
        let task = TaskMsg::single(0, item).encode();
        let receive = |w: &mut WorkerState<_>| w.receive(tag::TASK, &task, Duration::ZERO);
        assert!(receive(&mut worker).is_empty());
        assert!(receive(&mut worker).is_empty(), "queued: dropped");
        let mut claimed = worker.claim(Duration::ZERO).expect("runnable");
        assert!(receive(&mut worker).is_empty(), "running: dropped");
        assert!(worker.claim(Duration::ZERO).is_none());
        claimed.sweep();
        let answer = worker.finish(claimed);
        assert_eq!(answer.len(), 1);
        let again = receive(&mut worker);
        assert_eq!(
            again,
            [answer[0].clone(), answer[0].clone()],
            "answered: twice"
        );
        assert!(worker.claim(Duration::ZERO).is_none());
    }
}
