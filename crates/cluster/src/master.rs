//! The master's scheduling state machine, independent of any transport.
//!
//! Both backends (real threads and the virtual-time simulator) feed
//! worker events in and execute the returned actions. The machine
//! implements the same acceptance rule as every other engine — accept
//! exactly when the globally best upper bound belongs to a fresh task —
//! so the distributed engine's alignments are identical to the
//! sequential ones, independent of worker count or message timing.
//!
//! Fault tolerance lives here too, transport-independently. The machine
//! does no I/O, and time is an input: the transport hands in the time
//! since the run started with every message it hears
//! ([`MasterState::heard`]), every task it sends ([`MasterState::sent`])
//! and whenever it wakes ([`MasterState::tick`]); the simulator never
//! advances it.
//!
//! * every assignment carries an **attempt number**; a result is only
//!   allowed to settle the assignment whose attempt it echoes, so
//!   duplicated, delayed or reassigned-and-then-delivered results are
//!   recognised as stale and discarded;
//! * capacity is tracked as **(worker, slot) tokens** — a worker
//!   announces two slots per sweep thread, and a hybrid node runs
//!   several threads behind one rank. A token is consumed by an
//!   assignment and returned exactly when that assignment settles, so
//!   duplicated IDLE announcements and stale results can never inflate
//!   or leak capacity;
//! * **retransmission with backoff** — an assignment keeps the item as
//!   shipped and a retry clock started when it was made; an item still
//!   unanswered when the clock runs out is shipped again, same attempt,
//!   and the wait doubles up to a cap ([`RETRY_CAP`]). Recomputing is
//!   idempotent and the attempt number makes late duplicates harmless;
//! * **liveness** — a worker that owes an overdue result, has used up
//!   its retransmissions and has not been heard within the liveness
//!   window is declared dead;
//! * [`MasterState::worker_dead`] withdraws a lost worker: its
//!   in-flight tasks return to the pool for reassignment and any later
//!   message from it (a zombie) is ignored;
//! * [`MasterState::finish_locally`] is the last line of degradation:
//!   with every worker gone, the master itself computes the remaining
//!   tasks against its own (authoritative) triangle, which completes
//!   the search with the exact sequential result instead of stalling.
//!
//! The machine is the third driver of a [`PackUnit`] (a pack of one
//! split under the row kernel, or of 4/8/16 under the lane kernel), next
//! to the inline loop and the SMP engine; its side table holds only
//! what messages add to a claim: the assignment in flight, the attempts
//! issued and the best member the settling result reported.

use crate::protocol::{AcceptedMsg, MemberRows, ResultMsg, TaskItem, TaskMsg, Work};
use repro_align::{Score, Scoring, Seq};
use repro_core::pack::{PackPlan, PackSwept};
use repro_core::{
    Common, LanePacks, Next, OverrideTriangle, PackKernel, PackUnit, Scheduler, ScoredSeq, Search,
    Stats, TopAlignment,
};
use repro_obs::{Metric, NoopRecorder, Recorder};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// The worker id the master uses for itself when it falls back to
/// local computation ([`MasterState::finish_locally`]). Transports must
/// never register a real worker under this id.
pub const LOCAL_WORKER: usize = usize::MAX;

/// Most lanes (splits) a single [`TaskMsg`] batch may cover; it always
/// takes one unit. Batching amortises a round trip over several tasks;
/// capping it in lanes bounds the speculation wasted when an acceptance
/// lands mid-batch, whatever the unit, and keeps a dead worker's
/// reassignment burst small: four splits, or one lane pack.
pub const MAX_BATCH: usize = 4;

/// First retransmission timeout for an unanswered assignment.
pub const RETRY_BASE: Duration = Duration::from_millis(60);
/// Retransmissions before the worker's liveness is questioned.
pub const MAX_RETRIES: u32 = 3;
/// Ceiling on the doubling wait between retransmissions: under
/// sustained loss an uncapped one idles a lossy-but-live world for
/// minutes, and past the liveness window waiting gains nothing.
pub const RETRY_CAP: Duration = Duration::from_millis(250);
/// How long a worker may stay silent before "no result + retries
/// exhausted" escalates to a death declaration.
pub const LIVENESS: Duration = Duration::from_millis(400);

/// The four knobs above, set otherwise only by a test.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timeouts {
    pub(crate) retry_base: Duration,
    pub(crate) max_retries: u32,
    pub(crate) retry_cap: Duration,
    pub(crate) liveness: Duration,
}

/// What the transport must do next, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterAction {
    /// Send this task to this worker.
    Assign {
        /// Destination worker (transport-level id, as registered via
        /// [`MasterState::worker_idle`]).
        worker: usize,
        /// The assignment.
        task: TaskMsg,
    },
    /// Send this overdue item again, as first shipped (same stamp and
    /// attempt, same rows).
    Retry {
        /// The worker that holds the assignment.
        worker: usize,
        /// A single-item batch.
        task: TaskMsg,
        /// Retransmissions of this assignment so far, this one included.
        retries: u32,
    },
    /// `worker` was written off: a send to it failed, or it fell silent
    /// with its retransmissions used up. Its units are back in the pool,
    /// and the actions that follow reassign them.
    WorkerDead {
        /// The worker declared dead.
        worker: usize,
    },
    /// Broadcast an acceptance to every worker.
    Broadcast(AcceptedMsg),
    /// Broadcast shutdown; the search is complete.
    Done,
}

/// An assignment in flight.
#[derive(Debug, Clone)]
struct Assignment {
    worker: usize,
    /// The capacity slot this assignment consumed; returned on settle.
    slot: usize,
    /// The batch's stamp and this unit's item of it, rows included: what
    /// a retransmission ships again.
    stamp: usize,
    item: TaskItem,
    /// When it was made, when its result is overdue, the wait after
    /// that, and the retransmissions so far.
    sent: Duration,
    retry_at: Duration,
    backoff: Duration,
    retries: u32,
}

/// What the messages add to a unit's claim; its place in the order is
/// the [`Scheduler`]'s.
#[derive(Debug, Clone)]
struct Ticket {
    /// The unit's best member, as the settling result reported it.
    best: usize,
    assigned: Option<Assignment>,
    /// Attempts issued so far for this unit (monotone).
    attempts: u64,
}

/// A batch being filled for one capacity token.
struct Batch {
    worker: usize,
    slot: usize,
    /// Items it may hold, and lanes it may still cover.
    items_cap: usize,
    room: usize,
    items: Vec<TaskItem>,
}

/// The master's complete state, scheduling the packs `K` sweeps.
pub struct MasterState<'a, K: PackKernel = ScoredSeq<'a>> {
    unit: PackUnit<K>,
    /// The profiled sequence and the first-pass rows, as the results
    /// bring them home.
    common: Common<'a>,
    /// The task table and the seed bounds (pruning on: the only ones in
    /// the cluster; workers receive the per-task bound inside
    /// [`TaskMsg`]).
    sched: Scheduler<'a>,
    tickets: Vec<Ticket>, // one per unit
    /// Which workers hold a cached copy of which rows (index r − 1).
    worker_has_row: HashMap<usize, Vec<bool>>,
    /// Workers declared dead; all their later traffic is ignored.
    dead: HashSet<usize>,
    triangle: OverrideTriangle,
    tops: Vec<TopAlignment>,
    stats: Stats,
    /// Seconds spent in acceptance recomputation and traceback.
    traceback_secs: f64,
    /// Free capacity tokens: (worker, slot).
    idle: Vec<(usize, usize)>,
    /// The unsettled units of each consumed token's batch; a token with
    /// no entry is free or was never announced. Every assignment in
    /// flight is found through here.
    outstanding: BTreeMap<(usize, usize), Vec<usize>>,
    timeouts: Timeouts,
    /// The clock as last handed in: time since the run started.
    now: Duration,
    /// When each worker was last heard from.
    heard: HashMap<usize, Duration>,
    /// The send-to-settle time of the last settling result, until the
    /// transport takes it.
    round_trip: Option<Duration>,
    /// Results discarded because they claimed a replica version the
    /// master has not reached, or settled a first pass without its
    /// rows (only a corrupt frame can).
    rejected_results: u64,
    done: bool,
    count: usize,
}

impl<'a> MasterState<'a> {
    /// A master running `search` on `seq`, one split to a task: 1-lane
    /// packs under the row kernel, no checkpoints (the simulator).
    pub fn new(seq: &'a Seq, scoring: &'a Scoring, search: &Search) -> Self {
        let unit = PackUnit::new(ScoredSeq::new(seq, scoring), None);
        MasterState::with_unit(unit, seq, scoring, search)
    }
}

impl<'a, K: PackKernel> MasterState<'a, K> {
    /// A master running `search` on `seq`, one unit of `unit` to a task.
    /// With `search.seed` set every unit starts at its members' loosest
    /// seed bound instead of `Score::MAX`, so a unit whose bound never
    /// reaches the acceptance frontier is never assigned at all.
    pub fn with_unit(
        unit: PackUnit<K>,
        seq: &'a Seq,
        scoring: &'a Scoring,
        search: &Search,
    ) -> Self {
        let tickets = (0..unit.units())
            .map(|u| Ticket {
                best: unit.splits(u).start,
                assigned: None,
                attempts: 0,
            })
            .collect();
        MasterState {
            sched: Scheduler::new(&unit, seq, scoring, search),
            tickets,
            unit,
            common: Common::new(seq, scoring),
            worker_has_row: HashMap::new(),
            dead: HashSet::new(),
            triangle: OverrideTriangle::new(seq.len()),
            tops: Vec::new(),
            stats: Stats::new(),
            traceback_secs: 0.0,
            idle: Vec::new(),
            outstanding: BTreeMap::new(),
            timeouts: Timeouts {
                retry_base: RETRY_BASE,
                max_retries: MAX_RETRIES,
                retry_cap: RETRY_CAP,
                liveness: LIVENESS,
            },
            now: Duration::ZERO,
            heard: HashMap::new(),
            round_trip: None,
            rejected_results: 0,
            done: false,
            count: search.count,
        }
    }

    /// The same master with other retransmission and liveness knobs.
    #[cfg(test)]
    pub(crate) fn with_timeouts(self, timeouts: Timeouts) -> Self {
        MasterState { timeouts, ..self }
    }

    /// The unit of work tasks and results are decoded against.
    pub fn unit(&self) -> &PackUnit<K> {
        &self.unit
    }

    fn splits(&self) -> usize {
        self.common.input.seq.len().saturating_sub(1)
    }

    /// `true` once [`MasterAction::Done`] has been emitted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Top alignments accepted so far.
    pub fn alignments(&self) -> &[TopAlignment] {
        &self.tops
    }

    /// Work counters (live view).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Seconds the acceptances so far spent recomputing and tracing
    /// back their matrices — the master's serial step, which the
    /// transport loop reports as the `traceback` phase.
    pub fn traceback_secs(&self) -> f64 {
        self.traceback_secs
    }

    /// Results discarded for claiming a replica version above the
    /// master's own acceptance count, or a first pass without its rows.
    pub fn rejected_results(&self) -> u64 {
        self.rejected_results
    }

    /// A live progress snapshot in the same units the shared-memory
    /// engines report: first passes done vs total splits, splits still
    /// never assigned (pruning keeps them seedless forever, so this
    /// converges from above to the final pruned count), and realignments
    /// the workers' checkpoint layers avoided.
    pub fn progress(&self) -> repro_obs::Progress {
        let total = self.splits() as u64;
        let done = self.sched.first_passes() as u64;
        repro_obs::Progress {
            splits_done: done,
            splits_total: total,
            splits_pruned: total - done,
            realignments_avoided: self.stats.checkpoint_hits,
            tops_found: self.tops.len() as u64,
            tops_requested: self.count as u64,
        }
    }

    /// Registered workers not declared dead.
    pub fn live_workers(&self) -> usize {
        self.worker_has_row.len()
    }

    /// Workers ever registered, live or written off.
    pub fn workers_seen(&self) -> usize {
        self.worker_has_row.len() + self.dead.len()
    }

    /// Consume the machine, yielding the final result.
    pub fn into_result(mut self) -> repro_core::TopAlignments {
        self.sched.finish(&mut self.stats);
        repro_core::TopAlignments {
            alignments: self.tops,
            stats: self.stats,
            triangle: self.triangle,
        }
    }

    /// The acceptances with index ≥ `have`, for re-broadcast to a
    /// worker whose replica missed one (RESYNC).
    pub fn accepted_since(&self, have: usize) -> Vec<AcceptedMsg> {
        self.tops
            .iter()
            .enumerate()
            .skip(have)
            .map(|(index, top)| AcceptedMsg {
                index,
                pairs: top.pairs.clone(),
            })
            .collect()
    }

    /// `true` iff capacity token (`worker`, `slot`) is consumed by an
    /// in-flight assignment.
    fn slot_busy(&self, worker: usize, slot: usize) -> bool {
        let busy = self.outstanding.contains_key(&(worker, slot));
        debug_assert_eq!(
            busy,
            self.tickets.iter().any(|t| t
                .assigned
                .as_ref()
                .is_some_and(|a| a.worker == worker && a.slot == slot)),
            "outstanding count of slot ({worker}, {slot}) out of step"
        );
        busy
    }

    /// Return capacity token (`worker`, `slot`) to the pool, unless it
    /// is already there or still consumed by an assignment. This makes
    /// IDLE re-announcements (workers beacon while free) idempotent.
    fn credit_idle(&mut self, worker: usize, slot: usize) {
        if !self.idle.contains(&(worker, slot)) && !self.slot_busy(worker, slot) {
            self.idle.push((worker, slot));
        }
    }

    /// A worker announced capacity slot `slot` as idle (sent at startup
    /// and re-beaconed while the slot stays free; safe to repeat).
    pub fn worker_idle(&mut self, worker: usize, slot: usize) -> Vec<MasterAction> {
        if self.dead.contains(&worker) {
            return Vec::new(); // zombie: already written off
        }
        let splits = self.splits();
        self.worker_has_row
            .entry(worker)
            .or_insert_with(|| vec![false; splits]);
        self.credit_idle(worker, slot);
        self.pump()
    }

    /// A message from `worker` arrived at `now`, the time since the run
    /// started: the worker is alive, and the assignments its handling
    /// makes start their retry clocks here.
    pub fn heard(&mut self, worker: usize, now: Duration) {
        self.now = self.now.max(now);
        self.heard.insert(worker, now);
    }

    /// The assignments in flight to remote workers, by token.
    fn in_flight(&self) -> impl Iterator<Item = &Assignment> + '_ {
        self.outstanding
            .iter()
            .filter(|&(&(w, _), _)| w != LOCAL_WORKER)
            .flat_map(|(_, units)| units.iter())
            .map(|&u| self.tickets[u].assigned.as_ref().expect("outstanding"))
    }

    /// The transport put `action`, an assignment or a retransmission,
    /// on the wire at `now`: its items' retry clocks restart there, an
    /// assignment's round trip starts there, and a retransmission is
    /// counted. Until then the clocks run from when the master made it.
    pub fn sent(&mut self, action: &MasterAction, now: Duration) {
        let (MasterAction::Assign { task, .. } | MasterAction::Retry { task, .. }) = action else {
            return;
        };
        let retry = matches!(action, MasterAction::Retry { .. });
        self.stats.cluster_retries += u64::from(retry);
        self.now = self.now.max(now);
        for item in &task.items {
            let a = self.tickets[item.unit].assigned.as_mut();
            if let Some(a) = a.filter(|a| a.item.attempt == item.attempt) {
                a.retry_at = now + a.backoff;
                a.sent = if retry { a.sent } else { now };
            }
        }
    }

    /// When the next result in flight falls overdue: the transport waits
    /// for traffic no longer than this before it calls
    /// [`MasterState::tick`].
    pub fn next_deadline(&self) -> Option<Duration> {
        self.in_flight().map(|a| a.retry_at).min()
    }

    /// The clock reads `now`: write off every worker that owes an
    /// overdue result, has used up its retransmissions and has not been
    /// heard within the liveness window (its units are reassigned as
    /// [`MasterState::worker_dead`] does), and ship every other overdue
    /// item again, the wait after it doubled up to the cap (counted once
    /// [`MasterState::sent`] reports it out). [`LOCAL_WORKER`] never
    /// retransmits.
    pub fn tick(&mut self, now: Duration) -> Vec<MasterAction> {
        self.now = self.now.max(now);
        let (now, t) = (self.now, self.timeouts);
        let silent = |w| self.heard.get(&w).is_none_or(|&h| now - h >= t.liveness);
        let hopeless = |a: &Assignment| a.retries >= t.max_retries && silent(a.worker);
        let due: Vec<_> = self
            .in_flight()
            .filter(|a| a.retry_at <= now)
            .map(|a| (a.worker, a.item.unit, hopeless(a)))
            .collect();
        let mut actions = Vec::new();
        for &(worker, ..) in due.iter().filter(|d| d.2) {
            actions.extend(self.worker_dead(worker)); // once per worker
        }
        for (worker, u, _) in due.into_iter().filter(|d| !self.dead.contains(&d.0)) {
            let a = self.tickets[u].assigned.as_mut().expect("in flight");
            a.retries += 1;
            a.backoff = (a.backoff * 2).min(t.retry_cap);
            a.retry_at = now + a.backoff;
            actions.push(MasterAction::Retry {
                worker,
                task: TaskMsg::single(a.stamp, a.item.clone()),
                retries: a.retries,
            });
        }
        actions
    }

    /// The send-to-settle time of the result just settled, once.
    pub(crate) fn take_round_trip(&mut self) -> Option<Duration> {
        self.round_trip.take()
    }

    /// A worker returned a task result.
    pub fn result(&mut self, worker: usize, res: ResultMsg) -> Vec<MasterAction> {
        let u = res.unit;
        if self.dead.contains(&worker) || u >= self.tickets.len() {
            return Vec::new(); // zombie, or a frame that decoded to nonsense
        }
        if res.stamp > self.tops.len() {
            // No replica can be ahead of the master that feeds it. A
            // stamp from the future would be trusted as fresh once the
            // master caught up with it, and a huge one would size the
            // per-top statistics to match: only corruption that got
            // past the checksum claims one. The flight's retransmission
            // fetches the real result.
            self.rejected_results += 1;
            return Vec::new();
        }
        let current = self.tickets[u].assigned.as_ref();
        let Some(a) = current.filter(|a| a.worker == worker && a.item.attempt == res.attempt)
        else {
            // Stale: a duplicate delivery, or an attempt that was
            // reassigned before this copy arrived. Discard the content
            // (a late first-pass recompute may have run under a newer
            // replica, so even its rows cannot be trusted as version-0)
            // and credit nothing — the token for this slot was already
            // returned when the first copy settled.
            return Vec::new();
        };
        // Exactly one result per unit settles its first pass (one
        // assignment per unit at a time), and it must bring every
        // member's row — the local fallback's are already stored.
        let (slot, sent) = (a.slot, a.sent);
        let brought = |r: usize| res.rows.iter().any(|&(q, _)| q == r);
        if a.item.first
            && !self
                .unit
                .splits(u)
                .all(|r| self.common.has_row(r) || brought(r))
        {
            self.rejected_results += 1;
            return Vec::new();
        }
        for (r, row) in res.rows {
            if !self.common.has_row(r) {
                self.common.set_row(r, row);
            }
            if let Some(flags) = self.worker_has_row.get_mut(&worker) {
                flags[r - 1] = true; // the computing worker caches its rows
            }
        }
        res.work.fold_into(&mut self.stats, res.stamp);
        let t = &mut self.tickets[u];
        (t.best, t.assigned) = (res.best.0, None);
        self.sched.settle(u, res.best.1, res.stamp);
        self.round_trip = Some(self.now - sent);
        let left = self
            .outstanding
            .get_mut(&(worker, slot))
            .expect("a settling assignment holds its slot");
        left.retain(|&v| v != u);
        if left.is_empty() {
            // The batch's last item: only now is the slot's token back.
            self.outstanding.remove(&(worker, slot));
            self.credit_idle(worker, slot);
        }
        self.pump()
    }

    /// Withdraw `worker` without rescheduling (shared by the death
    /// declarations and [`MasterState::finish_locally`]): the units it
    /// held, or `None` if it was already dead.
    fn mark_dead(&mut self, worker: usize) -> Option<u64> {
        if !self.dead.insert(worker) {
            return None;
        }
        self.worker_has_row.remove(&worker);
        self.idle.retain(|&(w, _)| w != worker);
        let mut withdrawn = 0;
        self.outstanding.retain(|&(w, _), units| {
            if w == worker {
                for &u in units.iter() {
                    self.tickets[u].assigned = None;
                    self.sched.release(u);
                }
                withdrawn += units.len() as u64;
            }
            w != worker
        });
        Some(withdrawn)
    }

    /// Declare `worker` dead, once: drop its idle slots and row-cache
    /// flags, return its in-flight tasks to the pool (counted as
    /// reassignments), and reassign them to whoever is idle. Any message
    /// it sends later is ignored.
    pub fn worker_dead(&mut self, worker: usize) -> Vec<MasterAction> {
        let Some(withdrawn) = self.mark_dead(worker) else {
            return Vec::new();
        };
        self.stats.cluster_reassignments += withdrawn;
        let mut actions = vec![MasterAction::WorkerDead { worker }];
        actions.extend(self.pump());
        actions
    }

    /// Graceful degradation: every remote worker is written off and the
    /// master finishes the remaining search itself, against its own
    /// triangle (which is authoritative, so every local task runs at
    /// exactly the stamped version — the acceptance rule is unchanged).
    /// Returns the leftover broadcast/done actions for best-effort
    /// forwarding to any half-dead ranks.
    pub fn finish_locally(&mut self) -> Vec<MasterAction> {
        let workers: Vec<usize> = self
            .worker_has_row
            .keys()
            .copied()
            .filter(|&w| w != LOCAL_WORKER)
            .collect();
        for w in workers {
            let _ = self.mark_dead(w);
        }
        let mut out = Vec::new();
        let mut queue = self.worker_idle(LOCAL_WORKER, 0);
        loop {
            let local = queue.iter().position(
                |a| matches!(a, MasterAction::Assign { worker, .. } if *worker == LOCAL_WORKER),
            );
            let Some(pos) = local else {
                break;
            };
            let MasterAction::Assign { mut task, .. } = queue.remove(pos) else {
                unreachable!("position matched an Assign");
            };
            out.append(&mut queue);
            debug_assert_eq!(task.items.len(), 1, "local assignments are single-item");
            let item = task.items.pop().expect("an assignment holds an item");
            let res = self.compute_local(task.stamp, item);
            queue = self.result(LOCAL_WORKER, res);
        }
        out.extend(queue);
        out
    }

    /// Run one task on the master itself, on throwaway packs,
    /// against the master's own triangle — always at version
    /// `tops.len()`, which equals every locally issued stamp. A first
    /// pass moves its rows straight into the master's store; the copies
    /// its result carries are not stored again.
    fn compute_local(&self, stamp: usize, task: TaskItem) -> ResultMsg {
        debug_assert_eq!(stamp, self.tops.len());
        let mut packs = self.unit.packs();
        let mut claim = Claim::new(&self.unit, &mut packs, (&self.common, &self.tops), task);
        claim.sweep(&self.triangle);
        claim.commit(&mut packs, &mut NoopRecorder)
    }

    /// Advance: accept while the head is fresh, and hand the best stale
    /// units to idle capacity tokens, one batch per token — until the
    /// scheduler has nothing to do, or is done (the target is reached or
    /// no positive alignment remains, and — for a tidy deterministic
    /// shutdown — nothing is still in flight).
    fn pump(&mut self) -> Vec<MasterAction> {
        let mut actions = Vec::new();
        let mut batch: Option<Batch> = None;
        while !self.done {
            if batch.is_none() {
                batch = self.open_batch();
            }
            let room = batch.as_ref().map_or(0, |b| b.room);
            match self.sched.next(&mut self.stats, &self.triangle, room) {
                Next::Accept { u, score } => {
                    // The items so far were picked at this stamp: they
                    // go out before the broadcast that ends it.
                    self.send(batch.take(), &mut actions);
                    self.accept(u, score, &mut actions);
                }
                Next::Sweep { u, first, bound } => {
                    let b = batch.as_mut().expect("a pick is offered lanes");
                    let item = self.assign(b, u, first, bound);
                    b.items.push(item);
                    if b.items.len() == b.items_cap {
                        self.send(batch.take(), &mut actions);
                    }
                }
                Next::Pruned { .. } => {}
                Next::Wait => match batch.take() {
                    Some(b) if !b.items.is_empty() => self.send(Some(b), &mut actions),
                    // Nothing fits, or a refresh dropped every candidate
                    // off the frontier.
                    _ => break,
                },
                Next::Done => {
                    self.done = true;
                    actions.push(MasterAction::Done);
                }
            }
        }
        actions
    }

    /// A batch for the last idle capacity token, if there is work to
    /// speculate on. Its item count adapts to the supply/demand ratio so
    /// a thin backlog still spreads across every idle slot instead of
    /// piling onto the first one; its lanes stay within MAX_BATCH, and
    /// the first unit always fits.
    fn open_batch(&self) -> Option<Batch> {
        let &(worker, slot) = self.idle.last()?;
        let avail = self.sched.stale_unclaimed();
        if avail == 0 {
            return None;
        }
        let items_cap = if worker == LOCAL_WORKER {
            // The local fallback computes at the live stamp, one task at
            // a time — a batch would go stale mid-loop on the first
            // acceptance.
            1
        } else {
            (avail / self.idle.len()).clamp(1, MAX_BATCH)
        };
        Some(Batch {
            worker,
            slot,
            items_cap,
            room: usize::MAX,
            items: Vec::with_capacity(items_cap),
        })
    }

    /// Assign claimed unit `u` to `batch`'s token: the next attempt, and
    /// after its first pass the members' rows the worker has no copy of.
    fn assign(&mut self, batch: &mut Batch, u: usize, first: bool, bound: Score) -> TaskItem {
        let splits = self.unit.splits(u);
        batch.room = batch.room.min(MAX_BATCH).saturating_sub(splits.len());
        let flags = self
            .worker_has_row
            .get_mut(&batch.worker)
            .expect("worker registered at idle time");
        let mut rows = Vec::new();
        for r in splits.filter(|_| !first) {
            if !flags[r - 1] {
                flags[r - 1] = true;
                rows.push((r, self.common.row(r).widened()));
            }
        }
        let t = &mut self.tickets[u];
        t.attempts += 1;
        let item = TaskItem {
            unit: u,
            attempt: t.attempts,
            first,
            // The current upper bound (seed bound for a first pass,
            // stale score otherwise) rides along so the worker can
            // sanity-check without a seed index.
            bound,
            rows,
        };
        let retry_base = self.timeouts.retry_base;
        t.assigned = Some(Assignment {
            worker: batch.worker,
            slot: batch.slot,
            stamp: self.tops.len(),
            item: item.clone(),
            sent: self.now,
            retry_at: self.now + retry_base,
            backoff: retry_base,
            retries: 0,
        });
        item
    }

    /// Send a filled batch, sorted by unit so consecutive items land in
    /// neighbouring checkpoint and row-cache state on the worker (bound
    /// locality); its token stays consumed until every item settles.
    fn send(&mut self, batch: Option<Batch>, actions: &mut Vec<MasterAction>) {
        let Some(mut b) = batch.filter(|b| !b.items.is_empty()) else {
            return;
        };
        self.idle.pop();
        b.items.sort_by_key(|it| it.unit);
        let units = b.items.iter().map(|it| it.unit).collect();
        self.outstanding.insert((b.worker, b.slot), units);
        actions.push(MasterAction::Assign {
            worker: b.worker,
            task: TaskMsg {
                stamp: self.tops.len(),
                items: b.items,
            },
        });
    }

    /// Accept fresh head unit `u`: its best member, as reported, is the
    /// next top alignment (lowest unit, then lowest member, on ties).
    fn accept(&mut self, u: usize, score: Score, actions: &mut Vec<MasterAction>) {
        let (r, index) = (self.tickets[u].best, self.tops.len());
        let common = &self.common;
        let t0 = Instant::now();
        let (top, cells) =
            common
                .input
                .accept_task_with_row(r, score, &mut self.triangle, common.row(r), index);
        self.traceback_secs += t0.elapsed().as_secs_f64();
        self.stats.record_traceback(cells);
        self.sched.accepted(&top.pairs);
        actions.push(MasterAction::Broadcast(AcceptedMsg {
            index,
            pairs: top.pairs.clone(),
        }));
        self.tops.push(top);
    }
}

/// One task on a replica, in the unit's three steps: [`Claim::new`]
/// plans it (under a worker's lock), [`Claim::sweep`] sweeps it
/// (unlocked, against the triangle the claim was planned under) and
/// [`Claim::commit`] folds it back (under the lock again) into the
/// result to send. Every task is answered through these: on a
/// [`crate::WorkerState`], whichever drives it, or by the local fallback.
pub(crate) struct Claim<'u, K> {
    unit: &'u PackUnit<K>,
    /// The replica's rows, the task's attached ones already stored.
    common: &'u Common<'u>,
    pub(crate) task: TaskItem,
    /// The replica version planned against.
    planned_at: usize,
    plan: PackPlan,
    /// What the sweep returned (`None`: a replay), and how long it took.
    swept: Option<(PackSwept, u64)>,
}

impl<'u, K: PackKernel> Claim<'u, K> {
    /// Store the rows `task` brought in `common`, and plan it on the
    /// caller's `packs` under the triangle `tops` built.
    pub(crate) fn new(
        unit: &'u PackUnit<K>,
        packs: &mut LanePacks,
        (common, tops): (&'u Common<'u>, &[TopAlignment]),
        mut task: TaskItem,
    ) -> Self {
        for (r, row) in std::mem::take(&mut task.rows) {
            if !common.has_row(r) {
                common.set_row(r, row);
            }
        }
        // A first pass whose rows are stored here already — its result
        // was lost and the master retransmitted the task — is a
        // realignment here: the rows go home again with the result.
        let fresh = task.first && !unit.splits(task.unit).all(|r| common.has_row(r));
        let plan = packs.plan(task.unit, fresh, tops);
        Claim {
            unit,
            common,
            task,
            planned_at: tops.len(),
            plan,
            swept: None,
        }
    }

    /// Sweep as planned under `triangle`, unless the plan is a replay.
    pub(crate) fn sweep(&mut self, triangle: &OverrideTriangle) {
        if !self.plan.is_replay() {
            let t0 = Instant::now();
            let swept = self.unit.sweep(self.common, &self.plan, triangle);
            self.swept = Some((swept, t0.elapsed().as_nanos() as u64));
        }
    }

    /// Fold the sweep into `packs` and `rec`: the unit's best member,
    /// the work it took, and on a first pass every member's clean row,
    /// which the master stores.
    pub(crate) fn commit<R: Recorder>(self, packs: &mut LanePacks, rec: &mut R) -> ResultMsg {
        let swept = self.swept.map(|(swept, ns)| {
            rec.observe(Metric::SweepNs, ns);
            swept
        });
        let mut grown = Stats::new();
        let stamp = self.plan.version() as usize;
        let score = packs.commit(&mut grown, rec, self.plan, swept);
        let task = self.task;
        // The shipped bound dominates any score exact at or past the
        // task's stamp (masking monotonicity); a violation would mean
        // the master's seed index is broken. A late first pass's clean
        // score, exact under version 0, need not sit under it.
        debug_assert!(
            stamp < self.planned_at || score <= task.bound,
            "unit {}: score {score} above shipped bound {}",
            task.unit,
            task.bound
        );
        let rows = match task.first {
            true => member_rows(self.unit, self.common, task.unit),
            false => Vec::new(),
        };
        ResultMsg {
            unit: task.unit,
            stamp,
            attempt: task.attempt,
            best: packs.best_member(task.unit),
            rows,
            work: Work::of(&grown),
        }
    }
}

/// Every member's first-pass row of unit `u`, for the wire.
pub(crate) fn member_rows<K: PackKernel>(
    unit: &PackUnit<K>,
    common: &Common,
    u: usize,
) -> MemberRows {
    let splits = unit.splits(u);
    splits.map(|r| (r, common.row(r).widened())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tag;
    use repro_core::{find_top_alignments, SeedConfig, SplitMask};

    /// One task as one thread computes it: plan · sweep · commit of
    /// `task.unit` on `packs`, against a replica (rows, triangle, and
    /// the accepts that built it: the stamp).
    fn run_task<K: PackKernel>(
        unit: &PackUnit<K>,
        packs: &mut LanePacks,
        (common, triangle, tops): (&Common, &OverrideTriangle, &[TopAlignment]),
        task: TaskItem,
    ) -> ResultMsg {
        let mut claim = Claim::new(unit, packs, (common, tops), task);
        claim.sweep(triangle);
        claim.commit(packs, &mut NoopRecorder)
    }

    /// Drive the state machine synchronously with a perfect in-process
    /// "worker" that computes results immediately — a transport-free
    /// correctness test of the scheduling logic.
    fn drive(seq: &Seq, scoring: &Scoring, count: usize, workers: usize) -> Vec<TopAlignment> {
        drive_seeded(seq, scoring, count, workers, None).alignments
    }

    fn drive_seeded(
        seq: &Seq,
        scoring: &Scoring,
        count: usize,
        workers: usize,
        seed: Option<SeedConfig>,
    ) -> repro_core::TopAlignments {
        let search = Search {
            seed,
            ..Search::new(count)
        };
        let mut master = MasterState::new(seq, scoring, &search);
        let mut worker_triangles: Vec<OverrideTriangle> = (0..workers)
            .map(|_| OverrideTriangle::new(seq.len()))
            .collect();
        let mut worker_caches: Vec<std::collections::HashMap<usize, Vec<Score>>> =
            vec![std::collections::HashMap::new(); workers];
        let mut pending: std::collections::VecDeque<(usize, usize, TaskItem)> =
            std::collections::VecDeque::new();

        let mut actions: Vec<MasterAction> = Vec::new();
        for w in 0..workers {
            actions.extend(master.worker_idle(w, 0));
        }
        loop {
            for a in actions.drain(..) {
                match a {
                    MasterAction::Assign { worker, task } => {
                        for item in task.items {
                            pending.push_back((worker, task.stamp, item));
                        }
                    }
                    MasterAction::Broadcast(acc) => {
                        for t in &mut worker_triangles {
                            for &(p, q) in &acc.pairs {
                                t.set(p, q);
                            }
                        }
                    }
                    MasterAction::Done => return master.into_result(),
                    MasterAction::Retry { .. } | MasterAction::WorkerDead { .. } => {
                        unreachable!("no clock, no deaths")
                    }
                }
            }
            let Some((w, mut stamp, task)) = pending.pop_front() else {
                panic!("master stalled without Done");
            };
            let r = task.unit + 1;
            // Worker computes with ITS replica (which here is in lockstep
            // with the master; async transports exercise the lag). Later
            // items of a batch may run under a replica that grew past
            // their stamp — the master records those results as stale
            // and reassigns, exactly like lagging remote speculation.
            let (prefix, suffix) = seq.split(r);
            let mask = SplitMask::new(&worker_triangles[w], r);
            let last = repro_align::sw_last_row(prefix, suffix, scoring, mask);
            let (score, shadows, first_row) = if task.first {
                assert!(
                    last.best_in_row <= task.bound,
                    "shipped bound {} must dominate the first-pass score {}",
                    task.bound,
                    last.best_in_row
                );
                // One clean sweep, as a real worker's: the clean row
                // and its maximum, exact under version 0 — the stamp of
                // a late first pass (seeded) that an accept straddles.
                let clean = repro_align::sw_last_row(prefix, suffix, scoring, repro_align::NoMask);
                if worker_triangles[w].iter().any(|(p, q)| p < r && r <= q) {
                    stamp = 0;
                }
                worker_caches[w].insert(r, clean.row.clone());
                (clean.best_in_row, 0, Some(clean.row))
            } else {
                if let Some((_, row)) = task.rows.first() {
                    worker_caches[w].insert(r, row.clone());
                }
                let orig = worker_caches[w]
                    .get(&r)
                    .expect("realignment without a cached or attached row");
                let (s, _, shadows) = repro_core::bottom::best_valid_entry_counted(&last.row, orig);
                (s, shadows, None)
            };
            actions = master.result(
                w,
                ResultMsg {
                    unit: task.unit,
                    stamp,
                    attempt: task.attempt,
                    best: (r, score),
                    rows: first_row.map(|row| vec![(r, row)]).unwrap_or_default(),
                    work: Work::of(&Stats {
                        alignments: 1,
                        cells: last.cells,
                        shadow_rejections: shadows,
                        ..Stats::default()
                    }),
                },
            );
            let _ = tag::IDLE;
        }
    }

    #[test]
    fn matches_sequential_for_various_worker_counts() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT", "AAAAAAAA"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 4).alignments;
            for workers in [1, 2, 5] {
                let got = drive(&seq, &scoring, 4, workers);
                assert_eq!(got, want, "{workers} workers on {text}");
            }
        }
    }

    #[test]
    fn seeded_matches_unpruned_for_various_worker_counts() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT", "AAAAAAAA"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 4).alignments;
            for workers in [1, 2, 5] {
                let got = drive_seeded(&seq, &scoring, 4, workers, Some(SeedConfig::default()));
                assert_eq!(got.alignments, want, "seeded {workers} workers on {text}");
            }
        }
    }

    #[test]
    fn seeded_master_never_assigns_pruned_splits() {
        // Low-repeat fixture: two adjacent motif copies in long random
        // flanks. The bounds keep every seedless flank split below the
        // acceptance frontier, so the master never assigns them and
        // they count as pruned in the final stats.
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 1);
        let got = drive_seeded(&seq, &scoring, 1, 2, Some(SeedConfig::default()));
        assert_eq!(got.alignments, want.alignments);
        assert!(
            got.stats.splits_pruned > 0,
            "low-repeat input must leave splits never aligned"
        );
        assert!((got.stats.splits_pruned as usize) < seq.len() - 1);
        assert!(got.stats.seed_index_build_ns > 0);
        assert!(
            got.stats.alignments < (seq.len() - 1) as u64,
            "pruned splits must never have been assigned"
        );
    }

    #[test]
    fn terminates_on_exhausted_sequences() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ACGT").unwrap();
        let got = drive(&seq, &scoring, 10, 3);
        assert!(got.len() < 10);
    }

    #[test]
    fn stale_attempt_results_are_discarded() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let mut master = MasterState::new(&seq, &scoring, &Search::new(2));
        let actions = master.worker_idle(1, 0);
        let Some(MasterAction::Assign { worker, task }) = actions.first().cloned() else {
            panic!("one idle worker must receive an assignment");
        };
        assert_eq!(worker, 1);
        let item = task.items[0].clone();
        // The worker "dies"; its batch goes back to the pool.
        let _ = master.worker_dead(1);
        // A new worker picks the work up under fresh attempts…
        let actions = master.worker_idle(2, 0);
        let Some(MasterAction::Assign { task: task2, .. }) = actions.first().cloned() else {
            panic!("reissued task expected");
        };
        let item2 = task2.items[0].clone();
        assert_eq!(item2.unit, item.unit);
        assert!(
            item2.attempt > item.attempt,
            "reissue must bump the attempt"
        );
        // …and the zombie's late result (old attempt) changes nothing.
        let before = master.stats().alignments;
        let zombie = master.result(
            1,
            ResultMsg {
                unit: item.unit,
                stamp: task.stamp,
                attempt: item.attempt,
                best: (item.unit + 1, 999_999), // a wrong score that must never be trusted
                rows: vec![(item.unit + 1, vec![0; seq.len() - item.unit - 1])],
                work: Work::of(&Stats {
                    alignments: 1,
                    cells: 1,
                    ..Stats::default()
                }),
            },
        );
        assert!(zombie.is_empty(), "dead worker traffic must be ignored");
        assert_eq!(master.stats().alignments, before);
    }

    #[test]
    fn duplicate_result_delivery_is_rejected_exactly_once() {
        // Satellite of the transport work: a result frame re-delivered
        // by the wire (duplicated, or retransmitted after the original
        // already landed) settles its assignment on the FIRST copy and
        // is discarded on every later one by the attempt-stamp check.
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGC").unwrap();
        let mut master = MasterState::new(&seq, &scoring, &Search::new(2));
        let actions = master.worker_idle(1, 0);
        let Some(MasterAction::Assign { task, .. }) = actions.first().cloned() else {
            panic!("one idle worker must receive an assignment");
        };
        let item = task.items[0].clone();
        let r = item.unit + 1;
        let res = ResultMsg {
            unit: item.unit,
            stamp: task.stamp,
            attempt: item.attempt,
            best: (r, 0), // keep the split unaccepted so the state is easy to audit
            rows: vec![(r, vec![0; seq.len() - r])],
            work: Work::of(&Stats {
                alignments: 1,
                cells: 7,
                ..Stats::default()
            }),
        };
        let first = master.result(1, res.clone());
        assert!(
            first.is_empty(),
            "the rest of the batch keeps the slot busy: nothing new to do"
        );
        let aligned = master.stats().alignments;
        assert_eq!(aligned, 1, "first copy settles and is counted");
        // The transport re-delivers the identical frame.
        let dup = master.result(1, res.clone());
        assert!(dup.is_empty(), "second copy must be discarded");
        assert_eq!(master.stats().alignments, aligned, "no double count");
        // And a third copy is equally inert.
        assert!(master.result(1, res).is_empty());
    }

    #[test]
    fn all_workers_lost_finishes_locally_with_sequential_result() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 3).alignments;
            let mut master = MasterState::new(&seq, &scoring, &Search::new(3));
            // Two workers register, take work, and vanish mid-search.
            let _ = master.worker_idle(1, 0);
            let _ = master.worker_idle(2, 0);
            let actions = master.finish_locally();
            assert!(
                matches!(actions.last(), Some(MasterAction::Done)),
                "local fallback must run the search to completion"
            );
            assert!(master.is_done());
            assert_eq!(master.into_result().alignments, want, "on {text}");
        }
    }

    #[test]
    fn repeated_idle_does_not_inflate_capacity() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGC").unwrap();
        let mut master = MasterState::new(&seq, &scoring, &Search::new(2));
        let first = master.worker_idle(1, 0);
        let assigns = |v: &[MasterAction]| {
            v.iter()
                .filter(|a| matches!(a, MasterAction::Assign { .. }))
                .count()
        };
        assert_eq!(assigns(&first), 1, "one idle worker, one task");
        // The slot's IDLE announcement is re-delivered (duplicate or
        // re-beacon): the busy slot must not be handed a second task.
        let again = master.worker_idle(1, 0);
        assert_eq!(assigns(&again), 0, "duplicate IDLE must not assign");
        // A *different* slot on the same rank is genuine extra capacity
        // (the hybrid engine runs several CPUs behind one rank).
        let second = master.worker_idle(1, 1);
        assert_eq!(assigns(&second), 1, "second slot is real capacity");
    }

    /// A settling result for `item` that leaves its split unassignable
    /// (score 0), so the state stays easy to audit.
    fn settled(item: &TaskItem, stamp: usize, len: usize) -> ResultMsg {
        let r = item.unit + 1;
        ResultMsg {
            unit: item.unit,
            stamp,
            attempt: item.attempt,
            best: (r, 0),
            rows: vec![(r, vec![0; len - r])],
            work: Work::of(&Stats {
                alignments: 1,
                cells: 1,
                ..Stats::default()
            }),
        }
    }

    fn assigned_batches(actions: &[MasterAction]) -> Vec<TaskMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                MasterAction::Assign { task, .. } => Some(task.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_slots_hold_two_batches_and_each_is_credited_by_its_own_last_item() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGCATGCATGC").unwrap(); // 15 splits
        let mut master = MasterState::new(&seq, &scoring, &Search::new(3));
        let a = assigned_batches(&master.worker_idle(1, 0));
        let b = assigned_batches(&master.worker_idle(1, 1));
        assert_eq!((a.len(), b.len()), (1, 1), "one batch per announced slot");
        let (a, b) = (&a[0], &b[0]);
        assert_eq!((a.items.len(), b.items.len()), (MAX_BATCH, MAX_BATCH));
        assert!(
            a.items
                .iter()
                .all(|x| b.items.iter().all(|y| x.unit != y.unit)),
            "the second batch is queued work, not a copy of the first"
        );
        // Re-announcing either busy slot hands out nothing.
        for slot in [0, 1, 0, 1] {
            assert!(assigned_batches(&master.worker_idle(1, slot)).is_empty());
        }
        // Slot 1's batch settles completely while slot 0's has one item
        // left: only slot 1's token comes back, with its last item.
        for item in &a.items[..MAX_BATCH - 1] {
            assert!(master.result(1, settled(item, 0, seq.len())).is_empty());
        }
        for item in &b.items[..MAX_BATCH - 1] {
            assert!(master.result(1, settled(item, 0, seq.len())).is_empty());
        }
        let refill = master.result(1, settled(&b.items[MAX_BATCH - 1], 0, seq.len()));
        assert_eq!(assigned_batches(&refill).len(), 1, "slot 1 refilled");
        assert!(
            assigned_batches(&master.worker_idle(1, 0)).is_empty(),
            "slot 0 still owes an item: its IDLE is a duplicate"
        );
        let refill = master.result(1, settled(&a.items[MAX_BATCH - 1], 0, seq.len()));
        assert_eq!(assigned_batches(&refill).len(), 1, "slot 0 refilled");
        for slot in [0, 1] {
            assert!(assigned_batches(&master.worker_idle(1, slot)).is_empty());
        }
    }

    #[test]
    fn results_stamped_ahead_of_the_master_are_discarded_and_counted() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGC").unwrap();
        let mut master = MasterState::new(&seq, &scoring, &Search::new(2));
        let batch = assigned_batches(&master.worker_idle(1, 0)).remove(0);
        let item = &batch.items[0];
        // One past the master's acceptance count would later be trusted
        // as fresh; usize::MAX would size the per-top statistics.
        for stamp in [1, usize::MAX] {
            let mut res = settled(item, stamp, seq.len());
            res.best.1 = 999_999;
            assert!(master.result(1, res).is_empty());
        }
        assert_eq!(master.rejected_results(), 2);
        assert_eq!(master.stats().alignments, 0, "nothing was settled");
        // The assignment is still open: the honest result settles it.
        let _ = master.result(1, settled(item, 0, seq.len()));
        assert_eq!(master.stats().alignments, 1);
        assert_eq!(master.rejected_results(), 2);
    }

    #[test]
    fn assignments_are_batched_and_bound_local() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGCATGCATGC").unwrap(); // 15 splits
        let mut master = MasterState::new(&seq, &scoring, &Search::new(3));
        let actions = master.worker_idle(1, 0);
        let tasks: Vec<&TaskMsg> = actions
            .iter()
            .filter_map(|a| match a {
                MasterAction::Assign { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(tasks.len(), 1, "one slot token, one batch frame");
        let batch = tasks[0];
        assert_eq!(
            batch.items.len(),
            MAX_BATCH,
            "a deep backlog fills the batch to the cap"
        );
        assert!(
            batch.items.windows(2).all(|w| w[0].unit < w[1].unit),
            "batch items must be distinct splits sorted by r (bound locality)"
        );
        // Every item consumed the same slot: a re-announced IDLE is a
        // duplicate while ANY item is outstanding.
        let again = master.worker_idle(1, 0);
        assert!(
            !again
                .iter()
                .any(|a| matches!(a, MasterAction::Assign { .. })),
            "slot stays busy until the whole batch settles"
        );
        // Settle all but the last item: still busy.
        for item in &batch.items[..MAX_BATCH - 1] {
            let _ = master.result(1, settled(item, batch.stamp, seq.len()));
        }
        let still = master.worker_idle(1, 0);
        assert!(
            !still
                .iter()
                .any(|a| matches!(a, MasterAction::Assign { .. })),
            "one outstanding item still pins the slot"
        );
        // The last item settles the batch: the slot comes back and the
        // master immediately hands out the next batch.
        let last = &batch.items[MAX_BATCH - 1];
        let next = master.result(1, settled(last, batch.stamp, seq.len()));
        assert!(
            next.iter()
                .any(|a| matches!(a, MasterAction::Assign { .. })),
            "freed slot is refilled with the next batch"
        );
    }

    /// `count` tops on a master of `unit()` with two workers of
    /// `PREFETCH_SLOTS` slots each, every item computed at once through
    /// [`run_task`] in assignment order (one replica in lockstep with the
    /// master serves both). Returns the tops, every batch issued, and the
    /// most lanes one worker ever held unsettled.
    fn drive_units<K: PackKernel>(
        unit: impl Fn() -> PackUnit<K>,
        seq: &Seq,
        scoring: &Scoring,
        count: usize,
    ) -> (Vec<TopAlignment>, Vec<TaskMsg>, usize) {
        use crate::engine::PREFETCH_SLOTS;
        let mut master = MasterState::with_unit(unit(), seq, scoring, &Search::new(count));
        let worker = unit();
        let mut packs = worker.packs();
        let common = Common::new(seq, scoring);
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut accepted: Vec<TopAlignment> = Vec::new();
        let mut pending = std::collections::VecDeque::new();
        let (mut batches, mut held, mut most) = (Vec::new(), [0; 2], 0);
        let mut actions = Vec::new();
        for (w, slot) in (0..2).flat_map(|w| (0..PREFETCH_SLOTS).map(move |s| (w, s))) {
            actions.extend(master.worker_idle(w, slot));
        }
        loop {
            for a in actions.drain(..) {
                match a {
                    MasterAction::Assign { worker: w, task } => {
                        for item in &task.items {
                            held[w] += worker.splits(item.unit).len();
                            pending.push_back((w, item.clone()));
                        }
                        most = most.max(held[w]);
                        batches.push(task);
                    }
                    MasterAction::Broadcast(acc) => acc.apply(&mut triangle, &mut accepted),
                    MasterAction::Done => {
                        return (master.into_result().alignments, batches, most);
                    }
                    MasterAction::Retry { .. } | MasterAction::WorkerDead { .. } => {
                        unreachable!("no clock, no deaths")
                    }
                }
            }
            let (w, item) = pending.pop_front().expect("master stalled without Done");
            held[w] -= worker.splits(item.unit).len();
            let replica = (&common, &triangle, &accepted[..]);
            let res = run_task(&worker, &mut packs, replica, item);
            actions = master.result(w, res);
        }
    }

    #[test]
    fn batches_are_bounded_in_lanes() {
        use crate::engine::PREFETCH_SLOTS;
        use repro_simd::{select, GroupSweeper, LaneWidth};
        let scoring = Scoring::dna_example();
        let seq = Seq::dna(&"ATGC".repeat(24)).unwrap(); // 95 splits
        let want = find_top_alignments(&seq, &scoring, 4).alignments;
        // A 1-lane pack is one split: a deep backlog still fills a batch.
        let rows = || PackUnit::new(ScoredSeq::new(&seq, &scoring), None);
        let (tops, batches, most) = drive_units(rows, &seq, &scoring, 4);
        assert_eq!(tops, want);
        assert_eq!(batches[0].items.len(), MAX_BATCH);
        assert!(batches.iter().all(|b| b.items.len() <= MAX_BATCH));
        assert!(most <= PREFETCH_SLOTS * MAX_BATCH);
        // A pack covers at least MAX_BATCH lanes: one per frame.
        for width in [LaneWidth::X4, LaneWidth::X16] {
            let sel = select(Some(width), None).unwrap();
            let packs = || PackUnit::new(GroupSweeper::new(&seq, &scoring, sel), None);
            let (tops, batches, most) = drive_units(packs, &seq, &scoring, 4);
            assert_eq!(tops, want, "{width:?}");
            assert!(
                batches.iter().all(|b| b.items.len() == 1),
                "{width:?}: a pack batch holds one pack"
            );
            assert!(
                most <= PREFETCH_SLOTS * MAX_BATCH.max(width.lanes()),
                "{width:?}: {most}"
            );
        }
    }

    #[test]
    fn thin_backlog_spreads_across_idle_slots() {
        // More idle tokens than MAX_BATCH-sized shares of the backlog:
        // the adaptive batch size must spread work instead of letting
        // the first slot hoard it.
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ATGCATGC").unwrap(); // 7 splits
        let mut master = MasterState::new(&seq, &scoring, &Search::new(3));
        // Register 4 slots on a dead-letter pattern: hold the actions.
        let mut all = Vec::new();
        for w in 0..4 {
            all.extend(master.worker_idle(w, 0));
        }
        let sizes: Vec<usize> = all
            .iter()
            .filter_map(|a| match a {
                MasterAction::Assign { task, .. } => Some(task.items.len()),
                _ => None,
            })
            .collect();
        assert!(
            sizes.len() >= 2,
            "7 tasks over 4 slots must use more than one slot, got {sizes:?}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), 7, "every split assigned once");
        assert!(
            sizes.iter().all(|&s| s <= MAX_BATCH),
            "no batch may exceed the cap: {sizes:?}"
        );
    }
}
