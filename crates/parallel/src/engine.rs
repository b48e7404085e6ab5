//! The one SMP engine, generic over the kernel of its unit of work.
//!
//! *Who schedules* is written here once: the shared task table, the
//! best-first [`Engine::decide`], the Accept / Wait / Finished arms and
//! the end-of-run fold. *How one unit is (re)aligned* is a
//! [`repro_core::PackUnit`], defined next to the inline driver that
//! shares it: packs of neighbouring splits, one split wide under the
//! row kernel or 4/8/16 under the lane kernel, with first-pass rows in
//! the one store, [`repro_core::Common`]. The engine is monomorphised
//! over the [`repro_core::PackKernel`], never `dyn`.

use parking_lot::{Condvar, Mutex};
use repro_align::{Score, Scoring, Seq};
use repro_core::{
    Common, LanePacks, OverrideTriangle, PackKernel, PackUnit, Search, SplitBounds, Stats,
    TopAlignment, TopAlignments,
};
use repro_obs::{Counter, FlightRecorder, Metric, Phase, Recorder};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct UnitState {
    /// Best member's upper bound (drives scheduling).
    score: Score,
    aligned_with: usize,
    assigned: bool,
}

struct Shared {
    state: Vec<UnitState>, // one per unit
    triangle: Arc<OverrideTriangle>,
    tops: Vec<TopAlignment>,
    stats: Stats,
    /// What the workers count and time, under the lock and measured
    /// unconditionally (a couple of clock reads per coarse-grained
    /// task): task claims (acceptances + sweeps); sweeps computed
    /// against an already-superseded triangle version (the speculation
    /// overhead; paper: ≤ 8.4 %); seconds blocked waiting for claimable
    /// work, of acceptance recomputation and traceback (the serial
    /// master-side step) and of unlocked first-pass and realignment
    /// sweeps, each summed across workers; sweep duration, task round
    /// trip, queue wait and resume rows; whatever the unit's commit
    /// adds.
    tally: FlightRecorder,
    accept_in_progress: bool,
    done: bool,
    /// `Some` with seeded pruning: the admissible per-split bounds,
    /// told of each accept and refreshed on demand, under the lock.
    bounds: Option<SplitBounds>,
    /// Splits (not units) that have completed their first pass.
    first_passes: usize,
    packs: LanePacks,
}

struct Engine<'a, K: PackKernel> {
    unit: &'a PackUnit<K>,
    common: Common<'a>,
    /// Top alignments wanted.
    count: usize,
    shared: Mutex<Shared>,
    wake: Condvar,
}

const NEVER: usize = usize::MAX;

enum Decision {
    Accept {
        r: usize,
        score: Score,
    },
    Sweep {
        u: usize,
        stamp: usize,
        triangle: Arc<OverrideTriangle>,
    },
    Wait,
    Finished,
}

/// Run `search` over `seq` on `threads` workers claiming `unit`s. Folds
/// the workers' tally into `rec` after the thread scope joins: a worker
/// thread cannot hold the caller's `&mut` recorder.
pub(crate) fn run<K: PackKernel, R: Recorder>(
    unit: &PackUnit<K>,
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    threads: usize,
    rec: &mut R,
) -> TopAlignments {
    assert!(threads >= 1, "need at least one worker");
    let m = seq.len();
    let splits = m.saturating_sub(1);

    let bounds = search
        .seed
        .map(|sc| SplitBounds::build(seq.codes(), scoring, sc));
    let state = (0..unit.units())
        .map(|u| UnitState {
            // A unit's admissible bound is the max of its members'
            // split bounds (swept as a unit).
            score: match &bounds {
                Some(b) => b.max_bound(unit.splits(u)),
                None => Score::MAX,
            },
            aligned_with: NEVER,
            assigned: false,
        })
        .collect();
    let mut stats = Stats::new();
    if let Some(b) = &bounds {
        stats.seed_index_build_ns = b.build_ns();
    }

    let engine = Engine {
        unit,
        common: Common::new(seq, scoring),
        count: search.count,
        shared: Mutex::new(Shared {
            state,
            triangle: Arc::new(OverrideTriangle::new(m)),
            tops: Vec::new(),
            stats,
            tally: FlightRecorder::new(),
            accept_in_progress: false,
            done: false,
            bounds,
            first_passes: 0,
            packs: unit.packs(),
        }),
        wake: Condvar::new(),
    };

    if splits > 0 && search.count > 0 {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| engine.worker()))
                .collect();
            // Join each OS thread, not only its closure (all the scope
            // waits for): a worker still exiting holds its malloc arena,
            // so the next search's workers would each open a new one.
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }

    let mut shared = engine.shared.into_inner();
    if let Some(b) = &shared.bounds {
        shared.stats.splits_pruned = splits.saturating_sub(shared.first_passes) as u64;
        shared.stats.bound_recomputes = b.recomputes();
    }
    let tally = &shared.tally;
    for counter in Counter::ALL {
        rec.add(counter, tally.counter(counter));
    }
    for phase in Phase::ALL {
        // One entry per phase; `worker_idle` also when nobody waited.
        if phase == Phase::WorkerIdle || tally.phase_entries(phase) > 0 {
            rec.add_phase_secs(phase, tally.phase_secs(phase));
        }
    }
    for metric in Metric::ALL {
        rec.observe_hist(metric, tally.hist(metric));
    }
    TopAlignments {
        alignments: shared.tops,
        stats: shared.stats,
        triangle: Arc::try_unwrap(shared.triangle).unwrap_or_else(|a| (*a).clone()),
    }
}

impl<K: PackKernel> Engine<'_, K> {
    /// Pick the next action under the lock.
    fn decide(&self, shared: &mut Shared) -> Decision {
        loop {
            if shared.done || shared.tops.len() >= self.count {
                shared.done = true;
                return Decision::Finished;
            }
            let tops_found = shared.tops.len();
            // Global argmax over ALL units (assigned ones hold their
            // stale upper bound), ties to the smaller unit — which,
            // because units partition the splits in order, is the
            // smaller split.
            let mut best: Option<(Score, usize)> = None;
            for (u, t) in shared.state.iter().enumerate() {
                if best.is_none_or(|(bs, _)| t.score > bs) {
                    best = Some((t.score, u));
                }
            }
            let Some((_, best_u)) = best.filter(|&(score, _)| score > 0) else {
                shared.done = true;
                return Decision::Finished;
            };
            let best_task = shared.state[best_u];
            // A fresh head is the next top alignment — unless someone is
            // already accepting, in which case speculate below.
            if best_task.aligned_with == tops_found
                && !best_task.assigned
                && !shared.accept_in_progress
            {
                shared.accept_in_progress = true;
                shared.tally.add(Counter::TaskClaims, 1);
                shared.stats.fresh_pops += 1;
                let (r, score) = shared.packs.best_member(best_u);
                return Decision::Accept { r, score };
            }
            // Speculate: best stale unassigned unit, if any.
            let mut pick: Option<(Score, usize)> = None;
            for (u, t) in shared.state.iter().enumerate() {
                if !t.assigned
                    && t.aligned_with != tops_found
                    && t.score > 0
                    && pick.is_none_or(|(ps, _)| t.score > ps)
                {
                    pick = Some((t.score, u));
                }
            }
            let Some((_, u)) = pick else {
                return Decision::Wait;
            };
            // A never-swept pick is about to be swept: the moment the
            // seed bounds may spend a refresh. If they do, lower every
            // never-swept unassigned unit to its new (max-member) bound
            // and decide again.
            if shared.state[u].aligned_with == NEVER {
                if let Some(bounds) = shared.bounds.as_mut() {
                    let input = &self.common.input;
                    if bounds.refresh_before_sweep(
                        input.seq.codes(),
                        input.scoring,
                        &shared.triangle,
                        self.unit.refresh_stake(u),
                    ) {
                        for (v, t) in shared.state.iter_mut().enumerate() {
                            if t.aligned_with == NEVER && !t.assigned {
                                t.score = bounds.max_bound(self.unit.splits(v));
                            }
                        }
                        continue;
                    }
                }
            }
            shared.state[u].assigned = true;
            shared.tally.add(Counter::TaskClaims, 1);
            shared.stats.stale_pops += 1;
            return Decision::Sweep {
                u,
                stamp: tops_found,
                triangle: Arc::clone(&shared.triangle),
            };
        }
    }

    fn worker(&self) {
        let mut guard = self.shared.lock();
        loop {
            match self.decide(&mut guard) {
                Decision::Finished => {
                    self.wake.notify_all();
                    return;
                }
                Decision::Wait => {
                    let t0 = Instant::now();
                    self.wake.wait(&mut guard);
                    let idle = t0.elapsed();
                    guard
                        .tally
                        .add_phase_secs(Phase::WorkerIdle, idle.as_secs_f64());
                    guard
                        .tally
                        .observe(Metric::QueueWaitNs, idle.as_nanos() as u64);
                }
                Decision::Accept { r, score } => {
                    let claim_t0 = Instant::now();
                    let index = guard.tops.len();
                    let mut triangle = (*guard.triangle).clone();
                    drop(guard);

                    let traceback_t0 = Instant::now();
                    let (top, cells) = self.common.input.accept_task_with_row(
                        r,
                        score,
                        &mut triangle,
                        self.common.row(r),
                        index,
                    );
                    let traceback_secs = traceback_t0.elapsed().as_secs_f64();

                    guard = self.shared.lock();
                    guard.tally.add_phase_secs(Phase::Traceback, traceback_secs);
                    guard.stats.record_traceback(cells);
                    guard.triangle = Arc::new(triangle);
                    if let Some(bounds) = guard.bounds.as_mut() {
                        bounds.note_accept(&top.pairs);
                    }
                    guard.tops.push(top);
                    guard.accept_in_progress = false;
                    guard.tally.observe(
                        Metric::TaskRoundTripNs,
                        claim_t0.elapsed().as_nanos() as u64,
                    );
                    // The accepted unit keeps its score as an upper bound
                    // and is now stale (tops count advanced).
                    self.wake.notify_all();
                }
                Decision::Sweep { u, stamp, triangle } => {
                    let claim_t0 = Instant::now();
                    let first = guard.state[u].aligned_with == NEVER;
                    // The lock has been held since decide(): `tops` is
                    // still exactly `stamp` long, so whatever the plan
                    // stamps stays correct even if the sweep is later
                    // superseded.
                    let shared = &mut *guard;
                    let plan = shared.packs.plan(u, first, &shared.tops);
                    let version = plan.version() as usize;
                    let swept = if plan.is_replay() {
                        None
                    } else {
                        drop(guard);
                        let sweep_t0 = Instant::now();
                        let swept = self.unit.sweep(&self.common, &plan, &triangle);
                        // Measure the unlocked sweep before re-acquiring
                        // the lock so contention does not inflate the
                        // sample.
                        let sweep = sweep_t0.elapsed();
                        guard = self.shared.lock();
                        let kind = if first {
                            Phase::FirstSweep
                        } else {
                            Phase::Drain
                        };
                        guard.tally.add_phase_secs(kind, sweep.as_secs_f64());
                        guard
                            .tally
                            .observe(Metric::SweepNs, sweep.as_nanos() as u64);
                        Some(swept)
                    };
                    let shared = &mut *guard;
                    let score =
                        shared
                            .packs
                            .commit(&mut shared.stats, &mut shared.tally, plan, swept);
                    if first {
                        shared.first_passes += self.unit.splits(u).len();
                    }
                    if stamp != shared.tops.len() {
                        shared.tally.add(Counter::SupersededWork, 1);
                    }
                    let t = &mut shared.state[u];
                    // Masking monotonicity for realignments, seed-bound
                    // admissibility for first passes: every score exact
                    // under the version it was planned at.
                    debug_assert!(
                        version < stamp || score <= t.score,
                        "sweep of unit {u} rose above its upper bound"
                    );
                    // Exact, that is the score itself; stale (a late
                    // first pass), the tighter of two admissible bounds.
                    t.score = score.min(t.score);
                    t.aligned_with = version;
                    t.assigned = false;
                    shared.tally.observe(
                        Metric::TaskRoundTripNs,
                        claim_t0.elapsed().as_nanos() as u64,
                    );
                    self.wake.notify_all();
                }
            }
        }
    }
}
