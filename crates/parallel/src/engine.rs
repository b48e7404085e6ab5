//! The one SMP engine, generic over the kernel of its unit of work.
//!
//! *Who runs a claim* is written here: worker threads that take the
//! shared lock, ask the one [`repro_core::Scheduler`] what to do next
//! (the best-first table, the acceptance rule and the seed bounds live
//! there, shared with the inline driver and the cluster master), and
//! run the Accept / Sweep arms with the lock released around the
//! traceback and the sweep. *How one unit is (re)aligned* is a
//! [`repro_core::PackUnit`], defined next to the inline driver that
//! shares it: packs of neighbouring splits, one split wide under the
//! row kernel or 4/8/16 under the lane kernel, with first-pass rows in
//! the one store, [`repro_core::Common`]. The engine is monomorphised
//! over the [`repro_core::PackKernel`], never `dyn`.

use parking_lot::{Condvar, Mutex};
use repro_align::{Scoring, Seq};
use repro_core::{
    Common, LanePacks, Next, OverrideTriangle, PackKernel, PackUnit, Scheduler, Search, Stats,
    TopAlignment, TopAlignments,
};
use repro_obs::{Counter, FlightRecorder, Metric, Phase, Recorder};
use std::sync::Arc;
use std::time::Instant;

struct Shared<'a> {
    sched: Scheduler<'a>,
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
    /// trip, queue wait, resume rows and prune slack; whatever the
    /// unit's commit adds.
    tally: FlightRecorder,
    packs: LanePacks,
}

struct Engine<'a, K: PackKernel> {
    unit: &'a PackUnit<K>,
    common: Common<'a>,
    shared: Mutex<Shared<'a>>,
    wake: Condvar,
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
    let engine = Engine {
        unit,
        common: Common::new(seq, scoring),
        shared: Mutex::new(Shared {
            sched: Scheduler::new(unit, seq, scoring, search),
            triangle: Arc::new(OverrideTriangle::new(m)),
            tops: Vec::new(),
            stats: Stats::new(),
            tally: FlightRecorder::new(),
            packs: unit.packs(),
        }),
        wake: Condvar::new(),
    };

    if m > 1 && search.count > 0 {
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
    shared.sched.finish(&mut shared.stats);
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
    fn worker(&self) {
        let mut guard = self.shared.lock();
        loop {
            let shared = &mut *guard;
            match shared
                .sched
                .next(&mut shared.stats, &shared.triangle, usize::MAX)
            {
                Next::Done => {
                    self.wake.notify_all();
                    return;
                }
                Next::Wait => {
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
                Next::Pruned { slack, .. } => {
                    shared.tally.observe(Metric::PruneSlack, slack as u64);
                }
                Next::Accept { u, score } => {
                    let claim_t0 = Instant::now();
                    shared.tally.add(Counter::TaskClaims, 1);
                    let (r, _) = shared.packs.best_member(u);
                    let index = shared.tops.len();
                    let mut triangle = (*shared.triangle).clone();
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
                    let shared = &mut *guard;
                    shared
                        .tally
                        .add_phase_secs(Phase::Traceback, traceback_secs);
                    shared.stats.record_traceback(cells);
                    shared.triangle = Arc::new(triangle);
                    shared.sched.accepted(&top.pairs);
                    shared.tops.push(top);
                    shared.tally.observe(
                        Metric::TaskRoundTripNs,
                        claim_t0.elapsed().as_nanos() as u64,
                    );
                    self.wake.notify_all();
                }
                Next::Sweep { u, first, .. } => {
                    let claim_t0 = Instant::now();
                    shared.tally.add(Counter::TaskClaims, 1);
                    // The lock is held from the claim through the plan:
                    // `tops` is still exactly `stamp` long, so whatever
                    // the plan stamps stays correct even if the sweep is
                    // later superseded.
                    let stamp = shared.tops.len();
                    let plan = shared.packs.plan(u, first, &shared.tops);
                    let version = plan.version() as usize;
                    let swept = if plan.is_replay() {
                        None
                    } else {
                        let triangle = Arc::clone(&shared.triangle);
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
                    shared.sched.settle(u, score, version);
                    if stamp != shared.tops.len() {
                        shared.tally.add(Counter::SupersededWork, 1);
                    }
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
