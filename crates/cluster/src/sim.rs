//! The DAS-2 cluster simulator: the distributed protocol on the
//! virtual-time backend (Figure 8's apparatus).
//!
//! Workers execute *real* alignments (scores and scheduling decisions
//! are exact), but time comes from a calibrated cost model instead of a
//! wall clock: cells divided by a per-processor rate, plus a
//! Myrinet-class link model for every message. One sacrificed master
//! plus `P − 1` workers reproduces the paper's setup for any `P`,
//! including 128, on a single machine.
//!
//! A simulated worker answers a task exactly as a cluster worker's
//! sweep thread does (`master::run_task`, one split to a task: 1-lane
//! packs under the row kernel),
//! on its own replica. Because every engine accepts the same top
//! alignments in the same order regardless of worker count (see
//! `master.rs`), the triangle state at version `v` is run-invariant —
//! which lets a shared [`AlignCache`] memoise `(unit, version) → result`
//! across the whole processor/top-count sweep. The first configuration
//! pays for the real compute; the rest replay it under different
//! schedules.

use crate::master::{run_task, MasterAction, MasterState};
use crate::protocol::{tag, AcceptedMsg, ResultMsg, ResultsMsg, TaskItem, TaskMsg};
use repro_align::{Scoring, Seq};
use repro_core::{
    Common, LanePacks, OverrideTriangle, PackUnit, ScoredSeq, Search, TopAlignment, TopAlignments,
};
use repro_obs::NoopRecorder;
use repro_xmpi::virtual_time::{run, Actor, Ctx, LinkModel};
use repro_xmpi::Rank;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Per-processor compute rates, calibrated against the paper's measured
/// Pentium III numbers (§5: 5.2 s for a 17175² matrix conventionally;
/// 3.0 s for four such matrices with SSE).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Conventional (scalar) kernel rate, cells/second — the Figure 8
    /// baseline "1 processor, sequential algorithm".
    pub scalar_cells_per_sec: f64,
    /// Worker kernel rate, lane-cells/second (the SSE kernel the paper's
    /// slaves run).
    pub worker_cells_per_sec: f64,
    /// Traceback rate on the master, cells/second.
    pub traceback_cells_per_sec: f64,
    /// Master bookkeeping cost per handled message, seconds.
    pub queue_op_seconds: f64,
}

impl CostModel {
    /// DAS-2 calibration: 1 GHz Pentium III nodes, Myrinet.
    pub fn das2() -> Self {
        CostModel {
            scalar_cells_per_sec: 17175.0 * 17175.0 / 5.2,
            worker_cells_per_sec: 4.0 * 17175.0 * 17175.0 / 3.0,
            traceback_cells_per_sec: 17175.0 * 17175.0 / 5.2,
            queue_op_seconds: 2e-6,
        }
    }
}

/// Memoised alignment results shared across simulation runs.
///
/// Keyed by `(unit, triangle version)`; valid because the acceptance
/// sequence — hence the triangle at each version — is identical for
/// every processor count. A replay answers its own attempt.
#[derive(Debug, Default)]
pub struct AlignCache {
    entries: HashMap<(usize, usize), ResultMsg>,
}

impl AlignCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        AlignCache::default()
    }

    /// Number of memoised `(unit, version)` results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Result of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total processors simulated (1 master + workers).
    pub processors: usize,
    /// Virtual seconds until the last top alignment was accepted and the
    /// world shut down.
    pub virtual_time: f64,
    /// Sequential-scalar virtual time for the same search (the Figure 8
    /// baseline), derived from the sequential engine's work profile.
    pub sequential_time: f64,
    /// Single-CPU SSE virtual time (the paper's second baseline).
    pub sse_time: f64,
    /// `sequential_time / virtual_time` — the Figure 8 y-axis.
    pub speed_improvement: f64,
    /// `sse_time / virtual_time` — speedup vs the SSE version.
    pub speedup_vs_sse: f64,
    /// Messages exchanged.
    pub messages: u64,
    /// Bytes moved over the simulated link.
    pub bytes: u64,
    /// The alignments found (identical to the sequential engine's).
    pub result: TopAlignments,
}

// The vector holds one master next to many workers: the master, which
// dwarfs a worker, is boxed, and the workers stay inline.
#[allow(clippy::large_enum_variant)]
enum SimActor<'a> {
    Master(Box<MasterSim<'a>>),
    Worker(WorkerSim<'a>),
}

struct MasterSim<'a> {
    state: MasterState<'a>,
    cost: CostModel,
    /// Sequence length.
    m: usize,
}

/// The cells of the paper's acceptance traceback for split `r` of a
/// length-`m` sequence: the whole split matrix, what the DAS-2 rate
/// [`CostModel::traceback_cells_per_sec`] was measured on (this repo's
/// accept sweeps the alignment's box instead, `Stats::traceback_cells`).
fn paper_traceback_cells(m: usize, r: usize) -> u64 {
    r as u64 * (m - r) as u64
}

struct WorkerSim<'a> {
    unit: PackUnit<ScoredSeq<'a>>,
    /// The unit's state, this worker's own.
    packs: LanePacks,
    /// The profiled sequence, and every first-pass row this worker has
    /// computed or been sent.
    common: Common<'a>,
    triangle: OverrideTriangle,
    /// The ACCEPTED broadcasts applied, in order: the replica's version.
    accepted: Vec<TopAlignment>,
    /// Items whose stamp the replica has not reached, with that stamp.
    deferred: Vec<(usize, TaskItem)>,
    cost: CostModel,
    cache: Rc<RefCell<AlignCache>>,
}

impl MasterSim<'_> {
    fn act(&mut self, actions: Vec<MasterAction>, ctx: &mut Ctx) {
        for action in actions {
            match action {
                MasterAction::Assign { worker, task } => {
                    ctx.send(worker, tag::TASK, task.encode());
                }
                MasterAction::Broadcast(acc) => {
                    // The traceback behind this acceptance ran on the
                    // master; charge it (paper: "the traceback ... is
                    // done sequentially and takes a relatively long
                    // time").
                    if let Some(top) = self.state.alignments().get(acc.index) {
                        let cells = paper_traceback_cells(self.m, top.r);
                        ctx.compute(cells as f64 / self.cost.traceback_cells_per_sec);
                    }
                    let payload = acc.encode();
                    for w in 1..ctx.size() {
                        ctx.send(w, tag::ACCEPTED, payload.clone());
                    }
                }
                MasterAction::Done => {
                    for w in 1..ctx.size() {
                        ctx.send(w, tag::DONE, Vec::new());
                    }
                    ctx.stop();
                }
                MasterAction::Retry { .. } | MasterAction::WorkerDead { .. } => {
                    unreachable!("the simulator's clock never moves and no worker dies")
                }
            }
        }
    }
}

impl WorkerSim<'_> {
    fn run_task(&mut self, task: TaskItem, ctx: &mut Ctx) {
        let key = (task.unit, self.accepted.len());
        let cached = self.cache.borrow().entries.get(&key).cloned();
        let res = match cached {
            // Computed in an earlier run: keep the rows the task and the
            // result bring for future shadow filtering, and answer this
            // attempt.
            Some(res) => {
                for (r, row) in task.rows.into_iter().chain(res.rows.iter().cloned()) {
                    if !self.common.has_row(r) {
                        self.common.set_row(r, row);
                    }
                }
                ResultMsg {
                    attempt: task.attempt,
                    ..res
                }
            }
            // Through the unit, with no checkpoints: the cache is the
            // simulator's memo.
            None => {
                let replica = (&self.common, &self.triangle, &self.accepted[..]);
                let res = run_task(
                    &self.unit,
                    &mut self.packs,
                    replica,
                    task,
                    &mut NoopRecorder,
                );
                self.cache.borrow_mut().entries.insert(key, res.clone());
                res
            }
        };
        ctx.compute(res.work.cells() as f64 / self.cost.worker_cells_per_sec);
        ctx.send(0, tag::RESULT, ResultsMsg { items: vec![res] }.encode());
    }

    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        let applied = self.accepted.len();
        while let Some(pos) = self.deferred.iter().position(|&(s, _)| s <= applied) {
            let (_, item) = self.deferred.swap_remove(pos);
            self.run_task(item, ctx);
        }
    }
}

impl Actor for SimActor<'_> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        match self {
            SimActor::Master(_) => {}
            SimActor::Worker(_) => {
                ctx.send(0, tag::IDLE, Vec::new());
            }
        }
    }

    fn on_message(&mut self, from: Rank, tag: u32, payload: &[u8], ctx: &mut Ctx) {
        match self {
            SimActor::Master(m) => {
                ctx.compute(m.cost.queue_op_seconds);
                let actions = match tag {
                    tag::IDLE => m.state.worker_idle(from, 0),
                    tag::RESULT => {
                        let frame = ResultsMsg::decode(payload, m.state.unit())
                            .expect("simulator transport cannot corrupt frames");
                        frame
                            .items
                            .into_iter()
                            .flat_map(|res| m.state.result(from, res))
                            .collect()
                    }
                    other => unreachable!("master got tag {other}"),
                };
                m.act(actions, ctx);
            }
            SimActor::Worker(w) => match tag {
                tag::TASK => {
                    let task = TaskMsg::decode(payload, &w.unit)
                        .expect("simulator transport cannot corrupt frames");
                    let stamp = task.stamp;
                    if stamp <= w.accepted.len() {
                        for item in task.items {
                            w.run_task(item, ctx);
                        }
                    } else {
                        // One stamp per frame: all-run-or-all-defer.
                        w.deferred
                            .extend(task.items.into_iter().map(|item| (stamp, item)));
                    }
                }
                tag::ACCEPTED => {
                    let acc = AcceptedMsg::decode(payload)
                        .expect("simulator transport cannot corrupt frames");
                    acc.apply(&mut w.triangle, &mut w.accepted);
                    w.drain_deferred(ctx);
                }
                tag::DONE => {}
                other => unreachable!("worker got tag {other}"),
            },
        }
    }
}

/// Simulate a `processors`-CPU cluster run (1 master + `processors − 1`
/// workers) finding `count` top alignments. `seq_stats` must come from a
/// sequential run with at least `count` tops (it provides the analytic
/// baselines); `cache` may be shared across calls to amortise compute.
#[allow(clippy::too_many_arguments)] // experiment APIs spell every knob out
pub fn simulate_cluster(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    processors: usize,
    cost: CostModel,
    link: LinkModel,
    seq_stats: &repro_core::Stats,
    cache: Rc<RefCell<AlignCache>>,
) -> SimReport {
    assert!(processors >= 2, "need a master and at least one worker");
    let workers = processors - 1;

    let mut actors: Vec<SimActor> = Vec::with_capacity(processors);
    actors.push(SimActor::Master(Box::new(MasterSim {
        state: MasterState::new(seq, scoring, &Search::new(count)),
        cost,
        m: seq.len(),
    })));
    for _ in 0..workers {
        let unit = PackUnit::new(ScoredSeq::new(seq, scoring), None);
        actors.push(SimActor::Worker(WorkerSim {
            packs: unit.packs(),
            unit,
            common: Common::new(seq, scoring),
            triangle: OverrideTriangle::new(seq.len()),
            accepted: Vec::new(),
            deferred: Vec::new(),
            cost,
            cache: Rc::clone(&cache),
        }));
    }

    let (outcome, actors) = run(actors, link);
    let SimActor::Master(master) = actors.into_iter().next().expect("master exists") else {
        panic!("rank 0 must be the master");
    };
    let result = master.state.into_result();

    let found = result.alignments.len();
    let score_cells = seq_stats.cells_to_top(found);
    let trace_cells: u64 = result
        .alignments
        .iter()
        .map(|top| paper_traceback_cells(seq.len(), top.r))
        .sum();
    let sequential_time = score_cells as f64 / cost.scalar_cells_per_sec
        + trace_cells as f64 / cost.traceback_cells_per_sec;
    let sse_time = score_cells as f64 / cost.worker_cells_per_sec
        + trace_cells as f64 / cost.traceback_cells_per_sec;

    SimReport {
        processors,
        virtual_time: outcome.end_time,
        sequential_time,
        sse_time,
        speed_improvement: sequential_time / outcome.end_time.max(1e-12),
        speedup_vs_sse: sse_time / outcome.end_time.max(1e-12),
        messages: outcome.messages,
        bytes: outcome.bytes,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::find_top_alignments;

    fn sim(seq: &Seq, scoring: &Scoring, count: usize, procs: usize) -> SimReport {
        let seq_run = find_top_alignments(seq, scoring, count);
        simulate_cluster(
            seq,
            scoring,
            count,
            procs,
            CostModel::das2(),
            LinkModel::default(),
            &seq_run.stats,
            Rc::new(RefCell::new(AlignCache::new())),
        )
    }

    #[test]
    fn simulated_cluster_finds_the_same_alignments() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for procs in [2, 3, 5, 9] {
            let report = sim(&seq, &scoring, 3, procs);
            assert_eq!(
                report.result.alignments, want.alignments,
                "{procs} processors"
            );
            assert!(report.virtual_time > 0.0);
        }
    }

    #[test]
    fn more_processors_never_slow_the_first_sweep_down_much() {
        let seq = repro_seqgen::titin_like(160, 1);
        let scoring = Scoring::protein_default();
        let t2 = sim(&seq, &scoring, 1, 2).virtual_time;
        let t9 = sim(&seq, &scoring, 1, 9).virtual_time;
        assert!(
            t9 < t2,
            "8 workers must beat 1 worker on the initial sweep: {t9} vs {t2}"
        );
    }

    #[test]
    fn cache_is_shared_and_reused() {
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let seq_run = find_top_alignments(&seq, &scoring, 3);
        let cache = Rc::new(RefCell::new(AlignCache::new()));
        let a = simulate_cluster(
            &seq,
            &scoring,
            3,
            3,
            CostModel::das2(),
            LinkModel::default(),
            &seq_run.stats,
            Rc::clone(&cache),
        );
        let filled = cache.borrow().len();
        assert!(filled > 0);
        let b = simulate_cluster(
            &seq,
            &scoring,
            3,
            5,
            CostModel::das2(),
            LinkModel::default(),
            &seq_run.stats,
            Rc::clone(&cache),
        );
        assert_eq!(a.result.alignments, b.result.alignments);
    }

    #[test]
    fn determinism() {
        let seq = Seq::dna(&"ACGGT".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let a = sim(&seq, &scoring, 4, 4);
        let b = sim(&seq, &scoring, 4, 4);
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.result.alignments, b.result.alignments);
    }
}
