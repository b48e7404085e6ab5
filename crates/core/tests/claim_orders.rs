//! Every order in which virtual workers can claim and settle work from
//! the one [`Scheduler`], on every short `{A,C}` string, unseeded and
//! seeded.
//!
//! The scheduler is a pure state machine, so the SMP engine's and the
//! cluster master's freedom — who claims next, whose claim settles
//! first — can be enumerated instead of sampled. A worker claims by
//! asking [`Scheduler::next`] (planning a sweep on the shared packs and
//! snapshotting the triangle, or reading an accept's best member, as the
//! SMP engine does under its lock) and later settles: a sweep runs
//! through [`PackUnit::sweep`] against the snapshot it was claimed
//! under and commits; an accept traces back and applies. A depth-first
//! search replays the run from the start once per order, branching at
//! every step between "a free worker claims" and "busy worker `w`
//! settles", and cuts an order short where it reaches a state an
//! earlier order already explored (workers are interchangeable, so the
//! claims held count as a set). Every order must terminate with the
//! sequential engine's tops, apply no accept twice, never speculate on
//! a fresh unit, and never requeue a unit above the bound it was
//! claimed at.

use repro_align::{Score, Scoring, Seq};
use repro_core::pack::PackPlan;
use repro_core::{
    find_top_alignments, Common, LanePacks, Next, OverrideTriangle, PackUnit, Scheduler, ScoredSeq,
    Search, SeedConfig, Stats, TopAlignment,
};
use repro_obs::NoopRecorder;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Top alignments each run asks for.
const COUNT: usize = 3;

/// What a virtual worker holds between its claim and its settle.
#[derive(Debug)]
enum Claim {
    Sweep {
        u: usize,
        bound: Score,
        plan: PackPlan,
        snapshot: OverrideTriangle,
    },
    Accept {
        r: usize,
        score: Score,
    },
}

/// The choices of one order, replayed from the start: `(taken, of)` at
/// every step that had more than one enabled action; and the states
/// every order so far reached past its replayed prefix.
struct Script {
    choices: Vec<(usize, usize)>,
    at: usize,
    replayed: usize,
    seen: HashSet<u64>,
}

impl Script {
    fn choose(&mut self, of: usize) -> usize {
        if of == 1 {
            return 0;
        }
        if self.at == self.choices.len() {
            self.choices.push((0, of));
        }
        let (taken, recorded) = self.choices[self.at];
        assert_eq!(recorded, of, "a replayed order branched differently");
        self.at += 1;
        taken
    }

    /// `true` iff this order, now past its replayed prefix, reached a
    /// state an earlier order explored: everything after it is explored.
    fn seen_before(&mut self, state: &str) -> bool {
        if self.at < self.replayed {
            return false;
        }
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        !self.seen.insert(h.finish())
    }

    /// Move to the next unexplored order; `false` when none is left.
    fn advance(&mut self) -> bool {
        self.at = 0;
        while let Some((taken, of)) = self.choices.pop() {
            if taken + 1 < of {
                self.choices.push((taken + 1, of));
                self.replayed = self.choices.len();
                return true;
            }
        }
        false
    }
}

/// Everything the rest of a run depends on, as text: the scheduler (its
/// bounds' build time aside), the packs, which rows are stored, the tops
/// and the claims held, as a set.
fn state(
    sched: &Scheduler,
    packs: &LanePacks,
    common: &Common,
    tops: &[TopAlignment],
    held: &[Option<Claim>],
    blocked: bool,
) -> String {
    let mut claims: Vec<String> = held.iter().flatten().map(|c| format!("{c:?}")).collect();
    claims.sort();
    let rows: Vec<bool> = (1..common.input.seq.len())
        .map(|r| common.has_row(r))
        .collect();
    let text = format!("{sched:?}{packs:?}{rows:?}{tops:?}{claims:?}{blocked}");
    // The build time is the one field that differs between replays.
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("build_ns: ") {
        let (head, tail) = rest.split_at(at + "build_ns: ".len());
        out.push_str(head);
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Run one order on `workers` virtual workers and return its tops, or
/// `None` where it joined an explored one.
fn run_order(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    workers: usize,
    script: &mut Script,
) -> Option<Vec<TopAlignment>> {
    let unit = PackUnit::new(ScoredSeq::new(seq, scoring), None);
    let common = Common::new(seq, scoring);
    let mut packs: LanePacks = unit.packs();
    let mut sched = Scheduler::new(&unit, seq, scoring, search);
    let mut triangle = OverrideTriangle::new(seq.len());
    let mut tops: Vec<TopAlignment> = Vec::new();
    let mut stats = Stats::new();
    // The version each unit's score was last settled under (the test's
    // own model of freshness).
    let mut settled_at: Vec<Option<usize>> = vec![None; unit.units()];
    let mut held: Vec<Option<Claim>> = (0..workers).map(|_| None).collect();
    // A claim answered Wait: no free worker may claim until one settles.
    let mut blocked = false;
    // Every decision, pruned pops included, counts against the limit.
    let limit = 8 * (unit.units() + 1) * (COUNT + 1);
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(steps <= limit, "no end after {limit} steps");
        let free = held.iter().position(Option::is_none).filter(|_| !blocked);
        let busy: Vec<usize> = (0..workers).filter(|&w| held[w].is_some()).collect();
        let options = usize::from(free.is_some()) + busy.len();
        assert!(options > 0, "a claim waits on nothing");
        if options > 1 && script.seen_before(&state(&sched, &packs, &common, &tops, &held, blocked))
        {
            return None;
        }
        let pick = script.choose(options);
        if let Some(w) = free.filter(|_| pick == 0) {
            // A claim decides until it claims: pruned pops lower bounds.
            let mut next = sched.next(&mut stats, &triangle, usize::MAX);
            while let Next::Pruned { .. } = next {
                steps += 1;
                assert!(steps <= limit, "no end after {limit} steps");
                next = sched.next(&mut stats, &triangle, usize::MAX);
            }
            match next {
                Next::Pruned { .. } => unreachable!("decided again above"),
                Next::Done => {
                    assert!(busy.is_empty(), "done with claims outstanding");
                    return Some(tops);
                }
                Next::Wait => blocked = true,
                Next::Accept { u, score } => {
                    assert!(
                        !held
                            .iter()
                            .flatten()
                            .any(|c| matches!(c, Claim::Accept { .. })),
                        "two accepts at once"
                    );
                    assert_eq!(settled_at[u], Some(tops.len()), "accept of a stale unit");
                    let (r, best) = packs.best_member(u);
                    assert_eq!(best, score);
                    held[w] = Some(Claim::Accept { r, score });
                }
                Next::Sweep { u, first, bound } => {
                    assert_ne!(
                        settled_at[u],
                        Some(tops.len()),
                        "speculation on a fresh unit"
                    );
                    assert_eq!(first, settled_at[u].is_none());
                    let plan = packs.plan(u, first, &tops);
                    let snapshot = triangle.clone();
                    held[w] = Some(Claim::Sweep {
                        u,
                        bound,
                        plan,
                        snapshot,
                    });
                }
            }
            continue;
        }
        let w = busy[pick - usize::from(free.is_some())];
        blocked = false;
        match held[w].take().expect("a busy worker holds a claim") {
            Claim::Sweep {
                u,
                bound,
                plan,
                snapshot,
            } => {
                let version = plan.version() as usize;
                let swept = (!plan.is_replay()).then(|| unit.sweep(&common, &plan, &snapshot));
                let score = packs.commit(&mut stats, &mut NoopRecorder, plan, swept);
                let queued = sched.settle(u, score, version);
                assert!(
                    queued <= bound,
                    "unit {u} requeued at {queued} above {bound}"
                );
                settled_at[u] = Some(version);
            }
            Claim::Accept { r, score } => {
                let index = tops.len();
                let mut grown = triangle.clone();
                let (top, _) =
                    common
                        .input
                        .accept_task_with_row(r, score, &mut grown, common.row(r), index);
                for &(p, q) in &top.pairs {
                    assert!(!triangle.get(p, q), "pair ({p}, {q}) accepted twice");
                }
                triangle = grown;
                sched.accepted(&top.pairs);
                tops.push(top);
            }
        }
    }
}

/// Every order of every `{A,C}` string of length `2..=max_len` on
/// `workers` workers: the tops equal the sequential engine's. Returns
/// the number of orders run to the end.
fn every_order(max_len: usize, workers: usize, seed: Option<SeedConfig>) -> usize {
    let scoring = Scoring::dna_example();
    let mut orders = 0;
    for len in 2..=max_len {
        for bits in 0..1u32 << len {
            let text: String = (0..len)
                .map(|i| if bits >> i & 1 == 1 { 'C' } else { 'A' })
                .collect();
            let seq = Seq::dna(&text).unwrap();
            let want = find_top_alignments(&seq, &scoring, COUNT).alignments;
            let search = Search {
                seed,
                ..Search::new(COUNT)
            };
            let mut script = Script {
                choices: Vec::new(),
                at: 0,
                replayed: 0,
                seen: HashSet::new(),
            };
            loop {
                if let Some(got) = run_order(&seq, &scoring, &search, workers, &mut script) {
                    assert_eq!(got, want, "{text}, {workers} workers, seed {seed:?}");
                    orders += 1;
                }
                if !script.advance() {
                    break;
                }
            }
        }
    }
    orders
}

/// One worker has one order per string; two and three branch. The
/// lengths are the longest a debug build explores in about ten seconds.
fn every_order_on_one_two_and_three_workers(seed: Option<SeedConfig>, longest: [usize; 3]) {
    let one = every_order(longest[0], 1, seed);
    assert_eq!(one, (2..=longest[0]).map(|len| 1 << len).sum::<usize>());
    for (workers, &len) in [2, 3].into_iter().zip(&longest[1..]) {
        let orders = every_order(len, workers, seed);
        let strings = (2..=len).map(|len| 1 << len).sum::<usize>();
        assert!(orders > strings, "{workers} workers: {orders} orders");
    }
}

#[test]
fn every_claim_order_finds_the_sequential_tops() {
    every_order_on_one_two_and_three_workers(None, [9, 6, 5]);
}

#[test]
fn every_claim_order_finds_the_sequential_tops_seeded() {
    every_order_on_one_two_and_three_workers(Some(SeedConfig::default()), [10, 5, 4]);
}
