//! Property tests: the distributed engine (real threads) and the
//! virtual-time simulator both reproduce the sequential alignments for
//! any worker count, the simulator is deterministic, and the master's
//! retry/reassignment machinery never lets a stale result corrupt the
//! acceptance sequence.

use proptest::prelude::*;
use repro_align::{sw_last_row, Alphabet, Score, Scoring, Seq};
use repro_cluster::protocol::{ResultMsg, TaskItem, Work};
use repro_cluster::{
    run_cluster, simulate_cluster, AlignCache, CostModel, MasterAction, MasterState,
};
use repro_core::{find_top_alignments, OverrideTriangle, Search, SplitMask, Stats};
use repro_obs::NoopRecorder;
use repro_xmpi::thread::FaultPlan;
use repro_xmpi::virtual_time::LinkModel;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

fn arb_dna(max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 2..=max).prop_map(|codes| Seq::from_codes(Alphabet::Dna, codes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn threads_backend_matches_sequential(
        seq in arb_dna(28),
        count in 1usize..5,
        workers in 1usize..4,
    ) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let got = run_cluster(
            &seq, &scoring, &Search::new(count), workers, Duration::from_secs(30),
            FaultPlan::default(), &mut NoopRecorder,
        ).expect("lossless in-process run cannot stall");
        prop_assert_eq!(&got.result.alignments, &want.alignments);
    }

    #[test]
    fn simulator_matches_sequential_and_is_deterministic(
        seq in arb_dna(28),
        count in 1usize..5,
        procs in 2usize..8,
    ) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let run = || simulate_cluster(
            &seq, &scoring, count, procs,
            CostModel::das2(), LinkModel::default(),
            &want.stats, Rc::new(RefCell::new(AlignCache::new())),
        );
        let a = run();
        let b = run();
        prop_assert_eq!(&a.result.alignments, &want.alignments);
        prop_assert_eq!(a.virtual_time, b.virtual_time);
        prop_assert_eq!(a.messages, b.messages);
        prop_assert!(a.virtual_time > 0.0 || want.alignments.is_empty());
    }

    /// Under arbitrary worker deaths, task reassignments, zombie
    /// deliveries with *inflated* scores, and duplicated results, the
    /// master accepts exactly the sequential alignments. This is the
    /// stamp/attempt safety argument as an executable property: a
    /// result from a superseded attempt must never be re-admitted as a
    /// "fresh" score, no matter how tempting its value looks.
    #[test]
    fn reassignment_never_reaccepts_a_stale_score(
        seq in arb_dna(20),
        count in 1usize..4,
        chaos in prop::collection::vec(any::<u8>(), 96),
    ) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let mut master = MasterState::new(&seq, &scoring, &Search::new(count));
        let mut chaos = chaos.into_iter().cycle();

        // Honest worker replicas, kept in lockstep with the master's
        // broadcasts (worker-side stamp deferral is exercised by the
        // thread-backend tests; here the adversary is the scheduler).
        // `lockstep` mirrors the overrides broadcast so far: a worker
        // registering mid-run starts from it, as a real worker would
        // after its initial resync — an empty replica would honestly
        // compute scores that are inflated relative to its stamp.
        let mut lockstep = OverrideTriangle::new(seq.len());
        let mut triangles: HashMap<usize, OverrideTriangle> = HashMap::new();
        let mut caches: HashMap<usize, HashMap<usize, Vec<Score>>> = HashMap::new();
        // Assignments arrive as batches sharing one stamp; the scheduler
        // adversary interleaves them item by item.
        let mut pending: VecDeque<(usize, usize, TaskItem)> = VecDeque::new();
        // Results computed by workers that died before delivering them;
        // replayed later as zombie traffic with wildly inflated scores.
        let mut zombies: Vec<(usize, ResultMsg)> = Vec::new();

        fn compute(
            seq: &Seq,
            scoring: &Scoring,
            triangle: &OverrideTriangle,
            cache: &mut HashMap<usize, Vec<Score>>,
            stamp: usize,
            task: &TaskItem,
        ) -> ResultMsg {
            let r = task.unit + 1;
            let (prefix, suffix) = seq.split(r);
            let mask = SplitMask::new(triangle, r);
            let last = sw_last_row(prefix, suffix, scoring, mask);
            let (score, shadow_rejections, first_row) = if task.first {
                cache.insert(r, last.row.clone());
                (last.best_in_row, 0, Some(last.row))
            } else {
                if let Some((_, row)) = task.rows.first() {
                    cache.insert(r, row.clone());
                }
                let orig = cache.get(&r).expect("realignment without a row");
                let (score, _, shadows) =
                    repro_core::bottom::best_valid_entry_counted(&last.row, orig);
                (score, shadows, None)
            };
            ResultMsg {
                unit: task.unit,
                stamp,
                attempt: task.attempt,
                best: (r, score),
                rows: first_row.map(|row| vec![(r, row)]).unwrap_or_default(),
                work: Work::of(&Stats {
                    alignments: 1,
                    cells: last.cells,
                    shadow_rejections,
                    ..Stats::default()
                }),
            }
        }

        let mut next_worker = 1usize;
        let mut actions: Vec<MasterAction> = Vec::new();
        for _ in 0..2 {
            triangles.insert(next_worker, OverrideTriangle::new(seq.len()));
            caches.insert(next_worker, HashMap::new());
            actions.extend(master.worker_idle(next_worker, 0));
            next_worker += 1;
        }

        let mut steps = 0u32;
        'world: loop {
            steps += 1;
            prop_assert!(steps < 20_000, "master livelocked");
            for a in actions.drain(..) {
                match a {
                    MasterAction::Assign { worker, task } => {
                        for item in task.items {
                            pending.push_back((worker, task.stamp, item));
                        }
                    }
                    MasterAction::Broadcast(acc) => {
                        for &(p, q) in &acc.pairs {
                            lockstep.set(p, q);
                        }
                        for t in triangles.values_mut() {
                            for &(p, q) in &acc.pairs {
                                t.set(p, q);
                            }
                        }
                    }
                    MasterAction::Done => break 'world,
                }
            }
            let Some((w, stamp, task)) = pending.pop_front() else {
                // Nothing honest in flight: replay zombie traffic, which
                // must be inert — then the world has truly stalled.
                let Some((zw, res)) = zombies.pop() else {
                    prop_assert!(false, "master stalled without Done");
                    unreachable!();
                };
                actions = master.result(zw, res);
                continue;
            };
            match chaos.next().unwrap() % 4 {
                // The worker dies mid-task. Its computed-but-undelivered
                // result becomes a zombie (score poisoned upward so any
                // acceptance of it would corrupt the alignments), its
                // other in-flight tasks are reassigned, and a fresh
                // replacement worker registers.
                0 if triangles.len() > 1 => {
                    let mut res = compute(
                        &seq, &scoring, &triangles[&w], caches.get_mut(&w).unwrap(), stamp, &task,
                    );
                    res.best.1 = res.best.1.saturating_add(1_000_000);
                    zombies.push((w, res));
                    triangles.remove(&w);
                    caches.remove(&w);
                    pending.retain(|(pw, _, _)| *pw != w);
                    actions = master.worker_dead(w);
                    triangles.insert(next_worker, lockstep.clone());
                    caches.insert(next_worker, HashMap::new());
                    actions.extend(master.worker_idle(next_worker, 0));
                    next_worker += 1;
                }
                // The transport duplicates the delivery: the second copy
                // echoes a settled attempt and must be discarded.
                1 => {
                    let res = compute(
                        &seq, &scoring, &triangles[&w], caches.get_mut(&w).unwrap(), stamp, &task,
                    );
                    actions = master.result(w, res.clone());
                    let mut dup = res;
                    dup.best.1 = dup.best.1.saturating_add(1_000_000); // corrupt copy
                    actions.extend(master.result(w, dup));
                }
                // Honest delivery.
                _ => {
                    let res = compute(
                        &seq, &scoring, &triangles[&w], caches.get_mut(&w).unwrap(), stamp, &task,
                    );
                    actions = master.result(w, res);
                }
            }
        }
        prop_assert_eq!(
            &master.into_result().alignments, &want.alignments,
            "stale or zombie traffic corrupted the acceptance sequence"
        );
    }

    /// The shared cache never changes results, only work.
    #[test]
    fn cache_reuse_is_transparent(seq in arb_dna(24), count in 1usize..4) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let cache = Rc::new(RefCell::new(AlignCache::new()));
        let first = simulate_cluster(
            &seq, &scoring, count, 3, CostModel::das2(), LinkModel::default(),
            &want.stats, Rc::clone(&cache),
        );
        let second = simulate_cluster(
            &seq, &scoring, count, 5, CostModel::das2(), LinkModel::default(),
            &want.stats, Rc::clone(&cache),
        );
        prop_assert_eq!(&first.result.alignments, &want.alignments);
        prop_assert_eq!(&second.result.alignments, &want.alignments);
    }
}
