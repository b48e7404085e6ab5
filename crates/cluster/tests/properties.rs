//! Property tests: the distributed engine (real threads) and the
//! virtual-time simulator both reproduce the sequential alignments for
//! any worker count, the simulator is deterministic, and the master's
//! retry/reassignment machinery never lets a stale result corrupt the
//! acceptance sequence; every protocol decoder meets a hostile frame
//! with a typed error.

use proptest::prelude::*;
use repro_align::{sw_last_row, Alphabet, Score, Scoring, Seq};
use repro_cluster::protocol::{
    AcceptedMsg, JobMsg, ResultMsg, ResultsMsg, ResyncMsg, TaskItem, TaskMsg, TelemetryMsg, Work,
};
use repro_cluster::{
    run_cluster, simulate_cluster, AlignCache, CostModel, MasterAction, MasterState,
};
use repro_core::{
    find_top_alignments, OverrideTriangle, PackKernel, PackUnit, ScoredSeq, Search, SplitMask,
    Stats,
};
use repro_obs::{Counter, FlightRecorder, Metric, NoopRecorder, Recorder};
use repro_simd::{select, GroupSweeper, LaneWidth};
use repro_xmpi::thread::FaultPlan;
use repro_xmpi::virtual_time::LinkModel;
use repro_xmpi::wire::{frame_checksum, WireError, FRAME_HEADER, FRAME_TRAILER};
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

/// One valid frame of every message kind, the unit-typed ones fitted to
/// `unit`: a batch with a first pass and an attached-rows realignment,
/// a result carrying every member's row, and the four unit-free frames.
fn valid_frames(unit: &PackUnit<impl PackKernel>, seq: &Seq, scoring: &Scoring) -> Vec<Vec<u8>> {
    let last = unit.units() - 1;
    let splits = unit.splits(last);
    let rows: Vec<_> = splits
        .clone()
        .map(|r| (r, vec![3; seq.len() - r]))
        .collect();
    let item = |u, first, rows| TaskItem {
        unit: u,
        attempt: 2,
        first,
        bound: 40,
        rows,
    };
    let items = vec![item(0, true, vec![]), item(last, false, rows.clone())];
    let task = TaskMsg { stamp: 3, items };
    let result = ResultMsg {
        unit: last,
        stamp: 3,
        attempt: 2,
        best: (splits.start, 7),
        rows,
        work: Work::of(&Stats {
            alignments: 2,
            cells: 90,
            ..Stats::default()
        }),
    };
    let job = JobMsg {
        count: 3,
        seq: seq.clone(),
        scoring: scoring.clone(),
        deadline_ms: 10_000,
        checkpoint_budget: Some(1 << 20),
        lanes: LaneWidth::X4,
    };
    let mut rec = FlightRecorder::new();
    rec.add(Counter::GroupSweeps, 5);
    rec.observe(Metric::SweepNs, 1_234);
    rec.observe(Metric::QueueWaitNs, 56);
    let telemetry = TelemetryMsg {
        seq: 9,
        fin: false,
        snap: rec.telemetry_snapshot(),
    };
    vec![
        task.encode(),
        ResultsMsg {
            items: vec![result],
        }
        .encode(),
        AcceptedMsg {
            index: 2,
            pairs: vec![(1, 5), (2, 6)],
        }
        .encode(),
        job.encode(),
        telemetry.encode(),
        ResyncMsg { applied: 4 }.encode(),
    ]
}

/// `frame` with its payload replaced by `payload`, re-sealed: the length
/// word and the checksum trailer are rewritten, so a decoder gets past
/// the frame check and parses the hostile body.
fn reseal(frame: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = frame[..FRAME_HEADER - 4].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out
}

/// Decode `frame` with `decode`: a typed error, or a value whose own
/// encoding decodes back to it.
fn typed_or_round_trips<T: PartialEq + std::fmt::Debug>(
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    if let Ok(value) = decode(frame) {
        prop_assert_eq!(decode(&encode(&value)), Ok(value));
    }
    Ok(())
}

/// Every frame against one unit: the six decoders, each handed every
/// frame (a frame of another kind is one more hostile body).
fn decode_all(unit: &PackUnit<impl PackKernel>, frame: &[u8]) -> Result<(), TestCaseError> {
    typed_or_round_trips(frame, |f| TaskMsg::decode(f, unit), TaskMsg::encode)?;
    typed_or_round_trips(frame, |f| ResultsMsg::decode(f, unit), ResultsMsg::encode)?;
    typed_or_round_trips(frame, AcceptedMsg::decode, AcceptedMsg::encode)?;
    typed_or_round_trips(frame, JobMsg::decode, JobMsg::encode)?;
    typed_or_round_trips(frame, TelemetryMsg::decode, TelemetryMsg::encode)?;
    typed_or_round_trips(frame, ResyncMsg::decode, ResyncMsg::encode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// A valid frame of any kind, fitted to 1-lane or 4-lane packs, with
    /// 1–8 payload bytes overwritten, its payload cut short or extended,
    /// then re-sealed: every decoder, against the units of both widths,
    /// returns a typed error or a value that survives its own round
    /// trip — never a panic.
    #[test]
    fn hostile_frames_decode_typed_or_round_trip(
        kind in 0usize..6,
        built_x4 in any::<bool>(),
        edit in 0u8..3,
        bytes in prop::collection::vec(any::<u8>(), 1..=8),
        at in prop::collection::vec(any::<usize>(), 8),
        cut in any::<usize>(),
    ) {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let rows = PackUnit::new(ScoredSeq::new(&seq, &scoring), None);
        let sel = select(Some(LaneWidth::X4), None).unwrap();
        let packs = PackUnit::new(GroupSweeper::new(&seq, &scoring, sel), None);
        let frames = if built_x4 {
            valid_frames(&packs, &seq, &scoring)
        } else {
            valid_frames(&rows, &seq, &scoring)
        };
        let frame = &frames[kind];
        let mut payload = frame[FRAME_HEADER..frame.len() - FRAME_TRAILER].to_vec();
        match edit {
            0 => {
                let len = payload.len();
                for (&b, &i) in bytes.iter().zip(&at) {
                    payload[i % len] = b;
                }
            }
            1 => payload.truncate(cut % payload.len()),
            _ => payload.extend_from_slice(&bytes),
        }
        let hostile = reseal(frame, &payload);
        decode_all(&rows, &hostile)?;
        decode_all(&packs, &hostile)?;
    }
}
