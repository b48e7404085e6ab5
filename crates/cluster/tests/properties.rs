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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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
                    MasterAction::WorkerDead { .. } => {}
                    MasterAction::Retry { .. } => unreachable!("this world has no clock"),
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

proptest! {
    // One case is a few hundred virtual-time events and no threads.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pure master over a virtual-time network that drops,
    /// duplicates and delays deliveries both ways, with workers that
    /// fall silent for a while or crash for good, driven only through
    /// `heard` and `tick`: every run reaches Done with the sequential
    /// tops, no retransmission names anything but a live assignment,
    /// retransmissions back off as the timeouts say, and no worker heard
    /// within the liveness window is written off.
    #[test]
    fn lossy_virtual_time_never_retransmits_settled_work_or_kills_a_heard_worker(
        seq in arb_dna(18),
        count in 1usize..4,
        workers in 1usize..4,
        chaos in prop::collection::vec(any::<u8>(), 64..256),
    ) {
        lossy_world(&seq, count, workers, &chaos);
    }
}

/// A message in the virtual network of [`lossy_world`].
#[derive(Clone)]
enum Msg {
    Task(TaskMsg),
    Accepted(AcceptedMsg),
    Idle(usize),
    Result(ResultMsg),
    Resync(usize),
    /// A worker's own beacon timer.
    Beacon,
}

/// The virtual network of [`lossy_world`], and its adversary: it drops
/// one copy in eight, duplicates one in eight and delays every copy by
/// 1 to 113 ms, about twice the first retry timeout. A worker's beacon
/// timer always fires on time.
struct Net<I> {
    chaos: I,
    /// Deliveries by time, then by the order they were posted.
    queue: BinaryHeap<Reverse<(Duration, u64)>>,
    msgs: HashMap<u64, (usize, usize, Msg)>,
    posted: u64,
    beacon: Duration,
}

impl<I: Iterator<Item = u8>> Net<I> {
    fn post(&mut self, at: Duration, from: usize, to: usize, msg: Msg) {
        let b = self.chaos.next().unwrap();
        let timer = matches!(msg, Msg::Beacon);
        let copies = match b % 8 {
            _ if timer => 1,
            0 => 0,
            1 => 2,
            _ => 1,
        };
        for k in 0..copies {
            let delay = match timer {
                true => self.beacon,
                false => Duration::from_millis(1 + u64::from(b / 8 % 8) * 16 + k),
            };
            self.posted += 1;
            self.msgs.insert(self.posted, (from, to, msg.clone()));
            self.queue.push(Reverse((at + delay, self.posted)));
        }
    }
}

/// A worker of [`lossy_world`]: a replica, its first-pass rows, the items
/// waiting for acceptances it has not applied, and its health.
struct LossyWorker {
    triangle: OverrideTriangle,
    applied: usize,
    pairs: Vec<Vec<(usize, usize)>>,
    rows: HashMap<usize, Vec<Score>>,
    waiting: Vec<(usize, TaskItem)>,
    silent_until: Duration,
    crashed: bool,
}

/// An assignment in flight as the transport saw it go out.
struct Shipped {
    worker: usize,
    stamp: usize,
    item: TaskItem,
    /// When it went out or was last retransmitted, and how often it was.
    last: Duration,
    retries: u32,
}

/// What an honest worker answers for `item` on its replica: a first pass
/// is one clean sweep (exact under version 0 when an accepted alignment
/// straddles the split), a realignment masks the stored row.
fn answer(seq: &Seq, scoring: &Scoring, w: &mut LossyWorker, item: &TaskItem) -> ResultMsg {
    let r = item.unit + 1;
    let (prefix, suffix) = seq.split(r);
    let last = sw_last_row(prefix, suffix, scoring, SplitMask::new(&w.triangle, r));
    for (q, row) in &item.rows {
        w.rows.insert(*q, row.clone());
    }
    let mut stamp = w.applied;
    let (score, rows) = if item.first {
        let clean = sw_last_row(prefix, suffix, scoring, repro_align::NoMask);
        if w.triangle.iter().any(|(p, q)| p < r && r <= q) {
            stamp = 0;
        }
        w.rows.insert(r, clean.row.clone());
        (clean.best_in_row, vec![(r, clean.row)])
    } else {
        let orig = w.rows.get(&r).expect("a realignment finds its row");
        (
            repro_core::bottom::best_valid_entry_counted(&last.row, orig).0,
            Vec::new(),
        )
    };
    ResultMsg {
        unit: item.unit,
        stamp,
        attempt: item.attempt,
        best: (r, score),
        rows,
        work: Work::of(&Stats {
            alignments: 1,
            cells: last.cells,
            ..Stats::default()
        }),
    }
}

/// One run of the property above. Rank 0 is the master, ranks
/// `1..=workers` the workers; the last worker only ever falls silent,
/// so the run can always finish.
fn lossy_world(seq: &Seq, count: usize, workers: usize, chaos: &[u8]) {
    use repro_cluster::master::{LIVENESS, RETRY_BASE, RETRY_CAP};
    use std::collections::BTreeMap;
    let ms = Duration::from_millis;
    let beacon = ms(40);
    let scoring = Scoring::dna_example();
    let want = find_top_alignments(seq, &scoring, count);
    let mut master = MasterState::new(seq, &scoring, &Search::new(count));
    let mut ws: Vec<LossyWorker> = (0..=workers)
        .map(|_| LossyWorker {
            triangle: OverrideTriangle::new(seq.len()),
            applied: 0,
            pairs: Vec::new(),
            rows: HashMap::new(),
            waiting: Vec::new(),
            silent_until: Duration::ZERO,
            crashed: false,
        })
        .collect();
    let mut net = Net {
        chaos: chaos.iter().copied().cycle(),
        queue: BinaryHeap::new(),
        msgs: HashMap::new(),
        posted: 0,
        beacon,
    };
    for w in 1..=workers {
        net.post(Duration::ZERO, w, w, Msg::Beacon);
    }

    let mut shipped: BTreeMap<usize, Shipped> = BTreeMap::new();
    let mut heard: HashMap<usize, Duration> = HashMap::new();
    let (mut broadcasts, mut retries, mut done) = (0usize, 0u64, false);
    let mut now = Duration::ZERO;
    let mut actions: VecDeque<MasterAction> = VecDeque::new();
    while !done {
        prop_assert!(
            now < Duration::from_secs(120),
            "no Done after 120 s of virtual time"
        );
        // Carry out what the master asked, checking each retransmission
        // against the assignment the transport saw go out.
        while let Some(action) = actions.pop_front() {
            let (worker, task) = match &action {
                &MasterAction::Assign { worker, ref task } => {
                    for item in &task.items {
                        let old = shipped.insert(
                            item.unit,
                            Shipped {
                                worker,
                                stamp: task.stamp,
                                item: item.clone(),
                                last: now,
                                retries: 0,
                            },
                        );
                        prop_assert!(old.is_none(), "unit {} assigned twice", item.unit);
                    }
                    (worker, task)
                }
                &MasterAction::Retry {
                    worker,
                    ref task,
                    retries: n,
                } => {
                    let item = &task.items[0];
                    let Some(s) = shipped.get_mut(&item.unit) else {
                        panic!("retransmitted unit {} is not assigned", item.unit);
                    };
                    prop_assert_eq!(
                        (s.worker, s.stamp, &s.item),
                        (worker, task.stamp, item),
                        "a retransmission re-ships its assignment"
                    );
                    let wait = RETRY_BASE
                        .saturating_mul(1 << (n - 1).min(20))
                        .min(RETRY_CAP);
                    prop_assert_eq!(
                        (n, now - s.last),
                        (s.retries + 1, wait),
                        "backoff of unit {}",
                        item.unit
                    );
                    (s.last, s.retries) = (now, n);
                    (worker, task)
                }
                &MasterAction::WorkerDead { worker } => {
                    shipped.retain(|_, s| s.worker != worker);
                    continue;
                }
                MasterAction::Broadcast(acc) => {
                    prop_assert_eq!(acc.index, broadcasts, "a top accepted twice or skipped");
                    broadcasts += 1;
                    for w in 1..=workers {
                        net.post(now, 0, w, Msg::Accepted(acc.clone()));
                    }
                    continue;
                }
                MasterAction::Done => {
                    done = true;
                    continue;
                }
            };
            if ws[worker].crashed {
                // The send fails: the transport writes the worker off.
                actions.extend(master.worker_dead(worker));
            } else {
                retries += u64::from(matches!(action, MasterAction::Retry { .. }));
                net.post(now, 0, worker, Msg::Task(task.clone()));
                master.sent(&action, now);
            }
        }
        if done {
            break;
        }
        if master.live_workers() == 0 && !heard.is_empty() {
            // Every registered worker is written off: finish locally.
            actions.extend(master.finish_locally());
            prop_assert!(matches!(actions.back(), Some(MasterAction::Done)));
            continue;
        }
        // Advance the clock to the next delivery or retry deadline.
        let Some(&Reverse((at, id))) = net.queue.peek() else {
            panic!("the network went quiet");
        };
        now = master.next_deadline().map_or(at, |d| d.min(at)).max(now);
        for action in master.tick(now) {
            if let MasterAction::WorkerDead { worker } = action {
                let quiet = heard.get(&worker).is_none_or(|&h| now - h >= LIVENESS);
                prop_assert!(quiet, "worker {} written off while heard", worker);
            }
            actions.push_back(action);
        }
        if at > now || !actions.is_empty() {
            continue;
        }
        net.queue.pop();
        let (from, to, msg) = net.msgs.remove(&id).expect("posted");
        if to == 0 {
            master.heard(from, now);
            heard.insert(from, now);
            match msg {
                Msg::Idle(slot) => actions.extend(master.worker_idle(from, slot)),
                Msg::Result(res) => {
                    if shipped
                        .get(&res.unit)
                        .is_some_and(|s| s.worker == from && s.item.attempt == res.attempt)
                    {
                        shipped.remove(&res.unit);
                    }
                    actions.extend(master.result(from, res));
                }
                Msg::Resync(have) => {
                    for acc in master.accepted_since(have) {
                        net.post(now, 0, from, Msg::Accepted(acc));
                    }
                }
                _ => unreachable!("workers send no such thing"),
            }
            continue;
        }
        let w = &mut ws[to];
        let b = net.chaos.next().unwrap();
        if w.crashed || now < w.silent_until {
            if matches!(msg, Msg::Beacon) && !w.crashed {
                net.post(now, to, to, Msg::Beacon);
            }
            continue;
        }
        let mut out = Vec::new();
        match msg {
            Msg::Beacon => {
                if b % 32 == 0 && to < workers {
                    w.crashed = true;
                } else if b % 16 == 1 {
                    w.silent_until = now + ms(100 * u64::from(b % 8 + 1));
                } else if w.waiting.is_empty() {
                    out.extend([Msg::Idle(0), Msg::Idle(1)]);
                } else {
                    out.push(Msg::Resync(w.applied));
                }
                net.post(now, to, to, Msg::Beacon);
            }
            Msg::Task(task) => w
                .waiting
                .extend(task.items.into_iter().map(|item| (task.stamp, item))),
            Msg::Accepted(acc) if acc.index == w.applied => {
                for &(p, q) in &acc.pairs {
                    w.triangle.set(p, q);
                }
                w.pairs.push(acc.pairs);
                w.applied += 1;
            }
            Msg::Accepted(acc) if acc.index > w.applied => out.push(Msg::Resync(w.applied)),
            Msg::Accepted(_) => {} // a duplicate
            _ => unreachable!("the master sends no such thing"),
        }
        // Run every item the replica has caught up with.
        let (ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut w.waiting)
            .into_iter()
            .partition(|&(s, _)| s <= w.applied);
        w.waiting = later;
        for (_, item) in ready {
            out.push(Msg::Result(answer(seq, &scoring, w, &item)));
        }
        for m in out {
            net.post(now, to, 0, m);
        }
    }
    prop_assert_eq!(master.stats().cluster_retries, retries);
    let tops = master.into_result().alignments;
    prop_assert_eq!(&tops, &want.alignments);
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
