//! **Real-transport cluster overhead** — wall time of the distributed
//! engine over the in-process simulator vs the real multi-process
//! socket transport, at 2 and 4 workers on a planted-repeat workload.
//!
//! Both transports drive the identical master/worker protocol behind
//! the same `Comm` trait; the only difference is the substrate
//! (lock-free channels vs TCP frames through the wire codec). This
//! binary measures what that substrate costs end to end and asserts
//! the two backends return byte-identical alignments — any divergence
//! aborts the bench, because it would be a transport bug, not a data
//! point.
//!
//! A second, **small-task** leg runs the shape the engine is worst at:
//! one `dna_tandem(25, 12)` sequence, 18 tops, two workers, CLI
//! defaults (seeded pruning, default checkpoint budget) — a few hundred
//! lane-pack tasks of well under a millisecond each, so every frame and
//! every idle round trip shows. It reports the sequential, single-thread
//! SIMD, simulator and socket wall times, the lane alignments and unit
//! tasks settled, how many result frames carried them home, and the
//! socket run's lane alignments over the SIMD engine's.
//!
//! A third, **wire** leg prices the transport itself: the median socket
//! round trip hub → worker → hub for 64-B and 16-KiB messages (a fixed
//! cost and a per-byte cost, and their ratio), and the MB/s of the frame
//! that carries most of the bytes, a first-pass RESULT of one ×16 pack's
//! sixteen bottom rows as stored (`i8` deltas), through the real codec
//! (encode plus decode).
//!
//! Usage: `cargo run --release -p repro-bench --bin cluster_real --
//! [--scale small|medium|full] [--out BENCH_cluster_real.json]
//! [--check]`. Under `--check` the binary additionally exits non-zero
//! if the socket transport exceeds [`MAX_OVERHEAD`]× the simulator's
//! wall time at any worker count, or on the small-task leg
//! [`MAX_SMALL_TASK_OVER_SEQ`]× the sequential engine's, more than
//! [`MAX_RESULT_FRAMES_PER_TASK`] result frames per task or more than
//! [`MAX_LANES_OVER_SIMD`]× the SIMD engine's lane alignments, or when a
//! 16-KiB round trip costs more than [`MAX_ROUNDTRIP_16K_OVER_64`]× a
//! 64-B one — the gates that keep the real transport's overhead and the
//! master's speculation bounded.

use repro::align::StoredRow;
use repro::cluster::protocol::{ResultMsg, Work};
use repro::core::PackUnit;
use repro::obs::json::Json;
use repro::simd::{select, GroupSweeper, LaneWidth};
use repro::xmpi::socket::{SocketHub, SocketPeer};
use repro::xmpi::Comm;
use repro::{Engine, Repro, Scoring, SeedConfig, Seq, Transport};
use repro_bench::{host, secs, time_min, time_min_pair, Scale, Table};
use repro_seqgen::{PlantedRepeats, RepeatKind, RepeatSpec};
use std::time::{Duration, Instant};

/// Maximum socket-over-simulator wall-time ratio tolerated per worker
/// count under `--check`. The socket backend pays for connection
/// setup, frame encode/decode and checksums on every hop, so it is
/// never free — but on a real workload the DP dominates and the
/// transport tax must stay bounded. Generous headroom for CI machines
/// with slow loopback or heavy scheduler noise.
const MAX_OVERHEAD: f64 = 12.0;

/// Maximum socket-over-sequential wall-time ratio tolerated on the
/// small-task leg under `--check`. Two workers on sub-30 µs tasks do
/// not beat one thread here; the gate holds how far behind they may
/// fall. Measured 1.08–1.22× on the 2-vCPU sandbox as a ratio of
/// per-arm minima (1.29–1.46× before workers prefetched a second batch
/// and coalesced result frames); the ceiling leaves the slowest of
/// those 27 % of headroom, which admits the engine before prefetching
/// too: this gate bounds the transport's tax, not the batching.
const MAX_SMALL_TASK_OVER_SEQ: f64 = 1.55;

/// Most RESULT frames per settled lane tolerated on the small-task leg
/// under `--check`. A count, not a time — the same on any host. It was
/// written to notice coalesced result frames gone (wire v4 sent one
/// frame per task; 0.31–0.36 was measured with a batch's results
/// coalesced). Since wire v6 a task is a lane pack and the denominator
/// counts lanes, so this passes by construction and notices nothing:
/// every result travels in a frame of its own (since wire v10 a RESULT
/// frame holds exactly one), and a pack has four or more lanes. The
/// frames per *unit* task are recorded next to it and read 1.00.
const MAX_RESULT_FRAMES_PER_TASK: f64 = 0.5;

/// Most lane alignments the socket run may settle on the small-task leg
/// under `--check`, as a multiple of the single-thread SIMD engine's on
/// the same input: the lanes the master's speculation swept at a stamp
/// an accept then outdated. A count, so the same on any host. Measured
/// ≈ 4.0 with four packs to a batch, ≈ 1.6 with batches bounded in
/// lanes (one pack).
const MAX_LANES_OVER_SIMD: f64 = 2.5;

/// Most a 16-KiB socket round trip may cost, as a multiple of a 64-B one,
/// under `--check`: what the transport pays per byte against what it
/// pays per message. A ratio, so host speed mostly cancels. Measured
/// 4.2–4.6 with the byte-serial FNV-1a frame checksum, a per-element row
/// codec and a reader thread on the worker; 1.6–2.1 with the
/// word-at-a-time checksum, the bulk codec and the worker reading its own
/// socket.
const MAX_ROUNDTRIP_16K_OVER_64: f64 = 3.0;

/// Message sizes of the wire leg's round trips.
const SMALL_MESSAGE: usize = 64;
const LARGE_MESSAGE: usize = 16 * 1024;

/// Least time the small-task leg's arms are given: at 20–30 ms a run,
/// a shorter window leaves a minimum of too few reps to gate on.
const SMALL_TASK_MIN_BUDGET: Duration = Duration::from_millis(600);

/// The small-task leg's numbers.
struct SmallTaskRow {
    residues: usize,
    seq_secs: f64,
    simd_secs: f64,
    sim_secs: f64,
    proc_secs: f64,
    /// Lane alignments the socket run's master settled.
    alignments: u64,
    /// Lane alignments the single-thread SIMD engine made.
    simd_alignments: u64,
    /// RESULT frames the socket run's master decoded, per lane alignment.
    result_frames_per_task: f64,
    /// The same frames per unit task (lane pack) assigned.
    result_frames_per_unit_task: f64,
}

/// One tandem-repeat sequence of small tasks, configured as the CLI
/// configures a run, on one scalar thread, on one SIMD thread, on two
/// simulator workers and on two socket workers.
fn measure_small_tasks(scoring: &Scoring, timing_budget: Duration) -> SmallTaskRow {
    let seq = PlantedRepeats::generate(&RepeatSpec::dna_tandem(25, 12), 7).seq;
    let sequential = Repro::new(scoring.clone())
        .top_alignments(18)
        .checkpoint_budget(Some(repro::align::checkpoint::DEFAULT_CHECKPOINT_BUDGET))
        .seed_config(Some(SeedConfig::new(6)));
    let simd = sequential.clone().engine(Engine::SimdDispatch {
        width: None,
        path: None,
    });
    let sim = sequential.clone().engine(Engine::Cluster { workers: 2 });
    let proc = sim.clone().transport(Transport::Proc);

    let want = sequential.run(&seq);
    let traced = proc.run(&seq);
    let simd_alignments = simd.run(&seq).run.stats.alignments;
    assert_eq!(
        sim.run(&seq).tops.alignments,
        want.tops.alignments,
        "simulator diverged from sequential on the small-task leg"
    );
    assert_eq!(
        traced.tops.alignments, want.tops.alignments,
        "socket transport diverged from sequential on the small-task leg"
    );
    let frames = traced
        .run
        .counters
        .iter()
        .find(|(name, _)| *name == "cluster_result_frames")
        .map_or(0, |&(_, v)| v);

    // The gated ratio's two arms alternate rep by rep.
    let (seq_secs, proc_secs) = time_min_pair(
        timing_budget,
        || {
            std::hint::black_box(sequential.run(&seq));
        },
        || {
            std::hint::black_box(proc.run(&seq));
        },
    );
    let sim_secs = time_min(timing_budget, || {
        std::hint::black_box(sim.run(&seq));
    });
    let simd_secs = time_min(timing_budget, || {
        std::hint::black_box(simd.run(&seq));
    });
    SmallTaskRow {
        residues: seq.len(),
        seq_secs,
        simd_secs,
        sim_secs,
        proc_secs,
        alignments: traced.run.stats.alignments,
        simd_alignments,
        result_frames_per_task: frames as f64 / traced.run.stats.alignments.max(1) as f64,
        result_frames_per_unit_task: frames as f64 / traced.run.stats.stale_pops.max(1) as f64,
    }
}

/// Median µs of a socket round trip, hub → worker → hub, for 64-B and
/// 16-KiB messages, `round_trips` of each.
fn socket_round_trips(round_trips: usize) -> (f64, f64) {
    const ECHO: u32 = 1;
    const WAIT: Duration = Duration::from_secs(5);
    let hub = SocketHub::bind("127.0.0.1:0").expect("bind a loopback hub");
    let addr = hub.addr().to_string();
    let echo = std::thread::spawn(move || {
        let peer = SocketPeer::connect(&addr).expect("join the hub");
        while let Ok(msg) = peer.recv_timeout(WAIT) {
            if msg.tag != ECHO || peer.send(0, ECHO, msg.payload).is_err() {
                return;
            }
        }
    });
    assert_eq!(
        hub.wait_for_workers(1, WAIT),
        1,
        "the echo worker never joined"
    );
    let median_us = |bytes: usize, n: usize| {
        let mut us: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                hub.send(1, ECHO, vec![0x5a; bytes])
                    .expect("echo worker alive");
                let reply = hub.recv_timeout(WAIT).expect("echo within the wait");
                assert_eq!(reply.payload.len(), bytes, "echo returned another message");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(f64::total_cmp);
        us[n / 2]
    };
    median_us(LARGE_MESSAGE, 10); // warm-up
    let small = median_us(SMALL_MESSAGE, round_trips);
    let large = median_us(LARGE_MESSAGE, round_trips);
    let _ = hub.send(1, ECHO + 1, Vec::new());
    echo.join().expect("echo thread does not panic");
    (small, large)
}

/// MB/s of a first-pass RESULT frame through the protocol codec, encode
/// plus decode: sixteen bottom rows the length of `seq`'s first ×16
/// pack's, stored as deltas, the frame that carries most of a cluster
/// run's bytes.
fn row_codec_mbps(seq: &Seq, scoring: &Scoring, budget: Duration) -> f64 {
    let sel = select(Some(LaneWidth::X16), None).expect("a width alone always resolves");
    let packs = PackUnit::new(GroupSweeper::new(seq, scoring, sel), None);
    let m = seq.len();
    let row = |r: usize| StoredRow::encode(&(0..(m - r) as i32).collect::<Vec<_>>());
    let msg = ResultMsg {
        unit: 0,
        stamp: 0,
        attempt: 1,
        best: (1, 0),
        rows: packs.splits(0).map(|r| (r, row(r))).collect(),
        work: Work::default(),
    };
    let bytes = msg.encode().len();
    let secs = time_min(budget, || {
        let back = ResultMsg::decode(&msg.encode(), &packs).expect("codec round trip");
        std::hint::black_box(back);
    });
    bytes as f64 / secs / 1e6
}

struct TransportRow {
    workers: usize,
    sim_secs: f64,
    proc_secs: f64,
    alignments: usize,
    ranks_seen: usize,
}

fn measure(
    seq: &repro::Seq,
    scoring: &Scoring,
    tops: usize,
    workers: usize,
    timing_budget: Duration,
) -> TransportRow {
    let sim = Repro::new(scoring.clone())
        .top_alignments(tops)
        .engine(Engine::Cluster { workers })
        .transport(Transport::Sim);
    let proc = sim.clone().transport(Transport::Proc);

    // One untimed run per transport proves the equivalence claim
    // before any timing happens.
    let sim_analysis = sim.run(seq);
    let proc_analysis = proc.run(seq);
    assert_eq!(
        sim_analysis.tops.alignments, proc_analysis.tops.alignments,
        "socket transport diverged from the simulator at {workers} workers"
    );

    let sim_secs = time_min(timing_budget, || {
        std::hint::black_box(sim.run(seq));
    });
    let proc_secs = time_min(timing_budget, || {
        std::hint::black_box(proc.run(seq));
    });
    TransportRow {
        workers,
        sim_secs,
        proc_secs,
        alignments: sim_analysis.tops.alignments.len(),
        ranks_seen: workers,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_cluster_real.json".to_string());

    let scale = Scale::from_args();
    let (unit, copies, flank, tops, timing_budget, round_trips) = match scale {
        Scale::Small => (12, 3, 40, 4, Duration::from_millis(200), 300),
        Scale::Medium => (20, 4, 120, 6, Duration::from_millis(800), 1000),
        Scale::Full => (30, 6, 300, 10, Duration::from_secs(3), 3000),
    };
    let scoring = Scoring::dna_example();
    let spec = RepeatSpec {
        flank,
        kind: RepeatKind::Interspersed {
            min_spacer: unit / 2,
            max_spacer: unit,
        },
        ..RepeatSpec::dna_tandem(unit, copies)
    };
    let planted = PlantedRepeats::generate(&spec, 7);
    let seq = planted.seq;
    let len = seq.len();

    println!(
        "Cluster transport overhead — planted interspersed repeats \
         ({len} nt: {copies}x{unit} unit, flank {flank}), {tops} top alignments"
    );
    println!("sim = in-process rank threads, proc = real TCP sockets via the worker entry point\n");

    let table = Table::new(&["workers", "sim", "proc (sockets)", "overhead", "alignments"]);
    let mut rows: Vec<TransportRow> = Vec::new();
    for workers in [2usize, 4] {
        let row = measure(&seq, &scoring, tops, workers, timing_budget);
        table.row(&[
            row.workers.to_string(),
            secs(row.sim_secs),
            secs(row.proc_secs),
            format!("{:.2}x", row.proc_secs / row.sim_secs.max(1e-12)),
            row.alignments.to_string(),
        ]);
        rows.push(row);
    }

    let small = measure_small_tasks(&scoring, timing_budget.max(SMALL_TASK_MIN_BUDGET));
    let small_over_seq = small.proc_secs / small.seq_secs.max(1e-12);
    let small_over_simd = small.proc_secs / small.simd_secs.max(1e-12);
    let lanes_over_simd = small.alignments as f64 / small.simd_alignments.max(1) as f64;
    println!(
        "\nSmall tasks — dna_tandem(25, 12) ({} nt), 18 tops, 2 workers, CLI defaults\n",
        small.residues
    );
    let table = Table::new(&[
        "sequential",
        "simd",
        "sim",
        "proc (sockets)",
        "proc / seq",
        "proc / simd",
        "lanes",
        "lanes / simd",
        "frames/lane",
        "frames/unit",
    ]);
    table.row(&[
        secs(small.seq_secs),
        secs(small.simd_secs),
        secs(small.sim_secs),
        secs(small.proc_secs),
        format!("{small_over_seq:.2}x"),
        format!("{small_over_simd:.2}x"),
        small.alignments.to_string(),
        format!("{lanes_over_simd:.2}x"),
        format!("{:.2}", small.result_frames_per_task),
        format!("{:.2}", small.result_frames_per_unit_task),
    ]);

    let (rt_small, rt_large) = socket_round_trips(round_trips);
    let rt_ratio = rt_large / rt_small.max(1e-12);
    let tandem = PlantedRepeats::generate(&RepeatSpec::dna_tandem(25, 12), 7).seq;
    let codec_mbps = row_codec_mbps(&tandem, &scoring, timing_budget);
    println!("\nWire — socket round trips (median of {round_trips}) and the row codec\n");
    let table = Table::new(&["64 B", "16 KiB", "16 KiB / 64 B", "row codec"]);
    table.row(&[
        format!("{rt_small:.1} µs"),
        format!("{rt_large:.1} µs"),
        format!("{rt_ratio:.2}x"),
        format!("{codec_mbps:.0} MB/s"),
    ]);

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("cluster_real".to_string())),
        ("scale".to_string(), Json::Str(format!("{scale:?}"))),
        ("host".to_string(), host()),
        (
            "sequence".to_string(),
            Json::Obj(vec![
                (
                    "kind".to_string(),
                    Json::Str("planted_interspersed_dna".to_string()),
                ),
                ("residues".to_string(), Json::Num(len as f64)),
                ("unit".to_string(), Json::Num(unit as f64)),
                ("copies".to_string(), Json::Num(copies as f64)),
                ("flank".to_string(), Json::Num(flank as f64)),
                ("tops".to_string(), Json::Num(tops as f64)),
            ]),
        ),
        (
            "transports".to_string(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("workers".to_string(), Json::Num(r.workers as f64)),
                            ("sim_secs".to_string(), Json::Num(r.sim_secs)),
                            ("proc_secs".to_string(), Json::Num(r.proc_secs)),
                            (
                                "overhead".to_string(),
                                Json::Num(r.proc_secs / r.sim_secs.max(1e-12)),
                            ),
                            ("alignments".to_string(), Json::Num(r.alignments as f64)),
                            ("identical_to_sim".to_string(), Json::Bool(true)),
                            ("ranks".to_string(), Json::Num(r.ranks_seen as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "small_task".to_string(),
            Json::Obj(vec![
                (
                    "kind".to_string(),
                    Json::Str("dna_tandem_25x12".to_string()),
                ),
                ("residues".to_string(), Json::Num(small.residues as f64)),
                ("tops".to_string(), Json::Num(18.0)),
                ("workers".to_string(), Json::Num(2.0)),
                ("seq_secs".to_string(), Json::Num(small.seq_secs)),
                ("simd_secs".to_string(), Json::Num(small.simd_secs)),
                ("sim_secs".to_string(), Json::Num(small.sim_secs)),
                ("proc_secs".to_string(), Json::Num(small.proc_secs)),
                ("proc_over_seq".to_string(), Json::Num(small_over_seq)),
                ("proc_over_simd".to_string(), Json::Num(small_over_simd)),
                ("alignments".to_string(), Json::Num(small.alignments as f64)),
                (
                    "simd_alignments".to_string(),
                    Json::Num(small.simd_alignments as f64),
                ),
                ("lanes_over_simd".to_string(), Json::Num(lanes_over_simd)),
                (
                    "result_frames_per_task".to_string(),
                    Json::Num(small.result_frames_per_task),
                ),
                (
                    "result_frames_per_unit_task".to_string(),
                    Json::Num(small.result_frames_per_unit_task),
                ),
            ]),
        ),
        (
            "wire".to_string(),
            Json::Obj(vec![
                ("round_trips".to_string(), Json::Num(round_trips as f64)),
                ("socket_roundtrip_64_us".to_string(), Json::Num(rt_small)),
                ("socket_roundtrip_16k_us".to_string(), Json::Num(rt_large)),
                ("roundtrip_16k_over_64".to_string(), Json::Num(rt_ratio)),
                ("row_codec_mbps".to_string(), Json::Num(codec_mbps)),
            ]),
        ),
    ]);
    let mut text = doc.to_string_compact();
    text.push('\n');
    std::fs::write(&out, text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");

    if check {
        let mut ok = true;
        for r in &rows {
            let overhead = r.proc_secs / r.sim_secs.max(1e-12);
            if overhead > MAX_OVERHEAD {
                eprintln!(
                    "CHECK FAIL: socket transport at {} workers is {overhead:.2}x \
                     the simulator (limit {MAX_OVERHEAD}x)",
                    r.workers
                );
                ok = false;
            }
        }
        if small_over_seq > MAX_SMALL_TASK_OVER_SEQ {
            eprintln!(
                "CHECK FAIL: two socket workers on small tasks take {small_over_seq:.2}x \
                 the sequential engine (limit {MAX_SMALL_TASK_OVER_SEQ}x)"
            );
            ok = false;
        }
        if small.result_frames_per_task > MAX_RESULT_FRAMES_PER_TASK {
            eprintln!(
                "CHECK FAIL: {:.2} result frames per task on small tasks \
                 (limit {MAX_RESULT_FRAMES_PER_TASK}): results are not coalesced",
                small.result_frames_per_task
            );
            ok = false;
        }
        if lanes_over_simd > MAX_LANES_OVER_SIMD {
            eprintln!(
                "CHECK FAIL: two socket workers on small tasks align {lanes_over_simd:.2}x \
                 the lanes of one SIMD thread (limit {MAX_LANES_OVER_SIMD}x): \
                 speculation is no longer bounded in lanes"
            );
            ok = false;
        }
        if rt_ratio > MAX_ROUNDTRIP_16K_OVER_64 {
            eprintln!(
                "CHECK FAIL: a 16-KiB socket round trip costs {rt_ratio:.2}x a 64-B one \
                 (limit {MAX_ROUNDTRIP_16K_OVER_64}x): the wire pays too much per byte"
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check passed: socket overhead within {MAX_OVERHEAD}x of the simulator at every \
             worker count, within {MAX_SMALL_TASK_OVER_SEQ}x of sequential, at most \
             {MAX_RESULT_FRAMES_PER_TASK} result frames per task and within \
             {MAX_LANES_OVER_SIMD}x the SIMD engine's lanes on small tasks, and a 16-KiB \
             round trip within {MAX_ROUNDTRIP_16K_OVER_64}x a 64-B one"
        );
    }
}
