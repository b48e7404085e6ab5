//! Chaos harness: sweep ≥50 seeded fault schedules — message drops,
//! duplicates, delivery delays, payload corruption, worker crashes and
//! master crashes, across worker counts and sequence lengths — and
//! assert every one ends in a byte-identical-to-sequential result or a
//! clean typed error. Never a hang: the engine's deadline bounds every
//! run, and these tests use a deadline far above any observed runtime
//! so a deadline expiry is itself a failure signal (it would surface as
//! an unexpected `Stalled`).
//!
//! Schedules come from `repro::chaos`, which derives everything from
//! the seed — a failing seed replays exactly. The sweep is split into
//! chunks so the test runner can drive schedules in parallel.

use repro::chaos::{
    run_schedule, run_schedule_hybrid, run_schedule_proc, schedule, schedules, ChaosOutcome,
    ChaosSchedule,
};
use std::time::Duration;

/// Far above any observed schedule runtime (worst observed is a few
/// seconds under drop_every=2); hitting it means the engine truly
/// wedged and turns the hang into a typed, diagnosable failure.
const DEADLINE: Duration = Duration::from_secs(45);

/// Total sweep size (the issue asks for at least 50).
const SWEEP: u64 = 56;
const CHUNKS: u64 = 4;

type Runner = fn(&ChaosSchedule, Duration) -> Result<ChaosOutcome, String>;

/// Chunk `chunk` of the sweep through `run`: (identical, typed errors).
fn sweep_chunk(chunk: u64, run: Runner, deadline: Duration) -> (u32, u32) {
    let per = SWEEP / CHUNKS;
    let (mut identical, mut typed) = (0, 0);
    for s in (chunk * per..(chunk + 1) * per).map(schedule) {
        match run(&s, deadline) {
            Ok(ChaosOutcome::Identical) => identical += 1,
            Ok(ChaosOutcome::TypedError(_)) => typed += 1,
            Err(defect) => panic!("{defect}"),
        }
    }
    (identical, typed)
}

fn run_chunk(chunk: u64) -> (u32, u32) {
    sweep_chunk(chunk, run_schedule, DEADLINE)
}

#[test]
fn chaos_sweep_chunk_0() {
    let (identical, _) = run_chunk(0);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_chunk_1() {
    let (identical, _) = run_chunk(1);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_chunk_2() {
    let (identical, _) = run_chunk(2);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_chunk_3() {
    let (identical, _) = run_chunk(3);
    assert!(identical > 0);
}

/// Overall budget for the socket sweep. Tighter than the simulator's:
/// when a heavily-delayed link cannot carry the run to completion in
/// time, the master degrades to local computation — which still yields
/// the identical result, so a smaller budget only bounds wall time.
const DEADLINE_PROC: Duration = Duration::from_secs(20);

fn run_chunk_proc(chunk: u64) -> (u32, u32) {
    sweep_chunk(chunk, run_schedule_proc, DEADLINE_PROC)
}

#[test]
fn chaos_sweep_sockets_chunk_0() {
    let (identical, _) = run_chunk_proc(0);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_sockets_chunk_1() {
    let (identical, _) = run_chunk_proc(1);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_sockets_chunk_2() {
    let (identical, _) = run_chunk_proc(2);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_sockets_chunk_3() {
    let (identical, _) = run_chunk_proc(3);
    assert!(identical > 0);
}

/// The same seeded worlds on the cluster of SMPs: `s.workers` nodes of
/// two CPUs, the master's node lending it one.
fn run_chunk_hybrid(chunk: u64) -> (u32, u32) {
    sweep_chunk(chunk, run_schedule_hybrid, DEADLINE)
}

#[test]
fn chaos_sweep_hybrid_chunk_0() {
    let (identical, _) = run_chunk_hybrid(0);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_hybrid_chunk_1() {
    let (identical, _) = run_chunk_hybrid(1);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_hybrid_chunk_2() {
    let (identical, _) = run_chunk_hybrid(2);
    assert!(identical > 0);
}

#[test]
fn chaos_sweep_hybrid_chunk_3() {
    let (identical, _) = run_chunk_hybrid(3);
    assert!(identical > 0);
}

/// The sweep is not vacuous: it contains every fault class, schedules
/// that *must* heal (everything but a master crash), and at least one
/// master-crash schedule whose typed error is the only error the whole
/// sweep may produce.
#[test]
fn sweep_shape_is_meaningful() {
    let all: Vec<_> = schedules(SWEEP).collect();
    assert!(all.len() >= 50);
    let master_crashes = all
        .iter()
        .filter(|s| s.faults.crash_rank == Some(0))
        .count();
    assert!(master_crashes >= 2, "sweep must exercise master loss");
    assert!(
        all.len() - master_crashes >= 50,
        "at least 50 survivable schedules"
    );
    for s in &all {
        assert!(!s.faults.is_clean(), "seed {} injects nothing", s.seed);
        assert!(s.workers >= 1 && s.count >= 1 && s.seq.len() >= 12);
    }
}

/// A crashed master is reported as `ClusterError::MasterDead`, not as a
/// stall — run one such schedule explicitly and check the variant.
#[test]
fn master_crash_schedules_yield_the_typed_error() {
    let s = schedules(SWEEP)
        .find(|s| s.faults.crash_rank == Some(0) && s.faults.crash_after_sends == 0)
        .unwrap_or_else(|| {
            // No immediate-crash seed in range: take any master crash.
            schedules(SWEEP)
                .find(|s| s.faults.crash_rank == Some(0))
                .expect("sweep contains a master crash")
        });
    match run_schedule(&s, DEADLINE) {
        Ok(ChaosOutcome::TypedError(e)) => {
            assert_eq!(e, repro::ClusterError::MasterDead, "seed {}", s.seed)
        }
        Ok(ChaosOutcome::Identical) => {
            // Legitimate when the master finished its work before its
            // crash_after_sends budget was spent.
        }
        Err(defect) => panic!("{defect}"),
    }
}
