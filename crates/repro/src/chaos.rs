//! Deterministic chaos schedules for fault-tolerance testing.
//!
//! A [`ChaosSchedule`] is a seeded, fully reproducible world: a
//! generated sequence, a worker count, and a [`FaultPlan`] injecting
//! message drops, duplicates, delivery delays, payload corruption or a
//! whole-rank crash. [`run_schedule`] executes the distributed engine
//! under that plan ([`run_schedule_proc`] over sockets,
//! [`run_schedule_hybrid`] on a cluster of two-CPU nodes) and
//! classifies the outcome against the sequential engine:
//!
//! * **identical** — the run completed and its alignments are exactly
//!   the sequential ones (the recovery layer healed every fault);
//! * **typed error** — the run failed cleanly with a
//!   [`ClusterError`], which is only legitimate when the fault plan
//!   crashed the *master's* own endpoint;
//! * anything else — diverged alignments, or an error in a survivable
//!   world — is reported as a harness failure.
//!
//! Hangs are excluded by construction: the engine's master loop and the
//! workers both watch the overall deadline, so a run can stall but
//! never block forever. The chaos test (`crates/repro/tests/chaos.rs`)
//! and the `chaos` bench binary both consume this module, so the sweep
//! they run is the same.

use crate::{find_top_alignments, Alphabet, Scoring, Search, Seq};
use repro_cluster::{
    run_cluster, run_cluster_proc, run_hybrid, ClusterError, ClusterResult, ProcOptions,
};
use repro_obs::NoopRecorder;
use repro_xmpi::socket::ProxyFaults;
use repro_xmpi::thread::FaultPlan;
use std::time::Duration;

/// One seeded fault world.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// The generating seed (replay key).
    pub seed: u64,
    /// Worker ranks (rank 0 is the master).
    pub workers: usize,
    /// Top alignments to search for.
    pub count: usize,
    /// The generated input sequence.
    pub seq: Seq,
    /// The injected faults.
    pub faults: FaultPlan,
    /// Human-readable fault summary, e.g. `drop(3)` or `crash(rank 0 @2)`.
    pub label: String,
}

/// Outcome of a schedule that behaved correctly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Completed with exactly the sequential alignments.
    Identical,
    /// Failed cleanly with a typed error (legitimate only for
    /// master-crash schedules; [`run_schedule`] enforces that).
    TypedError(ClusterError),
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The schedule for `seed`. Deterministic: the same seed always yields
/// the same world, so failures replay exactly.
pub fn schedule(seed: u64) -> ChaosSchedule {
    let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xdead_beef_cafe_f00d;
    let r = |rng: &mut u64, bound: u64| splitmix(rng) % bound;

    let workers = 1 + r(&mut rng, 3) as usize;
    let count = 2 + r(&mut rng, 3) as usize;
    let len = 12 + 4 * r(&mut rng, 5) as usize;
    let codes: Vec<u8> = (0..len).map(|_| r(&mut rng, 4) as u8).collect();
    let seq = Seq::from_codes(Alphabet::Dna, codes);

    // Every 13th seed crashes the master itself — the one fault class
    // that must surface as a typed error rather than be healed.
    let (faults, label) = if seed % 13 == 12 {
        let after = r(&mut rng, 6);
        (
            FaultPlan {
                crash_rank: Some(0),
                crash_after_sends: after,
                ..FaultPlan::default()
            },
            format!("crash(rank 0 @{after})"),
        )
    } else {
        match seed % 6 {
            0 => {
                let every = 2 + r(&mut rng, 4);
                (
                    FaultPlan {
                        drop_every: every,
                        ..FaultPlan::default()
                    },
                    format!("drop({every})"),
                )
            }
            1 => {
                let every = 2 + r(&mut rng, 6);
                (
                    FaultPlan {
                        dup_every: every,
                        ..FaultPlan::default()
                    },
                    format!("dup({every})"),
                )
            }
            2 => {
                let every = 2 + r(&mut rng, 4);
                let ms = 20 + r(&mut rng, 60);
                (
                    FaultPlan {
                        delay_every: every,
                        delay: Duration::from_millis(ms),
                        ..FaultPlan::default()
                    },
                    format!("delay({every}, {ms}ms)"),
                )
            }
            3 => {
                let every = 2 + r(&mut rng, 5);
                (
                    FaultPlan {
                        corrupt_every: every,
                        ..FaultPlan::default()
                    },
                    format!("corrupt({every})"),
                )
            }
            4 => {
                let rank = 1 + r(&mut rng, workers as u64) as usize;
                let after = 1 + r(&mut rng, 10);
                (
                    FaultPlan {
                        crash_rank: Some(rank),
                        crash_after_sends: after,
                        ..FaultPlan::default()
                    },
                    format!("crash(rank {rank} @{after})"),
                )
            }
            _ => {
                let d = 4 + r(&mut rng, 4);
                let u = 4 + r(&mut rng, 4);
                let c = 4 + r(&mut rng, 4);
                (
                    FaultPlan {
                        drop_every: d,
                        dup_every: u,
                        corrupt_every: c,
                        ..FaultPlan::default()
                    },
                    format!("drop({d})+dup({u})+corrupt({c})"),
                )
            }
        }
    };
    ChaosSchedule {
        seed,
        workers,
        count,
        seq,
        faults,
        label,
    }
}

/// The first `n` schedules, in seed order.
pub fn schedules(n: u64) -> impl Iterator<Item = ChaosSchedule> {
    (0..n).map(schedule)
}

/// Run one schedule with the given overall deadline and classify it.
/// `Err` means the harness caught a real defect: diverged alignments,
/// or a typed error in a world the engine should have survived.
pub fn run_schedule(s: &ChaosSchedule, deadline: Duration) -> Result<ChaosOutcome, String> {
    let search = Search::new(s.count);
    let (seq, scoring, faults) = (&s.seq, &Scoring::dna_example(), s.faults);
    let got = run_cluster(
        seq,
        scoring,
        &search,
        s.workers,
        deadline,
        faults,
        &mut NoopRecorder,
    );
    classify(s, got, "")
}

/// [`run_schedule`] on the cluster of SMPs: `s.workers` nodes of two
/// CPUs each (the master's node lends it one), with the plan injected on
/// every node's endpoint — a crashed rank takes its whole node down.
pub fn run_schedule_hybrid(s: &ChaosSchedule, deadline: Duration) -> Result<ChaosOutcome, String> {
    let search = Search::new(s.count);
    let (seq, scoring, faults) = (&s.seq, &Scoring::dna_example(), s.faults);
    let rec = &mut NoopRecorder;
    let got = run_hybrid(seq, scoring, &search, s.workers, 2, deadline, faults, rec);
    classify(s, got, " on two-CPU nodes")
}

/// Classify `got`, the run of `s` (`how` it ran, for the message),
/// against the sequential engine: identical alignments, or a typed error
/// where the plan crashed the master.
fn classify(
    s: &ChaosSchedule,
    got: Result<ClusterResult, ClusterError>,
    how: &str,
) -> Result<ChaosOutcome, String> {
    let want = find_top_alignments(&s.seq, &Scoring::dna_example(), s.count);
    match got {
        Ok(got) if got.result.alignments == want.alignments => Ok(ChaosOutcome::Identical),
        Ok(_) => Err(format!(
            "seed {}: alignments diverged from sequential under {}{how} \
             ({} workers, {} residues)",
            s.seed,
            s.label,
            s.workers,
            s.seq.len(),
        )),
        Err(e) if s.faults.crash_rank == Some(0) => Ok(ChaosOutcome::TypedError(e)),
        Err(e) => Err(format!(
            "seed {}: '{e}' under {}{how} — a survivable world must not error",
            s.seed, s.label,
        )),
    }
}

/// Translate a simulator [`FaultPlan`] into its socket-level twin for
/// the multi-process backend: `(proxy faults, whole-world severance)`.
///
/// Frame faults (drop/dup/delay/corrupt) map one-to-one — the proxy
/// keys them off per-direction frame counters exactly as the simulator
/// keys message counters. Rank-crash faults become connection
/// severance: a worker crash cuts each relayed connection after the
/// same frame count (the socket analogue of a process dying mid-run).
/// A **master** crash cannot be injected into the calling process, so
/// it is reinterpreted as whole-world severance — every worker torn
/// off at once — which the engine must survive via local fallback.
pub fn socket_faults(plan: &FaultPlan) -> (ProxyFaults, Option<Duration>) {
    let faults = ProxyFaults {
        drop_every: plan.drop_every,
        dup_every: plan.dup_every,
        delay_every: plan.delay_every,
        delay: plan.delay,
        corrupt_every: plan.corrupt_every,
        sever_after: match plan.crash_rank {
            Some(rank) if rank > 0 => plan.crash_after_sends.max(1),
            _ => 0,
        },
    };
    let sever_all_after = if plan.crash_rank == Some(0) || plan.crash_workers_after != 0 {
        let after = plan.crash_after_sends.max(plan.crash_workers_after);
        Some(Duration::from_millis(30 + 20 * after))
    } else {
        None
    };
    (faults, sever_all_after)
}

/// [`run_schedule`] over the real multi-process transport: the same
/// seeded world, with its fault plan translated by [`socket_faults`]
/// and injected at the socket level through a fault proxy. Master-crash
/// schedules run as whole-world severance here (see [`socket_faults`]),
/// so for those either a healed identical result *or* a typed error is
/// legitimate; every other schedule must heal to identical.
pub fn run_schedule_proc(s: &ChaosSchedule, deadline: Duration) -> Result<ChaosOutcome, String> {
    let (faults, sever_all_after) = socket_faults(&s.faults);
    let opts = ProcOptions {
        faults,
        sever_all_after,
        ..ProcOptions::default()
    };
    let (search, scoring, rec) = (
        Search::new(s.count),
        Scoring::dna_example(),
        &mut NoopRecorder,
    );
    let got = run_cluster_proc(&s.seq, &scoring, &search, s.workers, deadline, &opts, rec);
    classify(s, got, " over sockets")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        for seed in [0, 7, 12, 41] {
            let a = schedule(seed);
            let b = schedule(seed);
            assert_eq!(a.seq.codes(), b.seq.codes());
            assert_eq!(a.label, b.label);
            assert_eq!(a.workers, b.workers);
        }
    }

    #[test]
    fn sweep_covers_every_fault_class() {
        let labels: Vec<String> = schedules(50).map(|s| s.label).collect();
        for kind in ["drop(", "dup(", "delay(", "corrupt(", "crash(rank 0", "+"] {
            assert!(
                labels.iter().any(|l| l.contains(kind)),
                "no schedule of kind {kind} in the first 50: {labels:?}"
            );
        }
    }
}
