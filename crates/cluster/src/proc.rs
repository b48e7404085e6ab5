//! The multi-process backend: the same master/worker protocol as
//! [`crate::engine`], but over real TCP sockets
//! ([`repro_xmpi::socket`]) with workers living in their own OS
//! processes (or, for library tests, their own threads — the transport
//! is identical either way, only process isolation differs).
//!
//! The master binds a [`SocketHub`], stores the **job description**
//! ([`JobMsg`]: sequence, scoring, deadline, checkpoint budget, lane
//! width) as a greeting the hub replays to every joiner, spawns workers
//! pointed at the hub's address, and then runs the exact same recovery
//! loop as the thread backend. Workers are **elastic**: any process
//! that connects — at startup or mid-run — is admitted, handed the job,
//! and registers with the master through its first IDLE beacon; any
//! worker that disconnects is declared dead by the first failed send
//! and its in-flight work is reassigned. When the last worker dies, the
//! master degrades to local computation, so the answer is still exactly
//! the sequential one.
//!
//! A worker process is launched in one of two ways:
//!
//! * [`SpawnMode::Thread`] — `socket_worker` on an in-process thread.
//!   Everything travels over real sockets; this is what the library
//!   tests use (no binary required).
//! * [`SpawnMode::CurrentExe`] — re-exec the current executable with
//!   [`WORKER_ENV`] set to the hub address. The binary's `main` must
//!   call [`maybe_run_worker_from_env`] before doing anything else;
//!   the CLI does.
//!
//! Chaos for this backend is socket-level: pass
//! [`ProxyFaults`] in [`ProcOptions::faults`] and the workers are
//! routed through a [`FaultProxy`] that drops, duplicates, delays and
//! corrupts whole frames and severs connections;
//! [`ProcOptions::sever_all_after`] cuts every connection at once (the
//! whole-world-death fault).

use crate::engine::{cluster_sel, worker_loop, ClusterError, ClusterResult};
use crate::master::MasterState;
use crate::protocol::{tag, JobMsg};
use crate::recovery::{master_loop, RecoveryConfig};
use parking_lot::Mutex;
use repro_align::{Scoring, Seq};
use repro_core::{PackUnit, Search};
use repro_obs::Recorder;
use repro_simd::{select, GroupSweeper};
use repro_xmpi::socket::{ConnectError, FaultProxy, ProxyFaults, SocketHub, SocketPeer};
use repro_xmpi::{Comm, RecvError};
use std::convert::Infallible;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable a re-exec'd worker process reads the hub
/// address from (see [`maybe_run_worker_from_env`]).
pub const WORKER_ENV: &str = "REPRO_WORKER_CONNECT";

/// How long a freshly connected worker waits for its [`JobMsg`]
/// greeting before giving up. The greeting is sent twice back to back
/// (two consecutive frames cannot both be multiples of any
/// `drop_every >= 2`), so under chaos at least one copy normally
/// survives; a worker that still never hears a job exits cleanly and
/// the master heals around it.
const JOB_WAIT: Duration = Duration::from_secs(5);

/// How workers are brought up by [`run_cluster_proc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnMode {
    /// Run [`socket_worker`] on an in-process thread. The transport is
    /// fully real (TCP through the loopback); only process isolation
    /// is skipped. The mode library tests use.
    Thread,
    /// Re-exec the current executable with [`WORKER_ENV`] set. The
    /// executable's `main` must call [`maybe_run_worker_from_env`]
    /// first, or the child will run a whole second copy of the program
    /// instead of a worker.
    CurrentExe,
}

/// Knobs for a multi-process run.
#[derive(Debug, Clone, Copy)]
pub struct ProcOptions {
    /// How workers are launched.
    pub spawn: SpawnMode,
    /// Socket-level fault plan; anything non-clean routes all workers
    /// through a [`FaultProxy`].
    pub faults: ProxyFaults,
    /// Spawn one extra worker this long into the run — the elastic
    /// mid-run joiner. With `workers == 0` this is the only worker.
    pub late_join_after: Option<Duration>,
    /// Cut every worker connection at once this long into the run (the
    /// whole-world-death fault; forces a proxy even with clean faults).
    pub sever_all_after: Option<Duration>,
}

impl Default for ProcOptions {
    fn default() -> Self {
        ProcOptions {
            spawn: SpawnMode::Thread,
            faults: ProxyFaults::default(),
            late_join_after: None,
            sever_all_after: None,
        }
    }
}

/// Failure modes of a worker-process entry point.
#[derive(Debug)]
pub enum WorkerError {
    /// Could not reach (or was rejected by) the hub — including a
    /// typed wire-version mismatch.
    Connect(ConnectError),
    /// Admitted, but no job description arrived within the join wait
    /// (`JOB_WAIT`), or the hub vanished first.
    NoJob,
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Connect(e) => write!(f, "worker could not join the hub: {e}"),
            WorkerError::NoJob => write!(f, "worker joined but never received a job"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// The worker-process body: connect to the hub at `addr`, wait for the
/// job greeting, then run the standard [`crate::engine`] worker loop
/// over the socket until DONE (or the master goes silent past the
/// job's deadline), sweeping the job's lane packs on this process's
/// best path at the job's width.
pub fn socket_worker(addr: &str) -> Result<(), WorkerError> {
    let peer = SocketPeer::connect(addr).map_err(WorkerError::Connect)?;
    let job_deadline = Instant::now() + JOB_WAIT;
    let job = loop {
        match peer.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) if msg.tag == tag::JOB => {
                if let Ok(job) = JobMsg::decode(&msg.payload) {
                    break job;
                }
                // Corrupted on the wire; the duplicate greeting follows.
            }
            Ok(msg) if msg.tag == tag::DONE => return Ok(()), // run already over
            Ok(_) => {} // pre-job traffic (a stray broadcast): ignore
            Err(RecvError::Timeout) => {
                if Instant::now() >= job_deadline {
                    return Err(WorkerError::NoJob);
                }
            }
            Err(RecvError::Disconnected) => return Err(WorkerError::NoJob),
        }
    };
    let deadline = Duration::from_millis(job.deadline_ms.max(1));
    let sel = select(Some(job.lanes), None).expect("a width alone always resolves");
    let sweeper = GroupSweeper::new(&job.seq, &job.scoring, sel);
    let packs = PackUnit::new(sweeper, job.checkpoint_budget);
    worker_loop(packs, &job.seq, &job.scoring, peer, deadline, 1);
    Ok(())
}

/// Binary hook for [`SpawnMode::CurrentExe`]: if [`WORKER_ENV`] is
/// set, run [`socket_worker`] against it and return `true` (the caller
/// should then exit); otherwise return `false` and proceed as the
/// normal program. Call this first thing in `main`.
pub fn maybe_run_worker_from_env() -> bool {
    let Ok(addr) = std::env::var(WORKER_ENV) else {
        return false;
    };
    let _ = socket_worker(&addr);
    true
}

/// How long [`reap`] waits for what a run started to end on its own.
const REAP_WAIT: Duration = Duration::from_secs(3);

/// Held by every thread a run starts until its closure returns: [`reap`]
/// sees the channel close when the last one has.
type Exit = Sender<Infallible>;

/// Everything a run starts besides its master: worker processes, worker
/// and helper threads, and what stops a helper still waiting.
#[derive(Default)]
struct Spawned {
    children: Vec<Child>,
    threads: Vec<JoinHandle<()>>,
    stops: Vec<Sender<Infallible>>,
}

/// Run `body` on a thread recorded for [`reap`].
fn spawn_thread(spawned: &Mutex<Spawned>, exit: &Exit, body: impl FnOnce() + Send + 'static) {
    let exit = exit.clone();
    let thread = std::thread::spawn(move || {
        let _exit = exit;
        body();
    });
    spawned.lock().threads.push(thread);
}

/// Run `action` on a helper thread `after` into the run, unless the run
/// ends first.
fn spawn_later(
    spawned: &Mutex<Spawned>,
    exit: &Exit,
    after: Duration,
    action: impl FnOnce() + Send + 'static,
) {
    let (stop, wait) = mpsc::channel();
    spawned.lock().stops.push(stop);
    spawn_thread(spawned, exit, move || {
        if let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(after) {
            action();
        }
    });
}

/// Launch one worker, recorded for [`reap`].
fn spawn_worker(mode: SpawnMode, addr: &str, spawned: &Mutex<Spawned>, exit: &Exit) {
    match mode {
        SpawnMode::Thread => {
            let addr = addr.to_string();
            spawn_thread(spawned, exit, move || {
                let _ = socket_worker(&addr);
            });
        }
        SpawnMode::CurrentExe => {
            let Ok(exe) = std::env::current_exe() else {
                return;
            };
            if let Ok(child) = Command::new(exe)
                .env(WORKER_ENV, addr)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
            {
                spawned.lock().children.push(child);
            }
        }
    }
}

/// End what a run started, within [`REAP_WAIT`]: stop the helpers still
/// waiting, wait until every thread's closure has returned (`exited`
/// closes; the caller has dropped its own sender) and join each thread,
/// then let worker processes exit on their own (they get DONE, or see
/// the hub close) before killing stragglers. A thread still running at
/// the deadline is left detached and reported, never waited on forever.
fn reap(spawned: &Mutex<Spawned>, exited: Receiver<Infallible>) {
    let deadline = Instant::now() + REAP_WAIT;
    drop(std::mem::take(&mut spawned.lock().stops));
    let all_out = matches!(
        exited.recv_timeout(REAP_WAIT),
        Err(RecvTimeoutError::Disconnected)
    );
    let Spawned {
        children: mut kids,
        threads,
        ..
    } = std::mem::take(&mut *spawned.lock());
    let mut detached = 0;
    for thread in threads {
        if !all_out && !thread.is_finished() {
            detached += 1;
        } else if let Err(panic) = thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
    if detached > 0 {
        eprintln!(
            "repro: {detached} cluster thread(s) still running after {REAP_WAIT:?}; left detached"
        );
    }
    for child in kids.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}

/// Run the distributed engine over real sockets: the multi-process
/// entry point. `workers` processes are spawned up front (see
/// [`ProcOptions::spawn`]); more may join late and any may die — the
/// run completes with exactly the sequential alignments regardless, or
/// fails typed. `ranks` in the result counts every worker ever
/// admitted, so elastic joins are visible to the caller.
///
/// A task is a lane pack at the width [`crate::run_cluster`] picks; the
/// width and `search.checkpoint_budget` ship to every worker inside the
/// job greeting; `search.seed` stays on the master, which builds the
/// only seed index and sends per-task bounds inside its
/// [`crate::protocol::TaskMsg`]s.
pub fn run_cluster_proc<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    workers: usize,
    deadline: Duration,
    opts: &ProcOptions,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    assert!(
        workers >= 1 || opts.late_join_after.is_some(),
        "need at least one worker, initial or late-joining"
    );
    let hub = SocketHub::bind("127.0.0.1:0").map_err(|_| ClusterError::Stalled)?;
    let sel = cluster_sel();
    let job = JobMsg {
        count: search.count,
        seq: seq.clone(),
        scoring: scoring.clone(),
        deadline_ms: deadline.as_millis() as u64,
        checkpoint_budget: search.checkpoint_budget,
        lanes: sel.width,
    };
    let payload = job.encode();
    // The job greeting rides twice back to back: two consecutive
    // frames cannot both be multiples of any drop_every >= 2, so no
    // periodic loss schedule can strand a joiner without its job.
    hub.add_greeting(tag::JOB, &payload);
    hub.add_greeting(tag::JOB, &payload);

    let proxy = if opts.faults.is_clean() && opts.sever_all_after.is_none() {
        None
    } else {
        let p = FaultProxy::spawn(hub.addr(), opts.faults).map_err(|_| ClusterError::Stalled)?;
        Some(Arc::new(p))
    };
    let connect_addr = proxy.as_ref().map_or(hub.addr(), |p| p.addr()).to_string();

    let (exit, exited) = mpsc::channel();
    let spawned = Arc::new(Mutex::new(Spawned::default()));
    for _ in 0..workers {
        spawn_worker(opts.spawn, &connect_addr, &spawned, &exit);
    }
    if let Some(after) = opts.late_join_after {
        let (addr, mode) = (connect_addr.clone(), opts.spawn);
        let (kids, late) = (Arc::clone(&spawned), exit.clone());
        spawn_later(&spawned, &exit, after, move || {
            spawn_worker(mode, &addr, &kids, &late)
        });
    }
    if let (Some(after), Some(p)) = (opts.sever_all_after, proxy.as_ref()) {
        let p = Arc::clone(p);
        spawn_later(&spawned, &exit, after, move || p.sever_all());
    }

    rec.phase_start(repro_obs::Phase::Recovery);
    let config = RecoveryConfig::with_overall(deadline);
    // Start with the workers asked for: one pack could finish before the second joins.
    hub.wait_for_workers(workers, config.join_grace);
    let packs = PackUnit::new(
        GroupSweeper::new(seq, scoring, sel),
        search.checkpoint_budget,
    );
    let master = MasterState::with_unit(packs, seq, scoring, search);
    let result = master_loop(master, &hub, config, rec);
    rec.phase_end(repro_obs::Phase::Recovery);

    // Every admitted worker counts toward `ranks`, late joiners
    // included. Closing the hub before reaping drops every worker
    // connection, so processes that missed DONE still exit promptly.
    let ranks = hub.size();
    drop(hub);
    drop(proxy);
    drop(exit);
    reap(&spawned, exited);

    result.map(|r| ClusterResult { result: r, ranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{island, three_copies};
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::{Counter, FlightRecorder, NoopRecorder};

    const DL: Duration = Duration::from_secs(20);

    #[test]
    fn proc_transport_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for workers in [1, 2] {
            let got = run_cluster_proc(
                &seq,
                &scoring,
                &Search::new(3),
                workers,
                DL,
                &ProcOptions::default(),
                &mut NoopRecorder,
            )
            .unwrap();
            assert_eq!(
                got.result.alignments, want.alignments,
                "{workers} socket workers disagree with sequential"
            );
            assert_eq!(got.ranks, workers + 1);
        }
    }

    #[test]
    fn late_joiner_is_admitted_and_does_the_work() {
        // Zero workers at startup; the only worker joins 100ms into
        // the run — before the master's join grace expires. The run
        // must finish through that worker, not the local fallback.
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let mut rec = FlightRecorder::new();
        let got = run_cluster_proc(
            &seq,
            &scoring,
            &Search::new(4),
            0,
            DL,
            &ProcOptions {
                late_join_after: Some(Duration::from_millis(100)),
                ..ProcOptions::default()
            },
            &mut rec,
        )
        .unwrap();
        assert_eq!(got.result.alignments, want.alignments);
        assert_eq!(got.ranks, 2, "exactly the one late joiner was admitted");
        assert_eq!(
            rec.counter(Counter::ClusterLocalFallbacks),
            0,
            "the joiner, not the fallback, must have finished the run"
        );
    }

    #[test]
    fn checkpointed_job_ships_over_the_wire() {
        // The job description (with its checkpoint budget and lane
        // width) travels in the greeting frame; worker-side incremental
        // tallies travel home in result frames and land in the master's
        // stats. (Two workers on the bare core's three ×16 packs hit a
        // memo only by chance; on three motif copies, every run hits.)
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let scoring = Scoring::dna_example();
        for (text, hits) in [(text, false), (three_copies(), true)] {
            let seq = Seq::dna(&text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 6);
            let search = Search {
                checkpoint_budget: Some(1 << 20),
                ..Search::new(6)
            };
            let opts = ProcOptions::default();
            let mut rec = FlightRecorder::new();
            let got = run_cluster_proc(&seq, &scoring, &search, 2, DL, &opts, &mut rec).unwrap();
            assert_eq!(got.result.alignments, want.alignments);
            if hits {
                assert!(got.result.stats.checkpoint_hits > 0);
            }
            assert!(got.result.stats.realign_rows_skipped > 0);
            // The workers' lane counters ride the telemetry channel home.
            for c in [Counter::GroupSweeps, Counter::LanesActive] {
                assert!(
                    rec.counter(c) > 0,
                    "worker {} must survive the socket transport",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn seeded_proc_matches_sequential_and_prunes() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        // Four of the five ×16 packs go out in the first speculative
        // wave; the island's packs outnumber it (see the engine's
        // pruning test).
        let scoring = Scoring::dna_example();
        for (seq, prunes) in [(Seq::dna(&text).unwrap(), false), (island(), true)] {
            let want = find_top_alignments(&seq, &scoring, 2);
            let search = Search {
                seed: Some(SeedConfig::default()),
                ..Search::new(2)
            };
            let opts = ProcOptions::default();
            let got =
                run_cluster_proc(&seq, &scoring, &search, 2, DL, &opts, &mut NoopRecorder).unwrap();
            assert_eq!(got.result.alignments, want.alignments);
            if prunes {
                assert!(
                    got.result.stats.splits_pruned > 0,
                    "socket workers must never see pruned splits"
                );
            }
        }
    }

    #[test]
    fn socket_duplicates_are_absorbed() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = run_cluster_proc(
            &seq,
            &scoring,
            &Search::new(4),
            2,
            DL,
            &ProcOptions {
                faults: ProxyFaults {
                    dup_every: 5,
                    ..ProxyFaults::default()
                },
                ..ProcOptions::default()
            },
            &mut NoopRecorder,
        )
        .expect("duplicated frames must be absorbed by attempt dedup");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn socket_loss_and_corruption_heal() {
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = run_cluster_proc(
            &seq,
            &scoring,
            &Search::new(4),
            2,
            DL,
            &ProcOptions {
                faults: ProxyFaults {
                    drop_every: 7,
                    corrupt_every: 9,
                    ..ProxyFaults::default()
                },
                ..ProcOptions::default()
            },
            &mut NoopRecorder,
        )
        .expect("loss and corruption must be healed by retransmission");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn severed_connections_are_healed_around() {
        // Every relayed connection dies after 40 frames in one
        // direction: mid-run worker deaths. The master reassigns and,
        // once the pool is gone, finishes locally — the result is the
        // sequential one either way.
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = run_cluster_proc(
            &seq,
            &scoring,
            &Search::new(4),
            2,
            DL,
            &ProcOptions {
                faults: ProxyFaults {
                    sever_after: 40,
                    ..ProxyFaults::default()
                },
                ..ProcOptions::default()
            },
            &mut NoopRecorder,
        )
        .expect("severed workers must be healed around");
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn whole_world_death_degrades_to_local_fallback_quickly() {
        // Satellite audit: all workers dying at the same instant must
        // terminate promptly via local fallback, never hang out the
        // full deadline.
        let seq = Seq::dna(&"ATGC".repeat(8)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 4);
        let start = Instant::now();
        let got = run_cluster_proc(
            &seq,
            &scoring,
            &Search::new(4),
            2,
            Duration::from_secs(60),
            &ProcOptions {
                sever_all_after: Some(Duration::from_millis(150)),
                ..ProcOptions::default()
            },
            &mut NoopRecorder,
        )
        .expect("whole-world death must degrade to local computation");
        assert_eq!(got.result.alignments, want.alignments);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "must not idle out the 60s budget"
        );
    }
}
