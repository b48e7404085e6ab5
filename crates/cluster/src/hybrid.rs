//! The hybrid configuration of paper §4.3: a cluster of SMPs.
//!
//! "Although it is possible to start multiple independent processes on
//! a single shared-memory multi-processor that communicate through MPI,
//! this wastes much memory ... Therefore, we run multiple threads on
//! each SMP that share these data structures. A small complication is
//! that thread support is not integrated with our MPI implementation,
//! therefore we protect all MPI calls with a mutex. If the master
//! processor resides on a SMP, the other processors are regular
//! slaves."
//!
//! Mapping here: one rank per *node*; rank 0 is the sacrificed master
//! CPU; rank 1 is the rest of the master's SMP (running one fewer
//! sweep thread); ranks 2.. are full SMP nodes. A node is the cluster
//! engine's worker ([`crate::engine`]) with one sweep thread per CPU:
//! the threads share the override-triangle replica, the lane packs'
//! memos and checkpoints and the bottom-row cache, and take turns on the
//! node's single endpoint behind a mutex — exactly the paper's
//! structure. The node announces two capacity **slots** per thread, so
//! one rank offers several units of capacity without the master
//! confusing a re-announced IDLE with extra CPUs.
//!
//! The master side is the same recovery loop as [`crate::run_cluster`]
//! (retransmission, liveness, reassignment, local fallback), so a dead
//! node's work migrates to the surviving nodes.

use crate::engine::{run_ranks, ClusterError, ClusterResult};
use repro_align::{Scoring, Seq};
use repro_core::Search;
use repro_obs::Recorder;
use repro_xmpi::thread::FaultPlan;
use std::time::Duration;

/// Run the cluster-of-SMPs configuration: `nodes` multi-CPU nodes with
/// `threads_per_node` CPUs each; one CPU of node 0 is the master, so
/// `nodes × threads_per_node − 1` sweep threads do alignment work. The
/// result counts one rank per node plus the master.
///
/// Tasks are lane packs, exactly as in [`crate::run_cluster`]: a node's
/// threads sweep them with the group kernel, share the packs' lane
/// memos and checkpoints under the node's lock (with
/// `search.checkpoint_budget` set), and ship the node's telemetry home.
/// `search.seed`, `deadline`, `faults` and `rec` act exactly as there:
/// the master owns the only seed index, pruned packs are never assigned
/// to any node, a crashed rank takes its whole node down, and the
/// recorder sees the same structured event stream. Alignments are
/// bit-identical with either layer on or off.
#[allow(clippy::too_many_arguments)] // the cluster signature plus the node shape
pub fn run_hybrid<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    nodes: usize,
    threads_per_node: usize,
    deadline: Duration,
    faults: FaultPlan,
    rec: &mut R,
) -> Result<ClusterResult, ClusterError> {
    assert!(nodes >= 1, "need at least the master's node");
    assert!(threads_per_node >= 1, "nodes need at least one CPU");
    assert!(
        nodes * threads_per_node >= 2,
        "need at least one worker CPU besides the master"
    );
    // Node 0 of the cluster (rank 1) lost one CPU to the master.
    let threads: Vec<usize> = (0..nodes)
        .map(|node| threads_per_node - usize::from(node == 0))
        .collect();
    run_ranks(seq, scoring, search, &threads, deadline, faults, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::three_copies;
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::NoopRecorder;

    const DL: Duration = Duration::from_secs(20);

    /// A run under `search` on `nodes` × `tpn` CPUs, nothing recorded.
    fn hybrid(
        seq: &Seq,
        scoring: &Scoring,
        search: Search,
        nodes: usize,
        tpn: usize,
    ) -> ClusterResult {
        let faults = FaultPlan::default();
        run_hybrid(
            seq,
            scoring,
            &search,
            nodes,
            tpn,
            DL,
            faults,
            &mut NoopRecorder,
        )
        .expect("in-process hybrid cannot stall")
    }

    #[test]
    fn hybrid_matches_sequential() {
        let scoring = Scoring::dna_example();
        for text in ["ATGCATGCATGC", "ACGGTACGGTAACGGTTTTTACGGT"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 4);
            for (nodes, tpn) in [(1, 2), (2, 2), (3, 2), (2, 3)] {
                let got = hybrid(&seq, &scoring, Search::new(4), nodes, tpn);
                assert_eq!(
                    got.result.alignments, want.alignments,
                    "{nodes} nodes × {tpn} CPUs on {text}"
                );
                assert_eq!(got.ranks, nodes + 1);
            }
        }
    }

    #[test]
    fn master_only_node_plus_full_nodes() {
        // threads_per_node = 1: the master's node contributes no workers.
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        let got = hybrid(&seq, &scoring, Search::new(5), 3, 1);
        assert_eq!(got.result.alignments, want.alignments);
        assert_eq!(got.ranks, 4);
    }

    #[test]
    fn protein_hybrid() {
        let seq = Seq::protein("MGEKALVPYRLQHCMGEKALVPYRWWMGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let want = find_top_alignments(&seq, &scoring, 4);
        let got = hybrid(&seq, &scoring, Search::new(4), 2, 2);
        assert_eq!(got.result.alignments, want.alignments);
    }

    #[test]
    fn checkpointed_matches_plain_and_skips_rows() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        // The hit guard runs only where the inline `simd` engine with the
        // same budget hits too (see the engine's test). A memo hits only
        // on the node whose packs swept it: on the bare core (three ×16
        // packs) the one-thread node hits in every run, three threads on
        // two nodes in most; on three motif copies, both shapes hit.
        let scoring = Scoring::dna_example();
        for (text, hits_up_to) in [(text, 1), (three_copies(), 3)] {
            let seq = Seq::dna(&text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 6);
            for budget in [Some(0), Some(1 << 20)] {
                for (nodes, tpn) in [(1, 2), (2, 2)] {
                    let search = Search {
                        checkpoint_budget: budget,
                        ..Search::new(6)
                    };
                    let got = hybrid(&seq, &scoring, search, nodes, tpn);
                    assert_eq!(
                        got.result.alignments, want.alignments,
                        "budget {budget:?}, {nodes}×{tpn} on {text}"
                    );
                    let s = &got.result.stats;
                    if budget == Some(0) {
                        assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                        assert_eq!(s.realign_rows_skipped, 0);
                        assert!(s.checkpoint_misses > 0);
                    } else {
                        if nodes * tpn - 1 <= hits_up_to {
                            let what = format!("{nodes}×{tpn} on {text}");
                            assert!(s.checkpoint_hits > 0, "{what}: expected hits");
                        }
                        assert!(s.realign_rows_skipped > 0, "{nodes}×{tpn} on {text}");
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_matches_unpruned_and_prunes() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 2);
        let search = Search {
            seed: Some(SeedConfig::default()),
            ..Search::new(2)
        };
        for (nodes, tpn) in [(1, 2), (2, 2)] {
            let got = hybrid(&seq, &scoring, search, nodes, tpn);
            assert_eq!(
                got.result.alignments, want.alignments,
                "seeded {nodes}×{tpn}"
            );
            // Which splits two racing workers leave unswept depends on the
            // schedule; only the one-worker config prunes deterministically.
            if (nodes, tpn) == (1, 2) {
                assert!(got.result.stats.splits_pruned > 0, "{nodes}×{tpn}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn single_cpu_world_is_rejected() {
        let seq = Seq::dna("ATGC").unwrap();
        let _ = hybrid(&seq, &Scoring::dna_example(), Search::new(1), 1, 1);
    }
}
