//! Property test: the shared-memory engine is schedule-independent —
//! any thread count produces exactly the sequential alignments.

use proptest::prelude::*;
use repro_align::{Alphabet, Scoring, Seq};
use repro_core::{find_top_alignments, Search};
use repro_obs::{Counter, FlightRecorder};
use repro_parallel::find_top_alignments_parallel;

fn arb_dna(max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 0..=max).prop_map(|codes| Seq::from_codes(Alphabet::Dna, codes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_thread_count_matches_sequential(
        seq in arb_dna(32),
        count in 1usize..6,
        threads in 1usize..5,
    ) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let mut rec = FlightRecorder::new();
        let got =
            find_top_alignments_parallel(&seq, &scoring, &Search::new(count), threads, &mut rec);
        prop_assert_eq!(&got.alignments, &want.alignments,
            "{} threads diverged on {}", threads, seq);
        // A single worker must be speculation-free (that it does the
        // sequential engine's work count for count is `engines_agree`'s
        // `one_worker_is_the_sequential_engine_count_for_count`).
        if threads == 1 {
            prop_assert_eq!(rec.counter(Counter::SupersededWork), 0);
        }
    }
}
