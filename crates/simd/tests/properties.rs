//! Property tests: the lane vectors obey their scalar element oracle
//! on arbitrary inputs, and the interleaved group kernel and the group
//! engine are exact drop-ins for their scalar counterparts on
//! arbitrary inputs, masks, lane counts and group positions.

use proptest::prelude::*;
use repro_align::{sw_last_row, Alphabet, Score, Scoring, Seq};
use repro_core::{find_top_alignments, OverrideTriangle, Search, SplitMask};
use repro_obs::NoopRecorder;
use repro_simd::group::align_group;
use repro_simd::lanes::{
    I16x16, I16x4, I16x8, I32x16, I32x4, I32x8, NativeI16x4, NativeI16x8, SimdElem, SimdVec,
};
use repro_simd::{
    find_top_alignments_simd, pack_fits_i16, select, DispatchPath, GroupResume, GroupSweeper,
    LaneResume, LaneWidth,
};

/// Check every `SimdVec` operation of `V` against the scalar element
/// oracle ([`SimdElem`]'s `vadd`/`vsub` and `Ord::max`), lane by lane.
/// The portable types are defined *via* the element ops, so for them this is a consistency check; for
/// the `core::arch` types it proves the intrinsics implement the same
/// semantics (saturating `i16`, wrapping `i32`).
fn check_lane_ops<V: SimdVec>(a16: &[i16], b16: &[i16]) -> Result<(), TestCaseError> {
    let conv =
        |x: i16| <V::Elem as SimdElem>::from_score(x as Score).expect("i16 fits every element");
    let zero = V::splat(V::Elem::ZERO);
    let fill = |xs: &[i16]| {
        let mut v = zero;
        for (l, slot) in v.lanes_mut().iter_mut().enumerate() {
            *slot = conv(xs[l % xs.len()]);
        }
        v
    };
    let (a, b) = (fill(a16), fill(b16));

    // Lane views round-trip, and splat.
    let s = V::splat(conv(a16[0]));
    prop_assert_eq!(a.lanes().len(), V::LANES);
    for l in 0..V::LANES {
        prop_assert_eq!(a.lanes()[l], conv(a16[l % a16.len()]), "written lane {}", l);
        prop_assert_eq!(s.lanes()[l], conv(a16[0]), "splat lane {}", l);
    }

    let (add, sub, max) = (a.adds(b), a.subs(b), a.max(b));
    for l in 0..V::LANES {
        let (x, y) = (a.lanes()[l], b.lanes()[l]);
        prop_assert_eq!(add.lanes()[l], x.vadd(y), "adds lane {}", l);
        prop_assert_eq!(sub.lanes()[l], x.vsub(y), "subs lane {}", l);
        prop_assert_eq!(max.lanes()[l], x.max(y), "max lane {}", l);
    }

    // The group kernel's left-border correction — clamp at zero, then
    // `subs` a vector holding `MAX` in the dead lanes, `max` with zero —
    // at every live-lane count: live lanes keep the clamped value, dead
    // lanes read zero.
    let clamped = a.max(zero);
    for keep in 0..=V::LANES {
        let mut kill = zero;
        kill.lanes_mut()[keep..].fill(V::Elem::MAX);
        let killed = clamped.subs(kill).max(zero);
        for l in 0..V::LANES {
            let want = if l < keep {
                clamped.lanes()[l]
            } else {
                V::Elem::ZERO
            };
            prop_assert_eq!(killed.lanes()[l], want, "keep {} lane {}", keep, l);
        }
    }
    Ok(())
}

fn arb_dna(min: usize, max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, min..=max).prop_map(|codes| Seq::from_codes(Alphabet::Dna, codes))
}

fn arb_triangle(m: usize) -> impl Strategy<Value = OverrideTriangle> {
    prop::collection::vec((0usize..m.max(2), 0usize..m.max(2)), 0..12).prop_map(move |pairs| {
        let mut t = OverrideTriangle::new(m);
        for (a, b) in pairs {
            let (p, q) = (a.min(b), a.max(b));
            if p < q && q < m {
                t.set(p, q);
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lane op of every vector type — portable arrays at 4/8/16
    /// lanes over both elements, and (on x86-64) the SSE2 and AVX2
    /// intrinsics types — matches the scalar element oracle. Inputs
    /// span the full `i16` range, so saturation at both ends is
    /// exercised constantly.
    #[test]
    fn lane_ops_match_scalar_oracle(
        a in prop::collection::vec(any::<i16>(), 16),
        b in prop::collection::vec(any::<i16>(), 16),
    ) {
        check_lane_ops::<I16x4>(&a, &b)?;
        check_lane_ops::<I16x8>(&a, &b)?;
        check_lane_ops::<I16x16>(&a, &b)?;
        check_lane_ops::<I32x4>(&a, &b)?;
        check_lane_ops::<I32x8>(&a, &b)?;
        check_lane_ops::<I32x16>(&a, &b)?;
        // On x86-64 these alias the SSE2 intrinsics types; elsewhere
        // (and under `portable-only`) they re-check the arrays.
        check_lane_ops::<NativeI16x4>(&a, &b)?;
        check_lane_ops::<NativeI16x8>(&a, &b)?;
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        if std::arch::is_x86_feature_detected!("avx2") {
            check_lane_ops::<repro_simd::lanes::avx2::I16x16Avx2>(&a, &b)?;
        }
    }

    /// Every lane of a group reproduces the scalar kernel's bottom row,
    /// for any group position, live-lane count and override triangle.
    #[test]
    fn group_rows_equal_scalar_rows(
        seq in arb_dna(10, 40),
        r0_frac in 0.0f64..1.0,
        lanes in 1usize..=8,
        use_mask in any::<bool>(),
        tri_seed in prop::collection::vec((0usize..40, 0usize..40), 0..10),
    ) {
        let m = seq.len();
        let scoring = Scoring::dna_example();
        let max_lanes = lanes.min(m - 1);
        let r0 = 1 + ((r0_frac * (m - 1 - max_lanes) as f64) as usize);
        let lanes = max_lanes.min(m - r0);
        prop_assume!(lanes >= 1 && r0 + lanes - 1 < m);

        let mut t = OverrideTriangle::new(m);
        for (a, b) in tri_seed {
            let (p, q) = (a.min(b), a.max(b));
            if p < q && q < m {
                t.set(p, q);
            }
        }
        let tri = if use_mask { Some(&t) } else { None };

        let check = |rows: &[Vec<Score>]| -> Result<(), TestCaseError> {
            for (l, row) in rows.iter().enumerate() {
                let r = r0 + l;
                let (prefix, suffix) = seq.split(r);
                let want = match tri {
                    Some(t) => sw_last_row(prefix, suffix, &scoring, SplitMask::new(t, r)).row,
                    None => sw_last_row(prefix, suffix, &scoring, repro_align::NoMask).row,
                };
                prop_assert_eq!(row, &want, "lane {} (split {})", l, r);
            }
            Ok(())
        };

        let rs: Vec<usize> = (r0..r0 + lanes).collect();
        prop_assert!(pack_fits_i16(scoring.exchange.max_score(), m, &rs, scoring.gaps));
        if lanes <= 4 {
            let g = align_group::<I16x4>(seq.codes(), &scoring, r0, lanes, tri);
            check(&g.rows)?;
        }
        let g = align_group::<I16x8>(seq.codes(), &scoring, r0, lanes, tri);
        check(&g.rows)?;
    }

    /// The group engine finds exactly the sequential engine's
    /// alignments — at every lane width, and on the portable path as
    /// well as whatever the auto-dispatcher picks for this CPU.
    #[test]
    fn engine_equals_sequential(seq in arb_dna(2, 36), count in 1usize..6) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        let search = Search::new(count);
        for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
            let sel = select(Some(width), None).expect("width-only selection always resolves");
            let got = find_top_alignments_simd(&seq, &scoring, &search, sel, &mut NoopRecorder);
            prop_assert_eq!(&got.alignments, &want.alignments, "{:?} diverged", width);
            let sel = select(Some(width), Some(DispatchPath::Portable))
                .expect("portable supports every width");
            let got = find_top_alignments_simd(&seq, &scoring, &search, sel, &mut NoopRecorder);
            prop_assert_eq!(&got.alignments, &want.alignments, "portable {:?} diverged", width);
        }
    }

    /// Triangle strategy sanity (exercise the helper above too).
    #[test]
    fn triangle_strategy_is_well_formed(t in arb_triangle(30)) {
        for (p, q) in t.iter() {
            prop_assert!(p < q && q < 30);
        }
    }

    /// A compacted-resume sweep of an arbitrary ascending split pack —
    /// exactly what the engines run after partitioning out clean
    /// lanes — reproduces the per-lane scalar bottom rows bit-for-bit,
    /// whether swept from scratch or resumed from a mid-matrix capture.
    #[test]
    fn compacted_resume_matches_scalar_oracle(
        seq in arb_dna(12, 44),
        pack_seed in prop::collection::vec(any::<u16>(), 1..=8),
        tri in arb_triangle(44),
        resume_frac in 0.0f64..1.0,
    ) {
        let m = seq.len();
        let scoring = Scoring::dna_example();
        // An arbitrary ascending split pack (duplicates collapsed), the
        // shape lane compaction produces when clean lanes drop out.
        let mut rs: Vec<usize> = pack_seed.iter().map(|&s| 1 + (s as usize) % (m - 1)).collect();
        rs.sort_unstable();
        rs.dedup();
        let triangle = Some(&tri);

        let scalar_rows: Vec<Vec<Score>> = rs
            .iter()
            .map(|&r| {
                let (prefix, suffix) = seq.split(r);
                sw_last_row(prefix, suffix, &scoring, SplitMask::new(&tri, r)).row
            })
            .collect();

        // Every kernel the dispatcher can route to on this CPU, through
        // its own entry point (the AVX2 one behind its trampoline).
        let kernels = [DispatchPath::Portable, DispatchPath::Sse2, DispatchPath::Avx2]
            .into_iter()
            .flat_map(|path| {
                [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16]
                    .into_iter()
                    .filter_map(move |width| select(Some(width), Some(path)).ok())
            });
        for sel in kernels {
            let sweeper = GroupSweeper::new(&seq, &scoring, sel);
            // A pack never exceeds the kernel's lane count.
            let rs = &rs[..rs.len().min(sel.width.lanes())];
            let scalar_rows = &scalar_rows[..rs.len()];

            // From scratch, capturing a mid-matrix row to resume from.
            let rmin = rs[0];
            let cap_row = 1 + ((resume_frac * (rmin - 1) as f64) as usize).min(rmin - 1);
            let capture_rows: Vec<usize> = if cap_row < rs[rs.len() - 1] {
                vec![cap_row]
            } else {
                Vec::new()
            };
            let (scratch, _, caps) = sweeper.sweep_at(rs, triangle, None, &capture_rows);
            prop_assert_eq!(&scratch.rows[..], scalar_rows, "{} scratch", sel);

            // Resume from the captured state: every lane restarts at the
            // shared row, and the bottom rows must not change by a bit.
            if let Some(cap) = caps.iter().find(|c| c.lanes.iter().all(|l| l.is_some())) {
                let lanes: Vec<LaneResume<'_>> = cap
                    .lanes
                    .iter()
                    .map(|l| {
                        let (cm, cmaxy) = l.as_ref().expect("all lanes captured");
                        LaneResume { m: cm, maxy: cmaxy }
                    })
                    .collect();
                let resume = GroupResume { row: cap.row, lanes };
                let (resumed, _, _) = sweeper.sweep_at(rs, triangle, Some(&resume), &[]);
                prop_assert_eq!(
                    &resumed.rows[..], scalar_rows,
                    "{} resume at row {}", sel, cap.row
                );
            }
        }
    }

    /// The checkpointed SIMD engine is bit-identical to the sequential
    /// engine at every lane width and budget — including budget 0 (the
    /// accounting-only mode) — and the lane-skip counter never shrinks
    /// as the budget grows (budget 0 admits no skips at all).
    #[test]
    fn checkpointed_engine_is_exact_and_skips_monotonically(
        seq in arb_dna(8, 40),
        count in 1usize..6,
    ) {
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, count);
        for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
            let sel = select(Some(width), Some(DispatchPath::Portable))
                .expect("portable supports every width");
            let mut skipped_at = Vec::new();
            for budget in [0usize, 64 << 10, 1 << 20] {
                let search = Search { checkpoint_budget: Some(budget), ..Search::new(count) };
                let got = find_top_alignments_simd(&seq, &scoring, &search, sel, &mut NoopRecorder);
                prop_assert_eq!(
                    &got.alignments, &want.alignments,
                    "{:?} budget {} diverged", width, budget
                );
                skipped_at.push(got.stats.lanes_skipped);
            }
            prop_assert_eq!(skipped_at[0], 0, "budget 0 must not skip lanes");
            prop_assert!(
                skipped_at[1] <= skipped_at[2],
                "{:?}: lane skips shrank with a larger budget: {:?}",
                width, skipped_at
            );
        }
    }
}
