//! Fixed-width lane vectors over 16-bit and 32-bit score elements.
//!
//! The portable implementations operate on fixed-size `[T; N]` arrays
//! in straight-line loops; at `opt-level ≥ 2` LLVM lowers these to the
//! SSE2 `PADDSW`/`PSUBSW`/`PMAXSW` instructions on x86-64 (and to NEON
//! on aarch64). On x86-64, explicit `core::arch` kernels are also
//! provided: SSE2 (`__m128i`, the exact instructions the paper's
//! compiler intrinsics emitted) for the 4- and 8-lane `i16` types, and
//! AVX2 (`__m256i`, `VPADDSW`/`VPSUBSW`/`VPMAXSW`) for the 16-lane
//! `i16` type. The [`crate::dispatch`] module probes CPU features at
//! runtime and selects the widest safe kernel.
//!
//! Two element disciplines coexist behind [`SimdElem`]:
//!
//! * **`i16`** — the paper's "shorts": saturating arithmetic, exact on
//!   every pack whose score bound fits it (the sweeper decides before
//!   the sweep; DESIGN.md "Group recurrence bound");
//! * **`i32`** — the wide element, matching the scalar reference
//!   kernel's plain (two's-complement) arithmetic bit for bit, so a
//!   wide sweep is exactly the scalar recurrence run `N` matrices at a
//!   time.
//!
//! Compiling with the `portable-only` cargo feature removes every
//! `core::arch` kernel, leaving only the portable arrays — CI runs the
//! whole suite in that configuration to keep both dispatch branches
//! honest.

use repro_align::{BottomRow, Score};

/// A scalar element a lane vector can hold: the score type narrowed
/// (i16) or kept wide (i32), with the overflow discipline the matching
/// hardware instructions implement.
pub trait SimdElem: Copy + Ord + std::fmt::Debug + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Largest value (the left-border kill vectors' dead lanes).
    const MAX: Self;
    /// "No predecessor" sentinel for the running gap maxima. `i16` uses
    /// `i16::MIN` (saturating subtraction keeps it pinned); `i32` uses
    /// [`repro_align::NEG_INF`], the exact constant of the scalar
    /// kernels, so wide sweeps match them bit for bit.
    const NEG_INF: Self;
    /// Size in bytes (drives the L1 stripe-width rule).
    const BYTES: usize;
    /// Element addition: saturating for `i16` (hardware `PADDSW`),
    /// wrapping for `i32` (hardware `PADDD`, matching scalar `+`).
    fn vadd(self, o: Self) -> Self;
    /// Element subtraction, same discipline as [`SimdElem::vadd`].
    fn vsub(self, o: Self) -> Self;
    /// Checked narrowing from the scalar score type.
    fn from_score(s: Score) -> Option<Self>;
    /// Saturating narrowing from the scalar score type, for restoring
    /// checkpointed inter-row state: values below the element's range
    /// pin to `Self::NEG_INF`-adjacent (`i16::MIN`), which is
    /// behaviourally identical in the recurrence because any gap maximum
    /// below `−open` loses every comparison it enters. No value *above*
    /// the range reaches it: a resume state obeys its lane's score
    /// bound, which the sweeper checked before choosing `i16`.
    fn from_score_sat(s: Score) -> Self;
    /// Widening back to the scalar score type.
    fn to_score(self) -> Score;
    /// A bottom row of this element, handed over at its width.
    fn into_row(row: Vec<Self>) -> BottomRow;
}

impl SimdElem for i16 {
    const ZERO: Self = 0;
    const MAX: Self = i16::MAX;
    const NEG_INF: Self = i16::MIN;
    const BYTES: usize = 2;

    #[inline(always)]
    fn vadd(self, o: Self) -> Self {
        self.saturating_add(o)
    }

    #[inline(always)]
    fn vsub(self, o: Self) -> Self {
        self.saturating_sub(o)
    }

    #[inline(always)]
    fn from_score(s: Score) -> Option<Self> {
        s.try_into().ok()
    }

    #[inline(always)]
    fn from_score_sat(s: Score) -> Self {
        s.clamp(i16::MIN as Score, i16::MAX as Score) as i16
    }

    #[inline(always)]
    fn to_score(self) -> Score {
        self as Score
    }

    fn into_row(row: Vec<Self>) -> BottomRow {
        BottomRow::Narrow(row)
    }
}

impl SimdElem for i32 {
    const ZERO: Self = 0;
    const MAX: Self = i32::MAX;
    const NEG_INF: Self = repro_align::NEG_INF;
    const BYTES: usize = 4;

    #[inline(always)]
    fn vadd(self, o: Self) -> Self {
        self.wrapping_add(o)
    }

    #[inline(always)]
    fn vsub(self, o: Self) -> Self {
        self.wrapping_sub(o)
    }

    #[inline(always)]
    fn from_score(s: Score) -> Option<Self> {
        Some(s)
    }

    #[inline(always)]
    fn from_score_sat(s: Score) -> Self {
        s
    }

    #[inline(always)]
    fn to_score(self) -> Score {
        self
    }

    fn into_row(row: Vec<Self>) -> BottomRow {
        BottomRow::Wide(row)
    }
}

/// A fixed-width vector of [`SimdElem`] lanes.
pub trait SimdVec: Copy + std::fmt::Debug {
    /// The per-lane element type.
    type Elem: SimdElem;

    /// Number of lanes.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: Self::Elem) -> Self;

    /// The `LANES` lanes in place, as plain elements: how single lanes
    /// of a vector sitting in memory are read (bottom rows, checkpoint
    /// capture) without a round trip through a register.
    fn lanes(&self) -> &[Self::Elem];

    /// [`SimdVec::lanes`], writable (checkpoint restore, building the
    /// left-border kill vectors).
    fn lanes_mut(&mut self) -> &mut [Self::Elem];

    /// Lane-wise addition under the element's overflow discipline.
    fn adds(self, o: Self) -> Self;

    /// Lane-wise subtraction under the element's overflow discipline.
    fn subs(self, o: Self) -> Self;

    /// Lane-wise maximum (the `PMAXSW` the paper highlights: "the SSE and
    /// SSE2 extensions contain a parallel MAX operator, which is not
    /// available in the conventional instruction set").
    fn max(self, o: Self) -> Self;
}

macro_rules! portable_lanes {
    ($name:ident, $elem:ty, $n:expr, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name(pub [$elem; $n]);

        impl SimdVec for $name {
            type Elem = $elem;
            const LANES: usize = $n;

            #[inline(always)]
            fn splat(v: $elem) -> Self {
                $name([v; $n])
            }

            #[inline(always)]
            fn lanes(&self) -> &[$elem] {
                &self.0
            }

            #[inline(always)]
            fn lanes_mut(&mut self) -> &mut [$elem] {
                &mut self.0
            }

            #[inline(always)]
            fn adds(self, o: Self) -> Self {
                let mut a = [0 as $elem; $n];
                for i in 0..$n {
                    a[i] = SimdElem::vadd(self.0[i], o.0[i]);
                }
                $name(a)
            }

            #[inline(always)]
            fn subs(self, o: Self) -> Self {
                let mut a = [0 as $elem; $n];
                for i in 0..$n {
                    a[i] = SimdElem::vsub(self.0[i], o.0[i]);
                }
                $name(a)
            }

            #[inline(always)]
            fn max(self, o: Self) -> Self {
                let mut a = [0 as $elem; $n];
                for i in 0..$n {
                    a[i] = self.0[i].max(o.0[i]);
                }
                $name(a)
            }
        }
    };
}

portable_lanes!(
    I16x4,
    i16,
    4,
    "Four saturating `i16` lanes — the paper's SSE width."
);
portable_lanes!(
    I16x8,
    i16,
    8,
    "Eight saturating `i16` lanes — the paper's SSE2 width."
);
portable_lanes!(
    I16x16,
    i16,
    16,
    "Sixteen saturating `i16` lanes — the AVX2 width (portable form)."
);
portable_lanes!(
    I32x4,
    i32,
    4,
    "Four wide `i32` lanes — the 4-lane wide element."
);
portable_lanes!(
    I32x8,
    i32,
    8,
    "Eight wide `i32` lanes — the 8-lane wide element."
);
portable_lanes!(
    I32x16,
    i32,
    16,
    "Sixteen wide `i32` lanes — the 16-lane wide element."
);

/// Explicit SSE2 lanes (x86-64 only): the literal `PADDSW`/`PSUBSW`/
/// `PMAXSW` path. Results are identical to [`I16x8`]; this type exists
/// so the benchmarks can compare compiler autovectorisation against
/// hand-placed intrinsics, as the paper compared compiler-vectorised code
/// against intrinsics.
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
pub mod sse2 {
    use super::SimdVec;
    use core::arch::x86_64::*;

    // The layout the in-place lane views below rely on.
    const _: () = assert!(
        size_of::<__m128i>() == size_of::<[i16; 8]>()
            && align_of::<__m128i>() >= align_of::<[i16; 8]>()
    );

    #[inline(always)]
    fn slots(v: &__m128i) -> &[i16; 8] {
        // SAFETY: `__m128i` is 16 bytes of plain integer data — no
        // padding, every bit pattern valid as eight `i16` — and at least
        // as aligned as the array (both asserted above); the borrow is
        // handed on unchanged.
        unsafe { &*(v as *const __m128i as *const [i16; 8]) }
    }

    #[inline(always)]
    fn slots_mut(v: &mut __m128i) -> &mut [i16; 8] {
        // SAFETY: as in `slots`, and every `[i16; 8]` is a valid
        // `__m128i`, so writes through the view cannot break it.
        unsafe { &mut *(v as *mut __m128i as *mut [i16; 8]) }
    }

    /// Eight saturating `i16` lanes backed by a literal `__m128i`.
    #[derive(Clone, Copy)]
    pub struct I16x8Sse2(pub __m128i);

    impl std::fmt::Debug for I16x8Sse2 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "I16x8Sse2({:?})", self.lanes())
        }
    }

    /// Four saturating `i16` lanes on a full-width `__m128i`: slots 4–7
    /// carry dead values that are never read ([`SimdVec::lanes`] is the
    /// first four slots only, and every operation is lane-wise). This
    /// models the paper's SSE configuration at intrinsics speed —
    /// [`super::I16x4`]'s 64-bit array form scalarises poorly.
    #[derive(Clone, Copy)]
    pub struct I16x4Sse2(pub __m128i);

    impl std::fmt::Debug for I16x4Sse2 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "I16x4Sse2({:?})", self.lanes())
        }
    }

    impl SimdVec for I16x4Sse2 {
        type Elem = i16;
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(v: i16) -> Self {
            I16x4Sse2(I16x8Sse2::splat(v).0)
        }

        #[inline(always)]
        fn lanes(&self) -> &[i16] {
            &slots(&self.0)[..4]
        }

        #[inline(always)]
        fn lanes_mut(&mut self) -> &mut [i16] {
            &mut slots_mut(&mut self.0)[..4]
        }

        #[inline(always)]
        fn adds(self, o: Self) -> Self {
            I16x4Sse2(I16x8Sse2(self.0).adds(I16x8Sse2(o.0)).0)
        }

        #[inline(always)]
        fn subs(self, o: Self) -> Self {
            I16x4Sse2(I16x8Sse2(self.0).subs(I16x8Sse2(o.0)).0)
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            I16x4Sse2(I16x8Sse2(self.0).max(I16x8Sse2(o.0)).0)
        }
    }

    impl SimdVec for I16x8Sse2 {
        type Elem = i16;
        const LANES: usize = 8;

        #[inline(always)]
        fn splat(v: i16) -> Self {
            // SAFETY: SSE2 is a baseline feature of x86-64.
            unsafe { I16x8Sse2(_mm_set1_epi16(v)) }
        }

        #[inline(always)]
        fn lanes(&self) -> &[i16] {
            slots(&self.0)
        }

        #[inline(always)]
        fn lanes_mut(&mut self) -> &mut [i16] {
            slots_mut(&mut self.0)
        }

        #[inline(always)]
        fn adds(self, o: Self) -> Self {
            // SAFETY: SSE2 is a baseline feature of x86-64.
            unsafe { I16x8Sse2(_mm_adds_epi16(self.0, o.0)) }
        }

        #[inline(always)]
        fn subs(self, o: Self) -> Self {
            // SAFETY: SSE2 is a baseline feature of x86-64.
            unsafe { I16x8Sse2(_mm_subs_epi16(self.0, o.0)) }
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: SSE2 is a baseline feature of x86-64.
            unsafe { I16x8Sse2(_mm_max_epi16(self.0, o.0)) }
        }
    }
}

/// Explicit AVX2 lanes (x86-64 only): sixteen saturating `i16` lanes on
/// a `__m256i` (`VPADDSW`/`VPSUBSW`/`VPMAXSW`).
///
/// Unlike SSE2, AVX2 is **not** a baseline feature of x86-64: every
/// operation on [`avx2::I16x16Avx2`] requires the CPU to support AVX2
/// at runtime. The [`crate::dispatch`] module only selects this type
/// after `is_x86_feature_detected!("avx2")` succeeds; constructing or
/// operating on it on a CPU without AVX2 is undefined behaviour.
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
pub mod avx2 {
    use super::SimdVec;
    use core::arch::x86_64::*;

    // The layout the in-place lane views below rely on.
    const _: () = assert!(
        size_of::<__m256i>() == size_of::<[i16; 16]>()
            && align_of::<__m256i>() >= align_of::<[i16; 16]>()
    );

    /// Sixteen saturating `i16` lanes backed by a literal `__m256i`.
    /// Requires AVX2 at runtime (see the module docs).
    #[derive(Clone, Copy)]
    pub struct I16x16Avx2(pub __m256i);

    impl std::fmt::Debug for I16x16Avx2 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "I16x16Avx2({:?})", self.lanes())
        }
    }

    impl SimdVec for I16x16Avx2 {
        type Elem = i16;
        const LANES: usize = 16;

        #[inline(always)]
        fn splat(v: i16) -> Self {
            // SAFETY: dispatch guarantees AVX2 before this type is used.
            unsafe { I16x16Avx2(_mm256_set1_epi16(v)) }
        }

        #[inline(always)]
        fn lanes(&self) -> &[i16] {
            // SAFETY: `__m256i` is 32 bytes of plain integer data — no
            // padding, every bit pattern valid as sixteen `i16` — and at
            // least as aligned as the array (both asserted above); the
            // borrow is handed on unchanged. A plain memory view: no
            // AVX instruction is involved.
            unsafe { &*(&self.0 as *const __m256i as *const [i16; 16]) }
        }

        #[inline(always)]
        fn lanes_mut(&mut self) -> &mut [i16] {
            // SAFETY: as in `lanes`, and every `[i16; 16]` is a valid
            // `__m256i`, so writes through the view cannot break it.
            unsafe { &mut *(&mut self.0 as *mut __m256i as *mut [i16; 16]) }
        }

        #[inline(always)]
        fn adds(self, o: Self) -> Self {
            // SAFETY: dispatch guarantees AVX2 before this type is used.
            unsafe { I16x16Avx2(_mm256_adds_epi16(self.0, o.0)) }
        }

        #[inline(always)]
        fn subs(self, o: Self) -> Self {
            // SAFETY: dispatch guarantees AVX2 before this type is used.
            unsafe { I16x16Avx2(_mm256_subs_epi16(self.0, o.0)) }
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: dispatch guarantees AVX2 before this type is used.
            unsafe { I16x16Avx2(_mm256_max_epi16(self.0, o.0)) }
        }
    }
}

/// The fastest *always-safe* kernel type for 4 `i16` lanes on this
/// build: explicit SSE2 on x86-64 (a baseline feature there), portable
/// arrays elsewhere or under `portable-only`. The 16-lane AVX2 type has
/// no such alias — AVX2 needs runtime detection, which only the
/// [`crate::dispatch`] module performs.
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
pub type NativeI16x4 = sse2::I16x4Sse2;
/// Portable fallback of [`NativeI16x4`].
#[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
pub type NativeI16x4 = I16x4;

/// The fastest always-safe kernel type for 8 `i16` lanes on this build
/// (see [`NativeI16x4`]).
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
pub type NativeI16x8 = sse2::I16x8Sse2;
/// Portable fallback of [`NativeI16x8`].
#[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
pub type NativeI16x8 = I16x8;

#[cfg(test)]
mod tests {
    use super::*;

    fn e<V: SimdVec>(x: Score) -> V::Elem {
        V::Elem::from_score(x).expect("test constant fits the element")
    }

    fn from_fn<V: SimdVec>(mut f: impl FnMut(usize) -> V::Elem) -> V {
        let mut v = V::splat(V::Elem::ZERO);
        for (l, slot) in v.lanes_mut().iter_mut().enumerate() {
            *slot = f(l);
        }
        v
    }

    fn check_basic<V: SimdVec>() {
        let a: V = from_fn(|l| e::<V>(l as Score));
        let b = V::splat(e::<V>(10));
        let sum = a.adds(b);
        for l in 0..V::LANES {
            assert_eq!(sum.lanes()[l].to_score(), l as Score + 10);
        }
        let diff = b.subs(a);
        for l in 0..V::LANES {
            assert_eq!(diff.lanes()[l].to_score(), 10 - l as Score);
        }
        let m = a.max(V::splat(e::<V>(2)));
        for l in 0..V::LANES {
            assert_eq!(m.lanes()[l].to_score(), (l as Score).max(2));
        }
    }

    fn check_saturation<V: SimdVec<Elem = i16>>() {
        let big = V::splat(i16::MAX - 1);
        let sum = big.adds(V::splat(100));
        for l in 0..V::LANES {
            assert_eq!(sum.lanes()[l], i16::MAX);
        }
        let small = V::splat(i16::MIN + 1);
        let diff = small.subs(V::splat(100));
        for l in 0..V::LANES {
            assert_eq!(diff.lanes()[l], i16::MIN);
        }
    }

    /// The in-place views are exactly `LANES` long, and a write to one
    /// lane is seen by the vector ops in that lane and in no other —
    /// inside a slice of vectors as well as on a lone one.
    fn check_lane_views<V: SimdVec>() {
        let mut vs = [V::splat(e::<V>(7)); 3];
        assert_eq!(vs[1].lanes().len(), V::LANES);
        assert_eq!(vs[1].lanes_mut().len(), V::LANES);
        for l in 0..V::LANES {
            vs[1].lanes_mut()[l] = e::<V>(100 + l as Score);
            let sum = vs[1].adds(V::splat(e::<V>(1)));
            for k in 0..V::LANES {
                let want = if k <= l { 101 + k as Score } else { 8 };
                assert_eq!(
                    sum.lanes()[k].to_score(),
                    want,
                    "lane {k} after writing {l}"
                );
            }
        }
        for v in [vs[0], vs[2]] {
            assert!(v.lanes().iter().all(|x| x.to_score() == 7));
        }
    }

    #[test]
    fn portable_x4() {
        check_basic::<I16x4>();
        check_saturation::<I16x4>();
        check_lane_views::<I16x4>();
    }

    #[test]
    fn portable_x8() {
        check_basic::<I16x8>();
        check_saturation::<I16x8>();
        check_lane_views::<I16x8>();
    }

    #[test]
    fn portable_x16() {
        check_basic::<I16x16>();
        check_saturation::<I16x16>();
        check_lane_views::<I16x16>();
    }

    #[test]
    fn portable_wide() {
        check_basic::<I32x4>();
        check_lane_views::<I32x4>();
        check_basic::<I32x8>();
        check_lane_views::<I32x8>();
        check_basic::<I32x16>();
        check_lane_views::<I32x16>();
    }

    #[test]
    fn wide_matches_scalar_wrapping() {
        // The i32 element is the scalar kernel's arithmetic verbatim:
        // wrapping, not saturating.
        let a = I32x8::splat(i32::MAX - 1);
        let sum = a.adds(I32x8::splat(100));
        assert_eq!(sum.lanes()[0], (i32::MAX - 1).wrapping_add(100));
        assert_eq!(i32::NEG_INF, repro_align::NEG_INF);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn sse2_x8_matches_portable() {
        use super::sse2::I16x8Sse2;
        check_basic::<I16x8Sse2>();
        check_saturation::<I16x8Sse2>();
        check_lane_views::<I16x8Sse2>();
        // Differential: random-ish op sequences agree lane-for-lane.
        let mut x: i32 = 12345;
        let mut next = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 8) % 2000 - 1000) as i16
        };
        for _ in 0..100 {
            let (a, b) = (next(), next());
            let pa = I16x8::splat(a).adds(I16x8::splat(b));
            let ia = I16x8Sse2::splat(a).adds(I16x8Sse2::splat(b));
            for l in 0..8 {
                assert_eq!(pa.lanes()[l], ia.lanes()[l]);
            }
            let pm = I16x8::splat(a).max(I16x8::splat(b)).subs(I16x8::splat(3));
            let im = I16x8Sse2::splat(a)
                .max(I16x8Sse2::splat(b))
                .subs(I16x8Sse2::splat(3));
            for l in 0..8 {
                assert_eq!(pm.lanes()[l], im.lanes()[l]);
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn avx2_x16_matches_portable() {
        use super::avx2::I16x16Avx2;
        if !crate::test_support::require_avx2("avx2_x16_matches_portable") {
            return;
        }
        check_basic::<I16x16Avx2>();
        check_saturation::<I16x16Avx2>();
        check_lane_views::<I16x16Avx2>();
        let mut x: i32 = 987;
        let mut next = move || {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            ((x >> 8) % 2000 - 1000) as i16
        };
        for _ in 0..100 {
            let (a, b) = (next(), next());
            let pa = from_fn::<I16x16>(|l| a.wrapping_add(l as i16))
                .adds(I16x16::splat(b))
                .max(I16x16::splat(3))
                .subs(I16x16::splat(a / 2));
            let ia = from_fn::<I16x16Avx2>(|l| a.wrapping_add(l as i16))
                .adds(I16x16Avx2::splat(b))
                .max(I16x16Avx2::splat(3))
                .subs(I16x16Avx2::splat(a / 2));
            for l in 0..16 {
                assert_eq!(pa.lanes()[l], ia.lanes()[l], "lane {l}");
            }
        }
    }
}
