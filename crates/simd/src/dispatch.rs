//! Runtime kernel dispatch: probe the CPU once, pick the widest safe
//! kernel.
//!
//! The lane types in [`crate::lanes`] fall into three *dispatch paths*:
//!
//! * [`DispatchPath::Portable`] — the `[T; N]` array kernels; always
//!   available, autovectorised by LLVM;
//! * [`DispatchPath::Sse2`] — explicit `__m128i` kernels; available on
//!   every x86-64 CPU (SSE2 is baseline), 4 or 8 `i16` lanes;
//! * [`DispatchPath::Avx2`] — explicit `__m256i` kernels; 16 `i16`
//!   lanes, **requires runtime detection** via
//!   `is_x86_feature_detected!("avx2")`.
//!
//! [`select`] resolves a user's (possibly partial) request into a
//! concrete [`SimdSel`], erroring with a typed [`DispatchError`] when
//! the request cannot be satisfied on the running CPU — e.g. forcing
//! `--dispatch sse2 --lanes 16`. The AVX2 probe runs **once** per
//! process (cached in a `OnceLock`).
//!
//! The sweep entry points ([`sweep_group_profile_i16`] and friends) are
//! the only place the program crosses from "runtime-selected path" to
//! "concrete monomorphised kernel". The AVX2 arms go through
//! `#[target_feature(enable = "avx2")]` trampolines so the
//! `#[inline(always)]` generic sweep bodies in [`crate::group`] are
//! codegenned *inside* an AVX2-enabled function — without this, the
//! intrinsics would be called as opaque functions and the 16-lane
//! kernel would be slower than the 8-lane one.

use crate::group::{
    align_group_lookup_impl, align_group_profile_at_impl, group_stripe, GroupCapture, GroupResult,
    GroupResume,
};
use crate::lanes::SimdVec;
use crate::LaneWidth;
use repro_align::{QueryProfile, Scoring};
use repro_core::OverrideTriangle;

#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
use crate::lanes::{avx2::I16x16Avx2, sse2::I16x4Sse2, sse2::I16x8Sse2};
use crate::lanes::{I16x16, I16x4, I16x8, I32x16, I32x4, I32x8};

/// A family of SIMD kernels the dispatcher can route a sweep to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPath {
    /// Portable array kernels (always available).
    Portable,
    /// Explicit SSE2 (`__m128i`) kernels — x86-64 baseline.
    Sse2,
    /// Explicit AVX2 (`__m256i`) kernels — needs runtime detection.
    Avx2,
}

impl std::fmt::Display for DispatchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchPath::Portable => "portable",
            DispatchPath::Sse2 => "sse2",
            DispatchPath::Avx2 => "avx2",
        })
    }
}

/// One-shot AVX2 probe, cached for the life of the process.
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
fn avx2_runtime() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Is `path` usable in this build *and* on the running CPU?
pub fn available(path: DispatchPath) -> bool {
    match path {
        DispatchPath::Portable => true,
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        DispatchPath::Sse2 => true,
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        DispatchPath::Avx2 => avx2_runtime(),
        #[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
        _ => false,
    }
}

/// The best available path on this CPU: AVX2 > SSE2 > portable.
pub fn auto_path() -> DispatchPath {
    if available(DispatchPath::Avx2) {
        DispatchPath::Avx2
    } else if available(DispatchPath::Sse2) {
        DispatchPath::Sse2
    } else {
        DispatchPath::Portable
    }
}

/// Widest lane count a path's `i16` kernels support. Portable arrays
/// exist at every width; SSE2 registers cap out at 8 × `i16`.
pub fn max_width(path: DispatchPath) -> LaneWidth {
    match path {
        DispatchPath::Portable => LaneWidth::X16,
        DispatchPath::Sse2 => LaneWidth::X8,
        DispatchPath::Avx2 => LaneWidth::X16,
    }
}

/// A fully resolved kernel selection: what [`select`] hands to the
/// engines and what the sweep dispatchers consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdSel {
    /// Lane width of the narrow (`i16`) sweeps.
    pub width: LaneWidth,
    /// Kernel family the sweeps route to.
    pub path: DispatchPath,
}

impl std::fmt::Display for SimdSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.path, self.width.lanes())
    }
}

/// Why a dispatch request could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The requested path does not exist in this build or on this CPU.
    PathUnavailable {
        /// The path that was asked for.
        path: DispatchPath,
    },
    /// The requested lane width exceeds what the (requested or resolved)
    /// path can do.
    WidthUnsupported {
        /// The width that was asked for.
        width: LaneWidth,
        /// The path it was asked of.
        path: DispatchPath,
        /// That path's actual maximum.
        max: LaneWidth,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::PathUnavailable { path } => write!(
                f,
                "the {path} dispatch path is not available on this CPU/build"
            ),
            DispatchError::WidthUnsupported { width, path, max } => write!(
                f,
                "lane width {} exceeds the {path} dispatch path's maximum of {}",
                width.lanes(),
                max.lanes()
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Resolve a (possibly partial) request into a concrete [`SimdSel`].
///
/// * both `None` — the widest kernel the CPU has: AVX2 ×16, else
///   SSE2 ×8, else portable ×16;
/// * width only — the fastest path that supports it (×16 prefers AVX2,
///   ×4/×8 prefer SSE2; portable otherwise). Never fails: the portable
///   kernels cover every width;
/// * path only — that path at its widest, or [`DispatchError::PathUnavailable`];
/// * both — exactly what was asked, or a typed error (e.g. SSE2 ×16 is
///   [`DispatchError::WidthUnsupported`] even on an AVX2 machine).
pub fn select(
    width: Option<LaneWidth>,
    path: Option<DispatchPath>,
) -> Result<SimdSel, DispatchError> {
    let path = match path {
        Some(p) => {
            if !available(p) {
                return Err(DispatchError::PathUnavailable { path: p });
            }
            p
        }
        None => match width {
            Some(LaneWidth::X16) if available(DispatchPath::Avx2) => DispatchPath::Avx2,
            Some(LaneWidth::X4) | Some(LaneWidth::X8) if available(DispatchPath::Sse2) => {
                DispatchPath::Sse2
            }
            Some(_) => DispatchPath::Portable,
            None => auto_path(),
        },
    };
    let max = max_width(path);
    let width = match width {
        Some(w) => {
            if w.lanes() > max.lanes() {
                return Err(DispatchError::WidthUnsupported {
                    width: w,
                    path,
                    max,
                });
            }
            w
        }
        None => max,
    };
    Ok(SimdSel { width, path })
}

// ---------------------------------------------------------------------------
// AVX2 trampolines.
//
// `unsafe` contract: the caller must have verified AVX2 support (every
// call below is reached only through a `SimdSel` whose construction
// checked `available(Avx2)`). The bodies are safe; the attribute exists
// so the `#[inline(always)]` sweep impls inline into AVX2 codegen.
// ---------------------------------------------------------------------------

/// The profile sweep of lane type `V` compiled with AVX2 enabled: the
/// `i16` ×16 lanes and the wide `i32` lanes on the AVX2 path.
#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
pub(crate) unsafe fn profile_at_avx2<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<V::Elem>,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    align_group_profile_at_impl::<V>(
        seq,
        scoring,
        profile,
        rs,
        triangle,
        stripe,
        resume,
        capture_rows,
    )
}

#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
#[target_feature(enable = "avx2")]
unsafe fn lookup_i16_avx2(
    seq: &[u8],
    scoring: &Scoring,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
) -> GroupResult {
    align_group_lookup_impl::<I16x16Avx2>(seq, scoring, r0, lanes, triangle, stripe)
}

/// The narrow (`i16`) query-profile sweep of the `lanes` consecutive
/// splits from `r0`, routed to the selected kernel: exactly what
/// [`sweep_group_profile_i16_at`] runs for that pack from row 0 with
/// no captures — the same code the engines execute.
pub fn sweep_group_profile_i16(
    sel: SimdSel,
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<i16>,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
) -> GroupResult {
    let rs: Vec<usize> = (r0..r0 + lanes).collect();
    sweep_group_profile_i16_at(sel, seq, scoring, profile, &rs, triangle, None, &[]).0
}

/// The narrow (`i16`) query-profile sweep of an arbitrary ascending
/// split set, with optional mid-matrix resume and inter-row capture —
/// the entry point of every engine sweep. Bit-identical results on
/// every path; stripe width derives from the L1 rule for the selected
/// lane count.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
pub fn sweep_group_profile_i16_at(
    sel: SimdSel,
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<i16>,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    let stripe = group_stripe(sel.width.lanes(), 2);
    match (sel.path, sel.width) {
        (DispatchPath::Portable, LaneWidth::X4) => align_group_profile_at_impl::<I16x4>(
            seq,
            scoring,
            profile,
            rs,
            triangle,
            stripe,
            resume,
            capture_rows,
        ),
        (DispatchPath::Portable, LaneWidth::X8) => align_group_profile_at_impl::<I16x8>(
            seq,
            scoring,
            profile,
            rs,
            triangle,
            stripe,
            resume,
            capture_rows,
        ),
        (DispatchPath::Portable, LaneWidth::X16) => align_group_profile_at_impl::<I16x16>(
            seq,
            scoring,
            profile,
            rs,
            triangle,
            stripe,
            resume,
            capture_rows,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Sse2 | DispatchPath::Avx2, LaneWidth::X4) => {
            align_group_profile_at_impl::<I16x4Sse2>(
                seq,
                scoring,
                profile,
                rs,
                triangle,
                stripe,
                resume,
                capture_rows,
            )
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Sse2 | DispatchPath::Avx2, LaneWidth::X8) => {
            align_group_profile_at_impl::<I16x8Sse2>(
                seq,
                scoring,
                profile,
                rs,
                triangle,
                stripe,
                resume,
                capture_rows,
            )
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Avx2, LaneWidth::X16) => {
            // SAFETY: sel.path == Avx2 implies `available(Avx2)` held when
            // the selection was made (select() is the only constructor used
            // by the engines, and tests that build SimdSel by hand gate on
            // the same probe).
            unsafe {
                profile_at_avx2::<I16x16Avx2>(
                    seq,
                    scoring,
                    profile,
                    rs,
                    triangle,
                    stripe,
                    resume,
                    capture_rows,
                )
            }
        }
        _ => unreachable!("select() never yields {:?}", sel),
    }
}

/// The narrow (`i16`) per-cell **lookup** sweep — the pre-profile
/// kernel, kept routable so benchmarks can measure exactly what the
/// profile buys at every width/path.
pub fn sweep_group_lookup_i16(
    sel: SimdSel,
    seq: &[u8],
    scoring: &Scoring,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
) -> GroupResult {
    let stripe = group_stripe(sel.width.lanes(), 2);
    match (sel.path, sel.width) {
        (DispatchPath::Portable, LaneWidth::X4) => {
            align_group_lookup_impl::<I16x4>(seq, scoring, r0, lanes, triangle, stripe)
        }
        (DispatchPath::Portable, LaneWidth::X8) => {
            align_group_lookup_impl::<I16x8>(seq, scoring, r0, lanes, triangle, stripe)
        }
        (DispatchPath::Portable, LaneWidth::X16) => {
            align_group_lookup_impl::<I16x16>(seq, scoring, r0, lanes, triangle, stripe)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Sse2 | DispatchPath::Avx2, LaneWidth::X4) => {
            align_group_lookup_impl::<I16x4Sse2>(seq, scoring, r0, lanes, triangle, stripe)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Sse2 | DispatchPath::Avx2, LaneWidth::X8) => {
            align_group_lookup_impl::<I16x8Sse2>(seq, scoring, r0, lanes, triangle, stripe)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        (DispatchPath::Avx2, LaneWidth::X16) => {
            // SAFETY: as in `sweep_group_profile_i16_at`.
            unsafe { lookup_i16_avx2(seq, scoring, r0, lanes, triangle, stripe) }
        }
        _ => unreachable!("select() never yields {:?}", sel),
    }
}

/// The wide (`i32`) sweep of the `lanes` consecutive splits
/// from `r0`: [`sweep_group_wide_at`] for that pack from row 0 with no
/// captures.
pub fn sweep_group_wide(
    sel: SimdSel,
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<i32>,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
) -> GroupResult {
    let rs: Vec<usize> = (r0..r0 + lanes).collect();
    sweep_group_wide_at(sel, seq, scoring, profile, &rs, triangle, None, &[]).0
}

/// The wide (`i32`) sweep — what a pack past the `i16` bound runs — of
/// an arbitrary ascending split set with optional mid-matrix resume and
/// inter-row capture, at the selection's width: the `I32x4/8/16` lanes,
/// bit-identical to the scalar reference at any width. On the AVX2 path
/// they are compiled inside an AVX2 trampoline, where their `i32` max
/// is one `vpmaxsd`; elsewhere they are built for the baseline target,
/// which has no `i32` `PMAXSD` (SSE4.1), so how much of their max LLVM
/// vectorises varies.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
pub fn sweep_group_wide_at(
    sel: SimdSel,
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<i32>,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    match sel.width {
        LaneWidth::X4 => wide_at::<I32x4>(
            sel.path,
            seq,
            scoring,
            profile,
            rs,
            triangle,
            resume,
            capture_rows,
        ),
        LaneWidth::X8 => wide_at::<I32x8>(
            sel.path,
            seq,
            scoring,
            profile,
            rs,
            triangle,
            resume,
            capture_rows,
        ),
        LaneWidth::X16 => wide_at::<I32x16>(
            sel.path,
            seq,
            scoring,
            profile,
            rs,
            triangle,
            resume,
            capture_rows,
        ),
    }
}

/// One wide lane type's sweep on `path`: inside the AVX2 trampoline
/// where that path was selected.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
fn wide_at<V: SimdVec<Elem = i32>>(
    path: DispatchPath,
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<i32>,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    let stripe = group_stripe(V::LANES, 4);
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    if path == DispatchPath::Avx2 {
        // SAFETY: a selection names the AVX2 path only after
        // `available(Avx2)` held, as in `sweep_group_profile_i16_at`.
        return unsafe {
            profile_at_avx2::<V>(
                seq,
                scoring,
                profile,
                rs,
                triangle,
                stripe,
                resume,
                capture_rows,
            )
        };
    }
    let _ = path;
    align_group_profile_at_impl::<V>(
        seq,
        scoring,
        profile,
        rs,
        triangle,
        stripe,
        resume,
        capture_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_align::Seq;

    #[test]
    fn portable_is_always_available() {
        assert!(available(DispatchPath::Portable));
        let sel = select(None, Some(DispatchPath::Portable)).unwrap();
        assert_eq!(
            sel,
            SimdSel {
                width: LaneWidth::X16,
                path: DispatchPath::Portable
            }
        );
    }

    #[test]
    fn full_auto_never_fails() {
        let sel = select(None, None).unwrap();
        assert_eq!(sel.path, auto_path());
        assert_eq!(sel.width, max_width(sel.path));
    }

    #[test]
    fn width_only_never_fails() {
        for w in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
            let sel = select(Some(w), None).unwrap();
            assert_eq!(sel.width, w);
            assert!(available(sel.path));
        }
    }

    #[test]
    fn sse2_refuses_sixteen_lanes() {
        // Even on an AVX2 machine: the user pinned the path.
        match select(Some(LaneWidth::X16), Some(DispatchPath::Sse2)) {
            Err(DispatchError::WidthUnsupported { width, path, max }) => {
                assert_eq!(width, LaneWidth::X16);
                assert_eq!(path, DispatchPath::Sse2);
                assert_eq!(max, LaneWidth::X8);
            }
            Err(DispatchError::PathUnavailable { path }) => {
                // portable-only build / non-x86: also a typed error.
                assert_eq!(path, DispatchPath::Sse2);
            }
            Ok(sel) => panic!("sse2 x16 must not resolve, got {sel}"),
        }
    }

    #[test]
    fn error_messages_name_the_path() {
        let e = DispatchError::WidthUnsupported {
            width: LaneWidth::X16,
            path: DispatchPath::Sse2,
            max: LaneWidth::X8,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("16") && msg.contains("sse2") && msg.contains('8'),
            "{msg}"
        );
        let e = DispatchError::PathUnavailable {
            path: DispatchPath::Avx2,
        };
        assert!(e.to_string().contains("avx2"));
    }

    #[test]
    fn every_selectable_kernel_agrees_on_rows() {
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTTAC").unwrap();
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let reference = sweep_group_profile_i16(
            SimdSel {
                width: LaneWidth::X4,
                path: DispatchPath::Portable,
            },
            seq.codes(),
            &scoring,
            &prof,
            3,
            4,
            None,
        );
        for path in [
            DispatchPath::Portable,
            DispatchPath::Sse2,
            DispatchPath::Avx2,
        ] {
            if !available(path) {
                continue;
            }
            for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
                let Ok(sel) = select(Some(width), Some(path)) else {
                    continue;
                };
                let got = sweep_group_profile_i16(sel, seq.codes(), &scoring, &prof, 3, 4, None);
                assert_eq!(got.rows, reference.rows, "{sel}");
                let lk = sweep_group_lookup_i16(sel, seq.codes(), &scoring, 3, 4, None);
                assert_eq!(lk.rows, reference.rows, "lookup {sel}");
            }
        }
        let wide_prof = QueryProfile::new_wide(&scoring, seq.codes());
        for path in [DispatchPath::Portable, DispatchPath::Avx2] {
            if !available(path) {
                continue;
            }
            for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
                let sel = SimdSel { width, path };
                let got = sweep_group_wide(sel, seq.codes(), &scoring, &wide_prof, 3, 4, None);
                assert_eq!(got.rows, reference.rows, "wide {sel}");
            }
        }
    }
}
