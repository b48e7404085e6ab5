//! The interleaved multi-matrix kernel (paper Figures 6 and 7).
//!
//! A *group* is a set of splits swept together. Historically a run of
//! consecutive splits `r0, r0+1, …, r0+lanes−1`; the kernel is now
//! generic over any strictly ascending split set `rs` (lane `l`
//! computes the matrix of split `rs[l]`), which is what lets the
//! incremental layer *compact* a group — re-packing only the lanes
//! that actually need work. The sweep runs over sequence positions:
//! row `p` (prefix residue) and column `q` (suffix residue),
//! `q ∈ [rs[0], m)`. At `(p, q)` every lane aligns the same residue
//! pair `(S[p], S[q])`, so the exchange value is looked up once and
//! splatted — neighbouring matrices share cells, arbitrary subsets of
//! them still share the splat.
//!
//! Two sweeps implement the same recurrence:
//!
//! * [`align_group_striped`] — the historical **lookup** sweep: each
//!   cell gathers `E(S[p], S[q])` through the narrowed exchange table
//!   (`seq[q] → table[row][seq[q]]`, two dependent loads per cell);
//! * [`align_group_profile`] — the **query-profile** sweep: the
//!   exchange matrix is pre-unrolled along the sequence
//!   ([`repro_align::QueryProfile`]), so each cell issues a single
//!   contiguous load `prow[qi]`. The profile is built once per
//!   sequence and shared by every group and every realignment.
//!
//! Both are generic over the lane element: `i16` (saturating, the
//! paper's "shorts") or `i32` (wrapping, bit-identical to the scalar
//! reference — the saturation-promotion path).
//!
//! Incremental resume ([`align_group_profile_at`]): the kernel can
//! start at row `start` from restored inter-row state (per-lane `m` /
//! `maxy` over each lane's own columns, the exact state a scalar
//! [`repro_align::Checkpoint`] holds) and capture the same state at
//! requested rows on the way down. Columns left of a lane's split
//! (`q < rs[l]`) hold `m = 0` (the border forces them to zero every
//! row) and a constant `maxy = −open − ext` (the running gap maximum
//! over a column of zeros), so the packed state is reconstructed from
//! per-lane checkpoints alone — no interleaved state is ever stored.
//!
//! Border corrections:
//! * **left**: lane `l` has no column `q < rs[l]`; those cells are
//!   forced to 0, which doubles as the virtual zero column for the
//!   lane's first real column (only columns `q < rs[last]` need this);
//! * **bottom**: lane `l`'s matrix ends at row `rs[l] − 1`; its bottom
//!   row is captured when that row completes, and deeper rows of the
//!   lane are dead weight (the paper's speculation cost).
//! * **override**: cell `(p, q)` represents sequence pair `(p, q)` in
//!   *every* lane, so the triangle mask is lane-uniform — one zero
//!   serves all lanes. The overridden columns of every swept row are
//!   tabulated once per sweep (`RowHits`); a row then runs the plain
//!   recurrence over the segments between its hits.

use crate::lanes::{SimdElem, SimdVec};
use repro_align::{stripe_for_bytes, QueryProfile, Score, Scoring};
use repro_core::OverrideTriangle;

/// Per-lane results of one group alignment.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// First (smallest) split in the group.
    pub r0: usize,
    /// Number of live lanes (the final group of a sequence may be short).
    pub lanes: usize,
    /// Per-lane bottom rows, widened to the scalar score type; entry `l`
    /// is the bottom row of the group's `l`-th split (length `m − r`).
    pub rows: Vec<Vec<Score>>,
    /// Logical cells actually computed (sum over lanes of each split's
    /// rows below the resume row × its own columns) — comparable with
    /// the sequential engine's counters.
    pub cells: u64,
    /// Vector-sweep cells (`rows × width`), the actual SIMD work incl.
    /// dead lanes; `cells / (vector_cells × LANES)` is lane utilisation.
    pub vector_cells: u64,
    /// `true` iff any lane saturated at the element's `MAX`; the caller
    /// must recompute the group exactly (promote `i16 → i32`, or fall
    /// back to the scalar kernel).
    pub saturated: bool,
}

/// One packed lane's restored inter-row state: the kernel's `m` and
/// `maxy` over the lane's *own* columns (`q ∈ [r, m)`), exactly the
/// layout of a scalar [`repro_align::Checkpoint`] for that split.
#[derive(Debug, Clone, Copy)]
pub struct LaneResume<'a> {
    /// `M[row−1][x]` for the lane's columns.
    pub m: &'a [Score],
    /// Per-column vertical-gap running maxima after row `row−1`.
    pub maxy: &'a [Score],
}

/// Resume input for a group sweep: every packed lane's state after rows
/// `0..row` (one entry per lane, same order as `rs`). All lanes resume
/// from the same row — the engines pick the deepest checkpoint row that
/// is valid and present for *every* packed lane.
#[derive(Debug, Clone)]
pub struct GroupResume<'a> {
    /// Rows `0..row` are already reflected in the state (`row ≥ 1`).
    pub row: usize,
    /// Per-lane restored state, `lanes[l]` for split `rs[l]`.
    pub lanes: Vec<LaneResume<'a>>,
}

/// One inter-row snapshot captured during a group sweep, de-interleaved
/// back to per-lane scalar state.
#[derive(Debug, Clone)]
pub struct GroupCapture {
    /// The snapshot reflects rows `0..row`.
    pub row: usize,
    /// Per packed lane: `(m, maxy)` over the lane's own columns — the
    /// exact contents of a scalar checkpoint at this row. `None` for
    /// lanes whose split `rs[l] ≤ row` (their matrix ended above it).
    pub lanes: Vec<Option<(Vec<Score>, Vec<Score>)>>,
}

impl GroupCapture {
    /// This snapshot as the resume input of a later sweep of the same
    /// pack. Every lane must extend below the captured row.
    pub fn as_resume(&self) -> GroupResume<'_> {
        GroupResume {
            row: self.row,
            lanes: self
                .lanes
                .iter()
                .map(|lane| {
                    let (m, maxy) = lane.as_ref().expect("lane ends above the captured row");
                    LaneResume { m, maxy }
                })
                .collect(),
        }
    }
}

/// Stripe width for a group sweep of `lanes` lanes of `elem_bytes`-byte
/// elements: the interleaved previous-row and `MaxY` arrays carry
/// `lanes × elem_bytes` bytes per column each, and the L1 rule
/// ([`repro_align::stripe_for_bytes`]) bounds their combined footprint.
pub const fn group_stripe(lanes: usize, elem_bytes: usize) -> usize {
    stripe_for_bytes(lanes * elem_bytes)
}

/// Default stripe width for an 8-lane `i16` sweep (16 B per column per
/// array), derived from the same L1 rule every other width uses. Wider
/// lanes and promoted `i32` rows get proportionally narrower stripes —
/// see [`group_stripe`].
pub const DEFAULT_GROUP_STRIPE: usize = group_stripe(8, 2);

/// Align the group of `lanes` consecutive splits starting at `r0`
/// (`1 ≤ r0`, `r0 + lanes − 1 ≤ m − 1`) in one interleaved sweep.
/// `triangle = None` means the unmasked first pass.
pub fn align_group<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
) -> GroupResult {
    align_group_striped::<V>(seq, scoring, r0, lanes, triangle, usize::MAX)
}

/// [`align_group`] computed in vertical stripes of `stripe` columns —
/// the cache-aware traversal of paper §4.1 ("we compute a section of
/// the row that fits in a third of the first-level cache, after which
/// we compute the section of the row below it"). Bit-identical results;
/// only the traversal order and the cache behaviour change.
///
/// This is the per-cell **lookup** sweep; [`align_group_profile`] is
/// the faster query-profile variant the engines use.
pub fn align_group_striped<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
) -> GroupResult {
    align_group_lookup_impl::<V>(seq, scoring, r0, lanes, triangle, stripe)
}

/// The query-profile sweep: identical recurrence and results to
/// [`align_group_striped`], but the per-cell substitution lookup is
/// replaced by one contiguous load from `profile` (built once per
/// sequence with the matching element width). `profile.len()` must
/// equal `seq.len()`.
pub fn align_group_profile<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<V::Elem>,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
) -> GroupResult {
    align_group_profile_impl::<V>(seq, scoring, profile, r0, lanes, triangle, stripe)
}

/// The generalised profile sweep: an arbitrary strictly ascending split
/// set `rs`, optional mid-matrix `resume`, and inter-row state capture
/// at each of `capture_rows` (strictly ascending, each strictly between
/// the resume row and `rs[last]`). With `rs` consecutive, `resume =
/// None` and no captures this is exactly [`align_group_profile`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
pub fn align_group_profile_at<V: SimdVec>(
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

/// Shared sweep state: interleaved arrays plus per-row stripe carries.
struct SweepState<V: SimdVec> {
    rmax: usize,
    width: usize,
    vopen: V,
    vext: V,
    mrow: Vec<V>,
    maxy: Vec<V>,
    maxx_carry: Vec<V>,
    edge: Vec<V>,
    rows: Vec<Vec<Score>>,
    sat_acc: V,
    /// Interleaved capture buffers, parallel to `Geom::capture_rows`.
    captures: Vec<(Vec<V>, Vec<V>)>,
}

/// Sweep geometry derived from the split set: everything the hot loop
/// needs that does not change per cell.
struct Geom<'a, V: SimdVec> {
    rs: &'a [usize],
    r0: usize,
    /// Columns `qi < border_cols` have at least one inactive lane.
    border_cols: usize,
    /// Active-lane count per bordered column (`rs` is ascending, so the
    /// active lanes are always a prefix).
    keep: Vec<usize>,
    /// `bottom[p] = Some(l)` iff row `p` is lane `l`'s bottom row
    /// (`rs[l] == p + 1`).
    bottom: Vec<Option<usize>>,
    /// First row to compute (rows `0..start` come from restored state).
    start: usize,
    /// The restored `mrow` at `start` — cross-stripe diagonal seed for
    /// the first computed row. Empty when `start == 0`.
    init_m: Vec<V>,
    capture_rows: &'a [usize],
}

#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops mirror the paper's pseudo code
fn sweep_prologue_at<'a, V: SimdVec>(
    m: usize,
    scoring: &Scoring,
    rs: &'a [usize],
    stripe: usize,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &'a [usize],
) -> (SweepState<V>, Geom<'a, V>) {
    let lanes = rs.len();
    assert!(lanes >= 1 && lanes <= V::LANES, "bad lane count");
    assert!(
        rs.windows(2).all(|w| w[0] < w[1]),
        "splits must be strictly ascending"
    );
    let r0 = rs[0];
    let rmax = *rs.last().expect("non-empty split set");
    assert!(r0 >= 1 && rmax <= m.saturating_sub(1), "group out of range");
    assert!(stripe > 0, "stripe width must be positive");
    let width = m - r0; // columns q ∈ [r0, m)

    let gap_open =
        V::Elem::from_score(scoring.gaps.open).expect("gap-open penalty must fit the SIMD element");
    let gap_ext = V::Elem::from_score(scoring.gaps.extend)
        .expect("gap-extend penalty must fit the SIMD element");

    let neg = V::splat(V::Elem::NEG_INF);
    let zero = V::splat(V::Elem::ZERO);

    let start = resume.map_or(0, |rsm| rsm.row);
    assert!(start < r0, "resume row must precede every packed split");
    assert!(
        capture_rows.windows(2).all(|w| w[0] < w[1]),
        "capture rows must be strictly ascending"
    );
    assert!(
        capture_rows.iter().all(|&c| c > start && c < rmax),
        "capture rows must lie strictly between the resume row and rmax"
    );

    let border_cols = rmax - r0;
    let keep: Vec<usize> = (0..border_cols)
        .map(|qi| rs.partition_point(|&r| r <= r0 + qi))
        .collect();
    let mut bottom: Vec<Option<usize>> = vec![None; rmax];
    for (l, &r) in rs.iter().enumerate() {
        bottom[r - 1] = Some(l);
    }

    let (mrow, maxy, init_m, sat_acc) = match resume {
        None => (vec![zero; width], vec![neg; width], Vec::new(), zero),
        Some(rsm) => {
            assert!(rsm.row >= 1, "resume row must be at least 1");
            assert_eq!(rsm.lanes.len(), lanes, "one resume state per lane");
            for (l, st) in rsm.lanes.iter().enumerate() {
                assert_eq!(st.m.len(), m - rs[l], "lane {l} resume width");
                assert_eq!(st.maxy.len(), m - rs[l], "lane {l} resume width");
            }
            // Inactive columns (q < rs[l]) are forced to zero every row,
            // so after ≥ 1 rows their running vertical-gap maximum is
            // the constant `(0 − open) − ext` — reconstructed here, no
            // interleaved state needed.
            let inactive_maxy = V::Elem::ZERO.vsub(gap_open).vsub(gap_ext);
            let mut mrow = Vec::with_capacity(width);
            let mut maxy = Vec::with_capacity(width);
            for qi in 0..width {
                let q = r0 + qi;
                mrow.push(V::from_fn(|l| {
                    if l < lanes && q >= rs[l] {
                        V::Elem::from_score_sat(rsm.lanes[l].m[q - rs[l]])
                    } else {
                        V::Elem::ZERO
                    }
                }));
                maxy.push(V::from_fn(|l| {
                    if l < lanes && q >= rs[l] {
                        V::Elem::from_score_sat(rsm.lanes[l].maxy[q - rs[l]])
                    } else {
                        inactive_maxy
                    }
                }));
            }
            let init_m = mrow.clone();
            // Seed the saturation accumulator from the restored row so a
            // restored sentinel is never missed.
            let sat = mrow.iter().fold(zero, |acc, &v| acc.max(v));
            (mrow, maxy, init_m, sat)
        }
    };

    let st = SweepState {
        rmax,
        width,
        vopen: V::splat(gap_open),
        vext: V::splat(gap_ext),
        // Interleaved previous-row and MaxY arrays (Figure 7): element qi
        // packs the `lanes` matrices' entries for column q = r0 + qi.
        mrow,
        maxy,
        // Per-row carries across stripe boundaries (cf. the scalar striped
        // kernel): the running horizontal-gap maximum and the previous
        // stripe's last-column value (the next stripe's diagonal input).
        maxx_carry: vec![neg; rmax],
        edge: vec![zero; rmax],
        rows: rs.iter().map(|&r| vec![0; m - r]).collect(),
        sat_acc,
        captures: capture_rows
            .iter()
            .map(|_| (vec![zero; width], vec![zero; width]))
            .collect(),
    };
    let geom = Geom {
        rs,
        r0,
        border_cols,
        keep,
        bottom,
        start,
        init_m,
        capture_rows,
    };
    (st, geom)
}

#[inline(always)]
fn finish<V: SimdVec>(
    st: SweepState<V>,
    geom: &Geom<'_, V>,
    m: usize,
) -> (GroupResult, Vec<GroupCapture>) {
    let cells: u64 = geom
        .rs
        .iter()
        .map(|&r| (r - geom.start) as u64 * (m - r) as u64)
        .sum();
    // De-interleave the capture buffers into per-lane scalar state,
    // column by column (one vector, all its live lanes). Plain loops on
    // purpose: a closure here would be a function of its own outside
    // the `#[target_feature]` trampoline this is inlined into, and
    // every lane read in it a call.
    let mut captures = Vec::with_capacity(geom.capture_rows.len());
    for (&row, (mbuf, ybuf)) in geom.capture_rows.iter().zip(&st.captures) {
        let mut lanes: Vec<Option<(Vec<Score>, Vec<Score>)>> = Vec::with_capacity(geom.rs.len());
        for &r in geom.rs {
            lanes.push(if row < r {
                Some((vec![0; m - r], vec![0; m - r]))
            } else {
                None
            });
        }
        for qi in 0..st.width {
            let (mv, yv) = (mbuf[qi], ybuf[qi]);
            // Lane l owns column q iff q ≥ rs[l]: a prefix of the lanes.
            let active = if qi < geom.border_cols {
                geom.keep[qi]
            } else {
                geom.rs.len()
            };
            for (l, lane) in lanes[..active].iter_mut().enumerate() {
                if let Some((mj, yj)) = lane {
                    let x = geom.r0 + qi - geom.rs[l];
                    mj[x] = mv.get(l).to_score();
                    yj[x] = yv.get(l).to_score();
                }
            }
        }
        captures.push(GroupCapture { row, lanes });
    }
    let result = GroupResult {
        r0: geom.r0,
        lanes: geom.rs.len(),
        saturated: st.sat_acc.any_saturated(),
        rows: st.rows,
        cells,
        vector_cells: (st.rmax - geom.start) as u64 * st.width as u64,
    };
    (result, captures)
}

/// Where a sweep reads its overridden cells from, monomorphised so the
/// first pass (no triangle — the overwhelmingly common case) compiles
/// to the bare recurrence: with [`NoHits`] the row loop folds to the
/// single column loop and no table is ever built. Mirrors the scalar
/// kernels' `NoMask` / `SplitMask` split.
trait HitCursor {
    /// The next overridden column index `qi < x1` of the sweep's
    /// `row`-th row (counted from the sweep's first row), if any. Within
    /// a row, calls come with non-decreasing `x1` (stripes run left to
    /// right) and each hit is returned once.
    fn next_hit(&mut self, row: usize, x1: usize) -> Option<usize>;
}

/// First-pass cursor: nothing is ever overridden.
struct NoHits;

impl HitCursor for NoHits {
    #[inline(always)]
    fn next_hit(&mut self, _row: usize, _x1: usize) -> Option<usize> {
        None
    }
}

/// The overridden cells of one masked sweep: for each row `start..rmax`,
/// the column indices `qi = q − r0` of the pairs `(p, q)` in the
/// triangle, ascending (CSR), plus a per-row read position.
///
/// Built once per sweep, before the stripe loop, so the row loop reads
/// flat arrays and calls nothing: inside the
/// `#[target_feature(enable = "avx2")]` trampolines every `ymm` value is
/// caller-saved and a call out of AVX code costs a `vzeroupper`, so a
/// single call per row spills the whole recurrence (gap constants,
/// carries, the saturation accumulator) and halves the rate even of
/// rows that have no hit at all.
struct RowHits {
    /// Row `i`'s hits are `qi[row_end[i − 1]..row_end[i]]`.
    row_end: Vec<u32>,
    qi: Vec<u32>,
    /// Per-row position in `qi`; only ever advances.
    cursor: Vec<u32>,
}

impl RowHits {
    /// Tabulate the rows a sweep of the ascending split set `rs` from
    /// row `start` visits (`start..rs[last]`), over its columns
    /// (`rs[0]..`). Every tabulated pair has `p < q`, so it belongs to a
    /// live lane or to a border column that is zeroed anyway.
    fn tabulate(triangle: &OverrideTriangle, rs: &[usize], start: usize) -> Self {
        let (r0, rmax) = match (rs.first(), rs.last()) {
            (Some(&r0), Some(&rmax)) => (r0, rmax),
            _ => (0, 0), // rejected by the sweep prologue
        };
        let rows = rmax.saturating_sub(start);
        let mut cursor = Vec::with_capacity(rows);
        let mut row_end = Vec::with_capacity(rows);
        let mut qi = Vec::with_capacity(triangle.len()); // no regrowth mid-tabulation
        for p in start..rmax {
            cursor.push(qi.len() as u32);
            let hits = triangle.row_range(p, r0, usize::MAX);
            qi.extend(hits.iter().map(|&q| q - r0 as u32));
            row_end.push(qi.len() as u32);
        }
        RowHits {
            row_end,
            qi,
            cursor,
        }
    }
}

impl HitCursor for RowHits {
    #[inline(always)]
    fn next_hit(&mut self, row: usize, x1: usize) -> Option<usize> {
        let k = self.cursor[row];
        if k == self.row_end[row] {
            return None;
        }
        let hit = self.qi[k as usize] as usize;
        if hit >= x1 {
            return None;
        }
        self.cursor[row] = k + 1;
        Some(hit)
    }
}

/// The recurrence over columns `$lo..$hi` of one row, none of them
/// overridden. `$maxx`/`$diag` name the row's running state in the
/// caller ([`sweep_body`]).
macro_rules! sweep_cells {
    ($V:ty, $st:ident, $geom:ident, $maxx:ident, $diag:ident,
     $qi:ident in $lo:expr, $hi:expr, $cell_exch:expr) => {
        for $qi in $lo..$hi {
            let up = $st.mrow[$qi];
            let exch = $cell_exch;
            let mut v = $diag
                .max($maxx)
                .max($st.maxy[$qi])
                .adds(<$V>::splat(exch))
                .max(<$V>::splat(SimdElem::ZERO));
            // Left-border correction (lane l is active iff q ≥ rs[l];
            // active lanes are a prefix because rs is ascending).
            if $qi < $geom.border_cols {
                v = v.zero_lanes_from($geom.keep[$qi]);
            }
            $st.sat_acc = $st.sat_acc.max(v);
            $st.mrow[$qi] = v;
            let cand = $diag.subs($st.vopen);
            $maxx = cand.max($maxx).subs($st.vext);
            $st.maxy[$qi] = cand.max($st.maxy[$qi]).subs($st.vext);
            $diag = up;
        }
    };
}

/// The two sweep bodies are textually parallel; this macro holds the
/// shared stripe/row/column loop so the lookup and profile variants
/// differ only in how `exch` is produced (`$row_setup` runs once per
/// row, `$cell_exch` once per cell). A macro rather than a closure
/// keeps everything monomorphic and `inline(always)`-friendly for the
/// `#[target_feature]` trampolines in [`crate::dispatch`].
macro_rules! sweep_body {
    ($V:ty, $st:ident, $geom:ident, $hits:ident, $stripe:ident,
     |$p:ident| $row_setup:expr, |$rowctx:ident, $qi:ident| $cell_exch:expr) => {{
        let start = $geom.start;
        let mut x0 = 0;
        while x0 < $st.width {
            let x1 = x0.saturating_add($stripe).min($st.width);
            // Row p consumes row p−1's *old* edge value; rows run top to
            // bottom, so carry it across one iteration. For a resumed
            // sweep the first computed row's diagonal input is the
            // restored row's previous-stripe edge.
            let mut above_old_edge = if start > 0 && x0 > 0 {
                $geom.init_m[x0 - 1]
            } else {
                <$V>::splat(SimdElem::ZERO)
            };
            let mut cap_idx = 0usize;
            for $p in start..$st.rmax {
                let my_old_edge = $st.edge[$p];
                let $rowctx = $row_setup;
                let mut maxx = if x0 == 0 {
                    <$V>::splat(SimdElem::NEG_INF)
                } else {
                    $st.maxx_carry[$p]
                };
                // At x0 == 0 the diagonal input is the virtual zero
                // column; elsewhere it is the row above's previous-stripe
                // edge (seeded before the loop for the first row: zero at
                // the matrix top, the restored row's edge on a resume).
                let mut diag = if x0 == 0 {
                    <$V>::splat(SimdElem::ZERO)
                } else {
                    above_old_edge
                };
                // Lane-uniform override masking, monomorphised away on
                // the first pass: the plain cells up to each hit of this
                // row inside the stripe, then the hit itself — all lanes
                // zero, so nothing reaches `sat_acc`, while the gap
                // maxima and the diagonal advance as for any cell.
                let mut seg0 = x0;
                loop {
                    let hit = $hits.next_hit($p - start, x1);
                    let stop = hit.unwrap_or(x1);
                    sweep_cells!($V, $st, $geom, maxx, diag, $qi in seg0, stop, $cell_exch);
                    if hit.is_none() {
                        break;
                    }
                    let up = $st.mrow[stop];
                    $st.mrow[stop] = <$V>::splat(SimdElem::ZERO);
                    let cand = diag.subs($st.vopen);
                    maxx = cand.max(maxx).subs($st.vext);
                    $st.maxy[stop] = cand.max($st.maxy[stop]).subs($st.vext);
                    diag = up;
                    seg0 = stop + 1;
                }
                $st.maxx_carry[$p] = maxx;
                $st.edge[$p] = $st.mrow[x1 - 1];
                above_old_edge = my_old_edge;
                // Bottom-border capture for this stripe's segment: row p is
                // the bottom row of lane l iff rs[l] = p + 1, and segment
                // values are final once computed.
                if let Some(l) = $geom.bottom[$p] {
                    let rl = $geom.rs[l];
                    for qi in x0.max(rl - $geom.r0)..x1 {
                        $st.rows[l][$geom.r0 + qi - rl] = $st.mrow[qi].get(l).to_score();
                    }
                }
                // Checkpoint capture: after row p the state reflects rows
                // 0..p+1 — exactly what a resume at row p+1 needs.
                while cap_idx < $geom.capture_rows.len()
                    && $geom.capture_rows[cap_idx] == $p + 1
                {
                    let (mbuf, ybuf) = &mut $st.captures[cap_idx];
                    mbuf[x0..x1].copy_from_slice(&$st.mrow[x0..x1]);
                    ybuf[x0..x1].copy_from_slice(&$st.maxy[x0..x1]);
                    cap_idx += 1;
                }
            }
            x0 = x1;
        }
    }};
}

#[inline(always)]
pub(crate) fn align_group_lookup_impl<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
) -> GroupResult {
    let rs: Vec<usize> = (0..lanes).map(|l| r0 + l).collect();
    match triangle.filter(|t| !t.is_empty()) {
        None => lookup_sweep::<V, _>(seq, scoring, &rs, NoHits, stripe),
        Some(t) => lookup_sweep::<V, _>(seq, scoring, &rs, RowHits::tabulate(t, &rs, 0), stripe),
    }
}

#[inline(always)]
fn lookup_sweep<V: SimdVec, H: HitCursor>(
    seq: &[u8],
    scoring: &Scoring,
    rs: &[usize],
    mut hits: H,
    stripe: usize,
) -> GroupResult {
    let m = seq.len();
    let (mut st, geom) = sweep_prologue_at::<V>(m, scoring, rs, stripe, None, &[]);

    // One-time narrowing of the exchange table to the lane element keeps
    // the hot loop free of checked conversions.
    let k = scoring.exchange.alphabet().len();
    let exch: Vec<V::Elem> = (0..k * k)
        .map(|i| {
            V::Elem::from_score(scoring.exchange.score((i / k) as u8, (i % k) as u8))
                .expect("exchange scores must fit the SIMD element")
        })
        .collect();

    sweep_body!(
        V,
        st,
        geom,
        hits,
        stripe,
        |p| &exch[seq[p] as usize * k..(seq[p] as usize + 1) * k],
        |exch_row, qi| exch_row[seq[geom.r0 + qi] as usize]
    );
    finish(st, &geom, m).0
}

#[inline(always)]
pub(crate) fn align_group_profile_impl<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<V::Elem>,
    r0: usize,
    lanes: usize,
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
) -> GroupResult {
    let rs: Vec<usize> = (0..lanes).map(|l| r0 + l).collect();
    align_group_profile_at_impl::<V>(seq, scoring, profile, &rs, triangle, stripe, None, &[]).0
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
pub(crate) fn align_group_profile_at_impl<V: SimdVec>(
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<V::Elem>,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    match triangle.filter(|t| !t.is_empty()) {
        None => profile_sweep::<V, _>(
            seq,
            scoring,
            profile,
            rs,
            NoHits,
            stripe,
            resume,
            capture_rows,
        ),
        Some(t) => profile_sweep::<V, _>(
            seq,
            scoring,
            profile,
            rs,
            RowHits::tabulate(t, rs, resume.map_or(0, |rsm| rsm.row)),
            stripe,
            resume,
            capture_rows,
        ),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
fn profile_sweep<V: SimdVec, H: HitCursor>(
    seq: &[u8],
    scoring: &Scoring,
    profile: &QueryProfile<V::Elem>,
    rs: &[usize],
    mut hits: H,
    stripe: usize,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
) -> (GroupResult, Vec<GroupCapture>) {
    let m = seq.len();
    assert_eq!(profile.len(), m, "profile must cover the whole sequence");
    let (mut st, geom) = sweep_prologue_at::<V>(m, scoring, rs, stripe, resume, capture_rows);

    sweep_body!(
        V,
        st,
        geom,
        hits,
        stripe,
        |p| profile.row(seq[p], geom.r0),
        |prow, qi| prow[qi]
    );
    finish(st, &geom, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{I16x16, I16x4, I16x8, I32x16, I32x8};
    use repro_align::{sw_last_row, NoMask, Seq};
    use repro_core::SplitMask;

    fn scalar_row(
        seq: &Seq,
        scoring: &Scoring,
        r: usize,
        t: Option<&OverrideTriangle>,
    ) -> Vec<Score> {
        let (prefix, suffix) = seq.split(r);
        match t {
            Some(t) => sw_last_row(prefix, suffix, scoring, SplitMask::new(t, r)).row,
            None => sw_last_row(prefix, suffix, scoring, NoMask).row,
        }
    }

    #[test]
    fn group_matches_scalar_per_split_unmasked() {
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGT").unwrap();
        let scoring = Scoring::dna_example();
        for r0 in [1, 3, 7, 15] {
            let lanes = 4.min(seq.len() - 1 - r0 + 1).min(4);
            let g = align_group::<I16x4>(seq.codes(), &scoring, r0, lanes, None);
            for l in 0..lanes {
                let want = scalar_row(&seq, &scoring, r0 + l, None);
                assert_eq!(g.rows[l], want, "split {} in group r0={r0}", r0 + l);
            }
        }
    }

    #[test]
    fn group_matches_scalar_with_mask() {
        let seq = Seq::dna("ATGCATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let mut t = OverrideTriangle::new(seq.len());
        for &(p, q) in &[(0, 4), (1, 5), (2, 6), (3, 7), (5, 13), (2, 11)] {
            t.set(p, q);
        }
        for r0 in [1, 5, 9] {
            let g = align_group::<I16x8>(seq.codes(), &scoring, r0, 4, Some(&t));
            for l in 0..4 {
                let want = scalar_row(&seq, &scoring, r0 + l, Some(&t));
                assert_eq!(g.rows[l], want, "masked split {}", r0 + l);
            }
        }
    }

    #[test]
    fn eight_lanes_match_scalar() {
        let seq = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFND").unwrap();
        let scoring = Scoring::protein_default();
        let g = align_group::<I16x8>(seq.codes(), &scoring, 5, 8, None);
        assert!(!g.saturated);
        for l in 0..8 {
            let want = scalar_row(&seq, &scoring, 5 + l, None);
            assert_eq!(g.rows[l], want, "split {}", 5 + l);
        }
    }

    #[test]
    fn sixteen_lanes_match_scalar() {
        let seq = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFNDAGHTKLMNPQ").unwrap();
        let scoring = Scoring::protein_default();
        let g = align_group::<I16x16>(seq.codes(), &scoring, 7, 16, None);
        assert!(!g.saturated);
        for l in 0..16 {
            let want = scalar_row(&seq, &scoring, 7 + l, None);
            assert_eq!(g.rows[l], want, "split {}", 7 + l);
        }
    }

    #[test]
    fn profile_sweep_matches_lookup_sweep() {
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTTAC").unwrap();
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let mut t = OverrideTriangle::new(seq.len());
        for &(p, q) in &[(0, 4), (3, 9), (7, 20)] {
            t.set(p, q);
        }
        for tri in [None, Some(&t)] {
            for (r0, lanes) in [(1, 8), (5, 8), (9, 4), (20, 2)] {
                let lookup = align_group_striped::<I16x8>(seq.codes(), &scoring, r0, lanes, tri, 7);
                let profile =
                    align_group_profile::<I16x8>(seq.codes(), &scoring, &prof, r0, lanes, tri, 7);
                assert_eq!(profile.rows, lookup.rows, "r0={r0} lanes={lanes}");
                assert_eq!(profile.cells, lookup.cells);
                assert_eq!(profile.vector_cells, lookup.vector_cells);
            }
        }
    }

    #[test]
    fn wide_lanes_match_scalar_exactly() {
        // The i32 promotion sweep is the scalar recurrence, vectorised:
        // identical rows even where i16 would clamp.
        let seq = Seq::dna(&"A".repeat(80)).unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 1000, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let prof = QueryProfile::new_wide(&scoring, seq.codes());
        let g = align_group_profile::<I32x8>(seq.codes(), &scoring, &prof, 38, 8, None, 64);
        assert!(!g.saturated);
        for l in 0..8 {
            let want = scalar_row(&seq, &scoring, 38 + l, None);
            assert_eq!(g.rows[l], want, "wide split {}", 38 + l);
        }
        let g16 = align_group_profile::<I32x16>(seq.codes(), &scoring, &prof, 30, 16, None, 64);
        assert!(!g16.saturated);
        for l in 0..16 {
            let want = scalar_row(&seq, &scoring, 30 + l, None);
            assert_eq!(g16.rows[l], want, "wide x16 split {}", 30 + l);
        }
    }

    #[test]
    fn short_tail_group() {
        // Group at the end of the sequence with fewer live lanes.
        let seq = Seq::dna("ATGCATGCAT").unwrap();
        let scoring = Scoring::dna_example();
        let g = align_group::<I16x4>(seq.codes(), &scoring, 8, 2, None);
        assert_eq!(g.lanes, 2);
        for l in 0..2 {
            let want = scalar_row(&seq, &scoring, 8 + l, None);
            assert_eq!(g.rows[l], want);
        }
    }

    #[test]
    fn single_lane_group() {
        let seq = Seq::dna("ATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let g = align_group::<I16x4>(seq.codes(), &scoring, 4, 1, None);
        assert_eq!(g.rows[0], scalar_row(&seq, &scoring, 4, None));
    }

    #[test]
    fn cells_accounting() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap(); // m = 12
        let scoring = Scoring::dna_example();
        let g = align_group::<I16x4>(seq.codes(), &scoring, 2, 4, None);
        // Logical: Σ r(m−r) for r = 2..=5.
        let want: u64 = (2..=5).map(|r| r * (12 - r)).sum::<usize>() as u64;
        assert_eq!(g.cells, want);
        // Vector sweep: rmax × width = 5 × 10.
        assert_eq!(g.vector_cells, 50);
    }

    #[test]
    fn saturation_is_detected() {
        // A long perfect repeat with huge match scores overflows i16.
        let seq = Seq::dna(&"A".repeat(80)).unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 1000, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let g = align_group::<I16x4>(seq.codes(), &scoring, 38, 4, None);
        assert!(
            g.saturated,
            "40 000-ish scores must trip the saturation flag"
        );
    }

    #[test]
    fn striped_group_matches_unstriped() {
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTTAC").unwrap();
        let scoring = Scoring::dna_example();
        let mut t = OverrideTriangle::new(seq.len());
        for &(p, q) in &[(0, 4), (3, 9), (7, 20)] {
            t.set(p, q);
        }
        for tri in [None, Some(&t)] {
            let reference = align_group::<I16x8>(seq.codes(), &scoring, 5, 8, tri);
            for w in [1usize, 3, 7, 16, 100] {
                let striped =
                    crate::group::align_group_striped::<I16x8>(seq.codes(), &scoring, 5, 8, tri, w);
                assert_eq!(
                    striped.rows,
                    reference.rows,
                    "stripe {w}, mask {:?}",
                    tri.is_some()
                );
                assert_eq!(striped.cells, reference.cells);
            }
        }
    }

    #[test]
    fn derived_group_stripes() {
        // 8 × i16 = 16 B per column per array → 512 columns under the
        // 16 KiB two-array budget; 16 lanes halve it; promotion to i32
        // halves it again.
        assert_eq!(DEFAULT_GROUP_STRIPE, group_stripe(8, 2));
        assert_eq!(group_stripe(16, 2), DEFAULT_GROUP_STRIPE / 2);
        assert_eq!(group_stripe(16, 4), DEFAULT_GROUP_STRIPE / 4);
        assert!(group_stripe(16, 4) * 2 * 16 * 4 <= repro_align::STRIPE_L1_BUDGET);
    }

    #[test]
    fn compacted_subset_matches_scalar() {
        // A non-consecutive split set — the compacted-resume packing —
        // matches the per-split scalar oracle exactly.
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTTAC").unwrap();
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let mut t = OverrideTriangle::new(seq.len());
        for &(p, q) in &[(0, 4), (3, 9), (7, 20)] {
            t.set(p, q);
        }
        for tri in [None, Some(&t)] {
            for rs in [
                vec![3usize],
                vec![2, 5],
                vec![1, 4, 9, 17],
                vec![6, 7, 11, 20, 28],
                vec![2, 3, 4, 5], // consecutive through the generic path
            ] {
                for stripe in [5usize, 64] {
                    let (g, caps) = align_group_profile_at::<I16x8>(
                        seq.codes(),
                        &scoring,
                        &prof,
                        &rs,
                        tri,
                        stripe,
                        None,
                        &[],
                    );
                    assert!(caps.is_empty());
                    for (l, &r) in rs.iter().enumerate() {
                        let want = scalar_row(&seq, &scoring, r, tri);
                        assert_eq!(g.rows[l], want, "split {r} in {rs:?} stripe {stripe}");
                    }
                }
            }
        }
    }

    #[test]
    fn capture_then_resume_is_bit_identical() {
        // Capture inter-row state mid-sweep, then resume a compacted
        // sweep from it: rows must equal the from-scratch sweep at every
        // capture row and stripe width.
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTTACGTTACA").unwrap();
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let mut t = OverrideTriangle::new(seq.len());
        for &(p, q) in &[(1, 6), (4, 12), (9, 25)] {
            t.set(p, q);
        }
        let rs = vec![7usize, 9, 14, 21];
        for tri in [None, Some(&t)] {
            let capture_rows: Vec<usize> = (1..*rs.last().unwrap()).collect();
            let (scratch, caps) = align_group_profile_at::<I16x8>(
                seq.codes(),
                &scoring,
                &prof,
                &rs,
                tri,
                9,
                None,
                &capture_rows,
            );
            assert_eq!(caps.len(), capture_rows.len());
            for cap in &caps {
                // Only lanes whose split exceeds the capture row can be
                // resumed from it.
                let live: Vec<usize> = rs
                    .iter()
                    .copied()
                    .filter(|&r| r > cap.row)
                    .collect();
                let lanes: Vec<LaneResume<'_>> = cap
                    .lanes
                    .iter()
                    .filter_map(|s| s.as_ref())
                    .map(|(m, y)| LaneResume { m, maxy: y })
                    .collect();
                assert_eq!(lanes.len(), live.len());
                let resume = GroupResume {
                    row: cap.row,
                    lanes,
                };
                for stripe in [4usize, 64] {
                    let (resumed, _) = align_group_profile_at::<I16x8>(
                        seq.codes(),
                        &scoring,
                        &prof,
                        &live,
                        tri,
                        stripe,
                        Some(&resume),
                        &[],
                    );
                    for (l, &r) in live.iter().enumerate() {
                        let fl = rs.iter().position(|&x| x == r).unwrap();
                        assert_eq!(
                            resumed.rows[l], scratch.rows[fl],
                            "split {r} resumed at {} stripe {stripe} mask {}",
                            cap.row,
                            tri.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_capture_restores_into_narrow_and_back() {
        // Checkpoints are Score-typed; restoring them into the wide
        // kernel is exact, and the saturating narrow restore is
        // behaviourally identical when every value fits i16.
        let seq = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFNDAGHTKLMNPQ").unwrap();
        let scoring = Scoring::protein_default();
        let p16 = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let p32 = QueryProfile::new_wide(&scoring, seq.codes());
        let rs = vec![9usize, 13, 22];
        let (scratch, caps) = align_group_profile_at::<I32x8>(
            seq.codes(),
            &scoring,
            &p32,
            &rs,
            None,
            16,
            None,
            &[5, 8],
        );
        for cap in &caps {
            let lanes: Vec<LaneResume<'_>> = cap
                .lanes
                .iter()
                .map(|s| {
                    let (m, y) = s.as_ref().unwrap();
                    LaneResume { m, maxy: y }
                })
                .collect();
            let resume = GroupResume {
                row: cap.row,
                lanes,
            };
            let (wide, _) = align_group_profile_at::<I32x8>(
                seq.codes(),
                &scoring,
                &p32,
                &rs,
                None,
                16,
                Some(&resume),
                &[],
            );
            assert_eq!(wide.rows, scratch.rows, "wide resume at {}", cap.row);
            let (narrow, _) = align_group_profile_at::<I16x8>(
                seq.codes(),
                &scoring,
                &p16,
                &rs,
                None,
                16,
                Some(&resume),
                &[],
            );
            assert!(!narrow.saturated);
            assert_eq!(narrow.rows, scratch.rows, "narrow resume at {}", cap.row);
        }
    }

    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Row `rows − 1` of split `r`'s matrix from the per-cell `naive`
    /// kernel probing a plain cell set — no row index, no segment walk.
    fn naive_row(
        seq: &Seq,
        scoring: &Scoring,
        r: usize,
        rows: usize,
        t: &OverrideTriangle,
    ) -> Vec<Score> {
        let cells = repro_align::SetMask::from_cells(
            t.iter()
                .filter(|&(p, q)| p < r && q >= r)
                .map(|(p, q)| (p, q - r)),
        );
        let (prefix, suffix) = seq.split(r);
        repro_align::sw_last_row_naive(&prefix[..rows], suffix, scoring, &cells).row
    }

    /// Masked sweeps of lane type `V` against the naive oracle: a
    /// consecutive and a compacted split set, a stripe of `STRIPE`
    /// columns, captures at every row and a resume from mid-matrix, on
    /// triangles built to hit every position the segment walk treats
    /// specially, then on random ones.
    fn check_masked_sweeps<V: SimdVec>(
        profile_of: impl Fn(&Scoring, &[u8]) -> QueryProfile<V::Elem>,
    ) {
        const STRIPE: usize = 5;
        let scoring = Scoring::dna_example();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ V::LANES as u64;
        // Mostly `A`: nearly every cell is positive, so a zero in the
        // wrong place (or missing) changes the rows below it.
        let codes = (0..38)
            .map(|_| (rng(&mut seed) % 16).saturating_sub(12) as u8)
            .collect();
        let seq = Seq::from_codes(repro_align::Alphabet::Dna, codes);
        let m = seq.len();
        let prof = profile_of(&scoring, seq.codes());
        let lanes = V::LANES.min(6);
        let r0 = 9;
        let rmax = r0 + lanes - 1;
        let consecutive: Vec<usize> = (r0..=rmax).collect();
        let compacted: Vec<usize> =
            [r0, r0 + 2, r0 + 7, r0 + 8, r0 + 13, r0 + 20][..lanes].to_vec();

        let mut triangles: Vec<Vec<(usize, usize)>> = vec![
            // An empty triangle passed as `Some`.
            vec![],
            // Column 0 of the group (inside the left border) and the
            // last column.
            vec![(0, r0), (3, r0), (1, m - 1), (r0 - 1, m - 1)],
            // Adjacent hits, and hits on both sides of stripe boundaries.
            vec![
                (2, r0 + 11),
                (2, r0 + 12),
                (4, r0 + STRIPE - 1),
                (4, r0 + STRIPE),
            ],
            vec![
                (5, r0 + 2 * STRIPE - 1),
                (6, r0 + 2 * STRIPE),
                (6, r0 + 3 * STRIPE),
            ],
            // Inside the left-border columns, rows above and inside the
            // group's own splits.
            vec![(1, r0 + 1), (2, r0 + 2), (r0, r0 + 1), (r0 + 1, r0 + 3)],
            // Several hits in one row, across three stripes.
            vec![
                (3, r0),
                (3, r0 + 1),
                (3, r0 + 4),
                (3, r0 + 5),
                (3, r0 + 6),
                (3, r0 + 13),
                (3, m - 1),
            ],
            // Hits left of the group are ignored, in rows that have
            // nothing else and in a row that also has a real hit.
            vec![
                (0, 3),
                (1, r0 - 1),
                (2, 5),
                (2, r0 - 1),
                (2, r0 + 4),
                (7, 8),
            ],
        ];
        for n in [4usize, 12, 30] {
            triangles.push(
                (0..n)
                    .map(|_| {
                        let p = rng(&mut seed) as usize % (m - 1);
                        (p, p + 1 + rng(&mut seed) as usize % (m - p - 1))
                    })
                    .collect(),
            );
        }

        for pairs in &triangles {
            let mut t = OverrideTriangle::new(m);
            for &(p, q) in pairs {
                t.set(p, q);
            }
            let lookup =
                align_group_striped::<V>(seq.codes(), &scoring, r0, lanes, Some(&t), STRIPE);
            for rs in [&consecutive, &compacted] {
                let want: Vec<Vec<Score>> = rs
                    .iter()
                    .map(|&r| naive_row(&seq, &scoring, r, r, &t))
                    .collect();
                if rs == &consecutive {
                    assert_eq!(lookup.rows, want, "lookup sweep, triangle {pairs:?}");
                }
                let capture_rows: Vec<usize> = (1..*rs.last().unwrap()).collect();
                let (scratch, caps) = align_group_profile_at::<V>(
                    seq.codes(),
                    &scoring,
                    &prof,
                    rs,
                    Some(&t),
                    STRIPE,
                    None,
                    &capture_rows,
                );
                assert!(!scratch.saturated);
                assert_eq!(scratch.rows, want, "splits {rs:?}, triangle {pairs:?}");
                // Every captured row, not only the bottom ones: the whole
                // matrix of every lane agrees with the oracle.
                for cap in &caps {
                    for (lane, &r) in cap.lanes.iter().zip(rs) {
                        if let Some((m_row, _)) = lane {
                            let want = naive_row(&seq, &scoring, r, cap.row, &t);
                            assert_eq!(m_row, &want, "row {} of split {r}, {pairs:?}", cap.row - 1);
                        }
                    }
                }
                // Resume every lane from the capture halfway down the
                // shallowest split.
                let cap = &caps[rs[0] / 2];
                let state: Vec<LaneResume<'_>> = cap
                    .lanes
                    .iter()
                    .map(|l| {
                        let (m, maxy) = l.as_ref().expect("capture above every split");
                        LaneResume { m, maxy }
                    })
                    .collect();
                let resume = GroupResume {
                    row: cap.row,
                    lanes: state,
                };
                for stripe in [STRIPE, usize::MAX] {
                    let (resumed, _) = align_group_profile_at::<V>(
                        seq.codes(),
                        &scoring,
                        &prof,
                        rs,
                        Some(&t),
                        stripe,
                        Some(&resume),
                        &[],
                    );
                    assert_eq!(
                        resumed.rows, want,
                        "resume at row {} stripe {stripe}, splits {rs:?}, triangle {pairs:?}",
                        cap.row
                    );
                }
            }
        }
    }

    fn narrow(scoring: &Scoring, codes: &[u8]) -> QueryProfile<i16> {
        QueryProfile::new_narrow(scoring, codes).expect("DNA scores fit i16")
    }

    #[test]
    fn masked_sweeps_match_naive_at_every_portable_width() {
        check_masked_sweeps::<I16x4>(narrow);
        check_masked_sweeps::<I16x8>(narrow);
        check_masked_sweeps::<I16x16>(narrow);
        check_masked_sweeps::<crate::lanes::I32x4>(QueryProfile::new_wide);
        check_masked_sweeps::<I32x8>(QueryProfile::new_wide);
        check_masked_sweeps::<I32x16>(QueryProfile::new_wide);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn masked_sweeps_match_naive_on_core_arch_lanes() {
        use crate::lanes::{avx2::I16x16Avx2, sse2::I16x4Sse2, sse2::I16x8Sse2};
        check_masked_sweeps::<I16x4Sse2>(narrow);
        check_masked_sweeps::<I16x8Sse2>(narrow);
        if crate::test_support::require_avx2("masked_sweeps_match_naive_on_core_arch_lanes") {
            check_masked_sweeps::<I16x16Avx2>(narrow);
        }
    }

    /// The only cell that would reach `i16::MAX` is overridden: the
    /// forced zero, not the value the recurrence would have produced,
    /// is what the saturation accumulator sees — no promotion sweep.
    #[test]
    fn overridden_cell_never_trips_saturation() {
        // One exact 8-residue repeat on a single diagonal, 4096 per
        // match: the running score saturates at the 8th match only,
        // cell (7, 19), and every other cell stays below 7 × 4096.
        let seq = Seq::protein("ACDEFGHIKLMNACDEFGHI").unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Protein, 4096, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let rs = [8usize, 9, 10, 11, 12];
        let sweep = |t: &OverrideTriangle, stripe| {
            align_group_profile_at::<I16x8>(
                seq.codes(),
                &scoring,
                &prof,
                &rs,
                Some(t),
                stripe,
                None,
                &[],
            )
            .0
        };
        let mut elsewhere = OverrideTriangle::new(seq.len());
        elsewhere.set(0, 13);
        let mut on_it = OverrideTriangle::new(seq.len());
        on_it.set(7, 19);
        for stripe in [4usize, 64] {
            assert!(
                sweep(&elsewhere, stripe).saturated,
                "control: (7, 19) saturates"
            );
            let g = sweep(&on_it, stripe);
            assert!(!g.saturated, "an overridden cell leaked into sat_acc");
            for (l, &r) in rs.iter().enumerate() {
                assert_eq!(g.rows[l], scalar_row(&seq, &scoring, r, Some(&on_it)));
            }
            let lookup =
                align_group_striped::<I16x8>(seq.codes(), &scoring, 8, 5, Some(&on_it), stripe);
            assert!(!lookup.saturated);
        }
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn sse2_kernel_matches_portable() {
        use crate::lanes::sse2::I16x8Sse2;
        let seq = Seq::dna("ATGCATGCATGCACGGTTACGTAACCGGTT").unwrap();
        let scoring = Scoring::dna_example();
        let a = align_group::<I16x8>(seq.codes(), &scoring, 3, 8, None);
        let b = align_group::<I16x8Sse2>(seq.codes(), &scoring, 3, 8, None);
        assert_eq!(a.rows, b.rows);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn avx2_kernel_matches_portable() {
        use crate::lanes::avx2::I16x16Avx2;
        if !crate::test_support::require_avx2("avx2_kernel_matches_portable") {
            return;
        }
        let seq = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFNDAGHTKLMNPQ").unwrap();
        let scoring = Scoring::protein_default();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        let a = align_group::<I16x16>(seq.codes(), &scoring, 3, 16, None);
        let b = align_group::<I16x16Avx2>(seq.codes(), &scoring, 3, 16, None);
        assert_eq!(a.rows, b.rows);
        let c = align_group_profile::<I16x16Avx2>(seq.codes(), &scoring, &prof, 3, 16, None, 16);
        assert_eq!(a.rows, c.rows);
    }
}
