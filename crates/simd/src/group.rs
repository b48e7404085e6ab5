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
//! reference). Nothing here checks for overflow: the `i16` element is
//! exact on a pack whose score bound fits it, which the caller decides
//! before the sweep (`GroupSweeper`, DESIGN.md "Group recurrence
//! bound"), and every other pack runs on the `i32` element.
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
//!   lane's first real column. Only columns `q < rs[last]` need this:
//!   each has a *kill vector* (`MAX` in its dead lanes, built once per
//!   sweep) that the clamped cell value is reduced by and clamped
//!   again, two vector ops, in a loop of their own ahead of the row's
//!   interior;
//! * **bottom**: lane `l`'s matrix ends at row `rs[l] − 1`; its bottom
//!   row is captured when that row completes, and deeper rows of the
//!   lane are dead weight (the paper's speculation cost): they feed no
//!   live cell, bottom row or capture, so an `i16` lane may clamp there.
//! * **override**: cell `(p, q)` represents sequence pair `(p, q)` in
//!   *every* lane, so the triangle mask is lane-uniform — one zero
//!   serves all lanes. The overridden columns of every swept row are
//!   tabulated once per sweep (`RowHits`); a row runs the plain
//!   recurrence and then zeroes its hits, as the one-matrix kernels do.

use crate::lanes::{SimdElem, SimdVec};
use repro_align::kernel::row::NarrowBody;
use repro_align::{stripe_for_bytes, GapPenalties, QueryProfile, Score, Scoring};
pub use repro_core::pack::{GroupCapture, GroupResume, LaneResume};
use repro_core::OverrideTriangle;

/// Per-lane results of one group alignment.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// First (smallest) split in the group.
    pub r0: usize,
    /// Number of live lanes (the final group of a sequence may be short).
    pub lanes: usize,
    /// Per-lane bottom rows; entry `l` is the bottom row of the group's
    /// `l`-th split (length `m − r`).
    pub rows: Vec<Vec<Score>>,
    /// Logical cells actually computed (sum over lanes of each split's
    /// rows below the resume row × its own columns) — comparable with
    /// the sequential engine's counters.
    pub cells: u64,
    /// Vector-sweep cells (`rows × width`), the actual SIMD work incl.
    /// dead lanes; `cells / (vector_cells × LANES)` is lane utilisation.
    pub vector_cells: u64,
}

/// Is the `i16` element exact on the pack `rs` of a length-`m` sequence,
/// under exchange scores up to `peak` and `gaps`? Every live cell of
/// lane `r` is at most `peak⁺ · min(r, m − r)`, so this is the row body's
/// bound ([`NarrowBody::exact_for`]) at the pack's widest lane (DESIGN.md,
/// "Group recurrence bound").
pub fn pack_fits_i16(peak: Score, m: usize, rs: &[usize], gaps: GapPenalties) -> bool {
    let pairs = rs.iter().map(|&r| r.min(m - r)).max().unwrap_or(0);
    NarrowBody::exact_for(peak, pairs, gaps)
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
    let rs: Vec<usize> = (r0..r0 + lanes).collect();
    align_group_profile_at_impl::<V>(seq, scoring, profile, &rs, triangle, stripe, None, &[]).0
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
    /// Per-lane bottom rows, written in `i32` as each stripe of a lane's
    /// bottom row completes.
    rows: Vec<Vec<Score>>,
    /// Interleaved capture buffers, parallel to `Geom::capture_rows`.
    captures: Vec<(Vec<V>, Vec<V>)>,
}

/// Sweep geometry derived from the split set: everything the hot loop
/// needs that does not change per cell.
struct Geom<'a, V: SimdVec> {
    rs: &'a [usize],
    r0: usize,
    /// Left-border kill vectors, one per bordered column (`qi <
    /// kill.len() = rs[last] − r0`, the columns with at least one
    /// inactive lane; at most `LANES − 1` of them for a consecutive
    /// group): see [`border_kill`].
    kill: Vec<V>,
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

/// The kill vector of a bordered column whose first `keep` lanes are
/// live (`rs` is ascending, so the live lanes are always a prefix):
/// `MAX` in the dead lanes, zero in the live ones.
#[inline(always)]
fn border_kill<V: SimdVec>(keep: usize) -> V {
    let mut kill = V::splat(V::Elem::ZERO);
    kill.lanes_mut()[keep..].fill(V::Elem::MAX);
    kill
}

/// The left-border correction: force the dead lanes of a cell value to
/// zero, leave the live ones alone. `v` must already be clamped at
/// zero: `v − MAX ≤ 0` then holds in either overflow discipline, while
/// on the wrapping `i32` element a negative pre-clamp value minus
/// `i32::MAX` would wrap around to a positive one.
#[inline(always)]
fn kill_dead_lanes<V: SimdVec>(v: V, kill: V) -> V {
    v.subs(kill).max(V::splat(V::Elem::ZERO))
}

#[inline(always)]
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

    // Lane l is live in column q iff q ≥ rs[l].
    let kill: Vec<V> = (r0..rmax)
        .map(|q| border_kill(rs.partition_point(|&r| r <= q)))
        .collect();
    let mut bottom: Vec<Option<usize>> = vec![None; rmax];
    for (l, &r) in rs.iter().enumerate() {
        bottom[r - 1] = Some(l);
    }

    let (mrow, maxy, init_m) = match resume {
        None => (vec![zero; width], vec![neg; width], Vec::new()),
        Some(rsm) => {
            assert!(rsm.row >= 1, "resume row must be at least 1");
            assert_eq!(rsm.lanes.len(), lanes, "one resume state per lane");
            // Inactive columns (q < rs[l]) are forced to zero every row,
            // so after ≥ 1 rows their running vertical-gap maximum is
            // the constant `(0 − open) − ext` — reconstructed here, no
            // interleaved state needed.
            let inactive_maxy = V::Elem::ZERO.vsub(gap_open).vsub(gap_ext);
            let mut mrow = vec![zero; width];
            let mut maxy = vec![V::splat(inactive_maxy); width];
            // Lane by lane: one strided pass over the lane's own
            // columns per array, no per-element liveness test.
            for (l, (st, &r)) in rsm.lanes.iter().zip(rs).enumerate() {
                assert_eq!(st.m.len(), m - r, "lane {l} resume width");
                assert_eq!(st.maxy.len(), m - r, "lane {l} resume width");
                for (v, &x) in mrow[r - r0..].iter_mut().zip(st.m) {
                    v.lanes_mut()[l] = V::Elem::from_score_sat(x);
                }
                for (v, &x) in maxy[r - r0..].iter_mut().zip(st.maxy) {
                    v.lanes_mut()[l] = V::Elem::from_score_sat(x);
                }
            }
            let init_m = mrow.clone();
            (mrow, maxy, init_m)
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
        captures: capture_rows
            .iter()
            .map(|_| (vec![zero; width], vec![zero; width]))
            .collect(),
    };
    let geom = Geom {
        rs,
        r0,
        kill,
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
    // De-interleave the capture buffers into per-lane scalar state, lane
    // by lane: one strided pass over the lane's own columns per array.
    let lane_of = |buf: &[V], l: usize, r: usize| -> Vec<Score> {
        buf[r - geom.r0..]
            .iter()
            .map(|v| v.lanes()[l].to_score())
            .collect()
    };
    let captures = geom
        .capture_rows
        .iter()
        .zip(&st.captures)
        .map(|(&row, (mbuf, ybuf))| GroupCapture {
            row,
            lanes: geom
                .rs
                .iter()
                .enumerate()
                .map(|(l, &r)| (row < r).then(|| (lane_of(mbuf, l, r), lane_of(ybuf, l, r))))
                .collect(),
        })
        .collect();
    let result = GroupResult {
        r0: geom.r0,
        lanes: geom.rs.len(),
        rows: st.rows,
        cells,
        vector_cells: (st.rmax - geom.start) as u64 * st.width as u64,
    };
    (result, captures)
}

/// Where a sweep reads its overridden cells from, monomorphised so the
/// first pass (no triangle — the overwhelmingly common case) compiles
/// to the bare recurrence: with [`NoHits`] a row is one run of cells
/// and no table is ever built. Mirrors the scalar kernels' `NoMask` /
/// `SplitMask` split.
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
/// carries) and halves the rate even of rows that have no hit at all.
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

/// Where a sweep reads its exchange values from — the one thing the
/// lookup and the query-profile sweep differ in.
trait Exchange<E> {
    /// `E(S[p], S[q])` for the columns `q ∈ lo..hi` of row `p`.
    fn cells(&self, p: usize, lo: usize, hi: usize) -> impl Iterator<Item = E>;
}

/// The query profile: one contiguous load per cell.
struct ProfileExchange<'a, E> {
    profile: &'a QueryProfile<E>,
    seq: &'a [u8],
}

impl<E: SimdElem> Exchange<E> for ProfileExchange<'_, E> {
    #[inline(always)]
    fn cells(&self, p: usize, lo: usize, hi: usize) -> impl Iterator<Item = E> {
        self.profile.row(self.seq[p], 0)[lo..hi].iter().copied()
    }
}

/// The exchange table narrowed to the lane element once per sweep (the
/// hot loop stays free of checked conversions): each cell gathers
/// through it, two dependent loads.
struct LookupExchange<'a, E> {
    table: Vec<E>,
    k: usize,
    seq: &'a [u8],
}

impl<E: SimdElem> Exchange<E> for LookupExchange<'_, E> {
    #[inline(always)]
    fn cells(&self, p: usize, lo: usize, hi: usize) -> impl Iterator<Item = E> {
        let row = &self.table[self.seq[p] as usize * self.k..][..self.k];
        self.seq[lo..hi].iter().map(move |&c| row[c as usize])
    }
}

/// What the recurrence carries along a row, plus the sweep-long gap
/// constants: locals of the row loop, so that inside the trampolines
/// they stay in registers from the first cell of a stripe row to the
/// last.
struct RowRegs<V> {
    vopen: V,
    vext: V,
    maxx: V,
    diag: V,
}

impl<V: SimdVec> RowRegs<V> {
    /// One cell of the recurrence: `m`/`y` are the column's `mrow`/`maxy`
    /// entries, `e` its exchange value, `kill` its left-border kill
    /// vector if it is a bordered column.
    #[inline(always)]
    fn cell(&mut self, m: &mut V, y: &mut V, e: V::Elem, kill: Option<V>) {
        let up = *m;
        let mut v = self
            .diag
            .max(self.maxx)
            .max(*y)
            .adds(V::splat(e))
            .max(V::splat(V::Elem::ZERO));
        if let Some(kill) = kill {
            v = kill_dead_lanes(v, kill);
        }
        *m = v;
        let cand = self.diag.subs(self.vopen);
        self.maxx = cand.max(self.maxx).subs(self.vext);
        *y = cand.max(*y).subs(self.vext);
        self.diag = up;
    }
}

/// The stripe/row loop every sweep runs — lookup or profile,
/// any element, masked or not, from row 0 or resumed: it is
/// `#[inline(always)]` all the way down so each `#[target_feature]`
/// trampoline in [`crate::dispatch`] gets its own monomorphic copy.
#[inline(always)]
fn sweep_rows<V: SimdVec, H: HitCursor, X: Exchange<V::Elem>>(
    st: &mut SweepState<V>,
    geom: &Geom<'_, V>,
    hits: &mut H,
    stripe: usize,
    exch: &X,
) {
    let zero = V::splat(V::Elem::ZERO);
    let (start, r0) = (geom.start, geom.r0);
    let border = geom.kill.len();
    let (mrow, maxy) = (&mut st.mrow[..], &mut st.maxy[..]);
    let mut regs = RowRegs {
        vopen: st.vopen,
        vext: st.vext,
        maxx: zero,
        diag: zero,
    };
    let mut x0 = 0;
    while x0 < st.width {
        let x1 = x0.saturating_add(stripe).min(st.width);
        // Row p consumes row p−1's *old* edge value; rows run top to
        // bottom, so carry it across one iteration. For a resumed
        // sweep the first computed row's diagonal input is the
        // restored row's previous-stripe edge.
        let mut above_old_edge = if start > 0 && x0 > 0 {
            geom.init_m[x0 - 1]
        } else {
            zero
        };
        let mut cap_idx = 0usize;
        for p in start..st.rmax {
            let my_old_edge = st.edge[p];
            // At x0 == 0 the diagonal input is the virtual zero
            // column; elsewhere it is the row above's previous-stripe
            // edge (seeded before the loop for the first row: zero at
            // the matrix top, the restored row's edge on a resume).
            (regs.maxx, regs.diag) = if x0 == 0 {
                (V::splat(V::Elem::NEG_INF), zero)
            } else {
                (st.maxx_carry[p], above_old_edge)
            };
            // The stripe's bordered columns, then an interior that
            // carries no border test.
            let inner = border.clamp(x0, x1);
            if x0 < inner {
                let bordered = mrow[x0..inner]
                    .iter_mut()
                    .zip(&mut maxy[x0..inner])
                    .zip(&geom.kill[x0..inner])
                    .zip(exch.cells(p, r0 + x0, r0 + inner));
                for (((m, y), &kill), e) in bordered {
                    regs.cell(m, y, e, Some(kill));
                }
            }
            let interior = mrow[inner..x1]
                .iter_mut()
                .zip(&mut maxy[inner..x1])
                .zip(exch.cells(p, r0 + inner, r0 + x1));
            for ((m, y), e) in interior {
                regs.cell(m, y, e, None);
            }
            // Lane-uniform override masking, monomorphised away on the
            // first pass: zero this row's hits inside the stripe after
            // the fact. No cell of a row reads a value written in that
            // row (the diagonal and both gap maxima come from the row
            // above), so the value a hit held reached nothing, and its
            // gap maxima advanced as for any cell.
            while let Some(hit) = hits.next_hit(p - start, x1) {
                mrow[hit] = zero;
            }
            st.maxx_carry[p] = regs.maxx;
            st.edge[p] = mrow[x1 - 1];
            above_old_edge = my_old_edge;
            // Bottom-border capture for this stripe's part of the row:
            // row p is the bottom row of lane l iff rs[l] = p + 1, and
            // its values are final once its hits are zeroed. The lane's first own
            // column may lie right of this stripe: nothing to copy yet.
            if let Some(l) = geom.bottom[p] {
                let own = geom.rs[l] - r0;
                let lo = x0.max(own);
                if lo < x1 {
                    for (out, v) in st.rows[l][lo - own..x1 - own].iter_mut().zip(&mrow[lo..x1]) {
                        *out = v.lanes()[l].to_score();
                    }
                }
            }
            // Checkpoint capture: after row p the state reflects rows
            // 0..p+1 — exactly what a resume at row p+1 needs.
            while cap_idx < geom.capture_rows.len() && geom.capture_rows[cap_idx] == p + 1 {
                let (mbuf, ybuf) = &mut st.captures[cap_idx];
                mbuf[x0..x1].copy_from_slice(&mrow[x0..x1]);
                ybuf[x0..x1].copy_from_slice(&maxy[x0..x1]);
                cap_idx += 1;
            }
        }
        x0 = x1;
    }
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
    let rs: Vec<usize> = (r0..r0 + lanes).collect();
    let k = scoring.exchange.alphabet().len();
    let table = (0..k * k)
        .map(|i| {
            V::Elem::from_score(scoring.exchange.score((i / k) as u8, (i % k) as u8))
                .expect("exchange scores must fit the SIMD element")
        })
        .collect();
    let exch = LookupExchange { table, k, seq };
    sweep::<V, _>(seq.len(), scoring, &rs, triangle, stripe, None, &[], &exch).0
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
    assert_eq!(
        profile.len(),
        seq.len(),
        "profile must cover the whole sequence"
    );
    let exch = ProfileExchange { profile, seq };
    sweep::<V, _>(
        seq.len(),
        scoring,
        rs,
        triangle,
        stripe,
        resume,
        capture_rows,
        &exch,
    )
}

/// One whole sweep: prologue, the row loop under the hit cursor the
/// triangle calls for, epilogue.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
fn sweep<V: SimdVec, X: Exchange<V::Elem>>(
    m: usize,
    scoring: &Scoring,
    rs: &[usize],
    triangle: Option<&OverrideTriangle>,
    stripe: usize,
    resume: Option<&GroupResume<'_>>,
    capture_rows: &[usize],
    exch: &X,
) -> (GroupResult, Vec<GroupCapture>) {
    let (mut st, geom) = sweep_prologue_at::<V>(m, scoring, rs, stripe, resume, capture_rows);
    match triangle.filter(|t| !t.is_empty()) {
        None => sweep_rows(&mut st, &geom, &mut NoHits, stripe, exch),
        Some(t) => {
            let mut hits = RowHits::tabulate(t, rs, geom.start);
            sweep_rows(&mut st, &geom, &mut hits, stripe, exch)
        }
    }
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

    /// The engine's width decision for the pack `rs` of a length-`m`
    /// sequence: the narrow lanes are exact on it.
    fn fits_i16(m: usize, scoring: &Scoring, rs: &[usize]) -> bool {
        pack_fits_i16(scoring.exchange.max_score(), m, rs, scoring.gaps)
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
        assert!(fits_i16(seq.len(), &scoring, &[5, 12]));
        let g = align_group::<I16x8>(seq.codes(), &scoring, 5, 8, None);
        for l in 0..8 {
            let want = scalar_row(&seq, &scoring, 5 + l, None);
            assert_eq!(g.rows[l], want, "split {}", 5 + l);
        }
    }

    #[test]
    fn sixteen_lanes_match_scalar() {
        let seq = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFNDAGHTKLMNPQ").unwrap();
        let scoring = Scoring::protein_default();
        assert!(fits_i16(seq.len(), &scoring, &[7, 22]));
        let g = align_group::<I16x16>(seq.codes(), &scoring, 7, 16, None);
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
        assert!(!fits_i16(seq.len(), &scoring, &[38, 45]));
        let g = align_group_profile::<I32x8>(seq.codes(), &scoring, &prof, 38, 8, None, 64);
        for l in 0..8 {
            let want = scalar_row(&seq, &scoring, 38 + l, None);
            assert_eq!(g.rows[l], want, "wide split {}", 38 + l);
        }
        let g16 = align_group_profile::<I32x16>(seq.codes(), &scoring, &prof, 30, 16, None, 64);
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

    /// A pack whose scores overflow `i16` is detected before it is
    /// swept: the bound rejects it, and the narrow lanes would indeed
    /// have clamped it.
    #[test]
    fn saturation_is_detected() {
        // A long perfect repeat with huge match scores overflows i16.
        let seq = Seq::dna(&"A".repeat(80)).unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 1000, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        assert!(
            !fits_i16(seq.len(), &scoring, &[38, 41]),
            "40 000-ish scores must fail the bound"
        );
        let g = align_group::<I16x4>(seq.codes(), &scoring, 38, 4, None);
        assert!(
            (0..4).any(|l| g.rows[l] != scalar_row(&seq, &scoring, 38 + l, None)),
            "the narrow lanes clamp this pack"
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
                let live: Vec<usize> = rs.iter().copied().filter(|&r| r > cap.row).collect();
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
                            resumed.rows[l],
                            scratch.rows[fl],
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
        assert!(fits_i16(seq.len(), &scoring, &rs));
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
    /// kernel probing a plain cell set — no row index, no hit table.
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

    /// [`align_group_profile_at`], or with `avx2` the same sweep as the
    /// dispatcher's AVX2 trampoline compiles it (the caller checked the
    /// CPU).
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
    fn sweep_at<V: SimdVec>(
        avx2: bool,
        seq: &[u8],
        scoring: &Scoring,
        profile: &QueryProfile<V::Elem>,
        rs: &[usize],
        triangle: Option<&OverrideTriangle>,
        stripe: usize,
        resume: Option<&GroupResume<'_>>,
        capture_rows: &[usize],
    ) -> (GroupResult, Vec<GroupCapture>) {
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        if avx2 {
            // SAFETY: `avx2` is set only after `require_avx2` held.
            return unsafe {
                crate::dispatch::profile_at_avx2::<V>(
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
        assert!(!avx2, "no AVX2 trampoline in this build");
        align_group_profile_at::<V>(
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

    /// Masked sweeps of lane type `V` against the naive oracle: a
    /// consecutive and a compacted split set, a stripe of `STRIPE`
    /// columns, captures at every row and a resume from mid-matrix, on
    /// triangles built to hit every position the hit table treats
    /// specially, then on random ones.
    fn check_masked_sweeps<V: SimdVec>(
        profile_of: impl Fn(&Scoring, &[u8]) -> QueryProfile<V::Elem>,
        avx2: bool,
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
                assert!(fits_i16(m, &scoring, rs));
                let capture_rows: Vec<usize> = (1..*rs.last().unwrap()).collect();
                let (scratch, caps) = sweep_at::<V>(
                    avx2,
                    seq.codes(),
                    &scoring,
                    &prof,
                    rs,
                    Some(&t),
                    STRIPE,
                    None,
                    &capture_rows,
                );
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
                    let (resumed, _) = sweep_at::<V>(
                        avx2,
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

    /// One lane's scalar checkpoint: `(m, maxy)` over its own columns.
    type LaneState = (Vec<Score>, Vec<Score>);

    /// Split `r` through the scalar kernel: its bottom row, and its
    /// checkpoint at each of `capture_rows` (`None` at and below its
    /// bottom row, as in a [`GroupCapture`]) — from row 0, or resumed
    /// from `resume = (row, m, maxy)`.
    fn scalar_sweep(
        seq: &Seq,
        scoring: &Scoring,
        r: usize,
        tri: Option<&OverrideTriangle>,
        resume: Option<(usize, &LaneState)>,
        capture_rows: &[usize],
    ) -> (Vec<Score>, Vec<Option<LaneState>>) {
        let (prefix, suffix) = seq.split(r);
        let (start, m, mut maxy) = match resume {
            Some((row, (m, maxy))) => (row, m.clone(), maxy.clone()),
            None => (
                0,
                vec![0; suffix.len()],
                vec![repro_align::NEG_INF; suffix.len()],
            ),
        };
        let own_rows: Vec<usize> = capture_rows.iter().copied().filter(|&c| c < r).collect();
        let mut caps: Vec<Option<LaneState>> = Vec::new();
        let mut hook =
            |_: usize, m: &[Score], y: &[Score]| caps.push(Some((m.to_vec(), y.to_vec())));
        let empty = OverrideTriangle::new(seq.len());
        let row = repro_align::sw_last_row_resume(
            prefix,
            suffix,
            scoring,
            SplitMask::new(tri.unwrap_or(&empty), r),
            start,
            m,
            &mut maxy,
            &own_rows,
            &mut hook,
        )
        .row;
        caps.resize(capture_rows.len(), None);
        (row, caps)
    }

    /// `n` distinct rows of `lo..hi`, ascending (fewer if the range is
    /// shorter).
    fn pick_rows(seed: &mut u64, lo: usize, hi: usize, n: usize) -> Vec<usize> {
        let mut rows: Vec<usize> = (lo..hi).collect();
        while rows.len() > n {
            rows.remove(rng(seed) as usize % rows.len());
        }
        rows
    }

    /// Sweeps of lane type `V` against the scalar kernel, bottom rows
    /// and every captured checkpoint: compacted (ascending,
    /// non-consecutive) packs plus the shapes the border code treats
    /// specially, × stripe 1 / 7 / wider than the matrix × unmasked and
    /// masked × from row 0 and resumed from a scalar checkpoint × 0, 1
    /// and 3 captures.
    fn check_compacted_sweeps<V: SimdVec>(
        profile_of: impl Fn(&Scoring, &[u8]) -> QueryProfile<V::Elem>,
        avx2: bool,
    ) {
        let scoring = Scoring::dna_example();
        let mut seed = 0x2545_f491_4f6c_dd1du64 ^ (V::LANES * 8 + V::Elem::BYTES) as u64;
        let codes = (0..46)
            .map(|_| (rng(&mut seed) % 16).saturating_sub(12) as u8)
            .collect();
        let seq = Seq::from_codes(repro_align::Alphabet::Dna, codes);
        let m = seq.len();
        let prof = profile_of(&scoring, seq.codes());

        let mut packs: Vec<Vec<usize>> = vec![
            // A stripe of 7 ends left of the deep lane's first own
            // column (44 − 2): its bottom-row copy has nothing to do
            // there.
            vec![2, m - 2],
            // Groups narrower than a full border: the last lanes of the
            // sequence, as many as fit below a full vector.
            (m - (V::LANES - 1).min(m - 2)..m).collect(),
            vec![m - 3, m - 2, m - 1],
        ];
        for full in [true, false, false, false] {
            // Random gaps of 1–4 between splits: compacted packs, with
            // far more bordered columns than a consecutive group has.
            let lanes = if full {
                V::LANES
            } else {
                1 + rng(&mut seed) as usize % V::LANES
            };
            let mut r = 2 + rng(&mut seed) as usize % 3;
            let mut rs = Vec::new();
            while rs.len() < lanes && r < m {
                rs.push(r);
                r += 1 + rng(&mut seed) as usize % 4;
            }
            packs.push(rs);
        }
        let mut triangle = OverrideTriangle::new(m);
        for _ in 0..14 {
            let p = rng(&mut seed) as usize % (m - 1);
            triangle.set(p, p + 1 + rng(&mut seed) as usize % (m - p - 1));
        }

        for rs in &packs {
            assert!(fits_i16(m, &scoring, rs));
            let (r0, rmax) = (rs[0], rs[rs.len() - 1]);
            for tri in [None, Some(&triangle)] {
                // The oracle: every lane's row, and its checkpoint at
                // every row.
                let all_rows: Vec<usize> = (1..rmax).collect();
                let (want_rows, ckpts): (Vec<_>, Vec<_>) = rs
                    .iter()
                    .map(|&r| scalar_sweep(&seq, &scoring, r, tri, None, &all_rows))
                    .unzip();
                let check = |g: &GroupResult, caps: &[GroupCapture], rows: &[usize], what: &str| {
                    assert_eq!(g.rows, want_rows, "{what}");
                    assert_eq!(caps.len(), rows.len(), "{what}");
                    for (cap, &row) in caps.iter().zip(rows) {
                        assert_eq!(cap.row, row);
                        for (l, lane) in cap.lanes.iter().enumerate() {
                            assert_eq!(lane, &ckpts[l][row - 1], "{what}: row {row} lane {l}");
                        }
                    }
                };
                for stripe in [1usize, 7, m + 3] {
                    for ncap in [0usize, 1, 3] {
                        let what = format!(
                            "splits {rs:?} stripe {stripe} mask {} captures {ncap}",
                            tri.is_some()
                        );
                        let rows = pick_rows(&mut seed, 1, rmax, ncap);
                        let (g, caps) = sweep_at::<V>(
                            avx2,
                            seq.codes(),
                            &scoring,
                            &prof,
                            rs,
                            tri,
                            stripe,
                            None,
                            &rows,
                        );
                        check(&g, &caps, &rows, &what);

                        // Resumed from the *scalar* checkpoints of a row
                        // above the shallowest split.
                        let start = 1 + rng(&mut seed) as usize % (r0 - 1);
                        let state: Vec<LaneResume<'_>> = ckpts
                            .iter()
                            .map(|lane| {
                                let (m, maxy) =
                                    lane[start - 1].as_ref().expect("above every split");
                                LaneResume { m, maxy }
                            })
                            .collect();
                        let resume = GroupResume {
                            row: start,
                            lanes: state,
                        };
                        let rows = pick_rows(&mut seed, start + 1, rmax, ncap);
                        let (g, caps) = sweep_at::<V>(
                            avx2,
                            seq.codes(),
                            &scoring,
                            &prof,
                            rs,
                            tri,
                            stripe,
                            Some(&resume),
                            &rows,
                        );
                        check(&g, &caps, &rows, &format!("{what}, resumed at {start}"));
                    }
                }
            }
        }
    }

    #[test]
    fn compacted_sweeps_match_scalar_at_every_portable_width() {
        check_compacted_sweeps::<I16x4>(narrow, false);
        check_compacted_sweeps::<I16x8>(narrow, false);
        check_compacted_sweeps::<I16x16>(narrow, false);
        check_compacted_sweeps::<crate::lanes::I32x4>(QueryProfile::new_wide, false);
        check_compacted_sweeps::<I32x8>(QueryProfile::new_wide, false);
        check_compacted_sweeps::<I32x16>(QueryProfile::new_wide, false);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn compacted_sweeps_match_scalar_on_core_arch_lanes() {
        use crate::lanes::{avx2::I16x16Avx2, sse2::I16x4Sse2, sse2::I16x8Sse2};
        check_compacted_sweeps::<I16x4Sse2>(narrow, false);
        check_compacted_sweeps::<I16x8Sse2>(narrow, false);
        if crate::test_support::require_avx2("compacted_sweeps_match_scalar_on_core_arch_lanes") {
            check_compacted_sweeps::<I16x16Avx2>(narrow, false);
            // The wide lanes as the AVX2 path runs them.
            check_compacted_sweeps::<crate::lanes::I32x4>(QueryProfile::new_wide, true);
            check_compacted_sweeps::<I32x8>(QueryProfile::new_wide, true);
            check_compacted_sweeps::<I32x16>(QueryProfile::new_wide, true);
        }
    }

    /// The left-border correction against a per-lane oracle, at every
    /// live-lane count: live lanes keep their (clamped) value, dead
    /// lanes end at zero — whatever they held, including the element's
    /// extremes before the clamp, where a kill applied *ahead* of the
    /// clamp would wrap `i32` lanes around to positive values.
    fn check_border_kill<V: SimdVec>() {
        let e = |x: Score| V::Elem::from_score_sat(x);
        let zero = V::splat(V::Elem::ZERO);
        let patterns: [&dyn Fn(usize) -> V::Elem; 6] = [
            &|_| V::Elem::MAX,
            &|_| V::Elem::ZERO,
            &|l| e(1 + 37 * l as Score),
            &|l| V::Elem::MAX.vsub(e(l as Score)),
            &|l| V::Elem::NEG_INF.vadd(e(l as Score % 3)),
            &|l| e(-1 - l as Score),
        ];
        for keep in 0..=V::LANES {
            let kill = border_kill::<V>(keep);
            for pattern in patterns {
                let mut pre = zero;
                for (l, slot) in pre.lanes_mut().iter_mut().enumerate() {
                    *slot = pattern(l);
                }
                let clamped = pre.max(zero);
                let got = kill_dead_lanes(clamped, kill);
                for l in 0..V::LANES {
                    let want = if l < keep {
                        clamped.lanes()[l]
                    } else {
                        V::Elem::ZERO
                    };
                    assert_eq!(got.lanes()[l], want, "keep {keep} lane {l} of {pre:?}");
                }
            }
        }
    }

    #[test]
    fn border_kill_matches_per_lane_oracle() {
        check_border_kill::<I16x4>();
        check_border_kill::<I16x8>();
        check_border_kill::<I16x16>();
        check_border_kill::<crate::lanes::I32x4>();
        check_border_kill::<I32x8>();
        check_border_kill::<I32x16>();
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        {
            use crate::lanes::{avx2::I16x16Avx2, sse2::I16x4Sse2, sse2::I16x8Sse2};
            check_border_kill::<I16x4Sse2>();
            check_border_kill::<I16x8Sse2>();
            if crate::test_support::require_avx2("border_kill_matches_per_lane_oracle") {
                check_border_kill::<I16x16Avx2>();
            }
        }
    }

    /// Wide lanes resumed from a state whose `maxy` still sits at
    /// `NEG_INF` (legal input: the scalar kernel takes it too), over a
    /// sequence of mismatches: bordered cells are negative before the
    /// clamp, and each lane's dead columns must still read as the zero
    /// border the scalar kernel starts from.
    #[test]
    fn dead_wide_lanes_stay_zero_under_a_neg_inf_resume_state() {
        fn check<V: SimdVec<Elem = i32>>() {
            // BLOSUM mismatches reach −4: far enough below zero for a
            // subtraction of `i32::MAX` to wrap.
            let seq = Seq::protein(&"MGEKALVPYRLQHCWSTFNDI".repeat(3)).unwrap();
            let scoring = Scoring::protein_default();
            let prof = QueryProfile::new_wide(&scoring, seq.codes());
            let m = seq.len();
            let rs: Vec<usize> = (0..V::LANES).map(|l| 3 + 2 * l + l / 3).collect();
            let state: Vec<LaneState> = rs
                .iter()
                .map(|&r| (vec![0; m - r], vec![repro_align::NEG_INF; m - r]))
                .collect();
            let resume = GroupResume {
                row: 2,
                lanes: state
                    .iter()
                    .map(|(m, maxy)| LaneResume { m, maxy })
                    .collect(),
            };
            for stripe in [7usize, 64] {
                let (g, _) = align_group_profile_at::<V>(
                    seq.codes(),
                    &scoring,
                    &prof,
                    &rs,
                    None,
                    stripe,
                    Some(&resume),
                    &[],
                );
                for (l, &r) in rs.iter().enumerate() {
                    let (want, _) =
                        scalar_sweep(&seq, &scoring, r, None, Some((2, &state[l])), &[]);
                    assert_eq!(g.rows[l], want, "split {r} stripe {stripe}");
                }
            }
        }
        check::<crate::lanes::I32x4>();
        check::<I32x8>();
        check::<I32x16>();
    }

    #[test]
    fn masked_sweeps_match_naive_at_every_portable_width() {
        check_masked_sweeps::<I16x4>(narrow, false);
        check_masked_sweeps::<I16x8>(narrow, false);
        check_masked_sweeps::<I16x16>(narrow, false);
        check_masked_sweeps::<crate::lanes::I32x4>(QueryProfile::new_wide, false);
        check_masked_sweeps::<I32x8>(QueryProfile::new_wide, false);
        check_masked_sweeps::<I32x16>(QueryProfile::new_wide, false);
    }

    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    #[test]
    fn masked_sweeps_match_naive_on_core_arch_lanes() {
        use crate::lanes::{avx2::I16x16Avx2, sse2::I16x4Sse2, sse2::I16x8Sse2};
        check_masked_sweeps::<I16x4Sse2>(narrow, false);
        check_masked_sweeps::<I16x8Sse2>(narrow, false);
        if crate::test_support::require_avx2("masked_sweeps_match_naive_on_core_arch_lanes") {
            check_masked_sweeps::<I16x16Avx2>(narrow, false);
            // The wide lanes as the AVX2 path runs them.
            check_masked_sweeps::<crate::lanes::I32x4>(QueryProfile::new_wide, true);
            check_masked_sweeps::<I32x8>(QueryProfile::new_wide, true);
            check_masked_sweeps::<I32x16>(QueryProfile::new_wide, true);
        }
    }

    /// The only cell that would pass `i16::MAX` is overridden: the narrow
    /// lanes write the forced zero, not the value the recurrence would
    /// have produced there, so nothing clamps and every row is exact —
    /// while the same pack with that cell live clamps.
    #[test]
    fn overridden_cell_never_trips_saturation() {
        // One exact 8-residue repeat on a single diagonal, 4096 per
        // match: the running score passes i16::MAX at the 8th match only,
        // cell (7, 19) in split 8's bottom row, and every other cell
        // stays below 7 × 4096.
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
            assert_ne!(
                sweep(&elsewhere, stripe).rows[0],
                scalar_row(&seq, &scoring, 8, Some(&elsewhere)),
                "control: (7, 19) clamps"
            );
            let g = sweep(&on_it, stripe);
            for (l, &r) in rs.iter().enumerate() {
                assert_eq!(g.rows[l], scalar_row(&seq, &scoring, r, Some(&on_it)));
            }
            let lookup =
                align_group_striped::<I16x8>(seq.codes(), &scoring, 8, 5, Some(&on_it), stripe);
            assert_eq!(lookup.rows, g.rows);
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
