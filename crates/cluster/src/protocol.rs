//! Wire protocol between master and workers.
//!
//! Every structured message travels as a checksummed frame
//! ([`repro_xmpi::wire::Encoder::finish_framed`]), so a payload
//! corrupted in flight decodes to a [`WireError`] the engine can drop
//! (and let the retry layer recover) instead of a panic or — worse — a
//! silently wrong score. Tasks and results carry an `attempt` number:
//! the master bumps it on every (re)issue of a task, which lets it tell
//! the result of the current assignment from stale deliveries of
//! earlier attempts that were duplicated, delayed or reassigned.
//!
//! A task is one unit of a [`PackUnit`] (wire v6): tasks and results
//! decode against it, so a frame that does not fit the unit fails typed
//! before anything is allocated for it.

use repro_align::{Alphabet, ExchangeMatrix, GapPenalties, Score, Scoring, Seq};
use repro_core::{OverrideTriangle, PackKernel, PackUnit, Stats, TopAlignment};
use repro_obs::{Counter, Hist, HistSet, Metric, TelemetrySnapshot};
use repro_simd::LaneWidth;
use repro_xmpi::wire::{Decoder, Encoder, WireError};
use std::ops::Range;

/// Message tags.
pub mod tag {
    /// Worker → master: "I am idle" (sent at startup, repeated until
    /// the master's first assignment proves the registration arrived).
    pub const IDLE: u32 = 1;
    /// Master → worker: a task assignment (or a retransmission of one).
    pub const TASK: u32 = 2;
    /// Worker → master: task results ([`super::ResultsMsg`]).
    pub const RESULT: u32 = 3;
    /// Master → all workers: a top alignment was accepted; apply these
    /// pairs to the local triangle replica.
    pub const ACCEPTED: u32 = 4;
    /// Master → all workers: search finished, shut down.
    pub const DONE: u32 = 5;
    /// Worker → master: liveness beacon, sent while waiting for work.
    pub const HEARTBEAT: u32 = 6;
    /// Worker → master: "my replica is at version `applied`; re-send
    /// the acceptances I am missing" (recovers from a lost ACCEPTED).
    pub const RESYNC: u32 = 7;
    /// Master → worker: the job description (sequence, scoring,
    /// deadline). Worker *processes* cannot share the master's memory,
    /// so the whole input ships as the first message every joiner —
    /// early or late — receives.
    pub const JOB: u32 = 8;
    /// Worker → master: a cumulative telemetry snapshot (counters +
    /// metric histograms). Pure observability: losing every one of
    /// these frames must not change the search result. This tag is the
    /// wire-v3 layout change ([`repro_xmpi::wire::VERSION`]).
    pub const TELEMETRY: u32 = 9;
}

/// First-pass rows of some of a unit's members, `(r, row)`, by `r`.
pub type MemberRows = Vec<(usize, Vec<Score>)>;

/// The splits of unit `u`, or [`WireError::BadFrame`] if the run has no
/// such unit.
fn members(unit: &PackUnit<impl PackKernel>, u: usize) -> Result<Range<usize>, WireError> {
    let splits = (u < unit.units()).then(|| unit.splits(u));
    splits.ok_or(WireError::BadFrame)
}

fn encode_rows(e: Encoder, rows: &[(usize, Vec<Score>)]) -> Encoder {
    rows.iter().fold(e.usize(rows.len()), |e, (r, row)| {
        e.usize(*r).i32_slice(row)
    })
}

/// Rows of the members `splits` of one of `unit`'s units: at most one
/// per member, ascending, each `m − r` long. Counts and lengths are
/// checked against the unit before anything is allocated for them.
fn decode_rows(
    d: &mut Decoder<'_>,
    unit: &PackUnit<impl PackKernel>,
    splits: Range<usize>,
) -> Result<MemberRows, WireError> {
    let n = d.usize()?;
    if n > splits.len() {
        return Err(WireError::BadLength { claimed: n });
    }
    // The last unit ends at the sequence length.
    let m = unit.splits(unit.units() - 1).end;
    let mut rows: MemberRows = Vec::with_capacity(n);
    for _ in 0..n {
        let r = d.usize()?;
        let next = rows.last().map_or(splits.start, |&(q, _)| q + 1);
        let len = d.usize()?;
        if !(next..splits.end).contains(&r) {
            return Err(WireError::BadFrame);
        } else if len != m - r {
            return Err(WireError::BadLength { claimed: len });
        }
        rows.push((r, d.i32s(len)?));
    }
    Ok(rows)
}

/// One unit's assignment inside a (possibly batched) [`TaskMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskItem {
    /// Unit to (re)align.
    pub unit: usize,
    /// Assignment attempt for this unit, bumped on every (re)issue;
    /// echoed back in the result so the master can discard stale ones.
    pub attempt: u64,
    /// `true` iff this is the unit's very first alignment (no stored
    /// rows exist anywhere yet; the worker must return its members'
    /// bottom rows).
    pub first: bool,
    /// The master's current upper bound on this unit's score: the
    /// seed bound for never-aligned units, the stale score otherwise,
    /// and [`Score::MAX`] in unseeded runs. Shipping it with the task
    /// means workers never rebuild the seed index; they may
    /// sanity-check their computed score against it (masking
    /// monotonicity guarantees `score <= bound` at any replica version
    /// at or past the stamp). This field was the wire-v2 layout change
    /// ([`repro_xmpi::wire::VERSION`]): a v1 socket peer is rejected
    /// at hello, and within a version a frame missing the field fails
    /// the decoder's length check and is dropped like corruption — so
    /// skewed worlds degrade to typed rejection or retransmission,
    /// never to silently wrong bounds.
    pub bound: Score,
    /// The stored first-pass rows of the members the worker holds no
    /// copy of; empty on first passes and cache hits.
    pub rows: MemberRows,
}

impl TaskItem {
    /// Encoded size of an item without rows.
    const MIN_BYTES: usize = 3 * 8 + 4 + 8;

    fn encode_into(&self, e: Encoder) -> Encoder {
        let e = e
            .usize(self.unit)
            .u64(self.attempt)
            .u64(self.first as u64)
            .i32(self.bound);
        encode_rows(e, &self.rows)
    }

    fn read_from(d: &mut Decoder<'_>, unit: &PackUnit<impl PackKernel>) -> Result<Self, WireError> {
        let u = d.usize()?;
        let splits = members(unit, u)?;
        let attempt = d.u64()?;
        let first = d.u64()? == 1;
        let bound = d.i32()?;
        let rows = decode_rows(d, unit, splits)?;
        Ok(TaskItem {
            unit: u,
            attempt,
            first,
            bound,
            rows,
        })
    }
}

/// A task assignment: a batch of one or more units to (re)align under
/// one triangle version. Batching whole assignments into a single
/// frame is the wire-v4 layout change ([`repro_xmpi::wire::VERSION`]):
/// a v3 peer is rejected at hello with a typed version error. Workers
/// answer in [`ResultsMsg`] frames holding one or more of the batch's
/// results, and a retransmission may re-ship any subset of the original
/// batch as smaller `TaskMsg`s — the per-item `attempt` numbers, not
/// batch boundaries, are what results are matched on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskMsg {
    /// Triangle version (top alignments accepted so far) every item in
    /// the batch must *at least* be aligned under: a worker holds an
    /// item back until its replica has reached the stamp, and reports
    /// the version it actually computed against in the result.
    pub stamp: usize,
    /// The batched assignments, sorted by unit ascending (the
    /// bound-locality order: consecutive units share checkpoint and
    /// row-cache neighbourhoods on the worker).
    pub items: Vec<TaskItem>,
}

impl TaskMsg {
    /// Convenience: a single-item batch (the shape every retransmission
    /// and deferred re-run uses).
    pub fn single(stamp: usize, item: TaskItem) -> Self {
        TaskMsg {
            stamp,
            items: vec![item],
        }
    }

    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new().usize(self.stamp).usize(self.items.len());
        for item in &self.items {
            e = item.encode_into(e);
        }
        e.finish_framed()
    }

    /// Decode from a framed payload, against the run's `unit`. An empty
    /// batch is rejected as malformed: the master never sends one, so it
    /// can only be corruption that survived the checksum by colliding.
    pub fn decode(payload: &[u8], unit: &PackUnit<impl PackKernel>) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let stamp = d.usize()?;
        let n = d.usize()?;
        // Each item needs at least its fixed fields; reject a hostile
        // count before allocating.
        if n == 0 || n > d.remaining() / TaskItem::MIN_BYTES {
            return Err(WireError::BadLength { claimed: n });
        }
        let items = (0..n)
            .map(|_| TaskItem::read_from(&mut d, unit))
            .collect::<Result<Vec<_>, _>>()?;
        d.expect_exhausted()?;
        Ok(TaskMsg { stamp, items })
    }
}

/// What one (re)alignment added to the work counters: the nine fields
/// of a fresh [`Stats`] a unit's commit grows, in [`Work::of`]'s order.
/// The master folds it in once, when the result settles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work([u64; 9]);

impl Work {
    /// The growth of `grown`, a [`Stats`] that started fresh.
    pub fn of(grown: &Stats) -> Self {
        Work([
            grown.alignments,
            grown.cells,
            grown.shadow_rejections,
            grown.checkpoint_hits,
            grown.checkpoint_misses,
            grown.realign_rows_swept,
            grown.realign_rows_skipped,
            grown.lanes_skipped,
            grown.lanes_compacted,
        ])
    }

    /// Cells swept.
    pub(crate) fn cells(&self) -> u64 {
        self.0[1]
    }

    /// Fold into `stats` as work done while `stamp` tops existed.
    pub fn fold_into(&self, stats: &mut Stats, stamp: usize) {
        let [n, cells, shadows, hits, misses, swept, skipped, lanes_skipped, compacted] = self.0;
        stats.record_alignments(n, cells, stamp);
        stats.shadow_rejections += shadows;
        stats.record_resume([hits, misses, swept, skipped]);
        stats.lanes_skipped += lanes_skipped;
        stats.lanes_compacted += compacted;
    }
}

/// One task's result. Results travel in [`ResultsMsg`] frames, never
/// alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultMsg {
    /// Unit that was aligned.
    pub unit: usize,
    /// The version the score is exact under ([`repro_core::pack::PackPlan::version`]):
    /// the ACCEPTED broadcasts the worker had applied when the sweep
    /// started — at or past the task's stamp, never the task's stamp
    /// echoed back — or 0 for a first pass that an applied accept
    /// straddles, which sweeps clean. The master trusts the score as
    /// exact only when this equals its own acceptance count; below it,
    /// the unit is requeued at the lower of the score and its bound.
    pub stamp: usize,
    /// The attempt number echoed from the [`TaskItem`].
    pub attempt: u64,
    /// The unit's best member and its valid (shadow-filtered) score —
    /// the unit's score; the lowest member on ties.
    pub best: (usize, Score),
    /// First-pass bottom rows of the unit's members: all of them when
    /// the task was the unit's first pass, none otherwise.
    pub rows: MemberRows,
    /// What the sweep added to the work counters.
    pub work: Work,
}

impl ResultMsg {
    /// Encoded size of an item without rows: what a frame must still
    /// hold per claimed item.
    const MIN_BYTES: usize = 4 * 8 + 4 + 9 * 8 + 8;

    fn encode_into(&self, e: Encoder) -> Encoder {
        let e = e
            .usize(self.unit)
            .usize(self.stamp)
            .u64(self.attempt)
            .usize(self.best.0)
            .i32(self.best.1);
        let e = self.work.0.iter().fold(e, |e, &v| e.u64(v));
        encode_rows(e, &self.rows)
    }

    fn read_from(d: &mut Decoder<'_>, unit: &PackUnit<impl PackKernel>) -> Result<Self, WireError> {
        let u = d.usize()?;
        let splits = members(unit, u)?;
        let stamp = d.usize()?;
        let attempt = d.u64()?;
        let best = (d.usize()?, d.i32()?);
        if !splits.contains(&best.0) {
            return Err(WireError::BadFrame);
        }
        let mut work = Work::default();
        for v in &mut work.0 {
            *v = d.u64()?;
        }
        let rows = decode_rows(d, unit, splits)?;
        Ok(ResultMsg {
            unit: u,
            stamp,
            attempt,
            best,
            rows,
            work,
        })
    }
}

/// The result frame: a list of task results. Replacing the one-result
/// frame with this list is the wire-v5 layout change
/// ([`repro_xmpi::wire::VERSION`]). A worker sends each result in a
/// frame of its own the moment its item ends, and a result that answers
/// a retransmitted attempt twice. The master still decodes frames of
/// several items and settles each on its own `attempt`, so a lost frame
/// is healed item by item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsMsg {
    /// The results, at least one.
    pub items: Vec<ResultMsg>,
}

impl ResultsMsg {
    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new().usize(self.items.len());
        for item in &self.items {
            e = item.encode_into(e);
        }
        e.finish_framed()
    }

    /// Decode from a framed payload, against the run's `unit`. An empty
    /// list is malformed (no worker sends one), and a count the
    /// remaining bytes cannot hold is rejected before anything is
    /// allocated for it.
    pub fn decode(payload: &[u8], unit: &PackUnit<impl PackKernel>) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let n = d.usize()?;
        if n == 0 || n > d.remaining() / ResultMsg::MIN_BYTES {
            return Err(WireError::BadLength { claimed: n });
        }
        let items = (0..n)
            .map(|_| ResultMsg::read_from(&mut d, unit))
            .collect::<Result<Vec<_>, _>>()?;
        d.expect_exhausted()?;
        Ok(ResultsMsg { items })
    }
}

/// An acceptance broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedMsg {
    /// Acceptance index (0-based).
    pub index: usize,
    /// The matched pairs to add to the triangle replica.
    pub pairs: Vec<(usize, usize)>,
}

impl AcceptedMsg {
    /// Apply to a replica whose `accepted` list holds every earlier
    /// index: set the pairs in `triangle`, and append the acceptance,
    /// whose count is the replica's version (only the pairs are known
    /// here; `r` and `score` are left 0).
    pub(crate) fn apply(self, triangle: &mut OverrideTriangle, accepted: &mut Vec<TopAlignment>) {
        debug_assert_eq!(self.index, accepted.len(), "acceptances apply in order");
        for &(p, q) in &self.pairs {
            triangle.set(p, q);
        }
        accepted.push(TopAlignment {
            index: self.index,
            r: 0,
            score: 0,
            pairs: self.pairs,
        });
    }

    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        Encoder::new()
            .usize(self.index)
            .pairs(&self.pairs)
            .finish_framed()
    }

    /// Decode from a framed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let msg = AcceptedMsg {
            index: d.usize()?,
            pairs: d.pairs()?,
        };
        d.expect_exhausted()?;
        Ok(msg)
    }
}

/// The job description a worker *process* needs to participate: the
/// sequence, the full scoring scheme, and the run's knobs. Stored as
/// the hub's greeting so every joiner — including one that connects
/// mid-run — starts from the same input the master holds. (Thread
/// workers share the master's memory and never see this message.)
#[derive(Debug, Clone, PartialEq)]
pub struct JobMsg {
    /// Top alignments requested.
    pub count: usize,
    /// The sequence under search.
    pub seq: Seq,
    /// Exchange matrix and gap penalties.
    pub scoring: Scoring,
    /// Worker-side silence budget, in milliseconds: how long the master
    /// may go quiet before the worker gives up and exits.
    pub deadline_ms: u64,
    /// Checkpoint budget for the incremental realignment layer
    /// (`None` = layer off).
    pub checkpoint_budget: Option<usize>,
    /// Lanes per pack: the width the master's kernel selection picked,
    /// so every worker cuts the same units (each sweeps them on its own
    /// best path at that width).
    pub lanes: LaneWidth,
}

impl JobMsg {
    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        let alphabet = self.seq.alphabet();
        let k = alphabet.len();
        let mut table = Vec::with_capacity(k * k);
        for a in 0..k as u8 {
            table.extend_from_slice(self.scoring.exchange.row(a));
        }
        let e = Encoder::new()
            .usize(self.count)
            .u32(match alphabet {
                Alphabet::Dna => 0,
                Alphabet::Protein => 1,
            })
            .bytes(self.seq.codes())
            .i32_slice(&table)
            .i32(self.scoring.gaps.open)
            .i32(self.scoring.gaps.extend)
            .u64(self.deadline_ms);
        match self.checkpoint_budget {
            Some(b) => e.u64(1).usize(b),
            None => e.u64(0),
        }
        .usize(self.lanes.lanes())
        .finish_framed()
    }

    /// Decode from a framed payload. The exchange table is re-validated
    /// (symmetric), the gap penalties (non-negative open, positive
    /// extend), the scoring against the sequence length
    /// ([`Scoring::check_range`]) and the lane count against the three
    /// widths, so a frame from a buggy peer fails typed instead of
    /// tripping an assert — or wrapping a score — downstream.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let count = d.usize()?;
        let alphabet = match d.u32()? {
            0 => Alphabet::Dna,
            1 => Alphabet::Protein,
            _ => return Err(WireError::BadFrame),
        };
        let codes = d.bytes_vec()?;
        if codes.iter().any(|&c| !alphabet.is_valid_code(c)) {
            return Err(WireError::BadFrame);
        }
        let k = alphabet.len();
        let table = d.i32_vec()?;
        if table.len() != k * k {
            return Err(WireError::BadLength {
                claimed: table.len(),
            });
        }
        if (0..k).any(|a| (0..a).any(|b| table[a * k + b] != table[b * k + a])) {
            return Err(WireError::BadFrame);
        }
        let open = d.i32()?;
        let extend = d.i32()?;
        if open < 0 || extend <= 0 {
            return Err(WireError::BadFrame);
        }
        let deadline_ms = d.u64()?;
        let checkpoint_budget = if d.u64()? == 1 {
            Some(d.usize()?)
        } else {
            None
        };
        let lanes = LaneWidth::from_lanes(d.usize()?).ok_or(WireError::BadFrame)?;
        d.expect_exhausted()?;
        let exchange = ExchangeMatrix::from_fn(alphabet, |a, b| table[a as usize * k + b as usize]);
        let scoring = Scoring::new(exchange, GapPenalties::new(open, extend));
        if scoring.check_range(codes.len()).is_err() {
            return Err(WireError::BadFrame);
        }
        Ok(JobMsg {
            count,
            seq: Seq::from_codes(alphabet, codes),
            scoring,
            deadline_ms,
            checkpoint_budget,
            lanes,
        })
    }
}

/// A worker's cumulative telemetry snapshot.
///
/// Snapshots are *cumulative*, not deltas: the master diffs each one
/// against the previous snapshot it holds for that worker
/// ([`TelemetrySnapshot::delta_from`]), so a lost or duplicated frame
/// costs at most staleness, never double-counting. `seq` is monotone
/// per worker within a process lifetime; a snapshot whose counters or
/// histograms *shrink* signals a worker restart and the master falls
/// back to treating the whole snapshot as fresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryMsg {
    /// Monotone per-worker snapshot sequence number; the master drops
    /// frames with `seq` at or below the last one folded.
    pub seq: u64,
    /// `true` on the final snapshot a worker sends while shutting
    /// down, so the master knows this worker's telemetry is complete.
    pub fin: bool,
    /// The cumulative counter and histogram state.
    pub snap: TelemetrySnapshot,
}

impl TelemetryMsg {
    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new()
            .u64(self.seq)
            .u64(self.fin as u64)
            .u64_slice(&self.snap.counters);
        for m in Metric::ALL {
            let h = self.snap.hists.get(m);
            e = e.u64(h.count()).u64(h.sum()).u64_slice(h.buckets());
        }
        e.finish_framed()
    }

    /// Decode from a framed payload. Histogram internals are
    /// re-validated via [`Hist::from_parts`] (bucket totals must match
    /// the claimed count, bucket vectors must fit), so a hostile frame
    /// cannot smuggle an inconsistent histogram into the master's
    /// merged view.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let seq = d.u64()?;
        let fin = d.u64()? == 1;
        let counters_vec = d.u64_vec()?;
        let counters: [u64; Counter::ALL.len()] =
            counters_vec.try_into().map_err(|_| WireError::BadFrame)?;
        let mut hists = HistSet::new();
        for m in Metric::ALL {
            let count = d.u64()?;
            let sum = d.u64()?;
            let buckets = d.u64_vec()?;
            let h = Hist::from_parts(count, sum, buckets).ok_or(WireError::BadFrame)?;
            hists.merge_hist(m, &h);
        }
        d.expect_exhausted()?;
        Ok(TelemetryMsg {
            seq,
            fin,
            snap: TelemetrySnapshot { counters, hists },
        })
    }
}

/// A worker's replica-resync request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncMsg {
    /// Acceptances the worker has applied so far.
    pub applied: usize,
}

impl ResyncMsg {
    /// Encode to a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        Encoder::new().usize(self.applied).finish_framed()
    }

    /// Decode from a framed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let msg = ResyncMsg {
            applied: d.usize()?,
        };
        d.expect_exhausted()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_simd::{select, GroupSweeper};

    /// Run `f` against the unit every test frame is decoded with: 12 nt
    /// in packs of four — units 0, 1, 2 are splits 1–4, 5–8 and 9–11,
    /// and split `r`'s row is `12 − r` long.
    fn with_packs<T>(f: impl FnOnce(&PackUnit<GroupSweeper>) -> T) -> T {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let sel = select(Some(LaneWidth::X4), None).unwrap();
        f(&PackUnit::new(GroupSweeper::new(&seq, &scoring, sel), None))
    }

    fn row(r: usize) -> (usize, Vec<Score>) {
        (r, (0..12 - r as i32).map(|x| x * 3 - 5).collect())
    }

    #[test]
    fn task_roundtrip() {
        for msg in [
            TaskMsg::single(
                2,
                TaskItem {
                    unit: 2,
                    attempt: 1,
                    first: true,
                    bound: Score::MAX,
                    rows: vec![],
                },
            ),
            TaskMsg::single(
                0,
                TaskItem {
                    unit: 0,
                    attempt: 3,
                    first: false,
                    bound: -17,
                    rows: vec![row(1), row(2), row(3), row(4)],
                },
            ),
            // A mixed batch: first pass, cached realignment, attached rows.
            TaskMsg {
                stamp: 4,
                items: vec![
                    TaskItem {
                        unit: 0,
                        attempt: 1,
                        first: true,
                        bound: 50,
                        rows: vec![],
                    },
                    TaskItem {
                        unit: 1,
                        attempt: 2,
                        first: false,
                        bound: 44,
                        rows: vec![],
                    },
                    TaskItem {
                        unit: 2,
                        attempt: 5,
                        first: false,
                        bound: 9,
                        rows: vec![row(9), row(11)],
                    },
                ],
            },
        ] {
            with_packs(|u| assert_eq!(TaskMsg::decode(&msg.encode(), u).unwrap(), msg));
        }
    }

    /// The bulk row decode returns what the per-element decode it
    /// replaced returned: the same rows from every intact list, and an
    /// error from every cut of one (a row cut short now reads as
    /// `BadLength` of its claimed length, where the per-element loop
    /// reported the element that ran out as `Truncated`).
    #[test]
    fn bulk_rows_decode_as_the_per_element_decode_did() {
        fn per_element(
            d: &mut Decoder<'_>,
            unit: &PackUnit<impl PackKernel>,
            splits: Range<usize>,
        ) -> Result<MemberRows, WireError> {
            let n = d.usize()?;
            if n > splits.len() {
                return Err(WireError::BadLength { claimed: n });
            }
            let m = unit.splits(unit.units() - 1).end;
            let mut rows: MemberRows = Vec::with_capacity(n);
            for _ in 0..n {
                let r = d.usize()?;
                let next = rows.last().map_or(splits.start, |&(q, _)| q + 1);
                let len = d.usize()?;
                if !(next..splits.end).contains(&r) {
                    return Err(WireError::BadFrame);
                } else if len != m - r {
                    return Err(WireError::BadLength { claimed: len });
                }
                rows.push((r, (0..len).map(|_| d.i32()).collect::<Result<_, _>>()?));
            }
            Ok(rows)
        }
        with_packs(|u| {
            for (unit, rows) in [
                (0, vec![]),
                (0, vec![row(1), row(2), row(3), row(4)]),
                (1, vec![row(6)]),
                (2, vec![row(9), row(11)]),
                (2, vec![row(9), row(9)]),
                (1, vec![(5, vec![0; 3])]),
            ] {
                let body = encode_rows(Encoder::new(), &rows).i32(-1).finish();
                let splits = members(u, unit).unwrap();
                for cut in 0..=body.len() {
                    let (mut bulk, mut old) =
                        (Decoder::new(&body[..cut]), Decoder::new(&body[..cut]));
                    let got = decode_rows(&mut bulk, u, splits.clone());
                    match per_element(&mut old, u, splits.clone()) {
                        Ok(want) => {
                            assert_eq!(got, Ok(want), "unit {unit} cut {cut}");
                            assert_eq!(bulk.remaining(), old.remaining());
                        }
                        Err(WireError::Truncated { .. }) => assert!(got.is_err(), "cut {cut}"),
                        Err(e) => assert_eq!(got, Err(e), "unit {unit} cut {cut}"),
                    }
                }
            }
        });
    }

    #[test]
    fn empty_task_batch_is_rejected() {
        let framed = Encoder::new().usize(3).usize(0).finish_framed();
        assert!(matches!(
            with_packs(|u| TaskMsg::decode(&framed, u)),
            Err(WireError::BadLength { claimed: 0 })
        ));
    }

    fn sample_results() -> ResultsMsg {
        ResultsMsg {
            items: vec![
                ResultMsg {
                    unit: 2,
                    stamp: 4,
                    attempt: 2,
                    best: (10, 123),
                    rows: vec![],
                    work: Work::of(&Stats {
                        alignments: 3,
                        cells: 1 << 40,
                        shadow_rejections: 7,
                        checkpoint_hits: 1,
                        checkpoint_misses: 2,
                        realign_rows_swept: 30,
                        realign_rows_skipped: 40,
                        lanes_skipped: 1,
                        lanes_compacted: 2,
                        ..Stats::default()
                    }),
                },
                ResultMsg {
                    unit: 0,
                    stamp: 0,
                    attempt: 1,
                    best: (1, 0),
                    rows: vec![row(1), row(2), row(3), row(4)],
                    work: Work::default(),
                },
                ResultMsg {
                    unit: 1,
                    stamp: 5,
                    attempt: 7,
                    best: (8, -4),
                    rows: vec![row(5), row(6), row(7), row(8)],
                    work: Work::of(&Stats {
                        alignments: 4,
                        cells: 12,
                        shadow_rejections: 1,
                        ..Stats::default()
                    }),
                },
            ],
        }
    }

    #[test]
    fn results_roundtrip() {
        let msg = sample_results();
        with_packs(|u| {
            assert_eq!(ResultsMsg::decode(&msg.encode(), u).unwrap(), msg);
            for item in msg.items {
                let one = ResultsMsg { items: vec![item] };
                assert_eq!(ResultsMsg::decode(&one.encode(), u).unwrap(), one);
            }
        });
    }

    #[test]
    fn work_folds_into_the_stats_it_was_counted_from() {
        let mut grown = Stats::new();
        grown.record_alignment(40, 3);
        grown.record_alignment(2, 3);
        grown.shadow_rejections = 5;
        grown.record_resume([1, 0, 9, 4]);
        grown.lanes_skipped = 2;
        grown.lanes_compacted = 1;
        let mut folded = Stats::new();
        Work::of(&grown).fold_into(&mut folded, 3);
        assert_eq!(folded, grown);
    }

    #[test]
    fn empty_and_hostile_result_counts_are_rejected_before_allocation() {
        let empty = Encoder::new().usize(0).finish_framed();
        with_packs(|u| {
            assert_eq!(
                ResultsMsg::decode(&empty, u),
                Err(WireError::BadLength { claimed: 0 })
            );
            // A count no allocator could serve, in front of one real item:
            // rejected on the count alone.
            let one = sample_results().items.remove(0);
            for claimed in [2, 1 << 20, usize::MAX] {
                let frame = one
                    .encode_into(Encoder::new().usize(claimed))
                    .finish_framed();
                assert_eq!(
                    ResultsMsg::decode(&frame, u),
                    Err(WireError::BadLength { claimed })
                );
            }
        });
    }

    /// Every shape a unit rules out, in a task and in a result: each
    /// decodes to a typed error, never a panic, and nothing is sized
    /// from the hostile field.
    #[test]
    fn frames_that_do_not_fit_the_unit_fail_typed() {
        let task = |unit, rows| {
            let item = TaskItem {
                unit,
                attempt: 1,
                first: false,
                bound: 9,
                rows,
            };
            TaskMsg::single(0, item).encode()
        };
        // Unit 0's first pass, then bent.
        let result = |bend: fn(&mut ResultMsg)| {
            let mut res = sample_results().items.remove(1);
            bend(&mut res);
            ResultsMsg { items: vec![res] }.encode()
        };
        with_packs(|u| {
            for (what, frame, want) in [
                ("unit past the last", task(3, vec![]), WireError::BadFrame),
                (
                    "more rows than members",
                    task(2, vec![row(9), row(10), row(11), row(11)]),
                    WireError::BadLength { claimed: 4 },
                ),
                (
                    "a row of another unit",
                    task(2, vec![row(8)]),
                    WireError::BadFrame,
                ),
                (
                    "a member twice",
                    task(2, vec![row(9), row(9)]),
                    WireError::BadFrame,
                ),
                (
                    "a row of the wrong length",
                    task(1, vec![(5, vec![0; 3])]),
                    WireError::BadLength { claimed: 3 },
                ),
            ] {
                assert_eq!(TaskMsg::decode(&frame, u), Err(want), "task: {what}");
            }
            for (what, frame, want) in [
                (
                    "unit past the last",
                    result(|r| r.unit = usize::MAX),
                    WireError::BadFrame,
                ),
                (
                    "a best member outside the unit",
                    result(|r| r.best.0 = 5),
                    WireError::BadFrame,
                ),
                (
                    "more rows than members",
                    result(|r| r.rows.push(row(4))),
                    WireError::BadLength { claimed: 5 },
                ),
                (
                    "a row of the wrong length",
                    result(|r| r.rows[1].1.push(0)),
                    WireError::BadLength { claimed: 11 },
                ),
            ] {
                assert_eq!(ResultsMsg::decode(&frame, u), Err(want), "result: {what}");
            }
        });
        // A lane count that is none of the three widths.
        for lanes in [0, 5, 32, usize::MAX] {
            let payload = Encoder::new()
                .usize(1)
                .u32(0)
                .bytes(&[0, 1, 2, 3])
                .i32_slice(&[1; 25])
                .i32(2)
                .i32(1)
                .u64(10)
                .u64(0)
                .usize(lanes)
                .finish_framed();
            assert_eq!(
                JobMsg::decode(&payload),
                Err(WireError::BadFrame),
                "{lanes} lanes"
            );
        }
    }

    /// `payload` in a well-formed frame, as `finish_framed` would.
    fn framed(payload: &[u8]) -> Vec<u8> {
        use repro_xmpi::wire::{frame_checksum, MAGIC, VERSION};
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
        out
    }

    #[test]
    fn truncated_result_item_is_rejected() {
        // Two items claimed and the second cut short at every length,
        // re-framed so the checksum holds: the item decoder must fail.
        let items = sample_results().items;
        let body = items[1]
            .encode_into(items[0].encode_into(Encoder::new().usize(2)))
            .finish();
        let first_len = items[0].encode_into(Encoder::new().usize(2)).finish().len();
        with_packs(|u| {
            for cut in first_len..body.len() {
                assert!(
                    matches!(
                        ResultsMsg::decode(&framed(&body[..cut]), u),
                        Err(WireError::Truncated { .. } | WireError::BadLength { .. })
                    ),
                    "cut at {cut} decoded"
                );
            }
            // And a frame cut on the wire fails its framing.
            let frame = sample_results().encode();
            for cut in 0..frame.len() {
                assert!(ResultsMsg::decode(&frame[..cut], u).is_err());
            }
        });
    }

    #[test]
    fn accepted_roundtrip() {
        let msg = AcceptedMsg {
            index: 7,
            pairs: vec![(0, 4), (1, 5), (3, 11)],
        };
        assert_eq!(AcceptedMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn resync_roundtrip() {
        let msg = ResyncMsg { applied: 3 };
        assert_eq!(ResyncMsg::decode(&msg.encode()).unwrap(), msg);
    }

    fn sample_telemetry() -> TelemetryMsg {
        let mut snap = TelemetrySnapshot::default();
        snap.counters[0] = 17;
        snap.counters[Counter::ALL.len() - 1] = u64::MAX;
        for v in [1u64, 900, 1 << 33, u64::MAX] {
            snap.hists.observe(Metric::SweepNs, v);
            snap.hists.observe(Metric::TaskRoundTripNs, v / 2);
        }
        snap.hists.observe(Metric::PruneSlack, 0);
        TelemetryMsg {
            seq: 41,
            fin: true,
            snap,
        }
    }

    #[test]
    fn telemetry_roundtrip_preserves_quantiles() {
        let msg = sample_telemetry();
        let back = TelemetryMsg::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        for m in Metric::ALL {
            assert_eq!(
                back.snap.hists.get(m).quantile(0.99),
                msg.snap.hists.get(m).quantile(0.99),
                "p99 drifted over the wire for {}",
                m.name()
            );
        }
        // Empty snapshot (a worker that did no work yet) also survives.
        let empty = TelemetryMsg {
            seq: 0,
            fin: false,
            snap: TelemetrySnapshot::default(),
        };
        assert_eq!(TelemetryMsg::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn telemetry_with_hostile_histograms_fails_typed() {
        // An inconsistent histogram (claimed count != bucket total)
        // must be rejected by Hist::from_parts, not folded.
        let mut e = Encoder::new()
            .u64(1)
            .u64(0)
            .u64_slice(&[0; Counter::ALL.len()]);
        for (i, _) in Metric::ALL.iter().enumerate() {
            if i == 0 {
                e = e.u64(5).u64(9).u64_slice(&[1, 1]); // count 5, total 2
            } else {
                e = e.u64(0).u64(0).u64_slice(&[]);
            }
        }
        assert!(TelemetryMsg::decode(&e.finish_framed()).is_err());

        // A wrong-length counter block must be rejected too.
        let mut short = Encoder::new().u64(1).u64(0).u64_slice(&[0; 3]);
        for _ in Metric::ALL {
            short = short.u64(0).u64(0).u64_slice(&[]);
        }
        assert!(TelemetryMsg::decode(&short.finish_framed()).is_err());
    }

    #[test]
    fn job_roundtrip_rebuilds_seq_and_scoring() {
        for (seq, scoring, lanes) in [
            (
                Seq::dna("ATGCATGCNN").unwrap(),
                Scoring::dna_example(),
                LaneWidth::X16,
            ),
            (
                Seq::protein("MGEKALVPYRX").unwrap(),
                Scoring::protein_default(),
                LaneWidth::X4,
            ),
        ] {
            let msg = JobMsg {
                count: 7,
                seq,
                scoring,
                deadline_ms: 45_000,
                checkpoint_budget: Some(1 << 20),
                lanes,
            };
            let back = JobMsg::decode(&msg.encode()).unwrap();
            assert_eq!(back, msg);
            // The rebuilt matrix scores identically on every pair.
            let k = msg.seq.alphabet().len() as u8;
            for a in 0..k {
                for b in 0..k {
                    assert_eq!(
                        back.scoring.exch(a, b),
                        msg.scoring.exch(a, b),
                        "pair ({a},{b})"
                    );
                }
            }
        }
        let no_budget = JobMsg {
            count: 1,
            seq: Seq::dna("ACGT").unwrap(),
            scoring: Scoring::dna_example(),
            deadline_ms: 10,
            checkpoint_budget: None,
            lanes: LaneWidth::X8,
        };
        assert_eq!(JobMsg::decode(&no_budget.encode()).unwrap(), no_budget);
    }

    #[test]
    fn job_with_hostile_fields_fails_typed_not_panicking() {
        // Hand-build payloads with out-of-range fields: each must fail
        // with a WireError, never trip an assert in align's ctors.
        let good = JobMsg {
            count: 2,
            seq: Seq::dna("ACGT").unwrap(),
            scoring: Scoring::dna_example(),
            deadline_ms: 10,
            checkpoint_budget: None,
            lanes: LaneWidth::X16,
        };
        // A zero gap-extend would panic GapPenalties::new if trusted.
        let bad_gaps = Encoder::new()
            .usize(2)
            .u32(0)
            .bytes(good.seq.codes())
            .i32_slice(&[0; 25])
            .i32(2)
            .i32(0) // extend = 0: invalid
            .u64(10)
            .u64(0)
            .usize(16)
            .finish_framed();
        assert!(JobMsg::decode(&bad_gaps).is_err());
        // An unknown alphabet id.
        let bad_alpha = Encoder::new()
            .usize(2)
            .u32(9)
            .bytes(b"")
            .i32_slice(&[])
            .i32(2)
            .i32(1)
            .u64(10)
            .u64(0)
            .usize(16)
            .finish_framed();
        assert!(JobMsg::decode(&bad_alpha).is_err());
        // Residue codes outside the alphabet.
        let bad_codes = Encoder::new()
            .usize(2)
            .u32(0)
            .bytes(&[0, 1, 200])
            .i32_slice(&[0; 25])
            .i32(2)
            .i32(1)
            .u64(10)
            .u64(0)
            .usize(16)
            .finish_framed();
        assert!(JobMsg::decode(&bad_codes).is_err());
        // A wrong-size exchange table.
        let bad_table = Encoder::new()
            .usize(2)
            .u32(0)
            .bytes(&[0, 1])
            .i32_slice(&[1, 2, 3])
            .i32(2)
            .i32(1)
            .u64(10)
            .u64(0)
            .usize(16)
            .finish_framed();
        assert!(JobMsg::decode(&bad_table).is_err());
        // Scores that would wrap an i32 over this sequence.
        let bad_range = Encoder::new()
            .usize(2)
            .u32(0)
            .bytes(good.seq.codes())
            .i32_slice(&[i32::MAX / 2; 25])
            .i32(2)
            .i32(1)
            .u64(10)
            .u64(0)
            .usize(16)
            .finish_framed();
        assert!(JobMsg::decode(&bad_range).is_err());
    }

    #[test]
    fn corrupted_frames_are_rejected_for_every_message_kind() {
        let frames = [
            TaskMsg {
                stamp: 1,
                items: vec![
                    TaskItem {
                        unit: 1,
                        attempt: 2,
                        first: false,
                        bound: 42,
                        rows: vec![row(5), row(6), row(7), row(8)],
                    },
                    TaskItem {
                        unit: 2,
                        attempt: 1,
                        first: true,
                        bound: 42,
                        rows: vec![],
                    },
                ],
            }
            .encode(),
            sample_results().encode(),
            AcceptedMsg {
                index: 0,
                pairs: vec![(1, 2)],
            }
            .encode(),
            ResyncMsg { applied: 1 }.encode(),
            sample_telemetry().encode(),
        ];
        with_packs(|u| {
            for frame in frames {
                for i in 0..frame.len() {
                    let mut bad = frame.clone();
                    bad[i] ^= 0xA5; // the injector's corruption pattern
                    assert!(
                        TaskMsg::decode(&bad, u).is_err()
                            && ResultsMsg::decode(&bad, u).is_err()
                            && AcceptedMsg::decode(&bad).is_err()
                            && ResyncMsg::decode(&bad).is_err()
                            && TelemetryMsg::decode(&bad).is_err(),
                        "byte {i} flip survived decoding"
                    );
                }
            }
        });
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = TaskMsg::single(
            0,
            TaskItem {
                unit: 0,
                attempt: 1,
                first: true,
                bound: 9,
                rows: vec![],
            },
        )
        .encode();
        with_packs(|u| {
            for cut in 0..frame.len() {
                assert!(TaskMsg::decode(&frame[..cut], u).is_err());
            }
        });
    }
}
