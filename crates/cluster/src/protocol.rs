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

use repro_align::{Alphabet, ExchangeMatrix, GapPenalties, Score, Scoring, Seq};
use repro_core::SplitOutcome;
use repro_obs::{Counter, Hist, HistSet, Metric, TelemetrySnapshot};
use repro_xmpi::wire::{Decoder, Encoder, WireError};

/// Message tags.
pub mod tag {
    /// Worker → master: "I am idle" (sent at startup, repeated until
    /// the master's first assignment proves the registration arrived).
    pub const IDLE: u32 = 1;
    /// Master → worker: a task assignment (or a retransmission of one).
    pub const TASK: u32 = 2;
    /// Worker → master: the results of one or more items of one task
    /// frame ([`super::ResultsMsg`]).
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

/// One split's assignment inside a (possibly batched) [`TaskMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskItem {
    /// Split to (re)align.
    pub r: usize,
    /// Assignment attempt for this split, bumped on every (re)issue;
    /// echoed back in the result so the master can discard stale ones.
    pub attempt: u64,
    /// `true` iff this is the split's very first alignment (no stored
    /// row exists anywhere yet; the worker must return its bottom row).
    pub first: bool,
    /// The master's current upper bound on this split's score: the
    /// seed bound for never-aligned splits, the stale score otherwise,
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
    /// The stored first-pass bottom row, included when the worker has no
    /// cached copy; `None` on first passes and for cache hits.
    pub row: Option<Vec<Score>>,
}

impl TaskItem {
    /// `true` iff `other` is this very assignment (same split, same
    /// attempt) — a retransmitted copy of an item still waiting on a
    /// worker is answered when that one runs, so the copy is dropped.
    pub(crate) fn same_attempt(&self, other: &TaskItem) -> bool {
        self.r == other.r && self.attempt == other.attempt
    }

    fn encode_into(&self, e: Encoder) -> Encoder {
        let e = e
            .usize(self.r)
            .u64(self.attempt)
            .u64(self.first as u64)
            .i32(self.bound);
        match &self.row {
            Some(row) => e.u64(1).i32_slice(row),
            None => e.u64(0),
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let r = d.usize()?;
        let attempt = d.u64()?;
        let first = d.u64()? == 1;
        let bound = d.i32()?;
        let row = if d.u64()? == 1 {
            Some(d.i32_vec()?)
        } else {
            None
        };
        Ok(TaskItem {
            r,
            attempt,
            first,
            bound,
            row,
        })
    }
}

/// A task assignment: a batch of one or more splits to (re)align under
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
    /// The batched assignments, sorted by split index ascending (the
    /// bound-locality order: consecutive splits share checkpoint and
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

    /// Decode from a framed payload. An empty batch is rejected as
    /// malformed: the master never sends one, so it can only be
    /// corruption that survived the checksum by colliding.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let stamp = d.usize()?;
        let n = d.usize()?;
        // Each item needs at least its fixed fields; reject a hostile
        // count before allocating.
        if n == 0 || n > 1 << 20 {
            return Err(WireError::BadLength { claimed: n });
        }
        let items = (0..n)
            .map(|_| TaskItem::decode_from(&mut d))
            .collect::<Result<Vec<_>, _>>()?;
        d.expect_exhausted()?;
        Ok(TaskMsg { stamp, items })
    }
}

/// One task's result. Results travel in [`ResultsMsg`] frames, never
/// alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultMsg {
    /// Split that was aligned.
    pub r: usize,
    /// Replica version the score was computed against: the ACCEPTED
    /// broadcasts the worker had applied when the sweep started — at or
    /// past the task's stamp, never the task's stamp echoed back. The
    /// master trusts the score as exact only when this equals its own
    /// acceptance count.
    pub stamp: usize,
    /// The attempt number echoed from the [`TaskItem`].
    pub attempt: u64,
    /// Valid (shadow-filtered) score.
    pub score: Score,
    /// Cells computed (for the master's accounting).
    pub cells: u64,
    /// Bottom-row entries the worker's shadow filter rejected (0 on
    /// first passes; folded into the master's `Stats`).
    pub shadow_rejections: u64,
    /// Incremental-realignment tallies from the worker's checkpoint
    /// layer, folded into the master's `Stats` exactly once (stale
    /// attempts are discarded wholesale): `(checkpoint hits, misses,
    /// rows swept, rows skipped)`. All zero when the layer is off.
    pub incr: [u64; 4],
    /// First-pass bottom row (only on the first alignment of `r`).
    pub first_row: Option<Vec<Score>>,
}

impl ResultMsg {
    /// The answer to `task`: the split unit's outcome of sweeping it
    /// under replica version `stamp`.
    pub fn answer(task: &TaskItem, stamp: usize, out: SplitOutcome) -> Self {
        ResultMsg {
            r: task.r,
            stamp,
            attempt: task.attempt,
            score: out.score,
            cells: out.cells,
            shadow_rejections: out.shadow_rejections,
            incr: out.resume.map_or([0; 4], |resume| resume.tallies()),
            first_row: out.first_row,
        }
    }

    /// Encoded size of an item without a row: what a frame must still
    /// hold per claimed item.
    const MIN_BYTES: usize = 3 * 8 + 4 + 2 * 8 + 4 * 8 + 8;

    fn encode_into(&self, e: Encoder) -> Encoder {
        let e = e
            .usize(self.r)
            .usize(self.stamp)
            .u64(self.attempt)
            .i32(self.score)
            .u64(self.cells)
            .u64(self.shadow_rejections)
            .u64(self.incr[0])
            .u64(self.incr[1])
            .u64(self.incr[2])
            .u64(self.incr[3]);
        match &self.first_row {
            Some(row) => e.u64(1).i32_slice(row),
            None => e.u64(0),
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let r = d.usize()?;
        let stamp = d.usize()?;
        let attempt = d.u64()?;
        let score = d.i32()?;
        let cells = d.u64()?;
        let shadow_rejections = d.u64()?;
        let incr = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let first_row = if d.u64()? == 1 {
            Some(d.i32_vec()?)
        } else {
            None
        };
        Ok(ResultMsg {
            r,
            stamp,
            attempt,
            score,
            cells,
            shadow_rejections,
            incr,
            first_row,
        })
    }
}

/// The result frame: the results of one or more items of one
/// [`TaskMsg`], in the order they were computed. Replacing the
/// one-result frame with this list is the wire-v5 layout change
/// ([`repro_xmpi::wire::VERSION`]). A worker flushes the frame when the
/// task frame's last item finishes, or earlier when the score just
/// computed is at least every bound still queued from that task frame
/// or the worker has sent nothing for a beacon period (DESIGN.md,
/// "Batched task assignment"). The master settles each item
/// on its own `attempt`, so a lost frame is healed item by item.
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

    /// Decode from a framed payload. An empty list is malformed (no
    /// worker sends one), and a count the remaining bytes cannot hold
    /// is rejected before anything is allocated for it.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new_framed(payload)?;
        let n = d.usize()?;
        if n == 0 || n > d.remaining() / ResultMsg::MIN_BYTES {
            return Err(WireError::BadLength { claimed: n });
        }
        let items = (0..n)
            .map(|_| ResultMsg::decode_from(&mut d))
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
        .finish_framed()
    }

    /// Decode from a framed payload. The gap penalties are re-validated
    /// (non-negative open, positive extend), and the scoring against the
    /// sequence length ([`Scoring::check_range`]), so a frame from a
    /// buggy peer fails typed instead of tripping an assert — or
    /// wrapping a score — downstream.
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
        d.expect_exhausted()?;
        let exchange = ExchangeMatrix::from_fn(alphabet, |a, b| {
            table[a as usize * k + b as usize]
        });
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
        let counters: [u64; Counter::ALL.len()] = counters_vec
            .try_into()
            .map_err(|_| WireError::BadFrame)?;
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

    #[test]
    fn task_roundtrip() {
        for msg in [
            TaskMsg::single(
                2,
                TaskItem {
                    r: 5,
                    attempt: 1,
                    first: true,
                    bound: Score::MAX,
                    row: None,
                },
            ),
            TaskMsg::single(
                0,
                TaskItem {
                    r: 1,
                    attempt: 3,
                    first: false,
                    bound: -17,
                    row: Some(vec![3, -1, 0, 99]),
                },
            ),
            // A mixed batch: first pass, cached realignment, attached row.
            TaskMsg {
                stamp: 4,
                items: vec![
                    TaskItem {
                        r: 2,
                        attempt: 1,
                        first: true,
                        bound: 50,
                        row: None,
                    },
                    TaskItem {
                        r: 3,
                        attempt: 2,
                        first: false,
                        bound: 44,
                        row: None,
                    },
                    TaskItem {
                        r: 7,
                        attempt: 5,
                        first: false,
                        bound: 9,
                        row: Some(vec![0, 1, -2]),
                    },
                ],
            },
        ] {
            assert_eq!(TaskMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn empty_task_batch_is_rejected() {
        let framed = Encoder::new().usize(3).usize(0).finish_framed();
        assert!(matches!(
            TaskMsg::decode(&framed),
            Err(WireError::BadLength { claimed: 0 })
        ));
    }

    fn sample_results() -> ResultsMsg {
        ResultsMsg {
            items: vec![
                ResultMsg {
                    r: 9,
                    stamp: 4,
                    attempt: 2,
                    score: 123,
                    cells: 1 << 40,
                    shadow_rejections: 7,
                    incr: [1, 2, 30, 40],
                    first_row: None,
                },
                ResultMsg {
                    r: 2,
                    stamp: 0,
                    attempt: 1,
                    score: 0,
                    cells: 0,
                    shadow_rejections: 0,
                    incr: [0; 4],
                    first_row: Some(vec![]),
                },
                ResultMsg {
                    r: 3,
                    stamp: 5,
                    attempt: 7,
                    score: -4,
                    cells: 12,
                    shadow_rejections: 1,
                    incr: [0; 4],
                    first_row: Some(vec![3, -1, 0, 99]),
                },
            ],
        }
    }

    #[test]
    fn results_roundtrip() {
        let msg = sample_results();
        assert_eq!(ResultsMsg::decode(&msg.encode()).unwrap(), msg);
        for item in msg.items {
            let one = ResultsMsg { items: vec![item] };
            assert_eq!(ResultsMsg::decode(&one.encode()).unwrap(), one);
        }
    }

    #[test]
    fn empty_and_hostile_result_counts_are_rejected_before_allocation() {
        let empty = Encoder::new().usize(0).finish_framed();
        assert_eq!(
            ResultsMsg::decode(&empty),
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
                ResultsMsg::decode(&frame),
                Err(WireError::BadLength { claimed })
            );
        }
    }

    /// `payload` in a well-formed frame, as `finish_framed` would.
    fn framed(payload: &[u8]) -> Vec<u8> {
        use repro_xmpi::wire::{fnv1a64, MAGIC, VERSION};
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
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
        for cut in first_len..body.len() {
            assert!(
                matches!(
                    ResultsMsg::decode(&framed(&body[..cut])),
                    Err(WireError::Truncated { .. } | WireError::BadLength { .. })
                ),
                "cut at {cut} decoded"
            );
        }
        // And a frame cut on the wire fails its framing.
        let frame = sample_results().encode();
        for cut in 0..frame.len() {
            assert!(ResultsMsg::decode(&frame[..cut]).is_err());
        }
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
        for (seq, scoring) in [
            (Seq::dna("ATGCATGCNN").unwrap(), Scoring::dna_example()),
            (
                Seq::protein("MGEKALVPYRX").unwrap(),
                Scoring::protein_default(),
            ),
        ] {
            let msg = JobMsg {
                count: 7,
                seq,
                scoring,
                deadline_ms: 45_000,
                checkpoint_budget: Some(1 << 20),
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
                        r: 4,
                        attempt: 2,
                        first: false,
                        bound: 42,
                        row: Some(vec![1, 2, 3]),
                    },
                    TaskItem {
                        r: 5,
                        attempt: 1,
                        first: true,
                        bound: 42,
                        row: None,
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
        for frame in frames {
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0xA5; // the injector's corruption pattern
                assert!(
                    TaskMsg::decode(&bad).is_err()
                        && ResultsMsg::decode(&bad).is_err()
                        && AcceptedMsg::decode(&bad).is_err()
                        && ResyncMsg::decode(&bad).is_err()
                        && TelemetryMsg::decode(&bad).is_err(),
                    "byte {i} flip survived decoding"
                );
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = TaskMsg::single(
            0,
            TaskItem {
                r: 1,
                attempt: 1,
                first: true,
                bound: 9,
                row: None,
            },
        )
        .encode();
        for cut in 0..frame.len() {
            assert!(TaskMsg::decode(&frame[..cut]).is_err());
        }
    }
}
