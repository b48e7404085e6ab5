//! # repro-obs — the flight recorder
//!
//! The paper's headline claims are *work-accounting* claims — "90–97 %
//! of realignments avoided", "the SSE version computes < 0.70 % more
//! alignments", "up to 8.4 % more alignments" under the distributed
//! scheduler. This crate is the shared observability substrate every
//! engine reports through: a [`Recorder`] trait with **phase spans**,
//! **counters** and **structured events**, monomorphized into the hot
//! paths so the disabled recorder costs nothing.
//!
//! * [`NoopRecorder`] — every method is an inline empty body and
//!   [`Recorder::ENABLED`] is `false`, so the optimizer erases both the
//!   calls *and* the construction of their arguments. The default
//!   engine entry points (`find_top_alignments`, …) monomorphize
//!   against it; the `run_report` bench bin's ablation check measures
//!   that this costs no hot-loop time.
//! * [`FlightRecorder`] — the real thing: wall-clock per-phase timings,
//!   engine counters, and an optional bounded buffer of timestamped
//!   [`Event`]s (the cluster event log, emitted as JSONL so a chaos
//!   schedule can be replayed decision by decision).
//! * [`json`] — a dependency-free JSON writer/parser used by the run
//!   reports (the workspace is fully offline; there is no serde).

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod progress;

pub use hist::{Hist, HistSet, Metric, MAX_RELATIVE_ERROR, NUM_BUCKETS};
pub use progress::{Progress, ProgressSink, DEFAULT_HEARTBEAT};

use std::time::Instant;

/// A timed region of an engine run. Phases may be entered many times
/// (e.g. one [`Phase::Drain`] span per stale queue pop); the recorder
/// accumulates total seconds and entry counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// First (empty-triangle) alignment passes — the initial sweep.
    FirstSweep,
    /// Realignment passes after the first acceptance (queue drain).
    Drain,
    /// Full-matrix traceback of an accepted top alignment.
    Traceback,
    /// On-demand first-pass-row recomputation (linear-memory mode).
    RowRecompute,
    /// Worker threads blocked waiting for claimable work.
    WorkerIdle,
    /// Cluster master waiting on / healing the worker pool.
    Recovery,
    /// Repeat delineation from the accepted top alignments.
    Delineate,
    /// Consensus of the delineated repeat units.
    Consensus,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 8] = [
        Phase::FirstSweep,
        Phase::Drain,
        Phase::Traceback,
        Phase::RowRecompute,
        Phase::WorkerIdle,
        Phase::Recovery,
        Phase::Delineate,
        Phase::Consensus,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FirstSweep => "first_sweep",
            Phase::Drain => "drain",
            Phase::Traceback => "traceback",
            Phase::RowRecompute => "row_recompute",
            Phase::WorkerIdle => "worker_idle",
            Phase::Recovery => "recovery",
            Phase::Delineate => "delineate",
            Phase::Consensus => "consensus",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// An observation only the recorder makes. Every exact work tally
/// (pops, checkpoint hits, pruned splits, cluster retries, …) lives in
/// `repro-core`'s `Stats` alone, which merges across workers; no
/// counter repeats one, so a report never shows one tally twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// SIMD lanes that carried a live split in a group sweep.
    LanesActive,
    /// SIMD lanes that were padding (group shorter than the width).
    LanesPadded,
    /// Group sweeps performed (narrow and wide combined).
    GroupSweeps,
    /// Narrow `i16` sweeps that saturated and were redone wide: 0 by
    /// construction, since each pack's width is decided before its sweep
    /// from a bound that proves `i16` exact. The key stays in reports
    /// (and worker telemetry) for their readers.
    NarrowSaturations,
    /// Group sweeps run on wide `i32` lanes: packs past the `i16` bound.
    PromotedSweeps,
    /// Tasks (or groups) claimed by SMP worker threads.
    TaskClaims,
    /// Speculative work computed against a superseded triangle.
    SupersededWork,
    /// Workers declared dead by the recovery loop.
    ClusterWorkerDeaths,
    /// Replica resync requests served.
    ClusterResyncs,
    /// Acceptance broadcasts sent.
    ClusterBroadcasts,
    /// Times the master degraded to finishing the search locally.
    ClusterLocalFallbacks,
    /// Result frames the cluster master decoded; results settled per
    /// frame is alignments over this.
    ClusterResultFrames,
    /// Results the cluster master discarded for claiming a replica
    /// version it has not reached itself (a corrupt frame that got past
    /// the checksum).
    ClusterRejectedResults,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 13] = [
        Counter::LanesActive,
        Counter::LanesPadded,
        Counter::GroupSweeps,
        Counter::NarrowSaturations,
        Counter::PromotedSweeps,
        Counter::TaskClaims,
        Counter::SupersededWork,
        Counter::ClusterWorkerDeaths,
        Counter::ClusterResyncs,
        Counter::ClusterBroadcasts,
        Counter::ClusterLocalFallbacks,
        Counter::ClusterResultFrames,
        Counter::ClusterRejectedResults,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::LanesActive => "lanes_active",
            Counter::LanesPadded => "lanes_padded",
            Counter::GroupSweeps => "group_sweeps",
            Counter::NarrowSaturations => "narrow_saturations",
            Counter::PromotedSweeps => "promoted_sweeps",
            Counter::TaskClaims => "task_claims",
            Counter::SupersededWork => "superseded_work",
            Counter::ClusterWorkerDeaths => "cluster_worker_deaths",
            Counter::ClusterResyncs => "cluster_resyncs",
            Counter::ClusterBroadcasts => "cluster_broadcasts",
            Counter::ClusterLocalFallbacks => "cluster_local_fallbacks",
            Counter::ClusterResultFrames => "cluster_result_frames",
            Counter::ClusterRejectedResults => "cluster_rejected_results",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A structured scheduling event — the cluster event log. One JSONL
/// line per event makes a `chaos.rs` failure replayable: the exact
/// assign/retry/death/reassign schedule the recovery loop walked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The master assigned split `r` (attempt `attempt`, triangle
    /// version `stamp`) to `worker`.
    Assign {
        /// Destination worker rank.
        worker: usize,
        /// Split assigned.
        r: usize,
        /// Assignment attempt (bumped on every reissue).
        attempt: u64,
        /// Triangle version the task is stamped with.
        stamp: usize,
    },
    /// A result for split `r` arrived from `worker`.
    Result {
        /// Source worker rank.
        worker: usize,
        /// Split that was aligned.
        r: usize,
        /// Echoed attempt number.
        attempt: u64,
        /// Valid (shadow-filtered) score.
        score: i64,
    },
    /// An unanswered assignment was retransmitted.
    Retry {
        /// Worker being re-sent to.
        worker: usize,
        /// Split retransmitted.
        r: usize,
        /// Attempt number of the retransmitted task.
        attempt: u64,
        /// Retries so far for this assignment.
        retries: u32,
    },
    /// A worker was declared dead.
    WorkerDead {
        /// The written-off worker rank.
        worker: usize,
    },
    /// A top-alignment acceptance was broadcast.
    Broadcast {
        /// Acceptance index (0-based).
        index: usize,
    },
    /// A worker asked for the acceptances its replica is missing.
    Resync {
        /// Requesting worker rank.
        worker: usize,
        /// Acceptances the worker has applied so far.
        applied: usize,
    },
    /// Every worker was lost (or the budget expired); the master is
    /// finishing the search locally.
    LocalFallback,
    /// A telemetry snapshot arrived from a worker and was folded into
    /// the master's cluster-wide view (the per-worker counter timeline
    /// in chaos replays).
    Telemetry {
        /// Source worker rank.
        worker: usize,
        /// Monotone snapshot sequence number (gaps mean lost frames;
        /// cumulative snapshots make them harmless).
        seq: u64,
    },
    /// The search finished; DONE was broadcast.
    Done {
        /// Top alignments found.
        tops: usize,
    },
}

impl Event {
    /// Stable snake_case tag used in the JSONL log.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Assign { .. } => "assign",
            Event::Result { .. } => "result",
            Event::Retry { .. } => "retry",
            Event::WorkerDead { .. } => "worker_dead",
            Event::Broadcast { .. } => "broadcast",
            Event::Resync { .. } => "resync",
            Event::LocalFallback => "local_fallback",
            Event::Telemetry { .. } => "telemetry",
            Event::Done { .. } => "done",
        }
    }

    /// The event's fields as (name, value) pairs, for serialization.
    pub fn fields(&self) -> Vec<(&'static str, i64)> {
        match *self {
            Event::Assign {
                worker,
                r,
                attempt,
                stamp,
            } => vec![
                ("worker", worker as i64),
                ("r", r as i64),
                ("attempt", attempt as i64),
                ("stamp", stamp as i64),
            ],
            Event::Result {
                worker,
                r,
                attempt,
                score,
            } => vec![
                ("worker", worker as i64),
                ("r", r as i64),
                ("attempt", attempt as i64),
                ("score", score),
            ],
            Event::Retry {
                worker,
                r,
                attempt,
                retries,
            } => vec![
                ("worker", worker as i64),
                ("r", r as i64),
                ("attempt", attempt as i64),
                ("retries", retries as i64),
            ],
            Event::WorkerDead { worker } => vec![("worker", worker as i64)],
            Event::Broadcast { index } => vec![("index", index as i64)],
            Event::Resync { worker, applied } => {
                vec![("worker", worker as i64), ("applied", applied as i64)]
            }
            Event::LocalFallback => Vec::new(),
            Event::Telemetry { worker, seq } => {
                vec![("worker", worker as i64), ("seq", seq as i64)]
            }
            Event::Done { tops } => vec![("tops", tops as i64)],
        }
    }
}

/// A recorded event with its run-relative timestamp in microseconds
/// (wall clock for the thread-backed engines; a virtual-time backend
/// can stamp explicitly via [`Recorder::event_at`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Microseconds since the recorder (= the run) started.
    pub t_us: u64,
    /// The event.
    pub event: Event,
}

impl EventRecord {
    /// One JSONL line: `{"t_us":…,"ev":"assign","worker":1,…}`.
    pub fn to_jsonl(&self) -> String {
        let mut line = format!("{{\"t_us\":{},\"ev\":\"{}\"", self.t_us, self.event.name());
        for (k, v) in self.event.fields() {
            line.push_str(&format!(",\"{k}\":{v}"));
        }
        line.push('}');
        line
    }
}

/// The instrumentation sink every engine hot path is generic over.
///
/// All methods have empty default bodies; [`NoopRecorder`] overrides
/// nothing, so after monomorphization the disabled path contains no
/// instrumentation code at all (the TriProbe lesson: a generic
/// parameter, not a runtime branch). Code that must *construct* an
/// argument (e.g. format an event) should gate on
/// [`Recorder::ENABLED`] so even the construction folds away.
pub trait Recorder {
    /// `false` only for [`NoopRecorder`]: lets call sites skip building
    /// event payloads entirely.
    const ENABLED: bool = true;

    /// Enter `phase` (spans may nest across *different* phases; a phase
    /// must be exited before it is re-entered).
    #[inline]
    fn phase_start(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Leave `phase`, accumulating the elapsed time.
    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Add externally measured seconds to a phase (used where the time
    /// is accumulated elsewhere, e.g. per-worker idle time).
    #[inline]
    fn add_phase_secs(&mut self, phase: Phase, secs: f64) {
        let _ = (phase, secs);
    }

    /// Bump a counter by `n`.
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Record an event, stamped with the recorder's own clock.
    #[inline]
    fn event(&mut self, event: Event) {
        let _ = event;
    }

    /// Record an event at an explicit run-relative time (virtual-time
    /// backends stamp with their simulated clock).
    #[inline]
    fn event_at(&mut self, t_us: u64, event: Event) {
        let _ = (t_us, event);
    }

    /// Record one sample into `metric`'s histogram. Call sites that
    /// must *measure* the sample (take a clock, compute a delta) should
    /// gate the measurement on [`Recorder::ENABLED`] so the disabled
    /// path folds away.
    #[inline]
    fn observe(&mut self, metric: Metric, value: u64) {
        let _ = (metric, value);
    }

    /// Fold a whole pre-built histogram into `metric`'s slot (how
    /// per-worker and remote histograms merge into the run-wide view;
    /// exact, because log-bucketed merge is bucket-wise addition).
    #[inline]
    fn observe_hist(&mut self, metric: Metric, hist: &Hist) {
        let _ = (metric, hist);
    }

    /// Offer a progress snapshot to the attached [`ProgressSink`], if
    /// any (rate-limited by the sink; a recorder without a sink drops
    /// it). Snapshot construction should gate on [`Recorder::ENABLED`].
    #[inline]
    fn progress(&mut self, p: &Progress) {
        let _ = p;
    }
}

/// The disabled recorder: compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

/// Default cap on buffered events: plenty for any test or chaos
/// schedule, bounded so a pathological run cannot eat the heap.
pub const DEFAULT_EVENT_CAP: usize = 200_000;

/// The real recorder: per-phase wall-clock totals and entry counts,
/// counters, and an optional bounded event buffer.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    start: Instant,
    phase_secs: [f64; Phase::ALL.len()],
    phase_entries: [u64; Phase::ALL.len()],
    phase_open: [Option<Instant>; Phase::ALL.len()],
    counters: [u64; Counter::ALL.len()],
    hists: HistSet,
    /// `Some` iff event capture is on.
    events: Option<Vec<EventRecord>>,
    event_cap: usize,
    dropped_events: u64,
    progress_sink: Option<ProgressSink>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with phases and counters but no event capture.
    pub fn new() -> Self {
        FlightRecorder {
            start: Instant::now(),
            phase_secs: [0.0; Phase::ALL.len()],
            phase_entries: [0; Phase::ALL.len()],
            phase_open: [None; Phase::ALL.len()],
            counters: [0; Counter::ALL.len()],
            hists: HistSet::new(),
            events: None,
            event_cap: DEFAULT_EVENT_CAP,
            dropped_events: 0,
            progress_sink: None,
        }
    }

    /// A recorder that also buffers up to `cap` events.
    pub fn with_events(cap: usize) -> Self {
        let mut r = FlightRecorder::new();
        r.events = Some(Vec::new());
        r.event_cap = cap;
        r
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Accumulated seconds in `phase`.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.phase_secs[phase.index()]
    }

    /// Times `phase` was entered (or credited via `add_phase_secs`).
    pub fn phase_entries(&self, phase: Phase) -> u64 {
        self.phase_entries[phase.index()]
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The histogram of `metric`.
    pub fn hist(&self, metric: Metric) -> &Hist {
        self.hists.get(metric)
    }

    /// All metric histograms.
    pub fn hists(&self) -> &HistSet {
        &self.hists
    }

    /// Attach a progress sink; subsequent [`Recorder::progress`] calls
    /// stream rate-limited JSONL heartbeats through it.
    pub fn set_progress(&mut self, sink: ProgressSink) {
        self.progress_sink = Some(sink);
    }

    /// Emit a final heartbeat, bypassing the sink's rate limit (so a
    /// run always ends with an up-to-date line).
    pub fn progress_force(&mut self, p: &Progress) {
        if let Some(sink) = &self.progress_sink {
            sink.force(p);
        }
    }

    /// Cumulative counters + histograms as a telemetry snapshot — what
    /// a cluster worker ships to the master.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters,
            hists: self.hists.clone(),
        }
    }

    /// The buffered events (empty when capture is off).
    pub fn events(&self) -> &[EventRecord] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Events discarded because the buffer cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Fold another recorder's totals into this one (events append, up
    /// to this recorder's cap; phase/counter totals sum).
    pub fn merge(&mut self, other: &FlightRecorder) {
        for i in 0..Phase::ALL.len() {
            self.phase_secs[i] += other.phase_secs[i];
            self.phase_entries[i] += other.phase_entries[i];
        }
        for i in 0..Counter::ALL.len() {
            self.counters[i] += other.counters[i];
        }
        self.hists.merge(&other.hists);
        self.dropped_events += other.dropped_events;
        for rec in other.events() {
            self.push_event(rec.clone());
        }
    }

    fn push_event(&mut self, rec: EventRecord) {
        let cap = self.event_cap;
        if let Some(buf) = self.events.as_mut() {
            if buf.len() < cap {
                buf.push(rec);
            } else {
                self.dropped_events += 1;
            }
        }
    }
}

impl Recorder for FlightRecorder {
    #[inline]
    fn phase_start(&mut self, phase: Phase) {
        let slot = &mut self.phase_open[phase.index()];
        debug_assert!(slot.is_none(), "phase {} re-entered", phase.name());
        *slot = Some(Instant::now());
    }

    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        let i = phase.index();
        if let Some(t0) = self.phase_open[i].take() {
            self.phase_secs[i] += t0.elapsed().as_secs_f64();
            self.phase_entries[i] += 1;
        }
    }

    #[inline]
    fn add_phase_secs(&mut self, phase: Phase, secs: f64) {
        let i = phase.index();
        self.phase_secs[i] += secs;
        self.phase_entries[i] += 1;
    }

    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    #[inline]
    fn event(&mut self, event: Event) {
        let t_us = self.start.elapsed().as_micros() as u64;
        self.push_event(EventRecord { t_us, event });
    }

    #[inline]
    fn event_at(&mut self, t_us: u64, event: Event) {
        self.push_event(EventRecord { t_us, event });
    }

    #[inline]
    fn observe(&mut self, metric: Metric, value: u64) {
        self.hists.observe(metric, value);
    }

    #[inline]
    fn observe_hist(&mut self, metric: Metric, hist: &Hist) {
        self.hists.merge_hist(metric, hist);
    }

    #[inline]
    fn progress(&mut self, p: &Progress) {
        if let Some(sink) = &self.progress_sink {
            sink.emit(p);
        }
    }
}

/// A cumulative snapshot of a recorder's counters and histograms — the
/// payload of a cluster telemetry frame. Snapshots are cumulative (not
/// deltas) so lost frames are harmless: the next one covers the gap.
/// The master diffs consecutive snapshots per worker via
/// [`TelemetrySnapshot::delta_from`] and folds the deltas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Cumulative counter values, in [`Counter::ALL`] order.
    pub counters: [u64; Counter::ALL.len()],
    /// Cumulative metric histograms.
    pub hists: HistSet,
}

impl TelemetrySnapshot {
    /// The cumulative value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The growth of `self` since `prev` (an earlier snapshot of the
    /// same worker). Counters subtract saturating; a histogram that
    /// shrank (worker restart) contributes its whole current state
    /// rather than a bogus delta.
    pub fn delta_from(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut counters = [0u64; Counter::ALL.len()];
        for (i, slot) in counters.iter_mut().enumerate() {
            *slot = self.counters[i].saturating_sub(prev.counters[i]);
        }
        let mut hists = HistSet::new();
        for m in Metric::ALL {
            let cur = self.hists.get(m);
            let d = cur
                .delta_from(prev.hists.get(m))
                .unwrap_or_else(|| cur.clone());
            hists.merge_hist(m, &d);
        }
        TelemetrySnapshot { counters, hists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_free_to_call() {
        const { assert!(!NoopRecorder::ENABLED) };
        const { assert!(FlightRecorder::ENABLED) };
        let mut r = NoopRecorder;
        r.phase_start(Phase::Drain);
        r.add(Counter::TaskClaims, 5);
        r.event(Event::LocalFallback);
        r.phase_end(Phase::Drain);
    }

    #[test]
    fn phases_accumulate_time_and_entries() {
        let mut r = FlightRecorder::new();
        for _ in 0..3 {
            r.phase_start(Phase::Traceback);
            std::thread::sleep(std::time::Duration::from_millis(1));
            r.phase_end(Phase::Traceback);
        }
        assert_eq!(r.phase_entries(Phase::Traceback), 3);
        assert!(r.phase_secs(Phase::Traceback) >= 0.003);
        assert_eq!(r.phase_entries(Phase::Drain), 0);
        // Unbalanced end is ignored, not a panic.
        r.phase_end(Phase::Drain);
        assert_eq!(r.phase_entries(Phase::Drain), 0);
    }

    #[test]
    fn counters_and_external_phase_seconds() {
        let mut r = FlightRecorder::new();
        r.add(Counter::ClusterResyncs, 2);
        r.add(Counter::ClusterResyncs, 3);
        assert_eq!(r.counter(Counter::ClusterResyncs), 5);
        r.add_phase_secs(Phase::WorkerIdle, 0.25);
        assert_eq!(r.phase_secs(Phase::WorkerIdle), 0.25);
        assert_eq!(r.phase_entries(Phase::WorkerIdle), 1);
    }

    #[test]
    fn events_are_stamped_buffered_and_capped() {
        let mut r = FlightRecorder::with_events(2);
        r.event(Event::Broadcast { index: 0 });
        r.event_at(
            77,
            Event::Assign {
                worker: 1,
                r: 4,
                attempt: 1,
                stamp: 0,
            },
        );
        r.event(Event::Done { tops: 3 }); // over the cap: dropped
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped_events(), 1);
        assert_eq!(r.events()[1].t_us, 77);
        let line = r.events()[1].to_jsonl();
        assert_eq!(
            line,
            "{\"t_us\":77,\"ev\":\"assign\",\"worker\":1,\"r\":4,\"attempt\":1,\"stamp\":0}"
        );
        // The JSONL line is valid JSON.
        let v = crate::json::Json::parse(&line).unwrap();
        assert_eq!(v.get("ev").and_then(|j| j.as_str()), Some("assign"));
    }

    #[test]
    fn capture_off_records_nothing() {
        let mut r = FlightRecorder::new();
        r.event(Event::LocalFallback);
        assert!(r.events().is_empty());
        assert_eq!(r.dropped_events(), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = FlightRecorder::with_events(10);
        a.add(Counter::GroupSweeps, 1);
        a.add_phase_secs(Phase::Drain, 0.5);
        let mut b = FlightRecorder::with_events(10);
        b.add(Counter::GroupSweeps, 2);
        b.add_phase_secs(Phase::Drain, 0.25);
        b.event(Event::WorkerDead { worker: 2 });
        a.merge(&b);
        assert_eq!(a.counter(Counter::GroupSweeps), 3);
        assert_eq!(a.phase_secs(Phase::Drain), 0.75);
        assert_eq!(a.phase_entries(Phase::Drain), 2);
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
        }
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        let mut seen = std::collections::HashSet::new();
        for m in Metric::ALL {
            assert!(seen.insert(m.name()), "duplicate metric name {}", m.name());
        }
    }

    #[test]
    fn recorder_observes_into_histograms_and_merge_folds_them() {
        let mut a = FlightRecorder::new();
        a.observe(Metric::SweepNs, 1_000);
        a.observe(Metric::SweepNs, 100_000);
        let mut b = FlightRecorder::new();
        b.observe(Metric::SweepNs, 50);
        let mut pre = Hist::new();
        pre.record(7);
        pre.record(9);
        b.observe_hist(Metric::QueueWaitNs, &pre);
        a.merge(&b);
        assert_eq!(a.hist(Metric::SweepNs).count(), 3);
        assert_eq!(a.hist(Metric::QueueWaitNs).count(), 2);
        assert_eq!(a.hist(Metric::QueueWaitNs).sum(), 16);
        assert_eq!(a.hist(Metric::ResumeRows).count(), 0);
    }

    #[test]
    fn telemetry_snapshot_delta_covers_counters_and_hists() {
        let mut r = FlightRecorder::new();
        r.add(Counter::GroupSweeps, 5);
        r.observe(Metric::SweepNs, 100);
        let first = r.telemetry_snapshot();
        r.add(Counter::GroupSweeps, 3);
        r.observe(Metric::SweepNs, 200);
        r.observe(Metric::ResumeRows, 12);
        let second = r.telemetry_snapshot();
        let delta = second.delta_from(&first);
        assert_eq!(delta.counter(Counter::GroupSweeps), 3);
        assert_eq!(delta.hists.get(Metric::SweepNs).count(), 1);
        assert_eq!(delta.hists.get(Metric::ResumeRows).count(), 1);
        // A shrunk (restarted-worker) snapshot contributes its whole
        // current histogram, never a bogus delta.
        let restarted = first.delta_from(&second);
        assert_eq!(restarted.hists.get(Metric::SweepNs).count(), 1);
        assert_eq!(restarted.counter(Counter::GroupSweeps), 0);
    }

    #[test]
    fn progress_event_serializes() {
        let mut r = FlightRecorder::with_events(4);
        r.event_at(9, Event::Telemetry { worker: 2, seq: 5 });
        let line = r.events()[0].to_jsonl();
        assert_eq!(
            line,
            "{\"t_us\":9,\"ev\":\"telemetry\",\"worker\":2,\"seq\":5}"
        );
    }
}
