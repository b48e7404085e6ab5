//! Chrome trace-event export.
//!
//! Turns a finished run's flight record into the Trace Event Format
//! JSON that `chrome://tracing` and Perfetto load directly: the
//! per-phase wall-clock totals as complete (`"X"`) spans on a dedicated
//! timeline row, and — when the run was captured with
//! [`crate::Repro::trace`] — each worker's task executions as spans on
//! that worker's own row, reconstructed by pairing `assign` events with
//! the `result` that answered them. Everything else in the event log
//! (retries, deaths, broadcasts, telemetry frames) becomes instant
//! (`"i"`) marks so fault-injection runs read like a timeline.
//!
//! Phases accumulate totals rather than record start timestamps, so
//! their spans are stacked back-to-back from `ts = 0`: the row shows
//! *where the time went*, not *when* — the worker rows carry the real
//! chronology.

use crate::report::RunReport;
use repro_obs::json::{num, obj, str, Json};
use repro_obs::{Event, EventRecord};
use std::collections::HashMap;

/// The `tid` carrying the stacked phase spans (worker `w` gets
/// `w + WORKER_TID_BASE`).
const PHASE_TID: u64 = 0;

/// Offset between a worker rank and its trace `tid`, keeping rank 0
/// clear of the phase row.
const WORKER_TID_BASE: u64 = 1;

fn trace_event(
    name: &str,
    ph: &str,
    tid: u64,
    ts_us: u64,
    dur_us: Option<u64>,
    args: Vec<(&'static str, Json)>,
) -> Json {
    let mut fields = vec![
        ("name", str(name)),
        ("ph", str(ph)),
        ("pid", num(0.0)),
        ("tid", num(tid as f64)),
        ("ts", num(ts_us as f64)),
    ];
    if let Some(dur) = dur_us {
        fields.push(("dur", num(dur as f64)));
    }
    if ph == "i" {
        // Instant events need a scope; "t" (thread) keeps the mark on
        // its worker's row instead of a full-height flash.
        fields.push(("s", str("t")));
    }
    if !args.is_empty() {
        fields.push(("args", obj(args)));
    }
    obj(fields)
}

fn thread_name(tid: u64, name: &str) -> Json {
    obj(vec![
        ("name", str("thread_name")),
        ("ph", str("M")),
        ("pid", num(0.0)),
        ("tid", num(tid as f64)),
        ("args", obj(vec![("name", str(name))])),
    ])
}

/// Build the Chrome trace for a run: phase spans from `run`, worker
/// task spans and instant marks from `events` (pass the empty slice
/// for an untraced run — the phase row alone is still a valid trace).
/// The returned value serializes with
/// [`Json::to_string_compact`] into a file `chrome://tracing` opens.
pub fn chrome_trace(run: &RunReport, events: &[EventRecord]) -> Json {
    let mut out = Vec::new();
    out.push(obj(vec![
        ("name", str("process_name")),
        ("ph", str("M")),
        ("pid", num(0.0)),
        ("args", obj(vec![("name", str(&run.engine))])),
    ]));
    out.push(thread_name(PHASE_TID, "phases (stacked totals)"));

    // Phase totals, stacked back-to-back: `ts` here is an offset into
    // "time attributed so far", not wall clock.
    let mut cursor_us = 0u64;
    for p in &run.phases {
        let dur_us = (p.secs * 1e6).round() as u64;
        if p.entries == 0 && dur_us == 0 {
            continue;
        }
        out.push(trace_event(
            p.name,
            "X",
            PHASE_TID,
            cursor_us,
            Some(dur_us),
            vec![("entries", num(p.entries as f64))],
        ));
        cursor_us += dur_us;
    }

    // Worker task spans: assign → matching result. Keyed by the full
    // (worker, split, attempt) triple so a retransmitted task's answer
    // closes the retransmission's span, not the original's.
    let mut open: HashMap<(usize, usize, u64), u64> = HashMap::new();
    let mut named: Vec<u64> = Vec::new();
    let mut name_worker_row = |out: &mut Vec<Json>, worker: usize| {
        let tid = worker as u64 + WORKER_TID_BASE;
        if !named.contains(&tid) {
            named.push(tid);
            out.push(thread_name(tid, &format!("worker {worker}")));
        }
        tid
    };
    for e in events {
        match e.event {
            Event::Assign {
                worker, r, attempt, ..
            } => {
                open.insert((worker, r, attempt), e.t_us);
            }
            Event::Result {
                worker,
                r,
                attempt,
                score,
            } => {
                let tid = name_worker_row(&mut out, worker);
                if let Some(start) = open.remove(&(worker, r, attempt)) {
                    out.push(trace_event(
                        &format!("split {r}"),
                        "X",
                        tid,
                        start,
                        Some(e.t_us.saturating_sub(start)),
                        vec![
                            ("attempt", num(attempt as f64)),
                            ("score", num(score as f64)),
                        ],
                    ));
                } else {
                    // A result whose assign fell out of the (capped)
                    // event buffer: keep it visible as an instant.
                    out.push(trace_event(
                        &format!("split {r} (unpaired result)"),
                        "i",
                        tid,
                        e.t_us,
                        None,
                        vec![("score", num(score as f64))],
                    ));
                }
            }
            Event::Retry {
                worker, r, attempt, ..
            } => {
                let tid = name_worker_row(&mut out, worker);
                out.push(trace_event(
                    &format!("retry split {r}"),
                    "i",
                    tid,
                    e.t_us,
                    None,
                    vec![("attempt", num(attempt as f64))],
                ));
            }
            Event::WorkerDead { worker } => {
                let tid = name_worker_row(&mut out, worker);
                out.push(trace_event("worker dead", "i", tid, e.t_us, None, vec![]));
            }
            Event::Telemetry { worker, seq } => {
                let tid = name_worker_row(&mut out, worker);
                let args = vec![("seq", num(seq as f64))];
                out.push(trace_event("telemetry", "i", tid, e.t_us, None, args));
            }
            Event::Resync { worker, applied } => {
                let tid = name_worker_row(&mut out, worker);
                out.push(trace_event(
                    "resync",
                    "i",
                    tid,
                    e.t_us,
                    None,
                    vec![("applied", num(applied as f64))],
                ));
            }
            Event::Broadcast { index } => {
                out.push(trace_event(
                    &format!("broadcast #{index}"),
                    "i",
                    PHASE_TID,
                    e.t_us,
                    None,
                    vec![],
                ));
            }
            Event::LocalFallback => {
                out.push(trace_event(
                    "local fallback",
                    "i",
                    PHASE_TID,
                    e.t_us,
                    None,
                    vec![],
                ));
            }
            Event::Done { tops } => {
                out.push(trace_event(
                    "done",
                    "i",
                    PHASE_TID,
                    e.t_us,
                    None,
                    vec![("tops", num(tops as f64))],
                ));
            }
        }
    }

    obj(vec![("traceEvents", Json::Arr(out))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Repro, Scoring, Seq};

    fn events_of(trace: &Json) -> &[Json] {
        trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
    }

    fn spans_named<'a>(events: &'a [Json], name: &str) -> Vec<&'a Json> {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .collect()
    }

    #[test]
    fn phases_stack_and_worker_spans_pair_assign_with_result() {
        let seq = Seq::dna(&"ATGC".repeat(6)).unwrap();
        let analysis = Repro::new(Scoring::dna_example())
            .top_alignments(3)
            .engine(Engine::Cluster { workers: 2 })
            .trace(true)
            .run(&seq);
        let trace = chrome_trace(&analysis.run, &analysis.events);
        // The whole document survives a serialize → parse round trip.
        let text = trace.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        let events = events_of(&parsed);

        // Phase spans stack back-to-back on the phase row.
        let recovery = spans_named(events, "recovery");
        assert_eq!(recovery.len(), 1, "one recovery span");
        let mut cursor = 0;
        for e in events.iter().filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(0)
        }) {
            let ts = e.get("ts").and_then(Json::as_u64).unwrap();
            let dur = e.get("dur").and_then(Json::as_u64).unwrap();
            assert_eq!(ts, cursor, "phase spans must stack without gaps");
            cursor = ts + dur;
        }

        // Every split the cluster resolved remotely shows up as a span
        // on a worker row, with a duration consistent with its
        // assign/result timestamps (dur is u64 → non-negative).
        let worker_spans: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= 1
            })
            .collect();
        assert!(
            !worker_spans.is_empty(),
            "cluster run must yield task spans"
        );
        for s in &worker_spans {
            assert!(s.get("dur").and_then(Json::as_u64).is_some());
            let name = s.get("name").and_then(Json::as_str).unwrap();
            assert!(name.starts_with("split "), "{name}");
        }
        // Worker rows are labelled.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .map(|n| n.starts_with("worker "))
                    .unwrap_or(false)
        }));
        // Telemetry frames appear as instant marks on worker rows.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("telemetry")
                && e.get("ph").and_then(Json::as_str) == Some("i")
        }));
    }

    #[test]
    fn untraced_run_still_exports_the_phase_row() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let analysis = Repro::new(Scoring::dna_example())
            .top_alignments(2)
            .run(&seq);
        let trace = chrome_trace(&analysis.run, &analysis.events);
        let text = trace.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        let events = events_of(&parsed);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        // No worker rows without an event log.
        assert!(!events
            .iter()
            .any(|e| e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= 1));
    }
}
