//! The benchmark's own spans: recorded in memory around its calls into
//! the program, written out once as Chrome trace-event JSON. Spans
//! inside the program are a later change; this is the outside view.

use repro::obs::json::{num, obj, str, Json};
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

/// An in-memory span log. Disabled (the untraced runs that produce the
/// end-to-end numbers) it records nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A span log; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost
    /// span still open.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_us = self.origin.elapsed().as_secs_f64() * 1e6 - start_us;
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, carrying its id and its parent's.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("name", str(s.name)),
                    ("ph", str("X")),
                    ("ts", num(s.start_us)),
                    ("dur", num(s.dur_us)),
                    ("pid", num(1.0)),
                    ("tid", num(1.0)),
                    (
                        "args",
                        obj(vec![
                            ("id", num(id as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_their_parent() {
        let mut spans = Spans::new(true);
        let out = spans.scope("setup", |s| s.scope("setup.generate", |_| 7));
        assert_eq!(out, 7);
        spans.scope("rep", |_| ());
        let trace = spans.to_chrome_trace();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let parent = |i: usize| events[i].get("args").and_then(|a| a.get("parent")).cloned();
        assert_eq!(parent(0), Some(Json::Null));
        assert_eq!(parent(1), Some(num(0.0)));
        assert_eq!(parent(2), Some(Json::Null));
        let text = trace.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), trace);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.scope("rep", |_| 3), 3);
        let trace = spans.to_chrome_trace();
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(0)
        );
    }
}
