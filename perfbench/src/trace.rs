//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that caused it as its parent; spans of one probe share the root
//! span's id as their `trace` id. Spans stay in memory and are written
//! out once, as JSON lines, when the benchmark ends. Per-layer metrics
//! are medians over the spans of one name, so every reported number can
//! be traced back to the intervals it came from.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The open spans of this thread, innermost last: `(id, trace)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost open span of this thread, to hand to work that runs
    /// on another thread.
    pub fn current(&self) -> Option<(u64, u64)> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `body` inside a span called `name`, a child of this thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &str, body: impl FnOnce() -> T) -> T {
        self.span_in(self.current(), name, body)
    }

    /// [`Tracer::span`] under an explicit parent (from [`Tracer::current`]
    /// on the thread that caused the work).
    pub fn span_in<T>(&self, outer: Option<(u64, u64)>, name: &str, body: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = outer.map_or(id, |(_, t)| t);
        let parent = outer.map(|(p, _)| p);
        OPEN.with(|open| open.borrow_mut().push((id, trace)));
        let start = Instant::now();
        let out = body();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            name: name.to_string(),
            id,
            parent,
            trace,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// Every recorded span called `name`.
    pub fn spans_named(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("span log poisoned");
        spans.iter().filter(|s| s.name == name).cloned().collect()
    }

    /// Durations in seconds of the spans called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples::new(self.spans_named(name).iter().map(Span::secs).collect())
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_secs(&self, span: &Span) -> f64 {
        let spans = self.spans.lock().expect("span log poisoned");
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(Span::secs)
            .sum();
        span.secs() - children
    }

    /// All spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"trace\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.trace, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_trace_and_self_time() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let outer = &t.spans_named("outer")[0];
        let inner = &t.spans_named("inner")[0];
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, outer.id);
        assert_eq!(outer.parent, None);
        assert!(t.self_secs(outer) < outer.secs());
        assert!(t.self_secs(outer) >= 0.0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
