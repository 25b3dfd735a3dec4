//! Spans around every call the benchmark makes into a layer.
//!
//! A span records its name, start, end and the span that was open when
//! it began. Spans stay in memory and are written once, at the end of a
//! traced run, as Chrome trace-event JSON (load it in Perfetto or
//! `chrome://tracing`); each event carries its self time, the span's
//! duration minus the time its child spans cover. Timing is always
//! taken, because the workloads read their metrics from it; recording
//! is off in untraced runs.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    /// Id, unique within the run, in order of span start.
    id: u32,
    /// The span open when this one started.
    parent: Option<u32>,
    /// Layer call the span covers, e.g. `live.run`.
    name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    end_ns: u64,
}

/// Records spans from the benchmark's own thread.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    next_id: RefCell<u32>,
    open: RefCell<Vec<u32>>,
    spans: RefCell<Vec<Span>>,
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer that records spans only when `recording`.
    #[must_use]
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            origin: Instant::now(),
            next_id: RefCell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// wall time.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.recording {
            let start = Instant::now();
            let value = f();
            return (value, start.elapsed());
        }
        let id = {
            let mut next = self.next_id.borrow_mut();
            *next += 1;
            *next
        };
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start_ns: nanos(start - self.origin),
            end_ns: nanos(end - self.origin),
        });
        (value, end - start)
    }

    /// The spans as Chrome trace-event JSON, tagged with `workload`.
    #[must_use]
    pub fn chrome_json(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(span.id))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let duration = span.end_ns - span.start_ns;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"self_us\":{:.3}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                duration as f64 / 1e3,
                span.id,
                span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                duration.saturating_sub(children) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tracer = Tracer::new(true);
        let ((), _) = tracer.span("bench.op", || {
            let ((), _) = tracer.span("live.run", || std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = tracer.spans.borrow().clone();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        let json = tracer.chrome_json("live_replay");
        assert!(json.contains("\"name\":\"live.run\",\"cat\":\"live\""));
        assert!(json.contains("\"workload\":\"live_replay\""));
        let parsed = airguard_live::json::JsonValue::parse(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(airguard_live::json::JsonValue::as_arr)
            .expect("events");
        let number = |event: &airguard_live::json::JsonValue, key: &str| {
            event
                .get(key)
                .and_then(airguard_live::json::JsonValue::as_f64)
                .expect("number")
        };
        let op = &events[1];
        let self_us = number(op.get("args").expect("args"), "self_us");
        let inner_us = number(&events[0], "dur");
        assert!((number(op, "dur") - inner_us - self_us).abs() < 1e-2);
    }

    #[test]
    fn untraced_runs_time_but_record_nothing() {
        let tracer = Tracer::new(false);
        let (value, elapsed) = tracer.span("bench.op", || 7);
        assert_eq!(value, 7);
        assert!(elapsed < Duration::from_secs(1));
        assert!(tracer.spans.borrow().is_empty());
    }
}
