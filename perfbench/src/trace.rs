//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions: name, start, end, parent span and the op
//! they belong to. They stay in memory and are written out once, at exit,
//! as Chrome `trace_event` JSON. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the recording).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request) the span belongs to.
    pub op: u64,
    /// Layer call, e.g. `io.read_csv`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// A single-threaded span recorder that can be switched on and off
/// between ops, so traced and untraced ops interleave in one run.
pub struct Tracer {
    on: Cell<bool>,
    op: Cell<u64>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            op: Cell::new(0),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off (between ops only).
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a plain call when off).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time in seconds of every span named `name`.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 / 1e9)
            .collect()
    }

    /// The recording as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let t = Tracer::new(true);
        t.set_op(7);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let outer = t.self_secs("outer")[0];
        let inner = t.self_secs("inner")[0];
        assert!(
            inner >= 0.02 && outer < inner,
            "outer {outer} inner {inner}"
        );
        t.set_on(false);
        t.span("skipped", || ());
        assert_eq!(t.spans().len(), 2);
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }
}
