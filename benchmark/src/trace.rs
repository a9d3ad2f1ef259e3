//! Spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into a crate goes through
//! [`Tracer::span`], which always times the call and, in the traced run,
//! also keeps a [`Span`] in memory, nested under the span of the round's
//! section and that under the round's ([`Tracer::enter`]). Spans are
//! written out as Chrome trace-event JSON when the run ends, and the
//! per-layer ledger is read back from them (a span's self time is its
//! duration minus the part its child spans cover, so a section's self time
//! is what the benchmark's own code cost between its calls). Spans live in
//! the benchmark's own files only; the program under test is not
//! instrumented.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::{Duration, Instant};

/// The span that encloses one round; its children are the round's
/// sections (`bench.<section>`), theirs the calls into the layers.
pub const ROUND_SPAN: &str = "bench.round";

#[derive(Debug, Clone)]
pub struct Span {
    /// `crate.function`, the crate being the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub round: u32,
    /// Request id within the round (0 outside the traffic script).
    pub request: u64,
    /// Operations the span covers (for per-op figures), at least 1.
    pub ops: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    round: Cell<u32>,
    request: Cell<u64>,
}

/// An open span; dropping it closes the span.
pub struct Open<'a> {
    tracer: &'a Tracer,
    /// `None` in the untraced run.
    index: Option<usize>,
    start: Instant,
    /// Set by [`Tracer::span_ops`], so that the span records exactly the
    /// duration the caller was handed.
    took: Option<Duration>,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let took = self.took.unwrap_or_else(|| self.start.elapsed());
        let t = self.tracer;
        let popped = t.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        let start_ns = self.start.duration_since(t.epoch).as_nanos() as u64;
        let mut spans = t.spans.borrow_mut();
        spans[index].start_ns = start_ns;
        spans[index].end_ns = start_ns + took.as_nanos() as u64;
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            round: Cell::new(0),
            request: Cell::new(0),
        }
    }

    pub fn set_round(&self, round: u32) {
        self.round.set(round);
        self.request.set(0);
    }

    pub fn set_request(&self, request: u64) {
        self.request.set(request);
    }

    /// Opens a span that encloses every span opened before the guard
    /// drops: a round, or one section of it.
    pub fn enter(&self, name: &'static str) -> Open<'_> {
        self.enter_ops(name, 1)
    }

    fn enter_ops(&self, name: &'static str, ops: u64) -> Open<'_> {
        let index = self.on.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                round: self.round.get(),
                request: self.request.get(),
                ops: ops.max(1),
            });
            self.stack.borrow_mut().push(spans.len() - 1);
            spans.len() - 1
        });
        Open {
            tracer: self,
            index,
            start: Instant::now(),
            took: None,
        }
    }

    /// Times `f`; in the traced run also records the span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.span_ops(name, 1, f)
    }

    /// [`Self::span`] for a call that performs `ops` operations.
    pub fn span_ops<T>(
        &self,
        name: &'static str,
        ops: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let mut open = self.enter_ops(name, ops);
        let out = f();
        let took = open.start.elapsed();
        open.took = Some(took);
        (out, took)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time in nanoseconds of every span, indexed like the span list.
    fn self_times(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// `(round, self nanoseconds, ops)` of every span called `name`.
    pub fn samples(&self, name: &str) -> Vec<(u32, f64, u64)> {
        let own = self.self_times();
        self.spans
            .borrow()
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, ns)| (s.round, ns as f64, s.ops))
            .collect()
    }

    /// Per round that has a span called `name`: the sum of their self
    /// times in nanoseconds, in round order.
    pub fn round_sums(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u32, f64> = Default::default();
        for (round, ns, _) in self.samples(name) {
            *sums.entry(round).or_default() += ns;
        }
        sums.into_values().collect()
    }

    /// Share of the rounds' wall spent in the benchmark's own code
    /// (building scripts, perturbing, checking): self time of the round
    /// and section spans ÷ duration of the round spans.
    pub fn own_time_share(&self) -> f64 {
        let own = self.self_times();
        let spans = self.spans.borrow();
        let (mut own_ns, mut round_ns) = (0u64, 0u64);
        for (s, own) in spans.iter().zip(own) {
            if s.name.starts_with("bench.") {
                own_ns += own;
            }
            if s.name == ROUND_SPAN {
                round_ns += s.end_ns - s.start_ns;
            }
        }
        own_ns as f64 / round_ns as f64
    }

    /// Writes every span as a Chrome trace-event "complete" event; the
    /// file loads in `chrome://tracing` and Perfetto.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let comma = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"round\":{},\"request\":{},\"ops\":{}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round,
                s.request,
                s.ops,
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_keeps_nothing() {
        let t = Tracer::new(true);
        t.set_round(3);
        {
            let _round = t.enter(ROUND_SPAN);
            t.span("outer.f", || {
                t.span("inner.g", || std::thread::sleep(Duration::from_millis(5)));
            });
            std::thread::sleep(Duration::from_millis(5));
        }
        let share = t.own_time_share();
        assert!(share > 0.2 && share < 0.8, "own share {share}");
        let outer = t.samples("outer.f");
        let inner = t.samples("inner.g");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert_eq!(outer[0].0, 3);
        assert!(inner[0].1 >= 5e6 && outer[0].1 < inner[0].1);
        assert_eq!(t.round_sums("inner.g").len(), 1);
        let mut json = Vec::new();
        t.write_chrome(&mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.contains("\"name\":\"inner.g\"") && json.contains("\"parent\":1"));

        let off = Tracer::new(false);
        let (v, took) = off.span("x.y", || 7);
        assert_eq!((v, off.span_count()), (7, 0));
        assert!(took < Duration::from_secs(1));
    }
}
