//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it and, for serving calls, the request id. Spans stay in memory
//! and are only aggregated when the run ends. A layer's self time is its
//! spans' durations minus the parts covered by their child spans.
//!
//! Untraced runs do not construct a [`Tracer`]: every instrumented call
//! site takes an `Option<&mut Tracer>` and calls the layer directly on
//! `None`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its tracer; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Request id for serving spans (0 when the call has none).
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the last `.`.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(layer, _)| layer)
    }
}

/// One thread's span recorder. Spans nest strictly (a stack), which is
/// what makes the self-time subtraction exact.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
    cap: usize,
}

impl Tracer {
    /// A recorder holding at most `cap` spans; later spans are counted in
    /// `dropped`, so memory stays bounded however long the run.
    pub fn new(origin: Instant, cap: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            stack: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            self.stack.push(NO_PARENT);
            return NO_PARENT;
        }
        let parent =
            self.stack.iter().rev().copied().find(|&s| s != NO_PARENT).unwrap_or(NO_PARENT);
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(id) = self.stack.pop() {
            if id != NO_PARENT {
                self.spans[id as usize].end_ns = end;
            }
        }
    }

    /// Record a finished span that did not nest in the stack — a request
    /// whose round trip overlaps others on a pipelined connection — under
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let parent =
            self.stack.iter().rev().copied().find(|&s| s != NO_PARENT).unwrap_or(NO_PARENT);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, req });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Run `f` inside a span when tracing, or just run it.
pub fn span<R>(tr: Option<&mut Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        None => f(),
        Some(t) => {
            t.enter(name, req);
            let r = f();
            t.exit();
            r
        }
    }
}

/// Per-span-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans under `key` (the span name, or [`Span::layer`]):
/// count, total duration, and self time — duration minus the durations of
/// direct children, which nest inside it.
pub fn totals(
    spans: &[Span],
    key: fn(&Span) -> &'static str,
) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(key(s)).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}
