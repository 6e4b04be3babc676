//! Benchmark-owned spans around the calls the generator and the layer probes
//! make into the program. Spans live in a buffer allocated before the timed
//! phase and are written out once, at exit; spans *inside* the program are a
//! later change (ROADMAP 5a).

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in the tracer's buffer.
pub type SpanId = u32;

/// "No parent" / "tracing is off".
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Layer boundary the span wraps, e.g. `service.submit`.
    pub name: &'static str,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Identifier shared by all spans of one request (the operation index).
    pub request: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (`0` while open).
    pub end_ns: u64,
}

/// A span buffer with a switch. While off, [`Tracer::begin`] returns
/// [`NO_SPAN`] after one branch and nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<SpanRecord>,
}

/// Time and call count one span name accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time covered by child spans, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that can hold `capacity` spans without allocating; spans
    /// beyond that are dropped (and counted by no one — size it generously).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer { epoch: Instant::now(), on: false, spans: Vec::with_capacity(capacity) }
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on || self.spans.len() == self.spans.capacity() {
            return NO_SPAN;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRecord { name, parent, request, start_ns, end_ns: 0 });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Per-name totals; a span's self time is its duration minus its direct
    /// children's durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let duration = |s: &SpanRecord| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_s[s.parent as usize] += duration(s);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_s += duration(s);
            t.self_s += duration(s) - children;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests_with_self_time() {
        let mut t = Tracer::with_capacity(8);
        assert_eq!(t.begin("client.op", NO_SPAN, 0), NO_SPAN);
        t.end(NO_SPAN);
        assert!(t.spans().is_empty());

        t.set_on(true);
        let op = t.begin("client.op", NO_SPAN, 7);
        let submit = t.begin("service.submit", op, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(submit);
        t.end(op);
        let totals = t.totals();
        let (op_t, sub_t) = (totals["client.op"], totals["service.submit"]);
        assert_eq!((op_t.count, sub_t.count), (1, 1));
        assert!(sub_t.total_s >= 0.002 && op_t.total_s >= sub_t.total_s);
        assert!((op_t.self_s - (op_t.total_s - sub_t.total_s)).abs() < 1e-12);
        assert_eq!(t.spans()[1].parent, op);
        assert_eq!(t.spans()[1].request, 7);
    }

    #[test]
    fn a_full_buffer_drops_spans_instead_of_growing() {
        let mut t = Tracer::with_capacity(1);
        t.set_on(true);
        let a = t.begin("a", NO_SPAN, 0);
        assert_eq!(t.begin("b", a, 0), NO_SPAN);
        t.end(a);
        assert_eq!(t.spans().len(), 1);
    }
}
