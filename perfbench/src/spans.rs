//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds a name, start and end (ns since the tracer's epoch),
//! its parent span, and the id of the cell or job it belongs to, so
//! every span of one job shares an id. Spans stay in memory and are
//! written out once, at the end, as a Chrome trace.
//!
//! A disabled tracer records nothing: [`Tracer::span`] then only runs
//! its closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Cell or job id shared by all spans of one unit of work.
    pub id: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u32,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Run `f` inside a span named `name` for unit of work `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            tid: self.tid,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append another thread's spans (parent indices are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: (count, total ns, self ns). Self time is a span's
/// duration minus the parts covered by its child spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child);
    }
    table
}

/// Render the self-time table, widest self time first.
pub fn self_time_table(spans: &[Span]) -> String {
    let table = self_times(spans);
    let total_self: u64 = table.values().map(|v| v.2).sum::<u64>().max(1);
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (count, total, own)) in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total_self as f64
        ));
    }
    out
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span, with
/// the job id and parent span index in `args`.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    ));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_validates() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box((0..1000).sum::<u64>()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(spans);
        let (_, outer_total, outer_self) = st["outer"];
        let (_, inner_total, _) = st["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        let doc = chrome_trace(spans, "test");
        let stats = nwcache::observe::validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.spans, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.span("x", 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
