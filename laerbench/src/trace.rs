//! In-memory host spans recorded around the benchmark's calls into each
//! layer: one root span per op, one child span per layer call.
//!
//! Recording is switched per op, so a traced run can interleave traced
//! and untraced ops and report the tracing overhead. Spans are written
//! out as Chrome-trace JSON at exit, the format the simulated timelines
//! use, so both open in the same viewer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Name of the root span the benchmark loop opens around every traced op.
pub const ROOT: &str = "op";

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (or [`ROOT`]) this span covers.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Span recorder; does nothing while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span (a no-op while disabled).
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name. A span's self time is
    /// its duration minus its children's; children of one parent run
    /// one after another, so their durations do not overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes the spans as Chrome-trace `ph:"X"` events (microseconds);
    /// each event carries its span index and its parent's in `args`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_chrome_trace<W: Write>(&self, mut out: W) -> io::Result<()> {
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                r#"{{"name":"{}","cat":"host","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":0,"args":{{"span":{i},"parent":{parent}}}}}"#,
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.open(ROOT);
        let v = tr.span("layer", || 7);
        tr.close();
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.open(ROOT);
        tr.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("b", || ());
        tr.close();
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let t = tr.self_times();
        let root = t[ROOT];
        let children = t["a"].total_ns + t["b"].total_ns;
        assert_eq!(root.self_ns, root.total_ns - children);
        assert!(t["a"].self_ns >= 2_000_000);

        let mut json = Vec::new();
        tr.write_chrome_trace(&mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains(r#""args":{"span":1,"parent":0}"#));
    }
}
