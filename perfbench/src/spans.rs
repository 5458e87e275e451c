//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! Spans are taken only in a traced run; in an untraced run every method is
//! a no-op, so the end-to-end figures carry no tracing cost. Nothing inside
//! the simulator is instrumented: a span covers one public call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: its name, its interval in nanoseconds since the
/// recorder was created, and the span that was open when it began.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span recorder of one benchmark run.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one. Returns the depth to
    /// hand to [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let depth = self.open.len();
        if self.on {
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
            self.open.push(self.spans.len() - 1);
        }
        depth
    }

    /// Closes every span opened at `depth` or deeper (a panic that skipped
    /// an inner `exit` leaves nothing open past its caller).
    pub fn exit(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("open stack is non-empty");
            self.spans[idx].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let depth = self.enter(name);
        let result = f();
        self.exit(depth);
        result
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the spans named `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// Per-name count, total and self time (duration minus the part covered
    /// by child spans), one line per name, for the run's log.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = by_name.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(child_ns[i]);
        }
        let mut out = String::new();
        for (name, (count, total, own)) in by_name {
            let _ = writeln!(
                out,
                "span {name:<22} count {count:>6}  total {:>10.6} s  self {:>10.6} s",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        spans.time("a", || ());
        assert_eq!(spans.count("a"), 0);
        assert_eq!(spans.total_s("a"), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer");
        spans.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        spans.exit(outer);
        assert_eq!(spans.count("inner"), 1);
        assert!(spans.total_s("outer") >= spans.total_s("inner"));
        let summary = spans.summary();
        assert!(summary.contains("span inner"), "{summary}");
        assert!(summary.contains("span outer"), "{summary}");
    }
}
