//! Benchmark-side spans: one per call into a product layer, recorded from
//! outside the product code.
//!
//! The recorder always returns the wall time of what it wrapped (the
//! end-to-end phases need that on every run); it keeps the span itself —
//! name, start, end, parent — only on a traced run, in memory, until
//! [`Recorder::write_jsonl`] at exit.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(keep: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            keep,
            // Reserved up front so recording does not allocate while the
            // allocator counters are armed.
            spans: Vec::with_capacity(if keep { 64 } else { 0 }),
            stack: Vec::with_capacity(8),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.keep.then(|| {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in LIFO order");
        }
        elapsed.as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in `parent`'s direct children, as a share of `parent`.
    pub fn child_coverage(&self, parent: &str) -> Option<f64> {
        let p = self.spans.iter().position(|s| s.name == parent)?;
        let total = self.spans[p].end_ns - self.spans[p].start_ns;
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(p))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (total > 0).then(|| covered as f64 / total as f64)
    }

    /// One JSON line per span, all carrying `workload` as the shared id.
    /// Self time is the span's duration minus its direct children's.
    pub fn write_jsonl(&self, workload: &str, path: &str) -> std::io::Result<()> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(children[i]),
            );
        }
        std::fs::write(path, out)
    }
}
