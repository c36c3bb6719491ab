//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans are kept in memory while the
//! run measures and written out as JSON lines when it ends; a layer's self
//! time is its span's duration minus the time its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. Spans opened by `f` through the tracer become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Total duration of each span's children, indexed like `spans`.
    fn child_times(&self) -> Vec<f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        child_time
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time of every span named `name`: its duration minus its
    /// children's. Children of one span run one after another, so their
    /// durations never overlap.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let child_time = self.child_times();
        self.spans
            .iter()
            .zip(&child_time)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end - s.start - c)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let child_time = self.child_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"self_s\":{}}}",
                span.name,
                span.start,
                span.end,
                span.end - span.start - child_time[i]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let root = t.durations("root")[0];
        let child = t.durations("child")[0];
        let own = t.self_times("root")[0];
        assert!(child >= 0.02 && root >= child + 0.005);
        assert!((own - (root - child)).abs() < 1e-12);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
