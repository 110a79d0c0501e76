//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! job it belongs to.  Spans are kept in memory and written out once, at
//! the end of a traced run.  A span's self time is its duration minus the
//! time its child spans cover; per-layer times are sums of self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `exec.run`.
    pub name: &'static str,
    /// Start, seconds from the origin.
    pub start: f64,
    /// End, seconds from the origin (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job (or request) the span belongs to.
    pub job: u64,
}

/// A span recorder.  Spans nest by call order: a span opened while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds from the origin to `at`.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let start = self.offset(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.offset(Instant::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, job);
        let value = f();
        self.end(id);
        value
    }

    /// Records an already-finished span (times from the origin).
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus its children's durations.
    /// Children of one span never overlap (they are recorded in call order
    /// on one thread, or laid end to end by the caller).
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        self.spans
            .iter()
            .zip(child_time)
            .map(|(span, children)| (span.end - span.start) - children)
            .collect()
    }

    /// Per name: (calls, total self time in seconds).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name).or_insert((0u64, 0.0f64));
            entry.0 += 1;
            entry.1 += own;
        }
        totals
    }

    /// Seconds covered by the children of every `parent_name` span.
    pub fn child_time(&self, parent_name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| {
                span.parent
                    .is_some_and(|p| self.spans[p].name == parent_name)
            })
            .map(|span| span.end - span.start)
            .sum()
    }

    /// The share of the `parent_name` spans covered by their children.
    pub fn coverage(&self, parent_name: &str) -> f64 {
        let total: f64 = self
            .spans
            .iter()
            .filter(|span| span.name == parent_name)
            .map(|span| span.end - span.start)
            .sum();
        if total > 0.0 {
            self.child_time(parent_name) / total
        } else {
            0.0
        }
    }

    /// Writes every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tjob\tparent\tstart_s\tend_s\tself_s")?;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{:.9}\t{:.9}\t{:.9}",
                span.name, span.job, span.start, span.end, own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let job = tracer.record("job", 1, 0.0, 10.0, None);
        tracer.record("exec.open", 1, 0.0, 1.0, Some(job));
        let run = tracer.record("exec.run", 1, 1.0, 8.0, Some(job));
        tracer.record("core.gate", 1, 2.0, 5.0, Some(run));
        tracer.record("exec.drop", 1, 8.0, 9.5, Some(job));
        let own = tracer.self_times();
        assert_eq!(own, vec![0.5, 1.0, 4.0, 3.0, 1.5]);
        assert!((tracer.coverage("job") - 0.95).abs() < 1e-12);
        assert!((tracer.child_time("job") - 9.5).abs() < 1e-12);
        let by_name = tracer.by_name();
        assert_eq!(by_name["exec.run"], (1, 4.0));
    }

    #[test]
    fn nested_calls_become_children() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("job", 7);
        let inner = tracer.time("exec.run", 7, || 42);
        assert_eq!(inner, 42);
        tracer.end(outer);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].job, 7);
        assert!(tracer.self_times().iter().all(|&t| t >= 0.0));
    }
}
