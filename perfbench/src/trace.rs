//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end relative to the run's origin, the
//! span that caused it, and the request it belongs to. Spans are kept in
//! memory and written out once, after measuring. A disabled tracer still
//! returns each call's duration (the workloads need those for their own
//! end-to-end figures) but records nothing.

use std::time::{Duration, Instant};

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span that children can name as parent; close it with
    /// [`Tracer::close`]. Returns `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Times `f`, recording it as a span under `parent` when enabled.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                request,
                start,
                end,
            });
        }
        (out, end - start)
    }

    /// Records an interval measured elsewhere (another process's
    /// reported runtime, placed at the end of its parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another tracer's spans (recorded on another thread
    /// against the same origin), keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Share of the spans called `root` that no direct child covers,
    /// pooled over every such span (children are sequential here, so
    /// their durations do not overlap).
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            total += s.duration().as_secs_f64();
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.duration().as_secs_f64())
                .sum::<f64>();
        }
        if total > 0.0 {
            (1.0 - covered / total).max(0.0)
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut tr = Tracer::new(true, Instant::now());
        let job = tr.open("job", None, 0);
        let (x, d) = tr.span("work", job, 0, || {
            std::thread::sleep(Duration::from_millis(20));
            7
        });
        tr.close(job);
        assert_eq!(x, 7);
        assert!(d >= Duration::from_millis(20));
        assert_eq!(tr.durations("work").len(), 1);
        assert!(tr.unattributed_frac("job") < 0.5);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let job = tr.open("job", None, 0);
        let (_, d) = tr.span("work", job, 0, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        tr.close(job);
        assert!(d >= Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }
}
