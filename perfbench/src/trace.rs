//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions, kept in memory and written out
//! once, one JSON object per line, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The job the span belongs to (`0` for run-level spans).
    pub job: u64,
    /// Layer function or phase name.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans. A disabled tracer runs the closures and records
/// nothing, so the timed and traced runs share one code path.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The origin instant (for spans measured on other threads).
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Records a span measured elsewhere (another thread) as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, job: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The duration (ms) of the last span named `name` of `job`.
    #[must_use]
    pub fn last_ms(&self, name: &str, job: u64) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.job == job)
            .map(Span::ms)
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Any I/O error of the writer.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Checks that every span lies inside its parent and ends after it
/// starts; returns the first violation.
///
/// # Errors
///
/// A description of the first span that escapes its parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p as usize)
                .filter(|q| q.id == p)
                .ok_or_else(|| format!("span {} names a missing parent {p}", s.id))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                    s.id,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    parent.id,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        let v = t.span("job", 7, |t| {
            t.span("InstanceSpec::build", 7, |_| 1) + t.span("Algorithm::run", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        check_nesting(spans).expect("children lie inside their parent");
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("writes to memory");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = serde_json::from_str(line).expect("each line is JSON");
            assert!(matches!(v, serde::Value::Object(_)));
        }
    }

    #[test]
    fn escaping_child_is_reported() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                job: 0,
                name: "job",
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 1,
                parent: Some(0),
                job: 0,
                name: "late",
                start_ns: 15,
                end_ns: 25,
            },
        ];
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("job", 1, |t| t.span("inner", 1, |_| 5)), 5);
        t.record("client.request", 1, 0, 1);
        assert!(t.spans().is_empty());
    }
}
