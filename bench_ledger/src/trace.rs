//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span open around it, and an
//! optional request id. Spans stay in memory until the run ends and are
//! then written as JSON lines. A span's self time is its duration minus
//! its children's (children run on the same thread, one after another).

use std::io::Write;
use std::time::{Duration, Instant};

use crate::json::quote;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request this span served, if any.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(8192),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans named `name`, in recording order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time in ms of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}, \"parent\": {}, \"req\": {}}}",
                quote(s.name),
                s.start.as_micros(),
                s.end.as_micros(),
                (own * 1e3).round(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("request", Some(7), |t| {
            busy(Duration::from_millis(2));
            t.span("child", Some(7), |_| busy(Duration::from_millis(5)));
            t.span("child", Some(7), |_| busy(Duration::from_millis(5)));
        });
        let total = t.ms("request")[0];
        let own = t.self_ms()[0];
        let kids: f64 = t.ms("child").iter().sum();
        assert!(total >= 12.0, "{total}");
        assert!((own - (total - kids)).abs() < 1e-9);
        assert!(own >= 2.0 && own < total - 10.0, "self {own} of {total}");
        assert!(
            (t.self_ms()[1] - t.ms("child")[0]).abs() < 1e-9,
            "a leaf's self time is its span"
        );
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[2].req, Some(7));
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut t = Tracer::default();
        t.span("outer", None, |t| t.span("inner", Some(3), |_| ()));
        let mut text = Vec::new();
        t.write_jsonl(&mut text).expect("write spans");
        let text = String::from_utf8(text).expect("utf-8");
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("json line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("req").and_then(Json::as_f64), Some(3.0));
        assert!(lines[0].get("self_us").and_then(Json::as_f64).is_some());
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
