//! Spans recorded from the benchmark's own files, around its calls into
//! each layer's public functions. Spans live in memory and are summarized
//! when the run ends; nothing inside the program is instrumented.

use std::time::{Duration, Instant};

/// One timed call: a name, start and end (from the tracer's origin) and
/// the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A span recorder for one thread. A disabled tracer runs the closures
/// and records nothing, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Opens a span named `name` (child of the innermost open span) and
    /// returns its id, or `None` when disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes span `id` (the innermost open one).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Ids of every span named `name`, in recording order.
    pub fn ids(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .collect()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Sum of the durations of `name` spans whose parent is span `parent`.
    pub fn child_total(&self, parent: usize, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::duration)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_attributed_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let outer = t.ids("outer")[0];
        let inner = t.child_total(outer, "inner");
        assert!(inner >= Duration::from_millis(5));
        assert!(t.durations("outer")[0] >= inner + Duration::from_millis(2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.ids("x").is_empty());
    }
}
