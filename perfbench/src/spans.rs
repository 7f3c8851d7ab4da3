//! Spans the benchmark records around its calls into each layer: kept in
//! memory during the run and written out as JSON lines at its end.

use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (crate name) the call went into.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover.  Children are assumed sequential, as every span this benchmark
/// records is.
pub fn span_self_ns(spans: &[Span], id: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns().saturating_sub(covered)
}

/// Spans as JSON lines: id, layer, name, parent, start, end and self time.
pub fn spans_jsonl(spans: &[Span]) -> String {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":{:?},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.layer,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                span_self_ns(spans, i)
            )
        })
        .collect()
}

/// In-memory span recorder; disabled recorders keep nothing.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, layer: &'static str, name: String, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if self.enabled {
            self.spans.push(Span {
                layer,
                name,
                parent,
                start_ns: now,
                end_ns: now,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    /// Closes span `id` and returns its duration in nanoseconds (0 when
    /// disabled).
    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        match self.spans.get_mut(id) {
            Some(s) if self.enabled => {
                s.end_ns = now;
                s.dur_ns()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_excludes_direct_children_only() {
        let span = |name: &str, parent, start_ns, end_ns| Span {
            layer: "x",
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("pass", None, 0, 100),
            span("job", Some(0), 10, 60),
            span("run", Some(1), 20, 50),
            span("job", Some(0), 60, 90),
        ];
        assert_eq!(span_self_ns(&spans, 0), 100 - 50 - 30);
        assert_eq!(span_self_ns(&spans, 1), 50 - 30);
        assert_eq!(span_self_ns(&spans, 2), 30);
    }
}
