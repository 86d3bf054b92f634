//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, a parent (the span open when it
//! began) and an id: the slot, the event index, or `(system << 32) |
//! trial`. Spans nest strictly — every span closes before its parent —
//! so a span's self time is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Name of the layer call.
    pub name: &'static str,
    /// Index of the enclosing span, `u32::MAX` for a top-level span.
    pub parent: u32,
    /// Slot, event index or `(system << 32) | trial`.
    pub id: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; nothing is written until [`Tracer::write_tsv`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns: 0,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, id);
        let result = f();
        self.close();
        result
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every closed span.
    pub fn summary(&self) -> Summary {
        assert!(self.open.is_empty(), "every span closed before summarising");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        let mut top_level_ns = 0u64;
        for (span, children) in self.spans.iter().zip(child_ns) {
            let totals = layers.entry(span.name).or_default();
            totals.calls += 1;
            totals.total_ns += span.duration_ns();
            totals.self_ns += span.duration_ns().saturating_sub(children);
            totals.durations_ns.push(span.duration_ns());
            if span.parent == NO_PARENT {
                top_level_ns += span.duration_ns();
            }
        }
        for totals in layers.values_mut() {
            totals.durations_ns.sort_unstable();
        }
        Summary {
            layers,
            top_level_ns,
        }
    }

    /// Writes every span as tab-separated
    /// `index parent name id start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tid\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{index}\t{parent}\t{}\t{}\t{}\t{}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover.
    pub self_ns: u64,
    /// Every duration, ascending.
    pub durations_ns: Vec<u64>,
}

impl LayerTotals {
    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Per-name totals of one traced pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Totals keyed by span name.
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Summed durations of the top-level spans.
    pub top_level_ns: u64,
}

impl Summary {
    /// Totals of `name` (empty when no such span was recorded).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Share of `wall_s` that top-level spans cover.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        if wall_s > 0.0 {
            self.top_level_ns as f64 / 1e9 / wall_s
        } else {
            0.0
        }
    }

    /// The per-name table: calls, total and self seconds.
    pub fn table(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "  {:<28} {:>10} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        )];
        for (name, totals) in &self.layers {
            lines.push(format!(
                "  {:<28} {:>10} {:>12.6} {:>12.6}",
                name,
                totals.calls,
                totals.total_s(),
                totals.self_s()
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.open("outer", 1);
        tracer.span("inner", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close();
        let summary = tracer.summary();
        let outer = summary.layer("outer");
        let inner = summary.layer("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(summary.top_level_ns, outer.total_ns);
        assert_eq!(tracer.spans()[1].parent, 0);
    }
}
