//! In-memory span and counter recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program (name, start, end, parent, spec id); counters are
//! added at the same boundaries. Nothing is written while a run is being
//! timed: [`Tracer::write_tsv`] dumps the spans once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub spec: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans (nested through a stack) and named counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for spec `spec`; spans opened
    /// by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        spec: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, spec, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose times were taken elsewhere, as offsets from
    /// a common origin; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        spec: u64,
        parent: Option<usize>,
        start: std::time::Duration,
        end: std::time::Duration,
    ) -> usize {
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span { name, spec, parent, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Self time in ns per span name: each span's duration minus the part
    /// of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_default() +=
                (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// The span tree and counters with every timing field left out: two
    /// runs over the same inputs must render identical shapes.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{i}\t{parent}\t{}\t{}", span.name, span.spec);
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "#{name}\t{value}");
        }
        out
    }

    /// Writes the spans as TSV (`id parent name spec start_ns end_ns`)
    /// followed by the counters as `#name value` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("# id\tparent\tname\tspec\tstart_ns\tend_ns\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                span.name, span.spec, span.start_ns, span.end_ns
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "#{name}\t{value}");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let times = t.self_times();
        let (outer, inner) = (times["outer"], times["inner"]);
        assert!(inner >= 5_000_000, "{inner}");
        assert!((2_000_000..inner).contains(&outer), "{outer}");
    }

    #[test]
    fn shape_ignores_timing() {
        let record = |pause: u64| {
            let mut t = Tracer::default();
            t.span("a", 1, |t| {
                t.span("b", 1, |_| std::thread::sleep(std::time::Duration::from_millis(pause)));
                t.count("n", 3);
            });
            t.shape()
        };
        assert_eq!(record(0), record(3));
        assert_eq!(record(0), "0\t-\ta\t1\n1\t0\tb\t1\n#n\t3\n");
    }
}
