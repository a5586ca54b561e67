//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the program's built-in recorder stays off). Each span has a name, a
//! start and end, the span that encloses it, and the request or program it
//! belongs to. A layer's self time is its span's duration minus the part
//! of that interval covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The request or program the span belongs to.
    pub owner: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled, [`Recorder::span`] only runs
/// its closure, so the same code path gives the untraced timing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through
    /// the recorder it is handed) become its children.
    pub fn span<T>(&mut self, name: &'static str, owner: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            owner,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                let total = span.end_ns - span.start_ns;
                total.saturating_sub(covered_ns(&mut kids))
            })
            .collect()
    }

    /// Self time per span name, summed over the spans of each owner:
    /// `name → owner → ns`.
    pub fn self_time_by_owner(&self) -> BTreeMap<&'static str, BTreeMap<u64, u64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.name).or_default().entry(span.owner).or_default() += own;
        }
        out
    }

    /// Moves another recorder's spans into this one (re-based on this
    /// recorder's epoch), e.g. spans recorded on a worker thread.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Writes the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"owner\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.owner, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 1, |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let by_name = rec.self_time_by_owner();
        let outer = by_name["outer"][&1];
        let inner = by_name["inner"][&1];
        let total = rec.spans()[0].end_ns - rec.spans()[0].start_ns;
        assert_eq!(outer + inner, total);
        assert!(inner >= 5_000_000 && outer >= 2_000_000);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, |_| 3), 3);
        assert!(rec.spans().is_empty());
    }
}
