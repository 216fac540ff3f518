//! In-memory span recording for the traced replay.
//!
//! A span covers one call into a layer: its name (prefixed by the crate the call
//! enters), start, end, the span that caused it, and the cell it belongs to. Spans
//! stay in memory while the replay runs and are written out once at the end. A
//! layer's *self time* is a span's duration minus the union of its children's
//! intervals, so nested calls are never counted twice.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`, e.g. `svw-cpu.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (never before `start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the cell the span worked for (plan order), if any.
    pub cell: Option<u32>,
}

/// Records nested spans on one thread. A disabled tracer runs the same closures and
/// records nothing, which is how the untraced replay measures tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records a span of `dur_ns` starting at `start` as a child of the innermost
    /// open span. Used for work interleaved with its parent's own work (the oracle's
    /// per-commit checks inside `Cpu::run_observed`), which is summed while it runs
    /// and recorded as one aggregate interval at the parent's start.
    pub fn record_aggregate(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        start: Instant,
        dur_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
            cell,
        });
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent name cell start_ns end_ns self_ns` (`-` for an absent field).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        writeln!(out, "id\tparent\tname\tcell\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{own}",
                opt(s.parent.map(|p| p.to_string())),
                s.name,
                opt(s.cell.map(|c| c.to_string())),
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (each clipped to the parent), so overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            let covered = union_len(&mut intervals, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` after clipping each to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(ra, rb)| rb - ra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Children [10,40) and [30,60) overlap on [30,40): together they cover 50 ns.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn self_time_clips_children_and_handles_nesting() {
        let spans = vec![
            span("root", 0, 100, None),
            // Runs past the parent's end: only [90,100) counts against the root.
            span("late", 90, 120, Some(0)),
            // Disjoint children plus a grandchild that does not touch the root.
            span("a", 0, 20, Some(0)),
            span("a.inner", 5, 15, Some(2)),
            // A child nested inside a sibling's interval is still covered once.
            span("b", 50, 60, Some(0)),
            span("c", 52, 58, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10, 10, 10, 6]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let out = t.span("outer", None, |t| t.span("inner", Some(3), |_| 7));
        assert_eq!(out, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[1].cell),
            (None, Some(0), Some(3))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", None, |t| t.span("inner", None, |_| 1)), 1);
        off.record_aggregate("agg", None, Instant::now(), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn tsv_has_a_header_and_one_line_per_span() {
        let mut t = Tracer::new(true);
        t.span("root", None, |t| t.span("child", Some(0), |_| ()));
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).expect("writing to a Vec cannot fail");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("1\t0\tchild\t0\t"));
    }
}
