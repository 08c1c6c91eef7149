//! Spans recorded by the benchmark's own code around each call into a
//! layer. Nothing inside the measured crates is instrumented: a span is
//! `{id, parent, op, name, start_ns, end_ns}` plus the buffer-pool counter
//! delta taken at the same two boundaries, kept in a pre-sized `Vec` and
//! written out once when the workload ends.

use ir_storage::IoStatsSnapshot;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root span (one per timed call);
/// `op` is the index of the call in the workload's sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// While the span is open: the counters at its start. Once closed: the
    /// delta between its two boundaries.
    pub io: IoStatsSnapshot,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (ids start at 1).
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32, io: IoStatsSnapshot) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
            io,
        });
        id
    }

    /// Closes span `id` with the counters at its end boundary.
    pub fn end(&mut self, id: u32, io: IoStatsSnapshot) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.io = io.since(&span.io);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans (with their self times) as one JSON document.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"logical_reads\":{},\"physical_reads\":{},\
                 \"pages_written\":{}}}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns,
                s.io.logical_reads,
                s.io.physical_reads,
                s.io.pages_written
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (the union of their intervals, clipped to the
/// parent). Returned in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            let parent = &spans[span.parent as usize - 1];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[span.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
            io: IoStatsSnapshot::default(),
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 50, 90)];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 180),
            span(4, 1, 190, 250),
            span(5, 3, 150, 160),
        ];
        // Children of span 1 cover [110,180) and [190,200): 80 of 100 ns.
        assert_eq!(self_times(&spans), vec![20, 40, 30, 60, 10]);
    }

    #[test]
    fn tracer_records_parentage_and_counter_deltas() {
        let mut tracer = Tracer::with_capacity(4);
        let at = |logical| IoStatsSnapshot {
            logical_reads: logical,
            ..IoStatsSnapshot::default()
        };
        let root = tracer.begin("call", 0, 7, at(100));
        let child = tracer.begin("ta.execute", root, 7, at(100));
        tracer.end(child, at(130));
        tracer.end(root, at(145));
        let spans = tracer.spans();
        assert_eq!((spans[0].id, spans[0].parent, spans[0].op), (1, 0, 7));
        assert_eq!((spans[1].id, spans[1].parent), (2, 1));
        assert_eq!(spans[0].io.logical_reads, 45);
        assert_eq!(spans[1].io.logical_reads, 30);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
