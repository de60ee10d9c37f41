//! The benchmark's own spans: one per call into a layer's public function,
//! kept in memory and written as JSONL when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call. Times are host ns since the run's span epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `store.get` or `cell.program`.
    pub name: &'static str,
    /// Start, host ns since the epoch.
    pub start_ns: u64,
    /// End, host ns since the epoch.
    pub end_ns: u64,
    /// This span's id (unique within the run).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request the span serves (for KV ops, the store session's
    /// correlation id), 0 when none.
    pub request: u64,
}

/// A per-thread span recorder. Ids carry the log's prefix in their top
/// bits, so logs recorded on different threads never collide.
pub struct SpanLog {
    epoch: Instant,
    prefix: u64,
    next: u64,
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose ids start at `prefix << 40`.
    pub fn new(epoch: Instant, prefix: u64) -> SpanLog {
        SpanLog {
            epoch,
            prefix,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Allocate an id without recording (for a parent whose span is
    /// recorded when it ends).
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.prefix << 40) | self.next
    }

    /// Record a span from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.next_id();
        self.record_with_id(name, start, end, id, parent, request);
        id
    }

    /// [`SpanLog::record`] under a pre-allocated id.
    pub fn record_with_id(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        id: u64,
        parent: u64,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            id,
            parent,
            request,
        });
    }
}

/// Write spans as JSONL, one object per line, ordered by start time.
pub fn write_jsonl(path: &std::path::Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    out.flush()
}
