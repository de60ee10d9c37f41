//! Offline analysis of JSONL trace files: the model behind
//! `cargo run -p xtask -- trace-report`.
//!
//! Consumes the format written by [`pcm_trace::jsonl::export`] and
//! summarizes it: per-bank operation counts, span-duration log2
//! histograms (reusing [`LogHistogram`] so the buckets line up with the
//! metrics registry's), scrub/demand interleave statistics, and a
//! top-N longest-spans table. Everything here is a pure function of the
//! input text, so reports are byte-stable for a given trace.

use pcm_device::LogHistogram;
use pcm_trace::{jsonl, OpKind, Phase, TraceDecodeError, TraceEvent};

/// One completed span reconstructed from a Begin/End pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Operation kind.
    pub kind: OpKind,
    /// Bank the span ran on.
    pub bank: u32,
    /// Block, or [`pcm_trace::NO_BLOCK`] for whole-bank activity.
    pub block: u32,
    /// Span start, model-time ns.
    pub start_ns: u64,
    /// Span duration, ns.
    pub duration_ns: u64,
}

/// Per-bank activity summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankActivity {
    /// Bank id.
    pub bank: u32,
    /// Completed operations per kind, indexed like [`OpKind::ALL`]
    /// (spans count on their End event, instants on their Instant).
    pub counts: [u64; OpKind::ALL.len()],
    /// Events ever recorded into this bank's lane (including ones the
    /// ring has since overwritten).
    pub recorded: u64,
    /// Events overwritten before the snapshot was taken.
    pub dropped: u64,
    /// Demand↔scrub alternations along the bank's canonical event
    /// order: +1 every time a completed demand op (read/write) directly
    /// follows a completed scrub op (refresh) or vice versa.
    pub transitions: u64,
    /// Demand spans whose busy window overlaps a refresh span on the
    /// same bank — the §4.1 interference made visible per bank.
    pub refresh_overlaps: u64,
}

/// Duration distribution for one span kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindHistogram {
    /// Span kind.
    pub kind: OpKind,
    /// Completed spans measured.
    pub count: u64,
    /// Bucket floor of the median duration, ns.
    pub p50_ns: u64,
    /// Bucket floor of the 95th-percentile duration, ns.
    pub p95_ns: u64,
    /// Bucket floor of the 99th-percentile duration, ns.
    pub p99_ns: u64,
    /// Longest observed duration, ns.
    pub max_ns: u64,
}

/// Everything `trace-report` prints, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Banks in the traced device.
    pub banks: usize,
    /// Ring capacity per bank, events.
    pub capacity: usize,
    /// Events present in the snapshot.
    pub total_events: usize,
    /// Events ever recorded (sum over lanes, pre-overwrite).
    pub total_recorded: u64,
    /// Events lost to ring overwrite.
    pub total_dropped: u64,
    /// Begin events with no matching End (or Ends with no Begin) —
    /// nonzero when the ring overwrote half of a pair.
    pub unmatched_spans: u64,
    /// Per-bank summaries, bank order.
    pub per_bank: Vec<BankActivity>,
    /// Span-duration histograms, one per kind that completed a span.
    pub histograms: Vec<KindHistogram>,
    /// The longest spans in the trace, longest first.
    pub top_spans: Vec<SpanRecord>,
}

/// Analyze a JSONL trace document with the default top-10 span table.
pub fn analyze(doc: &str) -> Result<TraceReport, TraceDecodeError> {
    analyze_top(doc, 10)
}

/// [`analyze`] with an explicit size for the longest-spans table.
pub fn analyze_top(doc: &str, top_n: usize) -> Result<TraceReport, TraceDecodeError> {
    let parsed = jsonl::parse(doc)?;
    let mut per_bank: Vec<BankActivity> = (0..parsed.banks as u32)
        .map(|bank| BankActivity {
            bank,
            counts: [0; OpKind::ALL.len()],
            recorded: 0,
            dropped: 0,
            transitions: 0,
            refresh_overlaps: 0,
        })
        .collect();
    for lane in &parsed.lanes {
        if let Some(slot) = per_bank.get_mut(lane.bank) {
            slot.recorded = lane.recorded;
            slot.dropped = lane.dropped;
        }
    }

    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut unmatched = 0u64;
    // Per-(bank, kind) FIFO of open Begin events. Events arrive in
    // canonical per-bank order, and both halves of a span are recorded
    // back to back, so FIFO matching is exact.
    let mut open: Vec<Vec<(u64, u32)>> = vec![Vec::new(); parsed.banks * OpKind::ALL.len()];
    // -1 = unknown, 0 = demand, 1 = scrub; per bank.
    let mut last_class: Vec<i8> = vec![-1; parsed.banks];

    for ev in &parsed.events {
        let bank = ev.bank as usize;
        if bank >= parsed.banks {
            continue; // defensively skip records for unknown banks
        }
        let kind_ix = kind_index(ev.kind);
        match ev.phase {
            Phase::Begin => {
                if let Some(stack) = open.get_mut(bank * OpKind::ALL.len() + kind_ix) {
                    stack.push((ev.t_ns, ev.block));
                }
            }
            Phase::End => {
                complete(&mut per_bank, &mut last_class, ev, &mut unmatched);
                if let Some(stack) = open.get_mut(bank * OpKind::ALL.len() + kind_ix) {
                    if stack.is_empty() {
                        unmatched += 1;
                    } else {
                        let (start, block) = stack.remove(0);
                        spans.push(SpanRecord {
                            kind: ev.kind,
                            bank: ev.bank,
                            block,
                            start_ns: start,
                            duration_ns: ev.t_ns.saturating_sub(start),
                        });
                    }
                }
            }
            Phase::Instant => complete(&mut per_bank, &mut last_class, ev, &mut unmatched),
        }
    }
    unmatched += open.iter().map(|s| s.len() as u64).sum::<u64>();

    for slot in per_bank.iter_mut() {
        slot.refresh_overlaps = refresh_overlaps(&spans, slot.bank);
    }

    let histograms = build_histograms(&spans);

    // Longest first; ties broken by (bank, start) so the table is stable.
    spans.sort_by(|a, b| {
        b.duration_ns
            .cmp(&a.duration_ns)
            .then(a.bank.cmp(&b.bank))
            .then(a.start_ns.cmp(&b.start_ns))
    });
    spans.truncate(top_n);

    Ok(TraceReport {
        banks: parsed.banks,
        capacity: parsed.capacity,
        total_events: parsed.events.len(),
        total_recorded: parsed.lanes.iter().map(|l| l.recorded).sum(),
        total_dropped: parsed.lanes.iter().map(|l| l.dropped).sum(),
        unmatched_spans: unmatched,
        per_bank,
        histograms,
        top_spans: spans,
    })
}

fn kind_index(kind: OpKind) -> usize {
    OpKind::ALL.iter().position(|&k| k == kind).unwrap_or(0)
}

/// Count a completed op (span End or instant) and advance the bank's
/// demand/scrub interleave state machine.
fn complete(per_bank: &mut [BankActivity], last_class: &mut [i8], ev: &TraceEvent, _u: &mut u64) {
    let bank = ev.bank as usize;
    if let Some(slot) = per_bank.get_mut(bank) {
        slot.counts[kind_index(ev.kind)] += 1;
        let class: i8 = match ev.kind {
            OpKind::Read | OpKind::Write => 0,
            OpKind::Refresh => 1,
            _ => return,
        };
        if let Some(prev) = last_class.get_mut(bank) {
            if *prev >= 0 && *prev != class {
                slot.transitions += 1;
            }
            *prev = class;
        }
    }
}

/// Demand (read/write) spans on `bank` overlapping at least one refresh
/// span on the same bank, by a two-pointer sweep over start-sorted
/// interval lists.
fn refresh_overlaps(spans: &[SpanRecord], bank: u32) -> u64 {
    let mut demand: Vec<(u64, u64)> = Vec::new();
    let mut refresh: Vec<(u64, u64)> = Vec::new();
    for s in spans {
        if s.bank != bank {
            continue;
        }
        let iv = (s.start_ns, s.start_ns + s.duration_ns);
        match s.kind {
            OpKind::Read | OpKind::Write => demand.push(iv),
            OpKind::Refresh => refresh.push(iv),
            _ => {}
        }
    }
    demand.sort_unstable();
    refresh.sort_unstable();
    let mut hits = 0u64;
    let mut j = 0usize;
    for &(ds, de) in &demand {
        // Skip refresh spans that end at or before this demand start
        // (half-open intervals: touching endpoints do not overlap).
        while j < refresh.len() && refresh[j].1 <= ds {
            j += 1;
        }
        if refresh.get(j).is_some_and(|&(rs, _)| rs < de) {
            hits += 1;
        }
    }
    hits
}

fn build_histograms(spans: &[SpanRecord]) -> Vec<KindHistogram> {
    OpKind::ALL
        .iter()
        .filter_map(|&kind| {
            let h = LogHistogram::new();
            let mut count = 0u64;
            let mut max_ns = 0u64;
            for s in spans.iter().filter(|s| s.kind == kind) {
                h.record(s.duration_ns);
                count += 1;
                max_ns = max_ns.max(s.duration_ns);
            }
            (count > 0).then(|| KindHistogram {
                kind,
                count,
                p50_ns: h.quantile_floor(500),
                p95_ns: h.quantile_floor(950),
                p99_ns: h.quantile_floor(990),
                max_ns,
            })
        })
        .collect()
}

impl TraceReport {
    /// Human-readable rendering (what `trace-report` prints by default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events in snapshot ({} recorded, {} dropped), \
             {} banks, ring capacity {}/bank\n",
            self.total_events, self.total_recorded, self.total_dropped, self.banks, self.capacity
        ));
        // One column per OpKind, sized to the kind name, so new trace
        // vocabulary (e.g. the kv_* store ops) shows up without touching
        // this table.
        out.push_str(&format!("{:>4}", "bank"));
        for kind in OpKind::ALL {
            out.push_str(&format!(
                " {:>w$}",
                kind.name(),
                w = kind.name().len().max(6)
            ));
        }
        out.push_str(&format!(
            " {:>8} {:>12} {:>16}\n",
            "dropped", "transitions", "refresh_overlaps"
        ));
        for b in &self.per_bank {
            out.push_str(&format!("{:>4}", b.bank));
            for kind in OpKind::ALL {
                out.push_str(&format!(
                    " {:>w$}",
                    b.counts[kind_index(kind)],
                    w = kind.name().len().max(6)
                ));
            }
            out.push_str(&format!(
                " {:>8} {:>12} {:>16}\n",
                b.dropped, b.transitions, b.refresh_overlaps
            ));
        }
        out.push_str("span durations (ns):\n");
        out.push_str(&format!(
            "{:>12} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            "kind", "count", "p50", "p95", "p99", "max"
        ));
        for h in &self.histograms {
            out.push_str(&format!(
                "{:>12} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                h.kind.name(),
                h.count,
                h.p50_ns,
                h.p95_ns,
                h.p99_ns,
                h.max_ns
            ));
        }
        out.push_str(&format!("top {} longest spans:\n", self.top_spans.len()));
        out.push_str(&format!(
            "{:>3} {:>12} {:>4} {:>10} {:>14} {:>12}\n",
            "#", "kind", "bank", "block", "start_ns", "duration_ns"
        ));
        for (i, s) in self.top_spans.iter().enumerate() {
            let block = if s.block == pcm_trace::NO_BLOCK {
                "-".to_string()
            } else {
                s.block.to_string()
            };
            out.push_str(&format!(
                "{:>3} {:>12} {:>4} {:>10} {:>14} {:>12}\n",
                i + 1,
                s.kind.name(),
                s.bank,
                block,
                s.start_ns,
                s.duration_ns
            ));
        }
        if self.unmatched_spans > 0 {
            out.push_str(&format!(
                "warning: {} unmatched span halves (ring overwrite split begin/end pairs)\n",
                self.unmatched_spans
            ));
        }
        out
    }

    /// The report as one JSON object with a fixed field order (no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let banks: Vec<String> = self
            .per_bank
            .iter()
            .map(|b| {
                let counts: Vec<String> = OpKind::ALL
                    .iter()
                    .map(|&k| format!("\"{}\":{}", k.name(), b.counts[kind_index(k)]))
                    .collect();
                format!(
                    "{{\"bank\":{},\"counts\":{{{}}},\"recorded\":{},\"dropped\":{},\
                     \"transitions\":{},\"refresh_overlaps\":{}}}",
                    b.bank,
                    counts.join(","),
                    b.recorded,
                    b.dropped,
                    b.transitions,
                    b.refresh_overlaps
                )
            })
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{{\"kind\":\"{}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\
                     \"p99_ns\":{},\"max_ns\":{}}}",
                    h.kind.name(),
                    h.count,
                    h.p50_ns,
                    h.p95_ns,
                    h.p99_ns,
                    h.max_ns
                )
            })
            .collect();
        let tops: Vec<String> = self
            .top_spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"kind\":\"{}\",\"bank\":{},\"block\":{},\"start_ns\":{},\
                     \"duration_ns\":{}}}",
                    s.kind.name(),
                    s.bank,
                    s.block,
                    s.start_ns,
                    s.duration_ns
                )
            })
            .collect();
        format!(
            "{{\"banks\":{},\"capacity\":{},\"total_events\":{},\"total_recorded\":{},\
             \"total_dropped\":{},\"unmatched_spans\":{},\"per_bank\":[{}],\
             \"histograms\":[{}],\"top_spans\":[{}]}}",
            self.banks,
            self.capacity,
            self.total_events,
            self.total_recorded,
            self.total_dropped,
            self.unmatched_spans,
            banks.join(","),
            hists.join(","),
            tops.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::{jsonl, Recorder, TraceConfig};

    fn sample_doc() -> String {
        let rec = Recorder::buffered(2, &TraceConfig::new(64));
        // Bank 0: read, refresh (overlapping the read), write.
        rec.span(OpKind::Read, 0, 3, (100, 300), (0, 0));
        rec.span(OpKind::Refresh, 0, 3, (200, 1400), (0, 0));
        rec.span(OpKind::Write, 0, 4, (1500, 2500), (1, 0));
        // Bank 1: a failure instant and a scrub pass.
        rec.instant(OpKind::Failure, 1, 7, 50, 2);
        rec.span(OpKind::ScrubPass, 1, pcm_trace::NO_BLOCK, (0, 5000), (1, 4));
        let buf = rec.buffer().expect("buffered");
        jsonl::export(&buf.snapshot())
    }

    #[test]
    fn analyze_counts_and_spans() {
        let report = analyze(&sample_doc()).unwrap();
        assert_eq!(report.banks, 2);
        assert_eq!(report.total_events, 9);
        assert_eq!(report.total_dropped, 0);
        assert_eq!(report.unmatched_spans, 0);
        let b0 = &report.per_bank[0];
        assert_eq!(b0.counts[kind_index(OpKind::Read)], 1);
        assert_eq!(b0.counts[kind_index(OpKind::Write)], 1);
        assert_eq!(b0.counts[kind_index(OpKind::Refresh)], 1);
        // read → refresh → write alternates twice.
        assert_eq!(b0.transitions, 2);
        // The read at [100,300) overlaps the refresh at [200,1400); the
        // write at [1500,2500) does not.
        assert_eq!(b0.refresh_overlaps, 1);
        let b1 = &report.per_bank[1];
        assert_eq!(b1.counts[kind_index(OpKind::Failure)], 1);
        assert_eq!(b1.counts[kind_index(OpKind::ScrubPass)], 1);
        // Longest span is the 5000 ns scrub pass.
        assert_eq!(report.top_spans[0].kind, OpKind::ScrubPass);
        assert_eq!(report.top_spans[0].duration_ns, 5000);
    }

    #[test]
    fn histograms_reuse_log2_buckets() {
        let report = analyze(&sample_doc()).unwrap();
        let read = report
            .histograms
            .iter()
            .find(|h| h.kind == OpKind::Read)
            .unwrap();
        assert_eq!(read.count, 1);
        // A 200 ns read lands in the [128, 256) bucket.
        assert_eq!(read.p50_ns, 128);
        assert_eq!(read.max_ns, 200);
    }

    #[test]
    fn renderings_are_deterministic() {
        let doc = sample_doc();
        let a = analyze(&doc).unwrap();
        let b = analyze(&doc).unwrap();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.render_text().contains("scrub_pass"));
        assert!(a.to_json().starts_with("{\"banks\":2,"));
    }

    #[test]
    fn unmatched_halves_are_reported_not_dropped_silently() {
        // A tiny ring (capacity 2) on one bank: record two spans; the
        // oldest half-pair is overwritten, splitting a begin from its
        // end.
        let rec = Recorder::buffered(1, &TraceConfig::new(2));
        rec.span(OpKind::Read, 0, 0, (0, 10), (0, 0));
        rec.span(OpKind::Write, 0, 1, (20, 40), (0, 0));
        let doc = jsonl::export(&rec.buffer().unwrap().snapshot());
        let report = analyze(&doc).unwrap();
        assert_eq!(report.total_dropped, 2);
        assert_eq!(report.total_events, 2);
        assert_eq!(report.unmatched_spans, 0, "write pair survives intact");
        assert_eq!(report.top_spans.len(), 1);
        assert_eq!(report.top_spans[0].kind, OpKind::Write);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(analyze("not json\n").is_err());
    }
}
