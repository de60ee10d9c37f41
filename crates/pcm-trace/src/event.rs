//! The fixed-size trace record and its vocabulary.
//!
//! A [`TraceEvent`] is 48 bytes of plain integers: model-time nanoseconds,
//! bank, block, an operation kind, a span phase, a correlation id, and
//! one kind-specific payload word. Everything is derived from device
//! model time and deterministic op outcomes — there is deliberately no
//! field a wall clock, thread id, or allocator could leak into, so two
//! runs with the same seed produce byte-identical traces.

/// Sentinel block id for events that describe a whole bank (e.g.
/// scrub-pass spans) rather than a single block.
pub const NO_BLOCK: u32 = u32::MAX;

/// What a trace event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// A demand read (span: array busy window; end payload = corrected
    /// symbols).
    Read,
    /// A demand write (span: program-and-verify busy window; begin
    /// payload = attempts, end payload = newly stuck cells).
    Write,
    /// A single-block refresh/scrub rewrite (span: refresh busy window).
    Refresh,
    /// A whole scrub pass over one bank (span: first to last launch of
    /// the pass; begin payload = first tick, end payload = blocks
    /// scrubbed).
    ScrubPass,
    /// A block retirement into the spare pool (span at one instant:
    /// begin payload = replacement block, end payload = total retired).
    Remap,
    /// ECC decode work beyond the raw read (instant or span; payload =
    /// corrected symbols).
    EccDecode,
    /// A failed operation (instant; payload = error code, see
    /// device-layer docs).
    Failure,
    /// A key-value GET served by the store layer (span over the device
    /// reads it issued; begin payload = key hash, end payload = pages
    /// touched).
    KvGet,
    /// A key-value PUT served by the store layer (span over the device
    /// writes it issued; begin payload = key hash, end payload = pages
    /// touched).
    KvPut,
    /// A key-value DELETE served by the store layer (span over the
    /// device writes it issued; begin payload = key hash, end payload =
    /// pages freed).
    KvDelete,
    /// A telemetry drift-risk state change on one bank (instant at the
    /// sample deadline; payload packs `(ewma_permille << 16) |
    /// (from_code << 8) | to_code`, see `pcm-telemetry`).
    RiskTransition,
    /// Model time a demand op spent draining accumulated scrub debt on
    /// its bank before its own busy window (span; payload = drained ns).
    ScrubStall,
}

impl OpKind {
    /// Every kind, in wire-code order.
    pub const ALL: [OpKind; 12] = [
        OpKind::Read,
        OpKind::Write,
        OpKind::Refresh,
        OpKind::ScrubPass,
        OpKind::Remap,
        OpKind::EccDecode,
        OpKind::Failure,
        OpKind::KvGet,
        OpKind::KvPut,
        OpKind::KvDelete,
        OpKind::RiskTransition,
        OpKind::ScrubStall,
    ];

    /// Stable lowercase name used by the JSONL exporter.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Refresh => "refresh",
            OpKind::ScrubPass => "scrub_pass",
            OpKind::Remap => "remap",
            OpKind::EccDecode => "ecc_decode",
            OpKind::Failure => "failure",
            OpKind::KvGet => "kv_get",
            OpKind::KvPut => "kv_put",
            OpKind::KvDelete => "kv_delete",
            OpKind::RiskTransition => "risk_transition",
            OpKind::ScrubStall => "scrub_stall",
        }
    }

    /// Inverse of [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Compact wire code for the ring-buffer encoding.
    pub(crate) fn code(self) -> u64 {
        match self {
            OpKind::Read => 0,
            OpKind::Write => 1,
            OpKind::Refresh => 2,
            OpKind::ScrubPass => 3,
            OpKind::Remap => 4,
            OpKind::EccDecode => 5,
            OpKind::Failure => 6,
            OpKind::KvGet => 7,
            OpKind::KvPut => 8,
            OpKind::KvDelete => 9,
            OpKind::RiskTransition => 10,
            OpKind::ScrubStall => 11,
        }
    }

    /// Inverse of [`OpKind::code`].
    pub(crate) fn from_code(code: u64) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.code() == code)
    }
}

/// Span phase of an event, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// A point event with no duration (`"i"`).
    Instant,
}

impl Phase {
    /// Stable name used by the JSONL exporter (`B`/`E`/`i`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        match name {
            "B" => Some(Phase::Begin),
            "E" => Some(Phase::End),
            "i" => Some(Phase::Instant),
            _ => None,
        }
    }

    /// Compact wire code for the ring-buffer encoding.
    pub(crate) fn code(self) -> u64 {
        match self {
            Phase::Begin => 0,
            Phase::End => 1,
            Phase::Instant => 2,
        }
    }

    /// Inverse of [`Phase::code`].
    pub(crate) fn from_code(code: u64) -> Option<Phase> {
        match code {
            0 => Some(Phase::Begin),
            1 => Some(Phase::End),
            2 => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// One recorded event.
///
/// `seq` is a per-bank sequence number assigned by the ring buffer in
/// record order; within one bank, `(t_ns, seq)` is a total order that is
/// identical across thread counts (the determinism oracle in
/// `tests/trace_determinism.rs` asserts exactly this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceEvent {
    /// Per-bank sequence number (record order within the bank).
    pub seq: u64,
    /// Model time in integer nanoseconds.
    pub t_ns: u64,
    /// Bank the event belongs to.
    pub bank: u32,
    /// Block the event describes, or [`NO_BLOCK`] for bank-wide events.
    pub block: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Span phase.
    pub phase: Phase,
    /// Correlation id of the request this event belongs to (see the
    /// [`crate::ctx`] module), or [`crate::ctx::NO_CTX`].
    pub ctx: u64,
    /// Kind-specific payload (corrected symbols, attempts, tick ids…).
    pub payload: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_codes_round_trip() {
        for k in OpKind::ALL {
            assert_eq!(OpKind::from_name(k.name()), Some(k));
            assert_eq!(OpKind::from_code(k.code()), Some(k));
        }
        assert_eq!(OpKind::from_name("nope"), None);
        assert_eq!(OpKind::from_code(99), None);
    }

    #[test]
    fn phase_names_and_codes_round_trip() {
        for p in [Phase::Begin, Phase::End, Phase::Instant] {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert_eq!(Phase::from_code(p.code()), Some(p));
        }
        assert_eq!(Phase::from_name("X"), None);
        assert_eq!(Phase::from_code(7), None);
    }
}
