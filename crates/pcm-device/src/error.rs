//! The device's operation error type.
//!
//! [`PcmError`] wraps the operation-path errors ([`BlockError`],
//! out-of-range addressing, wrong-length payloads) behind one
//! `std::error::Error` implementation, so callers such as `pcm-store`
//! match on — or propagate with `?` — a single `#[non_exhaustive]` enum
//! instead of per-layer types, and new failure classes can be added
//! without breaking downstream matches. Construction failures are a
//! separate type, [`ConfigError`](crate::ConfigError), returned only by
//! the builder.

use crate::block::BlockError;

/// Any error a PCM device operation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcmError {
    /// A block datapath failure (uncorrectable read, exhausted wearout
    /// tolerance, unverifiable write).
    Block(BlockError),
    /// A block address outside the device.
    BlockOutOfRange {
        /// The requested block.
        block: usize,
        /// The device's block count.
        blocks: usize,
    },
    /// A write payload that is not exactly one block long.
    PayloadLength {
        /// The payload's length, bytes.
        len: usize,
        /// The block size, bytes.
        expected: usize,
    },
}

impl std::fmt::Display for PcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcmError::Block(e) => write!(f, "block datapath error: {e}"),
            PcmError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (device has {blocks} blocks)")
            }
            PcmError::PayloadLength { len, expected } => {
                write!(f, "payload of {len} bytes (a block holds {expected})")
            }
        }
    }
}

impl std::error::Error for PcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcmError::Block(e) => Some(e),
            PcmError::BlockOutOfRange { .. } | PcmError::PayloadLength { .. } => None,
        }
    }
}

impl From<BlockError> for PcmError {
    fn from(e: BlockError) -> Self {
        PcmError::Block(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_and_sources() {
        let e: PcmError = BlockError::Uncorrectable.into();
        assert!(matches!(e, PcmError::Block(BlockError::Uncorrectable)));
        assert!(e.to_string().contains("uncorrectable"));
        assert!(e.source().is_some());

        let e: PcmError = BlockError::WearoutExhausted.into();
        assert!(matches!(e, PcmError::Block(_)));

        let e = PcmError::BlockOutOfRange {
            block: 99,
            blocks: 16,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.source().is_none());
    }
}
