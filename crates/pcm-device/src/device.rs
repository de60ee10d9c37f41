//! Device-wide vocabulary: the block organization a device is built
//! with and its cumulative statistics.
//!
//! Device capacities are configurable (tests use kilobytes, the repro
//! harness megabytes); the paper's 16 GiB geometry is represented
//! analytically in `pcm_core::retention` — simulating every cell of 16 GiB
//! is neither necessary nor useful, since blocks are statistically
//! independent (see DESIGN.md §3).
//!
//! The engine itself is [`ShardedPcmDevice`](crate::concurrent::ShardedPcmDevice):
//! [`PcmBank`](crate::bank::PcmBank) units behind per-bank locks with
//! low-order block interleaving (like DDR rank/bank address maps),
//! constructed through [`DeviceBuilder`](crate::builder::DeviceBuilder).

use crate::generic_block::GenericBlock;
use pcm_codec::enumerative::EnumerativeCode;
use pcm_core::level::LevelDesign;

/// Which block organization a device uses.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOrganization {
    /// The paper's 3LCo + 3-ON-2 + mark-and-spare + BCH-1 stack.
    ThreeLevel(LevelDesign),
    /// The 4LCo + Gray(+smart) + BCH-10 + ECP-6 stack.
    FourLevel {
        /// The four-level design (usually `four_level_optimal()`).
        design: LevelDesign,
        /// Enable the §5.1 smart-encoding pass.
        smart: bool,
    },
    /// The §8 generalized K-level stack: enumerative data code + Gray
    /// TEC + marker-state mark-and-spare ([`GenericBlock`]).
    Generic {
        /// The K-level design (K = `code.base()`).
        design: LevelDesign,
        /// The k-bits-in-m-symbols data code.
        code: EnumerativeCode,
        /// Worn groups tolerated per block.
        spare_groups: usize,
        /// BCH correction strength of the TEC.
        tec_strength: usize,
    },
}

impl CellOrganization {
    /// Physical cells one block of this organization occupies.
    pub fn cells_per_block(&self) -> usize {
        use crate::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
        match self {
            CellOrganization::ThreeLevel(_) => THREE_LEVEL_BLOCK_CELLS,
            CellOrganization::FourLevel { .. } => FOUR_LEVEL_BLOCK_CELLS,
            CellOrganization::Generic {
                design,
                code,
                spare_groups,
                tec_strength,
            } => GenericBlock::new(design.clone(), *code, 0, *spare_groups, *tec_strength).cells(),
        }
    }
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed block writes.
    pub writes: u64,
    /// Completed block reads.
    pub reads: u64,
    /// Bits corrected by transient-error ECC across all reads.
    pub corrected_bits: u64,
    /// Reads that failed as uncorrectable.
    pub uncorrectable_reads: u64,
    /// Wearout faults discovered by write-and-verify.
    pub wearout_faults: u64,
    /// Blocks refreshed (scrubbed) by the refresh controller.
    pub refreshes: u64,
    /// Total program-and-verify iterations (wear cycles) issued.
    pub write_attempts: u64,
}

impl DeviceStats {
    /// Fold another stats record into this one (per-bank aggregation).
    pub fn accumulate(&mut self, other: &DeviceStats) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.corrected_bits += other.corrected_bits;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.wearout_faults += other.wearout_faults;
        self.refreshes += other.refreshes;
        self.write_attempts += other.write_attempts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeviceBuilder;
    use crate::concurrent::ShardedPcmDevice;

    fn three_level_device(blocks: usize) -> ShardedPcmDevice {
        DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(blocks)
            .banks(4)
            .seed(77)
            .build_sharded()
            .unwrap()
    }

    #[test]
    fn bank_mapping_interleaves() {
        let dev = three_level_device(16);
        assert_eq!(dev.bank_of(0), 0);
        assert_eq!(dev.bank_of(5), 1);
        assert_eq!(dev.bank_of(7), 3);
    }

    #[test]
    fn generic_organization_works_device_wide() {
        // A ternary generic device must behave like the dedicated 3LC one.
        let dev = DeviceBuilder::new()
            .organization(CellOrganization::Generic {
                design: LevelDesign::three_level_naive(),
                code: EnumerativeCode::new(3, 2),
                spare_groups: 6,
                tec_strength: 1,
            })
            .blocks(8)
            .banks(4)
            .seed(21)
            .build_sharded()
            .unwrap();
        let pat = |b: usize| vec![(b as u8).wrapping_mul(41) ^ 0x69; 64];
        for b in 0..8 {
            dev.write_block(b, &pat(b)).unwrap();
        }
        dev.advance_time(pcm_core::params::TEN_YEARS_SECS);
        for b in 0..8 {
            assert_eq!(dev.read_block(b).unwrap().data, pat(b), "block {b}");
        }
        // Refresh through the generic path works too.
        dev.refresh_block(3).unwrap();
        assert_eq!(dev.stats().refreshes, 1);
    }

    #[test]
    fn wear_statistics_accumulate() {
        let dev = three_level_device(4);
        let data = vec![1u8; 64];
        for _ in 0..10 {
            dev.write_block(0, &data).unwrap();
        }
        let s = dev.stats();
        assert_eq!(s.writes, 10);
        // 364 cells per write, ~1.006 attempts each.
        assert!(s.write_attempts >= 3640, "{}", s.write_attempts);
    }

    #[test]
    fn per_bank_stats_sum_to_device_stats() {
        let dev = three_level_device(16);
        let data = vec![0x42u8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        for b in 0..8 {
            dev.read_block(b).unwrap();
        }
        let per_bank = dev.bank_stats();
        assert_eq!(per_bank.len(), 4);
        let mut sum = DeviceStats::default();
        for s in &per_bank {
            sum.accumulate(s);
        }
        assert_eq!(sum, dev.stats());
        // Low-order interleaving spreads 16 blocks evenly over 4 banks.
        for s in &per_bank {
            assert_eq!(s.writes, 4);
        }
    }

    #[test]
    fn metrics_registry_tracks_ops_per_bank() {
        let dev = three_level_device(16);
        let data = vec![0x24u8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        for b in 0..4 {
            dev.read_block(b).unwrap();
        }
        dev.refresh_block(0).unwrap();
        let snap = dev.metrics().snapshot();
        assert_eq!(snap.per_bank.len(), 4);
        // Low-order interleaving: 4 writes per bank; the 4 reads and the
        // scrub land one per bank / on bank 0.
        for (bank, m) in snap.per_bank.iter().enumerate() {
            assert_eq!(m.writes, 4, "bank {bank}");
            assert_eq!(m.reads, 1, "bank {bank}");
        }
        assert_eq!(snap.per_bank[0].scrubs, 1);
        let total = snap.total();
        assert_eq!(total.writes, 16);
        assert_eq!(total.scrubs, 1);
        assert_eq!(total.uncorrectables, 0);
        // Busy time: 16 writes ≥ 1 µs each + 4 reads at 200 ns + one
        // scrub at 1.2 µs.
        assert!(total.busy_ns >= 16_000 + 800 + 1200, "{}", total.busy_ns);
        // Histogram saw every successful op.
        let samples: u64 = total.latency_buckets.iter().sum();
        assert_eq!(samples, 21);
    }
}
