//! Layer replay: a workload's own pages pushed through each layer of
//! the 3LC datapath alone, stage by stage through public functions, and
//! checked byte for byte against the composed `ThreeLevelBlock` path on
//! an array with the same seed. The check pins every per-layer timing
//! to the code the device really runs.

use crate::clock::Stamp;
use crate::spans::SpanLog;
use crate::stats;
use crate::Gates;
use pcm_codec::tec::TecCodec;
use pcm_codec::ternary::Trit;
use pcm_codec::three_on_two::BLOCK_DATA_CELLS;
use pcm_core::level::LevelDesign;
use pcm_device::block::THREE_LEVEL_BLOCK_CELLS;
use pcm_device::{CellArray, CellOrganization, DeviceBuilder, PcmBank, ThreeLevelBlock};
use pcm_ecc::bitvec::BitVec;
use pcm_wearout::fault::EnduranceModel;
use pcm_wearout::mark_spare::{MarkSpareCodec, SPARE_PAIRS};

/// Replay passes; each layer reports the median of its per-pass means.
const PASSES: usize = 3;

/// Data bits per 64-byte block.
const DATA_BITS: usize = 512;

/// First SLC check cell of a block, after the data and spare cells.
const CHECK_CELL: usize = BLOCK_DATA_CELLS + 2 * SPARE_PAIRS;

/// Per-layer CPU times from the replay (one thread, so CPU time is the
/// layer's own work).
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTimes {
    /// `CellArray::program` per cell, ns.
    pub program_ns_per_cell: f64,
    /// Program-and-verify iterations per cell.
    pub program_attempts_per_cell: f64,
    /// `CellArray::sense` per cell, ns.
    pub sense_ns_per_cell: f64,
    /// `MarkSpareCodec::encode_block` (3-ON-2 + mark-and-spare), ns.
    pub codec_encode_ns: f64,
    /// `MarkSpareCodec::decode_block`, ns.
    pub codec_decode_ns: f64,
    /// `TecCodec::encode` (BCH-1 over the TEC bits), ns.
    pub ecc_encode_ns: f64,
    /// `TecCodec::decode`, ns.
    pub ecc_decode_ns: f64,
    /// `ThreeLevelBlock::write`, µs.
    pub block_write_us: f64,
    /// `ThreeLevelBlock::read`, µs.
    pub block_read_us: f64,
    /// `PcmBank::refresh`, µs.
    pub bank_refresh_us: f64,
    /// `ShardedPcmDevice::write_block` from one thread, µs.
    pub device_write_us: f64,
    /// `ShardedPcmDevice::read_block` from one thread, µs.
    pub device_read_us: f64,
}

/// Summed stage times of one pass, ns.
#[derive(Default)]
struct Pass {
    program: f64,
    attempts: f64,
    sense: f64,
    codec_encode: f64,
    codec_decode: f64,
    ecc_encode: f64,
    ecc_decode: f64,
    block_write: f64,
    block_read: f64,
    bank_refresh: f64,
    device_write: f64,
    device_read: f64,
}

/// CPU ns from `a` to `b`.
fn ns(a: Stamp, b: Stamp) -> f64 {
    a.to(b).1 as f64
}

fn span(log: &mut Option<&mut SpanLog>, name: &'static str, a: Stamp, b: Stamp, parent: u64) {
    if let Some(l) = log.as_deref_mut() {
        l.record(name, a.wall, b.wall, parent, 0);
    }
}

/// Replay `pages` (64-byte page images) written at model time 0 and
/// read back at model time `age` through every layer, `PASSES` times.
/// `banks` is the device geometry the pages came from.
pub fn run(
    pages: &[Vec<u8>],
    seed: u64,
    age: f64,
    banks: usize,
    log: &mut SpanLog,
    gates: &mut Gates,
) -> ReplayTimes {
    let mut passes = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        // Only the first pass records spans: later passes repeat it.
        let spans = if pass == 0 { Some(&mut *log) } else { None };
        passes.push(one_pass(pages, seed, age, banks, spans, gates));
    }
    let n = pages.len().max(1) as f64;
    let cells = n * THREE_LEVEL_BLOCK_CELLS as f64;
    let med = |f: fn(&Pass) -> f64, per: f64| {
        stats::median(&passes.iter().map(|p| f(p) / per).collect::<Vec<_>>())
    };
    ReplayTimes {
        program_ns_per_cell: med(|p| p.program, cells),
        program_attempts_per_cell: med(|p| p.attempts, cells),
        sense_ns_per_cell: med(|p| p.sense, cells),
        codec_encode_ns: med(|p| p.codec_encode, n),
        codec_decode_ns: med(|p| p.codec_decode, n),
        ecc_encode_ns: med(|p| p.ecc_encode, n),
        ecc_decode_ns: med(|p| p.ecc_decode, n),
        block_write_us: med(|p| p.block_write, n * 1e3),
        block_read_us: med(|p| p.block_read, n * 1e3),
        bank_refresh_us: med(|p| p.bank_refresh, n * 1e3),
        device_write_us: med(|p| p.device_write, n * 1e3),
        device_read_us: med(|p| p.device_read, n * 1e3),
    }
}

fn one_pass(
    pages: &[Vec<u8>],
    seed: u64,
    age: f64,
    banks: usize,
    mut log: Option<&mut SpanLog>,
    gates: &mut Gates,
) -> Pass {
    let design = LevelDesign::three_level_naive();
    let slc = LevelDesign::two_level();
    let codec = MarkSpareCodec::default();
    let tec = TecCodec::new();
    let cells = pages.len() * THREE_LEVEL_BLOCK_CELLS;
    // Same seed, same program order: the staged array and the composed
    // block path draw identical program-and-verify outcomes.
    let mut staged = CellArray::new(cells, EnduranceModel::mlc(), seed);
    let mut composed = CellArray::new(cells, EnduranceModel::mlc(), seed);
    let mut blocks: Vec<ThreeLevelBlock> = (0..pages.len())
        .map(|i| ThreeLevelBlock::new(design.clone(), i * THREE_LEVEL_BLOCK_CELLS))
        .collect();
    let mut p = Pass::default();

    // Each layer runs in a loop of its own, so no layer's timing pays
    // for another layer's cache footprint.
    let mut staged_writes = Vec::with_capacity(pages.len());
    for (i, page) in pages.iter().enumerate() {
        let base = i * THREE_LEVEL_BLOCK_CELLS;
        let parent = log.as_deref_mut().map_or(0, SpanLog::next_id);
        let t0 = Stamp::thread();
        let trits = match codec.encode_block(&BitVec::from_bytes(page, DATA_BITS), &[]) {
            Ok(t) => t,
            Err(e) => {
                gates.check(false, format_args!("replay page {i}: codec encode: {e:?}"));
                return p;
            }
        };
        let t1 = Stamp::thread();
        let check = tec.encode(&trits);
        let t2 = Stamp::thread();
        let mut attempts = 0u64;
        let mut faults = 0usize;
        for (c, t) in trits.iter().enumerate() {
            let o = staged.program(base + c, &design, t.index(), 0.0);
            attempts += u64::from(o.attempts);
            faults += usize::from(o.new_fault.is_some());
        }
        for j in 0..check.len() {
            let o = staged.program(base + CHECK_CELL + j, &slc, usize::from(check.get(j)), 0.0);
            attempts += u64::from(o.attempts);
            faults += usize::from(o.new_fault.is_some());
        }
        let t3 = Stamp::thread();
        span(&mut log, "codec.encode", t0, t1, parent);
        span(&mut log, "ecc.encode", t1, t2, parent);
        span(&mut log, "cell.program", t2, t3, parent);
        if let Some(l) = log.as_deref_mut() {
            l.record_with_id("replay.write", t0.wall, t3.wall, parent, 0, 0);
        }
        p.codec_encode += ns(t0, t1);
        p.ecc_encode += ns(t1, t2);
        p.program += ns(t2, t3);
        p.attempts += attempts as f64;
        staged_writes.push((attempts, faults));
    }
    for (i, page) in pages.iter().enumerate() {
        let t0 = Stamp::thread();
        let rep = blocks[i].write(&mut composed, 0.0, page);
        let t1 = Stamp::thread();
        span(&mut log, "block.write", t0, t1, 0);
        p.block_write += ns(t0, t1);
        let (attempts, faults) = staged_writes[i];
        gates.check(
            matches!(rep, Ok(r) if r.attempts == attempts && r.new_faults == faults && faults == 0),
            format_args!("replay page {i}: staged write matches ThreeLevelBlock::write"),
        );
    }

    let mut staged_reads = Vec::with_capacity(pages.len());
    for i in 0..pages.len() {
        let base = i * THREE_LEVEL_BLOCK_CELLS;
        let parent = log.as_deref_mut().map_or(0, SpanLog::next_id);
        let t0 = Stamp::thread();
        let sensed: Vec<Trit> = (0..codec.total_cells())
            .map(|c| Trit::from_index(staged.sense(base + c, &design, age)))
            .collect();
        let mut check = BitVec::zeros(tec.check_bits());
        for j in 0..check.len() {
            check.set(j, staged.sense(base + CHECK_CELL + j, &slc, age) == 1);
        }
        let t1 = Stamp::thread();
        let outcome = tec.decode(&sensed, &check);
        let t2 = Stamp::thread();
        let data = outcome
            .as_ref()
            .ok()
            .and_then(|o| codec.decode_block(&o.trits, DATA_BITS).ok())
            .map(|bits| bits.to_bytes());
        let t3 = Stamp::thread();
        span(&mut log, "cell.sense", t0, t1, parent);
        span(&mut log, "ecc.decode", t1, t2, parent);
        span(&mut log, "codec.decode", t2, t3, parent);
        if let Some(l) = log.as_deref_mut() {
            l.record_with_id("replay.read", t0.wall, t3.wall, parent, 0, 0);
        }
        p.sense += ns(t0, t1);
        p.ecc_decode += ns(t1, t2);
        p.codec_decode += ns(t2, t3);
        staged_reads.push(outcome.ok().map(|o| o.corrected_bits).zip(data));
    }
    for (i, page) in pages.iter().enumerate() {
        let t0 = Stamp::thread();
        let rep = blocks[i].read(&composed, age);
        let t1 = Stamp::thread();
        span(&mut log, "block.read", t0, t1, 0);
        p.block_read += ns(t0, t1);
        gates.check(
            matches!((&staged_reads[i], &rep), (Some((corrected, data)), Ok(r))
                if data == page && r.data == *data && r.corrected_bits == *corrected),
            format_args!("replay page {i}: staged read is byte-identical to ThreeLevelBlock::read"),
        );
    }

    // Bank: refresh (read, correct, rewrite) of every replayed block.
    let org = CellOrganization::ThreeLevel(design.clone());
    let mut bank = PcmBank::new(&org, 0, pages.len(), seed, EnduranceModel::mlc());
    for (i, page) in pages.iter().enumerate() {
        gates.check(bank.write(i, 0.0, page).is_ok(), "replay bank write");
    }
    for i in 0..pages.len() {
        let t0 = Stamp::thread();
        let r = bank.refresh(i, age);
        let t1 = Stamp::thread();
        span(&mut log, "bank.refresh", t0, t1, 0);
        p.bank_refresh += ns(t0, t1);
        gates.check(r.is_ok(), format_args!("replay block {i}: bank refresh"));
    }

    // Device: the same pages through the sharded engine from one thread
    // (bank routing, the bank lock, metrics and trace hooks included).
    let blocks_rounded = pages.len().div_ceil(banks) * banks;
    let dev = DeviceBuilder::new()
        .blocks(blocks_rounded)
        .banks(banks)
        .seed(seed)
        .build_sharded()
        .expect("replay device geometry is a whole number of banks");
    for (i, page) in pages.iter().enumerate() {
        let t0 = Stamp::thread();
        let r = dev.write_block(i, page);
        let t1 = Stamp::thread();
        span(&mut log, "device.write", t0, t1, 0);
        p.device_write += ns(t0, t1);
        gates.check(r.is_ok(), format_args!("replay block {i}: device write"));
    }
    dev.advance_time(age);
    for (i, page) in pages.iter().enumerate() {
        let t0 = Stamp::thread();
        let r = dev.read_block(i);
        let t1 = Stamp::thread();
        span(&mut log, "device.read", t0, t1, 0);
        p.device_read += ns(t0, t1);
        gates.check(
            matches!(&r, Ok(rep) if rep.data == *page),
            format_args!("replay block {i}: device read returns the page"),
        );
    }
    p
}
