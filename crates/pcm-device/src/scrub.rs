//! Refresh (scrub) for the bank-sharded engine (§1, §4.1).
//!
//! The paper's availability results (§4.1, §7, Figure 4) hinge on
//! refresh: every block is read, ECC-corrected, and rewritten once per
//! interval, stealing per-bank write bandwidth from demand traffic. The
//! paper models the device as independent banks, each with its own
//! refresh stream; this module walks exactly those streams.
//!
//! ## The schedule
//!
//! Launch `k` (1-based) is due at exactly `k × step` where
//! `step = interval / blocks`, and scrubs global block
//! `(k - 1) % blocks`. Due times are integer-tick products, never
//! accumulated, so the schedule cannot drift, and the first launch is at
//! `step` — not `t = 0`, which would scrub one extra block per run. With
//! low-order bank interleaving the global walk visits banks round-robin,
//! which means **each bank's scrub stream is independent**: bank `b`'s
//! `j`-th scrub is launch `j·banks + b + 1`, at local block
//! `j % blocks_per_bank`. [`BankScrubCursor`] walks one such stream, and
//! its [`run_until`](BankScrubCursor::run_until) is the only loop that
//! issues scrub refreshes.
//!
//! ## Determinism rule
//!
//! Bank RNG streams make a bank's outcomes a pure function of the
//! sequence of operations applied to that bank. Scrub launches for a
//! given bank always happen in schedule order (a cursor is owned by one
//! thread at a time), and trace events carry per-bank sequence numbers,
//! so:
//!
//! * [`ShardedScrubber::run_until`] (every cursor on the calling thread)
//!   is bit-identical to walking the global launch order;
//! * [`ShardedScrubber::run_until_concurrent`] is bit-identical to the
//!   inline run at any thread count;
//! * interleaving demand sessions preserves the identity whenever the
//!   *per-bank* order of demand ops relative to scrubs matches
//!   (cross-validated at 1/2/8 threads in `tests/proptests.rs` and
//!   `tests/concurrent_scrub.rs`).

use crate::causal;
use crate::concurrent::ShardedPcmDevice;
use crate::trace_hooks;

/// What a scrub walk did during a `run_until` call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshReport {
    /// Blocks scrubbed.
    pub blocks_refreshed: u64,
    /// Blocks whose scrub failed (uncorrectable or worn out).
    pub failures: u64,
    /// Bank-seconds of busy time consumed.
    pub bank_busy_secs: f64,
}

impl RefreshReport {
    /// Fold another report into this one (merging per-bank or per-thread
    /// scrub reports).
    pub fn merge(&mut self, other: &RefreshReport) {
        self.blocks_refreshed += other.blocks_refreshed;
        self.failures += other.failures;
        self.bank_busy_secs += other.bank_busy_secs;
    }

    /// Recompute busy time as one product of the launch count, not an
    /// accumulation of per-block costs: the result is then independent
    /// of how launches were grouped into calls, banks, or threads.
    fn with_busy(mut self, block_scrub_secs: f64) -> Self {
        self.bank_busy_secs = (self.blocks_refreshed + self.failures) as f64 * block_scrub_secs;
        self
    }
}

/// The integer-tick scrub schedule for a device geometry.
///
/// Pure arithmetic — holds no cursor state — so it can be shared freely
/// across threads and engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubScheduler {
    /// Target interval between successive scrubs of the same block.
    pub interval_secs: f64,
    /// Time one block's scrub occupies its bank (paper: 1 µs).
    pub block_scrub_secs: f64,
    blocks: usize,
    banks: usize,
}

impl ScrubScheduler {
    /// A schedule covering `dev` once per `interval_secs`, with the
    /// paper's 1 µs per-block scrub cost.
    pub fn new(dev: &ShardedPcmDevice, interval_secs: f64) -> Self {
        Self::for_geometry(dev.blocks(), dev.banks(), interval_secs)
    }

    /// A schedule for an explicit geometry (`blocks` must be a multiple
    /// of `banks`, as in any built device).
    pub fn for_geometry(blocks: usize, banks: usize, interval_secs: f64) -> Self {
        // pcm-lint: allow(no-panic-lib) — config contract: the scrub interval is a positive experiment parameter
        assert!(interval_secs > 0.0);
        // pcm-lint: allow(no-panic-lib) — config contract: geometry comes from a built device, which enforces divisibility
        assert!(blocks > 0 && banks > 0 && blocks.is_multiple_of(banks));
        Self {
            interval_secs,
            block_scrub_secs: 1e-6,
            blocks,
            banks,
        }
    }

    /// Blocks covered per interval.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Banks the schedule rotates over.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Seconds between consecutive single-block launches.
    pub fn step_secs(&self) -> f64 {
        self.interval_secs / self.blocks as f64
    }

    /// Due time of launch `tick` (1-based): `tick × step`, computed as a
    /// product so long horizons accumulate no error.
    pub fn due_time(&self, tick: u64) -> f64 {
        tick as f64 * self.step_secs()
    }

    /// Global block scrubbed by launch `tick` (1-based).
    pub fn block_of(&self, tick: u64) -> usize {
        ((tick - 1) % self.blocks as u64) as usize
    }

    /// Fraction of each bank's time consumed by scrub at this interval
    /// (the §7 bandwidth tax): blocks-per-bank × cost / interval.
    pub fn bank_utilization(&self) -> f64 {
        let blocks_per_bank = (self.blocks / self.banks) as f64;
        (blocks_per_bank * self.block_scrub_secs / self.interval_secs).min(1.0)
    }

    /// One cursor per bank, resuming from global launch `next_tick`
    /// (1-based; pass 1 for a fresh schedule).
    pub fn bank_cursors(&self, next_tick: u64) -> Vec<BankScrubCursor> {
        let fired = next_tick - 1;
        (0..self.banks)
            .map(|bank| BankScrubCursor {
                sched: *self,
                bank,
                // Launches 1..=fired hit bank b at j·banks + b + 1 ≤ fired.
                done: fired
                    .saturating_sub(bank as u64)
                    .div_ceil(self.banks as u64),
            })
            .collect()
    }
}

/// One bank's scrub stream: the launches of the global schedule that
/// land on this bank, advanced independently of every other bank.
///
/// A cursor is `Send` and owns only its position, so a background
/// scrubber hands each thread the cursors of the banks it owns and lets
/// them interleave freely with demand sessions.
#[derive(Debug, Clone)]
pub struct BankScrubCursor {
    sched: ScrubScheduler,
    bank: usize,
    /// Scrubs this bank has completed since schedule start.
    done: u64,
}

impl BankScrubCursor {
    /// The bank this cursor scrubs.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Scrubs completed by this cursor since schedule start.
    pub fn completed(&self) -> u64 {
        self.done
    }

    /// Global launch index (1-based) of this bank's next scrub.
    pub fn next_tick(&self) -> u64 {
        self.done * self.sched.banks as u64 + self.bank as u64 + 1
    }

    /// Due time of this bank's next scrub.
    pub fn next_due(&self) -> f64 {
        self.sched.due_time(self.next_tick())
    }

    /// Global block this bank scrubs next.
    pub fn next_block(&self) -> usize {
        let per_bank = self.sched.blocks / self.sched.banks;
        (self.done as usize % per_bank) * self.sched.banks + self.bank
    }

    /// Scrub every block of this bank that came due by device time `t`.
    /// The device clock must already be at (or past) `t`.
    pub fn run_until(&mut self, dev: &ShardedPcmDevice, t: f64) -> RefreshReport {
        let mut report = RefreshReport::default();
        let mut pass: Option<(u64, u64, u64)> = None;
        while self.next_due() <= t {
            let launch = self.next_tick();
            let first = pass.map_or(launch, |(f, _, _)| f);
            match dev.refresh_block_ctx(self.next_block(), causal::scrub_ctx(self.bank, first)) {
                Ok(()) => report.blocks_refreshed += 1,
                Err(_) => report.failures += 1,
            }
            trace_hooks::track_pass(&mut pass, launch);
            self.done += 1;
        }
        trace_hooks::scrub_pass_event(
            dev.tracer(),
            self.bank,
            pass,
            self.sched.step_secs(),
            self.sched.block_scrub_secs,
        );
        report.with_busy(self.sched.block_scrub_secs)
    }
}

/// A periodic scrubber over a [`ShardedPcmDevice`].
///
/// Run it inline with [`run_until`](Self::run_until), fan it out with
/// [`run_until_concurrent`](Self::run_until_concurrent), or split it
/// into [`BankScrubCursor`]s via [`bank_cursors`](Self::bank_cursors)
/// and drive those from long-lived scrub threads interleaved with
/// demand sessions (then fold progress back with
/// [`adopt_cursors`](Self::adopt_cursors)).
#[derive(Debug, Clone)]
pub struct ShardedScrubber {
    sched: ScrubScheduler,
    /// Next global launch index, 1-based.
    tick: u64,
}

impl ShardedScrubber {
    /// A scrubber covering `dev` once per `interval_secs`.
    pub fn new(dev: &ShardedPcmDevice, interval_secs: f64) -> Self {
        Self {
            sched: ScrubScheduler::new(dev, interval_secs),
            tick: 1,
        }
    }

    /// The underlying schedule.
    pub fn scheduler(&self) -> &ScrubScheduler {
        &self.sched
    }

    /// Scrubs launched so far.
    pub fn completed(&self) -> u64 {
        self.tick - 1
    }

    /// Advance to device time `t`, scrubbing every block that came due:
    /// each bank's cursor runs in turn on the calling thread.
    pub fn run_until(&mut self, dev: &ShardedPcmDevice, t: f64) -> RefreshReport {
        let mut cursors = self.bank_cursors();
        let report = walk(&mut cursors, dev, t);
        self.adopt_cursors(&cursors);
        report.with_busy(self.sched.block_scrub_secs)
    }

    /// [`run_until`](Self::run_until) on `threads` scoped threads:
    /// thread `i` owns the cursors of banks `i, i + threads, …`.
    /// Per-bank order is the schedule order, so the result is
    /// bit-identical to the inline run at any thread count.
    pub fn run_until_concurrent(
        &mut self,
        dev: &ShardedPcmDevice,
        t: f64,
        threads: usize,
    ) -> RefreshReport {
        // pcm-lint: allow(no-panic-lib) — contract: a parallel scrub needs at least one thread
        assert!(threads >= 1, "need at least one scrub thread");
        let mut cursors = self.bank_cursors();
        let mut report = RefreshReport::default();
        std::thread::scope(|scope| {
            let mut groups: Vec<Vec<&mut BankScrubCursor>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (bank, cursor) in cursors.iter_mut().enumerate() {
                groups[bank % threads].push(cursor);
            }
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| scope.spawn(move || walk(group, dev, t)))
                .collect();
            for h in handles {
                // pcm-lint: allow(no-panic-lib) — propagates a worker panic; the join cannot fail otherwise
                report.merge(&h.join().expect("scrub thread panicked"));
            }
        });
        self.adopt_cursors(&cursors);
        report.with_busy(self.sched.block_scrub_secs)
    }

    /// Split into one cursor per bank, resuming from the scrubber's
    /// current position.
    pub fn bank_cursors(&self) -> Vec<BankScrubCursor> {
        self.sched.bank_cursors(self.tick)
    }

    /// Fold per-bank cursor progress back into the global position.
    /// Cursors must originate from [`bank_cursors`](Self::bank_cursors)
    /// of this scrubber (one per bank) and have been advanced to a
    /// common horizon, so the completed launches form a prefix of the
    /// global schedule.
    pub fn adopt_cursors(&mut self, cursors: &[BankScrubCursor]) {
        // pcm-lint: allow(no-panic-lib) — contract: cursors come from this scrubber's bank_cursors, one per bank
        assert_eq!(cursors.len(), self.sched.banks, "one cursor per bank");
        // The global position is the smallest pending launch across banks.
        self.tick = cursors
            .iter()
            .map(BankScrubCursor::next_tick)
            .min()
            // pcm-lint: allow(no-panic-lib) — infallible: the scheduler rejects banks == 0, so the cursor set is non-empty
            .expect("at least one bank");
    }
}

/// Run `cursors` to device time `t`, one after another on the calling
/// thread.
fn walk<'c>(
    cursors: impl IntoIterator<Item = &'c mut BankScrubCursor>,
    dev: &ShardedPcmDevice,
    t: f64,
) -> RefreshReport {
    let mut report = RefreshReport::default();
    for cursor in cursors {
        report.merge(&cursor.run_until(dev, t));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DeviceBuilder;
    use crate::device::CellOrganization;
    use pcm_core::level::LevelDesign;

    fn builder() -> DeviceBuilder {
        DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(16)
            .banks(4)
            .seed(2024)
    }

    #[test]
    fn schedule_matches_sequential_walk() {
        let sched = ScrubScheduler::for_geometry(16, 4, 1.6);
        assert!((sched.step_secs() - 0.1).abs() < 1e-15);
        // Launches walk blocks 0, 1, 2, … — banks round-robin.
        for tick in 1..=32u64 {
            assert_eq!(sched.block_of(tick), ((tick - 1) % 16) as usize);
        }
        assert!((sched.due_time(16) - 1.6).abs() < 1e-12);
        // Bank utilization: 4 blocks/bank × 1 µs / 1.6 s.
        assert!((sched.bank_utilization() - 4.0e-6 / 1.6).abs() < 1e-18);
    }

    #[test]
    fn cursors_partition_the_schedule() {
        let sched = ScrubScheduler::for_geometry(16, 4, 1.6);
        let cursors = sched.bank_cursors(1);
        // Bank b's first launch is tick b + 1, at block b.
        for (b, c) in cursors.iter().enumerate() {
            assert_eq!(c.next_tick(), b as u64 + 1);
            assert_eq!(c.next_block(), b);
        }
        // Resuming mid-round: after 6 launches, banks 0 and 1 have done
        // 2, banks 2 and 3 have done 1.
        let resumed = sched.bank_cursors(7);
        let done: Vec<u64> = resumed.iter().map(BankScrubCursor::completed).collect();
        assert_eq!(done, vec![2, 2, 1, 1]);
        // Their next ticks tile the upcoming launches exactly.
        let mut next: Vec<u64> = resumed.iter().map(BankScrubCursor::next_tick).collect();
        next.sort_unstable();
        assert_eq!(next, vec![7, 8, 9, 10]);
        // And local blocks wrap per bank: bank 0's third scrub is block 8.
        assert_eq!(resumed[0].next_block(), 8);
        // Every launch of the global walk is the next launch of exactly
        // one bank's cursor, at the same block.
        for tick in 1..=48u64 {
            let owner = &sched.bank_cursors(tick)[(tick as usize - 1) % 4];
            assert_eq!(owner.next_tick(), tick);
            assert_eq!(owner.next_block(), sched.block_of(tick), "tick {tick}");
        }
    }

    #[test]
    fn concurrent_scrub_matches_inline_at_any_thread_count() {
        let run = |threads: Option<usize>| {
            let dev = builder().build_sharded().unwrap();
            let data = vec![0x6Bu8; 64];
            for b in 0..16 {
                dev.write_block(b, &data).unwrap();
            }
            let mut scrubber = ShardedScrubber::new(&dev, 1.6);
            let mut total = RefreshReport::default();
            for k in 1..=4u32 {
                let t = 1.6 * k as f64;
                dev.advance_time(t - dev.now());
                total.merge(&match threads {
                    None => scrubber.run_until(&dev, t),
                    Some(n) => scrubber.run_until_concurrent(&dev, t, n),
                });
            }
            assert_eq!(scrubber.completed(), 64);
            let blocks: Vec<usize> = (0..16).collect();
            let reads: Vec<Vec<u8>> = dev
                .read_batch(&blocks)
                .into_iter()
                .map(|r| r.unwrap().data)
                .collect();
            (total, reads, dev.stats(), dev.metrics().snapshot())
        };
        let reference = run(None);
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(run(Some(threads)), reference, "threads={threads}");
        }
    }

    #[test]
    fn split_cursors_resume_the_global_schedule() {
        let dev = builder().build_sharded().unwrap();
        let data = vec![0x91u8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1.6);
        // Stop mid-round: 0.65 s covers launches 1..=6 (step 0.1 s).
        dev.advance_time(0.65);
        let rep = scrubber.run_until(&dev, 0.65);
        assert_eq!(rep.blocks_refreshed, 6);
        // Split, advance each bank on its own, and fold back.
        let mut cursors = scrubber.bank_cursors();
        dev.advance_time(0.95);
        let mut rep = RefreshReport::default();
        for c in cursors.iter_mut().rev() {
            rep.merge(&c.run_until(&dev, 1.6));
        }
        assert_eq!(rep.blocks_refreshed, 10);
        scrubber.adopt_cursors(&cursors);
        assert_eq!(scrubber.completed(), 16);
        assert_eq!(dev.stats().refreshes, 16);
    }

    #[test]
    fn long_horizon_concurrent_count_is_exact() {
        let dev = builder().build_sharded().unwrap();
        let data = vec![0x5Eu8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 0.3);
        const INTERVALS: u64 = 200;
        let horizon = 0.3 * INTERVALS as f64;
        dev.advance_time(horizon);
        let rep = scrubber.run_until_concurrent(&dev, horizon, 4);
        assert_eq!(rep.blocks_refreshed, 16 * INTERVALS);
        assert_eq!(rep.failures, 0);
        assert_eq!(dev.stats().refreshes, 16 * INTERVALS);
    }

    fn four_level(naive: bool, blocks: usize, seed: u64) -> ShardedPcmDevice {
        let design = if naive {
            LevelDesign::four_level_naive()
        } else {
            pcm_core::optimize::four_level_optimal().clone()
        };
        DeviceBuilder::new()
            .organization(CellOrganization::FourLevel {
                design,
                smart: false,
            })
            .blocks(blocks)
            .banks(4)
            .seed(seed)
            .build_sharded()
            .unwrap()
    }

    #[test]
    fn covers_every_block_each_interval() {
        let dev = four_level(false, 16, 123);
        for b in 0..16 {
            dev.write_block(b, &[0x3C; 64]).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1024.0);
        dev.advance_time(1024.0);
        let rep = scrubber.run_until(&dev, 1024.0);
        // One interval covers each block exactly once — no t=0 extra.
        assert_eq!(rep.blocks_refreshed, 16, "{rep:?}");
        assert_eq!(rep.failures, 0);
    }

    #[test]
    fn split_inline_calls_keep_an_exact_count() {
        // interval / blocks = 0.01875 s is not representable in binary;
        // an accumulating schedule would drift over 40 split calls.
        let dev = four_level(false, 16, 123);
        for b in 0..16 {
            dev.write_block(b, &[0x2E; 64]).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 0.3);
        let mut total = 0u64;
        for k in 1..=40u64 {
            let t = 0.3 * k as f64;
            dev.advance_time(t - dev.now());
            total += scrubber.run_until(&dev, t).blocks_refreshed;
        }
        assert_eq!(total, 16 * 40);
        assert_eq!(scrubber.completed(), 16 * 40);
    }

    #[test]
    fn keeps_4lc_alive_over_many_intervals() {
        let dev = four_level(false, 8, 123);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for b in 0..8 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1024.0);
        // A simulated half-day in 17-minute steps.
        for k in 1..=42u32 {
            let t = 1024.0 * k as f64;
            dev.advance_time(1024.0);
            assert_eq!(scrubber.run_until(&dev, t).failures, 0, "at t={t}");
        }
        for b in 0..8 {
            assert_eq!(dev.read_block(b).unwrap().data, data, "block {b}");
        }
    }

    #[test]
    fn refresh_failures_are_reported_not_panicked() {
        let dev = four_level(true, 4, 9);
        for b in 0..4 {
            dev.write_block(b, &[0xE7; 64]).unwrap();
        }
        // Let the naive design rot for a day, then try to scrub.
        dev.advance_time(86_400.0);
        let rep = ShardedScrubber::new(&dev, 86_400.0).run_until(&dev, 86_400.0);
        assert!(
            rep.failures > 0,
            "scrubbing a rotten 4LCn device must fail: {rep:?}"
        );
    }
}
