//! The telemetry determinism oracle.
//!
//! The `pcm-telemetry` contract mirrors the tracing one: per-bank
//! counters are a pure function of that bank's operation order, samples
//! are claimed on integer model-time ticks, and the sampling points are
//! quiesced `advance_time` calls — so a run at any thread count must
//! export *byte-identical* series JSONL for a fixed seed, pinned by
//! length and digest. And because the recorder only
//! observes, a telemetry-enabled device must walk the exact trajectory
//! of a telemetry-free one.

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::params::REFRESH_17MIN_SECS;
use mlc_pcm::device::{
    BankScrubCursor, CellOrganization, DeviceBuilder, DriftRiskConfig, ShardedScrubber,
    TelemetryConfig,
};
use mlc_pcm::store::workload::{run_phased, PhasedConfig, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::telemetry::RiskState;

const BLOCKS: usize = 16;
const BANKS: usize = 4;
const ROUND: f64 = 1.6; // step lands on exact ns boundaries
const SAMPLE_NS: u64 = 400_000_000; // four telemetry ticks per round
const ROUNDS: usize = 3;

fn builder(seed: u64) -> DeviceBuilder {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .telemetry(TelemetryConfig::new(SAMPLE_NS).with_capacity(64))
}

fn payload(b: usize) -> Vec<u8> {
    vec![b as u8 ^ 0xA5; 64]
}

/// A fixed demand-op schedule: `(block, is_write)` per round, the same
/// list every run (the oracle compares thread counts, not workloads).
fn rounds() -> Vec<Vec<(usize, bool)>> {
    (0..ROUNDS)
        .map(|k| {
            (0..10)
                .map(|i| (((k * 7 + i * 3) % BLOCKS), i % 3 == 0))
                .collect()
        })
        .collect()
}

/// The run at `threads` threads: preload, then per round advance +
/// scrub + demand ops, banks partitioned over scoped threads, telemetry
/// sampled only from the quiesced `advance_time` boundary.
fn sharded_series(seed: u64, threads: usize) -> String {
    let dev = builder(seed).build_sharded().unwrap();
    for b in 0..BLOCKS {
        dev.write_block(b, &payload(b)).unwrap();
    }
    let mut scrubber = ShardedScrubber::new(&dev, ROUND);
    for (k, ops) in rounds().iter().enumerate() {
        let t = ROUND * (k + 1) as f64;
        dev.advance_time(t - dev.now());
        let mut cursors = scrubber.bank_cursors();
        std::thread::scope(|scope| {
            let mut groups: Vec<Vec<&mut BankScrubCursor>> =
                (0..threads).map(|_| Vec::new()).collect();
            for cursor in cursors.iter_mut() {
                groups[cursor.bank() % threads].push(cursor);
            }
            for group in groups {
                let dev = &dev;
                scope.spawn(move || {
                    let mut session = dev.session();
                    let mut owned = Vec::new();
                    for cursor in group {
                        cursor.run_until(dev, t);
                        owned.push(cursor.bank());
                    }
                    for &(block, is_write) in ops {
                        if !owned.contains(&(block % BANKS)) {
                            continue;
                        }
                        if is_write {
                            session.write_block(block, &payload(block)).unwrap();
                        } else {
                            session.read_block(block).unwrap();
                        }
                    }
                });
            }
        });
        scrubber.adopt_cursors(&cursors);
    }
    dev.telemetry().unwrap().snapshot().to_jsonl()
}

#[test]
fn series_jsonl_is_byte_identical_across_engines_and_thread_counts() {
    let want = sharded_series(77, 1);
    assert!(
        want.lines().count() > 1 + BANKS,
        "reference run must retain sample points:\n{want}"
    );
    // A fixed seed re-run is byte-identical, and pinned absolutely…
    assert_eq!(sharded_series(77, 1), want, "single-thread run not stable");
    assert_eq!((want.len(), fnv1a64(&want)), (10544, 0x9f37_23c2_345a_afbd));
    // …and so is every thread count.
    for threads in [2usize, 8] {
        assert_eq!(
            sharded_series(77, threads),
            want,
            "series diverge at threads={threads}"
        );
    }
    // The export round-trips through the parser bit-for-bit.
    let parsed = mlc_pcm::telemetry::parse(&want).unwrap();
    assert_eq!(parsed.per_bank.len(), BANKS);
    assert_eq!(parsed.to_jsonl(), want);
}

#[test]
fn telemetry_does_not_perturb_device_results() {
    // A telemetry-enabled device and a bare one walk identical
    // trajectories: the recorder observes, it never participates.
    let run = |enabled: bool| {
        let b = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(BLOCKS)
            .banks(BANKS)
            .seed(5);
        let b = if enabled {
            b.telemetry(TelemetryConfig::new(SAMPLE_NS))
        } else {
            b
        };
        let dev = b.build_sharded().unwrap();
        for blk in 0..BLOCKS {
            dev.write_block(blk, &payload(blk)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, ROUND);
        dev.advance_time(2.0 * ROUND);
        scrubber.run_until(&dev, 2.0 * ROUND);
        let data: Vec<Vec<u8>> = (0..BLOCKS)
            .map(|blk| dev.read_block(blk).unwrap().data)
            .collect();
        (data, dev.bank_stats(), dev.metrics().snapshot())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn obs_report_renders_risk_states_from_a_store_workload() {
    // The end-to-end sensing path the adaptive-scrub controller will
    // sit on: a real KV workload on a drift-prone 4LC store, phased so
    // model time (and drift) accrues between op slices, scrub correcting
    // drifted cells as it goes. The corrected-symbol flow must push the
    // risk estimator off Healthy, and `obs-report`'s analyzer must
    // render the per-bank risk states from the exported series.
    let store_cfg = StoreConfig {
        dir_buckets: 16,
        stripes: 4,
    };
    let cfg = WorkloadConfig {
        seed: 9,
        actors: 4,
        keys_per_actor: 32,
        ops_per_actor: 200,
        ..WorkloadConfig::default()
    };
    let banks = BANKS;
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(banks) * banks;
    let interval_ns = (REFRESH_17MIN_SECS * 1e9) as u64; // exact: 1024 s
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: mlc_pcm::core::optimize::four_level_optimal().clone(),
            smart: true,
        })
        .blocks(blocks)
        .banks(banks)
        .seed(9)
        .telemetry(
            TelemetryConfig::new(interval_ns).with_risk(DriftRiskConfig {
                budget_per_interval: 4,
                ewma_shift: 1,
                elevated_permille: 100,
                critical_permille: 800,
            }),
        )
        .build_sharded()
        .unwrap();
    let store = PcmStore::format(dev, store_cfg).unwrap();
    let phased = PhasedConfig {
        phases: 4,
        advance_secs: REFRESH_17MIN_SECS,
        scrub_interval_secs: Some(REFRESH_17MIN_SECS),
    };
    let report = run_phased(&store, &cfg, &phased, 2).unwrap();
    assert_eq!(report.totals.mismatches, 0, "store integrity");

    let snap = store.device().telemetry().unwrap().snapshot();
    let corrected: u64 = snap
        .per_bank
        .iter()
        .flat_map(|b| b.points.iter())
        .map(|p| p.corrected_symbols)
        .sum();
    assert!(corrected > 0, "4LC drift must exercise the ECC path");
    assert!(
        snap.per_bank.iter().any(|b| b.risk != RiskState::Healthy),
        "corrected-symbol flow must move some bank off Healthy"
    );

    let doc = snap.to_jsonl();
    let obs = mlc_pcm::telemetry::report::analyze_str(&doc, banks).unwrap();
    let text = obs.render_text();
    assert!(
        text.contains("top risk banks"),
        "risk table missing:\n{text}"
    );
    assert!(
        text.contains("elevated") || text.contains("critical"),
        "non-healthy risk state must be rendered:\n{text}"
    );
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning exported bytes.
fn fnv1a64(doc: &str) -> u64 {
    doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
