//! Corruption-safety and allocator-soundness properties of the store.
//!
//! 1. A store reopened over a device with injected bit errors either
//!    returns the correct value or a typed `CorruptPage` error — it
//!    never silently returns wrong bytes (the page CRC sits above the
//!    block stack's ECC precisely for errors that slip through).
//! 2. One corrupt data page costs only its own key: `open` quarantines
//!    it and every other key still reads its exact bytes.
//! 3. The allocator never hands the same page to two chains, no matter
//!    how many concurrent sessions hammer put/delete: `check()` finds
//!    no page reached twice and a free set equal to the unreachable
//!    pages.

use mlc_pcm::device::{DeviceBuilder, ShardedPcmDevice};
use mlc_pcm::store::workload::value_for;
use mlc_pcm::store::{Page, PageDefect, PageType, PcmStore, StoreConfig, StoreError, NO_PAGE};
use proptest::prelude::*;

const BLOCKS: usize = 256;
const BANKS: usize = 4;

fn device(seed: u64) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .build_sharded()
        .unwrap()
}

fn preload(store: &PcmStore, keys: u64, value_bytes: usize) {
    for k in 0..keys {
        store.put(k, &value_for(k, value_bytes)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flip one bit anywhere on the device, reopen, and read every key:
    /// each get must yield the original bytes or a typed store error.
    #[test]
    fn injected_bit_errors_never_yield_wrong_values(
        seed in 0u64..8,
        keys in 4u64..20,
        target in 0usize..BLOCKS,
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let value_bytes = 70; // two pages per value
        let dev = device(seed);
        let store = PcmStore::format(dev, StoreConfig { dir_buckets: 8, stripes: 4 }).unwrap();
        preload(&store, keys, value_bytes);

        // Inject: a post-ECC single-bit error on one stored page.
        let dev = store.into_device();
        let mut raw = dev.read_block(target).unwrap().data;
        raw[byte] ^= 1 << bit;
        dev.write_block(target, &raw).unwrap();

        match PcmStore::open(dev) {
            // Superblock corruption: a typed error at open, never a
            // store that serves garbage.
            Err(StoreError::CorruptPage { page, .. }) => prop_assert_eq!(page, target as u32),
            Err(StoreError::BadVersion(_)) => prop_assert_eq!(target, 0),
            Err(e) => panic!("unexpected open error {e}"),
            Ok(reopened) => {
                for k in 0..keys {
                    match reopened.get(k) {
                        Ok(Some(v)) => prop_assert_eq!(
                            v,
                            value_for(k, value_bytes),
                            "key {} returned wrong bytes",
                            k
                        ),
                        Ok(None) => panic!("preloaded key {k} vanished without an error"),
                        Err(StoreError::CorruptPage { .. }) => {} // typed, expected
                        Err(e) => panic!("untyped failure: {e}"),
                    }
                }
            }
        }
    }
}

/// Flip one bit in the middle page of one key's three-page chain and
/// reopen: `open` succeeds, the damaged key reports `CorruptPage`, and
/// every other key reads its exact bytes, before and after more puts
/// that may reuse the now-unreachable tail page.
#[test]
fn a_corrupt_data_page_fails_only_its_own_key() {
    let (keys, value_bytes, victim) = (12u64, 100, 5u64);
    let store = PcmStore::format(
        device(3),
        StoreConfig {
            dir_buckets: 8,
            stripes: 4,
        },
    )
    .unwrap();
    preload(&store, keys, value_bytes);
    let dev = store.into_device();
    let victim_pages: Vec<(usize, Page)> = (0..BLOCKS)
        .filter_map(|b| {
            let page = Page::decode(&dev.read_block(b).ok()?.data).ok()?;
            (page.page_type == PageType::Data && page.key == victim).then_some((b, page))
        })
        .collect();
    assert_eq!(victim_pages.len(), 3);
    // The middle page is linked from the head and links to the tail.
    let (middle, tail) = victim_pages
        .iter()
        .find(|(b, p)| p.next != NO_PAGE && victim_pages.iter().any(|(_, q)| q.next == *b as u32))
        .map(|(b, p)| (*b, p.next as usize))
        .unwrap();
    let mut raw = dev.read_block(middle).unwrap().data;
    raw[30] ^= 0x10;
    dev.write_block(middle, &raw).unwrap();

    let store = PcmStore::open(dev).unwrap();
    let report = store.check();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert_eq!(report.quarantined[0].0, middle as u32);
    let read_all = |store: &PcmStore| {
        for k in 0..keys {
            match store.get(k) {
                Ok(Some(v)) if k != victim => assert_eq!(v, value_for(k, value_bytes), "key {k}"),
                Err(StoreError::CorruptPage { page, defect }) if k == victim => {
                    assert_eq!((page, defect), (middle as u32, PageDefect::BadCrc))
                }
                other => panic!("key {k}: {other:?}"),
            }
        }
    };
    read_all(&store);
    // The damaged chain's tail is unreachable, so it is free: rewrite
    // every other key until next-fit has wrapped round the device and
    // handed the tail out again, then read everything again.
    for round in 0..8 {
        for k in (0..keys).filter(|&k| k != victim) {
            store.put(k, &value_for(k, value_bytes)).unwrap();
        }
        assert_eq!(store.check().quarantined.len(), 1, "round {round}");
    }
    let reused = Page::decode(&store.device().read_block(tail).unwrap().data).unwrap();
    assert_ne!(reused.key, victim, "tail page {tail} was never reused");
    read_all(&store);
}

/// Concurrent put/delete churn from 1, 2, and 8 sessions: afterwards
/// `check()` must find every page reached at most once, no page shared
/// by two chains, and an allocator free set equal to all pages − fixed −
/// reachable; every surviving key must read back exactly its own bytes
/// (a double allocation would splice one key's page into another's
/// chain, which the per-page key field and CRC would expose).
#[test]
fn pages_are_never_double_allocated_under_concurrency() {
    for sessions in [1usize, 2, 8] {
        let dev = device(11 + sessions as u64);
        let store = PcmStore::format(
            dev,
            StoreConfig {
                dir_buckets: 8,
                stripes: 4,
            },
        )
        .unwrap();
        let keys_per_session = 6u64;
        let rounds = 25u64;

        std::thread::scope(|s| {
            for t in 0..sessions {
                let store = &store;
                s.spawn(move || {
                    let base = t as u64 * keys_per_session;
                    for round in 0..rounds {
                        for k in base..base + keys_per_session {
                            // Vary value size so chains grow and shrink,
                            // forcing constant allocator traffic.
                            let len = 20 + ((k + round) % 3) as usize * 44;
                            store.put(k, &value_for(k ^ round, len)).unwrap();
                            if (k + round) % 3 == 0 {
                                store.delete(k).unwrap();
                            }
                        }
                    }
                });
            }
        });

        let report = store.check();
        assert!(report.is_clean(), "{sessions} sessions: {report:?}");
        assert_eq!(report.allocator_free, store.free_pages());
        // Every key that survived the final round reads back its exact
        // final bytes; a cross-linked chain could not do this.
        let last = rounds - 1;
        for t in 0..sessions as u64 {
            for k in t * keys_per_session..(t + 1) * keys_per_session {
                let len = 20 + ((k + last) % 3) as usize * 44;
                match store.get(k).unwrap() {
                    Some(v) => {
                        assert!(
                            !(k + last).is_multiple_of(3),
                            "deleted key {k} still present"
                        );
                        assert_eq!(v, value_for(k ^ last, len), "key {k} cross-linked");
                    }
                    None => assert!((k + last).is_multiple_of(3), "live key {k} lost"),
                }
            }
        }
        // Nothing free is reachable as live data: the fixed pages
        // (superblock and buckets 1..=8) are never free.
        assert_eq!(report.fixed, 1 + store.dir_buckets());
        assert_eq!(
            report.allocator_free,
            BLOCKS as u32 - report.fixed - report.reachable
        );
    }
}
