//! The KV store at the paper's MLC endurance (`EnduranceModel::mlc()`,
//! median 1e5 cycles per cell).
//!
//! Setup: a 4096-block, 8-bank device (seed 7) under the default store
//! geometry, 1,024 keys rewritten round-robin with 100-byte (3-page)
//! values. A store with an on-device free list rewrote its superblock
//! twice per put and handed freed pages straight back out, so this
//! setup failed with `WearoutExhausted` after about 16.1k puts. With the
//! free set derived in memory and allocated next-fit, only directory
//! pages are rewritten in place, and wear spreads over every free page.
//!
//! Release only: 200,000 puts take tens of seconds there and far longer
//! in a debug build. Run it with
//! `cargo test --release --test store_endurance`.

use mlc_pcm::device::DeviceBuilder;
use mlc_pcm::store::workload::value_for;
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::wearout::fault::EnduranceModel;

const KEYS: u64 = 1024;
const VALUE_BYTES: usize = 100;
const PUTS: u64 = 200_000;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only")]
fn store_survives_200k_puts_at_mlc_endurance() {
    let dev = DeviceBuilder::new()
        .blocks(4096)
        .banks(8)
        .seed(7)
        .endurance(EnduranceModel::mlc())
        .build_sharded()
        .unwrap();
    let store = PcmStore::format(dev, StoreConfig::default()).unwrap();
    for i in 0..PUTS {
        if let Err(e) = store.put(i % KEYS, &value_for(i, VALUE_BYTES)) {
            panic!("put {i} of {PUTS} failed: {e}");
        }
    }
    // Key k was last written by put PUTS - KEYS + j, where that index is
    // congruent to k modulo KEYS.
    for i in PUTS - KEYS..PUTS {
        let key = i % KEYS;
        assert_eq!(
            store.get(key).unwrap(),
            Some(value_for(i, VALUE_BYTES)),
            "key {key}"
        );
    }
    let report = store.check();
    assert!(report.is_clean(), "{report:?}");
}
