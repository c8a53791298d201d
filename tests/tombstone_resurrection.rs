//! Permanent regression tests for the tombstone-resurrection bug.
//!
//! The original failure (stress seed 9003): the cleaner dropped a victim's tombstone
//! while an older copy of the deleted page still sat in a lower-seal-seq segment.
//! Scan recovery's newest-`(write_seq, seal_seq)` rule then revived the page from the
//! stale copy — a delete acknowledged and flushed before the crash was undone by it.
//! The fix makes the cleaner re-emit every not-provably-redundant tombstone into its
//! GC output streams (see `store::gc_driver`, phase 3a'), so the delete fact always
//! outlives the victim slot's reuse.
//!
//! Seed 9003 is pinned here forever; the CI stress loop varies the base seed per
//! iteration via `LSS_STRESS_SEED`, so this binary doubles as the replay entry point
//! for any future stress hit (`LSS_STRESS_SEED=<seed> cargo test --release --test
//! tombstone_resurrection`).

use lss::core::policy::PolicyKind;
use lss::core::{LogStore, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

mod common;
use common::CleanerThreads;

/// The seed that originally exposed the resurrection.
const REGRESSION_SEED: u64 = 9003;

fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let len = len.max(16);
    let mut v = vec![(page ^ version) as u8; len];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// Delete-heavy seeded workload against a store raced by [`CleanerThreads`], then
/// full-scan recovery; every delete must stay dead and every live page must come
/// back byte-exact. Delete-heavy on purpose: a high tombstone density maximises the
/// chance that cleaning cycles relocate (and, pre-fix, dropped) delete facts while
/// older copies of the pages are still on the device.
fn run_delete_heavy_model(seed: u64, cleaner_threads: usize) {
    let mut config = common::apply_env_concurrency(
        StoreConfig::small_for_tests()
            .with_policy(PolicyKind::Mdc)
            .with_cleaner_threads(cleaner_threads),
    );
    config.num_segments = 96;
    println!(
        "tombstone-resurrection model: seed={seed} cleaner_threads={} write_streams={}",
        config.cleaner_threads, config.write_streams
    );
    let max_page = config.logical_pages_for_fill_factor(0.5) as u64;
    let max_len = config.page_bytes;
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let cleaners = CleanerThreads::spawn(&store);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut deleted_ever: HashSet<u64> = HashSet::new();

    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..4_000u64 {
        let page = rng.gen_range(0..max_page);
        // 2-in-5 deletes keep a dense tombstone population in flight.
        if rng.gen_range(0..5u32) < 2 {
            store.delete(page).unwrap();
            model.remove(&page);
            deleted_ever.insert(page);
        } else {
            let p = payload(page, i, rng.gen_range(16..=max_len));
            store.put(page, &p).unwrap();
            model.insert(page, p);
        }
    }
    store.flush().unwrap();

    let inner = cleaners.stop(store);
    let recovered = LogStore::recover_with_device(config, inner.into_device()).unwrap();
    for (&page, value) in &model {
        assert_eq!(
            recovered.get(page).unwrap().as_deref(),
            Some(value.as_slice()),
            "seed {seed}: page {page} wrong after recovery"
        );
    }
    for page in 0..max_page {
        if !model.contains_key(&page) {
            assert!(
                recovered.get(page).unwrap().is_none(),
                "seed {seed}: page {page} resurrected after recovery (deleted_ever: {})",
                deleted_ever.contains(&page)
            );
        }
    }
    assert_eq!(
        recovered.live_pages(),
        model.len(),
        "seed {seed}: recovered live-page count diverged"
    );
}

/// The pinned seed-9003 regression, at the `cleaner_threads` values the original
/// failure needed.
/// `LSS_STRESS_SEED` overrides the base seed so the CI stress loop keeps exploring.
#[test]
fn seed_9003_deletes_stay_dead_across_recovery() {
    let base = common::stress_seed_or(REGRESSION_SEED);
    for &cleaner_threads in &[1usize, 4] {
        run_delete_heavy_model(base + cleaner_threads as u64 - 1, cleaner_threads);
    }
}

/// Deterministic single-threaded reproduction of the original mechanism: an old copy
/// of a page survives in an early segment, the page is deleted, and the tombstone's
/// segment is then cleaned and its slot reused. Pre-fix, the re-used slot no longer
/// carried the delete fact and scan recovery revived the page from the old copy.
#[test]
fn cleaned_tombstone_segment_cannot_resurrect_page() {
    let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let len = config.page_bytes;
    let pages = config.logical_pages_for_fill_factor(0.4) as u64;

    // Old copies of every page land in the early segments.
    for p in 0..pages {
        store.put(p, &payload(p, 0, len)).unwrap();
    }
    store.flush().unwrap();

    // Delete a stripe; the tombstones land in later segments than the copies above.
    for p in (0..pages).step_by(3) {
        store.delete(p).unwrap();
    }
    store.flush().unwrap();

    // Churn the survivors so cleaning has victims on both sides of the tombstones,
    // then force cycles until the cleaner has relocated through the tombstone
    // segments (segments_cleaned keeps growing while there is anything worth moving).
    for round in 1..=6u64 {
        for p in 0..pages {
            if p % 3 != 0 {
                store.put(p, &payload(p, round, len)).unwrap();
            }
        }
        store.flush().unwrap();
        store.clean_now().unwrap();
    }
    assert!(
        store.stats().segments_cleaned > 0,
        "test must actually exercise the cleaner"
    );
    store.flush().unwrap();

    let recovered = LogStore::recover_with_device(config, store.into_device()).unwrap();
    for p in (0..pages).step_by(3) {
        assert!(
            recovered.get(p).unwrap().is_none(),
            "deleted page {p} resurrected after cleaning + scan recovery"
        );
    }
    for p in 0..pages {
        if p % 3 != 0 {
            assert_eq!(
                recovered.get(p).unwrap().as_deref(),
                Some(payload(p, 6, len).as_slice()),
                "surviving page {p} lost its newest version"
            );
        }
    }
}
