//! Seeded durability property: random put/delete/clean/checkpoint interleavings
//! against a store raced by test-side cleaner threads, crashed and reopened through
//! the checkpoint journal several times per run. After every crash the recovered
//! store must match the model **byte-exactly** — every live page holds its newest
//! value, every deleted page stays dead (the cleaner's tombstone re-emission and the
//! checkpoint-covered drop proof both get exercised, because mid-run checkpoints
//! publish frontiers while cleaning is racing them).
//!
//! Runs with 1, 2 and 4 concurrent `clean_now` callers (test-side cleaner threads,
//! which serialise on the store's job lock) and per-count seeds derived from
//! `LSS_STRESS_SEED` (default 7700), so the CI stress loop explores a fresh
//! interleaving per iteration and any hit replays with
//! `LSS_STRESS_SEED=<seed> cargo test --release --test durability_property`.
//!
//! Two companions cover `flush` as a *persist point* (open segments written
//! incrementally, extent by extent, instead of sealed): a seeded sweep that kills the
//! device before, between and inside the ranged writes of random flush-heavy traces and
//! checks every flush that returned against a full-scan recovery, and a deterministic
//! scenario in which a recycled slot still holds stale extents of its previous
//! incarnation beyond the new chain.

mod common;

use common::{apply_env_concurrency, stress_seed_or, CleanerThreads, CrashPointDevice};
use lss::core::device::SegmentDevice;
use lss::core::policy::PolicyKind;
use lss::core::{LogStore, SegmentId, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn temp_journal(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lss-durability-{tag}-{}.ckpt", std::process::id()))
}

fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let len = len.max(16);
    let mut v = vec![(page ^ version) as u8; len];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// One seeded run: four crash generations, each a random interleaving of puts,
/// deletes, forced cleaning cycles and incremental checkpoints (on top of whatever
/// the cleaner threads do on their own), ending in flush + checkpoint + device kill.
/// Reopen goes through the journal and must reproduce the model byte-for-byte.
fn run_crash_generations(seed: u64, cleaners: usize) {
    let mut config =
        apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    config.num_segments = 96;
    println!(
        "durability property: seed={seed} cleaners={cleaners} write_streams={}",
        config.write_streams
    );
    let max_page = config.logical_pages_for_fill_factor(0.5) as u64;
    let max_len = config.page_bytes;
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let path = temp_journal(seed);
    std::fs::remove_file(&path).ok();

    let mut store =
        Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
    let mut cleaner_threads = CleanerThreads::spawn(&store, cleaners);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);

    for generation in 0..4u32 {
        for i in 0..1_200u64 {
            let roll = rng.gen_range(0..100u32);
            let page = rng.gen_range(0..max_page);
            if roll < 30 {
                store.delete(page).unwrap();
                model.remove(&page);
            } else if roll < 95 {
                let version = u64::from(generation) * 10_000 + i;
                let p = payload(page, version, rng.gen_range(16..=max_len));
                store.put(page, &p).unwrap();
                model.insert(page, p);
            } else if roll < 98 {
                store.clean_now().unwrap();
            } else {
                // A mid-run checkpoint: publishes a frontier the racing cleaners may
                // use to drop covered tombstones instead of re-emitting them.
                store.checkpoint_log_to(&path).unwrap();
            }
        }

        // The crash point: everything acknowledged durable, then the device dies
        // under whatever the cleaner threads still had in flight.
        store.flush().unwrap();
        store.checkpoint_log_to(&path).unwrap();
        device.kill();
        drop(cleaner_threads.stop(store)); // the process dies

        device.heal();
        let recovered =
            LogStore::recover_with_checkpoint(config.clone(), Box::new(device.clone()), &path)
                .unwrap_or_else(|e| {
                    panic!("seed {seed}, generation {generation}: reopen failed: {e}")
                });
        let ctx = format!("seed {seed}, generation {generation}");
        assert_eq!(
            recovered.live_pages(),
            model.len(),
            "{ctx}: live-page count diverged"
        );
        for p in 0..max_page {
            match model.get(&p) {
                Some(value) => assert_eq!(
                    recovered.get(p).unwrap().as_deref(),
                    Some(value.as_slice()),
                    "{ctx}: page {p} wrong after recovery"
                ),
                None => assert!(
                    recovered.get(p).unwrap().is_none(),
                    "{ctx}: page {p} resurrected after recovery"
                ),
            }
        }

        // The next generation continues on the recovered store: churn keeps
        // compounding across restarts, exactly like a long-lived deployment.
        store = Arc::new(recovered);
        cleaner_threads = CleanerThreads::spawn(&store, cleaners);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn random_interleavings_recover_exactly_at_every_crash() {
    let base = stress_seed_or(7700);
    for &cleaners in &[1usize, 2, 4] {
        run_crash_generations(base + cleaners as u64, cleaners);
    }
}

/// One step of a flush-heavy trace.
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Flush,
}

/// A seeded trace over a small page range: overwrites and deletes so the cleaner
/// recycles slots (leaving stale extents behind the new chains), and a flush every few
/// operations so most segments are persisted in many small extents before they fill.
fn flush_heavy_trace(seed: u64, pages: u64, max_len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for i in 0..700u64 {
        let page = rng.gen_range(0..pages);
        match rng.gen_range(0..100u32) {
            0..=19 => ops.push(Op::Delete(page)),
            20..=84 => ops.push(Op::Put(page, payload(page, i, rng.gen_range(16..=max_len)))),
            _ => ops.push(Op::Flush),
        }
    }
    ops.push(Op::Flush);
    ops
}

/// Apply `ops` until the first error (the crash). Returns, per page, every state the
/// page may legitimately be in after recovery: the state the last flush that returned
/// vouched for, or any later one (an unacknowledged write may or may not survive).
fn run_until_crash(store: &LogStore, ops: &[Op], pages: u64) -> Vec<HashSet<Option<Vec<u8>>>> {
    let mut current: Vec<Option<Vec<u8>>> = vec![None; pages as usize];
    let mut allowed: Vec<HashSet<Option<Vec<u8>>>> = vec![HashSet::from([None]); pages as usize];
    for op in ops {
        let done = match op {
            Op::Put(page, data) => {
                current[*page as usize] = Some(data.clone());
                allowed[*page as usize].insert(Some(data.clone()));
                store.put(*page, data)
            }
            Op::Delete(page) => {
                current[*page as usize] = None;
                allowed[*page as usize].insert(None);
                store.delete(*page)
            }
            Op::Flush => store.flush().map(|()| {
                // Acknowledged: nothing older than the current state may come back.
                for (states, now) in allowed.iter_mut().zip(&current) {
                    *states = HashSet::from([now.clone()]);
                }
            }),
        };
        if done.is_err() {
            break;
        }
    }
    allowed
}

/// Every flush that returned survives a crash at every ranged-write boundary — before
/// a persist point, between its payload and extent writes, and inside either (a torn
/// last extent is dropped whole) — and recovery is byte-exact: each page holds the
/// state its last acknowledged flush vouched for or a later one, never an older
/// version, never a resurrected delete, never bytes of a stale extent.
#[test]
fn every_returned_flush_survives_a_crash_at_every_ranged_write_boundary() {
    let seed = stress_seed_or(7700) + 50;
    let mut config =
        apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy));
    config.num_segments = 24;
    let pages = config.logical_pages_for_fill_factor(0.3) as u64;
    let ops = flush_heavy_trace(seed, pages, config.page_bytes);
    println!(
        "persist-point crash sweep: seed={seed} write_streams={} pages={pages}",
        config.write_streams
    );

    // Healthy dry run: how many device writes the trace issues, and proof that it
    // exercises what the sweep is about.
    let total_writes = {
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        run_until_crash(&store, &ops, pages);
        let stats = store.stats();
        assert!(
            stats.persist_points > 50,
            "trace must persist open segments"
        );
        assert!(stats.segments_cleaned > 0, "trace must recycle slots");
        device.writes()
    };

    // Every boundary near the start, a stride further in (seeded offset, so the CI
    // stress loop walks different boundaries each iteration), each with four tears.
    let stride = 7;
    let crash_points = (0..total_writes).filter(|n| *n < 40 || (n + seed).is_multiple_of(stride));
    for n in crash_points {
        for torn in [0u64, 30, 130, 600] {
            let ctx =
                format!("seed {seed}: crash after {n}/{total_writes} writes + {torn} torn bytes");
            let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
            let store =
                LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
            device.fail_after_torn(n, torn);
            let allowed = run_until_crash(&store, &ops, pages);
            device.kill();
            drop(store);

            device.heal();
            let recovered = LogStore::recover_with_device(config.clone(), Box::new(device.clone()))
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            for page in 0..pages {
                let got = recovered.get(page).unwrap().map(|b| b.to_vec());
                assert!(
                    allowed[page as usize].contains(&got),
                    "{ctx}: page {page} recovered as {:?}, which no flush vouched for and nothing later wrote",
                    got.as_ref().map(|v| &v[..16])
                );
            }
            // Life goes on: the recovered store accepts writes and persists them.
            recovered.put(0, b"after the crash!").unwrap();
            recovered.flush().unwrap();
            let again =
                LogStore::recover_with_device(config.clone(), recovered.into_device()).unwrap();
            assert_eq!(
                again.get(0).unwrap().as_deref(),
                Some(&b"after the crash!"[..]),
                "{ctx}: post-recovery flush lost"
            );
        }
    }
}

/// A recycled slot keeps the bytes of its previous incarnation wherever the new one
/// has not written yet — including whole, individually valid extents beyond the new
/// chain. They must never be replayed: here the stale extent holds the only surviving
/// copy of a page whose delete was dropped as checkpoint-covered, so replaying it
/// would resurrect the page.
#[test]
fn stale_extents_beyond_a_recycled_slots_chain_are_never_replayed() {
    let config = StoreConfig::small_for_tests()
        .with_policy(PolicyKind::Greedy)
        .with_write_streams(1);
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let path = temp_journal(0x57a1e);
    std::fs::remove_file(&path).ok();
    let filler = |version: u64| payload(0, version, config.page_bytes);

    // Incarnation A of the first slot: three persist points, the doomed page in the
    // second extent, then filler until the segment is full and sealed.
    store.put(1, &filler(1)).unwrap();
    store.flush().unwrap();
    store.put(666, b"must stay deleted").unwrap();
    store.flush().unwrap();
    store.put(2, &filler(2)).unwrap();
    store.flush().unwrap();
    let mut version = 3;
    while store.stats().segments_sealed == 0 {
        store.put(version, &filler(version)).unwrap();
        version += 1;
    }
    // Kill everything in it: the delete, and overwrites of every other page.
    store.delete(666).unwrap();
    for page in 1..version {
        store.put(page, &filler(100 + page)).unwrap();
    }
    // The checkpoint covers the tombstone (so cleaning may drop it) and seals the
    // rest; cleaning then frees the fully dead first slot, and the sync point of the
    // next flush makes it allocatable again.
    store.checkpoint_log_to(&path).unwrap();
    let free_before = store.free_segments();
    while store.free_segments() <= free_before {
        assert!(
            !store.clean_now().unwrap().victims.is_empty(),
            "nothing left to clean"
        );
        store.flush().unwrap();
    }

    // Keep writing small persist points until the first slot is handed out again:
    // incarnation B. Only the two ranges of its first extent reach the device; behind
    // them the slot still holds A's second and third extents, intact.
    let old_image = device.read_segment(SegmentId(0)).unwrap();
    let mut fresh_pages = Vec::new();
    loop {
        let page = 7000 + fresh_pages.len() as u64;
        store.put(page, b"fresh").unwrap();
        store.flush().unwrap();
        fresh_pages.push(page);
        let image = device.read_segment(SegmentId(0)).unwrap();
        if image[..512] != old_image[..512] {
            assert_eq!(
                image[512..2048],
                old_image[512..2048],
                "A's later extents are gone"
            );
            break;
        }
        assert!(fresh_pages.len() < 500, "the freed slot was never reused");
    }
    device.kill();
    drop(store);

    device.heal();
    let recovered =
        LogStore::recover_with_checkpoint(config.clone(), Box::new(device.clone()), &path).unwrap();
    assert!(
        recovered.get(666).unwrap().is_none(),
        "a stale extent of the slot's previous incarnation was replayed"
    );
    for page in &fresh_pages {
        assert_eq!(
            recovered.get(*page).unwrap().as_deref(),
            Some(&b"fresh"[..])
        );
    }
    for page in 1..version {
        assert_eq!(
            recovered.get(page).unwrap().as_deref(),
            Some(&filler(100 + page)[..]),
            "page {page}"
        );
    }
    assert_eq!(
        recovered.live_pages(),
        version as usize - 1 + fresh_pages.len()
    );
    std::fs::remove_file(&path).ok();
}
