//! Crash matrix for the paged KV layer: the device dies at **every possible
//! device-write boundary** of the superblock commit protocol — before barrier 1 (dirty
//! index pages), between the barriers, during the superblock flip itself and after it —
//! and reopen must always recover exactly a committed index: every key maps to its
//! committed value, deleted keys stay deleted, and no partial tree page is reachable.
//!
//! The sweep works by counting device writes with the shared
//! [`common::CrashPointDevice`]: each iteration rebuilds the same deterministic store,
//! allows `n` more writes, and kills the device; `n` ranges over one more than the
//! healthy protocol needs, so every boundary (including "never started" and "fully
//! finished") is hit. A commit persists open segments incrementally — per barrier and
//! segment, the new payloads and then the extent that references them — and every one
//! of those ranged writes is a boundary of its own; each is additionally crashed
//! *inside* (only a prefix of its bytes lands: a torn payload block, a torn extent
//! header, a torn entry table), which recovery must treat as "that persist point never
//! happened".

mod common;

use common::{apply_env_concurrency, CrashPointDevice};
use lss::btree::kv::KvStore;
use lss::core::policy::PolicyKind;
use lss::core::{LogStore, StoreConfig};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.num_segments = 192;
    c
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

/// The committed phase: a mixed load with overwrites and deletions.
fn phase1(kv: &KvStore, model: &mut Model) {
    for i in 0..150u32 {
        let v = format!("p1-{i}").into_bytes();
        kv.put(&key(i), &v).unwrap();
        model.insert(key(i), v);
    }
    for i in (0..150u32).step_by(11) {
        kv.delete(&key(i)).unwrap();
        model.remove(&key(i));
    }
}

/// The epoch the crash interrupts: overwrites, fresh keys, deletions.
fn phase2(kv: &KvStore, model: &mut Model) {
    for i in (0..150u32).step_by(3) {
        let v = format!("p2-{i}").into_bytes();
        kv.put(&key(i), &v).unwrap();
        model.insert(key(i), v);
    }
    for i in 150..190u32 {
        let v = format!("p2-new-{i}").into_bytes();
        kv.put(&key(i), &v).unwrap();
        model.insert(key(i), v);
    }
    for i in (1..150u32).step_by(17) {
        kv.delete(&key(i)).unwrap();
        model.remove(&key(i));
    }
}

/// Full-state equality: key count, an exhaustive ordered scan, and point reads for
/// every key either model ever held (so resurrections of deleted keys are caught too).
fn matches_model(kv: &KvStore, model: &Model) -> bool {
    if kv.len() != model.len() {
        return false;
    }
    let scanned = kv.range(b"", b"~~~~~~~~~~").unwrap();
    if scanned.len() != model.len() {
        return false;
    }
    for ((sk, sv), (mk, mv)) in scanned.iter().zip(model.iter()) {
        if sk != mk || sv.as_ref() != mv.as_slice() {
            return false;
        }
    }
    for i in 0..200u32 {
        let got = kv.get(&key(i)).unwrap();
        if got.as_deref() != model.get(&key(i)).map(|v| v.as_slice()) {
            return false;
        }
    }
    true
}

fn assert_matches(kv: &KvStore, model: &Model, ctx: &str) {
    assert_eq!(kv.len(), model.len(), "{ctx}: key count");
    assert!(
        matches_model(kv, model),
        "{ctx}: contents diverge from model"
    );
}

/// How much of the write the device dies in still lands: nothing, part of an extent
/// header, a header plus part of its entry table, and more than a whole sector.
const TORN_PREFIXES: [u64; 4] = [0, 20, 100, 700];

/// One crash-matrix iteration: commit phase 1, run phase 2, let the committing flush
/// die after `budget` more device writes — the first `torn` bytes of the next one still
/// land — and reopen from the surviving image. Returns whether the flush reported
/// success, the reopened store, and both models.
fn run_with_crash_at(budget: u64, torn: u64) -> (bool, KvStore, Model, Model) {
    let config = config();
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let kv = KvStore::open(store).unwrap();

    let mut model1 = Model::new();
    phase1(&kv, &mut model1);
    kv.flush().unwrap(); // the committed epoch

    let mut model2 = model1.clone();
    phase2(&kv, &mut model2);

    device.fail_after_torn(budget, torn);
    let flushed = kv.flush();
    device.kill();
    drop(kv.into_inner()); // the "process" dies; only the device image survives

    device.heal();
    let recovered = LogStore::recover_with_device(config, Box::new(device.clone())).unwrap();
    let kv = KvStore::open(recovered).expect("reopen after crash must always succeed");
    (flushed.is_ok(), kv, model1, model2)
}

/// Kill the device at every write boundary of the commit protocol. Reopen must yield
/// exactly the pre-crash committed state or exactly the new epoch — never a blend, a
/// loss, or a partially visible tree.
#[test]
fn superblock_flip_crash_matrix_recovers_a_committed_index() {
    // Dry run: how many device writes does a healthy phase-2 commit need?
    let healthy_writes = {
        let config = config();
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = KvStore::open(store).unwrap();
        let mut m = Model::new();
        phase1(&kv, &mut m);
        kv.flush().unwrap();
        phase2(&kv, &mut m);
        let before = device.writes();
        kv.flush().unwrap();
        device.writes() - before
    };
    assert!(
        healthy_writes >= 2,
        "the two-barrier protocol must take at least two device writes, saw {healthy_writes}"
    );

    let mut old_epoch_outcomes = 0u32;
    let mut new_epoch_outcomes = 0u32;
    let crash_points = (0..=healthy_writes).flat_map(|b| TORN_PREFIXES.map(|t| (b, t)));
    for (budget, torn) in crash_points {
        let (flush_ok, kv, model1, model2) = run_with_crash_at(budget, torn);
        let ctx = format!("crash after {budget}/{healthy_writes} writes + {torn} torn bytes");
        if flush_ok {
            // The flush returned success, so the new epoch must be fully there.
            assert_matches(&kv, &model2, &ctx);
            new_epoch_outcomes += 1;
        } else {
            // The flush died: either epoch may have won (the flip may or may not have
            // reached the medium before the failure surfaced), but it must be exactly
            // one of them.
            let is_old = matches_model(&kv, &model1);
            let is_new = matches_model(&kv, &model2);
            assert!(
                is_old ^ is_new,
                "{ctx}: recovered state is {} (old={is_old}, new={is_new})",
                if is_old && is_new {
                    "ambiguous"
                } else {
                    "neither committed epoch"
                },
            );
            if is_old {
                old_epoch_outcomes += 1;
            } else {
                new_epoch_outcomes += 1;
            }
        }
        // Life goes on after recovery: a fresh epoch commits and survives a restart.
        kv.put(b"post-crash", b"alive").unwrap();
        kv.flush().unwrap();
        let store = kv.into_inner();
        let cfg = store.config().clone();
        let reopened =
            KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap())
                .unwrap();
        assert_eq!(
            reopened.get(b"post-crash").unwrap().unwrap().as_ref(),
            b"alive",
            "{ctx}: post-recovery commit lost"
        );
    }
    // The sweep must actually have covered both sides of the flip.
    assert!(
        old_epoch_outcomes > 0,
        "no crash point recovered the old epoch — the sweep missed the pre-flip window"
    );
    assert!(
        new_epoch_outcomes > 0,
        "no crash point recovered the new epoch — the sweep missed the post-flip window"
    );
}

/// Concurrent writers racing the committing flush, then a crash: the committed index
/// must never reference a value page the flush's post-commit release reclaimed.
///
/// Regression test for a real race: `flush` used to drain the user `freed_epoch` list
/// *after* the checkpoint guard released the tree latch, so a put that slipped into
/// that window could queue a page the just-committed superblock still mapped — and
/// flush would delete it. The fix snapshots the list while the latch is held. The
/// interleaving is timing-dependent, so this hammers the window across many rounds and
/// asserts the invariant that must *always* hold after reopen: every key the committed
/// index holds is readable (no referenced-but-reclaimed value pages).
#[test]
fn concurrent_puts_racing_flush_never_corrupt_the_committed_index() {
    let config = config();
    for round in 0u64..12 {
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = std::sync::Arc::new(KvStore::open(store).unwrap());
        for i in 0..60u32 {
            kv.put(&key(i), b"seed").unwrap();
        }
        kv.flush().unwrap();

        // Two writers overwrite hot keys (every overwrite queues the old page for
        // release) while a flusher thread commits epochs back to back — every commit
        // is a shot at the drain-after-latch-release window.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u32)
                .map(|t| {
                    let kv = kv.clone();
                    scope.spawn(move || {
                        for n in 0..600u64 {
                            let i = ((n * 7 + t as u64 * 13) % 60) as u32;
                            kv.put(&key(i), format!("t{t}-n{n}").as_bytes()).unwrap();
                        }
                    })
                })
                .collect();
            let flusher = {
                let kv = kv.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        kv.flush().unwrap();
                    }
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            flusher.join().unwrap();
        });

        // Crash at a round-dependent boundary of one more racing flush, then reopen.
        device.fail_after(2 + round % 5);
        let _ = kv.flush();
        device.kill();
        let kv = match std::sync::Arc::try_unwrap(kv) {
            Ok(kv) => kv,
            Err(_) => unreachable!("writers joined"),
        };
        drop(kv.into_inner());
        device.heal();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = KvStore::open(recovered)
            .unwrap_or_else(|e| panic!("round {round}: reopen failed: {e}"));
        // The invariant: index cardinality and readable keys agree exactly — a
        // committed mapping to a reclaimed page would show up as a scan/len mismatch
        // or a missing value here.
        assert_eq!(kv.len(), 60, "round {round}: key count");
        let scanned = kv.range(b"", b"~~~~~~~~").unwrap();
        assert_eq!(
            scanned.len(),
            60,
            "round {round}: a committed mapping lost its value"
        );
        for i in 0..60u32 {
            assert!(
                kv.get(&key(i)).unwrap().is_some(),
                "round {round}: key {i} referenced by the committed index but unreadable"
            );
        }
    }
}

/// A crash that loses an *uncommitted* epoch entirely (device killed before any
/// barrier) must also reclaim that epoch's leaked pages on reopen: the store's live
/// page count after the sweep equals what the committed state needs.
#[test]
fn reopen_sweep_reclaims_uncommitted_epoch_pages() {
    let config = config();
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let kv = KvStore::open(store).unwrap();
    let mut model = Model::new();
    phase1(&kv, &mut model);
    kv.flush().unwrap();

    // An epoch's worth of churn, flushed to the device but never committed: barrier 1
    // lands, the flip does not.
    let mut model2 = model.clone();
    phase2(&kv, &mut model2);
    device.fail_after(6); // part of barrier 1 lands; the flip never does
    let _ = kv.flush();
    device.kill();
    drop(kv.into_inner());

    device.heal();
    let recovered =
        LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let leaked_before = recovered.live_pages();
    let kv = KvStore::open(recovered).unwrap();
    // Whichever epoch won the race to the medium, the recovered state is exactly it.
    let model = if matches_model(&kv, &model) {
        model
    } else {
        model2
    };
    assert_matches(&kv, &model, "reopen after losing an uncommitted epoch");

    // The sweep tombstones every page the committed state does not reference; after
    // one commit the tombstones are durable and the live count is exactly the
    // committed footprint (keys + reachable tree pages + the superblock slots).
    kv.flush().unwrap();
    let live_after = kv.store().live_pages();
    assert!(
        live_after <= leaked_before,
        "sweep must not grow the live set ({leaked_before} -> {live_after})"
    );
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let kv =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    assert_matches(&kv, &model, "after sweep + commit + restart");
}

/// Group-commit crash matrix: N writers finish their mutations, then all request
/// durability at once — with a wide `group_commit_window_us` those flush calls batch
/// into one superblock flip. The device dies at every write boundary of that batched
/// flip; reopen must land on exactly the previous epoch or exactly the batched epoch
/// (all N writers' mutations), never a partial batch — the batch is one ordinary
/// shadow epoch, so the two-barrier protocol's all-or-nothing guarantee covers it.
#[test]
fn group_commit_crash_matrix_is_all_or_nothing() {
    const GC_WRITERS: u32 = 3;
    const KEYS_EACH: u32 = 40;
    let config = config();

    let gc_key = |t: u32, i: u32| key(300 + t * 100 + i);

    // Build the store, commit a base epoch, run the writers to completion, then fire
    // `GC_WRITERS` concurrent flushes (optionally with a device-write budget).
    // Returns (flush successes, base model, batched model, riders, flips).
    let run = |device: &CrashPointDevice, budget: Option<u64>| {
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = std::sync::Arc::new(
            KvStore::open_with(
                store,
                lss::btree::kv::KvOptions {
                    // Wide window: concurrent callers reliably join one generation.
                    group_commit_window_us: 50_000,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let mut model1 = Model::new();
        phase1(&kv, &mut model1);
        kv.flush().unwrap();

        let mut model2 = model1.clone();
        std::thread::scope(|scope| {
            for t in 0..GC_WRITERS {
                let kv = kv.clone();
                scope.spawn(move || {
                    for i in 0..KEYS_EACH {
                        kv.put(&gc_key(t, i), format!("gc-w{t}-{i}").as_bytes())
                            .unwrap();
                    }
                });
            }
        });
        for t in 0..GC_WRITERS {
            for i in 0..KEYS_EACH {
                model2.insert(gc_key(t, i), format!("gc-w{t}-{i}").into_bytes());
            }
        }

        if let Some(b) = budget {
            device.fail_after(b);
        }
        let base = kv.stats();
        let oks = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..GC_WRITERS {
                let kv = kv.clone();
                let oks = &oks;
                scope.spawn(move || {
                    if kv.flush().is_ok() {
                        oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        let stats = kv.stats();
        let riders = stats.group_commit_riders - base.group_commit_riders;
        let flips = stats.superblock_commits - base.superblock_commits;
        let kv = std::sync::Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all joined"));
        drop(kv.into_inner());
        (
            oks.load(std::sync::atomic::Ordering::Relaxed),
            model1,
            model2,
            riders,
            flips,
        )
    };

    // Healthy dry run: the batched flip's device-write budget, and proof that the
    // calls actually batched (riders rode, fewer flips than calls).
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let before = device.writes();
    let (oks, _, _, riders, flips) = run(&device, None);
    let healthy_writes = device.writes() - before;
    assert_eq!(oks, GC_WRITERS, "healthy group commit must succeed for all");
    assert!(
        riders >= 1,
        "no flush call rode the generation — group commit never batched"
    );
    assert!(
        flips < GC_WRITERS as u64,
        "{GC_WRITERS} calls took {flips} flips — no batching happened"
    );
    assert!(healthy_writes >= 2, "flip must hit the device");

    let mut old_epoch_outcomes = 0u32;
    let mut new_epoch_outcomes = 0u32;
    for budget in 0..=healthy_writes {
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let (oks, model1, model2, _, _) = run(&device, Some(budget));
        device.kill();
        device.heal();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = KvStore::open(recovered).expect("reopen after crash must always succeed");
        let ctx = format!("group-commit crash after {budget}/{healthy_writes} writes");
        if oks > 0 {
            // Any successful flush call certifies the whole batch durable.
            assert_matches(&kv, &model2, &ctx);
            new_epoch_outcomes += 1;
        } else {
            let is_old = matches_model(&kv, &model1);
            let is_new = matches_model(&kv, &model2);
            assert!(
                is_old ^ is_new,
                "{ctx}: recovered a partial batch (old={is_old}, new={is_new})"
            );
            if is_old {
                old_epoch_outcomes += 1;
            } else {
                new_epoch_outcomes += 1;
            }
        }
    }
    assert!(
        old_epoch_outcomes > 0,
        "no crash point recovered the pre-batch epoch — sweep missed the pre-flip window"
    );
    assert!(
        new_epoch_outcomes > 0,
        "no crash point recovered the batched epoch — sweep missed the post-flip window"
    );
}
