//! Seeded multi-threaded model test for the paged KV layer: four writer threads on
//! disjoint key spaces (each checked against its own `BTreeMap` model), a background
//! cleaner hammering `clean_now`, a checkpointer committing epochs mid-flight, and a
//! scanner asserting ordered, well-formed range scans — all against one shared
//! [`KvStore`]. Honours `LSS_WRITE_STREAMS` like the other
//! stress suites, so the CI stress job runs it with the write path sharded wider.
//!
//! Per-key linearizability here is simple because key spaces are disjoint: a thread is
//! the only writer of its keys, so every `get` it issues must observe its own latest
//! `put`/`delete` exactly — any stale or lost value is a bug in the index latch, the
//! value-page allocator, the CoW epoch machinery or the cleaner's relocation CAS.

mod common;

use common::{apply_env_concurrency, stress_seed_or};
use lss::btree::kv::KvStore;
use lss::core::policy::PolicyKind;
use lss::core::{LogStore, StoreConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: u32 = 4;
const OPS_PER_WRITER: u32 = 1_200;
const KEYS_PER_WRITER: u32 = 120;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.num_segments = 256;
    c
}

fn key(t: u32, i: u32) -> Vec<u8> {
    format!("t{t}:k{i:04}").into_bytes()
}

fn value(t: u32, i: u32, seq: u32) -> Vec<u8> {
    format!("t{t}:k{i:04}=s{seq}").into_bytes()
}

/// Deterministic per-thread RNG (splitmix-style).
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn writer(kv: &KvStore, t: u32, checkpointer: bool) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut rng = Rng(0xC0FFEE ^ (t as u64) << 32);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for seq in 0..OPS_PER_WRITER {
        let i = (rng.next() % KEYS_PER_WRITER as u64) as u32;
        let k = key(t, i);
        match rng.next() % 10 {
            // 60% put, with an immediate get-after-put linearizability check.
            0..=5 => {
                let v = value(t, i, seq);
                kv.put(&k, &v).unwrap();
                model.insert(k.clone(), v.clone());
                let got = kv.get(&k).unwrap().expect("get-after-put lost the key");
                assert_eq!(
                    got.as_ref(),
                    v.as_slice(),
                    "get-after-put read a stale value"
                );
            }
            // 20% get: must equal this thread's model exactly (sole writer).
            6 | 7 => {
                let got = kv.get(&k).unwrap();
                assert_eq!(
                    got.as_deref(),
                    model.get(&k).map(|v| v.as_slice()),
                    "point read diverged from the single-writer model for {}",
                    String::from_utf8_lossy(&k)
                );
            }
            // 10% delete.
            8 => {
                let existed = kv.delete(&k).unwrap();
                assert_eq!(existed, model.remove(&k).is_some(), "delete result wrong");
                assert!(kv.get(&k).unwrap().is_none(), "deleted key still readable");
            }
            // 10% range over this thread's own prefix: nobody else writes here and
            // this thread is not writing while it scans, so the per-leaf-validated
            // scan must equal the model exactly.
            _ => {
                let lo = key(t, i);
                let hi = key(t, i.saturating_add(16));
                let scanned = kv.range(&lo, &hi).unwrap();
                let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(lo..hi)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(
                    scanned.len(),
                    expected.len(),
                    "own-prefix range scan has wrong cardinality"
                );
                for ((sk, sv), (ek, ev)) in scanned.iter().zip(expected.iter()) {
                    assert_eq!(sk, ek, "own-prefix scan key order");
                    assert_eq!(sv.as_ref(), ev.as_slice(), "own-prefix scan value");
                }
            }
        }
        // The checkpointing writer commits epochs while everyone else is mid-flight.
        if checkpointer && seq % 300 == 299 {
            kv.flush().unwrap();
        }
    }
    model
}

#[test]
fn seeded_multithreaded_kv_model() {
    let kv = Arc::new(KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let mut models: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = Vec::new();
    std::thread::scope(|scope| {
        // Background cleaner: reclaim space continuously under the writers.
        let cleaner = {
            let kv = kv.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // I/O errors cannot happen on MemDevice; OutOfSpace cannot either
                    // (cleaning only frees). Treat any error as fatal for the test.
                    kv.store().clean_now().unwrap();
                    std::thread::yield_now();
                }
            })
        };
        // Global scanner: ordered, well-formed snapshots while writers run.
        let scanner = {
            let kv = kv.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                // At least one scan, even if the writers finish before this thread is
                // first scheduled (they can, since a flush stopped sealing segments).
                loop {
                    let scanned = kv.range(b"t", b"u").unwrap();
                    for w in scanned.windows(2) {
                        assert!(w[0].0 < w[1].0, "global scan out of order");
                    }
                    for (k, v) in &scanned {
                        // Every value embeds its key: torn reads would break this.
                        assert!(
                            v.starts_with(k.as_slice()),
                            "value {:?} does not belong to key {:?}",
                            String::from_utf8_lossy(v),
                            String::from_utf8_lossy(k)
                        );
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let kv = kv.clone();
                scope.spawn(move || writer(&kv, t, t == 0))
            })
            .collect();
        // Join before unwrapping: a writer's failed assertion must stop the cleaner and
        // the scanner (and fail the test), not leave them spinning for ever.
        let joined: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
        // `cleaning_cycles` counts cycles that claimed a victim, not calls of
        // `clean_now`: on a fast box the writers can finish before the cleaner thread
        // has found a sealed segment with garbage in it. There is plenty by now, so
        // let it reclaim some before the final verification (which then checks the
        // relocated store); the assertion below reports a cleaner that never managed.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while joined.iter().all(|j| j.is_ok())
            && kv.store().stats().cleaning_cycles == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        cleaner.join().unwrap();
        scanner.join().unwrap();
        models.extend(joined.into_iter().map(|j| j.unwrap()));
    });

    // Final verification: the union of the per-thread models is exactly the store.
    let mut union: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for m in &models {
        union.extend(m.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
    assert_eq!(kv.len(), union.len());
    let scanned = kv.range(b"", b"~~~~~~~~").unwrap();
    assert_eq!(scanned.len(), union.len());
    for ((sk, sv), (ek, ev)) in scanned.iter().zip(union.iter()) {
        assert_eq!(sk, ek);
        assert_eq!(sv.as_ref(), ev.as_slice());
    }
    assert!(
        kv.store().stats().cleaning_cycles > 0,
        "the cleaner thread never completed a cycle — the test lost its adversary"
    );

    // And the whole thing commits + survives a restart.
    kv.flush().unwrap();
    let kv = match Arc::try_unwrap(kv) {
        Ok(kv) => kv,
        Err(_) => unreachable!("all clones joined"),
    };
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let reopened =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    assert_eq!(reopened.len(), union.len());
    for (k, v) in union.iter().step_by(7) {
        assert_eq!(reopened.get(k).unwrap().unwrap().as_ref(), v.as_slice());
    }
}

/// Overlapping-keyspace mode: every writer races on the *same* keys, so the index
/// tree sees concurrent inserts/deletes/splits on one leaf population — exactly the
/// races optimistic lock-coupling must survive. Per-op linearizability against a
/// local model is impossible here (another writer may win any race), so the checks
/// are: every read is well-formed (the value embeds its key), and after the writers
/// quiesce, every surviving key holds the *last* value some writer wrote to it —
/// program order within a writer means the globally last insert of a key is that
/// writer's last put of it. Honours `LSS_STRESS_SEED`.
#[test]
fn overlapping_keyspace_racing_writers() {
    const SHARED_KEYS: u32 = 96;
    let seed = stress_seed_or(0xBEEF_CAFE);
    let kv = Arc::new(KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap());

    fn shared_key(i: u32) -> Vec<u8> {
        format!("race:k{i:04}").into_bytes()
    }

    // Each writer returns, per key: Some(last value it put) or None (its last op on
    // the key was a delete).
    let mut finals: Vec<BTreeMap<Vec<u8>, Option<Vec<u8>>>> = Vec::new();
    std::thread::scope(|scope| {
        let stop = Arc::new(AtomicBool::new(false));
        let cleaner = {
            let kv = kv.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    kv.store().clean_now().unwrap();
                    std::thread::yield_now();
                }
            })
        };
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let kv = kv.clone();
                scope.spawn(move || {
                    let mut rng = Rng(seed ^ ((t as u64) << 40) ^ 0x5EED);
                    let mut last: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
                    for seq in 0..OPS_PER_WRITER {
                        let i = (rng.next() % SHARED_KEYS as u64) as u32;
                        let k = shared_key(i);
                        match rng.next() % 10 {
                            // 70% put: values of varying length force leaf splits at
                            // racing positions. The value embeds the key.
                            0..=6 => {
                                let pad = "x".repeat((rng.next() % 48) as usize);
                                let v = [k.as_slice(), format!("=w{t}s{seq}:{pad}").as_bytes()]
                                    .concat();
                                kv.put(&k, &v).unwrap();
                                last.insert(k, Some(v));
                            }
                            // 20% get: whatever wins the race, the value must be
                            // well-formed for this key (no torn/foreign reads).
                            7 | 8 => {
                                if let Some(v) = kv.get(&k).unwrap() {
                                    assert!(
                                        v.starts_with(k.as_slice()),
                                        "value {:?} does not belong to key {:?}",
                                        String::from_utf8_lossy(&v),
                                        String::from_utf8_lossy(&k)
                                    );
                                }
                            }
                            // 10% delete.
                            _ => {
                                kv.delete(&k).unwrap();
                                last.insert(k, None);
                            }
                        }
                        if t == 0 && seq % 300 == 299 {
                            kv.flush().unwrap();
                        }
                    }
                    last
                })
            })
            .collect();
        for h in handles {
            finals.push(h.join().unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        cleaner.join().unwrap();
    });

    // Quiesced verification: each surviving key's value must be some writer's final
    // write to it (and an absent key means some writer's final op was a delete).
    let scanned = kv.range(b"race:", b"race:~").unwrap();
    for w in scanned.windows(2) {
        assert!(w[0].0 < w[1].0, "final scan out of order");
    }
    let present: BTreeMap<Vec<u8>, Vec<u8>> =
        scanned.into_iter().map(|(k, v)| (k, v.to_vec())).collect();
    for i in 0..SHARED_KEYS {
        let k = shared_key(i);
        let candidates: Vec<&Option<Vec<u8>>> = finals.iter().filter_map(|m| m.get(&k)).collect();
        match present.get(&k) {
            Some(v) => assert!(
                candidates
                    .iter()
                    .any(|c| c.as_deref() == Some(v.as_slice())),
                "key {} holds a value no writer finished with (seed {seed:#x})",
                String::from_utf8_lossy(&k)
            ),
            None => assert!(
                candidates.is_empty() || candidates.iter().any(|c| c.is_none()),
                "key {} vanished but no writer's last op deleted it (seed {seed:#x})",
                String::from_utf8_lossy(&k)
            ),
        }
    }

    // Restart equivalence: commit, reopen, identical contents.
    kv.flush().unwrap();
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let reopened =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    let after: BTreeMap<Vec<u8>, Vec<u8>> = reopened
        .range(b"race:", b"race:~")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    assert_eq!(present, after, "restart changed the committed contents");
}

/// Two writers on *interleaved* keys (even / odd), so every leaf holds keys of both and
/// each writer's splits, first-touch relocations (thread 0 commits an epoch every 150
/// operations) and parent repoints land on paths the other is descending. They first
/// grow the index from nothing — leaf, internal and root splits — then each deletes its
/// half of one contiguous run, which leaves whole leaves empty once both are through.
/// A writer is the only one touching its keys, so each of its reads must match its own
/// model exactly; the barrier makes the two phases overlap between the threads.
#[test]
fn interleaved_writers_grow_then_hollow_out_a_shared_index() {
    const KEYS: u32 = 1_400;
    const HOLE: std::ops::Range<u32> = 300..1_000;
    let seed = stress_seed_or(0x1234_5678);
    let kv = Arc::new(KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap());
    let phase = std::sync::Barrier::new(2);

    fn striped_key(i: u32) -> Vec<u8> {
        format!("g:k{i:05}").into_bytes()
    }

    let mut models: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let (kv, phase) = (kv.clone(), &phase);
                scope.spawn(move || {
                    let mut rng = Rng(seed ^ u64::from(t));
                    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                    let mine: Vec<u32> = (0..KEYS).filter(|i| i % 2 == t).collect();
                    phase.wait();
                    // Grow: every key once in a scrambled order, then overwrites.
                    for seq in 0..2 * mine.len() {
                        let at = if seq < mine.len() {
                            seq * 389 // coprime with the 700 keys: a permutation
                        } else {
                            rng.next() as usize
                        };
                        let i = mine[at % mine.len()];
                        let k = striped_key(i);
                        let pad = "x".repeat((rng.next() % 40) as usize);
                        let v = [k.as_slice(), format!("=w{t}s{seq}:{pad}").as_bytes()].concat();
                        kv.put(&k, &v).unwrap();
                        let got = kv.get(&k).unwrap().expect("get-after-put lost the key");
                        assert_eq!(got.as_ref(), v.as_slice(), "stale read (seed {seed:#x})");
                        model.insert(k, v);
                        if t == 0 && seq % 150 == 149 {
                            kv.flush().unwrap();
                        }
                    }
                    phase.wait();
                    // Hollow out: this writer's half of the run, front to back.
                    for (seq, &i) in mine.iter().filter(|i| HOLE.contains(i)).enumerate() {
                        let k = striped_key(i);
                        assert!(kv.delete(&k).unwrap(), "delete missed a live key");
                        assert!(kv.get(&k).unwrap().is_none(), "deleted key still readable");
                        model.remove(&k);
                        if t == 0 && seq % 150 == 149 {
                            kv.flush().unwrap();
                        }
                    }
                    model
                })
            })
            .collect();
        for h in handles {
            models.push(h.join().unwrap());
        }
    });

    let mut union = models.pop().unwrap();
    union.append(&mut models.pop().unwrap());
    assert_eq!(kv.len(), union.len());
    assert_eq!(kv.len() as u32, KEYS - (HOLE.end - HOLE.start));
    // Across the emptied leaves: nothing inside, the neighbours on either side intact.
    let hole = kv.range(&striped_key(HOLE.start), &striped_key(HOLE.end));
    assert!(hole.unwrap().is_empty(), "the hole is not empty");
    let scanned = kv.range(b"g:", b"g:~").unwrap();
    assert_eq!(scanned.len(), union.len());
    for ((sk, sv), (ek, ev)) in scanned.iter().zip(union.iter()) {
        assert_eq!(sk, ek);
        assert_eq!(sv.as_ref(), ev.as_slice());
    }
    // Refill part of the hole, commit, restart: identical contents.
    for i in HOLE.step_by(5) {
        let k = striped_key(i);
        kv.put(&k, &[k.as_slice(), b"=refill"].concat()).unwrap();
        union.insert(k.clone(), [k.as_slice(), b"=refill"].concat());
    }
    kv.flush().unwrap();
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let reopened =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    let after: BTreeMap<Vec<u8>, Vec<u8>> = reopened
        .range(b"g:", b"g:~")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    assert_eq!(after, union, "restart changed the committed contents");
}

/// Regression test for the PR 4 reader-starvation hazard: back-to-back scanners used
/// to monopolise the tree's reader-preferring `RwLock` on a single core, stalling
/// writers (and the flusher's exclusive latch) indefinitely — the model test's
/// scanner had to hand-yield between snapshots. Optimistic reads removed the latch,
/// so scanners looping *without any yield* must not keep writers from finishing.
#[test]
fn unthrottled_scanners_do_not_stall_writers() {
    const SCANNERS: u32 = 3;
    const WRITER_OPS: u32 = 600;
    let kv = Arc::new(KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap());
    for i in 0..KEYS_PER_WRITER {
        let k = key(9, i);
        kv.put(&k, &[k.as_slice(), b"=seed"].concat()).unwrap();
    }

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let stop = Arc::new(AtomicBool::new(false));
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|_| {
                let kv = kv.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    // Deliberately no yield: this tight loop is the old starvation
                    // trigger.
                    while !stop.load(Ordering::Relaxed) {
                        let scanned = kv.range(b"t", b"u").unwrap();
                        for (k, v) in &scanned {
                            assert!(v.starts_with(k.as_slice()));
                        }
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2u32)
            .map(|t| {
                let kv = kv.clone();
                scope.spawn(move || {
                    for seq in 0..WRITER_OPS {
                        let i = (t * 7 + seq) % KEYS_PER_WRITER;
                        let k = key(9, i);
                        kv.put(
                            &k,
                            &[k.as_slice(), format!("=w{t}s{seq}").as_bytes()].concat(),
                        )
                        .unwrap();
                        if t == 0 && seq % 200 == 199 {
                            // The flusher's exclusive epoch latch was the other
                            // starvation victim.
                            kv.flush().unwrap();
                        }
                    }
                })
            })
            .collect();
        // Under the old latch this join never returned on a single core; with
        // optimistic reads the writers finish regardless of scanner pressure.
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in scanners {
            h.join().unwrap();
        }
    });
    assert!(
        start.elapsed() < std::time::Duration::from_secs(120),
        "writers took {:?} against unthrottled scanners — reader starvation is back",
        start.elapsed()
    );
    assert_eq!(kv.len() as u32, KEYS_PER_WRITER);
}
