//! Group-commit semantics for the paged KV layer ([`lss::btree::kv::KvStore`]):
//!
//! * `group_commit_window_us = 0` (the default) must be behaviour-identical to the
//!   pre-group-commit per-call flip — proven by an A/B run of the same deterministic
//!   trace against both configurations, comparing contents *and* commit statistics;
//! * with a wide window, concurrent `flush` calls must batch into fewer superblock
//!   flips than calls, every caller's mutations must be durable once its call
//!   returns `Ok`, and a failed flip must surface the error to *every* caller of the
//!   batched generation — a rider must never report durability its leader failed to
//!   deliver.

mod common;

use common::{apply_env_concurrency, CrashPointDevice};
use lss::btree::kv::{KvOptions, KvStore};
use lss::core::policy::PolicyKind;
use lss::core::{Error, LogStore, StoreConfig};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.num_segments = 192;
    c
}

fn open_with_window(window_us: u64) -> KvStore {
    KvStore::open_with(
        LogStore::open_in_memory(config()).unwrap(),
        KvOptions {
            group_commit_window_us: window_us,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A deterministic single-threaded trace: puts, overwrites, deletes, periodic
/// flushes — the shape whose per-call commit behaviour window 0 must reproduce.
fn run_trace(kv: &KvStore) {
    for round in 0..4u32 {
        for i in 0..120u32 {
            kv.put(
                format!("k{i:04}").as_bytes(),
                format!("r{round}-v{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in (0..120u32).step_by(9) {
            kv.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        kv.flush().unwrap();
    }
}

/// Acceptance gate: `group_commit_window_us = 0` is the per-call commit, bit for bit
/// in everything observable — same contents, one flip per flush call, zero riders,
/// identical index/value write accounting and epoch sequence as the default open.
#[test]
fn window_zero_is_identical_to_per_call_commit() {
    let default_kv = KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap();
    let zero_kv = open_with_window(0);
    run_trace(&default_kv);
    run_trace(&zero_kv);

    let a = default_kv.stats();
    let b = zero_kv.stats();
    assert_eq!(a.epoch, b.epoch, "epoch sequences diverged");
    assert_eq!(
        a.superblock_commits, b.superblock_commits,
        "flip counts diverged"
    );
    assert_eq!(a.flush_calls, b.flush_calls);
    assert_eq!(
        b.flush_calls, b.superblock_commits,
        "window 0 must flip once per flush call"
    );
    assert_eq!(b.group_commit_riders, 0, "window 0 must never batch");
    assert_eq!(a.group_commit_riders, 0);
    assert_eq!(a.puts, b.puts);
    assert_eq!(a.deletes, b.deletes);
    assert_eq!(a.keys, b.keys);
    assert_eq!(
        a.index_pages_written, b.index_pages_written,
        "index write traces diverged"
    );
    assert_eq!(a.index_bytes_written, b.index_bytes_written);
    assert_eq!(a.value_bytes_written, b.value_bytes_written);

    let scan_a = default_kv.range(b"", b"~~~~~~").unwrap();
    let scan_b = zero_kv.range(b"", b"~~~~~~").unwrap();
    assert_eq!(scan_a, scan_b, "contents diverged");
}

/// Concurrent flush calls with a wide window batch into fewer flips than calls, and
/// every caller's data is durable (restart-proof) once its call returned `Ok`.
#[test]
fn concurrent_flushes_batch_and_stay_durable() {
    const FLUSHERS: u32 = 4;
    let kv = Arc::new(open_with_window(100_000));
    for i in 0..200u32 {
        kv.put(format!("seed{i:04}").as_bytes(), b"base").unwrap();
    }
    kv.flush().unwrap();
    let base = kv.stats();

    // Each thread writes its marker and then demands durability; the window gives
    // every call time to join the leader's generation.
    std::thread::scope(|scope| {
        for t in 0..FLUSHERS {
            let kv = kv.clone();
            scope.spawn(move || {
                kv.put(
                    format!("marker{t}").as_bytes(),
                    format!("from-t{t}").as_bytes(),
                )
                .unwrap();
                kv.flush().unwrap();
            });
        }
    });

    let stats = kv.stats();
    let calls = stats.flush_calls - base.flush_calls;
    let flips = stats.superblock_commits - base.superblock_commits;
    let riders = stats.group_commit_riders - base.group_commit_riders;
    assert_eq!(calls, FLUSHERS as u64);
    assert!(
        flips < calls,
        "{calls} concurrent flush calls took {flips} flips — nothing batched"
    );
    assert!(riders >= 1, "no call rode a generation");
    assert_eq!(flips + riders, calls, "every call either leads or rides");
    assert!(stats.avg_commit_batch() > 1.0);

    // Durability: every marker survives a restart (each flush returned Ok only
    // after a superblock covering its put was committed).
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let reopened =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    for t in 0..FLUSHERS {
        assert_eq!(
            reopened
                .get(format!("marker{t}").as_bytes())
                .unwrap()
                .expect("marker lost after restart")
                .as_ref(),
            format!("from-t{t}").as_bytes()
        );
    }
}

/// A failed flip must fail *every* caller of the batched generation: a rider
/// returning `Ok` while the leader's barriers never reached the device would be a
/// silent durability lie.
#[test]
fn riders_observe_the_leaders_failure() {
    let cfg = config();
    let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
    let store = LogStore::open_with_device(cfg.clone(), Box::new(device.clone())).unwrap();
    let kv = Arc::new(
        KvStore::open_with(
            store,
            KvOptions {
                group_commit_window_us: 100_000,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for i in 0..150u32 {
        kv.put(format!("c{i:04}").as_bytes(), b"committed").unwrap();
    }
    kv.flush().unwrap();

    for i in 0..150u32 {
        kv.put(format!("u{i:04}").as_bytes(), b"uncommitted")
            .unwrap();
    }
    device.fail_after(0); // every further device write fails: the flip cannot land
    let failures = AtomicU32::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let kv = kv.clone();
            let failures = &failures;
            scope.spawn(move || {
                let Err(e) = kv.flush() else { return };
                // Leader and riders surface the *same* wrapped source error, so
                // callers matching on the underlying variant behave identically
                // in either role (the device failure is an I/O error here).
                assert!(
                    matches!(&e, Error::GroupCommitFailed(src) if matches!(**src, Error::Io(_))),
                    "expected the generation's shared source error, got {e:?}"
                );
                failures.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::Relaxed),
        3,
        "a flush call reported durability for an epoch the device never saw"
    );

    // The committed epoch survives: heal, reopen, only the pre-failure state exists.
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    drop(kv.into_inner());
    device.heal();
    let recovered = LogStore::recover_with_device(cfg, Box::new(device.clone())).unwrap();
    let reopened = KvStore::open(recovered).unwrap();
    assert_eq!(reopened.len(), 150);
    assert_eq!(
        reopened.get(b"c0000").unwrap().unwrap().as_ref(),
        b"committed"
    );
    assert!(reopened.get(b"u0000").unwrap().is_none());
}

/// `flush_with` runs its hook exactly once and strictly before the flip that the call
/// returns from — with no window, as leader (at generation close) and as rider (on
/// joining): in every role the hook still sees the pre-flip commit count.
#[test]
fn flush_with_runs_its_hook_once_before_the_flip() {
    for window_us in [0, 1_000] {
        let kv = open_with_window(window_us);
        kv.put(b"k", b"v").unwrap();
        let before = kv.stats().superblock_commits;
        let mut seen = Vec::new();
        kv.flush_with(|| seen.push(kv.stats().superblock_commits))
            .unwrap();
        assert_eq!(seen, [before], "window {window_us}");
        assert_eq!(kv.stats().superblock_commits, before + 1);
    }

    // Two callers inside one wide window: one leads, one rides, one flip.
    let kv = open_with_window(300_000);
    kv.put(b"k", b"v").unwrap();
    let base = kv.stats();
    let seen = std::sync::Mutex::new(Vec::new());
    let call = || {
        kv.flush_with(|| seen.lock().unwrap().push(kv.stats().superblock_commits))
            .unwrap()
    };
    std::thread::scope(|scope| {
        scope.spawn(call);
        while kv.stats().flush_calls == base.flush_calls {
            std::thread::yield_now();
        }
        call();
    });
    let stats = kv.stats();
    assert_eq!(stats.superblock_commits, base.superblock_commits + 1);
    assert_eq!(stats.group_commit_riders, base.group_commit_riders + 1);
    assert_eq!(
        *seen.lock().unwrap(),
        [base.superblock_commits; 2],
        "a hook ran after the flip it was supposed to precede"
    );
}
