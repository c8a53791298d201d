//! The flip's cut: a KV commit holds the index's epoch latch only while it writes the
//! epoch's dirty pages back and cuts the epoch; both barriers and the release of the
//! superseded pages run beside live writers. Each test parks a flip inside a barrier
//! with [`SyncControl`], a device whose `sync` can be held, failed or crashed, and
//! checks what the cut promises:
//!
//! * a `put` or `delete` on another thread returns while the flip is held, and a `get`
//!   sees it at once;
//! * a crash inside barrier 1 recovers the previous epoch (the superblock was never
//!   written), and a crash between the barriers or right after the flip exactly the
//!   cut epoch — never the racing mutation, which the next flush commits;
//! * a barrier-1 sync that fails while mutations race returns `Err` and releases
//!   nothing: the next flush commits everything, and neither free list ever holds a
//!   page the index reaches, or one id twice;
//! * concurrent `flush` calls with no group-commit window serialise into consecutive
//!   epochs, in alternating superblock slots.

mod common;

use common::{apply_env_concurrency, SyncControl};
use lss::btree::kv::{KvStore, META_BASE};
use lss::btree::kv_legacy::Superblock;
use lss::core::policy::PolicyKind;
use lss::core::{LogStore, Result, StoreConfig};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// The barriers of a flip, as the order of its device syncs.
const BARRIER_1: usize = 1;
const BARRIER_2: usize = 2;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    // Roomy enough that nothing cleans: every sync at the gate is a flip's barrier.
    c.num_segments = 512;
    c
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:04}").into_bytes()
}

fn put(kv: &KvStore, model: &mut Model, i: u32, value: &str) {
    kv.put(&key(i), value.as_bytes()).unwrap();
    model.insert(key(i), value.as_bytes().to_vec());
}

fn delete(kv: &KvStore, model: &mut Model, i: u32) {
    assert_eq!(kv.delete(&key(i)).unwrap(), model.remove(&key(i)).is_some());
}

/// Key count, an ordered scan of everything, and a point read of every key either
/// side ever held.
fn assert_matches(kv: &KvStore, model: &Model, ctx: &str) {
    assert_eq!(kv.len(), model.len(), "{ctx}: key count");
    let scanned: Model = kv
        .range(b"", b"~")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    assert_eq!(&scanned, model, "{ctx}: scan");
    for i in 0..1_000 {
        let got = kv.get(&key(i)).unwrap();
        assert_eq!(
            got.as_deref(),
            model.get(&key(i)).map(Vec::as_slice),
            "{ctx}: key {i}"
        );
    }
}

/// Run `op` on another thread; it must return without waiting for a held flip.
fn returns_while_held<T: Send + 'static>(op: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(op()).unwrap());
    result
        .recv_timeout(Duration::from_secs(10))
        .expect("a mutation waited for a flip held in a barrier")
}

/// A KV store on a [`SyncControl`] device.
struct Rig {
    config: StoreConfig,
    device: SyncControl,
    kv: Arc<KvStore>,
}

impl Rig {
    /// A store whose committed epoch holds keys 0..100 and whose open epoch — the one
    /// the next flip cuts — overwrites every third key and deletes every seventh.
    /// Returns the rig, the committed model and the cut epoch's model.
    fn new() -> (Self, Model, Model) {
        let config = config();
        let device = SyncControl::new(&config);
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let kv = Arc::new(KvStore::open(store).unwrap());
        let mut committed = Model::new();
        for i in 0..100 {
            put(&kv, &mut committed, i, "committed");
        }
        kv.flush().unwrap();
        let mut cut = committed.clone();
        for i in (0..100).step_by(3) {
            put(&kv, &mut cut, i, "cut");
        }
        for i in (0..100).step_by(7) {
            delete(&kv, &mut cut, i);
        }
        (Self { config, device, kv }, committed, cut)
    }

    /// Start a flush on its own thread and return once it is parked in `barrier`.
    fn hold_flush_in(&self, barrier: usize) -> JoinHandle<Result<()>> {
        let nth = self.device.syncs() + barrier;
        self.device.set(|s| {
            s.holding = true;
            s.hold_from = nth;
        });
        let kv = Arc::clone(&self.kv);
        let flusher = std::thread::spawn(move || kv.flush());
        self.device.wait_for_sync(nth);
        flusher
    }

    fn release(&self) {
        self.device.set(|s| s.holding = false);
    }

    /// The mutation that races a held flip: a new key and the delete of a key the cut
    /// epoch holds — applied on another thread, seen at once on this one.
    fn race(&self, model: &mut Model) {
        let kv = Arc::clone(&self.kv);
        returns_while_held(move || {
            kv.put(&key(500), b"racing")?;
            kv.delete(&key(1))
        })
        .unwrap();
        assert_eq!(
            self.kv.get(&key(500)).unwrap().as_deref(),
            Some(&b"racing"[..])
        );
        assert_eq!(self.kv.get(&key(1)).unwrap(), None);
        model.insert(key(500), b"racing".to_vec());
        model.remove(&key(1));
    }

    /// Power cut: kill the device (a flush held at the gate fails), let the flusher
    /// finish, drop the store and recover from what reached the device.
    fn crash(self, flusher: Option<JoinHandle<Result<()>>>) -> KvStore {
        self.device.crash().kill();
        self.release();
        if let Some(flusher) = flusher {
            assert!(
                flusher.join().unwrap().is_err(),
                "a flush outlived the crash"
            );
        }
        let Ok(kv) = Arc::try_unwrap(self.kv) else {
            panic!("another handle to the store is still alive")
        };
        drop(kv.into_inner());
        self.device.crash().heal();
        let device = Box::new(self.device.clone());
        KvStore::open(LogStore::recover_with_device(self.config.clone(), device).unwrap()).unwrap()
    }
}

#[test]
fn a_mutation_racing_a_held_flip_returns_and_is_read_at_once() {
    for barrier in [BARRIER_1, BARRIER_2] {
        let (rig, _, mut next) = Rig::new();
        let before = rig.kv.stats();
        let flusher = rig.hold_flush_in(barrier);
        rig.race(&mut next);
        assert_eq!(
            rig.kv.stats().superblock_commits,
            before.superblock_commits,
            "barrier {barrier}: the flip is still held"
        );
        rig.release();
        flusher.join().unwrap().unwrap();
        assert_eq!(rig.kv.stats().epoch, before.epoch + 1);
        assert_matches(
            &rig.kv,
            &next,
            &format!("barrier {barrier}, after the flip"),
        );
    }
}

#[test]
fn a_crash_around_a_held_flip_recovers_a_committed_epoch_without_the_racing_mutation() {
    // Inside barrier 1 the superblock is not written yet: the previous epoch.
    let (rig, committed, _) = Rig::new();
    let flusher = rig.hold_flush_in(BARRIER_1);
    rig.race(&mut Model::new());
    let kv = rig.crash(Some(flusher));
    assert_matches(&kv, &committed, "crash inside barrier 1");

    // Between the barriers the superblock has reached the device: exactly the cut.
    let (rig, _, cut) = Rig::new();
    let flusher = rig.hold_flush_in(BARRIER_2);
    rig.race(&mut Model::new());
    let kv = rig.crash(Some(flusher));
    assert_matches(&kv, &cut, "crash between the barriers");

    // Right after the held flip completes: exactly the cut, still.
    let (rig, _, cut) = Rig::new();
    let flusher = rig.hold_flush_in(BARRIER_1);
    let mut next = cut.clone();
    rig.race(&mut next);
    rig.release();
    flusher.join().unwrap().unwrap();
    let kv = rig.crash(None);
    assert_matches(&kv, &cut, "crash after the flip");

    // Inside the next flip's barrier 1, which persists the first flip's releases and
    // whatever reused their ids: exactly the cut, so nothing it maps was released.
    let (rig, _, cut) = Rig::new();
    let flusher = rig.hold_flush_in(BARRIER_1);
    rig.race(&mut Model::new());
    rig.release();
    flusher.join().unwrap().unwrap();
    rig.kv.put(&key(700), b"reuses a released id").unwrap();
    let flusher = rig.hold_flush_in(BARRIER_1);
    let kv = rig.crash(Some(flusher));
    assert_matches(&kv, &cut, "crash inside the next flip's barrier 1");

    // One more flush commits the racing mutation.
    let (rig, _, cut) = Rig::new();
    let flusher = rig.hold_flush_in(BARRIER_1);
    let mut next = cut;
    rig.race(&mut next);
    rig.release();
    flusher.join().unwrap().unwrap();
    rig.kv.flush().unwrap();
    let kv = rig.crash(None);
    assert_matches(&kv, &next, "crash after one more flush");
}

/// A store whose flip failed in barrier 1 while one writer overwrote, deleted and added
/// keys from before the cut until after the failure — every overwrite supersedes a
/// page of the cut epoch or of the committed one. Returns the rig, the committed model
/// and the model with every mutation.
fn fail_a_flip_under_a_racing_writer() -> (Rig, Model, Model) {
    let (rig, committed, cut) = Rig::new();
    let epoch = rig.kv.stats().epoch;
    rig.device.set(|s| s.failing = true);
    let flusher = rig.hold_flush_in(BARRIER_1);
    let writer = {
        let kv = Arc::clone(&rig.kv);
        let mut model = cut;
        std::thread::spawn(move || {
            for round in 0..3u32 {
                for i in (round..120).step_by(2) {
                    put(&kv, &mut model, i, &format!("race-{round}"));
                }
                for i in (round..100).step_by(11) {
                    delete(&kv, &mut model, i);
                }
            }
            model
        })
    };
    rig.release();
    assert!(
        flusher.join().unwrap().is_err(),
        "the failed barrier must surface"
    );
    let model = writer.join().unwrap();
    assert_eq!(
        rig.kv.stats().epoch,
        epoch,
        "a failed flip committed nothing"
    );
    assert_eq!(
        rig.kv.misfiled_free_ids_for_tests().unwrap(),
        Vec::<u64>::new(),
        "after the failed flip"
    );
    rig.device.set(|s| s.failing = false);
    (rig, committed, model)
}

#[test]
fn a_failed_barrier_1_releases_nothing_the_committed_epoch_references() {
    // Whatever the failed flip deleted would reach the device with the next flip's
    // barrier 1; a crash inside that barrier recovers the committed epoch, whole.
    let (rig, committed, _) = fail_a_flip_under_a_racing_writer();
    let flusher = rig.hold_flush_in(BARRIER_1);
    let kv = rig.crash(Some(flusher));
    assert_matches(&kv, &committed, "crash inside the next flip's barrier 1");
}

#[test]
fn after_a_failed_barrier_1_the_next_flush_commits_every_racing_mutation() {
    let (rig, _, mut model) = fail_a_flip_under_a_racing_writer();
    let epoch = rig.kv.stats().epoch;
    rig.kv.flush().unwrap();
    assert_eq!(rig.kv.stats().epoch, epoch + 1);
    assert_matches(&rig.kv, &model, "after the next flush");
    // Another epoch recycles the ids that flush released.
    for i in 0..60 {
        put(&rig.kv, &mut model, i, "recycled");
    }
    rig.kv.flush().unwrap();
    assert_eq!(
        rig.kv.misfiled_free_ids_for_tests().unwrap(),
        Vec::<u64>::new(),
        "after the releases"
    );
    let kv = rig.crash(None);
    assert_matches(&kv, &model, "recovered");
}

#[test]
fn concurrent_flushes_commit_consecutive_epochs_into_alternating_slots() {
    let (rig, _, mut model) = Rig::new();
    let base = rig.kv.stats();
    let first = rig.hold_flush_in(BARRIER_1);
    put(&rig.kv, &mut model, 600, "second epoch");
    // The second flush starts while the first is inside its barrier: without a commit
    // mutex both would number their epoch `base + 1` and flip the same slot. With no
    // window, a call counted in `flush_calls` goes straight on to its flip.
    let second = {
        let kv = Arc::clone(&rig.kv);
        std::thread::spawn(move || kv.flush())
    };
    while rig.kv.stats().flush_calls < base.flush_calls + 2 {
        std::thread::yield_now();
    }
    rig.release();
    first.join().unwrap().unwrap();
    second.join().unwrap().unwrap();

    let stats = rig.kv.stats();
    assert_eq!(stats.superblock_commits, base.superblock_commits + 2);
    assert_eq!(stats.epoch, base.epoch + 2);
    for epoch in [base.epoch + 1, base.epoch + 2] {
        let slot = META_BASE + epoch % 2;
        let sb = Superblock::decode(&rig.kv.store().get(slot).unwrap().unwrap()).unwrap();
        assert_eq!(sb.epoch, epoch, "slot {}", slot - META_BASE);
    }
    let kv = rig.crash(None);
    assert_matches(&kv, &model, "recovered");
}
