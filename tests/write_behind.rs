//! The write-behind protocol: a writer freezes each full sort-buffer batch and hands it
//! to the store's worker thread, which appends it — and runs the cleaning it needs —
//! while the writer fills the next batch. These tests hold the worker in the middle of a
//! drain (a gated device parks it inside the drain's first seal) and check what must
//! hold meanwhile and after:
//!
//! * a write to a page whose older copy sits in the frozen batch wins, once both have
//!   landed and after recovery: a push never absorbs into a frozen slot;
//! * concurrent readers never miss an acknowledged write;
//! * a device error inside a background job surfaces on the next put or flush and wakes
//!   a writer blocked on backpressure, and once the device heals a flush makes every
//!   acknowledged page durable;
//! * dropping a store with a job in flight joins the worker.

mod common;

use common::{apply_env_concurrency, stress_seed_or};
use lss::core::device::{DeviceGeometry, FlakyDevice, MemDevice, SegmentDevice};
use lss::core::policy::PolicyKind;
use lss::core::{Error, LogStore, Result, SegmentId, StoreConfig};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a test waits for the worker to reach a point before declaring it stuck.
const TIMEOUT: Duration = Duration::from_secs(30);

fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(page ^ version) as u8; len.max(16)];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode(bytes: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(bytes[..8].try_into().unwrap()),
        u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    )
}

#[derive(Default)]
struct GateState {
    armed: bool,
    parked: bool,
    released: bool,
}

/// Parks the first whole-segment write after [`Gate::arm`] — a seal, which on a store
/// with no flush or cycle running only a drain makes — until [`Gate::release`].
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
}

impl Gate {
    fn arm(&self) {
        *self.state.lock().unwrap() = GateState {
            armed: true,
            ..GateState::default()
        };
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if !std::mem::take(&mut state.armed) {
            return;
        }
        state.parked = true;
        self.cond.notify_all();
        while !state.released {
            state = self.cond.wait(state).unwrap();
        }
    }

    fn wait_parked(&self) {
        let deadline = Instant::now() + TIMEOUT;
        let mut state = self.state.lock().unwrap();
        while !state.parked {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "the worker never reached the gated seal");
            state = self.cond.wait_timeout(state, left).unwrap().0;
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.cond.notify_all();
    }
}

/// An in-memory device whose writes can fail ([`FlakyDevice`]), whose seals can be held
/// at a [`Gate`] (ahead of the failure check) and slowed down. Clones share everything,
/// so a test keeps a handle while the store owns the device.
#[derive(Clone)]
struct HeldDevice {
    flaky: Arc<FlakyDevice<MemDevice>>,
    gate: Arc<Gate>,
    seal_delay_us: Arc<AtomicU64>,
}

impl HeldDevice {
    fn new(config: &StoreConfig) -> Self {
        Self {
            flaky: Arc::new(FlakyDevice::new(
                MemDevice::new(config.segment_bytes, config.num_segments),
                None,
            )),
            gate: Arc::default(),
            seal_delay_us: Arc::default(),
        }
    }
}

impl SegmentDevice for HeldDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.flaky.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.flaky.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.flaky.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.flaky.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.gate.pass();
        let delay = self.seal_delay_us.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        self.flaky.write_segment(seg, image)
    }
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        self.flaky.write_ranges(seg, image, dirty)
    }
    fn sync(&self) -> Result<()> {
        self.flaky.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.flaky.segment_writes()
    }
}

/// One stream, absorbing rewrites in its filling batch, a batch of two segments.
fn config() -> StoreConfig {
    let mut config = StoreConfig::small_for_tests()
        .with_policy(PolicyKind::Greedy)
        .with_write_streams(1);
    config.absorb_updates_in_buffer = true;
    config.num_segments = 128;
    config
}

fn open(config: &StoreConfig) -> (LogStore, HeldDevice) {
    let device = HeldDevice::new(config);
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    (store, device)
}

/// Put fresh pages from `first` on, at `version`, until one of them hands a batch to the
/// worker; returns the page after the last one put.
fn put_until_handed_off(store: &LogStore, first: u64, version: u64) -> u64 {
    let jobs = store.stats().write_behind_jobs;
    let mut page = first;
    while store.stats().write_behind_jobs == jobs {
        let len = store.config().page_bytes;
        store.put(page, &payload(page, version, len)).unwrap();
        page += 1;
        assert!(page - first < 10_000, "no batch was ever handed off");
    }
    page
}

fn assert_versions(store: &LogStore, versions: &[(u64, u64)], ctx: &str) {
    for &(page, version) in versions {
        let got = store
            .get(page)
            .unwrap()
            .unwrap_or_else(|| panic!("{ctx}: page {page} missing"));
        assert_eq!(decode(&got), (page, version), "{ctx}: page {page}");
    }
}

/// A rewrite of a page whose older copy is in the batch the worker is appending goes
/// to the filling batch, and wins: while the worker is held, after both batches land,
/// and after recovery. (Absorbed into the frozen slot instead, it would be dropped with
/// that slot once the worker appended the copy it had already taken.)
#[test]
fn a_rewrite_of_a_frozen_page_wins_after_both_land_and_after_recovery() {
    let config = config();
    let (store, device) = open(&config);
    device.gate.arm();
    let frozen = put_until_handed_off(&store, 0, 1);
    device.gate.wait_parked();

    // The worker is inside the batch's first seal: some pages appended, all still
    // frozen. Rewrite half of them (fewer than a batch, so this put never waits).
    let rewritten = frozen / 2;
    for page in 0..rewritten {
        store
            .put(page, &payload(page, 2, config.page_bytes))
            .unwrap();
    }
    let expected: Vec<(u64, u64)> = (0..frozen)
        .map(|page| (page, if page < rewritten { 2 } else { 1 }))
        .collect();
    assert_versions(&store, &expected, "worker held mid-drain");

    device.gate.release();
    store.flush().unwrap();
    assert_versions(&store, &expected, "after the flush");
    assert_eq!(store.live_pages() as u64, frozen);

    let recovered = LogStore::recover_with_device(config, store.into_device()).unwrap();
    assert_versions(&recovered, &expected, "after recovery");
    assert_eq!(recovered.live_pages() as u64, frozen);
}

/// Readers racing a writer whose batches are appended behind its back — seals slowed
/// so that appends, buffer removals and cleaning overlap the reads — always find the
/// version a put acknowledged, or a newer one.
#[test]
fn concurrent_readers_never_miss_an_acknowledged_write() {
    let mut config =
        apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    config.absorb_updates_in_buffer = true;
    config.num_segments = 128;
    let (store, device) = open(&config);
    device.seal_delay_us.store(200, Ordering::Relaxed);
    let store = Arc::new(store);
    let pages = 300u64;
    let rounds = 20u64;
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..pages).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3u64)
        .map(|r| {
            let (store, acked, done) = (Arc::clone(&store), Arc::clone(&acked), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut x = stress_seed_or(11) + r;
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let page = (x >> 33) % pages;
                    let floor = acked[page as usize].load(Ordering::Acquire);
                    if floor == 0 {
                        continue;
                    }
                    let got = store
                        .get(page)
                        .unwrap()
                        .unwrap_or_else(|| panic!("acknowledged page {page} read as absent"));
                    let (got_page, version) = decode(&got);
                    assert_eq!(got_page, page, "read another page's payload");
                    assert!(
                        version >= floor,
                        "page {page} read version {version} after version {floor} was acknowledged"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for round in 1..=rounds {
        for i in 0..pages {
            let page = (i * 7 + round) % pages;
            store
                .put(page, &payload(page, round, config.page_bytes))
                .unwrap();
            acked[page as usize].store(round, Ordering::Release);
        }
    }
    done.store(true, Ordering::Release);
    let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(reads > 0, "the readers never read");

    store.flush().unwrap();
    let stats = store.stats();
    assert!(stats.write_behind_jobs > 0, "nothing was handed off");
    assert!(stats.cleaning_cycles > 0, "nothing was cleaned");
    let expected: Vec<(u64, u64)> = (0..pages).map(|page| (page, rounds)).collect();
    assert_versions(&store, &expected, "after the flush");
}

/// A seal that fails inside a background job: the writer blocked behind that job is
/// woken with the error, a flush on the failing device fails rather than vouch for
/// anything, and once the device heals a flush makes every acknowledged page durable.
/// (The page the woken writer was putting was not acknowledged, and may or may not
/// land.)
#[test]
fn a_device_error_in_a_job_wakes_the_blocked_writer_and_a_flush_after_healing_lands_everything() {
    let config = config();
    let (store, device) = open(&config);
    let store = Arc::new(store);
    device.flaky.set_fail_after_writes(Some(0));
    device.gate.arm();
    let frozen = put_until_handed_off(&store, 0, 1);
    device.gate.wait_parked();

    // A second writer fills the next batch and blocks behind the held one.
    let writer = {
        let store = Arc::clone(&store);
        let len = config.page_bytes;
        std::thread::spawn(move || {
            let mut acked = Vec::new();
            for page in frozen.. {
                match store.put(page, &payload(page, 1, len)) {
                    Ok(()) => acked.push(page),
                    Err(e) => return (acked, e),
                }
            }
            unreachable!()
        })
    };
    let deadline = Instant::now() + TIMEOUT;
    while store.stats().write_behind_waits == 0 {
        assert!(Instant::now() < deadline, "the second writer never waited");
        std::thread::sleep(Duration::from_millis(1));
    }
    device.gate.release();
    let (acked, err) = writer.join().unwrap();
    assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");

    let versions: Vec<(u64, u64)> = (0..frozen).chain(acked).map(|p| (p, 1)).collect();
    assert_versions(&store, &versions, "device failing");
    assert!(
        store.flush().is_err(),
        "a flush on a failing device succeeded"
    );

    device.flaky.set_fail_after_writes(None);
    store.flush().unwrap();
    assert_versions(&store, &versions, "healed and flushed");
    let Ok(store) = Arc::try_unwrap(store) else {
        panic!("another handle to the store is still alive")
    };
    let recovered = LogStore::recover_with_device(config, store.into_device()).unwrap();
    assert_versions(&recovered, &versions, "recovered");
}

/// An error in a job with nobody waiting for it is returned by the next flush — once:
/// the flush after the device heals succeeds.
#[test]
fn a_job_error_is_returned_by_the_next_flush_once() {
    let config = config();
    let (store, device) = open(&config);
    device.flaky.set_fail_after_writes(Some(0));
    device.gate.arm();
    let frozen = put_until_handed_off(&store, 0, 1);
    device.gate.wait_parked();
    device.gate.release();
    assert!(matches!(store.flush(), Err(Error::Io(_))));
    device.flaky.set_fail_after_writes(None);
    store.flush().unwrap();
    let versions: Vec<(u64, u64)> = (0..frozen).map(|p| (p, 1)).collect();
    assert_versions(&store, &versions, "healed and flushed");
}

/// Dropping a store joins its worker: the job in flight finishes (its seal is let go
/// from another thread a moment later) and the worker lets go of the device.
#[test]
fn dropping_a_store_with_a_job_in_flight_joins_the_worker() {
    let config = config();
    let (store, device) = open(&config);
    let durable = put_until_handed_off(&store, 0, 1);
    store.flush().unwrap();
    device.gate.arm();
    put_until_handed_off(&store, durable, 1);
    device.gate.wait_parked();

    let releaser = {
        let gate = Arc::clone(&device.gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            gate.release();
        })
    };
    drop(store);
    releaser.join().unwrap();
    assert_eq!(
        Arc::strong_count(&device.flaky),
        1,
        "the worker still holds the device"
    );

    // What was flushed before the drop is all there.
    let recovered = LogStore::recover_with_device(config, Box::new(device)).unwrap();
    let versions: Vec<(u64, u64)> = (0..durable).map(|p| (p, 1)).collect();
    assert_versions(&recovered, &versions, "recovered");
}
