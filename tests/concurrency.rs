//! Concurrency and crash-consistency tests for the read/write/clean pipeline.
//!
//! These are the acceptance tests of the concurrent-store refactor:
//!
//! * a multi-threaded stress test (writer threads cleaning inline + reader threads +
//!   test-side cleaner threads) asserting that every page reads back its last flushed
//!   value under every [`PolicyKind`];
//! * a determinised proof that reads and writes complete **while a cleaning cycle is in
//!   flight** — a gated device blocks the cleaner inside its victim read until a
//!   foreground `get` and `put` have completed, which would deadlock if cleaning still
//!   ran inline under a store-wide lock;
//! * crash-consistency: a device that starts failing writes mid-clean loses nothing
//!   that was flushed, verified through `recover_with_device`.

use lss::core::device::{DeviceGeometry, MemDevice, SegmentDevice};
use lss::core::policy::PolicyKind;
use lss::core::{Error, LogStore, Result, SegmentId, StoreConfig};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

mod common;
use common::{apply_env_concurrency, CleanerThreads};

/// Self-describing page payload: `[page_id, version, filler...]`, so readers can detect
/// torn or misdirected reads no matter when they interleave with writers.
fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(page ^ version) as u8; len.max(16)];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode_payload(bytes: &[u8]) -> (u64, u64) {
    let page = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let version = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    (page, version)
}

/// N writers (the store paces their cleaning) + N readers + two test-side cleaner
/// threads, for every policy: readers must never observe a payload belonging to
/// a different page, and after the writers join every page must hold its final version.
#[test]
fn stress_readers_writers_and_cleaner_threads_under_every_policy() {
    for kind in PolicyKind::ALL {
        let mut config = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(kind));
        config.num_segments = 128;
        config.sort_buffer_segments = 2;
        let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
        let _cleaners = CleanerThreads::spawn(&store, 2);

        let writers = 3u64;
        let pages_per_writer = 150u64;
        let rounds = 24u64;
        let payload_len = config.page_bytes;

        // Preload version 0 of every page so readers always find something.
        for w in 0..writers {
            for i in 0..pages_per_writer {
                let page = w * 10_000 + i;
                store.put(page, &payload(page, 0, payload_len)).unwrap();
            }
        }
        store.flush().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..writers {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for round in 1..=rounds {
                    for i in 0..pages_per_writer {
                        // Scramble the order so victim segments decay into live/dead
                        // checkerboards and the cleaner has real work.
                        let i = (i * 7 + round) % pages_per_writer;
                        let page = w * 10_000 + i;
                        store.put(page, &payload(page, round, payload_len)).unwrap();
                    }
                }
            }));
        }
        let mut readers = Vec::new();
        for r in 0..writers {
            let store = store.clone();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let w = (r + n) % writers;
                    let page = w * 10_000 + (n * 13) % pages_per_writer;
                    n += 1;
                    let got = store
                        .get(page)
                        .expect("read failed under concurrency")
                        .expect("preloaded page disappeared");
                    let (got_page, version) = decode_payload(&got);
                    assert_eq!(
                        got_page, page,
                        "policy {kind}: read a foreign page's payload"
                    );
                    assert!(
                        version <= rounds,
                        "policy {kind}: impossible version {version}"
                    );
                    reads += 1;
                }
                reads
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut total_reads = 0;
        for r in readers {
            total_reads += r.join().unwrap();
        }
        assert!(total_reads > 0, "policy {kind}: readers never ran");

        store.flush().unwrap();
        let stats = store.stats();
        assert!(
            stats.cleaning_cycles > 0,
            "policy {kind}: cleaning never ran"
        );
        for w in 0..writers {
            for i in 0..pages_per_writer {
                let page = w * 10_000 + i;
                let got = store
                    .get(page)
                    .unwrap()
                    .unwrap_or_else(|| panic!("policy {kind}: page {page} lost after stress run"));
                let (got_page, version) = decode_payload(&got);
                assert_eq!(got_page, page, "policy {kind}");
                assert_eq!(
                    version, rounds,
                    "policy {kind}: page {page} does not hold its final version"
                );
            }
        }
    }
}

/// Regression test for the drain visibility window: a `put` that has returned must be
/// readable immediately and forever after, even while the sort buffer is being drained
/// into segments. (An earlier drain design removed entries from the buffer before their
/// page-table entries existed, so a freshly acknowledged page could transiently read
/// back as `None`.)
#[test]
fn acknowledged_writes_never_transiently_disappear() {
    let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
    config.num_segments = 256;
    config.sort_buffer_segments = 2;
    // The visibility guarantee must hold per stream: probe it with the write path
    // sharded wider than the default.
    config.write_streams = 4;
    let config = apply_env_concurrency(config);
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let _cleaners = CleanerThreads::spawn(&store, 1);
    let high_water = Arc::new(AtomicU64::new(0)); // pages < high_water are acknowledged
                                                  // Distinct fresh pages (the sharpest probe for the visibility window), sized to a
                                                  // 0.6 fill so pure growth fits the device.
    let total = config.logical_pages_for_fill_factor(0.6) as u64;

    let writer = {
        let store = store.clone();
        let high_water = Arc::clone(&high_water);
        let len = config.page_bytes;
        std::thread::spawn(move || {
            for p in 0..total {
                store.put(p, &payload(p, 1, len)).unwrap();
                high_water.store(p + 1, Ordering::Release);
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let store = store.clone();
            let high_water = Arc::clone(&high_water);
            std::thread::spawn(move || {
                let mut n = r;
                loop {
                    let hw = high_water.load(Ordering::Acquire);
                    if hw >= total {
                        break;
                    }
                    if hw == 0 {
                        continue;
                    }
                    let page = (n * 31) % hw;
                    n += 1;
                    let got = store.get(page).unwrap().unwrap_or_else(|| {
                        panic!("acknowledged page {page} read back as None (hw {hw})")
                    });
                    assert_eq!(decode_payload(&got).0, page);
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    for p in 0..total {
        assert!(store.get(p).unwrap().is_some(), "page {p} lost");
    }
}

/// A device wrapper that blocks the *cleaner's* whole-segment read (only the cleaner
/// reads whole segments on a live store) until the test releases it — pinning a cleaning
/// cycle in flight at a deterministic point.
struct GatedDevice {
    inner: MemDevice,
    armed: AtomicBool,
    cleaner_blocked: (Mutex<bool>, Condvar),
    release: (Mutex<bool>, Condvar),
}

impl GatedDevice {
    fn new(inner: MemDevice) -> Self {
        Self {
            inner,
            armed: AtomicBool::new(false),
            cleaner_blocked: (Mutex::new(false), Condvar::new()),
            release: (Mutex::new(false), Condvar::new()),
        }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Wait until the cleaner has entered its gated victim read.
    fn wait_for_cleaner_blocked(&self) {
        let (lock, cv) = &self.cleaner_blocked;
        let mut blocked = lock.lock().unwrap();
        while !*blocked {
            blocked = cv.wait(blocked).unwrap();
        }
    }

    /// The gate itself: the first whole-segment read after `arm` parks here until
    /// `release_cleaner`.
    fn park_if_armed(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            {
                let (lock, cv) = &self.cleaner_blocked;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            let (lock, cv) = &self.release;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cv.wait(released).unwrap();
            }
        }
    }

    /// Let the blocked cleaner continue.
    fn release_cleaner(&self) {
        let (lock, cv) = &self.release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}

impl SegmentDevice for GatedDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.park_if_armed();
        self.inner.read_segment(seg)
    }

    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.park_if_armed();
        self.inner.read_segment_into(seg, buf)
    }

    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }

    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.inner.write_segment(seg, image)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// The acceptance criterion of the refactor, made deterministic: a `get` and a `put`
/// both complete while a cleaning cycle is provably in flight (the cleaner is parked
/// inside its victim read and only un-parked *after* the foreground operations return).
/// Under the old single-mutex design this test deadlocks.
#[test]
fn reads_and_writes_complete_while_cleaning_is_in_flight() {
    let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
    config.num_segments = 128; // plenty of headroom: nothing triggers cleaning by itself
    let device = Arc::new(GatedDevice::new(MemDevice::new(
        config.segment_bytes,
        config.num_segments,
    )));

    /// Forwarder so the test can keep a handle on the gate while the store owns "the
    /// device".
    struct DeviceHandle(Arc<GatedDevice>);
    impl SegmentDevice for DeviceHandle {
        fn geometry(&self) -> DeviceGeometry {
            self.0.geometry()
        }
        fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
            self.0.read_segment(seg)
        }
        fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
            self.0.read_segment_into(seg, buf)
        }
        fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
            self.0.read_range(seg, offset, len)
        }
        fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
            self.0.write_segment(seg, image)
        }
        fn sync(&self) -> Result<()> {
            self.0.sync()
        }
        fn segment_writes(&self) -> u64 {
            self.0.segment_writes()
        }
    }

    let store = Arc::new(
        LogStore::open_with_device(config.clone(), Box::new(DeviceHandle(Arc::clone(&device))))
            .unwrap(),
    );

    // Fill some pages and overwrite a few so the cleaner will find victims with
    // reclaimable space; flush so reads are served from the device.
    let pages = 64u64;
    for p in 0..pages {
        store.put(p, &payload(p, 0, config.page_bytes)).unwrap();
    }
    for p in 0..pages / 2 {
        store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
    }
    store.flush().unwrap();

    // Park the next whole-segment read (the victim read of the cleaning cycle).
    device.arm();
    let cleaner = {
        let store = store.clone();
        std::thread::spawn(move || store.clean_now().unwrap())
    };
    device.wait_for_cleaner_blocked();

    // Cleaning is now provably in flight. Reads and writes must still complete —
    // if either needed the cleaning cycle to finish first, this would deadlock
    // (the cleaner is only released further down).
    let got = store
        .get(3)
        .unwrap()
        .expect("page must be readable during cleaning");
    let (page, version) = decode_payload(&got);
    assert_eq!((page, version), (3, 1));
    store
        .put(999, &payload(999, 7, config.page_bytes))
        .expect("writes must complete during cleaning");
    assert_eq!(decode_payload(&store.get(999).unwrap().unwrap()), (999, 7));

    device.release_cleaner();
    let report = cleaner.join().unwrap();
    assert!(
        report.segments_freed() > 0,
        "the gated cycle should have cleaned something"
    );

    // Nothing was lost or corrupted by cleaning concurrently with the foreground ops.
    for p in 0..pages {
        let expected_version = if p < pages / 2 { 1 } else { 0 };
        let got = store.get(p).unwrap().unwrap();
        assert_eq!(decode_payload(&got), (p, expected_version));
    }
}

/// A cloneable in-memory device whose write path can be switched off to simulate the
/// process dying mid-clean, while the underlying "disk" contents survive for recovery.
#[derive(Clone)]
struct CrashDevice {
    inner: Arc<MemDevice>,
    fail_writes: Arc<AtomicBool>,
    writes_until_failure: Arc<AtomicU32>,
}

impl CrashDevice {
    fn new(segment_bytes: usize, num_segments: usize) -> Self {
        Self {
            inner: Arc::new(MemDevice::new(segment_bytes, num_segments)),
            fail_writes: Arc::new(AtomicBool::new(false)),
            writes_until_failure: Arc::new(AtomicU32::new(u32::MAX)),
        }
    }

    /// Allow `n` more segment writes, then fail every subsequent one.
    fn fail_after(&self, n: u32) {
        self.writes_until_failure.store(n, Ordering::SeqCst);
        self.fail_writes.store(true, Ordering::SeqCst);
    }

    fn heal(&self) {
        self.fail_writes.store(false, Ordering::SeqCst);
        self.writes_until_failure.store(u32::MAX, Ordering::SeqCst);
    }
}

impl SegmentDevice for CrashDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.inner.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        if self.fail_writes.load(Ordering::SeqCst) {
            let remaining = self.writes_until_failure.load(Ordering::SeqCst);
            if remaining == 0 {
                return Err(Error::Io(std::io::Error::other(
                    "simulated crash: device gone mid-clean",
                )));
            }
            self.writes_until_failure
                .store(remaining - 1, Ordering::SeqCst);
        }
        self.inner.write_segment(seg, image)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// A transient device failure during a seal must not let a *later* flush report
/// durability falsely: the failed image is parked as a wounded seal and retried, so the
/// first successful flush after the device heals really has everything on disk —
/// proven by recovering from the device image alone.
#[test]
fn failed_seal_is_retried_and_later_flush_is_truthful() {
    let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
    let device = CrashDevice::new(config.segment_bytes, config.num_segments);
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();

    // Enough pages that the flush must seal several segments.
    let pages = 4 * config.pages_per_segment() as u64;
    for p in 0..pages {
        store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
    }

    // Device down: the flush must fail, not fake success.
    device.fail_after(0);
    assert!(
        store.flush().is_err(),
        "flush must surface the seal failure"
    );
    // While wounded, the data is still readable from the in-memory builders.
    for p in 0..pages {
        assert_eq!(
            decode_payload(&store.get(p).unwrap().unwrap()),
            (p, 1),
            "page {p} unreadable while its seal is wounded"
        );
    }

    // Device heals: the next flush retries the parked images and succeeds.
    device.heal();
    store.flush().expect("flush after heal must succeed");

    // The durability claim must hold from the device image alone.
    drop(store);
    let recovered = LogStore::recover_with_device(config, Box::new(device.clone())).unwrap();
    assert_eq!(recovered.live_pages() as u64, pages);
    for p in 0..pages {
        assert_eq!(
            decode_payload(&recovered.get(p).unwrap().unwrap()),
            (p, 1),
            "page {p} lost despite a successful post-heal flush"
        );
    }
}

/// Kill the device partway through a cleaning cycle (some GC output segments written,
/// then everything fails), "restart", and recover from the device alone: every page
/// flushed before the crash must read back its flushed value.
#[test]
fn crash_mid_clean_recovers_all_flushed_data() {
    // Try several failure points so the crash lands in different phases of the cycle
    // (before any GC write, mid GC output stream, during the final seals).
    for failure_budget in [0u32, 1, 2, 3] {
        let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
        let device = CrashDevice::new(config.segment_bytes, config.num_segments);
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();

        // Fill half the store, overwrite a scrambled *subset* (every other page) so
        // sealed segments hold a live/dead checkerboard — cleaning must then actually
        // relocate pages (device writes) rather than just freeing dead segments — and
        // flush: this is the durable state the crash must not lose.
        let pages = config.logical_pages_for_fill_factor(0.5) as u64;
        for p in 0..pages {
            store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
        }
        for n in 0..pages / 2 {
            let p = (n * 11 + 3) % pages;
            store.put(p, &payload(p, 2, config.page_bytes)).unwrap();
        }
        store.flush().unwrap();

        // Writes after the flush are volatile by contract; make some so recovery has
        // something to (correctly) lose.
        for p in 0..16u64 {
            store.put(p, &payload(p, 99, config.page_bytes)).unwrap();
        }

        // The "crash": the device stops accepting writes partway through cleaning.
        device.fail_after(failure_budget);
        let clean_result = store.clean_now();
        if failure_budget < 2 {
            // With this little write budget the cycle cannot complete its GC output
            // stream; it must surface the I/O error rather than losing pages silently.
            assert!(
                clean_result.is_err(),
                "budget {failure_budget}: cleaning should have hit the dead device"
            );
        }
        drop(store); // the process dies; in-memory state is gone

        // Restart: recover from the device image alone.
        device.heal();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        assert_eq!(
            recovered.live_pages() as u64,
            pages,
            "budget {failure_budget}: wrong page count after mid-clean crash"
        );
        for p in 0..pages {
            let got = recovered.get(p).unwrap().unwrap_or_else(|| {
                panic!("budget {failure_budget}: page {p} lost in mid-clean crash")
            });
            let (got_page, version) = decode_payload(&got);
            assert_eq!(got_page, p, "budget {failure_budget}");
            // Versions 1 and 2 were flushed; version 99 was written after the flush and
            // must be lost (standard LFS semantics), never half-recovered.
            assert!(
                version == 1 || version == 2,
                "budget {failure_budget}: page {p} has non-flushed version {version}"
            );
        }
        // The recovered store keeps working: writes, cleaning, reads.
        for p in 0..pages {
            recovered.put(p, &payload(p, 5, config.page_bytes)).unwrap();
        }
        recovered.flush().unwrap();
        assert_eq!(decode_payload(&recovered.get(0).unwrap().unwrap()), (0, 5));
    }
}

/// Genuine exhaustion forces the writer escalation ladder: the last-resort straggler
/// reclaim must run (and be counted) before the store declares out-of-space.
#[test]
fn out_of_space_path_records_stalls() {
    let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let payload = vec![0u8; config.page_bytes];
    let mut result = Ok(());
    for i in 0..(config.physical_pages() as u64 * 2) {
        result = store.put(i, &payload); // pure growth: eventually truly full
        if result.is_err() {
            break;
        }
    }
    assert!(matches!(result, Err(Error::OutOfSpace { .. })));
    assert!(
        store.stats().straggler_reclaims >= 1,
        "the escalation ladder never ran a straggler reclaim"
    );
}
