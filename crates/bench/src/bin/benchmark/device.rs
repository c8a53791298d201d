//! `TimedDevice`: the benchmark's own [`SegmentDevice`] wrapper, interposed under the
//! store in the traced pass only. It counts and times every device call, records a
//! `device.*` span for each, and — from [`DeviceProbe::capture_preimages`] on, which
//! the harness calls only for the short unmeasured burst before its crash check —
//! keeps the pre-image of every segment written since the last `sync()`. The power
//! "fails" at a chosen write of that burst: from then on no sync covers anything, and
//! when the burst is over the harness puts every kept pre-image back. Killing a
//! process leaves the OS cache intact, so the test itself has to discard the writes
//! no sync covered.

use crate::trace;
use lss_core::device::{DeviceGeometry, SegmentDevice};
use lss_core::{Result, SegmentId};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

/// Fixed costs of the device model behind `device.model_busy_s`: a deterministic
/// stand-in for a device that pays for bytes, reads and syncs (the sandbox's page
/// cache mostly does not).
pub const MODEL_WRITE_BYTES_PER_S: f64 = 2e9;
pub const MODEL_READ_BYTES_PER_S: f64 = 3e9;
pub const MODEL_READ_FIXED_S: f64 = 20e-6;
pub const MODEL_SYNC_FIXED_S: f64 = 100e-6;

/// Counters shared between the wrapper (owned by the store) and the harness.
#[derive(Default)]
pub struct DeviceProbe {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    erases: AtomicU64,
    sync_us: Mutex<Vec<u32>>,
    capture: AtomicBool,
    /// Captured writes still to go before the power fails.
    writes_until_power_cut: AtomicU64,
    power_cut: AtomicBool,
    preimages: Mutex<HashMap<u32, Vec<u8>>>,
    /// While capturing, a write or erase holds this shared from its pre-image to its
    /// end and a sync holds it exclusively, so every write is wholly before a sync
    /// (covered: its pre-image is dropped) or wholly after it (restorable).
    sync_gate: RwLock<()>,
}

/// A point-in-time copy of the counters; subtract two to get a window.
#[derive(Default, Clone, Copy)]
pub struct DeviceCounts {
    pub writes: u64,
    pub write_bytes: u64,
    pub write_s: f64,
    pub reads: u64,
    pub read_bytes: u64,
    pub read_s: f64,
    pub syncs: u64,
    pub sync_s: f64,
    pub erases: u64,
}

impl DeviceCounts {
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_s: self.write_s - earlier.write_s,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_s: self.read_s - earlier.read_s,
            syncs: self.syncs - earlier.syncs,
            sync_s: self.sync_s - earlier.sync_s,
            erases: self.erases - earlier.erases,
        }
    }

    /// Busy seconds under the fixed-cost model (see the `MODEL_*` constants).
    pub fn model_busy_s(&self) -> f64 {
        self.write_bytes as f64 / MODEL_WRITE_BYTES_PER_S
            + self.read_bytes as f64 / MODEL_READ_BYTES_PER_S
            + self.reads as f64 * MODEL_READ_FIXED_S
            + self.syncs as f64 * MODEL_SYNC_FIXED_S
    }
}

impl DeviceProbe {
    pub fn counts(&self) -> DeviceCounts {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DeviceCounts {
            writes: load(&self.writes),
            write_bytes: load(&self.write_bytes),
            write_s: load(&self.write_ns) as f64 / 1e9,
            reads: load(&self.reads),
            read_bytes: load(&self.read_bytes),
            read_s: load(&self.read_ns) as f64 / 1e9,
            syncs: load(&self.syncs),
            sync_s: load(&self.sync_ns) as f64 / 1e9,
            erases: load(&self.erases),
        }
    }

    /// The counters now, with the `sync()` samples cleared: the start of a window.
    pub fn start_window(&self) -> DeviceCounts {
        self.take_sync_p99_us();
        self.counts()
    }

    /// 99th percentile, in microseconds, of the `sync()` calls since the last call.
    pub fn take_sync_p99_us(&self) -> f64 {
        let mut us = std::mem::take(&mut *self.sync_us.lock().expect("sync samples poisoned"));
        us.sort_unstable();
        match us.len() {
            0 => 0.0,
            n => us[((n - 1) as f64 * 0.99).round() as usize] as f64,
        }
    }

    /// Start keeping pre-images of segments written between syncs, and let the power
    /// fail at write (or erase) number `power_cut_at_write`, from 1, from now. Call it
    /// while the store is idle and everything written so far is synced: each first
    /// write of a segment then costs a read of its whole image, and syncs exclude
    /// writes.
    pub fn capture_preimages(&self, power_cut_at_write: u64) {
        self.writes_until_power_cut
            .store(power_cut_at_write, Ordering::SeqCst);
        self.capture.store(true, Ordering::SeqCst);
    }

    /// True once the power has failed. A sync that completed before a caller saw
    /// `false` here completed before the power failed.
    pub fn power_is_cut(&self) -> bool {
        self.power_cut.load(Ordering::SeqCst)
    }

    /// The pre-images of every segment written since the last `sync()` that completed
    /// before the power failed (or, if it never did, the last `sync()` of all):
    /// writing them back is what the power cut did to the device.
    pub fn take_unsynced_preimages(&self) -> Vec<(SegmentId, Vec<u8>)> {
        let mut map = self.preimages.lock().expect("pre-images poisoned");
        map.drain()
            .map(|(seg, img)| (SegmentId(seg), img))
            .collect()
    }
}

/// Forwards to `inner`, counting, timing and spanning every call.
pub struct TimedDevice<D: SegmentDevice> {
    inner: D,
    probe: Arc<DeviceProbe>,
}

impl<D: SegmentDevice> TimedDevice<D> {
    pub fn new(inner: D) -> (Self, Arc<DeviceProbe>) {
        let probe = Arc::new(DeviceProbe::default());
        let device = Self {
            inner,
            probe: Arc::clone(&probe),
        };
        (device, probe)
    }

    /// Before a write or erase of `seg`: while capturing, keep the segment's pre-image
    /// if none is kept yet, and return the guard that keeps syncs out until the write
    /// is done.
    fn remember_preimage(&self, seg: SegmentId) -> Result<Option<RwLockReadGuard<'_, ()>>> {
        if !self.probe.capture.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let gate = self.probe.sync_gate.read().expect("sync gate poisoned");
        let mut map = self.probe.preimages.lock().expect("pre-images poisoned");
        if let Entry::Vacant(slot) = map.entry(seg.0) {
            slot.insert(self.inner.read_segment(seg)?);
        }
        // The power fails before this write reaches the device; no sync is under way.
        if self.probe.writes_until_power_cut.load(Ordering::SeqCst) > 0
            && self
                .probe
                .writes_until_power_cut
                .fetch_sub(1, Ordering::SeqCst)
                == 1
        {
            self.probe.power_cut.store(true, Ordering::SeqCst);
        }
        Ok(Some(gate))
    }
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl<D: SegmentDevice> SegmentDevice for TimedDevice<D> {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        let _span = trace::span("device.read");
        let start = Instant::now();
        let image = self.inner.read_segment(seg)?;
        add(&self.probe.read_ns, start.elapsed().as_nanos() as u64);
        add(&self.probe.reads, 1);
        add(&self.probe.read_bytes, image.len() as u64);
        Ok(image)
    }

    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        let _span = trace::span("device.read");
        let start = Instant::now();
        let bytes = self.inner.read_range(seg, offset, len)?;
        add(&self.probe.read_ns, start.elapsed().as_nanos() as u64);
        add(&self.probe.reads, 1);
        add(&self.probe.read_bytes, bytes.len() as u64);
        Ok(bytes)
    }

    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        let _before_any_sync = self.remember_preimage(seg)?;
        let _span = trace::span("device.write");
        let start = Instant::now();
        self.inner.write_segment(seg, image)?;
        add(&self.probe.write_ns, start.elapsed().as_nanos() as u64);
        add(&self.probe.writes, 1);
        add(&self.probe.write_bytes, image.len() as u64);
        Ok(())
    }

    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        let _before_any_sync = self.remember_preimage(seg)?;
        let _span = trace::span("device.erase");
        add(&self.probe.erases, 1);
        self.inner.erase_segment(seg)
    }

    fn sync(&self) -> Result<()> {
        // No write is under way while this is held, so the sync covers exactly the
        // writes whose pre-images are kept now — unless the power has failed.
        let capturing = self.probe.capture.load(Ordering::SeqCst);
        let _no_writes =
            capturing.then(|| self.probe.sync_gate.write().expect("sync gate poisoned"));
        let _span = trace::span("device.sync");
        let start = Instant::now();
        self.inner.sync()?;
        let elapsed = start.elapsed();
        add(&self.probe.sync_ns, elapsed.as_nanos() as u64);
        add(&self.probe.syncs, 1);
        self.probe
            .sync_us
            .lock()
            .expect("sync samples poisoned")
            .push(elapsed.as_micros().min(u32::MAX as u128) as u32);
        if capturing && !self.probe.power_is_cut() {
            self.probe
                .preimages
                .lock()
                .expect("pre-images poisoned")
                .clear();
        }
        Ok(())
    }

    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}
