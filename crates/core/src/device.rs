//! Segment devices: where segment images physically live.
//!
//! The store writes to storage in two shapes: one large write per segment sealed in one
//! go ([`SegmentDevice::write_segment`] — the defining property of a log-structured
//! store), and, for a segment made durable while still open, a couple of small
//! sector-aligned ranges per persist point ([`SegmentDevice::write_ranges`] — the bytes
//! appended since the previous one; see [`crate::layout`]). Reads are small ranged reads
//! for serving individual pages plus whole-segment reads for cleaning and recovery; the
//! latter go through [`SegmentDevice::read_segment_into`], which fills a buffer the
//! caller owns, so the cleaner and recovery reuse a few segment-sized allocations instead
//! of taking (and page-faulting) a fresh one per segment. All methods take `&self`:
//! devices are internally synchronised so the concurrent store can serve page reads
//! without funnelling them through the write path's lock. Two implementations are
//! provided:
//!
//! * [`MemDevice`] — segments held in memory (one `RwLock` per slot); used by tests, the
//!   examples, and anywhere a volatile store is acceptable.
//! * [`FileDevice`] — a single preallocated file, one segment per slot; positional I/O
//!   (`pread`/`pwrite` on Unix, which needs no locking at all).
//!
//! Implement [`SegmentDevice`] to plug in anything else (an SSD partition, an object
//! store, a simulated flash device with erase counters, ...).
//!
//! ### Write-behind
//!
//! Only [`SegmentDevice::sync`] vouches for durability. [`FileDevice::write_segment`]
//! nevertheless asks the kernel to *start* writing the image back as soon as it is in
//! the page cache (Linux `sync_file_range(SYNC_FILE_RANGE_WRITE)`; advisory, result
//! ignored), so the dirty pages of the segments sealed between two syncs are already in
//! flight when the sync is issued and it waits for a tail instead of for all of them.
//! Ranged writes are not written behind: their callers sync at once. On other platforms
//! the call is a no-op and a sync pays for everything written since the previous one.

use crate::error::{Error, Result};
use crate::types::SegmentId;
use parking_lot::{Mutex, RwLock};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical geometry of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceGeometry {
    /// Size of each segment slot in bytes.
    pub segment_bytes: usize,
    /// Number of segment slots.
    pub num_segments: usize,
}

impl DeviceGeometry {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.segment_bytes as u64 * self.num_segments as u64
    }
}

/// Abstraction over the storage medium holding segment images.
///
/// Implementations must be internally synchronised (`&self` methods, `Send + Sync`):
/// the store issues concurrent ranged reads from many threads while others write
/// segments. Concurrent operations on *different* segment slots must not block each
/// other more than necessary; the store guarantees it never reads a slot that is
/// concurrently being written (its segment-pinning protocol, see `store::read_path`;
/// pages of a segment that is still open are served from memory, never from the slot).
pub trait SegmentDevice: Send + Sync {
    /// The device geometry.
    fn geometry(&self) -> DeviceGeometry;

    /// Read one whole segment image.
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>>;

    /// Read one whole segment image into `buf`, which afterwards holds exactly the
    /// image (`segment_bytes` long) whatever it held before. Implementations reuse
    /// `buf`'s allocation when it is large enough — the cleaner and recovery hand the
    /// same few buffers back again and again — and leave `buf` a valid (if unspecified)
    /// vector on error.
    ///
    /// The default replaces `buf` with the result of [`SegmentDevice::read_segment`],
    /// which is always correct and allocates per call: a wrapper that forwards reads
    /// should forward this method too.
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        *buf = self.read_segment(seg)?;
        Ok(())
    }

    /// Read `len` bytes starting at `offset` within a segment.
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>>;

    /// Write one whole segment image (must be exactly `segment_bytes` long). Like every
    /// write, it is durable only after the next [`SegmentDevice::sync`]; a device may
    /// start writing it back earlier (see the module docs on write-behind).
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()>;

    /// Write only the `dirty` byte ranges of a segment. `image` is the segment's whole
    /// current image (exactly `segment_bytes` long); for every `r` in `dirty` the device
    /// writes `image[r]` at offset `r.start` of the slot, **in the order given** — the
    /// store lists a persist point's payloads before the extent that references them
    /// (see [`crate::layout`]). Bytes outside the ranges keep whatever the slot holds.
    ///
    /// The default writes the whole image instead, which is always correct (the store
    /// only ever appends to an open segment's image, so the rest of `image` is what
    /// the slot already holds, or bytes nothing references yet): a wrapper that does
    /// not override this turns every persist point into a full segment write.
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        let _ = dirty;
        self.write_segment(seg, image)
    }

    /// Erase a segment (mark its slot blank). Optional: the default clears nothing, since
    /// a later `write_segment` will overwrite the slot anyway; `MemDevice` drops the
    /// allocation to return memory.
    fn erase_segment(&self, _seg: SegmentId) -> Result<()> {
        Ok(())
    }

    /// Flush any buffered writes to stable storage.
    fn sync(&self) -> Result<()>;

    /// Number of write calls performed, whole-segment and ranged alike (used by tests
    /// and the stats report).
    fn segment_writes(&self) -> u64;
}

fn check_bounds(geom: DeviceGeometry, seg: SegmentId, offset: u32, len: u32) -> Result<()> {
    if seg.index() >= geom.num_segments {
        return Err(Error::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "segment {seg} out of range (device has {})",
                geom.num_segments
            ),
        )));
    }
    if offset as usize + len as usize > geom.segment_bytes {
        return Err(Error::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "range [{offset}, +{len}) exceeds segment size {}",
                geom.segment_bytes
            ),
        )));
    }
    Ok(())
}

/// Validate the arguments of a segment or ranged write against the geometry.
fn check_write(
    geom: DeviceGeometry,
    seg: SegmentId,
    image: &[u8],
    dirty: &[Range<u32>],
) -> Result<()> {
    check_bounds(geom, seg, 0, 0)?;
    if image.len() != geom.segment_bytes {
        return Err(Error::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "segment image is {} bytes, expected {}",
                image.len(),
                geom.segment_bytes
            ),
        )));
    }
    for r in dirty {
        if r.start > r.end {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("inverted range [{}, {})", r.start, r.end),
            )));
        }
        check_bounds(geom, seg, r.start, r.end - r.start)?;
    }
    Ok(())
}

/// One lazily allocated in-memory segment slot.
type MemSlot = RwLock<Option<Box<[u8]>>>;

/// In-memory device: each segment slot is lazily allocated on first write and guarded by
/// its own `RwLock`, so reads of different slots (and concurrent reads of the same slot)
/// proceed in parallel.
#[derive(Debug)]
pub struct MemDevice {
    geometry: DeviceGeometry,
    slots: Box<[MemSlot]>,
    writes: AtomicU64,
}

impl MemDevice {
    /// Create a blank in-memory device.
    pub fn new(segment_bytes: usize, num_segments: usize) -> Self {
        Self {
            geometry: DeviceGeometry {
                segment_bytes,
                num_segments,
            },
            slots: (0..num_segments).map(|_| RwLock::new(None)).collect(),
            writes: AtomicU64::new(0),
        }
    }

    /// Bytes currently allocated (for tests asserting erase releases memory).
    pub fn allocated_bytes(&self) -> usize {
        self.slots.iter().filter(|s| s.read().is_some()).count() * self.geometry.segment_bytes
    }
}

impl SegmentDevice for MemDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }

    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_segment_into(seg, &mut buf)?;
        Ok(buf)
    }

    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        check_bounds(self.geometry, seg, 0, 0)?;
        buf.clear();
        match &*self.slots[seg.index()].read() {
            Some(data) => buf.extend_from_slice(data),
            None => buf.resize(self.geometry.segment_bytes, 0),
        }
        Ok(())
    }

    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        check_bounds(self.geometry, seg, offset, len)?;
        Ok(match &*self.slots[seg.index()].read() {
            Some(data) => data[offset as usize..(offset + len) as usize].to_vec(),
            None => vec![0u8; len as usize],
        })
    }

    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        check_write(self.geometry, seg, image, &[])?;
        *self.slots[seg.index()].write() = Some(image.to_vec().into_boxed_slice());
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        check_write(self.geometry, seg, image, dirty)?;
        let mut slot = self.slots[seg.index()].write();
        let data =
            slot.get_or_insert_with(|| vec![0u8; self.geometry.segment_bytes].into_boxed_slice());
        for r in dirty {
            let r = r.start as usize..r.end as usize;
            data[r.clone()].copy_from_slice(&image[r]);
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        check_bounds(self.geometry, seg, 0, 0)?;
        *self.slots[seg.index()].write() = None;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn segment_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// File-backed device: one preallocated file, segment `i` at byte offset
/// `i * segment_bytes`. On Unix, reads and writes use positional I/O and need no lock;
/// elsewhere a mutex serialises the seek+access pairs.
#[derive(Debug)]
pub struct FileDevice {
    geometry: DeviceGeometry,
    file: File,
    writes: AtomicU64,
    /// Serialises seek+read/write on platforms without positional file I/O.
    #[cfg_attr(unix, allow(dead_code))]
    seek_lock: Mutex<()>,
}

impl FileDevice {
    /// Create (or truncate) a device file of the given geometry.
    pub fn create<P: AsRef<Path>>(
        path: P,
        segment_bytes: usize,
        num_segments: usize,
    ) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let geometry = DeviceGeometry {
            segment_bytes,
            num_segments,
        };
        file.set_len(geometry.capacity_bytes())?;
        Ok(Self {
            geometry,
            file,
            writes: AtomicU64::new(0),
            seek_lock: Mutex::new(()),
        })
    }

    /// Open an existing device file, validating that its size matches the geometry.
    pub fn open<P: AsRef<Path>>(
        path: P,
        segment_bytes: usize,
        num_segments: usize,
    ) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let geometry = DeviceGeometry {
            segment_bytes,
            num_segments,
        };
        let len = file.metadata()?.len();
        if len != geometry.capacity_bytes() {
            return Err(Error::GeometryMismatch {
                expected: format!("{} bytes", geometry.capacity_bytes()),
                actual: format!("{len} bytes"),
            });
        }
        Ok(Self {
            geometry,
            file,
            writes: AtomicU64::new(0),
            seek_lock: Mutex::new(()),
        })
    }

    fn offset_of(&self, seg: SegmentId, offset: u32) -> u64 {
        seg.index() as u64 * self.geometry.segment_bytes as u64 + offset as u64
    }

    #[cfg(unix)]
    fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, pos)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.seek_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(pos))?;
        f.read_exact(buf)?;
        Ok(())
    }

    #[cfg(unix)]
    fn write_at(&self, pos: u64, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, pos)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_at(&self, pos: u64, buf: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _guard = self.seek_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(pos))?;
        f.write_all(buf)?;
        Ok(())
    }
}

/// Ask the kernel to start writing `len` bytes at `pos` of `file` back to the medium
/// now, without waiting for them: the write-behind of [`FileDevice::write_segment`] (see
/// the module docs). Purely a hint — durability is [`SegmentDevice::sync`]'s business
/// alone — so the result is ignored.
#[cfg(target_os = "linux")]
fn start_writeback(file: &File, pos: u64, len: usize) {
    use std::ffi::{c_int, c_uint};
    use std::os::fd::AsRawFd;
    extern "C" {
        fn sync_file_range(fd: c_int, offset: i64, nbytes: i64, flags: c_uint) -> c_int;
    }
    const SYNC_FILE_RANGE_WRITE: c_uint = 2;
    // SAFETY: `sync_file_range(2)` as declared by the C library every Linux target of
    // std links (`off64_t` is `i64` on all of them). It takes no pointers and touches no
    // memory of this process; `fd` is open for the whole call because `file` is
    // borrowed; any offset, length or flag value the kernel dislikes is an error
    // return, which is ignored.
    let _ = unsafe {
        sync_file_range(
            file.as_raw_fd(),
            pos as i64,
            len as i64,
            SYNC_FILE_RANGE_WRITE,
        )
    };
}

/// No write-behind off Linux: the next sync pays for the whole image.
#[cfg(not(target_os = "linux"))]
fn start_writeback(_file: &File, _pos: u64, _len: usize) {}

impl SegmentDevice for FileDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }

    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_segment_into(seg, &mut buf)?;
        Ok(buf)
    }

    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        check_bounds(self.geometry, seg, 0, 0)?;
        let len = self.geometry.segment_bytes;
        if buf.capacity() < len {
            // A zeroed allocation comes straight from the OS; growing `buf` would
            // fill it by hand only for the read to overwrite every byte.
            *buf = vec![0u8; len];
        } else {
            buf.resize(len, 0);
        }
        self.read_at(self.offset_of(seg, 0), buf)
    }

    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        check_bounds(self.geometry, seg, offset, len)?;
        let mut buf = vec![0u8; len as usize];
        let pos = self.offset_of(seg, offset);
        self.read_at(pos, &mut buf)?;
        Ok(buf)
    }

    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        check_write(self.geometry, seg, image, &[])?;
        let pos = self.offset_of(seg, 0);
        self.write_at(pos, image)?;
        start_writeback(&self.file, pos, image.len());
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        check_write(self.geometry, seg, image, dirty)?;
        for r in dirty {
            let pos = self.offset_of(seg, r.start);
            self.write_at(pos, &image[r.start as usize..r.end as usize])?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn segment_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A fault-injecting wrapper around any device, used to test that I/O failures surface
/// as errors instead of corrupting state (failure-injection tests live in the store and
/// in `tests/` at the workspace root).
#[derive(Debug)]
pub struct FlakyDevice<D: SegmentDevice> {
    inner: D,
    /// Segment writes remaining before the next injected failure (`None` = never fail).
    fail_after_writes: Mutex<Option<u64>>,
}

impl<D: SegmentDevice> FlakyDevice<D> {
    /// Wrap a device; the `fail_after_writes`-th subsequent write (0-based; a segment
    /// write or a ranged write each count once) and every write after it will fail with
    /// an I/O error until the budget is reset.
    pub fn new(inner: D, fail_after_writes: Option<u64>) -> Self {
        Self {
            inner,
            fail_after_writes: Mutex::new(fail_after_writes),
        }
    }

    /// Change the failure budget (e.g. heal the device mid-test).
    pub fn set_fail_after_writes(&self, budget: Option<u64>) {
        *self.fail_after_writes.lock() = budget;
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Spend one write (a segment write or one ranged write) of the failure budget.
    fn charge(&self, seg: SegmentId) -> Result<()> {
        if let Some(budget) = self.fail_after_writes.lock().as_mut() {
            if *budget == 0 {
                return Err(Error::Io(std::io::Error::other(format!(
                    "injected write failure on segment {seg}"
                ))));
            }
            *budget -= 1;
        }
        Ok(())
    }
}

impl<D: SegmentDevice> SegmentDevice for FlakyDevice<D> {
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
        self.charge(seg)?;
        self.inner.write_segment(seg, image)
    }

    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        self.charge(seg)?;
        self.inner.write_ranges(seg, image, dirty)
    }

    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.inner.erase_segment(seg)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lss-device-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn mem_device_roundtrip() {
        let dev = MemDevice::new(1024, 4);
        assert_eq!(dev.geometry().capacity_bytes(), 4096);
        let image = vec![7u8; 1024];
        dev.write_segment(SegmentId(2), &image).unwrap();
        assert_eq!(dev.read_segment(SegmentId(2)).unwrap(), image);
        assert_eq!(dev.read_range(SegmentId(2), 10, 4).unwrap(), vec![7u8; 4]);
        assert_eq!(dev.segment_writes(), 1);
    }

    /// Ranged writes land exactly the dirty ranges — on a blank slot and over an
    /// existing image — on both devices.
    #[test]
    fn write_ranges_touches_only_the_dirty_bytes() {
        let path = temp_path("ranges");
        let file = FileDevice::create(&path, 1024, 2).unwrap();
        let mem = MemDevice::new(1024, 2);
        let devices: [&dyn SegmentDevice; 2] = [&mem, &file];
        for dev in devices {
            let image: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8 + 1).collect();
            dev.write_ranges(SegmentId(1), &image, &[900..1024, 0..100, 500..500])
                .unwrap();
            let got = dev.read_segment(SegmentId(1)).unwrap();
            assert_eq!(got[..100], image[..100]);
            assert_eq!(got[900..], image[900..]);
            assert!(got[100..900].iter().all(|&b| b == 0));
            // Over an existing image: bytes outside the ranges keep their old value.
            let newer = vec![0xEEu8; 1024];
            dev.write_ranges(SegmentId(1), &newer, &[100..150, 150..200])
                .unwrap();
            let got = dev.read_segment(SegmentId(1)).unwrap();
            assert_eq!(got[..100], image[..100]);
            assert!(got[100..200].iter().all(|&b| b == 0xEE));
            assert_eq!(dev.segment_writes(), 2);
            assert!(dev
                .write_ranges(SegmentId(1), &newer, &[0..4, 1000..1025])
                .is_err());
            assert!(dev
                .write_ranges(SegmentId(1), &newer[..10], &[0..4, 4..8])
                .is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A wrapper implementing only the required methods: it takes the trait's defaults
    /// for `write_ranges` and `read_segment_into`.
    struct RequiredOnly(MemDevice);
    impl SegmentDevice for RequiredOnly {
        fn geometry(&self) -> DeviceGeometry {
            self.0.geometry()
        }
        fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
            self.0.read_segment(seg)
        }
        fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
            self.0.read_range(seg, offset, len)
        }
        fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
            self.0.write_segment(seg, image)
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
        fn segment_writes(&self) -> u64 {
            self.0.segment_writes()
        }
    }

    /// A device that implements only `write_segment` gets whole-image persist points.
    #[test]
    fn write_ranges_defaults_to_a_whole_segment_write() {
        let dev = RequiredOnly(MemDevice::new(256, 1));
        let image = vec![5u8; 256];
        dev.write_ranges(SegmentId(0), &image, &[0..8, 8..16])
            .unwrap();
        assert_eq!(dev.read_segment(SegmentId(0)).unwrap(), image);
    }

    /// `read_segment_into` is `read_segment` into the caller's buffer, on every device:
    /// same bytes for written and blank slots whatever the buffer held, no reallocation
    /// once the buffer is segment-sized (native implementations), and a bounds error
    /// that leaves the buffer usable.
    #[test]
    fn read_segment_into_matches_read_segment_and_reuses_the_buffer() {
        let path = temp_path("read-into");
        let file = FileDevice::create(&path, 1024, 3).unwrap();
        let mem = MemDevice::new(1024, 3);
        let flaky = FlakyDevice::new(MemDevice::new(1024, 3), None);
        let default = RequiredOnly(MemDevice::new(1024, 3));
        let devices: [(&dyn SegmentDevice, bool); 4] = [
            (&mem, true),
            (&file, true),
            (&flaky, true),
            (&default, false),
        ];
        for (dev, native) in devices {
            let image: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8 + 1).collect();
            dev.write_segment(SegmentId(1), &image).unwrap();
            let mut buf = Vec::new();
            dev.read_segment_into(SegmentId(1), &mut buf).unwrap();
            assert_eq!(buf, image);
            assert_eq!(buf, dev.read_segment(SegmentId(1)).unwrap());
            // Second call, stale contents: a blank slot reads as zeros, in place.
            let (ptr, capacity) = (buf.as_ptr(), buf.capacity());
            dev.read_segment_into(SegmentId(2), &mut buf).unwrap();
            assert_eq!(buf, dev.read_segment(SegmentId(2)).unwrap());
            assert_eq!(buf, vec![0u8; 1024]);
            if native {
                assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, capacity));
            }
            // A shorter or longer buffer ends up exactly one image long too.
            for mut odd in [vec![9u8; 10], vec![9u8; 3000]] {
                dev.read_segment_into(SegmentId(1), &mut odd).unwrap();
                assert_eq!(odd, image);
            }
            // Out of range: an error, and the buffer still serves the next read.
            assert!(dev.read_segment_into(SegmentId(3), &mut buf).is_err());
            dev.read_segment_into(SegmentId(1), &mut buf).unwrap();
            assert_eq!(buf, image);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_device_unwritten_segments_read_as_zero() {
        let dev = MemDevice::new(512, 2);
        assert_eq!(dev.read_segment(SegmentId(0)).unwrap(), vec![0u8; 512]);
        assert_eq!(dev.read_range(SegmentId(1), 100, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn mem_device_bounds_checks() {
        let dev = MemDevice::new(512, 2);
        assert!(dev.read_segment(SegmentId(5)).is_err());
        assert!(dev.read_range(SegmentId(0), 500, 100).is_err());
        assert!(dev.write_segment(SegmentId(0), &[0u8; 100]).is_err());
    }

    #[test]
    fn mem_device_erase_releases_memory() {
        let dev = MemDevice::new(1024, 4);
        dev.write_segment(SegmentId(0), &vec![1u8; 1024]).unwrap();
        assert_eq!(dev.allocated_bytes(), 1024);
        dev.erase_segment(SegmentId(0)).unwrap();
        assert_eq!(dev.allocated_bytes(), 0);
        assert_eq!(dev.read_segment(SegmentId(0)).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn mem_device_supports_concurrent_readers() {
        let dev = std::sync::Arc::new(MemDevice::new(4096, 8));
        for i in 0..8u32 {
            dev.write_segment(SegmentId(i), &vec![i as u8; 4096])
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let seg = SegmentId((t + round) % 8);
                    let got = dev.read_range(seg, 16, 64).unwrap();
                    assert!(got.iter().all(|&b| b == seg.0 as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn file_device_roundtrip_and_reopen() {
        let path = temp_path("roundtrip");
        let image = |seg: u32| -> Vec<u8> { (0..1024u32).map(|i| (i % 251 + seg) as u8).collect() };
        {
            let dev = FileDevice::create(&path, 1024, 8).unwrap();
            // Whole-image writes start their own writeback (write-behind); the sync
            // after them still succeeds and is still what makes them durable.
            for seg in [3, 0, 7] {
                dev.write_segment(SegmentId(seg), &image(seg)).unwrap();
            }
            dev.sync().unwrap();
            assert_eq!(dev.read_segment(SegmentId(3)).unwrap(), image(3));
            assert_eq!(
                dev.read_range(SegmentId(3), 5, 3).unwrap(),
                image(3)[5..8].to_vec()
            );
        }
        {
            let dev = FileDevice::open(&path, 1024, 8).unwrap();
            let mut buf = Vec::new();
            for seg in [0, 3, 7] {
                dev.read_segment_into(SegmentId(seg), &mut buf).unwrap();
                assert_eq!(buf, image(seg), "segment {seg} after reopen");
            }
            assert_eq!(dev.read_segment(SegmentId(1)).unwrap(), vec![0u8; 1024]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_geometry_mismatch_detected() {
        let path = temp_path("geom");
        {
            FileDevice::create(&path, 1024, 8).unwrap();
        }
        let err = FileDevice::open(&path, 2048, 8).unwrap_err();
        assert!(matches!(err, Error::GeometryMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_bounds_checks() {
        let path = temp_path("bounds");
        let dev = FileDevice::create(&path, 512, 2).unwrap();
        assert!(dev.read_segment(SegmentId(9)).is_err());
        assert!(dev.write_segment(SegmentId(0), &[1u8; 13]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flaky_device_injects_failures_after_budget() {
        let dev = FlakyDevice::new(MemDevice::new(256, 4), Some(2));
        let image = vec![1u8; 256];
        dev.write_segment(SegmentId(0), &image).unwrap();
        dev.write_segment(SegmentId(1), &image).unwrap();
        let err = dev.write_segment(SegmentId(2), &image).unwrap_err();
        assert!(err.to_string().contains("injected write failure"));
        // Reads keep working, and healing the device restores writes.
        assert_eq!(dev.read_segment(SegmentId(0)).unwrap(), image);
        dev.set_fail_after_writes(None);
        dev.write_segment(SegmentId(2), &image).unwrap();
        assert_eq!(dev.inner().segment_writes(), 3);
    }

    #[test]
    fn store_surfaces_injected_write_failures_without_losing_durable_data() {
        use crate::policy::PolicyKind;
        use crate::store::LogStore;
        use crate::StoreConfig;
        let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
        // Allow a handful of successful segment writes, then fail everything.
        let device = FlakyDevice::new(
            MemDevice::new(config.segment_bytes, config.num_segments),
            Some(4),
        );
        let store = LogStore::open_with_device(config.clone(), Box::new(device)).unwrap();
        let payload = vec![7u8; config.page_bytes];
        let mut first_error = None;
        for i in 0..(config.physical_pages() as u64) {
            if let Err(e) =
                store.put(i, &payload).and_then(
                    |()| {
                        if i % 64 == 63 {
                            store.flush()
                        } else {
                            Ok(())
                        }
                    },
                )
            {
                first_error = Some((i, e));
                break;
            }
        }
        let (failed_at, err) = first_error.expect("the injected fault must eventually surface");
        assert!(matches!(err, Error::Io(_)), "unexpected error kind: {err}");
        // Pages flushed before the fault are still readable.
        let durable = failed_at.saturating_sub(failed_at % 64);
        for i in (0..durable).step_by(17) {
            assert!(
                store.get(i).unwrap().is_some(),
                "durable page {i} lost after I/O fault"
            );
        }
    }
}
