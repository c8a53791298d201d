//! [`LogStore`]: the public facade of the log-structured page store.
//!
//! Since the concurrent-pipeline refactor the store is **internally synchronised** and
//! every operation takes `&self`; since the sharded-write-path refactor the write side
//! is further split into **independent per-stream append pipelines** so that writers on
//! different streams never serialise behind one mutex. Wrap the store in an `Arc` to
//! share it across threads.
//!
//! ### The layers
//!
//! * **Read path** (`read_path`) — `get`/`contains` touch only concurrently readable
//!   state: the sharded page table, the owning stream's sort buffer behind an `RwLock`,
//!   the open-segment builders, and the device (whose trait is `&self`). A per-segment
//!   *pin* protocol makes device reads safe against concurrent segment reuse; see the
//!   `read_path` docs. Reads never take a write-side lock and never wait for cleaning.
//! * **Write path** (`write_path`) — `put`/`delete` route by page-id hash to one of
//!   [`StoreConfig::write_streams`](crate::StoreConfig::write_streams) write streams.
//!   Each stream owns its slice of the sort buffer and its open output segments
//!   (one per output log). A write only buffers its page, under the shard's buffer
//!   lock; a full batch is frozen and handed to the store's write-behind worker
//!   (`write_behind`), which drains it under the *stream lock* — `up2` assignment,
//!   separation sorting, payload copies into builders and segment image writes all
//!   happen there. The shared central state (segment table, policy, free-space
//!   accounting) is touched in short, bounded critical sections: segment
//!   allocation, seal bookkeeping, and batched per-page accounting.
//! * **Cleaning** (`gc_driver`) — one cycle at a time, always on the calling thread:
//!   the write-behind worker's paced cycle after each batch it appends, a drain (the
//!   worker's or a flush's) that ran out of segments, or [`LogStore::clean_now`].
//!   Victim images are read and parsed one after another with no store lock held, and
//!   relocations are committed with a per-page atomic *compare-and-swap* on the page
//!   table ([`crate::mapping::ShardedPageTable::replace_if_current`]). A released
//!   victim waits in the quarantine, and returns to the free list once a sync has
//!   landed after its relocations were written and no reader pins remain.
//!
//! ### One mutator
//!
//! Every drain, cleaning cycle, seal and sync point runs under the write-behind *job
//! lock*: held by the worker while it runs a job, and by a flush, checkpoint or
//! [`LogStore::clean_now`] while it runs the queued jobs and then its own work. So the
//! store has one mutator at a time; writers only buffer, and readers take no write-side
//! lock at all. What readers still need from the mutator — reader pins,
//! pin-and-revalidate, the page-table compare-and-swap, the open-segment read index and
//! image-pending seals — is listed in `gc_driver`'s module docs.
//!
//! ### Lock ordering
//!
//! To stay deadlock-free, locks nest in this order (any prefix may be skipped, never
//! reordered): `write-behind job lock → stream lock → wounded-seal lock → central
//! lock`. The open-segment read index and page-table shards are leaves: no other lock
//! is acquired while holding them; so is a stream's buffer lock, except that a
//! hand-off takes it under the write-behind queue lock, which is taken under no other
//! store lock.
//!
//! ### Durability model
//!
//! Pages buffered in a sort-buffer shard, or appended to an open segment since its last
//! persist point, are volatile; they become durable when the extent holding them is
//! written to the device and the device is synced. [`LogStore::flush`] is the durability
//! point: it appends every batch handed to the write-behind worker, drains the rest of
//! every stream, writes each open segment's unpersisted tail as a new
//! extent (kilobytes, not a segment image — see [`crate::layout`]) and syncs the device.
//! It does **not** seal: a segment keeps filling across flushes and is sealed only when
//! it is full, when its stream needs the open-log slot, or when a checkpoint asks. After
//! a crash, [`LogStore::recover_with_device`] rebuilds the page table by scanning segment
//! images — each slot's extent chain up to the first extent that does not validate;
//! anything not flushed is lost (standard LFS semantics), and a segment that was open
//! comes back sealed. Cleaning never shrinks the durable window: a victim's slot is not
//! reused until the relocated copies of its live pages have been synced, and a relocated
//! copy keeps its original per-page write sequence so it can never shadow a newer user
//! write during recovery.

mod gc_driver;
mod read_path;
mod write_behind;
mod write_path;

pub(crate) use gc_driver::GcControl;
pub use gc_driver::{GcPhase, GcPhaseHook};

use crate::cleaner::CleaningReport;
use crate::config::StoreConfig;
use crate::device::{MemDevice, SegmentDevice};
use crate::error::{Error, Result};
use crate::freq::{PageHeat, Up2Average};
use crate::layout::{self, SegmentBuilder};
use crate::mapping::{PageTable, ShardedPageTable};
use crate::policy::{CleaningPolicy, SegmentStats};
use crate::segment::SegmentTable;
use crate::stats::{AtomicStats, StoreStats};
use crate::types::{
    PageId, PageLocation, PageWriteInfo, SealSeq, SegmentId, UpdateTick, WriteOrigin, WriteSeq,
};
use crate::util::{mix64, FxHashMap};
use crate::write_buffer::{PendingPage, WriteBuffer};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use write_behind::WriteBehind;

/// A segment currently being filled in memory.
///
/// The builder is shared with the read path through the store's `open_reads` index so
/// `get` can serve pages that live in a not-yet-sealed segment without taking any
/// write-side lock.
pub(crate) struct OpenSegment {
    pub(crate) id: SegmentId,
    pub(crate) builder: Arc<RwLock<SegmentBuilder>>,
    pub(crate) up2_avg: Up2Average,
    pub(crate) log: u16,
    /// Stream-local LRU tick, used to bound how many logs a stream keeps open at once.
    pub(crate) last_used: u64,
    /// Seal sequence reserved at the segment's first persist point (`None` until then);
    /// every extent written for the segment carries it and the seal happens under it.
    pub(crate) seq: Option<SealSeq>,
}

/// What the device still lacks of a sealed segment's image: the shared builder — still
/// registered in `open_reads`, final extent rendered — plus the ranges to write. Built
/// by `write_path::seal_open`; if the write fails it is parked in the store's
/// `wounded_seals` until a later sync point lands it.
pub(crate) struct SealTail {
    pub(crate) id: SegmentId,
    pub(crate) builder: Arc<RwLock<SegmentBuilder>>,
    /// The unwritten tail of a segment that had persist points; `None` for a
    /// never-persisted segment, which goes out as its whole image.
    pub(crate) dirty: Option<[Range<u32>; 2]>,
}

impl std::fmt::Debug for OpenSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenSegment")
            .field("id", &self.id)
            .field("entries", &self.builder.read().len())
            .field("log", &self.log)
            .finish()
    }
}

/// The mutable state of one write stream, guarded by the stream lock.
#[derive(Default)]
pub(crate) struct StreamState {
    /// Open user-origin output segment per output log.
    pub(crate) open: FxHashMap<u16, OpenSegment>,
    /// Monotonic counter stamping [`OpenSegment::last_used`].
    pub(crate) use_tick: u64,
}

/// One independent write stream: a slice of the sort buffer plus its open segments.
///
/// Pages are routed to streams by page-id hash ([`LogStore::stream_of_page`]), so all
/// writes to a given page — including its tombstone — serialise on the same stream lock
/// and per-page ordering is preserved without any global lock.
pub(crate) struct WriteStream {
    /// This stream's sort-buffer shard. Behind its own `RwLock` so the read path can
    /// consult it without the stream lock; a push takes only this lock, and so does a
    /// hand-off freezing the filling batch.
    pub(crate) buffer: RwLock<WriteBuffer>,
    /// Open segments; the stream lock. It serialises drains, the only thing that
    /// remaps the stream's user pages.
    pub(crate) state: Mutex<StreamState>,
}

/// The GC output streams of one cleaning cycle: open segments the cycle relocates live
/// pages into. The running cycle owns its instance (no lock needed — nothing else can
/// reach it) and seals its outputs in its final phase, or on the spot if it aborts.
#[derive(Default)]
pub(crate) struct GcStreams {
    pub(crate) open: FxHashMap<u16, OpenSegment>,
}

/// Segment-sized buffers waiting for their next use, so that steady-state cleaning and
/// sealing allocate (and page-fault) none: victim images go round between the cleaner's
/// reads, builder images between open segments. Bounded by what a cycle and the
/// streams can have in flight (`write_streams + 2`, see [`StoreCore::park_image`]); a
/// buffer returned beyond that is simply freed.
#[derive(Default)]
struct ImagePool {
    /// All-zero images, as a [`SegmentBuilder`] needs them
    /// ([`SegmentBuilder::into_image`] hands them back that way).
    blank: Vec<Vec<u8>>,
    /// Images still holding a victim's bytes: a segment read overwrites every byte, so
    /// the cleaner's reads take these as they are.
    stale: Vec<Vec<u8>>,
}

/// Everything a checkpoint records, captured in one coherent critical section (see
/// [`LogStore::checkpoint_snapshot`]).
pub(crate) struct CheckpointSnapshot {
    /// Per-shard page-table snapshots, indexed by shard. `None` marks a shard that was
    /// clean since the previous checkpoint and is omitted from an incremental capture
    /// (the previous journal entry for it still holds).
    pub(crate) shards: Vec<Option<Vec<(PageId, PageLocation)>>>,
    pub(crate) sealed: Vec<SegmentStats>,
    /// Per-segment tombstone space charge (only non-zero entries), captured in the
    /// same central section as `sealed` so the two are coherent. Recorded in each
    /// segment's checkpoint record so recovery rebuilds the accounting exactly.
    pub(crate) tombstone_bytes: Vec<(SegmentId, u64)>,
    /// Seal-sequence frontier: every segment this snapshot describes — and the home of
    /// every mapping entry in it — was sealed with `seal_seq <= frontier`, so recovery
    /// only needs to replay segments sealed after it.
    pub(crate) frontier: SealSeq,
    pub(crate) next_seal_seq: SealSeq,
    pub(crate) unow: UpdateTick,
    pub(crate) next_write_seq: WriteSeq,
    /// The page-table dirty bits this capture consumed; re-marked if persisting fails
    /// so the next checkpoint rewrites the affected shards.
    pub(crate) dirty_mask: u64,
}

/// Book-keeping for the incremental checkpoint journal: which file the store has been
/// checkpointing to, and whether its base record is on disk.
#[derive(Default)]
struct CheckpointTracker {
    path: Option<std::path::PathBuf>,
    base_written: bool,
}

/// The shared coordination layer of the sharded write path, guarded by the central lock.
///
/// Critical sections on this lock are short and bounded — allocation, seal bookkeeping,
/// victim selection and batched accounting — never payload copies or device I/O.
pub(crate) struct CentralState {
    /// Per-segment bookkeeping: free list, quarantine, seal sequences, `A`/`C`/`up2`.
    pub(crate) segments: SegmentTable,
    /// The cleaning policy (victim selection, log routing, separation keys).
    pub(crate) policy: Box<dyn CleaningPolicy>,
}

/// The log-structured page store.
///
/// A handle on the store's shared state, which its write-behind worker thread (see
/// `write_behind`) shares too. Dropping the store joins the worker.
pub struct LogStore {
    core: Arc<StoreCore>,
    /// Bytes the recovery that built this store read from the device (see
    /// [`StoreStats::recovery_bytes_read`]): a fact of how it was opened, kept on the
    /// handle rather than among the shared counters.
    recovery_bytes_read: u64,
}

/// Everything a [`LogStore`] shares with its write-behind worker.
pub(crate) struct StoreCore {
    config: StoreConfig,
    policy_name: &'static str,
    device: Box<dyn SegmentDevice>,
    /// Sharded concurrent page table: `get` takes `&self` and locks one shard.
    mapping: ShardedPageTable,
    /// The independent write streams (see [`WriteStream`]).
    streams: Box<[WriteStream]>,
    /// The shared coordination layer (see [`CentralState`]).
    central: Mutex<CentralState>,
    /// Sealed segments whose final device write failed (an I/O error during the seal).
    /// The builder and the ranges still to write are parked here and retried before
    /// every sync point; until they land, the segment stays image-pending (never a
    /// cleaning victim), its builder stays in `open_reads` (pages stay readable), and
    /// `flush` keeps failing rather than falsely reporting durability.
    wounded_seals: Mutex<Vec<SealTail>>,
    /// Builders of currently open segments, readable without any write-side lock.
    open_reads: RwLock<FxHashMap<SegmentId, Arc<RwLock<SegmentBuilder>>>>,
    /// Recycled segment images (see [`ImagePool`]). A leaf lock, held for a push or pop.
    images: Mutex<ImagePool>,
    /// Per-segment reader pin counts (see `read_path`); quarantined victims are only
    /// reused once their pin count is zero.
    pins: Box<[AtomicU32]>,
    /// Lock-free operation counters.
    stats: AtomicStats,
    /// Decayed per-page write-heat sketch, bumped on every `put`/`delete` and sampled
    /// by the cleaner (outside any lock) to route survivors into temperature-classed
    /// GC output streams. Purely advisory: collisions or staleness only cost placement
    /// efficiency, never correctness.
    heat: PageHeat,
    /// The update-count clock (one tick per user write or delete).
    unow: AtomicU64,
    /// Next per-page write sequence number. Global and atomic: per-page monotonicity
    /// follows from all writes to a page being serialised on its stream lock.
    next_write_seq: AtomicU64,
    /// Mirror of the segment table's free count, readable without the central lock (used
    /// by the cleaning trigger check on the hot write path).
    approx_free: AtomicUsize,
    /// Count of currently open output segments across all streams (user and GC): the
    /// cleaning trigger is raised when many output streams are open (multi-log keeps up
    /// to 32) so partially filled open segments never starve allocation.
    open_count: AtomicUsize,
    /// Cleaning coordination: the phase hook's cycle token, the paced check's hint.
    pub(crate) gc: GcControl,
    /// Test/diagnostic instrumentation invoked at every cleaning-cycle phase boundary
    /// (see [`GcPhase`]); `None` in production.
    gc_phase_hook: RwLock<Option<GcPhaseHook>>,
    /// Incremental-checkpoint journal state (see [`CheckpointTracker`]). Taken *before*
    /// the write-behind job lock in [`LogStore::checkpoint_log_to`], serialising
    /// checkpoints against each other without widening any existing critical section.
    ckpt: Mutex<CheckpointTracker>,
    /// Seal-seq frontier of the last *committed* checkpoint (0 = none). The cleaner
    /// reads it (relaxed; staleness only delays a drop) to decide when a victim's
    /// tombstones are checkpoint-covered and may be dropped instead of re-emitted.
    ckpt_frontier: AtomicU64,
    /// The job queue and thread that append handed-off batches (see `write_behind`).
    write_behind: WriteBehind,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = &self.core;
        f.debug_struct("LogStore")
            .field("policy", &core.policy_name)
            .field("write_streams", &core.streams.len())
            .field("live_pages", &core.mapping.len())
            .field("free_segments", &core.approx_free.load(Ordering::Relaxed))
            .field("unow", &core.unow.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        self.core.write_behind.stop();
    }
}

impl LogStore {
    /// Open a fresh store backed by an in-memory device.
    pub fn open_in_memory(config: StoreConfig) -> Result<Self> {
        let device = MemDevice::new(config.segment_bytes, config.num_segments);
        Self::open_with_device(config, Box::new(device))
    }

    /// Open a fresh store on the given device. Existing data on the device is ignored
    /// (use [`LogStore::recover_with_device`] to rebuild state from a previous run).
    pub fn open_with_device(config: StoreConfig, device: Box<dyn SegmentDevice>) -> Result<Self> {
        config.validate()?;
        let geom = device.geometry();
        if geom.segment_bytes != config.segment_bytes || geom.num_segments != config.num_segments {
            return Err(Error::GeometryMismatch {
                expected: format!(
                    "{} segments x {} bytes",
                    config.num_segments, config.segment_bytes
                ),
                actual: format!(
                    "{} segments x {} bytes",
                    geom.num_segments, geom.segment_bytes
                ),
            });
        }
        let policy = config.policy.build();
        let policy_name = policy.name();
        let num_segments = config.num_segments;
        let streams = config.write_streams.max(1);
        let core = StoreCore {
            policy_name,
            mapping: ShardedPageTable::new(),
            streams: (0..streams)
                .map(|_| WriteStream {
                    buffer: RwLock::new(WriteBuffer::new(config.absorb_updates_in_buffer)),
                    state: Mutex::new(StreamState::default()),
                })
                .collect(),
            central: Mutex::new(CentralState {
                segments: SegmentTable::new(num_segments),
                policy,
            }),
            wounded_seals: Mutex::new(Vec::new()),
            open_reads: RwLock::new(FxHashMap::default()),
            images: Mutex::new(ImagePool::default()),
            pins: (0..num_segments).map(|_| AtomicU32::new(0)).collect(),
            stats: AtomicStats::default(),
            heat: PageHeat::for_physical_pages(config.physical_pages()),
            unow: AtomicU64::new(0),
            next_write_seq: AtomicU64::new(1),
            approx_free: AtomicUsize::new(num_segments),
            open_count: AtomicUsize::new(0),
            gc: GcControl::new(),
            gc_phase_hook: RwLock::new(None),
            ckpt: Mutex::new(CheckpointTracker::default()),
            ckpt_frontier: AtomicU64::new(0),
            write_behind: WriteBehind::new(streams),
            device,
            config,
        };
        Ok(Self {
            core: Arc::new(core),
            recovery_bytes_read: 0,
        })
    }

    /// Rebuild a store from an existing device by scanning every segment image
    /// (see [`crate::recovery`]). Pages that were never flushed before the previous
    /// process exited are not recovered.
    pub fn recover_with_device(
        config: StoreConfig,
        device: Box<dyn SegmentDevice>,
    ) -> Result<Self> {
        crate::recovery::recover(config, device)
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Write (or overwrite) a page.
    ///
    /// The page is buffered and the call returns: appending a full sort-buffer batch,
    /// and any cleaning that needs, is the write-behind worker's job. An error a
    /// background job hit is returned by the next `put`, `delete` or `flush`, once; a
    /// put that returns an error may or may not have buffered its page.
    pub fn put(&self, page: PageId, data: &[u8]) -> Result<()> {
        let core = &self.core;
        let max = layout::max_single_payload(core.config.segment_bytes);
        if data.len() > max {
            return Err(Error::PageTooLarge {
                page,
                size: data.len(),
                max,
            });
        }
        core.unow.fetch_add(1, Ordering::Relaxed);
        if core.config.gc_temperature_classes > 1 {
            // The sketch is only consulted by classed GC output; with one class the
            // put path stays free of its per-write atomics.
            core.heat.record(page);
        }
        AtomicStats::bump(&core.stats.user_pages_written);
        AtomicStats::add(&core.stats.user_bytes_written, data.len() as u64);
        let pending = PendingPage {
            info: PageWriteInfo {
                page,
                size: data.len() as u32,
                up2: 0,
                exact_freq: None,
                origin: WriteOrigin::User,
            },
            data: Some(Bytes::copy_from_slice(data)),
        };
        write_path::submit(core, pending)
    }

    /// Delete a page. Subsequent reads return `None`; the space its last version occupied
    /// becomes reclaimable. Buffered like a [`LogStore::put`].
    pub fn delete(&self, page: PageId) -> Result<()> {
        let core = &self.core;
        core.unow.fetch_add(1, Ordering::Relaxed);
        if core.config.gc_temperature_classes > 1 {
            core.heat.record(page);
        }
        AtomicStats::bump(&core.stats.user_pages_written);
        let pending = PendingPage {
            info: PageWriteInfo {
                page,
                size: 0,
                up2: 0,
                exact_freq: None,
                origin: WriteOrigin::User,
            },
            data: None,
        };
        write_path::submit(core, pending)
    }

    /// Read the current version of a page. Returns `None` if the page does not exist or
    /// has been deleted.
    ///
    /// Takes `&self` and never acquires a write-side lock: reads proceed concurrently
    /// with writes on every stream and with an in-flight cleaning cycle.
    pub fn get(&self, page: PageId) -> Result<Option<Bytes>> {
        read_path::get(&self.core, page)
    }

    /// True if the page currently exists (buffered or stored).
    pub fn contains(&self, page: PageId) -> bool {
        read_path::contains(&self.core, page)
    }

    /// The durability point: drain every stream's sort buffer, write what each open
    /// segment gained since its last persist point, and sync the device. When it
    /// returns, every `put`/`delete` that returned before the call survives a crash.
    ///
    /// The flush does the draining itself: it waits out the batch the write-behind
    /// worker is appending, if any, and appends every batch still queued, in order,
    /// before the rest of each stream's buffer. An error a background job hit is
    /// returned first (once); flush again to retry.
    ///
    /// A flush is a *persist point*, not a seal. Each open segment with unpersisted
    /// entries appends one extent to its on-device chain — two small sector-aligned
    /// writes (new payloads, then the extent that references them; see
    /// [`crate::layout`]) — and **stays open**, so a commit costs the bytes it added,
    /// not one `segment_bytes` image per open segment, and segments reach the cleaner
    /// full. Segments are sealed by the write path when full (or when a stream runs
    /// over its open-log cap) and by checkpoints
    /// ([`LogStore::checkpoint_log_to`]), never here. Wounded seals are retried before
    /// the sync, and the quarantine is reaped after it.
    pub fn flush(&self) -> Result<()> {
        write_path::flush(&self.core)
    }

    /// Run one cleaning cycle right now, regardless of the free-segment trigger.
    /// Returns what was accomplished.
    ///
    /// Like a flush, the call takes the write-behind job lock: it waits out the job the
    /// worker is running, runs the queued ones, then the cycle. So one cycle runs at a
    /// time, and concurrent callers serialise. The paced check that follows is owed to
    /// the next put.
    pub fn clean_now(&self) -> Result<CleaningReport> {
        let core = &self.core;
        let _running = core.write_behind.run_queued(core)?;
        core.write_behind.owe_pacing();
        gc_driver::run_cleaning_cycle(core)
    }

    /// Install (or clear, with `None`) a hook invoked at every phase boundary of every
    /// cleaning cycle. **Test/diagnostic instrumentation**: a blocking hook pauses the
    /// cycle at exactly that boundary, which is how the deterministic cleaner-race
    /// tests interleave a cycle with foreground traffic at precise points. The
    /// write-behind job lock is held while the hook runs (no other store lock is): a
    /// paused cycle holds off every drain, flush, checkpoint and other cycle, while
    /// reads, and puts short of backpressure, go on. The hook must not call back into
    /// anything that takes that lock. Cycles the write-behind worker runs call it on
    /// the worker's thread.
    pub fn set_gc_phase_hook(&self, hook: Option<GcPhaseHook>) {
        *self.core.gc_phase_hook.write() = hook;
    }

    /// Snapshot of the operational statistics accumulated so far, including the live
    /// per-segment emptiness histogram (see
    /// [`StoreStats::emptiness_histogram`](crate::StoreStats::emptiness_histogram)).
    ///
    /// Like any monitoring read it does not wait for the write-behind worker: a batch
    /// being appended, and the cleaning it runs, may be partly counted. After a
    /// [`LogStore::flush`] by the only writer, the counts are those of every write made
    /// before it.
    pub fn stats(&self) -> StoreStats {
        let core = &self.core;
        let mut stats = core.stats.snapshot();
        stats.recovery_bytes_read = self.recovery_bytes_read;
        let central = core.central.lock();
        let (hist, sealed, live) = central
            .segments
            .emptiness_histogram(crate::stats::EMPTINESS_HISTOGRAM_BINS);
        stats.emptiness_histogram = hist;
        stats.sealed_segments = sealed;
        stats.sealed_live_bytes = live;
        stats.quarantined_segments = central.segments.quarantine_len() as u64;
        if core.config.gc_temperature_classes > 1 {
            stats.gc_class_segments = central
                .segments
                .sealed_counts_by_temperature(core.config.gc_temperature_classes);
        }
        stats
    }

    /// Reset statistics (e.g. after a load phase, so that a measurement phase starts
    /// from zero as the paper's evaluation does).
    pub fn reset_stats(&self) {
        self.core.stats.reset();
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.core.config
    }

    /// Name of the active cleaning policy.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy_name
    }

    /// Number of independent write streams this store shards its write path into.
    pub fn write_stream_count(&self) -> usize {
        self.core.streams.len()
    }

    /// The write stream a page routes to (diagnostic; stable for the store's lifetime).
    pub fn stream_of_page(&self, page: PageId) -> usize {
        self.core.stream_of_page(page)
    }

    /// The update-count clock (one tick per user write or delete).
    pub fn unow(&self) -> UpdateTick {
        self.core.unow()
    }

    /// Number of live pages.
    pub fn live_pages(&self) -> usize {
        self.core.mapping.len()
    }

    /// Every live page id, in no particular order.
    ///
    /// Cost is proportional to the *live* page count, never to the width of the id
    /// space — which is what lets layered allocators (e.g. the KV layer's reopen sweep)
    /// reclaim stragglers from a sparsely used partition of the 2⁶⁴ id space. Like any
    /// concurrent gauge, the enumeration may miss pages written after the call started.
    pub fn live_page_ids(&self) -> Vec<PageId> {
        self.core.mapping.page_ids()
    }

    /// Bytes of live page payloads.
    pub fn live_bytes(&self) -> u64 {
        self.core.mapping.live_bytes()
    }

    /// Number of free segments (excluding quarantined victims awaiting reuse).
    pub fn free_segments(&self) -> usize {
        self.core.central.lock().segments.free_count()
    }

    /// Segment-sized buffers currently parked for reuse by the cleaner's victim reads
    /// and by new open segments (diagnostic). Never more than `write_streams + 2` — an
    /// open segment per stream, plus the victim image and an output of the one running
    /// cycle; a steady-state cleaning cycle takes its buffers from here and puts every
    /// one back, so the figure is the same before and after.
    pub fn pooled_images(&self) -> usize {
        let pool = self.core.images.lock();
        pool.blank.len() + pool.stale.len()
    }

    /// Current fill factor: live payload bytes over total device payload capacity.
    pub fn fill_factor(&self) -> f64 {
        let config = &self.core.config;
        let capacity = config.num_segments as f64
            * layout::payload_capacity(config.segment_bytes, config.page_bytes) as f64;
        if capacity == 0.0 {
            0.0
        } else {
            self.core.mapping.live_bytes() as f64 / capacity
        }
    }

    /// Serialize a checkpoint of the current state (page table, segment metadata and
    /// counters). Only meaningful after [`LogStore::flush`]; see [`crate::checkpoint`].
    pub fn checkpoint_json(&self) -> Result<String> {
        crate::checkpoint::to_json(self)
    }

    /// Write a checkpoint to a file. Call [`LogStore::flush`] first.
    pub fn checkpoint_to<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        let json = self.checkpoint_json()?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Append a checkpoint to the journal at `path` and return how many page-table
    /// shards it wrote versus skipped.
    ///
    /// Unlike [`LogStore::checkpoint_to`], this does **not** require a prior flush or a
    /// quiesced store: the capture itself seals every open output segment and syncs the
    /// device, so everything the journal describes is durable (pages still sitting in
    /// sort buffers are volatile, exactly as a crash would treat them). The first
    /// checkpoint to a given path writes the full page table; subsequent checkpoints to
    /// the *same* path append only the shards dirtied since the previous one. Reopen with
    /// [`LogStore::recover_with_checkpoint`], which replays only the segments sealed
    /// after the journal's frontier instead of scanning the whole device.
    pub fn checkpoint_log_to<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<crate::checkpoint::CheckpointStats> {
        let core = &self.core;
        let path = path.as_ref();
        let mut tracker = core.ckpt.lock();
        let continuing = tracker.base_written && tracker.path.as_deref() == Some(path);
        let snapshot = core.checkpoint_snapshot(continuing, true)?;
        match crate::checkpoint::append_to_journal(path, &core.config, &snapshot, !continuing) {
            Ok(stats) => {
                tracker.path = Some(path.to_path_buf());
                tracker.base_written = true;
                AtomicStats::add(&core.stats.checkpoint_shards_written, stats.shards_written);
                AtomicStats::add(&core.stats.checkpoint_shards_skipped, stats.shards_skipped);
                // The checkpoint is committed: publish its frontier so the cleaner may
                // drop (rather than re-emit) tombstones in covered victims, and lift
                // the tombstone space charge from every covered segment — their delete
                // facts are durable in the journal now, so those segments are
                // reclaimable at their true emptiness.
                core.ckpt_frontier
                    .store(snapshot.frontier, Ordering::Relaxed);
                core.central
                    .lock()
                    .segments
                    .uncharge_covered_tombstones(snapshot.frontier);
                Ok(stats)
            }
            Err(e) => {
                // The shards this capture consumed never reached the journal: re-mark
                // them dirty so the next checkpoint rewrites them, and recreate the
                // journal from scratch next time — appending after a torn tail would
                // hide the new records from the reader, which stops at the first
                // unparsable line.
                core.mapping.mark_dirty_mask(snapshot.dirty_mask);
                tracker.base_written = false;
                Err(e)
            }
        }
    }

    /// Rebuild a store from a device plus a checkpoint journal written by
    /// [`LogStore::checkpoint_log_to`]: bounded log-tail replay instead of the full
    /// device scan of [`LogStore::recover_with_device`] (see
    /// [`crate::recovery::recover_from_checkpoint`]).
    pub fn recover_with_checkpoint<P: AsRef<std::path::Path>>(
        config: StoreConfig,
        device: Box<dyn SegmentDevice>,
        path: P,
    ) -> Result<Self> {
        crate::recovery::recover_from_checkpoint(config, device, path.as_ref())
    }

    /// Consume the store and hand back its device (e.g. to reopen it with
    /// [`LogStore::recover_with_device`] in tests that simulate a restart).
    ///
    /// Unsealed data is discarded exactly as a crash would discard it; call
    /// [`LogStore::flush`] first if that matters. The write-behind worker finishes the
    /// batch it is appending, if any, and abandons the rest.
    pub fn into_device(self) -> Box<dyn SegmentDevice> {
        self.core.write_behind.stop();
        let core = Arc::clone(&self.core);
        drop(self);
        match Arc::try_unwrap(core) {
            Ok(core) => core.device,
            Err(_) => unreachable!("the joined worker held the only other handle"),
        }
    }

    // ------------------------------------------------------------------
    // For checkpoint and recovery
    // ------------------------------------------------------------------

    pub(crate) fn device(&self) -> &dyn SegmentDevice {
        self.core.device()
    }

    pub(crate) fn atomic_stats(&self) -> &AtomicStats {
        &self.core.stats
    }

    pub(crate) fn checkpoint_snapshot(
        &self,
        dirty_only: bool,
        consume_dirty: bool,
    ) -> Result<CheckpointSnapshot> {
        self.core.checkpoint_snapshot(dirty_only, consume_dirty)
    }

    /// Seed the committed-checkpoint frontier (used by checkpoint-anchored recovery:
    /// the journal the store was recovered from is itself a committed checkpoint).
    pub(crate) fn set_checkpoint_frontier(&self, frontier: SealSeq) {
        self.core.ckpt_frontier.store(frontier, Ordering::Relaxed);
    }

    /// Install what recovery rebuilt, having read `bytes_read` bytes of the device.
    /// Runs before anything is handed to the write-behind worker, so the store's state
    /// has no other owner yet.
    pub(crate) fn install_recovered_state(
        &mut self,
        mapping: PageTable,
        segments: SegmentTable,
        unow: UpdateTick,
        next_write_seq: WriteSeq,
        bytes_read: u64,
    ) {
        self.recovery_bytes_read = bytes_read;
        Arc::get_mut(&mut self.core)
            .expect("recovery installs its state before the write-behind worker starts")
            .install_recovered_state(mapping, segments, unow, next_write_seq);
    }
}

impl StoreCore {
    pub(crate) fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The write stream a page routes to.
    pub(crate) fn stream_of_page(&self, page: PageId) -> usize {
        (mix64(page) as usize) % self.streams.len()
    }

    /// The live update-count clock. Store mutations are stamped with the tick of the
    /// work they belong to — a batch's hand-off tick, a flush's — passed explicitly.
    pub(crate) fn unow(&self) -> UpdateTick {
        self.unow.load(Ordering::Relaxed)
    }

    pub(crate) fn device(&self) -> &dyn SegmentDevice {
        self.device.as_ref()
    }

    /// Write a segment's image to the device — whole, or only its `dirty` ranges — and
    /// account the bytes asked for in [`StoreStats::device_bytes_written`]. Every
    /// segment write of the store goes through here.
    pub(crate) fn write_image(
        &self,
        id: SegmentId,
        image: &[u8],
        dirty: Option<&[Range<u32>; 2]>,
    ) -> Result<()> {
        let bytes = match dirty {
            Some(dirty) => {
                self.device.write_ranges(id, image, dirty)?;
                dirty.iter().map(|r| r.len() as u64).sum()
            }
            None => {
                self.device.write_segment(id, image)?;
                image.len() as u64
            }
        };
        AtomicStats::add(&self.stats.device_bytes_written, bytes);
        Ok(())
    }

    /// An all-zero segment image for a new [`SegmentBuilder`]: a recycled one if the
    /// pool has any (a stale one is cleared in full first), else a fresh allocation.
    pub(crate) fn take_blank_image(&self) -> Vec<u8> {
        let mut pool = self.images.lock();
        if let Some(image) = pool.blank.pop() {
            return image;
        }
        let stale = pool.stale.pop();
        drop(pool);
        match stale {
            Some(mut image) => {
                image.fill(0);
                image
            }
            None => vec![0u8; self.config.segment_bytes],
        }
    }

    /// A buffer to read a victim image into (contents irrelevant; empty if the pool is,
    /// in which case the device allocates).
    pub(crate) fn take_read_image(&self) -> Vec<u8> {
        let mut pool = self.images.lock();
        pool.stale
            .pop()
            .or_else(|| pool.blank.pop())
            .unwrap_or_default()
    }

    /// Park a segment image for reuse, on the `blank` (all zeros) or the stale list.
    /// Dropped instead if the pool is at its bound, or if the buffer is not a whole
    /// image (the unfilled read buffer of a failed victim read).
    fn park_image(&self, image: Vec<u8>, blank: bool) {
        if image.len() != self.config.segment_bytes {
            return;
        }
        let bound = self.config.write_streams + 2;
        let mut pool = self.images.lock();
        if pool.blank.len() + pool.stale.len() < bound {
            if blank {
                pool.blank.push(image);
            } else {
                pool.stale.push(image);
            }
        }
    }

    /// Give back a buffer a victim image was read into (see [`StoreCore::park_image`]).
    pub(crate) fn recycle_image(&self, image: Vec<u8>) {
        self.park_image(image, false);
    }

    /// Recycle a sealed (or released) segment's builder image. Call once the builder is
    /// out of `open_reads`: readers reach a builder only through that index, under its
    /// lock, and keep no clone, so from then on the caller's `Arc` is normally the last.
    /// If it is not — a wounded-seal retry still parks a clone — the image is freed by
    /// whoever drops the last one, never reused while someone can still read it.
    pub(crate) fn recycle_builder(&self, builder: Arc<RwLock<SegmentBuilder>>) {
        if let Ok(builder) = Arc::try_unwrap(builder) {
            self.park_image(builder.into_inner().into_image(), true);
        }
    }

    pub(crate) fn mapping(&self) -> &ShardedPageTable {
        &self.mapping
    }

    /// The write stream owning a page.
    pub(crate) fn stream(&self, page: PageId) -> &WriteStream {
        &self.streams[self.stream_of_page(page)]
    }

    /// All write streams (flush and checkpoint walk them in index order).
    pub(crate) fn streams(&self) -> &[WriteStream] {
        &self.streams
    }

    pub(crate) fn central(&self) -> &Mutex<CentralState> {
        &self.central
    }

    /// The installed cleaning-phase hook, if any (cloned out so it is invoked with no
    /// lock held).
    pub(crate) fn gc_phase_hook(&self) -> Option<GcPhaseHook> {
        self.gc_phase_hook.read().clone()
    }

    pub(crate) fn wounded_seals(&self) -> &Mutex<Vec<SealTail>> {
        &self.wounded_seals
    }

    pub(crate) fn open_reads(&self) -> &RwLock<FxHashMap<SegmentId, Arc<RwLock<SegmentBuilder>>>> {
        &self.open_reads
    }

    pub(crate) fn atomic_stats(&self) -> &AtomicStats {
        &self.stats
    }

    /// Seal-seq frontier of the last committed checkpoint (0 = none). Relaxed read:
    /// a stale value only makes the cleaner re-emit a tombstone it could have
    /// dropped, never the reverse.
    pub(crate) fn checkpoint_frontier(&self) -> SealSeq {
        self.ckpt_frontier.load(Ordering::Relaxed)
    }

    /// The per-page heat sketch (sampled lock-free by the cleaner).
    pub(crate) fn heat(&self) -> &PageHeat {
        &self.heat
    }

    /// Claim the next per-page write sequence number.
    pub(crate) fn take_write_seq(&self) -> WriteSeq {
        self.next_write_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Reader pin count of a segment slot.
    pub(crate) fn pin_count(&self, id: SegmentId) -> u32 {
        self.pins[id.index()].load(Ordering::Acquire)
    }

    pub(crate) fn pin(&self, id: SegmentId) {
        self.pins[id.index()].fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn unpin(&self, id: SegmentId) {
        self.pins[id.index()].fetch_sub(1, Ordering::AcqRel);
    }

    /// Free-segment count readable without the central lock (updated after every segment
    /// table mutation; may lag a concurrent mutation by a moment).
    pub(crate) fn approx_free_segments(&self) -> usize {
        self.approx_free.load(Ordering::Relaxed)
    }

    /// Refresh [`StoreCore::approx_free_segments`] from the authoritative table.
    pub(crate) fn publish_free(&self, segments: &SegmentTable) {
        self.approx_free
            .store(segments.free_count(), Ordering::Relaxed);
    }

    /// Record that an output segment was opened (`+1`) or closed (`-1`).
    pub(crate) fn note_open_delta(&self, delta: isize) {
        if delta >= 0 {
            self.open_count.fetch_add(delta as usize, Ordering::Relaxed);
        } else {
            self.open_count
                .fetch_sub((-delta) as usize, Ordering::Relaxed);
        }
    }

    /// How many output logs one user stream may keep open at once. Sized so the total
    /// across streams stays at the multi-log policy's bound (32): a stream that needs
    /// one more log seals its least-recently-used open segment first. Config validation
    /// caps `write_streams` at 16, so the division never lands below 2 and the
    /// aggregate bound holds for every allowed stream count. Single-log policies keep
    /// exactly one open segment per stream and never hit the bound.
    pub(crate) fn max_open_logs_per_stream(&self) -> usize {
        (crate::policy::MULTILOG_MAX_LOGS / self.streams.len()).max(2)
    }

    /// The two free-segment marks cleaning is paced by, `(floor, upper)`
    /// (see [`gc_driver::pace`]). The *upper* mark is the configured trigger, raised
    /// when many output segments are open (multi-log keeps up to 32 logs) so partially
    /// filled open segments never starve allocation — mirroring the simulator's
    /// `effective_trigger`. The *floor* is what must stay free so that every write
    /// stream can still open its next segment above the GC reserve (and, like the
    /// trigger, never less than the open segments + 2); it is capped at the upper mark,
    /// so a trigger configured at or below it leaves no band in between.
    pub(crate) fn pacing_marks(&self) -> (usize, usize) {
        let cleaning = &self.config.cleaning;
        let open = self.open_count.load(Ordering::Relaxed) + 2;
        let upper = cleaning.trigger_free_segments.max(open);
        let floor = (cleaning.reserved_free_segments + self.streams.len()).max(open);
        (floor.min(upper), upper)
    }

    pub(crate) fn counters(&self) -> (UpdateTick, WriteSeq) {
        (
            self.unow.load(Ordering::Relaxed),
            self.next_write_seq.load(Ordering::Relaxed),
        )
    }

    /// One coherent snapshot of everything a checkpoint needs: the page table (whole or
    /// only the shards dirtied since the last capture), the sealed-segment records, the
    /// seal-sequence frontier and the counters.
    ///
    /// All of it is taken under the write-behind job lock, so no drain, cleaning cycle
    /// or reap runs meanwhile — taking the pieces while a cycle ran could let it reap a
    /// victim that the page snapshot still references but the segment records would
    /// omit. Like a flush, it first waits out the job in flight and runs the queued
    /// ones, so it covers every batch handed off before it (the batches still filling
    /// stay volatile).
    ///
    /// The capture is **self-durable**: with the store quiesced it seals every open
    /// user output segment, retries wounded seals and syncs the device before reading
    /// the page table. Skipping that and snapping a
    /// mapping that points into open, unsealed segments would make the checkpoint
    /// *worse* than a full scan — a crash would lose the old durable copy of any page
    /// whose newest copy sat in an open segment the journal already claims to cover.
    /// Sealing never allocates, so this cannot deadlock with allocation pressure. The
    /// counters are read last so the recorded `next_write_seq` is `>=` every write
    /// sequence reachable from the snapshot and the frontier covers every seal the
    /// snapshot references.
    ///
    /// `dirty_only` captures only the page-table shards dirtied since the previous
    /// capture (incremental journal appends); `consume_dirty` controls whether the
    /// dirty bits are claimed by this capture (journal checkpoints) or left untouched
    /// (the monolithic [`LogStore::checkpoint_json`], which must not steal changes out
    /// from under a concurrent journal sequence).
    pub(crate) fn checkpoint_snapshot(
        &self,
        dirty_only: bool,
        consume_dirty: bool,
    ) -> Result<CheckpointSnapshot> {
        let _running = self.write_behind.run_queued(self)?;
        // The seals below may release segments: the next put's paced check sees them.
        self.write_behind.owe_pacing();
        let mut streams: Vec<_> = self.streams.iter().map(|s| s.state.lock()).collect();
        let unow = self.unow();
        // Seal every open user output segment so no mapping entry points into an
        // unsealed builder. Empty builders are released, full ones written out; an I/O
        // failure parks the image as a wounded seal and fails the checkpoint.
        for ss in streams.iter_mut() {
            let mut ledger = write_path::MetaLedger::default();
            let logs: Vec<u16> = ss.open.keys().copied().collect();
            for log in logs {
                if let Some(open) = ss.open.remove(&log) {
                    write_path::seal_open(self, open, &mut ledger, unow)?;
                }
            }
            ledger.flush_to_central(self);
        }
        // Retry wounded seals and sync: after this, everything the mapping references
        // is durable on the device.
        write_path::sync_and_reap(self)?;

        let dirty_mask = if dirty_only {
            self.mapping.take_dirty()
        } else if consume_dirty {
            self.mapping.take_dirty();
            ShardedPageTable::all_dirty_mask()
        } else {
            ShardedPageTable::all_dirty_mask()
        };
        let include_mask = if dirty_only {
            dirty_mask
        } else {
            ShardedPageTable::all_dirty_mask()
        };
        let shards = (0..crate::mapping::PAGE_TABLE_SHARDS)
            .map(|i| (include_mask & (1u64 << i) != 0).then(|| self.mapping.shard_snapshot(i)))
            .collect();
        let (sealed, tombstone_bytes, next_seal_seq) = {
            let central = self.central.lock();
            (
                central.segments.sealed_stats(),
                central.segments.sealed_tombstone_bytes(),
                central.segments.next_seal_seq(),
            )
        };
        let (unow, next_write_seq) = self.counters();
        Ok(CheckpointSnapshot {
            shards,
            sealed,
            tombstone_bytes,
            frontier: next_seal_seq.saturating_sub(1),
            next_seal_seq,
            unow,
            next_write_seq,
            dirty_mask: if consume_dirty { dirty_mask } else { 0 },
        })
    }

    pub(crate) fn install_recovered_state(
        &mut self,
        mapping: PageTable,
        segments: SegmentTable,
        unow: UpdateTick,
        next_write_seq: WriteSeq,
    ) {
        self.mapping.install(mapping);
        let free = segments.free_count();
        let central = self.central.get_mut();
        central.segments = segments;
        self.next_write_seq.store(next_write_seq, Ordering::Relaxed);
        self.unow.store(unow, Ordering::Relaxed);
        self.approx_free.store(free, Ordering::Relaxed);
        // A freshly recovered store has no journal continuity: the next checkpoint
        // rewrites a full base. The committed-frontier also resets — after a full scan
        // there is no journal backing it (checkpoint-anchored recovery re-seeds it from
        // its journal).
        *self.ckpt.get_mut() = CheckpointTracker::default();
        *self.ckpt_frontier.get_mut() = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn small_store(policy: PolicyKind) -> LogStore {
        LogStore::open_in_memory(StoreConfig::small_for_tests().with_policy(policy)).unwrap()
    }

    #[test]
    fn put_get_roundtrip_through_buffer_and_device() {
        let store = small_store(PolicyKind::Greedy);
        store.put(1, b"one").unwrap();
        store.put(2, b"two").unwrap();
        // Served from the sort buffer before any flush.
        assert_eq!(store.get(1).unwrap().unwrap().as_ref(), b"one");
        store.flush().unwrap();
        // Served from the device after the flush.
        assert_eq!(store.get(1).unwrap().unwrap().as_ref(), b"one");
        assert_eq!(store.get(2).unwrap().unwrap().as_ref(), b"two");
        assert!(store.get(3).unwrap().is_none());
    }

    #[test]
    fn overwrite_returns_latest_version() {
        let store = small_store(PolicyKind::Greedy);
        store.put(7, b"v1").unwrap();
        store.flush().unwrap();
        store.put(7, b"v2-longer").unwrap();
        assert_eq!(store.get(7).unwrap().unwrap().as_ref(), b"v2-longer");
        store.flush().unwrap();
        assert_eq!(store.get(7).unwrap().unwrap().as_ref(), b"v2-longer");
        assert_eq!(store.live_pages(), 1);
    }

    #[test]
    fn delete_removes_page() {
        let store = small_store(PolicyKind::Greedy);
        store.put(5, b"hello").unwrap();
        store.flush().unwrap();
        assert!(store.contains(5));
        store.delete(5).unwrap();
        assert!(!store.contains(5));
        assert!(store.get(5).unwrap().is_none());
        store.flush().unwrap();
        assert!(store.get(5).unwrap().is_none());
        assert_eq!(store.live_pages(), 0);
    }

    #[test]
    fn delete_of_missing_page_is_a_noop() {
        let store = small_store(PolicyKind::Greedy);
        store.delete(99).unwrap();
        store.flush().unwrap();
        assert!(store.get(99).unwrap().is_none());
    }

    #[test]
    fn oversized_page_is_rejected() {
        let store = small_store(PolicyKind::Greedy);
        let huge = vec![1u8; store.config().segment_bytes];
        let err = store.put(1, &huge).unwrap_err();
        assert!(matches!(err, Error::PageTooLarge { .. }));
    }

    #[test]
    fn stats_count_user_writes_and_reads() {
        let store = small_store(PolicyKind::Greedy);
        for i in 0..10u64 {
            store.put(i, b"abcdefgh").unwrap();
        }
        store.flush().unwrap();
        for i in 0..10u64 {
            assert!(store.get(i).unwrap().is_some());
        }
        let s = store.stats();
        assert_eq!(s.user_pages_written, 10);
        assert_eq!(s.user_bytes_written, 80);
        assert_eq!(s.pages_read, 10);
        // The flush persisted the open segments; it sealed nothing.
        assert_eq!(s.segments_sealed, 0);
        assert!(s.persist_points >= 1);
        assert!(s.device_bytes_written > 0);
    }

    /// `flush` is a persist point: the open segment stays open, keeps filling across
    /// flushes, costs the bytes each flush added, and is sealed once — when full.
    #[test]
    fn flush_persists_open_segments_without_sealing_them() {
        let config = StoreConfig::small_for_tests()
            .with_policy(PolicyKind::Greedy)
            .with_write_streams(1);
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        let free_before = store.free_segments();
        store.put(1, b"one").unwrap();
        store.flush().unwrap();
        store.put(2, b"two").unwrap();
        store.delete(1).unwrap();
        store.flush().unwrap();
        store.flush().unwrap(); // nothing new: no extent, no bytes
        let s = store.stats();
        assert_eq!(s.segments_sealed, 0);
        assert_eq!(s.persist_points, 2);
        assert_eq!(store.free_segments(), free_before - 1);
        // Each persist point wrote one payload sector (none for the tombstone-only
        // part) and one extent sector — not a 4 KiB image.
        assert_eq!(s.device_bytes_written, 2 * 2 * crate::layout::SECTOR as u64);
        assert!(store.get(1).unwrap().is_none());
        assert_eq!(store.get(2).unwrap().unwrap().as_ref(), b"two");

        // Keep filling: the segment is sealed exactly once, when it runs out of room.
        let payload = vec![7u8; config.page_bytes];
        let mut page = 10;
        while store.stats().segments_sealed == 0 {
            store.put(page, &payload).unwrap();
            store.flush().unwrap();
            page += 1;
        }
        assert_eq!(store.stats().segments_sealed, 1);

        // Everything flushed is on the device: a restart finds it, byte-exact, with the
        // segment that was still open installed as sealed.
        let device = store.into_device();
        let recovered = LogStore::recover_with_device(config, device).unwrap();
        assert!(recovered.get(1).unwrap().is_none());
        assert_eq!(recovered.get(2).unwrap().unwrap().as_ref(), b"two");
        for p in 10..page {
            assert_eq!(recovered.get(p).unwrap().unwrap().as_ref(), &payload[..]);
        }
        assert_eq!(recovered.live_pages() as u64, 1 + page - 10);
    }

    /// Device errors around persist points: a failed persist point leaves its extent
    /// pending (the next flush lays it down again), and a failed seal of a persisted
    /// segment parks only its unwritten tail, which the next sync point lands.
    #[test]
    fn failed_persist_points_and_wounded_tails_are_retried() {
        use crate::device::FlakyDevice;
        let config = StoreConfig::small_for_tests()
            .with_policy(PolicyKind::Greedy)
            .with_write_streams(1);
        let device = std::sync::Arc::new(FlakyDevice::new(
            MemDevice::new(config.segment_bytes, config.num_segments),
            None,
        ));
        struct Shared(std::sync::Arc<FlakyDevice<MemDevice>>);
        impl SegmentDevice for Shared {
            fn geometry(&self) -> crate::device::DeviceGeometry {
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
            fn write_ranges(
                &self,
                seg: SegmentId,
                image: &[u8],
                dirty: &[Range<u32>],
            ) -> Result<()> {
                self.0.write_ranges(seg, image, dirty)
            }
            fn sync(&self) -> Result<()> {
                self.0.sync()
            }
            fn segment_writes(&self) -> u64 {
                self.0.segment_writes()
            }
        }
        let store =
            LogStore::open_with_device(config.clone(), Box::new(Shared(device.clone()))).unwrap();
        let payload = vec![5u8; config.page_bytes];

        // A persist point that fails: the flush reports it, nothing is committed.
        store.put(0, &payload).unwrap();
        device.set_fail_after_writes(Some(0));
        assert!(matches!(store.flush(), Err(Error::Io(_))));
        assert_eq!(store.stats().persist_points, 0);
        // Healed: the same extent (plus what came since) goes out.
        device.set_fail_after_writes(None);
        store.put(1, &payload).unwrap();
        store.flush().unwrap();
        assert_eq!(store.stats().persist_points, 1);

        // Fill the persisted segment; the write that seals it fails on the device.
        device.set_fail_after_writes(Some(0));
        let mut page = 2;
        let err = loop {
            match store.put(page, &payload) {
                Ok(()) => page += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");
        assert_eq!(store.stats().segments_sealed, 0);
        // Every page stays readable from the parked builder, and a flush keeps
        // failing rather than vouching for a tail that is not on the device.
        assert_eq!(store.get(2).unwrap().unwrap().as_ref(), &payload[..]);
        assert!(store.flush().is_err());
        device.set_fail_after_writes(None);
        store.flush().unwrap();
        // The wounded seal landed (and the drain it interrupted went on sealing).
        assert!(store.stats().segments_sealed >= 1);

        // The image the retries produced is a valid chain: everything recovers.
        let expected = store.live_pages();
        drop(store);
        let recovered = LogStore::recover_with_device(config, Box::new(Shared(device))).unwrap();
        assert_eq!(recovered.live_pages(), expected);
        for p in 0..expected as u64 {
            assert_eq!(recovered.get(p).unwrap().unwrap().as_ref(), &payload[..]);
        }
    }

    /// A never-persisted segment still goes out as one whole-image write.
    #[test]
    fn a_segment_sealed_without_persist_points_is_one_whole_image_write() {
        let config = StoreConfig::small_for_tests()
            .with_policy(PolicyKind::Greedy)
            .with_write_streams(1);
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        let payload = vec![3u8; config.page_bytes];
        let mut page = 0;
        while store.stats().segments_sealed < 2 {
            store.put(page, &payload).unwrap();
            page += 1;
        }
        let s = store.stats();
        assert_eq!(s.persist_points, 0);
        assert_eq!(
            s.device_bytes_written,
            s.segments_sealed * config.segment_bytes as u64
        );
    }

    #[test]
    fn cleaning_reclaims_space_under_overwrites() {
        // Overwrite a small working set far more than the device could hold without
        // cleaning; the store must keep functioning and its write amplification must stay
        // sane.
        let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
        let pages = config.logical_pages_for_fill_factor(0.6) as u64;
        let store = LogStore::open_with_device(
            config.clone(),
            Box::new(MemDevice::new(config.segment_bytes, config.num_segments)),
        )
        .unwrap();
        let payload = vec![7u8; config.page_bytes];
        // Pre-fill, then overwrite in a scrambled order so victims are checkerboards
        // (sequential overwrites would let greedy find fully-empty segments and never
        // move a page).
        for i in 0..pages {
            store.put(i, &payload).unwrap();
        }
        let total_writes = (config.physical_pages() * 5) as u64;
        for i in 0..total_writes {
            store.put(crate::util::mix64(i) % pages, &payload).unwrap();
        }
        store.flush().unwrap();
        let s = store.stats();
        assert!(s.cleaning_cycles > 0, "cleaning never ran");
        assert!(s.gc_pages_written > 0);
        assert_eq!(store.live_pages() as u64, pages);
        // Every page must still be readable and current.
        for i in 0..pages {
            assert!(
                store.get(i).unwrap().is_some(),
                "page {i} lost after cleaning"
            );
        }
        // With F=0.6 the analysis bounds W_amp well below 2 for greedy under uniform.
        assert!(
            s.write_amplification() < 3.0,
            "write amplification {} unexpectedly high",
            s.write_amplification()
        );
    }

    #[test]
    fn cleaning_works_with_every_policy() {
        for kind in PolicyKind::ALL {
            let config = StoreConfig::small_for_tests().with_policy(kind);
            let pages = config.logical_pages_for_fill_factor(0.5) as u64;
            let store = LogStore::open_in_memory(config.clone()).unwrap();
            let payload = vec![1u8; config.page_bytes];
            for i in 0..(config.physical_pages() as u64 * 4) {
                store.put(i % pages, &payload).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(store.live_pages() as u64, pages, "policy {kind} lost pages");
            for i in 0..pages {
                assert!(
                    store.get(i).unwrap().is_some(),
                    "policy {kind} lost page {i}"
                );
            }
        }
    }

    #[test]
    fn out_of_space_is_reported_not_hung() {
        // Fill factor ~1.0: more logical data than the device can hold with slack.
        let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        let payload = vec![0u8; config.page_bytes];
        let mut result = Ok(());
        for i in 0..(config.physical_pages() as u64 * 2) {
            result = store.put(i, &payload); // never overwrites: pure growth
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(Error::OutOfSpace { .. })));
    }

    #[test]
    fn manual_clean_now_runs_a_cycle() {
        let store = small_store(PolicyKind::Greedy);
        let payload = vec![3u8; store.config().page_bytes];
        for i in 0..64u64 {
            store.put(i % 16, &payload).unwrap();
        }
        store.flush().unwrap();
        let report = store.clean_now().unwrap();
        // Overwrites above guarantee some segments have reclaimable space.
        assert!(!report.victims.is_empty());
        for i in 0..16u64 {
            assert!(store.get(i).unwrap().is_some());
        }
    }

    #[test]
    fn absorption_in_buffer_reduces_segment_writes() {
        let mut config = StoreConfig::small_for_tests();
        config.absorb_updates_in_buffer = true;
        config.sort_buffer_segments = 4;
        let absorbing = LogStore::open_in_memory(config.clone()).unwrap();
        for _ in 0..100 {
            absorbing.put(1, b"same-page").unwrap();
        }
        absorbing.flush().unwrap();
        assert!(absorbing.stats().absorbed_in_buffer > 0);
        assert_eq!(absorbing.live_pages(), 1);
    }

    #[test]
    fn fill_factor_reflects_live_data() {
        let store = small_store(PolicyKind::Greedy);
        assert_eq!(store.fill_factor(), 0.0);
        let payload = vec![1u8; store.config().page_bytes];
        let quarter = store.config().logical_pages_for_fill_factor(0.25) as u64;
        for i in 0..quarter {
            store.put(i, &payload).unwrap();
        }
        store.flush().unwrap();
        let f = store.fill_factor();
        assert!((f - 0.25).abs() < 0.05, "fill factor {f} not near 0.25");
    }

    #[test]
    fn variable_size_payloads_are_supported() {
        let store = small_store(PolicyKind::Mdc);
        for i in 0..200u64 {
            let size = 1 + (i as usize * 7) % 200;
            store.put(i, &vec![i as u8; size]).unwrap();
        }
        store.flush().unwrap();
        for i in 0..200u64 {
            let size = 1 + (i as usize * 7) % 200;
            let v = store.get(i).unwrap().unwrap();
            assert_eq!(v.len(), size);
            assert!(v.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn reads_do_not_require_exclusive_access() {
        // `get` on a shared reference from several threads at once — the compile-time
        // core of the concurrent-pipeline refactor, exercised at runtime.
        let store = std::sync::Arc::new(small_store(PolicyKind::Mdc));
        for i in 0..64u64 {
            store.put(i, format!("v-{i}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200u64 {
                    let page = (t * 31 + round) % 64;
                    let got = store.get(page).unwrap().unwrap();
                    assert_eq!(got.as_ref(), format!("v-{page}").as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pages_route_to_stable_streams_and_cover_all_of_them() {
        let store = LogStore::open_in_memory(
            StoreConfig::small_for_tests()
                .with_policy(PolicyKind::Greedy)
                .with_write_streams(4),
        )
        .unwrap();
        assert_eq!(store.write_stream_count(), 4);
        let mut seen = vec![false; 4];
        for page in 0..256u64 {
            let s = store.stream_of_page(page);
            assert!(s < 4);
            // Routing is a pure function of the page id.
            assert_eq!(s, store.stream_of_page(page));
            seen[s] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a stream received no pages: {seen:?}"
        );
    }
}
