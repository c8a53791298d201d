//! A byte-budgeted buffer pool with CLOCK (second-chance) eviction, dirty-page
//! tracking and ordered write-back — internally synchronised behind sharded latches.
//!
//! The pool sits between the B+-tree and a [`crate::page_store::PageStore`]. Only dirty
//! evictions and explicit write-backs reach the store — exactly the behaviour that
//! shapes the page-write I/O trace the paper's Figure 6 experiment replays (the authors
//! used a 4 GiB buffer cache; the capacity here is configurable and scaled down together
//! with the workload).
//!
//! The capacity is given in pages but held in bytes: `capacity × page_size`. A frame
//! holds its page at the length it is stored — nodes are not padded to the page — so a
//! pool of half-full pages caches twice as many of them. Each shard evicts, CLOCK
//! order, until its frames fit its share of the budget; a pool of full pages therefore
//! behaves exactly like a frame-counted one of `capacity` frames.
//!
//! Since the shared-handle refactor every method takes `&self`: frames are partitioned
//! into up to 16 shards by page-id hash, each shard guarded by its own mutex with its
//! own CLOCK hand, so concurrent readers of a shared [`crate::BTree`] touch disjoint
//! latches. A shard latch is a leaf lock: no other lock is ever acquired while one is
//! held (the underlying [`PageStore`] is `&self` and internally synchronised).
//! Statistics are lock-free atomics.
//!
//! A shadow-mode tree stores most leaves it rewrites as *deltas* against a committed
//! base (see [`crate::node`]), and its pool knows it (`BufferPool::with_leaf_deltas`);
//! any other pool holds whatever bytes it is given. A frame always holds the
//! consolidated leaf, so readers and editors never see a delta; a delta leaf's frame
//! also holds its base id and the delta image, both counted against the budget, and
//! eviction and write-back store the delta. A miss on a delta page reads its base as
//! well — straight from the store, without installing it: a base is a committed page,
//! never dirty — and consolidates the two before it installs the frame, which keeps the
//! base id but not the delta: the tree stores a leaf whose delta was read back whole at
//! its next write, so the clean frame's delta has no further use.
//!
//! Write-back discipline: [`BufferPool::write_back`] flushes dirty pages in ascending
//! page-id order (ordered write-back — sequential-friendly for the store underneath and
//! deterministic for tests), marks each frame clean only after its store write
//! succeeded, and does *not* sync; [`BufferPool::flush_all`] adds the sync. The
//! crash-consistency protocol of the KV layer (see `kv`) relies on this split: dirty
//! index pages are written and synced (barrier 1) strictly before the superblock flip
//! (barrier 2).

use crate::node::{delta_apply, raw_delta_base};
use crate::page_store::PageStore;
use bytes::Bytes;
use lss_core::util::mix64;
use lss_core::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a leaf is stored: as a delta against a committed base.
#[derive(Debug, Clone)]
pub(crate) struct LeafDelta {
    /// The base page the delta applies to.
    pub(crate) base: u64,
    /// The delta page itself — what the store holds for the leaf — or `None` once a
    /// miss has read it back from the store, and its base with it: the leaf's next
    /// write stores it whole (see `tree`), so nothing needs the delta any more, and the
    /// clean frame never writes it.
    pub(crate) image: Option<Bytes>,
}

#[derive(Debug)]
struct Frame {
    page_id: u64,
    /// Shared with readers: a pool hit hands out a clone of the handle, so the page
    /// bytes are never copied under the shard latch (the latch hold is O(1)). A miss
    /// installs the store's buffer as it came — no copy on the way in either. For a
    /// delta leaf, the consolidated leaf.
    data: Bytes,
    /// The delta that stores the page, if it is stored as one.
    delta: Option<LeafDelta>,
    dirty: bool,
    referenced: bool,
}

impl Frame {
    /// Bytes of the budget the frame takes: its page, and its delta if it keeps one.
    fn len(&self) -> usize {
        self.data.len() + self.delta_image().map_or(0, Bytes::len)
    }

    fn delta_image(&self) -> Option<&Bytes> {
        self.delta.as_ref().and_then(|d| d.image.as_ref())
    }

    /// What the store holds for the page: the delta, if the frame keeps one.
    fn stored(&self) -> &Bytes {
        self.delta_image().unwrap_or(&self.data)
    }
}

/// Buffer pool statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read the underlying store.
    pub misses: u64,
    /// Dirty pages written back on eviction.
    pub dirty_evictions: u64,
    /// Clean pages dropped on eviction.
    pub clean_evictions: u64,
    /// Pages written back by explicit flushes / write-backs.
    pub flush_writes: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock-free counters behind [`BufferPoolStats`].
#[derive(Debug, Default)]
struct AtomicPoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    dirty_evictions: AtomicU64,
    clean_evictions: AtomicU64,
    flush_writes: AtomicU64,
}

/// One latch-guarded slice of the pool: its own frames, lookup index and CLOCK hand.
#[derive(Debug, Default)]
struct Shard {
    frames: Vec<Frame>,
    index: HashMap<u64, usize>,
    clock_hand: usize,
    /// Bytes of page data the frames hold.
    bytes: usize,
    /// Bumped whenever a frame comes, goes or is replaced: a miss that read outside the
    /// latch knows by it that the store may hold something newer for its page.
    changes: u64,
}

impl Shard {
    /// Drop the frame at `idx` (written back first if its data is still needed); the
    /// last frame takes its slot, and the CLOCK hand looks at that frame next.
    fn remove(&mut self, idx: usize) {
        self.changes += 1;
        let frame = self.frames.swap_remove(idx);
        self.index.remove(&frame.page_id);
        self.bytes -= frame.len();
        if idx < self.frames.len() {
            self.index.insert(self.frames[idx].page_id, idx);
            self.clock_hand = idx;
        } else {
            self.clock_hand = 0;
        }
    }
}

/// A sharded CLOCK buffer pool over a [`PageStore`].
#[derive(Debug)]
pub struct BufferPool<S: PageStore> {
    store: S,
    capacity: usize,
    /// Bytes of page data one shard may hold.
    shard_budget: usize,
    shards: Box<[Mutex<Shard>]>,
    stats: AtomicPoolStats,
    /// The store may hold leaf deltas, which a miss consolidates with their bases.
    leaf_deltas: bool,
}

impl<S: PageStore> BufferPool<S> {
    /// Create a pool holding up to `capacity` pages' worth of bytes: `capacity` full
    /// pages, or more pages that are shorter.
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        // Small pools stay single-sharded so their capacity (and eviction order) is
        // exact; larger pools spread across up to 16 latches with >= 4 pages each.
        let num_shards = (capacity / 4).clamp(1, 16);
        let shard_budget = capacity.div_ceil(num_shards) * store.page_size();
        Self {
            store,
            capacity,
            shard_budget,
            shards: (0..num_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            stats: AtomicPoolStats::default(),
            leaf_deltas: false,
        }
    }

    /// The pool of a shadow-mode tree, whose store may hold leaf deltas: a miss on one
    /// reads its base and installs the consolidated leaf.
    pub(crate) fn with_leaf_deltas(mut self) -> Self {
        self.leaf_deltas = true;
        self
    }

    /// Pool capacity in pages of [`BufferPool::page_size`] bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most bytes of page data the pool holds: its capacity in pages times the
    /// page size (rounded up to whole pages per shard).
    #[cfg(test)]
    fn budget_bytes(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    /// Number of latch shards the frames are partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Bytes of page data currently cached.
    #[cfg(test)]
    fn cached_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Number of dirty pages currently cached (gauge).
    pub fn dirty_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().frames.iter().filter(|f| f.dirty).count())
            .sum()
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            dirty_evictions: self.stats.dirty_evictions.load(Ordering::Relaxed),
            clean_evictions: self.stats.clean_evictions.load(Ordering::Relaxed),
            flush_writes: self.stats.flush_writes.load(Ordering::Relaxed),
        }
    }

    /// Page size of the underlying store.
    pub fn page_size(&self) -> usize {
        self.store.page_size()
    }

    fn shard(&self, page_id: u64) -> &Mutex<Shard> {
        &self.shards[(mix64(page_id) as usize) % self.shards.len()]
    }

    /// Read a page through the pool. Returns `None` if the page does not exist. A hit
    /// clones only the frame's handle, so concurrent readers of hot pages (every
    /// descent touches the root) do not serialise on a byte copy.
    pub fn read(&self, page_id: u64) -> Result<Option<Bytes>> {
        self.read_with(page_id, |f| f.data.clone())
    }

    /// [`BufferPool::read`], with the delta that stores the page if it is stored as one
    /// (the writer's view: a leaf's delta is what a mutation extends).
    pub(crate) fn read_leaf(&self, page_id: u64) -> Result<Option<(Bytes, Option<LeafDelta>)>> {
        self.read_with(page_id, |f| (f.data.clone(), f.delta.clone()))
    }

    /// Read a page through the pool and hand what `view` takes of its frame.
    fn read_with<T>(&self, page_id: u64, view: impl FnOnce(&Frame) -> T) -> Result<Option<T>> {
        let mut missed = false;
        loop {
            let changes = {
                let mut shard = self.shard(page_id).lock();
                if let Some(&idx) = shard.index.get(&page_id) {
                    if !missed {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    shard.frames[idx].referenced = true;
                    return Ok(Some(view(&shard.frames[idx])));
                }
                if !missed {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    missed = true;
                }
                shard.changes
            };
            // The store is read with the latch released, so a miss — two reads and a
            // merge for a delta — holds up no other reader of the shard. What the store
            // holds for a page that is not resident changes only through a frame of its
            // shard (an eviction's write-back, or a write installing it first), so if no
            // frame came or went meanwhile the read is current and the page still
            // absent; otherwise the miss starts over, and finds the page resident or
            // reads the store again.
            let loaded = self.load(page_id);
            let mut shard = self.shard(page_id).lock();
            if shard.changes != changes {
                continue;
            }
            let Some((data, delta)) = loaded? else {
                return Ok(None);
            };
            let frame = Frame {
                page_id,
                data,
                delta,
                dirty: false,
                referenced: true,
            };
            let out = view(&frame);
            self.install(&mut shard, frame)?;
            return Ok(Some(out));
        }
    }

    /// Read a page without installing it: a resident frame — dirty or clean — serves
    /// it, a miss reads the store and leaves the pool as it was. For whole-tree walks,
    /// which touch every page once. Returns the page (a delta leaf consolidated) and
    /// the base of its delta, if it is stored as one. Not counted in the hit/miss
    /// statistics.
    pub(crate) fn read_through(&self, page_id: u64) -> Result<Option<(Bytes, Option<u64>)>> {
        // A walk reads each page once, so it keeps the store read under the shard latch
        // rather than re-checking: the page cannot be halfway through an eviction's
        // write-back while we read its store image.
        let shard = self.shard(page_id).lock();
        let page = match shard.index.get(&page_id) {
            Some(&idx) => {
                let f = &shard.frames[idx];
                Some((f.data.clone(), f.delta.clone()))
            }
            None => self.load(page_id)?,
        };
        Ok(page.map(|(data, delta)| (data, delta.map(|d| d.base))))
    }

    /// A page as the store holds it: a delta comes back consolidated with its base, the
    /// base read straight from the store and not installed.
    fn load(&self, page_id: u64) -> Result<Option<(Bytes, Option<LeafDelta>)>> {
        let Some(stored) = self.store.read_page(page_id)? else {
            return Ok(None);
        };
        let base = match self.leaf_deltas {
            true => raw_delta_base(&stored)?,
            false => None,
        };
        let Some(base) = base else {
            return Ok(Some((stored, None)));
        };
        let base_image = self.store.read_page(base)?.ok_or_else(|| {
            Error::CorruptCheckpoint(format!(
                "delta page {page_id} names base {base}, which the store does not hold"
            ))
        })?;
        let leaf = delta_apply(&base_image, &stored, self.page_size())?;
        Ok(Some((
            Bytes::from(leaf),
            Some(LeafDelta { base, image: None }),
        )))
    }

    /// Write a page through the pool (kept dirty until evicted or flushed). `data` is
    /// the page as it is stored: 1 to `page_size` bytes, held and written back as is.
    pub fn write(&self, page_id: u64, data: Vec<u8>) -> Result<()> {
        self.write_leaf(page_id, data, None)
    }

    /// [`BufferPool::write`] for a leaf stored as `delta` when it has one: the frame
    /// holds `data`, the consolidated leaf, and eviction and write-back store the delta.
    pub(crate) fn write_leaf(
        &self,
        page_id: u64,
        data: Vec<u8>,
        delta: Option<LeafDelta>,
    ) -> Result<()> {
        let page_size = self.store.page_size();
        assert!(
            (1..=page_size).contains(&data.len())
                && delta
                    .as_ref()
                    .and_then(|d| d.image.as_ref())
                    .is_none_or(|i| i.len() <= page_size),
            "page {page_id} has the wrong size: {} bytes, page size {page_size}",
            data.len(),
        );
        let frame = Frame {
            page_id,
            data: Bytes::from(data),
            delta,
            dirty: true,
            referenced: true,
        };
        let mut shard = self.shard(page_id).lock();
        if let Some(&idx) = shard.index.get(&page_id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let bytes = shard.bytes + frame.len() - shard.frames[idx].len();
            if bytes > self.shard_budget {
                // The page grew past the shard's budget. Its old image is superseded,
                // so the frame goes, and the new one is installed like a miss's.
                shard.remove(idx);
                return self.install(&mut shard, frame);
            }
            shard.bytes = bytes;
            shard.changes += 1;
            shard.frames[idx] = frame;
            return Ok(());
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.install(&mut shard, frame)
    }

    /// Drop a clean frame whose page nobody will read again — a committed page a
    /// mutation relocated — so it stops taking budget from live pages. A dirty frame
    /// stays: its bytes are not in the store yet.
    pub(crate) fn discard(&self, page_id: u64) {
        let mut shard = self.shard(page_id).lock();
        if let Some(&idx) = shard.index.get(&page_id) {
            if !shard.frames[idx].dirty {
                shard.remove(idx);
            }
        }
    }

    /// Write every dirty page back to the store in ascending page-id order, marking
    /// each frame clean only after its store write succeeded. Does **not** sync the
    /// store; callers that need durability follow with [`PageStore::sync`] (or use
    /// [`BufferPool::flush_all`]).
    ///
    /// Callers must prevent concurrent `write`s for the write-back to be exhaustive
    /// (the B+-tree holds its exclusive epoch latch across a checkpoint's write-back
    /// and cut, and releases it before the barriers); concurrent reads are harmless.
    ///
    /// Returns the page ids written, in write order.
    pub fn write_back(&self) -> Result<Vec<u64>> {
        let mut dirty: Vec<(u64, Bytes)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for f in shard.frames.iter().filter(|f| f.dirty) {
                dirty.push((f.page_id, f.stored().clone()));
            }
        }
        dirty.sort_by_key(|(id, _)| *id);
        let mut written = Vec::with_capacity(dirty.len());
        for (page_id, data) in dirty {
            self.store.write_page(page_id, &data)?;
            self.stats.flush_writes.fetch_add(1, Ordering::Relaxed);
            written.push(page_id);
            let mut shard = self.shard(page_id).lock();
            if let Some(&idx) = shard.index.get(&page_id) {
                // Only clear the flag if the frame still holds what we wrote (a
                // concurrent writer may have re-dirtied it; its data is newer).
                let f = &mut shard.frames[idx];
                if std::ptr::eq(f.stored().as_ptr(), data.as_ptr()) {
                    f.dirty = false;
                }
            }
        }
        Ok(written)
    }

    /// Write every dirty page back to the store (ordered) and sync it.
    pub fn flush_all(&self) -> Result<()> {
        self.write_back()?;
        self.store.sync()
    }

    /// Flush and return the underlying store.
    pub fn into_store(self) -> Result<S> {
        self.flush_all()?;
        Ok(self.store)
    }

    /// Access the underlying store without flushing.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Cache a page that is not resident, evicting until it fits the shard's budget.
    /// The last victim's slot takes the new frame in place, so a pool of equal-size
    /// pages evicts one frame per miss, in the order a frame-counted CLOCK does.
    fn install(&self, shard: &mut Shard, frame: Frame) -> Result<()> {
        let (page_id, len) = (frame.page_id, frame.len());
        shard.changes += 1;
        while shard.bytes + len > self.shard_budget && !shard.frames.is_empty() {
            let idx = self.evict_one(shard)?;
            let freed = shard.frames[idx].len();
            if shard.bytes - freed + len <= self.shard_budget {
                shard.index.remove(&shard.frames[idx].page_id);
                shard.bytes = shard.bytes - freed + len;
                shard.frames[idx] = frame;
                shard.index.insert(page_id, idx);
                return Ok(());
            }
            shard.remove(idx);
        }
        shard.bytes += len;
        shard.index.insert(page_id, shard.frames.len());
        shard.frames.push(frame);
        Ok(())
    }

    /// CLOCK eviction within one shard: sweep until an unreferenced frame is found,
    /// clearing reference bits along the way; write the victim back if dirty (still
    /// under the shard latch, so no thread can read the store image of a page whose
    /// write-back is in flight). Returns the victim's index; the caller reuses or
    /// removes its slot.
    fn evict_one(&self, shard: &mut Shard) -> Result<usize> {
        loop {
            let idx = shard.clock_hand;
            shard.clock_hand = (shard.clock_hand + 1) % shard.frames.len();
            if shard.frames[idx].referenced {
                shard.frames[idx].referenced = false;
                continue;
            }
            if shard.frames[idx].dirty {
                let frame = &shard.frames[idx];
                self.store.write_page(frame.page_id, frame.stored())?;
                self.stats.dirty_evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.clean_evictions.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_store::{MemPageStore, TracingPageStore};

    const PS: usize = 64;

    fn page(b: u8) -> Vec<u8> {
        vec![b; PS]
    }

    #[test]
    fn read_write_hit_miss_accounting() {
        let pool = BufferPool::new(MemPageStore::new(PS), 4);
        assert!(pool.read(1).unwrap().is_none());
        pool.write(1, page(1)).unwrap();
        assert_eq!(pool.read(1).unwrap().unwrap(), page(1));
        let s = pool.stats();
        assert_eq!(s.hits, 1); // the read-after-write
        assert!(s.misses >= 2); // the initial missing read and the write install
    }

    #[test]
    fn dirty_pages_reach_the_store_only_on_eviction_or_flush() {
        let store = TracingPageStore::new(MemPageStore::new(PS));
        let pool = BufferPool::new(store, 4);
        for i in 0..4u64 {
            pool.write(i, page(i as u8)).unwrap();
        }
        assert_eq!(
            pool.store().trace_len(),
            0,
            "nothing should reach the store yet"
        );
        assert_eq!(pool.dirty_pages(), 4);
        // Overflow the pool: evictions must write dirty pages back.
        for i in 4..10u64 {
            pool.write(i, page(i as u8)).unwrap();
        }
        assert!(pool.store().trace_len() > 0);
        pool.flush_all().unwrap();
        assert_eq!(pool.dirty_pages(), 0);
        let (trace, inner) = pool.into_store().unwrap().into_parts();
        // Every written page is durable in the inner store.
        assert_eq!(inner.distinct_pages(), 10);
        assert!(trace.len() >= 10);
    }

    #[test]
    fn repeated_access_to_hot_pages_is_absorbed() {
        let store = TracingPageStore::new(MemPageStore::new(PS));
        let pool = BufferPool::new(store, 8);
        // A working set that fits: repeatedly rewrite the same 4 pages.
        for round in 0..100u64 {
            for i in 0..4u64 {
                pool.write(i, page((round % 250) as u8)).unwrap();
            }
        }
        // No evictions were needed, so the store saw nothing.
        assert_eq!(pool.store().trace_len(), 0);
        assert!(pool.stats().hit_ratio() > 0.9);
    }

    #[test]
    fn evicted_then_reread_pages_survive() {
        let pool = BufferPool::new(MemPageStore::new(PS), 4);
        for i in 0..32u64 {
            pool.write(i, page(i as u8)).unwrap();
        }
        for i in 0..32u64 {
            assert_eq!(
                pool.read(i).unwrap().unwrap(),
                page(i as u8),
                "page {i} lost"
            );
        }
    }

    #[test]
    fn write_back_is_ordered_by_page_id() {
        let store = TracingPageStore::new(MemPageStore::new(PS));
        let pool = BufferPool::new(store, 64);
        // Insert in scrambled order; write-back must still be ascending.
        for i in [9u64, 3, 41, 7, 0, 25, 12] {
            pool.write(i, page(i as u8)).unwrap();
        }
        let written = pool.write_back().unwrap();
        assert_eq!(written, vec![0, 3, 7, 9, 12, 25, 41]);
        assert_eq!(pool.store().trace().writes, vec![0, 3, 7, 9, 12, 25, 41]);
        assert_eq!(pool.dirty_pages(), 0);
    }

    #[test]
    fn flush_all_clears_dirty_state() {
        let pool = BufferPool::new(MemPageStore::new(PS), 4);
        pool.write(1, page(9)).unwrap();
        pool.flush_all().unwrap();
        let before = pool.stats().flush_writes;
        pool.flush_all().unwrap();
        assert_eq!(
            pool.stats().flush_writes,
            before,
            "second flush had nothing to do"
        );
    }

    #[test]
    fn concurrent_readers_and_writers_on_a_shared_pool() {
        let pool = std::sync::Arc::new(BufferPool::new(MemPageStore::new(PS), 128));
        for i in 0..256u64 {
            pool.write(i, page((i % 250) as u8)).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for round in 0..500u64 {
                        let i = (t * 97 + round) % 256;
                        let got = pool.read(i).unwrap().unwrap();
                        assert_eq!(got, page((i % 250) as u8), "page {i} corrupted");
                    }
                });
            }
            let pool = pool.clone();
            scope.spawn(move || {
                // Rewrite pages with their same canonical contents while readers run.
                for round in 0..500u64 {
                    let i = (round * 31) % 256;
                    pool.write(i, page((i % 250) as u8)).unwrap();
                }
            });
        });
        pool.flush_all().unwrap();
        assert_eq!(pool.store().distinct_pages(), 256);
    }

    /// A page of `len` bytes, each byte derived from the page id and a version.
    fn short_page(id: u64, version: u64, len: usize) -> Vec<u8> {
        vec![(id * 31 + version) as u8; len]
    }

    #[test]
    fn short_frames_stretch_the_budget_past_the_page_count() {
        let store = TracingPageStore::new(MemPageStore::new(PS));
        let pool = BufferPool::new(store, 4);
        assert_eq!(pool.budget_bytes(), 4 * PS);
        // Sixteen quarter pages are four pages' worth: all of them stay resident.
        for i in 0..16u64 {
            pool.write(i, short_page(i, 0, PS / 4)).unwrap();
        }
        assert_eq!(pool.cached_pages(), 16);
        assert_eq!(pool.cached_bytes(), 4 * PS);
        assert_eq!(pool.store().trace_len(), 0, "nothing was evicted");
        // One more byte evicts: a pool counted in frames would have held only four.
        pool.write(16, short_page(16, 0, 1)).unwrap();
        assert_eq!(pool.cached_pages(), 16);
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    /// Pages of random lengths, rewritten longer and shorter while they are resident,
    /// read back after eviction: the pool never holds more bytes than its budget, dirty
    /// frames reach the store when they are evicted, and every page reads back as it
    /// was last written — through the pool and, after a flush, from the store.
    #[test]
    fn resident_bytes_stay_within_the_budget_and_evicted_dirty_frames_reach_the_store() {
        for capacity in [4usize, 64] {
            let pool = BufferPool::new(TracingPageStore::new(MemPageStore::new(PS)), capacity);
            let budget = pool.budget_bytes();
            assert!(budget >= capacity * PS && budget < (capacity + 16) * PS);
            let mut state = capacity as u64;
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            let pages = 8 * capacity as u64;
            let mut model = HashMap::new();
            for version in 0..20 * pages {
                let id = next(pages);
                if next(3) == 0 {
                    let got = pool.read(id).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        model.get(&id).map(Vec::as_slice),
                        "page {id}"
                    );
                } else {
                    let page = short_page(id, version, 1 + next(PS as u64) as usize);
                    pool.write(id, page.clone()).unwrap();
                    model.insert(id, page);
                }
                assert!(
                    pool.cached_bytes() <= budget,
                    "{} > {budget}",
                    pool.cached_bytes()
                );
            }
            let stats = pool.stats();
            assert!(stats.dirty_evictions > 100, "{stats:?}");
            assert!(
                pool.cached_pages() > capacity,
                "short pages must outnumber the capacity"
            );
            // Every dirty eviction was a store write; the flush writes the rest.
            assert_eq!(pool.store().trace_len() as u64, stats.dirty_evictions);
            pool.flush_all().unwrap();
            for (id, page) in &model {
                assert_eq!(
                    pool.store().read_page(*id).unwrap().as_deref(),
                    Some(&page[..])
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two frames")]
    fn tiny_pool_rejected() {
        let _ = BufferPool::new(MemPageStore::new(PS), 1);
    }
}
