//! The page table: the dynamic remapping from logical page id to current physical
//! location that log structuring requires (every write relocates the page).
//!
//! Two forms are provided:
//!
//! * [`PageTable`] — a plain single-owner map, used by recovery/checkpoint loading to
//!   assemble state and by unit tests of the cleaner's pure helpers. It is split into
//!   the same shards as the concurrent form, so installing it hands each shard's map
//!   over whole.
//! * [`ShardedPageTable`] — the concurrent table the live store uses: page ids are
//!   hashed across N shards, each behind its own `parking_lot::RwLock`, so `get` takes
//!   `&self` and readers on different shards (and concurrent readers of the same shard)
//!   never contend. Aggregate counters (`len`, `live_bytes`) are kept in atomics so the
//!   hot read path never sums across shards.

use crate::types::{PageId, PageLocation};
use crate::util::{mix64, FxHashMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Page table mapping live pages to their current location (single-owner form).
///
/// This is the in-memory analogue of an SSD FTL's logical-to-physical map or an LFS's
/// inode map. It is rebuilt on restart from a checkpoint plus a device scan
/// ([`crate::recovery`]).
#[derive(Debug, Clone)]
pub struct PageTable {
    /// One map per [`ShardedPageTable`] shard: shard `i` holds the pages
    /// [`shard_of`] sends to `i`.
    shards: Vec<FxHashMap<PageId, PageLocation>>,
    live_bytes: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::from_shards(
            (0..PAGE_TABLE_SHARDS)
                .map(|_| FxHashMap::default())
                .collect(),
        )
    }
}

impl PageTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble a table from maps already split by [`shard_of`] — recovery builds each
    /// one at its final size.
    pub(crate) fn from_shards(shards: Vec<FxHashMap<PageId, PageLocation>>) -> Self {
        assert_eq!(shards.len(), PAGE_TABLE_SHARDS, "one map per shard");
        debug_assert!(shards
            .iter()
            .enumerate()
            .all(|(i, map)| map.keys().all(|&page| shard_of(page) == i)));
        let live_bytes = shards
            .iter()
            .flat_map(|map| map.values())
            .map(|loc| loc.len as u64)
            .sum();
        Self { shards, live_bytes }
    }

    /// Number of live pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|map| map.len()).sum()
    }

    /// True if no pages are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of live page payloads.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Current location of a page.
    pub fn get(&self, page: PageId) -> Option<PageLocation> {
        self.shards[shard_of(page)].get(&page).copied()
    }

    /// Install a new location for a page, returning the previous location if the page
    /// was already live.
    pub fn insert(&mut self, page: PageId, loc: PageLocation) -> Option<PageLocation> {
        self.live_bytes += loc.len as u64;
        let old = self.shards[shard_of(page)].insert(page, loc);
        if let Some(o) = old {
            self.live_bytes -= o.len as u64;
        }
        old
    }

    /// Remove a page (deletion), returning its last location.
    pub fn remove(&mut self, page: PageId) -> Option<PageLocation> {
        let old = self.shards[shard_of(page)].remove(&page);
        if let Some(o) = old {
            self.live_bytes -= o.len as u64;
        }
        old
    }

    /// True if the page is currently live at exactly this location.
    ///
    /// The cleaner uses this to decide whether an entry found in a victim segment is the
    /// page's current version (it may have been superseded since the segment was sealed).
    pub fn is_current(&self, page: PageId, loc: &PageLocation) -> bool {
        self.get(page).is_some_and(|cur| cur == *loc)
    }

    /// Iterate over all live pages.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, PageLocation)> + '_ {
        self.shards
            .iter()
            .flat_map(|map| map.iter().map(|(&k, &v)| (k, v)))
    }
}

/// Number of shards in a [`ShardedPageTable`]. A fixed power of two keeps the shard
/// selection branch-free; 64 shards is comfortably above the core counts this store
/// targets, so shard collisions between concurrent readers are rare.
pub const PAGE_TABLE_SHARDS: usize = 64;

/// The shard a page lives in, in both page-table forms.
#[inline]
pub(crate) fn shard_of(page: PageId) -> usize {
    // Mix before masking: page ids are often dense small integers, and the low bits
    // alone would put striding workloads on a handful of shards.
    (mix64(page) as usize) & (PAGE_TABLE_SHARDS - 1)
}

/// The concurrent page table: N independently locked shards plus atomic aggregates.
///
/// All methods take `&self`. Point lookups and updates lock exactly one shard; only
/// [`ShardedPageTable::snapshot`] (checkpointing) walks every shard.
#[derive(Debug)]
pub struct ShardedPageTable {
    shards: Box<[RwLock<FxHashMap<PageId, PageLocation>>]>,
    live_pages: AtomicU64,
    live_bytes: AtomicU64,
    /// Bitmask of shards mutated since the last [`ShardedPageTable::take_dirty`] — one
    /// bit per shard (`PAGE_TABLE_SHARDS` must stay ≤ 64). Incremental checkpoints
    /// re-snapshot only the dirty shards.
    dirty: AtomicU64,
}

impl Default for ShardedPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedPageTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self {
            shards: (0..PAGE_TABLE_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            live_pages: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            // A fresh table has never been checkpointed, so every shard starts dirty.
            dirty: AtomicU64::new(Self::all_dirty_mask()),
        }
    }

    /// Bitmask with one set bit per shard (the "everything is dirty" mask).
    #[inline]
    pub const fn all_dirty_mask() -> u64 {
        u64::MAX >> (64 - PAGE_TABLE_SHARDS)
    }

    #[inline]
    fn shard(&self, page: PageId) -> &RwLock<FxHashMap<PageId, PageLocation>> {
        &self.shards[shard_of(page)]
    }

    #[inline]
    fn mark_dirty(&self, page: PageId) {
        self.dirty
            .fetch_or(1u64 << shard_of(page), Ordering::Relaxed);
    }

    /// Atomically fetch-and-clear the dirty-shard mask (bit `i` set = shard `i` mutated
    /// since the previous call). The caller must snapshot the flagged shards before any
    /// further mutations can occur, or OR the mask back with
    /// [`ShardedPageTable::mark_dirty_mask`] if the checkpoint attempt fails.
    pub fn take_dirty(&self) -> u64 {
        self.dirty.swap(0, Ordering::Relaxed)
    }

    /// OR bits back into the dirty mask (undo of [`ShardedPageTable::take_dirty`] when a
    /// checkpoint write fails after the mask was consumed).
    pub fn mark_dirty_mask(&self, mask: u64) {
        self.dirty.fetch_or(mask, Ordering::Relaxed);
    }

    /// Collect the live pages of one shard (incremental checkpointing).
    pub fn shard_snapshot(&self, shard: usize) -> Vec<(PageId, PageLocation)> {
        let shard = self.shards[shard].read();
        shard.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Number of live pages.
    pub fn len(&self) -> usize {
        self.live_pages.load(Ordering::Relaxed) as usize
    }

    /// True if no pages are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of live page payloads.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Current location of a page.
    pub fn get(&self, page: PageId) -> Option<PageLocation> {
        self.shard(page).read().get(&page).copied()
    }

    /// Install a new location for a page, returning the previous location if the page
    /// was already live.
    pub fn insert(&self, page: PageId, loc: PageLocation) -> Option<PageLocation> {
        let old = self.shard(page).write().insert(page, loc);
        self.mark_dirty(page);
        self.live_bytes.fetch_add(loc.len as u64, Ordering::Relaxed);
        match old {
            Some(o) => {
                self.live_bytes.fetch_sub(o.len as u64, Ordering::Relaxed);
            }
            None => {
                self.live_pages.fetch_add(1, Ordering::Relaxed);
            }
        }
        old
    }

    /// Remove a page (deletion), returning its last location.
    pub fn remove(&self, page: PageId) -> Option<PageLocation> {
        let old = self.shard(page).write().remove(&page);
        if let Some(o) = old {
            self.mark_dirty(page);
            self.live_bytes.fetch_sub(o.len as u64, Ordering::Relaxed);
            self.live_pages.fetch_sub(1, Ordering::Relaxed);
        }
        old
    }

    /// True if the page is currently live at exactly this location (the cleaner's
    /// conflict check: a page rewritten since victim selection fails this test and its
    /// stale copy is skipped).
    pub fn is_current(&self, page: PageId, loc: &PageLocation) -> bool {
        self.get(page).is_some_and(|cur| cur == *loc)
    }

    /// Atomically move a page from `expected` to `new`, failing if the page is no longer
    /// live at exactly `expected`.
    ///
    /// This is the cleaner's *commit* operation in the sharded-write-path design: the
    /// check and the update happen under one shard write lock, so a concurrent user
    /// rewrite (which unconditionally [`ShardedPageTable::insert`]s) either lands before
    /// the swap — the swap fails and the stale GC copy is abandoned — or after it, in
    /// which case the user's newer location simply overwrites the relocated one. Both
    /// orders leave the newest data current.
    pub fn replace_if_current(
        &self,
        page: PageId,
        expected: &PageLocation,
        new: PageLocation,
    ) -> bool {
        let mut shard = self.shard(page).write();
        match shard.get_mut(&page) {
            Some(cur) if *cur == *expected => {
                *cur = new;
                drop(shard);
                self.mark_dirty(page);
                self.live_bytes.fetch_add(new.len as u64, Ordering::Relaxed);
                self.live_bytes
                    .fetch_sub(expected.len as u64, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Atomically remove a page, failing if it is no longer live at exactly `expected`.
    ///
    /// Counterpart of [`ShardedPageTable::replace_if_current`] for deletions: the write
    /// path uses it so the death of the removed copy can be attributed to the segment
    /// incarnation that was observed *while the location was still current*.
    pub fn remove_if_current(&self, page: PageId, expected: &PageLocation) -> bool {
        let mut shard = self.shard(page).write();
        match shard.get(&page) {
            Some(cur) if *cur == *expected => {
                shard.remove(&page);
                drop(shard);
                self.mark_dirty(page);
                self.live_bytes
                    .fetch_sub(expected.len as u64, Ordering::Relaxed);
                self.live_pages.fetch_sub(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Collect every live page into a plain vector (checkpointing; O(n)).
    pub fn snapshot(&self) -> Vec<(PageId, PageLocation)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let shard = shard.read();
            out.extend(shard.iter().map(|(&k, &v)| (k, v)));
        }
        out
    }

    /// Every live page id, shard by shard (so in no particular order; O(n)).
    pub(crate) fn page_ids(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(shard.read().keys().copied());
        }
        out
    }

    /// Replace the entire contents with a recovered [`PageTable`] (restart path): each
    /// of its shard maps becomes the shard's map as it is, one lock per shard.
    pub fn install(&self, table: PageTable) {
        let (pages, bytes) = (table.len() as u64, table.live_bytes());
        for (shard, map) in self.shards.iter().zip(table.shards) {
            *shard.write() = map;
        }
        self.live_pages.store(pages, Ordering::Relaxed);
        self.live_bytes.store(bytes, Ordering::Relaxed);
        // Wholesale replacement invalidates any previous checkpoint's notion of "clean".
        self.dirty.store(Self::all_dirty_mask(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SegmentId;

    fn loc(seg: u32, offset: u32, len: u32) -> PageLocation {
        PageLocation {
            segment: SegmentId(seg),
            offset,
            len,
            write_seq: 0,
        }
    }

    #[test]
    fn dirty_mask_tracks_mutated_shards() {
        let t = ShardedPageTable::new();
        // A fresh table starts fully dirty; draining the mask resets it.
        assert_eq!(t.take_dirty(), ShardedPageTable::all_dirty_mask());
        assert_eq!(t.take_dirty(), 0);

        t.insert(1, loc(0, 0, 8));
        let mask = t.take_dirty();
        assert_eq!(mask.count_ones(), 1, "one insert dirties exactly one shard");
        assert_eq!(t.take_dirty(), 0);

        // Failed CAS operations leave the mask clean; successful ones dirty it.
        assert!(!t.replace_if_current(1, &loc(9, 9, 8), loc(2, 0, 8)));
        assert_eq!(t.take_dirty(), 0);
        assert!(t.replace_if_current(1, &loc(0, 0, 8), loc(2, 0, 8)));
        assert_eq!(t.take_dirty(), mask);
        assert!(t.remove_if_current(1, &loc(2, 0, 8)));
        assert_eq!(t.take_dirty(), mask);

        // mark_dirty_mask restores bits after a failed checkpoint write.
        t.mark_dirty_mask(mask);
        assert_eq!(t.take_dirty(), mask);

        // install() re-dirties everything.
        t.install(PageTable::new());
        assert_eq!(t.take_dirty(), ShardedPageTable::all_dirty_mask());
    }

    #[test]
    fn shard_snapshots_cover_exactly_the_table() {
        let t = ShardedPageTable::new();
        for i in 0..300u64 {
            t.insert(i, loc((i % 5) as u32, i as u32, 16));
        }
        let mut via_shards: Vec<(PageId, PageLocation)> = (0..PAGE_TABLE_SHARDS)
            .flat_map(|s| t.shard_snapshot(s))
            .collect();
        via_shards.sort_unstable_by_key(|(p, _)| *p);
        let mut full = t.snapshot();
        full.sort_unstable_by_key(|(p, _)| *p);
        assert_eq!(via_shards, full);
        assert_eq!(via_shards.len(), 300);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = PageTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, loc(0, 100, 50)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.live_bytes(), 50);
        assert_eq!(t.get(1), Some(loc(0, 100, 50)));
        assert_eq!(t.remove(1), Some(loc(0, 100, 50)));
        assert_eq!(t.live_bytes(), 0);
        assert!(t.get(1).is_none());
        assert!(t.remove(1).is_none());
    }

    #[test]
    fn insert_returns_previous_location_and_adjusts_bytes() {
        let mut t = PageTable::new();
        t.insert(7, loc(0, 0, 100));
        let old = t.insert(7, loc(1, 0, 40));
        assert_eq!(old, Some(loc(0, 0, 100)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.live_bytes(), 40);
    }

    #[test]
    fn is_current_distinguishes_stale_copies() {
        let mut t = PageTable::new();
        t.insert(9, loc(2, 64, 16));
        assert!(t.is_current(9, &loc(2, 64, 16)));
        assert!(!t.is_current(9, &loc(2, 0, 16)));
        assert!(!t.is_current(9, &loc(3, 64, 16)));
        assert!(!t.is_current(10, &loc(2, 64, 16)));
    }

    #[test]
    fn iter_visits_all_live_pages() {
        let mut t = PageTable::new();
        for i in 0..100u64 {
            t.insert(i, loc(0, i as u32, 8));
        }
        let mut pages: Vec<PageId> = t.iter().map(|(p, _)| p).collect();
        pages.sort_unstable();
        assert_eq!(pages, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_basic_roundtrip_and_counters() {
        let t = ShardedPageTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, loc(0, 100, 50)), None);
        assert_eq!(t.insert(2, loc(0, 150, 30)), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.live_bytes(), 80);
        assert_eq!(t.insert(1, loc(1, 0, 10)), Some(loc(0, 100, 50)));
        assert_eq!(t.live_bytes(), 40);
        assert_eq!(t.remove(2), Some(loc(0, 150, 30)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.live_bytes(), 10);
    }

    #[test]
    fn sharded_snapshot_and_install_roundtrip() {
        let t = ShardedPageTable::new();
        for i in 0..500u64 {
            t.insert(i, loc((i % 7) as u32, i as u32, 16));
        }
        let mut snap = t.snapshot();
        snap.sort_unstable_by_key(|(p, _)| *p);
        assert_eq!(snap.len(), 500);
        assert_eq!(snap[42], (42, loc(0, 42, 16)));

        let mut plain = PageTable::new();
        for (p, l) in snap {
            plain.insert(p, l);
        }
        let t2 = ShardedPageTable::new();
        t2.install(plain);
        assert_eq!(t2.len(), 500);
        assert_eq!(t2.live_bytes(), 500 * 16);
        for i in 0..500u64 {
            assert_eq!(t2.get(i), Some(loc((i % 7) as u32, i as u32, 16)));
        }
    }

    #[test]
    fn replace_if_current_commits_only_against_the_expected_location() {
        let t = ShardedPageTable::new();
        t.insert(5, loc(1, 0, 32));
        // Wrong expected location: no change.
        assert!(!t.replace_if_current(5, &loc(1, 64, 32), loc(2, 0, 32)));
        assert_eq!(t.get(5), Some(loc(1, 0, 32)));
        // Matching expected location: swapped.
        assert!(t.replace_if_current(5, &loc(1, 0, 32), loc(2, 0, 32)));
        assert_eq!(t.get(5), Some(loc(2, 0, 32)));
        assert_eq!(t.live_bytes(), 32);
        // Unknown page: no change, no phantom insert.
        assert!(!t.replace_if_current(6, &loc(1, 0, 32), loc(2, 0, 32)));
        assert!(t.get(6).is_none());
    }

    #[test]
    fn sharded_concurrent_inserts_and_reads_are_coherent() {
        let t = std::sync::Arc::new(ShardedPageTable::new());
        let threads = 8u64;
        let per_thread = 2_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let page = tid * per_thread + i;
                    t.insert(page, loc(tid as u32, i as u32, 8));
                    assert_eq!(t.get(page), Some(loc(tid as u32, i as u32, 8)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len() as u64, threads * per_thread);
        assert_eq!(t.live_bytes(), threads * per_thread * 8);
    }
}
