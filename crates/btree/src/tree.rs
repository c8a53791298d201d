//! The B+-tree itself: ordered byte-string keys and values over pages of at most
//! `page_size` bytes, each stored at its encoded length (see [`crate::node`]), served by
//! a [`BufferPool`] — internally synchronised, so a shared tree serves concurrent readers
//! and writers through `&self`. Internal nodes split when they outgrow the page, leaves
//! once they outgrow half of it: a leaf is what nearly every mutation rewrites, and a
//! smaller leaf costs less log per write.
//!
//! Features: point lookups, inserts/updates with recursive node splits, deletes (without
//! rebalancing — pages may become underfull, which is harmless for the workloads here),
//! and ordered range scans. Scans walk the tree by **successor descent** rather than
//! leaf sibling links: the descent to a leaf remembers the smallest separator to the
//! right of its path, which is exactly the first key of the next leaf — so no persistent
//! `next` pointers are needed. That matters for shadow mode (below): with on-page links,
//! relocating one leaf would force rewriting its left neighbour, cascading through the
//! whole chain.
//!
//! ## Concurrency: optimistic lock-coupling
//!
//! There is no tree-level reader/writer latch on the hot path. Every page id maps to a
//! version word in a [`VersionTable`]; every node write bumps its page's version.
//!
//! * **Readers** descend latch-free: read a page snapshot from the pool, re-check the
//!   page's version, hand over to the child (validating the parent once more after
//!   capturing the child's version), and — crucially — re-validate the leaf *after*
//!   applying the caller's closure to a value, so anything the value references (e.g.
//!   a KV value page) is proven not to have been superseded mid-read. Any version
//!   mismatch restarts the descent. Descents search the *encoded* pages directly
//!   (`node::raw_internal_search` / `raw_leaf_search`) — a validated snapshot is
//!   parsed in place, never decoded into an owned node, so the read path allocates
//!   nothing.
//! * **Writers** descend optimistically recording the path (raw page snapshots, same
//!   zero-decode search) in a fixed array of `MAX_DEPTH` levels, and then *edit the
//!   encoded pages*: the leaf image is spliced by `node::leaf_upsert` / `leaf_remove`
//!   (one pass over the snapshot, one copy of its bytes, the old value returned), an
//!   ancestor whose child relocated gets its 8-byte child pointer patched
//!   (`node::internal_repoint`), one whose child split gets the separator spliced in
//!   (`node::internal_insert`, which also splits the ancestor when it overflows).
//!   Nothing on the write path is decoded into an owned node, so a steady-state
//!   in-place mutation allocates its output page and the returned old value and
//!   nothing else. From the edited leaf the writer computes exactly which suffix of
//!   the path the mutation rewrites (the leaf, plus every ancestor reached by a split
//!   or a shadow relocation), then try-locks exactly those nodes' version slots
//!   by CAS-ing the versions observed during the descent — crabbing that takes
//!   exclusive latches only on nodes that actually change. Any CAS failure releases
//!   everything and restarts. Writers never block on a version slot while holding
//!   another, so latch deadlocks are impossible.
//! * **Checkpoints** (and walks, and flushes) take the tree's *epoch latch*
//!   exclusively; every mutation holds it shared. This replaces the old exclusive
//!   tree latch for exactly one job: freezing the epoch's page set while a
//!   [`TreeCheckpoint`] writes it back and cuts it — the caller's barriers run after
//!   the cut, with the latch released. After `OPT_RETRIES` failed optimistic attempts an
//!   operation falls back to the epoch latch's exclusive side, which quiesces all
//!   writers — guaranteed progress, no starvation in either direction. A quiesced
//!   mutation runs the *same* attempt as an optimistic one (there is one
//!   implementation of the write path); with every other mutator and the
//!   checkpointer excluded no version can move under it, so it succeeds at once.
//!   Optimistic readers take **no** epoch latch, and are kept out as on the
//!   optimistic path: every rewritten page stays version-locked (odd) until the
//!   root is published. Fallback scans quiesce one leaf at a time rather than
//!   pinning writers for the scan's whole tail.
//!
//! Lock order: epoch latch → version slot → allocator mutex → pool shard latch (each
//! a leaf with respect to the ones after it; the pool never takes a tree lock).
//!
//! ## Shadow (copy-on-write) mode
//!
//! A tree opened with [`BTree::open_shadow`] never overwrites a *committed* page: the
//! first time an epoch modifies a node, the node is relocated to a freshly allocated
//! page id and the old id is queued on a freed list (path copying — the parent is being
//! rewritten anyway to repoint at the relocated child, all the way to the root). Pages
//! allocated since the last cut are "fresh" and are updated in place. A
//! [`TreeCheckpoint`] then ends the epoch: under the exclusive epoch latch it writes
//! back the dirty pages (all of them fresh ids) and *cuts* — snapshots root, watermark
//! and key count, takes the freed ids and clears `fresh`, so the next epoch relocates
//! the cut epoch's pages instead of rewriting them. With the latch released, the
//! caller makes the pages durable and places a commit record (the KV layer's
//! superblock) pointing at the cut root, and only then releases the freed ids for
//! reuse — bumping the freed pages' versions first, so optimistic readers still
//! standing on a stale path restart instead of chasing reclaimed pages. Crash at any point and the
//! previously committed root still describes a fully intact tree. Stand-alone trees
//! ([`BTree::open`]) skip all of this and update pages in place, which keeps the TPC-C
//! page-write traces of the Figure 6 experiment faithful.
//!
//! ## Leaf deltas
//!
//! A shadow-mode leaf the epoch touches is stored as a *delta* — its committed base's
//! id and every entry changed since that base (see [`crate::node`]) — rather than as
//! its whole image, which a mutation changes by one entry. The pool keeps the
//! consolidated leaf in the frame, so only the write path knows: relocating a whole
//! committed leaf X makes X the new page's base (X stays off the freed list); relocating
//! a delta Z with base B copies Z's delta, frees Z and keeps B; a fresh delta leaf is
//! extended in place. A delta is cumulative, never chained, and its base is always a
//! whole leaf of an already committed epoch — durable before any superblock can name
//! the delta. After each edit, a delta longer than half its consolidated leaf is
//! dropped and the leaf is stored whole (*consolidation*), as is a leaf that splits;
//! either queues the base on the epoch's freed list, released after the commit like
//! every freed id — so each base is freed exactly once, and never while a reachable
//! delta names it. [`BTree::walk`] reports each delta leaf's base as reachable.
//!
//! A delta is paid for by readers too: a pool miss on a delta leaf reads two pages, the
//! delta and its base. So a leaf whose delta a miss had to read back is consolidated at
//! its next write whatever the delta's length — a leaf that keeps leaving the pool
//! pays the second read once per delta, not on every miss until the delta outgrows
//! half the leaf. (With a pool far smaller than the index, as `kv-mixed`'s, nearly
//! every leaf leaves the pool between two writes: half-leaf consolidation alone left
//! ~95 % of leaves as deltas and added a read to nearly every leaf miss.)

use crate::buffer_pool::{BufferPool, LeafDelta};
use crate::latch::VersionTable;
use crate::node::{
    delta_empty, delta_upsert, internal_insert, internal_repoint, internal_root, leaf_remove,
    leaf_upsert, raw_internal_search, raw_is_leaf, raw_leaf_entries, raw_leaf_search, MetaPage,
    Node, PageEdit,
};
use crate::page_store::PageStore;
use bytes::Bytes;
use lss_core::error::{Error, Result};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Page id of the metadata page (stand-alone mode only; never allocated to nodes).
const META_PAGE: u64 = 0;

/// Failed optimistic attempts before an operation falls back to the exclusive side of
/// the epoch latch (quiescing writers). High enough that the fallback is rare under
/// ordinary contention, low enough to bound tail latency under pathological aliasing.
const OPT_RETRIES: u32 = 8;

/// Deepest root-to-leaf path a writer records. A mutation's bookkeeping lives in
/// arrays of this size, so it allocates nothing per level; a tree this deep is out of
/// reach of any store (every level multiplies the leaf count by at least two), and a
/// mutation that would have to follow or grow one fails with [`Error::TreeTooDeep`].
const MAX_DEPTH: usize = 32;

/// Allocator state: the page-id watermark plus the shadow epoch's page sets.
#[derive(Debug)]
struct AllocState {
    /// Next never-used page id (the allocation watermark).
    next_page_id: u64,
    /// Shadow mode: pages allocated since the last commit — safe to update in place.
    fresh: HashSet<u64>,
    /// Shadow mode: committed pages superseded this epoch; reusable after commit.
    freed: Vec<u64>,
    /// Shadow mode: page ids free for reuse (freed by previously committed epochs).
    free: Vec<u64>,
}

/// Lock-free concurrency counters (see [`TreeStats`]).
#[derive(Debug, Default)]
struct TreeCounters {
    read_restarts: AtomicU64,
    write_restarts: AtomicU64,
    writer_ops: AtomicU64,
    writer_locks: AtomicU64,
    read_fallbacks: AtomicU64,
    write_fallbacks: AtomicU64,
}

/// A snapshot of the tree's optimistic-lock-coupling statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Optimistic reader descents that hit a version change and restarted.
    pub read_restarts: u64,
    /// Writer attempts that failed validation/locking and restarted.
    pub write_restarts: u64,
    /// Mutations (inserts + deletes) that modified the tree or probed it.
    pub writer_ops: u64,
    /// Version-slot locks taken by writers (crabbing locks; see
    /// [`TreeStats::avg_crab_depth`]).
    pub writer_locks: u64,
    /// Reads that exhausted their optimistic retries and quiesced the writers.
    pub read_fallbacks: u64,
    /// Writes that exhausted their optimistic retries and quiesced the writers.
    pub write_fallbacks: u64,
}

impl TreeStats {
    /// Mean number of version locks a mutation held — 1.0 means pure leaf-only
    /// crabbing, higher means splits/relocations reached ancestors.
    pub fn avg_crab_depth(&self) -> f64 {
        if self.writer_ops == 0 {
            0.0
        } else {
            self.writer_locks as f64 / self.writer_ops as f64
        }
    }
}

/// An ordered key/value B+-tree over a page store.
#[derive(Debug)]
pub struct BTree<S: PageStore> {
    pool: BufferPool<S>,
    page_size: usize,
    /// A leaf whose image outgrows this many bytes splits (half the page).
    leaf_target: usize,
    /// Copy-on-write mode (see the module docs).
    shadow: bool,
    /// Page id of the root node (changes under the root's version lock).
    root: AtomicU64,
    /// Number of live keys.
    len: AtomicU64,
    alloc: Mutex<AllocState>,
    versions: VersionTable,
    /// Shared by every mutation, exclusive for checkpoints/walks/fallbacks.
    epoch_latch: RwLock<()>,
    counters: TreeCounters,
}

/// One step of a writer's recorded descent: the raw validated snapshot of the page,
/// which the mutation edits in its encoded form — nothing on the write path decodes.
struct PathEntry {
    page: u64,
    ver: u64,
    bytes: Bytes,
    /// The delta that stores the page (a leaf stored as one).
    delta: Option<LeafDelta>,
    /// The child slot the descent took (internal nodes; 0 for the leaf).
    idx: usize,
}

/// A writer's recorded descent, root first.
struct Path {
    levels: [Option<PathEntry>; MAX_DEPTH],
    len: usize,
}

impl Path {
    fn new() -> Self {
        Self {
            levels: [const { None }; MAX_DEPTH],
            len: 0,
        }
    }

    fn push(&mut self, entry: PathEntry) -> Result<()> {
        let slot = self
            .levels
            .get_mut(self.len)
            .ok_or(Error::TreeTooDeep { max: MAX_DEPTH })?;
        *slot = Some(entry);
        self.len += 1;
        Ok(())
    }
}

impl std::ops::Index<usize> for Path {
    type Output = PathEntry;

    fn index(&self, level: usize) -> &PathEntry {
        self.levels[level]
            .as_ref()
            .expect("level below the recorded depth")
    }
}

/// Per-level decisions of a mutation, computed *exactly* from the descent snapshots
/// before any lock or allocation, so the apply phase follows the plan verbatim.
#[derive(Debug, Default, Clone, Copy)]
struct LevelPlan {
    /// Shadow mode: the node moves to a new page id (it was not fresh this epoch).
    relocate: bool,
    /// The rewritten node overflows and splits.
    split: bool,
    /// The page id the rewritten node is written to.
    target: u64,
    /// The page id of the right half (meaningful only if `split`).
    sibling: u64,
}

/// How a mutation stores its edited leaf (shadow mode; see "Leaf deltas" in the module
/// docs). The default — whole, no base involved — is every stand-alone write.
#[derive(Debug, Default)]
struct LeafStore {
    /// Store this delta rather than the whole leaf.
    delta: Option<LeafDelta>,
    /// The leaf's base, when the leaf stops naming it: queued on the freed list.
    drops_base: Option<u64>,
    /// The relocated leaf's old page stays off the freed list: it is the new delta's
    /// base.
    keeps_old: bool,
}

/// Outcome of one optimistic attempt.
enum Attempt<T> {
    Done(T),
    Conflict,
}

/// RAII over a set of locked version slots: always unlocks, even on an error path
/// (an unlock bumps the version, so observers of a half-applied mutation restart).
struct SlotLocks<'a> {
    table: &'a VersionTable,
    slots: [usize; MAX_DEPTH],
    len: usize,
}

impl Drop for SlotLocks<'_> {
    fn drop(&mut self) {
        for &s in &self.slots[..self.len] {
            self.table.unlock_slot(s);
        }
    }
}

impl<S: PageStore> BTree<S> {
    /// Open (or initialise) a stand-alone tree on a buffer pool: pages are updated in
    /// place and the tree's metadata lives in page 0, written by [`BTree::flush`]. If
    /// the store already contains a tree (its meta page decodes), it is reused.
    pub fn open(pool: BufferPool<S>) -> Result<Self> {
        let page_size = Self::check_page_size(&pool)?;
        let meta = match pool.read(META_PAGE)? {
            Some(bytes) => MetaPage::decode(&bytes)?,
            None => {
                // Fresh store: page 1 becomes an empty root leaf.
                let meta = MetaPage {
                    root: 1,
                    next_page_id: 2,
                    len: 0,
                };
                pool.write(1, Node::empty_leaf().encode(page_size)?)?;
                pool.write(META_PAGE, meta.encode())?;
                meta
            }
        };
        Ok(Self::assemble(pool, page_size, false, meta, HashSet::new()))
    }

    /// Open a tree in shadow (copy-on-write) mode.
    ///
    /// `frontier` is the last committed `(root, next_page_id, len)` — recorded by the
    /// caller's commit record (e.g. the KV superblock) — or `None` to initialise a
    /// fresh empty tree whose first pages materialise only at the first checkpoint.
    /// Shadow trees never touch page 0 and never overwrite a committed page; see the
    /// module docs for the epoch protocol.
    pub fn open_shadow(pool: BufferPool<S>, frontier: Option<(u64, u64, u64)>) -> Result<Self> {
        let pool = pool.with_leaf_deltas();
        let page_size = Self::check_page_size(&pool)?;
        let (meta, fresh) = match frontier {
            Some((root, next_page_id, len)) => {
                if root == META_PAGE || root >= next_page_id {
                    return Err(Error::CorruptCheckpoint(format!(
                        "btree frontier root {root} outside (0, {next_page_id})"
                    )));
                }
                (
                    MetaPage {
                        root,
                        next_page_id,
                        len,
                    },
                    HashSet::new(),
                )
            }
            None => {
                // Fresh tree: root leaf at page 1, fresh (dirty in the pool only).
                pool.write(1, Node::empty_leaf().encode(page_size)?)?;
                (
                    MetaPage {
                        root: 1,
                        next_page_id: 2,
                        len: 0,
                    },
                    HashSet::from([1]),
                )
            }
        };
        Ok(Self::assemble(pool, page_size, true, meta, fresh))
    }

    fn assemble(
        pool: BufferPool<S>,
        page_size: usize,
        shadow: bool,
        meta: MetaPage,
        fresh: HashSet<u64>,
    ) -> Self {
        Self {
            pool,
            page_size,
            leaf_target: page_size / 2,
            shadow,
            root: AtomicU64::new(meta.root),
            len: AtomicU64::new(meta.len),
            alloc: Mutex::new(AllocState {
                next_page_id: meta.next_page_id,
                fresh,
                freed: Vec::new(),
                free: Vec::new(),
            }),
            versions: VersionTable::new(),
            epoch_latch: RwLock::new(()),
            counters: TreeCounters::default(),
        }
    }

    fn check_page_size(pool: &BufferPool<S>) -> Result<usize> {
        let page_size = pool.page_size();
        if page_size < 64 {
            return Err(Error::InvalidConfig(format!(
                "page size {page_size} too small for a B+-tree"
            )));
        }
        Ok(page_size)
    }

    /// Largest key+value payload the tree accepts (a quarter page, so that any two
    /// entries always fit after a split, and a leaf split at its byte midpoint leaves
    /// both halves within the page even when the leaf filled a whole page).
    pub fn max_entry_size(&self) -> usize {
        self.page_size / 4
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer-pool statistics (hit ratio, evictions).
    pub fn pool_stats(&self) -> crate::buffer_pool::BufferPoolStats {
        self.pool.stats()
    }

    /// Optimistic-lock-coupling statistics (restarts, crab depth, fallbacks).
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            read_restarts: self.counters.read_restarts.load(Ordering::Relaxed),
            write_restarts: self.counters.write_restarts.load(Ordering::Relaxed),
            writer_ops: self.counters.writer_ops.load(Ordering::Relaxed),
            writer_locks: self.counters.writer_locks.load(Ordering::Relaxed),
            read_fallbacks: self.counters.read_fallbacks.load(Ordering::Relaxed),
            write_fallbacks: self.counters.write_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// The buffer pool (e.g. for dirty-page gauges).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// The underlying page store (without flushing; dirty pages may still be cached).
    pub fn store(&self) -> &S {
        self.pool.store()
    }

    /// Seed the reusable-page-id list (shadow mode; used when reopening a tree whose
    /// free list was reconstructed by a reachability sweep).
    pub fn seed_free_list(&self, ids: impl IntoIterator<Item = u64>) {
        self.alloc.lock().free.extend(ids);
    }

    /// The reusable-page-id list, as it stands (for audits).
    pub(crate) fn free_ids(&self) -> Vec<u64> {
        self.alloc.lock().free.clone()
    }

    /// The ids this epoch superseded so far, waiting for the next cut's commit.
    #[cfg(test)]
    pub(crate) fn freed_ids(&self) -> Vec<u64> {
        self.alloc.lock().freed.clone()
    }

    /// The page-id watermark: every page the tree has allocated is below it.
    pub(crate) fn next_page_id(&self) -> u64 {
        self.alloc.lock().next_page_id
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Look up a key.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_map(key, |v| Ok(v.to_vec()))
    }

    /// Look up a key and transform the value under optimistic validation: after `f`
    /// runs, the leaf's version is re-checked, and on any concurrent change the whole
    /// lookup restarts (so `f` may run more than once). A validated result proves the
    /// entry — and whatever the value references (e.g. a KV value page in the log
    /// store) — was current while `f` read it.
    pub fn get_map<R>(
        &self,
        key: &[u8],
        mut f: impl FnMut(&[u8]) -> Result<R>,
    ) -> Result<Option<R>> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > OPT_RETRIES {
                self.counters.read_fallbacks.fetch_add(1, Ordering::Relaxed);
                let _quiesced = self.epoch_latch.write();
                let (leaf, _) = self.find_leaf(key)?;
                return match raw_leaf_search(&leaf, key)? {
                    Some(v) => f(v).map(Some),
                    None => Ok(None),
                };
            }
            match self.try_get(key, &mut f)? {
                Attempt::Done(out) => return Ok(out),
                Attempt::Conflict => {
                    self.counters.read_restarts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// One optimistic lookup attempt.
    fn try_get<R>(
        &self,
        key: &[u8],
        f: &mut impl FnMut(&[u8]) -> Result<R>,
    ) -> Result<Attempt<Option<R>>> {
        let mut page = self.root.load(Ordering::Acquire);
        let mut ver = self.versions.stable(page);
        if self.root.load(Ordering::Acquire) != page {
            return Ok(Attempt::Conflict);
        }
        loop {
            let Some(bytes) = self.snapshot(page, ver, self.pool.read(page))? else {
                return Ok(Attempt::Conflict);
            };
            // The snapshot is consistent (version stable across the read), so the
            // raw searches below parse committed bytes — no decode, no allocation.
            if raw_is_leaf(&bytes)? {
                let Some(v) = raw_leaf_search(&bytes, key)? else {
                    return Ok(Attempt::Done(None));
                };
                let out = f(v);
                // Validate *after* f: proves the value (and anything it points
                // at) was still current while f read it. On a change, discard
                // whatever f produced — including an error — and restart.
                if self.versions.changed(page, ver) {
                    return Ok(Attempt::Conflict);
                }
                return out.map(|r| Attempt::Done(Some(r)));
            }
            let (_, child, _) = raw_internal_search(&bytes, key)?;
            let child_ver = self.versions.stable(child);
            if self.versions.changed(page, ver) {
                return Ok(Attempt::Conflict);
            }
            page = child;
            ver = child_ver;
        }
    }

    /// Ordered scan of all `(key, value)` pairs with `start <= key < end`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_map(start, end, |k, v| Ok(Some((k.to_vec(), v.to_vec()))))
    }

    /// Ordered scan of `start <= key < end`, applying `f` to each entry under
    /// optimistic validation; entries for which `f` returns `Ok(None)` are skipped.
    ///
    /// Atomicity is per leaf: each emitted entry was validated against its leaf's
    /// version *after* `f` read it, and a restart resumes just past the last emitted
    /// key — so the scan observes every key that existed for the scan's whole
    /// duration exactly once, in order, but concurrent mutations may land between
    /// leaves (same as any cursor-based scan). `f` may run more than once per entry
    /// when a conflict forces a restart; only validated results are kept.
    pub fn scan_map<R>(
        &self,
        start: &[u8],
        end: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> Result<Option<R>>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::new();
        let mut cursor = start.to_vec();
        let mut attempts = 0u32;
        loop {
            if attempts > OPT_RETRIES {
                // Quiesce writers for exactly one leaf, then resume optimistically.
                // Holding the epoch latch across the whole remainder — including
                // every invocation of `f`, which for the KV layer reads value pages
                // from the log store — would stall all writers and flushes for the
                // scan's entire tail; per-leaf the stall is bounded while `f` still
                // runs under the latch, so whatever the values reference cannot be
                // released by a concurrent checkpoint mid-read.
                self.counters.read_fallbacks.fetch_add(1, Ordering::Relaxed);
                let quiesced = self.epoch_latch.write();
                let (leaf, upper) = self.find_leaf(&cursor)?;
                for entry in raw_leaf_entries(&leaf)? {
                    let (k, v) = entry?;
                    if k >= end {
                        return Ok(out);
                    }
                    if k >= cursor.as_slice() {
                        if let Some(r) = f(k, v)? {
                            out.push(r);
                        }
                    }
                }
                drop(quiesced);
                match upper {
                    None => return Ok(out),
                    Some(u) if u.as_slice() >= end => return Ok(out),
                    Some(u) => cursor = u,
                }
                attempts = 0; // guaranteed progress: the fallback finished a leaf
                continue;
            }
            match self.try_scan_leaf(&mut cursor, end, &mut f, &mut out)? {
                Attempt::Done(true) => return Ok(out),
                Attempt::Done(false) => attempts = 0, // progressed to the next leaf
                Attempt::Conflict => {
                    self.counters.read_restarts.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                }
            }
        }
    }

    /// One optimistic scan step: descend to the leaf holding `cursor`, emit its
    /// validated entries (advancing `cursor` past each), and step `cursor` to the
    /// next leaf's smallest key. `Done(true)` means the scan is complete.
    fn try_scan_leaf<R>(
        &self,
        cursor: &mut Vec<u8>,
        end: &[u8],
        f: &mut impl FnMut(&[u8], &[u8]) -> Result<Option<R>>,
        out: &mut Vec<R>,
    ) -> Result<Attempt<bool>> {
        let mut page = self.root.load(Ordering::Acquire);
        let mut ver = self.versions.stable(page);
        if self.root.load(Ordering::Acquire) != page {
            return Ok(Attempt::Conflict);
        }
        let mut upper: Option<Vec<u8>> = None;
        let (bytes, leaf, leaf_ver) = loop {
            let Some(bytes) = self.snapshot(page, ver, self.pool.read(page))? else {
                return Ok(Attempt::Conflict);
            };
            if raw_is_leaf(&bytes)? {
                break (bytes, page, ver);
            }
            let (_, child, next_upper) = raw_internal_search(&bytes, cursor)?;
            let next_upper = next_upper.map(<[u8]>::to_vec);
            let child_ver = self.versions.stable(child);
            if self.versions.changed(page, ver) {
                return Ok(Attempt::Conflict);
            }
            if let Some(u) = next_upper {
                // Deeper separators are tighter than inherited ones.
                upper = Some(u);
            }
            page = child;
            ver = child_ver;
        };
        for entry in raw_leaf_entries(&bytes)? {
            let (k, v) = entry?;
            if k >= end {
                return Ok(Attempt::Done(true));
            }
            if k < cursor.as_slice() {
                continue;
            }
            let r = f(k, v);
            // Per-entry validation *after* f (see get_map); a conflict resumes just
            // past the last key already emitted, never re-emitting it.
            if self.versions.changed(leaf, leaf_ver) {
                return Ok(Attempt::Conflict);
            }
            if let Some(r) = r? {
                out.push(r);
            }
            *cursor = successor(k);
        }
        match upper {
            None => Ok(Attempt::Done(true)),
            Some(u) if u.as_slice() >= end => Ok(Attempt::Done(true)),
            Some(u) => {
                // `u` is the smallest key of the next leaf; descending for it lands
                // exactly there.
                *cursor = u;
                Ok(Attempt::Done(false))
            }
        }
    }

    /// Visit every reachable page (pre-order) as `f(id, base, image)`, e.g. for
    /// reachability sweeps after a restart; an error from `f` ends the walk. `image` is
    /// the node's encoded image — a delta leaf's consolidated with its base — and
    /// `base` the base page a delta leaf is stored against, which is reachable too
    /// although no node points at it. Quiesces all writers for a stable traversal. The
    /// walk reads through the pool: resident pages come from their frames, the rest
    /// straight from the store, and nothing is installed — a walk touches every page
    /// once and would only evict the working set.
    pub fn walk(&self, mut f: impl FnMut(u64, Option<u64>, &[u8]) -> Result<()>) -> Result<()> {
        let _quiesced = self.epoch_latch.write();
        self.walk_rec(self.root.load(Ordering::Acquire), &mut f)
    }

    /// [`BTree::walk`] on up to `threads` threads, for a walk that reads most pages
    /// from the store (a reopen's): the root is visited first, then its subtrees are
    /// dealt out in contiguous runs, one thread a run. Each thread visits with state of
    /// its own, made by `init`; the states come back in run order, the root's in the
    /// first. Pages are visited once each, in no order across runs.
    pub(crate) fn walk_split<A: Send>(
        &self,
        threads: usize,
        init: impl Fn() -> A + Sync,
        visit: impl Fn(&mut A, u64, Option<u64>, &[u8]) -> Result<()> + Sync,
    ) -> Result<Vec<A>> {
        let _quiesced = self.epoch_latch.write();
        let walk_run = |mut state: A, run: &[u64]| -> Result<A> {
            let mut f = |id, base, image: &[u8]| visit(&mut state, id, base, image);
            for &page in run {
                self.walk_rec(page, &mut f)?;
            }
            Ok(state)
        };
        let mut first = init();
        let root = self.root.load(Ordering::Acquire);
        let children = self.walk_page(root, &mut |id, base, image: &[u8]| {
            visit(&mut first, id, base, image)
        })?;
        let mut runs = children.chunks(children.len().div_ceil(threads.max(1)).max(1));
        let own = runs.next().unwrap_or_default();
        std::thread::scope(|scope| {
            let others: Vec<_> = runs
                .map(|run| scope.spawn(|| walk_run(init(), run)))
                .collect();
            let mut states = vec![walk_run(first, own)?];
            for other in others {
                states.push(other.join().expect("a walk thread panicked")?);
            }
            Ok(states)
        })
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert or overwrite a key.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.insert_returning(key, value).map(|_| ())
    }

    /// Insert or overwrite a key, returning the previous value if the key existed.
    pub fn insert_returning(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        if key.len() + value.len() > self.max_entry_size() {
            return Err(Error::PageTooLarge {
                page: 0,
                size: key.len() + value.len(),
                max: self.max_entry_size(),
            });
        }
        self.mutate(key, Some(value))
    }

    /// Delete a key. Returns true if it existed.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        self.delete_returning(key).map(|old| old.is_some())
    }

    /// Delete a key, returning its value if it existed.
    pub fn delete_returning(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.mutate(key, None)
    }

    /// `value = Some(v)` inserts/overwrites, `None` deletes; returns the old value.
    fn mutate(&self, key: &[u8], value: Option<&[u8]>) -> Result<Option<Vec<u8>>> {
        self.counters.writer_ops.fetch_add(1, Ordering::Relaxed);
        {
            let _epoch = self.epoch_latch.read();
            for _ in 0..OPT_RETRIES {
                match self.try_mutate(key, value)? {
                    Attempt::Done(old) => return Ok(old),
                    Attempt::Conflict => {
                        self.counters.write_restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.counters
            .write_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        let _quiesced = self.epoch_latch.write();
        self.mutate_quiesced(key, value)
    }

    /// Exclusive-fallback mutation (caller holds the epoch latch exclusively): the
    /// same attempt the optimistic path makes. It conflicts at most briefly here — a
    /// version moves only under a mutation, which the latch excludes, or when a
    /// committed cut invalidates the ids it freed, none of which is on the live path
    /// (a slot one of them aliases is a false conflict) — so the loop body almost
    /// always runs once. Optimistic readers take no epoch
    /// latch and are kept out the way every attempt keeps them out: each rewritten
    /// page stays version-locked (odd) until the root is published, and a failed
    /// write rolls the allocator bookkeeping back.
    fn mutate_quiesced(&self, key: &[u8], value: Option<&[u8]>) -> Result<Option<Vec<u8>>> {
        loop {
            if let Attempt::Done(old) = self.try_mutate(key, value)? {
                return Ok(old);
            }
        }
    }

    /// One mutation attempt. Caller holds the epoch latch (shared or exclusive).
    fn try_mutate(&self, key: &[u8], value: Option<&[u8]>) -> Result<Attempt<Option<Vec<u8>>>> {
        // Phase 1: optimistic descent recording (page, version, snapshot, child slot).
        let Some(path) = self.descend_recording(key)? else {
            return Ok(Attempt::Conflict);
        };
        let leaf_i = path.len - 1;

        // Phase 2: the new leaf image(s) and the old value, spliced straight from the
        // encoded snapshot.
        let (leaf, old) = match value {
            Some(v) => leaf_upsert(
                &path[leaf_i].bytes,
                key,
                v,
                self.leaf_target,
                self.page_size,
            )?,
            None => match leaf_remove(&path[leaf_i].bytes, key, self.page_size)? {
                Some((page, old)) => (PageEdit::Fits(page), Some(old)),
                // Delete miss: the validated leaf snapshot proves absence — return
                // without locking anything (a miss must not churn shadow pages).
                None => return Ok(Attempt::Done(None)),
            },
        };

        // Phase 3: the exact per-level plan (what relocates, what splits, where the
        // rewrite stops). Fresh-ness of a live node only changes under its version
        // lock, so the snapshot taken here stays valid as long as the CAS below
        // succeeds.
        let (anchor, mut plans) = self.plan(&path, &leaf)?;
        let leaf_store =
            self.store_leaf(&path[leaf_i], plans[leaf_i].relocate, &leaf, key, value)?;

        // Phase 4: crab — try-lock exactly the version slots of path[anchor..] at the
        // versions the descent observed. Success proves every node we are about to
        // rewrite (and the root pointer, if anchor == 0) is unchanged since phase 1.
        let mut lock_set = [(0usize, 0u64); MAX_DEPTH];
        let lock_set = &mut lock_set[..path.len - anchor];
        for (entry, i) in lock_set.iter_mut().zip(anchor..) {
            *entry = (self.versions.slot_of(path[i].page), path[i].ver);
        }
        lock_set.sort_unstable();
        let mut locks = SlotLocks {
            table: &self.versions,
            slots: [0; MAX_DEPTH],
            len: 0,
        };
        for (n, &(slot, ver)) in lock_set.iter().enumerate() {
            if n > 0 && lock_set[n - 1].0 == slot {
                if lock_set[n - 1].1 != ver {
                    // Two path pages alias one slot at different versions: unprovable.
                    return Ok(Attempt::Conflict);
                }
                continue; // aliases at one version share the lock
            }
            if !self.versions.try_lock_slot(slot, ver) {
                return Ok(Attempt::Conflict); // SlotLocks drop releases what we hold
            }
            locks.slots[locks.len] = slot;
            locks.len += 1;
        }
        self.counters
            .writer_locks
            .fetch_add(locks.len as u64, Ordering::Relaxed);

        // Phase 5: allocate ids per plan, and queue what the rewrite supersedes, in one
        // short allocator hold (skipped when the whole rewrite is in place and no base
        // goes — the common steady-state case).
        let rewritten = anchor..path.len;
        let mut new_root_id = None;
        let mut queued = [0u64; MAX_DEPTH + 1];
        let mut nqueued = 0;
        if leaf_store.drops_base.is_some()
            || plans[rewritten.clone()]
                .iter()
                .any(|p| p.relocate || p.split)
        {
            let mut a = self.alloc.lock();
            let mut queue = |a: &mut AllocState, id: u64| {
                a.freed.push(id);
                queued[nqueued] = id;
                nqueued += 1;
            };
            for i in rewritten.clone() {
                if plans[i].relocate {
                    plans[i].target = self.alloc_page_locked(&mut a);
                    if !(i == leaf_i && leaf_store.keeps_old) {
                        queue(&mut a, path[i].page);
                    }
                }
                if plans[i].split {
                    plans[i].sibling = self.alloc_page_locked(&mut a);
                }
            }
            if let Some(base) = leaf_store.drops_base {
                queue(&mut a, base);
            }
            if anchor == 0 && plans[0].split {
                new_root_id = Some(self.alloc_page_locked(&mut a));
            }
        }

        // Phase 6: apply the plan. On failure, undo phase 5 *while the version
        // locks are still held* (so no concurrent mutation can touch these pages
        // in between): the committed tree still references every page this attempt
        // queued on `freed` — leaving them there would let the next checkpoint's
        // commit delete storage the committed tree needs — and the fresh ids never
        // became reachable, so they go straight back to the free list.
        if let Err(e) = self.apply_plan(&path, anchor, &plans, leaf, leaf_store.delta, new_root_id)
        {
            let mut a = self.alloc.lock();
            let queued = &queued[..nqueued];
            a.freed.retain(|id| !queued.contains(id));
            let give_back = |a: &mut AllocState, id: u64| {
                a.fresh.remove(&id);
                a.free.push(id);
            };
            for i in rewritten {
                if plans[i].relocate {
                    give_back(&mut a, plans[i].target);
                }
                if plans[i].split {
                    give_back(&mut a, plans[i].sibling);
                }
            }
            if let Some(id) = new_root_id {
                give_back(&mut a, id);
            }
            return Err(e);
        }
        match (&old, value) {
            (None, Some(_)) => {
                self.len.fetch_add(1, Ordering::AcqRel);
            }
            (Some(_), None) => {
                self.len.fetch_sub(1, Ordering::AcqRel);
            }
            _ => {}
        }
        drop(locks);
        // The relocated pages are off the live tree: only a reader on a stale path may
        // still look for one, and it restarts. Their frames would take budget until
        // the clock came round.
        for i in rewritten.filter(|&i| plans[i].relocate) {
            self.pool.discard(path[i].page);
        }
        Ok(Attempt::Done(old))
    }

    /// Apply a mutation's plan: build and write the rewritten pages bottom-up
    /// (children before parents), then publish the new root if it moved. Internal
    /// levels are patched (child relocated) or spliced (child split) in their encoded
    /// form. Every write bumps the page's version, so optimistic readers of any
    /// rewritten or stale page restart. The caller holds the version locks of
    /// `path[anchor..]` and rolls back the allocator bookkeeping if this fails.
    fn apply_plan(
        &self,
        path: &Path,
        anchor: usize,
        plans: &[LevelPlan; MAX_DEPTH],
        leaf: PageEdit,
        mut leaf_delta: Option<LeafDelta>,
        new_root_id: Option<u64>,
    ) -> Result<()> {
        let leaf_i = path.len - 1;
        let mut leaf = Some(leaf);
        let mut child_id = 0u64;
        let mut carry: Option<(Vec<u8>, u64)> = None; // (separator, right sibling id)
        for i in (anchor..=leaf_i).rev() {
            let PathEntry { bytes, idx, .. } = &path[i];
            let edit = match (leaf.take(), carry.take()) {
                (Some(leaf), _) => leaf,
                (None, Some((sep, right))) => {
                    internal_insert(bytes, *idx, child_id, &sep, right, self.page_size)?
                }
                (None, None) => {
                    PageEdit::Fits(internal_repoint(bytes, *idx, child_id, self.page_size)?)
                }
            };
            let plan = &plans[i];
            assert_eq!(
                matches!(edit, PageEdit::Split { .. }),
                plan.split,
                "plan and apply size the same snapshot with the same editor"
            );
            let page = match edit {
                PageEdit::Fits(page) => page,
                PageEdit::Split { left, sep, right } => {
                    self.write_page(plan.sibling, right, None)?;
                    carry = Some((sep, plan.sibling));
                    left
                }
            };
            // Only the leaf (the first level written) may be stored as a delta.
            self.write_page(plan.target, page, leaf_delta.take())?;
            child_id = plan.target;
        }
        if anchor == 0 {
            if let Some((sep, right_id)) = carry.take() {
                // The root split: a new internal root above both halves.
                let id = new_root_id.expect("planned root split allocates a root id");
                let root = internal_root(child_id, &sep, right_id, self.page_size)?;
                self.write_page(id, root, None)?;
                child_id = id;
            }
            if child_id != path[0].page {
                // Publish the new root before releasing the old root's lock, so a
                // restarted descent always finds a consistent entry point.
                self.root.store(child_id, Ordering::Release);
            }
        } else {
            debug_assert_eq!(child_id, path[anchor].page, "plan stopped mid-propagation");
            debug_assert!(carry.is_none(), "split escaped the planned lock scope");
        }
        Ok(())
    }

    /// Validate `read`, a read of `page` by a descent that saw the page at `ver`: `None`
    /// if the version has moved since — the read raced a rewrite or a release, so even
    /// its error only means a stale path — else the page, which must exist.
    fn snapshot<T>(&self, page: u64, ver: u64, read: Result<Option<T>>) -> Result<Option<T>> {
        if self.versions.changed(page, ver) {
            return Ok(None);
        }
        read?.ok_or_else(|| missing_page(page)).map(Some)
    }

    /// Optimistic descent for a mutation, recording the full path. `None` = conflict.
    fn descend_recording(&self, key: &[u8]) -> Result<Option<Path>> {
        let mut page = self.root.load(Ordering::Acquire);
        let mut ver = self.versions.stable(page);
        if self.root.load(Ordering::Acquire) != page {
            return Ok(None);
        }
        let mut path = Path::new();
        loop {
            let Some((bytes, delta)) = self.snapshot(page, ver, self.pool.read_leaf(page))? else {
                return Ok(None);
            };
            if raw_is_leaf(&bytes)? {
                path.push(PathEntry {
                    page,
                    ver,
                    bytes,
                    delta,
                    idx: 0,
                })?;
                return Ok(Some(path));
            }
            let (idx, child, _) = raw_internal_search(&bytes, key)?;
            let child_ver = self.versions.stable(child);
            if self.versions.changed(page, ver) {
                return Ok(None);
            }
            path.push(PathEntry {
                page,
                ver,
                bytes,
                delta: None,
                idx,
            })?;
            page = child;
            ver = child_ver;
        }
    }

    /// How the edited leaf is stored (see "Leaf deltas" in the module docs): `entry` is
    /// the leaf's descent snapshot, `relocate` its plan, `edit` the edited leaf and
    /// `key` / `value` the mutation (`None` deletes). Stand-alone trees, and fresh whole
    /// leaves, are rewritten whole with no base involved. Otherwise the leaf's base —
    /// its delta's, or the relocating whole leaf itself — stays if the edited leaf is
    /// stored as a delta of at most half its consolidated bytes, and goes if the leaf
    /// splits, its delta grew past that, or a miss read the delta back.
    fn store_leaf(
        &self,
        entry: &PathEntry,
        relocate: bool,
        edit: &PageEdit,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<LeafStore> {
        if !self.shadow {
            return Ok(LeafStore::default());
        }
        // The leaf's base, and the delta the edit extends: an empty one when a relocating
        // whole leaf becomes the base, none when a miss read the delta back — that cost
        // its reader a second read, the base's, so the leaf is stored whole and a leaf
        // that keeps leaving the pool does not keep paying for it.
        let empty;
        let (base, prior) = match (&entry.delta, relocate) {
            (Some(d), _) => (d.base, d.image.as_deref()),
            (None, true) => {
                empty = delta_empty(entry.page);
                (entry.page, Some(&empty[..]))
            }
            (None, false) => return Ok(LeafStore::default()),
        };
        // A value as long as the removed-key marker cannot go in a delta.
        let fits = value.is_none_or(|v| v.len() < usize::from(u16::MAX));
        if let (Some(prior), PageEdit::Fits(leaf), true) = (prior, edit, fits) {
            let delta = delta_upsert(prior, key, value)?;
            if delta.len() <= leaf.len() / 2 {
                return Ok(LeafStore {
                    delta: Some(LeafDelta {
                        base,
                        image: Some(Bytes::from(delta)),
                    }),
                    drops_base: None,
                    keeps_old: base == entry.page,
                });
            }
        }
        // Stored whole. A relocating whole leaf is freed as relocated, not as a base.
        Ok(LeafStore {
            delta: None,
            drops_base: (base != entry.page).then_some(base),
            keeps_old: false,
        })
    }

    /// Compute the mutation's exact rewrite plan from the descent snapshots and the
    /// already edited leaf: which suffix of the path is rewritten (`anchor` = the
    /// highest rewritten level; entries above it are not part of the plan), and per
    /// level whether it relocates (shadow path-copy) and/or splits. A level that receives a separator is sized by
    /// running the apply phase's own editor on its snapshot (child ids do not change
    /// a size, so placeholders do) — whether it splits, and the exact key it pushes
    /// up, are then the apply phase's by construction.
    fn plan(&self, path: &Path, leaf: &PageEdit) -> Result<(usize, [LevelPlan; MAX_DEPTH])> {
        let leaf_i = path.len - 1;
        let mut plans = [LevelPlan::default(); MAX_DEPTH];
        {
            let alloc = self.shadow.then(|| self.alloc.lock());
            for (i, plan) in plans[..path.len].iter_mut().enumerate() {
                plan.target = path[i].page;
                plan.relocate = alloc
                    .as_ref()
                    .is_some_and(|a| !a.fresh.contains(&path[i].page));
            }
        }
        let mut pending_sep = match leaf {
            PageEdit::Split { sep, .. } => Some(sep.clone()),
            PageEdit::Fits(_) => None,
        };
        plans[leaf_i].split = pending_sep.is_some();

        let mut anchor = leaf_i;
        for i in (0..leaf_i).rev() {
            if !plans[i + 1].relocate && pending_sep.is_none() {
                break; // the child was rewritten in place without splitting
            }
            anchor = i;
            if let Some(sep) = pending_sep.take() {
                let PathEntry { bytes, idx, .. } = &path[i];
                if let PageEdit::Split { sep: up_key, .. } =
                    internal_insert(bytes, *idx, 0, &sep, 0, self.page_size)?
                {
                    plans[i].split = true;
                    pending_sep = Some(up_key);
                }
            }
        }
        if pending_sep.is_some() && path.len == MAX_DEPTH {
            // The root would split under a path that already fills the arrays.
            return Err(Error::TreeTooDeep { max: MAX_DEPTH });
        }
        Ok((anchor, plans))
    }

    // ------------------------------------------------------------------
    // Checkpoint / flush
    // ------------------------------------------------------------------

    /// Flush all dirty pages (and, for stand-alone trees, the meta page) to the
    /// underlying store and sync it.
    ///
    /// Shadow trees get no crash-consistency guarantee from this alone — that is what
    /// [`BTree::begin_checkpoint`] and the caller's commit record are for.
    pub fn flush(&self) -> Result<()> {
        let _quiesced = self.epoch_latch.write();
        if !self.shadow {
            let meta = MetaPage {
                root: self.root.load(Ordering::Acquire),
                next_page_id: self.alloc.lock().next_page_id,
                len: self.len.load(Ordering::Acquire),
            };
            self.pool.write(META_PAGE, meta.encode())?;
        }
        self.pool.flush_all()
    }

    /// Flush and return the underlying page store.
    pub fn into_store(self) -> Result<S> {
        self.flush()?;
        self.pool.into_store()
    }

    /// Take the epoch latch exclusively for a checkpoint: no mutation can run until
    /// the returned guard is cut or dropped. See [`TreeCheckpoint`].
    pub fn begin_checkpoint(&self) -> TreeCheckpoint<'_, S> {
        TreeCheckpoint {
            tree: self,
            _quiesced: self.epoch_latch.write(),
        }
    }

    // ------------------------------------------------------------------

    /// Allocate a page id (the caller holds the allocator mutex).
    fn alloc_page_locked(&self, a: &mut AllocState) -> u64 {
        let id = a.free.pop().unwrap_or_else(|| {
            let id = a.next_page_id;
            a.next_page_id += 1;
            id
        });
        if self.shadow {
            a.fresh.insert(id);
        }
        id
    }

    /// Write a page image and bump the page's version: *every* node write invalidates
    /// optimistic observers of that page id — in-place rewrites (content changed),
    /// relocation targets and recycled ids (a reader parked on the id from a stale
    /// path must not validate against the new incarnation).
    fn write_page(&self, page: u64, image: Vec<u8>, delta: Option<LeafDelta>) -> Result<()> {
        self.pool.write_leaf(page, image, delta)?;
        self.versions.bump(page);
        Ok(())
    }

    /// Descend to the leaf that would hold `key`, returning its encoded page together
    /// with the leaf's exclusive upper bound: the innermost separator to the right of
    /// the descent path (`None` on the rightmost spine). The upper bound is the
    /// smallest key of the *next* leaf, which is how scans walk leaves without sibling
    /// links. Caller must hold the epoch latch exclusively (no validation is performed).
    fn find_leaf(&self, key: &[u8]) -> Result<(Bytes, Option<Vec<u8>>)> {
        let mut page = self.root.load(Ordering::Acquire);
        let mut upper: Option<Vec<u8>> = None;
        loop {
            let bytes = self.pool.read(page)?.ok_or_else(|| missing_page(page))?;
            if raw_is_leaf(&bytes)? {
                return Ok((bytes, upper));
            }
            let (_, child, sep) = raw_internal_search(&bytes, key)?;
            if let Some(sep) = sep {
                // Deeper separators are tighter than inherited ones.
                upper = Some(sep.to_vec());
            }
            page = child;
        }
    }

    fn walk_rec(
        &self,
        page: u64,
        f: &mut impl FnMut(u64, Option<u64>, &[u8]) -> Result<()>,
    ) -> Result<()> {
        for child in self.walk_page(page, f)? {
            self.walk_rec(child, f)?;
        }
        Ok(())
    }

    /// Visit one page of a walk; returns its children (none for a leaf).
    fn walk_page(
        &self,
        page: u64,
        f: &mut impl FnMut(u64, Option<u64>, &[u8]) -> Result<()>,
    ) -> Result<Vec<u64>> {
        let (bytes, base) = self
            .pool
            .read_through(page)?
            .ok_or_else(|| missing_page(page))?;
        f(page, base, &bytes)?;
        if raw_is_leaf(&bytes)? {
            return Ok(Vec::new());
        }
        match Node::decode(&bytes)? {
            Node::Internal { children, .. } => Ok(children),
            Node::Leaf { .. } => Ok(Vec::new()),
        }
    }
}

/// An in-progress checkpoint of a shadow-mode tree: holds the epoch latch exclusively
/// so the epoch's page set is frozen while its pages are written back and cut.
///
/// Intended sequence (the KV layer's two-barrier superblock flip):
///
/// 1. [`TreeCheckpoint::write_back`] — dirty pages (all fresh ids) reach the store;
/// 2. [`TreeCheckpoint::cut`] — the epoch ends and the latch is released: the
///    returned [`TreeCut`] holds the commit record's fields and the ids the epoch
///    superseded, and mutations resume at once as the next epoch;
/// 3. caller makes the written pages durable (barrier 1), then durably commits a
///    record pointing at [`TreeCut::root`] / [`TreeCut::next_page_id`] (barrier 2);
/// 4. [`TreeCut::commit`] — the epoch's freed page ids are returned so the caller can
///    release their storage and then recycle them.
///
/// Dropping the checkpoint before the cut leaves the epoch running; dropping the cut
/// without committing hands its freed ids back to the tree for the next cut, which is
/// exactly right when a barrier fails — the previously committed root is still fully
/// intact.
pub struct TreeCheckpoint<'a, S: PageStore> {
    tree: &'a BTree<S>,
    _quiesced: RwLockWriteGuard<'a, ()>,
}

impl<'a, S: PageStore> TreeCheckpoint<'a, S> {
    /// Write all dirty pages back to the store in ascending page-id order (no sync).
    /// Returns the page ids written.
    pub fn write_back(&mut self) -> Result<Vec<u64>> {
        self.tree.pool.write_back()
    }

    /// End the epoch and release the epoch latch: snapshot the commit record's fields,
    /// take the epoch's freed page ids and clear `fresh`. From here on no page of the
    /// cut epoch is updated in place — a mutation of the next epoch relocates it like
    /// any committed page — so the cut tree stays intact while the caller's barriers
    /// run beside live writers.
    pub fn cut(self) -> TreeCut<'a, S> {
        let tree = self.tree;
        let mut a = tree.alloc.lock();
        a.fresh.clear();
        let cut = TreeCut {
            tree,
            root: tree.root.load(Ordering::Acquire),
            next_page_id: a.next_page_id,
            len: tree.len.load(Ordering::Acquire),
            freed: std::mem::take(&mut a.freed),
        };
        drop(a);
        drop(self);
        cut
    }
}

/// A cut epoch of a shadow-mode tree, waiting for the caller's commit record (see
/// [`TreeCheckpoint`]). Holds no lock.
pub struct TreeCut<'a, S: PageStore> {
    tree: &'a BTree<S>,
    root: u64,
    next_page_id: u64,
    len: u64,
    /// Committed pages the cut epoch superseded; released only once the record
    /// pointing at `root` is durable.
    freed: Vec<u64>,
}

impl<S: PageStore> TreeCut<'_, S> {
    /// The root page id of the cut epoch.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The allocation watermark of the cut epoch.
    pub fn next_page_id(&self) -> u64 {
        self.next_page_id
    }

    /// The key count of the cut epoch.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the cut epoch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Call once the commit record is durable. Returns the epoch's freed page ids — no
    /// longer referenced by the committed tree — **without recycling them**: the
    /// caller releases their storage first and only then hands them back via
    /// [`BTree::seed_free_list`]. Recycling before the release is a race: a new page
    /// could be allocated at the id and then clobbered by the in-flight release of its
    /// previous incarnation.
    pub fn commit(mut self) -> Vec<u64> {
        let freed = std::mem::take(&mut self.freed);
        // Invalidate optimistic readers parked on a freed page *before* the caller
        // deletes its storage or recycles its id: a reader holding a stale path (its
        // root-to-leaf snapshot predates the cut) would otherwise validate a page that
        // is about to vanish or be reborn as a different node.
        for &id in &freed {
            self.tree.versions.bump(id);
        }
        freed
    }
}

impl<S: PageStore> Drop for TreeCut<'_, S> {
    /// An uncommitted cut: the committed tree still references every freed page, so
    /// the ids go back on the tree's freed list and wait for the next cut's commit.
    fn drop(&mut self) {
        if !self.freed.is_empty() {
            self.tree.alloc.lock().freed.append(&mut self.freed);
        }
    }
}

fn missing_page(page: u64) -> Error {
    Error::InvalidConfig(format!("btree references missing page {page}"))
}

/// The smallest byte string strictly greater than `k` (the scan cursor just past an
/// emitted key).
fn successor(k: &[u8]) -> Vec<u8> {
    let mut s = Vec::with_capacity(k.len() + 1);
    s.extend_from_slice(k);
    s.push(0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_store::{LssPageStore, MemPageStore};
    use lss_core::{policy::PolicyKind, LogStore, StoreConfig};
    use std::collections::BTreeMap;

    const PAGE: usize = 256;

    fn new_tree() -> BTree<MemPageStore> {
        BTree::open(BufferPool::new(MemPageStore::new(PAGE), 64)).unwrap()
    }

    fn new_shadow_tree() -> BTree<MemPageStore> {
        BTree::open_shadow(BufferPool::new(MemPageStore::new(PAGE), 64), None).unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    /// The quiesced-path regressions below name the fallback by operation.
    impl<S: PageStore> BTree<S> {
        fn insert_quiesced(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
            self.mutate_quiesced(key, Some(value))
        }

        fn delete_quiesced(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            self.mutate_quiesced(key, None)
        }

        /// A KV flip's latch phase: write the epoch back and cut it.
        fn cut_epoch(&self) -> TreeCut<'_, S> {
            let mut ck = self.begin_checkpoint();
            ck.write_back().unwrap();
            ck.cut()
        }
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let t = new_tree();
        assert!(t.is_empty());
        t.insert(b"b", b"2").unwrap();
        t.insert(b"a", b"1").unwrap();
        t.insert(b"c", b"3").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(t.get(b"b").unwrap().unwrap(), b"2");
        assert!(t.get(b"zzz").unwrap().is_none());
        assert!(t.delete(b"b").unwrap());
        assert!(!t.delete(b"b").unwrap());
        assert!(t.get(b"b").unwrap().is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overwrite_updates_in_place_and_returns_old_value() {
        let t = new_tree();
        assert_eq!(t.insert_returning(b"k", b"v1").unwrap(), None);
        assert_eq!(
            t.insert_returning(b"k", b"v2-longer").unwrap(),
            Some(b"v1".to_vec())
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"k").unwrap().unwrap(), b"v2-longer");
        assert_eq!(
            t.delete_returning(b"k").unwrap(),
            Some(b"v2-longer".to_vec())
        );
    }

    #[test]
    fn many_inserts_force_multi_level_splits_and_stay_sorted() {
        for tree in [new_tree(), new_shadow_tree()] {
            let n = 5_000u32;
            // Insert in a scrambled order (a fixed odd multiplier coprime with n makes
            // this a permutation) to exercise splits at arbitrary positions.
            for i in 0..n {
                let k = ((i as u64 * 2654435761) % n as u64) as u32;
                tree.insert(&key(k), format!("value-{k}").as_bytes())
                    .unwrap();
            }
            assert_eq!(tree.len() as u32, n);
            for i in (0..n).step_by(97) {
                assert_eq!(
                    tree.get(&key(i)).unwrap().unwrap(),
                    format!("value-{i}").as_bytes(),
                    "key {i} lost"
                );
            }
            // The full range scan returns every key in sorted order.
            let all = tree.range(b"key-", b"key-99999999~").unwrap();
            assert_eq!(all.len() as u32, n);
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan not sorted");
        }
    }

    #[test]
    fn range_scan_is_half_open_and_ordered() {
        let t = new_tree();
        for i in 0..100u32 {
            t.insert(&key(i), b"x").unwrap();
        }
        let out = t.range(&key(10), &key(20)).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].0, key(10));
        assert_eq!(out[9].0, key(19));
    }

    #[test]
    fn matches_a_model_under_random_operations() {
        for tree in [new_tree(), new_shadow_tree()] {
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut state = 0x12345678u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for _ in 0..3_000 {
                let k = key((next() % 300) as u32);
                match next() % 3 {
                    0 | 1 => {
                        let v = format!("v{}", next() % 1000).into_bytes();
                        tree.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    _ => {
                        let expected = model.remove(&k).is_some();
                        assert_eq!(tree.delete(&k).unwrap(), expected);
                    }
                }
            }
            assert_eq!(tree.len() as usize, model.len());
            for (k, v) in &model {
                assert_eq!(tree.get(k).unwrap().as_deref(), Some(v.as_slice()));
            }
            // Range over everything matches the model's order.
            let scanned = tree.range(b"", b"~~~~~~~~~~~~~~~~").unwrap();
            let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scanned, expected);
        }
    }

    /// Depth of the tree (levels on the leftmost spine) and its number of empty leaves.
    fn shape<S: PageStore>(t: &BTree<S>) -> (usize, usize) {
        let mut nodes = std::collections::HashMap::new();
        t.walk(|id, _, page| {
            nodes.insert(id, Node::decode(page)?);
            Ok(())
        })
        .unwrap();
        let empty = nodes
            .values()
            .filter(|n| matches!(n, Node::Leaf { entries } if entries.is_empty()))
            .count();
        let (mut depth, mut page) = (1, t.root.load(Ordering::Acquire));
        while let Node::Internal { children, .. } = &nodes[&page] {
            depth += 1;
            page = children[0];
        }
        (depth, empty)
    }

    /// True if the leaf that holds `key` is stored as a delta.
    fn leaf_is_delta<S: PageStore>(t: &BTree<S>, key: &[u8]) -> bool {
        let path = t.descend_recording(key).unwrap().expect("no writer runs");
        path[path.len - 1].delta.is_some()
    }

    fn assert_matches_model<S: PageStore>(t: &BTree<S>, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
        assert_eq!(t.len() as usize, model.len());
        let scanned = t.range(b"", b"~~~~~~~~~~~~~~~~").unwrap();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scanned, expected);
    }

    /// The raw-page write path end to end, in both modes: variable-length values over
    /// enough keys that leaves, internal nodes and the root all split; every seventh
    /// mutation forced through the quiesced fallback; in shadow mode a commit every 500
    /// operations, so the next touch of any path relocates it and repoints each
    /// ancestor; then whole leaves deleted empty, scanned across and refilled.
    #[test]
    fn matches_a_model_through_splits_relocations_empty_leaves_and_the_fallback() {
        const KEYS: u64 = 1_500;
        for tree in [new_tree(), new_shadow_tree()] {
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut state = 0x2357_1113u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            // `None` deletes. Every seventh call takes the path a mutation takes after
            // `OPT_RETRIES` conflicts.
            let mut calls = 0u32;
            let mut mutate =
                |model: &mut BTreeMap<Vec<u8>, Vec<u8>>, k: Vec<u8>, v: Option<Vec<u8>>| {
                    calls += 1;
                    let got = if calls.is_multiple_of(7) {
                        let _quiesced = tree.epoch_latch.write();
                        tree.mutate_quiesced(&k, v.as_deref())
                    } else {
                        tree.mutate(&k, v.as_deref())
                    };
                    let want = match v {
                        Some(v) => model.insert(k, v),
                        None => model.remove(&k),
                    };
                    assert_eq!(got.unwrap(), want);
                };

            for step in 0..12_000u32 {
                let k = key((next() % KEYS) as u32);
                let v = (next() % 4 != 0).then(|| vec![b'v'; (next() % 48) as usize]);
                mutate(&mut model, k, v);
                if tree.shadow && step % 500 == 499 {
                    tree.seed_free_list(tree.cut_epoch().commit());
                    // Nothing is fresh now: the first touch path-copies root to leaf
                    // (every level relocated, every parent repointed), freeing each
                    // internal level; the leaf frees its old page unless that becomes
                    // the new delta's base, and an old delta's base once the leaf is
                    // stored whole …
                    let (depth, _) = shape(&tree);
                    let k = key((next() % KEYS) as u32);
                    let was_delta = leaf_is_delta(&tree, &k);
                    mutate(&mut model, k.clone(), Some(b"first touch".to_vec()));
                    let is_delta = leaf_is_delta(&tree, &k);
                    let leaf_frees = usize::from(was_delta) + usize::from(!is_delta);
                    let freed = depth - 1 + leaf_frees;
                    assert_eq!(tree.alloc.lock().freed.len(), freed);
                    // … and the second finds the path fresh and rewrites in place,
                    // freeing the base only if it consolidates a delta.
                    mutate(&mut model, k.clone(), Some(b"second touch".to_vec()));
                    let consolidated = is_delta && !leaf_is_delta(&tree, &k);
                    let freed = freed + usize::from(consolidated);
                    assert_eq!(tree.alloc.lock().freed.len(), freed);
                }
            }
            let (depth, _) = shape(&tree);
            assert!(depth >= 3, "depth {depth}: no internal node ever split");
            assert_matches_model(&tree, &model);
            // Every leaf this tree wrote split once it passed half the page.
            tree.walk(|id, _, page| {
                if raw_is_leaf(page)? {
                    assert!(page.len() <= PAGE / 2, "leaf {id}: {} bytes", page.len());
                }
                Ok(())
            })
            .unwrap();

            // Hollow out a run of whole leaves, look through the hole, refill it.
            for i in 400..700 {
                mutate(&mut model, key(i), None);
            }
            let (_, empty) = shape(&tree);
            assert!(empty > 0, "300 consecutive deletes emptied no leaf");
            assert_matches_model(&tree, &model);
            assert_eq!(tree.get(&key(555)).unwrap(), None);
            assert_eq!(
                tree.range(&key(380), &key(720)).unwrap().len(),
                model.range(key(380)..key(720)).count()
            );
            for i in (400..700).step_by(3) {
                mutate(&mut model, key(i), Some(vec![b'r'; (i % 40) as usize]));
            }
            assert_matches_model(&tree, &model);
            for (k, v) in &model {
                assert_eq!(tree.get(k).unwrap().as_deref(), Some(v.as_slice()));
            }
            assert_eq!(
                tree.stats().write_fallbacks,
                0,
                "the fallback was forced, not hit"
            );
        }
    }

    #[test]
    fn a_path_deeper_than_max_depth_is_a_typed_error() {
        // A root that is its own child: every descent is endless.
        let t = new_tree();
        let root = t.root.load(Ordering::Acquire);
        let cyclic = Node::Internal {
            keys: vec![],
            children: vec![root],
        };
        t.pool.write(root, cyclic.encode(PAGE).unwrap()).unwrap();
        for result in [t.insert(b"k", b"v"), t.delete(b"k").map(|_| ())] {
            assert!(matches!(result, Err(Error::TreeTooDeep { max: MAX_DEPTH })));
        }
    }

    #[test]
    fn growing_past_max_depth_is_refused_before_anything_is_written() {
        // A hand-built spine of MAX_DEPTH - 1 *full* internal nodes over one leaf:
        // the first leaf split overflows every level and would have to split the root.
        // The separators sort above every key used below, so descents take slot 0.
        let t = new_tree();
        let spine = MAX_DEPTH as u64 - 1;
        let keys: Vec<Vec<u8>> = (0..5u8)
            .map(|i| [&[b'z'; 38][..], &[b'0' + i]].concat())
            .collect();
        for level in 0..spine {
            let node = Node::Internal {
                keys: keys.clone(),
                children: vec![100 + level + 1, 0, 0, 0, 0, 0],
            };
            assert_eq!(node.encoded_size(), PAGE);
            t.pool
                .write(100 + level, node.encode(PAGE).unwrap())
                .unwrap();
        }
        let leaf = Node::empty_leaf().encode(PAGE).unwrap();
        t.pool.write(100 + spine, leaf).unwrap();
        t.root.store(100, Ordering::Release);
        t.alloc.lock().next_page_id = 200;

        let mut stored = 0;
        let refused = loop {
            match t.insert(&key(stored), &[b'v'; 40]) {
                Ok(()) => stored += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(refused, Error::TreeTooDeep { max: MAX_DEPTH }));
        assert!(stored > 0, "the leaf must fill before it splits");
        assert_eq!(
            t.alloc.lock().next_page_id,
            200,
            "a refused split allocates nothing"
        );
        assert_eq!(t.len(), u64::from(stored));
        for i in 0..stored {
            assert_eq!(t.get(&key(i)).unwrap().unwrap(), [b'v'; 40]);
        }
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let t = new_tree();
        let err = t.insert(b"k", &vec![0u8; PAGE]).unwrap_err();
        assert!(matches!(err, Error::PageTooLarge { .. }));
    }

    #[test]
    fn concurrent_readers_see_consistent_values() {
        let t = std::sync::Arc::new(new_tree());
        for i in 0..2_000u32 {
            t.insert(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..2u32 {
                let t = t.clone();
                scope.spawn(move || {
                    // Writers rewrite canonical contents (so readers can assert).
                    for round in 0..1_000u32 {
                        let i = (w * 977 + round * 13) % 2_000;
                        t.insert(&key(i), format!("value-{i}").as_bytes()).unwrap();
                    }
                });
            }
            for r in 0..3u32 {
                let t = t.clone();
                scope.spawn(move || {
                    for round in 0..2_000u32 {
                        let i = (r * 331 + round * 7) % 2_000;
                        let got = t.get(&key(i)).unwrap().expect("key must exist");
                        assert_eq!(got, format!("value-{i}").as_bytes());
                    }
                });
            }
        });
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn shadow_mode_never_overwrites_committed_pages_and_recycles_after_commit() {
        let tree = new_shadow_tree();
        for i in 0..200u32 {
            tree.insert(&key(i), b"epoch-0").unwrap();
        }
        // Commit epoch 1.
        let (root1, next1) = {
            let cut = tree.cut_epoch();
            let (r, n) = (cut.root(), cut.next_page_id());
            // A fresh tree frees nothing on its first commit.
            assert!(cut.commit().is_empty());
            (r, n)
        };
        // Snapshot the committed pages straight from the store.
        let committed: Vec<(u64, Bytes)> = (0..next1)
            .filter_map(|id| tree.store().read_page(id).unwrap().map(|d| (id, d)))
            .collect();
        assert!(committed.iter().any(|(id, _)| *id == root1));

        // Epoch 2 modifies heavily but does NOT write back: every committed page image
        // in the store must be byte-identical (copy-on-write, no in-place overwrite).
        for i in 0..200u32 {
            tree.insert(&key(i), b"epoch-1").unwrap();
        }
        tree.delete(&key(7)).unwrap();
        for (id, data) in &committed {
            assert_eq!(
                tree.store().read_page(*id).unwrap().as_deref(),
                Some(&data[..]),
                "committed page {id} overwritten before commit"
            );
        }

        // Committing epoch 2 frees superseded pages; once handed back, they recycle.
        let freed = tree.cut_epoch().commit();
        assert!(!freed.is_empty(), "epoch 2 must supersede committed pages");
        tree.seed_free_list(freed);
        let watermark_before = tree.alloc.lock().next_page_id;
        for i in 200..260u32 {
            tree.insert(&key(i), b"epoch-2").unwrap();
        }
        let watermark_after = tree.alloc.lock().next_page_id;
        assert!(
            (watermark_after - watermark_before) < 60,
            "freed ids were not recycled (watermark grew by {})",
            watermark_after - watermark_before
        );
    }

    #[test]
    fn the_next_epoch_relocates_cut_pages_and_an_uncommitted_cut_gives_its_freed_ids_back() {
        let tree = new_shadow_tree();
        for i in 0..200u32 {
            tree.insert(&key(i), b"epoch-1").unwrap();
        }
        tree.cut_epoch().commit();
        tree.insert(&key(3), b"epoch-2").unwrap();
        let cut = tree.cut_epoch();
        let freed = cut.freed.clone();
        assert!(!freed.is_empty(), "epoch 2 must supersede committed pages");
        let cut_pages: Vec<(u64, Bytes)> = (0..cut.next_page_id())
            .filter_map(|id| tree.store().read_page(id).unwrap().map(|d| (id, d)))
            .collect();

        // The latch is free: a mutation runs as epoch 3 and path-copies the cut
        // epoch's pages, fresh a moment ago, instead of rewriting them in place.
        tree.insert(&key(3), b"epoch-3").unwrap();
        assert_ne!(tree.root.load(Ordering::Acquire), cut.root());
        tree.pool.write_back().unwrap();
        for (id, data) in &cut_pages {
            assert_eq!(
                tree.store().read_page(*id).unwrap().as_deref(),
                Some(&data[..]),
                "cut page {id} rewritten by the next epoch"
            );
        }

        // A cut whose commit record never became durable keeps its freed ids queued
        // for the next cut, beside the ones epoch 3 superseded.
        drop(cut);
        let queued = tree.alloc.lock().freed.clone();
        assert!(freed.iter().all(|id| queued.contains(id)), "{freed:?} lost");
        assert!(queued.len() > freed.len(), "epoch 3 superseded nothing");
        assert_eq!(tree.cut_epoch().commit().len(), queued.len());
        assert_eq!(tree.get(&key(3)).unwrap().unwrap(), b"epoch-3");
    }

    #[test]
    fn shadow_reopen_from_frontier_sees_committed_state_only() {
        let store = std::sync::Arc::new(MemPageStore::new(PAGE));

        /// Shares one `MemPageStore` across two "incarnations" of a tree.
        struct SharedStore(std::sync::Arc<MemPageStore>);
        impl PageStore for SharedStore {
            fn page_size(&self) -> usize {
                self.0.page_size()
            }
            fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
                self.0.read_page(id)
            }
            fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
                self.0.write_page(id, data)
            }
        }

        let tree =
            BTree::open_shadow(BufferPool::new(SharedStore(store.clone()), 64), None).unwrap();
        for i in 0..150u32 {
            tree.insert(&key(i), format!("v-{i}").as_bytes()).unwrap();
        }
        let (root, next, len) = {
            let cut = tree.cut_epoch();
            let frontier = (cut.root(), cut.next_page_id(), cut.len());
            cut.commit();
            frontier
        };
        // Uncommitted epoch on top: must be invisible to the frontier reopen.
        for i in 0..150u32 {
            tree.insert(&key(i), b"uncommitted").unwrap();
        }
        drop(tree);

        let reopened = BTree::open_shadow(
            BufferPool::new(SharedStore(store), 64),
            Some((root, next, len)),
        )
        .unwrap();
        assert_eq!(reopened.len(), 150);
        for i in (0..150u32).step_by(13) {
            assert_eq!(
                reopened.get(&key(i)).unwrap().unwrap(),
                format!("v-{i}").as_bytes()
            );
        }
    }

    /// One `MemPageStore` under two incarnations of a tree: `pad` stores every page
    /// zero-filled to the page size, as every older build did; otherwise each page
    /// must arrive bare, exactly its node's encoded length.
    struct PaddingStore {
        inner: std::sync::Arc<MemPageStore>,
        pad: bool,
    }
    impl PageStore for PaddingStore {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
            self.inner.read_page(id)
        }
        fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
            if !self.pad {
                assert_eq!(data.len(), crate::node::encoded_len(data)?, "page {id}");
                return self.inner.write_page(id, data);
            }
            let mut page = data.to_vec();
            page.resize(PAGE, 0);
            self.inner.write_page(id, &page)
        }
    }

    #[test]
    fn a_tree_committed_on_padded_pages_reopens_reads_and_mutates() {
        let inner = std::sync::Arc::new(MemPageStore::new(PAGE));
        let open = |pad, frontier| {
            let store = PaddingStore {
                inner: inner.clone(),
                pad,
            };
            BTree::open_shadow(BufferPool::new(store, 8), frontier).unwrap()
        };
        let commit = |tree: &BTree<PaddingStore>| {
            let cut = tree.cut_epoch();
            let frontier = (cut.root(), cut.next_page_id(), cut.len());
            cut.commit();
            Some(frontier)
        };
        let check = |tree: &BTree<PaddingStore>, model: &BTreeMap<Vec<u8>, Vec<u8>>| {
            assert_eq!(tree.len() as usize, model.len());
            let all = tree.range(b"", b"\xff").unwrap();
            assert!(all.into_iter().eq(model.clone()));
        };

        let mut model = BTreeMap::new();
        let padded = open(true, None);
        for i in 0..600u32 {
            padded.insert(&key(i), b"padded").unwrap();
            model.insert(key(i), b"padded".to_vec());
        }
        let frontier = commit(&padded);
        drop(padded);

        let tree = open(false, frontier);
        check(&tree, &model);
        for i in 0..900u32 {
            let k = key(i * 7 % 1_200);
            if i % 5 == 0 {
                assert_eq!(tree.delete(&k).unwrap(), model.remove(&k).is_some());
            } else {
                tree.insert(&k, b"bare").unwrap();
                model.insert(k, b"bare".to_vec());
            }
        }
        let frontier = commit(&tree);
        check(&tree, &model);
        drop(tree);
        check(&open(false, frontier), &model);
    }

    /// A leaf an older build filled to the whole 4 KiB page — committed, as in a shadow
    /// tree's store, or in place, as in a stand-alone one — takes a maximum-size insert
    /// anywhere in its key range: it splits into halves that both fit, with no error,
    /// and the next edits split what is still past half a page.
    #[test]
    fn a_full_page_leaf_from_an_older_build_takes_a_max_size_insert_and_splits() {
        const PAGE_4K: usize = 4096;
        let entries: Vec<(Vec<u8>, Vec<u8>)> =
            (0..39u32).map(|i| (key(i * 10), vec![b'o'; 88])).collect();
        let leaf = Node::Leaf {
            entries: entries.clone(),
        };
        assert!(
            leaf.encoded_size() > PAGE_4K - 100,
            "{}",
            leaf.encoded_size()
        );
        let image = leaf.encode(PAGE_4K).unwrap();
        for (shadow, at) in [(true, 5u32), (true, 381), (false, 0), (false, 205)] {
            let store = MemPageStore::new(PAGE_4K);
            store.write_page(1, &image).unwrap();
            let pool = BufferPool::new(store, 8);
            let tree = if shadow {
                BTree::open_shadow(pool, Some((1, 2, 39))).unwrap()
            } else {
                pool.write(
                    META_PAGE,
                    MetaPage {
                        root: 1,
                        next_page_id: 2,
                        len: 39,
                    }
                    .encode(),
                )
                .unwrap();
                BTree::open(pool).unwrap()
            };
            let big = key(at);
            let value = vec![b'n'; tree.max_entry_size() - big.len()];
            tree.insert(&big, &value).unwrap();
            let (depth, _) = shape(&tree);
            assert_eq!(depth, 2, "the full leaf split under a new root");
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = entries.iter().cloned().collect();
            model.insert(big, value);
            assert_eq!(
                tree.range(b"", b"~").unwrap(),
                model.clone().into_iter().collect::<Vec<_>>()
            );
            // Overwrites shrink nothing: every leaf past half a page splits at its next
            // edit, and none is left above the page.
            for (k, _) in entries.iter().step_by(3) {
                tree.insert(k, b"o").unwrap();
                model.insert(k.clone(), b"o".to_vec());
            }
            assert_eq!(
                tree.range(b"", b"~").unwrap(),
                model.into_iter().collect::<Vec<_>>()
            );
            tree.walk(|_, _, page| {
                assert!(page.len() <= PAGE_4K);
                Ok(())
            })
            .unwrap();
        }
    }

    /// A `MemPageStore` shared across tree incarnations that counts the delta pages it
    /// stores and serves.
    struct DeltaCountingStore {
        inner: std::sync::Arc<MemPageStore>,
        delta_writes: AtomicU64,
        delta_reads: AtomicU64,
    }
    impl PageStore for DeltaCountingStore {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
            let page = self.inner.read_page(id)?;
            if page.as_deref().is_some_and(crate::node::is_delta) {
                self.delta_reads.fetch_add(1, Ordering::Relaxed);
            }
            Ok(page)
        }
        fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
            if crate::node::is_delta(data) {
                self.delta_writes.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.write_page(id, data)
        }
    }

    /// Leaf deltas against a model over 60 committed epochs, through a pool of eight
    /// pages' worth, so deltas are dirty-evicted mid-epoch and read back by misses that
    /// consolidate them with their bases; with overwrites, inserts that split leaves,
    /// deletes that empty whole runs of them, and deltas that outgrow half their leaf
    /// and consolidate. After every commit: the tree matches the model; every stored
    /// delta names the base the walk reports and consolidates to the walked leaf; no id
    /// the commit freed is reachable or a reachable delta's base; and no id is freed
    /// twice without being reused in between. The freed pages are then scribbled over
    /// in the store, so a base freed too early breaks the next epoch's reads.
    #[test]
    fn leaf_deltas_match_a_model_over_many_epochs_and_free_each_base_once() {
        const EPOCHS: u32 = 60;
        const KEYS: u32 = 1_200;
        let inner = std::sync::Arc::new(MemPageStore::new(PAGE));
        let store = DeltaCountingStore {
            inner: inner.clone(),
            delta_writes: AtomicU64::new(0),
            delta_reads: AtomicU64::new(0),
        };
        let tree = BTree::open_shadow(BufferPool::new(store, 8), None).unwrap();
        let mut rng = 0x1EAF_DE17u64;
        let mut next = |n: u32| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) % u64::from(n)) as u32
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in (0..KEYS).step_by(2) {
            tree.insert(&key(i), b"preload").unwrap();
            model.insert(key(i), b"preload".to_vec());
        }
        // Ids released by a commit and not reachable since; the last commit's bases.
        let mut released: HashSet<u64> = HashSet::new();
        let mut last_bases: HashSet<u64> = HashSet::new();
        let (mut bases_freed, mut evicted_deltas, mut emptied, mut after_cut) = (0, 0, 0, 0);
        for epoch in 0..EPOCHS {
            for _ in 0..150 {
                let k = key(next(KEYS));
                match next(10) {
                    0..=5 => {
                        let v = vec![b'v'; next(9) as usize];
                        tree.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    6..=7 => {
                        assert_eq!(tree.delete(&k).unwrap(), model.remove(&k).is_some());
                    }
                    _ => assert_eq!(tree.get(&k).unwrap().as_ref(), model.get(&k)),
                }
            }
            if epoch % 10 == 9 {
                // Hollow out a run of whole leaves.
                let from = next(KEYS - 80);
                for i in from..from + 80 {
                    assert_eq!(
                        tree.delete(&key(i)).unwrap(),
                        model.remove(&key(i)).is_some()
                    );
                }
                emptied += shape(&tree).1;
            }
            // Deltas written between two cuts were written by dirty evictions.
            evicted_deltas += tree.store().delta_writes.load(Ordering::Relaxed) - after_cut;
            let freed = tree.cut_epoch().commit();
            after_cut = tree.store().delta_writes.load(Ordering::Relaxed);

            // The committed tree is the whole tree: nothing ran since the cut.
            let (mut reachable, mut bases) = (HashSet::new(), HashSet::new());
            tree.walk(|id, base, image| {
                reachable.insert(id);
                let stored = inner.read_page(id)?.expect("reachable pages are stored");
                match base {
                    Some(base) => {
                        bases.insert(base);
                        assert_eq!(crate::node::raw_delta_base(&stored)?, Some(base));
                        let base_image = inner.read_page(base)?.expect("bases are stored");
                        let leaf = crate::node::delta_apply(&base_image, &stored, PAGE)?;
                        assert_eq!(leaf, image, "delta leaf {id}");
                    }
                    None => assert_eq!(&stored[..], image, "page {id}"),
                }
                Ok(())
            })
            .unwrap();
            assert!(bases.is_disjoint(&reachable), "a base is also a node");
            let mut once = HashSet::new();
            for &id in &freed {
                assert!(
                    once.insert(id),
                    "epoch {epoch}: {id} freed twice in one commit"
                );
                assert!(
                    !reachable.contains(&id),
                    "epoch {epoch}: freed {id} is reachable"
                );
                assert!(
                    !bases.contains(&id),
                    "epoch {epoch}: freed base {id} is named"
                );
                assert!(released.insert(id), "epoch {epoch}: {id} freed again");
                bases_freed += usize::from(last_bases.contains(&id));
                inner.write_page(id, &[0xEE; 16]).unwrap();
            }
            for id in reachable.iter().chain(&bases) {
                released.remove(id);
            }
            last_bases = bases;
            tree.seed_free_list(freed);
            assert_matches_model(&tree, &model);
        }
        let (depth, _) = shape(&tree);
        let store = tree.store();
        let (writes, reads) = (
            store.delta_writes.load(Ordering::Relaxed),
            store.delta_reads.load(Ordering::Relaxed),
        );
        let at = format!(
            "{writes} delta writes, {evicted_deltas} evicted, {reads} read back, \
             {bases_freed} bases freed, {emptied} empty leaves, depth {depth}"
        );
        assert!(writes > 1_000 && evicted_deltas > 100, "{at}");
        assert!(reads > 100, "{at}");
        assert!(bases_freed > 200, "{at}");
        assert!(emptied > 0 && depth >= 3, "{at}");
        assert_eq!(tree.stats().write_fallbacks, 0);
    }

    /// A delta stays a delta while its leaf stays in the pool, however often it is
    /// written; once a miss has read it back together with its base, the leaf's next
    /// write stores it whole and queues the base for release.
    #[test]
    fn a_delta_a_miss_read_back_is_stored_whole_at_the_next_write() {
        let tree = new_shadow_tree();
        for i in 0..200u32 {
            tree.insert(&key(i), b"v").unwrap();
        }
        tree.seed_free_list(tree.cut_epoch().commit());
        let leaf_of = |k: &[u8]| {
            let path = tree.descend_recording(k).unwrap().unwrap();
            let leaf = &path[path.len - 1];
            (leaf.page, leaf.delta.clone())
        };
        // Two epochs of writes to a resident leaf: a delta against the epoch-1 leaf,
        // then the same delta carried to the next page.
        tree.insert(&key(100), b"w").unwrap();
        let (_, first) = leaf_of(&key(100));
        let base = first.expect("a relocated leaf is stored as a delta").base;
        tree.seed_free_list(tree.cut_epoch().commit());
        tree.insert(&key(100), b"x").unwrap();
        let (page, second) = leaf_of(&key(100));
        let second = second.expect("a resident delta is extended");
        assert_eq!(second.base, base);
        assert!(second.image.is_some());
        tree.seed_free_list(tree.cut_epoch().commit());

        // Out of the pool and back: the miss consolidates, keeping only the base id.
        tree.pool.discard(page);
        assert_eq!(tree.get(&key(100)).unwrap().as_deref(), Some(&b"x"[..]));
        let (_, read_back) = leaf_of(&key(100));
        let read_back = read_back.expect("the frame remembers its base");
        assert_eq!((read_back.base, read_back.image), (base, None));

        // The next write stores the leaf whole and lets the base go with the old page.
        tree.insert(&key(100), b"y").unwrap();
        let (_, after) = leaf_of(&key(100));
        assert!(after.is_none(), "stored whole");
        let freed = tree.alloc.lock().freed.clone();
        assert!(freed.contains(&base) && freed.contains(&page), "{freed:?}");
        for i in 0..200u32 {
            let want: &[u8] = if i == 100 { b"y" } else { b"v" };
            assert_eq!(tree.get(&key(i)).unwrap().as_deref(), Some(want));
        }
    }

    #[test]
    fn walk_visits_every_reachable_node_exactly_once() {
        let t = new_tree();
        for i in 0..1_000u32 {
            t.insert(&key(i), b"x").unwrap();
        }
        let mut ids = Vec::new();
        let mut leaves = 0u64;
        t.walk(|id, _, page| {
            ids.push(id);
            if raw_is_leaf(page)? {
                leaves += 1;
            }
            Ok(())
        })
        .unwrap();
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "a node was visited twice");
        assert!(leaves > 1, "1000 keys cannot fit one leaf");

        // Split across threads: the same pages, once each, the root first in the first
        // part; an error from any part ends the walk.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        for threads in [1, 2, 3, 64] {
            let parts = t
                .walk_split(threads, Vec::new, |seen, id, _, _| {
                    seen.push(id);
                    Ok(())
                })
                .unwrap();
            assert!(parts.len() <= threads.max(1), "{threads} threads");
            assert_eq!(parts[0][0], ids[0], "the root comes first");
            let mut split: Vec<u64> = parts.concat();
            split.sort_unstable();
            assert_eq!(split, sorted, "{threads} threads");
            let last = *ids.last().unwrap();
            let failed = t.walk_split(
                threads,
                || (),
                |_, id, _, _| match id == last {
                    true => Err(Error::CorruptCheckpoint(format!("page {id}"))),
                    false => Ok(()),
                },
            );
            assert!(failed.is_err(), "{threads} threads");
        }
        let single = new_tree();
        single.insert(b"k", b"v").unwrap();
        let parts = single
            .walk_split(
                2,
                || 0,
                |pages, _, _, _| {
                    *pages += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(parts, vec![1], "a root leaf is the whole walk");
    }

    #[test]
    fn stats_track_writer_crabbing_and_fallbacks() {
        let t = new_tree();
        for i in 0..500u32 {
            t.insert(&key(i), b"x").unwrap();
        }
        t.get(&key(3)).unwrap();
        let s = t.stats();
        assert_eq!(s.writer_ops, 500);
        assert!(
            s.writer_locks >= 500,
            "every mutation locks at least the leaf"
        );
        assert!(s.avg_crab_depth() >= 1.0);
        // Uncontended single-threaded use never needs the quiesced fallback.
        assert_eq!(s.read_fallbacks, 0);
        assert_eq!(s.write_fallbacks, 0);
    }

    /// A store whose page writes fail while `fail` is set; reads always succeed.
    struct FailingStore {
        inner: MemPageStore,
        fail: std::sync::atomic::AtomicBool,
    }
    impl PageStore for FailingStore {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
            self.inner.read_page(id)
        }
        fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(Error::Io(std::io::Error::other("injected write failure")));
            }
            self.inner.write_page(id, data)
        }
    }

    /// A key of [`committed_failing_shadow_tree`]: 40 bytes, so an internal node holds
    /// at most four separators, and a leaf one entry.
    fn long_key(i: u32) -> Vec<u8> {
        format!("{i:040}").into_bytes()
    }

    /// The value every key of [`committed_failing_shadow_tree`] starts with.
    const SEED: &[u8] = &[b's'; 24];

    /// A committed shadow tree over a [`FailingStore`] with a pool of two pages'
    /// worth: once `fail` is set, any mutation that relocates a root-to-leaf path
    /// (seven levels at 300 keys, its internal nodes at least 111 of 256 bytes) writes
    /// more than the pool holds, so it must dirty-evict mid-apply and surface the
    /// injected error partway through its writes.
    fn committed_failing_shadow_tree() -> BTree<FailingStore> {
        let store = FailingStore {
            inner: MemPageStore::new(PAGE),
            fail: std::sync::atomic::AtomicBool::new(false),
        };
        let tree = BTree::open_shadow(BufferPool::new(store, 2), None).unwrap();
        for i in 0..300u32 {
            tree.insert(&long_key(i), SEED).unwrap();
        }
        tree.cut_epoch().commit();
        assert!(
            tree.alloc.lock().freed.is_empty(),
            "committed baseline must start with an empty freed queue"
        );
        tree
    }

    #[test]
    fn failed_apply_rolls_back_the_freed_queue() {
        let tree = committed_failing_shadow_tree();
        tree.store().fail.store(true, Ordering::Relaxed);
        assert!(
            tree.insert(&long_key(42), b"rewrite").is_err(),
            "a pool of two pages' worth must dirty-evict (and so fail) mid-apply"
        );
        // The regression: the committed pages this attempt queued for release
        // must not stay on `freed`, or the next checkpoint commit would delete
        // storage the committed tree still references.
        assert!(
            tree.alloc.lock().freed.is_empty(),
            "failed apply left committed pages on the freed queue"
        );
        tree.store().fail.store(false, Ordering::Relaxed);
        // The old root was never superseded: the failed mutation is invisible.
        assert_eq!(tree.get(&long_key(42)).unwrap().as_deref(), Some(SEED));
        // The tree is fully usable and the next commit releases only pages the
        // committed tree no longer references: scribbling over their storage —
        // the moral equivalent of the store deleting them — must break nothing.
        tree.insert(&long_key(42), b"after").unwrap();
        for id in tree.cut_epoch().commit() {
            tree.store().inner.write_page(id, &[0xAA; PAGE]).unwrap();
        }
        assert_eq!(tree.get(&long_key(42)).unwrap().unwrap(), b"after");
        for i in (0..300u32).step_by(7) {
            if i != 42 {
                assert_eq!(tree.get(&long_key(i)).unwrap().as_deref(), Some(SEED));
            }
        }
    }

    #[test]
    fn failed_quiesced_mutations_roll_back_the_freed_queue() {
        let tree = committed_failing_shadow_tree();

        // Quiesced insert fails mid-recursion.
        tree.store().fail.store(true, Ordering::Relaxed);
        {
            let _quiesced = tree.epoch_latch.write();
            assert!(tree.insert_quiesced(&long_key(57), b"rewrite").is_err());
        }
        assert!(
            tree.alloc.lock().freed.is_empty(),
            "failed quiesced insert left committed pages on the freed queue"
        );
        tree.store().fail.store(false, Ordering::Relaxed);
        assert_eq!(tree.get(&long_key(57)).unwrap().as_deref(), Some(SEED));

        // Re-commit (clean pool, empty freed queue), then the delete path.
        tree.cut_epoch().commit();
        tree.store().fail.store(true, Ordering::Relaxed);
        {
            let _quiesced = tree.epoch_latch.write();
            assert!(tree.delete_quiesced(&long_key(100)).is_err());
        }
        assert!(
            tree.alloc.lock().freed.is_empty(),
            "failed quiesced delete left committed pages on the freed queue"
        );
        tree.store().fail.store(false, Ordering::Relaxed);
        assert_eq!(tree.get(&long_key(100)).unwrap().as_deref(), Some(SEED));
        assert!(tree.delete(&long_key(100)).unwrap());
        assert_eq!(tree.len(), 299);
    }

    #[test]
    fn quiesced_splits_are_invisible_to_optimistic_readers() {
        // Regression for the write-then-bump race: a quiesced in-place split that
        // wrote the truncated left leaf before invalidating its version let an
        // optimistic reader validate post-write bytes against the pre-write
        // version and miss the keys moved to the right sibling. Every insert here
        // goes through the quiesced path directly while readers hammer the most
        // recently published keys — exactly the ones a leaf split moves.
        let t = std::sync::Arc::new(new_tree());
        let published = std::sync::Arc::new(AtomicU64::new(0));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for r in 0..2u64 {
                let t = t.clone();
                let published = published.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let n = published.load(Ordering::Acquire);
                        if n == 0 {
                            std::hint::spin_loop();
                            continue;
                        }
                        let i = n - 1 - ((round * 7 + r) % n.min(16));
                        assert!(
                            t.get(&key(i as u32)).unwrap().is_some(),
                            "published key {i} vanished mid-quiesced-split"
                        );
                        round += 1;
                    }
                });
            }
            for i in 0..3_000u32 {
                let _quiesced = t.epoch_latch.write();
                t.insert_quiesced(&key(i), b"v").unwrap();
                drop(_quiesced);
                published.store(u64::from(i) + 1, Ordering::Release);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(t.len(), 3_000);
    }

    #[test]
    fn scans_survive_perpetual_conflicts_via_the_per_leaf_fallback() {
        let t = new_tree();
        for i in 0..600u32 {
            t.insert(&key(i), b"x").unwrap();
        }
        // A pathological closure that invalidates every page version on each
        // call: all optimistic attempts conflict at leaf validation, so the scan
        // can only progress through the quiesced fallback — which must take one
        // leaf per exclusive hold (releasing the epoch latch in between) and
        // still visit every key exactly once, in order.
        let n_pages = t.alloc.lock().next_page_id;
        let out = t
            .scan_map(b"key-", b"key-99999999~", |k, _v| {
                for p in 0..n_pages {
                    t.versions.bump(p);
                }
                Ok(Some(k.to_vec()))
            })
            .unwrap();
        assert_eq!(out.len(), 600);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "scan not sorted");
        assert_eq!(out, (0..600u32).map(key).collect::<Vec<_>>());
        let s = t.stats();
        assert!(
            s.read_restarts > 0,
            "every optimistic attempt must conflict"
        );
        assert!(
            s.read_fallbacks > 1,
            "each leaf must go through its own fallback, not one latch hold for the tail"
        );
    }

    #[test]
    fn persists_across_reopen_on_a_log_structured_store() {
        let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        let pool = BufferPool::new(LssPageStore::new(store, config.page_bytes), 32);
        let tree = BTree::open(pool).unwrap();
        for i in 0..500u32 {
            tree.insert(&key(i), format!("value-{i}").as_bytes())
                .unwrap();
        }
        let lss = tree.into_store().unwrap().into_inner();

        // Simulate a restart: recover the log store from its device and reopen the tree.
        let device = lss.into_device();
        let recovered = LogStore::recover_with_device(config.clone(), device).unwrap();
        let pool = BufferPool::new(LssPageStore::new(recovered, config.page_bytes), 32);
        let tree2 = BTree::open(pool).unwrap();
        assert_eq!(tree2.len(), 500);
        for i in (0..500u32).step_by(37) {
            assert_eq!(
                tree2.get(&key(i)).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }
}
