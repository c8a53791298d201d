//! [`KvStore`]: an ordered key-value store whose index is a durable **paged B+-tree
//! living in the same log-structured store as the values** — the paper's Figure 6
//! layering (a B+-tree storage engine running *on* the log store), promoted from a
//! trace generator to the actual experimental substrate.
//!
//! ## Page-id space partitioning
//!
//! One [`lss_core::LogStore`] holds three disjoint page-id ranges:
//!
//! ```text
//! [0, META_BASE)                   user value pages, one value per page
//! [META_BASE, META_BASE + 2)       the two alternating superblock slots
//! [META_BASE + 2, TREE_BASE)       unused
//! [TREE_BASE, ...)                 B+-tree index pages (tree-local id + TREE_BASE)
//! ```
//!
//! Keys map to user page ids through the tree (values stay in the log — KV
//! separation); the tree's own pages are written through a [`BufferPool`] into the
//! reserved range, so index I/O and value I/O share the store's segments, cleaner and
//! write streams.
//!
//! ## Crash consistency: shadow epochs + superblock flip
//!
//! The tree runs in shadow (copy-on-write) mode ([`BTree::open_shadow`]): committed
//! pages are never overwritten, and every `put` relocates the value to a *fresh* user
//! page instead of updating the old one in place. [`KvStore::flush`] commits an epoch
//! in a short *cut* and a tail of two barriers:
//!
//! 1. **the cut**, under the tree's exclusive epoch latch: write back all dirty index
//!    pages (fresh ids only) into the store, snapshot the superblock's fields, take the
//!    epoch's superseded tree ids and user pages, and end the epoch (no page of it is
//!    updated in place again; see [`crate::tree::TreeCheckpoint::cut`]); then release
//!    the latch. A mutation after the cut belongs to the next epoch, and no mutation
//!    ever waits for a barrier;
//! 2. flush the store — **barrier 1**: the cut tree and its values are durable but
//!    unreferenced (pages of the next epoch may ride along; nothing references them);
//! 3. write a versioned, checksummed [`Superblock`] into the alternating slot
//!    `META_BASE + epoch % 2` and flush again — **barrier 2**: the single page write
//!    that atomically flips the committed state.
//!
//! Only after barrier 2 are the cut epoch's superseded pages deleted and their ids
//! recycled. A failed barrier releases nothing and leaves the epoch number alone: both
//! superseded lists go back for the next flip, whose root still references the cut
//! pages and whose barrier 1 persists them. A crash anywhere in this protocol reopens
//! to exactly the last committed index: the old superblock still describes a fully
//! intact tree whose pages nobody touched. Reopen additionally runs a reachability
//! sweep that reclaims pages a crashed epoch (or a later one) left behind and
//! reconstructs both free lists.
//!
//! ## Concurrency and lock order
//!
//! Everything takes `&self`. Value writes (the heavy I/O) happen *outside* the index
//! entirely, on the store's sharded write streams; index mutations use the tree's
//! optimistic lock-coupling (see [`crate::tree`]) — readers descend latch-free with
//! version validation, writers lock only the nodes they rewrite — so concurrent
//! writers no longer serialise on one tree latch. Point reads and scans read the
//! value pages inside a version-validated window ([`BTree::get_map`] /
//! [`BTree::scan_map`]): the leaf that maps a key to its value page is re-validated
//! *after* the value is read, and reclaiming a superseded value page happens only
//! after a commit bumped that leaf's version — so a validated value read is proven
//! not to have raced the page's release. Lock order: `commit mutex → epoch latch →
//! node version slot → tree allocator → pool shard latch`; the user-page allocator
//! mutex is taken either alone or (during a flip's cut) inside the commit mutex and
//! the epoch latch. The commit mutex serialises flips and is held from the cut
//! through the release; the epoch latch is held exclusively only for the cut.
//!
//! ## Group commit
//!
//! With `group_commit_window_us > 0` ([`KvOptions`]), concurrent [`KvStore::flush`]
//! calls batch into one superblock flip: the first caller becomes the *leader* of a
//! commit generation, waits out the window while further callers become *riders* of
//! the same generation, then runs the two-barrier flip once and wakes every rider
//! with the shared outcome. A rider's mutations are always covered: they completed
//! before its `flush` call, the generation closes before the flip begins, and the
//! flip's cut comes after both — so the flipped epoch contains every batched
//! mutation, and a crash lands on exactly the previous or the batched epoch, never a
//! partial batch (it is one ordinary epoch). A failed flip fails the *whole*
//! generation with one shared source error — leader and riders all surface
//! [`Error::GroupCommitFailed`] around the same source, and the outcome is
//! published even if the leader unwinds mid-flip, so riders can never hang on a
//! generation that will never report. `group_commit_window_us = 0` (the default)
//! short-circuits straight into the flip — byte-for-byte today's per-call
//! behaviour.
//!
//! [`KvStore::flush_with`] is `flush` for a caller that acknowledges mutations *other*
//! threads made — `lss-server`'s committer, which keeps a list of applied-but-unacked
//! requests and must decide which of them a flip covers. Its hook runs at the one
//! point where that is known: when the caller's generation closes (on joining, for a
//! rider; at once with no window), which is after the window and strictly before
//! `begin_checkpoint`. Everything listed before the hook ran had returned from its
//! `put`/`delete`, so the cut contains it; anything listed later may have missed the
//! cut and must wait for the next flip. Cutting the list after
//! `flush` returned instead would acknowledge exactly those late arrivals with an
//! epoch that does not hold them. The window stays owned here, in one place: a
//! caller batches by calling `flush_with` once, not by sleeping itself.

use crate::buffer_pool::{BufferPool, BufferPoolStats};
use crate::kv_legacy::{classify_slot, SlotState, Superblock};
use crate::node::{is_delta, raw_is_leaf, raw_leaf_entries};
use crate::page_store::PageStore;
use crate::tree::{BTree, TreeStats};
use bytes::Bytes;
use lss_core::error::{Error, Result};
use lss_core::util::FxHashSet;
use lss_core::{LogStore, PageId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Page ids at and above this value are reserved for the KV layer's own metadata.
pub const META_BASE: PageId = 1 << 62;
/// Exclusive upper bound of the user value page range (== [`META_BASE`]: the capacity
/// guard that keeps user values out of the reserved range).
pub const USER_PAGE_LIMIT: PageId = META_BASE;
/// Base of the B+-tree index page range: tree-local page id `t` lives at
/// `TREE_BASE + t`.
const TREE_BASE: PageId = META_BASE + (1 << 32);

/// The superblock slot an epoch commits into (alternating shadow-meta flip).
fn superblock_slot(epoch: u64) -> PageId {
    META_BASE + (epoch % 2)
}

/// Decode a tree value (an 8-byte LE user page id).
fn decode_user_page(v: &[u8]) -> Result<PageId> {
    let bytes: [u8; 8] = v.try_into().map_err(|_| {
        Error::CorruptCheckpoint(format!(
            "kv index value is {} bytes, expected an 8-byte page id",
            v.len()
        ))
    })?;
    Ok(PageId::from_le_bytes(bytes))
}

/// Add the microseconds since `since` to a time counter.
fn add_micros(counter: &AtomicU64, since: Instant) {
    let us = u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX);
    counter.fetch_add(us, Ordering::Relaxed);
}

/// Options for opening a [`KvStore`].
///
/// The index page size is the store's `page_bytes` (at least 64, the tree's minimum):
/// no node outgrows it, leaves split past half of it, and each node is stored at its
/// encoded length, not padded to it.
#[derive(Debug, Clone)]
pub struct KvOptions {
    /// Buffer-pool budget for index pages, in pages: the pool holds up to
    /// `pool_pages × page_bytes` bytes of nodes at their encoded lengths, so it caches
    /// more than `pool_pages` nodes when they are short.
    pub pool_pages: usize,
    /// Group-commit window in microseconds: how long the leader of a commit
    /// generation waits for further [`KvStore::flush`] callers to batch into the
    /// same superblock flip. `0` (the default) commits per call, exactly the
    /// pre-group-commit behaviour. See the module docs.
    pub group_commit_window_us: u64,
}

impl Default for KvOptions {
    fn default() -> Self {
        Self {
            pool_pages: 256,
            group_commit_window_us: 0,
        }
    }
}

/// Lock-free operation counters of the KV layer (`StoreStats`-style).
#[derive(Debug, Default)]
pub(crate) struct KvCounters {
    pub(crate) puts: AtomicU64,
    pub(crate) gets: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) range_scans: AtomicU64,
    pub(crate) index_pages_written: AtomicU64,
    pub(crate) index_bytes_written: AtomicU64,
    pub(crate) index_delta_pages_written: AtomicU64,
    pub(crate) index_delta_bytes_written: AtomicU64,
    pub(crate) value_pages_written: AtomicU64,
    pub(crate) value_bytes_written: AtomicU64,
    pub(crate) superblock_commits: AtomicU64,
    pub(crate) flush_calls: AtomicU64,
    pub(crate) group_commit_riders: AtomicU64,
    pub(crate) commit_latch_us: AtomicU64,
    pub(crate) commit_us: AtomicU64,
}

impl KvCounters {
    pub(crate) fn snapshot(
        &self,
        pool: BufferPoolStats,
        epoch: u64,
        keys: u64,
        tree: TreeStats,
    ) -> KvStats {
        KvStats {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            range_scans: self.range_scans.load(Ordering::Relaxed),
            index_pages_written: self.index_pages_written.load(Ordering::Relaxed),
            index_bytes_written: self.index_bytes_written.load(Ordering::Relaxed),
            index_delta_pages_written: self.index_delta_pages_written.load(Ordering::Relaxed),
            index_delta_bytes_written: self.index_delta_bytes_written.load(Ordering::Relaxed),
            value_pages_written: self.value_pages_written.load(Ordering::Relaxed),
            value_bytes_written: self.value_bytes_written.load(Ordering::Relaxed),
            superblock_commits: self.superblock_commits.load(Ordering::Relaxed),
            flush_calls: self.flush_calls.load(Ordering::Relaxed),
            group_commit_riders: self.group_commit_riders.load(Ordering::Relaxed),
            commit_latch_us: self.commit_latch_us.load(Ordering::Relaxed),
            commit_us: self.commit_us.load(Ordering::Relaxed),
            epoch,
            keys,
            pool,
            tree,
        }
    }
}

/// A snapshot of the KV layer's operational statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KvStats {
    /// `put` operations.
    pub puts: u64,
    /// `get` operations.
    pub gets: u64,
    /// `delete` operations.
    pub deletes: u64,
    /// `range` scans.
    pub range_scans: u64,
    /// Index (B+-tree) pages written into the log store.
    pub index_pages_written: u64,
    /// Bytes of index pages written into the log store.
    pub index_bytes_written: u64,
    /// Of [`KvStats::index_pages_written`], the leaves stored as deltas against a
    /// committed base rather than whole.
    pub index_delta_pages_written: u64,
    /// Of [`KvStats::index_bytes_written`], the bytes of those deltas.
    pub index_delta_bytes_written: u64,
    /// User value pages written into the log store.
    pub value_pages_written: u64,
    /// Bytes of user values written into the log store.
    pub value_bytes_written: u64,
    /// Committed epochs (superblock flips).
    pub superblock_commits: u64,
    /// [`KvStore::flush`] calls. With group commit, several calls can share one
    /// superblock flip, so this can exceed [`KvStats::superblock_commits`].
    pub flush_calls: u64,
    /// Flush calls that rode another caller's commit generation instead of leading
    /// their own flip (0 when `group_commit_window_us = 0`).
    pub group_commit_riders: u64,
    /// Microseconds flips held the tree's epoch latch exclusively, in total: the cuts
    /// (write-back and snapshot), the only part of a flip that mutations wait for.
    pub commit_latch_us: u64,
    /// Microseconds spent in flips, in total: cut, both barriers and the release
    /// (not the group-commit window, nor the wait for another flip to finish).
    pub commit_us: u64,
    /// Current committed epoch (0 = nothing committed yet).
    pub epoch: u64,
    /// Number of live keys at snapshot time.
    pub keys: u64,
    /// Buffer-pool gauges for the index pages (hit ratio, evictions).
    pub pool: BufferPoolStats,
    /// Index-tree concurrency gauges: optimistic-read restarts, writer crab depth,
    /// quiesced fallbacks.
    pub tree: TreeStats,
}

impl KvStats {
    /// Index write amplification: bytes of index metadata written to the store per
    /// byte of user value written. The paged index pays only for dirty tree pages and
    /// their root path.
    pub fn index_write_amplification(&self) -> f64 {
        if self.value_bytes_written == 0 {
            0.0
        } else {
            self.index_bytes_written as f64 / self.value_bytes_written as f64
        }
    }

    /// Mean number of flush calls a superblock flip absorbed — 1.0 means no
    /// batching, higher means group commit amortised barriers across callers.
    pub fn avg_commit_batch(&self) -> f64 {
        if self.superblock_commits == 0 {
            0.0
        } else {
            self.flush_calls as f64 / self.superblock_commits as f64
        }
    }
}

/// The page store the index tree writes through: tree-local ids offset into the
/// reserved range of the shared [`LogStore`], with index-write accounting.
#[derive(Debug)]
struct KvTreeStore {
    store: Arc<LogStore>,
    page_size: usize,
    counters: Arc<KvCounters>,
}

impl PageStore for KvTreeStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
        self.store.get(TREE_BASE + id)
    }

    fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
        let c = &self.counters;
        c.index_pages_written.fetch_add(1, Ordering::Relaxed);
        c.index_bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if is_delta(data) {
            c.index_delta_pages_written.fetch_add(1, Ordering::Relaxed);
            c.index_delta_bytes_written
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.store.put(TREE_BASE + id, data)
    }

    fn sync(&self) -> Result<()> {
        self.store.flush()
    }
}

/// The user value page allocator: watermark + free list + this epoch's supersessions.
#[derive(Debug, Default)]
struct UserAlloc {
    /// Next never-used user page id.
    next: PageId,
    /// Reusable ids (freed by committed epochs or reconstructed on reopen).
    free: Vec<PageId>,
    /// Pages superseded this epoch; released (deleted + reusable) after the next
    /// superblock commit — never before, because the committed index still maps to
    /// them until the flip.
    freed_epoch: Vec<PageId>,
}

/// A set of page ids below a watermark, one bit per id. Both id spaces the KV layer
/// allocates — tree ids and user page ids — are dense below their watermarks, since
/// freed ids are reused before the watermark moves. The bitmap covers ids below
/// `64 × live pages`, so it never costs more than 8 bytes a live page; ids above that —
/// only a watermark far past the store's contents has any — go to a hash set.
struct IdBitmap {
    words: Vec<u64>,
    spill: FxHashSet<u64>,
    limit: u64,
}

impl IdBitmap {
    fn below(limit: u64, live_pages: u64) -> Self {
        let dense = limit.min(live_pages.saturating_add(1).saturating_mul(64));
        Self {
            words: vec![0; dense.div_ceil(64) as usize],
            spill: FxHashSet::default(),
            limit,
        }
    }

    /// Add `id`; `false` if it is at or past the watermark.
    fn insert(&mut self, id: u64) -> bool {
        if id >= self.limit {
            return false;
        }
        match self.words.get_mut((id / 64) as usize) {
            Some(word) => *word |= 1 << (id % 64),
            None => {
                self.spill.insert(id);
            }
        }
        true
    }

    /// Add every id of `other`, a set below the same watermark.
    fn union(&mut self, other: IdBitmap) {
        for (word, theirs) in self.words.iter_mut().zip(other.words) {
            *word |= theirs;
        }
        self.spill.extend(other.spill);
    }

    fn contains(&self, id: u64) -> bool {
        match self.words.get((id / 64) as usize) {
            Some(word) => word & (1 << (id % 64)) != 0,
            None => self.spill.contains(&id),
        }
    }
}

/// Most threads a reopen's reachability walk runs on.
const REACH_WALK_THREADS: usize = 4;

/// What an index reaches: its tree page ids — the bases its delta leaves are stored
/// against among them — the user pages its leaves map, and its key count.
struct Reach {
    tree: IdBitmap,
    user: IdBitmap,
    keys: u64,
}

impl Reach {
    /// Walk the whole tree (quiescing writers for the walk), reading each leaf's
    /// values where they lie in its encoded page. Every id must lie below its
    /// watermark — `tree_next` for tree pages, `user_next` for user pages — which the
    /// allocators guarantee; one past it is corruption. The walk reads nearly every
    /// page from the store (two for a delta leaf: the delta and its base), so it runs
    /// on one thread per core, up to [`REACH_WALK_THREADS`], each collecting its own
    /// ids, merged at the end.
    fn walk(tree: &BTree<KvTreeStore>, tree_next: u64, user_next: PageId) -> Result<Self> {
        let live = tree.store().store.live_pages() as u64;
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(REACH_WALK_THREADS);
        let past = |kind: &str, id: u64, limit: u64| {
            Error::CorruptCheckpoint(format!(
                "kv index reaches {kind} page {id}, past its watermark {limit}"
            ))
        };
        let init = || Reach {
            tree: IdBitmap::below(tree_next, live),
            user: IdBitmap::below(user_next, live),
            keys: 0,
        };
        let visit = |reach: &mut Reach, id, base, page: &[u8]| {
            for id in std::iter::once(id).chain(base) {
                if !reach.tree.insert(id) {
                    return Err(past("tree", id, tree_next));
                }
            }
            if raw_is_leaf(page)? {
                for entry in raw_leaf_entries(page)? {
                    let (_, v) = entry?;
                    let user = decode_user_page(v).map_err(|_| {
                        Error::CorruptCheckpoint(format!(
                            "kv index leaf holds a {}-byte value, expected an 8-byte page id",
                            v.len()
                        ))
                    })?;
                    if !reach.user.insert(user) {
                        return Err(past("user", user, user_next));
                    }
                    reach.keys += 1;
                }
            }
            Ok(())
        };
        let mut parts = tree.walk_split(threads, init, visit)?.into_iter();
        let mut reach = parts.next().expect("the root's part");
        for part in parts {
            reach.tree.union(part.tree);
            reach.user.union(part.user);
            reach.keys += part.keys;
        }
        Ok(reach)
    }
}

/// One group-commit generation: the leader publishes the flip's outcome here and
/// wakes every rider. `None` = the flip has not finished; `Some(None)` = committed;
/// `Some(Some(e))` = the flip failed with the shared source error (leader and
/// riders all surface it as [`Error::GroupCommitFailed`], so callers matching on
/// the underlying variant behave identically in either role).
#[derive(Debug, Default)]
struct CommitGeneration {
    outcome: std::sync::Mutex<Option<Option<Arc<Error>>>>,
    done: std::sync::Condvar,
}

/// The group-commit coordinator: at most one *open* generation accepts riders at a
/// time; it closes the moment its leader starts the flip, so later callers lead a
/// fresh generation (flips themselves serialise on [`KvStore`]'s commit mutex).
#[derive(Debug, Default)]
struct GroupCommit {
    open: std::sync::Mutex<Option<Arc<CommitGeneration>>>,
}

/// RAII for a generation's leader: on drop it closes the generation (if still the
/// open one) and publishes `outcome`, waking every rider. The ordinary path sets
/// the real flip outcome before dropping; if the leader unwinds first — a panic
/// inside the flip, say — the drop still runs with the pre-seeded failure, so
/// riders are woken with an error instead of waiting on the condvar forever.
struct GenerationPublish<'a> {
    coordinator: &'a GroupCommit,
    generation: &'a Arc<CommitGeneration>,
    outcome: Option<Arc<Error>>,
}

impl Drop for GenerationPublish<'_> {
    fn drop(&mut self) {
        let mut open = self
            .coordinator
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if open
            .as_ref()
            .is_some_and(|g| Arc::ptr_eq(g, self.generation))
        {
            // An early unwind must not leave a dead generation accepting riders.
            *open = None;
        }
        drop(open);
        *self
            .generation
            .outcome
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(self.outcome.take());
        self.generation.done.notify_all();
    }
}

/// An ordered, concurrent, crash-consistent key-value store backed by a [`LogStore`]
/// with a paged B+-tree index. See the module docs for the protocol.
#[derive(Debug)]
pub struct KvStore {
    store: Arc<LogStore>,
    tree: BTree<KvTreeStore>,
    alloc: Mutex<UserAlloc>,
    /// Serialises flips, from the cut through the release of the cut epoch's pages.
    commit: Mutex<()>,
    /// Last committed epoch.
    epoch: AtomicU64,
    counters: Arc<KvCounters>,
    /// Group-commit window (µs); 0 = per-call commit.
    group_commit_window_us: u64,
    group_commit: GroupCommit,
}

impl KvStore {
    /// Open a key-value store on a [`LogStore`] with default options: load the last
    /// committed paged index, or start empty on a fresh store. Corrupt metadata and a
    /// retired-format JSON index ([`Error::LegacyKvIndex`]) are explicit errors —
    /// never silently treated as empty.
    pub fn open(store: LogStore) -> Result<Self> {
        Self::open_with(store, KvOptions::default())
    }

    /// [`KvStore::open`] with explicit options.
    pub fn open_with(store: LogStore, opts: KvOptions) -> Result<Self> {
        Self::open_shared(Arc::new(store), opts)
    }

    fn open_shared(store: Arc<LogStore>, opts: KvOptions) -> Result<Self> {
        let slot_a = store.get(META_BASE)?;
        let slot_b = store.get(META_BASE + 1)?;
        let a = classify_slot(slot_a.as_ref());
        let b = classify_slot(slot_b.as_ref());

        // Any valid superblock wins; the newer epoch is the committed state (the other
        // slot is the previous epoch, a legacy remnant, or a victim of a mid-flip
        // crash — all fine).
        let newest = match (&a, &b) {
            (SlotState::Valid(x), SlotState::Valid(y)) => {
                Some(if x.epoch >= y.epoch { *x } else { *y })
            }
            (SlotState::Valid(x), _) => Some(*x),
            (_, SlotState::Valid(y)) => Some(*y),
            _ => None,
        };
        if let Some(sb) = newest {
            return Self::load_committed(store, sb, &opts);
        }
        match (a, b) {
            (SlotState::Legacy, _) => Err(Error::LegacyKvIndex { slot: META_BASE }),
            (SlotState::Absent, SlotState::Absent) => Self::fresh(store, &opts),
            (SlotState::Corrupt(detail), _) => Err(Error::CorruptCheckpoint(format!(
                "kv metadata slot A is corrupt and no valid superblock exists: {detail}"
            ))),
            (SlotState::Absent, SlotState::Corrupt(detail)) => Err(Error::CorruptCheckpoint(
                format!("kv metadata slot B is corrupt and no valid superblock exists: {detail}"),
            )),
            (SlotState::Absent, SlotState::Legacy) => Err(Error::LegacyKvIndex {
                slot: META_BASE + 1,
            }),
            (SlotState::Valid(_), _) | (_, SlotState::Valid(_)) => {
                unreachable!("valid superblocks handled above")
            }
        }
    }

    fn components(
        store: &Arc<LogStore>,
        opts: &KvOptions,
    ) -> Result<(BufferPool<KvTreeStore>, Arc<KvCounters>)> {
        let max_payload = lss_core::layout::max_single_payload(store.config().segment_bytes);
        let page_size = store.config().page_bytes.max(64);
        if page_size > max_payload {
            return Err(Error::InvalidConfig(format!(
                "kv tree page size {page_size} exceeds the segment payload limit {max_payload}"
            )));
        }
        let counters = Arc::new(KvCounters::default());
        let tree_store = KvTreeStore {
            store: Arc::clone(store),
            page_size,
            counters: Arc::clone(&counters),
        };
        Ok((
            BufferPool::new(tree_store, opts.pool_pages.max(8)),
            counters,
        ))
    }

    /// A store with no committed KV state at all.
    fn fresh(store: Arc<LogStore>, opts: &KvOptions) -> Result<Self> {
        let (pool, counters) = Self::components(&store, opts)?;
        Ok(Self {
            store,
            tree: BTree::open_shadow(pool, None)?,
            alloc: Mutex::new(UserAlloc::default()),
            commit: Mutex::new(()),
            epoch: AtomicU64::new(0),
            counters,
            group_commit_window_us: opts.group_commit_window_us,
            group_commit: GroupCommit::default(),
        })
    }

    /// Load the committed state a superblock describes, then sweep pages a crashed
    /// epoch may have left behind and reconstruct both free lists.
    fn load_committed(store: Arc<LogStore>, sb: Superblock, opts: &KvOptions) -> Result<Self> {
        let (pool, counters) = Self::components(&store, opts)?;
        let tree = BTree::open_shadow(pool, Some((sb.root, sb.tree_next_page, sb.len)))?;

        let Reach {
            tree: reachable_tree,
            user: referenced_user,
            keys,
        } = Reach::walk(&tree, sb.tree_next_page, sb.user_next_page)?;
        if keys != sb.len {
            return Err(Error::CorruptCheckpoint(format!(
                "kv superblock records {} keys but the committed tree holds {keys}",
                sb.len
            )));
        }

        // Reachability sweep over one snapshot of the live pages. In the tree range,
        // live pages the committed tree does not reach are leftovers of a crashed epoch
        // (or releases whose tombstone the crash lost) — delete them, and recycle the
        // ids below the watermark (ids at or above it are handed out again by the
        // watermark itself). Same for user value pages: live values the committed index
        // does not reference were superseded or newly written by an uncommitted epoch.
        // Enumerating *live* pages keeps this O(store size), never O(id-space width).
        let mut tree_free = Vec::new();
        let mut user_free = Vec::new();
        for page in store.live_page_ids() {
            if page >= TREE_BASE {
                let id = page - TREE_BASE;
                if !reachable_tree.contains(id) {
                    store.delete(page)?;
                    if id < sb.tree_next_page {
                        tree_free.push(id);
                    }
                }
            } else if page < USER_PAGE_LIMIT && !referenced_user.contains(page) {
                store.delete(page)?;
                if page < sb.user_next_page {
                    user_free.push(page);
                }
            }
        }
        // In id order, as two sweeps of id-ordered snapshots left them, so ids are
        // reused in the same order as before.
        tree_free.sort_unstable();
        user_free.sort_unstable();
        tree.seed_free_list(tree_free);

        Ok(Self {
            store,
            tree,
            alloc: Mutex::new(UserAlloc {
                next: sb.user_next_page,
                free: user_free,
                freed_epoch: Vec::new(),
            }),
            commit: Mutex::new(()),
            epoch: AtomicU64::new(sb.epoch),
            counters,
            group_commit_window_us: opts.group_commit_window_us,
            group_commit: GroupCommit::default(),
        })
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.tree.len() as usize
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Insert or overwrite a key.
    ///
    /// The value is written to a freshly allocated user page *before* the index is
    /// updated (outside the tree latch, on the store's concurrent write streams); an
    /// overwritten key's old page is queued for release at the next commit — never
    /// touched in place, which is what keeps crashes on the last committed state.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        if key.len() + 8 > self.tree.max_entry_size() {
            return Err(Error::PageTooLarge {
                page: 0,
                size: key.len() + 8,
                max: self.tree.max_entry_size(),
            });
        }
        let page = {
            let mut alloc = self.alloc.lock();
            match alloc.free.pop() {
                Some(id) => id,
                None => {
                    if alloc.next >= USER_PAGE_LIMIT {
                        // The capacity/overlap guard: user values must never cross
                        // into the reserved metadata range.
                        return Err(Error::PageRangeExhausted {
                            next: alloc.next,
                            limit: USER_PAGE_LIMIT,
                        });
                    }
                    let id = alloc.next;
                    alloc.next += 1;
                    id
                }
            }
        };
        if let Err(e) = self.store.put(page, value) {
            self.alloc.lock().free.push(page);
            return Err(e);
        }
        self.counters
            .value_pages_written
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .value_bytes_written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        match self.tree.insert_returning(key, &page.to_le_bytes()) {
            Ok(Some(old)) => {
                let old_page = decode_user_page(&old)?;
                self.alloc.lock().freed_epoch.push(old_page);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => {
                // The value page is durable-but-unreferenced; release it with the
                // epoch (or, if we crash first, the reopen sweep reclaims it).
                self.alloc.lock().freed_epoch.push(page);
                Err(e)
            }
        }
    }

    /// Read a key. Latch-free: the value page is read inside the lookup's optimistic
    /// window ([`BTree::get_map`]), and the leaf is re-validated after the read. A
    /// value page is superseded only by a mutation that rewrites the leaf mapping it,
    /// and released only after that, so a validated value never raced its release.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let got = self
            .tree
            .get_map(key, |v| self.store.get(decode_user_page(v)?))?;
        Ok(got.flatten())
    }

    /// Delete a key. Returns true if it existed. The old value page is released at
    /// the next commit.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        self.counters.deletes.fetch_add(1, Ordering::Relaxed);
        match self.tree.delete_returning(key)? {
            Some(old) => {
                let old_page = decode_user_page(&old)?;
                self.alloc.lock().freed_epoch.push(old_page);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Iterate keys in `[start, end)` in order, reading each value. Validated like
    /// [`KvStore::get`], per leaf ([`BTree::scan_map`]): the scan is atomic per leaf,
    /// not as a whole — every key present for the scan's whole duration is returned
    /// exactly once, and mutations racing it may land between leaves.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Bytes)>> {
        self.counters.range_scans.fetch_add(1, Ordering::Relaxed);
        self.tree.scan_map(start, end, |k, v| {
            Ok(self
                .store
                .get(decode_user_page(v)?)?
                .map(|bytes| (k.to_vec(), bytes)))
        })
    }

    /// Commit the current epoch: the durability point.
    ///
    /// A short cut under the epoch latch — dirty index pages written back, the epoch
    /// ended — then two barriers beside live writers — the cut pages, then the
    /// superblock flip — then the superseded pages of the cut epoch are released. See
    /// the module docs; a crash at any point leaves the last committed epoch intact.
    /// Mutations that return after the cut are in the next epoch, not this one.
    ///
    /// With a non-zero `group_commit_window_us`, concurrent callers batch into one
    /// flip (see the module's *Group commit* section); every caller returns only once
    /// a superblock covering its mutations is durable.
    pub fn flush(&self) -> Result<()> {
        self.flush_with(|| ())
    }

    /// [`KvStore::flush`] with a hook that runs exactly once, at the last moment a
    /// mutation is still guaranteed to be covered by the flip this call returns from:
    /// everything that completed before `at_close` ran is in the committed epoch.
    ///
    /// The hook runs when this call's generation closes if the call leads it (after
    /// the group-commit window, strictly before the flip's checkpoint begins), on
    /// joining if it rides another caller's generation (which closes later), and at
    /// once when the window is 0. It runs on the calling thread, outside every lock
    /// of this layer. A caller that acknowledges work *others* did — the server's
    /// committer — cuts its list of waiters here: cut any later and a waiter whose
    /// mutation missed the checkpoint would be acknowledged by a flip that does not
    /// contain it.
    pub fn flush_with(&self, at_close: impl FnOnce()) -> Result<()> {
        self.counters.flush_calls.fetch_add(1, Ordering::Relaxed);
        if self.group_commit_window_us == 0 {
            at_close();
            return self.flip();
        }
        let (generation, leader) = {
            let mut open = self
                .group_commit
                .open
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match &*open {
                Some(g) => (Arc::clone(g), false),
                None => {
                    let g = Arc::new(CommitGeneration::default());
                    *open = Some(Arc::clone(&g));
                    (g, true)
                }
            }
        };
        if !leader {
            // Rider: the leader's flip covers our mutations (they completed before
            // this call; the generation closes before the flip's checkpoint).
            at_close();
            self.counters
                .group_commit_riders
                .fetch_add(1, Ordering::Relaxed);
            let mut outcome = generation.outcome.lock().unwrap_or_else(|e| e.into_inner());
            while outcome.is_none() {
                outcome = generation
                    .done
                    .wait(outcome)
                    .unwrap_or_else(|e| e.into_inner());
            }
            return match outcome.as_ref().expect("loop exits only when published") {
                None => Ok(()),
                Some(shared) => Err(Error::GroupCommitFailed(Arc::clone(shared))),
            };
        }
        // Leader: wait out the window so concurrent callers can join, close the
        // generation (later callers lead the next one), flip once, publish. The
        // guard publishes on every exit — including an unwind out of the flip — so
        // a dying leader can never strand its riders in the condvar wait.
        let mut publish = GenerationPublish {
            coordinator: &self.group_commit,
            generation: &generation,
            outcome: Some(Arc::new(Error::Io(std::io::Error::other(
                "group-commit leader terminated before publishing an outcome",
            )))),
        };
        std::thread::sleep(std::time::Duration::from_micros(
            self.group_commit_window_us,
        ));
        *self
            .group_commit
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        at_close();
        match self.flip() {
            Ok(()) => {
                publish.outcome = None;
                drop(publish);
                Ok(())
            }
            Err(e) => {
                // One shared source for the whole generation: the leader returns
                // the same variant its riders see.
                let shared = Arc::new(e);
                publish.outcome = Some(Arc::clone(&shared));
                drop(publish);
                Err(Error::GroupCommitFailed(shared))
            }
        }
    }

    /// One superblock flip (the body of a commit; see [`KvStore::flush`]), timed.
    /// Flips serialise on the commit mutex, held from the cut through the release.
    fn flip(&self) -> Result<()> {
        let _serial = self.commit.lock();
        let started = Instant::now();
        let flipped = self.cut_and_commit();
        add_micros(&self.counters.commit_us, started);
        flipped
    }

    /// The cut under the epoch latch, then both barriers and the release beside live
    /// writers. Caller holds the commit mutex.
    fn cut_and_commit(&self) -> Result<()> {
        let mut ck = self.tree.begin_checkpoint();
        let latched = Instant::now();
        ck.write_back()?;
        // Take the user pages this epoch superseded *while the latch is held*: every
        // entry was pushed by a mutation that completed before the cut, so the cut
        // tree provably does not reference it. A mutation that slips in once the
        // latch drops frees a page the cut tree may still map — that entry lands
        // after this take() and waits for the next epoch.
        let (user_next, freed_user) = {
            let mut alloc = self.alloc.lock();
            (alloc.next, std::mem::take(&mut alloc.freed_epoch))
        };
        let cut = ck.cut();
        add_micros(&self.counters.commit_latch_us, latched);

        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let sb = Superblock {
            epoch,
            root: cut.root(),
            tree_next_page: cut.next_page_id(),
            user_next_page: user_next,
            len: cut.len(),
        };
        let durable = self
            .store
            .flush() // barrier 1: the cut tree pages + values durable
            .and_then(|()| self.store.put(superblock_slot(epoch), &sb.encode()))
            .and_then(|()| self.store.flush()); // barrier 2: the cut epoch is committed
        if let Err(e) = durable {
            // The committed index still maps every superseded page: release nothing.
            // The tree's ids go back as `cut` drops, the user pages here; the next
            // flip's root still references the cut pages, and its barrier 1
            // persists them.
            self.alloc.lock().freed_epoch.extend(freed_user);
            return Err(e);
        }
        self.epoch.store(epoch, Ordering::Relaxed);
        self.counters
            .superblock_commits
            .fetch_add(1, Ordering::Relaxed);

        // Post-commit: release the superseded pages (no longer referenced by the
        // committed index, hence unreachable by any reader), and only *then* recycle
        // their ids — recycling first would let a concurrent writer re-allocate an id
        // whose lagging release then tombstones the new page.
        let freed_tree = cut.commit();
        for &id in &freed_tree {
            self.store.delete(TREE_BASE + id)?;
        }
        self.tree.seed_free_list(freed_tree);
        for &id in &freed_user {
            self.store.delete(id)?;
        }
        self.alloc.lock().free.extend(freed_user);
        Ok(())
    }

    /// Operational statistics of the KV layer, including the index buffer pool's
    /// hit-rate gauges.
    pub fn stats(&self) -> KvStats {
        self.counters.snapshot(
            self.tree.pool_stats(),
            self.epoch.load(Ordering::Relaxed),
            self.tree.len(),
            self.tree.stats(),
        )
    }

    /// Buffer-pool statistics for the index pages.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.tree.pool_stats()
    }

    /// Access the underlying page store (e.g. for statistics).
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// Consume the wrapper and return the underlying page store.
    ///
    /// Uncommitted state (anything since the last [`KvStore::flush`]) is discarded
    /// exactly as a crash would discard it.
    pub fn into_inner(self) -> LogStore {
        let KvStore { store, tree, .. } = self;
        drop(tree);
        Arc::try_unwrap(store).unwrap_or_else(|_| unreachable!("KvStore never leaks store handles"))
    }

    /// Test hook: force the user-page allocation watermark (regression tests for the
    /// reserved-range capacity guard).
    #[doc(hidden)]
    pub fn set_next_user_page_for_tests(&self, next: PageId) {
        self.alloc.lock().next = next;
    }

    /// Test hook: the ids on the tree's or the user allocator's free list that the
    /// live index reaches, or that the lists hold twice (tree ids as `TREE_BASE + id`).
    /// Empty on a sound store; call it while no flip runs.
    #[doc(hidden)]
    pub fn misfiled_free_ids_for_tests(&self) -> Result<Vec<PageId>> {
        let user_next = self.alloc.lock().next;
        let reach = Reach::walk(&self.tree, self.tree.next_page_id(), user_next)?;
        let mut listed = FxHashSet::default();
        let mut misfiled = Vec::new();
        for id in self.tree.free_ids() {
            if reach.tree.contains(id) || !listed.insert(TREE_BASE + id) {
                misfiled.push(TREE_BASE + id);
            }
        }
        let user_free = self.alloc.lock().free.clone();
        for id in user_free {
            if reach.user.contains(id) || !listed.insert(id) {
                misfiled.push(id);
            }
        }
        Ok(misfiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use lss_core::policy::PolicyKind;
    use lss_core::util::FxHashMap;
    use lss_core::StoreConfig;

    fn config() -> StoreConfig {
        let mut c = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
        c.num_segments = 128;
        c
    }

    fn kv() -> KvStore {
        KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap()
    }

    /// Flush, drop, recover the log store from its device and reopen the KV store —
    /// a clean restart.
    fn restart(kv: KvStore) -> KvStore {
        reopen(kv.into_inner())
    }

    /// Recover a log store from its device and open the KV store on it.
    fn reopen(store: LogStore) -> KvStore {
        let cfg = store.config().clone();
        let device = store.into_device();
        let recovered = LogStore::recover_with_device(cfg, device).unwrap();
        KvStore::open(recovered).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let kv = kv();
        assert!(kv.is_empty());
        kv.put(b"alpha", b"1").unwrap();
        kv.put(b"beta", b"2").unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get(b"alpha").unwrap().unwrap().as_ref(), b"1");
        assert!(kv.get(b"gamma").unwrap().is_none());
        assert!(kv.delete(b"alpha").unwrap());
        assert!(!kv.delete(b"alpha").unwrap());
        assert!(kv.get(b"alpha").unwrap().is_none());
    }

    #[test]
    fn overwrite_updates_value_not_key_count() {
        let kv = kv();
        kv.put(b"k", b"v1").unwrap();
        kv.put(b"k", b"v2").unwrap();
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.get(b"k").unwrap().unwrap().as_ref(), b"v2");
    }

    #[test]
    fn range_scan_is_ordered_and_half_open() {
        let kv = kv();
        for k in ["a", "b", "c", "d", "e"] {
            kv.put(k.as_bytes(), k.to_uppercase().as_bytes()).unwrap();
        }
        let out = kv.range(b"b", b"e").unwrap();
        let keys: Vec<&[u8]> = out.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(
            keys,
            vec![b"b".as_slice(), b"c".as_slice(), b"d".as_slice()]
        );
        assert_eq!(out[0].1.as_ref(), b"B");
    }

    #[test]
    fn flush_and_reopen_preserves_contents() {
        let kv = kv();
        for i in 0..300u32 {
            kv.put(
                format!("key-{i:04}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        kv.delete(b"key-0007").unwrap();
        kv.flush().unwrap();
        assert!(
            kv.stats().index_write_amplification() > 0.0,
            "index writes must be accounted"
        );

        let kv2 = restart(kv);
        // The reopen walk read every index page through the pool and installed none.
        assert_eq!(kv2.tree.pool().cached_pages(), 0);
        assert_eq!(kv2.len(), 299);
        assert!(kv2.get(b"key-0007").unwrap().is_none());
        assert_eq!(
            kv2.get(b"key-0123").unwrap().unwrap().as_ref(),
            b"value-123"
        );
        // New writes keep working after reopen.
        kv2.put(b"key-new", b"fresh").unwrap();
        assert_eq!(kv2.get(b"key-new").unwrap().unwrap().as_ref(), b"fresh");
        kv2.flush().unwrap();
        let kv3 = restart(kv2);
        assert_eq!(kv3.len(), 300);
    }

    #[test]
    fn reopen_of_never_flushed_store_is_empty() {
        let store = LogStore::open_in_memory(config()).unwrap();
        let kv = KvStore::open(store).unwrap();
        kv.put(b"never", b"flushed").unwrap();
        let kv = restart(kv);
        assert!(kv.is_empty());
    }

    #[test]
    fn persistence_path_is_binary_not_json() {
        // The superblock a flush writes must be the binary format — not JSON —
        // and must decode as such.
        let kv = kv();
        kv.put(b"k", b"v").unwrap();
        kv.flush().unwrap();
        let epoch = kv.stats().epoch;
        let slot = kv.store().get(superblock_slot(epoch)).unwrap().unwrap();
        let sb = Superblock::decode(&slot).expect("superblock must be binary");
        assert_eq!(sb.epoch, epoch);
        assert_eq!(sb.len, 1);
        assert_ne!(slot.first(), Some(&b'{'), "persistence path wrote JSON");
    }

    #[test]
    fn alternating_superblock_slots_are_used() {
        let kv = kv();
        kv.put(b"a", b"1").unwrap();
        kv.flush().unwrap(); // epoch 1 → slot B
        kv.put(b"b", b"2").unwrap();
        kv.flush().unwrap(); // epoch 2 → slot A
        let a = Superblock::decode(&kv.store().get(META_BASE).unwrap().unwrap()).unwrap();
        let b = Superblock::decode(&kv.store().get(META_BASE + 1).unwrap().unwrap()).unwrap();
        assert_eq!(a.epoch, 2);
        assert_eq!(b.epoch, 1);
    }

    #[test]
    fn user_page_allocation_guard_rejects_reserved_range() {
        let kv = kv();
        kv.set_next_user_page_for_tests(USER_PAGE_LIMIT - 1);
        // The last id below the limit still works…
        kv.put(b"edge", b"fits").unwrap();
        // …and the next allocation must be refused, not silently collide with
        // META_BASE (which would overwrite the superblock slot).
        let err = kv.put(b"overflow", b"nope").unwrap_err();
        assert!(
            matches!(err, Error::PageRangeExhausted { next, limit }
                if next == USER_PAGE_LIMIT && limit == USER_PAGE_LIMIT),
            "got {err}"
        );
        // The reserved slots were not clobbered: a flush + reopen still works.
        kv.flush().unwrap();
        let kv = restart(kv);
        assert_eq!(kv.get(b"edge").unwrap().unwrap().as_ref(), b"fits");
        assert!(kv.get(b"overflow").unwrap().is_none());
    }

    #[test]
    fn corrupt_metadata_is_an_explicit_error_not_an_empty_store() {
        let store = LogStore::open_in_memory(config()).unwrap();
        store
            .put(META_BASE, b"\x42 definitely not metadata")
            .unwrap();
        store.flush().unwrap();
        let err = KvStore::open(store).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "got {err}");
        assert!(err.to_string().contains("slot A"), "got {err}");
    }

    /// The reopen sweep keeps what the committed tree reaches in bitmaps below the
    /// superblock's watermarks. A superblock whose watermark lies below a page its tree
    /// reaches is corrupt — the allocator would hand that page out again — and reopening
    /// it is an explicit error.
    #[test]
    fn a_watermark_below_a_reachable_page_is_an_explicit_error() {
        let committed = || {
            let kv = kv();
            for i in 0..600u32 {
                kv.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
            }
            kv.flush().unwrap();
            let slot = superblock_slot(kv.stats().epoch);
            let store = kv.into_inner();
            let sb = Superblock::decode(&store.get(slot).unwrap().unwrap()).unwrap();
            (store, slot, sb)
        };
        let (_, _, sb) = committed();
        for bad in [
            Superblock {
                user_next_page: 10,
                ..sb
            },
            Superblock {
                tree_next_page: sb.root + 1,
                ..sb
            },
        ] {
            assert!(bad.tree_next_page < sb.tree_next_page || bad.user_next_page < 600);
            let (store, slot, _) = committed();
            store.put(slot, &bad.encode()).unwrap();
            store.flush().unwrap();
            let cfg = store.config().clone();
            let recovered = LogStore::recover_with_device(cfg, store.into_device()).unwrap();
            let err = KvStore::open(recovered).unwrap_err();
            assert!(
                matches!(&err, Error::CorruptCheckpoint(m) if m.contains("watermark")),
                "{bad:?}: got {err}"
            );
        }
    }

    #[test]
    fn a_legacy_json_slot_is_refused_and_nothing_is_written() {
        for slot in [META_BASE, META_BASE + 1] {
            let store = LogStore::open_in_memory(config()).unwrap();
            store
                .put(slot, b"{\"chunks\":1,\"entries\":[],\"next_page\":0}")
                .unwrap();
            store.flush().unwrap();
            let written = store.stats().user_pages_written;
            // A failed `open` drops the store it was given; keep a second handle to
            // read the counters afterwards.
            let store = Arc::new(store);
            let err = KvStore::open_shared(Arc::clone(&store), KvOptions::default()).unwrap_err();
            assert!(
                matches!(err, Error::LegacyKvIndex { slot: s } if s == slot),
                "slot {slot}: got {err}"
            );
            assert_eq!(store.stats().user_pages_written, written);
        }
    }

    #[test]
    fn heavy_churn_with_cleaning_survives_restart() {
        // Overwrite far more than the device could hold without cleaning: CoW value
        // pages + CoW index pages + periodic commits must all stay consistent while
        // the cleaner relocates them. Index pages cost only their encoded bytes, so it
        // takes 800 keys to make the cleaner run (~20 cycles; at 400 it never runs).
        let kv = kv();
        let keys = 800u32;
        for round in 0..12u32 {
            for i in 0..keys {
                kv.put(
                    format!("k{i:05}").as_bytes(),
                    format!("r{round}-{i}").as_bytes(),
                )
                .unwrap();
            }
            kv.flush().unwrap();
        }
        assert!(
            kv.store().stats().cleaning_cycles > 0,
            "workload too small to exercise the cleaner"
        );
        let kv = restart(kv);
        assert_eq!(kv.len() as u32, keys);
        for i in (0..keys).step_by(37) {
            assert_eq!(
                kv.get(format!("k{i:05}").as_bytes())
                    .unwrap()
                    .unwrap()
                    .as_ref(),
                format!("r11-{i}").as_bytes()
            );
        }
    }

    /// Deterministic splitmix64 for the seeded runs below.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// The committed index's shape: reachable tree pages and root-to-leaf levels.
    fn tree_shape(kv: &KvStore) -> (usize, usize) {
        let (mut pages, mut root, mut first_child) = (0, None, FxHashMap::default());
        kv.tree
            .walk(|id, _, page| {
                pages += 1;
                root.get_or_insert(id); // pre-order: the root comes first
                if let Node::Internal { children, .. } = Node::decode(page)? {
                    first_child.insert(id, children[0]);
                }
                Ok(())
            })
            .unwrap();
        let (mut depth, mut at) = (1, root.unwrap());
        while let Some(&child) = first_child.get(&at) {
            depth += 1;
            at = child;
        }
        (pages, depth)
    }

    /// Every index page in the log store, as stored.
    fn stored_index_pages(store: &LogStore) -> Vec<(PageId, Bytes)> {
        store
            .live_page_ids()
            .into_iter()
            .filter(|&p| p >= TREE_BASE)
            .filter_map(|p| Some((p, store.get(p).unwrap()?)))
            .collect()
    }

    /// An ascending preload — as `kv-mixed`'s, it leaves every leaf about half full —
    /// then seeded overwrites, inserts and deletes, committing every 500 operations.
    fn seeded_single_thread_run() -> KvStore {
        let mut cfg = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
        cfg.segment_bytes = 64 * 1024;
        cfg.page_bytes = 4096;
        cfg.num_segments = 128;
        let opts = KvOptions {
            pool_pages: 16,
            ..KvOptions::default()
        };
        let kv = KvStore::open_with(LogStore::open_in_memory(cfg).unwrap(), opts).unwrap();
        let key = |i: u64| format!("user{i:010}").into_bytes();
        for i in 0..20_000 {
            kv.put(&key(i), b"preloaded").unwrap();
        }
        kv.flush().unwrap();
        let mut rng = Rng(7);
        for op in 1..=6_000u64 {
            let i = rng.below(30_000);
            if rng.below(10) == 0 {
                kv.delete(&key(i)).unwrap();
            } else {
                kv.put(&key(i), format!("op{op}").as_bytes()).unwrap();
            }
            if op % 500 == 0 {
                kv.flush().unwrap();
            }
        }
        kv
    }

    /// Index pages carry only their bytes, leaves split past half the page, and a leaf
    /// an epoch touches is stored as a delta against its committed base: every page the
    /// tree stores is exactly its encoded length, a third of the index pages are
    /// deltas, and the run writes 0.59 of the index bytes it wrote when every touched
    /// leaf was stored whole.
    #[test]
    fn index_pages_are_stored_at_their_encoded_length_and_the_tree_keeps_its_shape() {
        let kv = seeded_single_thread_run();
        let stats = kv.stats();
        let page_size = kv.store().config().page_bytes as u64;
        // Recorded when leaves began to be stored as deltas: 5 602 pages and 6.46 MB
        // before (a relocated page's frame now leaves the pool at once, so the pool
        // evicts less). The tree's shape follows the split rule, not the storage.
        assert_eq!(stats.index_pages_written, 5173);
        assert_eq!(stats.index_delta_pages_written, 1958);
        assert_eq!(stats.superblock_commits, 13);
        assert_eq!(tree_shape(&kv), (539, 3));
        for (id, page) in stored_index_pages(kv.store()) {
            let encoded = crate::node::encoded_len(&page).unwrap();
            assert_eq!(page.len(), encoded, "index page {id:#x} carries a tail");
        }
        // ~0.18 of the pages' worth (~0.28 with every touched leaf stored whole): leaves
        // average about a quarter page, and a delta a few dozen bytes.
        assert!(
            (stats.index_bytes_written as f64)
                < 0.22 * (stats.index_pages_written * page_size) as f64,
            "{} bytes in {} index pages of {page_size}",
            stats.index_bytes_written,
            stats.index_pages_written
        );
        assert!(stats.index_delta_bytes_written < stats.index_bytes_written / 20);
    }

    /// A device whose index pages are padded to the page size — as every older build
    /// stored them — reopens, reads and mutates correctly; each page an edit rewrites
    /// is stored bare, the rest stay as they were.
    #[test]
    fn a_store_of_padded_index_pages_reopens_reads_and_mutates() {
        let check = |kv: &KvStore, model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>| {
            assert_eq!(kv.len(), model.len());
            let all = kv.range(b"", b"\xff").unwrap().into_iter();
            assert!(all.map(|(k, v)| (k, v.to_vec())).eq(model.clone()));
        };
        let kv = kv();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..600u32 {
            let (k, v) = (format!("k{i:05}"), format!("v{i}"));
            kv.put(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k.into_bytes(), v.into_bytes());
        }
        kv.flush().unwrap();
        let store = kv.into_inner();
        let page_size = store.config().page_bytes;
        for (id, page) in stored_index_pages(&store) {
            let mut padded = page.to_vec();
            padded.resize(page_size, 0);
            store.put(id, &padded).unwrap();
        }
        store.flush().unwrap();

        let kv = reopen(store);
        check(&kv, &model);
        for i in 0..900u32 {
            let k = format!("k{:05}", i * 7 % 1_200).into_bytes();
            if i % 5 == 0 {
                assert_eq!(kv.delete(&k).unwrap(), model.remove(&k).is_some());
            } else {
                let v = format!("w{i}").into_bytes();
                kv.put(&k, &v).unwrap();
                model.insert(k, v);
            }
        }
        kv.flush().unwrap();
        check(&kv, &model);
        let mut bare = 0;
        for (id, page) in stored_index_pages(kv.store()) {
            let encoded = Node::decode(&page).unwrap().encoded_size();
            assert!(
                page.len() == encoded || page.len() == page_size,
                "page {id:#x}"
            );
            bare += (page.len() == encoded) as usize;
        }
        assert!(bare > 0, "no edit rewrote a padded page");
        check(&restart(kv), &model);
    }

    /// The tree's delta leaves and the bases they name, with each base's stored image.
    fn stored_bases(kv: &KvStore) -> Vec<(u64, Bytes)> {
        let mut bases = Vec::new();
        kv.tree
            .walk(|_, base, _| {
                bases.extend(base);
                Ok(())
            })
            .unwrap();
        let image = |id| {
            kv.store()
                .get(TREE_BASE + id)
                .unwrap()
                .expect("a base is stored")
        };
        bases.into_iter().map(|id| (id, image(id))).collect()
    }

    /// A crash after an epoch's leaf deltas reached the store — written back and
    /// flushed, barrier 1 of a flip — but before its superblock flip: the store reopens
    /// to the previous commit, every base a committed delta names is intact, including
    /// those the crashed epoch had queued for release when it consolidated their
    /// leaves, and the reopened index takes new deltas and commits.
    #[test]
    fn a_crash_between_an_epochs_deltas_and_its_flip_keeps_every_committed_base() {
        let check = |kv: &KvStore, model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>| {
            assert_eq!(kv.len(), model.len());
            let all = kv.range(b"", b"\xff").unwrap().into_iter();
            assert!(all.map(|(k, v)| (k, v.to_vec())).eq(model.clone()));
        };
        let key = |i: u32| format!("k{i:05}").into_bytes();
        let kv = kv();
        let mut model = std::collections::BTreeMap::new();
        let mut put = |kv: &KvStore, i: u32, v: String| {
            kv.put(&key(i), v.as_bytes()).unwrap();
            model.insert(key(i), v.into_bytes());
        };
        // Epoch 1 writes whole leaves; epoch 2 one entry of every seventh key, so most
        // leaves it touches are stored as deltas against epoch 1's.
        for i in 0..600 {
            put(&kv, i, format!("e1-{i}"));
        }
        kv.flush().unwrap();
        for i in (0..600).step_by(7) {
            put(&kv, i, format!("e2-{i}"));
        }
        kv.flush().unwrap();
        let committed = model.clone();
        let bases = stored_bases(&kv);
        assert!(bases.len() > 20, "{} deltas committed", bases.len());

        // Epoch 3 edits every third key: deltas grow past half their leaf and
        // consolidate, queueing their bases for release. Its pages reach the store and
        // barrier 1 runs; the superblock is never written.
        for i in (0..600).step_by(3) {
            if i % 2 == 0 {
                kv.put(&key(i), format!("e3-{i}").as_bytes()).unwrap();
            } else {
                kv.delete(&key(i)).unwrap();
            }
        }
        let queued = kv.tree.freed_ids();
        let doomed = bases.iter().filter(|(id, _)| queued.contains(id)).count();
        assert!(doomed > 5, "epoch 3 consolidated {doomed} committed deltas");
        let deltas = kv.stats().index_delta_pages_written;
        kv.tree.begin_checkpoint().write_back().unwrap();
        kv.store().flush().unwrap();
        assert!(kv.stats().index_delta_pages_written > deltas);

        let kv = reopen(kv.into_inner());
        check(&kv, &committed);
        for (id, image) in &bases {
            let stored = kv.store().get(TREE_BASE + id).unwrap();
            assert_eq!(stored.as_ref(), Some(image), "base {id} changed");
        }
        assert_eq!(stored_bases(&kv), bases);
        assert!(kv.misfiled_free_ids_for_tests().unwrap().is_empty());

        // The reopened index writes deltas against the same bases and commits.
        let mut model = committed;
        let deltas = kv.stats().index_delta_pages_written;
        for i in (1..600).step_by(11) {
            kv.put(&key(i), b"after").unwrap();
            model.insert(key(i), b"after".to_vec());
        }
        kv.flush().unwrap();
        assert!(kv.stats().index_delta_pages_written > deltas);
        check(&kv, &model);
        check(&restart(kv), &model);
    }

    #[test]
    fn concurrent_puts_and_gets_through_shared_reference() {
        let kv = std::sync::Arc::new(kv());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let kv = kv.clone();
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let key = format!("t{t}-k{i:04}");
                        let val = format!("t{t}-v{i}");
                        kv.put(key.as_bytes(), val.as_bytes()).unwrap();
                        let got = kv.get(key.as_bytes()).unwrap().expect("get-after-put");
                        assert_eq!(got.as_ref(), val.as_bytes());
                    }
                });
            }
        });
        assert_eq!(kv.len(), 800);
        kv.flush().unwrap();
        assert_eq!(kv.stats().keys, 800);
    }

    #[test]
    fn a_dying_leader_publishes_failure_and_closes_its_generation() {
        // Regression: a leader that unwinds mid-flip must not strand its riders
        // on the condvar (they would otherwise wait for an outcome nobody will
        // publish) nor leave the dead generation open to accept more riders.
        let coordinator = GroupCommit::default();
        let generation = Arc::new(CommitGeneration::default());
        *coordinator.open.lock().unwrap() = Some(Arc::clone(&generation));
        std::thread::scope(|scope| {
            let rider = {
                let generation = Arc::clone(&generation);
                scope.spawn(move || {
                    let mut outcome = generation.outcome.lock().unwrap_or_else(|e| e.into_inner());
                    while outcome.is_none() {
                        outcome = generation
                            .done
                            .wait(outcome)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    outcome.clone().expect("loop exits only when published")
                })
            };
            let leader = scope.spawn(|| {
                let _publish = GenerationPublish {
                    coordinator: &coordinator,
                    generation: &generation,
                    outcome: Some(Arc::new(Error::Io(std::io::Error::other(
                        "leader died mid-flip",
                    )))),
                };
                panic!("simulated flip panic");
            });
            assert!(leader.join().is_err(), "the leader must have panicked");
            let outcome = rider.join().expect("rider must be woken, not stranded");
            let err = outcome.expect("a dying leader publishes an error, not success");
            assert!(err.to_string().contains("leader died mid-flip"));
        });
        assert!(
            coordinator
                .open
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_none(),
            "the dead generation must not keep accepting riders"
        );
    }
}
