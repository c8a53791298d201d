//! The lock-free-ish read path: `get`/`contains` without any write-side lock.
//!
//! A read resolves a page in three steps, touching only concurrently readable state:
//!
//! 1. **Sort buffer** — the most recent unflushed user write wins. Only the page's own
//!    stream shard is consulted (writes to a page always route to the same stream), via
//!    a shared read lock held for microseconds.
//! 2. **Open segment** — if the mapped location belongs to a segment that is still being
//!    filled, the payload is served from the shared [`SegmentBuilder`] image.
//! 3. **Device** — otherwise the payload is read from the sealed image on the device.
//!
//! [`SegmentBuilder`]: crate::layout::SegmentBuilder
//!
//! ### Why device reads are safe without a write lock
//!
//! The hazard: between looking up a page's location and reading the device, the cleaner
//! could relocate the page, release its victim segment, and the slot could be reused and
//! rewritten — the read would return bytes of an unrelated new segment. The store closes
//! this hazard with a *pin-and-revalidate* protocol backed by two write-side invariants:
//!
//! * **Remap-before-release** — the cleaner remaps every live page *before* its victim
//!   segment is released. Hence, if the mapping still points a page into segment `S`,
//!   `S` has not been released.
//! * **Quarantine respects pins** — released victims enter a quarantine and only return
//!   to the free list when their reader pin count is zero (and the cycle's device sync
//!   has landed).
//!
//! The reader pins the segment **first**, then revalidates the mapping. If the mapping
//! still points at the same location, the segment was not yet released at that moment —
//! and since the pin is already visible, it cannot be reaped (hence not reused) until
//! the reader unpins. If the mapping moved on, the reader simply retries with the page's
//! new location. A bounded number of retries falls back to locking the page's write
//! stream, which holds off the drains that remap the stream's user pages and leaves only
//! GC relocations — each of which moves the page *toward* a readable location — so the
//! loop terminates.

use super::StoreCore;
use crate::error::Result;
use crate::stats::AtomicStats;
use crate::types::{PageId, PageLocation};
use bytes::Bytes;

/// How many optimistic retries before a read serialises against the page's write
/// stream. Each retry means the page was concurrently rewritten or relocated between
/// lookup and read — vanishingly rare, so the fallback is effectively never taken under
/// real workloads.
const MAX_OPTIMISTIC_RETRIES: usize = 16;

/// One attempt to serve a page from its mapped location.
enum Attempt {
    /// The payload was read (or the page does not exist).
    Done(Option<Bytes>),
    /// The page moved between lookup and read; look its location up again.
    Retry,
}

/// Resolve a page once: open-segment builder first, then pinned device read.
fn try_read_mapped(store: &StoreCore, page: PageId, loc: PageLocation) -> Result<Attempt> {
    // Open segment: serve from the shared builder image, validated under the
    // open-segment index lock. Holding the index read lock freezes seal (removal)
    // and slot-reuse (insertion) transitions, so the entry seen here is the
    // *newest* incarnation of this segment id and stays that way for the duration.
    // The mapping re-check then proves the copied bytes are the page's current
    // payload: a mapping entry equal to `loc` means the page's latest append went
    // into exactly this builder at this offset (appends register their builder in
    // the index before updating the mapping). If the re-check fails the page moved
    // between our two mapping reads — retry with its new location.
    {
        let open_index = store.open_reads().read();
        if let Some(builder) = open_index.get(&loc.segment) {
            let payload = {
                let b = builder.read();
                Bytes::copy_from_slice(b.read_payload(loc.offset, loc.len))
            };
            if store.mapping().is_current(page, &loc) {
                return Ok(Attempt::Done(Some(payload)));
            }
            return Ok(Attempt::Retry);
        }
    }

    // Sealed segment: pin, revalidate, read, unpin.
    store.pin(loc.segment);
    if !store.mapping().is_current(page, &loc) {
        // Lost a race with an overwrite or a GC relocation; retry with the new
        // location.
        store.unpin(loc.segment);
        return Ok(Attempt::Retry);
    }
    if store.open_reads().read().contains_key(&loc.segment) {
        // The slot was recycled and reopened before we pinned (its on-device image
        // is stale); the retry will serve the page from the open builder instead.
        // Once pinned, no further recycle can happen, so this check is conclusive.
        store.unpin(loc.segment);
        return Ok(Attempt::Retry);
    }
    AtomicStats::bump(&store.atomic_stats().device_page_reads);
    let result = store.device().read_range(loc.segment, loc.offset, loc.len);
    store.unpin(loc.segment);
    result.map(|bytes| Attempt::Done(Some(Bytes::from(bytes))))
}

/// Read the current version of a page (see module docs for the protocol).
pub(crate) fn get(store: &StoreCore, page: PageId) -> Result<Option<Bytes>> {
    AtomicStats::bump(&store.atomic_stats().pages_read);

    // 1. Still in the owning stream's sort buffer?
    {
        let buffer = store.stream(page).buffer.read();
        if let Some(pending) = buffer.get(page) {
            return Ok(if pending.is_tombstone() {
                None
            } else {
                pending.data.clone()
            });
        }
    }

    // 2./3. Mapped to an open or sealed segment.
    for _ in 0..MAX_OPTIMISTIC_RETRIES {
        let Some(loc) = store.mapping().get(page) else {
            return Ok(None);
        };
        match try_read_mapped(store, page, loc)? {
            Attempt::Done(result) => return Ok(result),
            Attempt::Retry => continue,
        }
    }

    // Pathological contention: hold the page's stream lock. Drains hold it too, and a
    // drain is the only thing that remaps a user write of this page (writers only
    // buffer, and every write of the page routes to this stream), so user rewrites stop
    // moving it; a write buffered meanwhile is concurrent with this read, which may
    // return either version. The page can then move at most once more per cleaning
    // cycle, and a GC relocation always lands the page either in a registered open
    // builder or in a sealed segment whose image precedes its removal from the index —
    // so each iteration either succeeds or observes one of these strictly rarer moves,
    // and the loop terminates.
    let _stream = store.stream(page).state.lock();
    loop {
        let Some(loc) = store.mapping().get(page) else {
            return Ok(None);
        };
        match try_read_mapped(store, page, loc)? {
            Attempt::Done(result) => return Ok(result),
            Attempt::Retry => std::hint::spin_loop(),
        }
    }
}

/// True if the page currently exists (buffered or stored). Same concurrency contract as
/// [`get`], without materialising the payload.
pub(crate) fn contains(store: &StoreCore, page: PageId) -> bool {
    {
        let buffer = store.stream(page).buffer.read();
        if let Some(p) = buffer.get(page) {
            return !p.is_tombstone();
        }
    }
    store.mapping().get(page).is_some()
}
