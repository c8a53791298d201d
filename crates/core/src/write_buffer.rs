//! The sort buffer for user writes (paper §5.3 and Figure 4).
//!
//! Incoming user writes accumulate in the buffer; when it reaches the configured size
//! (measured in segments' worth of payload) the batch is sorted by the cleaning policy's
//! separation key — so pages with similar update frequency are packed into the same
//! output segments — and drained to open segments. A buffer of 0 segments disables
//! batching entirely; the paper finds 16 segments to be the knee of the curve (Figure 4).
//!
//! A buffer holds at most two batches. Writers append to the *filling* batch. A full one
//! is *frozen* — an O(1) swap that records the batch's tick — and handed to the drain,
//! which appends it to open segments while writers fill the next batch. A write never
//! absorbs into a frozen slot: it appends to the filling batch, and the index points at
//! the newest copy, so reads return it.

use crate::types::{PageId, PageWriteInfo, UpdateTick};
use crate::util::FxHashMap;
use bytes::Bytes;

/// A page write waiting in a buffer: its metadata plus (for the real store) its payload.
/// The simulator passes `data = None` since it only tracks page identities.
#[derive(Debug, Clone)]
pub struct PendingPage {
    /// Metadata describing the write.
    pub info: PageWriteInfo,
    /// Payload. `None` marks a tombstone (deletion) or a simulator-only write.
    pub data: Option<Bytes>,
}

impl PendingPage {
    /// True if this pending entry is a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.data.is_none() && self.info.size == 0
    }
}

/// Where a page's newest buffered write sits: its batch's number and its slot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    batch: u32,
    idx: u32,
}

/// The batch a drain is appending, frozen by [`WriteBuffer::freeze`].
#[derive(Debug)]
struct Frozen {
    /// The batch's writes; `None` once appended.
    pages: Vec<Option<PendingPage>>,
    /// How many slots are still buffered.
    left: usize,
    tick: UpdateTick,
}

/// Two-batch buffer of pending page writes with optional in-place absorption of
/// re-writes within the filling batch.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    /// The batch writers append to; every slot is `Some` (the type is the frozen
    /// batch's, so that freezing is a swap).
    filling: Vec<Option<PendingPage>>,
    filling_bytes: usize,
    /// Number of the filling batch; the frozen one, if any, is the number before it.
    filling_batch: u32,
    frozen: Option<Frozen>,
    /// Each buffered page's newest write. Every entry points into the filling batch or
    /// at a still-buffered slot of the frozen one.
    index: FxHashMap<PageId, Slot>,
    absorb: bool,
}

impl WriteBuffer {
    /// Create a buffer. If `absorb` is true, a second write to a page already in the
    /// filling batch replaces the buffered copy instead of adding another entry.
    pub fn new(absorb: bool) -> Self {
        Self {
            absorb,
            ..Default::default()
        }
    }

    /// Number of entries in the filling batch.
    pub fn filling_len(&self) -> usize {
        self.filling.len()
    }

    /// Payload bytes in the filling batch.
    pub fn filling_bytes(&self) -> usize {
        self.filling_bytes
    }

    /// The tick the frozen batch was frozen at, or `None` if there is no frozen batch
    /// (none was frozen, or a drain appended all of it).
    pub fn frozen_tick(&self) -> Option<UpdateTick> {
        self.frozen.as_ref().map(|f| f.tick)
    }

    /// Add a pending write to the filling batch. Returns `true` if the write was
    /// absorbed into an existing entry for the same page (only possible when absorption
    /// is enabled, and only into the filling batch).
    pub fn push(&mut self, page: PendingPage) -> bool {
        if self.absorb {
            if let Some(slot) = self.index.get(&page.info.page) {
                if slot.batch == self.filling_batch {
                    self.filling_bytes += page.info.size as usize;
                    if let Some(old) = self.filling[slot.idx as usize].replace(page) {
                        self.filling_bytes -= old.info.size as usize;
                    }
                    return true;
                }
            }
        }
        let slot = Slot {
            batch: self.filling_batch,
            idx: self.filling.len() as u32,
        };
        self.filling_bytes += page.info.size as usize;
        self.index.insert(page.info.page, slot);
        self.filling.push(Some(page));
        false
    }

    /// Most recent buffered state of a page, if any.
    pub fn get(&self, page: PageId) -> Option<&PendingPage> {
        let slot = self.index.get(&page)?;
        let batch = if slot.batch == self.filling_batch {
            &self.filling
        } else {
            &self.frozen.as_ref()?.pages
        };
        batch.get(slot.idx as usize)?.as_ref()
    }

    /// Freeze the filling batch at `tick`, unless a frozen batch is still buffered or
    /// there is nothing to freeze. Returns whether it froze.
    pub fn freeze(&mut self, tick: UpdateTick) -> bool {
        if self.frozen.is_some() || self.filling.is_empty() {
            return false;
        }
        let capacity = self.filling.capacity();
        let pages = std::mem::replace(&mut self.filling, Vec::with_capacity(capacity));
        self.frozen = Some(Frozen {
            left: pages.len(),
            pages,
            tick,
        });
        self.filling_bytes = 0;
        self.filling_batch = self.filling_batch.wrapping_add(1);
        true
    }

    /// Copy the still-buffered writes of up to `max` frozen slots, from slot `from` on,
    /// to `into` as `(slot, write)` in arrival order (payloads shared, not copied).
    /// Returns the slot to go on from, or `None` once the batch is copied. A drain
    /// copies a few dozen slots per buffer lock, so that a push waits microseconds for
    /// it; only the drain changes the frozen batch, so the pieces fit together.
    pub fn copy_frozen(
        &self,
        from: u32,
        max: usize,
        into: &mut Vec<(u32, PendingPage)>,
    ) -> Option<u32> {
        let pages = &self.frozen.as_ref()?.pages;
        let end = (from as usize + max).min(pages.len());
        into.extend(
            (from..)
                .zip(&pages[from as usize..end])
                .filter_map(|(i, p)| Some((i, p.clone()?))),
        );
        (end < pages.len()).then_some(end as u32)
    }

    /// Drop appended slots of the frozen batch (called once their pages are remapped,
    /// so reads switch from the buffer copy to the mapped copy without a gap). An index
    /// entry is removed only if it still points at the slot: a newer write of the page
    /// keeps its own. The frozen batch goes once its last slot does. Returns the writes
    /// removed, for the caller to free once it has let go of the buffer lock.
    pub fn remove_frozen(&mut self, slots: &[u32]) -> Vec<PendingPage> {
        let Some(frozen) = self.frozen.as_mut() else {
            return Vec::new();
        };
        let batch = self.filling_batch.wrapping_sub(1);
        let mut removed = Vec::with_capacity(slots.len());
        for &idx in slots {
            let Some(page) = frozen.pages[idx as usize].take() else {
                continue;
            };
            frozen.left -= 1;
            if self.index.get(&page.info.page) == Some(&Slot { batch, idx }) {
                self.index.remove(&page.info.page);
            }
            removed.push(page);
        }
        if frozen.left == 0 {
            self.frozen = None;
        }
        removed
    }
}

/// Sort a batch by the given separation key, smallest key first.
///
/// Generic over the batch item (the user write path sorts `PendingPage`s, the cleaner
/// sorts its relocation candidates) via a key-projection closure. The sort is stable so
/// items with equal keys keep their arrival order, which keeps the result deterministic.
/// Items for which the policy returns `None` (no separation) are left in place relative
/// to each other at the end of the batch.
pub fn sort_by_separation_key<T, F>(batch: &mut [T], mut key: F)
where
    F: FnMut(&T) -> Option<f64>,
{
    batch.sort_by(|a, b| {
        let ka = key(a);
        let kb = key(b);
        match (ka, kb) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WriteOrigin;

    fn pending(page: PageId, size: u32, up2: u64) -> PendingPage {
        PendingPage {
            info: PageWriteInfo {
                page,
                size,
                up2,
                exact_freq: None,
                origin: WriteOrigin::User,
            },
            data: Some(Bytes::from(vec![0u8; size as usize])),
        }
    }

    /// The frozen batch's still-buffered pages, copied two slots at a time.
    fn frozen_pages(buf: &WriteBuffer) -> Vec<PageId> {
        let mut copied = Vec::new();
        let mut from = Some(0);
        while let Some(slot) = from {
            from = buf.copy_frozen(slot, 2, &mut copied);
        }
        copied.iter().map(|(_, p)| p.info.page).collect()
    }

    #[test]
    fn freeze_hands_over_the_batch_in_arrival_order() {
        let mut buf = WriteBuffer::new(false);
        buf.push(pending(3, 10, 0));
        buf.push(pending(1, 20, 0));
        buf.push(pending(2, 30, 0));
        assert_eq!((buf.filling_len(), buf.filling_bytes()), (3, 60));
        assert!(buf.freeze(7));
        assert_eq!((buf.filling_len(), buf.filling_bytes()), (0, 0));
        assert_eq!(buf.frozen_tick(), Some(7));
        assert_eq!(frozen_pages(&buf), vec![3, 1, 2]);
        // Frozen pages keep serving reads until they are removed.
        assert_eq!(buf.get(1).unwrap().info.size, 20);
        assert_eq!(buf.remove_frozen(&[0, 1, 2]).len(), 3);
        assert!(buf.get(1).is_none());
        assert_eq!(buf.copy_frozen(0, 8, &mut Vec::new()), None);
        assert!(buf.frozen_tick().is_none());
    }

    #[test]
    fn without_absorption_rewrites_append() {
        let mut buf = WriteBuffer::new(false);
        assert!(!buf.push(pending(1, 10, 0)));
        assert!(!buf.push(pending(1, 12, 5)));
        assert_eq!(buf.filling_len(), 2);
        // get() returns the most recent version.
        assert_eq!(buf.get(1).unwrap().info.size, 12);
    }

    #[test]
    fn with_absorption_rewrites_replace() {
        let mut buf = WriteBuffer::new(true);
        assert!(!buf.push(pending(1, 10, 0)));
        assert!(buf.push(pending(1, 25, 5)));
        assert_eq!(buf.filling_len(), 1);
        assert_eq!(buf.filling_bytes(), 25);
        assert!(buf.freeze(0));
        assert_eq!(frozen_pages(&buf), vec![1]);
    }

    /// A write to a page whose older copy is frozen never absorbs into it: it appends
    /// to the filling batch, reads return it, and removing the frozen copy leaves it.
    #[test]
    fn a_write_never_absorbs_into_a_frozen_slot() {
        let mut buf = WriteBuffer::new(true);
        buf.push(pending(1, 10, 0));
        buf.push(pending(2, 10, 0));
        assert!(buf.freeze(1));
        assert!(
            !buf.push(pending(1, 30, 0)),
            "absorbed into the frozen batch"
        );
        assert!(
            buf.push(pending(1, 40, 0)),
            "the filling batch still absorbs"
        );
        assert_eq!(buf.get(1).unwrap().info.size, 40);
        // One frozen batch at a time.
        assert!(!buf.freeze(2));
        buf.remove_frozen(&[0, 1]);
        assert_eq!(buf.get(1).unwrap().info.size, 40);
        assert!(buf.get(2).is_none());
        assert!(buf.freeze(2));
        assert_eq!(frozen_pages(&buf), vec![1]);
        assert_eq!(buf.frozen_tick(), Some(2));
    }

    /// A drain that stops early leaves exactly the slots it did not append.
    #[test]
    fn partial_removal_keeps_the_rest_buffered() {
        let mut buf = WriteBuffer::new(false);
        for page in 0..5 {
            buf.push(pending(page, 8, 0));
        }
        assert!(buf.freeze(3));
        assert_eq!(buf.remove_frozen(&[3, 0]).len(), 2);
        assert!(buf.remove_frozen(&[3]).is_empty()); // removing twice is harmless
        assert_eq!(frozen_pages(&buf), vec![1, 2, 4]);
        assert!(buf.get(0).is_none() && buf.get(1).is_some());
        assert_eq!(buf.frozen_tick(), Some(3));
    }

    #[test]
    fn get_misses_for_unknown_pages() {
        let buf = WriteBuffer::new(true);
        assert!(buf.get(99).is_none());
    }

    #[test]
    fn tombstones_are_recognised() {
        let t = PendingPage {
            info: PageWriteInfo {
                page: 5,
                size: 0,
                up2: 0,
                exact_freq: None,
                origin: WriteOrigin::User,
            },
            data: None,
        };
        assert!(t.is_tombstone());
        assert!(!pending(5, 4, 0).is_tombstone());
    }

    #[test]
    fn separation_sort_orders_by_key_and_is_stable() {
        let mut batch = vec![
            pending(1, 1, 50),
            pending(2, 1, 10),
            pending(3, 1, 50),
            pending(4, 1, 30),
        ];
        sort_by_separation_key(&mut batch, |p| Some(p.info.up2 as f64));
        let order: Vec<PageId> = batch.iter().map(|p| p.info.page).collect();
        assert_eq!(order, vec![2, 4, 1, 3]); // 10, 30, 50, 50 (stable between pages 1 and 3)
    }

    #[test]
    fn separation_sort_with_no_key_keeps_order() {
        let mut batch = vec![pending(9, 1, 50), pending(8, 1, 10)];
        sort_by_separation_key(&mut batch, |_: &PendingPage| None);
        let order: Vec<PageId> = batch.iter().map(|p| p.info.page).collect();
        assert_eq!(order, vec![9, 8]);
    }

    #[test]
    fn mixed_keys_put_unkeyed_pages_last() {
        let mut batch = vec![pending(1, 1, 5), pending(2, 1, 1), pending(3, 1, 3)];
        sort_by_separation_key(&mut batch, |p| {
            if p.info.page == 1 {
                None
            } else {
                Some(p.info.up2 as f64)
            }
        });
        let order: Vec<PageId> = batch.iter().map(|p| p.info.page).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
