//! Per-node version latches for optimistic lock-coupling ([`VersionTable`]).
//!
//! Every tree page id hashes to one slot of a fixed power-of-two table of `AtomicU64`
//! version words. A word encodes both the lock bit and the version counter in one
//! value: **even = unlocked** (the value is the current version), **odd = locked**.
//! The three transitions are all monotonic, so a reader that observed version `v`
//! can later prove "nothing changed" by re-reading the slot and comparing:
//!
//! * `lock`: CAS `v → v + 1` (even → odd) — fails if the slot moved at all;
//! * `unlock`: `fetch_add(1)` (odd → even, one version higher than before the lock);
//! * `bump`: `fetch_add(2)` — invalidate observers without holding the lock (used
//!   for pages freed by a checkpoint commit, whose storage is about to be deleted).
//!
//! Aliasing is deliberate: two pages that hash to the same slot share a version word.
//! A writer locking one of them invalidates optimistic readers of the other — a
//! *false restart*, never a false validation, so aliasing costs throughput (bounded
//! by the table size) but not correctness. Writers only ever *try*-lock while
//! validating a previously observed version and release everything on failure, so no
//! writer blocks on a version latch while holding another — lock-order deadlocks are
//! impossible by construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of version slots (must be a power of two). 4096 words = 32 KiB; false
/// sharing between hot pages is already unlikely at a few hundred live tree pages.
const SLOTS: usize = 4096;

/// A fixed table of per-page version latches (see the module docs).
pub struct VersionTable {
    slots: Box<[AtomicU64]>,
}

impl std::fmt::Debug for VersionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionTable")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Default for VersionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionTable {
    /// Create a table with all versions at 0 (unlocked).
    pub fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The slot index a page id hashes to.
    #[inline]
    pub fn slot_of(&self, page: u64) -> usize {
        (lss_core::util::mix64(page) as usize) & (SLOTS - 1)
    }

    /// Spin until the page's slot is unlocked and return the observed (even)
    /// version. Lock holds are short (encode + pool write), so the spin yields to
    /// the scheduler after a few rounds rather than burning a single-core box.
    #[inline]
    pub fn stable(&self, page: u64) -> u64 {
        let slot = &self.slots[self.slot_of(page)];
        let mut spins = 0u32;
        loop {
            let v = slot.load(Ordering::Acquire);
            if v & 1 == 0 {
                return v;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// True if the page's slot no longer holds `seen` (locked, bumped, or relocked
    /// since) — the optimistic read is invalid and must restart.
    #[inline]
    pub fn changed(&self, page: u64, seen: u64) -> bool {
        self.slots[self.slot_of(page)].load(Ordering::Acquire) != seen
    }

    /// Try to lock a slot by CAS-ing the exact version the caller previously
    /// observed. Success means the protected pages are unchanged since that
    /// observation **and** the caller now holds the (odd) lock word.
    #[inline]
    pub fn try_lock_slot(&self, slot: usize, seen: u64) -> bool {
        debug_assert_eq!(seen & 1, 0, "cannot lock at an odd (locked) version");
        self.slots[slot]
            .compare_exchange(seen, seen + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Release a slot locked by [`VersionTable::try_lock_slot`]: the version advances
    /// past every value optimistic readers could have observed before the lock.
    #[inline]
    pub fn unlock_slot(&self, slot: usize) {
        let prev = self.slots[slot].fetch_add(1, Ordering::Release);
        debug_assert_eq!(prev & 1, 1, "unlocking a slot that was not locked");
    }

    /// Invalidate optimistic observers of a page without locking (e.g. a checkpoint
    /// commit about to delete the page's storage). Keeps lock-state parity intact.
    #[inline]
    pub fn bump(&self, page: u64) {
        self.slots[self.slot_of(page)].fetch_add(2, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_advances_the_version() {
        let t = VersionTable::new();
        let v0 = t.stable(7);
        let slot = t.slot_of(7);
        assert!(t.try_lock_slot(slot, v0));
        // Locked: a second lock attempt at any even version must fail.
        assert!(!t.try_lock_slot(slot, v0));
        assert!(t.changed(7, v0));
        t.unlock_slot(slot);
        let v1 = t.stable(7);
        assert_eq!(v1, v0 + 2, "unlock must land one version past the lock");
        assert!(t.changed(7, v0));
        assert!(!t.changed(7, v1));
    }

    #[test]
    fn bump_invalidates_without_locking() {
        let t = VersionTable::new();
        let v0 = t.stable(42);
        t.bump(42);
        assert!(t.changed(42, v0));
        let v1 = t.stable(42);
        assert_eq!(v1, v0 + 2);
        // Still lockable afterwards.
        assert!(t.try_lock_slot(t.slot_of(42), v1));
        t.unlock_slot(t.slot_of(42));
    }

    #[test]
    fn stable_waits_out_a_held_lock() {
        let t = std::sync::Arc::new(VersionTable::new());
        let slot = t.slot_of(9);
        let v0 = t.stable(9);
        assert!(t.try_lock_slot(slot, v0));
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.stable(9));
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.unlock_slot(slot);
        assert_eq!(h.join().unwrap(), v0 + 2);
    }
}
