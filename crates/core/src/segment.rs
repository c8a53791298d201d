//! In-memory bookkeeping for segments: the quantities the cleaning analysis needs
//! (`A`, `C`, `up2`, seal sequence) and the free/open/sealed life-cycle.
//!
//! The store mutates the table from one mutator at a time (every drain, cleaning cycle,
//! seal and sync point runs under its write-behind job lock), so a victim needs no claim
//! while a cycle relocates it, and the reclamation quarantine is one list of released
//! victims: a sync marks all of them synced, and a reap frees the unpinned ones.

use crate::freq::{SegmentFreq, Up2Mode, TEMPERATURE_UNCLASSIFIED};
use crate::policy::SegmentStats;
use crate::types::{SealSeq, SegmentId, UpdateTick};

/// Metadata for a segment that currently contains data (open or sealed).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Which segment this is.
    pub id: SegmentId,
    /// `B`: payload capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes of live page payloads currently in the segment.
    pub live_bytes: u64,
    /// `C`: number of live pages.
    pub live_pages: u64,
    /// Update-recency tracker providing `up2`.
    pub freq: SegmentFreq,
    /// Seal sequence (0 while still open; assigned at seal time, from a reservation made
    /// at the segment's first persist point if it had one).
    pub seal_seq: SealSeq,
    /// Update tick at which the segment was sealed (0 while open).
    pub sealed_at: UpdateTick,
    /// Output log the segment belongs to.
    pub log_id: u16,
    /// Temperature class of the segment's contents: set when a cleaning cycle fills a
    /// GC output segment with survivors of one class (`0` = coldest), and
    /// [`crate::freq::TEMPERATURE_UNCLASSIFIED`] for user-filled segments. **In-memory
    /// only** — the tag is a routing hint, not data: it is not persisted in the segment
    /// footer or checkpoints, so after recovery every segment restarts unclassified
    /// (treated as hot) and the tags re-form within one cleaning pass.
    pub temperature: u16,
    /// Sum of exact per-page update frequencies of the live pages, when known.
    pub exact_upf_sum: f64,
    /// Whether `exact_upf_sum` is meaningful (any exact frequency was ever supplied).
    pub has_exact_upf: bool,
    /// Bytes of `live_bytes` that are tombstone entries rather than page payloads.
    ///
    /// A tombstone is a delete fact the cleaner must preserve (re-emit) until it is
    /// provably redundant, so its entry-table footprint is charged against the segment
    /// as live space — otherwise a segment full of tombstones ranks as a perfectly
    /// empty victim and cleaning would relocate the same delete records forever at zero
    /// net reclaim. The charge is lifted wholesale once a checkpoint commit covers the
    /// segment's seal sequence (see [`SegmentTable::uncharge_covered_tombstones`]): from
    /// that point the delete facts are durable in the checkpoint journal and the
    /// cleaner is allowed to drop them.
    pub tombstone_bytes: u64,
}

impl SegmentMeta {
    /// Create metadata for a newly opened segment.
    pub fn new_open(id: SegmentId, capacity_bytes: u64, log_id: u16, up2_mode: Up2Mode) -> Self {
        Self {
            id,
            capacity_bytes,
            live_bytes: 0,
            live_pages: 0,
            freq: SegmentFreq::new(up2_mode, 0, 0),
            seal_seq: 0,
            sealed_at: 0,
            log_id,
            temperature: TEMPERATURE_UNCLASSIFIED,
            exact_upf_sum: 0.0,
            has_exact_upf: false,
            tombstone_bytes: 0,
        }
    }

    /// `A`: reclaimable bytes (capacity not occupied by live pages).
    #[inline]
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.live_bytes)
    }

    /// `E = A / B`.
    #[inline]
    pub fn emptiness(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            self.free_bytes() as f64 / self.capacity_bytes as f64
        }
    }

    /// Record that a live page of `size` bytes was added (the segment is being filled).
    pub fn on_page_added(&mut self, size: u32, exact_freq: Option<f64>) {
        self.live_bytes += size as u64;
        self.live_pages += 1;
        if let Some(f) = exact_freq {
            self.exact_upf_sum += f;
            self.has_exact_upf = true;
        }
    }

    /// Record that a tombstone entry was appended to the segment: its entry-table
    /// footprint is charged as live space (but not as a live page — the relocation
    /// cost `C` the policies reason about stays page-based).
    pub fn on_tombstone_added(&mut self) {
        self.live_bytes += crate::layout::ENTRY_SIZE as u64;
        self.tombstone_bytes += crate::layout::ENTRY_SIZE as u64;
    }

    /// Lift the tombstone charge: the delete facts in this segment are durable
    /// elsewhere (checkpointed), so their space is reclaimable again.
    pub fn uncharge_tombstones(&mut self) {
        self.live_bytes = self.live_bytes.saturating_sub(self.tombstone_bytes);
        self.tombstone_bytes = 0;
    }

    /// Record that a live page of `size` bytes was superseded (overwritten elsewhere or
    /// deleted) at update tick `unow`.
    pub fn on_page_dead(&mut self, size: u32, unow: UpdateTick, exact_freq: Option<f64>) {
        debug_assert!(
            self.live_pages > 0,
            "page death on empty segment {}",
            self.id
        );
        self.live_bytes = self.live_bytes.saturating_sub(size as u64);
        self.live_pages = self.live_pages.saturating_sub(1);
        self.freq.on_overwrite(unow);
        if let Some(f) = exact_freq {
            self.exact_upf_sum = (self.exact_upf_sum - f).max(0.0);
        }
    }

    /// Seal the segment: fix its seal sequence, seal time and carried `up2`.
    pub fn seal(
        &mut self,
        seal_seq: SealSeq,
        sealed_at: UpdateTick,
        carried_up2: UpdateTick,
        up2_mode: Up2Mode,
    ) {
        self.seal_seq = seal_seq;
        self.sealed_at = sealed_at;
        self.freq = SegmentFreq::new(up2_mode, carried_up2, sealed_at);
    }

    /// Snapshot for the cleaning policies.
    pub fn stats(&self) -> SegmentStats {
        SegmentStats {
            id: self.id,
            capacity_bytes: self.capacity_bytes,
            free_bytes: self.free_bytes(),
            live_pages: self.live_pages,
            up2: self.freq.up2(),
            sealed_at: self.sealed_at,
            seal_seq: self.seal_seq,
            log_id: self.log_id,
            temperature: self.temperature,
            exact_upf: if self.has_exact_upf {
                Some(self.exact_upf_sum)
            } else {
                None
            },
        }
    }
}

/// Life-cycle state of a physical segment slot.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentState {
    /// No live data; available for allocation.
    Free,
    /// Currently being filled (its image lives in a [`crate::layout::SegmentBuilder`]).
    Open(SegmentMeta),
    /// Written to the device; a candidate for cleaning.
    Sealed(SegmentMeta),
}

impl SegmentState {
    /// The metadata, if the segment currently holds data.
    pub fn meta(&self) -> Option<&SegmentMeta> {
        match self {
            SegmentState::Free => None,
            SegmentState::Open(m) | SegmentState::Sealed(m) => Some(m),
        }
    }

    /// Mutable metadata, if the segment currently holds data.
    pub fn meta_mut(&mut self) -> Option<&mut SegmentMeta> {
        match self {
            SegmentState::Free => None,
            SegmentState::Open(m) | SegmentState::Sealed(m) => Some(m),
        }
    }

    /// True if the segment is free.
    pub fn is_free(&self) -> bool {
        matches!(self, SegmentState::Free)
    }

    /// True if the segment is sealed.
    pub fn is_sealed(&self) -> bool {
        matches!(self, SegmentState::Sealed(_))
    }
}

/// One victim parked in the reclamation quarantine: `synced` once a device sync has
/// landed after the victim was released. A cleaning cycle releases a victim only after
/// committing its relocations, and every sync point runs either outside any cycle or as
/// the cycle's own, after it has sealed its outputs; so by the time a sync marks an
/// entry, the relocated copies of its live pages are on the device. Only synced entries
/// with no reader pins are reaped back to the free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QuarantineEntry {
    id: SegmentId,
    synced: bool,
}

/// Table of all physical segments plus the free list, the reclamation quarantine and
/// the seal-sequence counter.
#[derive(Debug)]
pub struct SegmentTable {
    states: Vec<SegmentState>,
    free: Vec<SegmentId>,
    /// Segments released by the cleaner but not yet eligible for reuse: their slots must
    /// stay untouched until (a) the relocated copies of their live pages are durable on
    /// the device (crash safety: the old copies are the only durable ones until then —
    /// see [`QuarantineEntry`]) and (b) no in-flight reader still holds the slot pinned
    /// (read safety: a ranged read may be in progress against the old image).
    quarantine: Vec<QuarantineEntry>,
    /// Segments whose metadata says `Sealed` but whose image is not complete on the
    /// device: the device write of a seal happens *outside* the coordination lock, and a
    /// seal whose write failed (a *wounded* seal) stays pending until a sync point lands
    /// it. Such segments are excluded from [`SegmentTable::sealed_stats`] so the cleaner
    /// never selects a victim it cannot read back. Single-threaded embedders (the
    /// simulator) never mark anything pending and are unaffected.
    image_pending: Vec<SegmentId>,
    next_seal_seq: SealSeq,
}

impl SegmentTable {
    /// Create a table with `num_segments` free segments.
    pub fn new(num_segments: usize) -> Self {
        // Keep the free list in descending id order so allocation (pop) hands out
        // ascending ids — purely cosmetic but makes traces easier to read.
        let free = (0..num_segments as u32).rev().map(SegmentId).collect();
        Self {
            states: vec![SegmentState::Free; num_segments],
            free,
            quarantine: Vec::new(),
            image_pending: Vec::new(),
            next_seal_seq: 1,
        }
    }

    /// Number of physical segments.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the table has no segments (never the case for a valid store).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of free segments.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of sealed segments.
    pub fn sealed_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_sealed()).count()
    }

    /// Allocate a free segment, if any, transitioning it to `Open`.
    pub fn allocate(
        &mut self,
        capacity_bytes: u64,
        log_id: u16,
        up2_mode: Up2Mode,
    ) -> Option<SegmentId> {
        let id = self.free.pop()?;
        self.states[id.index()] =
            SegmentState::Open(SegmentMeta::new_open(id, capacity_bytes, log_id, up2_mode));
        Some(id)
    }

    /// Return a segment to the free list immediately (after an aborted open, or in
    /// single-threaded embedders like the simulator where no reader can be mid-flight).
    pub fn release(&mut self, id: SegmentId) {
        debug_assert!(!self.states[id.index()].is_free(), "double free of {id}");
        self.states[id.index()] = SegmentState::Free;
        self.free.push(id);
    }

    /// Release a cleaned victim into the quarantine instead of the free list. The slot
    /// becomes allocatable only after a device sync lands
    /// ([`SegmentTable::mark_quarantine_synced`]) and a subsequent
    /// [`SegmentTable::reap_quarantine`] confirms no reader pins remain.
    pub fn release_quarantined(&mut self, id: SegmentId) {
        debug_assert!(!self.states[id.index()].is_free(), "double free of {id}");
        self.states[id.index()] = SegmentState::Free;
        self.quarantine.push(QuarantineEntry { id, synced: false });
    }

    /// Number of segments parked in the quarantine.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    /// Record that a device sync has landed: every quarantined victim's relocated pages
    /// are durable now, so all of them become candidates for reaping.
    pub fn mark_quarantine_synced(&mut self) {
        for e in &mut self.quarantine {
            e.synced = true;
        }
    }

    /// Move synced quarantined segments whose reader pin count is zero (per the supplied
    /// predicate) to the free list. Returns how many segments were freed.
    pub fn reap_quarantine(&mut self, unpinned: impl Fn(SegmentId) -> bool) -> usize {
        let mut freed = 0;
        let mut i = 0;
        while i < self.quarantine.len() {
            let e = self.quarantine[i];
            if e.synced && unpinned(e.id) {
                self.quarantine.swap_remove(i);
                self.free.push(e.id);
                freed += 1;
            } else {
                i += 1;
            }
        }
        freed
    }

    /// Take the next seal sequence without sealing anything: an open segment reserves
    /// its sequence at its first persist point (every extent it writes carries it, see
    /// [`crate::layout`]) and is later sealed under it with
    /// [`SegmentTable::seal_reserved`].
    pub fn reserve_seal_seq(&mut self) -> SealSeq {
        let seq = self.next_seal_seq;
        self.next_seal_seq += 1;
        seq
    }

    /// Seal an open segment. Returns the assigned seal sequence.
    pub fn seal(
        &mut self,
        id: SegmentId,
        sealed_at: UpdateTick,
        carried_up2: UpdateTick,
        up2_mode: Up2Mode,
    ) -> SealSeq {
        let seq = self.reserve_seal_seq();
        self.seal_reserved(id, seq, sealed_at, carried_up2, up2_mode);
        seq
    }

    /// Seal an open segment under a sequence taken earlier with
    /// [`SegmentTable::reserve_seal_seq`].
    pub fn seal_reserved(
        &mut self,
        id: SegmentId,
        seq: SealSeq,
        sealed_at: UpdateTick,
        carried_up2: UpdateTick,
        up2_mode: Up2Mode,
    ) {
        let state = &mut self.states[id.index()];
        match state {
            SegmentState::Open(meta) => {
                meta.seal(seq, sealed_at, carried_up2, up2_mode);
                let meta = meta.clone();
                *state = SegmentState::Sealed(meta);
            }
            other => panic!("seal() on segment {id} in state {other:?}"),
        }
    }

    /// Install a sealed segment directly (used by recovery).
    pub fn install_sealed(&mut self, meta: SegmentMeta) {
        let id = meta.id;
        self.next_seal_seq = self.next_seal_seq.max(meta.seal_seq + 1);
        self.states[id.index()] = SegmentState::Sealed(meta);
        self.free.retain(|&s| s != id);
        self.quarantine.retain(|e| e.id != id);
        self.image_pending.retain(|&s| s != id);
    }

    /// The state of a segment.
    pub fn state(&self, id: SegmentId) -> &SegmentState {
        &self.states[id.index()]
    }

    /// Metadata of a segment, if it holds data.
    pub fn meta(&self, id: SegmentId) -> Option<&SegmentMeta> {
        self.states[id.index()].meta()
    }

    /// Mutable metadata of a segment, if it holds data.
    pub fn meta_mut(&mut self, id: SegmentId) -> Option<&mut SegmentMeta> {
        self.states[id.index()].meta_mut()
    }

    /// Mark a sealed segment's device image as still in flight (`pending = true`) or
    /// durable on the device (`pending = false`). Pending segments are hidden from
    /// [`SegmentTable::sealed_stats`].
    pub fn set_image_pending(&mut self, id: SegmentId, pending: bool) {
        if pending {
            if !self.image_pending.contains(&id) {
                self.image_pending.push(id);
            }
        } else {
            self.image_pending.retain(|&s| s != id);
        }
    }

    /// True while a sealed segment's image write has not completed.
    pub fn is_image_pending(&self, id: SegmentId) -> bool {
        self.image_pending.contains(&id)
    }

    /// Snapshots of every sealed segment whose image is on the device: the cleaning
    /// candidates and the checkpoint's segment records. Segments mid-seal (see
    /// [`SegmentTable::set_image_pending`]) are excluded.
    pub fn sealed_stats(&self) -> Vec<SegmentStats> {
        self.states
            .iter()
            .filter_map(|s| match s {
                SegmentState::Sealed(m) if !self.image_pending.contains(&m.id) => Some(m.stats()),
                _ => None,
            })
            .collect()
    }

    /// Per-segment tombstone footprint for every sealed segment whose image is on the
    /// device (same population as [`SegmentTable::sealed_stats`]).
    /// Only segments with a non-zero charge are reported; the checkpoint records these
    /// so recovery can rebuild the accounting exactly.
    pub fn sealed_tombstone_bytes(&self) -> Vec<(SegmentId, u64)> {
        self.states
            .iter()
            .filter_map(|s| match s {
                SegmentState::Sealed(m)
                    if m.tombstone_bytes > 0 && !self.image_pending.contains(&m.id) =>
                {
                    Some((m.id, m.tombstone_bytes))
                }
                _ => None,
            })
            .collect()
    }

    /// Lift the tombstone charge from every sealed segment whose `seal_seq` is covered
    /// by a committed checkpoint frontier. Once a checkpoint at frontier `F` commits,
    /// the delete facts in segments sealed at or before `F` are durable in the
    /// checkpoint itself (checkpointing seals every open segment before reading the
    /// frontier, so all older copies of a deleted page live at or below `F` too), and
    /// the cleaner is free to drop those tombstones — so their space stops counting as
    /// live.
    pub fn uncharge_covered_tombstones(&mut self, frontier: SealSeq) {
        for s in &mut self.states {
            if let SegmentState::Sealed(m) = s {
                if m.tombstone_bytes > 0 && m.seal_seq <= frontier {
                    m.uncharge_tombstones();
                }
            }
        }
    }

    /// Live fragmentation picture: bucket every sealed segment's emptiness `E` into
    /// `bins` equal-width bins over `[0, 1]` (the last bin is closed at 1.0). Returns
    /// the histogram plus the sealed-segment count and their total live bytes, so
    /// callers can cross-check the histogram against the accounting ledger's totals.
    pub fn emptiness_histogram(&self, bins: usize) -> (Vec<u64>, u64, u64) {
        let bins = bins.max(1);
        let mut hist = vec![0u64; bins];
        let mut sealed = 0u64;
        let mut live_bytes = 0u64;
        for s in &self.states {
            if let SegmentState::Sealed(m) = s {
                let bin = ((m.emptiness() * bins as f64) as usize).min(bins - 1);
                hist[bin] += 1;
                sealed += 1;
                live_bytes += m.live_bytes;
            }
        }
        (hist, sealed, live_bytes)
    }

    /// Sealed-segment count per temperature class (gauge for
    /// [`crate::StoreStats::gc_class_segments`]): index `0..classes` by class, with
    /// unclassified (user-filled) segments counted in the final extra bucket.
    pub fn sealed_counts_by_temperature(&self, classes: usize) -> Vec<u64> {
        let classes = classes.max(1);
        let mut counts = vec![0u64; classes + 1];
        for s in &self.states {
            if let SegmentState::Sealed(m) = s {
                let bucket = if m.temperature == TEMPERATURE_UNCLASSIFIED {
                    classes
                } else {
                    (m.temperature as usize).min(classes - 1)
                };
                counts[bucket] += 1;
            }
        }
        counts
    }

    /// Iterate over metadata of all non-free segments.
    pub fn iter_meta(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.states.iter().filter_map(|s| s.meta())
    }

    /// Next seal sequence that will be assigned (exposed for checkpointing).
    pub fn next_seal_seq(&self) -> SealSeq {
        self.next_seal_seq
    }

    /// Restore the seal-sequence counter (used by recovery/checkpoint load).
    pub fn set_next_seal_seq(&mut self, seq: SealSeq) {
        self.next_seal_seq = self.next_seal_seq.max(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1000;

    #[test]
    fn meta_accounting_tracks_live_space() {
        let mut m = SegmentMeta::new_open(SegmentId(0), CAP, 0, Up2Mode::OnOverwrite);
        assert_eq!(m.free_bytes(), CAP);
        m.on_page_added(300, None);
        m.on_page_added(200, None);
        assert_eq!(m.live_pages, 2);
        assert_eq!(m.live_bytes, 500);
        assert_eq!(m.free_bytes(), 500);
        assert!((m.emptiness() - 0.5).abs() < 1e-12);

        m.on_page_dead(300, 10, None);
        assert_eq!(m.live_pages, 1);
        assert_eq!(m.free_bytes(), 800);
    }

    #[test]
    fn meta_tracks_exact_frequencies_when_supplied() {
        let mut m = SegmentMeta::new_open(SegmentId(0), CAP, 0, Up2Mode::OnOverwrite);
        m.on_page_added(100, Some(2.0));
        m.on_page_added(100, Some(3.0));
        let stats = m.stats();
        assert_eq!(stats.exact_upf, Some(5.0));
        m.on_page_dead(100, 5, Some(2.0));
        assert_eq!(m.stats().exact_upf, Some(3.0));
    }

    #[test]
    fn meta_without_exact_frequencies_reports_none() {
        let mut m = SegmentMeta::new_open(SegmentId(0), CAP, 0, Up2Mode::OnOverwrite);
        m.on_page_added(100, None);
        assert_eq!(m.stats().exact_upf, None);
    }

    #[test]
    fn seal_assigns_sequence_and_freq() {
        let mut t = SegmentTable::new(4);
        let id = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        t.meta_mut(id).unwrap().on_page_added(100, None);
        let seq = t.seal(id, 500, 200, Up2Mode::OnOverwrite);
        assert_eq!(seq, 1);
        let stats = t.meta(id).unwrap().stats();
        assert_eq!(stats.seal_seq, 1);
        assert_eq!(stats.sealed_at, 500);
        assert_eq!(stats.up2, 200);
        assert!(t.state(id).is_sealed());
    }

    #[test]
    fn a_reserved_sequence_is_never_handed_out_again() {
        let mut t = SegmentTable::new(4);
        let early = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let late = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        // `early` persists first (reserving 1), `late` is sealed in one go (takes 2),
        // then `early` is sealed under its reservation.
        let reserved = t.reserve_seal_seq();
        assert_eq!(t.seal(late, 10, 5, Up2Mode::OnOverwrite), reserved + 1);
        t.seal_reserved(early, reserved, 20, 6, Up2Mode::OnOverwrite);
        assert_eq!(t.meta(early).unwrap().seal_seq, reserved);
        assert_eq!(t.meta(early).unwrap().sealed_at, 20);
        assert_eq!(t.next_seal_seq(), reserved + 2);
    }

    #[test]
    fn allocate_release_cycle_maintains_free_count() {
        let mut t = SegmentTable::new(3);
        assert_eq!(t.free_count(), 3);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let b = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.free_count(), 1);
        t.release(a);
        assert_eq!(t.free_count(), 2);
        assert!(t.state(a).is_free());
        // Exhaust the free list.
        let _c = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let _d = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        assert!(t.allocate(CAP, 0, Up2Mode::OnOverwrite).is_none());
    }

    #[test]
    fn sealed_stats_only_covers_sealed_segments() {
        let mut t = SegmentTable::new(4);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let _open = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        t.seal(a, 10, 5, Up2Mode::OnOverwrite);
        let stats = t.sealed_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, a);
        assert_eq!(t.sealed_count(), 1);
    }

    #[test]
    fn install_sealed_bumps_seal_seq_and_removes_from_free_list() {
        let mut t = SegmentTable::new(4);
        let mut m = SegmentMeta::new_open(SegmentId(2), CAP, 0, Up2Mode::OnOverwrite);
        m.on_page_added(10, None);
        m.seal(42, 100, 50, Up2Mode::OnOverwrite);
        t.install_sealed(m);
        assert_eq!(t.free_count(), 3);
        assert!(t.state(SegmentId(2)).is_sealed());
        assert_eq!(t.next_seal_seq(), 43);
        // Allocation never hands out the installed segment.
        for _ in 0..3 {
            let id = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
            assert_ne!(id, SegmentId(2));
        }
    }

    #[test]
    fn quarantine_defers_reuse_until_synced_and_reaped() {
        let mut t = SegmentTable::new(4);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        t.seal(a, 10, 5, Up2Mode::OnOverwrite);
        assert_eq!(t.free_count(), 3);
        t.release_quarantined(a);
        // Quarantined: state is free but the slot is not allocatable yet.
        assert!(t.state(a).is_free());
        assert_eq!(t.free_count(), 3);
        assert_eq!(t.quarantine_len(), 1);
        // Not reapable before a sync lands.
        assert_eq!(t.reap_quarantine(|_| true), 0);
        t.mark_quarantine_synced();
        // A pinned segment survives reaping.
        assert_eq!(t.reap_quarantine(|id| id != a), 0);
        assert_eq!(t.quarantine_len(), 1);
        // Synced and unpinned: it re-enters the free pool.
        assert_eq!(t.reap_quarantine(|_| true), 1);
        assert_eq!(t.quarantine_len(), 0);
        assert_eq!(t.free_count(), 4);
    }

    #[test]
    fn emptiness_histogram_buckets_sealed_segments_and_sums_live_bytes() {
        let mut t = SegmentTable::new(4);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let b = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let open = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        t.meta_mut(a).unwrap().on_page_added(900, None); // E = 0.1
        t.meta_mut(b).unwrap().on_page_added(200, None); // E = 0.8
        t.meta_mut(open).unwrap().on_page_added(500, None); // stays open: excluded
        t.seal(a, 10, 5, Up2Mode::OnOverwrite);
        t.seal(b, 11, 6, Up2Mode::OnOverwrite);
        let (hist, sealed, live) = t.emptiness_histogram(10);
        assert_eq!(sealed, 2);
        assert_eq!(live, 1100);
        assert_eq!(hist.iter().sum::<u64>(), sealed);
        assert_eq!(hist[1], 1); // E = 0.1
        assert_eq!(hist[8], 1); // E = 0.8
    }

    #[test]
    fn image_pending_segments_are_hidden_from_sealed_stats() {
        let mut t = SegmentTable::new(4);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let b = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        t.seal(a, 10, 5, Up2Mode::OnOverwrite);
        t.seal(b, 12, 6, Up2Mode::OnOverwrite);
        t.set_image_pending(b, true);
        assert!(t.is_image_pending(b));
        let stats = t.sealed_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, a);
        // Once the image lands, the segment becomes a cleaning candidate again.
        t.set_image_pending(b, false);
        assert!(!t.is_image_pending(b));
        assert_eq!(t.sealed_stats().len(), 2);
    }

    #[test]
    fn allocation_hands_out_ascending_ids() {
        let mut t = SegmentTable::new(3);
        let a = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        let b = t.allocate(CAP, 0, Up2Mode::OnOverwrite).unwrap();
        assert!(a.0 < b.0);
    }
}
