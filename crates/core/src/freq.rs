//! Update-frequency estimation (paper §4.3 and §5.2.2).
//!
//! The MDC policy needs, for every segment, an estimate of how frequently its pages are
//! updated. Keeping exact per-page statistics would be expensive, so the paper uses a
//! cheap "age"-based estimate: the time `up2` of the *penultimate* update, measured on an
//! update-count clock `unow`. The update frequency of a segment is then estimated as
//! `Upf ≈ 2 / (unow − up2)` — two updates over the observed interval.
//!
//! `up2` values are carried forward across writes:
//!
//! * **User re-write of an existing page** — the page inherits the `up2` of the segment
//!   that held its previous version, and we assume the (untracked) last update `up1` was
//!   midway between `up2` and now: `new_up2 = old_up2 + ½·(unow − old_up2)`.
//! * **First write of a page** — there is no history, and most pages are cold, so the
//!   page is assigned the *coldest* (smallest) `up2` seen in the batch of new writes it
//!   belongs to.
//! * **GC relocation** — the page keeps the `up2` of its victim segment unchanged.
//! * **Sealing a segment** — the segment's `up2` becomes the mean of the `up2` values of
//!   the pages written into it.

use crate::types::{PageId, UpdateTick};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Carry-forward rule for a user re-write of an existing page (paper §5.2.2,
/// "Non-first Write").
///
/// `old_up2` is the `up2` of the segment holding the page's previous version.
///
/// `unow` is a relaxed read of a clock other writers advance concurrently: a drain can
/// read it just before a concurrent seal publishes a segment `up2` taken from a later
/// reading, so `old_up2` may be (a few ticks) in the future of `unow`. The midpoint of
/// an empty interval is its endpoint: clamp instead of underflowing.
#[inline]
pub fn carry_forward_rewrite(old_up2: UpdateTick, unow: UpdateTick) -> UpdateTick {
    old_up2 + unow.saturating_sub(old_up2) / 2
}

/// Carry-forward rule for a GC relocation: the page keeps its victim segment's `up2`.
#[inline]
pub fn carry_forward_gc(victim_up2: UpdateTick) -> UpdateTick {
    victim_up2
}

/// `up2` assigned to pages written for the first time: the coldest (oldest) `up2` in the
/// batch being processed, falling back to 0 (maximally cold) when the batch contains no
/// pages with history (paper §5.2.2, "First Write").
#[inline]
pub fn first_write_up2(coldest_in_batch: Option<UpdateTick>) -> UpdateTick {
    coldest_in_batch.unwrap_or(0)
}

/// The estimated per-segment update frequency `Upf ≈ 2 / (unow − up2)` (paper §4.3).
///
/// The interval is clamped to at least one tick so a segment updated this very tick does
/// not produce an infinite frequency.
#[inline]
pub fn estimated_upf(up2: UpdateTick, unow: UpdateTick) -> f64 {
    let interval = unow.saturating_sub(up2).max(1);
    2.0 / interval as f64
}

/// How the per-segment `up2` (penultimate update time) estimate is maintained.
///
/// The paper gives two readings, §4.3 and §5.2.2. The store always uses
/// [`Up2Mode::OnOverwrite`]; the simulator (`lss-sim`'s `SimConfig::up2_mode`) runs
/// both, which is how the `ablation` bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Up2Mode {
    /// The segment's `up2` is fixed when the segment is sealed, to the mean of the `up2`
    /// estimates carried by the pages written into it (literal reading of paper §5.2.2).
    CarryForwardOnly,
    /// In addition to the carry-forward initialisation, the segment tracks its own last
    /// two update times: every overwrite of a live page in the segment advances
    /// `up2 ← up1`, `up1 ← unow` (literal reading of paper §4.3). This is the default.
    #[default]
    OnOverwrite,
}

/// Per-segment update-recency tracker.
///
/// Depending on [`Up2Mode`], the tracker either freezes the carry-forward estimate set at
/// seal time, or additionally observes every overwrite of a live page in the segment and
/// keeps the true last-two update times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFreq {
    mode: Up2Mode,
    /// Last observed update to the segment (only meaningful in `OnOverwrite` mode).
    up1: UpdateTick,
    /// Penultimate update estimate — the value the MDC formula consumes.
    up2: UpdateTick,
}

impl SegmentFreq {
    /// Create the tracker for a freshly sealed segment whose carried estimate is
    /// `initial_up2` (the mean of the `up2` values of the pages placed in the segment).
    pub fn new(mode: Up2Mode, initial_up2: UpdateTick, sealed_at: UpdateTick) -> Self {
        // Before the segment has received any updates of its own, treat the carried
        // estimate as the penultimate update and the midpoint between it and seal time as
        // the (assumed) last update. This mirrors the paper's midpoint assumption.
        let up1 = initial_up2 + (sealed_at.saturating_sub(initial_up2)) / 2;
        Self {
            mode,
            up1,
            up2: initial_up2,
        }
    }

    /// Record that one of the segment's live pages was just overwritten at `unow`.
    ///
    /// In `CarryForwardOnly` mode this is a no-op (the estimate stays frozen).
    #[inline]
    pub fn on_overwrite(&mut self, unow: UpdateTick) {
        if self.mode == Up2Mode::OnOverwrite {
            self.up2 = self.up1;
            self.up1 = unow;
        }
    }

    /// The current `up2` estimate consumed by cleaning policies.
    #[inline]
    pub fn up2(&self) -> UpdateTick {
        self.up2
    }

    /// The estimated update frequency of the segment at time `unow`.
    #[inline]
    pub fn upf(&self, unow: UpdateTick) -> f64 {
        estimated_upf(self.up2, unow)
    }
}

/// Upper bound on [`crate::StoreConfig::gc_temperature_classes`] (and the width of the
/// per-class statistics arrays in [`crate::StoreStats`]).
pub const MAX_TEMPERATURE_CLASSES: usize = 8;

/// A segment temperature tag meaning "never classified": the segment was filled by a
/// user stream (or recovered), so the cleaner treats it as hot until its survivors are
/// classified during a relocation. Class `0` is the coldest class; larger classes are
/// hotter (see [`classify_heat`]).
pub const TEMPERATURE_UNCLASSIFIED: u16 = u16::MAX;

/// Number of bits of a [`PageHeat`] slot holding the decayed count (the upper 16 bits
/// hold the decay epoch the count was last folded to).
const HEAT_COUNT_BITS: u32 = 48;
const HEAT_COUNT_MAX: u64 = (1 << HEAT_COUNT_BITS) - 1;

/// Lock-free decayed per-page write-count sketch (the cleaner's "heat" estimate).
///
/// A single hash-indexed row of `2^k` atomic slots, each packing `(epoch, count)` into
/// one `u64`. [`PageHeat::record`] is called on the user write path (one hash, one CAS
/// on an uncontended-by-design slot) and [`PageHeat::heat`] is sampled by the cleaner
/// at relocation time with **no lock held** — both are wait-free apart from the CAS
/// retry under same-slot contention.
///
/// Decay is *lazy*: a global epoch advances every `decay_interval` recorded writes, and
/// a slot touched (or read) `d` epochs later first halves its count `d` times
/// (`count >> d`). So heat is an exponentially decayed write count with a half-life of
/// `decay_interval` writes — a page that stops being written fades to 0 instead of
/// staying hot forever, which is what lets demoted pages re-pack as cold.
///
/// Distinct pages may share a slot (it is a sketch, not a map); collisions only ever
/// *overstate* heat, which merely routes a cold page to a hotter output class — an
/// efficiency loss, never a correctness issue.
#[derive(Debug)]
pub struct PageHeat {
    slots: Box<[AtomicU64]>,
    mask: u64,
    /// Current decay epoch (low 16 bits are stored in the slots).
    epoch: AtomicU64,
    /// Writes recorded since the last epoch advance.
    since_epoch: AtomicU64,
    decay_interval: u64,
}

impl PageHeat {
    /// A sketch with at least `min_slots` slots (rounded up to a power of two and
    /// clamped to a sane range) decaying every `decay_interval` recorded writes.
    pub fn new(min_slots: usize, decay_interval: u64) -> Self {
        let slots = min_slots.clamp(1024, 1 << 16).next_power_of_two();
        Self {
            slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            mask: (slots - 1) as u64,
            epoch: AtomicU64::new(0),
            since_epoch: AtomicU64::new(0),
            decay_interval: decay_interval.max(1),
        }
    }

    /// Size the sketch for a store that can hold `physical_pages` pages: one slot per
    /// page up to the clamp, with a half-life of four sketch-fills so steady heat
    /// ranks stay stable while dead pages fade within a few overwrite passes.
    pub fn for_physical_pages(physical_pages: usize) -> Self {
        let slots = physical_pages.clamp(1024, 1 << 16).next_power_of_two();
        Self::new(slots, 4 * slots as u64)
    }

    #[inline]
    fn slot_of(&self, page: PageId) -> &AtomicU64 {
        &self.slots[(crate::util::mix64(page) & self.mask) as usize]
    }

    #[inline]
    fn unpack(packed: u64) -> (u16, u64) {
        ((packed >> HEAT_COUNT_BITS) as u16, packed & HEAT_COUNT_MAX)
    }

    #[inline]
    fn pack(epoch: u16, count: u64) -> u64 {
        ((epoch as u64) << HEAT_COUNT_BITS) | count.min(HEAT_COUNT_MAX)
    }

    /// Fold a slot's count forward to `now_epoch`: halve once per elapsed epoch.
    #[inline]
    fn decayed(slot_epoch: u16, count: u64, now_epoch: u16) -> u64 {
        let delta = now_epoch.wrapping_sub(slot_epoch) as u32;
        if delta >= HEAT_COUNT_BITS {
            0
        } else {
            count >> delta
        }
    }

    /// Record one write of `page`. Saturates at the 48-bit count ceiling.
    pub fn record(&self, page: PageId) {
        // Advance the global epoch once per `decay_interval` records. The CAS means
        // exactly one of the racing recorders at the boundary advances it.
        let n = self.since_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.decay_interval
            && self
                .since_epoch
                .compare_exchange(n, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        let now_epoch = self.epoch.load(Ordering::Relaxed) as u16;
        let slot = self.slot_of(page);
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let (e, c) = Self::unpack(cur);
            let next = Self::pack(now_epoch, Self::decayed(e, c, now_epoch).saturating_add(1));
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The decayed write count of `page` right now. One atomic load; never blocks.
    pub fn heat(&self, page: PageId) -> u64 {
        let now_epoch = self.epoch.load(Ordering::Relaxed) as u16;
        let (e, c) = Self::unpack(self.slot_of(page).load(Ordering::Relaxed));
        Self::decayed(e, c, now_epoch)
    }

    /// Number of slots in the sketch (diagnostics).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// Rank a relocation batch's heats into temperature classes.
///
/// Returns one class per input, `0 ..= classes-1`, `0` being coldest:
///
/// * `classes <= 1` → everything is class 0 (temperature-unaware behaviour);
/// * heat 0 → class 0 unconditionally (a page nobody has written since the sketch last
///   decayed it to nothing is cold in the absolute, not relative to its batch);
/// * non-zero heats are ranked *within the batch* and split into equal-depth quantiles
///   over classes `1 ..= classes-1` — relative rank, not absolute thresholds, so the
///   split adapts to any workload's heat scale without tuning.
///
/// Deterministic: ties rank by input position, so equal inputs give equal outputs.
pub fn classify_heat(heats: &[u64], classes: u16) -> Vec<u16> {
    let n = heats.len();
    if classes <= 1 || n == 0 {
        return vec![0; n];
    }
    let mut out = vec![0u16; n];
    let mut warm: Vec<usize> = (0..n).filter(|&i| heats[i] > 0).collect();
    if warm.is_empty() {
        return out;
    }
    warm.sort_by_key(|&i| (heats[i], i));
    let buckets = (classes - 1) as usize;
    let per = warm.len().div_ceil(buckets);
    for (rank, &i) in warm.iter().enumerate() {
        out[i] = 1 + (rank / per) as u16;
    }
    out
}

/// Running mean used to compute a sealed segment's initial `up2` from the pages written
/// into it without collecting them in a vector first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Up2Average {
    sum: u128,
    count: u64,
}

impl Up2Average {
    /// Create an empty average.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one page's carried `up2`.
    #[inline]
    pub fn add(&mut self, up2: UpdateTick) {
        self.sum += up2 as u128;
        self.count += 1;
    }

    /// The mean, or `default` if no pages were added.
    #[inline]
    pub fn mean_or(&self, default: UpdateTick) -> UpdateTick {
        if self.count == 0 {
            default
        } else {
            (self.sum / self.count as u128) as UpdateTick
        }
    }

    /// Number of samples added.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_carry_forward_moves_halfway_to_now() {
        assert_eq!(carry_forward_rewrite(100, 200), 150);
        assert_eq!(carry_forward_rewrite(0, 1000), 500);
        // Repeated rewrites converge toward "now", i.e. the page looks hotter and hotter.
        let mut up2 = 0;
        for now in [100u64, 200, 300, 400] {
            up2 = carry_forward_rewrite(up2, now);
        }
        assert!(
            up2 > 300,
            "after several recent rewrites the page should look hot, up2={up2}"
        );
    }

    #[test]
    fn rewrite_carry_forward_is_idempotent_at_now() {
        assert_eq!(carry_forward_rewrite(500, 500), 500);
    }

    /// A concurrent seal can publish an `up2` taken from a later clock reading than the
    /// draining writer's `unow` (the tier-1 stress test hit this ~1 run in 10).
    #[test]
    fn rewrite_carry_forward_clamps_an_up2_from_the_future() {
        assert_eq!(carry_forward_rewrite(503, 500), 503);
    }

    #[test]
    fn gc_carry_forward_keeps_value() {
        assert_eq!(carry_forward_gc(1234), 1234);
    }

    #[test]
    fn first_write_defaults_to_cold() {
        assert_eq!(first_write_up2(None), 0);
        assert_eq!(first_write_up2(Some(77)), 77);
    }

    #[test]
    fn estimated_upf_clamps_zero_interval() {
        assert_eq!(estimated_upf(100, 100), 2.0);
        assert!((estimated_upf(0, 1000) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn hotter_segments_have_larger_upf() {
        let hot = estimated_upf(990, 1000);
        let cold = estimated_upf(10, 1000);
        assert!(hot > cold);
    }

    #[test]
    fn on_overwrite_mode_advances_estimates() {
        let mut f = SegmentFreq::new(Up2Mode::OnOverwrite, 100, 200);
        assert_eq!(f.up2(), 100);
        f.on_overwrite(300);
        // up2 becomes the assumed midpoint (150), up1 becomes 300.
        assert_eq!(f.up2(), 150);
        f.on_overwrite(310);
        assert_eq!(f.up2(), 300);
        f.on_overwrite(320);
        assert_eq!(f.up2(), 310);
    }

    #[test]
    fn carry_forward_only_mode_freezes_estimate() {
        let mut f = SegmentFreq::new(Up2Mode::CarryForwardOnly, 100, 200);
        f.on_overwrite(900);
        f.on_overwrite(950);
        assert_eq!(f.up2(), 100);
    }

    #[test]
    fn up2_average_mean() {
        let mut avg = Up2Average::new();
        assert_eq!(avg.mean_or(42), 42);
        avg.add(10);
        avg.add(20);
        avg.add(30);
        assert_eq!(avg.count(), 3);
        assert_eq!(avg.mean_or(42), 20);
    }
}
