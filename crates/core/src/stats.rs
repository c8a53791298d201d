//! Write-amplification and cleaning statistics.
//!
//! Write amplification is the paper's evaluation metric (§6.1.2): the number of cleaning
//! (GC) page writes per user page write, `W_amp = (1 − E)/E` in the steady-state analysis
//! of §2.1. A `W_amp` of 0 means all I/O bandwidth serves user writes; a `W_amp` of 1
//! means half of it is spent on cleaning.

use crate::freq::MAX_TEMPERATURE_CLASSES;
use crate::util::CachePadded;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of equal-width bins in [`StoreStats::emptiness_histogram`] (bin `i` covers
/// emptiness `[i/10, (i+1)/10)`, with the last bin closed at 1.0).
pub const EMPTINESS_HISTOGRAM_BINS: usize = 10;

/// Counters accumulated by a [`crate::LogStore`] (or the simulator) during operation.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Pages written by the user (`put` and `delete` operations).
    pub user_pages_written: u64,
    /// Bytes of user payload written.
    pub user_bytes_written: u64,
    /// Pages relocated by the cleaner.
    pub gc_pages_written: u64,
    /// Bytes relocated by the cleaner.
    pub gc_bytes_written: u64,
    /// Segments sealed: closed for appends and handed to the cleaner's bookkeeping.
    /// Since `flush` persists open segments without sealing them this is no longer a
    /// measure of bytes written — that is [`StoreStats::device_bytes_written`].
    pub segments_sealed: u64,
    /// Bytes the store asked the device to write: a whole `segment_bytes` image for a
    /// segment sealed in one go, the dirty ranges for a persist point or for the final
    /// tail of a segment that had one. Counted where the store calls the device (a
    /// device wrapper that falls back to whole-image writes moves more).
    pub device_bytes_written: u64,
    /// Persist points: times `flush` wrote the unpersisted tail of an open segment as a
    /// new extent and left the segment open (see [`crate::layout`]).
    pub persist_points: u64,
    /// Segments read back by the cleaner.
    pub segments_cleaned: u64,
    /// Cleaning cycles executed.
    pub cleaning_cycles: u64,
    /// Sum of the emptiness `E` of victims at the moment they were cleaned; divide by
    /// [`segments_cleaned`](StoreStats::segments_cleaned) for the mean the paper's
    /// Table 1 reports.
    pub emptiness_sum_at_clean: f64,
    /// Page reads served (from buffers, open segments or the device).
    pub pages_read: u64,
    /// Page reads that had to touch the device.
    pub device_page_reads: u64,
    /// User writes absorbed while still sitting in the sort buffer (never reached a
    /// segment). Zero when buffer absorption is disabled.
    pub absorbed_in_buffer: u64,
    /// Live fragmentation picture at snapshot time: sealed segments bucketed by their
    /// emptiness `E` into [`EMPTINESS_HISTOGRAM_BINS`] equal-width bins over `[0, 1]`.
    /// Unlike the counters above this is a *gauge*, sampled from the segment table by
    /// [`crate::LogStore::stats`] (the simulator and plain [`Default`] leave it empty).
    /// The bins sum to [`StoreStats::sealed_segments`].
    pub emptiness_histogram: Vec<u64>,
    /// Sealed segments on the device at snapshot time (gauge; see
    /// [`StoreStats::emptiness_histogram`]).
    pub sealed_segments: u64,
    /// Total live payload bytes accounted to sealed segments at snapshot time (gauge).
    /// Right after a checkpoint — which seals every open segment, so no data sits in
    /// buffers or open segments — this equals the page table's total live bytes, which
    /// tests use as a ledger cross-check.
    pub sealed_live_bytes: u64,
    /// Always 0: writers clean for themselves, so none ever waits on a cleaner.
    /// Kept only because the `benchmark` bench reports it as `cleaner.writer_stalls`.
    pub writer_stall_events: u64,
    /// Times the last-resort straggler reclaim ran (a drain whose cleaning cycle freed
    /// nothing forced a quarantine sweep before it would declare out-of-space).
    pub straggler_reclaims: u64,
    /// Always 0: one cleaning cycle runs at a time and victims are never claimed.
    /// Kept only because the `benchmark` bench reports it as `cleaner.claimed_victims`.
    pub claimed_victims: u64,
    /// Victims currently parked in the reclamation quarantine (gauge).
    pub quarantined_segments: u64,
    /// Pages relocated by the cleaner into each temperature-classed GC output stream
    /// (index = class, 0 = coldest). Trailing all-zero classes are trimmed, so a store
    /// running with `gc_temperature_classes = 1` reports at most one entry. The entries
    /// sum to [`StoreStats::gc_pages_written`].
    pub gc_class_pages_written: Vec<u64>,
    /// Bytes relocated per temperature class (same indexing as
    /// [`StoreStats::gc_class_pages_written`]; sums to
    /// [`StoreStats::gc_bytes_written`]).
    pub gc_class_bytes_written: Vec<u64>,
    /// Survivors routed to a *hotter* class than the victim segment's temperature tag —
    /// each one is a misprediction by the earlier classification (the page turned out
    /// hotter than the segment it was parked in). Only counted for victims that carried
    /// a classified temperature.
    pub gc_class_promotions: u64,
    /// Survivors routed to a *colder* class than the victim segment's tag (the page
    /// cooled down since it was last classified).
    pub gc_class_demotions: u64,
    /// Sealed segments per temperature tag at snapshot time (gauge, like
    /// [`StoreStats::emptiness_histogram`]): index = class for classified segments, plus
    /// one final bucket for unclassified (user-filled / recovered) segments.
    pub gc_class_segments: Vec<u64>,
    /// Victim tombstones re-emitted into a GC output stream during cleaning, keeping the
    /// delete fact durable across segment-slot reuse (see `store::gc_driver`).
    pub tombstones_retained: u64,
    /// Victim tombstones dropped during cleaning because the page had been recreated
    /// (a newer live copy supersedes the delete).
    pub tombstones_dropped: u64,
    /// Page-table shards written out by incremental checkpoints (dirty since the
    /// previous checkpoint).
    pub checkpoint_shards_written: u64,
    /// Page-table shards skipped by incremental checkpoints (clean since the previous
    /// checkpoint, so the prior journal entry still describes them).
    pub checkpoint_shards_skipped: u64,
    /// Segments fully decoded and replayed by the last checkpoint-anchored recovery
    /// (those sealed after the checkpoint frontier). Zero for full-scan recovery and
    /// for stores that never recovered.
    pub recovery_segments_replayed: u64,
    /// Bytes the last recovery read from the device — slot fronts (headers and entry
    /// tables, never payloads) on the full scan, first headers plus the post-frontier
    /// tail's fronts on the checkpoint path. Zero for stores that never recovered.
    pub recovery_bytes_read: u64,
    /// Sort-buffer batches handed to the store's write-behind worker to append (each
    /// followed by the paced cleaning check; a batch a failed job left counts again
    /// when it is handed back).
    pub write_behind_jobs: u64,
    /// Puts and deletes that waited for the worker: their stream's filling batch was
    /// full while its previous batch was still queued or being appended.
    pub write_behind_waits: u64,
}

impl StoreStats {
    /// Write amplification in pages: GC page writes per user page write.
    pub fn write_amplification(&self) -> f64 {
        if self.user_pages_written == 0 {
            0.0
        } else {
            self.gc_pages_written as f64 / self.user_pages_written as f64
        }
    }

    /// Write amplification in bytes (differs from the page-based value when payload
    /// sizes vary).
    pub fn byte_write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            self.gc_bytes_written as f64 / self.user_bytes_written as f64
        }
    }

    /// Mean segment emptiness observed at cleaning time (the paper's `E`).
    pub fn mean_emptiness_at_clean(&self) -> f64 {
        if self.segments_cleaned == 0 {
            0.0
        } else {
            self.emptiness_sum_at_clean / self.segments_cleaned as f64
        }
    }

    /// The cost-per-segment figure of paper Equation 1, `2 / E`, computed from the
    /// observed mean emptiness. Returns infinity if nothing has been cleaned.
    pub fn observed_cost_per_segment(&self) -> f64 {
        let e = self.mean_emptiness_at_clean();
        if e <= 0.0 {
            f64::INFINITY
        } else {
            2.0 / e
        }
    }

    /// Merge another set of counters into this one (used when aggregating shards or
    /// repeated runs).
    pub fn merge(&mut self, other: &StoreStats) {
        self.user_pages_written += other.user_pages_written;
        self.user_bytes_written += other.user_bytes_written;
        self.gc_pages_written += other.gc_pages_written;
        self.gc_bytes_written += other.gc_bytes_written;
        self.segments_sealed += other.segments_sealed;
        self.device_bytes_written += other.device_bytes_written;
        self.persist_points += other.persist_points;
        self.segments_cleaned += other.segments_cleaned;
        self.cleaning_cycles += other.cleaning_cycles;
        self.emptiness_sum_at_clean += other.emptiness_sum_at_clean;
        self.pages_read += other.pages_read;
        self.device_page_reads += other.device_page_reads;
        self.absorbed_in_buffer += other.absorbed_in_buffer;
        if self.emptiness_histogram.len() < other.emptiness_histogram.len() {
            self.emptiness_histogram
                .resize(other.emptiness_histogram.len(), 0);
        }
        for (bin, n) in other.emptiness_histogram.iter().enumerate() {
            self.emptiness_histogram[bin] += n;
        }
        self.sealed_segments += other.sealed_segments;
        self.sealed_live_bytes += other.sealed_live_bytes;
        self.writer_stall_events += other.writer_stall_events;
        self.straggler_reclaims += other.straggler_reclaims;
        self.claimed_victims += other.claimed_victims;
        self.quarantined_segments += other.quarantined_segments;
        merge_class_vec(
            &mut self.gc_class_pages_written,
            &other.gc_class_pages_written,
        );
        merge_class_vec(
            &mut self.gc_class_bytes_written,
            &other.gc_class_bytes_written,
        );
        self.gc_class_promotions += other.gc_class_promotions;
        self.gc_class_demotions += other.gc_class_demotions;
        merge_class_vec(&mut self.gc_class_segments, &other.gc_class_segments);
        self.tombstones_retained += other.tombstones_retained;
        self.tombstones_dropped += other.tombstones_dropped;
        self.checkpoint_shards_written += other.checkpoint_shards_written;
        self.checkpoint_shards_skipped += other.checkpoint_shards_skipped;
        self.recovery_segments_replayed += other.recovery_segments_replayed;
        self.recovery_bytes_read += other.recovery_bytes_read;
        self.write_behind_jobs += other.write_behind_jobs;
        self.write_behind_waits += other.write_behind_waits;
    }

    /// Reset all counters to zero (used after a load phase so the measurement phase
    /// starts clean, as the paper does by writing 100× the store size).
    pub fn reset(&mut self) {
        *self = StoreStats::default();
    }
}

/// Element-wise add of two per-class vectors of possibly different lengths.
fn merge_class_vec(into: &mut Vec<u64>, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (bin, n) in other.iter().enumerate() {
        into[bin] += n;
    }
}

/// Drop trailing all-zero entries so untouched classes don't widen reports (and a
/// freshly reset snapshot compares equal to [`StoreStats::default`]).
fn trim_trailing_zeros(mut v: Vec<u64>) -> Vec<u64> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Lock-free counter set used internally by the concurrent store.
///
/// Every counter of [`StoreStats`] as a relaxed atomic, so the read path can bump
/// `pages_read` without touching any lock and writers/cleaner can account concurrently.
/// [`AtomicStats::snapshot`] materialises a plain [`StoreStats`] for reporting. The one
/// non-integer counter (`emptiness_sum_at_clean`) is stored as `f64` bits and updated
/// with a CAS loop — it is only touched once per cleaned victim, so contention is nil.
///
/// The counters client threads bump on every `put` and `get` each sit on a cache line
/// of their own ([`CachePadded`]), apart from the ones the write-behind worker bumps as
/// it drains and seals.
#[derive(Debug, Default)]
pub struct AtomicStats {
    /// See [`StoreStats::user_pages_written`].
    pub user_pages_written: CachePadded<AtomicU64>,
    /// See [`StoreStats::user_bytes_written`].
    pub user_bytes_written: CachePadded<AtomicU64>,
    /// See [`StoreStats::gc_pages_written`].
    pub gc_pages_written: AtomicU64,
    /// See [`StoreStats::gc_bytes_written`].
    pub gc_bytes_written: AtomicU64,
    /// See [`StoreStats::segments_sealed`].
    pub segments_sealed: AtomicU64,
    /// See [`StoreStats::device_bytes_written`].
    pub device_bytes_written: AtomicU64,
    /// See [`StoreStats::persist_points`].
    pub persist_points: AtomicU64,
    /// See [`StoreStats::segments_cleaned`].
    pub segments_cleaned: AtomicU64,
    /// See [`StoreStats::cleaning_cycles`].
    pub cleaning_cycles: AtomicU64,
    /// See [`StoreStats::emptiness_sum_at_clean`] (stored as `f64::to_bits`).
    emptiness_sum_bits: AtomicU64,
    /// See [`StoreStats::pages_read`].
    pub pages_read: CachePadded<AtomicU64>,
    /// See [`StoreStats::device_page_reads`].
    pub device_page_reads: CachePadded<AtomicU64>,
    /// See [`StoreStats::absorbed_in_buffer`].
    pub absorbed_in_buffer: AtomicU64,
    /// See [`StoreStats::straggler_reclaims`].
    pub straggler_reclaims: AtomicU64,
    /// See [`StoreStats::gc_class_pages_written`] (fixed-width; classes beyond the
    /// configured count simply stay zero and are trimmed at snapshot time).
    pub gc_class_pages_written: [AtomicU64; MAX_TEMPERATURE_CLASSES],
    /// See [`StoreStats::gc_class_bytes_written`].
    pub gc_class_bytes_written: [AtomicU64; MAX_TEMPERATURE_CLASSES],
    /// See [`StoreStats::gc_class_promotions`].
    pub gc_class_promotions: AtomicU64,
    /// See [`StoreStats::gc_class_demotions`].
    pub gc_class_demotions: AtomicU64,
    /// See [`StoreStats::tombstones_retained`].
    pub tombstones_retained: AtomicU64,
    /// See [`StoreStats::tombstones_dropped`].
    pub tombstones_dropped: AtomicU64,
    /// See [`StoreStats::checkpoint_shards_written`].
    pub checkpoint_shards_written: AtomicU64,
    /// See [`StoreStats::checkpoint_shards_skipped`].
    pub checkpoint_shards_skipped: AtomicU64,
    /// See [`StoreStats::recovery_segments_replayed`].
    pub recovery_segments_replayed: AtomicU64,
    /// See [`StoreStats::write_behind_jobs`].
    pub write_behind_jobs: AtomicU64,
    /// See [`StoreStats::write_behind_waits`].
    pub write_behind_waits: AtomicU64,
}

impl AtomicStats {
    /// Increment a counter by one (convenience for the common case).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Account one relocated page to its temperature class (out-of-range classes clamp
    /// into the last slot rather than being dropped, so totals always reconcile).
    #[inline]
    pub fn add_class_page(&self, class: u16, bytes: u64) {
        let slot = (class as usize).min(MAX_TEMPERATURE_CLASSES - 1);
        self.gc_class_pages_written[slot].fetch_add(1, Ordering::Relaxed);
        self.gc_class_bytes_written[slot].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accumulate a victim's emptiness `E` at cleaning time.
    pub fn add_emptiness(&self, e: f64) {
        let mut cur = self.emptiness_sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + e).to_bits();
            match self.emptiness_sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Materialise a coherent-enough snapshot of the counters.
    ///
    /// Individual loads are relaxed; counters incremented by in-flight operations may or
    /// may not be included, exactly like sampling any monitoring counter.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            user_pages_written: self.user_pages_written.load(Ordering::Relaxed),
            user_bytes_written: self.user_bytes_written.load(Ordering::Relaxed),
            gc_pages_written: self.gc_pages_written.load(Ordering::Relaxed),
            gc_bytes_written: self.gc_bytes_written.load(Ordering::Relaxed),
            segments_sealed: self.segments_sealed.load(Ordering::Relaxed),
            device_bytes_written: self.device_bytes_written.load(Ordering::Relaxed),
            persist_points: self.persist_points.load(Ordering::Relaxed),
            segments_cleaned: self.segments_cleaned.load(Ordering::Relaxed),
            cleaning_cycles: self.cleaning_cycles.load(Ordering::Relaxed),
            emptiness_sum_at_clean: f64::from_bits(self.emptiness_sum_bits.load(Ordering::Relaxed)),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            device_page_reads: self.device_page_reads.load(Ordering::Relaxed),
            absorbed_in_buffer: self.absorbed_in_buffer.load(Ordering::Relaxed),
            writer_stall_events: 0,
            straggler_reclaims: self.straggler_reclaims.load(Ordering::Relaxed),
            gc_class_pages_written: trim_trailing_zeros(
                self.gc_class_pages_written
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
            ),
            gc_class_bytes_written: trim_trailing_zeros(
                self.gc_class_bytes_written
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
            ),
            gc_class_promotions: self.gc_class_promotions.load(Ordering::Relaxed),
            gc_class_demotions: self.gc_class_demotions.load(Ordering::Relaxed),
            tombstones_retained: self.tombstones_retained.load(Ordering::Relaxed),
            tombstones_dropped: self.tombstones_dropped.load(Ordering::Relaxed),
            checkpoint_shards_written: self.checkpoint_shards_written.load(Ordering::Relaxed),
            checkpoint_shards_skipped: self.checkpoint_shards_skipped.load(Ordering::Relaxed),
            recovery_segments_replayed: self.recovery_segments_replayed.load(Ordering::Relaxed),
            write_behind_jobs: self.write_behind_jobs.load(Ordering::Relaxed),
            write_behind_waits: self.write_behind_waits.load(Ordering::Relaxed),
            claimed_victims: 0,
            // Gauges sampled from the segment table, not counters, and what the
            // store's recovery read: the store facade fills them in
            // (`LogStore::stats`); a bare snapshot leaves them empty.
            recovery_bytes_read: 0,
            emptiness_histogram: Vec::new(),
            sealed_segments: 0,
            sealed_live_bytes: 0,
            quarantined_segments: 0,
            gc_class_segments: Vec::new(),
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.user_pages_written.store(0, Ordering::Relaxed);
        self.user_bytes_written.store(0, Ordering::Relaxed);
        self.gc_pages_written.store(0, Ordering::Relaxed);
        self.gc_bytes_written.store(0, Ordering::Relaxed);
        self.segments_sealed.store(0, Ordering::Relaxed);
        self.device_bytes_written.store(0, Ordering::Relaxed);
        self.persist_points.store(0, Ordering::Relaxed);
        self.segments_cleaned.store(0, Ordering::Relaxed);
        self.cleaning_cycles.store(0, Ordering::Relaxed);
        self.emptiness_sum_bits.store(0, Ordering::Relaxed);
        self.pages_read.store(0, Ordering::Relaxed);
        self.device_page_reads.store(0, Ordering::Relaxed);
        self.absorbed_in_buffer.store(0, Ordering::Relaxed);
        self.straggler_reclaims.store(0, Ordering::Relaxed);
        for c in &self.gc_class_pages_written {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.gc_class_bytes_written {
            c.store(0, Ordering::Relaxed);
        }
        self.gc_class_promotions.store(0, Ordering::Relaxed);
        self.gc_class_demotions.store(0, Ordering::Relaxed);
        self.tombstones_retained.store(0, Ordering::Relaxed);
        self.tombstones_dropped.store(0, Ordering::Relaxed);
        self.checkpoint_shards_written.store(0, Ordering::Relaxed);
        self.checkpoint_shards_skipped.store(0, Ordering::Relaxed);
        self.recovery_segments_replayed.store(0, Ordering::Relaxed);
        self.write_behind_jobs.store(0, Ordering::Relaxed);
        self.write_behind_waits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_basic() {
        let mut s = StoreStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        s.user_pages_written = 100;
        s.gc_pages_written = 50;
        assert!((s.write_amplification() - 0.5).abs() < 1e-12);

        s.user_bytes_written = 1000;
        s.gc_bytes_written = 250;
        assert!((s.byte_write_amplification() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn emptiness_and_cost() {
        let mut s = StoreStats::default();
        assert_eq!(s.mean_emptiness_at_clean(), 0.0);
        assert!(s.observed_cost_per_segment().is_infinite());
        s.segments_cleaned = 4;
        s.emptiness_sum_at_clean = 2.0; // mean 0.5
        assert!((s.mean_emptiness_at_clean() - 0.5).abs() < 1e-12);
        assert!((s.observed_cost_per_segment() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = StoreStats {
            user_pages_written: 1,
            gc_pages_written: 2,
            ..Default::default()
        };
        let b = StoreStats {
            user_pages_written: 10,
            gc_pages_written: 20,
            cleaning_cycles: 3,
            emptiness_sum_at_clean: 1.5,
            tombstones_retained: 4,
            tombstones_dropped: 2,
            checkpoint_shards_written: 7,
            checkpoint_shards_skipped: 57,
            recovery_segments_replayed: 9,
            recovery_bytes_read: 12_288,
            write_behind_jobs: 5,
            write_behind_waits: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.user_pages_written, 11);
        assert_eq!(a.gc_pages_written, 22);
        assert_eq!(a.cleaning_cycles, 3);
        assert!((a.emptiness_sum_at_clean - 1.5).abs() < 1e-12);
        assert_eq!(a.tombstones_retained, 4);
        assert_eq!(a.tombstones_dropped, 2);
        assert_eq!(a.checkpoint_shards_written, 7);
        assert_eq!(a.checkpoint_shards_skipped, 57);
        assert_eq!(a.recovery_segments_replayed, 9);
        assert_eq!(a.recovery_bytes_read, 12_288);
        assert_eq!((a.write_behind_jobs, a.write_behind_waits), (5, 1));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = StoreStats {
            user_pages_written: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, StoreStats::default());
    }

    #[test]
    fn atomic_stats_snapshot_and_reset() {
        let a = AtomicStats::default();
        AtomicStats::bump(&a.user_pages_written);
        AtomicStats::add(&a.user_bytes_written, 100);
        AtomicStats::bump(&a.segments_cleaned);
        a.add_emptiness(0.5);
        a.add_emptiness(0.25);
        let s = a.snapshot();
        assert_eq!(s.user_pages_written, 1);
        assert_eq!(s.user_bytes_written, 100);
        assert!((s.emptiness_sum_at_clean - 0.75).abs() < 1e-12);
        a.reset();
        assert_eq!(a.snapshot(), StoreStats::default());
    }

    #[test]
    fn atomic_stats_concurrent_updates_do_not_lose_counts() {
        let a = std::sync::Arc::new(AtomicStats::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    AtomicStats::bump(&a.pages_read);
                }
                for _ in 0..100 {
                    a.add_emptiness(0.125);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = a.snapshot();
        assert_eq!(s.pages_read, 80_000);
        assert!((s.emptiness_sum_at_clean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn per_class_counters_trim_and_merge() {
        let a = AtomicStats::default();
        a.add_class_page(0, 100);
        a.add_class_page(2, 300);
        a.add_class_page(99, 1); // clamps into the last slot
        AtomicStats::bump(&a.gc_class_promotions);
        let s = a.snapshot();
        assert_eq!(s.gc_class_pages_written, vec![1, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(s.gc_class_bytes_written, vec![100, 0, 300, 0, 0, 0, 0, 1]);
        assert_eq!(s.gc_class_promotions, 1);

        // Trailing zeros are trimmed, so a cold-only run stays compact...
        let b = AtomicStats::default();
        b.add_class_page(0, 7);
        assert_eq!(b.snapshot().gc_class_pages_written, vec![1]);
        // ...and merge widens as needed.
        let mut merged = b.snapshot();
        merged.merge(&s);
        assert_eq!(merged.gc_class_pages_written, vec![2, 0, 1, 0, 0, 0, 0, 1]);

        a.reset();
        assert_eq!(a.snapshot(), StoreStats::default());
    }

    #[test]
    fn stats_serialize_roundtrip() {
        let s = StoreStats {
            user_pages_written: 7,
            emptiness_sum_at_clean: 0.25,
            ..Default::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: StoreStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
