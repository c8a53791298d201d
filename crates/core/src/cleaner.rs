//! Cleaning support: extracting the still-live pages of a victim segment and reporting
//! what a cleaning cycle accomplished.
//!
//! The actual cleaning *driver* lives in `store::gc_driver` (it needs the device, the
//! sharded page table, the open segments and the quarantine, and runs concurrently with
//! foreground traffic); the pure part — deciding which of a victim's entries are still
//! current — lives here so it can be tested in isolation.

use crate::freq::carry_forward_gc;
use crate::layout::ParsedSegment;
use crate::types::{PageId, PageLocation, SegmentId, UpdateTick, WriteSeq};
use serde::{Deserialize, Serialize};

/// Summary of one cleaning cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Victim segments that were cleaned and freed.
    pub victims: Vec<SegmentId>,
    /// Live pages relocated.
    pub pages_moved: u64,
    /// Bytes of live payload relocated.
    pub bytes_moved: u64,
    /// Mean emptiness `E` of the victims at cleaning time.
    pub mean_emptiness: f64,
}

impl CleaningReport {
    /// Number of segments freed by the cycle.
    pub fn segments_freed(&self) -> usize {
        self.victims.len()
    }
}

/// One still-live page of a victim: *where* it lives in the victim image, not a copy of
/// it. The driver appends `image[loc.offset..][..loc.len]` straight into a GC output
/// builder, and `loc` doubles as the location the page must still occupy when the
/// relocation is committed (the cleaner's conflict check is a page-table
/// compare-and-swap against it).
///
/// `loc.write_seq` is the per-page write sequence of the copy being relocated. A GC
/// relocation *keeps* this sequence (it moves an existing version, it does not create a
/// new one), so that after a crash, recovery — which keeps the copy with the largest
/// `(write_seq, seal_seq)` — can never prefer a relocated stale copy over a user write
/// that raced the relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivePage {
    /// The logical page.
    pub page: PageId,
    /// Where the page lives in the victim (and in the victim's image).
    pub loc: PageLocation,
    /// The victim's `up2`, carried forward onto the relocated copy (paper §5.2.2,
    /// "Garbage Collection Writes").
    pub up2: UpdateTick,
}

/// The live pages of one victim segment, ready to be relocated.
#[derive(Debug)]
pub struct VictimLivePages {
    /// The victim segment.
    pub victim: SegmentId,
    /// The still-current pages, in entry-table order.
    pub pages: Vec<LivePage>,
    /// Tombstones recorded in the victim, deduplicated per page (largest write seq
    /// kept), in ascending page order. The driver must re-emit each one into a GC output
    /// stream unless the page has since been recreated: dropping a tombstone while an
    /// older copy of the page survives in a lower-seal-seq segment would let scan
    /// recovery resurrect the deleted page once this victim's slot is reused.
    pub tombstones: Vec<(PageId, WriteSeq)>,
}

/// Walk a victim segment's entry table and list every page that is *still current*
/// according to the supplied page-table check (a [`crate::mapping::PageTable`], the
/// store's sharded table, or anything else answering "is this page still at this
/// location?"). No payload is touched: the result points into the image `parsed` was
/// decoded from.
///
/// An entry is stale (skipped) if the page has since been overwritten, deleted, or the
/// entry is a tombstone.
pub fn collect_live_pages<F>(
    victim: SegmentId,
    parsed: &ParsedSegment,
    is_current: F,
    victim_up2: UpdateTick,
) -> VictimLivePages
where
    F: Fn(PageId, &PageLocation) -> bool,
{
    let mut pages = Vec::new();
    let mut tombstones: crate::util::FxHashMap<PageId, WriteSeq> = Default::default();
    for e in &parsed.entries {
        if e.is_tombstone() {
            // Keep only the newest delete record per page: an older tombstone is
            // superseded by the newer one within the same segment.
            let ws = tombstones.entry(e.page_id).or_insert(e.write_seq);
            *ws = (*ws).max(e.write_seq);
            continue;
        }
        let loc = PageLocation {
            segment: victim,
            offset: e.offset,
            len: e.len,
            write_seq: e.write_seq,
        };
        if is_current(e.page_id, &loc) {
            pages.push(LivePage {
                page: e.page_id,
                loc,
                up2: carry_forward_gc(victim_up2),
            });
        }
    }
    let mut tombstones: Vec<(PageId, WriteSeq)> = tombstones.into_iter().collect();
    tombstones.sort_unstable_by_key(|&(p, _)| p);
    VictimLivePages {
        victim,
        pages,
        tombstones,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{decode_segment, SegmentBuilder};
    use crate::mapping::PageTable;
    use crate::types::PageLocation;

    /// The bytes a collected page points at in the victim image.
    fn payload<'a>(image: &'a [u8], live: &LivePage) -> &'a [u8] {
        &image[live.loc.offset as usize..][..live.loc.len as usize]
    }

    /// Build a small segment image holding three pages and a tombstone, then check that
    /// only the pages the mapping still points at are collected — as locations into
    /// that image, not copies.
    #[test]
    fn collects_only_current_pages() {
        let mut b = SegmentBuilder::new(4096);
        let off_a = b.push_page(1, 10, b"aaaa");
        let _off_b = b.push_page(2, 11, b"bbbb");
        let off_c = b.push_page(3, 12, b"cccccc");
        b.push_tombstone(4, 13);
        let (image, _) = b.finish(5, 100, 40);
        let parsed = decode_segment(SegmentId(7), &image).unwrap().unwrap();

        let at = |segment, offset, len, write_seq| PageLocation {
            segment: SegmentId(segment),
            offset,
            len,
            write_seq,
        };
        let mut mapping = PageTable::new();
        // Page 1 still lives here; page 2 was overwritten elsewhere; page 3 lives here.
        mapping.insert(1, at(7, off_a, 4, 10));
        mapping.insert(2, at(9, 0, 4, 20));
        mapping.insert(3, at(7, off_c, 6, 12));

        let live = collect_live_pages(SegmentId(7), &parsed, |p, l| mapping.is_current(p, l), 40);
        assert_eq!(live.victim, SegmentId(7));
        // Exactly the mapping's own locations come back (so the commit-time
        // compare-and-swap can use them as its expected value), carrying the original
        // write sequences — not fresh ones — and the victim's up2.
        assert_eq!(
            live.pages,
            [
                LivePage {
                    page: 1,
                    loc: at(7, off_a, 4, 10),
                    up2: 40
                },
                LivePage {
                    page: 3,
                    loc: at(7, off_c, 6, 12),
                    up2: 40
                },
            ]
        );
        // ...and they address the payloads in the image the table was decoded from.
        assert_eq!(payload(&image, &live.pages[0]), b"aaaa");
        assert_eq!(payload(&image, &live.pages[1]), b"cccccc");
        // The victim's tombstone surfaces so the driver can preserve the delete fact.
        assert_eq!(live.tombstones, vec![(4, 13)]);
    }

    #[test]
    fn fully_stale_victim_yields_nothing() {
        let mut b = SegmentBuilder::new(2048);
        b.push_page(1, 1, b"x");
        b.push_page(2, 2, b"y");
        let (image, _) = b.finish(1, 10, 5);
        let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
        let mapping = PageTable::new(); // nothing is live
        let live = collect_live_pages(SegmentId(0), &parsed, |p, l| mapping.is_current(p, l), 5);
        assert!(live.pages.is_empty());
        assert!(live.tombstones.is_empty());
    }

    /// Delete, recreate, delete again: only the newest tombstone per page survives
    /// collection, and pages with both a live copy and an older tombstone in the same
    /// segment report both facts (the driver resolves which one wins at commit time).
    #[test]
    fn tombstones_dedupe_to_newest_write_seq() {
        let mut b = SegmentBuilder::new(4096);
        b.push_tombstone(5, 2);
        b.push_page(5, 4, b"back");
        b.push_tombstone(5, 6);
        b.push_tombstone(9, 3);
        let (image, _) = b.finish(2, 50, 10);
        let parsed = decode_segment(SegmentId(1), &image).unwrap().unwrap();
        let mapping = PageTable::new();
        let live = collect_live_pages(SegmentId(1), &parsed, |p, l| mapping.is_current(p, l), 10);
        assert!(live.pages.is_empty());
        assert_eq!(live.tombstones, vec![(5, 6), (9, 3)]);
    }

    #[test]
    fn same_page_written_twice_in_one_segment_only_newest_copy_is_live() {
        let mut b = SegmentBuilder::new(2048);
        let _old = b.push_page(8, 1, b"old!");
        let new = b.push_page(8, 2, b"new!");
        let (image, _) = b.finish(1, 10, 5);
        let parsed = decode_segment(SegmentId(3), &image).unwrap().unwrap();
        let mut mapping = PageTable::new();
        mapping.insert(
            8,
            PageLocation {
                segment: SegmentId(3),
                offset: new,
                len: 4,
                write_seq: 2,
            },
        );
        let live = collect_live_pages(SegmentId(3), &parsed, |p, l| mapping.is_current(p, l), 5);
        assert_eq!(live.pages.len(), 1);
        assert_eq!(payload(&image, &live.pages[0]), b"new!");
    }

    #[test]
    fn cleaning_report_counts_freed_segments() {
        let r = CleaningReport {
            victims: vec![SegmentId(1), SegmentId(2)],
            pages_moved: 10,
            bytes_moved: 100,
            mean_emptiness: 0.5,
        };
        assert_eq!(r.segments_freed(), 2);
    }
}
