//! Crash recovery: full-device scan, or checkpoint-anchored bounded log-tail replay.
//!
//! Because every segment is self-describing (a chain of checksummed extents, each a
//! header + entry table, see [`crate::layout`]), the page table can always be rebuilt
//! from the device alone: replay every segment's entries, keep the newest version of
//! each page (largest `(write_seq, seal_seq)` pair) and honour tombstones. Segment
//! metadata (`A`, `C`, `up2`) is then derived from the final page table plus the headers.
//!
//! **Recovery reads fronts, never payloads.** All it needs of a slot is the extent chain
//! at the slot's front — extents grow up from offset 0, payloads down from the end. Each
//! front is read through [`SegmentDevice::read_range`] in a prefix that grows until the
//! chain ends ([`layout::read_front`]): a first read sized for one full extent of
//! `page_bytes` pages ([`layout::front_bytes`]: 12 KiB for 2 MiB segments of 4 KiB
//! pages), then only the missing bytes, each read at least doubling the prefix. A scan
//! therefore costs in proportion to the entries on the device, not to its bytes (a
//! 512 MiB device of 4 KiB pages reads about 6 MiB), and [`layout::decode_front`] — the
//! decoder the cleaner runs on whole images — applies the same rules to the prefix.
//! [`crate::StoreStats::recovery_bytes_read`] reports what the last recovery read.
//! The page table is built once: the newest versions are kept in the page table's own
//! shards as the [`PageLocation`]s it holds — a segment's seal sequence, which breaks
//! ties between copies of one write, is read from a per-segment array — and each
//! shard's map, its tombstones dropped in place, is handed to the store whole.
//!
//! A slot's extent chain is replayed up to the first extent that fails validation: a
//! persist point whose write never completed was never acknowledged, so dropping it —
//! whole — is exactly "the flush that never returned". A segment that was still open
//! when the process died is installed as *sealed* with whatever prefix of its chain is
//! valid; it is never reopened for appends. A device written in another format version
//! is refused with [`Error::FormatVersion`] rather than scanned as if corrupt.
//!
//! Deletions are durable under this rule because the cleaner never drops a delete fact
//! without proof of redundancy: when a victim holding a tombstone is cleaned, the
//! tombstone is re-emitted into a GC output stream (keeping its write sequence) unless
//! the page has been recreated or a committed checkpoint's frontier covers the victim —
//! see `store::gc_driver` — so no segment-slot reuse can leave an older copy of an
//! ever-deleted page as the newest surviving record. Note the checkpoint-covered drop
//! is only sound for *checkpoint-anchored* recovery: once such tombstones have been
//! dropped, a raw full scan of the device may resurrect their pages from older copies,
//! which is why a store that checkpoints must be reopened through its journal.
//!
//! [`recover_from_checkpoint`] avoids the full scan: a checkpoint journal (see
//! [`crate::checkpoint`]) carries the page table and the sealed-segment metadata up to a
//! *seal-sequence frontier*; recovery reads only the fixed-size header of every slot and
//! decodes the fronts of just the segments sealed *after* the frontier, replaying them on
//! top of the checkpoint state with the same `(write_seq, seal_seq)` rule. Checkpoint
//! entries are ranked with their owning segment's seal sequence, so a post-frontier GC
//! copy of a checkpointed page (same write seq, later seal) correctly supersedes the
//! checkpoint entry, while a stale post-frontier copy (lower write seq) never does.

use crate::checkpoint::{read_journal, JournalCheckpoint};
use crate::config::StoreConfig;
use crate::device::SegmentDevice;
use crate::error::{Error, Result};
use crate::freq::Up2Mode;
use crate::layout::{self, ParsedSegment};
use crate::mapping::{shard_of, PageTable, PAGE_TABLE_SHARDS};
use crate::segment::{SegmentMeta, SegmentTable};
use crate::stats::AtomicStats;
use crate::store::LogStore;
use crate::types::{PageId, PageLocation, SealSeq, SegmentId, UpdateTick, WriteSeq};
use crate::util::FxHashMap;
use std::collections::hash_map::Entry;

/// Outcome of scanning a device.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Segments that decoded as sealed data.
    pub sealed_segments: usize,
    /// Segments that were blank (never written or erased).
    pub blank_segments: usize,
    /// Segments that looked like data but failed validation and were skipped.
    pub corrupt_segments: Vec<SegmentId>,
    /// Live pages reconstructed.
    pub live_pages: usize,
    /// Segments whose entry tables were fully decoded and replayed. A full scan replays
    /// every sealed segment; checkpoint-anchored recovery only the post-frontier tail.
    pub replayed_segments: usize,
}

/// The newest version of every page replayed so far — the largest `(write_seq,
/// seal_seq)` wins, tombstones included — kept in the page table's shards as the very
/// [`PageLocation`]s the page table holds: the write sequence is in the location, the
/// seal sequence is its segment's (`seal`, indexed by segment id), and a tombstone is a
/// location of length [`layout::TOMBSTONE_LEN`]. The rule is a maximum, so the order
/// segments are replayed in does not matter.
struct Newest {
    shards: Vec<FxHashMap<PageId, PageLocation>>,
    seal: Vec<SealSeq>,
}

impl Newest {
    /// An empty map for a device of `num_segments` slots; `seal` must be set for every
    /// segment before a location in it is offered.
    fn new(num_segments: usize) -> Self {
        Self {
            shards: (0..PAGE_TABLE_SHARDS)
                .map(|_| FxHashMap::default())
                .collect(),
            seal: vec![0; num_segments],
        }
    }

    fn rank(&self, loc: &PageLocation) -> (WriteSeq, SealSeq) {
        (loc.write_seq, self.seal[loc.segment.index()])
    }

    fn offer(&mut self, page: PageId, candidate: PageLocation) {
        let rank = self.rank(&candidate);
        match self.shards[shard_of(page)].entry(page) {
            Entry::Occupied(mut cur) => {
                let held = cur.get();
                let held = (held.write_seq, self.seal[held.segment.index()]);
                if held < rank {
                    cur.insert(candidate);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(candidate);
            }
        }
    }

    /// Offer every entry of a decoded segment; returns the largest write sequence seen.
    fn replay(&mut self, id: SegmentId, parsed: &ParsedSegment) -> WriteSeq {
        self.seal[id.index()] = parsed.header.seal_seq;
        let mut max_write_seq = 0;
        for e in &parsed.entries {
            max_write_seq = max_write_seq.max(e.write_seq);
            self.offer(
                e.page_id,
                PageLocation {
                    segment: id,
                    offset: e.offset,
                    len: e.len,
                    write_seq: e.write_seq,
                },
            );
        }
        max_write_seq
    }

    /// The live pages as a page table — each shard's map kept, its tombstones dropped
    /// in place — and every segment's live `(bytes, pages)`, indexed by segment id.
    fn into_live(self) -> (PageTable, Vec<(u64, u64)>) {
        let mut live = vec![(0u64, 0u64); self.seal.len()];
        let mut shards = self.shards;
        for map in &mut shards {
            map.retain(|_, loc| {
                if loc.len == layout::TOMBSTONE_LEN {
                    return false;
                }
                let seg = &mut live[loc.segment.index()];
                seg.0 += loc.len as u64;
                seg.1 += 1;
                true
            });
        }
        (PageTable::from_shards(shards), live)
    }
}

/// Bytes every tombstone entry of a replayed segment re-acquires (matching the write
/// path's accounting: until a checkpoint covers it, a delete fact pins its entry slot
/// and the segment must not look emptier than it is).
fn tombstone_bytes(parsed: &ParsedSegment) -> u64 {
    parsed.entries.iter().filter(|e| e.is_tombstone()).count() as u64 * layout::ENTRY_SIZE as u64
}

/// Install a recovered segment as sealed, with its live `(bytes, pages)` from the final
/// page table plus its tombstone charge.
fn install_sealed(
    table: &mut SegmentTable,
    id: SegmentId,
    capacity: u64,
    log_id: u16,
    (seal_seq, sealed_at, up2): (SealSeq, UpdateTick, UpdateTick),
    (live_bytes, live_pages): (u64, u64),
    tombstone_bytes: u64,
) {
    let mut meta = SegmentMeta::new_open(id, capacity, log_id, Up2Mode::OnOverwrite);
    meta.live_bytes = live_bytes + tombstone_bytes;
    meta.tombstone_bytes = tombstone_bytes;
    meta.live_pages = live_pages;
    meta.seal(seal_seq, sealed_at, up2, Up2Mode::OnOverwrite);
    table.install_sealed(meta);
}

/// Reads slot fronts for one recovery and counts the bytes it read.
struct FrontReader<'a> {
    device: &'a dyn SegmentDevice,
    segment_bytes: usize,
    first_read: usize,
    bytes_read: u64,
}

impl<'a> FrontReader<'a> {
    fn new(device: &'a dyn SegmentDevice, page_bytes: usize) -> Self {
        let segment_bytes = device.geometry().segment_bytes;
        Self {
            device,
            segment_bytes,
            first_read: layout::front_bytes(segment_bytes, page_bytes),
            bytes_read: 0,
        }
    }

    fn read(&mut self, seg: SegmentId, offset: usize, len: usize) -> Result<Vec<u8>> {
        let bytes = self.device.read_range(seg, offset as u32, len as u32)?;
        self.bytes_read += bytes.len() as u64;
        Ok(bytes)
    }

    /// Decode a slot's extent chain from its front, going on from whatever `front`
    /// already holds of it. The outer error is a failed read, the inner result the
    /// decode verdict ([`layout::read_front`]).
    fn chain(
        &mut self,
        seg: SegmentId,
        mut front: Vec<u8>,
    ) -> Result<Result<Option<ParsedSegment>>> {
        let (segment_bytes, first_read) = (self.segment_bytes, self.first_read);
        layout::read_front(seg, segment_bytes, first_read, &mut front, |offset, len| {
            self.read(seg, offset, len)
        })
    }
}

/// What the first extent header of a slot says about it.
pub(crate) enum Slot {
    /// Never written (or erased).
    Blank,
    /// The header does not decode: skipped, never fatal.
    Corrupt,
    Written(layout::SegmentHeader),
}

/// Decode a slot's first extent header from its first [`layout::HEADER_SIZE`] bytes. A
/// header of another on-device format version is an error ([`Error::FormatVersion`]),
/// not a corrupt slot.
fn classify(seg: SegmentId, head: &[u8]) -> Result<Slot> {
    match layout::decode_header(seg, head) {
        Ok(Some(first)) => Ok(Slot::Written(first)),
        Ok(None) => Ok(Slot::Blank),
        Err(e @ Error::FormatVersion { .. }) => Err(e),
        Err(_) => Ok(Slot::Corrupt),
    }
}

/// Read and decode the first extent header of a slot (see [`classify`]).
pub(crate) fn probe_slot(device: &dyn SegmentDevice, seg: SegmentId) -> Result<Slot> {
    classify(seg, &device.read_range(seg, 0, layout::HEADER_SIZE as u32)?)
}

/// Rebuild a [`LogStore`] from an existing device by scanning every slot's front.
pub fn recover(config: StoreConfig, device: Box<dyn SegmentDevice>) -> Result<LogStore> {
    let (store, _report) = recover_with_report(config, device)?;
    Ok(store)
}

/// [`recover`] but also returns a [`ScanReport`] describing what was found.
pub fn recover_with_report(
    config: StoreConfig,
    device: Box<dyn SegmentDevice>,
) -> Result<(LogStore, ScanReport)> {
    config.validate()?;
    let mut report = ScanReport::default();

    // Pass 1: decode every slot's extent chain from its front (payloads stay on device).
    let mut reader = FrontReader::new(device.as_ref(), config.page_bytes);
    let mut parsed_segments: Vec<(SegmentId, ParsedSegment)> = Vec::new();
    for i in 0..config.num_segments {
        let id = SegmentId(i as u32);
        match reader.chain(id, Vec::new())? {
            Ok(Some(p)) => {
                report.sealed_segments += 1;
                parsed_segments.push((id, p));
            }
            Ok(None) => report.blank_segments += 1,
            Err(e @ Error::FormatVersion { .. }) => return Err(e),
            Err(_) => report.corrupt_segments.push(id),
        }
    }
    let bytes_read = reader.bytes_read;

    // Pass 2: replay every entry, newest version of each page wins.
    let mut newest = Newest::new(config.num_segments);
    let mut max_write_seq: WriteSeq = 0;
    let mut max_unow = 0;
    for (id, p) in &parsed_segments {
        max_unow = max_unow.max(p.header.sealed_at);
        max_write_seq = max_write_seq.max(newest.replay(*id, p));
    }

    // Pass 3: the page table and per-segment live statistics.
    let (mapping, live) = newest.into_live();
    report.live_pages = mapping.len();
    report.replayed_segments = report.sealed_segments;

    let capacity = layout::payload_capacity(config.segment_bytes, config.page_bytes) as u64;
    let mut table = SegmentTable::new(config.num_segments);
    for (id, p) in &parsed_segments {
        let h = &p.header;
        install_sealed(
            &mut table,
            *id,
            capacity,
            h.log_id,
            (h.seal_seq, h.sealed_at, h.up2),
            live[id.index()],
            tombstone_bytes(p),
        );
    }

    let mut store = LogStore::open_with_device(config, device)?;
    store.install_recovered_state(mapping, table, max_unow, max_write_seq + 1, bytes_read);
    Ok((store, report))
}

/// Rebuild a [`LogStore`] from a checkpoint journal plus the device, replaying only the
/// bounded log tail sealed after the checkpoint's frontier.
pub fn recover_from_checkpoint(
    config: StoreConfig,
    device: Box<dyn SegmentDevice>,
    path: &std::path::Path,
) -> Result<LogStore> {
    let (store, _report) = recover_from_checkpoint_with_report(config, device, path)?;
    Ok(store)
}

/// [`recover_from_checkpoint`] but also returns a [`ScanReport`] describing what was
/// read: `replayed_segments` counts only the post-frontier tail, while
/// `sealed_segments` counts everything installed (checkpoint records plus tail).
pub fn recover_from_checkpoint_with_report(
    config: StoreConfig,
    device: Box<dyn SegmentDevice>,
    path: &std::path::Path,
) -> Result<(LogStore, ScanReport)> {
    config.validate()?;
    let cp: JournalCheckpoint = read_journal(path)?;
    if cp.num_segments != config.num_segments as u64 {
        return Err(Error::CorruptCheckpoint(format!(
            "journal describes a device of {} segments, config says {}",
            cp.num_segments, config.num_segments
        )));
    }
    let mut records: FxHashMap<SegmentId, crate::checkpoint::SegmentRecord> = FxHashMap::default();
    for s in &cp.segments {
        if s.id as usize >= config.num_segments {
            return Err(Error::CorruptCheckpoint(format!(
                "segment record {} beyond device size {}",
                s.id, config.num_segments
            )));
        }
        records.insert(SegmentId(s.id), *s);
    }

    let mut report = ScanReport::default();

    // Pass 1: read only the fixed-size first header of every slot; decode the fronts of
    // just the segments sealed (or first persisted) after the checkpoint frontier, going
    // on from the header already read. A recorded slot whose on-device header still
    // predates the frontier keeps its checkpoint metadata without any further I/O; a
    // post-frontier header means the slot was written (or reused and rewritten) after
    // the checkpoint and its entries must be replayed.
    let mut reader = FrontReader::new(device.as_ref(), config.page_bytes);
    let mut tail: Vec<(SegmentId, ParsedSegment)> = Vec::new();
    for i in 0..config.num_segments {
        let id = SegmentId(i as u32);
        let head = reader.read(id, 0, layout::HEADER_SIZE)?;
        match classify(id, &head)? {
            Slot::Blank => report.blank_segments += 1,
            Slot::Corrupt => report.corrupt_segments.push(id),
            // Every extent of a chain carries the same sequence, so the first extent's
            // header decides whether the slot belongs to the tail.
            Slot::Written(first) if first.seal_seq > cp.frontier => {
                match reader.chain(id, head)? {
                    Ok(Some(p)) => tail.push((id, p)),
                    // The header round-tripped but its entry table does not decode: torn
                    // first write of a post-checkpoint segment. Its contents were never
                    // acknowledged durable, so skipping it is correct.
                    Ok(None) | Err(_) => report.corrupt_segments.push(id),
                }
            }
            Slot::Written(_) => {}
        }
    }
    report.replayed_segments = tail.len();
    let bytes_read = reader.bytes_read;

    // Pass 2: seed the newest versions from the checkpoint, ranking each entry with its
    // owning segment's seal sequence, then replay the tail on top. A slot resealed after
    // the frontier no longer holds what the checkpoint recorded in it — the cleaner
    // moved or dropped every live page before reusing it, into the tail — so its
    // checkpoint entries are skipped: ranked with the slot's new seal sequence, a stale
    // one could outrank the relocated copy.
    let mut newest = Newest::new(config.num_segments);
    let mut in_tail = vec![false; config.num_segments];
    for (id, r) in &records {
        newest.seal[id.index()] = r.seal_seq;
    }
    for (id, _) in &tail {
        in_tail[id.index()] = true;
    }
    for p in &cp.pages {
        let seg = SegmentId(p.segment);
        if !records.contains_key(&seg) {
            return Err(Error::CorruptCheckpoint(format!(
                "page {} references segment {} absent from the checkpoint",
                p.page, p.segment
            )));
        }
        if in_tail[seg.index()] {
            continue;
        }
        newest.offer(
            p.page,
            PageLocation {
                segment: seg,
                offset: p.offset,
                len: p.len,
                write_seq: p.write_seq,
            },
        );
    }
    let mut max_write_seq: WriteSeq = 0;
    let mut max_replayed_seal: SealSeq = 0;
    let mut max_unow = 0;
    for (id, p) in &tail {
        max_unow = max_unow.max(p.header.sealed_at);
        max_replayed_seal = max_replayed_seal.max(p.header.seal_seq);
        max_write_seq = max_write_seq.max(newest.replay(*id, p));
    }

    // Pass 3: final page table, and per-segment live stats from the *final* mapping
    // (a tail segment may have relocated pages away from recorded segments).
    let (mapping, live) = newest.into_live();
    report.live_pages = mapping.len();

    let capacity = layout::payload_capacity(config.segment_bytes, config.page_bytes) as u64;
    let mut table = SegmentTable::new(config.num_segments);
    for (id, p) in &tail {
        // Tail segments recompute their tombstone charge from their entry tables.
        let h = &p.header;
        install_sealed(
            &mut table,
            *id,
            capacity,
            h.log_id,
            (h.seal_seq, h.sealed_at, h.up2),
            live[id.index()],
            tombstone_bytes(p),
        );
    }
    let mut resealed = 0;
    for (id, r) in &records {
        if in_tail[id.index()] {
            resealed += 1;
            continue; // the slot was resealed after the checkpoint; the header wins
        }
        // Every recorded segment was sealed at or before the journal's frontier, so
        // its tombstones are covered by the very checkpoint we are recovering from
        // (committing a checkpoint uncharges everything it captured): install it
        // uncharged, mirroring the in-memory state right after that commit.
        install_sealed(
            &mut table,
            *id,
            r.capacity_bytes,
            r.log_id,
            (r.seal_seq, r.sealed_at, r.up2),
            live[id.index()],
            0,
        );
    }
    report.sealed_segments = report.replayed_segments + records.len() - resealed;

    table.set_next_seal_seq(cp.next_seal_seq.max(max_replayed_seal + 1));
    let next_write_seq = cp.next_write_seq.max(max_write_seq + 1);
    let unow = cp.unow.max(max_unow);

    let replayed = report.replayed_segments as u64;
    let mut store = LogStore::open_with_device(config, device)?;
    store.install_recovered_state(mapping, table, unow, next_write_seq, bytes_read);
    // The journal we just recovered from is itself a committed checkpoint: seed the
    // frontier so the cleaner may keep dropping covered tombstones immediately.
    store.set_checkpoint_frontier(cp.frontier);
    AtomicStats::add(&store.atomic_stats().recovery_segments_replayed, replayed);
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::policy::PolicyKind;
    use crate::StoreConfig;

    fn config() -> StoreConfig {
        StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc)
    }

    #[test]
    fn recover_empty_device_yields_empty_store() {
        let cfg = config();
        let dev = MemDevice::new(cfg.segment_bytes, cfg.num_segments);
        let (store, report) = recover_with_report(cfg, Box::new(dev)).unwrap();
        assert_eq!(store.live_pages(), 0);
        assert_eq!(report.sealed_segments, 0);
        assert_eq!(report.blank_segments, store.config().num_segments);
    }

    #[test]
    fn recover_after_flush_restores_all_pages() {
        let cfg = config();
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        for i in 0..200u64 {
            store.put(i, format!("page-{i}").as_bytes()).unwrap();
        }
        // Overwrite some so stale copies exist on the device.
        for i in 0..50u64 {
            store.put(i, format!("new-{i}").as_bytes()).unwrap();
        }
        store.delete(7).unwrap();
        store.flush().unwrap();

        let device = store.into_device();
        let (recovered, report) = recover_with_report(cfg, device).unwrap();
        assert!(report.sealed_segments > 0);
        assert_eq!(recovered.live_pages(), 199);
        assert!(
            recovered.get(7).unwrap().is_none(),
            "deleted page resurrected"
        );
        for i in 0..50u64 {
            if i == 7 {
                continue; // deleted above
            }
            assert_eq!(
                recovered.get(i).unwrap().unwrap().as_ref(),
                format!("new-{i}").as_bytes(),
                "page {i} did not recover its newest version"
            );
        }
        for i in 50..200u64 {
            if i == 7 {
                continue;
            }
            assert_eq!(
                recovered.get(i).unwrap().unwrap().as_ref(),
                format!("page-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn recovery_survives_cleaning_having_run() {
        let cfg = config();
        let pages = cfg.logical_pages_for_fill_factor(0.5) as u64;
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        // Full-size payloads so segments actually fill and cleaning is forced; the first
        // bytes identify the version so recovery correctness can be checked.
        let page_bytes = cfg.page_bytes;
        let payload = move |i: u64, version: u64| {
            let mut v = vec![0u8; page_bytes];
            v[..8].copy_from_slice(&i.to_le_bytes());
            v[8..16].copy_from_slice(&version.to_le_bytes());
            v
        };
        // Pre-fill every page, then overwrite in a scrambled order so victim segments end
        // up with a checkerboard of live and dead pages.
        let mut expected = vec![0u64; pages as usize];
        for i in 0..pages {
            store.put(i, &payload(i, 0)).unwrap();
        }
        let overwrites = cfg.physical_pages() as u64 * 3;
        for n in 0..overwrites {
            let page = crate::util::mix64(n) % pages;
            let version = n + 1;
            store.put(page, &payload(page, version)).unwrap();
            expected[page as usize] = version;
        }
        store.flush().unwrap();
        assert!(
            store.stats().cleaning_cycles > 0,
            "test needs cleaning to have happened"
        );
        assert!(
            store.stats().gc_pages_written > 0,
            "test needs live pages to have moved"
        );

        let device = store.into_device();
        let (recovered, _) = recover_with_report(cfg, device).unwrap();
        assert_eq!(recovered.live_pages() as u64, pages);
        for i in 0..pages {
            assert_eq!(
                recovered.get(i).unwrap().unwrap().as_ref(),
                payload(i, expected[i as usize]).as_slice(),
                "page {i} lost its newest version across cleaning + recovery"
            );
        }
        // The recovered store keeps working (writes, cleaning, reads).
        for i in 0..pages {
            recovered.put(i, &payload(i, u64::MAX)).unwrap();
        }
        recovered.flush().unwrap();
        assert_eq!(
            recovered.get(0).unwrap().unwrap().as_ref(),
            payload(0, u64::MAX).as_slice()
        );
    }

    #[test]
    fn unflushed_writes_are_lost_as_documented() {
        let cfg = config();
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        store.put(1, b"durable").unwrap();
        store.flush().unwrap();
        store.put(2, b"volatile").unwrap(); // never flushed
        let device = store.into_device();
        let (recovered, _) = recover_with_report(cfg, device).unwrap();
        assert!(recovered.get(1).unwrap().is_some());
        assert!(recovered.get(2).unwrap().is_none());
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lss-recovery-{tag}-{}-{n}.ckpt",
            std::process::id()
        ))
    }

    /// Checkpoint, churn, crash-recover from the journal: only the post-frontier tail is
    /// replayed, and the result is byte-exact — including deletes on both sides of the
    /// checkpoint staying dead.
    #[test]
    fn checkpoint_recovery_replays_bounded_tail_and_is_exact() {
        let cfg = config();
        let path = temp_journal_path("tail");
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        let pages = cfg.logical_pages_for_fill_factor(0.4) as u64;
        let page_bytes = cfg.page_bytes;
        let payload = move |i: u64, version: u64| {
            let mut v = vec![0u8; page_bytes];
            v[..8].copy_from_slice(&i.to_le_bytes());
            v[8..16].copy_from_slice(&version.to_le_bytes());
            v
        };
        for i in 0..pages {
            store.put(i, &payload(i, 0)).unwrap();
        }
        for i in (0..pages).step_by(17) {
            store.delete(i).unwrap();
        }
        store.flush().unwrap();
        let stats = store.checkpoint_log_to(&path).unwrap();
        assert!(stats.shards_written > 0);

        // Post-checkpoint tail: overwrite a slice of pages, delete another stripe.
        for i in 0..pages / 10 {
            if i % 17 != 0 {
                store.put(i, &payload(i, 1)).unwrap();
            }
        }
        for i in (0..pages).step_by(13) {
            store.delete(i).unwrap();
        }
        store.flush().unwrap();

        let device = store.into_device();
        let (recovered, report) =
            recover_from_checkpoint_with_report(cfg.clone(), device, &path).unwrap();
        assert!(
            report.replayed_segments > 0,
            "churn must have sealed a tail"
        );
        assert!(
            report.replayed_segments < report.sealed_segments,
            "replay must be bounded: {} replayed of {} sealed",
            report.replayed_segments,
            report.sealed_segments
        );
        assert_eq!(
            recovered.stats().recovery_segments_replayed,
            report.replayed_segments as u64
        );
        for i in 0..pages {
            let got = recovered.get(i).unwrap();
            if i % 17 == 0 || i % 13 == 0 {
                assert!(got.is_none(), "deleted page {i} resurrected after recovery");
            } else if i < pages / 10 {
                assert_eq!(got.unwrap().as_ref(), payload(i, 1).as_slice(), "page {i}");
            } else {
                assert_eq!(got.unwrap().as_ref(), payload(i, 0).as_slice(), "page {i}");
            }
        }
        // The recovered store keeps working.
        recovered.put(0, &payload(0, 7)).unwrap();
        recovered.flush().unwrap();
        assert_eq!(
            recovered.get(0).unwrap().unwrap().as_ref(),
            payload(0, 7).as_slice()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Back-to-back checkpoints into the same journal write only dirtied shards, and the
    /// merged journal still recovers correctly.
    #[test]
    fn incremental_checkpoints_skip_clean_shards() {
        let cfg = config();
        let path = temp_journal_path("incr");
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        for i in 0..300u64 {
            store.put(i, format!("v-{i}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        let first = store.checkpoint_log_to(&path).unwrap();
        assert!(first.shards_written > 0);

        // Nothing changed: the next checkpoint writes no shards at all.
        let idle = store.checkpoint_log_to(&path).unwrap();
        assert_eq!(idle.shards_written, 0);
        assert_eq!(
            idle.shards_skipped,
            crate::mapping::PAGE_TABLE_SHARDS as u64
        );

        // A single page dirties exactly its shard.
        store.put(3, b"rewritten").unwrap();
        store.flush().unwrap();
        let third = store.checkpoint_log_to(&path).unwrap();
        assert!(third.shards_written >= 1);
        assert!(third.shards_written < crate::mapping::PAGE_TABLE_SHARDS as u64);

        let device = store.into_device();
        let recovered = recover_from_checkpoint(cfg, device, &path).unwrap();
        assert_eq!(recovered.get(3).unwrap().unwrap().as_ref(), b"rewritten");
        assert_eq!(recovered.get(7).unwrap().unwrap().as_ref(), b"v-7");
        assert_eq!(recovered.live_pages(), 300);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_recovery_rejects_wrong_device_size() {
        let cfg = config();
        let path = temp_journal_path("size");
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        store.put(1, b"x").unwrap();
        store.flush().unwrap();
        store.checkpoint_log_to(&path).unwrap();
        let device = store.into_device();
        let mut wrong = cfg.clone();
        wrong.num_segments += 1;
        assert!(recover_from_checkpoint(wrong, device, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// What format v1 wrote for a sealed segment with no entries: the same 48-byte
    /// field layout, version 1, plain header CRC.
    fn v1_image(segment_bytes: usize) -> Vec<u8> {
        let (mut image, _) = layout::SegmentBuilder::new(segment_bytes).finish(1, 1, 1);
        image[4..6].copy_from_slice(&1u16.to_le_bytes());
        let crc = crate::util::crc32c(&image[..44]);
        image[44..48].copy_from_slice(&crc.to_le_bytes());
        image
    }

    /// A device written by format v1 is refused — by the full scan, by the journal
    /// path and by the monolithic checkpoint — instead of recovering as an (almost)
    /// empty store with its segments counted as corrupt.
    #[test]
    fn a_v1_device_is_refused_with_a_typed_error() {
        let cfg = config();
        let refused = |r: Result<LogStore>| match r {
            Err(Error::FormatVersion { found, expected }) => {
                assert_eq!((found, expected), (1, layout::VERSION));
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a v1 device was opened"),
        };
        let v1_device = || {
            let dev = MemDevice::new(cfg.segment_bytes, cfg.num_segments);
            dev.write_segment(SegmentId(3), &v1_image(cfg.segment_bytes))
                .unwrap();
            Box::new(dev)
        };
        refused(recover(cfg.clone(), v1_device()));

        // Checkpoints of a (v2) store, pointed at the v1 device.
        let path = temp_journal_path("v1");
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        for i in 0..100u64 {
            store.put(i, &[7u8; 200]).unwrap();
        }
        store.checkpoint_log_to(&path).unwrap();
        let monolithic = crate::checkpoint::from_json(&store.checkpoint_json().unwrap()).unwrap();
        assert!(monolithic.segments.iter().any(|s| s.id == 3));
        refused(recover_from_checkpoint(cfg.clone(), v1_device(), &path));
        refused(crate::checkpoint::open_from_checkpoint(
            cfg.clone(),
            v1_device(),
            &monolithic,
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_segments_are_skipped_not_fatal() {
        let cfg = config();
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        for i in 0..40u64 {
            store.put(i, b"some data here").unwrap();
        }
        store.flush().unwrap();
        let device = store.into_device();

        // Corrupt one sealed segment's header byte.
        let victim = SegmentId(0);
        let mut image = device.read_segment(victim).unwrap();
        if image[0] != 0 {
            image[10] ^= 0xFF;
            device.write_segment(victim, &image).unwrap();
        }
        let (store2, report) = recover_with_report(cfg, device).unwrap();
        // Recovery completed; the corrupt segment (if it held data) is reported.
        assert!(report.corrupt_segments.len() <= 1);
        let _ = store2;
    }
}
