//! Checkpointing: persist the page table, segment metadata and counters so recovery
//! never needs a raw full-device scan.
//!
//! Two formats share the same record types:
//!
//! * **Monolithic** ([`to_json`] / [`from_json`] / [`open_from_checkpoint`]) — one JSON
//!   document holding the complete state. Cheap to reason about, O(page table) to
//!   write every time; used for clean shutdown/reopen.
//! * **Journal** (`append_to_journal` / `read_journal`) — an append-only JSON-lines
//!   file. Each checkpoint appends the page-table *shards dirtied since the previous
//!   checkpoint* (piggybacking on the 64-way sharding of
//!   [`crate::mapping::ShardedPageTable`]), the sealed-segment records and a commit
//!   record carrying the seal-sequence *frontier*. The reader applies lines only up to
//!   the last valid commit, so a torn tail (crash mid-checkpoint) falls back to the
//!   previous committed checkpoint. [`crate::recovery::recover_from_checkpoint`] then
//!   replays only the segments sealed after the frontier — a bounded log tail — instead
//!   of decoding the whole device.
//!
//! Checkpoints taken through [`crate::LogStore::checkpoint_log_to`] are self-durable
//! (the capture seals open segments and syncs the device first); the monolithic form
//! keeps its historical contract of being meaningful only after
//! [`crate::LogStore::flush`].

use crate::config::StoreConfig;
use crate::device::SegmentDevice;
use crate::error::{Error, Result};
use crate::freq::Up2Mode;
use crate::mapping::PageTable;
use crate::segment::{SegmentMeta, SegmentTable};
use crate::store::{CheckpointSnapshot, LogStore};
use crate::types::{PageId, PageLocation, SegmentId};
use crate::util::FxHashMap;
use serde::{Deserialize, Serialize};

/// Checkpoint format version (bumped to 2 when page records gained their per-page
/// write sequence and checkpoints their seal-sequence frontier).
pub const CHECKPOINT_VERSION: u32 = 2;

/// One live page in the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageRecord {
    /// Logical page id.
    pub page: PageId,
    /// Segment holding the current version.
    pub segment: u32,
    /// Byte offset within the segment.
    pub offset: u32,
    /// Payload length.
    pub len: u32,
    /// Per-page write sequence of this version. Recovery ranks a checkpoint entry as
    /// `(write_seq, owning segment's seal_seq)` against log-tail copies, so a
    /// post-checkpoint GC relocation (same sequence, later seal) supersedes it and a
    /// stale older copy never does.
    pub write_seq: u64,
}

/// One sealed segment in the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// Segment id.
    pub id: u32,
    /// Payload capacity in bytes.
    pub capacity_bytes: u64,
    /// Live payload bytes at checkpoint time (includes the tombstone charge below).
    pub live_bytes: u64,
    /// Portion of `live_bytes` charged to tombstone entries still awaiting coverage
    /// by a committed checkpoint (see [`crate::segment::SegmentMeta::tombstone_bytes`]).
    pub tombstone_bytes: u64,
    /// Live pages at checkpoint time.
    pub live_pages: u64,
    /// Penultimate-update estimate.
    pub up2: u64,
    /// Seal sequence.
    pub seal_seq: u64,
    /// Seal time on the update clock.
    pub sealed_at: u64,
    /// Output log the segment belongs to.
    pub log_id: u16,
}

/// A complete checkpoint of store metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Update-count clock at checkpoint time.
    pub unow: u64,
    /// Next per-page write sequence.
    pub next_write_seq: u64,
    /// Next segment seal sequence.
    pub next_seal_seq: u64,
    /// Seal-sequence frontier: every segment this checkpoint describes was sealed at or
    /// before it (`next_seal_seq - 1` at capture time).
    pub frontier: u64,
    /// All live pages.
    pub pages: Vec<PageRecord>,
    /// All sealed segments.
    pub segments: Vec<SegmentRecord>,
}

/// What one `append_to_journal` (or [`crate::LogStore::checkpoint_log_to`]) wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Page-table shards written by this checkpoint.
    pub shards_written: u64,
    /// Shards skipped because they were clean since the previous checkpoint.
    pub shards_skipped: u64,
}

fn page_record(page: PageId, loc: &PageLocation) -> PageRecord {
    PageRecord {
        page,
        segment: loc.segment.0,
        offset: loc.offset,
        len: loc.len,
        write_seq: loc.write_seq,
    }
}

fn segment_records(snapshot: &CheckpointSnapshot) -> Vec<SegmentRecord> {
    let tombstones: FxHashMap<u32, u64> = snapshot
        .tombstone_bytes
        .iter()
        .map(|&(id, bytes)| (id.0, bytes))
        .collect();
    snapshot
        .sealed
        .iter()
        .map(|s| SegmentRecord {
            id: s.id.0,
            capacity_bytes: s.capacity_bytes,
            live_bytes: s.capacity_bytes - s.free_bytes,
            tombstone_bytes: tombstones.get(&s.id.0).copied().unwrap_or(0),
            live_pages: s.live_pages,
            up2: s.up2,
            seal_seq: s.seal_seq,
            sealed_at: s.sealed_at,
            log_id: s.log_id,
        })
        .collect()
}

/// Serialize a store's metadata to a checkpoint JSON string.
pub fn to_json(store: &LogStore) -> Result<String> {
    // One coherent snapshot: mapping, segment records and counters are captured in a
    // single quiesced critical section, so a cleaning cycle can never reap a victim
    // between the page snapshot and the segment records (which would leave pages
    // referencing a segment the checkpoint does not describe), and the recorded
    // `next_write_seq` is >= every write sequence reachable from the snapshot — a
    // restore can never re-issue a sequence number that is already on disk. The
    // page-table dirty bits are left untouched: a monolithic checkpoint must not steal
    // changes out from under a concurrent incremental journal sequence.
    let snapshot = store.checkpoint_snapshot(false, false)?;
    let pages = snapshot
        .shards
        .iter()
        .flatten()
        .flatten()
        .map(|(page, loc)| page_record(*page, loc))
        .collect();
    let segments = segment_records(&snapshot);
    let cp = Checkpoint {
        version: CHECKPOINT_VERSION,
        unow: snapshot.unow,
        next_write_seq: snapshot.next_write_seq,
        next_seal_seq: snapshot.next_seal_seq,
        frontier: snapshot.frontier,
        pages,
        segments,
    };
    serde_json::to_string(&cp).map_err(|e| Error::CorruptCheckpoint(e.to_string()))
}

/// Parse a checkpoint JSON string.
pub fn from_json(json: &str) -> Result<Checkpoint> {
    let cp: Checkpoint =
        serde_json::from_str(json).map_err(|e| Error::CorruptCheckpoint(e.to_string()))?;
    if cp.version != CHECKPOINT_VERSION {
        return Err(Error::CorruptCheckpoint(format!(
            "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
            cp.version
        )));
    }
    Ok(cp)
}

/// Re-open a cleanly shut down store from a checkpoint plus its device.
///
/// The caller is responsible for ensuring the checkpoint matches the device contents
/// (i.e. the previous process called `flush()`, then `checkpoint_to()`, then wrote
/// nothing more). Use [`crate::LogStore::recover_with_device`] — or the journal form,
/// [`crate::LogStore::recover_with_checkpoint`], which tolerates a log tail — otherwise.
/// The only thing read from the device is the first header of every recorded segment,
/// to refuse a device of another format version ([`Error::FormatVersion`]).
pub fn open_from_checkpoint(
    config: StoreConfig,
    device: Box<dyn SegmentDevice>,
    checkpoint: &Checkpoint,
) -> Result<LogStore> {
    let mut store = LogStore::open_with_device(config.clone(), device)?;

    let mut mapping = PageTable::new();
    for p in &checkpoint.pages {
        if p.segment as usize >= config.num_segments {
            return Err(Error::CorruptCheckpoint(format!(
                "page {} references segment {} beyond device size {}",
                p.page, p.segment, config.num_segments
            )));
        }
        mapping.insert(
            p.page,
            PageLocation {
                segment: SegmentId(p.segment),
                offset: p.offset,
                len: p.len,
                write_seq: p.write_seq,
            },
        );
    }

    let mut table = SegmentTable::new(config.num_segments);
    for s in &checkpoint.segments {
        if s.id as usize >= config.num_segments {
            return Err(Error::CorruptCheckpoint(format!(
                "segment record {} beyond device size {}",
                s.id, config.num_segments
            )));
        }
        crate::recovery::probe_slot(store.device(), SegmentId(s.id))?;
        let mut meta = SegmentMeta::new_open(
            SegmentId(s.id),
            s.capacity_bytes,
            s.log_id,
            Up2Mode::OnOverwrite,
        );
        meta.live_bytes = s.live_bytes;
        meta.tombstone_bytes = s.tombstone_bytes;
        meta.live_pages = s.live_pages;
        meta.seal(s.seal_seq, s.sealed_at, s.up2, Up2Mode::OnOverwrite);
        table.install_sealed(meta);
    }
    table.set_next_seal_seq(checkpoint.next_seal_seq);

    let probed = checkpoint.segments.len() * crate::layout::HEADER_SIZE;
    store.install_recovered_state(
        mapping,
        table,
        checkpoint.unow,
        checkpoint.next_write_seq,
        probed as u64,
    );
    Ok(store)
}

// ---------------------------------------------------------------------------
// The incremental checkpoint journal (JSON lines)
// ---------------------------------------------------------------------------
//
// Line kinds, in append order within one checkpoint:
//
//   {"kind":"base", "version":2, "num_segments":N, "shard_count":64}   (file start only)
//   {"kind":"shard", "shard":i, "pages":[PageRecord...]}               (dirty shards)
//   {"kind":"segments", "segments":[SegmentRecord...]}                 (full set)
//   {"kind":"commit", "frontier":F, "unow":U, "next_write_seq":W,
//    "next_seal_seq":S, "shards_written":K}
//
// The vendored serde derive does not support data-carrying enum variants, so each line
// kind is its own struct with a `kind` tag field, dispatched by peeking at the parsed
// value before deserializing.

#[derive(Debug, Serialize, Deserialize)]
struct BaseLine {
    kind: String,
    version: u32,
    num_segments: u64,
    shard_count: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ShardLine {
    kind: String,
    shard: u64,
    pages: Vec<PageRecord>,
}

#[derive(Debug, Serialize, Deserialize)]
struct SegmentsLine {
    kind: String,
    segments: Vec<SegmentRecord>,
}

#[derive(Debug, Serialize, Deserialize)]
struct CommitLine {
    kind: String,
    frontier: u64,
    unow: u64,
    next_write_seq: u64,
    next_seal_seq: u64,
    shards_written: u64,
}

/// The merged view of a checkpoint journal up to its last valid commit record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCheckpoint {
    /// Device size recorded by the journal's base record.
    pub num_segments: u64,
    /// Live pages: the newest committed record of every shard, merged.
    pub pages: Vec<PageRecord>,
    /// Sealed segments as of the last committed checkpoint.
    pub segments: Vec<SegmentRecord>,
    /// Seal-sequence frontier of the last committed checkpoint.
    pub frontier: u64,
    /// Update clock at the last committed checkpoint.
    pub unow: u64,
    /// Next per-page write sequence at the last committed checkpoint.
    pub next_write_seq: u64,
    /// Next seal sequence at the last committed checkpoint.
    pub next_seal_seq: u64,
}

fn line_json<T: Serialize>(line: &T) -> Result<String> {
    serde_json::to_string(line).map_err(|e| Error::CorruptCheckpoint(e.to_string()))
}

/// Append one checkpoint (from a [`CheckpointSnapshot`]) to the journal at `path`.
///
/// With `fresh` the file is created (or truncated) and a base record is written first;
/// otherwise the records are appended to the existing journal. The records are rendered
/// completely before any byte reaches the file, and the file is fsynced before
/// returning — the checkpoint is only reported successful once it would survive a crash.
pub(crate) fn append_to_journal(
    path: &std::path::Path,
    config: &StoreConfig,
    snapshot: &CheckpointSnapshot,
    fresh: bool,
) -> Result<CheckpointStats> {
    use std::io::Write as _;

    let mut text = String::new();
    if fresh {
        let base = BaseLine {
            kind: "base".into(),
            version: CHECKPOINT_VERSION,
            num_segments: config.num_segments as u64,
            shard_count: snapshot.shards.len() as u64,
        };
        text.push_str(&line_json(&base)?);
        text.push('\n');
    }
    let mut written = 0u64;
    let mut skipped = 0u64;
    for (i, shard) in snapshot.shards.iter().enumerate() {
        let Some(pages) = shard else {
            skipped += 1;
            continue;
        };
        written += 1;
        let line = ShardLine {
            kind: "shard".into(),
            shard: i as u64,
            pages: pages
                .iter()
                .map(|(page, loc)| page_record(*page, loc))
                .collect(),
        };
        text.push_str(&line_json(&line)?);
        text.push('\n');
    }
    let segments = SegmentsLine {
        kind: "segments".into(),
        segments: segment_records(snapshot),
    };
    text.push_str(&line_json(&segments)?);
    text.push('\n');
    let commit = CommitLine {
        kind: "commit".into(),
        frontier: snapshot.frontier,
        unow: snapshot.unow,
        next_write_seq: snapshot.next_write_seq,
        next_seal_seq: snapshot.next_seal_seq,
        shards_written: written,
    };
    text.push_str(&line_json(&commit)?);
    text.push('\n');

    if fresh {
        // Build the new journal in a sibling temp file and rename it over the old one
        // only once it is durable: truncating in place would destroy the previous
        // (still valid) journal if the process died mid-write.
        let tmp = path.with_extension("journal.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
    } else {
        let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    Ok(CheckpointStats {
        shards_written: written,
        shards_skipped: skipped,
    })
}

/// Read a checkpoint journal file and merge it up to its last valid commit.
pub fn read_journal(path: &std::path::Path) -> Result<JournalCheckpoint> {
    let text = std::fs::read_to_string(path)?;
    parse_journal(&text)
}

/// The pure core of [`read_journal`]: merge journal text up to the last valid commit.
///
/// Later committed shard records supersede earlier ones for the same shard; segment
/// records are replaced wholesale by each commit. A torn or otherwise unparsable tail
/// (crash mid-append) discards everything from the first bad line on, landing on the
/// previous committed checkpoint. A journal with no committed checkpoint at all is an
/// error.
pub fn parse_journal(text: &str) -> Result<JournalCheckpoint> {
    let mut base: Option<BaseLine> = None;
    let mut committed_shards: FxHashMap<u64, Vec<PageRecord>> = FxHashMap::default();
    let mut committed_segments: Vec<SegmentRecord> = Vec::new();
    let mut committed: Option<CommitLine> = None;
    let mut pending_shards: FxHashMap<u64, Vec<PageRecord>> = FxHashMap::default();
    let mut pending_segments: Option<Vec<SegmentRecord>> = None;

    'lines: for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = serde_json::parse(line) else {
            break; // torn tail: stop at the first unparsable line
        };
        let Some(kind) = value.get_field("kind").and_then(|v| v.as_str()) else {
            break;
        };
        match kind {
            "base" => {
                let Ok(b) = BaseLine::deserialize(&value) else {
                    break 'lines;
                };
                if b.version != CHECKPOINT_VERSION {
                    return Err(Error::CorruptCheckpoint(format!(
                        "unsupported journal version {} (expected {CHECKPOINT_VERSION})",
                        b.version
                    )));
                }
                base = Some(b);
            }
            "shard" => {
                let Ok(s) = ShardLine::deserialize(&value) else {
                    break 'lines;
                };
                pending_shards.insert(s.shard, s.pages);
            }
            "segments" => {
                let Ok(s) = SegmentsLine::deserialize(&value) else {
                    break 'lines;
                };
                pending_segments = Some(s.segments);
            }
            "commit" => {
                let Ok(c) = CommitLine::deserialize(&value) else {
                    break 'lines;
                };
                for (shard, pages) in pending_shards.drain() {
                    committed_shards.insert(shard, pages);
                }
                if let Some(segments) = pending_segments.take() {
                    committed_segments = segments;
                }
                committed = Some(c);
            }
            // A record kind this build does not know: written by a newer version —
            // nothing after it can be trusted to mean what we'd assume.
            _ => break,
        }
    }

    let base = base
        .ok_or_else(|| Error::CorruptCheckpoint("checkpoint journal has no base record".into()))?;
    let commit = committed.ok_or_else(|| {
        Error::CorruptCheckpoint("checkpoint journal holds no committed checkpoint".into())
    })?;
    let mut pages: Vec<PageRecord> = committed_shards.into_values().flatten().collect();
    pages.sort_unstable_by_key(|p| p.page);
    Ok(JournalCheckpoint {
        num_segments: base.num_segments,
        pages,
        segments: committed_segments,
        frontier: commit.frontier,
        unow: commit.unow,
        next_write_seq: commit.next_write_seq,
        next_seal_seq: commit.next_seal_seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::policy::PolicyKind;

    fn config() -> StoreConfig {
        StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc)
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let store = LogStore::open_in_memory(config()).unwrap();
        for i in 0..100u64 {
            store.put(i, format!("value-{i}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        let json = to_json(&store).unwrap();
        let cp = from_json(&json).unwrap();
        assert_eq!(cp.version, CHECKPOINT_VERSION);
        assert_eq!(cp.pages.len(), 100);
        assert!(!cp.segments.is_empty());
        assert_eq!(cp.unow, 100);
        assert_eq!(cp.frontier, cp.next_seal_seq - 1);
        // Every page record carries the write sequence of its current version.
        assert!(cp.pages.iter().all(|p| p.write_seq > 0));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let store = LogStore::open_in_memory(config()).unwrap();
        store.put(1, b"x").unwrap();
        store.flush().unwrap();
        let json = to_json(&store)
            .unwrap()
            .replace("\"version\":2", "\"version\":99");
        assert!(from_json(&json).is_err());
    }

    #[test]
    fn garbage_json_is_rejected() {
        assert!(from_json("not json at all").is_err());
        assert!(from_json("{}").is_err());
    }

    #[test]
    fn checkpoint_with_out_of_range_segment_is_rejected() {
        let cp = Checkpoint {
            version: CHECKPOINT_VERSION,
            unow: 0,
            next_write_seq: 1,
            next_seal_seq: 1,
            frontier: 0,
            pages: vec![PageRecord {
                page: 1,
                segment: 9999,
                offset: 0,
                len: 1,
                write_seq: 1,
            }],
            segments: vec![],
        };
        let cfg = config();
        let dev = MemDevice::new(cfg.segment_bytes, cfg.num_segments);
        assert!(open_from_checkpoint(cfg, Box::new(dev), &cp).is_err());
    }

    /// Full cycle: write, flush, checkpoint, "restart" from the same device + checkpoint,
    /// and verify all data plus the ability to keep writing and cleaning.
    #[test]
    fn reopen_from_checkpoint_preserves_data_and_keeps_working() {
        let cfg = config();
        let store = LogStore::open_in_memory(cfg.clone()).unwrap();
        let pages = cfg.logical_pages_for_fill_factor(0.5) as u64;
        let payload = vec![5u8; cfg.page_bytes];
        for i in 0..(cfg.physical_pages() as u64 * 2) {
            store.put(i % pages, &payload).unwrap();
        }
        store.flush().unwrap();
        let json = store.checkpoint_json().unwrap();
        let live_before = store.live_pages();

        // Simulated restart: keep the device, rebuild the store from the checkpoint.
        let device = store.into_device();
        let cp = from_json(&json).unwrap();
        assert_eq!(cp.pages.len(), live_before);
        let reopened = open_from_checkpoint(cfg.clone(), device, &cp).unwrap();
        assert_eq!(reopened.live_pages(), live_before);
        for i in 0..pages {
            assert!(
                reopened.get(i).unwrap().is_some(),
                "page {i} missing after reopen"
            );
        }
        // The reopened store keeps accepting writes and cleaning.
        for i in 0..(cfg.physical_pages() as u64) {
            reopened.put(i % pages, &payload).unwrap();
        }
        reopened.flush().unwrap();
        assert_eq!(reopened.live_pages() as u64, pages);
    }

    fn sample_shard_line(shard: u64, page: u64, write_seq: u64) -> String {
        let line = ShardLine {
            kind: "shard".into(),
            shard,
            pages: vec![PageRecord {
                page,
                segment: 1,
                offset: 64,
                len: 32,
                write_seq,
            }],
        };
        line_json(&line).unwrap()
    }

    fn sample_commit(frontier: u64) -> String {
        let line = CommitLine {
            kind: "commit".into(),
            frontier,
            unow: frontier * 10,
            next_write_seq: frontier * 100,
            next_seal_seq: frontier + 1,
            shards_written: 1,
        };
        line_json(&line).unwrap()
    }

    fn sample_base() -> String {
        let line = BaseLine {
            kind: "base".into(),
            version: CHECKPOINT_VERSION,
            num_segments: 64,
            shard_count: 64,
        };
        line_json(&line).unwrap()
    }

    fn sample_segments() -> String {
        line_json(&SegmentsLine {
            kind: "segments".into(),
            segments: vec![],
        })
        .unwrap()
    }

    #[test]
    fn journal_merges_to_last_commit_and_newer_shards_supersede() {
        let text = [
            sample_base(),
            sample_shard_line(3, 7, 1),
            sample_segments(),
            sample_commit(5),
            sample_shard_line(3, 7, 9), // same shard, newer checkpoint
            sample_segments(),
            sample_commit(6),
        ]
        .join("\n");
        let cp = parse_journal(&text).unwrap();
        assert_eq!(cp.frontier, 6);
        assert_eq!(cp.pages.len(), 1);
        assert_eq!(cp.pages[0].write_seq, 9);
        assert_eq!(cp.num_segments, 64);
    }

    #[test]
    fn torn_tail_falls_back_to_previous_commit() {
        let committed = [
            sample_base(),
            sample_shard_line(3, 7, 1),
            sample_segments(),
            sample_commit(5),
        ]
        .join("\n");
        // A later checkpoint whose commit never made it (torn mid-line).
        let torn = format!(
            "{committed}\n{}\n{}\n{{\"kind\":\"com",
            sample_shard_line(3, 7, 9),
            sample_segments()
        );
        let cp = parse_journal(&torn).unwrap();
        assert_eq!(cp.frontier, 5, "must land on the last *committed* frontier");
        assert_eq!(
            cp.pages[0].write_seq, 1,
            "uncommitted shard must be ignored"
        );

        // Same, but the torn line is a shard record: the commit before it still wins.
        let torn_shard = format!("{committed}\n{{\"kind\":\"shard\",\"shard\":3,");
        assert_eq!(parse_journal(&torn_shard).unwrap().frontier, 5);
    }

    #[test]
    fn journal_without_commit_or_base_is_rejected() {
        assert!(parse_journal("").is_err());
        assert!(parse_journal(&sample_base()).is_err());
        let no_base = [sample_shard_line(0, 1, 1), sample_commit(1)].join("\n");
        assert!(parse_journal(&no_base).is_err());
    }

    #[test]
    fn journal_version_mismatch_is_rejected() {
        let bad = sample_base().replace("\"version\":2", "\"version\":99");
        let text = [bad, sample_segments(), sample_commit(1)].join("\n");
        assert!(parse_journal(&text).is_err());
    }

    #[test]
    fn unknown_record_kind_stops_the_merge() {
        let text = [
            sample_base(),
            sample_shard_line(0, 1, 1),
            sample_segments(),
            sample_commit(2),
            "{\"kind\":\"hologram\",\"payload\":1}".to_string(),
            sample_shard_line(0, 1, 50),
            sample_segments(),
            sample_commit(9),
        ]
        .join("\n");
        let cp = parse_journal(&text).unwrap();
        assert_eq!(cp.frontier, 2);
        assert_eq!(cp.pages[0].write_seq, 1);
    }
}
