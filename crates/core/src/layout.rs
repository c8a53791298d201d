//! On-device segment format (version 2): a chain of self-checksummed *extents*.
//!
//! A segment image is self-describing so that the page table can be rebuilt by scanning
//! the device (see [`crate::recovery`]), and — since format v2 — *append-safe*: an open
//! segment can be made durable incrementally, one extent per persist point, without ever
//! overwriting a byte that an earlier device sync covered. The layout inside one
//! `segment_bytes` block is:
//!
//! ```text
//! +--------------------+  offset 0
//! | extent 0 header    |  fixed 48 bytes, CRC-protected
//! | extent 0 entries   |  24 bytes each, CRC-protected as a block
//! | (pad to SECTOR)    |
//! +--------------------+  <- extents grow upward, each starting on a sector boundary
//! | extent 1 header    |
//! | extent 1 entries   |
//! | (pad to SECTOR)    |
//! +--------------------+  front cursor
//! |     (unused)       |
//! +--------------------+  back cursor
//! | (pad to SECTOR)    |
//! | extent 1 payloads  |  payloads grow downward from the end of the segment so their
//! +--------------------+  offsets are final the moment a page is appended, regardless of
//! | (pad to SECTOR)    |  how many more entries or extents follow; each extent's payloads
//! | extent 0 payloads  |  end on a sector boundary
//! +--------------------+  offset segment_bytes
//! ```
//!
//! One **persist point** ([`SegmentBuilder::render_extent`]) lays down the entries and
//! payloads appended since the previous one as a new extent. It dirties exactly two
//! contiguous, sector-aligned ranges — the new payloads at the back cursor and the new
//! extent at the front cursor — which the write path hands to
//! [`crate::device::SegmentDevice::write_ranges`], payloads first. Both cursors are then
//! rounded to the next [`SECTOR`] boundary, so the following persist point never shares
//! a sector with bytes an earlier sync made durable — and, from a segment's first
//! persist point on, [`SegmentBuilder::fits`] keeps every extent and its payloads in
//! disjoint sectors, so a torn write of the payload range cannot land bytes of the
//! extent that references it. A segment that is sealed without ever having been
//! persisted is a single extent with no padding: the same capacity (509 pages of 4 KiB
//! in 2 MiB) and the same one-write-per-segment I/O as format v1. (A segment filled to
//! within a sector of full *before* its first persist point is the one case whose two
//! ranges would touch — [`ranges_share_a_sector`] — and is written whole.)
//!
//! Every extent header carries the segment's **seal sequence** (reserved at the first
//! persist point, or assigned at the seal for a never-persisted segment). It is unique
//! per incarnation of a slot, so it doubles as the on-device allocation generation: an
//! extent belongs to the chain only if its sequence equals the first extent's. The
//! header CRC of every extent after the first additionally covers its predecessor's
//! header CRC, so an extent validates only as the successor of exactly that chain
//! prefix. [`decode_segment`] walks the chain from offset 0 and stops — silently — at
//! the first extent that fails its magic, CRC, sequence or bounds check: that is a
//! persist point whose device write never completed ("the flush that never returned"),
//! or stale bytes of the slot's previous incarnation. A first extent that looks like
//! data but fails validation is reported as [`Error::CorruptSegment`]; one that
//! validates but carries another [`VERSION`] is [`Error::FormatVersion`].
//!
//! The `sealed_at` tick and carried `up2` of a decoded segment are those of its last
//! valid extent (each extent records the cumulative values at its persist point).
//!
//! Because extents grow up from offset 0, the whole chain is a prefix of the image — the
//! slot's **front** — and decoding it never touches a payload byte. [`decode_front`] is
//! the one chain decoder: the cleaner feeds it a whole victim image (through
//! [`decode_segment`]); recovery feeds it a prefix read from the device, and it either
//! decodes exactly as the whole image would or says how many bytes it needs
//! ([`read_front`] is that loop). So a recovery scan costs in proportion to the entries
//! on the device, not its bytes: a full segment of 4 KiB pages has a 12 KiB front
//! ([`front_bytes`]), 0.6 % of 2 MiB.
//!
//! Entries record `(page_id, offset, len, write_seq)`. A tombstone (deletion record) is an
//! entry with `len == TOMBSTONE_LEN`; it has no payload. Payload bytes are not
//! checksummed by this format; the write order (payloads before the extent that
//! references them) is what keeps a torn persist point from exposing them.

use crate::error::{Error, Result};
use crate::types::{PageId, SealSeq, SegmentId, UpdateTick, WriteSeq};
use crate::util::crc32c;
use std::ops::Range;

/// Magic number identifying a segment extent ("LSSG").
pub const MAGIC: u32 = 0x4C53_5347;
/// Current on-device format version.
pub const VERSION: u16 = 2;
/// Size of the fixed extent header in bytes.
pub const HEADER_SIZE: usize = 48;
/// Size of one entry in bytes.
pub const ENTRY_SIZE: usize = 24;
/// Sentinel length marking a tombstone entry.
pub const TOMBSTONE_LEN: u32 = u32::MAX;
/// Alignment of persist points: every extent starts, and every extent's payload block
/// ends, on a multiple of this, so a later persist point never rewrites a device sector
/// an earlier one made durable. A property of the format, not a tuning knob.
pub const SECTOR: usize = 512;

/// Number of whole `page_bytes`-sized pages a segment can hold once header and one entry
/// per page are accounted for. This is the paper's `S`. (A segment persisted while open
/// holds slightly fewer: each persist point costs one extent header plus padding.)
pub fn pages_per_segment(segment_bytes: usize, page_bytes: usize) -> usize {
    segment_bytes.saturating_sub(HEADER_SIZE) / (page_bytes + ENTRY_SIZE)
}

/// Usable payload capacity (bytes) of a segment when storing pages of nominally
/// `page_bytes` each: the per-page entry overhead is charged against capacity.
pub fn payload_capacity(segment_bytes: usize, page_bytes: usize) -> usize {
    pages_per_segment(segment_bytes, page_bytes) * page_bytes
}

/// Largest single page payload a segment can hold.
pub fn max_single_payload(segment_bytes: usize) -> usize {
    segment_bytes.saturating_sub(HEADER_SIZE + ENTRY_SIZE)
}

/// Summary of a decoded segment: the identity fields of its extent chain plus totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// The segment's seal sequence (identical in every extent of the chain).
    pub seal_seq: SealSeq,
    /// Update tick of the last valid extent's persist point (the seal, for a segment
    /// whose final extent landed).
    pub sealed_at: UpdateTick,
    /// Penultimate-update estimate carried by the segment as of its last valid extent.
    pub up2: UpdateTick,
    /// Number of entries across all valid extents.
    pub entry_count: u32,
    /// Total payload bytes stored across all valid extents.
    pub data_len: u32,
    /// Output log the segment was written by (multi-log policies).
    pub log_id: u16,
    /// Number of valid extents in the chain (1 for a segment sealed in one write).
    pub extents: u32,
}

/// One entry of an extent's entry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Logical page recorded by this entry.
    pub page_id: PageId,
    /// Absolute byte offset of the payload within the segment image (0 for tombstones).
    pub offset: u32,
    /// Payload length, or [`TOMBSTONE_LEN`] for a deletion record.
    pub len: u32,
    /// Per-page write sequence used to order duplicate copies during recovery.
    pub write_seq: WriteSeq,
}

impl SegmentEntry {
    /// True if this entry records a deletion.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.len == TOMBSTONE_LEN
    }

    /// Payload length in bytes (0 for tombstones).
    #[inline]
    pub fn payload_len(&self) -> u32 {
        if self.is_tombstone() {
            0
        } else {
            self.len
        }
    }
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}
fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
}
fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTOR) * SECTOR
}
fn align_down(n: usize) -> usize {
    n / SECTOR * SECTOR
}

/// Byte offset of the header CRC inside an extent header; it covers everything before.
const HEADER_CRC_AT: usize = HEADER_SIZE - 4;

/// CRC of an extent header's first [`HEADER_CRC_AT`] bytes, chained to its predecessor:
/// the first extent's is the plain CRC (as in format v1, so a v1 image is recognised
/// and refused by version rather than mistaken for corruption); every later extent's
/// also covers the previous extent's header CRC.
fn header_crc(fields: &[u8], prev: Option<u32>) -> u32 {
    match prev {
        None => crc32c(fields),
        Some(prev) => {
            let mut linked = [0u8; HEADER_CRC_AT + 4];
            linked[..HEADER_CRC_AT].copy_from_slice(fields);
            put_u32(&mut linked, HEADER_CRC_AT, prev);
            crc32c(&linked)
        }
    }
}

/// The decoded fixed header of one extent.
#[derive(Debug, Clone, Copy)]
struct ExtentHeader {
    log_id: u16,
    seal_seq: SealSeq,
    sealed_at: UpdateTick,
    up2: UpdateTick,
    entry_count: u32,
    payload_len: u32,
    entries_crc: u32,
    crc: u32,
}

impl ExtentHeader {
    fn encode(&self, prev: Option<u32>) -> [u8; HEADER_SIZE] {
        let mut buf = [0u8; HEADER_SIZE];
        put_u32(&mut buf, 0, MAGIC);
        put_u16(&mut buf, 4, VERSION);
        put_u16(&mut buf, 6, self.log_id);
        put_u64(&mut buf, 8, self.seal_seq);
        put_u64(&mut buf, 16, self.sealed_at);
        put_u64(&mut buf, 24, self.up2);
        put_u32(&mut buf, 32, self.entry_count);
        put_u32(&mut buf, 36, self.payload_len);
        put_u32(&mut buf, 40, self.entries_crc);
        let crc = header_crc(&buf[..HEADER_CRC_AT], prev);
        put_u32(&mut buf, HEADER_CRC_AT, crc);
        buf
    }

    /// Decode the extent header at the start of `buf`, validating magic, CRC (chained
    /// to `prev`) and version. `Ok(None)` means "no extent here" (blank or foreign
    /// bytes).
    fn decode(seg: SegmentId, buf: &[u8], prev: Option<u32>) -> Result<Option<Self>> {
        if buf.len() < HEADER_SIZE {
            return Err(Error::CorruptSegment {
                segment: seg,
                detail: format!("header buffer too small: {} bytes", buf.len()),
            });
        }
        if get_u32(buf, 0) != MAGIC {
            return Ok(None);
        }
        let stored_crc = get_u32(buf, HEADER_CRC_AT);
        let computed = header_crc(&buf[..HEADER_CRC_AT], prev);
        if stored_crc != computed {
            return Err(Error::CorruptSegment {
                segment: seg,
                detail: format!(
                    "header CRC mismatch: stored {stored_crc:#x}, computed {computed:#x}"
                ),
            });
        }
        // Checked after the CRC: a bit flip in the version field is corruption of one
        // segment, a self-consistent header of another version is a different format.
        let version = get_u16(buf, 4);
        if version != VERSION {
            return Err(Error::FormatVersion {
                found: version,
                expected: VERSION,
            });
        }
        Ok(Some(Self {
            log_id: get_u16(buf, 6),
            seal_seq: get_u64(buf, 8),
            sealed_at: get_u64(buf, 16),
            up2: get_u64(buf, 24),
            entry_count: get_u32(buf, 32),
            payload_len: get_u32(buf, 36),
            entries_crc: get_u32(buf, 40),
            crc: stored_crc,
        }))
    }
}

/// Decode and validate the *first* extent header of a segment from the first
/// [`HEADER_SIZE`] bytes of its image: enough to learn the segment's seal sequence
/// without reading the rest (checkpoint-anchored recovery sweeps every slot this way).
/// The totals in the returned summary cover that first extent only.
///
/// Returns `Ok(None)` if the block does not look like a segment at all (e.g. it is
/// blank), and an error if it looks like one but fails validation.
pub fn decode_header(seg: SegmentId, buf: &[u8]) -> Result<Option<SegmentHeader>> {
    Ok(
        ExtentHeader::decode(seg, buf, None)?.map(|h| SegmentHeader {
            seal_seq: h.seal_seq,
            sealed_at: h.sealed_at,
            up2: h.up2,
            entry_count: h.entry_count,
            data_len: h.payload_len,
            log_id: h.log_id,
            extents: 1,
        }),
    )
}

/// A fully decoded segment image: chain summary plus the entries of every valid extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSegment {
    /// Summary of the extent chain.
    pub header: SegmentHeader,
    /// The decoded entries of all valid extents, in append order.
    pub entries: Vec<SegmentEntry>,
}

/// Bytes of the front of a segment that holds a full segment of `page_bytes` pages in
/// one extent — header plus entry table, rounded up to a [`SECTOR`] — which is what
/// recovery reads of every slot first (12 KiB for 2 MiB segments of 4 KiB pages).
pub fn front_bytes(segment_bytes: usize, page_bytes: usize) -> usize {
    let table = HEADER_SIZE + pages_per_segment(segment_bytes, page_bytes) * ENTRY_SIZE;
    align_up(table).min(segment_bytes)
}

/// What [`decode_front`] made of a prefix of a segment image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Front {
    /// The chain ends inside the prefix: the decoded segment, exactly what
    /// [`decode_segment`] returns for the whole image (`None` for a blank slot).
    Chain(Option<ParsedSegment>),
    /// The chain may go on past the prefix: the first `n` bytes of the image (more than
    /// the prefix holds, at most the segment) are needed to tell.
    Need(usize),
}

/// One step of the chain walk.
enum Step {
    /// A valid extent: its header, where the next extent would start, and the next
    /// extent's `payload_top`.
    Extent(ExtentHeader, usize, usize),
    /// No extent of this chain here: the chain ends.
    End,
    /// The extent here reaches past the prefix: the prefix length needed to decode it.
    Need(usize),
}

/// Decode the extent at `offset` of a `segment_bytes`-long image, of which `prefix`
/// holds the first bytes, and append its entries to `entries`. Its payloads must lie in
/// `[.., payload_top)`; `chain` is the `(seal_seq, header_crc)` of the chain it would
/// extend (`None` for the first extent). Payload bytes are never looked at, so only the
/// header and the entry table need to be in `prefix`.
fn decode_extent(
    seg: SegmentId,
    prefix: &[u8],
    segment_bytes: usize,
    offset: usize,
    payload_top: usize,
    chain: Option<(SealSeq, u32)>,
    entries: &mut Vec<SegmentEntry>,
) -> Result<Step> {
    if offset + HEADER_SIZE > segment_bytes {
        return Ok(Step::End);
    }
    if offset + HEADER_SIZE > prefix.len() {
        return Ok(Step::Need(offset + HEADER_SIZE));
    }
    let Some(header) = ExtentHeader::decode(seg, &prefix[offset..], chain.map(|c| c.1))? else {
        return Ok(Step::End);
    };
    // An extent of another incarnation ends the chain whatever its table holds, so its
    // table is never read.
    if chain.is_some_and(|(seal_seq, _)| header.seal_seq != seal_seq) {
        return Ok(Step::End);
    }
    let count = header.entry_count as usize;
    let table_start = offset + HEADER_SIZE;
    let table_end = table_start + count * ENTRY_SIZE;
    let payload_len = header.payload_len as usize;
    if table_end > payload_top || payload_len > payload_top - table_end {
        return Err(Error::CorruptSegment {
            segment: seg,
            detail: format!(
                "extent at {offset} ({count} entries, {payload_len} payload bytes) exceeds \
                 the space below {payload_top}"
            ),
        });
    }
    if table_end > prefix.len() {
        return Ok(Step::Need(table_end));
    }
    let table = &prefix[table_start..table_end];
    let computed = crc32c(table);
    if computed != header.entries_crc {
        return Err(Error::CorruptSegment {
            segment: seg,
            detail: format!(
                "entry table CRC mismatch: stored {:#x}, computed {computed:#x}",
                header.entries_crc
            ),
        });
    }
    let payload_floor = payload_top - payload_len;
    entries.reserve(count);
    for i in 0..count {
        let off = i * ENTRY_SIZE;
        let e = SegmentEntry {
            page_id: get_u64(table, off),
            offset: get_u32(table, off + 8),
            len: get_u32(table, off + 12),
            write_seq: get_u64(table, off + 16),
        };
        if !e.is_tombstone() {
            let end = e.offset as usize + e.len as usize;
            if (e.offset as usize) < payload_floor || end > payload_top {
                return Err(Error::CorruptSegment {
                    segment: seg,
                    detail: format!(
                        "entry {i} (page {}) payload [{}, {end}) out of bounds",
                        e.page_id, e.offset
                    ),
                });
            }
        }
        entries.push(e);
    }
    Ok(Step::Extent(
        header,
        align_up(table_end),
        align_down(payload_floor),
    ))
}

/// Decode a full segment image by walking its extent chain, validating checksums and
/// bounds.
///
/// Returns `Ok(None)` for blank (never written) images and an error if the *first*
/// extent is invalid. Any later extent that fails validation — a torn persist point,
/// or stale bytes of the slot's previous incarnation — ends the chain: the segment
/// decodes to the valid prefix.
pub fn decode_segment(seg: SegmentId, image: &[u8]) -> Result<Option<ParsedSegment>> {
    match decode_front(seg, image, image.len())? {
        Front::Chain(parsed) => Ok(parsed),
        Front::Need(n) => unreachable!("a whole image of {} bytes needs {n}", image.len()),
    }
}

/// The chain decoder behind [`decode_segment`], fed a `prefix` of a `segment_bytes`-long
/// image: the headers and entry tables of a slot's front, never its payloads. The same
/// magic, chained-CRC, sequence and bounds rules decide, on the same bytes, so a prefix
/// either decodes exactly as the whole image would ([`Front::Chain`], or the same
/// error), or reports how long a prefix it needs ([`Front::Need`]).
pub fn decode_front(seg: SegmentId, prefix: &[u8], segment_bytes: usize) -> Result<Front> {
    ChainWalk::new(segment_bytes).resume(seg, prefix)
}

/// A chain walk that can stop at the end of a prefix and go on once the prefix has
/// grown: everything [`decode_front`] knows after the extents it has validated, so
/// [`read_front`] decodes each extent once however many reads the front takes.
struct ChainWalk {
    segment_bytes: usize,
    /// Entries of the extents validated so far.
    entries: Vec<SegmentEntry>,
    /// The chain so far and its last header CRC; `None` before the first extent.
    chain: Option<(SegmentHeader, u32)>,
    /// Where the next extent would start, and the top of its payloads.
    offset: usize,
    payload_top: usize,
}

impl ChainWalk {
    fn new(segment_bytes: usize) -> Self {
        Self {
            segment_bytes,
            entries: Vec::new(),
            chain: None,
            offset: 0,
            payload_top: segment_bytes,
        }
    }

    /// Walk on from the last validated extent over `prefix` — the first bytes of the
    /// image, at least as many as any earlier call was given.
    fn resume(&mut self, seg: SegmentId, prefix: &[u8]) -> Result<Front> {
        loop {
            let valid_entries = self.entries.len();
            let link = self.chain.map(|(header, crc)| (header.seal_seq, crc));
            let step = decode_extent(
                seg,
                prefix,
                self.segment_bytes,
                self.offset,
                self.payload_top,
                link,
                &mut self.entries,
            );
            match (step, &mut self.chain) {
                (Ok(Step::Need(n)), _) => return Ok(Front::Need(n)),
                (Ok(Step::Extent(ext, next_offset, next_top)), chain) => {
                    (self.offset, self.payload_top) = (next_offset, next_top);
                    match chain {
                        None => {
                            let header = SegmentHeader {
                                seal_seq: ext.seal_seq,
                                sealed_at: ext.sealed_at,
                                up2: ext.up2,
                                entry_count: ext.entry_count,
                                data_len: ext.payload_len,
                                log_id: ext.log_id,
                                extents: 1,
                            };
                            *chain = Some((header, ext.crc));
                        }
                        Some((header, prev_crc)) => {
                            header.sealed_at = ext.sealed_at;
                            header.up2 = ext.up2;
                            header.entry_count += ext.entry_count;
                            header.data_len += ext.payload_len;
                            header.extents += 1;
                            *prev_crc = ext.crc;
                        }
                    }
                }
                // The first extent decides the slot: blank, or an error.
                (Ok(Step::End), None) => return Ok(Front::Chain(None)),
                (Err(e), None) => return Err(e),
                // A later extent that does not validate ends the chain before it.
                (Ok(Step::End) | Err(_), Some(_)) => {
                    self.entries.truncate(valid_entries);
                    break;
                }
            }
        }
        let (header, _) = self.chain.expect("the loop ends only after a first extent");
        let entries = std::mem::take(&mut self.entries);
        Ok(Front::Chain(Some(ParsedSegment { header, entries })))
    }
}

/// Read a slot's front through `read(offset, len)` and decode its chain: a first read
/// of `first_read` bytes (see [`front_bytes`]), then — while the chain may go on past
/// what is held — reads of only the missing bytes, each at least doubling the prefix
/// (sector aligned, capped at the segment). The walk resumes after each read at the
/// extent it stopped in, so every extent is validated once. `front` may already hold
/// the slot's first bytes (a probed header); it ends up holding everything read.
///
/// The outer error is a failed read; the inner result is the decode verdict — exactly
/// what [`decode_segment`] returns for the whole image.
pub fn read_front(
    seg: SegmentId,
    segment_bytes: usize,
    first_read: usize,
    front: &mut Vec<u8>,
    mut read: impl FnMut(usize, usize) -> Result<Vec<u8>>,
) -> Result<Result<Option<ParsedSegment>>> {
    let mut walk = ChainWalk::new(segment_bytes);
    loop {
        match walk.resume(seg, front) {
            Ok(Front::Chain(parsed)) => return Ok(Ok(parsed)),
            Err(e) => return Ok(Err(e)),
            Ok(Front::Need(needed)) => {
                let have = front.len();
                let want = align_up(needed.max(2 * have).max(first_read)).min(segment_bytes);
                let more = read(have, want - have)?;
                if more.len() != want - have {
                    return Err(Error::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "segment {seg}: read {} of {} front bytes",
                            more.len(),
                            want - have
                        ),
                    )));
                }
                if front.is_empty() {
                    *front = more;
                } else {
                    front.extend_from_slice(&more);
                }
            }
        }
    }
}

/// True if the two dirty ranges of a persist point (as returned by
/// [`SegmentBuilder::render_extent`]: payloads, then extent) share a sector. Only the
/// *first* persist point of a segment already within a sector of full can produce
/// that (see [`SegmentBuilder::fits`]); written as two ranges, a torn write of the
/// payload range could then land the extent without its payloads, so the write path
/// sends such a segment out as one whole-image write instead.
pub fn ranges_share_a_sector(dirty: &[Range<u32>; 2]) -> bool {
    let [payloads, extent] = dirty;
    !payloads.is_empty() && extent.end > payloads.start
}

/// The pending extent as laid down by [`SegmentBuilder::render_extent`], remembered
/// until [`SegmentBuilder::commit_extent`] confirms it reached the device.
#[derive(Debug, Clone, Copy)]
struct RenderedExtent {
    /// End of the extent's entry table (unaligned).
    end: usize,
    crc: u32,
}

/// Incrementally builds the image of one segment.
///
/// Payloads grow downward from the end of the image; extents (header + entry table)
/// grow upward from the start. Entries appended since the last persist point are
/// *pending*: [`SegmentBuilder::render_extent`] lays them down as the next extent and
/// reports the byte ranges it dirtied, and [`SegmentBuilder::commit_extent`] — called
/// once those ranges reached the device — advances both cursors past it.
/// [`SegmentBuilder::image`] is the whole image, exactly `segment_bytes` long, at any
/// point.
#[derive(Debug)]
pub struct SegmentBuilder {
    segment_bytes: usize,
    /// Every entry appended so far, persisted extents first.
    entries: Vec<SegmentEntry>,
    image: Vec<u8>,
    /// Offset of the most recently placed payload (the back cursor).
    payload_tail: usize,
    /// How many of `entries` belong to extents already on the device.
    persisted_entries: usize,
    /// Number of extents already on the device.
    extents: u32,
    /// Where the pending extent's header goes (the front cursor; sector-aligned).
    front: usize,
    /// Upper end of the pending extent's payload block (`segment_bytes`, or the
    /// sector-aligned back cursor of the last persist point).
    payload_top: usize,
    /// Header CRC of the last persisted extent (the pending extent chains to it).
    prev_crc: Option<u32>,
    rendered: Option<RenderedExtent>,
}

impl SegmentBuilder {
    /// Start building a segment image of `segment_bytes` bytes.
    pub fn new(segment_bytes: usize) -> Self {
        Self::with_image(vec![0u8; segment_bytes])
    }

    /// Start building in a recycled buffer: `image` must be all zeros — a fresh
    /// allocation, or what [`SegmentBuilder::into_image`] handed back — and its length
    /// is the segment size.
    pub fn with_image(image: Vec<u8>) -> Self {
        let segment_bytes = image.len();
        assert!(
            segment_bytes > HEADER_SIZE + ENTRY_SIZE,
            "segment too small: {segment_bytes}"
        );
        debug_assert!(image.iter().all(|&b| b == 0), "recycled image not blank");
        Self {
            segment_bytes,
            entries: Vec::new(),
            image,
            payload_tail: segment_bytes,
            persisted_entries: 0,
            extents: 0,
            front: 0,
            payload_top: segment_bytes,
            prev_crc: None,
            rendered: None,
        }
    }

    /// End of the pending extent's entry table if it held `extra` more entries.
    fn pending_table_end(&self, extra: usize) -> usize {
        let pending = self.entries.len() - self.persisted_entries + extra;
        self.front + HEADER_SIZE + pending * ENTRY_SIZE
    }

    /// Where the pending extent's entry table may grow to. A never-persisted segment
    /// packs table and payloads back to back (format v1's capacity); once a segment
    /// has a persist point, the extent and the payloads of every later one must not
    /// share a sector — their two dirty ranges are written one after the other, and a
    /// torn write of the first must not be able to land the second's bytes.
    fn table_limit(&self, extra_entries: usize) -> usize {
        let table_end = self.pending_table_end(extra_entries);
        if self.extents == 0 {
            table_end
        } else {
            align_up(table_end)
        }
    }

    /// True if one more entry plus a payload of the given length still fits. The
    /// pending extent's header is always accounted for, so whatever has been appended
    /// can always be rendered.
    pub fn fits(&self, payload_len: usize) -> bool {
        self.table_limit(1) + payload_len <= self.payload_tail
    }

    /// Remaining payload capacity assuming one more entry is added.
    #[cfg(test)]
    pub(crate) fn remaining_payload(&self) -> usize {
        self.payload_tail.saturating_sub(self.table_limit(1))
    }

    /// Number of entries appended so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes appended so far.
    #[cfg(test)]
    pub(crate) fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.payload_len() as usize).sum()
    }

    /// Number of extents already committed to the device.
    pub fn extents(&self) -> u32 {
        self.extents
    }

    /// True if entries were appended since the last committed extent.
    pub fn has_unpersisted(&self) -> bool {
        self.entries.len() > self.persisted_entries
    }

    /// The in-memory image (what [`crate::device::SegmentDevice::write_ranges`] and
    /// `write_segment` are handed).
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Append a page payload; returns the absolute offset the payload was placed at.
    ///
    /// Panics if the payload does not fit — callers must check [`SegmentBuilder::fits`].
    pub fn push_page(&mut self, page_id: PageId, write_seq: WriteSeq, data: &[u8]) -> u32 {
        assert!(
            self.fits(data.len()),
            "payload of {} bytes does not fit",
            data.len()
        );
        let start = self.payload_tail - data.len();
        self.image[start..self.payload_tail].copy_from_slice(data);
        self.payload_tail = start;
        self.rendered = None;
        self.entries.push(SegmentEntry {
            page_id,
            offset: start as u32,
            len: data.len() as u32,
            write_seq,
        });
        start as u32
    }

    /// Append a tombstone (deletion record) for a page.
    pub fn push_tombstone(&mut self, page_id: PageId, write_seq: WriteSeq) {
        assert!(self.fits(0), "no room for a tombstone entry");
        self.rendered = None;
        self.entries.push(SegmentEntry {
            page_id,
            offset: 0,
            len: TOMBSTONE_LEN,
            write_seq,
        });
    }

    /// Read back a payload that was appended to this (still in-memory) builder.
    pub fn read_payload(&self, offset: u32, len: u32) -> &[u8] {
        &self.image[offset as usize..(offset + len) as usize]
    }

    /// Lay the pending entries down as the next extent of the chain and return the two
    /// sector-aligned byte ranges this dirtied, **payloads first**: writing them to the
    /// device in that order means a crash between the two leaves payload bytes nothing
    /// references, never an extent whose payloads are missing. The payload area itself
    /// is untouched, so concurrent readers holding page locations into this (shared)
    /// builder keep reading correct bytes.
    ///
    /// Rendering is idempotent until the next append; it does not advance the cursors —
    /// call [`SegmentBuilder::commit_extent`] once the ranges reached the device.
    pub fn render_extent(
        &mut self,
        seal_seq: SealSeq,
        sealed_at: UpdateTick,
        up2: UpdateTick,
        log_id: u16,
    ) -> [Range<u32>; 2] {
        let pending = &self.entries[self.persisted_entries..];
        let table_start = self.front + HEADER_SIZE;
        for (i, e) in pending.iter().enumerate() {
            let off = table_start + i * ENTRY_SIZE;
            put_u64(&mut self.image, off, e.page_id);
            put_u32(&mut self.image, off + 8, e.offset);
            put_u32(&mut self.image, off + 12, e.len);
            put_u64(&mut self.image, off + 16, e.write_seq);
        }
        let table_end = table_start + pending.len() * ENTRY_SIZE;
        let header = ExtentHeader {
            log_id,
            seal_seq,
            sealed_at,
            up2,
            entry_count: pending.len() as u32,
            payload_len: (self.payload_top - self.payload_tail) as u32,
            entries_crc: crc32c(&self.image[table_start..table_end]),
            crc: 0, // computed by `encode`
        }
        .encode(self.prev_crc);
        self.image[self.front..table_start].copy_from_slice(&header);
        self.rendered = Some(RenderedExtent {
            end: table_end,
            crc: get_u32(&header, HEADER_CRC_AT),
        });
        let payloads = align_down(self.payload_tail)..self.payload_top;
        let extent = self.front..align_up(table_end).min(self.segment_bytes);
        [payloads, extent].map(|r| r.start as u32..r.end as u32)
    }

    /// Record that the extent last rendered is on the device: its entries become part
    /// of the persisted chain and both cursors move to the next sector boundary.
    ///
    /// Panics if nothing is rendered or something was appended since.
    pub fn commit_extent(&mut self) {
        let rendered = self
            .rendered
            .take()
            .expect("commit_extent without a rendered extent");
        self.persisted_entries = self.entries.len();
        self.extents += 1;
        self.front = align_up(rendered.end);
        self.payload_tail = align_down(self.payload_tail);
        self.payload_top = self.payload_tail;
        self.prev_crc = Some(rendered.crc);
    }

    /// Give the image buffer back for the next builder, all zeros again. Only the two
    /// spans this builder wrote are cleared — extents below the front cursor (plus the
    /// pending one, rendered or not) and payloads above the back cursor — so recycling
    /// a sparsely filled segment costs what it held, not `segment_bytes`; and because
    /// nothing else was ever written, no stale extent or payload of this segment can
    /// reach the device through the next one.
    pub fn into_image(mut self) -> Vec<u8> {
        let front_end = self.pending_table_end(0).min(self.segment_bytes);
        self.image[..front_end].fill(0);
        self.image[self.payload_tail..].fill(0);
        self.image
    }

    /// Render the pending entries as the last extent (log 0) and hand back the complete
    /// image with the entry list: what a seal leaves on the device.
    #[cfg(test)]
    pub(crate) fn finish(
        mut self,
        seal_seq: SealSeq,
        sealed_at: UpdateTick,
        up2: UpdateTick,
    ) -> (Vec<u8>, Vec<SegmentEntry>) {
        self.render_extent(seal_seq, sealed_at, up2, 0);
        (self.image, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_helpers_match_paper_geometry() {
        // 2 MiB segments, 4 KiB pages: 509 pages per segment after overhead (paper: 512
        // before accounting for metadata).
        let pps = pages_per_segment(2 * 1024 * 1024, 4096);
        assert_eq!(pps, 509);
        assert_eq!(payload_capacity(2 * 1024 * 1024, 4096), 509 * 4096);
        assert!(max_single_payload(4096) < 4096);
    }

    #[test]
    fn never_persisted_builder_holds_the_full_single_extent_capacity() {
        // The single-extent path must keep format v1's capacity exactly.
        let mut b = SegmentBuilder::new(2 * 1024 * 1024);
        let page = vec![7u8; 4096];
        let mut n = 0;
        while b.fits(page.len()) {
            b.push_page(n, n + 1, &page);
            n += 1;
        }
        assert_eq!(n, 509);
        let (image, _) = b.finish(1, 1, 1);
        let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
        assert_eq!(parsed.header.extents, 1);
        assert_eq!(parsed.entries.len(), 509);
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let mut b = SegmentBuilder::new(4096);
        let off1 = b.push_page(10, 1, b"hello");
        let off2 = b.push_page(20, 2, b"world!");
        b.push_tombstone(30, 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_bytes(), 11);
        assert_eq!(b.read_payload(off1, 5), b"hello");
        assert_eq!(b.read_payload(off2, 6), b"world!");

        let (image, entries) = b.finish(7, 1000, 500);
        assert_eq!(image.len(), 4096);
        assert_eq!(entries.len(), 3);

        let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
        assert_eq!(parsed.header.seal_seq, 7);
        assert_eq!(parsed.header.sealed_at, 1000);
        assert_eq!(parsed.header.up2, 500);
        assert_eq!(parsed.header.entry_count, 3);
        assert_eq!(parsed.header.data_len, 11);
        assert_eq!(parsed.header.extents, 1);
        assert_eq!(parsed.entries[0].page_id, 10);
        assert_eq!(parsed.entries[1].page_id, 20);
        assert!(parsed.entries[2].is_tombstone());
        assert_eq!(parsed.entries[2].payload_len(), 0);

        let e = parsed.entries[1];
        assert_eq!(
            &image[e.offset as usize..(e.offset + e.len) as usize],
            b"world!"
        );
    }

    /// Three persist points, then a final extent: what the write path does to a segment
    /// that two flushes and a seal pass over.
    fn three_extent_builder() -> SegmentBuilder {
        let mut b = SegmentBuilder::new(8192);
        b.push_page(1, 1, b"first");
        b.push_tombstone(9, 2);
        b.render_extent(7, 100, 50, 3);
        b.commit_extent();
        b.push_page(2, 3, &[0xAB; 300]);
        b.render_extent(7, 110, 60, 3);
        b.commit_extent();
        b.push_page(3, 4, b"third");
        b
    }

    #[test]
    fn multi_extent_build_and_decode_roundtrip() {
        let mut b = three_extent_builder();
        assert_eq!(b.extents(), 2);
        assert!(b.has_unpersisted());
        b.render_extent(7, 120, 70, 3);
        let image = b.image();
        let parsed = decode_segment(SegmentId(4), image).unwrap().unwrap();
        assert_eq!(parsed.entries, b.entries);
        assert_eq!(parsed.header.extents, 3);
        assert_eq!(parsed.header.seal_seq, 7);
        assert_eq!(parsed.header.log_id, 3);
        // Cumulative fields come from the last extent, totals from all of them.
        assert_eq!(parsed.header.sealed_at, 120);
        assert_eq!(parsed.header.up2, 70);
        assert_eq!(parsed.header.entry_count, 4);
        assert_eq!(parsed.header.data_len, 5 + 300 + 5);
        let e = parsed.entries[2];
        assert_eq!(
            &image[e.offset as usize..(e.offset + e.len) as usize],
            &[0xAB; 300]
        );
        // decode_header sees the first extent only — enough for the seal sequence.
        let first = decode_header(SegmentId(4), image).unwrap().unwrap();
        assert_eq!((first.seal_seq, first.entry_count), (7, 2));
    }

    #[test]
    fn persist_points_dirty_two_sector_aligned_ranges_that_never_overlap_earlier_ones() {
        let mut b = SegmentBuilder::new(8192);
        b.push_page(1, 1, b"first");
        let [payloads0, extent0] = b.render_extent(7, 100, 50, 0);
        assert_eq!(extent0, 0..SECTOR as u32);
        assert_eq!(payloads0, (8192 - SECTOR as u32)..8192);
        // Rendering again without an append dirties the same bytes.
        assert_eq!(
            b.render_extent(7, 100, 50, 0),
            [payloads0.clone(), extent0.clone()]
        );
        b.commit_extent();
        assert!(!b.has_unpersisted());

        b.push_page(2, 2, &[1u8; 700]);
        let [payloads1, extent1] = b.render_extent(7, 101, 50, 0);
        assert_eq!(extent1.start, extent0.end);
        assert_eq!(payloads1.end, payloads0.start);
        assert_eq!(payloads1.start as usize % SECTOR, 0);
        assert_eq!(payloads1.len(), 2 * SECTOR);
    }

    #[test]
    fn fits_charges_every_persist_point_its_header_and_padding() {
        let mut b = SegmentBuilder::new(4096);
        let before = b.remaining_payload();
        assert_eq!(before, 4096 - HEADER_SIZE - ENTRY_SIZE);
        b.push_page(1, 1, &[0u8; 100]);
        b.render_extent(1, 1, 1, 0);
        b.commit_extent();
        // Front cursor at 512, back cursor rounded down from 3996 to 3584; the next
        // extent (header + one entry) owns the sector it starts in.
        assert_eq!(b.remaining_payload(), 3584 - 2 * SECTOR);
        assert!(b.fits(b.remaining_payload()));
        assert!(!b.fits(b.remaining_payload() + 1));
        // Whatever fits can always be rendered and decoded.
        let room = b.remaining_payload();
        b.push_page(2, 2, &vec![9u8; room]);
        assert!(!b.fits(1)); // (the extent's own sector still has room for tombstones)
        let (image, _) = b.finish(1, 2, 1);
        let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
        assert_eq!(parsed.header.extents, 2);
        assert_eq!(parsed.entries.len(), 2);
    }

    /// After a segment's first persist point, the two ranges of every later one lie in
    /// disjoint sectors however the appends fall, so a torn write of the payload range
    /// can never land bytes of the extent that references it.
    #[test]
    fn later_persist_points_never_share_a_sector_between_extent_and_payloads() {
        for step in [1usize, 37, 150, 700] {
            let mut b = SegmentBuilder::new(16 * 1024);
            b.push_page(0, 1, b"first");
            b.render_extent(1, 1, 1, 0);
            b.commit_extent();
            let mut n = 1u64;
            loop {
                let mut pushed = false;
                for len in [step, 0, step * 2 % 900] {
                    if b.fits(len) {
                        b.push_page(n, n + 1, &vec![n as u8; len]);
                        n += 1;
                        pushed = true;
                    }
                }
                if !pushed {
                    break;
                }
                let dirty = b.render_extent(1, n, 1, 0);
                assert!(!ranges_share_a_sector(&dirty), "step {step}: {dirty:?}");
                assert!(dirty[1].end <= dirty[0].start || dirty[0].is_empty());
                b.commit_extent();
            }
            let (image, entries) = b.finish(1, n, 1);
            let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
            assert_eq!(parsed.entries, entries);
        }
    }

    /// The one case the rule above cannot cover: a segment filled to within a sector
    /// of full *before* its first persist point.
    #[test]
    fn a_first_persist_point_of_a_nearly_full_segment_reports_the_shared_sector() {
        let mut b = SegmentBuilder::new(4096);
        b.push_page(1, 1, &[7u8; 3900]);
        let dirty = b.render_extent(1, 1, 1, 0);
        assert!(ranges_share_a_sector(&dirty), "{dirty:?}");
        b.commit_extent();
        assert!(!b.fits(0), "nothing more fits behind it");

        let mut roomy = SegmentBuilder::new(4096);
        roomy.push_page(1, 1, &[7u8; 100]);
        assert!(!ranges_share_a_sector(&roomy.render_extent(1, 1, 1, 0)));
    }

    #[test]
    fn torn_last_extent_is_dropped_whole() {
        let (image, _) = three_extent_builder().finish(7, 120, 70);
        // The third extent starts at the third sector; tear it anywhere.
        for flip in [2 * SECTOR + 9, 2 * SECTOR + HEADER_SIZE + 3] {
            let mut torn = image.clone();
            torn[flip] ^= 0xFF;
            let parsed = decode_segment(SegmentId(0), &torn).unwrap().unwrap();
            assert_eq!(parsed.header.extents, 2);
            assert_eq!(parsed.entries.len(), 3);
            assert_eq!(parsed.header.sealed_at, 110);
        }
        // An extent that never landed at all (zeros) ends the chain the same way.
        let mut missing = image.clone();
        missing[2 * SECTOR..3 * SECTOR].fill(0);
        let parsed = decode_segment(SegmentId(0), &missing).unwrap().unwrap();
        assert_eq!(parsed.header.extents, 2);
    }

    #[test]
    fn corrupt_middle_extent_truncates_the_chain_there() {
        let (mut image, _) = three_extent_builder().finish(7, 120, 70);
        image[SECTOR + HEADER_SIZE + 1] ^= 0xFF; // entry table of the second extent
        let parsed = decode_segment(SegmentId(0), &image).unwrap().unwrap();
        // The intact third extent is unreachable: it only validates as the successor
        // of the second.
        assert_eq!(parsed.header.extents, 1);
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.entries[0].page_id, 1);
    }

    #[test]
    fn stale_extents_of_a_previous_incarnation_are_not_part_of_the_chain() {
        // The slot held a three-extent segment (seal seq 7)...
        let (old, _) = three_extent_builder().finish(7, 120, 70);
        // ...was recycled, and its new incarnation (seal seq 9) has persisted one
        // extent of the same shape: only the two dirty ranges hit the device.
        let mut b = SegmentBuilder::new(8192);
        b.push_page(100, 50, b"fresh");
        b.push_tombstone(101, 51);
        let ranges = b.render_extent(9, 200, 150, 3);
        let mut device = old.clone();
        for r in ranges {
            let r = r.start as usize..r.end as usize;
            device[r.clone()].copy_from_slice(&b.image()[r]);
        }
        let parsed = decode_segment(SegmentId(0), &device).unwrap().unwrap();
        assert_eq!(parsed.header.seal_seq, 9);
        assert_eq!(parsed.header.extents, 1);
        let pages: Vec<_> = parsed.entries.iter().map(|e| e.page_id).collect();
        assert_eq!(pages, [100, 101]);

        // Even an old extent carrying the *same* sequence does not chain: its header
        // CRC covers a different predecessor.
        let mut same_seq = SegmentBuilder::new(8192);
        same_seq.push_page(100, 50, b"fresh");
        same_seq.push_tombstone(101, 51);
        let ranges = same_seq.render_extent(7, 200, 150, 3);
        let mut device = old;
        for r in ranges {
            let r = r.start as usize..r.end as usize;
            device[r.clone()].copy_from_slice(&same_seq.image()[r]);
        }
        let parsed = decode_segment(SegmentId(0), &device).unwrap().unwrap();
        assert_eq!(parsed.header.extents, 1);
    }

    /// The in-memory counterpart of the test above: a builder's image buffer goes on to
    /// back the next builder (`into_image` → `with_image`, what the store's image pool
    /// does), and nothing the first one wrote — extents of several persist points, a
    /// rendered-but-uncommitted one, `0xFF` payloads — may survive into the second.
    #[test]
    fn a_recycled_image_carries_nothing_of_its_previous_builder() {
        let mut old = SegmentBuilder::new(8192);
        let mut n = 0;
        for round in 0..3 {
            for _ in 0..4 {
                old.push_page(n, n + 1, &[0xFF; 200]);
                n += 1;
            }
            old.push_tombstone(1000 + round, n);
            old.render_extent(7, 100 + round, 50, 3);
            if round < 2 {
                old.commit_extent();
            }
        }
        assert_eq!(old.extents(), 2);
        assert!(old.image().iter().filter(|&&b| b == 0xFF).count() >= 12 * 200);
        let recycled = old.into_image();
        assert_eq!(recycled.len(), 8192);
        assert!(
            recycled.iter().all(|&b| b == 0),
            "into_image left bytes behind"
        );

        // A sparse successor: one small page, one tombstone, one persist point.
        let mut new = SegmentBuilder::with_image(recycled);
        let off = new.push_page(5, 90, b"sparse") as usize;
        new.push_tombstone(6, 91);
        let [payloads, extent] = new.render_extent(9, 200, 150, 0);
        let written = HEADER_SIZE + 2 * ENTRY_SIZE;
        assert!(extent.start == 0 && extent.end as usize >= written);
        assert!((payloads.start as usize..payloads.end as usize).contains(&off));
        let image = new.image();
        assert_eq!(&image[off..off + 6], b"sparse");
        assert!(image[written..off].iter().all(|&b| b == 0));
        assert!(image[off + 6..].iter().all(|&b| b == 0));
        let parsed = decode_segment(SegmentId(0), image).unwrap().unwrap();
        assert_eq!(parsed.header.seal_seq, 9);
        assert_eq!(parsed.header.extents, 1);
        assert_eq!(parsed.entries, new.entries);
    }

    /// A seeded number stream for the property test below (splitmix64 over a counter).
    struct Seeded(u64);

    impl Seeded {
        fn below(&mut self, n: usize) -> usize {
            self.0 += 1;
            (crate::util::mix64(self.0) % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// How the last extent of a generated slot landed.
    #[derive(Debug, Clone, Copy)]
    enum Tail {
        Intact,
        /// The header landed, the end of the entry table did not.
        ShortTable,
        /// One bit of the entry table flipped.
        BadTableCrc,
        /// A validly chained extent carrying another seal sequence.
        WrongSeq,
    }

    /// Lay down a random slot the way the write path does: a chain of 1–12 persist
    /// points of pages (1 B to `page_bytes`) and tombstones, each extent written as its
    /// two dirty ranges over whatever the slot held — sometimes a previous incarnation's
    /// longer chain, so stale extents sit just past the new one — with the last extent
    /// torn as `tail` says.
    fn random_slot(
        rng: &mut Seeded,
        segment_bytes: usize,
        page_bytes: usize,
        tail: Tail,
    ) -> Vec<u8> {
        let mut slot = vec![0u8; segment_bytes];
        if rng.chance(40) {
            let mut old = SegmentBuilder::new(segment_bytes);
            for i in 0..4 + rng.below(12) as u64 {
                if !old.fits(page_bytes) {
                    break;
                }
                old.push_page(i, i + 1, &vec![0xEE; page_bytes]);
                old.render_extent(3, i, 0, 1);
                old.commit_extent();
            }
            slot.copy_from_slice(old.image());
        }
        let mut b = SegmentBuilder::new(segment_bytes);
        let points = if rng.chance(25) { 1 } else { 2 + rng.below(11) };
        let whole_pages = rng.chance(50);
        let mut n = 0u64;
        for point in 0..points {
            for _ in 0..rng.below(3 * segment_bytes / page_bytes / points + 2) {
                n += 1;
                if rng.chance(20) {
                    if b.fits(0) {
                        b.push_tombstone(rng.below(64) as u64, n);
                    }
                } else {
                    let len = if whole_pages {
                        page_bytes
                    } else {
                        1 + rng.below(page_bytes)
                    };
                    if b.fits(len) {
                        b.push_page(rng.below(64) as u64, n, &vec![n as u8; len]);
                    }
                }
            }
            let last = point + 1 == points;
            let seq = if last && matches!(tail, Tail::WrongSeq) {
                10
            } else {
                9
            };
            let ranges = b.render_extent(seq, 100 + point as u64, 50, 2);
            for r in &ranges {
                let r = r.start as usize..r.end as usize;
                slot[r.clone()].copy_from_slice(&b.image()[r]);
            }
            if !last {
                b.commit_extent();
                if !b.fits(0) {
                    break; // full: no room for another extent
                }
                continue;
            }
            let extent = ranges[1].start as usize..ranges[1].end as usize;
            let table = extent.start + HEADER_SIZE..b.pending_table_end(0);
            match tail {
                Tail::ShortTable if !table.is_empty() => {
                    let cut = table.start + rng.below(table.len());
                    slot[cut..extent.end].fill(0);
                }
                Tail::BadTableCrc if !table.is_empty() => {
                    slot[table.start + rng.below(table.len())] ^= 1 << rng.below(8);
                }
                _ => {}
            }
        }
        slot
    }

    /// Recovery's read loop over an in-memory slot: the verdict, and every `(offset,
    /// len)` read.
    fn decode_growing(
        slot: &[u8],
        first_read: usize,
    ) -> (Result<Option<ParsedSegment>>, Vec<(usize, usize)>) {
        let mut reads = Vec::new();
        let mut front = Vec::new();
        let verdict = read_front(
            SegmentId(0),
            slot.len(),
            first_read,
            &mut front,
            |off, len| {
                reads.push((off, len));
                Ok(slot[off..off + len].to_vec())
            },
        )
        .unwrap();
        assert_eq!(
            front,
            slot[..front.len()],
            "the front is the slot's first bytes"
        );
        (verdict, reads)
    }

    /// The reads of a loop that decodes every grown prefix afresh from offset 0: what
    /// [`read_front`] must read, byte for byte, while decoding each extent once.
    fn redecoding_reads(slot: &[u8], first_read: usize) -> Vec<(usize, usize)> {
        let mut reads = Vec::new();
        let mut have = 0;
        while let Ok(Front::Need(needed)) = decode_front(SegmentId(0), &slot[..have], slot.len()) {
            let want = align_up(needed.max(2 * have).max(first_read)).min(slot.len());
            reads.push((have, want - have));
            have = want;
        }
        reads
    }

    fn same_verdict(a: &Result<Option<ParsedSegment>>, b: &Result<Option<ParsedSegment>>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
            _ => false,
        }
    }

    /// The prefix decoder is the whole-image decoder: on every generated slot — torn
    /// tails, stale extents of a previous incarnation, fronts longer than the first
    /// read — every prefix either decodes to exactly the whole image's summary and
    /// entries (or the same kind of error) or asks for more bytes than it holds, and
    /// recovery's growing read reaches the whole image's verdict reading only the front,
    /// each read appending just the missing bytes and at least doubling the prefix.
    #[test]
    fn a_growing_prefix_decodes_exactly_as_the_whole_image() {
        let mut grown = 0;
        let mut errors = 0;
        for seed in 0..400u64 {
            let mut rng = Seeded(seed << 32);
            let segment_bytes = [4096, 8192, 32 * 1024][rng.below(3)];
            let page_bytes = [64, 256, 1024][rng.below(3)];
            let tail = [
                Tail::Intact,
                Tail::ShortTable,
                Tail::BadTableCrc,
                Tail::WrongSeq,
            ][rng.below(4)];
            let slot = random_slot(&mut rng, segment_bytes, page_bytes, tail);
            let whole = decode_segment(SegmentId(0), &slot);
            errors += whole.is_err() as usize;
            let ctx =
                format!("seed {seed}: {segment_bytes} B slot, {page_bytes} B pages, {tail:?}");

            for len in (0..=segment_bytes).step_by(segment_bytes / 64) {
                match decode_front(SegmentId(0), &slot[..len], segment_bytes) {
                    Ok(Front::Need(n)) => {
                        assert!(len < n && n <= segment_bytes, "{ctx}: {len} → {n}")
                    }
                    Ok(Front::Chain(parsed)) => {
                        assert!(same_verdict(&Ok(parsed), &whole), "{ctx}: prefix {len}")
                    }
                    Err(e) => assert!(same_verdict(&Err(e), &whole), "{ctx}: prefix {len}"),
                }
            }

            let first_read = front_bytes(segment_bytes, page_bytes);
            let (verdict, reads) = decode_growing(&slot, first_read);
            assert!(
                same_verdict(&verdict, &whole),
                "{ctx}: {verdict:?} vs {whole:?}"
            );
            assert_eq!(reads[0], (0, first_read), "{ctx}");
            assert_eq!(reads, redecoding_reads(&slot, first_read), "{ctx}");
            for pair in reads.windows(2) {
                let (held, (off, len)) = (pair[0].0 + pair[0].1, pair[1]);
                assert_eq!(off, held, "{ctx}: a read appends only the missing bytes");
                assert!(
                    off + len >= (2 * off).min(segment_bytes),
                    "{ctx}: {reads:?}"
                );
            }
            grown += (reads.len() > 1) as usize;
        }
        assert!(
            (100..400).contains(&grown),
            "{grown} of 400 fronts outgrew their first read"
        );
        assert!(errors > 25, "only {errors} torn first extents");
    }

    #[test]
    fn blank_image_decodes_to_none() {
        let image = vec![0u8; 4096];
        assert!(decode_segment(SegmentId(3), &image).unwrap().is_none());
        assert!(decode_header(SegmentId(3), &image).unwrap().is_none());
    }

    #[test]
    fn corrupt_header_is_detected() {
        let b = SegmentBuilder::new(4096);
        let (mut image, _) = b.finish(1, 1, 1);
        image[9] ^= 0xFF; // flip a bit inside the header
        let err = decode_segment(SegmentId(1), &image).unwrap_err();
        assert!(err.to_string().contains("CRC"), "unexpected error: {err}");
    }

    #[test]
    fn corrupt_entry_table_is_detected() {
        let mut b = SegmentBuilder::new(4096);
        b.push_page(1, 1, b"data");
        let (mut image, _) = b.finish(1, 1, 1);
        image[HEADER_SIZE + 2] ^= 0xFF; // corrupt the entry table
        let err = decode_segment(SegmentId(1), &image).unwrap_err();
        assert!(
            err.to_string().contains("entry table CRC"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn fits_accounts_for_entry_overhead() {
        let mut b = SegmentBuilder::new(HEADER_SIZE + 2 * ENTRY_SIZE + 100);
        assert!(b.fits(100));
        b.push_page(1, 1, &[0u8; 100]);
        // A second 100-byte page cannot fit: no payload room remains.
        assert!(!b.fits(100));
        assert!(b.fits(0)); // but a tombstone still fits
        assert_eq!(b.remaining_payload(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pushing_oversized_payload_panics() {
        let mut b = SegmentBuilder::new(256);
        b.push_page(1, 1, &vec![0u8; 1024]);
    }

    #[test]
    fn truncated_header_buffer_is_an_error() {
        let buf = vec![0u8; 10];
        assert!(decode_header(SegmentId(0), &buf).is_err());
    }

    /// Re-stamp a first extent header's version and fix up its CRC.
    fn restamp_version(image: &mut [u8], version: u16) {
        put_u16(image, 4, version);
        let crc = crc32c(&image[..HEADER_CRC_AT]);
        put_u32(image, HEADER_CRC_AT, crc);
    }

    #[test]
    fn other_format_version_is_a_typed_error_not_corruption() {
        let b = SegmentBuilder::new(1024);
        let (mut image, _) = b.finish(1, 1, 1);
        restamp_version(&mut image, 1);
        for err in [
            decode_segment(SegmentId(1), &image).unwrap_err(),
            decode_header(SegmentId(1), &image).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    Error::FormatVersion {
                        found: 1,
                        expected: VERSION
                    }
                ),
                "unexpected error: {err}"
            );
        }
        // A bit flip in the version field alone is corruption of this one segment.
        let (mut image, _) = SegmentBuilder::new(1024).finish(1, 1, 1);
        put_u16(&mut image, 4, 9);
        let err = decode_segment(SegmentId(1), &image).unwrap_err();
        assert!(matches!(err, Error::CorruptSegment { .. }), "{err}");
    }

    #[test]
    fn out_of_bounds_payload_is_detected() {
        let mut b = SegmentBuilder::new(1024);
        b.push_page(1, 1, b"abcd");
        let (mut image, _) = b.finish(1, 1, 1);
        // Corrupt the entry's offset to point past the end, then fix the table CRC so the
        // bounds check (not the CRC check) fires.
        put_u32(&mut image, HEADER_SIZE + 8, 5000);
        let table = &image[HEADER_SIZE..HEADER_SIZE + ENTRY_SIZE];
        let entries_crc = crc32c(table);
        put_u32(&mut image, 40, entries_crc);
        let crc = crc32c(&image[..HEADER_CRC_AT]);
        put_u32(&mut image, HEADER_CRC_AT, crc);
        let err = decode_segment(SegmentId(1), &image).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }
}
