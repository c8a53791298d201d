//! On-page encoding of B+-tree nodes.
//!
//! Every node is stored at its encoded length — at most one page, and never padded out
//! to it:
//!
//! ```text
//! leaf:     [ 1u8 | nkeys u16 | (klen u16, vlen u16, key, value)* ]
//! internal: [ 2u8 | nkeys u16 | child0 u64 | (klen u16, key, child u64)* ]
//! meta:     [ 3u8 | root u64  | next_page u64 | len u64 ]
//! delta:    [ 4u8 | base u64  | nkeys u16 | (klen u16, vlen u16, key, value)* ]
//! ```
//!
//! Keys and values are arbitrary byte strings. An internal node with `nkeys` separator
//! keys has `nkeys + 1` children; separator `keys[i]` is the smallest key reachable via
//! `children[i + 1]`.
//!
//! The page size is a bound, not a length: no node image may exceed it, and what goes
//! to the page store is only the node's own bytes (on the log store a page costs its
//! bytes, twice: once written, once reclaimed). Internal nodes split when they outgrow
//! the page; leaves split earlier, once they outgrow a smaller *target* (the tree uses
//! half the page), so a rewritten leaf costs half as much log. A leaf splits at its
//! byte midpoint, which keeps both halves within the page for any leaf of up to a page
//! plus one maximum-size entry — so a full-page leaf an older build wrote still takes
//! any insert. A page may still carry a zero tail — every page an older build wrote was
//! padded to the page size — so readers bound-check against the slice they are given
//! and stop after the last entry, and an edit of such a page writes it back without
//! the tail.
//!
//! The tree works on these images directly. Reads search them in place
//! ([`raw_internal_search`], [`raw_leaf_search`], [`raw_leaf_entries`]); writes edit
//! them in place too — [`leaf_upsert`] / [`leaf_remove`] splice one entry in or out of a
//! leaf image, [`internal_repoint`] patches one child pointer, [`internal_insert`]
//! splices in the separator and right sibling of a child that split, and both inserts
//! split the page when the result overflows. Every editor is one pass over the page plus
//! one copy of its bytes, rejects a malformed page with an error, and writes exactly the
//! bytes `Node::decode` → edit → [`Node::encode`] would (the tests hold them to that,
//! byte for byte). The owned [`Node`] form remains for walks, the reopen sweep and as
//! that reference.
//!
//! A **delta** stores a leaf as the changes since its *base*, a whole leaf page: every
//! key set or removed since the base was written, in key order, one entry per key, with
//! `vlen = u16::MAX` (and no value bytes) marking a removed key. Its entries use the
//! leaf's entry encoding, and [`delta_upsert`] edits them with the leaf's own splice
//! ([`leaf_upsert`] / [`leaf_remove`] run the same locate-and-splice pass over a leaf).
//! [`delta_apply`] merges a delta into its base in one sorted pass and produces exactly
//! the leaf `Node::decode` → apply each entry → [`Node::encode`] would. A delta is
//! never the base of another (one link, never a chain); the shadow-mode tree decides
//! when a leaf is stored as one (see `tree`). A delta is not a node: [`Node::decode`]
//! and the `raw_*` readers refuse it with an error, and the buffer pool consolidates
//! it with its base before the tree sees the page.
//!
//! Leaves carry **no sibling links**: range scans walk the tree by successor descent
//! (see `tree`). This is what lets the shadow (copy-on-write) mode relocate any single
//! page without rewriting its left neighbour — with persistent `next` pointers, moving
//! one leaf would cascade through the entire leaf chain.

use lss_core::error::{Error, Result};

/// Node type tags.
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const TAG_META: u8 = 3;
const TAG_DELTA: u8 = 4;

/// Bytes of the fixed leaf header (tag + entry count).
pub(crate) const LEAF_HEADER_BYTES: usize = 1 + 2;
/// Bytes of the fixed delta header (tag + base id + entry count).
const DELTA_HEADER_BYTES: usize = 1 + 8 + 2;
/// The value length that marks a removed key in a delta.
const TOMBSTONE: u16 = u16::MAX;
/// Bytes of an encoded meta page (tag + root + watermark + key count).
const META_BYTES: usize = 1 + 8 + 8 + 8;

/// A decoded B+-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A leaf node holding key/value pairs in sorted order.
    Leaf {
        /// Sorted `(key, value)` entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// An internal node with separator keys and child page ids.
    Internal {
        /// Sorted separator keys (`len = children.len() - 1`).
        keys: Vec<Vec<u8>>,
        /// Child page ids.
        children: Vec<u64>,
    },
}

/// The tree's metadata page (page 0 in stand-alone mode; shadow-mode trees keep this
/// state in an external superblock instead — see the `kv` module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaPage {
    /// Page id of the root node.
    pub root: u64,
    /// Next page id to allocate.
    pub next_page_id: u64,
    /// Number of live keys.
    pub len: u64,
}

fn corrupt(detail: &str) -> Error {
    Error::CorruptSegment {
        segment: lss_core::SegmentId(u32::MAX),
        detail: format!("btree node: {detail}"),
    }
}

impl Node {
    /// An empty leaf.
    pub fn empty_leaf() -> Self {
        Node::Leaf {
            entries: Vec::new(),
        }
    }

    /// True if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of bytes the encoded node occupies (must stay ≤ the page size).
    pub fn encoded_size(&self) -> usize {
        match self {
            Node::Leaf { entries } => {
                LEAF_HEADER_BYTES
                    + entries
                        .iter()
                        .map(|(k, v)| 4 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                1 + 2 + 8 + keys.iter().map(|k| 2 + k.len() + 8).sum::<usize>()
            }
        }
    }

    /// Encode into a page image of [`Node::encoded_size`] bytes; an error if that is
    /// more than `page_size`.
    pub fn encode(&self, page_size: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(self.encoded_size());
        match self {
            Node::Leaf { entries } => {
                buf.push(TAG_LEAF);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (k, v) in entries {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(&(v.len() as u16).to_le_bytes());
                    buf.extend_from_slice(k);
                    buf.extend_from_slice(v);
                }
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(corrupt("internal node child/key count mismatch"));
                }
                buf.push(TAG_INTERNAL);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                buf.extend_from_slice(&children[0].to_le_bytes());
                for (i, k) in keys.iter().enumerate() {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(k);
                    buf.extend_from_slice(&children[i + 1].to_le_bytes());
                }
            }
        }
        finish_page(buf, page_size)
    }

    /// Decode a node from a page image.
    pub fn decode(data: &[u8]) -> Result<Node> {
        if data.is_empty() {
            return Err(corrupt("empty page"));
        }
        let mut pos = 1usize;
        let read_u16 = |data: &[u8], pos: &mut usize| -> Result<u16> {
            if *pos + 2 > data.len() {
                return Err(corrupt("truncated u16"));
            }
            let v = u16::from_le_bytes(data[*pos..*pos + 2].try_into().unwrap());
            *pos += 2;
            Ok(v)
        };
        let read_u64 = |data: &[u8], pos: &mut usize| -> Result<u64> {
            if *pos + 8 > data.len() {
                return Err(corrupt("truncated u64"));
            }
            let v = u64::from_le_bytes(data[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
            Ok(v)
        };
        let read_bytes = |data: &[u8], pos: &mut usize, len: usize| -> Result<Vec<u8>> {
            if *pos + len > data.len() {
                return Err(corrupt("truncated byte string"));
            }
            let v = data[*pos..*pos + len].to_vec();
            *pos += len;
            Ok(v)
        };
        match data[0] {
            TAG_LEAF => {
                let nkeys = read_u16(data, &mut pos)? as usize;
                let mut entries = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    let klen = read_u16(data, &mut pos)? as usize;
                    let vlen = read_u16(data, &mut pos)? as usize;
                    let k = read_bytes(data, &mut pos, klen)?;
                    let v = read_bytes(data, &mut pos, vlen)?;
                    entries.push((k, v));
                }
                Ok(Node::Leaf { entries })
            }
            TAG_INTERNAL => {
                let nkeys = read_u16(data, &mut pos)? as usize;
                let mut children = Vec::with_capacity(nkeys + 1);
                children.push(read_u64(data, &mut pos)?);
                let mut keys = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    let klen = read_u16(data, &mut pos)? as usize;
                    keys.push(read_bytes(data, &mut pos, klen)?);
                    children.push(read_u64(data, &mut pos)?);
                }
                Ok(Node::Internal { keys, children })
            }
            other => Err(corrupt(&format!("unknown node tag {other}"))),
        }
    }
}

/// True if the encoded page is a leaf (false = internal). Errors on a non-node page.
pub fn raw_is_leaf(data: &[u8]) -> Result<bool> {
    match data.first() {
        Some(&TAG_LEAF) => Ok(true),
        Some(&TAG_INTERNAL) => Ok(false),
        _ => Err(corrupt("not a btree node page")),
    }
}

/// Zero-allocation child search of an encoded internal page: returns the child slot
/// for `key`, its page id, and the separator just right of the slot (`None` on the
/// rightmost slot) — the tight exclusive upper bound of the chosen subtree. Matches
/// the decoded-path rule: a key equal to a separator belongs to the right subtree.
pub fn raw_internal_search<'a>(
    data: &'a [u8],
    key: &[u8],
) -> Result<(usize, u64, Option<&'a [u8]>)> {
    if data.len() < 11 || data[0] != TAG_INTERNAL {
        return Err(corrupt("not an internal page"));
    }
    let nkeys = u16::from_le_bytes(data[1..3].try_into().unwrap()) as usize;
    let mut child = u64::from_le_bytes(data[3..11].try_into().unwrap());
    let mut pos = 11usize;
    for i in 0..nkeys {
        if pos + 2 > data.len() {
            return Err(corrupt("truncated internal entry"));
        }
        let klen = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if pos + klen + 8 > data.len() {
            return Err(corrupt("truncated internal entry"));
        }
        let sep = &data[pos..pos + klen];
        pos += klen;
        if sep > key {
            return Ok((i, child, Some(sep)));
        }
        child = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
    }
    Ok((nkeys, child, None))
}

/// Zero-allocation point lookup in an encoded leaf: the value slice for `key`, if
/// present. Entries are sorted, so the walk stops at the first key past `key`.
pub fn raw_leaf_search<'a>(data: &'a [u8], key: &[u8]) -> Result<Option<&'a [u8]>> {
    let mut it = raw_leaf_entries(data)?;
    for entry in &mut it {
        let (k, v) = entry?;
        match k.cmp(key) {
            std::cmp::Ordering::Less => continue,
            std::cmp::Ordering::Equal => return Ok(Some(v)),
            std::cmp::Ordering::Greater => return Ok(None),
        }
    }
    Ok(None)
}

/// Zero-allocation in-order iterator over an encoded leaf's `(key, value)` slices.
pub fn raw_leaf_entries(data: &[u8]) -> Result<RawLeafEntries<'_>> {
    Entries::of(data, TAG_LEAF).map(RawLeafEntries)
}

/// Iterator state for [`raw_leaf_entries`].
pub struct RawLeafEntries<'a>(Entries<'a>);

impl<'a> Iterator for RawLeafEntries<'a> {
    type Item = Result<(&'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        // A leaf has no removed keys: every value is present.
        let entry = self.0.next()?;
        Some(entry.map(|(k, v)| (k, v.unwrap_or_default())))
    }
}

/// In-order walk over the entries of a leaf or a delta: each key with its value, or
/// `None` for a key a delta removes.
struct Entries<'a> {
    data: &'a [u8],
    /// Offset of the next entry; once the walk ends, just past the last one.
    pos: usize,
    remaining: usize,
    /// A delta: a value length of [`TOMBSTONE`] marks a removed key.
    delta: bool,
}

impl<'a> Entries<'a> {
    /// The entries of a page tagged `tag` ([`TAG_LEAF`] or [`TAG_DELTA`]).
    fn of(data: &'a [u8], tag: u8) -> Result<Self> {
        let delta = tag == TAG_DELTA;
        let (header, what) = match delta {
            true => (DELTA_HEADER_BYTES, "not a delta page"),
            false => (LEAF_HEADER_BYTES, "not a leaf page"),
        };
        if data.len() < header || data[0] != tag {
            return Err(corrupt(what));
        }
        Ok(Self {
            data,
            pos: header,
            remaining: u16_at(data, header - 2)?,
            delta,
        })
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(&'a [u8], Option<&'a [u8]>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let Some(entry) = entry_at(self.data, self.pos, self.delta) else {
            self.remaining = 0;
            return Some(Err(corrupt("truncated leaf entry")));
        };
        self.pos = entry.end;
        Some(Ok((entry.key, entry.value)))
    }
}

/// One entry of a leaf or a delta, where it lies in its page.
struct Entry<'a> {
    key: &'a [u8],
    /// `None`: a key the delta removes.
    value: Option<&'a [u8]>,
    /// The offset just past the entry.
    end: usize,
}

/// The entry of a leaf or, if `delta`, of a delta that starts at `pos`; `None` if it
/// runs past the end of `data`.
#[inline]
fn entry_at(data: &[u8], pos: usize, delta: bool) -> Option<Entry<'_>> {
    let head = data.get(pos..pos + 4)?;
    let klen = usize::from(u16::from_le_bytes([head[0], head[1]]));
    let vlen = u16::from_le_bytes([head[2], head[3]]);
    let removed = delta && vlen == TOMBSTONE;
    let vlen = if removed { 0 } else { usize::from(vlen) };
    let key_at = pos + 4;
    let end = key_at + klen + vlen;
    let key = data.get(key_at..key_at + klen)?;
    let value = data.get(key_at + klen..end)?;
    Some(Entry {
        key,
        value: (!removed).then_some(value),
        end,
    })
}

/// What a raw page edit produced: the rewritten page image, or — when the result
/// outgrows one page — its two halves and the separator that moves up to the parent.
#[derive(Debug, PartialEq, Eq)]
pub enum PageEdit {
    /// The edited node still fits one page.
    Fits(Vec<u8>),
    /// The edited node overflowed and was split.
    Split {
        /// The lower half; stays at the node's page id.
        left: Vec<u8>,
        /// Smallest key reachable through `right`.
        sep: Vec<u8>,
        /// The upper half; goes to a newly allocated sibling.
        right: Vec<u8>,
    },
}

fn u16_at(data: &[u8], pos: usize) -> Result<usize> {
    match data.get(pos..pos + 2) {
        Some(b) => Ok(u16::from_le_bytes([b[0], b[1]]) as usize),
        None => Err(corrupt("truncated length")),
    }
}

/// Tag and entry count of a page under construction.
fn start_page(tag: u8, nkeys: usize, capacity: usize) -> Result<Vec<u8>> {
    let nkeys = u16::try_from(nkeys).map_err(|_| corrupt("entry count exceeds u16"))?;
    let mut page = Vec::with_capacity(capacity);
    page.push(tag);
    page.extend_from_slice(&nkeys.to_le_bytes());
    Ok(page)
}

/// A constructed node as it is stored; an error if it outgrows the page.
fn finish_page(page: Vec<u8>, page_size: usize) -> Result<Vec<u8>> {
    if page.len() > page_size {
        return Err(corrupt(&format!(
            "node needs {} bytes but the page holds {page_size}",
            page.len()
        )));
    }
    Ok(page)
}

fn push_len(page: &mut Vec<u8>, len: usize) -> Result<()> {
    let len = u16::try_from(len).map_err(|_| corrupt("byte string longer than u16"))?;
    page.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Append one entry in the leaf encoding; `None` is a delta's removed key.
fn push_entry(page: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) -> Result<()> {
    push_len(page, key.len())?;
    match value {
        Some(v) => push_len(page, v.len())?,
        None => page.extend_from_slice(&TOMBSTONE.to_le_bytes()),
    }
    page.extend_from_slice(key);
    page.extend_from_slice(value.unwrap_or_default());
    Ok(())
}

/// Where `key` sits, or would go, in an encoded leaf or delta — from one pass over
/// the page.
struct Slot<'a> {
    /// Bytes before the first entry.
    header: usize,
    nkeys: usize,
    /// Byte offset of the first entry whose key is `>= key` (`used` if none).
    at: usize,
    /// The entry for `key` itself: its value (`None`: removed) and the offset just
    /// past it.
    hit: Option<(Option<&'a [u8]>, usize)>,
    /// Offset just past the last entry.
    used: usize,
}

fn locate<'a>(data: &'a [u8], tag: u8, key: &[u8]) -> Result<Slot<'a>> {
    let mut it = Entries::of(data, tag)?;
    let (header, nkeys) = (it.pos, it.remaining);
    let mut found = None;
    loop {
        let start = it.pos;
        let Some(entry) = it.next() else { break };
        let (k, v) = entry?;
        if found.is_none() && k >= key {
            found = Some((start, (k == key).then_some((v, it.pos))));
        }
    }
    let (at, hit) = found.unwrap_or((it.pos, None));
    Ok(Slot {
        header,
        nkeys,
        at,
        hit,
        used: it.pos,
    })
}

/// The located page with `key`'s entry set to `entry` — inserted, or replacing the
/// one there — or removed when `entry` is `None`: one copy of the page's bytes, with
/// its header (tag, and a delta's base) kept and its entry count adjusted.
fn splice(
    data: &[u8],
    slot: &Slot<'_>,
    key: &[u8],
    entry: Option<Option<&[u8]>>,
) -> Result<Vec<u8>> {
    let tail = slot.hit.map_or(slot.at, |(_, end)| end);
    let nkeys = slot.nkeys - usize::from(slot.hit.is_some()) + usize::from(entry.is_some());
    let nkeys = u16::try_from(nkeys).map_err(|_| corrupt("entry count exceeds u16"))?;
    let added = entry.map_or(0, |v| 4 + key.len() + v.map_or(0, <[u8]>::len));
    let mut page = Vec::with_capacity(slot.at + added + slot.used - tail);
    page.extend_from_slice(&data[..slot.header - 2]);
    page.extend_from_slice(&nkeys.to_le_bytes());
    page.extend_from_slice(&data[slot.header..slot.at]);
    if let Some(value) = entry {
        push_entry(&mut page, key, value)?;
    }
    page.extend_from_slice(&data[tail..slot.used]);
    Ok(page)
}

/// Insert or overwrite `key` in an encoded leaf by splicing the page image: returns
/// the edit and the previous value. A result of more than `target` bytes splits (one
/// entry alone never does); no image may exceed `page_size`. The output is byte for
/// byte what decoding the leaf, editing the entry list and re-encoding produces —
/// including, on a split, the split point (the first entry boundary past half the
/// edited leaf's bytes, else the middle) and the separator (the right half's first
/// key).
pub fn leaf_upsert(
    data: &[u8],
    key: &[u8],
    value: &[u8],
    target: usize,
    page_size: usize,
) -> Result<(PageEdit, Option<Vec<u8>>)> {
    let slot = locate(data, TAG_LEAF, key)?;
    let page = splice(data, &slot, key, Some(Some(value)))?;
    let old = slot.hit.map(|(v, _)| v.unwrap_or_default().to_vec());
    let nkeys = slot.nkeys + usize::from(old.is_none());
    if page.len() <= target || nkeys < 2 {
        return Ok((PageEdit::Fits(finish_page(page, page_size)?), old));
    }

    // Overflow. `pos` after entry i is exactly the accumulated encoded size.
    let mut it = Entries::of(&page, TAG_LEAF)?;
    let middle = nkeys / 2;
    let (mut count, mut cut) = (middle, 0);
    for i in 0..nkeys {
        it.next().transpose()?;
        if i + 1 == middle {
            cut = it.pos;
        }
        if it.pos > page.len() / 2 && i + 1 < nkeys {
            (count, cut) = (i + 1, it.pos);
            break;
        }
    }
    let sep_len = u16_at(&page, cut)?;
    let sep = page[cut + 4..cut + 4 + sep_len].to_vec();
    let mut left = start_page(TAG_LEAF, count, cut)?;
    left.extend_from_slice(&page[LEAF_HEADER_BYTES..cut]);
    let mut right = start_page(
        TAG_LEAF,
        nkeys - count,
        LEAF_HEADER_BYTES + page.len() - cut,
    )?;
    right.extend_from_slice(&page[cut..]);
    let edit = PageEdit::Split {
        left: finish_page(left, page_size)?,
        sep,
        right: finish_page(right, page_size)?,
    };
    Ok((edit, old))
}

/// Remove `key` from an encoded leaf by splicing the page image: the new page and
/// the removed value, or `None` if the key is absent. Byte-identical to
/// decode → remove → encode.
pub fn leaf_remove(
    data: &[u8],
    key: &[u8],
    page_size: usize,
) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
    let slot = locate(data, TAG_LEAF, key)?;
    let Some((old, _)) = slot.hit else {
        return Ok(None);
    };
    let page = splice(data, &slot, key, None)?;
    Ok(Some((
        finish_page(page, page_size)?,
        old.unwrap_or_default().to_vec(),
    )))
}

/// True if the page is a delta.
pub fn is_delta(data: &[u8]) -> bool {
    data.first() == Some(&TAG_DELTA)
}

/// The base a delta page names; `None` for any other page. An error only for a delta
/// too short to name one.
pub fn raw_delta_base(data: &[u8]) -> Result<Option<u64>> {
    if !is_delta(data) {
        return Ok(None);
    }
    match data.get(1..9) {
        Some(b) => Ok(Some(u64::from_le_bytes(b.try_into().unwrap()))),
        None => Err(corrupt("truncated delta header")),
    }
}

/// A delta against `base` that changes nothing yet.
pub fn delta_empty(base: u64) -> Vec<u8> {
    let mut page = Vec::with_capacity(DELTA_HEADER_BYTES);
    page.push(TAG_DELTA);
    page.extend_from_slice(&base.to_le_bytes());
    page.extend_from_slice(&0u16.to_le_bytes());
    page
}

/// Record in a delta that `key` now maps to `value`, or is removed (`None`),
/// replacing whatever the delta said about `key` before: the leaf's splice over the
/// delta's entries. A removal always leaves a removed-key entry — whether the base
/// holds the key is the base's business — and a value of `u16::MAX` bytes, the
/// removed-key marker, cannot be recorded.
pub fn delta_upsert(delta: &[u8], key: &[u8], value: Option<&[u8]>) -> Result<Vec<u8>> {
    if value.is_some_and(|v| v.len() >= usize::from(TOMBSTONE)) {
        return Err(corrupt("a delta cannot hold a value of u16::MAX bytes"));
    }
    let slot = locate(delta, TAG_DELTA, key)?;
    splice(delta, &slot, key, Some(value))
}

/// Merge a delta into its base leaf in one sorted pass: the consolidated leaf, byte for
/// byte what decoding the base, applying each delta entry (set or remove) and
/// re-encoding produces. Both encode an entry alike, so the merge only copies: each run
/// of base entries between two delta keys in one piece, each set entry as the delta
/// holds it. A malformed base or delta — truncated, wrongly tagged, or a delta whose
/// keys are not strictly ascending — and a result larger than `page_size` are errors.
pub fn delta_apply(base: &[u8], delta: &[u8], page_size: usize) -> Result<Vec<u8>> {
    let truncated = || corrupt("truncated leaf entry");
    let olds = Entries::of(base, TAG_LEAF)?;
    let news = Entries::of(delta, TAG_DELTA)?;
    let (mut olds_left, mut count) = (olds.remaining, olds.remaining);
    let (mut pos, mut copied) = (olds.pos, olds.pos);
    let (mut at, mut prev) = (news.pos, None);
    let mut page = start_page(TAG_LEAF, 0, base.len() + delta.len())?;
    for _ in 0..news.remaining {
        let Entry { key, value, end } = entry_at(delta, at, true).ok_or_else(truncated)?;
        if prev.is_some_and(|p| p >= key) {
            return Err(corrupt("delta keys out of order"));
        }
        prev = Some(key);
        // Pass the base entries below `key`; one equal to it is replaced or removed.
        while olds_left > 0 {
            let old = entry_at(base, pos, false).ok_or_else(truncated)?;
            if old.key > key {
                break;
            }
            if old.key == key {
                page.extend_from_slice(&base[copied..pos]);
                copied = old.end;
                count -= 1;
            }
            (pos, olds_left) = (old.end, olds_left - 1);
        }
        page.extend_from_slice(&base[copied..pos]);
        copied = pos;
        if value.is_some() {
            page.extend_from_slice(&delta[at..end]);
            count += 1;
        }
        at = end;
    }
    for _ in 0..olds_left {
        pos = entry_at(base, pos, false).ok_or_else(truncated)?.end;
    }
    page.extend_from_slice(&base[copied..pos]);
    let count = u16::try_from(count).map_err(|_| corrupt("entry count exceeds u16"))?;
    page[1..LEAF_HEADER_BYTES].copy_from_slice(&count.to_le_bytes());
    finish_page(page, page_size)
}

/// The length of the leaf, internal node or delta encoded at the start of `data`: what
/// it costs stored bare, without the zero tail an older build padded it with.
#[cfg(test)]
pub(crate) fn encoded_len(data: &[u8]) -> Result<usize> {
    match data.first() {
        Some(&TAG_INTERNAL) => Ok(internal_locate(data, 0)?.2),
        Some(&tag @ (TAG_LEAF | TAG_DELTA)) => {
            let mut it = Entries::of(data, tag)?;
            for entry in &mut it {
                entry?;
            }
            Ok(it.pos)
        }
        _ => Err(corrupt("not a btree node or delta page")),
    }
}

/// Bytes of the fixed internal header (tag + key count + child 0).
const INTERNAL_HEADER_BYTES: usize = 1 + 2 + 8;

/// One pass over an encoded internal page: its key count, the byte offset of
/// `children[idx]` and the offset just past the last entry.
fn internal_locate(data: &[u8], idx: usize) -> Result<(usize, usize, usize)> {
    if data.len() < INTERNAL_HEADER_BYTES || data[0] != TAG_INTERNAL {
        return Err(corrupt("not an internal page"));
    }
    let nkeys = u16_at(data, 1)?;
    if idx > nkeys {
        return Err(corrupt("child slot out of range"));
    }
    let mut child_at = 3;
    let mut pos = INTERNAL_HEADER_BYTES;
    for i in 0..nkeys {
        pos += 2 + u16_at(data, pos)?;
        if pos + 8 > data.len() {
            return Err(corrupt("truncated internal entry"));
        }
        if i + 1 == idx {
            child_at = pos;
        }
        pos += 8;
    }
    Ok((nkeys, child_at, pos))
}

/// Point `children[idx]` of an encoded internal page at `child` (the child was
/// relocated). Byte-identical to decode → assign → encode.
pub fn internal_repoint(data: &[u8], idx: usize, child: u64, page_size: usize) -> Result<Vec<u8>> {
    let (_, child_at, used) = internal_locate(data, idx)?;
    let mut page = Vec::with_capacity(used);
    page.extend_from_slice(&data[..used]);
    page[child_at..child_at + 8].copy_from_slice(&child.to_le_bytes());
    finish_page(page, page_size)
}

/// Record a split of `children[idx]` in an encoded internal page: the slot is pointed
/// at `child` (the left half) and `(sep, right)` is spliced in just after it.
/// Byte-identical to decode → insert → encode, including — on overflow — the split
/// rule: with `n` keys after the insert, key `n / 2` moves up, the keys below it stay
/// and the keys above it go right.
pub fn internal_insert(
    data: &[u8],
    idx: usize,
    child: u64,
    sep: &[u8],
    right: u64,
    page_size: usize,
) -> Result<PageEdit> {
    let (nkeys, child_at, used) = internal_locate(data, idx)?;
    let nkeys = nkeys + 1;
    let len = used + 2 + sep.len() + 8;
    let mut page = start_page(TAG_INTERNAL, nkeys, len)?;
    page.extend_from_slice(&data[3..child_at]);
    page.extend_from_slice(&child.to_le_bytes());
    push_len(&mut page, sep.len())?;
    page.extend_from_slice(sep);
    page.extend_from_slice(&right.to_le_bytes());
    page.extend_from_slice(&data[child_at + 8..used]);
    if page.len() <= page_size {
        return Ok(PageEdit::Fits(page));
    }

    let mid = nkeys / 2;
    let mut pos = INTERNAL_HEADER_BYTES;
    for _ in 0..mid {
        pos += 2 + u16_at(&page, pos)? + 8;
    }
    let up_len = u16_at(&page, pos)?;
    let up_end = pos + 2 + up_len;
    if up_end + 8 > page.len() {
        return Err(corrupt("truncated internal entry"));
    }
    let mut left = start_page(TAG_INTERNAL, mid, pos)?;
    left.extend_from_slice(&page[3..pos]);
    // The right half starts at the child that followed the key moving up.
    let mut right = start_page(TAG_INTERNAL, nkeys - mid - 1, 3 + page.len() - up_end)?;
    right.extend_from_slice(&page[up_end..]);
    Ok(PageEdit::Split {
        left: finish_page(left, page_size)?,
        sep: page[pos + 2..up_end].to_vec(),
        right: finish_page(right, page_size)?,
    })
}

/// The page of a new root above the two halves of a split root.
pub fn internal_root(left: u64, sep: &[u8], right: u64, page_size: usize) -> Result<Vec<u8>> {
    let mut page = start_page(TAG_INTERNAL, 1, INTERNAL_HEADER_BYTES + 2 + sep.len() + 8)?;
    page.extend_from_slice(&left.to_le_bytes());
    push_len(&mut page, sep.len())?;
    page.extend_from_slice(sep);
    page.extend_from_slice(&right.to_le_bytes());
    finish_page(page, page_size)
}

impl MetaPage {
    /// Encode the meta page (25 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(META_BYTES);
        buf.push(TAG_META);
        buf.extend_from_slice(&self.root.to_le_bytes());
        buf.extend_from_slice(&self.next_page_id.to_le_bytes());
        buf.extend_from_slice(&self.len.to_le_bytes());
        buf
    }

    /// Decode the meta page.
    pub fn decode(data: &[u8]) -> Result<MetaPage> {
        if data.len() < META_BYTES || data[0] != TAG_META {
            return Err(corrupt("not a meta page"));
        }
        Ok(MetaPage {
            root: u64::from_le_bytes(data[1..9].try_into().unwrap()),
            next_page_id: u64::from_le_bytes(data[9..17].try_into().unwrap()),
            len: u64::from_le_bytes(data[17..25].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"beta".to_vec(), b"two".to_vec()),
            ],
        };
        let encoded = node.encode(256).unwrap();
        assert_eq!(encoded.len(), node.encoded_size());
        assert_eq!(Node::decode(&encoded).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            keys: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![10, 20, 30],
        };
        let encoded = node.encode(128).unwrap();
        assert_eq!(Node::decode(&encoded).unwrap(), node);
    }

    #[test]
    fn meta_roundtrip() {
        let m = MetaPage {
            root: 7,
            next_page_id: 99,
            len: 12345,
        };
        let enc = m.encode();
        assert_eq!(enc.len(), 25);
        assert_eq!(MetaPage::decode(&enc).unwrap(), m);
        // A meta page an older build padded to its page size still decodes.
        let mut padded = enc.clone();
        padded.resize(64, 0);
        assert_eq!(MetaPage::decode(&padded).unwrap(), m);
        assert!(MetaPage::decode(&[0u8; 64]).is_err());
    }

    #[test]
    fn oversized_node_is_rejected() {
        let node = Node::Leaf {
            entries: vec![(vec![1u8; 100], vec![2u8; 100])],
        };
        assert!(node.encode(64).is_err());
        assert!(node.encode(256).is_ok());
    }

    #[test]
    fn mismatched_internal_node_is_rejected() {
        let node = Node::Internal {
            keys: vec![b"k".to_vec()],
            children: vec![1],
        };
        assert!(node.encode(128).is_err());
    }

    #[test]
    fn garbage_pages_are_rejected() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9u8; 32]).is_err());
        // Truncated leaf: claims one entry but has no payload.
        let mut buf = vec![TAG_LEAF];
        buf.extend_from_slice(&1u16.to_le_bytes());
        assert!(Node::decode(&buf).is_err());
    }

    #[test]
    fn raw_internal_search_matches_decoded_child_choice() {
        let node = Node::Internal {
            keys: vec![b"f".to_vec(), b"m".to_vec(), b"t".to_vec()],
            children: vec![10, 20, 30, 40],
        };
        let enc = node.encode(256).unwrap();
        assert!(!raw_is_leaf(&enc).unwrap());
        // Before the first separator, equal-to-a-separator (right subtree), between,
        // and past the last.
        assert_eq!(
            raw_internal_search(&enc, b"a").unwrap(),
            (0, 10, Some(&b"f"[..]))
        );
        assert_eq!(
            raw_internal_search(&enc, b"f").unwrap(),
            (1, 20, Some(&b"m"[..]))
        );
        assert_eq!(
            raw_internal_search(&enc, b"p").unwrap(),
            (2, 30, Some(&b"t"[..]))
        );
        assert_eq!(raw_internal_search(&enc, b"z").unwrap(), (3, 40, None));
    }

    #[test]
    fn raw_leaf_search_and_iteration_match_decoded_entries() {
        let entries = vec![
            (b"alpha".to_vec(), b"1".to_vec()),
            (b"beta".to_vec(), b"two".to_vec()),
            (b"gamma".to_vec(), b"".to_vec()),
        ];
        let enc = Node::Leaf {
            entries: entries.clone(),
        }
        .encode(256)
        .unwrap();
        assert!(raw_is_leaf(&enc).unwrap());
        assert_eq!(raw_leaf_search(&enc, b"beta").unwrap(), Some(&b"two"[..]));
        assert_eq!(raw_leaf_search(&enc, b"gamma").unwrap(), Some(&b""[..]));
        assert_eq!(raw_leaf_search(&enc, b"aaa").unwrap(), None);
        assert_eq!(raw_leaf_search(&enc, b"delta").unwrap(), None);
        assert_eq!(raw_leaf_search(&enc, b"zzz").unwrap(), None);
        let walked: Vec<(Vec<u8>, Vec<u8>)> = raw_leaf_entries(&enc)
            .unwrap()
            .map(|e| e.map(|(k, v)| (k.to_vec(), v.to_vec())))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(walked, entries);
    }

    #[test]
    fn raw_accessors_reject_wrong_tags_and_truncation() {
        let leaf = Node::empty_leaf().encode(64).unwrap();
        let internal = Node::Internal {
            keys: vec![],
            children: vec![7],
        }
        .encode(64)
        .unwrap();
        assert!(raw_internal_search(&leaf, b"x").is_err());
        assert!(raw_leaf_entries(&internal).is_err());
        assert!(raw_is_leaf(&[]).is_err());
        assert!(raw_is_leaf(&[9u8; 16]).is_err());
        assert_eq!(raw_internal_search(&internal, b"x").unwrap(), (0, 7, None));
        assert_eq!(raw_leaf_entries(&leaf).unwrap().count(), 0);
        // A leaf claiming one entry with no payload errors instead of panicking.
        let mut bad = vec![TAG_LEAF];
        bad.extend_from_slice(&1u16.to_le_bytes());
        assert!(raw_leaf_entries(&bad).unwrap().next().unwrap().is_err());
    }

    // ------------------------------------------------------------------
    // Raw page editors: differential against decode → edit → encode
    // ------------------------------------------------------------------

    /// Deterministic splitmix64, so every run explores the same edit sequences.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A byte string of `len` bytes over a two-letter alphabet: short keys collide
        /// (overwrites and removals hit), long ones share prefixes.
        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| b'a' + self.below(2) as u8).collect()
        }
    }

    /// The leaf split rule over a decoded entry list: the first index where the
    /// accumulated encoded size exceeds half the leaf's, else the middle.
    fn split_point(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
        let total = Node::Leaf {
            entries: entries.to_vec(),
        }
        .encoded_size();
        let mut acc = LEAF_HEADER_BYTES;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += 4 + k.len() + v.len();
            if acc > total / 2 && i + 1 < entries.len() {
                return i + 1;
            }
        }
        entries.len() / 2
    }

    fn leaf_entries(data: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        match Node::decode(data).unwrap() {
            Node::Leaf { entries } => entries,
            Node::Internal { .. } => panic!("expected a leaf"),
        }
    }

    fn internal_parts(data: &[u8]) -> (Vec<Vec<u8>>, Vec<u64>) {
        match Node::decode(data).unwrap() {
            Node::Internal { keys, children } => (keys, children),
            Node::Leaf { .. } => panic!("expected an internal node"),
        }
    }

    fn reference_leaf_upsert(
        data: &[u8],
        key: &[u8],
        value: &[u8],
        target: usize,
        page_size: usize,
    ) -> (PageEdit, Option<Vec<u8>>) {
        let mut entries = leaf_entries(data);
        let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value.to_vec())),
            Err(i) => {
                entries.insert(i, (key.to_vec(), value.to_vec()));
                None
            }
        };
        let size = Node::Leaf {
            entries: entries.clone(),
        }
        .encoded_size();
        if size <= target || entries.len() < 2 {
            let page = Node::Leaf { entries }.encode(page_size).unwrap();
            return (PageEdit::Fits(page), old);
        }
        let right = entries.split_off(split_point(&entries));
        let edit = PageEdit::Split {
            sep: right[0].0.clone(),
            left: Node::Leaf { entries }.encode(page_size).unwrap(),
            right: Node::Leaf { entries: right }.encode(page_size).unwrap(),
        };
        (edit, old)
    }

    fn reference_leaf_remove(
        data: &[u8],
        key: &[u8],
        page_size: usize,
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut entries = leaf_entries(data);
        let i = entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()?;
        let old = entries.remove(i).1;
        Some((Node::Leaf { entries }.encode(page_size).unwrap(), old))
    }

    fn reference_internal_insert(
        data: &[u8],
        idx: usize,
        child: u64,
        sep: &[u8],
        right: u64,
        page_size: usize,
    ) -> PageEdit {
        let (mut keys, mut children) = internal_parts(data);
        children[idx] = child;
        keys.insert(idx, sep.to_vec());
        children.insert(idx + 1, right);
        let node = Node::Internal { keys, children };
        if node.encoded_size() <= page_size {
            return PageEdit::Fits(node.encode(page_size).unwrap());
        }
        let Node::Internal { keys, children } = node else {
            unreachable!()
        };
        // The middle key moves up.
        let mid = keys.len() / 2;
        let encode = |keys: &[Vec<u8>], children: &[u64]| {
            Node::Internal {
                keys: keys.to_vec(),
                children: children.to_vec(),
            }
            .encode(page_size)
            .unwrap()
        };
        PageEdit::Split {
            left: encode(&keys[..mid], &children[..mid + 1]),
            sep: keys[mid].clone(),
            right: encode(&keys[mid + 1..], &children[mid + 1..]),
        }
    }

    const EDITS_PER_PAGE_SIZE: usize = 10_000;

    #[test]
    fn leaf_editors_match_decode_edit_encode_byte_for_byte() {
        // The tree's half-page leaves, and leaves that fill the page.
        for (page_size, target) in [64usize, 256, 4096]
            .into_iter()
            .flat_map(|p| [(p, p / 2), (p, p)])
        {
            let max_entry = page_size / 4;
            let mut rng = Rng((page_size + target) as u64);
            let mut page = Node::empty_leaf().encode(page_size).unwrap();
            let (mut splits, mut overwrites, mut removals) = (0, 0, 0);
            for _ in 0..EDITS_PER_PAGE_SIZE {
                let entries = leaf_entries(&page);
                // Half the time aim at a key that is there.
                let key = if !entries.is_empty() && rng.below(2) == 0 {
                    entries[rng.below(entries.len())].0.clone()
                } else {
                    let len = 1 + rng.below(max_entry);
                    rng.bytes(len)
                };
                if rng.below(4) == 0 {
                    let got = leaf_remove(&page, &key, page_size).unwrap();
                    assert_eq!(got, reference_leaf_remove(&page, &key, page_size));
                    if let Some((next, _)) = got {
                        removals += 1;
                        page = next;
                    }
                    continue;
                }
                let value = {
                    let len = rng.below(max_entry - key.len() + 1);
                    rng.bytes(len)
                };
                let (edit, old) = leaf_upsert(&page, &key, &value, target, page_size).unwrap();
                let (want, want_old) =
                    reference_leaf_upsert(&page, &key, &value, target, page_size);
                assert_eq!(edit, want, "page size {page_size}, target {target}");
                assert_eq!(old, want_old);
                overwrites += old.is_some() as usize;
                page = match edit {
                    PageEdit::Fits(page) => page,
                    PageEdit::Split { left, sep, right } => {
                        splits += 1;
                        assert_eq!(leaf_entries(&right)[0].0, sep);
                        if rng.below(2) == 0 {
                            left
                        } else {
                            right
                        }
                    }
                };
                // Stored at its encoded length: no zero tail.
                assert_eq!(page.len(), Node::decode(&page).unwrap().encoded_size());
                assert!(page.len() <= page_size);
            }
            // The sequence must have exercised every arm, not only appends.
            let at = format!("page size {page_size}, target {target}");
            assert!(splits > 50, "{at}: {splits} splits");
            assert!(overwrites > 500, "{at}: {overwrites} overwrites");
            assert!(removals > 500, "{at}: {removals} removals");
        }
    }

    /// The tree's leaf rule — split past half the page, entries of up to a quarter page
    /// of key and value — over leaves of every fill up to the whole page, which is what
    /// an older build split at: no edit yields an image larger than the page, every
    /// result larger than the target splits, and both halves keep at least one entry.
    #[test]
    fn half_page_leaves_split_every_overflow_and_never_outgrow_the_page() {
        for page_size in [64usize, 256, 4096] {
            let (target, max_entry) = (page_size / 2, page_size / 4);
            let mut rng = Rng(page_size as u64 ^ 0x5EED);
            let (mut splits, mut full_page_splits) = (0, 0);
            for round in 0..1_000 {
                // A leaf filled to a random size — every other one as close to the
                // whole page as its entries allow — with entries of up to a random cap.
                let fill = if round % 2 == 0 {
                    page_size
                } else {
                    rng.below(page_size + 1)
                };
                let cap = 1 + rng.below(max_entry);
                let mut entries = std::collections::BTreeMap::new();
                let (mut size, mut misses) = (LEAF_HEADER_BYTES, 0);
                while misses < 32 {
                    let klen = 1 + rng.below(cap);
                    let vlen = rng.below(cap - klen + 1);
                    let key = rng.bytes(klen);
                    if entries.contains_key(&key) || size + 4 + klen + vlen > fill {
                        misses += 1;
                        continue;
                    }
                    size += 4 + klen + vlen;
                    entries.insert(key, rng.bytes(vlen));
                }
                let leaf = Node::Leaf {
                    entries: entries.clone().into_iter().collect(),
                }
                .encode(page_size)
                .unwrap();
                // A maximum-size entry, half the time overwriting a key already there.
                let key = match entries.keys().nth(rng.below(entries.len().max(1))) {
                    Some(k) if rng.below(2) == 0 => k.clone(),
                    _ => {
                        let len = 1 + rng.below(max_entry);
                        rng.bytes(len)
                    }
                };
                let value = rng.bytes(max_entry - key.len());
                let (edit, _) = leaf_upsert(&leaf, &key, &value, target, page_size).unwrap();
                entries.insert(key, value);
                let want: Vec<_> = entries.into_iter().collect();
                match edit {
                    PageEdit::Fits(page) => {
                        assert!(page.len() <= target || want.len() == 1, "{}", page.len());
                        assert_eq!(leaf_entries(&page), want);
                    }
                    PageEdit::Split { left, sep, right } => {
                        splits += 1;
                        full_page_splits += (leaf.len() > page_size - max_entry) as usize;
                        assert!(left.len() <= page_size && right.len() <= page_size);
                        let (left, right) = (leaf_entries(&left), leaf_entries(&right));
                        assert!(!left.is_empty() && !right.is_empty());
                        assert_eq!(right[0].0, sep);
                        assert_eq!([left, right].concat(), want);
                    }
                }
            }
            assert!(splits > 300, "page size {page_size}: {splits} splits");
            assert!(
                full_page_splits > 100,
                "page size {page_size}: {full_page_splits} splits of a nearly full page"
            );
        }
    }

    #[test]
    fn internal_editors_match_decode_edit_encode_byte_for_byte() {
        for page_size in [64usize, 256, 4096] {
            let max_entry = page_size / 4;
            let mut rng = Rng(page_size as u64 ^ 0xABCD);
            let mut page = Node::Internal {
                keys: vec![],
                children: vec![rng.next()],
            }
            .encode(page_size)
            .unwrap();
            let mut splits = 0;
            for _ in 0..EDITS_PER_PAGE_SIZE {
                let (keys, mut children) = internal_parts(&page);
                let idx = rng.below(children.len());
                let child = rng.next();
                if rng.below(3) == 0 {
                    let got = internal_repoint(&page, idx, child, page_size).unwrap();
                    children[idx] = child;
                    let want = Node::Internal { keys, children }.encode(page_size);
                    assert_eq!(got, want.unwrap());
                    page = got;
                    continue;
                }
                let sep = {
                    let len = 1 + rng.below(max_entry);
                    rng.bytes(len)
                };
                let right = rng.next();
                let edit = internal_insert(&page, idx, child, &sep, right, page_size).unwrap();
                let want = reference_internal_insert(&page, idx, child, &sep, right, page_size);
                assert_eq!(edit, want, "page size {page_size}");
                page = match edit {
                    PageEdit::Fits(page) => page,
                    PageEdit::Split { left, right, .. } => {
                        splits += 1;
                        if rng.below(2) == 0 {
                            left
                        } else {
                            right
                        }
                    }
                };
                assert_eq!(page.len(), Node::decode(&page).unwrap().encoded_size());
                assert!(page.len() <= page_size);
            }
            assert!(splits > 50, "page size {page_size}: {splits} splits");
            // A root above a split root is the one-key internal node.
            let sep = rng.bytes(max_entry);
            assert_eq!(
                internal_root(7, &sep, 9, page_size).unwrap(),
                Node::Internal {
                    keys: vec![sep],
                    children: vec![7, 9]
                }
                .encode(page_size)
                .unwrap()
            );
        }
    }

    /// A page padded to its page size — as every page an older build wrote is — or
    /// carrying garbage past its last entry reads and edits exactly like the bare page,
    /// and the edit writes it back without the tail.
    #[test]
    fn editors_ignore_a_padded_or_dirty_tail_and_drop_it() {
        let leaf = Node::Leaf {
            entries: vec![
                (b"b".to_vec(), b"1".to_vec()),
                (b"d".to_vec(), b"2".to_vec()),
            ],
        };
        let internal = Node::Internal {
            keys: vec![b"m".to_vec()],
            children: vec![1, 2],
        };
        let with_tail = |clean: &[u8], fill: u8| {
            let mut page = clean.to_vec();
            page.resize(64, fill);
            page
        };
        let clean = leaf.encode(64).unwrap();
        assert_eq!(clean.len(), leaf.encoded_size());
        for fill in [0, 0xEE] {
            let tailed = with_tail(&clean, fill);
            assert_eq!(Node::decode(&tailed).unwrap(), leaf);
            assert_eq!(raw_leaf_search(&tailed, b"d").unwrap(), Some(&b"2"[..]));
            assert_eq!(
                leaf_upsert(&tailed, b"c", b"x", 32, 64).unwrap(),
                leaf_upsert(&clean, b"c", b"x", 32, 64).unwrap()
            );
            assert_eq!(
                leaf_remove(&tailed, b"b", 64).unwrap(),
                leaf_remove(&clean, b"b", 64).unwrap()
            );
        }
        let clean = internal.encode(64).unwrap();
        assert_eq!(clean.len(), internal.encoded_size());
        for fill in [0, 0xEE] {
            let tailed = with_tail(&clean, fill);
            assert_eq!(Node::decode(&tailed).unwrap(), internal);
            assert_eq!(raw_internal_search(&tailed, b"z").unwrap(), (1, 2, None));
            assert_eq!(
                internal_repoint(&tailed, 1, 5, 64).unwrap(),
                internal_repoint(&clean, 1, 5, 64).unwrap()
            );
            assert_eq!(
                internal_insert(&tailed, 0, 5, b"c", 6, 64).unwrap(),
                internal_insert(&clean, 0, 5, b"c", 6, 64).unwrap()
            );
        }
    }

    /// Run every editor over a (possibly mangled) page; `Ok(())` only if all accept it.
    fn run_every_editor(data: &[u8], leaf: bool, page_size: usize) -> Result<()> {
        if leaf {
            // Keys before, inside and past the entries, so every walk length runs.
            for key in [&b""[..], b"a", b"m", b"zzzz"] {
                leaf_upsert(data, key, b"v", page_size / 2, page_size)?;
                leaf_remove(data, key, page_size)?;
            }
        } else {
            for idx in 0..=3 {
                internal_repoint(data, idx, 1, page_size)?;
                internal_insert(data, idx, 1, b"s", 2, page_size)?;
            }
        }
        Ok(())
    }

    #[test]
    fn editors_reject_hostile_pages_without_panicking() {
        let page_size = 128;
        let leaf = Node::Leaf {
            entries: vec![
                (b"a".to_vec(), b"one".to_vec()),
                (b"m".to_vec(), b"".to_vec()),
                (b"q".to_vec(), b"three".to_vec()),
            ],
        };
        let internal = Node::Internal {
            keys: vec![b"f".to_vec(), b"m".to_vec(), b"t".to_vec()],
            children: vec![10, 20, 30, 40],
        };
        for (node, is_leaf) in [(&leaf, true), (&internal, false)] {
            // Padded to the page, as an older build stored it, so the truncations below
            // also cut into a zero tail.
            let mut good = node.encode(page_size).unwrap();
            good.resize(page_size, 0);
            let used = node.encoded_size();
            run_every_editor(&good, is_leaf, page_size).unwrap();

            // Every truncation that cuts into the entries is an error; one that only
            // shortens the zero tail still parses.
            for cut in 0..good.len() {
                let result = run_every_editor(&good[..cut], is_leaf, page_size);
                assert_eq!(result.is_err(), cut < used, "cut at {cut} of {used}");
            }

            // Wrong tags: the other node kind, the meta tag, zero, garbage.
            for tag in [TAG_LEAF, TAG_INTERNAL, TAG_META, 0, 0xFF] {
                if tag == good[0] {
                    continue;
                }
                let mut bad = good.clone();
                bad[0] = tag;
                assert!(run_every_editor(&bad, is_leaf, page_size).is_err());
            }

            // An entry count or a length field claiming more than the page holds.
            let mut bad = good.clone();
            bad[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            assert!(run_every_editor(&bad, is_leaf, page_size).is_err());
            let mut pos = if is_leaf {
                LEAF_HEADER_BYTES
            } else {
                INTERNAL_HEADER_BYTES
            };
            while pos < used {
                let klen = u16_at(&good, pos).unwrap();
                let fields = if is_leaf { 2 } else { 1 };
                for field in 0..fields {
                    for claim in [u16::MAX, (page_size - pos) as u16] {
                        let mut bad = good.clone();
                        let at = pos + 2 * field;
                        bad[at..at + 2].copy_from_slice(&claim.to_le_bytes());
                        assert!(
                            run_every_editor(&bad, is_leaf, page_size).is_err(),
                            "length field at {at} claiming {claim}"
                        );
                    }
                }
                pos += if is_leaf {
                    4 + klen + u16_at(&good, pos + 2).unwrap()
                } else {
                    2 + klen + 8
                };
            }
        }

        // Edits whose own arguments cannot be encoded.
        let good = leaf.encode(page_size).unwrap();
        let long = vec![b'k'; usize::from(u16::MAX) + 1];
        assert!(leaf_upsert(&good, &long, b"", page_size / 2, page_size).is_err());
        assert!(leaf_upsert(&good, b"k", &long, page_size / 2, page_size).is_err());
        let good = internal.encode(page_size).unwrap();
        assert!(internal_insert(&good, 0, 1, &long, 2, page_size).is_err());
        assert!(internal_repoint(&good, 4, 1, page_size).is_err());
        assert!(internal_insert(&good, 4, 1, b"s", 2, page_size).is_err());
        // A lone entry larger than the page cannot be split into two pages.
        let empty = Node::empty_leaf().encode(64).unwrap();
        assert!(leaf_upsert(&empty, &[b'k'; 80], b"", 32, 64).is_err());
    }

    /// A delta as a reference encoder writes it from a model of its entries.
    fn reference_delta(base: u64, entries: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> Vec<u8> {
        let mut page = vec![TAG_DELTA];
        page.extend_from_slice(&base.to_le_bytes());
        page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for (k, v) in entries {
            page.extend_from_slice(&(k.len() as u16).to_le_bytes());
            let vlen = v.as_ref().map_or(u16::MAX, |v| v.len() as u16);
            page.extend_from_slice(&vlen.to_le_bytes());
            page.extend_from_slice(k);
            page.extend_from_slice(v.as_deref().unwrap_or_default());
        }
        page
    }

    /// Delta edits against a `BTreeMap` model: every [`delta_upsert`] writes exactly the
    /// reference encoding of the model's changes, and [`delta_apply`] over the base
    /// yields exactly decode → apply → [`Node::encode`] — through sets, overwrites,
    /// removals of keys the base holds and of keys it never held, and re-sets of removed
    /// keys.
    #[test]
    fn delta_edits_and_their_merge_match_a_model_byte_for_byte() {
        for page_size in [256usize, 4096] {
            let max_entry = page_size / 4;
            let mut rng = Rng(page_size as u64 ^ 0xDE17A);
            let (mut removals, mut merges, mut emptied) = (0, 0, 0);
            for round in 0..200u64 {
                // A base leaf of random fill, a third of the rounds empty.
                let mut base: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut size = LEAF_HEADER_BYTES;
                let fill = if round % 3 == 0 { 0 } else { page_size / 2 };
                loop {
                    let key = {
                        let len = 1 + rng.below(3);
                        rng.bytes(len)
                    };
                    let len = rng.below(max_entry - key.len());
                    let value = rng.bytes(len);
                    if size + 4 + key.len() + value.len() > fill {
                        break;
                    }
                    size += 4 + key.len() + value.len();
                    base.insert(key, value);
                }
                let base_page = Node::Leaf {
                    entries: base.clone().into_iter().collect(),
                }
                .encode(page_size)
                .unwrap();
                let mut changes: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
                let mut delta = delta_empty(round);
                assert_eq!(raw_delta_base(&delta).unwrap(), Some(round));
                // Every fourth round only removes, so some merges empty the leaf.
                let sets = round % 4 != 0;
                for _ in 0..rng.below(40) {
                    // Keys of up to three letters over a two-letter alphabet: edits hit
                    // the base's keys and each other's.
                    let key = {
                        let len = 1 + rng.below(3);
                        rng.bytes(len)
                    };
                    let len = rng.below(16);
                    let value = (sets && rng.below(3) != 0).then(|| rng.bytes(len));
                    removals += usize::from(value.is_none());
                    delta = delta_upsert(&delta, &key, value.as_deref()).unwrap();
                    changes.insert(key, value);
                    assert_eq!(delta, reference_delta(round, &changes));
                    assert_eq!(encoded_len(&delta).unwrap(), delta.len());
                }
                let mut merged = base.clone();
                for (k, v) in &changes {
                    match v {
                        Some(v) => merged.insert(k.clone(), v.clone()),
                        None => merged.remove(k),
                    };
                }
                let want = Node::Leaf {
                    entries: merged.clone().into_iter().collect(),
                }
                .encode(page_size);
                match delta_apply(&base_page, &delta, page_size) {
                    Ok(leaf) => {
                        assert_eq!(leaf, want.unwrap());
                        merges += 1;
                        emptied += usize::from(merged.is_empty() && !base.is_empty());
                    }
                    // Only a merge that outgrows the page may fail, and then typed.
                    Err(Error::CorruptSegment { .. }) => assert!(want.is_err()),
                    Err(e) => panic!("{e}"),
                }
            }
            assert!(removals > 500, "{removals} removals");
            assert!(
                merges > 150 && emptied > 0,
                "{merges} merges, {emptied} emptied"
            );
        }
    }

    /// A malformed delta is a typed error from every reader, never a panic: truncated
    /// anywhere, tagged as something else, with keys out of order or repeated, or
    /// holding a value the marker would shadow. A delta is not a node.
    #[test]
    fn a_malformed_delta_is_a_typed_error() {
        let base = Node::Leaf {
            entries: vec![(b"b".to_vec(), b"1".to_vec())],
        }
        .encode(128)
        .unwrap();
        let mut delta = delta_empty(7);
        for (k, v) in [
            (&b"a"[..], Some(&b"x"[..])),
            (b"b", None),
            (b"c", Some(b"")),
        ] {
            delta = delta_upsert(&delta, k, v).unwrap();
        }
        let typed = |r: Result<Vec<u8>>| matches!(r, Err(Error::CorruptSegment { .. }));
        assert!(delta_apply(&base, &delta, 128).is_ok());
        for cut in 0..delta.len() {
            let short = &delta[..cut];
            assert!(typed(delta_apply(&base, short, 128)), "cut at {cut}");
            assert!(delta_upsert(short, b"z", None).is_err(), "cut at {cut}");
            assert!(encoded_len(short).is_err(), "cut at {cut}");
        }
        assert!(raw_delta_base(&delta[..5]).is_err());
        for tag in [TAG_LEAF, TAG_INTERNAL, TAG_META, 0] {
            let mut bad = delta.clone();
            bad[0] = tag;
            assert!(typed(delta_apply(&base, &bad, 128)), "tag {tag}");
        }
        // The delta as the base, and a base that is a delta.
        assert!(typed(delta_apply(&delta, &delta, 128)));
        // Keys "a", "b", "c" rewritten to "a", "c", "b" (same lengths), then repeated.
        for swapped in [[b'a', b'c', b'b'], [b'a', b'a', b'c']] {
            let mut bad = delta.clone();
            let mut pos = DELTA_HEADER_BYTES;
            for key in swapped {
                let vlen = u16_at(&bad, pos + 2).unwrap();
                bad[pos + 4] = key;
                pos += 4
                    + 1
                    + if vlen == usize::from(TOMBSTONE) {
                        0
                    } else {
                        vlen
                    };
            }
            assert!(typed(delta_apply(&base, &bad, 128)));
        }
        // A delta cannot hold a value as long as the removed-key marker.
        let long = vec![0u8; usize::from(u16::MAX)];
        assert!(delta_upsert(&delta, b"k", Some(&long)).is_err());
        // A delta is not a node.
        assert!(Node::decode(&delta).is_err());
        assert!(raw_is_leaf(&delta).is_err());
        assert!(raw_leaf_entries(&delta).is_err());
        assert!(leaf_upsert(&delta, b"k", b"v", 64, 128).is_err());
        assert_eq!(raw_delta_base(&base).unwrap(), None);
    }

    #[test]
    fn encoded_size_matches_actual_encoding_for_leaves() {
        let node = Node::Leaf {
            entries: vec![
                (b"key".to_vec(), b"value".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec()),
            ],
        };
        let exact: usize = 1 + 2 + (4 + 3 + 5) + (4 + 2 + 2);
        assert_eq!(node.encoded_size(), exact);
    }
}
