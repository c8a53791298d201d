//! The on-store KV metadata format — the versioned binary **superblock** of the paged
//! index — plus the classification logic that tells it apart from corruption, from
//! absence, and from the **retired JSON chunk format** it replaced.
//!
//! The reserved slot at [`crate::kv::META_BASE`] historically held the root chunk of a
//! JSON-encoded index; today it holds one of the two superblock slots. A single
//! classifier (`classify_slot`, crate-internal) decides what a slot's bytes are:
//!
//! * **absent** — the page was never written (a fresh store);
//! * **a valid superblock** — magic + version + checksum all check out;
//! * **a legacy JSON root** — starts with `{`. The format is recognised, never parsed:
//!   [`crate::kv::KvStore::open`] refuses it with [`Error::LegacyKvIndex`];
//! * **corrupt** — none of the above. Corruption is reported as an explicit
//!   [`Error::CorruptCheckpoint`] instead of being silently treated as an empty store.

use bytes::Bytes;
use lss_core::error::{Error, Result};
use lss_core::util::crc32c;

/// Magic prefix of a KV superblock page.
const SB_MAGIC: &[u8; 8] = b"LSSKVSB\x01";
/// Current superblock format version.
const SB_VERSION: u16 = 1;
/// Encoded superblock size: magic + version + 5 × u64 + crc32.
const SB_BYTES: usize = 8 + 2 + 5 * 8 + 4;

/// The paged KV layer's commit record: one of these lives in each of the two
/// alternating superblock slots; the valid one with the highest epoch is the committed
/// state. Everything the KV layer needs to reopen — and nothing else — so a single
/// atomic page write flips the store to a new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Commit epoch (monotonic; selects the slot via `epoch % 2`).
    pub epoch: u64,
    /// Root page of the committed B+-tree (tree-local id).
    pub root: u64,
    /// Tree page-id allocation watermark at commit time.
    pub tree_next_page: u64,
    /// User value page-id allocation watermark at commit time.
    pub user_next_page: u64,
    /// Number of keys in the committed tree (cross-checked on reopen).
    pub len: u64,
}

impl Superblock {
    /// Encode into the on-store byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SB_BYTES);
        buf.extend_from_slice(SB_MAGIC);
        buf.extend_from_slice(&SB_VERSION.to_le_bytes());
        for v in [
            self.epoch,
            self.root,
            self.tree_next_page,
            self.user_next_page,
            self.len,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode, verifying magic, version and checksum. Errors are descriptive — they
    /// surface to the operator when *neither* slot holds anything usable.
    pub fn decode(data: &[u8]) -> Result<Superblock> {
        if data.len() < SB_BYTES {
            return Err(Error::CorruptCheckpoint(format!(
                "kv superblock truncated: {} bytes, need {SB_BYTES}",
                data.len()
            )));
        }
        if &data[..8] != SB_MAGIC {
            return Err(Error::CorruptCheckpoint("kv superblock bad magic".into()));
        }
        let version = u16::from_le_bytes(data[8..10].try_into().unwrap());
        if version != SB_VERSION {
            return Err(Error::CorruptCheckpoint(format!(
                "kv superblock version {version} is not supported by this binary \
                 (expected {SB_VERSION})"
            )));
        }
        let stored_crc = u32::from_le_bytes(data[SB_BYTES - 4..SB_BYTES].try_into().unwrap());
        let actual_crc = crc32c(&data[..SB_BYTES - 4]);
        if stored_crc != actual_crc {
            return Err(Error::CorruptCheckpoint(format!(
                "kv superblock checksum mismatch (stored {stored_crc:#x}, computed {actual_crc:#x})"
            )));
        }
        let word = |i: usize| u64::from_le_bytes(data[10 + i * 8..18 + i * 8].try_into().unwrap());
        Ok(Superblock {
            epoch: word(0),
            root: word(1),
            tree_next_page: word(2),
            user_next_page: word(3),
            len: word(4),
        })
    }
}

/// What a metadata slot's bytes turned out to be.
#[derive(Debug)]
pub(crate) enum SlotState {
    /// The page was never written.
    Absent,
    /// A valid superblock.
    Valid(Superblock),
    /// A chunk of the retired JSON index format (recognised by its first byte only).
    Legacy,
    /// Unreadable as either format; carries the reason.
    Corrupt(String),
}

/// Classify a metadata slot: absent / valid superblock / legacy JSON chunk / corrupt.
pub(crate) fn classify_slot(bytes: Option<&Bytes>) -> SlotState {
    let Some(bytes) = bytes else {
        return SlotState::Absent;
    };
    if bytes.len() >= 8 && &bytes[..8] == SB_MAGIC {
        // It claims to be a superblock: any decode failure (bad version, bad checksum)
        // is corruption, never silently "absent".
        return match Superblock::decode(bytes) {
            Ok(sb) => SlotState::Valid(sb),
            Err(e) => SlotState::Corrupt(e.to_string()),
        };
    }
    if bytes.first() == Some(&b'{') {
        return SlotState::Legacy;
    }
    SlotState::Corrupt(format!(
        "{} bytes that are neither a superblock nor legacy JSON",
        bytes.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip_and_corruption_detection() {
        let sb = Superblock {
            epoch: 7,
            root: 42,
            tree_next_page: 99,
            user_next_page: 12345,
            len: 678,
        };
        let enc = sb.encode();
        assert_eq!(Superblock::decode(&enc).unwrap(), sb);
        // Flip one payload byte: the checksum must catch it.
        let mut bad = enc.clone();
        bad[12] ^= 0xFF;
        let err = Superblock::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("checksum"), "unexpected error: {err}");
        // Truncation.
        assert!(Superblock::decode(&enc[..20])
            .unwrap_err()
            .to_string()
            .contains("truncated"));
        // Unsupported version.
        let mut newer = enc.clone();
        newer[8] = 2;
        let err = Superblock::decode(&newer).unwrap_err().to_string();
        assert!(err.contains("version 2"), "unexpected error: {err}");
    }

    #[test]
    fn classify_distinguishes_absent_valid_legacy_and_corrupt() {
        assert!(matches!(classify_slot(None), SlotState::Absent));

        let sb = Superblock {
            epoch: 1,
            root: 1,
            tree_next_page: 2,
            user_next_page: 0,
            len: 0,
        };
        let valid = Bytes::from(sb.encode());
        assert!(matches!(
            classify_slot(Some(&valid)),
            SlotState::Valid(got) if got == sb
        ));

        let legacy = Bytes::from_static(b"{\"chunks\":1,\"entries\":[],\"next_page\":1}");
        assert!(matches!(classify_slot(Some(&legacy)), SlotState::Legacy));

        // A torn superblock is corrupt, not absent.
        let torn = Bytes::from(sb.encode()[..SB_BYTES - 2].to_vec());
        assert!(matches!(classify_slot(Some(&torn)), SlotState::Corrupt(_)));
        // Arbitrary bytes are corrupt.
        let garbage = Bytes::from_static(b"\x07\x07\x07\x07");
        assert!(matches!(
            classify_slot(Some(&garbage)),
            SlotState::Corrupt(_)
        ));
    }
}
