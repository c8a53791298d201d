//! Error type shared by every fallible operation of the crate.

use crate::types::{PageId, SegmentId};
use std::fmt;
use std::io;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the log-structured store.
#[derive(Debug)]
pub enum Error {
    /// Underlying device or file I/O failure.
    Io(io::Error),
    /// A page payload exceeds the usable capacity of a single segment.
    PageTooLarge {
        /// The offending page.
        page: PageId,
        /// Payload size in bytes.
        size: usize,
        /// Maximum payload the configuration allows.
        max: usize,
    },
    /// The store ran out of free segments and cleaning could not reclaim enough space.
    ///
    /// This happens when the logical data written exceeds what the configured
    /// over-provisioning can absorb (fill factor too close to 1.0).
    OutOfSpace {
        /// Number of free segments remaining.
        free_segments: usize,
        /// Number the operation needed.
        needed: usize,
    },
    /// A segment image on the device failed validation (bad magic, checksum, or bounds).
    CorruptSegment {
        /// The segment that failed validation.
        segment: SegmentId,
        /// Human-readable description of what went wrong.
        detail: String,
    },
    /// The device holds segments of another on-device format version (see
    /// [`crate::layout::VERSION`]). Fatal at open: replaying such a device as if its
    /// segments were merely corrupt would silently recover an (almost) empty store.
    FormatVersion {
        /// The version stamped on the device.
        found: u16,
        /// The version this build reads and writes.
        expected: u16,
    },
    /// The checkpoint file could not be parsed.
    CorruptCheckpoint(String),
    /// A page-id partition ran out of ids: an allocator's next id reached the end of
    /// its range (e.g. the KV layer's user-value allocator hitting the reserved
    /// metadata base — allocating past it would overwrite index metadata).
    PageRangeExhausted {
        /// The id the allocator would have handed out.
        next: PageId,
        /// Exclusive upper bound of the partition.
        limit: PageId,
    },
    /// A KV metadata slot holds the retired JSON index format. Only builds that wrote
    /// format-v1 segments ever wrote it; it is detected so that such a store is never
    /// mistaken for an empty or a corrupt one, but it is neither read nor migrated.
    LegacyKvIndex {
        /// The metadata page that holds the legacy chunk.
        slot: PageId,
    },
    /// A B+-tree mutation would have to follow, or grow the tree to, a root-to-leaf
    /// path longer than the tree records. Every level multiplies the leaf count, so
    /// this means a corrupt (cyclic) index, not a large one.
    TreeTooDeep {
        /// The deepest path a mutation records.
        max: usize,
    },
    /// Configuration rejected at store-open time.
    InvalidConfig(String),
    /// The store was opened against a device whose geometry does not match the config.
    GeometryMismatch {
        /// What the configuration expects.
        expected: String,
        /// What the device reports.
        actual: String,
    },
    /// A batched group-commit flip failed. Every caller of the generation — the
    /// leader and all its riders — observes the *same* shared source error, so
    /// matching on the underlying variant behaves identically regardless of which
    /// role a caller happened to play.
    GroupCommitFailed(std::sync::Arc<Error>),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::PageTooLarge { page, size, max } => {
                write!(f, "page {page} is {size} bytes which exceeds the segment payload capacity of {max} bytes")
            }
            Error::OutOfSpace {
                free_segments,
                needed,
            } => write!(
                f,
                "out of space: {free_segments} free segments remain but {needed} are needed; \
                 reduce the logical data size or increase over-provisioning"
            ),
            Error::CorruptSegment { segment, detail } => {
                write!(f, "corrupt segment {segment}: {detail}")
            }
            Error::FormatVersion { found, expected } => write!(
                f,
                "unsupported on-device format: the device was written with segment format \
                 version {found}, this build reads and writes version {expected}"
            ),
            Error::CorruptCheckpoint(detail) => write!(f, "corrupt checkpoint: {detail}"),
            Error::PageRangeExhausted { next, limit } => write!(
                f,
                "page-id partition exhausted: next id {next} has reached the partition \
                 limit {limit}; the store cannot allocate into a reserved range"
            ),
            Error::LegacyKvIndex { slot } => write!(
                f,
                "unsupported KV index format: metadata page {slot} holds the retired JSON \
                 index, which this build neither reads nor migrates"
            ),
            Error::TreeTooDeep { max } => write!(
                f,
                "B+-tree deeper than {max} levels: the index is corrupt or the mutation \
                 would grow it past what a writer records"
            ),
            Error::InvalidConfig(detail) => write!(f, "invalid configuration: {detail}"),
            Error::GeometryMismatch { expected, actual } => {
                write!(
                    f,
                    "device geometry mismatch: expected {expected}, found {actual}"
                )
            }
            Error::GroupCommitFailed(e) => write!(f, "group commit failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::GroupCommitFailed(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::PageTooLarge {
            page: 3,
            size: 10_000,
            max: 4096,
        };
        let msg = e.to_string();
        assert!(msg.contains("page 3"));
        assert!(msg.contains("10000"));

        let e = Error::OutOfSpace {
            free_segments: 1,
            needed: 4,
        };
        assert!(e.to_string().contains("out of space"));

        let e = Error::CorruptSegment {
            segment: SegmentId(5),
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("seg#5"));
        assert!(e.to_string().contains("bad magic"));

        let e = Error::FormatVersion {
            found: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("version 1"));
        assert!(e.to_string().contains("version 2"));

        let e = Error::PageRangeExhausted {
            next: 1 << 62,
            limit: 1 << 62,
        };
        assert!(e.to_string().contains("partition exhausted"));
        assert!(e.to_string().contains("reserved range"));
    }

    #[test]
    fn io_error_converts_and_exposes_source() {
        let io = io::Error::new(io::ErrorKind::NotFound, "nope");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
