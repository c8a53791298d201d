//! # lss-core — a log-structured page store with pluggable cleaning policies
//!
//! This crate implements the system studied in *Efficiently Reclaiming Space in a Log
//! Structured Store* (Lomet & Luo, ICDE 2021): a store in which pages are never updated
//! in place but are instead batched into large **segments** that are written with a single
//! I/O. Because old page versions are left behind, segments develop a "checkerboard" of
//! live and dead pages and must be **cleaned** (garbage collected): the still-live pages of
//! a victim segment are re-written elsewhere so that the whole segment can be reused.
//!
//! The paper's contribution — and the heart of this crate — is the **MDC (Minimum
//! Declining Cost)** cleaning policy ([`policy::MdcPolicy`]), which orders segments for
//! cleaning by the expected *decline* of their per-page cleaning cost and separates pages
//! into segments by estimated update frequency.
//!
//! ## Layered design
//!
//! * [`device`] — where segments physically live ([`device::MemDevice`],
//!   [`device::FileDevice`], or your own [`device::SegmentDevice`]); internally
//!   synchronised (`&self`) so page reads bypass every store lock.
//! * [`layout`] — the self-describing on-device segment format (header, entry table,
//!   checksums) that makes full-scan crash recovery possible.
//! * [`segment`] — in-memory bookkeeping for every segment: free bytes `A`, live pages
//!   `C`, the update-recency estimate `up2` used by the MDC formula, and the quarantine
//!   that delays victim-slot reuse until relocated pages are durable and unpinned.
//! * [`mapping`] — the page table mapping a [`types::PageId`] to its current location;
//!   [`mapping::ShardedPageTable`] is the concurrent form the live store uses.
//! * [`write_buffer`] — the sort buffer that groups pages with similar update frequency
//!   into the same output segment (paper §5.3).
//! * [`policy`] — the cleaning policies evaluated in the paper: age, greedy,
//!   cost-benefit, multi-log, MDC and their "-opt" oracle variants.
//! * [`cleaner`] — pure helpers for victim-page collection plus the
//!   [`cleaner::CleaningReport`] type; the concurrent driver lives in `store::gc_driver`.
//! * [`store`] — [`LogStore`], the public facade: `put` / `get` / `delete` / `flush` /
//!   `checkpoint`, all `&self`, split into a lock-free-ish read path, a mutex-guarded
//!   write pipeline, and a cleaning driver that relocates pages concurrently with
//!   foreground traffic; crash recovery in [`recovery`]. Share it across threads as an
//!   `Arc<LogStore>`. A write only buffers its page: the store's one write-behind
//!   thread appends each full sort-buffer batch and runs the cleaning it needs.
//!
//! The ordered key-value layer (paged B+-tree index living in the same store) moved to
//! the `lss-btree` crate (`lss_btree::kv::KvStore`), where it can build on the tree.
//!
//! ## Quick example
//!
//! ```
//! use lss_core::{LogStore, StoreConfig};
//! use lss_core::policy::PolicyKind;
//!
//! let config = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
//! let store = LogStore::open_in_memory(config).unwrap();
//! for i in 0..1_000u64 {
//!     store.put(i, format!("value-{i}").as_bytes()).unwrap();
//! }
//! store.flush().unwrap();
//! assert_eq!(store.get(17).unwrap().unwrap().as_ref(), b"value-17");
//! let stats = store.stats();
//! assert_eq!(stats.user_pages_written, 1_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod cleaner;
pub mod config;
pub mod device;
pub mod error;
pub mod freq;
pub mod layout;
pub mod mapping;
pub mod policy;
pub mod recovery;
pub mod segment;
pub mod stats;
pub mod store;
pub mod types;
pub mod util;
pub mod write_buffer;

pub use config::{CleaningConfig, StoreConfig};
pub use error::{Error, Result};
pub use policy::{CleaningPolicy, PolicyKind};
pub use stats::StoreStats;
pub use store::{GcPhase, GcPhaseHook, LogStore};
pub use types::{PageId, SegmentId};
