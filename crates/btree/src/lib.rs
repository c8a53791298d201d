//! # lss-btree — a page-based B+-tree storage engine on the log-structured store
//!
//! The paper's Figure 6 experiment replays *"I/O traces collected from running the TPC-C
//! benchmark on a B+-tree-based storage engine"* through the cleaning simulator. This
//! crate is that storage engine — and, since the paged-index refactor, also the
//! workspace's real KV substrate: everything is internally synchronised (`&self`), so
//! trees and KV stores share one `Arc<`[`lss_core::LogStore`]`>` across threads:
//!
//! * [`page_store`] — where pages live: in memory, in an [`lss_core::LogStore`], or
//!   wrapped by a tracer that records the page-write I/O stream;
//! * [`buffer_pool`] — a sharded CLOCK buffer cache with dirty-page tracking and
//!   ordered write-back, so only evictions and checkpoints reach storage (this is what
//!   gives the trace its skew and its shifting hot/cold pattern);
//! * [`node`] / [`tree`] — the B+-tree itself: byte-string keys and values, node
//!   splits, successor-descent range scans, optimistic lock-coupling (version-validated
//!   latch-free reads via [`latch`], writers locking only the nodes they rewrite), and
//!   an optional shadow (copy-on-write) mode for crash-consistent checkpoints;
//! * [`kv`] — [`kv::KvStore`]: an ordered key-value store whose paged index *and*
//!   values live in one log-structured store, committed by an atomic superblock flip;
//! * [`kv_legacy`] — the superblock format, and detection (only) of the retired JSON
//!   index format so that [`kv::KvStore::open`] can refuse it by name.
//!
//! See `examples/btree_on_lss.rs` and `examples/kv_on_lss.rs` at the workspace root.
//!
//! ```
//! use lss_btree::{BTree, BufferPool, MemPageStore};
//!
//! let pool = BufferPool::new(MemPageStore::new(4096), 256);
//! let tree = BTree::open(pool).unwrap();
//! tree.insert(b"hello", b"world").unwrap();
//! assert_eq!(tree.get(b"hello").unwrap().unwrap(), b"world");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer_pool;
pub mod kv;
pub mod kv_legacy;
pub mod latch;
pub mod node;
pub mod page_store;
pub mod tree;

pub use buffer_pool::{BufferPool, BufferPoolStats};
pub use kv::{KvOptions, KvStats, KvStore};
pub use page_store::{LssPageStore, MemPageStore, PageStore, TracingPageStore};
pub use tree::{BTree, TreeCheckpoint, TreeCut, TreeStats};
