//! # lss-tpcc — a TPC-C-style workload for generating page-write traces
//!
//! The paper's Figure 6 evaluates the cleaning policies on *"I/O traces collected from
//! running the TPC-C benchmark on a B+-tree-based storage engine"* (§6.3). The original
//! traces are not available, so this crate regenerates the experiment end-to-end:
//!
//! 1. [`schema`] defines the nine TPC-C tables, their composite keys (encoded as ordered
//!    byte strings) and realistic row payload sizes;
//! 2. [`driver`] loads a scaled-down database into a [`lss_btree::BTree`] behind a buffer
//!    pool and runs the standard transaction mix (New-Order 45%, Payment 43%,
//!    Order-Status 4%, Delivery 4%, Stock-Level 4%);
//! 3. every page write that reaches storage (i.e. survives the buffer cache) is recorded
//!    into an [`lss_workload::WriteTrace`], which the simulator then replays exactly as
//!    the paper replays its traces.
//!
//! The substitution — scaled-down warehouses and buffer pool instead of the paper's scale
//! factor 350–560 with a 4 GiB cache (§6.3) — keeps the run laptop-sized, and it is
//! sound because what matters to the cleaning study is the *skew and drift* of the
//! page-write stream produced by a B+-tree under TPC-C, which is preserved.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod schema;

pub use driver::{TpccConfig, TpccDriver, TpccStats};
