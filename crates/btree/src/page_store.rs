//! Page stores: where the B+-tree's pages live.
//!
//! The tree only needs `read_page` / `write_page`, and — since the shared-handle
//! refactor — every method takes `&self`: implementations are internally synchronised so
//! a [`crate::BufferPool`] and [`crate::BTree`] built on top can themselves be shared
//! across threads the way [`lss_core::LogStore`] already is. Three implementations are
//! provided:
//!
//! * [`MemPageStore`] — a hash map behind a `RwLock`; used when collecting TPC-C
//!   page-write traces (the trace is about *which* pages are written, not where they
//!   land).
//! * [`LssPageStore`] — pages stored in an [`lss_core::LogStore`], demonstrating the
//!   B+-tree running directly on the log-structured store (the store is already `&self`
//!   everywhere, so this is a thin shim).
//! * [`TracingPageStore`] — a wrapper recording every page write into an
//!   [`lss_workload::WriteTrace`]; placed *below* the buffer pool it captures the I/O
//!   stream an actual storage device would see, which is exactly what the paper replays
//!   for Figure 6.

use bytes::Bytes;
use lss_core::{LogStore, Result};
use lss_workload::WriteTrace;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage abstraction for B+-tree pages of at most [`PageStore::page_size`] bytes.
///
/// Implementations must be internally synchronised: the buffer pool calls them from any
/// thread, holding at most one of its own shard latches.
pub trait PageStore: Send + Sync {
    /// The largest page in bytes: the bound every node's split decision compares
    /// against, not a length every page has.
    fn page_size(&self) -> usize;

    /// Read a page; `None` if it was never written. Returns exactly the bytes the last
    /// [`PageStore::write_page`] of `id` stored — a store does not pad them — so the
    /// length varies from page to page (a page written padded, as older builds wrote
    /// every node, comes back padded). The buffer is handed to the pool as is (a frame
    /// holds it, readers share it), so it should own exactly one page.
    fn read_page(&self, id: u64) -> Result<Option<Bytes>>;

    /// Write (or overwrite) a page: `data` is 1 to `page_size` bytes, stored as given.
    fn write_page(&self, id: u64, data: &[u8]) -> Result<()>;

    /// Flush any buffering to the underlying medium.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// In-memory page store backed by a hash map.
#[derive(Debug)]
pub struct MemPageStore {
    page_size: usize,
    pages: RwLock<HashMap<u64, Bytes>>,
    writes: AtomicU64,
}

impl MemPageStore {
    /// Create a store for pages of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        Self {
            page_size,
            pages: RwLock::new(HashMap::new()),
            writes: AtomicU64::new(0),
        }
    }

    /// Number of distinct pages stored.
    pub fn distinct_pages(&self) -> usize {
        self.pages.read().len()
    }

    /// Number of page writes performed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
        Ok(self.pages.read().get(&id).cloned())
    }

    fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
        assert!(
            (1..=self.page_size).contains(&data.len()),
            "page {id} has the wrong size: {} bytes, page size {}",
            data.len(),
            self.page_size
        );
        self.pages.write().insert(id, Bytes::copy_from_slice(data));
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Pages stored in a log-structured store ([`lss_core::LogStore`]).
#[derive(Debug)]
pub struct LssPageStore {
    store: LogStore,
    page_size: usize,
}

impl LssPageStore {
    /// Wrap a `LogStore`; `page_size` should match the store's configured nominal page
    /// size for best packing but any size up to the segment payload limit works.
    pub fn new(store: LogStore, page_size: usize) -> Self {
        Self { store, page_size }
    }

    /// Access the underlying log store (e.g. for statistics or checkpointing).
    pub fn inner(&self) -> &LogStore {
        &self.store
    }

    /// Consume the wrapper and return the underlying log store.
    pub fn into_inner(self) -> LogStore {
        self.store
    }
}

impl PageStore for LssPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
        self.store.get(id)
    }

    fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
        self.store.put(id, data)
    }

    fn sync(&self) -> Result<()> {
        self.store.flush()
    }
}

/// Records every page write that reaches the wrapped store.
#[derive(Debug)]
pub struct TracingPageStore<S: PageStore> {
    inner: S,
    trace: Mutex<WriteTrace>,
}

impl<S: PageStore> TracingPageStore<S> {
    /// Wrap a store.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            trace: Mutex::new(WriteTrace::new()),
        }
    }

    /// A snapshot of the trace recorded so far.
    pub fn trace(&self) -> WriteTrace {
        self.trace.lock().clone()
    }

    /// Number of writes recorded so far (cheaper than cloning the whole trace).
    pub fn trace_len(&self) -> usize {
        self.trace.lock().len()
    }

    /// Consume the wrapper, returning the trace and the inner store.
    pub fn into_parts(self) -> (WriteTrace, S) {
        (self.trace.into_inner(), self.inner)
    }
}

impl<S: PageStore> PageStore for TracingPageStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: u64) -> Result<Option<Bytes>> {
        self.inner.read_page(id)
    }

    fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
        self.trace.lock().record(id);
        self.inner.write_page(id, data)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_core::{policy::PolicyKind, StoreConfig};

    #[test]
    fn mem_store_roundtrip() {
        let s = MemPageStore::new(128);
        assert!(s.read_page(1).unwrap().is_none());
        s.write_page(1, &[7u8; 128]).unwrap();
        assert_eq!(s.read_page(1).unwrap().unwrap(), vec![7u8; 128]);
        assert_eq!(s.distinct_pages(), 1);
        assert_eq!(s.writes(), 1);
    }

    #[test]
    fn mem_store_keeps_short_pages_at_their_length() {
        let s = MemPageStore::new(128);
        s.write_page(1, &[5u8; 17]).unwrap();
        s.write_page(2, &[6u8; 128]).unwrap();
        assert_eq!(s.read_page(1).unwrap().unwrap(), vec![5u8; 17]);
        assert_eq!(s.read_page(2).unwrap().unwrap(), vec![6u8; 128]);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn mem_store_rejects_an_oversized_page() {
        let s = MemPageStore::new(128);
        s.write_page(1, &[0u8; 129]).unwrap();
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn mem_store_rejects_an_empty_page() {
        let s = MemPageStore::new(128);
        s.write_page(1, &[]).unwrap();
    }

    #[test]
    fn mem_store_is_shareable_across_threads() {
        let s = std::sync::Arc::new(MemPageStore::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        s.write_page(t * 1000 + i, &[t as u8; 64]).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.distinct_pages(), 200);
        assert_eq!(s.writes(), 200);
    }

    #[test]
    fn lss_store_roundtrip() {
        let store =
            LogStore::open_in_memory(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc))
                .unwrap();
        let ps = LssPageStore::new(store, 256);
        assert_eq!(ps.page_size(), 256);
        ps.write_page(5, &[3u8; 256]).unwrap();
        ps.sync().unwrap();
        assert_eq!(ps.read_page(5).unwrap().unwrap(), vec![3u8; 256]);
        assert!(ps.read_page(6).unwrap().is_none());
        assert!(ps.inner().stats().user_pages_written >= 1);
    }

    #[test]
    fn tracing_store_records_writes_only() {
        let s = TracingPageStore::new(MemPageStore::new(64));
        s.write_page(10, &[0u8; 64]).unwrap();
        s.write_page(11, &[0u8; 64]).unwrap();
        s.write_page(10, &[1u8; 64]).unwrap();
        let _ = s.read_page(10).unwrap();
        assert_eq!(s.trace().writes, vec![10, 11, 10]);
        assert_eq!(s.trace_len(), 3);
        let (trace, inner) = s.into_parts();
        assert_eq!(trace.len(), 3);
        assert_eq!(inner.distinct_pages(), 2);
    }
}
