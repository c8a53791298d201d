//! [`SharedLogStore`]: cloneable handles plus the background cleaner.
//!
//! Since the concurrent-pipeline refactor, [`crate::LogStore`] is internally
//! synchronised (`&self` everywhere), so this handle is a thin `Arc` — **not** a global
//! mutex like the pre-refactor design. Reads from any number of handles proceed in
//! parallel with writes and with cleaning.
//!
//! Creating a `SharedLogStore` also spawns a [`BackgroundCleaner`]: a pool of
//! [`StoreConfig::cleaner_threads`](crate::StoreConfig::cleaner_threads) threads that
//! wake when writers signal free-space pressure (or on a periodic poll), select
//! victims, relocate their live pages and commit the remaps with a conflict check — so
//! the cleaning cost leaves the foreground write path. With more than one thread the
//! pool runs that many **concurrent cleaning cycles on disjoint victim sets**, scaling
//! reclamation the way the sharded write path scales ingestion. Writers fall back to
//! lending their own thread to a synchronous cycle only at the hard reserve floor, and
//! the plain (un-shared) `LogStore` still cleans synchronously, so nothing requires the
//! pool.
//!
//! The cleaner threads hold only `Weak` references: dropping the last handle shuts
//! them down, and [`SharedLogStore::try_into_inner`] can recover the owned store.

use crate::cleaner::CleaningReport;
use crate::error::Result;
use crate::stats::StoreStats;
use crate::store::LogStore;
use crate::types::PageId;
use bytes::Bytes;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// A cloneable, thread-safe handle to a [`LogStore`] with a background cleaner.
#[derive(Debug, Clone)]
pub struct SharedLogStore {
    // Declared before `store` so that when the last handle drops, the cleaner shuts
    // down (its Drop joins the pool threads) while the store is still alive.
    cleaner: Arc<BackgroundCleaner>,
    store: Arc<LogStore>,
}

impl SharedLogStore {
    /// Wrap a store and spawn its background cleaner pool
    /// ([`StoreConfig::cleaner_threads`](crate::StoreConfig::cleaner_threads) threads).
    pub fn new(store: LogStore) -> Self {
        let store = Arc::new(store);
        let cleaner = Arc::new(BackgroundCleaner::spawn(&store));
        Self { cleaner, store }
    }

    /// Wrap a store **without** a background cleaner: cleaning then runs synchronously
    /// on writer threads at the free-segment watermark, as in the plain `LogStore`.
    /// Useful for tests and for embedders that schedule cleaning themselves.
    pub fn without_background_cleaner(store: LogStore) -> Self {
        Self {
            cleaner: Arc::new(BackgroundCleaner::detached()),
            store: Arc::new(store),
        }
    }

    /// Write (or overwrite) a page.
    pub fn put(&self, page: PageId, data: &[u8]) -> Result<()> {
        self.store.put(page, data)
    }

    /// Read the current version of a page. Never blocks on writers or the cleaner.
    pub fn get(&self, page: PageId) -> Result<Option<Bytes>> {
        self.store.get(page)
    }

    /// Delete a page.
    pub fn delete(&self, page: PageId) -> Result<()> {
        self.store.delete(page)
    }

    /// True if the page currently exists.
    pub fn contains(&self, page: PageId) -> bool {
        self.store.contains(page)
    }

    /// Drain buffers, persist what each open segment gained (they stay open) and sync
    /// the device (the durability point; see [`LogStore::flush`]).
    pub fn flush(&self) -> Result<()> {
        self.store.flush()
    }

    /// Run one cleaning cycle synchronously, regardless of the free-segment trigger.
    pub fn clean_now(&self) -> Result<CleaningReport> {
        self.store.clean_now()
    }

    /// Snapshot of the operational statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Number of live pages.
    pub fn live_pages(&self) -> usize {
        self.store.live_pages()
    }

    /// Serialize a checkpoint of the current state (call [`SharedLogStore::flush`]
    /// first).
    pub fn checkpoint_json(&self) -> Result<String> {
        self.store.checkpoint_json()
    }

    /// Run a closure with shared access to the underlying store (for operations not
    /// mirrored on the handle).
    pub fn with_store<R>(&self, f: impl FnOnce(&LogStore) -> R) -> R {
        f(&self.store)
    }

    /// Unwrap the store if this is the last handle; otherwise returns `self` back.
    /// Shuts the background cleaner down first.
    pub fn try_into_inner(self) -> std::result::Result<LogStore, SharedLogStore> {
        let SharedLogStore { cleaner, store } = self;
        match Arc::try_unwrap(cleaner) {
            // Last handle: joining the cleaner (Drop) releases its transient refs.
            Ok(cleaner) => drop(cleaner),
            Err(cleaner) => return Err(SharedLogStore { cleaner, store }),
        }
        Arc::try_unwrap(store).map_err(|store| {
            // Unreachable in practice (the store Arc is never handed out), but recover
            // gracefully rather than panicking: re-attach a cleaner.
            let cleaner = Arc::new(BackgroundCleaner::spawn(&store));
            SharedLogStore { cleaner, store }
        })
    }
}

/// The background cleaning pool:
/// [`StoreConfig::cleaner_threads`](crate::StoreConfig::cleaner_threads) threads
/// that wake on writer pressure signals (or a periodic poll), then run cleaning
/// cycles — concurrently, on disjoint victim sets — until the free pool is back above
/// the trigger.
///
/// Owns nothing but `Weak` references to the store; the threads exit when the store is
/// dropped or a shutdown is signalled. Dropping the `BackgroundCleaner` signals shutdown
/// and joins every thread.
#[derive(Debug)]
pub struct BackgroundCleaner {
    store: Weak<LogStore>,
    threads: Vec<JoinHandle<()>>,
}

/// How often the cleaner polls the watermark even without a kick. Kicks make the common
/// case immediate; the poll only covers embedders that write through the plain
/// `LogStore` API while a cleaner is attached.
const CLEANER_POLL_INTERVAL: Duration = Duration::from_millis(20);

impl BackgroundCleaner {
    fn detached() -> Self {
        Self {
            store: Weak::new(),
            threads: Vec::new(),
        }
    }

    fn spawn(store: &Arc<LogStore>) -> Self {
        store.gc.set_background_attached(true);
        let weak = Arc::downgrade(store);
        let threads = (0..store.config().cleaner_threads.max(1))
            .map(|i| {
                let thread_weak = weak.clone();
                std::thread::Builder::new()
                    .name(format!("lss-cleaner-{i}"))
                    .spawn(move || cleaner_loop(thread_weak))
                    .expect("spawning a background cleaner thread")
            })
            .collect();
        Self {
            store: weak,
            threads,
        }
    }
}

impl Drop for BackgroundCleaner {
    fn drop(&mut self) {
        if let Some(store) = self.store.upgrade() {
            store.gc.set_background_attached(false);
            store.gc.shutdown();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn cleaner_loop(weak: Weak<LogStore>) {
    loop {
        // Wait without holding a strong reference so the store can be unwrapped.
        let shutdown = {
            let Some(store) = weak.upgrade() else { return };
            store.gc.wait_for_kick(CLEANER_POLL_INTERVAL)
        };
        if shutdown {
            return;
        }
        let Some(store) = weak.upgrade() else { return };
        let trigger = store.effective_clean_trigger();
        while store.approx_free_segments() <= trigger {
            let free_before = store.approx_free_segments();
            match store.clean_now() {
                // No victims (nothing reclaimable yet): stop until the next kick.
                Ok(report) if report.segments_freed() == 0 => break,
                // Victims were cleaned but the pool did not grow (the cycle's GC
                // output consumed what it freed — possible under multi-log's
                // one-victim cycles). Back off instead of churning: the writers'
                // retry path escalates to space-driven greedy cycles when they
                // actually run out.
                Ok(_) if store.approx_free_segments() <= free_before => break,
                Ok(_) => {}
                // Cleaning I/O errors surface on the foreground paths too; the
                // background thread just backs off.
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoreConfig;
    use crate::policy::PolicyKind;

    fn shared() -> SharedLogStore {
        let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
        config.num_segments = 128;
        SharedLogStore::new(LogStore::open_in_memory(config).unwrap())
    }

    #[test]
    fn basic_operations_through_the_handle() {
        let store = shared();
        store.put(1, b"one").unwrap();
        store.put(2, b"two").unwrap();
        assert!(store.contains(1));
        assert_eq!(store.get(1).unwrap().unwrap().as_ref(), b"one");
        store.delete(1).unwrap();
        assert!(!store.contains(1));
        store.flush().unwrap();
        assert_eq!(store.live_pages(), 1);
        assert!(store.stats().user_pages_written >= 3);
    }

    #[test]
    fn handles_are_cloneable_and_share_state() {
        let a = shared();
        let b = a.clone();
        a.put(7, b"via-a").unwrap();
        assert_eq!(b.get(7).unwrap().unwrap().as_ref(), b"via-a");
        b.put(7, b"via-b").unwrap();
        assert_eq!(a.get(7).unwrap().unwrap().as_ref(), b"via-b");
    }

    #[test]
    fn concurrent_writers_on_disjoint_ranges_preserve_all_data() {
        let store = shared();
        let threads = 4u64;
        let per_thread = 200u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let page = t * 10_000 + i;
                    let payload = format!("thread-{t}-page-{i}");
                    store.put(page, payload.as_bytes()).unwrap();
                    // Overwrite a hot page repeatedly to force some cleaning pressure.
                    store
                        .put(t * 10_000, format!("hot-{t}-{i}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.live_pages() as u64, threads * per_thread);
        for t in 0..threads {
            for i in 1..per_thread {
                let page = t * 10_000 + i;
                let got = store
                    .get(page)
                    .unwrap()
                    .expect("page lost under concurrency");
                assert_eq!(got.as_ref(), format!("thread-{t}-page-{i}").as_bytes());
            }
            let hot = store.get(t * 10_000).unwrap().unwrap();
            assert_eq!(
                hot.as_ref(),
                format!("hot-{t}-{}", per_thread - 1).as_bytes()
            );
        }
    }

    #[test]
    fn readers_run_against_concurrent_writers() {
        let store = shared();
        for i in 0..256u64 {
            store.put(i, format!("init-{i}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for round in 0..20u64 {
                    for i in 0..256u64 {
                        store
                            .put(i, format!("round-{round}-{i}").as_bytes())
                            .unwrap();
                    }
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for round in 0..2_000u64 {
                        let page = (t * 97 + round) % 256;
                        let got = store.get(page).unwrap().expect("page must always exist");
                        let text = std::str::from_utf8(&got).unwrap().to_string();
                        assert!(
                            text == format!("init-{page}") || text.ends_with(&format!("-{page}")),
                            "read a foreign payload: {text} for page {page}"
                        );
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        store.flush().unwrap();
        for i in 0..256u64 {
            assert_eq!(
                store.get(i).unwrap().unwrap().as_ref(),
                format!("round-19-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn with_store_gives_access_to_advanced_operations() {
        let store = shared();
        for i in 0..200u64 {
            store.put(i % 32, &[3u8; 200]).unwrap();
        }
        let report = store.with_store(|s| s.clean_now()).unwrap();
        assert!(report.segments_freed() > 0 || report.pages_moved == 0);
        let json = store.with_store(|s| {
            s.flush().unwrap();
            s.checkpoint_json()
        });
        assert!(json.unwrap().contains("\"pages\""));
    }

    #[test]
    fn try_into_inner_returns_store_when_unique() {
        let store = shared();
        store.put(1, b"x").unwrap();
        let clone = store.clone();
        // Two handles: unwrap fails and hands the handle back.
        let store = match store.try_into_inner() {
            Err(s) => s,
            Ok(_) => panic!("unwrap should fail while a clone exists"),
        };
        drop(clone);
        let inner = store.try_into_inner().expect("last handle unwraps");
        assert_eq!(inner.get(1).unwrap().unwrap().as_ref(), b"x");
    }

    #[test]
    fn background_cleaner_keeps_free_pool_above_floor() {
        let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
        config.num_segments = 64;
        let store = SharedLogStore::new(LogStore::open_in_memory(config.clone()).unwrap());
        let pages = config.logical_pages_for_fill_factor(0.5) as u64;
        let payload = vec![5u8; config.page_bytes];
        for i in 0..(config.physical_pages() as u64 * 6) {
            store.put(i % pages, &payload).unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert!(stats.cleaning_cycles > 0, "cleaning never ran");
        for i in 0..pages {
            assert!(store.get(i).unwrap().is_some(), "page {i} lost");
        }
    }
}
