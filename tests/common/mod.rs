//! Helpers shared by the integration-test binaries (each `tests/*.rs` file compiles
//! separately and pulls this in via `mod common;`).

use lss::core::device::{DeviceGeometry, MemDevice, SegmentDevice};
use lss::core::{Error, GcPhase, GcPhaseHook, LogStore, Result, SegmentId, StoreConfig};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Apply the concurrency knob the CI stress job cranks via the environment
/// (`LSS_WRITE_STREAMS`) on top of a test's base config, clamped to the range config
/// validation accepts.
#[allow(dead_code)] // not every test binary uses it
pub fn apply_env_concurrency(config: StoreConfig) -> StoreConfig {
    config.with_env_overrides()
}

/// The seed the CI stress job varies per iteration (`LSS_STRESS_SEED`), so a stress
/// failure always names the exact seed to replay; tests fall back to `default` for
/// plain deterministic runs.
#[allow(dead_code)] // not every test binary uses it
pub fn stress_seed_or(default: u64) -> u64 {
    std::env::var("LSS_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Extra cleaners racing a store's own writers: `threads` threads that each run
/// `clean_now()` while the free pool is at or below the configured trigger, and park
/// briefly once it is above it, once a cycle freed nothing, or once the pool did not
/// grow. The store starts no cleaner of its own — its cycles run on its write-behind
/// thread — so these threads are what puts `clean_now` callers beside the writers. Every
/// cycle runs under the store's write-behind job lock, so these callers serialise with
/// each other and with the store's own drains and cycles. Dropping the guard stops and
/// joins them.
#[allow(dead_code)] // not every test binary uses it
pub struct CleanerThreads {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

#[allow(dead_code)]
impl CleanerThreads {
    pub fn spawn(store: &Arc<LogStore>, threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..threads)
            .map(|_| {
                let store = Arc::clone(store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let trigger = store.config().cleaning.trigger_free_segments;
                    while !stop.load(Ordering::Relaxed) {
                        let free = store.free_segments();
                        let grew = free <= trigger
                            && matches!(store.clean_now(), Ok(r) if r.segments_freed() > 0)
                            && store.free_segments() > free;
                        if !grew {
                            std::thread::park_timeout(Duration::from_millis(1));
                        }
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }

    /// Stop and join the threads, then take the store back from its last handle.
    pub fn stop(self, store: Arc<LogStore>) -> LogStore {
        drop(self);
        let Ok(store) = Arc::try_unwrap(store) else {
            panic!("another handle to the store is still alive")
        };
        store
    }
}

impl Drop for CleanerThreads {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            thread.thread().unpark();
            let joined = thread.join();
            assert!(
                joined.is_ok() || std::thread::panicking(),
                "a cleaner thread panicked"
            );
        }
    }
}

/// How long [`PhaseGate`] waits before declaring a cycle stuck.
#[allow(dead_code)]
const GATE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Default)]
struct GateInner {
    /// Phases at which the first arrival of each cycle pauses.
    pause_at: HashSet<GcPhase>,
    /// How many pauses may still happen: once spent, later cycles pass through freely
    /// (so a test can park N cycles and still run further cycles to completion).
    pause_budget: usize,
    /// Every hook invocation, in arrival order.
    events: Vec<(u64, GcPhase, Option<SegmentId>)>,
    /// `(cycle, phase)` pairs currently parked inside the hook.
    paused: HashSet<(u64, GcPhase)>,
    /// `(cycle, phase)` pairs allowed through.
    released: HashSet<(u64, GcPhase)>,
    /// Pairs that already took their one pause (later arrivals pass straight through,
    /// so e.g. only the *first* `Claimed` of a cycle pauses it).
    seen: HashSet<(u64, GcPhase)>,
}

/// A controllable barrier over the cleaning-cycle state machine: the store's
/// [`lss::core::LogStore::set_gc_phase_hook`] fires at every phase boundary with only
/// the write-behind job lock held, and this harness turns it into a pause/release gate
/// — tests park a cycle at any boundary, run reads and buffered writes while it is
/// parked (and watch drains, flushes and other cycles wait for it), then release it.
/// Used by `tests/cleaner_races.rs`.
#[derive(Default)]
pub struct PhaseGate {
    inner: Mutex<GateInner>,
    cond: Condvar,
}

#[allow(dead_code)] // not every test binary uses every helper
impl PhaseGate {
    /// A gate pausing the first arrival of up to `budget` cycles at each given phase.
    pub fn new(pause_at: &[GcPhase], budget: usize) -> Arc<Self> {
        let gate = Arc::new(Self::default());
        {
            let mut g = gate.inner.lock().unwrap();
            g.pause_at = pause_at.iter().copied().collect();
            g.pause_budget = budget;
        }
        gate
    }

    /// The hook to install via `LogStore::set_gc_phase_hook`.
    pub fn hook(self: &Arc<Self>) -> GcPhaseHook {
        let gate = Arc::clone(self);
        Arc::new(move |cycle, phase, victim| gate.on_phase(cycle, phase, victim))
    }

    fn on_phase(&self, cycle: u64, phase: GcPhase, victim: Option<SegmentId>) {
        let mut g = self.inner.lock().unwrap();
        g.events.push((cycle, phase, victim));
        self.cond.notify_all();
        if g.pause_budget > 0 && g.pause_at.contains(&phase) && g.seen.insert((cycle, phase)) {
            g.pause_budget -= 1;
            g.paused.insert((cycle, phase));
            self.cond.notify_all();
            let deadline = Instant::now() + GATE_TIMEOUT;
            while !g.released.contains(&(cycle, phase)) {
                let (ng, timeout) = self
                    .cond
                    .wait_timeout(g, deadline.saturating_duration_since(Instant::now()))
                    .unwrap();
                g = ng;
                assert!(
                    !timeout.timed_out(),
                    "cycle {cycle} stuck paused at {phase:?} (test forgot to release?)"
                );
            }
            g.paused.remove(&(cycle, phase));
            self.cond.notify_all();
        }
    }

    /// Block until `n` distinct cycles are parked at `phase`; returns their tokens.
    pub fn wait_paused_at(&self, phase: GcPhase, n: usize) -> Vec<u64> {
        let deadline = Instant::now() + GATE_TIMEOUT;
        let mut g = self.inner.lock().unwrap();
        loop {
            let cycles: Vec<u64> = g
                .paused
                .iter()
                .filter(|(_, p)| *p == phase)
                .map(|&(c, _)| c)
                .collect();
            if cycles.len() >= n {
                return cycles;
            }
            let (ng, timeout) = self
                .cond
                .wait_timeout(g, deadline.saturating_duration_since(Instant::now()))
                .unwrap();
            g = ng;
            assert!(
                !timeout.timed_out(),
                "only {} of {n} cycles reached {phase:?}",
                g.paused.iter().filter(|(_, p)| *p == phase).count()
            );
        }
    }

    /// True while `cycle` is parked at `phase`.
    pub fn is_paused(&self, cycle: u64, phase: GcPhase) -> bool {
        self.inner.lock().unwrap().paused.contains(&(cycle, phase))
    }

    /// Release one parked `(cycle, phase)` pair.
    pub fn release(&self, cycle: u64, phase: GcPhase) {
        let mut g = self.inner.lock().unwrap();
        g.released.insert((cycle, phase));
        self.cond.notify_all();
    }

    /// Stop pausing anywhere and release everything parked now or later.
    pub fn open_wide(&self) {
        let mut g = self.inner.lock().unwrap();
        g.pause_at.clear();
        let parked: Vec<_> = g.paused.iter().copied().collect();
        g.released.extend(parked);
        // Also pre-release pairs that paused once already but might re-arrive.
        let seen: Vec<_> = g.seen.iter().copied().collect();
        g.released.extend(seen);
        self.cond.notify_all();
    }

    /// The victims a cycle selected, from its `Claimed` events.
    pub fn victims_of(&self, cycle: u64) -> Vec<SegmentId> {
        self.inner
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|(c, p, _)| *c == cycle && *p == GcPhase::Claimed)
            .filter_map(|(_, _, v)| *v)
            .collect()
    }

    /// Every hook event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<(u64, GcPhase, Option<SegmentId>)> {
        self.inner.lock().unwrap().events.clone()
    }
}

/// A cloneable in-memory device that "dies" at a chosen write boundary: after a budget
/// of further device writes, every write and sync fails — while the durable contents
/// survive for recovery, which only needs reads. Generalises the crash devices of
/// `tests/concurrency.rs` / `tests/cleaner_races.rs`: `fail_after(n)` sweeps a crash
/// across every device-write boundary of a protocol (n = 0 kills it immediately), and
/// `heal` restores the device so the "restarted process" can write again.
///
/// The unit of the budget is one contiguous write: a whole-segment write, or **each
/// range** of a ranged write (`write_ranges` — what a persist point of an open segment
/// issues: its new payloads, then its new extent). So a sweep crashes before a persist
/// point, between its two ranges, and — with [`CrashPointDevice::fail_after_torn`] —
/// inside a range: only a prefix of the dying range's bytes reaches the medium.
/// Whole-segment writes stay all-or-nothing, as in every crash suite so far: a
/// whole-image write lays the header down first, and (payloads carrying no checksum)
/// the format relies on such a write not being torn between its entry table and its
/// payloads — the assumption format v1 made for every write.
#[derive(Clone)]
#[allow(dead_code)] // not every test binary uses it
pub struct CrashPointDevice {
    inner: Arc<MemDevice>,
    /// Remaining writes before the device dies; `u64::MAX` means healthy.
    budget: Arc<AtomicU64>,
    /// Bytes of the write the device dies in that still land (consumed by that write).
    torn_prefix: Arc<AtomicU64>,
}

#[allow(dead_code)] // not every test binary uses every helper
impl CrashPointDevice {
    pub fn new(segment_bytes: usize, num_segments: usize) -> Self {
        Self {
            inner: Arc::new(MemDevice::new(segment_bytes, num_segments)),
            budget: Arc::new(AtomicU64::new(u64::MAX)),
            torn_prefix: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Allow `n` more writes, then fail every subsequent write and sync.
    pub fn fail_after(&self, n: u64) {
        self.fail_after_torn(n, 0);
    }

    /// [`CrashPointDevice::fail_after`], but if the first failing write is a range of
    /// a ranged write it is *torn*: its first `prefix_bytes` bytes land before the
    /// device dies.
    pub fn fail_after_torn(&self, n: u64, prefix_bytes: u64) {
        self.torn_prefix.store(prefix_bytes, Ordering::SeqCst);
        self.budget.store(n, Ordering::SeqCst);
    }

    /// Kill the device immediately (equivalent to `fail_after(0)`).
    pub fn kill(&self) {
        self.fail_after(0);
    }

    /// Restore the device (the "restarted process" may write again).
    pub fn heal(&self) {
        self.budget.store(u64::MAX, Ordering::SeqCst);
    }

    /// Total writes (whole segments and single ranges) that reached the in-memory
    /// medium in full.
    pub fn writes(&self) -> u64 {
        self.inner.segment_writes()
    }

    fn dead() -> Error {
        Error::Io(std::io::Error::other("simulated crash: device gone"))
    }

    /// Spend one unit of write budget, failing once it is exhausted.
    fn charge(&self) -> Result<()> {
        loop {
            let cur = self.budget.load(Ordering::SeqCst);
            if cur == u64::MAX {
                return Ok(()); // healthy: unlimited
            }
            if cur == 0 {
                return Err(Self::dead());
            }
            if self
                .budget
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// One range of a ranged write: all of `image[range]`, or — in the write the
    /// device dies in — at most the configured torn prefix.
    fn write_range(&self, seg: SegmentId, image: &[u8], range: Range<u32>) -> Result<()> {
        if let Err(dead) = self.charge() {
            let keep = self.torn_prefix.swap(0, Ordering::SeqCst);
            let keep = keep.min(range.len() as u64) as u32;
            if keep > 0 {
                let landed = range.start..range.start + keep;
                self.inner
                    .write_ranges(seg, image, std::slice::from_ref(&landed))?;
            }
            return Err(dead);
        }
        self.inner
            .write_ranges(seg, image, std::slice::from_ref(&range))
    }
}

/// The state of a [`SyncControl`] gate; tests change it through [`SyncControl::set`].
#[derive(Default)]
#[allow(dead_code)]
pub struct SyncState {
    /// While set, a sync numbered `hold_from` or later waits at the gate.
    pub holding: bool,
    /// The first sync (1-based, counted from creation) that `holding` stops; 0 (the
    /// default) stops every one.
    pub hold_from: usize,
    /// Every sync that leaves the gate fails.
    pub failing: bool,
    /// Syncs that have reached the gate since the device was created.
    pub arrived: usize,
}

/// A [`CrashPointDevice`] whose `sync` — the barrier of a KV flip — can be held at a
/// gate and made to fail after it: a test parks a flip inside a barrier, runs other
/// threads against the store meanwhile, and then releases it, fails it, or kills the
/// device under it ([`SyncControl::crash`]). Writes always land unless the crash
/// device has died.
#[derive(Clone)]
#[allow(dead_code)]
pub struct SyncControl {
    inner: CrashPointDevice,
    state: Arc<(Mutex<SyncState>, Condvar)>,
}

#[allow(dead_code)]
impl SyncControl {
    pub fn new(config: &StoreConfig) -> Self {
        Self {
            inner: CrashPointDevice::new(config.segment_bytes, config.num_segments),
            state: Arc::default(),
        }
    }

    pub fn set(&self, change: impl FnOnce(&mut SyncState)) {
        change(&mut self.state.0.lock().unwrap());
        self.state.1.notify_all();
    }

    /// Syncs that have reached the gate so far.
    pub fn syncs(&self) -> usize {
        self.state.0.lock().unwrap().arrived
    }

    /// Block until the `nth` sync (1-based, counted from creation) is at the gate.
    pub fn wait_for_sync(&self, nth: usize) {
        let deadline = Instant::now() + GATE_TIMEOUT;
        let mut state = self.state.0.lock().unwrap();
        while state.arrived < nth {
            let (next, timeout) = self
                .state
                .1
                .wait_timeout(state, deadline.saturating_duration_since(Instant::now()))
                .unwrap();
            state = next;
            assert!(!timeout.timed_out(), "sync {nth} never reached the gate");
        }
    }

    /// The crash device underneath: kill it while a sync is held to crash mid-barrier.
    pub fn crash(&self) -> &CrashPointDevice {
        &self.inner
    }
}

/// A test that fails while the gate is closed must not hang in a drop that joins a
/// thread waiting at the gate (a server's committer, a flusher).
impl Drop for SyncControl {
    fn drop(&mut self) {
        self.set(|s| s.holding = false);
    }
}

impl SegmentDevice for SyncControl {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.inner.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.inner.write_segment(seg, image)
    }
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        self.inner.write_ranges(seg, image, dirty)
    }
    fn sync(&self) -> Result<()> {
        let mut state = self.state.0.lock().unwrap();
        state.arrived += 1;
        let nth = state.arrived;
        self.state.1.notify_all();
        while state.holding && nth >= state.hold_from {
            state = self.state.1.wait(state).unwrap();
        }
        if state.failing {
            return Err(Error::Io(std::io::Error::other("injected sync failure")));
        }
        drop(state);
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// A [`MemDevice`] that counts what is read through it: the bytes of every ranged read,
/// and every whole-image read (`read_segment`, `read_segment_into`). Clones share the
/// device and the counts, so a test can hand one to recovery and read the counts after.
#[allow(dead_code)]
#[derive(Clone)]
pub struct CountingDevice {
    inner: Arc<MemDevice>,
    range_bytes: Arc<AtomicU64>,
    whole_reads: Arc<AtomicU64>,
}

#[allow(dead_code)]
impl CountingDevice {
    pub fn new(segment_bytes: usize, num_segments: usize) -> Self {
        Self {
            inner: Arc::new(MemDevice::new(segment_bytes, num_segments)),
            range_bytes: Arc::default(),
            whole_reads: Arc::default(),
        }
    }

    /// The device underneath, read without counting.
    pub fn uncounted(&self) -> &MemDevice {
        &self.inner
    }

    /// `(range bytes, whole-image reads)` so far; zeroes both.
    pub fn take_counts(&self) -> (u64, u64) {
        (
            self.range_bytes.swap(0, Ordering::SeqCst),
            self.whole_reads.swap(0, Ordering::SeqCst),
        )
    }
}

impl SegmentDevice for CountingDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.whole_reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.whole_reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.range_bytes.fetch_add(len as u64, Ordering::SeqCst);
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.inner.write_segment(seg, image)
    }
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        self.inner.write_ranges(seg, image, dirty)
    }
    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.inner.erase_segment(seg)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

impl SegmentDevice for CrashPointDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.inner.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.charge()?;
        self.inner.write_segment(seg, image)
    }
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        for range in dirty.iter().filter(|r| !r.is_empty()) {
            self.write_range(seg, image, range.clone())?;
        }
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        if self.budget.load(Ordering::SeqCst) == 0 {
            return Err(Self::dead());
        }
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}
