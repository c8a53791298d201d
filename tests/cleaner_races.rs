//! Deterministic cleaner-race tests for the one-mutator contract: one cleaning cycle
//! runs at a time — concurrent `clean_now` callers serialise on the store's
//! write-behind job lock, as drains, flushes and checkpoints do — while readers and
//! buffered writers go on beside it, at **exact phase boundaries**; plus crash-recovery
//! matrices that kill the store mid-cycle at every phase, and aborted cycles whose
//! victim read, or whose own seal, fails.
//!
//! The store exposes a test hook ([`LogStore::set_gc_phase_hook`]) invoked at every
//! phase boundary of every cleaning cycle with only the job lock held; the
//! [`common::PhaseGate`] harness turns it into a controllable barrier — tests pause a
//! cycle at any boundary (`Claimed → VictimRead → Relocated → Sealed → Synced`), run
//! readers and writers while it is parked, and then release it. This is the
//! `GatedDevice` idea from `tests/concurrency.rs` generalised from "block inside one
//! device read" to "block at any point of the cycle state machine".

use lss::core::cleaner::CleaningReport;
use lss::core::device::{DeviceGeometry, FlakyDevice, MemDevice, SegmentDevice};
use lss::core::policy::PolicyKind;
use lss::core::{Error, GcPhase, LogStore, Result, SegmentId, StoreConfig};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{apply_env_concurrency, CleanerThreads, PhaseGate};

/// Self-describing page payload: `[page_id, version, filler...]`.
fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(page ^ version) as u8; len.max(16)];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode(bytes: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(bytes[..8].try_into().unwrap()),
        u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    )
}

/// A cloneable device with a kill switch: once killed, every write and sync fails (the
/// process "dies" mid-cycle) while the durable contents survive for recovery, which
/// only needs reads. A second switch fails whole-image reads of one chosen segment (a
/// victim read going bad mid-cycle) and nothing else.
#[derive(Clone)]
struct KillSwitchDevice {
    inner: Arc<MemDevice>,
    dead: Arc<AtomicBool>,
    /// Segment whose whole-image reads fail; `u32::MAX` = none.
    unreadable: Arc<AtomicU32>,
    /// Whole-image reads attempted so far.
    image_reads: Arc<AtomicU32>,
}

impl KillSwitchDevice {
    fn new(segment_bytes: usize, num_segments: usize) -> Self {
        Self {
            inner: Arc::new(MemDevice::new(segment_bytes, num_segments)),
            dead: Arc::new(AtomicBool::new(false)),
            unreadable: Arc::new(AtomicU32::new(u32::MAX)),
            image_reads: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Fail every whole-image read of `seg` (`None` heals).
    fn fail_reads_of(&self, seg: Option<SegmentId>) {
        self.unreadable
            .store(seg.map_or(u32::MAX, |s| s.0), Ordering::SeqCst);
    }

    fn check_readable(&self, seg: SegmentId) -> Result<()> {
        self.image_reads.fetch_add(1, Ordering::SeqCst);
        if self.unreadable.load(Ordering::SeqCst) == seg.0 {
            return Err(Error::Io(std::io::Error::other("injected read failure")));
        }
        Ok(())
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    fn revive_for_recovery(&self) {
        self.dead.store(false, Ordering::SeqCst);
    }
}

impl SegmentDevice for KillSwitchDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.check_readable(seg)?;
        self.inner.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.check_readable(seg)?;
        self.inner.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Error::Io(std::io::Error::other("killed mid-cycle")));
        }
        self.inner.write_segment(seg, image)
    }
    fn sync(&self) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Error::Io(std::io::Error::other("killed mid-cycle")));
        }
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// A store primed with reclaimable segments: `pages` pages at version 1, a scrambled
/// half overwritten to version 2 (checkerboarding the sealed segments so cleaning must
/// actually relocate), everything flushed. Returns the expected page → version model.
fn prime_store(store: &LogStore, config: &StoreConfig, pages: u64) -> HashMap<u64, u64> {
    let mut model = HashMap::new();
    for p in 0..pages {
        store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
        model.insert(p, 1);
    }
    for n in 0..pages / 2 {
        let p = (n * 11 + 3) % pages;
        store.put(p, &payload(p, 2, config.page_bytes)).unwrap();
        model.insert(p, 2);
    }
    // A few deletions, so the matrix also proves tombstoned pages are never
    // resurrected by a half-finished cycle.
    for p in (0..pages).step_by(17) {
        store.delete(p).unwrap();
        model.remove(&p);
    }
    store.flush().unwrap();
    model
}

fn assert_matches_model(store: &LogStore, model: &HashMap<u64, u64>, pages: u64, ctx: &str) {
    assert_eq!(store.live_pages(), model.len(), "{ctx}: live-page count");
    for p in 0..pages {
        match model.get(&p) {
            Some(&version) => {
                let got = store
                    .get(p)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{ctx}: page {p} lost"));
                assert_eq!(decode(&got), (p, version), "{ctx}: page {p}");
            }
            None => assert!(
                store.get(p).unwrap().is_none(),
                "{ctx}: deleted page {p} resurrected"
            ),
        }
    }
}

fn race_config() -> StoreConfig {
    let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Greedy);
    // Plenty of headroom so the paced check never has a reason to clean while a test
    // holds a cycle paused.
    config.num_segments = 128;
    config
}

/// Pages a test may rewrite while a cycle holds the job lock: a put only buffers, and a
/// stream holds one frozen batch and one filling batch (~30 pages each here) before a
/// writer waits for the worker — which waits for the paused cycle.
const BUFFERED_PUTS: usize = 40;

/// Spawn a thread that runs one `clean_now` on the store.
fn clean_in_background(store: &Arc<LogStore>) -> std::thread::JoinHandle<Result<CleaningReport>> {
    let store = Arc::clone(store);
    std::thread::spawn(move || store.clean_now())
}

/// Two `clean_now` callers: the first cycle pauses after reading its first victim, and
/// the second caller waits for it — its cycle selects nothing until the first one has
/// synced, so their victim sets are disjoint — while foreground reads and buffered
/// writes complete.
#[test]
fn concurrent_cycles_claim_disjoint_victims_while_foreground_progresses() {
    let config = race_config();
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let pages = 512u64;
    let model = prime_store(&store, &config, pages);

    let gate = PhaseGate::new(&[GcPhase::VictimRead], 1);
    store.set_gc_phase_hook(Some(gate.hook()));
    let first = clean_in_background(&store);
    let token = gate.wait_paused_at(GcPhase::VictimRead, 1)[0];
    let second = clean_in_background(&store);

    // Foreground traffic completes while the first cycle is parked...
    assert_matches_model(&store, &model, pages, "reads beside a paused cycle");
    store
        .put(9_999, &payload(9_999, 7, config.page_bytes))
        .expect("write stalled behind a paused cycle");
    // ...and the second caller's cycle has not begun.
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        gate.events().iter().all(|&(cycle, _, _)| cycle == token),
        "a second cycle started beside a paused one: {:?}",
        gate.events()
    );

    gate.open_wide();
    let a = first.join().unwrap().unwrap();
    let b = second.join().unwrap().unwrap();
    assert!(a.segments_freed() > 0, "the gated cycle reclaimed nothing");
    // Every event of the first cycle precedes every event of the second.
    let events = gate.events();
    let last_of_first = events.iter().rposition(|&(c, _, _)| c == token).unwrap();
    assert!(
        events[last_of_first + 1..]
            .iter()
            .all(|&(c, _, _)| c != token)
            && events[..=last_of_first].iter().all(|&(c, _, _)| c == token),
        "cycles interleaved: {events:?}"
    );
    let a: HashSet<SegmentId> = a.victims.into_iter().collect();
    let b: HashSet<SegmentId> = b.victims.into_iter().collect();
    assert!(a.is_disjoint(&b), "overlapping victims: {a:?} vs {b:?}");

    store.set_gc_phase_hook(None);
    assert_matches_model(&store, &model, pages, "after both cycles");
    assert_eq!(decode(&store.get(9_999).unwrap().unwrap()), (9_999, 7));
}

/// N `clean_now` threads race two writers, whose batches the write-behind thread drains
/// and paces with cycles of its own. A hook that tracks the cycle in flight never sees
/// a second one begin before the first has synced.
#[test]
fn clean_now_callers_and_writers_never_run_two_cycles_at_once() {
    let mut config = StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc);
    config.num_segments = 96;
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let in_flight = Arc::new(std::sync::Mutex::new(None::<u64>));
    let (overlaps, synced) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    {
        let (in_flight, overlaps, synced) = (
            Arc::clone(&in_flight),
            Arc::clone(&overlaps),
            Arc::clone(&synced),
        );
        store.set_gc_phase_hook(Some(Arc::new(move |cycle, phase, _victim| {
            let mut current = in_flight.lock().unwrap();
            match *current {
                Some(c) if c != cycle => {
                    overlaps.fetch_add(1, Ordering::SeqCst);
                }
                _ => *current = Some(cycle),
            }
            if phase == GcPhase::Synced {
                *current = None;
                synced.fetch_add(1, Ordering::SeqCst);
            } else {
                // Widen the window a second cycle would have to overlap in.
                drop(current);
                std::thread::yield_now();
            }
        })));
    }
    let cleaners = CleanerThreads::spawn(&store, 4);
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let store = Arc::clone(&store);
            let len = config.page_bytes;
            std::thread::spawn(move || {
                for round in 1..=40u64 {
                    for i in 0..150u64 {
                        let page = w * 10_000 + (i * 7 + round) % 150;
                        store.put(page, &payload(page, round, len)).unwrap();
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    store.flush().unwrap();
    let store = cleaners.stop(store);
    store.set_gc_phase_hook(None);

    assert_eq!(overlaps.load(Ordering::SeqCst), 0, "two cycles overlapped");
    assert!(synced.load(Ordering::SeqCst) > 0, "no cycle ever ran");
    for w in 0..2u64 {
        for i in 0..150u64 {
            let page = w * 10_000 + i;
            let got = store.get(page).unwrap().unwrap();
            assert_eq!(decode(&got).0, page);
        }
    }
    assert_eq!(store.live_pages(), 300);
}

/// A user rewrite issued while a cycle is paused after its victim read must win. The
/// put only buffers — the drain that remaps the page waits for the cycle — so the read
/// path serves the new version from the sort buffer meanwhile, and the drain's
/// page-table swap replaces the relocated copy afterwards.
#[test]
fn user_rewrite_during_paused_cycle_beats_the_relocation() {
    let config = race_config();
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let pages = 512u64;
    let mut model = prime_store(&store, &config, pages);

    let gate = PhaseGate::new(&[GcPhase::VictimRead], 1);
    store.set_gc_phase_hook(Some(gate.hook()));
    let cleaner = clean_in_background(&store);
    gate.wait_paused_at(GcPhase::VictimRead, 1);

    // The cycle has read a victim image but committed nothing. Overwrite live pages
    // (as many as stay buffered), and read them back at once.
    let mut live: Vec<u64> = model.keys().copied().collect();
    live.sort_unstable();
    for &p in live.iter().take(BUFFERED_PUTS) {
        store.put(p, &payload(p, 50, config.page_bytes)).unwrap();
        model.insert(p, 50);
        assert_eq!(decode(&store.get(p).unwrap().unwrap()), (p, 50));
    }
    gate.open_wide();
    cleaner.join().unwrap().unwrap();
    store.set_gc_phase_hook(None);

    assert_matches_model(&store, &model, pages, "after racing rewrites");
    store.flush().unwrap();
    assert_matches_model(&store, &model, pages, "after flush");
}

/// Walk one cycle through every phase boundary: at each pause, `get` of every page
/// completes and so do puts that stay below backpressure, while a flush started
/// meanwhile waits — it returns only after the cycle does.
#[test]
fn every_phase_boundary_lets_reads_and_buffered_puts_through_and_holds_back_flush() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config();
        let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
        let pages = 512u64;
        let mut model = prime_store(&store, &config, pages);

        let gate = PhaseGate::new(&[phase], 1);
        store.set_gc_phase_hook(Some(gate.hook()));
        let paused = clean_in_background(&store);
        let token = gate.wait_paused_at(phase, 1)[0];

        assert_matches_model(&store, &model, pages, &format!("reads at {phase:?}"));
        for page in 10_000..10_000 + BUFFERED_PUTS as u64 {
            store
                .put(page, &payload(page, 3, config.page_bytes))
                .unwrap();
            model.insert(page, 3);
        }
        // The flush returns only after the cycle: by then the cycle has left the hook
        // and fired `Synced`, which it does under the lock the flush waits for.
        let flusher = {
            let (store, gate) = (Arc::clone(&store), Arc::clone(&gate));
            std::thread::spawn(move || {
                store.flush().unwrap();
                let synced = gate.events().contains(&(token, GcPhase::Synced, None));
                (synced, gate.is_paused(token, phase))
            })
        };
        // Give the flush time to reach the lock before the cycle goes on.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !flusher.is_finished(),
            "phase {phase:?}: a flush returned while the cycle was paused"
        );

        gate.release(token, phase);
        let report = paused.join().unwrap().unwrap();
        assert!(
            report.segments_freed() > 0,
            "phase {phase:?}: the cycle freed nothing"
        );
        let (synced, still_paused) = flusher.join().unwrap();
        assert!(
            synced && !still_paused,
            "phase {phase:?}: the flush overtook the cycle"
        );
        store.set_gc_phase_hook(None);
        let end = 10_000 + BUFFERED_PUTS as u64;
        assert_matches_model(&store, &model, end, &format!("phase {phase:?}"));
    }
}

/// The crash-recovery matrix: one cycle is parked at each phase boundary (victims
/// selected / an image read / the first victim's relocations committed / outputs
/// sealed / synced-but-not-reaped) with writes buffered beside it; the device dies, the
/// process "restarts", and recovery from the device image alone must reproduce exactly
/// the flushed state — no lost pages, no resurrected pages.
#[test]
fn crash_matrix_recovers_flushed_state_at_every_phase_of_a_cycle_beside_buffered_writes() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config();
        let device = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
        let store =
            Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
        let pages = 512u64;
        let model = prime_store(&store, &config, pages);

        let gate = PhaseGate::new(&[phase], 1);
        store.set_gc_phase_hook(Some(gate.hook()));
        let cleaner = clean_in_background(&store);
        gate.wait_paused_at(phase, 1);
        // Writes no flush covers: buffered while the cycle holds the job lock.
        for p in 0..BUFFERED_PUTS as u64 {
            store.put(p, &payload(p, 99, config.page_bytes)).unwrap();
        }

        // Kill the device, then let the cycle run into the dead device and finish
        // however it finishes (an error is expected and fine — the store is doomed).
        device.kill();
        gate.open_wide();
        let _ = cleaner.join().unwrap();
        drop(store); // the process dies; all in-memory state is gone

        // Restart: recovery reads the durable image only.
        device.revive_for_recovery();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        assert_matches_model(&recovered, &model, pages, &format!("crash at {phase:?}"));
        // The recovered store must still write, clean and flush.
        recovered
            .put(0, &payload(0, 77, config.page_bytes))
            .unwrap();
        recovered.clean_now().unwrap();
        recovered.flush().unwrap();
        assert_eq!(decode(&recovered.get(0).unwrap().unwrap()), (0, 77));
    }
}

/// Delete-heavy extension of the crash matrix: most of the store is tombstoned, so
/// the parked cycle is mid-way through relocating victims whose entries are dominated
/// by delete records and stale copies of deleted pages. Killing the device at every
/// phase boundary must never let recovery revive an ever-deleted page — whether the
/// cycle died before re-emitting a tombstone, after staging it in an unsealed output,
/// or after the output was sealed and synced but the victim not yet reaped (both the
/// delete fact and its doomed older copies coexist on the device).
#[test]
fn delete_heavy_crash_matrix_never_resurrects_a_deleted_page() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config();
        let device = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
        let store =
            Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
        let pages = 512u64;

        // Every page gets an old copy, a third get a newer copy, and then two thirds
        // of the store is deleted: the sealed segments the greedy cleaner will select
        // are mostly dead space, stale copies of deleted pages, and tombstones.
        let mut model = HashMap::new();
        let mut deleted_ever = HashSet::new();
        for p in 0..pages {
            store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
            model.insert(p, 1u64);
        }
        for p in (0..pages).step_by(3) {
            store.put(p, &payload(p, 2, config.page_bytes)).unwrap();
            model.insert(p, 2);
        }
        for p in 0..pages {
            if p % 3 != 1 {
                store.delete(p).unwrap();
                model.remove(&p);
                deleted_ever.insert(p);
            }
        }
        store.flush().unwrap();

        let gate = PhaseGate::new(&[phase], 1);
        store.set_gc_phase_hook(Some(gate.hook()));
        let cleaner = clean_in_background(&store);
        gate.wait_paused_at(phase, 1);

        device.kill();
        gate.open_wide();
        let _ = cleaner.join().unwrap();
        drop(store);

        device.revive_for_recovery();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let ctx = format!("delete-heavy crash at {phase:?}");
        for &p in &deleted_ever {
            assert!(
                recovered.get(p).unwrap().is_none(),
                "{ctx}: ever-deleted page {p} live after reopen"
            );
        }
        assert_matches_model(&recovered, &model, pages, &ctx);

        // A deleted page must also stay dead through post-recovery cleaning.
        recovered.clean_now().unwrap();
        recovered.flush().unwrap();
        assert_matches_model(&recovered, &model, pages, &format!("{ctx}, after clean"));
    }
}

/// Fail the whole-image reads of a cycle's second victim, announced by its `Claimed`
/// event (every selection is announced before the first image read starts), and run
/// `arm` at that moment too. Returns the cycle's error and its events.
fn clean_with_second_victim_unreadable(
    store: &Arc<LogStore>,
    device: &KillSwitchDevice,
    arm: impl Fn() + Send + Sync + 'static,
) -> (Error, Vec<(u64, GcPhase, Option<SegmentId>)>) {
    let bound = store.config().write_streams + 2;
    let gate = PhaseGate::new(&[], 0); // records the events, pauses nowhere
    let watched = {
        let (record, probe, device) = (gate.hook(), Arc::clone(store), device.clone());
        let claims = AtomicU32::new(0);
        Arc::new(move |cycle, phase, victim| {
            assert!(probe.pooled_images() <= bound, "pool over its bound");
            if phase == GcPhase::Claimed && claims.fetch_add(1, Ordering::SeqCst) == 1 {
                device.fail_reads_of(victim);
                arm();
            }
            record(cycle, phase, victim);
        })
    };
    store.set_gc_phase_hook(Some(watched));
    let err = store.clean_now().unwrap_err();
    store.set_gc_phase_hook(None);
    (err, gate.events())
}

/// The victims a cycle relocated, from its `Relocated` events.
fn relocated(events: &[(u64, GcPhase, Option<SegmentId>)]) -> Vec<SegmentId> {
    events
        .iter()
        .filter(|&&(_, p, _)| p == GcPhase::Relocated)
        .filter_map(|&(_, _, v)| v)
        .collect()
}

/// A victim read that fails mid-cycle — after an earlier victim of the same cycle was
/// relocated — aborts the cycle cleanly: the error surfaces, the cycle seals its output
/// on the spot, so every segment image it had in flight (the victim image in hand, the
/// one backing its GC output) is back in the store's image pool at once, which never
/// exceeds its bound (`write_streams + 2`); the victim it released stays quarantined
/// until the next flush syncs, which frees it; and once the device heals a later cycle
/// cleans the unread victim byte-exactly.
#[test]
fn failed_victim_read_seals_the_aborted_cycles_outputs_and_returns_every_image_to_the_pool() {
    let config = race_config();
    let bound = config.write_streams + 2;
    let device = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
    let store =
        Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
    let pages = 512u64;
    let model = prime_store(&store, &config, pages);

    // One healthy cycle first, held at its first `Relocated`: a cycle reads its victims
    // one at a time on its own thread, so by then exactly one image has been read and
    // no later victim is read ahead.
    let reads_before = device.image_reads.load(Ordering::SeqCst);
    let gate = PhaseGate::new(&[GcPhase::Relocated], 1);
    store.set_gc_phase_hook(Some(gate.hook()));
    let warm_up = clean_in_background(&store);
    let token = gate.wait_paused_at(GcPhase::Relocated, 1)[0];
    let selected = gate.victims_of(token).len();
    assert!(
        selected >= 2,
        "need two victims per cycle, selected {selected}"
    );
    assert_eq!(
        device.image_reads.load(Ordering::SeqCst) - reads_before,
        1,
        "victim images read before the first victim was relocated"
    );
    gate.open_wide();
    assert!(warm_up.join().unwrap().unwrap().pages_moved > 0);
    store.set_gc_phase_hook(None);
    store.flush().unwrap();
    // The steady state of one cycle: one victim image and one GC output image (a greedy
    // cycle has one output stream), whatever the number of victims.
    let parked = store.pooled_images();
    assert!(
        parked == 2 && parked <= bound,
        "{parked} images pooled after {selected} victims, bound {bound}"
    );

    let sealed_before = store.stats().segments_sealed;
    let (err, events) = clean_with_second_victim_unreadable(&store, &device, || {});
    assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");
    let victims = gate_victims(&events);
    assert!(victims.len() >= 2, "need two victims, selected {victims:?}");

    // The first victim was relocated before the read failed; the abort sealed the
    // output holding its copies and handed every image back.
    assert_eq!(
        relocated(&events),
        [victims[0]],
        "the cycle did not fail mid-way"
    );
    let stats = store.stats();
    assert_eq!(
        stats.segments_sealed,
        sealed_before + 1,
        "the output was not sealed"
    );
    assert_eq!(stats.claimed_victims, 0);
    assert_eq!(store.pooled_images(), parked, "an image never came back");
    assert_matches_model(&store, &model, pages, "after the failed cycle");

    // The released victim waits for a sync; the next flush frees it.
    assert_eq!(stats.quarantined_segments, 1);
    let free = store.free_segments();
    store.flush().unwrap();
    assert_eq!(store.stats().quarantined_segments, 0);
    assert_eq!(store.free_segments(), free + 1);

    // Heal. The victims the dead cycle never reached are selectable again and
    // relocate intact.
    device.fail_reads_of(None);
    let report = store.clean_now().unwrap();
    assert!(report.segments_freed() > 0 && report.pages_moved > 0);
    assert_eq!(store.pooled_images(), parked);
    assert_matches_model(&store, &model, pages, "after the retry cycle");
    store.flush().unwrap();
    drop(store);
    let recovered = LogStore::recover_with_device(config, Box::new(device)).unwrap();
    assert_matches_model(&recovered, &model, pages, "recovered after the retry cycle");
}

/// The victims a cycle selected, from its `Claimed` events.
fn gate_victims(events: &[(u64, GcPhase, Option<SegmentId>)]) -> Vec<SegmentId> {
    events
        .iter()
        .filter(|&&(_, p, _)| p == GcPhase::Claimed)
        .filter_map(|&(_, _, v)| v)
        .collect()
}

/// A [`FlakyDevice`] over a [`KillSwitchDevice`], shared with the test.
struct FlakyShared(Arc<FlakyDevice<KillSwitchDevice>>);

impl SegmentDevice for FlakyShared {
    fn geometry(&self) -> DeviceGeometry {
        self.0.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.0.read_segment(seg)
    }
    fn read_segment_into(&self, seg: SegmentId, buf: &mut Vec<u8>) -> Result<()> {
        self.0.read_segment_into(seg, buf)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.0.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.0.write_segment(seg, image)
    }
    fn write_ranges(&self, seg: SegmentId, image: &[u8], dirty: &[Range<u32>]) -> Result<()> {
        self.0.write_ranges(seg, image, dirty)
    }
    fn sync(&self) -> Result<()> {
        self.0.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.0.segment_writes()
    }
}

/// The abort's own seal fails: the cycle's second victim is unreadable and, from the
/// same moment, every device write fails. The output holding the first victim's copies
/// becomes a wounded seal — its pages still served from memory — and the victim stays
/// quarantined: a flush on the failing device retries the seal, fails, and reaps
/// nothing, so a recovery from the device image meanwhile still finds every page in the
/// victim's slot. Once the device heals, the next flush lands the wounded seal and
/// frees the victim.
#[test]
fn an_aborted_cycles_failed_seal_is_retried_and_no_victim_is_reaped_before_its_copies_are_synced() {
    let config = race_config();
    let kill_switch = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
    let flaky = Arc::new(FlakyDevice::new(kill_switch.clone(), None));
    let store = Arc::new(
        LogStore::open_with_device(config.clone(), Box::new(FlakyShared(Arc::clone(&flaky))))
            .unwrap(),
    );
    let pages = 512u64;
    let model = prime_store(&store, &config, pages);

    let before = store.stats();
    let arm = {
        let flaky = Arc::clone(&flaky);
        move || flaky.set_fail_after_writes(Some(0))
    };
    let (err, events) = clean_with_second_victim_unreadable(&store, &kill_switch, arm);
    assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");
    let victims = gate_victims(&events);
    assert_eq!(
        relocated(&events),
        [victims[0]],
        "the cycle did not fail mid-way"
    );
    let stats = store.stats();
    assert!(
        stats.gc_pages_written > before.gc_pages_written,
        "nothing was relocated"
    );
    assert_eq!(
        stats.segments_sealed, before.segments_sealed,
        "the seal landed"
    );
    assert_eq!(stats.quarantined_segments, 1);
    assert_matches_model(&store, &model, pages, "beside the wounded seal");

    // A flush retries the wounded seal before it syncs, fails, and frees nothing.
    assert!(store.flush().is_err(), "a flush vouched for a missing seal");
    assert_eq!(store.stats().quarantined_segments, 1);
    // The victim's slot is untouched: the device image alone still recovers it all.
    let image =
        LogStore::recover_with_device(config.clone(), Box::new(kill_switch.clone())).unwrap();
    assert_matches_model(&image, &model, pages, "recovered beside the wounded seal");
    drop(image);

    // Healed: the next flush lands the wounded seal, then syncs and frees the victim.
    flaky.set_fail_after_writes(None);
    kill_switch.fail_reads_of(None);
    store.flush().unwrap();
    let stats = store.stats();
    assert_eq!(stats.segments_sealed, before.segments_sealed + 1);
    assert_eq!(stats.quarantined_segments, 0);
    assert_matches_model(&store, &model, pages, "after the retried seal");
    drop(store);
    let recovered = LogStore::recover_with_device(config, Box::new(kill_switch)).unwrap();
    assert_matches_model(
        &recovered,
        &model,
        pages,
        "recovered after the retried seal",
    );
}

/// Flake-catcher: two test-side cleaner threads race several writers, whose batches the
/// write-behind thread drains and cleans for, over a hot overwrite workload; every page
/// must hold its final version and live accounting must match. Run 10× in release by
/// the CI stress job.
#[test]
fn cleaner_threads_race_writers_without_losing_data() {
    let mut config =
        apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    config.num_segments = 128;
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let _cleaners = CleanerThreads::spawn(&store, 2);

    let writers = 4u64;
    let pages_per_writer = 120u64;
    let rounds = 30u64;
    let mut handles = Vec::new();
    for w in 0..writers {
        let store = store.clone();
        let len = config.page_bytes;
        handles.push(std::thread::spawn(move || {
            for round in 1..=rounds {
                for i in 0..pages_per_writer {
                    let i = (i * 13 + round) % pages_per_writer;
                    let page = w * 10_000 + i;
                    store.put(page, &payload(page, round, len)).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    store.flush().unwrap();
    let stats = store.stats();
    assert!(stats.cleaning_cycles > 0, "nothing ever cleaned");
    for w in 0..writers {
        for i in 0..pages_per_writer {
            let page = w * 10_000 + i;
            let got = store
                .get(page)
                .unwrap()
                .unwrap_or_else(|| panic!("page {page} lost under cleaner races"));
            assert_eq!(decode(&got), (page, rounds));
        }
    }
    assert_eq!(store.live_pages() as u64, writers * pages_per_writer);
}

/// Four writers on a small, well-filled device (no cleaner threads beside them): the
/// free pool lives at the must-clean floor, where the write-behind thread's drains of
/// the four streams' batches and its small paced cycles share the last few segments,
/// and a drain that runs dry escalates through the cleaning ladder. None of that may
/// surface as `OutOfSpace` (the device is 70 % full), and no page may be lost.
#[test]
fn four_writers_at_the_floor_see_no_spurious_out_of_space_and_lose_nothing() {
    let mut config = StoreConfig::small_for_tests()
        .with_policy(PolicyKind::Mdc)
        .with_write_streams(4);
    config.num_segments = 96;
    // Floor 4 + 4 = 8, upper mark 16: a band the writers fall through, since no batch
    // on this device is ever nearly free.
    config.cleaning.trigger_free_segments = 16;
    config.cleaning.segments_per_cycle = 16;
    config.cleaning.reserved_free_segments = 4;
    let config = apply_env_concurrency(config);
    let upper = config.cleaning.trigger_free_segments;
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());

    let writers = 4u64;
    let pages_per_writer = 250u64;
    let puts_per_writer = 12_000u64;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let store = Arc::clone(&store);
            let len = config.page_bytes;
            std::thread::spawn(move || {
                // Uniform overwrites (a fixed LCG per writer), so victims keep most of
                // their pages and the pool has to be won back a few segments at a time.
                let mut versions = vec![0u64; pages_per_writer as usize];
                let mut above_upper = 0u64;
                let mut x = w + 1;
                for n in 0..puts_per_writer {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = if n < pages_per_writer {
                        n
                    } else {
                        (x >> 33) % pages_per_writer
                    };
                    let page = w * 10_000 + i;
                    versions[i as usize] += 1;
                    store
                        .put(page, &payload(page, versions[i as usize], len))
                        .unwrap_or_else(|e| panic!("writer {w}, put {n}: {e}"));
                    if n > puts_per_writer / 2 && store.free_segments() > upper {
                        above_upper += 1;
                    }
                }
                (versions, above_upper)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    store.flush().unwrap();
    let stats = store.stats();
    // The test is about the floor only if that is where the pool spent its time.
    let above_upper: u64 = results.iter().map(|(_, above)| above).sum();
    assert!(
        above_upper * 10 < writers * puts_per_writer / 2,
        "the free pool was above the upper mark after {above_upper} puts"
    );
    assert!(stats.cleaning_cycles > 0, "the writers never cleaned");
    for (w, (versions, _)) in results.iter().enumerate() {
        for (i, &version) in versions.iter().enumerate() {
            let page = w as u64 * 10_000 + i as u64;
            let got = store
                .get(page)
                .unwrap()
                .unwrap_or_else(|| panic!("page {page} lost at the floor"));
            assert_eq!(decode(&got), (page, version));
        }
    }
    assert_eq!(store.live_pages() as u64, writers * pages_per_writer);
}

/// Temperature-classed streams change *placement*, never the commit protocol: with two
/// classes, survivors the cycle routes to the hot output stream still lose to user
/// writes issued while the cycle is parked after its victim read. Exactly one version
/// wins — the user's newer one, served from the sort buffer until the drain that waits
/// for the cycle swaps it over the relocated copy.
#[test]
fn hot_stream_survivor_and_racing_user_write_commit_exactly_one_winner() {
    let config = race_config().with_gc_temperature_classes(2);
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let pages = 512u64;
    let mut model = prime_store(&store, &config, pages);

    // Make a fifth of the live pages measurably hot: with classes=2 every page with
    // non-zero sketch heat classifies into the hot stream, and these have the most.
    let hot: Vec<u64> = {
        let mut h: Vec<u64> = model.keys().copied().filter(|p| p % 5 == 0).collect();
        h.sort_unstable();
        h
    };
    assert!(!hot.is_empty());
    for _ in 0..8 {
        for &p in &hot {
            store.put(p, &payload(p, 3, config.page_bytes)).unwrap();
            model.insert(p, 3);
        }
    }
    store.flush().unwrap();

    let gate = PhaseGate::new(&[GcPhase::VictimRead], 1);
    store.set_gc_phase_hook(Some(gate.hook()));
    let cleaner = clean_in_background(&store);
    gate.wait_paused_at(GcPhase::VictimRead, 1);

    // The cycle holds a read image of its first victim (hot pages included) but has
    // committed nothing. Issue a user write on the hot pages (as many as stay
    // buffered): each one must win over whatever the cycle relocates.
    for &p in hot.iter().take(BUFFERED_PUTS) {
        store.put(p, &payload(p, 60, config.page_bytes)).unwrap();
        model.insert(p, 60);
    }
    gate.open_wide();
    cleaner.join().unwrap().unwrap();
    store.set_gc_phase_hook(None);

    // Exactly one winner per page: the user's version 60 everywhere it raced, and no
    // page lost or duplicated anywhere else.
    assert_matches_model(&store, &model, pages, "after hot-stream race");
    store.flush().unwrap();
    assert_matches_model(&store, &model, pages, "after flush");

    // The classed path really is live in this configuration: keep checkerboarding
    // dead space and cleaning until a cycle relocates survivors into the hot
    // (non-zero) class. The gated cycle above may legitimately have claimed only
    // fully-dead victims (greedy picks the emptiest), so this drives ordinary,
    // ungated cycles until one carries hot survivors.
    // The sort-buffer separation groups the hot pages into segments that die
    // *together*, so as long as writes keep flowing there is an endless supply of
    // fully-dead victims and greedy never claims a survivor-bearing segment. Stop
    // writing and drain that backlog with repeated forced cycles: once it is gone,
    // greedy must claim the checkerboarded half-dead segments, whose survivors all
    // carry non-zero sketch heat and therefore route through the hot stream.
    for attempt in 0usize.. {
        let stats = store.stats();
        let hot_class_pages: u64 = stats.gc_class_pages_written.iter().skip(1).sum();
        if hot_class_pages > 0 {
            break;
        }
        assert!(
            attempt < 40,
            "no survivor was ever routed through a hot output stream: per-class {:?}, \
             gc_pages_written {}, cycles {}, cleaned {}",
            stats.gc_class_pages_written,
            stats.gc_pages_written,
            stats.cleaning_cycles,
            stats.segments_cleaned
        );
        store.clean_now().unwrap();
    }
    assert_matches_model(&store, &model, pages, "after driving hot-class cycles");
}

/// `gc_temperature_classes = 1` is inert: a gated cleaning run on the default config
/// and one with the knob set explicitly to 1 select identical victims, free the same
/// segments, write the same GC pages, record zero promotions/demotions, and account
/// every GC byte to class 0.
#[test]
fn single_class_gated_run_matches_default_exactly() {
    let run = |config: StoreConfig| {
        let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
        let pages = 512u64;
        let model = prime_store(&store, &config, pages);
        let gate = PhaseGate::new(&[GcPhase::Claimed], 1);
        store.set_gc_phase_hook(Some(gate.hook()));
        let cleaner = clean_in_background(&store);
        let tokens = gate.wait_paused_at(GcPhase::Claimed, 1);
        let victims = gate.victims_of(tokens[0]);
        gate.open_wide();
        let report = cleaner.join().unwrap().unwrap();
        store.set_gc_phase_hook(None);
        assert_matches_model(&store, &model, pages, "single-class gated run");
        (victims, report.segments_freed(), store.stats())
    };

    let (victims_default, freed_default, stats_default) = run(race_config());
    let (victims_explicit, freed_explicit, stats_explicit) =
        run(race_config().with_gc_temperature_classes(1));

    assert_eq!(
        victims_default, victims_explicit,
        "victim selections diverged"
    );
    assert_eq!(freed_default, freed_explicit);
    assert_eq!(
        stats_default.gc_pages_written,
        stats_explicit.gc_pages_written
    );
    assert_eq!(
        stats_default.segments_cleaned,
        stats_explicit.segments_cleaned
    );
    assert_eq!(
        stats_default.cleaning_cycles,
        stats_explicit.cleaning_cycles
    );

    for stats in [&stats_default, &stats_explicit] {
        assert_eq!(
            stats.gc_class_promotions, 0,
            "classes=1 must never reclassify"
        );
        assert_eq!(
            stats.gc_class_demotions, 0,
            "classes=1 must never reclassify"
        );
        assert!(
            stats.gc_class_pages_written.len() <= 1,
            "classes=1 accounted GC writes outside class 0: {:?}",
            stats.gc_class_pages_written
        );
        let class0: u64 = stats.gc_class_pages_written.iter().sum();
        assert_eq!(
            class0, stats.gc_pages_written,
            "class-0 accounting must cover every GC page"
        );
        assert!(
            stats.gc_class_segments.is_empty(),
            "classes=1 must not tag segments"
        );
    }
}
