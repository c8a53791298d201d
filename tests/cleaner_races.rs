//! Deterministic cleaner-race tests: concurrent cleaning cycles on disjoint victims,
//! interleaved with foreground traffic at **exact phase boundaries**, plus a
//! crash-recovery matrix that kills the store mid-cycle at every phase with two cycles
//! in flight.
//!
//! The store exposes a test hook ([`LogStore::set_gc_phase_hook`]) invoked at every
//! phase boundary of every cleaning cycle with no store lock held; the
//! [`common::PhaseGate`] harness turns it into
//! a controllable barrier — tests pause any cycle at any boundary
//! (`Claimed → VictimRead → Relocated → Sealed → Synced`), run foreground writers or
//! a second cycle while it is parked, and then release it. This is the `GatedDevice`
//! idea from `tests/concurrency.rs` generalised from "block inside one device read"
//! to "block at any point of the cycle state machine".

use lss::core::device::{DeviceGeometry, MemDevice, SegmentDevice};
use lss::core::policy::PolicyKind;
use lss::core::{Error, GcPhase, LogStore, Result, SegmentId, StoreConfig};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

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

fn race_config(cleaner_threads: usize) -> StoreConfig {
    let mut config = StoreConfig::small_for_tests()
        .with_policy(PolicyKind::Greedy)
        .with_cleaner_threads(cleaner_threads);
    // Plenty of headroom so foreground writes issued while cycles are paused never
    // trigger inline cleaning (which would wait for a cycle slot held by a paused
    // cycle and deadlock the test).
    config.num_segments = 128;
    config
}

/// Two cycles run concurrently, pause after reading their first victim, and their
/// claimed victim sets are provably disjoint; foreground reads and writes complete
/// while both are parked, and no data is lost or corrupted by the overlap.
#[test]
fn concurrent_cycles_claim_disjoint_victims_while_foreground_progresses() {
    let config = race_config(2);
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let pages = 512u64;
    let model = prime_store(&store, &config, pages);

    let gate = PhaseGate::new(&[GcPhase::VictimRead], 2);
    store.set_gc_phase_hook(Some(gate.hook()));

    let cleaners: Vec<_> = (0..2)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.clean_now().unwrap())
        })
        .collect();
    let tokens = gate.wait_paused_at(GcPhase::VictimRead, 2);

    // Both cycles are mid-flight with victims claimed: the claims must be disjoint.
    let a: HashSet<SegmentId> = gate.victims_of(tokens[0]).into_iter().collect();
    let b: HashSet<SegmentId> = gate.victims_of(tokens[1]).into_iter().collect();
    assert!(!a.is_empty() && !b.is_empty(), "a cycle claimed nothing");
    assert!(
        a.is_disjoint(&b),
        "cycles claimed overlapping victims: {a:?} vs {b:?}"
    );

    // Foreground traffic completes while two cycles are provably in flight.
    let probe = *model.keys().next().unwrap();
    assert_eq!(
        decode(&store.get(probe).unwrap().unwrap()).0,
        probe,
        "read stalled behind paused cycles"
    );
    store
        .put(9_999, &payload(9_999, 7, config.page_bytes))
        .expect("write stalled behind paused cycles");

    gate.open_wide();
    let mut freed = 0;
    for c in cleaners {
        freed += c.join().unwrap().segments_freed();
    }
    assert!(freed > 0, "two gated cycles reclaimed nothing");

    store.set_gc_phase_hook(None);
    assert_matches_model(&store, &model, pages, "after concurrent cycles");
    assert_eq!(decode(&store.get(9_999).unwrap().unwrap()), (9_999, 7));
}

/// A user rewrite that lands between a cycle's victim read and its commit must win:
/// the cycle's staged copy fails the page-table compare-and-swap and is abandoned.
#[test]
fn user_rewrite_during_paused_cycle_beats_the_relocation() {
    let config = race_config(2);
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let pages = 512u64;
    let model = prime_store(&store, &config, pages);

    let gate = PhaseGate::new(&[GcPhase::VictimRead], 1);
    store.set_gc_phase_hook(Some(gate.hook()));
    let cleaner = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.clean_now().unwrap())
    };
    gate.wait_paused_at(GcPhase::VictimRead, 1);

    // The cycle has read images of claimed victims but committed nothing. Overwrite
    // every live page so every staged relocation it goes on to attempt is stale.
    let mut rewritten = HashMap::new();
    for p in model.keys() {
        store.put(*p, &payload(*p, 50, config.page_bytes)).unwrap();
        rewritten.insert(*p, 50u64);
    }
    gate.open_wide();
    cleaner.join().unwrap();
    store.set_gc_phase_hook(None);

    assert_matches_model(&store, &rewritten, pages, "after racing rewrites");
    store.flush().unwrap();
    assert_matches_model(&store, &rewritten, pages, "after flush");
}

/// Walk one cycle through every phase boundary: at each pause a second cycle runs to
/// completion and foreground reads/writes complete, proving no boundary holds a lock
/// that foreground traffic or another cycle needs.
#[test]
fn every_phase_boundary_overlaps_a_full_cycle_and_foreground_traffic() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config(2);
        let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
        let pages = 512u64;
        let mut model = prime_store(&store, &config, pages);

        let gate = PhaseGate::new(&[phase], 1);
        store.set_gc_phase_hook(Some(gate.hook()));
        let paused = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.clean_now().unwrap())
        };
        let token = gate.wait_paused_at(phase, 1)[0];

        // A full second cycle completes while the first is parked at `phase`...
        let report = store.clean_now().unwrap();
        if phase != GcPhase::Synced {
            // (once the first cycle is fully done, the second may find nothing left)
            assert!(
                report.segments_freed() > 0 || report.pages_moved == 0,
                "phase {phase:?}: second cycle wedged"
            );
        }
        // ...and so does foreground traffic.
        let probe = *model.keys().next().unwrap();
        assert!(store.get(probe).unwrap().is_some());
        store
            .put(10_000, &payload(10_000, 3, config.page_bytes))
            .unwrap();
        model.insert(10_000, 3);

        gate.release(token, phase);
        paused.join().unwrap();
        store.set_gc_phase_hook(None);
        store.flush().unwrap();
        assert_matches_model(&store, &model, 10_001, &format!("phase {phase:?}"));
    }
}

/// The crash-recovery matrix: with **two concurrent cycles** parked at each phase
/// boundary (victims claimed / images read / first victim's relocations committed /
/// outputs sealed / synced-but-not-reaped), the device dies, the process "restarts",
/// and recovery from the device image alone must reproduce exactly the flushed state —
/// no lost pages, no resurrected pages, for any combination of cycle progress.
#[test]
fn crash_matrix_recovers_flushed_state_at_every_phase_with_two_cycles() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config(2);
        let device = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
        let store =
            Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
        let pages = 512u64;
        let model = prime_store(&store, &config, pages);

        let gate = PhaseGate::new(&[phase], 2);
        store.set_gc_phase_hook(Some(gate.hook()));
        let cleaners: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || store.clean_now())
            })
            .collect();
        // Both cycles in flight at the same boundary. (At `Relocated` each cycle has
        // committed its first victim's relocations but not the rest — the "half the
        // relocations committed" point of the matrix.)
        let _tokens = gate.wait_paused_at(phase, 2);

        // Kill the device, then let the cycles run into the dead device and finish
        // however they finish (errors are expected and fine — the store is doomed).
        device.kill();
        gate.open_wide();
        for c in cleaners {
            let _ = c.join().unwrap();
        }
        drop(store); // the process dies; all in-memory state is gone

        // Restart: recovery reads the durable image only.
        device.revive_for_recovery();
        let recovered =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        assert_matches_model(
            &recovered,
            &model,
            pages,
            &format!("crash at {phase:?} with 2 cycles"),
        );
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
/// the two parked cycles are mid-way through relocating victims whose entries are
/// dominated by delete records and stale copies of deleted pages. Killing the device
/// at every phase boundary must never let recovery revive an ever-deleted page —
/// whether the cycle died before re-emitting a tombstone, after staging it in an
/// unsealed output, or after the output was sealed and synced but the victim not yet
/// reaped (both the delete fact and its doomed older copies coexist on the device).
#[test]
fn delete_heavy_crash_matrix_never_resurrects_a_deleted_page() {
    for phase in [
        GcPhase::Claimed,
        GcPhase::VictimRead,
        GcPhase::Relocated,
        GcPhase::Sealed,
        GcPhase::Synced,
    ] {
        let config = race_config(2);
        let device = KillSwitchDevice::new(config.segment_bytes, config.num_segments);
        let store =
            Arc::new(LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap());
        let pages = 512u64;

        // Every page gets an old copy, a third get a newer copy, and then two thirds
        // of the store is deleted: the sealed segments the greedy cleaner will claim
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

        let gate = PhaseGate::new(&[phase], 2);
        store.set_gc_phase_hook(Some(gate.hook()));
        let cleaners: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || store.clean_now())
            })
            .collect();
        let _tokens = gate.wait_paused_at(phase, 2);

        device.kill();
        gate.open_wide();
        for c in cleaners {
            let _ = c.join().unwrap();
        }
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

/// A victim read that fails mid-cycle — after an earlier victim of the same cycle was
/// relocated — must orphan the cycle cleanly: the error surfaces, no claim survives,
/// every segment image the cycle had in flight (the victim image in hand, or backing
/// its GC output) finds its way back to the store's image pool, which never exceeds
/// its bound, and once the device heals a later cycle on the same store cleans the
/// same victims byte-exactly.
#[test]
fn failed_victim_read_orphans_the_cycle_and_returns_every_image_to_the_pool() {
    let config = race_config(1);
    let bound = config.cleaner_threads + config.write_streams;
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
    let warm_up = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.clean_now().unwrap())
    };
    let token = gate.wait_paused_at(GcPhase::Relocated, 1)[0];
    let claimed = gate.victims_of(token).len();
    assert!(
        claimed >= 2,
        "need two victims per cycle, claimed {claimed}"
    );
    assert_eq!(
        device.image_reads.load(Ordering::SeqCst) - reads_before,
        1,
        "victim images read before the first victim was relocated"
    );
    gate.open_wide();
    assert!(warm_up.join().unwrap().pages_moved > 0);
    store.set_gc_phase_hook(None);
    store.flush().unwrap();
    // The steady state of one cycle at a time: one victim image and one GC output image
    // (a greedy cycle has one output stream), whatever the number of victims.
    let parked = store.pooled_images();
    assert!(
        parked == 2 && parked <= bound,
        "{parked} images pooled after {claimed} victims, bound {bound}"
    );

    // Make the next cycle's *second* victim unreadable the moment it is claimed (every
    // claim is announced before the first image read starts), and watch the pool at
    // every phase boundary.
    let gate = PhaseGate::new(&[], 0); // records the events, pauses nowhere
    let watched = {
        let (record, store, device) = (gate.hook(), Arc::clone(&store), device.clone());
        let claims = AtomicU32::new(0);
        Arc::new(move |cycle, phase, victim| {
            assert!(store.pooled_images() <= bound, "pool over its bound");
            if phase == GcPhase::Claimed && claims.fetch_add(1, Ordering::SeqCst) == 1 {
                device.fail_reads_of(victim);
            }
            record(cycle, phase, victim);
        })
    };
    store.set_gc_phase_hook(Some(watched));
    let err = store.clean_now().unwrap_err();
    assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");
    store.set_gc_phase_hook(None);
    let events = gate.events();
    let token = events[0].0;
    let victims = gate.victims_of(token);
    assert!(victims.len() >= 2, "need two victims, claimed {victims:?}");

    // The first victim was relocated before the read failed; the failure itself left
    // nothing claimed and nothing lost.
    let relocated: Vec<_> = events
        .into_iter()
        .filter(|&(_, p, _)| p == GcPhase::Relocated)
        .filter_map(|(_, _, v)| v)
        .collect();
    assert_eq!(relocated, [victims[0]], "the cycle did not fail mid-way");
    assert_eq!(store.stats().claimed_victims, 0);
    assert!(store.pooled_images() <= bound);
    assert_matches_model(&store, &model, pages, "after the failed cycle");

    // Heal. The flush seals the dead cycle's orphaned GC output, whose image is the
    // last one still out: the pool is back where it was.
    device.fail_reads_of(None);
    store.flush().unwrap();
    assert_eq!(store.pooled_images(), parked, "an image never came back");

    // The victims the dead cycle dropped are claimable again and relocate intact.
    let report = store.clean_now().unwrap();
    assert!(report.segments_freed() > 0 && report.pages_moved > 0);
    assert_eq!(store.pooled_images(), parked);
    assert_matches_model(&store, &model, pages, "after the retry cycle");
    store.flush().unwrap();
    drop(store);
    let recovered = LogStore::recover_with_device(config, Box::new(device)).unwrap();
    assert_matches_model(&recovered, &model, pages, "recovered after the retry cycle");
}

/// Flake-catcher: test-side cleaner threads (LSS_CLEANER_THREADS, default 2) race
/// several writers, which also clean inline, over a hot overwrite workload; every page
/// must hold its final version and live accounting must match. Run 10× in release by
/// the CI stress job.
#[test]
fn cleaner_threads_race_writers_without_losing_data() {
    let mut config = apply_env_concurrency(
        StoreConfig::small_for_tests()
            .with_policy(PolicyKind::Mdc)
            .with_cleaner_threads(2),
    );
    config.num_segments = 128;
    let store = Arc::new(LogStore::open_in_memory(config.clone()).unwrap());
    let _cleaners = CleanerThreads::spawn(&store);

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

/// Four writers pace their own cleaning on a small, well-filled device (no cleaner
/// threads beside them): the free pool lives at the must-clean floor, where every
/// writer's next drain competes with the others' small inline cycles for the last few
/// segments — victims claimed by a peer, freed segments raced away, a fruitless attempt
/// remembered by one writer while another changes the count. None of that may surface
/// as `OutOfSpace` (the device is 70 % full), and no page may be lost.
#[test]
fn four_writers_at_the_floor_see_no_spurious_out_of_space_and_lose_nothing() {
    let mut config = StoreConfig::small_for_tests()
        .with_policy(PolicyKind::Mdc)
        .with_write_streams(4)
        .with_cleaner_threads(2);
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
/// writes that land while the cycle is parked after its victim read. The page-table
/// compare-and-swap commits exactly one winner — the user's newer version — and the
/// staged hot-stream copy is abandoned.
#[test]
fn hot_stream_survivor_and_racing_user_write_commit_exactly_one_winner() {
    let config = race_config(2).with_gc_temperature_classes(2);
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
    let cleaner = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.clean_now().unwrap())
    };
    gate.wait_paused_at(GcPhase::VictimRead, 1);

    // The cycle holds read images of its victims (hot pages included) but has
    // committed nothing. Land a user write on every hot page: each staged hot-stream
    // relocation of those pages is now stale and must fail its CAS.
    for &p in &hot {
        store.put(p, &payload(p, 60, config.page_bytes)).unwrap();
        model.insert(p, 60);
    }
    gate.open_wide();
    cleaner.join().unwrap();
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
/// and one with the knob set explicitly to 1 claim identical victims, free the same
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
        let cleaner = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.clean_now().unwrap())
        };
        let tokens = gate.wait_paused_at(GcPhase::Claimed, 1);
        let victims = gate.victims_of(tokens[0]);
        gate.open_wide();
        let report = cleaner.join().unwrap();
        store.set_gc_phase_hook(None);
        assert_matches_model(&store, &model, pages, "single-class gated run");
        (victims, report.segments_freed(), store.stats())
    };

    let (victims_default, freed_default, stats_default) = run(race_config(1));
    let (victims_explicit, freed_explicit, stats_explicit) =
        run(race_config(1).with_gc_temperature_classes(1));

    assert_eq!(victims_default, victims_explicit, "victim claims diverged");
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
