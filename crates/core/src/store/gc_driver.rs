//! The cleaning driver: victim selection, live-page relocation and remap commit —
//! running as up to [`StoreConfig::cleaner_threads`](crate::StoreConfig::cleaner_threads)
//! **concurrent cycles on disjoint victim sets**.
//!
//! ### One cycle's life
//!
//! A cycle is structured so that the expensive work — reading and parsing whole victim
//! segment images from the device, and copying live payloads into GC output builders —
//! happens with **no store lock** held, and so that a live byte is copied exactly once
//! between the device read and the device write (victim image → output builder image):
//!
//! 1. **Claim** (short central lock): the policy picks up to `segments_per_cycle`
//!    victims from the sealed-segment snapshots and the cycle *claims* them in the same
//!    critical section ([`crate::segment::SegmentTable::claim_for_cleaning`]). Claimed
//!    victims are hidden from selection, so two concurrent cycles can never pick the
//!    same slot; their emptiness/`up2` are recorded.
//! 2. **Read** (no locks): each victim's image is read from the device — into a
//!    recycled buffer from the store's image pool — and its entry table decoded;
//!    entries that are no longer current are pre-filtered against the sharded page
//!    table, leaving a list of *locations* into the image (no payload is copied out).
//!    Victims are read **in order, one at a time, on the cycle's own thread**, each
//!    just before it is relocated: the cycle holds one victim image at a time, and
//!    overlap comes from overlapping cycles, not from reader threads.
//! 3. **Relocate & commit** (per victim): still-current pages are appended, straight
//!    from the victim image, to the cycle's *own* GC output segments (no store lock;
//!    allocation and seals touch the central lock briefly), *keeping their original
//!    per-page write sequences*; the victim image then goes back to the pool. Then,
//!    under one short central section, each staged page is committed with an atomic
//!    *compare-and-swap* on the page table
//!    ([`crate::mapping::ShardedPageTable::replace_if_current`]): a page the user
//!    rewrote since staging fails the swap and its stale copy is abandoned (the original
//!    write sequence guarantees the abandoned copy can also never win during recovery).
//!    Staged pages are also committed before any of the cycle's outputs is sealed in
//!    the middle of a victim: a sealed segment is every other cycle's candidate victim.
//!    The victim is then released into the quarantine tagged with this cycle's token
//!    (remap-before-release: by the time a victim is released, none of its pages are
//!    referenced by the mapping).
//! 4. **Seal + sync + reap**: the cycle's GC output streams are sealed, its quarantine
//!    entries are marked *sealed*, the device is synced, and quarantined victims whose
//!    seal preceded the sync — this cycle's and any other's — return to the free list
//!    once no reader pins remain.
//!
//! ### Why overlapping cycles are safe
//!
//! * **Disjoint victims** — claims make victim sets disjoint by construction, so two
//!   cycles never stage the same page from the same location, and the per-victim
//!   release/accounting paths never touch the same slot.
//! * **CAS commits** — relocation commits are per-page compare-and-swaps against the
//!   observed victim location; they are already safe against racing user writes and are
//!   equally safe against another cycle (which, by disjointness, can only be moving
//!   *other* pages).
//! * **Per-entry quarantine state** — each quarantine entry carries its owning cycle's
//!   token and a `parked → sealed → synced` state machine
//!   ([`crate::segment::SegmentTable::quarantine_mark_sealed`]): one cycle's device
//!   sync can therefore never free another cycle's victim while that cycle's relocated
//!   copies still sit in unsealed in-memory builders.
//! * **Crash safety at every boundary** — a victim's slot is untouched until its
//!   relocated copies are durable, and relocated copies keep their original write
//!   sequences, so recovery after a crash at any phase boundary reconstructs exactly
//!   the last flushed state no matter how many cycles were in flight.
//!
//! A cycle that aborts (I/O error) *orphans* its state: leftover GC output builders go
//! to the store's orphan pool and its quarantine entries are re-tagged
//! [`crate::segment::ORPHAN_CYCLE`], so the next flush or reclaim pass seals and frees
//! them on the dead cycle's behalf; its unprocessed victim claims are dropped so the
//! victims become selectable again.
//!
//! There is no cleaner thread of its own. Cycles are started by the store's
//! write-behind worker — paced ones ([`pace`]) after each batch it appends, escalating
//! ones when a drain runs out of segments — by a flush whose drain runs out likewise,
//! or explicitly via [`crate::LogStore::clean_now`]; all of them acquire a cycle slot
//! from [`GcControl`], which caps how many overlap at
//! [`StoreConfig::cleaner_threads`](crate::StoreConfig::cleaner_threads) (with a cap of
//! 1 cycles serialise exactly as in the pre-concurrent design).

use super::write_path::{self, MetaLedger};
use super::{CentralState, GcStreams, OpenSegment, StoreCore};
use crate::cleaner::{collect_live_pages, CleaningReport, LivePage};
use crate::config::StoreConfig;
use crate::error::{Error, Result};
use crate::freq::{classify_heat, Up2Average, Up2Mode, TEMPERATURE_UNCLASSIFIED};
use crate::layout::{self, decode_segment, SegmentBuilder};
use crate::policy::{PolicyContext, SegmentStats, MULTILOG_MAX_LOGS};
use crate::segment::ORPHAN_CYCLE;
use crate::stats::AtomicStats;
use crate::types::{
    PageId, PageLocation, PageWriteInfo, SealSeq, SegmentId, UpdateTick, WriteOrigin, WriteSeq,
};
use crate::write_buffer::sort_by_separation_key;
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Externally observable phase boundaries of one cleaning cycle, in the order they are
/// crossed: `Claimed* → (VictimRead → Relocated)* → Sealed → Synced`.
///
/// Exposed for test instrumentation via [`crate::LogStore::set_gc_phase_hook`]: a hook that
/// blocks pauses the cycle at exactly that boundary (no store lock is held while the
/// hook runs), which is what makes deterministic cleaner-race and crash-matrix tests
/// possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcPhase {
    /// A victim was claimed in the segment table (fired once per victim, after the
    /// selection critical section and before any image read).
    Claimed,
    /// One victim's image has been read and its live pages collected.
    VictimRead,
    /// One victim's relocations are committed and it entered the quarantine.
    Relocated,
    /// All of the cycle's GC output segments are sealed (device writes issued).
    Sealed,
    /// The cycle's device sync landed; its victims are reusable once unpinned.
    Synced,
}

/// Test/diagnostic instrumentation callback: `(cycle token, phase, victim)`.
/// The victim is present for the per-victim phases, absent for `Sealed`/`Synced`.
pub type GcPhaseHook = Arc<dyn Fn(u64, GcPhase, Option<SegmentId>) + Send + Sync>;

/// Coordination state for cleaning: the concurrent-cycle gate and slots, cycle tokens
/// and the paced check's fruitless-attempt hint.
pub(crate) struct GcControl {
    /// Running cycles hold this shared; checkpoint snapshots and the straggler reclaim
    /// hold it exclusive to wait out every in-flight cycle. Never acquired while
    /// holding a stream lock (a checkpoint holds it exclusive *and then* takes the
    /// stream locks).
    cycle_gate: RwLock<()>,
    /// Number of cycles currently running, bounded by `max_cycles`.
    active_cycles: Mutex<usize>,
    slot_cond: Condvar,
    /// Concurrency cap ([`StoreConfig::cleaner_threads`]): the slot count and the
    /// divisor of the per-cycle victim budget.
    max_cycles: usize,
    /// Next cycle token; starts above [`ORPHAN_CYCLE`], which is reserved for the
    /// quarantine entries of aborted cycles.
    next_token: AtomicU64,
    /// The free count at which the last paced attempt got nowhere (no victim, a pick
    /// not worth cleaning yet, or a cycle that freed nothing on balance), or
    /// [`NO_FRUITLESS_ATTEMPT`]. An attempt scans every sealed segment under the
    /// central lock, so it is repeated only once the count has moved. A hint: racing
    /// attempts may overwrite each other's entry, which costs one extra attempt or
    /// skips one until the next allocation.
    fruitless_at: AtomicUsize,
}

const NO_FRUITLESS_ATTEMPT: usize = usize::MAX;

/// Permission to run one cleaning cycle: holds the shared cycle gate plus one of the
/// `cleaner_threads` cycle slots, and carries the cycle's token. Dropping it frees the
/// slot.
pub(crate) struct CyclePermit<'a> {
    control: &'a GcControl,
    _gate: RwLockReadGuard<'a, ()>,
    token: u64,
}

impl Drop for CyclePermit<'_> {
    fn drop(&mut self) {
        let mut active = self.control.active_cycles.lock();
        *active -= 1;
        self.control.slot_cond.notify_one();
    }
}

impl GcControl {
    pub(crate) fn new(config: &StoreConfig) -> Self {
        Self {
            cycle_gate: RwLock::new(()),
            active_cycles: Mutex::new(0),
            slot_cond: Condvar::new(),
            max_cycles: config.cleaner_threads.max(1),
            next_token: AtomicU64::new(ORPHAN_CYCLE + 1),
            fruitless_at: AtomicUsize::new(NO_FRUITLESS_ATTEMPT),
        }
    }

    /// True if a paced attempt at this free count is worth making: the last fruitless
    /// one saw a different count (or there was none).
    pub(crate) fn worth_attempting_at(&self, free: usize) -> bool {
        self.fruitless_at.load(Ordering::Relaxed) != free
    }

    /// Remember that a paced attempt which saw `free` free segments got nowhere.
    pub(crate) fn note_fruitless_at(&self, free: usize) {
        self.fruitless_at.store(free, Ordering::Relaxed);
    }

    /// Acquire a cycle slot (blocks while `cleaner_threads` cycles are already in
    /// flight, or while a [`GcControl::quiesce`] holder drains the gate).
    pub(crate) fn begin_cycle(&self) -> CyclePermit<'_> {
        let gate = self.cycle_gate.read();
        let mut active = self.active_cycles.lock();
        while *active >= self.max_cycles {
            self.slot_cond.wait(&mut active);
        }
        *active += 1;
        drop(active);
        CyclePermit {
            control: self,
            _gate: gate,
            token: self.next_token.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Wait out every in-flight cleaning cycle and hold new ones off while the guard
    /// lives. Used by checkpoint snapshots (a stable mapping needs no concurrent GC
    /// remaps) and by the last-resort straggler reclaim (an in-flight cycle's own
    /// phase 4 is what frees its victims). Must not be called while holding a stream
    /// lock.
    pub(crate) fn quiesce(&self) -> RwLockWriteGuard<'_, ()> {
        self.cycle_gate.write()
    }
}

/// Victim-selection mode for a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SelectionMode {
    /// The configured policy picks (with a greedy fallback only if it picks nothing).
    Policy,
    /// The configured policy picks, but whether the cycle runs at all, and how large,
    /// is the pacing decision ([`pace`]), taken in the selection critical section
    /// against the exact free count.
    Paced,
    /// Force a global greedy pick with the full configured batch: the space-driven
    /// escalation a drain uses when policy-driven cycles fail to relieve allocation
    /// pressure (multi-log nets almost nothing per cycle under distress).
    ForceGreedy,
}

/// What the paced check does about cleaning at or below the upper mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pace {
    /// Nothing: cleaning now would cost more than cleaning later.
    Wait,
    /// At the must-clean floor: a small policy cycle.
    CleanSmall,
    /// In the may-clean band with nearly free victims on offer: a full policy batch.
    CleanFull,
}

/// Mean emptiness from which a batch counts as *nearly free*: relocating it writes at
/// most a tenth of what it frees, and its segments can only get a tenth emptier, so
/// waiting cannot make the cycle meaningfully cheaper.
pub(crate) const NEARLY_FREE_EMPTINESS: f64 = 0.9;

/// The pacing decision (see docs/ARCHITECTURE.md, "Pacing"). Cleaning cost is
/// set by how full the victims are (paper Table 1), and victims only empty while they
/// wait, so the free pool is spent down to the `floor` before anything that still
/// holds live data is moved; between the floor and the `upper` mark a cycle runs only
/// if the full batch the policy would take is nearly free. `full_pick_emptiness` runs
/// that selection and reports its mean emptiness (`None`: nothing to pick); it scans
/// every sealed segment, so it is consulted only inside the band.
pub(crate) fn pace(
    free: usize,
    floor: usize,
    upper: usize,
    full_pick_emptiness: impl FnOnce() -> Option<f64>,
) -> Pace {
    if free <= floor {
        Pace::CleanSmall
    } else if free <= upper && full_pick_emptiness().is_some_and(|e| e >= NEARLY_FREE_EMPTINESS) {
        Pace::CleanFull
    } else {
        Pace::Wait
    }
}

/// One relocation appended to a GC builder, awaiting its page-table commit.
struct StagedRelocation {
    page: PageId,
    /// Where the page lived in the victim (the compare-and-swap's expected value).
    old: PageLocation,
    /// Where the relocated copy now lives (`new.segment` is the GC output segment and
    /// the accounting target on commit).
    new: PageLocation,
    /// Temperature class the page was routed to (for per-class accounting).
    class: u16,
}

/// A collected live page plus its routing decisions.
struct GcItem {
    live: LivePage,
    log: u16,
    /// Temperature class assigned from the page's decayed heat (0 = coldest; always 0
    /// with `gc_temperature_classes = 1`).
    class: u16,
    key: Option<f64>,
}

/// The composite GC-output stream key: each (temperature class, policy log) pair gets
/// its own open output segment, so cold survivors pack together instead of sharing
/// segments with hot ones. `class` is bounded by
/// [`crate::freq::MAX_TEMPERATURE_CLASSES`] (8) and `log` by [`MULTILOG_MAX_LOGS`]
/// (32), so the key always fits `u16`; with one temperature class the key collapses to
/// the plain log id, reproducing the pre-temperature stream layout exactly.
#[inline]
fn gc_stream_key(class: u16, log: u16) -> u16 {
    class * MULTILOG_MAX_LOGS as u16 + log
}

/// The private state of one in-flight cycle: its token, its own GC output streams
/// (no lock needed — nobody else can reach them) and the victims it has claimed but not
/// yet released.
struct CycleCtx {
    token: u64,
    /// The tick the cycle runs at: its selection, routing, deaths and seals.
    unow: UpdateTick,
    gcs: GcStreams,
    claimed: Vec<SegmentId>,
    /// Relocations of the victim in hand that sit in an output builder awaiting their
    /// page-table commit. Emptied by [`commit_staged`] — at the end of each victim, and
    /// before any of the cycle's outputs is sealed: a sealed segment is a candidate
    /// victim for every *other* cycle, which would find a copy nobody references yet,
    /// release the slot, and leave this cycle's later swap pointing into a segment on
    /// its way back to the free list.
    staged: Vec<StagedRelocation>,
    /// Outputs that took a re-emitted tombstone of the victim in hand, one entry per
    /// tombstone; charged along with `staged`.
    retained_outputs: Vec<SegmentId>,
    pages_moved: u64,
    bytes_moved: u64,
}

impl CycleCtx {
    fn new(token: u64, unow: UpdateTick, claimed: Vec<SegmentId>) -> Self {
        Self {
            token,
            unow,
            gcs: GcStreams::default(),
            claimed,
            staged: Vec::new(),
            retained_outputs: Vec::new(),
            pages_moved: 0,
            bytes_moved: 0,
        }
    }
}

/// One victim with its image read and live pages collected (the output of phase 2).
struct PreparedVictim {
    victim: SegmentId,
    /// The victim's whole image, in a buffer from the store's image pool (returned
    /// there once the victim is relocated); `candidates` point into it.
    image: Vec<u8>,
    emptiness: f64,
    /// The victim's temperature tag at claim time ([`TEMPERATURE_UNCLASSIFIED`] for
    /// user-filled segments), compared against each survivor's fresh class to count
    /// promotions/demotions.
    temperature: u16,
    candidates: Vec<LivePage>,
    /// The victim's seal sequence, read from its on-device header. Compared against
    /// the committed checkpoint frontier to decide whether its delete facts are
    /// already durable in the checkpoint (and so need not be re-emitted).
    seal_seq: SealSeq,
    /// Tombstones found in the victim (deduplicated, newest write seq per page). Each
    /// one is re-emitted into a GC output stream unless the page has been recreated
    /// or a committed checkpoint covers the victim: the delete fact must survive the
    /// victim slot's reuse or scan recovery could resurrect the page from an older
    /// copy in a lower-seal-seq segment.
    tombstones: Vec<(PageId, WriteSeq)>,
}

/// A claimed victim: `(id, emptiness, up2, temperature)` recorded in the claim
/// critical section.
type ClaimedVictim = (SegmentId, f64, UpdateTick, u16);

/// Mean emptiness of a picked batch, as the segment table has it now (`None` for an
/// empty pick).
fn mean_emptiness(segments: &crate::segment::SegmentTable, picked: &[SegmentId]) -> Option<f64> {
    let sum: f64 = picked
        .iter()
        .filter_map(|&v| segments.meta(v))
        .map(|m| m.emptiness())
        .sum();
    (!picked.is_empty()).then(|| sum / picked.len() as f64)
}

/// Invoke the store's phase hook, if installed, with no lock held.
fn fire_phase_hook(store: &StoreCore, token: u64, phase: GcPhase, victim: Option<SegmentId>) {
    let hook = store.gc_phase_hook();
    if let Some(h) = hook {
        h(token, phase, victim);
    }
}

/// Run one full cleaning cycle with the configured policy, at the live clock. Takes one
/// of the `cleaner_threads` cycle slots; safe to call from any thread, with no store
/// locks held.
pub(crate) fn run_cleaning_cycle(store: &StoreCore) -> Result<CleaningReport> {
    run_cleaning_cycle_with(store, SelectionMode::Policy, store.unow())
}

/// Run one cycle with explicit victim-selection mode (see [`SelectionMode`]) at tick
/// `unow` — the tick of the work that needs it: a batch's hand-off tick for the
/// write-behind worker's cycles.
pub(crate) fn run_cleaning_cycle_with(
    store: &StoreCore,
    mode: SelectionMode,
    unow: UpdateTick,
) -> Result<CleaningReport> {
    let permit = store.gc.begin_cycle();
    let token = permit.token;

    // Phase 1: select victims and claim them, in one short central critical section —
    // the claims are what make concurrent cycles' victim sets disjoint.
    let victims: Vec<ClaimedVictim> = {
        let mut central = store.central().lock();
        let CentralState { segments, policy } = &mut *central;
        // The configured batch is an *aggregate* in-flight budget: divide it across
        // the concurrent cycles, or K cycles would claim K × segments_per_cycle
        // victims at once and could park most of a small device in claims +
        // quarantine while writers starve.
        let share = (store.config().cleaning.segments_per_cycle / store.gc.max_cycles).max(1);
        let batch = policy.preferred_batch().unwrap_or(share).max(1);
        let sealed = segments.sealed_stats();
        let ctx = PolicyContext {
            unow,
            segments: &sealed,
        };
        let mut policy_pick = |batch: usize| {
            // Temperature feedback into victim selection: segments filled with the
            // coldest survivor class decay slowly by construction, so cleaning them
            // at the usual dead-fraction is pure churn — hide them from the policy
            // until their emptiness is within `cold_victim_min_emptiness` of the
            // emptiest sealed segment. The bar is relative so cold segments ripen
            // at every fill factor instead of being starved out at high fill. The
            // filter is advisory only: if it empties the candidate set the
            // unfiltered pick runs, and the distress path (ForceGreedy) never
            // filters.
            let threshold = store.config().cleaning.cold_victim_min_emptiness;
            let use_filter = store.config().gc_temperature_classes > 1 && threshold > 0.0;
            let filtered: Vec<SegmentStats> = if use_filter {
                let max_emptiness = sealed.iter().map(|s| s.emptiness()).fold(0.0f64, f64::max);
                let bar = threshold * max_emptiness;
                sealed
                    .iter()
                    .filter(|s| s.temperature != 0 || s.emptiness() >= bar)
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            let filtering = use_filter && filtered.len() < sealed.len();
            let mut p = if filtering {
                let fctx = PolicyContext {
                    unow,
                    segments: &filtered,
                };
                policy.select_victims(&fctx, batch)
            } else {
                policy.select_victims(&ctx, batch)
            };
            if p.is_empty() && filtering {
                p = policy.select_victims(&ctx, batch);
            }
            if p.is_empty() {
                // Space-driven escalation (the simulator's `emergency_greedy_clean`): a
                // selective policy — multi-log only inspects the written log's
                // neighbourhood — can find no victim even though reclaimable space
                // exists elsewhere. Real systems fall back to a global space-driven GC
                // in that corner.
                let mut greedy = crate::policy::GreedyPolicy::new();
                p = crate::policy::CleaningPolicy::select_victims(&mut greedy, &ctx, batch);
            }
            p
        };
        let picked = match mode {
            SelectionMode::Policy => policy_pick(batch),
            SelectionMode::Paced => {
                let (floor, upper) = store.pacing_marks();
                let mut full_pick = Vec::new();
                let decision = pace(segments.free_count(), floor, upper, || {
                    full_pick = policy_pick(batch);
                    mean_emptiness(segments, &full_pick)
                });
                match decision {
                    Pace::Wait => Vec::new(),
                    // A cycle reaps its victims only at its end, so until then its
                    // output comes out of the free pool it started with: at the floor
                    // it takes no more victims than the floor holds segments.
                    Pace::CleanSmall => policy_pick(batch.min(floor.max(1))),
                    Pace::CleanFull => full_pick,
                }
            }
            SelectionMode::ForceGreedy => {
                // Distress cycles take the *full* configured batch, not the per-cycle
                // share: a 1-victim cycle whose victim carries a tombstone can spend a
                // whole fresh output segment on one 24-byte delete fact — net-zero
                // reclaim, forever. A full batch coalesces the tombstones (and the
                // stragglers' live pages) of many victims into one output, so a greedy
                // distress cycle is monotonic as the escalation ladder assumes.
                let want = batch
                    .max(share)
                    .max(store.config().cleaning.segments_per_cycle.max(1));
                let mut greedy = crate::policy::GreedyPolicy::new();
                crate::policy::CleaningPolicy::select_victims(&mut greedy, &ctx, want)
            }
        };
        picked
            .into_iter()
            .filter_map(|v| {
                let m = segments.meta(v)?;
                let entry = (v, m.emptiness(), m.freq.up2(), m.temperature);
                segments.claim_for_cleaning(v).then_some(entry)
            })
            .collect()
    };
    if victims.is_empty() {
        return Ok(CleaningReport::default());
    }
    // Only an attempt that claimed something is a cycle: a paced attempt that decides
    // to wait, or finds nothing to pick, is a probe.
    AtomicStats::bump(&store.atomic_stats().cleaning_cycles);
    for &(v, _, _, _) in &victims {
        fire_phase_hook(store, token, GcPhase::Claimed, Some(v));
    }

    let mut cycle = CycleCtx::new(token, unow, victims.iter().map(|&(v, _, _, _)| v).collect());
    let result = run_claimed_victims(store, &mut cycle, &victims);
    finish_cycle(store, cycle, result)
}

/// Phases 2–4 over an already claimed victim set. Any error leaves `cycle` holding
/// whatever claims and GC output builders are still outstanding, for
/// [`finish_cycle`] to orphan.
fn run_claimed_victims(
    store: &StoreCore,
    cycle: &mut CycleCtx,
    victims: &[ClaimedVictim],
) -> Result<CleaningReport> {
    let mut emptiness_sum = 0.0;
    let mut released: Vec<SegmentId> = Vec::with_capacity(victims.len());

    // Phases 2 and 3, victim by victim: read and pre-filter one image, relocate its
    // survivors, hand the image back to the pool.
    for_each_prepared_victim(store, victims, |prepared| {
        fire_phase_hook(
            store,
            cycle.token,
            GcPhase::VictimRead,
            Some(prepared.victim),
        );
        if relocate_victim(store, cycle, prepared, &mut emptiness_sum)? {
            released.push(prepared.victim);
            fire_phase_hook(
                store,
                cycle.token,
                GcPhase::Relocated,
                Some(prepared.victim),
            );
        }
        Ok(())
    })?;

    // Phase 4: make the relocated pages durable and recycle this cycle's victims.
    write_path::seal_streams(store, &mut cycle.gcs, cycle.unow)?;
    fire_phase_hook(store, cycle.token, GcPhase::Sealed, None);
    {
        let mut central = store.central().lock();
        central.segments.quarantine_mark_sealed(cycle.token);
    }
    write_path::sync_and_reap(store)?;
    fire_phase_hook(store, cycle.token, GcPhase::Synced, None);

    let mut report = CleaningReport {
        pages_moved: cycle.pages_moved,
        bytes_moved: cycle.bytes_moved,
        ..CleaningReport::default()
    };
    if !released.is_empty() {
        report.mean_emptiness = emptiness_sum / released.len() as f64;
    }
    report.victims = released;
    Ok(report)
}

/// Common cycle epilogue: on success, drop the claims of skipped victims; on error,
/// orphan the cycle — leftover GC output builders go to the store's orphan pool and the
/// cycle's quarantine entries are re-tagged [`ORPHAN_CYCLE`] (both under the orphan
/// lock, so an orphan-seal pass can never adopt entries whose builders it has not yet
/// received), and unprocessed claims are dropped so the victims become selectable
/// again.
fn finish_cycle(
    store: &StoreCore,
    mut cycle: CycleCtx,
    result: Result<CleaningReport>,
) -> Result<CleaningReport> {
    match result {
        Ok(report) => {
            if !cycle.claimed.is_empty() {
                let mut central = store.central().lock();
                for v in &cycle.claimed {
                    central.segments.unclaim(*v);
                }
            }
            Ok(report)
        }
        Err(e) => {
            let mut orphans = store.gc_orphans().lock();
            orphans.extend(cycle.gcs.open.drain().map(|(_, open)| open));
            let mut central = store.central().lock();
            for v in &cycle.claimed {
                central.segments.unclaim(*v);
            }
            central.segments.quarantine_orphan(cycle.token);
            Err(e)
        }
    }
}

/// Relocate one prepared victim: route and stage its still-current pages into the
/// cycle's GC outputs, commit the relocations by page-table compare-and-swap, and
/// release the victim into the quarantine. Returns false if the victim was skipped
/// because no output space could be found (its claim stays with the cycle and is
/// dropped at cycle end).
fn relocate_victim(
    store: &StoreCore,
    cycle: &mut CycleCtx,
    prepared: &PreparedVictim,
    emptiness_sum: &mut f64,
) -> Result<bool> {
    let stats = store.atomic_stats();
    let victim = prepared.victim;
    let unow = cycle.unow;

    // Classify every candidate's temperature from the decayed heat sketch, sampled
    // lock-free *before* any central acquisition. Ranking is per victim batch
    // (equal-depth quantiles), so the split adapts to whatever heat distribution the
    // victim actually carries. With one class everything is class 0 and the sketch is
    // never even read.
    let classes = store.config().gc_temperature_classes as u16;
    let class_of: Vec<u16> = if classes > 1 {
        let heats: Vec<u64> = prepared
            .candidates
            .iter()
            .map(|live| store.heat().heat(live.page))
            .collect();
        classify_heat(&heats, classes)
    } else {
        vec![0; prepared.candidates.len()]
    };

    // Route every candidate to an output log and fetch separation keys, under one
    // short central acquisition (the policy lives there). Same routing helper as
    // the user drain, so user and GC placement can never diverge.
    let mut items: Vec<GcItem> = {
        let mut central = store.central().lock();
        let CentralState { policy, .. } = &mut *central;
        prepared
            .candidates
            .iter()
            .zip(&class_of)
            .map(|(&live, &class)| {
                let info = PageWriteInfo {
                    page: live.page,
                    size: live.loc.len,
                    up2: live.up2,
                    exact_freq: None,
                    origin: WriteOrigin::Gc,
                };
                let (log, key) = write_path::route_page(policy, unow, &info);
                GcItem {
                    live,
                    log,
                    class,
                    key,
                }
            })
            .collect()
    };
    sort_by_separation_key(&mut items, |it: &GcItem| it.key);
    if classes > 1 {
        // Group by class (stable, so the separation order inside each class is kept):
        // each class fills its own output segments contiguously. A no-op with one
        // class, preserving the pre-temperature staging order bit for bit.
        items.sort_by_key(|it| it.class);
    }

    // Phase 3a: stage — copy still-current pages into the GC output builders. No
    // store lock; the occasional seal/allocation touches the central lock briefly.
    // The ledger only satisfies `seal_open`'s batching interface and stays empty
    // here: GC accounting is applied directly at commit (phase 3b), in the same
    // central section as the page-table swap.
    debug_assert!(
        cycle.staged.is_empty(),
        "the previous victim left staged pages"
    );
    let mut ledger = MetaLedger::default();
    for item in items {
        let LivePage { page, loc, up2 } = item.live;
        if !store.mapping().is_current(page, &loc) {
            // Rewritten or deleted since collection; skip before wasting output
            // space. The commit-time compare-and-swap below remains authoritative.
            continue;
        }
        // The one copy of the payload on the GC path: victim image → output builder.
        let data = &prepared.image[loc.offset as usize..][..loc.len as usize];
        if classes > 1 && prepared.temperature != TEMPERATURE_UNCLASSIFIED {
            // Misprediction accounting: this survivor's fresh class disagrees with
            // the class its segment was filled as.
            if item.class > prepared.temperature {
                AtomicStats::bump(&stats.gc_class_promotions);
            } else if item.class < prepared.temperature {
                AtomicStats::bump(&stats.gc_class_demotions);
            }
        }
        let Some(stream) =
            ensure_gc_open(store, cycle, &mut ledger, item.class, item.log, data.len())?
        else {
            // No output space for this victim even after the distress fallbacks:
            // abandon it *gracefully*. Whatever was staged is committed (and the
            // victim charged with those departures — the fallbacks did that before
            // they sealed); the pages that found no room are still mapped into the
            // sealed victim image, which stays exactly where it is. Move on to the
            // remaining victims rather than giving up on the cycle: a later victim
            // may be fully dead (needing no output space at all) and releasing it
            // is exactly what relieves the pressure. The drains' escalation
            // ladder (greedy cycles, quarantine sweeps) decides whether the store
            // is genuinely full.
            commit_staged_early(store, cycle);
            return Ok(false);
        };
        let open = cycle
            .gcs
            .open
            .get_mut(&stream)
            .expect("ensure_gc_open just installed this stream");
        // The relocated copy keeps the original write sequence: it is the same
        // version of the page, just at a new address (see
        // [`crate::cleaner::LivePage`]).
        let offset = open.builder.write().push_page(page, loc.write_seq, data);
        open.up2_avg.add(up2);
        cycle.staged.push(StagedRelocation {
            page,
            old: loc,
            new: PageLocation {
                segment: open.id,
                offset,
                ..loc
            },
            class: item.class,
        });
    }

    // Phase 3a': preserve the victim's delete facts. A tombstone may only be dropped
    // once it is provably redundant, by one of two proofs:
    //
    //   1. *Superseded* — the page was recreated, so a strictly newer copy exists and
    //      will shadow every older one during recovery.
    //   2. *Checkpoint-covered* — a committed checkpoint's frontier is at or past the
    //      victim's seal seq. Checkpointing seals every open segment before reading
    //      the frontier, so every older copy of the deleted page also lives at or
    //      below the frontier and is never replayed by checkpoint-anchored recovery;
    //      the checkpoint itself records the page as absent.
    //
    // Otherwise the tombstone is re-emitted into a GC output stream with its original
    // write sequence: the re-emitted record rides the exact same seal+sync-before-reap
    // protocol as the relocated pages, so the delete fact is durable elsewhere before
    // the victim's slot can be reused. (Re-emitting a tombstone that a racing user
    // delete has just superseded is harmless — it loses every recovery comparison.)
    // This must happen before the victim is released below: if no output space can be
    // found the victim is abandoned with its delete facts in place, never released with
    // them dropped.
    let covered = prepared.seal_seq <= store.checkpoint_frontier();
    for &(page, write_seq) in &prepared.tombstones {
        if covered || store.mapping().get(page).is_some() {
            AtomicStats::bump(&stats.tombstones_dropped);
            continue;
        }
        // A tombstone carries no payload, so *any* output with an entry slot free will
        // do: prefer one of the cycle's existing outputs over opening a dedicated
        // stream, so a victim whose only live content is delete facts never spends a
        // fresh segment on them.
        let reusable = cycle
            .gcs
            .open
            .iter()
            .find(|(_, o)| o.builder.read().fits(0))
            .map(|(&k, _)| k);
        let stream = match reusable {
            Some(k) => k,
            None => match ensure_gc_open(store, cycle, &mut ledger, 0, 0, 0)? {
                Some(k) => k,
                // Same graceful abandonment as above: the victim keeps its delete
                // facts, and tombstones already re-emitted for it are harmless.
                None => {
                    commit_staged_early(store, cycle);
                    return Ok(false);
                }
            },
        };
        let open = cycle
            .gcs
            .open
            .get_mut(&stream)
            .expect("ensure_gc_open just installed this stream");
        open.builder.write().push_tombstone(page, write_seq);
        cycle.retained_outputs.push(open.id);
        AtomicStats::bump(&stats.tombstones_retained);
    }

    // Phase 3b: commit what is still staged and release the victim, under one short
    // central section.
    {
        let mut central = store.central().lock();
        commit_staged(store, cycle, &mut central, None);
        // Remap-before-release now holds for every live page of this victim; park
        // the slot — tagged with this cycle's token — until the relocated copies are
        // durable and no reader pins remain.
        central.segments.release_quarantined(victim, cycle.token);
        AtomicStats::bump(&stats.segments_cleaned);
        stats.add_emptiness(prepared.emptiness);
        *emptiness_sum += prepared.emptiness;
        store.publish_free(&central.segments);
    }
    cycle.claimed.retain(|&s| s != victim);
    Ok(true)
}

/// Commit every staged relocation by page-table compare-and-swap and account it to its
/// output segment, and charge the re-emitted tombstones to theirs. The caller holds the
/// central lock: the swap and the output segment's accounting land in the same
/// critical section, so any later death of the relocated copy (recorded by a drain
/// only after it observes the new location) is applied after this `on_page_added`,
/// never before.
///
/// `victim_stays_claimed` is `Some(now)` when this runs *before* the end of the victim
/// — an output is about to be sealed under it (see [`CycleCtx::staged`]) — and the
/// victim might yet be abandoned rather than released: the pages that just left it are
/// then recorded as deaths in its own counters.
fn commit_staged(
    store: &StoreCore,
    cycle: &mut CycleCtx,
    central: &mut CentralState,
    victim_stays_claimed: Option<UpdateTick>,
) {
    let stats = store.atomic_stats();
    for s in cycle.staged.drain(..) {
        if store.mapping().replace_if_current(s.page, &s.old, s.new) {
            if let Some(meta) = central.segments.meta_mut(s.new.segment) {
                meta.on_page_added(s.new.len, None);
            }
            if let Some(now) = victim_stays_claimed {
                if let Some(meta) = central.segments.meta_mut(s.old.segment) {
                    meta.on_page_dead(s.old.len, now, None);
                }
            }
            AtomicStats::bump(&stats.gc_pages_written);
            AtomicStats::add(&stats.gc_bytes_written, s.new.len as u64);
            stats.add_class_page(s.class, s.new.len as u64);
            cycle.pages_moved += 1;
            cycle.bytes_moved += s.new.len as u64;
        }
        // A failed swap means the user rewrote the page after staging: the stale copy
        // in the output builder is dead on arrival and is simply never accounted live
        // (it will be reclaimed when that segment is eventually cleaned).
    }
    // The re-emitted tombstones' entry-table footprint, mirroring the user write
    // path's tombstone accounting.
    for seg in cycle.retained_outputs.drain(..) {
        if let Some(meta) = central.segments.meta_mut(seg) {
            meta.on_tombstone_added();
        }
    }
}

/// [`commit_staged`] before the end of the victim: ahead of a seal of the cycle's outputs
/// in the middle of it, or when it is abandoned for want of output space.
fn commit_staged_early(store: &StoreCore, cycle: &mut CycleCtx) {
    if !cycle.staged.is_empty() || !cycle.retained_outputs.is_empty() {
        let now = cycle.unow;
        let mut central = store.central().lock();
        commit_staged(store, cycle, &mut central, Some(now));
    }
}

/// Read a victim's image into `image` and decode its extent chain.
fn read_and_decode(
    store: &StoreCore,
    victim: SegmentId,
    image: &mut Vec<u8>,
) -> Result<layout::ParsedSegment> {
    store.device().read_segment_into(victim, image)?;
    decode_segment(victim, image)?.ok_or_else(|| Error::CorruptSegment {
        segment: victim,
        detail: "sealed segment has a blank image".into(),
    })
}

/// Read one victim's image, decode it and pre-filter its live pages (phase 2 for one
/// victim; touches only the device and the lock-free page table).
fn prepare_victim(
    store: &StoreCore,
    victim: SegmentId,
    emptiness: f64,
    up2: UpdateTick,
    temperature: u16,
) -> Result<PreparedVictim> {
    let mut image = store.take_read_image();
    let parsed = match read_and_decode(store, victim, &mut image) {
        Ok(parsed) => parsed,
        Err(e) => {
            store.recycle_image(image);
            return Err(e);
        }
    };
    // Lock-free pre-filter against the sharded page table; the authoritative
    // conflict check is the compare-and-swap at commit time.
    let collected = collect_live_pages(
        victim,
        &parsed,
        |p, l| store.mapping().is_current(p, l),
        up2,
    );
    Ok(PreparedVictim {
        victim,
        image,
        emptiness,
        temperature,
        candidates: collected.pages,
        seal_seq: parsed.header.seal_seq,
        tombstones: collected.tombstones,
    })
}

/// Drive `process` over every victim **in order**: read and pre-filter one victim's
/// image, process it, and hand the image back to the store's image pool before the next
/// read — so a cycle holds one victim image at a time. The first read or `process`
/// error stops the walk; the image in hand is returned to the pool either way.
fn for_each_prepared_victim(
    store: &StoreCore,
    victims: &[ClaimedVictim],
    mut process: impl FnMut(&PreparedVictim) -> Result<()>,
) -> Result<()> {
    for &(victim, emptiness, up2, temperature) in victims {
        let prepared = prepare_victim(store, victim, emptiness, up2, temperature)?;
        let result = process(&prepared);
        store.recycle_image(prepared.image);
        result?;
    }
    Ok(())
}

/// Make sure the cycle has a GC output segment with room for `len` bytes, preferably
/// for the `(class, log)` output stream, sealing the full one and allocating a fresh
/// segment if necessary. Returns the [`gc_stream_key`] of the open segment to append
/// to, or `None` if no output space can be found (the caller abandons the current
/// victim rather than failing the cycle).
///
/// The open map is keyed by the composite stream key so each temperature class packs
/// its survivors into its own segments; the segment itself records only the *policy*
/// log (the persisted footer's routing identity) plus an in-memory temperature tag.
///
/// GC allocations may dip into the reserve — that is what it is for. Under allocation
/// distress the cycle degrades gracefully: it first redirects the relocation into *any*
/// of its open outputs with room (sacrificing log and temperature purity for
/// progress), then seals its output streams and syncs so its already quarantined
/// victims become reusable.
fn ensure_gc_open(
    store: &StoreCore,
    cycle: &mut CycleCtx,
    ledger: &mut MetaLedger,
    class: u16,
    log: u16,
    len: usize,
) -> Result<Option<u16>> {
    let stream = gc_stream_key(class, log);
    if let Some(open) = cycle.gcs.open.get(&stream) {
        if open.builder.read().fits(len) {
            return Ok(Some(stream));
        }
    }
    if let Some(full) = cycle.gcs.open.remove(&stream) {
        commit_staged_early(store, cycle);
        write_path::seal_open(store, full, ledger, cycle.unow)?;
    }
    let capacity =
        layout::payload_capacity(store.config().segment_bytes, store.config().page_bytes) as u64;
    let mut allocated = try_allocate_gc(store, capacity, log, class);
    if allocated.is_none() {
        // Distress fallback 1: reuse another output stream's headroom.
        if let Some((&l, _)) = cycle
            .gcs
            .open
            .iter()
            .find(|(_, o)| o.builder.read().fits(len))
        {
            return Ok(Some(l));
        }
        // Distress fallback 2: make this cycle's own relocations durable so its
        // quarantined victims free up (their live pages are all in the builders about
        // to be sealed), then retry the allocation.
        make_own_relocations_durable(store, cycle)?;
        allocated = try_allocate_gc(store, capacity, log, class);
    }
    let Some((id, gen)) = allocated else {
        return Ok(None);
    };
    let builder = Arc::new(RwLock::new(SegmentBuilder::with_image(
        store.take_blank_image(),
    )));
    store.open_reads().write().insert(id, Arc::clone(&builder));
    cycle.gcs.open.insert(
        stream,
        OpenSegment {
            id,
            builder,
            up2_avg: Up2Average::new(),
            log,
            gen,
            last_used: 0,
            seq: None,
        },
    );
    store.note_open_delta(1);
    Ok(Some(stream))
}

/// Mid-cycle durability point (distress only): seal this cycle's own GC outputs, mark
/// its quarantine entries sealed and run a sync+reap pass, so the victims it has
/// already emptied re-enter the free pool while the cycle continues.
fn make_own_relocations_durable(store: &StoreCore, cycle: &mut CycleCtx) -> Result<()> {
    commit_staged_early(store, cycle);
    write_path::seal_streams(store, &mut cycle.gcs, cycle.unow)?;
    {
        let mut central = store.central().lock();
        central.segments.quarantine_mark_sealed(cycle.token);
    }
    write_path::sync_and_reap(store)
}

fn try_allocate_gc(
    store: &StoreCore,
    capacity: u64,
    log: u16,
    class: u16,
) -> Option<(SegmentId, u64)> {
    let mut central = store.central().lock();
    let id = central
        .segments
        .allocate(capacity, log, Up2Mode::OnOverwrite)?;
    if store.config().gc_temperature_classes > 1 {
        // Tag the output with the class of the survivors it will be filled with, so
        // victim selection can treat cold segments differently. In-memory only; with
        // one class the tag stays UNCLASSIFIED exactly as before.
        if let Some(meta) = central.segments.meta_mut(id) {
            meta.temperature = class;
        }
    }
    store.bump_segment_gen(id);
    let gen = store.segment_gen(id);
    store.publish_free(&central.segments);
    Some((id, gen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogStore;

    fn page_body(config: &StoreConfig, page: PageId, version: u8) -> Vec<u8> {
        vec![version.wrapping_mul(31) ^ page as u8; config.page_bytes]
    }

    /// A one-stream store holding `pages` pages (version 1), all in sealed segments.
    fn sealed_store(pages: u64) -> LogStore {
        let config = StoreConfig::small_for_tests().with_write_streams(1);
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        for page in 0..pages {
            store.put(page, &page_body(&config, page, 1)).unwrap();
        }
        store.checkpoint_json().unwrap(); // a checkpoint seals every open segment
        store
    }

    /// The pacing rule, row by row: `(free, floor, upper, mean emptiness of the full
    /// pick, decision)`. The pick is looked at only inside the band.
    #[test]
    fn pace_cleans_small_at_the_floor_and_full_in_the_band_only_when_nearly_free() {
        use Pace::*;
        let table: &[(usize, usize, usize, Option<f64>, Pace)] = &[
            // Shipped marks: floor 8, upper 32.
            (33, 8, 32, Some(1.0), Wait), // above the upper mark nothing is even looked at
            (32, 8, 32, Some(1.0), CleanFull),
            (32, 8, 32, Some(0.9), CleanFull),
            (32, 8, 32, Some(0.899), Wait),
            (20, 8, 32, Some(0.98), CleanFull), // the kv-mixed shape
            (20, 8, 32, Some(0.29), Wait),      // the page-churn shape
            (9, 8, 32, Some(0.29), Wait),
            (9, 8, 32, None, Wait), // nothing to pick
            (8, 8, 32, Some(0.29), CleanSmall),
            (8, 8, 32, None, CleanSmall), // the cycle itself finds out there is no victim
            (0, 8, 32, Some(1.0), CleanSmall),
            // `small_for_tests`: floor == trigger, the band is empty.
            (5, 4, 4, Some(1.0), Wait),
            (4, 4, 4, Some(1.0), CleanSmall),
            (4, 4, 4, Some(0.0), CleanSmall),
            // Ten open segments lift the floor to 12...
            (13, 12, 32, Some(0.5), Wait),
            (12, 12, 32, Some(0.5), CleanSmall),
            // ...and forty lift both marks to 42.
            (43, 42, 42, Some(1.0), Wait),
            (42, 42, 42, Some(1.0), CleanSmall),
        ];
        for &(free, floor, upper, pick, want) in table {
            let mut looked = false;
            let got = pace(free, floor, upper, || {
                looked = true;
                pick
            });
            assert_eq!(
                got, want,
                "free {free}, marks {floor}/{upper}, pick {pick:?}"
            );
            assert_eq!(
                looked,
                floor < free && free <= upper,
                "free {free}, marks {floor}/{upper}: the pick is the band's business only"
            );
        }
    }

    #[test]
    fn pacing_marks_follow_the_reserve_the_streams_and_the_open_segments() {
        // `small_for_tests`: 2 reserved + 2 streams = its trigger of 4.
        let store = LogStore::open_in_memory(StoreConfig::small_for_tests()).unwrap();
        assert_eq!(store.core.pacing_marks(), (4, 4));

        // The shipped marks: 4 reserved + 4 streams under a trigger of 32.
        let mut config = StoreConfig::small_for_tests().with_write_streams(4);
        config.num_segments = 128;
        config.cleaning = crate::config::CleaningConfig::default();
        let store = LogStore::open_in_memory(config).unwrap();
        let core = &store.core;
        assert_eq!(core.pacing_marks(), (8, 32));
        // Open segments + 2 lift the floor once they exceed it, then both marks.
        core.note_open_delta(6);
        assert_eq!(core.pacing_marks(), (8, 32));
        core.note_open_delta(4);
        assert_eq!(core.pacing_marks(), (12, 32));
        core.note_open_delta(30);
        assert_eq!(core.pacing_marks(), (42, 42));
    }

    /// Greedy selection that counts how often it is asked.
    struct CountingPolicy {
        inner: crate::policy::GreedyPolicy,
        selections: Arc<AtomicU64>,
    }

    impl crate::policy::CleaningPolicy for CountingPolicy {
        fn name(&self) -> &'static str {
            "counting-greedy"
        }
        fn select_victims(&mut self, ctx: &PolicyContext<'_>, want: usize) -> Vec<SegmentId> {
            self.selections.fetch_add(1, Ordering::Relaxed);
            self.inner.select_victims(ctx, want)
        }
    }

    /// `ensure_headroom` ends every write-behind job and a selection scans every sealed
    /// segment under the central lock: an attempt that got nowhere is not repeated until
    /// the free count moves — in the band (the pick is not nearly free) and at the floor
    /// (nothing reclaimable at all).
    #[test]
    fn a_fruitless_attempt_is_retried_only_when_the_free_count_changes() {
        let mut config = StoreConfig::small_for_tests().with_write_streams(1);
        config.sort_buffer_segments = 0;
        config.cleaning.trigger_free_segments = 16;
        config.cleaning.segments_per_cycle = 8;
        let store = LogStore::open_in_memory(config.clone()).unwrap();
        let core = &store.core;
        let (floor, upper) = core.pacing_marks();
        assert_eq!((floor, upper), (3, 16));
        let selections = Arc::new(AtomicU64::new(0));
        core.central().lock().policy = Box::new(CountingPolicy {
            inner: crate::policy::GreedyPolicy::new(),
            selections: Arc::clone(&selections),
        });
        let seen = || selections.load(Ordering::Relaxed);
        // Every put is a one-page batch. Waiting for its job (by running the queue
        // here, as a flush does, without the flush's persist points) means the count
        // read next is the one the job's paced check saw.
        let settle = || drop(core.write_behind.run_queued(core).unwrap());
        let put = |page: PageId| {
            store.put(page, &page_body(&config, page, 1)).unwrap();
            settle();
        };

        // Distinct pages only: every sealed segment is full of live data.
        let next_page = std::cell::Cell::new(0);
        let fill_until = |free: usize| {
            while store.free_segments() > free {
                put(next_page.replace(next_page.get() + 1));
            }
        };
        fill_until(upper + 1);
        assert_eq!(seen(), 0, "nothing is selected above the upper mark");

        // In the band: one look per free count, however many checks arrive at it.
        fill_until(upper);
        assert_eq!(
            seen(),
            1,
            "the job that took the pool to the mark looked once"
        );
        for _ in 0..5 {
            write_path::ensure_headroom(core, store.unow()).unwrap();
        }
        assert_eq!(seen(), 1, "same free count, no second selection");
        fill_until(upper - 1);
        assert_eq!(seen(), 2, "the count moved: one more look");
        assert_eq!(store.stats().cleaning_cycles, 0, "a probe is not a cycle");

        // At the floor: the small cycle finds no victim and is remembered likewise.
        fill_until(floor);
        let at_floor = seen();
        for _ in 0..5 {
            write_path::ensure_headroom(core, store.unow()).unwrap();
        }
        assert_eq!(seen(), at_floor);
        assert_eq!(store.stats().cleaning_cycles, 0);

        // Garbage appears, and the tombstones' segments move the count: the attempts
        // that follow are real cycles.
        for page in 0..next_page.get() / 2 {
            store.delete(page).unwrap();
            settle();
        }
        assert!(seen() > at_floor);
        assert!(store.stats().cleaning_cycles >= 1);
    }

    /// Collection hands out *locations* into the victim image; the payload is copied
    /// only when the relocation is staged. A user overwrite landing in between must
    /// still win: its page is left where the user put it, every other survivor is
    /// copied out of the image byte-exactly.
    #[test]
    fn user_overwrite_between_collect_and_commit_beats_the_uncopied_relocation() {
        let store = sealed_store(64);
        let config = store.config().clone();
        // Phases 1 and 2 by hand: claim the segment holding page 0, read and collect.
        let core = &store.core;
        let victim = core.mapping().get(0).unwrap().segment;
        let (emptiness, up2, temperature) = {
            let mut central = core.central().lock();
            let m = central.segments.meta(victim).unwrap();
            let claim = (m.emptiness(), m.freq.up2(), m.temperature);
            assert!(central.segments.claim_for_cleaning(victim));
            claim
        };
        let prepared = prepare_victim(core, victim, emptiness, up2, temperature).unwrap();
        let survivors: Vec<PageId> = prepared.candidates.iter().map(|l| l.page).collect();
        assert!(survivors.len() > 1, "victim holds {survivors:?}");

        // The user rewrites one collected page before the cycle gets to it.
        let raced = survivors[0];
        store.put(raced, &page_body(&config, raced, 2)).unwrap();
        store.flush().unwrap(); // drained: the page table has moved on
        let user_copy = core.mapping().get(raced).unwrap();
        assert_ne!(user_copy.segment, victim);

        // Phase 3 on the stale collection, then the cycle's own phase 4.
        let permit = core.gc.begin_cycle();
        let mut cycle = CycleCtx::new(permit.token, store.unow(), vec![victim]);
        let mut emptiness_sum = 0.0;
        assert!(relocate_victim(core, &mut cycle, &prepared, &mut emptiness_sum).unwrap());
        assert_eq!(cycle.pages_moved as usize, survivors.len() - 1);
        assert_eq!(core.mapping().get(raced), Some(user_copy));
        let output = cycle.gcs.open.values().next().unwrap().id;
        for &page in &survivors[1..] {
            assert_eq!(core.mapping().get(page).unwrap().segment, output);
        }
        write_path::seal_streams(core, &mut cycle.gcs, cycle.unow).unwrap();
        core.central()
            .lock()
            .segments
            .quarantine_mark_sealed(cycle.token);
        write_path::sync_and_reap(core).unwrap();
        drop(permit);

        for page in 0..64 {
            let version = if page == raced { 2 } else { 1 };
            assert_eq!(
                store.get(page).unwrap().unwrap().as_ref(),
                &page_body(&config, page, version)[..],
                "page {page}"
            );
        }
    }

    /// A device that inspects every whole image it is asked to write — i.e. every seal
    /// of a never-persisted segment, which is every GC output — and records the page
    /// copies in it that nothing references *yet*: the page table still holds the very
    /// same version (write sequence) of the page at another address.
    struct SealWatch {
        inner: crate::device::MemDevice,
        store: Arc<std::sync::OnceLock<std::sync::Weak<LogStore>>>,
        unreferenced: Arc<Mutex<Vec<(SegmentId, PageId)>>>,
    }

    impl crate::device::SegmentDevice for SealWatch {
        fn geometry(&self) -> crate::device::DeviceGeometry {
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
            if let Some(store) = self.store.get().and_then(std::sync::Weak::upgrade) {
                let parsed = decode_segment(seg, image)?.expect("a seal writes an extent");
                let mut unreferenced = self.unreferenced.lock();
                for e in parsed.entries.iter().filter(|e| !e.is_tombstone()) {
                    if store
                        .core
                        .mapping()
                        .get(e.page_id)
                        .is_some_and(|loc| loc.write_seq == e.write_seq && loc.segment != seg)
                    {
                        unreferenced.push((seg, e.page_id));
                    }
                }
            }
            self.inner.write_segment(seg, image)
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn segment_writes(&self) -> u64 {
            self.inner.segment_writes()
        }
    }

    /// A sealed segment is a candidate victim for every other cycle, so a cycle must
    /// not seal an output that still holds staged copies it has not committed: another
    /// cycle would find none of them current, release the slot, and the first cycle's
    /// later swap would point the page table into a segment on its way back to the
    /// free list (pages were lost this way with overlapping inline cycles). Here one
    /// cycle's second victim overflows its output, which is sealed mid-victim.
    #[test]
    fn an_output_sealed_in_the_middle_of_a_victim_holds_no_uncommitted_copy() {
        let config = StoreConfig::small_for_tests().with_write_streams(1);
        let handle = Arc::new(std::sync::OnceLock::new());
        let unreferenced = Arc::new(Mutex::new(Vec::new()));
        let device = SealWatch {
            inner: crate::device::MemDevice::new(config.segment_bytes, config.num_segments),
            store: Arc::clone(&handle),
            unreferenced: Arc::clone(&unreferenced),
        };
        let store = Arc::new(LogStore::open_with_device(config.clone(), Box::new(device)).unwrap());
        for page in 0..60 {
            store.put(page, &page_body(&config, page, 1)).unwrap();
        }
        // A third of every segment dies: two victims' survivors overflow one output.
        for page in (0..60).step_by(3) {
            store.put(page, &page_body(&config, page, 2)).unwrap();
        }
        store.flush().unwrap();
        store.checkpoint_json().unwrap(); // seals every open segment
        handle.set(Arc::downgrade(&store)).unwrap();

        let report = run_cleaning_cycle(&store.core).unwrap();
        assert!(report.victims.len() >= 2, "{report:?}");
        assert!(
            store.stats().segments_sealed as usize > report.victims.len(),
            "no output filled up mid-cycle"
        );
        assert_eq!(*unreferenced.lock(), Vec::new());
        for page in 0..60 {
            let version = if page % 3 == 0 { 2 } else { 1 };
            assert_eq!(
                store.get(page).unwrap().unwrap().as_ref(),
                &page_body(&config, page, version)[..],
                "page {page}"
            );
        }
    }

    /// Once the pool holds the buffers a cycle needs, a cycle allocates no segment-sized
    /// buffer: the very same allocations are parked before and after it.
    #[test]
    fn a_steady_state_cycle_takes_its_images_from_the_pool_and_puts_them_back() {
        let store = sealed_store(400);
        let config = store.config().clone();
        // Checkerboard the sealed segments so cycles have survivors to move.
        for page in (0..400).step_by(2) {
            store.put(page, &page_body(&config, page, 2)).unwrap();
        }
        store.checkpoint_json().unwrap();
        let parked = |store: &LogStore| {
            let pool = store.core.images.lock();
            let mut ptrs: Vec<_> = pool
                .blank
                .iter()
                .chain(&pool.stale)
                .map(|i| i.as_ptr())
                .collect();
            ptrs.sort_unstable();
            ptrs
        };
        // The first cycle may still allocate (a victim image, a GC output image)...
        assert!(run_cleaning_cycle(&store.core).unwrap().pages_moved > 0);
        let before = parked(&store);
        assert!((2..=3).contains(&before.len()), "{} parked", before.len());
        // ...the next ones find everything they need parked, and leave it parked.
        for _ in 0..3 {
            assert!(run_cleaning_cycle(&store.core).unwrap().pages_moved > 0);
            assert_eq!(parked(&store), before);
        }
    }
}
