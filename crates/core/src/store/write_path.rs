//! The sharded write pipeline: per-stream buffering, batch draining, open-segment
//! management, and the short-critical-section coordination with the shared segment
//! table.
//!
//! `put`/`delete` route by page-id hash to one write stream and enqueue into that
//! stream's sort-buffer shard; when the shard reaches its configured size the stream
//! drains it as one batch under the *stream lock*: carry-forward `up2` estimates are
//! assigned (paper §5.2.2), the batch is sorted by the policy's separation key (paper
//! §5.3), and each page is appended to the stream's open segment for its
//! output log. Streams never serialise against each other; they meet only at the
//! central lock, which is held for short bounded operations:
//!
//! * **allocation** — taking a segment off the shared free list;
//! * **seal bookkeeping** — assigning the seal sequence (or reserving it, at an open
//!   segment's first persist point) and transitioning metadata; the device write of
//!   the image happens *outside* the central lock, with the segment hidden from victim
//!   selection until the image lands (see
//!   [`crate::segment::SegmentTable::set_image_pending`]);
//! * **batched accounting** — per-page `live_bytes`/`live_pages`/`up2` bookkeeping is
//!   recorded into a [`MetaLedger`] while appending and applied in order under one lock
//!   acquisition per batch. A death is recorded and applied inside one drain, and no
//!   cleaning cycle runs inside a drain, so the segment an op names is the incarnation
//!   it was recorded against.
//!
//! A writer never drains and never cleans: `submit` buffers the page and, when the
//! stream's filling batch is full, freezes it and hands it to the store's write-behind
//! worker (`super::write_behind`). The worker's job ([`run_job`]) drains the batch at
//! the tick it was frozen at; if the drain runs out of segments it leaves the
//! unprocessed remainder buffered, releases the stream lock, lets a cleaning cycle run,
//! and retries ([`drain_with_cleaning`], the one escalation ladder, which `flush` uses
//! too). Out-of-space is reported only when a full cycle frees nothing. The job then
//! runs the paced check ([`ensure_headroom`]) at the tick of the put after the batch's.
//!
//! Every drain, like every cleaning cycle, seal and sync point, runs under the
//! write-behind job lock — on the worker, or on a flush or checkpoint running the
//! queued jobs — so the store has one mutator at a time; readers take none of it.
//!
//! Every mutation is stamped with the tick of the work it belongs to, passed down as
//! `unow`: a batch's hand-off tick, a flush's, or a cycle's start.

use super::write_behind::Job;
use super::{
    gc_driver, CentralState, GcStreams, OpenSegment, SealTail, StoreCore, StreamState, WriteStream,
};
use crate::error::{Error, Result};
use crate::freq::{carry_forward_rewrite, first_write_up2, Up2Average, Up2Mode};
use crate::layout::{self, SegmentBuilder};
use crate::policy::PolicyContext;
use crate::stats::AtomicStats;
use crate::types::{PageId, PageLocation, SegmentId, UpdateTick};
use crate::util::FxHashMap;
use crate::write_buffer::{sort_by_separation_key, PendingPage, WriteBuffer};
use parking_lot::{MutexGuard, RwLock};
use std::sync::Arc;

/// Result of draining a stream's buffer shard.
pub(crate) enum DrainOutcome {
    /// Everything was appended.
    Done,
    /// Allocation hit the reserve floor; the remainder was requeued and a cleaning cycle
    /// must run before retrying.
    NeedsCleaning,
}

/// Result of appending one pending page.
pub(crate) enum AppendOutcome {
    /// The page was appended (or was a no-op tombstone).
    Appended,
    /// No segment could be allocated without dipping below the reserve; nothing was
    /// appended (the page stays in the sort buffer for the post-cleaning retry).
    NeedsCleaning,
}

/// One batched per-page accounting operation against the shared segment table.
enum MetaOp {
    /// A live page of `len` bytes was appended to `seg`.
    Added {
        seg: SegmentId,
        len: u32,
        exact: Option<f64>,
    },
    /// A live page of `len` bytes in `seg` was superseded (overwritten or deleted) at
    /// update tick `at`.
    Dead {
        seg: SegmentId,
        len: u32,
        at: UpdateTick,
        exact: Option<f64>,
    },
    /// A tombstone entry was appended to `seg`: its entry-table footprint is charged
    /// as live space so tombstone-laden segments don't masquerade as empty (see
    /// [`crate::segment::SegmentMeta::tombstone_bytes`]).
    TombstoneAdded { seg: SegmentId },
}

/// An ordered batch of per-page accounting, applied under one central-lock acquisition.
///
/// A ledger lives inside one drain (or one seal), and no cleaning cycle runs before it
/// is applied, so no segment it names can be released and reused in between. Ops are
/// recorded in program order, so `Added` always lands before the matching `Dead`.
#[derive(Default)]
pub(crate) struct MetaLedger {
    ops: Vec<MetaOp>,
}

impl MetaLedger {
    fn record_added(&mut self, seg: SegmentId, len: u32, exact: Option<f64>) {
        self.ops.push(MetaOp::Added { seg, len, exact });
    }

    fn record_dead(&mut self, seg: SegmentId, len: u32, at: UpdateTick, exact: Option<f64>) {
        self.ops.push(MetaOp::Dead {
            seg,
            len,
            at,
            exact,
        });
    }

    fn record_tombstone(&mut self, seg: SegmentId) {
        self.ops.push(MetaOp::TombstoneAdded { seg });
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply (and clear) every recorded op against the authoritative segment table.
    /// Call with the central lock held.
    pub(crate) fn apply(&mut self, central: &mut CentralState) {
        for op in self.ops.drain(..) {
            let segments = &mut central.segments;
            match op {
                MetaOp::Added { seg, len, exact } => {
                    if let Some(meta) = segments.meta_mut(seg) {
                        meta.on_page_added(len, exact);
                    }
                }
                MetaOp::Dead {
                    seg,
                    len,
                    at,
                    exact,
                } => {
                    if let Some(meta) = segments.meta_mut(seg) {
                        meta.on_page_dead(len, at, exact);
                    }
                }
                MetaOp::TombstoneAdded { seg } => {
                    if let Some(meta) = segments.meta_mut(seg) {
                        meta.on_tombstone_added();
                    }
                }
            }
        }
    }

    /// Apply the batch under a fresh central-lock acquisition, if anything is pending.
    pub(crate) fn flush_to_central(&mut self, store: &StoreCore) {
        if self.is_empty() {
            return;
        }
        self.apply(&mut store.central().lock());
    }
}

/// Entry point for `put`/`delete`: buffer the write into its page's stream and, if that
/// fills the stream's batch, hand the batch to the write-behind worker.
pub(crate) fn submit(store: &Arc<StoreCore>, pending: PendingPage) -> Result<()> {
    let wb = &store.write_behind;
    wb.take_failure()?;
    // The paced check a flush owes runs at this put's tick, ahead of its batch.
    wb.pay_pacing(store, store.unow())?;
    let s = store.stream_of_page(pending.info.page);
    let full = {
        let mut buffer = store.streams()[s].buffer.write();
        if buffer.push(pending) {
            AtomicStats::bump(&store.atomic_stats().absorbed_in_buffer);
        }
        should_drain(store, &buffer)
    };
    if full {
        wb.hand_off(store, s)?;
    }
    Ok(())
}

/// One write-behind job (see `super::write_behind`): a stream's frozen batch, drained at
/// the tick it was frozen at and followed by the paced check at the next put's tick, or
/// a paced check alone.
pub(crate) fn run_job(store: &StoreCore, job: Job) -> Result<()> {
    match job {
        Job::Drain(s) => match drain_frozen(store, &store.streams()[s], &mut 0)? {
            Some(unow) => ensure_headroom(store, unow + 1),
            None => Ok(()),
        },
        Job::Pace(unow) => ensure_headroom(store, unow),
    }
}

/// Append a stream's frozen batch at the tick it was frozen at, escalating to cleaning
/// ([`drain_with_cleaning`], counting in `attempts`) if the drain runs out of segments.
/// Returns that tick, or `None` if nothing was frozen.
fn drain_frozen(
    store: &StoreCore,
    stream: &WriteStream,
    attempts: &mut usize,
) -> Result<Option<UpdateTick>> {
    let mut ss = stream.state.lock();
    let Some(unow) = stream.buffer.read().frozen_tick() else {
        return Ok(None);
    };
    if let DrainOutcome::NeedsCleaning = drain_stream(store, stream, &mut ss)? {
        drop(ss);
        drain_with_cleaning(store, stream, unow, attempts)?;
    }
    Ok(Some(unow))
}

/// Drain every stream, persist every open segment's unpersisted tail, sync the device
/// and reap the quarantine: the durability point. Nothing is sealed here — a user
/// segment is sealed only when [`ensure_open`] finds it full or over the open-log cap,
/// or when a checkpoint asks (`StoreCore::checkpoint_snapshot`).
///
/// The flush drains on its own thread: it waits out the job the worker is running, runs
/// the queued ones (each at its own tick), then per stream appends whatever is still
/// frozen and then the rest of the buffer, frozen at the flush's tick. The paced check
/// that follows is owed to the next put.
pub(crate) fn flush(store: &StoreCore) -> Result<()> {
    let wb = &store.write_behind;
    wb.take_failure()?;
    let _running = wb.run_queued(store)?;
    // The job it waited out may have failed meanwhile: that error is this flush's.
    wb.take_failure()?;
    wb.owe_pacing();
    let unow = store.unow();
    // One escalation count for the whole flush: its third cycle is greedy, whichever
    // stream needs it.
    let mut attempts = 0;
    for stream in store.streams() {
        // A batch a failed job left, or one a racing writer froze: either way it holds
        // writes older than the rest of the buffer.
        drain_frozen(store, stream, &mut attempts)?;
        stream.buffer.write().freeze(unow);
        drain_frozen(store, stream, &mut attempts)?;
        let mut ss = stream.state.lock();
        for open in ss.open.values_mut() {
            persist_open(store, open, unow)?;
        }
    }
    // Every stream is drained and persisted; wounded seals are retried and the
    // device synced, which frees the quarantined victims no reader pins.
    sync_and_reap(store)
}

/// Seal every GC output stream of a cycle (used by the cycle's own phase 4 and by the
/// mid-cycle distress durability point). Device writes happen here; the caller syncs.
pub(crate) fn seal_streams(store: &StoreCore, gcs: &mut GcStreams, unow: UpdateTick) -> Result<()> {
    let mut ledger = MetaLedger::default();
    let logs: Vec<u16> = gcs.open.keys().copied().collect();
    for log in logs {
        if let Some(open) = gcs.open.remove(&log) {
            seal_open(store, open, &mut ledger, unow)?;
        }
    }
    ledger.flush_to_central(store);
    Ok(())
}

/// The durability tail every sync point shares: retry wounded seals, sync the device,
/// mark every quarantined victim synced, and reap the ones without reader pins.
///
/// Marking all of them is sound because the store has one mutator: a sync point runs
/// outside any cleaning cycle, or is the cycle's own after it has sealed its outputs,
/// so every quarantined victim's relocated copies were written before this sync — and
/// a seal whose write failed is retried first, or the sync point fails before it syncs.
pub(crate) fn sync_and_reap(store: &StoreCore) -> Result<()> {
    retry_wounded_seals(store)?;
    store.device().sync()?;
    let mut central = store.central().lock();
    central.segments.mark_quarantine_synced();
    central
        .segments
        .reap_quarantine(|id| store.pin_count(id) == 0);
    store.publish_free(&central.segments);
    Ok(())
}

/// Maximum clean-and-retry iterations before reporting out-of-space. Each iteration
/// requires the preceding cycle to have freed at least one segment, so this bound is
/// only reached on pathological configurations.
const MAX_CLEAN_RETRIES: usize = 64;

fn out_of_space(store: &StoreCore) -> Error {
    if std::env::var("LSS_DEBUG_OOS").is_ok() {
        let central = store.central().lock();
        let sealed = central.segments.sealed_stats();
        let meta_live: u64 = central.segments.iter_meta().map(|m| m.live_bytes).sum();
        let sealed_free: u64 = sealed.iter().map(|s| s.free_bytes).sum();
        eprintln!(
            "OOS: free={} quarantine={} sealed={} sealed_free_bytes={} meta_live={} map_live={} map_pages={}",
            central.segments.free_count(),
            central.segments.quarantine_len(),
            sealed.len(),
            sealed_free,
            meta_live,
            store.mapping().live_bytes(),
            store.mapping().len(),
        );
    }
    Error::OutOfSpace {
        free_segments: store.approx_free_segments(),
        needed: store.config().cleaning.reserved_free_segments + 1,
    }
}

/// Pace cleaning against the free pool, at tick `unow`: the check every write-behind
/// job ends with, and the first put after a flush or checkpoint queues.
///
/// It runs paced cycles ([`gc_driver::pace`]): small ones at the must-clean floor until
/// the pool is back above it, full ones between the floor and the upper mark as long as
/// the policy's pick is nearly free. An attempt that gets nowhere is remembered by the
/// free count it saw and not repeated until that count moves — the drain path escalates
/// harder if allocation actually fails.
pub(crate) fn ensure_headroom(store: &StoreCore, unow: UpdateTick) -> Result<()> {
    let (_, upper) = store.pacing_marks();
    if store.approx_free_segments() > upper {
        return Ok(());
    }
    for _ in 0..MAX_CLEAN_RETRIES {
        let free = store.approx_free_segments();
        if free > upper || !store.gc.worth_attempting_at(free) {
            break;
        }
        let report =
            gc_driver::run_cleaning_cycle_with(store, gc_driver::SelectionMode::Paced, unow)?;
        // No progress — the decision was to wait, there were no victims, or the
        // cycle's GC output consumed everything it freed.
        if report.segments_freed() == 0 || store.approx_free_segments() <= free {
            store.gc.note_fruitless_at(free);
            break;
        }
    }
    Ok(())
}

/// Last line of defence before declaring out-of-space: dead space can be parked in the
/// quarantine — stragglers whose reap was skipped because a reader happened to hold a
/// pin at the wrong instant, or victims of a cycle that aborted before its sync. None
/// of that is visible to victim selection, so a cycle that frees nothing does not prove
/// the store is full. This forces a sync + reap pass (no stream lock is held here, so
/// waiting out pins is safe). Returns true if the free pool grew, meaning the caller
/// should retry instead of erroring.
fn reclaim_stragglers(store: &StoreCore) -> Result<bool> {
    AtomicStats::bump(&store.atomic_stats().straggler_reclaims);
    let before = store.approx_free_segments();
    emergency_reclaim(store, true)?;
    Ok(store.approx_free_segments() > before)
}

/// Clean-then-retry loop for a stream drain that ran out of segments mid-batch: the one
/// escalation ladder, for a write-behind job's drain and a flush's alike. `unow` is the
/// batch's tick; `attempts` counts the cycles the caller's escalation has run so far — a
/// job's drain starts its own at 0, a flush shares one across its streams.
///
/// The first attempts let the configured policy pick victims; if that does not unblock
/// the drain (a selective policy can net almost nothing per cycle under distress), the
/// loop escalates to full-batch greedy cycles, which monotonically reclaim whatever is
/// reclaimable. Out-of-space is reported the first time a cycle frees nothing and a
/// quarantine sweep ([`reclaim_stragglers`]) after it does not grow the pool: with one
/// mutator nothing else can free a segment meanwhile.
fn drain_with_cleaning(
    store: &StoreCore,
    stream: &WriteStream,
    unow: UpdateTick,
    attempts: &mut usize,
) -> Result<()> {
    while *attempts < MAX_CLEAN_RETRIES {
        let mode = if *attempts < 2 {
            gc_driver::SelectionMode::Policy
        } else {
            gc_driver::SelectionMode::ForceGreedy
        };
        *attempts += 1;
        let report = gc_driver::run_cleaning_cycle_with(store, mode, unow)?;
        let mut ss = stream.state.lock();
        match drain_stream(store, stream, &mut ss)? {
            DrainOutcome::Done => return Ok(()),
            DrainOutcome::NeedsCleaning => {
                if report.segments_freed() == 0 {
                    drop(ss);
                    if !reclaim_stragglers(store)? {
                        return Err(out_of_space(store));
                    }
                }
            }
        }
    }
    Err(out_of_space(store))
}

fn sort_buffer_capacity_bytes(store: &StoreCore) -> usize {
    store.config().sort_buffer_segments
        * layout::payload_capacity(store.config().segment_bytes, store.config().page_bytes)
}

/// A stream's filling batch is handed off when it holds the full configured
/// sort-buffer budget.
///
/// The budget is deliberately *per stream*, not divided by the stream count: the
/// sort buffer exists to batch enough pages that carry-forward `up2` estimates and
/// frequency-separated packing work (paper §5.3, Figure 4), and that quality depends on
/// the *batch* size each drain sorts. Dividing the budget across streams was measured
/// to cost ~20-30% write amplification at 8 streams — the aggregate memory ceiling
/// (streams × budget) is the cheaper price.
pub(crate) fn should_drain(store: &StoreCore, buffer: &WriteBuffer) -> bool {
    let sbs = store.config().sort_buffer_segments;
    sbs == 0
        || buffer.filling_bytes() >= sort_buffer_capacity_bytes(store)
        || buffer.filling_len() >= sbs.max(1) * 4096
}

/// Ask the policy for a page's output log and separation key. Shared by the user drain
/// and the GC cycle so user and GC placement can never silently diverge. The caller
/// holds the central lock (the policy lives there).
pub(crate) fn route_page(
    policy: &mut Box<dyn crate::policy::CleaningPolicy>,
    unow: UpdateTick,
    info: &crate::types::PageWriteInfo,
) -> (u16, Option<f64>) {
    let log = if policy.num_logs() > 1 {
        let ctx = PolicyContext {
            unow,
            segments: &[],
        };
        policy.log_for_page(info, &ctx)
    } else {
        0
    };
    (log, policy.separation_key(info))
}

/// One frozen entry being drained: the pending write plus its routing decisions.
struct DrainItem {
    slot: u32,
    page: PendingPage,
    log: u16,
    key: Option<f64>,
}

/// Sort a batch (in arrival order) by separation key for appending.
///
/// Without absorption a batch can hold several writes of one page — a delete and the
/// put that recreates it, say — and those must be applied in arrival order, or the
/// older one wins. Their estimates can differ (each looked the page's location up on
/// its own, and the cleaner may have moved the page in between), so every later write
/// takes the key of the page's first one and the stable sort keeps them in order.
fn sort_for_append(items: &mut [DrainItem], absorbing: bool) {
    if !absorbing {
        let mut first_key: FxHashMap<PageId, Option<f64>> = FxHashMap::default();
        for it in items.iter_mut() {
            it.key = *first_key.entry(it.page.info.page).or_insert(it.key);
        }
    }
    sort_by_separation_key(items, |it: &DrainItem| it.key);
}

/// Frozen slots a drain copies, or drops once appended, per buffer lock, so that it
/// holds off the writers' pushes for microseconds at a time.
const SLOTS_PER_LOCK: usize = 64;

/// Assign carried `up2` values to the stream's frozen batch (paper §5.2.2) and hand
/// every page to an open segment, sorted by the policy's separation key, at the tick the
/// batch was frozen at.
///
/// The frozen batch is copied (payloads shared), not drained up front: an entry keeps
/// serving reads until its page has a page-table entry, and is removed (a few dozen at
/// a time, the payloads freed after the buffer lock is let go) after its append — all
/// under the continuously held stream lock — so a reader always finds an acknowledged
/// write in the buffer or in the page table, never in neither. If the batch stops
/// early for cleaning, only the unprocessed remainder stays buffered; the
/// post-cleaning retry picks up exactly that remainder.
pub(crate) fn drain_stream(
    store: &StoreCore,
    stream: &WriteStream,
    ss: &mut MutexGuard<'_, StreamState>,
) -> Result<DrainOutcome> {
    let Some(unow) = stream.buffer.read().frozen_tick() else {
        return Ok(DrainOutcome::Done);
    };
    let mut batch = Vec::new();
    let mut from = Some(0);
    while let Some(slot) = from {
        from = stream
            .buffer
            .read()
            .copy_frozen(slot, SLOTS_PER_LOCK, &mut batch);
    }

    // Prefetch each page's current location with no lock held: the page-table lookups
    // are the expensive part of the estimate pass, and they only feed heuristics — if
    // the cleaner relocates a page between this read and the metadata read below, the
    // worst case is a slightly-off `up2` estimate for that one page.
    let old_locs: Vec<Option<PageLocation>> = batch
        .iter()
        .map(|(_, p)| store.mapping().get(p.info.page))
        .collect();

    // One central-lock pass over the batch: carried `up2` (needs old-segment metadata),
    // output-log routing and separation keys (both need the policy).
    let mut items: Vec<DrainItem> = {
        let mut central = store.central().lock();
        let CentralState { segments, policy } = &mut *central;

        // First pass: pages with history inherit from their previous segment.
        let mut coldest = None;
        let mut has_history = vec![false; batch.len()];
        for (i, (_, p)) in batch.iter_mut().enumerate() {
            if let Some(loc) = old_locs[i] {
                let old_up2 = segments
                    .meta(loc.segment)
                    .map(|m| m.freq.up2())
                    .unwrap_or_default();
                p.info.up2 = carry_forward_rewrite(old_up2, unow);
                has_history[i] = true;
                coldest = Some(match coldest {
                    Some(c) if c < p.info.up2 => c,
                    _ => p.info.up2,
                });
            }
        }
        // Second pass: first writes get the coldest estimate seen in the batch.
        let cold = first_write_up2(coldest);
        for (i, (_, p)) in batch.iter_mut().enumerate() {
            if !has_history[i] {
                p.info.up2 = cold;
            }
        }

        batch
            .into_iter()
            .map(|(slot, p)| {
                let (log, key) = route_page(policy, unow, &p.info);
                DrainItem {
                    slot,
                    page: p,
                    log,
                    key,
                }
            })
            .collect()
    };

    sort_for_append(&mut items, store.config().absorb_updates_in_buffer);

    let mut ledger = MetaLedger::default();
    let mut appended = Vec::with_capacity(SLOTS_PER_LOCK);
    let mut outcome = Ok(DrainOutcome::Done);
    for item in items {
        match append_page(store, ss, &mut ledger, item.page, item.log, unow) {
            Ok(AppendOutcome::Appended) => {
                // The page is mapped; its buffer copy is now redundant.
                appended.push(item.slot);
                if appended.len() == SLOTS_PER_LOCK {
                    // Bound first, so that the payloads are freed after the lock goes.
                    let removed = stream.buffer.write().remove_frozen(&appended);
                    drop(removed);
                    appended.clear();
                }
            }
            // The remainder (this page onward) stays in the buffer for the retry.
            Ok(AppendOutcome::NeedsCleaning) => {
                outcome = Ok(DrainOutcome::NeedsCleaning);
                break;
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    let removed = stream.buffer.write().remove_frozen(&appended);
    drop(removed);
    ledger.flush_to_central(store);
    outcome
}

/// Append one pending user page to the stream's open segment for `log`, updating the
/// page table and recording the death of the previous version.
fn append_page(
    store: &StoreCore,
    ss: &mut MutexGuard<'_, StreamState>,
    ledger: &mut MetaLedger,
    p: PendingPage,
    log: u16,
    unow: UpdateTick,
) -> Result<AppendOutcome> {
    if p.is_tombstone() {
        return append_tombstone(store, ss, ledger, p, log, unow);
    }

    let data = p
        .data
        .clone()
        .expect("non-tombstone pending page must carry a payload in the real store");
    if !ensure_open(store, ss, ledger, log, data.len(), unow)? {
        return Ok(AppendOutcome::NeedsCleaning);
    }
    let seq = store.take_write_seq();
    ss.use_tick += 1;
    let tick = ss.use_tick;
    let open = ss
        .open
        .get_mut(&log)
        .expect("ensure_open just installed this log");
    open.last_used = tick;
    let offset = open.builder.write().push_page(p.info.page, seq, &data);
    open.up2_avg.add(p.info.up2);
    let loc = PageLocation {
        segment: open.id,
        offset,
        len: data.len() as u32,
        write_seq: seq,
    };
    ledger.record_added(open.id, data.len() as u32, p.info.exact_freq);
    commit_user_remap(store, ledger, &p, loc, unow);
    Ok(AppendOutcome::Appended)
}

/// Point the page table at a freshly appended user copy and record the death of the
/// previous copy, at tick `unow`.
///
/// The transition is a compare-and-swap against the observed old location, like every
/// remap the read path revalidates against. Nothing else remaps the page meanwhile —
/// user writes to it serialise on the stream lock we hold, and no cleaning cycle runs
/// during a drain — so the first swap lands; the loop only re-observes if it did not.
fn commit_user_remap(
    store: &StoreCore,
    ledger: &mut MetaLedger,
    p: &PendingPage,
    loc: PageLocation,
    unow: UpdateTick,
) {
    loop {
        match store.mapping().get(p.info.page) {
            None => {
                // Absent pages stay absent until we insert (only user writes create
                // mappings, and they hold this stream's lock).
                let old = store.mapping().insert(p.info.page, loc);
                debug_assert!(old.is_none(), "page appeared while its stream was locked");
                return;
            }
            Some(old) => {
                if store.mapping().replace_if_current(p.info.page, &old, loc) {
                    ledger.record_dead(old.segment, old.len, unow, p.info.exact_freq);
                    return;
                }
            }
        }
    }
}

fn append_tombstone(
    store: &StoreCore,
    ss: &mut MutexGuard<'_, StreamState>,
    ledger: &mut MetaLedger,
    p: PendingPage,
    log: u16,
    unow: UpdateTick,
) -> Result<AppendOutcome> {
    let page = p.info.page;
    if store.mapping().get(page).is_none() {
        // The page does not exist on the device; nothing to delete or record.
        return Ok(AppendOutcome::Appended);
    }
    if !ensure_open(store, ss, ledger, log, 0, unow)? {
        return Ok(AppendOutcome::NeedsCleaning);
    }
    // The same compare-and-swap as `commit_user_remap`, for removal.
    loop {
        let Some(old) = store.mapping().get(page) else {
            return Ok(AppendOutcome::Appended);
        };
        if store.mapping().remove_if_current(page, &old) {
            ledger.record_dead(old.segment, old.len, unow, None);
            break;
        }
    }
    let seq = store.take_write_seq();
    ss.use_tick += 1;
    let tick = ss.use_tick;
    let open = ss
        .open
        .get_mut(&log)
        .expect("ensure_open just installed this log");
    open.last_used = tick;
    open.builder.write().push_tombstone(page, seq);
    ledger.record_tombstone(open.id);
    Ok(AppendOutcome::Appended)
}

/// Make sure the stream has an open segment for `log` with room for a payload of `len`
/// bytes, sealing the current one and allocating a fresh segment if necessary. Returns
/// false if allocation would dip below the user reserve (the caller must let cleaning
/// run).
fn ensure_open(
    store: &StoreCore,
    ss: &mut MutexGuard<'_, StreamState>,
    ledger: &mut MetaLedger,
    log: u16,
    len: usize,
    unow: UpdateTick,
) -> Result<bool> {
    if let Some(open) = ss.open.get(&log) {
        if open.builder.read().fits(len) {
            return Ok(true);
        }
    }
    if let Some(full) = ss.open.remove(&log) {
        seal_open(store, full, ledger, unow)?;
    }
    // Bound how many logs this stream keeps open at once (multi-log wants up to 32
    // across the whole store): seal the least-recently-used open segment to make room.
    let cap = store.max_open_logs_per_stream();
    while ss.open.len() >= cap {
        let lru = ss
            .open
            .iter()
            .min_by_key(|(_, o)| o.last_used)
            .map(|(&l, _)| l)
            .expect("open map is non-empty");
        let open = ss.open.remove(&lru).expect("lru key just observed");
        seal_open(store, open, ledger, unow)?;
    }
    let Some(id) = allocate_user_segment(store, ledger, log)? else {
        return Ok(false);
    };
    let builder = Arc::new(RwLock::new(SegmentBuilder::with_image(
        store.take_blank_image(),
    )));
    store.open_reads().write().insert(id, Arc::clone(&builder));
    ss.use_tick += 1;
    let tick = ss.use_tick;
    ss.open.insert(
        log,
        OpenSegment {
            id,
            builder,
            up2_avg: Up2Average::new(),
            log,
            last_used: tick,
            seq: None,
        },
    );
    store.note_open_delta(1);
    Ok(true)
}

/// A persist point for one open segment: lay the entries appended since the last one
/// down as a new extent, write the (at most two, sector-aligned) byte ranges that
/// dirtied, and leave the segment open. The caller holds the lock that owns the segment
/// (its stream lock), so nothing is appended in between; the device sync that makes the
/// extent durable is the caller's.
///
/// The segment's seal sequence is reserved at its first persist point — every extent
/// carries it, and the eventual seal happens under it. On a device error the extent
/// stays pending: the next persist point (or the seal) lays it down again, over bytes
/// no completed flush ever vouched for.
fn persist_open(store: &StoreCore, open: &mut OpenSegment, unow: UpdateTick) -> Result<()> {
    if !open.builder.read().has_unpersisted() {
        return Ok(());
    }
    let seq = *open
        .seq
        .get_or_insert_with(|| store.central().lock().segments.reserve_seal_seq());
    let dirty = open
        .builder
        .write()
        .render_extent(seq, unow, open.up2_avg.mean_or(unow), open.log);
    // Two ranges — unless this is the first persist point of a segment already within
    // a sector of full, whose ranges would share that sector: it goes out whole.
    let ranged = !layout::ranges_share_a_sector(&dirty);
    store.write_image(
        open.id,
        open.builder.read().image(),
        ranged.then_some(&dirty),
    )?;
    open.builder.write().commit_extent();
    AtomicStats::bump(&store.atomic_stats().persist_points);
    Ok(())
}

/// Seal an open segment: lay down its final extent, write what the device does not
/// have yet and transition its metadata to `Sealed`. Empty builders just release the
/// segment. The single seal routine for user streams (caller holds the stream lock) and
/// a cycle's GC streams (caller runs the cycle).
///
/// A segment that was never persisted goes out as one `write_segment` of its whole
/// image (which a [`crate::device::FileDevice`] starts writing back at once, so the next
/// sync finds it in flight); one that was writes only the unpersisted tail (nothing at
/// all if every entry is already in a persisted extent).
///
/// The central lock is held only for the bookkeeping on either side of the device
/// write; while the write is in flight the segment is flagged *image-pending* so
/// victim selection cannot pick a segment whose on-device image is incomplete.
/// Ordering matters for the lock-free read path: the image is complete on the device
/// *before* the builder is removed from the open-segment read index, so a reader that
/// misses the index is guaranteed to find the image on the device.
pub(crate) fn seal_open(
    store: &StoreCore,
    open: OpenSegment,
    ledger: &mut MetaLedger,
    unow: UpdateTick,
) -> Result<()> {
    store.note_open_delta(-1);
    if open.builder.read().is_empty() {
        // Remove from the read index *before* releasing the slot: the moment the slot
        // is back on the free list another stream may allocate it and register a new
        // builder under the same id, which a late removal would clobber.
        store.open_reads().write().remove(&open.id);
        store.recycle_builder(open.builder);
        let mut central = store.central().lock();
        ledger.apply(&mut central);
        central.segments.release(open.id);
        store.publish_free(&central.segments);
        return Ok(());
    }
    let carried_up2 = open.up2_avg.mean_or(unow);
    let seal_seq = {
        let mut central = store.central().lock();
        // Accounting recorded for this segment must land before its stats freeze.
        ledger.apply(&mut central);
        let segments = &mut central.segments;
        let seq = open.seq.unwrap_or_else(|| segments.reserve_seal_seq());
        segments.seal_reserved(open.id, seq, unow, carried_up2, Up2Mode::OnOverwrite);
        segments.set_image_pending(open.id, true);
        seq
    };
    let tail = {
        let mut builder = open.builder.write();
        let whole = builder.extents() == 0;
        (whole || builder.has_unpersisted()).then(|| {
            let dirty = builder.render_extent(seal_seq, unow, carried_up2, open.log);
            SealTail {
                id: open.id,
                builder: Arc::clone(&open.builder),
                dirty: (!whole).then_some(dirty),
            }
        })
    };
    if let Some(tail) = tail {
        if let Err(e) = tail.write(store) {
            // Park the unwritten tail as a *wounded seal*: the builder stays registered
            // in `open_reads` (pages remain readable), the segment stays image-pending
            // (never a victim), and every sync point retries the write via
            // [`retry_wounded_seals`] — so a later flush either lands this image or
            // keeps failing, instead of silently reporting durability for data that
            // never reached the device.
            store.wounded_seals().lock().push(tail);
            return Err(e);
        }
    }
    finish_seal(store, open.id, open.builder);
    Ok(())
}

impl SealTail {
    /// Write what the device still lacks of this sealed segment's image.
    fn write(&self, store: &StoreCore) -> Result<()> {
        store.write_image(self.id, self.builder.read().image(), self.dirty.as_ref())
    }
}

/// The tail of a seal once the segment's image is complete on the device: readers are
/// sent to the device from here on, and the builder's image — `builder` is the last
/// handle on it once the read index lets go — is recycled for the next open segment.
fn finish_seal(store: &StoreCore, id: SegmentId, builder: Arc<RwLock<SegmentBuilder>>) {
    AtomicStats::bump(&store.atomic_stats().segments_sealed);
    store.open_reads().write().remove(&id);
    store.recycle_builder(builder);
    let mut central = store.central().lock();
    central.segments.set_image_pending(id, false);
    store.publish_free(&central.segments);
}

/// Retry the device writes of any wounded seals (see [`seal_open`]). Called before
/// every sync point so a sync never "completes" a flush while a sealed image is still
/// missing from the device. On success the segment finishes its normal seal transition;
/// on failure the error propagates and the image stays parked for the next attempt.
fn retry_wounded_seals(store: &StoreCore) -> Result<()> {
    let mut wounded = store.wounded_seals().lock();
    while let Some(seal) = wounded.last() {
        seal.write(store)?;
        let seal = wounded.pop().expect("just observed");
        finish_seal(store, seal.id, seal.builder);
    }
    Ok(())
}

/// Allocate a free segment for a user stream.
///
/// User allocations stop at the reserve floor (returning `None` so the caller can let a
/// cleaning cycle run); the reserve exists so GC relocations always have destinations.
/// When the pool runs dry this first tries to reclaim quarantined victims via
/// [`emergency_reclaim`].
fn allocate_user_segment(
    store: &StoreCore,
    ledger: &mut MetaLedger,
    log: u16,
) -> Result<Option<SegmentId>> {
    let reserved = store.config().cleaning.reserved_free_segments;
    let capacity =
        layout::payload_capacity(store.config().segment_bytes, store.config().page_bytes) as u64;
    for attempt in 0..2 {
        {
            let mut central = store.central().lock();
            ledger.apply(&mut central);
            if central.segments.free_count() > reserved {
                if let Some(id) = central
                    .segments
                    .allocate(capacity, log, Up2Mode::OnOverwrite)
                {
                    store.publish_free(&central.segments);
                    return Ok(Some(id));
                }
            }
        }
        if attempt == 0 {
            emergency_reclaim(store, false)?;
        }
    }
    Ok(None)
}

/// Escape hatch under allocation pressure: make already-sealed relocated pages durable
/// right now (sync the device) so quarantined victims become reusable.
///
/// Runs outside any cleaning cycle (on a drain's allocation path, or between the
/// escalation ladder's cycles), so every quarantined victim's copies are already
/// written. The allocation path calls it with `blocking = false` while holding a stream
/// lock; `blocking = true` callers hold no stream lock and additionally retry
/// pin-skipped reaps (see [`reclaim_stragglers`]).
fn emergency_reclaim(store: &StoreCore, blocking: bool) -> Result<()> {
    if store.wounded_seals().lock().is_empty()
        && store.central().lock().segments.quarantine_len() == 0
    {
        // Nothing this pass could free: no wounded images to retry and no quarantined
        // victim. Skip the pointless device sync — the non-blocking caller holds a
        // stream lock, and an fsync there would stall the stream for nothing.
        return Ok(());
    }
    sync_and_reap(store)?;
    if blocking {
        // Quarantine entries can survive the reap only because a reader happened to
        // hold a pin at that instant — pins last microseconds. When the caller is
        // about to declare out-of-space, a brief bounded retry is worth far more than
        // a false failure.
        for _ in 0..64 {
            let mut central = store.central().lock();
            if central.segments.quarantine_len() == 0 {
                break;
            }
            if central
                .segments
                .reap_quarantine(|id| store.pin_count(id) == 0)
                > 0
            {
                store.publish_free(&central.segments);
                break;
            }
            drop(central);
            std::thread::yield_now();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PageWriteInfo, WriteOrigin};
    use bytes::Bytes;

    fn item(slot: u32, page: PageId, key: f64, data: Option<&'static [u8]>) -> DrainItem {
        DrainItem {
            slot,
            page: PendingPage {
                info: PageWriteInfo {
                    page,
                    size: data.map_or(0, |d| d.len() as u32),
                    up2: key as u64,
                    exact_freq: None,
                    origin: WriteOrigin::User,
                },
                data: data.map(Bytes::from_static),
            },
            log: 0,
            key: Some(key),
        }
    }

    /// Two buffered writes of one page whose estimates disagree (the cleaner moved the
    /// page between their two location lookups) used to be sorted apart: the put that
    /// recreates a page could be applied *before* the delete it follows, and the page
    /// was gone (a KV key read back `None` in ~1 % of `kv_model` runs).
    #[test]
    fn writes_of_one_page_are_appended_in_arrival_order_whatever_their_keys() {
        let batch = || {
            vec![
                item(0, 7, 9.0, None), // delete page 7 ...
                item(1, 3, 5.0, Some(b"three")),
                item(2, 7, 1.0, Some(b"seven")), // ... then recreate it, estimated colder
                item(3, 4, 2.0, Some(b"four")),
                item(4, 7, 6.0, Some(b"seven again")),
            ]
        };
        let order = |items: &[DrainItem]| items.iter().map(|it| it.slot).collect::<Vec<_>>();

        let mut items = batch();
        sort_for_append(&mut items, false);
        // Page 7's writes share its first key (9.0) and stay in arrival order.
        assert_eq!(order(&items), vec![3, 1, 0, 2, 4]);

        // With absorption a batch holds one write per page: plain sort by key.
        let mut items: Vec<DrainItem> = batch().into_iter().skip(1).take(3).collect();
        sort_for_append(&mut items, true);
        assert_eq!(order(&items), vec![2, 3, 1]);
    }
}
