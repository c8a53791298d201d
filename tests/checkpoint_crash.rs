//! Crash matrix for the incremental checkpoint journal: the device dies at **every
//! write boundary** of a shard checkpoint (the capture seals and syncs every open
//! segment before a single journal byte is written), and the journal itself is torn at
//! every line boundary and mid-line. Reopen must always land on the last *committed*
//! frontier — the new checkpoint when its commit record survived, the previous one
//! otherwise — and never on a blend.
//!
//! Same sweep style as `tests/kv_crash.rs`: count device writes with
//! [`common::CrashPointDevice`], rebuild the same deterministic store per iteration,
//! allow `n` more writes, kill. The journal is a plain file (it never goes through the
//! segment device), so its torn-tail sweep truncates the file directly instead.

mod common;

use common::{apply_env_concurrency, CrashPointDevice};
use lss::core::policy::PolicyKind;
use lss::core::recovery::recover_from_checkpoint_with_report;
use lss::core::{LogStore, StoreConfig};
use std::collections::HashMap;

/// page → version; absent means deleted (or never written).
type Model = HashMap<u64, u64>;

const PAGES: u64 = 220;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    // Generous headroom: no cleaning runs, so no tombstone is ever dropped and every
    // recovery flavour (journal at either commit, raw scan) sees the same facts.
    c.num_segments = 192;
    c
}

fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(page ^ version) as u8; len.max(16)];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lss-ckpt-crash-{tag}-{}-{n}.ckpt",
        std::process::id()
    ))
}

/// The epoch checkpoint 1 commits. It ends in a flush: a checkpoint covers the
/// batches handed off before it but not the sort-buffer batches still filling, and
/// commit 1 must cover all of this epoch — its last deletes included.
fn phase1(store: &LogStore, config: &StoreConfig, model: &mut Model) {
    for p in 0..PAGES {
        store.put(p, &payload(p, 1, config.page_bytes)).unwrap();
        model.insert(p, 1);
    }
    for p in (0..PAGES).step_by(9) {
        store.delete(p).unwrap();
        model.remove(&p);
    }
    store.flush().unwrap();
}

/// The epoch the crash interrupts: overwrites, fresh pages, deletions.
fn phase2(store: &LogStore, config: &StoreConfig, model: &mut Model) {
    for p in (0..PAGES).step_by(2) {
        store.put(p, &payload(p, 2, config.page_bytes)).unwrap();
        model.insert(p, 2);
    }
    for p in PAGES..PAGES + 40 {
        store.put(p, &payload(p, 2, config.page_bytes)).unwrap();
        model.insert(p, 2);
    }
    for p in (1..PAGES).step_by(13) {
        store.delete(p).unwrap();
        model.remove(&p);
    }
}

fn assert_exact(store: &LogStore, model: &Model, config: &StoreConfig, ctx: &str) {
    assert_eq!(store.live_pages(), model.len(), "{ctx}: live-page count");
    for p in 0..PAGES + 40 {
        match model.get(&p) {
            Some(&version) => assert_eq!(
                store.get(p).unwrap().as_deref(),
                Some(payload(p, version, config.page_bytes).as_slice()),
                "{ctx}: page {p}"
            ),
            None => assert!(
                store.get(p).unwrap().is_none(),
                "{ctx}: page {p} should be absent"
            ),
        }
    }
}

/// Kill the device after `budget` writes during the second (incremental) shard
/// checkpoint. The capture's seal-and-sync happens entirely before the journal is
/// touched, so the journal is either exactly commit 1 or exactly commit 2 — and reopen
/// through it must reflect that frontier.
///
/// The checkpoint first appends the phase-2 batches the write-behind worker has not
/// reached, so how many writes it makes varies from run to run: the sweep raises the
/// budget one write at a time until a checkpoint commits.
#[test]
fn shard_checkpoint_device_crash_matrix_lands_on_a_committed_frontier() {
    let config = config();

    // Dry run: device writes a healthy second checkpoint makes (seals + sync), about.
    let healthy_writes = {
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let path = temp_path("dry");
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let mut model = Model::new();
        phase1(&store, &config, &mut model);
        store.checkpoint_log_to(&path).unwrap();
        phase2(&store, &config, &mut model);
        let before = device.writes();
        store.checkpoint_log_to(&path).unwrap();
        std::fs::remove_file(&path).ok();
        device.writes() - before
    };
    assert!(
        healthy_writes >= 1,
        "a checkpoint with open segments must seal to the device, saw {healthy_writes}"
    );

    let mut old_frontier_outcomes = 0u32;
    let mut new_frontier_outcomes = 0u32;
    // The device's sync fails on an exhausted budget, so the fully-healthy iteration
    // needs one spare unit beyond the counted segment writes.
    for budget in 0.. {
        assert!(
            budget <= 4 * healthy_writes + 16,
            "no budget let the checkpoint commit"
        );
        let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
        let path = temp_path("sweep");
        let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
        let mut model1 = Model::new();
        phase1(&store, &config, &mut model1);
        store.checkpoint_log_to(&path).unwrap();
        let mut model2 = model1.clone();
        phase2(&store, &config, &mut model2);

        device.fail_after(budget);
        let ckpt2 = store.checkpoint_log_to(&path);
        device.kill();
        drop(store); // the process dies; device image + journal file survive

        device.heal();
        let ctx = format!("crash after {budget}/~{healthy_writes} checkpoint writes");
        let (recovered, report) =
            recover_from_checkpoint_with_report(config.clone(), Box::new(device.clone()), &path)
                .unwrap_or_else(|e| panic!("{ctx}: reopen through the journal failed: {e}"));

        // Whichever frontier won, each page must read as some prefix point of its
        // *own* update sequence — its committed phase-1 state or the state after any
        // of its phase-2 updates (a put may be durable while a later delete of the
        // same page was still volatile, and pages still in sort buffers at capture
        // time are volatile by contract) — never a value from outside that history.
        let mut acceptable: HashMap<u64, Vec<Option<u64>>> = HashMap::new();
        for p in 0..PAGES + 40 {
            acceptable.insert(p, vec![model1.get(&p).copied()]);
        }
        // Phase 2's update sequence, in order (mirrors `phase2`).
        for p in (0..PAGES).step_by(2) {
            acceptable.get_mut(&p).unwrap().push(Some(2));
        }
        for p in PAGES..PAGES + 40 {
            acceptable.get_mut(&p).unwrap().push(Some(2));
        }
        for p in (1..PAGES).step_by(13) {
            acceptable.get_mut(&p).unwrap().push(None);
        }
        for p in 0..PAGES + 40 {
            let got = recovered.get(p).unwrap();
            let ok = acceptable[&p].iter().any(|state| {
                got.as_deref() == state.map(|v| payload(p, v, config.page_bytes)).as_deref()
            });
            assert!(
                ok,
                "{ctx}: page {p} holds a value outside its own update history"
            );
        }
        for p in (0..PAGES).step_by(9) {
            // Odd pages in this stripe are never re-put by phase 2 (its puts only
            // touch even pages): their phase-1 delete must hold unconditionally.
            if p % 2 == 1 {
                assert!(
                    recovered.get(p).unwrap().is_none(),
                    "{ctx}: page {p}, deleted before checkpoint 1, resurrected"
                );
            }
        }
        // Journal recovery must agree page-for-page with the raw full scan of the
        // same device: both see exactly the durable truth, regardless of which
        // commit the journal landed on.
        let scanned =
            LogStore::recover_with_device(config.clone(), Box::new(device.clone())).unwrap();
        assert_eq!(
            recovered.live_pages(),
            scanned.live_pages(),
            "{ctx}: journal and scan recovery disagree on the live set"
        );
        for p in 0..PAGES + 40 {
            assert_eq!(
                recovered.get(p).unwrap(),
                scanned.get(p).unwrap(),
                "{ctx}: journal and scan recovery disagree on page {p}"
            );
        }
        let committed = ckpt2.is_ok();
        if committed {
            // Commit 2 landed: its frontier covers everything sealed, no tail replay.
            assert_eq!(report.replayed_segments, 0, "{ctx}: tail beyond commit 2");
            new_frontier_outcomes += 1;
        } else {
            // The capture died before the journal was touched: reopen landed on
            // commit 1's frontier and replayed the durable phase-2 tail on top.
            old_frontier_outcomes += 1;
        }

        // Life goes on: a fresh write, a fresh checkpoint to the same journal, and one
        // more journal reopen all succeed.
        recovered.put(0, &payload(0, 9, config.page_bytes)).unwrap();
        recovered.flush().unwrap();
        recovered.checkpoint_log_to(&path).unwrap();
        let reopened =
            LogStore::recover_with_checkpoint(config.clone(), recovered.into_device(), &path)
                .unwrap();
        assert_eq!(
            reopened.get(0).unwrap().as_deref(),
            Some(payload(0, 9, config.page_bytes).as_slice()),
            "{ctx}: post-recovery checkpoint lost"
        );
        std::fs::remove_file(&path).ok();
        if committed {
            break;
        }
    }
    assert!(
        old_frontier_outcomes > 0,
        "no crash point fell back to commit 1 — the sweep missed the capture window"
    );
    assert!(
        new_frontier_outcomes > 0,
        "no crash point reached commit 2 — the sweep never let the checkpoint finish"
    );
}

/// Tear the journal file at every line boundary and mid-line. A prefix containing
/// commit 2 recovers the new frontier (no tail replay); a prefix containing only
/// commit 1 falls back to it and replays the flushed phase-2 tail to the identical
/// final state; a prefix with no commit at all is rejected, and the raw device scan
/// still recovers everything.
#[test]
fn torn_journal_tail_falls_back_to_the_previous_commit() {
    let config = config();
    let device = CrashPointDevice::new(config.segment_bytes, config.num_segments);
    let path = temp_path("torn");
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let mut model = Model::new();
    phase1(&store, &config, &mut model);
    store.checkpoint_log_to(&path).unwrap();
    let commit1_len = std::fs::metadata(&path).unwrap().len() as usize;
    phase2(&store, &config, &mut model);
    // Flush before the second checkpoint so the whole phase-2 tail is sealed: a
    // reopen from commit 1 then replays it back to the exact same final state.
    store.flush().unwrap();
    store.checkpoint_log_to(&path).unwrap();
    drop(store);

    let journal = std::fs::read(&path).unwrap();
    assert!(journal.len() > commit1_len, "checkpoint 2 appended nothing");

    // Truncation points: start, every line boundary, and the middle of every line.
    let mut cuts = vec![0usize];
    let mut line_start = 0usize;
    for (i, &b) in journal.iter().enumerate() {
        if b == b'\n' {
            cuts.push(line_start + (i - line_start) / 2);
            cuts.push(i + 1);
            line_start = i + 1;
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut new_commit = 0u32;
    let mut prev_commit = 0u32;
    let mut rejected = 0u32;
    for &cut in &cuts {
        let torn = temp_path("torn-cut");
        std::fs::write(&torn, &journal[..cut]).unwrap();
        let ctx = format!("journal torn at byte {cut}/{}", journal.len());
        match recover_from_checkpoint_with_report(config.clone(), Box::new(device.clone()), &torn) {
            Ok((recovered, report)) => {
                assert_exact(&recovered, &model, &config, &ctx);
                if cut >= journal.len() {
                    assert_eq!(report.replayed_segments, 0, "{ctx}: tail beyond commit 2");
                }
                if report.replayed_segments == 0 {
                    new_commit += 1;
                } else {
                    // Fell back to commit 1 and replayed the phase-2 tail.
                    assert!(cut >= commit1_len, "{ctx}: replay without a full commit 1");
                    prev_commit += 1;
                }
            }
            Err(_) => {
                // No commit survived the tear. The journal is unusable but the device
                // is intact: the raw scan must still recover the exact state.
                assert!(cut < journal.len(), "{ctx}: full journal rejected");
                rejected += 1;
                let scanned =
                    LogStore::recover_with_device(config.clone(), Box::new(device.clone()))
                        .unwrap();
                assert_exact(&scanned, &model, &config, &format!("{ctx}, raw scan"));
            }
        }
        std::fs::remove_file(&torn).ok();
    }
    assert!(rejected > 0, "no cut point lost every commit");
    assert!(prev_commit > 0, "no cut point fell back to commit 1");
    assert!(new_commit > 0, "no cut point preserved commit 2");
    std::fs::remove_file(&path).ok();
}
