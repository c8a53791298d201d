//! Recovery reads slot fronts, never whole images. A store of 4 KiB pages goes through
//! cleaning, a checkpoint, deletes and an open segment persisted several times; then
//! both recovery paths — the full scan and the checkpoint journal's tail replay — reopen
//! it over a [`common::CountingDevice`]. Neither may read a whole segment image, each
//! reads at most 2 % of the device (what `StoreStats::recovery_bytes_read` reports), and
//! both land on exactly the state a whole-image decode of every slot gives, page for
//! page and byte for byte.

mod common;

use common::{apply_env_concurrency, stress_seed_or, CountingDevice};
use lss::core::device::SegmentDevice;
use lss::core::layout::decode_segment;
use lss::core::policy::PolicyKind;
use lss::core::recovery::{recover_from_checkpoint_with_report, recover_with_report};
use lss::core::{LogStore, SegmentId, StoreConfig};
use std::collections::BTreeMap;

/// page → payload of its newest version; absent means deleted (or never written).
type State = BTreeMap<u64, Vec<u8>>;

/// page → `(write_seq, seal_seq)` rank and payload (`None`: a tombstone) of the newest
/// entry seen so far.
type Newest = BTreeMap<u64, ((u64, u64), Option<Vec<u8>>)>;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.page_bytes = 4096;
    c.segment_bytes = 256 * 1024;
    c.num_segments = 64;
    c
}

fn payload(page: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(page ^ version) as u8; len];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn temp_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lss-recovery-reads-{}.ckpt", std::process::id()))
}

/// What decoding every whole slot image says: the newest version of each page — largest
/// `(write_seq, seal_seq)`, tombstones included — with its payload bytes.
fn whole_image_state(device: &CountingDevice, num_segments: usize) -> State {
    let mut newest = Newest::new();
    for i in 0..num_segments {
        let image = device
            .uncounted()
            .read_segment(SegmentId(i as u32))
            .unwrap();
        let Some(parsed) = decode_segment(SegmentId(i as u32), &image).unwrap() else {
            continue;
        };
        for e in &parsed.entries {
            let rank = (e.write_seq, parsed.header.seal_seq);
            if newest
                .get(&e.page_id)
                .is_some_and(|(held, _)| *held >= rank)
            {
                continue;
            }
            let bytes =
                (!e.is_tombstone()).then(|| image[e.offset as usize..][..e.len as usize].to_vec());
            newest.insert(e.page_id, (rank, bytes));
        }
    }
    newest
        .into_iter()
        .filter_map(|(page, (_, bytes))| Some((page, bytes?)))
        .collect()
}

/// Build the churned store on `device`; returns the state its writes left.
fn churn(device: &CountingDevice, config: &StoreConfig, journal: &std::path::Path) -> State {
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let pages = config.logical_pages_for_fill_factor(0.6) as u64;
    let mut state = State::new();
    let put = |state: &mut State, page: u64, version: u64| {
        let bytes = payload(page, version, config.page_bytes);
        store.put(page, &bytes).unwrap();
        state.insert(page, bytes);
    };
    for page in 0..pages {
        put(&mut state, page, 0);
    }
    // Overwrites enough to clean, then a checkpoint (deletes come after it, so no
    // tombstone is ever covered and dropped: a whole-image decode stays the truth).
    let seed = stress_seed_or(30);
    for n in 0..2 * config.physical_pages() as u64 {
        put(&mut state, lss::core::util::mix64(seed ^ n) % pages, n + 1);
    }
    store.flush().unwrap();
    store.checkpoint_log_to(journal).unwrap();
    // After it: a quarter of the device's pages overwritten (so part of it predates the
    // frontier), deletes, and an open segment that takes several persist points.
    let mut version = 1 << 32;
    for n in 0..config.physical_pages() as u64 / 4 {
        version += 1;
        put(
            &mut state,
            lss::core::util::mix64(seed ^ version) % pages,
            version,
        );
        if n % 7 == 0 {
            let page = lss::core::util::mix64(n) % pages;
            store.delete(page).unwrap();
            state.remove(&page);
        }
    }
    store.flush().unwrap();
    for round in 0..5u64 {
        for page in [round, pages + round] {
            version += 1;
            put(&mut state, page, version);
        }
        store.flush().unwrap();
    }
    let stats = store.stats();
    assert!(stats.cleaning_cycles > 0, "the store must have cleaned");
    assert!(
        stats.persist_points > 5,
        "the open segment must have persist points"
    );
    state
}

/// The recovered store holds exactly `expected`, byte for byte.
fn assert_state(store: &LogStore, expected: &State, pages: u64, path: &str) {
    assert_eq!(store.live_pages(), expected.len(), "{path}: live pages");
    for page in 0..pages + 8 {
        let got = store.get(page).unwrap();
        assert_eq!(
            got.as_deref(),
            expected.get(&page).map(Vec::as_slice),
            "{path}: page {page}"
        );
    }
}

/// Neither path reads a whole image, each reads at most 2 % of the device, and the
/// store reports exactly the bytes its recovery read (returned).
fn assert_reads(
    store: &LogStore,
    device: &CountingDevice,
    config: &StoreConfig,
    path: &str,
) -> u64 {
    let (range_bytes, whole_reads) = device.take_counts();
    let device_bytes = (config.segment_bytes * config.num_segments) as u64;
    assert_eq!(whole_reads, 0, "{path} read whole segment images");
    assert!(range_bytes > 0, "{path} read nothing");
    assert!(
        range_bytes * 50 <= device_bytes,
        "{path} read {range_bytes} of {device_bytes} bytes"
    );
    assert_eq!(store.stats().recovery_bytes_read, range_bytes, "{path}");
    range_bytes
}

#[test]
fn both_recovery_paths_read_only_fronts_and_reopen_exactly() {
    let config = config();
    let device = CountingDevice::new(config.segment_bytes, config.num_segments);
    let journal = temp_path();
    let written = churn(&device, &config, &journal);
    let pages = config.logical_pages_for_fill_factor(0.6) as u64;
    let truth = whole_image_state(&device, config.num_segments);
    assert_eq!(
        truth, written,
        "the whole-image decode disagrees with what was written"
    );
    device.take_counts();

    let (scanned, report) = recover_with_report(config.clone(), Box::new(device.clone())).unwrap();
    let scan_bytes = assert_reads(&scanned, &device, &config, "full scan");
    assert!(report.corrupt_segments.is_empty());
    assert_state(&scanned, &truth, pages, "full scan");
    drop(scanned);
    device.take_counts();

    let (replayed, report) =
        recover_from_checkpoint_with_report(config.clone(), Box::new(device.clone()), &journal)
            .unwrap();
    let tail_bytes = assert_reads(&replayed, &device, &config, "checkpoint tail");
    assert!(
        report.replayed_segments > 0,
        "the checkpoint must have a tail"
    );
    assert!(
        report.replayed_segments < report.sealed_segments,
        "{report:?}"
    );
    assert!(tail_bytes < scan_bytes, "{tail_bytes} vs {scan_bytes}");
    assert_state(&replayed, &truth, pages, "checkpoint tail");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_store_that_never_recovered_read_nothing() {
    let store = LogStore::open_in_memory(config()).unwrap();
    store.put(1, &[7u8; 4096]).unwrap();
    store.flush().unwrap();
    assert_eq!(store.stats().recovery_bytes_read, 0);
}
