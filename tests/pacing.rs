//! Store-level regression tests for the cleaning pacing (docs/ARCHITECTURE.md,
//! "Pacing"): one writer, a seeded workload and a `MemDevice`, so every count repeats.
//! The write-behind worker appends each full batch and runs the paced check after it,
//! so a count or a free-pool sample read right after a put may catch a job half done.
//! Where a test needs exact counts it flushes first (a flush runs or waits out every job
//! handed off before it); elsewhere it asserts only what holds while a job runs.
//!
//! The two shapes are the benchmark's: a device at fill 0.80 under skewed overwrites,
//! whose victims still hold most of their pages — the writer must spend its slack down
//! to the must-clean floor before it moves them — and a device whose live data is a
//! sliver of its capacity, whose victims are nearly empty — the writer must keep
//! cleaning at the upper mark in full batches, as it did before there was a floor.

use lss::core::{LogStore, StoreConfig, StoreStats};
use lss::workload::{PageWorkload, ZipfianWorkload};

/// The shipped cleaning marks and batch (trigger 32, batch 32, reserve 4), four
/// streams, MDC — on 256 small segments of 63 half-KiB pages.
fn shipped_marks_config() -> StoreConfig {
    let mut config = StoreConfig::paper_default().with_num_segments(256);
    config.segment_bytes = 32 * 1024;
    config.page_bytes = 512;
    config
}

/// `reserved_free_segments + write_streams`: what the store computes as its floor while
/// no more than six segments are open.
fn floor_of(config: &StoreConfig) -> usize {
    config.cleaning.reserved_free_segments + config.write_streams
}

fn payload(page: u64, version: u32, len: usize) -> Vec<u8> {
    let mut v = vec![(page as u8) ^ (version as u8); len];
    v[..8].copy_from_slice(&page.to_le_bytes());
    v[8..12].copy_from_slice(&version.to_le_bytes());
    v
}

fn assert_reads_back(store: &LogStore, versions: &[u32], len: usize) {
    for (page, &version) in versions.iter().enumerate() {
        let got = store
            .get(page as u64)
            .unwrap()
            .unwrap_or_else(|| panic!("page {page} lost"));
        assert_eq!(
            got.as_ref(),
            &payload(page as u64, version, len)[..],
            "page {page}"
        );
    }
}

/// Overwrite `puts` pages drawn from `next_page`, sampling the free pool after every
/// put. Returns `(min, mean, max)` of the samples.
fn churn(
    store: &LogStore,
    versions: &mut [u32],
    puts: u64,
    mut next_page: impl FnMut() -> u64,
) -> (usize, f64, usize) {
    let len = store.config().page_bytes;
    let (mut min, mut sum, mut max) = (usize::MAX, 0u64, 0usize);
    for _ in 0..puts {
        let page = next_page();
        versions[page as usize] += 1;
        store
            .put(page, &payload(page, versions[page as usize], len))
            .unwrap_or_else(|e| panic!("put of page {page}: {e}"));
        let free = store.free_segments();
        min = min.min(free);
        max = max.max(free);
        sum += free as u64;
    }
    (min, sum as f64 / puts as f64, max)
}

/// Fill 0.80, zipf-0.99: no batch the policy offers is ever nearly free, so the writer
/// cleans only at the floor, in small cycles — the free pool rests at the floor instead
/// of above the upper mark, and the slack it no longer hoards shows up as emptier
/// victims. (With one watermark at 32 the same run reads: free pool 17..=41, mean 36.6,
/// victims 0.2855 empty, 43 238 pages moved; now 4..=11, mean 9.5, 0.4103, 25 612.)
///
/// The samples are taken while the worker runs jobs, so one may land in the middle of a
/// cycle whose GC output has dipped into the reserve (GC allocations may; the reserve
/// is what they are for): the pool's low end is not asserted, and its high end only
/// against the upper mark.
#[test]
fn at_fill_080_the_writer_cleans_at_the_floor_and_victims_come_out_emptier() {
    let config = shipped_marks_config();
    let floor = floor_of(&config);
    let pages = config.logical_pages_for_fill_factor(0.80) as u64;
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let mut versions = vec![0u32; pages as usize];
    let mut sequential = 0..pages;
    churn(&store, &mut versions, pages, || sequential.next().unwrap());

    let mut zipf = ZipfianWorkload::scrambled(pages, 0.99, 1);
    let device_pages = config.physical_pages() as u64;
    // Warm up until the sequential preload is churned through, then measure. (The
    // counts read are ratios and lower bounds: a job half done at either end of the
    // window moves them by a cycle at most.)
    churn(&store, &mut versions, 6 * device_pages, || zipf.next_page());
    store.reset_stats();
    let (_, mean, max) = churn(&store, &mut versions, 4 * device_pages, || zipf.next_page());
    let stats = store.stats();
    store.flush().unwrap();

    // Nothing cleans above the upper mark, and the pool rests near the floor. (Between
    // a small cycle's reap and the next drain the pool holds at most `2 × floor`, and
    // sampled between puts it averaged ~9.5; samples taken while a job runs also land
    // between a drain's escalation cycle and the retry that takes its segments back.)
    let upper = config.cleaning.trigger_free_segments;
    assert!(
        max <= upper,
        "the free pool reached {max}, above the upper mark ({upper})"
    );
    assert!(mean <= (floor + 4) as f64, "free pool mean {mean:.2}");
    assert!(stats.segments_cleaned > 0, "the window never cleaned");
    assert!(
        stats.mean_emptiness_at_clean() >= 0.38,
        "victims were {:.4} empty on average",
        stats.mean_emptiness_at_clean()
    );
    assert_reads_back(&store, &versions, config.page_bytes);
}

/// Live data ≪ device (the `kv-mixed` shape): every batch on offer is nearly free, so
/// the writer cleans at the upper mark, in full batches, and never comes near the floor
/// — the schedule the single watermark gave it, count for count (free pool 29..=68,
/// mean 49.2, 12 cycles of 32 victims 0.9946 empty, before and after).
#[test]
fn a_mostly_garbage_store_still_cleans_at_the_upper_mark_in_full_batches() {
    let mut config = shipped_marks_config();
    // Live data must outgrow the sort buffers, or they absorb every overwrite.
    config.sort_buffer_segments = 4;
    let upper = config.cleaning.trigger_free_segments;
    let full_batch = config.cleaning.segments_per_cycle;
    let pages = config.logical_pages_for_fill_factor(0.15) as u64;
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let mut versions = vec![0u32; pages as usize];
    let mut zipf = ZipfianWorkload::scrambled(pages, 0.99, 7);
    let device_pages = config.physical_pages() as u64;
    // Exact counts: the window starts and ends with no job half done.
    churn(&store, &mut versions, 3 * device_pages, || zipf.next_page());
    store.flush().unwrap();
    store.reset_stats();
    let (min, mean, max) = churn(&store, &mut versions, 6 * device_pages, || zipf.next_page());
    store.flush().unwrap();
    let stats = store.stats();

    assert!(stats.cleaning_cycles > 0, "the window never cleaned");
    assert_eq!(
        stats.segments_cleaned,
        stats.cleaning_cycles * full_batch as u64,
        "every cycle takes the full batch"
    );
    assert!(
        stats.mean_emptiness_at_clean() >= 0.9,
        "victims were {:.4} empty on average",
        stats.mean_emptiness_at_clean()
    );
    // Cycles start at the upper mark, so that is where the pool turns round.
    assert!(mean >= upper as f64, "free pool mean {mean:.2}");
    assert!(max > upper && min > 2 * floor_of(&config), "{min}..={max}");
    assert_reads_back(&store, &versions, config.page_bytes);
}

/// The counts [`exact_counts`] compares: every one a single writer makes repeat.
/// `write_behind_waits` is left out: whether a put finds its stream's previous batch
/// still being appended depends on the two threads' speeds.
fn counts(stats: &StoreStats) -> [u64; 10] {
    [
        stats.user_pages_written,
        stats.gc_pages_written,
        stats.segments_sealed,
        stats.segments_cleaned,
        stats.cleaning_cycles,
        stats.emptiness_sum_at_clean.to_bits(),
        stats.device_bytes_written,
        stats.persist_points,
        stats.absorbed_in_buffer,
        stats.straggler_reclaims,
    ]
}

/// A sequential preload to fill 0.80, a flush, eight device-fulls of zipf-0.99
/// overwrites from `seed`, and a flush; returns [`counts`] and the jobs handed off.
fn exact_counts(seed: u64) -> ([u64; 10], u64) {
    let config = shipped_marks_config();
    let pages = config.logical_pages_for_fill_factor(0.80) as u64;
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let mut versions = vec![0u32; pages as usize];
    let mut sequential = 0..pages;
    churn(&store, &mut versions, pages, || sequential.next().unwrap());
    store.flush().unwrap();
    let mut zipf = ZipfianWorkload::scrambled(pages, 0.99, seed);
    churn(
        &store,
        &mut versions,
        8 * config.physical_pages() as u64,
        || zipf.next_page(),
    );
    store.flush().unwrap();
    assert_reads_back(&store, &versions, config.page_bytes);
    let stats = store.stats();
    (counts(&stats), stats.write_behind_jobs)
}

/// One writer's counts are exact: the write-behind worker appends every batch, and runs
/// the cleaning it needs, in hand-off order and at the batch's tick, so two runs of a
/// seed count the same — and the same as when every drain and every cycle ran inline on
/// the writer. The constants were recorded by this body on the store before write-behind
/// (its last commit with inline cleaning), where every count but the jobs existed, and
/// re-recorded once since, when one cleaning cycle at a time replaced two cycle slots:
/// the distress (greedy) cycles' batch moved from 64 to the 32 every other cycle
/// already took. That moved seed 1 from 68 cycles, 50 671 GC pages and 1 608 seals to
/// 69, 50 532 and 1 606, and seed 7 from 52 461 GC pages, 1 644 seals and 1 408 victims
/// to 51 159, 1 623 and 1 376; user pages, persist points and absorbed writes did not
/// move. With the distress batch left at 64 every count was bit-identical.
#[test]
fn a_single_writer_churn_counts_exactly_what_inline_cleaning_counted() {
    // user pages, gc pages, sealed, cleaned, cycles, emptiness sum (bits), device
    // bytes, persist points, absorbed, straggler reclaims.
    let inline: [(u64, [u64; 10]); 2] = [
        (
            1,
            [
                137_420,
                50_532,
                1_606,
                1_368,
                69,
                539.606_557_377_049_6_f64.to_bits(),
                52_705_792,
                8,
                91_892,
                0,
            ],
        ),
        (
            7,
            [
                137_420,
                51_159,
                1_623,
                1_376,
                73,
                537.327_868_852_458_4_f64.to_bits(),
                53_263_360,
                8,
                91_829,
                0,
            ],
        ),
    ];
    for (seed, expected) in inline {
        let (first, jobs) = exact_counts(seed);
        assert_eq!(
            exact_counts(seed),
            (first, jobs),
            "seed {seed}: two runs counted differently"
        );
        assert_eq!(
            first, expected,
            "seed {seed}: not the inline store's counts"
        );
        assert!(jobs > 0, "seed {seed}: nothing was handed off");
    }
}
