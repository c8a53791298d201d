//! Cleaner scaling benchmark: reclaim throughput and foreground interference at
//! 1/2/4 concurrent cleaning cycles (`cleaner_threads`).
//!
//! Two phases per thread count:
//!
//! * **reclaim** — the store is preloaded and overwritten into a live/dead
//!   checkerboard, then `cleaner_threads` threads drain all reclaimable segments with
//!   back-to-back cycles: segments reclaimed per second is the cleaner's scaling
//!   metric (cycles run on disjoint victim sets, each reading its victims in turn on
//!   its own thread).
//! * **interference** — 8 writer threads run a hot overwrite workload and pace their
//!   own cleaning inline, with up to `cleaner_threads` cycles overlapping: foreground
//!   puts/s must hold up (compare BENCH_concurrency.json's put scaling) while those
//!   cycles keep up with the garbage.
//!
//! Then the **skew** phases replay Zipfian-0.99 and hot-cold 90:10 overwrite
//! workloads (cleaned inline by the writers, as above) with the GC output split into temperature classes
//! (`gc_temperature_classes` 1 vs 2 vs 4), reporting write amplification and the
//! per-class relocation/misprediction counters. An autotune recommendation
//! (`--autotune-config <path>` or `LSS_AUTOTUNE_CONFIG`) adds one more row with the
//! recommended knobs. Workload seeds honour `LSS_STRESS_SEED`.
//!
//! A final **recovery** phase times reopening the churned store two ways — through an
//! incremental checkpoint journal (bounded log-tail replay, `recovery_ms`) and with
//! the raw full-device scan (`full_scan_ms`) — so the CI gate catches a bounded
//! replay quietly degrading back into a full scan.
//!
//! Emits `BENCH_cleaner.json`. Run with:
//! `cargo run --release -p lss-bench --bin cleaner [--quick|--full]`

use lss_bench::{load_autotune_recommendation, stress_seed_or, GcTuning, Scale};
use lss_core::device::{DeviceGeometry, MemDevice, SegmentDevice};
use lss_core::policy::PolicyKind;
use lss_core::util::mix64;
use lss_core::{LogStore, Result, SegmentId, StoreConfig};
use lss_workload::{HotColdWorkload, PageWorkload, ZipfianWorkload};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured point: cleaner behaviour at a given `cleaner_threads`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CleanerPoint {
    cleaner_threads: usize,
    /// Segments reclaimed per second while draining a fully checkerboarded store.
    reclaim_segments_per_sec: f64,
    /// Segments the reclaim phase cleaned (work-capped at 4 × num_segments).
    reclaim_segments_cleaned: u64,
    /// Pages the reclaim phase relocated.
    reclaim_pages_moved: u64,
    /// Foreground puts/s with 8 writer threads cleaning inline.
    foreground_puts_per_sec: f64,
    /// Write amplification observed during the interference phase.
    interference_write_amplification: f64,
    /// Cleaning cycles the writers ran during the interference phase.
    interference_cleaning_cycles: u64,
}

/// One skewed-workload measurement at a given temperature-class configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SkewPoint {
    /// `zipfian-0.99` or `hotcold-90:10`.
    workload: String,
    /// `mdc-c1-t0.00`-style label of the knobs in effect.
    config: String,
    gc_temperature_classes: usize,
    cold_victim_min_emptiness: f64,
    foreground_puts_per_sec: f64,
    write_amplification: f64,
    cleaning_cycles: u64,
    /// GC relocations per temperature class (class 0 = coldest).
    gc_class_pages_written: Vec<u64>,
    gc_class_bytes_written: Vec<u64>,
    /// Survivors reclassified hotter/colder than the segment they were read from —
    /// the misprediction signal.
    gc_class_promotions: u64,
    gc_class_demotions: u64,
    /// Sealed segments per temperature class at the end of the run.
    gc_class_segments: Vec<u64>,
}

/// Recovery-latency measurement on the churned store image (one row, appended so the
/// CI gate's `_ms` rule catches bounded-tail replay degrading into a full scan).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecoveryPoint {
    /// Reopen through the incremental checkpoint journal (bounded log-tail replay).
    recovery_ms: f64,
    /// Reopen with the raw full-device scan of the same image.
    full_scan_ms: f64,
    /// Post-frontier segments the journal reopen actually decoded and replayed.
    segments_replayed: u64,
    /// All sealed segments the journal reopen installed (records + tail).
    segments_sealed: u64,
    /// Live pages in the recovered store (sanity anchor for the baseline).
    live_pages: u64,
}

/// The full benchmark record written to `BENCH_cleaner.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CleanerReport {
    benchmark: String,
    policy: String,
    page_bytes: usize,
    segment_bytes: usize,
    num_segments: usize,
    write_streams: usize,
    foreground_threads: usize,
    ops_per_thread: u64,
    results: Vec<CleanerPoint>,
    /// Skewed-workload W_amp at 1/2/4 temperature classes (plus autotuned, if given).
    skew: Vec<SkewPoint>,
    /// Reopen latency: checkpoint-journal replay vs raw full-device scan.
    recovery: RecoveryPoint,
}

const FOREGROUND_THREADS: usize = 8;

fn store_config(scale: Scale, cleaner_threads: usize) -> StoreConfig {
    let mut c = StoreConfig::paper_default().with_policy(PolicyKind::Mdc);
    c.segment_bytes = 256 * 1024;
    c.num_segments = match scale {
        Scale::Quick => 128,
        Scale::Default => 512,
        Scale::Full => 1024,
    };
    c.sort_buffer_segments = 4;
    c.cleaner_threads = cleaner_threads;
    c.write_streams = std::env::var("LSS_WRITE_STREAMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    c
}

fn ops_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 20_000,
        Scale::Default => 200_000,
        Scale::Full => 1_000_000,
    }
}

/// Preload to a 0.5 fill and overwrite a scrambled full pass so every sealed segment
/// decays into a live/dead checkerboard (the cleaner must relocate, not just free).
fn checkerboard(store: &LogStore, config: &StoreConfig, payload: &[u8]) -> u64 {
    let pages = config.logical_pages_for_fill_factor(0.5) as u64;
    for p in 0..pages {
        store.put(p, payload).unwrap();
    }
    for i in 0..pages {
        store.put(mix64(i) % pages, payload).unwrap();
    }
    store.flush().unwrap();
    seal_preload(store);
    pages
}

/// A flush persists open segments without sealing them; a checkpoint seals. Every
/// phase below starts from a device of sealed segments only (open segments are not
/// victims), whatever the preload left half-filled — the start state
/// BENCH_cleaner.json was recorded from.
fn seal_preload(store: &LogStore) {
    store.checkpoint_json().unwrap();
}

/// Phase 1: how fast `threads` concurrent cycles chew through reclaimable segments.
/// The metric is cleaning-machinery throughput (victims processed per second):
/// concurrent cycles may re-clean each other's partially filled outputs, so the phase
/// is bounded by a fixed work cap to keep runs comparable.
fn measure_reclaim(threads: usize, scale: Scale) -> (f64, u64, u64) {
    let config = store_config(scale, threads);
    let payload = vec![0xA5u8; config.page_bytes];
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    checkerboard(&store, &config, &payload);
    store.reset_stats();

    let work_cap = 4 * config.num_segments as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let store = &store;
            scope.spawn(move || {
                // Drain until the work cap, or until cycles run dry (claims make
                // empty results possible while peers still hold victims, so require
                // two consecutive empty cycles before giving up).
                let mut dry = 0;
                while dry < 2 && store.stats().segments_cleaned < work_cap {
                    match store.clean_now() {
                        Ok(report) if report.segments_freed() == 0 => dry += 1,
                        Ok(_) => dry = 0,
                        Err(_) => break,
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = store.stats();
    (
        stats.segments_cleaned as f64 / elapsed,
        stats.segments_cleaned,
        stats.gc_pages_written,
    )
}

/// Phase 2: foreground put throughput while the writers clean inline, up to `threads`
/// cycles at a time.
fn measure_interference(threads: usize, scale: Scale) -> (f64, f64, u64) {
    let config = store_config(scale, threads);
    let payload = vec![0xA5u8; config.page_bytes];
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let pages = checkerboard(&store, &config, &payload);
    store.reset_stats();

    let ops = ops_per_thread(scale);
    let start = Instant::now();
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..FOREGROUND_THREADS {
            let store = &store;
            let payload = &payload;
            let total = Arc::clone(&total);
            scope.spawn(move || {
                for i in 0..ops {
                    let page = mix64(t as u64 * ops + i) % pages;
                    store.put(page, payload).unwrap();
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let puts_per_sec = total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    let stats = store.stats();
    (
        puts_per_sec,
        stats.write_amplification(),
        stats.cleaning_cycles,
    )
}

/// Build the per-thread skewed workload: same hot set across threads (both families
/// key hotness off the page id alone), thread-distinct RNG streams.
fn skew_workload(kind: &str, pages: u64, seed: u64) -> Box<dyn PageWorkload + Send> {
    match kind {
        "zipfian-0.99" => Box::new(ZipfianWorkload::new(pages, 0.99, seed)),
        "hotcold-90:10" => Box::new(HotColdWorkload::from_skew_percent(pages, 90, seed)),
        other => panic!("unknown skew workload {other}"),
    }
}

/// Fill factor for the skew phase. 0.75 sits in the band where cleaning pressure is
/// high enough for placement to matter but victim selection still has real choices —
/// the temperature-class separation shows its stable ~25% hot-cold W_amp win here,
/// with run-to-run noise well below the effect size.
const SKEW_FILL: f64 = 0.75;

/// The skew phase runs twice the scaling-phase op count: W_amp needs the store to
/// reach cleaning steady state before the ratio stabilises.
fn skew_ops_per_thread(scale: Scale) -> u64 {
    2 * ops_per_thread(scale)
}

/// Skew phase: preload to a `SKEW_FILL` fill, then 8 writer threads replay a skewed
/// overwrite workload against a store whose GC output is split into
/// `tuning.gc_temperature_classes` streams. W_amp is the headline number; the
/// per-class counters show where survivors went and how often they were
/// reclassified.
fn measure_skew(kind: &str, tuning: &GcTuning, scale: Scale, seed: u64) -> SkewPoint {
    let mut config = store_config(scale, 1)
        .with_policy(tuning.policy)
        .with_gc_temperature_classes(tuning.gc_temperature_classes);
    config.cleaning.cold_victim_min_emptiness = tuning.cold_victim_min_emptiness;
    let payload = vec![0xA5u8; config.page_bytes];
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let pages = config.logical_pages_for_fill_factor(SKEW_FILL) as u64;
    for p in 0..pages {
        store.put(p, &payload).unwrap();
    }
    store.flush().unwrap();
    seal_preload(&store);
    store.reset_stats();

    let ops = skew_ops_per_thread(scale);
    let start = Instant::now();
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..FOREGROUND_THREADS {
            let store = &store;
            let payload = &payload;
            let total = Arc::clone(&total);
            let mut workload = skew_workload(kind, pages, seed.wrapping_add(t as u64));
            scope.spawn(move || {
                for _ in 0..ops {
                    store.put(workload.next_page(), payload).unwrap();
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let puts_per_sec = total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    let stats = store.stats();
    SkewPoint {
        workload: kind.to_string(),
        config: tuning.label(),
        gc_temperature_classes: tuning.gc_temperature_classes,
        cold_victim_min_emptiness: tuning.cold_victim_min_emptiness,
        foreground_puts_per_sec: puts_per_sec,
        write_amplification: stats.write_amplification(),
        cleaning_cycles: stats.cleaning_cycles,
        gc_class_pages_written: stats.gc_class_pages_written,
        gc_class_bytes_written: stats.gc_class_bytes_written,
        gc_class_promotions: stats.gc_class_promotions,
        gc_class_demotions: stats.gc_class_demotions,
        gc_class_segments: stats.gc_class_segments,
    }
}

/// Cloneable handle over one `MemDevice`, so the same churned image can be
/// reopened twice (journal replay, then raw scan) after the store is dropped.
#[derive(Clone)]
struct SharedDevice(Arc<MemDevice>);

impl SegmentDevice for SharedDevice {
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
    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.0.erase_segment(seg)
    }
    fn sync(&self) -> Result<()> {
        self.0.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.0.segment_writes()
    }
}

/// Recovery phase: churn a store (checkerboard + delete stripe + a couple of
/// cleaning rounds), checkpoint it, append a small log tail, then time the two
/// reopen paths against the identical device image. No cleaning happens after the
/// checkpoint, so both reopens must land on the same live-page count — asserted,
/// since a silently inexact reopen would make the latency numbers meaningless.
fn measure_recovery(scale: Scale) -> RecoveryPoint {
    let config = store_config(scale, 2);
    let payload = vec![0xA5u8; config.page_bytes];
    let device = SharedDevice(Arc::new(MemDevice::new(
        config.segment_bytes,
        config.num_segments,
    )));
    let journal = std::env::temp_dir().join(format!(
        "lss-bench-cleaner-recovery-{}.ckpt",
        std::process::id()
    ));
    let store = LogStore::open_with_device(config.clone(), Box::new(device.clone())).unwrap();
    let pages = checkerboard(&store, &config, &payload);
    for p in (0..pages).step_by(7) {
        store.delete(p).unwrap();
    }
    store.flush().unwrap();
    for _ in 0..2 {
        store.clean_now().unwrap();
    }
    store.checkpoint_log_to(&journal).unwrap();
    // Post-checkpoint tail: the bounded replay the journal reopen has to do.
    for i in 0..pages / 20 {
        store.put(mix64(0xDEAD_0000 + i) % pages, &payload).unwrap();
    }
    store.flush().unwrap();
    let live = store.live_pages() as u64;
    drop(store);

    let start = Instant::now();
    let (recovered, report) = lss_core::recovery::recover_from_checkpoint_with_report(
        config.clone(),
        Box::new(device.clone()),
        &journal,
    )
    .unwrap();
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        recovered.live_pages() as u64,
        live,
        "journal reopen diverged from the pre-crash store"
    );
    drop(recovered);

    let start = Instant::now();
    let scanned = LogStore::recover_with_device(config, Box::new(device)).unwrap();
    let full_scan_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        scanned.live_pages() as u64,
        live,
        "raw scan diverged from the pre-crash store"
    );
    drop(scanned);
    let _ = std::fs::remove_file(&journal);

    RecoveryPoint {
        recovery_ms,
        full_scan_ms,
        segments_replayed: report.replayed_segments as u64,
        segments_sealed: report.sealed_segments as u64,
        live_pages: live,
    }
}

fn main() {
    let scale = Scale::from_args();
    let config = store_config(scale, 1);
    println!(
        "cleaner scaling: MDC, {} x {} KiB segments, {} write streams, {} ops/thread",
        config.num_segments,
        config.segment_bytes / 1024,
        config.write_streams,
        ops_per_thread(scale)
    );
    println!(
        "{:>8} {:>16} {:>10} {:>12} {:>14} {:>8} {:>10}",
        "cleaners", "reclaim seg/s", "segments", "pages", "fg puts/s", "Wamp", "cycles"
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 4] {
        let (reclaim_rate, cleaned, moved) = measure_reclaim(threads, scale);
        let (puts, wamp, cycles) = measure_interference(threads, scale);
        println!(
            "{:>8} {:>16.1} {:>10} {:>12} {:>14.0} {:>8.3} {:>10}",
            threads, reclaim_rate, cleaned, moved, puts, wamp, cycles
        );
        results.push(CleanerPoint {
            cleaner_threads: threads,
            reclaim_segments_per_sec: reclaim_rate,
            reclaim_segments_cleaned: cleaned,
            reclaim_pages_moved: moved,
            foreground_puts_per_sec: puts,
            interference_write_amplification: wamp,
            interference_cleaning_cycles: cycles,
        });
    }

    let seed = stress_seed_or(0x5EED_C0DE);
    println!("\nskew phases (8 writers, fill {SKEW_FILL}, seed {seed:#x}):");
    println!(
        "{:>14} {:>16} {:>14} {:>8} {:>8} {:>10} {:>8} {:>8}",
        "workload", "config", "fg puts/s", "Wamp", "cycles", "class mix", "promo", "demo"
    );
    let mut tunings: Vec<GcTuning> = [1usize, 2, 4]
        .iter()
        .map(|&classes| GcTuning {
            policy: PolicyKind::Mdc,
            gc_temperature_classes: classes,
            cold_victim_min_emptiness: if classes == 2 {
                // The autotune sweep's winner for two classes; c4 keeps the stricter
                // bar to show the classification-noise regime (see BENCHMARKS.md).
                0.5
            } else if classes > 1 {
                0.75
            } else {
                0.0
            },
        })
        .collect();
    if let Some(rec) = load_autotune_recommendation() {
        println!("(adding autotuned row: {})", rec.label());
        tunings.push(rec);
    }
    let mut skew = Vec::new();
    for kind in ["zipfian-0.99", "hotcold-90:10"] {
        for tuning in &tunings {
            let p = measure_skew(kind, tuning, scale, seed);
            let mix: Vec<String> = p
                .gc_class_pages_written
                .iter()
                .map(|n| n.to_string())
                .collect();
            println!(
                "{:>14} {:>16} {:>14.0} {:>8.3} {:>8} {:>10} {:>8} {:>8}",
                p.workload,
                p.config,
                p.foreground_puts_per_sec,
                p.write_amplification,
                p.cleaning_cycles,
                mix.join("/"),
                p.gc_class_promotions,
                p.gc_class_demotions
            );
            skew.push(p);
        }
    }

    println!("\nrecovery phase (journal replay vs raw full scan):");
    let recovery = measure_recovery(scale);
    println!(
        "  journal reopen {:.2} ms ({} of {} sealed segments replayed, {} live pages); raw scan {:.2} ms",
        recovery.recovery_ms,
        recovery.segments_replayed,
        recovery.segments_sealed,
        recovery.live_pages,
        recovery.full_scan_ms
    );

    let report = CleanerReport {
        benchmark: "cleaner_scaling".to_string(),
        policy: "MDC".to_string(),
        page_bytes: config.page_bytes,
        segment_bytes: config.segment_bytes,
        num_segments: config.num_segments,
        write_streams: config.write_streams,
        foreground_threads: FOREGROUND_THREADS,
        ops_per_thread: ops_per_thread(scale),
        results,
        skew,
        recovery,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_cleaner.json", &json).unwrap();
    println!("#json {}", serde_json::to_string(&report).unwrap());
    println!("wrote BENCH_cleaner.json");
}
