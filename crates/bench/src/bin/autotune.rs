//! Trace-driven GC policy auto-tuning: replay three workload families — Zipfian-0.99,
//! hot-cold 90:10, and a TPC-C page-write trace — against the real store across a grid
//! of `policy × gc_temperature_classes × cold_victim_min_emptiness`, score each
//! configuration by write amplification, and emit the winner as a ready-to-load
//! `StoreConfig`.
//!
//! The store (not the simulator) is the tuning target on purpose: with the paper's
//! global sort-buffer separation the simulator shows temperature classes as largely
//! redundant, but 8 interleaved writer threads defeat global sorting and that is where
//! classed GC output pays off. Tuning must see the same machine the benchmarks run on.
//! The writers clean inline, pacing their own cycles with up to `cleaner_threads` of
//! them overlapping, as every store does.
//!
//! Emits `BENCH_autotune.json`; the `recommended` object is what
//! `cleaner --autotune-config BENCH_autotune.json` (or `LSS_AUTOTUNE_CONFIG`) replays.
//! Workload seeds honour `LSS_STRESS_SEED`. Run with:
//! `cargo run --release -p lss-bench --bin autotune [--quick|--full]`

use lss_bench::{stress_seed_or, GcTuning, Scale};
use lss_core::policy::PolicyKind;
use lss_core::{LogStore, StoreConfig};
use lss_tpcc::{TpccConfig, TpccDriver};
use lss_workload::{HotColdWorkload, PageWorkload, TraceWorkload, WriteTrace, ZipfianWorkload};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const FOREGROUND_THREADS: usize = 8;
const FILL_FACTOR: f64 = 0.7;

/// One measured grid point within a family.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TunePoint {
    config: GcTuning,
    label: String,
    write_amplification: f64,
    puts_per_sec: f64,
    cleaning_cycles: u64,
    gc_class_pages_written: Vec<u64>,
    gc_class_promotions: u64,
    gc_class_demotions: u64,
}

/// All grid points for one workload family, best first label called out.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FamilyReport {
    family: String,
    results: Vec<TunePoint>,
    best: String,
}

/// The full `BENCH_autotune.json` record. `recommended` is the cross-family winner;
/// `recommended_store_config` is the same knobs folded into a complete store
/// configuration, ready to deserialize and open a store with.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AutotuneReport {
    benchmark: String,
    foreground_threads: usize,
    ops_per_thread: u64,
    seed: u64,
    families: Vec<FamilyReport>,
    recommended: GcTuning,
    recommended_store_config: StoreConfig,
}

fn store_config(scale: Scale, tuning: &GcTuning) -> StoreConfig {
    let mut c = StoreConfig::paper_default()
        .with_policy(tuning.policy)
        .with_gc_temperature_classes(tuning.gc_temperature_classes);
    c.cleaning.cold_victim_min_emptiness = tuning.cold_victim_min_emptiness;
    c.segment_bytes = 256 * 1024;
    c.num_segments = match scale {
        Scale::Quick => 128,
        Scale::Default => 256,
        Scale::Full => 512,
    };
    c.sort_buffer_segments = 4;
    c
}

fn ops_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 15_000,
        Scale::Default => 60_000,
        Scale::Full => 250_000,
    }
}

/// Per-thread workload for a family. Synthetic families share their hot set across
/// threads (hotness keys off the page id) with thread-distinct RNG streams; the TPC-C
/// family replays clones of the same trace, desynchronised by thread scheduling.
fn family_workload(
    family: &str,
    tpcc: &WriteTrace,
    pages: u64,
    seed: u64,
) -> Box<dyn PageWorkload + Send> {
    match family {
        "zipfian-0.99" => Box::new(ZipfianWorkload::new(pages, 0.99, seed)),
        "hotcold-90:10" => Box::new(HotColdWorkload::from_skew_percent(pages, 90, seed)),
        "tpcc" => Box::new(TraceWorkload::new("tpcc", tpcc)),
        other => panic!("unknown family {other}"),
    }
}

/// Collect a TPC-C page-write trace sized for the scale (paper §6.3 collects the I/O
/// trace of a B+-tree engine and replays it through the store).
fn collect_tpcc_trace(scale: Scale, seed: u64) -> WriteTrace {
    // Even `--quick` uses the scaled database: the tiny test schema's working set fits
    // inside the store's sort buffer, absorbs every overwrite and never triggers
    // cleaning — there would be nothing to tune against.
    let (mut config, transactions) = match scale {
        Scale::Quick => (TpccConfig::scaled_experiment(1), 4_000),
        Scale::Default => (TpccConfig::scaled_experiment(1), 12_000),
        Scale::Full => (TpccConfig::scaled_experiment(2), 25_000),
    };
    config.seed = seed;
    let mut driver = TpccDriver::new(config).expect("tpcc load");
    driver.run(transactions).expect("tpcc run");
    let (trace, _) = driver.finish().expect("tpcc finish");
    trace
}

/// Replay one family against one configuration and measure W_amp. The store is
/// preloaded to the fill target; trace families that address fewer pages than that get
/// cold filler pages behind them, the way a real store carries data the trace never
/// touches.
fn measure(
    family: &str,
    tpcc: &WriteTrace,
    tuning: &GcTuning,
    scale: Scale,
    seed: u64,
) -> TunePoint {
    let config = store_config(scale, tuning);
    let payload = vec![0xA5u8; config.page_bytes];
    let store = LogStore::open_in_memory(config.clone()).unwrap();
    let fill_pages = config.logical_pages_for_fill_factor(FILL_FACTOR) as u64;
    let workload_pages = if family == "tpcc" {
        let distinct = tpcc.distinct_pages() as u64;
        assert!(
            distinct <= fill_pages,
            "tpcc trace addresses {distinct} pages but the store only fits {fill_pages} \
             at fill {FILL_FACTOR}; raise num_segments for this scale"
        );
        distinct
    } else {
        fill_pages
    };
    for p in 0..fill_pages {
        store.put(p, &payload).unwrap();
    }
    store.flush().unwrap();
    store.reset_stats();

    let ops = ops_per_thread(scale);
    let start = Instant::now();
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..FOREGROUND_THREADS {
            let store = &store;
            let payload = &payload;
            let total = Arc::clone(&total);
            let mut workload =
                family_workload(family, tpcc, workload_pages, seed.wrapping_add(t as u64));
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
    TunePoint {
        config: tuning.clone(),
        label: tuning.label(),
        write_amplification: stats.write_amplification(),
        puts_per_sec,
        cleaning_cycles: stats.cleaning_cycles,
        gc_class_pages_written: stats.gc_class_pages_written,
        gc_class_promotions: stats.gc_class_promotions,
        gc_class_demotions: stats.gc_class_demotions,
    }
}

/// The tuning grid: policy × temperature classes × cold-victim ripening bar. Classes=1
/// runs once per policy (the bar is inert there).
fn grid() -> Vec<GcTuning> {
    let mut tunings = Vec::new();
    for policy in [PolicyKind::Mdc, PolicyKind::Greedy] {
        tunings.push(GcTuning::baseline(policy));
        for classes in [2usize, 4] {
            for thr in [0.0, 0.5, 0.75] {
                tunings.push(GcTuning {
                    policy,
                    gc_temperature_classes: classes,
                    cold_victim_min_emptiness: thr,
                });
            }
        }
    }
    tunings
}

fn main() {
    let scale = Scale::from_args();
    let seed = stress_seed_or(0xA070_7E5E);
    let tunings = grid();
    println!(
        "autotune: {} configurations x 3 families, {} writers x {} ops, seed {seed:#x}",
        tunings.len(),
        FOREGROUND_THREADS,
        ops_per_thread(scale)
    );
    let tpcc = collect_tpcc_trace(scale, seed);
    println!(
        "tpcc trace: {} writes over {} distinct pages",
        tpcc.len(),
        tpcc.distinct_pages()
    );

    let mut families = Vec::new();
    // Geometric-mean W_amp across families per configuration, so no single family's
    // absolute scale dominates the pick.
    let mut log_wamp_sum = vec![0.0f64; tunings.len()];
    for family in ["zipfian-0.99", "hotcold-90:10", "tpcc"] {
        println!("\n== {family} ==");
        println!(
            "{:>18} {:>8} {:>14} {:>8} {:>10} {:>8}",
            "config", "Wamp", "puts/s", "cycles", "promo", "demo"
        );
        let mut results = Vec::new();
        for (i, tuning) in tunings.iter().enumerate() {
            let p = measure(family, &tpcc, tuning, scale, seed);
            println!(
                "{:>18} {:>8.3} {:>14.0} {:>8} {:>10} {:>8}",
                p.label,
                p.write_amplification,
                p.puts_per_sec,
                p.cleaning_cycles,
                p.gc_class_promotions,
                p.gc_class_demotions
            );
            // Guard against a degenerate zero (no cleaning at all) poisoning the log.
            log_wamp_sum[i] += p.write_amplification.max(1e-6).ln();
            results.push(p);
        }
        let best = results
            .iter()
            .min_by(|a, b| a.write_amplification.total_cmp(&b.write_amplification))
            .map(|p| p.label.clone())
            .unwrap();
        println!("best for {family}: {best}");
        families.push(FamilyReport {
            family: family.to_string(),
            results,
            best,
        });
    }

    let winner = log_wamp_sum
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    let recommended = tunings[winner].clone();
    let recommended_store_config = store_config(scale, &recommended);
    println!(
        "\nrecommended across all families: {} (geo-mean Wamp {:.3})",
        recommended.label(),
        (log_wamp_sum[winner] / families.len() as f64).exp()
    );

    let report = AutotuneReport {
        benchmark: "autotune".to_string(),
        foreground_threads: FOREGROUND_THREADS,
        ops_per_thread: ops_per_thread(scale),
        seed,
        families,
        recommended,
        recommended_store_config,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_autotune.json", &json).unwrap();
    println!("#json {}", serde_json::to_string(&report).unwrap());
    println!("wrote BENCH_autotune.json");
}
