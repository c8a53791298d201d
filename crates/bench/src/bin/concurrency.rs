//! Concurrency scaling benchmark: put/get throughput of one `Arc<LogStore>` vs thread
//! count (1/2/4/8). The writers only buffer: the store's write-behind thread drains
//! their batches and paces the cleaning, one cycle at a time.
//!
//! Emits `BENCH_concurrency.json` so later PRs can track how read/write scaling evolves
//! (the concurrent read/write/clean pipeline of PR 1 is the baseline).
//!
//! Run with: `cargo run --release -p lss-bench --bin concurrency [--quick|--full]`

use lss_bench::Scale;
use lss_core::policy::PolicyKind;
use lss_core::util::mix64;
use lss_core::{LogStore, StoreConfig};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured point: throughput at a given thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingPoint {
    threads: usize,
    puts_per_sec: f64,
    gets_per_sec: f64,
    mixed_ops_per_sec: f64,
    write_amplification: f64,
    cleaning_cycles: u64,
}

/// The full benchmark record written to `BENCH_concurrency.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingReport {
    benchmark: String,
    policy: String,
    page_bytes: usize,
    segment_bytes: usize,
    num_segments: usize,
    write_streams: usize,
    ops_per_thread: u64,
    results: Vec<ScalingPoint>,
}

fn store_config(scale: Scale) -> StoreConfig {
    let mut c = StoreConfig::paper_default().with_policy(PolicyKind::Mdc);
    c.segment_bytes = 256 * 1024;
    c.num_segments = match scale {
        Scale::Quick => 128,
        Scale::Default => 512,
        Scale::Full => 1024,
    };
    c.sort_buffer_segments = 4;
    // One stream per measured writer thread at the top of the scaling curve: put
    // throughput is the whole point of this benchmark. Overridable for A/B runs
    // (LSS_WRITE_STREAMS=1 reproduces the pre-sharding single-mutex write path).
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

fn measure(threads: usize, scale: Scale) -> ScalingPoint {
    let config = store_config(scale);
    let pages = config.logical_pages_for_fill_factor(0.5) as u64;
    let ops = ops_per_thread(scale);
    let payload = vec![0xA5u8; config.page_bytes];
    let store = LogStore::open_in_memory(config.clone()).unwrap();

    // Preload to the target fill so cleaning participates in the measurement.
    for p in 0..pages {
        store.put(p, &payload).unwrap();
    }
    store.flush().unwrap();
    // A flush persists open segments without sealing them; a checkpoint seals. The
    // window starts from a device of sealed segments only, whatever the preload left
    // half-filled — the start state BENCH_concurrency.json was recorded from.
    store.checkpoint_json().unwrap();
    store.reset_stats();

    let run_phase = |phase: &str| -> f64 {
        let start = Instant::now();
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = &store;
                let payload = &payload;
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    let mut done = 0u64;
                    for i in 0..ops {
                        let page = mix64(t as u64 * ops + i) % pages;
                        match phase {
                            "put" => store.put(page, payload).unwrap(),
                            "get" => {
                                std::hint::black_box(store.get(page).unwrap());
                            }
                            _ => {
                                // Mixed: 1 put per 4 gets, the shape of a read-heavy
                                // page-store workload.
                                if i % 5 == 0 {
                                    store.put(page, payload).unwrap();
                                } else {
                                    std::hint::black_box(store.get(page).unwrap());
                                }
                            }
                        }
                        done += 1;
                    }
                    total.fetch_add(done, Ordering::Relaxed);
                });
            }
        });
        total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    };

    let puts_per_sec = run_phase("put");
    let gets_per_sec = run_phase("get");
    let mixed_ops_per_sec = run_phase("mixed");
    let stats = store.stats();
    ScalingPoint {
        threads,
        puts_per_sec,
        gets_per_sec,
        mixed_ops_per_sec,
        write_amplification: stats.write_amplification(),
        cleaning_cycles: stats.cleaning_cycles,
    }
}

fn main() {
    let scale = Scale::from_args();
    let config = store_config(scale);
    println!(
        "concurrency scaling: MDC, {} x {} KiB segments, {} write streams, {} ops/thread",
        config.num_segments,
        config.segment_bytes / 1024,
        config.write_streams,
        ops_per_thread(scale)
    );
    println!(
        "{:>7} {:>14} {:>14} {:>14} {:>8} {:>10}",
        "threads", "puts/s", "gets/s", "mixed/s", "Wamp", "cleanings"
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let point = measure(threads, scale);
        println!(
            "{:>7} {:>14.0} {:>14.0} {:>14.0} {:>8.3} {:>10}",
            point.threads,
            point.puts_per_sec,
            point.gets_per_sec,
            point.mixed_ops_per_sec,
            point.write_amplification,
            point.cleaning_cycles
        );
        results.push(point);
    }

    let report = ScalingReport {
        benchmark: "concurrency_scaling".to_string(),
        policy: "MDC".to_string(),
        page_bytes: config.page_bytes,
        segment_bytes: config.segment_bytes,
        num_segments: config.num_segments,
        write_streams: config.write_streams,
        ops_per_thread: ops_per_thread(scale),
        results,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_concurrency.json", &json).unwrap();
    println!("#json {}", serde_json::to_string(&report).unwrap());
    println!("wrote BENCH_concurrency.json");
}
