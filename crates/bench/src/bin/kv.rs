//! KV-layer benchmark: multi-threaded ops/s and **index write amplification** of the
//! paged B+-tree index at 1/2/4/8 threads.
//!
//! Each measured point preloads a key population, then runs a mixed workload
//! (50% get / 40% put / 10% delete+reinsert) from N threads on disjoint key ranges,
//! committing the index every `ops/8` operations per thread 0 — the checkpoint cadence
//! is what exposes the index's persistence cost: a commit writes only the dirty tree
//! pages (plus their root path).
//!
//! Environment:
//! * `LSS_WRITE_STREAMS` overrides the store's write-stream count (default 8);
//! * `LSS_KV_GROUP_COMMIT_US` sets the paged store's group-commit window in
//!   microseconds (default 0 = per-call commit).
//!
//! Emits `BENCH_kv.json`. Run with:
//! `cargo run --release -p lss-bench --bin kv [--quick|--full]`

use lss_bench::Scale;
use lss_btree::kv::{KvOptions, KvStore};
use lss_core::policy::PolicyKind;
use lss_core::util::mix64 as mix;
use lss_core::{LogStore, StoreConfig};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One measured point: a thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KvPoint {
    threads: usize,
    /// Mixed workload (50% get / 40% put / 10% delete+reinsert, with periodic
    /// commits) throughput.
    ops_per_sec: f64,
    /// Pure point-read throughput at the same thread count (read-latch scaling).
    get_ops_per_sec: f64,
    total_ops: u64,
    /// Index bytes written per user value byte written.
    index_write_amplification: f64,
    index_pages_written: u64,
    index_bytes_written: u64,
    value_bytes_written: u64,
    /// Index commits (superblock flips) during the run.
    index_commits: u64,
    /// Buffer-pool hit ratio of the index pages.
    pool_hit_ratio: f64,
    /// Store-level write amplification (GC pages per user page) during the run.
    store_write_amplification: f64,
    /// Optimistic-read restarts in the index tree during the run.
    index_read_restarts: u64,
    /// Writer restarts (failed validations/locks) in the index tree.
    index_write_restarts: u64,
    /// Mean version locks per index mutation (crab depth).
    index_avg_crab_depth: f64,
    /// Mean flush calls absorbed per superblock flip (group-commit batch size;
    /// 1.0 = no batching).
    commit_batch: f64,
    /// Flush calls that rode another caller's group-commit flip.
    group_commit_riders: u64,
}

/// The full benchmark record written to `BENCH_kv.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KvReport {
    benchmark: String,
    policy: String,
    page_bytes: usize,
    segment_bytes: usize,
    num_segments: usize,
    write_streams: usize,
    keys_per_thread: u64,
    value_bytes: usize,
    ops_per_thread: u64,
    results: Vec<KvPoint>,
}

fn store_config(scale: Scale) -> StoreConfig {
    let mut c = StoreConfig::paper_default().with_policy(PolicyKind::Mdc);
    c.segment_bytes = 256 * 1024;
    c.num_segments = match scale {
        Scale::Quick => 320,
        Scale::Default => 768,
        Scale::Full => 1536,
    };
    c.page_bytes = 1024;
    c.sort_buffer_segments = 4;
    c.write_streams = std::env::var("LSS_WRITE_STREAMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    c
}

fn ops_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 10_000,
        Scale::Default => 60_000,
        Scale::Full => 250_000,
    }
}

/// Keys per thread: sized so the index is big enough that persisting it matters.
fn keys_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 5_000,
        Scale::Default => 15_000,
        Scale::Full => 40_000,
    }
}

const VALUE_BYTES: usize = 200;

fn key(t: usize, i: u64) -> Vec<u8> {
    format!("bench:t{t}:k{i:08}").into_bytes()
}

fn open(scale: Scale) -> KvStore {
    let store = LogStore::open_in_memory(store_config(scale)).unwrap();
    KvStore::open_with(
        store,
        KvOptions {
            pool_pages: 2048,
            group_commit_window_us: std::env::var("LSS_KV_GROUP_COMMIT_US")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        },
    )
    .unwrap()
}

fn measure(threads: usize, scale: Scale) -> KvPoint {
    let kv = open(scale);
    let value = vec![0xABu8; VALUE_BYTES];
    let keys = keys_per_thread(scale);

    // Preload every thread's key population and commit it, so the measured phase is
    // steady-state (overwrites + checkpoints, not first-touch growth).
    for t in 0..threads {
        for i in 0..keys {
            kv.put(&key(t, i), &value).unwrap();
        }
    }
    kv.flush().unwrap();
    kv.store().reset_stats();
    let base = kv.stats();

    let ops = ops_per_thread(scale);
    let flush_every = (ops / 8).max(1);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let kv = &kv;
            let value = &value;
            let total = &total;
            scope.spawn(move || {
                for n in 0..ops {
                    // Hot/cold skew (the paper's workload shape): 80% of operations
                    // hit the hottest 10% of each thread's keys, so most tree
                    // pages stay clean across an epoch.
                    let r = mix(t as u64 * ops + n);
                    let i = if r % 10 < 8 {
                        (r >> 8) % (keys / 10).max(1)
                    } else {
                        (r >> 8) % keys
                    };
                    let k = key(t, i);
                    match mix(n * 31 + t as u64) % 10 {
                        0..=4 => {
                            let _ = kv.get(&k).unwrap();
                        }
                        5..=8 => kv.put(&k, value).unwrap(),
                        _ => {
                            kv.delete(&k).unwrap();
                            kv.put(&k, value).unwrap();
                        }
                    }
                    // Thread 0 is the checkpointer: periodic index commits are part
                    // of the measured workload.
                    if t == 0 && n % flush_every == flush_every - 1 {
                        kv.flush().unwrap();
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    kv.flush().unwrap();

    let stats = kv.stats();
    let store = kv.store().stats();
    let index_bytes = stats.index_bytes_written - base.index_bytes_written;
    let value_bytes = stats.value_bytes_written - base.value_bytes_written;

    // Pure point-read phase: read-side scaling with no writer in sight.
    let get_total = AtomicU64::new(0);
    let get_start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let kv = &kv;
            let get_total = &get_total;
            scope.spawn(move || {
                for n in 0..ops {
                    let i = mix(0xDEAD_0000 + t as u64 * ops + n) % keys;
                    let _ = kv.get(&key(t, i)).unwrap();
                }
                get_total.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let get_elapsed = get_start.elapsed().as_secs_f64();

    KvPoint {
        threads,
        ops_per_sec: total.load(Ordering::Relaxed) as f64 / elapsed,
        get_ops_per_sec: get_total.load(Ordering::Relaxed) as f64 / get_elapsed,
        total_ops: total.load(Ordering::Relaxed),
        index_write_amplification: if value_bytes == 0 {
            0.0
        } else {
            index_bytes as f64 / value_bytes as f64
        },
        index_pages_written: stats.index_pages_written - base.index_pages_written,
        index_bytes_written: index_bytes,
        value_bytes_written: value_bytes,
        index_commits: stats.superblock_commits - base.superblock_commits,
        pool_hit_ratio: stats.pool.hit_ratio(),
        store_write_amplification: store.write_amplification(),
        index_read_restarts: stats.tree.read_restarts - base.tree.read_restarts,
        index_write_restarts: stats.tree.write_restarts - base.tree.write_restarts,
        index_avg_crab_depth: {
            let ops = stats.tree.writer_ops - base.tree.writer_ops;
            let locks = stats.tree.writer_locks - base.tree.writer_locks;
            if ops == 0 {
                0.0
            } else {
                locks as f64 / ops as f64
            }
        },
        commit_batch: {
            let flips = stats.superblock_commits - base.superblock_commits;
            let calls = stats.flush_calls - base.flush_calls;
            if flips == 0 {
                0.0
            } else {
                calls as f64 / flips as f64
            }
        },
        group_commit_riders: stats.group_commit_riders - base.group_commit_riders,
    }
}

fn main() {
    let scale = Scale::from_args();
    let config = store_config(scale);
    println!(
        "kv scaling: MDC, {} x {} KiB segments, {} write streams, {} keys/thread, {} ops/thread",
        config.num_segments,
        config.segment_bytes / 1024,
        config.write_streams,
        keys_per_thread(scale),
        ops_per_thread(scale)
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9} {:>6} {:>7}",
        "threads",
        "mixed ops/s",
        "gets/s",
        "idx Wamp",
        "idx pages",
        "commits",
        "pool hit",
        "rd-rstrt",
        "wr-rstrt",
        "crab",
        "batch"
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let point = measure(threads, scale);
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>12.5} {:>12} {:>10} {:>10.3} {:>9} {:>9} {:>6.2} {:>7.2}",
            point.threads,
            point.ops_per_sec,
            point.get_ops_per_sec,
            point.index_write_amplification,
            point.index_pages_written,
            point.index_commits,
            point.pool_hit_ratio,
            point.index_read_restarts,
            point.index_write_restarts,
            point.index_avg_crab_depth,
            point.commit_batch
        );
        results.push(point);
    }

    let report = KvReport {
        benchmark: "kv_scaling".to_string(),
        policy: "MDC".to_string(),
        page_bytes: config.page_bytes,
        segment_bytes: config.segment_bytes,
        num_segments: config.num_segments,
        write_streams: config.write_streams,
        keys_per_thread: keys_per_thread(scale),
        value_bytes: VALUE_BYTES,
        ops_per_thread: ops_per_thread(scale),
        results,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_kv.json", &json).unwrap();
    println!("#json {}", serde_json::to_string(&report).unwrap());
    println!("wrote BENCH_kv.json");
}
