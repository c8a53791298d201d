//! Network front-end benchmark: ops/s and request latency through `lss-server`'s
//! TCP protocol, across a grid of client connections × pipelining depth.
//!
//! The point of the grid is the interaction of the two batching effects the server
//! stacks (docs/PROTOCOL.md §7): durable PUTs from concurrent connections share one
//! superblock flip through the KV layer's group-commit window, and replies to a
//! pipelined window share one socket flush. Depth 1 pays full network round-trip
//! and commit latency per op; at depth 8 both costs amortise — the acceptance bar
//! for this benchmark is durable-PUT throughput at 4 connections × depth 8 being
//! at least 2× the depth-1 figure.
//!
//! Environment: `LSS_KV_GROUP_COMMIT_US` — group-commit window (default 200 µs here).
//!
//! Emits `BENCH_server.json`. Run with:
//! `cargo run --release -p lss-bench --bin kv_server [--quick|--full]`

use lss_bench::Scale;
use lss_btree::kv::{KvOptions, KvStore};
use lss_client::{Client, ClientOptions};
use lss_core::policy::PolicyKind;
use lss_core::util::mix64 as mix;
use lss_core::{LogStore, StoreConfig};
use lss_server::protocol::{Request, Response};
use lss_server::{Server, ServerConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured point: a request mode at (connections, pipelining depth).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServerPoint {
    /// `"durable-put"` or `"get"`.
    mode: String,
    /// Client connections, each driven by its own thread.
    threads: usize,
    /// `"depth<N>"` — the pipelining window, encoded here so the bench gate's
    /// identity keys (which include `phase`, not `depth`) keep rows distinct.
    phase: String,
    depth: usize,
    ops_per_sec: f64,
    /// Per-request latency from send to matched reply (PROTOCOL.md §7 correlation).
    p50_ms: f64,
    p99_ms: f64,
    total_ops: u64,
    /// Superblock flips during the run (durable-put mode; 0 for gets).
    flips: u64,
    /// Durable acks amortised per flip — the group-commit batching factor.
    ops_per_flip: f64,
}

/// The full benchmark record written to `BENCH_server.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServerReport {
    benchmark: String,
    policy: String,
    group_commit_window_us: u64,
    value_bytes: usize,
    ops_per_connection: u64,
    results: Vec<ServerPoint>,
}

const VALUE_BYTES: usize = 128;

fn ops_per_connection(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 4_000,
        Scale::Default => 20_000,
        Scale::Full => 60_000,
    }
}

fn grid(scale: Scale) -> (Vec<usize>, Vec<usize>) {
    match scale {
        // Quick keeps exactly the acceptance grid: 4 connections at depths 1 and 8,
        // plus the single-connection baseline.
        Scale::Quick => (vec![1, 4], vec![1, 8]),
        Scale::Default => (vec![1, 4, 8], vec![1, 4, 8, 16]),
        Scale::Full => (vec![1, 2, 4, 8, 16], vec![1, 4, 8, 16, 32]),
    }
}

fn key(conn: usize, i: u64) -> Vec<u8> {
    format!("srv:c{conn}:k{i:07}").into_bytes()
}

/// Drive one connection: `ops` pipelined requests at `depth`, returning each
/// request's send→reply latency.
fn drive(
    addr: &str,
    conn: usize,
    ops: u64,
    depth: usize,
    gets: bool,
    preload_keys: u64,
) -> Vec<Duration> {
    let mut client = Client::connect_with(addr, ClientOptions::default()).unwrap();
    let value = vec![0x5Au8; VALUE_BYTES];
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut latencies = Vec::with_capacity(ops as usize);
    let mut reap = |client: &mut Client, sent_at: &mut HashMap<u64, Instant>| {
        let (corr, reply) = client.recv().unwrap();
        match reply {
            Response::Put | Response::Get(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
        latencies.push(sent_at.remove(&corr).unwrap().elapsed());
    };
    for n in 0..ops {
        while sent_at.len() >= depth {
            reap(&mut client, &mut sent_at);
        }
        let request = if gets {
            Request::Get {
                key: key(conn, mix(conn as u64 * ops + n) % preload_keys),
            }
        } else {
            Request::Put {
                key: key(conn, n),
                value: value.clone(),
                durable: true,
            }
        };
        let at = Instant::now();
        let corr = client.send(&request).unwrap();
        sent_at.insert(corr, at);
    }
    while !sent_at.is_empty() {
        reap(&mut client, &mut sent_at);
    }
    latencies
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[at].as_secs_f64() * 1e3
}

fn measure(
    connections: usize,
    depth: usize,
    gets: bool,
    scale: Scale,
    group_commit_us: u64,
) -> ServerPoint {
    let mut config = StoreConfig::paper_default().with_policy(PolicyKind::Mdc);
    config.segment_bytes = 256 * 1024;
    config.num_segments = 512;
    config.page_bytes = 1024;
    let store = LogStore::open_in_memory(config).unwrap();
    let kv = Arc::new(
        KvStore::open_with(
            store,
            KvOptions {
                pool_pages: 2048,
                group_commit_window_us: group_commit_us,
            },
        )
        .unwrap(),
    );
    let server = Server::start(Arc::clone(&kv), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let ops = ops_per_connection(scale);
    // The get mode reads a preloaded population instead of its own writes.
    let preload_keys = if gets { ops.min(10_000) } else { 0 };
    if gets {
        let value = vec![0x5Au8; VALUE_BYTES];
        for conn in 0..connections {
            for i in 0..preload_keys {
                kv.put(&key(conn, i), &value).unwrap();
            }
        }
        kv.flush().unwrap();
    }

    let flips_before = kv.stats().superblock_commits;
    let start = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || drive(&addr, conn, ops, depth, gets, preload_keys.max(1)))
        })
        .collect();
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let flips = if gets {
        0
    } else {
        kv.stats().superblock_commits - flips_before
    };
    server.shutdown();

    latencies.sort_unstable();
    let total_ops = ops * connections as u64;
    ServerPoint {
        mode: if gets { "get" } else { "durable-put" }.to_string(),
        threads: connections,
        phase: format!("depth{depth}"),
        depth,
        ops_per_sec: total_ops as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        total_ops,
        flips,
        ops_per_flip: if flips == 0 {
            0.0
        } else {
            total_ops as f64 / flips as f64
        },
    }
}

fn main() {
    let scale = Scale::from_args();
    let group_commit_us = std::env::var("LSS_KV_GROUP_COMMIT_US")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let (conn_grid, depth_grid) = grid(scale);
    println!(
        "kv_server: group-commit window {} us, {} B values, {} ops/connection",
        group_commit_us,
        VALUE_BYTES,
        ops_per_connection(scale)
    );
    println!(
        "{:>12} {:>6} {:>7} {:>12} {:>9} {:>9} {:>8} {:>10}",
        "mode", "conns", "depth", "ops/s", "p50 ms", "p99 ms", "flips", "ops/flip"
    );

    let mut results = Vec::new();
    for gets in [false, true] {
        for &connections in &conn_grid {
            for &depth in &depth_grid {
                let point = measure(connections, depth, gets, scale, group_commit_us);
                println!(
                    "{:>12} {:>6} {:>7} {:>12.0} {:>9.3} {:>9.3} {:>8} {:>10.1}",
                    point.mode,
                    point.threads,
                    point.depth,
                    point.ops_per_sec,
                    point.p50_ms,
                    point.p99_ms,
                    point.flips,
                    point.ops_per_flip
                );
                results.push(point);
            }
        }
    }

    // The headline claim (also the CI acceptance bar): pipelining pays. At 4
    // connections, depth 8 must at least double depth-1 durable-PUT throughput.
    let rate = |depth: usize| {
        results
            .iter()
            .find(|p| p.mode == "durable-put" && p.threads == 4 && p.depth == depth)
            .map(|p| p.ops_per_sec)
    };
    if let (Some(d1), Some(d8)) = (rate(1), rate(8)) {
        println!(
            "pipelining speedup at 4 connections: depth8/depth1 = {:.2}x",
            d8 / d1
        );
    }

    let report = ServerReport {
        benchmark: "kv_server".to_string(),
        policy: "MDC".to_string(),
        group_commit_window_us: group_commit_us,
        value_bytes: VALUE_BYTES,
        ops_per_connection: ops_per_connection(scale),
        results,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_server.json", &json).unwrap();
    println!("#json {}", serde_json::to_string(&report).unwrap());
    println!("wrote BENCH_server.json");
}
