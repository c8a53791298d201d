//! Single-threaded microbenchmark of the raw B+-tree op path (no KV/log layers):
//! load + mixed get/put/delete ns-per-op, for both plain and shadow (copy-on-write)
//! trees, with periodic checkpoints so the shadow run exercises relocations. Useful
//! for isolating index-layer regressions the full `kv` bench would blur together.
//!
//! `cargo run --release -p lss-bench --bin tree_probe`

use lss_btree::{BTree, BufferPool, MemPageStore};
use std::time::Instant;

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn main() {
    const KEYS: u32 = 20_000;
    const OPS: u32 = 200_000;
    let value = vec![0xABu8; 200];
    for shadow in [false, true] {
        let pool = BufferPool::new(MemPageStore::new(1024), 4096);
        let t = if shadow {
            BTree::open_shadow(pool, None).unwrap()
        } else {
            BTree::open(pool).unwrap()
        };
        let start = Instant::now();
        for i in 0..KEYS {
            t.insert(&key(i), &value).unwrap();
        }
        let load = start.elapsed();
        t.begin_checkpoint().cut().commit();
        let mut x = 0x12345678u64;
        let start = Instant::now();
        let mut hits = 0u32;
        for op in 0..OPS {
            if op % 20_000 == 0 {
                t.begin_checkpoint().cut().commit();
            }
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((x >> 33) as u32 % KEYS);
            match (x >> 20) % 10 {
                0..=4 => {
                    if t.get(&k).unwrap().is_some() {
                        hits += 1;
                    }
                }
                5..=8 => t.insert(&k, &value).unwrap(),
                _ => {
                    t.delete(&k).unwrap();
                    t.insert(&k, &value).unwrap();
                }
            }
        }
        let mixed = start.elapsed();
        println!(
            "shadow={shadow}: load {:.0} ns/op, mixed {:.0} ns/op ({} ops, {hits} hits)",
            load.as_nanos() as f64 / KEYS as f64,
            mixed.as_nanos() as f64 / OPS as f64,
            OPS
        );
    }
}
