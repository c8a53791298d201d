//! A persistent key-value store on the log-structured store: write a few thousand keys
//! to a file-backed device through the **paged B+-tree index** (values in the log, the
//! index's own pages in the same log, committed by an atomic superblock flip), flush,
//! then recover the store from the device alone — as a restart would — and read
//! everything back.
//!
//! Run with: `cargo run --release --example kv_on_lss`

use lss::btree::kv::KvStore;
use lss::core::policy::PolicyKind;
use lss::core::{device::FileDevice, LogStore, StoreConfig};

fn main() -> lss::core::Result<()> {
    // A deliberately small device so the cleaner has real work to do on this data set.
    let mut config = StoreConfig::paper_default().with_policy(PolicyKind::Mdc);
    config.segment_bytes = 16 * 1024;
    config.num_segments = 96;
    config.page_bytes = 512;
    config.sort_buffer_segments = 4;
    config.cleaning.trigger_free_segments = 6;
    config.cleaning.segments_per_cycle = 8;
    // Let every overwrite reach a segment (instead of coalescing in the sort buffer) so
    // the example actually exercises the cleaner.
    config.absorb_updates_in_buffer = false;

    let mut path = std::env::temp_dir();
    path.push(format!("lss-kv-example-{}.lss", std::process::id()));

    // Phase 1: create, load, flush.
    {
        let device = FileDevice::create(&path, config.segment_bytes, config.num_segments)?;
        let store = LogStore::open_with_device(config.clone(), Box::new(device))?;
        let kv = KvStore::open(store)?;
        for i in 0..5_000u32 {
            kv.put(
                format!("user:{i:06}").as_bytes(),
                format!("{{\"id\":{i},\"karma\":{}}}", i * 7).as_bytes(),
            )?;
        }
        // Overwrite keys scattered across the whole data set so segments decay into the
        // live/dead checkerboard the cleaner exists for; commit every few rounds the
        // way a real engine checkpoints.
        for round in 0..40u32 {
            for i in 0..500u32 {
                let key_id = (round.wrapping_mul(7919).wrapping_add(i * 13)) % 5_000;
                kv.put(
                    format!("user:{key_id:06}").as_bytes(),
                    format!(
                        "{{\"id\":{key_id},\"karma\":{},\"round\":{round}}}",
                        key_id * 7 + round
                    )
                    .as_bytes(),
                )?;
            }
            if round % 8 == 7 {
                kv.flush()?;
            }
        }
        kv.delete(b"user:000013")?;
        kv.flush()?;
        let stats = kv.store().stats();
        let kv_stats = kv.stats();
        println!(
            "loaded 5000 keys (+20000 hot overwrites); cleaning cycles = {}, write amplification = {:.3}",
            stats.cleaning_cycles,
            stats.write_amplification()
        );
        println!(
            "paged index: epoch {}, index W_amp = {:.4}, pool hit ratio = {:.3}",
            kv_stats.epoch,
            kv_stats.index_write_amplification(),
            kv_stats.pool.hit_ratio()
        );
    }

    // Phase 2: recover from the device (no checkpoint needed) and read back. The scan
    // reads each slot's front — extent headers and entry tables — never its payloads.
    {
        let started = std::time::Instant::now();
        let device = FileDevice::open(&path, config.segment_bytes, config.num_segments)?;
        let store = LogStore::recover_with_device(config.clone(), Box::new(device))?;
        let kv = KvStore::open(store)?;
        let device_bytes = config.segment_bytes * config.num_segments;
        println!(
            "reopened in {:.1} ms, reading {} of the device's {device_bytes} bytes",
            started.elapsed().as_secs_f64() * 1e3,
            kv.store().stats().recovery_bytes_read
        );
        println!("recovered {} keys from {}", kv.len(), path.display());
        assert_eq!(kv.len(), 4_999);
        assert!(
            kv.get(b"user:000013")?.is_none(),
            "deleted key must stay deleted"
        );
        let sample = kv.get(b"user:000100")?.expect("key must survive recovery");
        println!("user:000100 = {}", String::from_utf8_lossy(&sample));
        println!(
            "post-recovery stats: {} live pages, {} free segments",
            kv.store().live_pages(),
            kv.store().free_segments()
        );
        let range = kv.range(b"user:000200", b"user:000205")?;
        println!("range scan returned {} keys", range.len());
        assert_eq!(range.len(), 5);
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
