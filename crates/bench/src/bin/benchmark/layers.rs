//! Per-layer metrics from deltas of the public counter snapshots (`StoreStats`,
//! `KvStats`, the device probe) over a window. Times measured by the harness around
//! public calls are set by the workloads themselves.

use crate::device::{DeviceCounts, DeviceProbe};
use crate::harness::Outcome;
use crate::trace;
use lss_btree::kv::KvStats;
use lss_core::{StoreConfig, StoreStats};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The three amplification figures every pass reports, over `before..after`:
/// `write_amp` = (user + GC bytes) / user bytes at the `LogStore` boundary, i.e.
/// 1 + the paper's W_amp; `device_write_amp` = segment images written / payload bytes
/// the harness handed in; `space_amp` = occupied segments / live payload bytes.
pub fn amplification(
    out: &mut Outcome,
    config: &StoreConfig,
    before: &StoreStats,
    after: &StoreStats,
    payload_bytes: u64,
    free_segments: f64,
    live_payload_bytes: u64,
) {
    let user = (after.user_bytes_written - before.user_bytes_written) as f64;
    let gc = (after.gc_bytes_written - before.gc_bytes_written) as f64;
    let sealed = (after.segments_sealed - before.segments_sealed) as f64;
    let segment_bytes = config.segment_bytes as f64;
    out.set("write_amp", ratio(user + gc, user));
    out.set(
        "device_write_amp",
        ratio(sealed * segment_bytes, payload_bytes as f64),
    );
    out.set(
        "space_amp",
        ratio(
            (config.num_segments as f64 - free_segments) * segment_bytes,
            live_payload_bytes as f64,
        ),
    );
}

/// `cleaner.*` and `store.*` counts over `before..after`; `kv_ops` is the number of
/// KV-level operations in the window (0 when the workload has no KV layer).
pub fn store_and_cleaner(
    out: &mut Outcome,
    config: &StoreConfig,
    before: &StoreStats,
    after: &StoreStats,
    kv_ops: u64,
) {
    let d = |f: fn(&StoreStats) -> u64| (f(after) - f(before)) as f64;
    let cleaned = d(|s| s.segments_cleaned);
    out.set("cleaner.cycles", d(|s| s.cleaning_cycles));
    out.set("cleaner.segments_cleaned", cleaned);
    out.set("cleaner.pages_moved", d(|s| s.gc_pages_written));
    out.set(
        "cleaner.mean_emptiness",
        ratio(
            after.emptiness_sum_at_clean - before.emptiness_sum_at_clean,
            cleaned,
        ),
    );
    out.set("cleaner.claimed_victims", after.claimed_victims as f64);
    out.set("cleaner.writer_stalls", d(|s| s.writer_stall_events));
    out.set("cleaner.tombstones_retained", d(|s| s.tombstones_retained));
    out.set(
        "cleaner.gc_share_of_writes",
        ratio(
            d(|s| s.gc_bytes_written),
            d(|s| s.segments_sealed) * config.segment_bytes as f64,
        ),
    );

    let user_pages = d(|s| s.user_pages_written);
    let sealed = d(|s| s.segments_sealed);
    let absorbed = ratio(d(|s| s.absorbed_in_buffer), user_pages);
    out.set("store.absorbed_ratio", absorbed);
    out.set(
        "store.device_reads_per_get",
        ratio(d(|s| s.device_page_reads), d(|s| s.pages_read)),
    );
    out.set("store.segments_sealed", sealed);
    // Absorbed writes never reach a segment; their bytes are not counted apart, so
    // the share of user writes absorbed stands in for the share of user bytes.
    out.set(
        "store.seal_fill",
        ratio(
            d(|s| s.user_bytes_written) * (1.0 - absorbed) + d(|s| s.gc_bytes_written),
            sealed * config.segment_bytes as f64,
        ),
    );
    out.set(
        "store.pages_read_per_kv_op",
        ratio(d(|s| s.pages_read), kv_ops as f64),
    );
}

/// `kv.*` counts over `before..after`.
pub fn kv(out: &mut Outcome, before: &KvStats, after: &KvStats) {
    let pool_hits = (after.pool.hits - before.pool.hits) as f64;
    let pool_misses = (after.pool.misses - before.pool.misses) as f64;
    out.set(
        "kv.pool_hit_ratio",
        ratio(pool_hits, pool_hits + pool_misses),
    );
    out.set(
        "kv.pool_evictions",
        (after.pool.dirty_evictions + after.pool.clean_evictions
            - before.pool.dirty_evictions
            - before.pool.clean_evictions) as f64,
    );
    out.set(
        "kv.index_write_amp",
        ratio(
            (after.index_bytes_written - before.index_bytes_written) as f64,
            (after.value_bytes_written - before.value_bytes_written) as f64,
        ),
    );
    let tree = |f: fn(&KvStats) -> u64| (f(after) - f(before)) as f64;
    out.set("kv.read_restarts", tree(|s| s.tree.read_restarts));
    out.set("kv.write_restarts", tree(|s| s.tree.write_restarts));
    out.set(
        "kv.fallbacks",
        tree(|s| s.tree.read_fallbacks + s.tree.write_fallbacks),
    );
    out.set(
        "kv.crab_depth",
        ratio(tree(|s| s.tree.writer_locks), tree(|s| s.tree.writer_ops)),
    );
    let commits = tree(|s| s.superblock_commits);
    out.set("kv.superblock_commits", commits);
    out.set("kv.commit_batch", ratio(tree(|s| s.flush_calls), commits));
    out.set("kv.riders", tree(|s| s.group_commit_riders));
}

/// `device.*` over the window that began at `before` ([`DeviceProbe::start_window`]);
/// `flips` is the superblock commits in it.
pub fn device(out: &mut Outcome, probe: &DeviceProbe, before: &DeviceCounts, ops: u64, flips: f64) {
    let d = probe.counts().since(before);
    out.set("device.writes", d.writes as f64);
    out.set("device.write_bytes", d.write_bytes as f64);
    out.set("device.write_busy_s", d.write_s);
    out.set("device.reads", d.reads as f64);
    out.set("device.read_bytes", d.read_bytes as f64);
    out.set("device.read_busy_s", d.read_s);
    out.set("device.syncs", d.syncs as f64);
    out.set("device.sync_busy_s", d.sync_s);
    out.set("device.sync_p99_us", probe.take_sync_p99_us());
    out.set("device.erases", d.erases as f64);
    out.set("device.syncs_per_op", ratio(d.syncs as f64, ops as f64));
    out.set("device.bytes_per_flip", ratio(d.write_bytes as f64, flips));
    out.set("device.model_busy_s", d.model_busy_s());
}

/// The layers a span can belong to, outermost first, with the names of their
/// inclusive- and self-time metrics.
const TRACE_LAYERS: [(&str, &str, &str); 5] = [
    ("server", "trace.server_incl_s", "trace.server_self_s"),
    ("kv", "trace.kv_incl_s", "trace.kv_self_s"),
    ("store", "trace.store_incl_s", "trace.store_self_s"),
    ("cleaner", "trace.cleaner_incl_s", "trace.cleaner_self_s"),
    ("device", "trace.device_incl_s", "trace.device_self_s"),
];

/// `trace.*`: each layer's inclusive and self seconds from the recorded spans, plus
/// the table of them as notes.
pub fn trace_layers(out: &mut Outcome) {
    let totals = trace::totals();
    out.note(format!(
        "{:<10} {:>12} {:>12} {:>12}",
        "layer", "spans", "inclusive s", "self s"
    ));
    let mut spans = 0;
    for (layer, incl_name, self_name) in TRACE_LAYERS {
        let (count, incl, own) = trace::layer_totals(&totals, layer);
        spans += count;
        out.set(incl_name, incl);
        out.set(self_name, own);
        out.note(format!("{layer:<10} {count:>12} {incl:>12.4} {own:>12.4}"));
    }
    out.set("trace.spans", spans as f64);
}
