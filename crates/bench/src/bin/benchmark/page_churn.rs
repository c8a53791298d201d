//! `page-churn`: the paper's own experiment on the real store. One thread overwrites
//! 4 KiB pages of a `LogStore` filled to 0.80, skewed zipf-0.99, with synchronous
//! cleaning — so the cleaner, the policy and the store's write path do nearly all the
//! work and the KV and server layers do none.

use crate::harness::{self, Latencies, Outcome, Params, Window};
use crate::{layers, trace};
use lss_core::LogStore;
use lss_workload::{PageWorkload, ZipfianWorkload};
use std::time::Instant;

pub const NAME: &str = "page-churn";

const FILL_FACTOR: f64 = 0.80;
const ZIPF_THETA: f64 = 0.99;
/// Frozen: the window is `--seconds ×` this many puts, whatever the commit's speed.
const PUTS_PER_SECOND: f64 = 130_000.0;
/// Unmeasured puts before the window, as a multiple of the device's page frames —
/// what the sliced write amplification needs to level off from a sequential preload.
const WARMUP_DEVICE_WRITES: u64 = 10;
/// A put slower than this was stalled by synchronous cleaning.
const STALL_NS: u32 = 100_000;

struct Churn {
    store: LogStore,
    zipf: ZipfianWorkload,
    /// The model: current version of every page.
    versions: Vec<u32>,
    value: Vec<u8>,
    page_bytes: usize,
    errors: u64,
}

impl Churn {
    fn put_next(&mut self) {
        let page = self.zipf.next_page();
        let version = self.versions[page as usize] + 1;
        harness::fill_value(&mut self.value, page, version, self.page_bytes);
        let _op = trace::op("store.put");
        match self.store.put(page, &self.value) {
            Ok(()) => self.versions[page as usize] = version,
            Err(_) => self.errors += 1,
        }
    }

    /// One closed-loop window of puts; returns its latencies and the paper's W_amp
    /// (GC bytes per user byte) of each slice.
    fn run_window(&mut self, window: &Window) -> (Latencies, Vec<f64>) {
        let mut latencies = Latencies::default();
        let mut slice_amp = Vec::new();
        let mut at_slice_start = self.store.stats();
        while window.claim() {
            let start = Instant::now();
            self.put_next();
            latencies.push(start);
            if window.done() {
                window.sample_free_segments(self.store.free_segments());
                let now = self.store.stats();
                slice_amp.push(
                    (now.gc_bytes_written - at_slice_start.gc_bytes_written) as f64
                        / (now.user_bytes_written - at_slice_start.user_bytes_written) as f64,
                );
                at_slice_start = now;
            }
        }
        (latencies, slice_amp)
    }
}

/// Read every page back and count those that are not their model version.
fn wrong_pages(store: &LogStore, versions: &[u32]) -> u64 {
    let mut scratch = Vec::new();
    (0..versions.len() as u64)
        .filter(|&page| {
            !matches!(store.get(page), Ok(Some(got))
                if harness::value_is(&got, page, versions[page as usize], &mut scratch))
        })
        .count() as u64
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = p.store_config();
    let pages = config.logical_pages_for_fill_factor(FILL_FACTOR) as u64;
    let page_bytes = config.page_bytes;

    let mut value = Vec::new();
    let ((store, probe), setup_s) = p.repeat_setup(|| {
        let (store, probe) = harness::create_store(p)?;
        for page in 0..pages {
            harness::fill_value(&mut value, page, 1, page_bytes);
            store
                .put(page, &value)
                .map_err(|e| format!("preload: {e}"))?;
        }
        store.flush().map_err(|e| format!("preload flush: {e}"))?;
        Ok((store, probe))
    })?;
    out.set("setup_s", setup_s);

    let mut churn = Churn {
        store,
        zipf: ZipfianWorkload::scrambled(pages, ZIPF_THETA, p.seed),
        versions: vec![1; pages as usize],
        value,
        page_bytes,
        errors: 0,
    };
    let warmup = config.physical_pages() as u64 * if p.tiny { 1 } else { WARMUP_DEVICE_WRITES };
    for _ in 0..warmup {
        churn.put_next();
    }

    let ops = p.window_ops(PUTS_PER_SECOND, 1.0);
    let stats_before = churn.store.stats();
    let device_before = probe.as_ref().map(|probe| probe.start_window());
    let window = p.window(ops);
    let (mut latencies, slice_amp) = churn.run_window(&window);
    let stats_after = churn.store.stats();
    latencies.sort();
    out.attempted = ops + warmup;
    out.note(format!(
        "window: {ops} puts in {:.2} s after {warmup} warm-up puts; slices {:.3?} s, W_amp by slice {slice_amp:.3?}",
        window.elapsed_s(),
        window.slice_seconds()
    ));

    out.set("ops_s", window.ops_s());
    out.set("p50_us", latencies.us(0.50));
    layers::amplification(
        &mut out,
        &config,
        &stats_before,
        &stats_after,
        ops * page_bytes as u64,
        window.mean_free_segments(),
        pages * page_bytes as u64,
    );

    if let (Some(probe), Some(device_before)) = (&probe, device_before) {
        out.set("trace.overhead_frac", latencies.tracing_overhead());
        layers::device(&mut out, probe, &device_before, ops, 0.0);
        layers::store_and_cleaner(&mut out, &config, &stats_before, &stats_after, 0);
        // Slices hold equal user bytes, so a half's W_amp is the mean of its slices'.
        let (first, second) = slice_amp.split_at(slice_amp.len() / 2);
        let mean = |half: &[f64]| half.iter().sum::<f64>() / half.len() as f64;
        if mean(first) > 0.0 {
            out.set(
                "store.write_amp_drift",
                (mean(second) - mean(first)).abs() / mean(first),
            );
        }
        let (stalled, stalled_s) = latencies.slower_than(STALL_NS);
        out.set("cleaner.fg_stall_ops", stalled as f64);
        out.set("cleaner.fg_stall_share", stalled_s / window.elapsed_s());
        out.set("cleaner.put_p999_us", latencies.us(0.999));
        out.set("loadgen.closed_p99_us", latencies.us(0.99));
        out.set("store.put_us", latencies.mean_us());
        trace::set_enabled(true);
        traced_extras(p, &mut churn, &mut out)?;
        trace::set_enabled(false);
    }

    let flush = Instant::now();
    churn
        .store
        .flush()
        .map_err(|e| format!("final flush: {e}"))?;
    out.note(format!(
        "final flush {:.3} s",
        flush.elapsed().as_secs_f64()
    ));
    let Churn {
        store,
        versions,
        errors,
        ..
    } = churn;
    if p.traced {
        checkpoint_reopen(p, store, &mut out)?;
    } else {
        drop(store);
    }
    let (reopened, reopen_s) = p.repeat_reopen(|| {
        let store = harness::recover_store(p)?;
        store.get(0).map_err(|e| format!("first read: {e}"))?;
        Ok(store)
    })?;
    out.set("reopen_s", reopen_s);
    if p.traced {
        let device_mb = config.segment_bytes as f64 * config.num_segments as f64 / 1e6;
        out.set("recovery.scan_mb_s", device_mb / reopen_s);
    }
    out.attempted += pages;
    out.failed = errors + wrong_pages(&reopened, &versions);
    out.set("peak_rss_mb", harness::peak_rss_mb());
    Ok(out)
}

/// Traced pass only: checkpoint the flushed store, drop it, and time the
/// checkpoint-anchored recovery of the same image (bounded tail replay, not a scan).
fn checkpoint_reopen(p: &Params, store: LogStore, out: &mut Outcome) -> Result<(), String> {
    let journal = p.dir.join("checkpoint.journal");
    store
        .checkpoint_log_to(&journal)
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(store);
    let start = Instant::now();
    let device = harness::open_device(p)?;
    let recovered = LogStore::recover_with_checkpoint(p.store_config(), Box::new(device), &journal)
        .map_err(|e| format!("checkpoint recovery: {e}"))?;
    recovered.get(0).map_err(|e| format!("first read: {e}"))?;
    out.set(
        "recovery.checkpoint_reopen_s",
        start.elapsed().as_secs_f64(),
    );
    out.set(
        "recovery.segments_replayed",
        recovered.stats().recovery_segments_replayed as f64,
    );
    let _ = std::fs::remove_file(journal);
    Ok(())
}

/// Traced pass only, after the window: timed reads, flushes and cleaning cycles.
fn traced_extras(p: &Params, churn: &mut Churn, out: &mut Outcome) -> Result<(), String> {
    let gets = p.scaled(100_000, 500);
    let before = churn.store.stats();
    let mut get_us = Latencies::with_capacity(gets as usize);
    let mut scratch = Vec::new();
    let mut wrong = 0u64;
    for _ in 0..gets {
        let page = churn.zipf.next_page();
        let start = Instant::now();
        let got = {
            let _op = trace::op("store.get");
            churn.store.get(page)
        };
        get_us.push(start);
        let version = churn.versions[page as usize];
        if !matches!(got, Ok(Some(got)) if harness::value_is(&got, page, version, &mut scratch)) {
            wrong += 1;
        }
    }
    let after = churn.store.stats();
    out.attempted += gets;
    churn.errors += wrong;
    out.set("store.get_us", get_us.mean_us());
    out.set(
        "store.device_reads_per_get",
        (after.device_page_reads - before.device_page_reads) as f64 / gets as f64,
    );

    let mut flush_ms = Vec::new();
    for _ in 0..5 {
        for _ in 0..p.scaled(2_000, 50) {
            churn.put_next();
        }
        let start = Instant::now();
        let _op = trace::op("store.flush");
        churn
            .store
            .flush()
            .map_err(|e| format!("timed flush: {e}"))?;
        flush_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.set("store.flush_ms_p50", harness::median(flush_ms));

    let mut cycle_ms = Vec::new();
    let mut freed = 0usize;
    let cycles = Instant::now();
    for _ in 0..32 {
        let start = Instant::now();
        let report = churn
            .store
            .clean_now()
            .map_err(|e| format!("clean_now: {e}"))?;
        cycle_ms.push(start.elapsed().as_secs_f64() * 1e3);
        freed += report.segments_freed();
    }
    out.set(
        "cleaner.segments_per_s",
        freed as f64 / cycles.elapsed().as_secs_f64(),
    );
    out.set("cleaner.cycle_ms_p50", harness::median(cycle_ms));

    Ok(())
}
