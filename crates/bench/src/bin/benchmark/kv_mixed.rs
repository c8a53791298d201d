//! `kv-mixed`: an in-process `KvStore` whose index is far larger than its buffer
//! pool, read and written at once by two threads. The OLC tree and the pool's misses
//! dominate, the store's read path comes second, and the server does nothing — so a
//! read-side gain that taxes writers (or the reverse) shows up here.

use crate::device::DeviceProbe;
use crate::harness::{self, key, Latencies, Model, Outcome, Params, Window, KEY_BYTES};
use crate::{layers, trace};
use lss_btree::kv::KvStore;
use lss_core::util::mix64;
use lss_workload::{PageWorkload, UniformWorkload, ZipfianWorkload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "kv-mixed";

pub const THREADS: usize = 2;
/// Keys over both threads: ~100 entries fit a 4 KiB leaf, so the index is a few
/// thousand pages against a pool of 256.
const KEYS: u64 = 200_000;
const ZIPF_THETA: f64 = 0.99;
/// Frozen: the window is `--seconds ×` this many operations over both threads.
const OPS_PER_SECOND: f64 = 90_000.0;
/// Unmeasured operations before the window (pool and sort buffers reach their
/// working state, the cleaner has started).
const WARMUP_OPS: u64 = 200_000;
/// Unmeasured operations after the window, run under pre-image capture so the crash
/// check has commits to hold on to and unsynced writes to undo (traced pass).
const CRASH_OPS: u64 = 20_000;
/// Thread 0 commits after this many of its own operations.
const FLUSH_EVERY: u64 = 4096;
const RANGE_KEYS: u64 = 16;

/// Operation mix in percent: the rest, up to 100, are range scans.
const GET_PCT: u64 = 50;
const PUT_PCT: u64 = 40;
const DELETE_PCT: u64 = 5;

const OP_NAMES: [&str; 4] = ["kv.get", "kv.put", "kv.delete", "kv.range"];

/// 100–400 bytes, fixed by key and version so a reader can tell what it must see.
fn value_len(id: u64, version: u32) -> usize {
    100 + (mix64(id.wrapping_mul(31) ^ version as u64) % 301) as usize
}

/// What the threads share so thread 0's commits can say what they covered.
struct Shared {
    /// Mutations each thread has completed (= its journal length).
    mutations: [AtomicU64; THREADS],
    /// Per thread: mutations completed before the last commit that returned — before
    /// the power failed, in the crash burst — began.
    covered: [AtomicU64; THREADS],
    /// Traced pass: the device under the store, to ask whether its power has failed.
    probe: Option<Arc<DeviceProbe>>,
}

/// One client thread: its generators, its model and what it measured.
struct Worker {
    model: Model,
    zipf: ZipfianWorkload,
    mix: UniformWorkload,
    /// Every mutation in order: `(key index, state after)`; traced pass only.
    journal: Option<Vec<(u32, u32)>>,
    latencies: [Latencies; 4],
    flush_ms: Vec<f64>,
    flush_every: u64,
    ops: u64,
    put_bytes: u64,
    attempted: u64,
    failed: u64,
    value: Vec<u8>,
    scratch: Vec<u8>,
}

impl Worker {
    fn new(thread: usize, keys: u64, p: &Params) -> Self {
        let seed = p.seed.wrapping_mul(1000) + thread as u64;
        Self {
            model: Model::preloaded(thread, keys),
            zipf: ZipfianWorkload::scrambled(keys, ZIPF_THETA, seed),
            mix: UniformWorkload::new(100, seed ^ 0x5eed),
            journal: p.traced.then(Vec::new),
            latencies: Default::default(),
            flush_ms: Vec::new(),
            flush_every: p.scaled(FLUSH_EVERY, 64),
            ops: 0,
            put_bytes: 0,
            attempted: 0,
            failed: 0,
            value: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn record(&mut self, idx: u64, shared: &Shared) {
        if let Some(journal) = &mut self.journal {
            journal.push((idx as u32, self.model.raw(idx)));
            shared.mutations[self.model.thread].store(journal.len() as u64, Ordering::SeqCst);
        }
    }

    /// One operation of the mix, checked against the model.
    fn step(&mut self, kv: &KvStore, shared: &Shared) {
        let roll = self.mix.next_page();
        let idx = self.zipf.next_page();
        let thread = self.model.thread;
        let k = key(thread, idx);
        let mut start = Instant::now();
        let (kind, ok) = if roll < GET_PCT {
            let _op = trace::op(OP_NAMES[0]);
            let got = kv.get(&k);
            let ok = matches!(&got, Ok(got)
                if self.model.matches(idx, got.as_deref(), &mut self.scratch));
            (0, ok)
        } else if roll < GET_PCT + PUT_PCT {
            let version = self.model.next_version(idx);
            let id = self.model.id(idx);
            harness::fill_value(&mut self.value, id, version, value_len(id, version));
            start = Instant::now();
            let _op = trace::op(OP_NAMES[1]);
            let ok = kv.put(&k, &self.value).is_ok();
            if ok {
                self.model.set(idx, version, true);
                self.put_bytes += (KEY_BYTES + self.value.len()) as u64;
                self.record(idx, shared);
            }
            (1, ok)
        } else if roll < GET_PCT + PUT_PCT + DELETE_PCT {
            let was_live = self.model.live_version(idx).is_some();
            let _op = trace::op(OP_NAMES[2]);
            let existed = kv.delete(&k);
            let ok = matches!(existed, Ok(existed) if existed == was_live);
            if existed.is_ok() {
                self.model.set(idx, self.model.next_version(idx), false);
                self.record(idx, shared);
            }
            (2, ok)
        } else {
            let end = (idx + RANGE_KEYS).min(self.model.keys());
            let _op = trace::op(OP_NAMES[3]);
            let got = kv.range(&k, &key(thread, idx + RANGE_KEYS));
            let ok = matches!(&got, Ok(got)
                if self.model.range_matches(idx, end, got, &mut self.scratch));
            (3, ok)
        };
        self.latencies[kind].push(start);
        self.ops += 1;
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Thread 0's periodic commit: note what it covers, commit, publish on success.
    fn commit(&mut self, kv: &KvStore, shared: &Shared) {
        let covers: Vec<u64> = shared
            .mutations
            .iter()
            .map(|m| m.load(Ordering::SeqCst))
            .collect();
        let start = Instant::now();
        let result = {
            let _op = trace::op("kv.flush");
            kv.flush()
        };
        self.flush_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        match result {
            // A commit that returned after the power failed covers nothing.
            Ok(()) if shared.probe.as_ref().is_some_and(|p| p.power_is_cut()) => {}
            Ok(()) => {
                for (covered, n) in shared.covered.iter().zip(covers) {
                    covered.store(n, Ordering::SeqCst);
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    fn run_window(&mut self, kv: &KvStore, shared: &Shared, window: &Window) {
        while window.claim() {
            self.step(kv, shared);
            if window.done() {
                window.sample_free_segments(kv.store().free_segments());
            }
            if self.model.thread == 0 && self.ops.is_multiple_of(self.flush_every) {
                self.commit(kv, shared);
            }
        }
    }

    /// Bytes of every live key and value.
    fn live_payload_bytes(&self) -> u64 {
        (0..self.model.keys())
            .filter_map(|idx| self.model.live_version(idx).map(|v| (idx, v)))
            .map(|(idx, v)| (KEY_BYTES + value_len(self.model.id(idx), v)) as u64)
            .sum()
    }

    /// After a crash that kept only what the last returned commit covered: count keys
    /// whose recovered state is neither the covered one nor one written later.
    fn lost_writes(&mut self, kv: &KvStore, covered: usize) -> u64 {
        let journal = self.journal.take().unwrap_or_default();
        let mut floor = Model::preloaded(self.model.thread, self.model.keys());
        for &(idx, state) in &journal[..covered] {
            floor.set(idx as u64, state >> 1, state & 1 == 1);
        }
        let mut later: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(idx, state) in &journal[covered..] {
            later.entry(idx).or_default().push(state);
        }
        let mut lost = 0;
        for idx in 0..floor.keys() {
            let got = kv.get(&key(floor.thread, idx)).ok().flatten();
            if floor.matches(idx, got.as_deref(), &mut self.scratch) {
                continue;
            }
            let id = floor.id(idx);
            let written_later = later.get(&(idx as u32)).is_some_and(|states| {
                states.iter().any(|&state| match &got {
                    None => state & 1 == 0,
                    Some(got) => {
                        state & 1 == 1 && harness::value_is(got, id, state >> 1, &mut self.scratch)
                    }
                })
            });
            lost += !written_later as u64;
        }
        lost
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = p.store_config();
    let keys = p.scaled(KEYS, 2_000) / THREADS as u64;

    let ((kv, probe), setup_s) = p.repeat_setup(|| {
        let (store, probe) = harness::create_store(p)?;
        let kv = KvStore::open_with(store, harness::kv_options())
            .map_err(|e| format!("open kv: {e}"))?;
        let mut value = Vec::new();
        for thread in 0..THREADS {
            let model = Model::preloaded(thread, keys);
            for idx in 0..keys {
                let id = model.id(idx);
                harness::fill_value(&mut value, id, 1, value_len(id, 1));
                kv.put(&key(thread, idx), &value)
                    .map_err(|e| format!("preload: {e}"))?;
            }
        }
        kv.flush().map_err(|e| format!("preload flush: {e}"))?;
        Ok((kv, probe))
    })?;
    out.set("setup_s", setup_s);

    let shared = Shared {
        mutations: Default::default(),
        covered: Default::default(),
        probe: probe.clone(),
    };
    let mut workers: Vec<Worker> = (0..THREADS).map(|t| Worker::new(t, keys, p)).collect();
    let run_window = |workers: &mut Vec<Worker>, window: Window| {
        std::thread::scope(|scope| {
            for worker in workers.iter_mut() {
                let (kv, shared, window) = (&kv, &shared, &window);
                scope.spawn(move || worker.run_window(kv, shared, window));
            }
        });
        window
    };
    let reset = |workers: &mut Vec<Worker>| {
        for w in workers.iter_mut() {
            w.latencies = Default::default();
            w.flush_ms.clear();
            w.put_bytes = 0;
        }
    };

    run_window(
        &mut workers,
        Params::plain_window(p.scaled(WARMUP_OPS, 2_000)),
    );
    let ops = p.window_ops(OPS_PER_SECOND, 1.0);
    reset(&mut workers);
    let store_before = kv.store().stats();
    let kv_before = kv.stats();
    let device_before = probe.as_ref().map(|probe| probe.start_window());
    let window = run_window(&mut workers, p.window(ops));
    let store_after = kv.store().stats();
    let kv_after = kv.stats();

    let mut by_kind: [Latencies; 4] = Default::default();
    let mut flush_ms = Vec::new();
    for w in workers.iter_mut() {
        for (all, own) in by_kind.iter_mut().zip(std::mem::take(&mut w.latencies)) {
            all.merge(own);
        }
        flush_ms.append(&mut w.flush_ms);
    }
    let kind_us: Vec<f64> = by_kind.iter().map(Latencies::mean_us).collect();
    let mut latencies = Latencies::default();
    by_kind.into_iter().for_each(|l| latencies.merge(l));
    latencies.sort();
    out.note(format!(
        "window: {ops} ops in {:.2} s over {THREADS} threads, {} commits; slices {:.3?} s",
        window.elapsed_s(),
        flush_ms.len(),
        window.slice_seconds()
    ));
    out.set("ops_s", window.ops_s());
    out.set("p50_us", latencies.us(0.50));
    layers::amplification(
        &mut out,
        &config,
        &store_before,
        &store_after,
        workers.iter().map(|w| w.put_bytes).sum(),
        window.mean_free_segments(),
        workers.iter().map(Worker::live_payload_bytes).sum(),
    );

    let unrecovered: u64 = if let (Some(probe), Some(device_before)) = (&probe, device_before) {
        out.set("trace.overhead_frac", latencies.tracing_overhead());
        let commits = (kv_after.superblock_commits - kv_before.superblock_commits) as f64;
        layers::device(&mut out, probe, &device_before, ops, commits);
        layers::store_and_cleaner(&mut out, &config, &store_before, &store_after, ops);
        layers::kv(&mut out, &kv_before, &kv_after);
        out.set("kv.get_us", kind_us[0]);
        out.set("kv.put_us", kind_us[1]);
        out.set("kv.range_us", kind_us[3]);
        if !flush_ms.is_empty() {
            out.set("kv.flush_ms_p50", harness::median(flush_ms));
        }
        out.set("loadgen.closed_p99_us", latencies.us(0.99));

        // Everything is measured. Commit, then keep pre-images through one more
        // burst of the mix; then crash: drop everything without a final commit, undo
        // every write no sync covered, reopen, and demand everything the last
        // returned commit covered.
        workers[0].commit(&kv, &shared);
        probe.capture_preimages(harness::power_cut_at_write(p));
        run_window(&mut workers, Params::plain_window(p.scaled(CRASH_OPS, 400)));
        drop(kv);
        let discarded = harness::discard_unsynced_writes(p, probe)?;
        let reopened = harness::recover_kv(p)?;
        let lost: u64 = workers
            .iter_mut()
            .map(|w| {
                let covered = shared.covered[w.model.thread].load(Ordering::SeqCst) as usize;
                w.lost_writes(&reopened, covered)
            })
            .sum();
        out.set("recovery.crash_discarded_segments", discarded as f64);
        out.set("recovery.crash_lost_writes", lost as f64);
        lost
    } else {
        kv.flush().map_err(|e| format!("final flush: {e}"))?;
        drop(kv);
        let (reopened, reopen_s) = p.repeat_reopen(|| {
            let kv = harness::recover_kv(p)?;
            kv.get(&key(0, 0)).map_err(|e| format!("first read: {e}"))?;
            Ok(kv)
        })?;
        out.set("reopen_s", reopen_s);
        workers.iter().map(|w| w.model.wrong_keys(&reopened)).sum()
    };
    out.attempted = workers.iter().map(|w| w.attempted).sum::<u64>() + keys * THREADS as u64;
    out.failed = workers.iter().map(|w| w.failed).sum::<u64>() + unrecovered;
    out.set("peak_rss_mb", harness::peak_rss_mb());
    Ok(out)
}
